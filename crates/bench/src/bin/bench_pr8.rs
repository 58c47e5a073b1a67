//! `bench_pr8` — one-shot snapshot of the multi-array blocked matmul:
//! thread-scaling of a 128³ product tiled across 8 arrays (with the
//! honest core-count gate the `matmul_threads` bench enforces), a
//! ragged-shape demo (pad overhead + reference check), and the
//! streaming `TileSource` path's residency/fetch counters. Writes the
//! numbers as `BENCH_PR8.json` at the repository root (and echoes them
//! to stdout) so EXPERIMENTS.md has a machine-readable source.
//!
//! ```text
//! cargo run --release -p fpfpga-bench --bin bench_pr8
//! ```

use fpfpga::matmul::multi::FnTiles;
use fpfpga::matmul::reference::reference_matmul_flags;
use fpfpga::prelude::*;
use serde_json::{json, Value};
use std::hint::black_box;
use std::time::Instant;

const MODE: RoundMode = RoundMode::NearestEven;
const LM: u32 = 4;
const LA: u32 = 5;

fn sample(fmt: FpFormat, rows: u32, cols: u32, seed: f64) -> Matrix {
    Matrix::from_fn(fmt, rows as usize, cols as usize, |i, j| {
        ((i * cols as usize + j) as f64 * 0.37 + seed).sin() * 4.0
    })
}

fn best_of<F: FnMut() -> u64>(runs: usize, mut f: F) -> f64 {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Thread-scaling of the multi-array path: the same problem the
/// `matmul_threads` criterion bench gates on, measured at 1/2/4/8
/// worker threads with the host core count recorded alongside so a
/// "skipped" gate is distinguishable from a passed one.
fn scaling_section(host_cores: usize) -> Value {
    const M: u32 = 128;
    const B: u32 = 32;
    const ARRAYS: u32 = 8;
    let f = FpFormat::SINGLE;
    let a = sample(f, M, M, 1.0);
    let b = sample(f, M, M, 2.0);
    let mm = MultiMatMul::new(M, M, M, B, LM + LA, ARRAYS).expect("valid plan");
    let flops = 2.0 * (M as f64).powi(3);

    // Pin every thread count to the 1-thread result before timing.
    let (c_one, s_one) = mm.run(MODE, &a, &b, 1).expect("valid run");
    let mut rows = Vec::new();
    let mut secs_by_threads = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (c_par, s_par) = mm.run(MODE, &a, &b, threads).expect("valid run");
        assert_eq!(c_par, c_one, "{threads}-thread matmul diverged");
        assert_eq!(s_par.total, s_one.total, "{threads}-thread stats diverged");
        let secs = best_of(3, || {
            mm.run(MODE, &a, &b, threads)
                .expect("valid run")
                .1
                .total
                .cycles
        });
        println!(
            "multi matmul {M}x{M}x{M} b={B} arrays={ARRAYS} threads={threads}: \
             {:.1} ms, {:.3} GFLOP-equivalent/s",
            secs * 1e3,
            flops / secs / 1e9
        );
        secs_by_threads.push((threads, secs));
        rows.push(json!({
            "threads": threads,
            "seconds": secs,
            "gflop_equivalent_per_s": flops / secs / 1e9,
        }));
    }
    let t1 = secs_by_threads[0].1;
    let t4 = secs_by_threads
        .iter()
        .find(|(t, _)| *t == 4)
        .expect("4-thread row")
        .1;
    let speedup = t1 / t4;
    let gate = if host_cores >= 4 {
        "enforced"
    } else {
        "skipped_lt4_cores"
    };
    println!(
        "multi matmul: 4-thread speedup {speedup:.2}x on {host_cores} CPU(s) — \
         1.5x gate {gate}"
    );
    json!({
        "m": M, "k": M, "n": M,
        "block": B,
        "arrays": ARRAYS,
        "mult_stages": LM,
        "add_stages": LA,
        "flop_equivalents": flops,
        "runs": Value::Array(rows),
        "speedup_4_threads": speedup,
        "gate_1_5x": gate,
    })
}

/// Ragged-shape demo: the shapes that used to panic (`b` not dividing
/// `n`, rectangular operands) now plan, run, match the softfp
/// reference, and report their pad overhead analytically.
fn ragged_section() -> Value {
    let f = FpFormat::SINGLE;
    let mut rows = Vec::new();
    for (m, k, n, b) in [
        (100u32, 37u32, 61u32, 16u32),
        (129, 129, 129, 32),
        (7, 200, 3, 16),
    ] {
        let a = sample(f, m, k, 3.0);
        let bm = sample(f, k, n, 4.0);
        let mm = MultiMatMul::new(m, k, n, b, LM + LA, 4).expect("valid ragged plan");
        let (c, stats) = mm.run(MODE, &a, &bm, 0).expect("valid ragged run");
        let (want, want_flags) = reference_matmul_flags(&a, &bm, MODE);
        assert_eq!(c, want, "ragged {m}x{k}x{n} diverged from reference");
        assert_eq!(stats.flags, want_flags);
        let waste = mm.plan.waste_fraction();
        println!(
            "ragged {m}x{k}·{k}x{n} b={b}: {} cycles, pad fraction {:.3}, \
             verified against reference",
            stats.total.cycles, waste
        );
        rows.push(json!({
            "m": m, "k": k, "n": n,
            "block": b,
            "cycles": stats.total.cycles,
            "useful_macs": stats.total.useful_macs,
            "pad_macs": stats.total.pad_macs,
            "pad_fraction": waste,
            "matches_reference": true,
        }));
    }
    json!({ "shapes": Value::Array(rows) })
}

/// Streaming `TileSource` path: operands generated tile-by-tile, never
/// materialized; the counters show peak residency bounded by 2·arrays
/// and the deterministic fetch count.
fn streaming_section() -> Value {
    let f = FpFormat::SINGLE;
    let (m, k, n, b, arrays) = (96u32, 80u32, 72u32, 16u32, 4u32);
    let a_src = FnTiles {
        rows: m as usize,
        cols: k as usize,
        format: f,
        gen: |i: usize, j: usize| (((i * 80 + j) as f32 * 0.013).sin().to_bits()) as u64,
    };
    let b_src = FnTiles {
        rows: k as usize,
        cols: n as usize,
        format: f,
        gen: |i: usize, j: usize| (((i * 72 + j) as f32 * 0.017).cos().to_bits()) as u64,
    };
    let mm = MultiMatMul::new(m, k, n, b, LM + LA, arrays).expect("valid streaming plan");
    let t = Instant::now();
    let (c, stats) = mm
        .run_streamed(MODE, &a_src, &b_src, 0)
        .expect("valid streaming run");
    let secs = t.elapsed().as_secs_f64();
    assert!(stats.peak_resident_tiles <= 2 * arrays as usize);
    let tile_words = (b as u64) * (b as u64);
    let full_words = (m as u64) * (k as u64) + (k as u64) * (n as u64);
    println!(
        "streamed {m}x{k}·{k}x{n} b={b} arrays={arrays}: {} tile fetches, \
         peak {} resident tiles ({} words vs {} materialized), {:.1} ms",
        stats.tile_fetches,
        stats.peak_resident_tiles,
        stats.peak_resident_tiles as u64 * tile_words,
        full_words,
        secs * 1e3
    );
    json!({
        "m": m, "k": k, "n": n,
        "block": b,
        "arrays": arrays,
        "output_rows": c.rows(),
        "output_cols": c.cols(),
        "tile_fetches": stats.tile_fetches,
        "peak_resident_tiles": stats.peak_resident_tiles,
        "peak_resident_words": stats.peak_resident_tiles as u64 * tile_words,
        "materialized_operand_words": full_words,
        "seconds": secs,
    })
}

fn main() {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("bench_pr8: host has {host_cores} CPU(s)");
    let doc = json!({
        "bench": "pr8_multi_array_matmul",
        "host_cores": host_cores,
        "thread_scaling": scaling_section(host_cores),
        "ragged_shapes": ragged_section(),
        "streaming": streaming_section(),
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR8.json");
    std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
        .expect("write BENCH_PR8.json");
    println!("wrote {path}");
}

//! Multi-array matmul thread-scaling bench: one 128×128·128×128 product
//! tiled with b = 32 across 8 simulated linear arrays
//! ([`MultiMatMul::run`]), fanned out over 1, 2, 4 and 8 worker threads.
//! Every thread count is first asserted bit-identical — matrix, flags
//! and per-array statistics — to the 1-thread run, and the 1-thread run
//! to the serial per-cycle [`BlockMatMul::run`] reference; the 4-thread
//! point must then clear 1.5× the single-thread wall clock. That gate
//! is honest about the host: `available_parallelism` is read once, the
//! core count is printed with the measurement, and hosts with fewer
//! than 4 cores skip the assertion with an explicit notice instead of
//! silently passing.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fpfpga::matmul::multi::MultiStats;
use fpfpga::prelude::*;
use std::hint::black_box;
use std::time::Instant;

const M: u32 = 128;
const K: u32 = 128;
const N: u32 = 128;
const B: u32 = 32;
const ARRAYS: u32 = 8;
const LM: u32 = 4;
const LA: u32 = 5;
const F: FpFormat = FpFormat::SINGLE;
const RM: RoundMode = RoundMode::NearestEven;

fn sample(rows: u32, cols: u32, seed: f64) -> Matrix {
    Matrix::from_fn(F, rows as usize, cols as usize, |i, j| {
        ((i * cols as usize + j) as f64 * 0.37 + seed).sin() * 4.0
    })
}

fn run(mm: &MultiMatMul, a: &Matrix, b: &Matrix, threads: usize) -> (Matrix, MultiStats) {
    mm.run(RM, a, b, threads).expect("bench plan is valid")
}

fn bench_matmul_threads(c: &mut Criterion) {
    let a = sample(M, K, 1.0);
    let b = sample(K, N, 2.0);
    let mm = MultiMatMul::new(M, K, N, B, LM + LA, ARRAYS).expect("bench plan is valid");

    // Equivalence gates: the tile fan-out may only change wall clock,
    // never a result bit, a flag or a statistic. First pin the
    // multi-array path to the serial per-cycle blocked reference, then
    // every thread count to the 1-thread multi run.
    let (c_ref, s_ref, f_ref) = mm
        .plan
        .run(F, RM, LM, LA, &a, &b, UnitBackend::Fast)
        .expect("reference plan is valid");
    let (c_one, s_one) = run(&mm, &a, &b, 1);
    assert_eq!(c_one, c_ref, "multi-array matmul diverged from serial");
    assert_eq!(s_one.flags, f_ref, "multi-array flags diverged from serial");
    assert_eq!(s_one.total, s_ref, "multi-array stats diverged from serial");
    for threads in [2usize, 4, 8] {
        let (c_par, s_par) = run(&mm, &a, &b, threads);
        assert_eq!(c_par, c_one, "{threads}-thread matmul diverged");
        assert_eq!(
            s_par.per_array, s_one.per_array,
            "{threads}-thread per-array stats diverged"
        );
        assert_eq!(s_par.flags, s_one.flags, "{threads}-thread flags diverged");
    }

    // Hard scaling assertion outside criterion's sampling (best of 3
    // to shave scheduler noise), gated on physical core count — read
    // once, printed with the numbers so a skip is visible in CI logs.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let best = |threads: usize| -> f64 {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(run(&mm, &a, &b, threads));
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let t1 = best(1);
    let t4 = best(4);
    let speedup = t1 / t4;
    println!(
        "matmul_threads: {M}x{K}·{K}x{N} b={B} arrays={ARRAYS}, \
         4-thread speedup over 1 thread = {speedup:.2}x ({cores} CPU(s))"
    );
    if cores >= 4 {
        assert!(
            speedup >= 1.5,
            "4 threads must deliver ≥1.5x the 1-thread multi-array matmul \
             on a {cores}-core host, got {speedup:.2}x"
        );
    } else {
        println!(
            "matmul_threads: NOTICE — host has {cores} CPU(s) (<4), \
             ≥1.5x scaling assertion skipped (measured {speedup:.2}x); \
             equivalence gates above still ran"
        );
    }

    let mut g = c.benchmark_group("matmul_threads");
    // 2·m·k·n flop-equivalents per product.
    g.throughput(Throughput::Elements(
        2 * (M as u64) * (K as u64) * (N as u64),
    ));
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        g.bench_function(format!("threads_{threads}"), |bch| {
            bch.iter(|| black_box(run(&mm, &a, &b, threads)).1.total.cycles)
        });
    }
    g.finish();
}

criterion_group!(benches, bench_matmul_threads);
criterion_main!(benches);

//! Streaming-engine bench: the per-cycle `LinearArray::multiply` loop
//! vs `MultiMatMul` on the one-tile `BlockMatMul::cheapest` plan on one
//! array, on a single-precision 64×64 problem (and a 96×96 scaling
//! point). Both paths are bit-identical, statistics included — the
//! property and kernel tests assert it — so this measures pure
//! simulator overhead: `MultiMatMul` runs the rank-1 executor, never
//! computes padding, and takes its statistics from the plan instead of
//! clocking the slot shuffling and bubble cycles.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fpfpga::matmul::array::ArrayStats;
use fpfpga::prelude::*;
use std::hint::black_box;

const LM: u32 = 7; // multiplier stages (paper's single-precision design)
const LA: u32 = 9; // adder stages

fn operands(n: usize) -> (Matrix, Matrix) {
    let fmt = FpFormat::SINGLE;
    let a = Matrix::from_fn(fmt, n, n, |i, j| ((i * n + j) as f64 * 0.29).sin());
    let b = Matrix::from_fn(fmt, n, n, |i, j| ((i + 3 * j) as f64 * 0.17).cos());
    (a, b)
}

/// The batched run: the cheapest plan for an n×n product (b = n).
fn batched(mode: RoundMode, a: &Matrix, b: &Matrix) -> (Matrix, ArrayStats) {
    let n = a.rows() as u32;
    let plan = BlockMatMul::cheapest(n, n, n, LM + LA).expect("nonzero shape and latency");
    let (c, stats) = MultiMatMul { plan, arrays: 1 }
        .run(mode, a, b, 1)
        .expect("operands match the plan");
    (c, stats.total)
}

fn bench_stream_batch(c: &mut Criterion) {
    let fmt = FpFormat::SINGLE;
    let mode = RoundMode::NearestEven;

    for n in [64usize, 96] {
        let (a, b) = operands(n);

        // The two paths must agree before we time them.
        let (c_cycle, s_cycle) =
            LinearArray::multiply(fmt, mode, LM, LA, &a, &b, UnitBackend::Fast);
        let (c_batch, s_batch) = batched(mode, &a, &b);
        assert_eq!(
            c_cycle, c_batch,
            "batched result must be bit-identical (n={n})"
        );
        assert_eq!(s_cycle, s_batch, "and the same statistics (n={n})");

        let mut g = c.benchmark_group(format!("stream_{n}x{n}_single"));
        g.throughput(Throughput::Elements((2 * n * n * n) as u64)); // FLOPs
        g.sample_size(10);

        g.bench_function("per_cycle", |bch| {
            bch.iter(|| {
                let (out, _) = LinearArray::multiply(fmt, mode, LM, LA, &a, &b, UnitBackend::Fast);
                black_box(out.get(0, 0))
            })
        });

        g.bench_function("batched", |bch| {
            bch.iter(|| {
                let (out, _) = batched(mode, &a, &b);
                black_box(out.get(0, 0))
            })
        });

        g.finish();
    }
}

criterion_group!(benches, bench_stream_batch);
criterion_main!(benches);

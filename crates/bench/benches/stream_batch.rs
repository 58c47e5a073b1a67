//! Streaming-engine bench: the per-cycle `LinearArray::multiply` loop
//! vs the batched `LinearArray::multiply_batched` fast path on a
//! single-precision 64×64 problem (and a 96×96 scaling point). Both
//! paths are bit-identical — the property and kernel tests assert it —
//! so this measures pure simulator overhead: the batched engine skips
//! the per-clock slot shuffling and bubble cycles.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
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

fn bench_stream_batch(c: &mut Criterion) {
    let fmt = FpFormat::SINGLE;
    let mode = RoundMode::NearestEven;

    for n in [64usize, 96] {
        let (a, b) = operands(n);

        // The two paths must agree before we time them.
        let (c_cycle, s_cycle) =
            LinearArray::multiply(fmt, mode, LM, LA, &a, &b, UnitBackend::Fast);
        let (c_batch, s_batch) = LinearArray::multiply_batched(fmt, mode, LM, LA, &a, &b);
        assert_eq!(
            c_cycle, c_batch,
            "batched result must be bit-identical (n={n})"
        );
        assert_eq!(
            s_cycle.cycles, s_batch.cycles,
            "and model the same cycles (n={n})"
        );

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
                let (out, _) = LinearArray::multiply_batched(fmt, mode, LM, LA, &a, &b);
                black_box(out.get(0, 0))
            })
        });

        g.finish();
    }
}

criterion_group!(benches, bench_stream_batch);
criterion_main!(benches);

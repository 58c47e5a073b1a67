//! Batch throughput bench: the `softfp::fastpath` batch entry points
//! against the generic scalar `unpacked` path, single
//! thread, on the three named formats. Before any timing the batch
//! results are asserted bit-identical (values *and* flags) to the
//! generic path element by element; the headline claim — the batch
//! kernels clear 2× the generic scalar throughput on add and mul — is
//! a hard assertion measured outside criterion's sampling.
//!
//! A second set of lanes pins each engine the host runs (`add_simd_scalar`,
//! `mul_simd_avx512`, …) through the `fastpath::*_bits_batch_with` entry
//! points, so per-engine regressions show up in criterion history.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fpfpga::softfp::fastpath;
use fpfpga::softfp::{self, Flags, FpFormat, RoundMode, SimdEngine};
use std::hint::black_box;
use std::time::Instant;

// 16k elements keeps both operand slices and the 16-byte-per-element
// result buffer L2-resident, so the ratio below compares the kernels
// rather than the memory system.
const N: usize = 1 << 14;
const MODE: RoundMode = RoundMode::NearestEven;

/// Deterministic operand stream: raw masked bit patterns (mostly
/// normal numbers, with the occasional special), the same distribution
/// the units see in the serving mix.
fn operands(fmt: FpFormat, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..N)
        .map(|_| {
            // splitmix64
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            (z ^ (z >> 31)) & fmt.enc_mask()
        })
        .collect()
}

/// Best-of timing for the generic/batch pair with the rounds
/// interleaved (generic, batch, generic, batch, …). Two back-to-back
/// best-of windows let one scheduler burst on a shared box poison a
/// single side and skew the ratio; alternating rounds hit both sides
/// with the same weather.
fn paired_best_of<A, B>(rounds: usize, mut a: A, mut b: B) -> (f64, f64)
where
    A: FnMut() -> u64,
    B: FnMut() -> u64,
{
    let (mut ta, mut tb) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        let t = Instant::now();
        black_box(a());
        ta = ta.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(b());
        tb = tb.min(t.elapsed().as_secs_f64());
    }
    (ta, tb)
}

fn bench_softfp_fastpath(c: &mut Criterion) {
    let formats = [
        ("f32", FpFormat::SINGLE),
        ("f48", FpFormat::FP48),
        ("f64", FpFormat::DOUBLE),
    ];

    for &(name, fmt) in &formats {
        let a = operands(fmt, 0x5eed ^ fmt.total_bits() as u64);
        let b = operands(fmt, 0xcafe ^ fmt.total_bits() as u64);

        // Equivalence gate: values and flags, every element, both ops.
        let mut batch: Vec<(u64, Flags)> = Vec::with_capacity(N);
        fastpath::add_bits_batch(fmt, &a, &b, MODE, &mut batch);
        for i in 0..N {
            assert_eq!(
                batch[i],
                softfp::add_bits(fmt, a[i], b[i], MODE),
                "{name} add [{i}]"
            );
        }
        batch.clear();
        fastpath::mul_bits_batch(fmt, &a, &b, MODE, &mut batch);
        for i in 0..N {
            assert_eq!(
                batch[i],
                softfp::mul_bits(fmt, a[i], b[i], MODE),
                "{name} mul [{i}]"
            );
        }

        // Headline hard assertion, outside criterion's sampling: the
        // batch kernel must at least double the generic scalar
        // throughput for add and mul, single-threaded.
        let mut out: Vec<(u64, Flags)> = Vec::with_capacity(N);
        for (op_name, generic, batched) in [
            (
                "add",
                softfp::add_bits as fn(FpFormat, u64, u64, RoundMode) -> (u64, Flags),
                fastpath::add_bits_batch
                    as fn(FpFormat, &[u64], &[u64], RoundMode, &mut Vec<(u64, Flags)>),
            ),
            ("mul", softfp::mul_bits, fastpath::mul_bits_batch),
        ] {
            let measure = |out: &mut Vec<(u64, Flags)>| {
                paired_best_of(
                    9,
                    || {
                        let mut acc = 0u64;
                        for i in 0..N {
                            acc ^= generic(fmt, a[i], b[i], MODE).0;
                        }
                        acc
                    },
                    || {
                        out.clear();
                        batched(fmt, &a, &b, MODE, out);
                        out.len() as u64
                    },
                )
            };
            let (mut t_generic, mut t_batch) = measure(&mut out);
            if t_generic / t_batch < 2.0 {
                // One re-measure before failing: even interleaved
                // best-of-9 can land entirely inside a noisy-neighbor
                // burst on a shared 1-CPU box. A genuine regression
                // fails both attempts.
                (t_generic, t_batch) = measure(&mut out);
            }
            let speedup = t_generic / t_batch;
            println!(
                "softfp_fastpath {name} {op_name}: generic {:.1} Mop/s, batch {:.1} Mop/s, {speedup:.2}x",
                N as f64 / t_generic / 1e6,
                N as f64 / t_batch / 1e6,
            );
            assert!(
                speedup >= 2.0,
                "{name} {op_name}: fast-lane batch must clear 2x the generic scalar \
                 path, got {speedup:.2}x"
            );
        }

        let mut g = c.benchmark_group(format!("softfp_fastpath_{name}"));
        g.throughput(Throughput::Elements(N as u64));
        g.bench_function("add_generic_scalar", |bch| {
            bch.iter(|| {
                let mut acc = 0u64;
                for i in 0..N {
                    acc ^= softfp::add_bits(fmt, a[i], b[i], MODE).0;
                }
                acc
            })
        });
        g.bench_function("add_fastpath_batch", |bch| {
            bch.iter(|| {
                out.clear();
                fastpath::add_bits_batch(fmt, &a, &b, MODE, &mut out);
                out.len()
            })
        });
        g.bench_function("mul_generic_scalar", |bch| {
            bch.iter(|| {
                let mut acc = 0u64;
                for i in 0..N {
                    acc ^= softfp::mul_bits(fmt, a[i], b[i], MODE).0;
                }
                acc
            })
        });
        g.bench_function("mul_fastpath_batch", |bch| {
            bch.iter(|| {
                out.clear();
                fastpath::mul_bits_batch(fmt, &a, &b, MODE, &mut out);
                out.len()
            })
        });
        g.bench_function("fma_fastpath_batch", |bch| {
            let c_ops = operands(fmt, 0xf00d ^ fmt.total_bits() as u64);
            bch.iter(|| {
                out.clear();
                fastpath::fma_bits_batch(fmt, &a, &b, &c_ops, MODE, &mut out);
                out.len()
            })
        });

        // Engine-pinned SIMD lanes (skipping engines the host lacks).
        for eng in SimdEngine::available() {
            let eng_name = match eng {
                SimdEngine::Scalar => "scalar",
                SimdEngine::WideAvx2 => "avx2",
                SimdEngine::WideAvx512 => "avx512",
            };
            g.bench_function(format!("add_simd_{eng_name}"), |bch| {
                bch.iter(|| {
                    out.clear();
                    fastpath::add_bits_batch_with(eng, fmt, &a, &b, MODE, &mut out);
                    out.len()
                })
            });
            g.bench_function(format!("mul_simd_{eng_name}"), |bch| {
                bch.iter(|| {
                    out.clear();
                    fastpath::mul_bits_batch_with(eng, fmt, &a, &b, MODE, &mut out);
                    out.len()
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_softfp_fastpath);
criterion_main!(benches);

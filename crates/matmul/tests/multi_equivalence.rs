//! Bit-equivalence of the multi-array blocked matmul against the serial
//! references, over random shapes (ragged, 1×N, N×1, empty-edge), block
//! sizes, array counts 1–8, thread counts 1–4, formats, and the special
//! values that raise exception flags. Values *and* flags must agree for
//! every combination — accumulation order per output tile is a pure
//! function of the plan, never of the array or thread count.
//!
//! The deterministic sweeps run at a fixed thread count of 2.

use fpfpga_matmul::array::ArrayStats;
use fpfpga_matmul::block::BlockMatMul;
use fpfpga_matmul::matrix::Matrix;
use fpfpga_matmul::multi::{FnTiles, MultiMatMul};
use fpfpga_matmul::pe::UnitBackend;
use fpfpga_matmul::reference::reference_matmul_flags;
use fpfpga_matmul::PlanError;
use fpfpga_softfp::{FpFormat, PrecisionPolicy, RoundMode};
use proptest::prelude::*;

const RM: RoundMode = RoundMode::NearestEven;

/// Thread count for the deterministic sweeps.
const CI_THREADS: usize = 2;

fn fmt_of(ix: u8) -> FpFormat {
    FpFormat::PAPER_PRECISIONS[ix as usize % FpFormat::PAPER_PRECISIONS.len()]
}

/// A seeded well-scaled matrix (splitmix so nearby seeds decorrelate).
fn seeded_matrix(fmt: FpFormat, rows: usize, cols: usize, mut seed: u64) -> Matrix {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let entries: Vec<f64> = (0..rows * cols)
        .map(|_| ((next() % 2000) as f64 - 1000.0) / 77.0)
        .collect();
    Matrix::from_f64(fmt, rows, cols, &entries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Multi-array vs the order-faithful softfp reference: values and
    /// flags bit-identical for random (m, k, n, b, arrays, threads,
    /// format) draws — ragged edges included by construction (b rarely
    /// divides the dims).
    #[test]
    fn multi_matches_softfp_reference(
        m in 1u32..14,
        k in 1u32..14,
        n in 1u32..14,
        b in 1u32..7,
        lm in 2u32..7,
        la in 2u32..7,
        arrays in 1u32..9,
        threads in 1usize..5,
        fmt_ix in 0u8..3,
        seed in any::<u64>(),
    ) {
        let fmt = fmt_of(fmt_ix);
        let a = seeded_matrix(fmt, m as usize, k as usize, seed);
        let bm = seeded_matrix(fmt, k as usize, n as usize, seed ^ 0xABCD);
        let mm = MultiMatMul::new(m, k, n, b, lm + la, arrays).unwrap();
        let (c, stats) = mm.run(RM, &a, &bm, threads).unwrap();
        let (want, want_flags) = reference_matmul_flags(&a, &bm, RM);
        prop_assert_eq!(c, want, "m={} k={} n={} b={} arrays={} threads={}", m, k, n, b, arrays, threads);
        prop_assert_eq!(stats.flags, want_flags, "flags m={} k={} n={} b={}", m, k, n, b);
        prop_assert_eq!(stats.total.useful_macs, mm.plan.useful_macs());
        prop_assert_eq!(stats.total.pad_macs, mm.plan.pad_macs());
        prop_assert_eq!(stats.total.cycles, mm.plan.total_cycles());
    }

    /// The multi-array executor vs the per-cycle token-by-token
    /// blocked reference: values, flags AND summed stats identical.
    #[test]
    fn multi_matches_per_cycle_blocked_run(
        m in 1u32..11,
        k in 1u32..11,
        n in 1u32..11,
        b in 1u32..6,
        lm in 2u32..6,
        la in 2u32..6,
        arrays in 1u32..9,
        seed in any::<u64>(),
    ) {
        let fmt = FpFormat::SINGLE;
        let a = seeded_matrix(fmt, m as usize, k as usize, seed);
        let bm = seeded_matrix(fmt, k as usize, n as usize, seed ^ 0x5A5A);
        let plan = BlockMatMul::new(m, k, n, b, lm + la).unwrap();
        let (c_ref, s_ref, f_ref) = plan.run(fmt, RM, lm, la, &a, &bm, UnitBackend::Fast).unwrap();
        let mm = MultiMatMul { plan, arrays };
        let (c, stats) = mm.run(RM, &a, &bm, 2).unwrap();
        prop_assert_eq!(c, c_ref);
        prop_assert_eq!(stats.flags, f_ref);
        prop_assert_eq!(stats.total, s_ref, "summed stats m={} k={} n={} b={} arrays={}", m, k, n, b, arrays);
    }

    /// Each array's statistics equal the per-cycle simulator's, tile by
    /// tile: `per_array[r]` is the sum, over the output tiles array `r`
    /// owns, of the per-cycle [`BlockMatMul::run`] statistics of that
    /// tile's one-tile plan on its sub-operands.
    #[test]
    fn per_array_stats_equal_per_cycle_tiles(
        m in 1u32..11,
        k in 1u32..11,
        n in 1u32..11,
        b in 1u32..6,
        lm in 2u32..6,
        la in 2u32..6,
        arrays in 1u32..9,
        seed in any::<u64>(),
    ) {
        let fmt = FpFormat::SINGLE;
        let (bs, kk) = (b as usize, k as usize);
        let a = seeded_matrix(fmt, m as usize, kk, seed);
        let bm = seeded_matrix(fmt, kk, n as usize, seed ^ 0xC0DE);
        let mm = MultiMatMul::new(m, k, n, b, lm + la, arrays).unwrap();
        let (_, stats) = mm.run(RM, &a, &bm, CI_THREADS).unwrap();
        prop_assert_eq!(stats.per_array.len(), arrays as usize);
        for r in 0..arrays {
            let mut want = ArrayStats::default();
            for (ti, tj) in mm.tiles_of(r) {
                let (rows, cols) = (mm.plan.tile_rows(ti), mm.plan.tile_cols(tj));
                let a_bits = (0..rows * kk).map(|t| a.get(ti * bs + t / kk, t % kk));
                let b_bits = (0..kk * cols).map(|t| bm.get(t / cols, tj * bs + t % cols));
                let a_t = Matrix::from_bits(fmt, rows, kk, a_bits.collect());
                let b_t = Matrix::from_bits(fmt, kk, cols, b_bits.collect());
                let tile = BlockMatMul::new(rows as u32, k, cols as u32, b, lm + la).unwrap();
                let (_, s, _) = tile.run(fmt, RM, lm, la, &a_t, &b_t, UnitBackend::Fast).unwrap();
                want.merge(s);
            }
            prop_assert_eq!(stats.per_array[r as usize], want, "array {} of {} m={} k={} n={} b={}", r, arrays, m, k, n, b);
        }
    }

    /// Per-array statistics are a pure function of the plan: identical
    /// across thread counts (1–4), so scheduling can never perturb the
    /// energy accounting.
    #[test]
    fn per_array_stats_are_thread_invariant(
        m in 1u32..12,
        k in 1u32..12,
        n in 1u32..12,
        b in 1u32..6,
        arrays in 1u32..9,
        seed in any::<u64>(),
    ) {
        let fmt = FpFormat::SINGLE;
        let a = seeded_matrix(fmt, m as usize, k as usize, seed);
        let bm = seeded_matrix(fmt, k as usize, n as usize, seed ^ 0xF00D);
        let mm = MultiMatMul::new(m, k, n, b, 9, arrays).unwrap();
        let (c1, s1) = mm.run(RM, &a, &bm, 1).unwrap();
        for threads in [2usize, 3, 4] {
            let (c, s) = mm.run(RM, &a, &bm, threads).unwrap();
            prop_assert_eq!(&c, &c1, "values at threads={}", threads);
            prop_assert_eq!(&s.per_array, &s1.per_array, "per-array stats at threads={}", threads);
            prop_assert_eq!(s.flags, s1.flags);
            prop_assert_eq!(s.tile_fetches, s1.tile_fetches);
        }
    }

    /// Mixed `PrecisionPolicy` draws through the serving layer's mixed
    /// kernel agree with the widened softfp reference on rectangular
    /// shapes — the multi-array PR must not disturb the mixed path.
    #[test]
    fn mixed_policy_rectangular_matches_reference(
        m in 1usize..10,
        k in 1usize..10,
        n in 1usize..10,
        fmt_ix in 0u8..3,
        wide in 0u8..2,
        seed in any::<u64>(),
    ) {
        let fmt = fmt_of(fmt_ix);
        let policy = if wide == 1 {
            PrecisionPolicy::mixed(fmt, FpFormat::DOUBLE)
        } else {
            PrecisionPolicy::uniform(fmt)
        };
        let a = seeded_matrix(fmt, m, k, seed);
        let bm = seeded_matrix(fmt, k, n, seed ^ 0xBEEF);
        let (c, flags) = fpfpga_matmul::mixed_matmul(policy, RM, &a, &bm);
        if policy.is_uniform() {
            let (want, want_flags) = reference_matmul_flags(&a, &bm, RM);
            prop_assert_eq!(c, want, "uniform degeneration m={} k={} n={}", m, k, n);
            prop_assert_eq!(flags, want_flags);
        } else {
            prop_assert_eq!(c.rows(), m);
            prop_assert_eq!(c.cols(), n);
        }
    }
}

/// Deterministic sweep of the edge shapes the fuzz ranges hit rarely:
/// 1×N, N×1, inner dim 1, dims smaller than the block, exact-multiple
/// dims (empty ragged edge), block of 1. Runs at the CI-pinned thread
/// count.
#[test]
fn edge_shapes_match_reference_at_ci_threads() {
    let threads = CI_THREADS;
    let shapes: &[(u32, u32, u32, u32)] = &[
        (1, 1, 1, 1),
        (1, 1, 1, 4),
        (1, 9, 1, 4),
        (1, 4, 9, 4),
        (9, 4, 1, 4),
        (5, 1, 5, 2),
        (8, 8, 8, 4),  // exact multiple: no ragged edge
        (8, 8, 8, 8),  // single tile
        (2, 3, 4, 16), // block larger than every dim
        (13, 7, 11, 3),
        (16, 1, 16, 5),
    ];
    for &(m, k, n, b) in shapes {
        for fmt in FpFormat::PAPER_PRECISIONS {
            let a = seeded_matrix(fmt, m as usize, k as usize, (m * 31 + k) as u64);
            let bm = seeded_matrix(fmt, k as usize, n as usize, (n * 17 + b) as u64);
            for arrays in [1u32, 3, 8] {
                let mm = MultiMatMul::new(m, k, n, b, 9, arrays).unwrap();
                let (c, stats) = mm.run(RM, &a, &bm, threads).unwrap();
                let (want, want_flags) = reference_matmul_flags(&a, &bm, RM);
                assert_eq!(c, want, "m={m} k={k} n={n} b={b} arrays={arrays} {fmt}");
                assert_eq!(stats.flags, want_flags, "m={m} k={k} n={n} b={b} {fmt}");
            }
        }
    }
}

/// Special values (inf, −inf, NaN, max-finite, −0) produce identical
/// values and flags on the multi path at the CI thread count.
#[test]
fn special_values_flags_match_at_ci_threads() {
    let threads = CI_THREADS;
    let fmt = FpFormat::SINGLE;
    let specials = [
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f32::MAX as f64,
        -0.0,
        1.5,
        f32::MIN_POSITIVE as f64 * 0.5, // denormal in SINGLE
    ];
    let a = Matrix::from_fn(fmt, 5, 5, |i, j| specials[(i * 5 + j) % specials.len()]);
    let b = Matrix::from_fn(fmt, 5, 5, |i, j| {
        specials[(i * 3 + 2 * j + 1) % specials.len()]
    });
    let (want, want_flags) = reference_matmul_flags(&a, &b, RM);
    for arrays in 1..=8u32 {
        for bs in [1u32, 2, 3, 5] {
            let mm = MultiMatMul::new(5, 5, 5, bs, 7, arrays).unwrap();
            let (c, stats) = mm.run(RM, &a, &b, threads).unwrap();
            assert_eq!(c, want, "arrays={arrays} b={bs}");
            assert_eq!(stats.flags, want_flags, "arrays={arrays} b={bs}");
        }
    }
    assert!(
        want_flags.invalid,
        "the special mix must exercise invalid (inf·0 / inf−inf / NaN)"
    );
}

/// Streaming executor: a problem much larger than 2·arrays tiles keeps
/// at most 2 resident tile buffers per array, at any thread count.
#[test]
fn streaming_peak_residency_is_bounded_by_2k() {
    let fmt = FpFormat::SINGLE;
    let (m, k, n, bs) = (50usize, 34usize, 42usize, 8u32);
    let gen_a = |i: usize, j: usize| (((i * 34 + j) as f32 * 0.013).sin().to_bits()) as u64;
    let gen_b = |i: usize, j: usize| (((i * 42 + j) as f32 * 0.017).cos().to_bits()) as u64;
    for arrays in [1u32, 2, 4, 8] {
        for threads in [1usize, 2, 4] {
            let a_src = FnTiles {
                rows: m,
                cols: k,
                format: fmt,
                gen: gen_a,
            };
            let b_src = FnTiles {
                rows: k,
                cols: n,
                format: fmt,
                gen: gen_b,
            };
            let mm = MultiMatMul::new(m as u32, k as u32, n as u32, bs, 9, arrays).unwrap();
            let (c, stats) = mm.run_streamed(RM, &a_src, &b_src, threads).unwrap();
            // 7×6 output tiles, 5 inner tiles — far more than 2·arrays
            // tile reads — yet residency stays ≤ 2 per array.
            assert!(
                stats.peak_resident_tiles <= 2 * arrays as usize,
                "arrays={arrays} threads={threads} peak={}",
                stats.peak_resident_tiles
            );
            assert_eq!(stats.tile_fetches, 2 * mm.plan.block_products());
            // And the result still matches the materialized reference.
            let a_mat =
                Matrix::from_bits(fmt, m, k, (0..m * k).map(|t| gen_a(t / k, t % k)).collect());
            let b_mat =
                Matrix::from_bits(fmt, k, n, (0..k * n).map(|t| gen_b(t / n, t % n)).collect());
            let (want, want_flags) = reference_matmul_flags(&a_mat, &b_mat, RM);
            assert_eq!(c, want, "arrays={arrays} threads={threads}");
            assert_eq!(stats.flags, want_flags);
        }
    }
}

/// The planner accepts arbitrary positive shapes and returns typed
/// errors — never panics — for the genuinely invalid ones (fuzzed wide,
/// zeros included).
#[test]
fn planner_never_panics_over_the_full_parameter_grid() {
    for m in 0..6u32 {
        for k in 0..6u32 {
            for n in 0..6u32 {
                for b in 0..5u32 {
                    for pl in 0..4u32 {
                        for arrays in 0..4u32 {
                            match MultiMatMul::new(m, k, n, b, pl, arrays) {
                                Ok(mm) => {
                                    assert!(m >= 1 && k >= 1 && n >= 1 && b >= 1 && pl >= 1);
                                    assert!(arrays >= 1);
                                    // The analytical model is total on valid plans.
                                    let _ = mm.plan.total_cycles();
                                    let _ = mm.plan.pad_macs();
                                    let _ = mm.plan.io_words();
                                }
                                Err(
                                    PlanError::ZeroDim(_)
                                    | PlanError::ZeroBlock
                                    | PlanError::ZeroLatency
                                    | PlanError::ZeroArrays,
                                ) => {
                                    assert!(
                                        m == 0
                                            || k == 0
                                            || n == 0
                                            || b == 0
                                            || pl == 0
                                            || arrays == 0
                                    );
                                }
                                Err(e) => panic!("unexpected error {e}"),
                            }
                        }
                    }
                }
            }
        }
    }
}

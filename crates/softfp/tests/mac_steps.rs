//! `mac_steps_bits` on every engine the host runs against a per-element
//! oracle: `mul_bits` in the compute format, the generic `convert` into
//! the accumulate format, then `add_bits` into bank slot `k % la`, in
//! ascending `k` — accumulator values and the OR of every flag. Covers
//! every covering pair of the paper's precisions, two dynamic formats and
//! a rounding (non-covering) pair; both rounding modes; bank counts,
//! widths around the chunk width and every width narrower than a chunk,
//! row strides equal to and wider than the banks, and one-column (dot)
//! calls with every bank count below a chunk, with fewer steps than a
//! chunk and with more;
//! special densities of 0/50/100%; and targeted rows: products that
//! overflow or underflow into the accumulator, ∞ − ∞ in the middle of a
//! row, and f48/f64 sums near the largest finite value, where the
//! binary64 TwoSum overflows.

use fpfpga_softfp::convert::convert;
use fpfpga_softfp::fastpath::mac_steps_bits_with;
use fpfpga_softfp::{add_bits, mul_bits, Flags, FpFormat, RoundMode, SimdEngine};

const F32: FpFormat = FpFormat::SINGLE;
const F48: FpFormat = FpFormat::FP48;
const F64: FpFormat = FpFormat::DOUBLE;

/// (compute, accumulate) pairs: every covering pair of the named formats,
/// two dynamic ones, and a narrowing pair that rounds in `convert`.
const PAIRS: [(FpFormat, FpFormat); 9] = [
    (F32, F32),
    (F32, F48),
    (F32, F64),
    (F48, F48),
    (F48, F64),
    (F64, F64),
    (FpFormat::new(9, 30), FpFormat::new(9, 30)),
    (FpFormat::new(5, 10), F32),
    (F64, F32),
];
const MODES: [RoundMode; 2] = [RoundMode::NearestEven, RoundMode::Truncate];
const BANKS: [usize; 6] = [1, 2, 3, 5, 8, 9];
const WIDTHS: [usize; 6] = [1, 7, 8, 9, 17, 40];

/// The oracle: `(banks, flags)` after every step, element by element.
#[allow(clippy::too_many_arguments)]
fn oracle(
    (compute, accumulate): (FpFormat, FpFormat),
    lhs: &[u64],
    rhs: &[u64],
    stride: usize,
    banks: &[u64],
    la: usize,
    mode: RoundMode,
) -> (Vec<u64>, Flags) {
    let p = banks.len() / la;
    let mut banks = banks.to_vec();
    let mut flags = Flags::NONE;
    for (k, &l) in lhs.iter().enumerate() {
        for j in 0..p {
            let (x, f1) = mul_bits(compute, rhs[k * stride + j], l, mode);
            let (x, f2) = convert(compute, x, accumulate, mode);
            let acc = &mut banks[(k % la) * p + j];
            let (y, f3) = add_bits(accumulate, x, *acc, mode);
            *acc = y;
            flags |= f1 | f2 | f3;
        }
    }
    (banks, flags)
}

/// `mac_steps_bits` against the oracle on every engine.
#[allow(clippy::too_many_arguments)]
fn check(
    pair: (FpFormat, FpFormat),
    lhs: &[u64],
    rhs: &[u64],
    stride: usize,
    banks: &[u64],
    la: usize,
    mode: RoundMode,
    ctx: &str,
) -> Flags {
    let want = oracle(pair, lhs, rhs, stride, banks, la, mode);
    for eng in SimdEngine::available() {
        let mut got = banks.to_vec();
        let (c, a) = pair;
        let flags = mac_steps_bits_with(eng, c, a, lhs, rhs, stride, &mut got, la, mode);
        assert_eq!(
            (got, flags),
            want,
            "{eng:?} {c:?} -> {a:?} {mode:?} la={la} {ctx}"
        );
    }
    want.1
}

/// A deterministic operand stream with `density_pct`% special encodings
/// (signed zeros, flushed subnormal patterns, infinities with and
/// without payload); the rest are normals within a few binades of 1.0,
/// so long rows stay finite.
fn operands(fmt: FpFormat, n: usize, density_pct: u64, seed: u64) -> Vec<u64> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(0xd129_42e2_96fe_94e3)
                .wrapping_add(0x2545_f491_4f6c_dd1d);
            let (sign, _, frac) = fmt.unpack_fields(s >> 3);
            if (s >> 40) % 100 < density_pct {
                match (s >> 50) % 4 {
                    0 => fmt.pack(sign, 0, 0),
                    1 => fmt.pack(sign, 0, frac | 1),
                    2 => fmt.pack(sign, fmt.inf_biased_exp(), 0),
                    _ => fmt.pack(sign, fmt.inf_biased_exp(), frac | 1),
                }
            } else {
                fmt.pack(sign, fmt.bias() as u64 - 3 + (s >> 20) % 7, frac)
            }
        })
        .collect()
}

#[test]
fn mac_steps_match_the_element_loop_at_every_shape_and_density() {
    let steps = 11;
    for pair @ (compute, accumulate) in PAIRS {
        for mode in MODES {
            for la in BANKS {
                for (p, stride) in WIDTHS.into_iter().flat_map(|p| [(p, p), (p, p + 3)]) {
                    for density in [0, 50, 100] {
                        let seed = (la * 100 + p) as u64 + density;
                        let lhs = operands(compute, steps, density, seed);
                        let rhs = operands(compute, (steps - 1) * stride + p, density, seed + 1);
                        let banks = operands(accumulate, la * p, density, seed + 2);
                        let ctx = format!("p={p} stride={stride} density={density}");
                        check(pair, &lhs, &rhs, stride, &banks, la, mode, &ctx);
                    }
                }
            }
        }
    }
}

#[test]
fn products_that_overflow_or_underflow_reach_the_accumulator() {
    for pair @ (compute, accumulate) in PAIRS {
        let two = compute.pack(false, compute.bias() as u64 + 1, 0);
        let half = compute.pack(false, compute.bias() as u64 - 1, 0);
        let one_a = accumulate.pack(false, accumulate.bias() as u64, 0);
        for mode in MODES {
            for p in WIDTHS {
                // Row 0 overflows (max·2), row 1 underflows (min·0.5), and
                // the other rows are exact.
                let rhs: Vec<u64> = (0..3 * p)
                    .map(|i| match (i / p, i % p % 3) {
                        (0, 0) => compute.max_finite(),
                        (1, 0) => compute.min_positive(),
                        _ => two,
                    })
                    .collect();
                let lhs = [two, half, half];
                let banks = vec![one_a; p];
                let flags = check(pair, &lhs, &rhs, p, &banks, 1, mode, &format!("p={p}"));
                assert!(flags.overflow && flags.underflow, "{pair:?} p={p}");
            }
        }
    }
}

#[test]
fn infinities_of_both_signs_in_the_middle_of_a_row_are_invalid() {
    for pair @ (compute, accumulate) in PAIRS {
        let one = compute.pack(false, compute.bias() as u64, 0);
        for mode in MODES {
            for (p, la) in [(1, 1), (9, 1), (17, 2), (40, 3)] {
                let mut lhs = vec![one; 7 * la];
                lhs[3 * la] = compute.pos_inf();
                lhs[5 * la] = compute.neg_inf();
                let rhs = vec![one; 7 * la * p];
                let banks = vec![accumulate.zero(); la * p];
                let flags = check(pair, &lhs, &rhs, p, &banks, la, mode, &format!("p={p}"));
                assert!(flags.invalid, "{pair:?} p={p} la={la}");
            }
        }
    }
}

#[test]
fn sums_near_the_largest_value_overflow_the_binary64_two_sum() {
    for pair @ (compute, accumulate) in [(F48, F48), (F48, F64), (F64, F64)] {
        let one = compute.pack(false, compute.bias() as u64, 0);
        for sign in [false, true] {
            // About 1.5 and 1.25 times 2^emax: any two of them overflow
            // the format and binary64 alike.
            let big_c = compute.pack(sign, compute.max_biased_exp(), compute.frac_mask() >> 1);
            let big_a = accumulate.pack(
                sign,
                accumulate.max_biased_exp(),
                accumulate.frac_mask() >> 2,
            );
            for mode in MODES {
                for p in [8, 9, 17, 40] {
                    // Each row alternates huge and unit lanes; the banks
                    // start huge in every third lane, so those overflow on
                    // the first step when the rhs lane is huge too.
                    let rhs: Vec<u64> = (0..4 * p)
                        .map(|i| if i % 2 == 0 { big_c } else { one })
                        .collect();
                    let lhs = [one, one, compute.pack(true, compute.bias() as u64, 0), one];
                    let banks: Vec<u64> = (0..p)
                        .map(|j| if j % 3 == 0 { big_a } else { one })
                        .collect();
                    let ctx = format!("p={p} sign={sign}");
                    let flags = check(pair, &lhs, &rhs, p, &banks, 1, mode, &ctx);
                    assert!(flags.overflow, "{pair:?} {ctx}");
                }
            }
        }
    }
}

#[test]
fn one_column_calls_span_several_product_blocks() {
    // A dot forms its products a block of at most 256 at a time; 600
    // steps cross two block edges at every bank count.
    let steps = 600;
    for pair @ (compute, accumulate) in PAIRS {
        for la in BANKS {
            for density in [0, 50] {
                let seed = la as u64 * 7 + density;
                let lhs = operands(compute, steps, density, seed);
                let rhs = operands(compute, steps, density, seed + 1);
                let banks = operands(accumulate, la, density, seed + 2);
                let ctx = format!("p=1 stride=1 steps={steps} density={density}");
                check(
                    pair,
                    &lhs,
                    &rhs,
                    1,
                    &banks,
                    la,
                    RoundMode::NearestEven,
                    &ctx,
                );
            }
        }
    }
}

#[test]
fn rows_narrower_than_a_chunk_read_only_their_own_columns() {
    // `rhs` ends exactly at the last step's row, so a padded load that
    // read past a row's `p` columns would index out of the slice.
    let steps = 5;
    for pair @ (compute, accumulate) in PAIRS {
        for mode in MODES {
            for p in 1..8 {
                for (la, stride) in [(1, p), (2, p + 1), (3, p + 7)] {
                    for density in [0, 50] {
                        let seed = (la * 10 + p) as u64 + density;
                        let lhs = operands(compute, steps, density, seed);
                        let rhs = operands(compute, (steps - 1) * stride + p, density, seed + 1);
                        let banks = operands(accumulate, la * p, density, seed + 2);
                        let ctx = format!("p={p} stride={stride} density={density}");
                        check(pair, &lhs, &rhs, stride, &banks, la, mode, &ctx);
                    }
                }
            }
        }
    }
}

#[test]
fn dots_at_every_bank_count_below_a_chunk() {
    // A dot runs each round of `la` adds as one step `la` wide, and the
    // last `m % la` products as one narrower step.
    for pair @ (compute, accumulate) in PAIRS {
        for mode in MODES {
            for la in 1..8 {
                for m in [1, 3, 5, 7, 9, 16, 23] {
                    for density in [0, 50] {
                        let seed = (la * 100 + m) as u64 + density;
                        let lhs = operands(compute, m, density, seed);
                        let rhs = operands(compute, m, density, seed + 1);
                        let banks = operands(accumulate, la, density, seed + 2);
                        let ctx = format!("dot m={m} density={density}");
                        check(pair, &lhs, &rhs, 1, &banks, la, mode, &ctx);
                    }
                }
            }
        }
    }
}

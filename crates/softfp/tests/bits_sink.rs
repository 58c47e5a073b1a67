//! The bits entry points (`fastpath::mac_steps_bits` one step deep,
//! `add_acc_bits`) against the pair entry points on every engine the host
//! runs: result bits element for element, and the returned `Flags` equal
//! to the OR of the pair path's per-element flags. Covers the paper's
//! precisions and dynamic formats (which take the generic ops on every
//! engine), special densities of 0/50/100%, lengths around the chunk
//! width, and batches whose only raised range flags are overflow,
//! underflow, invalid, or overflow and underflow together — the case
//! where OR-ing the packed flag codes instead of decoded flags would
//! invent `invalid`.

use fpfpga_softfp::fastpath::{
    add_acc_bits_with, add_bits_batch_with, mac_steps_bits_with, mul_bits_batch_with,
};
use fpfpga_softfp::{Flags, FpFormat, RoundMode, SimdEngine};

const FORMATS: [FpFormat; 5] = [
    FpFormat::SINGLE,
    FpFormat::FP48,
    FpFormat::DOUBLE,
    FpFormat::new(9, 30),
    FpFormat::new(5, 10),
];
const MODES: [RoundMode; 2] = [RoundMode::NearestEven, RoundMode::Truncate];
const LENGTHS: [usize; 6] = [0, 1, 7, 8, 9, 33];

fn or_flags(pairs: &[(u64, Flags)]) -> Flags {
    pairs.iter().fold(Flags::NONE, |acc, &(_, f)| acc | f)
}

/// A deterministic operand stream with `density_pct`% special encodings
/// (signed zeros, flushed subnormal patterns, infinities with and
/// without payload); the rest are normals over the whole exponent range.
fn operands(fmt: FpFormat, n: usize, density_pct: u64, seed: u64) -> Vec<u64> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(0xd129_42e2_96fe_94e3)
                .wrapping_add(0x2545_f491_4f6c_dd1d);
            let (sign, exp, frac) = fmt.unpack_fields(s >> 3);
            if (s >> 40) % 100 < density_pct {
                match (s >> 50) % 4 {
                    0 => fmt.pack(sign, 0, 0),
                    1 => fmt.pack(sign, 0, frac | 1),
                    2 => fmt.pack(sign, fmt.inf_biased_exp(), 0),
                    _ => fmt.pack(sign, fmt.inf_biased_exp(), frac | 1),
                }
            } else {
                fmt.pack(sign, 1 + exp % fmt.max_biased_exp(), frac)
            }
        })
        .collect()
}

/// One `mac_steps_bits` step (`a[j]·b + acc0[j]`) and `add_acc_bits` on
/// `eng` against the pair entry points on the same engine; returns both
/// reduced flag sets.
fn check(
    eng: SimdEngine,
    fmt: FpFormat,
    mode: RoundMode,
    a: &[u64],
    b: u64,
    acc0: &[u64],
) -> (Flags, Flags) {
    let ctx = format!("{eng:?} {fmt:?} {mode:?} n={}", a.len());

    let mut products = Vec::new();
    mul_bits_batch_with(eng, fmt, a, &vec![b; a.len()], mode, &mut products);
    let product_bits: Vec<u64> = products.iter().map(|&(r, _)| r).collect();
    let mut pairs = Vec::new();
    add_bits_batch_with(eng, fmt, &product_bits, acc0, mode, &mut pairs);
    let mut bank = acc0.to_vec();
    let mac_flags = mac_steps_bits_with(eng, fmt, fmt, &[b], a, a.len(), &mut bank, 1, mode);
    let want: Vec<u64> = pairs.iter().map(|&(r, _)| r).collect();
    assert_eq!(bank, want, "mac bits {ctx}");
    assert_eq!(
        mac_flags,
        or_flags(&products) | or_flags(&pairs),
        "mac flags {ctx}"
    );

    pairs.clear();
    add_bits_batch_with(eng, fmt, a, acc0, mode, &mut pairs);
    let mut acc = acc0.to_vec();
    let add_flags = add_acc_bits_with(eng, fmt, a, &mut acc, mode);
    let want: Vec<u64> = pairs.iter().map(|&(r, _)| r).collect();
    assert_eq!(acc, want, "add bits {ctx}");
    assert_eq!(add_flags, or_flags(&pairs), "add flags {ctx}");

    (mac_flags, add_flags)
}

#[test]
fn bits_entry_points_match_pairs_at_every_density_and_length() {
    for fmt in FORMATS {
        for mode in MODES {
            for density in [0, 50, 100] {
                for n in LENGTHS {
                    let a = operands(fmt, n, density, n as u64 + 1);
                    let acc = operands(fmt, n, density, n as u64 + 1000);
                    for b in operands(fmt, 4, density, 77) {
                        for eng in SimdEngine::available() {
                            check(eng, fmt, mode, &a, b, &acc);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn reduced_flags_decode_overflow_underflow_and_invalid_separately() {
    let overflow = Flags::overflow();
    let underflow = Flags::underflow();
    for fmt in FORMATS {
        let one = fmt.pack(false, fmt.bias() as u64, 0);
        let two = fmt.pack(false, fmt.bias() as u64 + 1, 0);
        let half = fmt.pack(false, fmt.bias() as u64 - 1, 0);
        let big = fmt.max_finite();
        // 1.5 · 2^emin: halving it, or subtracting 2^emin, underflows.
        let tiny = fmt.pack(false, 1, 1 << (fmt.frac_bits() - 1));
        let neg_min = fmt.pack(true, 1, 0);
        let inf = fmt.pos_inf();
        let neg_inf = fmt.neg_inf();
        for n in [1usize, 8, 9, 33] {
            // Exact filler lanes (1·1, 1 + 1) raise nothing, so the
            // targeted lanes are the only source of flags.
            let lanes = |hit: u64, rest: u64| -> Vec<u64> {
                (0..n)
                    .map(|i| if i % 3 == 0 { hit } else { rest })
                    .collect()
            };
            for eng in SimdEngine::available() {
                for mode in MODES {
                    // Only overflow: big·2 and big + big.
                    let (m, a) = check(eng, fmt, mode, &lanes(big, one), two, &lanes(big, one));
                    assert_eq!((m, a), (overflow, overflow), "{eng:?} {fmt:?} n={n}");

                    // Only underflow: tiny·0.5 and tiny − 2^emin.
                    let a_ops = lanes(tiny, one);
                    let (m, _) = check(eng, fmt, mode, &a_ops, half, &a_ops);
                    assert_eq!(m, underflow, "{eng:?} {fmt:?} n={n}");
                    let (_, a) = check(eng, fmt, mode, &a_ops, one, &lanes(neg_min, one));
                    assert_eq!(a, underflow, "{eng:?} {fmt:?} n={n}");

                    // Only invalid: ∞·0 and ∞ + (−∞).
                    let (m, a) = check(eng, fmt, mode, &lanes(inf, one), 0, &lanes(neg_inf, one));
                    assert_eq!(
                        (m, a),
                        (Flags::invalid(), Flags::invalid()),
                        "{eng:?} {fmt:?} n={n}"
                    );

                    // Overflow and underflow lanes in the same chunks:
                    // both flags, never `invalid`.
                    let mixed: Vec<u64> = (0..n)
                        .map(|i| match i % 3 {
                            0 => big,
                            1 => tiny,
                            _ => one,
                        })
                        .collect();
                    let acc: Vec<u64> = (0..n)
                        .map(|i| match i % 3 {
                            0 => big,
                            1 => neg_min,
                            _ => one,
                        })
                        .collect();
                    let (_, a) = check(eng, fmt, mode, &mixed, one, &acc);
                    if n > 1 {
                        assert_eq!(a, overflow | underflow, "{eng:?} {fmt:?} n={n}");
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "rhs too short")]
fn mac_steps_bits_short_rhs_panics() {
    let mut bank = [0u64; 2];
    let mode = RoundMode::NearestEven;
    fpfpga_softfp::mac_steps_bits(
        FpFormat::SINGLE,
        FpFormat::SINGLE,
        &[0],
        &[0],
        2,
        &mut bank,
        1,
        mode,
    );
}

#[test]
#[should_panic(expected = "equal lengths")]
fn add_acc_bits_length_mismatch_panics() {
    let mut acc = [0u64; 1];
    fpfpga_softfp::add_acc_bits(FpFormat::DOUBLE, &[0, 1], &mut acc, RoundMode::Truncate);
}

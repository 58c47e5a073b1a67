//! Property tests: every SIMD batch engine must be bit-identical to the
//! generic `unpacked` dispatchers — result encodings *and* exception
//! flags — at special-operand densities of 0%, ~5% and 100%, on the
//! paper's three precisions. The suite pins the engine by value through
//! the `fastpath::*_bits_batch_with` entry points — `Scalar` runs the
//! production scalar loops — and checks partition-order stability:
//! the classify-then-partition driver must scatter special-lane results
//! back into their original batch positions.

use fpfpga_softfp::fastpath;
use fpfpga_softfp::{
    add_bits, fma_bits, mul_bits, sub_bits, Flags, FpFormat, RoundMode, SimdEngine,
};
use proptest::prelude::*;

const FORMATS: [FpFormat; 3] = FpFormat::PAPER_PRECISIONS;

fn any_fmt() -> impl Strategy<Value = FpFormat> {
    prop_oneof![Just(FORMATS[0]), Just(FORMATS[1]), Just(FORMATS[2])]
}

fn any_mode() -> impl Strategy<Value = RoundMode> {
    prop_oneof![Just(RoundMode::NearestEven), Just(RoundMode::Truncate)]
}

/// Turn a raw draw into an operand with the requested percentage of
/// special encodings (`sel` is an independent uniform draw). Specials
/// cycle through zero, denormal-pattern, and all-ones-exponent
/// encodings; normals fold the exponent into the normal range.
fn encode(fmt: FpFormat, raw: u64, sel: u16, density_pct: u16) -> u64 {
    if u64::from(sel % 100) < u64::from(density_pct) {
        let (sign, _, frac) = fmt.unpack_fields(raw);
        match sel / 100 % 3 {
            0 => fmt.pack(sign, 0, 0),                       // signed zero
            1 => fmt.pack(sign, 0, frac | 1),                // denormal pattern
            _ => fmt.pack(sign, fmt.inf_biased_exp(), frac), // inf/NaN pattern
        }
    } else {
        let (sign, exp, frac) = fmt.unpack_fields(raw);
        let norm = 1 + exp % fmt.max_biased_exp();
        fmt.pack(sign, norm, frac)
    }
}

type RawBatch = Vec<(u64, u64, u64, u16)>;

fn raw_batch() -> impl Strategy<Value = RawBatch> {
    proptest::collection::vec(
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u16>()),
        0..80,
    )
}

/// Check one (engine, density) cell for every binary op plus fma:
/// the batch output must equal the generic scalar dispatchers,
/// element for element, in original input order.
fn check_density(fmt: FpFormat, mode: RoundMode, raw: &RawBatch, density_pct: u16) {
    let a: Vec<u64> = raw
        .iter()
        .map(|&(x, _, _, s)| encode(fmt, x, s, density_pct))
        .collect();
    let b: Vec<u64> = raw
        .iter()
        .map(|&(_, y, _, s)| encode(fmt, y, s.wrapping_add(7), density_pct))
        .collect();
    let c: Vec<u64> = raw
        .iter()
        .map(|&(_, _, z, s)| encode(fmt, z, s.wrapping_add(31), density_pct))
        .collect();

    let want_add: Vec<(u64, Flags)> = (0..a.len())
        .map(|i| add_bits(fmt, a[i], b[i], mode))
        .collect();
    let want_sub: Vec<(u64, Flags)> = (0..a.len())
        .map(|i| sub_bits(fmt, a[i], b[i], mode))
        .collect();
    let want_mul: Vec<(u64, Flags)> = (0..a.len())
        .map(|i| mul_bits(fmt, a[i], b[i], mode))
        .collect();
    let want_fma: Vec<(u64, Flags)> = (0..a.len())
        .map(|i| fma_bits(fmt, a[i], b[i], c[i], mode))
        .collect();

    for eng in SimdEngine::available() {
        let mut out = Vec::new();
        fastpath::add_bits_batch_with(eng, fmt, &a, &b, mode, &mut out);
        assert_eq!(out, want_add, "{eng:?} add {fmt:?} {density_pct}%");
        out.clear();
        fastpath::sub_bits_batch_with(eng, fmt, &a, &b, mode, &mut out);
        assert_eq!(out, want_sub, "{eng:?} sub {fmt:?} {density_pct}%");
        out.clear();
        fastpath::mul_bits_batch_with(eng, fmt, &a, &b, mode, &mut out);
        assert_eq!(out, want_mul, "{eng:?} mul {fmt:?} {density_pct}%");
        out.clear();
        fastpath::fma_bits_batch_with(eng, fmt, &a, &b, &c, mode, &mut out);
        assert_eq!(out, want_fma, "{eng:?} fma {fmt:?} {density_pct}%");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// 0% specials: the pure vector datapath, no partition fixup.
    #[test]
    fn all_normal_batches_match_generic(fmt in any_fmt(), mode in any_mode(),
                                        raw in raw_batch()) {
        check_density(fmt, mode, &raw, 0);
    }

    /// ~5% specials: mostly-vector chunks with sparse scattered fixups —
    /// the partition pass must place each special result back in order.
    #[test]
    fn sparse_special_batches_match_generic(fmt in any_fmt(), mode in any_mode(),
                                            raw in raw_batch()) {
        check_density(fmt, mode, &raw, 5);
    }

    /// 100% specials: every lane takes the generic path; the vector lane
    /// contributes nothing but must not corrupt order or flags.
    #[test]
    fn all_special_batches_match_generic(fmt in any_fmt(), mode in any_mode(),
                                         raw in raw_batch()) {
        check_density(fmt, mode, &raw, 100);
    }

    /// Engines also agree on arbitrary *raw* encodings (whatever mix of
    /// normal/special that implies).
    #[test]
    fn raw_encodings_match_generic(fmt in any_fmt(), mode in any_mode(),
                                   raw in raw_batch()) {
        let a: Vec<u64> = raw.iter().map(|&(x, ..)| x & fmt.enc_mask()).collect();
        let b: Vec<u64> = raw.iter().map(|&(_, y, ..)| y & fmt.enc_mask()).collect();
        for eng in SimdEngine::available() {
            let mut out = Vec::new();
            fastpath::add_bits_batch_with(eng, fmt, &a, &b, mode, &mut out);
            for i in 0..a.len() {
                prop_assert_eq!(out[i], add_bits(fmt, a[i], b[i], mode),
                                "{:?} add lane {}", eng, i);
            }
        }
    }
}

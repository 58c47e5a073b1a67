//! Property tests: the batch entry points must be bit-identical to the
//! generic `unpacked` ops — result encodings *and* exception flags — on
//! every engine the host runs, at random batch lengths (so full chunks,
//! padded tails and batches shorter than a chunk all occur), on **random
//! custom formats** as well as the three named precisions. Random formats
//! run the generic loop of the entry points; the named ones run the
//! chunked drivers, on the portable word for `SimdEngine::Scalar`.
//! Operands are raw bit patterns, so zeros, denormal encodings (which
//! flush), infinities and NaN-pattern encodings all get drawn alongside
//! normals.

use fpfpga_softfp::fastpath;
use fpfpga_softfp::{
    add_bits, fma_bits, mul_bits, sub_bits, Flags, FpFormat, RoundMode, SimdEngine,
};
use proptest::prelude::*;

/// Any legal format: `exp_bits` 2..=15, `frac_bits` 2..=56, total <= 64.
fn any_format() -> impl Strategy<Value = FpFormat> {
    (2u32..=15, 2u32..=56)
        .prop_filter("fits in 64 bits", |&(e, f)| 1 + e + f <= 64)
        .prop_map(|(e, f)| FpFormat::new(e, f))
}

/// A named precision three times in four, else a random format.
fn fmt_strategy() -> impl Strategy<Value = FpFormat> {
    prop_oneof![
        Just(FpFormat::SINGLE),
        Just(FpFormat::FP48),
        Just(FpFormat::DOUBLE),
        any_format(),
    ]
}

fn any_mode() -> impl Strategy<Value = RoundMode> {
    prop_oneof![Just(RoundMode::NearestEven), Just(RoundMode::Truncate)]
}

/// Raw operand draws for a batch of 0..24 elements: whole chunks, every
/// tail length and batches shorter than a chunk.
fn raw_batch() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..24)
}

type Binary = fn(FpFormat, u64, u64, RoundMode) -> (u64, Flags);
type PairBatch = fn(SimdEngine, FpFormat, &[u64], &[u64], RoundMode, &mut Vec<(u64, Flags)>);
type BitsInto = fn(SimdEngine, FpFormat, &[u64], &[u64], RoundMode, &mut [u64]) -> Flags;

/// `op`'s pair batch and bits batch on every engine against `generic`
/// element by element: results, per-element flags and the bits batch's
/// OR of them.
fn check_binary(
    what: &str,
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    generic: Binary,
    (batch, into): (PairBatch, BitsInto),
) -> Result<(), TestCaseError> {
    let want: Vec<(u64, Flags)> = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| generic(fmt, x, y, mode))
        .collect();
    let want_or = want.iter().fold(Flags::NONE, |acc, w| acc | w.1);
    for eng in SimdEngine::available() {
        let mut got = Vec::new();
        batch(eng, fmt, a, b, mode, &mut got);
        prop_assert_eq!(&got, &want, "{} {:?} {:?} {:?}", what, eng, fmt, mode);
        let mut bits = vec![0; a.len()];
        let flags = into(eng, fmt, a, b, mode, &mut bits);
        let want_bits: Vec<u64> = want.iter().map(|w| w.0).collect();
        prop_assert_eq!(
            (bits, flags),
            (want_bits, want_or),
            "{} into {:?} {:?} {:?}",
            what,
            eng,
            fmt,
            mode
        );
    }
    Ok(())
}

const ADD: (PairBatch, BitsInto) = (fastpath::add_bits_batch_with, fastpath::add_bits_into_with);
const SUB: (PairBatch, BitsInto) = (fastpath::sub_bits_batch_with, fastpath::sub_bits_into_with);
const MUL: (PairBatch, BitsInto) = (fastpath::mul_bits_batch_with, fastpath::mul_bits_into_with);

/// The `(a, b)` operand streams of a raw batch, masked to `fmt`.
fn operands(fmt: FpFormat, raw: &[(u64, u64, u64)]) -> (Vec<u64>, Vec<u64>) {
    raw.iter()
        .map(|&(x, y, _)| (x & fmt.enc_mask(), y & fmt.enc_mask()))
        .unzip()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fast_add_matches_generic(fmt in fmt_strategy(), raw in raw_batch(), mode in any_mode()) {
        let (a, b) = operands(fmt, &raw);
        check_binary("add", fmt, &a, &b, mode, add_bits, ADD)?;
    }

    #[test]
    fn fast_sub_matches_generic(fmt in fmt_strategy(), raw in raw_batch(), mode in any_mode()) {
        let (a, b) = operands(fmt, &raw);
        check_binary("sub", fmt, &a, &b, mode, sub_bits, SUB)?;
    }

    #[test]
    fn fast_mul_matches_generic(fmt in fmt_strategy(), raw in raw_batch(), mode in any_mode()) {
        let (a, b) = operands(fmt, &raw);
        check_binary("mul", fmt, &a, &b, mode, mul_bits, MUL)?;
    }

    /// The pair batch and the in-place rank-1 update, whose rows are the
    /// batch split `cols` wide.
    #[test]
    fn fast_fma_matches_generic(fmt in fmt_strategy(), raw in raw_batch(), cols in 1usize..10,
                                mode in any_mode()) {
        let (a, b) = operands(fmt, &raw);
        let c: Vec<u64> = raw.iter().map(|&(.., z)| z & fmt.enc_mask()).collect();
        let want: Vec<(u64, Flags)> = (0..a.len())
            .map(|i| fma_bits(fmt, a[i], b[i], c[i], mode))
            .collect();
        // The rank-1 block: element (i, j) is col[i]·row[j] + block[i·cols + j].
        let rows = a.len() / cols;
        let (col, row) = (&a[..rows], &b[..cols.min(b.len())]);
        let mut want_block = c[..rows * cols].to_vec();
        let mut want_or = Flags::NONE;
        for i in 0..rows {
            for j in 0..row.len() {
                let (r, f) = fma_bits(fmt, col[i], row[j], want_block[i * cols + j], mode);
                (want_block[i * cols + j], want_or) = (r, want_or | f);
            }
        }
        for eng in SimdEngine::available() {
            let mut got = Vec::new();
            fastpath::fma_bits_batch_with(eng, fmt, &a, &b, &c, mode, &mut got);
            prop_assert_eq!(&got, &want, "{:?} {:?} {:?}", eng, fmt, mode);
            let mut block = c[..rows * cols].to_vec();
            let flags = fastpath::fma_rank1_bits_with(eng, fmt, col, row, &mut block, cols, mode);
            prop_assert_eq!((&block, flags), (&want_block, want_or),
                            "rank-1 {:?} {:?} {:?}", eng, fmt, mode);
        }
    }

    /// Close-exponent operand pairs: stresses cancellation and
    /// normalization.
    #[test]
    fn fast_sub_cancellation_matches_generic(fmt in fmt_strategy(), raw in raw_batch(),
                                             mode in any_mode()) {
        let mid = fmt.bias() as u64;
        let (a, b): (Vec<u64>, Vec<u64>) = raw
            .iter()
            .map(|&(x, y, z)| (fmt.pack(false, mid, x), fmt.pack(false, mid + z % 3, y)))
            .unzip();
        check_binary("sub", fmt, &a, &b, mode, sub_bits, SUB)?;
    }

    /// Products near the overflow/underflow cliffs: range-check parity.
    #[test]
    fn fast_mul_range_edges_match_generic(fmt in fmt_strategy(), raw in raw_batch(),
                                          mode in any_mode()) {
        let (a, b): (Vec<u64>, Vec<u64>) = raw
            .iter()
            .map(|&(x, y, z)| {
                let exp = if z & 1 == 1 { fmt.max_biased_exp() } else { 1 };
                (fmt.pack(false, exp, x), fmt.pack(true, exp, y))
            })
            .unzip();
        check_binary("mul", fmt, &a, &b, mode, mul_bits, MUL)?;
    }

    /// The pair-slice entry points append to `out` and agree element-wise
    /// with the generic ops.
    #[test]
    fn batch_matches_scalar(fmt in fmt_strategy(), raw in raw_batch(), mode in any_mode()) {
        let (a, b) = operands(fmt, &raw);
        let pairs: Vec<(u64, u64)> = a.iter().copied().zip(b.iter().copied()).collect();
        for eng in SimdEngine::available() {
            let mut out = vec![(0xdead, Flags::NONE)];
            fastpath::add_pairs_batch_with(eng, fmt, &pairs, mode, &mut out);
            fastpath::sub_pairs_batch_with(eng, fmt, &pairs, mode, &mut out);
            fastpath::mul_pairs_batch_with(eng, fmt, &pairs, mode, &mut out);
            prop_assert_eq!(out.len(), 1 + 3 * pairs.len());
            let n = pairs.len();
            for (i, &(x, y)) in pairs.iter().enumerate() {
                prop_assert_eq!(out[1 + i], add_bits(fmt, x, y, mode));
                prop_assert_eq!(out[1 + n + i], sub_bits(fmt, x, y, mode));
                prop_assert_eq!(out[1 + 2 * n + i], mul_bits(fmt, x, y, mode));
            }
        }
    }
}

//! Precision-policy kernels: multiply narrow, accumulate wide.
//!
//! The paper fixes one format per core at design time; Merchant et al.'s
//! mixed-precision BLAS (and Arish & Sharma's run-time multi-precision IP
//! core) show the profitable configuration is usually *asymmetric* — a
//! cheap narrow multiplier feeding a wider accumulator, with data at rest
//! in a third (storage) format. These kernels implement that split on top
//! of the softfp batch lanes, driven by a [`PrecisionPolicy`]:
//!
//! 1. operands are converted `storage → compute` (exact when widening),
//! 2. products are formed in the compute format on the batched lanes,
//! 3. each product is converted `compute → accumulate` (exact and
//!    flag-free on the fields whenever the accumulate format covers the
//!    compute format, a rounding conversion otherwise) and added into the
//!    running sums in the accumulate format on the batched lanes,
//! 4. the final value is rounded `accumulate → storage`.
//!
//! A **uniform** policy is the degenerate case: every conversion whose
//! source and destination formats are equal is skipped (checked once
//! per call, never per element), which is exact — the identity
//! conversion only canonicalizes flushed subnormal and ∞ patterns,
//! which every operation reads the same way, and raises no flag. So
//! [`mixed_dot`] equals [`DotProductUnit::dot`](crate::dot::DotProductUnit::dot),
//! [`mixed_mvm`] equals [`MvmEngine::multiply`](crate::mvm::MvmEngine::multiply)
//! and [`mixed_matmul`] equals the blocked linear array, values, flags
//! and cycles, and these kernels are the one served implementation of
//! all three under every policy.
//!
//! All three run on one softfp kernel, [`mac_steps_bits`]: the rank-1
//! steps `bank[k % La] += widen(lhs[k] · rhs[k])` of one call, product
//! first as the engines add, in ascending `k`. A matmul row is one call
//! (row `i` of `A` against `B`, into row `i` of `C`), MVM one call over
//! all rows at once (`x` against `Aᵀ`, into `La` bank rows), and a dot
//! product one call one element wide with `La` banks.
//! [`MultiMatMul`](crate::multi::MultiMatMul) runs the same kernel, one
//! row of an `A` tile against a `B` tile per call. Operands are converted
//! once per call. Every sum takes its products in ascending `k`, so matmul is the
//! per-element triple loop and MVM and dot the engines' banked order,
//! flags included; the banks then fold pairwise as the hardware's
//! sequencer does. Matmul and MVM are pinned against a per-element
//! oracle on the generic ops (`tests/mixed_oracle.rs`), values and
//! flags.

use crate::matrix::Matrix;
use fpfpga_softfp::convert::convert;
use fpfpga_softfp::{add_acc_bits, mac_steps_bits, Flags, FpFormat, PrecisionPolicy, RoundMode};
use std::borrow::Cow;

/// Result of a mixed-precision dot product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MixedDot {
    /// Result bits in the policy's **storage** format.
    pub bits: u64,
    /// Exception flags accumulated across conversions, multiplies, adds
    /// and the final narrowing.
    pub flags: Flags,
    /// Cycle charge of [`DotProductUnit`](crate::dot::DotProductUnit):
    /// stream + drain of the two pipes, then one adder pass per
    /// pairwise-fold step. The format converters sit in-line with the
    /// streaming operands and add no cycles.
    pub cycles: u64,
}

/// `bits` as `dst` encodings: borrowed untouched when `src == dst`,
/// converted otherwise. Returns them and the conversion flags.
fn in_format(
    src: FpFormat,
    bits: &[u64],
    dst: FpFormat,
    mode: RoundMode,
) -> (Cow<'_, [u64]>, Flags) {
    if src == dst {
        return (Cow::Borrowed(bits), Flags::NONE);
    }
    let mut owned = bits.to_vec();
    let flags = convert_in_place(src, dst, mode, &mut owned);
    (Cow::Owned(owned), flags)
}

/// Convert `bits` from `src` to `dst` in place (a no-op when the
/// formats are equal). Returns the flags.
fn convert_in_place(src: FpFormat, dst: FpFormat, mode: RoundMode, bits: &mut [u64]) -> Flags {
    let mut flags = Flags::NONE;
    if src != dst {
        for b in bits {
            let (v, f) = convert(src, *b, dst, mode);
            flags |= f;
            *b = v;
        }
    }
    flags
}

/// Fold the `la` equal-width banks packed in `banks` pairwise, as the
/// hardware's fold sequencer does: level by level, bank `i` takes bank
/// `2i` plus bank `2i + 1`, and an odd last bank moves up. The sums end
/// in the first bank. Returns the flags.
fn fold_banks(fmt: FpFormat, mode: RoundMode, banks: &mut [u64], la: usize) -> Flags {
    let p = banks.len() / la;
    let mut flags = Flags::NONE;
    let mut live = la;
    while live > 1 {
        for i in 0..live / 2 {
            let (lo, hi) = banks.split_at_mut((2 * i + 1) * p);
            flags |= add_acc_bits(fmt, &lo[2 * i * p..], &mut hi[..p], mode);
            banks.copy_within((2 * i + 1) * p..(2 * i + 2) * p, i * p);
        }
        if live % 2 == 1 {
            banks.copy_within((live - 1) * p..live * p, live / 2 * p);
        }
        live = live.div_ceil(2);
    }
    flags
}

/// Mixed-precision dot product `x · y` with the banked accumulation
/// order of the hardware dot unit.
///
/// `x` and `y` are raw encodings in `policy.storage`. Products are
/// formed in `policy.compute`, widened to `policy.accumulate` and added
/// round-robin into `add_stages` partial accumulators (one per adder
/// pipeline stage, exactly as [`DotProductUnit`](crate::dot::DotProductUnit)
/// schedules them), which are then folded pairwise. The final sum is
/// rounded back to `policy.storage`.
///
/// With a uniform policy this is bit-identical to
/// [`DotProductUnit::dot`](crate::dot::DotProductUnit::dot): value,
/// flags and cycles.
pub fn mixed_dot(
    policy: PrecisionPolicy,
    mode: RoundMode,
    x: &[u64],
    y: &[u64],
    mult_stages: u32,
    add_stages: u32,
) -> MixedDot {
    assert_eq!(x.len(), y.len(), "vector lengths must agree");
    assert!(add_stages >= 1, "adder must have at least one stage");
    let (xc, xf) = in_format(policy.storage, x, policy.compute, mode);
    let (yc, yf) = in_format(policy.storage, y, policy.compute, mode);
    // Product `k`, `x[k]·y[k]`, goes to bank slot `k % La`.
    let la = add_stages as usize;
    let mut bank = vec![policy.accumulate.zero(); la];
    let mut flags = xf | yf;
    flags |= mac_steps_bits(
        policy.compute,
        policy.accumulate,
        &yc,
        &xc,
        1,
        &mut bank,
        la,
        mode,
    );
    flags |= fold_banks(policy.accumulate, mode, &mut bank, la);
    flags |= convert_in_place(policy.accumulate, policy.storage, mode, &mut bank[..1]);
    // Stream + drain, then `La − 1` fold adds, each waiting out the
    // adder latency.
    let la = la as u64;
    let cycles = x.len() as u64 + mult_stages as u64 + la + 1 + (la - 1) * (la + 1);
    MixedDot {
        bits: bank[0],
        flags,
        cycles,
    }
}

/// Mixed-precision `C = A·B`, sequential over `k` per element.
///
/// `a` and `b` must be in `policy.storage`; the result is too. Each
/// element is an independent mixed accumulation (product in `compute`,
/// widened into a single running sum in `accumulate`, rounded once to
/// `storage`), run on the wide lanes as the module doc describes.
pub fn mixed_matmul(
    policy: PrecisionPolicy,
    mode: RoundMode,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, Flags) {
    check_storage(policy, &[a, b]);
    let (n, m, p) = (a.rows(), a.cols(), b.cols());
    assert_eq!(b.rows(), m, "inner dimensions must agree");
    let (ac, af) = in_format(policy.storage, a.data(), policy.compute, mode);
    let (bc, bf) = in_format(policy.storage, b.data(), policy.compute, mode);
    // `B`'s flags count once there is a row of `C` that reads it.
    let mut flags = af | if n > 0 { bf } else { Flags::NONE };
    let mut data = vec![policy.accumulate.zero(); n * p];
    for (a_row, c_row) in ac.chunks(m.max(1)).zip(data.chunks_mut(p.max(1))) {
        flags |= mac_steps_bits(
            policy.compute,
            policy.accumulate,
            a_row,
            &bc,
            p,
            c_row,
            1,
            mode,
        );
    }
    flags |= convert_in_place(policy.accumulate, policy.storage, mode, &mut data);
    (Matrix::from_bits(policy.storage, n, p, data), flags)
}

/// Mixed-precision matrix-vector multiply `y = A·x` on a `p`-PE
/// engine, every row in the hardware MVM engine's accumulation order:
/// product `k` of a row lands in bank slot `k % add_stages`, and the
/// slots fold pairwise (the order of [`mixed_dot`]).
///
/// All rows advance together, one column of `A` at a time: `x` and `A`
/// are converted once, and column `k` is one rank-1 step of width
/// `rows` into bank slot `k % add_stages`. Returns the result vector
/// (in `policy.storage`), the accumulated flags, and
/// [`MvmEngine`](crate::mvm::MvmEngine)'s cycle charge: `x` streams one
/// column per `⌈rows/p⌉` cycles, then the pipes drain and the banks
/// fold.
pub fn mixed_mvm(
    policy: PrecisionPolicy,
    mode: RoundMode,
    a: &Matrix,
    x: &[u64],
    mult_stages: u32,
    add_stages: u32,
    p: usize,
) -> (Vec<u64>, Flags, u64) {
    check_storage(policy, &[a]);
    let (n, m) = (a.rows(), a.cols());
    assert_eq!(m, x.len(), "dimension mismatch");
    assert!(p >= 1, "an MVM engine needs at least one PE");
    assert!(add_stages >= 1, "adder must have at least one stage");
    let (ac, af) = in_format(policy.storage, a.data(), policy.compute, mode);
    let (xc, xf) = in_format(policy.storage, x, policy.compute, mode);
    // `x`'s flags count once there is a row that reads it.
    let mut flags = af | if n > 0 { xf } else { Flags::NONE };
    let mut a_t = vec![0u64; n * m];
    for i in 0..n {
        for k in 0..m {
            a_t[k * n + i] = ac[i * m + k];
        }
    }
    let la = add_stages as usize;
    let mut banks = vec![policy.accumulate.zero(); la * n];
    flags |= mac_steps_bits(
        policy.compute,
        policy.accumulate,
        &xc,
        &a_t,
        n,
        &mut banks,
        la,
        mode,
    );
    flags |= fold_banks(policy.accumulate, mode, &mut banks, la);
    banks.truncate(n);
    flags |= convert_in_place(policy.accumulate, policy.storage, mode, &mut banks);
    let cycles = m as u64 * n.div_ceil(p) as u64
        + (mult_stages + add_stages + 2) as u64
        + crate::mvm::fold_cycles(add_stages);
    (banks, flags, cycles)
}

fn check_storage(policy: PrecisionPolicy, mats: &[&Matrix]) {
    for m in mats {
        assert_eq!(
            m.format(),
            policy.storage,
            "matrix format must equal the policy's storage format"
        );
    }
}

/// An accuracy budget for the auto-tuner: the largest error a caller
/// will accept, measured against a high-precision reference.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ErrorBudget {
    /// Maximum error in units in the last place of the *storage* format
    /// at the reference magnitude.
    MaxUlp(f64),
    /// Maximum relative error against the reference.
    MaxRelative(f64),
}

impl ErrorBudget {
    /// Does a measured error record satisfy this budget?
    pub fn accepts(&self, stats: &crate::accuracy::ErrorStats) -> bool {
        match *self {
            ErrorBudget::MaxUlp(limit) => stats.max_ulp <= limit,
            ErrorBudget::MaxRelative(limit) => stats.max_rel <= limit,
        }
    }
}

impl core::fmt::Display for ErrorBudget {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ErrorBudget::MaxUlp(u) => write!(f, "{u}ulp"),
            ErrorBudget::MaxRelative(r) => write!(f, "rel{r}"),
        }
    }
}

impl core::str::FromStr for ErrorBudget {
    type Err = String;

    /// Parse `"<N>ulp"` or `"rel<X>"` (e.g. `"4ulp"`, `"rel1e-6"`).
    fn from_str(s: &str) -> Result<ErrorBudget, String> {
        let bad = || format!("bad error budget {s:?} (expected e.g. \"4ulp\" or \"rel1e-6\")");
        if let Some(u) = s.strip_suffix("ulp") {
            let v: f64 = u.parse().map_err(|_| bad())?;
            if v >= 0.0 {
                return Ok(ErrorBudget::MaxUlp(v));
            }
            return Err(bad());
        }
        if let Some(r) = s.strip_prefix("rel") {
            let v: f64 = r.parse().map_err(|_| bad())?;
            if v >= 0.0 {
                return Ok(ErrorBudget::MaxRelative(v));
            }
            return Err(bad());
        }
        Err(bad())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::ErrorMeter;
    use crate::dot::{dot_f64, interleaved_reference};
    use crate::reference::f64_matmul;
    use fpfpga_softfp::SoftFloat;

    const RM: RoundMode = RoundMode::NearestEven;

    fn vecs(fmt: FpFormat, n: usize) -> (Vec<u64>, Vec<u64>) {
        let x = (0..n)
            .map(|i| SoftFloat::from_f64(fmt, (i as f64 * 0.37).sin()).bits())
            .collect();
        let y = (0..n)
            .map(|i| SoftFloat::from_f64(fmt, (i as f64 * 0.23).cos()).bits())
            .collect();
        (x, y)
    }

    #[test]
    fn uniform_policy_degenerates_to_interleaved_reference() {
        for fmt in FpFormat::PAPER_PRECISIONS {
            let (x, y) = vecs(fmt, 67);
            for la in [4u32, 9] {
                let got = mixed_dot(PrecisionPolicy::uniform(fmt), RM, &x, &y, 5, la);
                let want = interleaved_reference(fmt, RM, &x, &y, la as usize);
                assert_eq!(got.bits, want, "{fmt:?} la={la}");
            }
        }
    }

    #[test]
    fn uniform_cycle_charge_matches_dot_unit() {
        let fmt = FpFormat::SINGLE;
        let (x, y) = vecs(fmt, 64);
        for (lm, la) in [(3u32, 4u32), (7, 9)] {
            let mut unit = crate::dot::DotProductUnit::new(fmt, RM, lm, la);
            let (_, want_cycles) = unit.dot(&x, &y);
            let got = mixed_dot(PrecisionPolicy::uniform(fmt), RM, &x, &y, lm, la);
            assert_eq!(got.cycles, want_cycles, "lm={lm} la={la}");
        }
    }

    #[test]
    fn wide_accumulate_beats_uniform_on_dot_error() {
        let fmt = FpFormat::SINGLE;
        let (x, y) = vecs(fmt, 2048);
        let exact = dot_f64(fmt, &x, &y);
        let uni = mixed_dot(PrecisionPolicy::uniform(fmt), RM, &x, &y, 5, 9);
        let mix = mixed_dot(
            PrecisionPolicy::mixed(fmt, FpFormat::DOUBLE),
            RM,
            &x,
            &y,
            5,
            9,
        );
        let e_uni = (SoftFloat::from_bits(fmt, uni.bits).to_f64() - exact).abs();
        let e_mix = (SoftFloat::from_bits(fmt, mix.bits).to_f64() - exact).abs();
        assert!(e_mix <= e_uni, "mixed {e_mix} vs uniform {e_uni}");
    }

    #[test]
    fn mixed_matmul_tracks_f64_closely_with_double_accumulate() {
        let fmt = FpFormat::SINGLE;
        let n = 24;
        let a = Matrix::from_fn(fmt, n, n, |i, j| ((i * n + j) as f64 * 0.13).sin());
        let b = Matrix::from_fn(fmt, n, n, |i, j| ((i + 3 * j) as f64 * 0.29).cos());
        let base = f64_matmul(&a, &b);
        let (c_uni, _) = mixed_matmul(PrecisionPolicy::uniform(fmt), RM, &a, &b);
        let (c_mix, _) = mixed_matmul(PrecisionPolicy::mixed(fmt, FpFormat::DOUBLE), RM, &a, &b);
        let mut m_uni = ErrorMeter::new(fmt, 1e-30);
        m_uni.record_matrix(&c_uni, &base);
        let mut m_mix = ErrorMeter::new(fmt, 1e-30);
        m_mix.record_matrix(&c_mix, &base);
        // With a double accumulator the accumulation itself is exact in
        // f64; what remains is one product rounding per term (at product
        // magnitude, ~1 here) plus the final narrowing.
        let bound = 0.5 * (n as f64 + 1.0) * crate::accuracy::ulp_at(fmt, 1.0);
        assert!(
            m_mix.stats().max_abs <= bound,
            "{:?} vs {bound}",
            m_mix.stats()
        );
        assert!(m_mix.stats().rms <= m_uni.stats().rms);
        assert!(m_mix.stats().max_abs <= m_uni.stats().max_abs);
    }

    #[test]
    fn mixed_mvm_rows_match_mixed_dot() {
        let policy = PrecisionPolicy::mixed(FpFormat::SINGLE, FpFormat::FP48);
        let a = Matrix::from_fn(policy.storage, 7, 33, |i, j| {
            ((i * 33 + j) as f64 * 0.11).sin()
        });
        let (x, _) = vecs(policy.storage, 33);
        let (y, _, _) = mixed_mvm(policy, RM, &a, &x, 5, 9, 3);
        for (i, &got) in y.iter().enumerate() {
            let row: Vec<u64> = (0..33).map(|k| a.get(i, k)).collect();
            let want = mixed_dot(policy, RM, &row, &x, 5, 9);
            assert_eq!(got, want.bits, "row {i}");
        }
    }

    #[test]
    fn error_budget_parse_and_accept() {
        assert_eq!(
            "4ulp".parse::<ErrorBudget>().unwrap(),
            ErrorBudget::MaxUlp(4.0)
        );
        assert_eq!(
            "rel1e-6".parse::<ErrorBudget>().unwrap(),
            ErrorBudget::MaxRelative(1e-6)
        );
        for bad in ["", "ulp", "rel", "4", "-1ulp", "rel-2", "4 ulp"] {
            assert!(bad.parse::<ErrorBudget>().is_err(), "{bad:?}");
        }
        let stats = crate::accuracy::ErrorStats {
            max_ulp: 3.0,
            max_rel: 1e-7,
            ..Default::default()
        };
        assert!(ErrorBudget::MaxUlp(4.0).accepts(&stats));
        assert!(!ErrorBudget::MaxUlp(2.0).accepts(&stats));
        assert!(ErrorBudget::MaxRelative(1e-6).accepts(&stats));
        assert!(!ErrorBudget::MaxRelative(1e-8).accepts(&stats));
        // round trip of display
        assert_eq!("4ulp".parse::<ErrorBudget>().unwrap().to_string(), "4ulp");
    }

    #[test]
    fn storage_format_mismatch_panics() {
        let policy = PrecisionPolicy::uniform(FpFormat::SINGLE);
        let a = Matrix::zero(FpFormat::DOUBLE, 2, 2);
        let b = Matrix::zero(FpFormat::DOUBLE, 2, 2);
        let r = std::panic::catch_unwind(|| mixed_matmul(policy, RM, &a, &b));
        assert!(r.is_err());
    }
}

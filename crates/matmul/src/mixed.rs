//! Mixed-precision kernels: multiply narrow, accumulate wide.
//!
//! The paper fixes one format per core at design time; Merchant et al.'s
//! mixed-precision BLAS (and Arish & Sharma's run-time multi-precision IP
//! core) show the profitable configuration is usually *asymmetric* — a
//! cheap narrow multiplier feeding a wider accumulator, with data at rest
//! in a third (storage) format. These kernels implement that split on top
//! of the existing softfp fast lanes, driven by a
//! [`PrecisionPolicy`]:
//!
//! 1. operands are converted `storage → compute` (exact when widening),
//! 2. products are formed in the compute format via the batched fast
//!    lanes,
//! 3. each product is converted `compute → accumulate` (exact and
//!    flag-free on the fields whenever the accumulate format covers the
//!    compute format, a rounding conversion otherwise) and added into the
//!    running sum in the accumulate format on the fast lane,
//! 4. the final value is rounded `accumulate → storage`.
//!
//! [`mixed_matmul`] runs its products and sums on the batched wide
//! lanes: `B` is converted once per call, and each (row `i`, step `k`)
//! is one [`mul_bcast_bits`] over row `k` of `B` and one
//! [`add_acc_bits`] into row `i`'s accumulators — every `C` element
//! still sums its products in ascending `k`, so the result is the
//! per-element triple loop's, flags included.
//!
//! For a **uniform** policy every conversion is the identity and
//! [`mixed_dot`] reproduces [`interleaved_reference`](crate::dot::interleaved_reference) — and therefore the
//! cycle-accurate [`DotProductUnit`](crate::dot::DotProductUnit) — bit
//! for bit. [`mixed_matmul`] and [`mixed_mvm`] are pinned against a
//! per-element oracle on the generic ops (`tests/mixed_oracle.rs`),
//! values and flags.

use crate::matrix::Matrix;
use fpfpga_softfp::convert::convert;
use fpfpga_softfp::fastpath::add_bits;
use fpfpga_softfp::{
    add_acc_bits, mul_bcast_bits, mul_pairs_batch, Flags, FpFormat, PrecisionPolicy, RoundMode,
};

/// Result of a mixed-precision dot product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MixedDot {
    /// Result bits in the policy's **storage** format.
    pub bits: u64,
    /// Exception flags accumulated across conversions, multiplies, adds
    /// and the final narrowing.
    pub flags: Flags,
    /// Cycle charge under the same model as
    /// [`DotProductUnit`](crate::dot::DotProductUnit): stream + drain of
    /// the two pipes, then one adder pass per pairwise-fold step. The
    /// format converters sit in-line with the streaming operands and add
    /// no cycles.
    pub cycles: u64,
}

/// Convert a slice of encodings between formats, accumulating flags.
fn convert_slice(src: FpFormat, bits: &[u64], dst: FpFormat, mode: RoundMode) -> (Vec<u64>, Flags) {
    let mut flags = Flags::NONE;
    let out = bits
        .iter()
        .map(|&b| {
            let (v, f) = convert(src, b, dst, mode);
            flags |= f;
            v
        })
        .collect();
    (out, flags)
}

/// Convert compute-format products into the accumulate format in place
/// (exact and flag-free when accumulate covers compute). Returns the
/// flags.
fn to_accumulate(policy: PrecisionPolicy, mode: RoundMode, products: &mut [u64]) -> Flags {
    let mut flags = Flags::NONE;
    for p in products {
        let (v, f) = convert(policy.compute, *p, policy.accumulate, mode);
        flags |= f;
        *p = v;
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
/// [`interleaved_reference`](crate::dot::interleaved_reference).
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
    let mut flags = Flags::NONE;

    // storage -> compute
    let (xc, fx) = convert_slice(policy.storage, x, policy.compute, mode);
    let (yc, fy) = convert_slice(policy.storage, y, policy.compute, mode);
    flags |= fx;
    flags |= fy;

    // products in the compute format, via the monomorphized fast lane
    let pairs: Vec<(u64, u64)> = xc.into_iter().zip(yc).collect();
    let mut products: Vec<(u64, Flags)> = Vec::new();
    mul_pairs_batch(policy.compute, &pairs, mode, &mut products);
    let mut wide: Vec<u64> = products
        .iter()
        .map(|&(p, pf)| {
            flags |= pf;
            p
        })
        .collect();
    flags |= to_accumulate(policy, mode, &mut wide);

    // accumulate round-robin in `add_stages` banks
    let la = add_stages as usize;
    let mut bank = vec![policy.accumulate.zero(); la];
    for (i, &w) in wide.iter().enumerate() {
        let (s, sf) = add_bits(policy.accumulate, bank[i % la], w, mode);
        flags |= sf;
        bank[i % la] = s;
    }

    // pairwise fold (the hardware reuses the adder with a sequencer)
    let mut fold_adds = 0u64;
    let mut live = bank;
    while live.len() > 1 {
        let mut next = Vec::with_capacity(live.len().div_ceil(2));
        let mut i = 0;
        while i + 1 < live.len() {
            let (s, sf) = add_bits(policy.accumulate, live[i], live[i + 1], mode);
            flags |= sf;
            fold_adds += 1;
            next.push(s);
            i += 2;
        }
        if i < live.len() {
            next.push(live[i]);
        }
        live = next;
    }

    // accumulate -> storage
    let (bits, nf) = convert(policy.accumulate, live[0], policy.storage, mode);
    flags |= nf;

    let cycles = pairs.len() as u64
        + mult_stages as u64
        + add_stages as u64
        + 1
        + fold_adds * (add_stages as u64 + 1);
    MixedDot {
        bits,
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
    // `B` is converted once per call; its flags count once there is a
    // row of `C` that reads it.
    let (bc, bf) = convert_slice(policy.storage, b.data(), policy.compute, mode);
    let mut flags = if n > 0 { bf } else { Flags::NONE };
    let mut data = vec![policy.accumulate.zero(); n * p];
    let mut prod = vec![0u64; p];
    for i in 0..n {
        let acc = &mut data[i * p..(i + 1) * p];
        for k in 0..m {
            let (ax, af) = convert(policy.storage, a.get(i, k), policy.compute, mode);
            flags |= af;
            let b_row = &bc[k * p..(k + 1) * p];
            flags |= mul_bcast_bits(policy.compute, b_row, ax, mode, &mut prod);
            flags |= to_accumulate(policy, mode, &mut prod);
            flags |= add_acc_bits(policy.accumulate, &prod, acc, mode);
        }
        for v in acc.iter_mut() {
            let (bits, nf) = convert(policy.accumulate, *v, policy.storage, mode);
            flags |= nf;
            *v = bits;
        }
    }
    (Matrix::from_bits(policy.storage, n, p, data), flags)
}

/// Mixed-precision matrix-vector multiply `y = A·x`: one [`mixed_dot`]
/// per row, so each row sees the banked accumulation order of the
/// hardware MVM engine's MAC bank.
///
/// Returns the result vector (in `policy.storage`), the accumulated
/// flags, and the cycles of issuing the rows back to back on one dot
/// unit (the sum of the per-row [`mixed_dot`] charges). That charge is
/// not [`crate::MvmEngine`]'s: it ignores the engine's PE count `p` and
/// its bank fold, so it differs from the uniform path's cycles.
pub fn mixed_mvm(
    policy: PrecisionPolicy,
    mode: RoundMode,
    a: &Matrix,
    x: &[u64],
    mult_stages: u32,
    add_stages: u32,
) -> (Vec<u64>, Flags, u64) {
    check_storage(policy, &[a]);
    assert_eq!(a.cols(), x.len(), "dimension mismatch");
    let mut flags = Flags::NONE;
    let mut cycles = 0;
    let mut y = Vec::with_capacity(a.rows());
    for i in 0..a.rows() {
        let row: Vec<u64> = (0..a.cols()).map(|k| a.get(i, k)).collect();
        let r = mixed_dot(policy, mode, &row, x, mult_stages, add_stages);
        flags |= r.flags;
        cycles += r.cycles;
        y.push(r.bits);
    }
    (y, flags, cycles)
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
        let (y, _, _) = mixed_mvm(policy, RM, &a, &x, 5, 9);
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

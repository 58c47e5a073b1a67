//! The ULP-budget auto-tuner: pick the cheapest precision policy that
//! meets an accuracy budget.
//!
//! A caller that knows its storage format and its error tolerance —
//! but not the fabric trade-offs — submits
//! [`PolicySel::Auto`](crate::pool::PolicySel::Auto). The tuner then:
//!
//! 1. enumerates candidate policies over the paper's three precisions
//!    (every compute format paired with every accumulate format that
//!    covers it, storage pinned to the caller's format);
//! 2. measures each candidate's error on a fixed probe workload — a
//!    family of mixed-precision dot products of several depths against
//!    the `f64` reference (dot products are the accuracy-critical
//!    primitive: every matmul/MVM element is one);
//! 3. prices each candidate by the paper's area model: opt-point
//!    slices of a multiplier in the compute format plus an adder in
//!    the accumulate format (both read from a [`SweepCache`], so
//!    repeated tuning is a pure cache read);
//! 4. returns the cheapest candidate whose probe error the
//!    [`ErrorBudget`] accepts, or an error naming the best achievable
//!    error if none qualifies.
//!
//! Everything is deterministic: the probe is a pure function of the
//! storage format, candidates are enumerated in a fixed order, and
//! ties break on the policy's canonical name.

use fpfpga_fabric::synthesis::SynthesisOptions;
use fpfpga_fabric::tech::Tech;
use fpfpga_fabric::timing;
use fpfpga_fpu::generator::UnitOp;
use fpfpga_fpu::SweepCache;
use fpfpga_matmul::accuracy::{ErrorMeter, ErrorStats};
use fpfpga_matmul::{mixed_dot, ErrorBudget};
use fpfpga_softfp::{FpFormat, PrecisionPolicy, RoundMode, SoftFloat};

/// Probe dot-product depths. Several depths so accumulation-order
/// error growth (the thing a wider accumulate format suppresses) is
/// actually exercised, not just final rounding.
pub const PROBE_DEPTHS: [usize; 3] = [16, 64, 256];

/// Pipeline depths used by the probe kernels (any fixed values work;
/// the accumulator-bank size `add_stages` shapes the summation order).
const PROBE_MULT_STAGES: u32 = 5;
const PROBE_ADD_STAGES: u32 = 4;

/// The tuner's verdict: the selected policy with its price and its
/// measured probe error.
#[derive(Clone, Debug)]
pub struct TunedPolicy {
    /// Cheapest policy meeting the budget.
    pub policy: PrecisionPolicy,
    /// Fabric price: opt multiplier (compute) + opt adder (accumulate)
    /// slices.
    pub cost_slices: u32,
    /// Probe error of the selected policy.
    pub stats: ErrorStats,
    /// How many candidate policies were evaluated.
    pub evaluated: usize,
}

/// Candidate policies for a given storage format: every paper
/// precision as compute, paired with every paper precision that covers
/// it as accumulate, in a fixed enumeration order.
pub fn candidate_policies(storage: FpFormat) -> Vec<PrecisionPolicy> {
    let mut out = Vec::new();
    for &compute in FpFormat::PAPER_PRECISIONS.iter() {
        for &accumulate in FpFormat::PAPER_PRECISIONS.iter() {
            let p = PrecisionPolicy::new(compute, accumulate, storage);
            if p.accumulate_covers_compute() {
                out.push(p);
            }
        }
    }
    out
}

/// A deterministic pseudo-random stream (splitmix64) — no `rand`
/// dependency on the tuning path, identical on every call.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The probe operands: `max(PROBE_DEPTHS)` positive values of similar
/// magnitude, encoded in (and exactly representable by) `storage`.
/// A growing positive sum is the regime where a narrow accumulator
/// visibly swallows low-order bits of each addend while a covering
/// accumulate format keeps them — exactly the separation the budget
/// has to price.
fn probe_operands(storage: FpFormat) -> (Vec<u64>, Vec<u64>, Vec<f64>, Vec<f64>) {
    let n = *PROBE_DEPTHS.iter().max().expect("non-empty depths");
    let mut state = 0x5EED_0FF0_CAFE_u64;
    let mut draw = |lo: f64, hi: f64| {
        let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    };
    let mut xb = Vec::with_capacity(n);
    let mut yb = Vec::with_capacity(n);
    let mut xv = Vec::with_capacity(n);
    let mut yv = Vec::with_capacity(n);
    for _ in 0..n {
        let x = SoftFloat::from_f64(storage, draw(0.5, 4.0));
        let y = SoftFloat::from_f64(storage, draw(0.5, 4.0));
        xb.push(x.bits());
        yb.push(y.bits());
        xv.push(x.to_f64());
        yv.push(y.to_f64());
    }
    (xb, yb, xv, yv)
}

/// Measure one policy's probe error: dot products of every
/// [`PROBE_DEPTHS`] prefix, each compared in the storage format
/// against the `f64` reference of the *decoded* operands (so only the
/// policy's arithmetic is charged, never the storage encoding).
pub fn probe_stats(policy: PrecisionPolicy, mode: RoundMode) -> ErrorStats {
    let (xb, yb, xv, yv) = probe_operands(policy.storage);
    let mut meter = ErrorMeter::new(policy.storage, 1e-30);
    for &depth in PROBE_DEPTHS.iter() {
        let d = mixed_dot(
            policy,
            mode,
            &xb[..depth],
            &yb[..depth],
            PROBE_MULT_STAGES,
            PROBE_ADD_STAGES,
        );
        let baseline: f64 = xv[..depth]
            .iter()
            .zip(&yv[..depth])
            .map(|(&a, &b)| a * b)
            .sum();
        meter.record(d.bits, baseline);
    }
    meter.stats()
}

/// The fabric price of a policy: opt-point slices of a multiplier in
/// the compute format plus an adder in the accumulate format, both
/// under the SPEED objective (memoized through `cache`).
pub fn policy_cost(policy: PrecisionPolicy, tech: &Tech, cache: &SweepCache) -> u32 {
    let opt_slices = |op, format| {
        let reports = cache.sweep(op, format, tech, SynthesisOptions::SPEED);
        timing::optimal(&reports).slices
    };
    opt_slices(UnitOp::Mul, policy.compute) + opt_slices(UnitOp::Add, policy.accumulate)
}

/// Pick the cheapest candidate policy for `storage` whose probe error
/// `budget` accepts. Deterministic; ties break on the canonical policy
/// name. `Err` carries a human-readable diagnosis naming the best
/// achievable error.
pub fn autotune(
    storage: FpFormat,
    budget: &ErrorBudget,
    tech: &Tech,
    cache: &SweepCache,
) -> Result<TunedPolicy, String> {
    let mode = RoundMode::NearestEven;
    let candidates = candidate_policies(storage);
    let evaluated = candidates.len();
    let mut best: Option<TunedPolicy> = None;
    let mut closest: Option<(PrecisionPolicy, ErrorStats)> = None;
    for policy in candidates {
        let stats = probe_stats(policy, mode);
        if closest
            .as_ref()
            .is_none_or(|(_, s)| stats.max_ulp < s.max_ulp)
        {
            closest = Some((policy, stats));
        }
        if !budget.accepts(&stats) {
            continue;
        }
        let cost_slices = policy_cost(policy, tech, cache);
        let better = best.as_ref().is_none_or(|b| {
            (cost_slices, policy.canonical_name()) < (b.cost_slices, b.policy.canonical_name())
        });
        if better {
            best = Some(TunedPolicy {
                policy,
                cost_slices,
                stats,
                evaluated,
            });
        }
    }
    best.ok_or_else(|| {
        let (p, s) = closest.expect("at least one candidate");
        format!(
            "no policy with storage {} meets {budget}: best is {p} at max_ulp={:.3}, \
             max_rel={:.3e} ({evaluated} candidates)",
            storage.canonical_name(),
            s.max_ulp,
            s.max_rel
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_cover_and_only_cover() {
        let cs = candidate_policies(FpFormat::SINGLE);
        assert!(cs.iter().all(|p| p.accumulate_covers_compute()));
        assert!(cs.iter().all(|p| p.storage == FpFormat::SINGLE));
        // f32 pairs with all three accumulators, f48 and f64 with f64
        // only (f48's 11-bit exponent rules out the f32 accumulator,
        // and f64's mantissa rules out f48).
        assert!(cs.contains(&PrecisionPolicy::new(
            FpFormat::SINGLE,
            FpFormat::FP48,
            FpFormat::SINGLE
        )));
        assert!(!cs.contains(&PrecisionPolicy::new(
            FpFormat::DOUBLE,
            FpFormat::SINGLE,
            FpFormat::SINGLE
        )));
        assert_eq!(cs.len(), 6);
    }

    #[test]
    fn probe_is_deterministic_and_separates_accumulators() {
        let uniform = probe_stats(
            PrecisionPolicy::uniform(FpFormat::SINGLE),
            RoundMode::NearestEven,
        );
        let again = probe_stats(
            PrecisionPolicy::uniform(FpFormat::SINGLE),
            RoundMode::NearestEven,
        );
        assert_eq!(uniform, again, "probe must be a pure function");
        let wide = probe_stats(
            PrecisionPolicy::mixed(FpFormat::SINGLE, FpFormat::DOUBLE),
            RoundMode::NearestEven,
        );
        assert!(
            wide.max_ulp * 2.0 < uniform.max_ulp,
            "double accumulation must clearly beat single: wide={} uniform={}",
            wide.max_ulp,
            uniform.max_ulp
        );
    }

    #[test]
    fn tightening_the_budget_changes_the_selected_policy() {
        let tech = Tech::virtex2pro();
        let cache = SweepCache::new();
        let uniform = probe_stats(
            PrecisionPolicy::uniform(FpFormat::SINGLE),
            RoundMode::NearestEven,
        );
        // Loose: everything passes, so the cheapest core pair — the
        // all-single policy — wins.
        let loose = autotune(
            FpFormat::SINGLE,
            &ErrorBudget::MaxUlp(uniform.max_ulp * 2.0),
            &tech,
            &cache,
        )
        .expect("loose budget must be satisfiable");
        assert_eq!(loose.policy, PrecisionPolicy::uniform(FpFormat::SINGLE));
        // Tight: the uniform policy provably fails, so the tuner must
        // spend area on a wider accumulator.
        let tight = autotune(
            FpFormat::SINGLE,
            &ErrorBudget::MaxUlp(uniform.max_ulp / 2.0),
            &tech,
            &cache,
        )
        .expect("a wider accumulator must rescue the tight budget");
        assert_ne!(tight.policy, loose.policy);
        assert!(!tight.policy.is_uniform());
        assert_eq!(tight.policy.compute, FpFormat::SINGLE, "mult stays cheap");
        assert!(tight.cost_slices > loose.cost_slices, "accuracy costs area");
    }

    #[test]
    fn impossible_budgets_are_diagnosed() {
        let tech = Tech::virtex2pro();
        let cache = SweepCache::new();
        let err = autotune(
            FpFormat::SINGLE,
            &ErrorBudget::MaxRelative(0.0),
            &tech,
            &cache,
        )
        .unwrap_err();
        assert!(err.contains("no policy"), "{err}");
        assert!(err.contains("f32"), "{err}");
    }

    #[test]
    fn autotune_is_deterministic() {
        let tech = Tech::virtex2pro();
        let cache = SweepCache::new();
        let budget = ErrorBudget::MaxUlp(1e6);
        let a = autotune(FpFormat::FP48, &budget, &tech, &cache).unwrap();
        let b = autotune(FpFormat::FP48, &budget, &tech, &cache).unwrap();
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.cost_slices, b.cost_slices);
        assert!(cache.hits() > 0, "the second run must reuse the cache");
    }
}

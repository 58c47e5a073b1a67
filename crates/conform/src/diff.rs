//! The differential comparisons: softfp (IEEE and flush-to-zero modes)
//! against the host hardware, and the staged `fpfpga-fpu` pipelines
//! against softfp.
//!
//! Comparison policy:
//!
//! * Non-NaN results must match **bit for bit**; NaN results are
//!   compared by NaN-ness only (payload placement is ISA-specific —
//!   softfp's own §6.2 payload rules are pinned by unit tests in
//!   `fpfpga_softfp::ieee` instead).
//! * Exception flags must match exactly wherever the host can deliver
//!   them ([`crate::host::HostEval::flags`] is `Some`); the fpu-vs-softfp
//!   sweep always compares flags.
//! * The flush-to-zero sweep restricts itself to the semantic domain the
//!   paper's cores define: no NaN or denormal operands, and any case
//!   where either side underflows or the host produces a NaN/denormal is
//!   skipped (those are the documented, deliberate deviations).

use crate::corpus::{special_values, CaseGen, Rng64};
use crate::host::{self, HostEval};
use fpfpga_softfp::ieee;
use fpfpga_softfp::simd::LANES;
use fpfpga_softfp::{fastpath, Flags, FpFormat, RoundMode, SimdEngine};

/// An operation under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Square root (unary).
    Sqrt,
    /// Fused multiply-add (ternary).
    Fma,
    /// Multiply, then add: `a·b` rounded, then `+ c` rounded (ternary) —
    /// a matmul step; its batch lane is one multiply-accumulate step.
    MulAdd,
    /// Format conversion: single widens to double, double narrows to
    /// single (unary).
    Convert,
    /// Ordered comparison (result is an ordering code, not an encoding).
    Compare,
}

impl Op {
    /// Every op, in canonical order.
    pub const ALL: [Op; 9] = [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::Sqrt,
        Op::Fma,
        Op::MulAdd,
        Op::Convert,
        Op::Compare,
    ];

    /// Canonical lower-case name (CLI token).
    pub fn name(self) -> &'static str {
        match self {
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::Div => "div",
            Op::Sqrt => "sqrt",
            Op::Fma => "fma",
            Op::MulAdd => "muladd",
            Op::Convert => "convert",
            Op::Compare => "compare",
        }
    }

    /// Parse a CLI token.
    pub fn parse(s: &str) -> Option<Op> {
        Op::ALL.into_iter().find(|o| o.name() == s)
    }

    /// Number of operands.
    pub fn arity(self) -> usize {
        match self {
            Op::Sqrt | Op::Convert => 1,
            Op::Fma | Op::MulAdd => 3,
            _ => 2,
        }
    }
}

/// Canonical short name for a format (CLI token / corpus token).
///
/// Thin wrapper over [`FpFormat::canonical_name`] — the single grammar
/// shared by the `fpuconform`, `fpuserve` and `fpugen` CLIs.
pub fn format_name(fmt: FpFormat) -> String {
    fmt.canonical_name()
}

/// Parse a format token produced by [`format_name`].
///
/// Thin wrapper over `FpFormat`'s [`FromStr`](core::str::FromStr) impl.
pub fn parse_format(s: &str) -> Option<FpFormat> {
    s.parse().ok()
}

/// Mode token.
pub fn mode_name(mode: RoundMode) -> &'static str {
    match mode {
        RoundMode::NearestEven => "rne",
        RoundMode::Truncate => "rtz",
    }
}

/// Parse a mode token.
pub fn parse_mode(s: &str) -> Option<RoundMode> {
    match s {
        "rne" => Some(RoundMode::NearestEven),
        "rtz" => Some(RoundMode::Truncate),
        _ => None,
    }
}

/// One concrete test case: an op with its format, rounding mode and
/// operand encodings (unused operands are zero).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Case {
    /// Operation.
    pub op: Op,
    /// Operand (and, except for `Convert`, result) format.
    pub fmt: FpFormat,
    /// Rounding mode.
    pub mode: RoundMode,
    /// First operand.
    pub a: u64,
    /// Second operand (binary and ternary ops).
    pub b: u64,
    /// Third operand (fma).
    pub c: u64,
}

/// Ordering code used to report `Compare` results through the same
/// `u64` channel as encodings: 0 = less, 1 = equal, 2 = greater,
/// 3 = unordered.
pub fn ordering_code(ord: Option<core::cmp::Ordering>) -> u64 {
    match ord {
        Some(core::cmp::Ordering::Less) => 0,
        Some(core::cmp::Ordering::Equal) => 1,
        Some(core::cmp::Ordering::Greater) => 2,
        None => 3,
    }
}

/// A detected divergence: the case, what we computed, what the
/// reference computed.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The failing case.
    pub case: Case,
    /// Our result bits (or ordering code) and flags.
    pub ours: (u64, Flags),
    /// Reference result bits (or ordering code) and flags (when
    /// available).
    pub reference: (u64, Option<Flags>),
    /// Which sweep produced it.
    pub against: &'static str,
}

/// The result format of a case (differs from the operand format only
/// for `Convert`).
pub fn result_format(case: &Case) -> FpFormat {
    if case.op == Op::Convert {
        if case.fmt == FpFormat::DOUBLE {
            FpFormat::SINGLE
        } else {
            FpFormat::DOUBLE
        }
    } else {
        case.fmt
    }
}

/// Evaluate a case in softfp's full-IEEE mode.
pub fn eval_ieee(case: &Case) -> (u64, Flags) {
    let Case {
        op,
        fmt,
        mode,
        a,
        b,
        c,
    } = *case;
    match op {
        Op::Add => ieee::ieee_add(fmt, a, b, mode),
        Op::Sub => ieee::ieee_sub(fmt, a, b, mode),
        Op::Mul => ieee::ieee_mul(fmt, a, b, mode),
        Op::Div => ieee::ieee_div(fmt, a, b, mode),
        Op::Sqrt => ieee::ieee_sqrt(fmt, a, mode),
        Op::Fma => ieee::ieee_fma(fmt, a, b, c, mode),
        Op::MulAdd => {
            let (p, f) = ieee::ieee_mul(fmt, a, b, mode);
            let (r, g) = ieee::ieee_add(fmt, p, c, mode);
            (r, f | g)
        }
        Op::Convert => ieee::ieee_convert(fmt, a, result_format(case), mode),
        Op::Compare => {
            let (ord, flags) = ieee::ieee_compare(fmt, a, b);
            (ordering_code(ord), flags)
        }
    }
}

/// Evaluate a case on the host hardware. Only meaningful for the two
/// native formats.
pub fn eval_host(case: &Case) -> HostEval {
    let Case {
        op, mode, a, b, c, ..
    } = *case;
    let single = case.fmt == FpFormat::SINGLE;
    match op {
        Op::Add if single => host::add_f32(a, b, mode),
        Op::Add => host::add_f64(a, b, mode),
        Op::Sub if single => host::sub_f32(a, b, mode),
        Op::Sub => host::sub_f64(a, b, mode),
        Op::Mul if single => host::mul_f32(a, b, mode),
        Op::Mul => host::mul_f64(a, b, mode),
        Op::Div if single => host::div_f32(a, b, mode),
        Op::Div => host::div_f64(a, b, mode),
        Op::Sqrt if single => host::sqrt_f32(a, mode),
        Op::Sqrt => host::sqrt_f64(a, mode),
        Op::Fma if single => host::fma_f32(a, b, c, mode),
        Op::Fma => host::fma_f64(a, b, c, mode),
        Op::MulAdd => {
            let p = if single {
                host::mul_f32(a, b, mode)
            } else {
                host::mul_f64(a, b, mode)
            };
            let r = if single {
                host::add_f32(p.bits, c, mode)
            } else {
                host::add_f64(p.bits, c, mode)
            };
            HostEval {
                bits: r.bits,
                flags: p.flags.zip(r.flags).map(|(f, g)| f | g),
            }
        }
        Op::Convert if single => host::widen_f32_f64(a),
        Op::Convert => host::narrow_f64_f32(a, mode),
        Op::Compare => {
            let ord = if single {
                host::compare_f32(a, b)
            } else {
                host::compare_f64(a, b)
            };
            HostEval {
                bits: ordering_code(ord),
                flags: None,
            }
        }
    }
}

/// Bit-exact result comparison with the NaN-ness exemption.
pub fn results_match(res_fmt: FpFormat, op: Op, got: u64, want: u64) -> bool {
    got == want || (op != Op::Compare && ieee::is_nan(res_fmt, got) && ieee::is_nan(res_fmt, want))
}

/// Check one case in IEEE mode against the host. `None` means agreement.
pub fn check_case(case: &Case) -> Option<Divergence> {
    let ours = eval_ieee(case);
    let reference = eval_host(case);
    let res_fmt = result_format(case);
    let bits_ok = results_match(res_fmt, case.op, ours.0, reference.bits);
    let flags_ok = match reference.flags {
        Some(h) => ours.1 == h,
        None => true,
    };
    if bits_ok && flags_ok {
        None
    } else {
        Some(Divergence {
            case: *case,
            ours,
            reference: (reference.bits, reference.flags),
            against: "host",
        })
    }
}

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Ops to sweep.
    pub ops: Vec<Op>,
    /// Formats to sweep (host sweeps silently keep only f32/f64).
    pub formats: Vec<FpFormat>,
    /// Random samples per (op, format, mode) combination, on top of the
    /// exhaustive special-value cross product.
    pub samples: u64,
    /// Seed for the random corpus.
    pub seed: u64,
    /// At most this many divergences are *stored* per combination
    /// (all are counted).
    pub max_divergences: usize,
    /// Worker threads the sweeps shard over (0 = one per CPU). Sharding
    /// is at (op, format, mode)-combination granularity and every
    /// combination derives its own seed, so the report is byte-identical
    /// for every thread count.
    pub threads: usize,
    /// The datapath the flush-to-zero evaluation ([`eval_ftz`]) runs
    /// add/sub/mul/div/sqrt/fma/muladd on: `None` is the generic `ops`, `Some(engine)` the
    /// production batch entry points pinned to that engine. Every lane
    /// must produce a byte-identical report.
    pub lane: Option<SimdEngine>,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            ops: Op::ALL.to_vec(),
            formats: vec![FpFormat::SINGLE, FpFormat::FP48, FpFormat::DOUBLE],
            samples: 20_000,
            seed: 1,
            max_divergences: 8,
            threads: 1,
            lane: None,
        }
    }
}

/// Outcome of one (op, format, mode) combination.
#[derive(Clone, Debug)]
pub struct OpReport {
    /// Operation.
    pub op: Op,
    /// Operand format.
    pub fmt: FpFormat,
    /// Rounding mode.
    pub mode: RoundMode,
    /// Cases evaluated (after domain masking).
    pub cases: u64,
    /// Cases skipped by domain masking (flush-to-zero sweep only).
    pub skipped: u64,
    /// Total divergences counted.
    pub divergences: u64,
    /// First few divergences, for reporting/shrinking.
    pub examples: Vec<Divergence>,
}

impl OpReport {
    /// Count a divergence, storing it while fewer than `max` are kept.
    fn diverged(&mut self, d: Divergence, max: usize) {
        self.divergences += 1;
        if self.examples.len() < max {
            self.examples.push(d);
        }
    }
}

/// Aggregated sweep outcome.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Per-combination reports.
    pub reports: Vec<OpReport>,
}

impl SweepReport {
    /// Total cases across the sweep.
    pub fn total_cases(&self) -> u64 {
        self.reports.iter().map(|r| r.cases).sum()
    }

    /// Total divergences across the sweep.
    pub fn total_divergences(&self) -> u64 {
        self.reports.iter().map(|r| r.divergences).sum()
    }

    /// All stored example divergences.
    pub fn examples(&self) -> impl Iterator<Item = &Divergence> {
        self.reports.iter().flat_map(|r| r.examples.iter())
    }
}

const MODES: [RoundMode; 2] = [RoundMode::NearestEven, RoundMode::Truncate];

fn derived_seed(base: u64, op: Op, fmt: FpFormat, mode: RoundMode) -> u64 {
    let mut h = Rng64::new(base ^ ((op as u64) << 8) ^ ((fmt.exp_bits() as u64) << 16));
    h.next_u64() ^ ((fmt.frac_bits() as u64) << 32) ^ (mode == RoundMode::Truncate) as u64
}

/// Generate the case stream for one combination: the exhaustive
/// special-value cross product (squared for binary ops; the special
/// square × specials diagonal slices for ternary) followed by `samples`
/// biased random draws.
fn cases_for(
    op: Op,
    fmt: FpFormat,
    mode: RoundMode,
    samples: u64,
    seed: u64,
    mut visit: impl FnMut(Case),
) {
    let specials = special_values(fmt);
    let case = |a, b, c| Case {
        op,
        fmt,
        mode,
        a,
        b,
        c,
    };
    match op.arity() {
        1 => {
            for &a in &specials {
                visit(case(a, 0, 0));
            }
        }
        2 => {
            for &a in &specials {
                for &b in &specials {
                    visit(case(a, b, 0));
                }
            }
        }
        _ => {
            // Full cube is ~70³ ≈ 350k per combination — run the three
            // axis-aligned squares through zero/one/inf anchors plus the
            // rotated diagonal cube instead.
            let n = specials.len();
            let anchors = [0u64, fmt.pack(false, fmt.bias() as u64, 0), fmt.pos_inf()];
            for &a in &specials {
                for &b in &specials {
                    for c in anchors {
                        visit(case(a, b, c));
                    }
                }
            }
            for i in 0..n {
                for j in 0..n {
                    visit(case(specials[i], specials[j], specials[(i + j) % n]));
                }
            }
        }
    }
    let mut gen = CaseGen::new(fmt, derived_seed(seed, op, fmt, mode));
    for _ in 0..samples {
        let (a, b, c) = match op.arity() {
            1 => (gen.value(), 0, 0),
            2 => {
                let (a, b) = gen.pair();
                (a, b, 0)
            }
            _ => gen.triple(),
        };
        visit(case(a, b, c));
    }
}

/// True when the host has hardware for `fmt` (binary32 and binary64).
fn on_host(fmt: FpFormat) -> bool {
    fmt == FpFormat::SINGLE || fmt == FpFormat::DOUBLE
}

/// The (op, format, mode) combinations a sweep covers, in canonical
/// (report) order. Each combination derives its own corpus seed, so
/// they can be evaluated independently on any thread.
fn combos(config: &SweepConfig, host_only: bool) -> Vec<(Op, FpFormat, RoundMode)> {
    let mut out = Vec::new();
    for &op in &config.ops {
        for &fmt in &config.formats {
            if host_only && !on_host(fmt) {
                continue; // the host has no hardware for custom formats
            }
            for mode in MODES {
                out.push((op, fmt, mode));
            }
        }
    }
    out
}

/// Sweep softfp's IEEE mode against the host for every requested op ×
/// native format × rounding mode, sharded over `config.threads` scoped
/// workers (combination granularity; byte-identical at any count).
pub fn run_ieee_sweep(config: &SweepConfig) -> SweepReport {
    let combos = combos(config, true);
    let reports = fpfpga_fpu::parallel_map_slice(config.threads, &combos, |_, &(op, fmt, mode)| {
        let mut r = OpReport {
            op,
            fmt,
            mode,
            cases: 0,
            skipped: 0,
            divergences: 0,
            examples: Vec::new(),
        };
        cases_for(op, fmt, mode, config.samples, config.seed, |case| {
            r.cases += 1;
            if let Some(d) = check_case(&case) {
                r.diverged(d, config.max_divergences);
            }
        });
        r
    });
    SweepReport { reports }
}

/// True when `bits` is a NaN or denormal encoding in `fmt` — outside the
/// flush-to-zero cores' input domain.
fn outside_ftz_domain(fmt: FpFormat, bits: u64) -> bool {
    let (_, e, m) = fmt.unpack_fields(bits);
    m != 0 && (e == fmt.inf_biased_exp() || e == 0)
}

/// Evaluate a case with the paper-faithful flush-to-zero ops. With a
/// `lane`, add/sub/mul/div/sqrt/fma/muladd run through that engine's production
/// batch path; otherwise they, and convert/compare (which have no batch
/// lane) always, run the generic implementations.
pub fn eval_ftz(case: &Case, lane: Option<SimdEngine>) -> (u64, Flags) {
    eval_ftz_lanes(case, lane).0
}

/// [`eval_ftz`] plus the lane-position check: on a batch lane the case
/// runs in every lane of a chunk, and the second value is the first
/// lane's result that differs from lane 0's (always `None` off a batch
/// lane, and for ops without one).
pub fn eval_ftz_lanes(
    case: &Case,
    lane: Option<SimdEngine>,
) -> ((u64, Flags), Option<(u64, Flags)>) {
    if let Some(outs) = lane.and_then(|eng| eval_on_lane(eng, case)) {
        return (outs[0], outs.iter().find(|&&o| o != outs[0]).copied());
    }
    let Case {
        op,
        fmt,
        mode,
        a,
        b,
        c,
    } = *case;
    let r = match op {
        Op::Add => fpfpga_softfp::add_bits(fmt, a, b, mode),
        Op::Sub => fpfpga_softfp::sub_bits(fmt, a, b, mode),
        Op::Mul => fpfpga_softfp::mul_bits(fmt, a, b, mode),
        Op::Div => fpfpga_softfp::div_bits(fmt, a, b, mode),
        Op::Sqrt => fpfpga_softfp::sqrt_bits(fmt, a, mode),
        Op::Fma => fpfpga_softfp::fma_bits(fmt, a, b, c, mode),
        Op::MulAdd => {
            let (p, f) = fpfpga_softfp::mul_bits(fmt, a, b, mode);
            let (r, g) = fpfpga_softfp::add_bits(fmt, p, c, mode);
            (r, f | g)
        }
        Op::Convert => fpfpga_softfp::convert::convert(fmt, a, result_format(case), mode),
        Op::Compare => {
            let ord = fpfpga_softfp::compare::compare(fmt, a, b);
            (ordering_code(Some(ord)), Flags::NONE)
        }
    };
    (r, None)
}

/// Whether `op` has a batch lane (add, sub, mul, div, sqrt, fma and
/// muladd).
fn has_batch_lane(op: Op) -> bool {
    matches!(
        op,
        Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Sqrt | Op::Fma | Op::MulAdd
    )
}

/// One add/sub/mul/div/sqrt/fma case through `fastpath::*_bits_batch_with`
/// on `eng`, returning every lane's result; a muladd case is one
/// `fastpath::mac_steps_bits_with` step (`a·b` into an accumulator
/// holding `c`), whose flags come back once for the whole chunk. The
/// operands are broadcast to a full chunk of [`LANES`], so every lane of
/// the engine's datapath and special-operand blend runs the case. `None`
/// for ops without a batch lane.
fn eval_on_lane(eng: SimdEngine, case: &Case) -> Option<Vec<(u64, Flags)>> {
    let Case {
        op,
        fmt,
        mode,
        a,
        b,
        c,
    } = *case;
    let (a, b, c) = ([a; LANES], [b; LANES], [c; LANES]);
    let mut out = Vec::with_capacity(LANES);
    match op {
        Op::Add => fastpath::add_bits_batch_with(eng, fmt, &a, &b, mode, &mut out),
        Op::Sub => fastpath::sub_bits_batch_with(eng, fmt, &a, &b, mode, &mut out),
        Op::Mul => fastpath::mul_bits_batch_with(eng, fmt, &a, &b, mode, &mut out),
        Op::Div => fastpath::div_bits_batch_with(eng, fmt, &a, &b, mode, &mut out),
        Op::Sqrt => fastpath::sqrt_bits_batch_with(eng, fmt, &a, mode, &mut out),
        Op::Fma => fastpath::fma_bits_batch_with(eng, fmt, &a, &b, &c, mode, &mut out),
        Op::MulAdd => {
            let mut acc = c;
            let flags =
                fastpath::mac_steps_bits_with(eng, fmt, fmt, &b[..1], &a, LANES, &mut acc, 1, mode);
            out.extend(acc.map(|r| (r, flags)));
        }
        _ => return None,
    }
    Some(out)
}

/// A batch lane whose result differs from lane 0's for the same operands
/// (`against: "lane-0"`): a lane-position fault in a wide engine.
fn lane_skew(case: Case, got: (u64, Flags), lane0: (u64, Flags)) -> Divergence {
    Divergence {
        case,
        ours: got,
        reference: (lane0.0, Some(lane0.1)),
        against: "lane-0",
    }
}

/// Sweep the flush-to-zero layer against the host on the common
/// semantic domain (no NaNs or denormals in, no NaN/denormal/underflow
/// cases out — those deviations are deliberate and documented).
///
/// On a batch lane (`config.lane`) every add/sub/mul/div/sqrt/fma/muladd result
/// is first compared with the generic `ops` (`against: "generic"`),
/// before any masking, so underflow cases and NaN/denormal operands count
/// too, and the formats the host has no hardware for (f48) are swept
/// against the generic ops alone.
pub fn run_ftz_sweep(config: &SweepConfig) -> SweepReport {
    let combos: Vec<_> = combos(config, false)
        .into_iter()
        .filter(|&(op, fmt, _)| on_host(fmt) || (config.lane.is_some() && has_batch_lane(op)))
        .collect();
    let reports = fpfpga_fpu::parallel_map_slice(config.threads, &combos, |_, &(op, fmt, mode)| {
        let mut r = OpReport {
            op,
            fmt,
            mode,
            cases: 0,
            skipped: 0,
            divergences: 0,
            examples: Vec::new(),
        };
        cases_for(op, fmt, mode, config.samples, config.seed ^ 0xf72, |case| {
            let (ours, odd_lane) = eval_ftz_lanes(&case, config.lane);
            if let Some(got) = odd_lane {
                r.cases += 1;
                r.diverged(lane_skew(case, got, ours), config.max_divergences);
                return;
            }
            if config.lane.is_some() {
                let generic = eval_ftz(&case, None);
                if ours != generic {
                    r.cases += 1;
                    let d = Divergence {
                        case,
                        ours,
                        reference: (generic.0, Some(generic.1)),
                        against: "generic",
                    };
                    r.diverged(d, config.max_divergences);
                    return;
                }
                if !on_host(fmt) {
                    r.cases += 1;
                    return;
                }
            }
            let operands = [case.a, case.b, case.c];
            if operands[..case.op.arity()]
                .iter()
                .any(|&x| outside_ftz_domain(fmt, x))
            {
                r.skipped += 1;
                return;
            }
            let reference = eval_host(&case);
            let res_fmt = result_format(&case);
            // Deliberate-deviation masking.
            if case.op != Op::Compare
                && (ieee::is_nan(res_fmt, reference.bits)
                    || outside_ftz_domain(res_fmt, reference.bits)
                    || ours.1.underflow
                    || reference.flags.is_some_and(|f| f.underflow))
            {
                r.skipped += 1;
                return;
            }
            r.cases += 1;
            let flags_ok = match (case.op, reference.flags) {
                (Op::Compare, _) | (_, None) => true,
                // FTZ invalid handling substitutes values, so only
                // the non-invalid cases compare flags exactly.
                (_, Some(h)) => ours.1 == h,
            };
            if ours.0 != reference.bits || !flags_ok {
                let d = Divergence {
                    case,
                    ours,
                    reference: (reference.bits, reference.flags),
                    against: "host-ftz",
                };
                r.diverged(d, config.max_divergences);
            }
        });
        r
    });
    SweepReport { reports }
}

/// Sweep the staged `fpfpga-fpu` pipeline units against softfp across
/// **every** pipeline depth of each unit's legal range, for all
/// requested formats (custom formats included — this sweep needs no
/// host hardware).
pub fn run_fpu_sweep(config: &SweepConfig) -> SweepReport {
    use fpfpga_fpu::prelude::*;

    let pipeline_ops = [Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Sqrt];
    let pipeline_config = SweepConfig {
        ops: config
            .ops
            .iter()
            .copied()
            .filter(|op| pipeline_ops.contains(op))
            .collect(),
        ..config.clone()
    };
    let combos = combos(&pipeline_config, false);
    let reports = fpfpga_fpu::parallel_map_slice(config.threads, &combos, |_, &(op, fmt, mode)| {
        {
            let stage_range: u32 = match op {
                Op::Div => 39,
                Op::Sqrt => 29,
                _ => 23,
            };
            let per_stage = (config.samples / stage_range as u64).max(8);
            let specials = special_values(fmt);
            let mut r = OpReport {
                op,
                fmt,
                mode,
                cases: 0,
                skipped: 0,
                divergences: 0,
                examples: Vec::new(),
            };
            let mut gen = CaseGen::new(fmt, derived_seed(config.seed ^ 0xf9a, op, fmt, mode));
            for stages in 1..=stage_range {
                let mut unit = match op {
                    Op::Add => AdderDesign {
                        format: fmt,
                        round: mode,
                        force_priority_encoder: true,
                    }
                    .simulator(stages),
                    Op::Sub => AdderDesign {
                        format: fmt,
                        round: mode,
                        force_priority_encoder: true,
                    }
                    .simulator(stages)
                    .with_subtract(true),
                    Op::Mul => MultiplierDesign {
                        format: fmt,
                        round: mode,
                    }
                    .simulator(stages),
                    Op::Div => DividerDesign {
                        format: fmt,
                        round: mode,
                    }
                    .simulator(stages),
                    _ => SqrtDesign {
                        format: fmt,
                        round: mode,
                    }
                    .simulator(stages),
                };
                let mut run = |a: u64, b: u64| {
                    let mut out = unit.clock(Some((a, b)));
                    let mut guard = 0;
                    while out.is_none() {
                        out = unit.clock(None);
                        guard += 1;
                        assert!(guard <= unit.latency() + 1, "pipeline never produced");
                    }
                    let (got, gf) = out.unwrap();
                    let case = Case {
                        op,
                        fmt,
                        mode,
                        a,
                        b,
                        c: 0,
                    };
                    let ((want, wf), odd_lane) = eval_ftz_lanes(&case, config.lane);
                    r.cases += 1;
                    if let Some(odd) = odd_lane {
                        r.diverged(lane_skew(case, odd, (want, wf)), config.max_divergences);
                    } else if got != want || gf != wf {
                        let d = Divergence {
                            case,
                            ours: (got, gf),
                            reference: (want, Some(wf)),
                            against: "softfp-fpu",
                        };
                        r.diverged(d, config.max_divergences);
                    }
                };
                // A rotated slice of the special-value square plus the
                // random tranche, at every single stage count.
                let n = specials.len();
                for (i, &a) in specials.iter().enumerate() {
                    let b = specials[(i + stages as usize) % n];
                    run(a, if op == Op::Sqrt { 0 } else { b });
                }
                for _ in 0..per_stage {
                    let (a, b) = gen.pair();
                    run(a, if op == Op::Sqrt { 0 } else { b });
                }
            }
            r
        }
    });
    SweepReport { reports }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_tokens_roundtrip() {
        for op in Op::ALL {
            assert_eq!(Op::parse(op.name()), Some(op));
        }
        assert_eq!(Op::parse("bogus"), None);
    }

    #[test]
    fn format_tokens_roundtrip() {
        for fmt in [
            FpFormat::SINGLE,
            FpFormat::FP48,
            FpFormat::DOUBLE,
            FpFormat::new(6, 17),
        ] {
            assert_eq!(parse_format(&format_name(fmt)), Some(fmt));
        }
    }

    #[test]
    fn specials_cross_product_is_clean_for_add() {
        let config = SweepConfig {
            ops: vec![Op::Add],
            formats: vec![FpFormat::SINGLE],
            samples: 500,
            ..SweepConfig::default()
        };
        let report = run_ieee_sweep(&config);
        assert_eq!(
            report.total_divergences(),
            0,
            "{:?}",
            report.examples().next()
        );
        assert!(report.total_cases() > 5_000);
    }

    #[test]
    fn ftz_sweep_masks_its_deviations() {
        let config = SweepConfig {
            ops: vec![Op::Mul, Op::Compare],
            formats: vec![FpFormat::SINGLE],
            samples: 2_000,
            ..SweepConfig::default()
        };
        let report = run_ftz_sweep(&config);
        assert_eq!(
            report.total_divergences(),
            0,
            "{:?}",
            report.examples().next()
        );
    }

    #[test]
    fn host_sweeps_are_thread_count_invariant() {
        let base = SweepConfig {
            ops: vec![Op::Add, Op::Mul],
            formats: vec![FpFormat::SINGLE],
            samples: 300,
            ..SweepConfig::default()
        };
        let want_ieee = format!("{:?}", run_ieee_sweep(&base));
        let want_ftz = format!("{:?}", run_ftz_sweep(&base));
        for threads in [2usize, 5, 0] {
            let cfg = SweepConfig {
                threads,
                ..base.clone()
            };
            let got = format!("{:?}", run_ieee_sweep(&cfg));
            assert_eq!(got, want_ieee, "ieee threads={threads}");
            let got = format!("{:?}", run_ftz_sweep(&cfg));
            assert_eq!(got, want_ftz, "ftz threads={threads}");
        }
    }

    #[test]
    fn fpu_sweep_is_thread_count_invariant() {
        let base = SweepConfig {
            ops: vec![Op::Add, Op::Mul],
            formats: vec![FpFormat::SINGLE],
            samples: 100,
            ..SweepConfig::default()
        };
        let want = format!("{:?}", run_fpu_sweep(&base));
        for threads in [3usize, 0] {
            let cfg = SweepConfig {
                threads,
                ..base.clone()
            };
            assert_eq!(
                format!("{:?}", run_fpu_sweep(&cfg)),
                want,
                "threads={threads}"
            );
        }
    }

    /// Divergence-free dispatch: each engine in `lanes` must reproduce the
    /// generic sweep byte for byte. The lane is a config value, so nothing
    /// here races the other sweeps in this binary.
    fn assert_lanes_report_byte_identically(lanes: impl IntoIterator<Item = SimdEngine>) {
        let cfg = SweepConfig {
            ops: vec![Op::Add, Op::Sub, Op::Mul, Op::Fma],
            formats: vec![FpFormat::SINGLE, FpFormat::DOUBLE],
            samples: 500,
            ..SweepConfig::default()
        };
        let generic = format!("{:?}", run_ftz_sweep(&cfg));
        for eng in lanes {
            let on_lane = SweepConfig {
                lane: Some(eng),
                ..cfg.clone()
            };
            assert_eq!(generic, format!("{:?}", run_ftz_sweep(&on_lane)), "{eng:?}");
        }
    }

    #[test]
    fn forced_fastpath_report_is_byte_identical() {
        assert_lanes_report_byte_identically([SimdEngine::Scalar]);
    }

    #[test]
    fn forced_simd_report_is_byte_identical_in_every_policy() {
        // Every wide engine this host runs; the portable engine is covered above.
        assert_lanes_report_byte_identically(
            SimdEngine::available().filter(|&eng| eng != SimdEngine::Scalar),
        );
    }
}

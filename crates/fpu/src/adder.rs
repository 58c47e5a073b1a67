//! The floating-point adder/subtractor core (Figure 1a of the paper).
//!
//! Three algorithmic stages, decomposed into the subunits the paper
//! names, each with its behaviour and its fabric structure:
//!
//! 1. **Denormalization / pre-shifting** — denormalizer (hidden-bit
//!    insertion via an exponent-zero comparator), swapper (exponent +
//!    mantissa comparators and a mux), alignment shifter;
//! 2. **Fixed-point add/subtract** — mantissa adder/subtractor
//!    (library-core style, pipelineable), pre-normalizer (1-bit shift on
//!    carry-out plus exponent increment);
//! 3. **Normalize / round** — priority encoder (leading-one detect, with
//!    the tool-forced split synthesis for wide operands), normalization
//!    shifter with exponent subtractor, and the rounding module's
//!    constant adders.
//!
//! Exceptions are detected in stage 1 and carried forward; the output
//! stage muxes the special result over the arithmetic one — "at every
//! stage exceptions are detected and carried forward into the next
//! stage".

use crate::config::CoreConfig;
use crate::signals::Signals;
use crate::sim::PipelinedUnit;
use crate::subunit::{Datapath, Subunit};
use fpfpga_fabric::netlist::{Component, Netlist};
use fpfpga_fabric::primitives::{log2_ceil, Primitive};
use fpfpga_fabric::report::ImplementationReport;
use fpfpga_fabric::synthesis::SynthesisOptions;
use fpfpga_fabric::tech::Tech;
use fpfpga_fabric::timing;
use fpfpga_fabric::PipelineStrategy;
use fpfpga_softfp::ops::add::{
    align_mantissa, leading_one_pos, normalize_left, prenormalize, swap_operands, GRS_BITS,
};
use fpfpga_softfp::round::{pack_with_range_check, round_sig};
use fpfpga_softfp::{Class, Flags, FpFormat, RoundMode, Unpacked};

/// Stage-1 denormalizer: unpack both operands (flush denormals, make the
/// hidden bit explicit) and apply the subtract control to B's sign.
pub struct Denormalize;

impl Subunit for Denormalize {
    fn name(&self) -> &'static str {
        "denormalizer"
    }

    fn eval(&self, fmt: FpFormat, _mode: RoundMode, s: &mut Signals) {
        s.a = Unpacked::from_bits(fmt, s.a_bits);
        s.b = Unpacked::from_bits(fmt, s.b_bits);
        if s.subtract {
            s.b.sign = !s.b.sign;
        }
    }

    fn components(&self, fmt: FpFormat, tech: &Tech) -> Vec<Component> {
        // Exponent-zero comparators, one per operand (B's in parallel),
        // plus the hidden-bit insertion glue.
        let cmp = Primitive::Comparator {
            bits: fmt.exp_bits(),
        };
        vec![
            Component::from_primitive("denorm cmp A", &cmp, tech),
            Component::parallel("denorm cmp B", &cmp, tech),
        ]
    }
}

/// Stage-1 exception logic: resolve the ∞/0 operand combinations and
/// forward the result on the special bus. Mirrors `fpfpga-softfp`'s
/// special-case dispatch exactly.
pub struct AddExceptionDetect;

impl Subunit for AddExceptionDetect {
    fn name(&self) -> &'static str {
        "exception detect"
    }

    fn eval(&self, fmt: FpFormat, _mode: RoundMode, s: &mut Signals) {
        let (a, b) = (s.a, s.b);
        s.special = match (a.class, b.class) {
            (Class::Inf, Class::Inf) => {
                if a.sign == b.sign {
                    Some((Unpacked::inf(a.sign).to_bits(fmt), Flags::NONE))
                } else {
                    Some((Unpacked::inf(false).to_bits(fmt), Flags::invalid()))
                }
            }
            (Class::Inf, _) => Some((Unpacked::inf(a.sign).to_bits(fmt), Flags::NONE)),
            (_, Class::Inf) => Some((Unpacked::inf(b.sign).to_bits(fmt), Flags::NONE)),
            (Class::Zero, Class::Zero) => {
                Some((Unpacked::zero(a.sign && b.sign).to_bits(fmt), Flags::NONE))
            }
            (Class::Zero, Class::Normal) => Some((b.to_bits(fmt), Flags::NONE)),
            (Class::Normal, Class::Zero) => Some((a.to_bits(fmt), Flags::NONE)),
            (Class::Normal, Class::Normal) => None,
        };
    }

    fn components(&self, _fmt: FpFormat, tech: &Tech) -> Vec<Component> {
        vec![Component::parallel(
            "exception logic",
            &Primitive::SignLogic,
            tech,
        )]
    }
}

/// Stage-1 swapper: order operands by magnitude (exponent comparator,
/// mantissa comparator for the tie, swap mux) and compute the alignment
/// shift with an exponent subtractor.
pub struct SwapUnit;

impl Subunit for SwapUnit {
    fn name(&self) -> &'static str {
        "swapper"
    }

    fn eval(&self, _fmt: FpFormat, _mode: RoundMode, s: &mut Signals) {
        let (hi, lo) = swap_operands(s.a, s.b);
        s.hi = hi;
        s.lo = lo;
        s.align_shift = (hi.exp - lo.exp) as u32;
    }

    fn components(&self, fmt: FpFormat, tech: &Tech) -> Vec<Component> {
        vec![
            // The mantissa comparator dominates ("the mantissa comparator
            // for double precision can achieve 220 MHz and requires
            // pipelining for higher frequencies"); the exponent
            // comparator and subtractor run in parallel with it.
            Component::from_primitive(
                "mantissa comparator",
                &Primitive::Comparator {
                    bits: fmt.sig_bits(),
                },
                tech,
            ),
            Component::parallel(
                "exponent comparator",
                &Primitive::Comparator {
                    bits: fmt.exp_bits(),
                },
                tech,
            ),
            Component::parallel(
                "exponent subtractor",
                &Primitive::FixedAdder {
                    bits: fmt.exp_bits(),
                    carry_ns_per_bit: tech.t_carry_per_bit_ns,
                },
                tech,
            ),
            Component::from_primitive(
                "swap mux",
                &Primitive::Mux2 {
                    bits: 2 * fmt.sig_bits(),
                },
                tech,
            ),
        ]
    }
}

/// Stage-1 alignment shifter: shift the smaller significand right by the
/// exponent difference, compress the tail into a jammed sticky bit.
pub struct AlignShift;

impl Subunit for AlignShift {
    fn name(&self) -> &'static str {
        "align shifter"
    }

    fn eval(&self, _fmt: FpFormat, _mode: RoundMode, s: &mut Signals) {
        let (aligned, sticky) = align_mantissa(s.lo.sig, s.align_shift);
        s.lo_aligned = aligned | sticky as u64;
    }

    fn components(&self, fmt: FpFormat, tech: &Tech) -> Vec<Component> {
        let bits = fmt.sig_bits() + GRS_BITS;
        vec![Component::from_primitive(
            "align shifter",
            &Primitive::BarrelShifter {
                bits,
                levels: log2_ceil(bits),
            },
            tech,
        )]
    }
}

/// Stage 2: the fixed-point mantissa adder/subtractor.
pub struct MantissaAddSub;

impl Subunit for MantissaAddSub {
    fn name(&self) -> &'static str {
        "mantissa adder/subtractor"
    }

    fn eval(&self, _fmt: FpFormat, _mode: RoundMode, s: &mut Signals) {
        if s.special.is_some() {
            // The mantissa path computes don't-care values when the
            // stage-1 exception logic has already resolved the result;
            // the swapper's ordering invariant does not hold for
            // special operands, so skip rather than wrap.
            return;
        }
        let hi_sig = (s.hi.sig << GRS_BITS) as u128;
        let effective_sub = s.a.sign != s.b.sign;
        if effective_sub {
            let d = hi_sig - s.lo_aligned as u128;
            s.mag = d;
            s.is_zero = d == 0;
        } else {
            s.mag = hi_sig + s.lo_aligned as u128;
            s.is_zero = false;
        }
        s.sign = s.hi.sign;
        s.exp = s.hi.exp;
    }

    fn components(&self, fmt: FpFormat, tech: &Tech) -> Vec<Component> {
        vec![Component::from_primitive(
            "mantissa adder",
            &Primitive::FixedAdder {
                bits: fmt.sig_bits() + GRS_BITS,
                carry_ns_per_bit: tech.t_carry_per_bit_ns,
            },
            tech,
        )]
    }
}

/// Stage 2b: the pre-normalizer — on a carry-out, shift the sum right by
/// one (sticky-jamming) and increment the exponent.
pub struct PreNormalize;

impl Subunit for PreNormalize {
    fn name(&self) -> &'static str {
        "pre-normalizer"
    }

    fn eval(&self, fmt: FpFormat, _mode: RoundMode, s: &mut Signals) {
        if !s.is_zero && s.special.is_none() {
            let (mag, exp) = prenormalize(fmt, s.mag, s.exp);
            s.mag = mag;
            s.exp = exp;
        }
    }

    fn components(&self, fmt: FpFormat, tech: &Tech) -> Vec<Component> {
        vec![
            Component::from_primitive(
                "carry shift mux",
                &Primitive::Mux2 {
                    bits: fmt.sig_bits() + GRS_BITS,
                },
                tech,
            ),
            Component::parallel(
                "exponent +1",
                &Primitive::ConstAdder {
                    bits: fmt.exp_bits(),
                },
                tech,
            ),
        ]
    }
}

/// Stage 3a: the priority encoder (leading-one detector) — "a critical
/// subunit for large bitwidths \[whose\] synthesis by the tool has to be
/// forced".
pub struct LeadingOneDetect {
    /// Model the tool-forced split synthesis (two half-width encoders
    /// plus a small adder and muxes).
    pub forced: bool,
}

impl Subunit for LeadingOneDetect {
    fn name(&self) -> &'static str {
        "priority encoder"
    }

    fn eval(&self, _fmt: FpFormat, _mode: RoundMode, s: &mut Signals) {
        if !s.is_zero && s.special.is_none() {
            s.msb_pos = leading_one_pos(s.mag);
        }
    }

    fn components(&self, fmt: FpFormat, tech: &Tech) -> Vec<Component> {
        vec![Component::from_primitive(
            "priority encoder",
            &Primitive::PriorityEncoder {
                bits: fmt.sig_bits() + GRS_BITS,
                forced: self.forced,
            },
            tech,
        )]
    }
}

/// Stage 3b: the normalization shifter with its exponent subtractor.
pub struct NormalizeShift;

impl Subunit for NormalizeShift {
    fn name(&self) -> &'static str {
        "normalization shifter"
    }

    fn eval(&self, fmt: FpFormat, _mode: RoundMode, s: &mut Signals) {
        if !s.is_zero && s.special.is_none() {
            let (mag, exp) = normalize_left(fmt, s.mag, s.exp, s.msb_pos);
            s.mag = mag;
            s.exp = exp;
        }
    }

    fn components(&self, fmt: FpFormat, tech: &Tech) -> Vec<Component> {
        let bits = fmt.sig_bits() + GRS_BITS;
        vec![
            Component::from_primitive(
                "normalize shifter",
                &Primitive::BarrelShifter {
                    bits,
                    levels: log2_ceil(bits),
                },
                tech,
            ),
            Component::parallel(
                "exponent subtractor",
                &Primitive::FixedAdder {
                    bits: fmt.exp_bits(),
                    carry_ns_per_bit: tech.t_carry_per_bit_ns,
                },
                tech,
            ),
        ]
    }
}

/// Stage 3c: the rounding module — constant adders for mantissa and
/// exponent.
pub struct RoundUnit;

impl Subunit for RoundUnit {
    fn name(&self) -> &'static str {
        "rounding"
    }

    fn eval(&self, fmt: FpFormat, mode: RoundMode, s: &mut Signals) {
        if !s.is_zero && s.special.is_none() {
            let rounded = round_sig(fmt, s.mag, GRS_BITS, mode);
            s.mag = rounded.sig as u128;
            s.exp += rounded.exp_carry as i32;
            if rounded.inexact {
                s.flags |= Flags::inexact();
            }
        }
    }

    fn components(&self, fmt: FpFormat, tech: &Tech) -> Vec<Component> {
        vec![
            Component::from_primitive(
                "mantissa round adder",
                &Primitive::ConstAdder {
                    bits: fmt.sig_bits(),
                },
                tech,
            ),
            Component::parallel(
                "exponent round adder",
                &Primitive::ConstAdder {
                    bits: fmt.exp_bits(),
                },
                tech,
            ),
        ]
    }
}

/// Output stage: range check, pack, and the mux selecting the special
/// result over the arithmetic one; exception flags are merged here.
pub struct PackUnit;

impl Subunit for PackUnit {
    fn name(&self) -> &'static str {
        "pack / output mux"
    }

    fn eval(&self, fmt: FpFormat, mode: RoundMode, s: &mut Signals) {
        if let Some((bits, flags)) = s.special {
            s.result = bits;
            s.flags = flags;
        } else if s.is_zero {
            s.result = Unpacked::zero(false).to_bits(fmt);
            s.flags = Flags::NONE;
        } else {
            let inexact = s.flags.inexact;
            let (bits, flags) =
                pack_with_range_check(fmt, s.sign, s.exp, s.mag as u64, mode, inexact);
            s.result = bits;
            s.flags = flags;
        }
    }

    fn components(&self, fmt: FpFormat, tech: &Tech) -> Vec<Component> {
        vec![
            Component::from_primitive(
                "output mux",
                &Primitive::Mux2 {
                    bits: fmt.total_bits(),
                },
                tech,
            ),
            Component::parallel(
                "range check",
                &Primitive::Comparator {
                    bits: fmt.exp_bits(),
                },
                tech,
            ),
        ]
    }
}

/// A floating-point adder/subtractor design for one format.
#[derive(Clone, Copy, Debug)]
pub struct AdderDesign {
    /// Operand format.
    pub format: FpFormat,
    /// Rounding mode of the built simulators.
    pub round: RoundMode,
    /// Forced priority-encoder synthesis (paper default: true).
    pub force_priority_encoder: bool,
}

impl AdderDesign {
    /// A design with the paper's defaults.
    pub fn new(format: FpFormat) -> AdderDesign {
        AdderDesign {
            format,
            round: RoundMode::NearestEven,
            force_priority_encoder: true,
        }
    }

    /// From a full core configuration.
    pub fn from_config(cfg: &CoreConfig) -> AdderDesign {
        AdderDesign {
            format: cfg.format,
            round: cfg.round,
            force_priority_encoder: cfg.force_priority_encoder,
        }
    }

    /// The behavioural datapath (subunits in dataflow order).
    pub fn datapath(&self) -> Datapath {
        Datapath {
            subunits: vec![
                Box::new(Denormalize),
                Box::new(AddExceptionDetect),
                Box::new(SwapUnit),
                Box::new(AlignShift),
                Box::new(MantissaAddSub),
                Box::new(PreNormalize),
                Box::new(LeadingOneDetect {
                    forced: self.force_priority_encoder,
                }),
                Box::new(NormalizeShift),
                Box::new(RoundUnit),
                Box::new(PackUnit),
            ],
        }
    }

    /// The structural netlist for the fabric model.
    pub fn netlist(&self, tech: &Tech) -> Netlist {
        let mut n = Netlist::new(
            &format!("fp{} adder", self.format.total_bits()),
            self.format.total_bits(),
            // side band: sign + exponent-in-flight + flags + DONE
            self.format.exp_bits() + 6,
        );
        for u in self.datapath().subunits {
            n.components.extend(u.components(self.format, tech));
        }
        n
    }

    /// Sweep pipeline depth (the paper's Figure 2a data for this format).
    pub fn sweep(&self, tech: &Tech, opts: SynthesisOptions) -> Vec<ImplementationReport> {
        let n = self.netlist(tech);
        timing::sweep_stages(&n, PipelineStrategy::IterativeRefinement, opts, tech)
    }

    /// Build the cycle-accurate simulator for a pipeline depth.
    pub fn simulator(&self, stages: u32) -> PipelinedUnit {
        let config = CoreConfig::builder(self.format)
            .round(self.round)
            .stages(stages)
            .strategy(PipelineStrategy::Balanced)
            .build();
        PipelinedUnit::new(&config, self.datapath(), self.netlist(&Tech::virtex2pro()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinational_matches_softfp() {
        let d = AdderDesign::new(FpFormat::SINGLE);
        let dp = d.datapath();
        let cases: &[(f32, f32)] = &[
            (1.0, 2.0),
            (1.5, -0.25),
            (-3.5, 3.5),
            (f32::MAX, f32::MAX),
            (1e-38, -1e-38),
            (0.0, -0.0),
            (f32::INFINITY, 1.0),
            (f32::INFINITY, f32::NEG_INFINITY),
        ];
        for &(x, y) in cases {
            let mut s = Signals::inject(x.to_bits() as u64, y.to_bits() as u64, false);
            dp.eval_all(FpFormat::SINGLE, RoundMode::NearestEven, &mut s);
            let (want, wflags) = fpfpga_softfp::add_bits(
                FpFormat::SINGLE,
                x.to_bits() as u64,
                y.to_bits() as u64,
                RoundMode::NearestEven,
            );
            assert_eq!(s.result, want, "{x} + {y}");
            assert_eq!(s.flags, wflags, "{x} + {y}");
        }
    }

    #[test]
    fn subtract_control_line() {
        let d = AdderDesign::new(FpFormat::SINGLE);
        let dp = d.datapath();
        let mut s = Signals::inject(5.0f32.to_bits() as u64, 3.0f32.to_bits() as u64, true);
        dp.eval_all(FpFormat::SINGLE, RoundMode::NearestEven, &mut s);
        assert_eq!(f32::from_bits(s.result as u32), 2.0);
    }

    #[test]
    fn netlist_has_all_subunits() {
        let d = AdderDesign::new(FpFormat::DOUBLE);
        let n = d.netlist(&Tech::virtex2pro());
        assert!(n.components.len() >= 10);
        assert!(n.base_area().luts > 300.0);
        assert_eq!(n.base_area().bmults, 0);
    }

    #[test]
    fn sweep_shapes() {
        let t = Tech::virtex2pro();
        let d = AdderDesign::new(FpFormat::SINGLE);
        let sweep = d.sweep(&t, SynthesisOptions::SPEED);
        assert!(sweep.len() > 10, "expect a deep sweep, got {}", sweep.len());
        // The paper: single-precision addition beyond 240 MHz when deeply
        // pipelined.
        let best = sweep.iter().map(|r| r.clock_mhz).fold(0.0, f64::max);
        assert!(best > 240.0, "best single adder clock = {best}");
    }

    #[test]
    fn double_precision_exceeds_200mhz() {
        let t = Tech::virtex2pro();
        let d = AdderDesign::new(FpFormat::DOUBLE);
        let sweep = d.sweep(&t, SynthesisOptions::SPEED);
        let best = sweep.iter().map(|r| r.clock_mhz).fold(0.0, f64::max);
        assert!(best > 200.0, "best double adder clock = {best}");
    }

    #[test]
    fn unforced_priority_encoder_caps_frequency() {
        let t = Tech::virtex2pro();
        let forced = AdderDesign {
            force_priority_encoder: true,
            ..AdderDesign::new(FpFormat::DOUBLE)
        };
        let unforced = AdderDesign {
            force_priority_encoder: false,
            ..AdderDesign::new(FpFormat::DOUBLE)
        };
        let f = forced.sweep(&t, SynthesisOptions::SPEED);
        let u = unforced.sweep(&t, SynthesisOptions::SPEED);
        let fbest = f.iter().map(|r| r.clock_mhz).fold(0.0, f64::max);
        let ubest = u.iter().map(|r| r.clock_mhz).fold(0.0, f64::max);
        assert!(
            fbest > ubest + 20.0,
            "forced {fbest} vs unforced {ubest}: forcing the encoder should matter"
        );
        assert!(
            ubest < 200.0,
            "unforced 64-bit should stay under 200 MHz, got {ubest}"
        );
    }
}

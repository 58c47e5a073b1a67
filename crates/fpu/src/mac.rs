//! Fused multiply-add core.
//!
//! The paper's matmul PE chains a multiplier into an adder: two
//! normalize/round stages, two roundings. A fused MAC keeps the product
//! exact, aligns the addend against it in one wide datapath and rounds
//! once. On this fabric model, compared at a matched clock, fusion is
//! **shorter in latency** (one normalize/round instead of two) and
//! **tighter numerically** (single rounding), while its area is roughly
//! a wash: the alignment/normalize datapath doubles in width to cover
//! the exact product, but the intermediate rounder and packing
//! disappear — slightly cheaper at 64-bit, slightly costlier at 32-bit.
//! [`MacComparison`] quantifies it; the simulator is backed by the
//! bit-exact `fpfpga-softfp::ops::fma`.

use fpfpga_fabric::netlist::Netlist;
use fpfpga_fabric::primitives::{log2_ceil, Primitive};
use fpfpga_fabric::report::ImplementationReport;
use fpfpga_fabric::synthesis::SynthesisOptions;
use fpfpga_fabric::tech::Tech;
use fpfpga_fabric::timing;
use fpfpga_fabric::PipelineStrategy;
use fpfpga_softfp::{Flags, FpFormat, RoundMode};
use std::collections::VecDeque;

/// A fused multiply-add core design.
#[derive(Clone, Copy, Debug)]
pub struct FusedMacDesign {
    /// Operand format.
    pub format: FpFormat,
    /// Rounding mode of the built simulators.
    pub round: RoundMode,
}

impl FusedMacDesign {
    /// A design with the paper-consistent defaults.
    pub fn new(format: FpFormat) -> FusedMacDesign {
        FusedMacDesign {
            format,
            round: RoundMode::NearestEven,
        }
    }

    /// The structural netlist: denormalize, mantissa multiplier, wide
    /// addend alignment, wide adder, leading-zero detect + normalize,
    /// one rounding.
    pub fn netlist(&self, tech: &Tech) -> Netlist {
        let fmt = self.format;
        let wide = 2 * fmt.sig_bits() + 4; // exact product + guard bits
        let mut n = Netlist::new(
            &format!("fp{} fused MAC", fmt.total_bits()),
            fmt.total_bits(),
            fmt.exp_bits() + 6,
        );
        let cmp = Primitive::Comparator {
            bits: fmt.exp_bits(),
        };
        n.push("denorm cmp A", &cmp, tech);
        n.push_parallel("denorm cmp B", &cmp, tech);
        n.push_parallel("denorm cmp C", &cmp, tech);
        n.push_parallel("exception logic", &Primitive::SignLogic, tech);
        n.push(
            "mantissa multiplier",
            &Primitive::Mult18Tree {
                bits: fmt.sig_bits(),
            },
            tech,
        );
        n.push_parallel(
            "exponent adder",
            &Primitive::FixedAdder {
                bits: fmt.exp_bits(),
                carry_ns_per_bit: tech.t_carry_per_bit_ns,
            },
            tech,
        );
        // The addend aligns against the wide product (runs concurrently
        // with the tail of the multiplier tree in real designs; kept on
        // the critical path here as the conservative choice).
        n.push(
            "wide align shifter",
            &Primitive::BarrelShifter {
                bits: wide,
                levels: log2_ceil(wide),
            },
            tech,
        );
        n.push(
            "wide adder",
            &Primitive::FixedAdder {
                bits: wide,
                carry_ns_per_bit: 0.05,
            },
            tech,
        );
        n.push(
            "leading-zero detect",
            &Primitive::PriorityEncoder {
                bits: wide,
                forced: true,
            },
            tech,
        );
        n.push(
            "normalize shifter",
            &Primitive::BarrelShifter {
                bits: wide,
                levels: log2_ceil(wide),
            },
            tech,
        );
        n.push(
            "round adder",
            &Primitive::ConstAdder {
                bits: fmt.sig_bits(),
            },
            tech,
        );
        n.push_parallel(
            "exponent round adder",
            &Primitive::ConstAdder {
                bits: fmt.exp_bits(),
            },
            tech,
        );
        n.push(
            "output mux",
            &Primitive::Mux2 {
                bits: fmt.total_bits(),
            },
            tech,
        );
        n
    }

    /// Sweep pipeline depth.
    pub fn sweep(&self, tech: &Tech, opts: SynthesisOptions) -> Vec<ImplementationReport> {
        timing::sweep_stages(
            &self.netlist(tech),
            PipelineStrategy::IterativeRefinement,
            opts,
            tech,
        )
    }

    /// A latency-faithful simulator (one fused op per cycle).
    pub fn unit(&self, stages: u32) -> FusedMacUnit {
        FusedMacUnit {
            fmt: self.format,
            mode: self.round,
            line: (0..stages.max(1)).map(|_| None).collect(),
            stages: stages.max(1),
        }
    }
}

/// A pipelined fused-MAC unit: inject `(a, b, c)` per cycle, receive
/// `round(a·b + c)` `stages` cycles later.
pub struct FusedMacUnit {
    fmt: FpFormat,
    mode: RoundMode,
    line: VecDeque<Option<(u64, Flags)>>,
    stages: u32,
}

impl FusedMacUnit {
    /// Pipeline latency in cycles.
    pub fn latency(&self) -> u32 {
        self.stages
    }

    /// Advance one clock, optionally injecting `(a, b, c)`.
    pub fn clock(&mut self, input: Option<(u64, u64, u64)>) -> Option<(u64, Flags)> {
        let computed = input.map(|(a, b, c)| fpfpga_softfp::fma_bits(self.fmt, a, b, c, self.mode));
        self.line.push_back(computed);
        self.line.pop_front().expect("line non-empty")
    }

    /// The value retiring on the next clock (write-first forwarding).
    pub fn peek(&self) -> Option<(u64, Flags)> {
        *self.line.front().expect("line non-empty")
    }
}

/// The fused-vs-separate comparison at a *matched clock*: the separate
/// pair is taken at its freq/area optimum, and the fused core at the
/// shallowest depth sustaining at least that clock — the fair basis for
/// the latency question.
#[derive(Clone, Debug)]
pub struct MacComparison {
    /// Operand format.
    pub format: FpFormat,
    /// The fused core at the matched clock.
    pub fused: ImplementationReport,
    /// Combined slices of the separate multiplier + adder optima.
    pub separate_slices: u32,
    /// Combined latency (stages) of the separate pair.
    pub separate_stages: u32,
    /// The slower of the two separate units' clocks (MHz) — the matched
    /// clock.
    pub separate_clock_mhz: f64,
}

impl MacComparison {
    /// Build the comparison for one format.
    pub fn build(format: FpFormat, tech: &Tech, opts: SynthesisOptions) -> MacComparison {
        let fused_sweep = FusedMacDesign::new(format).sweep(tech, opts);
        let mul = crate::analysis::CoreSweep::multiplier(format, tech, opts);
        let add = crate::analysis::CoreSweep::adder(format, tech, opts);
        let clock = mul.opt().clock_mhz.min(add.opt().clock_mhz);
        let fused = fused_sweep
            .iter()
            .find(|r| r.clock_mhz >= clock)
            .unwrap_or_else(|| timing::max_frequency(&fused_sweep))
            .clone();
        MacComparison {
            format,
            fused,
            separate_slices: mul.opt().slices + add.opt().slices,
            separate_stages: mul.opt().stages + add.opt().stages,
            separate_clock_mhz: clock,
        }
    }

    /// Relative slice cost of fusion (positive = fused larger; the wide
    /// datapath outweighs the deleted intermediate rounder on LUT
    /// fabrics).
    pub fn slice_overhead(&self) -> f64 {
        self.fused.slices as f64 / self.separate_slices as f64 - 1.0
    }

    /// Latency saving in stages (positive = fused shorter).
    pub fn stage_saving(&self) -> i64 {
        self.separate_stages as i64 - self.fused.stages as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_computes_fused_results() {
        let d = FusedMacDesign::new(FpFormat::SINGLE);
        let mut u = d.unit(6);
        let (a, b, c) = (1.5f32, 2.0f32, 0.25f32);
        let mut out = u.clock(Some((
            a.to_bits() as u64,
            b.to_bits() as u64,
            c.to_bits() as u64,
        )));
        let mut waited = 0;
        while out.is_none() {
            out = u.clock(None);
            waited += 1;
        }
        assert_eq!(waited, 6, "result emerges `stages` clocks after injection");
        assert_eq!(f32::from_bits(out.unwrap().0 as u32), 3.25);
    }

    #[test]
    fn fused_differs_from_two_step_numerically() {
        let fmt = FpFormat::SINGLE;
        let a = 1.0f32 + f32::EPSILON;
        let b = 1.0f32 - f32::EPSILON / 2.0;
        let c = -1.0f32;
        let mut u = FusedMacDesign::new(fmt).unit(1);
        u.clock(Some((
            a.to_bits() as u64,
            b.to_bits() as u64,
            c.to_bits() as u64,
        )));
        let (fused, _) = u.clock(None).unwrap();
        let (p, _) = fpfpga_softfp::mul_bits(
            fmt,
            a.to_bits() as u64,
            b.to_bits() as u64,
            RoundMode::NearestEven,
        );
        let (two, _) = fpfpga_softfp::add_bits(fmt, p, c.to_bits() as u64, RoundMode::NearestEven);
        assert_ne!(fused, two);
        assert_eq!(fused as u32, a.mul_add(b, c).to_bits());
    }

    #[test]
    fn fusion_trades_area_for_latency() {
        let tech = Tech::virtex2pro();
        for fmt in [FpFormat::SINGLE, FpFormat::DOUBLE] {
            let cmp = MacComparison::build(fmt, &tech, SynthesisOptions::SPEED);
            assert!(
                cmp.stage_saving() >= 0,
                "{fmt}: fused {} stages vs separate {}",
                cmp.fused.stages,
                cmp.separate_stages
            );
            // Area is a wash: within -20%..+60% of the separate pair.
            assert!(
                (-0.2..0.6).contains(&cmp.slice_overhead()),
                "{fmt}: fused {} vs separate {} slices",
                cmp.fused.slices,
                cmp.separate_slices
            );
        }
    }

    #[test]
    fn fused_netlist_has_one_rounder() {
        let tech = Tech::virtex2pro();
        let n = FusedMacDesign::new(FpFormat::DOUBLE).netlist(&tech);
        let rounders = n
            .components
            .iter()
            .filter(|c| c.name.contains("round") && !c.name.contains("exponent"))
            .count();
        assert_eq!(rounders, 1);
    }

    #[test]
    fn sweep_reaches_200mhz() {
        let tech = Tech::virtex2pro();
        let sweep = FusedMacDesign::new(FpFormat::SINGLE).sweep(&tech, SynthesisOptions::SPEED);
        let best = sweep.iter().map(|r| r.clock_mhz).fold(0.0, f64::max);
        assert!(best > 200.0, "fused MAC peak = {best}");
    }
}

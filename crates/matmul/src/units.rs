//! Floating-point unit selection for the matmul PEs.
//!
//! Section 5 studies three unit sets — minimum, moderate and maximum
//! pipelining, with combined multiplier + adder latencies PL = 10, 19
//! and 25 (the `pl=10/19/25` curves of Figures 5 and 6). A [`UnitSet`]
//! couples the two implementation reports (area, clock) with the chosen
//! stage counts; the architecture's clock is the slower of the two
//! units (and of whatever the surrounding logic sustains — the paper's
//! single-precision array runs at 250 MHz).

use fpfpga_fabric::report::ImplementationReport;
use fpfpga_fabric::synthesis::SynthesisOptions;
use fpfpga_fabric::tech::Tech;
use fpfpga_fpu::{AdderDesign, MultiplierDesign};
use fpfpga_softfp::FpFormat;

/// The paper's three pipelining levels for the Section 5 study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PipeliningLevel {
    /// Minimum pipelining: PL = 10 (adder 5 + multiplier 5).
    Minimum,
    /// Moderate pipelining: PL = 19 (adder 10 + multiplier 9).
    Moderate,
    /// Maximum pipelining: PL = 25 (adder 14 + multiplier 11).
    Maximum,
}

impl PipeliningLevel {
    /// All three, in plotting order.
    pub const ALL: [PipeliningLevel; 3] = [
        PipeliningLevel::Minimum,
        PipeliningLevel::Moderate,
        PipeliningLevel::Maximum,
    ];

    /// (adder stages, multiplier stages).
    pub fn stage_split(&self) -> (u32, u32) {
        match self {
            PipeliningLevel::Minimum => (5, 5),
            PipeliningLevel::Moderate => (10, 9),
            PipeliningLevel::Maximum => (14, 11),
        }
    }

    /// Combined latency PL (the paper's figure labels).
    pub fn pl(&self) -> u32 {
        let (a, m) = self.stage_split();
        a + m
    }

    /// Label used in the figures.
    pub fn label(&self) -> String {
        format!("pl={}", self.pl())
    }
}

/// One adder + one multiplier implementation, as instantiated per PE.
#[derive(Clone, Debug)]
pub struct UnitSet {
    /// Operand format.
    pub format: FpFormat,
    /// The adder implementation.
    pub adder: ImplementationReport,
    /// The multiplier implementation.
    pub multiplier: ImplementationReport,
}

impl UnitSet {
    /// Build a unit set with explicit stage counts, evaluating both
    /// netlists through the fabric model.
    pub fn with_stages(
        format: FpFormat,
        adder_stages: u32,
        mult_stages: u32,
        tech: &Tech,
        opts: SynthesisOptions,
    ) -> UnitSet {
        let adder_sweep = AdderDesign::new(format).sweep(tech, opts);
        let mult_sweep = MultiplierDesign::new(format).sweep(tech, opts);
        let pick = |sweep: &[ImplementationReport], k: u32| {
            sweep
                .iter()
                .find(|r| r.stages == k.min(sweep.len() as u32))
                .expect("stage count within sweep")
                .clone()
        };
        UnitSet {
            format,
            adder: pick(&adder_sweep, adder_stages),
            multiplier: pick(&mult_sweep, mult_stages),
        }
    }

    /// Build one of the paper's three Section-5 unit sets.
    pub fn for_level(
        format: FpFormat,
        level: PipeliningLevel,
        tech: &Tech,
        opts: SynthesisOptions,
    ) -> UnitSet {
        let (a, m) = level.stage_split();
        UnitSet::with_stages(format, a, m, tech, opts)
    }

    /// Combined MAC latency (PL): multiplier stages + adder stages.
    pub fn pl(&self) -> u32 {
        self.adder.stages + self.multiplier.stages
    }

    /// The clock both units sustain together (MHz).
    pub fn clock_mhz(&self) -> f64 {
        self.adder.clock_mhz.min(self.multiplier.clock_mhz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Tech {
        Tech::virtex2pro()
    }

    #[test]
    fn levels_have_paper_pl_values() {
        assert_eq!(PipeliningLevel::Minimum.pl(), 10);
        assert_eq!(PipeliningLevel::Moderate.pl(), 19);
        assert_eq!(PipeliningLevel::Maximum.pl(), 25);
        assert_eq!(PipeliningLevel::Maximum.label(), "pl=25");
    }

    #[test]
    fn unit_set_latency_matches_level() {
        for level in PipeliningLevel::ALL {
            let set = UnitSet::for_level(FpFormat::SINGLE, level, &tech(), SynthesisOptions::SPEED);
            assert_eq!(set.pl(), level.pl());
        }
    }

    #[test]
    fn deeper_sets_are_faster_and_bigger() {
        let t = tech();
        let min = UnitSet::for_level(
            FpFormat::SINGLE,
            PipeliningLevel::Minimum,
            &t,
            SynthesisOptions::SPEED,
        );
        let max = UnitSet::for_level(
            FpFormat::SINGLE,
            PipeliningLevel::Maximum,
            &t,
            SynthesisOptions::SPEED,
        );
        assert!(max.clock_mhz() > min.clock_mhz());
        assert!(
            max.adder.ffs + max.multiplier.ffs > min.adder.ffs + min.multiplier.ffs,
            "deeper pipelining must cost registers"
        );
    }

    #[test]
    fn single_precision_moderate_set_sustains_high_clock() {
        // The architecture the paper quotes runs single precision at
        // high rates; the maximum-pipelined set must sustain > 200 MHz.
        let set = UnitSet::for_level(
            FpFormat::SINGLE,
            PipeliningLevel::Maximum,
            &tech(),
            SynthesisOptions::SPEED,
        );
        assert!(set.clock_mhz() > 200.0, "clock = {}", set.clock_mhz());
    }
}

//! Design-space analysis: the data behind the paper's Figure 2 and
//! Tables 1-2.
//!
//! For each precision the pipeline depth is swept from 1 to the
//! datapath's maximum; three named points are extracted per sweep:
//!
//! * **min** — the least-pipelined implementation (a single output
//!   register level);
//! * **max** — the deepest implementation evaluated;
//! * **opt** — "the implementation \[that\] reaches highest freq/area
//!   ratio", the paper's recommended operating point.

use crate::generator::{sweep_for, UnitOp};
use fpfpga_fabric::report::ImplementationReport;
use fpfpga_fabric::synthesis::SynthesisOptions;
use fpfpga_fabric::tech::Tech;
use fpfpga_fabric::timing;
use fpfpga_softfp::FpFormat;

/// Which core a sweep describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// The adder/subtractor.
    Adder,
    /// The multiplier.
    Multiplier,
    /// The digit-recurrence divider.
    Divider,
    /// The digit-recurrence square root.
    Sqrt,
}

impl CoreKind {
    /// The generator operation this core kind sweeps.
    pub fn unit_op(self) -> UnitOp {
        match self {
            CoreKind::Adder => UnitOp::Add,
            CoreKind::Multiplier => UnitOp::Mul,
            CoreKind::Divider => UnitOp::Div,
            CoreKind::Sqrt => UnitOp::Sqrt,
        }
    }
}

/// A full pipeline-depth sweep for one core and format.
#[derive(Clone, Debug)]
pub struct CoreSweep {
    /// Which core.
    pub kind: CoreKind,
    /// Operand format.
    pub format: FpFormat,
    /// One report per depth, ascending from 1 stage.
    pub reports: Vec<ImplementationReport>,
}

impl CoreSweep {
    /// Sweep any core kind's pipeline depth under a technology and
    /// synthesis flow.
    ///
    /// ```
    /// use fpfpga_fpu::analysis::{CoreKind, CoreSweep};
    /// use fpfpga_fpu::prelude::*;
    ///
    /// let (tech, opts) = (Tech::virtex2pro(), SynthesisOptions::SPEED);
    /// let sweep = CoreSweep::new(CoreKind::Divider, FpFormat::SINGLE, &tech, opts);
    /// assert!(sweep.opt().clock_mhz > 100.0);
    /// assert_eq!(sweep.min().stages, 1);
    /// ```
    pub fn new(kind: CoreKind, format: FpFormat, tech: &Tech, opts: SynthesisOptions) -> CoreSweep {
        CoreSweep {
            kind,
            format,
            reports: sweep_for(kind.unit_op(), format, tech, opts),
        }
    }

    /// Sweep an adder (shorthand for [`CoreSweep::new`]).
    pub fn adder(format: FpFormat, tech: &Tech, opts: SynthesisOptions) -> CoreSweep {
        CoreSweep::new(CoreKind::Adder, format, tech, opts)
    }

    /// Sweep a multiplier (shorthand for [`CoreSweep::new`]).
    pub fn multiplier(format: FpFormat, tech: &Tech, opts: SynthesisOptions) -> CoreSweep {
        CoreSweep::new(CoreKind::Multiplier, format, tech, opts)
    }

    /// The least-pipelined implementation.
    pub fn min(&self) -> &ImplementationReport {
        self.reports.first().expect("non-empty sweep")
    }

    /// The deepest implementation.
    pub fn max(&self) -> &ImplementationReport {
        self.reports.last().expect("non-empty sweep")
    }

    /// The highest-freq/area implementation (the paper's "opt").
    pub fn opt(&self) -> &ImplementationReport {
        timing::optimal(&self.reports)
    }

    /// The fastest implementation regardless of area.
    pub fn fastest(&self) -> &ImplementationReport {
        timing::max_frequency(&self.reports)
    }

    /// The shallowest implementation reaching at least `mhz` — used when
    /// the kernel's operating frequency, not the unit's peak, is the
    /// binding constraint (Section 4.2: "if the overall architecture's
    /// operating frequency is less than the optimal frequency for the
    /// floating-point unit then floating-point units with the best
    /// frequency/area metric considering a lower frequency have to be
    /// chosen").
    pub fn cheapest_at(&self, mhz: f64) -> Option<&ImplementationReport> {
        self.reports
            .iter()
            .filter(|r| r.clock_mhz >= mhz)
            .min_by(|a, b| a.slices.cmp(&b.slices).then(a.stages.cmp(&b.stages)))
    }

    /// (stages, MHz/slice) series — one Figure 2 curve.
    pub fn freq_area_curve(&self) -> Vec<(u32, f64)> {
        self.reports
            .iter()
            .map(|r| (r.stages, r.freq_per_area()))
            .collect()
    }
}

/// The six sweeps (2 cores × 3 precisions) the paper's evaluation rests
/// on, computed once.
#[derive(Clone, Debug)]
pub struct PrecisionAnalysis {
    /// Adder sweeps for 32-, 48- and 64-bit.
    pub adders: Vec<CoreSweep>,
    /// Multiplier sweeps for 32-, 48- and 64-bit.
    pub multipliers: Vec<CoreSweep>,
}

impl PrecisionAnalysis {
    /// Run the full analysis with the paper's default flow.
    pub fn run(tech: &Tech, opts: SynthesisOptions) -> PrecisionAnalysis {
        PrecisionAnalysis {
            adders: FpFormat::PAPER_PRECISIONS
                .iter()
                .map(|&f| CoreSweep::adder(f, tech, opts))
                .collect(),
            multipliers: FpFormat::PAPER_PRECISIONS
                .iter()
                .map(|&f| CoreSweep::multiplier(f, tech, opts))
                .collect(),
        }
    }

    /// The sweep for a given core kind and format.
    pub fn sweep(&self, kind: CoreKind, format: FpFormat) -> &CoreSweep {
        let list = match kind {
            CoreKind::Adder => &self.adders,
            CoreKind::Multiplier => &self.multipliers,
            other => panic!(
                "PrecisionAnalysis covers the paper's adder/multiplier study; \
                 sweep {other:?} directly via CoreSweep::new"
            ),
        };
        list.iter()
            .find(|s| s.format == format)
            .expect("format is one of the paper precisions")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analysis() -> PrecisionAnalysis {
        PrecisionAnalysis::run(&Tech::virtex2pro(), SynthesisOptions::SPEED)
    }

    #[test]
    fn opt_is_interior_point() {
        // "the curves flatten out towards the end and may dip for deep
        // pipelining" — the optimum is neither min nor max.
        for sweep in analysis().adders.iter().chain(&analysis().multipliers) {
            let opt = sweep.opt();
            assert!(
                opt.stages > sweep.min().stages,
                "{:?} {:?}",
                sweep.kind,
                sweep.format
            );
            assert!(
                opt.stages < sweep.max().stages,
                "{:?} {:?}",
                sweep.kind,
                sweep.format
            );
        }
    }

    #[test]
    fn wider_formats_are_bigger_and_slower() {
        let a = analysis();
        for sweeps in [&a.adders, &a.multipliers] {
            for w in sweeps.windows(2) {
                assert!(
                    w[1].opt().slices > w[0].opt().slices,
                    "{:?}: {} vs {}",
                    w[1].kind,
                    w[1].opt().slices,
                    w[0].opt().slices
                );
                assert!(w[1].fastest().clock_mhz <= w[0].fastest().clock_mhz + 1e-9);
            }
        }
    }

    #[test]
    fn paper_headline_rates() {
        // "We achieve throughput rates of more than 240 MHz (200 MHz) for
        // single (double) precision operations by deeply pipelining."
        let a = analysis();
        assert!(
            a.sweep(CoreKind::Adder, FpFormat::SINGLE)
                .fastest()
                .clock_mhz
                > 240.0
        );
        assert!(
            a.sweep(CoreKind::Multiplier, FpFormat::SINGLE)
                .fastest()
                .clock_mhz
                > 240.0
        );
        assert!(
            a.sweep(CoreKind::Adder, FpFormat::DOUBLE)
                .fastest()
                .clock_mhz
                > 200.0
        );
        assert!(
            a.sweep(CoreKind::Multiplier, FpFormat::DOUBLE)
                .fastest()
                .clock_mhz
                > 200.0
        );
    }

    #[test]
    fn cheapest_at_prefers_fewer_slices() {
        let a = analysis();
        let sweep = a.sweep(CoreKind::Adder, FpFormat::SINGLE);
        let cheap = sweep.cheapest_at(150.0).expect("150 MHz is reachable");
        assert!(cheap.clock_mhz >= 150.0);
        assert!(cheap.slices <= sweep.fastest().slices);
        assert!(sweep.cheapest_at(10_000.0).is_none());
    }

    #[test]
    fn unified_constructor_matches_wrappers_and_covers_new_kinds() {
        let tech = Tech::virtex2pro();
        let opts = SynthesisOptions::SPEED;
        let via_new = CoreSweep::new(CoreKind::Adder, FpFormat::SINGLE, &tech, opts);
        let via_wrapper = CoreSweep::adder(FpFormat::SINGLE, &tech, opts);
        assert_eq!(via_new.reports, via_wrapper.reports);
        let via_new = CoreSweep::new(CoreKind::Multiplier, FpFormat::DOUBLE, &tech, opts);
        let via_wrapper = CoreSweep::multiplier(FpFormat::DOUBLE, &tech, opts);
        assert_eq!(via_new.reports, via_wrapper.reports);
        for kind in [CoreKind::Divider, CoreKind::Sqrt] {
            let sweep = CoreSweep::new(kind, FpFormat::SINGLE, &tech, opts);
            assert_eq!(sweep.kind, kind);
            assert!(!sweep.reports.is_empty());
            assert!(sweep.opt().clock_mhz > 0.0);
        }
    }

    #[test]
    fn curves_have_one_point_per_depth() {
        let a = analysis();
        for s in a.adders.iter().chain(&a.multipliers) {
            let curve = s.freq_area_curve();
            assert_eq!(curve.len(), s.reports.len());
            assert_eq!(curve[0].0, 1);
            for w in curve.windows(2) {
                assert_eq!(w[1].0, w[0].0 + 1);
            }
        }
    }
}

//! Floating-point unit generation — the workflow of the paper's
//! reference \[6\] (Liang, Tessier, Mencer, *"Floating Point Unit
//! Generation and Evaluation for FPGAs"*, FCCM 2003): give the tool an
//! operation, a precision and constraints; get back a concrete
//! implementation point with its resource/timing report and the
//! rationale for the choice.
//!
//! "Hence the focus is shifting from designing the floating-point units
//! to optimally utilizing the available subunits" — this module is that
//! shift made executable.

use crate::adder::AdderDesign;
use crate::divider::{DividerDesign, SqrtDesign};
use crate::mac::FusedMacDesign;
use crate::multiplier::MultiplierDesign;
use fpfpga_fabric::report::ImplementationReport;
use fpfpga_fabric::synthesis::SynthesisOptions;
use fpfpga_fabric::tech::Tech;
use fpfpga_softfp::FpFormat;

/// Which unit to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnitOp {
    /// Adder/subtractor.
    Add,
    /// Multiplier.
    Mul,
    /// Divider.
    Div,
    /// Square root.
    Sqrt,
    /// Fused multiply-add.
    Mac,
}

impl UnitOp {
    /// Parse from the CLI spelling.
    pub fn parse(s: &str) -> Option<UnitOp> {
        Some(match s {
            "add" | "adder" | "sub" => UnitOp::Add,
            "mul" | "multiplier" => UnitOp::Mul,
            "div" | "divider" => UnitOp::Div,
            "sqrt" => UnitOp::Sqrt,
            "mac" | "fma" => UnitOp::Mac,
            _ => return None,
        })
    }
}

/// The selection metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Highest clock rate.
    MaxFrequency,
    /// Highest MHz/slice (the paper's recommendation).
    FreqPerArea,
    /// Fewest slices (subject to the target clock, if any).
    MinArea,
}

/// A generation request.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// Operand format.
    pub format: FpFormat,
    /// Operation.
    pub op: UnitOp,
    /// Required clock (MHz); configurations below it are discarded.
    pub target_mhz: Option<f64>,
    /// Slice budget; configurations above it are discarded.
    pub max_slices: Option<u32>,
    /// Selection metric among the survivors.
    pub metric: Metric,
}

/// The generated unit.
#[derive(Clone, Debug)]
pub struct Generated {
    /// The chosen implementation point.
    pub report: ImplementationReport,
    /// Why this point was chosen.
    pub rationale: String,
    /// Non-fatal observations (e.g. the target was barely reachable).
    pub warnings: Vec<String>,
}

/// Unit-generation failures.
#[derive(Clone, Debug, PartialEq)]
pub enum GenError {
    /// No pipeline depth satisfies the constraints; the payload reports
    /// the best achievable clock and the smallest achievable area.
    Infeasible {
        /// Fastest clock any depth reaches (MHz).
        best_mhz: f64,
        /// Smallest slice count any depth needs.
        min_slices: u32,
    },
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::Infeasible {
                best_mhz,
                min_slices,
            } => write!(
                f,
                "no configuration satisfies the constraints (best clock {best_mhz:.1} MHz, \
                 smallest area {min_slices} slices)"
            ),
        }
    }
}

impl std::error::Error for GenError {}

/// Sweep the requested unit across pipeline depths.
pub fn sweep_for(
    op: UnitOp,
    format: FpFormat,
    tech: &Tech,
    opts: SynthesisOptions,
) -> Vec<ImplementationReport> {
    match op {
        UnitOp::Add => AdderDesign::new(format).sweep(tech, opts),
        UnitOp::Mul => MultiplierDesign::new(format).sweep(tech, opts),
        UnitOp::Div => DividerDesign::new(format).sweep(tech, opts),
        UnitOp::Sqrt => SqrtDesign::new(format).sweep(tech, opts),
        UnitOp::Mac => FusedMacDesign::new(format).sweep(tech, opts),
    }
}

/// Generate the unit for a request: sweep, filter and select the
/// implementation point.
///
/// ```
/// use fpfpga_fpu::generator::{generate, Metric, Request, UnitOp};
/// use fpfpga_fabric::{synthesis::SynthesisOptions, tech::Tech};
/// use fpfpga_softfp::FpFormat;
///
/// let req = Request {
///     format: FpFormat::SINGLE,
///     op: UnitOp::Add,
///     target_mhz: None,
///     max_slices: None,
///     metric: Metric::FreqPerArea,
/// };
/// let g = generate(&req, &Tech::virtex2pro(), SynthesisOptions::SPEED).unwrap();
/// assert!(g.report.slices > 0);
/// ```
pub fn generate(req: &Request, tech: &Tech, opts: SynthesisOptions) -> Result<Generated, GenError> {
    select(req, &sweep_for(req.op, req.format, tech, opts))
}

/// Pick an implementation point from an already-computed sweep.
fn select(req: &Request, sweep: &[ImplementationReport]) -> Result<Generated, GenError> {
    let best_mhz = sweep.iter().map(|r| r.clock_mhz).fold(0.0, f64::max);
    let min_slices = sweep.iter().map(|r| r.slices).min().unwrap_or(0);

    let admitted: Vec<&ImplementationReport> = sweep
        .iter()
        .filter(|r| req.target_mhz.is_none_or(|t| r.clock_mhz >= t))
        .filter(|r| req.max_slices.is_none_or(|m| r.slices <= m))
        .collect();
    if admitted.is_empty() {
        return Err(GenError::Infeasible {
            best_mhz,
            min_slices,
        });
    }

    let chosen: &ImplementationReport = match req.metric {
        Metric::MaxFrequency => admitted
            .iter()
            .max_by(|a, b| a.clock_mhz.partial_cmp(&b.clock_mhz).unwrap())
            .unwrap(),
        Metric::FreqPerArea => admitted
            .iter()
            .max_by(|a, b| a.freq_per_area().partial_cmp(&b.freq_per_area()).unwrap())
            .unwrap(),
        Metric::MinArea => admitted
            .iter()
            .min_by(|a, b| a.slices.cmp(&b.slices).then(a.stages.cmp(&b.stages)))
            .unwrap(),
    };

    let mut warnings = Vec::new();
    if let Some(t) = req.target_mhz {
        if chosen.clock_mhz < t * 1.05 {
            warnings.push(format!(
                "only {:.1}% clock margin over the {t:.0} MHz target — expect timing closure \
                 pressure on a real flow",
                (chosen.clock_mhz / t - 1.0) * 100.0
            ));
        }
    }
    if matches!(req.op, UnitOp::Div | UnitOp::Sqrt) && chosen.stages > 20 {
        warnings.push(format!(
            "digit-recurrence latency: {} cycles — schedule around it or consider a lower clock",
            chosen.stages
        ));
    }

    let rationale = format!(
        "swept {} depths; {} satisfy the constraints; picked {} stages by {:?} \
         ({:.1} MHz, {} slices, {:.4} MHz/slice)",
        sweep.len(),
        admitted.len(),
        chosen.stages,
        req.metric,
        chosen.clock_mhz,
        chosen.slices,
        chosen.freq_per_area()
    );
    Ok(Generated {
        report: chosen.clone(),
        rationale,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> (Tech, SynthesisOptions) {
        (Tech::virtex2pro(), SynthesisOptions::SPEED)
    }

    #[test]
    fn generates_paper_recommended_point() {
        let (tech, opts) = flow();
        let req = Request {
            format: FpFormat::SINGLE,
            op: UnitOp::Add,
            target_mhz: None,
            max_slices: None,
            metric: Metric::FreqPerArea,
        };
        let g = generate(&req, &tech, opts).unwrap();
        // Matches the analysis module's "opt" selection.
        let sweep = crate::analysis::CoreSweep::adder(FpFormat::SINGLE, &tech, opts);
        assert_eq!(&g.report, sweep.opt());
        assert!(g.rationale.contains("stages"));
    }

    #[test]
    fn target_clock_is_respected() {
        let (tech, opts) = flow();
        let req = Request {
            format: FpFormat::DOUBLE,
            op: UnitOp::Mul,
            target_mhz: Some(200.0),
            max_slices: None,
            metric: Metric::MinArea,
        };
        let g = generate(&req, &tech, opts).unwrap();
        assert!(g.report.clock_mhz >= 200.0);
        // MinArea: nothing admitted is smaller.
        let sweep = sweep_for(UnitOp::Mul, FpFormat::DOUBLE, &tech, opts);
        for r in sweep.iter().filter(|r| r.clock_mhz >= 200.0) {
            assert!(g.report.slices <= r.slices);
        }
    }

    #[test]
    fn infeasible_requests_error_with_diagnostics() {
        let (tech, opts) = flow();
        let req = Request {
            format: FpFormat::DOUBLE,
            op: UnitOp::Add,
            target_mhz: Some(1_000.0),
            max_slices: None,
            metric: Metric::MaxFrequency,
        };
        match generate(&req, &tech, opts) {
            Err(GenError::Infeasible { best_mhz, .. }) => {
                assert!(best_mhz < 1_000.0 && best_mhz > 100.0);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_constraints_are_infeasible() {
        let (tech, opts) = flow();
        let req = Request {
            format: FpFormat::DOUBLE,
            op: UnitOp::Add,
            target_mhz: Some(240.0),
            max_slices: Some(300), // a fast double adder cannot be this small
            metric: Metric::MinArea,
        };
        assert!(generate(&req, &tech, opts).is_err());
    }

    #[test]
    fn divider_warns_about_latency() {
        let (tech, opts) = flow();
        let req = Request {
            format: FpFormat::SINGLE,
            op: UnitOp::Div,
            target_mhz: Some(200.0),
            max_slices: None,
            metric: Metric::MinArea,
        };
        let g = generate(&req, &tech, opts).unwrap();
        assert!(
            g.warnings.iter().any(|w| w.contains("digit-recurrence")),
            "{:?}",
            g.warnings
        );
    }

    #[test]
    fn op_parsing() {
        assert_eq!(UnitOp::parse("add"), Some(UnitOp::Add));
        assert_eq!(UnitOp::parse("fma"), Some(UnitOp::Mac));
        assert_eq!(UnitOp::parse("nope"), None);
    }

    #[test]
    fn all_ops_generate_for_all_precisions() {
        let (tech, opts) = flow();
        for op in [
            UnitOp::Add,
            UnitOp::Mul,
            UnitOp::Div,
            UnitOp::Sqrt,
            UnitOp::Mac,
        ] {
            for fmt in FpFormat::PAPER_PRECISIONS {
                let req = Request {
                    format: fmt,
                    op,
                    target_mhz: None,
                    max_slices: None,
                    metric: Metric::FreqPerArea,
                };
                let g = generate(&req, &tech, opts).unwrap();
                assert!(g.report.slices > 0, "{op:?} {fmt}");
            }
        }
    }
}

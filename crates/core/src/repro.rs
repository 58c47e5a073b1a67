//! Reproduction of every table and figure in the paper's evaluation.
//!
//! Each function computes one artifact as plain data; the `repro` binary
//! in `fpfpga-bench` renders them as text, and the integration tests
//! assert the paper's qualitative claims against them. The experiment ↔
//! module map lives in `DESIGN.md`; paper-vs-measured numbers are
//! recorded in `EXPERIMENTS.md`.

use crate::prelude::*;
use fpfpga_fabric::report::ImplementationReport;

/// The tool flow used throughout the evaluation (the paper's throughput
/// numbers use speed objectives).
pub fn paper_flow() -> (Tech, SynthesisOptions) {
    (Tech::virtex2pro(), SynthesisOptions::SPEED)
}

// ---------------------------------------------------------------- Fig. 2

/// One Figure 2 curve: frequency/area vs pipeline stages.
#[derive(Clone, Debug)]
pub struct Fig2Curve {
    /// Precision label ("32-bit", …).
    pub precision: String,
    /// (stages, MHz/slice) points.
    pub points: Vec<(u32, f64)>,
}

/// Figure 2: freq/area vs stages for adders (a) and multipliers (b).
#[derive(Clone, Debug)]
pub struct Fig2 {
    /// Part (a): adders at 32/48/64-bit.
    pub adders: Vec<Fig2Curve>,
    /// Part (b): multipliers at 32/48/64-bit.
    pub multipliers: Vec<Fig2Curve>,
}

/// Compute Figure 2.
pub fn fig2() -> Fig2 {
    let (tech, opts) = paper_flow();
    let analysis = PrecisionAnalysis::run(&tech, opts);
    let curve = |s: &CoreSweep| Fig2Curve {
        precision: s.format.to_string(),
        points: s.freq_area_curve(),
    };
    Fig2 {
        adders: analysis.adders.iter().map(curve).collect(),
        multipliers: analysis.multipliers.iter().map(curve).collect(),
    }
}

// ------------------------------------------------------------ Tables 1-2

/// One min/max/opt column triple of Table 1 or 2.
#[derive(Clone, Debug)]
pub struct UnitTableBlock {
    /// Precision label.
    pub precision: String,
    /// Least-pipelined implementation.
    pub min: ImplementationReport,
    /// Deepest implementation.
    pub max: ImplementationReport,
    /// Highest freq/area implementation (the paper's "opt").
    pub opt: ImplementationReport,
}

/// Table 1 (adders) or Table 2 (multipliers): one block per precision.
pub type UnitTable = Vec<UnitTableBlock>;

fn unit_table(kind: CoreKind) -> UnitTable {
    let (tech, opts) = paper_flow();
    let analysis = PrecisionAnalysis::run(&tech, opts);
    FpFormat::PAPER_PRECISIONS
        .iter()
        .map(|&f| {
            let sweep = analysis.sweep(kind, f);
            UnitTableBlock {
                precision: f.to_string(),
                min: sweep.min().clone(),
                max: sweep.max().clone(),
                opt: sweep.opt().clone(),
            }
        })
        .collect()
}

/// Table 1: 32/48/64-bit floating-point adders.
pub fn table1() -> UnitTable {
    unit_table(CoreKind::Adder)
}

/// Table 2: 32/48/64-bit floating-point multipliers.
pub fn table2() -> UnitTable {
    unit_table(CoreKind::Multiplier)
}

// ------------------------------------------------------------ Tables 3-4

/// Table 3: 32-bit cores vs Nallatech and Quixilica.
pub fn table3() -> Table3 {
    let (tech, opts) = paper_flow();
    Table3::build(&tech, opts)
}

/// Table 4: 64-bit cores vs the NEU parameterized library, with power.
pub fn table4() -> Table4 {
    let (tech, opts) = paper_flow();
    Table4::build(&tech, opts)
}

// ---------------------------------------------------------------- Fig. 3

/// One Figure 3 curve: power vs pipeline stages at 100 MHz.
#[derive(Clone, Debug)]
pub struct Fig3Curve {
    /// Precision label.
    pub precision: String,
    /// (stages, mW at 100 MHz) points.
    pub points: Vec<(u32, f64)>,
}

/// Figure 3: power vs stages for adders (a) and multipliers (b).
#[derive(Clone, Debug)]
pub struct Fig3 {
    /// Part (a): adders.
    pub adders: Vec<Fig3Curve>,
    /// Part (b): multipliers.
    pub multipliers: Vec<Fig3Curve>,
}

/// Compute Figure 3. "These power values include only the clocks, signal
/// and logic power" at 100 MHz, as in the paper.
pub fn fig3() -> Fig3 {
    let (tech, opts) = paper_flow();
    let model = PowerModel::virtex2pro();
    let analysis = PrecisionAnalysis::run(&tech, opts);
    let curve = |s: &CoreSweep| Fig3Curve {
        precision: s.format.to_string(),
        points: s
            .reports
            .iter()
            .map(|r| {
                let area = AreaCost {
                    luts: r.luts as f64,
                    ffs: r.ffs as f64,
                    bmults: r.bmults,
                    brams: r.brams,
                    routing_slices: 0.0,
                };
                let p = model.power_mw(&area, 100.0, 0.3);
                // unit-level power: clocks + signals + logic (+ embedded),
                // no I/O or quiescent terms — as the paper counts it
                (r.stages, p.total_mw())
            })
            .collect(),
    };
    Fig3 {
        adders: analysis.adders.iter().map(curve).collect(),
        multipliers: analysis.multipliers.iter().map(curve).collect(),
    }
}

// ------------------------------------------------------------- Section 4.2

/// The device-level GFLOPS result and processor comparison.
#[derive(Clone, Debug)]
pub struct GflopsReport {
    /// Single-precision device fill.
    pub single: DeviceFill,
    /// Double-precision device fill.
    pub double: DeviceFill,
    /// Single-precision processor comparison.
    pub comparison: ProcessorComparison,
}

/// Compute the Section 4.2 result on the XC2VP125.
pub fn gflops() -> GflopsReport {
    let (tech, opts) = paper_flow();
    let fill = |fmt: FpFormat| {
        let units = UnitSet::for_level(fmt, PipeliningLevel::Maximum, &tech, opts);
        DeviceFill::new(Device::XC2VP125, &units, 64, &tech)
    };
    let single = fill(FpFormat::SINGLE);
    let double = fill(FpFormat::DOUBLE);
    let comparison = ProcessorComparison::new(single.gflops(), single.power_w(0.3));
    GflopsReport {
        single,
        double,
        comparison,
    }
}

// ---------------------------------------------------------------- Fig. 4

/// One Figure 4 bar: the PE energy distribution for a (problem size,
/// pipelining level) pair.
#[derive(Clone, Debug)]
pub struct Fig4Bar {
    /// Problem size n.
    pub n: u32,
    /// Pipelining level label ("pl=10" …).
    pub level: String,
    /// Energy (nJ) per component class, in `ComponentClass::ALL` order.
    pub by_class: Vec<(ComponentClass, f64)>,
    /// Total energy (nJ).
    pub total_nj: f64,
}

/// Figure 4: energy distribution for a small (n = 10) and a 3× larger
/// (n = 30) problem, under the three pipelining levels.
pub fn fig4() -> Vec<Fig4Bar> {
    let (tech, opts) = paper_flow();
    let mut bars = Vec::new();
    for &n in &[10u32, 30] {
        for level in PipeliningLevel::ALL {
            let units = UnitSet::for_level(FpFormat::SINGLE, level, &tech, opts);
            let arch = ArchitectureEnergy::new(units, n, n, &tech);
            let rep = arch.charge_flat(n, &tech);
            bars.push(Fig4Bar {
                n,
                level: level.label(),
                by_class: ComponentClass::ALL
                    .iter()
                    .map(|&c| (c, rep.bill.class_nj(c)))
                    .collect(),
                total_nj: rep.total_nj(),
            });
        }
    }
    bars
}

// ------------------------------------------------------------- Figs. 5-6

/// One sweep point of Figure 5 or 6.
#[derive(Clone, Debug)]
pub struct ArchPoint {
    /// The swept parameter (problem size n, or block size b).
    pub x: u32,
    /// Pipelining level label.
    pub level: String,
    /// Total energy (nJ).
    pub energy_nj: f64,
    /// Array slices.
    pub slices: u32,
    /// Embedded multipliers.
    pub bmults: u32,
    /// Block RAMs.
    pub brams: u32,
    /// Latency (µs).
    pub latency_us: f64,
}

/// Figure 5: energy / resources / latency vs problem size n, for
/// PL ∈ {10, 19, 25} (n-PE flat designs).
pub fn fig5(problem_sizes: &[u32]) -> Vec<ArchPoint> {
    let (tech, opts) = paper_flow();
    let mut out = Vec::new();
    for level in PipeliningLevel::ALL {
        let units = UnitSet::for_level(FpFormat::SINGLE, level, &tech, opts);
        for &n in problem_sizes {
            let arch = ArchitectureEnergy::new(units.clone(), n, n, &tech);
            let rep = arch.charge_flat(n, &tech);
            out.push(ArchPoint {
                x: n,
                level: level.label(),
                energy_nj: rep.total_nj(),
                slices: rep.slices,
                bmults: rep.bmults,
                brams: rep.brams,
                latency_us: rep.latency_us,
            });
        }
    }
    out
}

/// Figure 6: energy / resources / latency vs block size b at fixed
/// problem size N, for PL ∈ {10, 19, 25} (b-PE blocked designs).
pub fn fig6(n: u32, block_sizes: &[u32]) -> Vec<ArchPoint> {
    let (tech, opts) = paper_flow();
    let mut out = Vec::new();
    for level in PipeliningLevel::ALL {
        let units = UnitSet::for_level(FpFormat::SINGLE, level, &tech, opts);
        for &b in block_sizes {
            let plan = BlockMatMul::square(n, b, level.pl()).expect("figure grid is positive");
            let arch = ArchitectureEnergy::new(units.clone(), b, b, &tech);
            let rep = arch.charge_blocked(&plan, &tech);
            out.push(ArchPoint {
                x: b,
                level: level.label(),
                energy_nj: rep.total_nj(),
                slices: rep.slices,
                bmults: rep.bmults,
                brams: rep.brams,
                latency_us: rep.latency_us,
            });
        }
    }
    out
}

/// The default Figure 5 x-axis.
pub const FIG5_PROBLEM_SIZES: [u32; 6] = [4, 8, 12, 16, 32, 64];
/// The default Figure 6 problem size and x-axis.
pub const FIG6_PROBLEM_SIZE: u32 = 160;
/// Block sizes swept in Figure 6 (all divide 160).
pub const FIG6_BLOCK_SIZES: [u32; 5] = [4, 8, 16, 32, 80];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_has_six_curves() {
        let f = fig2();
        assert_eq!(f.adders.len(), 3);
        assert_eq!(f.multipliers.len(), 3);
        for c in f.adders.iter().chain(&f.multipliers) {
            assert!(c.points.len() > 8, "{} too short", c.precision);
        }
    }

    #[test]
    fn tables_have_ordered_stage_columns() {
        for table in [table1(), table2()] {
            for block in table {
                assert!(block.min.stages < block.opt.stages);
                assert!(block.opt.stages < block.max.stages);
                assert!(block.opt.freq_per_area() >= block.min.freq_per_area());
                assert!(block.opt.freq_per_area() >= block.max.freq_per_area());
            }
        }
    }

    #[test]
    fn fig3_power_grows_with_stages() {
        let f = fig3();
        for c in f.adders.iter().chain(&f.multipliers) {
            let first = c.points.first().unwrap().1;
            let last = c.points.last().unwrap().1;
            assert!(last > first, "{}: {first} -> {last}", c.precision);
        }
    }

    #[test]
    fn gflops_report_consistent() {
        let g = gflops();
        assert!(g.single.gflops() > g.double.gflops());
        assert!(g.comparison.fpga_gflops > 0.0);
    }

    #[test]
    fn fig4_has_all_bars() {
        let bars = fig4();
        assert_eq!(bars.len(), 6); // 2 sizes × 3 levels
        for b in &bars {
            assert_eq!(b.by_class.len(), 4);
            let sum: f64 = b.by_class.iter().map(|(_, e)| e).sum();
            assert!((sum - b.total_nj).abs() < 1e-6 * b.total_nj.max(1.0));
        }
    }

    #[test]
    fn fig6_block_sizes_divide() {
        for &b in &FIG6_BLOCK_SIZES {
            assert_eq!(FIG6_PROBLEM_SIZE % b, 0);
        }
    }
}

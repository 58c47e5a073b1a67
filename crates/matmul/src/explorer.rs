//! Architectural design-space exploration.
//!
//! Section 5 closes with: "based upon the area, latency and energy
//! constraints, architectural choices can be made from Figure 5". This
//! module turns that remark into a tool: enumerate candidate
//! architectures (pipelining level × block size), evaluate each with the
//! energy/latency/resource models, filter by the designer's constraints
//! and return the Pareto-optimal set.

use crate::block::BlockMatMul;
use crate::energy::ArchitectureEnergy;
use crate::units::{PipeliningLevel, UnitSet};
use fpfpga_fabric::device::Device;
use fpfpga_fabric::synthesis::SynthesisOptions;
use fpfpga_fabric::tech::Tech;
use fpfpga_softfp::FpFormat;

/// Designer constraints; `None` means unconstrained.
#[derive(Clone, Copy, Debug, Default)]
pub struct Constraints {
    /// Maximum slices (e.g. the target device's capacity).
    pub max_slices: Option<u32>,
    /// Maximum latency in microseconds.
    pub max_latency_us: Option<f64>,
    /// Maximum energy in nanojoules.
    pub max_energy_nj: Option<f64>,
}

impl Constraints {
    /// Constrain to a device's slice capacity.
    pub fn for_device(device: &Device) -> Constraints {
        Constraints {
            max_slices: Some(device.slices),
            ..Default::default()
        }
    }

    fn admits(&self, c: &Candidate) -> bool {
        self.max_slices.is_none_or(|m| c.slices <= m)
            && self.max_latency_us.is_none_or(|m| c.latency_us <= m)
            && self.max_energy_nj.is_none_or(|m| c.energy_nj <= m)
    }
}

/// One evaluated architecture point.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Pipelining level of the FP units.
    pub level: PipeliningLevel,
    /// Block size (= PE count).
    pub b: u32,
    /// Array slices.
    pub slices: u32,
    /// End-to-end latency (µs).
    pub latency_us: f64,
    /// Total energy (nJ).
    pub energy_nj: f64,
    /// Fraction of MAC issues wasted on zero padding.
    pub pad_fraction: f64,
}

impl Candidate {
    /// True if `self` is at least as good as `other` on all three axes
    /// and strictly better on one (Pareto dominance).
    pub fn dominates(&self, other: &Candidate) -> bool {
        let le = self.slices <= other.slices
            && self.latency_us <= other.latency_us
            && self.energy_nj <= other.energy_nj;
        let lt = self.slices < other.slices
            || self.latency_us < other.latency_us
            || self.energy_nj < other.energy_nj;
        le && lt
    }
}

/// Exploration of blocked N×N matrix multiplication designs.
pub struct Explorer {
    /// Operand format.
    pub format: FpFormat,
    /// Problem size N.
    pub n: u32,
    /// Block sizes to consider (must divide N; non-dividing entries are
    /// skipped).
    pub block_sizes: Vec<u32>,
}

impl Explorer {
    /// An explorer over the standard block-size ladder.
    pub fn new(format: FpFormat, n: u32) -> Explorer {
        let block_sizes = [2u32, 4, 8, 16, 32, 64, 128]
            .into_iter()
            .filter(|&b| b <= n && n.is_multiple_of(b))
            .collect();
        Explorer {
            format,
            n,
            block_sizes,
        }
    }

    /// Evaluate every (level, b) candidate.
    pub fn candidates(&self, tech: &Tech, opts: SynthesisOptions) -> Vec<Candidate> {
        let mut out = Vec::new();
        for level in PipeliningLevel::ALL {
            let units = UnitSet::for_level(self.format, level, tech, opts);
            out.extend(self.block_sizes.iter().map(|&b| {
                let plan = BlockMatMul::square(self.n, b, units.pl())
                    .expect("explorer grid uses positive n, b, pl");
                let arch = ArchitectureEnergy::new(units.clone(), b, b, tech);
                let rep = arch.charge_blocked(&plan, tech);
                Candidate {
                    level,
                    b,
                    slices: rep.slices,
                    latency_us: rep.latency_us,
                    energy_nj: rep.total_nj(),
                    pad_fraction: rep.pad_macs as f64
                        / (rep.pad_macs + rep.useful_macs).max(1) as f64,
                }
            }));
        }
        out
    }

    /// The Pareto frontier of the candidates admitted by `constraints`,
    /// sorted by slices ascending.
    pub fn pareto(
        &self,
        constraints: &Constraints,
        tech: &Tech,
        opts: SynthesisOptions,
    ) -> Vec<Candidate> {
        let all = self.candidates(tech, opts);
        let admitted: Vec<&Candidate> = all.iter().filter(|c| constraints.admits(c)).collect();
        let mut frontier: Vec<Candidate> = admitted
            .iter()
            .filter(|c| !admitted.iter().any(|o| o.dominates(c)))
            .map(|c| (*c).clone())
            .collect();
        frontier.sort_by_key(|c| c.slices);
        frontier
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn explorer() -> Explorer {
        Explorer::new(FpFormat::SINGLE, 64)
    }

    fn flow() -> (Tech, SynthesisOptions) {
        (Tech::virtex2pro(), SynthesisOptions::SPEED)
    }

    #[test]
    fn candidates_cover_the_grid() {
        let (tech, opts) = flow();
        let e = explorer();
        let c = e.candidates(&tech, opts);
        assert_eq!(c.len(), 3 * e.block_sizes.len());
    }

    #[test]
    fn frontier_is_mutually_nondominated() {
        let (tech, opts) = flow();
        let f = explorer().pareto(&Constraints::default(), &tech, opts);
        assert!(!f.is_empty());
        for a in &f {
            for b in &f {
                assert!(
                    !a.dominates(b) || std::ptr::eq(a, b),
                    "{a:?} dominates {b:?}"
                );
            }
        }
    }

    #[test]
    fn frontier_never_contains_dominated_points() {
        let (tech, opts) = flow();
        let e = explorer();
        let all = e.candidates(&tech, opts);
        let f = e.pareto(&Constraints::default(), &tech, opts);
        for c in &f {
            assert!(!all.iter().any(|o| o.dominates(c)), "{c:?} is dominated");
        }
    }

    #[test]
    fn constraints_filter() {
        let (tech, opts) = flow();
        let e = explorer();
        let unconstrained = e.pareto(&Constraints::default(), &tech, opts);
        let tight = Constraints {
            max_slices: Some(10_000),
            ..Default::default()
        };
        let constrained = e.pareto(&tight, &tech, opts);
        assert!(constrained.iter().all(|c| c.slices <= 10_000));
        assert!(constrained.len() <= unconstrained.len() + 1);
        // An impossible constraint yields an empty frontier.
        let impossible = Constraints {
            max_latency_us: Some(1e-9),
            ..Default::default()
        };
        assert!(e.pareto(&impossible, &tech, opts).is_empty());
    }

    #[test]
    fn device_constraint_helper() {
        let c = Constraints::for_device(&Device::XC2VP30);
        assert_eq!(c.max_slices, Some(13_696));
    }

    #[test]
    fn small_blocks_pad_more() {
        let (tech, opts) = flow();
        let cands = explorer().candidates(&tech, opts);
        let deep_small = cands
            .iter()
            .find(|c| c.level == PipeliningLevel::Maximum && c.b == 4)
            .unwrap();
        let deep_big = cands
            .iter()
            .find(|c| c.level == PipeliningLevel::Maximum && c.b == 32)
            .unwrap();
        assert!(deep_small.pad_fraction > deep_big.pad_fraction);
        assert!(deep_small.pad_fraction > 0.5); // (25-4)/25 = 84% of slots
    }
}

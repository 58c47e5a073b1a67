//! # fpfpga-fpu — the paper's floating-point cores
//!
//! This crate implements Section 3 of Govindu et al. (IPPS 2004): a
//! floating-point adder/subtractor and multiplier whose **number of
//! pipeline stages is a first-class design parameter**, evaluated by the
//! **throughput/area** (MHz/slice) metric.
//!
//! Each core is described twice, from one source of truth:
//!
//! * **Behaviourally** — as an ordered list of [`subunit::Subunit`]s
//!   (denormalizer, swapper, align shifter, mantissa adder, priority
//!   encoder, normalizer, rounding, …) operating on a [`signals::Signals`]
//!   wire bundle. The [`sim::PipelinedUnit`] clocks bundles through the
//!   stages cycle by cycle, reproducing latency, initiation interval 1,
//!   the `DONE` side-band and per-stage exception forwarding. Results are
//!   bit-identical to `fpfpga-softfp` for **every** legal register
//!   placement (property-tested), because register placement is a timing
//!   decision, not a semantic one.
//! * **Structurally** — as a `fpfpga-fabric` [`fpfpga_fabric::Netlist`] of
//!   calibrated primitives, from which synthesis/P&R models derive
//!   slices, LUTs, flip-flops, BMULTs and the achievable clock rate for
//!   any pipeline depth and tool objective.
//!
//! [`analysis`] sweeps pipeline depth for the three paper precisions and
//! selects the *min*, *opt* (highest MHz/slice — the paper's definition
//! of optimal) and *max* configurations of Tables 1 and 2, and produces
//! the frequency/area-versus-stages curves of Figure 2.
//!
//! ## Quick example
//!
//! ```
//! use fpfpga_fpu::prelude::*;
//!
//! // Design-space sweep for a single-precision adder
//! // (`CoreSweep::new` covers adder, multiplier, divider and square
//! // root):
//! let (tech, opts) = (Tech::virtex2pro(), SynthesisOptions::SPEED);
//! let sweep = CoreSweep::new(CoreKind::Adder, FpFormat::SINGLE, &tech, opts);
//! let opt = sweep.opt();
//! assert!(opt.clock_mhz > 150.0); // peak rate is higher still (> 240 MHz)
//!
//! // Cycle-accurate simulation of the chosen configuration.
//! // [`sim::FpPipe::run_batch`] clocks one operand pair per cycle and
//! // drains; every stage count gives the `fpfpga-softfp` result, values
//! // and flags (property-tested):
//! let mut unit = AdderDesign::new(FpFormat::SINGLE).simulator(opt.stages);
//! let a = 1.5f32.to_bits() as u64;
//! let b = 2.25f32.to_bits() as u64;
//! let results = unit.run_batch(&[(a, b)]);
//! let (bits, _flags) = results[0];
//! assert_eq!(f32::from_bits(bits as u32), 3.75);
//! ```
//!
//! A sweep is a pure function of (op, format, tech, options) and takes
//! tens to hundreds of microseconds, so every design-space query here
//! calls it directly. [`cache::SweepCache`] memoizes it for callers
//! that draw design points per request at run time — the serving
//! pool's `Kernel::Sweep` jobs and its policy auto-tuner.

pub mod accumulator;
pub mod adder;
pub mod analysis;
pub mod cache;
pub mod config;
pub mod divider;
pub mod generator;
pub mod ieee_cost;
pub mod mac;
pub mod multiplier;
pub mod parallel;
pub mod signals;
pub mod sim;
pub mod subunit;
pub mod trace;

pub use accumulator::{AccumulatorDesign, StreamingAccumulator};
pub use adder::AdderDesign;
pub use analysis::{CoreKind, CoreSweep, PrecisionAnalysis};
pub use cache::SweepCache;
pub use config::{CoreConfig, CoreConfigBuilder, OpKind};
pub use divider::{DividerDesign, SqrtDesign};
pub use mac::{FusedMacDesign, FusedMacUnit, MacComparison};
pub use multiplier::MultiplierDesign;
pub use parallel::{chunk_ranges, parallel_map_slice};
pub use sim::{DelayLineUnit, FpPipe, PipelinedUnit};
pub use trace::Waveform;

/// Convenient re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::adder::AdderDesign;
    pub use crate::analysis::{CoreKind, CoreSweep, PrecisionAnalysis};
    pub use crate::config::{CoreConfig, CoreConfigBuilder, OpKind};
    pub use crate::divider::{DividerDesign, SqrtDesign};
    pub use crate::multiplier::MultiplierDesign;
    pub use crate::sim::{DelayLineUnit, FpPipe, PipelinedUnit};
    pub use fpfpga_fabric::{
        timing, Device, Netlist, Objective, PipelineStrategy, SynthesisOptions, Tech,
    };
    pub use fpfpga_softfp::{Flags, FpFormat, RoundMode};
}

//! # fpfpga — Analysis of High-Performance Floating-Point Arithmetic on FPGAs
//!
//! A full reproduction, in Rust, of Govindu, Zhuo, Choi and Prasanna,
//! *"Analysis of High-performance Floating-point Arithmetic on FPGAs"*
//! (IPPS/IPDPS-RAW 2004), built on a calibrated behavioral + analytical
//! model of a Virtex-II Pro class FPGA (no HDL toolchain required).
//!
//! The workspace layers, re-exported here:
//!
//! * [`softfp`] — parameterized bit-exact floating point (32/48/64-bit,
//!   round-to-nearest / truncate, flush-to-zero, no NaNs) — the
//!   numerical reference;
//! * [`fabric`] — the FPGA substrate model: primitives with delay atoms
//!   and area bills, netlists, critical-path pipelining, synthesis/P&R
//!   objectives, the Virtex-II Pro device catalogue;
//! * [`fpu`] — the paper's cores: pipeline-parameterized adder/subtractor
//!   and multiplier, simulated stage by stage and swept for
//!   frequency/area analysis;
//! * [`power`] — XPower-style power and domain-specific energy models;
//! * [`matmul`] — the linear-array matrix-multiply kernel: cycle-accurate
//!   simulation, block algorithm with zero padding, device-fill GFLOPS
//!   and energy reports;
//! * [`baselines`] — Nallatech/Quixilica/NEU cores and Pentium 4 / G4
//!   processor models;
//! * [`serve`] — the multi-tenant serving layer: a sharded worker pool
//!   with bounded queues, backpressure, coalescing, deadlines and
//!   metrics, bit-identical to serial execution at any worker count.
//!
//! [`repro`] computes every table and figure of the paper's evaluation as
//! plain data structures; the `fpfpga-bench` crate renders them.
//!
//! ## Quickstart
//!
//! ```
//! use fpfpga::prelude::*;
//!
//! // Sweep any core kind's pipeline depth and pick the
//! // highest-throughput/area implementation (the paper's "opt"):
//! let (tech, opts) = (Tech::virtex2pro(), SynthesisOptions::SPEED);
//! let sweep = CoreSweep::new(CoreKind::Adder, FpFormat::SINGLE, &tech, opts);
//! let opt = sweep.opt();
//! println!("opt: {} stages, {} slices, {:.0} MHz", opt.stages, opt.slices, opt.clock_mhz);
//!
//! // Stream a batch through the core's cycle-accurate simulator: one
//! // clock per operand pair, then a drain, in one call:
//! let mut unit = AdderDesign::new(FpFormat::SINGLE).simulator(opt.stages);
//! let one = 1.0f32.to_bits() as u64;
//! let results = unit.run_batch(&[(one, one), (one, one)]);
//! assert_eq!(results.len(), 2);
//! assert_eq!(results[0].0 as u32, 2.0f32.to_bits());
//!
//! // Multiply two matrices with the linear array's blocked plan, using
//! // the block size the paper's cycle model favours (b = 8 here: one
//! // tile). The values come from the rank-1 executor, the statistics
//! // from the plan:
//! let fmt = FpFormat::SINGLE;
//! let a = Matrix::from_fn(fmt, 8, 8, |i, j| (i + j) as f64);
//! let b = Matrix::identity(fmt, 8);
//! let plan = BlockMatMul::cheapest(8, 8, 8, 7 + 9).unwrap();
//! let (c, stats) = MultiMatMul { plan, arrays: 1 }
//!     .run(RoundMode::NearestEven, &a, &b, 1)
//!     .unwrap();
//! assert_eq!(c, a);
//! assert_eq!(stats.total.useful_macs, 8 * 8 * 8);
//! ```

pub use fpfpga_baselines as baselines;
pub use fpfpga_fabric as fabric;
pub use fpfpga_fpu as fpu;
pub use fpfpga_matmul as matmul;
pub use fpfpga_power as power;
pub use fpfpga_serve as serve;
pub use fpfpga_softfp as softfp;

pub mod repro;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use fpfpga_baselines::{Processor, ProcessorComparison, Table3, Table4, VendorCore};
    pub use fpfpga_fabric::ApFormat;
    pub use fpfpga_fabric::{
        timing, AreaCost, Device, Netlist, Objective, PipelineStrategy, SynthesisOptions, Tech,
    };
    pub use fpfpga_fpu::{
        analysis::CoreKind, AdderDesign, CoreConfig, CoreConfigBuilder, CoreSweep, DelayLineUnit,
        DividerDesign, FpPipe, MultiplierDesign, PipelinedUnit, PrecisionAnalysis, SqrtDesign,
    };
    pub use fpfpga_matmul::pe::UnitBackend;
    pub use fpfpga_matmul::{
        ArchitectureEnergy, BlockMatMul, Candidate, Constraints, DeviceFill, DotProductUnit,
        Explorer, FnTiles, LinearArray, Matrix, MatrixTiles, MultiMatMul, MultiStats, MvmEngine,
        PeResources, PipeliningLevel, PlanError, Schedule, TileSource, UnitSet,
    };
    pub use fpfpga_matmul::{ErrorBudget, ErrorMeter, ErrorStats};
    pub use fpfpga_power::{ComponentClass, EnergyBill, PowerBreakdown, PowerModel};
    pub use fpfpga_serve::{
        run_serial, run_serial_with, synth_trace, ApOp, Job, JobHandle, JobOutcome, JobResult,
        JobSpec, Kernel, MetricsSnapshot, PolicyBook, PolicySel, Priority, ServeConfig, ServePool,
        SubmitError, TraceConfig,
    };
    pub use fpfpga_softfp::limb::{limb_add, limb_fma, limb_mul, limb_sub, LimbFormat};
    pub use fpfpga_softfp::{Flags, FpFormat, PrecisionPolicy, RoundMode, SoftFloat};
}

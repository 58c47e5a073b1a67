//! # fpfpga-matmul — floating-point matrix multiplication on FPGA
//!
//! The kernel of Section 4.2/5 of the paper: "a linear array of identical
//! PEs (Processing Elements), each of which contains a floating-point
//! adder and a floating-point multiplier", following the architecture and
//! algorithm of Jang, Choi and Prasanna, *"Area and Time Efficient
//! Implementation of Matrix Multiplication on FPGAs"* (FPT 2002).
//!
//! ## The algorithm
//!
//! `C = A·B` (n×n) is computed as n rank-1 updates. PE *j* owns column
//! *j* of `C` (in block RAM) and column *j* of `B`; the elements of `A`
//! stream through the array in a shift register, each accompanied by its
//! control token (row `i`, step `k`) — "the control signals also have to
//! be shifted using shift registers so that the correct schedule of
//! operations is maintained". At token (i, k), PE *j* computes
//! `c[i][j] += a[i][k] · b[k][j]` through its multiply-then-add pipeline.
//!
//! A given `c[i][j]` is updated once every inner-loop period; with
//! deeply pipelined units the read-after-write hazard appears exactly
//! when that period is shorter than the combined adder + multiplier
//! latency — "there will be read-after-write hazards only if the matrix
//! size is less than the number of pipeline stages". The scheduler pads
//! the inner loop with zero operations up to the combined latency
//! ("zero padding has to be used, to satisfy the above latency
//! constraint. This zero padding constitutes wasteful energy
//! dissipation"), and the energy model charges those cycles.
//!
//! ## Layers
//!
//! * [`matrix`] — a dense matrix of raw encodings in one format;
//! * [`schedule`] — token streams, padded periods, and cycle counting;
//! * [`pe`] / [`array`](mod@crate::array) — the cycle-accurate PE and linear array;
//! * [`block`] — block matrix multiplication for problem sizes larger
//!   than the array (block size `b` is the design parameter of Fig. 6),
//!   generalized to rectangular problems with zero-padded ragged edges;
//! * [`multi`] — the blocked plan fanned out across several linear
//!   arrays with streamed ([`multi::TileSource`]) operands;
//! * [`units`] — selection of the FP unit pair (min/moderate/max
//!   pipelining — the paper's PL = 10/19/25 sets);
//! * [`perf`] — whole-device performance: PE resources, device fill,
//!   GFLOPS (the paper's 4.2 numbers);
//! * [`energy`] — per-component energy of a run (Figures 4-6).

pub mod accuracy;
pub mod array;
pub mod block;
pub mod conv2d;
pub mod dot;
pub mod energy;
pub mod explorer;
pub mod fft;
pub mod fir;
pub mod lu;
pub mod matrix;
pub mod mixed;
pub mod multi;
pub mod mvm;
pub mod pe;
pub mod perf;
pub mod reference;
pub mod schedule;
pub mod units;
pub mod vector;

pub use accuracy::{ErrorMeter, ErrorStats};
pub use array::LinearArray;
pub use block::{BlockMatMul, PlanError};
pub use conv2d::Conv2dEngine;
pub use dot::DotProductUnit;
pub use energy::{ArchitectureEnergy, EnergyReport};
pub use explorer::{Candidate, Constraints, Explorer};
pub use fft::{ButterflyUnit, Cplx, FftEngine};
pub use fir::FirFilter;
pub use lu::LuEngine;
pub use matrix::Matrix;
pub use mixed::{mixed_dot, mixed_matmul, mixed_mvm, ErrorBudget, MixedDot};
pub use multi::{FnTiles, MatrixTiles, MultiMatMul, MultiStats, TileSource};
pub use mvm::MvmEngine;
pub use perf::{DeviceFill, PeResources};
pub use schedule::Schedule;
pub use units::{PipeliningLevel, UnitSet};
pub use vector::{AxpyUnit, MapUnit};

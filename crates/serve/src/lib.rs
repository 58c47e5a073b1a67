//! # fpfpga-serve — multi-tenant serving of FP-kernel jobs
//!
//! The paper's cores are parameterized by precision and pipeline depth;
//! a deployed accelerator serves a *mixed* stream of such requests.
//! This crate is that serving layer: a [`pool::ServePool`] of worker
//! threads, each owning one shard of the job space — a bounded queue
//! plus a private [`fpfpga_fpu::SweepCache`] — with jobs routed by
//! [`job::Job::class_hash`] so that repeats of one configuration warm
//! one cache and compatible elementwise streams meet in one queue,
//! where they are **coalesced** into a single
//! [`run_coalesced`](job::run_coalesced) call.
//!
//! **Precision policies.** Every job carries a
//! [`fpfpga_softfp::PrecisionPolicy`] — independent *compute*,
//! *accumulate* and *storage* formats. A [`pool::JobSpec`] names its
//! policy three ways: pinned ([`pool::PolicySel::Fixed`]), per-tenant
//! from the pool's [`pool::PolicyBook`] ([`pool::PolicySel::Default`]),
//! or chosen at submission by the [ULP-budget auto-tuner](tuner) as the
//! cheapest policy (fabric area model) meeting a
//! [`fpfpga_matmul::ErrorBudget`] ([`pool::PolicySel::Auto`]).
//!
//! Scheduling is explicit about overload:
//!
//! * a full shard queue answers [`pool::SubmitError::Rejected`]
//!   immediately — backpressure, never blocking, never a silent drop;
//! * a strictly higher-priority submission may instead **shed** the
//!   lowest-priority queued job, whose handle reports
//!   [`pool::JobOutcome::Shed`];
//! * per-job deadlines time out un-run jobs
//!   ([`pool::JobOutcome::TimedOut`]), and handles can cancel;
//! * every event lands in a lock-free [`metrics::Metrics`] registry
//!   (counters + coarse latency histogram + cache stats).
//!
//! **Determinism.** [`job::Job::run`] is a pure function of the job
//! payload: kernels start from freshly built, empty pipelines; the
//! sweep cache only memoizes pure synthesis; coalescing concatenates
//! independent elements; policy resolution happens once, at
//! submission. Hence for any trace and any worker count the pool's
//! results are bit-identical to serial execution ([`run_serial`]) —
//! including exception [`fpfpga_softfp::Flags`] — which the property
//! tests in `tests/` pin down.
//!
//! ```
//! use fpfpga_serve::job::{EltOp, JobResult, Kernel};
//! use fpfpga_serve::pool::{JobOutcome, JobSpec, ServeConfig, ServePool};
//! use fpfpga_softfp::{FpFormat, SoftFloat};
//!
//! let fmt = FpFormat::SINGLE;
//! let enc = |v: f64| SoftFloat::from_f64(fmt, v).bits();
//! let pool = ServePool::new(ServeConfig::with_workers(2));
//! let handle = pool
//!     .submit(
//!         JobSpec::of(Kernel::Eltwise {
//!             op: EltOp::Mul,
//!             stages: 6,
//!             pairs: vec![(enc(1.5), enc(2.0))],
//!         })
//!         .with_format(fmt),
//!     )
//!     .expect("accepted");
//! match handle.wait() {
//!     JobOutcome::Completed(JobResult::Eltwise(rs)) => {
//!         assert_eq!(SoftFloat::from_bits(fmt, rs[0].0).to_f64(), 3.0);
//!     }
//!     other => panic!("{other:?}"),
//! }
//! let metrics = pool.join();
//! assert_eq!(metrics.completed, 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod job;
pub mod metrics;
pub mod pool;
pub mod trace;
pub mod tuner;

pub use job::{ApOp, CoalesceKey, EltOp, Job, JobResult, Kernel, MAX_PIPE_STAGES};
pub use metrics::{Metrics, MetricsSnapshot, LATENCY_BUCKETS};
pub use pool::{
    JobHandle, JobOutcome, JobSpec, PolicyBook, PolicySel, Priority, ServeConfig, ServePool,
    SubmitError,
};
pub use trace::{synth_trace, TraceConfig, TraceEvent};
pub use tuner::{autotune, candidate_policies, TunedPolicy};

use fpfpga_fabric::tech::Tech;
use fpfpga_fpu::SweepCache;

/// The serial reference with an explicit [`PolicyBook`]: resolve every
/// spec's policy against `book` (panicking on unsatisfiable budgets —
/// the oracle has no refusal channel), then run the jobs in order on
/// one thread against one fresh cache.
pub fn run_serial_with(specs: &[JobSpec], tech: &Tech, book: &PolicyBook) -> Vec<JobResult> {
    let cache = SweepCache::new();
    specs
        .iter()
        .map(|s| {
            s.clone()
                .resolve(book, tech, &cache)
                .expect("serial reference spec must resolve")
                .run(tech, &cache)
        })
        .collect()
}

/// The serial reference: run every job of a trace in order, on one
/// thread, against one fresh cache, resolving policies against the
/// default [`PolicyBook`] (mirroring [`ServeConfig::default`]). The
/// pool must reproduce these results bit-for-bit at any worker count —
/// this is the oracle the equivalence property tests compare against.
pub fn run_serial(specs: &[JobSpec], tech: &Tech) -> Vec<JobResult> {
    run_serial_with(specs, tech, &PolicyBook::default())
}

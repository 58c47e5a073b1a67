//! `fpfpga-net`: the network front-end for the serving pool.
//!
//! This crate puts [`fpfpga_serve`]'s in-process scheduler behind a
//! TCP wire so the paper's FP kernels can be served to tenants outside
//! the caller's address space, and adds the hardening a shared
//! front-end needs:
//!
//! - **[`wire`]** — a length-prefixed, versioned binary protocol with
//!   a lossless codec for [`fpfpga_serve::JobSpec`] and
//!   [`fpfpga_serve::JobResult`] (floating-point payloads travel as
//!   raw bit patterns, so wire results are bit-identical to local
//!   runs) and typed error codes mirroring
//!   [`fpfpga_serve::SubmitError`].
//! - **[`quota`]** — per-tenant token-bucket request-rate and
//!   byte-rate quotas with honest retry-after hints, layered on the
//!   pool's existing priorities and shedding.
//! - **[`server`]** — the accept loop: connection limits with graceful
//!   backpressure, idle timeouts, per-connection reader/writer threads
//!   preserving response order, and a drain-on-shutdown path that
//!   answers every accepted job before exiting. Frame I/O is batched:
//!   the reader parses every frame one buffered `read` took in, and
//!   the writer coalesces ready replies into one `write`, counted in
//!   [`NetStatsSnapshot::read_calls`] and
//!   [`NetStatsSnapshot::write_calls`].
//! - **[`client`]** — a blocking, pipelining-friendly client used by
//!   the `fpunet` load generator and the test suites; it reads answers
//!   through a buffered read half.
//! - **[`adaptive`]** — a feedback tuner driving the pool's live
//!   coalescing window from the batch-occupancy metric.
//!
//! The defining property carries over from the serving layer: for any
//! trace, worker count and quota configuration, results returned over
//! the wire are **bit-identical** (exception flags included) to
//! [`fpfpga_serve::run_serial`] — property-tested over real loopback
//! sockets in `tests/net_equivalence.rs`.

#![deny(missing_docs)]

pub mod adaptive;
pub mod client;
pub mod quota;
pub mod server;
pub mod wire;

pub use adaptive::{next_window, AdaptiveConfig, AdaptiveTuner, IntervalSample};
pub use client::{NetClient, NetError, Response};
pub use quota::{QuotaBook, QuotaConfig, QuotaDenied, QuotaLimits, TenantUsage, TokenBucket};
pub use server::{
    NetConfig, NetServer, NetStatsSnapshot, ServerReport, ShutdownPolicy, StopHandle,
};
pub use wire::{
    ErrorCode, Frame, FrameError, FrameKind, Reject, WireError, MAX_BODY_LEN, MAX_FRAME_LEN,
    WIRE_VERSION,
};

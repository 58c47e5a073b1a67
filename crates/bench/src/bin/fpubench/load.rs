//! The load generators: the batch-kernel loop, closed- and open-loop
//! replay into an in-process pool, and closed- and open-loop replay over
//! loopback TCP. Each phase checks every output against the oracle and
//! returns what it measured.
//!
//! The generator uses at most two threads: a single thread drives the
//! batch loop and the in-process closed loop; the open loops and every
//! wire phase add one thread that collects answers, so no answer waits
//! unread while the sender sleeps until its next due time.

use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use fpfpga::serve::{JobHandle, JobOutcome, ServeConfig, ServePool, SubmitError};
use fpfpga::softfp::Flags;
use fpfpga_net::wire::{
    control_frame, decode_reject, decode_result, encode_spec, read_frame, write_frame,
};
use fpfpga_net::{Frame, FrameKind, NetConfig, NetServer, ServerReport, StopHandle};

use crate::spans::Tracer;
use crate::stats::Histogram;
use crate::workload::{call, Operands, Poisson, Requests, BATCH_LEN, CALL_SPANS, POOL_WORKERS};

/// What one phase measured. Every issued request counts in `attempted`;
/// every refusal, lost answer or oracle mismatch counts in `failed`.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    /// Items completed: elements for batch calls, jobs otherwise.
    pub items: u64,
    /// Items per second over the phase (per second inside the kernel
    /// for batch calls).
    pub rate: Option<f64>,
    /// Per-request latency: from the due time in an open loop, from
    /// the send in a closed loop, the call itself for batch kernels.
    pub lat: Histogram,
    /// How late the open-loop sender issued each request.
    pub lag: Histogram,
    /// Requests refused under backpressure and sent again.
    pub retries: u64,
    /// The connection failed; later phases on it cannot run.
    pub broken: bool,
}

impl Phase {
    /// Fold another phase's counts and flags into this one (its rate
    /// and histograms are the caller's to use).
    pub fn absorb(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retries += other.retries;
        self.broken |= other.broken;
    }
}

/// When a closed loop stops issuing requests.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    Count(u64),
    Elapsed(Duration),
}

impl Until {
    fn done(self, issued: u64, start: Instant) -> bool {
        match self {
            Until::Count(n) => issued >= n,
            Until::Elapsed(d) => start.elapsed() >= d,
        }
    }
}

/// How a serving phase paces requests.
#[derive(Clone, Copy, Debug)]
pub enum Pacing {
    /// Keep `window` requests in flight until `until`.
    Closed { window: usize, until: Until },
    /// Poisson arrivals at `rate`/s, scheduled from `seed`, for `dur`.
    Open { rate: f64, seed: u64, dur: Duration },
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Items per second since `start`; `None` before the first item.
fn rate(items: u64, start: Instant) -> Option<f64> {
    (items > 0).then(|| items as f64 / start.elapsed().as_secs_f64())
}

/// A request refused under backpressure (full queue) is sent again, as a
/// client honouring the refusal would, for up to this long; it is timed
/// from its first due time, so the wait shows in its latency.
const RETRY_FOR: Duration = Duration::from_secs(1);
const RETRY_WAIT: Duration = Duration::from_micros(100);

// ---------------------------------------------------------------------------
// Batch kernels
// ---------------------------------------------------------------------------

/// What every call of the rotation must return: the generic scalar
/// ops (`softfp::{add,sub,mul,fma}_bits`) element by element, flags
/// included. Built once per run, before any set-up is timed.
pub fn batch_reference(sets: &[Operands]) -> Vec<Vec<(u64, Flags)>> {
    (0..CALL_SPANS.len())
        .map(|i| {
            let (s, op) = call(i);
            let o = &sets[s];
            (0..BATCH_LEN).map(|j| op.reference(o.fmt, o, j)).collect()
        })
        .collect()
}

/// One pass of the rotation: the batch workloads' set-up (it resolves
/// SIMD dispatch on the first call of a process).
pub const WARMUP: Until = Until::Count(CALL_SPANS.len() as u64);

/// The rotation, back to back, until `until`. Each call is timed alone
/// and its output compared with `expected` off the clock, so the rate
/// counts kernel time only.
pub fn batch_phase(
    sets: &[Operands],
    expected: &[Vec<(u64, Flags)>],
    until: Until,
    tr: &mut Tracer,
) -> Phase {
    let mut phase = Phase::default();
    let mut out = Vec::with_capacity(BATCH_LEN);
    let mut kernel_ns = 0u64;
    let start = Instant::now();
    let mut i = 0usize;
    while !until.done(i as u64, start) {
        let (s, op) = call(i);
        let o = &sets[s];
        out.clear();
        let span = tr.start();
        let t0 = Instant::now();
        op.run(o.fmt, o, &mut out);
        let d = ns(t0.elapsed());
        tr.end(CALL_SPANS[i % CALL_SPANS.len()], "", i as u64, span);
        phase.attempted += 1;
        phase.failed += u64::from(out != expected[i % CALL_SPANS.len()]);
        phase.items += BATCH_LEN as u64;
        phase.lat.record(d);
        kernel_ns += d;
        i += 1;
    }
    phase.rate = (kernel_ns > 0).then(|| phase.items as f64 * 1e9 / kernel_ns as f64);
    phase
}

// ---------------------------------------------------------------------------
// In-process pool
// ---------------------------------------------------------------------------

/// The pool every serving workload runs: two workers, default queue
/// bound and coalescing window.
pub fn pool_config() -> ServeConfig {
    ServeConfig::with_workers(POOL_WORKERS)
}

/// Submit request `k`, retrying while its queue is full.
fn submit(pool: &ServePool, req: &Requests, k: u64, retries: &mut u64) -> Option<JobHandle> {
    let first = Instant::now();
    loop {
        match pool.submit(req.specs[k as usize % req.len()].clone()) {
            Ok(h) => return Some(h),
            Err(SubmitError::Rejected { .. }) if first.elapsed() < RETRY_FOR => {
                *retries += 1;
                thread::sleep(RETRY_WAIT);
            }
            Err(_) => return None,
        }
    }
}

fn outcome_ok(outcome: JobOutcome, req: &Requests, k: u64) -> bool {
    matches!(outcome, JobOutcome::Completed(r) if r == req.oracle[k as usize % req.len()])
}

/// Closed loop from one thread: keep `window` requests in flight and
/// wait their handles in submission order.
pub fn pool_closed(
    pool: &ServePool,
    req: &Requests,
    window: usize,
    until: Until,
    tr: &mut Tracer,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut inflight = VecDeque::with_capacity(window);
    let mut k = 0u64;
    loop {
        while inflight.len() < window && !until.done(k, start) {
            let span = tr.start();
            let t0 = Instant::now();
            let submitted = submit(pool, req, k, &mut phase.retries);
            tr.end("serve.submit", "serve.sojourn", k, span);
            phase.attempted += 1;
            match submitted {
                Some(h) => inflight.push_back((k, t0, span, h)),
                None => phase.failed += 1,
            }
            k += 1;
        }
        let Some((k_done, t0, span, h)) = inflight.pop_front() else {
            break;
        };
        let ok = outcome_ok(h.wait(), req, k_done);
        let done = Instant::now();
        tr.record("serve.sojourn", "", k_done, span, tr.ns(done));
        phase.failed += u64::from(!ok);
        phase.items += 1;
        phase.lat.record(ns(done - t0));
    }
    phase.rate = rate(phase.items, start);
    phase
}

/// Open loop: a sender thread submits on a Poisson schedule drawn from
/// `seed` for `dur`; this thread waits the handles in order and times
/// each request from its due time.
pub fn pool_open(
    pool: &ServePool,
    req: &Requests,
    rate: f64,
    seed: u64,
    dur: Duration,
    tr: &mut Tracer,
) -> Phase {
    let start = Instant::now();
    let sender_tr = tr.sibling();
    let (tx, rx) = mpsc::channel();
    let (phase, sender_tr) = thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut tr = sender_tr;
            let mut sched = Poisson::new(seed, rate);
            let mut sent = Phase::default();
            for k in 0u64.. {
                let due = start + Duration::from_nanos(sched.next_ns());
                if due > start + dur {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    thread::sleep(due - now);
                }
                let span = tr.start();
                sent.lag
                    .record(ns(Instant::now().saturating_duration_since(due)));
                let submitted = submit(pool, req, k, &mut sent.retries);
                tr.end("serve.submit", "serve.sojourn", k, span);
                sent.attempted += 1;
                match submitted {
                    Some(h) => tx
                        .send((k, due, span, h))
                        .expect("waiter outlives the sender"),
                    None => sent.failed += 1,
                }
            }
            (sent, tr)
        });
        let mut phase = Phase::default();
        for (k, due, span, h) in rx {
            let ok = outcome_ok(h.wait(), req, k);
            let done = Instant::now();
            tr.record("serve.sojourn", "", k, span, tr.ns(done));
            phase.failed += u64::from(!ok);
            phase.items += 1;
            phase.lat.record(ns(done.saturating_duration_since(due)));
        }
        let (sent, sender_tr) = sender.join().expect("sender thread panicked");
        phase.absorb(&sent);
        phase.lag = sent.lag;
        (phase, sender_tr)
    });
    tr.merge(sender_tr);
    phase
}

/// Build a pool and warm it with one closed-loop pass over every
/// distinct request: its sweep caches fill and dispatch is detected.
/// Returns the pool, the time it took, and the warm pass.
pub fn start_pool(req: &Requests, window: usize) -> (ServePool, Duration, Phase) {
    let t0 = Instant::now();
    let pool = ServePool::new(pool_config());
    let warm = pool_closed(
        &pool,
        req,
        window,
        Until::Count(req.len() as u64),
        &mut Tracer::off(),
    );
    (pool, t0.elapsed(), warm)
}

// ---------------------------------------------------------------------------
// Loopback wire
// ---------------------------------------------------------------------------

/// An in-process `NetServer` on an ephemeral loopback port and one
/// client connection to it, split into a write half and a buffered
/// read half so sending and receiving run on different threads.
pub struct Loopback {
    server: thread::JoinHandle<ServerReport>,
    stop: StopHandle,
    tx: TcpStream,
    rx: BufReader<TcpStream>,
}

/// A lost connection surfaces as a failed read instead of a hang.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

impl Loopback {
    /// Bind the server (two workers, unlimited quotas, adaptive
    /// coalescing off) and connect to it.
    pub fn start() -> io::Result<Loopback> {
        let config = NetConfig {
            serve: pool_config(),
            adaptive: None,
            ..NetConfig::default()
        };
        let server = NetServer::bind("127.0.0.1:0", config)?;
        let addr = server.local_addr()?;
        let stop = server.stop_handle();
        let server = thread::Builder::new()
            .name("fpubench-server".into())
            .spawn(move || server.run())?;
        let tx = TcpStream::connect(addr)?;
        tx.set_nodelay(true)?;
        let rx = tx.try_clone()?;
        rx.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Loopback {
            server,
            stop,
            tx,
            rx: BufReader::with_capacity(1 << 16, rx),
        })
    }

    /// Say goodbye, drain the server and collect its report.
    pub fn finish(mut self) -> ServerReport {
        let _ = write_frame(&mut self.tx, &control_frame(FrameKind::Goodbye, 0));
        let _ = self.tx.shutdown(std::net::Shutdown::Both);
        self.stop.stop();
        self.server.join().expect("server thread panicked")
    }
}

/// One request in flight, as the sender hands it to the receiver.
struct Sent {
    k: u64,
    /// Latency origin: the due time (open) or the first send (closed).
    origin: Instant,
    span: u64,
}

/// What the receiver tells the sender about a request in flight.
enum Back {
    /// Answered (correctly or not): a closed loop's window slot is free.
    /// An open loop gets no such message, so answers never wake its
    /// sender between due times.
    Done,
    /// Refused under backpressure: send it again.
    Retry(Sent),
}

/// Act on one message from the receiver; false when the connection is
/// gone.
fn on_back(msg: Back, inflight: &mut usize, send: &mut dyn FnMut(u64, Instant) -> bool) -> bool {
    match msg {
        Back::Done => {
            *inflight -= 1;
            true
        }
        Back::Retry(sent) => send(sent.k, sent.origin),
    }
}

/// Replay requests over the connection. Responses come back in send
/// order; each must carry the expected request id and byte-equal the
/// encoded oracle, and is decoded as a client would.
pub fn wire_phase(lb: &mut Loopback, req: &Requests, pacing: Pacing, tr: &mut Tracer) -> Phase {
    let start = Instant::now();
    let recv_tr = tr.sibling();
    let (sent_tx, sent_rx) = mpsc::channel::<Sent>();
    let (back_tx, back_rx) = mpsc::channel::<Back>();
    let credits = matches!(pacing, Pacing::Closed { .. });
    let answered = AtomicU64::new(0);
    let (rx, stream, answered) = (&mut lb.rx, &mut lb.tx, &answered);
    let (phase, recv_tr) = thread::scope(|s| {
        // Owns the read half, the queue of requests in flight and the
        // back channel, so a broken connection unblocks the sender.
        let receiver = s.spawn(move || {
            let mut tr = recv_tr;
            let mut phase = Phase::default();
            for sent in sent_rx {
                let frame = match read_frame(rx) {
                    Ok(f) if f.req_id == sent.k => f,
                    _ => {
                        phase.broken = true;
                        break;
                    }
                };
                let refused = frame.kind == FrameKind::Reject
                    && decode_reject(&frame.body).is_ok_and(|r| r.code.is_retryable());
                if refused && sent.origin.elapsed() < RETRY_FOR {
                    phase.retries += 1;
                    let _ = back_tx.send(Back::Retry(sent));
                    continue;
                }
                let span = tr.start();
                let ok = frame.kind == FrameKind::Response
                    && decode_result(&frame.body).is_ok()
                    && frame.body == req.encoded[sent.k as usize % req.len()];
                tr.end("net.decode_result", "net.roundtrip", sent.k, span);
                let done = Instant::now();
                tr.record("net.roundtrip", "", sent.k, sent.span, tr.ns(done));
                phase.failed += u64::from(!ok);
                phase.items += 1;
                phase
                    .lat
                    .record(ns(done.saturating_duration_since(sent.origin)));
                answered.fetch_add(1, Ordering::Relaxed);
                if credits {
                    let _ = back_tx.send(Back::Done);
                }
            }
            phase.rate = rate(phase.items, start);
            (phase, tr)
        });

        // Encode and write request `k`, after queueing it for the receiver.
        let mut send = |k: u64, origin: Instant| -> bool {
            let span = tr.start();
            let body = encode_spec(&req.specs[k as usize % req.len()]);
            tr.end("net.encode_spec", "net.roundtrip", k, span);
            if sent_tx.send(Sent { k, origin, span }).is_err() {
                return false;
            }
            let w = tr.start();
            let frame = Frame {
                kind: FrameKind::Request,
                req_id: k,
                body,
            };
            let written = write_frame(stream, &frame);
            tr.end("net.write_frame", "net.roundtrip", k, w);
            written.is_ok()
        };

        let mut sched = match pacing {
            Pacing::Open { rate, seed, .. } => Some(Poisson::new(seed, rate)),
            Pacing::Closed { .. } => None,
        };
        let (mut sender, mut inflight, mut due) = (Phase::default(), 0usize, None);
        'requests: for k in 0u64.. {
            // Wait until request k may go, serving answers meanwhile.
            let origin = loop {
                while let Ok(msg) = back_rx.try_recv() {
                    if !on_back(msg, &mut inflight, &mut send) {
                        sender.broken = true;
                        break 'requests;
                    }
                }
                let wait = match (pacing, sched.as_mut()) {
                    (Pacing::Open { dur, .. }, Some(sched)) => {
                        let d = *due
                            .get_or_insert_with(|| start + Duration::from_nanos(sched.next_ns()));
                        if d > start + dur {
                            break 'requests;
                        }
                        let now = Instant::now();
                        if now >= d {
                            sender.lag.record(ns(now - d));
                            due = None;
                            break d;
                        }
                        Some(d - now)
                    }
                    (Pacing::Closed { window, until }, _) => {
                        if until.done(k, start) {
                            break 'requests;
                        }
                        if inflight < window {
                            break Instant::now();
                        }
                        None
                    }
                    (Pacing::Open { .. }, None) => unreachable!("open pacing has a schedule"),
                };
                let msg = match wait {
                    Some(d) => match back_rx.recv_timeout(d) {
                        Err(mpsc::RecvTimeoutError::Timeout) => continue,
                        other => other.ok(),
                    },
                    None => back_rx.recv().ok(),
                };
                if !msg.is_some_and(|m| on_back(m, &mut inflight, &mut send)) {
                    sender.broken = true;
                    break 'requests;
                }
            };
            sender.attempted += 1;
            inflight += 1;
            if !send(k, origin) {
                sender.broken = true;
                break;
            }
        }
        // Serve refusals until every request sent has its answer.
        while answered.load(Ordering::Relaxed) < sender.attempted && !sender.broken {
            sender.broken = match back_rx.recv_timeout(Duration::from_millis(1)) {
                Ok(msg) => !on_back(msg, &mut inflight, &mut send),
                Err(mpsc::RecvTimeoutError::Timeout) => false,
                Err(mpsc::RecvTimeoutError::Disconnected) => true,
            };
        }
        drop(sent_tx);
        let (mut phase, recv_tr) = receiver.join().expect("receiver thread panicked");
        // Requests whose answers never came back count as failed.
        phase.failed += sender.attempted - phase.items;
        phase.absorb(&sender);
        phase.lag = sender.lag;
        (phase, recv_tr)
    });
    tr.merge(recv_tr);
    phase
}

/// Start a loopback server and warm it with one closed-loop pass over
/// every distinct request. Returns it, the time it took, and the pass.
pub fn start_loopback(req: &Requests, window: usize) -> io::Result<(Loopback, Duration, Phase)> {
    let t0 = Instant::now();
    let mut lb = Loopback::start()?;
    let until = Until::Count(req.len() as u64);
    let warm = wire_phase(
        &mut lb,
        req,
        Pacing::Closed { window, until },
        &mut Tracer::off(),
    );
    Ok((lb, t0.elapsed(), warm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;
    use crate::workload::{operand_sets, requests};

    /// A small request set whose oracle is wrong for exactly one entry.
    fn corrupted() -> Requests {
        let mut req = requests(11, 1, 24);
        assert_ne!(req.oracle[3], req.oracle[4]);
        req.oracle[3] = req.oracle[4].clone();
        *req.encoded[3].last_mut().expect("non-empty body") ^= 1;
        req
    }

    fn judged(phase: &Phase) -> Report {
        Report {
            attempted: phase.attempted,
            failed: phase.failed,
            ..Report::default()
        }
    }

    #[test]
    fn a_corrupted_oracle_entry_fails_the_run() {
        let req = corrupted();
        let n = Until::Count(req.len() as u64);

        let pool = ServePool::new(pool_config());
        let local = pool_closed(&pool, &req, 8, n, &mut Tracer::off());
        pool.join();
        assert_eq!((local.attempted, local.failed), (24, 1));

        let mut lb = Loopback::start().expect("loopback server");
        let wire = wire_phase(
            &mut lb,
            &req,
            Pacing::Closed {
                window: 8,
                until: n,
            },
            &mut Tracer::off(),
        );
        lb.finish();
        assert_eq!((wire.attempted, wire.failed, wire.broken), (24, 1, false));

        let sets = operand_sets(11, 0);
        let mut expected = batch_reference(&sets);
        let warm = batch_phase(&sets, &expected, WARMUP, &mut Tracer::off());
        assert_eq!((warm.attempted, warm.failed), (12, 0));
        expected[0][100].0 ^= 1;
        let batch = batch_phase(&sets, &expected, WARMUP, &mut Tracer::off());
        assert_eq!((batch.attempted, batch.failed), (12, 1));

        for phase in [&local, &wire, &batch] {
            let report = judged(phase);
            assert!(report.error_rate() > 0.0);
            assert_eq!(report.exit_code(), 1);
        }
    }

    #[test]
    fn a_clean_oracle_passes_in_every_loop() {
        let req = requests(12, 1, 24);
        let pool = ServePool::new(pool_config());
        let closed = pool_closed(&pool, &req, 8, Until::Count(48), &mut Tracer::off());
        let open = pool_open(
            &pool,
            &req,
            20_000.0,
            1,
            Duration::from_millis(20),
            &mut Tracer::off(),
        );
        pool.join();
        assert_eq!((closed.attempted, closed.failed), (48, 0));
        assert!(open.attempted > 0 && open.failed == 0);
        assert_eq!(open.lag.count(), open.attempted);

        let mut lb = Loopback::start().expect("loopback server");
        let pacing = Pacing::Open {
            rate: 20_000.0,
            seed: 1,
            dur: Duration::from_millis(20),
        };
        let mut tr = Tracer::new(Instant::now());
        let wire = wire_phase(&mut lb, &req, pacing, &mut tr);
        let report = lb.finish();
        assert!(wire.attempted > 0 && wire.failed == 0 && !wire.broken);
        assert_eq!(report.net.protocol_errors, 0);
        assert_eq!(tr.agg("net.roundtrip").count, wire.attempted);
        assert!(tr.mean_self_us("net.roundtrip") <= tr.mean_us("net.roundtrip"));
    }
}

//! The TCP front-end: accept loop, per-connection reader/writer
//! threads, quota admission, connection limits, timeouts and
//! drain-on-shutdown.
//!
//! ## Threading model
//!
//! One listener thread (the caller of [`NetServer::run`]) accepts in a
//! nonblocking loop so it can poll the stop flag. Each connection gets
//! a *reader* thread (decodes frames, admits against quotas, submits
//! to the pool) and a *writer* thread (serializes replies). The two
//! are joined by an in-order channel: the reader enqueues either an
//! immediate frame (rejects, pongs) or a pending [`JobHandle`]; the
//! writer resolves handles in FIFO order, so every connection sees its
//! responses in submission order even though the pool executes out of
//! order. Backpressure is end-to-end — a slow reader of results slows
//! its own submissions, nobody else's.
//!
//! ## Batched frame I/O
//!
//! Transport cost is paid per burst, not per frame. The reader reads
//! through a 64 KiB buffer, so one `read` takes in every request the
//! peer has pipelined and the frames already buffered parse without
//! another syscall. The writer appends each resolved reply to one
//! reused buffer and sends it with one `write_all` when the channel
//! runs dry, when the next job is still running (so a ready frame is
//! never held back behind a slow one), when a close is due, or when
//! the buffer reaches 64 KiB. A frame larger than that goes out whole
//! and the buffer then shrinks back, so a connection holds at most
//! 64 KiB of read buffer plus 64 KiB and one frame of write buffer.
//! [`NetStatsSnapshot::read_calls`] and
//! [`NetStatsSnapshot::write_calls`] count the syscalls against
//! `frames_in` and `frames_out`.
//!
//! ## Shutdown
//!
//! A [`FrameKind::Shutdown`] admin frame (or [`NetServer::stop_handle`])
//! sets one flag. The accept loop stops taking connections; every
//! reader notices at its next read-timeout tick, flushes pending
//! responses, says [`FrameKind::Goodbye`] and exits; the pool then
//! drains ([`ServePool::shutdown`] + join) so every accepted job is
//! answered before the process exits. Nothing is dropped silently —
//! the same invariant the pool itself maintains.
//!
//! The wire shutdown is gated by [`ShutdownPolicy`] (loopback-only by
//! default): the data port is multi-tenant, and an ungated Shutdown
//! would let any one tenant drain the server for everyone. A peer the
//! policy excludes gets a typed [`ErrorCode::Denied`] reject and its
//! connection keeps serving.

use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fpfpga_serve::{JobHandle, JobOutcome, MetricsSnapshot, ServeConfig, ServePool, SubmitError};

use crate::adaptive::{AdaptiveConfig, AdaptiveTuner};
use crate::quota::{QuotaBook, QuotaConfig, TenantUsage};
use crate::wire::{
    append_frame, control_frame, decode_spec, encode_reject, encode_result, read_frame_polled,
    ErrorCode, Frame, FrameError, FrameKind, Polled, Reject, WireError, MAX_BODY_LEN,
};

/// How often blocked readers wake to poll the stop flag. Applies only
/// *between* frames: once a frame's first byte has arrived,
/// [`read_frame_polled`] retries partial reads across timeouts, so a
/// TCP retransmit longer than one tick cannot desynchronize the
/// stream.
const POLL_TICK: Duration = Duration::from_millis(25);

/// How long a peer may stall *mid-frame* before the connection is
/// dropped. Generous enough for several TCP retransmission timeouts on
/// a congested real-network path; a peer that cannot finish a ≤ 16 MiB
/// frame in this long is gone or hostile.
const FRAME_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-connection read buffer: one `read` takes in up to this many
/// bytes of pipelined request frames.
const READ_BUF: usize = 64 << 10;

/// Per-connection write buffer: replies coalesce up to this many bytes
/// before a flush, and the buffer shrinks back to it after a larger
/// frame.
const WRITE_BUF: usize = 64 << 10;

/// Retry hint sent with a connection-limit reject.
const CONN_RETRY_AFTER: Duration = Duration::from_millis(25);

/// Retry hint sent with a queue-full reject.
const QUEUE_RETRY_AFTER: Duration = Duration::from_millis(1);

/// Who may drain the server with a [`FrameKind::Shutdown`] frame. The
/// data port is multi-tenant: without gating, any client could deny
/// service to every other tenant with one frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShutdownPolicy {
    /// Never honor a wire shutdown; only [`StopHandle`] stops the
    /// server. A Shutdown frame gets an [`ErrorCode::Denied`] reject
    /// and the connection keeps serving.
    Deny,
    /// Honor shutdown only from loopback peers (the default): local
    /// operators can drain, remote tenants cannot.
    #[default]
    LoopbackOnly,
    /// Honor shutdown from any peer — single-tenant/lab use only.
    Any,
}

/// Everything the front-end needs to serve.
#[derive(Clone)]
pub struct NetConfig {
    /// The pool configuration (workers, queues, policies, tech).
    pub serve: ServeConfig,
    /// Per-tenant rate limits.
    pub quotas: QuotaConfig,
    /// Maximum simultaneous connections; the next one is refused with
    /// [`ErrorCode::ConnLimit`] and a retry-after hint.
    pub max_connections: usize,
    /// Close a connection that sends no frame for this long.
    pub idle_timeout: Duration,
    /// Adaptive coalescing (None = leave the pool's window fixed).
    pub adaptive: Option<AdaptiveConfig>,
    /// Which peers may drain the server over the wire.
    pub shutdown_policy: ShutdownPolicy,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            serve: ServeConfig::default(),
            quotas: QuotaConfig::unlimited(),
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            adaptive: None,
            shutdown_policy: ShutdownPolicy::default(),
        }
    }
}

/// Lock-free transport counters (the pool keeps its own job metrics).
#[derive(Default)]
struct NetStats {
    accepted: AtomicU64,
    refused_conns: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    rejects: AtomicU64,
    protocol_errors: AtomicU64,
    read_calls: AtomicU64,
    write_calls: AtomicU64,
}

/// A point-in-time copy of the transport counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused at the limit.
    pub refused_conns: u64,
    /// Frames read.
    pub frames_in: u64,
    /// Frames written.
    pub frames_out: u64,
    /// Request frames seen.
    pub requests: u64,
    /// Response frames sent (completed jobs).
    pub responses: u64,
    /// Reject frames sent.
    pub rejects: u64,
    /// Frames that failed to parse (stream then closed).
    pub protocol_errors: u64,
    /// `read` calls on connection sockets, idle-tick timeouts and
    /// end-of-stream included.
    pub read_calls: u64,
    /// `write` calls on connection sockets (connection-limit refusals
    /// excluded, like their frames).
    pub write_calls: u64,
}

impl NetStats {
    fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            refused_conns: self.refused_conns.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            rejects: self.rejects.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            read_calls: self.read_calls.load(Ordering::Relaxed),
            write_calls: self.write_calls.load(Ordering::Relaxed),
        }
    }
}

/// What [`NetServer::run`] returns after a clean drain.
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// Transport counters.
    pub net: NetStatsSnapshot,
    /// Final pool metrics (completions, latency histogram, …).
    pub pool: MetricsSnapshot,
    /// Per-tenant admitted/refused meters, sorted by tenant (meters
    /// evicted at the tracking cap are not listed).
    pub tenants: Vec<(String, TenantUsage)>,
    /// Tenant meters evicted at the
    /// [`QuotaConfig::max_tracked_tenants`] cap.
    pub evicted_tenants: u64,
}

/// Asks a running server to drain and exit (clonable, thread-safe).
#[derive(Clone)]
pub struct StopHandle {
    stop: Arc<AtomicBool>,
}

impl StopHandle {
    /// Trigger the drain. Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// A bound, not-yet-running server.
pub struct NetServer {
    listener: TcpListener,
    config: NetConfig,
    stop: Arc<AtomicBool>,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port, then read
    /// [`NetServer::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, config: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(NetServer {
            listener,
            config,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that asks the accept loop to drain and exit.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle {
            stop: self.stop.clone(),
        }
    }

    /// Serve until stopped (by a [`FrameKind::Shutdown`] frame or the
    /// [`StopHandle`]), then drain the pool and report.
    pub fn run(self) -> ServerReport {
        let NetServer {
            listener,
            config,
            stop,
        } = self;
        let pool = Arc::new(ServePool::new(config.serve.clone()));
        let quotas = Arc::new(QuotaBook::new(config.quotas.clone()));
        let stats = Arc::new(NetStats::default());
        let active = Arc::new(AtomicUsize::new(0));
        let tuner = config
            .adaptive
            .map(|cfg| AdaptiveTuner::start(pool.clone(), cfg));

        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if active.load(Ordering::Relaxed) >= config.max_connections {
                        stats.refused_conns.fetch_add(1, Ordering::Relaxed);
                        refuse_connection(stream);
                        continue;
                    }
                    stats.accepted.fetch_add(1, Ordering::Relaxed);
                    active.fetch_add(1, Ordering::Relaxed);
                    let ctx = ConnCtx {
                        pool: pool.clone(),
                        quotas: quotas.clone(),
                        stats: stats.clone(),
                        stop: stop.clone(),
                        active: active.clone(),
                        idle_timeout: config.idle_timeout,
                        shutdown_policy: config.shutdown_policy,
                    };
                    conns.push(
                        std::thread::Builder::new()
                            .name("fpunet-conn".into())
                            .spawn(move || ctx.serve(stream))
                            .expect("spawn connection thread"),
                    );
                    // Reap finished connection threads so a long-lived
                    // server doesn't accumulate handles.
                    conns.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        drop(listener);
        for h in conns {
            let _ = h.join();
        }
        if let Some(t) = tuner {
            t.stop();
        }
        // Every connection thread is joined and the tuner is stopped,
        // so this is the last Arc: drain the pool properly (join waits
        // for queued jobs to resolve).
        pool.shutdown();
        let pool_metrics = match Arc::try_unwrap(pool) {
            Ok(p) => p.join(),
            Err(p) => p.metrics(),
        };
        ServerReport {
            net: stats.snapshot(),
            pool: pool_metrics,
            tenants: quotas.all_usage(),
            evicted_tenants: quotas.evicted(),
        }
    }
}

/// Tell a surplus connection to go away, with a retry hint.
fn refuse_connection(mut stream: TcpStream) {
    let reject = Frame {
        kind: FrameKind::Reject,
        req_id: 0,
        body: encode_reject(&Reject {
            code: ErrorCode::ConnLimit,
            retry_after: CONN_RETRY_AFTER,
            detail: "connection limit reached".into(),
        }),
    };
    let mut out = Vec::new();
    let _ = append_frame(&mut out, &reject);
    let _ = append_frame(&mut out, &control_frame(FrameKind::Goodbye, 0));
    let _ = stream.write_all(&out);
}

/// What the reader hands the writer, in order.
enum Reply {
    /// Write this frame now.
    Now(Frame),
    /// Wait for the job, then write its response/reject.
    Job { req_id: u64, handle: JobHandle },
    /// Write the frame (if any) and close the connection.
    Close(Option<Frame>),
}

/// Everything one connection's reader needs.
struct ConnCtx {
    pool: Arc<ServePool>,
    quotas: Arc<QuotaBook>,
    stats: Arc<NetStats>,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    idle_timeout: Duration,
    shutdown_policy: ShutdownPolicy,
}

impl ConnCtx {
    fn serve(self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(POLL_TICK));
        let allow_shutdown = match self.shutdown_policy {
            ShutdownPolicy::Deny => false,
            ShutdownPolicy::Any => true,
            ShutdownPolicy::LoopbackOnly => stream
                .peer_addr()
                .map(|a| a.ip().is_loopback())
                .unwrap_or(false),
        };
        let write_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                self.active.fetch_sub(1, Ordering::Relaxed);
                return;
            }
        };
        let (tx, rx) = mpsc::channel::<Reply>();
        let wstats = self.stats.clone();
        let writer = std::thread::Builder::new()
            .name("fpunet-writer".into())
            .spawn(move || {
                let sink = Metered {
                    stream: write_half,
                    stats: wstats.clone(),
                };
                writer_loop(&mut Outbox::new(sink), rx, &wstats)
            })
            .expect("spawn writer thread");

        let source = Metered {
            stream,
            stats: self.stats.clone(),
        };
        self.reader_loop(
            BufReader::with_capacity(READ_BUF, source),
            &tx,
            allow_shutdown,
        );

        drop(tx); // writer drains pending replies, then exits
        let _ = writer.join();
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    fn reader_loop(&self, mut stream: impl Read, tx: &mpsc::Sender<Reply>, allow_shutdown: bool) {
        let mut last_activity = Instant::now();
        loop {
            match read_frame_polled(&mut stream, FRAME_STALL_TIMEOUT) {
                Ok(Polled::Frame(frame)) => {
                    self.stats.frames_in.fetch_add(1, Ordering::Relaxed);
                    last_activity = Instant::now();
                    match frame.kind {
                        FrameKind::Request => {
                            self.stats.requests.fetch_add(1, Ordering::Relaxed);
                            let reply = self.handle_request(frame);
                            if tx.send(reply).is_err() {
                                return; // writer died; nothing to do
                            }
                        }
                        FrameKind::Ping => {
                            let pong = control_frame(FrameKind::Pong, frame.req_id);
                            if tx.send(Reply::Now(pong)).is_err() {
                                return;
                            }
                        }
                        FrameKind::Shutdown if !allow_shutdown => {
                            // An unprivileged peer must not drain a
                            // shared server; refuse with a typed
                            // reject and keep serving (the frame was
                            // well-delimited, the stream is synced).
                            let reject = reject_frame(
                                frame.req_id,
                                ErrorCode::Denied,
                                Duration::ZERO,
                                "shutdown not permitted for this peer".into(),
                            );
                            if tx.send(Reply::Now(reject)).is_err() {
                                return;
                            }
                        }
                        FrameKind::Shutdown => {
                            // Admin drain: flag the whole server, then
                            // flush this connection's pending replies
                            // (FIFO) and say goodbye.
                            self.stop.store(true, Ordering::Relaxed);
                            let bye = control_frame(FrameKind::Goodbye, frame.req_id);
                            let _ = tx.send(Reply::Close(Some(bye)));
                            return;
                        }
                        FrameKind::Goodbye => {
                            let _ = tx.send(Reply::Close(None));
                            return;
                        }
                        // Server-only frames from a client are a
                        // protocol violation.
                        FrameKind::Response | FrameKind::Reject | FrameKind::Pong => {
                            self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            let reject = reject_frame(
                                frame.req_id,
                                ErrorCode::Malformed,
                                Duration::ZERO,
                                format!("unexpected {:?} frame from client", frame.kind),
                            );
                            let _ = tx.send(Reply::Close(Some(reject)));
                            return;
                        }
                    }
                }
                // The tick between frames: poll the stop flag and the
                // idle clock, then wait again. (Mid-frame timeouts are
                // retried inside read_frame_polled and never get
                // here.)
                Ok(Polled::Idle) => {
                    if self.stop.load(Ordering::Relaxed) {
                        let bye = control_frame(FrameKind::Goodbye, 0);
                        let _ = tx.send(Reply::Close(Some(bye)));
                        return;
                    }
                    if last_activity.elapsed() >= self.idle_timeout {
                        let bye = control_frame(FrameKind::Goodbye, 0);
                        let _ = tx.send(Reply::Close(Some(bye)));
                        return;
                    }
                }
                Err(FrameError::Eof) => {
                    let _ = tx.send(Reply::Close(None));
                    return;
                }
                Err(FrameError::Io(_)) => {
                    let _ = tx.send(Reply::Close(None));
                    return;
                }
                Err(FrameError::Wire(we)) => {
                    // After a framing error the byte stream is
                    // unsynchronized; reject and close.
                    self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let code = match we {
                        WireError::TooLarge(_) => ErrorCode::TooLarge,
                        WireError::BadVersion(_) => ErrorCode::BadVersion,
                        _ => ErrorCode::Malformed,
                    };
                    let reject = reject_frame(0, code, Duration::ZERO, we.to_string());
                    let _ = tx.send(Reply::Close(Some(reject)));
                    return;
                }
            }
        }
    }

    /// Decode, meter, submit. Any refusal becomes an immediate typed
    /// reject; acceptance becomes a pending handle.
    fn handle_request(&self, frame: Frame) -> Reply {
        let req_id = frame.req_id;
        let body_len = frame.body.len() as u64;
        let spec = match decode_spec(&frame.body) {
            Ok(s) => s,
            Err(e) => {
                // A per-request decode error leaves the stream
                // synchronized (the frame was well-delimited), so the
                // connection survives.
                self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return Reply::Now(reject_frame(
                    req_id,
                    ErrorCode::Malformed,
                    Duration::ZERO,
                    e.to_string(),
                ));
            }
        };
        if let Err(denied) = self
            .quotas
            .admit(spec.tenant.as_deref(), body_len, Instant::now())
        {
            return Reply::Now(reject_frame(
                req_id,
                denied.code,
                denied.retry_after,
                format!(
                    "tenant {:?} over {} budget",
                    spec.tenant.as_deref().unwrap_or(""),
                    if denied.code == ErrorCode::QuotaOps {
                        "request-rate"
                    } else {
                        "byte-rate"
                    }
                ),
            ));
        }
        match self.pool.submit(spec) {
            Ok(handle) => Reply::Job { req_id, handle },
            Err(e) => {
                let (code, retry_after) = match &e {
                    SubmitError::Invalid(_) => (ErrorCode::Invalid, Duration::ZERO),
                    SubmitError::Rejected { .. } => (ErrorCode::Rejected, QUEUE_RETRY_AFTER),
                    SubmitError::Closed => (ErrorCode::Closed, Duration::ZERO),
                    SubmitError::Budget { .. } => (ErrorCode::Budget, Duration::ZERO),
                };
                Reply::Now(reject_frame(req_id, code, retry_after, e.to_string()))
            }
        }
    }
}

fn reject_frame(req_id: u64, code: ErrorCode, retry_after: Duration, detail: String) -> Frame {
    Frame {
        kind: FrameKind::Reject,
        req_id,
        body: encode_reject(&Reject {
            code,
            retry_after,
            detail,
        }),
    }
}

/// The frame a resolved job outcome becomes. A completed result too
/// big for one frame (a small matmul request can legally produce a
/// result matrix far over 16 MiB) is turned into a typed
/// [`ErrorCode::TooLarge`] reject before anything is written — never
/// an unsendable buffer, a desynced client, or (past 4 GiB) a wrapped
/// length prefix. The result is already in memory and its encoding is
/// no larger, so it is encoded first and the body length checked.
fn outcome_frame(req_id: u64, outcome: JobOutcome, stats: &NetStats) -> Frame {
    match outcome {
        JobOutcome::Completed(result) => {
            let body = encode_result(&result);
            if body.len() > MAX_BODY_LEN as usize {
                return reject_frame(
                    req_id,
                    ErrorCode::TooLarge,
                    Duration::ZERO,
                    format!(
                        "result of {} bytes exceeds the {} byte frame cap; shrink the request",
                        body.len(),
                        MAX_BODY_LEN
                    ),
                );
            }
            stats.responses.fetch_add(1, Ordering::Relaxed);
            Frame {
                kind: FrameKind::Response,
                req_id,
                body,
            }
        }
        JobOutcome::TimedOut => reject_frame(
            req_id,
            ErrorCode::TimedOut,
            Duration::ZERO,
            "deadline expired before execution".into(),
        ),
        JobOutcome::Shed => reject_frame(
            req_id,
            ErrorCode::Shed,
            QUEUE_RETRY_AFTER,
            "displaced by higher-priority work".into(),
        ),
        JobOutcome::Cancelled => reject_frame(
            req_id,
            ErrorCode::Cancelled,
            Duration::ZERO,
            "cancelled before execution".into(),
        ),
        JobOutcome::Failed(detail) => {
            reject_frame(req_id, ErrorCode::Failed, Duration::ZERO, detail)
        }
    }
}

/// A connection socket that counts its `read` and `write` calls into
/// the transport counters.
struct Metered {
    stream: TcpStream,
    stats: Arc<NetStats>,
}

impl Read for Metered {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stats.read_calls.fetch_add(1, Ordering::Relaxed);
        self.stream.read(buf)
    }
}

impl Write for Metered {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stats.write_calls.fetch_add(1, Ordering::Relaxed);
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// One connection's outgoing frames: appended to one reused buffer,
/// sent with one `write_all` per flush.
struct Outbox<W> {
    sink: W,
    buf: Vec<u8>,
    /// Frames in `buf`.
    frames: u64,
}

impl<W: Write> Outbox<W> {
    fn new(sink: W) -> Outbox<W> {
        Outbox {
            sink,
            buf: Vec::with_capacity(WRITE_BUF),
            frames: 0,
        }
    }

    /// Queue one frame. Fails only for a body over the frame cap.
    fn push(&mut self, frame: &Frame, stats: &NetStats) -> io::Result<()> {
        append_frame(&mut self.buf, frame)?;
        self.frames += 1;
        if frame.kind == FrameKind::Reject {
            stats.rejects.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Send everything queued, then give back the capacity a frame
    /// larger than [`WRITE_BUF`] grew the buffer to.
    fn flush(&mut self, stats: &NetStats) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.sink.write_all(&self.buf)?;
        stats.frames_out.fetch_add(self.frames, Ordering::Relaxed);
        self.buf.clear();
        self.buf.shrink_to(WRITE_BUF);
        self.frames = 0;
        Ok(())
    }
}

/// Drain the reply channel in order, resolving job handles as they
/// come due. FIFO delivery is the per-connection ordering guarantee.
/// Replies coalesce in `out` and are flushed when the channel is
/// empty, before waiting on a job that is not done, on close, and at
/// [`WRITE_BUF`] bytes. On a write error the peer is gone: return, and
/// pending handles resolve unobserved.
fn writer_loop<W: Write>(out: &mut Outbox<W>, rx: mpsc::Receiver<Reply>, stats: &NetStats) {
    loop {
        // Block only with nothing queued; otherwise an empty channel
        // ends the burst and the queued frames go out now.
        let reply = if out.buf.is_empty() {
            match rx.recv() {
                Ok(reply) => reply,
                Err(_) => return,
            }
        } else {
            match rx.try_recv() {
                Ok(reply) => reply,
                Err(e) => {
                    if out.flush(stats).is_err() || e == TryRecvError::Disconnected {
                        return;
                    }
                    continue;
                }
            }
        };
        let (frame, close) = match reply {
            Reply::Now(f) => (Some(f), false),
            Reply::Job { req_id, handle } => {
                if !handle.is_done() && out.flush(stats).is_err() {
                    return;
                }
                (Some(outcome_frame(req_id, handle.wait(), stats)), false)
            }
            Reply::Close(f) => (f, true),
        };
        let queued = frame.map_or(Ok(()), |f| out.push(&f, stats));
        if queued.is_err() || close {
            let _ = out.flush(stats);
            return;
        }
        if out.buf.len() >= WRITE_BUF && out.flush(stats).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_reject, read_frame, write_frame};
    use fpfpga_serve::{run_serial, EltOp, Job, JobResult, JobSpec, Kernel};
    use fpfpga_softfp::{Flags, FpFormat, RoundMode};
    use std::sync::Mutex;

    /// A sink that records each `write` call; clones share the record,
    /// so a test can watch a writer thread.
    #[derive(Clone, Default)]
    struct Calls(Arc<Mutex<Vec<Vec<u8>>>>);

    impl Write for Calls {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Calls {
        fn writes(&self) -> Vec<Vec<u8>> {
            self.0.lock().unwrap().clone()
        }

        fn bytes(&self) -> Vec<u8> {
            self.writes().concat()
        }
    }

    /// The frames as back-to-back `write_frame` encodings.
    fn encoded(frames: &[Frame]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            write_frame(&mut out, f).unwrap();
        }
        out
    }

    fn pong(req_id: u64) -> Frame {
        control_frame(FrameKind::Pong, req_id)
    }

    fn add_spec(i: u64) -> JobSpec {
        let kernel = Kernel::Eltwise {
            op: EltOp::Add,
            stages: 6,
            pairs: vec![(0x3f80_0000 + i, 0x4000_0000), (i, i)],
        };
        JobSpec::new(Job::uniform(
            kernel,
            FpFormat::SINGLE,
            RoundMode::NearestEven,
        ))
    }

    fn response(req_id: u64, result: &JobResult) -> Frame {
        Frame {
            kind: FrameKind::Response,
            req_id,
            body: encode_result(result),
        }
    }

    fn until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn burst_of_resolved_replies_goes_out_in_one_write() {
        let config = ServeConfig::with_workers(1);
        let specs: Vec<JobSpec> = (0..4).map(add_spec).collect();
        let want = run_serial(&specs, &config.tech);
        let pool = ServePool::new(config);
        let handles: Vec<JobHandle> = specs.into_iter().map(|s| pool.submit(s).unwrap()).collect();
        until("jobs to finish", || handles.iter().all(JobHandle::is_done));

        let (tx, rx) = mpsc::channel();
        let mut expect = Vec::new();
        for ((req_id, handle), result) in (0..).zip(handles).zip(&want) {
            tx.send(Reply::Now(pong(100 + req_id))).unwrap();
            tx.send(Reply::Job { req_id, handle }).unwrap();
            expect.extend([pong(100 + req_id), response(req_id, result)]);
        }
        drop(tx);
        let (sink, stats) = (Calls::default(), NetStats::default());
        writer_loop(&mut Outbox::new(sink.clone()), rx, &stats);
        assert_eq!(sink.writes().len(), 1, "one write for the whole burst");
        assert_eq!(sink.bytes(), encoded(&expect));
        assert_eq!(stats.frames_out.load(Ordering::Relaxed), 8);
        assert_eq!(stats.responses.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn frames_ahead_of_a_pending_job_go_out_before_it_resolves() {
        let config = ServeConfig::with_workers(1);
        let want = run_serial(&[add_spec(3)], &config.tech);
        let pool = ServePool::new(config);
        pool.pause();
        let handle = pool.submit(add_spec(3)).unwrap();
        let (tx, rx) = mpsc::channel();
        tx.send(Reply::Now(pong(1))).unwrap();
        tx.send(Reply::Now(pong(2))).unwrap();
        tx.send(Reply::Job { req_id: 3, handle }).unwrap();
        tx.send(Reply::Now(pong(4))).unwrap();
        drop(tx);

        let sink = Calls::default();
        let writer = {
            let sink = sink.clone();
            std::thread::spawn(move || {
                writer_loop(&mut Outbox::new(sink), rx, &NetStats::default())
            })
        };
        let ahead = encoded(&[pong(1), pong(2)]);
        until("the frames ahead of the job", || sink.bytes() == ahead);
        assert_eq!(sink.writes(), vec![ahead], "sent in one write");
        assert_eq!(pool.metrics().completed, 0, "the job is still pending");
        pool.resume();
        writer.join().unwrap();
        let all = [pong(1), pong(2), response(3, &want[0]), pong(4)];
        assert_eq!(sink.bytes(), encoded(&all));
    }

    #[test]
    fn close_flushes_everything_queued_before_it() {
        let (tx, rx) = mpsc::channel();
        let bye = control_frame(FrameKind::Goodbye, 0);
        tx.send(Reply::Now(pong(1))).unwrap();
        tx.send(Reply::Now(pong(2))).unwrap();
        tx.send(Reply::Close(Some(bye.clone()))).unwrap();
        tx.send(Reply::Now(pong(3))).unwrap();
        // The sender stays open: only the close ends the writer.
        let sink = Calls::default();
        writer_loop(&mut Outbox::new(sink.clone()), rx, &NetStats::default());
        assert_eq!(sink.writes(), vec![encoded(&[pong(1), pong(2), bye])]);
        drop(tx);
    }

    #[test]
    fn large_frame_arrives_intact_and_the_buffer_shrinks_back() {
        let big = Frame {
            kind: FrameKind::Response,
            req_id: 1,
            body: (0..3u32 << 20).map(|i| (i % 251) as u8).collect(),
        };
        let frames = [big, pong(2), pong(3), pong(4)];
        let (tx, rx) = mpsc::channel();
        for f in &frames {
            tx.send(Reply::Now(f.clone())).unwrap();
        }
        drop(tx);
        let sink = Calls::default();
        let mut out = Outbox::new(sink.clone());
        writer_loop(&mut out, rx, &NetStats::default());
        let bytes = sink.bytes();
        let mut wire = bytes.as_slice();
        for f in &frames {
            assert_eq!(&read_frame(&mut wire).unwrap(), f);
        }
        assert!(wire.is_empty());
        assert_eq!(sink.writes().len(), 2, "the big frame, then the small ones");
        assert!(out.buf.capacity() <= WRITE_BUF, "{}", out.buf.capacity());
    }

    #[test]
    fn oversized_result_becomes_typed_toolarge_reject() {
        // A result bigger than one frame can carry (here ~24 MiB of
        // MVM output) must come back as a typed reject, not desync the
        // client with an oversized length prefix.
        let stats = NetStats::default();
        let big = JobOutcome::Completed(JobResult::Mvm {
            y: vec![0u64; 3 << 20],
            cycles: 1,
        });
        let frame = outcome_frame(7, big, &stats);
        assert_eq!(frame.kind, FrameKind::Reject);
        assert_eq!(frame.req_id, 7);
        let reject = decode_reject(&frame.body).expect("typed reject body");
        assert_eq!(reject.code, ErrorCode::TooLarge);
        assert_eq!(stats.responses.load(Ordering::Relaxed), 0);
        // The reject itself fits a frame.
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("reject is sendable");
    }

    #[test]
    fn oversized_eltwise_result_becomes_typed_toolarge_reject() {
        // 5 header bytes plus 9 per element (bits + flags): just over
        // what one frame body can carry.
        let stats = NetStats::default();
        let n = MAX_BODY_LEN as usize / 9 + 1;
        let big = JobOutcome::Completed(JobResult::Eltwise(vec![(0, Flags::NONE); n]));
        let frame = outcome_frame(11, big, &stats);
        assert_eq!(frame.kind, FrameKind::Reject);
        assert_eq!(frame.req_id, 11);
        let reject = decode_reject(&frame.body).expect("typed reject body");
        assert_eq!(reject.code, ErrorCode::TooLarge);
        assert_eq!(stats.responses.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn normal_result_still_encodes_as_response() {
        let stats = NetStats::default();
        let ok = JobOutcome::Completed(JobResult::Mvm {
            y: vec![1, 2, 3],
            cycles: 9,
        });
        let frame = outcome_frame(3, ok, &stats);
        assert_eq!(frame.kind, FrameKind::Response);
        assert_eq!(stats.responses.load(Ordering::Relaxed), 1);
    }
}

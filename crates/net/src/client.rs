//! A blocking, pipelining-friendly client for the wire protocol.
//!
//! [`NetClient`] numbers its requests and lets the caller keep any
//! number in flight ([`NetClient::send`] / [`NetClient::recv`]); the
//! server answers each connection in submission order, so `recv`
//! returns ids in the order `send` issued them. [`NetClient::call`] is
//! the one-shot convenience wrapper. Answers are read through a
//! buffered read half, so a burst the server coalesced into one write
//! costs one `read`; `send` still writes one frame per call.

use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use fpfpga_serve::{JobResult, JobSpec};

use crate::wire::{
    control_frame, decode_reject, decode_result, encode_spec, read_frame, write_frame, ErrorCode,
    Frame, FrameError, FrameKind, Reject, WireError,
};

/// How one request ended, from the client's point of view.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The job ran; the result is bit-identical to a local run.
    Completed(JobResult),
    /// The server refused or could not finish the request.
    Rejected(Reject),
}

/// Client-side failures (transport or protocol, never job-level — job
/// refusals are [`Response::Rejected`] data, not errors).
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(io::Error),
    /// The peer sent bytes that don't parse.
    Wire(WireError),
    /// The server said goodbye (drain) while we waited for a response.
    ServerClosed,
    /// The server refused an administrative request (e.g. a Shutdown
    /// frame from a peer its policy excludes).
    Denied(Reject),
    /// The server sent a frame kind that makes no sense here.
    Unexpected(FrameKind),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::ServerClosed => write!(f, "server closed the connection"),
            NetError::Denied(rej) => write!(f, "server refused: {}", rej.detail),
            NetError::Unexpected(k) => write!(f, "unexpected frame kind {k:?}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> NetError {
        match e {
            FrameError::Eof => NetError::ServerClosed,
            FrameError::Io(e) => NetError::Io(e),
            FrameError::Wire(w) => NetError::Wire(w),
        }
    }
}

/// One connection to an `fpunetd` server.
pub struct NetClient {
    /// The write half: one frame per `write`.
    stream: TcpStream,
    /// The read half, buffered: one `read` takes in every answer the
    /// server has coalesced into a burst.
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// Request answers that arrived while waiting for something else
    /// (a pong, say); [`NetClient::recv`] drains these first, so a
    /// [`NetClient::ping`] issued with requests in flight never eats
    /// or chokes on their responses.
    pending: VecDeque<(u64, Response)>,
}

impl NetClient {
    /// Connect (TCP_NODELAY on — frames are small and latency counts).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            next_id: 1,
            pending: VecDeque::new(),
        })
    }

    /// Send one request without waiting; returns its request id.
    /// Responses arrive in send order on this connection.
    pub fn send(&mut self, spec: &JobSpec) -> Result<u64, NetError> {
        let req_id = self.next_id;
        self.next_id += 1;
        let frame = Frame {
            kind: FrameKind::Request,
            req_id,
            body: encode_spec(spec),
        };
        write_frame(&mut self.stream, &frame)?;
        Ok(req_id)
    }

    /// Decode a Response/Reject frame into the answer pair.
    fn answer(frame: Frame) -> Result<(u64, Response), NetError> {
        match frame.kind {
            FrameKind::Response => {
                let result = decode_result(&frame.body).map_err(NetError::Wire)?;
                Ok((frame.req_id, Response::Completed(result)))
            }
            FrameKind::Reject => {
                let reject = decode_reject(&frame.body).map_err(NetError::Wire)?;
                Ok((frame.req_id, Response::Rejected(reject)))
            }
            other => Err(NetError::Unexpected(other)),
        }
    }

    /// Block for the next response or reject (answers buffered while
    /// waiting for a pong come first, in arrival order).
    pub fn recv(&mut self) -> Result<(u64, Response), NetError> {
        if let Some(buffered) = self.pending.pop_front() {
            return Ok(buffered);
        }
        loop {
            let frame = read_frame(&mut self.reader)?;
            match frame.kind {
                FrameKind::Response | FrameKind::Reject => return Self::answer(frame),
                FrameKind::Goodbye => return Err(NetError::ServerClosed),
                FrameKind::Pong => continue, // stray keepalive answer
                other => return Err(NetError::Unexpected(other)),
            }
        }
    }

    /// Send one request and wait for its answer.
    pub fn call(&mut self, spec: &JobSpec) -> Result<Response, NetError> {
        let id = self.send(spec)?;
        let (got, resp) = self.recv()?;
        if got != id {
            return Err(NetError::Unexpected(FrameKind::Response));
        }
        Ok(resp)
    }

    /// Liveness probe; returns the round-trip time. Safe to call with
    /// requests in flight: their responses and rejects are buffered in
    /// arrival order for later [`NetClient::recv`] calls, never lost.
    /// (The server answers FIFO, so the measured round trip includes
    /// any queued work ahead of the ping.)
    pub fn ping(&mut self) -> Result<Duration, NetError> {
        let req_id = self.next_id;
        self.next_id += 1;
        let start = Instant::now();
        write_frame(&mut self.stream, &control_frame(FrameKind::Ping, req_id))?;
        loop {
            let frame = read_frame(&mut self.reader)?;
            match frame.kind {
                FrameKind::Pong if frame.req_id == req_id => return Ok(start.elapsed()),
                FrameKind::Pong => continue,
                FrameKind::Response | FrameKind::Reject => {
                    self.pending.push_back(Self::answer(frame)?);
                }
                FrameKind::Goodbye => return Err(NetError::ServerClosed),
                other => return Err(NetError::Unexpected(other)),
            }
        }
    }

    /// Ask the server to drain and exit; waits for its goodbye. Any
    /// responses still owed to this connection arrive first (the
    /// server flushes in order). If this peer is not allowed to drain
    /// the server (see `ShutdownPolicy`), returns
    /// [`NetError::Denied`] with the server's typed reject.
    pub fn shutdown_server(mut self) -> Result<(), NetError> {
        write_frame(&mut self.stream, &control_frame(FrameKind::Shutdown, 0))?;
        loop {
            match read_frame(&mut self.reader) {
                Ok(f) if f.kind == FrameKind::Goodbye => return Ok(()),
                Ok(f) if f.kind == FrameKind::Reject => {
                    // Rejects to earlier pipelined requests drain
                    // through here too; only a Denied-coded reject
                    // answers the shutdown itself.
                    let reject = decode_reject(&f.body).map_err(NetError::Wire)?;
                    if reject.code == ErrorCode::Denied {
                        return Err(NetError::Denied(reject));
                    }
                }
                Ok(_) => continue, // late responses before the goodbye
                Err(FrameError::Eof) => return Ok(()),
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Close this connection politely.
    pub fn goodbye(mut self) -> Result<(), NetError> {
        write_frame(&mut self.stream, &control_frame(FrameKind::Goodbye, 0))?;
        Ok(())
    }
}

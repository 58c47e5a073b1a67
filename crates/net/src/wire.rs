//! The wire protocol: a length-prefixed binary framing with a full,
//! lossless codec for [`JobSpec`] and [`JobResult`].
//!
//! ## Frame layout
//!
//! ```text
//! ┌──────────┬─────────┬─────────┬───────────────┬────────────┐
//! │ len: u32 │ ver: u8 │ kind:u8 │ req_id: u64   │ body …     │
//! │ LE       │ (=2)    │         │ LE            │ (len − 10) │
//! └──────────┴─────────┴─────────┴───────────────┴────────────┘
//! ```
//!
//! `len` counts every byte after itself (version, kind, request id and
//! body), so a reader needs exactly two reads per frame. All integers
//! are little-endian; floating-point payloads travel as raw bit
//! patterns (`u64`), never as text — the protocol is lossless by
//! construction, which is what lets the equivalence property ("wire
//! results are bit-identical to [`fpfpga_serve::run_serial`]") hold.
//!
//! Decoding never panics on malformed input: every length is bounds-
//! checked against [`MAX_FRAME_LEN`] before allocation, every enum tag
//! and format width is validated ([`FpFormat::try_new`]), and a
//! truncated buffer yields [`WireError::Truncated`].

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use fpfpga_fabric::report::ImplementationReport;
use fpfpga_fabric::synthesis::{Objective, SynthesisOptions};
use fpfpga_fpu::analysis::CoreKind;
use fpfpga_matmul::array::ArrayStats;
use fpfpga_matmul::{Cplx, ErrorBudget, Matrix};
use fpfpga_serve::{ApOp, EltOp, JobResult, JobSpec, Kernel, PolicySel, Priority};
use fpfpga_softfp::limb::LimbFormat;
use fpfpga_softfp::{Flags, FpFormat, PrecisionPolicy, RoundMode};

/// Protocol version carried in every frame header.
pub const WIRE_VERSION: u8 = 2;

/// Hard ceiling on one frame's `len` field (16 MiB). Anything larger
/// is refused before allocation — a malformed or hostile length prefix
/// must not become an out-of-memory.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Bytes of header counted by `len` (version + kind + request id).
const HEADER_AFTER_LEN: u32 = 1 + 1 + 8;

/// Largest body one frame can carry. [`write_frame`] refuses anything
/// bigger, so an oversized payload becomes a typed error at the sender
/// instead of a `TooLarge`/desync at the receiver (or, past 4 GiB, a
/// silently wrapped length prefix).
pub const MAX_BODY_LEN: u32 = MAX_FRAME_LEN - HEADER_AFTER_LEN;

/// What a frame is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: run this [`JobSpec`]; body is the encoded spec.
    Request = 1,
    /// Server → client: the job completed; body is the [`JobResult`].
    Response = 2,
    /// Server → client: the request was refused or did not complete;
    /// body is an [`ErrorCode`], an optional retry-after hint and a
    /// human-readable detail string.
    Reject = 3,
    /// Client → server (admin): drain and exit. The server answers
    /// every in-flight job, sends [`FrameKind::Goodbye`], and shuts
    /// down cleanly.
    Shutdown = 4,
    /// Either direction: the peer is closing this connection after the
    /// frame; no body.
    Goodbye = 5,
    /// Client → server liveness probe; no body.
    Ping = 6,
    /// Server → client answer to [`FrameKind::Ping`]; echoes the id.
    Pong = 7,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            1 => FrameKind::Request,
            2 => FrameKind::Response,
            3 => FrameKind::Reject,
            4 => FrameKind::Shutdown,
            5 => FrameKind::Goodbye,
            6 => FrameKind::Ping,
            7 => FrameKind::Pong,
            _ => return None,
        })
    }
}

/// Why a request was refused, as carried in a [`FrameKind::Reject`]
/// body. The first four mirror [`fpfpga_serve::SubmitError`] one to
/// one; the rest are transport- and tenancy-layer refusals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Payload failed kernel preconditions (`SubmitError::Invalid`).
    Invalid = 1,
    /// Shard queue full, backpressure (`SubmitError::Rejected`).
    Rejected = 2,
    /// Pool is draining (`SubmitError::Closed`).
    Closed = 3,
    /// Auto-tune budget unsatisfiable (`SubmitError::Budget`).
    Budget = 4,
    /// Tenant exceeded its request-rate quota.
    QuotaOps = 5,
    /// Tenant exceeded its byte-rate quota.
    QuotaBytes = 6,
    /// Server at its connection limit.
    ConnLimit = 7,
    /// The frame could not be decoded.
    Malformed = 8,
    /// Unsupported protocol version.
    BadVersion = 9,
    /// Frame length over [`MAX_FRAME_LEN`].
    TooLarge = 10,
    /// Accepted, but the deadline expired before a worker ran it.
    TimedOut = 11,
    /// Accepted, but displaced by higher-priority work.
    Shed = 12,
    /// Accepted, but cancelled before execution.
    Cancelled = 13,
    /// The kernel failed while running.
    Failed = 14,
    /// An administrative frame (e.g. [`FrameKind::Shutdown`]) was
    /// refused — the peer is not allowed to issue it.
    Denied = 15,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Invalid,
            2 => ErrorCode::Rejected,
            3 => ErrorCode::Closed,
            4 => ErrorCode::Budget,
            5 => ErrorCode::QuotaOps,
            6 => ErrorCode::QuotaBytes,
            7 => ErrorCode::ConnLimit,
            8 => ErrorCode::Malformed,
            9 => ErrorCode::BadVersion,
            10 => ErrorCode::TooLarge,
            11 => ErrorCode::TimedOut,
            12 => ErrorCode::Shed,
            13 => ErrorCode::Cancelled,
            14 => ErrorCode::Failed,
            15 => ErrorCode::Denied,
            _ => return None,
        })
    }

    /// Is retrying the same request later sensible?
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Rejected
                | ErrorCode::QuotaOps
                | ErrorCode::QuotaBytes
                | ErrorCode::ConnLimit
                | ErrorCode::TimedOut
                | ErrorCode::Shed
        )
    }
}

/// A decoded reject body.
#[derive(Clone, Debug, PartialEq)]
pub struct Reject {
    /// Why the request was refused.
    pub code: ErrorCode,
    /// Back off at least this long before retrying (0 = no hint).
    pub retry_after: Duration,
    /// Human-readable detail, may be empty.
    pub detail: String,
}

/// One frame, owned.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// What the frame is.
    pub kind: FrameKind,
    /// Correlates responses with requests; the server echoes the
    /// client's id, so pipelined clients match replies without
    /// assuming ordering.
    pub req_id: u64,
    /// Kind-specific payload.
    pub body: Vec<u8>,
}

/// Everything that can go wrong decoding bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated,
    /// A tag, width or length field held an impossible value.
    Malformed(String),
    /// The frame's `len` exceeded [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// The peer speaks a different protocol version.
    BadVersion(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::TooLarge(len) => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
        }
    }
}

impl std::error::Error for WireError {}

fn bad(what: impl Into<String>) -> WireError {
    WireError::Malformed(what.into())
}

// ---------------------------------------------------------------------------
// Primitive writer/reader
// ---------------------------------------------------------------------------

/// Append-only encoder over a byte vector.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn boolean(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn u64_slice(&mut self, xs: &[u64]) {
        self.u32(xs.len() as u32);
        for &x in xs {
            self.u64(x);
        }
    }
}

/// Bounds-checked decoder over a byte slice.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn boolean(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(bad(format!("bool byte {v}"))),
        }
    }
    /// A length prefix that still fits in the remaining buffer when
    /// multiplied by `elem_size` — checked *before* allocation so a
    /// hostile length cannot balloon memory.
    fn len_prefix(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let need = n
            .checked_mul(elem_size.max(1))
            .ok_or_else(|| bad("length overflow"))?;
        if need > self.buf.len().saturating_sub(self.pos) {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String, WireError> {
        let n = self.len_prefix(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("string not UTF-8"))
    }
    fn u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.len_prefix(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u64()?);
        }
        Ok(v)
    }
    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Domain type codecs
// ---------------------------------------------------------------------------

fn enc_format(e: &mut Enc, fmt: FpFormat) {
    e.u8(fmt.exp_bits() as u8);
    e.u8(fmt.frac_bits() as u8);
}

fn dec_format(d: &mut Dec) -> Result<FpFormat, WireError> {
    let exp = d.u8()? as u32;
    let frac = d.u8()? as u32;
    FpFormat::try_new(exp, frac).ok_or_else(|| bad(format!("format widths e={exp} f={frac}")))
}

fn enc_policy(e: &mut Enc, p: PrecisionPolicy) {
    enc_format(e, p.compute);
    enc_format(e, p.accumulate);
    enc_format(e, p.storage);
}

fn dec_policy(d: &mut Dec) -> Result<PrecisionPolicy, WireError> {
    Ok(PrecisionPolicy::new(
        dec_format(d)?,
        dec_format(d)?,
        dec_format(d)?,
    ))
}

fn enc_mode(e: &mut Enc, m: RoundMode) {
    e.u8(match m {
        RoundMode::NearestEven => 0,
        RoundMode::Truncate => 1,
    });
}

fn dec_mode(d: &mut Dec) -> Result<RoundMode, WireError> {
    match d.u8()? {
        0 => Ok(RoundMode::NearestEven),
        1 => Ok(RoundMode::Truncate),
        v => Err(bad(format!("round mode tag {v}"))),
    }
}

fn enc_matrix(e: &mut Enc, m: &Matrix) {
    enc_format(e, m.format());
    e.u32(m.rows() as u32);
    e.u32(m.cols() as u32);
    for &bits in m.data() {
        e.u64(bits);
    }
}

fn dec_matrix(d: &mut Dec) -> Result<Matrix, WireError> {
    let fmt = dec_format(d)?;
    let rows = d.u32()? as usize;
    let cols = d.u32()? as usize;
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| bad("matrix size overflow"))?;
    if n.checked_mul(8)
        .ok_or_else(|| bad("matrix size overflow"))?
        > d.buf.len().saturating_sub(d.pos)
    {
        return Err(WireError::Truncated);
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(d.u64()?);
    }
    Ok(Matrix::from_bits(fmt, rows, cols, data))
}

fn enc_cplx_vec(e: &mut Enc, xs: &[Cplx]) {
    e.u32(xs.len() as u32);
    for c in xs {
        e.u64(c.re);
        e.u64(c.im);
    }
}

fn dec_cplx_vec(d: &mut Dec) -> Result<Vec<Cplx>, WireError> {
    let n = d.len_prefix(16)?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let re = d.u64()?;
        let im = d.u64()?;
        v.push(Cplx { re, im });
    }
    Ok(v)
}

fn enc_flags(e: &mut Enc, f: Flags) {
    e.u8(f.to_bits());
}

fn dec_flags(d: &mut Dec) -> Result<Flags, WireError> {
    let bits = d.u8()?;
    if bits & !0b1_1111 != 0 {
        return Err(bad(format!("flag bits {bits:#04x}")));
    }
    Ok(Flags::from_bits(bits))
}

fn enc_kernel(e: &mut Enc, k: &Kernel) {
    match k {
        Kernel::Eltwise { op, stages, pairs } => {
            e.u8(0);
            e.u8(match op {
                EltOp::Add => 0,
                EltOp::Sub => 1,
                EltOp::Mul => 2,
                EltOp::Div => 3,
                EltOp::Sqrt => 4,
            });
            e.u32(*stages);
            e.u32(pairs.len() as u32);
            for &(a, b) in pairs {
                e.u64(a);
                e.u64(b);
            }
        }
        Kernel::Dot {
            mult_stages,
            add_stages,
            x,
            y,
        } => {
            e.u8(1);
            e.u32(*mult_stages);
            e.u32(*add_stages);
            e.u64_slice(x);
            e.u64_slice(y);
        }
        Kernel::MatMul {
            mult_stages,
            add_stages,
            a,
            b,
        } => {
            e.u8(2);
            e.u32(*mult_stages);
            e.u32(*add_stages);
            enc_matrix(e, a);
            enc_matrix(e, b);
        }
        Kernel::Mvm {
            mult_stages,
            add_stages,
            p,
            a,
            x,
        } => {
            e.u8(3);
            e.u32(*mult_stages);
            e.u32(*add_stages);
            e.u64(*p as u64);
            enc_matrix(e, a);
            e.u64_slice(x);
        }
        Kernel::Lu {
            div_stages,
            mac_stages,
            p,
            a,
        } => {
            e.u8(4);
            e.u32(*div_stages);
            e.u32(*mac_stages);
            e.u32(*p);
            enc_matrix(e, a);
        }
        Kernel::Fft {
            mult_stages,
            add_stages,
            data,
            inverse,
        } => {
            e.u8(5);
            e.u32(*mult_stages);
            e.u32(*add_stages);
            enc_cplx_vec(e, data);
            e.boolean(*inverse);
        }
        Kernel::Apfloat { op, fmt, a, b, c } => {
            e.u8(7);
            e.u8(match op {
                ApOp::Add => 0,
                ApOp::Sub => 1,
                ApOp::Mul => 2,
                ApOp::Fma => 3,
            });
            e.u8(fmt.exp_bits() as u8);
            e.u32(fmt.frac_bits());
            // Every operand is exactly `fmt.limbs()` words, so streams
            // carry one count and raw limbs — no per-element prefixes.
            enc_limb_stream(e, a);
            enc_limb_stream(e, b);
            enc_limb_stream(e, c);
        }
        Kernel::Sweep { kind, opts } => {
            e.u8(6);
            e.u8(match kind {
                CoreKind::Adder => 0,
                CoreKind::Multiplier => 1,
                CoreKind::Divider => 2,
                CoreKind::Sqrt => 3,
            });
            e.u8(obj_tag(opts.synthesis));
            e.u8(obj_tag(opts.par));
        }
    }
}

fn enc_limb_stream(e: &mut Enc, xs: &[Vec<u64>]) {
    e.u32(xs.len() as u32);
    for enc in xs {
        for &limb in enc {
            e.u64(limb);
        }
    }
}

/// Decode a stream of `limbs`-word operands. The element count is
/// bounds-checked against the remaining buffer *scaled by the operand
/// size* before allocation.
fn dec_limb_stream(d: &mut Dec, limbs: usize) -> Result<Vec<Vec<u64>>, WireError> {
    let n = d.len_prefix(limbs.saturating_mul(8))?;
    let mut xs = Vec::with_capacity(n);
    for _ in 0..n {
        let mut enc = Vec::with_capacity(limbs);
        for _ in 0..limbs {
            enc.push(d.u64()?);
        }
        xs.push(enc);
    }
    Ok(xs)
}

fn obj_tag(o: Objective) -> u8 {
    match o {
        Objective::Speed => 0,
        Objective::Area => 1,
    }
}

fn dec_obj(d: &mut Dec) -> Result<Objective, WireError> {
    match d.u8()? {
        0 => Ok(Objective::Speed),
        1 => Ok(Objective::Area),
        v => Err(bad(format!("objective tag {v}"))),
    }
}

fn dec_kernel(d: &mut Dec) -> Result<Kernel, WireError> {
    Ok(match d.u8()? {
        0 => {
            let op = match d.u8()? {
                0 => EltOp::Add,
                1 => EltOp::Sub,
                2 => EltOp::Mul,
                3 => EltOp::Div,
                4 => EltOp::Sqrt,
                v => return Err(bad(format!("eltwise op tag {v}"))),
            };
            let stages = d.u32()?;
            let n = d.len_prefix(16)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let a = d.u64()?;
                let b = d.u64()?;
                pairs.push((a, b));
            }
            Kernel::Eltwise { op, stages, pairs }
        }
        1 => Kernel::Dot {
            mult_stages: d.u32()?,
            add_stages: d.u32()?,
            x: d.u64_vec()?,
            y: d.u64_vec()?,
        },
        2 => Kernel::MatMul {
            mult_stages: d.u32()?,
            add_stages: d.u32()?,
            a: dec_matrix(d)?,
            b: dec_matrix(d)?,
        },
        3 => {
            let mult_stages = d.u32()?;
            let add_stages = d.u32()?;
            let p = d.u64()? as usize;
            let a = dec_matrix(d)?;
            let x = d.u64_vec()?;
            Kernel::Mvm {
                mult_stages,
                add_stages,
                p,
                a,
                x,
            }
        }
        4 => Kernel::Lu {
            div_stages: d.u32()?,
            mac_stages: d.u32()?,
            p: d.u32()?,
            a: dec_matrix(d)?,
        },
        5 => {
            let mult_stages = d.u32()?;
            let add_stages = d.u32()?;
            let data = dec_cplx_vec(d)?;
            let inverse = d.boolean()?;
            Kernel::Fft {
                mult_stages,
                add_stages,
                data,
                inverse,
            }
        }
        6 => {
            let kind = match d.u8()? {
                0 => CoreKind::Adder,
                1 => CoreKind::Multiplier,
                2 => CoreKind::Divider,
                3 => CoreKind::Sqrt,
                v => return Err(bad(format!("core kind tag {v}"))),
            };
            let synthesis = dec_obj(d)?;
            let par = dec_obj(d)?;
            Kernel::Sweep {
                kind,
                opts: SynthesisOptions { synthesis, par },
            }
        }
        7 => {
            let op = match d.u8()? {
                0 => ApOp::Add,
                1 => ApOp::Sub,
                2 => ApOp::Mul,
                3 => ApOp::Fma,
                v => return Err(bad(format!("apfloat op tag {v}"))),
            };
            let exp = d.u8()? as u32;
            let frac = d.u32()?;
            let fmt = LimbFormat::try_new(exp, frac)
                .ok_or_else(|| bad(format!("wide format widths e={exp} f={frac}")))?;
            let limbs = fmt.limbs();
            let a = dec_limb_stream(d, limbs)?;
            let b = dec_limb_stream(d, limbs)?;
            let c = dec_limb_stream(d, limbs)?;
            Kernel::Apfloat { op, fmt, a, b, c }
        }
        v => return Err(bad(format!("kernel tag {v}"))),
    })
}

fn enc_policy_sel(e: &mut Enc, sel: &PolicySel) {
    match sel {
        PolicySel::Default => e.u8(0),
        PolicySel::Fixed(p) => {
            e.u8(1);
            enc_policy(e, *p);
        }
        PolicySel::Auto { storage, budget } => {
            e.u8(2);
            enc_format(e, *storage);
            match budget {
                ErrorBudget::MaxUlp(v) => {
                    e.u8(0);
                    e.f64(*v);
                }
                ErrorBudget::MaxRelative(v) => {
                    e.u8(1);
                    e.f64(*v);
                }
            }
        }
    }
}

fn dec_policy_sel(d: &mut Dec) -> Result<PolicySel, WireError> {
    Ok(match d.u8()? {
        0 => PolicySel::Default,
        1 => PolicySel::Fixed(dec_policy(d)?),
        2 => {
            let storage = dec_format(d)?;
            let budget = match d.u8()? {
                0 => ErrorBudget::MaxUlp(d.f64()?),
                1 => ErrorBudget::MaxRelative(d.f64()?),
                v => return Err(bad(format!("budget tag {v}"))),
            };
            PolicySel::Auto { storage, budget }
        }
        v => return Err(bad(format!("policy selector tag {v}"))),
    })
}

/// Encode a [`JobSpec`] as a request body.
pub fn encode_spec(spec: &JobSpec) -> Vec<u8> {
    let mut e = Enc::new();
    enc_kernel(&mut e, &spec.kernel);
    enc_policy_sel(&mut e, &spec.policy);
    enc_mode(&mut e, spec.mode);
    match &spec.tenant {
        Some(t) => {
            e.u8(1);
            e.str(t);
        }
        None => e.u8(0),
    }
    e.u8(match spec.priority {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    });
    match spec.deadline {
        Some(dl) => {
            e.u8(1);
            e.u64(dl.as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        None => e.u8(0),
    }
    e.buf
}

/// Decode a request body back into a [`JobSpec`]. Rejects trailing
/// garbage.
pub fn decode_spec(body: &[u8]) -> Result<JobSpec, WireError> {
    let mut d = Dec::new(body);
    let kernel = dec_kernel(&mut d)?;
    let policy = dec_policy_sel(&mut d)?;
    let mode = dec_mode(&mut d)?;
    let tenant = match d.u8()? {
        0 => None,
        1 => Some(d.str()?),
        v => return Err(bad(format!("tenant flag {v}"))),
    };
    let priority = match d.u8()? {
        0 => Priority::Low,
        1 => Priority::Normal,
        2 => Priority::High,
        v => return Err(bad(format!("priority tag {v}"))),
    };
    let deadline = match d.u8()? {
        0 => None,
        1 => Some(Duration::from_nanos(d.u64()?)),
        v => return Err(bad(format!("deadline flag {v}"))),
    };
    d.finish()?;
    Ok(JobSpec {
        kernel,
        policy,
        mode,
        tenant,
        priority,
        deadline,
    })
}

/// Encode a [`JobResult`] as a response body.
pub fn encode_result(r: &JobResult) -> Vec<u8> {
    let mut e = Enc::new();
    match r {
        JobResult::Eltwise(rs) => {
            e.u8(0);
            e.u32(rs.len() as u32);
            for &(bits, flags) in rs {
                e.u64(bits);
                enc_flags(&mut e, flags);
            }
        }
        JobResult::Dot {
            value,
            flags,
            cycles,
        } => {
            e.u8(1);
            e.u64(*value);
            enc_flags(&mut e, *flags);
            e.u64(*cycles);
        }
        JobResult::MatMul { c, stats } => {
            e.u8(2);
            enc_matrix(&mut e, c);
            e.u64(stats.cycles);
            e.u64(stats.useful_macs);
            e.u64(stats.pad_macs);
            e.u64(stats.idle_cycles);
            e.u64(stats.bram_accesses);
        }
        JobResult::Mvm { y, cycles } => {
            e.u8(3);
            e.u64_slice(y);
            e.u64(*cycles);
        }
        JobResult::Lu {
            lu,
            cycles,
            divs,
            macs,
            flags,
        } => {
            e.u8(4);
            enc_matrix(&mut e, lu);
            e.u64(*cycles);
            e.u64(*divs);
            e.u64(*macs);
            enc_flags(&mut e, *flags);
        }
        JobResult::Fft { data, cycles } => {
            e.u8(5);
            enc_cplx_vec(&mut e, data);
            e.u64(*cycles);
        }
        JobResult::Apfloat(rs) => {
            e.u8(7);
            e.u32(rs.len() as u32);
            // Unlike the request, results carry a per-element limb
            // count: the decoder has no format to derive it from.
            for (bits, flags) in rs {
                e.u64_slice(bits);
                enc_flags(&mut e, *flags);
            }
        }
        JobResult::Sweep { opt, depths } => {
            e.u8(6);
            e.str(&opt.name);
            e.u32(opt.stages);
            e.u32(opt.slices);
            e.u32(opt.luts);
            e.u32(opt.ffs);
            e.u32(opt.bmults);
            e.u32(opt.brams);
            e.f64(opt.clock_mhz);
            e.f64(opt.worst_stage_ns);
            e.u64(*depths as u64);
        }
    }
    e.buf
}

/// Decode a response body back into a [`JobResult`]. Rejects trailing
/// garbage.
pub fn decode_result(body: &[u8]) -> Result<JobResult, WireError> {
    let mut d = Dec::new(body);
    let r = match d.u8()? {
        0 => {
            let n = d.len_prefix(9)?;
            let mut rs = Vec::with_capacity(n);
            for _ in 0..n {
                let bits = d.u64()?;
                let flags = dec_flags(&mut d)?;
                rs.push((bits, flags));
            }
            JobResult::Eltwise(rs)
        }
        1 => JobResult::Dot {
            value: d.u64()?,
            flags: dec_flags(&mut d)?,
            cycles: d.u64()?,
        },
        2 => JobResult::MatMul {
            c: dec_matrix(&mut d)?,
            stats: ArrayStats {
                cycles: d.u64()?,
                useful_macs: d.u64()?,
                pad_macs: d.u64()?,
                idle_cycles: d.u64()?,
                bram_accesses: d.u64()?,
            },
        },
        3 => JobResult::Mvm {
            y: d.u64_vec()?,
            cycles: d.u64()?,
        },
        4 => JobResult::Lu {
            lu: dec_matrix(&mut d)?,
            cycles: d.u64()?,
            divs: d.u64()?,
            macs: d.u64()?,
            flags: dec_flags(&mut d)?,
        },
        5 => JobResult::Fft {
            data: dec_cplx_vec(&mut d)?,
            cycles: d.u64()?,
        },
        7 => {
            let n = d.len_prefix(5)?;
            let mut rs = Vec::with_capacity(n);
            for _ in 0..n {
                let bits = d.u64_vec()?;
                let flags = dec_flags(&mut d)?;
                rs.push((bits, flags));
            }
            JobResult::Apfloat(rs)
        }
        6 => JobResult::Sweep {
            opt: ImplementationReport {
                name: d.str()?,
                stages: d.u32()?,
                slices: d.u32()?,
                luts: d.u32()?,
                ffs: d.u32()?,
                bmults: d.u32()?,
                brams: d.u32()?,
                clock_mhz: d.f64()?,
                worst_stage_ns: d.f64()?,
            },
            depths: d.u64()? as usize,
        },
        v => return Err(bad(format!("result tag {v}"))),
    };
    d.finish()?;
    Ok(r)
}

/// Encode a reject body.
pub fn encode_reject(r: &Reject) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(r.code as u8);
    e.u64(r.retry_after.as_nanos().min(u128::from(u64::MAX)) as u64);
    e.str(&r.detail);
    e.buf
}

/// Decode a reject body.
pub fn decode_reject(body: &[u8]) -> Result<Reject, WireError> {
    let mut d = Dec::new(body);
    let code = d.u8()?;
    let code = ErrorCode::from_u8(code).ok_or_else(|| bad(format!("error code {code}")))?;
    let retry_after = Duration::from_nanos(d.u64()?);
    let detail = d.str()?;
    d.finish()?;
    Ok(Reject {
        code,
        retry_after,
        detail,
    })
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// What [`read_frame`] can report.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the socket cleanly between frames.
    Eof,
    /// An OS-level read/write failure (including read timeouts, which
    /// surface as `WouldBlock`/`TimedOut` io errors).
    Io(io::Error),
    /// The bytes arrived but did not parse.
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "io error: {e}"),
            FrameError::Wire(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> FrameError {
        FrameError::Wire(e)
    }
}

/// Append one encoded frame to `out` (the length prefix makes the
/// stream self-delimiting, so frames concatenate). A body over
/// [`MAX_BODY_LEN`] is refused with `InvalidInput` and `out` is left
/// untouched — sending it would either desync the receiver (which
/// must reject the oversized length) or, past 4 GiB, silently wrap
/// the `u32` prefix and corrupt the framing.
pub fn append_frame(out: &mut Vec<u8>, frame: &Frame) -> io::Result<()> {
    if frame.body.len() > MAX_BODY_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame body of {} bytes exceeds the {} byte cap",
                frame.body.len(),
                MAX_BODY_LEN
            ),
        ));
    }
    let len = HEADER_AFTER_LEN + frame.body.len() as u32;
    out.reserve(4 + len as usize);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(WIRE_VERSION);
    out.push(frame.kind as u8);
    out.extend_from_slice(&frame.req_id.to_le_bytes());
    out.extend_from_slice(&frame.body);
    Ok(())
}

/// Serialize one frame to `w` in a single `write_all` (see
/// [`append_frame`] for the size cap).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let mut out = Vec::new();
    append_frame(&mut out, frame)?;
    w.write_all(&out)
}

fn check_frame_len(len: u32) -> Result<(), FrameError> {
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Wire(WireError::TooLarge(len)));
    }
    if len < HEADER_AFTER_LEN {
        return Err(FrameError::Wire(bad(format!(
            "frame length {len} too short"
        ))));
    }
    Ok(())
}

/// Bytes after the length prefix and before the body: version, kind
/// and request id.
type FrameHeader = [u8; HEADER_AFTER_LEN as usize];

/// Assemble a frame from its header and body (`body.len()` is the
/// already-validated `len` less the header).
fn parse_frame(header: FrameHeader, body: Vec<u8>) -> Result<Frame, FrameError> {
    let ver = header[0];
    if ver != WIRE_VERSION {
        return Err(FrameError::Wire(WireError::BadVersion(ver)));
    }
    let kind = FrameKind::from_u8(header[1])
        .ok_or_else(|| FrameError::Wire(bad(format!("frame kind {}", header[1]))))?;
    let req_id = u64::from_le_bytes(header[2..].try_into().unwrap());
    Ok(Frame { kind, req_id, body })
}

/// Read one frame from `r`. A clean EOF *before any byte* of a frame
/// is [`FrameError::Eof`]; EOF mid-frame is a truncation error.
///
/// Meant for blocking streams with no read timeout (the client side).
/// A stream whose read timeout doubles as a poll tick must use
/// [`read_frame_polled`] instead: here a timeout mid-frame would
/// surface as an error after `read_exact` has already consumed part of
/// the frame, and restarting would desynchronize the stream.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut len_buf = [0u8; 4];
    // First byte by hand so "peer hung up between frames" and "peer
    // died mid-frame" are distinguishable.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(FrameError::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    len_buf[0] = first[0];
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf);
    check_frame_len(len)?;
    let mut header = FrameHeader::default();
    r.read_exact(&mut header)?;
    let mut body = vec![0u8; (len - HEADER_AFTER_LEN) as usize];
    r.read_exact(&mut body)?;
    parse_frame(header, body)
}

/// What [`read_frame_polled`] produced.
#[derive(Debug)]
pub enum Polled {
    /// A complete frame arrived.
    Frame(Frame),
    /// The read timed out before the first byte of a frame: the
    /// connection is idle and the stream is still synchronized. Poll
    /// whatever needs polling and call again.
    Idle,
}

/// Fill `buf` from `r`, retrying `WouldBlock`/`TimedOut` until
/// `deadline`. Unlike `read_exact`, a timeout does not lose the bytes
/// already consumed — the next attempt continues the same fill.
fn read_full(r: &mut impl Read, buf: &mut [u8], deadline: Instant) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    return Err(FrameError::Io(io::Error::other(
                        "mid-frame read stalled past the stall timeout",
                    )));
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame from a stream whose read timeout doubles as an idle
/// poll tick (the server side sets a short socket timeout so blocked
/// readers can poll the stop flag).
///
/// A timeout *before any byte* of a frame returns [`Polled::Idle`] —
/// the caller polls and retries. Once the first byte has arrived the
/// frame is read to completion, retrying the same partial read across
/// timeouts (one TCP retransmit easily outlasts a 25 ms tick) for up
/// to `stall_timeout`; only a peer that stalls mid-frame longer than
/// that is an error. This is what keeps a slow-but-healthy network
/// link from desynchronizing the stream: a mid-frame timeout never
/// discards consumed bytes and never reparses mid-frame bytes as a new
/// length prefix.
///
/// The deadline is only enforced when the underlying reads time out,
/// so it relies on the stream's read timeout to wake up; `r` should be
/// a blocking stream with a short read timeout, not a nonblocking
/// socket (which would spin). Wrapped in a `BufReader`, every frame
/// already buffered parses without a syscall; a timed-out fill leaves
/// the buffer as it was, so the semantics above hold unchanged.
pub fn read_frame_polled(r: &mut impl Read, stall_timeout: Duration) -> Result<Polled, FrameError> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(FrameError::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(Polled::Idle)
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let deadline = Instant::now() + stall_timeout;
    let mut len_buf = [0u8; 4];
    len_buf[0] = first[0];
    read_full(r, &mut len_buf[1..], deadline)?;
    let len = u32::from_le_bytes(len_buf);
    check_frame_len(len)?;
    let mut header = FrameHeader::default();
    read_full(r, &mut header, deadline)?;
    let mut body = vec![0u8; (len - HEADER_AFTER_LEN) as usize];
    read_full(r, &mut body, deadline)?;
    parse_frame(header, body).map(Polled::Frame)
}

/// A bodyless frame of the given kind.
pub fn control_frame(kind: FrameKind, req_id: u64) -> Frame {
    Frame {
        kind,
        req_id,
        body: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpfpga_serve::{synth_trace, TraceConfig};

    #[test]
    fn spec_codec_round_trips_a_synth_trace() {
        // The synthetic trace covers every kernel kind and policy
        // selector the serving layer produces.
        for seed in [1u64, 7, 42, 0xdead_beef] {
            let trace = synth_trace(&TraceConfig {
                seed,
                jobs: 40,
                rate_hz: 1e6,
                ..TraceConfig::default()
            });
            for ev in trace {
                let body = encode_spec(&ev.spec);
                let back = decode_spec(&body).expect("round trip");
                // JobSpec has no PartialEq (Matrix payloads); compare
                // through the debug form, which prints every field.
                assert_eq!(format!("{:?}", back), format!("{:?}", ev.spec));
            }
        }
    }

    #[test]
    fn truncated_spec_never_panics() {
        let trace = synth_trace(&TraceConfig {
            seed: 3,
            jobs: 8,
            rate_hz: 1e6,
            ..TraceConfig::default()
        });
        for ev in trace {
            let body = encode_spec(&ev.spec);
            for cut in 0..body.len() {
                assert!(decode_spec(&body[..cut]).is_err(), "prefix {cut} decoded");
            }
        }
    }

    #[test]
    fn apfloat_codec_round_trips_and_rejects_bad_widths() {
        use fpfpga_serve::{ApOp, Job};
        let fmt = LimbFormat::F128;
        let one = fmt.pack_parts(false, fmt.bias() as u64, &[0, 0]);
        let two = fmt.pack_parts(false, fmt.bias() as u64 + 1, &[0, 0]);
        let spec = JobSpec::new(Job::uniform(
            Kernel::Apfloat {
                op: ApOp::Fma,
                fmt,
                a: vec![one.clone(), two.clone()],
                b: vec![two.clone(), one.clone()],
                c: vec![one.clone(), one.clone()],
            },
            FpFormat::try_new(8, 23).unwrap(),
            RoundMode::NearestEven,
        ));
        let body = encode_spec(&spec);
        let back = decode_spec(&body).expect("round trip");
        assert_eq!(format!("{back:?}"), format!("{spec:?}"));
        // Truncations never panic.
        for cut in 0..body.len() {
            assert!(decode_spec(&body[..cut]).is_err(), "prefix {cut} decoded");
        }
        // An impossible wide geometry is a typed refusal: frac_bits
        // past the 4096 cap fails LimbFormat::try_new in the decoder.
        let mut bad_fmt = body.clone();
        // kernel tag (1) + op tag (1) + exp u8 (1), then frac u32.
        bad_fmt[3..7].copy_from_slice(&5000u32.to_le_bytes());
        match decode_spec(&bad_fmt) {
            Err(WireError::Malformed(m)) => assert!(m.contains("wide format"), "{m}"),
            other => panic!("expected malformed wide format, got {other:?}"),
        }
        // Results round trip too, flags included.
        let r = JobResult::Apfloat(vec![
            (one, Flags::from_bits(0b00011)),
            (two, Flags::from_bits(0)),
        ]);
        assert_eq!(decode_result(&encode_result(&r)).unwrap(), r);
    }

    #[test]
    fn frame_round_trips_through_a_byte_stream() {
        let frame = Frame {
            kind: FrameKind::Request,
            req_id: 0x0123_4567_89ab_cdef,
            body: vec![1, 2, 3, 4, 5],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let got = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(got, frame);
        // And a second read sees clean EOF.
        let mut rest = &buf[buf.len()..];
        assert!(matches!(read_frame(&mut rest), Err(FrameError::Eof)));
    }

    #[test]
    fn oversized_length_is_refused_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        match read_frame(&mut buf.as_slice()) {
            Err(FrameError::Wire(WireError::TooLarge(_))) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        let frame = control_frame(FrameKind::Ping, 9);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        buf[4] = WIRE_VERSION + 1;
        match read_frame(&mut buf.as_slice()) {
            Err(FrameError::Wire(WireError::BadVersion(v))) => {
                assert_eq!(v, WIRE_VERSION + 1)
            }
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn reject_codec_round_trips() {
        let r = Reject {
            code: ErrorCode::QuotaOps,
            retry_after: Duration::from_micros(1234),
            detail: "tenant a over ops budget".into(),
        };
        assert_eq!(decode_reject(&encode_reject(&r)).unwrap(), r);
    }

    #[test]
    fn oversized_body_is_refused_at_the_writer() {
        let frame = Frame {
            kind: FrameKind::Response,
            req_id: 1,
            body: vec![0u8; MAX_BODY_LEN as usize + 1],
        };
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "nothing hit the wire");
        // Appending to a batch refuses it the same way and leaves the
        // frames already queued intact.
        let mut batch = vec![1, 2, 3];
        let err = append_frame(&mut batch, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(batch, [1, 2, 3]);
        // Exactly at the cap is fine.
        let frame = Frame {
            body: vec![0u8; MAX_BODY_LEN as usize],
            ..frame
        };
        write_frame(&mut buf, &frame).unwrap();
        assert_eq!(read_frame(&mut buf.as_slice()).unwrap(), frame);
    }

    /// A reader delivering one byte per call with a `WouldBlock` before
    /// each — the worst-case stall pattern for a framed stream.
    struct Stutter {
        data: Vec<u8>,
        pos: usize,
        hiccup: bool,
    }

    impl io::Read for Stutter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            if self.hiccup {
                self.hiccup = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stall"));
            }
            self.hiccup = true;
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn polled_read_survives_mid_frame_stalls() {
        let frame = Frame {
            kind: FrameKind::Request,
            req_id: 42,
            body: vec![7; 33],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut r = Stutter {
            data: buf,
            pos: 0,
            hiccup: true, // stall even before the first byte
        };
        // The pre-frame stall is an idle tick; after that, every
        // mid-frame stall is retried and the frame arrives intact —
        // this is exactly where `read_frame` would desynchronize.
        let got = loop {
            match read_frame_polled(&mut r, Duration::from_secs(5)).unwrap() {
                Polled::Idle => continue,
                Polled::Frame(f) => break f,
            }
        };
        assert_eq!(got, frame);
        assert!(matches!(
            read_frame_polled(&mut r, Duration::from_secs(5)),
            Err(FrameError::Eof)
        ));
    }

    /// A reader that produces one byte, then stalls forever.
    struct Wedge {
        sent: bool,
    }

    impl io::Read for Wedge {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.sent {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "wedged"));
            }
            self.sent = true;
            buf[0] = 10;
            Ok(1)
        }
    }

    #[test]
    fn polled_read_gives_up_on_a_wedged_peer() {
        let mut r = Wedge { sent: false };
        match read_frame_polled(&mut r, Duration::from_millis(5)) {
            Err(FrameError::Io(e)) => {
                assert_ne!(e.kind(), io::ErrorKind::WouldBlock);
                assert_ne!(e.kind(), io::ErrorKind::TimedOut);
            }
            other => panic!("expected a stall error, got {other:?}"),
        }
    }
}

//! Runtime-dispatched wide batch lanes over the fast-path kernels.
//!
//! The scalar fast lanes in [`crate::fastpath`] run one element at a time.
//! This module adds a third lane that runs [`LANES`] elements per chunk
//! on x86-64 vector units:
//!
//! * **Branchless block kernels on the host's binary64 unit**
//!   (`add_b64_block`, `mul_b64_block`, `fma_block`, `div_b64_block`,
//!   `sqrt_b64_block`), written in vector-value form over a
//!   [`LANES`]-wide word type, so the
//!   all-operands-normal datapath is explicit vector arithmetic with
//!   lane-mask selects instead of branches. The named formats widen
//!   exactly into binary64 (f32 values are binary64 values, and the
//!   paper's 1+11+36 format is binary64 with its low 16 fraction bits
//!   zero). One native operation does the align, multiply and normalize;
//!   an error-free transformation recovers what its rounding lost (TwoSum
//!   for add, sub and the f32 fma, TwoProd for the f48/f64 multiply,
//!   ErrFma for the f48/f64 fma, and the exact remainder `a − q·b` or
//!   `a − r·r`, one `fma`, for divide and square root); and one integer
//!   step rounds the exact value to the format's precision and packs it.
//!   The f48/f64 multiply, fma, divide and square root first scale their
//!   operands to `[1, 2)` (the radicand to `[1, 4)`) and carry the
//!   exponent sum, difference or half as an integer offset into that
//!   step, so no binary64 value they form underflows or overflows,
//!   whatever the operands' exponents. A lane whose add/sub TwoSum
//!   overflows binary64 (f48/f64 only) is finished on the scalar fast
//!   lane, and a divide or square-root tail runs as one padded chunk.
//!   All of this assumes Rust's default FP environment
//!   (round-to-nearest-even, no FTZ/DAZ). The blocks are total over
//!   arbitrary encodings (special operands produce garbage that the
//!   driver blends over — never a panic or UB) and bit-exact twins of
//!   the scalar fast lane (of the generic ops for divide and square
//!   root) on normal operands.
//! * **Special operands resolved in register**, as the paper's cores
//!   resolve them in their denormalize stage: each [`LANES`]-sized chunk
//!   is classified branchlessly (a normality mask) and computed
//!   unconditionally by the datapath block; a chunk with any ±0,
//!   subnormal or ∞ lane (or, for square root, a negative one) also runs
//!   a select-only special block — the generic [`crate::ops`] special
//!   rules, `invalid` and `div_by_zero` included — and
//!   blends it over those lanes. All-normal chunks skip it on one
//!   predictable branch, and a special-heavy batch costs at most about
//!   one extra block per chunk, so throughput no longer depends on the
//!   operand mix.
//! * **Explicit intrinsics engines** behind the `Words` trait: the
//!   block kernels are generic over a lane-word vocabulary (binary64
//!   arithmetic, integer add/sub/logic, uniform shifts, compares-to-mask,
//!   select), and each engine implements it with
//!   `#[target_feature]`-annotated methods — AVX-512 (`__m512i`,
//!   `__mmask8` compares) and AVX2 with FMA3 (`__m256i` pairs). Explicit
//!   intrinsics, not autovectorization: LLVM refuses to vectorize the
//!   long select-chain bodies on its own. The epilogue is vectorized too
//!   — packed flag words become [`Flags`] byte patterns via an
//!   in-register 8-entry LUT and are stored interleaved with the results,
//!   under compile-time layout checks. The bits entry points
//!   ([`crate::fastpath::add_acc_bits`], the `*_bits_into` family and
//!   [`crate::fastpath::fma_rank1_bits`]) take a second sink through the
//!   same binary and fma drivers: result words only, written in element
//!   order into a flat slice or a strided block, with each chunk's flags
//!   decoded by a LUT and OR-ed in register into one [`Flags`] for the
//!   batch. A batch shorter than one chunk of add, sub, mul or fma runs
//!   the scalar fast lane directly. The wide path exists on x86-64 only;
//!   every other target runs the scalar lane.
//! * **A register-resident multiply-accumulate driver** behind
//!   [`crate::fastpath::mac_steps_bits`], the matmul, MVM and dot kernel:
//!   one monomorphization per (compute lane, covering accumulate lane),
//!   column chunks outside and steps inside, so a chunk's accumulators
//!   stay in a register across every step. Each step is the multiply
//!   block rounded to the compute format but kept as its binary64 value
//!   (`round_val_f64`), then TwoSum with the widened accumulators and one
//!   rounding step to the accumulate format; special lanes blend the two
//!   special blocks and TwoSum overflows are redone on the scalar lane,
//!   as in the binary driver. Flag codes are gathered one-hot per step
//!   and decoded once per call.
//! * **Engine by value**: [`active_engine`] detects the best engine once
//!   per process (AVX-512, else AVX2 with FMA3, else
//!   [`SimdEngine::Scalar`]). Every batch entry point in
//!   [`crate::fastpath`] has a `*_with` form that takes the engine as an
//!   argument, and the plain form passes [`active_engine`] — so every
//!   existing consumer (the matmul policy kernels, served eltwise, LU
//!   and FFT, the network front-end) runs the detected engine with zero
//!   call-site changes, while tests and conformance sweeps pin an engine
//!   without touching any process-wide state.

use crate::exceptions::Flags;
use crate::format::FpFormat;
use crate::ops::fma::FMA_GRS;
use crate::round::RoundMode;
use std::cell::Cell;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod wide;
#[cfg(target_arch = "x86_64")]
pub(crate) use wide::{run_bin, run_fma, run_mac};

/// Lanes per chunk. Eight u64 lanes = one 512-bit register (AVX-512) or
/// two 256-bit registers (AVX2) per operand stream; wide enough to keep
/// the vector units busy through the long select chains, narrow enough
/// that the per-chunk classify mask and tail handling stay cheap.
pub const LANES: usize = 8;

// ---------------------------------------------------------------------------
// Engine detection
// ---------------------------------------------------------------------------

/// The datapath a batch runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdEngine {
    /// Per-element scalar fast lane.
    Scalar,
    /// Wide kernels compiled under `#[target_feature(enable =
    /// "avx2,fma")]`. The binary64 blocks need FMA3, so a host with AVX2
    /// but no FMA3 runs [`SimdEngine::Scalar`].
    WideAvx2,
    /// Wide kernels compiled under the AVX-512 feature set
    /// (`avx512f/cd/vl/dq/bw`): one 512-bit register per chunk stream and
    /// compact mask registers.
    WideAvx512,
}

impl SimdEngine {
    /// The engines this host can run, slowest first: `Scalar` always, then
    /// each wide engine that passes runtime feature detection (none off
    /// x86-64).
    pub fn available() -> impl Iterator<Item = SimdEngine> {
        [
            SimdEngine::Scalar,
            SimdEngine::WideAvx2,
            SimdEngine::WideAvx512,
        ]
        .into_iter()
        .filter(|e| e.is_available())
    }

    fn is_available(self) -> bool {
        match self {
            SimdEngine::Scalar => true,
            SimdEngine::WideAvx2 => avx2_available(),
            SimdEngine::WideAvx512 => avx512_available(),
        }
    }
}

/// Cached detection of AVX2 and FMA3, the feature set the AVX2 engine
/// compiles against; always `false` off x86-64.
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Cached detection of the AVX-512 feature set the wide kernels compile
/// against (`avx512f/cd/vl/dq/bw`); always `false` off x86-64.
fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX512: OnceLock<bool> = OnceLock::new();
        *AVX512.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512cd")
                && std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512bw")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The engine the default batch entry points run on: the best one the
/// host supports (AVX-512, then AVX2, then the scalar lane), detected on
/// first use and fixed for the life of the process.
pub fn active_engine() -> SimdEngine {
    static ENGINE: OnceLock<SimdEngine> = OnceLock::new();
    *ENGINE.get_or_init(|| SimdEngine::available().last().unwrap_or(SimdEngine::Scalar))
}

// ---------------------------------------------------------------------------
// Branchless scalar building blocks
// ---------------------------------------------------------------------------

/// Select on u64 values with both arms pre-computed — compiles to a
/// conditional move.
#[inline(always)]
fn sel(c: bool, t: u64, f: u64) -> u64 {
    if c {
        t
    } else {
        f
    }
}

/// Select on i64 values.
#[inline(always)]
fn seli(c: bool, t: i64, f: i64) -> i64 {
    if c {
        t
    } else {
        f
    }
}

/// Index of the most significant set bit via bit-smear + popcount
/// (`-1` for zero).
#[inline(always)]
fn msb_index(x: u64) -> i64 {
    let mut s = x;
    s |= s >> 1;
    s |= s >> 2;
    s |= s >> 4;
    s |= s >> 8;
    s |= s >> 16;
    s |= s >> 32;
    s.count_ones() as i64 - 1
}

/// Full 64×64→128 multiply as `(hi, lo)` u64 words via 32-bit limb
/// splits. All four partial products are 32×32→64; the carry chain is
/// exact for every input pair.
#[inline(always)]
fn widening_mul(x: u64, y: u64) -> (u64, u64) {
    const M32: u64 = 0xffff_ffff;
    let (x0, x1) = (x & M32, x >> 32);
    let (y0, y1) = (y & M32, y >> 32);
    let m00 = x0.wrapping_mul(y0);
    let m01 = x0.wrapping_mul(y1);
    let m10 = x1.wrapping_mul(y0);
    let m11 = x1.wrapping_mul(y1);
    let mid = (m00 >> 32).wrapping_add(m01 & M32).wrapping_add(m10 & M32);
    let lo = (mid << 32) | (m00 & M32);
    let hi = m11
        .wrapping_add(m01 >> 32)
        .wrapping_add(m10 >> 32)
        .wrapping_add(mid >> 32);
    (hi, lo)
}

/// Sticky right shift of a `(hi, lo)` pair by `n` (any `n`; shifts of 128
/// or more are clamped to 127, which is exact for every value this module
/// builds — they all fit well under 127 bits). Returns the shifted pair
/// and a 0/1 sticky word. The `(x << (63 - m)) << 1` double shifts keep
/// every hardware shift amount strictly below 64.
#[inline(always)]
fn shr128_sticky(hi: u64, lo: u64, n: u64) -> (u64, u64, u64) {
    let n = sel(n > 127, 127, n);
    let ge64 = n >= 64;
    let m = (n & 63) as u32;
    // n < 64 frame.
    let a_hi = hi >> m;
    let a_lo = (lo >> m) | ((hi << (63 - m)) << 1);
    let a_lost = (lo << (63 - m)) << 1;
    // n >= 64 frame (shift the high word by n - 64).
    let b_lo = hi >> m;
    let b_lost = ((hi << (63 - m)) << 1) | (lo != 0) as u64;
    let r_hi = sel(ge64, 0, a_hi);
    let r_lo = sel(ge64, b_lo, a_lo);
    let lost = (sel(ge64, b_lost, a_lost) != 0) as u64;
    (r_hi, r_lo, lost)
}

// Packed flag codes. `round_pack_lane` only emits 0, `FL_INEXACT`,
// `FL_OVERFLOW | FL_INEXACT` and `FL_UNDERFLOW | FL_INEXACT`; overflow and
// underflow never coincide, so their joint code is free to mean
// `invalid`, which the wide kernels' special lanes (∞ − ∞, 0 × ∞, 0/0,
// ∞/∞, √negative) raise alone, and that code with `FL_INEXACT` is free to
// mean `div_by_zero`, which only x/0 raises, alone too.
const FL_OVERFLOW: u64 = 1;
const FL_UNDERFLOW: u64 = 2;
const FL_INEXACT: u64 = 4;
const FL_INVALID: u64 = FL_OVERFLOW | FL_UNDERFLOW;
const FL_DIV_BY_ZERO: u64 = FL_INVALID | FL_INEXACT;

/// Expand a lane's packed flag word into [`Flags`]. Only a special
/// operand raises `invalid` (code `FL_INVALID`) or `div_by_zero` (code
/// `FL_DIV_BY_ZERO`).
#[inline(always)]
pub(crate) const fn unpack_flags(fl: u64) -> Flags {
    let range = fl & FL_INVALID;
    let div_by_zero = fl == FL_DIV_BY_ZERO;
    Flags {
        overflow: range == FL_OVERFLOW,
        underflow: range == FL_UNDERFLOW,
        invalid: range == FL_INVALID && !div_by_zero,
        inexact: fl & FL_INEXACT != 0 && !div_by_zero,
        div_by_zero,
    }
}

/// Branchless round + range-checked pack: the select-based twin of
/// `fastpath::round_pack` + `finish_pack`. `kill` zeroes the result and
/// flags (exact cancellation, and a don't-care for special lanes).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn round_pack_lane(
    e: u32,
    f: u32,
    sign: u64,
    exp: i64,
    kept: u64,
    tail: u64,
    grs: u32,
    rtn: bool,
    kill: bool,
) -> (u64, u64) {
    let bias = (1i64 << (e - 1)) - 1;
    let max_exp = ((1i64 << e) - 2) - bias;
    let min_exp = 1 - bias;
    let inexact = tail != 0;
    let half = 1u64 << (grs - 1);
    let round_up = rtn & ((tail > half) | ((tail == half) & (kept & 1 == 1)));
    let rounded = kept.wrapping_add(round_up as u64);
    // Rounding carries out of the hidden position at most once on valid
    // lanes; `!= 0` instead of the raw high bits keeps the correction a
    // 0/1 shift even for the garbage a special lane produces.
    let carry = (rounded >> (f + 1) != 0) as u32;
    let rounded = rounded >> carry;
    let exp = exp + carry as i64;

    let over = exp > max_exp;
    let under = exp < min_exp;
    let over_mag = sel(
        rtn,
        ((1u64 << e) - 1) << f,
        (((1u64 << e) - 2) << f) | ((1u64 << f) - 1),
    );
    // Wraps when out of range; the selects only keep it in range.
    let norm_mag = (((exp + bias) as u64) << f) | (rounded & ((1u64 << f) - 1));
    let mag = sel(over, over_mag, sel(under, 0, norm_mag));
    let fl = ((over as u64) * FL_OVERFLOW)
        | ((under as u64) * FL_UNDERFLOW)
        | (((inexact | over | under) as u64) * FL_INEXACT);
    (sel(kill, 0, (sign << (e + f)) | mag), sel(kill, 0, fl))
}

// ---------------------------------------------------------------------------
// Scalar pair-datapath fma (the fast lane's wide-format kernel)
// ---------------------------------------------------------------------------
//
// The body is total: any bit pattern in, a defined (bits, flags) word
// pair out — no shift ever reaches the register width and no arithmetic
// garbage can overflow a checked operation. On operands that satisfy the
// fast-lane precondition (all normal) the result is bit-identical to the
// generic path; that is what the conformance sweeps and the
// `simd_vs_generic` proptests pin down.

/// `(hi, lo)`-pair fma datapath for formats whose aligned sum exceeds 64
/// bits (W48, DOUBLE, any dynamic format with `2f + FMA_GRS + 4 > 64`).
/// This is the limb-split replacement for the old `u128` wide path: the
/// exact product comes from [`widening_mul`], alignment from
/// [`shr128_sticky`], and the add/sub/compare chain runs on word pairs
/// with explicit carries — every step a native 64-bit operation. Also
/// used by the scalar fast lane via [`fma_wide_scalar`].
#[inline(always)]
fn fma_lane_wide(e: u32, f: u32, a: u64, b: u64, c: u64, rtn: bool) -> (u64, u64) {
    let sign_shift = e + f;
    let frac_mask = (1u64 << f) - 1;
    let hidden = 1u64 << f;
    let bias = (1i64 << (e - 1)) - 1;
    let em = (1u64 << e) - 1;

    let psign = (a ^ b) >> sign_shift & 1;
    let csign = c >> sign_shift & 1;
    let pexp = (((a >> f) & em) as i64 - bias) + (((b >> f) & em) as i64 - bias);
    let cexp = ((c >> f) & em) as i64 - bias;

    let (p_hi, p_lo) = widening_mul((a & frac_mask) | hidden, (b & frac_mask) | hidden);
    let pw_hi = (p_hi << FMA_GRS) | (p_lo >> (64 - FMA_GRS));
    let pw_lo = p_lo << FMA_GRS;
    let c_wide = ((c & frac_mask) | hidden) << FMA_GRS;

    let shift = cexp - pexp + f as i64;
    let cdom = shift > (f + 2) as i64;
    let cneg = shift < 0;
    let mid = !cdom & !cneg;

    // v: the operand that moves; u: the anchor.
    let v0_hi = sel(cdom, pw_hi, 0);
    let v0_lo = sel(cdom, pw_lo, c_wide);
    let ramt = sel(
        cdom,
        shift as u64,
        sel(cneg, shift.wrapping_neg() as u64, 0),
    );
    let (vr_hi, vr_lo, lost) = shr128_sticky(v0_hi, v0_lo, ramt);
    let lamt = sel(mid, shift as u64, 0) as u32; // mid: 0 <= shift <= f+2
    let v_hi = (vr_hi << lamt) | ((vr_lo >> 1) >> (63 - lamt));
    let v_lo = (vr_lo << lamt) | lost; // lost is 0 whenever lamt > 0

    let u_hi = sel(cdom, 0, pw_hi);
    let u_lo = sel(cdom, c_wide, pw_lo);
    let us = sel(cdom, csign, psign);
    let vs = sel(cdom, psign, csign);
    let e_lsb = seli(
        cdom,
        cexp - (f + FMA_GRS) as i64,
        pexp - (2 * f + FMA_GRS) as i64,
    );

    // Signed combine on pairs: add-with-carry / subtract-with-borrow via
    // wrapping ops and compares (the pair twin of `ops::fma::combine`).
    let ssame = us == vs;
    let s_lo = u_lo.wrapping_add(v_lo);
    let s_hi = u_hi.wrapping_add(v_hi).wrapping_add((s_lo < u_lo) as u64);
    let ubig = (u_hi > v_hi) | ((u_hi == v_hi) & (u_lo >= v_lo));
    let x_hi = sel(ubig, u_hi, v_hi);
    let x_lo = sel(ubig, u_lo, v_lo);
    let y_hi = sel(ubig, v_hi, u_hi);
    let y_lo = sel(ubig, v_lo, u_lo);
    let d_lo = x_lo.wrapping_sub(y_lo);
    let d_hi = x_hi.wrapping_sub(y_hi).wrapping_sub((x_lo < y_lo) as u64);
    let mag_hi = sel(ssame, s_hi, d_hi);
    let mut mag_lo = sel(ssame, s_lo, d_lo);
    let sign = sel(ssame, us, sel(ubig, us, vs));
    let kill = !ssame & (mag_hi == 0) & (mag_lo == 0);
    mag_lo |= kill as u64;

    // msb of the pair, then normalize exactly as the scalar path does.
    let hz = mag_hi == 0;
    let msb = msb_index(sel(hz, mag_lo, mag_hi)) + seli(hz, 0, 64);
    let exp0 = e_lsb + msb;
    let deep = msb <= f as i64;
    let lshift = sel(deep, (f as i64 + 1 - msb) as u64, 0) as u32; // <= f+1
    let m_hi = (mag_hi << lshift) | ((mag_lo >> 1) >> (63 - lshift));
    let m_lo = mag_lo << lshift;
    let grs_raw = seli(deep, 1, msb - f as i64) as u64;
    let grs = sel(grs_raw > 63, 63, grs_raw) as u32; // clamp only reachable on garbage lanes
    let kept = (m_lo >> grs) | ((m_hi << (63 - grs)) << 1);
    let tail = m_lo & ((1u64 << grs) - 1); // grs <= f+5 on valid lanes: tail is all in the low word
    round_pack_lane(e, f, sign, exp0, kept, tail, grs, rtn, kill)
}

/// The scalar fast lane's wide-format fma: the limb-split pair datapath
/// above, returning proper [`Flags`]. Replaces the old `u128` kernel.
#[inline(always)]
pub(crate) fn fma_wide_scalar(
    e: u32,
    f: u32,
    a: u64,
    b: u64,
    c: u64,
    mode: RoundMode,
) -> (u64, Flags) {
    let (bits, fl) = fma_lane_wide(e, f, a, b, c, mode == RoundMode::NearestEven);
    (bits, unpack_flags(fl))
}

// ---------------------------------------------------------------------------
// Wide-path entry
// ---------------------------------------------------------------------------
//
// `run_bin` / `run_fma` run a batch on a wide engine, or return
// `None`/`false` (leaving the output untouched) when the caller's scalar
// lane should run: the scalar engine, or a format without a named lane.
// The x86-64 versions live in `wide`; everywhere else there is no wide
// engine.

/// Op selectors for `run_bin`. Square root is unary: its drivers load
/// and ignore a second operand stream.
pub(crate) const OP_ADD: u8 = 0;
pub(crate) const OP_SUB: u8 = 1;
pub(crate) const OP_MUL: u8 = 2;
pub(crate) const OP_DIV: u8 = 3;
pub(crate) const OP_SQRT: u8 = 4;

/// Panic unless this host can run `eng`: the wide drivers execute its
/// instructions without further checks.
#[inline]
fn assert_available(eng: SimdEngine) {
    assert!(
        eng.is_available(),
        "SIMD engine {eng:?} is not available on this host"
    );
}

/// The sink of the pair entry points: one `(bits, flags)` pair per
/// element, appended to the caller's buffer.
pub(crate) struct PairSink<'o>(pub(crate) &'o mut Vec<(u64, Flags)>);

/// The sink of the bits entry points ([`crate::fastpath::add_acc_bits`],
/// [`crate::fastpath::fma_rank1_bits`], …): result bits written in place, one cell per element — cells, so
/// that the accumulating entry points can read and write their
/// accumulator through the same slice — and flags OR-ed into one
/// [`Flags`] for the whole batch. The cells are a row-major block of
/// `cols`-wide rows `stride` cells apart (a flat slice is one endless
/// row), and results arrive in element order, as the drivers produce
/// them: the sink keeps the next element's place as a cursor, so no
/// element index is ever divided by the row width.
pub(crate) struct BitsSink<'o> {
    cells: &'o [Cell<u64>],
    cols: usize,
    stride: usize,
    /// The cursor: the next element's row start and column.
    row: usize,
    col: usize,
}

impl<'o> BitsSink<'o> {
    /// Element `t` at cell `t`.
    pub(crate) fn flat(cells: &'o [Cell<u64>]) -> Self {
        Self::block(cells, usize::MAX, usize::MAX)
    }

    /// Element `t` at row `t / cols`, column `t % cols` of a block whose
    /// rows start `stride` cells apart.
    pub(crate) fn block(cells: &'o [Cell<u64>], cols: usize, stride: usize) -> Self {
        BitsSink {
            cells,
            cols,
            stride,
            row: 0,
            col: 0,
        }
    }

    /// Store the next element.
    #[inline(always)]
    pub(crate) fn put(&mut self, v: u64) {
        self.cells[self.row + self.col].set(v);
        self.col += 1;
        if self.col == self.cols {
            (self.row, self.col) = (self.row + self.stride, 0);
        }
    }

    /// Store the next [`LANES`] elements.
    #[inline(always)]
    pub(crate) fn put_lanes(&mut self, vs: [u64; LANES]) {
        if self.col + LANES > self.cols {
            vs.into_iter().for_each(|v| self.put(v));
            return;
        }
        let at = self.row + self.col;
        for (cell, v) in self.cells[at..at + LANES].iter().zip(vs) {
            cell.set(v);
        }
        self.col += LANES;
        if self.col == self.cols {
            (self.row, self.col) = (self.row + self.stride, 0);
        }
    }
}

/// An fma driver's operand loader: the three operand chunks of elements
/// `i..i + LANES`, once per full chunk in order, then the tail elements
/// one at a time in order — so a loader may walk its operands with a
/// cursor. A `(chunk, one)` pair of closures is a loader; a loader too
/// large for LLVM to inline as a closure implements the trait with
/// `inline(always)` methods instead.
pub(crate) trait FmaLoad {
    fn chunk(
        &mut self,
        i: usize,
        xs: &mut [u64; LANES],
        ys: &mut [u64; LANES],
        zs: &mut [u64; LANES],
    );
    fn one(&mut self, j: usize) -> (u64, u64, u64);
}

impl<C, O> FmaLoad for (C, O)
where
    C: FnMut(usize, &mut [u64; LANES], &mut [u64; LANES], &mut [u64; LANES]),
    O: Fn(usize) -> (u64, u64, u64),
{
    #[inline(always)]
    fn chunk(
        &mut self,
        i: usize,
        xs: &mut [u64; LANES],
        ys: &mut [u64; LANES],
        zs: &mut [u64; LANES],
    ) {
        (self.0)(i, xs, ys, zs)
    }
    #[inline(always)]
    fn one(&mut self, j: usize) -> (u64, u64, u64) {
        (self.1)(j)
    }
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) trait Sink {}
#[cfg(not(target_arch = "x86_64"))]
impl Sink for PairSink<'_> {}
#[cfg(not(target_arch = "x86_64"))]
impl Sink for BitsSink<'_> {}

#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_bin<const OP: u8>(
    eng: SimdEngine,
    _fmt: FpFormat,
    _n: usize,
    _load_chunk: impl Fn(usize, &mut [u64; LANES], &mut [u64; LANES]),
    _load_one: impl Fn(usize) -> (u64, u64),
    _mode: RoundMode,
    _sink: &mut impl Sink,
) -> Option<Flags> {
    assert_available(eng);
    None
}

#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_fma(
    eng: SimdEngine,
    _fmt: FpFormat,
    _n: usize,
    _load: impl FmaLoad,
    _mode: RoundMode,
    _sink: &mut impl Sink,
) -> Option<Flags> {
    assert_available(eng);
    None
}

#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_mac(
    eng: SimdEngine,
    _compute: FpFormat,
    _accumulate: FpFormat,
    _lhs: &[u64],
    _rhs: &[u64],
    _stride: usize,
    _banks: &mut [u64],
    _la: usize,
    _mode: RoundMode,
) -> Option<Flags> {
    assert_available(eng);
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastpath::{
        add_bits_batch_with, add_pairs_batch_with, fma_bits_batch_with, mac_steps_bits_with,
        mul_bits_batch_with, sub_bits_batch_with,
    };
    use crate::{fastpath, ops};

    const MODES: [RoundMode; 2] = [RoundMode::NearestEven, RoundMode::Truncate];
    const FORMATS: [FpFormat; 3] = [FpFormat::SINGLE, FpFormat::FP48, FpFormat::DOUBLE];

    /// A mix of specials and normals for each format.
    fn probe_values(fmt: FpFormat) -> Vec<u64> {
        let sign = 1u64 << fmt.sign_shift();
        let mut v = vec![
            0,
            sign,
            fmt.pos_inf(),
            fmt.neg_inf(),
            fmt.min_positive(),
            fmt.min_positive() | sign,
            fmt.max_finite(),
            fmt.max_finite() | sign,
            fmt.pack(false, fmt.bias() as u64, 0),
            fmt.pack(true, fmt.bias() as u64, 1),
            fmt.pack(false, fmt.bias() as u64 + 1, fmt.frac_mask()),
            fmt.pack(false, 1, fmt.frac_mask()),
            fmt.pack(true, fmt.max_biased_exp(), fmt.frac_mask() >> 1),
            fmt.pack(false, 0, 7),
            fmt.pack(false, fmt.inf_biased_exp(), 1),
        ];
        let mut s = 0x0123_4567_89ab_cdefu64;
        for _ in 0..49 {
            s = s
                .wrapping_mul(0xd129_42e2_96fe_94e3)
                .wrapping_add(0x2545_f491_4f6c_dd1d);
            v.push(s & fmt.enc_mask());
        }
        v
    }

    #[test]
    fn every_engine_matches_generic_binary() {
        for fmt in FORMATS {
            let vals = probe_values(fmt);
            let n = vals.len();
            let a: Vec<u64> = (0..n * n).map(|i| vals[i / n]).collect();
            let b: Vec<u64> = (0..n * n).map(|i| vals[i % n]).collect();
            for mode in MODES {
                let expect_add: Vec<_> = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| ops::add::add(fmt, x, y, mode))
                    .collect();
                let expect_sub: Vec<_> = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| ops::add::sub(fmt, x, y, mode))
                    .collect();
                let expect_mul: Vec<_> = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| ops::mul::mul(fmt, x, y, mode))
                    .collect();
                for eng in SimdEngine::available() {
                    let mut got = Vec::new();
                    add_bits_batch_with(eng, fmt, &a, &b, mode, &mut got);
                    assert_eq!(got, expect_add, "add {fmt:?} {mode:?} {eng:?}");
                    got.clear();
                    sub_bits_batch_with(eng, fmt, &a, &b, mode, &mut got);
                    assert_eq!(got, expect_sub, "sub {fmt:?} {mode:?} {eng:?}");
                    got.clear();
                    mul_bits_batch_with(eng, fmt, &a, &b, mode, &mut got);
                    assert_eq!(got, expect_mul, "mul {fmt:?} {mode:?} {eng:?}");
                }
            }
        }
    }

    #[test]
    fn every_engine_matches_generic_fma() {
        for fmt in FORMATS {
            let vals = probe_values(fmt);
            let thin: Vec<u64> = vals.iter().step_by(4).copied().collect();
            let n = thin.len();
            let mut a = Vec::new();
            let mut b = Vec::new();
            let mut c = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        a.push(thin[i]);
                        b.push(thin[j]);
                        c.push(thin[k]);
                    }
                }
            }
            for mode in MODES {
                let expect: Vec<_> = (0..a.len())
                    .map(|i| ops::fma::fma(fmt, a[i], b[i], c[i], mode))
                    .collect();
                for eng in SimdEngine::available() {
                    let mut got = Vec::new();
                    fma_bits_batch_with(eng, fmt, &a, &b, &c, mode, &mut got);
                    assert_eq!(got, expect, "fma {fmt:?} {mode:?} {eng:?}");
                }
            }
        }
    }

    #[test]
    fn fma_wide_scalar_matches_generic_on_dyn_formats() {
        // The pair-datapath replacement for the u128 kernel serves every
        // format with 2f + FMA_GRS + 4 > 64, including dynamic ones.
        for fmt in [
            FpFormat::new(15, 48),
            FpFormat::new(4, 56),
            FpFormat::new(2, 30),
        ] {
            let vals = probe_values(fmt);
            let thin: Vec<u64> = vals.iter().step_by(5).copied().collect();
            for mode in MODES {
                for &a in &thin {
                    for &b in &thin {
                        for &c in &thin {
                            assert_eq!(
                                fastpath::fma_bits(fmt, a, b, c, mode),
                                ops::fma::fma(fmt, a, b, c, mode),
                                "fma {fmt:?} {a:#x} {b:#x} {c:#x} {mode:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn widening_mul_is_exact() {
        let mut s = 1u64;
        for _ in 0..4096 {
            s = s.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(11);
            let x = s;
            s = s.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(11);
            let y = s;
            let (hi, lo) = widening_mul(x, y);
            let p = x as u128 * y as u128;
            assert_eq!(((p >> 64) as u64, p as u64), (hi, lo), "{x:#x} * {y:#x}");
        }
    }

    #[test]
    fn shr128_sticky_matches_u128() {
        let vals = [
            (0u64, 0u64),
            (0, 1),
            (1, 0),
            (0x8000_0000_0000_0000, 0x8000_0000_0000_0001),
            (0x0042_4242_1337_0000, 0xffff_ffff_ffff_ffff),
        ];
        for &(hi, lo) in &vals {
            let v = ((hi as u128) << 64) | lo as u128;
            for n in 0..200u64 {
                let (rh, rl, lost) = shr128_sticky(hi, lo, n);
                let nn = n.min(127) as u32;
                let want = v >> nn;
                let want_lost = (v & ((1u128 << nn) - 1) != 0) as u64;
                assert_eq!(
                    ((want >> 64) as u64, want as u64, want_lost),
                    (rh, rl, lost),
                    "({hi:#x},{lo:#x}) >> {n}"
                );
            }
        }
    }

    #[test]
    fn pairs_and_mac_and_triples_match_slices() {
        let fmt = FpFormat::DOUBLE;
        let vals = probe_values(fmt);
        let a: Vec<u64> = vals.clone();
        let b: Vec<u64> = vals.iter().rev().copied().collect();
        let pairs: Vec<(u64, u64)> = a.iter().zip(&b).map(|(&x, &y)| (x, y)).collect();
        let c: Vec<u64> = a.iter().map(|&x| x ^ 1).collect();
        let mode = RoundMode::NearestEven;
        for eng in SimdEngine::available() {
            let (mut s1, mut s2) = (Vec::new(), Vec::new());
            add_bits_batch_with(eng, fmt, &a, &b, mode, &mut s1);
            add_pairs_batch_with(eng, fmt, &pairs, mode, &mut s2);
            assert_eq!(s1, s2, "pairs {eng:?}");

            // Five steps over 9-wide rows of `a` 11 apart, into `la`
            // banks: one full chunk and a ragged one.
            let (steps, p, stride) = (5, 9, 11);
            for la in [1, 3] {
                let mut want = c[..la * p].to_vec();
                let mut want_flags = Flags::NONE;
                for k in 0..steps {
                    for j in 0..p {
                        let (x, f1) = ops::mul::mul(fmt, a[k * stride + j], b[k], mode);
                        let acc = &mut want[(k % la) * p + j];
                        let (y, f2) = ops::add::add(fmt, x, *acc, mode);
                        (*acc, want_flags) = (y, want_flags | f1 | f2);
                    }
                }
                let mut got = c[..la * p].to_vec();
                let rhs = &a[..(steps - 1) * stride + p];
                let flags = mac_steps_bits_with(
                    eng,
                    fmt,
                    fmt,
                    &b[..steps],
                    rhs,
                    stride,
                    &mut got,
                    la,
                    mode,
                );
                assert_eq!((got, flags), (want, want_flags), "mac {eng:?} la={la}");
            }

            let mut f1 = Vec::new();
            fma_bits_batch_with(eng, fmt, &a, &b, &c, mode, &mut f1);
            let f2: Vec<(u64, Flags)> = (0..a.len())
                .map(|i| fastpath::fma_bits(fmt, a[i], b[i], c[i], mode))
                .collect();
            assert_eq!(f1, f2, "triples {eng:?}");
        }
    }

    #[test]
    fn avx2_engine_requires_fma() {
        #[cfg(target_arch = "x86_64")]
        if SimdEngine::WideAvx2.is_available() {
            assert!(std::arch::is_x86_feature_detected!("fma"));
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!SimdEngine::WideAvx2.is_available());
    }

    #[test]
    fn active_engine_is_the_best_available() {
        let eng = active_engine();
        assert_eq!(SimdEngine::available().next(), Some(SimdEngine::Scalar));
        assert_eq!(SimdEngine::available().last(), Some(eng));
        assert_eq!(eng, active_engine(), "detected once, fixed thereafter");
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(eng, SimdEngine::Scalar);
    }
}

//! Monomorphized fast-lane kernels.
//!
//! The generic ops in [`crate::ops`] read the field widths out of an
//! [`FpFormat`] value on every operation and route everything through the
//! [`crate::unpacked`] representation. That is the right shape for a
//! hardware reference model, but it leaves throughput on the floor: every
//! shift amount and mask is a runtime value and every operand pays the
//! classify/unpack cost even when it is an ordinary normal number — which
//! in the paper's workloads (matmul streams, sweeps) is almost always.
//!
//! This module adds a second lane with the *same* bit-exact semantics:
//!
//! * **Const-generic kernels** ([`add`], [`sub`], [`mul`], [`fma`]) take
//!   the exponent/fraction widths as compile-time constants `E`/`F`, so
//!   masks, shifts and the u64-vs-u128 datapath choice all constant-fold.
//!   [`FpFormat::SINGLE`], [`FpFormat::W48`] and [`FpFormat::DOUBLE`] get
//!   dedicated monomorphizations.
//! * **A both-operands-normal fast lane**: one branch-free normality test
//!   on the raw encodings selects either the inlined normal-path
//!   arithmetic or a fallback into the existing generic `unpacked` path
//!   (zeros, infinities, flush/overflow corner cases all land there).
//! * **Batch entry points** ([`add_bits_batch`], [`mul_bits_batch`],
//!   [`div_bits_batch`], [`sqrt_bits_batch`], [`add_pairs_batch`], …)
//!   that dispatch on the format **once per slice** and append results
//!   to a caller-provided buffer instead of allocating per element, plus
//!   **bits entry points** that write result bits in place and return
//!   the batch's flags OR-ed into one [`Flags`]: [`mac_steps_bits`],
//!   every multiply-accumulate step of a matmul, MVM or dot row in one
//!   call, [`add_acc_bits`] for the accumulator banks' fold, the
//!   `*_bits_into` family ([`add_bits_into`], …, [`div_bits_into`]) for
//!   FFT stages and LU's multipliers, and the in-place fma over a strided
//!   block, [`fma_rank1_bits`], for LU's elimination steps.
//!
//! Every batch entry point also has a `*_with` form that pins the
//! [`SimdEngine`] by value; the plain form runs [`simd::active_engine`].
//! On a wide engine every batch add, sub, mul, fma, divide and square
//! root runs on the host's binary64 unit (an error-free transformation
//! or an exact remainder plus one rounding step, see [`simd`]), with the
//! same results and flags as the kernels here and the generic divider
//! and square root, which still serve chunk tails (except divide and
//! square root, whose tails run padded), the scalar engine and dynamic
//! formats.
//! So these entry points need the calling thread in Rust's default FP
//! environment (round-to-nearest-even, no FTZ/DAZ); debug builds assert
//! it.
//!
//! Equivalence with the generic path — results *and* exception flags — is
//! enforced by proptests over random formats (not just the three named
//! precisions) and by the `fpfpga-conform` differential harness, which CI
//! runs on the scalar and the wide lane (`fpuconform --lane`).

use crate::exceptions::Flags;
use crate::format::FpFormat;
use crate::ops;
use crate::ops::add::GRS_BITS;
use crate::ops::fma::FMA_GRS;
use crate::round::{shift_right_sticky, RoundMode};
use crate::simd::{
    self, BitsSink, FmaLoad, PairSink, SimdEngine, LANES, OP_ADD, OP_DIV, OP_MUL, OP_SQRT, OP_SUB,
};
use std::cell::Cell;

/// Panic message used by every batch entry point on length mismatch.
pub const LEN_MISMATCH: &str = "batch operand slices must have equal lengths";

// ---------------------------------------------------------------------------
// Normality test
// ---------------------------------------------------------------------------

/// True when the biased exponent field of `bits` is neither all-zeros
/// (zero/flushed-denormal) nor all-ones (infinity): a *normal* operand.
#[inline(always)]
pub(crate) const fn is_normal(e: u32, f: u32, bits: u64) -> bool {
    let em = (1u64 << e) - 1;
    let biased = (bits >> f) & em;
    // `biased - 1 < em - 1` covers 1..=em-1 in one unsigned compare
    // (biased = 0 wraps to u64::MAX). Branch-free on both operands.
    biased.wrapping_sub(1) < em - 1
}

/// Branch-free check that both operands take the fast lane.
#[inline(always)]
pub(crate) const fn both_normal(e: u32, f: u32, a: u64, b: u64) -> bool {
    is_normal(e, f, a) & is_normal(e, f, b)
}

/// Branch-free sticky right shift for the fast lane's u64 datapath.
///
/// The significands here carry at most `f + 1 + GRS_BITS <= 60` bits, so
/// clamping the shift to 63 is exact: every bit that would shift out of a
/// wider register shifts out of bit 62..0 too. The sticky bit is jammed
/// into bit 0 of the result (the only place the callers want it).
#[inline(always)]
const fn align_sticky(sig: u64, n: u32) -> u64 {
    let sh = if n > 63 { 63 } else { n };
    let lost = sig & ((1u64 << sh) - 1);
    (sig >> sh) | (lost != 0) as u64
}

// ---------------------------------------------------------------------------
// Shared round + range-check tail (mirrors round::round_sig +
// round::pack_with_range_check bit-for-bit)
// ---------------------------------------------------------------------------

/// Pack a rounded significand, applying the cores' overflow/underflow
/// policy exactly as [`crate::round::pack_with_range_check`] does.
#[inline(always)]
fn finish_pack(
    e: u32,
    f: u32,
    sign: u64,
    exp: i32,
    sig: u64,
    inexact: bool,
    mode: RoundMode,
) -> (u64, Flags) {
    let bias = (1i32 << (e - 1)) - 1;
    let max_exp = ((1i32 << e) - 2) - bias;
    let min_exp = 1 - bias;
    let sign_shift = e + f;
    debug_assert!(sig >> f == 1);

    // Overflow and underflow fire on a quarter of random-exponent
    // products, so a three-way branch here mispredicts constantly on the
    // sweep/bench workloads. Compute all three payloads (a handful of ALU
    // ops) and let the selects become conditional moves:
    //   overflow  → ±∞ under round-to-nearest, ±max-finite under truncate
    //   underflow → flush to ±0 (no denormals)
    // Both imply inexact, matching Flags::overflow()/Flags::underflow().
    let over = exp > max_exp;
    let under = exp < min_exp;
    let over_mag = match mode {
        RoundMode::NearestEven => ((1u64 << e) - 1) << f,
        RoundMode::Truncate => (((1u64 << e) - 2) << f) | ((1u64 << f) - 1),
    };
    // Garbage when out of range (the cast wraps), but the select below
    // only keeps it in the in-range case.
    let norm_mag = (((exp + bias) as u64) << f) | (sig & ((1u64 << f) - 1));
    let mag = if over {
        over_mag
    } else if under {
        0
    } else {
        norm_mag
    };
    let flags = Flags {
        overflow: over,
        underflow: under,
        invalid: false,
        inexact: inexact | over | under,
        div_by_zero: false,
    };
    ((sign << sign_shift) | mag, flags)
}

/// Round a normalized `kept`+`tail` pair (the u64 twin of
/// [`crate::round::round_sig`]) and pack with range check.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn round_pack(
    e: u32,
    f: u32,
    sign: u64,
    mut exp: i32,
    kept: u64,
    tail: u64,
    grs: u32,
    mode: RoundMode,
) -> (u64, Flags) {
    debug_assert!(kept >> f == 1, "round_pack input not normalized");
    let inexact = tail != 0;
    // `|`/`&` instead of `||`/`&&`: the tail comparisons are data-random,
    // so short-circuit jumps would mispredict half the time.
    let round_up = match mode {
        RoundMode::Truncate => false,
        RoundMode::NearestEven => {
            let half = 1u64 << (grs - 1);
            (tail > half) | ((tail == half) & (kept & 1 == 1))
        }
    };
    let mut rounded = kept + round_up as u64;
    // Rounding carries out of the hidden position at most once; fold the
    // correction in branch-free (the carry is data-dependent).
    let carry = (rounded >> (f + 1)) as u32;
    rounded >>= carry;
    exp += carry as i32;
    finish_pack(e, f, sign, exp, rounded, inexact, mode)
}

// ---------------------------------------------------------------------------
// Normal-lane kernels (preconditions: operands normal)
// ---------------------------------------------------------------------------

/// Add/sub fast lane. Requires both operands normal. The whole datapath
/// fits in a `u64`: `f + 1 + GRS_BITS + 1 <= 61` bits.
#[inline(always)]
fn add_normal(e: u32, f: u32, a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    let sign_shift = e + f;
    let frac_mask = (1u64 << f) - 1;
    let mag_mask = (1u64 << sign_shift) - 1;
    let hidden = 1u64 << f;
    let bias = (1i32 << (e - 1)) - 1;

    // The encoding of normal magnitudes is monotone, so comparing the
    // sign-stripped bits is the generic path's `(exp, sig)` swap. The
    // selects compile to conditional moves; an explicit swap branch would
    // mispredict half the time on random operands.
    let (ma, mb) = (a & mag_mask, b & mag_mask);
    let hi = if ma >= mb { ma } else { mb };
    let lo = if ma >= mb { mb } else { ma };
    let hi_sign = (if ma >= mb { a } else { b }) >> sign_shift & 1;

    // Stage 1: align the smaller significand, sticky-compressing the tail
    // (branch-free: the shift clamp in `align_sticky` is exact here).
    let diff = ((hi >> f) - (lo >> f)) as u32;
    let hi_sig = ((hi & frac_mask) | hidden) << GRS_BITS;
    let lo_full = align_sticky(((lo & frac_mask) | hidden) << GRS_BITS, diff);

    // Stage 2: effective add or subtract; `hi` has the larger magnitude so
    // the subtraction never goes negative. The sign pair is data-random,
    // so fold the subtract in as a branch-free conditional negate.
    let effective_sub = (a ^ b) >> sign_shift & 1;
    let mut exp = ((hi >> f) & ((1u64 << e) - 1)) as i32 - bias;
    let mut mag =
        hi_sig.wrapping_add((lo_full ^ effective_sub.wrapping_neg()).wrapping_add(effective_sub));
    if mag == 0 {
        // Exact cancellation: +0 under both supported modes.
        return (0, Flags::NONE);
    }

    // Stage 2b/3: pre-normalize a carry-out (sticky-preserving jam, at
    // most one position so the top bit *is* the carry count), then shift
    // the leading one up to the hidden position. After the jam
    // `msb <= hidden_pos`, so the left shift is unconditional.
    let hidden_pos = f + GRS_BITS;
    let carry = mag >> (hidden_pos + 1);
    mag = (mag >> carry) | (mag & carry);
    exp += carry as i32;
    let msb = 63 - mag.leading_zeros();
    let shift = hidden_pos - msb;
    mag <<= shift;
    exp -= shift as i32;
    round_pack(
        e,
        f,
        hi_sign,
        exp,
        mag >> GRS_BITS,
        mag & ((1u64 << GRS_BITS) - 1),
        GRS_BITS,
        mode,
    )
}

/// Multiply fast lane. Requires both operands normal. For `F <= 31` the
/// significand product fits a `u64` (constant-folded choice under the
/// const-generic wrappers, so `SINGLE` never touches `u128`).
#[inline(always)]
fn mul_normal(e: u32, f: u32, a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    let sign_shift = e + f;
    let frac_mask = (1u64 << f) - 1;
    let hidden = 1u64 << f;
    let bias = (1i32 << (e - 1)) - 1;
    let em = (1u64 << e) - 1;

    let sign = (a ^ b) >> sign_shift & 1;
    let mut exp = (((a >> f) & em) as i32 - bias) + (((b >> f) & em) as i32 - bias);
    let sa = (a & frac_mask) | hidden;
    let sb = (b & frac_mask) | hidden;

    // The product's top bit (2f+2 vs 2f+1 significant bits) is a coin
    // flip on random significands; fold the normalization in branch-free.
    // The narrow datapath shifts the product up (one cheap u64 shift, so
    // the kept/tail split stays compile-time constant); the wide datapath
    // instead keeps the product in place and moves the split point — a
    // variable u128 shift is several instructions, and `round_pack`'s
    // rounding decision is invariant under the common scale.
    let (kept, tail, grs);
    if f <= 31 {
        let mut p = sa * sb;
        let top = ((p >> (2 * f + 1)) & 1) as u32;
        exp += top as i32;
        p <<= top ^ 1;
        grs = f + 1;
        kept = p >> grs;
        tail = p & ((1u64 << grs) - 1);
    } else {
        let p = sa as u128 * sb as u128;
        let top = (p >> (2 * f + 1)) as u32 & 1;
        exp += top as i32;
        grs = f + top;
        kept = (p >> grs) as u64;
        tail = (p as u64) & ((1u64 << grs) - 1);
    }
    round_pack(e, f, sign, exp, kept, tail, grs, mode)
}

/// Fused multiply-add fast lane. Requires all three operands normal.
/// Mirrors the exact-product path of [`crate::ops::fma::fma`].
///
/// Two datapaths, chosen by width (a compile-time constant under the
/// const-generic wrappers): when the widest aligned sum fits a `u64`
/// (`2f + FMA_GRS + 4 ≤ 64`, so `f ≤ 28` — SINGLE and anything
/// narrower), the whole kernel runs in 64-bit registers. Wider formats
/// (FP48, DOUBLE) run [`simd::fma_wide_scalar`], the `(hi, lo)` u64-pair
/// limb datapath: on x86-64 every `u128` operation the old wide path
/// leaned on — variable shifts, compares, `leading_zeros` — was a
/// multi-instruction sequence, the same throughput gap the narrow split
/// closed for f32 (BENCH_PR5: ~34 Mop/s for f32 fma before the fix).
#[inline(always)]
fn fma_normal(e: u32, f: u32, a: u64, b: u64, c: u64, mode: RoundMode) -> (u64, Flags) {
    if 2 * f + FMA_GRS + 4 <= 64 {
        fma_normal_narrow(e, f, a, b, c, mode)
    } else {
        simd::fma_wide_scalar(e, f, a, b, c, mode)
    }
}

/// Signed combine of two magnitudes in the same frame — the `u64` twin
/// of [`ops::fma::combine`]: result magnitude, its sign, and whether an
/// effective subtraction cancelled exactly.
#[inline(always)]
fn combine_u64(p: u64, ps: bool, c: u64, cs: bool) -> (u64, bool, bool) {
    if ps == cs {
        (p + c, ps, false)
    } else if p >= c {
        let d = p - c;
        (d, ps, d == 0)
    } else {
        (c - p, cs, false)
    }
}

/// The narrow (all-`u64`) fma datapath. Precondition:
/// `2f + FMA_GRS + 4 ≤ 64`, so the exact product (`2f+2` bits), the
/// guard window and the alignment carry all fit one register. Mirrors
/// [`fma_normal_wide`] case for case; only the integer width differs.
#[inline(always)]
fn fma_normal_narrow(e: u32, f: u32, a: u64, b: u64, c: u64, mode: RoundMode) -> (u64, Flags) {
    let sign_shift = e + f;
    let frac_mask = (1u64 << f) - 1;
    let hidden = 1u64 << f;
    let bias = (1i32 << (e - 1)) - 1;
    let em = (1u64 << e) - 1;

    let psign = (a ^ b) >> sign_shift & 1 == 1;
    let csign = c >> sign_shift & 1 == 1;
    let pexp = (((a >> f) & em) as i32 - bias) + (((b >> f) & em) as i32 - bias);
    let cexp = ((c >> f) & em) as i32 - bias;

    let product = ((a & frac_mask) | hidden) * ((b & frac_mask) | hidden);
    let shift = (cexp - pexp) + f as i32;
    let c_wide = ((c & frac_mask) | hidden) << FMA_GRS;
    let prod_wide = product << FMA_GRS;

    let (mag, sign, e_lsb, is_zero) = if shift > (f + 2) as i32 {
        // c dominates: sticky-shift the product into c's guard window.
        let (p_aligned, lost) = shift_right_sticky(prod_wide, shift as u32);
        let (m, sg, z) = combine_u64(c_wide, csign, p_aligned | lost as u64, psign);
        (m, sg, cexp - (f + FMA_GRS) as i32, z)
    } else if shift >= 0 {
        // Product dominates or ties: align c up by at most f+2, total
        // width ≤ 2f + FMA_GRS + 4 bits — in range by precondition.
        let c_aligned = c_wide << shift;
        let (m, sg, z) = combine_u64(prod_wide, psign, c_aligned, csign);
        (m, sg, pexp - (2 * f + FMA_GRS) as i32, z)
    } else {
        let (c_aligned, lost) = shift_right_sticky(c_wide, (-shift) as u32);
        let (m, sg, z) = combine_u64(prod_wide, psign, c_aligned | lost as u64, csign);
        (m, sg, pexp - (2 * f + FMA_GRS) as i32, z)
    };
    if is_zero {
        return (0, Flags::NONE);
    }

    let msb = 63 - mag.leading_zeros();
    let exp = e_lsb + msb as i32;
    let (mag, grs) = if msb > f {
        (mag, msb - f)
    } else {
        // Deep cancellation (necessarily exact): lift the hidden bit.
        (mag << (f + 1 - msb), 1)
    };
    round_pack(
        e,
        f,
        sign as u64,
        exp,
        mag >> grs,
        mag & ((1u64 << grs) - 1),
        grs,
        mode,
    )
}

// ---------------------------------------------------------------------------
// Const-generic public kernels
// ---------------------------------------------------------------------------

/// Monomorphized `a + b`; falls back to the generic path for specials.
///
/// `inline(always)`: under plain `#[inline]` LLVM leaves this outlined
/// and the batch loops pay a call + sret round-trip per element — about
/// a third of the whole add budget. The fallback call inside still
/// keeps the auto-vectorizer away from the loop (which is what the
/// add/sub datapath needs on baseline x86-64, see `dispatch_binary!`).
#[inline(always)]
pub fn add<const E: u32, const F: u32>(a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    if both_normal(E, F, a, b) {
        add_normal(E, F, a, b, mode)
    } else {
        ops::add::add(FpFormat::new(E, F), a, b, mode)
    }
}

/// Monomorphized `a - b` (sign-flip of `b` in the fast lane, generic
/// `sub` in the fallback so special-case semantics match exactly).
#[inline(always)]
pub fn sub<const E: u32, const F: u32>(a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    if both_normal(E, F, a, b) {
        add_normal(E, F, a, b ^ (1u64 << (E + F)), mode)
    } else {
        ops::add::sub(FpFormat::new(E, F), a, b, mode)
    }
}

/// Monomorphized `a * b`; falls back to the generic path for specials.
#[inline]
pub fn mul<const E: u32, const F: u32>(a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    if both_normal(E, F, a, b) {
        mul_normal(E, F, a, b, mode)
    } else {
        ops::mul::mul(FpFormat::new(E, F), a, b, mode)
    }
}

/// Monomorphized `a·b + c` with a single rounding; falls back to the
/// generic path when any operand is special.
#[inline(always)]
pub fn fma<const E: u32, const F: u32>(a: u64, b: u64, c: u64, mode: RoundMode) -> (u64, Flags) {
    if both_normal(E, F, a, b) & is_normal(E, F, c) {
        fma_normal(E, F, a, b, c, mode)
    } else {
        ops::fma::fma(FpFormat::new(E, F), a, b, c, mode)
    }
}

// ---------------------------------------------------------------------------
// Runtime-width scalar dispatchers
// ---------------------------------------------------------------------------

/// Which monomorphization a format maps to.
#[derive(Clone, Copy)]
pub(crate) enum Lane {
    Single,
    W48,
    Double,
    Dyn,
}

#[inline(always)]
pub(crate) fn lane_of(fmt: FpFormat) -> Lane {
    if fmt == FpFormat::SINGLE {
        Lane::Single
    } else if fmt == FpFormat::FP48 {
        Lane::W48
    } else if fmt == FpFormat::DOUBLE {
        Lane::Double
    } else {
        Lane::Dyn
    }
}

/// Fast scalar `a + b` for any format (named formats take the
/// monomorphized kernels; everything else runs the same fast lane with
/// runtime widths).
#[inline]
pub fn add_bits(fmt: FpFormat, a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    match lane_of(fmt) {
        Lane::Single => add::<8, 23>(a, b, mode),
        Lane::W48 => add::<11, 36>(a, b, mode),
        Lane::Double => add::<11, 52>(a, b, mode),
        Lane::Dyn => add_dyn(fmt, a, b, mode),
    }
}

/// Fast scalar `a - b` for any format.
#[inline]
pub fn sub_bits(fmt: FpFormat, a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    match lane_of(fmt) {
        Lane::Single => sub::<8, 23>(a, b, mode),
        Lane::W48 => sub::<11, 36>(a, b, mode),
        Lane::Double => sub::<11, 52>(a, b, mode),
        Lane::Dyn => sub_dyn(fmt, a, b, mode),
    }
}

/// Fast scalar `a * b` for any format.
#[inline]
pub fn mul_bits(fmt: FpFormat, a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    match lane_of(fmt) {
        Lane::Single => mul::<8, 23>(a, b, mode),
        Lane::W48 => mul::<11, 36>(a, b, mode),
        Lane::Double => mul::<11, 52>(a, b, mode),
        Lane::Dyn => mul_dyn(fmt, a, b, mode),
    }
}

/// Fast scalar `a·b + c` for any format.
#[inline]
pub fn fma_bits(fmt: FpFormat, a: u64, b: u64, c: u64, mode: RoundMode) -> (u64, Flags) {
    match lane_of(fmt) {
        Lane::Single => fma::<8, 23>(a, b, c, mode),
        Lane::W48 => fma::<11, 36>(a, b, c, mode),
        Lane::Double => fma::<11, 52>(a, b, c, mode),
        Lane::Dyn => fma_dyn(fmt, a, b, c, mode),
    }
}

#[inline]
fn add_dyn(fmt: FpFormat, a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    let (e, f) = (fmt.exp_bits(), fmt.frac_bits());
    if both_normal(e, f, a, b) {
        add_normal(e, f, a, b, mode)
    } else {
        ops::add::add(fmt, a, b, mode)
    }
}

#[inline]
fn sub_dyn(fmt: FpFormat, a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    let (e, f) = (fmt.exp_bits(), fmt.frac_bits());
    if both_normal(e, f, a, b) {
        add_normal(e, f, a, b ^ (1u64 << (e + f)), mode)
    } else {
        ops::add::sub(fmt, a, b, mode)
    }
}

#[inline]
fn mul_dyn(fmt: FpFormat, a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    let (e, f) = (fmt.exp_bits(), fmt.frac_bits());
    if both_normal(e, f, a, b) {
        mul_normal(e, f, a, b, mode)
    } else {
        ops::mul::mul(fmt, a, b, mode)
    }
}

#[inline]
fn fma_dyn(fmt: FpFormat, a: u64, b: u64, c: u64, mode: RoundMode) -> (u64, Flags) {
    let (e, f) = (fmt.exp_bits(), fmt.frac_bits());
    if both_normal(e, f, a, b) & is_normal(e, f, c) {
        fma_normal(e, f, a, b, c, mode)
    } else {
        ops::fma::fma(fmt, a, b, c, mode)
    }
}

// ---------------------------------------------------------------------------
// Batch entry points
// ---------------------------------------------------------------------------

/// Run one named-format binary batch in two passes: a call-free fast-lane
/// pass over every element, then a fixup scan that routes the rare
/// specials (a percent or two of random operands, none at all in most
/// kernel streams) through the generic path.
///
/// Keeping the non-inlined generic call out of the hot loop is worth more
/// than the second scan costs: with the call inside, the compiler must
/// keep ABI state live across every iteration, which blocks unrolling and
/// spills the datapath registers.
#[inline(always)]
fn bin_lane<const E: u32, const F: u32, I, N, G>(
    iter: I,
    out: &mut Vec<(u64, Flags)>,
    mode: RoundMode,
    normal: N,
    generic: G,
) where
    I: Iterator<Item = (u64, u64)> + Clone,
    N: Fn(u32, u32, u64, u64, RoundMode) -> (u64, Flags),
    G: Fn(FpFormat, u64, u64, RoundMode) -> (u64, Flags),
{
    let start = out.len();
    // `extend` over a `TrustedLen` iterator writes straight into the
    // reserved tail — no per-element capacity check like `push`.
    out.extend(iter.clone().map(|(x, y)| {
        if both_normal(E, F, x, y) {
            normal(E, F, x, y, mode)
        } else {
            (0, Flags::NONE) // placeholder, patched by the fixup pass
        }
    }));
    let fmt = FpFormat::new(E, F);
    for (i, (x, y)) in iter.enumerate() {
        if !both_normal(E, F, x, y) {
            out[start + i] = generic(fmt, x, y, mode);
        }
    }
}

/// Expand an iterator of operand tuples through a monomorphized lane,
/// dispatching on the format once for the whole batch. Each arm is a
/// distinct monomorphization, so the named formats get fully inlined
/// width-constant code. The first token picks the loop shape:
/// `two_pass` (call-free hot loop + rare-special fixup scan, for the mul
/// datapath the auto-vectorizer handles well) or `single_pass` (fallback
/// call kept in-loop — the add/sub datapath, which baseline x86-64 SIMD
/// can only vectorize by emulating per-lane variable shifts and
/// leading-zero counts at several times the scalar cost; measured A/B,
/// the in-loop call beats both the vectorized form and a
/// `black_box`-fenced scalar two-pass).
macro_rules! dispatch_binary {
    (two_pass, $fmt:expr, $mode:expr, $iter:expr, $out:expr, $normal:expr, $generic:expr,
     $dynk:ident) => {{
        let (fmt, mode) = ($fmt, $mode);
        match lane_of(fmt) {
            Lane::Single => bin_lane::<8, 23, _, _, _>($iter, $out, mode, $normal, $generic),
            Lane::W48 => bin_lane::<11, 36, _, _, _>($iter, $out, mode, $normal, $generic),
            Lane::Double => bin_lane::<11, 52, _, _, _>($iter, $out, mode, $normal, $generic),
            Lane::Dyn => $out.extend($iter.map(|(x, y)| $dynk(fmt, x, y, mode))),
        }
    }};
    (single_pass, $fmt:expr, $mode:expr, $iter:expr, $out:expr, $kernel:ident, $dynk:ident) => {{
        let (fmt, mode) = ($fmt, $mode);
        match lane_of(fmt) {
            Lane::Single => $out.extend($iter.map(|(x, y)| $kernel::<8, 23>(x, y, mode))),
            Lane::W48 => $out.extend($iter.map(|(x, y)| $kernel::<11, 36>(x, y, mode))),
            Lane::Double => $out.extend($iter.map(|(x, y)| $kernel::<11, 52>(x, y, mode))),
            Lane::Dyn => $out.extend($iter.map(|(x, y)| $dynk(fmt, x, y, mode))),
        }
    }};
}

macro_rules! dispatch_ternary {
    ($fmt:expr, $mode:expr, $iter:expr, $out:expr, $kernel:ident, $dynk:ident) => {{
        let (fmt, mode) = ($fmt, $mode);
        match lane_of(fmt) {
            Lane::Single => $out.extend($iter.map(|(x, y, z)| $kernel::<8, 23>(x, y, z, mode))),
            Lane::W48 => $out.extend($iter.map(|(x, y, z)| $kernel::<11, 36>(x, y, z, mode))),
            Lane::Double => $out.extend($iter.map(|(x, y, z)| $kernel::<11, 52>(x, y, z, mode))),
            Lane::Dyn => $out.extend($iter.map(|(x, y, z)| $dynk(fmt, x, y, z, mode))),
        }
    }};
}

/// Chunk loader over two operand slices.
#[inline(always)]
fn slices_chunk<'s>(
    a: &'s [u64],
    b: &'s [u64],
) -> impl Fn(usize, &mut [u64; LANES], &mut [u64; LANES]) + 's {
    move |i, xs, ys| {
        xs.copy_from_slice(&a[i..i + LANES]);
        ys.copy_from_slice(&b[i..i + LANES]);
    }
}

/// Chunk loader over `(x, y)` pairs.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn pairs_chunk(pairs: &[(u64, u64)]) -> impl Fn(usize, &mut [u64; LANES], &mut [u64; LANES]) + '_ {
    move |i, xs, ys| {
        for l in 0..LANES {
            (xs[l], ys[l]) = pairs[i + l];
        }
    }
}

/// [`simd::run_bin`] appending `(bits, flags)` pairs to `out`; `false`,
/// leaving `out` untouched, when the scalar lane should run instead.
#[inline(always)]
fn run_bin_pairs<const OP: u8>(
    eng: SimdEngine,
    fmt: FpFormat,
    n: usize,
    load_chunk: impl Fn(usize, &mut [u64; LANES], &mut [u64; LANES]),
    load_one: impl Fn(usize) -> (u64, u64),
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) -> bool {
    simd::run_bin::<OP>(eng, fmt, n, load_chunk, load_one, mode, &mut PairSink(out)).is_some()
}

// Each batch entry point has one body, the `*_with` form, which takes the
// engine by value: a wide engine runs the `simd` drivers on the named
// formats, and the scalar engine (or a dynamic format) runs the
// monomorphized scalar loops below. The plain form passes
// [`simd::active_engine`].

/// Batched `a[i] + b[i]`, appended to `out`.
///
/// Dispatches on `fmt` once for the whole slice; `out` is reused across
/// calls by the batch consumers (clear it first if you want only this
/// batch's results). Needs the default FP environment ([module docs](self)).
///
/// # Panics
/// Panics if `a.len() != b.len()`.
pub fn add_bits_batch(
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    add_bits_batch_with(simd::active_engine(), fmt, a, b, mode, out)
}

/// [`add_bits_batch`] on an explicit engine.
///
/// # Panics
/// Panics if `a.len() != b.len()`, or if `eng` is a wide engine this host
/// cannot run.
pub fn add_bits_batch_with(
    eng: SimdEngine,
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    assert_eq!(a.len(), b.len(), "{}", LEN_MISMATCH);
    out.reserve(a.len());
    let load_one = |i: usize| (a[i], b[i]);
    if run_bin_pairs::<OP_ADD>(eng, fmt, a.len(), slices_chunk(a, b), load_one, mode, out) {
        return;
    }
    dispatch_binary!(
        single_pass,
        fmt,
        mode,
        a.iter().copied().zip(b.iter().copied()),
        out,
        add,
        add_dyn
    );
}

/// Batched `a[i] - b[i]`, appended to `out`; FP environment as [`add_bits_batch`].
///
/// # Panics
/// Panics if `a.len() != b.len()`.
pub fn sub_bits_batch(
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    sub_bits_batch_with(simd::active_engine(), fmt, a, b, mode, out)
}

/// [`sub_bits_batch`] on an explicit engine (panics as
/// [`add_bits_batch_with`]).
pub fn sub_bits_batch_with(
    eng: SimdEngine,
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    assert_eq!(a.len(), b.len(), "{}", LEN_MISMATCH);
    out.reserve(a.len());
    let load_one = |i: usize| (a[i], b[i]);
    if run_bin_pairs::<OP_SUB>(eng, fmt, a.len(), slices_chunk(a, b), load_one, mode, out) {
        return;
    }
    dispatch_binary!(
        single_pass,
        fmt,
        mode,
        a.iter().copied().zip(b.iter().copied()),
        out,
        sub,
        sub_dyn
    );
}

/// Batched `a[i] * b[i]`, appended to `out`; FP environment as
/// [`add_bits_batch`].
///
/// # Panics
/// Panics if `a.len() != b.len()`.
pub fn mul_bits_batch(
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    mul_bits_batch_with(simd::active_engine(), fmt, a, b, mode, out)
}

/// [`mul_bits_batch`] on an explicit engine (panics as
/// [`add_bits_batch_with`]).
pub fn mul_bits_batch_with(
    eng: SimdEngine,
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    assert_eq!(a.len(), b.len(), "{}", LEN_MISMATCH);
    out.reserve(a.len());
    let load_one = |i: usize| (a[i], b[i]);
    if run_bin_pairs::<OP_MUL>(eng, fmt, a.len(), slices_chunk(a, b), load_one, mode, out) {
        return;
    }
    dispatch_binary!(
        two_pass,
        fmt,
        mode,
        a.iter().copied().zip(b.iter().copied()),
        out,
        mul_normal,
        ops::mul::mul,
        mul_dyn
    );
}

/// Batched `a[i]·b[i] + c[i]` with one rounding each, appended to `out`.
/// Needs the default FP environment ([module docs](self)) for f32, f48
/// and f64 alike: every named format's fma runs on the binary64 unit.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn fma_bits_batch(
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    c: &[u64],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    fma_bits_batch_with(simd::active_engine(), fmt, a, b, c, mode, out)
}

/// [`fma_bits_batch`] on an explicit engine (panics as
/// [`add_bits_batch_with`]).
pub fn fma_bits_batch_with(
    eng: SimdEngine,
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    c: &[u64],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    assert_eq!(a.len(), b.len(), "{}", LEN_MISMATCH);
    assert_eq!(a.len(), c.len(), "{}", LEN_MISMATCH);
    out.reserve(a.len());
    let load_chunk =
        |i: usize, xs: &mut [u64; LANES], ys: &mut [u64; LANES], zs: &mut [u64; LANES]| {
            xs.copy_from_slice(&a[i..i + LANES]);
            ys.copy_from_slice(&b[i..i + LANES]);
            zs.copy_from_slice(&c[i..i + LANES]);
        };
    let load_one = |i: usize| (a[i], b[i], c[i]);
    let sink = &mut PairSink(out);
    if simd::run_fma(eng, fmt, a.len(), (load_chunk, load_one), mode, sink).is_some() {
        return;
    }
    let iter = a
        .iter()
        .zip(b.iter().zip(c.iter()))
        .map(|(&x, (&y, &z))| (x, y, z));
    dispatch_ternary!(fmt, mode, iter, out, fma, fma_dyn);
}

/// Batched `x + y` over `(x, y)` pairs — the operand shape of a served
/// eltwise job — appended to `out`; FP environment as [`add_bits_batch`].
pub fn add_pairs_batch(
    fmt: FpFormat,
    pairs: &[(u64, u64)],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    add_pairs_batch_with(simd::active_engine(), fmt, pairs, mode, out)
}

/// [`add_pairs_batch`] on an explicit engine (panics if the host cannot
/// run `eng`).
pub fn add_pairs_batch_with(
    eng: SimdEngine,
    fmt: FpFormat,
    pairs: &[(u64, u64)],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    out.reserve(pairs.len());
    let load_one = |i: usize| pairs[i];
    if run_bin_pairs::<OP_ADD>(
        eng,
        fmt,
        pairs.len(),
        pairs_chunk(pairs),
        load_one,
        mode,
        out,
    ) {
        return;
    }
    dispatch_binary!(
        single_pass,
        fmt,
        mode,
        pairs.iter().copied(),
        out,
        add,
        add_dyn
    );
}

/// Batched `x - y` over `(x, y)` pairs, appended to `out`; FP environment as [`add_bits_batch`].
pub fn sub_pairs_batch(
    fmt: FpFormat,
    pairs: &[(u64, u64)],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    sub_pairs_batch_with(simd::active_engine(), fmt, pairs, mode, out)
}

/// [`sub_pairs_batch`] on an explicit engine (panics if the host cannot
/// run `eng`).
pub fn sub_pairs_batch_with(
    eng: SimdEngine,
    fmt: FpFormat,
    pairs: &[(u64, u64)],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    out.reserve(pairs.len());
    let load_one = |i: usize| pairs[i];
    if run_bin_pairs::<OP_SUB>(
        eng,
        fmt,
        pairs.len(),
        pairs_chunk(pairs),
        load_one,
        mode,
        out,
    ) {
        return;
    }
    dispatch_binary!(
        single_pass,
        fmt,
        mode,
        pairs.iter().copied(),
        out,
        sub,
        sub_dyn
    );
}

/// Batched `x * y` over `(x, y)` pairs, appended to `out`; FP environment
/// as [`add_bits_batch`].
pub fn mul_pairs_batch(
    fmt: FpFormat,
    pairs: &[(u64, u64)],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    mul_pairs_batch_with(simd::active_engine(), fmt, pairs, mode, out)
}

/// [`mul_pairs_batch`] on an explicit engine (panics if the host cannot
/// run `eng`).
pub fn mul_pairs_batch_with(
    eng: SimdEngine,
    fmt: FpFormat,
    pairs: &[(u64, u64)],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    out.reserve(pairs.len());
    let load_one = |i: usize| pairs[i];
    if run_bin_pairs::<OP_MUL>(
        eng,
        fmt,
        pairs.len(),
        pairs_chunk(pairs),
        load_one,
        mode,
        out,
    ) {
        return;
    }
    dispatch_binary!(
        two_pass,
        fmt,
        mode,
        pairs.iter().copied(),
        out,
        mul_normal,
        ops::mul::mul,
        mul_dyn
    );
}

/// The scalar lane of the bits entry points: `out[i] = kernel(load(i))`
/// for every element, returning the OR of the flags.
#[inline(always)]
fn bits_loop(
    out: &[Cell<u64>],
    load: impl Fn(usize) -> (u64, u64),
    kernel: impl Fn(u64, u64) -> (u64, Flags),
) -> Flags {
    let mut flags = Flags::NONE;
    for (i, cell) in out.iter().enumerate() {
        let (x, y) = load(i);
        let (r, f) = kernel(x, y);
        cell.set(r);
        flags |= f;
    }
    flags
}

/// Dispatch [`bits_loop`] on the format once: the named formats run the
/// monomorphized `$kernel`, everything else `$dynk`.
macro_rules! dispatch_bits {
    ($fmt:expr, $mode:expr, $out:expr, $load:expr, $kernel:ident, $dynk:ident) => {{
        let (fmt, mode) = ($fmt, $mode);
        match lane_of(fmt) {
            Lane::Single => bits_loop($out, $load, |x, y| $kernel::<8, 23>(x, y, mode)),
            Lane::W48 => bits_loop($out, $load, |x, y| $kernel::<11, 36>(x, y, mode)),
            Lane::Double => bits_loop($out, $load, |x, y| $kernel::<11, 52>(x, y, mode)),
            Lane::Dyn => bits_loop($out, $load, |x, y| $dynk(fmt, x, y, mode)),
        }
    }};
}

/// The rank-1 multiply-accumulate steps of a matmul, MVM or dot row:
/// for each `k` in ascending order and each column `j < p`,
///
/// `bank[k % la][j] = widen(round_c(rhs[k][j] · lhs[k])) + bank[k % la][j]`
///
/// where `rhs[k][j]` is `rhs[k·stride + j]`, and `banks` packs `la`
/// accumulator rows of `p = banks.len() / la` columns each. The product
/// is rounded to `compute`, converted to `accumulate` ([`convert`]: exact
/// and flag-free when `accumulate` covers `compute`, rounding otherwise)
/// and added product first, rounded to `accumulate`: element for element
/// the same two roundings as a per-element [`mul_bits`], `convert`,
/// [`add_bits`] loop. Returns the OR of every step's flags.
///
/// On a wide engine, banks at least one chunk wide with named compute and
/// covering accumulate formats run a register-resident kernel: each chunk
/// of columns keeps its accumulators in a register across its steps, and
/// the product stays a binary64 value between the two roundings (see
/// [`simd`]). Every other case runs a per-element scalar loop inside this
/// call. FP environment as [`add_bits_batch`].
///
/// [`convert`]: crate::convert::convert
///
/// # Panics
/// Panics if `la` is 0 or does not divide `banks.len()`, if `p > stride`
/// with more than one step, or if `rhs` is too short for the last step.
#[allow(clippy::too_many_arguments)]
pub fn mac_steps_bits(
    compute: FpFormat,
    accumulate: FpFormat,
    lhs: &[u64],
    rhs: &[u64],
    stride: usize,
    banks: &mut [u64],
    la: usize,
    mode: RoundMode,
) -> Flags {
    let eng = simd::active_engine();
    mac_steps_bits_with(eng, compute, accumulate, lhs, rhs, stride, banks, la, mode)
}

/// [`mac_steps_bits`] on an explicit engine (panics as
/// [`add_bits_batch_with`] and [`mac_steps_bits`]).
#[allow(clippy::too_many_arguments)]
pub fn mac_steps_bits_with(
    eng: SimdEngine,
    compute: FpFormat,
    accumulate: FpFormat,
    lhs: &[u64],
    rhs: &[u64],
    stride: usize,
    banks: &mut [u64],
    la: usize,
    mode: RoundMode,
) -> Flags {
    assert!(
        la >= 1 && banks.len().is_multiple_of(la),
        "banks must hold la equal rows"
    );
    let (m, p) = (lhs.len(), banks.len() / la);
    if m == 0 || p == 0 {
        return Flags::NONE;
    }
    assert!(m == 1 || p <= stride, "rhs rows overlap");
    assert!(
        (m - 1) * stride + p <= rhs.len(),
        "rhs too short for {m} steps"
    );
    let wide = simd::run_mac(eng, compute, accumulate, lhs, rhs, stride, banks, la, mode);
    if let Some(flags) = wide {
        return flags;
    }
    let conv = |x: u64| {
        if compute == accumulate {
            (x, Flags::NONE)
        } else {
            crate::convert::convert(compute, x, accumulate, mode)
        }
    };
    if p == 1 && stride == 1 && m >= LANES {
        // A dot product of at least one chunk: the products do not
        // depend on the banks, so they are formed a block of rounds at a
        // time in one batch multiply; the adds then run element by
        // element.
        let block = la * (256 / la).max(1);
        let mut products = vec![0u64; block.min(m)];
        let mut flags = Flags::NONE;
        for (l, r) in lhs.chunks(block).zip(rhs[..m].chunks(block)) {
            let products = &mut products[..l.len()];
            flags |= mul_bits_into_with(eng, compute, r, l, mode, products);
            // The products stand in for both operands, and the multiply
            // passes them through.
            let steps = MacSteps {
                lhs: products,
                rhs: products,
                stride: 1,
                banks: &mut *banks,
                la,
            };
            flags |= steps.run(|x, _| (x, Flags::NONE), conv, accumulate, mode);
        }
        return flags;
    }
    let steps = MacSteps {
        lhs,
        rhs,
        stride,
        banks,
        la,
    };
    match lane_of(compute) {
        Lane::Single => steps.run(|x, y| mul::<8, 23>(x, y, mode), conv, accumulate, mode),
        Lane::W48 => steps.run(|x, y| mul::<11, 36>(x, y, mode), conv, accumulate, mode),
        Lane::Double => steps.run(|x, y| mul::<11, 52>(x, y, mode), conv, accumulate, mode),
        Lane::Dyn => steps.run(|x, y| mul_dyn(compute, x, y, mode), conv, accumulate, mode),
    }
}

/// The scalar loop of [`mac_steps_bits`]: its operands, and one
/// monomorphization per (compute lane, accumulate lane).
struct MacSteps<'s> {
    lhs: &'s [u64],
    rhs: &'s [u64],
    stride: usize,
    banks: &'s mut [u64],
    la: usize,
}

impl MacSteps<'_> {
    /// Dispatch the accumulate format once, then [`MacSteps::each`].
    #[inline(always)]
    fn run(
        self,
        mul: impl Fn(u64, u64) -> (u64, Flags),
        conv: impl Fn(u64) -> (u64, Flags),
        accumulate: FpFormat,
        mode: RoundMode,
    ) -> Flags {
        match lane_of(accumulate) {
            Lane::Single => self.each(mul, conv, |x, y| add::<8, 23>(x, y, mode)),
            Lane::W48 => self.each(mul, conv, |x, y| add::<11, 36>(x, y, mode)),
            Lane::Double => self.each(mul, conv, |x, y| add::<11, 52>(x, y, mode)),
            Lane::Dyn => self.each(mul, conv, |x, y| add_dyn(accumulate, x, y, mode)),
        }
    }

    /// Every step, element by element, in ascending `k`.
    #[inline(always)]
    fn each(
        self,
        mul: impl Fn(u64, u64) -> (u64, Flags),
        conv: impl Fn(u64) -> (u64, Flags),
        add: impl Fn(u64, u64) -> (u64, Flags),
    ) -> Flags {
        let p = self.banks.len() / self.la;
        let mut flags = Flags::NONE;
        // Step `k` reads rhs row `k` and writes bank slot `s = k % la`.
        let mut s = 0;
        for (&l, row) in self.lhs.iter().zip(self.rhs.chunks(self.stride.max(p))) {
            let bank = &mut self.banks[s * p..(s + 1) * p];
            s = if s + 1 == self.la { 0 } else { s + 1 };
            for (acc, &r) in bank.iter_mut().zip(&row[..p]) {
                let (x, f1) = mul(r, l);
                let (x, f2) = conv(x);
                let (y, f3) = add(x, *acc);
                *acc = y;
                flags |= f1 | f2 | f3;
            }
        }
        flags
    }
}

/// `acc[i] = x[i] + acc[i]` in place (operand order as written),
/// returning the OR of every element's flags — a matmul accumulation
/// step over a contiguous `C` column or row. FP environment as [`add_bits_batch`].
///
/// Bit-identical to [`add_bits_batch`]`(fmt, x, acc, …)` element for
/// element; the returned flags equal the OR of its per-element flags.
///
/// # Panics
/// Panics if `x.len() != acc.len()`.
pub fn add_acc_bits(fmt: FpFormat, x: &[u64], acc: &mut [u64], mode: RoundMode) -> Flags {
    add_acc_bits_with(simd::active_engine(), fmt, x, acc, mode)
}

/// [`add_acc_bits`] on an explicit engine (panics as
/// [`add_bits_batch_with`]).
pub fn add_acc_bits_with(
    eng: SimdEngine,
    fmt: FpFormat,
    x: &[u64],
    acc: &mut [u64],
    mode: RoundMode,
) -> Flags {
    assert_eq!(x.len(), acc.len(), "{}", LEN_MISMATCH);
    let acc = Cell::from_mut(acc).as_slice_of_cells();
    #[allow(clippy::needless_range_loop)]
    let load_chunk = |i: usize, xs: &mut [u64; LANES], ys: &mut [u64; LANES]| {
        xs.copy_from_slice(&x[i..i + LANES]);
        for l in 0..LANES {
            ys[l] = acc[i + l].get();
        }
    };
    let load_one = |i: usize| (x[i], acc[i].get());
    let sink = &mut BitsSink::flat(acc);
    if let Some(flags) =
        simd::run_bin::<OP_ADD>(eng, fmt, x.len(), load_chunk, load_one, mode, sink)
    {
        return flags;
    }
    dispatch_bits!(fmt, mode, acc, load_one, add, add_dyn)
}

/// Batched `a[i] / b[i]`, appended to `out`. On a wide engine the named
/// formats divide on the host's binary64 unit (see [`simd`]), so this
/// needs the default FP environment, as [`add_bits_batch`] does; the
/// scalar engine and dynamic formats run the generic divider
/// ([`crate::div_bits`]) per element.
///
/// # Panics
/// Panics if `a.len() != b.len()`.
pub fn div_bits_batch(
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    div_bits_batch_with(simd::active_engine(), fmt, a, b, mode, out)
}

/// [`div_bits_batch`] on an explicit engine (panics as
/// [`add_bits_batch_with`]).
pub fn div_bits_batch_with(
    eng: SimdEngine,
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    assert_eq!(a.len(), b.len(), "{}", LEN_MISMATCH);
    out.reserve(a.len());
    let load_one = |i: usize| (a[i], b[i]);
    if run_bin_pairs::<OP_DIV>(eng, fmt, a.len(), slices_chunk(a, b), load_one, mode, out) {
        return;
    }
    out.extend(
        a.iter()
            .zip(b)
            .map(|(&x, &y)| ops::div::div(fmt, x, y, mode)),
    );
}

/// Batched `√a[i]`, appended to `out`; engines and FP environment as
/// [`div_bits_batch`].
pub fn sqrt_bits_batch(fmt: FpFormat, a: &[u64], mode: RoundMode, out: &mut Vec<(u64, Flags)>) {
    sqrt_bits_batch_with(simd::active_engine(), fmt, a, mode, out)
}

/// [`sqrt_bits_batch`] on an explicit engine (panics if the host cannot
/// run `eng`).
pub fn sqrt_bits_batch_with(
    eng: SimdEngine,
    fmt: FpFormat,
    a: &[u64],
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    out.reserve(a.len());
    let load_chunk = |i: usize, xs: &mut [u64; LANES], _: &mut [u64; LANES]| {
        xs.copy_from_slice(&a[i..i + LANES]);
    };
    let load_one = |i: usize| (a[i], 0);
    if run_bin_pairs::<OP_SQRT>(eng, fmt, a.len(), load_chunk, load_one, mode, out) {
        return;
    }
    out.extend(a.iter().map(|&x| ops::sqrt::sqrt(fmt, x, mode)));
}

/// `out[i] = a[i] + b[i]`, writing result bits only and returning the OR
/// of every element's flags; bit-identical to [`add_bits_batch`] element
/// for element. FP environment as [`add_bits_batch`].
///
/// # Panics
/// Panics unless `a`, `b` and `out` have equal lengths.
pub fn add_bits_into(
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut [u64],
) -> Flags {
    add_bits_into_with(simd::active_engine(), fmt, a, b, mode, out)
}

/// [`add_bits_into`] on an explicit engine (panics as
/// [`add_bits_batch_with`]).
pub fn add_bits_into_with(
    eng: SimdEngine,
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut [u64],
) -> Flags {
    bin_bits_into::<OP_ADD>(eng, fmt, a, b, mode, out)
}

/// `out[i] = a[i] - b[i]`, as [`add_bits_into`].
pub fn sub_bits_into(
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut [u64],
) -> Flags {
    sub_bits_into_with(simd::active_engine(), fmt, a, b, mode, out)
}

/// [`sub_bits_into`] on an explicit engine.
pub fn sub_bits_into_with(
    eng: SimdEngine,
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut [u64],
) -> Flags {
    bin_bits_into::<OP_SUB>(eng, fmt, a, b, mode, out)
}

/// `out[i] = a[i] * b[i]`, as [`add_bits_into`].
pub fn mul_bits_into(
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut [u64],
) -> Flags {
    mul_bits_into_with(simd::active_engine(), fmt, a, b, mode, out)
}

/// [`mul_bits_into`] on an explicit engine.
pub fn mul_bits_into_with(
    eng: SimdEngine,
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut [u64],
) -> Flags {
    bin_bits_into::<OP_MUL>(eng, fmt, a, b, mode, out)
}

/// `out[i] = a[i] / b[i]`, as [`add_bits_into`]; engines as
/// [`div_bits_batch`].
pub fn div_bits_into(
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut [u64],
) -> Flags {
    div_bits_into_with(simd::active_engine(), fmt, a, b, mode, out)
}

/// [`div_bits_into`] on an explicit engine.
pub fn div_bits_into_with(
    eng: SimdEngine,
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut [u64],
) -> Flags {
    bin_bits_into::<OP_DIV>(eng, fmt, a, b, mode, out)
}

/// The body of the `*_bits_into` entry points.
#[inline(always)]
fn bin_bits_into<const OP: u8>(
    eng: SimdEngine,
    fmt: FpFormat,
    a: &[u64],
    b: &[u64],
    mode: RoundMode,
    out: &mut [u64],
) -> Flags {
    assert_eq!(a.len(), b.len(), "{}", LEN_MISMATCH);
    assert_eq!(a.len(), out.len(), "{}", LEN_MISMATCH);
    let out = Cell::from_mut(out).as_slice_of_cells();
    let load_one = |i: usize| (a[i], b[i]);
    let sink = &mut BitsSink::flat(out);
    if let Some(flags) =
        simd::run_bin::<OP>(eng, fmt, a.len(), slices_chunk(a, b), load_one, mode, sink)
    {
        return flags;
    }
    match OP {
        OP_ADD => dispatch_bits!(fmt, mode, out, load_one, add, add_dyn),
        OP_SUB => dispatch_bits!(fmt, mode, out, load_one, sub, sub_dyn),
        OP_MUL => dispatch_bits!(fmt, mode, out, load_one, mul, mul_dyn),
        _ => bits_loop(out, load_one, |x, y| ops::div::div(fmt, x, y, mode)),
    }
}

/// The rank-1 update `b[i][j] = col[i]·row[j] + b[i][j]` in place, where
/// `b[i][j]` is `block[i·stride + j]`: the `col.len() × row.len()` block
/// whose rows start `stride` elements apart, one rounding each. Returns
/// the OR of every element's flags. It is one in-place fma batch over
/// the block in row-major order, so only its last `len % LANES` elements
/// take the scalar tail. This is an elimination step of LU (`col` the
/// negated multipliers, `row` the pivot row's tail). Bit-identical to
/// [`fma_bits_batch`] over the gathered operands; FP environment as
/// [`fma_bits_batch`].
///
/// # Panics
/// Panics if `row.len() > stride` with more than one row, or if `block`
/// is too short for the last row.
pub fn fma_rank1_bits(
    fmt: FpFormat,
    col: &[u64],
    row: &[u64],
    block: &mut [u64],
    stride: usize,
    mode: RoundMode,
) -> Flags {
    fma_rank1_bits_with(simd::active_engine(), fmt, col, row, block, stride, mode)
}

/// [`fma_rank1_bits`] on an explicit engine (panics as
/// [`add_bits_batch_with`]).
pub fn fma_rank1_bits_with(
    eng: SimdEngine,
    fmt: FpFormat,
    col: &[u64],
    row: &[u64],
    block: &mut [u64],
    stride: usize,
    mode: RoundMode,
) -> Flags {
    let (rows, cols) = (col.len(), row.len());
    if rows == 0 || cols == 0 {
        return Flags::NONE;
    }
    assert!(rows == 1 || cols <= stride, "block rows overlap");
    assert!(
        (rows - 1) * stride + cols <= block.len(),
        "block too short for {rows} rows"
    );
    let cells = Cell::from_mut(block).as_slice_of_cells();
    let walk = BlockWalk {
        col,
        row,
        cells,
        stride,
        i: 0,
        j: 0,
    };
    let sink = &mut BitsSink::block(cells, cols, stride);
    if let Some(flags) = simd::run_fma(eng, fmt, rows * cols, walk, mode, sink) {
        return flags;
    }
    let elements = col.iter().enumerate().flat_map(|(i, &c)| {
        let cells = &cells[i * stride..];
        row.iter().zip(cells).map(move |(&r, cell)| (c, r, cell))
    });
    fma_cells(fmt, mode, elements)
}

/// The operands of a rank-1 update's block in row-major order. The
/// drivers load them in order, so the walk keeps the next element's row
/// and column instead of dividing element indices by the row width.
struct BlockWalk<'s> {
    col: &'s [u64],
    row: &'s [u64],
    cells: &'s [Cell<u64>],
    stride: usize,
    i: usize,
    j: usize,
}

impl BlockWalk<'_> {
    /// Step past `m` elements of the current row.
    #[inline(always)]
    fn advance(&mut self, m: usize) {
        self.j += m;
        if self.j == self.row.len() {
            (self.i, self.j) = (self.i + 1, 0);
        }
    }
}

/// `inline(always)`, which a closure cannot carry: LLVM leaves a loader
/// this size out of line, where its baseline-ISA stores of the chunk stall
/// the drivers' wide loads of it.
impl FmaLoad for BlockWalk<'_> {
    #[inline(always)]
    fn chunk(
        &mut self,
        _: usize,
        xs: &mut [u64; LANES],
        ys: &mut [u64; LANES],
        zs: &mut [u64; LANES],
    ) {
        let (i, j) = (self.i, self.j);
        if j + LANES <= self.row.len() {
            let at = i * self.stride + j;
            *xs = [self.col[i]; LANES];
            ys.copy_from_slice(&self.row[j..j + LANES]);
            for (z, c) in zs.iter_mut().zip(&self.cells[at..at + LANES]) {
                *z = c.get();
            }
            self.advance(LANES);
        } else {
            for l in 0..LANES {
                (xs[l], ys[l], zs[l]) = self.one(0);
            }
        }
    }

    #[inline(always)]
    fn one(&mut self, _: usize) -> (u64, u64, u64) {
        let (i, j) = (self.i, self.j);
        self.advance(1);
        (
            self.col[i],
            self.row[j],
            self.cells[i * self.stride + j].get(),
        )
    }
}

/// The scalar lane of the in-place fma entry points: `cell = x·y + cell`
/// for every `(x, y, cell)`, returning the OR of the flags, with the
/// format dispatched once.
#[inline(always)]
fn fma_cells<'c>(
    fmt: FpFormat,
    mode: RoundMode,
    elements: impl Iterator<Item = (u64, u64, &'c Cell<u64>)>,
) -> Flags {
    #[inline(always)]
    fn each<'c>(
        elements: impl Iterator<Item = (u64, u64, &'c Cell<u64>)>,
        kernel: impl Fn(u64, u64, u64) -> (u64, Flags),
    ) -> Flags {
        elements.fold(Flags::NONE, |flags, (x, y, cell)| {
            let (r, f) = kernel(x, y, cell.get());
            cell.set(r);
            flags | f
        })
    }
    match lane_of(fmt) {
        Lane::Single => each(elements, |x, y, z| fma::<8, 23>(x, y, z, mode)),
        Lane::W48 => each(elements, |x, y, z| fma::<11, 36>(x, y, z, mode)),
        Lane::Double => each(elements, |x, y, z| fma::<11, 52>(x, y, z, mode)),
        Lane::Dyn => each(elements, |x, y, z| fma_dyn(fmt, x, y, z, mode)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [RoundMode; 2] = [RoundMode::NearestEven, RoundMode::Truncate];

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
            fmt.pack(false, fmt.bias() as u64, 0), // 1.0
            fmt.pack(true, fmt.bias() as u64, 1),  // just under -1
            fmt.pack(false, fmt.bias() as u64 + 1, fmt.frac_mask()), // just under 4
            fmt.pack(false, 1, fmt.frac_mask()),   // near the flush cliff
            fmt.pack(true, fmt.max_biased_exp(), fmt.frac_mask() >> 1),
            fmt.pack(false, 3, 5),              // denormal-ish tiny normal
            fmt.pack(false, 0, 7),              // denormal encoding (flushes)
            fmt.pack(true, 0, fmt.frac_mask()), // largest denormal encoding
            fmt.pack(false, fmt.inf_biased_exp(), 1), // NaN-pattern (classed Inf)
        ];
        // A deterministic scattering of random-ish normals.
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..64 {
            s = s
                .wrapping_mul(0xd129_42e2_96fe_94e3)
                .wrapping_add(0x2545_f491_4f6c_dd1d);
            v.push(s & fmt.enc_mask());
        }
        v
    }

    fn formats() -> Vec<FpFormat> {
        vec![
            FpFormat::SINGLE,
            FpFormat::FP48,
            FpFormat::DOUBLE,
            FpFormat::new(5, 10),
            FpFormat::new(2, 2),
            FpFormat::new(15, 48),
            FpFormat::new(4, 56),
        ]
    }

    #[test]
    fn scalar_fast_matches_generic_add_sub_mul() {
        for fmt in formats() {
            let vals = probe_values(fmt);
            for mode in MODES {
                for &a in &vals {
                    for &b in &vals {
                        assert_eq!(
                            add_bits(fmt, a, b, mode),
                            ops::add::add(fmt, a, b, mode),
                            "add {fmt:?} {a:#x} {b:#x} {mode:?}"
                        );
                        assert_eq!(
                            sub_bits(fmt, a, b, mode),
                            ops::add::sub(fmt, a, b, mode),
                            "sub {fmt:?} {a:#x} {b:#x} {mode:?}"
                        );
                        assert_eq!(
                            mul_bits(fmt, a, b, mode),
                            ops::mul::mul(fmt, a, b, mode),
                            "mul {fmt:?} {a:#x} {b:#x} {mode:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_fast_matches_generic_fma() {
        for fmt in formats() {
            let vals = probe_values(fmt);
            // Cube over a thinned value set to keep runtime sane.
            let thin: Vec<u64> = vals.iter().step_by(3).copied().collect();
            for mode in MODES {
                for &a in &thin {
                    for &b in &thin {
                        for &c in &thin {
                            assert_eq!(
                                fma_bits(fmt, a, b, c, mode),
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
    fn batch_matches_scalar_and_appends() {
        let fmt = FpFormat::SINGLE;
        let vals = probe_values(fmt);
        let a: Vec<u64> = vals.to_vec();
        let b: Vec<u64> = vals.iter().rev().copied().collect();
        let mut out = vec![(0xdead, Flags::NONE)]; // pre-existing element survives
        add_bits_batch(fmt, &a, &b, RoundMode::NearestEven, &mut out);
        assert_eq!(out.len(), 1 + a.len());
        for i in 0..a.len() {
            assert_eq!(
                out[1 + i],
                add_bits(fmt, a[i], b[i], RoundMode::NearestEven)
            );
        }
    }

    #[test]
    fn batch_empty_slices_are_noops() {
        let fmt = FpFormat::FP48;
        let mut out = Vec::new();
        add_bits_batch(fmt, &[], &[], RoundMode::NearestEven, &mut out);
        sub_bits_batch(fmt, &[], &[], RoundMode::Truncate, &mut out);
        mul_bits_batch(fmt, &[], &[], RoundMode::NearestEven, &mut out);
        fma_bits_batch(fmt, &[], &[], &[], RoundMode::NearestEven, &mut out);
        add_pairs_batch(fmt, &[], RoundMode::NearestEven, &mut out);
        sub_pairs_batch(fmt, &[], RoundMode::NearestEven, &mut out);
        mul_pairs_batch(fmt, &[], RoundMode::NearestEven, &mut out);
        assert!(out.is_empty());
        let mode = RoundMode::NearestEven;
        assert_eq!(
            mac_steps_bits(fmt, fmt, &[], &[], 0, &mut [], 1, mode),
            Flags::NONE
        );
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn add_batch_length_mismatch_panics() {
        let mut out = Vec::new();
        add_bits_batch(
            FpFormat::SINGLE,
            &[0],
            &[],
            RoundMode::NearestEven,
            &mut out,
        );
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mul_batch_length_mismatch_panics() {
        let mut out = Vec::new();
        mul_bits_batch(
            FpFormat::SINGLE,
            &[0, 1],
            &[0],
            RoundMode::Truncate,
            &mut out,
        );
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn fma_batch_length_mismatch_panics() {
        let mut out = Vec::new();
        fma_bits_batch(
            FpFormat::DOUBLE,
            &[0],
            &[0],
            &[0, 1],
            RoundMode::NearestEven,
            &mut out,
        );
    }

    #[test]
    fn mac_steps_match_the_element_loop() {
        let fmt = FpFormat::DOUBLE;
        let (lhs, rhs) = (probe_values(fmt), probe_values(FpFormat::SINGLE));
        let (m, p) = (9, 5);
        for (compute, accumulate) in [(fmt, fmt), (FpFormat::SINGLE, fmt), (fmt, FpFormat::SINGLE)]
        {
            let lhs: Vec<u64> = lhs[..m].iter().map(|&x| x & compute.enc_mask()).collect();
            let rhs: Vec<u64> = rhs[..m * p]
                .iter()
                .map(|&x| x & compute.enc_mask())
                .collect();
            for la in [1, 2] {
                let mut want = vec![accumulate.zero(); la * p];
                let mut flags = Flags::NONE;
                for k in 0..m {
                    for j in 0..p {
                        let (x, f1) =
                            mul_bits(compute, rhs[k * p + j], lhs[k], RoundMode::Truncate);
                        let (x, f2) =
                            crate::convert::convert(compute, x, accumulate, RoundMode::Truncate);
                        let acc = &mut want[(k % la) * p + j];
                        let (y, f3) = add_bits(accumulate, x, *acc, RoundMode::Truncate);
                        (*acc, flags) = (y, flags | f1 | f2 | f3);
                    }
                }
                let mut got = vec![accumulate.zero(); la * p];
                let got_flags = mac_steps_bits(
                    compute,
                    accumulate,
                    &lhs,
                    &rhs,
                    p,
                    &mut got,
                    la,
                    RoundMode::Truncate,
                );
                assert_eq!(
                    (got, got_flags),
                    (want, flags),
                    "{compute:?} -> {accumulate:?} la={la}"
                );
            }
        }
    }
}

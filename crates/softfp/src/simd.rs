//! Runtime-dispatched batch lanes: every named-format batch add, sub,
//! mul, fma, divide and square root runs [`LANES`] elements per chunk on
//! the host's binary64 unit, whichever engine runs it.
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
//!   whatever the operands' exponents; an f48/f64 add lane whose TwoSum
//!   overflows binary64 is redone on its halved operands the same way.
//!   All of this assumes Rust's default FP environment
//!   (round-to-nearest-even, no FTZ/DAZ). The blocks are total over
//!   arbitrary encodings (special operands produce garbage that the
//!   driver blends over — never a panic or UB) and bit-exact twins of
//!   the generic [`crate::ops`] on normal operands.
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
//! * **Every element in a chunk**: a batch's last `len % LANES` elements,
//!   a batch shorter than a chunk included, run as one more chunk padded
//!   with 1.0, whose padding lanes are dropped.
//! * **Three engines behind the `Words` trait**: the block kernels are
//!   generic over a lane-word vocabulary (binary64 arithmetic, integer
//!   add/sub/logic, uniform shifts, compares-to-mask, select). The
//!   portable engine ([`SimdEngine::Scalar`]) implements it on a plain
//!   `[u64; LANES]` in safe Rust on every target; on x86-64 the wide
//!   engines implement it with `#[target_feature]`-annotated explicit
//!   intrinsics — AVX-512 (`__m512i`, `__mmask8` compares) and AVX2 with
//!   FMA3 (`__m256i` pairs). Explicit intrinsics, not autovectorization:
//!   LLVM refuses to vectorize the long select-chain bodies on its own.
//!   The epilogue is vectorized too — packed flag words become [`Flags`]
//!   byte patterns via an in-register 8-entry LUT and are stored
//!   interleaved with the results, under compile-time layout checks. The
//!   bits entry points ([`crate::fastpath::add_acc_bits`], the
//!   `*_bits_into` family and [`crate::fastpath::fma_rank1_bits`]) take a
//!   second sink through the same binary and fma drivers: result words
//!   only, written in element order into a flat slice or a strided block,
//!   with each chunk's flags decoded by a LUT and OR-ed in register into
//!   one [`Flags`] for the batch.
//! * **A register-resident multiply-accumulate driver** behind
//!   [`crate::fastpath::mac_steps_bits`], the matmul, MVM and dot kernel:
//!   one monomorphization per (compute lane, covering accumulate lane),
//!   column chunks outside and steps inside, so a chunk's accumulators
//!   stay in a register across every step. Each step is the multiply
//!   block rounded to the compute format but kept as its binary64 value
//!   (`round_val_f64`), then TwoSum with the widened accumulators and one
//!   rounding step to the accumulate format; special lanes blend the two
//!   special blocks. A row narrower than a chunk, or a ragged last chunk,
//!   runs padded. Flag codes are gathered one-hot per step and decoded
//!   once per call.
//! * **Engine by value**: [`active_engine`] detects the best engine once
//!   per process (AVX-512, else AVX2 with FMA3, else
//!   [`SimdEngine::Scalar`]). Every batch entry point in
//!   [`crate::fastpath`] has a `*_with` form that takes the engine as an
//!   argument, and the plain form passes [`active_engine`] — so every
//!   existing consumer (the matmul policy kernels, served eltwise, LU
//!   and FFT, the network front-end) runs the detected engine with zero
//!   call-site changes, while tests and conformance sweeps pin an engine
//!   without touching any process-wide state.
//!
//! Dynamic formats have no lane here; their batches run the generic
//! [`crate::ops`].

use crate::exceptions::Flags;
use crate::format::FpFormat;
use crate::round::RoundMode;
use std::cell::Cell;
use std::sync::OnceLock;

mod wide;
pub(crate) use wide::{run_bin, run_fma, run_mac};

/// Lanes per chunk. Eight u64 lanes = one 512-bit register (AVX-512) or
/// two 256-bit registers (AVX2) per operand stream; wide enough to keep
/// the vector units busy through the long select chains, narrow enough
/// that the per-chunk classify mask and the padded tail stay cheap.
pub const LANES: usize = 8;

// ---------------------------------------------------------------------------
// Engine detection
// ---------------------------------------------------------------------------

/// The datapath a batch runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdEngine {
    /// The portable engine: the same chunked drivers and binary64
    /// blocks as the wide engines, on a plain `[u64; LANES]` word, on
    /// every target. Like the wide engines it needs Rust's default FP
    /// environment. Its fma is `f64::mul_add`, which a host without
    /// hardware FMA computes correctly but slowly, in software.
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
/// host supports (AVX-512, then AVX2, then the portable engine), detected on
/// first use and fixed for the life of the process.
pub fn active_engine() -> SimdEngine {
    static ENGINE: OnceLock<SimdEngine> = OnceLock::new();
    *ENGINE.get_or_init(|| SimdEngine::available().last().unwrap_or(SimdEngine::Scalar))
}

// Packed flag codes. The rounding step only emits 0, `FL_INEXACT`,
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

// ---------------------------------------------------------------------------
// Batch entry
// ---------------------------------------------------------------------------
//
// `run_bin` / `run_fma` / `run_mac` run a batch on an engine, or return
// `None` (leaving the output untouched) for a format without a named
// lane, which the caller runs on the generic ops.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastpath::{
        add_bits_batch_with, add_pairs_batch_with, fma_bits_batch_with, mac_steps_bits_with,
        mul_bits_batch_with, sub_bits_batch_with,
    };
    use crate::ops;

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
        // The scalar engine's fma batches: the portable word on the named
        // f48/f64 lanes (ErrFma on `f64::mul_add`), and the generic loop
        // on dynamic formats too wide for a 64-bit aligned sum.
        for fmt in [
            FpFormat::FP48,
            FpFormat::DOUBLE,
            FpFormat::new(15, 48),
            FpFormat::new(4, 56),
            FpFormat::new(2, 30),
        ] {
            let thin: Vec<u64> = probe_values(fmt).into_iter().step_by(5).collect();
            let n = thin.len();
            let a: Vec<u64> = (0..n * n * n).map(|i| thin[i / (n * n)]).collect();
            let b: Vec<u64> = (0..n * n * n).map(|i| thin[i / n % n]).collect();
            let c: Vec<u64> = (0..n * n * n).map(|i| thin[i % n]).collect();
            for mode in MODES {
                let expect: Vec<_> = (0..a.len())
                    .map(|i| ops::fma::fma(fmt, a[i], b[i], c[i], mode))
                    .collect();
                let mut got = Vec::new();
                fma_bits_batch_with(SimdEngine::Scalar, fmt, &a, &b, &c, mode, &mut got);
                assert_eq!(got, expect, "fma {fmt:?} {mode:?}");
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
                .map(|i| ops::fma::fma(fmt, a[i], b[i], c[i], mode))
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

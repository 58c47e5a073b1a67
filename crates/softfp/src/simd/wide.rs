//! The batch engines: the lane-word trait, its portable implementation
//! and (x86-64 only) its AVX2 and AVX-512 ones, the engine-generic block
//! kernels, the special-operand blocks and the batch drivers that blend
//! the two.

use super::*;
use std::ops::Range;

// ---------------------------------------------------------------------------
// The SIMD word: one trait, three engines
// ---------------------------------------------------------------------------
//
// `Words` is a [`LANES`]-wide vector of u64 plus an engine-specific
// lane-mask type. The block kernels below are written once, generically,
// against this trait; the three impls pin the instruction selection:
//
// * `Word` — a plain `[u64; LANES]`, masks as all-ones/all-zeros lanes,
//   on every target: the `Scalar` engine.
// * `W2` — two `__m256i` halves under `#[target_feature(enable =
//   "avx2,fma")]`, masks as all-ones/all-zeros lanes.
// * `W5` — one `__m512i` under the AVX-512 feature set, with `__mmask8`
//   lane masks and native unsigned compares.
//
// Every method is an `unsafe fn`: the intrinsic impls must only be
// reached after positive runtime feature detection, which the dispatch
// layer guarantees. Explicit intrinsics — rather than autovectorized lane
// loops — are the point: LLVM scalarizes the long select chains of the
// rounding and special blocks when left to vectorize them itself.
//
// Semantics contract (what the equivalence tests pin down): the integer
// methods are exact lane-wise u64 operations (wrapping), with uniform
// shift amounts below 64. `fadd`/`fsub`/`fmul`/`fdiv`/`fsqrt`/`ffma` are
// IEEE binary64 operations rounded to nearest-even with subnormals kept,
// which is Rust's default FP environment; the blocks only feed them
// normal values (see `add_b64_block`, `scale_pair` and `div_b64_block`).
// The datapath's lanes with a special operand may hold
// anything: the drivers blend the special blocks' result over every
// such lane, so the datapath's contents there are never observable.

/// The engine-generic SIMD word: [`LANES`] u64 lanes.
pub(crate) trait Words: Copy {
    /// Lane-mask type (all-ones/all-zeros words, or a compact bitmask).
    type M: Copy;
    /// Whether the drivers call the chunk kernels out of line, through one
    /// shared copy per format and op: the portable word, whose every entry
    /// point would otherwise inline a copy of its own. The intrinsics
    /// engines keep them inline in their `#[target_feature]` shims.
    const SHARED: bool = false;
    unsafe fn splat(x: u64) -> Self;
    unsafe fn load(src: &[u64; LANES]) -> Self;
    unsafe fn store(self, dst: &mut [u64; LANES]);
    unsafe fn vadd(self, o: Self) -> Self;
    unsafe fn vsub(self, o: Self) -> Self;
    /// Binary64 sum, difference and product of lanes read as `f64` bits
    /// (host FPU, Rust's default environment: RNE, no FTZ/DAZ).
    unsafe fn fadd(self, o: Self) -> Self;
    unsafe fn fsub(self, o: Self) -> Self;
    unsafe fn fmul(self, o: Self) -> Self;
    /// Binary64 quotient and square root (same environment).
    unsafe fn fdiv(self, o: Self) -> Self;
    unsafe fn fsqrt(self) -> Self;
    /// Fused binary64 `self·y + z`, rounded once.
    unsafe fn ffma(self, y: Self, z: Self) -> Self;
    unsafe fn vand(self, o: Self) -> Self;
    unsafe fn vor(self, o: Self) -> Self;
    unsafe fn vxor(self, o: Self) -> Self;
    /// Uniform left shift by a runtime-constant amount (< 64).
    unsafe fn shlc(self, n: u32) -> Self;
    /// Uniform right shift by a runtime-constant amount (< 64).
    unsafe fn shrc(self, n: u32) -> Self;
    /// Per-lane left shift by `n`'s lanes (a lane of 64 or more gives 0).
    unsafe fn shlv(self, n: Self) -> Self;
    unsafe fn veq(self, o: Self) -> Self::M;
    unsafe fn vne(self, o: Self) -> Self::M;
    unsafe fn vgt_u(self, o: Self) -> Self::M;
    unsafe fn vlt_u(self, o: Self) -> Self::M;
    /// Signed compare on lanes holding two's-complement i64 values.
    unsafe fn vgt_s(self, o: Self) -> Self::M;
    unsafe fn vlt_s(self, o: Self) -> Self::M;
    unsafe fn mand(a: Self::M, b: Self::M) -> Self::M;
    unsafe fn mor(a: Self::M, b: Self::M) -> Self::M;
    unsafe fn mnot(a: Self::M) -> Self::M;
    /// Pick `t` where the mask is set, `f` elsewhere.
    unsafe fn sel(m: Self::M, t: Self, f: Self) -> Self;
    /// Mask → 0/1 word per lane.
    unsafe fn m01(m: Self::M) -> Self;
    /// True when every lane of the mask is set.
    unsafe fn mall(m: Self::M) -> bool;
    /// Lane bitmask (bit `l` = lane `l` set).
    unsafe fn mbits(m: Self::M) -> u32;
    /// Per-lane table lookup `lut[self]`; lanes must be < 8.
    unsafe fn lut8(self, lut: &[u64; 8]) -> Self;
    /// Store `(self, o)` as interleaved pairs: `dst[2l] = self[l]`,
    /// `dst[2l+1] = o[l]`. `dst` must be valid for `2 * LANES` words.
    unsafe fn store_interleaved(self, o: Self, dst: *mut u64);
}

/// The portable engine: [`LANES`] u64 lanes in plain Rust, each `f64` op
/// through `from_bits`/`to_bits`, and masks as all-ones lanes. Its
/// methods are safe; the trait marks them `unsafe` for the intrinsics
/// engines.
#[derive(Clone, Copy)]
struct Word([u64; LANES]);

impl Word {
    #[inline(always)]
    fn map(mut self, f: impl Fn(u64) -> u64) -> Word {
        for l in 0..LANES {
            self.0[l] = f(self.0[l]);
        }
        self
    }
    #[inline(always)]
    fn zip(mut self, o: Word, f: impl Fn(u64, u64) -> u64) -> Word {
        for l in 0..LANES {
            self.0[l] = f(self.0[l], o.0[l]);
        }
        self
    }
    #[inline(always)]
    fn fop(self, o: Word, f: impl Fn(f64, f64) -> f64) -> Word {
        self.zip(o, |x, y| f(f64::from_bits(x), f64::from_bits(y)).to_bits())
    }
    #[inline(always)]
    fn mask(self, o: Word, f: impl Fn(u64, u64) -> bool) -> Word {
        self.zip(o, |x, y| (f(x, y) as u64).wrapping_neg())
    }
}

impl Words for Word {
    type M = Word;
    const SHARED: bool = true;
    #[inline(always)]
    unsafe fn splat(x: u64) -> Word {
        Word([x; LANES])
    }
    #[inline(always)]
    unsafe fn load(src: &[u64; LANES]) -> Word {
        Word(*src)
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [u64; LANES]) {
        *dst = self.0
    }
    #[inline(always)]
    unsafe fn vadd(self, o: Word) -> Word {
        self.zip(o, u64::wrapping_add)
    }
    #[inline(always)]
    unsafe fn vsub(self, o: Word) -> Word {
        self.zip(o, u64::wrapping_sub)
    }
    #[inline(always)]
    unsafe fn fadd(self, o: Word) -> Word {
        self.fop(o, |x, y| x + y)
    }
    #[inline(always)]
    unsafe fn fsub(self, o: Word) -> Word {
        self.fop(o, |x, y| x - y)
    }
    #[inline(always)]
    unsafe fn fmul(self, o: Word) -> Word {
        self.fop(o, |x, y| x * y)
    }
    #[inline(always)]
    unsafe fn fdiv(self, o: Word) -> Word {
        self.fop(o, |x, y| x / y)
    }
    #[inline(always)]
    unsafe fn fsqrt(self) -> Word {
        self.map(|x| f64::from_bits(x).sqrt().to_bits())
    }
    #[inline(always)]
    unsafe fn ffma(mut self, y: Word, z: Word) -> Word {
        let f = f64::from_bits;
        for l in 0..LANES {
            self.0[l] = f(self.0[l]).mul_add(f(y.0[l]), f(z.0[l])).to_bits();
        }
        self
    }
    #[inline(always)]
    unsafe fn vand(self, o: Word) -> Word {
        self.zip(o, |x, y| x & y)
    }
    #[inline(always)]
    unsafe fn vor(self, o: Word) -> Word {
        self.zip(o, |x, y| x | y)
    }
    #[inline(always)]
    unsafe fn vxor(self, o: Word) -> Word {
        self.zip(o, |x, y| x ^ y)
    }
    #[inline(always)]
    unsafe fn shlc(self, n: u32) -> Word {
        self.map(|x| x << n)
    }
    #[inline(always)]
    unsafe fn shrc(self, n: u32) -> Word {
        self.map(|x| x >> n)
    }
    #[inline(always)]
    unsafe fn shlv(self, n: Word) -> Word {
        self.zip(n, |x, s| if s < 64 { x << s } else { 0 })
    }
    #[inline(always)]
    unsafe fn veq(self, o: Word) -> Word {
        self.mask(o, |x, y| x == y)
    }
    #[inline(always)]
    unsafe fn vne(self, o: Word) -> Word {
        self.mask(o, |x, y| x != y)
    }
    #[inline(always)]
    unsafe fn vgt_u(self, o: Word) -> Word {
        self.mask(o, |x, y| x > y)
    }
    #[inline(always)]
    unsafe fn vlt_u(self, o: Word) -> Word {
        self.mask(o, |x, y| x < y)
    }
    #[inline(always)]
    unsafe fn vgt_s(self, o: Word) -> Word {
        self.mask(o, |x, y| (x as i64) > (y as i64))
    }
    #[inline(always)]
    unsafe fn vlt_s(self, o: Word) -> Word {
        self.mask(o, |x, y| (x as i64) < (y as i64))
    }
    #[inline(always)]
    unsafe fn mand(a: Word, b: Word) -> Word {
        a.vand(b)
    }
    #[inline(always)]
    unsafe fn mor(a: Word, b: Word) -> Word {
        a.vor(b)
    }
    #[inline(always)]
    unsafe fn mnot(a: Word) -> Word {
        a.map(|x| !x)
    }
    #[inline(always)]
    unsafe fn sel(m: Word, mut t: Word, f: Word) -> Word {
        for l in 0..LANES {
            t.0[l] = (t.0[l] & m.0[l]) | (f.0[l] & !m.0[l]);
        }
        t
    }
    #[inline(always)]
    unsafe fn m01(m: Word) -> Word {
        m.map(|x| x & 1)
    }
    #[inline(always)]
    unsafe fn mall(m: Word) -> bool {
        m.0.iter().all(|&x| x != 0)
    }
    #[inline(always)]
    unsafe fn mbits(m: Word) -> u32 {
        (0..LANES).fold(0, |acc, l| acc | ((m.0[l] & 1) as u32) << l)
    }
    #[inline(always)]
    unsafe fn lut8(self, lut: &[u64; 8]) -> Word {
        self.map(|x| lut[(x & 7) as usize])
    }
    #[inline(always)]
    unsafe fn store_interleaved(self, o: Word, dst: *mut u64) {
        for l in 0..LANES {
            *dst.add(2 * l) = self.0[l];
            *dst.add(2 * l + 1) = o.0[l];
        }
    }
}

#[cfg(target_arch = "x86_64")]
/// The AVX2 and AVX-512 engines: explicit intrinsics. The structs never
/// escape this module except through the generic drivers, which the
/// dispatch layer only instantiates after positive feature detection.
mod engines_x86 {
    use super::{Words, LANES};
    use std::arch::x86_64::*;

    /// AVX2 engine: two 256-bit halves, masks as all-ones/zeros lanes.
    #[derive(Clone, Copy)]
    pub(super) struct W2(__m256i, __m256i);

    /// Binary64 lane op on both 256-bit halves: `_mm256_*_pd` on the bits.
    macro_rules! fop2 {
        ($op:ident, $x:expr, $y:expr) => {{
            let half =
                |a, b| _mm256_castpd_si256($op(_mm256_castsi256_pd(a), _mm256_castsi256_pd(b)));
            W2(half($x.0, $y.0), half($x.1, $y.1))
        }};
    }

    impl Words for W2 {
        type M = W2;
        #[target_feature(enable = "avx2,fma")]
        unsafe fn splat(x: u64) -> W2 {
            let v = _mm256_set1_epi64x(x as i64);
            W2(v, v)
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn load(src: &[u64; LANES]) -> W2 {
            W2(
                _mm256_loadu_si256(src.as_ptr().cast()),
                _mm256_loadu_si256(src.as_ptr().add(4).cast()),
            )
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn store(self, dst: &mut [u64; LANES]) {
            _mm256_storeu_si256(dst.as_mut_ptr().cast(), self.0);
            _mm256_storeu_si256(dst.as_mut_ptr().add(4).cast(), self.1);
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn vadd(self, o: W2) -> W2 {
            W2(_mm256_add_epi64(self.0, o.0), _mm256_add_epi64(self.1, o.1))
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn vsub(self, o: W2) -> W2 {
            W2(_mm256_sub_epi64(self.0, o.0), _mm256_sub_epi64(self.1, o.1))
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn fadd(self, o: W2) -> W2 {
            fop2!(_mm256_add_pd, self, o)
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn fsub(self, o: W2) -> W2 {
            fop2!(_mm256_sub_pd, self, o)
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn fmul(self, o: W2) -> W2 {
            fop2!(_mm256_mul_pd, self, o)
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn fdiv(self, o: W2) -> W2 {
            fop2!(_mm256_div_pd, self, o)
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn fsqrt(self) -> W2 {
            let half = |a| _mm256_castpd_si256(_mm256_sqrt_pd(_mm256_castsi256_pd(a)));
            W2(half(self.0), half(self.1))
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn ffma(self, y: W2, z: W2) -> W2 {
            let half = |a, b, c| {
                _mm256_castpd_si256(_mm256_fmadd_pd(
                    _mm256_castsi256_pd(a),
                    _mm256_castsi256_pd(b),
                    _mm256_castsi256_pd(c),
                ))
            };
            W2(half(self.0, y.0, z.0), half(self.1, y.1, z.1))
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn vand(self, o: W2) -> W2 {
            W2(_mm256_and_si256(self.0, o.0), _mm256_and_si256(self.1, o.1))
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn vor(self, o: W2) -> W2 {
            W2(_mm256_or_si256(self.0, o.0), _mm256_or_si256(self.1, o.1))
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn vxor(self, o: W2) -> W2 {
            W2(_mm256_xor_si256(self.0, o.0), _mm256_xor_si256(self.1, o.1))
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn shlc(self, n: u32) -> W2 {
            let c = _mm_cvtsi32_si128(n as i32);
            W2(_mm256_sll_epi64(self.0, c), _mm256_sll_epi64(self.1, c))
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn shrc(self, n: u32) -> W2 {
            let c = _mm_cvtsi32_si128(n as i32);
            W2(_mm256_srl_epi64(self.0, c), _mm256_srl_epi64(self.1, c))
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn shlv(self, n: W2) -> W2 {
            W2(
                _mm256_sllv_epi64(self.0, n.0),
                _mm256_sllv_epi64(self.1, n.1),
            )
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn veq(self, o: W2) -> W2 {
            W2(
                _mm256_cmpeq_epi64(self.0, o.0),
                _mm256_cmpeq_epi64(self.1, o.1),
            )
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn vne(self, o: W2) -> W2 {
            W2::mnot(self.veq(o))
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn vgt_u(self, o: W2) -> W2 {
            // Unsigned compare = signed compare with the sign bit flipped.
            let top = _mm256_set1_epi64x(i64::MIN);
            W2(
                _mm256_cmpgt_epi64(_mm256_xor_si256(self.0, top), _mm256_xor_si256(o.0, top)),
                _mm256_cmpgt_epi64(_mm256_xor_si256(self.1, top), _mm256_xor_si256(o.1, top)),
            )
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn vlt_u(self, o: W2) -> W2 {
            o.vgt_u(self)
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn vgt_s(self, o: W2) -> W2 {
            W2(
                _mm256_cmpgt_epi64(self.0, o.0),
                _mm256_cmpgt_epi64(self.1, o.1),
            )
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn vlt_s(self, o: W2) -> W2 {
            o.vgt_s(self)
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn mand(a: W2, b: W2) -> W2 {
            a.vand(b)
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn mor(a: W2, b: W2) -> W2 {
            a.vor(b)
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn mnot(a: W2) -> W2 {
            let ones = _mm256_set1_epi64x(-1);
            W2(_mm256_xor_si256(a.0, ones), _mm256_xor_si256(a.1, ones))
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn sel(m: W2, t: W2, f: W2) -> W2 {
            W2(
                _mm256_blendv_epi8(f.0, t.0, m.0),
                _mm256_blendv_epi8(f.1, t.1, m.1),
            )
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn m01(m: W2) -> W2 {
            m.vand(W2::splat(1))
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn mall(m: W2) -> bool {
            W2::mbits(m) == 0xff
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn mbits(m: W2) -> u32 {
            let lo = _mm256_movemask_pd(_mm256_castsi256_pd(m.0)) as u32;
            let hi = _mm256_movemask_pd(_mm256_castsi256_pd(m.1)) as u32;
            lo | (hi << 4)
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn lut8(self, lut: &[u64; 8]) -> W2 {
            W2(
                _mm256_i64gather_epi64::<8>(lut.as_ptr().cast(), self.0),
                _mm256_i64gather_epi64::<8>(lut.as_ptr().cast(), self.1),
            )
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn store_interleaved(self, o: W2, dst: *mut u64) {
            // unpack{lo,hi} interleave within 128-bit halves; the
            // permutes stitch them back into sequential pair order.
            let lo0 = _mm256_unpacklo_epi64(self.0, o.0);
            let hi0 = _mm256_unpackhi_epi64(self.0, o.0);
            _mm256_storeu_si256(dst.cast(), _mm256_permute2x128_si256::<0x20>(lo0, hi0));
            _mm256_storeu_si256(
                dst.add(4).cast(),
                _mm256_permute2x128_si256::<0x31>(lo0, hi0),
            );
            let lo1 = _mm256_unpacklo_epi64(self.1, o.1);
            let hi1 = _mm256_unpackhi_epi64(self.1, o.1);
            _mm256_storeu_si256(
                dst.add(8).cast(),
                _mm256_permute2x128_si256::<0x20>(lo1, hi1),
            );
            _mm256_storeu_si256(
                dst.add(12).cast(),
                _mm256_permute2x128_si256::<0x31>(lo1, hi1),
            );
        }
    }

    /// AVX-512 engine: one 512-bit register, compact `__mmask8` masks and
    /// native unsigned compares.
    #[derive(Clone, Copy)]
    pub(super) struct W5(__m512i);

    impl Words for W5 {
        type M = __mmask8;
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn splat(x: u64) -> W5 {
            W5(_mm512_set1_epi64(x as i64))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn load(src: &[u64; LANES]) -> W5 {
            W5(_mm512_loadu_si512(src.as_ptr().cast()))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn store(self, dst: &mut [u64; LANES]) {
            _mm512_storeu_si512(dst.as_mut_ptr().cast(), self.0);
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vadd(self, o: W5) -> W5 {
            W5(_mm512_add_epi64(self.0, o.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vsub(self, o: W5) -> W5 {
            W5(_mm512_sub_epi64(self.0, o.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn fadd(self, o: W5) -> W5 {
            W5(_mm512_castpd_si512(_mm512_add_pd(
                _mm512_castsi512_pd(self.0),
                _mm512_castsi512_pd(o.0),
            )))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn fsub(self, o: W5) -> W5 {
            W5(_mm512_castpd_si512(_mm512_sub_pd(
                _mm512_castsi512_pd(self.0),
                _mm512_castsi512_pd(o.0),
            )))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn fmul(self, o: W5) -> W5 {
            W5(_mm512_castpd_si512(_mm512_mul_pd(
                _mm512_castsi512_pd(self.0),
                _mm512_castsi512_pd(o.0),
            )))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn fdiv(self, o: W5) -> W5 {
            W5(_mm512_castpd_si512(_mm512_div_pd(
                _mm512_castsi512_pd(self.0),
                _mm512_castsi512_pd(o.0),
            )))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn fsqrt(self) -> W5 {
            W5(_mm512_castpd_si512(_mm512_sqrt_pd(_mm512_castsi512_pd(
                self.0,
            ))))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn ffma(self, y: W5, z: W5) -> W5 {
            W5(_mm512_castpd_si512(_mm512_fmadd_pd(
                _mm512_castsi512_pd(self.0),
                _mm512_castsi512_pd(y.0),
                _mm512_castsi512_pd(z.0),
            )))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vand(self, o: W5) -> W5 {
            W5(_mm512_and_si512(self.0, o.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vor(self, o: W5) -> W5 {
            W5(_mm512_or_si512(self.0, o.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vxor(self, o: W5) -> W5 {
            W5(_mm512_xor_si512(self.0, o.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn shlc(self, n: u32) -> W5 {
            W5(_mm512_sll_epi64(self.0, _mm_cvtsi32_si128(n as i32)))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn shrc(self, n: u32) -> W5 {
            W5(_mm512_srl_epi64(self.0, _mm_cvtsi32_si128(n as i32)))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn shlv(self, n: W5) -> W5 {
            W5(_mm512_sllv_epi64(self.0, n.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn veq(self, o: W5) -> __mmask8 {
            _mm512_cmpeq_epi64_mask(self.0, o.0)
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vne(self, o: W5) -> __mmask8 {
            _mm512_cmpneq_epi64_mask(self.0, o.0)
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vgt_u(self, o: W5) -> __mmask8 {
            _mm512_cmpgt_epu64_mask(self.0, o.0)
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vlt_u(self, o: W5) -> __mmask8 {
            _mm512_cmplt_epu64_mask(self.0, o.0)
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vgt_s(self, o: W5) -> __mmask8 {
            _mm512_cmpgt_epi64_mask(self.0, o.0)
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn vlt_s(self, o: W5) -> __mmask8 {
            _mm512_cmplt_epi64_mask(self.0, o.0)
        }
        #[inline(always)]
        unsafe fn mand(a: __mmask8, b: __mmask8) -> __mmask8 {
            a & b
        }
        #[inline(always)]
        unsafe fn mor(a: __mmask8, b: __mmask8) -> __mmask8 {
            a | b
        }
        #[inline(always)]
        unsafe fn mnot(a: __mmask8) -> __mmask8 {
            !a
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn sel(m: __mmask8, t: W5, f: W5) -> W5 {
            W5(_mm512_mask_blend_epi64(m, f.0, t.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn m01(m: __mmask8) -> W5 {
            W5(_mm512_maskz_set1_epi64(m, 1))
        }
        #[inline(always)]
        unsafe fn mall(m: __mmask8) -> bool {
            m == 0xff
        }
        #[inline(always)]
        unsafe fn mbits(m: __mmask8) -> u32 {
            m as u32
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn lut8(self, lut: &[u64; 8]) -> W5 {
            let t = _mm512_loadu_si512(lut.as_ptr().cast());
            W5(_mm512_permutexvar_epi64(self.0, t))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn store_interleaved(self, o: W5, dst: *mut u64) {
            let idx_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
            let idx_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
            _mm512_storeu_si512(dst.cast(), _mm512_permutex2var_epi64(self.0, idx_lo, o.0));
            _mm512_storeu_si512(
                dst.add(8).cast(),
                _mm512_permutex2var_epi64(self.0, idx_hi, o.0),
            );
        }
    }
}

#[cfg(target_arch = "x86_64")]
use engines_x86::{W2, W5};

// ---------------------------------------------------------------------------
// Engine-generic block kernels
// ---------------------------------------------------------------------------
//
// Every op runs on the host's binary64 unit: the named formats widen
// exactly into binary64 ([`widen`]), one native operation does the
// align, multiply and normalize, an error-free transformation recovers
// what its rounding lost, and [`round_pack_f64`] rounds the exact value
// to the format's precision and packs it. Every branch is a mask select
// with both arms computed, and the blocks are total over arbitrary
// encodings, so a special lane's garbage can never fault; the driver
// blends over it. The blocks are `unsafe` only for the `Words` calls:
// `W`'s engine must have passed runtime feature detection.

/// Lane mask of the normal operands, the datapath block's: biased
/// exponent in `1..=em-1`.
#[inline(always)]
unsafe fn vnormal<W: Words, const E: u32, const F: u32>(x: W) -> W::M {
    let em = (1u64 << E) - 1;
    x.shrc(F)
        .vand(W::splat(em))
        .vsub(W::splat(1))
        .vlt_u(W::splat(em - 1))
}

/// Biased-exponent offset from an `E`-bit exponent to binary64's.
const fn rebase(e: u32) -> u64 {
    1023 - ((1u64 << (e - 1)) - 1)
}

/// The encoding of 1.0 in `(E, F)`: the padding of a ragged chunk.
const fn one<const E: u32, const F: u32>() -> u64 {
    ((1u64 << (E - 1)) - 1) << F
}

/// Binary64's sign bit, and ∞ (its all-ones exponent field).
const SIGN: u64 = 1 << 63;
const INF: u64 = 0x7ff << 52;

/// Exact binary64 bits of f32/f48/f64 encodings: f48/f64 shift, and f32
/// rebases its exponent into binary64's normal range. A normal f48/f64
/// encoding widens to a normal binary64 value, and so does every f32
/// encoding, whatever its exponent field holds.
#[inline(always)]
unsafe fn widen<W: Words, const E: u32, const F: u32>(x: W) -> W {
    const { assert!(E == 11 || (E == 8 && F == 23), "f32, f48 or f64") };
    if E == 11 {
        return x.shlc(52 - F);
    }
    let mag = x.vand(W::splat((1u64 << (E + F)) - 1)).shlc(52 - F);
    x.shrc(E + F)
        .shlc(63)
        .vor(mag.vadd(W::splat(rebase(E) << 52)))
}

/// Biased binary64 exponent field of each lane.
#[inline(always)]
unsafe fn bexp<W: Words>(x: W) -> W {
    x.shrc(52).vand(W::splat(0x7ff))
}

/// Whether this thread runs Rust's default FP environment, which the
/// binary64 blocks need: subnormals kept (no FTZ/DAZ) and ties to even.
fn default_fp_env() -> bool {
    let (one, tiny) = std::hint::black_box((1.0f64, f64::MIN_POSITIVE));
    tiny / 2.0 != 0.0 && one + f64::EPSILON / 2.0 == one && one - f64::EPSILON / 4.0 == one
}

/// TwoSum: `s = x + y` in binary64 and `e` with `s + e = x + y` exactly
/// (no intermediate overflow; an overflow leaves `e` non-finite).
#[inline(always)]
unsafe fn two_sum<W: Words>(x: W, y: W) -> (W, W) {
    let s = x.fadd(y);
    let bb = s.fsub(x);
    (s, x.fsub(s.fsub(bb)).fadd(y.fsub(bb)))
}

/// Round the binary64 `s + e` to `F + 1` bits: the rounded binary64
/// value (same binade as `s`, or the next one up) and the inexact mask.
/// `s` is a binary64 value with at least `F + 1` bits of precision, and
/// `e` counts only by its sign and whether it is non-zero.
#[inline(always)]
unsafe fn round_f64<W: Words, const F: u32>(s: W, e: W, rtn: bool) -> (W, W::M) {
    let d = 52 - F;
    let zero = W::splat(0);
    let low = s.vand(W::splat((1u64 << d) - 1));
    let half = W::splat((1u64 << d) >> 1);
    let e_nz = e.vand(W::splat(!SIGN)).vne(zero);
    let e_opp = e.vxor(s).vlt_s(zero);
    let r = if rtn && d == 0 {
        s
    } else if rtn {
        // A tie goes up when `e` points away from zero, else (`e` zero)
        // when `s` is odd: adding `half − 1` plus that 0/1 carries into
        // bit `d` exactly when `s + e` rounds up.
        let one = W::splat(1);
        let away = e.vxor(s).shrc(63).vxor(one);
        let tie_up = W::sel(e_nz, away, s.shrc(d).vand(one));
        s.vadd(half.vsub(one))
            .vadd(tie_up)
            .vand(W::splat(!((1u64 << d) - 1)))
    } else {
        // Step down (across a binade too) when `e` points toward zero.
        let down = W::mand(W::mand(low.veq(zero), e_nz), e_opp);
        s.vsub(low).vsub(W::m01(down).shlc(d))
    };
    (r, W::mor(low.vne(zero), e_nz))
}

/// The range check of a rounded `r` whose value is `r·2^k`, with `kr`
/// the offset `k` rebased to the format (`k − rebase(E)`): the overflow
/// and underflow masks and the packed flag code.
#[inline(always)]
unsafe fn range_f64<W: Words, const E: u32>(r: W, kr: W, inexact: W::M) -> (W::M, W::M, W) {
    let exp = bexp(r).vadd(kr);
    let over = exp.vgt_s(W::splat((1u64 << E) - 2));
    let under = exp.vlt_s(W::splat(1));
    let fl = W::m01(over)
        .vor(W::m01(under).shlc(1))
        .vor(W::m01(W::mor(W::mor(inexact, over), under)).shlc(2));
    (over, under, fl)
}

/// Round the exact value `(s + e)·2^k` to `F + 1` bits and pack it with
/// packed flags (an exact zero `s` is +0). `s` and `e` are as
/// [`round_f64`] takes them, and `k` is a per-lane exponent offset (two's
/// complement) that the range check and the packed exponent add.
#[inline(always)]
unsafe fn round_pack_f64<W: Words, const E: u32, const F: u32>(
    s: W,
    e: W,
    k: W,
    rtn: bool,
) -> (W, W) {
    let zero = W::splat(0);
    let (r, inexact) = round_f64::<W, F>(s, e, rtn);
    let k = k.vsub(W::splat(rebase(E)));
    let (over, under, fl) = range_f64::<W, E>(r, k, inexact);
    // ∞, or under Truncate the largest finite value, one below it.
    let over_mag = W::splat((((1u64 << E) - 1) << F) - !rtn as u64);
    let norm_mag = r.vand(W::splat(!SIGN)).shrc(52 - F).vadd(k.shlc(F));
    let mag = W::sel(over, over_mag, W::sel(under, zero, norm_mag));
    let exact_zero = s.vand(W::splat(!SIGN)).veq(zero);
    (
        W::sel(exact_zero, zero, r.shrc(63).shlc(E + F).vor(mag)),
        W::sel(exact_zero, zero, fl),
    )
}

/// [`round_pack_f64`]'s result as a binary64 value instead of an
/// encoding: the rounded `(s + e)·2^k`, ±∞ (or under Truncate the
/// format's largest finite value) above its range and ±0 below it, with
/// the same packed flags. Exact for f32, f48 and f64, whose values are
/// all binary64 values; `s` is never zero here (a product of normals).
#[inline(always)]
unsafe fn round_val_f64<W: Words, const E: u32, const F: u32>(
    s: W,
    e: W,
    k: W,
    rtn: bool,
) -> (W, W) {
    let (r, inexact) = round_f64::<W, F>(s, e, rtn);
    let (over, under, fl) = range_f64::<W, E>(r, k.vsub(W::splat(rebase(E))), inexact);
    let big = if rtn { INF } else { max_val::<E, F>() };
    let sign = sign_of(r);
    let val = W::sel(
        over,
        sign.vor(W::splat(big)),
        W::sel(under, sign, r.vadd(k.shlc(52))),
    );
    (val, fl)
}

/// The binary64 bits of the format's largest finite value.
const fn max_val<const E: u32, const F: u32>() -> u64 {
    let max = (((1u64 << E) - 1) << F) - 1;
    if E == 11 {
        max << (52 - F)
    } else {
        (max << (52 - F)) + (rebase(E) << 52)
    }
}

/// Vector add block (`sub` is a sign flip at the call site): [`widen`],
/// then [`sum_b64`]. f48/f64 lanes outside `normal` (the special block's)
/// become 1.0 first, so no subnormal, ∞ or NaN reaches the FPU.
#[inline(always)]
unsafe fn add_b64_block<W: Words, const E: u32, const F: u32>(
    a: W,
    b: W,
    normal: W::M,
    rtn: bool,
) -> (W, W) {
    let one = W::splat(one::<E, F>());
    let w = |v: W| widen::<W, E, F>(if E == 11 { W::sel(normal, v, one) } else { v });
    sum_b64::<W, E, F>(w(a), w(b), rtn)
}

/// The sum of the normal binary64 values `x` and `y` rounded to `(E, F)`
/// and packed: [`two_sum`], then [`round_pack_f64`]. A sum past
/// binary64's range (f48/f64 only) leaves TwoSum's error non-finite; its
/// lanes are redone on the halved operands, with the halving carried as
/// the exponent offset. Halving them is exact: both operands of such a
/// sum lie above 2^969.
#[inline(always)]
unsafe fn sum_b64<W: Words, const E: u32, const F: u32>(x: W, y: W, rtn: bool) -> (W, W) {
    let (s, e) = two_sum(x, y);
    let (r, f) = round_pack_f64::<W, E, F>(s, e, W::splat(0), rtn);
    if E == 11 {
        let inf = W::splat(INF);
        let over = e.vand(inf).veq(inf);
        if W::mbits(over) != 0 {
            std::hint::cold_path();
            let half = W::splat(0x3fe << 52);
            let (s, e) = two_sum(x.fmul(half), y.fmul(half));
            let (hr, hf) = round_pack_f64::<W, E, F>(s, e, W::splat(1), rtn);
            return (W::sel(over, hr, r), W::sel(over, hf, f));
        }
    }
    (r, f)
}

/// Widened f48/f64 operands scaled to `[1, 2)` (exponent field set to
/// binary64's bias, sign and fraction kept), and the unbiased exponent sum
/// `k` of the pair that the scaling removed. Every lane's product is then
/// a normal binary64 value in `[1, 4)` whatever the operands' exponents,
/// so no product underflows or overflows, and special lanes (garbage
/// exponents) are harmless too.
#[inline(always)]
unsafe fn scale_pair<W: Words>(x: W, y: W) -> (W, W, W) {
    let k = bexp(x).vadd(bexp(y)).vsub(W::splat(2 * 1023));
    (unit(x), unit(y), k)
}

/// `x` with its exponent field set to binary64's bias: sign and
/// fraction kept, magnitude in `[1, 2)`.
#[inline(always)]
unsafe fn unit<W: Words>(x: W) -> W {
    x.vand(W::splat(!INF)).vor(W::splat(1023 << 52))
}

/// Vector multiply block on the binary64 unit. The f32 product of the
/// widened operands is exact. f48/f64 scale the pair ([`scale_pair`]) and
/// run TwoProd (`p = x·y`, `e = fma(x, y, −p)`, exact for a product in
/// `[1, 4)`); the exponent sum goes to [`round_pack_f64`] as its offset.
/// Special lanes need no sanitizing: every f32 encoding widens to a
/// normal value, and the scaling replaces every f48/f64 exponent.
#[inline(always)]
unsafe fn mul_b64_block<W: Words, const E: u32, const F: u32>(a: W, b: W, rtn: bool) -> (W, W) {
    let (p, e, k) = mul_b64_exact::<W, E, F>(a, b);
    round_pack_f64::<W, E, F>(p, e, k, rtn)
}

/// The exact product of [`mul_b64_block`] before its rounding step: the
/// binary64 product `p`, its error `e` and the exponent offset `k`.
#[inline(always)]
unsafe fn mul_b64_exact<W: Words, const E: u32, const F: u32>(a: W, b: W) -> (W, W, W) {
    let (x, y) = (widen::<W, E, F>(a), widen::<W, E, F>(b));
    if E == 8 {
        return (x.fmul(y), W::splat(0), W::splat(0));
    }
    let (x, y, k) = scale_pair(x, y);
    let p = x.fmul(y);
    (p, x.ffma(y, p.vxor(W::splat(SIGN))), k)
}

/// Vector fma block on the binary64 unit. f32: the exact product, then
/// TwoSum with the addend. f48/f64 scale `a` and `b` ([`scale_pair`]) and
/// `c` by the same `2^−k`, then take `r = fma(x, y, z)` and its exact
/// error from ErrFma (Boldo & Muller 2011: TwoProd, two TwoSums, then the
/// first half of a Fast2Sum, whose sum has the error's sign and is
/// non-zero with it). Two addend ranges leave binary64's exponent range
/// after scaling, and neither needs it:
/// * `c` at least `F + 4` binades above the product (a product below a
///   quarter-ulp of `c`): the result is `c` with a sticky error of the
///   product's sign;
/// * `c·2^−k` below 2^−959, far below the scaled product's last bit:
///   `z` keeps its sign and fraction at exponent −959, which is the same
///   sticky to the rounding.
///
/// Every binary64 value involved is then normal, so ErrFma is exact. A
/// `c` whose exponent field is zero (±0, or a subnormal pattern, which
/// flushes) adds an exact 0, so on normal `a` and `b` those lanes hold
/// `mul(a, b)`, bits and flags, which the special block returns for them.
#[inline(always)]
unsafe fn fma_block<W: Words, const E: u32, const F: u32>(a: W, b: W, c: W, rtn: bool) -> (W, W) {
    let (x, y, z) = (
        widen::<W, E, F>(a),
        widen::<W, E, F>(b),
        widen::<W, E, F>(c),
    );
    let zero = W::splat(0);
    let c_zero = c.shrc(F).vand(W::splat((1 << E) - 1)).veq(zero);
    if E == 8 {
        let (s, e) = two_sum(x.fmul(y), W::sel(c_zero, zero, z));
        return round_pack_f64::<W, E, F>(s, e, zero, rtn);
    }
    let (x, y, k) = scale_pair(x, y);
    // `z·2^−k`'s biased exponent, clamped into range; a far-above `c`
    // (`big`) is taken unscaled below, so its `z` only needs to be benign.
    let bz = bexp(z).vsub(k);
    let big = W::mand(bz.vgt_s(W::splat(1023 + F as u64 + 3)), W::mnot(c_zero));
    let bz = W::sel(
        big,
        W::splat(1023),
        W::sel(bz.vlt_s(W::splat(64)), W::splat(64), bz),
    );
    let zs = W::sel(c_zero, zero, z.vand(W::splat(!INF)).vor(bz.shlc(52)));
    let r = x.ffma(y, zs);
    let p = x.fmul(y);
    let (a1, a2) = two_sum(zs, x.ffma(y, p.vxor(W::splat(SIGN))));
    let (b1, b2) = two_sum(p, a1);
    let e = b1.fsub(r).fadd(b2).fadd(a2);
    let sticky = p.vand(W::splat(SIGN)).vor(W::splat(1));
    round_pack_f64::<W, E, F>(
        W::sel(big, z, r),
        W::sel(big, sticky, e),
        W::sel(big, zero, k),
        rtn,
    )
}

/// The sign of `x`'s lanes only.
#[inline(always)]
unsafe fn sign_of<W: Words>(x: W) -> W {
    x.vand(W::splat(SIGN))
}

/// Vector divide block on the binary64 unit. f32 divides the widened
/// operands, whose quotient stays inside binary64's normal range.
/// f48/f64 scale both operands to `[1, 2)` ([`unit`]) and
/// carry the exponent difference as the rounding step's offset, so the
/// quotient `q` lies in `(1/2, 2)`. `q` is binary64's round-to-nearest
/// quotient, so the remainder `a − q·b` is exact in binary64 and one
/// `fma` gives it; its sign, flipped by the divisor's, is the sign of the
/// exact quotient's distance from `q`, which is all [`round_pack_f64`]
/// needs (as TwoSum's error for add).
#[inline(always)]
unsafe fn div_b64_block<W: Words, const E: u32, const F: u32>(a: W, b: W, rtn: bool) -> (W, W) {
    let (x, y) = (widen::<W, E, F>(a), widen::<W, E, F>(b));
    let (x, y, k) = if E == 8 {
        (x, y, W::splat(0))
    } else {
        (unit(x), unit(y), bexp(x).vsub(bexp(y)))
    };
    let q = x.fdiv(y);
    let rem = q.vxor(W::splat(SIGN)).ffma(y, x);
    round_pack_f64::<W, E, F>(q, rem.vxor(sign_of(y)), k, rtn)
}

/// Vector square-root block on the binary64 unit, on `|a|` (a negative
/// lane is the special block's). f32 takes the root of the widened
/// operand. f48/f64 scale it to `[1, 4)` with an even exponent removed
/// (biased exponent `B` becomes `1024 − (B & 1)`) and carry half of that
/// exponent, `(B + (B & 1))/2 − 512`, as the rounding step's offset. The
/// root `r` is binary64's round-to-nearest root, so `a − r·r` is exact in
/// binary64 and one `fma` gives it; its sign is the sign of the exact
/// root's distance from `r`.
#[inline(always)]
unsafe fn sqrt_b64_block<W: Words, const E: u32, const F: u32>(a: W, rtn: bool) -> (W, W) {
    let x = widen::<W, E, F>(a).vand(W::splat(!SIGN));
    let (x, k) = if E == 8 {
        (x, W::splat(0))
    } else {
        let be = bexp(x);
        let odd = be.vand(W::splat(1));
        let frac = x.vand(W::splat((1 << 52) - 1));
        let xs = frac.vor(W::splat(1024).vsub(odd).shlc(52));
        (xs, be.vadd(odd).shrc(1).vsub(W::splat(512)))
    };
    let r = x.fsqrt();
    let rem = r.vxor(W::splat(SIGN)).ffma(r, x);
    round_pack_f64::<W, E, F>(r, rem, k, rtn)
}

// ---------------------------------------------------------------------------
// Special-operand blocks
// ---------------------------------------------------------------------------
//
// The stage-1 special rules of the generic add, mul and fma, in
// register: each operand is classed by its exponent field alone (all
// zeros: ±0 or a subnormal pattern, flushed to zero; all ones: ∞, any
// fraction payload ignored), and the result is picked by selects. A
// lane whose operands are all normal is a don't-care here — the driver
// keeps the datapath's result there. Like the block kernels, these are
// `unsafe` only for the `Words` calls: the engine must have passed
// runtime feature detection.

/// `(zero, infinite)` class masks of one operand stream.
#[inline(always)]
unsafe fn vclass<W: Words, const E: u32, const F: u32>(x: W) -> (W::M, W::M) {
    let em = W::splat((1u64 << E) - 1);
    let e = x.shrc(F).vand(em);
    (e.veq(W::splat(0)), e.veq(em))
}

/// Canonical ∞ magnitude, sign-bit mask and encoding mask for `(E, F)`.
#[inline(always)]
unsafe fn vconsts<W: Words, const E: u32, const F: u32>() -> (W, W, W) {
    let enc = if E + F + 1 == 64 {
        u64::MAX
    } else {
        (1u64 << (E + F + 1)) - 1
    };
    (
        W::splat(((1u64 << E) - 1) << F),
        W::splat(1u64 << (E + F)),
        W::splat(enc),
    )
}

/// Add with a special operand (`b` arrives sign-flipped for sub): ∞ − ∞
/// is +∞ with `invalid`, a lone ∞ wins with its sign, 0 + 0 is −0 only
/// when both zeros are, and 0 + x returns x.
#[inline(always)]
unsafe fn add_special<W: Words, const E: u32, const F: u32>(a: W, b: W) -> (W, W) {
    let (inf, sgn, enc) = vconsts::<W, E, F>();
    let (za, ia) = vclass::<W, E, F>(a);
    let (zb, ib) = vclass::<W, E, F>(b);
    let (sa, sb) = (a.vand(sgn), b.vand(sgn));
    let invalid = W::mand(W::mand(ia, ib), sa.vne(sb));
    let r_inf = W::sel(invalid, inf, W::sel(ia, sa, sb).vor(inf));
    let r_fin = W::sel(za, W::sel(zb, sa.vand(sb), b), a).vand(enc);
    (
        W::sel(W::mor(ia, ib), r_inf, r_fin),
        W::sel(invalid, W::splat(FL_INVALID), W::splat(0)),
    )
}

/// Multiply with a special operand: 0 × ∞ is +0 with `invalid`, else ∞
/// or 0 with the product's sign.
#[inline(always)]
unsafe fn mul_special<W: Words, const E: u32, const F: u32>(a: W, b: W) -> (W, W) {
    let (inf, sgn, _) = vconsts::<W, E, F>();
    let zero = W::splat(0);
    let (za, ia) = vclass::<W, E, F>(a);
    let (zb, ib) = vclass::<W, E, F>(b);
    let sign = a.vxor(b).vand(sgn);
    let invalid = W::mor(W::mand(za, ib), W::mand(ia, zb));
    let r = W::sel(W::mor(ia, ib), sign.vor(inf), sign);
    (
        W::sel(invalid, zero, r),
        W::sel(invalid, W::splat(FL_INVALID), zero),
    )
}

/// Divide with a special operand, rule for rule as the generic div: 0/0
/// is +0 and ∞/∞ is +∞, both `invalid`; else ∞ over anything and x/0
/// (`div_by_zero`) are ∞, and 0 over anything and x/∞ are 0, each with
/// the quotient's sign.
#[inline(always)]
unsafe fn div_special<W: Words, const E: u32, const F: u32>(a: W, b: W) -> (W, W) {
    let (inf, sgn, _) = vconsts::<W, E, F>();
    let zero = W::splat(0);
    let (za, ia) = vclass::<W, E, F>(a);
    let (zb, ib) = vclass::<W, E, F>(b);
    let sign = a.vxor(b).vand(sgn);
    let invalid = W::mor(W::mand(za, zb), W::mand(ia, ib));
    let to_inf = W::mor(ia, zb);
    let div_by_zero = W::mand(zb, W::mnot(W::mor(za, ia)));
    (
        W::sel(
            invalid,
            W::sel(ia, inf, zero),
            W::sel(to_inf, sign.vor(inf), sign),
        ),
        W::sel(
            invalid,
            W::splat(FL_INVALID),
            W::sel(div_by_zero, W::splat(FL_DIV_BY_ZERO), zero),
        ),
    )
}

/// Square root with a special or negative operand, rule for rule as the
/// generic sqrt: √±0 is ±0, √+∞ is +∞, and any other negative operand
/// gives +0 with `invalid`.
#[inline(always)]
unsafe fn sqrt_special<W: Words, const E: u32, const F: u32>(a: W) -> (W, W) {
    let (inf, sgn, _) = vconsts::<W, E, F>();
    let zero = W::splat(0);
    let (za, ia) = vclass::<W, E, F>(a);
    let neg = a.vand(sgn).vne(zero);
    let invalid = W::mand(neg, W::mnot(za));
    (
        W::sel(za, a.vand(sgn), W::sel(W::mor(neg, W::mnot(ia)), zero, inf)),
        W::sel(invalid, W::splat(FL_INVALID), zero),
    )
}

/// Fma with a special operand, rule for rule as the generic fma: 0 × ∞ is
/// +0 with `invalid` whatever c is; an ∞ product wins unless c is the
/// opposite ∞ (+∞, `invalid`); an ∞ c wins next; a zero product returns
/// c (0 + 0 by the add's sign rule); and c = ±0 under a normal product is
/// `mul(a, b)`, whose `(bits, flags)` the caller passes as `prod` (the
/// datapath block's result on those lanes).
#[inline(always)]
unsafe fn fma_special<W: Words, const E: u32, const F: u32>(
    a: W,
    b: W,
    c: W,
    prod: (W, W),
) -> (W, W) {
    let (inf, sgn, enc) = vconsts::<W, E, F>();
    let zero = W::splat(0);
    let (za, ia) = vclass::<W, E, F>(a);
    let (zb, ib) = vclass::<W, E, F>(b);
    let (zc, ic) = vclass::<W, E, F>(c);
    let (psign, sc) = (a.vxor(b).vand(sgn), c.vand(sgn));
    let (pinf, pzero) = (W::mor(ia, ib), W::mor(za, zb));
    let zero_inf = W::mor(W::mand(za, ib), W::mand(ia, zb));
    let inf_inf = W::mand(W::mand(pinf, ic), psign.vne(sc));
    let r_inf = W::sel(pinf, psign, sc).vor(inf);
    let r_fin = W::sel(pzero, W::sel(zc, psign.vand(sc), c.vand(enc)), prod.0);
    let r = W::sel(W::mor(pinf, ic), r_inf, r_fin);
    let exact = W::mor(W::mor(pinf, ic), pzero);
    (
        W::sel(zero_inf, zero, W::sel(inf_inf, inf, r)),
        W::sel(
            W::mor(zero_inf, inf_inf),
            W::splat(FL_INVALID),
            W::sel(exact, zero, prod.1),
        ),
    )
}

/// Precomputed [`Flags`] for every packed flag word a lane can produce —
/// one indexed load per element in the batch epilogue instead of five
/// bit tests.
const FLAG_LUT: [Flags; 8] = {
    let mut lut = [unpack_flags(0); 8];
    let mut i = 0;
    while i < 8 {
        lut[i] = unpack_flags(i as u64);
        i += 1;
    }
    lut
};

/// The vectorized epilogue writes each `(u64, Flags)` pair as two raw
/// 64-bit words straight into the output Vec's spare capacity. That is
/// only sound when the pair is exactly `{ result word, flags word }`
/// with every `bool` field inside the second word — checked here at
/// compile time; any layout change falls back to the scalar epilogue.
const PAIR_LAYOUT_OK: bool = std::mem::size_of::<(u64, Flags)>() == 16
    && std::mem::align_of::<(u64, Flags)>() == 8
    && std::mem::offset_of!((u64, Flags), 0) == 0
    && std::mem::offset_of!((u64, Flags), 1) == 8
    && std::mem::size_of::<Flags>() <= 8;

/// [`FLAG_LUT`]`[i]` reinterpreted as the second word of a
/// `(u64, Flags)` pair: `true` is guaranteed to be the byte `1`, so
/// each set flag is a `0x01` byte at its field offset (padding zero).
const fn flag_word(i: u64) -> u64 {
    let f = unpack_flags(i);
    (f.overflow as u64) << (8 * std::mem::offset_of!(Flags, overflow) % 64)
        | (f.underflow as u64) << (8 * std::mem::offset_of!(Flags, underflow) % 64)
        | (f.invalid as u64) << (8 * std::mem::offset_of!(Flags, invalid) % 64)
        | (f.inexact as u64) << (8 * std::mem::offset_of!(Flags, inexact) % 64)
        | (f.div_by_zero as u64) << (8 * std::mem::offset_of!(Flags, div_by_zero) % 64)
}

/// Word-form twin of [`FLAG_LUT`] for the in-register epilogue lookup.
const FLAG_WORDS: [u64; 8] = {
    let mut w = [0u64; 8];
    let mut i = 0;
    while i < 8 {
        w[i] = flag_word(i as u64);
        i += 1;
    }
    w
};

// ---------------------------------------------------------------------------
// Chunked batch drivers
// ---------------------------------------------------------------------------

/// Append one chunk's `(bits, packed flags)` lanes to `out`.
///
/// # Safety
/// `W`'s engine must have passed runtime feature detection, and `out`
/// must have spare capacity for [`LANES`] more pairs (the raw
/// interleaved store writes there).
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn store_chunk<W: Words>(r: W, f: W, out: &mut Vec<(u64, Flags)>) {
    if PAIR_LAYOUT_OK {
        let dst = out.as_mut_ptr().add(out.len()).cast::<u64>();
        r.store_interleaved(f.vand(W::splat(7)).lut8(&FLAG_WORDS), dst);
        out.set_len(out.len() + LANES);
    } else {
        let mut res = [0u64; LANES];
        let mut fl = [0u64; LANES];
        r.store(&mut res);
        f.store(&mut fl);
        let mut chunk = [(0u64, FLAG_LUT[0]); LANES];
        for l in 0..LANES {
            chunk[l] = (res[l], FLAG_LUT[(fl[l] & 7) as usize]);
        }
        out.extend_from_slice(&chunk);
    }
}

/// Where a binary driver's results go: the one point where the pair
/// entry points (`*_bits_batch`, `*_pairs_batch`) and the bits entry
/// points (`add_acc_bits`, the `*_bits_into` family) differ.
pub(crate) trait Sink {
    /// True when the driver ORs every element's flags into the
    /// [`Flags`] it returns (the bits sink, which stores no per-element
    /// flags); the pair sink stores them per element instead.
    const REDUCE: bool;
    /// Make room for `n` results.
    fn reserve(&mut self, n: usize);
    /// Store the full chunk at elements `i..i + LANES`: result words and
    /// packed flag words. The drivers store every full chunk in order,
    /// then the tail elements in order.
    ///
    /// # Safety
    /// `W`'s engine must have passed runtime feature detection, and the
    /// driver must have called [`Sink::reserve`] for every element.
    unsafe fn chunk<W: Words>(&mut self, i: usize, r: W, f: W);
    /// Store tail element `j`.
    fn one(&mut self, j: usize, r: (u64, Flags));
}

impl Sink for PairSink<'_> {
    const REDUCE: bool = false;
    #[inline(always)]
    fn reserve(&mut self, n: usize) {
        self.0.reserve(n)
    }
    #[inline(always)]
    unsafe fn chunk<W: Words>(&mut self, _i: usize, r: W, f: W) {
        store_chunk(r, f, self.0)
    }
    #[inline(always)]
    fn one(&mut self, _j: usize, r: (u64, Flags)) {
        self.0.push(r)
    }
}

impl Sink for BitsSink<'_> {
    const REDUCE: bool = true;
    fn reserve(&mut self, _n: usize) {}
    #[inline(always)]
    unsafe fn chunk<W: Words>(&mut self, _i: usize, r: W, _f: W) {
        let mut res = [0u64; LANES];
        r.store(&mut res);
        self.put_lanes(res)
    }
    #[inline(always)]
    fn one(&mut self, _j: usize, r: (u64, Flags)) {
        self.put(r.0)
    }
}

/// [`Flags::to_bits`] of every packed flag word a lane can produce: the
/// *decoded* form a bits sink ORs across chunks. The packed codes
/// themselves cannot be OR-ed — `FL_INVALID` is `FL_OVERFLOW |
/// FL_UNDERFLOW`.
const FLAG_BITS: [u64; 8] = {
    let mut w = [0u64; 8];
    let mut i = 0;
    while i < 8 {
        w[i] = unpack_flags(i as u64).to_bits() as u64;
        i += 1;
    }
    w
};

/// Store the first lanes of a padded tail chunk as the elements `tail`,
/// in order, returning the OR of their flags when the sink reduces
/// ([`Flags::NONE`] otherwise).
///
/// # Safety
/// `W`'s engine must have passed runtime feature detection.
#[inline(always)]
unsafe fn store_tail<W: Words, S: Sink>(tail: Range<usize>, r: W, f: W, sink: &mut S) -> Flags {
    let (mut res, mut fl) = ([0u64; LANES], [0u64; LANES]);
    r.store(&mut res);
    f.store(&mut fl);
    let mut flags = Flags::NONE;
    for (l, j) in tail.enumerate() {
        let r = (res[l], FLAG_LUT[(fl[l] & 7) as usize]);
        if S::REDUCE {
            flags |= r.1;
        }
        sink.one(j, r);
    }
    flags
}

/// Binary-op batch driver (square root too, which ignores `y`): every
/// chunk runs the datapath block; a chunk with any non-normal lane (for
/// square root, also a negative one) also runs the special block and
/// blends it over those lanes ([`bin_chunk`]). The tail, shorter than a
/// chunk, runs as one more chunk padded with 1.0, whose padding lanes are
/// dropped; `load_one` reads its elements. Results go to `sink`; when the
/// sink reduces flags ([`Sink::REDUCE`]) the decoded flag words are OR-ed
/// in register and the OR of every element's flags is returned,
/// otherwise [`Flags::NONE`]. The binary64 blocks need the calling
/// thread in Rust's default FP environment, which debug builds assert.
#[inline(always)]
fn bin_driver<W: Words, const E: u32, const F: u32, const OP: u8, S: Sink>(
    n: usize,
    load_chunk: impl Fn(usize, &mut [u64; LANES], &mut [u64; LANES]),
    load_one: impl Fn(usize) -> (u64, u64),
    mode: RoundMode,
    sink: &mut S,
) -> Flags {
    debug_assert!(default_fp_env());
    sink.reserve(n);
    // SAFETY: `W`'s engine passed positive runtime feature detection (the
    // dispatch layer's invariant).
    let mut seen = unsafe { W::splat(0) };
    let full = n - n % LANES;
    for i in (0..full).step_by(LANES) {
        let mut xs = [0u64; LANES];
        let mut ys = [0u64; LANES];
        load_chunk(i, &mut xs, &mut ys);
        // SAFETY: as above, and the sink has room for every element.
        unsafe {
            let (r, f) = bin_chunk_call::<W, E, F, OP>(&xs, &ys, mode);
            if S::REDUCE {
                seen = seen.vor(f.vand(W::splat(7)).lut8(&FLAG_BITS));
            }
            sink.chunk(i, r, f);
        }
    }
    let mut flags = if S::REDUCE {
        reduced(seen)
    } else {
        Flags::NONE
    };
    if full < n {
        let (mut xs, mut ys) = ([one::<E, F>(); LANES], [one::<E, F>(); LANES]);
        for (l, j) in (full..n).enumerate() {
            (xs[l], ys[l]) = load_one(j);
        }
        // SAFETY: as above.
        unsafe {
            let (r, f) = bin_chunk_call::<W, E, F, OP>(&xs, &ys, mode);
            flags |= store_tail(full..n, r, f, sink);
        }
    }
    flags
}

/// One chunk of [`bin_driver`]: the datapath block, and the special block
/// blended over the non-normal lanes (for square root, also the negative
/// ones).
///
/// # Safety
/// `W`'s engine must have passed runtime feature detection.
#[inline(always)]
unsafe fn bin_chunk<W: Words, const E: u32, const F: u32, const OP: u8>(
    xs: &[u64; LANES],
    ys: &[u64; LANES],
    mode: RoundMode,
) -> (W, W) {
    let rtn = mode == RoundMode::NearestEven;
    let va = W::load(xs);
    let mut vb = W::load(ys);
    if OP == OP_SUB {
        vb = vb.vxor(W::splat(1u64 << (E + F)));
    }
    let normal = if OP == OP_SQRT {
        let sign = W::splat(1u64 << (E + F));
        W::mand(vnormal::<W, E, F>(va), va.vand(sign).veq(W::splat(0)))
    } else {
        W::mand(vnormal::<W, E, F>(va), vnormal::<W, E, F>(vb))
    };
    let (mut r, mut f) = match OP {
        OP_MUL => mul_b64_block::<W, E, F>(va, vb, rtn),
        OP_DIV => div_b64_block::<W, E, F>(va, vb, rtn),
        OP_SQRT => sqrt_b64_block::<W, E, F>(va, rtn),
        _ => add_b64_block::<W, E, F>(va, vb, normal, rtn),
    };
    if !W::mall(normal) {
        let (sr, sf) = match OP {
            OP_MUL => mul_special::<W, E, F>(va, vb),
            OP_DIV => div_special::<W, E, F>(va, vb),
            OP_SQRT => sqrt_special::<W, E, F>(va),
            _ => add_special::<W, E, F>(va, vb),
        };
        r = W::sel(normal, r, sr);
        f = W::sel(normal, f, sf);
    }
    (r, f)
}

/// Ternary (fma) batch driver; same structure, padded tail, sinks and
/// flag reduction as [`bin_driver`], and the same FP-environment need.
/// Operands come from `load` in element order ([`FmaLoad`]). An in-place
/// sink may alias `c` with the results: each chunk is loaded before it is
/// stored.
#[inline(always)]
fn fma_driver<W: Words, const E: u32, const F: u32, S: Sink>(
    n: usize,
    mut load: impl FmaLoad,
    mode: RoundMode,
    sink: &mut S,
) -> Flags {
    debug_assert!(default_fp_env());
    let rtn = mode == RoundMode::NearestEven;
    sink.reserve(n);
    // SAFETY: as in `bin_driver`.
    let mut seen = unsafe { W::splat(0) };
    let full = n - n % LANES;
    for i in (0..full).step_by(LANES) {
        let mut xs = [0u64; LANES];
        let mut ys = [0u64; LANES];
        let mut zs = [0u64; LANES];
        load.chunk(i, &mut xs, &mut ys, &mut zs);
        // SAFETY: as in `bin_driver`.
        unsafe {
            let (r, f) = fma_chunk_call::<W, E, F>(&xs, &ys, &zs, rtn);
            if S::REDUCE {
                seen = seen.vor(f.vand(W::splat(7)).lut8(&FLAG_BITS));
            }
            sink.chunk(i, r, f);
        }
    }
    let mut flags = if S::REDUCE {
        reduced(seen)
    } else {
        Flags::NONE
    };
    if full < n {
        let mut xs = [one::<E, F>(); LANES];
        let (mut ys, mut zs) = (xs, xs);
        for (l, j) in (full..n).enumerate() {
            (xs[l], ys[l], zs[l]) = load.one(j);
        }
        // SAFETY: as in `bin_driver`.
        unsafe {
            let (r, f) = fma_chunk_call::<W, E, F>(&xs, &ys, &zs, rtn);
            flags |= store_tail(full..n, r, f, sink);
        }
    }
    flags
}

/// One chunk of [`fma_driver`]: the datapath block, and for a chunk with
/// a non-normal lane the special block blended over those lanes.
///
/// # Safety
/// `W`'s engine must have passed runtime feature detection.
#[inline(always)]
unsafe fn fma_chunk<W: Words, const E: u32, const F: u32>(
    xs: &[u64; LANES],
    ys: &[u64; LANES],
    zs: &[u64; LANES],
    rtn: bool,
) -> (W, W) {
    let (va, vb, vc) = (W::load(xs), W::load(ys), W::load(zs));
    let normal = W::mand(
        W::mand(vnormal::<W, E, F>(va), vnormal::<W, E, F>(vb)),
        vnormal::<W, E, F>(vc),
    );
    let (r, f) = fma_block::<W, E, F>(va, vb, vc, rtn);
    if W::mall(normal) {
        return (r, f);
    }
    let (sr, sf) = fma_special::<W, E, F>(va, vb, vc, (r, f));
    (W::sel(normal, r, sr), W::sel(normal, f, sf))
}

/// The drivers' calls of [`bin_chunk`], [`fma_chunk`] and [`mac_step`]:
/// inline, or on an engine with [`Words::SHARED`] through one out-of-line
/// copy per kernel instance.
///
/// # Safety
/// As the kernels they call.
#[inline(always)]
unsafe fn bin_chunk_call<W: Words, const E: u32, const F: u32, const OP: u8>(
    xs: &[u64; LANES],
    ys: &[u64; LANES],
    mode: RoundMode,
) -> (W, W) {
    #[inline(never)]
    unsafe fn shared<W: Words, const E: u32, const F: u32, const OP: u8>(
        xs: &[u64; LANES],
        ys: &[u64; LANES],
        mode: RoundMode,
    ) -> (W, W) {
        bin_chunk::<W, E, F, OP>(xs, ys, mode)
    }
    if W::SHARED {
        shared::<W, E, F, OP>(xs, ys, mode)
    } else {
        bin_chunk::<W, E, F, OP>(xs, ys, mode)
    }
}

#[inline(always)]
unsafe fn fma_chunk_call<W: Words, const E: u32, const F: u32>(
    xs: &[u64; LANES],
    ys: &[u64; LANES],
    zs: &[u64; LANES],
    rtn: bool,
) -> (W, W) {
    #[inline(never)]
    unsafe fn shared<W: Words, const E: u32, const F: u32>(
        xs: &[u64; LANES],
        ys: &[u64; LANES],
        zs: &[u64; LANES],
        rtn: bool,
    ) -> (W, W) {
        fma_chunk::<W, E, F>(xs, ys, zs, rtn)
    }
    if W::SHARED {
        shared::<W, E, F>(xs, ys, zs, rtn)
    } else {
        fma_chunk::<W, E, F>(xs, ys, zs, rtn)
    }
}

#[inline(always)]
unsafe fn mac_step_call<W: Words, const EC: u32, const FC: u32, const EA: u32, const FA: u32>(
    r: W,
    l: W,
    acc: W,
    mode: RoundMode,
) -> (W, W, W) {
    #[inline(never)]
    unsafe fn shared<W: Words, const EC: u32, const FC: u32, const EA: u32, const FA: u32>(
        r: W,
        l: W,
        acc: W,
        mode: RoundMode,
    ) -> (W, W, W) {
        mac_step::<W, EC, FC, EA, FA>(r, l, acc, mode)
    }
    if W::SHARED {
        shared::<W, EC, FC, EA, FA>(r, l, acc, mode)
    } else {
        mac_step::<W, EC, FC, EA, FA>(r, l, acc, mode)
    }
}

/// The OR of the decoded flag words a reducing driver gathered.
#[inline(always)]
fn reduced<W: Words>(seen: W) -> Flags {
    let mut words = [0u64; LANES];
    // SAFETY: as in `bin_driver`.
    unsafe { seen.store(&mut words) };
    Flags::from_bits(words.iter().fold(0, |acc, &w| acc | w) as u8)
}

// ---------------------------------------------------------------------------
// Multiply-accumulate driver
// ---------------------------------------------------------------------------

/// A product's binary64 value ([`round_val_f64`], [`mul_special_val`])
/// as an `(E, F)` encoding: exact for every value of a format that
/// `(E, F)` covers, ±0 and ±∞ included.
#[inline(always)]
unsafe fn pack_val<W: Words, const E: u32, const F: u32>(v: W) -> W {
    if E == 11 {
        return v.shrc(52 - F);
    }
    let zero = W::splat(0);
    let mag = v.vand(W::splat(!SIGN));
    let norm = mag.vsub(W::splat(rebase(E) << 52)).shrc(52 - F);
    let inf = W::splat(((1u64 << E) - 1) << F);
    let mag = W::sel(
        mag.veq(zero),
        zero,
        W::sel(mag.veq(W::splat(INF)), inf, norm),
    );
    v.shrc(63).shlc(E + F).vor(mag)
}

/// [`mul_special`]'s result as a binary64 value: ±0 or ±∞.
#[inline(always)]
unsafe fn mul_special_val<W: Words, const E: u32, const F: u32>(a: W, b: W) -> (W, W) {
    let (r, f) = mul_special::<W, E, F>(a, b);
    let (inf, _, _) = vconsts::<W, E, F>();
    let mag = W::sel(r.vand(inf).veq(inf), W::splat(INF), W::splat(0));
    (r.shrc(E + F).shlc(63).vor(mag), f)
}

/// One step of a multiply-accumulate chunk: `r·l` rounded to the compute
/// format `(EC, FC)`, kept as its binary64 value, then added to the
/// `(EA, FA)` accumulators `acc` (product first) by [`sum_b64`] and
/// rounded again. Returns the new accumulators and the two steps' packed
/// flag codes. Lanes with a special product or accumulator take the
/// special blocks.
///
/// # Safety
/// `W`'s engine must have passed runtime feature detection.
#[inline(always)]
unsafe fn mac_step<W: Words, const EC: u32, const FC: u32, const EA: u32, const FA: u32>(
    r: W,
    l: W,
    acc: W,
    mode: RoundMode,
) -> (W, W, W) {
    let rtn = mode == RoundMode::NearestEven;
    let (p, e, k) = mul_b64_exact::<W, EC, FC>(r, l);
    let (mut pv, mut pf) = round_val_f64::<W, EC, FC>(p, e, k, rtn);
    let operands = W::mand(vnormal::<W, EC, FC>(r), vnormal::<W, EC, FC>(l));
    if !W::mall(operands) {
        let (sv, sf) = mul_special_val::<W, EC, FC>(r, l);
        pv = W::sel(operands, pv, sv);
        pf = W::sel(operands, pf, sf);
    }
    let finite = pv
        .vand(W::splat(!SIGN))
        .vsub(W::splat(1))
        .vlt_u(W::splat(INF - 1));
    let normal = W::mand(finite, vnormal::<W, EA, FA>(acc));
    // Binary64 1.0 stands in for the operands of the special block's lanes.
    let one = W::splat(one::<11, 52>());
    let (mut sum, mut f) = sum_b64::<W, EA, FA>(
        W::sel(normal, pv, one),
        W::sel(normal, widen::<W, EA, FA>(acc), one),
        rtn,
    );
    if !W::mall(normal) {
        let (sr, sf) = add_special::<W, EA, FA>(pack_val::<W, EA, FA>(pv), acc);
        sum = W::sel(normal, sum, sr);
        f = W::sel(normal, f, sf);
    }
    (sum, pf, f)
}

/// The `src.len() <= LANES` words of `src` as a chunk, padded with `pad`.
///
/// # Safety
/// `W`'s engine must have passed runtime feature detection.
#[inline(always)]
unsafe fn load_padded<W: Words>(src: &[u64], pad: u64) -> W {
    match <&[u64; LANES]>::try_from(src) {
        Ok(chunk) => W::load(chunk),
        Err(_) => {
            let mut chunk = [pad; LANES];
            chunk[..src.len()].copy_from_slice(src);
            W::load(&chunk)
        }
    }
}

/// Multiply-accumulate driver: the rank-1 steps of
/// [`crate::fastpath::mac_steps_bits`] for a compute format `(EC, FC)` and
/// an accumulate format `(EA, FA)` that covers it. Column chunks are the
/// outer loop and the steps of one bank slot the inner one, so a chunk's
/// accumulators stay in a register across all its steps and touch memory
/// once. A ragged last chunk (or a row narrower than a chunk) reads only
/// its own columns, padded with 1.0, stores only those, and drops the
/// padding lanes' flags. Every step's two flag codes are gathered as
/// one-hot bits and decoded once per call. FP environment as
/// [`bin_driver`].
#[inline(always)]
fn mac_driver<W: Words, const EC: u32, const FC: u32, const EA: u32, const FA: u32>(
    lhs: &[u64],
    rhs: &[u64],
    stride: usize,
    banks: &mut [u64],
    la: usize,
    mode: RoundMode,
) -> Flags {
    debug_assert!(default_fp_env());
    let p = banks.len() / la;
    // SAFETY (every block below): `W`'s engine passed positive runtime
    // feature detection (the dispatch layer's invariant).
    let (mut seen, zero, bit) = unsafe { (W::splat(0), W::splat(0), W::splat(1)) };
    for j0 in (0..p).step_by(LANES) {
        let live = LANES.min(p - j0);
        let mut codes = zero;
        for s in 0..la.min(lhs.len()) {
            let bank = &mut banks[s * p + j0..][..live];
            let mut acc = unsafe { load_padded::<W>(bank, one::<EA, FA>()) };
            for (&l, k) in lhs[s..].iter().step_by(la).zip((s..).step_by(la)) {
                let row = &rhs[k * stride + j0..][..live];
                unsafe {
                    let r = load_padded::<W>(row, one::<EC, FC>());
                    let (sum, pf, f) =
                        mac_step_call::<W, EC, FC, EA, FA>(r, W::splat(l), acc, mode);
                    codes = codes.vor(bit.shlv(pf)).vor(bit.shlv(f));
                    acc = sum;
                }
            }
            let mut out = [0u64; LANES];
            unsafe { acc.store(&mut out) };
            bank.copy_from_slice(&out[..live]);
        }
        unsafe {
            let lanes = W::load(&std::array::from_fn(|l| (l < live) as u64));
            seen = seen.vor(W::sel(lanes.vne(zero), codes, zero));
        }
    }
    let mut codes = [0u64; LANES];
    unsafe { seen.store(&mut codes) };
    let set = codes.iter().fold(0, |acc, &w| acc | w);
    (0..8)
        .filter(|c| set >> c & 1 == 1)
        .fold(Flags::NONE, |acc, c| acc | FLAG_LUT[c])
}

// The intrinsics engines need monomorphizations of the generic drivers
// whose call contexts carry the matching `#[target_feature]` set, so the
// engine methods (and through them the intrinsics) inline into the chunk
// loop. The portable engine runs the generic drivers directly.
#[cfg(target_arch = "x86_64")]
mod engine {
    use super::*;

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bin_driver_tf<const E: u32, const F: u32, const OP: u8, S: Sink>(
        n: usize,
        load_chunk: impl Fn(usize, &mut [u64; LANES], &mut [u64; LANES]),
        load_one: impl Fn(usize) -> (u64, u64),
        mode: RoundMode,
        sink: &mut S,
    ) -> Flags {
        super::bin_driver::<W2, E, F, OP, S>(n, load_chunk, load_one, mode, sink)
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fma_driver_tf<const E: u32, const F: u32, S: Sink>(
        n: usize,
        load: impl FmaLoad,
        mode: RoundMode,
        sink: &mut S,
    ) -> Flags {
        super::fma_driver::<W2, E, F, S>(n, load, mode, sink)
    }

    #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
    pub(super) unsafe fn bin_driver_512<const E: u32, const F: u32, const OP: u8, S: Sink>(
        n: usize,
        load_chunk: impl Fn(usize, &mut [u64; LANES], &mut [u64; LANES]),
        load_one: impl Fn(usize) -> (u64, u64),
        mode: RoundMode,
        sink: &mut S,
    ) -> Flags {
        super::bin_driver::<W5, E, F, OP, S>(n, load_chunk, load_one, mode, sink)
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn mac_driver_tf<
        const EC: u32,
        const FC: u32,
        const EA: u32,
        const FA: u32,
    >(
        lhs: &[u64],
        rhs: &[u64],
        stride: usize,
        banks: &mut [u64],
        la: usize,
        mode: RoundMode,
    ) -> Flags {
        super::mac_driver::<W2, EC, FC, EA, FA>(lhs, rhs, stride, banks, la, mode)
    }

    #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
    pub(super) unsafe fn mac_driver_512<
        const EC: u32,
        const FC: u32,
        const EA: u32,
        const FA: u32,
    >(
        lhs: &[u64],
        rhs: &[u64],
        stride: usize,
        banks: &mut [u64],
        la: usize,
        mode: RoundMode,
    ) -> Flags {
        super::mac_driver::<W5, EC, FC, EA, FA>(lhs, rhs, stride, banks, la, mode)
    }

    #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
    pub(super) unsafe fn fma_driver_512<const E: u32, const F: u32, S: Sink>(
        n: usize,
        load: impl FmaLoad,
        mode: RoundMode,
        sink: &mut S,
    ) -> Flags {
        super::fma_driver::<W5, E, F, S>(n, load, mode, sink)
    }
}

/// Run a driver on `eng`: `$word` on the portable word, `$avx2` and
/// `$avx512` through the wide engines' `#[target_feature]` shims. The
/// wide arms are sound: the entry points below only reach them after
/// `assert_available` saw a positive `is_x86_feature_detected!` for the
/// engine's feature set.
macro_rules! on_engine {
    ($eng:expr, $word:expr, $avx2:expr, $avx512:expr) => {
        match $eng {
            SimdEngine::Scalar => $word,
            #[cfg(target_arch = "x86_64")]
            SimdEngine::WideAvx2 => unsafe { $avx2 },
            #[cfg(target_arch = "x86_64")]
            SimdEngine::WideAvx512 => unsafe { $avx512 },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("the wide engines exist on x86-64 only"),
        }
    };
}

/// The named formats, one monomorphization of the drivers each.
#[derive(Clone, Copy)]
enum Lane {
    Single,
    W48,
    Double,
}

/// `fmt`'s named lane on a host that can run `eng`; `None` for a dynamic
/// format, which the caller runs on the generic ops.
///
/// # Panics
/// If `eng` is a wide engine this host cannot run.
#[inline(always)]
fn lane(eng: SimdEngine, fmt: FpFormat) -> Option<Lane> {
    assert_available(eng);
    if fmt == FpFormat::SINGLE {
        Some(Lane::Single)
    } else if fmt == FpFormat::FP48 {
        Some(Lane::W48)
    } else if fmt == FpFormat::DOUBLE {
        Some(Lane::Double)
    } else {
        None
    }
}

/// Run a binary batch on `eng` into `sink`, returning the driver's flags
/// (see [`bin_driver`]); `None`, leaving the sink untouched, for a
/// dynamic format.
#[inline(always)]
pub(crate) fn run_bin<const OP: u8>(
    eng: SimdEngine,
    fmt: FpFormat,
    n: usize,
    load_chunk: impl Fn(usize, &mut [u64; LANES], &mut [u64; LANES]),
    load_one: impl Fn(usize) -> (u64, u64),
    mode: RoundMode,
    sink: &mut impl Sink,
) -> Option<Flags> {
    macro_rules! go {
        ($e:literal, $f:literal) => {
            on_engine!(
                eng,
                bin_driver::<Word, $e, $f, OP, _>(n, load_chunk, load_one, mode, sink),
                engine::bin_driver_tf::<$e, $f, OP, _>(n, load_chunk, load_one, mode, sink),
                engine::bin_driver_512::<$e, $f, OP, _>(n, load_chunk, load_one, mode, sink)
            )
        };
    }
    Some(match lane(eng, fmt)? {
        Lane::Single => go!(8, 23),
        Lane::W48 => go!(11, 36),
        Lane::Double => go!(11, 52),
    })
}

/// Run an fma batch on `eng` into `sink`, returning the driver's flags
/// (see [`fma_driver`]); `None`, leaving the sink untouched, for a
/// dynamic format.
#[inline(always)]
pub(crate) fn run_fma(
    eng: SimdEngine,
    fmt: FpFormat,
    n: usize,
    load: impl FmaLoad,
    mode: RoundMode,
    sink: &mut impl Sink,
) -> Option<Flags> {
    macro_rules! go {
        ($e:literal, $f:literal) => {
            on_engine!(
                eng,
                fma_driver::<Word, $e, $f, _>(n, load, mode, sink),
                engine::fma_driver_tf::<$e, $f, _>(n, load, mode, sink),
                engine::fma_driver_512::<$e, $f, _>(n, load, mode, sink)
            )
        };
    }
    Some(match lane(eng, fmt)? {
        Lane::Single => go!(8, 23),
        Lane::W48 => go!(11, 36),
        Lane::Double => go!(11, 52),
    })
}

/// Run the rank-1 steps of [`crate::fastpath::mac_steps_bits`] on `eng`,
/// returning their flags; `None`, leaving `banks` untouched, when the
/// caller's generic loop should run instead: a dynamic format, or an
/// accumulate format that does not cover the compute format (the
/// widening would round). The caller has checked the shapes.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_mac(
    eng: SimdEngine,
    compute: FpFormat,
    accumulate: FpFormat,
    lhs: &[u64],
    rhs: &[u64],
    stride: usize,
    banks: &mut [u64],
    la: usize,
    mode: RoundMode,
) -> Option<Flags> {
    let (c, a) = (lane(eng, compute)?, lane(eng, accumulate)?);
    macro_rules! go {
        ($ec:literal, $fc:literal, $ea:literal, $fa:literal) => {
            on_engine!(
                eng,
                mac_driver::<Word, $ec, $fc, $ea, $fa>(lhs, rhs, stride, banks, la, mode),
                engine::mac_driver_tf::<$ec, $fc, $ea, $fa>(lhs, rhs, stride, banks, la, mode),
                engine::mac_driver_512::<$ec, $fc, $ea, $fa>(lhs, rhs, stride, banks, la, mode)
            )
        };
    }
    Some(match (c, a) {
        (Lane::Single, Lane::Single) => go!(8, 23, 8, 23),
        (Lane::Single, Lane::W48) => go!(8, 23, 11, 36),
        (Lane::Single, Lane::Double) => go!(8, 23, 11, 52),
        (Lane::W48, Lane::W48) => go!(11, 36, 11, 36),
        (Lane::W48, Lane::Double) => go!(11, 36, 11, 52),
        (Lane::Double, Lane::Double) => go!(11, 52, 11, 52),
        _ => return None,
    })
}

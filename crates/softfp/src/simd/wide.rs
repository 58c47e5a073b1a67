//! The wide engines (x86-64 only): the lane-word trait, its AVX2 and
//! AVX-512 implementations, the engine-generic block kernels, the
//! special-operand blocks and the batch drivers that blend the two.

use super::*;
use crate::fastpath::{self, lane_of, Lane};

// ---------------------------------------------------------------------------
// The SIMD word: one trait, two engines
// ---------------------------------------------------------------------------
//
// `Words` is a [`LANES`]-wide vector of u64 plus an engine-specific
// lane-mask type. The block kernels below are written once, generically,
// against this trait; the two impls pin the instruction selection:
//
// * `W2` — two `__m256i` halves under `#[target_feature(enable =
//   "avx2")]`: native `vpsllvq`/`vpsrlvq` variable shifts, `vpmuludq`
//   32×32→64 products, byte-LUT popcount for the msb scan.
// * `W5` — one `__m512i` under the AVX-512 feature set, with `__mmask8`
//   lane masks, native unsigned compares and `vplzcntq`.
//
// Every method is an `unsafe fn`: the intrinsic impls must only be
// reached after positive runtime feature detection, which the dispatch
// layer guarantees. Explicit intrinsics — rather than autovectorized lane
// loops — are the point: LLVM scalarizes the long select chains of the
// fast-path datapath when left to vectorize them itself.
//
// Semantics contract (what the equivalence tests pin down): on lanes
// whose shift amounts stay below 64 and whose `vmul32` operands have
// clear high halves — true for every value the kernels build from
// normal operands — both engines are bit-identical to the scalar fast
// lane. `fadd`/`fsub`/`fmul` are IEEE binary64 operations rounded to
// nearest-even with subnormals kept, which is Rust's default FP
// environment; the binary64 blocks only feed them normal values (see
// `widen`). The datapath's lanes with a special operand may hold
// anything: the drivers blend the special blocks' result over every
// such lane, so the datapath's contents there are never observable.

/// The engine-generic SIMD word: [`LANES`] u64 lanes.
pub(crate) trait Words: Copy {
    /// Lane-mask type (all-ones/all-zeros words, or a compact bitmask).
    type M: Copy;
    unsafe fn splat(x: u64) -> Self;
    unsafe fn load(src: &[u64; LANES]) -> Self;
    unsafe fn store(self, dst: &mut [u64; LANES]);
    unsafe fn vadd(self, o: Self) -> Self;
    unsafe fn vsub(self, o: Self) -> Self;
    /// Low-64 product; both operands must have clear high 32 bits
    /// (`vpmuludq` shape — every call site masks or shifts first).
    unsafe fn vmul32(self, o: Self) -> Self;
    /// Binary64 sum, difference and product of lanes read as `f64` bits
    /// (host FPU, Rust's default environment: RNE, no FTZ/DAZ).
    unsafe fn fadd(self, o: Self) -> Self;
    unsafe fn fsub(self, o: Self) -> Self;
    unsafe fn fmul(self, o: Self) -> Self;
    unsafe fn vand(self, o: Self) -> Self;
    unsafe fn vor(self, o: Self) -> Self;
    unsafe fn vxor(self, o: Self) -> Self;
    /// Per-lane variable left shift; amounts are < 64 on every lane
    /// whose value is kept (see the semantics contract above).
    unsafe fn shl(self, n: Self) -> Self;
    /// Per-lane variable right shift (amounts < 64 on kept lanes).
    unsafe fn shr(self, n: Self) -> Self;
    /// Uniform left shift by a runtime-constant amount (< 64).
    unsafe fn shlc(self, n: u32) -> Self;
    /// Uniform right shift by a runtime-constant amount (< 64).
    unsafe fn shrc(self, n: u32) -> Self;
    /// Index of the most significant set bit (lanes must be nonzero).
    unsafe fn vmsb(self) -> Self;
    unsafe fn veq(self, o: Self) -> Self::M;
    unsafe fn vne(self, o: Self) -> Self::M;
    unsafe fn vgt_u(self, o: Self) -> Self::M;
    unsafe fn vge_u(self, o: Self) -> Self::M;
    unsafe fn vlt_u(self, o: Self) -> Self::M;
    /// Signed compare on lanes holding two's-complement i64 values.
    unsafe fn vgt_s(self, o: Self) -> Self::M;
    unsafe fn vlt_s(self, o: Self) -> Self::M;
    unsafe fn mand(a: Self::M, b: Self::M) -> Self::M;
    unsafe fn mor(a: Self::M, b: Self::M) -> Self::M;
    unsafe fn mnot(a: Self::M) -> Self::M;
    /// Uniform mask from a bool.
    unsafe fn mbool(b: bool) -> Self::M;
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

/// The AVX2 and AVX-512 engines: explicit intrinsics. The structs never
/// escape this module except through the generic drivers, which the
/// dispatch layer only instantiates after positive feature detection.
mod engines_x86 {
    use super::{Words, LANES};
    use std::arch::x86_64::*;

    /// AVX2 engine: two 256-bit halves, masks as all-ones/zeros lanes.
    #[derive(Clone, Copy)]
    pub(super) struct W2(__m256i, __m256i);

    /// Per-lane u64 popcount: nibble-LUT `vpshufb` plus `vpsadbw`
    /// horizontal byte sum.
    #[target_feature(enable = "avx2")]
    unsafe fn popcnt64x4(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let nib = _mm256_set1_epi8(0x0f);
        let lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, nib));
        let hi = _mm256_shuffle_epi8(lut, _mm256_and_si256(_mm256_srli_epi64::<4>(v), nib));
        _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256())
    }

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
        #[target_feature(enable = "avx2")]
        unsafe fn splat(x: u64) -> W2 {
            let v = _mm256_set1_epi64x(x as i64);
            W2(v, v)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn load(src: &[u64; LANES]) -> W2 {
            W2(
                _mm256_loadu_si256(src.as_ptr().cast()),
                _mm256_loadu_si256(src.as_ptr().add(4).cast()),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn store(self, dst: &mut [u64; LANES]) {
            _mm256_storeu_si256(dst.as_mut_ptr().cast(), self.0);
            _mm256_storeu_si256(dst.as_mut_ptr().add(4).cast(), self.1);
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vadd(self, o: W2) -> W2 {
            W2(_mm256_add_epi64(self.0, o.0), _mm256_add_epi64(self.1, o.1))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vsub(self, o: W2) -> W2 {
            W2(_mm256_sub_epi64(self.0, o.0), _mm256_sub_epi64(self.1, o.1))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vmul32(self, o: W2) -> W2 {
            W2(_mm256_mul_epu32(self.0, o.0), _mm256_mul_epu32(self.1, o.1))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn fadd(self, o: W2) -> W2 {
            fop2!(_mm256_add_pd, self, o)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn fsub(self, o: W2) -> W2 {
            fop2!(_mm256_sub_pd, self, o)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn fmul(self, o: W2) -> W2 {
            fop2!(_mm256_mul_pd, self, o)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vand(self, o: W2) -> W2 {
            W2(_mm256_and_si256(self.0, o.0), _mm256_and_si256(self.1, o.1))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vor(self, o: W2) -> W2 {
            W2(_mm256_or_si256(self.0, o.0), _mm256_or_si256(self.1, o.1))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vxor(self, o: W2) -> W2 {
            W2(_mm256_xor_si256(self.0, o.0), _mm256_xor_si256(self.1, o.1))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn shl(self, n: W2) -> W2 {
            W2(
                _mm256_sllv_epi64(self.0, n.0),
                _mm256_sllv_epi64(self.1, n.1),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn shr(self, n: W2) -> W2 {
            W2(
                _mm256_srlv_epi64(self.0, n.0),
                _mm256_srlv_epi64(self.1, n.1),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn shlc(self, n: u32) -> W2 {
            let c = _mm_cvtsi32_si128(n as i32);
            W2(_mm256_sll_epi64(self.0, c), _mm256_sll_epi64(self.1, c))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn shrc(self, n: u32) -> W2 {
            let c = _mm_cvtsi32_si128(n as i32);
            W2(_mm256_srl_epi64(self.0, c), _mm256_srl_epi64(self.1, c))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vmsb(self) -> W2 {
            // Bit-smear to a mask of width msb+1, then popcount − 1.
            let mut s = self;
            s = s.vor(s.shrc(1));
            s = s.vor(s.shrc(2));
            s = s.vor(s.shrc(4));
            s = s.vor(s.shrc(8));
            s = s.vor(s.shrc(16));
            s = s.vor(s.shrc(32));
            let one = _mm256_set1_epi64x(1);
            W2(
                _mm256_sub_epi64(popcnt64x4(s.0), one),
                _mm256_sub_epi64(popcnt64x4(s.1), one),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn veq(self, o: W2) -> W2 {
            W2(
                _mm256_cmpeq_epi64(self.0, o.0),
                _mm256_cmpeq_epi64(self.1, o.1),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vne(self, o: W2) -> W2 {
            W2::mnot(self.veq(o))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vgt_u(self, o: W2) -> W2 {
            // Unsigned compare = signed compare with the sign bit flipped.
            let top = _mm256_set1_epi64x(i64::MIN);
            W2(
                _mm256_cmpgt_epi64(_mm256_xor_si256(self.0, top), _mm256_xor_si256(o.0, top)),
                _mm256_cmpgt_epi64(_mm256_xor_si256(self.1, top), _mm256_xor_si256(o.1, top)),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vge_u(self, o: W2) -> W2 {
            W2::mnot(o.vgt_u(self))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vlt_u(self, o: W2) -> W2 {
            o.vgt_u(self)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vgt_s(self, o: W2) -> W2 {
            W2(
                _mm256_cmpgt_epi64(self.0, o.0),
                _mm256_cmpgt_epi64(self.1, o.1),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn vlt_s(self, o: W2) -> W2 {
            o.vgt_s(self)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn mand(a: W2, b: W2) -> W2 {
            a.vand(b)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn mor(a: W2, b: W2) -> W2 {
            a.vor(b)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn mnot(a: W2) -> W2 {
            let ones = _mm256_set1_epi64x(-1);
            W2(_mm256_xor_si256(a.0, ones), _mm256_xor_si256(a.1, ones))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn mbool(b: bool) -> W2 {
            let v = _mm256_set1_epi64x(-(b as i64));
            W2(v, v)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn sel(m: W2, t: W2, f: W2) -> W2 {
            W2(
                _mm256_blendv_epi8(f.0, t.0, m.0),
                _mm256_blendv_epi8(f.1, t.1, m.1),
            )
        }
        #[target_feature(enable = "avx2")]
        unsafe fn m01(m: W2) -> W2 {
            m.vand(W2::splat(1))
        }
        #[target_feature(enable = "avx2")]
        unsafe fn mall(m: W2) -> bool {
            W2::mbits(m) == 0xff
        }
        #[target_feature(enable = "avx2")]
        unsafe fn mbits(m: W2) -> u32 {
            let lo = _mm256_movemask_pd(_mm256_castsi256_pd(m.0)) as u32;
            let hi = _mm256_movemask_pd(_mm256_castsi256_pd(m.1)) as u32;
            lo | (hi << 4)
        }
        #[target_feature(enable = "avx2")]
        unsafe fn lut8(self, lut: &[u64; 8]) -> W2 {
            W2(
                _mm256_i64gather_epi64::<8>(lut.as_ptr().cast(), self.0),
                _mm256_i64gather_epi64::<8>(lut.as_ptr().cast(), self.1),
            )
        }
        #[target_feature(enable = "avx2")]
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

    /// AVX-512 engine: one 512-bit register, compact `__mmask8` masks,
    /// native unsigned compares and `vplzcntq`.
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
        unsafe fn vmul32(self, o: W5) -> W5 {
            W5(_mm512_mul_epu32(self.0, o.0))
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
        unsafe fn shl(self, n: W5) -> W5 {
            W5(_mm512_sllv_epi64(self.0, n.0))
        }
        #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
        unsafe fn shr(self, n: W5) -> W5 {
            W5(_mm512_srlv_epi64(self.0, n.0))
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
        unsafe fn vmsb(self) -> W5 {
            // 63 ^ clz (inputs are nonzero, so clz is in 0..=63 and the
            // xor is exactly 63 − clz).
            W5(_mm512_xor_si512(
                _mm512_lzcnt_epi64(self.0),
                _mm512_set1_epi64(63),
            ))
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
        unsafe fn vge_u(self, o: W5) -> __mmask8 {
            _mm512_cmpge_epu64_mask(self.0, o.0)
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
        #[inline(always)]
        unsafe fn mbool(b: bool) -> __mmask8 {
            if b {
                0xff
            } else {
                0
            }
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

use engines_x86::{W2, W5};

// ---------------------------------------------------------------------------
// Engine-generic block kernels
// ---------------------------------------------------------------------------
//
// Lane-for-lane transcriptions of the scalar fast-path formulas into the
// `Words` vocabulary (add, sub and the f32 fma compute the same results on
// binary64 lanes instead): every branch becomes a mask select with both arms
// computed. The blocks are total over arbitrary encodings — variable
// shift amounts are clamped wherever a valid lane needs it, arithmetic
// wraps, and the `kill`/`|= 1` jams keep `vmsb` inputs nonzero — so a
// special lane's garbage can never fault; the driver blends over it.

/// Vector twin of [`widening_mul`]: all four partial products are
/// 32×32→64 (`vmul32`), the carry chain exact for every input pair.
#[inline(always)]
unsafe fn vwidening_mul<W: Words>(x: W, y: W) -> (W, W) {
    let m32 = W::splat(0xffff_ffff);
    let x0 = x.vand(m32);
    let x1 = x.shrc(32);
    let y0 = y.vand(m32);
    let y1 = y.shrc(32);
    let m00 = x0.vmul32(y0);
    let m01 = x0.vmul32(y1);
    let m10 = x1.vmul32(y0);
    let m11 = x1.vmul32(y1);
    let mid = m00.shrc(32).vadd(m01.vand(m32)).vadd(m10.vand(m32));
    let lo = mid.shlc(32).vor(m00.vand(m32));
    let hi = m11.vadd(m01.shrc(32)).vadd(m10.shrc(32)).vadd(mid.shrc(32));
    (hi, lo)
}

/// Vector twin of [`shr128_sticky`].
#[inline(always)]
unsafe fn vshr128_sticky<W: Words>(hi: W, lo: W, n: W) -> (W, W, W) {
    let zero = W::splat(0);
    let c63 = W::splat(63);
    let n = W::sel(n.vgt_u(W::splat(127)), W::splat(127), n);
    let ge64 = n.vge_u(W::splat(64));
    let m = n.vand(c63);
    let inv = c63.vsub(m);
    let a_hi = hi.shr(m);
    let a_lo = lo.shr(m).vor(hi.shl(inv).shlc(1));
    let a_lost = lo.shl(inv).shlc(1);
    let b_lo = hi.shr(m);
    let b_lost = hi.shl(inv).shlc(1).vor(W::m01(lo.vne(zero)));
    let r_hi = W::sel(ge64, zero, a_hi);
    let r_lo = W::sel(ge64, b_lo, a_lo);
    let lost = W::m01(W::sel(ge64, b_lost, a_lost).vne(zero));
    (r_hi, r_lo, lost)
}

/// Lane mask of operands that take the fast lane (vector twin of
/// `fastpath::is_normal`: biased exponent in `1..=em-1`).
#[inline(always)]
unsafe fn vnormal<W: Words, const E: u32, const F: u32>(x: W) -> W::M {
    let em = (1u64 << E) - 1;
    x.shrc(F)
        .vand(W::splat(em))
        .vsub(W::splat(1))
        .vlt_u(W::splat(em - 1))
}

/// Vector twin of [`round_pack_lane`]; `kill` zeroes the result and
/// flags (exact cancellation, and a don't-care for special lanes).
#[inline(always)]
unsafe fn round_pack_block<W: Words, const E: u32, const F: u32>(
    sign: W,
    exp: W,
    kept: W,
    tail: W,
    grs: W,
    rtn: bool,
    kill: W::M,
) -> (W, W) {
    let bias = (1u64 << (E - 1)) - 1;
    let max_exp = ((1u64 << E) - 2).wrapping_sub(bias);
    let min_exp = 1u64.wrapping_sub(bias);
    let zero = W::splat(0);
    let one = W::splat(1);
    let frac_mask = W::splat((1u64 << F) - 1);

    let inexact = tail.vne(zero);
    let half = one.shl(grs.vsub(one));
    let round_up = W::m01(W::mand(
        W::mbool(rtn),
        W::mor(
            tail.vgt_u(half),
            W::mand(tail.veq(half), kept.vand(one).veq(one)),
        ),
    ));
    let rounded = kept.vadd(round_up);
    let carry = W::m01(rounded.shrc(F + 1).vne(zero));
    let rounded = rounded.shr(carry);
    let exp = exp.vadd(carry);

    let over = exp.vgt_s(W::splat(max_exp));
    let under = exp.vlt_s(W::splat(min_exp));
    // ∞, or under Truncate the largest finite value, one below it.
    let over_mag = W::splat((((1u64 << E) - 1) << F) - !rtn as u64);
    let norm_mag = exp
        .vadd(W::splat(bias))
        .shlc(F)
        .vor(rounded.vand(frac_mask));
    let mag = W::sel(over, over_mag, W::sel(under, zero, norm_mag));
    let fl = W::m01(over)
        .vor(W::m01(under).shlc(1))
        .vor(W::m01(W::mor(W::mor(inexact, over), under)).shlc(2));
    (
        W::sel(kill, zero, sign.shlc(E + F).vor(mag)),
        W::sel(kill, zero, fl),
    )
}

/// Biased-exponent offset from an `E`-bit exponent to binary64's.
const fn rebase(e: u32) -> u64 {
    1023 - ((1u64 << (e - 1)) - 1)
}

/// Exact binary64 bits of f32/f48/f64 encodings, none subnormal, ∞ or NaN:
/// f48/f64 lanes outside `normal` (the special block's) become 1.0, then
/// shift; f32 rebases its exponent into binary64's normal range.
#[inline(always)]
unsafe fn widen<W: Words, const E: u32, const F: u32>(x: W, normal: W::M) -> W {
    const { assert!(E == 11 || (E == 8 && F == 23), "f32, f48 or f64") };
    if E == 11 {
        return W::sel(normal, x, W::splat(((1u64 << (E - 1)) - 1) << F)).shlc(52 - F);
    }
    let mag = x.vand(W::splat((1u64 << (E + F)) - 1)).shlc(52 - F);
    x.shrc(E + F)
        .shlc(63)
        .vor(mag.vadd(W::splat(rebase(E) << 52)))
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

/// Round the exact sum `s + e` of [`two_sum`] to `F + 1` bits and pack it
/// with packed flags as `round_pack_block` would (an exact zero is +0).
#[inline(always)]
unsafe fn round_pack_f64<W: Words, const E: u32, const F: u32>(s: W, e: W, rtn: bool) -> (W, W) {
    let d = 52 - F;
    let zero = W::splat(0);
    let abs = W::splat(u64::MAX >> 1);
    let low = s.vand(W::splat((1u64 << d) - 1));
    let half = W::splat((1u64 << d) >> 1);
    let e_nz = e.vand(abs).vne(zero);
    let e_opp = e.vxor(s).vlt_s(zero);
    let r = if rtn {
        // A tie (only when d > 0) goes by the sign of `e`, else to even.
        let tie_up = W::mor(
            W::mand(e_nz, W::mnot(e_opp)),
            W::mand(W::mnot(e_nz), s.shrc(d).vand(W::splat(1)).vne(zero)),
        );
        let tie = W::mand(W::mbool(d > 0), low.veq(half));
        let up = W::mor(low.vgt_u(half), W::mand(tie, tie_up));
        s.vsub(low).vadd(W::m01(up).shlc(d))
    } else {
        // Step down (across a binade too) when `e` points toward zero.
        let down = W::mand(W::mand(low.veq(zero), e_nz), e_opp);
        s.vsub(low).vsub(W::m01(down).shlc(d))
    };
    let inexact = W::mor(low.vne(zero), e_nz);
    let exp = r.shrc(52).vand(W::splat(0x7ff)).vsub(W::splat(rebase(E)));
    let over = exp.vgt_s(W::splat((1u64 << E) - 2));
    let under = exp.vlt_s(W::splat(1));
    // ∞, or under Truncate the largest finite value, one below it.
    let over_mag = W::splat((((1u64 << E) - 1) << F) - !rtn as u64);
    let norm_mag = r.vand(abs).shrc(d).vsub(W::splat(rebase(E) << F));
    let mag = W::sel(over, over_mag, W::sel(under, zero, norm_mag));
    let fl = W::m01(over)
        .vor(W::m01(under).shlc(1))
        .vor(W::m01(W::mor(W::mor(inexact, over), under)).shlc(2));
    let exact_zero = s.vand(abs).veq(zero);
    (
        W::sel(exact_zero, zero, r.shrc(63).shlc(E + F).vor(mag)),
        W::sel(exact_zero, zero, fl),
    )
}

/// Vector add block (`sub` is a sign flip at the call site) on the host's
/// binary64 unit: [`widen`], [`two_sum`], [`round_pack_f64`]. The third
/// result masks the lanes TwoSum overflowed on (f48/f64 only), which the
/// driver finishes on the scalar fast lane.
#[inline(always)]
unsafe fn add_b64_block<W: Words, const E: u32, const F: u32>(
    a: W,
    b: W,
    normal: W::M,
    rtn: bool,
) -> (W, W, W::M) {
    let (s, e) = two_sum(widen::<W, E, F>(a, normal), widen::<W, E, F>(b, normal));
    let (r, f) = round_pack_f64::<W, E, F>(s, e, rtn);
    let inf = W::splat(0x7ff << 52);
    (r, f, e.vand(inf).veq(inf))
}

/// Vector multiply block. `F <= 31` keeps the product in one word;
/// wider formats run the limb-split widening multiply.
#[inline(always)]
unsafe fn mul_block<W: Words, const E: u32, const F: u32>(a: W, b: W, rtn: bool) -> (W, W) {
    let sign_shift = E + F;
    let frac_mask = W::splat((1u64 << F) - 1);
    let hidden = W::splat(1u64 << F);
    let bias = W::splat((1u64 << (E - 1)) - 1);
    let em = W::splat((1u64 << E) - 1);
    let one = W::splat(1);

    let sign = a.vxor(b).shrc(sign_shift).vand(one);
    let mut exp = a
        .shrc(F)
        .vand(em)
        .vsub(bias)
        .vadd(b.shrc(F).vand(em).vsub(bias));
    let sa = a.vand(frac_mask).vor(hidden);
    let sb = b.vand(frac_mask).vor(hidden);

    let (kept, tail, grs);
    if F <= 31 {
        let p = sa.vmul32(sb);
        let top = p.shrc(2 * F + 1).vand(one);
        exp = exp.vadd(top);
        let p = p.shl(top.vxor(one));
        let g = F + 1;
        kept = p.shrc(g);
        tail = p.vand(W::splat((1u64 << g) - 1));
        grs = W::splat(g as u64);
    } else {
        let (p_hi, p_lo) = vwidening_mul(sa, sb);
        let top = p_hi.shrc((2 * F + 1).saturating_sub(64)).vand(one);
        exp = exp.vadd(top);
        let g = W::splat(F as u64).vadd(top); // 32 <= g <= 57
        kept = p_lo.shr(g).vor(p_hi.shl(W::splat(63).vsub(g)).shlc(1));
        tail = p_lo.vand(one.shl(g).vsub(one));
        grs = g;
    }
    round_pack_block::<W, E, F>(sign, exp, kept, tail, grs, rtn, W::mbool(false))
}

/// Vector fma block. f32 runs on the binary64 unit — the product of two
/// 24-bit significands is exact there — as TwoSum of product and addend;
/// f48 and f64 run the `(hi, lo)`-pair datapath.
#[inline(always)]
unsafe fn fma_block<W: Words, const E: u32, const F: u32>(
    a: W,
    b: W,
    c: W,
    normal: W::M,
    rtn: bool,
) -> (W, W) {
    if E == 8 {
        let p = widen::<W, E, F>(a, normal).fmul(widen::<W, E, F>(b, normal));
        let (s, e) = two_sum(p, widen::<W, E, F>(c, normal));
        round_pack_f64::<W, E, F>(s, e, rtn)
    } else {
        fma_wide_block::<W, E, F>(a, b, c, rtn)
    }
}

/// `(hi, lo)`-pair vector fma for formats whose aligned sum exceeds 64
/// bits: the vector transcription of [`fma_lane_wide`] — exact product
/// from [`vwidening_mul`], alignment via [`vshr128_sticky`], pair
/// add-with-carry / subtract-with-borrow combine.
#[inline(always)]
unsafe fn fma_wide_block<W: Words, const E: u32, const F: u32>(
    a: W,
    b: W,
    c: W,
    rtn: bool,
) -> (W, W) {
    let sign_shift = E + F;
    let frac_mask = W::splat((1u64 << F) - 1);
    let hidden = W::splat(1u64 << F);
    let bias = W::splat((1u64 << (E - 1)) - 1);
    let em = W::splat((1u64 << E) - 1);
    let zero = W::splat(0);
    let one = W::splat(1);
    let c63 = W::splat(63);

    let psign = a.vxor(b).shrc(sign_shift).vand(one);
    let csign = c.shrc(sign_shift).vand(one);
    let pexp = a
        .shrc(F)
        .vand(em)
        .vsub(bias)
        .vadd(b.shrc(F).vand(em).vsub(bias));
    let cexp = c.shrc(F).vand(em).vsub(bias);

    let (p_hi, p_lo) = vwidening_mul(a.vand(frac_mask).vor(hidden), b.vand(frac_mask).vor(hidden));
    let pw_hi = p_hi.shlc(FMA_GRS).vor(p_lo.shrc(64 - FMA_GRS));
    let pw_lo = p_lo.shlc(FMA_GRS);
    let c_wide = c.vand(frac_mask).vor(hidden).shlc(FMA_GRS);

    let shift = cexp.vsub(pexp).vadd(W::splat(F as u64));
    let cdom = shift.vgt_s(W::splat((F + 2) as u64));
    let cneg = shift.vlt_s(zero);
    let mid = W::mnot(W::mor(cdom, cneg));

    // v: the operand that moves; u: the anchor.
    let v0_hi = W::sel(cdom, pw_hi, zero);
    let v0_lo = W::sel(cdom, pw_lo, c_wide);
    let ramt = W::sel(cdom, shift, W::sel(cneg, zero.vsub(shift), zero));
    let (vr_hi, vr_lo, lost) = vshr128_sticky(v0_hi, v0_lo, ramt);
    let lamt = W::sel(mid, shift, zero); // mid: 0 <= shift <= f+2
    let v_hi = vr_hi.shl(lamt).vor(vr_lo.shrc(1).shr(c63.vsub(lamt)));
    let v_lo = vr_lo.shl(lamt).vor(lost); // lost is 0 whenever lamt > 0

    let u_hi = W::sel(cdom, zero, pw_hi);
    let u_lo = W::sel(cdom, c_wide, pw_lo);
    let us = W::sel(cdom, csign, psign);
    let vs = W::sel(cdom, psign, csign);
    let e_lsb = W::sel(
        cdom,
        cexp.vsub(W::splat((F + FMA_GRS) as u64)),
        pexp.vsub(W::splat((2 * F + FMA_GRS) as u64)),
    );

    // Signed combine on pairs: add-with-carry / subtract-with-borrow.
    let ssame = us.veq(vs);
    let s_lo = u_lo.vadd(v_lo);
    let s_hi = u_hi.vadd(v_hi).vadd(W::m01(s_lo.vlt_u(u_lo)));
    let ubig = W::mor(u_hi.vgt_u(v_hi), W::mand(u_hi.veq(v_hi), u_lo.vge_u(v_lo)));
    let x_hi = W::sel(ubig, u_hi, v_hi);
    let x_lo = W::sel(ubig, u_lo, v_lo);
    let y_hi = W::sel(ubig, v_hi, u_hi);
    let y_lo = W::sel(ubig, v_lo, u_lo);
    let d_lo = x_lo.vsub(y_lo);
    let d_hi = x_hi.vsub(y_hi).vsub(W::m01(x_lo.vlt_u(y_lo)));
    let mag_hi = W::sel(ssame, s_hi, d_hi);
    let mag_lo = W::sel(ssame, s_lo, d_lo);
    let sign = W::sel(ssame, us, W::sel(ubig, us, vs));
    let kill = W::mand(W::mand(W::mnot(ssame), mag_hi.veq(zero)), mag_lo.veq(zero));
    let mag_lo = mag_lo.vor(W::m01(kill));

    // msb of the pair, then normalize exactly as the scalar path does.
    let hz = mag_hi.veq(zero);
    let msb = W::sel(hz, mag_lo, mag_hi)
        .vmsb()
        .vadd(W::sel(hz, zero, W::splat(64)));
    let exp0 = e_lsb.vadd(msb);
    let deep = W::mnot(msb.vgt_s(W::splat(F as u64)));
    let lshift = W::sel(deep, W::splat((F + 1) as u64).vsub(msb), zero); // <= f+1
    let m_hi = mag_hi.shl(lshift).vor(mag_lo.shrc(1).shr(c63.vsub(lshift)));
    let m_lo = mag_lo.shl(lshift);
    let grs_raw = W::sel(deep, one, msb.vsub(W::splat(F as u64)));
    let grs = W::sel(grs_raw.vgt_u(c63), c63, grs_raw); // clamp only reachable on garbage lanes
    let kept = m_lo.shr(grs).vor(m_hi.shl(c63.vsub(grs)).shlc(1));
    let tail = m_lo.vand(one.shl(grs).vsub(one)); // grs <= f+5 on valid lanes
    round_pack_block::<W, E, F>(sign, exp0, kept, tail, grs, rtn, kill)
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

/// Fma with a special operand, rule for rule as the generic fma: 0 × ∞ is
/// +0 with `invalid` whatever c is; an ∞ product wins unless c is the
/// opposite ∞ (+∞, `invalid`); an ∞ c wins next; a zero product returns
/// c (0 + 0 by the add's sign rule); and c = ±0 under a normal product is
/// `mul(a, b)`, whose `(bits, flags)` the caller passes as `prod`.
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
/// points (`mul_bcast_bits`, `add_acc_bits`) differ.
pub(crate) trait Sink {
    /// True when the driver ORs every element's flags into the
    /// [`Flags`] it returns (the bits sink, which stores no per-element
    /// flags); the pair sink stores them per element instead.
    const REDUCE: bool;
    /// Make room for `n` results.
    fn reserve(&mut self, n: usize);
    /// Store the full chunk at elements `i..i + LANES`: result words and
    /// packed flag words.
    ///
    /// # Safety
    /// `W`'s engine must have passed runtime feature detection, and the
    /// driver must have called [`Sink::reserve`] for every element.
    unsafe fn chunk<W: Words>(&mut self, i: usize, r: W, f: W);
    /// Store tail element `j` (computed by the scalar fast lane).
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
    unsafe fn chunk<W: Words>(&mut self, i: usize, r: W, _f: W) {
        let mut res = [0u64; LANES];
        r.store(&mut res);
        for (cell, v) in self.0[i..i + LANES].iter().zip(res) {
            cell.set(v);
        }
    }
    #[inline(always)]
    fn one(&mut self, j: usize, r: (u64, Flags)) {
        self.0[j].set(r.0)
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

/// The scalar fast lane's `OP`: the chunk tail, and the add/sub lanes
/// whose binary64 TwoSum overflowed.
#[inline(always)]
fn scalar_bin<const E: u32, const F: u32, const OP: u8>(
    x: u64,
    y: u64,
    m: RoundMode,
) -> (u64, Flags) {
    match OP {
        OP_ADD => fastpath::add::<E, F>(x, y, m),
        OP_SUB => fastpath::sub::<E, F>(x, y, m),
        _ => fastpath::mul::<E, F>(x, y, m),
    }
}

/// Binary-op batch driver: every full chunk runs the datapath block; a
/// chunk with any non-normal lane also runs the special block and blends
/// it over those lanes. The sub-chunk tail runs the scalar fast lane
/// (which handles its own specials), as do add/sub lanes whose binary64
/// TwoSum overflowed. Results go to `sink`; when the sink
/// reduces flags ([`Sink::REDUCE`]) the decoded flag words are OR-ed in
/// register and the OR of every element's flags is returned, otherwise
/// [`Flags::NONE`].
#[inline(always)]
fn bin_driver<W: Words, const E: u32, const F: u32, const OP: u8, S: Sink>(
    n: usize,
    load_chunk: impl Fn(usize, &mut [u64; LANES], &mut [u64; LANES]),
    load_one: impl Fn(usize) -> (u64, u64),
    mode: RoundMode,
    sink: &mut S,
) -> Flags {
    debug_assert!(OP == OP_MUL || default_fp_env());
    let rtn = mode == RoundMode::NearestEven;
    let full = n - n % LANES;
    sink.reserve(n);
    // SAFETY: `W`'s engine passed positive runtime feature detection (the
    // dispatch layer's invariant).
    let mut seen = unsafe { W::splat(0) };
    let mut i = 0;
    while i < full {
        let mut xs = [0u64; LANES];
        let mut ys = [0u64; LANES];
        load_chunk(i, &mut xs, &mut ys);
        // SAFETY: as above, and the sink has room for every element.
        unsafe {
            let va = W::load(&xs);
            let mut vb = W::load(&ys);
            if OP == OP_SUB {
                vb = vb.vxor(W::splat(1u64 << (E + F)));
            }
            let normal = W::mand(vnormal::<W, E, F>(va), vnormal::<W, E, F>(vb));
            let (mut r, mut f) = if OP == OP_MUL {
                mul_block::<W, E, F>(va, vb, rtn)
            } else {
                let (r, f, rare) = add_b64_block::<W, E, F>(va, vb, normal, rtn);
                if E == 11 && W::mbits(rare) != 0 {
                    let (mut res, mut fl) = ([0u64; LANES], [0u64; LANES]);
                    r.store(&mut res);
                    f.store(&mut fl);
                    for l in (0..LANES).filter(|l| W::mbits(rare) >> l & 1 == 1) {
                        let (x, y) = load_one(i + l);
                        let (bits, flags) = scalar_bin::<E, F, OP>(x, y, mode);
                        let code = FLAG_LUT.iter().position(|&g| g == flags);
                        res[l] = bits;
                        fl[l] = code.expect("add/sub flags have a packed code") as u64;
                    }
                    (W::load(&res), W::load(&fl))
                } else {
                    (r, f)
                }
            };
            if !W::mall(normal) {
                let (sr, sf) = if OP == OP_MUL {
                    mul_special::<W, E, F>(va, vb)
                } else {
                    add_special::<W, E, F>(va, vb)
                };
                r = W::sel(normal, r, sr);
                f = W::sel(normal, f, sf);
            }
            if S::REDUCE {
                seen = seen.vor(f.vand(W::splat(7)).lut8(&FLAG_BITS));
            }
            sink.chunk(i, r, f);
        }
        i += LANES;
    }
    let mut flags = Flags::NONE;
    if S::REDUCE {
        let mut words = [0u64; LANES];
        // SAFETY: as above.
        unsafe { seen.store(&mut words) };
        flags = Flags::from_bits(words.iter().fold(0, |acc, &w| acc | w) as u8);
    }
    for j in full..n {
        let (x, y) = load_one(j);
        let r = scalar_bin::<E, F, OP>(x, y, mode);
        if S::REDUCE {
            flags |= r.1;
        }
        sink.one(j, r);
    }
    flags
}

/// Ternary (fma) batch driver; same structure as [`bin_driver`]. A chunk
/// with a non-normal lane also runs [`mul_block`] for the c = ±0 lanes.
#[inline(always)]
#[allow(clippy::type_complexity)]
fn fma_driver<W: Words, const E: u32, const F: u32>(
    n: usize,
    load_chunk: impl Fn(usize, &mut [u64; LANES], &mut [u64; LANES], &mut [u64; LANES]),
    load_one: impl Fn(usize) -> (u64, u64, u64),
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    debug_assert!(F != 23 || default_fp_env());
    let rtn = mode == RoundMode::NearestEven;
    let full = n - n % LANES;
    out.reserve(n);
    let mut i = 0;
    while i < full {
        let mut xs = [0u64; LANES];
        let mut ys = [0u64; LANES];
        let mut zs = [0u64; LANES];
        load_chunk(i, &mut xs, &mut ys, &mut zs);
        // SAFETY: as in `bin_driver`.
        unsafe {
            let va = W::load(&xs);
            let vb = W::load(&ys);
            let vc = W::load(&zs);
            let normal = W::mand(
                W::mand(vnormal::<W, E, F>(va), vnormal::<W, E, F>(vb)),
                vnormal::<W, E, F>(vc),
            );
            let (mut r, mut f) = fma_block::<W, E, F>(va, vb, vc, normal, rtn);
            if !W::mall(normal) {
                let prod = mul_block::<W, E, F>(va, vb, rtn);
                let (sr, sf) = fma_special::<W, E, F>(va, vb, vc, prod);
                r = W::sel(normal, r, sr);
                f = W::sel(normal, f, sf);
            }
            store_chunk(r, f, out);
        }
        i += LANES;
    }
    for j in full..n {
        let (x, y, z) = load_one(j);
        out.push(fastpath::fma::<E, F>(x, y, z, mode));
    }
}

// The intrinsics engines need monomorphizations of the generic drivers
// whose call contexts carry the matching `#[target_feature]` set, so the
// engine methods (and through them the intrinsics) inline into the chunk
// loop.
mod engine {
    use super::*;

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn bin_driver_tf<const E: u32, const F: u32, const OP: u8, S: Sink>(
        n: usize,
        load_chunk: impl Fn(usize, &mut [u64; LANES], &mut [u64; LANES]),
        load_one: impl Fn(usize) -> (u64, u64),
        mode: RoundMode,
        sink: &mut S,
    ) -> Flags {
        super::bin_driver::<W2, E, F, OP, S>(n, load_chunk, load_one, mode, sink)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fma_driver_tf<const E: u32, const F: u32>(
        n: usize,
        load_chunk: impl Fn(usize, &mut [u64; LANES], &mut [u64; LANES], &mut [u64; LANES]),
        load_one: impl Fn(usize) -> (u64, u64, u64),
        mode: RoundMode,
        out: &mut Vec<(u64, Flags)>,
    ) {
        super::fma_driver::<W2, E, F>(n, load_chunk, load_one, mode, out)
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

    #[target_feature(enable = "avx512f,avx512cd,avx512vl,avx512dq,avx512bw")]
    pub(super) unsafe fn fma_driver_512<const E: u32, const F: u32>(
        n: usize,
        load_chunk: impl Fn(usize, &mut [u64; LANES], &mut [u64; LANES], &mut [u64; LANES]),
        load_one: impl Fn(usize) -> (u64, u64, u64),
        mode: RoundMode,
        out: &mut Vec<(u64, Flags)>,
    ) {
        super::fma_driver::<W5, E, F>(n, load_chunk, load_one, mode, out)
    }
}

/// Dispatch a driver over (named lane × wide engine). The arms are
/// sound: `run_bin`/`run_fma` only reach them after `assert_available`
/// saw a positive `is_x86_feature_detected!` for the engine's feature set.
macro_rules! wide_dispatch {
    (bin, $eng:expr, $lane:expr, $op:expr, $($arg:expr),*) => {
        match ($lane, $eng) {
            (Lane::Single, SimdEngine::WideAvx512) => unsafe { engine::bin_driver_512::<8, 23, $op, _>($($arg),*) },
            (Lane::Single, SimdEngine::WideAvx2) => unsafe { engine::bin_driver_tf::<8, 23, $op, _>($($arg),*) },
            (Lane::W48, SimdEngine::WideAvx512) => unsafe { engine::bin_driver_512::<11, 36, $op, _>($($arg),*) },
            (Lane::W48, SimdEngine::WideAvx2) => unsafe { engine::bin_driver_tf::<11, 36, $op, _>($($arg),*) },
            (Lane::Double, SimdEngine::WideAvx512) => unsafe { engine::bin_driver_512::<11, 52, $op, _>($($arg),*) },
            (Lane::Double, SimdEngine::WideAvx2) => unsafe { engine::bin_driver_tf::<11, 52, $op, _>($($arg),*) },
            _ => unreachable!("wide dispatch requires a wide engine and a named lane"),
        }
    };
    (fma, $eng:expr, $lane:expr, $($arg:expr),*) => {
        match ($lane, $eng) {
            (Lane::Single, SimdEngine::WideAvx512) => unsafe { engine::fma_driver_512::<8, 23>($($arg),*) },
            (Lane::Single, SimdEngine::WideAvx2) => unsafe { engine::fma_driver_tf::<8, 23>($($arg),*) },
            (Lane::W48, SimdEngine::WideAvx512) => unsafe { engine::fma_driver_512::<11, 36>($($arg),*) },
            (Lane::W48, SimdEngine::WideAvx2) => unsafe { engine::fma_driver_tf::<11, 36>($($arg),*) },
            (Lane::Double, SimdEngine::WideAvx512) => unsafe { engine::fma_driver_512::<11, 52>($($arg),*) },
            (Lane::Double, SimdEngine::WideAvx2) => unsafe { engine::fma_driver_tf::<11, 52>($($arg),*) },
            _ => unreachable!("wide dispatch requires a wide engine and a named lane"),
        }
    };
}

/// The named lane a batch on `eng` runs wide, or `None` when the
/// caller's scalar lane should run (the scalar engine or a dynamic
/// format).
///
/// # Panics
/// If `eng` is a wide engine this host cannot run.
#[inline(always)]
fn wide_lane(eng: SimdEngine, fmt: FpFormat) -> Option<Lane> {
    assert_available(eng);
    match (eng, lane_of(fmt)) {
        (SimdEngine::Scalar, _) | (_, Lane::Dyn) => None,
        (_, lane) => Some(lane),
    }
}

/// Run a binary batch on `eng` into `sink`, returning the driver's
/// flags (see [`bin_driver`]); `None`, leaving the sink untouched, when
/// the scalar lane should run instead.
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
    let lane = wide_lane(eng, fmt)?;
    Some(wide_dispatch!(
        bin, eng, lane, OP, n, load_chunk, load_one, mode, sink
    ))
}

/// Run an fma batch on `eng`; `false` when the scalar lane should run
/// instead.
#[inline(always)]
pub(crate) fn run_fma(
    eng: SimdEngine,
    fmt: FpFormat,
    n: usize,
    load_chunk: impl Fn(usize, &mut [u64; LANES], &mut [u64; LANES], &mut [u64; LANES]),
    load_one: impl Fn(usize) -> (u64, u64, u64),
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) -> bool {
    let Some(lane) = wide_lane(eng, fmt) else {
        return false;
    };
    wide_dispatch!(fma, eng, lane, n, load_chunk, load_one, mode, out);
    true
}

//! Format conversion.
//!
//! The commercial cores the paper compares against (Nallatech, Quixilica)
//! use *custom* formats and need conversion modules at their interfaces to
//! the rest of the system; this module is the software model of such a
//! conversion unit, and also provides the `f32`/`f64` bridges used by the
//! tests and examples.

use crate::exceptions::Flags;
use crate::format::FpFormat;
use crate::round::{pack_with_range_check, round_sig, RoundMode};
use crate::unpacked::{Class, Unpacked};

/// Convert `bits` from format `src` to format `dst` with rounding.
///
/// Widening conversions between the paper's formats (single → 48-bit →
/// double) are exact; narrowing conversions round and may overflow,
/// underflow or lose precision, raising the corresponding flags.
///
/// When `dst` has at least as many exponent and fraction bits as `src`
/// the conversion can neither round nor leave the exponent range, so it
/// is done on the fields and raises no flag: a zero exponent field (zero
/// or a flushed subnormal encoding) gives a signed zero, an all-ones one
/// (any payload) the canonical infinity, and a normal value is rebiased
/// with its fraction zero-extended.
#[inline]
pub fn convert(src: FpFormat, bits: u64, dst: FpFormat, mode: RoundMode) -> (u64, Flags) {
    if dst.exp_bits() < src.exp_bits() || dst.frac_bits() < src.frac_bits() {
        return convert_rounding(src, bits, dst, mode);
    }
    let (sign, exp, frac) = src.unpack_fields(bits);
    let out = if exp == 0 {
        dst.pack(sign, 0, 0)
    } else if exp == src.inf_biased_exp() {
        dst.pack(sign, dst.inf_biased_exp(), 0)
    } else {
        let exp = exp + (dst.bias() - src.bias()) as u64;
        dst.pack(sign, exp, frac << (dst.frac_bits() - src.frac_bits()))
    };
    (out, Flags::NONE)
}

/// [`convert`] on the unpacked value: correct for every pair of formats,
/// and the path taken when `dst` is narrower than `src` in either field.
fn convert_rounding(src: FpFormat, bits: u64, dst: FpFormat, mode: RoundMode) -> (u64, Flags) {
    let u = Unpacked::from_bits(src, bits);
    match u.class {
        Class::Zero => (dst.pack(u.sign, 0, 0), Flags::NONE),
        Class::Inf => (dst.pack(u.sign, dst.inf_biased_exp(), 0), Flags::NONE),
        Class::Normal => {
            let sf = src.frac_bits();
            let df = dst.frac_bits();
            if df >= sf {
                // Widening the fraction is exact; only the exponent range
                // can overflow/underflow (e.g. double → a custom format
                // with a tiny exponent field).
                let sig = u.sig << (df - sf);
                pack_with_range_check(dst, u.sign, u.exp, sig, mode, false)
            } else {
                // Narrowing: position the significand with a (sf - df)-bit
                // rounding tail and round.
                let grs = sf - df;
                let rounded = round_sig(dst, u.sig as u128, grs, mode);
                let exp = u.exp + rounded.exp_carry as i32;
                pack_with_range_check(dst, u.sign, exp, rounded.sig, mode, rounded.inexact)
            }
        }
    }
}

/// Decode an IEEE 754 `f64` into format `fmt`.
///
/// NaN inputs map to +∞ with the invalid flag (the cores have no NaN
/// representation); denormal inputs flush to signed zero.
pub fn from_f64(fmt: FpFormat, x: f64) -> (u64, Flags) {
    if x.is_nan() {
        return (fmt.pack(false, fmt.inf_biased_exp(), 0), Flags::invalid());
    }
    convert(FpFormat::DOUBLE, x.to_bits(), fmt, RoundMode::NearestEven)
}

/// Decode an IEEE 754 `f32` into format `fmt`.
pub fn from_f32(fmt: FpFormat, x: f32) -> (u64, Flags) {
    if x.is_nan() {
        return (fmt.pack(false, fmt.inf_biased_exp(), 0), Flags::invalid());
    }
    convert(
        FpFormat::SINGLE,
        x.to_bits() as u64,
        fmt,
        RoundMode::NearestEven,
    )
}

/// Encode a value of format `fmt` as an `f64`.
///
/// Exact for every format whose exponent field is at most 11 bits and
/// fraction at most 52 bits — which includes all three paper precisions.
/// Wider custom exponents saturate to ±∞/±0 like any narrowing conversion.
pub fn to_f64(fmt: FpFormat, bits: u64) -> f64 {
    let (b, _) = convert(fmt, bits, FpFormat::DOUBLE, RoundMode::NearestEven);
    f64::from_bits(b)
}

/// Encode a value of format `fmt` as an `f32` (rounding to nearest).
pub fn to_f32(fmt: FpFormat, bits: u64) -> f32 {
    let (b, _) = convert(fmt, bits, FpFormat::SINGLE, RoundMode::NearestEven);
    f32::from_bits(b as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    const F32: FpFormat = FpFormat::SINGLE;
    const F48: FpFormat = FpFormat::FP48;
    const F64: FpFormat = FpFormat::DOUBLE;

    #[test]
    fn f64_roundtrip_is_exact_for_paper_formats() {
        for &x in &[0.0f64, 1.0, -1.5, std::f64::consts::PI, 1e-30, -1e30] {
            // double → double
            let (b, f) = from_f64(F64, x);
            assert_eq!(f64::from_bits(b), x);
            assert!(!f.any());
        }
    }

    #[test]
    fn widening_is_exact() {
        for &x in &[
            1.0f32,
            -2.5,
            std::f32::consts::PI,
            1e-20,
            1e20,
            f32::MAX,
            f32::MIN_POSITIVE,
        ] {
            let (b48, f) = from_f32(F48, x);
            assert!(!f.any(), "{x}");
            assert_eq!(to_f64(F48, b48), x as f64, "{x}");
        }
    }

    #[test]
    fn convert_equals_the_unpacked_path_for_every_format_pair() {
        let formats = [
            F32,
            F48,
            F64,
            FpFormat::new(5, 10),
            FpFormat::new(8, 30),
            FpFormat::new(11, 23),
        ];
        for src in formats {
            let mut vals = vec![
                0,
                src.pack(true, 0, 0),
                src.pos_inf(),
                src.neg_inf(),
                src.pack(false, src.inf_biased_exp(), 5), // ∞ with payload
                src.pack(true, 0, 3),                     // flushed subnormal
                src.min_positive(),
                src.max_finite() | (1 << src.sign_shift()),
            ];
            let mut s = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..200 {
                s = s.wrapping_mul(0xd129_42e2_96fe_94e3).wrapping_add(17);
                vals.push(s & src.enc_mask());
            }
            for dst in formats {
                let covers = dst.exp_bits() >= src.exp_bits() && dst.frac_bits() >= src.frac_bits();
                for &b in &vals {
                    for mode in [RoundMode::NearestEven, RoundMode::Truncate] {
                        let got = convert(src, b, dst, mode);
                        if covers {
                            assert_eq!(got.1, Flags::NONE, "{src:?} -> {dst:?} {b:#x}");
                        }
                        assert_eq!(
                            got,
                            convert_rounding(src, b, dst, mode),
                            "{src:?} -> {dst:?} {b:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn narrowing_rounds_like_native() {
        for &x in &[
            0.1f64,
            1.0 / 3.0,
            core::f64::consts::PI,
            1e10 + 0.123,
            -9.999999999e-5,
        ] {
            let (b, flags) = convert(F64, x.to_bits(), F32, RoundMode::NearestEven);
            assert_eq!(f32::from_bits(b as u32), x as f32, "{x}");
            assert!(flags.inexact);
        }
    }

    #[test]
    fn narrowing_overflow_saturates() {
        let (b, f) = convert(F64, 1e300f64.to_bits(), F32, RoundMode::NearestEven);
        assert_eq!(f32::from_bits(b as u32), f32::INFINITY);
        assert!(f.overflow);
        let (b, f) = convert(F64, 1e300f64.to_bits(), F32, RoundMode::Truncate);
        assert_eq!(f32::from_bits(b as u32), f32::MAX);
        assert!(f.overflow);
    }

    #[test]
    fn narrowing_underflow_flushes() {
        let (b, f) = convert(F64, 1e-300f64.to_bits(), F32, RoundMode::NearestEven);
        assert_eq!(b, 0);
        assert!(f.underflow);
    }

    #[test]
    fn nan_input_becomes_inf_with_invalid() {
        let (b, f) = from_f64(F32, f64::NAN);
        assert_eq!(b, F32.pos_inf());
        assert!(f.invalid);
    }

    #[test]
    fn denormal_input_flushes_to_signed_zero() {
        let tiny = f64::from_bits(1); // smallest positive denormal
        let (b, _) = from_f64(F64, tiny);
        assert_eq!(b, 0);
        let (b, _) = from_f64(F64, -tiny);
        assert_eq!(b, 1u64 << 63);
    }

    #[test]
    fn specials_convert() {
        let (b, _) = from_f64(F32, f64::INFINITY);
        assert_eq!(b, F32.pos_inf());
        let (b, _) = from_f64(F48, f64::NEG_INFINITY);
        assert_eq!(b, F48.neg_inf());
        assert!(to_f64(F48, F48.pos_inf()).is_infinite());
    }

    #[test]
    fn rounding_carry_in_narrowing() {
        // A double just below 2.0 narrows to exactly 2.0 in single.
        let x = f64::from_bits(0x3fff_ffff_ffff_ffff);
        let (b, _) = convert(F64, x.to_bits(), F32, RoundMode::NearestEven);
        assert_eq!(f32::from_bits(b as u32), 2.0);
    }
}

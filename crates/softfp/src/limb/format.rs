//! Wide floating-point format descriptions.
//!
//! [`crate::FpFormat`] is capped at 64 encoded bits so every value rides
//! in a `u64`; [`LimbFormat`] lifts that cap. A wide value is stored as
//! `ceil(total_bits/64)` little-endian `u64` limbs with the same
//! sign/exponent/fraction layout (sign at bit `total_bits − 1`, biased
//! exponent below it, fraction in the low bits); bits at and above
//! `total_bits` in the top limb must be zero. Every ≤64-bit `FpFormat`
//! embeds as a one-limb `LimbFormat`, and the limb kernels reduce
//! bit-identically to the scalar `ieee_*` path on those.

use crate::format::FpFormat;
use crate::limb::big::Big;
use core::fmt;

/// A parameterized floating-point format without the 64-bit packing cap.
///
/// Invariants (checked by [`LimbFormat::new`]):
/// * `2 <= exp_bits <= 24`
/// * `2 <= frac_bits <= 4096`
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LimbFormat {
    exp_bits: u32,
    frac_bits: u32,
}

impl LimbFormat {
    /// IEEE 754 quadruple precision layout (1 + 15 + 112).
    pub const F128: LimbFormat = LimbFormat {
        exp_bits: 15,
        frac_bits: 112,
    };
    /// IEEE 754 octuple precision layout (1 + 19 + 236).
    pub const F256: LimbFormat = LimbFormat {
        exp_bits: 19,
        frac_bits: 236,
    };

    /// Create a custom wide format.
    ///
    /// # Panics
    /// Panics if the field widths violate the invariants listed on the
    /// type.
    pub const fn new(exp_bits: u32, frac_bits: u32) -> LimbFormat {
        assert!(
            exp_bits >= 2 && exp_bits <= 24,
            "exponent width out of range"
        );
        assert!(
            frac_bits >= 2 && frac_bits <= 4096,
            "fraction width out of range"
        );
        LimbFormat {
            exp_bits,
            frac_bits,
        }
    }

    /// Checked constructor for use with untrusted widths.
    pub fn try_new(exp_bits: u32, frac_bits: u32) -> Option<LimbFormat> {
        if (2..=24).contains(&exp_bits) && (2..=4096).contains(&frac_bits) {
            Some(LimbFormat {
                exp_bits,
                frac_bits,
            })
        } else {
            None
        }
    }

    /// Embed a ≤64-bit scalar format (same field widths, one limb).
    pub const fn from_fp(fmt: FpFormat) -> LimbFormat {
        LimbFormat {
            exp_bits: fmt.exp_bits(),
            frac_bits: fmt.frac_bits(),
        }
    }

    /// The scalar format with the same field widths, when one exists
    /// (total width ≤ 64 bits).
    pub fn to_fp(self) -> Option<FpFormat> {
        FpFormat::try_new(self.exp_bits, self.frac_bits)
    }

    /// Width of the biased exponent field in bits.
    #[inline]
    pub const fn exp_bits(self) -> u32 {
        self.exp_bits
    }

    /// Width of the stored fraction field in bits.
    #[inline]
    pub const fn frac_bits(self) -> u32 {
        self.frac_bits
    }

    /// Total encoding width: `1 + exp_bits + frac_bits`.
    #[inline]
    pub const fn total_bits(self) -> u32 {
        1 + self.exp_bits + self.frac_bits
    }

    /// Width of the significand with the hidden bit made explicit.
    #[inline]
    pub const fn sig_bits(self) -> u32 {
        self.frac_bits + 1
    }

    /// Number of `u64` limbs in an encoding: `ceil(total_bits / 64)`.
    #[inline]
    pub const fn limbs(self) -> usize {
        self.total_bits().div_ceil(64) as usize
    }

    /// Exponent bias (`2^(exp_bits-1) − 1`).
    #[inline]
    pub const fn bias(self) -> i64 {
        (1i64 << (self.exp_bits - 1)) - 1
    }

    /// Largest biased exponent of a *normal* number (all-ones minus one).
    #[inline]
    pub const fn max_biased_exp(self) -> u64 {
        (1u64 << self.exp_bits) - 2
    }

    /// The all-ones biased exponent (infinities and NaNs).
    #[inline]
    pub const fn inf_biased_exp(self) -> u64 {
        (1u64 << self.exp_bits) - 1
    }

    /// Minimum (most negative) unbiased exponent of a normal number.
    #[inline]
    pub const fn min_exp(self) -> i64 {
        1 - self.bias()
    }

    /// Maximum unbiased exponent of a normal number.
    #[inline]
    pub const fn max_exp(self) -> i64 {
        self.max_biased_exp() as i64 - self.bias()
    }

    /// Encoding of +0 (all limbs zero).
    pub fn zero(self) -> Vec<u64> {
        vec![0; self.limbs()]
    }

    /// Encoding of +infinity.
    pub fn pos_inf(self) -> Vec<u64> {
        self.pack(false, self.inf_biased_exp(), &Big::zero())
    }

    /// Encoding of −infinity.
    pub fn neg_inf(self) -> Vec<u64> {
        self.pack(true, self.inf_biased_exp(), &Big::zero())
    }

    /// Encoding of the largest finite positive number.
    pub fn max_finite(self) -> Vec<u64> {
        let ones = Big::from_u64(1)
            .shl(self.frac_bits as u64)
            .sub(&Big::from_u64(1));
        self.pack(false, self.max_biased_exp(), &ones)
    }

    /// Encoding of the smallest positive normal number.
    pub fn min_positive(self) -> Vec<u64> {
        self.pack(false, 1, &Big::zero())
    }

    /// Encoding of the smallest positive denormal (fraction LSB).
    pub fn min_denormal(self) -> Vec<u64> {
        self.pack(false, 0, &Big::from_u64(1))
    }

    /// The format's canonical quiet NaN (positive, fraction MSB set).
    pub fn quiet_nan(self) -> Vec<u64> {
        let qbit = Big::from_u64(1).shl(self.frac_bits as u64 - 1);
        self.pack(false, self.inf_biased_exp(), &qbit)
    }

    /// Assemble an encoding from raw fields. The fraction must fit in
    /// `frac_bits` (debug-checked); the exponent is masked to width.
    pub(crate) fn pack(self, sign: bool, biased_exp: u64, frac: &Big) -> Vec<u64> {
        debug_assert!(frac.bit_len() <= self.frac_bits as u64, "fraction too wide");
        let mut out = frac.to_limbs_fixed(self.limbs());
        // The exponent field starts at bit `frac_bits` and may straddle
        // two limbs.
        let exp = biased_exp & ((1u64 << self.exp_bits) - 1);
        let (limb, shift) = ((self.frac_bits / 64) as usize, self.frac_bits % 64);
        out[limb] |= exp << shift;
        if shift != 0 && exp >> (64 - shift) != 0 {
            out[limb + 1] |= exp >> (64 - shift);
        }
        let top = self.total_bits() - 1;
        out[(top / 64) as usize] |= (sign as u64) << (top % 64);
        out
    }

    /// Split an encoding into `(sign, biased_exp, frac)`.
    pub(crate) fn unpack_fields(self, bits: &[u64]) -> (bool, u64, Big) {
        debug_assert_eq!(bits.len(), self.limbs(), "wrong limb count");
        let top = self.total_bits() - 1;
        let sign = bits[(top / 64) as usize] >> (top % 64) & 1 == 1;
        // The exponent field starts at bit `frac_bits` and may straddle
        // two limbs.
        let (limb, shift) = ((self.frac_bits / 64) as usize, self.frac_bits % 64);
        let mut field = bits[limb] >> shift;
        if shift != 0 && limb + 1 < bits.len() {
            field |= bits[limb + 1] << (64 - shift);
        }
        let biased = field & ((1u64 << self.exp_bits) - 1);
        (sign, biased, Big::low_bits(bits, self.frac_bits as u64))
    }

    /// Assemble an encoding from raw fields with the fraction as
    /// little-endian limbs (public mirror of the internal `pack`; the
    /// fraction is masked to `frac_bits`, the exponent to `exp_bits`).
    pub fn pack_parts(self, sign: bool, biased_exp: u64, frac: &[u64]) -> Vec<u64> {
        let frac = Big::from_limbs(frac).mask_low(self.frac_bits as u64);
        self.pack(sign, biased_exp, &frac)
    }

    /// Split an encoding into `(sign, biased_exp, frac)` with the
    /// fraction as exactly `limbs()` little-endian limbs.
    pub fn unpack_parts(self, bits: &[u64]) -> (bool, u64, Vec<u64>) {
        let (sign, biased, frac) = self.unpack_fields(bits);
        (sign, biased, frac.to_limbs_fixed(self.limbs()))
    }

    /// True when `bits` has the right limb count and no stray bits at or
    /// above `total_bits` — the validity check the serving layer applies
    /// to untrusted payloads.
    pub fn is_canonical(self, bits: &[u64]) -> bool {
        bits.len() == self.limbs() && Big::from_limbs(bits).bit_len() <= self.total_bits() as u64
    }

    /// The canonical flag/config token for this format: `"f128"`,
    /// `"f256"`, or `"e<exp_bits>f<frac_bits>"`. Round-trips through
    /// [`LimbFormat::from_str`](core::str::FromStr).
    pub fn canonical_name(self) -> String {
        match self {
            LimbFormat::F128 => "f128".to_string(),
            LimbFormat::F256 => "f256".to_string(),
            other => format!("e{}f{}", other.exp_bits, other.frac_bits),
        }
    }
}

/// Error returned when a wide-format token fails to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseLimbFormatError {
    token: String,
}

impl ParseLimbFormatError {
    /// The token that failed to parse.
    pub fn token(&self) -> &str {
        &self.token
    }
}

impl fmt::Display for ParseLimbFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown wide format {:?} (expected f128, f256 or e<exp>f<frac> within \
             2..=24 exponent and 2..=4096 fraction bits)",
            self.token
        )
    }
}

impl std::error::Error for ParseLimbFormatError {}

impl core::str::FromStr for LimbFormat {
    type Err = ParseLimbFormatError;

    /// Parse the canonical token grammar emitted by
    /// [`LimbFormat::canonical_name`], plus the scalar shorthands
    /// (`"f32"`, `"f48"`, `"f64"`) as their one-limb embeddings.
    fn from_str(s: &str) -> Result<LimbFormat, ParseLimbFormatError> {
        let err = || ParseLimbFormatError {
            token: s.to_string(),
        };
        match s {
            "f128" => Ok(LimbFormat::F128),
            "f256" => Ok(LimbFormat::F256),
            _ => {
                if let Ok(fp) = s.parse::<FpFormat>() {
                    return Ok(LimbFormat::from_fp(fp));
                }
                let rest = s.strip_prefix('e').ok_or_else(err)?;
                let (e, f) = rest.split_once('f').ok_or_else(err)?;
                let exp: u32 = e.parse().map_err(|_| err())?;
                let frac: u32 = f.parse().map_err(|_| err())?;
                LimbFormat::try_new(exp, frac).ok_or_else(err)
            }
        }
    }
}

impl fmt::Debug for LimbFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LimbFormat({}-bit: 1+{}+{}, {} limbs)",
            self.total_bits(),
            self.exp_bits,
            self.frac_bits,
            self.limbs()
        )
    }
}

impl fmt::Display for LimbFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.total_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f128_matches_ieee754_quad() {
        let f = LimbFormat::F128;
        assert_eq!(f.total_bits(), 128);
        assert_eq!(f.limbs(), 2);
        assert_eq!(f.bias(), 16383);
        assert_eq!(f.min_exp(), -16382);
        assert_eq!(f.max_exp(), 16383);
        assert_eq!(f.pos_inf(), vec![0, 0x7fff_0000_0000_0000]);
        assert_eq!(f.max_finite(), vec![u64::MAX, 0x7ffe_ffff_ffff_ffff]);
        assert_eq!(f.quiet_nan(), vec![0, 0x7fff_8000_0000_0000]);
    }

    #[test]
    fn f256_matches_ieee754_octuple() {
        let f = LimbFormat::F256;
        assert_eq!(f.total_bits(), 256);
        assert_eq!(f.limbs(), 4);
        assert_eq!(f.bias(), 262143);
        assert_eq!(f.sig_bits(), 237);
    }

    #[test]
    fn pack_unpack_roundtrip_wide() {
        let f = LimbFormat::F128;
        let frac = Big::from_limbs(&[0x1234_5678_9abc_def0, 0xffff_8765_4321]);
        let bits = f.pack(true, 0x3fff, &frac);
        let (s, e, m) = f.unpack_fields(&bits);
        assert!(s);
        assert_eq!(e, 0x3fff);
        assert_eq!(m, frac);
    }

    #[test]
    fn narrow_embedding_matches_scalar_fields() {
        for fp in [FpFormat::SINGLE, FpFormat::FP48, FpFormat::DOUBLE] {
            let lf = LimbFormat::from_fp(fp);
            assert_eq!(lf.limbs(), 1);
            assert_eq!(lf.to_fp(), Some(fp));
            assert_eq!(lf.bias(), fp.bias() as i64);
            assert_eq!(lf.min_exp(), fp.min_exp() as i64);
            assert_eq!(lf.max_exp(), fp.max_exp() as i64);
            assert_eq!(lf.pos_inf(), vec![fp.pos_inf()]);
            assert_eq!(lf.max_finite(), vec![fp.max_finite()]);
            let bits = 0x3f80_1234u64 & fp.enc_mask();
            let (s, e, m) = lf.unpack_fields(&[bits]);
            let (s2, e2, m2) = fp.unpack_fields(bits);
            assert_eq!((s, e, m.low_u64()), (s2, e2, m2));
        }
    }

    #[test]
    fn canonical_name_round_trips() {
        for fmt in [
            LimbFormat::F128,
            LimbFormat::F256,
            LimbFormat::new(20, 1000),
            LimbFormat::new(5, 11),
        ] {
            let token = fmt.canonical_name();
            assert_eq!(token.parse::<LimbFormat>().unwrap(), fmt, "token {token}");
        }
        assert_eq!(LimbFormat::F128.canonical_name(), "f128");
        assert_eq!(LimbFormat::F256.canonical_name(), "f256");
        // Scalar shorthands embed as one-limb formats.
        assert_eq!(
            "f64".parse::<LimbFormat>().unwrap(),
            LimbFormat::from_fp(FpFormat::DOUBLE)
        );
    }

    #[test]
    fn parse_rejects_bad_tokens() {
        for bad in ["", "f", "f127", "e25f100", "e8f5000", "e8", "x128"] {
            let e = bad.parse::<LimbFormat>().unwrap_err();
            assert_eq!(e.token(), bad);
        }
    }

    #[test]
    fn is_canonical_checks_width_and_stray_bits() {
        let f = LimbFormat::F128;
        assert!(f.is_canonical(&[0, 0]));
        assert!(f.is_canonical(&f.max_finite()));
        assert!(!f.is_canonical(&[0]));
        assert!(!f.is_canonical(&[0, 0, 0]));
        // A 100-bit format leaves headroom in the top limb.
        let g = LimbFormat::new(15, 84);
        assert_eq!(g.total_bits(), 100);
        assert!(g.is_canonical(&[0, 1 << 35]));
        assert!(!g.is_canonical(&[0, 1 << 36]));
    }
}

//! Fixed-purpose multi-limb unsigned integers for the wide-mantissa
//! datapath.
//!
//! `Big` is a little-endian sequence of `u64` limbs with value semantics —
//! just enough arithmetic for the limb kernels (schoolbook multiply,
//! boundary-safe shifts with sticky collapse, compare/add/subtract) and
//! nothing more. It is deliberately not a general bignum library: no
//! signs, no division. The serving-layer kernels wrap it; the `BigFloat`
//! oracle reuses it so the two sides share only *integer* arithmetic,
//! never rounding decisions.
//!
//! Values of up to [`INLINE`] limbs live inside the struct, so the limb
//! kernels never allocate for an intermediate: F256's widest, the fma's
//! 8-limb aligned sum plus a carry limb, fits with a limb to spare. Wider
//! values (the oracle's exact sums and products) spill to the heap. Every
//! operation writes its result straight into the inline buffer when it
//! fits, and into a heap buffer only when it does not.
//!
//! Invariant: the limbs never end in a zero limb (zero has none), so
//! `bit_len` and comparisons are O(1) at the top; an inline value keeps
//! the buffer above its top limb zero and its heap part empty, so each
//! value has one representation and the derived equality is exact.

/// Limbs a [`Big`] holds without allocating.
pub const INLINE: usize = 10;

/// Little-endian multi-limb unsigned integer.
#[derive(Clone, PartialEq, Eq)]
pub struct Big {
    /// Limb count; the limbs are `inline[..len]` up to [`INLINE`], else
    /// `heap`.
    len: usize,
    inline: [u64; INLINE],
    heap: Vec<u64>,
}

impl core::fmt::Debug for Big {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Big").field("limbs", &self.limbs()).finish()
    }
}

/// Length of `limbs` without its trailing zero limbs.
fn trimmed(limbs: &[u64]) -> usize {
    limbs.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1)
}

impl Big {
    /// The value 0 (no limbs).
    pub fn zero() -> Big {
        Big {
            len: 0,
            inline: [0; INLINE],
            heap: Vec::new(),
        }
    }

    /// The value whose `n` little-endian limbs `fill` writes into a zeroed
    /// buffer: a stack buffer up to [`INLINE`] limbs, else a heap one.
    #[inline(always)]
    fn build(n: usize, fill: impl FnOnce(&mut [u64])) -> Big {
        let mut out = Big::zero();
        if n <= INLINE {
            fill(&mut out.inline[..n]);
            out.len = trimmed(&out.inline[..n]);
            return out;
        }
        let mut v = vec![0u64; n];
        fill(&mut v);
        out.len = trimmed(&v);
        if out.len <= INLINE {
            out.inline[..out.len].copy_from_slice(&v[..out.len]);
        } else {
            v.truncate(out.len);
            out.heap = v;
        }
        out
    }

    /// The limbs, least significant first, without trailing zeros.
    #[inline(always)]
    fn limbs(&self) -> &[u64] {
        if self.len <= INLINE {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }

    /// A single-limb value.
    pub fn from_u64(x: u64) -> Big {
        Big::build(1, |out| out[0] = x)
    }

    /// From little-endian limbs (trailing zero limbs trimmed).
    pub fn from_limbs(limbs: &[u64]) -> Big {
        let n = trimmed(limbs);
        Big::build(n, |out| out.copy_from_slice(&limbs[..n]))
    }

    /// The low `n` bits of little-endian `limbs` as a value:
    /// `from_limbs(limbs).mask_low(n)` without the intermediate.
    pub fn low_bits(limbs: &[u64], n: u64) -> Big {
        let full = ((n / 64) as usize).min(limbs.len());
        let rem = n % 64;
        let partial = rem != 0 && full < limbs.len();
        Big::build(full + partial as usize, |out| {
            out[..full].copy_from_slice(&limbs[..full]);
            if partial {
                out[full] = limbs[full] & ((1u64 << rem) - 1);
            }
        })
    }

    /// Little-endian limbs, zero-padded or trimmed to exactly `n` limbs.
    /// The value must fit (checked by debug assertion).
    pub fn to_limbs_fixed(&self, n: usize) -> Vec<u64> {
        debug_assert!(self.len <= n, "value wider than {n} limbs");
        let mut v = vec![0u64; n];
        v[..self.len].copy_from_slice(self.limbs());
        v
    }

    /// True for the value 0.
    pub fn is_zero(&self) -> bool {
        self.len == 0
    }

    /// Position of the most significant set bit plus one (0 for zero) —
    /// the multi-limb `lzcnt` complement the normalizer uses.
    pub fn bit_len(&self) -> u64 {
        match self.limbs().last() {
            None => 0,
            Some(&top) => (self.len as u64) * 64 - top.leading_zeros() as u64,
        }
    }

    /// Bit `i` (false beyond the top).
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / 64) as usize;
        match self.limbs().get(limb) {
            Some(&w) => w >> (i % 64) & 1 == 1,
            None => false,
        }
    }

    /// True if any bit strictly below position `n` is set.
    pub fn low_bits_any(&self, n: u64) -> bool {
        let limbs = self.limbs();
        let full = (n / 64) as usize;
        let rem = n % 64;
        if limbs.iter().take(full).any(|&w| w != 0) {
            return true;
        }
        rem != 0
            && limbs
                .get(full)
                .is_some_and(|&w| w & ((1u64 << rem) - 1) != 0)
    }

    /// True when bit 0 is set.
    pub fn is_odd(&self) -> bool {
        self.limbs().first().is_some_and(|&w| w & 1 == 1)
    }

    /// Low 64 bits (0 for zero).
    pub fn low_u64(&self) -> u64 {
        self.limbs().first().copied().unwrap_or(0)
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: u64) -> Big {
        if self.is_zero() || n == 0 {
            return self.clone();
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = (n % 64) as u32;
        let src = self.limbs();
        Big::build(src.len() + limb_shift + 1, |out| {
            for (i, &w) in src.iter().enumerate() {
                out[i + limb_shift] |= w << bit_shift;
                if bit_shift != 0 {
                    out[i + limb_shift + 1] |= w >> (64 - bit_shift);
                }
            }
        })
    }

    /// Right shift by `n` bits, ORing every shifted-out bit into a sticky
    /// flag — the multi-limb mirror of
    /// [`crate::round::shift_right_sticky`]. Shift counts at or beyond
    /// the value's width return `(0, self != 0)`; `n` is a `u64` so even
    /// exponent-difference shifts near `2^32` cannot wrap.
    pub fn shr_sticky(&self, n: u64) -> (Big, bool) {
        if n == 0 {
            return (self.clone(), false);
        }
        if n >= self.bit_len() {
            return (Big::zero(), !self.is_zero());
        }
        let src = self.limbs();
        let limb_shift = (n / 64) as usize;
        let bit_shift = (n % 64) as u32;
        let mut sticky = src[..limb_shift].iter().any(|&w| w != 0);
        if bit_shift != 0 {
            sticky |= src[limb_shift] & ((1u64 << bit_shift) - 1) != 0;
        }
        let shifted = Big::build(src.len() - limb_shift, |out| {
            for (i, o) in out.iter_mut().enumerate() {
                let j = i + limb_shift;
                *o = src[j] >> bit_shift;
                if bit_shift != 0 && j + 1 < src.len() {
                    *o |= src[j + 1] << (64 - bit_shift);
                }
            }
        });
        (shifted, sticky)
    }

    /// The low `n` bits as a value (the guard/round/sticky tail).
    pub fn mask_low(&self, n: u64) -> Big {
        Big::low_bits(self.limbs(), n)
    }

    /// Set bit 0 when `jam` is true (the sticky jam of the alignment
    /// shifter).
    pub fn jam(&self, jam: bool) -> Big {
        if !jam {
            return self.clone();
        }
        let src = self.limbs();
        Big::build(src.len().max(1), |out| {
            out[..src.len()].copy_from_slice(src);
            out[0] |= 1;
        })
    }

    /// `self + other`.
    pub fn add(&self, other: &Big) -> Big {
        if self.len < INLINE && other.len < INLINE {
            // Both inline, zero above their tops: add the whole buffers.
            let mut out = Big::zero();
            let mut carry = false;
            for ((o, &x), &y) in out.inline.iter_mut().zip(&self.inline).zip(&other.inline) {
                let (s1, c1) = x.overflowing_add(y);
                let (s2, c2) = s1.overflowing_add(carry as u64);
                (*o, carry) = (s2, c1 | c2);
            }
            out.len = trimmed(&out.inline);
            return out;
        }
        let (a, b) = (self.limbs(), other.limbs());
        let n = a.len().max(b.len());
        Big::build(n + 1, |out| {
            let mut carry = 0u64;
            for (i, o) in out[..n].iter_mut().enumerate() {
                let x = a.get(i).copied().unwrap_or(0);
                let y = b.get(i).copied().unwrap_or(0);
                let (s1, c1) = x.overflowing_add(y);
                let (s2, c2) = s1.overflowing_add(carry);
                *o = s2;
                carry = (c1 as u64) + (c2 as u64);
            }
            out[n] = carry;
        })
    }

    /// `self + small`.
    pub fn add_u64(&self, small: u64) -> Big {
        self.add(&Big::from_u64(small))
    }

    /// `self − other`; requires `self ≥ other` (checked by debug
    /// assertion, mirroring the adder's swap contract).
    pub fn sub(&self, other: &Big) -> Big {
        debug_assert!(
            self.cmp(other) != core::cmp::Ordering::Less,
            "sub underflow"
        );
        let (a, b) = (self.limbs(), other.limbs());
        Big::build(a.len(), |out| {
            let mut borrow = 0u64;
            for (i, o) in out.iter_mut().enumerate() {
                let (d1, b1) = a[i].overflowing_sub(b.get(i).copied().unwrap_or(0));
                let (d2, b2) = d1.overflowing_sub(borrow);
                *o = d2;
                borrow = (b1 as u64) + (b2 as u64);
            }
        })
    }

    /// Schoolbook limb product — each `u64 × u64` partial product lands
    /// in a `u128` accumulator column, exactly the BMULT partial-product
    /// array the fabric model prices.
    pub fn mul(&self, other: &Big) -> Big {
        if self.is_zero() || other.is_zero() {
            return Big::zero();
        }
        let (x, y) = (self.limbs(), other.limbs());
        Big::build(x.len() + y.len(), |out| {
            for (i, &a) in x.iter().enumerate() {
                let mut carry = 0u128;
                for (j, &b) in y.iter().enumerate() {
                    let acc = out[i + j] as u128 + a as u128 * b as u128 + carry;
                    out[i + j] = acc as u64;
                    carry = acc >> 64;
                }
                let mut k = i + y.len();
                while carry != 0 {
                    let acc = out[k] as u128 + carry;
                    out[k] = acc as u64;
                    carry = acc >> 64;
                    k += 1;
                }
            }
        })
    }

    /// Bitwise OR.
    pub fn or(&self, other: &Big) -> Big {
        if self.len <= INLINE && other.len <= INLINE {
            // Both inline, zero above their tops: OR the whole buffers.
            let mut out = Big::zero();
            for ((o, &x), &y) in out.inline.iter_mut().zip(&self.inline).zip(&other.inline) {
                *o = x | y;
            }
            out.len = self.len.max(other.len);
            return out;
        }
        let (a, b) = (self.limbs(), other.limbs());
        Big::build(a.len().max(b.len()), |out| {
            for (i, o) in out.iter_mut().enumerate() {
                *o = a.get(i).copied().unwrap_or(0) | b.get(i).copied().unwrap_or(0);
            }
        })
    }
}

impl Ord for Big {
    /// Magnitude comparison; the trimmed-limbs invariant makes the
    /// length compare decisive before any limb is inspected.
    fn cmp(&self, other: &Big) -> core::cmp::Ordering {
        self.len
            .cmp(&other.len)
            .then_with(|| self.limbs().iter().rev().cmp(other.limbs().iter().rev()))
    }
}

impl PartialOrd for Big {
    fn partial_cmp(&self, other: &Big) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_empty_and_bit_len_zero() {
        assert!(Big::zero().is_zero());
        assert_eq!(Big::zero().bit_len(), 0);
        assert_eq!(Big::from_limbs(&[0, 0, 0]), Big::zero());
    }

    #[test]
    fn bit_len_counts_across_limbs() {
        assert_eq!(Big::from_u64(1).bit_len(), 1);
        assert_eq!(Big::from_u64(u64::MAX).bit_len(), 64);
        assert_eq!(Big::from_limbs(&[0, 1]).bit_len(), 65);
        assert_eq!(Big::from_limbs(&[u64::MAX, 1 << 10]).bit_len(), 75);
    }

    #[test]
    fn shl_crosses_limb_boundaries() {
        let x = Big::from_u64(0b1011);
        assert_eq!(x.shl(62).to_limbs_fixed(2), vec![0b11 << 62, 0b10]);
        assert_eq!(x.shl(64).to_limbs_fixed(2), vec![0, 0b1011]);
        assert_eq!(x.shl(0), x);
    }

    #[test]
    fn mul_matches_u128() {
        let cases = [
            (0x1234_5678_9abc_def0u64, 0xfedc_ba98_7654_3210u64),
            (u64::MAX, u64::MAX),
            (1, u64::MAX),
            (0, 12345),
        ];
        for (a, b) in cases {
            let p = a as u128 * b as u128;
            let got = Big::from_u64(a).mul(&Big::from_u64(b));
            assert_eq!(got.to_limbs_fixed(2), vec![p as u64, (p >> 64) as u64]);
        }
    }

    #[test]
    fn add_sub_roundtrip_with_carries() {
        let a = Big::from_limbs(&[u64::MAX, u64::MAX, 1]);
        let b = Big::from_limbs(&[1, u64::MAX]);
        let s = a.add(&b);
        assert_eq!(s.sub(&b), a);
        assert_eq!(s.sub(&a), b);
        assert_eq!(Big::from_u64(u64::MAX).add_u64(1), Big::from_limbs(&[0, 1]));
    }

    #[test]
    fn wide_values_spill_to_the_heap_and_come_back() {
        let wide = Big::from_u64(3).shl(64 * INLINE as u64 + 5);
        assert_eq!(wide.bit_len(), 64 * INLINE as u64 + 7);
        let sq = wide.mul(&wide);
        assert_eq!(sq.bit_len(), 2 * (64 * INLINE as u64 + 5) + 4);
        let (back, lost) = sq.shr_sticky(2 * (64 * INLINE as u64 + 5));
        assert_eq!((back, lost), (Big::from_u64(9), false));
        assert_eq!(wide.sub(&wide.mask_low(64)), wide);
        assert_eq!(wide.add_u64(1).mask_low(64), Big::from_u64(1));
    }

    #[test]
    fn mask_and_low_bits() {
        let x = Big::from_limbs(&[0xff00, 0b101]);
        assert!(x.low_bits_any(9));
        assert!(!x.low_bits_any(8));
        assert_eq!(x.mask_low(16), Big::from_u64(0xff00));
        assert_eq!(x.mask_low(65), Big::from_limbs(&[0xff00, 1]));
        assert!(x.bit(64) && !x.bit(65) && x.bit(66));
        assert!(!x.bit(1000));
    }
}

//! Property tests: every SIMD batch engine must be bit-identical to the
//! generic `unpacked` dispatchers — result encodings *and* exception
//! flags — at special-operand densities of 0%, ~5%, 50%, 75% and 100%, on
//! the paper's three precisions. The suite pins the engine by value
//! through the `fastpath::*_bits_batch_with` entry points — `Scalar` runs
//! the portable word through the same drivers. An exhaustive class grid
//! then puts every operand-class combination in every lane position of
//! full chunks and of padded tails, so each engine's in-register special
//! blend is checked lane by lane.

use fpfpga_softfp::{
    add_bits, fma_bits, mul_bits, sub_bits, Flags, FpFormat, RoundMode, SimdEngine,
};
use fpfpga_softfp::{fastpath, ops};
use proptest::prelude::*;

const FORMATS: [FpFormat; 3] = FpFormat::PAPER_PRECISIONS;

fn any_fmt() -> impl Strategy<Value = FpFormat> {
    prop_oneof![Just(FORMATS[0]), Just(FORMATS[1]), Just(FORMATS[2])]
}

fn any_mode() -> impl Strategy<Value = RoundMode> {
    prop_oneof![Just(RoundMode::NearestEven), Just(RoundMode::Truncate)]
}

/// Turn a raw draw into an operand with the requested percentage of
/// special encodings (`sel` is an independent uniform draw). Specials
/// cycle through zero, denormal-pattern, and all-ones-exponent
/// encodings; normals fold the exponent into the normal range.
fn encode(fmt: FpFormat, raw: u64, sel: u16, density_pct: u16) -> u64 {
    if u64::from(sel % 100) < u64::from(density_pct) {
        let (sign, _, frac) = fmt.unpack_fields(raw);
        match sel / 100 % 3 {
            0 => fmt.pack(sign, 0, 0),                       // signed zero
            1 => fmt.pack(sign, 0, frac | 1),                // denormal pattern
            _ => fmt.pack(sign, fmt.inf_biased_exp(), frac), // inf/NaN pattern
        }
    } else {
        let (sign, exp, frac) = fmt.unpack_fields(raw);
        let norm = 1 + exp % fmt.max_biased_exp();
        fmt.pack(sign, norm, frac)
    }
}

type RawBatch = Vec<(u64, u64, u64, u16)>;

fn raw_batch() -> impl Strategy<Value = RawBatch> {
    proptest::collection::vec(
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u16>()),
        0..80,
    )
}

/// Check one (engine, density) cell for every binary op plus fma:
/// the batch output must equal the generic scalar dispatchers,
/// element for element, in original input order.
fn check_density(fmt: FpFormat, mode: RoundMode, raw: &RawBatch, density_pct: u16) {
    let a: Vec<u64> = raw
        .iter()
        .map(|&(x, _, _, s)| encode(fmt, x, s, density_pct))
        .collect();
    let b: Vec<u64> = raw
        .iter()
        .map(|&(_, y, _, s)| encode(fmt, y, s.wrapping_add(7), density_pct))
        .collect();
    let c: Vec<u64> = raw
        .iter()
        .map(|&(_, _, z, s)| encode(fmt, z, s.wrapping_add(31), density_pct))
        .collect();

    let want_add: Vec<(u64, Flags)> = (0..a.len())
        .map(|i| add_bits(fmt, a[i], b[i], mode))
        .collect();
    let want_sub: Vec<(u64, Flags)> = (0..a.len())
        .map(|i| sub_bits(fmt, a[i], b[i], mode))
        .collect();
    let want_mul: Vec<(u64, Flags)> = (0..a.len())
        .map(|i| mul_bits(fmt, a[i], b[i], mode))
        .collect();
    let want_fma: Vec<(u64, Flags)> = (0..a.len())
        .map(|i| fma_bits(fmt, a[i], b[i], c[i], mode))
        .collect();

    for eng in SimdEngine::available() {
        let mut out = Vec::new();
        fastpath::add_bits_batch_with(eng, fmt, &a, &b, mode, &mut out);
        assert_eq!(out, want_add, "{eng:?} add {fmt:?} {density_pct}%");
        out.clear();
        fastpath::sub_bits_batch_with(eng, fmt, &a, &b, mode, &mut out);
        assert_eq!(out, want_sub, "{eng:?} sub {fmt:?} {density_pct}%");
        out.clear();
        fastpath::mul_bits_batch_with(eng, fmt, &a, &b, mode, &mut out);
        assert_eq!(out, want_mul, "{eng:?} mul {fmt:?} {density_pct}%");
        out.clear();
        fastpath::fma_bits_batch_with(eng, fmt, &a, &b, &c, mode, &mut out);
        assert_eq!(out, want_fma, "{eng:?} fma {fmt:?} {density_pct}%");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// 0% specials: the pure vector datapath, no special blend.
    #[test]
    fn all_normal_batches_match_generic(fmt in any_fmt(), mode in any_mode(),
                                        raw in raw_batch()) {
        check_density(fmt, mode, &raw, 0);
    }

    /// ~5% specials: mostly-normal chunks with a scattered special lane —
    /// the blend must land each special result in its own lane.
    #[test]
    fn sparse_special_batches_match_generic(fmt in any_fmt(), mode in any_mode(),
                                            raw in raw_batch()) {
        check_density(fmt, mode, &raw, 5);
    }

    /// 50% specials: nearly every chunk mixes normal and special lanes.
    #[test]
    fn half_special_batches_match_generic(fmt in any_fmt(), mode in any_mode(),
                                          raw in raw_batch()) {
        check_density(fmt, mode, &raw, 50);
    }

    /// 75% specials per operand: the benchmark's `batch_special` density
    /// (~94% of add/mul lanes and ~98% of fma lanes have a special operand).
    #[test]
    fn dense_special_batches_match_generic(fmt in any_fmt(), mode in any_mode(),
                                           raw in raw_batch()) {
        check_density(fmt, mode, &raw, 75);
    }

    /// 100% specials: every lane's result comes from the special rules;
    /// the datapath contributes nothing but must not leak into any lane.
    #[test]
    fn all_special_batches_match_generic(fmt in any_fmt(), mode in any_mode(),
                                         raw in raw_batch()) {
        check_density(fmt, mode, &raw, 100);
    }

    /// Engines also agree on arbitrary *raw* encodings (whatever mix of
    /// normal/special that implies).
    #[test]
    fn raw_encodings_match_generic(fmt in any_fmt(), mode in any_mode(),
                                   raw in raw_batch()) {
        let a: Vec<u64> = raw.iter().map(|&(x, ..)| x & fmt.enc_mask()).collect();
        let b: Vec<u64> = raw.iter().map(|&(_, y, ..)| y & fmt.enc_mask()).collect();
        for eng in SimdEngine::available() {
            let mut out = Vec::new();
            fastpath::add_bits_batch_with(eng, fmt, &a, &b, mode, &mut out);
            for i in 0..a.len() {
                prop_assert_eq!(out[i], add_bits(fmt, a[i], b[i], mode),
                                "{:?} add lane {}", eng, i);
            }
        }
    }
}

/// One operand of each class the special rules distinguish, both signs:
/// ±0, ±subnormal pattern, ±∞, ±∞ with a fraction payload, ±min-normal,
/// ±max-finite and ±1.0.
fn class_values(fmt: FpFormat) -> Vec<u64> {
    let one = fmt.pack(false, fmt.bias() as u64, 0);
    let pos = [
        0,
        fmt.pack(false, 0, fmt.frac_mask() >> 1 | 1),
        fmt.pos_inf(),
        fmt.pack(false, fmt.inf_biased_exp(), 1 << (fmt.frac_bits() - 1) | 5),
        fmt.min_positive(),
        fmt.max_finite(),
        one,
    ];
    let sign = 1u64 << fmt.sign_shift();
    pos.iter().flat_map(|&x| [x, x | sign]).collect()
}

/// Normal products a·b that overflow, underflow, round inexactly, or land
/// exactly — fma with c = ±0 must return `mul(a, b)`, flags included —
/// plus products at the range edges of [`edge_products`]: one that
/// flushes, the round-ups to the smallest normal and to overflow, and for
/// f48/f64 one whose unscaled TwoProd error would underflow binary64.
fn product_cases(fmt: FpFormat) -> Vec<(u64, u64)> {
    let one = fmt.bias() as u64;
    let near_one = fmt.pack(false, one, 1); // 1 + ulp: its square rounds
    let two = fmt.pack(false, one + 1, 0);
    let half = fmt.pack(false, one - 1, 0);
    let third = fmt.pack(true, one - 2, fmt.frac_mask() / 3);
    let (f, emin, emax) = (fmt.frac_bits() as i32, 1 - fmt.bias(), fmt.bias());
    let (fa, fb) = near_two(fmt, (f + 3) / 2);
    let mut cases = vec![
        (fmt.max_finite(), two),
        (fmt.max_finite(), fmt.max_finite()),
        (fmt.min_positive(), half),
        (fmt.min_positive(), fmt.min_positive()),
        (near_one, near_one),
        (third, fmt.pack(false, one + 1, fmt.frac_mask())),
        (two, half),
        with_sum(fmt, emin - 3, 0, 0),
        with_sum(fmt, emin - 1, fa, fb),
        with_sum(fmt, emax, fa, fb),
    ];
    if fmt.exp_bits() == 11 {
        cases.push(with_sum(
            fmt,
            2 * f - 1075,
            fmt.frac_mask(),
            fmt.frac_mask(),
        ));
    }
    cases
}

/// Fractions of `2 − 2^(1−k)` and `1 + 2^−k`, whose product `2 − 2^(1−2k)`
/// lies within half an ulp below 2 when `2k ≥ F + 2` (a tie at equality):
/// RNE rounds it up to the next binade, Truncate does not. From `k = 27`
/// binary64 itself rounds the product to 2.
fn near_two(fmt: FpFormat, k: i32) -> (u64, u64) {
    let f = fmt.frac_bits() as i32;
    (fmt.frac_mask() + 1 - (1 << (f + 1 - k)), 1 << (f - k))
}

/// A positive normal pair whose exponents sum to `sum`, with fractions
/// `fa` and `fb`.
fn with_sum(fmt: FpFormat, sum: i32, fa: u64, fb: u64) -> (u64, u64) {
    let ea = sum.div_euclid(2);
    (val(fmt, false, ea, fa), val(fmt, false, sum - ea, fb))
}

/// Products at the exponent sums where the format's range ends: sums that
/// flush or may round up to the smallest normal (`emin − 4 ..= emin − 1`),
/// sums that overflow or may round up to overflow (`emax − 1 ..= emax + 2`),
/// and for f48/f64 the sums around `2F − 1074`, below which an unscaled
/// TwoProd error would fall under binary64's subnormal range. Each sum
/// gets exact, rounding and near-2 fraction pairs, both signs.
fn edge_products(fmt: FpFormat) -> Vec<(u64, u64)> {
    let (f, emin, emax) = (fmt.frac_bits() as i32, 1 - fmt.bias(), fmt.bias());
    let mut sums: Vec<i32> = (emin - 4..emin).chain(emax - 1..=emax + 2).collect();
    if fmt.exp_bits() == 11 {
        sums.extend(2 * f - 1076..=2 * f - 1073);
    }
    let mask = fmt.frac_mask();
    let mut fracs = vec![(0, 0), (mask, mask), (1, mask), (mask >> 1 | 1, 3)];
    for k in [(f + 2) / 2, (f + 3) / 2, 27, 28] {
        if k <= f {
            fracs.push(near_two(fmt, k));
        }
    }
    let neg = 1u64 << fmt.sign_shift();
    let mut out = Vec::new();
    for &s in &sums {
        for &(fa, fb) in &fracs {
            let (a, b) = with_sum(fmt, s, fa, fb);
            out.extend([(a, b), (a ^ neg, b)]);
        }
    }
    out
}

/// Run one op over `cases` on every engine, once per starting lane: the
/// list is prefixed with 0..LANES filler cases and padded to whole chunks,
/// so every case lands in every lane position of a full chunk. Then the
/// list runs as batches of `r` cases for each `r` in 1..LANES, so every
/// case also lands in a padded tail of every length.
fn check_grid<T: Copy + std::fmt::Debug>(
    what: &str,
    cases: &[T],
    filler: T,
    want: impl Fn(T) -> (u64, Flags),
    run: impl Fn(SimdEngine, &[T], &mut Vec<(u64, Flags)>),
) {
    const LANES: usize = fpfpga_softfp::simd::LANES;
    let mut batches = Vec::new();
    for skew in 0..LANES {
        let mut batch = vec![filler; skew];
        batch.extend_from_slice(cases);
        batch.resize(batch.len().next_multiple_of(LANES), filler);
        batches.push(batch);
    }
    for r in 1..LANES {
        batches.extend(cases.chunks(r).map(<[T]>::to_vec));
    }
    for batch in &batches {
        let expect: Vec<(u64, Flags)> = batch.iter().map(|&t| want(t)).collect();
        for eng in SimdEngine::available() {
            let mut got = Vec::new();
            run(eng, batch, &mut got);
            for (i, (g, w)) in got.iter().zip(&expect).enumerate() {
                let at = format!("element {i} of {}", batch.len());
                assert_eq!(g, w, "{eng:?} {what} {:x?} ({at})", batch[i]);
            }
            assert_eq!(got.len(), expect.len(), "{eng:?} {what}");
        }
    }
}

#[test]
fn class_grid_matches_generic_in_every_lane() {
    for fmt in FORMATS {
        let vals = class_values(fmt);
        let pairs: Vec<(u64, u64)> = vals
            .iter()
            .flat_map(|&a| vals.iter().map(move |&b| (a, b)))
            .collect();
        let mut triples: Vec<(u64, u64, u64)> = pairs
            .iter()
            .flat_map(|&(a, b)| vals.iter().map(move |&c| (a, b, c)))
            .collect();
        for (a, b) in product_cases(fmt) {
            for c in [0, 1u64 << fmt.sign_shift()] {
                triples.push((a, b, c));
                triples.push((a, b | 1u64 << fmt.sign_shift(), c));
            }
        }
        let one = fmt.pack(false, fmt.bias() as u64, 0);
        for mode in [RoundMode::NearestEven, RoundMode::Truncate] {
            let tag = |op: &str| format!("{op} {fmt:?} {mode:?}");
            let split = |ps: &[(u64, u64)]| -> (Vec<u64>, Vec<u64>) { ps.iter().copied().unzip() };
            check_grid(
                &tag("add"),
                &pairs,
                (one, one),
                |(a, b)| ops::add::add(fmt, a, b, mode),
                |eng, ps, out| {
                    let (a, b) = split(ps);
                    fastpath::add_bits_batch_with(eng, fmt, &a, &b, mode, out)
                },
            );
            check_grid(
                &tag("sub"),
                &pairs,
                (one, one),
                |(a, b)| ops::add::sub(fmt, a, b, mode),
                |eng, ps, out| {
                    let (a, b) = split(ps);
                    fastpath::sub_bits_batch_with(eng, fmt, &a, &b, mode, out)
                },
            );
            check_grid(
                &tag("mul"),
                &pairs,
                (one, one),
                |(a, b)| ops::mul::mul(fmt, a, b, mode),
                |eng, ps, out| {
                    let (a, b) = split(ps);
                    fastpath::mul_bits_batch_with(eng, fmt, &a, &b, mode, out)
                },
            );
            check_grid(
                &tag("fma"),
                &triples,
                (one, one, one),
                |(a, b, c)| ops::fma::fma(fmt, a, b, c, mode),
                |eng, ts, out| {
                    let a: Vec<u64> = ts.iter().map(|t| t.0).collect();
                    let b: Vec<u64> = ts.iter().map(|t| t.1).collect();
                    let c: Vec<u64> = ts.iter().map(|t| t.2).collect();
                    fastpath::fma_bits_batch_with(eng, fmt, &a, &b, &c, mode, out)
                },
            );
        }
    }
}

/// `±2^exp · (1 + frac·2^-F)` in `fmt`.
fn val(fmt: FpFormat, neg: bool, exp: i32, frac: u64) -> u64 {
    fmt.pack(neg, (exp + fmt.bias()) as u64, frac)
}

/// Sums at the rounding boundaries of the wide engines' binary64 lane:
/// RNE ties that only the TwoSum error `e` breaks, a Truncate step down
/// across a binade, exact cancellation, tiny exact sums (flushed), and
/// f48/f64 sums whose TwoSum overflows binary64 — the lanes redone on
/// halved operands. Products at the range edges ([`edge_products`])
/// run through mul. Each case runs in every lane position of a full
/// chunk and of every tail length, on every engine, in both modes; fma runs every add pair as
/// `a·1 + b`, the f32 fma tie that goes against ties-to-even, and the
/// fma edges of the scaled binary64 lane: `c` dominating the product by
/// `F + 3`, `F + 4` and `F + 5` binades, results within a few ulps of
/// the smallest normal, products past the binary64 range with an
/// opposite-sign `c`, exact cancellation to +0, `c` too far below the
/// product to scale, and RNE ties that only the product's low bits
/// (ErrFma's error) break.
#[test]
fn binary64_lane_boundaries_match_generic() {
    for fmt in FORMATS {
        let f = fmt.frac_bits() as i32;
        let emax = fmt.bias();
        let emin = 1 - fmt.bias();
        let one = val(fmt, false, 0, 0);
        let one_odd = val(fmt, false, 0, 1);
        let min = fmt.min_positive();
        let max = fmt.max_finite();
        let neg = |x: u64| x ^ 1u64 << fmt.sign_shift();
        // The lone representable tie point above 1 and 1 + ulp, nudged
        // by a bit far below binary64's precision: up by 2^-(2f+1), down
        // by 2^-(2f+2). At f64 they are plain binary64 ties.
        let tie_up = val(fmt, false, -f - 1, 1);
        let tie_down = val(fmt, false, -f - 2, fmt.frac_mask());
        let mut pairs = vec![
            (one, tie_up),
            (one_odd, tie_up),
            (one, tie_down),
            (one_odd, tie_down),
            // Truncate steps 2 − tiny down to the predecessor of 2.
            (val(fmt, false, 1, 0), val(fmt, true, -60, 0)),
            (one, neg(one)),
            (max, neg(max)),
            (min, neg(min)),
            (val(fmt, false, emin, 1 << (f - 1)), neg(min)),
            (val(fmt, false, emin, 1), neg(min)),
            (max, max),
            (max, val(fmt, false, emax - f, 0)),
            (val(fmt, true, emax - f, 1 << (f - 1)), max),
            (max, val(fmt, true, emax - f, 1 << (f - 1))),
        ];
        pairs.extend(pairs.clone().into_iter().map(|(a, b)| (neg(a), neg(b))));
        let mut triples: Vec<(u64, u64, u64)> = pairs.iter().map(|&(a, b)| (a, one, b)).collect();
        // fma(1 + 2^-23, 2^-24·(1 − 2^-23), 1 + 2^-23) in f32: the exact
        // sum sits just below a tie whose even neighbour is above it.
        let b = val(fmt, false, -f - 2, fmt.frac_mask() - 1);
        triples.push((one_odd, b, one_odd));
        triples.push((one_odd, neg(b), neg(one_odd)));
        let mask = fmt.frac_mask();
        let mut edges = Vec::new();
        // c dominating the product by F + 3, F + 4 and F + 5 binades, with
        // the product at 1 and at the bottom of the range (a Truncate step
        // down from the smallest normal flushes).
        for d in 3..=5 {
            for (s, ec) in [(0, f + d), (emin - f - d, emin)] {
                for (fa, fb) in [(0, 0), (mask, mask)] {
                    for fc in [0, 1, mask] {
                        let (a, b) = with_sum(fmt, s, fa, fb);
                        edges.push((a, b, val(fmt, false, ec, fc)));
                    }
                }
            }
        }
        // Results within a few ulps of 2^emin: a·b − c with a·b near
        // 2^(emin+1), exact (b = 1) or not (b = 1 + ulp).
        for m in [0, 1, 2, mask >> 2] {
            for j in -3i64..=3 {
                let n = (2 * m as i64 + j).clamp(0, mask as i64) as u64;
                for b in [one, one_odd] {
                    edges.push((val(fmt, false, emin + 1, m), b, val(fmt, true, emin, n)));
                }
            }
        }
        // Products at or past 2^(emax+1) with an opposite-sign c.
        let two = val(fmt, false, 1, 0);
        edges.extend([
            (max, two, neg(max)),
            (max, one_odd, neg(max)),
            (max, one_odd, val(fmt, true, emax - f, 0)),
            (val(fmt, false, emax, 0), two, neg(max)),
            (max, max, neg(max)),
        ]);
        // Exact cancellation to +0, at large and small exponents.
        for (ea, eb) in [(3, -7), (emax / 2, emax / 2 - 1), (emin / 2 + 1, emin / 2)] {
            for fa in [0, 5, mask] {
                let c = val(fmt, true, ea + eb, fa);
                edges.push((val(fmt, false, ea, fa), val(fmt, false, eb, 0), c));
            }
        }
        // c far below a large product: scaled, it would leave binary64's
        // range.
        for fc in [0, 7] {
            let (a, b) = with_sum(fmt, emax - 2, 3, 5);
            edges.push((a, b, val(fmt, false, emin, fc)));
            edges.push((a, b, val(fmt, true, emin, fc)));
        }
        // RNE ties at c + 2^-(F+1) that only the product's low bits break,
        // c = 1 (even) and 1 + ulp (odd). The product 2^-(F+1)·(1 + 2^-F)²
        // lies just above the tie and 2^-(F+1)·(1 − 2^-(F+1)) just below
        // it; with u = 2^-h, h = F/2, (1 + u)(1 − u + u²) = 1 + u³ and
        // (1 − u)(1 + u + u²) = 1 − u³ put the deciding bits past the
        // product's first 53, in TwoProd's error.
        let h = f / 2;
        let near_tie = [
            (val(fmt, false, -f - 1, 1), one_odd),
            (val(fmt, false, -f - 1, 0), val(fmt, false, -1, mask)),
            (
                val(fmt, false, -f - 1, 1 << (f - h)),
                val(
                    fmt,
                    false,
                    -1,
                    mask + 1 - (1 << (f + 1 - h)) + (1 << (f + 1 - 2 * h)),
                ),
            ),
            (
                val(fmt, false, -f - 2, mask + 1 - (1 << (f + 1 - h))),
                val(fmt, false, 0, (1 << (f - h)) + (1 << (f - 2 * h))),
            ),
        ];
        for c in [one, one_odd] {
            edges.extend(near_tie.iter().map(|&(a, b)| (a, b, c)));
        }
        triples.extend(
            edges
                .iter()
                .flat_map(|&(a, b, c)| [(a, b, c), (neg(a), b, neg(c))]),
        );
        let products = edge_products(fmt);
        for mode in [RoundMode::NearestEven, RoundMode::Truncate] {
            let tag = |op: &str| format!("{op} {fmt:?} {mode:?}");
            let split = |ps: &[(u64, u64)]| -> (Vec<u64>, Vec<u64>) { ps.iter().copied().unzip() };
            check_grid(
                &tag("add"),
                &pairs,
                (one, one),
                |(a, b)| ops::add::add(fmt, a, b, mode),
                |eng, ps, out| {
                    let (a, b) = split(ps);
                    fastpath::add_bits_batch_with(eng, fmt, &a, &b, mode, out)
                },
            );
            check_grid(
                &tag("sub"),
                &pairs,
                (one, one),
                |(a, b)| ops::add::sub(fmt, a, neg(b), mode),
                |eng, ps, out| {
                    let (a, b) = split(ps);
                    let b: Vec<u64> = b.into_iter().map(neg).collect();
                    fastpath::sub_bits_batch_with(eng, fmt, &a, &b, mode, out)
                },
            );
            check_grid(
                &tag("mul"),
                &products,
                (one, one),
                |(a, b)| ops::mul::mul(fmt, a, b, mode),
                |eng, ps, out| {
                    let (a, b) = split(ps);
                    fastpath::mul_bits_batch_with(eng, fmt, &a, &b, mode, out)
                },
            );
            check_grid(
                &tag("fma"),
                &triples,
                (one, one, one),
                |(a, b, c)| ops::fma::fma(fmt, a, b, c, mode),
                |eng, ts, out| {
                    let a: Vec<u64> = ts.iter().map(|t| t.0).collect();
                    let b: Vec<u64> = ts.iter().map(|t| t.1).collect();
                    let c: Vec<u64> = ts.iter().map(|t| t.2).collect();
                    fastpath::fma_bits_batch_with(eng, fmt, &a, &b, &c, mode, out)
                },
            );
        }
    }
}

/// Quotients at the boundaries of the wide engines' binary64 divide: exact
/// quotients; quotients just below and above 1 and 2, where a Truncate
/// result steps into the binade below; near-ties `1 + 3·2^-(F+1)` and
/// `1 + 2^-(F+1)` that fall within binary64's precision for f48 and that
/// the remainder's sign must break against ties-to-even; quotients whose
/// exponent overflows or flushes at the format's range edges (exact,
/// rounding and near-one fractions); and every class pair (x/0, 0/0,
/// ∞/∞, denormal encodings, both signs). Operands with bits set above the
/// format width are divided as the generic op reads them.
fn quotient_cases(fmt: FpFormat) -> Vec<(u64, u64)> {
    let f = fmt.frac_bits() as i32;
    let (emin, emax, mask) = (1 - fmt.bias(), fmt.bias(), fmt.frac_mask());
    let v = |e: i32, frac: u64| val(fmt, false, e, frac);
    let c = 3 - (1u64 << (f % 2)); // 2^F + c is a multiple of 3
    let fb = ((1u64 << f) + c) / 3;
    let mut cases = vec![
        (v(2, 1 << (f - 1)), v(1, 1 << (f - 1))), // 6 / 3
        (v(0, 0), v(2, 0)),
        (v(0, 5), v(0, 5)),
        (v(3, mask), v(0, 0)),
        (v(0, 0), v(0, 1)),    // just below 1
        (v(0, mask), v(0, 0)), // just below 2
        (v(0, mask - 1), v(0, mask)),
        (v(1, 0), v(0, mask)),    // 1 + 2^-(F+1) + …: a near-tie
        (v(0, fb + 2), v(0, fb)), // just below the tie 1 + 3·2^-(F+1)
        (v(0, 0), v(-1, mask)),
        (v(-1, mask), v(0, 0)),
        (fmt.max_finite(), fmt.min_positive()),
        (fmt.min_positive(), fmt.max_finite()),
    ];
    let fracs = [
        (0, 0),
        (mask, 0),
        (0, mask),
        (mask, mask),
        (1, mask),
        (mask, 1),
    ];
    for diff in [emax - 1, emax, emax + 1, emin - 1, emin, emin + 1] {
        for &(fa, fbb) in &fracs {
            let ea = if diff > 0 { emax } else { emin };
            let eb = ea - diff;
            if (emin..=emax).contains(&eb) {
                cases.push((v(ea, fa), v(eb, fbb)));
            }
        }
    }
    let vals = class_values(fmt);
    cases.extend(vals.iter().flat_map(|&a| vals.iter().map(move |&b| (a, b))));
    let neg = 1u64 << fmt.sign_shift();
    let mut all: Vec<(u64, u64)> = cases
        .iter()
        .flat_map(|&(a, b)| [(a, b), (a ^ neg, b), (a, b ^ neg)])
        .collect();
    if fmt.sign_shift() < 63 {
        let junk = 0x5a5a_5a5a_5a5a_5a5a << (fmt.sign_shift() + 1);
        all.extend(cases.iter().map(|&(a, b)| (a | junk, b | junk << 1)));
    }
    all
}

/// Radicands at the boundaries of the wide engines' binary64 square root:
/// exact roots at even and odd exponents; radicands just below 1, 2 and 4
/// (roots just below a power of two, where Truncate steps into the binade
/// below); near-ties `1 + 2^-F` and `1 + 3·2^-F`, whose roots lie just
/// below a tie; the range's ends; negatives, ±0, ±∞ and denormal
/// encodings; and operands with bits set above the format width.
fn radicand_cases(fmt: FpFormat) -> Vec<u64> {
    let (emin, emax, mask) = (1 - fmt.bias(), fmt.bias(), fmt.frac_mask());
    let f = fmt.frac_bits();
    let v = |e: i32, frac: u64| val(fmt, false, e, frac);
    let mut cases = vec![
        v(0, 0),
        v(2, 0),
        v(3, 1 << (f - 3)), // 9
        v(1, 1 << (f - 3)), // 2.25
        v(-1, mask),        // just below 1
        v(0, mask),         // just below 2
        v(1, mask),         // just below 4
        v(0, 1),
        v(0, 3),
        v(1, 1),
        v(1, 3),
        v(emin, 0),
        v(emin + 1, mask),
        v(emax, mask),
        v(emax - 1, 0),
    ];
    cases.extend(class_values(fmt));
    let neg = 1u64 << fmt.sign_shift();
    let mut all: Vec<u64> = cases.iter().flat_map(|&a| [a, a ^ neg]).collect();
    if fmt.sign_shift() < 63 {
        let junk = 0xa5a5_a5a5_a5a5_a5a5 << (fmt.sign_shift() + 1);
        all.extend(cases.iter().map(|&a| a | junk));
    }
    all
}

#[test]
fn binary64_divide_and_root_boundaries_match_generic() {
    for fmt in FORMATS {
        let quotients = quotient_cases(fmt);
        let radicands = radicand_cases(fmt);
        let one = val(fmt, false, 0, 0);
        for mode in [RoundMode::NearestEven, RoundMode::Truncate] {
            check_grid(
                &format!("div {fmt:?} {mode:?}"),
                &quotients,
                (one, one),
                |(a, b)| ops::div::div(fmt, a, b, mode),
                |eng, ps, out| {
                    let (a, b): (Vec<u64>, Vec<u64>) = ps.iter().copied().unzip();
                    fastpath::div_bits_batch_with(eng, fmt, &a, &b, mode, out)
                },
            );
            check_grid(
                &format!("sqrt {fmt:?} {mode:?}"),
                &radicands,
                one,
                |a| ops::sqrt::sqrt(fmt, a, mode),
                |eng, xs, out| fastpath::sqrt_bits_batch_with(eng, fmt, xs, mode, out),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Divide and square root on random batches at every special density:
    /// the binary64 blocks, the special blend and the padded tail.
    #[test]
    fn div_and_sqrt_batches_match_generic(
        fmt in any_fmt(),
        mode in any_mode(),
        raw in raw_batch(),
        density in prop_oneof![Just(0u16), Just(5), Just(50), Just(100)],
    ) {
        let a: Vec<u64> = raw
            .iter()
            .map(|&(x, _, _, s)| encode(fmt, x, s, density))
            .collect();
        let b: Vec<u64> = raw
            .iter()
            .map(|&(_, y, _, s)| encode(fmt, y, s.wrapping_add(7), density))
            .collect();
        for eng in SimdEngine::available() {
            let mut out = Vec::new();
            fastpath::div_bits_batch_with(eng, fmt, &a, &b, mode, &mut out);
            for i in 0..a.len() {
                let want = ops::div::div(fmt, a[i], b[i], mode);
                prop_assert_eq!(out[i], want, "{:?} div {}", eng, i);
            }
            out.clear();
            fastpath::sqrt_bits_batch_with(eng, fmt, &a, mode, &mut out);
            for i in 0..a.len() {
                let want = ops::sqrt::sqrt(fmt, a[i], mode);
                prop_assert_eq!(out[i], want, "{:?} sqrt {}", eng, i);
            }
        }
    }
}

/// A deterministic operand stream, a quarter of it special encodings.
fn stream(fmt: FpFormat, n: usize, seed: u64) -> Vec<u64> {
    let mut s = seed;
    (0..n)
        .map(|i| {
            s = s
                .wrapping_mul(0xd129_42e2_96fe_94e3)
                .wrapping_add(0x2545_f491_4f6c_dd1d);
            encode(fmt, s, (s >> 48) as u16 ^ i as u16, 25)
        })
        .collect()
}

fn or_flags(pairs: &[(u64, Flags)]) -> Flags {
    pairs.iter().fold(Flags::NONE, |acc, &(_, f)| acc | f)
}

/// The in-place fma writes `fma_bits_batch`'s results element for
/// element and returns the OR of its flags: on one row at lengths around
/// the chunk width, and on strided blocks whose chunks straddle rows,
/// where it must leave the cells between the rows alone.
#[test]
fn in_place_fma_matches_fma_bits_batch() {
    let rows = [0usize, 1, 7, 8, 9, 39].map(|len| (1, len, len));
    let blocks = [
        (0, 3, 3),
        (3, 3, 5),
        (5, 7, 7),
        (4, 13, 16),
        (7, 6, 11),
        (2, 2, 9),
    ];
    for fmt in FORMATS {
        for mode in [RoundMode::NearestEven, RoundMode::Truncate] {
            for (rows, cols, stride) in rows.into_iter().chain(blocks) {
                let (col, row) = (stream(fmt, rows, 4), stream(fmt, cols, 5));
                let block = stream(fmt, rows * stride, 6);
                let (mut ga, mut gb, mut gc) = (Vec::new(), Vec::new(), Vec::new());
                for i in 0..rows {
                    for j in 0..cols {
                        ga.push(col[i]);
                        gb.push(row[j]);
                        gc.push(block[i * stride + j]);
                    }
                }
                for eng in SimdEngine::available() {
                    let mut want = Vec::new();
                    fastpath::fma_bits_batch_with(eng, fmt, &ga, &gb, &gc, mode, &mut want);
                    let mut expect = block.clone();
                    for (t, &(r, _)) in want.iter().enumerate() {
                        expect[t / cols * stride + t % cols] = r;
                    }
                    let mut got = block.clone();
                    let flags =
                        fastpath::fma_rank1_bits_with(eng, fmt, &col, &row, &mut got, stride, mode);
                    let what = format!("{eng:?} {fmt:?} {mode:?} {rows}x{cols}/{stride}");
                    assert_eq!(got, expect, "{what}");
                    assert_eq!(flags, or_flags(&want), "{what}");
                }
            }
        }
    }
}

/// The `*_bits_into` entry points write the pair batches' result bits
/// and return the OR of their flags, on every engine and on a dynamic
/// format.
#[test]
fn bits_into_match_pair_batches() {
    type Pairs = fn(SimdEngine, FpFormat, &[u64], &[u64], RoundMode, &mut Vec<(u64, Flags)>);
    type Into = fn(SimdEngine, FpFormat, &[u64], &[u64], RoundMode, &mut [u64]) -> Flags;
    let ops: [(&str, Pairs, Into); 4] = [
        (
            "add",
            fastpath::add_bits_batch_with,
            fastpath::add_bits_into_with,
        ),
        (
            "sub",
            fastpath::sub_bits_batch_with,
            fastpath::sub_bits_into_with,
        ),
        (
            "mul",
            fastpath::mul_bits_batch_with,
            fastpath::mul_bits_into_with,
        ),
        (
            "div",
            fastpath::div_bits_batch_with,
            fastpath::div_bits_into_with,
        ),
    ];
    for fmt in FORMATS.into_iter().chain([FpFormat::new(5, 10)]) {
        for mode in [RoundMode::NearestEven, RoundMode::Truncate] {
            for len in [0usize, 1, 7, 8, 9, 39] {
                let (a, b) = (stream(fmt, len, 7), stream(fmt, len, 8));
                for eng in SimdEngine::available() {
                    for (name, pairs, into) in ops {
                        let mut want = Vec::new();
                        pairs(eng, fmt, &a, &b, mode, &mut want);
                        let mut got = vec![0; len];
                        let flags = into(eng, fmt, &a, &b, mode, &mut got);
                        let bits: Vec<u64> = want.iter().map(|&(r, _)| r).collect();
                        let what = format!("{eng:?} {name} {fmt:?} {mode:?} len {len}");
                        assert_eq!(got, bits, "{what}");
                        assert_eq!(flags, or_flags(&want), "{what}");
                    }
                }
            }
        }
    }
}

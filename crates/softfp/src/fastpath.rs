//! Batch entry points: every add, sub, mul, fma, divide and square
//! root a kernel runs in bulk, in one call per slice.
//!
//! * **Pair entry points** ([`add_bits_batch`], [`mul_bits_batch`],
//!   [`fma_bits_batch`], [`div_bits_batch`], [`sqrt_bits_batch`],
//!   [`add_pairs_batch`], …) append one `(bits, flags)` result per
//!   element to a caller-provided buffer instead of allocating per
//!   element.
//! * **Bits entry points** write result bits in place and return the
//!   batch's flags OR-ed into one [`Flags`]: [`mac_steps_bits`], every
//!   multiply-accumulate step of a matmul, MVM or dot row in one call,
//!   [`add_acc_bits`] for the accumulator banks' fold, the `*_bits_into`
//!   family ([`add_bits_into`], …, [`div_bits_into`]) for FFT stages and
//!   LU's multipliers, and the in-place fma over a strided block,
//!   [`fma_rank1_bits`], for LU's elimination steps.
//!
//! Every entry point also has a `*_with` form that pins the
//! [`SimdEngine`] by value; the plain form runs [`simd::active_engine`].
//! On every engine, the portable [`SimdEngine::Scalar`] included, the
//! named formats (f32, f48, f64) run the chunked drivers of [`simd`]:
//! an error-free transformation or an exact remainder on the host's
//! binary64 unit plus one rounding step, with every element, a short
//! batch's and a ragged tail's included, in a chunk. So these entry
//! points need the calling thread in Rust's default FP environment
//! (round-to-nearest-even, no FTZ/DAZ); debug builds assert it. Dynamic
//! formats run the generic [`crate::ops`] in one plain loop.
//!
//! Equivalence with the generic ops — results *and* exception flags — is
//! enforced by proptests over random formats and lengths and the class
//! and boundary grids of `simd_vs_generic`, and by the `fpfpga-conform`
//! differential harness, which CI runs on every engine
//! (`fpuconform --lane`).

use crate::exceptions::Flags;
use crate::format::FpFormat;
use crate::ops;
use crate::round::RoundMode;
use crate::simd::{
    self, BitsSink, FmaLoad, PairSink, SimdEngine, LANES, OP_ADD, OP_DIV, OP_MUL, OP_SQRT, OP_SUB,
};
use std::cell::Cell;

/// Panic message used by every batch entry point on length mismatch.
pub const LEN_MISMATCH: &str = "batch operand slices must have equal lengths";

/// The generic op `OP` on one element: the datapath of the dynamic
/// formats. Square root ignores `y`.
#[inline(always)]
fn generic<const OP: u8>(fmt: FpFormat, x: u64, y: u64, mode: RoundMode) -> (u64, Flags) {
    match OP {
        OP_ADD => ops::add::add(fmt, x, y, mode),
        OP_SUB => ops::add::sub(fmt, x, y, mode),
        OP_MUL => ops::mul::mul(fmt, x, y, mode),
        OP_DIV => ops::div::div(fmt, x, y, mode),
        _ => ops::sqrt::sqrt(fmt, x, mode),
    }
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

/// The body of the binary pair entry points: `OP` over `n` elements on
/// `eng`, appended to `out`. `load_one` reads element `i`'s operands: for
/// a chunk's padded tail, and for a dynamic format's generic loop.
#[inline(always)]
fn bin_pairs<const OP: u8>(
    eng: SimdEngine,
    fmt: FpFormat,
    n: usize,
    load_chunk: impl Fn(usize, &mut [u64; LANES], &mut [u64; LANES]),
    load_one: impl Fn(usize) -> (u64, u64),
    mode: RoundMode,
    out: &mut Vec<(u64, Flags)>,
) {
    let sink = &mut PairSink(out);
    if simd::run_bin::<OP>(eng, fmt, n, load_chunk, &load_one, mode, sink).is_none() {
        out.extend((0..n).map(|i| {
            let (x, y) = load_one(i);
            generic::<OP>(fmt, x, y, mode)
        }));
    }
}

/// The body of the binary bits entry points: `OP` over the elements of
/// `out` on `eng`, written in place, returning the OR of their flags
/// (operands as [`bin_pairs`] reads them).
#[inline(always)]
fn bin_bits<const OP: u8>(
    eng: SimdEngine,
    fmt: FpFormat,
    load_chunk: impl Fn(usize, &mut [u64; LANES], &mut [u64; LANES]),
    load_one: impl Fn(usize) -> (u64, u64),
    mode: RoundMode,
    out: &[Cell<u64>],
) -> Flags {
    let sink = &mut BitsSink::flat(out);
    if let Some(flags) = simd::run_bin::<OP>(eng, fmt, out.len(), load_chunk, &load_one, mode, sink)
    {
        return flags;
    }
    let mut flags = Flags::NONE;
    for (i, cell) in out.iter().enumerate() {
        let (x, y) = load_one(i);
        let (r, f) = generic::<OP>(fmt, x, y, mode);
        cell.set(r);
        flags |= f;
    }
    flags
}

// Each batch entry point has one body, the `*_with` form, which takes the
// engine by value: the named formats run the `simd` drivers on that
// engine, and a dynamic format runs the generic ops. The plain form
// passes [`simd::active_engine`].

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
    let load_one = |i: usize| (a[i], b[i]);
    bin_pairs::<OP_ADD>(eng, fmt, a.len(), slices_chunk(a, b), load_one, mode, out)
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
    let load_one = |i: usize| (a[i], b[i]);
    bin_pairs::<OP_SUB>(eng, fmt, a.len(), slices_chunk(a, b), load_one, mode, out)
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
    let load_one = |i: usize| (a[i], b[i]);
    bin_pairs::<OP_MUL>(eng, fmt, a.len(), slices_chunk(a, b), load_one, mode, out)
}

/// Batched `a[i]·b[i] + c[i]` with one rounding each, appended to `out`;
/// FP environment as [`add_bits_batch`].
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
    let load_chunk =
        |i: usize, xs: &mut [u64; LANES], ys: &mut [u64; LANES], zs: &mut [u64; LANES]| {
            xs.copy_from_slice(&a[i..i + LANES]);
            ys.copy_from_slice(&b[i..i + LANES]);
            zs.copy_from_slice(&c[i..i + LANES]);
        };
    let load_one = |i: usize| (a[i], b[i], c[i]);
    let sink = &mut PairSink(out);
    if simd::run_fma(eng, fmt, a.len(), (load_chunk, load_one), mode, sink).is_none() {
        out.extend((0..a.len()).map(|i| ops::fma::fma(fmt, a[i], b[i], c[i], mode)));
    }
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
    let load_one = |i: usize| pairs[i];
    bin_pairs::<OP_ADD>(
        eng,
        fmt,
        pairs.len(),
        pairs_chunk(pairs),
        load_one,
        mode,
        out,
    )
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
    let load_one = |i: usize| pairs[i];
    bin_pairs::<OP_SUB>(
        eng,
        fmt,
        pairs.len(),
        pairs_chunk(pairs),
        load_one,
        mode,
        out,
    )
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
    let load_one = |i: usize| pairs[i];
    bin_pairs::<OP_MUL>(
        eng,
        fmt,
        pairs.len(),
        pairs_chunk(pairs),
        load_one,
        mode,
        out,
    )
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
/// the same two roundings as a per-element [`crate::mul_bits`],
/// `convert`, [`crate::add_bits`] loop. Returns the OR of every step's
/// flags.
///
/// Named compute and covering accumulate formats run a register-resident
/// kernel on every engine: each chunk of columns keeps its accumulators
/// in a register across its steps, and the product stays a binary64
/// value between the two roundings (see [`simd`]); a row narrower than a
/// chunk runs padded. A dot (one column, `stride` 1) forms its products
/// in one batch multiply first, and then runs each round of `la` adds as
/// one step `la` columns wide. Dynamic formats and a non-covering pair
/// run the generic ops element by element. FP environment as
/// [`add_bits_batch`].
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
    if p > 1 || stride != 1 || m == 1 {
        return mac_steps(eng, compute, accumulate, lhs, rhs, stride, banks, la, mode);
    }
    // A dot: product `k` goes to bank `k % la`, so round `r` of `la`
    // products is one step `la` wide into a single row of banks. The
    // products stand in for its rhs row and 1.0 for its lhs, whose
    // product with them is exact and raises no flag.
    let mut products = vec![0u64; m];
    let mut flags = mul_bits_into_with(eng, compute, &rhs[..m], lhs, mode, &mut products);
    let (rounds, rest) = (m / la, m % la);
    let ones = vec![compute.pack(false, compute.bias() as u64, 0); rounds.max(1)];
    let (full, tail) = products.split_at(rounds * la);
    if rounds > 0 {
        flags |= mac_steps(eng, compute, accumulate, &ones, full, la, banks, 1, mode);
    }
    if rest > 0 {
        let banks = &mut banks[..rest];
        flags |= mac_steps(
            eng,
            compute,
            accumulate,
            &ones[..1],
            tail,
            rest,
            banks,
            1,
            mode,
        );
    }
    flags
}

/// The steps of [`mac_steps_bits`] on the multiply-accumulate driver, or
/// for a dynamic format or a non-covering pair the generic ops.
#[allow(clippy::too_many_arguments)]
fn mac_steps(
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
    let wide = simd::run_mac(eng, compute, accumulate, lhs, rhs, stride, banks, la, mode);
    if let Some(flags) = wide {
        return flags;
    }
    let p = banks.len() / la;
    let mut flags = Flags::NONE;
    for (k, &l) in lhs.iter().enumerate() {
        let bank = &mut banks[k % la * p..][..p];
        for (acc, &r) in bank.iter_mut().zip(&rhs[k * stride..]) {
            let (x, f1) = ops::mul::mul(compute, r, l, mode);
            let (x, f2) = if compute == accumulate {
                (x, Flags::NONE)
            } else {
                crate::convert::convert(compute, x, accumulate, mode)
            };
            let (y, f3) = ops::add::add(accumulate, x, *acc, mode);
            *acc = y;
            flags |= f1 | f2 | f3;
        }
    }
    flags
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
    bin_bits::<OP_ADD>(eng, fmt, load_chunk, load_one, mode, acc)
}

/// Batched `a[i] / b[i]`, appended to `out`; engines and FP environment
/// as [`add_bits_batch`].
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
    let load_one = |i: usize| (a[i], b[i]);
    bin_pairs::<OP_DIV>(eng, fmt, a.len(), slices_chunk(a, b), load_one, mode, out)
}

/// Batched `√a[i]`, appended to `out`; engines and FP environment as
/// [`add_bits_batch`].
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
    let load_chunk = |i: usize, xs: &mut [u64; LANES], _: &mut [u64; LANES]| {
        xs.copy_from_slice(&a[i..i + LANES]);
    };
    let load_one = |i: usize| (a[i], 0);
    bin_pairs::<OP_SQRT>(eng, fmt, a.len(), load_chunk, load_one, mode, out)
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

/// `out[i] = a[i] / b[i]`, as [`add_bits_into`].
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
    bin_bits::<OP>(eng, fmt, slices_chunk(a, b), load_one, mode, out)
}

/// The rank-1 update `b[i][j] = col[i]·row[j] + b[i][j]` in place, where
/// `b[i][j]` is `block[i·stride + j]`: the `col.len() × row.len()` block
/// whose rows start `stride` elements apart, one rounding each. Returns
/// the OR of every element's flags. It is one in-place fma batch over
/// the block in row-major order, so only its last `len % LANES` elements
/// take the padded tail. This is an elimination step of LU (`col` the
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
    let mut flags = Flags::NONE;
    for (i, &c) in col.iter().enumerate() {
        for (&r, cell) in row.iter().zip(&cells[i * stride..]) {
            let (y, f) = ops::fma::fma(fmt, c, r, cell.get(), mode);
            cell.set(y);
            flags |= f;
        }
    }
    flags
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

#[cfg(test)]
mod tests {
    use super::*;

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
                crate::add_bits(fmt, a[i], b[i], RoundMode::NearestEven)
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
                            crate::mul_bits(compute, rhs[k * p + j], lhs[k], RoundMode::Truncate);
                        let (x, f2) =
                            crate::convert::convert(compute, x, accumulate, RoundMode::Truncate);
                        let acc = &mut want[(k % la) * p + j];
                        let (y, f3) = crate::add_bits(accumulate, x, *acc, RoundMode::Truncate);
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

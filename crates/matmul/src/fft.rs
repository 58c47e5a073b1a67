//! Radix-2 FFT kernel — the paper's signal-processing motivation
//! ("radar/sonar signal processing, image processing…") exercised on the
//! same floating-point units.
//!
//! The architecture is the classic iterative Cooley-Tukey dataflow: a
//! pipelined **butterfly unit** (4 multipliers + 6 adders computing
//! `X' = X + W·Y`, `Y' = X − W·Y` on complex operands) streams `n/2`
//! butterflies per stage for `log₂ n` stages. Within a stage every
//! butterfly touches distinct data, so the unit runs at initiation
//! interval 1 with no hazards; stages are separated by a pipeline drain
//! (the paper's latency-hiding constraint appears here as the *stage
//! barrier* instead of matmul's padded period).
//!
//! Numerics are bit-exact against [`reference_fft`], which performs the
//! identical operation order in `SoftFloat` arithmetic; accuracy is
//! validated against an `f64` FFT.

use crate::units::UnitSet;
use fpfpga_fabric::area::AreaCost;
use fpfpga_softfp::{Flags, FpFormat, RoundMode, SoftFloat};

/// A complex number as a pair of raw encodings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cplx {
    /// Real part (raw bits).
    pub re: u64,
    /// Imaginary part (raw bits).
    pub im: u64,
}

impl Cplx {
    /// From `f64` parts.
    pub fn from_f64(fmt: FpFormat, re: f64, im: f64) -> Cplx {
        Cplx {
            re: SoftFloat::from_f64(fmt, re).bits(),
            im: SoftFloat::from_f64(fmt, im).bits(),
        }
    }

    /// To `f64` parts.
    pub fn to_f64(&self, fmt: FpFormat) -> (f64, f64) {
        (
            SoftFloat::from_bits(fmt, self.re).to_f64(),
            SoftFloat::from_bits(fmt, self.im).to_f64(),
        )
    }

    /// Zero.
    pub fn zero() -> Cplx {
        Cplx { re: 0, im: 0 }
    }
}

/// One radix-2 butterfly in `SoftFloat` arithmetic — the exact operation
/// order the hardware unit performs: complex product `W·Y` (4 multiplies,
/// then `ac − bd` and `ad + bc`), then the sum and difference with `X`.
pub fn butterfly_softfp(
    fmt: FpFormat,
    mode: RoundMode,
    x: Cplx,
    y: Cplx,
    w: Cplx,
) -> (Cplx, Cplx, Flags) {
    use fpfpga_softfp::{add_bits, mul_bits, sub_bits};
    let mut flags = Flags::NONE;
    let mut op = |r: (u64, Flags)| {
        flags |= r.1;
        r.0
    };
    // t = w * y
    let ac = op(mul_bits(fmt, w.re, y.re, mode));
    let bd = op(mul_bits(fmt, w.im, y.im, mode));
    let ad = op(mul_bits(fmt, w.re, y.im, mode));
    let bc = op(mul_bits(fmt, w.im, y.re, mode));
    let t_re = op(sub_bits(fmt, ac, bd, mode));
    let t_im = op(add_bits(fmt, ad, bc, mode));
    // outputs
    let x_re = op(add_bits(fmt, x.re, t_re, mode));
    let x_im = op(add_bits(fmt, x.im, t_im, mode));
    let y_re = op(sub_bits(fmt, x.re, t_re, mode));
    let y_im = op(sub_bits(fmt, x.im, t_im, mode));
    (
        Cplx { re: x_re, im: x_im },
        Cplx { re: y_re, im: y_im },
        flags,
    )
}

/// A pipelined butterfly unit: latency = multiplier + 2 × adder stages
/// (product, complex combine, final add/sub), initiation interval 1.
pub struct ButterflyUnit {
    fmt: FpFormat,
    mode: RoundMode,
    /// One representative pipe per serial segment, used to realize the
    /// latency; values are computed bit-exactly at issue.
    line: std::collections::VecDeque<Option<(Cplx, Cplx, Flags)>>,
    latency: u32,
    /// Issues accepted.
    pub issues: u64,
    /// Cycles clocked.
    pub cycles: u64,
}

impl ButterflyUnit {
    /// A unit built from the given FP unit latencies.
    pub fn new(fmt: FpFormat, mode: RoundMode, mult_stages: u32, add_stages: u32) -> ButterflyUnit {
        let latency = mult_stages + 2 * add_stages;
        ButterflyUnit {
            fmt,
            mode,
            line: (0..latency).map(|_| None).collect(),
            latency,
            issues: 0,
            cycles: 0,
        }
    }

    /// Pipeline latency in cycles.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Advance one clock, optionally issuing a butterfly.
    pub fn clock(&mut self, input: Option<(Cplx, Cplx, Cplx)>) -> Option<(Cplx, Cplx, Flags)> {
        self.cycles += 1;
        let computed = input.map(|(x, y, w)| {
            self.issues += 1;
            butterfly_softfp(self.fmt, self.mode, x, y, w)
        });
        self.line.push_back(computed);
        self.line.pop_front().expect("line non-empty")
    }

    /// The resource bill: 4 multipliers + 6 adders at the given configs.
    pub fn area(units: &UnitSet) -> AreaCost {
        let m = AreaCost {
            luts: units.multiplier.luts as f64,
            ffs: units.multiplier.ffs as f64,
            bmults: units.multiplier.bmults,
            brams: units.multiplier.brams,
            routing_slices: 0.0,
        };
        let a = AreaCost {
            luts: units.adder.luts as f64,
            ffs: units.adder.ffs as f64,
            bmults: units.adder.bmults,
            brams: units.adder.brams,
            routing_slices: 0.0,
        };
        m * 4.0 + a * 6.0
    }
}

/// Bit-reverse permutation of indices below `n` (a power of two).
pub fn bit_reverse_permute(data: &mut [Cplx]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            data.swap(i, j);
        }
    }
}

/// Twiddle factor `W_n^k = exp(−2πik/n)` (or its conjugate for the
/// inverse transform), rounded into `fmt`.
pub fn twiddle(fmt: FpFormat, k: usize, n: usize, inverse: bool) -> Cplx {
    let angle = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
    let angle = if inverse { -angle } else { angle };
    Cplx::from_f64(fmt, angle.cos(), angle.sin())
}

/// Reference FFT: [`butterfly_softfp`]'s operations on the same operands,
/// run one stage at a time on the softfp batch lanes.
///
/// This is both the served transform (serving charges its cycles with
/// [`FftEngine::cycle_model`]) and the oracle the per-cycle
/// [`FftEngine::run`] is tested against: within a stage every butterfly
/// touches distinct data, so the pipelined order computes the same
/// values. Each stage gathers its `n/2` butterflies' operands into
/// structure-of-arrays buffers that stack the real parts over the
/// imaginary ones, and runs every butterfly's ten operations as six
/// batches: the four products as `wr·[yr | yi]` (`ac | ad`) and
/// `wi·[yi | yr]` (`bd | bc`), then `ac − bd` and `ad + bc`, then the
/// outputs `x + t` and `x − t` over both halves at once. Twiddles come
/// from one `n/2`-entry table of `W_n^j` per call, read at stride `n/len`
/// in the stage of length `len`: `n/len` is a power of two, so entry
/// `k·n/len` is bit-equal to [`twiddle`]`(fmt, k, len, inverse)`. Needs
/// the calling thread in Rust's default FP environment, as the softfp
/// batch entry points do.
pub fn reference_fft(fmt: FpFormat, mode: RoundMode, input: &[Cplx], inverse: bool) -> Vec<Cplx> {
    use fpfpga_softfp::{add_bits_into, mul_bits_into, sub_bits_into};
    let n = input.len();
    assert!(n.is_power_of_two());
    let mut data = input.to_vec();
    bit_reverse_permute(&mut data);
    let half = n / 2;
    if half == 0 {
        return data;
    }
    // Nine n-element streams in one allocation: the twiddle table (real
    // parts, then imaginary), the gathered x, y, y with its halves
    // swapped, wr twice and wi twice, and the results p, q and t.
    let mut buf = vec![0u64; 9 * n];
    let mut parts = buf.chunks_exact_mut(n);
    let [table, x, y, ys, wr, wi, p, q, t] = std::array::from_fn(|_| parts.next().expect("nine"));
    for j in 0..half {
        let w = twiddle(fmt, j, n, inverse);
        (table[j], table[half + j]) = (w.re, w.im);
    }
    let mut len = 2;
    while len <= n {
        let (h, stride) = (len / 2, n / len);
        let butterflies = (0..n)
            .step_by(len)
            .flat_map(|start| (start..start + h).map(move |i| (i, i + h)));
        for (b, (i, j)) in butterflies.clone().enumerate() {
            let (lo, hi) = (b, half + b);
            let k = (i % len) * stride;
            (x[lo], x[hi]) = (data[i].re, data[i].im);
            (y[lo], y[hi]) = (data[j].re, data[j].im);
            (ys[lo], ys[hi]) = (data[j].im, data[j].re);
            (wr[lo], wr[hi]) = (table[k], table[k]);
            (wi[lo], wi[hi]) = (table[half + k], table[half + k]);
        }
        mul_bits_into(fmt, wr, y, mode, p);
        mul_bits_into(fmt, wi, ys, mode, q);
        sub_bits_into(fmt, &p[..half], &q[..half], mode, &mut t[..half]);
        add_bits_into(fmt, &p[half..], &q[half..], mode, &mut t[half..]);
        // The products are spent: the outputs reuse their buffers.
        add_bits_into(fmt, x, t, mode, p);
        sub_bits_into(fmt, x, t, mode, q);
        for (b, (i, j)) in butterflies.enumerate() {
            let (lo, hi) = (b, half + b);
            data[i] = Cplx {
                re: p[lo],
                im: p[hi],
            };
            data[j] = Cplx {
                re: q[lo],
                im: q[hi],
            };
        }
        len *= 2;
    }
    data
}

/// Cycle-accurate FFT run on one butterfly unit. Returns the transform
/// and the cycles consumed.
pub struct FftEngine {
    fmt: FpFormat,
    mode: RoundMode,
    mult_stages: u32,
    add_stages: u32,
}

impl FftEngine {
    /// Configure an engine.
    pub fn new(fmt: FpFormat, mode: RoundMode, mult_stages: u32, add_stages: u32) -> FftEngine {
        FftEngine {
            fmt,
            mode,
            mult_stages,
            add_stages,
        }
    }

    /// Run an `n`-point FFT, streaming each stage's `n/2` butterflies
    /// through the unit at initiation interval 1, draining at the stage
    /// barrier (the in-place dataflow makes later butterflies of the
    /// *next* stage depend on this stage's results).
    pub fn run(&self, input: &[Cplx], inverse: bool) -> (Vec<Cplx>, u64) {
        let n = input.len();
        assert!(n.is_power_of_two() && n >= 2);
        let mut unit = ButterflyUnit::new(self.fmt, self.mode, self.mult_stages, self.add_stages);
        let mut data = input.to_vec();
        bit_reverse_permute(&mut data);

        let mut len = 2;
        while len <= n {
            // Issue all butterflies of this stage back to back.
            let mut jobs: Vec<(usize, usize)> = Vec::with_capacity(n / 2);
            for start in (0..n).step_by(len) {
                for k in 0..len / 2 {
                    jobs.push((start + k, start + k + len / 2));
                }
            }
            let mut retired = 0usize;
            let mut issued = 0usize;
            let mut inflight: std::collections::VecDeque<(usize, usize)> =
                std::collections::VecDeque::new();
            while retired < jobs.len() {
                let input = if issued < jobs.len() {
                    let (i, j) = jobs[issued];
                    let k = jobs[issued].0 % len; // position within the group
                    let w = twiddle(self.fmt, k, len, inverse);
                    issued += 1;
                    inflight.push_back((i, j));
                    Some((data[i], data[j], w))
                } else {
                    None
                };
                if let Some((nx, ny, _)) = unit.clock(input) {
                    let (i, j) = inflight.pop_front().expect("retire order");
                    data[i] = nx;
                    data[j] = ny;
                    retired += 1;
                }
            }
            len *= 2;
        }
        (data, unit.cycles)
    }

    /// Analytical cycle model: `log₂n` stages of `n/2` issues plus one
    /// pipeline drain per stage barrier.
    pub fn cycle_model(&self, n: usize) -> u64 {
        let stages = n.trailing_zeros() as u64;
        let latency = (self.mult_stages + 2 * self.add_stages) as u64;
        stages * (n as u64 / 2 + latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FpFormat = FpFormat::SINGLE;
    const RM: RoundMode = RoundMode::NearestEven;

    fn signal(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|i| Cplx::from_f64(F, (i as f64 * 0.37).sin(), (i as f64 * 0.21).cos() * 0.5))
            .collect()
    }

    /// Plain f64 DFT for accuracy checks.
    fn dft_f64(input: &[Cplx], inverse: bool) -> Vec<(f64, f64)> {
        let n = input.len();
        let sgn = if inverse { 1.0 } else { -1.0 };
        (0..n)
            .map(|k| {
                let mut re = 0.0;
                let mut im = 0.0;
                for (j, c) in input.iter().enumerate() {
                    let (xr, xi) = c.to_f64(F);
                    let ang = sgn * 2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                    re += xr * ang.cos() - xi * ang.sin();
                    im += xr * ang.sin() + xi * ang.cos();
                }
                (re, im)
            })
            .collect()
    }

    #[test]
    fn engine_matches_reference_bit_exact() {
        for n in [2usize, 4, 8, 16, 64] {
            let x = signal(n);
            let eng = FftEngine::new(F, RM, 5, 7);
            let (got, _) = eng.run(&x, false);
            let want = reference_fft(F, RM, &x, false);
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn matches_f64_dft() {
        let n = 32;
        let x = signal(n);
        let eng = FftEngine::new(F, RM, 7, 9);
        let (got, _) = eng.run(&x, false);
        let want = dft_f64(&x, false);
        for (g, (wr, wi)) in got.iter().zip(&want) {
            let (gr, gi) = g.to_f64(F);
            assert!((gr - wr).abs() < 1e-3, "{gr} vs {wr}");
            assert!((gi - wi).abs() < 1e-3, "{gi} vs {wi}");
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let n = 16;
        let mut x = vec![Cplx::zero(); n];
        x[0] = Cplx::from_f64(F, 1.0, 0.0);
        let eng = FftEngine::new(F, RM, 4, 5);
        let (got, _) = eng.run(&x, false);
        for g in &got {
            let (re, im) = g.to_f64(F);
            assert!((re - 1.0).abs() < 1e-6 && im.abs() < 1e-6, "({re}, {im})");
        }
    }

    #[test]
    fn forward_then_inverse_recovers_signal() {
        let n = 32;
        let x = signal(n);
        let eng = FftEngine::new(F, RM, 6, 8);
        let (fwd, _) = eng.run(&x, false);
        let (back, _) = eng.run(&fwd, true);
        // inverse lacks the 1/n scale: compare back/n against x
        for (b, orig) in back.iter().zip(&x) {
            let (br, bi) = b.to_f64(F);
            let (or_, oi) = orig.to_f64(F);
            assert!((br / n as f64 - or_).abs() < 1e-4, "{br} vs {or_}");
            assert!((bi / n as f64 - oi).abs() < 1e-4);
        }
    }

    #[test]
    fn cycle_model_matches_engine() {
        for n in [4usize, 16, 64] {
            let eng = FftEngine::new(F, RM, 5, 7);
            let (_, cycles) = eng.run(&signal(n), false);
            assert_eq!(cycles, eng.cycle_model(n), "n = {n}");
        }
    }

    #[test]
    fn latency_changes_cycles_not_values() {
        let x = signal(16);
        let shallow = FftEngine::new(F, RM, 2, 3).run(&x, false);
        let deep = FftEngine::new(F, RM, 9, 12).run(&x, false);
        assert_eq!(shallow.0, deep.0, "pipeline depth must not change values");
        assert!(
            deep.1 > shallow.1,
            "deep pipes pay more drain at stage barriers"
        );
    }

    #[test]
    fn batched_matches_per_cycle_bit_exact() {
        for n in [2usize, 4, 16, 64] {
            let x = signal(n);
            for inverse in [false, true] {
                let eng = FftEngine::new(F, RM, 5, 7);
                let (want, want_cycles) = eng.run(&x, inverse);
                let (got, got_cycles) = (reference_fft(F, RM, &x, inverse), eng.cycle_model(n));
                assert_eq!(got, want, "n = {n} inverse = {inverse}");
                assert_eq!(got_cycles, want_cycles, "cycles n = {n}");
                assert_eq!(got_cycles, eng.cycle_model(n), "model n = {n}");
            }
        }
    }

    #[test]
    fn twiddle_table_at_stride_equals_stage_twiddles() {
        for fmt in FpFormat::PAPER_PRECISIONS {
            for inverse in [false, true] {
                for n in (1..=11).map(|b| 1usize << b) {
                    let table: Vec<Cplx> =
                        (0..n / 2).map(|j| twiddle(fmt, j, n, inverse)).collect();
                    let mut len = 2;
                    while len <= n {
                        for k in 0..len / 2 {
                            assert_eq!(
                                table[k * (n / len)],
                                twiddle(fmt, k, len, inverse),
                                "{fmt:?} n={n} len={len} k={k} inverse={inverse}"
                            );
                        }
                        len *= 2;
                    }
                }
            }
        }
    }

    #[test]
    fn butterfly_unit_area_counts() {
        let tech = fpfpga_fabric::tech::Tech::virtex2pro();
        let units = UnitSet::with_stages(
            F,
            8,
            4,
            &tech,
            fpfpga_fabric::synthesis::SynthesisOptions::SPEED,
        );
        let a = ButterflyUnit::area(&units);
        assert_eq!(a.bmults, 4 * units.multiplier.bmults);
        assert!(a.luts > 4.0 * units.multiplier.luts as f64);
    }

    #[test]
    fn bit_reverse_is_involution() {
        let mut v = signal(16);
        let orig = v.clone();
        bit_reverse_permute(&mut v);
        assert_ne!(v, orig);
        bit_reverse_permute(&mut v);
        assert_eq!(v, orig);
    }
}

//! LU decomposition kernel — the follow-on architecture of the same
//! research group (Govindu, Choi, Prasanna, *"A High-Performance and
//! Energy-efficient Architecture for Floating-point based LU
//! Decomposition on FPGAs"*), built from this library's units.
//!
//! Per elimination step `k`:
//!
//! 1. a **divider** streams the column multipliers
//!    `l[i][k] = a[i][k] / a[k][k]` at one per cycle (the serial tail of
//!    the algorithm — digit-recurrence latency is paid once per step,
//!    not per element);
//! 2. an array of `p` **fused MAC** PEs streams the rank-1 update
//!    `a[i][j] ← fma(−l[i][k], a[k][j], a[i][j])` at one per PE per
//!    cycle. Every element is touched once per step, so the update is
//!    hazard-free at any pipeline depth — the same discipline as the
//!    matmul kernel with `n ≥ PL`.
//!
//! Doolittle form, no pivoting: intended for diagonally dominant or
//! pre-pivoted systems (the hardware the companion paper describes makes
//! the same assumption). A pivot that is or becomes zero is divided by
//! like any other, as that hardware would: the multipliers come out ±∞
//! with `div_by_zero` raised, or NaN with `invalid` for 0/0.

use crate::matrix::Matrix;
use fpfpga_fpu::mac::FusedMacUnit;
use fpfpga_fpu::sim::{DelayLineUnit, DelayOp, FpPipe};
use fpfpga_fpu::FusedMacDesign;
use fpfpga_softfp::{div_bits_into, fma_rank1_bits, Flags, FpFormat, RoundMode, SoftFloat};

/// A cycle-accurate LU engine.
pub struct LuEngine {
    fmt: FpFormat,
    mode: RoundMode,
    /// Divider pipeline stages.
    pub div_stages: u32,
    /// Fused-MAC pipeline stages.
    pub mac_stages: u32,
    /// Update PEs.
    pub p: u32,
}

/// The result of a factorization run.
pub struct LuResult {
    /// L (unit diagonal, implicit) and U packed in one matrix.
    pub lu: Matrix,
    /// Total cycles.
    pub cycles: u64,
    /// Division operations.
    pub divs: u64,
    /// Fused MAC operations.
    pub macs: u64,
    /// Accumulated exception flags.
    pub flags: Flags,
}

impl LuEngine {
    /// Configure an engine.
    pub fn new(
        fmt: FpFormat,
        mode: RoundMode,
        div_stages: u32,
        mac_stages: u32,
        p: u32,
    ) -> LuEngine {
        assert!(p >= 1);
        LuEngine {
            fmt,
            mode,
            div_stages,
            mac_stages,
            p,
        }
    }

    /// Factor `a` in place (cycle-accurately).
    pub fn factor(&self, a: &Matrix) -> LuResult {
        let n = a.rows();
        assert_eq!(a.cols(), n, "LU needs a square matrix");
        let mut m = a.clone();
        let mut cycles = 0u64;
        let mut divs = 0u64;
        let mut macs = 0u64;
        let mut flags = Flags::NONE;

        let mac_design = FusedMacDesign {
            format: self.fmt,
            round: self.mode,
        };

        for k in 0..n {
            let pivot = m.get(k, k);
            let rows: Vec<usize> = (k + 1..n).collect();
            if rows.is_empty() {
                break;
            }

            // --- Phase 1: stream the column through the divider.
            let mut div = DelayLineUnit::new(self.fmt, self.mode, DelayOp::Div, self.div_stages);
            let mut ls: Vec<u64> = Vec::with_capacity(rows.len());
            let mut issued = 0usize;
            while ls.len() < rows.len() {
                cycles += 1;
                let input = rows.get(issued).map(|&i| {
                    issued += 1;
                    divs += 1;
                    (m.get(i, k), pivot)
                });
                if let Some((q, f)) = div.clock(input) {
                    flags |= f;
                    ls.push(q);
                }
            }
            for (&i, &l) in rows.iter().zip(&ls) {
                m.set(i, k, l);
            }

            // --- Phase 2: the rank-1 update on p PEs. Jobs are dealt
            // round-robin; each PE streams its share at one per cycle.
            let jobs: Vec<(usize, usize)> = rows
                .iter()
                .flat_map(|&i| (k + 1..n).map(move |j| (i, j)))
                .collect();
            let mut pes: Vec<FusedMacUnit> = (0..self.p)
                .map(|_| mac_design.unit(self.mac_stages))
                .collect();
            let mut tags: Vec<std::collections::VecDeque<(usize, usize)>> = (0..self.p)
                .map(|_| std::collections::VecDeque::new())
                .collect();
            let mut retired = 0usize;
            let mut next = 0usize;
            while retired < jobs.len() {
                cycles += 1;
                for (pe_idx, pe) in pes.iter_mut().enumerate() {
                    let input = if next < jobs.len() && next % self.p as usize == pe_idx {
                        let (i, j) = jobs[next];
                        next += 1;
                        macs += 1;
                        tags[pe_idx].push_back((i, j));
                        let row_i = rows.iter().position(|&r| r == i).expect("row in step");
                        let neg_l = ls[row_i] ^ (1u64 << self.fmt.sign_shift());
                        Some((neg_l, m.get(k, j), m.get(i, j)))
                    } else {
                        None
                    };
                    if let Some((v, f)) = pe.clock(input) {
                        flags |= f;
                        let (i, j) = tags[pe_idx].pop_front().expect("tag for retirement");
                        m.set(i, j, v);
                        retired += 1;
                    }
                }
            }
        }

        LuResult {
            lu: m,
            cycles,
            divs,
            macs,
            flags,
        }
    }

    /// Serving's LU: [`LuEngine::factor`]'s operation order run straight
    /// on `fpfpga-softfp`, in place on a row-major copy of the matrix.
    /// Per elimination step, one [`div_bits_into`] call forms the
    /// multipliers from the pivot column (the divider's values), and one
    /// [`fma_rank1_bits`] call applies the whole trailing rank-1 update
    /// `a[i][j] ← fma(−l[i], a[k][j], a[i][j])` to the `r × r` block where
    /// it lies, so each step has one sub-chunk tail. Every element is
    /// touched once per step, so values and flags equal the per-cycle
    /// simulation; `cycles` is [`LuEngine::cycle_model`] (pinned to the
    /// simulator's counter) and the operation counts are closed-form.
    /// Needs the calling thread in Rust's default FP environment, as the
    /// softfp batch entry points do.
    pub fn factor_batched(&self, a: &Matrix) -> LuResult {
        let n = a.rows();
        assert_eq!(a.cols(), n, "LU needs a square matrix");
        let (fmt, mode) = (self.fmt, self.mode);
        let sign = 1u64 << fmt.sign_shift();
        // The matrix, then one step's scratch in the same allocation: the
        // pivot column (then the negated multipliers), the pivot repeated,
        // and the quotients.
        let mut m = Vec::with_capacity(n * n + 3 * n);
        m.extend_from_slice(a.data());
        m.resize(n * n + 3 * n, 0);
        let (lu, scratch) = m.split_at_mut(n * n);
        let (col, rest) = scratch.split_at_mut(n);
        let (pivots, quotients) = rest.split_at_mut(n);
        let mut flags = Flags::NONE;

        for k in 0..n {
            let r = n - k - 1;
            if r == 0 {
                break;
            }
            let (top, below) = lu.split_at_mut((k + 1) * n);
            let (pivot, u) = (top[k * n + k], &top[k * n + k + 1..]);
            let (col, pivots, quotients) = (&mut col[..r], &mut pivots[..r], &mut quotients[..r]);
            for (c, row) in col.iter_mut().zip(below.chunks_exact(n)) {
                *c = row[k];
            }
            pivots.fill(pivot);
            flags |= div_bits_into(fmt, col, pivots, mode, quotients);
            for ((row, neg_l), &l) in below
                .chunks_exact_mut(n)
                .zip(col.iter_mut())
                .zip(&*quotients)
            {
                row[k] = l;
                *neg_l = l ^ sign;
            }
            flags |= fma_rank1_bits(fmt, col, u, &mut below[k + 1..], n, mode);
        }
        m.truncate(n * n);

        LuResult {
            lu: Matrix::from_bits(a.format(), n, n, m),
            cycles: self.cycle_model(n),
            divs: (n * n.saturating_sub(1) / 2) as u64,
            macs: (1..n).map(|r| (r * r) as u64).sum(),
            flags,
        }
    }

    /// Analytical cycle model (must equal the simulator's counter).
    pub fn cycle_model(&self, n: usize) -> u64 {
        let mut cycles = 0u64;
        for k in 0..n {
            let r = (n - k - 1) as u64;
            if r == 0 {
                break;
            }
            cycles += r + self.div_stages as u64; // divider stream + drain
                                                  // p jobs issue per cycle; the last one drains the MAC pipe.
            let jobs = r * r;
            cycles += issue_span(jobs, self.p as u64) + self.mac_stages as u64;
        }
        cycles
    }

    /// The engine's exact operation order in plain `SoftFloat` calls.
    pub fn reference(&self, a: &Matrix) -> Matrix {
        let n = a.rows();
        let mut m = a.clone();
        for k in 0..n {
            let pivot = m.get(k, k);
            for i in k + 1..n {
                let (l, _) = fpfpga_softfp::div_bits(self.fmt, m.get(i, k), pivot, self.mode);
                m.set(i, k, l);
            }
            for i in k + 1..n {
                let neg_l = m.get(i, k) ^ (1u64 << self.fmt.sign_shift());
                for j in k + 1..n {
                    let (v, _) = fpfpga_softfp::fma_bits(
                        self.fmt,
                        neg_l,
                        m.get(k, j),
                        m.get(i, j),
                        self.mode,
                    );
                    m.set(i, j, v);
                }
            }
        }
        m
    }
}

/// Cycles from the first issue to the last issue+1 when `jobs` are dealt
/// round-robin to `p` lanes (lane `t % p` issues at cycle `t/p`).
fn issue_span(jobs: u64, p: u64) -> u64 {
    jobs.div_ceil(p)
}

/// Reconstruct `L·U` (unit-diagonal L) for verification.
pub fn reconstruct(lu: &Matrix, mode: RoundMode) -> Matrix {
    let fmt = lu.format();
    let n = lu.rows();
    let mut c = Matrix::zero(fmt, n, n);
    for i in 0..n {
        for j in 0..n {
            let mut acc = SoftFloat::zero(fmt);
            for k in 0..=i.min(j) {
                let l = if k == i {
                    SoftFloat::one(fmt)
                } else {
                    SoftFloat::from_bits(fmt, lu.get(i, k))
                };
                let u = SoftFloat::from_bits(fmt, lu.get(k, j));
                let (r, _) = acc.mac(&l, &u, mode);
                acc = r;
            }
            c.set(i, j, acc.bits());
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FpFormat = FpFormat::SINGLE;
    const RM: RoundMode = RoundMode::NearestEven;

    fn dd_matrix(n: usize) -> Matrix {
        dd_matrix_in(F, n)
    }

    fn dd_matrix_in(fmt: FpFormat, n: usize) -> Matrix {
        Matrix::from_fn(fmt, n, n, |i, j| {
            if i == j {
                12.0 + i as f64
            } else {
                ((i * n + j) as f64 * 0.23).sin()
            }
        })
    }

    #[test]
    fn matches_reference_bit_exact() {
        for (n, p, ds, ms) in [(4usize, 1u32, 5u32, 3u32), (8, 3, 12, 6), (10, 4, 20, 8)] {
            let a = dd_matrix(n);
            let eng = LuEngine::new(F, RM, ds, ms, p);
            let got = eng.factor(&a);
            assert_eq!(got.lu, eng.reference(&a), "n={n} p={p}");
        }
    }

    #[test]
    fn reconstructs_a() {
        let n = 12;
        let a = dd_matrix(n);
        let eng = LuEngine::new(F, RM, 16, 6, 4);
        let r = eng.factor(&a);
        let back = reconstruct(&r.lu, RM);
        assert!(
            back.max_abs_diff(&a) < 1e-4,
            "err = {}",
            back.max_abs_diff(&a)
        );
        assert_eq!(r.divs, (n * (n - 1) / 2) as u64);
        let expect_macs: u64 = (0..n).map(|k| ((n - k - 1) * (n - k - 1)) as u64).sum();
        assert_eq!(r.macs, expect_macs);
    }

    #[test]
    fn cycle_model_matches_simulation() {
        for (n, p, ds, ms) in [(4usize, 1u32, 4u32, 3u32), (8, 2, 10, 5), (9, 5, 7, 4)] {
            let a = dd_matrix(n);
            let eng = LuEngine::new(F, RM, ds, ms, p);
            let got = eng.factor(&a);
            assert_eq!(got.cycles, eng.cycle_model(n), "n={n} p={p}");
        }
    }

    #[test]
    fn more_pes_are_faster() {
        let n = 16;
        let a = dd_matrix(n);
        let slow = LuEngine::new(F, RM, 12, 6, 1).factor(&a).cycles;
        let fast = LuEngine::new(F, RM, 12, 6, 8).factor(&a).cycles;
        assert!(fast < slow / 2, "p=8 {fast} vs p=1 {slow}");
        // ... but the serial division chain bounds the speedup (Amdahl).
        let serial: u64 = (0..n).map(|k| (n - k - 1) as u64 + 12).sum();
        assert!(fast > serial, "cannot beat the divider tail");
    }

    #[test]
    fn pipeline_depths_do_not_change_values() {
        let a = dd_matrix(9);
        let x = LuEngine::new(F, RM, 5, 3, 2).factor(&a).lu;
        let y = LuEngine::new(F, RM, 30, 11, 2).factor(&a).lu;
        assert_eq!(x, y);
    }

    #[test]
    fn batched_matches_per_cycle_bit_exact() {
        for fmt in FpFormat::PAPER_PRECISIONS {
            for (n, p, ds, ms) in [
                (1usize, 1u32, 4u32, 3u32),
                (4, 1, 5, 3),
                (8, 3, 12, 6),
                (10, 4, 20, 8),
                (17, 2, 8, 6),
                (24, 5, 6, 4),
            ] {
                let a = dd_matrix_in(fmt, n);
                let eng = LuEngine::new(fmt, RM, ds, ms, p);
                let per_cycle = eng.factor(&a);
                let batched = eng.factor_batched(&a);
                let at = format!("{fmt:?} n={n} p={p}");
                assert_eq!(batched.lu, per_cycle.lu, "{at}");
                assert_eq!(batched.cycles, per_cycle.cycles, "cycles {at}");
                assert_eq!(batched.cycles, eng.cycle_model(n), "model {at}");
                assert_eq!(batched.divs, per_cycle.divs, "divs {at}");
                assert_eq!(batched.macs, per_cycle.macs, "macs {at}");
                assert_eq!(batched.flags, per_cycle.flags, "flags {at}");
            }
        }
    }

    /// A 10 × 10 matrix whose second pivot vanishes after the first step,
    /// over a full 8-row column: rows 2–9 keep `1 + column[i − 2]` in
    /// column 1 (so the column is `column` after the first step) and are
    /// diagonally dominant elsewhere.
    fn vanishing_second_pivot(column: [f64; 8]) -> Vec<f64> {
        let n = 10;
        let mut a = vec![0.0; n * n];
        for j in 0..n {
            a[j] = 1.0;
            a[n + j] = if j < 2 { 1.0 } else { 2.0 };
        }
        for i in 2..n {
            for j in 0..n {
                a[i * n + j] = match j {
                    0 => 1.0,
                    1 => 1.0 + column[i - 2],
                    _ if j == i => 20.0,
                    _ => 1.0 + ((i * n + j) as f64 * 0.37).sin(),
                };
            }
        }
        a
    }

    #[test]
    fn zero_pivot_gives_ieee_results() {
        // The last pivot vanishes (nothing left to divide); a mid pivot
        // vanishes over a nonzero column (1/0), or over a zero one (0/0).
        // At n = 10 the vanishing pivot divides a full chunk of 8 column
        // entries, so the wide divide's special select runs: all x/0, all
        // 0/0, and both in one chunk. The x/0 multipliers are ±∞, so the
        // later steps also divide ∞ by ∞ (`invalid`).
        let x_over_0 = [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 2.0, 3.0];
        let zero_over_0 = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0];
        let wide_x_over_0 = vanishing_second_pivot([1.0, -2.0, 3.0, 0.5, -1.0, 4.0, 2.0, -3.0]);
        let wide_zero_over_0 = vanishing_second_pivot([0.0; 8]);
        let wide_mixed = vanishing_second_pivot([0.0, 1.0, 0.0, -2.0, 0.0, 0.0, 3.0, 0.0]);
        for (n, entries, div_by_zero, invalid) in [
            (2, &[1.0; 4][..], false, false),
            (3, &x_over_0[..], true, false),
            (3, &zero_over_0[..], false, true),
            (10, &wide_x_over_0[..], true, true),
            (10, &wide_zero_over_0[..], false, true),
            (10, &wide_mixed[..], true, true),
        ] {
            let a = Matrix::from_f64(F, n, n, entries);
            let eng = LuEngine::new(F, RM, 4, 3, 2);
            let (r, s) = (eng.factor_batched(&a), eng.factor(&a));
            let summary = |r: &LuResult| (r.lu.clone(), r.cycles, r.divs, r.macs, r.flags);
            assert_eq!(summary(&r), summary(&s));
            assert_eq!(r.lu, eng.reference(&a));
            assert_eq!(r.flags.div_by_zero, div_by_zero);
            assert_eq!(r.flags.invalid, invalid);
        }
    }
}

//! Matrix-vector multiplication: `y = A·x` on a linear array.
//!
//! Each PE owns an interleaved set of matrix rows (`PE j` holds rows
//! `j, j+p, j+2p, …` in block RAM) and a [`DotProductUnit`][crate::dot::DotProductUnit]-style banked
//! accumulator; the vector `x` streams through the array once, and every
//! PE consumes each element against all of its rows' entries for that
//! column — one MAC per PE per cycle, the same full-utilization
//! discipline as the matmul kernel.
//!
//! Because one `x` element must feed `rows_per_pe` MACs, the stream
//! advances one column every `rows_per_pe` cycles: the architecture is
//! compute-bound (as MVM on FPGAs is memory-bound in practice, this is
//! the configuration that keeps every FP unit busy, which is the
//! regime the paper's throughput analysis assumes).

use crate::dot::interleaved_reference;
use crate::matrix::Matrix;
use fpfpga_fpu::sim::{DelayLineUnit, DelayOp, FpPipe};
use fpfpga_softfp::{add_bits, Flags, FpFormat, RoundMode};
use std::collections::VecDeque;

/// One MVM processing element: several matrix rows + a banked MAC.
struct MvmPe {
    /// Rows owned by this PE (row-major, one `Vec` per owned row).
    rows: Vec<Vec<u64>>,
    mult: DelayLineUnit,
    add: DelayLineUnit,
    /// bank[r][s]: partial sum s of owned row r.
    bank: Vec<Vec<u64>>,
    /// Delays each MAC's (row, slot) tag by the multiplier latency so it
    /// meets its product at the adder input.
    tag_line: VecDeque<Option<(usize, usize)>>,
    add_meta: VecDeque<Option<(usize, usize)>>,
    flags: Flags,
}

impl MvmPe {
    fn new(fmt: FpFormat, mode: RoundMode, lm: u32, la: u32, rows: Vec<Vec<u64>>) -> MvmPe {
        let banks = rows.len();
        MvmPe {
            rows,
            mult: DelayLineUnit::new(fmt, mode, DelayOp::Mul, lm),
            add: DelayLineUnit::new(fmt, mode, DelayOp::Add, la),
            bank: (0..banks).map(|_| vec![0; la as usize]).collect(),
            tag_line: (0..lm).map(|_| None).collect(),
            add_meta: (0..la).map(|_| None).collect(),
            flags: Flags::NONE,
        }
    }

    /// One clock: optionally issue the MAC (x element, column k, owned
    /// row index r).
    fn clock(&mut self, issue: Option<(u64, usize, usize)>) {
        let retiring = *self.add_meta.front().expect("meta non-empty");
        if let (Some((s, sf)), Some((r, slot))) = (self.add.peek(), retiring) {
            self.flags |= sf;
            self.bank[r][slot] = s;
        }
        let mult_in = issue.map(|(x, k, r)| (x, self.rows[r][k]));
        let product = self.mult.clock(mult_in);
        // The (row, slot) tag travels alongside: slot is chosen from the
        // issue column so each bank slot is revisited ≥ La cycles later.
        let tag = issue.map(|(_, k, r)| (r, k % self.bank[0].len()));
        // Delay the tag by the multiplier latency to meet the product.
        self.tag_line.push_back(tag);
        let tag_now = self.tag_line.pop_front().expect("tag line non-empty");
        debug_assert_eq!(product.is_some(), tag_now.is_some());
        let add_in = match (product, tag_now) {
            (Some((p, pf)), Some((r, slot))) => {
                self.flags |= pf;
                self.add_meta.push_back(Some((r, slot)));
                Some((p, self.bank[r][slot]))
            }
            _ => {
                self.add_meta.push_back(None);
                None
            }
        };
        self.add.clock(add_in);
        self.add_meta.pop_front();
    }
}

/// A matrix-vector engine of `p` PEs.
pub struct MvmEngine {
    fmt: FpFormat,
    mode: RoundMode,
    p: usize,
    lm: u32,
    la: u32,
}

impl MvmEngine {
    /// Configure an engine.
    pub fn new(
        fmt: FpFormat,
        mode: RoundMode,
        mult_stages: u32,
        add_stages: u32,
        p: usize,
    ) -> MvmEngine {
        assert!(p >= 1);
        MvmEngine {
            fmt,
            mode,
            p,
            lm: mult_stages,
            la: add_stages,
        }
    }

    /// Compute `y = A·x` cycle-accurately. Returns `(y, cycles)`.
    pub fn multiply(&self, a: &Matrix, x: &[u64]) -> (Vec<u64>, u64) {
        let n = a.rows();
        assert_eq!(a.cols(), x.len(), "dimension mismatch");
        // Distribute rows round-robin over PEs.
        let mut pes: Vec<MvmPe> = (0..self.p)
            .map(|j| {
                let rows: Vec<Vec<u64>> = (j..n)
                    .step_by(self.p)
                    .map(|i| (0..a.cols()).map(|k| a.get(i, k)).collect())
                    .collect();
                MvmPe::new(self.fmt, self.mode, self.lm, self.la, rows)
            })
            .collect();

        let rows_per_pe = n.div_ceil(self.p);
        let mut cycles = 0u64;
        // Stream: column k occupies rows_per_pe consecutive cycles; in
        // cycle (k, r) every PE MACs x[k] against its r-th owned row.
        // Hazard check: bank slot (r, k % La) is reused after exactly
        // rows_per_pe · La ≥ La cycles.
        for (k, &xk) in x.iter().enumerate() {
            for r in 0..rows_per_pe {
                cycles += 1;
                for pe in pes.iter_mut() {
                    let issue = if r < pe.rows.len() {
                        Some((xk, k, r))
                    } else {
                        None
                    };
                    pe.clock(issue);
                }
            }
        }
        // Drain.
        for _ in 0..(self.lm + self.la + 2) {
            cycles += 1;
            for pe in pes.iter_mut() {
                pe.clock(None);
            }
        }
        // Fold the banks (sequencer; charged at La cycles per fold level
        // per row — a small tail).
        let mut y = vec![0u64; n];
        for (j, pe) in pes.iter().enumerate() {
            for (r, bank) in pe.bank.iter().enumerate() {
                let i = j + r * self.p;
                let folded = fold_bank(self.fmt, self.mode, bank);
                y[i] = folded;
            }
        }
        cycles += fold_cycles(self.la);
        (y, cycles)
    }

    /// The reference with the engine's exact accumulation order.
    pub fn reference(&self, a: &Matrix, x: &[u64]) -> Vec<u64> {
        let n = a.rows();
        (0..n)
            .map(|i| {
                let row: Vec<u64> = (0..a.cols()).map(|k| a.get(i, k)).collect();
                interleaved_reference(self.fmt, self.mode, &row, x, self.la as usize)
            })
            .collect()
    }
}

/// The bank-fold sequencer's charge: `La` cycles per fold level.
pub(crate) fn fold_cycles(la: u32) -> u64 {
    la as u64 * (la as f64).log2().ceil() as u64
}

/// Pairwise fold of a partial-sum bank (same order as the dot kernel).
fn fold_bank(fmt: FpFormat, mode: RoundMode, bank: &[u64]) -> u64 {
    let mut live = bank.to_vec();
    while live.len() > 1 {
        let mut next = Vec::with_capacity(live.len().div_ceil(2));
        let mut i = 0;
        while i + 1 < live.len() {
            next.push(add_bits(fmt, live[i], live[i + 1], mode).0);
            i += 2;
        }
        if i < live.len() {
            next.push(live[i]);
        }
        live = next;
    }
    live[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpfpga_softfp::SoftFloat;

    const F: FpFormat = FpFormat::SINGLE;
    const RM: RoundMode = RoundMode::NearestEven;

    fn sample(n: usize, m: usize) -> (Matrix, Vec<u64>) {
        let a = Matrix::from_fn(F, n, m, |i, j| ((i * m + j) as f64 * 0.19).sin());
        let x: Vec<u64> = (0..m)
            .map(|k| SoftFloat::from_f64(F, (k as f64 * 0.31).cos()).bits())
            .collect();
        (a, x)
    }

    #[test]
    fn matches_interleaved_reference() {
        for (n, p) in [(6usize, 2usize), (8, 4), (9, 3), (5, 5), (7, 2)] {
            let (a, x) = sample(n, n);
            let eng = MvmEngine::new(F, RM, 4, 5, p);
            let (y, _) = eng.multiply(&a, &x);
            assert_eq!(y, eng.reference(&a, &x), "n={n} p={p}");
        }
    }

    #[test]
    fn batched_matches_per_cycle_bit_exact() {
        let policy = fpfpga_softfp::PrecisionPolicy::uniform(F);
        for (n, m, p) in [
            (6usize, 6usize, 2usize),
            (8, 8, 4),
            (9, 9, 3),
            (6, 10, 3),
            (5, 5, 5),
        ] {
            let (a, x) = sample(n, m);
            let eng = MvmEngine::new(F, RM, 4, 5, p);
            let (y_seq, c_seq) = eng.multiply(&a, &x);
            let (y_pol, _, c_pol) = crate::mixed::mixed_mvm(policy, RM, &a, &x, 4, 5, p);
            assert_eq!(y_pol, y_seq, "values n={n} m={m} p={p}");
            assert_eq!(c_pol, c_seq, "cycles n={n} m={m} p={p}");
        }
    }

    #[test]
    fn rectangular_matrices() {
        let (a, x) = sample(6, 10);
        let eng = MvmEngine::new(F, RM, 3, 6, 3);
        let (y, _) = eng.multiply(&a, &x);
        assert_eq!(y, eng.reference(&a, &x));
        assert_eq!(y.len(), 6);
    }

    #[test]
    fn close_to_f64() {
        let (a, x) = sample(16, 16);
        let eng = MvmEngine::new(F, RM, 7, 9, 4);
        let (y, _) = eng.multiply(&a, &x);
        for (i, &yi) in y.iter().enumerate() {
            let exact: f64 = (0..16)
                .map(|k| a.get_f64(i, k) * SoftFloat::from_bits(F, x[k]).to_f64())
                .sum();
            let got = SoftFloat::from_bits(F, yi).to_f64();
            assert!((got - exact).abs() < 1e-4, "row {i}: {got} vs {exact}");
        }
    }

    #[test]
    fn cycle_count_scales_with_work_per_pe() {
        let (a, x) = sample(16, 16);
        let fast = MvmEngine::new(F, RM, 4, 5, 16);
        let slow = MvmEngine::new(F, RM, 4, 5, 4);
        let (_, c_fast) = fast.multiply(&a, &x);
        let (_, c_slow) = slow.multiply(&a, &x);
        // 4 PEs do 4x the per-PE work of 16 PEs.
        assert!(c_slow > 3 * c_fast / 2, "c_slow={c_slow} c_fast={c_fast}");
    }
}

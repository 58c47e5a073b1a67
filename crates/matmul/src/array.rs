//! The linear array: n processing elements connected by token shift
//! registers, plus the stream driver.

use crate::matrix::Matrix;
use crate::pe::{PeStats, ProcessingElement, UnitBackend};
use crate::schedule::Token;
use fpfpga_softfp::{Flags, FpFormat, RoundMode};

/// A linear array of PEs computing `C = A·B` (with accumulation into
/// whatever `C` the PEs currently hold, enabling block composition).
pub struct LinearArray {
    fmt: FpFormat,
    pes: Vec<ProcessingElement>,
    mult_stages: u32,
    add_stages: u32,
    /// Total clock cycles consumed so far (across all calls).
    pub cycles: u64,
}

/// Aggregate run statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArrayStats {
    /// Clock cycles of the run.
    pub cycles: u64,
    /// Sum of per-PE useful MAC issues.
    pub useful_macs: u64,
    /// Sum of per-PE padding MAC issues.
    pub pad_macs: u64,
    /// Sum of per-PE idle cycles.
    pub idle_cycles: u64,
    /// Sum of per-PE BRAM accesses.
    pub bram_accesses: u64,
}

impl ArrayStats {
    /// Accumulate another run's counters into this one (used when a
    /// blocked plan sums the stats of its per-tile arrays).
    pub fn merge(&mut self, other: ArrayStats) {
        self.cycles += other.cycles;
        self.useful_macs += other.useful_macs;
        self.pad_macs += other.pad_macs;
        self.idle_cycles += other.idle_cycles;
        self.bram_accesses += other.bram_accesses;
    }
}

impl LinearArray {
    /// An array of `p` PEs holding `n`-row columns.
    pub fn new(
        fmt: FpFormat,
        mode: RoundMode,
        mult_stages: u32,
        add_stages: u32,
        p: usize,
        n: usize,
        backend: UnitBackend,
    ) -> LinearArray {
        LinearArray {
            fmt,
            pes: (0..p)
                .map(|_| ProcessingElement::new(fmt, mode, mult_stages, add_stages, n, backend))
                .collect(),
            mult_stages,
            add_stages,
            cycles: 0,
        }
    }

    /// Number of PEs.
    pub fn p(&self) -> usize {
        self.pes.len()
    }

    /// Combined MAC latency.
    pub fn pl(&self) -> u32 {
        self.mult_stages + self.add_stages
    }

    /// Load the first `cols` columns of `b` into `bank`: PE `j` receives
    /// column `j`. Loading the inactive bank is safe while tokens
    /// reading the other bank are still in flight (double buffering, as
    /// in \[5\]). A whole `n×p` `B` loads with `cols = p`; a ragged edge
    /// tile of a zero-padded `b×b` block instantiates only its real
    /// columns as PEs (`p = cols`), so the zero-padded columns beyond
    /// `cols` never exist in hardware and can never pollute the
    /// exception flags.
    pub fn load_b_tile(&mut self, bank: bool, b: &Matrix, cols: usize) {
        assert_eq!(cols, self.pes.len(), "tile columns must match PE count");
        assert!(b.cols() >= cols, "tile narrower than its real columns");
        let n = b.rows();
        for (j, pe) in self.pes.iter_mut().enumerate() {
            let col: Vec<u64> = (0..n).map(|k| b.get(k, j)).collect();
            pe.load_b_column(bank, &col);
        }
    }

    /// Issue one zero-padded `b×b` `A` tile against `bank`, cycle by
    /// cycle, where only the first `rows` rows and `steps` k-steps carry
    /// real data. Every other slot of the `b·max(b,PL)` issue window is
    /// a [`Token::pad`] zero-operation: it burns the pipes (charged by
    /// the energy model) but never reads `B`, writes `C` or raises
    /// flags. No drain: in-flight operations keep running, so
    /// consecutive block products chain at full rate (accumulation stays
    /// hazard-free because any two updates of the same `C` entry are at
    /// least one padded period ≥ PL apart).
    pub fn stream_a_tile_from_bank(
        &mut self,
        a: &Matrix,
        rows: usize,
        steps: usize,
        bank: bool,
    ) -> u64 {
        let b = a.rows();
        assert_eq!(a.cols(), b, "A tile must be square (zero-padded)");
        assert!(
            self.pes.iter().all(|pe| pe.n() == b),
            "PE column height mismatch"
        );
        assert!((1..=b).contains(&rows) && (1..=b).contains(&steps));
        let start = self.cycles;
        let period = (b as u32).max(self.pl()) as usize;
        for k in 0..b {
            for slot in 0..period {
                let real = slot < rows && k < steps;
                let token = Token {
                    a: if real { a.get(slot, k) } else { 0 },
                    i: slot.min(rows - 1) as u32,
                    k: k as u32,
                    pad: !real,
                    bank,
                };
                self.clock(Some(token));
            }
        }
        self.cycles - start
    }

    /// Zero all accumulators.
    pub fn clear_c(&mut self) {
        for pe in &mut self.pes {
            pe.clear_c();
        }
    }

    /// Advance the whole array one clock, feeding `token` into PE 0.
    pub fn clock(&mut self, token: Option<Token>) {
        self.cycles += 1;
        let mut t = token;
        for pe in &mut self.pes {
            t = pe.clock(t);
        }
    }

    /// Stream one `A` (n×n) through the array, accumulating
    /// `C += A · B_loaded`. Returns the cycles this run consumed.
    ///
    /// The inner period is padded to the combined MAC latency when
    /// `n < PL`, keeping the accumulation hazard-free. This is the
    /// one-tile case of [`LinearArray::stream_a_tile_from_bank`] (every
    /// row and step real, in [`crate::schedule::Schedule::tokens`]
    /// order) plus a drain.
    pub fn stream_a(&mut self, a: &Matrix) -> u64 {
        let n = a.rows();
        self.stream_a_tile_from_bank(a, n, n, false) + self.drain()
    }

    /// Drain the array: the last token must traverse all PEs and both
    /// pipes before `C` is complete.
    pub fn drain(&mut self) -> u64 {
        let drain = self.pes.len() as u64 + self.pl() as u64 + 1;
        for _ in 0..drain {
            self.clock(None);
        }
        drain
    }

    /// Read the accumulated `C` (n×p).
    pub fn read_c(&self) -> Matrix {
        let n = self.pes[0].n();
        let mut c = Matrix::zero(self.fmt, n, self.pes.len());
        for (j, pe) in self.pes.iter().enumerate() {
            for (i, &bits) in pe.c_column().iter().enumerate() {
                c.set(i, j, bits);
            }
        }
        c
    }

    /// One-shot `C = A·B` for n×n operands on an n-PE array.
    pub fn multiply(
        fmt: FpFormat,
        mode: RoundMode,
        mult_stages: u32,
        add_stages: u32,
        a: &Matrix,
        b: &Matrix,
        backend: UnitBackend,
    ) -> (Matrix, ArrayStats) {
        let n = a.rows();
        assert_eq!(a.cols(), n);
        assert_eq!(b.rows(), n);
        assert_eq!(b.cols(), n);
        let mut arr = LinearArray::new(fmt, mode, mult_stages, add_stages, n, n, backend);
        arr.load_b_tile(false, b, n);
        arr.stream_a(a);
        let c = arr.read_c();
        (c, arr.stats())
    }

    /// Aggregate statistics across PEs.
    pub fn stats(&self) -> ArrayStats {
        let mut s = ArrayStats {
            cycles: self.cycles,
            ..Default::default()
        };
        for pe in &self.pes {
            let PeStats {
                useful_macs,
                pad_macs,
                idle_cycles,
                bram_accesses,
                ..
            } = pe.stats;
            s.useful_macs += useful_macs;
            s.pad_macs += pad_macs;
            s.idle_cycles += idle_cycles;
            s.bram_accesses += bram_accesses;
        }
        s
    }

    /// OR of all PEs' exception flags.
    pub fn flags(&self) -> Flags {
        self.pes.iter().fold(Flags::NONE, |acc, pe| acc | pe.flags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockMatMul;
    use crate::multi::{MultiMatMul, MultiStats};
    use crate::reference::reference_matmul;
    use crate::schedule::Schedule;

    const F: FpFormat = FpFormat::SINGLE;
    const RM: RoundMode = RoundMode::NearestEven;

    fn sample(n: usize, seed: f64) -> Matrix {
        Matrix::from_fn(F, n, n, |i, j| {
            ((i * n + j) as f64 * 0.37 + seed).sin() * 4.0
        })
    }

    #[test]
    fn identity_multiplication() {
        let a = sample(4, 0.0);
        let id = Matrix::identity(F, 4);
        let (c, _) = LinearArray::multiply(F, RM, 3, 4, &a, &id, UnitBackend::Fast);
        assert_eq!(c, a);
        let (c, _) = LinearArray::multiply(F, RM, 3, 4, &id, &a, UnitBackend::Fast);
        assert_eq!(c, a);
    }

    #[test]
    fn matches_reference_bit_exact() {
        for n in [2usize, 3, 5, 8] {
            let a = sample(n, 1.0);
            let b = sample(n, 2.0);
            let (c, _) = LinearArray::multiply(F, RM, 4, 5, &a, &b, UnitBackend::Fast);
            let want = reference_matmul(&a, &b, RM);
            assert_eq!(c, want, "n = {n}");
        }
    }

    #[test]
    fn deep_pipelines_still_correct_via_padding() {
        // n = 4 « PL = 21: without padding the accumulation would race.
        let a = sample(4, 3.0);
        let b = sample(4, 4.0);
        let (c, stats) = LinearArray::multiply(F, RM, 9, 12, &a, &b, UnitBackend::Fast);
        assert_eq!(c, reference_matmul(&a, &b, RM));
        assert!(stats.pad_macs > 0, "padding must have been injected");
        // per PE: (21-4) pads × 4 steps; × 4 PEs
        assert_eq!(stats.pad_macs, 17 * 4 * 4);
    }

    #[test]
    fn no_padding_when_large_enough() {
        let n = 12;
        let a = sample(n, 5.0);
        let b = sample(n, 6.0);
        let (c, stats) = LinearArray::multiply(F, RM, 4, 5, &a, &b, UnitBackend::Fast);
        assert_eq!(c, reference_matmul(&a, &b, RM));
        assert_eq!(stats.pad_macs, 0);
        assert_eq!(stats.useful_macs, (n * n * n) as u64);
    }

    #[test]
    fn cycle_count_matches_schedule_model() {
        let n = 8;
        let a = sample(n, 7.0);
        let b = sample(n, 8.0);
        let mut arr = LinearArray::new(F, RM, 4, 5, n, n, UnitBackend::Fast);
        arr.load_b_tile(false, &b, n);
        let cycles = arr.stream_a(&a);
        let sched = Schedule::new(n as u32, 9);
        // issue + (p PEs + PL + 1) drain
        assert_eq!(cycles, sched.issue_cycles() + n as u64 + 9 + 1);
    }

    #[test]
    fn accumulation_across_streams() {
        // Streaming two A matrices against the same B accumulates:
        // C = (A1 + A2)·B.
        let n = 6;
        let a1 = sample(n, 9.0);
        let a2 = sample(n, 10.0);
        let b = sample(n, 11.0);
        let mut arr = LinearArray::new(F, RM, 3, 4, n, n, UnitBackend::Fast);
        arr.load_b_tile(false, &b, n);
        arr.stream_a(&a1);
        arr.stream_a(&a2);
        let c = arr.read_c();
        // reference: accumulate in the same order (k of a1, then k of a2)
        let mut want = reference_matmul(&a1, &b, RM);
        for i in 0..n {
            for j in 0..n {
                let mut acc = fpfpga_softfp::SoftFloat::from_bits(F, want.get(i, j));
                for k in 0..n {
                    let x = fpfpga_softfp::SoftFloat::from_bits(F, a2.get(i, k));
                    let y = fpfpga_softfp::SoftFloat::from_bits(F, b.get(k, j));
                    let (r, _) = acc.mac(&x, &y, RM);
                    acc = r;
                }
                want.set(i, j, acc.bits());
            }
        }
        assert_eq!(c, want);
    }

    /// The `MultiMatMul` run of a square product: the cheapest plan
    /// (one `n×n` tile) on one array.
    fn planned(lm: u32, la: u32, a: &Matrix, b: &Matrix) -> (Matrix, MultiStats) {
        let n = a.rows() as u32;
        let plan = BlockMatMul::cheapest(n, n, n, lm + la).unwrap();
        MultiMatMul { plan, arrays: 1 }.run(RM, a, b, 1).unwrap()
    }

    #[test]
    fn batched_stream_is_bit_identical_to_per_cycle() {
        for backend in [UnitBackend::Fast, UnitBackend::Structural] {
            for (n, lm, la) in [(2usize, 3u32, 4u32), (5, 4, 5), (8, 9, 12), (12, 4, 5)] {
                let a = sample(n, n as f64);
                let b = sample(n, n as f64 + 0.5);
                let (c_seq, s_seq) = LinearArray::multiply(F, RM, lm, la, &a, &b, backend);
                let (c_bat, ms) = planned(lm, la, &a, &b);
                assert_eq!(c_seq, c_bat, "values n={n} lm={lm} la={la} {backend:?}");
                assert_eq!(s_seq, ms.total, "stats n={n} lm={lm} la={la} {backend:?}");
            }
        }
    }

    #[test]
    fn batched_stream_flags_match() {
        let a = Matrix::from_f64(F, 2, 2, &[f32::MAX as f64; 4]);
        let b = Matrix::from_f64(F, 2, 2, &[f32::MAX as f64; 4]);
        let mut arr = LinearArray::new(F, RM, 3, 4, 2, 2, UnitBackend::Fast);
        arr.load_b_tile(false, &b, 2);
        arr.stream_a(&a);
        let (_, ms) = planned(3, 4, &a, &b);
        assert_eq!(arr.flags(), ms.flags);
        assert!(ms.flags.overflow);
    }

    #[test]
    fn flags_propagate_from_pes() {
        // Overflowing products raise flags visible at the array level.
        let a = Matrix::from_f64(F, 2, 2, &[f32::MAX as f64; 4]);
        let b = Matrix::from_f64(F, 2, 2, &[f32::MAX as f64; 4]);
        let mut arr = LinearArray::new(F, RM, 3, 4, 2, 2, UnitBackend::Fast);
        arr.load_b_tile(false, &b, 2);
        arr.stream_a(&a);
        assert!(arr.flags().overflow);
    }
}

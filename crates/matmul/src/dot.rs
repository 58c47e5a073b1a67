//! Dot-product kernel: the other canonical "matrix and vector
//! operations" building block from the paper's application domain.
//!
//! A dot product is a *reduction*, so the deeply pipelined adder's
//! latency bites differently than in matmul: a single running
//! accumulator would stall `La` cycles per element. The classical fix —
//! used here — is a bank of `La` partial accumulators addressed
//! round-robin: each bank slot is touched once every `La` cycles, which
//! is exactly the adder's latency, so the recurrence is hazard-free at
//! full rate (the same "schedule around the latency" discipline the
//! paper applies to matmul). A final pairwise combine folds the bank.
//!
//! The accumulation *order* therefore differs from a sequential sum;
//! [`interleaved_reference`] reproduces it exactly, and the simulator is
//! tested bit-equal against it.

use fpfpga_fpu::sim::{DelayLineUnit, DelayOp, FpPipe};
use fpfpga_softfp::{Flags, FpFormat, RoundMode, SoftFloat};

/// Cycle-accurate dot-product unit: one multiplier pipe, one adder pipe,
/// a round-robin bank of `La` partial accumulators.
pub struct DotProductUnit {
    mult: DelayLineUnit,
    add: DelayLineUnit,
    /// Partial accumulators, one per adder stage.
    bank: Vec<u64>,
    /// Which bank slot the next retiring product accumulates into.
    issue_slot: usize,
    /// In-flight bookkeeping for the adder (slot index per operation).
    add_meta: std::collections::VecDeque<Option<usize>>,
    /// Accumulated exception flags.
    pub flags: Flags,
    /// Cycles consumed.
    pub cycles: u64,
}

impl DotProductUnit {
    /// A unit with the given pipeline depths.
    pub fn new(
        fmt: FpFormat,
        mode: RoundMode,
        mult_stages: u32,
        add_stages: u32,
    ) -> DotProductUnit {
        DotProductUnit {
            mult: DelayLineUnit::new(fmt, mode, DelayOp::Mul, mult_stages),
            add: DelayLineUnit::new(fmt, mode, DelayOp::Add, add_stages),
            bank: vec![0; add_stages as usize],
            issue_slot: 0,
            add_meta: (0..add_stages).map(|_| None).collect(),
            flags: Flags::NONE,
            cycles: 0,
        }
    }

    /// Adder latency (= bank size).
    pub fn la(&self) -> usize {
        self.bank.len()
    }

    fn clock(&mut self, input: Option<(u64, u64)>) {
        self.cycles += 1;
        // Write-back first (write-first forwarding, as in the matmul PE).
        let retiring = *self.add_meta.front().expect("meta non-empty");
        if let (Some((s, sf)), Some(slot)) = (self.add.peek(), retiring) {
            self.flags |= sf;
            self.bank[slot] = s;
        }
        // Multiply pipe advances; a retiring product issues an
        // accumulation into the next round-robin slot.
        let product = self.mult.clock(input);
        let add_input = product.map(|(p, pf)| {
            self.flags |= pf;
            let slot = self.issue_slot;
            self.issue_slot = (self.issue_slot + 1) % self.bank.len();
            self.add_meta.push_back(Some(slot));
            (p, self.bank[slot])
        });
        if add_input.is_none() {
            self.add_meta.push_back(None);
        }
        self.add.clock(add_input);
        self.add_meta.pop_front();
    }

    /// Compute `x · y` cycle-accurately. Returns the result bits and the
    /// cycles consumed (stream + drain + bank combine).
    pub fn dot(&mut self, x: &[u64], y: &[u64]) -> (u64, u64) {
        assert_eq!(x.len(), y.len(), "vector lengths must agree");
        let start = self.cycles;
        self.bank.fill(0);
        self.issue_slot = 0;
        for (&a, &b) in x.iter().zip(y) {
            self.clock(Some((a, b)));
        }
        // Drain both pipes.
        for _ in 0..(self.mult.latency() + self.add.latency() + 1) {
            self.clock(None);
        }
        // Fold the bank through the same adder pipe, pair by pair (the
        // hardware reuses the adder with a small sequencer; each fold
        // waits out the adder latency).
        let mut live = self.bank.clone();
        while live.len() > 1 {
            let mut next = Vec::with_capacity(live.len().div_ceil(2));
            let mut i = 0;
            while i + 1 < live.len() {
                // Issue the pair-add and wait for it (sequencer bubble).
                let mut out = None;
                let inp = Some((live[i], live[i + 1]));
                let mut first = true;
                while out.is_none() {
                    self.cycles += 1;
                    let product_stall = self.mult.clock(None);
                    debug_assert!(product_stall.is_none());
                    out = self.add.clock(if first { inp } else { None });
                    self.add_meta.push_back(None);
                    self.add_meta.pop_front();
                    first = false;
                }
                let (s, sf) = out.unwrap();
                self.flags |= sf;
                next.push(s);
                i += 2;
            }
            if i < live.len() {
                next.push(live[i]);
            }
            live = next;
        }
        (live[0], self.cycles - start)
    }
}

/// The exact accumulation order of [`DotProductUnit::dot`]: products
/// land round-robin in `la` partial sums, which are then folded pairwise.
pub fn interleaved_reference(
    fmt: FpFormat,
    mode: RoundMode,
    x: &[u64],
    y: &[u64],
    la: usize,
) -> u64 {
    let mut bank = vec![SoftFloat::zero(fmt); la];
    for (i, (&a, &b)) in x.iter().zip(y).enumerate() {
        let (p, _) = SoftFloat::from_bits(fmt, a).mul(&SoftFloat::from_bits(fmt, b), mode);
        let (s, _) = bank[i % la].add(&p, mode);
        bank[i % la] = s;
    }
    let mut live = bank;
    while live.len() > 1 {
        let mut next = Vec::with_capacity(live.len().div_ceil(2));
        let mut i = 0;
        while i + 1 < live.len() {
            let (s, _) = live[i].add(&live[i + 1], mode);
            next.push(s);
            i += 2;
        }
        if i < live.len() {
            next.push(live[i]);
        }
        live = next;
    }
    live[0].bits()
}

/// `f64` reference for error measurement.
pub fn dot_f64(fmt: FpFormat, x: &[u64], y: &[u64]) -> f64 {
    x.iter()
        .zip(y)
        .map(|(&a, &b)| {
            SoftFloat::from_bits(fmt, a).to_f64() * SoftFloat::from_bits(fmt, b).to_f64()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FpFormat = FpFormat::SINGLE;
    const RM: RoundMode = RoundMode::NearestEven;

    fn vecs(n: usize) -> (Vec<u64>, Vec<u64>) {
        let x: Vec<u64> = (0..n)
            .map(|i| SoftFloat::from_f64(F, (i as f64 * 0.37).sin()).bits())
            .collect();
        let y: Vec<u64> = (0..n)
            .map(|i| SoftFloat::from_f64(F, (i as f64 * 0.23).cos()).bits())
            .collect();
        (x, y)
    }

    #[test]
    fn matches_interleaved_reference_bit_exact() {
        for (lm, la) in [(3u32, 4u32), (7, 9), (5, 12)] {
            for n in [1usize, 2, 7, 31, 64] {
                let (x, y) = vecs(n);
                let mut unit = DotProductUnit::new(F, RM, lm, la);
                let (got, _) = unit.dot(&x, &y);
                let want = interleaved_reference(F, RM, &x, &y, la as usize);
                assert_eq!(got, want, "n={n} lm={lm} la={la}");
            }
        }
    }

    #[test]
    fn batched_matches_per_cycle_bit_exact() {
        let policy = fpfpga_softfp::PrecisionPolicy::uniform(F);
        for (lm, la) in [(3u32, 4u32), (7, 9), (5, 12)] {
            for n in [0usize, 1, 2, 7, 31, 64] {
                let (x, y) = vecs(n);
                let mut seq = DotProductUnit::new(F, RM, lm, la);
                let (want, want_cycles) = seq.dot(&x, &y);
                let got = crate::mixed::mixed_dot(policy, RM, &x, &y, lm, la);
                assert_eq!(got.bits, want, "value n={n} lm={lm} la={la}");
                assert_eq!(got.cycles, want_cycles, "cycles n={n} lm={lm} la={la}");
                assert_eq!(got.flags, seq.flags, "flags n={n} lm={lm} la={la}");
            }
        }
    }

    #[test]
    fn close_to_f64() {
        let (x, y) = vecs(100);
        let mut unit = DotProductUnit::new(F, RM, 7, 9);
        let (got, _) = unit.dot(&x, &y);
        let exact = dot_f64(F, &x, &y);
        let got = SoftFloat::from_bits(F, got).to_f64();
        assert!((got - exact).abs() < 1e-4, "{got} vs {exact}");
    }

    #[test]
    fn empty_and_single() {
        let mut unit = DotProductUnit::new(F, RM, 4, 5);
        let (got, _) = unit.dot(&[], &[]);
        assert_eq!(got, 0);
        let x = [SoftFloat::from_f64(F, 3.0).bits()];
        let y = [SoftFloat::from_f64(F, 4.0).bits()];
        let (got, _) = unit.dot(&x, &y);
        assert_eq!(SoftFloat::from_bits(F, got).to_f64(), 12.0);
    }

    #[test]
    fn throughput_is_one_element_per_cycle() {
        // The streaming phase takes exactly n cycles; drain and combine
        // are bounded by the latencies, not by n.
        let n = 256;
        let (x, y) = vecs(n);
        let mut unit = DotProductUnit::new(F, RM, 7, 9);
        let (_, cycles) = unit.dot(&x, &y);
        let overhead = cycles - n as u64;
        assert!(overhead < 200, "fixed overhead = {overhead} cycles");
        // Doubling n adds exactly n cycles.
        let (x2, y2) = vecs(2 * n);
        let mut unit = DotProductUnit::new(F, RM, 7, 9);
        let (_, cycles2) = unit.dot(&x2, &y2);
        assert_eq!(cycles2 - cycles, n as u64);
    }

    #[test]
    fn deep_adders_change_order_not_accuracy() {
        let (x, y) = vecs(64);
        let exact = dot_f64(F, &x, &y);
        for la in [2u32, 5, 16] {
            let mut unit = DotProductUnit::new(F, RM, 4, la);
            let (got, _) = unit.dot(&x, &y);
            let got = SoftFloat::from_bits(F, got).to_f64();
            assert!((got - exact).abs() < 1e-4, "la={la}: {got} vs {exact}");
        }
    }

    #[test]
    fn flags_accumulate() {
        let big = SoftFloat::from_f64(F, f32::MAX as f64).bits();
        let mut unit = DotProductUnit::new(F, RM, 3, 4);
        let (_, _) = unit.dot(&[big, big], &[big, big]);
        assert!(unit.flags.overflow);
    }
}

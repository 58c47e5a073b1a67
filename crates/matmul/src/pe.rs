//! The processing element: one floating-point multiplier feeding one
//! floating-point adder, a block-RAM column of `B`, a block-RAM column
//! of accumulating `C`, and the shift registers that keep operands and
//! control aligned with the pipeline latencies.

use crate::schedule::Token;
use fpfpga_fpu::sim::{DelayLineUnit, DelayOp, FpPipe};
use fpfpga_softfp::{Flags, FpFormat, RoundMode};
use std::collections::VecDeque;

/// How to build the PE's floating-point pipes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitBackend {
    /// Fast functional twin (softfp + delay line) — the usual choice
    /// for per-cycle runs; bit-identical to the structural simulator
    /// (property-tested in `fpfpga-fpu`).
    Fast,
    /// Full stage-by-stage structural simulation — slower; used by the
    /// cross-validation tests.
    Structural,
}

/// Per-PE activity counters for the energy model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeStats {
    /// Clock cycles this PE was clocked.
    pub cycles: u64,
    /// MAC issues carrying real data.
    pub useful_macs: u64,
    /// MAC issues that were zero padding (wasted energy).
    pub pad_macs: u64,
    /// Cycles with no MAC issue at all (bubbles: skew/drain).
    pub idle_cycles: u64,
    /// Block-RAM accesses (B read + C read + C write).
    pub bram_accesses: u64,
}

/// One processing element of the linear array.
pub struct ProcessingElement {
    fmt: FpFormat,
    /// Double-buffered columns of `B` owned by this PE, indexed by step
    /// `k`; the control token's bank bit selects which buffer a MAC
    /// reads, so the next block's column can load while tokens of the
    /// previous block are still in flight.
    b_banks: [Vec<u64>; 2],
    /// Accumulating column of `C`, indexed by row `i`.
    c_col: Vec<u64>,
    mult: Box<dyn FpPipe + Send>,
    add: Box<dyn FpPipe + Send>,
    /// Delays the `C` operand (and its control) to meet the product at
    /// the adder input.
    c_delay: VecDeque<Option<(u64, u32, bool)>>,
    /// Carries (row, pad) alongside the adder pipe for write-back.
    add_meta: VecDeque<Option<(u32, bool)>>,
    /// One-cycle output register passing the token to the next PE.
    token_out: Option<Token>,
    /// Accumulated exception flags (the exception side-band).
    pub flags: Flags,
    /// Activity counters.
    pub stats: PeStats,
}

impl ProcessingElement {
    /// A PE for `n`-row columns with the given unit latencies.
    pub fn new(
        fmt: FpFormat,
        mode: RoundMode,
        mult_stages: u32,
        add_stages: u32,
        n: usize,
        backend: UnitBackend,
    ) -> ProcessingElement {
        let (mult, add): (Box<dyn FpPipe + Send>, Box<dyn FpPipe + Send>) = match backend {
            UnitBackend::Fast => (
                Box::new(DelayLineUnit::new(fmt, mode, DelayOp::Mul, mult_stages)),
                Box::new(DelayLineUnit::new(fmt, mode, DelayOp::Add, add_stages)),
            ),
            UnitBackend::Structural => (
                Box::new(
                    fpfpga_fpu::MultiplierDesign {
                        format: fmt,
                        round: mode,
                    }
                    .simulator(mult_stages),
                ),
                Box::new(
                    fpfpga_fpu::AdderDesign {
                        format: fmt,
                        round: mode,
                        force_priority_encoder: true,
                    }
                    .simulator(add_stages),
                ),
            ),
        };
        ProcessingElement {
            fmt,
            b_banks: [vec![0; n], vec![0; n]],
            c_col: vec![0; n],
            mult,
            add,
            c_delay: (0..mult_stages).map(|_| None).collect(),
            add_meta: (0..add_stages).map(|_| None).collect(),
            token_out: None,
            flags: Flags::NONE,
            stats: PeStats::default(),
        }
    }

    /// Load this PE's column of `B` into `bank` (entry per step `k`).
    pub fn load_b_column(&mut self, bank: bool, col: &[u64]) {
        let buf = &mut self.b_banks[bank as usize];
        assert_eq!(col.len(), buf.len(), "B column length");
        buf.copy_from_slice(col);
        self.stats.bram_accesses += col.len() as u64;
    }

    /// Clear the accumulator column.
    pub fn clear_c(&mut self) {
        self.c_col.fill(0);
    }

    /// Read out the accumulated `C` column.
    pub fn c_column(&self) -> &[u64] {
        &self.c_col
    }

    /// Combined MAC latency.
    pub fn pl(&self) -> u32 {
        self.mult.latency() + self.add.latency()
    }

    /// Number of rows (column height).
    pub fn n(&self) -> usize {
        self.c_col.len()
    }

    /// Advance one clock. `token` is the stream element arriving from
    /// the previous PE (or the driver); the return value is the token
    /// leaving this PE's output register toward the next one.
    pub fn clock(&mut self, token: Option<Token>) -> Option<Token> {
        self.stats.cycles += 1;

        // --- Write-back first (write-first BRAM forwarding): the sum
        // retiring from the adder this cycle must be visible to a read
        // of the same `C` entry issued this cycle — this is what makes
        // an inner period of exactly PL hazard-free, matching the
        // paper's "hazards only if the matrix size is *less than* the
        // number of pipeline stages".
        let retiring_meta = *self.add_meta.front().expect("meta line non-empty");
        if let (Some((s, sf)), Some((i, pad))) = (self.add.peek(), retiring_meta) {
            self.flags |= sf;
            if !pad {
                self.c_col[i as usize] = s;
                self.stats.bram_accesses += 1; // C write
            }
        }

        // --- MAC issue (stage a of the PE's local schedule).
        let issue = token.map(|t| {
            let (a, b, c) = if t.pad {
                (0u64, 0u64, 0u64)
            } else {
                self.stats.bram_accesses += 2; // B read + C read
                (
                    t.a,
                    self.b_banks[t.bank as usize][t.k as usize],
                    self.c_col[t.i as usize],
                )
            };
            if t.pad {
                self.stats.pad_macs += 1;
            } else {
                self.stats.useful_macs += 1;
            }
            (a, b, c, t.i, t.pad)
        });
        if issue.is_none() {
            self.stats.idle_cycles += 1;
        }

        // Multiplier pipe + C-operand delay line advance together.
        let product = self.mult.clock(issue.map(|(a, b, _, _, _)| (a, b)));
        self.c_delay
            .push_back(issue.map(|(_, _, c, i, pad)| (c, i, pad)));
        let c_meta = self.c_delay.pop_front().expect("delay line non-empty");

        // Adder issue when a product emerges.
        debug_assert_eq!(product.is_some(), c_meta.is_some(), "pipe alignment");
        let add_input = match (product, c_meta) {
            (Some((p, pf)), Some((c, i, pad))) => {
                self.flags |= pf;
                self.add_meta.push_back(Some((i, pad)));
                Some((p, c))
            }
            _ => {
                self.add_meta.push_back(None);
                None
            }
        };
        // Advance the adder; its retiring value was already written back
        // in the forwarding phase above.
        let sum = self.add.clock(add_input);
        let sum_meta = self.add_meta.pop_front().expect("meta line non-empty");
        debug_assert_eq!(sum.is_some(), sum_meta.is_some(), "adder alignment");
        debug_assert_eq!(sum_meta, retiring_meta, "peeked metadata matches retired");

        // Token output register (one-cycle skew to the next PE).
        std::mem::replace(&mut self.token_out, token)
    }

    /// The format this PE operates in.
    pub fn format(&self) -> FpFormat {
        self.fmt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(x: f32) -> u64 {
        x.to_bits() as u64
    }

    fn make_pe(n: usize) -> ProcessingElement {
        ProcessingElement::new(
            FpFormat::SINGLE,
            RoundMode::NearestEven,
            3,
            4,
            n,
            UnitBackend::Fast,
        )
    }

    #[test]
    fn single_mac_accumulates() {
        let mut pe = make_pe(2);
        pe.load_b_column(false, &[f(2.0), f(10.0)]);
        // token (i=0, k=0): c[0] += a·b[0] = 3·2
        pe.clock(Some(Token {
            a: f(3.0),
            i: 0,
            k: 0,
            pad: false,
            bank: false,
        }));
        for _ in 0..pe.pl() + 1 {
            pe.clock(None);
        }
        assert_eq!(f32::from_bits(pe.c_column()[0] as u32), 6.0);
        assert_eq!(pe.stats.useful_macs, 1);
    }

    #[test]
    fn accumulation_across_steps() {
        // c[0] += 3·2 (k=0) then += 5·10 (k=1), spaced ≥ PL apart.
        let mut pe = make_pe(2);
        pe.load_b_column(false, &[f(2.0), f(10.0)]);
        let pl = pe.pl() as usize;
        pe.clock(Some(Token {
            a: f(3.0),
            i: 0,
            k: 0,
            pad: false,
            bank: false,
        }));
        for _ in 0..pl {
            pe.clock(None);
        }
        pe.clock(Some(Token {
            a: f(5.0),
            i: 0,
            k: 1,
            pad: false,
            bank: false,
        }));
        for _ in 0..pl + 1 {
            pe.clock(None);
        }
        assert_eq!(f32::from_bits(pe.c_column()[0] as u32), 56.0);
    }

    #[test]
    fn hazard_manifests_without_padding() {
        // Issue two updates to the same c entry back-to-back (1 cycle
        // apart, far less than PL): the second reads a stale 0 and the
        // first write is lost — exactly the RAW hazard the paper pads
        // against.
        let mut pe = make_pe(2);
        pe.load_b_column(false, &[f(1.0), f(1.0)]);
        pe.clock(Some(Token {
            a: f(3.0),
            i: 0,
            k: 0,
            pad: false,
            bank: false,
        }));
        pe.clock(Some(Token {
            a: f(5.0),
            i: 0,
            k: 1,
            pad: false,
            bank: false,
        }));
        for _ in 0..2 * pe.pl() {
            pe.clock(None);
        }
        let got = f32::from_bits(pe.c_column()[0] as u32);
        assert_eq!(
            got, 5.0,
            "stale read: second MAC sees c=0, final write wins"
        );
        assert_ne!(got, 8.0, "8.0 would mean the hazard did not manifest");
    }

    #[test]
    fn pad_tokens_burn_pipes_but_not_state() {
        let mut pe = make_pe(2);
        pe.load_b_column(false, &[f(2.0), f(2.0)]);
        pe.clock(Some(Token {
            a: 0,
            i: 0,
            k: 0,
            pad: true,
            bank: false,
        }));
        for _ in 0..pe.pl() + 1 {
            pe.clock(None);
        }
        assert_eq!(pe.c_column()[0], 0);
        assert_eq!(pe.stats.pad_macs, 1);
        assert_eq!(pe.stats.useful_macs, 0);
    }

    #[test]
    fn token_passes_with_one_cycle_delay() {
        let mut pe = make_pe(1);
        pe.load_b_column(false, &[f(1.0)]);
        let t = Token {
            a: f(7.0),
            i: 0,
            k: 0,
            pad: false,
            bank: false,
        };
        let out0 = pe.clock(Some(t));
        assert!(out0.is_none());
        let out1 = pe.clock(None);
        assert_eq!(out1, Some(t));
    }

    #[test]
    fn structural_backend_matches_fast() {
        let run = |backend: UnitBackend| {
            let mut pe =
                ProcessingElement::new(FpFormat::SINGLE, RoundMode::NearestEven, 4, 5, 3, backend);
            pe.load_b_column(false, &[f(1.5), f(-2.0), f(0.25)]);
            let pl = pe.pl() as usize;
            for k in 0..3u32 {
                for i in 0..3u32 {
                    pe.clock(Some(Token {
                        a: f((i + k) as f32 * 0.5 - 1.0),
                        i,
                        k,
                        pad: false,
                        bank: false,
                    }));
                    // keep issues ≥ PL apart per row by spacing steps
                }
                for _ in 0..pl {
                    pe.clock(None);
                }
            }
            for _ in 0..pl + 2 {
                pe.clock(None);
            }
            pe.c_column().to_vec()
        };
        assert_eq!(run(UnitBackend::Fast), run(UnitBackend::Structural));
    }
}

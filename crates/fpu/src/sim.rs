//! Cycle-accurate pipeline simulation.
//!
//! [`PipelinedUnit`] clocks [`Signals`] bundles through the stage latches
//! of a core: one operand pair may be injected per cycle (initiation
//! interval 1), each result emerges exactly `stages` cycles later with
//! its exception flags, and a `DONE` valid bit tracks bubble cycles —
//! matching the paper's interface ("an output signal DONE is also used
//! to indicate that the operation of the module is completed").
//!
//! [`DelayLineUnit`] is the fast functional twin: it computes the result
//! with `fpfpga-softfp` at injection time and delays it by the same
//! latency. The two are interchangeable (property-tested bit-equal);
//! large kernel simulations use the delay line, unit tests use both.

use crate::config::CoreConfig;
use crate::signals::Signals;
use crate::subunit::Datapath;
use fpfpga_fabric::netlist::Netlist;
use fpfpga_fabric::pipeline::pipeline;
use fpfpga_fabric::tech::Tech;
use fpfpga_softfp::{Flags, FpFormat, RoundMode};
use std::collections::VecDeque;

/// A pipelined floating-point unit usable at one operation per cycle.
pub trait FpPipe {
    /// Pipeline latency in cycles.
    fn latency(&self) -> u32;

    /// Advance one clock. `input` optionally injects an operand pair;
    /// the return value is the result (with flags) completing this
    /// cycle, or `None` on a bubble.
    fn clock(&mut self, input: Option<(u64, u64)>) -> Option<(u64, Flags)>;

    /// The result that will retire on the *next* [`FpPipe::clock`] call,
    /// without advancing. Hardware exposes this combinationally (the
    /// last stage's output before the clock edge); consumers use it for
    /// same-cycle write-first forwarding.
    fn peek(&self) -> Option<(u64, Flags)>;

    /// Drain the pipe: clock with bubbles until every in-flight result
    /// has emerged, returning them in order.
    fn drain(&mut self) -> Vec<(u64, Flags)> {
        let mut out = Vec::new();
        for _ in 0..self.latency() {
            if let Some(r) = self.clock(None) {
                out.push(r);
            }
        }
        out
    }

    /// Stream a whole batch back-to-back at initiation interval 1 and
    /// drain: one [`FpPipe::clock`] per input, then [`FpPipe::drain`].
    /// Any results already in flight emerge first, then one result per
    /// input, in order, after `inputs.len() + latency()` clocks.
    fn run_batch(&mut self, inputs: &[(u64, u64)]) -> Vec<(u64, Flags)> {
        let mut out = Vec::with_capacity(inputs.len() + self.latency() as usize);
        for &inp in inputs {
            if let Some(r) = self.clock(Some(inp)) {
                out.push(r);
            }
        }
        out.extend(self.drain());
        out
    }
}

/// The structural, stage-by-stage simulator.
pub struct PipelinedUnit {
    fmt: FpFormat,
    mode: RoundMode,
    datapath: Datapath,
    /// Stage index of each subunit (monotone).
    stage_of: Vec<usize>,
    stages: u32,
    /// `slots[i]` holds the bundle that has completed stage `i`.
    slots: Vec<Option<Signals>>,
    /// Fixed subtract control for bundles injected via [`FpPipe::clock`].
    subtract: bool,
    cycles: u64,
}

impl PipelinedUnit {
    /// Build a simulator from a configuration and the design's datapath
    /// and netlist. The configuration supplies format, rounding mode,
    /// pipeline depth and register-placement strategy; placement only
    /// affects *when* a subunit's transfer function runs, never its
    /// value (see the crate-level invariant).
    pub fn new(config: &CoreConfig, datapath: Datapath, netlist: Netlist) -> PipelinedUnit {
        let tech = Tech::virtex2pro();
        let piped = pipeline(&netlist, config.stages, config.strategy);
        let stage_of = datapath.assign_stages(config.format, &tech, &piped.cuts);
        let k = piped.stages as usize;
        PipelinedUnit {
            fmt: config.format,
            mode: config.round,
            datapath,
            stage_of,
            stages: piped.stages,
            slots: (0..k).map(|_| None).collect(),
            subtract: false,
            cycles: 0,
        }
    }

    /// Make [`FpPipe::clock`] inject subtractions (drive the core's
    /// add/sub select line low/high permanently).
    pub fn with_subtract(mut self, subtract: bool) -> PipelinedUnit {
        self.subtract = subtract;
        self
    }

    /// Total clock cycles simulated.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Advance one clock with an explicit per-operation subtract control.
    pub fn clock_op(&mut self, input: Option<(u64, u64, bool)>) -> Option<(u64, Flags)> {
        self.cycles += 1;
        let k = self.slots.len();

        // Retire the bundle leaving the last stage.
        let out = self.slots[k - 1].take().map(|s| (s.result, s.flags));

        // Shift every in-flight bundle one stage forward, running the
        // subunits assigned to the stage it enters.
        for i in (1..k).rev() {
            if let Some(mut s) = self.slots[i - 1].take() {
                self.run_stage(i, &mut s);
                self.slots[i] = Some(s);
            }
        }

        // Inject.
        if let Some((a, b, sub)) = input {
            let mut s = Signals::inject(a, b, sub);
            self.run_stage(0, &mut s);
            self.slots[0] = Some(s);
        }
        out
    }

    fn run_stage(&self, stage: usize, s: &mut Signals) {
        for (u, &st) in self.datapath.subunits.iter().zip(&self.stage_of) {
            if st == stage {
                u.eval(self.fmt, self.mode, s);
            }
        }
    }

    /// Occupancy of the pipe (in-flight operations) — the `DONE`
    /// side-band made visible.
    pub fn in_flight(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Per-stage occupancy snapshot (for waveform tracing).
    pub fn occupancy(&self) -> Vec<bool> {
        self.slots.iter().map(Option::is_some).collect()
    }
}

impl FpPipe for PipelinedUnit {
    fn latency(&self) -> u32 {
        self.stages
    }

    fn clock(&mut self, input: Option<(u64, u64)>) -> Option<(u64, Flags)> {
        let sub = self.subtract;
        self.clock_op(input.map(|(a, b)| (a, b, sub)))
    }

    fn peek(&self) -> Option<(u64, Flags)> {
        // The last slot's bundle has already run every stage; its result
        // field is the combinational output sitting at the final
        // register's D input mux.
        self.slots
            .last()
            .and_then(|s| s.as_ref())
            .map(|s| (s.result, s.flags))
    }
}

/// Which scalar operation a [`DelayLineUnit`] performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayOp {
    /// a + b
    Add,
    /// a − b
    Sub,
    /// a × b
    Mul,
    /// a ÷ b
    Div,
    /// √a (the second operand is ignored)
    Sqrt,
}

/// The fast functional twin: softfp at injection + a latency delay line.
pub struct DelayLineUnit {
    fmt: FpFormat,
    mode: RoundMode,
    op: DelayOp,
    line: VecDeque<Option<(u64, Flags)>>,
    stages: u32,
}

impl DelayLineUnit {
    /// An `op` unit of `stages` cycles latency.
    pub fn new(fmt: FpFormat, mode: RoundMode, op: DelayOp, stages: u32) -> DelayLineUnit {
        assert!(stages >= 1);
        DelayLineUnit {
            fmt,
            mode,
            op,
            line: (0..stages).map(|_| None).collect(),
            stages,
        }
    }

    fn compute(&self, a: u64, b: u64) -> (u64, Flags) {
        match self.op {
            DelayOp::Add => fpfpga_softfp::add_bits(self.fmt, a, b, self.mode),
            DelayOp::Sub => fpfpga_softfp::sub_bits(self.fmt, a, b, self.mode),
            DelayOp::Mul => fpfpga_softfp::mul_bits(self.fmt, a, b, self.mode),
            DelayOp::Div => fpfpga_softfp::div_bits(self.fmt, a, b, self.mode),
            DelayOp::Sqrt => fpfpga_softfp::sqrt_bits(self.fmt, a, self.mode),
        }
    }
}

impl FpPipe for DelayLineUnit {
    fn latency(&self) -> u32 {
        self.stages
    }

    fn clock(&mut self, input: Option<(u64, u64)>) -> Option<(u64, Flags)> {
        let computed = input.map(|(a, b)| self.compute(a, b));
        self.line.push_back(computed);
        self.line.pop_front().expect("line is non-empty")
    }

    fn peek(&self) -> Option<(u64, Flags)> {
        *self.line.front().expect("line is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::AdderDesign;
    use crate::multiplier::MultiplierDesign;

    fn f(x: f32) -> u64 {
        x.to_bits() as u64
    }

    #[test]
    fn latency_is_exact() {
        let d = AdderDesign::new(FpFormat::SINGLE);
        for stages in [1u32, 3, 8, 14] {
            let mut u = d.simulator(stages);
            assert_eq!(u.latency(), stages);
            let mut out = u.clock(Some((f(1.0), f(2.0))));
            let mut waited = 0;
            while out.is_none() {
                out = u.clock(None);
                waited += 1;
                assert!(waited <= stages, "result did not emerge in {stages} cycles");
            }
            assert_eq!(waited, stages, "latency mismatch at {stages} stages");
            assert_eq!(f32::from_bits(out.unwrap().0 as u32), 3.0);
        }
    }

    #[test]
    fn initiation_interval_is_one() {
        let d = MultiplierDesign::new(FpFormat::SINGLE);
        let mut u = d.simulator(6);
        let pairs: Vec<(f32, f32)> = (0..20).map(|i| (i as f32 + 1.0, 2.0)).collect();
        let mut results = Vec::new();
        for &(a, b) in &pairs {
            if let Some((r, _)) = u.clock(Some((f(a), f(b)))) {
                results.push(f32::from_bits(r as u32));
            }
        }
        for (r, _) in u.drain() {
            results.push(f32::from_bits(r as u32));
        }
        let want: Vec<f32> = pairs.iter().map(|&(a, b)| a * b).collect();
        assert_eq!(results, want);
    }

    #[test]
    fn bubbles_pass_through() {
        let d = AdderDesign::new(FpFormat::SINGLE);
        let mut u = d.simulator(4);
        assert!(u.clock(Some((f(1.0), f(1.0)))).is_none());
        assert!(u.clock(None).is_none());
        assert!(u.clock(Some((f(2.0), f(2.0)))).is_none());
        assert!(u.clock(None).is_none());
        // cycle 5: first result
        assert_eq!(
            u.clock(None).map(|(r, _)| f32::from_bits(r as u32)),
            Some(2.0)
        );
        assert!(u.clock(None).is_none()); // the bubble
        assert_eq!(
            u.clock(None).map(|(r, _)| f32::from_bits(r as u32)),
            Some(4.0)
        );
    }

    #[test]
    fn every_stage_count_is_bit_identical() {
        // The crate invariant: register placement never changes values.
        let d = AdderDesign::new(FpFormat::DOUBLE);
        let netlist = d.netlist(&Tech::virtex2pro());
        let cases: &[(f64, f64)] = &[
            (1.0, 2.5),
            (1e300, 1e300),
            (-7.25, 7.25),
            (3.1e-200, -2.9e-200),
        ];
        for stages in 1..=netlist.max_stages() {
            let mut u = d.simulator(stages);
            for &(x, y) in cases {
                let mut out = u.clock(Some((x.to_bits(), y.to_bits())));
                while out.is_none() {
                    out = u.clock(None);
                }
                let (want, wf) = fpfpga_softfp::add_bits(
                    FpFormat::DOUBLE,
                    x.to_bits(),
                    y.to_bits(),
                    RoundMode::NearestEven,
                );
                let (got, gf) = out.unwrap();
                assert_eq!(got, want, "{x} + {y} at {stages} stages");
                assert_eq!(gf, wf, "{x} + {y} at {stages} stages");
            }
        }
    }

    #[test]
    fn delay_line_agrees_with_structural() {
        let d = MultiplierDesign::new(FpFormat::SINGLE);
        let mut structural = d.simulator(7);
        let mut fast =
            DelayLineUnit::new(FpFormat::SINGLE, RoundMode::NearestEven, DelayOp::Mul, 7);
        let inputs: Vec<(u64, u64)> = (0..50)
            .map(|i| (f(i as f32 * 0.37 - 5.0), f(i as f32 * 1.13 + 0.01)))
            .collect();
        for &inp in &inputs {
            let a = structural.clock(Some(inp));
            let b = fast.clock(Some(inp));
            assert_eq!(a, b);
        }
        assert_eq!(structural.drain(), fast.drain());
    }

    #[test]
    fn subtract_line() {
        let d = AdderDesign::new(FpFormat::SINGLE);
        let mut u = d.simulator(5).with_subtract(true);
        let mut out = u.clock(Some((f(10.0), f(4.0))));
        while out.is_none() {
            out = u.clock(None);
        }
        assert_eq!(f32::from_bits(out.unwrap().0 as u32), 6.0);
    }

    #[test]
    fn in_flight_tracks_occupancy() {
        let d = AdderDesign::new(FpFormat::SINGLE);
        let mut u = d.simulator(6);
        assert_eq!(u.in_flight(), 0);
        u.clock(Some((f(1.0), f(1.0))));
        u.clock(Some((f(1.0), f(1.0))));
        assert_eq!(u.in_flight(), 2);
        u.clock(None);
        assert_eq!(u.in_flight(), 2);
        for _ in 0..6 {
            u.clock(None);
        }
        assert_eq!(u.in_flight(), 0);
    }
}

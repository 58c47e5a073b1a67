//! Property tests pinning the per-cycle units to the softfp lanes that
//! serving runs: for every unit kind, paper format and legal pipeline
//! depth, hand-driving a unit — a preload, then a batch, one `clock`
//! per operand pair collecting every retire, then a drain — yields
//! exactly the lane's results over the same operands, values AND flags:
//! `add/sub/mul_pairs_batch` for add, sub and mul, one
//! `div_bits`/`sqrt_bits` call per element for div and sqrt. Both the
//! structural [`PipelinedUnit`] (which also charges
//! `preload + batch + latency` cycles) and the [`DelayLineUnit`] twin
//! are covered.

use fpfpga_fpu::prelude::*;
use fpfpga_fpu::sim::DelayOp;
use proptest::prelude::*;

fn formats() -> impl Strategy<Value = FpFormat> {
    prop_oneof![
        Just(FpFormat::SINGLE),
        Just(FpFormat::FP48),
        Just(FpFormat::DOUBLE)
    ]
}

fn modes() -> impl Strategy<Value = RoundMode> {
    prop_oneof![Just(RoundMode::NearestEven), Just(RoundMode::Truncate)]
}

/// Clock `preload` then `batch` into `unit` one pair per cycle,
/// collecting every retire, then drain.
fn hand_driven(
    unit: &mut dyn FpPipe,
    preload: &[(u64, u64)],
    batch: &[(u64, u64)],
) -> Vec<(u64, Flags)> {
    let mut out = Vec::with_capacity(preload.len() + batch.len());
    for &inp in preload.iter().chain(batch) {
        if let Some(r) = unit.clock(Some(inp)) {
            out.push(r);
        }
    }
    out.extend(unit.drain());
    out
}

/// The softfp lane serving runs for `op` over `preload` then `batch`.
fn lane(
    op: DelayOp,
    fmt: FpFormat,
    mode: RoundMode,
    preload: &[(u64, u64)],
    batch: &[(u64, u64)],
) -> Vec<(u64, Flags)> {
    let pairs = [preload, batch].concat();
    let mut out = Vec::new();
    match op {
        DelayOp::Add => fpfpga_softfp::add_pairs_batch(fmt, &pairs, mode, &mut out),
        DelayOp::Sub => fpfpga_softfp::sub_pairs_batch(fmt, &pairs, mode, &mut out),
        DelayOp::Mul => fpfpga_softfp::mul_pairs_batch(fmt, &pairs, mode, &mut out),
        DelayOp::Div => out.extend(
            pairs
                .iter()
                .map(|&(a, b)| fpfpga_softfp::div_bits(fmt, a, b, mode)),
        ),
        DelayOp::Sqrt => out.extend(
            pairs
                .iter()
                .map(|&(a, _)| fpfpga_softfp::sqrt_bits(fmt, a, mode)),
        ),
    }
    out
}

/// Mask raw pairs into `fmt` encodings.
fn mask(fmt: FpFormat, raw: &[(u64, u64)]) -> Vec<(u64, u64)> {
    raw.iter()
        .map(|&(a, b)| (a & fmt.enc_mask(), b & fmt.enc_mask()))
        .collect()
}

/// The clock count of a hand-driven run: one per pair, then the drain.
fn charged(preload: &[(u64, u64)], batch: &[(u64, u64)], stages: u32) -> u64 {
    (preload.len() + batch.len()) as u64 + stages as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Structural adder == `add_pairs_batch` at every legal depth.
    #[test]
    fn adder_hand_driven_matches_add_lane(
        fmt in formats(),
        mode in modes(),
        stage_seed in any::<u32>(),
        raw_pre in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..8),
        raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..32),
    ) {
        let design = AdderDesign { format: fmt, round: mode, force_priority_encoder: false };
        let max = design.netlist(&Tech::virtex2pro()).max_stages();
        let stages = 1 + stage_seed % max;
        let mut unit = design.simulator(stages);
        let (pre, inputs) = (mask(fmt, &raw_pre), mask(fmt, &raw));
        let got = hand_driven(&mut unit, &pre, &inputs);
        prop_assert_eq!(got, lane(DelayOp::Add, fmt, mode, &pre, &inputs), "fmt={:?} k={}", fmt, stages);
        prop_assert_eq!(unit.cycles(), charged(&pre, &inputs, stages), "cycle charge k={}", stages);
    }

    /// Structural multiplier == `mul_pairs_batch` at every legal depth.
    #[test]
    fn multiplier_hand_driven_matches_mul_lane(
        fmt in formats(),
        mode in modes(),
        stage_seed in any::<u32>(),
        raw_pre in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..8),
        raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..32),
    ) {
        let design = MultiplierDesign { format: fmt, round: mode };
        let max = design.netlist(&Tech::virtex2pro()).max_stages();
        let stages = 1 + stage_seed % max;
        let mut unit = design.simulator(stages);
        let (pre, inputs) = (mask(fmt, &raw_pre), mask(fmt, &raw));
        let got = hand_driven(&mut unit, &pre, &inputs);
        prop_assert_eq!(got, lane(DelayOp::Mul, fmt, mode, &pre, &inputs), "fmt={:?} k={}", fmt, stages);
        prop_assert_eq!(unit.cycles(), charged(&pre, &inputs, stages), "cycle charge k={}", stages);
    }

    /// Structural divider == one `div_bits` per pair at every legal depth.
    #[test]
    fn divider_hand_driven_matches_div_lane(
        fmt in formats(),
        mode in modes(),
        stage_seed in any::<u32>(),
        raw_pre in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..8),
        raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..32),
    ) {
        let design = DividerDesign { format: fmt, round: mode };
        let max = design.netlist(&Tech::virtex2pro()).max_stages();
        let stages = 1 + stage_seed % max;
        let mut unit = design.simulator(stages);
        let (pre, inputs) = (mask(fmt, &raw_pre), mask(fmt, &raw));
        let got = hand_driven(&mut unit, &pre, &inputs);
        prop_assert_eq!(got, lane(DelayOp::Div, fmt, mode, &pre, &inputs), "fmt={:?} k={}", fmt, stages);
        prop_assert_eq!(unit.cycles(), charged(&pre, &inputs, stages), "cycle charge k={}", stages);
    }

    /// Structural square root == one `sqrt_bits` per pair at every
    /// legal depth (the second operand of each pair is ignored).
    #[test]
    fn sqrt_hand_driven_matches_sqrt_lane(
        fmt in formats(),
        mode in modes(),
        stage_seed in any::<u32>(),
        raw_pre in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..8),
        raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..32),
    ) {
        let design = SqrtDesign { format: fmt, round: mode };
        let max = design.netlist(&Tech::virtex2pro()).max_stages();
        let stages = 1 + stage_seed % max;
        let mut unit = design.simulator(stages);
        let (pre, inputs) = (mask(fmt, &raw_pre), mask(fmt, &raw));
        let got = hand_driven(&mut unit, &pre, &inputs);
        prop_assert_eq!(got, lane(DelayOp::Sqrt, fmt, mode, &pre, &inputs), "fmt={:?} k={}", fmt, stages);
        prop_assert_eq!(unit.cycles(), charged(&pre, &inputs, stages), "cycle charge k={}", stages);
    }

    /// Delay-line twin, all four binary ops == the op's lane.
    #[test]
    fn delay_line_hand_driven_matches_lane(
        fmt in formats(),
        mode in modes(),
        op in prop_oneof![
            Just(DelayOp::Add), Just(DelayOp::Sub), Just(DelayOp::Mul), Just(DelayOp::Div),
        ],
        stages in 1u32..33,
        raw_pre in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..8),
        raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..32),
    ) {
        let mut unit = DelayLineUnit::new(fmt, mode, op, stages);
        let (pre, inputs) = (mask(fmt, &raw_pre), mask(fmt, &raw));
        let got = hand_driven(&mut unit, &pre, &inputs);
        prop_assert_eq!(got, lane(op, fmt, mode, &pre, &inputs), "fmt={:?} op={:?} k={}", fmt, op, stages);
    }

    /// The structural adder and the delay-line twin of the same depth,
    /// each hand-driven over the same batch, both equal the add lane.
    #[test]
    fn structural_and_delay_line_adders_match_add_lane(
        fmt in formats(),
        stage_seed in any::<u32>(),
        raw in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..24),
    ) {
        let mode = RoundMode::NearestEven;
        let design = AdderDesign::new(fmt);
        let max = design.netlist(&Tech::virtex2pro()).max_stages();
        let stages = 1 + stage_seed % max;
        let mut structural = design.simulator(stages);
        let mut twin = DelayLineUnit::new(fmt, mode, DelayOp::Add, stages);
        let inputs = mask(fmt, &raw);
        let want = lane(DelayOp::Add, fmt, mode, &[], &inputs);
        prop_assert_eq!(hand_driven(&mut structural, &[], &inputs), want.clone());
        prop_assert_eq!(hand_driven(&mut twin, &[], &inputs), want);
        prop_assert_eq!(structural.cycles(), charged(&[], &inputs, stages));
    }
}

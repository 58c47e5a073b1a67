//! Property-based differential suites (satellite of the conformance
//! harness):
//!
//! * softfp IEEE-mode fma/div/sqrt against the host, over the FULL input
//!   domain — arbitrary bit patterns, NaNs and denormals included,
//!   results and exception flags both checked;
//! * the staged `fpfpga-fpu` pipeline units against softfp as oracle,
//!   across every legal pipeline depth.
#![recursion_limit = "256"]

use fpfpga_conform::diff::{check_case, eval_ftz, Case, Op};
use fpfpga_fpu::prelude::*;
use proptest::prelude::*;

fn modes() -> impl Strategy<Value = RoundMode> {
    prop_oneof![Just(RoundMode::NearestEven), Just(RoundMode::Truncate)]
}

fn native_formats() -> impl Strategy<Value = FpFormat> {
    prop_oneof![Just(FpFormat::SINGLE), Just(FpFormat::DOUBLE)]
}

fn all_formats() -> impl Strategy<Value = FpFormat> {
    prop_oneof![
        Just(FpFormat::SINGLE),
        Just(FpFormat::FP48),
        Just(FpFormat::DOUBLE),
        Just(FpFormat::new(6, 17)),
    ]
}

fn assert_agrees(case: Case) -> Result<(), TestCaseError> {
    if let Some(d) = check_case(&case) {
        return Err(format!(
            "diverged from host: {:?}\n  ours      {:#x} {:?}\n  reference {:#x} {:?}",
            d.case, d.ours.0, d.ours.1, d.reference.0, d.reference.1
        ));
    }
    Ok(())
}

fn run_once(unit: &mut PipelinedUnit, a: u64, b: u64) -> (u64, Flags) {
    let mut out = unit.clock(Some((a, b)));
    let mut guard = 0;
    while out.is_none() {
        out = unit.clock(None);
        guard += 1;
        assert!(guard <= unit.latency() + 1, "result never emerged");
    }
    out.unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn ieee_fma_matches_host(
        fmt in native_formats(),
        mode in modes(),
        ra in any::<u64>(),
        rb in any::<u64>(),
        rc in any::<u64>(),
    ) {
        let m = fmt.enc_mask();
        assert_agrees(Case { op: Op::Fma, fmt, mode, a: ra & m, b: rb & m, c: rc & m })?;
    }

    #[test]
    fn ieee_div_matches_host(
        fmt in native_formats(),
        mode in modes(),
        ra in any::<u64>(),
        rb in any::<u64>(),
    ) {
        let m = fmt.enc_mask();
        assert_agrees(Case { op: Op::Div, fmt, mode, a: ra & m, b: rb & m, c: 0 })?;
    }

    #[test]
    fn ieee_sqrt_matches_host(
        fmt in native_formats(),
        mode in modes(),
        ra in any::<u64>(),
    ) {
        let m = fmt.enc_mask();
        assert_agrees(Case { op: Op::Sqrt, fmt, mode, a: ra & m, b: 0, c: 0 })?;
    }
}

/// One differential shot at a given pipeline depth.
fn pipeline_agrees(
    op: Op,
    fmt: FpFormat,
    mode: RoundMode,
    stages: u32,
    a: u64,
    b: u64,
) -> Result<(), TestCaseError> {
    let mut unit = match op {
        Op::Add => AdderDesign {
            format: fmt,
            round: mode,
            force_priority_encoder: true,
        }
        .simulator(stages),
        Op::Sub => AdderDesign {
            format: fmt,
            round: mode,
            force_priority_encoder: true,
        }
        .simulator(stages)
        .with_subtract(true),
        Op::Mul => MultiplierDesign {
            format: fmt,
            round: mode,
        }
        .simulator(stages),
        Op::Div => DividerDesign {
            format: fmt,
            round: mode,
        }
        .simulator(stages),
        _ => SqrtDesign {
            format: fmt,
            round: mode,
        }
        .simulator(stages),
    };
    let (got, gf) = run_once(&mut unit, a, b);
    let case = Case {
        op,
        fmt,
        mode,
        a,
        b,
        c: 0,
    };
    let (want, wf) = eval_ftz(&case, None);
    prop_assert_eq!(got, want, "{:?} k={} a={:#x} b={:#x}", case, stages, a, b);
    prop_assert_eq!(gf, wf, "{:?} k={} flags", case, stages);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn staged_adder_matches_softfp_at_every_depth(
        fmt in all_formats(),
        mode in modes(),
        subtract in any::<bool>(),
        stages in 1u32..24,
        ra in any::<u64>(),
        rb in any::<u64>(),
    ) {
        let op = if subtract { Op::Sub } else { Op::Add };
        let m = fmt.enc_mask();
        pipeline_agrees(op, fmt, mode, stages, ra & m, rb & m)?;
    }

    #[test]
    fn staged_multiplier_matches_softfp_at_every_depth(
        fmt in all_formats(),
        mode in modes(),
        stages in 1u32..24,
        ra in any::<u64>(),
        rb in any::<u64>(),
    ) {
        let m = fmt.enc_mask();
        pipeline_agrees(Op::Mul, fmt, mode, stages, ra & m, rb & m)?;
    }

    #[test]
    fn staged_divider_matches_softfp_at_every_depth(
        fmt in all_formats(),
        mode in modes(),
        stages in 1u32..40,
        ra in any::<u64>(),
        rb in any::<u64>(),
    ) {
        let m = fmt.enc_mask();
        pipeline_agrees(Op::Div, fmt, mode, stages, ra & m, rb & m)?;
    }

    #[test]
    fn staged_sqrt_matches_softfp_at_every_depth(
        fmt in all_formats(),
        mode in modes(),
        stages in 1u32..30,
        ra in any::<u64>(),
    ) {
        let m = fmt.enc_mask();
        pipeline_agrees(Op::Sqrt, fmt, mode, stages, ra & m, 0)?;
    }
}

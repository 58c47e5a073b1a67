//! Property tests for the kernels: the cycle-accurate simulators must be
//! bit-identical to their order-faithful references for arbitrary
//! shapes, pipeline latencies and operand values, and the analytical
//! cycle models must match the simulators' counters exactly.

use fpfpga_matmul::block::BlockMatMul;
use fpfpga_matmul::dot::{interleaved_reference, DotProductUnit};
use fpfpga_matmul::matrix::Matrix;
use fpfpga_matmul::mvm::MvmEngine;
use fpfpga_matmul::pe::UnitBackend;
use fpfpga_matmul::reference::reference_matmul;
use fpfpga_matmul::schedule::Schedule;
use fpfpga_matmul::LinearArray;
use fpfpga_softfp::{FpFormat, RoundMode, SoftFloat};
use proptest::prelude::*;

const F: FpFormat = FpFormat::SINGLE;
const RM: RoundMode = RoundMode::NearestEven;

/// Random well-scaled f64s (avoid overflow noise; exactness is what we
/// test, and over/underflow cases are covered by the fpu suites).
fn val() -> impl Strategy<Value = f64> {
    (-1000.0f64..1000.0).prop_map(|x| x / 7.3)
}

fn matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(val(), n * n).prop_map(move |v| Matrix::from_f64(F, n, n, &v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn array_matches_reference(
        n in 2usize..10,
        lm in 2u32..10,
        la in 2u32..12,
        seed in any::<u64>(),
    ) {
        let a = Matrix::from_fn(F, n, n, |i, j| {
            (((seed.wrapping_mul(31).wrapping_add((i * n + j) as u64)) % 1000) as f64 - 500.0) / 37.0
        });
        let b = Matrix::from_fn(F, n, n, |i, j| {
            (((seed.wrapping_mul(17).wrapping_add((j * n + i) as u64)) % 1000) as f64 - 500.0) / 41.0
        });
        let (c, stats) = LinearArray::multiply(F, RM, lm, la, &a, &b, UnitBackend::Fast);
        prop_assert_eq!(c, reference_matmul(&a, &b, RM), "n={} lm={} la={}", n, lm, la);
        let sched = Schedule::new(n as u32, lm + la);
        prop_assert_eq!(stats.useful_macs, sched.useful_cycles() * n as u64);
        prop_assert_eq!(stats.pad_macs, sched.pad_cycles() * n as u64);
    }

    #[test]
    fn blocked_matches_flat(
        tiles in 2u32..4,
        b in prop_oneof![Just(2u32), Just(3), Just(4)],
        lm in 2u32..8,
        la in 2u32..8,
        seed in any::<u64>(),
    ) {
        let n = (tiles * b) as usize;
        let a = Matrix::from_fn(F, n, n, |i, j| {
            (((seed.wrapping_add((i * n + j) as u64 * 7)) % 997) as f64 - 498.0) / 53.0
        });
        let m = Matrix::from_fn(F, n, n, |i, j| {
            (((seed.wrapping_add((j * n + i) as u64 * 13)) % 991) as f64 - 495.0) / 59.0
        });
        let plan = BlockMatMul::square(n as u32, b, lm + la).unwrap();
        let (blocked, stats, _) = plan.run(F, RM, lm, la, &a, &m, UnitBackend::Fast).unwrap();
        let (flat, _) = LinearArray::multiply(F, RM, lm, la, &a, &m, UnitBackend::Fast);
        prop_assert_eq!(blocked, flat, "n={} b={}", n, b);
        prop_assert_eq!(stats.cycles, plan.total_cycles());
    }

    #[test]
    fn dot_matches_interleaved(
        xs in proptest::collection::vec(val(), 0..64),
        lm in 2u32..8,
        la in 2u32..12,
    ) {
        let x: Vec<u64> = xs.iter().map(|&v| SoftFloat::from_f64(F, v).bits()).collect();
        let y: Vec<u64> = xs.iter().rev().map(|&v| SoftFloat::from_f64(F, v * 0.5).bits()).collect();
        let mut unit = DotProductUnit::new(F, RM, lm, la);
        let (got, _) = unit.dot(&x, &y);
        prop_assert_eq!(got, interleaved_reference(F, RM, &x, &y, la as usize));
    }

    #[test]
    fn mvm_matches_reference(
        n in 2usize..12,
        m in 2usize..12,
        p in 1usize..6,
        lm in 2u32..6,
        la in 2u32..8,
        seed in any::<u64>(),
    ) {
        let a = Matrix::from_fn(F, n, m, |i, j| {
            (((seed.wrapping_add((i * m + j) as u64 * 11)) % 883) as f64 - 441.0) / 67.0
        });
        let x: Vec<u64> = (0..m)
            .map(|k| SoftFloat::from_f64(F, ((seed.wrapping_add(k as u64) % 771) as f64 - 385.0) / 71.0).bits())
            .collect();
        let eng = MvmEngine::new(F, RM, lm, la, p);
        let (y, _) = eng.multiply(&a, &x);
        prop_assert_eq!(y, eng.reference(&a, &x), "n={} m={} p={}", n, m, p);
    }

    /// Identity stream invariance: A·I = A for arbitrary latencies.
    #[test]
    fn identity_invariance(n in 2usize..9, lm in 2u32..9, la in 2u32..9, mat in matrix(5)) {
        let _ = n; // fixed 5x5 data, varying latencies
        let id = Matrix::identity(F, 5);
        let (c, _) = LinearArray::multiply(F, RM, lm, la, &mat, &id, UnitBackend::Fast);
        prop_assert_eq!(c, mat);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FIR: cycle-accurate equals order-faithful reference for random
    /// coefficients, depths and signals.
    #[test]
    fn fir_matches_reference(
        coeffs in proptest::collection::vec(-2.0f64..2.0, 1..10),
        stages in 1u32..10,
        xs in proptest::collection::vec(-100.0f64..100.0, 0..48),
    ) {
        use fpfpga_matmul::fir::{reference_fir, FirFilter};
        let bits: Vec<u64> = xs.iter().map(|&v| SoftFloat::from_f64(F, v).bits()).collect();
        let mut fir = FirFilter::new(F, RM, &coeffs, stages);
        let got = fir.filter(&bits);
        prop_assert_eq!(got, reference_fir(F, RM, &coeffs, &bits));
    }

    /// FFT: engine equals reference and pipeline depth never changes
    /// values, for random signals and sizes up to 256 points, forward and
    /// inverse, in the paper's three precisions.
    #[test]
    fn fft_matches_reference(
        logn in 1u32..9,
        seed in any::<u64>(),
        lm in 2u32..9,
        la in 2u32..9,
        fmt in prop_oneof![
            Just(FpFormat::SINGLE),
            Just(FpFormat::FP48),
            Just(FpFormat::DOUBLE)
        ],
        inverse in any::<bool>(),
    ) {
        use fpfpga_matmul::fft::{reference_fft, Cplx, FftEngine};
        let n = 1usize << logn;
        let x: Vec<Cplx> = (0..n)
            .map(|i| {
                let v = seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                Cplx::from_f64(
                    fmt,
                    ((v % 2000) as f64 - 1000.0) / 97.0,
                    ((v / 2000 % 2000) as f64 - 1000.0) / 89.0,
                )
            })
            .collect();
        let eng = FftEngine::new(fmt, RM, lm, la);
        let (got, cycles) = eng.run(&x, inverse);
        prop_assert_eq!(&got, &reference_fft(fmt, RM, &x, inverse));
        prop_assert_eq!(cycles, eng.cycle_model(n));
    }

    /// LU: engine equals reference for random diagonally dominant
    /// matrices across PE counts and depths.
    #[test]
    fn lu_matches_reference(
        n in 2usize..9,
        p in 1u32..5,
        ds in 2u32..16,
        ms in 2u32..8,
        seed in any::<u64>(),
    ) {
        use fpfpga_matmul::lu::LuEngine;
        let a = Matrix::from_fn(F, n, n, |i, j| {
            if i == j {
                8.0 + i as f64
            } else {
                (((seed.wrapping_add((i * n + j) as u64 * 131)) % 997) as f64 - 498.0) / 313.0
            }
        });
        let eng = LuEngine::new(F, RM, ds, ms, p);
        let r = eng.factor(&a);
        prop_assert_eq!(&r.lu, &eng.reference(&a));
        prop_assert_eq!(r.cycles, eng.cycle_model(n));
    }
}

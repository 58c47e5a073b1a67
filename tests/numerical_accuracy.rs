//! Numerical-accuracy integration: precision choices measured end to end
//! across kernels, formats and rounding modes — the quantitative backing
//! for the paper's premise that these applications "demand high numerical
//! stability and accuracy and hence are usually floating-point based".

use fpfpga::fpu::SweepCache;
use fpfpga::matmul::accuracy::{matmul_error, ulp_at, ErrorMeter};
use fpfpga::matmul::fft::{Cplx, FftEngine};
use fpfpga::matmul::pe::UnitBackend;
use fpfpga::matmul::reference::f64_matmul;
use fpfpga::matmul::{mixed_dot, mixed_matmul};
use fpfpga::prelude::*;

fn test_matrices(fmt: FpFormat, n: usize) -> (Matrix, Matrix) {
    (
        Matrix::from_fn(fmt, n, n, |i, j| ((i * n + j) as f64 * 0.21).sin()),
        Matrix::from_fn(fmt, n, n, |i, j| ((i * 2 + j * 3) as f64 * 0.17).cos()),
    )
}

#[test]
fn matmul_error_scales_with_format() {
    let n = 12;
    let mut errors = Vec::new();
    for fmt in FpFormat::PAPER_PRECISIONS {
        let (a, b) = test_matrices(fmt, n);
        let (c, _) =
            LinearArray::multiply(fmt, RoundMode::NearestEven, 5, 7, &a, &b, UnitBackend::Fast);
        let stats = matmul_error(&c, &a, &b);
        // Absolute error is bounded by ~n ulps *at the accumulation
        // magnitude* (errors accrue at intermediate scale, so the
        // per-result-ulp figure can be much larger after cancellation).
        let scale = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| a.get_f64(i, j).abs())
            .fold(1.0f64, f64::max)
            * n as f64;
        assert!(
            stats.max_abs <= 4.0 * n as f64 * ulp_at(fmt, scale),
            "{fmt}: abs {} vs bound {}",
            stats.max_abs,
            4.0 * n as f64 * ulp_at(fmt, scale)
        );
        errors.push(stats.max_abs);
    }
    assert!(errors[0] > errors[1] && errors[1] > errors[2], "{errors:?}");
    // 48-bit sits ~13 bits (≈ 4 decimal digits) below single's error
    assert!(errors[0] / errors[1] > 1e3, "{} / {}", errors[0], errors[1]);
}

#[test]
fn custom_format_accuracy_interpolates() {
    // A 20-bit format lands between half-precision-ish and single.
    let n = 8;
    let err_of = |fmt: FpFormat| {
        let (a, b) = test_matrices(fmt, n);
        let (c, _) =
            LinearArray::multiply(fmt, RoundMode::NearestEven, 4, 5, &a, &b, UnitBackend::Fast);
        matmul_error(&c, &a, &b).max_abs
    };
    let e16 = err_of(FpFormat::new(6, 9));
    let e20 = err_of(FpFormat::new(7, 12));
    let e32 = err_of(FpFormat::SINGLE);
    assert!(e16 > e20 && e20 > e32, "{e16} {e20} {e32}");
}

#[test]
fn fma_kernels_beat_two_step_on_error() {
    // LU with fused MACs vs the same elimination with mul+sub: measure
    // reconstruction error over a batch; fused must not lose.
    let n = 14;
    let fmt = FpFormat::SINGLE;
    let a = Matrix::from_fn(fmt, n, n, |i, j| {
        if i == j {
            9.0 + i as f64
        } else {
            ((i * n + j) as f64 * 0.29).sin()
        }
    });
    let eng = fpfpga::matmul::LuEngine::new(fmt, RoundMode::NearestEven, 12, 5, 2);
    let fused = eng.factor(&a);
    let back = fpfpga::matmul::lu::reconstruct(&fused.lu, RoundMode::NearestEven);
    let fused_err = back.max_abs_diff(&a);

    // two-step elimination in softfp
    let mut m = a.clone();
    for k in 0..n {
        let pivot = SoftFloat::from_bits(fmt, m.get(k, k));
        for i in k + 1..n {
            let (l, _) = SoftFloat::from_bits(fmt, m.get(i, k)).div(&pivot, RoundMode::NearestEven);
            m.set(i, k, l.bits());
            for j in k + 1..n {
                let (p, _) = l.mul(
                    &SoftFloat::from_bits(fmt, m.get(k, j)),
                    RoundMode::NearestEven,
                );
                let (d, _) = SoftFloat::from_bits(fmt, m.get(i, j)).sub(&p, RoundMode::NearestEven);
                m.set(i, j, d.bits());
            }
        }
    }
    let back2 = fpfpga::matmul::lu::reconstruct(&m, RoundMode::NearestEven);
    let two_step_err = back2.max_abs_diff(&a);
    assert!(
        fused_err <= two_step_err * 1.5,
        "fused {fused_err} vs two-step {two_step_err}"
    );
}

#[test]
fn fft_accuracy_budget() {
    // An n-point FFT does log2(n) rounded stages; error stays within a
    // small multiple of sqrt(log n) ulps of the result magnitude.
    let n = 128;
    let fmt = FpFormat::SINGLE;
    let x: Vec<Cplx> = (0..n)
        .map(|i| Cplx::from_f64(fmt, (i as f64 * 0.05).sin(), (i as f64 * 0.03).cos()))
        .collect();
    let eng = FftEngine::new(fmt, RoundMode::NearestEven, 7, 9);
    let (got, _) = eng.run(&x, false);
    // compare against a double-precision FFT via the same engine in f64
    let eng64 = FftEngine::new(FpFormat::DOUBLE, RoundMode::NearestEven, 7, 9);
    let x64: Vec<Cplx> = x
        .iter()
        .map(|c| {
            let (re, im) = c.to_f64(fmt);
            Cplx::from_f64(FpFormat::DOUBLE, re, im)
        })
        .collect();
    let (want, _) = eng64.run(&x64, false);
    let mut meter = ErrorMeter::new(fmt, 1e-30);
    for (g, w) in got.iter().zip(&want) {
        let (wr, wi) = w.to_f64(FpFormat::DOUBLE);
        meter.record(g.re, wr);
        meter.record(g.im, wi);
    }
    let s = meter.stats();
    assert!(
        s.max_abs < 6.0 * (n as f64) * ulp_at(fmt, 1.0),
        "max abs = {}",
        s.max_abs
    );
    assert!(s.rms < s.max_abs);
    assert_eq!(s.count, 2 * n);
}

#[test]
fn truncation_mode_costs_accuracy_everywhere() {
    let n = 10;
    let fmt = FpFormat::SINGLE;
    let (a, b) = test_matrices(fmt, n);
    let (ne, _) =
        LinearArray::multiply(fmt, RoundMode::NearestEven, 4, 5, &a, &b, UnitBackend::Fast);
    let (tr, _) = LinearArray::multiply(fmt, RoundMode::Truncate, 4, 5, &a, &b, UnitBackend::Fast);
    let base = f64_matmul(&a, &b);
    let mut m_ne = ErrorMeter::new(fmt, 1e-30);
    m_ne.record_matrix(&ne, &base);
    let mut m_tr = ErrorMeter::new(fmt, 1e-30);
    m_tr.record_matrix(&tr, &base);
    assert!(m_tr.stats().rms > m_ne.stats().rms);
    assert!(m_tr.stats().max_abs >= m_ne.stats().max_abs);
}

#[test]
fn dot_interleave_order_does_not_degrade_accuracy() {
    // Banked accumulation is as accurate as sequential for benign data
    // (it is the classical pairwise-ish improvement, if anything).
    let fmt = FpFormat::SINGLE;
    let n = 512;
    let xs: Vec<u64> = (0..n)
        .map(|i| SoftFloat::from_f64(fmt, (i as f64 * 0.013).sin()).bits())
        .collect();
    let ys: Vec<u64> = (0..n)
        .map(|i| SoftFloat::from_f64(fmt, (i as f64 * 0.027).cos()).bits())
        .collect();
    let exact: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(&a, &b)| {
            SoftFloat::from_bits(fmt, a).to_f64() * SoftFloat::from_bits(fmt, b).to_f64()
        })
        .sum();
    // sequential softfp
    let mut acc = SoftFloat::zero(fmt);
    for (&a, &b) in xs.iter().zip(&ys) {
        let (r, _) = acc.mac(
            &SoftFloat::from_bits(fmt, a),
            &SoftFloat::from_bits(fmt, b),
            RoundMode::NearestEven,
        );
        acc = r;
    }
    let seq_err = (acc.to_f64() - exact).abs();
    // banked
    let mut unit = DotProductUnit::new(fmt, RoundMode::NearestEven, 5, 9);
    let (banked, _) = unit.dot(&xs, &ys);
    let banked_err = (SoftFloat::from_bits(fmt, banked).to_f64() - exact).abs();
    assert!(
        banked_err <= seq_err * 2.0,
        "banked {banked_err} vs sequential {seq_err}"
    );
}

/// Deterministic positive operands in [1, 2) with full-width mantissas
/// (dyadic values would sum exactly in any format and hide the
/// accumulator) — a growing sum, the regime where the accumulator's
/// precision is the whole story.
fn probe_vectors(fmt: FpFormat, n: usize) -> (Vec<u64>, Vec<u64>) {
    let enc = |v: f64| SoftFloat::from_f64(fmt, v).bits();
    let xs = (0..n)
        .map(|i| enc(1.0 + (i as f64 * 0.37).sin().abs()))
        .collect();
    let ys = (0..n)
        .map(|i| enc(1.0 + (i as f64 * 0.53).cos().abs()))
        .collect();
    (xs, ys)
}

/// f64 reference for a dot product of storage-encoded vectors: exact
/// products of the decoded values, summed in f64.
fn dot_reference(fmt: FpFormat, xs: &[u64], ys: &[u64]) -> f64 {
    xs.iter()
        .zip(ys)
        .map(|(&a, &b)| {
            SoftFloat::from_bits(fmt, a).to_f64() * SoftFloat::from_bits(fmt, b).to_f64()
        })
        .sum()
}

/// The tentpole's numerical claim, measured end to end: a dot product
/// that multiplies in f32 but accumulates in f64 tracks the
/// high-precision reference across every depth, while the uniform-f32
/// accumulator's error grows with depth — by the deepest probe the
/// mixed policy is a decisive win.
#[test]
fn wide_accumulation_tightens_dot_error_across_depths() {
    let fmt = FpFormat::SINGLE;
    let mode = RoundMode::NearestEven;
    let uniform = PrecisionPolicy::uniform(fmt);
    let mixed = PrecisionPolicy::mixed(fmt, FpFormat::DOUBLE);
    let (xs, ys) = probe_vectors(fmt, 4096);
    let mut last_ratio = 0.0;
    for depth in [64usize, 512, 4096] {
        let base = dot_reference(fmt, &xs[..depth], &ys[..depth]);
        let err_of = |p: PrecisionPolicy| {
            let r = mixed_dot(p, mode, &xs[..depth], &ys[..depth], 5, 4);
            let mut m = ErrorMeter::new(fmt, 1e-30);
            m.record(r.bits, base);
            m.stats().max_ulp
        };
        let u = err_of(uniform);
        let w = err_of(mixed);
        assert!(
            w <= u,
            "depth {depth}: wide accumulate ({w} ulp) must not lose to uniform ({u} ulp)"
        );
        last_ratio = u / w.max(0.5);
    }
    assert!(
        last_ratio >= 4.0,
        "at depth 4096 the f64 accumulator must win clearly (ratio {last_ratio})"
    );
}

/// Ill-conditioned summation: a huge head absorbs a long tail of small
/// addends and is then cancelled away, so only the tail survives. The
/// f32 accumulator flushes the tail into the big value's ulp gap and
/// blows a 0.1% relative-error budget; the f64 accumulator keeps every
/// tail bit and passes the same budget.
#[test]
fn ill_conditioned_sum_needs_the_wide_accumulator() {
    let fmt = FpFormat::SINGLE;
    let mode = RoundMode::NearestEven;
    let n = 1024;
    let enc = |v: f64| SoftFloat::from_f64(fmt, v).bits();
    let mut xs = vec![enc(1.0); n];
    xs[0] = enc(1.0e8);
    xs[n - 1] = enc(-1.0e8);
    let ys = vec![enc(1.0); n];
    let base = dot_reference(fmt, &xs, &ys); // = n - 2 exactly

    let budget = ErrorBudget::MaxRelative(1e-3);
    let stats_of = |p: PrecisionPolicy| {
        let r = mixed_dot(p, mode, &xs, &ys, 5, 4);
        let mut m = ErrorMeter::new(fmt, 1e-30);
        m.record(r.bits, base);
        m.stats()
    };
    let narrow = stats_of(PrecisionPolicy::uniform(fmt));
    let wide = stats_of(PrecisionPolicy::mixed(fmt, FpFormat::DOUBLE));
    assert!(
        !budget.accepts(&narrow),
        "f32 accumulation must blow the budget (rel err {})",
        narrow.max_rel
    );
    assert!(
        budget.accepts(&wide),
        "f64 accumulation must pass the budget (rel err {})",
        wide.max_rel
    );
}

/// Mixed-precision matmul against the f64 reference: the f64-accumulate
/// policy stays within a tight absolute bound and never loses to the
/// uniform-f32 array on the same operands.
#[test]
fn mixed_matmul_tracks_the_f64_reference() {
    let fmt = FpFormat::SINGLE;
    let mode = RoundMode::NearestEven;
    let n = 12;
    let (a, b) = test_matrices(fmt, n);
    let base = f64_matmul(&a, &b);

    let (uniform_c, _) = mixed_matmul(PrecisionPolicy::uniform(fmt), mode, &a, &b);
    let (mixed_c, _) = mixed_matmul(PrecisionPolicy::mixed(fmt, FpFormat::DOUBLE), mode, &a, &b);
    let stats_of = |c: &Matrix| {
        let mut m = ErrorMeter::new(fmt, 1e-30);
        m.record_matrix(c, &base);
        m.stats()
    };
    let u = stats_of(&uniform_c);
    let w = stats_of(&mixed_c);
    assert!(
        w.max_abs <= u.max_abs,
        "mixed {} vs uniform {}",
        w.max_abs,
        u.max_abs
    );
    // With exact f64 accumulation the only errors are the per-product
    // f32 roundings and the final narrowing: ~n/2 + 1 half-ulps at the
    // accumulation magnitude.
    assert!(
        w.max_abs <= (n as f64 / 2.0 + 1.0) * ulp_at(fmt, n as f64),
        "mixed matmul abs error {} exceeds its rounding budget",
        w.max_abs
    );
}

/// Tightening the error budget provably changes the policy the
/// auto-tuner selects: a budget the uniform-f32 policy meets buys the
/// cheapest fabric, halving it below uniform's measured error forces a
/// wider (more expensive) accumulator.
#[test]
fn tightening_the_budget_changes_the_served_policy() {
    use fpfpga::serve::tuner::probe_stats;
    let storage = FpFormat::SINGLE;
    let tech = Tech::virtex2pro();
    let cache = SweepCache::new();
    let uniform_err =
        probe_stats(PrecisionPolicy::uniform(storage), RoundMode::NearestEven).max_ulp;

    let loose = fpfpga::serve::autotune(
        storage,
        &ErrorBudget::MaxUlp(uniform_err * 2.0),
        &tech,
        &cache,
    )
    .expect("loose budget is satisfiable");
    let tight = fpfpga::serve::autotune(
        storage,
        &ErrorBudget::MaxUlp(uniform_err / 2.0),
        &tech,
        &cache,
    )
    .expect("a wider accumulator can halve uniform error");

    assert_eq!(loose.policy, PrecisionPolicy::uniform(storage));
    assert_ne!(
        tight.policy, loose.policy,
        "the tight budget must change the selection"
    );
    assert!(
        tight.cost_slices > loose.cost_slices,
        "accuracy is bought with area: {} vs {} slices",
        tight.cost_slices,
        loose.cost_slices
    );
    assert!(tight.stats.max_ulp <= uniform_err / 2.0);
}

/// The policy surface end to end through the serving API: a tenant book
/// routes one tenant to f48, an auto-tuned submission resolves and
/// runs, and the metrics account for both.
#[test]
fn serve_policies_resolve_per_tenant_and_per_budget() {
    use fpfpga::serve::Kernel;
    let fmt = FpFormat::SINGLE;
    let enc = |v: f64| SoftFloat::from_f64(fmt, v).bits();
    let book =
        PolicyBook::default().with_tenant("science", PrecisionPolicy::mixed(fmt, FpFormat::DOUBLE));
    let pool = ServePool::new(ServeConfig {
        workers: 2,
        policies: book,
        ..ServeConfig::default()
    });
    let dot = |n: usize| Kernel::Dot {
        mult_stages: 5,
        add_stages: 4,
        x: (0..n).map(|i| enc(1.0 + i as f64 * 0.125)).collect(),
        y: (0..n).map(|i| enc(2.0 - i as f64 * 0.0625)).collect(),
    };
    let h1 = pool
        .submit(JobSpec::of(dot(33)).for_tenant("science"))
        .expect("tenant job accepted");
    let h2 = pool
        .submit(JobSpec::of(dot(33)).auto_policy(fmt, ErrorBudget::MaxUlp(1e9)))
        .expect("auto job accepted");
    assert!(matches!(
        h1.wait(),
        JobOutcome::Completed(JobResult::Dot { .. })
    ));
    assert!(matches!(
        h2.wait(),
        JobOutcome::Completed(JobResult::Dot { .. })
    ));
    match pool.submit(JobSpec::of(dot(9)).auto_policy(fmt, ErrorBudget::MaxRelative(0.0))) {
        Err(SubmitError::Budget { detail }) => {
            assert!(detail.contains("no policy"), "{detail}")
        }
        other => panic!("impossible budget must be refused, got {other:?}"),
    }
    let m = pool.join();
    assert_eq!(m.completed, 2);
    assert_eq!(m.mixed_jobs, 1, "the science tenant's job is mixed");
    assert_eq!(m.auto_tuned, 1);
    assert_eq!(m.failed, 1);
}

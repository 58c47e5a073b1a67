//! Under a uniform policy the served eltwise, dot, MVM, matmul, LU and
//! FFT kernels equal the per-cycle engines — a hand-driven
//! `DelayLineUnit` (one `clock` per pair, then `drain`),
//! `DotProductUnit::dot`, `MvmEngine::multiply`, the cheapest plan's
//! `BlockMatMul::run`, `LuEngine::factor` and `FftEngine::run` — in
//! values, flags, cycles, operation counts and every `ArrayStats`
//! field. The jobs are the trace's own, each run plain and with ±0,
//! flushed-subnormal, ∞ and ∞-with-payload operands spliced in, under
//! both rounding modes. Scale 8 runs in release only: the per-cycle
//! array is slow in debug. Served depth sweeps and the auto-tuner's
//! price, which read their opt points from a `SweepCache`, equal the
//! uncached `CoreSweep` model whether the cache is cold, warm or
//! evicting.

use std::collections::HashSet;
use std::mem::discriminant;

use fpfpga_fabric::synthesis::SynthesisOptions;
use fpfpga_fabric::tech::Tech;
use fpfpga_fpu::analysis::{CoreKind, CoreSweep};
use fpfpga_fpu::sim::{DelayLineUnit, DelayOp, FpPipe};
use fpfpga_fpu::SweepCache;
use fpfpga_matmul::pe::UnitBackend;
use fpfpga_matmul::{
    mixed_matmul, BlockMatMul, Cplx, DotProductUnit, FftEngine, LuEngine, Matrix, MvmEngine,
};
use fpfpga_serve::tuner::{candidate_policies, policy_cost};
use fpfpga_serve::{synth_trace, EltOp, Job, JobResult, Kernel, TraceConfig};
use fpfpga_softfp::{FpFormat, PrecisionPolicy, RoundMode};

/// Which operands a variant overwrites, and with what.
#[derive(Clone, Copy, Debug)]
enum Splice {
    Plain,
    Zero,
    Subnormal,
    Inf,
    InfPayload,
    /// All four specials in turn, so `0·∞` and `∞ − ∞` occur.
    Cycle,
}

impl Splice {
    const ALL: [Splice; 6] = [
        Splice::Plain,
        Splice::Zero,
        Splice::Subnormal,
        Splice::Inf,
        Splice::InfPayload,
        Splice::Cycle,
    ];

    /// Overwrite every `stride`-th element (from `offset`) with this
    /// variant's special, alternating signs.
    fn apply(self, fmt: FpFormat, bits: &mut [u64], stride: usize, offset: usize) {
        let inf = fmt.inf_biased_exp();
        for (n, i) in (offset..bits.len()).step_by(stride).enumerate() {
            let sign = n % 2 == 1;
            let kind = match self {
                Splice::Plain => return,
                Splice::Cycle => [
                    Splice::Zero,
                    Splice::Subnormal,
                    Splice::Inf,
                    Splice::InfPayload,
                ][n % 4],
                other => other,
            };
            bits[i] = match kind {
                Splice::Zero => fmt.pack(sign, 0, 0),
                Splice::Subnormal => fmt.pack(sign, 0, 1 + n as u64),
                Splice::Inf => fmt.pack(sign, inf, 0),
                _ => fmt.pack(sign, inf, 1 + n as u64),
            };
        }
    }

    fn vector(self, fmt: FpFormat, v: &[u64], stride: usize, offset: usize) -> Vec<u64> {
        let mut v = v.to_vec();
        self.apply(fmt, &mut v, stride, offset);
        v
    }

    fn matrix(self, m: &Matrix, stride: usize, offset: usize) -> Matrix {
        let data = self.vector(m.format(), m.data(), stride, offset);
        Matrix::from_bits(m.format(), m.rows(), m.cols(), data)
    }
}

/// `job`'s kernel with `splice` applied to its operands.
fn spliced(kernel: &Kernel, fmt: FpFormat, splice: Splice) -> Kernel {
    let mut kernel = kernel.clone();
    match &mut kernel {
        Kernel::Eltwise { pairs, .. } => {
            let (a, b): (Vec<u64>, Vec<u64>) = pairs.iter().copied().unzip();
            let (a, b) = (splice.vector(fmt, &a, 3, 0), splice.vector(fmt, &b, 2, 1));
            *pairs = a.into_iter().zip(b).collect();
        }
        Kernel::Lu { a, .. } => *a = splice.matrix(a, 5, 2),
        Kernel::Dot { x, y, .. } => {
            *x = splice.vector(fmt, x, 3, 0);
            *y = splice.vector(fmt, y, 2, 1);
        }
        Kernel::Mvm { a, x, .. } => {
            *a = splice.matrix(a, 5, 2);
            *x = splice.vector(fmt, x, 3, 0);
        }
        Kernel::MatMul { a, b, .. } => {
            *a = splice.matrix(a, 4, 1);
            *b = splice.matrix(b, 3, 0);
        }
        Kernel::Fft { data, .. } => {
            let parts: Vec<u64> = data.iter().flat_map(|c| [c.re, c.im]).collect();
            let parts = splice.vector(fmt, &parts, 3, 1);
            *data = parts
                .chunks_exact(2)
                .map(|p| Cplx { re: p[0], im: p[1] })
                .collect();
        }
        _ => unreachable!("apfloat and sweeps are not spliced"),
    }
    kernel
}

/// The per-cycle engines' result for a uniform `job`.
fn per_cycle(job: &Job) -> JobResult {
    let (fmt, mode) = (job.policy.storage, job.mode);
    match &job.kernel {
        Kernel::Eltwise { op, stages, pairs } => {
            let op = match op {
                EltOp::Add => DelayOp::Add,
                EltOp::Sub => DelayOp::Sub,
                EltOp::Mul => DelayOp::Mul,
                EltOp::Div => DelayOp::Div,
                EltOp::Sqrt => DelayOp::Sqrt,
            };
            let mut unit = DelayLineUnit::new(fmt, mode, op, *stages);
            let mut out: Vec<_> = pairs.iter().filter_map(|&p| unit.clock(Some(p))).collect();
            out.extend(unit.drain());
            JobResult::Eltwise(out)
        }
        Kernel::Lu {
            div_stages,
            mac_stages,
            p,
            a,
        } => {
            let r = LuEngine::new(fmt, mode, *div_stages, *mac_stages, *p).factor(a);
            JobResult::Lu {
                lu: r.lu,
                cycles: r.cycles,
                divs: r.divs,
                macs: r.macs,
                flags: r.flags,
            }
        }
        Kernel::Dot {
            mult_stages,
            add_stages,
            x,
            y,
        } => {
            let mut unit = DotProductUnit::new(fmt, mode, *mult_stages, *add_stages);
            let (value, cycles) = unit.dot(x, y);
            JobResult::Dot {
                value,
                flags: unit.flags,
                cycles,
            }
        }
        Kernel::Mvm {
            mult_stages,
            add_stages,
            p,
            a,
            x,
        } => {
            let engine = MvmEngine::new(fmt, mode, *mult_stages, *add_stages, *p);
            let (y, cycles) = engine.multiply(a, x);
            JobResult::Mvm { y, cycles }
        }
        Kernel::MatMul {
            mult_stages,
            add_stages,
            a,
            b,
        } => {
            let dim = |d: usize| d as u32;
            let pl = mult_stages + add_stages;
            let plan = BlockMatMul::cheapest(dim(a.rows()), dim(a.cols()), dim(b.cols()), pl)
                .expect("trace shapes are valid");
            let (c, stats, flags) = plan
                .run(
                    fmt,
                    mode,
                    *mult_stages,
                    *add_stages,
                    a,
                    b,
                    UnitBackend::Fast,
                )
                .expect("trace operands fit their plan");
            // The served result has no flags; the policy kernel's must
            // still equal the array's.
            let (_, kernel_flags) = mixed_matmul(job.policy, mode, a, b);
            assert_eq!(kernel_flags, flags, "matmul flags");
            JobResult::MatMul { c, stats }
        }
        Kernel::Fft {
            mult_stages,
            add_stages,
            data,
            inverse,
        } => {
            let engine = FftEngine::new(fmt, mode, *mult_stages, *add_stages);
            let (data, cycles) = engine.run(data, *inverse);
            JobResult::Fft { data, cycles }
        }
        _ => unreachable!("apfloat and sweeps are not compared"),
    }
}

fn check_scale(scale: usize, jobs: usize) -> usize {
    let cfg = TraceConfig {
        seed: 11,
        jobs,
        payload_scale: scale,
        ..TraceConfig::default()
    };
    let (tech, cache) = (Tech::virtex2pro(), SweepCache::new());
    let mut checked = 0;
    let mut kinds = HashSet::new();
    for event in synth_trace(&cfg) {
        let Some(job) = event.spec.fixed_job() else {
            continue;
        };
        if matches!(job.kernel, Kernel::Apfloat { .. } | Kernel::Sweep { .. }) {
            continue;
        }
        kinds.insert(discriminant(&job.kernel));
        let fmt = job.policy.storage;
        for splice in Splice::ALL {
            for mode in [RoundMode::NearestEven, RoundMode::Truncate] {
                let job = Job::uniform(spliced(&job.kernel, fmt, splice), fmt, mode);
                job.validate().expect("spliced trace jobs stay valid");
                let want = per_cycle(&job);
                let got = job.run(&tech, &cache);
                assert_eq!(
                    got, want,
                    "scale {scale} {splice:?} {mode:?} {:?}",
                    job.kernel
                );
                checked += 1;
            }
        }
    }
    assert_eq!(
        kinds.len(),
        6,
        "scale {scale}: every compared kernel occurs"
    );
    checked
}

#[test]
fn uniform_served_kernels_equal_the_per_cycle_engines() {
    assert!(check_scale(1, 1000) > 3000);
    if !cfg!(debug_assertions) {
        assert!(check_scale(8, 400) > 1000);
    }
}

/// The engines' cost models do not depend on the policy: one MVM shape
/// and one matmul shape charge the same under `uniform(f32)` and
/// `mixed(f32, f64)`.
#[test]
fn cost_model_is_policy_independent() {
    let fmt = FpFormat::SINGLE;
    let (tech, cache) = (Tech::virtex2pro(), SweepCache::new());
    let a = Matrix::from_fn(fmt, 7, 5, |i, j| ((i * 5 + j) as f64 * 0.3).sin());
    let b = Matrix::from_fn(fmt, 5, 9, |i, j| ((i + 2 * j) as f64 * 0.7).cos());
    let x = b.data()[..5].to_vec();
    let run = |kernel: Kernel, policy: PrecisionPolicy| {
        let job = Job::new(kernel, policy, RoundMode::NearestEven);
        job.validate().unwrap();
        job.run(&tech, &cache)
    };
    let policies = [
        PrecisionPolicy::uniform(fmt),
        PrecisionPolicy::mixed(fmt, FpFormat::DOUBLE),
    ];
    let [uniform, mixed] = policies.map(|policy| {
        let mvm = Kernel::Mvm {
            mult_stages: 5,
            add_stages: 4,
            p: 3,
            a: a.clone(),
            x: x.clone(),
        };
        let matmul = Kernel::MatMul {
            mult_stages: 5,
            add_stages: 4,
            a: a.clone(),
            b: b.clone(),
        };
        match (run(mvm, policy), run(matmul, policy)) {
            (JobResult::Mvm { cycles, .. }, JobResult::MatMul { stats, .. }) => (cycles, stats),
            other => panic!("wrong result kinds: {other:?}"),
        }
    });
    assert_eq!(uniform, mixed);
    assert!(uniform.1.cycles > 0 && uniform.1.pad_macs > 0);
}

/// Run `query` on every key against a cold cache, again warm, and twice
/// over on a one-entry cache that evicts before every lookup; each run
/// must return the uncached model's answer.
fn check_cold_warm_evicted<K: Copy + std::fmt::Debug, T: PartialEq + std::fmt::Debug>(
    keys: &[K],
    lookups_per_key: u64,
    model: impl Fn(K) -> T,
    query: impl Fn(K, &SweepCache) -> T,
) {
    let evicting = SweepCache::with_capacity(1);
    for &key in keys {
        let want = model(key);
        let cache = SweepCache::new();
        assert_eq!(query(key, &cache), want, "cold {key:?}");
        assert_eq!(query(key, &cache), want, "warm {key:?}");
        assert_eq!(cache.misses(), lookups_per_key, "{key:?}");
        assert_eq!(cache.hits(), lookups_per_key, "{key:?}");
        assert_eq!(query(key, &evicting), want, "evicting {key:?}");
    }
    for &key in keys {
        assert_eq!(query(key, &evicting), model(key), "re-evicted {key:?}");
    }
    assert_eq!(evicting.hits(), 0, "every evicting lookup re-synthesizes");
    assert_eq!(evicting.evictions(), evicting.misses() - 1);
}

#[test]
fn served_sweeps_equal_the_uncached_model() {
    let tech = Tech::virtex2pro();
    let mut keys = Vec::new();
    for kind in [
        CoreKind::Adder,
        CoreKind::Multiplier,
        CoreKind::Divider,
        CoreKind::Sqrt,
    ] {
        for fmt in FpFormat::PAPER_PRECISIONS {
            for opts in [SynthesisOptions::SPEED, SynthesisOptions::AREA] {
                keys.push((kind, fmt, opts));
            }
        }
    }
    check_cold_warm_evicted(
        &keys,
        1,
        |(kind, fmt, opts)| {
            let sweep = CoreSweep::new(kind, fmt, &tech, opts);
            JobResult::Sweep {
                opt: sweep.opt().clone(),
                depths: sweep.reports.len(),
            }
        },
        |(kind, fmt, opts), cache| {
            let job = Job::uniform(Kernel::Sweep { kind, opts }, fmt, RoundMode::NearestEven);
            job.validate().expect("a uniform sweep is valid");
            job.run(&tech, cache)
        },
    );
}

#[test]
fn tuner_price_equals_the_uncached_model() {
    let tech = Tech::virtex2pro();
    let opts = SynthesisOptions::SPEED;
    let policies: Vec<PrecisionPolicy> = FpFormat::PAPER_PRECISIONS
        .into_iter()
        .flat_map(candidate_policies)
        .collect();
    check_cold_warm_evicted(
        &policies,
        2,
        |policy| {
            CoreSweep::multiplier(policy.compute, &tech, opts)
                .opt()
                .slices
                + CoreSweep::adder(policy.accumulate, &tech, opts)
                    .opt()
                    .slices
        },
        |policy, cache| policy_cost(policy, &tech, cache),
    );
}

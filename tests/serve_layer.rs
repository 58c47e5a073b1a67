//! Integration tests for the serving layer through the `fpfpga`
//! prelude: trace replay equivalence, backpressure, priority shedding,
//! deadlines, coalescing occupancy and metrics accounting — the
//! acceptance checklist of the serving subsystem, driven end to end.

use std::time::Duration;

use fpfpga::prelude::*;
use fpfpga::serve::job::EltOp;

fn add_job(fmt: FpFormat, vals: &[(f64, f64)]) -> Job {
    Job::uniform(
        Kernel::Eltwise {
            op: EltOp::Add,
            stages: 6,
            pairs: vals
                .iter()
                .map(|&(a, b)| {
                    (
                        SoftFloat::from_f64(fmt, a).bits(),
                        SoftFloat::from_f64(fmt, b).bits(),
                    )
                })
                .collect(),
        },
        fmt,
        RoundMode::NearestEven,
    )
}

/// The default synthetic trace replayed through pools of 1 and 4
/// workers matches the serial oracle bit for bit, and the pool's
/// accounting adds up: every submitted job completed, the queues
/// drained, and the sweep jobs in the mix hit the shard caches.
#[test]
fn default_trace_replay_is_bit_identical_to_serial() {
    let trace = synth_trace(&TraceConfig {
        seed: 2026,
        jobs: 96,
        rate_hz: 1e6,
        ..TraceConfig::default()
    });
    let specs: Vec<JobSpec> = trace.into_iter().map(|ev| ev.spec).collect();
    let tech = Tech::virtex2pro();
    let want = fpfpga::serve::run_serial(&specs, &tech);

    for workers in [1usize, 4] {
        let pool = ServePool::new(ServeConfig {
            workers,
            queue_capacity: specs.len(),
            tech: tech.clone(),
            ..ServeConfig::default()
        });
        let handles: Vec<JobHandle> = specs
            .iter()
            .map(|s| pool.submit(s.clone()).expect("trace job accepted"))
            .collect();
        let got: Vec<JobResult> = handles
            .into_iter()
            .map(|h| match h.wait() {
                JobOutcome::Completed(r) => r,
                other => panic!("trace job must complete: {other:?}"),
            })
            .collect();
        assert_eq!(got, want, "{workers}-worker replay diverged from serial");

        let m = pool.join();
        assert_eq!(m.submitted, specs.len() as u64);
        assert_eq!(m.completed, specs.len() as u64);
        assert_eq!(m.queue_depth, 0, "queues must drain");
        assert!(
            m.cache_misses > 0,
            "the trace mix contains sweep jobs, so shard caches must be exercised"
        );
    }
}

/// A full queue answers `Rejected` immediately — backpressure is
/// explicit, nothing blocks and nothing is silently dropped — and the
/// rejection is visible in the metrics.
#[test]
fn backpressure_rejects_and_reports() {
    let fmt = FpFormat::SINGLE;
    let pool = ServePool::new(ServeConfig {
        workers: 1,
        queue_capacity: 3,
        ..ServeConfig::default()
    });
    pool.pause();
    let accepted: Vec<JobHandle> = (0..3)
        .map(|i| {
            pool.submit(add_job(fmt, &[(i as f64, 1.0)]))
                .expect("accepted")
        })
        .collect();
    for _ in 0..2 {
        match pool.submit(add_job(fmt, &[(9.0, 9.0)])) {
            Err(SubmitError::Rejected { queue_depth }) => assert_eq!(queue_depth, 3),
            other => panic!("full queue must reject, got {other:?}"),
        }
    }
    pool.resume();
    for h in accepted {
        assert!(matches!(h.wait(), JobOutcome::Completed(_)));
    }
    let m = pool.join();
    assert_eq!((m.submitted, m.completed, m.rejected), (3, 3, 2));
    assert_eq!(m.max_queue_depth, 3);
}

/// Graceful degradation sheds strictly-lower-priority work first and
/// reports it — on the shed job's own handle and in the metrics.
#[test]
fn overload_sheds_lowest_priority_first() {
    let fmt = FpFormat::SINGLE;
    let pool = ServePool::new(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServeConfig::default()
    });
    pool.pause();
    let low = pool
        .submit(JobSpec::new(add_job(fmt, &[(1.0, 1.0)])).with_priority(Priority::Low))
        .expect("accepted");
    let normal = pool
        .submit(JobSpec::new(add_job(fmt, &[(2.0, 2.0)])).with_priority(Priority::Normal))
        .expect("accepted");
    let high = pool
        .submit(JobSpec::new(add_job(fmt, &[(3.0, 3.0)])).with_priority(Priority::High))
        .expect("accepted");
    // The Low job went first; Normal survived a High arrival.
    assert_eq!(low.wait(), JobOutcome::Shed);
    pool.resume();
    assert!(matches!(normal.wait(), JobOutcome::Completed(_)));
    assert!(matches!(high.wait(), JobOutcome::Completed(_)));
    let m = pool.join();
    assert_eq!((m.shed, m.completed), (1, 2));
}

/// An expired deadline is reported as `TimedOut` on the handle and
/// counted in the metrics; the job is never executed late.
#[test]
fn deadlines_time_out_and_are_counted() {
    let fmt = FpFormat::SINGLE;
    let pool = ServePool::new(ServeConfig::with_workers(1));
    pool.pause();
    let doomed = pool
        .submit(JobSpec::new(add_job(fmt, &[(1.0, 1.0)])).with_deadline(Duration::ZERO))
        .expect("accepted");
    let fine = pool
        .submit(JobSpec::new(add_job(fmt, &[(2.0, 2.0)])).with_deadline(Duration::from_secs(3600)))
        .expect("accepted");
    pool.resume();
    assert_eq!(doomed.wait(), JobOutcome::TimedOut);
    assert!(matches!(fine.wait(), JobOutcome::Completed(_)));
    let m = pool.join();
    assert_eq!((m.timed_out, m.completed), (1, 1));
}

/// Compatible elementwise streams queued together are served by one
/// `run_coalesced` call: batch occupancy rises above 1 while results stay
/// exactly per-job.
#[test]
fn coalescing_raises_batch_occupancy() {
    let fmt = FpFormat::FP48;
    let pool = ServePool::new(ServeConfig {
        workers: 1,
        queue_capacity: 32,
        coalesce_window: 8,
        ..ServeConfig::default()
    });
    pool.pause();
    let handles: Vec<JobHandle> = (0..8)
        .map(|i| {
            pool.submit(add_job(fmt, &[(i as f64, 0.5)]))
                .expect("accepted")
        })
        .collect();
    pool.resume();
    for (i, h) in handles.into_iter().enumerate() {
        match h.wait() {
            JobOutcome::Completed(JobResult::Eltwise(rs)) => {
                assert_eq!(
                    SoftFloat::from_bits(fmt, rs[0].0).to_f64(),
                    i as f64 + 0.5,
                    "job {i} result"
                );
            }
            other => panic!("job {i}: {other:?}"),
        }
    }
    let m = pool.join();
    assert!(
        m.batch_occupancy() > 1.0,
        "identical streams queued together must coalesce (occupancy {})",
        m.batch_occupancy()
    );
    assert_eq!(m.batched_jobs, 8);
}

/// The serving types round-trip through the prelude, and the metrics
/// snapshot exposes the latency histogram and cache hit rate.
#[test]
fn prelude_exposes_the_serving_surface() {
    let pool = ServePool::new(ServeConfig::default());
    let job = Job::uniform(
        Kernel::Sweep {
            kind: CoreKind::Adder,
            opts: SynthesisOptions::SPEED,
        },
        FpFormat::SINGLE,
        RoundMode::NearestEven,
    );
    let h1 = pool.submit(job.clone()).expect("accepted");
    assert!(matches!(
        h1.wait(),
        JobOutcome::Completed(JobResult::Sweep { .. })
    ));
    let h2 = pool.submit(job).expect("accepted");
    assert!(matches!(
        h2.wait(),
        JobOutcome::Completed(JobResult::Sweep { .. })
    ));
    let m: MetricsSnapshot = pool.join();
    assert_eq!(m.completed, 2);
    assert!(m.latency_count() >= 2);
    assert!(m.latency_quantile_us(0.5).is_some());
    // Identical sweeps route to one shard: the second is a cache hit.
    assert_eq!(m.cache_misses, 1);
    assert_eq!(m.cache_hits, 1);
    assert_eq!(m.cache_hit_rate(), Some(0.5));
}

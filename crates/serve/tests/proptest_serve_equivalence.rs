//! The serving layer's defining property: for any synthetic trace and
//! any worker count, replaying the trace through a [`ServePool`]
//! produces **bit-identical** results — values, cycle counts and
//! exception [`Flags`] alike — to running the same jobs serially on
//! one thread ([`run_serial`]). Sharding, queue interleaving and
//! coalescing may reorder and batch execution arbitrarily, but must
//! never change a single result bit.

use fpfpga_fabric::tech::Tech;
use fpfpga_serve::{
    run_serial, synth_trace, JobOutcome, JobResult, JobSpec, Priority, ServeConfig, ServePool,
    TraceConfig,
};
use proptest::prelude::*;

/// Replay `specs` through a fresh pool (optionally pre-paused so the
/// queues fill up and coalescing is maximal) and collect each job's
/// result in submission order.
fn replay(config: ServeConfig, specs: &[JobSpec], pause_first: bool) -> Vec<JobResult> {
    let pool = ServePool::new(config);
    if pause_first {
        pool.pause();
    }
    let handles: Vec<_> = specs
        .iter()
        .map(|s| {
            // Equivalence runs strip the scheduling envelope: ample
            // queues, normal priority, no deadlines, so every job
            // completes.
            let spec = JobSpec {
                priority: Priority::Normal,
                deadline: None,
                ..s.clone()
            };
            pool.submit(spec).expect("equivalence job accepted")
        })
        .collect();
    if pause_first {
        pool.resume();
    }
    handles
        .into_iter()
        .map(|h| match h.wait() {
            JobOutcome::Completed(r) => r,
            other => panic!("equivalence job must complete, got {other:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (trace seed, worker count) → pool results == serial results,
    /// bit for bit, flags included.
    #[test]
    fn pool_matches_serial_at_any_worker_count(
        seed in any::<u64>(),
        jobs in 4usize..=20,
        workers in 1usize..=8,
    ) {
        let trace = synth_trace(&TraceConfig { seed, jobs, rate_hz: 1e6, ..TraceConfig::default() });
        let specs: Vec<JobSpec> = trace.into_iter().map(|ev| ev.spec).collect();
        let tech = Tech::virtex2pro();
        let want = run_serial(&specs, &tech);
        let config = ServeConfig {
            workers,
            queue_capacity: specs.len().max(1),
            tech,
            ..ServeConfig::default()
        };
        let got = replay(config, &specs, false);
        prop_assert_eq!(&got, &want, "seed={} workers={}", seed, workers);
    }

    /// Same property with the pool paused during submission, which
    /// packs the shard queues and forces maximal coalescing — the
    /// batched path must still be bit-identical to serial.
    #[test]
    fn coalesced_replay_matches_serial(
        seed in any::<u64>(),
        jobs in 8usize..=24,
        workers in 1usize..=4,
        window in 2usize..=16,
    ) {
        let trace = synth_trace(&TraceConfig { seed, jobs, rate_hz: 1e6, ..TraceConfig::default() });
        let specs: Vec<JobSpec> = trace.into_iter().map(|ev| ev.spec).collect();
        let tech = Tech::virtex2pro();
        let want = run_serial(&specs, &tech);
        let config = ServeConfig {
            workers,
            queue_capacity: specs.len().max(1),
            coalesce_window: window,
            tech,
            ..ServeConfig::default()
        };
        let got = replay(config, &specs, true);
        prop_assert_eq!(&got, &want, "seed={} workers={} window={}", seed, workers, window);
    }

    /// Replays of one trace agree with each other across different
    /// worker counts (transitivity smoke on top of the serial oracle),
    /// and with a bounded-cache pool (eviction never changes results).
    #[test]
    fn worker_count_and_cache_bound_are_invisible(
        seed in any::<u64>(),
        jobs in 4usize..=16,
    ) {
        let trace = synth_trace(&TraceConfig { seed, jobs, rate_hz: 1e6, ..TraceConfig::default() });
        let specs: Vec<JobSpec> = trace.into_iter().map(|ev| ev.spec).collect();
        let tech = Tech::virtex2pro();
        let base = ServeConfig {
            workers: 1,
            queue_capacity: specs.len().max(1),
            tech,
            ..ServeConfig::default()
        };
        let one = replay(base.clone(), &specs, false);
        let four = replay(ServeConfig { workers: 4, ..base.clone() }, &specs, false);
        let tiny_cache = replay(
            ServeConfig { workers: 2, cache_capacity: 1, ..base },
            &specs,
            false,
        );
        prop_assert_eq!(&one, &four);
        prop_assert_eq!(&one, &tiny_cache);
    }
}

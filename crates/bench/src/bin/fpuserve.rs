//! `fpuserve` — replay a synthetic mixed-precision job trace through
//! the serving layer and report throughput, latency and scheduling
//! metrics; or demo a single precision policy end to end.
//!
//! ```text
//! cargo run --release -p fpfpga-bench --bin fpuserve -- \
//!     --seed 7 --jobs 256 --workers 4
//! cargo run --release -p fpfpga-bench --bin fpuserve -- --policy f32/f64
//! cargo run --release -p fpfpga-bench --bin fpuserve -- \
//!     --error-budget 4ulp --storage f32
//! ```
//!
//! The trace is a Poisson arrival process over the full kernel mix
//! (elementwise streams, dot products, MVM, matmul, LU, FFT, depth
//! sweeps) at mixed precisions and policies, a pure function of
//! `--seed`. Every replay first checks the pool's results bit-for-bit
//! against the serial oracle, then reports the replay metrics;
//! `--scale` sweeps the worker count to show throughput scaling.
//!
//! With `--policy` (pin a policy) or `--error-budget` (let the
//! ULP-budget auto-tuner choose one), the tool instead runs a
//! dot-product job under that policy through a pool and reports the
//! resolved policy, its probe error and its fabric cost. An
//! unsatisfiable budget exits with the budget code (3).

use std::time::Instant;

use fpfpga::fpu::SweepCache;
use fpfpga::prelude::*;
use fpfpga::serve::tuner::{policy_cost, probe_stats, PROBE_DEPTHS};
use fpfpga::serve::{autotune, run_serial, Kernel};
use fpfpga_bench::cli::{
    bad_flag, die_submit, parse_budget, parse_format, parse_num, parse_policy, EXIT_BUDGET,
    EXIT_USAGE,
};
use fpfpga_bench::json::{metrics_json, run_record};
use serde_json::json;

const HELP: &str = "fpuserve — trace-replay driver for the fpfpga serving layer

Usage: fpuserve [options]

Trace replay:
  --seed <n>         trace RNG seed (default 7)
  --jobs <n>         number of requests in the trace (default 256)
  --rate <hz>        Poisson arrival rate in requests/s (default 20000)
  --payload-scale <n> multiplier on payload sizes (default 1)
  --workers <n>      worker (= shard) count (default 4)
  --queue <n>        per-shard queue capacity (default: trace size)
  --window <n>       max jobs coalesced into one batch (default 16)
  --scale            sweep 1/2/4/8 workers and print a scaling table

Precision-policy demo (replaces the replay when given):
  --policy <p>       pin a policy, compute[/accumulate[/storage]]
                     (e.g. f32, f32/f64, f32/f64/f32)
  --error-budget <b> auto-tune the cheapest policy meeting the budget
                     (e.g. 4ulp, rel1e-6)
  --storage <fmt>    storage format for --error-budget (default f32)

Common:
  --json             emit the report as JSON instead of text
  -h, --help         print this help and exit

Exit codes: 0 ok, 1 runtime failure, 2 usage, 3 budget unsatisfiable,
4 queue rejected, 5 pool closed";

const VALUE_FLAGS: &[&str] = &[
    "--seed",
    "--jobs",
    "--rate",
    "--payload-scale",
    "--workers",
    "--queue",
    "--window",
    "--policy",
    "--error-budget",
    "--storage",
];

struct Replay {
    metrics: MetricsSnapshot,
    wall_s: f64,
}

/// Replay `specs` through a pool of `workers` workers as fast as the
/// queues accept, asserting bit-identical results against `oracle`
/// before reporting any number.
fn replay(specs: &[JobSpec], oracle: &[JobResult], config: ServeConfig) -> Replay {
    let workers = config.workers;
    let pool = ServePool::new(config);
    let start = Instant::now();
    let handles: Vec<JobHandle> = specs
        .iter()
        .map(|s| {
            pool.submit(s.clone()).unwrap_or_else(|e| {
                die_submit("trace replay (is --queue at least the trace size?)", e)
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        match h.wait() {
            JobOutcome::Completed(r) => assert_eq!(
                r, oracle[i],
                "job {i} diverged from the serial oracle at {workers} workers"
            ),
            other => panic!("job {i} did not complete: {other:?}"),
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    Replay {
        metrics: pool.join(),
        wall_s,
    }
}

fn report_text(r: &Replay, specs_len: usize, workers: usize) {
    let m = &r.metrics;
    println!(
        "pool: {} workers — {} jobs in {:.2} ms → {:.0} jobs/s, {:.2e} work items/s",
        workers,
        specs_len,
        r.wall_s * 1e3,
        specs_len as f64 / r.wall_s,
        m.work_items as f64 / r.wall_s,
    );
    println!(
        "  outcomes: {} completed, {} rejected, {} timed out, {} shed, {} failed",
        m.completed, m.rejected, m.timed_out, m.shed, m.failed
    );
    println!(
        "  policies: {} mixed-precision jobs, {} auto-tuned submissions",
        m.mixed_jobs, m.auto_tuned
    );
    println!(
        "  batching: {} batches over {} coalescible jobs, occupancy {:.2}",
        m.batches,
        m.batched_jobs,
        m.batch_occupancy()
    );
    let q = |p: f64| {
        m.latency_quantile_us(p)
            .map_or("-".to_string(), |us| format!("{us} µs"))
    };
    println!(
        "  latency (bucket upper bounds): p50 ≤ {}, p90 ≤ {}, p99 ≤ {}; peak queue depth {}",
        q(0.50),
        q(0.90),
        q(0.99),
        m.max_queue_depth
    );
    println!(
        "  sweep cache: {} hits / {} misses ({}), {} evictions",
        m.cache_hits,
        m.cache_misses,
        m.cache_hit_rate()
            .map_or("-".to_string(), |r| format!("{:.0}% hit rate", r * 100.0)),
        m.cache_evictions
    );
}

/// The policy-demo job: a deterministic 64-element dot product encoded
/// in `storage`.
fn demo_kernel(storage: FpFormat) -> Kernel {
    let enc = |v: f64| SoftFloat::from_f64(storage, v).bits();
    let x: Vec<u64> = (0..64)
        .map(|i| enc(0.75 + (i % 13) as f64 * 0.25))
        .collect();
    let y: Vec<u64> = (0..64).map(|i| enc(1.0 + (i % 7) as f64 * 0.5)).collect();
    Kernel::Dot {
        mult_stages: 5,
        add_stages: 4,
        x,
        y,
    }
}

/// Run the precision-policy demo: resolve (or auto-tune) the policy,
/// submit one dot-product job under it, and report policy, probe error
/// and fabric cost.
fn policy_demo(
    pinned: Option<PrecisionPolicy>,
    budget: Option<ErrorBudget>,
    storage: FpFormat,
    as_json: bool,
) {
    let tech = Tech::virtex2pro();
    let cache = SweepCache::new();
    let mode = RoundMode::NearestEven;

    // Resolve up front so the report can explain the choice; the pool
    // re-resolves identically (the tuner is deterministic).
    let (policy, evaluated) = match (pinned, &budget) {
        (Some(p), _) => (p, 1usize),
        (None, Some(b)) => match autotune(storage, b, &tech, &cache) {
            Ok(t) => (t.policy, t.evaluated),
            Err(detail) => {
                eprintln!("error: error budget unsatisfiable: {detail}");
                std::process::exit(EXIT_BUDGET);
            }
        },
        (None, None) => unreachable!("demo requires --policy or --error-budget"),
    };
    let stats = probe_stats(policy, mode);
    let cost = policy_cost(policy, &tech, &cache);

    let pool = ServePool::new(ServeConfig::with_workers(2));
    let spec = match budget {
        Some(b) => JobSpec::of(demo_kernel(storage)).auto_policy(storage, b),
        None => JobSpec::of(demo_kernel(policy.storage)).with_policy(policy),
    };
    let handle = pool
        .submit(spec)
        .unwrap_or_else(|e| die_submit("policy demo", e));
    let dot_bits = match handle.wait() {
        JobOutcome::Completed(JobResult::Dot { value, .. }) => value,
        other => {
            eprintln!("error: policy demo job did not complete: {other:?}");
            std::process::exit(1);
        }
    };
    let m = pool.join();
    let result = SoftFloat::from_bits(policy.storage, dot_bits).to_f64();

    if as_json {
        let doc = json!({
            "tool": "fpuserve",
            "mode": "policy-demo",
            "policy": policy.to_string(),
            "compute": policy.compute.to_string(),
            "accumulate": policy.accumulate.to_string(),
            "storage": policy.storage.to_string(),
            "auto_tuned": budget.is_some(),
            "candidates_evaluated": evaluated,
            "probe": json!({
                "depths": PROBE_DEPTHS,
                "max_ulp": stats.max_ulp,
                "max_rel": stats.max_rel,
                "rms": stats.rms,
            }),
            "cost_slices": cost,
            "dot_result": result,
            "metrics": metrics_json(&m),
        });
        println!("{}", serde_json::to_string_pretty(&doc).expect("serialize"));
        return;
    }

    println!("fpuserve — precision-policy demo");
    match budget {
        Some(b) => println!(
            "auto-tuned for budget {b} on {} storage ({evaluated} candidates evaluated)",
            storage.canonical_name()
        ),
        None => println!("pinned policy"),
    }
    println!(
        "policy: {policy} — compute {}, accumulate {}, storage {}",
        policy.compute, policy.accumulate, policy.storage
    );
    println!(
        "probe error (dot depths {PROBE_DEPTHS:?}): max {:.2} ulp, rel {:.2e}, rms {:.2e}",
        stats.max_ulp, stats.max_rel, stats.rms
    );
    println!("fabric cost: {cost} slices (opt multiplier @ compute + opt adder @ accumulate)");
    println!(
        "serve: dot(64) = {result} via ServePool — {} mixed job(s), {} auto-tuned submission(s)",
        m.mixed_jobs, m.auto_tuned
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return;
    }
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a == "--scale" || a == "--json" {
            i += 1;
        } else if VALUE_FLAGS.contains(&a) {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => i += 2,
                _ => {
                    eprintln!("error: {a} requires a value");
                    std::process::exit(EXIT_USAGE);
                }
            }
        } else {
            eprintln!(
                "error: unrecognized argument '{a}' (flags: {} , --scale --json -h)",
                VALUE_FLAGS.join(" ")
            );
            std::process::exit(EXIT_USAGE);
        }
    }
    let get = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let as_json = args.iter().any(|a| a == "--json");

    let pinned = get("--policy").map(|v| parse_policy("--policy", &v));
    let budget = get("--error-budget").map(|v| parse_budget("--error-budget", &v));
    let storage = get("--storage").map_or(FpFormat::SINGLE, |v| parse_format("--storage", &v));
    if pinned.is_some() && budget.is_some() {
        bad_flag(
            "--error-budget",
            "…",
            "either --policy or --error-budget, not both",
        );
    }
    if pinned.is_some() || budget.is_some() {
        policy_demo(pinned, budget, storage, as_json);
        return;
    }

    let seed: u64 = get("--seed").map_or(7, |v| parse_num("--seed", &v, "a u64 seed"));
    let jobs: usize = get("--jobs").map_or(256, |v| parse_num("--jobs", &v, "a job count"));
    let rate_hz: f64 = get("--rate").map_or(20_000.0, |v| {
        parse_num("--rate", &v, "an arrival rate in requests/s")
    });
    let payload_scale: usize = get("--payload-scale").map_or(1, |v| {
        parse_num("--payload-scale", &v, "a payload size multiplier ≥ 1")
    });
    let workers: usize =
        get("--workers").map_or(4, |v| parse_num("--workers", &v, "a worker count"));
    let queue: usize = get("--queue").map_or(jobs.max(1), |v| {
        parse_num("--queue", &v, "a queue capacity")
    });
    let window: usize =
        get("--window").map_or(16, |v| parse_num("--window", &v, "a coalesce window size"));
    let scale = args.iter().any(|a| a == "--scale");

    let cfg = TraceConfig {
        seed,
        jobs,
        rate_hz,
        payload_scale,
    };
    let specs: Vec<JobSpec> = synth_trace(&cfg).into_iter().map(|ev| ev.spec).collect();
    let tech = Tech::virtex2pro();
    let oracle = run_serial(&specs, &tech);
    let make_config = |workers: usize| ServeConfig {
        workers,
        queue_capacity: queue,
        coalesce_window: window,
        tech: tech.clone(),
        ..ServeConfig::default()
    };

    let worker_counts: Vec<usize> = if scale {
        vec![1, 2, 4, 8]
    } else {
        vec![workers]
    };
    let replays: Vec<(usize, Replay)> = worker_counts
        .iter()
        .map(|&w| (w, replay(&specs, &oracle, make_config(w))))
        .collect();

    if as_json {
        let runs: Vec<serde_json::Value> = replays
            .iter()
            .map(|(w, r)| run_record(Some(*w), r.wall_s, specs.len(), &r.metrics))
            .collect();
        let doc = json!({
            "tool": "fpuserve",
            "trace": json!({ "seed": seed, "jobs": jobs, "rate_hz": rate_hz }),
            "queue_capacity": queue,
            "coalesce_window": window,
            "equivalence": "bit-identical to serial oracle",
            "runs": runs,
        });
        println!("{}", serde_json::to_string_pretty(&doc).expect("serialize"));
        return;
    }

    println!("fpuserve — serving-layer trace replay");
    println!(
        "trace: seed={seed} jobs={jobs} rate={rate_hz:.0} Hz (Poisson, mixed kernels/policies)"
    );
    println!("queue capacity {queue}, coalesce window {window}");
    println!("equivalence: every replay checked bit-identical to the serial oracle");
    for (w, r) in &replays {
        report_text(r, specs.len(), *w);
    }
    if scale {
        let base = specs.len() as f64 / replays[0].1.wall_s;
        println!("\nworker scaling (speedup over 1 worker):");
        println!("  workers   jobs/s      speedup");
        for (w, r) in &replays {
            let jps = specs.len() as f64 / r.wall_s;
            println!("  {:>7}   {:>9.0}   {:>6.2}x", w, jps, jps / base);
        }
    }
}

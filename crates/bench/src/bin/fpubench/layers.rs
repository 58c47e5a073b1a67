//! The traced run: spans around the public calls of each layer, and the
//! per-layer metrics they give.
//!
//! Every traced run reports every layer. The workload's own loop runs
//! first, alternating untraced and traced segments, which gives the
//! tracing overhead. Then one probe per layer runs on the workload's
//! inputs: its own operands and requests where it has them, and where
//! its loop bypasses a layer, the clean operand set (serving workloads)
//! or a reference scale-1 trace (batch workloads). The wire round trip
//! is decomposed into client spans, the server codec (decode request,
//! encode result), pool sojourn at the same offered load, and the named
//! remainder, transport; the parts add up to the round trip.

use std::path::Path;
use std::time::{Duration, Instant};

use fpfpga::fpu::SweepCache;
use fpfpga::prelude::Tech;
use fpfpga::serve::job::run_coalesced;
use fpfpga::serve::{JobResult, Kernel, ServePool};
use fpfpga_net::wire::{decode_result, decode_spec, encode_result, encode_spec};

use crate::host::{self, CpuTimes};
use crate::load::{
    batch_phase, batch_reference, pool_closed, pool_open, start_loopback, start_pool, wire_phase,
    Loopback, Pacing, Phase, Until, WARMUP,
};
use crate::report::{Metric, Report};
use crate::spans::{self, Tracer};
use crate::spec::Spec;
use crate::stats::{median, Histogram, LatencySummary};
use crate::workload::{
    operand_sets, requests, special_lane_frac, Operands, Requests, Shape, Workload, BATCH_LEN,
    CALL_SPANS, REFERENCE_RATE, REFERENCE_REQUESTS,
};

/// Share of the run given to the alternating overhead segments, and
/// how many segments (half traced).
const OWN_SHARE: f64 = 0.4;
const OWN_SEGMENTS: u32 = 8;
/// Shares of the run given to the probes that run for a set time.
const SOFTFP_SHARE: f64 = 0.05;
const PASS_SHARE: f64 = 0.08;
const OPEN_SHARE: f64 = 0.15;
/// The pool's default coalescing window, used to group the coalesced probe.
const COALESCE_WINDOW: usize = 16;

/// Span name of a job's kernel in the serial probe.
fn kernel_span(k: &Kernel) -> &'static str {
    match k {
        Kernel::Eltwise { .. } => "job.run.eltwise",
        Kernel::Dot { .. } => "job.run.dot",
        Kernel::Mvm { .. } => "job.run.mvm",
        Kernel::MatMul { .. } => "job.run.matmul",
        Kernel::Lu { .. } => "job.run.lu",
        Kernel::Fft { .. } => "job.run.fft",
        Kernel::Apfloat { .. } => "job.run.apfloat",
        Kernel::Sweep { .. } => "job.run.sweep",
    }
}

const KERNEL_SPANS: [&str; 8] = [
    "job.run.eltwise",
    "job.run.dot",
    "job.run.mvm",
    "job.run.matmul",
    "job.run.lu",
    "job.run.fft",
    "job.run.apfloat",
    "job.run.sweep",
];

/// The system the workload's own loop drives.
enum Own {
    Batch(Vec<Vec<(u64, fpfpga::softfp::Flags)>>),
    Pool(Box<ServePool>),
    Wire(Loopback),
}

/// `Job::run` over the request set, once to warm a sweep cache and once
/// traced, each pass capped at `cap`. Results are checked.
fn serial_probe(req: &Requests, cap: Duration, tally: &mut Phase, tr: &mut Tracer) {
    let tech = Tech::virtex2pro();
    let cache = SweepCache::new();
    for pass_tr in [&mut Tracer::off(), tr] {
        let start = Instant::now();
        for (i, spec) in req.specs.iter().enumerate() {
            if start.elapsed() >= cap {
                break;
            }
            let job = spec.fixed_job().expect("trace policies are pinned");
            let t = pass_tr.start();
            let r = job.run(&tech, &cache);
            pass_tr.end(kernel_span(&job.kernel), "", i as u64, t);
            tally.attempted += 1;
            tally.failed += u64::from(r != req.oracle[i]);
        }
    }
}

/// `run_coalesced` over the set's eltwise jobs, grouped by class into
/// windows the size a pool worker folds. Returns ns per operand pair.
fn coalesced_probe(req: &Requests, tally: &mut Phase) -> f64 {
    let mut groups: Vec<(fpfpga::serve::CoalesceKey, Vec<usize>)> = Vec::new();
    for (i, spec) in req.specs.iter().enumerate() {
        let Some(key) = spec.fixed_job().and_then(|j| j.coalesce_key()) else {
            continue;
        };
        match groups
            .iter_mut()
            .find(|(k, v)| *k == key && v.len() < COALESCE_WINDOW)
        {
            Some((_, v)) => v.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let (mut pairs, mut ns) = (0u64, 0u64);
    for (key, members) in &groups {
        let batches: Vec<&[(u64, u64)]> = members
            .iter()
            .map(|&i| match &req.specs[i].kernel {
                Kernel::Eltwise { pairs, .. } => pairs.as_slice(),
                _ => unreachable!("only eltwise jobs coalesce"),
            })
            .collect();
        let t0 = Instant::now();
        let results = run_coalesced(*key, &batches);
        ns += t0.elapsed().as_nanos() as u64;
        pairs += batches.iter().map(|b| b.len() as u64).sum::<u64>();
        for (&i, r) in members.iter().zip(&results) {
            tally.attempted += 1;
            tally.failed += u64::from(*r != req.oracle[i]);
        }
    }
    if pairs == 0 {
        0.0
    } else {
        ns as f64 / pairs as f64
    }
}

/// The wire codec over the request set, as the client and the server
/// each run it. Returns mean request and response body bytes.
fn codec_probe(req: &Requests, cap: Duration, tally: &mut Phase, tr: &mut Tracer) -> (f64, f64) {
    let (mut req_bytes, mut resp_bytes, mut n) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    for (i, spec) in req.specs.iter().enumerate() {
        if start.elapsed() >= cap {
            break;
        }
        let k = i as u64;
        let t = tr.start();
        let body = encode_spec(spec);
        tr.end("net.encode_spec", "", k, t);
        let t = tr.start();
        let decoded = decode_spec(&body);
        tr.end("net.decode_spec", "", k, t);
        let t = tr.start();
        let resp = encode_result(&req.oracle[i]);
        tr.end("net.encode_result", "", k, t);
        let t = tr.start();
        let back = decode_result(&resp);
        tr.end("net.decode_result", "", k, t);
        let ok = decoded.is_ok_and(|s| encode_spec(&s) == body)
            && back.is_ok_and(|r| r == req.oracle[i])
            && resp == req.encoded[i];
        tally.attempted += 1;
        tally.failed += u64::from(!ok);
        req_bytes += body.len();
        resp_bytes += resp.len();
        n += 1;
    }
    let n = n.max(1) as f64;
    (req_bytes as f64 / n, resp_bytes as f64 / n)
}

/// Sums over the request set's oracle: pad share of array MACs and all
/// simulated cycles. Exact counts — a change that only speeds up the
/// simulator must leave them identical.
fn sim_counts(oracle: &[JobResult]) -> (f64, u64) {
    let (mut useful, mut pad, mut cycles) = (0u64, 0u64, 0u64);
    for r in oracle {
        cycles += match r {
            JobResult::Dot { cycles, .. }
            | JobResult::Mvm { cycles, .. }
            | JobResult::Lu { cycles, .. }
            | JobResult::Fft { cycles, .. } => *cycles,
            JobResult::MatMul { stats, .. } => {
                useful += stats.useful_macs;
                pad += stats.pad_macs;
                stats.cycles
            }
            JobResult::Eltwise(_) | JobResult::Apfloat(_) | JobResult::Sweep { .. } => 0,
        };
    }
    let frac = if useful + pad == 0 {
        0.0
    } else {
        pad as f64 / (useful + pad) as f64
    };
    (frac, cycles)
}

/// Alternate untraced and traced segments of the workload's own loop;
/// returns traced ÷ untraced throughput (medians over the segments).
fn own_loop(
    own: &mut Own,
    sets: &[Operands],
    req: &Requests,
    window: usize,
    seg: Duration,
    tally: &mut Phase,
    tr: &mut Tracer,
) -> f64 {
    let (mut off_rates, mut on_rates) = (Vec::new(), Vec::new());
    for i in 0..OWN_SEGMENTS {
        let mut off = Tracer::off();
        let seg_tr = if i % 2 == 1 { &mut *tr } else { &mut off };
        let t0 = Instant::now();
        let phase = match own {
            Own::Batch(expected) => batch_phase(sets, expected, Until::Elapsed(seg), seg_tr),
            Own::Pool(pool) => pool_closed(pool, req, window, Until::Elapsed(seg), seg_tr),
            Own::Wire(lb) => {
                let until = Until::Elapsed(seg);
                wire_phase(lb, req, Pacing::Closed { window, until }, seg_tr)
            }
        };
        let rate = phase.items as f64 / t0.elapsed().as_secs_f64();
        tally.absorb(&phase);
        if phase.broken {
            break;
        }
        let rates = if i % 2 == 1 {
            &mut on_rates
        } else {
            &mut off_rates
        };
        rates.push(rate);
    }
    match (median(&on_rates), median(&off_rates)) {
        (Some(on), Some(off)) if off > 0.0 => on / off,
        _ => f64::NAN,
    }
}

/// Run `w` traced for about `seconds` and report its per-layer metrics;
/// write the kept spans to `spans_path`.
pub fn traced(spec: &Spec, w: Workload, seed: u64, seconds: u64, spans_path: &Path) -> Report {
    let run = Duration::from_secs(seconds);
    let epoch = Instant::now();
    let cpu0 = CpuTimes::read();
    let mut tally = Phase::default();
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| values.push((name.to_string(), v));

    // Inputs: the workload's own, plus stand-ins for the layers it bypasses.
    let (sets, req, rate, window) = match w.shape() {
        Shape::Batch { special_pct } => (
            operand_sets(seed, special_pct),
            requests(seed, 1, REFERENCE_REQUESTS),
            REFERENCE_RATE,
            64,
        ),
        Shape::Serve(sh) => (
            operand_sets(seed, 0),
            requests(seed, sh.scale, sh.distinct),
            sh.open_rate,
            sh.window,
        ),
    };
    let expected = batch_reference(&sets);
    tally.absorb(&batch_phase(&sets, &expected, WARMUP, &mut Tracer::off()));
    let mut own = match w.shape() {
        Shape::Batch { .. } => Own::Batch(expected.clone()),
        Shape::Serve(sh) if sh.wire => match start_loopback(&req, window) {
            Ok((lb, _, warm)) => {
                tally.absorb(&warm);
                Own::Wire(lb)
            }
            Err(e) => return failed_setup(w, seed, seconds, &e.to_string()),
        },
        Shape::Serve(_) => {
            let (pool, _, warm) = start_pool(&req, window);
            tally.absorb(&warm);
            Own::Pool(Box::new(pool))
        }
    };

    // The workload's own loop: tracing overhead.
    let mut own_tr = Tracer::new(epoch);
    let seg = run.mul_f64(OWN_SHARE) / OWN_SEGMENTS;
    let ratio = own_loop(&mut own, &sets, &req, window, seg, &mut tally, &mut own_tr);
    put("trace.throughput_ratio", ratio);

    // softfp: the 12-call rotation.
    let mut softfp_tr = Tracer::new(epoch);
    let until = Until::Elapsed(run.mul_f64(SOFTFP_SHARE));
    let phase = batch_phase(&sets, &expected, until, &mut softfp_tr);
    tally.absorb(&phase);
    for name in CALL_SPANS {
        let a = softfp_tr.agg(name);
        let mops = (a.count * BATCH_LEN as u64) as f64 / a.total_ns.max(1) as f64 * 1e3;
        put(&format!("{name}.mops"), mops);
    }
    put("softfp.special_lane_frac", special_lane_frac(&sets));

    // fpu / matmul / limb through Job::run, and the coalesced eltwise path.
    let mut job_tr = Tracer::new(epoch);
    serial_probe(&req, run.mul_f64(PASS_SHARE), &mut tally, &mut job_tr);
    let (mut count, mut total_ns) = (0u64, 0u64);
    for name in KERNEL_SPANS {
        put(&format!("{name}.us"), job_tr.mean_us(name));
        let a = job_tr.agg(name);
        count += a.count;
        total_ns += a.total_ns;
    }
    let kernel_us = total_ns as f64 / count.max(1) as f64 / 1e3;
    put(
        "fpu.run_coalesced.ns_per_pair",
        coalesced_probe(&req, &mut tally),
    );
    let (pad_frac, cycles) = sim_counts(&req.oracle);
    put("matmul.pad_mac_frac", pad_frac);
    put("sim.cycles", cycles as f64);

    // net codec, as client and server each run it.
    let mut codec_tr = Tracer::new(epoch);
    let (req_bytes, resp_bytes) =
        codec_probe(&req, run.mul_f64(PASS_SHARE), &mut tally, &mut codec_tr);
    for name in [
        "net.encode_spec",
        "net.decode_spec",
        "net.encode_result",
        "net.decode_result",
    ] {
        put(&format!("{name}_us"), codec_tr.mean_us(name));
    }
    put("net.request_bytes", req_bytes);
    put("net.response_bytes", resp_bytes);

    // serve: a fresh, warmed pool, open loop at the workload's rate.
    let lb = match own {
        Own::Wire(lb) if !tally.broken => Some(lb),
        Own::Wire(lb) => {
            lb.finish();
            None
        }
        Own::Pool(pool) => {
            pool.join();
            None
        }
        Own::Batch(_) => None,
    };
    let (pool, _, warm) = start_pool(&req, window);
    tally.absorb(&warm);
    let mut pool_tr = Tracer::new(epoch);
    let open = run.mul_f64(OPEN_SHARE);
    let mut lag = Histogram::default();
    let phase = pool_open(&pool, &req, rate, seed, open, &mut pool_tr);
    tally.absorb(&phase);
    lag.merge(&phase.lag);
    let m = pool.join();
    let sojourn_us = pool_tr.mean_us("serve.sojourn");
    put("serve.submit_us", pool_tr.mean_us("serve.submit"));
    put("serve.kernel_us", kernel_us);
    put("serve.sojourn_us", sojourn_us);
    put("serve.queue_us", sojourn_us - kernel_us);
    put("serve.batch_occupancy", m.batch_occupancy());
    put("serve.cache_hit_rate", m.cache_hit_rate().unwrap_or(0.0));
    put("serve.max_queue_depth", m.max_queue_depth as f64);

    // net: loopback round trips at the same offered load.
    let mut wire_tr = Tracer::new(epoch);
    let lb = match lb {
        Some(lb) => Ok(lb),
        None => start_loopback(&req, window).map(|(lb, _, warm)| {
            tally.absorb(&warm);
            lb
        }),
    };
    match lb {
        Ok(mut lb) => {
            let pacing = Pacing::Open {
                rate,
                seed,
                dur: open,
            };
            let phase = wire_phase(&mut lb, &req, pacing, &mut wire_tr);
            tally.absorb(&phase);
            lag.merge(&phase.lag);
            let report = lb.finish();
            put("net.protocol_errors", report.net.protocol_errors as f64);
            put("net.rejects", report.net.rejects as f64);
        }
        Err(e) => {
            eprintln!("fpubench: loopback set-up failed: {e}");
            tally.attempted += 1;
            tally.failed += 1;
        }
    }
    let roundtrip_us = wire_tr.mean_us("net.roundtrip");
    let client_us = roundtrip_us - wire_tr.mean_self_us("net.roundtrip");
    let server_codec_us =
        codec_tr.mean_us("net.decode_spec") + codec_tr.mean_us("net.encode_result");
    let transport_us = roundtrip_us - client_us - server_codec_us - sojourn_us;
    put("net.write_frame_us", wire_tr.mean_us("net.write_frame"));
    put("net.roundtrip_us", roundtrip_us);
    put("net.transport_us", transport_us);

    let lag = LatencySummary::of(&lag);
    put("gen.lag_p99_us", lag.map_or(f64::NAN, |l| l.p99_us));
    put("host.steal_frac", cpu0.steal_frac_until(CpuTimes::read()));

    let phases = [
        ("own", &own_tr),
        ("softfp", &softfp_tr),
        ("job", &job_tr),
        ("codec", &codec_tr),
        ("pool", &pool_tr),
        ("wire", &wire_tr),
    ];
    if let Err(e) = spans::write_file(spans_path, &phases) {
        eprintln!("fpubench: cannot write {}: {e}", spans_path.display());
        tally.failed += 1;
    }

    let diag = vec![
        Metric::new("net.client_us", client_us, "us"),
        Metric::new("net.server_codec_us", server_codec_us, "us"),
        Metric::new("retries", tally.retries as f64, "count"),
    ];
    Report {
        workload: w.name(),
        seed,
        seconds,
        traced: true,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: Metric::per_def(&spec.per_layer, &values),
        diag,
        host: Some(host::facts()),
    }
}

fn failed_setup(w: Workload, seed: u64, seconds: u64, why: &str) -> Report {
    eprintln!("fpubench: set-up failed: {why}");
    Report {
        workload: w.name(),
        seed,
        seconds,
        traced: true,
        attempted: 1,
        failed: 1,
        ..Report::default()
    }
}

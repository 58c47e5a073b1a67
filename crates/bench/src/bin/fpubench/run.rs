//! The untraced run: load the program for `--seconds` and report the
//! end-to-end metrics.
//!
//! The run is cut into rounds, each starting with a fresh set-up, and
//! each round into segments. Every segment gives one sample of
//! throughput and of the latency percentiles, every set-up one sample
//! of `setup_s`, and a metric is the median of its samples. The host is
//! shared and slows down in spells of seconds to minutes; a spell that
//! covers less than half the run moves no metric.
//!
//! A serving segment runs three phases on the same pool or connection:
//! a closed loop for throughput, then one request in flight for the
//! latency percentiles, then a Poisson open loop whose latencies and
//! generator lag are reported but not judged. Open-loop latency counts
//! every request due while a vCPU is descheduled: on a 2-vCPU x86-64 VM,
//! runs with 5-25% CPU steal read an open-loop p90 2-40x the usual, and
//! the 10-run spread of identical builds reached 109-409%. With one
//! request in flight a stall delays one request; in the same runs the
//! one-in-flight p90 of `wire_heavy` spread 9-14%.

use std::time::{Duration, Instant};

use crate::host::{self, CpuTimes};
use crate::load::{
    batch_phase, batch_reference, pool_closed, pool_open, start_loopback, start_pool, wire_phase,
    Pacing, Phase, Until, WARMUP,
};
use crate::report::{Metric, Report};
use crate::spans::Tracer;
use crate::spec::Spec;
use crate::stats::{median, Histogram, LatencySummary};
use crate::workload::{operand_sets, requests, ServeShape, Shape, Workload};

/// Set-ups (= rounds) per run.
const SETUPS: u32 = 5;

/// Measured segments per round.
const SEGMENTS: u32 = 2;

/// Shares of a serving segment given to the closed loop and to one
/// request in flight; the open loop has the rest.
const CLOSED_SHARE: f64 = 0.4;
const ONE_SHARE: f64 = 0.3;

/// Samples of one run.
#[derive(Default)]
struct Samples {
    tally: Phase,
    rates: Vec<f64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
    setups: Vec<f64>,
    /// Every judged latency of the run, for the ungated tail percentiles.
    lat: Histogram,
    /// Every open-loop latency, and how late the open-loop sender ran.
    open: Histogram,
    lag: Histogram,
}

impl Samples {
    fn setup(&mut self, took: Duration, warm: &Phase) {
        self.setups.push(took.as_secs_f64());
        self.tally.absorb(warm);
    }

    /// One segment: `closed` gives the throughput sample, and `timed`
    /// the latency sample (`closed` itself when `None`).
    fn segment(&mut self, closed: &Phase, timed: Option<&Phase>) {
        self.rates.extend(closed.rate);
        self.tally.absorb(closed);
        if let Some(timed) = timed {
            self.tally.absorb(timed);
        }
        let timed = timed.unwrap_or(closed);
        if let Some(l) = LatencySummary::of(&timed.lat) {
            self.p50.push(l.p50_us);
            self.p90.push(l.p90_us);
        }
        self.lat.merge(&timed.lat);
    }

    fn open_loop(&mut self, open: &Phase) {
        self.tally.absorb(open);
        self.open.merge(&open.lat);
        self.lag.merge(&open.lag);
    }

    fn failed_setup(&mut self, why: &str) {
        eprintln!("fpubench: set-up failed: {why}");
        self.tally.attempted += 1;
        self.tally.failed += 1;
    }
}

fn batch(seed: u64, special_pct: u32, round: Duration) -> Samples {
    let sets = operand_sets(seed, special_pct);
    let expected = batch_reference(&sets);
    let mut s = Samples::default();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let warm = batch_phase(&sets, &expected, WARMUP, &mut Tracer::off());
        s.setup(t0.elapsed(), &warm);
        for _ in 0..SEGMENTS {
            let until = Until::Elapsed(round / SEGMENTS);
            let p = batch_phase(&sets, &expected, until, &mut Tracer::off());
            s.segment(&p, None);
        }
    }
    s
}

/// How long each phase of a serving segment runs.
struct Stretches {
    closed: Until,
    one: Until,
    open: Duration,
}

impl Stretches {
    fn of(round: Duration) -> Stretches {
        let segment = round / SEGMENTS;
        let (closed, one) = (segment.mul_f64(CLOSED_SHARE), segment.mul_f64(ONE_SHARE));
        Stretches {
            closed: Until::Elapsed(closed),
            one: Until::Elapsed(one),
            open: segment - closed - one,
        }
    }
}

/// Open-loop schedule seed of segment `n`: fixed by the run's seed.
fn segment_seed(seed: u64, n: u32) -> u64 {
    seed ^ (u64::from(n) << 48)
}

fn serve_in_process(seed: u64, sh: ServeShape, round: Duration) -> Samples {
    let req = requests(seed, sh.scale, sh.distinct);
    let st = Stretches::of(round);
    let mut s = Samples::default();
    for r in 0..SETUPS {
        let (pool, took, warm) = start_pool(&req, sh.window);
        s.setup(took, &warm);
        for i in 0..SEGMENTS {
            let closed = pool_closed(&pool, &req, sh.window, st.closed, &mut Tracer::off());
            let one = pool_closed(&pool, &req, 1, st.one, &mut Tracer::off());
            s.segment(&closed, Some(&one));
            let seed = segment_seed(seed, r * SEGMENTS + i);
            let open = pool_open(&pool, &req, sh.open_rate, seed, st.open, &mut Tracer::off());
            s.open_loop(&open);
        }
        pool.join();
    }
    s
}

fn serve_wire(seed: u64, sh: ServeShape, round: Duration) -> Samples {
    let req = requests(seed, sh.scale, sh.distinct);
    let st = Stretches::of(round);
    let mut s = Samples::default();
    for r in 0..SETUPS {
        let mut lb = match start_loopback(&req, sh.window) {
            Ok((lb, took, warm)) => {
                s.setup(took, &warm);
                lb
            }
            Err(e) => {
                s.failed_setup(&e.to_string());
                break;
            }
        };
        let mut phase = |pacing| wire_phase(&mut lb, &req, pacing, &mut Tracer::off());
        for i in 0..SEGMENTS {
            let closed = phase(Pacing::Closed {
                window: sh.window,
                until: st.closed,
            });
            let one = (!closed.broken).then(|| {
                phase(Pacing::Closed {
                    window: 1,
                    until: st.one,
                })
            });
            s.segment(&closed, one.as_ref());
            if s.tally.broken {
                break;
            }
            s.open_loop(&phase(Pacing::Open {
                rate: sh.open_rate,
                seed: segment_seed(seed, r * SEGMENTS + i),
                dur: st.open,
            }));
            if s.tally.broken {
                break;
            }
        }
        lb.finish();
        if s.tally.broken {
            break;
        }
    }
    s
}

/// Run `w` untraced for `seconds` and report its end-to-end metrics.
pub fn end_to_end(spec: &Spec, w: Workload, seed: u64, seconds: u64) -> Report {
    let run = Duration::from_secs(seconds);
    let cpu0 = CpuTimes::read();
    let round = run / SETUPS;
    let s = match w.shape() {
        Shape::Batch { special_pct } => batch(seed, special_pct, round),
        Shape::Serve(sh) if sh.wire => serve_wire(seed, sh, round),
        Shape::Serve(sh) => serve_in_process(seed, sh, round),
    };
    let measured = [
        ("throughput", median(&s.rates)),
        ("latency_p50_us", median(&s.p50)),
        ("latency_p90_us", median(&s.p90)),
        ("setup_s", median(&s.setups)),
        ("peak_rss_mb", host::peak_rss_mb()),
    ];
    let values: Vec<(String, f64)> = measured
        .into_iter()
        .filter_map(|(name, v)| Some((name.to_string(), v?)))
        .collect();
    let mut diag = Vec::new();
    if let Some(l) = LatencySummary::of(&s.lat) {
        diag.push(Metric::new("latency_p99_us", l.p99_us, "us"));
        diag.push(Metric::new("latency_p999_us", l.p999_us, "us"));
        diag.push(Metric::new("latency_samples", l.samples as f64, "count"));
    }
    let open = LatencySummary::of(&s.open);
    if let Some(l) = open {
        diag.push(Metric::new("open_latency_p50_us", l.p50_us, "us"));
        diag.push(Metric::new("open_latency_p90_us", l.p90_us, "us"));
        diag.push(Metric::new("open_latency_p99_us", l.p99_us, "us"));
    }
    if let (Some(lag), Some(open)) = (LatencySummary::of(&s.lag), open) {
        diag.push(Metric::new("gen_lag_p99_us", lag.p99_us, "us"));
        if lag.p99_us > open.p50_us {
            eprintln!(
                "fpubench: warning: generator lag p99 {:.1} us exceeds open-loop latency p50 {:.1} us",
                lag.p99_us, open.p50_us
            );
        }
    }
    diag.push(Metric::new("retries", s.tally.retries as f64, "count"));
    for (i, v) in s.setups.iter().enumerate() {
        diag.push(Metric::new(format!("setup_{}_s", i + 1), *v, "s"));
    }
    diag.push(Metric::new(
        "steal_frac",
        cpu0.steal_frac_until(CpuTimes::read()),
        "fraction",
    ));
    Report {
        workload: w.name(),
        seed,
        seconds,
        traced: false,
        attempted: s.tally.attempted,
        failed: s.tally.failed,
        metrics: Metric::per_def(&spec.end_to_end, &values),
        diag,
        host: Some(host::facts()),
    }
}

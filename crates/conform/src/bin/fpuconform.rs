//! `fpuconform` — run the differential conformance sweeps from the
//! command line.
//!
//! ```text
//! fpuconform [--ops add,mul,...] [--formats f32,f64,f48,e6f17]
//!            [--samples N] [--seed S] [--sweeps ieee,ftz,fpu,limb]
//!            [--limb-formats f128,f256,e19f236]
//!            [--max-divergences K] [--threads N]
//!            [--lane generic|scalar|wide|avx2] [--json]
//! ```
//!
//! The `limb` sweep checks the wide-format (multi-limb) kernels against
//! the exact `BigFloat` oracle instead of the host (no host hardware
//! exists past 64 bits); `--limb-formats` picks its formats.
//!
//! `--threads N` shards every sweep over `N` scoped worker threads
//! (0 = one per CPU); the output is byte-identical for every `N`.
//! `--lane` picks the datapath the flush-to-zero evaluation (the `ftz`
//! sweep and the `fpu` sweep's oracle) runs add/sub/mul/div/sqrt/fma/muladd on:
//! `generic` (the default) is the generic `ops`; the other lanes run
//! every case as a full 8-lane chunk through the production batch entry
//! points, pinned to the portable engine (`scalar`), the SIMD engine
//! this host detected (`wide`), or the AVX2 engine (`avx2`) — each
//! through the same chunked drivers, and an AVX-512 host can sweep the
//! AVX2 body too. A `wide` or `avx2` lane exits 2 on
//! a host without that engine. On a lane, the `ftz` sweep also compares
//! every add/sub/mul/div/sqrt/fma/muladd result with the generic `ops` before any
//! masking (underflow cases and NaN/denormal operands included), and
//! sweeps f48 (and any other non-host format requested) against the
//! generic `ops` alone.
//! Divergences are minimized on the lane that found them, and `--json`
//! records the engine the sweep ran as `engine`.
//!
//! Exit status is 0 when every sweep agrees and 1 when any divergence
//! was found (which is what the CI step keys off). Each stored
//! divergence is minimized and printed as a one-line reproducer ready to
//! paste into `tests/conform_corpus/`.

use fpfpga_conform::diff::{
    self, format_name, mode_name, parse_format, Divergence, Op, SweepConfig, SweepReport,
};
use fpfpga_conform::host;
use fpfpga_conform::limb::{
    minimize_limb, render_limb_case, run_limb_sweep, LimbDivergence, LimbSweepConfig,
    LimbSweepReport,
};
use fpfpga_conform::shrink::{minimize, minimize_with, render_case};
use fpfpga_softfp::limb::LimbFormat;
use fpfpga_softfp::simd::{self, SimdEngine};
use serde_json::{json, Value};
use std::process::ExitCode;

struct Args {
    config: SweepConfig,
    limb_formats: Vec<LimbFormat>,
    sweeps: Vec<String>,
    json: bool,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: fpuconform [--ops add,sub,mul,div,sqrt,fma,muladd,convert,compare]\n\
         \x20                 [--formats f32,f64,f48,e<E>f<F>] [--samples N] [--seed S]\n\
         \x20                 [--sweeps ieee,ftz,fpu,limb] [--max-divergences K]\n\
         \x20                 [--limb-formats f128,f256,e<E>f<F>]\n\
         \x20                 [--threads N] [--lane generic|scalar|wide|avx2] [--json]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut config = SweepConfig::default();
    let mut limb_formats = vec![LimbFormat::F128, LimbFormat::F256];
    let mut sweeps = vec!["ieee".to_string(), "ftz".to_string(), "fpu".to_string()];
    let mut json = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = |it: &mut dyn Iterator<Item = String>| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--ops" => {
                config.ops = value(&mut it)
                    .split(',')
                    .map(|t| Op::parse(t).unwrap_or_else(|| usage(&format!("unknown op `{t}`"))))
                    .collect();
            }
            "--formats" => {
                config.formats = value(&mut it)
                    .split(',')
                    .map(|t| {
                        parse_format(t).unwrap_or_else(|| usage(&format!("unknown format `{t}`")))
                    })
                    .collect();
            }
            "--samples" => {
                config.samples = value(&mut it)
                    .parse()
                    .unwrap_or_else(|_| usage("--samples needs an integer"));
            }
            "--seed" => {
                config.seed = value(&mut it)
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"));
            }
            "--max-divergences" => {
                config.max_divergences = value(&mut it)
                    .parse()
                    .unwrap_or_else(|_| usage("--max-divergences needs an integer"));
            }
            "--sweeps" => {
                sweeps = value(&mut it).split(',').map(str::to_string).collect();
                for s in &sweeps {
                    if !matches!(s.as_str(), "ieee" | "ftz" | "fpu" | "limb") {
                        usage(&format!("unknown sweep `{s}` (ieee, ftz, fpu, limb)"));
                    }
                }
            }
            "--limb-formats" => {
                limb_formats = value(&mut it)
                    .split(',')
                    .map(|t| {
                        t.parse()
                            .unwrap_or_else(|_| usage(&format!("unknown wide format `{t}`")))
                    })
                    .collect();
            }
            "--threads" => {
                config.threads = value(&mut it)
                    .parse()
                    .unwrap_or_else(|_| usage("--threads needs an integer (0 = auto)"));
            }
            "--lane" => {
                config.lane = match value(&mut it).as_str() {
                    "generic" => None,
                    "scalar" => Some(SimdEngine::Scalar),
                    "wide" => Some(wide_engine(
                        "wide",
                        simd::active_engine(),
                        "AVX2 or AVX-512",
                    )),
                    "avx2" => Some(wide_engine("avx2", SimdEngine::WideAvx2, "AVX2")),
                    other => usage(&format!(
                        "unknown lane `{other}` (generic, scalar, wide, avx2)"
                    )),
                };
            }
            "--json" => json = true,
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    Args {
        config,
        limb_formats,
        sweeps,
        json,
    }
}

/// `eng` when it is a wide engine this host runs; otherwise exit 2
/// naming the `--lane` token and the instruction set it needs.
fn wide_engine(lane: &str, eng: SimdEngine, needs: &str) -> SimdEngine {
    if eng == SimdEngine::Scalar || !SimdEngine::available().any(|a| a == eng) {
        eprintln!("error: --lane {lane}: this host has no {needs} engine (x86-64 only)");
        std::process::exit(2);
    }
    eng
}

/// Minimize a divergence with the oracle and the lane that found it.
fn minimized(d: &Divergence, lane: Option<SimdEngine>) -> String {
    let case = match d.against {
        "host" => minimize(&d.case),
        "host-ftz" => minimize_with(&d.case, |c| {
            let ours = diff::eval_ftz(c, lane);
            let host = diff::eval_host(c);
            ours.0 != host.bits
        }),
        "lane-0" => minimize_with(&d.case, |c| diff::eval_ftz_lanes(c, lane).1.is_some()),
        "generic" => minimize_with(&d.case, |c| {
            diff::eval_ftz(c, lane) != diff::eval_ftz(c, None)
        }),
        // fpu divergences depend on the pipeline depth, which the Case
        // does not carry; report them unminimized.
        _ => d.case,
    };
    render_case(&case)
}

/// Minimized one-line reproducer for a wide-format divergence (the
/// oracle that found it is the oracle that shrinks it).
fn limb_minimized(d: &LimbDivergence) -> String {
    render_limb_case(&minimize_limb(&d.case))
}

fn limb_report_json(report: &LimbSweepReport) -> Value {
    let combos: Vec<Value> = report
        .reports
        .iter()
        .map(|r| {
            let examples: Vec<Value> = r
                .examples
                .iter()
                .map(|d| {
                    json!({
                        "case": render_limb_case(&d.case),
                        "ours": format!("{:x?} {:?}", d.ours.0, d.ours.1),
                        "reference": format!("{:x?} {:?}", d.reference.0, d.reference.1),
                        "minimized": limb_minimized(d),
                    })
                })
                .collect();
            json!({
                "op": r.op.name(),
                "format": r.fmt.canonical_name(),
                "mode": mode_name(r.mode),
                "cases": r.cases,
                "divergences": r.divergences,
                "examples": Value::Array(examples),
            })
        })
        .collect();
    json!({
        "sweep": "limb",
        "cases": report.total_cases(),
        "divergences": report.total_divergences(),
        "combinations": Value::Array(combos),
    })
}

fn limb_report_text(report: &LimbSweepReport) {
    println!(
        "sweep limb: {} cases, {} divergences",
        report.total_cases(),
        report.total_divergences()
    );
    for r in &report.reports {
        if r.divergences > 0 {
            println!(
                "  FAIL {} {} {}: {} divergences in {} cases",
                r.op.name(),
                r.fmt.canonical_name(),
                mode_name(r.mode),
                r.divergences,
                r.cases
            );
            for d in &r.examples {
                println!("    case      {}", render_limb_case(&d.case));
                println!("    ours      {:x?} {:?}", d.ours.0, d.ours.1);
                println!("    reference {:x?} {:?}", d.reference.0, d.reference.1);
                println!("    minimized {}", limb_minimized(d));
            }
        }
    }
}

/// The engine a sweep evaluated add/sub/mul/div/sqrt/fma/muladd on.
fn engine_name(lane: Option<SimdEngine>) -> String {
    lane.map_or("generic".to_string(), |eng| format!("{eng:?}"))
}

fn report_json(name: &str, report: &SweepReport, lane: Option<SimdEngine>) -> Value {
    let combos: Vec<Value> = report
        .reports
        .iter()
        .map(|r| {
            let examples: Vec<Value> = r
                .examples
                .iter()
                .map(|d| {
                    json!({
                        "case": render_case(&d.case),
                        "ours": format!("{:#x} {:?}", d.ours.0, d.ours.1),
                        "reference": match d.reference.1 {
                            Some(f) => format!("{:#x} {:?}", d.reference.0, f),
                            None => format!("{:#x}", d.reference.0),
                        },
                        "minimized": minimized(d, lane),
                    })
                })
                .collect();
            json!({
                "op": r.op.name(),
                "format": format_name(r.fmt),
                "mode": mode_name(r.mode),
                "cases": r.cases,
                "skipped": r.skipped,
                "divergences": r.divergences,
                "examples": Value::Array(examples),
            })
        })
        .collect();
    json!({
        "sweep": name,
        "cases": report.total_cases(),
        "divergences": report.total_divergences(),
        "combinations": Value::Array(combos),
    })
}

fn report_text(name: &str, report: &SweepReport, lane: Option<SimdEngine>) {
    println!(
        "sweep {name}: {} cases, {} divergences",
        report.total_cases(),
        report.total_divergences()
    );
    for r in &report.reports {
        if r.divergences > 0 {
            println!(
                "  FAIL {} {} {}: {} divergences in {} cases",
                r.op.name(),
                format_name(r.fmt),
                mode_name(r.mode),
                r.divergences,
                r.cases
            );
            for d in &r.examples {
                println!("    case      {}", render_case(&d.case));
                println!("    ours      {:#x} {:?}", d.ours.0, d.ours.1);
                match d.reference.1 {
                    Some(f) => println!("    reference {:#x} {:?}", d.reference.0, f),
                    None => println!("    reference {:#x}", d.reference.0),
                }
                println!("    minimized {}", minimized(d, lane));
            }
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if !host::flags_supported() {
        eprintln!(
            "warning: host exception flags unavailable on this target; \
             comparing results only"
        );
    }

    let mut sections: Vec<(String, SweepReport)> = Vec::new();
    let mut limb_section: Option<LimbSweepReport> = None;
    for sweep in &args.sweeps {
        let report = match sweep.as_str() {
            "ieee" => diff::run_ieee_sweep(&args.config),
            "ftz" => diff::run_ftz_sweep(&args.config),
            "limb" => {
                let limb_config = LimbSweepConfig {
                    ops: args.config.ops.clone(),
                    formats: args.limb_formats.clone(),
                    samples: args.config.samples,
                    seed: args.config.seed,
                    max_divergences: args.config.max_divergences,
                    threads: args.config.threads,
                };
                limb_section = Some(run_limb_sweep(&limb_config));
                continue;
            }
            _ => diff::run_fpu_sweep(&args.config),
        };
        sections.push((sweep.clone(), report));
    }

    let total: u64 = sections
        .iter()
        .map(|(_, r)| r.total_divergences())
        .sum::<u64>()
        + limb_section.as_ref().map_or(0, |r| r.total_divergences());
    if args.json {
        let mut out: Vec<Value> = sections
            .iter()
            .map(|(name, r)| report_json(name, r, args.config.lane))
            .collect();
        if let Some(r) = &limb_section {
            out.push(limb_report_json(r));
        }
        let doc = json!({
            "samples": args.config.samples,
            "seed": args.config.seed,
            "engine": engine_name(args.config.lane),
            "formats": Value::Array(
                args.config.formats.iter().map(|f| json!(format_name(*f))).collect()
            ),
            "limb_formats": Value::Array(
                args.limb_formats.iter().map(|f| json!(f.canonical_name())).collect()
            ),
            "total_divergences": total,
            "sweeps": Value::Array(out),
        });
        println!("{}", serde_json::to_string_pretty(&doc).unwrap());
    } else {
        println!("engine {}", engine_name(args.config.lane));
        for (name, r) in &sections {
            report_text(name, r, args.config.lane);
        }
        if let Some(r) = &limb_section {
            limb_report_text(r);
        }
        println!(
            "total: {total} divergence(s) across {} case(s)",
            sections.iter().map(|(_, r)| r.total_cases()).sum::<u64>()
                + limb_section.as_ref().map_or(0, |r| r.total_cases())
        );
    }
    if total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `fpubench` — one benchmark for the softfp kernels, the serving pool
//! and the wire front-end.
//!
//! ```text
//! fpubench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!          [--spans <file>] [--out <file>]
//! fpubench compare --base A.json... --change B.json...
//! ```
//!
//! One process runs one workload (`batch_clean`, `batch_special`,
//! `serve_light`, `wire_light`, `wire_heavy`; see `README.md` beside
//! this file). It times calls to the public functions of `softfp`,
//! `serve` and `net` from outside, checks every output against an
//! oracle, prints one `name value unit` line per metric, and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! Untraced runs report the end-to-end metrics; `--trace 1` runs report
//! the per-layer metrics and write the recorded spans. The exit code is
//! 0 when every output matched, 1 when any did not, 2 on a usage error.

mod compare;
mod host;
mod json;
mod layers;
mod load;
mod report;
mod run;
mod spans;
mod spec;
mod stats;
mod workload;

use std::path::PathBuf;

use spec::Spec;
use workload::Workload;

const USAGE: &str = "usage: fpubench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] \
[--spans <file>] [--out <file>]
       fpubench compare --base A.json... --change B.json...
workloads: batch_clean batch_special serve_light wire_light wire_heavy";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
}

/// Parse a run's arguments; `--seconds` defaults to `default_seconds`.
fn parse(args: &[String], default_seconds: u64) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, default_seconds);
    let (mut trace, mut spans, mut out) = (false, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v:?}: not a number"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or(format!("--seconds {v:?}: want 1..=600"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?}: want 0 or 1")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        spans,
        out,
    })
}

/// Where spans go by default: beside the build output, never into the
/// source tree; one file per workload, replaced by its next traced run.
fn default_spans(w: Workload) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    dir.join("fpubench")
        .join(format!("{}.spans.jsonl", w.name()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&spec, &args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            0
        }
        _ => match parse(&args, spec.run_seconds) {
            Ok(a) => bench(&spec, &a),
            Err(e) => {
                eprintln!("fpubench: {e}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}

fn bench(spec: &Spec, a: &Args) -> i32 {
    let report = if a.trace {
        let path = a.spans.clone().unwrap_or_else(|| default_spans(a.workload));
        let r = layers::traced(spec, a.workload, a.seed, a.seconds, &path);
        println!("spans {}", path.display());
        r
    } else {
        run::end_to_end(spec, a.workload, a.seed, a.seconds)
    };
    if let Some(host) = &report.host {
        println!("host {host}");
    }
    for line in report.lines() {
        println!("{line}");
    }
    if let Some(path) = &a.out {
        if let Err(e) = std::fs::write(path, format!("{}\n", report.document())) {
            eprintln!("fpubench: cannot write {}: {e}", path.display());
            return 2;
        }
    }
    println!("{}", report.summary());
    report.exit_code()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_misuse_is_refused() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse(
            &argv("--workload wire_light --seed 7 --seconds 3 --trace 1"),
            20,
        )
        .expect("ok");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::WireLight, 7, 3, true)
        );
        let a = parse(&argv("--workload batch_clean --seed 1"), 20).expect("ok");
        assert_eq!((a.seconds, a.trace), (20, false));
        for bad in [
            "--workload nope --seed 1",
            "--workload batch_clean",
            "--workload batch_clean --seed x",
            "--workload batch_clean --seed 1 --trace 2",
            "--workload batch_clean --seed 1 --seconds 0",
            "--workload batch_clean --seed 1 --bogus",
            "--workload batch_clean --seed",
        ] {
            assert!(parse(&argv(bad), 20).is_err(), "{bad}");
        }
    }
}

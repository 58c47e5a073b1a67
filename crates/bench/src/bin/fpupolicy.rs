//! `fpupolicy` — the auto-tuner's decision surface as a table: every
//! candidate precision policy for a storage format, with its fabric
//! cost (opt multiplier @ compute + opt adder @ accumulate, in slices)
//! and its measured probe error (deterministic dot-product sweep over
//! the tuner's depths).
//!
//! ```text
//! cargo run --release -p fpfpga-bench --bin fpupolicy -- --storage f32
//! cargo run --release -p fpfpga-bench --bin fpupolicy -- \
//!     --storage f32 --budget 4ulp
//! ```
//!
//! With `--budget`, the row the auto-tuner would select (cheapest that
//! meets the budget) is marked `<- selected`; if no row qualifies the
//! tool exits with the budget code (3).

use fpfpga::fpu::SweepCache;
use fpfpga::prelude::*;
use fpfpga::serve::autotune;
use fpfpga::serve::tuner::{candidate_policies, policy_cost, probe_stats, PROBE_DEPTHS};
use fpfpga_bench::cli::{parse_budget, parse_format, EXIT_BUDGET, EXIT_USAGE};
use serde_json::json;

const HELP: &str = "fpupolicy — cost/error table of candidate precision policies

Usage: fpupolicy [options]

Options:
  --storage <fmt>   storage format: f32, f48, f64 or e<E>f<F>
                    (default f32; 'all' sweeps the three paper formats)
  --budget <b>      mark the policy the auto-tuner would select
                    (e.g. 4ulp, rel1e-6)
  --json            emit the table as JSON instead of text
  -h, --help        print this help and exit

Exit codes: 0 ok, 2 usage, 3 budget unsatisfiable";

struct Row {
    policy: PrecisionPolicy,
    cost_slices: u32,
    stats: ErrorStats,
    selected: bool,
}

fn rows_for(storage: FpFormat, budget: Option<&ErrorBudget>, tech: &Tech) -> Vec<Row> {
    let cache = SweepCache::new();
    let mode = RoundMode::NearestEven;
    let selected = budget.and_then(|b| autotune(storage, b, tech, &cache).ok().map(|t| t.policy));
    let mut rows: Vec<Row> = candidate_policies(storage)
        .into_iter()
        .map(|policy| Row {
            policy,
            cost_slices: policy_cost(policy, tech, &cache),
            stats: probe_stats(policy, mode),
            selected: selected == Some(policy),
        })
        .collect();
    rows.sort_by_key(|r| (r.cost_slices, r.policy.canonical_name()));
    rows
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
        if a == "--json" {
            i += 1;
        } else if a == "--storage" || a == "--budget" {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => i += 2,
                _ => {
                    eprintln!("error: {a} requires a value");
                    std::process::exit(EXIT_USAGE);
                }
            }
        } else {
            eprintln!("error: unrecognized argument '{a}' (flags: --storage --budget --json -h)");
            std::process::exit(EXIT_USAGE);
        }
    }
    let get = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let as_json = args.iter().any(|a| a == "--json");
    let budget = get("--budget").map(|v| parse_budget("--budget", &v));
    let storage_arg = get("--storage").unwrap_or_else(|| "f32".to_string());
    let storages: Vec<FpFormat> = if storage_arg == "all" {
        FpFormat::PAPER_PRECISIONS.to_vec()
    } else {
        vec![parse_format("--storage", &storage_arg)]
    };

    let tech = Tech::virtex2pro();
    let tables: Vec<(FpFormat, Vec<Row>)> = storages
        .iter()
        .map(|&s| (s, rows_for(s, budget.as_ref(), &tech)))
        .collect();

    if let Some(b) = &budget {
        // Fail fast so scripts can branch on the exit code.
        if tables
            .iter()
            .any(|(_, rows)| !rows.iter().any(|r| r.selected))
        {
            eprintln!("error: no candidate policy meets budget {b}");
            std::process::exit(EXIT_BUDGET);
        }
    }

    if as_json {
        let doc = json!({
            "tool": "fpupolicy",
            "probe_depths": PROBE_DEPTHS,
            "budget": budget.as_ref().map(|b| b.to_string()),
            "tables": tables.iter().map(|(s, rows)| json!({
                "storage": s.canonical_name(),
                "rows": rows.iter().map(|r| json!({
                    "policy": r.policy.to_string(),
                    "compute": r.policy.compute.canonical_name(),
                    "accumulate": r.policy.accumulate.canonical_name(),
                    "cost_slices": r.cost_slices,
                    "max_ulp": r.stats.max_ulp,
                    "max_rel": r.stats.max_rel,
                    "rms": r.stats.rms,
                    "selected": r.selected,
                })).collect::<Vec<_>>(),
            })).collect::<Vec<_>>(),
        });
        println!("{}", serde_json::to_string_pretty(&doc).expect("serialize"));
        return;
    }

    println!("fpupolicy — candidate policies by fabric cost (probe depths {PROBE_DEPTHS:?})");
    if let Some(b) = &budget {
        println!("budget: {b}");
    }
    for (s, rows) in &tables {
        println!("\nstorage {}:", s.canonical_name());
        println!(
            "  {:<14} {:>8} {:>8} {:>10} {:>10} {:>10}",
            "policy", "compute", "accum", "slices", "max ulp", "max rel"
        );
        for r in rows {
            println!(
                "  {:<14} {:>8} {:>8} {:>10} {:>10.2} {:>10.2e}{}",
                r.policy.canonical_name(),
                r.policy.compute.canonical_name(),
                r.policy.accumulate.canonical_name(),
                r.cost_slices,
                r.stats.max_ulp,
                r.stats.max_rel,
                if r.selected { "  <- selected" } else { "" },
            );
        }
    }
}

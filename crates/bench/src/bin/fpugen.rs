//! `fpugen` — generate a floating-point unit from constraints, in the
//! spirit of the FPU generator the paper cites as reference \[6\].
//!
//! ```text
//! cargo run --release -p fpfpga-bench --bin fpugen -- \
//!     --op add --format f32 --target-mhz 200 --metric freq-area
//! ```
//!
//! ```text
//! Options:
//!   --op <add|mul|div|sqrt|mac>       operation (required)
//!   --format <f32|f48|f64|e<E>f<F>>   precision (default f32)
//!   --target-mhz <f>                  required clock
//!   --max-slices <n>                  slice budget
//!   --metric <max-freq|freq-area|min-area>   selection rule (default freq-area)
//!   --tech <v2pro|virtexe>            device family (default v2pro)
//!   --objective <speed|area>          tool objective (default speed)
//!   --verbose                         print the generated netlist table
//! ```

use fpfpga::fpu::generator::{generate, Metric, Request, UnitOp};
use fpfpga::prelude::*;
use fpfpga_bench::cli::{bad_flag, parse_format, parse_num};

const HELP: &str = "fpugen — generate a floating-point unit from constraints

Usage: fpugen --op <op> [options]

Options:
  --op <add|mul|div|sqrt|mac>       operation (required)
  --format <f32|f48|f64|e<E>f<F>>   precision (default f32)
  --target-mhz <f>                  required clock
  --max-slices <n>                  slice budget
  --metric <max-freq|freq-area|min-area>   selection rule (default freq-area)
  --tech <v2pro|virtexe>            device family (default v2pro)
  --objective <speed|area>          tool objective (default speed)
  --verbose                         print the generated netlist table
  -h, --help                        print this help and exit";

/// Flags that consume a value; anything else on the command line must be
/// `--verbose` or it is rejected up front.
const VALUE_FLAGS: &[&str] = &[
    "--op",
    "--format",
    "--target-mhz",
    "--max-slices",
    "--metric",
    "--tech",
    "--objective",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return;
    }
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a == "--verbose" {
            i += 1;
        } else if VALUE_FLAGS.contains(&a) {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => i += 2,
                _ => {
                    eprintln!("error: {a} requires a value");
                    std::process::exit(2);
                }
            }
        } else {
            eprintln!(
                "error: unrecognized argument '{a}' (flags: {} , --verbose)",
                VALUE_FLAGS.join(" ")
            );
            std::process::exit(2);
        }
    }
    let get = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };

    let op = match get("--op") {
        Some(v) => UnitOp::parse(&v)
            .unwrap_or_else(|| bad_flag("--op", &v, "one of add, mul, div, sqrt, mac")),
        None => {
            eprintln!("error: --op <add|mul|div|sqrt|mac> is required");
            std::process::exit(2);
        }
    };

    let format = get("--format").map_or(FpFormat::SINGLE, |v| parse_format("--format", &v));

    let metric = {
        let v = get("--metric").unwrap_or_else(|| "freq-area".to_string());
        match v.as_str() {
            "max-freq" => Metric::MaxFrequency,
            "freq-area" => Metric::FreqPerArea,
            "min-area" => Metric::MinArea,
            _ => bad_flag("--metric", &v, "one of max-freq, freq-area, min-area"),
        }
    };

    let tech = {
        let v = get("--tech").unwrap_or_else(|| "v2pro".to_string());
        match v.as_str() {
            "v2pro" => Tech::virtex2pro(),
            "virtexe" => Tech::virtex_e(),
            _ => bad_flag("--tech", &v, "one of v2pro, virtexe"),
        }
    };

    let opts = {
        let v = get("--objective").unwrap_or_else(|| "speed".to_string());
        match v.as_str() {
            "speed" => SynthesisOptions::SPEED,
            "area" => SynthesisOptions::AREA,
            _ => bad_flag("--objective", &v, "one of speed, area"),
        }
    };

    let req = Request {
        format,
        op,
        target_mhz: get("--target-mhz")
            .map(|v| parse_num("--target-mhz", &v, "a clock frequency in MHz")),
        max_slices: get("--max-slices").map(|v| parse_num("--max-slices", &v, "a slice count")),
        metric,
    };

    match generate(&req, &tech, opts) {
        Ok(g) => {
            println!("generated {:?} unit, {format}:", op);
            println!("  {}", g.report);
            println!(
                "  latency: {} cycles = {:.1} ns",
                g.report.stages,
                g.report.latency_ns()
            );
            println!("  rationale: {}", g.rationale);
            for w in &g.warnings {
                println!("  warning: {w}");
            }
            if args.iter().any(|a| a == "--verbose") {
                let netlist = match op {
                    UnitOp::Add => fpfpga::prelude::AdderDesign::new(format).netlist(&tech),
                    UnitOp::Mul => fpfpga::prelude::MultiplierDesign::new(format).netlist(&tech),
                    UnitOp::Div => fpfpga::prelude::DividerDesign::new(format).netlist(&tech),
                    UnitOp::Sqrt => fpfpga::prelude::SqrtDesign::new(format).netlist(&tech),
                    UnitOp::Mac => fpfpga::fpu::FusedMacDesign::new(format).netlist(&tech),
                };
                println!("\n{}", netlist.component_table());
            }
        }
        Err(e) => {
            eprintln!("infeasible: {e}");
            std::process::exit(1);
        }
    }
}

//! `fpubench compare`: judge a change against its parent from result
//! documents (`--out`) of interleaved runs, per workload × end-to-end
//! metric, with the bounds `BENCHMARK.json` fixes.
//!
//! The runs of one workload pair up in the order their files are given;
//! the change wins a pair when its run reads better.
//!
//! - `improved`: the change wins at least nine tenths of the pairs
//!   (ties count for neither) and the medians differ, in its favour, by
//!   more than the base runs' interquartile range;
//! - `regressed`: the change's median is worse than the base median by
//!   more than the bound;
//! - `unresolved`: neither, and the run-to-run spread (IQR over median,
//!   either side) exceeds the bound — unless every change run reads
//!   better than every base run;
//! - `unchanged`: otherwise.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::json;
use crate::spec::Spec;
use crate::stats::{median, quartiles, relative_iqr};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `change` against `base` (samples paired by position) for a
/// metric whose regression bound is `bound`.
pub fn verdict(base: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (Some(mb), Some(mc)) = (median(base), median(change)) else {
        return Verdict::Unresolved;
    };
    let better = |c: f64, b: f64| {
        if higher_is_better {
            c > b
        } else {
            c < b
        }
    };
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|&(&b, &c)| better(c, b))
        .count();
    let [q1, _, q3] = quartiles(base).expect("non-empty");
    if pairs > 0 && wins * 10 >= pairs * 9 && better(mc, mb) && (mc - mb).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    let worse_by = if higher_is_better {
        (mb - mc) / mb.abs()
    } else {
        (mc - mb) / mb.abs()
    };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let spread = relative_iqr(base)
        .into_iter()
        .chain(relative_iqr(change))
        .fold(0.0f64, f64::max);
    let all_better = change.iter().all(|&c| base.iter().all(|&b| better(c, b)));
    if spread > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// Samples of one side: workload → metric → values in file order.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(paths: &[String], side: &mut Side) -> Result<(), String> {
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let workload = doc["workload"]
            .as_str()
            .ok_or(format!("{path}: no workload"))?;
        let Value::Object(metrics) = &doc["metrics"] else {
            return Err(format!("{path}: no metrics"));
        };
        let entry = side.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m["value"].as_f64() {
                entry.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(())
}

/// `fpubench compare --base A.json… --change B.json…`. Prints one row
/// per workload × metric; exits 1 if any regressed.
pub fn main(spec: &Spec, args: &[String]) -> i32 {
    let (mut base, mut change) = (vec![], vec![]);
    let mut target: Option<&mut Vec<String>> = None;
    for a in args {
        match a.as_str() {
            "--base" => target = Some(&mut base),
            "--change" => target = Some(&mut change),
            s if s.starts_with("--") => return usage(&format!("unknown flag {s}")),
            path => match target.as_deref_mut() {
                Some(list) => list.push(path.to_string()),
                None => return usage(&format!("{path}: name --base or --change first")),
            },
        }
    }
    if base.is_empty() || change.is_empty() {
        return usage("need result files after both --base and --change");
    }
    let (mut b, mut c) = (Side::new(), Side::new());
    if let Err(e) = load(&base, &mut b).and_then(|_| load(&change, &mut c)) {
        eprintln!("fpubench compare: {e}");
        return 2;
    }
    println!(
        "{:<14} {:<15} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "base median", "change median", "delta", "spread", "bound"
    );
    let mut regressed = false;
    for (workload, bm) in &b {
        let Some(cm) = c.get(workload) else {
            println!("{workload:<14} (no change runs)");
            continue;
        };
        for g in &spec.end_to_end {
            let (Some(bs), Some(cs)) = (bm.get(&g.name), cm.get(&g.name)) else {
                continue;
            };
            let bound = g.bound.expect("end-to-end metrics have a bound");
            let v = verdict(bs, cs, g.higher_is_better, bound);
            regressed |= v == Verdict::Regressed;
            let (mb, mc) = (
                median(bs).unwrap_or(f64::NAN),
                median(cs).unwrap_or(f64::NAN),
            );
            let spread = relative_iqr(bs)
                .into_iter()
                .chain(relative_iqr(cs))
                .fold(0.0f64, f64::max);
            println!(
                "{workload:<14} {:<15} {mb:>14.6} {mc:>14.6} {:>+7.2}% {:>6.1}% {:>5.0}%  {}",
                g.name,
                (mc - mb) / mb.abs() * 100.0,
                spread * 100.0,
                bound * 100.0,
                v.name()
            );
        }
    }
    i32::from(regressed)
}

fn usage(why: &str) -> i32 {
    eprintln!("fpubench compare: {why}");
    eprintln!("usage: fpubench compare --base A.json... --change B.json...");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    #[test]
    fn a_clear_consistent_win_is_improved() {
        let change: Vec<f64> = BASE.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&BASE, &change, true, 0.1), Verdict::Improved);
        // Lower-is-better mirrors it.
        let faster: Vec<f64> = BASE.iter().map(|v| v * 0.95).collect();
        assert_eq!(verdict(&BASE, &faster, false, 0.1), Verdict::Improved);
    }

    #[test]
    fn a_win_in_fewer_than_nine_pairs_of_ten_is_not_improved() {
        let mut change: Vec<f64> = BASE.iter().map(|v| v * 1.05).collect();
        change[0] = 90.0;
        change[1] = 90.0;
        assert_eq!(verdict(&BASE, &change, true, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn a_win_inside_the_base_spread_is_not_improved() {
        let base = [
            90.0, 110.0, 95.0, 105.0, 100.0, 92.0, 108.0, 97.0, 103.0, 100.0,
        ];
        let change: Vec<f64> = base.iter().map(|v| v + 1.0).collect();
        assert_eq!(verdict(&base, &change, true, 0.25), Verdict::Unchanged);
    }

    #[test]
    fn worse_by_more_than_the_bound_is_regressed() {
        let slower: Vec<f64> = BASE.iter().map(|v| v * 0.85).collect();
        assert_eq!(verdict(&BASE, &slower, true, 0.1), Verdict::Regressed);
        let later: Vec<f64> = BASE.iter().map(|v| v * 1.15).collect();
        assert_eq!(verdict(&BASE, &later, false, 0.1), Verdict::Regressed);
        // Within the bound it is not.
        let slightly: Vec<f64> = BASE.iter().map(|v| v * 0.95).collect();
        assert_eq!(verdict(&BASE, &slightly, true, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let base = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        let change = [
            62.0, 138.0, 79.0, 121.0, 99.0, 71.0, 128.0, 91.0, 109.0, 101.0,
        ];
        assert_eq!(verdict(&base, &change, true, 0.1), Verdict::Unresolved);
        // Unless every change run beats every base run.
        let all_better: Vec<f64> = change.iter().map(|v| v + 100.0).collect();
        assert_ne!(verdict(&base, &all_better, true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn identical_samples_are_unchanged() {
        assert_eq!(verdict(&BASE, &BASE, true, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&BASE, &BASE, false, 0.1), Verdict::Unchanged);
    }
}

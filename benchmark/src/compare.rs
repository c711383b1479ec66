//! `--compare BASE NEW`: for each workload and end-to-end metric, the
//! median and quartiles of each side's runs and a verdict against the
//! metric's bound.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::defs::{Better, Metric, END_TO_END, SETUP_FLOOR_S};
use crate::host::comparable;
use crate::json::Json;
use crate::stats::quartiles;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// A side's run-to-run spread is wider than the bound, so the
    /// medians cannot be told apart by it.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on one metric. The allowance is the bound's share of the
/// base median (for `setup_s` at least [`SETUP_FLOOR_S`]). A change
/// beyond it is a regression or an improvement; when either side's
/// interquartile range exceeds it the metric is unresolved, unless every
/// new run beats every base run.
pub fn verdict(metric: &Metric, base: &[f64], new: &[f64]) -> Verdict {
    let bound = metric.bound.expect("end-to-end metrics have a bound");
    let (b1, b, b3) = quartiles(base);
    let (n1, n, n3) = quartiles(new);
    let floor = if metric.name == "setup_s" {
        SETUP_FLOOR_S
    } else {
        0.0
    };
    let allowed = (bound * b.abs()).max(floor);
    let worse_by = match metric.better {
        Better::Lower => n - b,
        Better::Higher => b - n,
    };
    let fold = |v: &[f64], pick: fn(f64, f64) -> f64| v.iter().copied().reduce(pick).expect("runs");
    let all_better = match metric.better {
        Better::Lower => fold(new, f64::max) < fold(base, f64::min),
        Better::Higher => fold(new, f64::min) > fold(base, f64::max),
    };
    if (b3 - b1).max(n3 - n1) > allowed {
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > allowed {
        Verdict::Regressed
    } else if -worse_by > allowed {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Every untraced result in `path`: one result per line, as in
/// `results.jsonl` (a single result file is one such line).
fn load(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut docs = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("workload").is_some() && doc.get("trace").and_then(Json::as_bool) == Some(false)
        {
            docs.push(doc);
        }
    }
    if docs.is_empty() {
        return Err(format!("{}: no untraced results", path.display()));
    }
    Ok(docs)
}

fn by_workload(docs: Vec<Json>) -> BTreeMap<String, Vec<Json>> {
    let mut map: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for d in docs {
        let w = d
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        map.entry(w).or_default().push(d);
    }
    map
}

fn values(docs: &[Json], metric: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| d.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn failure_share(docs: &[Json]) -> f64 {
    let sum = |k: &str| docs.iter().filter_map(|d| d.get(k)?.as_f64()).sum::<f64>();
    let attempted = sum("attempted");
    if attempted == 0.0 {
        0.0
    } else {
        sum("failed") / attempted
    }
}

/// `v` to six significant digits.
fn sig(v: f64) -> String {
    let digits = if v == 0.0 {
        0
    } else {
        (5 - v.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{v:.digits$}")
}

pub fn run(base: &Path, new: &Path) -> ExitCode {
    let (base, new) = match (load(base), load(new)) {
        (Ok(b), Ok(n)) => (by_workload(b), by_workload(n)),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: --compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = false;
    println!(
        "{:<12} {:<12} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change"
    );
    for (workload, base_runs) in &base {
        let Some(new_runs) = new.get(workload) else {
            println!("{workload:<12} (no runs in NEW)");
            continue;
        };
        let hosts: Vec<String> = base_runs
            .iter()
            .chain(new_runs)
            .map(|d| comparable(d.get("host").unwrap_or(&Json::Null)))
            .collect();
        if hosts.iter().any(|h| *h != hosts[0]) {
            eprintln!(
                "benchmark: --compare: {workload}: results come from different hosts or models; \
                 refusing to compare\n  {}\n  {}",
                hosts[0],
                hosts
                    .iter()
                    .find(|h| **h != hosts[0])
                    .expect("a differing host")
            );
            return ExitCode::from(2);
        }
        for metric in &END_TO_END {
            let (b, n) = (
                values(base_runs, metric.name),
                values(new_runs, metric.name),
            );
            if b.is_empty() || n.is_empty() {
                println!("{workload:<12} {:<12} (missing)", metric.name);
                continue;
            }
            let v = verdict(metric, &b, &n);
            regressed |= v == Verdict::Regressed;
            let (b1, bm, b3) = quartiles(&b);
            let (n1, nm, n3) = quartiles(&n);
            let fmt = |m, q1, q3| format!("{} [{}, {}]", sig(m), sig(q1), sig(q3));
            println!(
                "{workload:<12} {:<12} {:>34} {:>34} {:>+7.2}%  {}",
                metric.name,
                fmt(bm, b1, b3),
                fmt(nm, n1, n3),
                (nm - bm) / bm * 100.0,
                v.label()
            );
        }
        let (fb, fnew) = (failure_share(base_runs), failure_share(new_runs));
        if fnew > fb {
            regressed = true;
            println!("{workload:<12} failure share rose from {fb} to {fnew}: regressed");
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> Option<&'static Metric> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let p50 = metric("op_p50_ms").expect("defined"); // lower is better
        let tput = metric("throughput").expect("defined"); // higher is better
        assert_eq!((p50.bound, tput.bound), (Some(0.2), Some(0.2)));
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(p50, &base, &[11.7, 11.6, 11.8]), Verdict::Unchanged);
        assert_eq!(verdict(p50, &base, &[12.5, 12.6, 12.4]), Verdict::Regressed);
        assert_eq!(verdict(p50, &base, &[7.5, 7.6, 7.4]), Verdict::Improved);
        assert_eq!(verdict(tput, &base, &[7.5, 7.6, 7.4]), Verdict::Regressed);
        assert_eq!(verdict(tput, &base, &[12.5, 12.6, 12.4]), Verdict::Improved);
        // A new side whose quartiles span more than the bound is
        // unresolved, even with an unchanged median...
        let noisy = [6.0, 8.0, 10.0, 12.0, 14.0];
        assert_eq!(verdict(p50, &base, &noisy), Verdict::Unresolved);
        // ...unless every new run beats every base run.
        let noisy_but_faster = [2.0, 3.0, 5.0, 7.0, 9.0];
        assert_eq!(verdict(p50, &base, &noisy_but_faster), Verdict::Improved);
        // set-up time has a 50 ms absolute floor.
        let setup = metric("setup_s").expect("defined");
        assert_eq!(
            verdict(setup, &[0.010, 0.011], &[0.040, 0.041]),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(setup, &[0.010, 0.011], &[0.080, 0.081]),
            Verdict::Regressed
        );
    }
}

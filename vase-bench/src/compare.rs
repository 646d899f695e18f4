//! `vase-bench compare <parent records…> -- <change records…>`: per
//! (workload, metric), each side's median and quartiles and a verdict
//! against the bounds in `BENCHMARK.json`.
//!
//! The rule: a change *improved* a metric only when it wins at least
//! nine tenths of the (parent, change) run pairs and the medians differ
//! by more than the parent's interquartile range; a median worse than
//! the parent's by more than the bound *regressed*, however noisy the
//! parent; otherwise a metric whose parent spread exceeds its bound is
//! *unresolved* unless every change run beats every parent run, and
//! anything else is *unchanged*.

use std::collections::BTreeMap;

use vase::diag::json::Json;

use crate::stats;

/// Direction and bound of one declared metric.
struct Declared {
    lower_is_better: bool,
    /// `None` for per-layer metrics, which have no bound.
    bound: Option<f64>,
}

fn declared(benchmark: &Json) -> BTreeMap<String, Declared> {
    let mut out = BTreeMap::new();
    for (list, bounded) in [("end_to_end", true), ("per_layer", false)] {
        for m in benchmark.get(list).and_then(Json::as_arr).unwrap_or(&[]) {
            let Some(name) = m.get("name").and_then(Json::as_str) else {
                continue;
            };
            out.insert(
                name.to_owned(),
                Declared {
                    lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                    bound: if bounded {
                        m.get("bound").and_then(Json::as_f64)
                    } else {
                        None
                    },
                },
            );
        }
    }
    out
}

/// `workload -> metric -> values`, in file order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_runs(files: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for file in files {
        let text =
            std::fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let record = Json::parse(line).map_err(|e| format!("{file}: {e}"))?;
            let workload = record
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{file}: record without `workload`"))?;
            let Some(Json::Obj(metrics)) = record.get("metrics") else {
                continue;
            };
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    runs.entry(workload.to_owned())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(runs)
}

/// The verdict for one metric, with the pairs the change won and the
/// pairs compared (run `i` of one side against run `i` of the other).
fn verdict(parent: &[f64], change: &[f64], d: &Declared) -> (&'static str, usize, usize) {
    let better = |p: f64, c: f64| if d.lower_is_better { c < p } else { c > p };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**p, **c))
        .count();
    let (pq1, pm, pq3) = stats::quartiles(parent);
    let cm = stats::median(change);
    let Some(bound) = d.bound else {
        return ("-", wins, pairs);
    };
    let worse = if d.lower_is_better {
        (cm - pm) / pm
    } else {
        (pm - cm) / pm
    };
    let spread = (pq3 - pq1) / pm.abs();
    let all_better = parent.iter().all(|p| change.iter().all(|c| better(*p, *c)));
    let v = if pairs > 0 && wins * 10 >= pairs * 9 && (cm - pm).abs() > pq3 - pq1 && better(pm, cm)
    {
        "improved"
    } else if worse > bound {
        "regressed"
    } else if spread > bound && !all_better {
        "unresolved"
    } else {
        "unchanged"
    };
    (v, wins, pairs)
}

/// `x` to six significant digits.
fn sig(x: f64) -> String {
    let decimals = if x == 0.0 {
        0
    } else {
        (5 - x.abs().log10().floor() as i32).clamp(0, 12) as usize
    };
    format!("{x:.decimals$}")
}

/// Run the comparison; returns whether nothing regressed.
pub fn run(args: &[String]) -> Result<bool, String> {
    let mut benchmark_path = "BENCHMARK.json".to_owned();
    let (mut parent, mut change, mut side_change) = (Vec::new(), Vec::new(), false);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--benchmark" => benchmark_path = it.next().ok_or("--benchmark needs a file")?.clone(),
            "--" => side_change = true,
            file if side_change => change.push(file.to_owned()),
            file => parent.push(file.to_owned()),
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Err(
            "usage: vase-bench compare [--benchmark FILE] PARENT_RECORDS... -- CHANGE_RECORDS..."
                .to_owned(),
        );
    }
    let text = std::fs::read_to_string(&benchmark_path)
        .map_err(|e| format!("cannot read `{benchmark_path}`: {e}"))?;
    let benchmark = Json::parse(&text).map_err(|e| format!("{benchmark_path}: {e}"))?;
    let declared = declared(&benchmark);
    let (parent, change) = (read_runs(&parent)?, read_runs(&change)?);

    let mut clean = true;
    println!(
        "{:<14} {:<28} {:>32} {:>32} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins"
    );
    for (workload, metrics) in &parent {
        let Some(other) = change.get(workload) else {
            continue;
        };
        for (name, p) in metrics {
            let (Some(c), Some(d)) = (other.get(name), declared.get(name)) else {
                continue;
            };
            let (v, wins, pairs) = verdict(p, c, d);
            clean &= v != "regressed";
            let side = |xs: &[f64]| {
                let (q1, m, q3) = stats::quartiles(xs);
                format!("{} [{}, {}]", sig(m), sig(q1), sig(q3))
            };
            let base = stats::median(p);
            let delta = if base == 0.0 {
                0.0
            } else {
                (stats::median(c) / base - 1.0) * 100.0
            };
            println!(
                "{workload:<14} {name:<28} {:>32} {:>32} {delta:>+7.2}% {:>6}  {v}",
                side(p),
                side(c),
                format!("{wins}/{pairs}")
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pair_and_spread_rules() {
        let lower = Declared {
            lower_is_better: true,
            bound: Some(0.05),
        };
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&parent, &faster, &lower).0, "improved");
        assert_eq!(verdict(&parent, &slower, &lower).0, "regressed");
        assert_eq!(verdict(&parent, &parent, &lower).0, "unchanged");
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(
            verdict(&noisy, &noisy.map(|x| x * 1.04), &lower).0,
            "unresolved"
        );
        // A noisy parent never hides a median worse by more than the bound.
        assert_eq!(
            verdict(&noisy, &noisy.map(|x| x * 2.0), &lower).0,
            "regressed"
        );
        let unbounded = Declared {
            lower_is_better: true,
            bound: None,
        };
        assert_eq!(verdict(&parent, &faster, &unbounded).0, "-");
    }
}

//! `perf --compare A.json[,A2.json…] B.json[,B2.json…]`: applies the
//! regression bounds of `BENCHMARK.json` to every (workload, metric) pair
//! of two sets of run records and prints one row per workload.
//!
//! Per pair: the change of B's median against A's, signed so that positive
//! is worse. A pair whose run-to-run spread (interquartile distance over
//! median, either side) exceeds its bound is UNRESOLVED unless every B run
//! reads better than every A run; otherwise it is WORSE when the change
//! exceeds the bound and PASS when it does not. A workload's row takes its
//! worst pair.

use crate::json::{self, Value};
use crate::stats::{median, relative_spread};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Pass,
    Unresolved,
    Worse,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Worse => "WORSE",
        }
    }
}

pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = doc
        .get("end_to_end")
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?;
    entries
        .as_array()
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .ok_or_else(|| format!("end_to_end entry lacks {k:?}"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name must be a string")?
                    .into(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound must be a number")?,
            })
        })
        .collect()
}

/// `(workload, metric) → values`, one value per record file.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Reads run records (as written by `perf` to `target/perf/`).
pub fn load_runs(paths: &[PathBuf]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let record = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        for w in record.get("workloads").map_or(&[][..], Value::as_array) {
            let name = w.get("workload").and_then(Value::as_str).unwrap_or("?");
            for (metric, v) in w.get("metrics").map_or(&[][..], Value::fields) {
                if let Some(x) = v.get("value").and_then(Value::as_f64) {
                    runs.entry((name.to_string(), metric.clone()))
                        .or_default()
                        .push(x);
                }
            }
        }
    }
    Ok(runs)
}

/// The verdict for one metric plus B's median change against A's, signed
/// so that positive means worse.
pub fn judge(a: &[f64], b: &[f64], bound: &Bound) -> Option<(Verdict, f64)> {
    let (ma, mb) = (median(a)?, median(b)?);
    if ma == 0.0 {
        return None;
    }
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (mb - ma) / ma.abs();
    let spread = relative_spread(a)
        .unwrap_or(0.0)
        .max(relative_spread(b).unwrap_or(0.0));
    let better = |x: f64, y: f64| sign * (x - y) < 0.0;
    let b_always_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = if spread > bound.bound {
        if b_always_better {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Pass
    };
    Some((verdict, worse_by))
}

/// Prints the comparison; exit code 1 if any workload is WORSE.
pub fn run(a: &[PathBuf], b: &[PathBuf], bounds_path: &Path) -> Result<i32, String> {
    let bounds = load_bounds(bounds_path)?;
    let (ra, rb) = (load_runs(a)?, load_runs(b)?);
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = ra.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    println!(
        "# compare: A = {} run(s), B = {} run(s); change = B median vs A median, + is worse",
        a.len(),
        b.len()
    );
    let mut any_worse = false;
    for w in workloads {
        let mut row = Verdict::Pass;
        let mut cells = Vec::new();
        for bound in &bounds {
            let key = (w.clone(), bound.name.clone());
            let cell = match (ra.get(&key), rb.get(&key)) {
                (Some(va), Some(vb)) => match judge(va, vb, bound) {
                    Some((v, change)) => {
                        row = row.max(v);
                        let mark = if v == Verdict::Pass { "" } else { v.label() };
                        format!("{}={:+.1}%{mark}", bound.name, 100.0 * change)
                    }
                    None => format!("{}=n/a", bound.name),
                },
                _ => {
                    row = row.max(Verdict::Unresolved);
                    format!("{}=missing", bound.name)
                }
            };
            cells.push(cell);
        }
        any_worse |= row == Verdict::Worse;
        println!("{w:<16} {:<10} {}", row.label(), cells.join(" "));
    }
    Ok(i32::from(any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, b: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better: lower,
            bound: b,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lat = bound(true, 0.10);
        let steady = [10.0, 10.1, 9.9, 10.0];
        // Same level: PASS; 20% slower: WORSE; 20% faster: PASS.
        assert_eq!(judge(&steady, &steady, &lat).unwrap().0, Verdict::Pass);
        let slower: Vec<f64> = steady.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&steady, &slower, &lat).unwrap().0, Verdict::Worse);
        let faster: Vec<f64> = steady.iter().map(|x| x * 0.8).collect();
        assert_eq!(judge(&steady, &faster, &lat).unwrap().0, Verdict::Pass);
        // Noisy parent: UNRESOLVED, unless every B run is better.
        let noisy = [5.0, 10.0, 15.0, 20.0];
        assert_eq!(judge(&noisy, &steady, &lat).unwrap().0, Verdict::Unresolved);
        assert_eq!(judge(&noisy, &[1.0, 1.1], &lat).unwrap().0, Verdict::Pass);
        // Higher-is-better metrics flip the sign.
        let qps = bound(false, 0.10);
        let (v, change) = judge(&steady, &slower, &qps).unwrap();
        assert_eq!(v, Verdict::Pass);
        assert!(change < 0.0);
        assert_eq!(judge(&steady, &faster, &qps).unwrap().0, Verdict::Worse);
    }
}

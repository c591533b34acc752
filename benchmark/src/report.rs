//! Printing a run, saving its report, and comparing two sets of runs.

use crate::metrics::{unit_of, workload_metrics, Bound, Workload, END_TO_END, LAYERS};
use crate::stats::{median, quartiles};
use crate::Outcome;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// The environment a run measured in.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Env {
    /// Cores available to the process.
    pub cores: u64,
    /// Whether the fault-injection hooks were compiled in.
    pub faults_enabled: bool,
    /// Workload seed.
    pub seed: u64,
    /// Load-generator threads.
    pub threads: u64,
    /// `LEAPME_THREADS`, when set.
    pub leapme_threads: Option<String>,
}

/// Operation counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ops {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed.
    pub failed: u64,
}

/// One run's report, as `--out` saves it and `--compare` reads it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Environment.
    pub env: Env,
    /// Workload name.
    pub workload: String,
    /// Whether this was a traced run.
    pub trace: bool,
    /// Measured window, seconds.
    pub seconds: f64,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: BTreeMap<String, f64>,
    /// The workload's own end-to-end metrics (untraced runs).
    #[serde(default)]
    pub workload_metrics: BTreeMap<String, f64>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// Correctness gates.
    pub checks: BTreeMap<String, bool>,
    /// Operation counts.
    pub ops: Ops,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

#[derive(Serialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

/// Complete `outcome` into a report: every declared metric of the run's
/// kind is present (a layer the workload does not run reads 0), and a
/// missing, zero or non-finite end-to-end metric, or a missing or
/// non-finite workload metric, fails the run.
pub fn finish(
    workload: Workload,
    seed: u64,
    trace: bool,
    seconds: f64,
    outcome: &mut Outcome,
) -> RunReport {
    let mut values = BTreeMap::new();
    let mut own = BTreeMap::new();
    if trace {
        for l in LAYERS {
            let v = outcome.metrics.get(l.name).copied().unwrap_or(0.0);
            values.insert(l.name.to_string(), if v.is_finite() { v } else { 0.0 });
        }
    } else {
        let mut missing = Vec::new();
        for m in END_TO_END {
            match outcome.metrics.get(m.name) {
                Some(v) if v.is_finite() && *v != 0.0 => {
                    values.insert(m.name.to_string(), *v);
                }
                _ => missing.push(m.name),
            }
        }
        for m in workload_metrics(workload) {
            match outcome.metrics.get(m.name) {
                Some(v) if v.is_finite() => {
                    own.insert(m.name.to_string(), *v);
                }
                _ => missing.push(m.name),
            }
        }
        outcome.check(
            "end_to_end_complete",
            missing.is_empty(),
            format!("missing, zero or non-finite: {missing:?}"),
        );
    }
    let checks = outcome
        .checks
        .iter()
        .map(|c| (c.name.clone(), c.passed))
        .collect();
    let (end_to_end, layers) = if trace {
        (BTreeMap::new(), values)
    } else {
        (values, BTreeMap::new())
    };
    RunReport {
        env: Env {
            cores: crate::cores() as u64,
            faults_enabled: cfg!(feature = "faults"),
            seed,
            threads: outcome.threads as u64,
            leapme_threads: std::env::var("LEAPME_THREADS").ok(),
        },
        workload: workload.name().to_string(),
        trace,
        seconds,
        end_to_end,
        workload_metrics: own,
        layers,
        checks,
        ops: Ops {
            attempted: outcome.attempted,
            failed: outcome.failed,
        },
    }
}

impl RunReport {
    /// Whether every gate held.
    pub fn correct(&self) -> bool {
        self.checks.values().all(|&ok| ok)
    }

    fn metrics(&self) -> &BTreeMap<String, f64> {
        if self.trace {
            &self.layers
        } else {
            &self.end_to_end
        }
    }

    /// `name value unit` lines, then the one-line JSON result, which is
    /// the last line of standard output. The workload's own metrics get
    /// lines but stay out of the JSON result, which holds exactly the
    /// metrics `BENCHMARK.json` declares.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.metrics().iter().chain(&self.workload_metrics) {
            out.push_str(&format!("{name} {value} {}\n", unit_of(name).unwrap_or("")));
        }
        let line = ResultLine {
            correct: self.correct(),
            attempted: self.ops.attempted.max(1),
            failed: self.ops.failed,
            metrics: self
                .metrics()
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        MetricValue {
                            value: *v,
                            unit: unit_of(k).unwrap_or("").to_string(),
                        },
                    )
                })
                .collect(),
        };
        out.push_str(&serde_json::to_string(&line).expect("result line serializes"));
        out
    }
}

/// `BENCHMARK.json` as far as the comparison needs it.
#[derive(Debug, Deserialize)]
pub struct Declared {
    /// Workloads.
    pub workloads: Vec<DeclaredWorkload>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<DeclaredMetric>,
    /// Per-layer metrics.
    pub per_layer: Vec<DeclaredMetric>,
}

/// A declared workload.
#[derive(Debug, Deserialize)]
pub struct DeclaredWorkload {
    /// Name.
    pub name: String,
    /// Why it exists.
    pub why: String,
}

/// A declared metric.
#[derive(Debug, Deserialize)]
pub struct DeclaredMetric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the baseline median the metric may worsen by (end-to-end
    /// metrics only).
    #[serde(default)]
    pub bound: f64,
}

/// Parse `BENCHMARK.json`.
pub fn load_declared(path: &Path) -> Result<Declared, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_set(dir: &Path) -> Result<Vec<RunReport>, String> {
    let mut reports = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let report: RunReport =
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            if !report.trace {
                reports.push(report);
            }
        }
    }
    Ok(reports)
}

/// How set B compares with baseline set A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by the rule for claiming a gain.
    Improved,
    /// B is worse than A by more than the bound.
    Regressed,
    /// Within the bound.
    Unchanged,
    /// The spread is wider than the bound and neither set dominates.
    Unresolved,
}

/// Judge `b` against baseline `a` on a metric where `lower_is_better`,
/// given its bound and the seed-paired values `(a, b)`. When every run
/// of `a` has a partner, the change is the median of the paired changes
/// and the spread their interquartile distance: a metric that is a pure
/// function of the seed (F1, recall) then changes by exactly 0 on
/// unchanged code, however much it varies from seed to seed. Without
/// partners the sets' medians and spreads are compared. Changes and
/// spreads are measured the way the bound is: as a share of the
/// baseline for a relative bound, in the metric's unit for an absolute
/// one.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: Bound,
    pairs: &[(f64, f64)],
) -> Verdict {
    let (Some((a1, am, a3)), Some((b1, bm, b3))) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    // How much worse `y` is than baseline `x`, in the bound's terms.
    let worse = |x: f64, y: f64| {
        let d = if lower_is_better { y - x } else { x - y };
        match bound {
            Bound::Relative(_) => d / x.abs(),
            Bound::Absolute(_) => d,
        }
    };
    let limit = match bound {
        Bound::Relative(r) | Bound::Absolute(r) => r,
    };
    let spread_of = |q1: f64, med: f64, q3: f64| match bound {
        Bound::Relative(_) => (q3 - q1) / med.abs(),
        Bound::Absolute(_) => q3 - q1,
    };
    let (worse_by, spread) = if !pairs.is_empty() && pairs.len() == a.len() {
        let changes: Vec<f64> = pairs.iter().map(|&(x, y)| worse(x, y)).collect();
        let (q1, med, q3) = quartiles(&changes).expect("pairs are not empty");
        (med, q3 - q1)
    } else {
        (
            worse(am, bm),
            spread_of(a1, am, a3).max(spread_of(b1, bm, b3)),
        )
    };
    let b_dominates = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let a_dominates = a.iter().all(|&y| b.iter().all(|&x| better(y, x)));
    if spread > limit {
        return if b_dominates {
            Verdict::Improved
        } else if a_dominates {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    let wins = pairs.iter().filter(|&&(x, y)| better(y, x)).count();
    if worse_by > limit {
        Verdict::Regressed
    } else if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && (bm - am).abs() > a3 - a1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One metric to compare: where a report keeps it, and its bound.
struct Compared<'a> {
    name: &'a str,
    lower_is_better: bool,
    bound: Bound,
    get: fn(&RunReport) -> &BTreeMap<String, f64>,
}

/// Compare two directories of `--out` reports, per workload and
/// end-to-end metric — the common ones against the bounds
/// `BENCHMARK.json` declares, the workload's own against the catalogue's.
pub fn compare(declared: &Declared, dir_a: &Path, dir_b: &Path) -> Result<String, String> {
    let (a, b) = (load_set(dir_a)?, load_set(dir_b)?);
    let mut out = String::new();
    for (label, set) in [("A", &a), ("B", &b)] {
        let attempted: u64 = set.iter().map(|r| r.ops.attempted).sum();
        let failed: u64 = set.iter().map(|r| r.ops.failed).sum();
        out.push_str(&format!(
            "set {label}: {} runs, failed ops {failed}/{attempted} ({:.4}%)\n",
            set.len(),
            100.0 * failed as f64 / attempted.max(1) as f64
        ));
    }
    out.push_str(&format!(
        "{:<16} {:<24} {:>33} {:>33} {:>9} {}\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict"
    ));
    for w in Workload::ALL {
        let runs_a: Vec<&RunReport> = a.iter().filter(|r| r.workload == w.name()).collect();
        let runs_b: Vec<&RunReport> = b.iter().filter(|r| r.workload == w.name()).collect();
        if runs_a.is_empty() || runs_b.is_empty() {
            continue;
        }
        let common = declared.end_to_end.iter().map(|m| Compared {
            name: &m.name,
            lower_is_better: m.better == "lower",
            bound: Bound::Relative(m.bound),
            get: |r| &r.end_to_end,
        });
        let own = workload_metrics(w).map(|m| Compared {
            name: m.name,
            lower_is_better: m.better == "lower",
            bound: m.bound,
            get: |r| &r.workload_metrics,
        });
        for m in common.chain(own) {
            let value = |r: &RunReport| (m.get)(r).get(m.name).copied();
            let (va, vb): (Vec<f64>, Vec<f64>) = (
                runs_a.iter().filter_map(|r| value(r)).collect(),
                runs_b.iter().filter_map(|r| value(r)).collect(),
            );
            let pairs: Vec<(f64, f64)> = runs_a
                .iter()
                .filter_map(|ra| {
                    let rb = runs_b.iter().find(|rb| rb.env.seed == ra.env.seed)?;
                    Some((value(ra)?, value(rb)?))
                })
                .collect();
            let wins = pairs
                .iter()
                .filter(|&&(x, y)| if m.lower_is_better { y < x } else { y > x })
                .count();
            let fmt = |v: &[f64]| match quartiles(v) {
                Some((q1, med, q3)) => format!("{med:.4} [{q1:.4}, {q3:.4}]"),
                None => "-".to_string(),
            };
            let v = verdict(&va, &vb, m.lower_is_better, m.bound, &pairs);
            let change = match m.bound {
                Bound::Relative(r) => format!(
                    "bound {r}, B/A {:+.2}%",
                    100.0 * (median(&vb) / median(&va) - 1.0)
                ),
                Bound::Absolute(x) => {
                    format!("bound {x} absolute, B-A {:+.4}", median(&vb) - median(&va))
                }
            };
            out.push_str(&format!(
                "{:<16} {:<24} {:>33} {:>33} {:>9} {v:?} ({change})\n",
                w.name(),
                m.name,
                fmt(&va),
                fmt(&vb),
                format!("{wins}/{}", pairs.len()),
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const R10: Bound = Bound::Relative(0.10);

    /// `b` paired with `a` in order, as runs of the same seeds.
    fn zip(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let judge = |b: &[f64], lower, paired: bool| {
            let pairs = if paired { zip(&a, b) } else { Vec::new() };
            verdict(&a, b, lower, R10, &pairs)
        };
        for paired in [false, true] {
            // Within a 10% bound.
            let near = [103.0, 102.0, 104.0, 103.5, 102.5];
            assert_eq!(judge(&near, true, paired), Verdict::Unchanged);
            // Worse by more than the bound.
            let far = [120.0, 121.0, 119.0, 120.5, 119.5];
            assert_eq!(judge(&far, true, paired), Verdict::Regressed);
            // Higher-is-better flips the direction.
            let low = [80.0, 81.0, 79.0, 80.5, 79.5];
            assert_eq!(judge(&low, false, paired), Verdict::Regressed);
            // A spread wider than the bound with overlapping sets.
            let noisy = [50.0, 150.0, 100.0, 70.0, 130.0];
            assert_eq!(judge(&noisy, true, paired), Verdict::Unresolved);
            // …unless one set dominates the other.
            let fast = [10.0, 30.0, 20.0, 14.0, 26.0];
            assert_eq!(judge(&fast, true, paired), Verdict::Improved);
        }
        // Better in every pair and beyond A's own spread; without pairs
        // there are no wins to count.
        let better = [90.0, 91.0, 89.0, 90.5, 89.5];
        assert_eq!(judge(&better, true, true), Verdict::Improved);
        assert_eq!(judge(&better, true, false), Verdict::Unchanged);
    }

    #[test]
    fn pairing_removes_seed_to_seed_variation() {
        // A deterministic per-seed metric varying 0.90–0.96 across seeds:
        // unpaired, its spread hides a drop of 0.02; paired, an unchanged
        // run is exactly unchanged and the drop is caught.
        let a = [0.90, 0.92, 0.96, 0.94, 0.91];
        let x = Bound::Absolute(0.01);
        assert_eq!(verdict(&a, &a, false, x, &zip(&a, &a)), Verdict::Unchanged);
        let dropped: Vec<f64> = a.iter().map(|v| v - 0.02).collect();
        assert_eq!(verdict(&a, &dropped, false, x, &[]), Verdict::Unresolved);
        assert_eq!(
            verdict(&a, &dropped, false, x, &zip(&a, &dropped)),
            Verdict::Regressed
        );
    }

    #[test]
    fn absolute_bounds_judge_metrics_whose_baseline_is_zero() {
        let zero = [0.0; 5];
        let x = Bound::Absolute(0.001);
        assert_eq!(
            verdict(&zero, &zero, true, x, &zip(&zero, &zero)),
            Verdict::Unchanged
        );
        let failing = [0.01, 0.02, 0.01, 0.015, 0.01];
        assert_eq!(
            verdict(&zero, &failing, true, x, &zip(&zero, &failing)),
            Verdict::Regressed
        );
    }
}

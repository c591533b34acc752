//! `BENCHMARK.json` against the benchmark's metric catalogue, and every
//! workload's code path on a tiny configuration: each run must pass its
//! correctness gates and emit exactly the declared metrics.

use leapme_benchmark::metrics::{workload_metrics, Workload, END_TO_END, LAYERS, WORKLOAD_METRICS};
use leapme_benchmark::{report, run, Config};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The last line of a run's standard output.
#[derive(serde::Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

#[derive(serde::Deserialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

fn declared() -> report::Declared {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    report::load_declared(&path).expect("BENCHMARK.json parses")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        && name.as_bytes()[0].is_ascii_alphanumeric()
}

#[test]
fn benchmark_json_declares_the_catalogue() {
    let d = declared();
    assert!(
        d.end_to_end.len() <= 16,
        "{} end-to-end metrics",
        d.end_to_end.len()
    );
    assert!(
        d.per_layer.len() <= 128,
        "{} layer metrics",
        d.per_layer.len()
    );

    let workloads: Vec<&str> = d.workloads.iter().map(|w| w.name.as_str()).collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    assert!(d
        .workloads
        .iter()
        .all(|w| !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n')));

    let mut seen = BTreeSet::new();
    let names = d
        .end_to_end
        .iter()
        .chain(&d.per_layer)
        .map(|m| (m.name.as_str(), m.better.as_str()))
        .chain(WORKLOAD_METRICS.iter().map(|m| (m.name, m.better)));
    for (name, better) in names {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(seen.insert(name.to_string()), "{name} declared twice");
        assert!(
            better == "lower" || better == "higher",
            "{name}: better {better:?}"
        );
    }
    assert!(WORKLOAD_METRICS.iter().all(|m| !m.workloads.is_empty()));

    assert_eq!(d.end_to_end.len(), END_TO_END.len());
    for (json, code) in d.end_to_end.iter().zip(END_TO_END) {
        assert_eq!(
            (json.name.as_str(), json.unit.as_str(), json.better.as_str()),
            (code.name, code.unit, code.better)
        );
        assert!(json.bound > 0.0, "{}: bound {}", json.name, json.bound);
    }
    let setup = d
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));

    assert_eq!(d.per_layer.len(), LAYERS.len());
    let e2e: BTreeSet<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(WORKLOAD_METRICS.iter().map(|m| m.name))
        .collect();
    for (json, code) in d.per_layer.iter().zip(LAYERS) {
        assert_eq!(
            (json.name.as_str(), json.unit.as_str(), json.better.as_str()),
            (code.name, code.unit, code.better)
        );
        assert!(
            !code.moves.is_empty(),
            "{} names no end-to-end metric it moves",
            code.name
        );
        for m in code.moves {
            assert!(e2e.contains(m), "{} moves undeclared metric {m}", code.name);
        }
        assert!(!code.on.is_empty(), "{} names no workload", code.name);
    }
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let d = declared();
    let e2e: BTreeSet<String> = d.end_to_end.iter().map(|m| m.name.clone()).collect();
    let layers: BTreeSet<String> = d.per_layer.iter().map(|m| m.name.clone()).collect();
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("schema");
    let cfg = Config::tiny();
    for w in Workload::ALL {
        for trace in [false, true] {
            let mut outcome = run(w, 3, trace, &cfg, &root)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
            let emitted: BTreeSet<String> = outcome.metrics.keys().cloned().collect();
            let own: BTreeSet<String> = workload_metrics(w).map(|m| m.name.to_string()).collect();
            let untraced: BTreeSet<String> = e2e.union(&own).cloned().collect();
            let allowed = if trace { &layers } else { &untraced };
            let undeclared: Vec<_> = emitted.difference(allowed).collect();
            assert!(
                undeclared.is_empty(),
                "{} trace={trace} emits undeclared {undeclared:?}",
                w.name()
            );
            if !trace {
                let missing: Vec<_> = untraced.difference(&emitted).collect();
                assert!(missing.is_empty(), "{} does not emit {missing:?}", w.name());
            }
            let r = report::finish(w, 3, trace, cfg.seconds, &mut outcome);
            let failed: Vec<_> = outcome.checks.iter().filter(|c| !c.passed).collect();
            assert!(
                failed.is_empty(),
                "{} trace={trace} failed checks {failed:?}",
                w.name()
            );
            let reported: BTreeSet<String> = if trace {
                r.layers.keys().cloned().collect()
            } else {
                r.end_to_end.keys().cloned().collect()
            };
            assert_eq!(
                reported,
                if trace { layers.clone() } else { e2e.clone() },
                "{} trace={trace}",
                w.name()
            );
            if !trace {
                let reported: BTreeSet<String> = r.workload_metrics.keys().cloned().collect();
                assert_eq!(reported, own, "{}", w.name());
            }
            let line = r.render();
            let last = line.lines().last().expect("a result line");
            let result: ResultLine = serde_json::from_str(last).expect("the result line parses");
            assert!(result.correct, "{last}");
            assert!(result.attempted >= 1 && result.failed == 0, "{last}");
            let in_result: BTreeSet<String> = result.metrics.keys().cloned().collect();
            assert_eq!(in_result, reported, "{} trace={trace}: {last}", w.name());
            assert!(result
                .metrics
                .values()
                .all(|m| m.value.is_finite() && !m.unit.is_empty()));
            assert_eq!(r.ops.failed, 0, "{} trace={trace}", w.name());
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

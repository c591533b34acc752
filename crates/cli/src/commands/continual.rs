//! `leapme continual` — run the continual-ingestion scenario: sources
//! arrive on a drifting schedule, each passes the validation gate (or
//! is quarantined with a typed reason), drift past the PSI threshold
//! triggers a champion/challenger refit with an active-learning label
//! budget, and a regressing challenger auto-rolls back. The command
//! prints the quality-over-time curve and writes the full report as
//! JSON.

use super::{to_json_pretty, cancel_token};
use crate::args::Flags;
use crate::CliError;
use leapme::core::continual::{run_schedule, ContinualConfig, RunOptions};
use leapme::core::journal::RunJournal;
use leapme::core::pipeline::LeapmeConfig;
use leapme::data::drift::{generate_drift_schedule, DriftConfig};
use leapme::data::stress::StressConfig;
use leapme::nn::network::TrainConfig;
use leapme::nn::schedule::LrSchedule;
use std::path::Path;

/// Flags this command reads; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &[
    "corrupt-every",
    "dim",
    "drift-threshold",
    "epochs",
    "force-refit-every",
    "journal",
    "label-budget",
    "naming-drift",
    "out",
    "properties",
    "properties-per-source",
    "seed",
    "sources-per-epoch",
    "stop-after-epoch",
    "timeout-secs",
    "value-drift",
];

/// Run the command.
pub fn run(flags: &Flags) -> Result<String, CliError> {
    let properties: usize = flags.get_or("properties", 300usize)?;
    if properties == 0 {
        return Err(CliError::Usage("--properties must be at least 1".into()));
    }
    let epochs: usize = flags.get_or("epochs", 4usize)?;
    let seed: u64 = flags.get_or("seed", 42u64)?;
    let dim: usize = flags.get_or("dim", 16usize)?;
    let out = flags.require("out")?;

    let dcfg = DriftConfig {
        base: StressConfig {
            properties,
            properties_per_source: flags.get_or("properties-per-source", 25usize)?,
            cluster_size: 4,
            instances_per_property: 1,
            seed,
        },
        epochs,
        sources_per_epoch: flags.get_or("sources-per-epoch", 2usize)?,
        naming_drift: flags.get_or("naming-drift", 0.2f64)?,
        value_drift: flags.get_or("value-drift", 0.3f64)?,
        corrupt_every: flags.get_or("corrupt-every", 0usize)?,
    };
    let schedule = generate_drift_schedule(&dcfg);
    let embeddings = leapme::stress_embedding_store(&dcfg.base, dim, seed ^ 0xE5);

    let mut cfg = ContinualConfig {
        label_budget: flags.get_or("label-budget", 64usize)?,
        model: LeapmeConfig {
            train: TrainConfig {
                schedule: LrSchedule::new(vec![(16, 1e-3), (4, 1e-4)]),
                ..TrainConfig::default()
            },
            hidden: vec![24],
            ..LeapmeConfig::default()
        },
        seed: seed ^ 0xC0,
        ..ContinualConfig::default()
    };
    cfg.drift.threshold = flags.get_or("drift-threshold", cfg.drift.threshold)?;

    let journal = match flags.get("journal") {
        Some(path) => Some(
            RunJournal::open(Path::new(path))
                .map_err(|e| CliError::Pipeline(format!("{path}: {e}")))?,
        ),
        None => None,
    };
    let opts = RunOptions {
        force_refit_every: flags.get("force-refit-every").map(|v| v.parse()).transpose()
            .map_err(|_| CliError::Usage("--force-refit-every must be an integer".into()))?,
        stop_after_epoch: flags.get("stop-after-epoch").map(|v| v.parse()).transpose()
            .map_err(|_| CliError::Usage("--stop-after-epoch must be an integer".into()))?,
        cancel: Some(cancel_token(flags)?),
    };

    let report = run_schedule(&schedule, &embeddings, &cfg, journal.as_ref(), &opts)
        .map_err(|e| super::pipeline_err(e, "journaled decisions survive; rerun to resume"))?;

    std::fs::write(out, to_json_pretty(&report, "continual report")?)?;

    // Quality-over-time curve, one line per epoch — the human-readable
    // face of the report the JSON file carries in full.
    let mut text = String::from(
        "epoch  sources  props  precision  recall     f1     drift(feat/score)  quar  decision  gen\n",
    );
    for p in &report.points {
        text.push_str(&format!(
            "{:>5}  {:>7}  {:>5}  {:>9.4}  {:>6.4}  {:>6.4}  {:>8.3}/{:<8.3}  {:>4}  {:<8}  {:>3}\n",
            p.epoch,
            p.sources,
            p.properties,
            p.precision,
            p.recall,
            p.f1,
            p.drift_features,
            p.drift_scores,
            p.quarantined,
            p.decision.as_deref().unwrap_or("-"),
            p.generation,
        ));
    }
    text.push_str(&format!(
        "quarantined={} promotions={} rollbacks={} labels_used={} final_f1={:.4}\n",
        report.quarantined.len(),
        report.promotions,
        report.rollbacks,
        report.labels_used,
        report.final_f1,
    ));
    for q in &report.quarantined {
        text.push_str(&format!(
            "quarantine epoch={} source={} reason={}\n",
            q.epoch, q.source, q.reason
        ));
    }
    text.push_str(&format!("continual report written to {out}\n"));
    Ok(text)
}

//! Continual-ingestion hardening: source quarantine, drift detection,
//! and gated champion/challenger refits with automatic rollback.
//!
//! The paper frames LEAPME inside knowledge-graph construction pipelines
//! that grow over time (§I, §VI). [`crate::incremental::integrate_source`]
//! handles one new source; this module turns streaming arrival into a
//! first-class long-running scenario over a
//! [`leapme_data::drift::DriftSchedule`]:
//!
//! * every incoming source passes a **validation gate** ([`GatePolicy`])
//!   — schema and row-stat checks with typed [`QuarantineReason`]s.
//!   Quarantined sources are journaled and skipped; they never touch
//!   resident state.
//! * a **drift detector** ([`FeatureBaseline`]) tracks
//!   population-stability-index divergence over the 29 non-embedding
//!   instance features plus the score histogram. Past
//!   [`DriftPolicy::threshold`] it triggers a refit.
//! * refits are **champion/challenger**: a challenger is trained via
//!   [`crate::pipeline::Leapme::fit_durable`] on the accumulated labels
//!   plus an active-learning batch (the unlabeled pairs nearest the
//!   decision boundary, per the similarity-score framing of paper §VI,
//!   capped by [`ContinualConfig::label_budget`]). The challenger must
//!   beat the champion on a held-out labeled slice or the system
//!   **auto-rolls back** to the champion.
//! * every promote/rollback decision is appended to the
//!   [`crate::journal::RunJournal`]; because the whole driver is
//!   deterministic given `(schedule, config)`, a crashed run re-executes
//!   bit-identically while *honoring* the journaled decisions instead of
//!   re-deciding them — decisions survive the crash, and no decision is
//!   journaled twice.
//!
//! Fault sites `continual.validate` (a fired fault quarantines the
//! source) and `continual.refit` (`nan` sabotages the challenger so the
//! promotion gate must catch it; `io` fails the refit outright) extend
//! the chaos matrix.

use crate::cancel::CancelToken;
use crate::incremental::integrate_source;
use crate::journal::RunJournal;
use crate::metrics::Metrics;
use crate::pipeline::{FitControl, Leapme, LeapmeConfig, LeapmeModel};
use crate::retry::RetryPolicy;
use crate::sampling;
use crate::simgraph::SimilarityGraph;
use crate::CoreError;
use leapme_data::drift::{DriftSchedule, ScheduledSource};
use leapme_data::model::{Dataset, PropertyKey, PropertyPair, SourceId};
use leapme_embedding::store::EmbeddingStore;
use leapme_features::instance::NON_EMBEDDING_LEN;
use leapme_features::PropertyFeatureStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Why an incoming source was refused by the validation gate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QuarantineReason {
    /// The source shipped zero rows.
    EmptySource,
    /// Fewer distinct properties than the gate's minimum.
    SchemaTooSmall {
        /// Distinct properties observed.
        properties: usize,
        /// Configured minimum.
        min: usize,
    },
    /// More distinct properties than the gate's maximum.
    SchemaTooLarge {
        /// Distinct properties observed.
        properties: usize,
        /// Configured maximum.
        max: usize,
    },
    /// More rows than the gate's volume cap (row flood).
    TooManyRows {
        /// Rows observed.
        rows: usize,
        /// Configured cap.
        max: usize,
    },
    /// A single value exceeded the per-value length cap.
    OversizedValue {
        /// Property carrying the value.
        property: String,
        /// Observed byte length.
        len: usize,
        /// Configured cap.
        max: usize,
    },
    /// Mean value length diverged too far from the resident baseline —
    /// the row-stat outlier check.
    ValueLengthOutlier {
        /// Mean value length of the incoming source.
        mean: f64,
        /// Resident baseline mean.
        baseline: f64,
        /// Configured maximum ratio (either direction).
        max_ratio: f64,
    },
    /// The merged dataset failed structural validation.
    Inconsistent {
        /// What the dataset constructor rejected.
        detail: String,
    },
    /// An injected `continual.validate` fault (chaos suite only).
    Injected,
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuarantineReason::EmptySource => write!(f, "source shipped zero rows"),
            QuarantineReason::SchemaTooSmall { properties, min } => {
                write!(f, "{properties} properties < gate minimum {min}")
            }
            QuarantineReason::SchemaTooLarge { properties, max } => {
                write!(f, "{properties} properties > gate maximum {max}")
            }
            QuarantineReason::TooManyRows { rows, max } => {
                write!(f, "{rows} rows > gate cap {max}")
            }
            QuarantineReason::OversizedValue { property, len, max } => {
                write!(f, "value of {property:?} is {len} bytes (cap {max})")
            }
            QuarantineReason::ValueLengthOutlier { mean, baseline, max_ratio } => {
                write!(
                    f,
                    "mean value length {mean:.1} vs baseline {baseline:.1} exceeds ratio {max_ratio}"
                )
            }
            QuarantineReason::Inconsistent { detail } => write!(f, "inconsistent rows: {detail}"),
            QuarantineReason::Injected => write!(f, "injected validation fault"),
        }
    }
}

/// Schema/row-stat bounds enforced by the validation gate.
#[derive(Debug, Clone)]
pub struct GatePolicy {
    /// Minimum distinct properties an arriving source must carry.
    pub min_properties: usize,
    /// Maximum distinct properties.
    pub max_properties: usize,
    /// Maximum total rows.
    pub max_rows: usize,
    /// Maximum byte length of any single value.
    pub max_value_len: usize,
    /// Maximum ratio between the source's mean value length and the
    /// resident baseline (checked both directions).
    pub max_len_ratio: f64,
}

impl Default for GatePolicy {
    fn default() -> Self {
        GatePolicy {
            min_properties: 1,
            max_properties: 4096,
            max_rows: 65_536,
            max_value_len: 4096,
            max_len_ratio: 16.0,
        }
    }
}

/// Row statistics computed by the gate (and used as the next baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowStats {
    /// Distinct property names.
    pub properties: usize,
    /// Total rows.
    pub rows: usize,
    /// Mean value byte length.
    pub mean_value_len: f64,
    /// Longest value byte length.
    pub max_value_len: usize,
}

/// Compute [`RowStats`] over an arrival's rows.
pub fn row_stats(arrival: &ScheduledSource) -> RowStats {
    let mut names = BTreeSet::new();
    let mut total_len = 0usize;
    let mut max_len = 0usize;
    for row in &arrival.rows {
        names.insert(row.property.as_str());
        total_len += row.value.len();
        max_len = max_len.max(row.value.len());
    }
    RowStats {
        properties: names.len(),
        rows: arrival.rows.len(),
        mean_value_len: total_len as f64 / arrival.rows.len().max(1) as f64,
        max_value_len: max_len,
    }
}

/// Fault hook for `continual.validate`: a fired fault makes the gate
/// quarantine the source, as a validator crash-on-parse would.
#[cfg(feature = "faults")]
fn injected_validate_fault() -> Option<QuarantineReason> {
    use leapme_faults::{fires, sites, FaultKind};
    match fires(sites::CONTINUAL_VALIDATE)? {
        FaultKind::Malformed | FaultKind::Io => Some(QuarantineReason::Injected),
        _ => None,
    }
}

#[cfg(not(feature = "faults"))]
fn injected_validate_fault() -> Option<QuarantineReason> {
    None
}

/// What the `continual.refit` fault site injects.
#[cfg_attr(not(feature = "faults"), allow(dead_code))]
enum RefitFault {
    /// Train the challenger with a sabotaged config — the promotion gate
    /// must detect the regression and roll back.
    Sabotage,
    /// Fail the refit outright.
    Fail,
}

#[cfg(feature = "faults")]
fn injected_refit_fault() -> Option<RefitFault> {
    use leapme_faults::{fires, sites, FaultKind};
    match fires(sites::CONTINUAL_REFIT)? {
        FaultKind::Nan => Some(RefitFault::Sabotage),
        FaultKind::Io => Some(RefitFault::Fail),
        _ => None,
    }
}

#[cfg(not(feature = "faults"))]
fn injected_refit_fault() -> Option<RefitFault> {
    None
}

/// Run the validation gate over one arrival. `baseline_mean_len` is the
/// resident mean value length the outlier check compares against
/// (`None` skips that check — e.g. for the very first sources).
pub fn validate_arrival(
    policy: &GatePolicy,
    arrival: &ScheduledSource,
    baseline_mean_len: Option<f64>,
) -> Result<RowStats, QuarantineReason> {
    if let Some(reason) = injected_validate_fault() {
        return Err(reason);
    }
    if arrival.rows.is_empty() {
        return Err(QuarantineReason::EmptySource);
    }
    let stats = row_stats(arrival);
    if stats.properties < policy.min_properties {
        return Err(QuarantineReason::SchemaTooSmall {
            properties: stats.properties,
            min: policy.min_properties,
        });
    }
    if stats.properties > policy.max_properties {
        return Err(QuarantineReason::SchemaTooLarge {
            properties: stats.properties,
            max: policy.max_properties,
        });
    }
    if stats.rows > policy.max_rows {
        return Err(QuarantineReason::TooManyRows {
            rows: stats.rows,
            max: policy.max_rows,
        });
    }
    if stats.max_value_len > policy.max_value_len {
        let offender = arrival
            .rows
            .iter()
            .max_by_key(|r| r.value.len())
            .expect("non-empty rows");
        return Err(QuarantineReason::OversizedValue {
            property: offender.property.clone(),
            len: offender.value.len(),
            max: policy.max_value_len,
        });
    }
    if let Some(base) = baseline_mean_len {
        if base > 0.0 && stats.mean_value_len > 0.0 {
            let ratio = (stats.mean_value_len / base).max(base / stats.mean_value_len);
            if ratio > policy.max_len_ratio {
                return Err(QuarantineReason::ValueLengthOutlier {
                    mean: stats.mean_value_len,
                    baseline: base,
                    max_ratio: policy.max_len_ratio,
                });
            }
        }
    }
    Ok(stats)
}

/// Drift-detector tunables.
#[derive(Debug, Clone)]
pub struct DriftPolicy {
    /// Histogram bins per feature (and for the score histogram).
    pub bins: usize,
    /// PSI threshold past which a refit is triggered (0.25 is the
    /// classic "significant shift" cut-off).
    pub threshold: f64,
    /// Minimum epoch sample size before drift is computed at all.
    pub min_samples: usize,
}

impl Default for DriftPolicy {
    fn default() -> Self {
        DriftPolicy {
            bins: 10,
            threshold: 0.25,
            min_samples: 8,
        }
    }
}

/// What the drift detector measured for one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftStat {
    /// Largest per-feature PSI across the 29 instance features.
    pub features: f64,
    /// PSI of the score histogram.
    pub scores: f64,
    /// Index (0–28) of the most-drifted instance feature.
    pub worst_feature: usize,
}

impl DriftStat {
    /// The statistic the threshold is compared against.
    pub fn max(&self) -> f64 {
        self.features.max(self.scores)
    }
}

/// Per-feature and score histograms fitted on the resident population at
/// champion-fit time; later epochs are compared against it with a
/// population-stability-index divergence.
#[derive(Debug, Clone)]
pub struct FeatureBaseline {
    bins: usize,
    /// Per-feature `(lo, hi)` ranges over the baseline population.
    ranges: Vec<(f32, f32)>,
    /// Per-feature baseline bin probabilities (`bins` entries each).
    feature_probs: Vec<Vec<f64>>,
    /// Baseline score-histogram probabilities over `[0, 1]`.
    score_probs: Vec<f64>,
    /// Baseline mean value length (for the gate's outlier check).
    mean_value_len: f64,
}

/// Laplace-smoothed probability vector from counts.
fn smoothed(counts: &[usize], total: usize) -> Vec<f64> {
    let k = counts.len() as f64;
    counts
        .iter()
        .map(|&c| (c as f64 + 1.0) / (total as f64 + k))
        .collect()
}

/// PSI between two smoothed probability vectors of equal length.
fn psi(p: &[f64], q: &[f64]) -> f64 {
    p.iter()
        .zip(q)
        .map(|(&pi, &qi)| (pi - qi) * (pi / qi).ln())
        .sum()
}

/// Bin index of `v` in `bins` equal-width bins over `[lo, hi]`.
fn bin_of(v: f32, lo: f32, hi: f32, bins: usize) -> usize {
    if hi <= lo {
        return 0;
    }
    let t = f64::from((v - lo) / (hi - lo));
    ((t * bins as f64) as usize).min(bins - 1)
}

impl FeatureBaseline {
    /// Fit the baseline over `keys`' instance features in `store` plus
    /// the score population of `graph`.
    pub fn fit(
        store: &PropertyFeatureStore,
        keys: &[PropertyKey],
        graph: &SimilarityGraph,
        dataset: &Dataset,
        policy: &DriftPolicy,
    ) -> FeatureBaseline {
        let bins = policy.bins.max(2);
        let n_feat = NON_EMBEDDING_LEN;
        let mut ranges = vec![(f32::INFINITY, f32::NEG_INFINITY); n_feat];
        let vectors: Vec<&[f32]> = keys
            .iter()
            .filter_map(|k| store.property_vector(k))
            .collect();
        for v in &vectors {
            for (i, range) in ranges.iter_mut().enumerate() {
                range.0 = range.0.min(v[i]);
                range.1 = range.1.max(v[i]);
            }
        }
        for r in &mut ranges {
            if !r.0.is_finite() || !r.1.is_finite() {
                *r = (0.0, 0.0);
            }
        }

        let mut feature_counts = vec![vec![0usize; bins]; n_feat];
        for v in &vectors {
            for (i, counts) in feature_counts.iter_mut().enumerate() {
                counts[bin_of(v[i], ranges[i].0, ranges[i].1, bins)] += 1;
            }
        }
        let feature_probs = feature_counts
            .iter()
            .map(|c| smoothed(c, vectors.len()))
            .collect();

        let mut score_counts = vec![0usize; bins];
        let mut n_scores = 0usize;
        for (_, s) in graph.iter() {
            score_counts[bin_of(s, 0.0, 1.0, bins)] += 1;
            n_scores += 1;
        }
        let score_probs = smoothed(&score_counts, n_scores);

        let total_len: usize = dataset.instances().iter().map(|i| i.value.len()).sum();
        let mean_value_len = total_len as f64 / dataset.instances().len().max(1) as f64;

        FeatureBaseline {
            bins,
            ranges,
            feature_probs,
            score_probs,
            mean_value_len,
        }
    }

    /// The baseline mean value length (gate outlier input).
    pub fn mean_value_len(&self) -> f64 {
        self.mean_value_len
    }

    /// PSI of an epoch sample (property vectors + pair scores) against
    /// the baseline.
    pub fn drift(&self, vectors: &[Vec<f32>], scores: &[f32]) -> DriftStat {
        let mut worst = 0.0f64;
        let mut worst_feature = 0usize;
        for (i, base) in self.feature_probs.iter().enumerate() {
            let mut counts = vec![0usize; self.bins];
            for v in vectors {
                counts[bin_of(v[i], self.ranges[i].0, self.ranges[i].1, self.bins)] += 1;
            }
            let d = psi(base, &smoothed(&counts, vectors.len()));
            if d > worst {
                worst = d;
                worst_feature = i;
            }
        }
        let mut score_counts = vec![0usize; self.bins];
        for &s in scores {
            score_counts[bin_of(s, 0.0, 1.0, self.bins)] += 1;
        }
        let score_drift = if scores.is_empty() {
            0.0
        } else {
            psi(&self.score_probs, &smoothed(&score_counts, scores.len()))
        };
        DriftStat {
            features: worst,
            scores: score_drift,
            worst_feature,
        }
    }
}

/// Tunables for the whole continual scenario.
#[derive(Debug, Clone)]
pub struct ContinualConfig {
    /// Validation-gate bounds.
    pub gate: GatePolicy,
    /// Drift-detector tunables.
    pub drift: DriftPolicy,
    /// Active-learning label budget per refit: at most this many new
    /// oracle labels, taken from the unlabeled pairs nearest the
    /// decision boundary.
    pub label_budget: usize,
    /// Fraction of base sources used for the initial training split.
    pub train_fraction: f64,
    /// Negatives per positive in the initial training/holdout samples.
    pub negative_ratio: usize,
    /// Model/training configuration for champion and challengers.
    pub model: LeapmeConfig,
    /// A challenger must reach `champion_f1 - promote_margin` on the
    /// holdout to be promoted; anything less auto-rolls back.
    pub promote_margin: f64,
    /// Retry budget for journal appends.
    pub retry: RetryPolicy,
    /// Seed for the split/sampling RNG.
    pub seed: u64,
}

impl Default for ContinualConfig {
    fn default() -> Self {
        ContinualConfig {
            gate: GatePolicy::default(),
            drift: DriftPolicy::default(),
            label_budget: 64,
            train_fraction: 0.7,
            negative_ratio: 2,
            model: LeapmeConfig::default(),
            promote_margin: 0.0,
            retry: RetryPolicy::default(),
            seed: 0x0C01_71A7,
        }
    }
}

/// Per-run knobs that are not part of the scenario's identity.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Stop after this epoch completes (simulates a crash for the
    /// recovery tests; `None` runs the whole schedule).
    pub stop_after_epoch: Option<usize>,
    /// Force a refit every N epochs regardless of drift (`None` = only
    /// drift-triggered refits). The verify drill uses this to exercise
    /// the promotion gate deterministically.
    pub force_refit_every: Option<usize>,
    /// Cooperative cancellation checked between arrivals.
    pub cancel: Option<CancelToken>,
}

/// One journal record of the continual driver. A single flat struct
/// (rather than an enum) so every record shares one schema; `event`
/// selects which optional fields are populated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContinualEvent {
    /// `"epoch"`, `"quarantine"`, `"refit-start"`, `"promote"`, or
    /// `"rollback"`.
    pub event: String,
    /// Epoch the record belongs to (0 = initial fit).
    pub epoch: usize,
    /// Source name (quarantine records).
    pub source: Option<String>,
    /// Typed quarantine reason (quarantine records).
    pub quarantine: Option<QuarantineReason>,
    /// Feature-PSI drift measured this epoch (epoch records).
    pub drift_features: Option<f64>,
    /// Score-PSI drift measured this epoch (epoch records).
    pub drift_scores: Option<f64>,
    /// F1 over the resident graph vs ground truth (epoch records).
    pub f1: Option<f64>,
    /// Champion holdout F1 (promote/rollback records).
    pub champion_f1: Option<f64>,
    /// Challenger holdout F1 (promote/rollback records).
    pub challenger_f1: Option<f64>,
    /// Model generation after the event (promote records).
    pub generation: Option<u64>,
    /// Free-form detail (rollback error text).
    pub detail: Option<String>,
}

impl ContinualEvent {
    fn bare(event: &str, epoch: usize) -> ContinualEvent {
        ContinualEvent {
            event: event.to_string(),
            epoch,
            source: None,
            quarantine: None,
            drift_features: None,
            drift_scores: None,
            f1: None,
            champion_f1: None,
            challenger_f1: None,
            generation: None,
            detail: None,
        }
    }
}

/// One point on the quality-over-time curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QualityPoint {
    /// Epoch (0 = the initial fit over the base dataset).
    pub epoch: usize,
    /// Resident sources after the epoch.
    pub sources: usize,
    /// Resident properties after the epoch.
    pub properties: usize,
    /// Precision of graph matches vs ground truth.
    pub precision: f64,
    /// Recall of graph matches vs ground truth.
    pub recall: f64,
    /// F1 of graph matches vs ground truth.
    pub f1: f64,
    /// Feature-PSI drift measured this epoch.
    pub drift_features: f64,
    /// Score-PSI drift measured this epoch.
    pub drift_scores: f64,
    /// Sources quarantined this epoch.
    pub quarantined: usize,
    /// Refit decision this epoch (`"promote"`, `"rollback"`, or `None`).
    pub decision: Option<String>,
    /// Champion generation after the epoch.
    pub generation: u64,
}

/// A quarantined source on the final report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuarantinedSource {
    /// Source name.
    pub source: String,
    /// Epoch it arrived in.
    pub epoch: usize,
    /// Why the gate refused it.
    pub reason: QuarantineReason,
}

/// What a full (or stopped) run produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContinualReport {
    /// Quality-over-time curve, one point per completed epoch.
    pub points: Vec<QualityPoint>,
    /// Every quarantined source with its typed reason.
    pub quarantined: Vec<QuarantinedSource>,
    /// Challenger promotions.
    pub promotions: usize,
    /// Automatic rollbacks (regressions caught by the holdout gate).
    pub rollbacks: usize,
    /// Oracle labels spent by active learning (excludes the initial
    /// training sample).
    pub labels_used: usize,
    /// F1 after the last completed epoch.
    pub final_f1: f64,
}

/// Evaluate a model's holdout F1: score the labeled slice, threshold,
/// compare.
fn holdout_f1(
    model: &LeapmeModel,
    store: &PropertyFeatureStore,
    holdout: &[(PropertyPair, bool)],
) -> Result<f64, CoreError> {
    let pairs: Vec<PropertyPair> = holdout.iter().map(|(p, _)| p.clone()).collect();
    let scores = model.score_pairs(store, &pairs)?;
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fn_ = 0usize;
    for ((_, label), score) in holdout.iter().zip(&scores) {
        let predicted = *score >= model.threshold();
        match (predicted, *label) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    Ok(Metrics::from_counts(tp, fp, fn_).f1)
}

/// Quality of the resident graph against the dataset's ground truth.
fn graph_quality(graph: &SimilarityGraph, dataset: &Dataset, threshold: f32) -> Metrics {
    let predicted = graph.matches(threshold);
    let actual = dataset.ground_truth_pairs();
    Metrics::from_sets(&predicted, &actual)
}

/// The sabotaged challenger config the `continual.refit` `nan` fault
/// trains with: one epoch at a vanishing learning rate leaves the
/// single-unit network at its random initialization — a regression the
/// promotion gate must catch.
fn sabotaged(cfg: &LeapmeConfig) -> LeapmeConfig {
    let mut c = cfg.clone();
    c.hidden = vec![1];
    c.train.schedule = leapme_nn::schedule::LrSchedule::constant(1, 1e-12);
    c.train.validation_fraction = 0.0;
    c
}

/// Replayed decision state for one epoch, reconstructed from the journal.
#[derive(Debug, Clone, PartialEq)]
enum ReplayedDecision {
    Promote,
    Rollback,
}

/// Journal replay index: what already happened in a previous (crashed or
/// completed) run over the same journal.
struct Replay {
    /// Epochs whose `"epoch"` record exists.
    epochs: BTreeSet<usize>,
    /// Quarantine records already journaled, keyed by (epoch, source).
    quarantines: BTreeSet<(usize, String)>,
    /// `refit-start` epochs already journaled.
    refit_starts: BTreeSet<usize>,
    /// Decisions already journaled, by epoch.
    decisions: std::collections::BTreeMap<usize, ReplayedDecision>,
}

impl Replay {
    fn from_journal(journal: Option<&RunJournal>) -> Result<Replay, CoreError> {
        let mut r = Replay {
            epochs: BTreeSet::new(),
            quarantines: BTreeSet::new(),
            refit_starts: BTreeSet::new(),
            decisions: std::collections::BTreeMap::new(),
        };
        let Some(journal) = journal else {
            return Ok(r);
        };
        for ev in journal.replayed::<ContinualEvent>()? {
            match ev.event.as_str() {
                "epoch" => {
                    r.epochs.insert(ev.epoch);
                }
                "quarantine" => {
                    if let Some(src) = ev.source {
                        r.quarantines.insert((ev.epoch, src));
                    }
                }
                "refit-start" => {
                    r.refit_starts.insert(ev.epoch);
                }
                "promote" => {
                    r.decisions.insert(ev.epoch, ReplayedDecision::Promote);
                }
                "rollback" => {
                    r.decisions.insert(ev.epoch, ReplayedDecision::Rollback);
                }
                _ => {}
            }
        }
        Ok(r)
    }
}

/// Resident state the driver evolves across epochs.
struct ResidentState {
    dataset: Dataset,
    store: PropertyFeatureStore,
    graph: SimilarityGraph,
    champion: LeapmeModel,
    baseline: FeatureBaseline,
    generation: u64,
}

/// Append `event` unless the replay already contains it.
fn journal_once(
    journal: Option<&RunJournal>,
    retry: &RetryPolicy,
    already: bool,
    event: &ContinualEvent,
) -> Result<(), CoreError> {
    if already {
        return Ok(());
    }
    if let Some(j) = journal {
        j.append_retrying(event, retry)?;
    }
    Ok(())
}

/// Drive the full continual scenario over `schedule`.
///
/// Deterministic given `(schedule, embeddings, cfg)`: re-running after a
/// crash with the same journal reproduces the same state while honoring
/// every decision already journaled (promotes are re-applied, rollbacks
/// skip the challenger entirely) and never journaling a record twice.
pub fn run_schedule(
    schedule: &DriftSchedule,
    embeddings: &EmbeddingStore,
    cfg: &ContinualConfig,
    journal: Option<&RunJournal>,
    opts: &RunOptions,
) -> Result<ContinualReport, CoreError> {
    let replay = Replay::from_journal(journal)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // ---- epoch 0: initial fit over the base dataset ----
    let n_sources = schedule.base.sources().len();
    let split = sampling::split_sources(n_sources, cfg.train_fraction, &mut rng)?;
    let mut labeled =
        sampling::training_pairs(&schedule.base, &split.train, cfg.negative_ratio, &mut rng);
    // The held-out labeled slice every challenger is judged on; fixed
    // for the whole run so champion/challenger comparisons are stable.
    let holdout =
        sampling::test_examples(&schedule.base, &split.train, cfg.negative_ratio, &mut rng);
    if holdout.is_empty() {
        return Err(CoreError::NoHoldoutData);
    }

    let store = PropertyFeatureStore::build(&schedule.base, embeddings);
    let champion = Leapme::fit_durable(&store, &labeled, &cfg.model, &FitControl::default())?;
    let all_pairs = sampling::test_pairs(&schedule.base, &[]);
    let graph = champion.predict_graph(&store, &all_pairs)?;
    let keys = schedule.base.properties();
    let baseline = FeatureBaseline::fit(&store, &keys, &graph, &schedule.base, &cfg.drift);

    let mut state = ResidentState {
        dataset: schedule.base.clone(),
        store,
        graph,
        champion,
        baseline,
        generation: 0,
    };

    let mut report = ContinualReport {
        points: Vec::new(),
        quarantined: Vec::new(),
        promotions: 0,
        rollbacks: 0,
        labels_used: 0,
        final_f1: 0.0,
    };

    let q0 = graph_quality(&state.graph, &state.dataset, state.champion.threshold());
    journal_once(
        journal,
        &cfg.retry,
        replay.epochs.contains(&0),
        &ContinualEvent {
            f1: Some(q0.f1),
            drift_features: Some(0.0),
            drift_scores: Some(0.0),
            generation: Some(0),
            ..ContinualEvent::bare("epoch", 0)
        },
    )?;
    report.points.push(QualityPoint {
        epoch: 0,
        sources: state.dataset.sources().len(),
        properties: state.dataset.properties().len(),
        precision: q0.precision,
        recall: q0.recall,
        f1: q0.f1,
        drift_features: 0.0,
        drift_scores: 0.0,
        quarantined: 0,
        decision: None,
        generation: 0,
    });

    let last_epoch = schedule.arrivals.iter().map(|a| a.epoch).max().unwrap_or(0);

    // ---- arrival epochs ----
    for epoch in 1..=last_epoch {
        if let Some(token) = &opts.cancel {
            if token.is_cancelled() {
                return Err(CoreError::Cancelled);
            }
        }
        let mut epoch_quarantined = 0usize;
        let mut epoch_vectors: Vec<Vec<f32>> = Vec::new();
        let mut epoch_scores: Vec<f32> = Vec::new();

        for arrival in schedule.arrivals.iter().filter(|a| a.epoch == epoch) {
            let verdict = validate_arrival(
                &cfg.gate,
                arrival,
                Some(state.baseline.mean_value_len()),
            );
            let reason = match verdict {
                Ok(_) => match integrate_arrival(&mut state, arrival, embeddings) {
                    Ok((vectors, scores)) => {
                        epoch_vectors.extend(vectors);
                        epoch_scores.extend(scores);
                        None
                    }
                    Err(IntegrateFailure::Quarantine(reason)) => Some(reason),
                    Err(IntegrateFailure::Fatal(e)) => return Err(e),
                },
                Err(reason) => Some(reason),
            };
            if let Some(reason) = reason {
                epoch_quarantined += 1;
                journal_once(
                    journal,
                    &cfg.retry,
                    replay
                        .quarantines
                        .contains(&(epoch, arrival.name.clone())),
                    &ContinualEvent {
                        source: Some(arrival.name.clone()),
                        quarantine: Some(reason.clone()),
                        ..ContinualEvent::bare("quarantine", epoch)
                    },
                )?;
                report.quarantined.push(QuarantinedSource {
                    source: arrival.name.clone(),
                    epoch,
                    reason,
                });
            }
        }

        // ---- drift detection over this epoch's accepted population ----
        let drift = if epoch_vectors.len() >= cfg.drift.min_samples {
            state.baseline.drift(&epoch_vectors, &epoch_scores)
        } else {
            DriftStat {
                features: 0.0,
                scores: 0.0,
                worst_feature: 0,
            }
        };

        // ---- gated refit ----
        let forced = opts
            .force_refit_every
            .is_some_and(|n| n > 0 && epoch.is_multiple_of(n));
        let triggered = drift.max() > cfg.drift.threshold || forced;
        let mut decision: Option<String> = None;
        if triggered {
            decision = Some(refit_epoch(
                &mut state,
                &holdout,
                &mut labeled,
                &mut report,
                cfg,
                journal,
                &replay,
                epoch,
            )?);
        }

        let q = graph_quality(&state.graph, &state.dataset, state.champion.threshold());
        journal_once(
            journal,
            &cfg.retry,
            replay.epochs.contains(&epoch),
            &ContinualEvent {
                f1: Some(q.f1),
                drift_features: Some(drift.features),
                drift_scores: Some(drift.scores),
                generation: Some(state.generation),
                ..ContinualEvent::bare("epoch", epoch)
            },
        )?;
        report.points.push(QualityPoint {
            epoch,
            sources: state.dataset.sources().len(),
            properties: state.dataset.properties().len(),
            precision: q.precision,
            recall: q.recall,
            f1: q.f1,
            drift_features: drift.features,
            drift_scores: drift.scores,
            quarantined: epoch_quarantined,
            decision,
            generation: state.generation,
        });
        report.final_f1 = q.f1;

        if opts.stop_after_epoch == Some(epoch) {
            break;
        }
    }
    if report.final_f1 == 0.0 {
        report.final_f1 = report.points.last().map_or(0.0, |p| p.f1);
    }
    Ok(report)
}

/// Why integrating a validated arrival still failed.
enum IntegrateFailure {
    /// The merge itself was structurally invalid — gate-level refusal.
    Quarantine(QuarantineReason),
    /// A genuine pipeline error.
    Fatal(CoreError),
}

/// Merge one validated arrival into the resident state. Returns the new
/// source's property vectors and integration scores (the drift sample).
fn integrate_arrival(
    state: &mut ResidentState,
    arrival: &ScheduledSource,
    embeddings: &EmbeddingStore,
) -> Result<(Vec<Vec<f32>>, Vec<f32>), IntegrateFailure> {
    let sid = SourceId(state.dataset.sources().len() as u16);
    let mut sources = state.dataset.sources().to_vec();
    sources.push(arrival.name.clone());
    let mut instances = state.dataset.instances().to_vec();
    instances.extend(arrival.instances(sid));
    let mut alignment = state.dataset.alignment().clone();
    for (prop, reference) in &arrival.alignment {
        alignment.insert(PropertyKey::new(sid, prop.clone()), reference.clone());
    }
    let merged = Dataset::new(
        state.dataset.name().to_string(),
        sources,
        instances,
        alignment,
    )
    .map_err(|e| {
        IntegrateFailure::Quarantine(QuarantineReason::Inconsistent {
            detail: e.to_string(),
        })
    })?;

    let store = PropertyFeatureStore::build(&merged, embeddings);
    let mut graph = state.graph.clone();
    let outcome = match integrate_source(&state.champion, &store, &merged, &mut graph, sid) {
        Ok(o) => o,
        Err(CoreError::EmptySource(id)) => {
            // The gate rejects empty sources before this point; an
            // arrival whose rows all collapse to nothing still must not
            // poison resident state.
            let _ = id;
            return Err(IntegrateFailure::Quarantine(QuarantineReason::EmptySource));
        }
        Err(e) => return Err(IntegrateFailure::Fatal(e)),
    };

    // Drift sample: the new source's property vectors + the scores its
    // integration produced.
    let vectors: Vec<Vec<f32>> = merged
        .properties()
        .into_iter()
        .filter(|p| p.source == sid)
        .filter_map(|p| store.property_vector(&p).map(|v| v.to_vec()))
        .collect();
    let scores: Vec<f32> = {
        let before = &state.graph;
        graph
            .iter()
            .filter(|(pair, _)| before.score(pair).is_none())
            .map(|(_, s)| s)
            .collect()
    };
    let _ = outcome;

    state.dataset = merged;
    state.store = store;
    state.graph = graph;
    Ok((vectors, scores))
}

/// Run one champion/challenger refit for `epoch`, honoring any decision
/// already journaled. Returns `"promote"` or `"rollback"`.
#[allow(clippy::too_many_arguments)]
fn refit_epoch(
    state: &mut ResidentState,
    holdout: &[(PropertyPair, bool)],
    labeled: &mut Vec<(PropertyPair, bool)>,
    report: &mut ContinualReport,
    cfg: &ContinualConfig,
    journal: Option<&RunJournal>,
    replay: &Replay,
    epoch: usize,
) -> Result<String, CoreError> {
    journal_once(
        journal,
        &cfg.retry,
        replay.refit_starts.contains(&epoch),
        &ContinualEvent::bare("refit-start", epoch),
    )?;

    // Active learning: spend the label budget on the unlabeled pairs
    // nearest the decision boundary (paper §VI's similarity-score
    // framing — the scores the model is least sure about).
    let threshold = state.champion.threshold();
    let known: BTreeSet<&PropertyPair> = labeled.iter().map(|(p, _)| p).collect();
    let mut candidates: Vec<(PropertyPair, f32)> = state
        .graph
        .iter()
        .filter(|(pair, _)| !known.contains(pair))
        .map(|(pair, score)| (pair.clone(), (score - threshold).abs()))
        .collect();
    candidates.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    candidates.truncate(cfg.label_budget);
    report.labels_used += candidates.len();
    for (pair, _) in candidates {
        let is_match = state.dataset.matches(&pair.0, &pair.1);
        labeled.push((pair, is_match));
    }

    let replayed = replay.decisions.get(&epoch);

    // A journaled rollback means the challenger was already judged and
    // lost — don't even train it again.
    if replayed == Some(&ReplayedDecision::Rollback) {
        report.rollbacks += 1;
        return Ok("rollback".to_string());
    }

    let (challenger_cfg, refit_failed) = match injected_refit_fault() {
        Some(RefitFault::Sabotage) => (sabotaged(&cfg.model), false),
        Some(RefitFault::Fail) => (cfg.model.clone(), true),
        None => (cfg.model.clone(), false),
    };

    let challenger = if refit_failed {
        Err(CoreError::Nn(leapme_nn::NnError::NonFiniteLoss {
            epoch: 0,
            retries: 0,
        }))
    } else {
        Leapme::fit_durable(
            &state.store,
            labeled,
            &challenger_cfg,
            &FitControl::default(),
        )
    };

    let decision = match challenger {
        Err(_e) if replayed.is_none() => {
            // Refit failure auto-rolls back: the champion keeps serving.
            journal_once(
                journal,
                &cfg.retry,
                false,
                &ContinualEvent {
                    detail: Some("refit failed; champion retained".to_string()),
                    ..ContinualEvent::bare("rollback", epoch)
                },
            )?;
            report.rollbacks += 1;
            "rollback".to_string()
        }
        Err(e) => return Err(e),
        Ok(challenger) => {
            let champ_f1 = holdout_f1(&state.champion, &state.store, holdout)?;
            let chal_f1 = holdout_f1(&challenger, &state.store, holdout)?;
            let promote = match replayed {
                Some(ReplayedDecision::Promote) => true,
                Some(ReplayedDecision::Rollback) => false,
                None => chal_f1 + cfg.promote_margin >= champ_f1,
            };
            if promote {
                state.champion = challenger;
                state.generation += 1;
                // The graph's scores are the old champion's: re-predict
                // so served quality reflects the promoted model, and
                // re-anchor the drift baseline on the new population.
                let all_pairs = sampling::test_pairs(&state.dataset, &[]);
                state.graph = state.champion.predict_graph(&state.store, &all_pairs)?;
                let keys = state.dataset.properties();
                state.baseline = FeatureBaseline::fit(
                    &state.store,
                    &keys,
                    &state.graph,
                    &state.dataset,
                    &cfg.drift,
                );
                journal_once(
                    journal,
                    &cfg.retry,
                    replayed.is_some(),
                    &ContinualEvent {
                        champion_f1: Some(champ_f1),
                        challenger_f1: Some(chal_f1),
                        generation: Some(state.generation),
                        ..ContinualEvent::bare("promote", epoch)
                    },
                )?;
                report.promotions += 1;
                "promote".to_string()
            } else {
                journal_once(
                    journal,
                    &cfg.retry,
                    replayed.is_some(),
                    &ContinualEvent {
                        champion_f1: Some(champ_f1),
                        challenger_f1: Some(chal_f1),
                        detail: Some("challenger regressed on holdout".to_string()),
                        ..ContinualEvent::bare("rollback", epoch)
                    },
                )?;
                report.rollbacks += 1;
                "rollback".to_string()
            }
        }
    };
    Ok(decision)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapme_data::drift::{generate_drift_schedule, DriftConfig};
    use leapme_data::stress::{stress_vocabulary, StressConfig};
    use leapme_nn::network::TrainConfig;
    use leapme_nn::schedule::LrSchedule;

    /// Hash-derived embeddings over the stress vocabulary (the same
    /// construction as the facade's `stress_embedding_store`, local so
    /// `leapme-core` needs no circular dev-dependency).
    fn hash_embeddings(cfg: &StressConfig, dim: usize, seed: u64) -> EmbeddingStore {
        fn mix(x: u64) -> u64 {
            let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        let mut store = EmbeddingStore::new(dim);
        for word in stress_vocabulary(cfg) {
            let mut h = seed;
            for b in word.as_bytes() {
                h = mix(h ^ u64::from(*b));
            }
            let v: Vec<f32> = (0..dim)
                .map(|d| {
                    let r = mix(h ^ (d as u64).wrapping_mul(0x9E3779B97F4A7C15));
                    ((r >> 11) as f64 / (1u64 << 53) as f64) as f32 - 0.5
                })
                .collect();
            store.insert(&word, v).unwrap();
        }
        store
    }

    fn small_drift_config() -> DriftConfig {
        DriftConfig {
            base: StressConfig {
                properties: 120,
                properties_per_source: 20,
                cluster_size: 4,
                instances_per_property: 1,
                seed: 17,
            },
            epochs: 2,
            sources_per_epoch: 1,
            naming_drift: 0.3,
            value_drift: 0.4,
            corrupt_every: 0,
        }
    }

    fn small_continual_config() -> ContinualConfig {
        ContinualConfig {
            label_budget: 24,
            model: LeapmeConfig {
                train: TrainConfig {
                    schedule: LrSchedule::new(vec![(16, 1e-3), (4, 1e-4)]),
                    ..TrainConfig::default()
                },
                hidden: vec![24],
                ..LeapmeConfig::default()
            },
            ..ContinualConfig::default()
        }
    }

    #[test]
    fn gate_quarantines_typed_defects() {
        let policy = GatePolicy {
            max_rows: 100,
            max_value_len: 64,
            ..GatePolicy::default()
        };
        let mut c = small_drift_config();
        c.corrupt_every = 1; // every arrival is defective, rotating kinds
        let s = generate_drift_schedule(&c);
        let reasons: Vec<QuarantineReason> = s
            .arrivals
            .iter()
            .map(|a| validate_arrival(&policy, a, None).unwrap_err())
            .collect();
        assert_eq!(reasons[0], QuarantineReason::EmptySource);
        assert!(matches!(reasons[1], QuarantineReason::OversizedValue { .. }));
    }

    #[test]
    fn a_base_without_held_out_matches_has_no_holdout() {
        // Every property aligns to its own reference, so no ground-truth
        // pair exists and the held-out sources carry no labeled pair.
        let instances = (0..3u16)
            .map(|s| leapme_data::model::Instance {
                source: SourceId(s),
                property: format!("p{s}"),
                entity: "e".into(),
                value: "1".into(),
            })
            .collect();
        let alignment = (0..3u16)
            .map(|s| {
                (
                    PropertyKey::new(SourceId(s), format!("p{s}")),
                    format!("r{s}"),
                )
            })
            .collect();
        let sources = vec!["a".into(), "b".into(), "c".into()];
        let schedule = DriftSchedule {
            base: Dataset::new("unmatched", sources, instances, alignment).unwrap(),
            arrivals: Vec::new(),
        };
        let err = run_schedule(
            &schedule,
            &EmbeddingStore::new(4),
            &small_continual_config(),
            None,
            &RunOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::NoHoldoutData), "got {err}");
    }

    #[test]
    fn gate_accepts_clean_arrivals() {
        let s = generate_drift_schedule(&small_drift_config());
        for a in &s.arrivals {
            let stats = validate_arrival(&GatePolicy::default(), a, Some(10.0)).unwrap();
            assert!(stats.properties > 0);
            assert!(stats.rows >= stats.properties);
        }
    }

    #[test]
    fn psi_is_zero_on_the_baseline_population_and_positive_off_it() {
        let policy = DriftPolicy::default();
        let cfg = small_drift_config();
        let schedule = generate_drift_schedule(&cfg);
        let embeddings = hash_embeddings(&cfg.base, 12, 5);
        let store = PropertyFeatureStore::build(&schedule.base, &embeddings);
        let keys = schedule.base.properties();
        let mut graph = SimilarityGraph::new();
        let props = schedule.base.properties();
        graph.add(PropertyPair::new(props[0].clone(), props[21].clone()), 0.8);
        let baseline = FeatureBaseline::fit(&store, &keys, &graph, &schedule.base, &policy);

        let vectors: Vec<Vec<f32>> = keys
            .iter()
            .filter_map(|k| store.property_vector(k).map(|v| v.to_vec()))
            .collect();
        let self_drift = baseline.drift(&vectors, &[0.8]);
        assert!(
            self_drift.features < 0.05,
            "self-PSI should be ~0, got {}",
            self_drift.features
        );

        // A shifted population (every feature pushed to its max) drifts.
        let shifted: Vec<Vec<f32>> = vectors
            .iter()
            .map(|v| v.iter().map(|x| x * 100.0 + 50.0).collect())
            .collect();
        let off_drift = baseline.drift(&shifted, &[0.01]);
        assert!(
            off_drift.features > policy.threshold,
            "shifted population should exceed the threshold, got {}",
            off_drift.features
        );
    }

    #[test]
    fn schedule_runs_end_to_end_and_reports_quality_over_time() {
        let dcfg = small_drift_config();
        let schedule = generate_drift_schedule(&dcfg);
        let embeddings = hash_embeddings(&dcfg.base, 12, 5);
        let cfg = small_continual_config();
        let report =
            run_schedule(&schedule, &embeddings, &cfg, None, &RunOptions::default()).unwrap();
        assert_eq!(report.points.len(), 1 + dcfg.epochs);
        assert_eq!(report.points[0].epoch, 0);
        // Sources grow monotonically with accepted arrivals.
        assert!(report.points.last().unwrap().sources > report.points[0].sources);
        // The initial fit must produce a usable matcher.
        assert!(
            report.points[0].f1 > 0.5,
            "epoch-0 F1 too low: {}",
            report.points[0].f1
        );
        assert!(report.quarantined.is_empty());
    }

    #[test]
    fn forced_refit_promotes_or_rolls_back_and_journals_the_decision() {
        let dcfg = small_drift_config();
        let schedule = generate_drift_schedule(&dcfg);
        let embeddings = hash_embeddings(&dcfg.base, 12, 5);
        let cfg = small_continual_config();
        let dir = std::env::temp_dir().join(format!(
            "leapme-continual-forced-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        let _ = std::fs::remove_file(&path);
        let journal = RunJournal::open(&path).unwrap();
        let opts = RunOptions {
            force_refit_every: Some(1),
            ..RunOptions::default()
        };
        let report = run_schedule(&schedule, &embeddings, &cfg, Some(&journal), &opts).unwrap();
        assert_eq!(report.promotions + report.rollbacks, dcfg.epochs);
        assert!(report.labels_used > 0, "active learning spent no labels");
        let events: Vec<ContinualEvent> =
            RunJournal::open(&path).unwrap().replayed().unwrap();
        let decisions = events
            .iter()
            .filter(|e| e.event == "promote" || e.event == "rollback")
            .count();
        assert_eq!(decisions, dcfg.epochs);
        let starts = events.iter().filter(|e| e.event == "refit-start").count();
        assert_eq!(starts, dcfg.epochs);
    }

    #[test]
    fn interrupted_run_resumes_from_the_journal_without_duplicating_decisions() {
        let dcfg = small_drift_config();
        let schedule = generate_drift_schedule(&dcfg);
        let embeddings = hash_embeddings(&dcfg.base, 12, 5);
        let cfg = small_continual_config();
        let dir = std::env::temp_dir().join(format!(
            "leapme-continual-resume-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        let _ = std::fs::remove_file(&path);

        // Run 1 "crashes" after epoch 1.
        let journal = RunJournal::open(&path).unwrap();
        let stopped = run_schedule(
            &schedule,
            &embeddings,
            &cfg,
            Some(&journal),
            &RunOptions {
                stop_after_epoch: Some(1),
                force_refit_every: Some(1),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(stopped.points.len(), 2);
        drop(journal);

        // Run 2 resumes over the same journal and completes.
        let journal = RunJournal::open(&path).unwrap();
        let resumed = run_schedule(
            &schedule,
            &embeddings,
            &cfg,
            Some(&journal),
            &RunOptions {
                force_refit_every: Some(1),
                ..RunOptions::default()
            },
        )
        .unwrap();
        drop(journal);

        // An uninterrupted reference run (no journal) must agree bitwise
        // on the quality curve — deterministic recovery.
        let reference = run_schedule(
            &schedule,
            &embeddings,
            &cfg,
            None,
            &RunOptions {
                force_refit_every: Some(1),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(resumed.points.len(), reference.points.len());
        for (a, b) in resumed.points.iter().zip(&reference.points) {
            assert_eq!(a.f1.to_bits(), b.f1.to_bits(), "epoch {} diverged", a.epoch);
            assert_eq!(a.decision, b.decision);
            assert_eq!(a.generation, b.generation);
        }

        // Epoch-1 decision journaled exactly once across both runs.
        let events: Vec<ContinualEvent> =
            RunJournal::open(&path).unwrap().replayed().unwrap();
        let epoch1_decisions = events
            .iter()
            .filter(|e| (e.event == "promote" || e.event == "rollback") && e.epoch == 1)
            .count();
        assert_eq!(epoch1_decisions, 1);
    }

    #[test]
    fn quarantined_sources_never_touch_resident_state() {
        let mut dcfg = small_drift_config();
        dcfg.corrupt_every = 2; // arrival 2 (epoch 2) is empty
        let schedule = generate_drift_schedule(&dcfg);
        let embeddings = hash_embeddings(&dcfg.base, 12, 5);
        let cfg = small_continual_config();
        let report =
            run_schedule(&schedule, &embeddings, &cfg, None, &RunOptions::default()).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].reason, QuarantineReason::EmptySource);
        // The quarantined epoch added no source.
        let p1 = &report.points[1];
        let p2 = &report.points[2];
        assert_eq!(p2.sources, p1.sources, "quarantined source was integrated");
        assert_eq!(p2.quarantined, 1);
    }

    #[test]
    fn event_roundtrips_through_json() {
        let ev = ContinualEvent {
            source: Some("s".to_string()),
            quarantine: Some(QuarantineReason::OversizedValue {
                property: "p".to_string(),
                len: 9000,
                max: 4096,
            }),
            ..ContinualEvent::bare("quarantine", 3)
        };
        let json = serde_json::to_string(&ev).unwrap();
        let back: ContinualEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back.event, "quarantine");
        assert_eq!(back.epoch, 3);
        assert_eq!(back.quarantine, ev.quarantine);
    }
}

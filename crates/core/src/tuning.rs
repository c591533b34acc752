//! Grid-search hyper-parameter tuning for the LEAPME classifier.
//!
//! The paper tuned its hyper-parameters "manually in preliminary tests"
//! (§IV-D). This module provides the systematic version: a grid over
//! candidate configurations, each evaluated with the repeated-splits
//! protocol on a *tuning* region, returning the configurations ranked by
//! mean F1. Keeping the tuning split separate from the final evaluation
//! split (different `base_seed`) avoids leaking the test region.

use crate::pipeline::LeapmeConfig;
use crate::runner::{run_repeated, RunnerConfig};
use crate::CoreError;
use leapme_data::model::Dataset;
use leapme_features::PropertyFeatureStore;
use leapme_nn::network::TrainConfig;
use leapme_nn::schedule::LrSchedule;

/// One grid point with its measured quality.
#[derive(Debug, Clone)]
pub struct TunedCandidate {
    /// Short human-readable description of the configuration.
    pub label: String,
    /// The configuration itself.
    pub config: LeapmeConfig,
    /// Mean F1 over the tuning repetitions.
    pub f1_mean: f64,
    /// Std-dev of F1.
    pub f1_std: f64,
}

/// Grid definition: cartesian product of hidden-layer layouts and
/// learning-rate schedules (batch size and features stay fixed).
#[derive(Debug, Clone)]
pub struct TuningGrid {
    /// Candidate hidden-layer layouts.
    pub hidden: Vec<Vec<usize>>,
    /// Candidate schedules, labeled.
    pub schedules: Vec<(String, LrSchedule)>,
}

impl Default for TuningGrid {
    fn default() -> Self {
        TuningGrid {
            hidden: vec![vec![64], vec![128, 64], vec![256, 128]],
            schedules: vec![
                ("staged-paper".into(), LrSchedule::leapme()),
                ("const-1e-3".into(), LrSchedule::constant(20, 1e-3)),
            ],
        }
    }
}

/// Evaluate every grid point and return candidates ranked by mean F1
/// (best first).
pub fn grid_search(
    dataset: &Dataset,
    store: &PropertyFeatureStore,
    grid: &TuningGrid,
    base: &RunnerConfig,
) -> Result<Vec<TunedCandidate>, CoreError> {
    if grid.hidden.is_empty() || grid.schedules.is_empty() {
        return Err(CoreError::InvalidConfig("empty tuning grid".into()));
    }
    let mut out = Vec::with_capacity(grid.hidden.len() * grid.schedules.len());
    for hidden in &grid.hidden {
        for (schedule_label, schedule) in &grid.schedules {
            let config = LeapmeConfig {
                hidden: hidden.clone(),
                train: TrainConfig {
                    schedule: schedule.clone(),
                    ..base.leapme.train.clone()
                },
                ..base.leapme.clone()
            };
            let runner = RunnerConfig {
                leapme: config.clone(),
                ..base.clone()
            };
            let (summary, _) = run_repeated(dataset, store, &runner)?;
            out.push(TunedCandidate {
                label: format!("hidden={hidden:?} schedule={schedule_label}"),
                config,
                f1_mean: summary.f1_mean,
                f1_std: summary.f1_std,
            });
        }
    }
    out.sort_by(|a, b| b.f1_mean.partial_cmp(&a.f1_mean).unwrap_or(std::cmp::Ordering::Equal));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapme_data::corpus::{generate_corpus, CorpusConfig};
    use leapme_data::domains::{generate, Domain};
    use leapme_embedding::cooccur::CooccurrenceMatrix;
    use leapme_embedding::glove::{train, GloVeConfig};
    use leapme_embedding::store::EmbeddingStore;
    use leapme_embedding::vocab::Vocab;

    fn embeddings() -> EmbeddingStore {
        let corpus = generate_corpus(
            &Domain::Tvs.spec(),
            &CorpusConfig {
                sentences_per_synonym: 6,
                filler_sentences: 20,
            },
            3,
        );
        let vocab = Vocab::build(corpus.iter().flatten().map(String::as_str), 2);
        let cooc = CooccurrenceMatrix::from_sentences(&vocab, &corpus, 5);
        train(
            &vocab,
            &cooc,
            &GloVeConfig {
                dim: 12,
                epochs: 6,
                ..GloVeConfig::default()
            },
            3,
        )
        .unwrap()
    }

    #[test]
    fn grid_search_ranks_candidates() {
        let ds = generate(Domain::Tvs, 55);
        let store = PropertyFeatureStore::build(&ds, &embeddings());
        let grid = TuningGrid {
            hidden: vec![vec![16], vec![32, 16]],
            schedules: vec![
                ("short".into(), LrSchedule::constant(4, 1e-3)),
                ("shorter".into(), LrSchedule::constant(2, 1e-3)),
            ],
        };
        let base = RunnerConfig {
            repetitions: 2,
            base_seed: 55,
            ..RunnerConfig::default()
        };
        let ranked = grid_search(&ds, &store, &grid, &base).unwrap();
        assert_eq!(ranked.len(), 4);
        // Sorted descending by F1.
        for w in ranked.windows(2) {
            assert!(w[0].f1_mean >= w[1].f1_mean);
        }
        // Labels identify the grid point.
        assert!(ranked.iter().any(|c| c.label.contains("short")));
        assert!(ranked[0].f1_mean > 0.3, "grid winner too weak");
    }

    #[test]
    fn empty_grid_rejected() {
        let ds = generate(Domain::Tvs, 56);
        let store = PropertyFeatureStore::build(&ds, &EmbeddingStore::new(4));
        let grid = TuningGrid {
            hidden: vec![],
            schedules: vec![],
        };
        assert!(matches!(
            grid_search(&ds, &store, &grid, &RunnerConfig::default()),
            Err(CoreError::InvalidConfig(_))
        ));
    }
}

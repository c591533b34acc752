//! Permutation feature importance over LEAPME's feature blocks.
//!
//! Table II measures feature-group value by *retraining* under nine
//! configurations; permutation importance asks the complementary
//! question about a *single trained model*: how much quality is lost if
//! one block's values are shuffled across the evaluation pairs
//! (destroying their information while preserving their marginal
//! distribution)? Large drops mean the model leans on that block.

use crate::metrics::Metrics;
use crate::pipeline::LeapmeModel;
use crate::CoreError;
use leapme_data::model::PropertyPair;
use leapme_features::{instance, pair, PropertyFeatureStore};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The four feature blocks of the full pair vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureBlock {
    /// Instance meta-features (Table I rows 1–3), 29 columns.
    InstanceNonEmbedding,
    /// Instance embedding averages (row 4), `D` columns.
    InstanceEmbedding,
    /// Name embedding averages (row 6), `D` columns.
    NameEmbedding,
    /// Name string distances (rows 8–15), 8 columns.
    StringDistances,
}

impl FeatureBlock {
    /// All four blocks in layout order.
    pub const ALL: [FeatureBlock; 4] = [
        FeatureBlock::InstanceNonEmbedding,
        FeatureBlock::InstanceEmbedding,
        FeatureBlock::NameEmbedding,
        FeatureBlock::StringDistances,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            FeatureBlock::InstanceNonEmbedding => "instance meta-features",
            FeatureBlock::InstanceEmbedding => "instance embeddings",
            FeatureBlock::NameEmbedding => "name embeddings",
            FeatureBlock::StringDistances => "string distances",
        }
    }

    /// Column range in the *full* pair vector at embedding dim `d`.
    pub fn columns(self, d: usize) -> std::ops::Range<usize> {
        let n = instance::NON_EMBEDDING_LEN;
        match self {
            FeatureBlock::InstanceNonEmbedding => 0..n,
            FeatureBlock::InstanceEmbedding => n..n + d,
            FeatureBlock::NameEmbedding => n + d..n + 2 * d,
            FeatureBlock::StringDistances => n + 2 * d..n + 2 * d + pair::STRING_FEATURES,
        }
    }
}

/// Importance of one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockImportance {
    /// The block.
    pub block: FeatureBlock,
    /// F1 after permuting the block.
    pub permuted_f1: f64,
    /// `baseline_f1 − permuted_f1` (higher = more important).
    pub f1_drop: f64,
}

/// Result of a permutation-importance analysis.
#[derive(Debug, Clone)]
pub struct ImportanceReport {
    /// F1 of the unperturbed model on the evaluation pairs.
    pub baseline_f1: f64,
    /// Per-block importance, in [`FeatureBlock::ALL`] order.
    pub blocks: Vec<BlockImportance>,
}

/// Measure permutation importance of each feature block.
///
/// The model must have been trained with the *full* feature
/// configuration (all blocks present); `labeled` supplies the evaluation
/// pairs and their ground-truth labels.
pub fn permutation_importance(
    model: &LeapmeModel,
    store: &PropertyFeatureStore,
    labeled: &[(PropertyPair, bool)],
    seed: u64,
) -> Result<ImportanceReport, CoreError> {
    if labeled.is_empty() {
        return Err(CoreError::NoTrainingData);
    }
    let d = store.dim();
    if model.input_dim() != pair::len(d) {
        return Err(CoreError::WidthMismatch {
            model: model.input_dim(),
            required: pair::len(d),
        });
    }

    // Materialize the full feature matrix once.
    let mut rows: Vec<Vec<f32>> = Vec::with_capacity(labeled.len());
    for (PropertyPair(a, b), _) in labeled {
        rows.push(store.full_pair_vector(a, b)?);
    }
    let gt: std::collections::BTreeSet<&PropertyPair> = labeled
        .iter()
        .filter(|(_, y)| *y)
        .map(|(p, _)| p)
        .collect();
    let eval = |rows: &[Vec<f32>]| -> f64 {
        let scores = model.score_rows(rows);
        let mut tp = 0;
        let mut fp = 0;
        let mut fn_ = 0;
        for ((p, _), s) in labeled.iter().zip(&scores) {
            let predicted = *s >= model.threshold();
            let actual = gt.contains(p);
            match (predicted, actual) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => {}
            }
        }
        Metrics::from_counts(tp, fp, fn_).f1
    };

    let baseline_f1 = eval(&rows);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut blocks = Vec::with_capacity(FeatureBlock::ALL.len());
    for block in FeatureBlock::ALL {
        let cols = block.columns(d);
        // Permute the block rows-wise: shuffle which row each block
        // segment belongs to.
        let mut perm: Vec<usize> = (0..rows.len()).collect();
        perm.shuffle(&mut rng);
        let mut permuted = rows.clone();
        for (dst, &src) in perm.iter().enumerate() {
            permuted[dst][cols.clone()].copy_from_slice(&rows[src][cols.clone()]);
        }
        let permuted_f1 = eval(&permuted);
        blocks.push(BlockImportance {
            block,
            permuted_f1,
            f1_drop: baseline_f1 - permuted_f1,
        });
    }
    Ok(ImportanceReport {
        baseline_f1,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Leapme, LeapmeConfig};
    use crate::sampling;
    use leapme_data::corpus::{generate_corpus, CorpusConfig};
    use leapme_data::domains::{generate, Domain};
    use leapme_embedding::cooccur::CooccurrenceMatrix;
    use leapme_embedding::glove::{train, GloVeConfig};
    use leapme_embedding::store::EmbeddingStore;
    use leapme_embedding::vocab::Vocab;
    use leapme_features::{FeatureConfig, FeatureKind, FeatureScope};
    use leapme_nn::network::TrainConfig;
    use leapme_nn::schedule::LrSchedule;

    fn embeddings() -> EmbeddingStore {
        let corpus = generate_corpus(
            &Domain::Tvs.spec(),
            &CorpusConfig {
                sentences_per_synonym: 10,
                filler_sentences: 30,
            },
            7,
        );
        let vocab = Vocab::build(corpus.iter().flatten().map(String::as_str), 2);
        let cooc = CooccurrenceMatrix::from_sentences(&vocab, &corpus, 5);
        train(
            &vocab,
            &cooc,
            &GloVeConfig {
                dim: 16,
                epochs: 10,
                ..GloVeConfig::default()
            },
            7,
        )
        .unwrap()
    }

    #[test]
    fn importance_identifies_informative_blocks() {
        let ds = generate(Domain::Tvs, 81);
        let store = PropertyFeatureStore::build(&ds, &embeddings());
        let mut rng = rand::rngs::StdRng::seed_from_u64(81);
        let split = sampling::split_sources(ds.sources().len(), 0.8, &mut rng).unwrap();
        let training = sampling::training_pairs(&ds, &split.train, 2, &mut rng);
        let model = Leapme::fit(
            &store,
            &training,
            &LeapmeConfig {
                train: TrainConfig {
                    schedule: LrSchedule::new(vec![(8, 1e-3), (4, 1e-4)]),
                    ..TrainConfig::default()
                },
                ..LeapmeConfig::default()
            },
        )
        .unwrap();
        let eval_pairs = sampling::test_examples(&ds, &split.train, 2, &mut rng);
        let report = permutation_importance(&model, &store, &eval_pairs, 1).unwrap();
        assert!(report.baseline_f1 > 0.7, "baseline {}", report.baseline_f1);
        assert_eq!(report.blocks.len(), 4);
        // At least one block must matter substantially.
        let max_drop = report
            .blocks
            .iter()
            .map(|b| b.f1_drop)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max_drop > 0.05, "no block mattered: {report:?}");
        // Permuting never *helps* much (sanity).
        for b in &report.blocks {
            assert!(b.f1_drop > -0.1, "{:?} suspiciously improved", b.block);
        }
    }

    #[test]
    fn block_columns_partition_full_vector() {
        let d = 16;
        let mut covered = vec![false; pair::len(d)];
        for block in FeatureBlock::ALL {
            for c in block.columns(d) {
                assert!(!covered[c], "column {c} covered twice");
                covered[c] = true;
            }
        }
        assert!(covered.into_iter().all(|c| c));
    }

    #[test]
    fn rejects_partial_feature_model() {
        let ds = generate(Domain::Tvs, 82);
        let store = PropertyFeatureStore::build(&ds, &embeddings());
        let mut rng = rand::rngs::StdRng::seed_from_u64(82);
        let split = sampling::split_sources(ds.sources().len(), 0.8, &mut rng).unwrap();
        let training = sampling::training_pairs(&ds, &split.train, 2, &mut rng);
        let model = Leapme::fit(
            &store,
            &training,
            &LeapmeConfig {
                features: FeatureConfig {
                    scope: FeatureScope::Names,
                    kind: FeatureKind::Embeddings,
                },
                train: TrainConfig {
                    schedule: LrSchedule::new(vec![(2, 1e-3)]),
                    ..TrainConfig::default()
                },
                hidden: vec![8],
                ..LeapmeConfig::default()
            },
        )
        .unwrap();
        let eval_pairs = sampling::test_examples(&ds, &split.train, 2, &mut rng);
        match permutation_importance(&model, &store, &eval_pairs, 1) {
            Err(CoreError::WidthMismatch { model: m, required }) => {
                assert_eq!((m, required), (model.input_dim(), pair::len(store.dim())));
            }
            other => panic!("expected WidthMismatch, got {:?}", other.map(|_| "report")),
        }
        assert!(permutation_importance(&model, &store, &[], 1).is_err());
    }
}

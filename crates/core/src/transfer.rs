//! Cross-domain transfer learning (paper §V: "we … study the use of
//! transfer learning").
//!
//! Train a LEAPME model on one product domain (all of its sources) and
//! evaluate it, unchanged, on a *different* domain. Because the features
//! are domain-agnostic (format meta-features, embedding distances, string
//! distances), a model trained on cameras can plausibly match phone
//! properties — the experiment quantifies how much quality is lost
//! compared to in-domain training.

use crate::metrics::Metrics;
use crate::pipeline::{Leapme, LeapmeConfig};
use crate::sampling;
use crate::CoreError;
use leapme_data::model::{Dataset, PropertyPair, SourceId};
use leapme_features::PropertyFeatureStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Outcome of one transfer experiment.
#[derive(Debug, Clone)]
pub struct TransferOutcome {
    /// Name of the domain the model was trained on.
    pub train_domain: String,
    /// Name of the domain the model was evaluated on.
    pub test_domain: String,
    /// Match-quality metrics on the full target-domain candidate space.
    pub metrics: Metrics,
}

/// Train on all sources of `train_ds` and evaluate on all cross-source
/// pairs of `test_ds`.
///
/// Both feature stores must be built with the *same* embedding store so
/// the learned weights make sense on the target domain; a dimension
/// mismatch is rejected.
pub fn transfer_evaluate(
    train_ds: &Dataset,
    train_store: &PropertyFeatureStore,
    test_ds: &Dataset,
    test_store: &PropertyFeatureStore,
    cfg: &LeapmeConfig,
    negative_ratio: usize,
    seed: u64,
) -> Result<TransferOutcome, CoreError> {
    if train_store.dim() != test_store.dim() {
        // The model is trained on the training store and scores the test
        // store, so the test store's dimension must match the model's.
        return Err(CoreError::DimMismatch {
            store: test_store.dim(),
            model: train_store.dim(),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);

    // Use every source of the training domain.
    let all_train_sources: Vec<SourceId> = (0..train_ds.sources().len())
        .map(|i| SourceId(i as u16))
        .collect();
    let train = sampling::training_pairs(train_ds, &all_train_sources, negative_ratio, &mut rng);
    let model = Leapme::fit(train_store, &train, cfg)?;

    // Evaluate on the whole target domain.
    let all_test_sources: Vec<SourceId> = (0..test_ds.sources().len())
        .map(|i| SourceId(i as u16))
        .collect();
    let candidates: Vec<PropertyPair> = test_ds.cross_source_pairs(&all_test_sources);
    let gt: BTreeSet<PropertyPair> = test_ds.ground_truth_pairs();
    let graph = model.predict_graph(test_store, &candidates)?;
    let metrics = Metrics::from_sets(&graph.matches(cfg.threshold), &gt);

    Ok(TransferOutcome {
        train_domain: train_ds.name().to_string(),
        test_domain: test_ds.name().to_string(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapme_data::corpus::{generate_corpus, CorpusConfig};
    use leapme_data::domains::{generate, Domain};
    use leapme_embedding::cooccur::CooccurrenceMatrix;
    use leapme_embedding::glove::{train as glove_train, GloVeConfig};
    use leapme_embedding::store::EmbeddingStore;
    use leapme_embedding::vocab::Vocab;
    use leapme_nn::network::TrainConfig;
    use leapme_nn::schedule::LrSchedule;

    /// Embeddings trained on the union of two domains' corpora — the
    /// transfer setting requires one shared embedding space.
    fn shared_embeddings(a: Domain, b: Domain) -> EmbeddingStore {
        let cfg = CorpusConfig {
            sentences_per_synonym: 5,
            filler_sentences: 20,
        };
        let mut corpus = generate_corpus(&a.spec(), &cfg, 41);
        corpus.extend(generate_corpus(&b.spec(), &cfg, 42));
        let vocab = Vocab::build(corpus.iter().flatten().map(String::as_str), 2);
        let cooc = CooccurrenceMatrix::from_sentences(&vocab, &corpus, 5);
        glove_train(
            &vocab,
            &cooc,
            &GloVeConfig {
                dim: 12,
                epochs: 5,
                ..GloVeConfig::default()
            },
            5,
        )
        .unwrap()
    }

    fn quick_leapme() -> LeapmeConfig {
        LeapmeConfig {
            train: TrainConfig {
                schedule: LrSchedule::new(vec![(5, 1e-3)]),
                ..TrainConfig::default()
            },
            hidden: vec![16],
            ..LeapmeConfig::default()
        }
    }

    #[test]
    fn transfer_produces_nonzero_quality() {
        let emb = shared_embeddings(Domain::Tvs, Domain::Headphones);
        let tvs = generate(Domain::Tvs, 51);
        let hp = generate(Domain::Headphones, 52);
        let tv_store = PropertyFeatureStore::build(&tvs, &emb);
        let hp_store = PropertyFeatureStore::build(&hp, &emb);
        let out =
            transfer_evaluate(&tvs, &tv_store, &hp, &hp_store, &quick_leapme(), 2, 9).unwrap();
        assert_eq!(out.train_domain, "tvs");
        assert_eq!(out.test_domain, "headphones");
        // Transfer should recover at least some matches (names/formats
        // transfer even across domains).
        assert!(
            out.metrics.f1 > 0.05,
            "transfer learned nothing: {}",
            out.metrics
        );
    }

    #[test]
    fn rejects_mismatched_embedding_dims() {
        let tvs = generate(Domain::Tvs, 53);
        let hp = generate(Domain::Headphones, 54);
        let a = PropertyFeatureStore::build(&tvs, &EmbeddingStore::new(4));
        let b = PropertyFeatureStore::build(&hp, &EmbeddingStore::new(8));
        let err = transfer_evaluate(&tvs, &a, &hp, &b, &quick_leapme(), 2, 1).unwrap_err();
        assert!(matches!(err, CoreError::DimMismatch { store: 8, model: 4 }));
    }
}

//! Chaos suite: every injectable fault must surface as a structured
//! error or a documented degradation — never a process abort or an
//! unwinding panic escaping the pipeline (DESIGN.md §8).
//!
//! Gated on `--features faults`; `leapme_faults::with_plan` serializes
//! plan installation, so these tests can share one process.
#![cfg(feature = "faults")]

use leapme::core::pipeline::ScoreOptions;
use leapme::data::io::{read_dataset, read_dataset_lenient};
use leapme::faults::with_plan;
use leapme::features::vectorizer::FeatureError;
use leapme::nn::network::TrainConfig;
use leapme::nn::schedule::LrSchedule;
use leapme::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn quick_config() -> LeapmeConfig {
    LeapmeConfig {
        train: TrainConfig {
            schedule: LrSchedule::new(vec![(4, 1e-3)]),
            ..TrainConfig::default()
        },
        hidden: vec![8],
        ..LeapmeConfig::default()
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("leapme_chaos_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Single-token property names (and values) with full vocabulary
/// coverage, so embedding-lookup faults are the *only* source of
/// degradation.
const WORDS: &[&str] = &[
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet",
    "kilo", "lima", "mike", "november", "oscar", "papa", "quebec", "romeo", "sierra", "tango",
];

/// Three sources sharing the twenty [`WORDS`] properties; each property
/// holds one instance whose value is its own name.
fn word_dataset() -> Dataset {
    let sources: Vec<String> = (0..3).map(|i| format!("s{i}")).collect();
    let mut instances = Vec::new();
    let mut alignment = BTreeMap::new();
    for s in 0..3u16 {
        for w in WORDS {
            alignment.insert(PropertyKey::new(SourceId(s), *w), w.to_string());
            instances.push(Instance {
                source: SourceId(s),
                property: w.to_string(),
                entity: "e0".into(),
                value: w.to_string(),
            });
        }
    }
    Dataset::new("words", sources, instances, alignment).unwrap()
}

/// An embedding store covering every word in [`WORDS`].
fn word_embeddings() -> EmbeddingStore {
    let mut store = EmbeddingStore::new(8);
    for (i, w) in WORDS.iter().enumerate() {
        let v: Vec<f32> = (0..8).map(|d| 0.05 + 0.01 * (i * 8 + d) as f32).collect();
        store.insert(w, v).unwrap();
    }
    store
}

/// Fit and score the word dataset with the given store; all scores must
/// be finite.
fn fit_and_score(dataset: &Dataset, store: &PropertyFeatureStore, seed: u64) -> Vec<f32> {
    let train_sources = vec![SourceId(0), SourceId(1)];
    let mut rng = StdRng::seed_from_u64(seed);
    let train = training_pairs(dataset, &train_sources, 2, &mut rng);
    let model = Leapme::fit(store, &train, &quick_config()).unwrap();
    let all: Vec<SourceId> = (0..3).map(SourceId).collect();
    let scores = model
        .score_pairs(store, &dataset.cross_source_pairs(&all))
        .unwrap();
    for s in &scores {
        assert!(s.is_finite(), "non-finite score {s}");
    }
    scores
}

const GOOD_CSV: &str = "source,property,entity,value\n\
                        shopA,mp,e1,20 MP\n\
                        shopA,mp,e2,24 MP\n\
                        shopB,resolution,x1,20\n\
                        shopB,resolution,x2,24\n";

#[test]
fn csv_io_fault_is_a_structured_error() {
    let path = tmp("io_fault.csv");
    std::fs::write(&path, GOOD_CSV).unwrap();
    let err = with_plan("seed=1;data.csv.line:io@1.0#1", || {
        read_dataset("chaos", &path, None).unwrap_err()
    });
    assert!(err.to_string().contains("injected fault"), "{err}");
    std::fs::remove_file(path).ok();
}

#[test]
fn csv_malformed_fault_fails_strict_but_only_skips_lenient() {
    let path = tmp("malformed_fault.csv");
    std::fs::write(&path, GOOD_CSV).unwrap();
    let err = with_plan("seed=2;data.csv.row:malformed@1.0#1", || {
        read_dataset("chaos", &path, None).unwrap_err()
    });
    assert!(err.to_string().contains("injected fault"), "{err}");

    let (dataset, report) = with_plan("seed=2;data.csv.row:malformed@0.5", || {
        read_dataset_lenient("chaos", &path, None).unwrap()
    });
    assert!(report.skipped > 0, "no rows skipped: {report:?}");
    assert!(report.imported > 0, "no rows imported: {report:?}");
    assert_eq!(report.imported, dataset.instances().len());
    assert!(report.summary().contains("malformed"));
    std::fs::remove_file(path).ok();
}

#[test]
fn thirty_percent_missing_embeddings_completes_and_reports_degraded() {
    let dataset = word_dataset();
    let embeddings = word_embeddings();
    // Full coverage without faults: nothing degrades.
    let clean = PropertyFeatureStore::try_build(&dataset, &embeddings).unwrap();
    assert!(clean.degradation().is_clean());

    // 30% of embedding lookups miss: properties whose every lookup
    // missed fall back to non-embedding features, the run completes,
    // and the report names them.
    let store = with_plan("seed=9;embedding.lookup:missing-embedding@0.3", || {
        PropertyFeatureStore::try_build(&dataset, &embeddings).unwrap()
    });
    let report = store.degradation();
    assert!(!report.degraded.is_empty(), "no degraded properties");
    assert!(report.degraded.len() < report.total, "everything degraded");
    assert!(report.fraction() > 0.0 && report.fraction() < 1.0);
    assert!(report.summary().contains("degraded"));
    fit_and_score(&dataset, &store, 9);
}

#[test]
fn injected_nan_loss_recovers_in_the_full_pipeline() {
    let dataset = word_dataset();
    let store = PropertyFeatureStore::try_build(&dataset, &word_embeddings()).unwrap();
    // One poisoned epoch: the checkpoint rollback absorbs it and the
    // pipeline still produces finite scores.
    with_plan("seed=7;nn.loss:nan@1.0#1", || {
        fit_and_score(&dataset, &store, 7);
    });
}

#[test]
fn transient_feature_worker_panic_requeues() {
    let dataset = generate(Domain::Tvs, 5);
    let embeddings = EmbeddingStore::new(8);
    let serial = PropertyFeatureStore::try_build_with_threads(&dataset, &embeddings, 1).unwrap();
    let store = with_plan("seed=3;features.worker:panic@1.0#2", || {
        PropertyFeatureStore::try_build_with_threads(&dataset, &embeddings, 4).unwrap()
    });
    assert_eq!(store.len(), serial.len());
    assert_eq!(store.degradation(), serial.degradation());
    for key in dataset.properties() {
        assert_eq!(store.property_vector(&key), serial.property_vector(&key));
    }
}

#[test]
fn persistent_feature_worker_panic_is_a_structured_error() {
    let dataset = generate(Domain::Tvs, 5);
    let embeddings = EmbeddingStore::new(8);
    let err = with_plan("seed=3;features.worker:panic@1.0", || {
        match PropertyFeatureStore::try_build_with_threads(&dataset, &embeddings, 4) {
            Err(e) => e,
            Ok(_) => panic!("build unexpectedly succeeded"),
        }
    });
    match err {
        FeatureError::WorkerPanic { site, message } => {
            assert_eq!(site, "features.worker");
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other}"),
    }
}

#[test]
fn pair_worker_panic_requeues_or_errors_structurally() {
    let dataset = generate(Domain::Tvs, 5);
    let store = PropertyFeatureStore::try_build(&dataset, &EmbeddingStore::new(8)).unwrap();
    let all: Vec<SourceId> = (0..dataset.sources().len() as u16).map(SourceId).collect();
    let pairs: Vec<(PropertyKey, PropertyKey)> = dataset
        .cross_source_pairs(&all)
        .into_iter()
        .map(|PropertyPair(a, b)| (a, b))
        .collect();
    assert!(pairs.len() >= 32, "need the parallel fill path");
    let cfg = FeatureConfig::full();

    let serial = store
        .pair_matrix_flat_with_threads(&pairs, &cfg, 1)
        .unwrap();
    let requeued = with_plan("seed=4;features.pair.worker:panic@1.0#2", || {
        store.pair_matrix_flat_with_threads(&pairs, &cfg, 4).unwrap()
    });
    assert_eq!(requeued.into_parts(), serial.into_parts());

    let err = with_plan("seed=4;features.pair.worker:panic@1.0", || {
        store
            .pair_matrix_flat_with_threads(&pairs, &cfg, 4)
            .unwrap_err()
    });
    match err {
        FeatureError::WorkerPanic { site, .. } => assert_eq!(site, "features.pair.worker"),
        other => panic!("expected WorkerPanic, got {other}"),
    }
}

/// Every (site, kind) cell of the fault matrix, exercised end to end:
/// the scenario may succeed (documented degradation) or return a
/// structured error, but a panic must never unwind out of the library.
#[test]
fn full_fault_matrix_never_aborts() {
    let csv_path = tmp("matrix.csv");
    std::fs::write(&csv_path, GOOD_CSV).unwrap();
    let dataset = word_dataset();
    let embeddings = word_embeddings();

    let run_pipeline = || {
        let store = PropertyFeatureStore::try_build_with_threads(&dataset, &embeddings, 4)
            .map_err(|e| format!("build: {e}"))?;
        let train_sources = vec![SourceId(0), SourceId(1)];
        let mut rng = StdRng::seed_from_u64(13);
        let train = training_pairs(&dataset, &train_sources, 2, &mut rng);
        let model = Leapme::fit(&store, &train, &quick_config())
            .map_err(|e| format!("fit: {e}"))?;
        let all: Vec<SourceId> = (0..3).map(SourceId).collect();
        let scores = model
            .score(
                &store,
                &dataset.cross_source_pairs(&all),
                &ScoreOptions {
                    cancel: None,
                    threads: 4,
                },
            )
            .map_err(|e| format!("score: {e}"))?;
        for s in &scores {
            assert!(s.is_finite(), "non-finite score {s}");
        }
        Ok::<_, String>(())
    };

    let specs = [
        "seed=11;data.csv.line:io@0.5",
        "seed=11;data.csv.row:malformed@0.5",
        "seed=11;embedding.lookup:missing-embedding@0.5",
        "seed=11;features.instance.value:nan@0.5",
        "seed=11;features.instance.value:inf@0.5",
        "seed=11;features.instance.value:oversize@0.5",
        "seed=11;features.worker:panic@1.0",
        "seed=11;features.worker:panic@1.0#2",
        "seed=11;features.pair.worker:panic@1.0",
        "seed=11;nn.loss:nan@1.0",
        "seed=11;nn.loss:nan@1.0#1",
        "seed=11;core.score.worker:panic@1.0",
        "seed=11;core.score.worker:panic@1.0#2",
        "seed=11;core.runner.worker:panic@1.0",
    ];
    for spec in specs {
        let outcome = with_plan(spec, || {
            catch_unwind(AssertUnwindSafe(|| {
                // CSV faults are read-path faults; everything else runs
                // through the training/scoring pipeline. Both are driven
                // for every spec — inactive sites simply never fire.
                let _ = read_dataset("matrix", &csv_path, None);
                let _ = read_dataset_lenient("matrix", &csv_path, None);
                let _ = run_pipeline();
                let runner_cfg = RunnerConfig {
                    repetitions: 2,
                    threads: 2,
                    leapme: quick_config(),
                    ..RunnerConfig::default()
                };
                let store = PropertyFeatureStore::try_build_with_threads(
                    &dataset,
                    &embeddings,
                    1,
                );
                if let Ok(store) = store {
                    let _ = run_repeated(&dataset, &store, &runner_cfg);
                }
            }))
        });
        assert!(outcome.is_ok(), "panic escaped the pipeline under {spec:?}");
    }
    std::fs::remove_file(csv_path).ok();
}

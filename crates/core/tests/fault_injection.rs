//! Fault-injection tests for the core pipeline's panic isolation.
//!
//! Isolated in their own test binary because `leapme_faults::with_plan`
//! installs a process-wide plan that must not leak into the unit-test
//! suites running concurrently in another process's thread pool.
#![cfg(feature = "faults")]

use leapme_core::pipeline::{Leapme, LeapmeConfig, LeapmeModel, ScoreOptions};
use leapme_core::runner::{run_repeated, RunnerConfig};
use leapme_core::sampling;
use leapme_core::CoreError;
use leapme_data::domains::{generate, Domain};
use leapme_data::model::{Dataset, PropertyPair};
use leapme_embedding::store::EmbeddingStore;
use leapme_features::PropertyFeatureStore;
use leapme_nn::network::TrainConfig;
use leapme_nn::schedule::LrSchedule;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick_cfg() -> LeapmeConfig {
    LeapmeConfig {
        train: TrainConfig {
            schedule: LrSchedule::new(vec![(2, 1e-3)]),
            ..TrainConfig::default()
        },
        hidden: vec![8],
        ..LeapmeConfig::default()
    }
}

const FOUR_THREADS: ScoreOptions<'static> = ScoreOptions {
    cancel: None,
    threads: 4,
};

/// A trained model plus enough candidate pairs (≥ 2 × SCORE_BATCH) to
/// push multi-threaded `score` off its calling-thread fallback.
fn model_and_pairs() -> (Dataset, PropertyFeatureStore, LeapmeModel, Vec<PropertyPair>) {
    let ds = generate(Domain::Tvs, 41);
    let store = PropertyFeatureStore::build(&ds, &EmbeddingStore::new(8));
    let mut rng = StdRng::seed_from_u64(11);
    let split = sampling::split_sources(ds.sources().len(), 0.8, &mut rng).unwrap();
    let train = sampling::training_pairs(&ds, &split.train, 2, &mut rng);
    let model = Leapme::fit(&store, &train, &quick_cfg()).unwrap();
    let base = sampling::test_pairs(&ds, &split.train);
    let pairs: Vec<PropertyPair> = base.iter().cloned().cycle().take(9000).collect();
    (ds, store, model, pairs)
}

#[test]
fn transient_score_worker_panic_is_requeued() {
    let (_ds, store, model, pairs) = model_and_pairs();
    let serial = model.score_pairs(&store, &pairs).unwrap();
    // Two of four workers die; their chunks are requeued on the calling
    // thread (the #2 cap is exhausted by then) and scores stay bitwise
    // identical to the serial path.
    let scores = leapme_faults::with_plan("seed=3;core.score.worker:panic@1.0#2", || {
        model.score(&store, &pairs, &FOUR_THREADS).unwrap()
    });
    assert_eq!(scores, serial);
}

#[test]
fn persistent_score_worker_panic_is_a_structured_error() {
    let (_ds, store, model, pairs) = model_and_pairs();
    // Every attempt panics, including the requeue: the shard fails with
    // a structured error instead of aborting the process.
    let err = leapme_faults::with_plan("seed=3;core.score.worker:panic@1.0", || {
        model.score(&store, &pairs, &FOUR_THREADS).unwrap_err()
    });
    match err {
        CoreError::WorkerPanic { site, payload } => {
            assert_eq!(site, "core.score.worker");
            assert!(payload.contains("injected fault"), "payload: {payload}");
        }
        other => panic!("expected WorkerPanic, got {other}"),
    }
}

#[test]
fn transient_runner_worker_panic_is_requeued() {
    let ds = generate(Domain::Tvs, 42);
    let store = PropertyFeatureStore::build(&ds, &EmbeddingStore::new(8));
    let cfg = |threads| RunnerConfig {
        repetitions: 4,
        threads,
        leapme: quick_cfg(),
        ..RunnerConfig::default()
    };
    let (clean_summary, clean_outcomes) = run_repeated(&ds, &store, &cfg(1)).unwrap();
    let (summary, outcomes) = leapme_faults::with_plan("seed=5;core.runner.worker:panic@1.0#2", || {
        run_repeated(&ds, &store, &cfg(4)).unwrap()
    });
    assert_eq!(summary, clean_summary);
    for (a, b) in outcomes.iter().zip(&clean_outcomes) {
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.repetition, b.repetition);
    }
}

#[test]
fn persistent_runner_worker_panic_is_a_structured_error() {
    let ds = generate(Domain::Tvs, 42);
    let store = PropertyFeatureStore::build(&ds, &EmbeddingStore::new(8));
    let cfg = RunnerConfig {
        repetitions: 4,
        threads: 4,
        leapme: quick_cfg(),
        ..RunnerConfig::default()
    };
    let err = leapme_faults::with_plan("seed=5;core.runner.worker:panic@1.0", || {
        run_repeated(&ds, &store, &cfg).unwrap_err()
    });
    match err {
        CoreError::WorkerPanic { site, .. } => assert_eq!(site, "core.runner.worker"),
        other => panic!("expected WorkerPanic, got {other}"),
    }
}

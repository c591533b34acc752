//! Durability suite: the workspace-level guarantees of DESIGN.md §9.
//!
//! * A saved `.lmp` model scores bitwise identically to the in-memory
//!   model that produced it.
//! * Training interrupted mid-schedule and resumed from its checkpoint
//!   produces a model bitwise identical to an uninterrupted run.
//! * A journaled experiment replays finished repetitions on restart and
//!   aggregates to the same summary as an uninterrupted run.
//! * (With `--features faults`) torn writes, short reads, and flipped
//!   bits surface as typed checkpoint errors — a damaged file is never
//!   loaded silently.

use leapme::core::pipeline::{FitControl, Leapme, LeapmeConfig, LeapmeModel};
use leapme::core::runner::{run_repeated, run_repeated_durable, RunnerConfig};
use leapme::core::CoreError;
use leapme::nn::network::TrainConfig;
use leapme::nn::schedule::LrSchedule;
use leapme::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("leapme_durability_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A short two-stage schedule so a mid-schedule interruption crosses a
/// learning-rate boundary on resume.
fn quick_config() -> LeapmeConfig {
    LeapmeConfig {
        train: TrainConfig {
            schedule: LrSchedule::new(vec![(6, 1e-3), (2, 1e-4)]),
            ..TrainConfig::default()
        },
        hidden: vec![16],
        ..LeapmeConfig::default()
    }
}

/// Shared fixture: dataset, feature store, training pairs, and a
/// held-out candidate list.
fn fixture(seed: u64) -> (Dataset, EmbeddingStore) {
    let dataset = generate(Domain::Tvs, seed);
    let mut cfg = leapme::EmbeddingTrainingConfig::default();
    cfg.glove.dim = 8;
    cfg.glove.epochs = 2;
    let embeddings = leapme::train_domain_embeddings(&[Domain::Tvs], &cfg, seed).unwrap();
    (dataset, embeddings)
}

fn fit_and_pairs(
    dataset: &Dataset,
    store: &PropertyFeatureStore,
    opts: &FitControl<'_>,
) -> (Result<LeapmeModel, CoreError>, Vec<PropertyPair>) {
    let train_sources = vec![SourceId(0), SourceId(1), SourceId(2), SourceId(3)];
    let mut rng = StdRng::seed_from_u64(9);
    let train = training_pairs(dataset, &train_sources, 2, &mut rng);
    let test = test_pairs(dataset, &train_sources);
    (
        Leapme::fit_durable(store, &train, &quick_config(), opts),
        test,
    )
}

#[test]
fn saved_model_scores_bitwise_identically_end_to_end() {
    let (dataset, embeddings) = fixture(31);
    let store = PropertyFeatureStore::build(&dataset, &embeddings);
    let (model, test) = fit_and_pairs(&dataset, &store, &FitControl::default());
    let model = model.unwrap();

    let path = tmp("e2e_roundtrip.lmp");
    model.save(&path).unwrap();
    let loaded = LeapmeModel::load(&path).unwrap();

    let a = model.score_pairs(&store, &test).unwrap();
    let b = loaded.score_pairs(&store, &test).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits(), "scores must be bitwise equal");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn interrupted_training_resumes_bitwise_identically() {
    let (dataset, embeddings) = fixture(32);
    let store = PropertyFeatureStore::build(&dataset, &embeddings);
    let ckpt = tmp("e2e_resume.ckpt");
    let _ = std::fs::remove_file(&ckpt);

    // Uninterrupted reference run.
    let (reference, test) = fit_and_pairs(&dataset, &store, &FitControl::default());
    let reference = reference.unwrap().score_pairs(&store, &test).unwrap();

    // Cancel mid-schedule: the poll counter lets a few epochs through,
    // then flips, forcing a checkpoint-and-stop.
    let polls = AtomicUsize::new(0);
    let cancel = move || polls.fetch_add(1, Ordering::SeqCst) >= 4;
    let (cancelled, _) = fit_and_pairs(
        &dataset,
        &store,
        &FitControl {
            checkpoint_path: Some(&ckpt),
            cancel: Some(&cancel),
            ..Default::default()
        },
    );
    assert!(
        matches!(cancelled, Err(CoreError::Cancelled)),
        "expected cancellation, got {cancelled:?}"
    );
    assert!(ckpt.exists(), "cancellation must leave a checkpoint behind");

    // Resume to completion and compare scores bitwise.
    let (resumed, test) = fit_and_pairs(
        &dataset,
        &store,
        &FitControl {
            checkpoint_path: Some(&ckpt),
            resume: true,
            ..Default::default()
        },
    );
    let resumed = resumed.unwrap().score_pairs(&store, &test).unwrap();
    assert!(!ckpt.exists(), "completed run must remove its checkpoint");
    assert_eq!(reference.len(), resumed.len());
    for (x, y) in reference.iter().zip(&resumed) {
        assert_eq!(x.to_bits(), y.to_bits(), "resume must be bitwise equal");
    }
}

#[test]
fn journaled_experiment_replays_and_matches_uninterrupted_summary() {
    let (dataset, embeddings) = fixture(33);
    let store = PropertyFeatureStore::build(&dataset, &embeddings);
    let cfg = RunnerConfig {
        repetitions: 3,
        leapme: quick_config(),
        threads: 1,
        ..RunnerConfig::default()
    };
    let journal = tmp("e2e_runner.journal");
    let _ = std::fs::remove_file(&journal);

    // Uninterrupted reference (plain runner, serial).
    let (ref_summary, ref_outcomes) = run_repeated(&dataset, &store, &cfg).unwrap();

    // First durable pass journals everything; a restart replays it all
    // without recomputing and reaches the identical aggregate.
    let (first, _) = run_repeated_durable(&dataset, &store, &cfg, Some(&journal), None).unwrap();
    let (replayed, outcomes) =
        run_repeated_durable(&dataset, &store, &cfg, Some(&journal), None).unwrap();
    assert_eq!(first, replayed);
    assert_eq!(first, ref_summary);
    assert_eq!(outcomes, ref_outcomes);
    std::fs::remove_file(journal).ok();
}

#[cfg(feature = "faults")]
mod faults {
    use super::*;
    use leapme::faults::with_plan;

    #[test]
    fn torn_checkpoint_write_is_detected_and_recoverable() {
        let (dataset, embeddings) = fixture(34);
        let store = PropertyFeatureStore::build(&dataset, &embeddings);
        let (model, test) = fit_and_pairs(&dataset, &store, &FitControl::default());
        let model = model.unwrap();
        let path = tmp("faulty_torn.lmp");
        let _ = std::fs::remove_file(&path);

        // The torn write leaves half a container at the destination and
        // reports the failure; loading the wreckage is a typed error.
        with_plan("seed=1;nn.checkpoint.write:torn@1.0#1", || {
            let err = model.save(&path).unwrap_err();
            assert!(matches!(err, CoreError::Checkpoint(_)), "{err}");
            let err = LeapmeModel::load(&path).unwrap_err();
            assert!(matches!(err, CoreError::Checkpoint(_)), "{err}");
        });

        // A clean retry fully recovers: the rewritten file round-trips.
        model.save(&path).unwrap();
        let loaded = LeapmeModel::load(&path).unwrap();
        let a = model.score_pairs(&store, &test).unwrap();
        let b = loaded.score_pairs(&store, &test).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn short_read_and_bit_flip_are_typed_errors_never_silent() {
        let (dataset, embeddings) = fixture(35);
        let store = PropertyFeatureStore::build(&dataset, &embeddings);
        let (model, _) = fit_and_pairs(&dataset, &store, &FitControl::default());
        let model = model.unwrap();
        let path = tmp("faulty_read.lmp");
        model.save(&path).unwrap();

        for spec in [
            "seed=1;nn.checkpoint.read:short-read@1.0#1",
            "seed=1;nn.checkpoint.read:bit-flip@1.0#1",
            "seed=1;nn.checkpoint.read:io@1.0#1",
        ] {
            with_plan(spec, || {
                let err = LeapmeModel::load(&path).unwrap_err();
                assert!(matches!(err, CoreError::Checkpoint(_)), "{spec}: {err}");
            });
        }
        // Without an armed fault the very same file loads fine.
        LeapmeModel::load(&path).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn torn_journal_append_loses_one_record_not_the_run() {
        let (dataset, embeddings) = fixture(36);
        let store = PropertyFeatureStore::build(&dataset, &embeddings);
        let cfg = RunnerConfig {
            repetitions: 2,
            leapme: quick_config(),
            threads: 1,
            ..RunnerConfig::default()
        };
        let journal = tmp("faulty_runner.journal");
        let _ = std::fs::remove_file(&journal);

        // The first repetition's append tears mid-line; the bounded
        // retry repairs the torn tail and re-appends, so the run
        // completes as if nothing happened and the journal is clean.
        let (summary, _) = with_plan("seed=1;core.journal.append:torn@1.0#1", || {
            run_repeated_durable(&dataset, &store, &cfg, Some(&journal), None).unwrap()
        });
        let (reference, _) = run_repeated(&dataset, &store, &cfg).unwrap();
        assert_eq!(summary, reference);
        let j = leapme::core::journal::RunJournal::open(&journal).unwrap();
        assert_eq!(j.len(), 2, "both repetitions journaled, no torn tail");
        assert!(!j.truncated_tail());
        drop(j);
        std::fs::remove_file(&journal).ok();

        // A *persistent* append failure exhausts the retry budget and
        // surfaces as a typed journal error — never an infinite loop.
        let fresh = tmp("faulty_runner_exhaust.journal");
        let _ = std::fs::remove_file(&fresh);
        let err = with_plan("seed=1;core.journal.append:io@1.0", || {
            run_repeated_durable(&dataset, &store, &cfg, Some(&fresh), None).unwrap_err()
        });
        match err {
            CoreError::Journal(leapme::core::journal::JournalError::RetriesExhausted {
                attempts,
                ..
            }) => assert!(attempts >= 2, "budget actually spent: {attempts}"),
            other => panic!("expected retries-exhausted journal error, got {other}"),
        }
        std::fs::remove_file(fresh).ok();
    }
}

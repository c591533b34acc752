//! Repeated randomized evaluation (the paper's Table II protocol).
//!
//! For each cell of Table II the paper runs LEAPME 25 times with
//! different random combinations of training sources and reports average
//! P/R/F1. [`run_repeated`] implements that loop, parallelized across
//! repetitions with scoped threads (the feature store is shared
//! read-only; each repetition trains its own network).

use crate::journal::RunJournal;
use crate::metrics::{Metrics, MetricsSummary};
use crate::pipeline::{DurableFitOptions, Leapme, LeapmeConfig, ScoreOptions};
use crate::sampling;
use crate::simgraph::SimilarityGraph;
use crate::CoreError;
use leapme_data::model::Dataset;
use leapme_features::{CancelCheck, PropertyFeatureStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// How the test region is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// The paper's protocol: test on the held-out *examples* — all
    /// ground-truth positives outside the training region plus N sampled
    /// negatives per positive (N = the same 2:1 ratio as training).
    SampledExamples,
    /// Stricter: score every cross-source pair outside the training
    /// region (the candidate space is ~97% negative, so precision reads
    /// much lower; reported as a supplementary experiment).
    FullCandidateSpace,
}

/// Configuration of a repeated evaluation run.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Fraction of sources used for training (paper: 0.2 and 0.8).
    pub train_fraction: f64,
    /// Number of randomized repetitions (paper: 25).
    pub repetitions: usize,
    /// Negatives sampled per positive (paper: 2).
    pub negative_ratio: usize,
    /// Test-region evaluation mode.
    pub eval: EvalMode,
    /// The model configuration trained in every repetition.
    pub leapme: LeapmeConfig,
    /// Base seed; repetition `r` derives its own seeds from it.
    pub base_seed: u64,
    /// Worker threads (`0` = one per available core).
    pub threads: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            train_fraction: 0.8,
            repetitions: 5,
            negative_ratio: 2,
            eval: EvalMode::SampledExamples,
            leapme: LeapmeConfig::default(),
            base_seed: 0xAB1E,
            threads: 0,
        }
    }
}

/// Result of one repetition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Zero-based repetition index.
    pub repetition: usize,
    /// Match-quality metrics on the test region.
    pub metrics: Metrics,
    /// Number of labeled training pairs used.
    pub train_pairs: usize,
    /// Number of test candidate pairs scored.
    pub test_pairs: usize,
}

/// Seed used by repetition `repetition` of a run with `base_seed`.
///
/// Public so that baseline evaluations can reuse the *same* random source
/// splits as the LEAPME runs they are compared against.
pub fn repetition_seed(base_seed: u64, repetition: usize) -> u64 {
    base_seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(repetition as u64)
}

/// One repetition: split sources, sample training pairs, fit, evaluate.
pub fn run_once(
    dataset: &Dataset,
    store: &PropertyFeatureStore,
    cfg: &RunnerConfig,
    repetition: usize,
) -> Result<RunOutcome, CoreError> {
    run_once_cancellable(dataset, store, cfg, repetition, None)
}

/// [`run_once`] with cooperative cancellation threaded into the fit
/// (per-epoch polls) and the scoring pass (per-block polls). With
/// `cancel: None` the outcome is identical to [`run_once`].
pub fn run_once_cancellable(
    dataset: &Dataset,
    store: &PropertyFeatureStore,
    cfg: &RunnerConfig,
    repetition: usize,
    cancel: CancelCheck<'_>,
) -> Result<RunOutcome, CoreError> {
    let seed = repetition_seed(cfg.base_seed, repetition);
    let mut rng = StdRng::seed_from_u64(seed);

    let split = sampling::split_sources(dataset.sources().len(), cfg.train_fraction, &mut rng)?;
    let train = sampling::training_pairs(dataset, &split.train, cfg.negative_ratio, &mut rng);
    if train.iter().filter(|(_, y)| *y).count() == 0 {
        // A degenerate split with no positive pairs can happen on tiny
        // datasets; report it as empty metrics rather than failing.
        return Ok(RunOutcome {
            repetition,
            metrics: Metrics::from_counts(0, 0, sampling::test_ground_truth(dataset, &split.train).len()),
            train_pairs: 0,
            test_pairs: 0,
        });
    }

    let mut leapme_cfg = cfg.leapme.clone();
    leapme_cfg.seed = seed ^ 0x5EED;
    leapme_cfg.train.shuffle_seed = seed ^ 0x5F1E;
    let model = Leapme::fit_durable(
        store,
        &train,
        &leapme_cfg,
        &DurableFitOptions {
            cancel,
            ..DurableFitOptions::default()
        },
    )?;

    let (test, gt) = match cfg.eval {
        EvalMode::SampledExamples => {
            let examples =
                sampling::test_examples(dataset, &split.train, cfg.negative_ratio, &mut rng);
            let gt = examples
                .iter()
                .filter(|(_, y)| *y)
                .map(|(p, _)| p.clone())
                .collect();
            let pairs = examples.into_iter().map(|(p, _)| p).collect::<Vec<_>>();
            (pairs, gt)
        }
        EvalMode::FullCandidateSpace => (
            sampling::test_pairs(dataset, &split.train),
            sampling::test_ground_truth(dataset, &split.train),
        ),
    };
    let scores = model.score(store, &test, &ScoreOptions { cancel, threads: 1 })?;
    let graph: SimilarityGraph = test.iter().cloned().zip(scores).collect();
    let metrics = Metrics::from_sets(&graph.matches(leapme_cfg.threshold), &gt);

    Ok(RunOutcome {
        repetition,
        metrics,
        train_pairs: train.len(),
        test_pairs: test.len(),
    })
}

/// Run all repetitions (in parallel) and aggregate.
pub fn run_repeated(
    dataset: &Dataset,
    store: &PropertyFeatureStore,
    cfg: &RunnerConfig,
) -> Result<(MetricsSummary, Vec<RunOutcome>), CoreError> {
    if cfg.repetitions == 0 {
        return Err(CoreError::InvalidSplit("zero repetitions".into()));
    }
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        cfg.threads
    }
    .min(cfg.repetitions);

    let mut outcomes: Vec<Result<RunOutcome, CoreError>> = Vec::with_capacity(cfg.repetitions);
    if threads <= 1 {
        for r in 0..cfg.repetitions {
            outcomes.push(run_once(dataset, store, cfg, r));
        }
    } else {
        let reps: Vec<usize> = (0..cfg.repetitions).collect();
        let chunks: Vec<&[usize]> = reps.chunks(cfg.repetitions.div_ceil(threads)).collect();
        let run_chunk = |chunk: &[usize]| {
            #[cfg(feature = "faults")]
            leapme_faults::maybe_panic(leapme_faults::sites::RUNNER_WORKER);
            chunk
                .iter()
                .map(|&r| (r, run_once(dataset, store, cfg, r)))
                .collect::<Vec<_>>()
        };
        type ChunkResult = Vec<(usize, Result<RunOutcome, CoreError>)>;
        // A panicking worker loses only its own chunk of repetitions:
        // the chunk is requeued once on the calling thread, and a second
        // panic fails those repetitions with a structured error instead
        // of aborting the process.
        let mut results: Vec<Option<ChunkResult>> = Vec::new();
        let mut failed: Vec<usize> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| scope.spawn(move || run_chunk(chunk)))
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(r) => results.push(Some(r)),
                    Err(_) => {
                        results.push(None);
                        failed.push(i);
                    }
                }
            }
        });
        for i in failed {
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_chunk(chunks[i])));
            results[i] = Some(outcome.unwrap_or_else(|payload| {
                let payload = leapme_features::vectorizer::panic_message(payload.as_ref());
                chunks[i]
                    .iter()
                    .map(|&r| {
                        (
                            r,
                            Err(CoreError::WorkerPanic {
                                site: "core.runner.worker".into(),
                                payload: payload.clone(),
                            }),
                        )
                    })
                    .collect()
            }));
        }
        let mut flat: Vec<(usize, Result<RunOutcome, CoreError>)> = results
            .into_iter()
            .flat_map(|r| r.expect("every chunk resolved"))
            .collect();
        flat.sort_by_key(|(r, _)| *r);
        outcomes.extend(flat.into_iter().map(|(_, o)| o));
    }

    let mut ok = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        ok.push(o?);
    }
    let metrics: Vec<Metrics> = ok.iter().map(|o| o.metrics).collect();
    let summary = MetricsSummary::aggregate(&metrics).expect("non-empty repetitions");
    Ok((summary, ok))
}

/// Durable [`run_repeated`]: repetitions completed before a crash or
/// cancellation are replayed from the journal at `journal_path` instead
/// of being recomputed, and the cancellation check is polled between
/// repetitions (plus per-epoch and per-scoring-block inside each one).
///
/// Each finished repetition is appended to the journal and fsynced
/// before the next one starts, so after a kill the journal holds exactly
/// the completed work (modulo one torn trailing record, which
/// [`RunJournal::open`] truncates away). Repetitions are seeded
/// independently by [`repetition_seed`], so the journaled-then-resumed
/// outcomes equal an uninterrupted run's exactly.
///
/// Runs repetitions serially; for maximum throughput without durability
/// use [`run_repeated`].
pub fn run_repeated_durable(
    dataset: &Dataset,
    store: &PropertyFeatureStore,
    cfg: &RunnerConfig,
    journal_path: Option<&Path>,
    cancel: CancelCheck<'_>,
) -> Result<(MetricsSummary, Vec<RunOutcome>), CoreError> {
    if cfg.repetitions == 0 {
        return Err(CoreError::InvalidSplit("zero repetitions".into()));
    }
    let journal = journal_path.map(RunJournal::open).transpose()?;
    let mut done: std::collections::BTreeMap<usize, RunOutcome> = std::collections::BTreeMap::new();
    if let Some(j) = &journal {
        for rec in j.replayed::<RunOutcome>()? {
            if rec.repetition < cfg.repetitions {
                done.insert(rec.repetition, rec);
            }
        }
    }
    for r in 0..cfg.repetitions {
        if done.contains_key(&r) {
            continue;
        }
        if cancel.is_some_and(|c| c()) {
            return Err(CoreError::Cancelled);
        }
        let outcome = run_once_cancellable(dataset, store, cfg, r, cancel)?;
        if let Some(j) = &journal {
            // Bounded retry: a transient append failure (disk hiccup,
            // injected torn write) costs one repaired re-append, not
            // the whole repetition's work.
            j.append_retrying(&outcome, &crate::retry::RetryPolicy::default())?;
        }
        done.insert(r, outcome);
    }
    let ok: Vec<RunOutcome> = done.into_values().collect();
    let metrics: Vec<Metrics> = ok.iter().map(|o| o.metrics).collect();
    let summary = MetricsSummary::aggregate(&metrics).expect("non-empty repetitions");
    Ok((summary, ok))
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

    fn embeddings(domain: Domain) -> EmbeddingStore {
        let corpus = generate_corpus(
            &domain.spec(),
            &CorpusConfig {
                sentences_per_synonym: 6,
                filler_sentences: 30,
            },
            17,
        );
        let vocab = Vocab::build(corpus.iter().flatten().map(String::as_str), 2);
        let cooc = CooccurrenceMatrix::from_sentences(&vocab, &corpus, 5);
        glove_train(
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

    fn quick_cfg(reps: usize) -> RunnerConfig {
        RunnerConfig {
            repetitions: reps,
            leapme: LeapmeConfig {
                train: TrainConfig {
                    schedule: LrSchedule::new(vec![(5, 1e-3)]),
                    ..TrainConfig::default()
                },
                hidden: vec![16],
                ..LeapmeConfig::default()
            },
            ..RunnerConfig::default()
        }
    }

    #[test]
    fn repeated_run_aggregates() {
        let ds = generate(Domain::Tvs, 31);
        let store = PropertyFeatureStore::build(&ds, &embeddings(Domain::Tvs));
        let (summary, outcomes) = run_repeated(&ds, &store, &quick_cfg(3)).unwrap();
        assert_eq!(summary.runs, 3);
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes.iter().all(|o| o.test_pairs > 0));
        assert!(summary.f1_mean > 0.0, "{summary:?}");
    }

    #[test]
    fn parallel_matches_serial() {
        let ds = generate(Domain::Tvs, 32);
        let store = PropertyFeatureStore::build(&ds, &embeddings(Domain::Tvs));
        let mut serial_cfg = quick_cfg(3);
        serial_cfg.threads = 1;
        let mut parallel_cfg = quick_cfg(3);
        parallel_cfg.threads = 3;
        let (s1, o1) = run_repeated(&ds, &store, &serial_cfg).unwrap();
        let (s2, o2) = run_repeated(&ds, &store, &parallel_cfg).unwrap();
        assert_eq!(s1, s2);
        for (a, b) in o1.iter().zip(&o2) {
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.repetition, b.repetition);
        }
    }

    #[test]
    fn different_repetitions_use_different_splits() {
        let ds = generate(Domain::Tvs, 33);
        let store = PropertyFeatureStore::build(&ds, &embeddings(Domain::Tvs));
        let (_, outcomes) = run_repeated(&ds, &store, &quick_cfg(4)).unwrap();
        // Train-pair counts should vary across random splits (with high
        // probability on imbalanced data).
        let counts: std::collections::HashSet<usize> =
            outcomes.iter().map(|o| o.train_pairs).collect();
        assert!(counts.len() > 1, "all splits identical: {counts:?}");
    }

    #[test]
    fn zero_repetitions_rejected() {
        let ds = generate(Domain::Tvs, 34);
        let store = PropertyFeatureStore::build(&ds, &EmbeddingStore::new(4));
        let mut cfg = quick_cfg(1);
        cfg.repetitions = 0;
        assert!(run_repeated(&ds, &store, &cfg).is_err());
        assert!(run_repeated_durable(&ds, &store, &cfg, None, None).is_err());
    }

    fn journal_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("leapme-runner-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("run.journal")
    }

    #[test]
    fn durable_run_without_journal_matches_plain() {
        let ds = generate(Domain::Tvs, 35);
        let store = PropertyFeatureStore::build(&ds, &embeddings(Domain::Tvs));
        let mut cfg = quick_cfg(3);
        cfg.threads = 1;
        let (s1, o1) = run_repeated(&ds, &store, &cfg).unwrap();
        let (s2, o2) = run_repeated_durable(&ds, &store, &cfg, None, None).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn journaled_repetitions_are_skipped_on_restart() {
        let ds = generate(Domain::Tvs, 36);
        let store = PropertyFeatureStore::build(&ds, &embeddings(Domain::Tvs));
        let path = journal_path("skip");
        let _ = std::fs::remove_file(&path);

        // First run completes 2 repetitions and journals them.
        let (_, first) =
            run_repeated_durable(&ds, &store, &quick_cfg(2), Some(&path), None).unwrap();
        assert_eq!(first.len(), 2);

        // Second run asks for 4: the journaled 2 are replayed verbatim,
        // only repetitions 2 and 3 execute.
        let (_, all) = run_repeated_durable(&ds, &store, &quick_cfg(4), Some(&path), None).unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(&all[..2], &first[..]);
        // And the whole thing equals an uninterrupted durable run.
        let fresh = journal_path("skip-fresh");
        let _ = std::fs::remove_file(&fresh);
        let (_, uninterrupted) =
            run_repeated_durable(&ds, &store, &quick_cfg(4), Some(&fresh), None).unwrap();
        assert_eq!(all, uninterrupted);
    }

    #[test]
    fn cancelled_run_resumes_from_journal() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let ds = generate(Domain::Tvs, 37);
        let store = PropertyFeatureStore::build(&ds, &embeddings(Domain::Tvs));
        let path = journal_path("cancel");
        let _ = std::fs::remove_file(&path);

        // Cancel as soon as the first repetition has been journaled: the
        // journal flips the flag from a thread watching the file.
        let path_clone = path.clone();
        let flag = AtomicBool::new(false);
        let cancel = || {
            if !flag.load(Ordering::SeqCst)
                && std::fs::metadata(&path_clone).map(|m| m.len()).unwrap_or(0) > 0
            {
                flag.store(true, Ordering::SeqCst);
            }
            flag.load(Ordering::SeqCst)
        };
        let err = run_repeated_durable(&ds, &store, &quick_cfg(3), Some(&path), Some(&cancel))
            .unwrap_err();
        assert!(matches!(err, CoreError::Cancelled), "{err}");
        let j = crate::journal::RunJournal::open(&path).unwrap();
        let done = j.len();
        assert!((1..3).contains(&done), "journaled {done} of 3");
        drop(j);

        // Resume without cancellation and compare to a fresh run.
        let (s1, o1) = run_repeated_durable(&ds, &store, &quick_cfg(3), Some(&path), None).unwrap();
        let fresh = journal_path("cancel-fresh");
        let _ = std::fs::remove_file(&fresh);
        let (s2, o2) =
            run_repeated_durable(&ds, &store, &quick_cfg(3), Some(&fresh), None).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn immediate_cancellation_short_circuits() {
        let ds = generate(Domain::Tvs, 38);
        let store = PropertyFeatureStore::build(&ds, &EmbeddingStore::new(4));
        let cancel = || true;
        let err =
            run_repeated_durable(&ds, &store, &quick_cfg(2), None, Some(&cancel)).unwrap_err();
        assert!(matches!(err, CoreError::Cancelled));
    }
}

//! `leapme match` — train LEAPME on part of a dataset (or load a
//! previously trained `.lmp` model) and score pairs into a similarity
//! graph.
//!
//! Candidate generation has two regimes (DESIGN.md §12):
//!
//! * default / `--blocking token|embedding` — enumerate the quadratic
//!   cross-source pair space (optionally pruned by a full-scan blocker);
//! * `--blocking ann|lsh|combined` — never enumerate: top-k retrieval
//!   per property from an HNSW graph over embedding vectors, a banded
//!   name-LSH index, or the union of both.
//!
//! `--stress N` swaps the dataset/embedding files for the in-memory
//! stress generator at N properties — the 100k–1M scale where the
//! index-backed modes are the only ones that finish.

use super::{cancel_token, load_dataset, pipeline_err, to_json, to_json_pretty};
use crate::args::Flags;
use crate::CliError;
use leapme::core::blocking::{
    self, AnnBlocker, EmbeddingBlocker, LshBlocker, RetrievalMode, TokenBlocker,
};
use leapme::core::feature_cache;
use leapme::core::pipeline::{Leapme, LeapmeConfig, LeapmeModel, ScoreOptions};
use leapme::core::sampling;
use leapme::core::simgraph::SimilarityGraph;
use leapme::data::io::atomic_write;
use leapme::data::model::{PropertyPair, SourceId};
use leapme::data::stress::{generate_stress_dataset, StressConfig};
use leapme::embedding::store::EmbeddingStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::path::Path;

/// Flags this command reads; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &[
    "blocking",
    "blocking-k",
    "dataset",
    "embeddings",
    "feature-cache",
    "fuzzy-oov",
    "model",
    "out",
    "save-model",
    "seed",
    "stress",
    "stress-dim",
    "stress-seed",
    "threshold",
    "timeout-secs",
    "train-fraction",
    "train-sources",
];

/// Run the command.
pub fn run(flags: &Flags) -> Result<String, CliError> {
    let blocking_mode = flags.get("blocking");
    let index_blocking = matches!(blocking_mode, Some("ann" | "lsh" | "combined"));

    let (dataset, mut embeddings) = match flags.get("stress") {
        Some(spec) => {
            let n: usize = spec
                .parse()
                .map_err(|_| CliError::Usage(format!("bad --stress property count {spec:?}")))?;
            if n == 0 {
                return Err(CliError::Usage("--stress needs at least one property".into()));
            }
            if !index_blocking {
                return Err(CliError::Usage(
                    "--stress datasets are index-scale; enumerating their quadratic pair \
                     space is off the table, so pass --blocking ann, lsh or combined"
                        .into(),
                ));
            }
            let stress_seed: u64 = flags.get_or("stress-seed", 7u64)?;
            let dim: usize = flags.get_or("stress-dim", 24usize)?;
            let cfg = StressConfig::new(n, stress_seed);
            let dataset = generate_stress_dataset(&cfg);
            let store = leapme::stress_embedding_store(&cfg, dim, stress_seed ^ 0xE5);
            (dataset, store)
        }
        None => {
            let dataset = load_dataset(flags.require("dataset")?)?;
            let emb_path = flags.require("embeddings")?;
            let embeddings = EmbeddingStore::load_text(Path::new(emb_path))
                .map_err(|e| CliError::Parse(format!("{emb_path}: {e}")))?;
            (dataset, embeddings)
        }
    };
    embeddings.set_fuzzy_oov(flags.get_or("fuzzy-oov", 1u8)? != 0);

    let seed: u64 = flags.get_or("seed", 42)?;
    let threshold: f32 = flags.get_or("threshold", 0.5)?;
    let out = flags.require("out")?;
    let token = cancel_token(flags)?;
    let check = token.checker();
    const NOTHING_SAVED: &str = "no partial output written";

    let mut rng = StdRng::seed_from_u64(seed);
    // A pretrained `.lmp` model skips the training half entirely and
    // scores every cross-source pair; otherwise train on part of the
    // dataset and score only the held-out pairs.
    let pretrained = flags.get("model");
    let train_sources: Vec<SourceId> = if pretrained.is_some() {
        Vec::new()
    } else {
        // Training sources: explicit list wins over a fraction.
        let train_sources: Vec<SourceId> = match flags.get("train-sources") {
            Some(spec) => spec
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.trim()
                        .parse::<u16>()
                        .map(SourceId)
                        .map_err(|_| CliError::Usage(format!("bad source id {s:?}")))
                })
                .collect::<Result<_, _>>()?,
            None => {
                if flags.get("stress").is_some() {
                    // A train *fraction* of a stress dataset means
                    // thousands of training sources and a quadratic
                    // within-train pair enumeration — refuse up front.
                    return Err(CliError::Usage(
                        "stress mode needs an explicit small --train-sources list \
                         (e.g. 0,1,2,3) or a pretrained --model"
                            .into(),
                    ));
                }
                let fraction: f64 = flags.get_or("train-fraction", 0.8)?;
                sampling::split_sources(dataset.sources().len(), fraction, &mut rng)
                    .map_err(|e| CliError::Pipeline(e.to_string()))?
                    .train
            }
        };
        if train_sources.len() < 2 {
            return Err(CliError::Usage(
                "need at least two training sources".into(),
            ));
        }
        train_sources
    };

    let (store, cache_status) = feature_cache::load_or_build(
        flags.get("feature-cache").map(Path::new),
        &dataset,
        &embeddings,
        leapme::features::worker_threads(),
        Some(&check),
    )
    .map_err(|e| pipeline_err(e, NOTHING_SAVED))?;
    // Degraded-mode report: properties without embedding signal are
    // still scored on the 29 non-embedding features, but the user
    // should know their run is degraded (DESIGN.md §8).
    let mut warnings = String::new();
    warnings.push_str(&cache_status.describe(store.len()));
    if !store.degradation().is_clean() {
        warnings.push_str(&format!("warning: {}\n", store.degradation().summary()));
    }
    let sanitize = store.sanitize_stats();
    if !sanitize.is_clean() {
        warnings.push_str(&format!(
            "warning: repaired {} non-finite and clamped {} oversized feature values\n",
            sanitize.nonfinite, sanitize.clamped
        ));
    }

    let (model, train_len) = match pretrained {
        Some(model_path) => {
            // Dataset compatibility (feature dimension) is validated by
            // the model itself before any pair is scored.
            let (model, open_path) = LeapmeModel::load_with_report(Path::new(model_path))
                .map_err(|e| CliError::Pipeline(e.to_string()))?;
            // mmap / read (v2 zero-copy) or legacy-v1 (full parse) —
            // the verify drill greps this to pin the fast path.
            eprintln!("loaded {model_path} open={}", open_path.label());
            (model, 0)
        }
        None => {
            let train = sampling::training_pairs(&dataset, &train_sources, 2, &mut rng);
            if train.is_empty() {
                return Err(CliError::Pipeline(
                    "no labeled pairs within the chosen training sources".into(),
                ));
            }
            let cfg = LeapmeConfig {
                threshold,
                seed,
                ..LeapmeConfig::default()
            };
            let opts = leapme::core::pipeline::DurableFitOptions {
                cancel: Some(&check),
                ..Default::default()
            };
            let model = Leapme::fit_durable(&store, &train, &cfg, &opts)
                .map_err(|e| pipeline_err(e, NOTHING_SAVED))?;
            let len = train.len();
            (model, len)
        }
    };

    let mut candidates: Vec<PropertyPair>;
    if let Some(mode @ ("ann" | "lsh" | "combined")) = blocking_mode {
        // Index-backed retrieval: the quadratic pair space is never
        // enumerated. Candidates come back as a sorted flat Vec from
        // top-k queries against the HNSW graph and/or name-LSH bands.
        let k: usize = flags.get_or("blocking-k", AnnBlocker::default().k)?;
        let rmode = match mode {
            "ann" => RetrievalMode::Ann,
            "lsh" => RetrievalMode::Lsh,
            _ => RetrievalMode::Both,
        };
        let ann = AnnBlocker {
            k,
            ..AnnBlocker::default()
        };
        let lsh = LshBlocker {
            k,
            ..LshBlocker::default()
        };
        candidates =
            blocking::retrieval_candidates(&dataset, &embeddings, rmode, &ann, &lsh, Some(&check))
                .map_err(|e| pipeline_err(e, NOTHING_SAVED))?;
        let stats = blocking::evaluate_blocking_sorted(&dataset, &candidates);
        let retrieved = candidates.len();
        if !train_sources.is_empty() {
            // Same held-out semantics as `sampling::test_pairs`: drop
            // candidates that live entirely inside the training sources.
            let train_set: BTreeSet<SourceId> = train_sources.iter().copied().collect();
            candidates.retain(|PropertyPair(a, b)| {
                !(train_set.contains(&a.source) && train_set.contains(&b.source))
            });
        }
        warnings.push_str(&format!(
            "blocking({mode}): scoring {} of {retrieved} retrieved pairs, \
             full space {} (reduction {:.1}%, pair completeness {:.3})\n",
            candidates.len(),
            stats.full_space,
            100.0 * stats.reduction_ratio,
            stats.pair_completeness,
        ));
    } else {
        candidates = sampling::test_pairs(&dataset, &train_sources);
        // Optional full-scan blocking: prune the enumerated pair space
        // before scoring, reporting completeness/reduction so a
        // too-aggressive blocker is visible rather than silently
        // dropping true matches.
        if let Some(mode) = blocking_mode {
            let k: usize = flags.get_or("blocking-k", EmbeddingBlocker::default().k)?;
            let keep: BTreeSet<PropertyPair> = match mode {
                "token" => TokenBlocker::default().candidates(&dataset),
                "embedding" => EmbeddingBlocker { k }.candidates(&dataset, &embeddings),
                other => {
                    return Err(CliError::Usage(format!(
                        "--blocking must be token, embedding, ann, lsh or combined \
                         (got {other:?})"
                    )))
                }
            };
            let stats = blocking::evaluate_blocking(&dataset, &keep);
            let before = candidates.len();
            candidates.retain(|p| keep.contains(p));
            warnings.push_str(&format!(
                "blocking({mode}): scoring {} of {before} test pairs \
                 (reduction {:.1}%, pair completeness {:.3})\n",
                candidates.len(),
                100.0 * stats.reduction_ratio,
                stats.pair_completeness,
            ));
        }
    }
    let opts = ScoreOptions {
        cancel: Some(&check),
        threads: 1,
    };
    let scores = model
        .score(&store, &candidates, &opts)
        .map_err(|e| pipeline_err(e, NOTHING_SAVED))?;
    let graph: SimilarityGraph = candidates.into_iter().zip(scores).collect();
    atomic_write(
        Path::new(out),
        to_json_pretty(&graph, "similarity graph")?.as_bytes(),
    )?;

    if let Some(model_path) = flags.get("save-model") {
        atomic_write(Path::new(model_path), to_json(&model, "model")?.as_bytes())?;
    }

    let provenance = if train_sources.is_empty() {
        "pretrained model, all cross-source pairs".to_string()
    } else {
        format!(
            "{train_len} training pairs from {} sources",
            train_sources.len()
        )
    };
    Ok(format!(
        "{warnings}wrote {out}: {} scored pairs, {} matches at threshold {threshold} ({provenance})",
        graph.len(),
        graph.matches(threshold).len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapme::data::domains::{generate, Domain};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("leapme_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Build the shared fixture once per test process: a dataset file
    /// and an embedding file. Tests run on parallel threads, so writing
    /// the files per test would let one test read a file another is
    /// rewriting.
    fn fixture() -> (std::path::PathBuf, std::path::PathBuf) {
        static FIXTURE: std::sync::OnceLock<(std::path::PathBuf, std::path::PathBuf)> =
            std::sync::OnceLock::new();
        FIXTURE
            .get_or_init(|| {
                let ds_path = tmp("match_ds.json");
                std::fs::write(&ds_path, generate(Domain::Tvs, 2).to_json()).unwrap();
                let emb_path = tmp("match_emb.txt");
                // Quick low-dim embeddings to keep the test fast.
                crate::commands::embed::run(&Flags::from_pairs(&[
                    ("domains", "tvs"),
                    ("dim", "8"),
                    ("epochs", "2"),
                    ("out", emb_path.to_str().unwrap()),
                ]))
                .unwrap();
                (ds_path, emb_path)
            })
            .clone()
    }

    #[test]
    fn match_produces_similarity_graph() {
        let (ds, emb) = fixture();
        let graph_path = tmp("match_graph.json");
        let model_path = tmp("match_model.json");
        let msg = run(&Flags::from_pairs(&[
            ("dataset", ds.to_str().unwrap()),
            ("embeddings", emb.to_str().unwrap()),
            ("train-fraction", "0.8"),
            ("out", graph_path.to_str().unwrap()),
            ("save-model", model_path.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(msg.contains("scored pairs"));
        let graph: SimilarityGraph =
            serde_json::from_str(&std::fs::read_to_string(&graph_path).unwrap()).unwrap();
        assert!(!graph.is_empty());
        assert!(model_path.exists());
        for p in [graph_path, model_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn explicit_train_sources() {
        let (ds, emb) = fixture();
        let graph_path = tmp("match_graph2.json");
        let msg = run(&Flags::from_pairs(&[
            ("dataset", ds.to_str().unwrap()),
            ("embeddings", emb.to_str().unwrap()),
            ("train-sources", "0,1,2,3,4,5"),
            ("out", graph_path.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(msg.contains("6 sources"));
        std::fs::remove_file(graph_path).ok();
    }

    #[test]
    fn degraded_embeddings_warn_but_still_match() {
        let (ds, _emb) = fixture();
        // An embedding vocabulary that resolves nothing: every property
        // falls back to the non-embedding features, and the run reports it.
        let emb_path = tmp("match_emb_useless.txt");
        std::fs::write(&emb_path, "qqqq 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8\n").unwrap();
        let graph_path = tmp("match_graph_degraded.json");
        let msg = run(&Flags::from_pairs(&[
            ("dataset", ds.to_str().unwrap()),
            ("embeddings", emb_path.to_str().unwrap()),
            ("fuzzy-oov", "0"),
            ("out", graph_path.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(msg.contains("degraded"), "{msg}");
        assert!(msg.contains("scored pairs"), "{msg}");
        for p in [emb_path, graph_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn pretrained_model_scores_all_cross_source_pairs() {
        let (ds, emb) = fixture();
        let model_path = tmp("match_pretrained.lmp");
        crate::commands::train::run(&Flags::from_pairs(&[
            ("dataset", ds.to_str().unwrap()),
            ("embeddings", emb.to_str().unwrap()),
            ("save", model_path.to_str().unwrap()),
        ]))
        .unwrap();
        let graph_path = tmp("match_graph_pretrained.json");
        let msg = run(&Flags::from_pairs(&[
            ("dataset", ds.to_str().unwrap()),
            ("embeddings", emb.to_str().unwrap()),
            ("model", model_path.to_str().unwrap()),
            ("out", graph_path.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(msg.contains("pretrained model"), "{msg}");
        let graph: SimilarityGraph =
            serde_json::from_str(&std::fs::read_to_string(&graph_path).unwrap()).unwrap();
        // With no sources held out for training, the pretrained path
        // scores strictly more pairs than any train/test split could.
        assert!(!graph.is_empty());
        for p in [graph_path, model_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn corrupt_model_file_is_reported_not_scored() {
        let (ds, emb) = fixture();
        let model_path = tmp("match_corrupt.lmp");
        std::fs::write(&model_path, b"LEAPMECPgarbage").unwrap();
        let err = run(&Flags::from_pairs(&[
            ("dataset", ds.to_str().unwrap()),
            ("embeddings", emb.to_str().unwrap()),
            ("model", model_path.to_str().unwrap()),
            ("out", tmp("unused_graph.json").to_str().unwrap()),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Pipeline(_)), "{err}");
        assert!(err.to_string().contains("checkpoint"), "{err}");
        std::fs::remove_file(model_path).ok();
    }

    #[test]
    fn timeout_zero_exits_cancelled_without_output() {
        let (ds, emb) = fixture();
        let graph_path = tmp("match_never.json");
        let _ = std::fs::remove_file(&graph_path);
        let err = run(&Flags::from_pairs(&[
            ("dataset", ds.to_str().unwrap()),
            ("embeddings", emb.to_str().unwrap()),
            ("out", graph_path.to_str().unwrap()),
            ("timeout-secs", "0"),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Cancelled(_)), "{err}");
        assert_eq!(err.exit_code(), 3);
        assert!(!graph_path.exists(), "no partial graph on cancellation");
    }

    #[test]
    fn feature_cache_round_trip_is_byte_identical_and_heals() {
        let (ds, emb) = fixture();
        let cache_path = tmp("match_feature_cache.lfc");
        let _ = std::fs::remove_file(&cache_path);
        let graph_a = tmp("match_graph_cache_a.json");
        let graph_b = tmp("match_graph_cache_b.json");
        let base = [
            ("dataset", ds.to_str().unwrap().to_string()),
            ("embeddings", emb.to_str().unwrap().to_string()),
            ("train-sources", "0,1,2,3,4,5".to_string()),
            ("feature-cache", cache_path.to_str().unwrap().to_string()),
        ];
        let run_to = |graph: &std::path::Path| {
            let mut pairs: Vec<(&str, &str)> =
                base.iter().map(|(k, v)| (*k, v.as_str())).collect();
            let g = graph.to_str().unwrap();
            pairs.push(("out", g));
            run(&Flags::from_pairs(&pairs)).unwrap()
        };

        let cold = run_to(&graph_a);
        assert!(cold.contains("feature cache rebuilt"), "{cold}");
        assert!(cache_path.exists());
        let warm = run_to(&graph_b);
        assert!(warm.contains("feature cache hit"), "{warm}");
        assert_eq!(
            std::fs::read(&graph_a).unwrap(),
            std::fs::read(&graph_b).unwrap(),
            "cached features must score byte-identically"
        );

        // A damaged cache degrades to a clean rebuild, not a failure.
        let mut bytes = std::fs::read(&cache_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&cache_path, &bytes).unwrap();
        let healed = run_to(&graph_b);
        assert!(healed.contains("feature cache rebuilt"), "{healed}");
        assert_eq!(
            std::fs::read(&graph_a).unwrap(),
            std::fs::read(&graph_b).unwrap()
        );
        for p in [graph_a, graph_b, cache_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn blocking_prunes_candidates_and_reports_stats() {
        let (ds, emb) = fixture();
        let graph_path = tmp("match_graph_blocking.json");
        let msg = run(&Flags::from_pairs(&[
            ("dataset", ds.to_str().unwrap()),
            ("embeddings", emb.to_str().unwrap()),
            ("train-sources", "0,1,2,3,4,5"),
            ("blocking", "combined"),
            ("blocking-k", "5"),
            ("out", graph_path.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(msg.contains("blocking(combined): scoring"), "{msg}");
        assert!(msg.contains("pair completeness"), "{msg}");
        assert!(msg.contains("scored pairs"), "{msg}");
        std::fs::remove_file(graph_path).ok();
    }

    #[test]
    fn ann_blocking_retrieves_and_scores() {
        let (ds, emb) = fixture();
        let graph_path = tmp("match_graph_ann.json");
        let msg = run(&Flags::from_pairs(&[
            ("dataset", ds.to_str().unwrap()),
            ("embeddings", emb.to_str().unwrap()),
            ("train-sources", "0,1,2,3,4,5"),
            ("blocking", "ann"),
            ("blocking-k", "5"),
            ("out", graph_path.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(msg.contains("blocking(ann): scoring"), "{msg}");
        assert!(msg.contains("pair completeness"), "{msg}");
        let graph: SimilarityGraph =
            serde_json::from_str(&std::fs::read_to_string(&graph_path).unwrap()).unwrap();
        assert!(!graph.is_empty());
        std::fs::remove_file(graph_path).ok();
    }

    #[test]
    fn stress_mode_runs_end_to_end_with_index_blocking() {
        let graph_path = tmp("match_graph_stress.json");
        let msg = run(&Flags::from_pairs(&[
            ("stress", "400"),
            ("blocking", "combined"),
            ("blocking-k", "6"),
            ("train-sources", "0,1,2,3"),
            ("out", graph_path.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(msg.contains("blocking(combined): scoring"), "{msg}");
        assert!(msg.contains("scored pairs"), "{msg}");
        let graph: SimilarityGraph =
            serde_json::from_str(&std::fs::read_to_string(&graph_path).unwrap()).unwrap();
        assert!(!graph.is_empty());
        std::fs::remove_file(graph_path).ok();
    }

    #[test]
    fn stress_mode_requires_index_blocking_and_explicit_sources() {
        // No blocking mode at all: the quadratic space is refused.
        let err = run(&Flags::from_pairs(&[
            ("stress", "400"),
            ("out", "unused.json"),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("--blocking"), "{err}");

        // A full-scan blocker is still quadratic: refused too.
        let err = run(&Flags::from_pairs(&[
            ("stress", "400"),
            ("blocking", "token"),
            ("out", "unused.json"),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");

        // Index blocking but an implicit train fraction: refused.
        let err = run(&Flags::from_pairs(&[
            ("stress", "400"),
            ("blocking", "ann"),
            ("out", "unused.json"),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("--train-sources"), "{err}");
    }

    #[test]
    fn unknown_blocking_mode_is_usage_error() {
        let (ds, emb) = fixture();
        let err = run(&Flags::from_pairs(&[
            ("dataset", ds.to_str().unwrap()),
            ("embeddings", emb.to_str().unwrap()),
            ("blocking", "psychic"),
            ("out", "unused.json"),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("psychic"), "{err}");
    }

    #[test]
    fn rejects_single_training_source() {
        let (ds, emb) = fixture();
        let err = run(&Flags::from_pairs(&[
            ("dataset", ds.to_str().unwrap()),
            ("embeddings", emb.to_str().unwrap()),
            ("train-sources", "0"),
            ("out", "unused.json"),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("two training sources"));
    }
}

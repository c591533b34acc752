//! `leapme train` — train LEAPME on part of a dataset and persist the
//! model as a versioned, checksummed `.lmp` file.
//!
//! The durable counterpart of the training half of `leapme match`:
//!
//! * `--save model.lmp` — atomic, checksummed model persistence; the
//!   saved model scores bitwise identically to the in-memory one.
//! * `--checkpoint train.ckpt [--checkpoint-every N]` — periodic
//!   training checkpoints (optimizer state, RNG, epoch position).
//! * `--resume` — continue a previously interrupted run from its
//!   checkpoint, bitwise identically to an uninterrupted run.
//! * `--timeout-secs N` / Ctrl-C — cooperative cancellation: the state
//!   is checkpointed, then the process exits with code 3.

use super::{cancel_token, load_dataset, pipeline_err};
use crate::args::Flags;
use crate::CliError;
use leapme::core::feature_cache;
use leapme::core::pipeline::{FitControl, Leapme, LeapmeConfig};
use leapme::core::sampling;
use leapme::data::model::SourceId;
use leapme::embedding::store::EmbeddingStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// Flags this command reads; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &[
    "checkpoint",
    "checkpoint-every",
    "dataset",
    "embeddings",
    "feature-cache",
    "fuzzy-oov",
    "resume",
    "save",
    "seed",
    "threshold",
    "timeout-secs",
    "train-fraction",
    "train-sources",
];

/// Run the command.
pub fn run(flags: &Flags) -> Result<String, CliError> {
    let seed: u64 = flags.get_or("seed", 42)?;
    let threshold: f32 = flags.get_or("threshold", 0.5)?;
    let save_path = flags.require("save")?;
    let checkpoint = flags.get("checkpoint").map(Path::new);
    let checkpoint_every: usize = flags.get_or("checkpoint-every", 0)?;
    let resume = flags.is_set("resume");
    if resume && checkpoint.is_none() {
        return Err(CliError::Usage("--resume requires --checkpoint".into()));
    }

    let dataset = load_dataset(flags.require("dataset")?)?;
    let emb_path = flags.require("embeddings")?;
    let mut embeddings = EmbeddingStore::load_text(Path::new(emb_path))
        .map_err(|e| CliError::Parse(format!("{emb_path}: {e}")))?;
    embeddings.set_fuzzy_oov(flags.get_or("fuzzy-oov", 1u8)? != 0);

    let token = cancel_token(flags)?;
    let check = token.checker();

    let mut rng = StdRng::seed_from_u64(seed);
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

    let cancelled_note = match checkpoint {
        Some(p) => format!("training state checkpointed to {}", p.display()),
        None => "no --checkpoint configured, training state lost".to_string(),
    };
    let (store, cache_status) = feature_cache::load_or_build(
        flags.get("feature-cache").map(Path::new),
        &dataset,
        &embeddings,
        leapme::features::worker_threads(),
        Some(&check),
    )
    .map_err(|e| pipeline_err(e, &cancelled_note))?;
    let mut warnings = String::new();
    warnings.push_str(&cache_status.describe(store.len()));
    if !store.degradation().is_clean() {
        warnings.push_str(&format!("warning: {}\n", store.degradation().summary()));
    }

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
    let opts = FitControl {
        checkpoint_path: checkpoint,
        checkpoint_every,
        resume,
        cancel: Some(&check),
    };
    let model = Leapme::fit_durable(&store, &train, &cfg, &opts)
        .map_err(|e| pipeline_err(e, &cancelled_note))?;

    model
        .save_with_retry(
            Path::new(save_path),
            &leapme::core::retry::RetryPolicy::default(),
        )
        .map_err(|e| CliError::Pipeline(e.to_string()))?;

    Ok(format!(
        "{warnings}wrote {save_path}: model over {} features \
         ({} training pairs from {} sources, threshold {threshold}{})",
        model.input_dim(),
        train.len(),
        train_sources.len(),
        if resume { ", resumed from checkpoint" } else { "" }
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapme::core::pipeline::LeapmeModel;
    use leapme::data::domains::{generate, Domain};
    use std::sync::atomic::Ordering;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("leapme_cli_train_tests");
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
                let ds_path = tmp("train_ds.json");
                std::fs::write(&ds_path, generate(Domain::Tvs, 2).to_json()).unwrap();
                let emb_path = tmp("train_emb.txt");
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
    fn trains_and_saves_loadable_model() {
        let (ds, emb) = fixture();
        let model_path = tmp("trained.lmp");
        let msg = run(&Flags::from_pairs(&[
            ("dataset", ds.to_str().unwrap()),
            ("embeddings", emb.to_str().unwrap()),
            ("save", model_path.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(msg.contains("wrote"), "{msg}");
        let model = LeapmeModel::load(&model_path).unwrap();
        assert!(model.input_dim() > 0);
        std::fs::remove_file(model_path).ok();
    }

    #[test]
    fn resume_without_checkpoint_is_usage_error() {
        let err = run(&Flags::from_pairs(&[
            ("dataset", "x.json"),
            ("embeddings", "y.txt"),
            ("save", "m.lmp"),
            ("resume", "true"),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn interrupted_training_checkpoints_and_exits_cancelled() {
        let (ds, emb) = fixture();
        let model_path = tmp("interrupted.lmp");
        let ckpt_path = tmp("interrupted.ckpt");
        let _ = std::fs::remove_file(&ckpt_path);

        // Simulate Ctrl-C before the run starts: the very first poll
        // fires, and the checkpoint (empty training progress) is saved.
        crate::interrupted_flag().store(true, Ordering::SeqCst);
        let err = run(&Flags::from_pairs(&[
            ("dataset", ds.to_str().unwrap()),
            ("embeddings", emb.to_str().unwrap()),
            ("save", model_path.to_str().unwrap()),
            ("checkpoint", ckpt_path.to_str().unwrap()),
        ]))
        .unwrap_err();
        crate::interrupted_flag().store(false, Ordering::SeqCst);
        assert!(matches!(err, CliError::Cancelled(_)), "{err}");
        assert_eq!(err.exit_code(), 3);
        assert!(!model_path.exists(), "no model on a cancelled run");

        // Rerunning with --resume (checkpoint may or may not exist yet,
        // depending on where the cancel landed) completes and saves.
        let msg = run(&Flags::from_pairs(&[
            ("dataset", ds.to_str().unwrap()),
            ("embeddings", emb.to_str().unwrap()),
            ("save", model_path.to_str().unwrap()),
            ("checkpoint", ckpt_path.to_str().unwrap()),
            ("resume", "true"),
        ]))
        .unwrap();
        assert!(msg.contains("wrote"), "{msg}");
        assert!(!ckpt_path.exists(), "checkpoint removed after completion");
        LeapmeModel::load(&model_path).unwrap();
        std::fs::remove_file(model_path).ok();
    }

    #[test]
    fn timeout_zero_cancels_immediately() {
        let (ds, emb) = fixture();
        let err = run(&Flags::from_pairs(&[
            ("dataset", ds.to_str().unwrap()),
            ("embeddings", emb.to_str().unwrap()),
            ("save", tmp("never.lmp").to_str().unwrap()),
            ("timeout-secs", "0"),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Cancelled(_)), "{err}");
    }
}

//! The LEAPME pipeline: Algorithm 1, steps 5 (training and classification).
//!
//! Steps 1–4 (feature computation) live in `leapme-features`
//! ([`PropertyFeatureStore`]); this module adds the supervised part: fit
//! the paper's dense network (input → 128 → 64 → 2, batch size 32, staged
//! learning rate) on labeled pair vectors, then score unlabeled pairs,
//! producing the similarity graph.

use crate::scaler::Scaler;
use crate::simgraph::SimilarityGraph;
use crate::CoreError;
use leapme_data::model::PropertyPair;
use leapme_features::{CancelCheck, FeatureConfig, FeatureKind, FeatureScope, PropertyFeatureStore};
use leapme_nn::checkpoint::{self, CheckpointError, Decoder, Encoder, KIND_PIPELINE};
use leapme_nn::container2::{self, Opened, V2Container, V2Writer};
use leapme_nn::layers::{Activation, Dense};
use leapme_nn::matrix::Matrix;
use leapme_nn::network::{Mlp, TrainConfig};
use leapme_nn::workspace::ScoreWorkspace;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Durability knobs for [`Leapme::fit_durable`]: where to checkpoint
/// training, how often, whether to resume, and the cancellation check,
/// which the pair-matrix fill also polls between work blocks.
pub use leapme_nn::network::FitControl;

/// Configuration of a LEAPME fit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LeapmeConfig {
    /// Which feature subset to use (paper §V-A; default: all features).
    pub features: FeatureConfig,
    /// Network training configuration (paper §IV-D defaults).
    pub train: TrainConfig,
    /// Decision threshold on the positive-class probability.
    pub threshold: f32,
    /// Seed for weight initialization.
    pub seed: u64,
    /// Hidden layer sizes (paper: `[128, 64]`). Exposed for ablations.
    pub hidden: Vec<usize>,
}

impl Default for LeapmeConfig {
    fn default() -> Self {
        LeapmeConfig {
            features: FeatureConfig::full(),
            train: TrainConfig::default(),
            threshold: 0.5,
            seed: 0x1EA9,
            hidden: vec![128, 64],
        }
    }
}

/// A trained LEAPME matcher.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LeapmeModel {
    net: Mlp,
    scaler: Scaler,
    features: FeatureConfig,
    threshold: f32,
    dim: usize,
}

/// Batch size used when scoring large candidate spaces.
const SCORE_BATCH: usize = 4096;

/// How [`LeapmeModel::score`] runs. The default scores on the calling
/// thread without cancellation.
#[derive(Clone, Copy, Default)]
pub struct ScoreOptions<'a> {
    /// Cooperative cancellation check, polled once per scoring block;
    /// [`CoreError::Cancelled`] is returned when it fires.
    pub cancel: CancelCheck<'a>,
    /// Worker threads. `≤ 1` scores on the calling thread; more splits
    /// the pairs into one contiguous chunk per worker. Scores are
    /// bitwise identical for every thread count.
    pub threads: usize,
}

/// Entry point for fitting LEAPME models.
pub struct Leapme;

impl Leapme {
    /// Train a model on labeled pairs (Algorithm 1 line 9,
    /// `trainClassifier(labeled(PPF))`).
    ///
    /// `labeled` carries `(pair, is_match)`; features come from `store`.
    pub fn fit(
        store: &PropertyFeatureStore,
        labeled: &[(PropertyPair, bool)],
        cfg: &LeapmeConfig,
    ) -> Result<LeapmeModel, CoreError> {
        Self::fit_durable(store, labeled, cfg, &FitControl::default())
    }

    /// [`Self::fit`] with durability: optional training checkpoints,
    /// resume-from-checkpoint, and cooperative cancellation threaded
    /// through the pair-matrix fill and every training epoch. When
    /// cancellation fires after a checkpoint path is configured, the
    /// training state is persisted before [`CoreError::Cancelled`] is
    /// returned, and a later call with `resume: true` continues the run
    /// bitwise identically to one that was never interrupted.
    pub fn fit_durable(
        store: &PropertyFeatureStore,
        labeled: &[(PropertyPair, bool)],
        cfg: &LeapmeConfig,
        ctl: &FitControl<'_>,
    ) -> Result<LeapmeModel, CoreError> {
        if labeled.is_empty() {
            return Err(CoreError::NoTrainingData);
        }
        let dim = store.dim();
        let pairs: Vec<(leapme_data::model::PropertyKey, leapme_data::model::PropertyKey)> =
            labeled
                .iter()
                .map(|(PropertyPair(a, b), _)| (a.clone(), b.clone()))
                .collect();
        // Precompute the run-level name-pair distance table when the
        // training volume justifies it; the fill below then reads every
        // string feature from the table instead of the locking cache.
        store.ensure_pair_table_for(&cfg.features, pairs.len());
        let (n, cols, data) = store
            .pair_matrix_flat_cancellable(
                &pairs,
                &cfg.features,
                leapme_features::worker_threads(),
                ctl.cancel,
            )?
            .into_parts();
        let mut x = Matrix::from_vec(n, cols, data);
        let labels: Vec<usize> = labeled.iter().map(|(_, y)| usize::from(*y)).collect();

        let scaler = Scaler::fit_transform(&mut x);

        let mut sizes = Vec::with_capacity(cfg.hidden.len() + 2);
        sizes.push(x.cols());
        sizes.extend_from_slice(&cfg.hidden);
        sizes.push(2);
        let mut net = Mlp::new(&sizes, cfg.seed);
        net.fit_durable(&x, &labels, &cfg.train, ctl)?;

        Ok(LeapmeModel {
            net,
            scaler,
            features: cfg.features,
            threshold: cfg.threshold,
            dim,
        })
    }
}

/// Stable on-disk tags for [`FeatureScope`] / [`FeatureKind`] in the
/// `.lmp` container (independent of in-memory enum layout).
fn scope_tag(scope: FeatureScope) -> u8 {
    match scope {
        FeatureScope::Instances => 0,
        FeatureScope::Names => 1,
        FeatureScope::Both => 2,
    }
}

fn scope_from_tag(tag: u8) -> Result<FeatureScope, CheckpointError> {
    Ok(match tag {
        0 => FeatureScope::Instances,
        1 => FeatureScope::Names,
        2 => FeatureScope::Both,
        t => return Err(CheckpointError::Malformed(format!("feature scope tag {t}"))),
    })
}

fn kind_tag(kind: FeatureKind) -> u8 {
    match kind {
        FeatureKind::Embeddings => 0,
        FeatureKind::NonEmbeddings => 1,
        FeatureKind::Both => 2,
    }
}

fn kind_from_tag(tag: u8) -> Result<FeatureKind, CheckpointError> {
    Ok(match tag {
        0 => FeatureKind::Embeddings,
        1 => FeatureKind::NonEmbeddings,
        2 => FeatureKind::Both,
        t => return Err(CheckpointError::Malformed(format!("feature kind tag {t}"))),
    })
}

/// Which parse path [`LeapmeModel::load_with_report`] took for a
/// `.lmp` file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelOpenPath {
    /// v2 container over a shared read-only `mmap` — zero-copy weights.
    Mmap,
    /// v2 container read once into an aligned owned buffer — zero-copy
    /// weights over that buffer.
    Read,
    /// Legacy v1 container: full payload parse with per-tensor copies.
    LegacyV1,
}

impl ModelOpenPath {
    /// Stable lowercase label (`mmap` / `read` / `legacy-v1`) for CLI
    /// output and registry stats.
    pub fn label(self) -> &'static str {
        match self {
            ModelOpenPath::Mmap => "mmap",
            ModelOpenPath::Read => "read",
            ModelOpenPath::LegacyV1 => "legacy-v1",
        }
    }
}

impl std::fmt::Display for ModelOpenPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Cap on the layer count a v2 model file may declare; a corrupted
/// meta section cannot drive an absurd allocation.
const MAX_V2_LAYERS: usize = 64;

impl LeapmeModel {
    /// Persist the trained model to `path` as a v2 (zero-copy layout)
    /// LEAPMECP container: a `meta` section with shapes and pipeline
    /// settings, one 64-byte-aligned raw-f32 section per weight matrix
    /// and bias, and the scaler rows — each individually CRC-64'd.
    /// Weights are stored as raw little-endian `f32` bits, so
    /// [`Self::load`] scores bitwise identically to the saved model.
    pub fn save(&self, path: &Path) -> Result<(), CoreError> {
        let mut w = V2Writer::new(KIND_PIPELINE);
        let (means, inv_stds) = self.scaler.parts();
        let mut meta = Encoder::new();
        meta.u32(self.net.layers().len() as u32);
        for layer in self.net.layers() {
            meta.u64(layer.in_dim() as u64);
            meta.u64(layer.out_dim() as u64);
            meta.u8(match layer.activation {
                Activation::Relu => 0,
                Activation::Identity => 1,
            });
        }
        meta.u8(scope_tag(self.features.scope));
        meta.u8(kind_tag(self.features.kind));
        meta.f32(self.threshold);
        meta.u64(self.dim as u64);
        meta.u64(means.len() as u64);
        w.bytes("meta", &meta.finish());
        for (i, layer) in self.net.layers().iter().enumerate() {
            w.f32s(&format!("w{i}"), layer.weights.data());
            w.f32s(&format!("b{i}"), &layer.bias);
        }
        w.f32s("scaler.mean", means);
        w.f32s("scaler.inv_std", inv_stds);
        w.write(path)?;
        Ok(())
    }

    /// Persist in the legacy v1 (parse-on-load) container layout. Its
    /// only caller is the CLI test `upgrade_migrates_a_v1_model`, which
    /// needs a v1 file to migrate; [`Self::load`] reads both layouts.
    pub fn save_v1(&self, path: &Path) -> Result<(), CoreError> {
        let mut e = Encoder::new();
        checkpoint::encode_mlp(&mut e, &self.net);
        let (means, inv_stds) = self.scaler.parts();
        e.f32s(means);
        e.f32s(inv_stds);
        e.u8(scope_tag(self.features.scope));
        e.u8(kind_tag(self.features.kind));
        e.f32(self.threshold);
        e.u64(self.dim as u64);
        checkpoint::write_container(path, KIND_PIPELINE, &e.finish())?;
        Ok(())
    }

    /// [`Self::save`] with a bounded-retry budget for transient I/O
    /// failures. The container write is atomic (temp + fsync + rename),
    /// so a failed attempt never leaves a damaged destination and a
    /// retry is always safe. Non-I/O failures are not retried; once the
    /// budget is spent the typed [`CoreError::RetriesExhausted`]
    /// surfaces with the final attempt's error.
    pub fn save_with_retry(
        &self,
        path: &Path,
        policy: &crate::retry::RetryPolicy,
    ) -> Result<(), CoreError> {
        crate::retry::with_retry(
            policy,
            |e: &CoreError| matches!(e, CoreError::Checkpoint(CheckpointError::Io(_))),
            || self.save(path),
        )
        .map_err(|e| {
            if e.attempts == 1 {
                // Non-transient or unretried failure: keep the original
                // error shape callers already match on.
                e.last
            } else {
                CoreError::RetriesExhausted {
                    what: "model save".to_string(),
                    attempts: e.attempts,
                    last: Box::new(e.last),
                }
            }
        })
    }

    /// Load a model saved by [`Self::save`] (v2 zero-copy layout) or
    /// [`Self::save_v1`] (legacy parse path). Every corruption mode —
    /// wrong magic, unsupported version, wrong container kind,
    /// truncation, flipped payload bits — surfaces as a typed
    /// [`CoreError::Checkpoint`]; a damaged file is never loaded
    /// silently.
    pub fn load(path: &Path) -> Result<LeapmeModel, CoreError> {
        Ok(Self::load_with_report(path)?.0)
    }

    /// [`Self::load`] also reporting which open path was taken: `mmap`
    /// (v2, zero-copy over a shared mapping), `read` (v2, zero-copy
    /// over an owned aligned buffer), or `legacy-v1` (full parse).
    pub fn load_with_report(path: &Path) -> Result<(LeapmeModel, ModelOpenPath), CoreError> {
        match container2::open_any(path, KIND_PIPELINE)? {
            Opened::V1(payload) => Ok((Self::from_v1_payload(&payload)?, ModelOpenPath::LegacyV1)),
            Opened::V2(container) => {
                let open_path = match container.open_path() {
                    container2::OpenPath::Mmap => ModelOpenPath::Mmap,
                    container2::OpenPath::Read => ModelOpenPath::Read,
                };
                Ok((Self::from_v2(&container)?, open_path))
            }
        }
    }

    /// Decode the legacy v1 pipeline payload.
    fn from_v1_payload(payload: &[u8]) -> Result<LeapmeModel, CoreError> {
        let mut d = Decoder::new(payload);
        let net = checkpoint::decode_mlp(&mut d)?;
        let means = d.f32s()?;
        let inv_stds = d.f32s()?;
        if means.len() != inv_stds.len() {
            return Err(CheckpointError::Malformed(format!(
                "scaler stats length mismatch: {} means vs {} stds",
                means.len(),
                inv_stds.len()
            ))
            .into());
        }
        let scope = scope_from_tag(d.u8()?)?;
        let kind = kind_from_tag(d.u8()?)?;
        let threshold = d.f32()?;
        let dim = usize::try_from(d.u64()?)
            .map_err(|_| CheckpointError::Malformed("dim overflows usize".into()))?;
        d.done()?;
        Ok(LeapmeModel {
            net,
            scaler: Scaler::from_parts(means, inv_stds),
            features: FeatureConfig { scope, kind },
            threshold,
            dim,
        })
    }

    /// Assemble a model over an open v2 container: weight matrices
    /// become zero-copy views pinning the container's mapping (no
    /// per-tensor `Vec` materialization); only the tiny biases and
    /// scaler rows are copied.
    fn from_v2(container: &std::sync::Arc<V2Container>) -> Result<LeapmeModel, CoreError> {
        let mut d = Decoder::new(container.section_bytes("meta")?);
        let n_layers = d.u32()? as usize;
        if n_layers == 0 || n_layers > MAX_V2_LAYERS {
            return Err(
                CheckpointError::Malformed(format!("implausible layer count {n_layers}")).into(),
            );
        }
        let mut shapes = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let in_dim = usize::try_from(d.u64()?)
                .map_err(|_| CheckpointError::Malformed("layer in_dim overflows".into()))?;
            let out_dim = usize::try_from(d.u64()?)
                .map_err(|_| CheckpointError::Malformed("layer out_dim overflows".into()))?;
            let activation = match d.u8()? {
                0 => Activation::Relu,
                1 => Activation::Identity,
                t => {
                    return Err(
                        CheckpointError::Malformed(format!("activation tag {t}")).into(),
                    )
                }
            };
            shapes.push((in_dim, out_dim, activation));
        }
        let scope = scope_from_tag(d.u8()?)?;
        let kind = kind_from_tag(d.u8()?)?;
        let threshold = d.f32()?;
        let dim = usize::try_from(d.u64()?)
            .map_err(|_| CheckpointError::Malformed("dim overflows usize".into()))?;
        let scaler_len = usize::try_from(d.u64()?)
            .map_err(|_| CheckpointError::Malformed("scaler length overflows".into()))?;
        d.done()?;

        let mut layers = Vec::with_capacity(n_layers);
        for (i, (in_dim, out_dim, activation)) in shapes.into_iter().enumerate() {
            let weights = container.f32_section(&format!("w{i}"))?;
            let expect = in_dim.checked_mul(out_dim).ok_or_else(|| {
                CheckpointError::Malformed(format!("layer {i} parameter count overflows"))
            })?;
            if weights.as_ref().len() != expect {
                return Err(CheckpointError::Malformed(format!(
                    "layer {i} weights: expected {expect} f32s, found {}",
                    weights.as_ref().len()
                ))
                .into());
            }
            let bias = container.section_f32_vec(&format!("b{i}"))?;
            if bias.len() != out_dim {
                return Err(CheckpointError::Malformed(format!(
                    "layer {i} bias: expected {out_dim} f32s, found {}",
                    bias.len()
                ))
                .into());
            }
            layers.push(Dense {
                weights: Matrix::from_shared(in_dim, out_dim, std::sync::Arc::new(weights)),
                bias,
                activation,
            });
        }
        let net = Mlp::try_from_layers(layers)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        let means = container.section_f32_vec("scaler.mean")?;
        let inv_stds = container.section_f32_vec("scaler.inv_std")?;
        if means.len() != scaler_len || inv_stds.len() != scaler_len {
            return Err(CheckpointError::Malformed(format!(
                "scaler stats length mismatch: {} means / {} stds, meta says {scaler_len}",
                means.len(),
                inv_stds.len()
            ))
            .into());
        }
        Ok(LeapmeModel {
            net,
            scaler: Scaler::from_parts(means, inv_stds),
            features: FeatureConfig { scope, kind },
            threshold,
            dim,
        })
    }

    /// The feature configuration the model was trained with.
    pub fn features(&self) -> &FeatureConfig {
        &self.features
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Number of input features the model expects.
    pub fn input_dim(&self) -> usize {
        self.scaler.dim()
    }

    /// Similarity scores (positive-class probabilities) for `pairs`, in
    /// input order. Streams [`SCORE_BATCH`]-pair blocks through reusable
    /// feature/activation buffers, so peak memory per thread is
    /// O(block × dim) however many pairs are scored, and the
    /// steady-state block costs zero heap allocations.
    ///
    /// With `threads > 1` and at least two blocks of pairs, the pairs
    /// are split into one contiguous chunk per worker (crossbeam scoped
    /// threads) and the results concatenated in input order. A panicking
    /// worker loses only its own chunk: the chunk is requeued once on the
    /// calling thread, and a second panic surfaces as
    /// [`CoreError::WorkerPanic`] instead of aborting the process.
    ///
    /// Fails with [`CoreError::DimMismatch`] when `store` was built at a
    /// different embedding dimension than the model was trained on.
    pub fn score(
        &self,
        store: &PropertyFeatureStore,
        pairs: &[PropertyPair],
        opts: &ScoreOptions<'_>,
    ) -> Result<Vec<f32>, CoreError> {
        self.check_store(store)?;
        // Build the shared distance table once at the full pair volume —
        // per-chunk calls inside the workers would evaluate the size gate
        // against a fraction of the run.
        store.ensure_pair_table_for(&self.features, pairs.len());
        if opts.threads <= 1 || pairs.len() < 2 * SCORE_BATCH {
            return self.score_blocks(store, pairs, opts.cancel);
        }
        let chunk_len = pairs.len().div_ceil(opts.threads);
        let chunks: Vec<&[PropertyPair]> = pairs.chunks(chunk_len).collect();
        let score_chunk = |chunk: &[PropertyPair]| {
            #[cfg(feature = "faults")]
            leapme_faults::maybe_panic(leapme_faults::sites::SCORE_WORKER);
            self.score_blocks(store, chunk, opts.cancel)
        };
        let mut results: Vec<Option<Result<Vec<f32>, CoreError>>> = Vec::new();
        let mut failed: Vec<usize> = Vec::new();
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| scope.spawn(move |_| score_chunk(chunk)))
                .collect();
            // Joining every handle keeps a worker panic contained in its
            // join result instead of re-panicking out of the scope.
            for (i, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(r) => results.push(Some(r)),
                    Err(_) => {
                        results.push(None);
                        failed.push(i);
                    }
                }
            }
        })
        .expect("crossbeam scope with joined handles");
        for i in failed {
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| score_chunk(chunks[i])));
            results[i] = Some(outcome.unwrap_or_else(|payload| {
                Err(CoreError::WorkerPanic {
                    site: "core.score.worker".into(),
                    payload: leapme_features::vectorizer::panic_message(payload.as_ref()),
                })
            }));
        }
        let mut out = Vec::with_capacity(pairs.len());
        for r in results {
            out.extend(r.expect("every chunk resolved")?);
        }
        Ok(out)
    }

    /// [`Self::score`] with the default options: the calling thread, no
    /// cancellation.
    pub fn score_pairs(
        &self,
        store: &PropertyFeatureStore,
        pairs: &[PropertyPair],
    ) -> Result<Vec<f32>, CoreError> {
        self.score(store, pairs, &ScoreOptions::default())
    }

    /// Score pairs and assemble the similarity graph (Algorithm 1 lines
    /// 10–11).
    pub fn predict_graph(
        &self,
        store: &PropertyFeatureStore,
        pairs: &[PropertyPair],
    ) -> Result<SimilarityGraph, CoreError> {
        let scores = self.score_pairs(store, pairs)?;
        Ok(pairs.iter().cloned().zip(scores).collect())
    }

    /// Score pre-extracted feature rows directly (each row must already
    /// be in this model's feature space — same configuration and
    /// dimension it was trained with). Used by analyses that perturb the
    /// feature matrix, e.g. permutation importance.
    ///
    /// # Panics
    ///
    /// Panics if a row's width differs from [`Self::input_dim`].
    pub fn score_rows(&self, rows: &[Vec<f32>]) -> Vec<f32> {
        let mut scores = Vec::with_capacity(rows.len());
        let mut x = Matrix::zeros(0, 0);
        let mut ws = ScoreWorkspace::new();
        for chunk in rows.chunks(SCORE_BATCH) {
            x.resize_zeroed(chunk.len(), self.input_dim());
            for (i, row) in chunk.iter().enumerate() {
                assert_eq!(row.len(), self.input_dim(), "feature row width mismatch");
                x.row_mut(i).copy_from_slice(row);
            }
            self.scaler.transform_inplace(&mut x);
            self.net.predict_proba_into(&x, &mut ws, &mut scores);
        }
        scores
    }

    /// Reject stores whose feature space differs from the model's.
    fn check_store(&self, store: &PropertyFeatureStore) -> Result<(), CoreError> {
        if store.dim() != self.dim {
            return Err(CoreError::DimMismatch {
                store: store.dim(),
                model: self.dim,
            });
        }
        Ok(())
    }

    /// The calling-thread scorer under [`Self::score`]: one feature
    /// matrix and one score workspace, reused for every block.
    fn score_blocks(
        &self,
        store: &PropertyFeatureStore,
        pairs: &[PropertyPair],
        cancel: CancelCheck<'_>,
    ) -> Result<Vec<f32>, CoreError> {
        let mask = self.features.mask(store.dim());
        let cols = mask.len();
        let mut scores = Vec::with_capacity(pairs.len());
        let mut x = Matrix::zeros(0, 0);
        let mut ws = ScoreWorkspace::new();
        for block in pairs.chunks(SCORE_BATCH) {
            x.resize_zeroed(block.len(), cols);
            store.fill_pair_block_cancellable(block, &mask, x.data_mut(), cancel)?;
            self.scaler.transform_inplace(&mut x);
            self.net.predict_proba_into(&x, &mut ws, &mut scores);
        }
        Ok(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling;
    use leapme_data::corpus::{generate_corpus, CorpusConfig};
    use leapme_data::domains::{generate, Domain};
    use leapme_embedding::cooccur::CooccurrenceMatrix;
    use leapme_embedding::glove::{train as glove_train, GloVeConfig};
    use leapme_embedding::store::EmbeddingStore;
    use leapme_embedding::vocab::Vocab;
    use leapme_nn::schedule::LrSchedule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Small trained embeddings shared across pipeline tests.
    fn embeddings(domain: Domain) -> EmbeddingStore {
        let corpus = generate_corpus(
            &domain.spec(),
            &CorpusConfig {
                sentences_per_synonym: 12,
                filler_sentences: 60,
            },
            99,
        );
        let vocab = Vocab::build(corpus.iter().flatten().map(String::as_str), 2);
        let cooc = CooccurrenceMatrix::from_sentences(&vocab, &corpus, 5);
        let cfg = GloVeConfig {
            dim: 24,
            epochs: 15,
            ..GloVeConfig::default()
        };
        glove_train(&vocab, &cooc, &cfg, 1).unwrap()
    }

    fn quick_train_cfg() -> TrainConfig {
        TrainConfig {
            schedule: LrSchedule::new(vec![(6, 1e-3), (2, 1e-4)]),
            ..TrainConfig::default()
        }
    }

    #[test]
    fn end_to_end_beats_chance_on_headphones() {
        let ds = generate(Domain::Headphones, 21);
        let store = PropertyFeatureStore::build(&ds, &embeddings(Domain::Headphones));
        let mut rng = StdRng::seed_from_u64(5);
        let split = sampling::split_sources(ds.sources().len(), 0.8, &mut rng).unwrap();
        let train = sampling::training_pairs(&ds, &split.train, 2, &mut rng);
        let cfg = LeapmeConfig {
            // Full paper schedule (20 epochs) with the paper architecture.
            ..LeapmeConfig::default()
        };
        let model = Leapme::fit(&store, &train, &cfg).unwrap();

        let test = sampling::test_pairs(&ds, &split.train);
        let gt = sampling::test_ground_truth(&ds, &split.train);
        let graph = model.predict_graph(&store, &test).unwrap();
        let m = crate::metrics::Metrics::from_sets(&graph.matches(0.5), &gt);
        // With trained embeddings and real features this should comfortably
        // beat random guessing (positive rate is a few percent).
        assert!(m.f1 > 0.3, "end-to-end F1 too low: {m}");
    }

    #[test]
    fn fit_rejects_empty_training() {
        let ds = generate(Domain::Tvs, 22);
        let store = PropertyFeatureStore::build(&ds, &EmbeddingStore::new(8));
        let err = Leapme::fit(&store, &[], &LeapmeConfig::default()).unwrap_err();
        assert!(matches!(err, CoreError::NoTrainingData));
    }

    #[test]
    fn scores_are_probabilities_and_ordered_consistently() {
        let ds = generate(Domain::Tvs, 23);
        let store = PropertyFeatureStore::build(&ds, &embeddings(Domain::Tvs));
        let mut rng = StdRng::seed_from_u64(6);
        let split = sampling::split_sources(ds.sources().len(), 0.8, &mut rng).unwrap();
        let train = sampling::training_pairs(&ds, &split.train, 2, &mut rng);
        let cfg = LeapmeConfig {
            train: quick_train_cfg(),
            hidden: vec![16],
            ..LeapmeConfig::default()
        };
        let model = Leapme::fit(&store, &train, &cfg).unwrap();
        let test = sampling::test_pairs(&ds, &split.train);
        let scores = model.score_pairs(&store, &test).unwrap();
        assert_eq!(scores.len(), test.len());
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
        // Graph agrees with raw scores.
        let graph = model.predict_graph(&store, &test).unwrap();
        for (p, s) in test.iter().zip(&scores) {
            assert_eq!(graph.score(p), Some(*s));
        }
    }

    /// Materialize-per-chunk scorer: the equivalence oracle for the
    /// streaming path.
    fn score_pairs_materialized(
        model: &LeapmeModel,
        store: &PropertyFeatureStore,
        pairs: &[PropertyPair],
    ) -> Vec<f32> {
        let mut scores = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(SCORE_BATCH) {
            let keyed: Vec<_> = chunk
                .iter()
                .map(|PropertyPair(a, b)| (a.clone(), b.clone()))
                .collect();
            let (n, cols, data) = store
                .pair_matrix_flat(&keyed, &model.features)
                .unwrap()
                .into_parts();
            let mut x = Matrix::from_vec(n, cols, data);
            model.scaler.transform_inplace(&mut x);
            model
                .net
                .predict_proba_into(&x, &mut ScoreWorkspace::new(), &mut scores);
        }
        scores
    }

    #[test]
    fn streaming_matches_materialized_at_every_thread_count() {
        let ds = generate(Domain::Tvs, 27);
        let store = PropertyFeatureStore::build(&ds, &embeddings(Domain::Tvs));
        let mut rng = StdRng::seed_from_u64(10);
        let split = sampling::split_sources(ds.sources().len(), 0.8, &mut rng).unwrap();
        let train = sampling::training_pairs(&ds, &split.train, 2, &mut rng);
        let cfg = LeapmeConfig {
            train: quick_train_cfg(),
            hidden: vec![16],
            ..LeapmeConfig::default()
        };
        let model = Leapme::fit(&store, &train, &cfg).unwrap();
        // Enough pairs for several blocks and the multi-worker split,
        // ending on a partial block.
        let test: Vec<PropertyPair> = sampling::test_pairs(&ds, &split.train)
            .into_iter()
            .cycle()
            .take(2 * SCORE_BATCH + 17)
            .collect();
        let reference = score_pairs_materialized(&model, &store, &test);
        assert_eq!(model.score_pairs(&store, &test).unwrap(), reference);
        for threads in [0, 1, 2, 4] {
            let opts = ScoreOptions {
                cancel: None,
                threads,
            };
            assert_eq!(
                model.score(&store, &test, &opts).unwrap(),
                reference,
                "threads={threads}"
            );
        }
        let always = || true;
        for threads in [1, 4] {
            let opts = ScoreOptions {
                cancel: Some(&always),
                threads,
            };
            assert!(
                matches!(model.score(&store, &test, &opts), Err(CoreError::Cancelled)),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn scoring_a_store_of_another_dim_is_a_typed_mismatch() {
        let (model, _store, test) = fitted_model_and_test(14);
        let other =
            PropertyFeatureStore::build(&generate(Domain::Tvs, 28), &EmbeddingStore::new(8));
        let errors = [
            model
                .score(&other, &test, &ScoreOptions::default())
                .unwrap_err(),
            model.score_pairs(&other, &test).unwrap_err(),
            model.predict_graph(&other, &test).unwrap_err(),
        ];
        for err in errors {
            match err {
                CoreError::DimMismatch { store, model } => assert_eq!((store, model), (8, 24)),
                other => panic!("expected DimMismatch, got {other}"),
            }
        }
    }

    #[test]
    fn deterministic_given_seeds() {
        let ds = generate(Domain::Tvs, 24);
        let store = PropertyFeatureStore::build(&ds, &embeddings(Domain::Tvs));
        let mut rng = StdRng::seed_from_u64(7);
        let split = sampling::split_sources(ds.sources().len(), 0.8, &mut rng).unwrap();
        let train = sampling::training_pairs(&ds, &split.train, 2, &mut rng);
        let cfg = LeapmeConfig {
            train: quick_train_cfg(),
            hidden: vec![16],
            ..LeapmeConfig::default()
        };
        let test = sampling::test_pairs(&ds, &split.train);
        let run = || {
            let model = Leapme::fit(&store, &train, &cfg).unwrap();
            model.score_pairs(&store, &test).unwrap()
        };
        assert_eq!(run(), run());
    }

    fn fitted_model_and_test(
        seed: u64,
    ) -> (LeapmeModel, PropertyFeatureStore, Vec<PropertyPair>) {
        let ds = generate(Domain::Tvs, 28);
        let store = PropertyFeatureStore::build(&ds, &embeddings(Domain::Tvs));
        let mut rng = StdRng::seed_from_u64(seed);
        let split = sampling::split_sources(ds.sources().len(), 0.8, &mut rng).unwrap();
        let train = sampling::training_pairs(&ds, &split.train, 2, &mut rng);
        let cfg = LeapmeConfig {
            train: quick_train_cfg(),
            hidden: vec![16],
            ..LeapmeConfig::default()
        };
        let model = Leapme::fit(&store, &train, &cfg).unwrap();
        let test = sampling::test_pairs(&ds, &split.train);
        (model, store, test)
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("leapme-pipeline-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn lmp_save_load_scores_bitwise_identically() {
        let (model, store, test) = fitted_model_and_test(11);
        let path = tmp_dir("lmp").join("model.lmp");
        model.save(&path).unwrap();
        let back = LeapmeModel::load(&path).unwrap();
        let a = model.score_pairs(&store, &test).unwrap();
        let b = back.score_pairs(&store, &test).unwrap();
        assert_eq!(
            a.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(model.threshold(), back.threshold());
        assert_eq!(model.features(), back.features());
        assert_eq!(model.input_dim(), back.input_dim());
    }

    #[test]
    fn corrupted_lmp_is_a_typed_error_never_a_silent_model() {
        let (model, _store, _test) = fitted_model_and_test(12);
        let dir = tmp_dir("lmp-corrupt");
        let path = dir.join("model.lmp");
        model.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Truncations and single-byte flips across the file must all be
        // typed checkpoint errors.
        let bad = dir.join("bad.lmp");
        for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&bad, &bytes[..cut]).unwrap();
            match LeapmeModel::load(&bad) {
                Err(CoreError::Checkpoint(_)) => {}
                other => panic!("truncation at {cut}: expected Checkpoint error, got {other:?}"),
            }
        }
        for pos in [0, 9, bytes.len() / 2, bytes.len() - 4] {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x40;
            std::fs::write(&bad, &flipped).unwrap();
            match LeapmeModel::load(&bad) {
                Err(CoreError::Checkpoint(_)) => {}
                other => panic!("bit flip at {pos}: expected Checkpoint error, got {other:?}"),
            }
        }
        // Missing file is a typed I/O checkpoint error too.
        assert!(matches!(
            LeapmeModel::load(&dir.join("nope.lmp")),
            Err(CoreError::Checkpoint(CheckpointError::Io(_)))
        ));
    }

    #[test]
    fn durable_fit_cancel_then_resume_matches_uninterrupted() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ds = generate(Domain::Tvs, 29);
        let store = PropertyFeatureStore::build(&ds, &embeddings(Domain::Tvs));
        let mut rng = StdRng::seed_from_u64(13);
        let split = sampling::split_sources(ds.sources().len(), 0.8, &mut rng).unwrap();
        let train = sampling::training_pairs(&ds, &split.train, 2, &mut rng);
        let cfg = LeapmeConfig {
            train: quick_train_cfg(),
            hidden: vec![16],
            ..LeapmeConfig::default()
        };
        let test = sampling::test_pairs(&ds, &split.train);
        let reference = Leapme::fit(&store, &train, &cfg).unwrap();
        let ref_scores = reference.score_pairs(&store, &test).unwrap();

        let ckpt = tmp_dir("fit-resume").join("train.ckpt");
        let _ = std::fs::remove_file(&ckpt);
        // Cancel partway into the epoch loop (the fit polls once per
        // epoch; earlier polls belong to the pair fill).
        let polls = AtomicUsize::new(0);
        let cancel = move || polls.fetch_add(1, Ordering::SeqCst) >= 4;
        let opts = FitControl {
            checkpoint_path: Some(&ckpt),
            checkpoint_every: 0,
            resume: false,
            cancel: Some(&cancel),
        };
        match Leapme::fit_durable(&store, &train, &cfg, &opts) {
            Err(CoreError::Cancelled) => {}
            other => panic!("expected Cancelled, got {:?}", other.map(|_| "model")),
        }
        assert!(ckpt.exists(), "cancellation must leave a checkpoint");

        let resumed = Leapme::fit_durable(
            &store,
            &train,
            &cfg,
            &FitControl {
                checkpoint_path: Some(&ckpt),
                checkpoint_every: 0,
                resume: true,
                cancel: None,
            },
        )
        .unwrap();
        assert!(!ckpt.exists(), "completion must remove the checkpoint");
        let resumed_scores = resumed.score_pairs(&store, &test).unwrap();
        assert_eq!(
            ref_scores.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            resumed_scores.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            "resumed model must score bitwise identically to uninterrupted"
        );
    }

    #[test]
    fn model_serde_round_trip() {
        let ds = generate(Domain::Tvs, 25);
        let store = PropertyFeatureStore::build(&ds, &embeddings(Domain::Tvs));
        let mut rng = StdRng::seed_from_u64(8);
        let split = sampling::split_sources(ds.sources().len(), 0.8, &mut rng).unwrap();
        let train = sampling::training_pairs(&ds, &split.train, 2, &mut rng);
        let cfg = LeapmeConfig {
            train: quick_train_cfg(),
            hidden: vec![16],
            ..LeapmeConfig::default()
        };
        let model = Leapme::fit(&store, &train, &cfg).unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let back: LeapmeModel = serde_json::from_str(&json).unwrap();
        let test = sampling::test_pairs(&ds, &split.train);
        assert_eq!(
            model.score_pairs(&store, &test).unwrap(),
            back.score_pairs(&store, &test).unwrap()
        );
    }
}

//! LEAPME core: the learning-based property-matching pipeline.
//!
//! This crate implements Algorithm 1 of the paper on top of the
//! substrates:
//!
//! * [`pipeline`] — [`pipeline::Leapme`] ties feature extraction
//!   (`leapme-features`), the dense classifier (`leapme-nn`), and feature
//!   standardization together: `fit` on labeled property pairs,
//!   `predict` a [`simgraph::SimilarityGraph`] over unlabeled pairs.
//! * [`sampling`] — the paper's evaluation protocol (§V-B): source-level
//!   train/test splits, training pairs restricted to pairs *within*
//!   training sources, 2 negatives sampled per positive.
//! * [`metrics`] — precision / recall / F1 plus mean ± std aggregation
//!   over repetitions.
//! * [`simgraph`] — the similarity graph of scored property pairs the
//!   paper produces for downstream fusion.
//! * [`cluster`] — property clustering over the similarity graph
//!   (connected components and star clustering), the paper's stated
//!   future-work extension (§VI).
//! * [`runner`] — repeated randomized evaluation (the paper runs 25
//!   random source combinations per cell of Table II), parallelized
//!   across repetitions.
//! * [`transfer`] — cross-domain transfer-learning evaluation (train on
//!   one product domain, test on another), mentioned in §V.
//!
//! # Example
//!
//! ```no_run
//! use leapme_core::pipeline::{Leapme, LeapmeConfig};
//! use leapme_core::sampling;
//! use leapme_data::domains::{generate, Domain};
//! use leapme_embedding::store::EmbeddingStore;
//! use leapme_features::PropertyFeatureStore;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let dataset = generate(Domain::Headphones, 1);
//! let embeddings = EmbeddingStore::new(50); // or train with leapme-embedding
//! let store = PropertyFeatureStore::build(&dataset, &embeddings);
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let split = sampling::split_sources(dataset.sources().len(), 0.8, &mut rng).unwrap();
//! let train = sampling::training_pairs(&dataset, &split.train, 2, &mut rng);
//! let model = Leapme::fit(&store, &train, &LeapmeConfig::default()).unwrap();
//!
//! let test = sampling::test_pairs(&dataset, &split.train);
//! let graph = model.predict_graph(&store, &test).unwrap();
//! println!("{} matches", graph.matches(0.5).len());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod blocking;
pub mod calibration;
pub mod cancel;
pub mod cluster;
pub mod continual;
pub mod feature_cache;
pub mod fusion;
pub mod importance;
pub mod incremental;
pub mod index;
pub mod journal;
pub mod metrics;
pub mod pipeline;
pub mod prcurve;
pub mod registry;
pub mod retry;
pub mod runner;
pub mod sampling;
pub mod scaler;
pub mod simgraph;
pub mod transfer;
pub mod tuning;

/// Errors produced by the LEAPME core.
#[derive(Debug)]
pub enum CoreError {
    /// No labeled training pairs were provided.
    NoTrainingData,
    /// Not enough sources for the requested split.
    InvalidSplit(String),
    /// A run configuration that cannot run at all (zero repetitions, an
    /// empty tuning grid).
    InvalidConfig(String),
    /// The held-out sources carry no labeled pairs, so there is nothing
    /// to judge a model on.
    NoHoldoutData,
    /// A model's input width differs from the width an analysis needs.
    WidthMismatch {
        /// Input width of the model.
        model: usize,
        /// Width the analysis requires.
        required: usize,
    },
    /// A feature store built at one embedding dimension was handed to a
    /// model trained at another.
    DimMismatch {
        /// Embedding dimension of the feature store.
        store: usize,
        /// Embedding dimension the model was trained on.
        model: usize,
    },
    /// A source offered for integration contributes zero properties.
    ///
    /// Distinct from [`CoreError::InvalidSplit`] so callers (the serve
    /// layer in particular) can map it to a client error instead of a
    /// server fault: an empty source is the *caller's* mistake.
    EmptySource(u16),
    /// Feature extraction failed (unknown property).
    Feature(leapme_features::vectorizer::FeatureError),
    /// The underlying network failed.
    Nn(leapme_nn::NnError),
    /// A worker thread panicked twice (once in parallel, once on the
    /// serial requeue), so its shard's work could not be recovered.
    WorkerPanic {
        /// Pipeline site where the worker died (e.g. `core.score.worker`).
        site: String,
        /// Rendered panic payload.
        payload: String,
    },
    /// The operation was cancelled cooperatively (deadline, signal, or
    /// an explicit [`cancel::CancelToken::cancel`] call); durable state
    /// was checkpointed first where configured.
    Cancelled,
    /// A model/checkpoint container failed to read, write, or validate.
    Checkpoint(leapme_nn::checkpoint::CheckpointError),
    /// The run journal failed (I/O or at-rest corruption).
    Journal(journal::JournalError),
    /// A bounded-retry budget was exhausted on a transient-I/O
    /// operation (journal append, checkpoint write).
    RetriesExhausted {
        /// What was being retried (e.g. `"model save"`).
        what: String,
        /// How many attempts were made before giving up.
        attempts: u32,
        /// The error from the final attempt.
        last: Box<CoreError>,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::NoTrainingData => write!(f, "no labeled training pairs"),
            CoreError::InvalidSplit(msg) => write!(f, "invalid split: {msg}"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::NoHoldoutData => write!(f, "no labeled held-out pairs"),
            CoreError::WidthMismatch { model, required } => write!(
                f,
                "model takes {model} features, the analysis requires {required}"
            ),
            CoreError::DimMismatch { store, model } => write!(
                f,
                "feature store embedding dim {store} does not match the model's dim {model}"
            ),
            CoreError::EmptySource(id) => {
                write!(f, "source {id} has no properties")
            }
            CoreError::Feature(e) => write!(f, "feature error: {e}"),
            CoreError::Nn(e) => write!(f, "network error: {e}"),
            CoreError::WorkerPanic { site, payload } => {
                write!(f, "worker panic at {site}: {payload}")
            }
            CoreError::Cancelled => write!(f, "run cancelled"),
            CoreError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            CoreError::Journal(e) => write!(f, "{e}"),
            CoreError::RetriesExhausted { what, attempts, last } => {
                write!(f, "{what} failed after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<leapme_features::vectorizer::FeatureError> for CoreError {
    fn from(e: leapme_features::vectorizer::FeatureError) -> Self {
        // Cancellation keeps its identity across layers so callers can
        // map every cancelled pipeline stage to one exit path.
        match e {
            leapme_features::vectorizer::FeatureError::Cancelled => CoreError::Cancelled,
            e => CoreError::Feature(e),
        }
    }
}

impl From<leapme_nn::NnError> for CoreError {
    fn from(e: leapme_nn::NnError) -> Self {
        match e {
            leapme_nn::NnError::Cancelled => CoreError::Cancelled,
            e => CoreError::Nn(e),
        }
    }
}

impl From<leapme_nn::checkpoint::CheckpointError> for CoreError {
    fn from(e: leapme_nn::checkpoint::CheckpointError) -> Self {
        CoreError::Checkpoint(e)
    }
}

impl From<journal::JournalError> for CoreError {
    fn from(e: journal::JournalError) -> Self {
        CoreError::Journal(e)
    }
}

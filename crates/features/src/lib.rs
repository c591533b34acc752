//! LEAPME feature extraction (paper §IV-B and Table I).
//!
//! Features exist at three levels, each built from the one below:
//!
//! 1. **Instance features** ([`instance`]) — per property value: 18
//!    character-type features ([`chars`]), 10 token-type features
//!    ([`tokens`]), the numeric value (−1 if non-numeric), and the average
//!    word-embedding vector of the value (Table I rows 1–4). With
//!    embedding dimension `D` this is `29 + D` features (`329` at the
//!    paper's `D = 300`).
//! 2. **Property features** ([`property`]) — per property: the average of
//!    its instance feature vectors plus the average embedding of the words
//!    in the property *name* (rows 5–6): `29 + 2D` features.
//! 3. **Property-pair features** ([`pair`]) — per candidate pair: the
//!    component-wise difference of the two property vectors plus eight
//!    string distances between the names (rows 7–15): `29 + 2D + 8`
//!    features (`637` at `D = 300`).
//!
//! [`config::FeatureConfig`] selects feature subsets along the paper's two
//! evaluation dimensions (§V-A): *scope* (instance features only / name
//! features only / both) × *kind* (embedding features only / non-embedding
//! only / both) — nine configurations in total. [`vectorizer`] ties
//! everything together: it precomputes property vectors for a dataset once
//! and then emits masked pair vectors for any configuration.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod chars;
pub mod config;
pub mod instance;
pub mod pair;
pub mod property;
pub mod scratch;
pub mod tokens;
pub mod vectorizer;

pub use config::{FeatureConfig, FeatureKind, FeatureScope};
pub use scratch::{with_scratch, FeatureScratch};
pub use vectorizer::{
    worker_threads, CancelCheck, DeferredCache, DegradationReport, PairKeys, PropertyFeatureStore,
    SanitizeStats, SharedF32, MAX_ABS_FEATURE,
};

//! End-to-end feature vectorization of a dataset.
//!
//! [`PropertyFeatureStore::build`] runs steps 1–3 of Algorithm 1 once per
//! dataset: it extracts instance features for every property instance,
//! aggregates them into property feature vectors, and caches everything.
//! [`PropertyFeatureStore::pair_vector`] then produces the pair features
//! (step 4) for any candidate pair under any [`FeatureConfig`] — the
//! expensive property-level work is shared across the paper's nine
//! configurations, 25 repetitions, and two training fractions.
//!
//! # Concurrency and determinism
//!
//! Property extraction is embarrassingly parallel (one unit per
//! property), so [`PropertyFeatureStore::build`] fans it out across
//! worker threads; each property's vector is computed by exactly one
//! thread with the same arithmetic as the serial path, so the store
//! contents are bitwise identical for every thread count. The same holds
//! for [`PropertyFeatureStore::pair_matrix_flat`], which partitions pairs
//! into disjoint row ranges of one contiguous output buffer.
//!
//! String distances only depend on the property *names*, which repeat
//! heavily across sources. Names are interned to dense `u32` ids at
//! build time, and memoized distances live in sharded reader–writer maps
//! keyed by `(u32, u32)` — a cache hit costs one shard read-lock and
//! zero allocations. A dense table over every canonical name pair
//! replaces the memo once it is built, or once a feature cache that
//! persisted it is opened.

use crate::config::FeatureConfig;
use crate::{instance, pair, property};
use leapme_data::model::{Dataset, PropertyKey, PropertyPair};
use leapme_embedding::kernels;
use leapme_embedding::store::EmbeddingStore;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Largest absolute value a feature may carry out of the vectorizer.
///
/// The unbounded `numeric_value` instance feature is the only natural
/// escape hatch for huge magnitudes; everything else is a count, a
/// fraction, an embedding component, or a normalized distance. Clamping
/// here keeps one absurd instance value (`"1e308"`) from dominating the
/// z-score statistics of the whole column.
pub const MAX_ABS_FEATURE: f32 = 1e6;

/// Counters from the numeric-hygiene pass applied to every property
/// vector at build time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanitizeStats {
    /// Components that were `NaN`/`±Inf` and were reset to `0.0`.
    pub nonfinite: u64,
    /// Finite components clamped to ±[`MAX_ABS_FEATURE`].
    pub clamped: u64,
}

impl SanitizeStats {
    /// Whether the pass changed nothing.
    pub fn is_clean(&self) -> bool {
        self.nonfinite == 0 && self.clamped == 0
    }
}

/// Replace non-finite components with `0.0` and clamp the rest to
/// ±[`MAX_ABS_FEATURE`], counting every repair.
fn sanitize_vec(v: &mut [f32], stats: &mut SanitizeStats) {
    for x in v {
        if !x.is_finite() {
            *x = 0.0;
            stats.nonfinite += 1;
        } else if x.abs() > MAX_ABS_FEATURE {
            *x = x.signum() * MAX_ABS_FEATURE;
            stats.clamped += 1;
        }
    }
}

/// Which properties lost their embedding signal — the per-run degraded-mode
/// report (DESIGN.md §8).
///
/// A property is *degraded* when every embedding-derived component of its
/// feature vector (instance-embedding average and name embedding) is zero:
/// no token of its name or values resolved to a vector. Such properties
/// are still scored — the 29 non-embedding instance features and the
/// string distances carry the pair — matching the paper's
/// instance-only/non-embedding ablations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Properties with no embedding signal, sorted.
    pub degraded: Vec<PropertyKey>,
    /// Total number of properties in the store.
    pub total: usize,
}

impl DegradationReport {
    /// Fraction of properties that are degraded (`0.0` for an empty store).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.degraded.len() as f64 / self.total as f64
        }
    }

    /// Whether every property has embedding signal.
    pub fn is_clean(&self) -> bool {
        self.degraded.is_empty()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}/{} properties degraded to non-embedding features ({:.0}%)",
            self.degraded.len(),
            self.total,
            self.fraction() * 100.0
        )
    }
}

/// Render a panic payload as a human-readable message (used for
/// [`FeatureError::WorkerPanic`] and reused by downstream crates that
/// isolate their own workers).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}

/// Number of shards in the string-distance cache. Shard choice only
/// affects contention, never results.
const CACHE_SHARDS: usize = 16;

/// Minimum number of work items (properties or pairs) per worker thread;
/// below this, fan-out overhead outweighs the parallelism.
const MIN_ITEMS_PER_THREAD: usize = 16;

/// Worker count for the parallel paths: `LEAPME_THREADS` overrides
/// `available_parallelism` (same policy as `leapme_nn::threads`,
/// duplicated here to keep the crates' dependency graphs disjoint).
/// Re-read on every call so benchmarks can flip modes at runtime.
pub fn worker_threads() -> usize {
    if let Ok(v) = std::env::var("LEAPME_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Cooperative-cancellation callback type: the long-running build/fill
/// entry points poll it between work blocks and bail out with
/// [`FeatureError::Cancelled`] when it returns `true`. Plain closures
/// keep this crate independent of `leapme-core`'s `CancelToken` (which
/// hands its checker down through this type).
pub type CancelCheck<'a> = Option<&'a (dyn Fn() -> bool + Sync)>;

#[inline]
fn is_cancelled(cancel: CancelCheck<'_>) -> bool {
    cancel.is_some_and(|c| c())
}

/// How many rows/properties are processed between cancellation polls in
/// the cancellable entry points.
const CANCEL_BLOCK: usize = 4096;

/// Split `items` into at most `threads` contiguous `(start, end)` chunks.
fn partition(items: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.max(1).min(items.max(1));
    let base = items / threads;
    let extra = items % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    for t in 0..threads {
        let len = base + usize::from(t < extra);
        if len == 0 {
            break;
        }
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Borrowed access to a pair's two [`PropertyKey`]s, letting the fill
/// APIs accept `(PropertyKey, PropertyKey)` tuples and [`PropertyPair`]s
/// alike without cloning keys into a common representation.
pub trait PairKeys: Sync {
    /// The two property keys of the pair.
    fn pair_keys(&self) -> (&PropertyKey, &PropertyKey);
}

impl PairKeys for (PropertyKey, PropertyKey) {
    fn pair_keys(&self) -> (&PropertyKey, &PropertyKey) {
        (&self.0, &self.1)
    }
}

impl PairKeys for PropertyPair {
    fn pair_keys(&self) -> (&PropertyKey, &PropertyKey) {
        (&self.0, &self.1)
    }
}

/// One shard of the string-distance memo table.
type CacheShard = RwLock<HashMap<(u32, u32), [f32; pair::STRING_FEATURES]>>;

/// Sharded `(name id, name id) → string distances` memo table.
struct StringCache {
    shards: Vec<CacheShard>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StringCache {
    fn new() -> Self {
        StringCache {
            shards: (0..CACHE_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard_of(key: (u32, u32)) -> usize {
        // Cheap mix; ids are dense, so spreading the low bits suffices.
        let h = (key.0 as u64).wrapping_mul(0x9E37_79B9).wrapping_add(key.1 as u64);
        (h as usize) % CACHE_SHARDS
    }

    fn get_or_compute(
        &self,
        id_a: u32,
        id_b: u32,
        norm_a: &str,
        norm_b: &str,
    ) -> [f32; pair::STRING_FEATURES] {
        let key = if id_a <= id_b { (id_a, id_b) } else { (id_b, id_a) };
        let shard = &self.shards[Self::shard_of(key)];
        if let Some(v) = shard.read().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Compute outside any lock; distances are symmetric, so the
        // argument order does not matter and concurrent duplicate
        // computations insert the same value. The caller hands over the
        // build-time normalized forms, so the miss path skips the
        // per-call tokenize-and-join of both names.
        let v = pair::string_features_prenormalized(norm_a, norm_b);
        shard.write().insert(key, v);
        v
    }
}

/// Upper bound on run-level pair-table entries. Above this the dense
/// table would cost more memory than the run saves, so
/// [`PropertyFeatureStore::ensure_pair_table`] declines to build it,
/// the feature cache persists none, and lookups stay on the sharded
/// [`StringCache`].
const PAIR_TABLE_MAX_ENTRIES: usize = 2_000_000;

/// A shared, read-only run of `f32`s: an owned `Vec` or a view over a
/// memory-mapped feature-cache section.
pub type SharedF32 = Arc<dyn AsRef<[f32]> + Send + Sync>;

/// Run-level dense memo of string-distance features over *canonical
/// normalized name forms*: every unique normalized pair is scored exactly
/// once per run (or once per feature cache, which persists the table),
/// after which each lookup is one lock-free, hash-free triangular-index
/// read. Names that normalize to the same form (e.g. `"Shutter-Speed"`
/// and `"shutter speed"`) share a canonical id, so cross-block
/// duplicates collapse before any distance kernel runs.
struct PairTable {
    /// Name id → canonical normalized-form id.
    canon: Vec<u32>,
    /// Number of canonical forms.
    n: usize,
    /// Upper-triangular (diagonal included) feature table over canonical
    /// form pairs: `n · (n + 1) / 2` entries of
    /// [`pair::STRING_FEATURES`] floats, row-major. Built in memory or
    /// mapped from a feature cache.
    features: SharedF32,
}

impl PairTable {
    /// Flat index of the canonical pair `(i, j)` with `i ≤ j < n` in the
    /// row-major upper triangle.
    #[inline]
    fn tri(&self, i: usize, j: usize) -> usize {
        debug_assert!(i <= j && j < self.n);
        // Row i starts after rows 0..i of lengths n, n−1, …: written in
        // the underflow-free product form (one factor is always even).
        i * (2 * self.n - i + 1) / 2 + (j - i)
    }

    fn entries(&self) -> usize {
        self.n * (self.n + 1) / 2
    }

    /// The memoized features for the pair of interned name ids.
    #[inline]
    fn get(&self, ia: u32, ib: u32) -> [f32; pair::STRING_FEATURES] {
        let ci = self.canon[ia as usize] as usize;
        let cj = self.canon[ib as usize] as usize;
        let (i, j) = if ci <= cj { (ci, cj) } else { (cj, ci) };
        let at = self.tri(i, j) * pair::STRING_FEATURES;
        let mut out = [0.0; pair::STRING_FEATURES];
        out.copy_from_slice(&(*self.features).as_ref()[at..at + pair::STRING_FEATURES]);
        out
    }

    /// Join a persisted table to the names it was written for. The slab
    /// must hold exactly one entry per canonical form pair of `names`;
    /// anything else means the cache's sections disagree.
    fn join(names: &NameTable, features: SharedF32) -> Result<Self, FeatureError> {
        let forms = canonical_forms(names);
        let n = forms.len();
        let want = n * (n + 1) / 2 * pair::STRING_FEATURES;
        let floats = (*features).as_ref().len();
        if floats != want {
            return Err(FeatureError::MalformedSlab(format!(
                "name-distance table holds {floats} floats; the store's {n} canonical \
                 name forms need {want}"
            )));
        }
        Ok(PairTable {
            canon: canon_ids(names, &forms),
            n,
            features,
        })
    }
}

/// The distinct normalized name forms, sorted: canonical form `i` is
/// `forms[i]`, reproducibly across runs and stores.
fn canonical_forms(names: &NameTable) -> Vec<&str> {
    let mut forms: Vec<&str> = names.normalized_names.iter().map(String::as_str).collect();
    forms.sort_unstable();
    forms.dedup();
    forms
}

/// Name id → canonical form id over the sorted `forms`.
fn canon_ids(names: &NameTable, forms: &[&str]) -> Vec<u32> {
    let form_id: HashMap<&str, u32> = forms
        .iter()
        .enumerate()
        .map(|(i, &f)| (f, i as u32))
        .collect();
    names
        .normalized_names
        .iter()
        .map(|f| form_id[f.as_str()])
        .collect()
}

/// Score the canonical-form pairs of rows `row_start..row_end` into
/// `out` (which must hold exactly those rows' triangle entries). The
/// per-row inner loop covers `j ∈ [i, n)`, matching [`PairTable::tri`]'s
/// layout; distances go through the same prenormalized kernel as the
/// sharded cache, so table entries are bitwise identical to cache
/// entries.
fn fill_pair_table_rows(forms: &[&str], row_start: usize, row_end: usize, out: &mut [f32]) {
    let n = forms.len();
    let mut entries = out.chunks_exact_mut(pair::STRING_FEATURES);
    for i in row_start..row_end {
        for j in i..n {
            let entry = entries
                .next()
                .expect("triangle row range / buffer mismatch");
            entry.copy_from_slice(&pair::string_features_prenormalized(forms[i], forms[j]));
        }
    }
    debug_assert!(
        entries.next().is_none(),
        "triangle row range / buffer mismatch"
    );
}

/// What a zero-copy feature-cache open leaves for the store to decode
/// on first use, so the open allocates nothing per property: the key
/// table, and the persisted name-distance table when the cache has one.
pub trait DeferredCache: Send + Sync {
    /// Row `i`'s key, for every row. Must yield exactly the store's row
    /// count of distinct keys — the cache loader validates the raw key
    /// table before constructing the store.
    fn keys(&self) -> Vec<PropertyKey>;

    /// The persisted canonical-form name-distance table (the slab
    /// [`PropertyFeatureStore::pair_table_slab`] returns), or `None`
    /// when the cache holds none.
    fn pair_table(&self) -> Option<SharedF32>;
}

/// Backing storage for the per-property feature vectors: either an
/// owned map of `Vec<f32>` rows (the build path and the legacy v1
/// cache codec) or an index into one shared contiguous row slab (the
/// zero-copy v2 feature-cache path, where the slab is a view over a
/// memory-mapped container section).
enum Rows {
    Owned(HashMap<PropertyKey, Vec<f32>>),
    Slab {
        /// Key → row index, decoded from `deferred` on first keyed
        /// access, so a zero-copy cache open allocates nothing per
        /// property.
        index: OnceLock<HashMap<PropertyKey, u32>>,
        deferred: Box<dyn DeferredCache>,
        slab: SharedF32,
        row_len: usize,
        /// Row count, known from the slab extent without the index.
        rows: usize,
    },
}

impl Rows {
    /// The slab's key → row map, decoding the key table on first use.
    fn slab_index<'a>(
        index: &'a OnceLock<HashMap<PropertyKey, u32>>,
        deferred: &dyn DeferredCache,
        rows: usize,
    ) -> &'a HashMap<PropertyKey, u32> {
        index.get_or_init(|| {
            let keys = deferred.keys();
            debug_assert_eq!(keys.len(), rows, "key decoder row-count contract");
            keys.into_iter()
                .enumerate()
                .map(|(i, k)| (k, i as u32))
                .collect()
        })
    }

    fn get(&self, key: &PropertyKey) -> Option<&[f32]> {
        match self {
            Rows::Owned(map) => map.get(key).map(Vec::as_slice),
            Rows::Slab {
                index,
                deferred,
                slab,
                row_len,
                rows,
            } => Self::slab_index(index, deferred.as_ref(), *rows)
                .get(key)
                .map(|&i| {
                    let start = i as usize * row_len;
                    &slab.as_ref().as_ref()[start..start + row_len]
                }),
        }
    }

    fn len(&self) -> usize {
        match self {
            Rows::Owned(map) => map.len(),
            Rows::Slab { rows, .. } => *rows,
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache sections still to decode; `None` for owned rows.
    fn deferred(&self) -> Option<&dyn DeferredCache> {
        match self {
            Rows::Owned(_) => None,
            Rows::Slab { deferred, .. } => Some(deferred.as_ref()),
        }
    }

    fn iter(&self) -> Box<dyn Iterator<Item = (&PropertyKey, &[f32])> + '_> {
        match self {
            Rows::Owned(map) => Box::new(map.iter().map(|(k, v)| (k, v.as_slice()))),
            Rows::Slab {
                index,
                deferred,
                slab,
                row_len,
                rows,
            } => {
                let table = Self::slab_index(index, deferred.as_ref(), *rows);
                let data = slab.as_ref().as_ref();
                let row_len = *row_len;
                Box::new(table.iter().map(move |(k, &i)| {
                    let start = i as usize * row_len;
                    (k, &data[start..start + row_len])
                }))
            }
        }
    }
}

/// Precomputed property feature vectors for one dataset, plus an
/// interned-name memo table for name string distances.
pub struct PropertyFeatureStore {
    dim: usize,
    features: Rows,
    /// Interned-name table, derived lazily on first string-feature use:
    /// a zero-copy cache open must cost O(section table), not
    /// O(properties) of sorting, normalizing, and re-hashing names.
    /// Derivation is deterministic, so eager (build) and lazy (load)
    /// stores agree bitwise.
    names: OnceLock<NameTable>,
    string_cache: StringCache,
    /// Run-level dense pair table: joined from the feature cache that
    /// persisted it, or built at most once per store by
    /// [`Self::ensure_pair_table`]. Unset until one of the two happens;
    /// until then lookups stay on `string_cache`.
    pair_table: OnceLock<PairTable>,
    /// Outcome of joining the cache's persisted table to the names,
    /// settled on the first lookup (or by [`Self::join_pair_table`]).
    persisted: OnceLock<Result<(), FeatureError>>,
    /// Lookups served by the dense pair table.
    table_hits: AtomicU64,
    /// Repairs made by the build-time numeric-hygiene pass.
    sanitize: SanitizeStats,
    /// Properties with no embedding signal (degraded mode). Lazy for
    /// the same reason as `names`: the detection scan reads every row.
    degradation: OnceLock<DegradationReport>,
}

/// The interned property-name table: distinct names in sorted order →
/// dense id, plus each name's [`pair::normalize_name`] form so
/// string-cache misses skip re-tokenizing.
struct NameTable {
    /// Distinct property names → dense id.
    name_ids: HashMap<String, u32>,
    /// Normalized form of each interned name, indexed by id.
    normalized_names: Vec<String>,
}

impl PropertyFeatureStore {
    /// Extract and cache property features for every property of
    /// `dataset` (Algorithm 1 lines 2–6), fanning the per-property work
    /// out across [`worker_threads`] threads.
    ///
    /// # Panics
    ///
    /// Panics if a feature worker panics twice (parallel run plus the
    /// serial requeue); use [`Self::try_build`] to handle that as an
    /// error instead.
    pub fn build(dataset: &Dataset, embeddings: &EmbeddingStore) -> Self {
        Self::try_build(dataset, embeddings).expect("feature build failed")
    }

    /// [`Self::build`] with an explicit worker-thread count. The result
    /// is bitwise identical for every `threads` value.
    pub fn build_with_threads(
        dataset: &Dataset,
        embeddings: &EmbeddingStore,
        threads: usize,
    ) -> Self {
        Self::try_build_with_threads(dataset, embeddings, threads).expect("feature build failed")
    }

    /// Fallible [`Self::build`]: a worker panic is retried serially and,
    /// if it repeats, surfaces as [`FeatureError::WorkerPanic`].
    pub fn try_build(
        dataset: &Dataset,
        embeddings: &EmbeddingStore,
    ) -> Result<Self, FeatureError> {
        Self::try_build_with_threads(dataset, embeddings, worker_threads())
    }

    /// [`Self::try_build`] with an explicit worker-thread count. The
    /// result is bitwise identical for every `threads` value.
    pub fn try_build_with_threads(
        dataset: &Dataset,
        embeddings: &EmbeddingStore,
        threads: usize,
    ) -> Result<Self, FeatureError> {
        Self::try_build_cancellable(dataset, embeddings, threads, None)
    }

    /// [`Self::try_build_with_threads`] with cooperative cancellation:
    /// the build polls `cancel` between property blocks (serial path)
    /// and between fan-out rounds (parallel path), returning
    /// [`FeatureError::Cancelled`] once it fires. With `cancel: None`
    /// the output is identical to the other build entry points.
    pub fn try_build_cancellable(
        dataset: &Dataset,
        embeddings: &EmbeddingStore,
        threads: usize,
        cancel: CancelCheck<'_>,
    ) -> Result<Self, FeatureError> {
        if is_cancelled(cancel) {
            return Err(FeatureError::Cancelled);
        }
        let keys: Vec<PropertyKey> = dataset.properties();
        let plen = property::len(embeddings.dim());

        // Fused extraction: each property streams its values through the
        // thread-local scratch straight into its one output vector — no
        // per-value `Vec`, no vector-of-vectors (bitwise identical to the
        // extract-then-aggregate reference, see property.rs oracles).
        let extract_one = |key: &PropertyKey| -> Vec<f32> {
            let instances = dataset.instances_of(key);
            let mut pf = vec![0.0f32; plen];
            crate::scratch::with_scratch(|scratch| {
                property::aggregate_values_into(
                    &key.name,
                    instances.iter().map(|inst| inst.value.as_str()),
                    embeddings,
                    scratch,
                    &mut pf,
                );
            });
            pf
        };

        let mut features = HashMap::with_capacity(keys.len());
        if threads <= 1 || keys.len() < 2 * MIN_ITEMS_PER_THREAD {
            for (i, key) in keys.into_iter().enumerate() {
                if i % CANCEL_BLOCK == 0 && i > 0 && is_cancelled(cancel) {
                    return Err(FeatureError::Cancelled);
                }
                let pf = extract_one(&key);
                features.insert(key, pf);
            }
        } else {
            let chunks = partition(keys.len(), threads);
            // The chunk closure carries the fault hook so an injected
            // panic hits the serial requeue too (its #cap decides whether
            // the requeue recovers or surfaces `WorkerPanic`).
            let extract_chunk = |keys: &[PropertyKey]| {
                #[cfg(feature = "faults")]
                leapme_faults::maybe_panic(leapme_faults::sites::FEATURE_WORKER);
                keys.iter().map(&extract_one).collect::<Vec<Vec<f32>>>()
            };
            // One result slot per chunk; a panicked worker leaves `None`
            // and its range is requeued serially below, so a single bad
            // shard cannot take down the whole build.
            let mut results: Vec<Option<Vec<Vec<f32>>>> = Vec::new();
            results.resize_with(chunks.len(), || None);
            let mut failed: Vec<usize> = Vec::new();
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .iter()
                    .map(|&(start, end)| {
                        let keys = &keys[start..end];
                        let extract_chunk = &extract_chunk;
                        scope.spawn(move |_| extract_chunk(keys))
                    })
                    .collect();
                for (c, h) in handles.into_iter().enumerate() {
                    match h.join() {
                        Ok(v) => results[c] = Some(v),
                        Err(_) => failed.push(c),
                    }
                }
            })
            .expect("feature build scope");
            // Workers run one fan-out round to completion; poll between
            // the round and the serial requeue.
            if is_cancelled(cancel) {
                return Err(FeatureError::Cancelled);
            }
            for c in failed {
                let (start, end) = chunks[c];
                match std::panic::catch_unwind(AssertUnwindSafe(|| {
                    extract_chunk(&keys[start..end])
                })) {
                    Ok(v) => results[c] = Some(v),
                    Err(payload) => {
                        return Err(FeatureError::WorkerPanic {
                            site: "features.worker".into(),
                            message: panic_message(payload.as_ref()),
                        })
                    }
                }
            }
            for (key, pf) in keys.into_iter().zip(
                results
                    .into_iter()
                    .flat_map(|r| r.expect("every chunk resolved")),
            ) {
                features.insert(key, pf);
            }
        }

        // Numeric hygiene at the store boundary: whatever the extractors
        // produced, nothing non-finite or absurdly large escapes into
        // scaling and training.
        let mut sanitize = SanitizeStats::default();
        for v in features.values_mut() {
            sanitize_vec(v, &mut sanitize);
        }

        Ok(Self::from_parts(embeddings.dim(), features, sanitize))
    }

    /// Assemble a store from a complete (already sanitized) feature map —
    /// the shared tail of the build path and the feature-cache load path.
    /// Recomputes the degradation report and the interned name table from
    /// the map, so a cache round-trip reconstructs exactly the state a
    /// fresh build would produce (with an empty string-distance cache;
    /// distances are recomputed deterministically on demand).
    ///
    /// # Panics
    ///
    /// Panics if any vector's length differs from the property-feature
    /// length for `dim` (the cache codec validates lengths first).
    pub fn from_parts(
        dim: usize,
        features: HashMap<PropertyKey, Vec<f32>>,
        sanitize: SanitizeStats,
    ) -> Self {
        let plen = property::len(dim);
        for v in features.values() {
            assert_eq!(v.len(), plen, "property vector length mismatch");
        }
        Self::from_rows(dim, Rows::Owned(features), sanitize)
    }

    /// Build a store over one shared contiguous row slab: row `i` of
    /// `slab` (length `rows × property::len(dim)`) is the property vector
    /// for the `i`-th key `deferred` yields. The slab stays behind the
    /// `Arc`, so a memory-mapped v2 cache section is served without
    /// copying any row out, and `deferred` runs on first use instead of
    /// at construction: the key table on the first keyed access, the
    /// persisted name-distance table on the first name-distance lookup.
    /// Opening a zero-copy cache therefore allocates nothing per
    /// property, and `len()` never forces the key decode.
    ///
    /// Contract: `deferred` yields exactly `rows` distinct keys, row `i`
    /// of the slab belonging to key `i` — the v2 cache loader guarantees
    /// this by validating the raw key table (bounds, UTF-8, strict
    /// ordering) against the CRC-checked section before constructing the
    /// store. A persisted table whose length does not fit the names
    /// fails every lookup with [`FeatureError::MalformedSlab`].
    pub fn from_slab_deferred(
        dim: usize,
        rows: usize,
        deferred: Box<dyn DeferredCache>,
        slab: SharedF32,
        sanitize: SanitizeStats,
    ) -> Result<Self, FeatureError> {
        let row_len = property::len(dim);
        let floats = slab.as_ref().as_ref().len();
        if floats != rows * row_len {
            return Err(FeatureError::MalformedSlab(format!(
                "slab holds {floats} floats, expected {rows} keys x {row_len}"
            )));
        }
        if rows > u32::MAX as usize {
            return Err(FeatureError::MalformedSlab(format!(
                "{rows} keys exceed the u32 row-index space"
            )));
        }
        Ok(Self::from_rows(
            dim,
            Rows::Slab {
                index: OnceLock::new(),
                deferred,
                slab,
                row_len,
                rows,
            },
            sanitize,
        ))
    }

    /// Shared tail of [`Self::from_parts`] / [`Self::from_slab_deferred`]:
    /// row lengths are already validated. The derived tables
    /// (degradation report, interned names, a persisted pair table's
    /// name join) initialize lazily — each scans every row, and paying
    /// them at open would forfeit the zero-copy O(1) open.
    fn from_rows(dim: usize, features: Rows, sanitize: SanitizeStats) -> Self {
        PropertyFeatureStore {
            dim,
            features,
            names: OnceLock::new(),
            string_cache: StringCache::new(),
            pair_table: OnceLock::new(),
            persisted: OnceLock::new(),
            table_hits: AtomicU64::new(0),
            sanitize,
            degradation: OnceLock::new(),
        }
    }

    /// The interned-name table, derived on first use. Names intern in
    /// sorted order so ids are reproducible across runs, thread counts,
    /// and eager-vs-lazy construction.
    fn names(&self) -> &NameTable {
        self.names.get_or_init(|| {
            let mut names: Vec<&str> = self.features.iter().map(|(k, _)| k.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            let normalized_names = names.iter().map(|n| pair::normalize_name(n)).collect();
            let name_ids = names
                .into_iter()
                .enumerate()
                .map(|(i, n)| (n.to_string(), i as u32))
                .collect();
            NameTable {
                name_ids,
                normalized_names,
            }
        })
    }

    /// Iterate over every `(property, feature vector)` entry in the map's
    /// (arbitrary) iteration order — the feature-cache serializer sorts
    /// keys itself for a deterministic byte stream.
    pub fn iter(&self) -> impl Iterator<Item = (&PropertyKey, &[f32])> {
        self.features.iter()
    }

    /// Repairs made by the build-time numeric-hygiene pass.
    pub fn sanitize_stats(&self) -> SanitizeStats {
        self.sanitize
    }

    /// The per-run degraded-mode report: which properties have no
    /// embedding signal and fall back to non-embedding features.
    /// Derived lazily (it scans every row's embedding columns) so a
    /// zero-copy open does not pay for it.
    pub fn degradation(&self) -> &DegradationReport {
        self.degradation.get_or_init(|| {
            let plen = property::len(self.dim);
            // Embedding-derived columns span [29, 29 + 2D) of the
            // property vector (instance-embedding average, then name
            // embedding). All-zero ⇒ the property will be scored from
            // non-embedding features alone.
            let emb_range = instance::EMBEDDING_OFFSET..plen;
            let mut degraded: Vec<PropertyKey> = self
                .features
                .iter()
                .filter(|(_, v)| v[emb_range.clone()].iter().all(|&x| x == 0.0))
                .map(|(k, _)| k.clone())
                .collect();
            degraded.sort();
            DegradationReport {
                degraded,
                total: self.features.len(),
            }
        })
    }

    /// Embedding dimensionality the store was built with.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of properties with cached features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Full pair-feature length (before configuration masking).
    pub fn full_pair_len(&self) -> usize {
        pair::len(self.dim)
    }

    /// The cached property feature vector, if the property exists.
    pub fn property_vector(&self, key: &PropertyKey) -> Option<&[f32]> {
        self.features.get(key)
    }

    /// `(hits, misses)` of the string-distance cache, for tests and
    /// instrumentation.
    pub fn string_cache_stats(&self) -> (u64, u64) {
        (
            self.string_cache.hits.load(Ordering::Relaxed),
            self.string_cache.misses.load(Ordering::Relaxed),
        )
    }

    /// `(canonical forms, table entries, lookups served)` of the dense
    /// pair table, or `None` while the table is neither built nor
    /// joined from the feature cache.
    pub fn pair_table_stats(&self) -> Option<(usize, usize, u64)> {
        let table = self.pair_table.get()?;
        Some((
            table.n,
            table.entries(),
            self.table_hits.load(Ordering::Relaxed),
        ))
    }

    /// Join the feature cache's persisted pair table to the names now
    /// rather than on the first lookup; a no-op for stores without one.
    /// Fails with [`FeatureError::MalformedSlab`] when the table's length
    /// does not fit the store's canonical name forms, and every lookup
    /// then fails the same way.
    pub fn join_pair_table(&self) -> Result<(), FeatureError> {
        self.persisted
            .get_or_init(|| {
                let Some(features) = self.features.deferred().and_then(|d| d.pair_table()) else {
                    return Ok(());
                };
                let table = PairTable::join(self.names(), features)?;
                // Every builder joins first, so nothing else filled the
                // slot while this ran.
                let _ = self.pair_table.set(table);
                Ok(())
            })
            .clone()
    }

    /// The dense pair table, joining a persisted one on first use;
    /// `Ok(None)` while lookups belong to the memo.
    fn table(&self) -> Result<Option<&PairTable>, FeatureError> {
        if let Some(table) = self.pair_table.get() {
            return Ok(Some(table));
        }
        match self.persisted.get() {
            Some(Ok(())) => Ok(None),
            _ => self.join_pair_table().map(|()| self.pair_table.get()),
        }
    }

    /// The dense pair table as one flat slab — `n · (n + 1) / 2` entries
    /// of [`pair::STRING_FEATURES`] floats over the sorted canonical name
    /// forms, row-major upper triangle — which the feature cache
    /// persists. Builds the table first when the store has none; `None`
    /// when it would exceed [`PAIR_TABLE_MAX_ENTRIES`].
    pub fn pair_table_slab(&self) -> Result<Option<&[f32]>, FeatureError> {
        self.ensure_pair_table(usize::MAX);
        Ok(self.table()?.map(|t| (*t.features).as_ref()))
    }

    /// Build the run-level dense pair table (idempotent — at most one
    /// build per store, and none over a joined persisted table), scoring
    /// every unique canonical normalized name pair exactly once up front
    /// so subsequent pair fills never touch a distance kernel or a cache
    /// lock.
    ///
    /// `expected_pairs` is the caller's pair volume; when the table
    /// would hold more than twice that many entries (or more than
    /// [`PAIR_TABLE_MAX_ENTRIES`]) the precompute cannot pay for itself
    /// and the call is a no-op — not a sticky skip, so a later caller
    /// with a larger volume (say, full scoring after a small training
    /// run) still builds it. Either way, downstream feature vectors are
    /// bitwise unchanged: table entries come from the same prenormalized
    /// kernel the cache miss path runs.
    pub fn ensure_pair_table(&self, expected_pairs: usize) {
        self.ensure_pair_table_with_threads(expected_pairs, worker_threads());
    }

    /// [`Self::ensure_pair_table`] with an explicit worker-thread count
    /// (the table fill is embarrassingly parallel over row ranges; the
    /// filled table is bitwise identical for every thread count).
    pub fn ensure_pair_table_with_threads(&self, expected_pairs: usize, threads: usize) {
        // A persisted table — or a failed join, which every lookup
        // reports — settles it.
        if !matches!(self.table(), Ok(None)) {
            return;
        }
        // Canonicalize: names whose normalized forms coincide share one
        // table row.
        let forms = canonical_forms(self.names());
        let n = forms.len();
        let entries = n * (n + 1) / 2;
        if entries == 0
            || entries > PAIR_TABLE_MAX_ENTRIES
            || entries > expected_pairs.saturating_mul(2)
        {
            return;
        }
        self.pair_table
            .get_or_init(|| self.build_pair_table(forms, threads));
    }

    fn build_pair_table(&self, forms: Vec<&str>, threads: usize) -> PairTable {
        let n = forms.len();
        let entries = n * (n + 1) / 2;
        let canon = canon_ids(self.names(), &forms);
        let mut features = vec![0.0f32; entries * pair::STRING_FEATURES];
        let threads = threads.min(n.max(1));
        if threads <= 1 || entries < 2 * MIN_ITEMS_PER_THREAD {
            fill_pair_table_rows(&forms, 0, n, &mut features);
            return PairTable {
                canon,
                n,
                features: Arc::new(features),
            };
        }

        // Entry-balanced row ranges: row i holds n − i entries, so equal
        // row counts would leave the first worker with most of the work.
        let target = entries.div_ceil(threads);
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(threads);
        let (mut start, mut acc) = (0usize, 0usize);
        for i in 0..n {
            acc += n - i;
            if acc >= target || i + 1 == n {
                ranges.push((start, i + 1));
                start = i + 1;
                acc = 0;
            }
        }
        let mut panicked = false;
        crossbeam::thread::scope(|scope| {
            let mut rest: &mut [f32] = &mut features;
            let mut offset = 0usize;
            let mut handles = Vec::with_capacity(ranges.len());
            for &(r0, r1) in &ranges {
                let seg_len = {
                    let tri = |r: usize| r * (2 * n - r + 1) / 2;
                    tri(r1) - tri(r0)
                };
                let (head, tail) = rest.split_at_mut(seg_len * pair::STRING_FEATURES);
                rest = tail;
                offset += seg_len;
                let forms = &forms;
                handles.push(scope.spawn(move |_| fill_pair_table_rows(forms, r0, r1, head)));
            }
            debug_assert_eq!(offset, entries);
            for h in handles {
                if h.join().is_err() {
                    panicked = true;
                }
            }
        })
        .expect("pair-table scope");
        if panicked {
            // A worker died mid-fill; its segment may be half-written.
            // Refill the whole triangle serially — the distance kernels
            // are pure, so the serial pass is the trusted fallback.
            fill_pair_table_rows(&forms, 0, n, &mut features);
        }
        PairTable {
            canon,
            n,
            features: Arc::new(features),
        }
    }

    /// [`Self::ensure_pair_table`] gated on `config` actually selecting
    /// string-distance columns — configurations without them never
    /// consult the table, so the precompute would be pure waste.
    pub fn ensure_pair_table_for(&self, config: &FeatureConfig, expected_pairs: usize) {
        let prop_len = property::len(self.dim);
        let needs_strings = config
            .mask(self.dim)
            .last()
            .is_some_and(|&i| i >= prop_len);
        if needs_strings {
            self.ensure_pair_table(expected_pairs);
        }
    }

    fn string_features_cached(
        &self,
        a: &str,
        b: &str,
    ) -> Result<[f32; pair::STRING_FEATURES], FeatureError> {
        let names = self.names();
        Ok(match (names.name_ids.get(a), names.name_ids.get(b)) {
            (Some(&ia), Some(&ib)) => {
                if let Some(table) = self.table()? {
                    self.table_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(table.get(ia, ib));
                }
                self.string_cache.get_or_compute(
                    ia,
                    ib,
                    &names.normalized_names[ia as usize],
                    &names.normalized_names[ib as usize],
                )
            }
            // Names outside the build-time set (possible only through
            // future API surface) are computed without memoization.
            _ => pair::string_features(a, b),
        })
    }

    /// Both properties' vectors, or the error naming the first unknown.
    fn rows_of(&self, a: &PropertyKey, b: &PropertyKey) -> Result<(&[f32], &[f32]), FeatureError> {
        match (self.features.get(a), self.features.get(b)) {
            (Some(pa), Some(pb)) => Ok((pa, pb)),
            (Some(_), None) => Err(FeatureError::UnknownProperty(b.clone())),
            _ => Err(FeatureError::UnknownProperty(a.clone())),
        }
    }

    /// The full (unmasked) pair feature vector for `(a, b)`
    /// (Algorithm 1 lines 7–8). Fails on an unknown property.
    pub fn full_pair_vector(
        &self,
        a: &PropertyKey,
        b: &PropertyKey,
    ) -> Result<Vec<f32>, FeatureError> {
        let (pa, pb) = self.rows_of(a, b)?;
        let prop_len = property::len(self.dim);
        let mut v = vec![0.0f32; self.full_pair_len()];
        pair::vector_difference_into(&mut v[..prop_len], pa, pb);
        v[prop_len..].copy_from_slice(&self.string_features_cached(&a.name, &b.name)?);
        Ok(v)
    }

    /// The pair feature vector masked to `config`'s columns.
    pub fn pair_vector(
        &self,
        a: &PropertyKey,
        b: &PropertyKey,
        config: &FeatureConfig,
    ) -> Result<Vec<f32>, FeatureError> {
        let full = self.full_pair_vector(a, b)?;
        Ok(config.project(&full, self.dim))
    }

    /// Pair vectors for a batch of pairs under one configuration, row per
    /// pair. Unknown properties yield an error naming the missing key.
    pub fn pair_matrix(
        &self,
        pairs: &[(PropertyKey, PropertyKey)],
        config: &FeatureConfig,
    ) -> Result<Vec<Vec<f32>>, FeatureError> {
        pairs
            .iter()
            .map(|(a, b)| self.pair_vector(a, b, config))
            .collect()
    }

    /// Pair vectors for a batch of pairs written directly into one
    /// contiguous row-major buffer (row per pair, `config`'s columns),
    /// skipping the per-pair `Vec` allocations and the intermediate full
    /// vector of [`Self::pair_matrix`]. The fill is partitioned over
    /// pair chunks across [`worker_threads`] threads; every element is
    /// computed by exactly one thread with serial-identical arithmetic,
    /// so the buffer is bitwise identical for every thread count.
    pub fn pair_matrix_flat(
        &self,
        pairs: &[(PropertyKey, PropertyKey)],
        config: &FeatureConfig,
    ) -> Result<FlatPairMatrix, FeatureError> {
        self.pair_matrix_flat_with_threads(pairs, config, worker_threads())
    }

    /// [`Self::pair_matrix_flat`] with an explicit worker-thread count.
    pub fn pair_matrix_flat_with_threads(
        &self,
        pairs: &[(PropertyKey, PropertyKey)],
        config: &FeatureConfig,
        threads: usize,
    ) -> Result<FlatPairMatrix, FeatureError> {
        self.pair_matrix_flat_cancellable(pairs, config, threads, None)
    }

    /// [`Self::pair_matrix_flat_with_threads`] with cooperative
    /// cancellation, polled every [`CANCEL_BLOCK`] pairs; returns
    /// [`FeatureError::Cancelled`] once the check fires. With
    /// `cancel: None` the output is bitwise identical to the other
    /// pair-matrix entry points.
    pub fn pair_matrix_flat_cancellable(
        &self,
        pairs: &[(PropertyKey, PropertyKey)],
        config: &FeatureConfig,
        threads: usize,
        cancel: CancelCheck<'_>,
    ) -> Result<FlatPairMatrix, FeatureError> {
        if is_cancelled(cancel) {
            return Err(FeatureError::Cancelled);
        }
        // The full pair count is known here (unlike the streaming
        // per-block fills), so this is where the global dedupe table can
        // be sized-gated and built once for the whole matrix.
        self.ensure_pair_table_for(config, pairs.len());
        let mask = config.mask(self.dim);
        let cols = mask.len();
        let mut data = vec![0.0f32; pairs.len() * cols];
        if cancel.is_none() {
            self.fill_pair_rows_threaded(pairs, &mask, &mut data, threads)?;
        } else {
            for (i, chunk) in pairs.chunks(CANCEL_BLOCK).enumerate() {
                if i > 0 && is_cancelled(cancel) {
                    return Err(FeatureError::Cancelled);
                }
                let seg = &mut data[i * CANCEL_BLOCK * cols..][..chunk.len() * cols];
                self.fill_pair_rows_threaded(chunk, &mask, seg, threads)?;
            }
        }
        Ok(FlatPairMatrix {
            rows: pairs.len(),
            cols,
            data,
        })
    }

    /// Fill `out` with the masked features of `pairs` — the streaming
    /// building block: the caller owns (and reuses) both the mask and
    /// the output buffer, so a steady-state block fill performs no
    /// allocations beyond string-cache misses. `mask` comes from
    /// [`FeatureConfig::mask`]. The fill is partitioned across
    /// [`worker_threads`] like [`Self::pair_matrix_flat`], with bitwise
    /// identical results at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != pairs.len() * mask.len()`.
    pub fn fill_pair_block<P: PairKeys>(
        &self,
        pairs: &[P],
        mask: &[usize],
        out: &mut [f32],
    ) -> Result<(), FeatureError> {
        assert_eq!(
            out.len(),
            pairs.len() * mask.len(),
            "output buffer size mismatch"
        );
        // Blocks under the fan-out threshold run serially no matter the
        // thread count, so skip resolving it: `worker_threads` consults
        // the environment and (via `available_parallelism`) the cgroup
        // files, which costs syscalls and a few allocations per call —
        // measurable on the streaming small-block path and pinned by the
        // root alloc-regression suite.
        if pairs.len() < 2 * MIN_ITEMS_PER_THREAD {
            return self.fill_pair_rows(pairs, mask, out);
        }
        self.fill_pair_rows_threaded(pairs, mask, out, worker_threads())
    }

    /// [`Self::fill_pair_block`] with a cancellation poll at entry —
    /// streaming callers hand fixed-size blocks in, so per-block entry
    /// polling already bounds the cancellation latency.
    pub fn fill_pair_block_cancellable<P: PairKeys>(
        &self,
        pairs: &[P],
        mask: &[usize],
        out: &mut [f32],
        cancel: CancelCheck<'_>,
    ) -> Result<(), FeatureError> {
        if is_cancelled(cancel) {
            return Err(FeatureError::Cancelled);
        }
        self.fill_pair_block(pairs, mask, out)
    }

    /// Partition `pairs` into contiguous row ranges of `out` and fill
    /// them on up to `threads` workers (serial under the fan-out
    /// threshold). Every element is computed by exactly one thread with
    /// serial-identical arithmetic.
    fn fill_pair_rows_threaded<P: PairKeys>(
        &self,
        pairs: &[P],
        mask: &[usize],
        out: &mut [f32],
        threads: usize,
    ) -> Result<(), FeatureError> {
        if threads <= 1 || pairs.len() < 2 * MIN_ITEMS_PER_THREAD {
            return self.fill_pair_rows(pairs, mask, out);
        }
        let cols = mask.len();
        let chunks = partition(pairs.len(), threads);
        // The chunk closure carries the fault hook so an injected panic
        // hits the serial requeue too (its #cap decides whether the
        // requeue recovers or surfaces `WorkerPanic`).
        let fill_chunk = |pairs: &[P], seg: &mut [f32]| {
            #[cfg(feature = "faults")]
            leapme_faults::maybe_panic(leapme_faults::sites::PAIR_WORKER);
            self.fill_pair_rows(pairs, mask, seg)
        };
        // One result slot per chunk; a panicked worker leaves `None` and
        // its row range is refilled serially after the scope ends (the
        // mutable borrows of `out` are released by then).
        let mut results: Vec<Option<Result<(), FeatureError>>> = vec![None; chunks.len()];
        let mut failed: Vec<usize> = Vec::new();
        crossbeam::thread::scope(|scope| {
            let mut rest: &mut [f32] = &mut *out;
            let mut handles = Vec::with_capacity(chunks.len());
            for &(start, end) in &chunks {
                let (head, tail) = rest.split_at_mut((end - start) * cols);
                rest = tail;
                let pairs = &pairs[start..end];
                let fill_chunk = &fill_chunk;
                handles.push(scope.spawn(move |_| fill_chunk(pairs, head)));
            }
            for (c, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(r) => results[c] = Some(r),
                    Err(_) => failed.push(c),
                }
            }
        })
        .expect("pair-matrix scope");
        for c in failed {
            let (start, end) = chunks[c];
            let seg = &mut out[start * cols..end * cols];
            match std::panic::catch_unwind(AssertUnwindSafe(|| {
                fill_chunk(&pairs[start..end], seg)
            })) {
                Ok(r) => results[c] = Some(r),
                Err(payload) => {
                    return Err(FeatureError::WorkerPanic {
                        site: "features.pair.worker".into(),
                        message: panic_message(payload.as_ref()),
                    })
                }
            }
        }
        // Report the error of the earliest failing chunk so the
        // result matches what the serial path would return.
        for r in results {
            r.expect("every chunk resolved")?;
        }
        Ok(())
    }

    /// Write the masked pair features of `pairs` into `out` (row-major,
    /// `mask.len()` columns per row). Mask indices below the property
    /// vector length select `|pa[i] − pb[i]|` directly; the rest select
    /// string-distance components — no full vector is materialized.
    fn fill_pair_rows<P: PairKeys>(
        &self,
        pairs: &[P],
        mask: &[usize],
        out: &mut [f32],
    ) -> Result<(), FeatureError> {
        let cols = mask.len();
        let prop_len = property::len(self.dim);
        let needs_strings = mask.last().is_some_and(|&i| i >= prop_len);
        // Identity-prefix masks — notably the full configuration, which
        // is what training and scoring run — take the fused kernel path:
        // one contiguous |pa − pb| sweep per row instead of a per-index
        // gather. `sub_abs` computes the identical expression per
        // element, so the fast path is bitwise-equal to the gather (the
        // thread-sweep and proptest suites below cover both).
        if mask.iter().enumerate().all(|(i, &m)| i == m) {
            let n_prop = cols.min(prop_len);
            for (p, out_row) in pairs.iter().zip(out.chunks_mut(cols.max(1))) {
                let (a, b) = p.pair_keys();
                let (pa, pb) = self.rows_of(a, b)?;
                kernels::sub_abs(&mut out_row[..n_prop], &pa[..n_prop], &pb[..n_prop]);
                if needs_strings {
                    let strings = self.string_features_cached(&a.name, &b.name)?;
                    out_row[n_prop..].copy_from_slice(&strings[..cols - n_prop]);
                }
            }
            return Ok(());
        }
        for (p, out_row) in pairs.iter().zip(out.chunks_mut(cols.max(1))) {
            let (a, b) = p.pair_keys();
            let (pa, pb) = self.rows_of(a, b)?;
            let strings = if needs_strings {
                self.string_features_cached(&a.name, &b.name)?
            } else {
                [0.0; pair::STRING_FEATURES]
            };
            for (&i, o) in mask.iter().zip(out_row.iter_mut()) {
                *o = if i < prop_len {
                    (pa[i] - pb[i]).abs()
                } else {
                    strings[i - prop_len]
                };
            }
        }
        Ok(())
    }
}

/// A batch of pair feature vectors in one contiguous row-major buffer,
/// ready for `Matrix::from_vec(rows, cols, data)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatPairMatrix {
    /// Number of pairs (rows).
    pub rows: usize,
    /// Features per pair (columns).
    pub cols: usize,
    /// Row-major feature values, `rows × cols` long.
    pub data: Vec<f32>,
}

impl FlatPairMatrix {
    /// Decompose into `(rows, cols, data)`.
    pub fn into_parts(self) -> (usize, usize, Vec<f32>) {
        (self.rows, self.cols, self.data)
    }

    /// Immutable view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// Errors produced by the vectorizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeatureError {
    /// A pair referenced a property the store has no features for.
    UnknownProperty(PropertyKey),
    /// A worker thread panicked in the parallel run *and* in the serial
    /// requeue of its shard.
    WorkerPanic {
        /// The worker pool where the panic surfaced (fault-site name).
        site: String,
        /// Rendered panic payload.
        message: String,
    },
    /// A cooperative cancellation check fired mid-build or mid-fill.
    Cancelled,
    /// A shared feature slab's shape disagrees with what it describes:
    /// a row slab with the wrong float count for its keys, or a
    /// persisted name-distance table whose length does not fit the
    /// store's canonical name forms.
    MalformedSlab(String),
}

impl std::fmt::Display for FeatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeatureError::UnknownProperty(p) => write!(f, "unknown property {p}"),
            FeatureError::WorkerPanic { site, message } => {
                write!(f, "worker panic at {site}: {message}")
            }
            FeatureError::Cancelled => write!(f, "feature work cancelled"),
            FeatureError::MalformedSlab(msg) => write!(f, "malformed feature slab: {msg}"),
        }
    }
}

impl std::error::Error for FeatureError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FeatureKind, FeatureScope};
    use leapme_data::model::{Instance, SourceId};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn toy_dataset() -> Dataset {
        let mk = |source: u16, property: &str, entity: &str, value: &str| Instance {
            source: SourceId(source),
            property: property.into(),
            entity: entity.into(),
            value: value.into(),
        };
        let instances = vec![
            mk(0, "megapixels", "e1", "20.1 MP"),
            mk(0, "megapixels", "e2", "24 MP"),
            mk(1, "resolution", "x1", "18 megapixels"),
            mk(1, "weight", "x1", "450 g"),
        ];
        let mut alignment = BTreeMap::new();
        alignment.insert(
            PropertyKey::new(SourceId(0), "megapixels"),
            "resolution".to_string(),
        );
        alignment.insert(
            PropertyKey::new(SourceId(1), "resolution"),
            "resolution".to_string(),
        );
        alignment.insert(
            PropertyKey::new(SourceId(1), "weight"),
            "weight".to_string(),
        );
        Dataset::new("toy", vec!["a".into(), "b".into()], instances, alignment).unwrap()
    }

    fn embeddings() -> EmbeddingStore {
        let mut s = EmbeddingStore::new(4);
        s.insert("megapixels", vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        s.insert("resolution", vec![0.9, 0.1, 0.0, 0.0]).unwrap();
        s.insert("mp", vec![0.95, 0.05, 0.0, 0.0]).unwrap();
        s.insert("weight", vec![0.0, 0.0, 1.0, 0.0]).unwrap();
        s.insert("g", vec![0.0, 0.0, 0.9, 0.1]).unwrap();
        s
    }

    /// A synthetic multi-source dataset big enough to exercise the
    /// parallel build path (≥ 2 × MIN_ITEMS_PER_THREAD properties).
    fn wide_dataset(properties_per_source: usize) -> Dataset {
        let mut instances = Vec::new();
        let mut alignment = BTreeMap::new();
        for source in 0..2u16 {
            for p in 0..properties_per_source {
                let name = format!("prop {p} s{source}");
                for e in 0..3 {
                    instances.push(Instance {
                        source: SourceId(source),
                        property: name.clone(),
                        entity: format!("e{e}"),
                        value: format!("{}.{} units", p * 7 + e, e),
                    });
                }
                alignment.insert(
                    PropertyKey::new(SourceId(source), &name),
                    format!("unified {p}"),
                );
            }
        }
        Dataset::new(
            "wide",
            vec!["a".into(), "b".into()],
            instances,
            alignment,
        )
        .unwrap()
    }

    #[test]
    fn from_parts_round_trips_a_built_store() {
        let ds = toy_dataset();
        let emb = embeddings();
        let built = PropertyFeatureStore::build(&ds, &emb);
        let map: HashMap<PropertyKey, Vec<f32>> = built
            .iter()
            .map(|(k, v)| (k.clone(), v.to_vec()))
            .collect();
        let rebuilt = PropertyFeatureStore::from_parts(built.dim(), map, built.sanitize_stats());
        assert_eq!(rebuilt.len(), built.len());
        assert_eq!(rebuilt.dim(), built.dim());
        assert_eq!(rebuilt.sanitize_stats(), built.sanitize_stats());
        assert_eq!(rebuilt.degradation(), built.degradation());
        for (k, v) in built.iter() {
            let rv = rebuilt.property_vector(k).expect("key survives round trip");
            assert_eq!(
                v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                rv.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            );
        }
        // Pair vectors (which also exercise the rebuilt name interning)
        // agree bitwise.
        let keys = ds.properties();
        let a = &keys[0];
        let b = &keys[1];
        assert_eq!(
            built.full_pair_vector(a, b),
            rebuilt.full_pair_vector(a, b)
        );
    }

    #[test]
    #[should_panic(expected = "property vector length mismatch")]
    fn from_parts_rejects_wrong_vector_length() {
        let mut map = HashMap::new();
        map.insert(PropertyKey::new(SourceId(0), "x"), vec![0.0f32; 3]);
        PropertyFeatureStore::from_parts(4, map, SanitizeStats::default());
    }

    #[test]
    fn builds_features_for_all_properties() {
        let ds = toy_dataset();
        let store = PropertyFeatureStore::build(&ds, &embeddings());
        assert_eq!(store.len(), 3);
        assert_eq!(store.dim(), 4);
        let key = PropertyKey::new(SourceId(0), "megapixels");
        let pf = store.property_vector(&key).unwrap();
        assert_eq!(pf.len(), property::len(4));
    }

    #[test]
    fn full_pair_vector_layout() {
        let ds = toy_dataset();
        let store = PropertyFeatureStore::build(&ds, &embeddings());
        let a = PropertyKey::new(SourceId(0), "megapixels");
        let b = PropertyKey::new(SourceId(1), "resolution");
        let v = store.full_pair_vector(&a, &b).unwrap();
        assert_eq!(v.len(), store.full_pair_len());
        assert_eq!(v.len(), 29 + 2 * 4 + 8);
    }

    #[test]
    fn matching_pair_has_smaller_distances_than_unrelated() {
        let ds = toy_dataset();
        let store = PropertyFeatureStore::build(&ds, &embeddings());
        let mp = PropertyKey::new(SourceId(0), "megapixels");
        let res = PropertyKey::new(SourceId(1), "resolution");
        let wt = PropertyKey::new(SourceId(1), "weight");
        let cfg = FeatureConfig {
            scope: FeatureScope::Names,
            kind: FeatureKind::Embeddings,
        };
        let sim_pair: f32 = store.pair_vector(&mp, &res, &cfg).unwrap().iter().sum();
        let diff_pair: f32 = store.pair_vector(&mp, &wt, &cfg).unwrap().iter().sum();
        // Name-embedding differences should be smaller for the true match.
        assert!(sim_pair < diff_pair, "{sim_pair} vs {diff_pair}");
    }

    #[test]
    fn unknown_property_is_none_or_error() {
        let ds = toy_dataset();
        let store = PropertyFeatureStore::build(&ds, &embeddings());
        let a = PropertyKey::new(SourceId(0), "megapixels");
        let ghost = PropertyKey::new(SourceId(1), "ghost");
        assert_eq!(
            store.full_pair_vector(&a, &ghost),
            Err(FeatureError::UnknownProperty(ghost.clone()))
        );
        let err = store
            .pair_matrix(&[(a.clone(), ghost.clone())], &FeatureConfig::full())
            .unwrap_err();
        assert_eq!(err, FeatureError::UnknownProperty(ghost.clone()));
        let err = store
            .pair_matrix_flat(&[(a, ghost.clone())], &FeatureConfig::full())
            .unwrap_err();
        assert_eq!(err, FeatureError::UnknownProperty(ghost));
    }

    #[test]
    fn pair_matrix_shapes() {
        let ds = toy_dataset();
        let store = PropertyFeatureStore::build(&ds, &embeddings());
        let a = PropertyKey::new(SourceId(0), "megapixels");
        let b = PropertyKey::new(SourceId(1), "resolution");
        let c = PropertyKey::new(SourceId(1), "weight");
        let cfg = FeatureConfig::full();
        let m = store
            .pair_matrix(&[(a.clone(), b), (a, c)], &cfg)
            .unwrap();
        assert_eq!(m.len(), 2);
        assert!(m.iter().all(|r| r.len() == cfg.feature_count(4)));
    }

    #[test]
    fn string_cache_consistency() {
        let ds = toy_dataset();
        let store = PropertyFeatureStore::build(&ds, &embeddings());
        let a = PropertyKey::new(SourceId(0), "megapixels");
        let b = PropertyKey::new(SourceId(1), "resolution");
        let v1 = store.full_pair_vector(&a, &b).unwrap();
        let v2 = store.full_pair_vector(&a, &b).unwrap();
        assert_eq!(v1, v2);
        // Cached direction-independence.
        let v3 = store.full_pair_vector(&b, &a).unwrap();
        assert_eq!(v1, v3);
    }

    #[test]
    fn string_cache_hits_after_first_computation() {
        // Regression for the old double-lock/double-alloc cache: the memo
        // table must actually be consulted — repeated and order-swapped
        // lookups hit, only the first computes.
        let ds = toy_dataset();
        let store = PropertyFeatureStore::build(&ds, &embeddings());
        let a = PropertyKey::new(SourceId(0), "megapixels");
        let b = PropertyKey::new(SourceId(1), "resolution");
        assert_eq!(store.string_cache_stats(), (0, 0));
        store.full_pair_vector(&a, &b).unwrap();
        assert_eq!(store.string_cache_stats(), (0, 1));
        store.full_pair_vector(&a, &b).unwrap();
        store.full_pair_vector(&b, &a).unwrap();
        assert_eq!(store.string_cache_stats(), (2, 1));
        // A distinct name pair misses once, then hits.
        let c = PropertyKey::new(SourceId(1), "weight");
        store.full_pair_vector(&a, &c).unwrap();
        store.full_pair_vector(&a, &c).unwrap();
        assert_eq!(store.string_cache_stats(), (3, 2));
    }

    #[test]
    fn pair_table_matches_cache_bitwise() {
        let ds = toy_dataset();
        let emb = embeddings();
        let cached = PropertyFeatureStore::build(&ds, &emb);
        let tabled = PropertyFeatureStore::build(&ds, &emb);
        tabled.ensure_pair_table(1000);
        assert!(tabled.pair_table_stats().is_some());
        let keys = ds.properties();
        for a in &keys {
            for b in &keys {
                let want = cached.full_pair_vector(a, b).unwrap();
                let got = tabled.full_pair_vector(a, b).unwrap();
                assert_eq!(
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "pair ({a}, {b})"
                );
            }
        }
        // Every lookup was served by the table; the sharded cache never
        // engaged on the tabled store.
        let (_, _, hits) = tabled.pair_table_stats().unwrap();
        assert_eq!(hits as usize, keys.len() * keys.len());
        assert_eq!(tabled.string_cache_stats(), (0, 0));
    }

    #[test]
    fn pair_table_gate_skips_tiny_pair_volumes() {
        let ds = toy_dataset();
        let store = PropertyFeatureStore::build(&ds, &embeddings());
        // 3 names → 6 entries > 2 × 1 expected pair ⇒ skip; lookups
        // stay on the sharded cache.
        store.ensure_pair_table(1);
        assert!(store.pair_table_stats().is_none());
        let a = PropertyKey::new(SourceId(0), "megapixels");
        let b = PropertyKey::new(SourceId(1), "resolution");
        store.full_pair_vector(&a, &b).unwrap();
        assert_eq!(store.string_cache_stats(), (0, 1));
        // The skip is not sticky: a later caller with a larger pair
        // volume (scoring after a small training run) still builds.
        store.ensure_pair_table(1000);
        assert!(store.pair_table_stats().is_some());
    }

    #[test]
    fn ensure_pair_table_for_respects_string_columns() {
        let ds = toy_dataset();
        let store = PropertyFeatureStore::build(&ds, &embeddings());
        // Embeddings-only configurations never read string distances.
        let no_strings = FeatureConfig {
            scope: FeatureScope::Both,
            kind: FeatureKind::Embeddings,
        };
        store.ensure_pair_table_for(&no_strings, 1000);
        assert!(store.pair_table_stats().is_none());
        store.ensure_pair_table_for(&FeatureConfig::full(), 1000);
        assert!(store.pair_table_stats().is_some());
    }

    #[test]
    fn pair_table_parallel_fill_matches_serial() {
        // Enough properties to cross the fan-out threshold; thread-count
        // sweep must be bitwise invisible in the table and in fills
        // routed through it.
        let ds = wide_dataset(24);
        let emb = embeddings();
        let serial = PropertyFeatureStore::build(&ds, &emb);
        serial.ensure_pair_table_with_threads(usize::MAX, 1);
        let pairs: Vec<(PropertyKey, PropertyKey)> = {
            let keys = ds.properties();
            keys.iter()
                .flat_map(|a| keys.iter().map(move |b| (a.clone(), b.clone())))
                .take(200)
                .collect()
        };
        let cfg = FeatureConfig::full();
        let mask = cfg.mask(serial.dim());
        let mut want = vec![0.0f32; pairs.len() * mask.len()];
        serial.fill_pair_block(&pairs, &mask, &mut want).unwrap();
        for threads in [2, 4, 7] {
            let par = PropertyFeatureStore::build(&ds, &emb);
            par.ensure_pair_table_with_threads(usize::MAX, threads);
            assert_eq!(par.pair_table_stats().unwrap().1, serial.pair_table_stats().unwrap().1);
            let mut got = vec![0.0f32; want.len()];
            par.fill_pair_block(&pairs, &mask, &mut got).unwrap();
            assert_eq!(
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn pair_table_collapses_names_sharing_a_normalized_form() {
        // "Shutter-Speed" and "shutter speed" normalize identically, so
        // the table must hold one canonical form for both.
        let mk = |source: u16, property: &str| Instance {
            source: SourceId(source),
            property: property.into(),
            entity: "e".into(),
            value: "1".into(),
        };
        let instances = vec![mk(0, "Shutter-Speed"), mk(1, "shutter speed"), mk(1, "iso")];
        let mut alignment = BTreeMap::new();
        alignment.insert(PropertyKey::new(SourceId(0), "Shutter-Speed"), "s".into());
        alignment.insert(PropertyKey::new(SourceId(1), "shutter speed"), "s".into());
        alignment.insert(PropertyKey::new(SourceId(1), "iso"), "iso".into());
        let ds = Dataset::new("norm", vec!["a".into(), "b".into()], instances, alignment).unwrap();
        let store = PropertyFeatureStore::build(&ds, &embeddings());
        store.ensure_pair_table(1000);
        let (forms, entries, _) = store.pair_table_stats().unwrap();
        assert_eq!(forms, 2, "3 names, 2 canonical forms");
        assert_eq!(entries, 3);
        let a = PropertyKey::new(SourceId(0), "Shutter-Speed");
        let b = PropertyKey::new(SourceId(1), "shutter speed");
        let v = store.full_pair_vector(&a, &b).unwrap();
        // Identical normalized forms ⇒ all eight string distances are 0.
        let prop_len = property::len(store.dim());
        assert!(v[prop_len..].iter().all(|&x| x == 0.0));
    }

    /// The sections a cache loader would defer: keys, and optionally a
    /// persisted name-distance table.
    struct Sections {
        keys: Vec<PropertyKey>,
        table: Option<Vec<f32>>,
    }

    impl DeferredCache for Sections {
        fn keys(&self) -> Vec<PropertyKey> {
            self.keys.clone()
        }

        fn pair_table(&self) -> Option<SharedF32> {
            self.table.clone().map(|t| Arc::new(t) as SharedF32)
        }
    }

    /// `built`'s rows as a deferred slab store carrying `table`.
    fn deferred_copy(
        built: &PropertyFeatureStore,
        table: Option<Vec<f32>>,
    ) -> PropertyFeatureStore {
        let mut rows: Vec<(&PropertyKey, &[f32])> = built.iter().collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        let slab: Vec<f32> = rows.iter().flat_map(|(_, v)| v.iter().copied()).collect();
        let keys = rows.iter().map(|(k, _)| (*k).clone()).collect();
        PropertyFeatureStore::from_slab_deferred(
            built.dim(),
            rows.len(),
            Box::new(Sections { keys, table }),
            Arc::new(slab),
            built.sanitize_stats(),
        )
        .unwrap()
    }

    #[test]
    fn persisted_pair_table_serves_lookups_bitwise_like_the_memo() {
        let ds = wide_dataset(6);
        let emb = embeddings();
        let memo = PropertyFeatureStore::build(&ds, &emb);
        let writer = PropertyFeatureStore::build(&ds, &emb);
        let table = writer.pair_table_slab().unwrap().unwrap().to_vec();
        let mapped = deferred_copy(&writer, Some(table));
        assert!(
            mapped.pair_table_stats().is_none(),
            "joined on first use, not at open"
        );

        let keys = ds.properties();
        let pairs: Vec<(PropertyKey, PropertyKey)> = keys
            .iter()
            .flat_map(|a| keys.iter().map(move |b| (a.clone(), b.clone())))
            .collect();
        let cfg = FeatureConfig::full();
        let mask = cfg.mask(memo.dim());
        let mut want = vec![0.0f32; pairs.len() * mask.len()];
        let mut got = vec![0.0f32; want.len()];
        memo.fill_pair_block(&pairs, &mask, &mut want).unwrap();
        mapped.fill_pair_block(&pairs, &mask, &mut got).unwrap();
        assert_eq!(
            want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert!(memo.pair_table_stats().is_none());
        assert_eq!(
            memo.string_cache_stats().0 + memo.string_cache_stats().1,
            pairs.len() as u64
        );
        assert_eq!(mapped.string_cache_stats(), (0, 0));
        let (forms, entries, hits) = mapped.pair_table_stats().unwrap();
        assert_eq!((forms, entries), (12, 78));
        assert_eq!(hits, pairs.len() as u64);
    }

    #[test]
    fn persisted_pair_table_that_misfits_the_names_fails_every_lookup() {
        let ds = toy_dataset();
        let emb = embeddings();
        let writer = PropertyFeatureStore::build(&ds, &emb);
        let table = writer.pair_table_slab().unwrap().unwrap();
        // 3 forms need 6 entries; keep the first 3 (a whole triangle
        // over 2 forms), as a cache with disagreeing sections would.
        let short = table[..3 * pair::STRING_FEATURES].to_vec();
        let mapped = deferred_copy(&writer, Some(short));
        let a = PropertyKey::new(SourceId(0), "megapixels");
        let b = PropertyKey::new(SourceId(1), "resolution");
        let mask = FeatureConfig::full().mask(mapped.dim());
        let mut out = vec![0.0f32; mask.len()];
        let err = mapped
            .fill_pair_block(&[(a.clone(), b.clone())], &mask, &mut out)
            .unwrap_err();
        assert!(
            matches!(err, FeatureError::MalformedSlab(ref m) if m.contains("3 canonical")),
            "{err}"
        );
        assert!(matches!(
            mapped.full_pair_vector(&a, &b),
            Err(FeatureError::MalformedSlab(_))
        ));
        assert!(mapped.join_pair_table().is_err());
        // No silent fallback: neither the memo nor a fresh build served.
        mapped.ensure_pair_table(usize::MAX);
        assert!(mapped.pair_table_stats().is_none());
        assert_eq!(mapped.string_cache_stats(), (0, 0));
        assert!(mapped.pair_table_slab().is_err());
    }

    #[test]
    fn flat_matrix_matches_nested_for_every_config() {
        let ds = toy_dataset();
        let store = PropertyFeatureStore::build(&ds, &embeddings());
        let a = PropertyKey::new(SourceId(0), "megapixels");
        let b = PropertyKey::new(SourceId(1), "resolution");
        let c = PropertyKey::new(SourceId(1), "weight");
        let pairs = vec![(a.clone(), b.clone()), (a.clone(), c.clone()), (b, c)];
        for cfg in FeatureConfig::all() {
            let nested = store.pair_matrix(&pairs, &cfg).unwrap();
            let flat = store.pair_matrix_flat(&pairs, &cfg).unwrap();
            assert_eq!(flat.rows, pairs.len());
            assert_eq!(flat.cols, cfg.feature_count(store.dim()));
            for (r, row) in nested.iter().enumerate() {
                assert_eq!(flat.row(r), row.as_slice(), "config {cfg}, row {r}");
            }
        }
    }

    #[test]
    fn clean_build_reports_no_repairs() {
        let ds = toy_dataset();
        let store = PropertyFeatureStore::build(&ds, &embeddings());
        assert!(store.sanitize_stats().is_clean());
        assert!(store.degradation().is_clean());
        assert_eq!(store.degradation().total, 3);
        assert_eq!(store.degradation().fraction(), 0.0);
    }

    #[test]
    fn oversized_numeric_is_clamped_not_poisonous() {
        // "1e308" parses to a finite f64; unchecked it becomes Inf as f32
        // and a pair difference turns into NaN. The store must emit only
        // finite, bounded features.
        let mk = |source: u16, property: &str, entity: &str, value: &str| Instance {
            source: SourceId(source),
            property: property.into(),
            entity: entity.into(),
            value: value.into(),
        };
        let instances = vec![
            mk(0, "price", "e1", "1e308"),
            mk(0, "price", "e2", "99"),
            mk(1, "cost", "x1", "-1e308"),
        ];
        let ds = Dataset::new(
            "poison",
            vec!["a".into(), "b".into()],
            instances,
            BTreeMap::new(),
        )
        .unwrap();
        let store = PropertyFeatureStore::build(&ds, &embeddings());
        for key in [
            PropertyKey::new(SourceId(0), "price"),
            PropertyKey::new(SourceId(1), "cost"),
        ] {
            let v = store.property_vector(&key).unwrap();
            assert!(v.iter().all(|x| x.is_finite()), "non-finite feature for {key}");
            assert!(v.iter().all(|x| x.abs() <= MAX_ABS_FEATURE));
        }
        let v = store
            .full_pair_vector(
                &PropertyKey::new(SourceId(0), "price"),
                &PropertyKey::new(SourceId(1), "cost"),
            )
            .unwrap();
        assert!(v.iter().all(|x| x.is_finite()), "pair vector poisoned");
    }

    #[test]
    fn zero_embedding_coverage_reports_all_degraded() {
        // An embedding store that knows none of the dataset's tokens:
        // every property degrades to non-embedding features.
        let ds = toy_dataset();
        let empty = EmbeddingStore::new(4);
        let store = PropertyFeatureStore::build(&ds, &empty);
        assert_eq!(store.degradation().degraded.len(), 3);
        assert_eq!(store.degradation().total, 3);
        assert_eq!(store.degradation().fraction(), 1.0);
        assert!(store.degradation().summary().contains("3/3"));
        // Degraded properties still produce usable pair vectors.
        let a = PropertyKey::new(SourceId(0), "megapixels");
        let b = PropertyKey::new(SourceId(1), "resolution");
        let v = store.full_pair_vector(&a, &b).unwrap();
        assert!(v.iter().all(|x| x.is_finite()));
        assert!(v.iter().any(|&x| x != 0.0), "non-embedding features empty");
    }

    #[test]
    fn partial_embedding_coverage_names_the_degraded_properties() {
        // Embeddings cover the resolution-related tokens but not "weight"
        // or "g" → exactly the weight property degrades.
        let mut emb = EmbeddingStore::new(4);
        emb.insert("megapixels", vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        emb.insert("resolution", vec![0.9, 0.1, 0.0, 0.0]).unwrap();
        emb.insert("mp", vec![0.95, 0.05, 0.0, 0.0]).unwrap();
        let ds = toy_dataset();
        let store = PropertyFeatureStore::build(&ds, &emb);
        assert_eq!(
            store.degradation().degraded,
            vec![PropertyKey::new(SourceId(1), "weight")]
        );
    }

    #[test]
    fn try_build_matches_build() {
        let ds = wide_dataset(24);
        let emb = embeddings();
        let a = PropertyFeatureStore::build_with_threads(&ds, &emb, 3);
        let b = PropertyFeatureStore::try_build_with_threads(&ds, &emb, 3).unwrap();
        assert_eq!(a.len(), b.len());
        for (key, v) in a.iter() {
            assert_eq!(b.property_vector(key).unwrap(), v);
        }
        assert_eq!(a.sanitize_stats(), b.sanitize_stats());
        assert_eq!(a.degradation(), b.degradation());
    }

    #[test]
    fn worker_panic_error_formats() {
        let e = FeatureError::WorkerPanic {
            site: "features.worker".into(),
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "worker panic at features.worker: boom");
    }

    #[test]
    fn parallel_build_is_bitwise_serial() {
        let ds = wide_dataset(24); // 48 properties → parallel path
        let emb = embeddings();
        let serial = PropertyFeatureStore::build_with_threads(&ds, &emb, 1);
        for threads in [2, 3, 5, 8] {
            let par = PropertyFeatureStore::build_with_threads(&ds, &emb, threads);
            assert_eq!(par.len(), serial.len());
            for (key, v) in serial.iter() {
                let pv = par.property_vector(key).unwrap();
                assert_eq!(
                    pv.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    v.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    "property {key} differs at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_flat_matrix_is_bitwise_serial() {
        let ds = wide_dataset(24);
        let emb = embeddings();
        let store = PropertyFeatureStore::build_with_threads(&ds, &emb, 1);
        let keys = {
            let mut k: Vec<PropertyKey> = ds.properties();
            k.sort();
            k
        };
        // All cross-source pairs → well above the parallel threshold.
        let pairs: Vec<(PropertyKey, PropertyKey)> = keys
            .iter()
            .filter(|k| k.source == SourceId(0))
            .flat_map(|a| {
                keys.iter()
                    .filter(|k| k.source == SourceId(1))
                    .map(move |b| (a.clone(), b.clone()))
            })
            .collect();
        assert!(pairs.len() >= 2 * MIN_ITEMS_PER_THREAD);
        let cfg = FeatureConfig::full();
        let serial = store
            .pair_matrix_flat_with_threads(&pairs, &cfg, 1)
            .unwrap();
        for threads in [2, 4, 7] {
            let par = store
                .pair_matrix_flat_with_threads(&pairs, &cfg, threads)
                .unwrap();
            assert_eq!(par.rows, serial.rows);
            assert_eq!(par.cols, serial.cols);
            assert_eq!(
                par.data.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                serial.data.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                "flat matrix differs at {threads} threads"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn flat_matrix_equivalence_on_random_datasets(
            props in 2usize..8, seed in 0u64..50,
        ) {
            // Random small corpus: property names share tokens so string
            // distances and interning get non-trivial coverage.
            let mut s = seed.wrapping_add(41);
            let mut next = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 33) as usize
            };
            let tokens = ["max", "speed", "weight", "zoom", "iso", "price"];
            let mut instances = Vec::new();
            let mut alignment = BTreeMap::new();
            for source in 0..2u16 {
                for p in 0..props {
                    let name = format!(
                        "{} {}",
                        tokens[next() % tokens.len()],
                        tokens[p % tokens.len()]
                    );
                    for e in 0..2 {
                        instances.push(Instance {
                            source: SourceId(source),
                            property: name.clone(),
                            entity: format!("e{e}"),
                            value: format!("{} units", next() % 100),
                        });
                    }
                    alignment.insert(
                        PropertyKey::new(SourceId(source), &name),
                        format!("u{p}"),
                    );
                }
            }
            let ds = Dataset::new("rand", vec!["a".into(), "b".into()], instances, alignment)
                .unwrap();
            let emb = embeddings();
            let store = PropertyFeatureStore::build_with_threads(&ds, &emb, 1);
            let par_store = PropertyFeatureStore::build_with_threads(&ds, &emb, 4);
            let keys: Vec<PropertyKey> = {
                let mut k = ds.properties();
                k.sort();
                k
            };
            for key in &keys {
                let a = store.property_vector(key).unwrap();
                let b = par_store.property_vector(key).unwrap();
                prop_assert_eq!(
                    a.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
                );
            }
            let pairs: Vec<(PropertyKey, PropertyKey)> = keys
                .iter()
                .filter(|k| k.source == SourceId(0))
                .flat_map(|a| {
                    keys.iter()
                        .filter(|k| k.source == SourceId(1))
                        .map(move |b| (a.clone(), b.clone()))
                })
                .collect();
            for cfg in FeatureConfig::all() {
                let nested = store.pair_matrix(&pairs, &cfg).unwrap();
                let flat = store.pair_matrix_flat_with_threads(&pairs, &cfg, 4).unwrap();
                for (r, row) in nested.iter().enumerate() {
                    prop_assert_eq!(
                        flat.row(r).iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        row.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        "config {}, row {}", cfg, r
                    );
                }
            }
        }
    }

    mod cancellation {
        use super::*;

        #[test]
        fn cancelled_build_returns_cancelled() {
            let ds = toy_dataset();
            let cancel = || true;
            let err =
                match PropertyFeatureStore::try_build_cancellable(&ds, &embeddings(), 1, Some(&cancel)) {
                    Err(e) => e,
                    Ok(_) => panic!("expected cancellation"),
                };
            assert_eq!(format!("{err}"), "feature work cancelled");
            assert!(matches!(err, FeatureError::Cancelled));
        }

        #[test]
        fn uncancelled_build_is_bitwise_identical() {
            let ds = wide_dataset(2 * MIN_ITEMS_PER_THREAD);
            let emb = embeddings();
            let plain = PropertyFeatureStore::build_with_threads(&ds, &emb, 4);
            let cancel = || false;
            let polled =
                PropertyFeatureStore::try_build_cancellable(&ds, &emb, 4, Some(&cancel)).unwrap();
            for key in ds.properties() {
                let a = plain.property_vector(&key).unwrap();
                let b = polled.property_vector(&key).unwrap();
                assert_eq!(
                    a.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
                );
            }
        }

        #[test]
        fn pair_fill_cancels_between_blocks() {
            let ds = toy_dataset();
            let store = PropertyFeatureStore::build(&ds, &embeddings());
            let a = PropertyKey::new(SourceId(0), "megapixels");
            let b = PropertyKey::new(SourceId(1), "resolution");
            // More than one CANCEL_BLOCK of pairs so the mid-fill poll runs.
            let pairs: Vec<_> = (0..CANCEL_BLOCK + 8).map(|_| (a.clone(), b.clone())).collect();
            let cfg = FeatureConfig::full();
            use std::sync::atomic::{AtomicUsize, Ordering};
            let calls = AtomicUsize::new(0);
            // First poll (entry) passes, second (between blocks) fires.
            let cancel = || calls.fetch_add(1, Ordering::SeqCst) >= 1;
            let err = store
                .pair_matrix_flat_cancellable(&pairs, &cfg, 1, Some(&cancel))
                .unwrap_err();
            assert!(matches!(err, FeatureError::Cancelled));
            assert!(calls.load(Ordering::SeqCst) >= 2);

            // With cancellation never firing, output matches the plain path.
            let plain = store.pair_matrix_flat_with_threads(&pairs, &cfg, 1).unwrap();
            let never = || false;
            let polled = store
                .pair_matrix_flat_cancellable(&pairs, &cfg, 1, Some(&never))
                .unwrap();
            assert_eq!(plain.row(0), polled.row(0));
            assert_eq!(plain.row(pairs.len() - 1), polled.row(pairs.len() - 1));
        }

        #[test]
        fn pair_block_cancel_entry_check() {
            let ds = toy_dataset();
            let store = PropertyFeatureStore::build(&ds, &embeddings());
            let a = PropertyKey::new(SourceId(0), "megapixels");
            let b = PropertyKey::new(SourceId(1), "resolution");
            let cfg = FeatureConfig::full();
            let mask = cfg.mask(store.dim());
            let pairs = [(a, b)];
            let mut out = vec![0.0f32; mask.len()];
            let cancel = || true;
            let err = store
                .fill_pair_block_cancellable(&pairs, &mask, &mut out, Some(&cancel))
                .unwrap_err();
            assert!(matches!(err, FeatureError::Cancelled));
            store
                .fill_pair_block_cancellable(&pairs, &mask, &mut out, None)
                .unwrap();
            assert!(out.iter().any(|v| *v != 0.0));
        }
    }
}

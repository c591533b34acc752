//! Persisted property-feature cache.
//!
//! Building the [`PropertyFeatureStore`] is pure recomputation: the same
//! dataset and embeddings always produce the same vectors (bitwise — see
//! the thread-sweep suites in `leapme-features`). Repeated runs — bench
//! `--repeats`, `match --model`, durable reruns — therefore waste the
//! whole featurize stage. This module persists the store in the PR 4
//! checkpoint container format (`KIND_FEATURE_CACHE`, CRC-64 trailer,
//! atomic write) together with a fingerprint of everything the vectors
//! depend on: the dataset's full instance stream, the embedding-store
//! contents (including the fuzzy-OOV flag, which changes lookups), and a
//! feature-layout version.
//!
//! A cache is only ever used when every fingerprint component matches;
//! any mismatch, corruption, or format skew surfaces as a typed error
//! and [`load_or_build`] falls back to a clean rebuild (then rewrites the
//! cache). The store caches *full* property vectors — feature
//! configurations are masks applied downstream, so one cache serves all
//! nine paper configurations. Next to them it keeps the store's
//! name-distance table: the eight string distances of every pair of
//! canonical name forms, which depend on the names alone, so a store
//! opened from the cache scores its first request without running a
//! distance kernel.

use crate::CoreError;
use leapme_data::model::{Dataset, PropertyKey, SourceId};
use leapme_embedding::store::EmbeddingStore;
use leapme_features::pair::STRING_FEATURES;
use leapme_features::{CancelCheck, DeferredCache, PropertyFeatureStore, SanitizeStats, SharedF32};
use leapme_nn::checkpoint::{
    self, crc64, CheckpointError, Decoder, Encoder, KIND_FEATURE_CACHE,
};
use leapme_nn::container2::{self, F32Section, Opened, V2Container, V2Writer};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Version of the *feature layout* a cache stores. Bump whenever the
/// meaning, order, or count of property-vector components changes —
/// stale caches from older layouts are then rejected by fingerprint
/// rather than silently decoded into wrong columns.
pub const FEATURE_LAYOUT_VERSION: u32 = 1;

/// Everything a cached feature store depends on, reduced to checkable
/// integers. Recorded at save time, recomputed and compared at load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureFingerprint {
    /// CRC-64 over the dataset identity: name, source list, and the full
    /// instance stream in stored (deterministic) order.
    pub dataset: u64,
    /// Order-independent digest of the embedding store: XOR of per-entry
    /// CRCs, folded with the dimension and the fuzzy-OOV flag.
    pub embeddings: u64,
    /// [`FEATURE_LAYOUT_VERSION`] at write time.
    pub layout: u32,
    /// Embedding dimensionality (also implied by `embeddings`, but kept
    /// separate so a dimension skew yields a precise error).
    pub dim: u64,
}

/// Fingerprint of `dataset`'s feature-relevant content.
pub fn dataset_fingerprint(dataset: &Dataset) -> u64 {
    let mut e = Encoder::new();
    e.u64(dataset.name().len() as u64);
    e.bytes(dataset.name().as_bytes());
    e.u64(dataset.sources().len() as u64);
    for s in dataset.sources() {
        e.u64(s.len() as u64);
        e.bytes(s.as_bytes());
    }
    let instances = dataset.instances();
    e.u64(instances.len() as u64);
    for inst in instances {
        e.u32(u32::from(inst.source.0));
        for field in [&inst.property, &inst.entity, &inst.value] {
            e.u64(field.len() as u64);
            e.bytes(field.as_bytes());
        }
    }
    crc64(&e.finish())
}

/// Fingerprint of `embeddings`' content.
///
/// The store is hash-map-backed with no stable iteration order, so
/// per-entry CRCs are combined with XOR (order-independent), then folded
/// with the dimension and the fuzzy-OOV flag — both of which change
/// every lookup result.
pub fn embeddings_fingerprint(embeddings: &EmbeddingStore) -> u64 {
    let mut acc = 0u64;
    for (word, vector) in embeddings.iter() {
        let mut e = Encoder::new();
        e.u64(word.len() as u64);
        e.bytes(word.as_bytes());
        e.f32s(vector);
        acc ^= crc64(&e.finish());
    }
    let mut tail = Encoder::new();
    tail.u64(acc);
    tail.u64(embeddings.dim() as u64);
    tail.u8(u8::from(embeddings.fuzzy_oov()));
    crc64(&tail.finish())
}

/// The full fingerprint for a `(dataset, embeddings)` input pair.
pub fn fingerprint(dataset: &Dataset, embeddings: &EmbeddingStore) -> FeatureFingerprint {
    FeatureFingerprint {
        dataset: dataset_fingerprint(dataset),
        embeddings: embeddings_fingerprint(embeddings),
        layout: FEATURE_LAYOUT_VERSION,
        dim: embeddings.dim() as u64,
    }
}

/// Which fingerprint component a stale cache failed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mismatch {
    /// The cache was written by a different feature layout.
    Layout {
        /// Layout version recorded in the file.
        found: u32,
        /// Layout version this build produces.
        expected: u32,
    },
    /// The cache was built at a different embedding dimensionality.
    Dim {
        /// Dimension recorded in the file.
        found: u64,
        /// Dimension of the current embeddings.
        expected: u64,
    },
    /// The dataset changed since the cache was written.
    Dataset,
    /// The embedding store changed since the cache was written.
    Embeddings,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mismatch::Layout { found, expected } => write!(
                f,
                "feature layout version {found} (this build produces {expected})"
            ),
            Mismatch::Dim { found, expected } => {
                write!(f, "embedding dimension {found} (current is {expected})")
            }
            Mismatch::Dataset => write!(f, "dataset contents changed"),
            Mismatch::Embeddings => write!(f, "embedding store contents changed"),
        }
    }
}

/// Errors from the cache load path. A [`FeatureCacheError::Stale`] cache
/// is healthy on disk but built from different inputs; everything else
/// is a container-level failure ([`CheckpointError`] keeps the precise
/// corruption mode).
#[derive(Debug)]
pub enum FeatureCacheError {
    /// The container failed to read, parse, or checksum.
    Checkpoint(CheckpointError),
    /// The container is valid but fingerprints do not match the current
    /// inputs.
    Stale(Mismatch),
}

impl std::fmt::Display for FeatureCacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeatureCacheError::Checkpoint(e) => write!(f, "{e}"),
            FeatureCacheError::Stale(m) => write!(f, "stale feature cache: {m}"),
        }
    }
}

impl std::error::Error for FeatureCacheError {}

impl From<CheckpointError> for FeatureCacheError {
    fn from(e: CheckpointError) -> Self {
        FeatureCacheError::Checkpoint(e)
    }
}

/// How [`load_or_build`] obtained its store — surfaced in CLI output so
/// operators (and the verify.sh cache drill) can see cache behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheStatus {
    /// No cache path configured; the store was built directly.
    Disabled,
    /// The cache matched and was loaded; featurization was skipped.
    Hit,
    /// The cache was absent, stale, or damaged; the store was rebuilt
    /// and the cache rewritten. The string says why.
    Rebuilt(String),
}

impl CacheStatus {
    /// One-line human-readable description for CLI output.
    pub fn describe(&self, properties: usize) -> String {
        match self {
            CacheStatus::Disabled => String::new(),
            CacheStatus::Hit => {
                format!("feature cache hit: loaded {properties} property vectors\n")
            }
            CacheStatus::Rebuilt(reason) => {
                format!("feature cache rebuilt ({reason}): stored {properties} property vectors\n")
            }
        }
    }
}

/// The v2 section holding the store's name-distance table.
pub const PAIR_TABLE_SECTION: &str = "pair_table";

/// Persist `store` to `path` under `fp`, atomically, in the v2 section
/// container: a `meta` section (fingerprint + sanitize stats + count),
/// a `keys` section (sorted property keys), a `vectors` section — one
/// contiguous f32 slab, row per property in key order — and a
/// [`PAIR_TABLE_SECTION`] with the store's canonical-form name-distance
/// table ([`PropertyFeatureStore::pair_table_slab`], built here if the
/// store has none). Both slabs load back as zero-copy views. A store
/// whose table would exceed the pair-table cap gets no table section.
pub fn save(
    path: &Path,
    store: &PropertyFeatureStore,
    fp: &FeatureFingerprint,
) -> Result<(), CheckpointError> {
    let table = store
        .pair_table_slab()
        .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
    // Sort keys so the byte stream (and thus the section CRCs) is
    // deterministic across runs and hash-map orders.
    let mut entries: Vec<(&PropertyKey, &[f32])> = store.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    let sanitize = store.sanitize_stats();
    let mut meta = Encoder::new();
    meta.u32(fp.layout);
    meta.u64(fp.dim);
    meta.u64(fp.dataset);
    meta.u64(fp.embeddings);
    meta.u64(sanitize.nonfinite);
    meta.u64(sanitize.clamped);
    meta.u64(entries.len() as u64);
    let plen = leapme_features::property::len(store.dim());
    let mut keys = Encoder::new();
    let mut vectors: Vec<f32> = Vec::with_capacity(entries.len() * plen);
    for (key, vector) in &entries {
        keys.u32(u32::from(key.source.0));
        keys.u64(key.name.len() as u64);
        keys.bytes(key.name.as_bytes());
        vectors.extend_from_slice(vector);
    }
    let mut w = V2Writer::new(KIND_FEATURE_CACHE);
    w.bytes("meta", &meta.finish());
    w.bytes("keys", &keys.finish());
    w.f32s("vectors", &vectors);
    if let Some(table) = table {
        w.f32s(PAIR_TABLE_SECTION, table);
    }
    w.write(path)
}

/// Persist `store` in the legacy v1 single-payload layout. Kept so the
/// v1-compat tests and the `registry upgrade` migration drill can
/// produce old-format files; new writes go through [`save`].
pub fn save_v1(
    path: &Path,
    store: &PropertyFeatureStore,
    fp: &FeatureFingerprint,
) -> Result<(), CheckpointError> {
    let mut e = Encoder::new();
    e.u32(fp.layout);
    e.u64(fp.dim);
    e.u64(fp.dataset);
    e.u64(fp.embeddings);
    let sanitize = store.sanitize_stats();
    e.u64(sanitize.nonfinite);
    e.u64(sanitize.clamped);
    let mut entries: Vec<(&PropertyKey, &[f32])> = store.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    e.u64(entries.len() as u64);
    for (key, vector) in entries {
        e.u32(u32::from(key.source.0));
        e.u64(key.name.len() as u64);
        e.bytes(key.name.as_bytes());
        e.f32s(vector);
    }
    checkpoint::write_container(path, KIND_FEATURE_CACHE, &e.finish())
}

/// Fingerprint precedence shared by both format versions: layout skew
/// first (most actionable), then dimension, dataset, embeddings.
fn check_fingerprint(
    found: &FeatureFingerprint,
    expected: &FeatureFingerprint,
) -> Result<(), FeatureCacheError> {
    if found.layout != expected.layout {
        return Err(FeatureCacheError::Stale(Mismatch::Layout {
            found: found.layout,
            expected: expected.layout,
        }));
    }
    if found.dim != expected.dim {
        return Err(FeatureCacheError::Stale(Mismatch::Dim {
            found: found.dim,
            expected: expected.dim,
        }));
    }
    if found.dataset != expected.dataset {
        return Err(FeatureCacheError::Stale(Mismatch::Dataset));
    }
    if found.embeddings != expected.embeddings {
        return Err(FeatureCacheError::Stale(Mismatch::Embeddings));
    }
    Ok(())
}

/// Load a store from `path`, verifying the container and every
/// fingerprint component against `expected` before any vectors are
/// decoded. Both format versions load: v1 through the legacy payload
/// parse, v2 through zero-copy section views.
pub fn load(
    path: &Path,
    expected: &FeatureFingerprint,
) -> Result<PropertyFeatureStore, FeatureCacheError> {
    match container2::open_any(path, KIND_FEATURE_CACHE)? {
        Opened::V1(payload) => load_v1(&payload, Some(expected)).map(|(s, _)| s),
        Opened::V2(c) => {
            // This is the *self-healing* entry point (`load_or_build`
            // rebuilds on any error), so pay the full per-section
            // checksum sweep up front: a bit-flipped slab must surface
            // here as a typed error — and trigger the rebuild — rather
            // than score silently wrong. The resident path
            // (`load_resident`) stays lazy and leans on the explicit
            // `registry --dir` sweep instead. The same holds for the
            // name-distance table's fit to the names: joined here, on
            // first lookup there.
            c.verify_all()?;
            let (store, _) = load_v2(&c, Some(expected))?;
            store
                .join_pair_table()
                .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
            Ok(store)
        }
    }
}

/// Open a cache with no `(dataset, embeddings)` pair in hand — the
/// registry path, where the recorded fingerprint is the source of truth
/// (the caller cross-checks it against the domain's model). Returns the
/// store, the recorded fingerprint, and the open-path label
/// (`"mmap"` / `"read"` / `"legacy-v1"`).
pub fn load_resident(
    path: &Path,
) -> Result<(PropertyFeatureStore, FeatureFingerprint, &'static str), FeatureCacheError> {
    match container2::open_any(path, KIND_FEATURE_CACHE)? {
        Opened::V1(payload) => load_v1(&payload, None).map(|(s, fp)| (s, fp, "legacy-v1")),
        Opened::V2(c) => {
            let label = c.open_path().label();
            load_v2(&c, None).map(|(s, fp)| (s, fp, label))
        }
    }
}

/// Decode the legacy v1 payload (fingerprint header, then inline
/// per-property vectors), optionally gating on `expected` before any
/// vector bytes are touched.
fn load_v1(
    payload: &[u8],
    expected: Option<&FeatureFingerprint>,
) -> Result<(PropertyFeatureStore, FeatureFingerprint), FeatureCacheError> {
    let mut d = Decoder::new(payload);
    // Struct-literal fields evaluate in written order, which must match
    // the encoded order: layout, dim, dataset, embeddings.
    let fp = FeatureFingerprint {
        layout: d.u32()?,
        dim: d.u64()?,
        dataset: d.u64()?,
        embeddings: d.u64()?,
    };
    if let Some(expected) = expected {
        check_fingerprint(&fp, expected)?;
    }
    let sanitize = SanitizeStats {
        nonfinite: d.u64()?,
        clamped: d.u64()?,
    };
    let dim = fp.dim as usize;
    let expected_len = leapme_features::property::len(dim);
    let n = d.u64()? as usize;
    let mut features: HashMap<PropertyKey, Vec<f32>> = HashMap::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let source = d.u32()?;
        let source = u16::try_from(source)
            .map_err(|_| CheckpointError::Malformed(format!("source id {source} overflows u16")))?;
        let name_len = d.u64()? as usize;
        let name = std::str::from_utf8(d.raw(name_len)?)
            .map_err(|_| CheckpointError::Malformed("property name is not UTF-8".into()))?
            .to_string();
        let vector = d.f32s()?;
        if vector.len() != expected_len {
            return Err(CheckpointError::Malformed(format!(
                "property vector has {} components, layout needs {expected_len}",
                vector.len()
            ))
            .into());
        }
        if features
            .insert(PropertyKey::new(SourceId(source), &name), vector)
            .is_some()
        {
            return Err(
                CheckpointError::Malformed(format!("duplicate property entry {name:?}")).into(),
            );
        }
    }
    d.done()?;
    Ok((
        PropertyFeatureStore::from_parts(dim, features, sanitize),
        fp,
    ))
}

/// Validate the raw `keys` section without allocating per key: every
/// record in bounds, source ids in `u16`, names valid UTF-8, and keys
/// in strictly ascending `(source, name)` order — the order the writer
/// emits, and the invariant that makes duplicates impossible without a
/// hash set. Returns a typed error on the first violation, so the
/// deferred decode in [`load_v2`] can be infallible.
fn validate_keys(bytes: &[u8], count: usize) -> Result<(), CheckpointError> {
    let mut d = Decoder::new(bytes);
    let mut prev: Option<(u16, &str)> = None;
    for row in 0..count {
        let source = d.u32()?;
        let source = u16::try_from(source)
            .map_err(|_| CheckpointError::Malformed(format!("source id {source} overflows u16")))?;
        let name_len = d.u64()? as usize;
        let name = std::str::from_utf8(d.raw(name_len)?)
            .map_err(|_| CheckpointError::Malformed("property name is not UTF-8".into()))?;
        let key = (source, name);
        if let Some(prev) = prev {
            if prev >= key {
                return Err(CheckpointError::Malformed(format!(
                    "key table not strictly ascending at row {row} \
                     (s{}:{} then s{}:{})",
                    prev.0, prev.1, key.0, key.1
                )));
            }
        }
        prev = Some(key);
    }
    d.done()
}

/// Decode a v2 cache: fingerprint from the `meta` section (gated on
/// `expected` before the key table or slabs are touched), keys from
/// `keys`, and the vector slab and name-distance table as zero-copy
/// [`F32Section`] views — the store's rows and table alias the mapped
/// file for its whole lifetime.
///
/// The open is O(1) in the property count: the key table is *validated*
/// here (one allocation-free walk over CRC-checked bytes) but only
/// *decoded* — per-key strings, the row-index map — on the store's
/// first keyed access, and the table is joined to the names on the
/// first name-distance lookup. The table's shape is checked here
/// against the section table alone: a whole triangle of entries over
/// at most one canonical name form per property. The slab views skip
/// their payload checksums entirely
/// ([`V2Container::f32_section_lazy`]); `leapme registry --dir` and the
/// verify.sh corruption drill run the explicit
/// [`V2Container::verify_all`] sweep that covers them.
fn load_v2(
    c: &Arc<V2Container>,
    expected: Option<&FeatureFingerprint>,
) -> Result<(PropertyFeatureStore, FeatureFingerprint), FeatureCacheError> {
    let mut d = Decoder::new(c.section_bytes("meta")?);
    let fp = FeatureFingerprint {
        layout: d.u32()?,
        dim: d.u64()?,
        dataset: d.u64()?,
        embeddings: d.u64()?,
    };
    if let Some(expected) = expected {
        check_fingerprint(&fp, expected)?;
    }
    let sanitize = SanitizeStats {
        nonfinite: d.u64()?,
        clamped: d.u64()?,
    };
    let count = d.u64()? as usize;
    d.done()?;

    validate_keys(c.section_bytes("keys")?, count)?;

    let slab = c.f32_section_lazy("vectors")?;
    let pair_table = if c.sections().any(|s| s.name == PAIR_TABLE_SECTION) {
        let table = c.f32_section_lazy(PAIR_TABLE_SECTION)?;
        let floats = table.as_ref().len();
        match table_forms(floats) {
            Some(forms) if forms <= count => {}
            _ => {
                return Err(CheckpointError::Malformed(format!(
                    "{PAIR_TABLE_SECTION} section holds {floats} floats: not a triangle of \
                     {STRING_FEATURES}-float entries over at most {count} name forms"
                ))
                .into())
            }
        }
        Some(table)
    } else {
        None
    };
    let deferred = Box::new(CacheSections {
        container: Arc::clone(c),
        count,
        pair_table,
    });
    let store = PropertyFeatureStore::from_slab_deferred(
        fp.dim as usize,
        count,
        deferred,
        Arc::new(slab),
        sanitize,
    )
    .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
    Ok((store, fp))
}

/// The canonical name-form count `n` of a name-distance table of
/// `floats` floats, when they make a whole triangle: `n · (n + 1) / 2`
/// entries of [`STRING_FEATURES`] floats.
fn table_forms(floats: usize) -> Option<usize> {
    if !floats.is_multiple_of(STRING_FEATURES) {
        return None;
    }
    let entries = floats / STRING_FEATURES;
    let tri = |n: usize| n * (n + 1) / 2;
    let mut n = (2.0 * entries as f64).sqrt() as usize;
    while tri(n) > entries {
        n -= 1;
    }
    while tri(n + 1) <= entries {
        n += 1;
    }
    (tri(n) == entries).then_some(n)
}

/// The parts of an open v2 cache its store decodes on first use. Lives
/// in the one allocation the open makes for them, whether or not the
/// cache has a table.
struct CacheSections {
    container: Arc<V2Container>,
    count: usize,
    pair_table: Option<F32Section>,
}

impl DeferredCache for CacheSections {
    fn keys(&self) -> Vec<PropertyKey> {
        // Infallible by construction: the section bytes were CRC-checked
        // and shape-validated at open, and `container` keeps the
        // mapping alive.
        let bytes = self
            .container
            .section_bytes("keys")
            .expect("keys section validated at open");
        let mut d = Decoder::new(bytes);
        let mut keys = Vec::with_capacity(self.count);
        for _ in 0..self.count {
            let source = d.u32().expect("validated") as u16;
            let name_len = d.u64().expect("validated") as usize;
            let name = std::str::from_utf8(d.raw(name_len).expect("validated")).expect("validated");
            keys.push(PropertyKey::new(SourceId(source), name));
        }
        keys
    }

    fn pair_table(&self) -> Option<SharedF32> {
        self.pair_table
            .clone()
            .map(|table| Arc::new(table) as SharedF32)
    }
}

/// Obtain the feature store for `(dataset, embeddings)`: from the cache
/// when `path` holds a matching one, otherwise by a (cancellable) clean
/// rebuild — after which the cache is (re)written so the next run hits.
///
/// Every load failure short of I/O on the *write* side degrades to a
/// rebuild, never an error: a stale, truncated, bit-flipped, or
/// wrong-kind file costs one featurize stage, not the run.
pub fn load_or_build(
    path: Option<&Path>,
    dataset: &Dataset,
    embeddings: &EmbeddingStore,
    threads: usize,
    cancel: CancelCheck<'_>,
) -> Result<(PropertyFeatureStore, CacheStatus), CoreError> {
    let Some(path) = path else {
        let store =
            PropertyFeatureStore::try_build_cancellable(dataset, embeddings, threads, cancel)?;
        return Ok((store, CacheStatus::Disabled));
    };
    let fp = fingerprint(dataset, embeddings);
    let reason = match load(path, &fp) {
        Ok(store) => return Ok((store, CacheStatus::Hit)),
        Err(FeatureCacheError::Checkpoint(CheckpointError::Io(e)))
            if e.kind() == std::io::ErrorKind::NotFound =>
        {
            "no cache file yet".to_string()
        }
        Err(e) => e.to_string(),
    };
    let store = PropertyFeatureStore::try_build_cancellable(dataset, embeddings, threads, cancel)?;
    save(path, &store, &fp).map_err(CoreError::Checkpoint)?;
    Ok((store, CacheStatus::Rebuilt(reason)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapme_data::model::Instance;
    use std::collections::BTreeMap;

    fn dataset() -> Dataset {
        let mk = |source: u16, property: &str, entity: &str, value: &str| Instance {
            source: SourceId(source),
            property: property.into(),
            entity: entity.into(),
            value: value.into(),
        };
        let instances = vec![
            mk(0, "megapixels", "e1", "20.1 MP"),
            mk(0, "price", "e1", "1,299.99"),
            mk(1, "resolution", "x1", "18 megapixels"),
            mk(1, "weight", "x1", "450 g"),
        ];
        let mut alignment = BTreeMap::new();
        for (s, p, u) in [
            (0u16, "megapixels", "resolution"),
            (0, "price", "price"),
            (1, "resolution", "resolution"),
            (1, "weight", "weight"),
        ] {
            alignment.insert(PropertyKey::new(SourceId(s), p), u.to_string());
        }
        Dataset::new("toy", vec!["a".into(), "b".into()], instances, alignment).unwrap()
    }

    fn embeddings() -> EmbeddingStore {
        let mut s = EmbeddingStore::new(4);
        s.insert("megapixels", vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        s.insert("resolution", vec![0.9, 0.1, 0.0, 0.0]).unwrap();
        s.insert("weight", vec![0.0, 0.0, 1.0, 0.0]).unwrap();
        s.insert("price", vec![0.0, 1.0, 0.0, 0.0]).unwrap();
        s
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("leapme_feature_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn assert_stores_bitwise_equal(a: &PropertyFeatureStore, b: &PropertyFeatureStore) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.dim(), b.dim());
        assert_eq!(a.sanitize_stats(), b.sanitize_stats());
        assert_eq!(a.degradation(), b.degradation());
        for (k, v) in a.iter() {
            let w = b.property_vector(k).expect("key present");
            assert_eq!(
                v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                w.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "property {k:?}"
            );
        }
    }

    #[test]
    fn save_load_round_trips_bitwise() {
        let ds = dataset();
        let emb = embeddings();
        let store = PropertyFeatureStore::build(&ds, &emb);
        let fp = fingerprint(&ds, &emb);
        let path = temp_path("roundtrip.lfc");
        save(&path, &store, &fp).unwrap();
        let loaded = load(&path, &fp).unwrap();
        assert_stores_bitwise_equal(&store, &loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dataset_change_is_detected() {
        let ds = dataset();
        let emb = embeddings();
        let store = PropertyFeatureStore::build(&ds, &emb);
        let path = temp_path("stale_dataset.lfc");
        save(&path, &store, &fingerprint(&ds, &emb)).unwrap();

        let mk = |value: &str| Instance {
            source: SourceId(0),
            property: "megapixels".into(),
            entity: "e1".into(),
            value: value.into(),
        };
        let mut alignment = BTreeMap::new();
        alignment.insert(
            PropertyKey::new(SourceId(0), "megapixels"),
            "resolution".to_string(),
        );
        let other = Dataset::new(
            "toy",
            vec!["a".into(), "b".into()],
            vec![mk("999 MP")],
            alignment,
        )
        .unwrap();
        let err = load(&path, &fingerprint(&other, &emb)).err().expect("load must fail");
        assert!(matches!(err, FeatureCacheError::Stale(Mismatch::Dataset)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn embedding_change_and_fuzzy_flag_are_detected() {
        let ds = dataset();
        let emb = embeddings();
        let store = PropertyFeatureStore::build(&ds, &emb);
        let path = temp_path("stale_embeddings.lfc");
        save(&path, &store, &fingerprint(&ds, &emb)).unwrap();

        let mut changed = emb.clone();
        changed.insert("new", vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let err = load(&path, &fingerprint(&ds, &changed)).err().expect("load must fail");
        assert!(matches!(
            err,
            FeatureCacheError::Stale(Mismatch::Embeddings)
        ));

        // The fuzzy-OOV flag changes lookup results, so it must also
        // invalidate the cache.
        let mut fuzzed = emb.clone();
        fuzzed.set_fuzzy_oov(true);
        let err = load(&path, &fingerprint(&ds, &fuzzed)).err().expect("load must fail");
        assert!(matches!(
            err,
            FeatureCacheError::Stale(Mismatch::Embeddings)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dim_skew_is_detected_before_decoding() {
        let ds = dataset();
        let emb = embeddings();
        let store = PropertyFeatureStore::build(&ds, &emb);
        let path = temp_path("stale_dim.lfc");
        save(&path, &store, &fingerprint(&ds, &emb)).unwrap();
        let mut other_dim = EmbeddingStore::new(8);
        other_dim
            .insert("megapixels", vec![0.0; 8])
            .unwrap();
        let err = load(&path, &fingerprint(&ds, &other_dim)).err().expect("load must fail");
        assert!(matches!(
            err,
            FeatureCacheError::Stale(Mismatch::Dim { found: 4, expected: 8 })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_surfaces_as_checkpoint_error_and_rebuilds() {
        let ds = dataset();
        let emb = embeddings();
        let store = PropertyFeatureStore::build(&ds, &emb);
        let fp = fingerprint(&ds, &emb);
        let path = temp_path("corrupt.lfc");
        save(&path, &store, &fp).unwrap();

        // Flip one payload byte: the CRC must catch it.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path, &fp).err().expect("load must fail");
        assert!(matches!(
            err,
            FeatureCacheError::Checkpoint(CheckpointError::ChecksumMismatch { .. })
        ));

        // load_or_build degrades to a clean rebuild and heals the file.
        let (rebuilt, status) = load_or_build(Some(&path), &ds, &emb, 1, None).unwrap();
        assert!(matches!(status, CacheStatus::Rebuilt(_)));
        assert_stores_bitwise_equal(&store, &rebuilt);
        let (hit, status) = load_or_build(Some(&path), &ds, &emb, 1, None).unwrap();
        assert_eq!(status, CacheStatus::Hit);
        assert_stores_bitwise_equal(&store, &hit);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_or_build_cold_then_hot() {
        let ds = dataset();
        let emb = embeddings();
        let path = temp_path("cold_hot.lfc");
        std::fs::remove_file(&path).ok();
        let (built, status) = load_or_build(Some(&path), &ds, &emb, 1, None).unwrap();
        assert_eq!(
            status,
            CacheStatus::Rebuilt("no cache file yet".to_string())
        );
        let (loaded, status) = load_or_build(Some(&path), &ds, &emb, 1, None).unwrap();
        assert_eq!(status, CacheStatus::Hit);
        assert_stores_bitwise_equal(&built, &loaded);
        // Without a path the cache machinery is bypassed entirely.
        let (_, status) = load_or_build(None, &ds, &emb, 1, None).unwrap();
        assert_eq!(status, CacheStatus::Disabled);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_cache_still_loads_and_matches_v2() {
        let ds = dataset();
        let emb = embeddings();
        let store = PropertyFeatureStore::build(&ds, &emb);
        let fp = fingerprint(&ds, &emb);
        let v1 = temp_path("compat_v1.lfc");
        let v2 = temp_path("compat_v2.lfc");
        save_v1(&v1, &store, &fp).unwrap();
        save(&v2, &store, &fp).unwrap();
        let from_v1 = load(&v1, &fp).unwrap();
        let from_v2 = load(&v2, &fp).unwrap();
        assert_stores_bitwise_equal(&store, &from_v1);
        assert_stores_bitwise_equal(&from_v1, &from_v2);
        std::fs::remove_file(&v1).ok();
        std::fs::remove_file(&v2).ok();
    }

    #[test]
    fn load_resident_reports_fingerprint_and_open_path() {
        let ds = dataset();
        let emb = embeddings();
        let store = PropertyFeatureStore::build(&ds, &emb);
        let fp = fingerprint(&ds, &emb);
        let v2 = temp_path("resident_v2.lfc");
        let v1 = temp_path("resident_v1.lfc");
        save(&v2, &store, &fp).unwrap();
        save_v1(&v1, &store, &fp).unwrap();
        let (loaded, recorded, path_label) = load_resident(&v2).unwrap();
        assert_stores_bitwise_equal(&store, &loaded);
        assert_eq!(recorded, fp);
        assert!(path_label == "mmap" || path_label == "read", "{path_label}");
        let (loaded, recorded, path_label) = load_resident(&v1).unwrap();
        assert_stores_bitwise_equal(&store, &loaded);
        assert_eq!(recorded, fp);
        assert_eq!(path_label, "legacy-v1");
        std::fs::remove_file(&v2).ok();
        std::fs::remove_file(&v1).ok();
    }

    #[test]
    fn v2_stale_is_detected_before_slab_decode() {
        let ds = dataset();
        let emb = embeddings();
        let store = PropertyFeatureStore::build(&ds, &emb);
        let fp = fingerprint(&ds, &emb);
        let path = temp_path("stale_v2.lfc");
        save(&path, &store, &fp).unwrap();
        let skew = FeatureFingerprint {
            layout: fp.layout + 1,
            ..fp
        };
        let err = load(&path, &skew).err().expect("load must fail");
        assert!(matches!(
            err,
            FeatureCacheError::Stale(Mismatch::Layout { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    /// Names sharing a normalized form ("Shutter-Speed", "shutter
    /// speed", "shutterSpeed") next to a larger source: its test pairs
    /// are few enough next to the forms that scoring a built store stays
    /// on the memo.
    fn shared_form_dataset() -> Dataset {
        let props = [
            (0u16, "Shutter-Speed", "shutter", "1/250 s"),
            (1, "shutter speed", "shutter", "1/500 s"),
            (1, "shutterSpeed", "shutter", "1/1000 s"),
            (1, "ISO", "iso", "3200"),
            (1, "price", "price", "1,299.99"),
            (1, "megapixels", "resolution", "20.1 MP"),
            (1, "zoom", "zoom", "3x"),
        ];
        let mut instances = Vec::new();
        let mut alignment = BTreeMap::new();
        for (s, p, u, value) in props {
            instances.push(Instance {
                source: SourceId(s),
                property: p.into(),
                entity: format!("e{s}"),
                value: value.into(),
            });
            alignment.insert(PropertyKey::new(SourceId(s), p), u.to_string());
        }
        Dataset::new("shared", vec!["a".into(), "b".into()], instances, alignment).unwrap()
    }

    fn tiny_model(ds: &Dataset, emb: &EmbeddingStore) -> crate::pipeline::LeapmeModel {
        use crate::pipeline::{Leapme, LeapmeConfig};
        use leapme_nn::network::TrainConfig;
        use leapme_nn::schedule::LrSchedule;
        use rand::SeedableRng;
        let store = PropertyFeatureStore::build(ds, emb);
        let sources: Vec<SourceId> = (0..ds.sources().len() as u16).map(SourceId).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let train = crate::sampling::training_pairs(ds, &sources, 2, &mut rng);
        let cfg = LeapmeConfig {
            train: TrainConfig {
                schedule: LrSchedule::new(vec![(2, 1e-3)]),
                ..TrainConfig::default()
            },
            hidden: vec![4],
            ..LeapmeConfig::default()
        };
        Leapme::fit(&store, &train, &cfg).unwrap()
    }

    fn bits(scores: &[f32]) -> Vec<u32> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    /// The cache at `from` rewritten to `to` with only the sections
    /// `keep` names, plus `extra` sections appended.
    fn rewrite(from: &Path, to: &Path, keep: &[&str], extra: &[(&str, &[f32])]) {
        let c = V2Container::open(from, KIND_FEATURE_CACHE).unwrap();
        let mut w = V2Writer::new(KIND_FEATURE_CACHE);
        for name in keep {
            match *name {
                "vectors" => w.f32s(name, &c.section_f32_vec(name).unwrap()),
                _ => w.bytes(name, c.section_bytes(name).unwrap()),
            }
        }
        for (name, floats) in extra {
            w.f32s(name, floats);
        }
        w.write(to).unwrap();
    }

    #[test]
    fn a_cache_with_the_table_scores_test_pairs_like_the_memo() {
        let ds = shared_form_dataset();
        let emb = embeddings();
        let model = tiny_model(&ds, &emb);
        let pairs = crate::sampling::test_pairs(&ds, &[]);
        let memo = PropertyFeatureStore::build(&ds, &emb);
        let want = model.score_pairs(&memo, &pairs).unwrap();
        assert!(
            memo.pair_table_stats().is_none(),
            "the reference scored on the memo"
        );
        assert!(memo.string_cache_stats().1 > 0);

        let fp = fingerprint(&ds, &emb);
        let path = temp_path("table_scores.lfc");
        save(&path, &PropertyFeatureStore::build(&ds, &emb), &fp).unwrap();
        let c = V2Container::open(&path, KIND_FEATURE_CACHE).unwrap();
        let names: Vec<&str> = c.sections().map(|s| s.name).collect();
        assert_eq!(names, ["meta", "keys", "vectors", PAIR_TABLE_SECTION]);

        let resident = load_resident(&path).unwrap().0;
        let healed = load(&path, &fp).unwrap();
        for store in [&resident, &healed] {
            let got = model.score_pairs(store, &pairs).unwrap();
            assert_eq!(bits(&got), bits(&want));
            assert_eq!(store.string_cache_stats(), (0, 0), "no distance kernel ran");
            let (forms, entries, hits) = store.pair_table_stats().unwrap();
            // Seven names, five forms: the three shutter spellings share one.
            assert_eq!((forms, entries), (5, 15));
            assert_eq!(hits, pairs.len() as u64);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn caches_without_the_table_load_and_score_on_the_memo() {
        let ds = shared_form_dataset();
        let emb = embeddings();
        let model = tiny_model(&ds, &emb);
        let pairs = crate::sampling::test_pairs(&ds, &[]);
        let want = model
            .score_pairs(&PropertyFeatureStore::build(&ds, &emb), &pairs)
            .unwrap();
        let fp = fingerprint(&ds, &emb);
        let store = PropertyFeatureStore::build(&ds, &emb);
        let (v1, v2, bare) = (
            temp_path("old_v1.lfc"),
            temp_path("old_v2.lfc"),
            temp_path("old_v2_bare.lfc"),
        );
        save_v1(&v1, &store, &fp).unwrap();
        save(&v2, &store, &fp).unwrap();
        rewrite(&v2, &bare, &["meta", "keys", "vectors"], &[]);
        for path in [&v1, &bare] {
            for loaded in [load(path, &fp).unwrap(), load_resident(path).unwrap().0] {
                let got = model.score_pairs(&loaded, &pairs).unwrap();
                assert_eq!(bits(&got), bits(&want), "{}", path.display());
                assert!(loaded.pair_table_stats().is_none(), "{}", path.display());
                assert!(loaded.string_cache_stats().1 > 0, "{}", path.display());
            }
        }
        for p in [v1, v2, bare] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn a_flipped_table_byte_fails_load_typed_and_heals() {
        let ds = shared_form_dataset();
        let emb = embeddings();
        let fp = fingerprint(&ds, &emb);
        let path = temp_path("flipped_table.lfc");
        save(&path, &PropertyFeatureStore::build(&ds, &emb), &fp).unwrap();
        let table = V2Container::open(&path, KIND_FEATURE_CACHE)
            .unwrap()
            .sections()
            .find(|s| s.name == PAIR_TABLE_SECTION)
            .map(|s| (s.offset + s.len / 2) as usize)
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[table] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let err = load(&path, &fp).err().expect("load must fail");
        assert!(matches!(
            err,
            FeatureCacheError::Checkpoint(CheckpointError::ChecksumMismatch { .. })
        ));
        // The resident path maps the table without a checksum pass; the
        // explicit sweep objects, typed.
        load_resident(&path).unwrap();
        let c = V2Container::open(&path, KIND_FEATURE_CACHE).unwrap();
        assert!(matches!(
            c.verify_all(),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        let (_, status) = load_or_build(Some(&path), &ds, &emb, 1, None).unwrap();
        assert!(matches!(status, CacheStatus::Rebuilt(_)));
        assert_eq!(std::fs::read(&path).unwrap().len(), bytes.len());
        let (_, status) = load_or_build(Some(&path), &ds, &emb, 1, None).unwrap();
        assert_eq!(status, CacheStatus::Hit);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_table_that_does_not_fit_the_names_is_malformed() {
        let ds = shared_form_dataset();
        let emb = embeddings();
        let fp = fingerprint(&ds, &emb);
        let good = temp_path("fit_good.lfc");
        save(&good, &PropertyFeatureStore::build(&ds, &emb), &fp).unwrap();
        let sections = ["meta", "keys", "vectors"];

        // A whole triangle, but over four forms where the names have five.
        let short = temp_path("fit_short.lfc");
        rewrite(
            &good,
            &short,
            &sections,
            &[(PAIR_TABLE_SECTION, &[0.5; 10 * STRING_FEATURES])],
        );
        let err = load(&short, &fp).err().expect("load must fail");
        assert!(
            matches!(err, FeatureCacheError::Checkpoint(CheckpointError::Malformed(ref m)) if m.contains("5 canonical")),
            "{err}"
        );
        // The resident open defers the join; the first score reports
        // it, typed, and no distance kernel stands in for the table.
        let (store, _, _) = load_resident(&short).unwrap();
        let model = tiny_model(&ds, &emb);
        let err = model
            .score_pairs(&store, &crate::sampling::test_pairs(&ds, &[]))
            .unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Feature(leapme_features::vectorizer::FeatureError::MalformedSlab(_))
            ),
            "{err}"
        );
        assert_eq!(store.string_cache_stats(), (0, 0));

        // Lengths that are no triangle, or more forms than properties,
        // fail both opens.
        for (tag, floats) in [
            ("ragged", 7),
            ("odd", 2 * STRING_FEATURES),
            ("wide", 36 * STRING_FEATURES),
        ] {
            let path = temp_path(&format!("fit_{tag}.lfc"));
            rewrite(
                &good,
                &path,
                &sections,
                &[(PAIR_TABLE_SECTION, &vec![0.5; floats])],
            );
            for err in [load(&path, &fp).err(), load_resident(&path).err()] {
                assert!(
                    matches!(
                        err,
                        Some(FeatureCacheError::Checkpoint(CheckpointError::Malformed(_)))
                    ),
                    "{tag}: {err:?}"
                );
            }
            std::fs::remove_file(&path).ok();
        }
        for p in [good, short] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn table_forms_recognizes_whole_triangles_only() {
        for n in [0usize, 1, 2, 3, 221, 2000] {
            assert_eq!(table_forms(n * (n + 1) / 2 * STRING_FEATURES), Some(n));
        }
        assert_eq!(table_forms(2 * STRING_FEATURES), None);
        assert_eq!(table_forms(STRING_FEATURES + 1), None);
    }

    #[test]
    fn fingerprints_are_order_and_instance_sensitive() {
        let ds = dataset();
        let emb = embeddings();
        assert_eq!(dataset_fingerprint(&ds), dataset_fingerprint(&ds));
        assert_eq!(embeddings_fingerprint(&emb), embeddings_fingerprint(&emb));
        // Clone resets the fuzzy cache but not the contents: same print.
        assert_eq!(embeddings_fingerprint(&emb), embeddings_fingerprint(&emb.clone()));
    }
}

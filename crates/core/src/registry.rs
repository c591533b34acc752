//! Resident multi-domain model registry.
//!
//! One matching service rarely serves one dataset: every product
//! vertical (or tenant) has its own trained LEAPME model, dataset, and
//! warm feature cache. This module keeps many such *domains* resident
//! behind shared read-only mappings — the v2 zero-copy containers make
//! a cold open cheap (header + section table + lazy CRC), so domains
//! are faulted in on first use instead of at startup, and evicted LRU
//! when a configurable resident-bytes budget is exceeded.
//!
//! Layout on disk: `<root>/<domain>/` with
//!
//! * `model.lmp` — required; v1 or v2 pipeline container,
//! * `dataset.json` — required; the domain's dataset,
//! * `features.lfc` — optional; warm feature cache (v1 or v2; the v2
//!   slab is served zero-copy off the mapping),
//! * `embeddings.txt` — optional fallback; when no cache file exists
//!   the store is built from these embeddings at fault-in.
//!
//! Each domain carries a *generation* counter that survives eviction:
//! [`ModelRegistry::reload`] re-opens the domain from disk and bumps
//! it, which keys the serve layer's single-flight coalescer exactly
//! like the PR8 `integrate-source` swap — in-flight results computed
//! against the old generation are never shared across a swap.
//! Generations are assigned when a load is published, under the
//! registry lock, so concurrent reloads never share one.
//!
//! A resident domain does not hold its parsed dataset: scoring needs
//! only the source count, and the feature cache is checked against the
//! dataset's fingerprint. Each domain keeps a digest of its last
//! verified parse across evictions. Re-faulting an evicted domain whose
//! cache still records that digest's fingerprint reads no byte of
//! `dataset.json`; a reload streams one CRC-64 over it instead of a
//! parse, and parses only when the file changed. [`Domain::dataset`]
//! parses on demand, and verifies, for the callers that need the whole
//! dataset (`/match`).

use crate::feature_cache;
use crate::pipeline::{LeapmeModel, ModelOpenPath};
use crate::CoreError;
use leapme_data::model::Dataset;
use leapme_embedding::store::EmbeddingStore;
use leapme_features::PropertyFeatureStore;
use leapme_nn::checkpoint::{crc64, crc64_update};
use serde::Serialize;
use std::collections::HashMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tunables for one registry instance.
#[derive(Debug, Clone, Default)]
pub struct RegistryConfig {
    /// Soft ceiling on the bytes kept resident across all domains
    /// (model + feature-cache file sizes, or an in-memory estimate for
    /// stores built from embeddings). `None` disables eviction. The
    /// budget is soft in one direction only: a single domain larger
    /// than the whole budget still loads — it just evicts everyone
    /// else first.
    pub resident_budget_bytes: Option<u64>,
}

/// Errors from registry discovery and domain fault-in.
#[derive(Debug)]
pub enum RegistryError {
    /// No domain with that name exists under the registry root — the
    /// serve layer maps this to a typed 404 `unknown-model`.
    UnknownModel(String),
    /// The registry root is unusable (missing, unreadable, or holds no
    /// domain directories).
    InvalidRoot(String),
    /// A domain directory exists but its artifacts are missing,
    /// unreadable, or mutually inconsistent.
    InvalidDomain {
        /// Domain name.
        name: String,
        /// What is wrong with it.
        reason: String,
    },
    /// The domain's model or cache container failed to load.
    Core(CoreError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            RegistryError::InvalidRoot(msg) => write!(f, "invalid registry root: {msg}"),
            RegistryError::InvalidDomain { name, reason } => {
                write!(f, "invalid domain {name:?}: {reason}")
            }
            RegistryError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<CoreError> for RegistryError {
    fn from(e: CoreError) -> Self {
        RegistryError::Core(e)
    }
}

/// A fully faulted-in domain: everything the serve layer needs to score
/// against it. Shared behind `Arc` so eviction (dropping the registry's
/// reference) never invalidates an in-flight request.
pub struct Domain {
    /// Domain name (the directory name under the registry root).
    pub name: String,
    /// The domain's trained model.
    pub model: LeapmeModel,
    /// Number of sources in the domain's dataset.
    pub sources: usize,
    /// Fingerprint of the dataset the feature store was verified
    /// against (or built from) at fault-in.
    pub dataset_fingerprint: u64,
    /// Feature store over the domain's dataset (zero-copy slab when the
    /// cache file is a v2 container).
    pub store: PropertyFeatureStore,
    /// Generation assigned when this load was published; bumped by
    /// [`ModelRegistry::reload`].
    pub generation: u64,
    /// How the model container was opened (`mmap` / `read` /
    /// `legacy-v1`).
    pub model_open_path: ModelOpenPath,
    /// How the feature store was obtained: `mmap` / `read` /
    /// `legacy-v1` for a cache file, `built` when computed from
    /// `embeddings.txt`.
    pub store_source: &'static str,
    /// Bytes this domain accounts against the resident budget.
    pub bytes: u64,
    /// Wall-clock milliseconds the fault-in took.
    pub open_ms: u64,
    /// The domain's `dataset.json`, read again by [`Domain::dataset`].
    dataset_path: PathBuf,
}

impl Domain {
    /// Parse the domain's dataset from disk. Fails with
    /// [`RegistryError::InvalidDomain`] when the file no longer has the
    /// fingerprint the feature store was verified against: the store
    /// then describes other data, and nothing may be matched over it.
    pub fn dataset(&self) -> Result<Dataset, RegistryError> {
        let (dataset, digest) = parse_dataset(&self.name, &self.dataset_path)?;
        if digest.fingerprint != self.dataset_fingerprint {
            return Err(fingerprint_mismatch(
                &self.name,
                self.dataset_fingerprint,
                digest.fingerprint,
            ));
        }
        Ok(dataset)
    }
}

/// What a fault-in takes from `dataset.json`, remembered per domain
/// across evictions: when the file's CRC-64 still matches, the parse
/// is skipped and the fingerprint and source count are reused.
#[derive(Debug, Clone, Copy)]
struct DatasetDigest {
    /// CRC-64 of the file bytes that were parsed.
    crc: u64,
    /// [`feature_cache::dataset_fingerprint`] of the parsed dataset.
    fingerprint: u64,
    /// Number of sources in the parsed dataset.
    sources: usize,
}

/// How a domain is loaded and how [`ModelRegistry::publish`] installs
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Install {
    /// A cold fault-in: installs into an empty slot at the slot's
    /// generation; a domain published while it loaded wins instead. A
    /// re-fault-in trusts the slot's digest when the feature cache
    /// records its fingerprint.
    FaultIn,
    /// A hot-swap: replaces the resident domain at the next generation,
    /// after checking `dataset.json` against the slot's digest.
    Reload,
}

/// Per-domain bookkeeping that survives eviction.
struct DomainSlot {
    resident: Option<Arc<Domain>>,
    generation: u64,
    /// Digest of the last `dataset.json` parse.
    digest: Option<DatasetDigest>,
    /// Logical clock value of the most recent use (LRU order).
    last_used: u64,
    hits: u64,
    misses: u64,
    /// Stats of the last successful fault-in (kept after eviction so
    /// `/metrics` still shows what the domain cost to open).
    bytes: u64,
    open_ms: u64,
    open_path: &'static str,
}

struct Inner {
    domains: HashMap<String, DomainSlot>,
    clock: u64,
    resident_bytes: u64,
    evictions: u64,
}

/// Many domains resident behind one root directory. All mutation is
/// behind one mutex — fault-in work (file I/O, store builds) runs
/// *outside* the lock, so a slow cold open never blocks hot domains.
pub struct ModelRegistry {
    root: PathBuf,
    config: RegistryConfig,
    inner: Mutex<Inner>,
}

/// Point-in-time registry statistics for `/metrics` and the CLI
/// `registry` inspection command.
#[derive(Debug, Clone, Serialize)]
pub struct RegistryStats {
    /// One entry per discovered domain, sorted by name.
    pub domains: Vec<DomainStats>,
    /// Bytes currently accounted as resident.
    pub resident_bytes: u64,
    /// Configured budget, if any.
    pub budget_bytes: Option<u64>,
    /// Domains evicted to stay under the budget since startup.
    pub evictions: u64,
}

/// One domain's statistics.
#[derive(Debug, Clone, Serialize)]
pub struct DomainStats {
    /// Domain name.
    pub name: String,
    /// Whether the domain is currently resident.
    pub resident: bool,
    /// Current generation (survives eviction).
    pub generation: u64,
    /// Bytes of the last successful fault-in (0 if never loaded).
    pub bytes: u64,
    /// Milliseconds the last fault-in took.
    pub open_ms: u64,
    /// Requests served while resident.
    pub hits: u64,
    /// Fault-ins (cold opens).
    pub misses: u64,
    /// Open path of the last fault-in (`mmap`/`read`/`legacy-v1`, empty
    /// if never loaded).
    pub open_path: String,
}

impl ModelRegistry {
    /// Discover the domains under `root`: every direct subdirectory
    /// containing a `model.lmp`. Nothing is loaded yet — domains fault
    /// in lazily on first [`Self::get`].
    pub fn open(root: &Path, config: RegistryConfig) -> Result<Self, RegistryError> {
        let entries = std::fs::read_dir(root)
            .map_err(|e| RegistryError::InvalidRoot(format!("{}: {e}", root.display())))?;
        let mut domains = HashMap::new();
        for entry in entries {
            let entry =
                entry.map_err(|e| RegistryError::InvalidRoot(format!("{}: {e}", root.display())))?;
            let path = entry.path();
            if !path.is_dir() || !path.join("model.lmp").is_file() {
                continue;
            }
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            domains.insert(
                name.to_string(),
                DomainSlot {
                    resident: None,
                    generation: 0,
                    digest: None,
                    last_used: 0,
                    hits: 0,
                    misses: 0,
                    bytes: 0,
                    open_ms: 0,
                    open_path: "",
                },
            );
        }
        if domains.is_empty() {
            return Err(RegistryError::InvalidRoot(format!(
                "{}: no domain directories with a model.lmp",
                root.display()
            )));
        }
        Ok(ModelRegistry {
            root: root.to_path_buf(),
            config,
            inner: Mutex::new(Inner {
                domains,
                clock: 0,
                resident_bytes: 0,
                evictions: 0,
            }),
        })
    }

    /// Sorted names of every discovered domain.
    pub fn domains(&self) -> Vec<String> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut names: Vec<String> = inner.domains.keys().cloned().collect();
        names.sort();
        names
    }

    /// The domain, faulting it in from disk if it is not resident.
    /// Returns [`RegistryError::UnknownModel`] for names that were not
    /// discovered at [`Self::open`] time.
    pub fn get(&self, name: &str) -> Result<Arc<Domain>, RegistryError> {
        let digest = {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.clock += 1;
            let clock = inner.clock;
            let slot = inner
                .domains
                .get_mut(name)
                .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?;
            slot.last_used = clock;
            if let Some(domain) = &slot.resident {
                slot.hits += 1;
                return Ok(Arc::clone(domain));
            }
            slot.digest
        };
        // Cold: load outside the lock. Concurrent callers may race to
        // load the same domain; the first to publish wins and the
        // others get its domain — correctness over cleverness, and the
        // serve layer's single-flight already bounds duplicate match
        // work.
        let loaded = self.load_domain(name, digest, Install::FaultIn)?;
        Ok(self.publish(name, loaded, Install::FaultIn))
    }

    /// Re-open `name` from disk and swap it in atomically with a bumped
    /// generation — the per-domain hot-swap. In-flight requests holding
    /// the old `Arc<Domain>` finish against the old artifacts.
    pub fn reload(&self, name: &str) -> Result<Arc<Domain>, RegistryError> {
        let digest = {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner
                .domains
                .get(name)
                .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?
                .digest
        };
        let loaded = self.load_domain(name, digest, Install::Reload)?;
        Ok(self.publish(name, loaded, Install::Reload))
    }

    /// Install a freshly loaded domain under the lock — assigning its
    /// generation here, so two loads can never publish the same one —
    /// update accounting, and evict LRU residents until the budget
    /// holds again. A fault-in that finds the slot already filled
    /// returns the resident domain and drops its own load.
    fn publish(
        &self,
        name: &str,
        (mut domain, digest): (Domain, DatasetDigest),
        install: Install,
    ) -> Arc<Domain> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.clock += 1;
        let clock = inner.clock;
        let Some(slot) = inner.domains.get_mut(name) else {
            // Every load starts from a discovered name, and the set of
            // names never changes after `open`.
            return Arc::new(domain);
        };
        slot.last_used = clock;
        slot.misses += 1;
        match (install, &slot.resident) {
            (Install::FaultIn, Some(resident)) => return Arc::clone(resident),
            (Install::FaultIn, None) => {}
            (Install::Reload, _) => slot.generation += 1,
        }
        domain.generation = slot.generation;
        let domain = Arc::new(domain);
        let freed = slot
            .resident
            .replace(Arc::clone(&domain))
            .map_or(0, |old| old.bytes);
        slot.digest = Some(digest);
        slot.bytes = domain.bytes;
        slot.open_ms = domain.open_ms;
        slot.open_path = domain.model_open_path.label();
        inner.resident_bytes = inner.resident_bytes - freed + domain.bytes;
        if let Some(budget) = self.config.resident_budget_bytes {
            // Evict least-recently-used residents other than the one
            // just loaded until the budget holds (or nothing is left to
            // evict — one oversized domain is allowed to stay).
            while inner.resident_bytes > budget {
                let victim = inner
                    .domains
                    .iter()
                    .filter(|(n, s)| s.resident.is_some() && n.as_str() != name)
                    .min_by_key(|(_, s)| s.last_used)
                    .map(|(n, _)| n.clone());
                let Some(victim) = victim else { break };
                if let Some(slot) = inner.domains.get_mut(&victim) {
                    if let Some(old) = slot.resident.take() {
                        inner.resident_bytes -= old.bytes;
                        inner.evictions += 1;
                    }
                }
            }
        }
        domain
    }

    /// Drop a domain's resident artifacts (its generation survives, so
    /// a later fault-in continues the sequence). No-op if not resident.
    pub fn evict(&self, name: &str) -> Result<(), RegistryError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let slot = inner
            .domains
            .get_mut(name)
            .ok_or_else(|| RegistryError::UnknownModel(name.to_string()))?;
        if let Some(old) = slot.resident.take() {
            let bytes = old.bytes;
            drop(old);
            inner.resident_bytes -= bytes;
            inner.evictions += 1;
        }
        Ok(())
    }

    /// Point-in-time statistics over every discovered domain.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut domains: Vec<DomainStats> = inner
            .domains
            .iter()
            .map(|(name, slot)| DomainStats {
                name: name.clone(),
                resident: slot.resident.is_some(),
                generation: slot.generation,
                bytes: slot.bytes,
                open_ms: slot.open_ms,
                hits: slot.hits,
                misses: slot.misses,
                open_path: slot.open_path.to_string(),
            })
            .collect();
        domains.sort_by(|a, b| a.name.cmp(&b.name));
        RegistryStats {
            domains,
            resident_bytes: inner.resident_bytes,
            budget_bytes: self.config.resident_budget_bytes,
            evictions: inner.evictions,
        }
    }

    /// Load every artifact of one domain from disk. Runs without the
    /// registry lock held; the generation is left at 0 for
    /// [`Self::publish`] to assign.
    ///
    /// `prior` is the digest of the last verified parse of the domain's
    /// `dataset.json`. With a feature cache, a re-fault-in
    /// ([`Install::FaultIn`]) whose cache records `prior`'s fingerprint
    /// reuses `prior` without reading the file: `/score` needs only the
    /// source count, and the cache's vectors are those of the verified
    /// dataset. Otherwise a file whose streamed CRC-64 still matches
    /// `prior` is not parsed again. The fingerprint check against the
    /// cache runs either way.
    fn load_domain(
        &self,
        name: &str,
        prior: Option<DatasetDigest>,
        install: Install,
    ) -> Result<(Domain, DatasetDigest), RegistryError> {
        let dir = self.root.join(name);
        let started = Instant::now();
        let model_path = dir.join("model.lmp");
        let (model, model_open_path) = LeapmeModel::load_with_report(&model_path)?;
        let dataset_path = dir.join("dataset.json");

        let cache_path = dir.join("features.lfc");
        let mut bytes = file_len(&model_path);
        let (store, store_source, digest) = if cache_path.is_file() {
            let (store, recorded, label) = feature_cache::load_resident(&cache_path)
                .map_err(|e| invalid_file(name, &cache_path, e))?;
            let digest = match prior {
                Some(prior)
                    if install == Install::FaultIn && recorded.dataset == prior.fingerprint =>
                {
                    prior
                }
                Some(prior) if file_crc64(name, &dataset_path)? == prior.crc => prior,
                _ => parse_dataset(name, &dataset_path)?.1,
            };
            // The cache carries no embeddings to re-fingerprint against
            // here; the dataset half of the fingerprint is checkable
            // and must match, or the cache belongs to different data.
            if recorded.dataset != digest.fingerprint {
                return Err(fingerprint_mismatch(
                    name,
                    recorded.dataset,
                    digest.fingerprint,
                ));
            }
            bytes += file_len(&cache_path);
            (store, label, digest)
        } else {
            let emb_path = dir.join("embeddings.txt");
            if !emb_path.is_file() {
                return Err(RegistryError::InvalidDomain {
                    name: name.to_string(),
                    reason: "neither features.lfc nor embeddings.txt present".to_string(),
                });
            }
            // Building the store needs the whole dataset: parse.
            let (dataset, digest) = parse_dataset(name, &dataset_path)?;
            let embeddings = EmbeddingStore::load_text(&emb_path)
                .map_err(|e| invalid_file(name, &emb_path, e))?;
            let store = PropertyFeatureStore::build(&dataset, &embeddings);
            // Estimate: the store owns its vectors, so account the slab
            // it would occupy.
            bytes += (store.len() * leapme_features::property::len(store.dim()) * 4) as u64;
            (store, "built", digest)
        };

        let domain = Domain {
            name: name.to_string(),
            model,
            sources: digest.sources,
            dataset_fingerprint: digest.fingerprint,
            store,
            generation: 0,
            model_open_path,
            store_source,
            bytes,
            open_ms: started.elapsed().as_millis() as u64,
            dataset_path,
        };
        Ok((domain, digest))
    }
}

/// Read and parse `dataset.json`, digesting the very bytes parsed.
fn parse_dataset(name: &str, path: &Path) -> Result<(Dataset, DatasetDigest), RegistryError> {
    let json = std::fs::read_to_string(path).map_err(|e| invalid_file(name, path, e))?;
    let dataset = Dataset::from_json(&json).map_err(|e| invalid_file(name, path, e))?;
    let digest = DatasetDigest {
        crc: crc64(json.as_bytes()),
        fingerprint: feature_cache::dataset_fingerprint(&dataset),
        sources: dataset.sources().len(),
    };
    Ok((dataset, digest))
}

/// CRC-64 of a file, streamed through a fixed stack buffer so checking
/// an unchanged dataset allocates nothing however large it is.
fn file_crc64(name: &str, path: &Path) -> Result<u64, RegistryError> {
    let mut file = std::fs::File::open(path).map_err(|e| invalid_file(name, path, e))?;
    let mut buf = [0u8; 64 * 1024];
    let mut crc = 0;
    loop {
        match file.read(&mut buf) {
            Ok(0) => return Ok(crc),
            Ok(n) => crc = crc64_update(crc, &buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(invalid_file(name, path, e)),
        }
    }
}

/// The typed error for a domain file that cannot be read or decoded.
fn invalid_file(name: &str, path: &Path, e: impl std::fmt::Display) -> RegistryError {
    RegistryError::InvalidDomain {
        name: name.to_string(),
        reason: format!("{}: {e}", path.display()),
    }
}

/// The typed error for a feature store whose recorded dataset
/// fingerprint differs from the dataset's.
fn fingerprint_mismatch(name: &str, store: u64, dataset: u64) -> RegistryError {
    RegistryError::InvalidDomain {
        name: name.to_string(),
        reason: format!(
            "feature store fingerprint {store:#018x} does not match dataset {dataset:#018x}"
        ),
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Leapme, LeapmeConfig};
    use crate::sampling;
    use leapme_data::model::{Instance, PropertyKey, SourceId};
    use leapme_nn::network::TrainConfig;
    use leapme_nn::schedule::LrSchedule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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

    /// Write `n` domain dirs (dom0..) sharing one tiny trained model,
    /// dataset, and v2 feature cache. Returns the registry root.
    fn registry_root(tag: &str, n: usize) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "leapme-registry-{tag}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();

        let ds = dataset();
        let emb = embeddings();
        let store = PropertyFeatureStore::build(&ds, &emb);
        let mut rng = StdRng::seed_from_u64(3);
        let train = sampling::training_pairs(&ds, &[SourceId(0), SourceId(1)], 2, &mut rng);
        let cfg = LeapmeConfig {
            train: TrainConfig {
                schedule: LrSchedule::new(vec![(2, 1e-3)]),
                ..TrainConfig::default()
            },
            hidden: vec![4],
            ..LeapmeConfig::default()
        };
        let model = Leapme::fit(&store, &train, &cfg).unwrap();
        let fp = feature_cache::fingerprint(&ds, &emb);
        for i in 0..n {
            let dir = root.join(format!("dom{i}"));
            std::fs::create_dir_all(&dir).unwrap();
            model.save(&dir.join("model.lmp")).unwrap();
            std::fs::write(dir.join("dataset.json"), ds.to_json()).unwrap();
            feature_cache::save(&dir.join("features.lfc"), &store, &fp).unwrap();
        }
        root
    }

    #[test]
    fn unknown_model_is_a_typed_error() {
        let root = registry_root("unknown", 1);
        let reg = ModelRegistry::open(&root, RegistryConfig::default()).unwrap();
        match reg.get("nope") {
            Err(RegistryError::UnknownModel(name)) => assert_eq!(name, "nope"),
            other => panic!("expected UnknownModel, got {other:?}", other = other.err()),
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn empty_root_is_invalid() {
        let root = std::env::temp_dir().join(format!("leapme-registry-empty-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        assert!(matches!(
            ModelRegistry::open(&root, RegistryConfig::default()),
            Err(RegistryError::InvalidRoot(_))
        ));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fault_in_counts_misses_then_hits() {
        let root = registry_root("hits", 1);
        let reg = ModelRegistry::open(&root, RegistryConfig::default()).unwrap();
        assert_eq!(reg.domains(), vec!["dom0".to_string()]);
        let d1 = reg.get("dom0").unwrap();
        let d2 = reg.get("dom0").unwrap();
        assert!(Arc::ptr_eq(&d1, &d2), "hit must share the resident Arc");
        assert!(d1.bytes > 0);
        assert!(d1.store.len() == 4);
        let stats = reg.stats();
        assert_eq!(stats.domains.len(), 1);
        let s = &stats.domains[0];
        assert!(s.resident);
        assert_eq!((s.misses, s.hits), (1, 1));
        assert!(s.open_path == "mmap" || s.open_path == "read", "{}", s.open_path);
        assert_eq!(stats.resident_bytes, d1.bytes);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reload_bumps_generation_and_old_arc_survives() {
        let root = registry_root("reload", 1);
        let reg = ModelRegistry::open(&root, RegistryConfig::default()).unwrap();
        let old = reg.get("dom0").unwrap();
        assert_eq!(old.generation, 0);
        let new = reg.reload("dom0").unwrap();
        assert_eq!(new.generation, 1);
        assert!(!Arc::ptr_eq(&old, &new));
        // The evicted-by-swap domain stays fully usable for in-flight
        // work: scoring over the old mapping must still succeed.
        let pairs = sampling::test_pairs(&old.dataset().unwrap(), &[]);
        let a = old.model.score_pairs(&old.store, &pairs).unwrap();
        let b = new.model.score_pairs(&new.store, &pairs).unwrap();
        assert_eq!(a, b, "identical artifacts must score identically");
        assert_eq!(reg.stats().domains[0].generation, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reloads_published_in_either_order_get_the_next_two_generations() {
        let root = registry_root("reload-race", 1);
        let reg = ModelRegistry::open(&root, RegistryConfig::default()).unwrap();
        reg.get("dom0").unwrap();
        for first_published in [0, 1] {
            let g = reg.stats().domains[0].generation;
            // Both loads finish before either publishes, as two
            // concurrent `/reload`s released together would.
            let mut loads = [
                Some(reg.load_domain("dom0", None, Install::Reload).unwrap()),
                Some(reg.load_domain("dom0", None, Install::Reload).unwrap()),
            ];
            let mut publish =
                |i: usize| reg.publish("dom0", loads[i].take().unwrap(), Install::Reload);
            let a = publish(first_published);
            let b = publish(1 - first_published);
            assert_eq!((a.generation, b.generation), (g + 1, g + 2));
            assert!(
                Arc::ptr_eq(&reg.get("dom0").unwrap(), &b),
                "the last publish is resident"
            );
            assert_eq!(reg.stats().domains[0].generation, g + 2);
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fault_in_published_after_a_reload_keeps_the_reloaded_domain() {
        let root = registry_root("faultin-race", 1);
        let reg = ModelRegistry::open(&root, RegistryConfig::default()).unwrap();
        // A cold `get` loads, then a `/reload` completes before it
        // publishes.
        let cold = reg.load_domain("dom0", None, Install::FaultIn).unwrap();
        let reloaded = reg.reload("dom0").unwrap();
        assert_eq!(reloaded.generation, 1);
        let got = reg.publish("dom0", cold, Install::FaultIn);
        assert!(
            Arc::ptr_eq(&got, &reloaded),
            "the late fault-in must not replace the reload"
        );
        assert_eq!(reg.stats().domains[0].generation, 1, "no rollback");
        assert!(Arc::ptr_eq(&reg.get("dom0").unwrap(), &reloaded));
        std::fs::remove_dir_all(&root).ok();
    }

    /// Whether `result` is the typed refusal of a dataset whose
    /// fingerprint no longer matches the feature store.
    fn is_fingerprint_mismatch<T>(result: Result<T, RegistryError>) -> bool {
        matches!(
            result,
            Err(RegistryError::InvalidDomain { ref name, ref reason })
                if name == "dom0" && reason.contains("fingerprint")
        )
    }

    /// A same-length edit of `dataset.json` alone is refused by every
    /// path that reads the file: `dataset()` (hence `/match`) and
    /// `reload`. A re-fault-in reads no byte of it — its cache still
    /// records the verified dataset, which is all `/score` needs — so it
    /// serves the verified data bitwise as before.
    #[test]
    fn same_length_dataset_edit_is_refused_by_every_reader_until_restored() {
        let root = registry_root("stale", 1);
        let reg = ModelRegistry::open(&root, RegistryConfig::default()).unwrap();
        let before = reg.get("dom0").unwrap();
        assert_eq!(before.dataset().unwrap().sources().len(), before.sources);
        let pairs = sampling::test_pairs(&before.dataset().unwrap(), &[]);
        let scores = before.model.score_pairs(&before.store, &pairs).unwrap();

        // One value byte changes; the file length does not.
        let path = root.join("dom0/dataset.json");
        let original = std::fs::read_to_string(&path).unwrap();
        let edited = original.replacen("20.1 MP", "20.2 MP", 1);
        assert_ne!(edited, original);
        assert_eq!(edited.len(), original.len());
        std::fs::write(&path, &edited).unwrap();

        assert!(is_fingerprint_mismatch(before.dataset()), "dataset()");
        assert!(is_fingerprint_mismatch(reg.reload("dom0")), "reload");
        assert!(
            Arc::ptr_eq(&reg.get("dom0").unwrap(), &before),
            "a failed reload leaves the resident generation serving"
        );
        reg.evict("dom0").unwrap();
        let refaulted = reg.get("dom0").unwrap();
        assert_eq!(refaulted.generation, 0, "failed loads publish nothing");
        assert_eq!(refaulted.dataset_fingerprint, before.dataset_fingerprint);
        let again = refaulted
            .model
            .score_pairs(&refaulted.store, &pairs)
            .unwrap();
        assert_eq!(
            again.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            "the re-fault-in scores the verified data"
        );
        assert!(
            is_fingerprint_mismatch(refaulted.dataset()),
            "dataset() after re-fault"
        );
        assert!(
            is_fingerprint_mismatch(reg.reload("dom0")),
            "reload after re-fault"
        );

        std::fs::write(&path, &original).unwrap();
        assert!(refaulted.dataset().is_ok());
        assert_eq!(reg.reload("dom0").unwrap().generation, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    /// A re-faulted domain scores from the cache's name-distance table:
    /// no distance kernel runs, however cold the store. The tvs domain
    /// has too many name forms for a 128-pair request to build a table
    /// of its own, so the hits can only come from the cache.
    #[test]
    fn a_refaulted_domain_scores_from_the_persisted_table() {
        let root = std::env::temp_dir().join(format!(
            "leapme-registry-refault-table-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&root).ok();
        let dir = root.join("tvs");
        std::fs::create_dir_all(&dir).unwrap();
        let ds = leapme_data::domains::generate(leapme_data::domains::Domain::Tvs, 4);
        let emb = EmbeddingStore::new(8);
        let store = PropertyFeatureStore::build(&ds, &emb);
        let sources: Vec<SourceId> = (0..ds.sources().len() as u16).map(SourceId).collect();
        let train = sampling::training_pairs(&ds, &sources, 2, &mut StdRng::seed_from_u64(3));
        let cfg = LeapmeConfig {
            train: TrainConfig {
                schedule: LrSchedule::new(vec![(2, 1e-3)]),
                ..TrainConfig::default()
            },
            hidden: vec![4],
            ..LeapmeConfig::default()
        };
        let model = Leapme::fit(&store, &train, &cfg).unwrap();
        model.save(&dir.join("model.lmp")).unwrap();
        std::fs::write(dir.join("dataset.json"), ds.to_json()).unwrap();
        let fp = feature_cache::fingerprint(&ds, &emb);
        feature_cache::save(&dir.join("features.lfc"), &store, &fp).unwrap();
        let pairs: Vec<_> = sampling::test_pairs(&ds, &[])
            .into_iter()
            .step_by(7)
            .take(128)
            .collect();
        assert_eq!(pairs.len(), 128);
        let want = model
            .score_pairs(&PropertyFeatureStore::build(&ds, &emb), &pairs)
            .unwrap();

        let reg = ModelRegistry::open(&root, RegistryConfig::default()).unwrap();
        reg.get("tvs").unwrap();
        reg.evict("tvs").unwrap();
        let back = reg.get("tvs").unwrap();
        let got = back.model.score_pairs(&back.store, &pairs).unwrap();
        assert_eq!(
            got.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(back.store.string_cache_stats(), (0, 0));
        let (forms, entries, hits) = back.store.pair_table_stats().unwrap();
        assert!(
            entries > 2 * pairs.len(),
            "{forms} forms, {entries} entries"
        );
        assert_eq!(hits, 128);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn republished_dataset_and_cache_fault_in_without_a_reload() {
        let root = registry_root("republish", 1);
        let reg = ModelRegistry::open(&root, RegistryConfig::default()).unwrap();
        assert_eq!(reg.get("dom0").unwrap().sources, 2);
        reg.evict("dom0").unwrap();

        // Both artifacts change while the domain is evicted: the cache
        // records a new fingerprint, so the slot's digest cannot stand
        // in for the file, and the fault-in reads the new source count.
        let (grown, fp) = republish_with_a_third_source(&root.join("dom0"));
        let back = reg.get("dom0").unwrap();
        assert_eq!(back.sources, grown.sources().len());
        assert_eq!(back.dataset_fingerprint, fp.dataset);
        assert_eq!(back.generation, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    /// Rewrite `dir`'s dataset with a third (empty) source and a feature
    /// cache built for it.
    fn republish_with_a_third_source(dir: &Path) -> (Dataset, feature_cache::FeatureFingerprint) {
        let old = dataset();
        let grown = Dataset::new(
            old.name(),
            vec!["a".into(), "b".into(), "c".into()],
            old.instances().to_vec(),
            old.alignment().clone(),
        )
        .unwrap();
        let emb = embeddings();
        let store = PropertyFeatureStore::build(&grown, &emb);
        std::fs::write(dir.join("dataset.json"), grown.to_json()).unwrap();
        let fp = feature_cache::fingerprint(&grown, &emb);
        feature_cache::save(&dir.join("features.lfc"), &store, &fp).unwrap();
        (grown, fp)
    }

    #[test]
    fn changed_dataset_with_a_matching_cache_is_parsed_again() {
        let root = registry_root("changed", 1);
        let reg = ModelRegistry::open(&root, RegistryConfig::default()).unwrap();
        assert_eq!(reg.get("dom0").unwrap().sources, 2);

        // Republish the domain's data with a third source: the digest
        // no longer matches, so the reload must parse the new file
        // rather than reuse the count.
        let (_, fp) = republish_with_a_third_source(&root.join("dom0"));

        let reloaded = reg.reload("dom0").unwrap();
        assert_eq!(reloaded.sources, 3);
        assert_eq!(reloaded.dataset_fingerprint, fp.dataset);
        reg.evict("dom0").unwrap();
        assert_eq!(reg.get("dom0").unwrap().sources, 3, "re-fault");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn budget_evicts_least_recently_used() {
        let root = registry_root("budget", 3);
        // Budget sized from the real artifact bytes: room for two
        // domains but not three.
        let per_domain =
            file_len(&root.join("dom0/model.lmp")) + file_len(&root.join("dom0/features.lfc"));
        let reg = ModelRegistry::open(
            &root,
            RegistryConfig {
                resident_budget_bytes: Some(per_domain * 2 + per_domain / 2),
            },
        )
        .unwrap();
        reg.get("dom0").unwrap();
        reg.get("dom1").unwrap();
        reg.get("dom0").unwrap(); // dom1 is now the LRU resident
        reg.get("dom2").unwrap(); // must evict dom1, not dom0
        let stats = reg.stats();
        let by_name = |n: &str| stats.domains.iter().find(|d| d.name == n).unwrap().clone();
        assert!(by_name("dom0").resident);
        assert!(!by_name("dom1").resident);
        assert!(by_name("dom2").resident);
        assert_eq!(stats.evictions, 1);
        assert!(stats.resident_bytes <= per_domain * 2 + per_domain / 2);
        // Faulting the evicted domain back in works and counts a miss.
        reg.get("dom1").unwrap();
        let stats = reg.stats();
        assert_eq!(
            stats.domains.iter().find(|d| d.name == "dom1").unwrap().misses,
            2
        );
        assert_eq!(stats.evictions, 2, "re-admitting dom1 evicts the LRU again");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn explicit_evict_frees_bytes_and_keeps_generation() {
        let root = registry_root("evict", 1);
        let reg = ModelRegistry::open(&root, RegistryConfig::default()).unwrap();
        reg.reload("dom0").unwrap();
        reg.evict("dom0").unwrap();
        let stats = reg.stats();
        assert!(!stats.domains[0].resident);
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(stats.domains[0].generation, 1, "generation survives eviction");
        let back = reg.get("dom0").unwrap();
        assert_eq!(back.generation, 1);
        std::fs::remove_dir_all(&root).ok();
    }
}

//! Zero-allocation regression tests for the steady-state featurize path
//! (feature `alloc-count`).
//!
//! Run with `cargo test -p leapme --features alloc-count`. The feature
//! installs leapme-nn's counting `#[global_allocator]`, and each test
//! warms its buffers (thread-local token buffer, feature scratch, string
//! cache), snapshots the calling thread's allocation counter, repeats
//! the hot operation, and asserts the counter did not move. Companion to the
//! training-step suite in `leapme-nn` (`network::tests`); DESIGN.md §10
//! documents which paths these counters pin down.
//!
//! All fixture values are ASCII without thousands separators: non-ASCII
//! tokens take the allocating `str::to_lowercase` cold path and
//! comma-bearing numerics pay for one cleaned copy, both by design.
#![cfg(feature = "alloc-count")]

use leapme::embedding::store::EmbeddingStore;
use leapme::features::{instance, property, with_scratch, FeatureConfig, PropertyFeatureStore};
use leapme::nn::alloc_count::allocation_count;
use leapme::nn::threads::THREADS_ENV;

fn embeddings() -> EmbeddingStore {
    let mut s = EmbeddingStore::new(8);
    for (i, w) in ["camera", "resolution", "mp", "digital", "weight", "g"]
        .iter()
        .enumerate()
    {
        let mut v = vec![0.0f32; 8];
        v[i] = 1.0;
        s.insert(w, v).unwrap();
    }
    s
}

/// Assert that repeating `hot` after `warmup` warm rounds performs no
/// heap allocation.
fn assert_steady_state_alloc_free(mut hot: impl FnMut(), context: &str) {
    for _ in 0..3 {
        hot();
    }
    let before = allocation_count();
    for _ in 0..10 {
        hot();
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "{context}: {} allocation(s) in 10 warmed iterations",
        after - before
    );
}

#[test]
fn warmed_instance_extract_into_is_alloc_free() {
    let emb = embeddings();
    let mut out = vec![0.0f32; instance::len(emb.dim())];
    assert_steady_state_alloc_free(
        || {
            for value in ["camera resolution 20.1 mp", "450 g", "digitalCamera 4k"] {
                instance::extract_into(value, &emb, &mut out);
            }
        },
        "instance::extract_into",
    );
}

#[test]
fn warmed_fused_property_extraction_is_alloc_free() {
    let emb = embeddings();
    let values = ["20.1 mp", "18 mp", "digital camera resolution"];
    let mut out = vec![0.0f32; property::len(emb.dim())];
    assert_steady_state_alloc_free(
        || {
            with_scratch(|scratch| {
                property::aggregate_values_into(
                    "cameraResolution",
                    values.iter().copied(),
                    &emb,
                    scratch,
                    &mut out,
                );
            });
        },
        "property::aggregate_values_into",
    );
}

/// Allocations of one call to `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = allocation_count();
    f();
    allocation_count() - before
}

#[test]
fn v2_container_open_allocation_count_is_independent_of_tensor_size() {
    use leapme::nn::checkpoint::KIND_PIPELINE;
    use leapme::nn::container2::V2Container;
    use leapme::nn::container2::V2Writer;

    let dir = std::env::temp_dir().join("leapme_alloc_v2_open");
    std::fs::create_dir_all(&dir).unwrap();
    // Identical section structure, 256× different payload bytes: the
    // O(1)-open contract (header + table parse only, payload CRCs
    // lazy) means the allocation count must not move with size.
    let write = |name: &str, floats: usize| {
        let path = dir.join(name);
        let mut w = V2Writer::new(KIND_PIPELINE);
        w.bytes("meta", &[1u8; 64]);
        w.f32s("w0", &vec![0.5f32; floats]);
        w.f32s("b0", &vec![0.25f32; floats / 64]);
        w.write(&path).unwrap();
        path
    };
    let small = write("small.l2c", 1 << 10);
    let large = write("large.l2c", 1 << 18);

    // Warm the path-independent machinery (fd tables, page maps).
    for p in [&small, &large] {
        V2Container::open(p, KIND_PIPELINE).unwrap();
    }
    let small_allocs = allocs_during(|| {
        V2Container::open(&small, KIND_PIPELINE).unwrap();
    });
    let large_allocs = allocs_during(|| {
        V2Container::open(&large, KIND_PIPELINE).unwrap();
    });
    assert_eq!(
        small_allocs, large_allocs,
        "v2 open allocated {small_allocs} times for 4 KiB payloads but \
         {large_allocs} for 1 MiB — open must be O(1) in payload size"
    );
}

#[test]
fn v2_cache_open_allocation_count_is_independent_of_property_count() {
    use leapme::core::feature_cache;
    use leapme::data::model::{PropertyKey, SourceId};
    use std::collections::HashMap;

    let dir = std::env::temp_dir().join("leapme_alloc_v2_cache");
    std::fs::create_dir_all(&dir).unwrap();
    let emb = embeddings();
    let dataset = leapme::data::domains::generate(leapme::data::domains::Domain::Tvs, 5);
    let fp = feature_cache::fingerprint(&dataset, &emb);

    // Same layout, 30× the properties: `load_resident` validates the
    // key table in place and defers both the per-key decode and the
    // slab checksum, so the open's allocation count must not move.
    let save = |name: &str, properties: usize| {
        let plen = property::len(emb.dim());
        let mut features = HashMap::with_capacity(properties);
        for i in 0..properties {
            let key = PropertyKey::new(SourceId((i % 3) as u16), format!("prop_{i:05}"));
            features.insert(key, vec![0.5f32; plen]);
        }
        let store = PropertyFeatureStore::from_parts(emb.dim(), features, Default::default());
        let path = dir.join(name);
        feature_cache::save(&path, &store, &fp).unwrap();
        path
    };
    let small = save("small.lfc", 100);
    let large = save("large.lfc", 3000);

    for p in [&small, &large] {
        feature_cache::load_resident(p).unwrap();
    }
    let small_allocs = allocs_during(|| {
        feature_cache::load_resident(&small).unwrap();
    });
    let large_allocs = allocs_during(|| {
        feature_cache::load_resident(&large).unwrap();
    });
    assert_eq!(
        small_allocs, large_allocs,
        "v2 cache open allocated {small_allocs} times for 100 properties \
         but {large_allocs} for 3000 — the open must defer per-key work"
    );
}

#[test]
fn v2_model_load_allocation_count_is_independent_of_layer_width() {
    use leapme::core::pipeline::{Leapme, LeapmeConfig, LeapmeModel};
    use leapme::core::sampling;
    use leapme::nn::network::TrainConfig;
    use leapme::nn::schedule::LrSchedule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let dir = std::env::temp_dir().join("leapme_alloc_v2_model");
    std::fs::create_dir_all(&dir).unwrap();
    let dataset = leapme::data::domains::generate(leapme::data::domains::Domain::Tvs, 3);
    let emb = embeddings();
    let store = PropertyFeatureStore::build(&dataset, &emb);
    let sources: Vec<leapme::data::model::SourceId> = (0..dataset.sources().len())
        .map(|i| leapme::data::model::SourceId(i as u16))
        .collect();
    let mut rng = StdRng::seed_from_u64(11);
    let train = sampling::training_pairs(&dataset, &sources, 2, &mut rng);

    // Same topology (one hidden layer), 16× the width: the number of
    // weight tensors — and so the number of load-time allocations — is
    // identical; only the zero-copy mapped bytes grow.
    let save = |name: &str, width: usize| {
        let cfg = LeapmeConfig {
            train: TrainConfig {
                schedule: LrSchedule::new(vec![(2, 1e-3)]),
                ..TrainConfig::default()
            },
            hidden: vec![width],
            ..LeapmeConfig::default()
        };
        let model = Leapme::fit(&store, &train, &cfg).unwrap();
        let path = dir.join(name);
        model.save(&path).unwrap();
        path
    };
    let narrow = save("narrow.lmp", 4);
    let wide = save("wide.lmp", 64);

    for p in [&narrow, &wide] {
        LeapmeModel::load(p).unwrap();
    }
    let narrow_allocs = allocs_during(|| {
        LeapmeModel::load(&narrow).unwrap();
    });
    let wide_allocs = allocs_during(|| {
        LeapmeModel::load(&wide).unwrap();
    });
    assert_eq!(
        narrow_allocs, wide_allocs,
        "loading a 16×-wider model changed the allocation count \
         ({narrow_allocs} → {wide_allocs}); v2 weights must stay zero-copy"
    );
}

#[test]
fn warmed_fill_pair_block_is_alloc_free() {
    // Serial fill: thread fan-out allocates per spawn, which is the
    // threaded path's own business — this test pins the per-row work.
    // Staying under the fan-out threshold (rather than setting
    // LEAPME_THREADS) keeps the fill serial without making the kernels'
    // `env::var` lookup allocate a `String` per call.
    std::env::remove_var(THREADS_ENV);
    let dataset = leapme::data::domains::generate(leapme::data::domains::Domain::Tvs, 2);
    let emb = embeddings();
    let store = PropertyFeatureStore::build(&dataset, &emb);
    let all_sources: Vec<leapme::data::model::SourceId> = (0..dataset.sources().len())
        .map(|i| leapme::data::model::SourceId(i as u16))
        .collect();
    let pairs = dataset.cross_source_pairs(&all_sources);
    // Below 2 × MIN_ITEMS_PER_THREAD the fill is serial at any thread
    // count — no spawn allocations to excuse.
    let pairs = &pairs[..pairs.len().min(31)];
    let mask = FeatureConfig::full().mask(emb.dim());
    let mut out = vec![0.0f32; pairs.len() * mask.len()];
    assert_steady_state_alloc_free(
        || {
            store
                .fill_pair_block(pairs, &mask, &mut out)
                .expect("fill_pair_block");
        },
        "PropertyFeatureStore::fill_pair_block",
    );
    std::env::remove_var(THREADS_ENV);
}

#[test]
fn registry_refault_of_an_unchanged_dataset_allocates_independently_of_its_size() {
    use leapme::core::feature_cache;
    use leapme::core::pipeline::{Leapme, LeapmeConfig};
    use leapme::core::registry::{ModelRegistry, RegistryConfig};
    use leapme::core::sampling;
    use leapme::data::model::{Dataset, Instance, SourceId};
    use leapme::nn::network::TrainConfig;
    use leapme::nn::schedule::LrSchedule;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let root = std::env::temp_dir().join("leapme_alloc_registry_refault");
    std::fs::remove_dir_all(&root).ok();
    let emb = embeddings();
    let small = leapme::data::domains::generate(leapme::data::domains::Domain::Tvs, 3);
    // The same schema with every entity repeated under 32 new names:
    // the same properties and cache layout, 32× the instances.
    let instances: Vec<Instance> = (0..32)
        .flat_map(|r| {
            small.instances().iter().map(move |i| Instance {
                entity: format!("{}r{r:02}", i.entity),
                ..i.clone()
            })
        })
        .collect();
    let large = Dataset::new(
        small.name(),
        small.sources().to_vec(),
        instances,
        small.alignment().clone(),
    )
    .unwrap();

    let store = PropertyFeatureStore::build(&small, &emb);
    let sources: Vec<SourceId> = (0..small.sources().len() as u16).map(SourceId).collect();
    let mut rng = StdRng::seed_from_u64(11);
    let train = sampling::training_pairs(&small, &sources, 2, &mut rng);
    let cfg = LeapmeConfig {
        train: TrainConfig {
            schedule: LrSchedule::new(vec![(2, 1e-3)]),
            ..TrainConfig::default()
        },
        hidden: vec![4],
        ..LeapmeConfig::default()
    };
    let model = Leapme::fit(&store, &train, &cfg).unwrap();
    // Equal-length names keep every path the fault-in builds the same
    // length in both domains.
    for (name, dataset) in [("small", &small), ("large", &large)] {
        let dir = root.join(name);
        std::fs::create_dir_all(&dir).unwrap();
        model.save(&dir.join("model.lmp")).unwrap();
        std::fs::write(dir.join("dataset.json"), dataset.to_json()).unwrap();
        let store = PropertyFeatureStore::build(dataset, &emb);
        let fp = feature_cache::fingerprint(dataset, &emb);
        feature_cache::save(&dir.join("features.lfc"), &store, &fp).unwrap();
    }
    let len = |name: &str| {
        let path = root.join(name).join("dataset.json");
        std::fs::metadata(path).unwrap().len()
    };
    assert!(
        len("large") >= 30 * len("small"),
        "fixture: {} vs {} bytes",
        len("large"),
        len("small")
    );

    // The first fault-in of each domain parses and records the digest;
    // every later one over the unchanged file reuses it.
    let registry = ModelRegistry::open(&root, RegistryConfig::default()).unwrap();
    for _ in 0..2 {
        for name in ["small", "large"] {
            registry.get(name).unwrap();
            registry.evict(name).unwrap();
        }
    }
    let refault = |name: &str| {
        let allocs = allocs_during(|| {
            registry.get(name).unwrap();
        });
        registry.evict(name).unwrap();
        allocs
    };
    let (small_allocs, large_allocs) = (refault("small"), refault("large"));
    assert_eq!(
        small_allocs,
        large_allocs,
        "re-faulting an unchanged dataset allocated {small_allocs} times at {} bytes \
         but {large_allocs} at {} — the fault-in must not parse it again",
        len("small"),
        len("large")
    );
    std::fs::remove_dir_all(&root).ok();
}

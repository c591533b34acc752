//! PR benchmark — wall-clock comparison of the serial vs threaded hot
//! path on a synthetic multi-source corpus (≥ 5 000 candidate pairs).
//!
//! Measures the four pipeline stages end to end in a single process:
//!
//! * **build** — `PropertyFeatureStore::build` (per-property extraction),
//! * **featurize** — `pair_matrix_flat` over the full candidate space,
//! * **train** — `Leapme::fit` (minibatch MLP, paper schedule),
//! * **score** — scoring the full candidate space.
//!
//! Each stage runs once with `LEAPME_THREADS=1` (serial) and once with
//! `--threads` workers (default: the machine's available parallelism),
//! flipping the mode at runtime via the environment override. The report
//! records the *requested* thread count, the *effective* count the
//! kernels resolve from the environment, and the detected core count —
//! and warns when they disagree (an override that did not stick, or
//! oversubscription past the physical cores). On a single-core machine
//! the "parallel" pass would be the serial path measured twice, so it is
//! *skipped*: the serial stage times are copied over, every speedup is
//! exactly 1.0, and the report flags the mode with
//! `parallel_unmeasured: true`. Results, the measured speedups, and a
//! comparison against the previous PR's `BENCH_PR6.json` baseline (same
//! thread count only) go to `--out` (default `BENCH_PR7.json`), written
//! atomically.
//!
//! Two featurization-specific passes complement the stage times:
//!
//! * **featurize_breakdown** — serial per-substage minima over the same
//!   workload: character/token features, embedding averaging, pair name
//!   distances, and pair-vector assembly (the |a−b| kernel sweep). Name
//!   distances are timed twice — through the pipeline path (canonical
//!   pair-table build + per-pair lookups) and uncached per pair, the
//!   semantics every earlier PR's `name_distances_s` measured — plus a
//!   per-kernel split of the eight distance kernels, and the dedupe
//!   stats (unique forms, table entries, hit counters) the table run
//!   produced.
//! * **warm_cache** — a cold `PropertyFeatureStore::build` against
//!   loading the same store back from a persisted feature cache,
//!   verifying the loaded store is bitwise identical.
//!
//! Each mode's stage times are the per-stage minima over `--repeats`
//! runs (default 3): the workload is deterministic, so the minimum
//! estimates its cost and damps scheduler noise on shared machines. The
//! serial and parallel passes are interleaved so slow machine drift
//! (frequency scaling, thermal state) affects both modes equally.
//!
//! A final pass measures the durability tax: the same training run with
//! a checkpoint written after every epoch versus none, reported as
//! milliseconds of overhead per epoch.
//!
//! The **retrieval** section benchmarks sublinear candidate generation
//! (DESIGN.md §12) at stress scale: a `--stress`-property dataset from
//! the stress generator (default 100 000), a hash-derived embedding
//! store, HNSW and name-LSH index build times, top-k query throughput,
//! candidates scored against the full n² cross-source space, ANN pair
//! completeness against the brute-force oracle on a subsampled query
//! slice, and ground-truth completeness of the combined candidate set.
//! `--stress 0` skips the section.
//!
//! ```text
//! cargo run --release -p leapme-bench --bin bench -- \
//!     [--sources 16] [--dim 50] [--seed 42] [--threads N] [--repeats 3] \
//!     [--stress 100000] [--stress-dim 24] [--retrieval-k 8] \
//!     [--out BENCH_PR7.json]
//! ```

use leapme::core::feature_cache;
use leapme::core::pipeline::{FitControl, Leapme, LeapmeConfig, ScoreOptions};
use leapme::core::sampling;
use leapme::data::io::atomic_write;
use leapme::data::spec::{generate_dataset, EntityCount};
use leapme::nn::threads::{thread_count, THREADS_ENV};
use leapme::prelude::*;
use leapme_bench::{prepare_embeddings, Args};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Wall times of the four stages, in seconds, plus the thread counts the
/// run asked for and actually got.
#[derive(Debug, Clone, Serialize)]
struct StageTimes {
    threads_requested: usize,
    threads_effective: usize,
    build_s: f64,
    featurize_s: f64,
    train_s: f64,
    score_s: f64,
    total_s: f64,
}

/// The fields of the previous PR's report this one compares against.
#[derive(Debug, Deserialize)]
struct BaselineStage {
    threads_effective: usize,
    build_s: f64,
    featurize_s: f64,
    train_s: f64,
    score_s: f64,
}

#[derive(Debug, Deserialize)]
struct Baseline {
    pairs: usize,
    serial: BaselineStage,
    parallel: BaselineStage,
}

/// Speedup of this PR over the `BENCH_PR6.json` baseline at an equal
/// thread count (baseline seconds / current seconds; > 1 is faster).
#[derive(Debug, Serialize)]
struct VsBaseline {
    threads: usize,
    build_speedup: f64,
    featurize_speedup: f64,
    train_speedup: f64,
    score_speedup: f64,
}

/// Serial minima of the eight string-distance kernels, each timed in
/// isolation over the normalized name pair of every candidate pair with
/// shared scratch buffers — the same per-call shape `StringDistances::
/// compute_with` uses. The banded OSA/Damerau times include the benefit
/// of the Myers bound but not its cost (it is timed separately).
#[derive(Debug, Serialize)]
struct NameKernelTimes {
    /// Bit-parallel Myers Levenshtein (row 9, and the band bound for
    /// rows 8 and 10).
    myers_levenshtein_s: f64,
    /// Banded optimal string alignment (row 8).
    osa_banded_s: f64,
    /// Banded unrestricted Damerau–Levenshtein (row 10).
    damerau_banded_s: f64,
    /// Longest common substring (row 11).
    lcs_s: f64,
    /// Positional 3-gram distance (row 12).
    trigram_s: f64,
    /// Shared 3-gram profiles → cosine + Jaccard (rows 13–14).
    trigram_profiles_s: f64,
    /// Jaro–Winkler (row 15).
    jaro_winkler_s: f64,
}

/// What the global pair-dedupe table did for the name-distance pass:
/// how far the candidate space collapsed and which path served lookups.
#[derive(Debug, Serialize)]
struct PairDedupeStats {
    /// Distinct normalized name forms across all properties.
    unique_name_forms: usize,
    /// Form pairs actually computed (the upper-triangular table).
    table_entries: usize,
    /// Per-pair lookups served by the table during the timed pass.
    table_hits: u64,
    /// Lookups served by the legacy per-store string cache (0 when the
    /// table is active).
    string_cache_hits: u64,
    /// Lookups that fell through to a fresh kernel computation.
    string_cache_misses: u64,
}

/// Serial wall times of the featurization substages, each measured in
/// isolation over the same corpus/pair workload as the stage pass.
#[derive(Debug, Serialize)]
struct FeaturizeBreakdown {
    /// Character- and token-feature extraction over every instance value.
    char_token_s: f64,
    /// Streaming embedding averaging over every instance value.
    embedding_average_s: f64,
    /// The 8 pair name distances over every candidate pair through the
    /// pipeline path: canonical pair-table build plus per-pair lookups
    /// (measured via the names/non-embeddings feature configuration on a
    /// fresh store each repeat).
    name_distances_s: f64,
    /// The same workload computed uncached, one kernel pass per pair —
    /// the exact semantics of `name_distances_s` in PR5 and earlier, for
    /// apples-to-apples kernel comparisons across reports.
    name_distances_uncached_s: f64,
    /// Per-kernel split of the uncached workload.
    name_kernels: NameKernelTimes,
    /// What the dedupe table collapsed the workload to.
    pair_dedupe: PairDedupeStats,
    /// Pair-vector assembly: the |a−b| kernel over every candidate pair.
    assembly_s: f64,
}

/// Cold featurization vs loading the persisted feature cache.
#[derive(Debug, Serialize)]
struct WarmCache {
    /// `PropertyFeatureStore::build` from scratch, seconds.
    cold_build_s: f64,
    /// Loading the same store from the feature-cache file, seconds.
    cache_load_s: f64,
    /// Whether the load path reported a fingerprint match.
    cache_hit: bool,
    /// Whether every loaded property vector is bitwise identical to the
    /// freshly built one.
    store_identical: bool,
    /// `cold_build_s / cache_load_s` — what a warm rerun saves.
    featurize_speedup: f64,
}

/// Sublinear candidate generation at stress scale: index build times,
/// query throughput, and retrieval quality against the full n² space
/// and the brute-force oracle (DESIGN.md §12).
#[derive(Debug, Serialize)]
struct RetrievalBench {
    /// Properties in the stress dataset.
    stress_properties: usize,
    /// Sources the generator spread them over.
    stress_sources: usize,
    /// Dimension of the hash-derived embedding store.
    embedding_dim: usize,
    /// Top-k retrieved per property (per retriever).
    k: usize,
    /// `PropertyVectors::build` — embedding + normalization pass.
    vectorize_s: f64,
    /// HNSW graph construction, seconds.
    index_build_s: f64,
    /// Name-LSH fingerprint + bucketing, seconds.
    lsh_build_s: f64,
    /// ANN top-k queries per second (one query per property).
    queries_per_s: f64,
    /// Name-LSH top-k queries per second.
    lsh_queries_per_s: f64,
    /// Unique cross-source pairs from the ANN retriever alone.
    candidates_ann: usize,
    /// Unique cross-source pairs from the name-LSH retriever alone.
    candidates_lsh: usize,
    /// Unique pairs in the union (the `combined` blocking mode).
    candidates_combined: usize,
    /// Full cross-source pair space (never materialized — counted).
    full_space: usize,
    /// `candidates_combined / full_space` — the fraction of n² actually
    /// scored. The acceptance gate wants ≤ 0.05 at 100k properties.
    candidates_scored_ratio: f64,
    /// Fraction of the brute-force oracle's top-k the ANN index
    /// recovered, over the subsampled query slice.
    pair_completeness: f64,
    /// Queries in the oracle subsample.
    oracle_queries: usize,
    /// Fraction of ground-truth pairs present in the combined candidate
    /// set (completeness against the labels rather than the oracle).
    gt_pair_completeness: f64,
}

/// Cost of per-epoch checkpointing during training: the same fit run
/// with a checkpoint written after every epoch vs none at all.
#[derive(Debug, Serialize)]
struct CheckpointOverhead {
    epochs: usize,
    fit_s: f64,
    fit_checkpointed_s: f64,
    overhead_ms_per_epoch: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    /// Whether the fault-injection hooks were compiled into this
    /// binary. Must be `false` for any benchmark that counts: the
    /// chaos stage of scripts/verify.sh greps for it.
    faults_enabled: bool,
    cores: usize,
    /// `true` when only one core is available: the "parallel" stage
    /// times are then the serial path measured a second time, and none
    /// of the `speedup_*` ratios say anything about multithreading.
    parallel_unmeasured: bool,
    sources: usize,
    properties: usize,
    pairs: usize,
    feature_dim: usize,
    serial: StageTimes,
    parallel: StageTimes,
    speedup_build: f64,
    speedup_featurize: f64,
    speedup_train: f64,
    speedup_score: f64,
    speedup_total: f64,
    featurize_breakdown: FeaturizeBreakdown,
    warm_cache: WarmCache,
    checkpoint: CheckpointOverhead,
    /// `None` only when the section was skipped with `--stress 0`.
    retrieval: Option<RetrievalBench>,
    vs_pr6_serial: Option<VsBaseline>,
    vs_pr6_parallel: Option<VsBaseline>,
}

/// Warn when the thread counts a run requested, resolved, and has
/// hardware for disagree with each other.
fn warn_thread_mismatch(requested: usize, effective: usize, cores: usize) {
    if effective != requested {
        eprintln!(
            "warning: requested {requested} worker threads but the kernels \
             resolved {effective} (is {THREADS_ENV} being overridden elsewhere?)"
        );
    }
    if effective > cores {
        eprintln!(
            "warning: effective thread count {effective} exceeds the \
             {cores} detected core(s); expect oversubscription, not speedup"
        );
    }
}

fn run_stages(
    dataset: &Dataset,
    embeddings: &EmbeddingStore,
    pairs: &[PropertyPair],
    seed: u64,
    requested: usize,
    cores: usize,
) -> StageTimes {
    std::env::set_var(THREADS_ENV, requested.to_string());
    let effective = thread_count();
    warn_thread_mismatch(requested, effective, cores);

    let t = Instant::now();
    let store = PropertyFeatureStore::build(dataset, embeddings);
    let build_s = t.elapsed().as_secs_f64();

    let keyed: Vec<(PropertyKey, PropertyKey)> = pairs
        .iter()
        .map(|PropertyPair(a, b)| (a.clone(), b.clone()))
        .collect();
    let t = Instant::now();
    let flat = store
        .pair_matrix_flat(&keyed, &FeatureConfig::full())
        .expect("featurize");
    let featurize_s = t.elapsed().as_secs_f64();
    assert_eq!(flat.rows, pairs.len());

    let mut rng = StdRng::seed_from_u64(seed);
    let split = sampling::split_sources(dataset.sources().len(), 0.5, &mut rng).expect("split");
    let train_pairs = sampling::training_pairs(dataset, &split.train, 2, &mut rng);
    let t = Instant::now();
    let model = Leapme::fit(&store, &train_pairs, &LeapmeConfig::default()).expect("fit");
    let train_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let opts = ScoreOptions {
        cancel: None,
        threads: effective,
    };
    let scores = model.score(&store, pairs, &opts).expect("score");
    let score_s = t.elapsed().as_secs_f64();
    assert_eq!(scores.len(), pairs.len());

    StageTimes {
        threads_requested: requested,
        threads_effective: effective,
        build_s,
        featurize_s,
        train_s,
        score_s,
        total_s: build_s + featurize_s + train_s + score_s,
    }
}

/// Fold one run into the per-stage minima accumulated so far.
fn min_stages(best: Option<StageTimes>, run: StageTimes) -> StageTimes {
    match best {
        None => run,
        Some(b) => StageTimes {
            build_s: b.build_s.min(run.build_s),
            featurize_s: b.featurize_s.min(run.featurize_s),
            train_s: b.train_s.min(run.train_s),
            score_s: b.score_s.min(run.score_s),
            ..b
        },
    }
}

/// Run both modes `repeats` times and keep each mode's per-stage
/// minima — the workload is deterministic, so the minimum estimates its
/// cost and damps scheduler noise on shared machines. The serial and
/// parallel passes are *interleaved* (serial, parallel, serial, …)
/// rather than blocked, so slow machine drift (frequency scaling,
/// thermal state, noisy neighbours) hits both modes equally instead of
/// penalizing whichever mode runs last. `total_s` is the sum of the
/// per-stage minima.
///
/// On a single-core machine (`parallel_unmeasured`) the parallel pass
/// would just re-measure the serial path, so it is skipped entirely:
/// the serial minima are copied into the parallel slot (speedups come
/// out exactly 1.0) and the repeats budget is spent on serial runs.
struct MinOfPlan {
    seed: u64,
    parallel_threads: usize,
    cores: usize,
    repeats: usize,
    parallel_unmeasured: bool,
}

fn run_modes_min_of(
    dataset: &Dataset,
    embeddings: &EmbeddingStore,
    pairs: &[PropertyPair],
    plan: &MinOfPlan,
) -> (StageTimes, StageTimes) {
    let mut serial: Option<StageTimes> = None;
    let mut parallel: Option<StageTimes> = None;
    for _ in 0..plan.repeats.max(1) {
        let run = run_stages(dataset, embeddings, pairs, plan.seed, 1, plan.cores);
        serial = Some(min_stages(serial, run));
        if !plan.parallel_unmeasured {
            let run = run_stages(
                dataset,
                embeddings,
                pairs,
                plan.seed,
                plan.parallel_threads,
                plan.cores,
            );
            parallel = Some(min_stages(parallel, run));
        }
    }
    let finish = |best: Option<StageTimes>| {
        let mut best = best.expect("repeats >= 1");
        best.total_s = best.build_s + best.featurize_s + best.train_s + best.score_s;
        best
    };
    let serial = finish(serial);
    let parallel = match parallel {
        Some(p) => finish(Some(p)),
        None => serial.clone(),
    };
    (serial, parallel)
}

/// Measure the durability tax: `Leapme::fit_durable` with a checkpoint
/// written after every epoch against the same fit with checkpointing
/// off, as the per-stage minimum over `repeats` runs. Reported per
/// epoch so the number stays comparable across schedules.
fn measure_checkpoint_overhead(
    dataset: &Dataset,
    embeddings: &EmbeddingStore,
    seed: u64,
    repeats: usize,
) -> CheckpointOverhead {
    let store = PropertyFeatureStore::build(dataset, embeddings);
    let mut rng = StdRng::seed_from_u64(seed);
    let split = sampling::split_sources(dataset.sources().len(), 0.5, &mut rng).expect("split");
    let train_pairs = sampling::training_pairs(dataset, &split.train, 2, &mut rng);
    let cfg = LeapmeConfig::default();
    let epochs = cfg.train.schedule.total_epochs();
    let ckpt_path = std::env::temp_dir().join("leapme_bench_overhead.ckpt");

    let mut fit_s = f64::INFINITY;
    let mut fit_checkpointed_s = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        Leapme::fit_durable(&store, &train_pairs, &cfg, &FitControl::default())
            .expect("fit without checkpointing");
        fit_s = fit_s.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        Leapme::fit_durable(
            &store,
            &train_pairs,
            &cfg,
            &FitControl {
                checkpoint_path: Some(&ckpt_path),
                checkpoint_every: 1,
                ..Default::default()
            },
        )
        .expect("fit with per-epoch checkpointing");
        fit_checkpointed_s = fit_checkpointed_s.min(t.elapsed().as_secs_f64());
    }
    std::fs::remove_file(&ckpt_path).ok();
    CheckpointOverhead {
        epochs,
        fit_s,
        fit_checkpointed_s,
        overhead_ms_per_epoch: (fit_checkpointed_s - fit_s) * 1000.0 / epochs.max(1) as f64,
    }
}

/// Per-kernel serial minima over every candidate pair's normalized
/// names, with shared scratch buffers. The Myers pass doubles as the
/// band bound for the OSA/Damerau kernels, exactly as
/// `StringDistances::compute_with` wires them.
fn measure_name_kernels(norm_pairs: &[(String, String)], repeats: usize) -> NameKernelTimes {
    use leapme::textsim::{damerau, jaro, lcs, myers, ngram, osa, qgram, DistanceScratch};
    use std::hint::black_box;
    let mut scratch = DistanceScratch::new();
    let mut levs = vec![0usize; norm_pairs.len()];

    let mut times = NameKernelTimes {
        myers_levenshtein_s: f64::INFINITY,
        osa_banded_s: f64::INFINITY,
        damerau_banded_s: f64::INFINITY,
        lcs_s: f64::INFINITY,
        trigram_s: f64::INFINITY,
        trigram_profiles_s: f64::INFINITY,
        jaro_winkler_s: f64::INFINITY,
    };
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        for (i, (a, b)) in norm_pairs.iter().enumerate() {
            levs[i] = myers::distance_with(a, b, &mut scratch);
        }
        times.myers_levenshtein_s = times.myers_levenshtein_s.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for (i, (a, b)) in norm_pairs.iter().enumerate() {
            black_box(osa::distance_bounded_with(a, b, levs[i], &mut scratch));
        }
        times.osa_banded_s = times.osa_banded_s.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for (i, (a, b)) in norm_pairs.iter().enumerate() {
            black_box(damerau::distance_bounded_with(a, b, levs[i], &mut scratch));
        }
        times.damerau_banded_s = times.damerau_banded_s.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for (a, b) in norm_pairs {
            black_box(lcs::substring_distance_with(a, b, &mut scratch));
        }
        times.lcs_s = times.lcs_s.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for (a, b) in norm_pairs {
            black_box(ngram::normalized_distance_with(a, b, 3, &mut scratch));
        }
        times.trigram_s = times.trigram_s.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for (a, b) in norm_pairs {
            black_box(qgram::trigram_distances_with(a, b, &mut scratch));
        }
        times.trigram_profiles_s = times.trigram_profiles_s.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for (a, b) in norm_pairs {
            black_box(jaro::jaro_winkler_distance_with(a, b, &mut scratch));
        }
        times.jaro_winkler_s = times.jaro_winkler_s.min(t.elapsed().as_secs_f64());
    }
    times
}

/// Serial substage minima over `repeats` runs: the pieces of
/// featurization timed in isolation through the same public entry points
/// the pipeline uses.
fn measure_featurize_breakdown(
    dataset: &Dataset,
    embeddings: &EmbeddingStore,
    store: &PropertyFeatureStore,
    pairs: &[PropertyPair],
    repeats: usize,
) -> FeaturizeBreakdown {
    use leapme::features::{chars, pair, property, tokens};
    use std::hint::black_box;
    let values: Vec<&str> = dataset
        .instances()
        .iter()
        .map(|i| i.value.as_str())
        .collect();
    let mut avg = vec![0.0f32; embeddings.dim()];
    let mut diff = vec![0.0f32; property::len(embeddings.dim())];
    let keyed: Vec<(PropertyKey, PropertyKey)> = pairs
        .iter()
        .map(|PropertyPair(a, b)| (a.clone(), b.clone()))
        .collect();
    // The pipeline path computes name distances under this configuration
    // only — the mask keeps exactly the 8 string-distance columns.
    let names_cfg = FeatureConfig {
        scope: FeatureScope::Names,
        kind: FeatureKind::NonEmbeddings,
    };
    let norm_pairs: Vec<(String, String)> = pairs
        .iter()
        .map(|PropertyPair(a, b)| (pair::normalize_name(&a.name), pair::normalize_name(&b.name)))
        .collect();

    let mut char_token_s = f64::INFINITY;
    let mut embedding_average_s = f64::INFINITY;
    let mut name_distances_s = f64::INFINITY;
    let mut name_distances_uncached_s = f64::INFINITY;
    let mut assembly_s = f64::INFINITY;
    let mut pair_dedupe = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        for v in &values {
            black_box(chars::extract(v));
            black_box(tokens::extract(v));
        }
        char_token_s = char_token_s.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for v in &values {
            embeddings.average_text_into(v, &mut avg);
            black_box(&avg);
        }
        embedding_average_s = embedding_average_s.min(t.elapsed().as_secs_f64());

        // Pipeline path: a fresh store each repeat (the pair table is
        // built once per store), timing the table build plus every
        // per-pair lookup — what a scoring run actually pays.
        let fresh = PropertyFeatureStore::build(dataset, embeddings);
        let t = Instant::now();
        fresh.ensure_pair_table(pairs.len());
        black_box(
            fresh
                .pair_matrix_flat(&keyed, &names_cfg)
                .expect("name-distance matrix"),
        );
        name_distances_s = name_distances_s.min(t.elapsed().as_secs_f64());
        let (cache_hits, cache_misses) = fresh.string_cache_stats();
        let (unique_name_forms, table_entries, table_hits) =
            fresh.pair_table_stats().unwrap_or((0, 0, 0));
        pair_dedupe = Some(PairDedupeStats {
            unique_name_forms,
            table_entries,
            table_hits,
            string_cache_hits: cache_hits,
            string_cache_misses: cache_misses,
        });

        let t = Instant::now();
        for PropertyPair(a, b) in pairs {
            black_box(pair::string_features(&a.name, &b.name));
        }
        name_distances_uncached_s = name_distances_uncached_s.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for PropertyPair(a, b) in pairs {
            let pa = store.property_vector(a).expect("property vector");
            let pb = store.property_vector(b).expect("property vector");
            pair::vector_difference_into(&mut diff, pa, pb);
            black_box(&diff);
        }
        assembly_s = assembly_s.min(t.elapsed().as_secs_f64());
    }
    FeaturizeBreakdown {
        char_token_s,
        embedding_average_s,
        name_distances_s,
        name_distances_uncached_s,
        name_kernels: measure_name_kernels(&norm_pairs, repeats),
        pair_dedupe: pair_dedupe.expect("repeats >= 1"),
        assembly_s,
    }
}

/// Cold build vs persisted-cache load, with a bitwise identity check of
/// every loaded property vector.
fn measure_warm_cache(dataset: &Dataset, embeddings: &EmbeddingStore) -> WarmCache {
    let path = std::env::temp_dir().join("leapme_bench_feature_cache.lfc");
    let _ = std::fs::remove_file(&path);

    let t = Instant::now();
    let cold = PropertyFeatureStore::build(dataset, embeddings);
    let cold_build_s = t.elapsed().as_secs_f64();

    let fp = feature_cache::fingerprint(dataset, embeddings);
    feature_cache::save(&path, &cold, &fp).expect("save feature cache");
    let t = Instant::now();
    let warm = feature_cache::load(&path, &fp).expect("load feature cache");
    let cache_load_s = t.elapsed().as_secs_f64();
    std::fs::remove_file(&path).ok();

    let store_identical = cold.len() == warm.len()
        && cold.iter().all(|(k, v)| {
            warm.property_vector(k)
                .is_some_and(|w| v.iter().zip(w).all(|(x, y)| x.to_bits() == y.to_bits()))
        });
    WarmCache {
        cold_build_s,
        cache_load_s,
        cache_hit: true,
        store_identical,
        featurize_speedup: if cache_load_s > 0.0 {
            cold_build_s / cache_load_s
        } else {
            f64::NAN
        },
    }
}

/// Benchmark sublinear candidate generation at stress scale. One pass,
/// not min-of-repeats: the workload is big enough (100k+ properties)
/// that scheduler noise is lost in it, and repeating a multi-second
/// index build per repeat would dominate the whole bench run.
fn measure_retrieval(
    stress_properties: usize,
    dim: usize,
    k: usize,
    seed: u64,
) -> RetrievalBench {
    use leapme::core::index::hnsw::{HnswConfig, HnswIndex, VisitedSet};
    use leapme::core::index::lsh::{NameLshConfig, NameLshIndex};
    use leapme::core::index::PropertyVectors;
    use leapme::data::stress::{generate_stress_dataset, StressConfig};

    let cfg = StressConfig::new(stress_properties, seed);
    let dataset = generate_stress_dataset(&cfg);
    let store = leapme::stress_embedding_store(&cfg, dim, seed ^ 0xE5);

    let t = Instant::now();
    let vectors = PropertyVectors::build(&dataset, &store);
    let vectorize_s = t.elapsed().as_secs_f64();
    let n = vectors.len();

    let hcfg = HnswConfig::default();
    let t = Instant::now();
    let index = HnswIndex::build(&vectors, hcfg, None).expect("HNSW build");
    let index_build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let lsh = NameLshIndex::build(&vectors.properties, NameLshConfig::default(), None)
        .expect("name-LSH build");
    let lsh_build_s = t.elapsed().as_secs_f64();

    // Candidates as canonical (lo, hi) id pairs packed into u64 — ids
    // index the sorted property list, so id order is PropertyPair order
    // and a packed u64 sort matches the blocking layer's candidate
    // order without materializing 10⁶ key clones.
    let pair_key = |i: u32, j: u32| -> u64 {
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        (u64::from(lo) << 32) | u64::from(hi)
    };
    let mut visited = VisitedSet::new(n);

    let mut ann_pairs: Vec<u64> = Vec::new();
    let t = Instant::now();
    for i in 0..n {
        for nb in index.search_node(&vectors, i, k, &mut visited) {
            ann_pairs.push(pair_key(i as u32, nb.id));
        }
    }
    let ann_query_s = t.elapsed().as_secs_f64();

    let mut lsh_pairs: Vec<u64> = Vec::new();
    let t = Instant::now();
    for i in 0..n {
        for nb in lsh.search_node(i, k, &mut visited) {
            lsh_pairs.push(pair_key(i as u32, nb.id));
        }
    }
    let lsh_query_s = t.elapsed().as_secs_f64();

    ann_pairs.sort_unstable();
    ann_pairs.dedup();
    lsh_pairs.sort_unstable();
    lsh_pairs.dedup();
    let mut combined = ann_pairs.clone();
    combined.extend_from_slice(&lsh_pairs);
    combined.sort_unstable();
    combined.dedup();

    let all_sources: Vec<SourceId> = (0..dataset.sources().len())
        .map(|i| SourceId(i as u16))
        .collect();
    let full_space = dataset.cross_source_pair_count(&all_sources);

    // Brute-force oracle on a subsampled slice (~512 queries): fraction
    // of the exact top-k the graph search recovered.
    let step = (n / 512).max(1);
    let (mut hit, mut total, mut oracle_queries) = (0usize, 0usize, 0usize);
    for i in (0..n).step_by(step) {
        if !vectors.non_zero[i] {
            continue;
        }
        let oracle = vectors.top_k(i, k);
        if oracle.is_empty() {
            continue;
        }
        let got: std::collections::BTreeSet<u32> = index
            .search_node(&vectors, i, k, &mut visited)
            .iter()
            .map(|nb| nb.id)
            .collect();
        hit += oracle.iter().filter(|nb| got.contains(&nb.id)).count();
        total += oracle.len();
        oracle_queries += 1;
    }
    let pair_completeness = if total > 0 {
        hit as f64 / total as f64
    } else {
        f64::NAN
    };

    // Ground-truth completeness of the combined candidate set, checked
    // against the full label set via id-pair binary search.
    let id_of = |key: &PropertyKey| vectors.properties.binary_search(key).ok();
    let (mut gt_total, mut gt_kept) = (0usize, 0usize);
    for PropertyPair(a, b) in &dataset.ground_truth_pairs() {
        let (Some(i), Some(j)) = (id_of(a), id_of(b)) else {
            continue;
        };
        gt_total += 1;
        if combined.binary_search(&pair_key(i as u32, j as u32)).is_ok() {
            gt_kept += 1;
        }
    }
    let gt_pair_completeness = if gt_total > 0 {
        gt_kept as f64 / gt_total as f64
    } else {
        f64::NAN
    };

    let per_s = |queries: usize, secs: f64| {
        if secs > 0.0 {
            queries as f64 / secs
        } else {
            f64::NAN
        }
    };
    RetrievalBench {
        stress_properties,
        stress_sources: dataset.sources().len(),
        embedding_dim: dim,
        k,
        vectorize_s,
        index_build_s,
        lsh_build_s,
        queries_per_s: per_s(n, ann_query_s),
        lsh_queries_per_s: per_s(n, lsh_query_s),
        candidates_ann: ann_pairs.len(),
        candidates_lsh: lsh_pairs.len(),
        candidates_combined: combined.len(),
        full_space,
        candidates_scored_ratio: if full_space > 0 {
            combined.len() as f64 / full_space as f64
        } else {
            f64::NAN
        },
        pair_completeness,
        oracle_queries,
        gt_pair_completeness,
    }
}

/// Load the previous PR's report, if present, and compute the speedup at
/// an equal thread count. Returns `None` (with a warning) when the
/// baseline is missing, unparsable, or was measured at a different
/// thread count — cross-thread-count comparisons are not apples to
/// apples and are deliberately not reported.
fn compare_with_baseline(stage: &StageTimes, baseline: &BaselineStage) -> Option<VsBaseline> {
    if baseline.threads_effective != stage.threads_effective {
        eprintln!(
            "warning: baseline ran with {} thread(s) but this run used {}; \
             skipping vs-PR6 comparison for this mode",
            baseline.threads_effective, stage.threads_effective
        );
        return None;
    }
    let ratio = |b: f64, c: f64| if c > 0.0 { b / c } else { f64::NAN };
    Some(VsBaseline {
        threads: stage.threads_effective,
        build_speedup: ratio(baseline.build_s, stage.build_s),
        featurize_speedup: ratio(baseline.featurize_s, stage.featurize_s),
        train_speedup: ratio(baseline.train_s, stage.train_s),
        score_speedup: ratio(baseline.score_s, stage.score_s),
    })
}

fn load_baseline() -> Option<Baseline> {
    let text = match std::fs::read_to_string("BENCH_PR6.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("warning: BENCH_PR6.json not readable ({e}); skipping vs-PR6 comparison");
            return None;
        }
    };
    match serde_json::from_str(&text) {
        Ok(b) => Some(b),
        Err(e) => {
            eprintln!("warning: BENCH_PR6.json not parsable ({e}); skipping vs-PR6 comparison");
            None
        }
    }
}

fn main() {
    let args = Args::parse();
    let sources: usize = args.get_or("sources", 16);
    let dim: usize = args.get_or("dim", 50);
    let seed: u64 = args.get_or("seed", 42);

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let parallel_threads: usize = args.get_or("threads", cores);
    let parallel_unmeasured = cores == 1;
    if parallel_unmeasured {
        eprintln!(
            "warning: only 1 core detected — the \"parallel\" pass is skipped \
             (it would just re-measure the serial path); serial times are \
             copied into the parallel slot and every speedup is 1.0 \
             (report flags this as parallel_unmeasured)"
        );
    }

    let spec = Domain::Cameras.spec();
    let mut cfg = Domain::Cameras.generator_config();
    cfg.n_sources = sources;
    cfg.entities = EntityCount::Balanced(40);
    let dataset = generate_dataset(&spec, &cfg, seed);
    let embeddings = prepare_embeddings(&[Domain::Cameras], dim, seed);

    let all_sources: Vec<SourceId> = (0..sources).map(|i| SourceId(i as u16)).collect();
    let pairs = dataset.cross_source_pairs(&all_sources);
    assert!(
        pairs.len() >= 5000,
        "corpus too small: {} pairs (raise --sources)",
        pairs.len()
    );
    println!(
        "corpus: {} sources, {} properties, {} candidate pairs, {} cores detected, {} threads requested for the parallel run",
        sources,
        dataset.properties().len(),
        pairs.len(),
        cores,
        parallel_threads
    );

    // Warm-up pass (untimed) so allocator and page-cache state is
    // comparable between the two measured runs.
    let _ = run_stages(&dataset, &embeddings, &pairs, seed, 1, cores);

    let repeats: usize = args.get_or("repeats", 3);
    let (serial, parallel) = run_modes_min_of(
        &dataset,
        &embeddings,
        &pairs,
        &MinOfPlan {
            seed,
            parallel_threads,
            cores,
            repeats,
            parallel_unmeasured,
        },
    );
    // The featurization substages, the warm-cache pass and the
    // durability tax are all measured serially: the first two isolate
    // single-thread kernel cost, and checkpoint writes are I/O-bound,
    // so thread count is noise here.
    std::env::set_var(THREADS_ENV, "1");
    let store = PropertyFeatureStore::build(&dataset, &embeddings);
    let featurize_breakdown =
        measure_featurize_breakdown(&dataset, &embeddings, &store, &pairs, repeats);
    drop(store);
    let warm_cache = measure_warm_cache(&dataset, &embeddings);
    let checkpoint = measure_checkpoint_overhead(&dataset, &embeddings, seed, repeats);

    let stress_properties: usize = args.get_or("stress", 100_000);
    let retrieval = if stress_properties == 0 {
        eprintln!("warning: --stress 0 — skipping the retrieval section");
        None
    } else {
        let stress_dim: usize = args.get_or("stress-dim", 24);
        let retrieval_k: usize = args.get_or("retrieval-k", 8);
        println!(
            "retrieval: stress corpus of {stress_properties} properties, \
             dim {stress_dim}, top-{retrieval_k} per retriever"
        );
        Some(measure_retrieval(
            stress_properties,
            stress_dim,
            retrieval_k,
            seed,
        ))
    };
    std::env::remove_var(THREADS_ENV);

    let baseline = load_baseline().filter(|b| {
        if b.pairs != pairs.len() {
            eprintln!(
                "warning: baseline measured {} candidate pairs but this run has {}; \
                 skipping vs-PR6 comparison (rerun with the baseline's --sources)",
                b.pairs,
                pairs.len()
            );
        }
        b.pairs == pairs.len()
    });
    let (vs_pr6_serial, vs_pr6_parallel) = match &baseline {
        Some(b) => (
            compare_with_baseline(&serial, &b.serial),
            compare_with_baseline(&parallel, &b.parallel),
        ),
        None => (None, None),
    };

    let ratio = |s: f64, p: f64| if p > 0.0 { s / p } else { f64::NAN };
    let report = BenchReport {
        faults_enabled: cfg!(feature = "faults"),
        cores,
        parallel_unmeasured,
        sources,
        properties: dataset.properties().len(),
        pairs: pairs.len(),
        feature_dim: FeatureConfig::full().feature_count(dim),
        speedup_build: ratio(serial.build_s, parallel.build_s),
        speedup_featurize: ratio(serial.featurize_s, parallel.featurize_s),
        speedup_train: ratio(serial.train_s, parallel.train_s),
        speedup_score: ratio(serial.score_s, parallel.score_s),
        speedup_total: ratio(serial.total_s, parallel.total_s),
        featurize_breakdown,
        warm_cache,
        checkpoint,
        retrieval,
        vs_pr6_serial,
        vs_pr6_parallel,
        serial,
        parallel,
    };

    let out = args.get_or("out", "BENCH_PR7.json".to_string());
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    println!("{json}");
    atomic_write(std::path::Path::new(&out), format!("{json}\n").as_bytes())
        .unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
}

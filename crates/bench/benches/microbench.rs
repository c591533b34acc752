//! Criterion microbenchmarks for the performance-critical substrates:
//! string distances, q-gram profiles, feature extraction, embedding
//! lookups, minhash signatures, NN forward/training steps, and
//! end-to-end pair vectorization.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use leapme::baselines::minhash::MinHasher;
use leapme::core::pipeline::{Leapme, LeapmeConfig};
use leapme::core::sampling;
use leapme::embedding::store::EmbeddingStore;
use leapme::features::{instance, pair};
use leapme::nn::matrix::Matrix;
use leapme::nn::network::{Mlp, TrainConfig};
use leapme::nn::schedule::LrSchedule;
use leapme::nn::workspace::ScoreWorkspace;
use leapme::prelude::*;
use leapme::textsim::{damerau, jaro, levenshtein, ngram, qgram, StringDistances};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NAME_A: &str = "maximum shutter speed";
const NAME_B: &str = "max shutter-speed (approx.)";

fn bench_textsim(c: &mut Criterion) {
    let mut g = c.benchmark_group("textsim");
    g.bench_function("levenshtein", |b| {
        b.iter(|| levenshtein::distance(black_box(NAME_A), black_box(NAME_B)))
    });
    g.bench_function("damerau_full", |b| {
        b.iter(|| damerau::distance(black_box(NAME_A), black_box(NAME_B)))
    });
    g.bench_function("jaro_winkler", |b| {
        b.iter(|| jaro::jaro_winkler_similarity(black_box(NAME_A), black_box(NAME_B)))
    });
    g.bench_function("trigram_kondrak", |b| {
        b.iter(|| ngram::distance(black_box(NAME_A), black_box(NAME_B), 3))
    });
    g.bench_function("qgram_cosine", |b| {
        b.iter(|| qgram::cosine_distance(black_box(NAME_A), black_box(NAME_B), 3))
    });
    g.bench_function("all_eight_distances", |b| {
        b.iter(|| StringDistances::compute(black_box(NAME_A), black_box(NAME_B)))
    });
    g.finish();
}

fn small_embeddings(dim: usize) -> EmbeddingStore {
    let mut store = EmbeddingStore::new(dim);
    let mut rng = StdRng::seed_from_u64(5);
    for word in [
        "maximum", "shutter", "speed", "max", "approx", "camera", "resolution", "sensor", "mp",
        "zoom", "battery", "weight",
    ] {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        store.insert(word, v).unwrap();
    }
    store
}

fn bench_features(c: &mut Criterion) {
    let store = small_embeddings(50);
    let mut g = c.benchmark_group("features");
    g.bench_function("instance_extract", |b| {
        b.iter(|| instance::extract(black_box("20.1 MP resolution"), &store))
    });
    g.bench_function("string_features_pair", |b| {
        b.iter(|| pair::string_features(black_box(NAME_A), black_box(NAME_B)))
    });
    g.bench_function("embedding_average_text", |b| {
        b.iter(|| store.average_text(black_box("maximum shutter speed of the camera")))
    });
    g.finish();
}

fn bench_minhash(c: &mut Criterion) {
    let hasher = MinHasher::new(128, 1);
    let tokens: Vec<String> = (0..40).map(|i| format!("token{i}")).collect();
    let sig_a = hasher.signature(tokens.iter().map(String::as_str));
    let sig_b = hasher.signature(tokens[20..].iter().map(String::as_str));
    let mut g = c.benchmark_group("minhash");
    g.bench_function("signature_40_tokens_k128", |b| {
        b.iter(|| hasher.signature(black_box(&tokens).iter().map(String::as_str)))
    });
    g.bench_function("estimate_jaccard_k128", |b| {
        b.iter(|| MinHasher::estimate_jaccard(black_box(&sig_a), black_box(&sig_b)))
    });
    g.finish();
}

fn bench_nn(c: &mut Criterion) {
    let net = Mlp::leapme(137, 3);
    let mut rng = StdRng::seed_from_u64(9);
    let x = Matrix::from_vec(
        32,
        137,
        (0..32 * 137).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    );
    let mut g = c.benchmark_group("nn");
    // The scoring path: workspace buffers reused across iterations, as
    // `LeapmeModel::score` reuses them across blocks.
    let mut ws = ScoreWorkspace::new();
    let mut probs = Vec::new();
    g.bench_function("forward_batch32_137in", |b| {
        b.iter(|| {
            probs.clear();
            net.predict_proba_into(black_box(&x), &mut ws, &mut probs);
            black_box(probs.len())
        })
    });
    g.bench_function("train_epoch_batch32_137in", |b| {
        let labels: Vec<usize> = (0..32).map(|i| i % 2).collect();
        b.iter_batched(
            || Mlp::leapme(137, 3),
            |mut net| {
                net.fit(
                    &x,
                    &labels,
                    &TrainConfig {
                        schedule: LrSchedule::constant(1, 1e-3),
                        ..TrainConfig::default()
                    },
                )
                .unwrap()
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_matmul(c: &mut Criterion) {
    // The two shapes that dominate training and scoring: one minibatch
    // (32×637 · 637×128) and one scoring block (256×637 · 637×128).
    let mut rng = StdRng::seed_from_u64(11);
    let mut rand_matrix = |r: usize, k: usize| {
        Matrix::from_vec(r, k, (0..r * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
    };
    let a32 = rand_matrix(32, 637);
    let a256 = rand_matrix(256, 637);
    let w = rand_matrix(637, 128);
    let threads = leapme::nn::threads::thread_count();

    let mut out = Matrix::default();
    let mut g = c.benchmark_group("matmul");
    for (name, a, t) in [
        ("serial_32x637x128", &a32, 1),
        ("threaded_32x637x128", &a32, threads),
        ("serial_256x637x128", &a256, 1),
        ("threaded_256x637x128", &a256, threads),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| black_box(a).matmul_into(black_box(&w), &mut out, t))
        });
    }
    g.finish();
}

fn bench_pair_matrix(c: &mut Criterion) {
    // Nested (Vec<Vec<f32>>) vs flat contiguous pair featurization, and
    // the flat path's serial vs threaded fill.
    let dataset = generate(Domain::Cameras, 3);
    let embeddings = small_embeddings(16);
    let store = PropertyFeatureStore::build(&dataset, &embeddings);
    let sources: Vec<SourceId> = (0..dataset.sources().len())
        .map(|i| SourceId(i as u16))
        .collect();
    let pairs: Vec<(PropertyKey, PropertyKey)> = dataset
        .cross_source_pairs(&sources)
        .into_iter()
        .map(|PropertyPair(a, b)| (a, b))
        .collect();
    let cfg = FeatureConfig::full();
    let threads = leapme::nn::threads::thread_count();

    let mut g = c.benchmark_group("pair_matrix");
    g.bench_function("nested", |b| {
        b.iter(|| store.pair_matrix(black_box(&pairs), black_box(&cfg)).unwrap())
    });
    g.bench_function("flat_serial", |b| {
        b.iter(|| {
            store
                .pair_matrix_flat_with_threads(black_box(&pairs), black_box(&cfg), 1)
                .unwrap()
        })
    });
    g.bench_function("flat_threaded", |b| {
        b.iter(|| {
            store
                .pair_matrix_flat_with_threads(black_box(&pairs), black_box(&cfg), threads)
                .unwrap()
        })
    });
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    // End-to-end pair vectorization + scoring on a small real dataset.
    let dataset = generate(Domain::Tvs, 1);
    let embeddings = small_embeddings(16);
    let store = PropertyFeatureStore::build(&dataset, &embeddings);
    let mut rng = StdRng::seed_from_u64(2);
    let split = sampling::split_sources(dataset.sources().len(), 0.8, &mut rng).unwrap();
    let train = sampling::training_pairs(&dataset, &split.train, 2, &mut rng);
    let cfg = LeapmeConfig {
        train: TrainConfig {
            schedule: LrSchedule::constant(2, 1e-3),
            ..TrainConfig::default()
        },
        hidden: vec![16],
        ..LeapmeConfig::default()
    };
    let model = Leapme::fit(&store, &train, &cfg).unwrap();
    let test: Vec<PropertyPair> = sampling::test_pairs(&dataset, &split.train)
        .into_iter()
        .take(256)
        .collect();

    let mut g = c.benchmark_group("pipeline");
    g.bench_function("feature_store_build_tvs", |b| {
        b.iter(|| PropertyFeatureStore::build(black_box(&dataset), black_box(&embeddings)))
    });
    g.bench_function("score_256_pairs", |b| {
        b.iter(|| model.score_pairs(black_box(&store), black_box(&test)).unwrap())
    });
    g.finish();
}

criterion_group! {
    name = benches;
    // Modest sampling keeps the full suite around a minute while staying
    // well above measurement noise for these micro-scale benches.
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_textsim,
    bench_features,
    bench_minhash,
    bench_nn,
    bench_matmul,
    bench_pair_matrix,
    bench_pipeline
}
criterion_main!(benches);

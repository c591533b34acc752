//! Experiment E9 — matching cost vs number of sources, with and without
//! blocking.
//!
//! Multi-source matching is quadratic in the number of properties; the
//! paper's holistic-integration motivation (§I) implies far more sources
//! than its evaluation uses. This study regenerates the camera ontology
//! at increasing source counts and measures, per configuration: the
//! candidate-space size, wall time to score it, and (for the blocked
//! variant) the blocking quality — showing how token+embedding blocking
//! bends the quadratic curve while keeping recall.
//!
//! ```text
//! cargo run --release -p leapme-bench --bin scalability -- [--dim 50] [--seed 42]
//! ```

use leapme::core::blocking::{combined_candidates, evaluate_blocking, EmbeddingBlocker, TokenBlocker};
use leapme::core::pipeline::{Leapme, LeapmeConfig, ScoreOptions};
use leapme::core::sampling;
use leapme::data::spec::{generate_dataset, EntityCount};
use leapme::prelude::*;
use leapme_bench::{prepare_embeddings, Args, MarkdownTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let dim: usize = args.get_or("dim", 50);
    let seed: u64 = args.get_or("seed", 42);
    let source_counts = [4usize, 8, 16, 24];
    let opts = ScoreOptions {
        cancel: None,
        threads: leapme::features::worker_threads(),
    };

    let spec = Domain::Cameras.spec();
    let embeddings = prepare_embeddings(&[Domain::Cameras], dim, seed);

    let mut md = MarkdownTable::new(&[
        "Sources",
        "Properties",
        "Full pairs",
        "Full score (s)",
        "Blocked pairs",
        "Blocked score (s)",
        "Reduction",
        "Completeness",
    ]);
    println!(
        "{:>7} {:>10} {:>11} {:>13} {:>13} {:>16} {:>9} {:>12}",
        "sources", "props", "full pairs", "full time", "blocked pairs", "blocked time", "reduct", "completeness"
    );

    for &n in &source_counts {
        let mut cfg = Domain::Cameras.generator_config();
        cfg.n_sources = n;
        cfg.entities = EntityCount::Balanced(40); // keep instance volume moderate
        let dataset = generate_dataset(&spec, &cfg, seed);
        let store = PropertyFeatureStore::build(&dataset, &embeddings);

        // Train once on a fixed split.
        let mut rng = StdRng::seed_from_u64(seed);
        let split = sampling::split_sources(n, 0.5, &mut rng).expect("split");
        let train = sampling::training_pairs(&dataset, &split.train, 2, &mut rng);
        let model = Leapme::fit(&store, &train, &LeapmeConfig::default()).expect("fit");

        // Full candidate space.
        let all_sources: Vec<SourceId> = (0..n).map(|i| SourceId(i as u16)).collect();
        let full: Vec<PropertyPair> = dataset.cross_source_pairs(&all_sources);
        let t0 = Instant::now();
        let _ = model.score(&store, &full, &opts).expect("score full");
        let full_time = t0.elapsed().as_secs_f64();

        // Blocked candidate space.
        let candidates = combined_candidates(
            &dataset,
            &embeddings,
            &TokenBlocker::default(),
            &EmbeddingBlocker::default(),
        );
        let stats = evaluate_blocking(&dataset, &candidates);
        let blocked: Vec<PropertyPair> = candidates.iter().cloned().collect();
        let t1 = Instant::now();
        let _ = model.score(&store, &blocked, &opts).expect("score blocked");
        let blocked_time = t1.elapsed().as_secs_f64();

        println!(
            "{:>7} {:>10} {:>11} {:>13.2} {:>13} {:>16.2} {:>9.2} {:>12.2}",
            n,
            dataset.properties().len(),
            full.len(),
            full_time,
            blocked.len(),
            blocked_time,
            stats.reduction_ratio,
            stats.pair_completeness
        );
        md.row(&[
            n.to_string(),
            dataset.properties().len().to_string(),
            full.len().to_string(),
            format!("{full_time:.2}"),
            blocked.len().to_string(),
            format!("{blocked_time:.2}"),
            format!("{:.3}", stats.reduction_ratio),
            format!("{:.3}", stats.pair_completeness),
        ]);
    }

    let mut out = String::new();
    writeln!(
        out,
        "# Scalability: matching cost vs sources (E9)\n\nCamera ontology at growing source counts; one LEAPME model per size scores the\nfull cross-source pair space vs the token+embedding blocked candidates. Seed {seed}, dim {dim}.\n"
    )
    .unwrap();
    out.push_str(&md.render());
    leapme_bench::write_result("scalability.md", &out);
}

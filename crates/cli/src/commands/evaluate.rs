//! `leapme evaluate` — score a similarity graph against a dataset's
//! ground truth.

use super::{load_dataset, load_graph};
use crate::args::Flags;
use crate::CliError;
use leapme::core::metrics::Metrics;
use leapme::data::model::PropertyPair;
use std::collections::BTreeSet;

/// Flags this command reads; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &["dataset", "graph", "threshold"];

/// Run the command.
pub fn run(flags: &Flags) -> Result<String, CliError> {
    let dataset = load_dataset(flags.require("dataset")?)?;
    let graph = load_graph(flags.require("graph")?)?;
    let threshold: f32 = flags.get_or("threshold", 0.5)?;

    let predicted = graph.matches(threshold);
    // Restrict ground truth to the pairs the graph actually scored — the
    // graph typically covers only the held-out region.
    let scored: BTreeSet<PropertyPair> = graph.iter().map(|(p, _)| p.clone()).collect();
    let actual: BTreeSet<PropertyPair> = dataset
        .ground_truth_pairs()
        .into_iter()
        .filter(|p| scored.contains(p))
        .collect();
    let m = Metrics::from_sets(&predicted, &actual);
    Ok(format!(
        "graph: {} scored pairs, {} predicted matches at threshold {threshold}\n\
         ground truth in scope: {} pairs\n{m}",
        graph.len(),
        predicted.len(),
        actual.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapme::core::simgraph::SimilarityGraph;
    use leapme::data::domains::{generate, Domain};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("leapme_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn evaluates_perfect_graph() {
        let ds = generate(Domain::Headphones, 4);
        let ds_path = tmp("eval_ds.json");
        std::fs::write(&ds_path, ds.to_json()).unwrap();

        // Build a graph scoring exactly the ground truth at 1.0.
        let mut graph = SimilarityGraph::new();
        for p in ds.ground_truth_pairs() {
            graph.add(p, 1.0);
        }
        let graph_path = tmp("eval_graph.json");
        std::fs::write(&graph_path, serde_json::to_string(&graph).unwrap()).unwrap();

        let out = run(&Flags::from_pairs(&[
            ("dataset", ds_path.to_str().unwrap()),
            ("graph", graph_path.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(out.contains("P=1.000 R=1.000"), "{out}");
        std::fs::remove_file(ds_path).ok();
        std::fs::remove_file(graph_path).ok();
    }

    #[test]
    fn threshold_changes_predictions() {
        let ds = generate(Domain::Headphones, 5);
        let ds_path = tmp("eval_ds2.json");
        std::fs::write(&ds_path, ds.to_json()).unwrap();
        let mut graph = SimilarityGraph::new();
        for (i, p) in ds.ground_truth_pairs().into_iter().enumerate() {
            graph.add(p, if i % 2 == 0 { 0.9 } else { 0.4 });
        }
        let graph_path = tmp("eval_graph2.json");
        std::fs::write(&graph_path, serde_json::to_string(&graph).unwrap()).unwrap();

        let strict = run(&Flags::from_pairs(&[
            ("dataset", ds_path.to_str().unwrap()),
            ("graph", graph_path.to_str().unwrap()),
            ("threshold", "0.5"),
        ]))
        .unwrap();
        let loose = run(&Flags::from_pairs(&[
            ("dataset", ds_path.to_str().unwrap()),
            ("graph", graph_path.to_str().unwrap()),
            ("threshold", "0.1"),
        ]))
        .unwrap();
        assert!(strict.contains("R=0.5") || strict.contains("R=0.4"), "{strict}");
        assert!(loose.contains("R=1.000"), "{loose}");
        std::fs::remove_file(ds_path).ok();
        std::fs::remove_file(graph_path).ok();
    }
}

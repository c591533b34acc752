//! `leapme analyze` — error breakdown of a similarity graph against a
//! dataset's ground truth.

use super::{load_dataset, load_graph};
use crate::args::Flags;
use crate::CliError;
use leapme::core::analysis::analyze;
use leapme::data::model::PropertyPair;

/// Flags this command reads; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &["dataset", "graph", "threshold"];

/// Run the command.
pub fn run(flags: &Flags) -> Result<String, CliError> {
    let dataset = load_dataset(flags.require("dataset")?)?;
    let graph = load_graph(flags.require("graph")?)?;
    let threshold: f32 = flags.get_or("threshold", 0.5)?;

    let candidates: Vec<PropertyPair> = graph.iter().map(|(p, _)| p.clone()).collect();
    let predicted = graph.matches(threshold);
    let report = analyze(&dataset, &predicted, &candidates);
    Ok(report.to_text())
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
    fn analyzes_imperfect_graph() {
        let ds = generate(Domain::Headphones, 12);
        let ds_path = tmp("analyze_ds.json");
        std::fs::write(&ds_path, ds.to_json()).unwrap();

        // Graph: all ground truth at 0.9, but miss every third pair
        // (scored 0.2) and add noise edges.
        let mut graph = SimilarityGraph::new();
        for (i, p) in ds.ground_truth_pairs().into_iter().enumerate() {
            graph.add(p, if i % 3 == 0 { 0.2 } else { 0.9 });
        }
        let graph_path = tmp("analyze_graph.json");
        std::fs::write(&graph_path, serde_json::to_string(&graph).unwrap()).unwrap();

        let out = run(&Flags::from_pairs(&[
            ("dataset", ds_path.to_str().unwrap()),
            ("graph", graph_path.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(out.contains("hardest reference properties"), "{out}");
        assert!(out.contains("missed"), "{out}");
        std::fs::remove_file(ds_path).ok();
        std::fs::remove_file(graph_path).ok();
    }
}

//! `leapme cluster` — derive property clusters from a similarity graph.

use super::{load_graph, to_json_pretty};
use crate::args::Flags;
use crate::CliError;
use leapme::core::cluster::{connected_components, star_clustering, Clustering};
use std::fmt::Write as _;

/// Flags this command reads; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &["graph", "method", "out", "threshold"];

/// Run the command.
pub fn run(flags: &Flags) -> Result<String, CliError> {
    let graph = load_graph(flags.require("graph")?)?;
    let threshold: f32 = flags.get_or("threshold", 0.5)?;
    let method = flags.get("method").unwrap_or("star");

    let clustering: Clustering = match method {
        "star" => star_clustering(&graph, threshold),
        "components" => connected_components(&graph, threshold),
        other => {
            return Err(CliError::Usage(format!(
                "unknown method {other:?} (expected star or components)"
            )))
        }
    };

    let mut out = String::new();
    let non_trivial: Vec<_> = clustering.non_trivial().collect();
    writeln!(
        out,
        "{} clusters ({} with ≥2 members) from {} nodes at threshold {threshold} ({method})",
        clustering.len(),
        non_trivial.len(),
        graph.nodes().len()
    )
    .unwrap();
    let mut sorted = non_trivial.clone();
    sorted.sort_by_key(|c| std::cmp::Reverse(c.len()));
    for cluster in sorted.iter().take(20) {
        writeln!(out, "── cluster of {}:", cluster.len()).unwrap();
        for key in cluster.iter().take(8) {
            writeln!(out, "   {key}").unwrap();
        }
        if cluster.len() > 8 {
            writeln!(out, "   … and {} more", cluster.len() - 8).unwrap();
        }
    }
    if let Some(json_out) = flags.get("out") {
        let clusters_json: Vec<Vec<String>> = clustering
            .clusters()
            .iter()
            .map(|c| c.iter().map(|k| k.to_string()).collect())
            .collect();
        leapme::data::io::atomic_write(
            std::path::Path::new(json_out),
            to_json_pretty(&clusters_json, "clusters")?.as_bytes(),
        )?;
        writeln!(out, "[clusters written to {json_out}]").unwrap();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapme::core::simgraph::SimilarityGraph;
    use leapme::data::model::{PropertyKey, PropertyPair, SourceId};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("leapme_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn graph_file(name: &str) -> std::path::PathBuf {
        let mut g = SimilarityGraph::new();
        let key = |s: u16, n: &str| PropertyKey::new(SourceId(s), n);
        g.add(PropertyPair::new(key(0, "mp"), key(1, "resolution")), 0.9);
        g.add(PropertyPair::new(key(1, "resolution"), key(2, "pixels")), 0.8);
        g.add(PropertyPair::new(key(0, "mp"), key(2, "weight")), 0.1);
        let path = tmp(name);
        std::fs::write(&path, serde_json::to_string(&g).unwrap()).unwrap();
        path
    }

    #[test]
    fn clusters_with_both_methods() {
        let path = graph_file("cluster_graph.json");
        for method in ["star", "components"] {
            let out = run(&Flags::from_pairs(&[
                ("graph", path.to_str().unwrap()),
                ("method", method),
            ]))
            .unwrap();
            assert!(out.contains("clusters"), "{out}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn writes_cluster_json() {
        let path = graph_file("cluster_graph2.json");
        let out_path = tmp("clusters.json");
        run(&Flags::from_pairs(&[
            ("graph", path.to_str().unwrap()),
            ("out", out_path.to_str().unwrap()),
        ]))
        .unwrap();
        let clusters: Vec<Vec<String>> =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert!(!clusters.is_empty());
        std::fs::remove_file(path).ok();
        std::fs::remove_file(out_path).ok();
    }

    #[test]
    fn rejects_unknown_method() {
        let path = graph_file("cluster_graph3.json");
        let err = run(&Flags::from_pairs(&[
            ("graph", path.to_str().unwrap()),
            ("method", "kmeans"),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("kmeans"));
        std::fs::remove_file(path).ok();
    }
}

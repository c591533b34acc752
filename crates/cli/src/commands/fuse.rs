//! `leapme fuse` — derive a unified schema from a similarity graph.

use super::{load_dataset, load_graph, to_json_pretty};
use crate::args::Flags;
use crate::CliError;
use leapme::core::cluster::{connected_components, star_clustering};
use leapme::core::fusion::fuse;

/// Flags this command reads; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &["dataset", "graph", "method", "out", "threshold"];

/// Run the command.
pub fn run(flags: &Flags) -> Result<String, CliError> {
    let dataset = load_dataset(flags.require("dataset")?)?;
    let graph = load_graph(flags.require("graph")?)?;
    let threshold: f32 = flags.get_or("threshold", 0.5)?;
    let method = flags.get("method").unwrap_or("star");

    let clustering = match method {
        "star" => star_clustering(&graph, threshold),
        "components" => connected_components(&graph, threshold),
        other => {
            return Err(CliError::Usage(format!(
                "unknown method {other:?} (expected star or components)"
            )))
        }
    };
    let schema = fuse(&dataset, &clustering);

    let mut out = schema.to_text();
    if let Some(path) = flags.get("out") {
        leapme::data::io::atomic_write(
            std::path::Path::new(path),
            to_json_pretty(&schema, "unified schema")?.as_bytes(),
        )?;
        out.push_str(&format!("\n[schema written to {path}]\n"));
    }
    Ok(out)
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
    fn fuses_ground_truth_graph() {
        let ds = generate(Domain::Headphones, 3);
        let ds_path = tmp("fuse_ds.json");
        std::fs::write(&ds_path, ds.to_json()).unwrap();

        let mut graph = SimilarityGraph::new();
        for p in ds.ground_truth_pairs() {
            graph.add(p, 0.95);
        }
        let graph_path = tmp("fuse_graph.json");
        std::fs::write(&graph_path, serde_json::to_string(&graph).unwrap()).unwrap();
        let schema_path = tmp("fuse_schema.json");

        let out = run(&Flags::from_pairs(&[
            ("dataset", ds_path.to_str().unwrap()),
            ("graph", graph_path.to_str().unwrap()),
            ("out", schema_path.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(out.contains("unified schema"), "{out}");
        assert!(out.contains("samples:"), "{out}");
        assert!(schema_path.exists());
        let schema: leapme::core::fusion::UnifiedSchema =
            serde_json::from_str(&std::fs::read_to_string(&schema_path).unwrap()).unwrap();
        assert!(!schema.properties.is_empty());
        for p in [ds_path, graph_path, schema_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn propagates_graph_errors() {
        let err = run(&Flags::from_pairs(&[
            ("dataset", "/no/ds.json"),
            ("graph", "/no/graph.json"),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }

    #[test]
    fn unknown_method_rejected() {
        let ds = generate(Domain::Tvs, 4);
        let ds_path = tmp("fuse_ds2.json");
        std::fs::write(&ds_path, ds.to_json()).unwrap();
        let graph_path = tmp("fuse_graph2.json");
        std::fs::write(
            &graph_path,
            serde_json::to_string(&SimilarityGraph::new()).unwrap(),
        )
        .unwrap();
        let err = run(&Flags::from_pairs(&[
            ("dataset", ds_path.to_str().unwrap()),
            ("graph", graph_path.to_str().unwrap()),
            ("method", "dbscan"),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("dbscan"));
        std::fs::remove_file(ds_path).ok();
        std::fs::remove_file(graph_path).ok();
    }
}

//! `leapme stats` — dataset statistics.

use super::load_dataset;
use crate::args::Flags;
use crate::CliError;
use std::fmt::Write as _;

/// Flags this command reads; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &["dataset"];

/// Run the command.
pub fn run(flags: &Flags) -> Result<String, CliError> {
    let dataset = load_dataset(flags.require("dataset")?)?;
    let s = dataset.stats();
    let mut out = String::new();
    writeln!(out, "dataset        : {}", dataset.name()).unwrap();
    writeln!(out, "sources        : {}", s.sources).unwrap();
    writeln!(out, "properties     : {} ({} aligned)", s.properties, s.aligned_properties).unwrap();
    writeln!(out, "entities       : {}", s.entities).unwrap();
    writeln!(out, "instances      : {}", s.instances).unwrap();
    writeln!(out, "matching pairs : {}", s.matching_pairs).unwrap();
    writeln!(out, "\nper-source schema sizes:").unwrap();
    for (i, name) in dataset.sources().iter().enumerate() {
        let schema = dataset.schema_of(leapme::data::model::SourceId(i as u16));
        writeln!(out, "  {name:<24} {:>4} properties", schema.len()).unwrap();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapme::data::domains::{generate, Domain};

    #[test]
    fn prints_statistics() {
        let dir = std::env::temp_dir().join("leapme_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stats_ds.json");
        std::fs::write(&path, generate(Domain::Headphones, 1).to_json()).unwrap();
        let out = run(&Flags::from_pairs(&[("dataset", path.to_str().unwrap())])).unwrap();
        assert!(out.contains("sources        : 8"));
        assert!(out.contains("per-source schema sizes"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = run(&Flags::from_pairs(&[("dataset", "/no/such.json")])).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }
}

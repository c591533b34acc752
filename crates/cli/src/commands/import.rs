//! `leapme import` — convert CSV instance (and optional alignment) files
//! into a dataset JSON ready for `leapme match`.

use crate::args::Flags;
use crate::CliError;
use leapme::data::io::{read_dataset, read_dataset_lenient};
use std::path::Path;

/// Flags this command reads; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &["alignments", "instances", "lenient", "name", "out"];

/// Run the command.
pub fn run(flags: &Flags) -> Result<String, CliError> {
    let instances = flags.require("instances")?;
    let name = flags.get("name").unwrap_or("imported");
    let out = flags.require("out")?;
    let alignments = flags.get("alignments").map(Path::new);

    // Strict mode (the default) fails the whole import on the first
    // malformed row; `--lenient` imports the good rows and reports the
    // skipped ones (capped at the first 20).
    let (dataset, note) = if flags.is_set("lenient") {
        let (dataset, report) = read_dataset_lenient(name, Path::new(instances), alignments)
            .map_err(|e| CliError::Parse(e.to_string()))?;
        let note = if report.skipped > 0 {
            format!("\n{}", report.summary())
        } else {
            String::new()
        };
        (dataset, note)
    } else {
        let dataset = read_dataset(name, Path::new(instances), alignments)
            .map_err(|e| CliError::Parse(e.to_string()))?;
        (dataset, String::new())
    };
    leapme::data::io::atomic_write(Path::new(out), dataset.to_json().as_bytes())?;
    let s = dataset.stats();
    Ok(format!(
        "wrote {out}: {} sources, {} properties ({} aligned), {} instances, {} matching pairs{note}",
        s.sources, s.properties, s.aligned_properties, s.instances, s.matching_pairs
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapme::data::model::Dataset;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("leapme_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn imports_csv_pair() {
        let inst = tmp("import_instances.csv");
        std::fs::write(
            &inst,
            "source,property,entity,value\nshopA,mp,e1,20 MP\nshopB,resolution,x1,20\n",
        )
        .unwrap();
        let align = tmp("import_alignments.csv");
        std::fs::write(
            &align,
            "source,property,reference\nshopA,mp,resolution\nshopB,resolution,resolution\n",
        )
        .unwrap();
        let out = tmp("import_out.json");
        let msg = run(&Flags::from_pairs(&[
            ("instances", inst.to_str().unwrap()),
            ("alignments", align.to_str().unwrap()),
            ("name", "myshop"),
            ("out", out.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(msg.contains("1 matching pairs"), "{msg}");
        let ds = Dataset::from_json(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(ds.name(), "myshop");
        for p in [inst, align, out] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn lenient_import_skips_bad_rows_and_reports_them() {
        let inst = tmp("import_lenient.csv");
        std::fs::write(
            &inst,
            "source,property,entity,value\n\
             shopA,mp,e1,20 MP\n\
             too,few\n\
             shopB,resolution,x1,20\n",
        )
        .unwrap();
        let out = tmp("import_lenient_out.json");
        let msg = run(&Flags::from_pairs(&[
            ("instances", inst.to_str().unwrap()),
            ("lenient", "true"),
            ("out", out.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(msg.contains("2 instances"), "{msg}");
        assert!(msg.contains("skipped 1 malformed"), "{msg}");
        assert!(msg.contains("line 3"), "{msg}");
        for p in [inst, out] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn reports_csv_errors() {
        let inst = tmp("import_bad.csv");
        std::fs::write(&inst, "h\ntoo,few\n").unwrap();
        let err = run(&Flags::from_pairs(&[
            ("instances", inst.to_str().unwrap()),
            ("out", "unused.json"),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        std::fs::remove_file(inst).ok();
    }
}

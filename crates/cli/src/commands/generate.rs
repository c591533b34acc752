//! `leapme generate` — emit a synthetic evaluation dataset as JSON.

use super::parse_domain;
use crate::args::Flags;
use crate::CliError;
use leapme::data::domains::generate;

/// Flags this command reads; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &["domain", "out", "seed"];

/// Run the command.
pub fn run(flags: &Flags) -> Result<String, CliError> {
    let domain = parse_domain(flags.require("domain")?)?;
    let seed: u64 = flags.get_or("seed", 42)?;
    let out = flags.require("out")?;

    let dataset = generate(domain, seed);
    leapme::data::io::atomic_write(std::path::Path::new(out), dataset.to_json().as_bytes())?;
    let stats = dataset.stats();
    Ok(format!(
        "wrote {out}: {} sources, {} properties, {} instances, {} matching pairs (seed {seed})",
        stats.sources, stats.properties, stats.instances, stats.matching_pairs
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
    fn generates_loadable_dataset() {
        let path = tmp("gen_tvs.json");
        let flags = Flags::from_pairs(&[
            ("domain", "tvs"),
            ("seed", "7"),
            ("out", path.to_str().unwrap()),
        ]);
        let msg = run(&flags).unwrap();
        assert!(msg.contains("8 sources"));
        let ds = Dataset::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(ds.name(), "tvs");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn requires_domain_and_out() {
        assert!(run(&Flags::from_pairs(&[("out", "x")])).is_err());
        assert!(run(&Flags::from_pairs(&[("domain", "tvs")])).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let p1 = tmp("gen_a.json");
        let p2 = tmp("gen_b.json");
        for p in [&p1, &p2] {
            run(&Flags::from_pairs(&[
                ("domain", "headphones"),
                ("seed", "3"),
                ("out", p.to_str().unwrap()),
            ]))
            .unwrap();
        }
        assert_eq!(
            std::fs::read_to_string(&p1).unwrap(),
            std::fs::read_to_string(&p2).unwrap()
        );
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }
}

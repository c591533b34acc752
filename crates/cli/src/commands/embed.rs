//! `leapme embed` — train GloVe embeddings on domain corpora and save in
//! the standard text format.

use super::parse_domain;
use crate::args::Flags;
use crate::CliError;
use leapme::embedding::glove::GloVeConfig;
use leapme::{train_domain_embeddings, EmbeddingTrainingConfig};

/// Flags this command reads; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &["dim", "domains", "epochs", "out", "seed"];

/// Run the command.
pub fn run(flags: &Flags) -> Result<String, CliError> {
    let domains: Vec<_> = flags
        .require("domains")?
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse_domain(s.trim()))
        .collect::<Result<_, _>>()?;
    if domains.is_empty() {
        return Err(CliError::Usage("--domains must name at least one domain".into()));
    }
    let dim: usize = flags.get_or("dim", 50)?;
    let seed: u64 = flags.get_or("seed", 42)?;
    let epochs: usize = flags.get_or("epochs", 25)?;
    let out = flags.require("out")?;

    let cfg = EmbeddingTrainingConfig {
        glove: GloVeConfig {
            dim,
            epochs,
            ..GloVeConfig::default()
        },
        ..EmbeddingTrainingConfig::default()
    };
    let store = train_domain_embeddings(&domains, &cfg, seed)
        .map_err(|e| CliError::Pipeline(format!("embedding training failed: {e}")))?;
    store
        .save_text(std::path::Path::new(out))
        .map_err(|e| CliError::Pipeline(format!("saving {out}: {e}")))?;
    Ok(format!(
        "wrote {out}: {} vectors × {dim} dims ({} domains, {epochs} epochs, seed {seed})",
        store.len(),
        domains.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapme::embedding::store::EmbeddingStore;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("leapme_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn trains_and_saves_loadable_vectors() {
        let path = tmp("embed.txt");
        let flags = Flags::from_pairs(&[
            ("domains", "tvs"),
            ("dim", "8"),
            ("epochs", "2"),
            ("out", path.to_str().unwrap()),
        ]);
        let msg = run(&flags).unwrap();
        assert!(msg.contains("8 dims"));
        let store = EmbeddingStore::load_text(&path).unwrap();
        assert_eq!(store.dim(), 8);
        assert!(store.len() > 20);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_empty_domains() {
        let flags = Flags::from_pairs(&[("domains", ""), ("out", "x.txt")]);
        assert!(run(&flags).is_err());
    }

    #[test]
    fn rejects_unknown_domain() {
        let flags = Flags::from_pairs(&[("domains", "toasters"), ("out", "x.txt")]);
        assert!(run(&flags).is_err());
    }
}

//! `leapme registry` — inspect a multi-domain model registry root and
//! migrate legacy v1 artifacts to the zero-copy v2 container layout.
//!
//! Two modes:
//!
//! * `--dir <root>` faults every domain in and prints one line per
//!   domain (open path, resident bytes, open latency, feature-store
//!   source, name-distance table entries) plus the aggregate stats the
//!   server would report under `/metrics` → `registry`.
//! * `--upgrade <in> --out <out>` rewrites a v1 `.lmp` model, `.lfc`
//!   feature cache, or resident snapshot as a v2 section container.
//!   Loading goes through the normal typed-validation path, so a
//!   corrupt input fails cleanly instead of propagating garbage.

use super::to_json_pretty;
use crate::args::Flags;
use crate::CliError;
use leapme::core::feature_cache;
use leapme::core::pipeline::LeapmeModel;
use leapme::core::registry::{ModelRegistry, RegistryConfig};
use leapme::nn::checkpoint::{KIND_FEATURE_CACHE, KIND_PIPELINE, KIND_RESIDENT};
use leapme::nn::container2::{open_any, Opened};
use leapme::serve::snapshot;
use std::fmt::Write as _;
use std::path::Path;

/// Flags this command reads; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &["dir", "out", "upgrade"];

/// Run the command.
pub fn run(flags: &Flags) -> Result<String, CliError> {
    match (flags.get("dir"), flags.get("upgrade")) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--dir and --upgrade are exclusive; inspect or migrate, not both".into(),
        )),
        (Some(dir), None) => inspect(dir),
        (None, Some(input)) => upgrade(input, flags.require("out")?),
        (None, None) => Err(CliError::Usage(
            "registry needs --dir <root> (inspect) or --upgrade <in> --out <out> (migrate v1 → v2)"
                .into(),
        )),
    }
}

/// Fault every domain in and print what the server would keep resident.
///
/// Inspect is also the integrity sweep: the serve path defers payload
/// checksums on zero-copy sections (that is what makes fault-in O(1)),
/// so this command re-opens every domain artifact and forces the full
/// per-section CRC walk — a corrupted slab or name-distance table that
/// a resident server would happily map fails *here*, typed, which is
/// what the verify.sh corrupt-section drill leans on. The table is also
/// joined to the store's names, which checks its length.
fn inspect(dir: &str) -> Result<String, CliError> {
    let registry = ModelRegistry::open(Path::new(dir), RegistryConfig::default())
        .map_err(|e| CliError::Pipeline(format!("{dir}: {e}")))?;
    let mut out = String::new();
    for name in registry.domains() {
        let domain = registry
            .get(&name)
            .map_err(|e| CliError::Pipeline(format!("domain {name}: {e}")))?;
        let verified = verify_domain_artifacts(Path::new(dir), &name)?;
        domain
            .store
            .join_pair_table()
            .map_err(|e| CliError::Pipeline(format!("domain {name}: features.lfc: {e}")))?;
        let _ = writeln!(
            out,
            "{name}: open={} store={} bytes={} open_ms={} properties={} sources={} \
             pair_table={} verified={verified}",
            domain.model_open_path.label(),
            domain.store_source,
            domain.bytes,
            domain.open_ms,
            domain.store.len(),
            domain.sources,
            domain
                .store
                .pair_table_stats()
                .map_or(0, |(_, entries, _)| entries),
        );
    }
    let stats = to_json_pretty(&registry.stats(), "registry stats")?;
    let _ = write!(out, "{stats}");
    Ok(out)
}

/// Full checksum sweep over one domain's container artifacts. v1 files
/// verify their single payload CRC at parse; v2 files get the explicit
/// every-section [`verify_all`] walk the lazy serve path skips.
///
/// [`verify_all`]: leapme::nn::container2::V2Container::verify_all
fn verify_domain_artifacts(root: &Path, name: &str) -> Result<&'static str, CliError> {
    let dir = root.join(name);
    for (file, kind) in [
        ("model.lmp", KIND_PIPELINE),
        ("features.lfc", KIND_FEATURE_CACHE),
    ] {
        let path = dir.join(file);
        if !path.exists() {
            continue; // embeddings.txt domains build their store fresh
        }
        match open_any(&path, kind)
            .map_err(|e| CliError::Pipeline(format!("domain {name}: {file}: {e}")))?
        {
            Opened::V1(_) => {} // parse already checked the payload CRC
            Opened::V2(container) => container
                .verify_all()
                .map_err(|e| CliError::Pipeline(format!("domain {name}: {file}: {e}")))?,
        }
    }
    Ok("full")
}

/// Sniff the container version + kind (both formats keep the kind byte
/// at offset 12) and rewrite the artifact in the v2 layout.
fn upgrade(input: &str, output: &str) -> Result<String, CliError> {
    let in_path = Path::new(input);
    let out_path = Path::new(output);
    let header = {
        let bytes = std::fs::read(in_path)?;
        if bytes.len() < 13 {
            return Err(CliError::Parse(format!(
                "{input}: too short to be a LEAPMECP container"
            )));
        }
        (
            u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
            bytes[12],
        )
    };
    let (version, kind) = header;
    let what = match kind {
        KIND_PIPELINE => {
            let (model, open_path) = LeapmeModel::load_with_report(in_path)
                .map_err(|e| CliError::Pipeline(format!("{input}: {e}")))?;
            model
                .save(out_path)
                .map_err(|e| CliError::Pipeline(format!("{output}: {e}")))?;
            format!("model (read via {})", open_path.label())
        }
        KIND_FEATURE_CACHE => {
            let (store, fp, source) = feature_cache::load_resident(in_path)
                .map_err(|e| CliError::Pipeline(format!("{input}: {e}")))?;
            feature_cache::save(out_path, &store, &fp)
                .map_err(|e| CliError::Pipeline(format!("{output}: {e}")))?;
            format!("feature cache (read via {source})")
        }
        KIND_RESIDENT => {
            let snap = snapshot::load(in_path)
                .map_err(|e| CliError::Pipeline(format!("{input}: {e}")))?
                .ok_or_else(|| CliError::Parse(format!("{input}: no snapshot present")))?;
            snapshot::save(out_path, &snap)
                .map_err(|e| CliError::Pipeline(format!("{output}: {e}")))?;
            "resident snapshot".to_string()
        }
        other => {
            return Err(CliError::Usage(format!(
                "{input}: container kind {other} has no registry artifact upgrade \
                 (supported: model .lmp, feature cache .lfc, resident snapshot)"
            )));
        }
    };
    Ok(format!(
        "upgraded {what}: v{version} {input} -> v2 {output}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapme::data::domains::{generate, Domain};
    use leapme::embedding::store::EmbeddingStore;
    use leapme::features::PropertyFeatureStore;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("leapme_cli_registry_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn modes_are_exclusive_and_one_is_required() {
        let err = run(&Flags::from_pairs(&[])).unwrap_err();
        assert!(err.to_string().contains("--dir"));
        let err = run(&Flags::from_pairs(&[("dir", "x"), ("upgrade", "y")])).unwrap_err();
        assert!(err.to_string().contains("exclusive"));
    }

    #[test]
    fn upgrade_migrates_a_v1_feature_cache() {
        let dataset = generate(Domain::Tvs, 3);
        let embeddings = EmbeddingStore::new(8);
        let store = PropertyFeatureStore::build(&dataset, &embeddings);
        let fp = feature_cache::fingerprint(&dataset, &embeddings);
        let v1 = tmp("up_v1.lfc");
        let v2 = tmp("up_v2.lfc");
        feature_cache::save_v1(&v1, &store, &fp).unwrap();

        let msg = run(&Flags::from_pairs(&[
            ("upgrade", v1.to_str().unwrap()),
            ("out", v2.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(msg.contains("upgraded feature cache"), "{msg}");
        assert!(msg.contains("legacy-v1"), "{msg}");

        // The migrated file opens on the zero-copy path, carries the
        // same fingerprint and vectors, and gains the name-distance
        // table the v1 file lacked.
        let sections: Vec<String> =
            leapme::nn::container2::V2Container::open(&v2, KIND_FEATURE_CACHE)
                .unwrap()
                .sections()
                .map(|s| s.name.to_string())
                .collect();
        assert_eq!(
            sections,
            ["meta", "keys", "vectors", feature_cache::PAIR_TABLE_SECTION]
        );
        let (back, back_fp, source) = feature_cache::load_resident(&v2).unwrap();
        assert_ne!(source, "legacy-v1");
        assert_eq!(back_fp.dataset, fp.dataset);
        assert_eq!(back.len(), store.len());
        for (key, vector) in store.iter() {
            assert_eq!(back.property_vector(key).unwrap(), vector);
        }
        for p in [v1, v2] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn upgrade_migrates_a_v1_model() {
        use leapme::core::pipeline::{Leapme, LeapmeConfig, ModelOpenPath};
        use leapme::core::sampling;
        use leapme::data::model::SourceId;
        use leapme::nn::network::TrainConfig;
        use leapme::nn::schedule::LrSchedule;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let dataset = generate(Domain::Tvs, 7);
        let store = PropertyFeatureStore::build(&dataset, &EmbeddingStore::new(8));
        let sources: Vec<SourceId> = (0..4).map(SourceId).collect();
        let train = sampling::training_pairs(&dataset, &sources, 2, &mut StdRng::seed_from_u64(7));
        let cfg = LeapmeConfig {
            train: TrainConfig {
                schedule: LrSchedule::new(vec![(4, 1e-3)]),
                ..TrainConfig::default()
            },
            hidden: vec![8],
            ..LeapmeConfig::default()
        };
        let model = Leapme::fit(&store, &train, &cfg).unwrap();
        let v1 = tmp("up_v1.lmp");
        let v2 = tmp("up_v2.lmp");
        let upgraded = tmp("up_upgraded.lmp");
        model.save_v1(&v1).unwrap();
        model.save(&v2).unwrap();

        let msg = run(&Flags::from_pairs(&[
            ("upgrade", v1.to_str().unwrap()),
            ("out", upgraded.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(msg.contains("upgraded model"), "{msg}");
        assert!(msg.contains("legacy-v1"), "{msg}");

        // The v1 file takes the legacy parse, the saved and the migrated
        // v2 files a zero-copy open, and all three score every candidate
        // pair to the bit.
        let pairs = sampling::test_pairs(&dataset, &[]);
        let bits = |path: &Path| {
            let (loaded, open_path) = LeapmeModel::load_with_report(path).unwrap();
            let scores = loaded.score_pairs(&store, &pairs).unwrap();
            (
                open_path,
                scores.iter().map(|s| s.to_bits()).collect::<Vec<u32>>(),
            )
        };
        let (v1_path, v1_bits) = bits(&v1);
        assert_eq!(v1_path, ModelOpenPath::LegacyV1);
        assert_eq!(v1_bits.len(), pairs.len());
        for path in [&v2, &upgraded] {
            let (open_path, scores) = bits(path);
            assert!(
                matches!(open_path, ModelOpenPath::Mmap | ModelOpenPath::Read),
                "{}: opened via {}",
                path.display(),
                open_path.label()
            );
            assert!(
                scores == v1_bits,
                "{} scores differ from the v1 file's",
                path.display()
            );
        }
        for p in [v1, v2, upgraded] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn upgrade_rejects_garbage_and_wrong_kinds() {
        let garbage = tmp("up_garbage.bin");
        std::fs::write(&garbage, b"short").unwrap();
        let err = run(&Flags::from_pairs(&[
            ("upgrade", garbage.to_str().unwrap()),
            ("out", tmp("up_garbage_out.bin").to_str().unwrap()),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("too short"), "{err}");
        std::fs::remove_file(garbage).ok();
    }
}

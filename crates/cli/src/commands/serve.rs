//! `leapme serve` — keep a trained model and feature store resident and
//! answer scoring/matching/integration requests over HTTP.
//!
//! The command loads everything once (model, embeddings, dataset,
//! feature cache), prints the bound address, and waits on this thread
//! for SIGINT/SIGTERM, then starts the graceful drain: the accept loop
//! stops, the admission queue empties, in-flight requests finish or
//! cancel at their deadline, and the drain summary decides the exit
//! code — `0` when every admitted request was honored, `3` when any
//! were cut off.

use super::{load_dataset, to_json};
use crate::args::Flags;
use crate::CliError;
use leapme::core::feature_cache;
use leapme::core::journal::RunJournal;
use leapme::core::pipeline::LeapmeModel;
use leapme::core::registry::{ModelRegistry, RegistryConfig};
use leapme::embedding::store::EmbeddingStore;
use leapme::features::PropertyFeatureStore;
use leapme::serve::{self, snapshot, Resident, ServeConfig, ServeState, ServerHandle};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// How often the command checks the SIGINT/SIGTERM flag. The server
/// answers requests on its own threads meanwhile, so this only sets how
/// soon a signal starts the drain.
const SIGNAL_POLL: Duration = Duration::from_millis(20);

/// Flags this command reads; [`crate::run`] rejects any other.
pub const FLAGS: &[&str] = &[
    "addr",
    "dataset",
    "embeddings",
    "feature-cache",
    "fuzzy-oov",
    "io-timeout-ms",
    "journal",
    "keep-alive-max",
    "max-body-bytes",
    "model",
    "models",
    "queue-depth",
    "request-timeout-ms",
    "resident-budget-mb",
    "snapshot",
    "workers",
];

/// Run the command. Blocks until a signal starts the drain.
pub fn run(flags: &Flags) -> Result<String, CliError> {
    if flags.get("models").is_some() {
        return run_registry(flags);
    }
    let model_path = flags.require("model")?;
    let model = LeapmeModel::load(Path::new(model_path))
        .map_err(|e| CliError::Pipeline(format!("{model_path}: {e}")))?;

    let dataset = load_dataset(flags.require("dataset")?)?;
    let emb_path = flags.require("embeddings")?;
    let mut embeddings = EmbeddingStore::load_text(Path::new(emb_path))
        .map_err(|e| CliError::Parse(format!("{emb_path}: {e}")))?;
    embeddings.set_fuzzy_oov(flags.get_or("fuzzy-oov", 1u8)? != 0);

    let (store, cache_status) = feature_cache::load_or_build(
        flags.get("feature-cache").map(Path::new),
        &dataset,
        &embeddings,
        leapme::features::worker_threads(),
        None,
    )
    .map_err(|e| CliError::Pipeline(e.to_string()))?;
    eprint!("{}", cache_status.describe(store.len()));

    let journal = match flags.get("journal") {
        Some(path) => Some(
            RunJournal::open(Path::new(path))
                .map_err(|e| CliError::Pipeline(format!("{path}: {e}")))?,
        ),
        None => None,
    };

    let config = build_config(flags)?;

    // Snapshot recovery: a present snapshot is the last good generation
    // `integrate-source` persisted before a swap — it supersedes the
    // `--dataset` file (which only describes the world at first boot).
    // The feature store is rebuilt over the recovered dataset; the
    // snapshot stays bitwise as written, proving a SIGKILL mid
    // integration lost nothing.
    let recovered = match &config.snapshot_path {
        Some(path) => snapshot::load(path)
            .map_err(|e| CliError::Pipeline(format!("{}: {e}", path.display())))?,
        None => None,
    };
    let state = match recovered {
        Some(snap) => {
            let store = PropertyFeatureStore::build(&snap.dataset, &embeddings);
            println!(
                "leapme serve recovered snapshot generation={} sources={} graph_edges={}",
                snap.generation,
                snap.dataset.sources().len(),
                snap.graph.len()
            );
            Arc::new(ServeState::with_resident(
                model,
                embeddings,
                Resident {
                    dataset: snap.dataset,
                    store,
                    graph: snap.graph,
                    generation: snap.generation,
                },
                journal,
                config,
            ))
        }
        None => Arc::new(ServeState::new(
            model, embeddings, dataset, store, journal, config,
        )),
    };
    let handle = serve::start(Arc::clone(&state)).map_err(CliError::Io)?;

    // The readiness line goes out before we block: scripts (and the
    // verify drill) grep it for the port when binding to `:0`.
    println!(
        "leapme serve listening on http://{} (workers={} queue={})",
        handle.addr(),
        state.config.workers,
        state.config.queue_depth
    );
    let _ = std::io::stdout().flush();
    drain_on_signal(handle)
}

/// Block until SIGINT/SIGTERM flips the interrupted flag, then drain the
/// server and report: `Ok` when every admitted request was honored,
/// [`CliError::Cancelled`] (exit 3) when the drain dropped any.
fn drain_on_signal(handle: ServerHandle) -> Result<String, CliError> {
    let interrupted = crate::interrupted_flag();
    while !interrupted.load(Ordering::SeqCst) {
        std::thread::sleep(SIGNAL_POLL);
    }
    handle.shutdown();
    let report = handle.join();
    let summary = to_json(&report, "drain report")?;
    if report.clean {
        Ok(format!("leapme serve drained cleanly\n{summary}"))
    } else {
        Err(CliError::Cancelled(format!(
            "drain dropped {} queued connection(s)\n{summary}",
            report.dropped_at_shutdown
        )))
    }
}

/// Server tunables shared by the single-model and registry modes.
fn build_config(flags: &Flags) -> Result<ServeConfig, CliError> {
    let mut config = ServeConfig {
        addr: flags.get_or("addr", "127.0.0.1:7878".to_string())?,
        workers: flags.get_or("workers", ServeConfig::default().workers)?,
        queue_depth: flags.get_or("queue-depth", ServeConfig::default().queue_depth)?,
        request_timeout: Duration::from_millis(flags.get_or("request-timeout-ms", 5_000u64)?),
        io_timeout: Duration::from_millis(flags.get_or("io-timeout-ms", 2_000u64)?),
        snapshot_path: flags.get("snapshot").map(PathBuf::from),
        keep_alive_max_requests: flags.get_or(
            "keep-alive-max",
            ServeConfig::default().keep_alive_max_requests,
        )?,
        ..ServeConfig::default()
    };
    config.limits.max_body_bytes =
        flags.get_or("max-body-bytes", config.limits.max_body_bytes)?;
    if config.workers == 0 {
        return Err(CliError::Usage("--workers must be at least 1".into()));
    }
    if config.keep_alive_max_requests == 0 {
        return Err(CliError::Usage("--keep-alive-max must be at least 1".into()));
    }
    Ok(config)
}

/// `leapme serve --models dir/`: one server over a directory of domain
/// subdirectories (`<dir>/<name>/{model.lmp, dataset.json,
/// features.lfc|embeddings.txt}`). Requests route by the `model` body
/// field or `x-leapme-model` header; domains fault in lazily under the
/// optional `--resident-budget-mb` ceiling with LRU eviction, and
/// `POST /reload` hot-swaps one domain from disk.
fn run_registry(flags: &Flags) -> Result<String, CliError> {
    for conflicting in ["model", "dataset", "embeddings", "feature-cache", "snapshot"] {
        if flags.get(conflicting).is_some() {
            return Err(CliError::Usage(format!(
                "--models is exclusive with --{conflicting}; each domain directory carries its own artifacts"
            )));
        }
    }
    let root = flags.require("models")?;
    let budget_mb: Option<u64> = match flags.get("resident-budget-mb") {
        Some(v) => Some(v.parse().map_err(|_| {
            CliError::Usage(format!("--resident-budget-mb must be an integer, got {v:?}"))
        })?),
        None => None,
    };
    let registry = ModelRegistry::open(
        Path::new(root),
        RegistryConfig {
            resident_budget_bytes: budget_mb.map(|mb| mb * 1024 * 1024),
        },
    )
    .map_err(|e| CliError::Pipeline(format!("{root}: {e}")))?;
    let domains = registry.domains();

    let journal = match flags.get("journal") {
        Some(path) => Some(
            RunJournal::open(Path::new(path))
                .map_err(|e| CliError::Pipeline(format!("{path}: {e}")))?,
        ),
        None => None,
    };
    let config = build_config(flags)?;
    let state = Arc::new(ServeState::with_registry(
        Arc::new(registry),
        journal,
        config,
    ));
    let handle = serve::start(Arc::clone(&state)).map_err(CliError::Io)?;

    println!(
        "leapme serve listening on http://{} (registry domains={} workers={} queue={})",
        handle.addr(),
        domains.len(),
        state.config.workers,
        state.config.queue_depth
    );
    println!("domains: {}", domains.join(", "));
    let _ = std::io::stdout().flush();
    drain_on_signal(handle)
}

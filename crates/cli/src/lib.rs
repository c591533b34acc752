//! Implementation of the `leapme` command-line tool.
//!
//! The binary is a thin `main` over this library so every command is unit
//! testable. Subcommands:
//!
//! | command | purpose |
//! |---|---|
//! | `generate` | emit one of the four synthetic evaluation datasets as JSON |
//! | `embed` | train GloVe embeddings on domain corpora, save as `glove.txt` |
//! | `stats` | print dataset statistics (sources, properties, ground truth) |
//! | `train` | train LEAPME and save the model as a checksummed `.lmp` file |
//! | `match` | train LEAPME (or load a `.lmp` model) and score pairs into a similarity graph |
//! | `serve` | resident matching service: warm model + feature store behind HTTP with admission control, deadlines, graceful drain; `--models` serves a whole registry of domains |
//! | `registry` | inspect a multi-domain registry root; migrate v1 artifacts to zero-copy v2 containers |
//! | `evaluate` | score a similarity graph against a dataset's ground truth |
//! | `cluster` | derive property clusters from a similarity graph |
//!
//! Run `leapme help` (or any command with `--help`-less wrong args) for
//! usage.
//!
//! # Exit codes
//!
//! * `0` — success.
//! * `1` — runtime failure (I/O, parse, pipeline).
//! * `2` — usage error (bad flags, unknown command).
//! * `3` — cancelled: a `--timeout-secs` deadline elapsed or the process
//!   received SIGINT/SIGTERM. Durable state (training checkpoint, run
//!   journal) is persisted before exiting, so rerunning with `--resume`
//!   continues where the run stopped.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod commands;

use commands::{
    analyze, cluster, continual, embed, evaluate, fuse, generate, import, match_cmd, registry,
    serve, stats, train,
};
use std::fmt;
use std::sync::atomic::AtomicBool;

/// Process-wide interruption flag, set by the binary's SIGINT/SIGTERM
/// handler and observed by every cancellable command through a
/// [`leapme::core::cancel::CancelToken`].
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// The flag flipped on SIGINT/SIGTERM. Exposed so the binary's signal
/// handler (the only unsafe code in the CLI) can reach it, and so tests
/// can simulate an interrupt.
pub fn interrupted_flag() -> &'static AtomicBool {
    &INTERRUPTED
}

/// CLI-level errors with user-facing messages.
#[derive(Debug)]
pub enum CliError {
    /// Unknown subcommand or bad flag usage.
    Usage(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed input file.
    Parse(String),
    /// A pipeline stage failed.
    Pipeline(String),
    /// The run was cancelled (deadline or signal) after persisting any
    /// configured durable state; the message says what was saved.
    Cancelled(String),
}

impl CliError {
    /// Process exit code the top-level handler should use: `2` for
    /// usage errors (bad flags, unknown command), `3` for cooperative
    /// cancellation (deadline / SIGINT with durable state saved), `1`
    /// for everything else that fails at run time. Success exits `0`.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Cancelled(_) => 3,
            _ => 1,
        }
    }

    /// Whether the top-level handler should append [`USAGE`] — only
    /// worth it when the user got the invocation itself wrong.
    pub fn is_usage(&self) -> bool {
        matches!(self, CliError::Usage(_))
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Parse(m) => write!(f, "parse error: {m}"),
            CliError::Pipeline(m) => write!(f, "{m}"),
            CliError::Cancelled(m) => write!(f, "cancelled: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
leapme — learning-based property matching with embeddings

USAGE:
    leapme <COMMAND> [--flag value …]

COMMANDS:
    generate   --domain <cameras|headphones|phones|tvs> [--seed N] --out <dataset.json>
    import     --instances <instances.csv> [--alignments <alignments.csv>]
               [--name NAME] [--lenient] --out <dataset.json>
               (--lenient skips malformed CSV rows and reports them
                instead of failing the import)
    embed      --domains <d1,d2,…> [--dim N] [--seed N] --out <vectors.txt>
    stats      --dataset <dataset.json>
    train      --dataset <dataset.json> --embeddings <vectors.txt>
               --save <model.lmp>
               [--train-fraction 0.8 | --train-sources 0,1,2] [--seed N]
               [--threshold 0.5] [--checkpoint <train.ckpt>]
               [--checkpoint-every N] [--resume] [--timeout-secs N]
               (on timeout or Ctrl-C the training state is checkpointed
                and the process exits 3; rerun with --resume to continue)
    match      --dataset <dataset.json> --embeddings <vectors.txt>
               [--model <model.lmp>]
               [--train-fraction 0.8 | --train-sources 0,1,2] [--seed N]
               [--threshold 0.5] [--timeout-secs N]
               [--blocking token|embedding|ann|lsh|combined] [--blocking-k N]
               [--stress N [--stress-seed S] [--stress-dim D]]
               --out <graph.json> [--save-model <model.json>]
               (--model skips training and scores every cross-source
                pair with the loaded model; ann/lsh/combined retrieve
                top-k candidates from an HNSW / name-LSH index instead
                of enumerating the quadratic pair space; --stress N
                swaps the dataset/embedding files for the in-memory
                stress generator at N properties and requires an
                index-backed blocking mode plus explicit
                --train-sources or --model)
    serve      --model <model.lmp> --dataset <dataset.json>
               --embeddings <vectors.txt> [--feature-cache <cache.lfc>]
               [--addr 127.0.0.1:7878] [--workers 4] [--queue-depth 64]
               [--request-timeout-ms 5000] [--io-timeout-ms 2000]
               [--max-body-bytes N] [--journal <serve.journal>]
               [--snapshot <resident.snap>] [--keep-alive-max 32]
               (resident matching service: POST /score, /match,
                /integrate-source; GET /healthz, /readyz, /metrics.
                Per-request deadlines via the x-leapme-deadline-ms
                header; overload sheds 503 + Retry-After; SIGINT/SIGTERM
                drains gracefully and exits 0, or 3 if connections
                were dropped. --snapshot persists the resident state
                before every integration swap and recovers the last
                good generation on restart; clients sending
                Connection: keep-alive get up to --keep-alive-max
                requests per connection)
               registry mode: --models <dir> [--resident-budget-mb N]
               instead of --model/--dataset/--embeddings; each
               <dir>/<name>/ holds model.lmp + dataset.json +
               features.lfc|embeddings.txt, requests pick a domain via
               the \"model\" body field or x-leapme-model header, and
               POST /reload hot-swaps one domain from disk
    registry   --dir <root> | --upgrade <artifact> --out <artifact>
               (inspect a registry root: per-domain open path, bytes,
                latency, and aggregate stats; or migrate a v1 model /
                feature cache / snapshot to the zero-copy v2 container)
    evaluate   --dataset <dataset.json> --graph <graph.json> [--threshold 0.5]
    analyze    --dataset <dataset.json> --graph <graph.json> [--threshold 0.5]
    cluster    --graph <graph.json> [--method components|star] [--threshold 0.5]
    continual  --out <report.json> [--properties 300] [--epochs 4]
               [--sources-per-epoch 2] [--properties-per-source 25]
               [--naming-drift 0.2] [--value-drift 0.3] [--corrupt-every N]
               [--label-budget 64] [--drift-threshold 0.25]
               [--force-refit-every N] [--stop-after-epoch N]
               [--journal <continual.journal>] [--seed N] [--dim 16]
               (continual-ingestion scenario: drifting source schedule,
                validation gate with typed quarantine, PSI drift
                detection, champion/challenger refit with an
                active-learning label budget and automatic rollback;
                prints the quality-over-time curve; decisions are
                journaled and honored on a resumed run)
    fuse       --dataset <dataset.json> --graph <graph.json>
               [--method components|star] [--threshold 0.5] [--out <schema.json>]
    help       print this message

EXIT CODES:
    0 success · 1 runtime failure · 2 usage error · 3 cancelled
    (deadline or SIGINT; durable state was saved first)
";

/// A subcommand's entry point.
type Command = fn(&args::Flags) -> Result<String, CliError>;

/// Every subcommand: its name, entry point, and the flags it reads.
const COMMANDS: &[(&str, Command, &[&str])] = &[
    ("generate", generate::run, generate::FLAGS),
    ("import", import::run, import::FLAGS),
    ("embed", embed::run, embed::FLAGS),
    ("stats", stats::run, stats::FLAGS),
    ("train", train::run, train::FLAGS),
    ("match", match_cmd::run, match_cmd::FLAGS),
    ("serve", serve::run, serve::FLAGS),
    ("registry", registry::run, registry::FLAGS),
    ("evaluate", evaluate::run, evaluate::FLAGS),
    ("cluster", cluster::run, cluster::FLAGS),
    ("continual", continual::run, continual::FLAGS),
    ("fuse", fuse::run, fuse::FLAGS),
    ("analyze", analyze::run, analyze::FLAGS),
];

/// Dispatch a full argument vector (excluding the binary name).
/// Returns the text to print on success. A flag the command does not
/// read is a usage error, so a typo or a retired option never runs
/// silently as if it were absent.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some(command) = argv.first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    let flags = args::Flags::parse(&argv[1..])?;
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        return Ok(USAGE.to_string());
    }
    let Some((_, run, known)) = COMMANDS.iter().find(|(name, _, _)| name == command) else {
        return Err(CliError::Usage(format!("unknown command {command:?}")));
    };
    flags.reject_unknown(command, known)?;
    run(&flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_prints_usage() {
        let out = run(&["help".to_string()]).unwrap();
        assert!(out.contains("COMMANDS"));
    }

    #[test]
    fn missing_command_is_usage_error() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let err = run(&["frobnicate".to_string()]).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_a_command_does_not_read_are_usage_errors() {
        for (args, flag) in [
            (&["match", "--quantized", "--lenient"][..], "--quantized"),
            (&["serve", "--keep-alive", "4"][..], "--keep-alive"),
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert!(err.is_usage(), "{err}");
            assert_eq!(err.exit_code(), 2);
            assert!(err.to_string().contains(flag), "{err}");
        }
    }

    #[test]
    fn every_flag_usage_shows_is_accepted() {
        let listing = USAGE
            .split("COMMANDS:\n")
            .nth(1)
            .expect("USAGE lists commands");
        let listing = listing.split("\nEXIT CODES:").next().expect("listing ends");
        let mut known: &[&str] = &[];
        let mut checked = 0;
        for line in listing.lines() {
            // A command's first line is indented four spaces, its
            // continuation lines further.
            if !line.starts_with("     ") {
                let name = line.split_whitespace().next().unwrap_or_default();
                known = COMMANDS
                    .iter()
                    .find(|(n, _, _)| *n == name)
                    .map_or(&[], |(_, _, flags)| *flags);
            }
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            for flag in words.filter_map(|w| w.strip_prefix("--")) {
                assert!(
                    known.contains(&flag),
                    "USAGE shows --{flag} on a command that rejects it"
                );
                checked += 1;
            }
        }
        assert!(checked > 50, "found only {checked} flags in USAGE");
    }

    #[test]
    fn usage_errors_exit_2_run_errors_exit_1() {
        let usage = CliError::Usage("bad".into());
        assert!(usage.is_usage());
        assert_eq!(usage.exit_code(), 2);
        for err in [
            CliError::Io(std::io::Error::other("disk")),
            CliError::Parse("bad json".into()),
            CliError::Pipeline("training failed".into()),
        ] {
            assert!(!err.is_usage());
            assert_eq!(err.exit_code(), 1);
        }
    }

    #[test]
    fn cancellation_exits_3() {
        let err = CliError::Cancelled("checkpoint saved".into());
        assert!(!err.is_usage());
        assert_eq!(err.exit_code(), 3);
        assert!(err.to_string().starts_with("cancelled:"));
    }
}

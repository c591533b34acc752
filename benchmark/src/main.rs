//! `leapme-benchmark` — run one workload, or compare two sets of runs.
//!
//! ```text
//! leapme-benchmark --workload <name> [--seed 9] [--seconds 25] [--trace 0|1]
//!                  [--out <run.json>] [--trace-out <trace.json>]
//! leapme-benchmark --compare <dir of run.json> <dir of run.json>
//! ```
//!
//! A run prints every metric as `name value unit`, then one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`, and exits non-zero
//! when a correctness gate fails. `--trace 1` reports the per-layer
//! metrics instead of the end-to-end ones and writes the spans as
//! Chrome trace-event JSON. Scratch files live under `.bench_work/` in
//! the current directory. The program under test runs with one worker
//! thread (`LEAPME_THREADS=1`), as the report's `env` records.

use leapme_benchmark::metrics::Workload;
use leapme_benchmark::{report, Config};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORK_DIR: &str = ".bench_work";

fn main() -> ExitCode {
    // On the two-core shared hosts the benchmark is run on, the load
    // generator and the server's workers already fill both cores; a
    // second scoring thread per request only competes with them. In
    // `leapme match` it made runs slower and less repeatable (README.md).
    std::env::set_var("LEAPME_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("leapme-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} has invalid value {v:?}")),
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err("--compare needs two directories of run reports".into());
        };
        let declared = report::load_declared(Path::new("BENCHMARK.json"))?;
        print!(
            "{}",
            report::compare(&declared, Path::new(a), Path::new(b))?
        );
        return Ok(ExitCode::SUCCESS);
    }
    let name = flag(args, "--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (expected one of {names:?})")
    })?;
    let seed: u64 = parsed(args, "--seed", 9)?;
    let seconds: f64 = parsed(args, "--seconds", 25.0)?;
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }

    let cfg = Config::standard(seconds);
    let mut outcome = leapme_benchmark::run(workload, seed, trace, &cfg, Path::new(WORK_DIR))?;
    let report = report::finish(workload, seed, trace, seconds, &mut outcome);

    for note in &outcome.notes {
        eprintln!("note: {note}");
    }
    if outcome.threads < leapme_benchmark::cores() {
        eprintln!(
            "warning: the load generator used {} threads on {} cores",
            outcome.threads,
            leapme_benchmark::cores()
        );
    }
    for c in outcome.checks.iter().filter(|c| !c.passed) {
        eprintln!("check failed: {} — {}", c.name, c.detail);
    }
    if let Some(json) = &outcome.trace_json {
        let path = flag(args, "--trace-out")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                Path::new(WORK_DIR).join(format!("trace-{}-{seed}.json", workload.name()))
            });
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("trace: {}", path.display());
    }
    if let Some(path) = flag(args, "--out") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", report.render());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

//! The LEAPME benchmark.
//!
//! Two workloads drive the user's real entry point in-process:
//! `leapme_cli::run(["serve", …])` on a thread, loaded over loopback TCP.
//! An untraced run reports the end-to-end metrics; a separate traced run
//! (`--trace 1`) splits each request from the client side and times the
//! layers' public functions from outside, and reports the per-layer
//! split. Both check the program's outputs. See `README.md` for the
//! workloads, the metrics, how to run them, and why `leapme match` is
//! not among them.

pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use metrics::Workload;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Sizes and rates of one run. [`Config::standard`] is what the
/// benchmark measures; tests pass a small config to run every code path
/// quickly.
#[derive(Debug, Clone)]
pub struct Config {
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Fewest set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Set-ups repeat until they have taken this long, so the median of
    /// a cheap one is steady too.
    pub setup_seconds: f64,
    /// Domain of the serve-fresh corpus.
    pub domain: &'static str,
    /// Embedding dimension of that corpus.
    pub dim: usize,
    /// GloVe epochs for `leapme embed`.
    pub embed_epochs: usize,
    /// Pairs per serve-fresh request.
    pub fresh_pairs: usize,
    /// Serve-fresh rate ladder, requests per second.
    pub ladder: Vec<f64>,
    /// Pairs per serve-keepalive `/score` request.
    pub keepalive_pairs: usize,
    /// Keep-alive requests sent before timing starts.
    pub keepalive_warmup: usize,
    /// Every this-many-th keep-alive request is a `POST /reload`.
    pub reload_every: usize,
    /// Registry domains and their routing weights.
    pub registry: Vec<(&'static str, u32)>,
    /// Embedding dimension of the registry domains.
    pub registry_dim: usize,
}

impl Config {
    /// The measured configuration for a window of `seconds`.
    pub fn standard(seconds: f64) -> Config {
        Config {
            seconds,
            setups: 3,
            setup_seconds: 4.0,
            domain: "phones",
            dim: 50,
            embed_epochs: 25,
            fresh_pairs: 64,
            ladder: vec![40.0, 80.0, 160.0, 320.0, 640.0],
            // Few enough pairs that scoring stays a small part of an
            // exchange: at 512, runs on a busy host read p95 15-45% higher.
            keepalive_pairs: 128,
            keepalive_warmup: 50,
            reload_every: 50,
            registry: vec![("cameras", 8), ("phones", 4), ("tvs", 2), ("headphones", 1)],
            // At 64 dimensions the four domains' artifacts total a little
            // over 1 MiB, so a 1 MB resident budget forces evictions.
            registry_dim: 64,
        }
    }

    /// A configuration small enough for tests: every code path, a
    /// fraction of the work.
    pub fn tiny() -> Config {
        Config {
            seconds: 0.4,
            setups: 2,
            setup_seconds: 0.0,
            domain: "tvs",
            dim: 8,
            embed_epochs: 2,
            fresh_pairs: 8,
            ladder: vec![40.0, 80.0],
            keepalive_pairs: 16,
            keepalive_warmup: 4,
            reload_every: 5,
            registry: vec![("tvs", 2), ("headphones", 1)],
            registry_dim: 8,
        }
    }

    /// Load-generator threads: at most the machine's cores, at most two.
    pub fn sender_threads(&self) -> usize {
        cores().min(2)
    }

    /// Whether a run that has set up in `times` seconds sets up again.
    pub(crate) fn more_setups(&self, times: &[f64]) -> bool {
        times.len() < self.setups.max(1) || times.iter().sum::<f64>() < self.setup_seconds
    }
}

/// Generation seed of the corpus schemas. The schema is fixed so every
/// seed asks for the same work: training time swings 2.4× between
/// generated schemas of similar size. The workload seed varies the
/// embeddings and the request draws instead.
pub const CORPUS_SEED: u64 = 9;

/// One correctness gate.
#[derive(Debug, Clone)]
pub struct Check {
    /// Gate name.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// What was compared.
    pub detail: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or layer metrics (traced run).
    pub metrics: BTreeMap<String, f64>,
    /// Correctness gates.
    pub checks: Vec<Check>,
    /// Timed operations attempted: HTTP requests.
    pub attempted: u64,
    /// Timed operations that failed.
    pub failed: u64,
    /// Warnings for stderr.
    pub notes: Vec<String>,
    /// Chrome trace-event JSON of a traced run.
    pub trace_json: Option<String>,
    /// Load-generator threads used.
    pub threads: usize,
}

impl Outcome {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        });
    }
}

/// Run one workload with its inputs made from `seed`, in a fresh work
/// directory under `root` that is removed afterwards.
pub fn run(
    workload: Workload,
    seed: u64,
    trace: bool,
    cfg: &Config,
    root: &Path,
) -> Result<Outcome, String> {
    let dir = root.join(format!("{}-{}-{seed}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = serve::run(workload, seed, trace, cfg, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let mut outcome = result?;
    outcome.check(
        "faults_disabled",
        !cfg!(feature = "faults"),
        "the fault-injection hooks are compiled out",
    );
    Ok(outcome)
}

/// splitmix64: one step of a 64-bit hash that makes the benchmark's
/// random draws pure functions of the seed.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run a `leapme` command in-process, as the binary would.
pub(crate) fn cli(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    leapme_cli::run(&argv).map_err(|e| format!("leapme {}: {e}", args.join(" ")))
}

/// Path as a `&str` for a command line.
pub(crate) fn arg(path: &Path) -> &str {
    path.to_str().expect("work paths are UTF-8")
}

/// Seconds since `t`.
pub(crate) fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Start the window over which [`peak_rss_mb`] reads the resident set's
/// peak: hand the heap's free pages back to the kernel, then reset the
/// kernel's high-water mark of this process's resident set. The set-up
/// generated corpora, built embeddings and trained models in this
/// process; what that freed stays in the allocator unless released, and
/// the window's peak would depend on how much of it the load reuses.
pub(crate) fn start_peak_rss() -> Result<(), String> {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Return the C heap's free pages to the kernel.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only releases
    // memory the allocator holds unused; any `pad` is valid.
    unsafe {
        malloc_trim(0);
    }
}

/// Other C libraries have no `malloc_trim`; their free pages stay.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Peak resident set size since [`start_peak_rss`], MB.
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

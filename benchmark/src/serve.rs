//! The serve workloads: `leapme serve` run in-process on a thread,
//! driven over loopback TCP.
//!
//! * **serve-fresh** — independent users: an open loop over a rate
//!   ladder, one fresh connection per request, 64 pairs per request,
//!   against a single-model server with a warm feature cache. Accept
//!   and transport dominate.
//! * **serve-keepalive** — callers that wait for replies: a closed loop
//!   on kept-alive connections, 128 pairs per request, routed over a
//!   four-domain registry whose resident budget forces evictions, with
//!   a `POST /reload` every 50th request. Scoring, registry and the
//!   response write dominate.
//!
//! The server is started with `leapme_cli::run(["serve", …])` on a port
//! the benchmark picked and stopped through `leapme_cli::interrupted_flag()`,
//! which is reset afterwards. Every `/score` reply is checked bitwise
//! against `LeapmeModel::score_pairs` run in-process on the same pairs.

use crate::http::{self, Response, Timings};
use crate::loadgen::{self, Step};
use crate::metrics::Workload;
use crate::stats::{highest_step_at_slo, median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::{
    arg, cli, peak_rss_mb, secs, splitmix64, start_peak_rss, Config, Outcome, CORPUS_SEED,
};
use leapme::core::cancel::CancelToken;
use leapme::core::feature_cache;
use leapme::core::metrics::Metrics;
use leapme::core::pipeline::LeapmeModel;
use leapme::core::registry::{ModelRegistry, RegistryConfig};
use leapme::core::sampling;
use leapme::data::model::{Dataset, PropertyPair};
use leapme::embedding::store::EmbeddingStore;
use leapme::features::PropertyFeatureStore;
use leapme::nn::checkpoint::crc64;
use leapme::serve::{handlers, Request, ServeConfig, ServeState};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket timeout for every benchmark request.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a launch may take to answer.
const READY_TIMEOUT: Duration = Duration::from_secs(120);
/// One pair in this many is drawn from the ground truth, so F1 over the
/// replies has positives to find.
const TRUTH_EVERY: usize = 4;
/// The decision threshold `leapme train` saves by default.
const THRESHOLD: f32 = 0.5;
/// In-process handler probes per run.
const PROBE_BODIES: usize = 200;
/// Latency limit on a ladder step's p95 from due time, ms.
const SLO_MS: f64 = 100.0;
/// Error rate a ladder step may have and still meet the SLO.
const SLO_ERROR_RATE: f64 = 0.001;
/// Share of the window given to the first ladder step, which carries
/// the end-to-end latency; the other steps split the rest.
const FIRST_STEP_SHARE: f64 = 0.7;

/// Run a serve workload.
pub fn run(
    w: Workload,
    seed: u64,
    trace: bool,
    cfg: &Config,
    dir: &Path,
) -> Result<Outcome, String> {
    match w {
        Workload::ServeFresh => fresh(seed, trace, cfg, dir),
        _ => keepalive(seed, trace, cfg, dir),
    }
}

// ---------------------------------------------------------------------
// Fixtures and request bodies
// ---------------------------------------------------------------------

/// One domain's artifacts on disk and what the benchmark draws from.
struct Domain {
    name: &'static str,
    weight: u32,
    model: PathBuf,
    cache: PathBuf,
    dataset_path: PathBuf,
    embeddings: PathBuf,
    all: Vec<PropertyPair>,
    truth: BTreeSet<PropertyPair>,
    truth_list: Vec<PropertyPair>,
}

/// `generate` (the fixed corpus schema) + `embed` (from `seed`) +
/// `train --save --feature-cache` into `dir`.
fn make_domain(
    dir: &Path,
    name: &'static str,
    weight: u32,
    dim: usize,
    seed: u64,
    cfg: &Config,
) -> Result<Domain, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let d = Domain {
        name,
        weight,
        model: dir.join("model.lmp"),
        cache: dir.join("features.lfc"),
        dataset_path: dir.join("dataset.json"),
        embeddings: dir.join("embeddings.txt"),
        all: Vec::new(),
        truth: BTreeSet::new(),
        truth_list: Vec::new(),
    };
    let seed = seed.to_string();
    let corpus_seed = CORPUS_SEED.to_string();
    cli(&[
        "generate",
        "--domain",
        name,
        "--seed",
        &corpus_seed,
        "--out",
        arg(&d.dataset_path),
    ])?;
    cli(&[
        "embed",
        "--domains",
        name,
        "--dim",
        &dim.to_string(),
        "--epochs",
        &cfg.embed_epochs.to_string(),
        "--seed",
        &seed,
        "--out",
        arg(&d.embeddings),
    ])?;
    cli(&[
        "train",
        "--dataset",
        arg(&d.dataset_path),
        "--embeddings",
        arg(&d.embeddings),
        "--save",
        arg(&d.model),
        "--feature-cache",
        arg(&d.cache),
    ])?;
    let dataset = load_dataset(&d.dataset_path)?;
    let truth = dataset.ground_truth_pairs();
    Ok(Domain {
        all: sampling::test_pairs(&dataset, &[]),
        truth_list: truth.iter().cloned().collect(),
        truth,
        ..d
    })
}

fn load_dataset(path: &Path) -> Result<Dataset, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Dataset::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Request `index`'s `n` pairs: every [`TRUTH_EVERY`]-th a ground-truth
/// match, the rest any cross-source pair. A pure function of the seed.
fn draw(d: &Domain, seed: u64, index: u64, n: usize) -> Vec<PropertyPair> {
    (0..n)
        .map(|i| {
            let r = splitmix64(seed ^ splitmix64(index.wrapping_mul(0x1_0000) + i as u64));
            let pool = if i % TRUTH_EVERY == 0 && !d.truth_list.is_empty() {
                &d.truth_list
            } else {
                &d.all
            };
            pool[(r % pool.len() as u64) as usize].clone()
        })
        .collect()
}

#[derive(Serialize)]
struct ScoreBody {
    pairs: Vec<(u16, String, u16, String)>,
}

#[derive(Deserialize)]
struct ScoreReply {
    scores: Vec<f32>,
    requested: usize,
    scored: usize,
    degraded: bool,
}

fn score_body(pairs: &[PropertyPair]) -> Vec<u8> {
    let body = ScoreBody {
        pairs: pairs
            .iter()
            .map(|PropertyPair(a, b)| (a.source.0, a.name.clone(), b.source.0, b.name.clone()))
            .collect(),
    };
    serde_json::to_string(&body)
        .expect("score body serializes")
        .into_bytes()
}

/// A `/score` request: its pairs and its bytes on the wire.
struct ScoreRequest {
    pairs: Vec<PropertyPair>,
    body: Vec<u8>,
    wire: Vec<u8>,
}

fn score_request(
    domains: &[Domain],
    domain: usize,
    registry: bool,
    seed: u64,
    index: u64,
    n: usize,
    keep_alive: bool,
) -> ScoreRequest {
    let pairs = draw(&domains[domain], seed, index, n);
    let body = score_body(&pairs);
    let id = index.to_string();
    let mut headers = vec![
        ("content-type", "application/json"),
        ("x-leapme-request-id", id.as_str()),
    ];
    if registry {
        headers.push(("x-leapme-model", domains[domain].name));
    }
    let wire = http::encode("POST", "/score", &headers, &body, keep_alive);
    ScoreRequest { pairs, body, wire }
}

// ---------------------------------------------------------------------
// The server under test
// ---------------------------------------------------------------------

/// A `leapme serve` running on a thread of this process.
struct Server {
    addr: SocketAddr,
    thread: Option<JoinHandle<Result<String, String>>>,
}

impl Server {
    /// Start `leapme serve <args> --addr <free port>` and wait until
    /// `ready` holds; returns the server and the seconds that took.
    fn launch(
        args: &[String],
        ready: impl Fn(SocketAddr) -> bool,
    ) -> Result<(Server, f64), String> {
        let addr = free_port()?;
        let mut argv = args.to_vec();
        argv.extend(["--addr".to_string(), addr.to_string()]);
        let started = Instant::now();
        let thread = std::thread::Builder::new()
            .name("leapme-serve".into())
            .spawn(move || leapme_cli::run(&argv).map_err(|e| e.to_string()))
            .map_err(|e| format!("cannot spawn the server thread: {e}"))?;
        let mut server = Server {
            addr,
            thread: Some(thread),
        };
        loop {
            if server.thread.as_ref().is_some_and(JoinHandle::is_finished) {
                return Err(format!("`leapme serve` exited early: {:?}", server.stop()));
            }
            if http::get(addr, "/readyz", IO_TIMEOUT).is_ok_and(|r| r.status == 200) {
                break;
            }
            if started.elapsed() > READY_TIMEOUT {
                let _ = server.stop();
                return Err("`leapme serve` did not become ready".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if !ready(addr) {
            let _ = server.stop();
            return Err("`leapme serve` answered /readyz but failed its first requests".into());
        }
        Ok((server, secs(started)))
    }

    /// Start the drain, wait for the server to exit and return its
    /// report; the interruption flag is reset for the next server.
    fn stop(&mut self) -> Result<String, String> {
        let Some(thread) = self.thread.take() else {
            return Err("server already stopped".into());
        };
        let flag = leapme_cli::interrupted_flag();
        flag.store(true, Ordering::SeqCst);
        let joined = thread.join();
        flag.store(false, Ordering::SeqCst);
        joined.map_err(|_| "the server thread panicked".to_string())?
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.thread.is_some() {
            let _ = self.stop();
        }
    }
}

/// A loopback address no one is listening on right now.
fn free_port() -> Result<SocketAddr, String> {
    let l =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind a probe port: {e}"))?;
    l.local_addr().map_err(|e| e.to_string())
}

/// Launch and stop further servers until the set-up rule is met, and
/// return every launch time, `first` included. They run after the
/// timed window: each leaves the memory it freed in the allocator, and
/// before the window that made the window's peak resident set vary by
/// a tenth from one run to the next.
fn more_launches(
    cfg: &Config,
    args: &[String],
    ready: impl Fn(SocketAddr) -> bool + Copy,
    first: f64,
) -> Result<Vec<f64>, String> {
    let mut times = vec![first];
    while cfg.more_setups(&times) {
        let (mut server, t) = Server::launch(args, ready)?;
        times.push(t);
        let report = server.stop()?;
        if !report.contains("drained cleanly") {
            return Err(format!("set-up server did not drain cleanly: {report}"));
        }
    }
    Ok(times)
}

/// The counters `GET /metrics` exposes.
#[derive(Debug, Clone, Default, Deserialize)]
struct Counters {
    admitted: u64,
    completed: u64,
    shed: u64,
    degraded: u64,
    client_errors: u64,
    disconnects: u64,
    write_failures: u64,
    reloads: u64,
    #[serde(default)]
    registry: Option<RegistryCounters>,
}

#[derive(Debug, Clone, Default, Deserialize)]
struct RegistryCounters {
    domains: Vec<DomainCounters>,
    evictions: u64,
}

#[derive(Debug, Clone, Default, Deserialize)]
struct DomainCounters {
    hits: u64,
    misses: u64,
}

fn counters(addr: SocketAddr) -> Result<Counters, String> {
    let r = http::get(addr, "/metrics", IO_TIMEOUT).map_err(|e| format!("GET /metrics: {e}"))?;
    let text = String::from_utf8_lossy(&r.body);
    serde_json::from_str(&text).map_err(|e| format!("GET /metrics: {e}: {text}"))
}

/// Per-layer counter deltas over the timed window.
fn counter_deltas(out: &mut Outcome, before: &Counters, after: &Counters) {
    for (name, a, b) in [
        ("serve.admitted", after.admitted, before.admitted),
        ("serve.completed", after.completed, before.completed),
        ("serve.shed", after.shed, before.shed),
        ("serve.degraded", after.degraded, before.degraded),
        (
            "serve.client_errors",
            after.client_errors,
            before.client_errors,
        ),
        ("serve.disconnects", after.disconnects, before.disconnects),
        (
            "serve.write_failures",
            after.write_failures,
            before.write_failures,
        ),
        ("serve.reloads", after.reloads, before.reloads),
    ] {
        out.set(name, a.saturating_sub(b) as f64);
    }
    let sum = |c: &Counters, f: fn(&DomainCounters) -> u64| -> u64 {
        c.registry
            .as_ref()
            .map_or(0, |r| r.domains.iter().map(f).sum())
    };
    let hits = sum(after, |d| d.hits).saturating_sub(sum(before, |d| d.hits));
    let misses = sum(after, |d| d.misses).saturating_sub(sum(before, |d| d.misses));
    let evictions = |c: &Counters| c.registry.as_ref().map_or(0, |r| r.evictions);
    out.set("registry.faultins", misses as f64);
    out.set(
        "registry.evictions",
        evictions(after).saturating_sub(evictions(before)) as f64,
    );
    out.set(
        "registry.hit_ratio",
        if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
    );
}

// ---------------------------------------------------------------------
// Checking replies
// ---------------------------------------------------------------------

/// A `/score` reply reduced to what the bitwise check needs, so the
/// client holds a few bytes per request instead of the reply body: the
/// request's domain and index (its pairs are a pure function of them)
/// and a CRC-64 of the reply's score bits, or why the reply is unusable.
struct Reply {
    domain: usize,
    index: u64,
    digest: Result<u64, String>,
}

fn digest(scores: &[f32]) -> u64 {
    let bytes: Vec<u8> = scores
        .iter()
        .flat_map(|s| s.to_bits().to_le_bytes())
        .collect();
    crc64(&bytes)
}

/// Digest a `/score` reply body that must answer `requested` pairs.
fn digest_reply(body: &[u8], requested: usize) -> Result<u64, String> {
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_string())?;
    let reply: ScoreReply =
        serde_json::from_str(text).map_err(|e| format!("reply does not parse: {e}"))?;
    if reply.degraded
        || reply.requested != requested
        || reply.scored != requested
        || reply.scores.len() != requested
    {
        return Err(format!(
            "partial reply: degraded {}, {} of {requested} scored, {} scores",
            reply.degraded,
            reply.scored,
            reply.scores.len()
        ));
    }
    Ok(digest(&reply.scores))
}

/// Re-score every answered request in-process with the same artifacts
/// and compare bit for bit; F1 over those scores. Returns (all equal,
/// detail, F1).
fn verify(
    domains: &[Domain],
    seed: u64,
    pairs: usize,
    replies: &[Reply],
) -> Result<(bool, String, f64), String> {
    let mut loaded: BTreeMap<usize, (LeapmeModel, PropertyFeatureStore)> = BTreeMap::new();
    let (mut equal, mut mismatched) = (0usize, Vec::new());
    let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
    for r in replies {
        let d = &domains[r.domain];
        let (model, store) = match loaded.entry(r.domain) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => v.insert(load_scorer(d)?),
        };
        let drawn = draw(d, seed, r.index, pairs);
        let expected = model
            .score_pairs(store, &drawn)
            .map_err(|e| e.to_string())?;
        match &r.digest {
            Ok(crc) if *crc == digest(&expected) => equal += 1,
            other if mismatched.len() < 3 => {
                mismatched.push(format!("request {}: {other:?}", r.index))
            }
            _ => {}
        }
        for (pair, score) in drawn.iter().zip(&expected) {
            match (*score >= THRESHOLD, d.truth.contains(pair)) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => {}
            }
        }
    }
    let ok = equal == replies.len() && !replies.is_empty();
    let detail = format!(
        "{equal} of {} /score replies bitwise equal to in-process score_pairs{}",
        replies.len(),
        if mismatched.is_empty() {
            String::new()
        } else {
            format!("; {}", mismatched.join("; "))
        }
    );
    Ok((ok, detail, Metrics::from_counts(tp, fp, fn_).f1))
}

/// The domain's model and feature store, opened the way the registry
/// opens them.
fn load_scorer(d: &Domain) -> Result<(LeapmeModel, PropertyFeatureStore), String> {
    let model = LeapmeModel::load(&d.model).map_err(|e| format!("{}: {e}", d.model.display()))?;
    let store = feature_cache::load_resident(&d.cache)
        .map_err(|e| format!("{}: {e}", d.cache.display()))?
        .0;
    Ok((model, store))
}

/// Time the request handler and the scorer in-process on the bodies of
/// the first answered requests.
fn probe_handler(
    out: &mut Outcome,
    state: &ServeState,
    domains: &[Domain],
    seed: u64,
    pairs: usize,
    replies: &[Reply],
    registry: bool,
) -> Result<(), String> {
    let mut handle_ms = Vec::new();
    let mut score_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut loaded: BTreeMap<usize, (LeapmeModel, PropertyFeatureStore)> = BTreeMap::new();
    for r in replies.iter().take(PROBE_BODIES) {
        let (model, store) = match loaded.entry(r.domain) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => v.insert(load_scorer(&domains[r.domain])?),
        };
        let req = score_request(domains, r.domain, registry, seed, r.index, pairs, false);
        let mut headers = vec![("content-length".to_string(), req.body.len().to_string())];
        if registry {
            headers.push((
                "x-leapme-model".to_string(),
                domains[r.domain].name.to_string(),
            ));
        }
        let request = Request {
            method: "POST".into(),
            path: "/score".into(),
            headers,
            body: req.body,
        };
        let token = CancelToken::new().with_timeout(IO_TIMEOUT);
        let t = Instant::now();
        let response = handlers::handle(state, &request, &token);
        let h = secs(t) * 1e3;
        if response.status != 200 {
            return Err(format!(
                "in-process handler answered {}: {}",
                response.status, response.body
            ));
        }
        let t = Instant::now();
        std::hint::black_box(
            model
                .score_pairs(store, &req.pairs)
                .map_err(|e| e.to_string())?,
        );
        let s = secs(t) * 1e3;
        handle_ms.push(h);
        score_ms.push(s);
        overhead_ms.push(h - s);
    }
    out.set("serve.handle_ms.p50", median(&handle_ms));
    out.set("serve.handle_ms.p95", percentile(&handle_ms, 95.0));
    out.set("serve.score_pairs_ms.p50", median(&score_ms));
    out.set("serve.handler_overhead_ms", median(&overhead_ms));
    Ok(())
}

/// Client-side transport split from the traced requests' spans.
fn http_layers(out: &mut Outcome, tracer: &Tracer) {
    let ms = |name: &str| {
        tracer
            .durations(name)
            .iter()
            .map(|s| s * 1e3)
            .collect::<Vec<f64>>()
    };
    let connect = ms("http.connect");
    let ttfb = ms("http.ttfb");
    out.set(
        "http.connect_ms.p50",
        if connect.is_empty() {
            0.0
        } else {
            median(&connect)
        },
    );
    out.set("http.ttfb_ms.p50", median(&ttfb));
    out.set("http.ttfb_ms.p95", percentile(&ttfb, 95.0));
    out.set("http.read_ms.p50", median(&ms("http.read")));
}

/// Record one exchange's phases as spans under a request span, after
/// the exchange has finished: recording cannot lengthen the exchange it
/// records, only delay the sender's next request.
fn record_exchange(tracer: &Tracer, id: u64, t: &Timings) {
    let parent = Some(tracer.record("http.request", Some(id), None, t.connect_start, t.done));
    if t.connect_start < t.sent {
        tracer.record("http.connect", Some(id), parent, t.connect_start, t.sent);
    }
    tracer.record("http.ttfb", Some(id), parent, t.sent, t.first_byte);
    tracer.record("http.read", Some(id), parent, t.first_byte, t.done);
}

/// The client's whole exchange (connect to last byte) at p50, and what
/// the handler does not explain of it: that minus the in-process
/// handler time at p50. Set against an untraced run's `latency_p50_ms`,
/// the exchange p50 also shows what tracing costs.
fn unaccounted(out: &mut Outcome, tracer: &Tracer) {
    let exchange: Vec<f64> = tracer
        .durations("http.request")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    out.set("http.exchange_ms.p50", median(&exchange));
    out.set(
        "serve.unaccounted_ms",
        median(&exchange) - out.metrics["serve.handle_ms.p50"],
    );
}

fn stop_cleanly(out: &mut Outcome, mut server: Server) {
    match server.stop() {
        Ok(report) => out.check(
            "drain_clean",
            report.contains("drained cleanly"),
            report.replace('\n', " "),
        ),
        Err(e) => out.check("drain_clean", false, e),
    }
}

// ---------------------------------------------------------------------
// serve-fresh
// ---------------------------------------------------------------------

fn fresh(seed: u64, trace: bool, cfg: &Config, dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let domains = vec![make_domain(
        &dir.join(cfg.domain),
        cfg.domain,
        1,
        cfg.dim,
        seed,
        cfg,
    )?];
    let d = &domains[0];
    let args: Vec<String> = [
        "serve",
        "--model",
        arg(&d.model),
        "--dataset",
        arg(&d.dataset_path),
        "--embeddings",
        arg(&d.embeddings),
        "--feature-cache",
        arg(&d.cache),
    ]
    .map(String::from)
    .to_vec();
    let ready =
        |addr: SocketAddr| http::get(addr, "/readyz", IO_TIMEOUT).is_ok_and(|r| r.status == 200);
    let (server, launch) = Server::launch(&args, ready)?;

    // The ladder: the first step carries the end-to-end latency and gets
    // the larger share of the window; the others split the rest.
    let rest = cfg.ladder.len().saturating_sub(1).max(1) as f64;
    let steps: Vec<Step> = cfg
        .ladder
        .iter()
        .enumerate()
        .map(|(i, &rate)| Step {
            rate,
            duration: Duration::from_secs_f64(if i == 0 {
                cfg.seconds * FIRST_STEP_SHARE
            } else {
                cfg.seconds * (1.0 - FIRST_STEP_SHARE) / rest
            }),
        })
        .collect();
    let slots = loadgen::schedule(&steps, seed);
    let wires: Vec<Vec<u8>> = slots
        .iter()
        .map(|s| {
            score_request(
                &domains,
                0,
                false,
                seed,
                s.index as u64,
                cfg.fresh_pairs,
                false,
            )
            .wire
        })
        .collect();
    let tracer = Tracer::new(trace);
    let threads = cfg.sender_threads();
    out.threads = threads;

    let before = counters(server.addr)?;
    start_peak_rss()?;
    let addr = server.addr;
    let records = loadgen::run_open_loop(
        &slots,
        threads,
        Duration::from_secs_f64(SLO_MS / 1e3),
        |slot| {
            let (response, timings) =
                http::fresh(addr, &wires[slot.index], IO_TIMEOUT).map_err(|e| e.to_string())?;
            if trace {
                record_exchange(&tracer, slot.index as u64, &timings);
            }
            Ok((response, timings))
        },
    );
    let rss = peak_rss_mb()?;
    let after = counters(server.addr)?;
    stop_cleanly(&mut out, server);

    let results = loadgen::step_results(&steps, &records, |(r, _): &(Response, Timings)| {
        r.status == 200
    });
    let first = &results[0];
    let passing = highest_step_at_slo(&results, SLO_MS, SLO_ERROR_RATE);
    out.attempted = records.iter().filter(|r| r.sent.is_some()).count() as u64;
    out.failed = results.iter().map(|s| s.errors as u64).sum();
    let replies: Vec<Reply> = records
        .iter()
        .filter_map(|r| match &r.sent {
            Some((_, _, Ok((response, _)))) if response.status == 200 => Some(Reply {
                domain: 0,
                index: r.slot.index as u64,
                digest: digest_reply(&response.body, cfg.fresh_pairs),
            }),
            _ => None,
        })
        .collect();
    let (equal, detail, f1) = verify(&domains, seed, cfg.fresh_pairs, &replies)?;
    out.check("scores_bitwise_equal", equal, detail);
    let tail = Workload::TAIL_PERCENTILE;
    if tail_percentile(first.latencies_ms.len()).is_none_or(|p| p < tail) {
        out.notes.push(format!(
            "{} samples at {} rps do not support a p{tail}",
            first.latencies_ms.len(),
            first.rate
        ));
    }
    let lags: Vec<f64> = records
        .iter()
        .filter(|r| r.slot.step == 0)
        .filter_map(|r| r.lag_ms())
        .collect();
    for s in &results {
        out.notes.push(format!(
            "step {} rps: {} ok, {} errors, {} skipped, p50 {:.2} ms, p95 {:.2} ms from due",
            s.rate,
            s.ok,
            s.errors,
            s.skipped,
            median(&s.latencies_ms),
            percentile(&s.latencies_ms, 95.0)
        ));
    }
    let max_rate = passing.map_or(0.0, |i| results[i].rate);

    if trace {
        http_layers(&mut out, &tracer);
        counter_deltas(&mut out, &before, &after);
        out.set("loadgen.lag_p95_ms", percentile(&lags, 95.0));
        out.set("loadgen.sent", out.attempted as f64);
        // The server's set-up, layer by layer, in-process.
        let t = Instant::now();
        let dataset = load_dataset(&d.dataset_path)?;
        out.set("data.load_s", secs(t));
        let t = Instant::now();
        let mut embeddings = EmbeddingStore::load_text(&d.embeddings).map_err(|e| e.to_string())?;
        embeddings.set_fuzzy_oov(true);
        out.set("embedding.load_s", secs(t));
        let t = Instant::now();
        let model = LeapmeModel::load(&d.model).map_err(|e| e.to_string())?;
        out.set("model.open_ms", secs(t) * 1e3);
        let t = Instant::now();
        let (store, _) = feature_cache::load_or_build(
            Some(&d.cache),
            &dataset,
            &embeddings,
            leapme::features::worker_threads(),
            None,
        )
        .map_err(|e| e.to_string())?;
        out.set("feature_cache.open_ms", secs(t) * 1e3);
        let state = ServeState::new(
            model,
            embeddings,
            dataset,
            store,
            None,
            ServeConfig::default(),
        );
        probe_handler(
            &mut out,
            &state,
            &domains,
            seed,
            cfg.fresh_pairs,
            &replies,
            false,
        )?;
        unaccounted(&mut out, &tracer);
        out.trace_json = Some(tracer.chrome_json());
    } else {
        out.set("latency_p50_ms", median(&first.latencies_ms));
        out.set("latency_tail_ms", percentile(&first.latencies_ms, tail));
        // Work completed per second over the steps that met the SLO,
        // from the first due time to the last of their answers.
        let met: Vec<_> = records
            .iter()
            .filter(|r| passing.is_some_and(|k| r.slot.step <= k))
            .collect();
        let ok_pairs = met
            .iter()
            .filter(|r| matches!(&r.sent, Some((_, _, Ok((resp, _)))) if resp.status == 200))
            .count()
            * cfg.fresh_pairs;
        let span = match (
            records.first(),
            met.iter()
                .filter_map(|r| r.sent.as_ref().map(|s| s.1))
                .max(),
        ) {
            (Some(first), Some(last)) => last.saturating_duration_since(first.due).as_secs_f64(),
            _ => 0.0,
        };
        out.set(
            "throughput_pairs_per_s",
            if span > 0.0 {
                ok_pairs as f64 / span
            } else {
                0.0
            },
        );
        out.set("peak_rss_mb", rss);
        out.set(
            "setup_s",
            median(&more_launches(cfg, &args, ready, launch)?),
        );
        out.set("f1", f1);
        out.set("max_rps_at_slo", max_rate);
        out.set(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        out.notes.push(format!(
            "max rate at the SLO (p95 <= {} ms): {max_rate} rps; generator lag p95 {:.3} ms at {} rps",
            SLO_MS,
            percentile(&lags, 95.0),
            first.rate
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// serve-keepalive
// ---------------------------------------------------------------------

/// One keep-alive exchange, as the client keeps it: a few bytes, not
/// the reply, so the client's memory does not grow with throughput.
struct Exchange {
    index: usize,
    /// The domain of a `/score`; `None` for a `/reload`.
    score_domain: Option<usize>,
    timed: bool,
    /// Status and phase times, or the transport error.
    result: Result<(u16, Timings), String>,
    /// Digest of a `/score` reply answered `200`.
    digest: Option<Result<u64, String>>,
}

impl Exchange {
    /// Send-to-last-byte milliseconds of a `200`.
    fn latency_ms(&self) -> Option<f64> {
        match &self.result {
            Ok((200, t)) => Some(t.done.duration_since(t.sent).as_secs_f64() * 1e3),
            _ => None,
        }
    }
}

fn keepalive(seed: u64, trace: bool, cfg: &Config, dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let root = dir.join("registry");
    let mut domains = Vec::new();
    for (i, &(name, weight)) in cfg.registry.iter().enumerate() {
        domains.push(make_domain(
            &root.join(name),
            name,
            weight,
            cfg.registry_dim,
            seed.wrapping_add(i as u64),
            cfg,
        )?);
    }
    let mut fleet = 0u64;
    for d in &domains {
        let _ = std::fs::remove_file(&d.embeddings);
        for f in [&d.model, &d.cache] {
            fleet += std::fs::metadata(f)
                .map_err(|e| format!("{}: {e}", f.display()))?
                .len();
        }
    }
    // The largest whole-MB budget below the fleet's resident total.
    let budget_mb = fleet.saturating_sub(1) / (1024 * 1024);
    let args: Vec<String> = [
        "serve",
        "--models",
        arg(&root),
        "--resident-budget-mb",
        &budget_mb.to_string(),
        "--keep-alive-max",
        "4096",
    ]
    .map(String::from)
    .to_vec();
    // Ready means every domain has answered once.
    let domains_ref = &domains;
    let ready = move |addr: SocketAddr| {
        (0..domains_ref.len()).all(|i| {
            let r = score_request(domains_ref, i, true, seed, u64::MAX - i as u64, 8, false);
            http::fresh(addr, &r.wire, IO_TIMEOUT).is_ok_and(|(resp, _)| resp.status == 200)
        })
    };
    let (server, launch) = Server::launch(&args, ready)?;

    let total_weight: u64 = domains.iter().map(|d| u64::from(d.weight)).sum();
    let pick = |i: usize| -> usize {
        let mut r = splitmix64(seed ^ 0x5EED ^ i as u64) % total_weight;
        for (k, d) in domains.iter().enumerate() {
            if r < u64::from(d.weight) {
                return k;
            }
            r -= u64::from(d.weight);
        }
        domains.len() - 1
    };
    let tracer = Tracer::new(trace);
    let threads = cfg.sender_threads();
    out.threads = threads;
    let before = counters(server.addr)?;
    start_peak_rss()?;
    let next = AtomicUsize::new(0);
    let timed_start: OnceLock<Instant> = OnceLock::new();
    let window = Duration::from_secs_f64(cfg.seconds);
    let exchanges: Mutex<Vec<Exchange>> = Mutex::new(Vec::new());
    let addr = server.addr;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut conn: Option<std::net::TcpStream> = None;
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let timed = i >= cfg.keepalive_warmup;
                    if timed && timed_start.get_or_init(Instant::now).elapsed() >= window {
                        break;
                    }
                    let (score_domain, wire) = if (i + 1).is_multiple_of(cfg.reload_every) {
                        let name = domains[(i / cfg.reload_every) % domains.len()].name;
                        let body = format!("{{\"model\":\"{name}\"}}");
                        let id = i.to_string();
                        let wire = http::encode(
                            "POST",
                            "/reload",
                            &[("x-leapme-request-id", &id)],
                            body.as_bytes(),
                            true,
                        );
                        (None, wire)
                    } else {
                        let d = pick(i);
                        (
                            Some(d),
                            score_request(
                                &domains,
                                d,
                                true,
                                seed,
                                i as u64,
                                cfg.keepalive_pairs,
                                true,
                            )
                            .wire,
                        )
                    };
                    let connect_start = Instant::now();
                    let fresh_conn = conn.is_none();
                    let result = match conn.as_mut() {
                        Some(c) => Ok(c),
                        None => http::connect(addr, IO_TIMEOUT).map(|c| conn.insert(c)),
                    }
                    .and_then(|c| http::exchange(c, &wire))
                    .map_err(|e| e.to_string());
                    let mut digest = None;
                    let result = result.map(|(response, mut t)| {
                        if fresh_conn {
                            t.connect_start = connect_start;
                        }
                        if !response.keep_alive {
                            conn = None;
                        }
                        if trace {
                            record_exchange(&tracer, i as u64, &t);
                        }
                        if score_domain.is_some() && response.status == 200 {
                            digest = Some(digest_reply(&response.body, cfg.keepalive_pairs));
                        }
                        (response.status, t)
                    });
                    if result.is_err() {
                        conn = None;
                    }
                    mine.push(Exchange {
                        index: i,
                        score_domain,
                        timed,
                        result,
                        digest,
                    });
                }
                exchanges.lock().expect("exchange list lock").extend(mine);
            });
        }
    });
    let rss = peak_rss_mb()?;
    let after = counters(server.addr)?;
    stop_cleanly(&mut out, server);

    let mut exchanges = exchanges.into_inner().expect("exchange list lock");
    exchanges.sort_by_key(|e| e.index);
    let start = *timed_start
        .get()
        .ok_or("the keep-alive loop never reached its timed window")?;
    let timed: Vec<&Exchange> = exchanges.iter().filter(|e| e.timed).collect();
    out.attempted = timed.len() as u64;
    out.failed = timed.iter().filter(|e| e.latency_ms().is_none()).count() as u64;
    let score_ms: Vec<f64> = timed
        .iter()
        .filter(|e| e.score_domain.is_some())
        .filter_map(|e| e.latency_ms())
        .collect();
    let reload_ms: Vec<f64> = timed
        .iter()
        .filter(|e| e.score_domain.is_none())
        .filter_map(|e| e.latency_ms())
        .collect();
    let last_done = timed
        .iter()
        .filter_map(|e| e.result.as_ref().ok().map(|(_, t)| t.done))
        .max()
        .unwrap_or(start);
    let replies: Vec<Reply> = exchanges
        .iter()
        .filter_map(|e| match (e.score_domain, &e.digest) {
            (Some(domain), Some(digest)) => Some(Reply {
                domain,
                index: e.index as u64,
                digest: digest.clone(),
            }),
            _ => None,
        })
        .collect();
    let (equal, detail, f1) = verify(&domains, seed, cfg.keepalive_pairs, &replies)?;
    out.check("scores_bitwise_equal", equal, detail);
    let reloads_ok = exchanges
        .iter()
        .filter(|e| e.score_domain.is_none())
        .all(|e| matches!(e.result, Ok((200, _))));
    out.check(
        "reloads_succeeded",
        reloads_ok,
        "every POST /reload answered 200",
    );
    let tail = Workload::TAIL_PERCENTILE;
    if tail_percentile(score_ms.len()).is_none_or(|p| p < tail) {
        out.notes.push(format!(
            "{} samples do not support a p{tail}",
            score_ms.len()
        ));
    }

    if trace {
        http_layers(&mut out, &tracer);
        counter_deltas(&mut out, &before, &after);
        out.set("registry.reload_ms", median(&reload_ms));
        out.set("loadgen.sent", out.attempted as f64);
        // Cold fault-in of every domain, and the open paths of the
        // largest, in-process.
        let registry =
            ModelRegistry::open(&root, RegistryConfig::default()).map_err(|e| e.to_string())?;
        let mut faultin_ms = Vec::new();
        for d in &domains {
            let t = Instant::now();
            registry.get(d.name).map_err(|e| e.to_string())?;
            faultin_ms.push(secs(t) * 1e3);
        }
        out.set("registry.faultin_ms", median(&faultin_ms));
        let t = Instant::now();
        LeapmeModel::load_with_report(&domains[0].model).map_err(|e| e.to_string())?;
        out.set("model.open_ms", secs(t) * 1e3);
        let t = Instant::now();
        feature_cache::load_resident(&domains[0].cache).map_err(|e| e.to_string())?;
        out.set("feature_cache.open_ms", secs(t) * 1e3);
        let state =
            ServeState::with_registry(std::sync::Arc::new(registry), None, ServeConfig::default());
        probe_handler(
            &mut out,
            &state,
            &domains,
            seed,
            cfg.keepalive_pairs,
            &replies,
            true,
        )?;
        unaccounted(&mut out, &tracer);
        out.trace_json = Some(tracer.chrome_json());
    } else {
        out.set("latency_p50_ms", median(&score_ms));
        out.set("latency_tail_ms", percentile(&score_ms, tail));
        let timed_pairs = score_ms.len() * cfg.keepalive_pairs;
        out.set(
            "throughput_pairs_per_s",
            timed_pairs as f64 / last_done.duration_since(start).as_secs_f64(),
        );
        out.set("peak_rss_mb", rss);
        out.set(
            "setup_s",
            median(&more_launches(cfg, &args, ready, launch)?),
        );
        out.set("f1", f1);
        out.set("reload_p50_ms", median(&reload_ms));
        out.set(
            "error_rate",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        out.notes.push(format!(
            "{} /score and {} /reload timed; resident budget {budget_mb} MB of a {fleet}-byte fleet",
            score_ms.len(),
            reload_ms.len(),
        ));
    }
    Ok(out)
}

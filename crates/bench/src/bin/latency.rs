//! Service latency benchmark — closed-loop clients against an
//! in-process `leapme serve` instance.
//!
//! Two phases, reported to `--out` (default `BENCH_PR8.json`):
//!
//! * **steady state** — `--clients` threads (default 4) each run
//!   `--requests` POST `/score` calls (default 50) over fresh
//!   connections against a comfortably provisioned server; per-request
//!   wall-clock latencies aggregate to p50/p99/mean and a throughput
//!   figure.
//! * **overload** — the same workload pointed at a deliberately
//!   starved server (1 worker, queue depth 2) with more clients;
//!   admission control must shed with `503 + Retry-After`, which the
//!   clients absorb with jittered exponential backoff. The recorded
//!   shed rate proves load shedding engaged instead of unbounded
//!   queueing.
//!
//! Latency numbers come from loopback TCP with real parsing — they
//! measure the service stack, not the network. `faults_enabled` must
//! read `false` in any report that counts: scripts/verify.sh greps it.

use leapme::core::pipeline::{Leapme, LeapmeConfig};
use leapme::data::io::atomic_write;
use leapme::nn::network::TrainConfig;
use leapme::nn::schedule::LrSchedule;
use leapme::prelude::*;
use leapme::serve::{self, ServeConfig, ServeState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Serialize)]
struct LatencyStats {
    requests: usize,
    p50_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
    max_ms: f64,
    throughput_rps: f64,
}

#[derive(Debug, Serialize)]
struct OverloadStats {
    clients: usize,
    attempts: usize,
    completed: usize,
    shed_responses: usize,
    shed_rate: f64,
    retries_spent: usize,
    server_shed_count: u64,
}

#[derive(Debug, Serialize)]
struct LatencyReport {
    faults_enabled: bool,
    pairs_per_request: usize,
    steady: LatencyStats,
    overload: OverloadStats,
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = flag(&args, "--out").unwrap_or_else(|| "BENCH_PR8.json".to_string());
    let clients: usize = flag(&args, "--clients")
        .map(|v| v.parse().expect("--clients"))
        .unwrap_or(4);
    let requests: usize = flag(&args, "--requests")
        .map(|v| v.parse().expect("--requests"))
        .unwrap_or(50);

    // -- fixture: dataset, embeddings, store, a quickly trained model --
    let dataset = generate(Domain::Tvs, 17);
    let mut ecfg = leapme::EmbeddingTrainingConfig::default();
    ecfg.glove.dim = 8;
    ecfg.glove.epochs = 2;
    let embeddings = leapme::train_domain_embeddings(&[Domain::Tvs], &ecfg, 17).unwrap();
    let store = PropertyFeatureStore::build(&dataset, &embeddings);
    let train_sources = vec![SourceId(0), SourceId(1), SourceId(2), SourceId(3)];
    let mut rng = StdRng::seed_from_u64(3);
    let train = training_pairs(&dataset, &train_sources, 2, &mut rng);
    let cfg = LeapmeConfig {
        train: TrainConfig {
            schedule: LrSchedule::new(vec![(4, 1e-3)]),
            ..TrainConfig::default()
        },
        hidden: vec![8],
        ..LeapmeConfig::default()
    };
    let model = Leapme::fit(&store, &train, &cfg).unwrap();

    // One request body reused by every client: 64 cross-source pairs.
    let pairs: Vec<PropertyPair> = test_pairs(&dataset, &[]).into_iter().take(64).collect();
    let quads: Vec<(u16, String, u16, String)> = pairs
        .iter()
        .map(|PropertyPair(a, b)| (a.source.0, a.name.clone(), b.source.0, b.name.clone()))
        .collect();
    let body = format!("{{\"pairs\":{}}}", serde_json::to_string(&quads).unwrap());
    let pairs_per_request = pairs.len();

    let spawn_server = |workers: usize, queue_depth: usize| {
        let embeddings = {
            // The store/state consume their inputs; rebuild per server.
            let mut e = leapme::train_domain_embeddings(&[Domain::Tvs], &ecfg, 17).unwrap();
            e.set_fuzzy_oov(true);
            e
        };
        let store = PropertyFeatureStore::build(&dataset, &embeddings);
        let state = Arc::new(ServeState::new(
            model.clone(),
            embeddings,
            dataset.clone(),
            store,
            None,
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers,
                queue_depth,
                io_timeout: Duration::from_secs(2),
                ..ServeConfig::default()
            },
        ));
        let handle = serve::start(Arc::clone(&state)).unwrap();
        (handle, state)
    };

    // -- phase 1: steady state ----------------------------------------
    eprintln!("latency: steady state ({clients} clients x {requests} requests)");
    let (handle, _state) = spawn_server(4, 64);
    let started = Instant::now();
    let results = run_clients(handle.addr(), &body, clients, requests, 0);
    let elapsed = started.elapsed().as_secs_f64();
    handle.shutdown();
    let drain = handle.join();
    assert!(drain.clean, "steady-state drain dropped connections: {drain:?}");

    let mut latencies: Vec<f64> = results.iter().flat_map(|r| r.latencies_ms.clone()).collect();
    assert!(
        !latencies.is_empty(),
        "steady state completed no requests — the service is broken"
    );
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let steady = LatencyStats {
        requests: latencies.len(),
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        mean_ms: latencies.iter().sum::<f64>() / latencies.len() as f64,
        max_ms: latencies.last().copied().unwrap(),
        throughput_rps: latencies.len() as f64 / elapsed,
    };

    // -- phase 2: overload ---------------------------------------------
    let overload_clients = clients.max(2) * 3;
    eprintln!("latency: overload ({overload_clients} clients vs 1 worker, queue depth 2)");
    let (handle, state) = spawn_server(1, 2);
    let results = run_clients(handle.addr(), &body, overload_clients, requests, 3);
    let server_shed = state
        .metrics
        .shed
        .load(std::sync::atomic::Ordering::Relaxed);
    handle.shutdown();
    let drain = handle.join();
    assert!(drain.clean, "overload drain dropped connections: {drain:?}");

    let attempts: usize = results.iter().map(|r| r.attempts).sum();
    let completed: usize = results.iter().map(|r| r.completed).sum();
    let shed_responses: usize = results.iter().map(|r| r.shed).sum();
    let retries_spent: usize = results.iter().map(|r| r.retries).sum();
    let overload = OverloadStats {
        clients: overload_clients,
        attempts,
        completed,
        shed_responses,
        shed_rate: shed_responses as f64 / attempts.max(1) as f64,
        retries_spent,
        server_shed_count: server_shed,
    };

    let report = LatencyReport {
        faults_enabled: cfg!(feature = "faults"),
        pairs_per_request,
        steady,
        overload,
    };
    let json = serde_json::to_string_pretty(&report).unwrap();
    atomic_write(std::path::Path::new(&out), format!("{json}\n").as_bytes()).unwrap();
    println!("{json}");
}

struct ClientResult {
    latencies_ms: Vec<f64>,
    attempts: usize,
    completed: usize,
    shed: usize,
    retries: usize,
}

/// Closed-loop clients: each sends its requests back to back over
/// fresh connections, retrying a shed response up to `max_retries`
/// times with jittered exponential backoff (the well-behaved client
/// the `Retry-After` contract assumes).
fn run_clients(
    addr: SocketAddr,
    body: &str,
    clients: usize,
    requests: usize,
    max_retries: usize,
) -> Vec<ClientResult> {
    let request = format!(
        "POST /score HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let request = Arc::new(request);
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let request = Arc::clone(&request);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xBEEF ^ c as u64);
                let mut r = ClientResult {
                    latencies_ms: Vec::with_capacity(requests),
                    attempts: 0,
                    completed: 0,
                    shed: 0,
                    retries: 0,
                };
                for _ in 0..requests {
                    let mut backoff = Duration::from_millis(5);
                    for attempt in 0..=max_retries {
                        r.attempts += 1;
                        let t = Instant::now();
                        match one_request(addr, request.as_bytes()) {
                            Some(200) => {
                                r.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                                r.completed += 1;
                                break;
                            }
                            Some(503) => {
                                r.shed += 1;
                                if attempt < max_retries {
                                    r.retries += 1;
                                    // Jittered exponential backoff in
                                    // [0.5, 1.5) × the nominal delay.
                                    let jitter = 0.5 + rng.gen::<f64>();
                                    std::thread::sleep(backoff.mul_f64(jitter));
                                    backoff = (backoff * 2).min(Duration::from_millis(100));
                                }
                            }
                            _ => break, // dropped connection or error: give up
                        }
                    }
                }
                r
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// One request over a fresh connection; returns the status code.
fn one_request(addr: SocketAddr, raw: &[u8]) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    stream.write_all(raw).ok()?;
    let mut out = String::new();
    stream.read_to_string(&mut out).ok()?;
    out.split_whitespace().nth(1).and_then(|s| s.parse().ok())
}

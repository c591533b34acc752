//! Chaos suite for `leapme serve` (DESIGN.md §13): hostile clients,
//! deadline expiry mid-score, overload, injected `serve.*` faults, and
//! the graceful-drain contract.
//!
//! Every test drives a real in-process server over real TCP sockets —
//! the same accept loop, worker pool, and parser the binary runs. The
//! invariants under test:
//!
//! * no panic escapes the worker pool (injected or real);
//! * overload sheds with `503 + Retry-After`, never unbounded memory;
//! * a deadline expiry returns the partial results already computed,
//!   flagged degraded;
//! * warm-served responses are byte-identical to the batch pipeline on
//!   the same pairs;
//! * at shutdown every admitted request completes — the drain is clean.

use leapme::core::pipeline::{Leapme, LeapmeConfig, LeapmeModel};
use leapme::core::sampling;
use leapme::nn::network::TrainConfig;
use leapme::nn::schedule::LrSchedule;
use leapme::prelude::*;
use leapme::serve::{self, ServeConfig, ServeState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// fixture
// ---------------------------------------------------------------------

/// Serialize the tests in this file: each one runs a real server with
/// real sockets (and, under `--features faults`, a process-global fault
/// plan), so overlapping them would let one test's chaos leak into
/// another's assertions.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Expensive shared pieces, built once: the dataset, a trained model,
/// and the embeddings persisted to a temp file (the store is rebuilt
/// per test because it is consumed by the server state).
fn fixture() -> &'static (Dataset, LeapmeModel, std::path::PathBuf) {
    static FIXTURE: OnceLock<(Dataset, LeapmeModel, std::path::PathBuf)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = generate(Domain::Tvs, 41);
        let mut ecfg = leapme::EmbeddingTrainingConfig::default();
        ecfg.glove.dim = 8;
        ecfg.glove.epochs = 2;
        let embeddings = leapme::train_domain_embeddings(&[Domain::Tvs], &ecfg, 41).unwrap();
        let emb_path = std::env::temp_dir()
            .join("leapme_serve_chaos_tests")
            .join("emb.txt");
        std::fs::create_dir_all(emb_path.parent().unwrap()).unwrap();
        embeddings.save_text(&emb_path).unwrap();

        let store = PropertyFeatureStore::build(&dataset, &embeddings);
        let train_sources = vec![SourceId(0), SourceId(1), SourceId(2), SourceId(3)];
        let mut rng = StdRng::seed_from_u64(9);
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
        (dataset, model, emb_path)
    })
}

/// Fresh embeddings + feature store for one server instance.
fn load_parts() -> (EmbeddingStore, PropertyFeatureStore) {
    let (dataset, _, emb_path) = fixture();
    let mut embeddings = EmbeddingStore::load_text(emb_path).unwrap();
    embeddings.set_fuzzy_oov(true);
    let store = PropertyFeatureStore::build(dataset, &embeddings);
    (embeddings, store)
}

/// Start a server on an OS-assigned port with the shared fixture.
fn start_server(config: ServeConfig) -> (serve::ServerHandle, Arc<ServeState>) {
    let (dataset, model, _) = fixture();
    let (embeddings, store) = load_parts();
    let state = Arc::new(ServeState::new(
        model.clone(),
        embeddings,
        dataset.clone(),
        store,
        None,
        config,
    ));
    let handle = serve::start(Arc::clone(&state)).unwrap();
    (handle, state)
}

fn quick_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 8,
        io_timeout: Duration::from_millis(400),
        request_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    }
}

// ---------------------------------------------------------------------
// a deliberately low-level HTTP client
// ---------------------------------------------------------------------

/// Write `raw` to a fresh connection and read until EOF.
fn raw_roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw).unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &str,
    body: &str,
) -> String {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n{extra_headers}\r\n{body}",
        body.len()
    );
    raw_roundtrip(addr, raw.as_bytes())
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    request_with_headers(addr, method, path, "", body)
}

/// Status code from a raw response.
fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"))
}

/// Body (everything after the blank line).
fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

/// Extract an unsigned JSON number field from a flat JSON body.
fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat).unwrap_or_else(|| panic!("{key} in {body}")) + pat.len()..];
    rest.chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// A `/score` body for the first `n` cross-source candidate pairs.
fn score_body(dataset: &Dataset, n: usize) -> (Vec<PropertyPair>, String) {
    let pairs: Vec<PropertyPair> = sampling::test_pairs(dataset, &[]).into_iter().take(n).collect();
    let quads: Vec<(u16, String, u16, String)> = pairs
        .iter()
        .map(|PropertyPair(a, b)| (a.source.0, a.name.clone(), b.source.0, b.name.clone()))
        .collect();
    let body = format!(
        "{{\"pairs\":{}}}",
        serde_json::to_string(&quads).unwrap()
    );
    (pairs, body)
}

// ---------------------------------------------------------------------
// happy paths + byte identity with the batch pipeline
// ---------------------------------------------------------------------

#[test]
fn health_ready_and_metrics_answer() {
    let _g = serial();
    let (handle, _state) = start_server(quick_config());
    let addr = handle.addr();

    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(status_of(&health), 200);
    assert!(body_of(&health).contains("\"ok\""));

    let ready = request(addr, "GET", "/readyz", "");
    assert_eq!(status_of(&ready), 200);
    assert!(body_of(&ready).contains("\"ready\""));
    assert!(body_of(&ready).contains("\"generation\":0"));

    let metrics = request(addr, "GET", "/metrics", "");
    assert_eq!(status_of(&metrics), 200);
    assert!(body_of(&metrics).contains("\"draining\":false"));

    let missing = request(addr, "GET", "/nope", "");
    assert_eq!(status_of(&missing), 404);
    let wrong_method = request(addr, "POST", "/healthz", "");
    assert_eq!(status_of(&wrong_method), 405);

    handle.shutdown();
    assert!(handle.join().clean);
}

#[test]
fn warm_score_is_byte_identical_to_batch_scoring() {
    let _g = serial();
    let (dataset, model, _) = fixture();
    let (_, store) = load_parts();
    let (handle, _state) = start_server(quick_config());

    let (pairs, body) = score_body(dataset, 64);
    let response = request(handle.addr(), "POST", "/score", &body);
    assert_eq!(status_of(&response), 200);

    // The served scores must be byte-identical to the batch pipeline's
    // on the same pairs: same scorer, same serializer, same bytes.
    let expected = model.score_pairs(&store, &pairs).unwrap();
    let expected_json = format!(
        "\"scores\":{}",
        serde_json::to_string(&expected).unwrap()
    );
    assert!(
        body_of(&response).contains(&expected_json),
        "served scores diverge from batch scores"
    );
    assert!(body_of(&response).contains("\"degraded\":false"));

    handle.shutdown();
    assert!(handle.join().clean);
}

#[test]
fn warm_match_is_byte_identical_to_batch_graph() {
    let _g = serial();
    let (dataset, model, _) = fixture();
    let (_, store) = load_parts();
    let (handle, state) = start_server(quick_config());

    let response = request(handle.addr(), "POST", "/match", "");
    assert_eq!(status_of(&response), 200);

    // Exactly the bytes `match --model` would write for the same
    // dataset: all cross-source pairs through the same streaming
    // scorer, pretty-printed by the same serializer.
    let candidates = sampling::test_pairs(dataset, &[]);
    let graph = model.predict_graph(&store, &candidates).unwrap();
    let expected = serde_json::to_string_pretty(&graph).unwrap();
    assert_eq!(body_of(&response), expected, "served graph diverges from batch graph");

    // A second identical request may be answered by the single-flight
    // cache; either way the bytes are the same.
    let again = request(handle.addr(), "POST", "/match", "");
    assert_eq!(body_of(&again), expected);
    drop(state);

    handle.shutdown();
    assert!(handle.join().clean);
}

// ---------------------------------------------------------------------
// hostile inputs
// ---------------------------------------------------------------------

#[test]
fn malformed_and_unknown_inputs_get_typed_400s() {
    let _g = serial();
    let (handle, _state) = start_server(quick_config());
    let addr = handle.addr();

    let bad_json = request(addr, "POST", "/score", "{not json");
    assert_eq!(status_of(&bad_json), 400);
    assert!(body_of(&bad_json).contains("malformed-json"));

    let unknown = request(
        addr,
        "POST",
        "/score",
        "{\"pairs\":[[0,\"no-such-property\",1,\"also-missing\"]]}",
    );
    assert_eq!(status_of(&unknown), 400);
    assert!(body_of(&unknown).contains("unknown-property"));

    let bad_source = request(addr, "POST", "/score", "{\"pairs\":[[99,\"x\",0,\"y\"]]}");
    assert_eq!(status_of(&bad_source), 400);
    assert!(body_of(&bad_source).contains("unknown-source"));

    let bad_deadline =
        request_with_headers(addr, "POST", "/match", "x-leapme-deadline-ms: soon\r\n", "");
    assert_eq!(status_of(&bad_deadline), 400);
    assert!(body_of(&bad_deadline).contains("bad-deadline"));

    let bad_csv = request(addr, "POST", "/integrate-source", "\u{1}\u{2}\u{3}");
    assert_eq!(status_of(&bad_csv), 400);

    handle.shutdown();
    assert!(handle.join().clean);
}

#[test]
fn oversized_body_is_rejected_before_buffering() {
    let _g = serial();
    let mut config = quick_config();
    config.limits.max_body_bytes = 1024;
    let (handle, _state) = start_server(config);

    // Declared 10 MiB against a 1 KiB cap: rejected at the header, no
    // body bytes ever read or buffered.
    let raw = format!(
        "POST /score HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
        10 * 1024 * 1024
    );
    let response = raw_roundtrip(handle.addr(), raw.as_bytes());
    assert_eq!(status_of(&response), 413);
    assert!(body_of(&response).contains("payload-too-large"));

    // The server is unharmed.
    assert_eq!(status_of(&request(handle.addr(), "GET", "/healthz", "")), 200);
    handle.shutdown();
    assert!(handle.join().clean);
}

#[test]
fn slow_loris_is_cut_off_by_the_read_timeout() {
    let _g = serial();
    let (handle, state) = start_server(quick_config());

    // Dribble a partial head and stall past the io timeout.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"POST /score HTTP/1.1\r\nhost:").unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    assert_eq!(status_of(&out), 408, "slow-loris gets a request timeout");

    // The worker moved on; the server still answers.
    assert_eq!(status_of(&request(handle.addr(), "GET", "/healthz", "")), 200);
    assert!(
        state.metrics.client_errors.load(std::sync::atomic::Ordering::Relaxed) >= 1
    );
    handle.shutdown();
    assert!(handle.join().clean);
}

#[test]
fn mid_request_disconnect_is_absorbed() {
    let _g = serial();
    let (handle, state) = start_server(quick_config());

    // Half a request, then vanish.
    {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .write_all(b"POST /score HTTP/1.1\r\ncontent-length: 100\r\n\r\n{\"pa")
            .unwrap();
    } // dropped: RST/EOF mid-body

    // Wait for a worker to process the carcass, then prove liveness.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while state.metrics.disconnects.load(std::sync::atomic::Ordering::Relaxed) == 0
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        state.metrics.disconnects.load(std::sync::atomic::Ordering::Relaxed) >= 1,
        "mid-request disconnect should be counted, not crash anything"
    );
    assert_eq!(status_of(&request(handle.addr(), "GET", "/healthz", "")), 200);
    handle.shutdown();
    assert!(handle.join().clean);
}

// ---------------------------------------------------------------------
// deadlines and overload
// ---------------------------------------------------------------------

#[test]
fn deadline_expiry_mid_score_returns_degraded_partials() {
    let _g = serial();
    let (dataset, _, _) = fixture();
    let (handle, _state) = start_server(quick_config());

    let (pairs, body) = score_body(dataset, 256);
    // A zero-millisecond deadline expires before the first chunk.
    let response = request_with_headers(
        handle.addr(),
        "POST",
        "/score",
        "x-leapme-deadline-ms: 0\r\n",
        &body,
    );
    assert_eq!(status_of(&response), 200, "partials are a success, not an error");
    assert!(response.contains("x-leapme-degraded: true"), "degraded header set");
    let resp_body = body_of(&response);
    assert!(resp_body.contains("\"degraded\":true"));
    let scored = json_u64(resp_body, "scored");
    assert!(
        (scored as usize) < pairs.len(),
        "deadline must cut the run short ({scored} of {})",
        pairs.len()
    );

    handle.shutdown();
    assert!(handle.join().clean);
}

#[test]
fn overload_sheds_with_503_and_retry_after_not_memory() {
    let _g = serial();
    let mut config = quick_config();
    config.workers = 1;
    config.queue_depth = 2;
    config.io_timeout = Duration::from_millis(300);
    let (handle, state) = start_server(config);
    let addr = handle.addr();

    // Flood with idle connections: 1 occupies the worker, 2 fill the
    // queue, the rest must be shed immediately — not buffered.
    let mut conns: Vec<TcpStream> = (0..10)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        })
        .collect();

    let mut shed_seen = 0;
    for stream in conns.iter_mut() {
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        if out.is_empty() {
            continue; // admitted conn we never wrote to: closed on timeout
        }
        if status_of(&out) == 503 {
            shed_seen += 1;
            assert!(out.contains("retry-after:"), "shed responses advertise Retry-After");
            assert!(body_of(&out).contains("overloaded"));
        }
    }
    assert!(shed_seen >= 1, "a 10-deep flood over a 3-slot server must shed");
    assert!(
        state.metrics.shed.load(std::sync::atomic::Ordering::Relaxed) >= shed_seen,
        "metrics record the shed connections"
    );

    // The flood is over; service resumes.
    assert_eq!(status_of(&request(addr, "GET", "/healthz", "")), 200);
    handle.shutdown();
    assert!(handle.join().clean);
}

/// Every connection the server sheds reads its 503, even one whose whole
/// `/score` request is still unread when the server answers: the shed
/// path's lingering close (DESIGN.md §13) ends the exchange with an
/// orderly close, not a reset that could destroy the reply.
#[test]
fn every_shed_reaches_a_client_that_sent_its_request() {
    use std::sync::atomic::Ordering::Relaxed;
    const BURST: usize = 8;

    let _g = serial();
    let mut config = quick_config();
    config.workers = 1;
    config.queue_depth = 2;
    // Long enough that no held connection times out during the burst.
    config.io_timeout = Duration::from_secs(30);
    let (handle, state) = start_server(config);
    let addr = handle.addr();
    let (dataset, _, _) = fixture();
    let (_, body) = score_body(dataset, 64);
    let raw = format!(
        "POST /score HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );

    // Hold the one worker: once a kept-alive exchange is answered, the
    // worker owns this connection and waits on it for the next request.
    let mut worker_hold = TcpStream::connect(addr).unwrap();
    worker_hold
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let first = exchange(
        &mut worker_hold,
        b"GET /healthz HTTP/1.1\r\nhost: test\r\nconnection: keep-alive\r\ncontent-length: 0\r\n\r\n",
    );
    assert_eq!(status_of(&first), 200);
    // Fill both queue slots. `accept` takes connections in the order
    // they were made, so these two are queued before the burst arrives.
    let queue_holds: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();

    let burst: Vec<TcpStream> = (0..BURST)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream.write_all(raw.as_bytes()).unwrap();
            stream
        })
        .collect();
    for (i, mut stream) in burst.into_iter().enumerate() {
        let mut out = String::new();
        let read = stream.read_to_string(&mut out);
        assert!(
            read.is_ok(),
            "burst connection {i} ended in {read:?} after {out:?}"
        );
        assert_eq!(status_of(&out), 503, "burst connection {i}: {out}");
        assert!(out.contains("retry-after:"), "burst connection {i}: {out}");
        assert!(
            body_of(&out).contains("overloaded"),
            "burst connection {i}: {out}"
        );
    }
    assert_eq!(
        state.metrics.shed.load(Relaxed),
        BURST as u64,
        "the server counts exactly the sheds its clients read"
    );

    // Close the holds. The worker counts a never-used connection as a
    // disconnect when it takes it off the queue (the worker hold, which
    // completed an exchange, ends normally), so two disconnects mean a
    // queue slot is free again and service resumes.
    drop(worker_hold);
    drop(queue_holds);
    let deadline = Instant::now() + Duration::from_secs(5);
    while state.metrics.disconnects.load(Relaxed) < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(state.metrics.disconnects.load(Relaxed) >= 2);
    assert_eq!(status_of(&request(addr, "GET", "/healthz", "")), 200);
    handle.shutdown();
    assert!(handle.join().clean);
}

// ---------------------------------------------------------------------
// graceful drain
// ---------------------------------------------------------------------

#[test]
fn drain_completes_in_flight_requests_and_journals_the_shutdown() {
    let _g = serial();
    let journal_path = std::env::temp_dir()
        .join("leapme_serve_chaos_tests")
        .join("drain.journal");
    std::fs::create_dir_all(journal_path.parent().unwrap()).unwrap();
    let _ = std::fs::remove_file(&journal_path);

    let (dataset, model, _) = fixture();
    let (embeddings, store) = load_parts();
    let journal = leapme::core::journal::RunJournal::open(&journal_path).unwrap();
    let state = Arc::new(ServeState::new(
        model.clone(),
        embeddings,
        dataset.clone(),
        store,
        Some(journal),
        quick_config(),
    ));
    let handle = serve::start(Arc::clone(&state)).unwrap();
    let addr = handle.addr();

    // A client whose request is mid-flight when the drain starts.
    let (_, body) = score_body(dataset, 128);
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let head = format!(
            "POST /score HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        // Trickle the body so the request is still in flight at SIGTERM.
        let (a, b) = body.as_bytes().split_at(body.len() / 2);
        stream.write_all(a).unwrap();
        std::thread::sleep(Duration::from_millis(120));
        stream.write_all(b).unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        out
    });

    std::thread::sleep(Duration::from_millis(60)); // let the request be admitted
    handle.shutdown();
    let report = handle.join();

    let response = client.join().unwrap();
    assert_eq!(
        status_of(&response),
        200,
        "the in-flight request must complete through the drain"
    );
    assert!(report.clean, "no admitted connection may be dropped: {report:?}");
    assert!(report.completed >= 1);

    // New connections are refused (or told 503) after the drain.
    assert!(
        TcpStream::connect(addr).map(|mut s| {
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            out.is_empty() || status_of(&out) == 503
        }).unwrap_or(true),
        "post-drain connections must not be served"
    );

    let journaled = std::fs::read_to_string(&journal_path).unwrap();
    assert!(journaled.contains("serve.start"), "startup journaled");
    assert!(journaled.contains("serve.shutdown"), "shutdown journaled");
    assert!(journaled.contains("\"clean\":true"));
}

/// A server that never saw a connection drains at once: `shutdown`
/// wakes the accept thread out of `accept` with a connection of its
/// own, made through loopback when the server is bound to the
/// unspecified address. Calling `shutdown` twice is harmless.
#[test]
fn idle_server_drains_promptly_on_either_bind_address() {
    let _g = serial();
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let (handle, _state) = start_server(ServeConfig {
            addr: addr.to_string(),
            ..quick_config()
        });
        // A lost wake must fail the test, not hang the suite.
        let (done, drained) = std::sync::mpsc::channel();
        let drainer = std::thread::spawn(move || {
            handle.shutdown();
            handle.shutdown();
            let _ = done.send(handle.join());
        });
        let report = drained
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("server bound to {addr} did not drain within 2 s"));
        drainer.join().unwrap();
        assert!(report.clean, "bound to {addr}: {report:?}");
    }
}

// ---------------------------------------------------------------------
// source integration against the resident graph
// ---------------------------------------------------------------------

#[test]
fn integrate_source_swaps_resident_state_atomically() {
    let _g = serial();
    let (handle, state) = start_server(quick_config());
    let addr = handle.addr();

    let csv = "source,property,entity,value\n\
               newshop,screen size,e1,55 inch\n\
               newshop,resolution,e1,3840x2160\n";
    let response = request(addr, "POST", "/integrate-source", csv);
    assert_eq!(status_of(&response), 200, "integration failed: {response}");
    let resp_body = body_of(&response);
    assert!(resp_body.contains("newshop"));
    assert_eq!(json_u64(resp_body, "generation"), 1);
    assert_eq!(json_u64(resp_body, "imported_rows"), 2);

    // The resident dataset grew; readyz reflects the new generation.
    let ready = request(addr, "GET", "/readyz", "");
    assert!(body_of(&ready).contains("\"generation\":1"));
    {
        let resident = state.single().expect("single-model mode").resident.read().unwrap();
        assert!(resident.dataset.sources().iter().any(|s| s == "newshop"));
        assert_eq!(resident.generation, 1);
    }

    // Uploading rows for an already-resident source is refused.
    let dup = request(addr, "POST", "/integrate-source", csv);
    assert_eq!(status_of(&dup), 400);
    assert!(body_of(&dup).contains("existing-source"));

    handle.shutdown();
    assert!(handle.join().clean);
}

// ---------------------------------------------------------------------
// keep-alive: bounded multi-request connections
// ---------------------------------------------------------------------

/// Write one request on an already-open connection and read exactly one
/// framed response (headers, then `content-length` bytes of body) —
/// without consuming the connection, unlike [`raw_roundtrip`].
fn exchange(stream: &mut TcpStream, raw: &[u8]) -> String {
    stream.write_all(raw).unwrap();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 512];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed mid-response: {buf:?}");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).unwrap().to_ascii_lowercase();
    let clen: usize = head
        .split("content-length:")
        .nth(1)
        .and_then(|r| r.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("content-length in response head");
    while buf.len() < head_end + clen {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    String::from_utf8_lossy(&buf[..head_end + clen]).into_owned()
}

/// `Connection: keep-alive` grants a second request on the same socket;
/// the response at the budget edge advertises `connection: close` and
/// the server hangs up. A request without the header closes immediately.
#[test]
fn keep_alive_is_granted_explicitly_and_bounded_by_the_budget() {
    let _g = serial();
    let (handle, _state) = start_server(ServeConfig {
        keep_alive_max_requests: 2,
        ..quick_config()
    });
    let addr = handle.addr();

    let keep_alive_get =
        b"GET /healthz HTTP/1.1\r\nhost: test\r\nconnection: keep-alive\r\ncontent-length: 0\r\n\r\n";
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let first = exchange(&mut stream, keep_alive_get);
    assert_eq!(status_of(&first), 200);
    assert!(
        first.to_ascii_lowercase().contains("connection: keep-alive"),
        "first response must advertise keep-alive: {first}"
    );

    // Same socket, second request: budget of 2 is now spent, so the
    // response says close and the stream reaches EOF.
    let second = exchange(&mut stream, keep_alive_get);
    assert_eq!(status_of(&second), 200);
    assert!(
        second.to_ascii_lowercase().contains("connection: close"),
        "budget-edge response must advertise close: {second}"
    );
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server wrote past the keep-alive budget");

    // No `connection: keep-alive` header → one exchange, then EOF.
    let mut plain = TcpStream::connect(addr).unwrap();
    plain.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let only = exchange(
        &mut plain,
        b"GET /healthz HTTP/1.1\r\nhost: test\r\ncontent-length: 0\r\n\r\n",
    );
    assert_eq!(status_of(&only), 200);
    assert!(only.to_ascii_lowercase().contains("connection: close"));
    let mut rest = Vec::new();
    plain.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());

    handle.shutdown();
    assert!(handle.join().clean);
}

/// A kept-alive client that hangs up, or falls silent, after a
/// completed exchange ends the conversation normally; one that hangs
/// up partway through its next request is a disconnect, and one that
/// stalls partway through it gets a 408 and a client error.
#[test]
fn a_close_between_kept_alive_requests_is_not_a_disconnect() {
    use std::sync::atomic::Ordering::Relaxed;
    let _g = serial();
    let (handle, state) = start_server(ServeConfig {
        workers: 1,
        ..quick_config()
    });
    let addr = handle.addr();
    let keep_alive_get =
        b"GET /healthz HTTP/1.1\r\nhost: test\r\nconnection: keep-alive\r\ncontent-length: 0\r\n\r\n";
    // The one worker takes connections in arrival order, so once a
    // later connection is answered it has finished with the earlier.
    let settled = || assert_eq!(status_of(&request(addr, "GET", "/healthz", "")), 200);

    let mut done = TcpStream::connect(addr).unwrap();
    done.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(status_of(&exchange(&mut done, keep_alive_get)), 200);
    drop(done);
    settled();
    assert_eq!(
        state.metrics.disconnects.load(Relaxed),
        0,
        "a close after an exchange"
    );

    let mut torn = TcpStream::connect(addr).unwrap();
    torn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(status_of(&exchange(&mut torn, keep_alive_get)), 200);
    torn.write_all(b"POST /score HTTP/1.1\r\ncontent-le")
        .unwrap();
    drop(torn);
    settled();
    assert_eq!(
        state.metrics.disconnects.load(Relaxed),
        1,
        "a close mid-request"
    );

    // Silence past the 400 ms io timeout after an exchange: the server
    // closes without a reply and counts nothing.
    let errors_before = state.metrics.client_errors.load(Relaxed);
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(status_of(&exchange(&mut idle, keep_alive_get)), 200);
    let mut rest = Vec::new();
    idle.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "an idle close wrote {rest:?}");
    settled();
    assert_eq!(state.metrics.client_errors.load(Relaxed), errors_before);
    assert_eq!(state.metrics.disconnects.load(Relaxed), 1, "an idle close");

    // Half of the next request, then a stall past the timeout: a 408,
    // counted as a client error, as for a first request.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(status_of(&exchange(&mut stalled, keep_alive_get)), 200);
    stalled
        .write_all(b"POST /score HTTP/1.1\r\ncontent-le")
        .unwrap();
    let mut reply = String::new();
    let _ = stalled.read_to_string(&mut reply);
    assert_eq!(status_of(&reply), 408, "a stall mid-request: {reply}");
    settled();
    assert_eq!(
        state.metrics.client_errors.load(Relaxed),
        errors_before + 1,
        "a stall mid-request"
    );
    assert_eq!(state.metrics.disconnects.load(Relaxed), 1);

    handle.shutdown();
    assert!(handle.join().clean);
}

/// `/metrics` reports how many connections wait in the admission queue.
#[test]
fn metrics_report_the_admission_queue_depth() {
    use std::sync::atomic::Ordering::Relaxed;
    let _g = serial();
    let (handle, state) = start_server(ServeConfig {
        workers: 1,
        io_timeout: Duration::from_secs(30),
        ..quick_config()
    });
    let addr = handle.addr();

    // Hold the one worker on a kept-alive connection, then queue two.
    let mut hold = TcpStream::connect(addr).unwrap();
    hold.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let first = exchange(
        &mut hold,
        b"GET /healthz HTTP/1.1\r\nhost: test\r\nconnection: keep-alive\r\ncontent-length: 0\r\n\r\n",
    );
    assert_eq!(status_of(&first), 200);
    let queued: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while state.metrics.queued.load(Relaxed) < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(state.metrics.queued.load(Relaxed), 2);
    assert!(state.metrics.to_json(false).contains("\"queued\":2"));

    drop(hold);
    drop(queued);
    let metrics = request(addr, "GET", "/metrics", "");
    assert_eq!(status_of(&metrics), 200);
    assert_eq!(json_u64(body_of(&metrics), "queued"), 0, "{metrics}");
    handle.shutdown();
    assert!(handle.join().clean);
}

/// A kept-alive `/score` costs what its handler costs: every reply
/// goes out in one write on a `TCP_NODELAY` socket, so no reply segment
/// waits for the client's delayed ACK (about 40 ms on Linux loopback).
#[test]
fn kept_alive_exchanges_do_not_wait_for_delayed_acks() {
    let _g = serial();
    let (handle, _state) = start_server(quick_config());
    let (dataset, _, _) = fixture();
    let (_, body) = score_body(dataset, 8);
    let raw = format!(
        "POST /score HTTP/1.1\r\nhost: test\r\nconnection: keep-alive\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let mut slow = Vec::new();
    for i in 0..21 {
        let started = Instant::now();
        let response = exchange(&mut stream, raw.as_bytes());
        let ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(status_of(&response), 200, "exchange {i}: {response}");
        if ms >= 20.0 {
            slow.push(format!("#{i}: {ms:.1} ms"));
        }
    }
    assert!(slow.is_empty(), "exchanges of 20 ms or more: {slow:?}");

    handle.shutdown();
    assert!(handle.join().clean);
}

/// A fresh connection is served as soon as it arrives: the accept
/// thread blocks in `accept`, so a connection made right after the
/// previous one was taken does not wait for the loop to come round.
#[test]
fn back_to_back_fresh_connections_do_not_wait_for_the_accept_loop() {
    let _g = serial();
    let (handle, _state) = start_server(quick_config());
    let (dataset, _, _) = fixture();
    let (_, body) = score_body(dataset, 8);

    // Each exchange is timed from connect to EOF.
    let mut ms: Vec<f64> = (0..21)
        .map(|i| {
            let started = Instant::now();
            let response = request(handle.addr(), "POST", "/score", &body);
            assert_eq!(status_of(&response), 200, "exchange {i}: {response}");
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    assert!(
        ms[ms.len() / 2] < 5.0,
        "median fresh-connection exchange of 5 ms or more: {ms:.2?}"
    );

    handle.shutdown();
    assert!(handle.join().clean);
}

// ---------------------------------------------------------------------
// generation-pinned snapshots around integrate-source
// ---------------------------------------------------------------------

/// With `snapshot_path` configured, a successful integration persists
/// the new generation before the swap, and a restart-shaped load
/// recovers exactly the resident state the server is serving.
#[test]
fn integrate_persists_a_generation_pinned_snapshot() {
    let _g = serial();
    let snap_path = std::env::temp_dir()
        .join("leapme_serve_chaos_tests")
        .join("resident.snap");
    std::fs::remove_file(&snap_path).ok();
    let (handle, state) = start_server(ServeConfig {
        snapshot_path: Some(snap_path.clone()),
        ..quick_config()
    });

    let csv = "source,property,entity,value\n\
               snapshop,screen size,e1,55 inch\n\
               snapshop,resolution,e1,3840x2160\n";
    let response = request(handle.addr(), "POST", "/integrate-source", csv);
    assert_eq!(status_of(&response), 200, "integration failed: {response}");
    assert_eq!(json_u64(body_of(&response), "generation"), 1);

    let snap = leapme::serve::snapshot::load(&snap_path)
        .unwrap()
        .expect("snapshot persisted before the swap");
    assert_eq!(snap.generation, 1);
    assert!(snap.dataset.sources().iter().any(|s| s == "snapshop"));
    {
        let resident = state.single().expect("single-model mode").resident.read().unwrap();
        assert_eq!(resident.generation, snap.generation);
        assert_eq!(resident.graph.len(), snap.graph.len());
    }

    handle.shutdown();
    assert!(handle.join().clean);
    std::fs::remove_file(&snap_path).ok();
}

// ---------------------------------------------------------------------
// injected faults: the serve.* sites
// ---------------------------------------------------------------------

#[cfg(feature = "faults")]
mod faults {
    use super::*;
    use leapme::faults::{fired_count, sites, with_plan};
    use std::sync::atomic::Ordering;

    /// The full serve fault matrix: each site fires once at probability
    /// 1; the server must absorb the fault, record it, and keep serving.
    #[test]
    fn serve_fault_matrix_never_kills_the_server() {
        let _g = serial();

        // -- serve.handler: a panicking handler costs one 500 ---------
        with_plan("seed=11;serve.handler:panic@1.0#1", || {
            let (handle, state) = start_server(quick_config());
            let poisoned = request(handle.addr(), "GET", "/healthz", "");
            assert_eq!(status_of(&poisoned), 500, "panic surfaces as a 500");
            assert!(body_of(&poisoned).contains("internal"));
            assert_eq!(state.metrics.worker_panics.load(Ordering::Relaxed), 1);
            assert_eq!(fired_count(sites::SERVE_HANDLER), 1);
            // The worker survived; the very next request succeeds.
            assert_eq!(status_of(&request(handle.addr(), "GET", "/healthz", "")), 200);
            handle.shutdown();
            assert!(handle.join().clean);
        });

        // -- serve.read (io): a failing socket read costs one 400 -----
        with_plan("seed=12;serve.read:io@1.0#1", || {
            let (handle, _state) = start_server(quick_config());
            let failed = request(handle.addr(), "GET", "/healthz", "");
            assert_eq!(status_of(&failed), 400);
            assert_eq!(status_of(&request(handle.addr(), "GET", "/healthz", "")), 200);
            handle.shutdown();
            assert!(handle.join().clean);
        });

        // -- serve.read (torn): a torn read is a silent disconnect ----
        with_plan("seed=13;serve.read:torn@1.0#1", || {
            let (handle, state) = start_server(quick_config());
            let out = request(handle.addr(), "GET", "/healthz", "");
            assert!(out.is_empty(), "torn request gets no response, got {out:?}");
            assert_eq!(state.metrics.disconnects.load(Ordering::Relaxed), 1);
            assert_eq!(status_of(&request(handle.addr(), "GET", "/healthz", "")), 200);
            handle.shutdown();
            assert!(handle.join().clean);
        });

        // -- serve.write: a failing response write is counted ---------
        with_plan("seed=14;serve.write:io@1.0#1", || {
            let (handle, state) = start_server(quick_config());
            let out = request(handle.addr(), "GET", "/healthz", "");
            assert!(out.is_empty(), "failed write means no bytes reach the client");
            assert_eq!(state.metrics.write_failures.load(Ordering::Relaxed), 1);
            assert_eq!(status_of(&request(handle.addr(), "GET", "/healthz", "")), 200);
            handle.shutdown();
            assert!(handle.join().clean);
        });

        // -- serve.accept: a dropped accept loses one connection ------
        with_plan("seed=15;serve.accept:io@1.0#1", || {
            let (handle, state) = start_server(quick_config());
            let out = request(handle.addr(), "GET", "/healthz", "");
            assert!(out.is_empty(), "faulted accept drops the connection");
            assert_eq!(state.metrics.accept_faults.load(Ordering::Relaxed), 1);
            assert_eq!(status_of(&request(handle.addr(), "GET", "/healthz", "")), 200);
            handle.shutdown();
            assert!(handle.join().clean);
        });
    }

    /// Sustained handler chaos under load: every response is either a
    /// success or a typed 500, the panic count matches the fired count,
    /// and the drain is still clean.
    #[test]
    fn sustained_handler_panics_never_escape_the_pool() {
        let _g = serial();
        with_plan("seed=21;serve.handler:panic@0.5", || {
            let (handle, state) = start_server(quick_config());
            let mut survived = 0;
            let mut poisoned = 0;
            for _ in 0..20 {
                match status_of(&request(handle.addr(), "GET", "/healthz", "")) {
                    200 => survived += 1,
                    500 => poisoned += 1,
                    other => panic!("unexpected status {other}"),
                }
            }
            assert_eq!(survived + poisoned, 20, "every request gets an answer");
            assert_eq!(
                state.metrics.worker_panics.load(Ordering::Relaxed),
                fired_count(sites::SERVE_HANDLER),
                "every fired panic is one caught panic"
            );
            handle.shutdown();
            let report = handle.join();
            assert!(report.clean);
            assert_eq!(report.worker_panics, poisoned as u64);
        });
    }

    /// A `continual.snapshot` fault during `integrate-source` refuses
    /// the swap: the client gets a typed 500, the resident generation
    /// never moves, no snapshot file appears — and once the fault
    /// clears, the very same upload integrates and persists normally.
    #[test]
    fn snapshot_fault_refuses_the_swap_and_keeps_disk_and_memory_agreed() {
        let _g = serial();
        let snap_path = std::env::temp_dir()
            .join("leapme_serve_chaos_tests")
            .join("faulted.snap");
        std::fs::remove_file(&snap_path).ok();
        let (handle, state) = start_server(ServeConfig {
            snapshot_path: Some(snap_path.clone()),
            ..quick_config()
        });
        let csv = "source,property,entity,value\n\
                   faultshop,screen size,e1,55 inch\n";

        with_plan("seed=16;continual.snapshot:io@1.0#1", || {
            let refused = request(handle.addr(), "POST", "/integrate-source", csv);
            assert_eq!(status_of(&refused), 500, "swap must be refused: {refused}");
            assert!(body_of(&refused).contains("snapshot-failed"));
            assert_eq!(fired_count(sites::CONTINUAL_SNAPSHOT), 1);
        });
        assert!(!snap_path.exists(), "no partial snapshot may survive");
        {
            let resident = state.single().expect("single-model mode").resident.read().unwrap();
            assert_eq!(resident.generation, 0, "refused swap must not move memory");
            assert!(!resident.dataset.sources().iter().any(|s| s == "faultshop"));
        }

        // Fault cleared: the retry goes through and persists gen 1.
        let ok = request(handle.addr(), "POST", "/integrate-source", csv);
        assert_eq!(status_of(&ok), 200, "retry after the fault: {ok}");
        assert_eq!(json_u64(body_of(&ok), "generation"), 1);
        assert_eq!(
            leapme::serve::snapshot::load(&snap_path).unwrap().unwrap().generation,
            1
        );

        handle.shutdown();
        assert!(handle.join().clean);
        std::fs::remove_file(&snap_path).ok();
    }
}

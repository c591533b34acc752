//! Registry-mode serve suite (DESIGN.md §15): a server over a
//! `--models` directory routes by model selector, faults domains in
//! lazily, hot-swaps on `POST /reload`, and answers the typed errors
//! the contract promises — 400 `bad-model` for a malformed or missing
//! selector, 404 `unknown-model` for a well-formed but absent one.
//!
//! Like `serve_chaos`, every test drives a real in-process server over
//! real TCP sockets.

use leapme::core::feature_cache;
use leapme::core::pipeline::{Leapme, LeapmeConfig};
use leapme::core::registry::{ModelRegistry, RegistryConfig};
use leapme::core::sampling;
use leapme::nn::network::TrainConfig;
use leapme::nn::schedule::LrSchedule;
use leapme::prelude::*;
use leapme::serve::{self, ServeConfig, ServeState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Serialize the tests: each runs a real server on real sockets.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Build one domain directory: train a small model on the synthetic
/// domain, persist `model.lmp` + `dataset.json`, and either a warm
/// `features.lfc` (the zero-copy fast path) or raw `embeddings.txt`
/// (the rebuild path).
fn write_domain(root: &Path, name: &str, domain: Domain, warm_cache: bool) {
    let dir = root.join(name);
    std::fs::create_dir_all(&dir).unwrap();
    let dataset = generate(domain, 4);
    let embeddings = EmbeddingStore::new(8);
    let store = PropertyFeatureStore::build(&dataset, &embeddings);
    let sources: Vec<SourceId> = (0..dataset.sources().len() as u16).map(SourceId).collect();
    let mut rng = StdRng::seed_from_u64(17);
    let train = training_pairs(&dataset, &sources, 2, &mut rng);
    let cfg = LeapmeConfig {
        train: TrainConfig {
            schedule: LrSchedule::new(vec![(2, 1e-3)]),
            ..TrainConfig::default()
        },
        hidden: vec![4],
        ..LeapmeConfig::default()
    };
    let model = Leapme::fit(&store, &train, &cfg).unwrap();
    model.save(&dir.join("model.lmp")).unwrap();
    std::fs::write(dir.join("dataset.json"), dataset.to_json()).unwrap();
    if warm_cache {
        let fp = feature_cache::fingerprint(&dataset, &embeddings);
        feature_cache::save(&dir.join("features.lfc"), &store, &fp).unwrap();
    } else {
        embeddings.save_text(&dir.join("embeddings.txt")).unwrap();
    }
}

/// A two-domain registry root, built once and shared read-only.
fn registry_root() -> &'static PathBuf {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
    ROOT.get_or_init(|| {
        let root = std::env::temp_dir()
            .join("leapme_serve_registry_tests")
            .join(format!("root-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        write_domain(&root, "tvs", Domain::Tvs, true);
        write_domain(&root, "headphones", Domain::Headphones, false);
        root
    })
}

fn start_registry_server() -> (serve::ServerHandle, Arc<ServeState>) {
    start_server_over(registry_root())
}

fn start_server_over(root: &Path) -> (serve::ServerHandle, Arc<ServeState>) {
    let registry = ModelRegistry::open(root, RegistryConfig::default()).unwrap();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 8,
        io_timeout: Duration::from_millis(400),
        request_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let state = Arc::new(ServeState::with_registry(Arc::new(registry), None, config));
    let handle = serve::start(Arc::clone(&state)).unwrap();
    (handle, state)
}

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

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"))
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

/// A `/score` body for the first `n` cross-source pairs of `dataset`,
/// optionally carrying a `model` selector field.
fn score_body(dataset: &Dataset, n: usize, model: Option<&str>) -> String {
    let pairs: Vec<PropertyPair> =
        sampling::test_pairs(dataset, &[]).into_iter().take(n).collect();
    let quads: Vec<(u16, String, u16, String)> = pairs
        .iter()
        .map(|PropertyPair(a, b)| (a.source.0, a.name.clone(), b.source.0, b.name.clone()))
        .collect();
    match model {
        Some(m) => format!(
            "{{\"model\":{},\"pairs\":{}}}",
            serde_json::to_string(m).unwrap(),
            serde_json::to_string(&quads).unwrap()
        ),
        None => format!("{{\"pairs\":{}}}", serde_json::to_string(&quads).unwrap()),
    }
}

#[test]
fn readyz_lists_domains_and_metrics_report_registry_stats() {
    let _g = serial();
    let (handle, _state) = start_registry_server();
    let addr = handle.addr();

    let ready = request(addr, "GET", "/readyz", "");
    assert_eq!(status_of(&ready), 200);
    let body = body_of(&ready);
    assert!(body.contains("\"headphones\""), "{body}");
    assert!(body.contains("\"tvs\""), "{body}");

    let metrics = request(addr, "GET", "/metrics", "");
    assert_eq!(status_of(&metrics), 200);
    let body = body_of(&metrics);
    assert!(body.contains("\"registry\""), "{body}");
    assert!(body.contains("\"resident_bytes\""), "{body}");
    assert!(body.contains("\"evictions\""), "{body}");

    handle.shutdown();
}

#[test]
fn score_routes_by_body_field_and_header() {
    let _g = serial();
    let (handle, _state) = start_registry_server();
    let addr = handle.addr();
    let tvs = generate(Domain::Tvs, 4);

    // Selector in the body.
    let resp = request(addr, "POST", "/score", &score_body(&tvs, 4, Some("tvs")));
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(body_of(&resp).contains("\"scores\""));

    // Selector in the header.
    let resp = request_with_headers(
        addr,
        "POST",
        "/score",
        "x-leapme-model: tvs\r\n",
        &score_body(&tvs, 4, None),
    );
    assert_eq!(status_of(&resp), 200, "{resp}");

    // The body field wins over the header: tvs pairs are unknown in the
    // headphones domain, so routing by the header here would 400 with
    // unknown-property — the body selector keeps it 200.
    let resp = request_with_headers(
        addr,
        "POST",
        "/score",
        "x-leapme-model: headphones\r\n",
        &score_body(&tvs, 4, Some("tvs")),
    );
    assert_eq!(status_of(&resp), 200, "{resp}");

    handle.shutdown();
}

#[test]
fn typed_errors_bad_model_and_unknown_model() {
    let _g = serial();
    let (handle, _state) = start_registry_server();
    let addr = handle.addr();
    let tvs = generate(Domain::Tvs, 4);

    // No selector at all.
    let resp = request(addr, "POST", "/score", &score_body(&tvs, 2, None));
    assert_eq!(status_of(&resp), 400, "{resp}");
    assert!(body_of(&resp).contains("bad-model"), "{resp}");

    // Malformed selector (shape violation, not an absent name).
    let resp = request(addr, "POST", "/score", &score_body(&tvs, 2, Some("no spaces!")));
    assert_eq!(status_of(&resp), 400, "{resp}");
    assert!(body_of(&resp).contains("bad-model"), "{resp}");

    // Well-formed but absent.
    let resp = request(addr, "POST", "/score", &score_body(&tvs, 2, Some("fridges")));
    assert_eq!(status_of(&resp), 404, "{resp}");
    assert!(body_of(&resp).contains("unknown-model"), "{resp}");

    // match has the same contract via the header.
    let resp = request_with_headers(addr, "POST", "/match", "x-leapme-model: fridges\r\n", "");
    assert_eq!(status_of(&resp), 404, "{resp}");
    assert!(body_of(&resp).contains("unknown-model"), "{resp}");

    handle.shutdown();
}

#[test]
fn match_scores_one_domain_and_integrate_is_refused() {
    let _g = serial();
    let (handle, _state) = start_registry_server();
    let addr = handle.addr();

    let resp = request_with_headers(addr, "POST", "/match", "x-leapme-model: tvs\r\n", "");
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(body_of(&resp).contains("\"edges\"") || body_of(&resp).contains("\"pairs\""));

    // integrate-source mutates single-model resident state; in
    // registry mode it is a typed client error, not a 500.
    let resp = request(
        addr,
        "POST",
        "/integrate-source",
        "source,property,entity,value\nx,width,e0,10 cm\n",
    );
    assert_eq!(status_of(&resp), 400, "{resp}");
    assert!(body_of(&resp).contains("registry-mode"), "{resp}");

    handle.shutdown();
}

#[test]
fn reload_hot_swaps_one_domain() {
    let _g = serial();
    let (handle, state) = start_registry_server();
    let addr = handle.addr();
    let tvs = generate(Domain::Tvs, 4);

    // Fault the domain in, pin its generation.
    let resp = request(addr, "POST", "/score", &score_body(&tvs, 2, Some("tvs")));
    assert_eq!(status_of(&resp), 200, "{resp}");
    let gen_before = state.registry().unwrap().get("tvs").unwrap().generation;

    // Reload via body selector: generation bumps, artifacts re-open.
    let resp = request(addr, "POST", "/reload", "{\"model\":\"tvs\"}");
    assert_eq!(status_of(&resp), 200, "{resp}");
    let body = body_of(&resp);
    assert!(body.contains("\"generation\""), "{body}");
    assert!(body.contains("\"open_path\""), "{body}");
    let gen_after = state.registry().unwrap().get("tvs").unwrap().generation;
    assert_eq!(gen_after, gen_before + 1);

    // Scoring still works against the swapped-in generation.
    let resp = request(addr, "POST", "/score", &score_body(&tvs, 2, Some("tvs")));
    assert_eq!(status_of(&resp), 200, "{resp}");

    // Reload of an unknown domain is the typed 404.
    let resp = request(addr, "POST", "/reload", "{\"model\":\"fridges\"}");
    assert_eq!(status_of(&resp), 404, "{resp}");
    assert!(body_of(&resp).contains("unknown-model"), "{resp}");

    // Reload without a selector is the typed 400.
    let resp = request(addr, "POST", "/reload", "");
    assert_eq!(status_of(&resp), 400, "{resp}");
    assert!(body_of(&resp).contains("bad-model"), "{resp}");

    handle.shutdown();
}

/// Change one byte of the first instance's entity id: the file keeps
/// its length, and the dataset gets a new fingerprint.
fn same_length_edit(json: &str) -> String {
    let key = "\"entity\": \"";
    let at = json.find(key).expect("an instance entity") + key.len();
    let mut bytes = json.as_bytes().to_vec();
    bytes[at] ^= 1;
    String::from_utf8(bytes).unwrap()
}

#[test]
fn match_over_an_edited_dataset_is_a_typed_500_until_restored() {
    let _g = serial();
    let root = std::env::temp_dir()
        .join("leapme_serve_registry_tests")
        .join(format!("stale-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    write_domain(&root, "tvs", Domain::Tvs, true);
    let (handle, state) = start_server_over(&root);
    let addr = handle.addr();
    let tvs = generate(Domain::Tvs, 4);

    let scored = request(addr, "POST", "/score", &score_body(&tvs, 4, Some("tvs")));
    assert_eq!(status_of(&scored), 200, "{scored}");
    let path = root.join("tvs/dataset.json");
    let original = std::fs::read_to_string(&path).unwrap();
    let edited = same_length_edit(&original);
    assert_eq!(edited.len(), original.len());
    std::fs::write(&path, &edited).unwrap();

    // /match parses the file on demand and finds it no longer matches
    // the feature store the domain was verified against.
    let resp = request_with_headers(addr, "POST", "/match", "x-leapme-model: tvs\r\n", "");
    assert_eq!(status_of(&resp), 500, "{resp}");
    let body = body_of(&resp);
    assert!(body.contains("model-load-failed"), "{body}");
    assert!(body.contains("fingerprint"), "{body}");

    // A reload is refused the same way; the resident generation keeps
    // answering /score byte for byte.
    let resp = request(addr, "POST", "/reload", "{\"model\":\"tvs\"}");
    assert_eq!(status_of(&resp), 500, "{resp}");
    assert!(body_of(&resp).contains("reload-failed") && body_of(&resp).contains("fingerprint"));
    let again = request(addr, "POST", "/score", &score_body(&tvs, 4, Some("tvs")));
    assert_eq!(body_of(&again), body_of(&scored));
    assert_eq!(state.registry().unwrap().get("tvs").unwrap().generation, 0);

    // Evicted, the domain faults back in from its cache without reading
    // the edited file: /score answers the verified data byte for byte,
    // while /match and /reload, which read the file, still refuse.
    state.registry().unwrap().evict("tvs").unwrap();
    let refaulted = request(addr, "POST", "/score", &score_body(&tvs, 4, Some("tvs")));
    assert_eq!(body_of(&refaulted), body_of(&scored));
    let resp = request_with_headers(addr, "POST", "/match", "x-leapme-model: tvs\r\n", "");
    assert_eq!(status_of(&resp), 500, "{resp}");
    assert!(body_of(&resp).contains("fingerprint"), "{resp}");
    let resp = request(addr, "POST", "/reload", "{\"model\":\"tvs\"}");
    assert_eq!(status_of(&resp), 500, "{resp}");
    assert!(body_of(&resp).contains("reload-failed") && body_of(&resp).contains("fingerprint"));

    std::fs::write(&path, &original).unwrap();
    let resp = request_with_headers(addr, "POST", "/match", "x-leapme-model: tvs\r\n", "");
    assert_eq!(status_of(&resp), 200, "{resp}");

    handle.shutdown();
    assert!(handle.join().clean);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn single_mode_rejects_selectors_and_reload() {
    let _g = serial();
    // A plain single-model server: selectors are contract violations.
    let dataset = generate(Domain::Tvs, 4);
    let embeddings = EmbeddingStore::new(8);
    let store = PropertyFeatureStore::build(&dataset, &embeddings);
    let sources: Vec<SourceId> = (0..dataset.sources().len() as u16).map(SourceId).collect();
    let mut rng = StdRng::seed_from_u64(17);
    let train = training_pairs(&dataset, &sources, 2, &mut rng);
    let cfg = LeapmeConfig {
        train: TrainConfig {
            schedule: LrSchedule::new(vec![(2, 1e-3)]),
            ..TrainConfig::default()
        },
        hidden: vec![4],
        ..LeapmeConfig::default()
    };
    let model = Leapme::fit(&store, &train, &cfg).unwrap();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 8,
        io_timeout: Duration::from_millis(400),
        request_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let state = Arc::new(ServeState::new(
        model,
        embeddings,
        dataset.clone(),
        store,
        None,
        config,
    ));
    let handle = serve::start(Arc::clone(&state)).unwrap();
    let addr = handle.addr();

    let resp = request(addr, "POST", "/score", &score_body(&dataset, 2, Some("tvs")));
    assert_eq!(status_of(&resp), 400, "{resp}");
    assert!(body_of(&resp).contains("bad-model"), "{resp}");

    let resp = request_with_headers(addr, "POST", "/match", "x-leapme-model: tvs\r\n", "");
    assert_eq!(status_of(&resp), 400, "{resp}");
    assert!(body_of(&resp).contains("bad-model"), "{resp}");

    let resp = request(addr, "POST", "/reload", "{\"model\":\"tvs\"}");
    assert_eq!(status_of(&resp), 400, "{resp}");
    assert!(body_of(&resp).contains("registry-mode"), "{resp}");

    handle.shutdown();
}

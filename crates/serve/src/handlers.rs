//! Request handlers: routing, strict JSON/CSV parsing with typed 400s,
//! deadline-aware scoring with partial results, and the
//! `integrate-source` mutation.
//!
//! Every scoring endpoint goes through the same streaming scorer as the
//! batch CLI ([`LeapmeModel::score`]), chunked so a deadline expiry
//! mid-score keeps the chunks already finished: the fail-soft contract
//! of DESIGN.md §8 — serve what you have, say it's degraded.

use crate::http::{Request, Response};
use crate::state::{Engine, FlightRole, ServeState, SingleEngine};
use leapme_core::cancel::CancelToken;
use leapme_core::incremental::integrate_source;
use leapme_core::pipeline::{LeapmeModel, ScoreOptions};
use leapme_core::registry::{Domain, ModelRegistry, RegistryError};
use leapme_core::sampling;
use leapme_core::simgraph::SimilarityGraph;
use leapme_core::CoreError;
use leapme_data::io::read_instances_lenient;
use leapme_data::model::{Dataset, PropertyKey, PropertyPair, SourceId};
use leapme_features::vectorizer::PropertyFeatureStore;
use leapme_nn::checkpoint::crc64;
use serde::{Deserialize, Serialize};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Pairs per scoring chunk. Small enough that a deadline is honored
/// promptly, large enough to amortize the streaming-score setup.
const SCORE_CHUNK: usize = 2048;

/// Fault hook for `serve.handler` (`kind: panic`): proves the worker
/// pool's panic isolation under the chaos suite.
#[cfg(feature = "faults")]
fn injected_handler_panic() {
    leapme_faults::maybe_panic(leapme_faults::sites::SERVE_HANDLER);
}

#[cfg(not(feature = "faults"))]
fn injected_handler_panic() {}

/// Parse the per-request deadline: the `x-leapme-deadline-ms` header
/// overrides the configured default, clamped to the configured maximum.
pub fn request_deadline(state: &ServeState, req: &Request) -> Result<Duration, Response> {
    match req.header("x-leapme-deadline-ms") {
        None => Ok(state.config.request_timeout),
        Some(v) => {
            let ms: u64 = v.parse().map_err(|_| {
                Response::error(
                    400,
                    "bad-deadline",
                    &format!("x-leapme-deadline-ms must be a non-negative integer, got {v:?}"),
                )
            })?;
            Ok(Duration::from_millis(ms).min(state.config.max_deadline))
        }
    }
}

/// Route one parsed request. Called inside the worker's
/// `catch_unwind`, so a panic here (injected or real) is isolated.
pub fn handle(state: &ServeState, req: &Request, token: &CancelToken) -> Response {
    injected_handler_panic();
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}".to_string()),
        ("GET", "/readyz") => readyz(state),
        ("GET", "/metrics") => metrics(state),
        ("POST", "/score") => score(state, req, token),
        ("POST", "/match") => match_all(state, req, token),
        ("POST", "/integrate-source") => integrate(state, req, token),
        ("POST", "/reload") => reload(state, req),
        (_, "/healthz" | "/readyz" | "/metrics") => {
            Response::error(405, "method-not-allowed", "use GET")
        }
        (_, "/score" | "/match" | "/integrate-source" | "/reload") => {
            Response::error(405, "method-not-allowed", "use POST")
        }
        (_, path) => Response::error(404, "not-found", &format!("no route for {path}")),
    }
}

/// `GET /metrics`: the server counters, plus a `registry` object with
/// per-domain stats (resident flag, generation, bytes mapped, open_ms,
/// hit/miss counts, evictions) when running in registry mode.
fn metrics(state: &ServeState) -> Response {
    let mut body = state.metrics.to_json(state.draining.load(Ordering::SeqCst));
    if let Some(registry) = state.registry() {
        let stats =
            serde_json::to_string(&registry.stats()).expect("registry stats serialize");
        // Splice the registry object into the flat counter body.
        body.pop();
        body.push_str(",\"registry\":");
        body.push_str(&stats);
        body.push('}');
    }
    Response::json(200, body)
}

/// Validate a model selector's shape: 1–64 chars of `[A-Za-z0-9._-]`.
/// Anything else is a typed 400 `bad-model` — distinct from the 404
/// `unknown-model` a well-formed but absent name earns.
fn validate_selector(name: &str) -> Result<(), Response> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-');
    if !ok {
        return Err(Response::error(
            400,
            "bad-model",
            &format!("model selector {name:?} must be 1-64 characters of [A-Za-z0-9._-]"),
        ));
    }
    Ok(())
}

/// Resolve the request's domain in registry mode. The selector comes
/// from the JSON `model` body field or the `x-leapme-model` header
/// (the body field wins); a missing selector is a 400 `bad-model`, an
/// unknown one a 404 `unknown-model`.
fn resolve_domain(
    registry: &Arc<ModelRegistry>,
    body_model: Option<&str>,
    req: &Request,
) -> Result<Arc<Domain>, Response> {
    let Some(name) = body_model.or_else(|| req.header("x-leapme-model")) else {
        return Err(Response::error(
            400,
            "bad-model",
            "registry mode requires a model selector: body field \"model\" or x-leapme-model header",
        ));
    };
    validate_selector(name)?;
    match registry.get(name) {
        Ok(domain) => Ok(domain),
        Err(RegistryError::UnknownModel(n)) => Err(Response::error(
            404,
            "unknown-model",
            &format!("no domain {n:?} in the registry"),
        )),
        Err(e) => Err(load_failed(&e)),
    }
}

/// The typed 500 for a domain whose artifacts cannot be loaded, or no
/// longer agree with each other.
fn load_failed(e: &RegistryError) -> Response {
    Response::error(500, "model-load-failed", &e.to_string())
}

/// In single-model mode a model selector is a contract violation, not
/// something to silently ignore — typed 400 `bad-model`.
fn reject_selector_in_single_mode(
    body_model: Option<&str>,
    req: &Request,
) -> Result<(), Response> {
    if body_model.is_some() || req.header("x-leapme-model").is_some() {
        return Err(Response::error(
            400,
            "bad-model",
            "this server runs a single model; remove the model selector",
        ));
    }
    Ok(())
}

/// `GET /readyz`: 200 while serving, 503 once drain has begun — the
/// signal a load balancer needs to stop routing here before shutdown.
fn readyz(state: &ServeState) -> Response {
    if state.draining.load(Ordering::SeqCst) {
        return Response::error(503, "draining", "server is draining; not accepting new work");
    }
    match &state.engine {
        Engine::Single(engine) => {
            let resident = engine.resident.read().unwrap_or_else(|e| e.into_inner());
            let body = serde_json::to_string(&ReadyBody {
                status: "ready".to_string(),
                properties: resident.store.len(),
                sources: resident.dataset.sources().len(),
                graph_edges: resident.graph.len(),
                generation: resident.generation,
                input_dim: engine.model.input_dim(),
                threshold: engine.model.threshold(),
            })
            .expect("ready body serializes");
            Response::json(200, body)
        }
        Engine::Registry(registry) => {
            let stats = registry.stats();
            let body = serde_json::to_string(&RegistryReadyBody {
                status: "ready".to_string(),
                domains: registry.domains(),
                resident: stats.domains.iter().filter(|d| d.resident).count(),
                resident_bytes: stats.resident_bytes,
                budget_bytes: stats.budget_bytes,
                evictions: stats.evictions,
            })
            .expect("ready body serializes");
            Response::json(200, body)
        }
    }
}

/// `GET /readyz` body.
#[derive(Serialize)]
struct ReadyBody {
    status: String,
    properties: usize,
    sources: usize,
    graph_edges: usize,
    generation: u64,
    input_dim: usize,
    threshold: f32,
}

/// `GET /readyz` body in registry mode.
#[derive(Serialize)]
struct RegistryReadyBody {
    status: String,
    domains: Vec<String>,
    resident: usize,
    resident_bytes: u64,
    budget_bytes: Option<u64>,
    evictions: u64,
}

/// `POST /score` body.
#[derive(Deserialize)]
struct ScoreRequest {
    /// `[source_id, property, source_id, property]` quadruples.
    pairs: Vec<(u16, String, u16, String)>,
    /// Registry-mode domain selector (alternative to the
    /// `x-leapme-model` header).
    #[serde(default)]
    model: Option<String>,
}

/// `POST /score` response.
#[derive(Serialize)]
struct ScoreResponse {
    scores: Vec<f32>,
    requested: usize,
    scored: usize,
    degraded: bool,
    threshold: f32,
}

/// Score an explicit pair list through the streaming score path,
/// honoring the deadline between chunks: expiry returns the chunks
/// already scored with `degraded: true` instead of discarding them.
fn score(state: &ServeState, req: &Request, token: &CancelToken) -> Response {
    let parsed: ScoreRequest = match parse_json_body(&req.body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    match &state.engine {
        Engine::Single(engine) => {
            if let Err(resp) = reject_selector_in_single_mode(parsed.model.as_deref(), req) {
                return resp;
            }
            let resident = engine.resident.read().unwrap_or_else(|e| e.into_inner());
            score_against(
                &engine.model,
                resident.dataset.sources().len(),
                &resident.store,
                &parsed.pairs,
                token,
            )
        }
        Engine::Registry(registry) => {
            let domain = match resolve_domain(registry, parsed.model.as_deref(), req) {
                Ok(d) => d,
                Err(resp) => return resp,
            };
            score_against(
                &domain.model,
                domain.sources,
                &domain.store,
                &parsed.pairs,
                token,
            )
        }
    }
}

/// The engine-independent half of `POST /score`: validate the pair
/// list against a dataset of `n_sources` sources and its store, score
/// it chunked, and render the response.
fn score_against(
    model: &LeapmeModel,
    n_sources: usize,
    store: &PropertyFeatureStore,
    raw_pairs: &[(u16, String, u16, String)],
    token: &CancelToken,
) -> Response {
    let mut pairs = Vec::with_capacity(raw_pairs.len());
    for (i, (sa, pa, sb, pb)) in raw_pairs.iter().enumerate() {
        for sid in [*sa, *sb] {
            if usize::from(sid) >= n_sources {
                return Response::error(
                    400,
                    "unknown-source",
                    &format!("pair {i}: source id {sid} out of range ({n_sources} sources)"),
                );
            }
        }
        let a = PropertyKey::new(SourceId(*sa), pa.clone());
        let b = PropertyKey::new(SourceId(*sb), pb.clone());
        for key in [&a, &b] {
            if store.property_vector(key).is_none() {
                return Response::error(
                    400,
                    "unknown-property",
                    &format!("pair {i}: property {:?} of source {} is not resident", key.name, key.source.0),
                );
            }
        }
        pairs.push(PropertyPair::new(a, b));
    }

    let check = token.checker();
    let (scores, degraded) = match score_chunked(model, store, &pairs, &check) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let scored = scores.len();
    let body = serde_json::to_string(&ScoreResponse {
        scores,
        requested: pairs.len(),
        scored,
        degraded,
        threshold: model.threshold(),
    })
    .expect("score response serializes");
    let mut resp = Response::json(200, body);
    resp.degraded = degraded;
    resp
}

/// Chunked scoring shared by `score` and `match`: returns the scores
/// accumulated so far plus whether the deadline cut the run short.
fn score_chunked(
    model: &LeapmeModel,
    store: &PropertyFeatureStore,
    pairs: &[PropertyPair],
    check: &(impl Fn() -> bool + Sync),
) -> Result<(Vec<f32>, bool), Response> {
    let opts = ScoreOptions {
        cancel: Some(check),
        threads: 1,
    };
    let mut scores = Vec::with_capacity(pairs.len());
    let mut degraded = false;
    for chunk in pairs.chunks(SCORE_CHUNK) {
        if check() {
            degraded = true;
            break;
        }
        match model.score(store, chunk, &opts) {
            Ok(s) => scores.extend(s),
            Err(CoreError::Cancelled) => {
                degraded = true;
                break;
            }
            Err(e) => {
                return Err(Response::error(500, "score-failed", &e.to_string()));
            }
        }
    }
    Ok((scores, degraded))
}

/// `POST /match`: score every cross-source pair of the dataset into a
/// similarity graph (in registry mode the leader parses the domain's
/// dataset from disk) — the warm equivalent of the batch
/// `match --model` path, byte-identical on an undegraded run because it
/// streams the same pairs through the same scorer and serializes with
/// the same pretty printer.
///
/// Identical concurrent requests coalesce: one leader computes per
/// resident generation, followers share its response body.
fn match_all(state: &ServeState, req: &Request, token: &CancelToken) -> Response {
    match &state.engine {
        Engine::Single(engine) => {
            if let Err(resp) = reject_selector_in_single_mode(None, req) {
                return resp;
            }
            match_single(state, engine, token)
        }
        Engine::Registry(registry) => {
            // Resolve (and fault in) the domain before joining the
            // flight: the flight key pins the domain *and* generation,
            // so a `/reload` hot-swap mid-computation never shares a
            // stale graph with post-swap requests.
            let domain = match resolve_domain(registry, None, req) {
                Ok(d) => d,
                Err(resp) => return resp,
            };
            let key =
                crc64(format!("{}@{}", domain.name, domain.generation).as_bytes());
            match_domain(state, &domain, key, token)
        }
    }
}

/// Single-model `POST /match`: keyed by the resident generation, which
/// `integrate-source` bumps on every swap.
fn match_single(state: &ServeState, engine: &SingleEngine, token: &CancelToken) -> Response {
    loop {
        let generation = {
            let resident = engine.resident.read().unwrap_or_else(|e| e.into_inner());
            resident.generation
        };
        let wait = token.remaining().unwrap_or(state.config.request_timeout);
        match state.singleflight.join_or_lead(generation, wait) {
            FlightRole::Follower(body) => {
                state.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
                return Response::json(200, (*body).clone());
            }
            FlightRole::TimedOut => {
                state.metrics.deadline_rejects.fetch_add(1, Ordering::Relaxed);
                return Response::error(
                    503,
                    "deadline-expired",
                    "deadline expired while waiting for the in-flight match computation",
                );
            }
            FlightRole::Retry => continue,
            FlightRole::Leader => {
                let resident = engine.resident.read().unwrap_or_else(|e| e.into_inner());
                return match_lead(
                    state,
                    generation,
                    &engine.model,
                    &resident.dataset,
                    &resident.store,
                    token,
                );
            }
        }
    }
}

/// Registry-mode `POST /match` against one pinned domain.
fn match_domain(
    state: &ServeState,
    domain: &Domain,
    key: u64,
    token: &CancelToken,
) -> Response {
    loop {
        let wait = token.remaining().unwrap_or(state.config.request_timeout);
        match state.singleflight.join_or_lead(key, wait) {
            FlightRole::Follower(body) => {
                state.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
                return Response::json(200, (*body).clone());
            }
            FlightRole::TimedOut => {
                state.metrics.deadline_rejects.fetch_add(1, Ordering::Relaxed);
                return Response::error(
                    503,
                    "deadline-expired",
                    "deadline expired while waiting for the in-flight match computation",
                );
            }
            FlightRole::Retry => continue,
            FlightRole::Leader => {
                // Parsed on demand, and refused when the file no longer
                // matches the store the domain was verified against.
                let dataset = match domain.dataset() {
                    Ok(d) => d,
                    Err(e) => {
                        state.singleflight.abandon(key);
                        return load_failed(&e);
                    }
                };
                return match_lead(state, key, &domain.model, &dataset, &domain.store, token);
            }
        }
    }
}

/// The leader's half of a coalesced match: score every cross-source
/// pair into a graph and publish (or, degraded, keep) the body.
fn match_lead(
    state: &ServeState,
    flight_key: u64,
    model: &LeapmeModel,
    dataset: &Dataset,
    store: &PropertyFeatureStore,
    token: &CancelToken,
) -> Response {
    let candidates = sampling::test_pairs(dataset, &[]);
    let check = token.checker();
    let (scores, degraded) = match score_chunked(model, store, &candidates, &check) {
        Ok(v) => v,
        Err(resp) => {
            state.singleflight.abandon(flight_key);
            return resp;
        }
    };
    let mut graph = SimilarityGraph::new();
    for (pair, score) in candidates.iter().zip(scores.iter()) {
        graph.add(pair.clone(), *score);
    }
    let body = serde_json::to_string_pretty(&graph).expect("similarity graph serializes");
    if degraded {
        // A partial graph is this request's to keep — never shared
        // through the single-flight table.
        state.singleflight.abandon(flight_key);
        let mut resp = Response::json(200, body);
        resp.degraded = true;
        return resp;
    }
    let shared = Arc::new(body);
    state.singleflight.complete(flight_key, Arc::clone(&shared));
    Response::json(200, (*shared).clone())
}

/// `POST /reload` body.
#[derive(Deserialize)]
struct ReloadRequest {
    /// Domain to hot-swap (alternative to the `x-leapme-model` header).
    #[serde(default)]
    model: Option<String>,
}

/// `POST /reload` response.
#[derive(Serialize)]
struct ReloadResponse {
    model: String,
    generation: u64,
    open_path: String,
    open_ms: u64,
    bytes: u64,
}

/// `POST /reload`: re-open one domain's artifacts from disk and swap
/// them in atomically with a bumped generation — the registry-mode
/// hot-swap. In-flight requests finish against the old mapping.
fn reload(state: &ServeState, req: &Request) -> Response {
    let Some(registry) = state.registry() else {
        return Response::error(
            400,
            "registry-mode",
            "POST /reload requires registry mode (serve --models)",
        );
    };
    let parsed: ReloadRequest = if req.body.is_empty() {
        ReloadRequest { model: None }
    } else {
        match parse_json_body(&req.body) {
            Ok(p) => p,
            Err(resp) => return resp,
        }
    };
    let Some(name) = parsed
        .model
        .as_deref()
        .or_else(|| req.header("x-leapme-model"))
    else {
        return Response::error(
            400,
            "bad-model",
            "reload requires a model selector: body field \"model\" or x-leapme-model header",
        );
    };
    if let Err(resp) = validate_selector(name) {
        return resp;
    }
    match registry.reload(name) {
        Ok(domain) => {
            state.metrics.reloads.fetch_add(1, Ordering::Relaxed);
            state.journal_event(&ReloadEvent {
                event: "reload",
                model: domain.name.clone(),
                generation: domain.generation,
            });
            let body = serde_json::to_string(&ReloadResponse {
                model: domain.name.clone(),
                generation: domain.generation,
                open_path: domain.model_open_path.label().to_string(),
                open_ms: domain.open_ms,
                bytes: domain.bytes,
            })
            .expect("reload response serializes");
            Response::json(200, body)
        }
        Err(RegistryError::UnknownModel(n)) => Response::error(
            404,
            "unknown-model",
            &format!("no domain {n:?} in the registry"),
        ),
        Err(e) => Response::error(500, "reload-failed", &e.to_string()),
    }
}

/// Journal record for a completed reload.
#[derive(Serialize)]
struct ReloadEvent {
    event: &'static str,
    model: String,
    generation: u64,
}

/// `POST /integrate-source` response.
#[derive(Serialize)]
struct IntegrateResponse {
    sources: Vec<String>,
    scored_pairs: usize,
    attached: usize,
    novel: usize,
    imported_rows: usize,
    skipped_rows: usize,
    generation: u64,
}

/// Journal record for a completed integration.
#[derive(Serialize)]
struct IntegrateEvent {
    event: &'static str,
    sources: Vec<String>,
    scored_pairs: usize,
    attached: usize,
    novel: usize,
    generation: u64,
}

/// `POST /integrate-source`: body is `source,property,entity,value` CSV
/// (with header) for one or more *new* sources. All-or-nothing: the
/// merged dataset, rebuilt feature store, and updated graph are
/// prepared off to the side and swapped in atomically; a deadline
/// expiry mid-way changes nothing.
fn integrate(state: &ServeState, req: &Request, token: &CancelToken) -> Response {
    let Engine::Single(engine) = &state.engine else {
        return Response::error(
            400,
            "registry-mode",
            "integrate-source mutates the single-model resident state; not available with --models",
        );
    };
    let csv = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Response::error(400, "bad-encoding", "body must be UTF-8 CSV"),
    };

    // Snapshot the resident state under the read lock; the expensive
    // rebuild below runs without holding any lock.
    let (name, mut sources, old_instances, alignment, mut graph, old_generation) = {
        let resident = engine.resident.read().unwrap_or_else(|e| e.into_inner());
        (
            resident.dataset.name().to_string(),
            resident.dataset.sources().to_vec(),
            resident.dataset.instances().to_vec(),
            resident.dataset.alignment().clone(),
            resident.graph.clone(),
            resident.generation,
        )
    };
    let n_old = sources.len();

    let (new_instances, report) =
        match read_instances_lenient(std::io::Cursor::new(csv.as_bytes()), &mut sources) {
            Ok(v) => v,
            Err(e) => return Response::error(400, "malformed-csv", &e.to_string()),
        };
    if new_instances.is_empty() {
        return Response::error(
            400,
            "empty-upload",
            &format!("no importable rows ({})", report.summary()),
        );
    }
    if new_instances.iter().any(|i| usize::from(i.source.0) < n_old) {
        return Response::error(
            400,
            "existing-source",
            "uploaded rows reference already-resident sources; only new sources can be integrated",
        );
    }
    let new_ids: Vec<SourceId> = (n_old..sources.len()).map(|i| SourceId(i as u16)).collect();

    let mut instances = old_instances;
    instances.extend(new_instances);
    let merged = match Dataset::new(name, sources, instances, alignment) {
        Ok(d) => d,
        Err(e) => return Response::error(400, "inconsistent-dataset", &e.to_string()),
    };

    let check = token.checker();
    let store = match PropertyFeatureStore::try_build_cancellable(
        &merged,
        &engine.embeddings,
        leapme_features::worker_threads(),
        Some(&check),
    ) {
        Ok(s) => s,
        Err(leapme_features::vectorizer::FeatureError::Cancelled) => {
            state.metrics.deadline_rejects.fetch_add(1, Ordering::Relaxed);
            return Response::error(
                503,
                "deadline-expired",
                "deadline expired while featurizing the upload; no change was applied",
            );
        }
        Err(e) => return Response::error(500, "featurize-failed", &e.to_string()),
    };

    let mut total = (0usize, 0usize, 0usize); // scored, attached, novel
    for sid in &new_ids {
        match integrate_source(&engine.model, &store, &merged, &mut graph, *sid) {
            Ok(outcome) => {
                total.0 += outcome.scored_pairs;
                total.1 += outcome.attached.len();
                total.2 += outcome.novel.len();
            }
            Err(CoreError::Cancelled) => {
                state.metrics.deadline_rejects.fetch_add(1, Ordering::Relaxed);
                return Response::error(
                    503,
                    "deadline-expired",
                    "deadline expired while integrating; no change was applied",
                );
            }
            Err(CoreError::EmptySource(id)) => {
                // The caller's mistake, not a server fault: a source
                // that contributes zero properties after parsing.
                return Response::error(
                    400,
                    "empty-source",
                    &format!("uploaded source {id} contributes no properties"),
                );
            }
            Err(e) => return Response::error(500, "integrate-failed", &e.to_string()),
        }
    }

    let new_names: Vec<String> = {
        let s = merged.sources();
        new_ids.iter().map(|id| s[usize::from(id.0)].clone()).collect()
    };

    // Swap-in under the write lock. A concurrent integration that won
    // the race invalidates this one (same optimistic-concurrency rule a
    // compare-and-swap would give): retrying is the client's call.
    // While holding the lock, the new generation is persisted to the
    // snapshot file *before* the in-memory swap: the atomic container
    // write means a SIGKILL at any instant leaves either the old or the
    // new generation on disk — never a torn hybrid — and a snapshot
    // failure (injected via `continual.snapshot` or real) refuses the
    // swap so disk and memory never disagree.
    {
        let mut resident = engine.resident.write().unwrap_or_else(|e| e.into_inner());
        if resident.generation != old_generation {
            return Response::error(
                503,
                "conflict",
                "another integration landed first; re-read state and retry",
            );
        }
        if let Some(path) = &state.config.snapshot_path {
            let snap = crate::snapshot::ResidentSnapshot {
                dataset: merged.clone(),
                graph: graph.clone(),
                generation: old_generation + 1,
            };
            if let Err(e) = crate::snapshot::save(path, &snap) {
                state.metrics.write_failures.fetch_add(1, Ordering::Relaxed);
                return Response::error(
                    500,
                    "snapshot-failed",
                    &format!("could not persist the resident snapshot; no change was applied: {e}"),
                );
            }
        }
        resident.dataset = merged;
        resident.store = store;
        resident.graph = graph;
        resident.generation += 1;
    }
    state.metrics.integrations.fetch_add(1, Ordering::Relaxed);
    state.journal_event(&IntegrateEvent {
        event: "integrate",
        sources: new_names.clone(),
        scored_pairs: total.0,
        attached: total.1,
        novel: total.2,
        generation: old_generation + 1,
    });

    let body = serde_json::to_string(&IntegrateResponse {
        sources: new_names,
        scored_pairs: total.0,
        attached: total.1,
        novel: total.2,
        imported_rows: report.imported,
        skipped_rows: report.skipped,
        generation: old_generation + 1,
    })
    .expect("integrate response serializes");
    Response::json(200, body)
}

/// Strict JSON body parsing with a typed 400 on failure.
fn parse_json_body<T: Deserialize>(body: &[u8]) -> Result<T, Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Response::error(400, "bad-encoding", "body must be UTF-8 JSON"))?;
    serde_json::from_str(text)
        .map_err(|e| Response::error(400, "malformed-json", &e.to_string()))
}

//! Resident state shared by every worker: the warm model + feature
//! store, the mutable similarity graph, counters, and the single-flight
//! coalescer for identical `match` requests.

use crate::http::HttpLimits;
use leapme_core::journal::RunJournal;
use leapme_core::pipeline::LeapmeModel;
use leapme_core::registry::ModelRegistry;
use leapme_core::retry::RetryPolicy;
use leapme_core::simgraph::SimilarityGraph;
use leapme_data::model::Dataset;
use leapme_embedding::store::EmbeddingStore;
use leapme_features::vectorizer::PropertyFeatureStore;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Admission-queue capacity; connections beyond it are shed with
    /// `503` + `Retry-After`.
    pub queue_depth: usize,
    /// Socket read/write timeout — the slow-loris bound.
    pub io_timeout: Duration,
    /// Default per-request deadline when the client sends no
    /// `x-leapme-deadline-ms` header.
    pub request_timeout: Duration,
    /// Upper bound any client header can raise the deadline to.
    pub max_deadline: Duration,
    /// `Retry-After` seconds advertised on shed responses.
    pub retry_after_secs: u32,
    /// Read-side parsing limits.
    pub limits: HttpLimits,
    /// Retry budget for journal appends.
    pub retry: RetryPolicy,
    /// Where `integrate-source` persists the resident snapshot before
    /// every swap (and where startup recovery reads it from). `None`
    /// disables snapshotting.
    pub snapshot_path: Option<std::path::PathBuf>,
    /// Maximum requests served over one kept-alive connection before
    /// the server closes it (bounds how long one client can pin a
    /// worker). Keep-alive is honored only when the client asks for it
    /// with an explicit `Connection: keep-alive` header.
    pub keep_alive_max_requests: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            io_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(5),
            max_deadline: Duration::from_secs(60),
            retry_after_secs: 1,
            limits: HttpLimits::default(),
            retry: RetryPolicy::default(),
            snapshot_path: None,
            keep_alive_max_requests: 32,
        }
    }
}

/// Monotonic counters and one gauge (`queued`), exported by
/// `GET /metrics` and aggregated into the drain report. All relaxed:
/// they are statistics, not locks.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests read in full, with a valid deadline, and handed to a
    /// handler — one per request, so a kept-alive connection counts
    /// each of its requests.
    pub admitted: AtomicU64,
    /// Requests answered with any status.
    pub completed: AtomicU64,
    /// Connections shed with `503` because the queue was full.
    pub shed: AtomicU64,
    /// `200`s that carried partial results after a deadline expiry.
    pub degraded: AtomicU64,
    /// Requests rejected outright because their deadline expired before
    /// any result was produced.
    pub deadline_rejects: AtomicU64,
    /// Client-side errors answered (`400/404/405/408/413`).
    pub client_errors: AtomicU64,
    /// Handler panics caught by the worker-pool isolation.
    pub worker_panics: AtomicU64,
    /// `match` requests served from another request's in-flight
    /// computation.
    pub coalesced: AtomicU64,
    /// Connections dropped mid-request by the client (or a torn-read
    /// fault).
    pub disconnects: AtomicU64,
    /// Injected/real accept-side failures survived.
    pub accept_faults: AtomicU64,
    /// Response writes that failed (client gone, write fault).
    pub write_failures: AtomicU64,
    /// Sources integrated into the resident graph.
    pub integrations: AtomicU64,
    /// Registry-mode domain hot-swaps completed via `POST /reload`.
    pub reloads: AtomicU64,
    /// Connections waiting in the admission queue for a worker right
    /// now: a gauge, raised on admission and lowered when a worker
    /// takes the connection.
    pub queued: AtomicU64,
}

impl Metrics {
    /// Render every counter and the queue gauge as a JSON object.
    pub fn to_json(&self, draining: bool) -> String {
        let snap = MetricsSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            deadline_rejects: self.deadline_rejects.load(Ordering::Relaxed),
            client_errors: self.client_errors.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            accept_faults: self.accept_faults.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
            integrations: self.integrations.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
            draining,
        };
        serde_json::to_string(&snap).expect("metrics snapshot serializes")
    }
}

/// Serializable view of [`Metrics`] plus the drain flag.
#[derive(Serialize)]
struct MetricsSnapshot {
    admitted: u64,
    completed: u64,
    shed: u64,
    degraded: u64,
    deadline_rejects: u64,
    client_errors: u64,
    worker_panics: u64,
    coalesced: u64,
    disconnects: u64,
    accept_faults: u64,
    write_failures: u64,
    integrations: u64,
    reloads: u64,
    queued: u64,
    draining: bool,
}

/// The mutable half of the resident state: everything `integrate-source`
/// swaps atomically under the write lock.
pub struct Resident {
    /// Current dataset (grows as sources are integrated).
    pub dataset: Dataset,
    /// Feature store over `dataset`.
    pub store: PropertyFeatureStore,
    /// The similarity graph served by `match` and grown by
    /// `integrate-source`.
    pub graph: SimilarityGraph,
    /// Bumped on every successful integration; keys the single-flight
    /// coalescer so stale in-flight `match` results are never shared
    /// across a mutation.
    pub generation: u64,
}

/// The single-model engine: one warm model + embedding store + the
/// swap-on-write resident data, exactly the pre-registry server.
pub struct SingleEngine {
    /// The warm model (immutable for the server's lifetime).
    pub model: LeapmeModel,
    /// Embedding store (immutable; needed to featurize new sources).
    pub embeddings: EmbeddingStore,
    /// The swap-on-write resident data.
    pub resident: RwLock<Resident>,
}

/// What the server scores against: one warm model (the classic
/// `serve --model` deployment) or a multi-domain registry
/// (`serve --models dir/`), where requests select a domain by the
/// `model` body field / `x-leapme-model` header.
pub enum Engine {
    /// One model, one dataset, mutable via `integrate-source`. Boxed:
    /// the warm model dwarfs the registry `Arc` and the enum would
    /// otherwise carry the larger variant's size everywhere.
    Single(Box<SingleEngine>),
    /// Many lazily faulted-in domains behind shared mappings.
    Registry(Arc<ModelRegistry>),
}

/// Everything a worker needs, shared behind one `Arc`.
pub struct ServeState {
    /// The scoring backend.
    pub engine: Engine,
    /// Counters.
    pub metrics: Metrics,
    /// Optional run journal for start/integration/shutdown records.
    pub journal: Option<RunJournal>,
    /// Server tunables.
    pub config: ServeConfig,
    /// Set once drain begins: `readyz` flips to 503 and new connections
    /// are refused while in-flight work finishes.
    pub draining: AtomicBool,
    /// Single-flight table for `match` coalescing.
    pub singleflight: SingleFlight,
}

impl ServeState {
    /// Assemble the shared state.
    pub fn new(
        model: LeapmeModel,
        embeddings: EmbeddingStore,
        dataset: Dataset,
        store: PropertyFeatureStore,
        journal: Option<RunJournal>,
        config: ServeConfig,
    ) -> Self {
        let resident = Resident {
            dataset,
            store,
            graph: SimilarityGraph::new(),
            generation: 0,
        };
        Self::with_resident(model, embeddings, resident, journal, config)
    }

    /// Assemble the shared state around an already-recovered resident
    /// (snapshot startup path: dataset + graph + generation restored
    /// from the last good on-disk generation).
    pub fn with_resident(
        model: LeapmeModel,
        embeddings: EmbeddingStore,
        resident: Resident,
        journal: Option<RunJournal>,
        config: ServeConfig,
    ) -> Self {
        ServeState {
            engine: Engine::Single(Box::new(SingleEngine {
                model,
                embeddings,
                resident: RwLock::new(resident),
            })),
            metrics: Metrics::default(),
            journal,
            config,
            draining: AtomicBool::new(false),
            singleflight: SingleFlight::default(),
        }
    }

    /// Assemble the shared state over a multi-domain registry.
    pub fn with_registry(
        registry: Arc<ModelRegistry>,
        journal: Option<RunJournal>,
        config: ServeConfig,
    ) -> Self {
        ServeState {
            engine: Engine::Registry(registry),
            metrics: Metrics::default(),
            journal,
            config,
            draining: AtomicBool::new(false),
            singleflight: SingleFlight::default(),
        }
    }

    /// The single-model engine parts, `None` in registry mode. Chaos
    /// tests and the single-mode handlers reach resident state through
    /// this.
    pub fn single(&self) -> Option<&SingleEngine> {
        match &self.engine {
            Engine::Single(s) => Some(s),
            Engine::Registry(_) => None,
        }
    }

    /// The registry, `None` in single-model mode.
    pub fn registry(&self) -> Option<&Arc<ModelRegistry>> {
        match &self.engine {
            Engine::Single(_) => None,
            Engine::Registry(r) => Some(r),
        }
    }

    /// Append `record` to the journal (if configured) with the bounded
    /// retry budget. Journal failures never take the service down; they
    /// are reported to stderr and counted as write failures.
    pub fn journal_event<T: Serialize>(&self, record: &T) {
        if let Some(j) = &self.journal {
            if let Err(e) = j.append_retrying(record, &self.config.retry) {
                eprintln!("leapme serve: journal append failed: {e}");
                self.metrics.write_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// State of one in-flight single-flight computation.
enum FlightState {
    Running,
    Done(Arc<String>),
    Abandoned,
}

/// One flight's shared slot: state guarded by the mutex, waiters parked
/// on the condvar.
type FlightSlot = Arc<(Mutex<FlightState>, Condvar)>;

/// Coalesces identical idempotent computations: the first caller runs,
/// concurrent callers with the same key wait for its result (bounded by
/// their own deadline) instead of redoing the work.
#[derive(Default)]
pub struct SingleFlight {
    flights: Mutex<HashMap<u64, FlightSlot>>,
}

/// What `join_or_lead` decided for this caller.
pub enum FlightRole {
    /// This caller computes; it must call [`SingleFlight::complete`]
    /// (or [`SingleFlight::abandon`]) with the same key.
    Leader,
    /// Another caller computed the value while we waited.
    Follower(Arc<String>),
    /// The leader was still running when this caller's deadline expired.
    TimedOut,
    /// The leader abandoned (deadline, panic); call `join_or_lead`
    /// again — this caller may become the fresh leader.
    Retry,
}

impl SingleFlight {
    /// Join an in-flight computation for `key`, or become its leader.
    /// Followers wait at most `wait`; expiry returns
    /// [`FlightRole::TimedOut`] so the caller can shed with its own
    /// deadline semantics.
    pub fn join_or_lead(&self, key: u64, wait: Duration) -> FlightRole {
        let flight = {
            let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
            match flights.get(&key) {
                Some(f) => Arc::clone(f),
                None => {
                    let f = Arc::new((Mutex::new(FlightState::Running), Condvar::new()));
                    flights.insert(key, Arc::clone(&f));
                    return FlightRole::Leader;
                }
            }
        };
        let (lock, cv) = &*flight;
        let deadline = std::time::Instant::now() + wait;
        let mut st = lock.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match &*st {
                FlightState::Done(v) => return FlightRole::Follower(Arc::clone(v)),
                FlightState::Abandoned => return FlightRole::Retry,
                FlightState::Running => {}
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return FlightRole::TimedOut;
            }
            let (next, _) = cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = next;
        }
    }

    /// Leader publishes its result and wakes every follower. The flight
    /// entry is removed so later requests recompute fresh state.
    pub fn complete(&self, key: u64, value: Arc<String>) {
        let flight = {
            let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
            flights.remove(&key)
        };
        if let Some(f) = flight {
            let (lock, cv) = &*f;
            *lock.lock().unwrap_or_else(|e| e.into_inner()) = FlightState::Done(value);
            cv.notify_all();
        }
    }

    /// Leader failed (deadline, panic): drop the flight so a follower
    /// can retry as a fresh leader, and wake waiters to re-evaluate.
    pub fn abandon(&self, key: u64) {
        let flight = {
            let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
            flights.remove(&key)
        };
        if let Some(f) = flight {
            let (lock, cv) = &*f;
            *lock.lock().unwrap_or_else(|e| e.into_inner()) = FlightState::Abandoned;
            cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flight_coalesces_followers() {
        let sf = Arc::new(SingleFlight::default());
        assert!(matches!(
            sf.join_or_lead(7, Duration::from_millis(1)),
            FlightRole::Leader
        ));
        let follower = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || sf.join_or_lead(7, Duration::from_secs(2)))
        };
        std::thread::sleep(Duration::from_millis(20));
        sf.complete(7, Arc::new("result".to_string()));
        match follower.join().unwrap() {
            FlightRole::Follower(v) => assert_eq!(*v, "result"),
            _ => panic!("follower should receive the leader's value"),
        }
    }

    #[test]
    fn follower_times_out_on_a_stuck_leader() {
        let sf = SingleFlight::default();
        assert!(matches!(
            sf.join_or_lead(1, Duration::from_millis(1)),
            FlightRole::Leader
        ));
        // The leader never completes; a follower with a short deadline
        // gets TimedOut instead of hanging.
        assert!(matches!(
            sf.join_or_lead(1, Duration::from_millis(30)),
            FlightRole::TimedOut
        ));
        sf.abandon(1);
        // After abandon the key is free again.
        assert!(matches!(
            sf.join_or_lead(1, Duration::from_millis(1)),
            FlightRole::Leader
        ));
    }

    #[test]
    fn abandoned_leader_sends_followers_back_to_retry() {
        let sf = Arc::new(SingleFlight::default());
        assert!(matches!(
            sf.join_or_lead(3, Duration::from_millis(1)),
            FlightRole::Leader
        ));
        let follower = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || sf.join_or_lead(3, Duration::from_secs(2)))
        };
        std::thread::sleep(Duration::from_millis(20));
        sf.abandon(3);
        assert!(matches!(follower.join().unwrap(), FlightRole::Retry));
    }
}

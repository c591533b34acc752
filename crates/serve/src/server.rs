//! The accept loop, panic-isolated worker pool, and graceful drain.
//!
//! One accept thread owns the listener and blocks in `accept`, so a new
//! connection is taken the moment it arrives. It sheds with a
//! `503 + Retry-After` when the bounded queue is full. A shutdown sets
//! the flag and wakes the blocked `accept` with a connection of its
//! own, which the loop answers 503 before it flips the draining flag,
//! closes the queue, and drops the listener. A fixed pool of
//! worker threads blocks on the queue (closing it wakes them all),
//! parses with socket timeouts, runs the handler under `catch_unwind`,
//! and keeps serving after any panic — a poisoned request never takes
//! a worker (or the process) down.

use crate::handlers::{self, request_deadline};
use crate::http::{drain_then_close, error_response, read_request, HttpError, Response};
use crate::queue::{Bounded, Pop};
use crate::state::ServeState;
use leapme_core::cancel::CancelToken;
use serde::Serialize;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop pauses after a failed `accept` (EMFILE,
/// ECONNABORTED, …), so a failure that persists cannot spin it.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);

/// Lingering-close budget for responses sent before the request was
/// fully read: drain at most this many client bytes…
const LINGER_MAX_BYTES: usize = 64 * 1024;
/// …for at most this long, so a trickling client cannot pin a thread.
const LINGER_TIMEOUT: Duration = Duration::from_millis(100);

/// One admitted connection, waiting for a worker.
struct Job {
    stream: TcpStream,
}

/// What the drain left behind; `clean` means every in-flight request
/// completed (possibly degraded) rather than being cut off.
#[derive(Debug, Clone, Serialize)]
pub struct DrainReport {
    /// Requests answered over the server's lifetime.
    pub completed: u64,
    /// Requests shed with `503 Retry-After`.
    pub shed: u64,
    /// Responses flagged degraded (partial results at deadline).
    pub degraded: u64,
    /// Requests rejected because their deadline expired before work ran.
    pub deadline_rejects: u64,
    /// Handler panics absorbed by the worker pool.
    pub worker_panics: u64,
    /// Queued connections dropped unanswered at shutdown (should be 0:
    /// the queue drains before workers exit).
    pub dropped_at_shutdown: u64,
    /// `true` when nothing was dropped — the drain honored every
    /// admitted request.
    pub clean: bool,
}

/// Journal record for server lifecycle events.
#[derive(Serialize)]
struct LifecycleEvent {
    event: &'static str,
    addr: String,
    workers: usize,
    queue_depth: usize,
}

/// Journal record for the shutdown summary.
#[derive(Serialize)]
struct ShutdownEvent {
    event: &'static str,
    completed: u64,
    shed: u64,
    degraded: u64,
    worker_panics: u64,
    clean: bool,
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    state: Arc<ServeState>,
    queue: Arc<Bounded<Job>>,
}

impl ServerHandle {
    /// The bound address (useful with `:0` port requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin the drain: stop accepting, let in-flight work finish.
    /// Calling it again is harmless.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept thread out of `accept`: it finds the flag set
        // on this connection, answers it 503 and leaves the loop. Once
        // the listener is gone the connect is refused, which is fine.
        let _ = TcpStream::connect(wake_addr(self.addr));
    }

    /// Block until the accept thread and every worker have exited,
    /// then report what the drain left behind. Call after
    /// [`ServerHandle::shutdown`].
    pub fn join(mut self) -> DrainReport {
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Anything still queued after the workers exited was admitted
        // but never served — with Pop::Closed semantics this stays 0.
        let dropped = self.queue.len() as u64;
        let m = &self.state.metrics;
        let report = DrainReport {
            completed: m.completed.load(Ordering::Relaxed),
            shed: m.shed.load(Ordering::Relaxed),
            degraded: m.degraded.load(Ordering::Relaxed),
            deadline_rejects: m.deadline_rejects.load(Ordering::Relaxed),
            worker_panics: m.worker_panics.load(Ordering::Relaxed),
            dropped_at_shutdown: dropped,
            clean: dropped == 0,
        };
        self.state.journal_event(&ShutdownEvent {
            event: "serve.shutdown",
            completed: report.completed,
            shed: report.shed,
            degraded: report.degraded,
            worker_panics: report.worker_panics,
            clean: report.clean,
        });
        report
    }
}

/// The address [`ServerHandle::shutdown`] connects to: the bound one,
/// or loopback of the same family when the server is bound to the
/// unspecified address (`0.0.0.0` / `[::]`).
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut wake = bound;
    if bound.ip().is_unspecified() {
        wake.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    wake
}

/// Bind, spawn the accept thread and worker pool, and return a handle.
/// The server runs until [`ServerHandle::shutdown`] starts the drain.
pub fn start(state: Arc<ServeState>) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&state.config.addr)?;
    let addr = listener.local_addr()?;

    state.journal_event(&LifecycleEvent {
        event: "serve.start",
        addr: addr.to_string(),
        workers: state.config.workers,
        queue_depth: state.config.queue_depth,
    });

    let shutdown = Arc::new(AtomicBool::new(false));
    let queue: Arc<Bounded<Job>> = Arc::new(Bounded::new(state.config.queue_depth));

    let accept_thread = {
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        let queue = Arc::clone(&queue);
        std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, state, queue, shutdown))?
    };

    let mut workers = Vec::with_capacity(state.config.workers);
    for i in 0..state.config.workers {
        let state = Arc::clone(&state);
        let queue = Arc::clone(&queue);
        workers.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(state, queue))?,
        );
    }

    Ok(ServerHandle {
        addr,
        shutdown,
        accept_thread: Some(accept_thread),
        workers,
        state,
        queue,
    })
}

/// Fault hook for `serve.accept`: a fired `io` fault drops the freshly
/// accepted connection on the floor, as a flaky NIC would.
#[cfg(feature = "faults")]
fn injected_accept_fault() -> bool {
    leapme_faults::fires(leapme_faults::sites::SERVE_ACCEPT).is_some()
}

#[cfg(not(feature = "faults"))]
fn injected_accept_fault() -> bool {
    false
}

/// Accept until the shutdown flag is set, then flip draining, close the
/// queue, and let the listener drop (new connections get RST/refused).
fn accept_loop(
    listener: TcpListener,
    state: Arc<ServeState>,
    queue: Arc<Bounded<Job>>,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if injected_accept_fault() {
                    state.metrics.accept_faults.fetch_add(1, Ordering::Relaxed);
                    drop(stream); // simulated accept-side failure
                    continue;
                }
                if shutdown.load(Ordering::SeqCst) {
                    // Raced with shutdown, or is its wake: answer
                    // honestly, don't admit.
                    let _ = stream.set_write_timeout(Some(state.config.io_timeout));
                    let _ = Response::error(503, "draining", "server is shutting down")
                        .write_to(&mut stream);
                    drain_then_close(&mut stream, LINGER_MAX_BYTES, LINGER_TIMEOUT);
                    continue;
                }
                // Counted before the push, so the worker's decrement
                // after its pop can never come first.
                state.metrics.queued.fetch_add(1, Ordering::Relaxed);
                if let Err(rejected) = queue.try_push(Job { stream }) {
                    state.metrics.queued.fetch_sub(1, Ordering::Relaxed);
                    state.metrics.shed.fetch_add(1, Ordering::Relaxed);
                    let mut stream = rejected.stream;
                    let _ = stream.set_write_timeout(Some(state.config.io_timeout));
                    let _ = Response::shed(state.config.retry_after_secs).write_to(&mut stream);
                    // The request was never read; linger so the 503
                    // survives the close instead of dying to an RST.
                    drain_then_close(&mut stream, LINGER_MAX_BYTES, LINGER_TIMEOUT);
                }
            }
            Err(_) => {
                state.metrics.accept_faults.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
    state.draining.store(true, Ordering::SeqCst);
    queue.close();
    // Listener drops here; the OS refuses new connections from now on.
}

/// Pop-and-serve until the queue reports closed-and-drained.
fn worker_loop(state: Arc<ServeState>, queue: Arc<Bounded<Job>>) {
    while let Pop::Item(job) = queue.pop() {
        state.metrics.queued.fetch_sub(1, Ordering::Relaxed);
        serve_connection(&state, job.stream);
    }
}

/// Fault hook for `serve.write`: a fired `io` fault fails the response
/// write as a mid-write disconnect would.
#[cfg(feature = "faults")]
fn injected_write_fault() -> bool {
    leapme_faults::fires(leapme_faults::sites::SERVE_WRITE).is_some()
}

#[cfg(not(feature = "faults"))]
fn injected_write_fault() -> bool {
    false
}

/// Serve one connection end-to-end: read with timeouts, resolve the
/// deadline, run the handler under `catch_unwind`, write the response —
/// then, when the client asked for `Connection: keep-alive`, loop for
/// the next request on the same socket, up to the configured
/// per-connection budget. Every exchange keeps the full per-request
/// semantics: the same socket timeouts (a slow-loris *second* request
/// dies like a first), its own deadline token, its own panic boundary.
/// A drain in progress closes after the in-flight response.
///
/// `TCP_NODELAY` goes on first: each response is already one write, and
/// without it a reply larger than one segment would hold its last
/// segment back until the client acknowledged the others.
fn serve_connection(state: &ServeState, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(state.config.io_timeout));
    let _ = stream.set_write_timeout(Some(state.config.io_timeout));
    let max_requests = state.config.keep_alive_max_requests.max(1);

    for served in 0..max_requests {
        let request = match read_request(&mut stream, &state.config.limits) {
            Ok(r) => r,
            Err(e) => {
                match error_response(&e) {
                    // On a kept-alive connection, an idle client going
                    // away before the next request's first byte, or
                    // staying silent past the socket timeout, is a
                    // normal end of conversation: no error, no
                    // disconnect. A close partway through a request
                    // still counts as one, and a stall partway through
                    // gets its 408 like a first request's.
                    _ if served > 0 && matches!(e, HttpError::IdleTimeout | HttpError::Closed) => {}
                    Some(resp) => {
                        state.metrics.client_errors.fetch_add(1, Ordering::Relaxed);
                        write_response(state, &mut stream, &resp);
                        // The request was only partially read (oversized
                        // body, parse error): linger so the error response
                        // outlives the unread bytes.
                        drain_then_close(&mut stream, LINGER_MAX_BYTES, LINGER_TIMEOUT);
                    }
                    None => {
                        state.metrics.disconnects.fetch_add(1, Ordering::Relaxed);
                    }
                }
                return;
            }
        };

        let deadline = match request_deadline(state, &request) {
            Ok(d) => d,
            Err(resp) => {
                state.metrics.client_errors.fetch_add(1, Ordering::Relaxed);
                write_response(state, &mut stream, &resp);
                return;
            }
        };
        state.metrics.admitted.fetch_add(1, Ordering::Relaxed);
        let token = CancelToken::new().with_timeout(deadline);

        // The panic boundary: an injected (or real) handler panic is
        // absorbed here, answered with a 500, and the worker lives on.
        let mut response = match catch_unwind(AssertUnwindSafe(|| {
            handlers::handle(state, &request, &token)
        })) {
            Ok(resp) => resp,
            Err(_) => {
                state.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                Response::error(500, "internal", "request handler panicked; worker recovered")
            }
        };

        // Keep-alive is granted per exchange, never assumed: the client
        // must have asked explicitly, the budget must have room, and a
        // draining server finishes this response then closes so the
        // drain cannot be pinned by an idle connection.
        let keep = request
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
            && served + 1 < max_requests
            && !state.draining.load(Ordering::SeqCst);
        response.keep_alive = keep;

        if response.degraded {
            state.metrics.degraded.fetch_add(1, Ordering::Relaxed);
        }
        if response.status < 500 || response.status == 503 {
            state.metrics.completed.fetch_add(1, Ordering::Relaxed);
        }
        if (400..500).contains(&response.status) {
            state.metrics.client_errors.fetch_add(1, Ordering::Relaxed);
        }
        if !write_response(state, &mut stream, &response) || !keep {
            return;
        }
    }
}

/// Write a response, folding injected `serve.write` faults and real
/// socket failures into the `write_failures` counter — the client may
/// be gone, but the server must not care. Returns whether the bytes
/// made it out (a failed write also ends any keep-alive conversation).
fn write_response(state: &ServeState, stream: &mut TcpStream, response: &Response) -> bool {
    if injected_write_fault() {
        state.metrics.write_failures.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    if response.write_to(stream).is_err() {
        state.metrics.write_failures.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    true
}

//! Resident LEAPME matching service: `leapme serve`.
//!
//! A robustness-first daemon that loads a trained `.lmp` model and a
//! persisted feature cache once, keeps them resident, and serves
//! scoring, matching, and source integration over a hand-rolled
//! HTTP/1.1 transport (`std::net` only — the vendored-offline policy
//! rules out any framework). The design budget goes to failure
//! handling, in four layers:
//!
//! 1. **Strict parsing** ([`http`]): limits enforced *while reading* —
//!    oversized bodies rejected at the `Content-Length` header,
//!    slow-loris clients cut off by socket timeouts, malformed input
//!    answered with typed 400s.
//! 2. **Admission control** ([`queue`]): one fixed-capacity queue
//!    between accept and the workers; overflow is shed with
//!    `503 + Retry-After`, never buffered, so memory stays bounded.
//! 3. **Deadlines** ([`handlers`]): every request carries a
//!    [`CancelToken`](leapme_core::cancel::CancelToken) deadline
//!    (`x-leapme-deadline-ms` header); scoring is chunked so expiry
//!    returns the chunks already finished, flagged degraded.
//! 4. **Graceful drain** ([`server`]): `ServerHandle::shutdown` (which
//!    `leapme serve` calls on SIGTERM/SIGINT) wakes and stops the accept
//!    loop, the queue drains, in-flight requests finish or cancel at
//!    their deadline, and the shutdown is journaled.
//!
//! Worker threads run handlers under `catch_unwind`: a panicking
//! request (chaos-injected via the `serve.handler` fault site or real)
//! costs one 500 response, never a worker or the process.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod handlers;
pub mod http;
pub mod queue;
pub mod server;
pub mod snapshot;
pub mod state;

pub use http::{HttpError, HttpLimits, Request, Response};
pub use queue::{Bounded, Pop};
pub use server::{start, DrainReport, ServerHandle};
pub use snapshot::{ResidentSnapshot, SnapshotError};
pub use state::{Engine, Metrics, Resident, ServeConfig, ServeState, SingleEngine};

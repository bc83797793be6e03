#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! `pospec-serve` — a long-running refinement-checking service.
//!
//! Every other entry point of the workspace is a one-shot process: the
//! CLI, the bench binaries, and the test suites each build their
//! automata, answer their queries, and exit, throwing the warm
//! [`DfaCache`](pospec_core::DfaCache) away.  This crate keeps the
//! checker resident: specifications are elaborated once into a
//! [`SpecRegistry`], automata survive in a shared cache across requests
//! and connections, and clients talk to the service over a
//! newline-delimited JSON protocol on plain TCP (`std::net` only — no
//! external dependencies).
//!
//! # Architecture
//!
//! * [`registry`] — named, versioned specification documents behind an
//!   `RwLock`, preloadable from a `specs/` directory at startup;
//! * [`protocol`] — the wire requests (`load_spec`, `check`, `compose`,
//!   `batch_check`, `ping`, `stats`, `clear_cache`, `shutdown`) and
//!   structured error responses;
//! * [`pool`] — a bounded worker pool with explicit backpressure: when
//!   the queue is full, submission fails *immediately* and the client
//!   receives a structured `overloaded` error instead of the server
//!   buffering without bound;
//! * [`metrics`] — live counters (requests by kind, queue high-water,
//!   a fixed-bucket latency histogram for p50/p99) plus the automaton
//!   cache's own hit/miss/build-time counters, all returned by `stats`;
//! * [`server`] — the accept loop, one lightweight reader thread per
//!   connection, graceful shutdown that drains in-flight work;
//! * [`client`] — a tiny blocking client used by `pospec call`, the
//!   integration tests, and the bench campaign;
//! * [`retry`] — a pure, seeded exponential-backoff policy with
//!   idempotency-aware automatic retries, driving
//!   [`Client::call_retrying`](client::Client::call_retrying).
//!
//! # Wire protocol
//!
//! One JSON object per line in each direction.  Requests carry an `op`,
//! an optional `id` (echoed back verbatim), and an optional
//! `deadline_ms` (requests still queued when their deadline expires are
//! answered with a `deadline` error instead of being executed — the
//! `pospec_sim::RunConfig` explicit-bound idiom applied to the
//! service):
//!
//! ```text
//! → {"id":1,"op":"check","doc":"readers_writers","concrete":"WriteAcc","abstract":"Write"}
//! ← {"id":1,"ok":true,"op":"check","result":{"holds":true,"exact":true,...}}
//! → {"id":2,"op":"nope"}
//! ← {"id":2,"ok":false,"error":{"kind":"bad_request","message":"unknown op `nope`"}}
//! ```

pub mod client;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod registry;
pub mod retry;
pub mod server;

pub use client::{error_kind, response_ok, Client, ClientError};
pub use metrics::{MetricsSnapshot, ServerMetrics};
pub use pool::{SubmitError, WorkerPool};
pub use protocol::{error_response, ok_response, parse_request, Envelope, ProtoError, Request};
pub use registry::{Load, LoadOutcome, RegisteredDoc, SpecRegistry};
pub use retry::{request_idempotent, RetryPolicy, RetrySchedule};
pub use server::{Server, ServerConfig};

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! An executable open-distributed-system substrate.
//!
//! The paper's setting — *"open distributed systems where objects run in
//! parallel, communicate by remote method calls, and exchange object
//! identities"* (§1) — is assumed, never built.  This crate builds it, so
//! that specifications can be validated against *running* objects:
//!
//! * [`behavior`] — the [`ObjectBehavior`] trait:
//!   an object reacts to incoming remote calls and may spontaneously issue
//!   calls of its own;
//! * [`deterministic`] — a seeded, reproducible scheduler interleaving
//!   message deliveries and spontaneous steps, producing the communication
//!   trace of the run;
//! * [`threaded`] — a genuinely concurrent runtime (one thread per object,
//!   `std::sync::mpsc` channels, a linearizing shared event log);
//! * [`fault`] — deterministic fault injection: a seeded [`FaultPlan`]
//!   consulted at each send decides (as a pure function of message
//!   identity) whether to drop, duplicate, or delay the message or crash
//!   the receiver, and a [`FaultLog`] records every injection;
//! * [`run`] — explicit run bounds ([`RunConfig`]: event budget,
//!   wall-clock deadline, quiescence window) and structured outcomes
//!   ([`RunOutcome`]: trace + [`StopReason`] + fault log);
//! * [`supervised`] — [`SupervisedRun`], the deterministic scheduler with
//!   online monitors attached and faults injected, degrading to a partial
//!   trace plus a reason instead of hanging;
//! * [`monitor`] — an online safety monitor checking each observed event
//!   against a [`Specification`](pospec_core::Specification): the first
//!   projection that escapes the trace set is flagged with its position;
//! * [`behaviors`] — reusable example behaviors (readers/writers clients,
//!   a ping responder, a monitor-confirming client) used by the examples
//!   and the soundness experiments.
//!
//! The bridge to the theory: a run's trace, projected per object, must lie
//! in every sound specification of that object (§2's soundness).  The
//! integration tests drive the RW server of Example 3 and check its runs
//! against the `RW` specification online.

pub mod behavior;
pub mod behaviors;
pub mod deterministic;
pub mod fault;
pub mod monitor;
pub mod run;
pub mod supervised;
pub mod threaded;
pub mod tracefile;

pub use behavior::{Action, ObjectBehavior};
pub use deterministic::DeterministicRuntime;
pub use fault::{
    FaultCounts, FaultDecision, FaultKind, FaultLog, FaultPlan, FaultPlanError, FaultRates,
    FaultRecord,
};
pub use monitor::{Monitor, MonitorVerdict};
pub use run::{RunConfig, RunOutcome, StopReason};
pub use supervised::{MonitorReport, SupervisedOutcome, SupervisedRun};
pub use threaded::ThreadedRuntime;
pub use tracefile::{read_trace, write_trace, EventRecord, TraceFileError};

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! `pospec-gen` — known-answer scenario generation.
//!
//! The engine's verdicts on the shipping specifications can only be
//! cross-checked against other constructions of the same automata (the
//! on-the-fly engine vs the eager pipeline kept as a test oracle, a
//! warm cache vs a fresh one).  This crate turns the paper's
//! constructions into an *independent oracle*: parameterized families
//! of component networks — pipelines, stars, rings and gossip meshes of
//! N objects × M methods — whose refinement (Def. 2), composability
//! (Def. 10) and deadlock (Ex. 5) verdicts are known **by construction**.
//!
//! Every generated [`Scenario`] pairs a `.pos` document with a
//! machine-readable [`Manifest`] of expected verdicts and lint
//! diagnostics.  The manifest is computed from the construction alone:
//! this crate does not link `pospec-core`, `pospec-check` or
//! `pospec-lint`, so it *cannot* consult the checker even by accident.
//!
//! Generation is a pure function of [`GenConfig`]: the same
//! configuration produces byte-identical documents and manifests, which
//! the CLI tests assert.
//!
//! # The per-edge construction
//!
//! Each directed edge `i → j` of the family topology contributes a
//! little protocol over two session methods `s`/`f` (rotated over the
//! method pool), an environment-facing `req` and a report `ack` to a
//! global monitor:
//!
//! * `Proto_k`  — abstract caller protocol: `prs (s f)*` over `{req_i, s, f}`;
//! * `Caller_k` — concrete caller: `prs (s f ack_i)*`, alphabet adds `ack_i`;
//! * `Callee_k` — the callee's view: `prs (s f ack_j)*`.
//!
//! `refine Caller_k of Proto_k` holds exactly (the projection onto
//! α(`Proto_k`) is the prefix closure of `(s f)*` itself), and
//! `compose Link_k from Caller_k with Callee_k` is composable (Def. 10:
//! both sides own a single object, so neither alphabet meets the
//! other's internal events) and deadlock-free (the session events are
//! hidden, the `ack` reports remain observable and always extendable).
//!
//! A seeded fraction of edges carries exactly one [`MutationKind`] with
//! an exactly predictable consequence — see that type's documentation.

mod family;
mod manifest;
mod rng;
mod scenario;

pub use family::Family;
pub use manifest::{CompositionEntry, ExpectRefine, LintSite, Manifest, RefinementEntry};
pub use rng::SplitMix64;
pub use scenario::{generate, GenConfig, GenError, MutationKind, Scenario};

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! `pospec-lsp` — a Language Server Protocol server for `.pos`
//! documents, built entirely from workspace crates.
//!
//! The transport is JSON-RPC 2.0 with `Content-Length` framing over
//! stdio ([`rpc`]); JSON values are `pospec-json`'s [`Value`](pospec_json::Value).  The
//! server ([`server::LspServer`]) keeps every open document in a
//! [`pospec_serve::SpecRegistry`], which provides the two pieces of
//! incrementality the editor loop needs:
//!
//! * **per-spec re-elaboration** — each document has an
//!   `ElabSession` keyed on span-insensitive content fingerprints, so
//!   a keystroke re-elaborates only the spec block it touched (and
//!   reuses the same `Arc<Universe>`, keeping the shared `DfaCache`
//!   warm);
//! * **dirty-pair tracking** — refinement verdicts are cached per
//!   `(document, concrete, abstract, depth)` and survive edits that do
//!   not touch either endpoint, so hover shows verdicts in O(1) and a
//!   didChange re-checks only the pairs whose content changed.
//!
//! Diagnostics are the five lint passes verbatim: same P-codes, same
//! spans, same messages as `pospec lint --json` — the LSP layer only
//! converts byte spans to UTF-16 positions ([`convert`]) and carries
//! the original byte span along in each diagnostic's `data` field.
//!
//! The custom `pospec/stats` request exposes the elaboration, pair-
//! cache and automaton-cache counters, which is how the session tests
//! (and CI) *prove* incrementality rather than assume it.

pub mod analysis;
pub mod convert;
pub mod rpc;
pub mod server;

pub use server::LspServer;

/// Run a server over stdin/stdout until `exit`; returns the process
/// exit code mandated by the protocol (0 after `shutdown`, 1 otherwise).
pub fn run_stdio(depth: usize) -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut server = LspServer::new(depth);
    server.run(&mut stdin.lock(), &mut stdout.lock())
}

//! SERVE — the resident-service campaign of EXPERIMENTS.md.
//!
//! Starts an in-process [`pospec_serve::Server`] on an ephemeral port,
//! registers the paper's running example, and sends the full ordered
//! pair matrix of refinement checks over the real TCP socket **twice**.
//! The cold pass builds what it needs in the shared
//! [`DfaCache`](pospec_core::DfaCache); the warm pass repeats every
//! pair, so the registry's pair-verdict cache answers it without asking
//! the automaton cache at all.  The server's `stats` counters are read
//! before, between and after the passes, so each pass is judged by what
//! it did itself.  The gates: the service verdicts equal the in-process
//! checker's, and every warm check is a pair-cache hit that builds
//! nothing.  No wall clock is recorded: both passes are round trips of
//! microseconds, and the `serve-mix` perfbench workload measures the
//! service.

use std::thread;
use std::time::Duration;

use pospec_json::{ObjBuilder, Value};
use pospec_serve::{response_ok, Client, Server, ServerConfig};

/// The readers/writers document the service campaign registers.
pub const SPEC_SOURCE: &str = include_str!("../../../specs/readers_writers.pos");

/// Specs whose ordered pairs form the check matrix.
pub const SPEC_NAMES: [&str; 5] = ["Read", "Write", "WriteAcc", "Client", "Client2"];

/// What one pass did, as counter deltas over the pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassCounters {
    /// Automaton-cache DFA hits.
    pub dfa_hits: u64,
    /// Automaton-cache misses (DFA, lift and alphabet): the entries the
    /// pass built.
    pub misses: u64,
    /// Hits of the registry's pair-verdict cache.
    pub pair_hits: u64,
    /// Check replies that said `"cached": true`.
    pub cached_replies: u64,
}

impl PassCounters {
    fn to_json(self) -> Value {
        ObjBuilder::new()
            .field("dfa_hits", self.dfa_hits)
            .field("misses", self.misses)
            .field("pair_hits", self.pair_hits)
            .field("cached_replies", self.cached_replies)
            .build()
    }
}

/// Aggregate result of the cold-then-warm service sweep.
#[derive(Debug, Clone)]
pub struct ServiceSummary {
    /// Ordered pairs checked per pass.
    pub pairs: usize,
    /// The first pass, over an empty cache.
    pub cold: PassCounters,
    /// The second pass, repeating every pair.
    pub warm: PassCounters,
    /// Did both passes return identical verdicts, matching the
    /// in-process checker?
    pub verdicts_agree: bool,
    /// `holds` per pair (pass-1 order), for the report line.
    pub holds: Vec<bool>,
}

impl ServiceSummary {
    /// The SERVE gates: verdicts agree with the in-process checker, and
    /// the warm pass is answered by the pair-verdict cache alone — one
    /// pair hit and one `"cached": true` reply per pair, and no
    /// automaton-cache miss.
    pub fn gates_pass(&self) -> bool {
        let pairs = self.pairs as u64;
        self.verdicts_agree
            && self.warm.pair_hits == pairs
            && self.warm.cached_replies == pairs
            && self.warm.misses == 0
    }

    /// The summary as a JSON object — the `"serve"` key of
    /// `paper_report.json`.
    pub fn to_json(&self) -> Value {
        ObjBuilder::new()
            .field("pairs", self.pairs)
            .field("cold", self.cold.to_json())
            .field("warm", self.warm.to_json())
            .field("verdicts_agree", self.verdicts_agree)
            .field("holding", self.holds.iter().filter(|h| **h).count())
            .field("gates_pass", self.gates_pass())
            .build()
    }
}

fn check_request(concrete: &str, abstract_: &str) -> Value {
    ObjBuilder::new()
        .field("op", "check")
        .field("doc", "readers_writers")
        .field("concrete", concrete)
        .field("abstract", abstract_)
        .build()
}

/// The server's cumulative counters; `cached_replies` stays 0.
fn counters(client: &mut Client) -> PassCounters {
    let stats = client.call(&ObjBuilder::new().field("op", "stats").build()).expect("stats");
    let result = stats.get("result").expect("stats result");
    let cache = result.get("metrics").and_then(|m| m.get("cache"));
    let read = |obj: Option<&Value>, key: &str| {
        obj.and_then(|o| o.get(key))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("stats counter `{key}`"))
    };
    PassCounters {
        dfa_hits: read(cache, "dfa_hits"),
        misses: read(cache, "misses"),
        pair_hits: read(result.get("registry"), "pair_hits"),
        cached_replies: 0,
    }
}

/// One pass over every ordered spec pair: `holds` per pair and the
/// pass's counter deltas.
fn pass(client: &mut Client) -> (Vec<bool>, PassCounters) {
    let before = counters(client);
    let mut holds = Vec::new();
    let mut cached_replies = 0;
    for concrete in SPEC_NAMES {
        for abstract_ in SPEC_NAMES {
            let response = client.call(&check_request(concrete, abstract_)).expect("check");
            assert!(response_ok(&response), "service check failed: {response:?}");
            let result = response.get("result").expect("check result");
            holds.push(result.get("holds").and_then(Value::as_bool).expect("holds field"));
            if result.get("cached").and_then(Value::as_bool) == Some(true) {
                cached_replies += 1;
            }
        }
    }
    let after = counters(client);
    let delta = PassCounters {
        dfa_hits: after.dfa_hits - before.dfa_hits,
        misses: after.misses - before.misses,
        pair_hits: after.pair_hits - before.pair_hits,
        cached_replies,
    };
    (holds, delta)
}

/// Run the cold-then-warm campaign against a private in-process server.
pub fn run() -> ServiceSummary {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue: 32,
        ..ServerConfig::default()
    };
    let server = Server::bind(&config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.shutdown_handle();
    let serving = thread::spawn(move || server.serve());

    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(120))).expect("timeout");
    let load = ObjBuilder::new()
        .field("op", "load_spec")
        .field("name", "readers_writers")
        .field("source", SPEC_SOURCE)
        .build();
    let response = client.call(&load).expect("load_spec");
    assert!(response_ok(&response), "load_spec failed: {response:?}");

    let (cold_holds, cold) = pass(&mut client);
    let (warm_holds, warm) = pass(&mut client);

    // Reference verdicts from the in-process checker, same depth.
    let doc = pospec_lang::parse_document(SPEC_SOURCE).expect("paper spec parses");
    let mut reference = Vec::new();
    for concrete in SPEC_NAMES {
        for abstract_ in SPEC_NAMES {
            let c = doc.spec(concrete).expect("spec");
            let a = doc.spec(abstract_).expect("spec");
            reference.push(pospec_core::check_refinement(c, a, 6).holds());
        }
    }
    let verdicts_agree = cold_holds == reference && warm_holds == reference;

    handle.shutdown();
    serving.join().expect("serve thread").expect("serve result");

    ServiceSummary {
        pairs: SPEC_NAMES.len() * SPEC_NAMES.len(),
        cold,
        warm,
        verdicts_agree,
        holds: cold_holds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_verdicts_agree_and_the_pair_cache_answers_the_warm_pass() {
        let summary = run();
        assert_eq!(summary.pairs, 25);
        assert!(summary.verdicts_agree);
        assert!(summary.cold.misses > 0, "the cold pass builds automata: {:?}", summary.cold);
        assert_eq!(summary.cold.pair_hits, 0, "every cold pair is new: {:?}", summary.cold);
        assert_eq!(summary.warm.pair_hits, 25, "warm pass: {:?}", summary.warm);
        assert_eq!(summary.warm.cached_replies, 25, "warm pass: {:?}", summary.warm);
        assert_eq!(summary.warm.misses, 0, "the warm pass builds nothing: {:?}", summary.warm);
        assert!(summary.gates_pass());
        let json = summary.to_json();
        assert_eq!(json.get("verdicts_agree"), Some(&Value::Bool(true)));
        assert_eq!(json.get("gates_pass"), Some(&Value::Bool(true)));
    }
}

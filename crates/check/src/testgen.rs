//! Model-based test generation: covering trace suites derived from a
//! specification's automaton.
//!
//! The dual of [`crate::coverage`]: instead of measuring how much of a
//! specification some runs exercised, *generate* a minimal-ish suite of
//! valid traces that exercises everything — every reachable accepting
//! state and every transition between accepting states (transition
//! coverage, the classic model-based-testing criterion).  The suite can
//! drive an implementation under test; the online monitor then checks
//! conformance while [`crate::coverage::state_coverage`] confirms the
//! suite indeed covers the model (guaranteed by construction, asserted in
//! the tests).

use pospec_core::{traceset_dfa, Specification};
use pospec_trace::Trace;
use std::sync::Arc;

/// A generated covering suite.
#[derive(Debug, Clone)]
pub struct TestSuite {
    /// The covering traces (each a valid member of the trace set).
    pub traces: Vec<Trace>,
    /// Number of accepting transitions covered.
    pub transitions: usize,
}

/// Generate a transition-covering suite for the specification over its
/// canonical finitization.
///
/// Every transition between reachable accepting states appears in at
/// least one trace; every trace is a member of `T(Γ)` (prefix closure
/// guarantees all prefixes are too).  Construction: shortest path to the
/// transition's source, the transition itself.
pub fn transition_cover(spec: &Specification, pred_depth: usize) -> TestSuite {
    let u = spec.universe();
    let sigma = Arc::new(spec.alphabet().enumerate_concrete());
    let dfa = traceset_dfa(u, spec.trace_set(), Arc::clone(&sigma), pred_depth);

    // One trace per accepting→accepting transition out of a reachable
    // accepting state: the shortest path to the source, then the edge.
    let mut prefixes = dfa.accepted_prefixes();
    let mut traces = Vec::new();
    let mut transitions = 0;
    while let Some(s) = prefixes.next() {
        let path = prefixes.word(s);
        for (sym, &e) in sigma.iter().enumerate() {
            if let Some(t) = dfa.successor(s, sym) {
                if dfa.is_accepting(t) {
                    transitions += 1;
                    let mut w = path.clone();
                    w.push(e);
                    traces.push(Trace::from_events(w));
                }
            }
        }
    }
    // Deduplicate traces that are prefixes of others: keep maximal ones.
    traces.sort();
    traces.dedup();
    let maximal: Vec<Trace> = traces
        .iter()
        .filter(|t| !traces.iter().any(|other| other.len() > t.len() && t.is_prefix_of(other)))
        .cloned()
        .collect();
    TestSuite { traces: maximal, transitions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::state_coverage;
    use pospec_alphabet::{EventPattern, UniverseBuilder};
    use pospec_core::TraceSet;
    use pospec_regex::{Re, Template, VarId};

    fn write_world() -> Specification {
        let mut b = UniverseBuilder::new();
        let env = b.object_class("Env").unwrap();
        let o = b.object("o").unwrap();
        let ow = b.method("OW").unwrap();
        let w = b.method("W").unwrap();
        let cw = b.method("CW").unwrap();
        b.class_witnesses(env, 2).unwrap();
        let u = b.freeze();
        let alpha = [ow, w, cw].iter().fold(pospec_alphabet::EventSet::empty(&u), |acc, &m| {
            acc.union(&EventPattern::call(env, o, m).to_set(&u))
        });
        let x = VarId(0);
        let re = Re::seq([
            Re::lit(Template::call(x, o, ow)),
            Re::lit(Template::call(x, o, w)).star(),
            Re::lit(Template::call(x, o, cw)),
        ])
        .bind(x, env)
        .star();
        Specification::new("Write", [o], alpha, TraceSet::prs(re)).unwrap()
    }

    #[test]
    fn generated_traces_are_valid_members() {
        let spec = write_world();
        let suite = transition_cover(&spec, 6);
        assert!(!suite.traces.is_empty());
        for t in &suite.traces {
            assert!(spec.contains_trace(t), "generated trace {t} is not a member");
        }
    }

    #[test]
    fn suite_achieves_full_state_coverage() {
        let spec = write_world();
        let suite = transition_cover(&spec, 6);
        let report = state_coverage(&spec, &suite.traces, 6);
        assert!(report.is_complete(), "{report:?}");
        assert!(suite.transitions >= report.total, "at least one transition per state");
    }

    #[test]
    fn maximality_filter_removes_redundant_prefixes() {
        let spec = write_world();
        let suite = transition_cover(&spec, 6);
        for (i, t) in suite.traces.iter().enumerate() {
            for (j, other) in suite.traces.iter().enumerate() {
                if i != j {
                    assert!(!(t.is_prefix_of(other)), "{t} is a redundant prefix of {other}");
                }
            }
        }
    }

    #[test]
    fn empty_trace_set_yields_empty_suite() {
        let mut b = UniverseBuilder::new();
        let env = b.object_class("Env").unwrap();
        let o = b.object("o").unwrap();
        let m = b.method("M").unwrap();
        b.class_witnesses(env, 1).unwrap();
        let u = b.freeze();
        let spec = Specification::new(
            "Empty",
            [o],
            EventPattern::call(env, o, m).to_set(&u),
            TraceSet::predicate("false", |_| false),
        )
        .unwrap();
        let suite = transition_cover(&spec, 4);
        assert!(suite.traces.is_empty());
        assert_eq!(suite.transitions, 0);
    }

    #[test]
    fn universal_spec_covers_its_single_state_loop() {
        let mut b = UniverseBuilder::new();
        let env = b.object_class("Env").unwrap();
        let o = b.object("o").unwrap();
        let m = b.method("M").unwrap();
        b.class_witnesses(env, 1).unwrap();
        let u = b.freeze();
        let spec = Specification::new(
            "Uni",
            [o],
            EventPattern::call(env, o, m).to_set(&u),
            TraceSet::Universal,
        )
        .unwrap();
        let suite = transition_cover(&spec, 4);
        assert_eq!(suite.transitions, 1, "one self-loop per alphabet symbol set");
        assert!(state_coverage(&spec, &suite.traces, 4).is_complete());
    }
}

//! Quiescence analysis — a first step toward the liveness extension the
//! paper defers to future work (§9).
//!
//! Safety trace sets cannot *require* progress, but the automaton view
//! still distinguishes states that can extend from states that cannot.
//! A reachable **quiescent** state is a history after which the
//! specification permits no further observable event: the paper's
//! Example-5 deadlock is the special case where already the empty history
//! is quiescent.  This module computes:
//!
//! * whether the initial state is quiescent ([`QuiescenceReport::initial_quiescent`],
//!   the `T = {ε}` deadlock criterion);
//! * whether *some* reachable history is quiescent, with a shortest
//!   witness ([`QuiescenceReport::witness`]) — "this development step can
//!   paint the system into a corner";
//! * whether the specification is **perpetual** (never quiescent): every
//!   permitted history has a permitted extension.
//!
//! All over the canonical finitization; predicate backends are analysed
//! up to their trie depth, where the trie frontier is *not* reported as
//! quiescent (running out of depth is not running out of behaviour).

use pospec_core::{traceset_dfa, Specification};
use pospec_trace::Trace;
use std::sync::Arc;

/// The result of a quiescence analysis.
#[derive(Debug, Clone)]
pub struct QuiescenceReport {
    /// The empty history is already quiescent (Example 5's deadlock).
    pub initial_quiescent: bool,
    /// Number of reachable accepting states.
    pub reachable_states: usize,
    /// Number of reachable quiescent states.
    pub quiescent_states: usize,
    /// A shortest history leading to a quiescent state, if any.
    pub witness: Option<Trace>,
}

impl QuiescenceReport {
    /// Is the specification perpetual — no reachable history is a dead
    /// end?
    pub fn is_perpetual(&self) -> bool {
        self.quiescent_states == 0
    }
}

/// Analyse quiescence of a specification's trace set over the canonical
/// finitization.
///
/// For predicate-backed sets the analysis is depth-bounded: histories at
/// the trie frontier are treated as extensible (`frontier_guard` below),
/// so `witness` is reliable while `is_perpetual` is "perpetual up to the
/// depth".
pub fn quiescence(spec: &Specification, pred_depth: usize) -> QuiescenceReport {
    let u = spec.universe();
    let sigma = Arc::new(spec.alphabet().enumerate_concrete());
    let dfa = traceset_dfa(u, spec.trace_set(), sigma, pred_depth);
    let frontier_guard = if spec.trace_set().is_regular() { usize::MAX } else { pred_depth };
    // Reachable *accepting* states (non-accepting states are not histories
    // of the trace set), each with its shortest witness word; an empty
    // trace set has none and is vacuously perpetual.
    let mut prefixes = dfa.accepted_prefixes();
    let mut report = QuiescenceReport {
        initial_quiescent: false,
        reachable_states: 0,
        quiescent_states: 0,
        witness: None,
    };
    while let Some(state) = prefixes.next() {
        report.reachable_states += 1;
        if dfa.can_continue(state) {
            continue;
        }
        let word = prefixes.word(state);
        if word.len() >= frontier_guard {
            continue;
        }
        report.quiescent_states += 1;
        report.initial_quiescent |= word.is_empty();
        report.witness.get_or_insert_with(|| Trace::from_events(word));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pospec_alphabet::{EventPattern, UniverseBuilder};
    use pospec_core::TraceSet;
    use pospec_regex::{Re, Template};
    use pospec_trace::{MethodId, ObjectId};

    struct Fix {
        u: Arc<pospec_alphabet::Universe>,
        o: ObjectId,
        c: ObjectId,
        a: MethodId,
        b: MethodId,
    }

    fn fix() -> Fix {
        let mut bld = UniverseBuilder::new();
        let env = bld.object_class("Env").unwrap();
        let o = bld.object("o").unwrap();
        let c = bld.object_in("c", env).unwrap();
        let a = bld.method("A").unwrap();
        let b = bld.method("B").unwrap();
        bld.class_witnesses(env, 1).unwrap();
        Fix { u: bld.freeze(), o, c, a, b }
    }

    fn spec(f: &Fix, name: &str, ts: TraceSet) -> Specification {
        let env = f.u.class_by_name("Env").unwrap();
        let alpha = EventPattern::call(env, f.o, f.a)
            .to_set(&f.u)
            .union(&EventPattern::call(env, f.o, f.b).to_set(&f.u));
        Specification::new(name, [f.o], alpha, ts).unwrap()
    }

    #[test]
    fn starred_protocols_are_perpetual() {
        let f = fix();
        let re = Re::seq([
            Re::lit(Template::call(f.c, f.o, f.a)),
            Re::lit(Template::call(f.c, f.o, f.b)),
        ])
        .star();
        let s = spec(&f, "Loop", TraceSet::prs(re));
        let r = quiescence(&s, 6);
        assert!(r.is_perpetual(), "{r:?}");
        assert!(!r.initial_quiescent);
        assert!(r.witness.is_none());
        assert!(r.reachable_states >= 2);
    }

    #[test]
    fn finite_protocols_reach_quiescence_with_shortest_witness() {
        let f = fix();
        // Exactly one A then one B, then nothing.
        let re = Re::seq([
            Re::lit(Template::call(f.c, f.o, f.a)),
            Re::lit(Template::call(f.c, f.o, f.b)),
        ]);
        let s = spec(&f, "Once", TraceSet::prs(re));
        let r = quiescence(&s, 6);
        assert!(!r.is_perpetual());
        assert!(!r.initial_quiescent);
        let w = r.witness.expect("a dead end exists");
        assert_eq!(w.len(), 2, "shortest dead end is the completed protocol");
    }

    #[test]
    fn epsilon_only_sets_are_initially_quiescent() {
        let f = fix();
        let s = spec(&f, "EpsOnly", TraceSet::predicate("ε", |h: &Trace| h.is_empty()));
        let r = quiescence(&s, 5);
        assert!(r.initial_quiescent);
        assert_eq!(r.witness.unwrap().len(), 0);
    }

    #[test]
    fn universal_sets_are_perpetual() {
        let f = fix();
        let s = spec(&f, "Uni", TraceSet::Universal);
        let r = quiescence(&s, 5);
        assert!(r.is_perpetual());
    }

    #[test]
    fn predicate_frontier_is_not_reported_as_quiescent() {
        let f = fix();
        // "At most 3 events" with depth 3: the frontier at length 3 is a
        // genuine dead end ONLY because of the predicate, but it sits at
        // the trie frontier, so it must not be reported.
        let s = spec(&f, "Bounded", TraceSet::predicate("≤3", |h: &Trace| h.len() <= 3));
        let r = quiescence(&s, 3);
        assert!(r.is_perpetual(), "frontier misreported: {r:?}");
        // With a deeper trie the genuine dead ends at length 3 surface.
        let r2 = quiescence(&s, 5);
        assert!(!r2.is_perpetual());
        assert_eq!(r2.witness.unwrap().len(), 3);
    }
}

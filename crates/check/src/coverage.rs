//! Specification-state coverage of a set of runs.
//!
//! When a specification is validated by simulation (as `pospec-sim`
//! does), "no monitor violation" is only as convincing as the runs are
//! thorough.  This module measures how much of the specification's
//! behaviour a set of traces actually exercised: the fraction of
//! reachable automaton states visited, with shortest witnesses leading to
//! the unvisited ones (concrete suggestions for missing test scenarios).

use pospec_core::{traceset_dfa, Specification};
use pospec_trace::Trace;
use std::sync::Arc;

/// The result of a coverage measurement.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Reachable accepting states visited by at least one trace.
    pub visited: usize,
    /// All reachable accepting states.
    pub total: usize,
    /// Shortest histories reaching each unvisited state (test-gap
    /// suggestions), capped at 10.
    pub gap_witnesses: Vec<Trace>,
}

impl CoverageReport {
    /// Visited fraction in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.visited as f64 / self.total as f64
        }
    }

    /// Did the runs visit every reachable state?
    pub fn is_complete(&self) -> bool {
        self.visited == self.total
    }
}

/// Measure how many reachable specification states the given traces
/// visit.  Events outside the finitized alphabet end a trace's walk (the
/// remainder is not counted, matching monitor behaviour for foreign
/// events).
pub fn state_coverage(spec: &Specification, traces: &[Trace], pred_depth: usize) -> CoverageReport {
    let u = spec.universe();
    let sigma = Arc::new(spec.alphabet().enumerate_concrete());
    let dfa = traceset_dfa(u, spec.trace_set(), Arc::clone(&sigma), pred_depth);

    // Reachable accepting states with shortest witnesses.
    let mut prefixes = dfa.accepted_prefixes();
    let order: Vec<usize> = prefixes.by_ref().collect();
    let total = order.len();
    let start = dfa.start_state();

    // Walk the traces.
    let mut visited = vec![false; dfa.state_count().max(1)];
    for t in traces {
        let mut state = Some(start);
        if dfa.is_accepting(start) {
            visited[start] = true;
        }
        for e in t.iter() {
            state = state.and_then(|s| dfa.symbol_index(e).and_then(|sym| dfa.successor(s, sym)));
            match state {
                Some(s) if dfa.is_accepting(s) => visited[s] = true,
                _ => break,
            }
        }
    }

    let visited_count = order.iter().filter(|&&s| visited[s]).count();
    let gap_witnesses = order
        .iter()
        .filter(|&&s| !visited[s])
        .take(10)
        .map(|&s| Trace::from_events(prefixes.word(s)))
        .collect();
    CoverageReport { visited: visited_count, total, gap_witnesses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pospec_alphabet::{EventPattern, UniverseBuilder};
    use pospec_core::TraceSet;
    use pospec_regex::{Re, Template};
    use pospec_trace::{Event, MethodId, ObjectId};

    struct Fix {
        u: Arc<pospec_alphabet::Universe>,
        o: ObjectId,
        c: ObjectId,
        a: MethodId,
        b: MethodId,
    }

    fn fix() -> Fix {
        let mut bl = UniverseBuilder::new();
        let env = bl.object_class("Env").unwrap();
        let o = bl.object("o").unwrap();
        let c = bl.object_in("c", env).unwrap();
        let a = bl.method("A").unwrap();
        let b = bl.method("B").unwrap();
        bl.class_witnesses(env, 1).unwrap();
        Fix { u: bl.freeze(), o, c, a, b }
    }

    fn ab_spec(f: &Fix) -> Specification {
        let env = f.u.class_by_name("Env").unwrap();
        Specification::new(
            "AB",
            [f.o],
            EventPattern::call(env, f.o, f.a)
                .to_set(&f.u)
                .union(&EventPattern::call(env, f.o, f.b).to_set(&f.u)),
            TraceSet::prs(
                Re::seq([
                    Re::lit(Template::call(f.c, f.o, f.a)),
                    Re::lit(Template::call(f.c, f.o, f.b)),
                ])
                .star(),
            ),
        )
        .unwrap()
    }

    #[test]
    fn full_protocol_run_achieves_full_coverage() {
        let f = fix();
        let spec = ab_spec(&f);
        let run = Trace::from_events(vec![Event::call(f.c, f.o, f.a), Event::call(f.c, f.o, f.b)]);
        let r = state_coverage(&spec, &[run], 6);
        assert!(r.is_complete(), "{r:?}");
        assert_eq!(r.fraction(), 1.0);
        assert!(r.gap_witnesses.is_empty());
    }

    #[test]
    fn partial_runs_report_gaps_with_witnesses() {
        let f = fix();
        let spec = ab_spec(&f);
        // Only the empty run: the mid-protocol state is unvisited.
        let r = state_coverage(&spec, &[Trace::empty()], 6);
        assert!(!r.is_complete());
        assert_eq!(r.visited, 1);
        assert!(r.total >= 2);
        let witness = &r.gap_witnesses[0];
        assert_eq!(witness.len(), 1, "shortest path to the unvisited state");
        assert!(spec.contains_trace(witness), "gap witnesses are valid behaviours");
    }

    #[test]
    fn no_traces_means_zero_visited_beyond_nothing() {
        let f = fix();
        let spec = ab_spec(&f);
        let r = state_coverage(&spec, &[], 6);
        assert_eq!(r.visited, 0);
        assert!(!r.is_complete());
    }

    #[test]
    fn foreign_events_truncate_the_walk() {
        let f = fix();
        let spec = ab_spec(&f);
        // An event outside the finitized alphabet (o calls out) stops the
        // walk without crediting later states.
        let run = Trace::from_events(vec![
            Event::call(f.o, f.c, f.a), // foreign
            Event::call(f.c, f.o, f.a),
        ]);
        let r = state_coverage(&spec, &[run], 6);
        assert_eq!(r.visited, 1, "only the initial state is credited");
    }
}

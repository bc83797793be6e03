//! Bounded, optionally data-parallel exploration of trace sets.
//!
//! Trace sets are prefix closed, so the members of length `n+1` are
//! one-event extensions of members of length `n`: exploration is a
//! level-synchronous BFS over the prefix tree, embarrassingly parallel
//! within each level.  The threaded path parallelizes over the frontier
//! (each frontier trace extends independently) using the scoped-thread
//! engine of [`pospec_core::parallel`], which is the PERF2 experiment of
//! `EXPERIMENTS.md`.

use pospec_core::{parallel_find_first, parallel_flat_map_ref, Specification, TraceSet};
use pospec_trace::{Event, Trace};
use std::sync::Arc;

/// Sequential or thread-parallel exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Single-threaded reference implementation.
    Sequential,
    /// Parallel frontier expansion over OS threads.
    Threads,
}

/// Fast-path membership for one-event extensions of a known member.
///
/// For opaque predicates the largest-prefix-closed-subset semantics makes
/// `t·e` a member of the set iff `P(t·e)` holds when `t` is already a
/// member — re-checking every prefix would be `O(n²)` per level.
fn extends_member(u: &pospec_alphabet::Universe, ts: &TraceSet, extended: &Trace) -> bool {
    match ts {
        TraceSet::Predicate { pred, .. } => pred(extended),
        TraceSet::Conj(parts) => parts.iter().all(|p| extends_member(u, p, extended)),
        other => other.contains(u, extended),
    }
}

/// Enumerate every member of `ts` (over events drawn from `sigma`) of
/// length at most `depth`.  The result contains the empty trace when it is
/// a member, and is grouped by construction in BFS order.
pub fn enumerate_members(
    u: &Arc<pospec_alphabet::Universe>,
    ts: &TraceSet,
    sigma: &[Event],
    depth: usize,
    par: Parallelism,
) -> Vec<Trace> {
    let mut all = Vec::new();
    let empty = Trace::empty();
    if !ts.contains(u, &empty) {
        return all;
    }
    all.push(empty.clone());
    let mut frontier = vec![empty];
    for _ in 0..depth {
        let next: Vec<Trace> = match par {
            Parallelism::Sequential => frontier
                .iter()
                .flat_map(|t| {
                    sigma.iter().filter_map(|e| {
                        let t2 = t.extended(*e);
                        extends_member(u, ts, &t2).then_some(t2)
                    })
                })
                .collect(),
            Parallelism::Threads => parallel_flat_map_ref(&frontier, |t| {
                sigma
                    .iter()
                    .filter_map(|e| {
                        let t2 = t.extended(*e);
                        extends_member(u, ts, &t2).then_some(t2)
                    })
                    .collect()
            }),
        };
        if next.is_empty() {
            break;
        }
        all.extend(next.iter().cloned());
        frontier = next;
    }
    all
}

/// Enumerate the members of a specification's trace set over the canonical
/// finitization of its alphabet.
pub fn enumerate_spec_traces(spec: &Specification, depth: usize, par: Parallelism) -> Vec<Trace> {
    let sigma = spec.alphabet().enumerate_concrete();
    enumerate_members(spec.universe(), spec.trace_set(), &sigma, depth, par)
}

/// The number of members per length, up to `depth`.
pub fn count_members_by_len(spec: &Specification, depth: usize, par: Parallelism) -> Vec<u64> {
    let mut counts = vec![0u64; depth + 1];
    for t in enumerate_spec_traces(spec, depth, par) {
        counts[t.len()] += 1;
    }
    counts
}

/// Bounded falsification of Def.-2 condition 3: search for a member of
/// `T(Γ′)` (length ≤ `depth`) whose projection onto `α(Γ)` escapes
/// `T(Γ)`.  `None` means *no counterexample up to the bound* — not proof.
pub fn bounded_refinement_counterexample(
    concrete: &Specification,
    abstract_: &Specification,
    depth: usize,
    par: Parallelism,
) -> Option<Trace> {
    let u = concrete.universe();
    let sigma = concrete.alphabet().enumerate_concrete();
    let alpha_abs = abstract_.alphabet().clone();
    let check = |t: &Trace| {
        let proj = t.project(&alpha_abs);
        !abstract_.trace_set().contains(u, &proj)
    };
    let members = enumerate_members(u, concrete.trace_set(), &sigma, depth, par);
    match par {
        Parallelism::Sequential => members.into_iter().find(|t| check(t)),
        Parallelism::Threads => parallel_find_first(members, |t| check(t)),
    }
}

/// Bounded deadlock check: does the trace set contain no non-empty member
/// with events from its finitized alphabet, up to `depth`?
pub fn is_deadlocked_bounded(spec: &Specification, depth: usize) -> bool {
    enumerate_spec_traces(spec, depth, Parallelism::Sequential).iter().all(|t| t.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pospec_alphabet::{EventPattern, UniverseBuilder};
    use pospec_regex::{Re, Template, VarId};
    use pospec_trace::{MethodId, ObjectId};

    struct Fix {
        u: Arc<pospec_alphabet::Universe>,
        o: ObjectId,
        ow: MethodId,
        w: MethodId,
        cw: MethodId,
        objects: pospec_trace::ClassId,
    }

    fn fix() -> Fix {
        let mut b = UniverseBuilder::new();
        let objects = b.object_class("Objects").unwrap();
        let o = b.object("o").unwrap();
        let ow = b.method("OW").unwrap();
        let w = b.method("W").unwrap();
        let cw = b.method("CW").unwrap();
        b.class_witnesses(objects, 2).unwrap();
        Fix { u: b.freeze(), o, ow, w, cw, objects }
    }

    fn write_spec(f: &Fix) -> Specification {
        let alpha = EventPattern::call(f.objects, f.o, f.ow)
            .to_set(&f.u)
            .union(&EventPattern::call(f.objects, f.o, f.w).to_set(&f.u))
            .union(&EventPattern::call(f.objects, f.o, f.cw).to_set(&f.u));
        let x = VarId(0);
        let re = Re::seq([
            Re::lit(Template::call(x, f.o, f.ow)),
            Re::lit(Template::call(x, f.o, f.w)).star(),
            Re::lit(Template::call(x, f.o, f.cw)),
        ])
        .bind(x, f.objects)
        .star();
        Specification::new("Write", [f.o], alpha, TraceSet::prs(re)).unwrap()
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let f = fix();
        let spec = write_spec(&f);
        let mut seq = enumerate_spec_traces(&spec, 4, Parallelism::Sequential);
        let mut par = enumerate_spec_traces(&spec, 4, Parallelism::Threads);
        seq.sort();
        par.sort();
        assert_eq!(seq, par);
        assert!(!seq.is_empty());
    }

    #[test]
    fn counts_match_dfa_counts() {
        let f = fix();
        let spec = write_spec(&f);
        let counts = count_members_by_len(&spec, 4, Parallelism::Sequential);
        let sigma = Arc::new(spec.alphabet().enumerate_concrete());
        let dfa = pospec_core::traceset_dfa(&f.u, spec.trace_set(), sigma, 8);
        let dfa_counts = dfa.count_accepted(4);
        assert_eq!(counts, dfa_counts[..5].to_vec());
    }

    #[test]
    fn enumeration_respects_protocol() {
        let f = fix();
        let spec = write_spec(&f);
        for t in enumerate_spec_traces(&spec, 4, Parallelism::Threads) {
            assert!(spec.contains_trace(&t), "{t} escaped the trace set");
            // The first event of a non-empty member is an OW.
            if let Some(first) = t.events().first() {
                assert_eq!(first.method, f.ow);
            }
        }
    }

    #[test]
    fn bounded_counterexample_finds_violations() {
        let f = fix();
        let spec = write_spec(&f);
        // "Abstract" spec that forbids W entirely: spec ⋢ it, witness has W.
        let no_w = {
            let alpha = EventPattern::call(f.objects, f.o, f.w).to_set(&f.u);
            let w = f.w;
            Specification::new(
                "NoW",
                [f.o],
                alpha,
                TraceSet::predicate("no W", move |h: &Trace| h.count_method(w) == 0),
            )
            .unwrap()
        };
        let cex =
            bounded_refinement_counterexample(&spec, &no_w, 4, Parallelism::Sequential).unwrap();
        assert!(cex.count_method(f.w) >= 1);
        let cex_par =
            bounded_refinement_counterexample(&spec, &no_w, 4, Parallelism::Threads).unwrap();
        assert_eq!(cex.len(), cex_par.len(), "find_first gives the same BFS-first witness");
        // And a true refinement yields no bounded counterexample.
        assert!(bounded_refinement_counterexample(&spec, &spec, 4, Parallelism::Threads).is_none());
    }

    /// ABL1's pairs: a regular bracket protocol, and two counting
    /// predicates over `OW` (at most three, at most one).
    fn abl1_specs() -> (Specification, Specification, Specification) {
        let mut b = UniverseBuilder::new();
        let objects = b.object_class("Objects").unwrap();
        let o = b.object("o").unwrap();
        let ow = b.method("OW").unwrap();
        let cw = b.method("CW").unwrap();
        b.class_witnesses(objects, 1).unwrap();
        let u = b.freeze();
        let alpha_small = EventPattern::call(objects, o, ow).to_set(&u);
        let alpha_big = alpha_small.union(&EventPattern::call(objects, o, cw).to_set(&u));
        let x = VarId(0);
        let brackets = Specification::new(
            "Brackets",
            [o],
            alpha_big.clone(),
            TraceSet::prs(
                Re::seq([Re::lit(Template::call(x, o, ow)), Re::lit(Template::call(x, o, cw))])
                    .bind(x, objects)
                    .star(),
            ),
        )
        .unwrap();
        let too_much = Specification::new(
            "TooMuch",
            [o],
            alpha_big,
            TraceSet::predicate("≤3 OW", move |h: &Trace| h.count_method(ow) <= 3),
        )
        .unwrap();
        let at_most_one = Specification::new(
            "AtMostOne",
            [o],
            alpha_small,
            TraceSet::predicate("≤1 OW", move |h: &Trace| h.count_method(ow) <= 1),
        )
        .unwrap();
        (brackets, too_much, at_most_one)
    }

    /// ABL1: bounded falsification and the cached automaton engine give
    /// the same holds/fails answer on a negative and a positive pair.
    #[test]
    fn bounded_search_agrees_with_the_cached_engine() {
        let (brackets, too_much, at_most_one) = abl1_specs();
        let cache = pospec_core::DfaCache::new();
        for (concrete, abstract_, depth, holds) in
            [(&too_much, &at_most_one, 6, false), (&brackets, &brackets, 5, true)]
        {
            let engine = pospec_core::check_refinement_cached(&cache, concrete, abstract_, depth);
            for par in [Parallelism::Sequential, Parallelism::Threads] {
                let bounded = bounded_refinement_counterexample(concrete, abstract_, depth, par);
                assert_eq!(bounded.is_none(), engine.holds(), "{}: {par:?}", concrete.name());
            }
            assert_eq!(engine.holds(), holds, "{} ⊑ {}", concrete.name(), abstract_.name());
        }
    }

    #[test]
    fn deadlock_detection_bounded() {
        let f = fix();
        let spec = write_spec(&f);
        assert!(!is_deadlocked_bounded(&spec, 3));
        // A spec whose set admits only ε over its alphabet.
        let eps_only = Specification::new(
            "EpsOnly",
            [f.o],
            spec.alphabet().clone(),
            TraceSet::predicate("ε only", |h: &Trace| h.is_empty()),
        )
        .unwrap();
        assert!(is_deadlocked_bounded(&eps_only, 3));
    }

    #[test]
    fn empty_set_enumerates_to_nothing() {
        let f = fix();
        let spec = Specification::new(
            "Nothing",
            [f.o],
            write_spec(&f).alphabet().clone(),
            TraceSet::predicate("false", |_: &Trace| false),
        )
        .unwrap();
        assert!(enumerate_spec_traces(&spec, 3, Parallelism::Sequential).is_empty());
    }
}

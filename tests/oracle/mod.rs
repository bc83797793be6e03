//! The eager condition-3 pipeline of Def. 2, kept as the reference the
//! engine is checked against.
//!
//! The engine (`check_refinement`, `check_refinement_cached` and the
//! batch APIs) decides condition 3 by an on-the-fly walk over the product
//! of the concrete automaton with the complement of the lifted abstract
//! one.  This oracle builds every automaton of that construction eagerly
//! — the lift, the region automata, the product — and asks
//! `ConcreteDfa::included_in` for a shortest counterexample.  Both
//! searches are breadth-first in symbol order, so the two must agree on
//! the whole `Verdict`: holds or fails, the exactness flag, and the
//! witness trace.

use pospec_core::{refinement_conditions, traceset_dfa, FailedCondition, Specification, Verdict};
use pospec_regex::{accepts_word_of_length_at_least, ConcreteDfa};
use pospec_trace::Trace;
use std::sync::Arc;

/// `concrete ⊑ abstract_` (Def. 2), with condition 3 decided on
/// materialized automata.
pub fn eager_check_refinement(
    concrete: &Specification,
    abstract_: &Specification,
    pred_depth: usize,
) -> Verdict {
    let conds = refinement_conditions(concrete, abstract_);
    if !conds.objects_ok {
        return Verdict::Fails { reason: FailedCondition::Objects, counterexample: None };
    }
    if !conds.alphabet_ok {
        return Verdict::Fails { reason: FailedCondition::Alphabet, counterexample: None };
    }
    let u = concrete.universe();
    let (concrete_ts, abstract_ts) = (concrete.trace_set(), abstract_.trace_set());
    let sigma_conc = Arc::new(concrete.alphabet().enumerate_concrete());
    let sigma_abs = Arc::new(abstract_.alphabet().enumerate_concrete());
    let a = traceset_dfa(u, concrete_ts, Arc::clone(&sigma_conc), pred_depth);
    let b_lifted = traceset_dfa(u, abstract_ts, Arc::clone(&sigma_abs), pred_depth)
        .lift_to(Arc::clone(&sigma_conc));
    let fails = |word| Verdict::Fails {
        reason: FailedCondition::Traces,
        counterexample: Some(Trace::from_events(word)),
    };
    let conc_regular = concrete_ts.is_regular();
    let abs_regular = abstract_ts.is_regular();
    if conc_regular && abs_regular {
        return match a.included_in(&b_lifted) {
            Ok(()) => Verdict::Holds { exact: true },
            Err(word) => fails(word),
        };
    }
    // The comparison region: concrete length at most the depth when the
    // concrete side is a trie, projected length at most the depth when
    // the abstract side is one.
    let mut region = ConcreteDfa::universal(Arc::clone(&sigma_conc));
    if !conc_regular {
        region =
            region.intersect(&ConcreteDfa::length_at_most(Arc::clone(&sigma_conc), pred_depth));
    }
    if !abs_regular {
        region = region.intersect(
            &ConcreteDfa::length_at_most(Arc::clone(&sigma_abs), pred_depth)
                .lift_to(Arc::clone(&sigma_conc)),
        );
    }
    let mut clipped = a.included_in(&region).is_err();
    if !conc_regular && !clipped {
        // A member on the trie's horizon may have unexplored extensions.
        clipped = accepts_word_of_length_at_least(&a, pred_depth);
    }
    match a.intersect(&region).included_in(&b_lifted) {
        Ok(()) => Verdict::Holds {
            exact: !clipped
                && concrete_ts.trie_exact_to_depth()
                && abstract_ts.trie_exact_to_depth(),
        },
        Err(word) => fails(word),
    }
}

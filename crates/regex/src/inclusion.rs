//! On-the-fly language inclusion `L(A) ∩ region ⊆ L(B↑)`.
//!
//! This is the one engine behind every inclusion into a lifted automaton:
//! Def. 2's condition 3, refinement up to a morphism, and component
//! soundness.  An eager pipeline would materialize `lift(B)`, the region
//! automaton, and the full product `A × ¬lift(B)` before asking for a
//! counterexample (the workspace keeps that pipeline only as a test
//! oracle).  This module explores exactly the same product **lazily**:
//! product states `(a-state, lifted-b-state, length counters)` are
//! discovered breadth-first in symbol order and the search stops at the
//! first counterexample, so failing checks touch a fraction of the
//! product and no lifted automaton is ever built.
//!
//! The lifted view of `B` is simulated symbol-by-symbol: an `A`-symbol
//! that belongs to `B`'s alphabet steps `B`, any other symbol self-loops
//! (the inverse-projection semantics of [`ConcreteDfa::lift_to`]).  The
//! region bounds of the partial (predicate-trie) comparison are simulated
//! the same way — a concrete-length counter and a projected-length
//! counter, either of which prunes the branch when its bound is passed.
//!
//! Because both the eager and the lazy search are breadth-first in symbol
//! order over isomorphic graphs, the counterexample is the same word: the
//! lexicographically-least (in alphabet order) among the shortest
//! offending words, a property of the *language*, not the automaton.
//! [`lazy_lifted_inclusion`] therefore returns witnesses identical to the
//! eager `intersect(complement)`/`find_accepted_word` path even when the
//! operands have been minimized.

use crate::dfa::ConcreteDfa;
use pospec_trace::Event;
use std::collections::{HashMap, VecDeque};

/// The result of a lazy inclusion run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InclusionOutcome {
    /// A shortest word of `L(A) ∩ region ∖ L(B↑)`, if inclusion fails —
    /// identical to the eager product pipeline's witness.
    pub counterexample: Option<Vec<Event>>,
    /// Product states dequeued before the search concluded.
    pub explored: u64,
}

impl InclusionOutcome {
    /// Did the search stop early at a counterexample (instead of proving
    /// inclusion by exhausting the reachable product)?
    pub fn early_exit(&self) -> bool {
        self.counterexample.is_some()
    }
}

/// Dead lifted-`b` state marker.
const B_DEAD: u32 = u32::MAX;

/// For each `a`-symbol: `b`'s symbol index, or `None` for a foreign
/// symbol (which self-loops in the lifted view).
fn lift_map(a: &ConcreteDfa, b: &ConcreteDfa) -> Vec<Option<u32>> {
    a.alphabet.iter().map(|e| b.index.get(e).map(|&j| j as u32)).collect()
}

/// Check `L(a) ∩ region ⊆ L(lift(b))` on the fly, where `lift(b)` is
/// `b`'s inverse projection onto `a`'s alphabet and the region keeps the
/// words whose concrete length is at most `conc_bound` (if set) and whose
/// projection onto `b`'s alphabet is at most `proj_bound` long (if set).
///
/// Returns the first (shortest, lex-least) counterexample found, plus the
/// number of product states explored.  With both bounds `None` this is
/// exactly `a.included_in(&b.lift_to(a.alphabet))`, lazily.
pub fn lazy_lifted_inclusion(
    a: &ConcreteDfa,
    b: &ConcreteDfa,
    conc_bound: Option<usize>,
    proj_bound: Option<usize>,
) -> InclusionOutcome {
    let map = lift_map(a, b);
    // Node = (a-state, lifted-b-state, concrete length, projected length);
    // counters are only tracked (non-zero) when their bound is active.
    type Key = (u32, u32, u32, u32);
    let start: Key = (a.start as u32, b.start as u32, 0, 0);
    let mut ids: HashMap<Key, u32> = HashMap::new();
    let mut nodes: Vec<(Key, Option<(u32, u32)>)> = vec![(start, None)];
    ids.insert(start, 0);
    let mut q: VecDeque<u32> = VecDeque::from([0]);
    let mut explored = 0u64;
    while let Some(id) = q.pop_front() {
        explored += 1;
        let (sa, sb, ca, cb) = nodes[id as usize].0;
        let a_accepts = a.accepting[sa as usize];
        let b_accepts = sb != B_DEAD && b.accepting[sb as usize];
        if a_accepts && !b_accepts {
            // Reconstruct the witness along the parent chain.
            let mut word = Vec::new();
            let mut cur = id;
            while let Some((p, sym)) = nodes[cur as usize].1 {
                word.push(a.alphabet[sym as usize]);
                cur = p;
            }
            word.reverse();
            return InclusionOutcome { counterexample: Some(word), explored };
        }
        for (sym, ta) in a.trans[sa as usize].iter().enumerate() {
            let Some(ta) = ta else { continue };
            if let Some(bound) = conc_bound {
                if ca as usize + 1 > bound {
                    continue; // outside the region: the branch is silent
                }
            }
            let counted = map[sym].is_some();
            if let Some(bound) = proj_bound {
                if counted && cb as usize + 1 > bound {
                    continue;
                }
            }
            let tb = match (sb, map[sym]) {
                (B_DEAD, _) => B_DEAD,
                (sb, Some(j)) => match b.trans[sb as usize][j as usize] {
                    Some(t) => t,
                    None => B_DEAD,
                },
                (sb, None) => sb, // foreign symbol: self-loop
            };
            let next: Key = (
                *ta,
                tb,
                if conc_bound.is_some() { ca + 1 } else { 0 },
                if proj_bound.is_some() && counted { cb + 1 } else { cb },
            );
            if let std::collections::hash_map::Entry::Vacant(e) = ids.entry(next) {
                e.insert(nodes.len() as u32);
                nodes.push((next, Some((id, sym as u32))));
                q.push_back((nodes.len() - 1) as u32);
            }
        }
    }
    InclusionOutcome { counterexample: None, explored }
}

/// Does `a` accept a word *outside* the region — longer than `conc_bound`,
/// or with more than `proj_bound` symbols of `b`'s alphabet?  The lazy
/// form of `a.included_in(&region).is_err()`, deciding whether a partial
/// comparison clipped anything away.  Counters saturate one past their
/// bound, so the walk terminates on every automaton.
pub fn accepts_outside_bounds(
    a: &ConcreteDfa,
    b: &ConcreteDfa,
    conc_bound: Option<usize>,
    proj_bound: Option<usize>,
) -> bool {
    if conc_bound.is_none() && proj_bound.is_none() {
        return false;
    }
    let map = lift_map(a, b);
    let cap = |count: u32, bound: Option<usize>| match bound {
        Some(k) => count.min(k as u32 + 1),
        None => 0,
    };
    let over = |count: u32, bound: Option<usize>| match bound {
        Some(k) => count as usize > k,
        None => false,
    };
    let start = (a.start as u32, 0u32, 0u32);
    let mut seen = std::collections::HashSet::from([start]);
    let mut q = VecDeque::from([start]);
    while let Some((sa, ca, cb)) = q.pop_front() {
        if a.accepting[sa as usize] && (over(ca, conc_bound) || over(cb, proj_bound)) {
            return true;
        }
        for (sym, ta) in a.trans[sa as usize].iter().enumerate() {
            let Some(ta) = ta else { continue };
            let counted = map[sym].is_some();
            let next =
                (*ta, cap(ca + 1, conc_bound), cap(if counted { cb + 1 } else { cb }, proj_bound));
            if seen.insert(next) {
                q.push_back(next);
            }
        }
    }
    false
}

/// Does `a` accept a word of length ≥ `len`?  Used for the predicate-trie
/// horizon test: a member sitting on (or beyond) the depth horizon may
/// have unexplored extensions, so the verdict cannot be exact.  `len == 0`
/// asks whether the language is non-empty, which handles the depth-0 trie
/// uniformly (an empty language was explored completely even at depth 0).
pub fn accepts_word_of_length_at_least(a: &ConcreteDfa, len: usize) -> bool {
    let cap = len as u32;
    let start = (a.start as u32, 0u32);
    let mut seen = std::collections::HashSet::from([start]);
    let mut q = VecDeque::from([start]);
    while let Some((sa, l)) = q.pop_front() {
        if l == cap && a.accepting[sa as usize] {
            return true;
        }
        for ta in a.trans[sa as usize].iter().flatten() {
            let next = (*ta, (l + 1).min(cap));
            if seen.insert(next) {
                q.push_back(next);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use pospec_trace::{MethodId, ObjectId};
    use std::sync::Arc;

    fn sigma(n: usize) -> Arc<Vec<Event>> {
        Arc::new(
            (0..n)
                .map(|i| Event::call(ObjectId(100 + i as u32), ObjectId(0), MethodId(i as u32)))
                .collect(),
        )
    }

    fn sub_alphabet(s: &Arc<Vec<Event>>, take: usize) -> Arc<Vec<Event>> {
        Arc::new(s.iter().take(take).copied().collect())
    }

    #[test]
    fn lazy_matches_eager_unbounded() {
        let s = sigma(3);
        let small = sub_alphabet(&s, 2);
        let a = ConcreteDfa::length_at_most(Arc::clone(&s), 3);
        let b = ConcreteDfa::length_at_most(Arc::clone(&small), 1);
        let eager = a.included_in(&b.lift_to(Arc::clone(&s)));
        let lazy = lazy_lifted_inclusion(&a, &b, None, None);
        assert_eq!(eager.err(), lazy.counterexample, "identical witness");
        assert!(lazy.early_exit());

        // And an inclusion that holds: a word ≤1 over the sub-alphabet
        // projects to ≤1 symbols of b's alphabet.
        let a2 = ConcreteDfa::length_at_most(Arc::clone(&small), 1).lift_to(Arc::clone(&s));
        let holds = lazy_lifted_inclusion(&a2, &b, None, None);
        assert_eq!(holds.counterexample, None);
        assert!(!holds.early_exit());
        assert!(holds.explored > 0);
    }

    #[test]
    fn early_exit_explores_less_than_the_product() {
        let s = sigma(2);
        let a = ConcreteDfa::universal(Arc::clone(&s));
        let b = ConcreteDfa::empty_lang(Arc::clone(&s));
        let out = lazy_lifted_inclusion(&a, &b, None, None);
        // The very first product state (ε) is already a counterexample.
        assert_eq!(out.counterexample, Some(vec![]));
        assert_eq!(out.explored, 1);
    }

    #[test]
    fn region_bounds_mask_deep_counterexamples() {
        let s = sigma(2);
        let a = ConcreteDfa::length_at_most(Arc::clone(&s), 5);
        let b = ConcreteDfa::length_at_most(Arc::clone(&s), 3);
        // Unbounded: fails with a length-4 witness.
        let unbounded = lazy_lifted_inclusion(&a, &b, None, None);
        assert_eq!(unbounded.counterexample.as_ref().map(Vec::len), Some(4));
        // Concrete region bound 3 clips the witness away.
        let clipped = lazy_lifted_inclusion(&a, &b, Some(3), None);
        assert_eq!(clipped.counterexample, None);
        // The projected bound does the same (b's alphabet is the whole
        // alphabet here, so the counters coincide).
        let clipped2 = lazy_lifted_inclusion(&a, &b, None, Some(3));
        assert_eq!(clipped2.counterexample, None);
    }

    #[test]
    fn projected_bound_counts_only_b_symbols() {
        let s = sigma(3);
        let small = sub_alphabet(&s, 1);
        let a = ConcreteDfa::universal(Arc::clone(&s));
        let b = ConcreteDfa::length_at_most(Arc::clone(&small), 0);
        // Projection bound 0: only words with zero `small`-symbols stay in
        // the region, and those are all accepted by lift(b). A word with
        // one small-symbol would be a counterexample but sits outside.
        let out = lazy_lifted_inclusion(&a, &b, None, Some(0));
        assert_eq!(out.counterexample, None);
        // With the bound at 1, the single-symbol word is inside and fails.
        let out = lazy_lifted_inclusion(&a, &b, None, Some(1));
        assert_eq!(out.counterexample.map(|w| w.len()), Some(1));
    }

    #[test]
    fn outside_bounds_detection() {
        let s = sigma(2);
        let small = sub_alphabet(&s, 1);
        let len3 = ConcreteDfa::length_at_most(Arc::clone(&s), 3);
        let b = ConcreteDfa::universal(Arc::clone(&small));
        assert!(!accepts_outside_bounds(&len3, &b, Some(3), None));
        assert!(accepts_outside_bounds(&len3, &b, Some(2), None));
        assert!(!accepts_outside_bounds(&len3, &b, None, None));
        // Projected: only symbol 0 counts. The sub-language of words with
        // ≤3 total symbols contains one with 3 counted symbols.
        assert!(accepts_outside_bounds(&len3, &b, None, Some(2)));
        assert!(!accepts_outside_bounds(&len3, &b, None, Some(3)));
    }

    #[test]
    fn length_at_least_handles_zero_uniformly() {
        let s = sigma(2);
        let uni = ConcreteDfa::universal(Arc::clone(&s));
        let empty = ConcreteDfa::empty_lang(Arc::clone(&s));
        let eps = ConcreteDfa::eps_lang(Arc::clone(&s));
        assert!(accepts_word_of_length_at_least(&uni, 0));
        assert!(accepts_word_of_length_at_least(&uni, 7));
        assert!(!accepts_word_of_length_at_least(&empty, 0), "empty language has no members");
        assert!(accepts_word_of_length_at_least(&eps, 0));
        assert!(!accepts_word_of_length_at_least(&eps, 1));
        let len2 = ConcreteDfa::length_at_most(Arc::clone(&s), 2);
        assert!(accepts_word_of_length_at_least(&len2, 2));
        assert!(!accepts_word_of_length_at_least(&len2, 3));
    }
}

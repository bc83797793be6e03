//! Deterministic automata over a finitized concrete alphabet.
//!
//! Exact refinement and composition checking needs decision procedures on
//! trace sets: inclusion (Def. 2 condition 3), product (the conjunction in
//! Def. 4/11), and **hiding** (erasing internal events, the `− I(…)`
//! part of composition).  Over the infinite symbolic alphabet these are
//! undecidable in general, but over a *finitization* — a finite concrete
//! alphabet obtained by sampling witnesses from every infinite granule —
//! they reduce to standard automaton constructions, implemented here:
//!
//! * [`ConcreteDfa::from_nfa`] — subset construction over the binding NFA's
//!   simulation states;
//! * [`ConcreteDfa::intersect`] / [`ConcreteDfa::union`] — product automata;
//! * [`ConcreteDfa::complement`] — totalization + flip;
//! * [`ConcreteDfa::included_in`] — emptiness of `L(A) ∩ ¬L(B)` with a
//!   shortest counterexample word;
//! * [`ConcreteDfa::accepted_prefixes`] — the one breadth-first search over
//!   the states of accepted words, each with its shortest, least word
//!   ([`ConcreteDfa::live_symbols`], [`ConcreteDfa::quiescent_word`],
//!   quiescence, coverage and test generation);
//! * [`ConcreteDfa::erase`] — hide a subset of the alphabet by treating its
//!   symbols as ε and re-determinizing (the observable behaviour of a
//!   composition);
//! * [`ConcreteDfa::lift_to`] — inverse projection onto a larger alphabet
//!   (unconstrained symbols self-loop), which is how a component
//!   specification constrains only *its own* projection of a joint trace.

use crate::nfa::{Nfa, SimSet};
use pospec_alphabet::Universe;
use pospec_trace::{Event, Trace};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// How subset-construction states are marked accepting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptMode {
    /// Accept when an accepting NFA state is present: the automaton
    /// recognizes the exact language `L(R)`.
    Exact,
    /// Accept when a *live* NFA state is present: the automaton recognizes
    /// the prefix closure `{h | h prs R}` — the trace-set semantics.
    PrefixLive,
}

/// A deterministic automaton over an explicit finite alphabet of events.
///
/// A missing transition (`None`) is an implicit dead state: the word and
/// all its extensions are rejected.
#[derive(Debug, Clone)]
pub struct ConcreteDfa {
    pub(crate) alphabet: Arc<Vec<Event>>,
    pub(crate) index: HashMap<Event, usize>,
    /// `trans[state][symbol]`.
    pub(crate) trans: Vec<Vec<Option<u32>>>,
    pub(crate) accepting: Vec<bool>,
    pub(crate) start: usize,
}

fn index_of(alphabet: &[Event]) -> HashMap<Event, usize> {
    alphabet.iter().enumerate().map(|(i, e)| (*e, i)).collect()
}

impl ConcreteDfa {
    /// Determinize a binding NFA over the given concrete alphabet.
    pub fn from_nfa(u: &Universe, nfa: &Nfa, alphabet: Arc<Vec<Event>>, mode: AcceptMode) -> Self {
        let accepting_of = |set: &SimSet| match mode {
            AcceptMode::Exact => nfa.any_accepting(set),
            AcceptMode::PrefixLive => nfa.any_live(set),
        };
        let start_set = nfa.initial();
        let mut states: Vec<SimSet> = vec![start_set.clone()];
        let mut ids: HashMap<SimSet, u32> = HashMap::new();
        ids.insert(start_set, 0);
        let mut trans: Vec<Vec<Option<u32>>> = Vec::new();
        let mut accepting = Vec::new();
        let mut i = 0usize;
        while i < states.len() {
            let set = states[i].clone();
            accepting.push(accepting_of(&set));
            let mut row = Vec::with_capacity(alphabet.len());
            for e in alphabet.iter() {
                let next = nfa.step(u, &set, e);
                if next.is_empty() {
                    row.push(None);
                } else {
                    let id = *ids.entry(next.clone()).or_insert_with(|| {
                        states.push(next);
                        (states.len() - 1) as u32
                    });
                    row.push(Some(id));
                }
            }
            trans.push(row);
            i += 1;
        }
        let index = index_of(&alphabet);
        ConcreteDfa { alphabet, index, trans, accepting, start: 0 }
    }

    /// The automaton accepting **every** word over the alphabet
    /// (unrestricted trace sets like `T(Read)` of Example 1).
    pub fn universal(alphabet: Arc<Vec<Event>>) -> Self {
        let index = index_of(&alphabet);
        let trans = vec![vec![Some(0); alphabet.len()]];
        ConcreteDfa { alphabet, index, trans, accepting: vec![true], start: 0 }
    }

    /// The automaton accepting nothing.
    pub fn empty_lang(alphabet: Arc<Vec<Event>>) -> Self {
        let index = index_of(&alphabet);
        let trans = vec![vec![None; alphabet.len()]];
        ConcreteDfa { alphabet, index, trans, accepting: vec![false], start: 0 }
    }

    /// The automaton accepting every word of length at most `k` — used to
    /// truncate languages to a comparison depth.
    pub fn length_at_most(alphabet: Arc<Vec<Event>>, k: usize) -> Self {
        let index = index_of(&alphabet);
        let n = alphabet.len();
        let mut trans = Vec::with_capacity(k + 1);
        for i in 0..=k {
            if i < k {
                trans.push(vec![Some((i + 1) as u32); n]);
            } else {
                trans.push(vec![None; n]);
            }
        }
        ConcreteDfa { alphabet, index, trans, accepting: vec![true; k + 1], start: 0 }
    }

    /// The one-state automaton accepting exactly the words whose symbols
    /// all satisfy `allowed` — the `Seq[α]` side condition of a trace set
    /// viewed over a larger alphabet.
    pub fn symbol_filter(alphabet: Arc<Vec<Event>>, allowed: impl Fn(&Event) -> bool) -> Self {
        let index = index_of(&alphabet);
        let trans =
            vec![alphabet.iter().map(|e| if allowed(e) { Some(0) } else { None }).collect()];
        ConcreteDfa { alphabet, index, trans, accepting: vec![true], start: 0 }
    }

    /// The automaton accepting only the empty word.
    pub fn eps_lang(alphabet: Arc<Vec<Event>>) -> Self {
        let index = index_of(&alphabet);
        let trans = vec![vec![None; alphabet.len()]];
        ConcreteDfa { alphabet, index, trans, accepting: vec![true], start: 0 }
    }

    /// Build from an explicit membership predicate by unfolding the prefix
    /// tree up to `depth` and merging nothing (a trie acceptor).  Exact for
    /// words up to `depth`; all longer words are rejected.  Used to wrap
    /// opaque predicate trace sets when a bounded automaton view is needed.
    pub fn from_membership(
        alphabet: Arc<Vec<Event>>,
        depth: usize,
        mut member: impl FnMut(&Trace) -> bool,
    ) -> Self {
        let index = index_of(&alphabet);
        let mut trans: Vec<Vec<Option<u32>>> = Vec::new();
        let mut accepting = Vec::new();
        // State 0 is the root (empty trace); build a trie of member traces.
        #[allow(clippy::type_complexity)]
        fn build(
            alphabet: &[Event],
            trace: &mut Vec<Event>,
            depth: usize,
            member: &mut impl FnMut(&Trace) -> bool,
            trans: &mut Vec<Vec<Option<u32>>>,
            accepting: &mut Vec<bool>,
        ) -> u32 {
            let id = trans.len() as u32;
            trans.push(vec![None; alphabet.len()]);
            accepting.push(true); // the caller only recurses into members
            if depth == 0 {
                return id;
            }
            for (i, e) in alphabet.iter().enumerate() {
                trace.push(*e);
                if member(&Trace::from_events(trace.clone())) {
                    let child = build(alphabet, trace, depth - 1, member, trans, accepting);
                    trans[id as usize][i] = Some(child);
                }
                trace.pop();
            }
            id
        }
        let mut scratch = Vec::new();
        if member(&Trace::empty()) {
            build(&alphabet, &mut scratch, depth, &mut member, &mut trans, &mut accepting);
        } else {
            trans.push(vec![None; alphabet.len()]);
            accepting.push(false);
        }
        ConcreteDfa { alphabet, index, trans, accepting, start: 0 }
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &Arc<Vec<Event>> {
        &self.alphabet
    }

    /// Number of explicit states.
    pub fn state_count(&self) -> usize {
        self.trans.len()
    }

    /// The transition table, `rows()[state][symbol]` (`None` = dead).
    ///
    /// Exposed for serialisation (the persistent automaton cache);
    /// semantic queries should go through [`ConcreteDfa::successor`].
    pub fn rows(&self) -> &[Vec<Option<u32>>] {
        &self.trans
    }

    /// The accepting mask, indexed by state.
    pub fn accepting_mask(&self) -> &[bool] {
        &self.accepting
    }

    /// Reassemble an automaton from its serialised parts, validating
    /// every structural invariant (row widths, target and start bounds)
    /// so a corrupt or truncated cache file can never yield an automaton
    /// that indexes out of bounds.
    pub fn from_parts(
        alphabet: Arc<Vec<Event>>,
        trans: Vec<Vec<Option<u32>>>,
        accepting: Vec<bool>,
        start: usize,
    ) -> Result<ConcreteDfa, String> {
        let states = trans.len();
        if states == 0 {
            return Err("automaton must have at least one state".into());
        }
        if accepting.len() != states {
            return Err(format!(
                "accepting mask covers {} state(s), transition table has {states}",
                accepting.len()
            ));
        }
        if start >= states {
            return Err(format!("start state {start} out of range (0..{states})"));
        }
        for (s, row) in trans.iter().enumerate() {
            if row.len() != alphabet.len() {
                return Err(format!(
                    "state {s} has {} transition(s), alphabet has {} symbol(s)",
                    row.len(),
                    alphabet.len()
                ));
            }
            if let Some(t) = row.iter().flatten().find(|t| **t as usize >= states) {
                return Err(format!("state {s} targets out-of-range state {t}"));
            }
        }
        let index = index_of(&alphabet);
        if index.len() != alphabet.len() {
            return Err("alphabet contains duplicate events".into());
        }
        Ok(ConcreteDfa { alphabet, index, trans, accepting, start })
    }

    fn assert_same_alphabet(&self, other: &ConcreteDfa) {
        // Interned alphabets (the automaton cache hands out one `Arc` per
        // structural alphabet) make this an O(1) pointer check; the content
        // comparison only runs for automata built outside the cache.
        if Arc::ptr_eq(&self.alphabet, &other.alphabet) {
            return;
        }
        assert_eq!(
            &*self.alphabet, &*other.alphabet,
            "automata over different alphabets cannot be combined"
        );
    }

    /// The position of `e` in the alphabet, if present.
    pub fn symbol_index(&self, e: &Event) -> Option<usize> {
        self.index.get(e).copied()
    }

    /// Run the automaton; `None` means the word fell off the graph.
    fn run<'a>(&self, events: impl IntoIterator<Item = &'a Event>) -> Option<usize> {
        let mut s = self.start;
        for e in events {
            let i = *self.index.get(e)?;
            match self.trans[s][i] {
                Some(t) => s = t as usize,
                None => return None,
            }
        }
        Some(s)
    }

    /// Does the automaton accept the word?
    pub fn accepts<'a>(&self, events: impl IntoIterator<Item = &'a Event>) -> bool {
        self.run(events).map(|s| self.accepting[s]).unwrap_or(false)
    }

    /// The state reached by a word (`None` if the run dies), for callers
    /// that need to deduplicate histories by automaton state.
    pub fn state_after<'a>(&self, events: impl IntoIterator<Item = &'a Event>) -> Option<usize> {
        self.run(events)
    }

    /// Is the state accepting?
    pub fn is_accepting(&self, state: usize) -> bool {
        self.accepting[state]
    }

    /// The start state.
    pub fn start_state(&self) -> usize {
        self.start
    }

    /// The successor of `state` on the `sym`-th alphabet symbol.
    pub fn successor(&self, state: usize, sym: usize) -> Option<usize> {
        self.trans[state][sym].map(|t| t as usize)
    }

    /// Membership of a [`Trace`].
    pub fn contains_trace(&self, h: &Trace) -> bool {
        self.accepts(h.iter())
    }

    /// Is the accepted language empty?
    pub fn is_empty_lang(&self) -> bool {
        self.find_accepted_word().is_none()
    }

    /// Does the automaton accept only the empty word (or nothing)?
    ///
    /// The *deadlock* criterion of Examples 4/5: a composition whose trace
    /// set is `{ε}` can never perform an observable event.
    pub fn accepts_only_epsilon(&self) -> bool {
        // Accepting states must be unreachable after ≥1 symbol.
        let mut seen = vec![false; self.trans.len()];
        let mut q = VecDeque::new();
        // Seed with the successors of the start state (≥1 symbol consumed).
        for t in self.trans[self.start].iter().flatten() {
            if !seen[*t as usize] {
                seen[*t as usize] = true;
                q.push_back(*t as usize);
            }
        }
        while let Some(s) = q.pop_front() {
            if self.accepting[s] {
                return false;
            }
            for t in self.trans[s].iter().flatten() {
                if !seen[*t as usize] {
                    seen[*t as usize] = true;
                    q.push_back(*t as usize);
                }
            }
        }
        true
    }

    /// Can `state` continue, i.e. does some symbol lead to an accepting
    /// state?  In a prefix-closed automaton a reachable accepting state
    /// that cannot continue is a *quiescent* history (Ex. 4/5).
    pub fn can_continue(&self, state: usize) -> bool {
        self.trans[state].iter().flatten().any(|&t| self.accepting[t as usize])
    }

    /// The states reachable from the start through accepting states —
    /// in a prefix-closed automaton, the states of the accepted words —
    /// searched breadth-first in symbol order.
    ///
    /// The search is the one walk behind every accepted-prefix question
    /// (live symbols, quiescent states, state and transition coverage).
    /// It is lazy: each state is expanded when the iterator yields it, so
    /// a caller that stops early pays only for the states it has seen.
    /// Because it is breadth-first in symbol order, the word it records
    /// for a state is the shortest, then lexicographically least (in
    /// alphabet order), accepted word reaching that state.
    pub fn accepted_prefixes(&self) -> AcceptedPrefixes<'_> {
        let mut search = AcceptedPrefixes {
            dfa: self,
            queue: VecDeque::new(),
            seen: vec![false; self.trans.len()],
            parent: vec![None; self.trans.len()],
        };
        if self.accepting[self.start] {
            search.seen[self.start] = true;
            search.queue.push_back(self.start);
        }
        search
    }

    /// Per-symbol liveness: `live[sym]` iff some accepted word contains the
    /// symbol.  In a prefix-closed automaton that is an accepting→accepting
    /// transition on `sym` out of a state of an accepted word.
    pub fn live_symbols(&self) -> Vec<bool> {
        let mut live = vec![false; self.alphabet.len()];
        for s in self.accepted_prefixes() {
            for (flag, t) in live.iter_mut().zip(&self.trans[s]) {
                *flag |= t.is_some_and(|t| self.accepting[t as usize]);
            }
        }
        live
    }

    /// The shortest, then least, accepted word that reaches a quiescent
    /// state ([`ConcreteDfa::can_continue`] is false), or `None` when every
    /// accepted word can be extended.  The search stops at the first
    /// quiescent state.  The word is a property of the language, so it does
    /// not depend on minimization.
    pub fn quiescent_word(&self) -> Option<Vec<Event>> {
        let mut search = self.accepted_prefixes();
        let stall = search.find(|&s| !self.can_continue(s))?;
        Some(search.word(stall))
    }

    /// A shortest accepted word, if any.
    pub fn find_accepted_word(&self) -> Option<Vec<Event>> {
        let mut seen = vec![false; self.trans.len()];
        let mut parent: Vec<Option<(usize, usize)>> = vec![None; self.trans.len()];
        let mut q = VecDeque::new();
        seen[self.start] = true;
        q.push_back(self.start);
        while let Some(s) = q.pop_front() {
            if self.accepting[s] {
                // Reconstruct.
                let mut word = Vec::new();
                let mut cur = s;
                while let Some((p, sym)) = parent[cur] {
                    word.push(self.alphabet[sym]);
                    cur = p;
                }
                word.reverse();
                return Some(word);
            }
            for (sym, t) in self.trans[s].iter().enumerate() {
                if let Some(t) = t {
                    let t = *t as usize;
                    if !seen[t] {
                        seen[t] = true;
                        parent[t] = Some((s, sym));
                        q.push_back(t);
                    }
                }
            }
        }
        None
    }

    /// Product automaton accepting `L(self) ∩ L(other)`.
    pub fn intersect(&self, other: &ConcreteDfa) -> ConcreteDfa {
        self.product(other, |a, b| a && b)
    }

    /// Product automaton accepting `L(self) ∪ L(other)`.
    ///
    /// Union requires totalized operands, handled internally.
    pub fn union(&self, other: &ConcreteDfa) -> ConcreteDfa {
        self.totalize().product(&other.totalize(), |a, b| a || b)
    }

    fn product(&self, other: &ConcreteDfa, acc: impl Fn(bool, bool) -> bool) -> ConcreteDfa {
        self.assert_same_alphabet(other);
        let k = self.alphabet.len();
        let mut ids: HashMap<(u32, u32), u32> = HashMap::new();
        let mut pairs: Vec<(u32, u32)> = vec![(self.start as u32, other.start as u32)];
        ids.insert(pairs[0], 0);
        let mut trans: Vec<Vec<Option<u32>>> = Vec::new();
        let mut accepting = Vec::new();
        let mut i = 0;
        while i < pairs.len() {
            let (a, b) = pairs[i];
            accepting.push(acc(self.accepting[a as usize], other.accepting[b as usize]));
            let mut row = Vec::with_capacity(k);
            for sym in 0..k {
                let na = self.trans[a as usize][sym];
                let nb = other.trans[b as usize][sym];
                row.push(match (na, nb) {
                    (Some(x), Some(y)) => {
                        let id = *ids.entry((x, y)).or_insert_with(|| {
                            pairs.push((x, y));
                            (pairs.len() - 1) as u32
                        });
                        Some(id)
                    }
                    _ => None,
                });
            }
            trans.push(row);
            i += 1;
        }
        ConcreteDfa {
            alphabet: Arc::clone(&self.alphabet),
            index: self.index.clone(),
            trans,
            accepting,
            start: 0,
        }
    }

    /// Make every transition defined by adding an explicit dead state.
    pub fn totalize(&self) -> ConcreteDfa {
        if self.trans.iter().all(|row| row.iter().all(|t| t.is_some())) {
            return self.clone();
        }
        let dead = self.trans.len() as u32;
        let k = self.alphabet.len();
        let mut trans: Vec<Vec<Option<u32>>> = self
            .trans
            .iter()
            .map(|row| row.iter().map(|t| Some(t.unwrap_or(dead))).collect())
            .collect();
        trans.push(vec![Some(dead); k]);
        let mut accepting = self.accepting.clone();
        accepting.push(false);
        ConcreteDfa {
            alphabet: Arc::clone(&self.alphabet),
            index: self.index.clone(),
            trans,
            accepting,
            start: self.start,
        }
    }

    /// The complement automaton over the same alphabet.
    pub fn complement(&self) -> ConcreteDfa {
        let mut t = self.totalize();
        for a in &mut t.accepting {
            *a = !*a;
        }
        t
    }

    /// Check `L(self) ⊆ L(other)`, returning a shortest word of
    /// `L(self) ∖ L(other)` on failure.
    pub fn included_in(&self, other: &ConcreteDfa) -> Result<(), Vec<Event>> {
        self.assert_same_alphabet(other);
        let witness = self.intersect(&other.complement()).find_accepted_word();
        match witness {
            None => Ok(()),
            Some(w) => Err(w),
        }
    }

    /// Language equality.
    pub fn equiv(&self, other: &ConcreteDfa) -> bool {
        self.included_in(other).is_ok() && other.included_in(self).is_ok()
    }

    /// Hide part of the alphabet: symbols satisfying `hidden` become ε and
    /// the result is re-determinized over the remaining symbols.
    ///
    /// This is the observable-behaviour construction of composition: the
    /// language of `Γ‖∆` over `α` is the erasure of the joint language
    /// over `α(Γ) ∪ α(∆)` by `I(O)`.
    pub fn erase(&self, hidden: impl Fn(&Event) -> bool) -> ConcreteDfa {
        let visible: Vec<Event> = self.alphabet.iter().filter(|e| !hidden(e)).copied().collect();
        let hidden_syms: Vec<usize> =
            self.alphabet.iter().enumerate().filter(|(_, e)| hidden(e)).map(|(i, _)| i).collect();
        let visible_syms: Vec<usize> =
            self.alphabet.iter().enumerate().filter(|(_, e)| !hidden(e)).map(|(i, _)| i).collect();

        // ε-closure over hidden transitions.
        let closure = |set: &BTreeSet<u32>| -> BTreeSet<u32> {
            let mut out = set.clone();
            let mut stack: Vec<u32> = out.iter().copied().collect();
            while let Some(s) = stack.pop() {
                for &h in &hidden_syms {
                    if let Some(t) = self.trans[s as usize][h] {
                        if out.insert(t) {
                            stack.push(t);
                        }
                    }
                }
            }
            out
        };

        let start_set = closure(&BTreeSet::from([self.start as u32]));
        let mut ids: HashMap<BTreeSet<u32>, u32> = HashMap::new();
        let mut sets = vec![start_set.clone()];
        ids.insert(start_set, 0);
        let mut trans: Vec<Vec<Option<u32>>> = Vec::new();
        let mut accepting = Vec::new();
        let mut i = 0;
        while i < sets.len() {
            let set = sets[i].clone();
            accepting.push(set.iter().any(|&s| self.accepting[s as usize]));
            let mut row = Vec::with_capacity(visible_syms.len());
            for &sym in &visible_syms {
                let mut next = BTreeSet::new();
                for &s in &set {
                    if let Some(t) = self.trans[s as usize][sym] {
                        next.insert(t);
                    }
                }
                if next.is_empty() {
                    row.push(None);
                } else {
                    let next = closure(&next);
                    let id = *ids.entry(next.clone()).or_insert_with(|| {
                        sets.push(next);
                        (sets.len() - 1) as u32
                    });
                    row.push(Some(id));
                }
            }
            trans.push(row);
            i += 1;
        }
        let alphabet = Arc::new(visible);
        let index = index_of(&alphabet);
        ConcreteDfa { alphabet, index, trans, accepting, start: 0 }
    }

    /// Apply an alphabetic homomorphism: each symbol is renamed via `map`
    /// (or erased when `map` returns `None`), and the image language is
    /// re-determinized over `target` — the automaton of
    /// `{ φ(w) | w ∈ L(self) }`.
    ///
    /// Mapped symbols that do not occur in `target` are dropped from the
    /// image (their words contribute nothing).  This is the engine behind
    /// refinement up to abstraction functions (paper §3's deferred
    /// "refinement of method parameters").
    pub fn map_symbols(
        &self,
        target: Arc<Vec<Event>>,
        map: impl Fn(&Event) -> Option<Event>,
    ) -> ConcreteDfa {
        let target_index = index_of(&target);
        // For each original symbol: None = erased (ε), Some(j) = target j.
        let mapped: Vec<Option<usize>> = self
            .alphabet
            .iter()
            .map(|e| map(e).and_then(|e2| target_index.get(&e2).copied()))
            .collect();
        let erased: Vec<bool> = self.alphabet.iter().map(|e| map(e).is_none()).collect();

        let closure = |set: &BTreeSet<u32>| -> BTreeSet<u32> {
            let mut out = set.clone();
            let mut stack: Vec<u32> = out.iter().copied().collect();
            while let Some(s) = stack.pop() {
                for (sym, &is_erased) in erased.iter().enumerate() {
                    if is_erased {
                        if let Some(t) = self.trans[s as usize][sym] {
                            if out.insert(t) {
                                stack.push(t);
                            }
                        }
                    }
                }
            }
            out
        };

        let start_set = closure(&BTreeSet::from([self.start as u32]));
        let mut ids: HashMap<BTreeSet<u32>, u32> = HashMap::new();
        let mut sets = vec![start_set.clone()];
        ids.insert(start_set, 0);
        let mut trans: Vec<Vec<Option<u32>>> = Vec::new();
        let mut accepting = Vec::new();
        let mut i = 0;
        while i < sets.len() {
            let set = sets[i].clone();
            accepting.push(set.iter().any(|&s| self.accepting[s as usize]));
            let mut row = vec![None; target.len()];
            for (j, _) in target.iter().enumerate() {
                let mut next = BTreeSet::new();
                for &s in &set {
                    for (sym, &m) in mapped.iter().enumerate() {
                        if m == Some(j) {
                            if let Some(t) = self.trans[s as usize][sym] {
                                next.insert(t);
                            }
                        }
                    }
                }
                if !next.is_empty() {
                    let next = closure(&next);
                    let id = *ids.entry(next.clone()).or_insert_with(|| {
                        sets.push(next);
                        (sets.len() - 1) as u32
                    });
                    row[j] = Some(id);
                }
            }
            trans.push(row);
            i += 1;
        }
        let index = index_of(&target);
        ConcreteDfa { alphabet: target, index, trans, accepting, start: 0 }
    }

    /// Inverse projection: lift to a larger alphabet, letting every symbol
    /// not in the current alphabet self-loop in every state.
    ///
    /// `L(lifted) = { h over big | h/self.alphabet ∈ L(self) }` — exactly
    /// the per-component condition of Def. 4/11.
    pub fn lift_to(&self, big: Arc<Vec<Event>>) -> ConcreteDfa {
        let k = big.len();
        let mut trans: Vec<Vec<Option<u32>>> = Vec::with_capacity(self.trans.len());
        for (s, _) in self.trans.iter().enumerate() {
            let mut row = Vec::with_capacity(k);
            for e in big.iter() {
                match self.index.get(e) {
                    Some(&sym) => row.push(self.trans[s][sym]),
                    None => row.push(Some(s as u32)),
                }
            }
            trans.push(row);
        }
        let index = index_of(&big);
        ConcreteDfa {
            alphabet: big,
            index,
            trans,
            accepting: self.accepting.clone(),
            start: self.start,
        }
    }

    /// Restrict to a sub-alphabet: words using dropped symbols are removed
    /// from the language (transitions on them become undefined).
    pub fn restrict_to(&self, small: Arc<Vec<Event>>) -> ConcreteDfa {
        let k = small.len();
        let mut trans: Vec<Vec<Option<u32>>> = Vec::with_capacity(self.trans.len());
        for (s, _) in self.trans.iter().enumerate() {
            let mut row = Vec::with_capacity(k);
            for e in small.iter() {
                match self.index.get(e) {
                    Some(&sym) => row.push(self.trans[s][sym]),
                    None => row.push(None),
                }
            }
            trans.push(row);
        }
        let index = index_of(&small);
        ConcreteDfa {
            alphabet: small,
            index,
            trans,
            accepting: self.accepting.clone(),
            start: self.start,
        }
    }

    /// Enumerate all accepted words of length ≤ `max_len` (for
    /// cross-validation against bounded exploration).
    pub fn enumerate_accepted(&self, max_len: usize) -> Vec<Vec<Event>> {
        let mut out = Vec::new();
        let mut frontier: Vec<(usize, Vec<Event>)> = vec![(self.start, Vec::new())];
        if self.accepting[self.start] {
            out.push(Vec::new());
        }
        for _ in 0..max_len {
            let mut next = Vec::new();
            for (s, word) in &frontier {
                for (sym, t) in self.trans[*s].iter().enumerate() {
                    if let Some(t) = t {
                        let mut w = word.clone();
                        w.push(self.alphabet[sym]);
                        if self.accepting[*t as usize] {
                            out.push(w.clone());
                        }
                        next.push((*t as usize, w));
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        out
    }

    /// Count accepted words per length, up to `max_len` (index = length).
    pub fn count_accepted(&self, max_len: usize) -> Vec<u64> {
        // Dynamic programming over state-occupancy counts.
        let n = self.trans.len();
        let mut counts = vec![0u64; n];
        counts[self.start] = 1;
        let mut out = Vec::with_capacity(max_len + 1);
        out.push(if self.accepting[self.start] { 1 } else { 0 });
        for _ in 0..max_len {
            let mut next = vec![0u64; n];
            for (s, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                for t in self.trans[s].iter().flatten() {
                    next[*t as usize] = next[*t as usize].saturating_add(c);
                }
            }
            let total: u64 = next
                .iter()
                .enumerate()
                .filter(|(s, _)| self.accepting[*s])
                .map(|(_, &c)| c)
                .fold(0u64, u64::saturating_add);
            out.push(total);
            counts = next;
        }
        out
    }
}

/// The search of [`ConcreteDfa::accepted_prefixes`]: an iterator over the
/// states reached along accepted words, in breadth-first discovery order
/// (by the length, then the alphabet order, of the words reaching them).
/// It yields nothing when the language is empty.
#[derive(Debug, Clone)]
pub struct AcceptedPrefixes<'a> {
    dfa: &'a ConcreteDfa,
    /// Discovered states not yet yielded.
    queue: VecDeque<usize>,
    seen: Vec<bool>,
    /// `parent[s]`: the state and symbol `s` was first reached from
    /// (`None` for the start state and for undiscovered states).
    parent: Vec<Option<(u32, u32)>>,
}

impl AcceptedPrefixes<'_> {
    /// The shortest, then least, accepted word reaching `state`, which
    /// must be a state the search has yielded.
    pub fn word(&self, state: usize) -> Vec<Event> {
        let mut word = Vec::new();
        let mut at = state;
        while let Some((prev, sym)) = self.parent[at] {
            word.push(self.dfa.alphabet[sym as usize]);
            at = prev as usize;
        }
        word.reverse();
        word
    }
}

impl Iterator for AcceptedPrefixes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let s = self.queue.pop_front()?;
        for (sym, t) in self.dfa.trans[s].iter().enumerate() {
            let Some(t) = t.map(|t| t as usize) else { continue };
            if self.dfa.accepting[t] && !self.seen[t] {
                self.seen[t] = true;
                self.parent[t] = Some((s as u32, sym as u32));
                self.queue.push_back(t);
            }
        }
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Re, Template, VarId};
    use pospec_alphabet::UniverseBuilder;
    use pospec_trace::{MethodId, ObjectId};

    struct Fix {
        u: Arc<Universe>,
        o: ObjectId,
        c: ObjectId,
        w1: ObjectId,
        ow: MethodId,
        w: MethodId,
        cw: MethodId,
        sigma: Arc<Vec<Event>>,
    }

    fn fix() -> Fix {
        let mut b = UniverseBuilder::new();
        let objects = b.object_class("Objects").unwrap();
        let o = b.object("o").unwrap();
        let c = b.object_in("c", objects).unwrap();
        let ow = b.method("OW").unwrap();
        let w = b.method("W").unwrap();
        let cw = b.method("CW").unwrap();
        let wits = b.class_witnesses(objects, 1).unwrap();
        let u = b.freeze();
        let w1 = wits[0];
        let mut sigma = Vec::new();
        for caller in [c, w1] {
            for m in [ow, w, cw] {
                sigma.push(Event::call(caller, o, m));
            }
        }
        Fix { u, o, c, w1, ow, w, cw, sigma: Arc::new(sigma) }
    }

    fn write_re(f: &Fix) -> Re {
        let objects = f.u.class_by_name("Objects").unwrap();
        let x = VarId(0);
        Re::seq([
            Re::lit(Template::call(x, f.o, f.ow)),
            Re::lit(Template::call(x, f.o, f.w)).star(),
            Re::lit(Template::call(x, f.o, f.cw)),
        ])
        .bind(x, objects)
        .star()
    }

    fn write_dfa(f: &Fix, mode: AcceptMode) -> ConcreteDfa {
        let nfa = Nfa::compile(&write_re(f));
        ConcreteDfa::from_nfa(&f.u, &nfa, Arc::clone(&f.sigma), mode)
    }

    #[test]
    fn determinization_preserves_membership() {
        let f = fix();
        let dfa = write_dfa(&f, AcceptMode::PrefixLive);
        let good = [
            Event::call(f.c, f.o, f.ow),
            Event::call(f.c, f.o, f.w),
            Event::call(f.c, f.o, f.cw),
            Event::call(f.w1, f.o, f.ow),
        ];
        assert!(dfa.accepts(good.iter()));
        let bad = [Event::call(f.c, f.o, f.ow), Event::call(f.w1, f.o, f.w)];
        assert!(!dfa.accepts(bad.iter()));
        assert!(dfa.accepts(std::iter::empty()));
    }

    #[test]
    fn exact_vs_prefix_mode() {
        let f = fix();
        let exact = write_dfa(&f, AcceptMode::Exact);
        let prefix = write_dfa(&f, AcceptMode::PrefixLive);
        let open = [Event::call(f.c, f.o, f.ow)];
        assert!(!exact.accepts(open.iter()), "open session is not a word");
        assert!(prefix.accepts(open.iter()), "but it is a prefix");
        // Exact ⊆ prefix closure.
        assert!(exact.included_in(&prefix).is_ok());
        assert!(prefix.included_in(&exact).is_err());
    }

    #[test]
    fn universal_and_empty() {
        let f = fix();
        let uni = ConcreteDfa::universal(Arc::clone(&f.sigma));
        let empty = ConcreteDfa::empty_lang(Arc::clone(&f.sigma));
        let eps = ConcreteDfa::eps_lang(Arc::clone(&f.sigma));
        assert!(uni.accepts([Event::call(f.c, f.o, f.w)].iter()));
        assert!(empty.is_empty_lang());
        assert!(!eps.is_empty_lang());
        assert!(eps.accepts_only_epsilon());
        assert!(!uni.accepts_only_epsilon());
        assert!(empty.accepts_only_epsilon());
        assert!(eps.included_in(&uni).is_ok());
        assert!(empty.included_in(&eps).is_ok());
    }

    #[test]
    fn inclusion_yields_shortest_counterexample() {
        let f = fix();
        let dfa = write_dfa(&f, AcceptMode::PrefixLive);
        let uni = ConcreteDfa::universal(Arc::clone(&f.sigma));
        assert!(dfa.included_in(&uni).is_ok());
        let cex = uni.included_in(&dfa).unwrap_err();
        assert_eq!(cex.len(), 1, "a single W or CW already violates Write");
        assert!(!dfa.accepts(cex.iter()));
    }

    #[test]
    fn intersection_and_union_respect_membership() {
        let f = fix();
        let dfa = write_dfa(&f, AcceptMode::PrefixLive);
        let uni = ConcreteDfa::universal(Arc::clone(&f.sigma));
        let inter = dfa.intersect(&uni);
        assert!(inter.equiv(&dfa));
        let un = dfa.union(&uni);
        assert!(un.equiv(&uni));
        let comp = dfa.complement();
        assert!(dfa.intersect(&comp).is_empty_lang());
        assert!(dfa.union(&comp).equiv(&uni));
    }

    #[test]
    fn erase_hides_internal_symbols() {
        let f = fix();
        // Language: OW W CW by c (exact), then erase OW/CW: only W visible.
        let re = Re::seq([
            Re::lit(Template::call(f.c, f.o, f.ow)),
            Re::lit(Template::call(f.c, f.o, f.w)),
            Re::lit(Template::call(f.c, f.o, f.cw)),
        ]);
        let nfa = Nfa::compile(&re);
        let dfa = ConcreteDfa::from_nfa(&f.u, &nfa, Arc::clone(&f.sigma), AcceptMode::Exact);
        let erased = dfa.erase(|e| e.method == f.ow || e.method == f.cw);
        assert_eq!(erased.alphabet().len(), 2, "only W symbols remain");
        let w_only = [Event::call(f.c, f.o, f.w)];
        assert!(erased.accepts(w_only.iter()));
        assert!(!erased.accepts(std::iter::empty()), "ε is not in the exact erased language");
    }

    #[test]
    fn lift_allows_foreign_symbols_freely() {
        let f = fix();
        // DFA over only c's symbols, lifted to the full alphabet.
        let small: Arc<Vec<Event>> =
            Arc::new(f.sigma.iter().filter(|e| e.caller == f.c).copied().collect());
        let re = Re::seq([
            Re::lit(Template::call(f.c, f.o, f.ow)),
            Re::lit(Template::call(f.c, f.o, f.cw)),
        ]);
        let nfa = Nfa::compile(&re);
        let dfa = ConcreteDfa::from_nfa(&f.u, &nfa, small, AcceptMode::PrefixLive);
        let lifted = dfa.lift_to(Arc::clone(&f.sigma));
        // Foreign (w1) events may interleave anywhere.
        let h = [
            Event::call(f.w1, f.o, f.w),
            Event::call(f.c, f.o, f.ow),
            Event::call(f.w1, f.o, f.ow),
            Event::call(f.c, f.o, f.cw),
        ];
        assert!(lifted.accepts(h.iter()));
        // But c's own projection must still obey the protocol.
        let bad = [Event::call(f.c, f.o, f.cw)];
        assert!(!lifted.accepts(bad.iter()));
    }

    #[test]
    fn restrict_drops_foreign_words() {
        let f = fix();
        let uni = ConcreteDfa::universal(Arc::clone(&f.sigma));
        let small: Arc<Vec<Event>> =
            Arc::new(f.sigma.iter().filter(|e| e.caller == f.c).copied().collect());
        let r = uni.restrict_to(Arc::clone(&small));
        assert!(r.accepts([Event::call(f.c, f.o, f.w)].iter()));
        assert_eq!(r.alphabet().len(), 3);
    }

    #[test]
    fn enumerate_and_count_agree() {
        let f = fix();
        let dfa = write_dfa(&f, AcceptMode::PrefixLive);
        let words = dfa.enumerate_accepted(4);
        let counts = dfa.count_accepted(4);
        for (len, &expected) in counts.iter().enumerate().take(5) {
            let n = words.iter().filter(|w| w.len() == len).count() as u64;
            assert_eq!(n, expected, "length {len}");
        }
        // Sanity: ε plus the two one-event openings.
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 2);
    }

    #[test]
    fn membership_trie_wraps_a_predicate() {
        let f = fix();
        // Predicate: no more OW than CW+1, c only (a tiny counting spec).
        let member = |h: &Trace| {
            let mut open = 0i32;
            for e in h.iter() {
                if e.method == f.ow {
                    open += 1;
                } else if e.method == f.cw {
                    open -= 1;
                }
                if !(0..=1).contains(&open) {
                    return false;
                }
            }
            true
        };
        let dfa = ConcreteDfa::from_membership(Arc::clone(&f.sigma), 3, member);
        assert!(dfa.accepts([Event::call(f.c, f.o, f.ow)].iter()));
        assert!(!dfa.accepts([Event::call(f.c, f.o, f.ow), Event::call(f.w1, f.o, f.ow)].iter()));
        assert!(dfa.accepts(
            [
                Event::call(f.c, f.o, f.ow),
                Event::call(f.c, f.o, f.cw),
                Event::call(f.w1, f.o, f.ow)
            ]
            .iter()
        ));
    }

    #[test]
    fn length_at_most_truncates() {
        let f = fix();
        let k = ConcreteDfa::length_at_most(Arc::clone(&f.sigma), 2);
        assert!(k.accepts(std::iter::empty()));
        assert!(k.accepts([Event::call(f.c, f.o, f.w)].iter()));
        assert!(k.accepts([Event::call(f.c, f.o, f.w); 2].iter()));
        assert!(!k.accepts([Event::call(f.c, f.o, f.w); 3].iter()));
        // Intersecting with the universal language = all words ≤ 2.
        let uni = ConcreteDfa::universal(Arc::clone(&f.sigma));
        assert!(uni.intersect(&k).equiv(&k));
    }

    #[test]
    fn symbol_filter_restricts_alphabet_use() {
        let f = fix();
        let only_c = ConcreteDfa::symbol_filter(Arc::clone(&f.sigma), |e| e.caller == f.c);
        assert!(only_c.accepts([Event::call(f.c, f.o, f.w)].iter()));
        assert!(!only_c.accepts([Event::call(f.w1, f.o, f.w)].iter()));
        assert!(!only_c.accepts([Event::call(f.c, f.o, f.w), Event::call(f.w1, f.o, f.w)].iter()));
        assert!(only_c.accepts(std::iter::empty()));
    }

    #[test]
    fn map_symbols_renames_and_erases() {
        let f = fix();
        // Language: OW W CW by c (exact).
        let re = Re::seq([
            Re::lit(Template::call(f.c, f.o, f.ow)),
            Re::lit(Template::call(f.c, f.o, f.w)),
            Re::lit(Template::call(f.c, f.o, f.cw)),
        ]);
        let dfa = ConcreteDfa::from_nfa(
            &f.u,
            &Nfa::compile(&re),
            Arc::clone(&f.sigma),
            AcceptMode::Exact,
        );
        // φ: rename W ↦ OW, erase CW; target alphabet = sigma.
        let mapped = dfa.map_symbols(Arc::clone(&f.sigma), |e| {
            if e.method == f.cw {
                None
            } else if e.method == f.w {
                Some(Event::call(e.caller, e.callee, f.ow))
            } else {
                Some(*e)
            }
        });
        // Image: OW OW.
        let image_word = [Event::call(f.c, f.o, f.ow), Event::call(f.c, f.o, f.ow)];
        assert!(mapped.accepts(image_word.iter()));
        assert!(!mapped.accepts(image_word[..1].iter()), "exact mode: prefix not a word");
        // The erased CW contributes nothing: no 3-symbol words.
        assert!(mapped.enumerate_accepted(4).iter().all(|w| w.len() == 2));
    }

    #[test]
    fn state_introspection_api() {
        let f = fix();
        let dfa = write_dfa(&f, AcceptMode::PrefixLive);
        let s0 = dfa.start_state();
        assert!(dfa.is_accepting(s0), "ε is a member");
        let ow_sym = f.sigma.iter().position(|e| *e == Event::call(f.c, f.o, f.ow)).unwrap();
        let s1 = dfa.successor(s0, ow_sym).expect("OW opens a session");
        assert!(dfa.is_accepting(s1));
        assert_eq!(dfa.state_after([Event::call(f.c, f.o, f.ow)].iter()), Some(s1));
        let w_sym = f.sigma.iter().position(|e| *e == Event::call(f.w1, f.o, f.w)).unwrap();
        assert_eq!(dfa.successor(s1, w_sym), None, "wrong writer has no successor");
    }

    /// Prefix-closed automata of differing shapes: two subset
    /// constructions and two unminimized tries.
    fn prefix_closed_automata(f: &Fix) -> Vec<ConcreteDfa> {
        let once = Re::seq([f.ow, f.w, f.cw].map(|m| Re::lit(Template::call(f.c, f.o, m))));
        let (ow, cw) = (f.ow, f.cw);
        let open = move |h: &Trace| h.count_method(ow) as i64 - h.count_method(cw) as i64;
        let sigma = || Arc::clone(&f.sigma);
        vec![
            write_dfa(f, AcceptMode::PrefixLive),
            ConcreteDfa::from_nfa(&f.u, &Nfa::compile(&once), sigma(), AcceptMode::PrefixLive),
            ConcreteDfa::from_membership(sigma(), 4, |h| {
                (0..=1).contains(&open(h)) && h.len() <= 3
            }),
            ConcreteDfa::from_membership(sigma(), 2, |h| h.len() <= 5),
        ]
    }

    #[test]
    fn accepted_prefixes_are_shortlex_ordered_least_shortest_words() {
        let f = fix();
        for dfa in prefix_closed_automata(&f) {
            let mut search = dfa.accepted_prefixes();
            let mut found = Vec::new();
            while let Some(s) = search.next() {
                found.push((s, search.word(s)));
            }
            let key = |w: &Vec<Event>| (w.len(), w.iter().map(|e| dfa.symbol_index(e)).collect());
            let keys: Vec<(usize, Vec<_>)> = found.iter().map(|(_, w)| key(w)).collect();
            assert!(keys.windows(2).all(|k| k[0] < k[1]), "not shortlex: {keys:?}");
            for (s, word) in &found {
                // `enumerate_accepted` lists words by length, then in
                // alphabet order: its first word reaching `s` is the least
                // of the shortest.
                let mut accepted = dfa.enumerate_accepted(word.len()).into_iter();
                let least = accepted.find(|w| dfa.state_after(w.iter()) == Some(*s));
                assert_eq!(least.as_ref(), Some(word), "state {s}");
            }
        }
    }

    #[test]
    fn an_empty_language_has_no_accepted_prefixes() {
        let f = fix();
        let empty = ConcreteDfa::empty_lang(Arc::clone(&f.sigma));
        assert_eq!(empty.accepted_prefixes().next(), None);
        assert_eq!(empty.quiescent_word(), None);
        assert!(empty.live_symbols().iter().all(|&l| !l));
        let refuses_eps = ConcreteDfa::from_membership(Arc::clone(&f.sigma), 3, |_| false);
        assert_eq!(refuses_eps.accepted_prefixes().next(), None);
        let eps = ConcreteDfa::eps_lang(Arc::clone(&f.sigma));
        assert_eq!(eps.accepted_prefixes().collect::<Vec<_>>(), [eps.start_state()]);
        assert!(!eps.can_continue(eps.start_state()));
        assert_eq!(eps.quiescent_word(), Some(vec![]));
    }

    #[test]
    fn quiescent_word_and_live_symbols_survive_minimization() {
        let f = fix();
        let mut stalls = 0;
        for dfa in prefix_closed_automata(&f) {
            let min = dfa.minimize();
            assert_eq!(dfa.quiescent_word(), min.quiescent_word());
            assert_eq!(dfa.live_symbols(), min.live_symbols());
            stalls += usize::from(dfa.quiescent_word().is_some());
        }
        assert_eq!(stalls, 3, "only the starred protocol never stalls");
    }

    #[test]
    fn equiv_is_reflexive_and_detects_difference() {
        let f = fix();
        let a = write_dfa(&f, AcceptMode::PrefixLive);
        assert!(a.equiv(&a.clone()));
        let uni = ConcreteDfa::universal(Arc::clone(&f.sigma));
        assert!(!a.equiv(&uni));
    }
}

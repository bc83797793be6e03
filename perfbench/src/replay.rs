//! Replays that split a layer's work into stages, for the traced run.
//!
//! The benchmark may only call public functions, so the stages inside
//! `DfaCache::traceset_dfa` are re-run one by one: the dispatch of
//! `pospec_core::traceset_dfa` copied onto the public `Nfa::compile`,
//! `ConcreteDfa::from_nfa` and `ConcreteDfa::from_membership` (with a
//! counting wrapper around the predicate), then `minimize`.  Each replay
//! asserts that it reaches the state count of the automaton the cache
//! built, so a replay that drifts from the real dispatch is caught.

use crate::measure::{mean, ms, ratio, timed, Tracer};
use crate::report::Outcome;
use pospec_alphabet::{EventSet, Universe};
use pospec_core::{
    check_refinement_batch, check_refinement_cached, refinement_conditions, traceset_dfa,
    worker_count, DfaCache, Specification, TraceSet,
};
use pospec_gen::Scenario;
use pospec_lang::Document;
use pospec_regex::{AcceptMode, ConcreteDfa, Nfa};
use pospec_trace::Event;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Stage times (ms) and sizes of one automaton-construction replay.
#[derive(Default)]
struct Stages {
    automata: u64,
    subset_ms: f64,
    subset_states: u64,
    trie_ms: f64,
    trie_states: u64,
    pred_calls: u64,
    /// Products of conjunctions and other constructions.
    other_ms: f64,
    minimize_ms: f64,
    min_states_in: u64,
    min_states_out: u64,
    /// Replays whose minimized state count differs from the cache's.
    mismatches: Vec<String>,
}

impl Stages {
    fn build_ms(&self) -> f64 {
        self.subset_ms + self.trie_ms + self.other_ms
    }
}

fn ts_repr(ts: &TraceSet) -> String {
    match ts {
        TraceSet::Universal => "U".into(),
        TraceSet::Prs(re) => format!("P{:?}", re.re()),
        TraceSet::Predicate { pred, .. } => format!("F{:p}", Arc::as_ptr(pred)),
        TraceSet::Conj(parts) => {
            format!("C[{}]", parts.iter().map(ts_repr).collect::<Vec<_>>().join(","))
        }
        TraceSet::Composed(c) => format!("X{:p}", Arc::as_ptr(c)),
        TraceSet::Dfa(d) => format!("D{:p}", Arc::as_ptr(d)),
    }
}

fn construct(
    u: &Universe,
    ts: &TraceSet,
    sigma: &Arc<Vec<Event>>,
    depth: usize,
    st: &mut Stages,
) -> ConcreteDfa {
    match ts {
        TraceSet::Prs(re) => {
            let (dfa, d) = timed(|| {
                let nfa = Nfa::compile(re.re());
                ConcreteDfa::from_nfa(u, &nfa, Arc::clone(sigma), AcceptMode::PrefixLive)
            });
            st.subset_ms += ms(d);
            st.subset_states += dfa.state_count() as u64;
            dfa
        }
        TraceSet::Predicate { pred, .. } => {
            let calls = Cell::new(0u64);
            let (dfa, d) = timed(|| {
                ConcreteDfa::from_membership(Arc::clone(sigma), depth, |h| {
                    calls.set(calls.get() + 1);
                    pred(h)
                })
            });
            st.trie_ms += ms(d);
            st.trie_states += dfa.state_count() as u64;
            st.pred_calls += calls.get();
            dfa
        }
        TraceSet::Conj(parts) => {
            let mut acc = ConcreteDfa::universal(Arc::clone(sigma));
            for p in parts.iter() {
                let part = construct(u, p, sigma, depth, st);
                let (next, d) = timed(|| acc.intersect(&part));
                st.other_ms += ms(d);
                acc = next;
            }
            acc
        }
        other => {
            let (dfa, d) = timed(|| traceset_dfa(u, other, Arc::clone(sigma), depth));
            st.other_ms += ms(d);
            dfa
        }
    }
}

/// Replay the construction of every distinct (trace set, alphabet) of
/// `specs` and compare each with the automaton `warm` holds for it.
fn stage_replay(specs: &[Specification], depth: usize, warm: &DfaCache) -> Stages {
    let mut st = Stages::default();
    let mut seen = HashSet::new();
    for spec in specs {
        let key = format!(
            "{}|{:?}",
            ts_repr(spec.trace_set()),
            spec.alphabet().granules().collect::<Vec<_>>()
        );
        if !seen.insert(key) {
            continue;
        }
        let u = spec.universe();
        let sigma = Arc::new(spec.alphabet().enumerate_concrete());
        let raw = construct(u, spec.trace_set(), &sigma, depth, &mut st);
        let (min, d) = timed(|| raw.minimize());
        st.minimize_ms += ms(d);
        st.min_states_in += raw.state_count() as u64;
        st.min_states_out += min.state_count() as u64;
        st.automata += 1;
        let cached = warm.traceset_dfa(u, spec.trace_set(), spec.alphabet(), depth);
        if cached.state_count() != min.state_count() {
            st.mismatches.push(format!(
                "{}: replay {} states, cache {}",
                spec.name(),
                min.state_count(),
                cached.state_count()
            ));
        }
    }
    st
}

/// Alphabet-layer replay over a fresh cache.
struct AlphabetReplay {
    enumerate_ms: f64,
    sigma_events: u64,
    conditions_ms: f64,
}

fn alphabet_replay(
    alphabets: &[&EventSet],
    pairs: &[(&Specification, &Specification)],
) -> AlphabetReplay {
    let cache = DfaCache::new();
    let (sigmas, d) = timed(|| alphabets.iter().map(|a| cache.alphabet(a)).collect::<Vec<_>>());
    let mut distinct = HashSet::new();
    let sigma_events =
        sigmas.iter().filter(|s| distinct.insert(Arc::as_ptr(s))).map(|s| s.len() as u64).sum();
    let (_, cd) = timed(|| {
        pairs.iter().map(|(c, a)| refinement_conditions(c, a).all_ok()).filter(|ok| *ok).count()
    });
    AlphabetReplay { enumerate_ms: ms(d), sigma_events, conditions_ms: ms(cd) }
}

/// Core-layer replays: a warm per-pair check, and batch vs sequential.
struct CoreReplay {
    warm_check_us: f64,
    batch_ms: f64,
    sequential_ms: f64,
    workers: usize,
}

impl CoreReplay {
    /// Summed per-pair time ÷ (batch wall × workers).
    fn batch_efficiency(&self) -> f64 {
        ratio(self.sequential_ms, self.batch_ms * self.workers as f64)
    }
}

/// The manifest's refinement pairs resolved against `doc`; `None` when
/// the document lacks a spec the manifest names.
pub fn manifest_pairs<'d>(
    s: &Scenario,
    doc: &'d Document,
) -> Option<Vec<(&'d Specification, &'d Specification)>> {
    let by_name: HashMap<&str, &Specification> =
        doc.specs.iter().map(|sp| (sp.name(), sp)).collect();
    s.manifest
        .refinements
        .iter()
        .map(|r| Some((*by_name.get(r.concrete.as_str())?, *by_name.get(r.abstract_.as_str())?)))
        .collect()
}

/// The alphabet, regex and core replays over `specs` and the checked
/// `pairs`, as per-layer metrics; `warm` is the cache whose automata the
/// stage replay must reproduce.  A disagreement counts as a wrong answer.
pub fn replays(
    tr: &mut Tracer,
    specs: &[Specification],
    pairs: &[(&Specification, &Specification)],
    depth: usize,
    warm: &DfaCache,
    out: &mut Outcome,
) {
    let st = tr.span("regex.stage_replay", |_| stage_replay(specs, depth, warm));
    let alphabets: Vec<&EventSet> = specs.iter().map(|sp| sp.alphabet()).collect();
    let alpha = tr.span("alphabet.replay", |_| alphabet_replay(&alphabets, pairs));
    let core = tr.span("core.replay", |_| core_replay(pairs, depth));
    out.set("alphabet.enumerate_ms", alpha.enumerate_ms);
    out.set("alphabet.sigma_events", alpha.sigma_events as f64);
    out.set("alphabet.conditions_ms", alpha.conditions_ms);
    out.set("regex.build_ms", st.build_ms());
    out.set("regex.minimize_ms", st.minimize_ms);
    out.set("regex.subset_states", st.subset_states as f64);
    out.set("regex.trie_states", st.trie_states as f64);
    out.set("regex.pred_calls", st.pred_calls as f64);
    out.set("regex.min_states_in", st.min_states_in as f64);
    out.set("regex.min_states_out", st.min_states_out as f64);
    out.set("core.warm_check_us", core.warm_check_us);
    out.set("core.batch_efficiency", core.batch_efficiency());
    out.detail.insert("regex.subset_ms", st.subset_ms);
    out.detail.insert("regex.trie_ms", st.trie_ms);
    out.detail.insert("regex.product_ms", st.other_ms);
    out.detail.insert("regex.automata", st.automata as f64);
    out.detail.insert("core.batch_ms", core.batch_ms);
    out.detail.insert("core.sequential_ms", core.sequential_ms);
    out.wrong.extend(st.mismatches.iter().map(|m| format!("stage replay: {m}")));
}

/// [`replays`] over a generated document and its manifest pairs.
pub fn document_replays(
    tr: &mut Tracer,
    s: &Scenario,
    doc: &Document,
    depth: usize,
    warm: &DfaCache,
    out: &mut Outcome,
) {
    match manifest_pairs(s, doc) {
        Some(pairs) => replays(tr, &doc.specs, &pairs, depth, warm, out),
        None => out.failed += 1,
    }
}

fn core_replay(pairs: &[(&Specification, &Specification)], depth: usize) -> CoreReplay {
    let (_, batch) = timed(|| check_refinement_batch(&DfaCache::new(), pairs, depth));
    let cold = DfaCache::new();
    let started = Instant::now();
    for (c, a) in pairs {
        check_refinement_cached(&cold, c, a, depth);
    }
    let sequential = started.elapsed();
    // `cold` now holds every automaton: time each pair again, warm.
    let warm: Vec<f64> = pairs
        .iter()
        .map(|(c, a)| timed(|| check_refinement_cached(&cold, c, a, depth)).1.as_secs_f64() * 1e6)
        .collect();
    CoreReplay {
        warm_check_us: mean(&warm),
        batch_ms: ms(batch),
        sequential_ms: ms(sequential),
        workers: worker_count(pairs.len()),
    }
}

//! Verdict equivalence of the minimized + on-the-fly inclusion pipeline.
//!
//! The checker runs Hopcroft-minimized automata through the lazy
//! product search (`A × ¬lift(B)`, explored breadth-first in symbol
//! order) instead of materializing the lifted abstract automaton.  That
//! engine is admissible only if it is *observationally invisible*: on
//! every shipping specification pair and on generated spec/trace
//! families, the full [`Verdict`] — holds/fails, exactness flag, and the
//! counterexample trace itself — must equal the eager, uncached
//! reference of [`oracle`].  Counterexamples are additionally
//! validated semantically: the witness is a member of the concrete trace
//! set whose projection onto the abstract alphabet escapes the abstract
//! trace set.
//!
//! The predicate conjuncts of a conjunction unfold as one shared trie;
//! the minimized result must be the very table the per-conjunct
//! construction (one trie per conjunct, then products) yields.

mod oracle;

use oracle::eager_check_refinement;
use pospec::prelude::*;
use pospec_bench::paper::Paper;
use pospec_check::{Arena, SpecGen};
use pospec_core::{check_refinement_cached, traceset_dfa, DfaCache, Verdict};
use pospec_regex::{ConcreteDfa, TObj};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const DEPTH: usize = 6;

/// Assert the cached (minimized, on-the-fly) verdict equals the eager
/// uncached one, and that any counterexample is semantically valid.
fn assert_equivalent(
    tag: &str,
    cache: &DfaCache,
    concrete: &Specification,
    abstract_: &Specification,
    depth: usize,
) -> Verdict {
    let eager = eager_check_refinement(concrete, abstract_, depth);
    let lazy = check_refinement_cached(cache, concrete, abstract_, depth);
    assert_eq!(lazy, eager, "{tag}: cached/on-the-fly verdict must equal the eager reference");
    if let Verdict::Fails { counterexample: Some(c), .. } = &lazy {
        assert!(
            concrete.contains_trace(c),
            "{tag}: counterexample must be a member of the concrete trace set: {c}"
        );
        let projected = c.project(abstract_.alphabet());
        // The trie view of an opaque predicate answers membership exactly
        // only up to its depth; within it the witness's projection must
        // genuinely escape the abstract set.
        if abstract_.trace_set().is_regular() || projected.len() <= depth {
            assert!(
                !abstract_.contains_trace(&projected),
                "{tag}: projected counterexample must leave the abstract trace set: {projected}"
            );
        }
    }
    eager
}

#[test]
fn paper_spec_matrix_verdicts_are_identical() {
    // Every ordered pair of the six shipping interface specifications
    // (Examples 1–6), diagonal included: 36 pairs through one shared
    // cache, so later pairs run on interned minimized automata.
    let p = Paper::new();
    let specs = p.interface_specs();
    let cache = DfaCache::new();
    let mut eager_verdicts = Vec::new();
    for c in &specs {
        for a in &specs {
            let tag = format!("paper {} ⊑ {}", c.name(), a.name());
            let eager = assert_equivalent(&tag, &cache, c, a, DEPTH);
            eager_verdicts.push((tag, eager));
        }
    }
    // And again warm — every automaton now comes straight off the cache;
    // the eager reference is computed once above and reused.
    let mut it = eager_verdicts.iter();
    for c in &specs {
        for a in &specs {
            let (tag, eager) = it.next().expect("36 verdicts");
            let warm = check_refinement_cached(&cache, c, a, DEPTH);
            assert_eq!(&warm, eager, "{tag} (warm)");
        }
    }
}

#[test]
fn shipping_document_pairs_are_identical() {
    // All pairs within each shipping `.pos` document (same universe).
    for file in ["readers_writers.pos", "rw_component.pos", "session_service.pos", "auction.pos"] {
        let path = format!("{}/specs/{file}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let doc = parse_document(&src).unwrap_or_else(|e| panic!("{path}: {e}"));
        let cache = DfaCache::new();
        for c in &doc.specs {
            for a in &doc.specs {
                assert_equivalent(
                    &format!("{file}: {} ⊑ {}", c.name(), a.name()),
                    &cache,
                    c,
                    a,
                    DEPTH,
                );
            }
        }
    }
}

/// Specifications over the universe of Examples 1–3 whose verdicts sit
/// on the predicate-depth horizon, each paired with the depth at which
/// it is checked.  `Burst ⊑ ReadOnce` fails only beyond the horizon of
/// concrete length; the others are exact or inexact by one step of
/// depth.
fn horizon_cases() -> Vec<(Specification, Specification, usize)> {
    let mut b = UniverseBuilder::new();
    let objects = b.object_class("Objects").unwrap();
    let data = b.data_class("Data").unwrap();
    let o = b.object("o").unwrap();
    let r = b.method_with("R", data).unwrap();
    let or_ = b.method("OR").unwrap();
    b.class_witnesses(objects, 2).unwrap();
    b.data_witnesses(data, 1).unwrap();
    let u = b.freeze();
    let reads = EventPattern::call(objects, o, r).to_set(&u);
    let spec = |name: &str, ts: TraceSet| {
        Specification::new(name, [o], reads.clone(), ts).expect("admissible")
    };
    let at_most = |name: &str, k: usize| {
        spec(name, TraceSet::predicate(format!("≤{k} R"), move |h: &Trace| h.count_method(r) <= k))
    };
    let read = spec("Read", TraceSet::Universal);
    let never = spec("Never", TraceSet::predicate("false", |_: &Trace| false));
    let no_reads = at_most("NoReads", 0);
    let read_once = at_most("ReadOnce", 1);
    let read_thrice = at_most("ReadThrice", 3);
    let x = VarId(0);
    let burst = Specification::new(
        "Burst",
        [o],
        EventPattern::call(objects, o, or_).to_set(&u).union(&reads),
        TraceSet::prs(
            Re::seq([or_, or_, or_, r, r].map(|m| Re::lit(Template::call(x, o, m))))
                .bind(x, objects),
        ),
    )
    .expect("admissible");
    vec![
        (never, read.clone(), 0),
        (no_reads.clone(), read.clone(), 0),
        (no_reads, read.clone(), 1),
        (read_thrice.clone(), read.clone(), 3),
        (read_thrice, read.clone(), 4),
        (burst, read_once.clone(), 3),
        (read_once.clone(), read.clone(), 0),
        (read_once.clone(), read.clone(), 4),
        (read, read_once.clone(), 3),
        (read_once.clone(), read_once, 0),
    ]
}

/// The `Write`/`Any` pairs of the cache's unit tests: Example 1's
/// write protocol against the unrestricted set over its alphabet.
fn write_any_pairs() -> Vec<(Specification, Specification)> {
    let mut b = UniverseBuilder::new();
    let objects = b.object_class("Objects").unwrap();
    let o = b.object("o").unwrap();
    let ow = b.method("OW").unwrap();
    let w = b.method("W").unwrap();
    let cw = b.method("CW").unwrap();
    b.class_witnesses(objects, 2).unwrap();
    let u = b.freeze();
    let alpha = [ow, w, cw].iter().fold(EventSet::empty(&u), |acc, &m| {
        acc.union(&EventPattern::call(objects, o, m).to_set(&u))
    });
    let x = VarId(0);
    let re = Re::seq([
        Re::lit(Template::call(x, o, ow)),
        Re::lit(Template::call(x, o, w)).star(),
        Re::lit(Template::call(x, o, cw)),
    ])
    .bind(x, objects)
    .star();
    let write = Specification::new("Write", [o], alpha.clone(), TraceSet::prs(re)).unwrap();
    let any = Specification::new("Any", [o], alpha, TraceSet::Universal).unwrap();
    vec![
        (write.clone(), any.clone()),
        (any.clone(), write.clone()),
        (write.clone(), write),
        (any.clone(), any),
    ]
}

#[test]
fn horizon_and_write_fixtures_are_identical() {
    for (c, a, depth) in horizon_cases() {
        let tag = format!("horizon {} ⊑ {} @{depth}", c.name(), a.name());
        assert_equivalent(&tag, &DfaCache::new(), &c, &a, depth);
    }
    let cache = DfaCache::new();
    for (c, a) in write_any_pairs() {
        assert_equivalent(&format!("{} ⊑ {}", c.name(), a.name()), &cache, &c, &a, DEPTH);
    }
}

#[test]
fn identity_morphism_recovers_def_2_verdicts() {
    use pospec_core::{check_refinement_upto, Morphism};
    let id = Morphism::identity();
    let same = |c: &Specification, a: &Specification, depth: usize| {
        let upto = check_refinement_upto(c, a, &id, depth);
        assert_eq!(upto, check_refinement(c, a, depth), "{} ⊑ {} @{depth}", c.name(), a.name());
    };
    let p = Paper::new();
    let specs = p.interface_specs();
    for depth in 3..=5 {
        for c in &specs {
            for a in &specs {
                same(c, a, depth);
            }
        }
    }
    for (c, a, depth) in horizon_cases() {
        same(&c, &a, depth);
    }
    for (c, a) in write_any_pairs() {
        same(&c, &a, DEPTH);
    }
}

#[test]
fn generated_regular_pairs_are_identical_across_depths() {
    let arena = Arena::new(3, 2);
    let mut g = SpecGen::new(arena.clone(), 6101);
    let cache = DfaCache::new();
    for i in 0..25 {
        let spec = g.random_env_spec(&[arena.objs[0], arena.objs[1]], "R");
        let abs = g.abstraction_of(&spec, true, DEPTH);
        let other = g.random_env_spec(&[arena.objs[0]], "S");
        for depth in [0, 1, DEPTH] {
            assert_equivalent(&format!("gen/holds #{i}@{depth}"), &cache, &spec, &abs, depth);
            assert_equivalent(&format!("gen/random #{i}@{depth}"), &cache, &spec, &other, depth);
        }
    }
}

#[test]
fn generated_predicate_pairs_are_identical_and_witnesses_shortest() {
    use pospec_core::TraceSet;
    use pospec_trace::Trace;
    let arena = Arena::new(2, 2);
    let mut g = SpecGen::new(arena.clone(), 6102);
    let cache = DfaCache::new();
    let m0 = arena.methods[0];
    let mut failing = 0;
    for i in 0..20 {
        let spec = g.random_env_spec(&[arena.objs[0]], "P");
        let k = i % 3;
        let pred = Specification::new(
            format!("≤{k}#{i}"),
            spec.objects().iter().copied(),
            spec.alphabet().clone(),
            TraceSet::predicate(format!("≤{k} m0"), move |h: &Trace| h.count_method(m0) <= k),
        )
        .expect("same admissible alphabet");
        assert_equivalent(&format!("pred/concrete #{i}"), &cache, &pred, &spec, DEPTH);
        assert_equivalent(&format!("pred/abstract #{i}"), &cache, &spec, &pred, DEPTH);
        if let Verdict::Fails { counterexample: Some(c), .. } =
            check_refinement_cached(&cache, &spec, &pred, DEPTH)
        {
            failing += 1;
            // Shortest-first: strictly shorter members must still project
            // inside the abstract set, i.e. no shorter witness exists.
            for p in c.prefixes() {
                if p.len() < c.len() && spec.contains_trace(&p) {
                    assert!(
                        pred.contains_trace(&p.project(pred.alphabet())),
                        "instance {i}: a shorter witness was skipped: {p}"
                    );
                }
            }
        }
    }
    assert!(failing > 0, "generator should produce failing predicate pairs");
}

#[test]
fn generated_trace_suites_agree_with_verdicts() {
    // Sanity tie-in between the automaton pipeline and direct trace-set
    // membership: when the cached verdict says `holds` exactly, every
    // trace of the concrete spec's transition-covering suite must project
    // into the abstract set — generated trace families, not just the
    // automaton's own counterexample search.
    use pospec_check::testgen::transition_cover;
    let p = Paper::new();
    let specs = p.interface_specs();
    let cache = DfaCache::new();
    let mut checked = 0;
    for c in &specs {
        let suite = transition_cover(c, DEPTH);
        for a in &specs {
            let v = check_refinement_cached(&cache, c, a, DEPTH);
            if !matches!(v, Verdict::Holds { exact: true }) {
                continue;
            }
            for h in &suite.traces {
                assert!(
                    a.contains_trace(&h.project(a.alphabet())),
                    "{} ⊑ {} holds exactly, but member {h} projects outside",
                    c.name(),
                    a.name()
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "suites should exercise at least one holding pair");
}

type Pred = Arc<dyn Fn(&Trace) -> bool + Send + Sync>;

fn pred_of(ts: &TraceSet) -> Pred {
    match ts {
        TraceSet::Predicate { pred, .. } => Arc::clone(pred),
        other => panic!("not a predicate: {other:?}"),
    }
}

/// The per-conjunct construction: every predicate unfolds as its own
/// trie and a conjunction is the product of its conjuncts' automata.
fn per_conjunct_oracle(
    u: &Universe,
    ts: &TraceSet,
    sigma: &Arc<Vec<Event>>,
    depth: usize,
) -> ConcreteDfa {
    match ts {
        TraceSet::Predicate { pred, .. } => {
            ConcreteDfa::from_membership(Arc::clone(sigma), depth, |h| pred(h))
        }
        TraceSet::Conj(parts) => {
            parts.iter().fold(ConcreteDfa::universal(Arc::clone(sigma)), |acc, p| {
                acc.intersect(&per_conjunct_oracle(u, p, sigma, depth))
            })
        }
        other => traceset_dfa(u, other, Arc::clone(sigma), depth),
    }
}

/// Minimized, `traceset_dfa` and the oracle must give the same table.
fn assert_matches_oracle(
    tag: &str,
    u: &Universe,
    ts: &TraceSet,
    sigma: &Arc<Vec<Event>>,
    depth: usize,
) {
    let got = traceset_dfa(u, ts, Arc::clone(sigma), depth).minimize();
    let want = per_conjunct_oracle(u, ts, sigma, depth).minimize();
    assert_eq!(got.alphabet(), want.alphabet(), "{tag}: alphabet");
    assert_eq!(got.start_state(), want.start_state(), "{tag}: start state");
    assert_eq!(got.rows(), want.rows(), "{tag}: transition table");
    assert_eq!(got.accepting_mask(), want.accepting_mask(), "{tag}: accepting mask");
}

#[test]
fn paper_conjunction_tries_equal_per_conjunct_products() {
    let p = Paper::new();
    for spec in [p.rw(), p.rw2_predicate()] {
        let sigma = Arc::new(spec.alphabet().enumerate_concrete());
        for depth in 0..=4 {
            let tag = format!("{}@{depth}", spec.name());
            assert_matches_oracle(&tag, &p.u, spec.trace_set(), &sigma, depth);
        }
    }
}

/// A seeded counting predicate over two methods: `#a ≤ k`,
/// `#a − #b ≤ k` or `#a − #b ≥ −k`; with `refuse_eps`, `#a − #b ≥ 1`,
/// which refuses ε.
fn counting_predicate(g: &mut SpecGen, refuse_eps: bool) -> TraceSet {
    let methods = g.arena.methods.clone();
    let a = methods[g.below(methods.len())];
    let b = methods[g.below(methods.len())];
    let k = g.below(3) as i64;
    let diff = move |h: &Trace| h.count_method(a) as i64 - h.count_method(b) as i64;
    if refuse_eps {
        return TraceSet::predicate("#a−#b ≥ 1", move |h: &Trace| diff(h) >= 1);
    }
    match g.below(3) {
        0 => TraceSet::predicate(format!("#a ≤ {k}"), move |h: &Trace| {
            h.count_method(a) as i64 <= k
        }),
        1 => TraceSet::predicate(format!("#a−#b ≤ {k}"), move |h: &Trace| diff(h) <= k),
        _ => TraceSet::predicate(format!("#a−#b ≥ −{k}"), move |h: &Trace| diff(h) >= -k),
    }
}

#[test]
fn seeded_conjunction_tries_equal_per_conjunct_products() {
    let arena = Arena::new(1, 2);
    let (u, env, o) = (Arc::clone(&arena.u), arena.env, arena.objs[0]);
    let mut g = SpecGen::new(arena.clone(), 6104);
    let alpha = arena
        .methods
        .iter()
        .fold(EventSet::empty(&u), |acc, &m| acc.union(&EventPattern::call(env, o, m).to_set(&u)));
    let sigma = Arc::new(alpha.enumerate_concrete());
    assert!((2..=6).contains(&sigma.len()), "small alphabet, got {}", sigma.len());
    let lits: Vec<Template> =
        arena.methods.iter().map(|&m| Template::call(TObj::Class(env), o, m)).collect();
    // 1–3 predicates; cases 5, 11 and 17 end with one refusing ε, odd
    // cases mix in a `prs` conjunct, and most cases move a tail of the
    // conjuncts into a nested `Conj`.
    for i in 0..18 {
        let n = 1 + i % 3;
        let mut parts: Vec<TraceSet> =
            (0..n).map(|j| counting_predicate(&mut g, i % 6 == 5 && j == n - 1)).collect();
        if i % 2 == 1 {
            let re = g.random_re(&lits, 4).star();
            let at = g.below(parts.len() + 1);
            parts.insert(at, TraceSet::prs(re));
        }
        if parts.len() >= 2 && i % 4 != 0 {
            let inner = parts.split_off(g.below(parts.len() - 1) + 1);
            let at = g.below(parts.len() + 1);
            parts.insert(at, TraceSet::conj(inner));
        }
        let ts = TraceSet::conj(parts);
        for depth in 0..=6 {
            assert_matches_oracle(&format!("seed case {i} {ts:?}@{depth}"), &u, &ts, &sigma, depth);
        }
    }
}

#[test]
fn conjunction_trie_asks_conjuncts_in_order_and_rarely() {
    // `RW = P_RW1 ∧ P_RW2` at depth 4 with both conjuncts counted.  One
    // trie per conjunct asks them 68,618 times; the shared trie asks
    // P_RW2 only about traces P_RW1 has already accepted.
    let p = Paper::new();
    let (rw1, rw2) = (pred_of(&p.p_rw1()), pred_of(&p.p_rw2()));
    let calls = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let accepted = Arc::new(Mutex::new(HashSet::<Vec<Event>>::new()));
    let unvetted = Arc::new(AtomicUsize::new(0));
    let first = {
        let (calls, accepted) = (Arc::clone(&calls), Arc::clone(&accepted));
        TraceSet::predicate("counted P_RW1", move |h: &Trace| {
            calls[0].fetch_add(1, Ordering::Relaxed);
            let ok = rw1(h);
            if ok {
                accepted.lock().unwrap().insert(h.events().to_vec());
            }
            ok
        })
    };
    let second = {
        let (calls, accepted, unvetted) =
            (Arc::clone(&calls), Arc::clone(&accepted), Arc::clone(&unvetted));
        TraceSet::predicate("counted P_RW2", move |h: &Trace| {
            calls[1].fetch_add(1, Ordering::Relaxed);
            if !accepted.lock().unwrap().contains(h.events()) {
                unvetted.fetch_add(1, Ordering::Relaxed);
            }
            rw2(h)
        })
    };
    let sigma = Arc::new(p.rw().alphabet().enumerate_concrete());
    traceset_dfa(&p.u, &TraceSet::conj([first, second]), sigma, 4);
    let (n1, n2) = (calls[0].load(Ordering::Relaxed), calls[1].load(Ordering::Relaxed));
    assert!(n1 + n2 < 4000, "P_RW1 asked {n1} times, P_RW2 {n2} times");
    assert!(accepted.lock().unwrap().len() < n1, "P_RW1 refuses some trace at depth 4");
    assert_eq!(
        unvetted.load(Ordering::Relaxed),
        0,
        "P_RW2 asked about a trace P_RW1 had not accepted first"
    );
}

//! Cache transparency: the memoized automaton cache must be purely an
//! optimisation.  For every backend mix the generator can produce —
//! regular `prs` sets, opaque predicates, conjunctions, and composed
//! sets — `check_refinement_cached` (cold or warm) and the batch API
//! must return verdicts identical to the uncached eager pipeline of
//! [`oracle`], including the *exact* counterexample trace, so the
//! shortest-first witness guarantee survives caching.

mod oracle;

use oracle::eager_check_refinement;
use pospec_check::{Arena, SpecGen};
use pospec_core::{
    check_refinement_batch, check_refinement_cached, compose, is_composable, DfaCache,
    Specification, TraceSet, Verdict,
};
use pospec_trace::Trace;

const DEPTH: usize = 6;

/// Uncached, cold-cached, warm-cached (same cache asked twice) and
/// batch verdicts must all coincide, counterexamples included.
fn assert_cache_transparent(tag: &str, concrete: &Specification, abstract_: &Specification) {
    let uncached = eager_check_refinement(concrete, abstract_, DEPTH);
    let cache = DfaCache::new();
    let cold = check_refinement_cached(&cache, concrete, abstract_, DEPTH);
    let warm = check_refinement_cached(&cache, concrete, abstract_, DEPTH);
    assert_eq!(cold, uncached, "{tag}: cold cached verdict differs from uncached");
    assert_eq!(warm, uncached, "{tag}: warm cached verdict differs from uncached");
    let batch = check_refinement_batch(&cache, &[(concrete, abstract_)], DEPTH);
    assert_eq!(batch.len(), 1);
    assert_eq!(batch[0], uncached, "{tag}: batch verdict differs from uncached");
    if let (Some(c), Some(u)) = (cold.counterexample(), uncached.counterexample()) {
        assert_eq!(c.len(), u.len(), "{tag}: counterexample length must be preserved");
    }
}

#[test]
fn regular_backends_agree_cached_and_uncached() {
    let arena = Arena::new(3, 2);
    let mut g = SpecGen::new(arena.clone(), 7001);
    for i in 0..20 {
        let spec = g.random_env_spec(&[arena.objs[0], arena.objs[1]], "R");
        let abs = g.abstraction_of(&spec, true, DEPTH);
        assert_cache_transparent(&format!("regular/holds #{i}"), &spec, &abs);
        // Random unrelated pairs: mostly failing, exercising
        // counterexample extraction through the cache.
        let a = g.random_env_spec(&[arena.objs[0]], "A");
        let b = g.random_env_spec(&[arena.objs[0]], "B");
        assert_cache_transparent(&format!("regular/random #{i}"), &a, &b);
    }
}

#[test]
fn predicate_and_conj_backends_agree_cached_and_uncached() {
    let arena = Arena::new(2, 2);
    let mut g = SpecGen::new(arena.clone(), 7002);
    let m0 = arena.methods[0];
    for i in 0..12 {
        let spec = g.random_env_spec(&[arena.objs[0]], "P");
        let k = 1 + i % 3;
        let pred = Specification::new(
            format!("pred#{i}"),
            spec.objects().iter().copied(),
            spec.alphabet().clone(),
            TraceSet::predicate(format!("≤{k} m0"), move |h: &Trace| h.count_method(m0) <= k),
        )
        .expect("same admissible alphabet");
        let conj = Specification::new(
            format!("conj#{i}"),
            spec.objects().iter().copied(),
            spec.alphabet().clone(),
            TraceSet::conj([
                spec.trace_set().clone(),
                TraceSet::predicate(format!("≤{k} m0 (conj)"), move |h: &Trace| {
                    h.count_method(m0) <= k
                }),
            ]),
        )
        .expect("same admissible alphabet");
        assert_cache_transparent(&format!("predicate/concrete #{i}"), &pred, &spec);
        assert_cache_transparent(&format!("predicate/abstract #{i}"), &spec, &pred);
        assert_cache_transparent(&format!("conj/vs-regular #{i}"), &conj, &spec);
        assert_cache_transparent(&format!("conj/vs-predicate #{i}"), &conj, &pred);
    }
}

#[test]
fn composed_backends_agree_cached_and_uncached() {
    let arena = Arena::new(4, 2);
    let mut g = SpecGen::new(arena.clone(), 7003);
    let mut composed_seen = 0;
    for i in 0..15 {
        let a = g.random_env_spec(&[arena.objs[0], arena.objs[1]], "L");
        let b = g.random_env_spec(&[arena.objs[2], arena.objs[3]], "R");
        if !is_composable(&a, &b) {
            continue;
        }
        let joint = match compose(&a, &b) {
            Ok(j) => j,
            Err(_) => continue,
        };
        composed_seen += 1;
        assert_cache_transparent(&format!("composed/reflexive #{i}"), &joint, &joint);
        let abs = g.abstraction_of(&joint, true, DEPTH);
        assert_cache_transparent(&format!("composed/abstraction #{i}"), &joint, &abs);
    }
    assert!(composed_seen > 0, "generator should produce composable env-spec pairs");
}

#[test]
fn failing_pairs_keep_shortest_counterexamples_under_caching() {
    let arena = Arena::new(2, 2);
    let mut g = SpecGen::new(arena.clone(), 7004);
    let cache = DfaCache::new();
    let mut failures_with_witness = 0;
    for i in 0..40 {
        let a = g.random_env_spec(&[arena.objs[0]], "A");
        let b = g.random_env_spec(&[arena.objs[0]], "B");
        let uncached = eager_check_refinement(&a, &b, DEPTH);
        let cached = check_refinement_cached(&cache, &a, &b, DEPTH);
        assert_eq!(cached, uncached, "instance {i}");
        if let Verdict::Fails { counterexample: Some(c), .. } = &cached {
            failures_with_witness += 1;
            // Shortest-first: every proper prefix of the witness must
            // still be a member of the concrete trace set (the witness
            // is the first divergence point), so no shorter witness was
            // skipped by the cache.
            let u = uncached.counterexample().expect("uncached agrees");
            assert_eq!(c, u, "instance {i}: witness trace must be identical");
        }
    }
    assert!(
        failures_with_witness > 0,
        "generator should produce failing pairs with counterexamples"
    );
}

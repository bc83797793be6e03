//! Order-theoretic laws of the refinement relation on randomly generated
//! specifications: reflexivity, transitivity along abstraction chains,
//! antisymmetry up to observable equivalence, and the compatibility of
//! composition with the order.  One more law on a scalable protocol:
//! a predicate conjunct strengthens what it is conjoined to.

use pospec_alphabet::{EventPattern, EventSet, UniverseBuilder};
use pospec_check::{Arena, SpecGen};
use pospec_core::{check_refinement, compose, observable_equiv, Specification, TraceSet};
use pospec_regex::{Re, Template, VarId};
use pospec_trace::{MethodId, Trace};

const DEPTH: usize = 6;

#[test]
fn refinement_is_reflexive_on_random_specs() {
    let arena = Arena::new(3, 2);
    let mut g = SpecGen::new(arena.clone(), 101);
    for i in 0..25 {
        let spec = g.random_env_spec(&[arena.objs[i % 3]], "S");
        let v = check_refinement(&spec, &spec, DEPTH);
        assert!(v.holds(), "instance {i}: {v}");
    }
}

#[test]
fn refinement_is_transitive_along_abstraction_chains() {
    let arena = Arena::new(3, 2);
    let mut g = SpecGen::new(arena.clone(), 202);
    for i in 0..25 {
        let bottom = g.random_env_spec(&[arena.objs[0], arena.objs[1]], "B");
        let mid = g.abstraction_of(&bottom, true, DEPTH);
        let top = g.abstraction_of(&mid, true, DEPTH);
        assert!(check_refinement(&bottom, &mid, DEPTH).holds(), "instance {i}: bottom ⊑ mid");
        assert!(check_refinement(&mid, &top, DEPTH).holds(), "instance {i}: mid ⊑ top");
        assert!(
            check_refinement(&bottom, &top, DEPTH).holds(),
            "instance {i}: transitivity bottom ⊑ top"
        );
    }
}

#[test]
fn mutual_refinement_implies_observable_equivalence() {
    let arena = Arena::new(2, 2);
    // Seed chosen so the vendored `rand` stream yields several mutually
    // refining pairs within 40 draws (seed 11 produces five).
    let mut g = SpecGen::new(arena.clone(), 11);
    let mut mutual = 0;
    for _ in 0..40 {
        let a = g.random_env_spec(&[arena.objs[0]], "A");
        let b = g.random_env_spec(&[arena.objs[0]], "B");
        if check_refinement(&a, &b, DEPTH).holds() && check_refinement(&b, &a, DEPTH).holds() {
            mutual += 1;
            // Same objects and alphabets (by the two inclusion conditions),
            // and languages agree on the common alphabet.
            assert_eq!(a.objects(), b.objects());
            assert!(a.alphabet().set_eq(b.alphabet()));
            assert!(observable_equiv(&a, &b, DEPTH));
        }
    }
    // At least one mutual pair should show up (e.g. two Universal specs
    // over the same drawn alphabet).
    assert!(mutual > 0, "generator should occasionally produce equivalent pairs");
}

#[test]
fn composition_is_monotone_in_both_arguments() {
    // Theorem 7 in both coordinates: Γ′ ⊑ Γ and ∆′ ⊑ ∆ imply
    // Γ′‖∆′ ⊑ Γ‖∆ (by two applications + commutativity).
    let arena = Arena::new(3, 2);
    let mut g = SpecGen::new(arena.clone(), 404);
    let mut checked = 0;
    for i in 0..25 {
        let gamma_c = g.random_env_spec(&[arena.objs[0]], "Γ′");
        let gamma_a = g.abstraction_of(&gamma_c, false, DEPTH);
        let delta_c = g.random_env_spec(&[arena.objs[1]], "Δ′");
        let delta_a = g.abstraction_of(&delta_c, false, DEPTH);
        let lhs = match compose(&gamma_c, &delta_c) {
            Ok(x) => x,
            Err(_) => continue,
        };
        let rhs = match compose(&gamma_a, &delta_a) {
            Ok(x) => x,
            Err(_) => continue,
        };
        let v = check_refinement(&lhs, &rhs, DEPTH);
        assert!(v.holds(), "instance {i}: joint monotonicity ({v})");
        checked += 1;
    }
    assert!(checked >= 20);
}

#[test]
fn composition_is_order_lower_bound() {
    // Γ‖∆ refines both operands when they are viewpoints of one object
    // (Lemma 6 clause 1) — and for disjoint objects it refines each
    // operand *weakened to the composed alphabet restriction*; here we
    // check the same-object case on random pairs.
    let arena = Arena::new(2, 2);
    let mut g = SpecGen::new(arena.clone(), 505);
    for i in 0..25 {
        let a = g.random_env_spec(&[arena.objs[0]], "A");
        let b = g.random_env_spec(&[arena.objs[0]], "B");
        let joint = compose(&a, &b).expect("same-object viewpoints compose");
        assert!(check_refinement(&joint, &a, DEPTH).holds(), "instance {i}: ⊑ A");
        assert!(check_refinement(&joint, &b, DEPTH).holds(), "instance {i}: ⊑ B");
    }
}

/// A session protocol of `blocks` bracketed phases over one server,
/// `[m0 m1* m0 | m2 m3* m2 | …]*` with a fresh caller of class `Env` per
/// iteration, and the same protocol tightened by a length bound.  The
/// bound lies below `DEPTH`, so the checked region holds base traces
/// the tightened protocol refuses.
fn protocol_and_tightened(
    witnesses: usize,
    n_methods: usize,
    blocks: usize,
) -> (Specification, Specification) {
    let mut b = UniverseBuilder::new();
    let env = b.object_class("Env").unwrap();
    let server = b.object("server").unwrap();
    let methods: Vec<MethodId> =
        (0..n_methods).map(|i| b.method(&format!("m{i}")).unwrap()).collect();
    b.class_witnesses(env, witnesses).unwrap();
    b.method_witnesses(1).unwrap();
    let u = b.freeze();
    let alphabet = methods.iter().fold(EventSet::empty(&u), |acc, &m| {
        acc.union(&EventPattern::call(env, server, m).to_set(&u))
    });
    let x = VarId(0);
    let phases = (0..blocks).map(|i| {
        let open = Re::lit(Template::call(x, server, methods[(2 * i) % n_methods]));
        let body = Re::lit(Template::call(x, server, methods[(2 * i + 1) % n_methods]));
        Re::seq([open.clone(), body.star(), open])
    });
    let base = TraceSet::prs(Re::alt(phases).bind(x, env).star());
    let bound = TraceSet::predicate("length ≤ 4", |h: &Trace| h.len() <= 4);
    let tight = TraceSet::conj([base.clone(), bound]);
    (
        Specification::new("Protocol", [server], alphabet.clone(), base).unwrap(),
        Specification::new("Tight", [server], alphabet, tight).unwrap(),
    )
}

#[test]
fn a_predicate_conjunct_tightens_a_protocol_at_every_width_and_size() {
    let widths = (1..=4).map(|w| (w, 6, 2));
    let sizes = (1..=4).map(|blocks| (2, 8, blocks));
    for (witnesses, n_methods, blocks) in widths.chain(sizes) {
        let (base, tight) = protocol_and_tightened(witnesses, n_methods, blocks);
        let tag = format!("{witnesses} witnesses, {n_methods} methods, {blocks} blocks");
        let v = check_refinement(&tight, &base, DEPTH);
        assert!(v.holds(), "{tag}: the tightened protocol refines its base ({v})");
        let v = check_refinement(&base, &tight, DEPTH);
        assert!(!v.holds(), "{tag}: the base does not refine the tightened protocol ({v})");
    }
}

//! Composition `Γ‖∆` with hiding (Def. 4 / Def. 11), composability
//! (Def. 10) and properness (Def. 14).
//!
//! Composition encapsulates the objects of both specifications and hides
//! their internal events: `α(Γ‖∆) = (α(Γ) ∪ α(∆)) − I(O(Γ) ∪ O(∆))`, and
//! a trace belongs to `T(Γ‖∆)` iff it is the hiding of some joint trace
//! whose projections lie in the component trace sets.  Note the *strong*
//! notion of hiding: `I` ranges over all methods, including events in
//! neither alphabet — "we hide more than we can see" (§4, Fig. 1).
//!
//! Def. 4 (interface specifications) is the special case of Def. 11 in
//! which both object sets are singletons, so one `compose` implements
//! both.  Def. 10's composability is required for component
//! specifications: the *visible* alphabet of one operand must not overlap
//! the *internal* events of the other, otherwise the composition would
//! constrain behaviour the other specification deliberately encapsulates.

use crate::spec::Specification;
use crate::traceset::{traceset_dfa, ComposedSet, TraceSet, DEFAULT_PREDICATE_DEPTH};
use pospec_alphabet::{internal_of_set, EventSet, ObjGranule};
use pospec_trace::ObjectId;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Why a composition was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComposeError {
    /// Def. 10 fails: one alphabet meets the other's internal events.
    NotComposable {
        /// Readable description of the overlap.
        overlap: String,
    },
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComposeError::NotComposable { overlap } => {
                write!(f, "specifications are not composable (Def. 10): {overlap}")
            }
        }
    }
}

impl std::error::Error for ComposeError {}

/// Def. 10: `α(Γ) ∩ I(O(∆)) = ∅ ∧ I(O(Γ)) ∩ α(∆) = ∅` — exact.
pub fn is_composable(gamma: &Specification, delta: &Specification) -> bool {
    let u = gamma.universe();
    let i_delta = internal_of_set(u, delta.objects());
    let i_gamma = internal_of_set(u, gamma.objects());
    gamma.alphabet().is_disjoint(&i_delta) && i_gamma.is_disjoint(delta.alphabet())
}

/// Compose two specifications (Def. 4 / Def. 11), checking Def.-10
/// composability first.
pub fn compose(
    gamma: &Specification,
    delta: &Specification,
) -> Result<Specification, ComposeError> {
    let u = gamma.universe();
    let i_delta = internal_of_set(u, delta.objects());
    let i_gamma = internal_of_set(u, gamma.objects());
    let overlap_a = gamma.alphabet().intersect(&i_delta);
    let overlap_b = i_gamma.intersect(delta.alphabet());
    if !overlap_a.is_empty() || !overlap_b.is_empty() {
        return Err(ComposeError::NotComposable {
            overlap: format!("{} / {}", overlap_a.display(), overlap_b.display()),
        });
    }

    Ok(compose_unchecked(gamma, delta))
}

/// Compose **without** the Def.-10 composability check.
///
/// Def. 11 only defines composition for composable specifications; this
/// entry point exists so the meta-theory fuzzer can probe what goes wrong
/// when the side condition is dropped (the necessity experiments of
/// `EXPERIMENTS.md`).
pub fn compose_unchecked(gamma: &Specification, delta: &Specification) -> Specification {
    let u = gamma.universe();
    let objects: BTreeSet<ObjectId> = gamma.objects().union(delta.objects()).copied().collect();
    let i_o = internal_of_set(u, &objects);
    let visible = gamma.alphabet().union(delta.alphabet()).difference(&i_o);
    let ts = TraceSet::Composed(Arc::new(ComposedSet::new(
        gamma.clone(),
        delta.clone(),
        i_o,
        visible.clone(),
    )));
    let name = format!("{}‖{}", gamma.name(), delta.name());
    Specification::new_unchecked(name, objects, visible, ts)
}

/// Def. 14's offending set `α₀`: the events that involve objects of the
/// refinement `Γ′` but no object of the original `Γ` — exactly the events
/// a context `∆` would lose to hiding if the new objects entered its
/// communication environment.
pub fn properness_offending_events(refined: &Specification, original: &Specification) -> EventSet {
    let u = refined.universe();
    let in_set = |g: ObjGranule, s: &BTreeSet<ObjectId>| match g {
        ObjGranule::Named(o) => s.contains(&o),
        _ => false,
    };
    EventSet::universal(u).filter_granules(|g| {
        (in_set(g.caller, refined.objects()) || in_set(g.callee, refined.objects()))
            && !in_set(g.caller, original.objects())
            && !in_set(g.callee, original.objects())
    })
}

/// Def. 14: is `refined ⊑ original` a *proper* refinement with respect to
/// the context `delta`, i.e. `α₀ ∩ α(∆) = ∅`?  Exact.
pub fn is_proper_refinement(
    refined: &Specification,
    original: &Specification,
    delta: &Specification,
) -> bool {
    properness_offending_events(refined, original).is_disjoint(delta.alphabet())
}

/// Observable equivalence of two specifications over the canonical
/// finitization: equal alphabets and equal trace languages.
///
/// Used by Property 5 (`Γ‖Γ = Γ`), Property 12 (commutativity /
/// associativity) and Example 6 (`T(RW2‖Client) = T(WriteAcc‖Client)`).
pub fn observable_equiv(a: &Specification, b: &Specification, pred_depth: usize) -> bool {
    if !a.alphabet().set_eq(b.alphabet()) {
        return false;
    }
    let u = a.universe();
    let sigma = Arc::new(a.alphabet().enumerate_concrete());
    let da = traceset_dfa(u, a.trace_set(), Arc::clone(&sigma), pred_depth);
    let db = traceset_dfa(u, b.trace_set(), sigma, pred_depth);
    da.equiv(&db)
}

/// Equality of two specifications' trace sets *as sets of traces*,
/// regardless of their alphabets, over the canonical finitization of the
/// union alphabet.
///
/// This is the comparison Example 6 makes: `T(RW2‖Client) =
/// T(WriteAcc‖Client)` holds even though `α(RW2‖Client)` formally
/// contains extra (never-occurring) events of the open environment.
/// Traces using symbols outside a side's alphabet are simply not members
/// of that side.
pub fn language_equiv(a: &Specification, b: &Specification, pred_depth: usize) -> bool {
    let u = a.universe();
    let sigma = Arc::new(a.alphabet().union(b.alphabet()).enumerate_concrete());
    let within = |set: &EventSet| {
        let set = set.clone();
        pospec_regex::ConcreteDfa::symbol_filter(Arc::clone(&sigma), move |e| set.contains(e))
    };
    let da = traceset_dfa(u, a.trace_set(), Arc::clone(&sigma), pred_depth)
        .intersect(&within(a.alphabet()));
    let db = traceset_dfa(u, b.trace_set(), Arc::clone(&sigma), pred_depth)
        .intersect(&within(b.alphabet()));
    da.equiv(&db)
}

/// Does the specification's observable trace set contain only the empty
/// trace — the deadlock criterion of Examples 4/5?
pub fn observable_deadlock(spec: &Specification) -> bool {
    let u = spec.universe();
    let sigma = Arc::new(spec.alphabet().enumerate_concrete());
    traceset_dfa(u, spec.trace_set(), sigma, DEFAULT_PREDICATE_DEPTH).accepts_only_epsilon()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refine::check_refinement;
    use pospec_alphabet::{EventPattern, Universe, UniverseBuilder};
    use pospec_regex::{Re, Template, VarId};
    use pospec_trace::{ClassId, Event, MethodId, Trace};

    struct Fix {
        u: Arc<Universe>,
        o: ObjectId,
        oprime: ObjectId,
        c: ObjectId,
        objects: ClassId,
        w: MethodId,
        ow: MethodId,
        cw: MethodId,
        ok: MethodId,
    }

    fn fix() -> Fix {
        let mut b = UniverseBuilder::new();
        let objects = b.object_class("Objects").unwrap();
        let data = b.data_class("Data").unwrap();
        let o = b.object("o").unwrap();
        let oprime = b.object("o_mon").unwrap();
        let c = b.object_in("c", objects).unwrap();
        let w = b.method_with("W", data).unwrap();
        let ow = b.method("OW").unwrap();
        let cw = b.method("CW").unwrap();
        let ok = b.method("OK").unwrap();
        b.class_witnesses(objects, 1).unwrap();
        b.data_witnesses(data, 1).unwrap();
        b.method_witnesses(1).unwrap();
        Fix { u: b.freeze(), o, oprime, c, objects, w, ow, cw, ok }
    }

    /// `WriteAcc` of Example 4: only `c` calls `o`'s write methods,
    /// bracketed `[OW W* CW]*`.
    fn write_acc(f: &Fix) -> Specification {
        let alpha = EventPattern::call(f.c, f.o, f.ow)
            .to_set(&f.u)
            .union(&EventPattern::call(f.c, f.o, f.cw).to_set(&f.u))
            .union(&EventPattern::call(f.c, f.o, f.w).to_set(&f.u));
        let re = Re::seq([
            Re::lit(Template::call(f.c, f.o, f.ow)),
            Re::lit(Template::call(f.c, f.o, f.w)).star(),
            Re::lit(Template::call(f.c, f.o, f.cw)),
        ])
        .star();
        Specification::new("WriteAcc", [f.o], alpha, TraceSet::prs(re)).unwrap()
    }

    /// `Client` of Example 4: `c` writes to `o` then confirms to the
    /// monitor `o′` — at the *abstract* level, ignoring OW/CW.
    fn client(f: &Fix) -> Specification {
        let alpha = EventPattern::call(f.c, f.o, f.w)
            .to_set(&f.u)
            .union(&EventPattern::call(f.c, f.oprime, f.ok).to_set(&f.u));
        let re = Re::seq([
            Re::lit(Template::call(f.c, f.o, f.w)),
            Re::lit(Template::call(f.c, f.oprime, f.ok)),
        ])
        .star();
        Specification::new("Client", [f.c], alpha, TraceSet::prs(re)).unwrap()
    }

    #[test]
    fn composability_of_disjoint_interface_specs() {
        let f = fix();
        let wa = write_acc(&f);
        let cl = client(&f);
        // α(Client) contains ⟨c,o,W⟩ which is internal to... no: O(WriteAcc)
        // = {o}, I({o}) = ∅; O(Client) = {c}, I({c}) = ∅.  Composable.
        assert!(is_composable(&wa, &cl));
        assert!(is_composable(&cl, &wa));
    }

    #[test]
    fn composition_hides_internal_events_example_4() {
        let f = fix();
        let composed = compose(&write_acc(&f), &client(&f)).unwrap();
        // O = {o, c}; all o↔c events are hidden; only ⟨c,o′,OK⟩ remains.
        assert_eq!(composed.objects().len(), 2);
        let okev = Event::call(f.c, f.oprime, f.ok);
        assert!(composed.alphabet().contains(&okev));
        assert!(!composed.alphabet().contains(&Event::call(f.c, f.o, f.ow)));
        assert!(!composed.alphabet().contains(&Event::call(f.c, f.o, f.w)));
        // T(Client‖WriteAcc) = prefix closure of OK*: every OK^n is in.
        for n in 0..4 {
            let t = Trace::from_events(vec![okev; n]);
            assert!(composed.contains_trace(&t), "OK^{n} must be observable");
        }
        assert!(!observable_deadlock(&composed), "projection avoids the deadlock");
    }

    #[test]
    fn composition_runner_dies_on_a_foreign_event() {
        let f = fix();
        let composed = compose(&write_acc(&f), &client(&f)).unwrap();
        let mut runner = composed.trace_set().runner(&f.u);
        let okev = Event::call(f.c, f.oprime, f.ok);
        assert!(runner.step(&okev));
        // A hidden event is not observable, so not in the alphabet.
        assert!(!runner.step(&Event::call(f.c, f.o, f.ow)));
        assert!(runner.is_dead());
        assert!(!runner.step(&okev), "dead runners stay dead");
    }

    /// A composition's automaton is built at the depth it is asked for,
    /// with and without a cache: the lift, product and erase of the
    /// operand automata at that depth.
    #[test]
    fn composition_automata_follow_the_query_depth() {
        let f = fix();
        let w = f.w;
        let counting = Specification::new(
            "≤7 W",
            [f.o],
            write_acc(&f).alphabet().clone(),
            TraceSet::predicate("≤7 W", move |h: &Trace| h.count_method(w) <= 7),
        )
        .unwrap();
        let composed = compose(&counting, &client(&f)).unwrap();
        let (u, ts, alpha) = (&f.u, composed.trace_set(), composed.alphabet());
        let TraceSet::Composed(c) = ts else { panic!("compose builds a composition") };
        let sigma = Arc::new(alpha.enumerate_concrete());
        let joint = Arc::new(c.left.alphabet().union(c.right.alphabet()).enumerate_concrete());
        let cache = crate::DfaCache::new();
        let mut expected = Vec::new();
        for depth in [2, 6] {
            let lift = |s: &Specification| {
                let own = Arc::new(s.alphabet().enumerate_concrete());
                traceset_dfa(u, s.trace_set(), own, depth).lift_to(Arc::clone(&joint))
            };
            let want = lift(&c.left)
                .intersect(&lift(&c.right))
                .erase(|e| c.hidden.contains(e))
                .restrict_to(Arc::clone(&sigma));
            let cached = cache.traceset_dfa(u, ts, alpha, depth);
            let free = traceset_dfa(u, ts, Arc::clone(&sigma), depth);
            assert!(cached.equiv(&want), "cached composition at depth {depth}");
            assert!(free.equiv(&want), "uncached composition at depth {depth}");
            expected.push(want);
        }
        // Client's W must be matched by one of the predicate side's, so
        // at most `depth` OKs are observable: the depth shows.
        assert!(!expected[0].equiv(&expected[1]));
    }

    #[test]
    fn strong_hiding_covers_unseen_events() {
        let f = fix();
        let composed = compose(&write_acc(&f), &client(&f)).unwrap();
        // A fresh method between o and c is in neither alphabet, yet hidden.
        let fresh = f.u.method_witnesses().next().unwrap();
        assert!(!composed.alphabet().contains(&Event::call(f.c, f.o, fresh)));
        // Fig. 1: the hidden set minus both alphabets is non-empty.
        let joint = write_acc(&f).alphabet().union(client(&f).alphabet());
        let hidden_unseen = internal_of_set(&f.u, composed.objects()).difference(&joint);
        assert!(!hidden_unseen.is_empty());
        assert!(hidden_unseen.is_infinite());
    }

    #[test]
    fn property_5_self_composition_is_identity() {
        let f = fix();
        let wa = write_acc(&f);
        let self_comp = compose(&wa, &wa).unwrap();
        assert_eq!(self_comp.objects(), wa.objects());
        assert!(self_comp.alphabet().set_eq(wa.alphabet()));
        assert!(observable_equiv(&self_comp, &wa, 6));
    }

    #[test]
    fn commutativity_of_composition() {
        let f = fix();
        let ab = compose(&write_acc(&f), &client(&f)).unwrap();
        let ba = compose(&client(&f), &write_acc(&f)).unwrap();
        assert_eq!(ab.objects(), ba.objects());
        assert!(ab.alphabet().set_eq(ba.alphabet()));
        assert!(observable_equiv(&ab, &ba, 6));
    }

    #[test]
    fn non_composable_component_specs_are_rejected() {
        let f = fix();
        // ∆ is a *component* spec over {o, o_mon}; Γ's alphabet mentions
        // c→o events... those are not internal to {o, o_mon}.  Build a
        // genuine violation instead: Γ's alphabet contains ⟨o,o_mon,OK⟩
        // which is internal to O(∆) = {o, o_mon}.
        let gamma = {
            let alpha = EventPattern::call(f.o, f.oprime, f.ok)
                .to_set(&f.u)
                .union(&EventPattern::call(f.objects, f.o, f.w).to_set(&f.u));
            Specification::new("G", [f.o], alpha, TraceSet::Universal).unwrap()
        };
        let delta = {
            let alpha = EventPattern::call(f.objects, f.oprime, f.ok).to_set(&f.u);
            Specification::new("D", [f.o, f.oprime], alpha, TraceSet::Universal)
        };
        // Wait: α(∆) includes ⟨c, o_mon, OK⟩ — admissible.  And
        // I(O(∆)) ⊇ ⟨o,o_mon,OK⟩ which is in α(Γ): not composable.
        let delta = delta.unwrap();
        assert!(!is_composable(&gamma, &delta));
        assert!(compose(&gamma, &delta).is_err());
    }

    #[test]
    fn properness_detects_environment_capture() {
        let f = fix();
        let wa = write_acc(&f);
        let cl = client(&f);
        // Refine WriteAcc by adding the monitor o′ as a new object.  The
        // events ⟨c,o′,OK⟩ now involve a new object of the refinement and
        // none of O(WriteAcc) = {o}: they are in α₀, and they appear in
        // α(Client): improper.
        let refined = {
            let alpha =
                wa.alphabet().union(&EventPattern::call(f.objects, f.oprime, f.ok).to_set(&f.u));
            // Keep WriteAcc's protocol on the old alphabet (OK events are
            // simply forbidden by the prs set, which is a legal narrowing).
            Specification::new("WriteAcc+Mon", [f.o, f.oprime], alpha, wa.trace_set().clone())
                .unwrap()
        };
        assert!(check_refinement(&refined, &wa, 4).holds());
        assert!(!is_proper_refinement(&refined, &wa, &cl));
        let alpha0 = properness_offending_events(&refined, &wa);
        assert!(alpha0.contains(&Event::call(f.c, f.oprime, f.ok)));
        // With a context that never mentions o′, the same refinement is
        // proper.
        let neutral = {
            let alpha = EventPattern::call(f.objects, f.o, f.w).to_set(&f.u);
            Specification::new("Neutral", [f.o], alpha, TraceSet::Universal).unwrap()
        };
        assert!(is_proper_refinement(&refined, &wa, &neutral));
    }

    #[test]
    fn refinement_without_new_objects_is_always_proper() {
        let f = fix();
        let wa = write_acc(&f);
        let cl = client(&f);
        // Property 17 setting: O unchanged ⇒ α₀ = ∅.
        let tightened = Specification::new(
            "WriteAccTight",
            [f.o],
            wa.alphabet().clone(),
            TraceSet::conj([wa.trace_set().clone(), {
                let w = f.w;
                TraceSet::predicate("≤2 W", move |h: &Trace| h.count_method(w) <= 2)
            }]),
        )
        .unwrap();
        let alpha0 = properness_offending_events(&tightened, &wa);
        assert!(alpha0.is_empty());
        assert!(is_proper_refinement(&tightened, &wa, &cl));
    }

    #[test]
    fn deadlock_detection_on_artificial_mismatch() {
        let f = fix();
        // Client2 of Example 5: OW happens *after* W — opposite of
        // WriteAcc's order.
        let client2 = {
            let alpha =
                client(&f).alphabet().union(&EventPattern::call(f.c, f.o, f.ow).to_set(&f.u));
            let re = Re::seq([
                Re::lit(Template::call(f.c, f.o, f.w)),
                Re::lit(Template::call(f.c, f.oprime, f.ok)),
                Re::lit(Template::call(f.c, f.o, f.ow)),
            ])
            .star();
            Specification::new("Client2", [f.c], alpha, TraceSet::prs(re)).unwrap()
        };
        assert!(check_refinement(&client2, &client(&f), 4).holds());
        let composed = compose(&client2, &write_acc(&f)).unwrap();
        assert!(observable_deadlock(&composed), "Example 5: refinement introduced deadlock");
    }

    #[test]
    fn var_binding_compose_roundtrip() {
        // A sanity check that composition also works with binder-based sets.
        let f = fix();
        let x = VarId(0);
        let spec = {
            let alpha = EventPattern::call(f.objects, f.o, f.ow)
                .to_set(&f.u)
                .union(&EventPattern::call(f.objects, f.o, f.cw).to_set(&f.u));
            let re = Re::seq([
                Re::lit(Template::call(x, f.o, f.ow)),
                Re::lit(Template::call(x, f.o, f.cw)),
            ])
            .bind(x, f.objects)
            .star();
            Specification::new("Brackets", [f.o], alpha, TraceSet::prs(re)).unwrap()
        };
        let composed = compose(&spec, &client(&f)).unwrap();
        // OW/CW stay visible (c↔o is hidden, but witness callers are not
        // in O = {o, c}).
        let wit = f.u.class_witnesses(f.objects).next().unwrap();
        assert!(composed.alphabet().contains(&Event::call(wit, f.o, f.ow)));
        assert!(!composed.alphabet().contains(&Event::call(f.c, f.o, f.ow)));
    }
}

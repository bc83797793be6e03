//! Semantic components (Def. 8–9) and specification soundness (§2, §7).
//!
//! A component encapsulates a set of objects whose *semantic* trace sets
//! `T^o ⊆ Seq[α_o]` are given.  Its observable alphabet is
//! `α_C = ⋃_{o∈C} α_o − I(C)` and its trace set is the hiding of the
//! joint behaviour:
//!
//! ```text
//! T_C = { h/α_C  |  ⋀_{o∈C} h/α_o ∈ T^o }.
//! ```
//!
//! Component composition is plain set union (object uniqueness makes it
//! commutative, associative and compositional — §6).
//!
//! A specification `Γ` is **sound** for a component `C` when every joint
//! behaviour projects into `T(Γ)`: `∀h: (⋀ h/α_o ∈ T^o) ⇒ h/α(Γ) ∈ T(Γ)`,
//! generalising the single-object notion of §2.  Lemma 13 (composition
//! preserves soundness) is checked against this definition in
//! `pospec-check`.

use crate::spec::Specification;
use crate::traceset::{traceset_dfa, TraceSet};
use pospec_alphabet::{alpha_object, internal_of_set, EventSet, Universe};
use pospec_regex::{lazy_lifted_inclusion, ConcreteDfa};
use pospec_trace::{Event, ObjectId, Trace};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// An object with semantically-given behaviour `T^o` over its full
/// alphabet `α_o`.
#[derive(Debug, Clone)]
pub struct SemanticObject {
    /// The object's identity.
    pub id: ObjectId,
    /// `T^o` — all possible executions of the object, as a prefix-closed
    /// trace set over `α_o`.
    pub traces: TraceSet,
}

impl SemanticObject {
    /// A new semantic object.
    pub fn new(id: ObjectId, traces: TraceSet) -> Self {
        SemanticObject { id, traces }
    }

    /// An object with unconstrained behaviour.
    pub fn chaotic(id: ObjectId) -> Self {
        SemanticObject { id, traces: TraceSet::Universal }
    }
}

/// A component: a finite set of semantic objects (Def. 8–9).
#[derive(Debug, Clone, Default)]
pub struct Component {
    objects: BTreeMap<ObjectId, SemanticObject>,
}

impl Component {
    /// Build from semantic objects.  Object identities must be unique; a
    /// duplicate keeps the first occurrence (object semantics are unique
    /// by assumption — §6).
    pub fn new(objects: impl IntoIterator<Item = SemanticObject>) -> Self {
        let mut map = BTreeMap::new();
        for o in objects {
            map.entry(o.id).or_insert(o);
        }
        Component { objects: map }
    }

    /// The encapsulated object identities.
    pub fn object_ids(&self) -> BTreeSet<ObjectId> {
        self.objects.keys().copied().collect()
    }

    /// The semantic objects.
    pub fn members(&self) -> impl Iterator<Item = &SemanticObject> + '_ {
        self.objects.values()
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Is the component empty?
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Component composition = union on object sets (§6).  Commutative and
    /// associative by construction.
    pub fn compose(&self, other: &Component) -> Component {
        let mut map = self.objects.clone();
        for (id, o) in &other.objects {
            map.entry(*id).or_insert_with(|| o.clone());
        }
        Component { objects: map }
    }

    /// `I(C)` — the internal events of the component (Def. 8).
    pub fn internal(&self, u: &Arc<Universe>) -> EventSet {
        internal_of_set(u, &self.object_ids())
    }

    /// `α_C = ⋃ α_o − I(C)` — the observable alphabet (Def. 9).
    pub fn alphabet(&self, u: &Arc<Universe>) -> EventSet {
        let mut acc = EventSet::empty(u);
        for id in self.objects.keys() {
            acc = acc.union(&alpha_object(u, *id));
        }
        acc.difference(&self.internal(u))
    }

    /// The joint alphabet `⋃ α_o` *without* hiding.
    pub fn joint_alphabet(&self, u: &Arc<Universe>) -> EventSet {
        let mut acc = EventSet::empty(u);
        for id in self.objects.keys() {
            acc = acc.union(&alpha_object(u, *id));
        }
        acc
    }

    /// Does a joint trace satisfy every object's behaviour
    /// (`⋀ h/α_o ∈ T^o`)?
    pub fn joint_contains(&self, u: &Arc<Universe>, h: &Trace) -> bool {
        self.objects.values().all(|o| {
            let ho = h.project_object(o.id);
            o.traces.contains(u, &ho)
        })
    }

    /// The automaton of the joint behaviour over an explicit alphabet:
    /// the intersection of each object's lifted automaton.
    pub fn joint_dfa(
        &self,
        u: &Arc<Universe>,
        sigma: Arc<Vec<Event>>,
        pred_depth: usize,
    ) -> ConcreteDfa {
        let mut acc = ConcreteDfa::universal(Arc::clone(&sigma));
        for o in self.objects.values() {
            let sigma_o: Arc<Vec<Event>> =
                Arc::new(sigma.iter().filter(|e| e.involves(o.id)).copied().collect());
            let dfa = traceset_dfa(u, &o.traces, sigma_o, pred_depth).lift_to(Arc::clone(&sigma));
            acc = acc.intersect(&dfa);
        }
        acc
    }

    /// The automaton of `T_C` (Def. 9) over the finitized joint alphabet:
    /// joint behaviour with internal events erased.
    pub fn observable_dfa(&self, u: &Arc<Universe>, pred_depth: usize) -> ConcreteDfa {
        let sigma = Arc::new(self.joint_alphabet(u).enumerate_concrete());
        let internal = self.internal(u);
        self.joint_dfa(u, sigma, pred_depth).erase(move |e| internal.contains(e))
    }

    /// Soundness of a specification for this component: every joint
    /// behaviour must project into `T(Γ)`.  Returns a joint counterexample
    /// trace on failure.  Exact over the finitization for regular trace
    /// sets, exact up to `pred_depth` otherwise: a predicate spec's trie
    /// knows nothing of projections longer than the depth, so, as in
    /// Def. 2's check, behaviours whose projection is longer are left out.
    pub fn check_soundness(&self, spec: &Specification, pred_depth: usize) -> Result<(), Trace> {
        let u = spec.universe();
        let sigma = Arc::new(self.joint_alphabet(u).enumerate_concrete());
        let joint = self.joint_dfa(u, Arc::clone(&sigma), pred_depth);
        let sigma_spec = Arc::new(spec.alphabet().enumerate_concrete());
        let spec_dfa = traceset_dfa(u, spec.trace_set(), sigma_spec, pred_depth);
        let proj_bound = (!spec.trace_set().is_regular()).then_some(pred_depth);
        match lazy_lifted_inclusion(&joint, &spec_dfa, None, proj_bound).counterexample {
            None => Ok(()),
            Some(w) => Err(Trace::from_events(w)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pospec_alphabet::{EventPattern, UniverseBuilder};
    use pospec_regex::{Re, Template};
    use pospec_trace::{ClassId, MethodId};

    struct Fix {
        u: Arc<Universe>,
        o: ObjectId,
        c: ObjectId,
        objects: ClassId,
        ping: MethodId,
        pong: MethodId,
    }

    fn fix() -> Fix {
        let mut b = UniverseBuilder::new();
        let objects = b.object_class("Objects").unwrap();
        let o = b.object("o").unwrap();
        let c = b.object("c").unwrap();
        let ping = b.method("ping").unwrap();
        let pong = b.method("pong").unwrap();
        b.class_witnesses(objects, 1).unwrap();
        b.method_witnesses(1).unwrap();
        Fix { u: b.freeze(), o, c, objects, ping, pong }
    }

    /// `o` answers every `ping` from anywhere with a `pong` to `c`.
    fn responder(f: &Fix) -> SemanticObject {
        let re = Re::seq([
            Re::lit(Template {
                caller: pospec_regex::TObj::Any,
                callee: f.o.into(),
                method: Some(f.ping),
                arg: Default::default(),
            }),
            Re::lit(Template::call(f.o, f.c, f.pong)),
        ])
        .star();
        SemanticObject::new(f.o, TraceSet::prs(re))
    }

    #[test]
    fn composition_is_union_commutative_associative() {
        let f = fix();
        let a = Component::new([SemanticObject::chaotic(f.o)]);
        let b = Component::new([SemanticObject::chaotic(f.c)]);
        let ab = a.compose(&b);
        let ba = b.compose(&a);
        assert_eq!(ab.object_ids(), ba.object_ids());
        assert_eq!(ab.len(), 2);
        let abab = ab.compose(&ab);
        assert_eq!(abab.object_ids(), ab.object_ids(), "idempotent on same objects");
    }

    #[test]
    fn component_alphabet_hides_internal_events() {
        let f = fix();
        let comp = Component::new([SemanticObject::chaotic(f.o), SemanticObject::chaotic(f.c)]);
        let alpha = comp.alphabet(&f.u);
        assert!(!alpha.contains(&Event::call(f.o, f.c, f.pong)), "o↔c is internal");
        let wit = f.u.class_witnesses(f.objects).next().unwrap();
        assert!(alpha.contains(&Event::call(wit, f.o, f.ping)), "environment events visible");
        assert!(comp.internal(&f.u).contains(&Event::call(f.o, f.c, f.pong)));
    }

    #[test]
    fn joint_contains_projects_per_object() {
        let f = fix();
        let comp = Component::new([responder(&f), SemanticObject::chaotic(f.c)]);
        let wit = f.u.class_witnesses(f.objects).next().unwrap();
        let good =
            Trace::from_events(vec![Event::call(wit, f.o, f.ping), Event::call(f.o, f.c, f.pong)]);
        assert!(comp.joint_contains(&f.u, &good));
        let bad = Trace::from_events(vec![Event::call(f.o, f.c, f.pong)]);
        assert!(!comp.joint_contains(&f.u, &bad), "pong before ping violates T^o");
    }

    #[test]
    fn soundness_of_a_partial_spec() {
        let f = fix();
        let comp = Component::new([responder(&f)]);
        // Spec considering only ping events: universal over them — sound.
        let alpha_ping =
            EventPattern::call(pospec_alphabet::ObjSpec::Any, f.o, f.ping).to_set(&f.u);
        let spec =
            Specification::new("Pings", [f.o], alpha_ping.clone(), TraceSet::Universal).unwrap();
        assert!(comp.check_soundness(&spec, 6).is_ok());

        // Spec claiming at most one ping ever: unsound; witness has 2 pings.
        let ping = f.ping;
        let spec2 = Specification::new(
            "OnePing",
            [f.o],
            alpha_ping,
            TraceSet::predicate("≤1 ping", move |h: &Trace| h.count_method(ping) <= 1),
        )
        .unwrap();
        let cex = comp.check_soundness(&spec2, 6).unwrap_err();
        assert!(cex.count_method(f.ping) >= 2);
        assert!(comp.joint_contains(&f.u, &cex), "counterexample is a real behaviour");
    }

    #[test]
    fn a_predicate_spec_is_sound_up_to_its_depth() {
        // Every ping sequence satisfies `true`, but the depth-d trie
        // rejects projections longer than d: those are beyond the check,
        // not counterexamples.
        let f = fix();
        let comp = Component::new([responder(&f)]);
        let alpha_ping =
            EventPattern::call(pospec_alphabet::ObjSpec::Any, f.o, f.ping).to_set(&f.u);
        let spec = Specification::new(
            "AnyPings",
            [f.o],
            alpha_ping,
            TraceSet::predicate("true", |_: &Trace| true),
        )
        .unwrap();
        for depth in [1, 2, 6] {
            assert_eq!(comp.check_soundness(&spec, depth), Ok(()), "depth {depth}");
        }
    }

    #[test]
    fn observable_dfa_erases_internal_chatter() {
        let f = fix();
        let comp = Component::new([responder(&f), SemanticObject::chaotic(f.c)]);
        let dfa = comp.observable_dfa(&f.u, 4);
        // After hiding, a lone external ping is an observable trace.
        let wit = f.u.class_witnesses(f.objects).next().unwrap();
        let ping_only = Trace::from_events(vec![Event::call(wit, f.o, f.ping)]);
        assert!(dfa.contains_trace(&ping_only));
        // The pong to c is hidden, so it cannot appear.
        assert!(dfa.alphabet().iter().all(|e| !(e.caller == f.o && e.callee == f.c)));
    }

    #[test]
    fn empty_component_has_empty_alphabet() {
        let f = fix();
        let comp = Component::new([]);
        assert!(comp.is_empty());
        assert!(comp.alphabet(&f.u).is_empty());
        assert!(comp.joint_contains(&f.u, &Trace::empty()));
    }
}

//! Trace-set backends.
//!
//! The paper defines trace sets semantically as prefix-closed subsets of
//! `Seq[α]`, and writes concrete ones either with the `prs` predicate or
//! with counting predicates (`#(h/OW) − #(h/CW) ≤ 1`).  [`TraceSet`]
//! mirrors this:
//!
//! * [`TraceSet::Universal`] — no restriction (`T(Read)` of Example 1);
//! * [`TraceSet::Prs`] — prefix-of-regular-expression sets;
//! * [`TraceSet::Predicate`] — an opaque membership predicate `P`; the
//!   denoted set is the **largest prefix-closed subset** of `{h | P(h)}`
//!   (§2), so membership of `h` requires every prefix of `h` to satisfy
//!   `P`;
//! * [`TraceSet::Conj`] — intersection of restrictions (`P_RW1 ∧ P_RW2`
//!   of Example 3);
//! * [`TraceSet::Composed`] — the projection semantics of Def. 4/11:
//!   `h` belongs to `T(Γ‖∆)` iff some joint trace `h′` over
//!   `α(Γ) ∪ α(∆)` hides to `h` while projecting into both component
//!   trace sets.  Membership is decided exactly through the automaton
//!   pipeline (lift → product → erase) over the canonical finitization.

use pospec_alphabet::EventSet;
use pospec_regex::{AcceptMode as ReAcceptMode, CompiledRe, ConcreteDfa, Nfa};
use pospec_trace::{Event, Trace};
use std::fmt;
use std::sync::{Arc, OnceLock};

pub use pospec_regex::dfa::AcceptMode;

use crate::spec::Specification;

/// Default trie depth used when an opaque predicate must be given an
/// automaton view.  Up to this depth the view is exact; longer traces are
/// conservatively rejected by the view (never by direct membership).
pub const DEFAULT_PREDICATE_DEPTH: usize = 8;

/// A prefix-closed set of traces; see the module documentation.
#[derive(Clone)]
pub enum TraceSet {
    /// All of `Seq[α]`.
    Universal,
    /// `{h | h prs R}` — prefix closed by construction.
    Prs(Arc<CompiledRe>),
    /// The largest prefix-closed subset of `{h | P(h)}`.
    Predicate {
        /// A human-readable description of the predicate.
        name: Arc<str>,
        /// The predicate `P` itself.
        pred: Arc<dyn Fn(&Trace) -> bool + Send + Sync>,
    },
    /// Intersection of trace sets.  Its [`TraceSet::Predicate`]
    /// conjuncts share one trie in the automaton view (see
    /// [`traceset_dfa`]), asked in declaration order like
    /// [`TraceSet::contains`].
    Conj(Arc<Vec<TraceSet>>),
    /// The observable trace set of a composition (Def. 4/11).
    Composed(Arc<ComposedSet>),
    /// An explicit automaton over a finitized alphabet.  Membership of
    /// traces using events outside the automaton's alphabet is `false`.
    /// Used for *derived* sets — e.g. the exact projection of a regular
    /// trace set onto a sub-alphabet, which has no syntactic `prs` form.
    Dfa(Arc<ConcreteDfa>),
}

impl TraceSet {
    /// The `prs` set of a regular expression.
    pub fn prs(re: pospec_regex::Re) -> TraceSet {
        TraceSet::Prs(Arc::new(CompiledRe::new(re)))
    }

    /// An opaque predicate set (largest prefix-closed subset semantics).
    pub fn predicate(
        name: impl Into<Arc<str>>,
        pred: impl Fn(&Trace) -> bool + Send + Sync + 'static,
    ) -> TraceSet {
        TraceSet::Predicate { name: name.into(), pred: Arc::new(pred) }
    }

    /// Intersection.
    pub fn conj(parts: impl IntoIterator<Item = TraceSet>) -> TraceSet {
        TraceSet::Conj(Arc::new(parts.into_iter().collect()))
    }

    /// Direct membership of a trace, relative to a universe.
    ///
    /// For [`TraceSet::Predicate`], the largest-prefix-closed-subset
    /// semantics is enforced: all prefixes must satisfy the predicate.
    /// For [`TraceSet::Composed`], membership is decided by the
    /// composition's memoized membership automaton (exact over the
    /// canonical finitization, predicate tries at
    /// [`DEFAULT_PREDICATE_DEPTH`]).
    pub fn contains(&self, u: &pospec_alphabet::Universe, h: &Trace) -> bool {
        match self {
            TraceSet::Universal => true,
            TraceSet::Prs(re) => re.prs(u, h),
            TraceSet::Predicate { pred, .. } => h.prefixes().all(|p| pred(&p)),
            TraceSet::Conj(parts) => parts.iter().all(|t| t.contains(u, h)),
            TraceSet::Composed(c) => c.membership_dfa().contains_trace(h),
            TraceSet::Dfa(d) => d.contains_trace(h),
        }
    }

    /// Does the backend admit an *exact* automaton view (no opaque
    /// predicates anywhere)?
    pub fn is_regular(&self) -> bool {
        match self {
            TraceSet::Universal | TraceSet::Prs(_) => true,
            TraceSet::Predicate { .. } => false,
            TraceSet::Conj(parts) => parts.iter().all(|t| t.is_regular()),
            TraceSet::Composed(c) => {
                c.left.trace_set().is_regular() && c.right.trace_set().is_regular()
            }
            TraceSet::Dfa(_) => true,
        }
    }

    /// Is the automaton view of [`traceset_dfa`] *exact on every word it
    /// can represent* — i.e. correct for all traces up to the trie depth?
    ///
    /// Regular backends are exact everywhere.  A top-level predicate trie
    /// (and conjunctions of such) decides membership exactly for traces
    /// no longer than the depth, so a refinement check whose comparison
    /// provably never left that horizon may report an exact verdict.
    /// Composed sets with non-regular components build their inner tries
    /// *before* hiding, so no per-depth exactness claim survives the
    /// erasure — they report `false`.
    pub fn trie_exact_to_depth(&self) -> bool {
        match self {
            TraceSet::Universal | TraceSet::Prs(_) | TraceSet::Dfa(_) => true,
            TraceSet::Predicate { .. } => true,
            TraceSet::Conj(parts) => parts.iter().all(|t| t.trie_exact_to_depth()),
            TraceSet::Composed(_) => self.is_regular(),
        }
    }
}

impl fmt::Debug for TraceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceSet::Universal => write!(f, "Universal"),
            TraceSet::Prs(_) => write!(f, "Prs(..)"),
            TraceSet::Predicate { name, .. } => write!(f, "Predicate({name})"),
            TraceSet::Conj(parts) => f.debug_list().entries(parts.iter()).finish(),
            TraceSet::Composed(c) => {
                write!(f, "Composed({} ‖ {})", c.left.name(), c.right.name())
            }
            TraceSet::Dfa(d) => write!(f, "Dfa({} states)", d.state_count()),
        }
    }
}

/// The trace set of a composition `Γ‖∆`.  Its automaton is built from
/// the operand automata lifted to the joint alphabet, by whoever asks:
/// a [`crate::DfaCache`] from its own lifts, [`traceset_dfa`] without a
/// cache.
pub struct ComposedSet {
    /// The left operand `Γ`.
    pub left: Specification,
    /// The right operand `∆`.
    pub right: Specification,
    /// The hidden events `I(O(Γ) ∪ O(∆))`, including those in neither
    /// alphabet (the strong hiding of Def. 3).
    pub hidden: EventSet,
    /// The visible alphabet `α = (α(Γ) ∪ α(∆)) − I(O)`.
    pub visible: EventSet,
    /// The automaton behind [`TraceSet::contains`] and
    /// [`TraceSetRunner`], built on first use.
    membership: OnceLock<ConcreteDfa>,
}

impl ComposedSet {
    pub(crate) fn new(
        left: Specification,
        right: Specification,
        hidden: EventSet,
        visible: EventSet,
    ) -> Self {
        ComposedSet { left, right, hidden, visible, membership: OnceLock::new() }
    }

    /// `α(Γ) ∪ α(∆)`, the alphabet both operands are lifted to.
    pub(crate) fn joint_alphabet(&self) -> EventSet {
        self.left.alphabet().union(self.right.alphabet())
    }

    /// The observable-language automaton of the composition, given both
    /// operand automata lifted to the canonical finitization of
    /// [`ComposedSet::joint_alphabet`]: their product with the hidden
    /// events erased.
    pub(crate) fn observable_dfa(&self, left: &ConcreteDfa, right: &ConcreteDfa) -> ConcreteDfa {
        left.intersect(right).erase(|e| self.hidden.contains(e))
    }

    /// [`ComposedSet::observable_dfa`] over operand automata built without a
    /// cache at `pred_depth`.  Each operand automaton and its lift are
    /// minimized, as [`crate::DfaCache`] minimizes its entries, so the
    /// product is the one the cache builds.
    fn build(&self, pred_depth: usize) -> ConcreteDfa {
        let u = self.left.universe();
        let joint = Arc::new(self.joint_alphabet().enumerate_concrete());
        let lift = |spec: &Specification| {
            let sigma = Arc::new(spec.alphabet().enumerate_concrete());
            traceset_dfa(u, spec.trace_set(), sigma, pred_depth)
                .minimize()
                .lift_to(Arc::clone(&joint))
                .minimize()
        };
        self.observable_dfa(&lift(&self.left), &lift(&self.right))
    }

    /// The membership automaton: [`ComposedSet::build`] at
    /// [`DEFAULT_PREDICATE_DEPTH`], memoized per instance.
    fn membership_dfa(&self) -> &ConcreteDfa {
        self.membership.get_or_init(|| self.build(DEFAULT_PREDICATE_DEPTH))
    }
}

impl fmt::Debug for ComposedSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ComposedSet({} ‖ {})", self.left.name(), self.right.name())
    }
}

/// Incremental membership evaluation: feed events one at a time and learn
/// immediately whether the growing trace is still a member.
///
/// For [`TraceSet::Prs`] backends the runner advances the binding NFA's
/// simulation set — O(simulation-set) per event instead of re-running the
/// whole trace, which makes online monitors (`pospec-sim`) linear instead
/// of quadratic.  Opaque predicates fall back to accumulate-and-re-check
/// (their membership genuinely depends on the whole trace).
pub struct TraceSetRunner {
    u: Arc<pospec_alphabet::Universe>,
    state: RunnerState,
    dead: bool,
}

enum RunnerState {
    Universal,
    Prs { re: Arc<CompiledRe>, sim: pospec_regex::nfa::SimSet },
    Conj(Vec<TraceSetRunner>),
    Dfa { dfa: Arc<ConcreteDfa>, state: Option<usize> },
    Composed { set: Arc<ComposedSet>, state: Option<usize> },
    Predicate { pred: Arc<dyn Fn(&Trace) -> bool + Send + Sync>, seen: Vec<Event> },
}

impl TraceSetRunner {
    fn new(u: Arc<pospec_alphabet::Universe>, ts: &TraceSet) -> Self {
        let state = match ts {
            TraceSet::Universal => RunnerState::Universal,
            TraceSet::Prs(re) => RunnerState::Prs { re: Arc::clone(re), sim: re.nfa().initial() },
            TraceSet::Conj(parts) => RunnerState::Conj(
                parts.iter().map(|p| TraceSetRunner::new(Arc::clone(&u), p)).collect(),
            ),
            TraceSet::Dfa(d) => {
                RunnerState::Dfa { dfa: Arc::clone(d), state: Some(d.start_state()) }
            }
            TraceSet::Composed(c) => RunnerState::Composed {
                set: Arc::clone(c),
                state: Some(c.membership_dfa().start_state()),
            },
            TraceSet::Predicate { pred, .. } => {
                RunnerState::Predicate { pred: Arc::clone(pred), seen: Vec::new() }
            }
        };
        let mut runner = TraceSetRunner { u, state, dead: false };
        // The empty trace may already be a non-member (empty sets).
        if !runner.currently_member() {
            runner.dead = true;
        }
        runner
    }

    fn currently_member(&self) -> bool {
        match &self.state {
            RunnerState::Universal => true,
            RunnerState::Prs { re, sim } => re.nfa().any_live(sim),
            RunnerState::Conj(parts) => parts.iter().all(|p| !p.dead && p.currently_member()),
            RunnerState::Dfa { dfa, state } => state.map(|s| dfa.is_accepting(s)).unwrap_or(false),
            RunnerState::Composed { set, state } => {
                state.map(|s| set.membership_dfa().is_accepting(s)).unwrap_or(false)
            }
            RunnerState::Predicate { pred, seen } => pred(&Trace::from_events(seen.clone())),
        }
    }

    /// Advance by one event; returns whether the trace so far (including
    /// `e`) is still a member.  Once a prefix falls out of the
    /// (prefix-closed) set, the runner latches dead.
    pub fn step(&mut self, e: &Event) -> bool {
        if self.dead {
            return false;
        }
        let alive = match &mut self.state {
            RunnerState::Universal => true,
            RunnerState::Prs { re, sim } => {
                *sim = re.nfa().step(&self.u, sim, e);
                re.nfa().any_live(sim)
            }
            RunnerState::Conj(parts) => {
                let mut all = true;
                for p in parts.iter_mut() {
                    if !p.step(e) {
                        all = false;
                    }
                }
                all
            }
            RunnerState::Dfa { dfa, state } => {
                *state = state.and_then(|s| {
                    dfa.alphabet().iter().position(|x| x == e).and_then(|sym| dfa.successor(s, sym))
                });
                state.map(|s| dfa.is_accepting(s)).unwrap_or(false)
            }
            RunnerState::Composed { set, state } => {
                let dfa = set.membership_dfa();
                *state = state.and_then(|s| {
                    dfa.alphabet().iter().position(|x| x == e).and_then(|sym| dfa.successor(s, sym))
                });
                state.map(|s| dfa.is_accepting(s)).unwrap_or(false)
            }
            RunnerState::Predicate { pred, seen } => {
                seen.push(*e);
                // Largest-prefix-closed-subset: earlier prefixes were
                // members (we'd be dead otherwise), so checking P on the
                // new prefix suffices.
                pred(&Trace::from_events(seen.clone()))
            }
        };
        if !alive {
            self.dead = true;
        }
        alive
    }

    /// Has the runner seen a violation?
    pub fn is_dead(&self) -> bool {
        self.dead
    }
}

impl TraceSet {
    /// Start incremental membership evaluation (see [`TraceSetRunner`]).
    pub fn runner(&self, u: &Arc<pospec_alphabet::Universe>) -> TraceSetRunner {
        TraceSetRunner::new(Arc::clone(u), self)
    }
}

/// Build an automaton view of a trace set over an explicit concrete
/// alphabet.
///
/// The view is exact for [`TraceSet::is_regular`] backends; opaque
/// predicates are unfolded into a prefix trie up to `pred_depth` (exact up
/// to that depth, rejecting beyond it).
///
/// The predicate conjuncts of a [`TraceSet::Conj`] unfold as **one** trie
/// whose membership test is their conjunction: the conjuncts are asked in
/// declaration order and the test stops at the first refusal, as
/// [`TraceSet::contains`] does.  The other conjuncts are intersected with
/// that trie.  A product of tries is the trie of the intersection, so this
/// is the automaton the per-conjunct tries would multiply out to, without
/// unfolding each predicate over the whole alphabet first.
///
/// A [`TraceSet::Composed`] is built at `pred_depth` from operand
/// automata built without a cache; [`crate::DfaCache::traceset_dfa`]
/// builds the same automaton from the lifts it holds.
pub fn traceset_dfa(
    u: &pospec_alphabet::Universe,
    ts: &TraceSet,
    sigma: Arc<Vec<Event>>,
    pred_depth: usize,
) -> ConcreteDfa {
    match ts {
        TraceSet::Universal => ConcreteDfa::universal(sigma),
        TraceSet::Prs(re) => {
            let nfa = Nfa::compile(re.re());
            ConcreteDfa::from_nfa(u, &nfa, sigma, ReAcceptMode::PrefixLive)
        }
        TraceSet::Predicate { pred, .. } => {
            let pred = Arc::clone(pred);
            // The trie explores members only, so the largest-prefix-closed
            // subset semantics is automatic (non-member prefixes cut the
            // branch).
            ConcreteDfa::from_membership(sigma, pred_depth, move |h| pred(h))
        }
        TraceSet::Conj(parts) => {
            let preds: Vec<_> = parts
                .iter()
                .filter_map(|p| match p {
                    TraceSet::Predicate { pred, .. } => Some(pred),
                    _ => None,
                })
                .collect();
            let mut acc = if preds.is_empty() {
                ConcreteDfa::universal(Arc::clone(&sigma))
            } else {
                ConcreteDfa::from_membership(Arc::clone(&sigma), pred_depth, |h| {
                    preds.iter().all(|p| p(h))
                })
            };
            for p in parts.iter().filter(|p| !matches!(p, TraceSet::Predicate { .. })) {
                acc = acc.intersect(&traceset_dfa(u, p, Arc::clone(&sigma), pred_depth));
            }
            acc
        }
        TraceSet::Composed(c) => c.build(pred_depth).restrict_to(sigma),
        TraceSet::Dfa(d) => d.as_ref().clone().restrict_to(sigma),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pospec_alphabet::{EventPattern, UniverseBuilder};
    use pospec_regex::{Re, Template, VarId};
    use pospec_trace::{Event, MethodId, ObjectId};

    struct Fix {
        u: Arc<pospec_alphabet::Universe>,
        o: ObjectId,
        c: ObjectId,
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
        b.class_witnesses(objects, 1).unwrap();
        let u = b.freeze();
        let alpha = EventPattern::call(objects, o, ow)
            .to_set(&u)
            .union(&EventPattern::call(objects, o, w).to_set(&u))
            .union(&EventPattern::call(objects, o, cw).to_set(&u));
        let sigma = Arc::new(alpha.enumerate_concrete());
        Fix { u, o, c, ow, w, cw, sigma }
    }

    fn write_set(f: &Fix) -> TraceSet {
        let objects = f.u.class_by_name("Objects").unwrap();
        let x = VarId(0);
        TraceSet::prs(
            Re::seq([
                Re::lit(Template::call(x, f.o, f.ow)),
                Re::lit(Template::call(x, f.o, f.w)).star(),
                Re::lit(Template::call(x, f.o, f.cw)),
            ])
            .bind(x, objects)
            .star(),
        )
    }

    #[test]
    fn universal_contains_everything() {
        let f = fix();
        let t = Trace::from_events(vec![Event::call(f.c, f.o, f.cw)]);
        assert!(TraceSet::Universal.contains(&f.u, &t));
        assert!(TraceSet::Universal.is_regular());
    }

    #[test]
    fn predicate_uses_largest_prefix_closed_subset() {
        let f = fix();
        // P(h) = "length is not exactly 1" — not prefix closed as given.
        let ts = TraceSet::predicate("len≠1", |h: &Trace| h.len() != 1);
        let t2 = Trace::from_events(vec![Event::call(f.c, f.o, f.ow), Event::call(f.c, f.o, f.cw)]);
        // Though P(t2) holds, the prefix of length 1 fails: not a member.
        assert!(!ts.contains(&f.u, &t2));
        assert!(ts.contains(&f.u, &Trace::empty()));
        assert!(!ts.is_regular());
    }

    #[test]
    fn conj_intersects() {
        let f = fix();
        let ws = write_set(&f);
        let cw = f.cw;
        let no_cw = TraceSet::predicate("no CW", move |h: &Trace| h.iter().all(|e| e.method != cw));
        let both = TraceSet::conj([ws.clone(), no_cw]);
        let open = Trace::from_events(vec![Event::call(f.c, f.o, f.ow)]);
        assert!(both.contains(&f.u, &open));
        let closed =
            Trace::from_events(vec![Event::call(f.c, f.o, f.ow), Event::call(f.c, f.o, f.cw)]);
        assert!(ws.contains(&f.u, &closed));
        assert!(!both.contains(&f.u, &closed), "CW is banned by the second conjunct");
    }

    #[test]
    fn traceset_dfa_agrees_with_membership_for_regular_sets() {
        let f = fix();
        let ws = write_set(&f);
        let dfa = traceset_dfa(&f.u, &ws, Arc::clone(&f.sigma), DEFAULT_PREDICATE_DEPTH);
        // Cross-validate on every word up to length 4 over sigma.
        let mut frontier = vec![Vec::<Event>::new()];
        for _ in 0..4 {
            let mut next = Vec::new();
            for w in &frontier {
                for &e in f.sigma.iter() {
                    let mut w2 = w.clone();
                    w2.push(e);
                    next.push(w2);
                }
            }
            for w in &next {
                let t = Trace::from_events(w.clone());
                assert_eq!(dfa.contains_trace(&t), ws.contains(&f.u, &t), "disagreement on {t}");
            }
            frontier = next;
        }
    }

    #[test]
    fn runner_agrees_with_batch_membership() {
        let f = fix();
        let ws = write_set(&f);
        // Every word up to length 3: runner verdict == batch verdict at
        // every prefix.
        let mut frontier = vec![Vec::<Event>::new()];
        for _ in 0..3 {
            let mut next = Vec::new();
            for w in &frontier {
                for &e in f.sigma.iter() {
                    let mut w2 = w.clone();
                    w2.push(e);
                    let mut runner = ws.runner(&f.u);
                    let mut alive = true;
                    for (i, ev) in w2.iter().enumerate() {
                        alive = runner.step(ev);
                        let prefix = Trace::from_events(w2[..=i].to_vec());
                        assert_eq!(
                            alive,
                            ws.contains(&f.u, &prefix),
                            "runner diverged at {prefix}"
                        );
                    }
                    assert_eq!(runner.is_dead(), !alive);
                    next.push(w2);
                }
            }
            frontier = next;
        }
    }

    #[test]
    fn runner_latches_after_violation() {
        let f = fix();
        let ws = write_set(&f);
        let mut runner = ws.runner(&f.u);
        // W without OW: dead immediately, and stays dead even on a
        // would-be-valid OW afterwards.
        assert!(!runner.step(&Event::call(f.c, f.o, f.w)));
        assert!(!runner.step(&Event::call(f.c, f.o, f.ow)));
        assert!(runner.is_dead());
    }

    #[test]
    fn conj_and_predicate_runners() {
        let f = fix();
        let ow = f.ow;
        let ts = TraceSet::conj([
            write_set(&f),
            TraceSet::predicate("≤1 OW", move |h: &Trace| h.count_method(ow) <= 1),
        ]);
        let mut runner = ts.runner(&f.u);
        assert!(runner.step(&Event::call(f.c, f.o, f.ow)));
        assert!(runner.step(&Event::call(f.c, f.o, f.cw)));
        // Second session violates the predicate conjunct.
        assert!(!runner.step(&Event::call(f.c, f.o, f.ow)));
    }

    #[test]
    fn predicate_trie_is_exact_up_to_depth() {
        let f = fix();
        let ow = f.ow;
        let ts = TraceSet::predicate("≤2 OW", move |h: &Trace| h.count_method(ow) <= 2);
        let dfa = traceset_dfa(&f.u, &ts, Arc::clone(&f.sigma), 3);
        let e = Event::call(f.c, f.o, f.ow);
        for n in 0..=3usize {
            let t = Trace::from_events(vec![e; n]);
            assert_eq!(dfa.contains_trace(&t), n <= 2, "n={n}");
        }
        // Beyond the trie depth the view rejects (conservative).
        let t4 = Trace::from_events(vec![Event::call(f.c, f.o, f.w); 4]);
        assert!(ts.contains(&f.u, &t4));
        assert!(!dfa.contains_trace(&t4));
    }
}

//! Memoized automaton cache and parallel batch refinement checking.
//!
//! The Def.-2 condition-3 check and the Def.-4/11 composition pipeline
//! are built from three expensive ingredients: enumerating the canonical
//! finitization of an alphabet ([`EventSet::enumerate_concrete`]),
//! building the automaton view of a trace set ([`traceset_dfa`]), and
//! lifting that view to a larger alphabet (`lift_to`).  The meta-theory
//! suite and `paper_report` issue hundreds of near-identical queries, so
//! [`DfaCache`] interns all three in query-keyed maps.  There is no
//! process-wide instance: every caller owns its cache and passes it to
//! the checks that should share it.  A composition's automaton is built
//! from the cache's own lifts of its operands (lift → product → erase),
//! at the depth of the query, so a specification taking part in several
//! compositions is finitized and lifted once per cache.
//!
//! Keys are **structural wherever the backend permits**:
//!
//! * an alphabet is interned to a dense `AlphaId` keyed by its universe
//!   identity plus its exact granule set (granules are canonical, so
//!   structurally equal `EventSet`s rebuilt by different callers share
//!   one id, one enumeration, and one `Arc` — making downstream alphabet
//!   equality an O(1) pointer check);
//! * a trace set is keyed by content: `prs` sets by their regex AST,
//!   conjunctions and compositions recursively.  Rebuilding an equal
//!   specification from scratch therefore *hits*.  Opaque predicate
//!   closures and explicit DFAs have no inspectable structure and keep
//!   `Arc`-pointer identity (the cache pins a clone of each keyed set, so
//!   a key can never be revived by a reallocated `Arc`);
//! * automaton entries additionally carry the predicate-trie depth.
//!
//! Every automaton is **Hopcroft-minimized** before it is cached
//! ([`ConcreteDfa::minimize`]), so products, lifts and inclusion walks
//! downstream run on the smallest equivalent machines.  The cached
//! refinement check itself never materializes the lifted abstract
//! automaton: [`check_refinement_cached`] runs the **on-the-fly**
//! inclusion engine (`pospec_regex::lazy_lifted_inclusion`), which
//! explores the product `A × ¬lift(B)` lazily and stops at the first
//! counterexample — verdicts and witnesses stay identical to the eager
//! [`crate::check_refinement`].
//!
//! Entries are `OnceLock`-guarded, so concurrent batch workers that race
//! on the same key block on one build instead of duplicating it.
//! Hit/miss/build-time, minimization, and on-the-fly search counters are
//! exported via [`CacheStats`] and surface in `paper_report.json` and the
//! service's `stats` response.

use crate::parallel::parallel_map_ref;
use crate::persist::PersistentStore;
use crate::refine::{
    condition3_verdict_lazy, refinement_conditions, FailedCondition, OtfOutcome, Verdict,
};
use crate::spec::Specification;
use crate::traceset::{traceset_dfa, TraceSet};
use pospec_alphabet::{EventGranule, EventSet, Universe};
use pospec_regex::{ConcreteDfa, Re};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Dense id of an interned alphabet (index into the cache's arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct AlphaId(u32);

/// Key of a trace-set backend: structural where the backend is
/// inspectable, `Arc` identity for opaque closures and explicit DFAs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum TsKey {
    Universal,
    /// The regex AST itself: rebuilt-but-equal expressions share a key.
    Prs(Re),
    /// Closure identity (pinned).
    Predicate(usize),
    Conj(Vec<TsKey>),
    /// Operand keys, operand alphabets, and the hiding split — the full
    /// structure of Def. 4/11, so an equal composition rebuilt from
    /// scratch shares the entry.
    Composed {
        left: Box<TsKey>,
        right: Box<TsKey>,
        left_alpha: AlphaId,
        right_alpha: AlphaId,
        hidden: Vec<EventGranule>,
        visible: Vec<EventGranule>,
    },
    /// Automaton identity (pinned).
    Dfa(usize),
}

/// Identity key of a finitized alphabet: universe pointer + exact
/// granule set.  Granules are canonical, so two structurally equal
/// `EventSet`s over one universe share a key (and one enumeration).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AlphaKey {
    universe: usize,
    granules: Vec<EventGranule>,
}

fn alpha_key(set: &EventSet) -> AlphaKey {
    AlphaKey {
        universe: Arc::as_ptr(set.universe()) as usize,
        granules: set.granules().copied().collect(),
    }
}

/// One interned alphabet: the universe pin (keeping the pointer half of
/// [`AlphaKey`] stable) and the lazily-built enumeration.
struct AlphaEntry {
    /// Held only to keep the universe address (half of the key) alive.
    _universe: Arc<Universe>,
    sigma: Option<Arc<Vec<Event>>>,
}

use pospec_trace::Event;

#[derive(Default)]
struct AlphaIntern {
    ids: HashMap<AlphaKey, AlphaId>,
    arena: Vec<AlphaEntry>,
}

type DfaSlot = Arc<OnceLock<Arc<ConcreteDfa>>>;

/// A snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Alphabet-enumeration lookups served from the cache.
    pub alphabet_hits: u64,
    /// Alphabet enumerations performed.
    pub alphabet_misses: u64,
    /// Trace-set automaton lookups served from the cache.
    pub dfa_hits: u64,
    /// Trace-set automata built.
    pub dfa_misses: u64,
    /// Lifted-automaton lookups served from the cache.
    pub lift_hits: u64,
    /// Lifted automata built.
    pub lift_misses: u64,
    /// Total nanoseconds spent building cache entries (misses only).
    pub build_nanos: u64,
    /// Hopcroft minimization passes run while building entries.
    pub min_builds: u64,
    /// States entering minimization (sum over all passes).
    pub min_states_in: u64,
    /// States surviving minimization (sum over all passes).
    pub min_states_out: u64,
    /// On-the-fly inclusion searches run by the cached checker.
    pub otf_checks: u64,
    /// Searches that stopped early at a counterexample.
    pub otf_early_exits: u64,
    /// Product states explored across all on-the-fly searches.
    pub otf_explored: u64,
    /// Automata served from the attached persistent store (each also
    /// counts as a `dfa_hits`/`lift_hits`, never as a miss).
    pub disk_hits: u64,
    /// Automata written through to the persistent store.
    pub disk_writes: u64,
    /// Persistent entries skipped as corrupt, version-mismatched, or
    /// key-mismatched (load + probe time).
    pub disk_skipped: u64,
}

impl CacheStats {
    /// All hits across the three maps.
    pub fn hits(&self) -> u64 {
        self.alphabet_hits + self.dfa_hits + self.lift_hits
    }

    /// All misses across the three maps.
    pub fn misses(&self) -> u64 {
        self.alphabet_misses + self.dfa_misses + self.lift_misses
    }

    /// Entries built — every miss claims its slot and builds exactly
    /// once (concurrent racers block on the winner's `OnceLock`).
    pub fn builds(&self) -> u64 {
        self.misses()
    }

    /// Time spent building entries.
    pub fn build_time(&self) -> Duration {
        Duration::from_nanos(self.build_nanos)
    }

    /// States removed by minimization across all builds.
    pub fn min_states_removed(&self) -> u64 {
        self.min_states_in.saturating_sub(self.min_states_out)
    }

    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            alphabet_hits: self.alphabet_hits - earlier.alphabet_hits,
            alphabet_misses: self.alphabet_misses - earlier.alphabet_misses,
            dfa_hits: self.dfa_hits - earlier.dfa_hits,
            dfa_misses: self.dfa_misses - earlier.dfa_misses,
            lift_hits: self.lift_hits - earlier.lift_hits,
            lift_misses: self.lift_misses - earlier.lift_misses,
            build_nanos: self.build_nanos - earlier.build_nanos,
            min_builds: self.min_builds - earlier.min_builds,
            min_states_in: self.min_states_in - earlier.min_states_in,
            min_states_out: self.min_states_out - earlier.min_states_out,
            otf_checks: self.otf_checks - earlier.otf_checks,
            otf_early_exits: self.otf_early_exits - earlier.otf_early_exits,
            otf_explored: self.otf_explored - earlier.otf_explored,
            disk_hits: self.disk_hits - earlier.disk_hits,
            disk_writes: self.disk_writes - earlier.disk_writes,
            disk_skipped: self.disk_skipped - earlier.disk_skipped,
        }
    }
}

/// Memoized automaton cache; see the module documentation.
#[derive(Default)]
pub struct DfaCache {
    alphabets: Mutex<AlphaIntern>,
    dfas: Mutex<HashMap<(TsKey, AlphaId, usize), DfaSlot>>,
    lifted: Mutex<HashMap<(TsKey, AlphaId, AlphaId, usize), DfaSlot>>,
    /// Clones of every identity-keyed trace set, pinning the `Arc`s whose
    /// addresses serve as keys (universes are pinned by the arena).
    pinned_sets: Mutex<Vec<TraceSet>>,
    /// Optional write-through persistent store; see [`DfaCache::attach_store`].
    store: OnceLock<Arc<PersistentStore>>,
    /// Memoized universe fingerprints (keyed by pinned `Arc` address),
    /// part of every on-disk key.
    universe_fps: Mutex<HashMap<usize, u64>>,
    alphabet_hits: AtomicU64,
    alphabet_misses: AtomicU64,
    dfa_hits: AtomicU64,
    dfa_misses: AtomicU64,
    lift_hits: AtomicU64,
    lift_misses: AtomicU64,
    build_nanos: AtomicU64,
    min_builds: AtomicU64,
    min_states_in: AtomicU64,
    min_states_out: AtomicU64,
    otf_checks: AtomicU64,
    otf_early_exits: AtomicU64,
    otf_explored: AtomicU64,
    disk_hits: AtomicU64,
}

impl DfaCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        DfaCache::default()
    }

    /// Attach a persistent on-disk store: content-keyed automata built
    /// from now on are written through (atomically), and probes for
    /// entries the store already holds are served from disk instead of
    /// rebuilt — so a restarted process comes up warm.  Identity-keyed
    /// trace sets (opaque predicates, explicit DFAs) stay memory-only.
    /// A second attach on the same cache is ignored.
    pub fn attach_store(&self, store: Arc<PersistentStore>) {
        let _ = self.store.set(store);
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&Arc<PersistentStore>> {
        self.store.get()
    }

    /// Intern `set`'s structural key, without enumerating it.
    fn alpha_id(&self, set: &EventSet) -> AlphaId {
        let key = alpha_key(set);
        let mut intern = self.alphabets.lock().unwrap_or_else(|e| e.into_inner());
        let AlphaIntern { ids, arena } = &mut *intern;
        match ids.entry(key) {
            MapEntry::Occupied(slot) => *slot.get(),
            MapEntry::Vacant(slot) => {
                let id = AlphaId(arena.len() as u32);
                arena.push(AlphaEntry { _universe: Arc::clone(set.universe()), sigma: None });
                *slot.insert(id)
            }
        }
    }

    /// The canonical finitization of `set`, interned: one `Arc` per
    /// structural alphabet, so alphabet equality downstream is a pointer
    /// comparison.
    pub fn alphabet(&self, set: &EventSet) -> Arc<Vec<Event>> {
        let id = self.alpha_id(set);
        let mut intern = self.alphabets.lock().unwrap_or_else(|e| e.into_inner());
        let entry = &mut intern.arena[id.0 as usize];
        if let Some(sigma) = &entry.sigma {
            self.alphabet_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(sigma);
        }
        self.alphabet_misses.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let sigma = Arc::new(set.enumerate_concrete());
        self.build_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        entry.sigma = Some(Arc::clone(&sigma));
        sigma
    }

    /// The structural key of `ts`; interns component alphabets of
    /// compositions along the way.
    fn ts_key(&self, ts: &TraceSet) -> TsKey {
        match ts {
            TraceSet::Universal => TsKey::Universal,
            TraceSet::Prs(re) => TsKey::Prs(re.re().clone()),
            TraceSet::Predicate { pred, .. } => {
                TsKey::Predicate(Arc::as_ptr(pred) as *const () as usize)
            }
            TraceSet::Conj(parts) => TsKey::Conj(parts.iter().map(|p| self.ts_key(p)).collect()),
            TraceSet::Composed(c) => TsKey::Composed {
                left: Box::new(self.ts_key(c.left.trace_set())),
                right: Box::new(self.ts_key(c.right.trace_set())),
                left_alpha: self.alpha_id(c.left.alphabet()),
                right_alpha: self.alpha_id(c.right.alphabet()),
                hidden: c.hidden.granules().copied().collect(),
                visible: c.visible.granules().copied().collect(),
            },
            TraceSet::Dfa(d) => TsKey::Dfa(Arc::as_ptr(d) as usize),
        }
    }

    /// Does `ts` contain an identity-keyed (unpinnable-by-content)
    /// backend anywhere?
    fn needs_pin(ts: &TraceSet) -> bool {
        match ts {
            TraceSet::Universal | TraceSet::Prs(_) => false,
            TraceSet::Predicate { .. } | TraceSet::Dfa(_) => true,
            TraceSet::Conj(parts) => parts.iter().any(Self::needs_pin),
            TraceSet::Composed(c) => {
                Self::needs_pin(c.left.trace_set()) || Self::needs_pin(c.right.trace_set())
            }
        }
    }

    /// Claim the slot for `key` without touching the hit/miss counters;
    /// the second component is `true` iff this call inserted the slot
    /// (the caller decides whether that vacancy is a disk hit or a miss).
    fn claim<K: std::hash::Hash + Eq>(
        &self,
        map: &Mutex<HashMap<K, DfaSlot>>,
        key: K,
        pin: &TraceSet,
    ) -> (DfaSlot, bool) {
        let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
        match map.entry(key) {
            MapEntry::Occupied(slot) => (Arc::clone(slot.get()), false),
            MapEntry::Vacant(slot) => {
                if Self::needs_pin(pin) {
                    self.pinned_sets.lock().unwrap_or_else(|e| e.into_inner()).push(pin.clone());
                }
                (Arc::clone(slot.insert(Arc::new(OnceLock::new()))), true)
            }
        }
    }

    /// The FNV-64 fingerprint of the universe's canonical description
    /// (declaration order only — `Debug` would leak per-process
    /// hash-map iteration order), memoized per pinned `Arc` address.
    /// Part of every on-disk key, so entries from a structurally
    /// different universe can never match.
    fn universe_fingerprint(&self, u: &Arc<Universe>) -> u64 {
        let ptr = Arc::as_ptr(u) as usize;
        let mut fps = self.universe_fps.lock().unwrap_or_else(|e| e.into_inner());
        *fps.entry(ptr)
            .or_insert_with(|| crate::persist::fnv64(u.canonical_description().as_bytes()))
    }

    /// Append the canonical persistent form of `set`'s granule set.
    /// Granule iteration is canonical and every granule type derives
    /// `Debug` deterministically, so structurally equal alphabets render
    /// identically across processes.
    fn canon_alpha(out: &mut String, set: &EventSet) {
        let granules: Vec<EventGranule> = set.granules().copied().collect();
        let _ = write!(out, "{granules:?}");
    }

    /// Append the canonical persistent form of `ts`, or return `false`
    /// when `ts` contains an identity-keyed backend anywhere (process-
    /// local `Arc` addresses have no cross-process meaning, so such sets
    /// are never persisted).  Unlike [`TsKey`], compositions embed their
    /// operand alphabets *structurally* — `AlphaId`s are process-local.
    fn canon_ts(out: &mut String, ts: &TraceSet) -> bool {
        match ts {
            TraceSet::Universal => {
                out.push('U');
                true
            }
            TraceSet::Prs(re) => {
                let _ = write!(out, "P({:?})", re.re());
                true
            }
            TraceSet::Predicate { .. } | TraceSet::Dfa(_) => false,
            TraceSet::Conj(parts) => {
                out.push_str("C(");
                for p in parts.iter() {
                    if !Self::canon_ts(out, p) {
                        return false;
                    }
                    out.push(',');
                }
                out.push(')');
                true
            }
            TraceSet::Composed(c) => {
                out.push_str("X(");
                if !Self::canon_ts(out, c.left.trace_set()) {
                    return false;
                }
                out.push('@');
                Self::canon_alpha(out, c.left.alphabet());
                out.push('|');
                if !Self::canon_ts(out, c.right.trace_set()) {
                    return false;
                }
                out.push('@');
                Self::canon_alpha(out, c.right.alphabet());
                let hidden: Vec<EventGranule> = c.hidden.granules().copied().collect();
                let visible: Vec<EventGranule> = c.visible.granules().copied().collect();
                let _ = write!(out, "|H{hidden:?}|V{visible:?})");
                true
            }
        }
    }

    /// The canonical on-disk key for an automaton query, or `None` when
    /// no store is attached or the trace set is not content-addressable.
    fn persist_key(
        &self,
        kind: &str,
        u: &Arc<Universe>,
        ts: &TraceSet,
        alpha: &EventSet,
        big: Option<&EventSet>,
        pred_depth: usize,
    ) -> Option<String> {
        self.store.get()?;
        let mut key = String::new();
        let _ = write!(
            key,
            "v{}|{kind}|d{pred_depth}|u{:016x}|A",
            crate::persist::FORMAT_VERSION,
            self.universe_fingerprint(u)
        );
        Self::canon_alpha(&mut key, alpha);
        if let Some(big) = big {
            key.push_str("|B");
            Self::canon_alpha(&mut key, big);
        }
        key.push_str("|T");
        if !Self::canon_ts(&mut key, ts) {
            return None;
        }
        Some(key)
    }

    /// Build an entry, Hopcroft-minimize it, and account for both.
    fn timed_build(&self, build: impl FnOnce() -> ConcreteDfa) -> Arc<ConcreteDfa> {
        let start = Instant::now();
        let raw = build();
        let min = raw.minimize();
        self.min_builds.fetch_add(1, Ordering::Relaxed);
        self.min_states_in.fetch_add(raw.state_count() as u64, Ordering::Relaxed);
        self.min_states_out.fetch_add(min.state_count() as u64, Ordering::Relaxed);
        self.build_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Arc::new(min)
    }

    /// Build the automaton of `ts` over `sigma` on a miss.  A composition
    /// is the product of this cache's lifts of its operands with the
    /// hidden events erased; the lifts are fetched before the timer
    /// starts, since each counts under its own build.
    fn build_dfa(
        &self,
        u: &Arc<Universe>,
        ts: &TraceSet,
        sigma: Arc<Vec<Event>>,
        pred_depth: usize,
    ) -> Arc<ConcreteDfa> {
        let TraceSet::Composed(c) = ts else {
            return self.timed_build(|| traceset_dfa(u, ts, sigma, pred_depth));
        };
        let joint = c.joint_alphabet();
        let left = self.lifted_dfa(u, c.left.trace_set(), c.left.alphabet(), &joint, pred_depth);
        let right = self.lifted_dfa(u, c.right.trace_set(), c.right.alphabet(), &joint, pred_depth);
        self.timed_build(|| c.observable_dfa(&left, &right).restrict_to(sigma))
    }

    fn record_otf(&self, otf: OtfOutcome) {
        self.otf_checks.fetch_add(1, Ordering::Relaxed);
        if otf.early_exit {
            self.otf_early_exits.fetch_add(1, Ordering::Relaxed);
        }
        self.otf_explored.fetch_add(otf.explored, Ordering::Relaxed);
    }

    /// The automaton view of `ts` over the finitization of `alpha`,
    /// interned and minimized.  Language-equal to [`traceset_dfa`] on a
    /// miss; a composition is built from this cache's operand lifts.
    pub fn traceset_dfa(
        &self,
        u: &Arc<Universe>,
        ts: &TraceSet,
        alpha: &EventSet,
        pred_depth: usize,
    ) -> Arc<ConcreteDfa> {
        let key = (self.ts_key(ts), self.alpha_id(alpha), pred_depth);
        let (slot, inserted) = self.claim(&self.dfas, key, ts);
        let sigma = self.alphabet(alpha);
        if !inserted {
            self.dfa_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(slot.get_or_init(|| self.build_dfa(u, ts, sigma, pred_depth)));
        }
        // First in-memory sight of this key: try the persistent store
        // before paying for a build, and write through afterwards.
        let disk_key = self.persist_key("dfa", u, ts, alpha, None, pred_depth);
        if let (Some(store), Some(dk)) = (self.store.get(), &disk_key) {
            if let Some(dfa) = store.get(dk, &sigma) {
                self.dfa_hits.fetch_add(1, Ordering::Relaxed);
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(slot.get_or_init(|| dfa));
            }
        }
        self.dfa_misses.fetch_add(1, Ordering::Relaxed);
        let out = Arc::clone(slot.get_or_init(|| self.build_dfa(u, ts, sigma, pred_depth)));
        // The claimer writes through even when a concurrent caller won the
        // build above while this thread was probing the disk: only the
        // claimer ever writes a key, so each key is written once.
        if let (Some(store), Some(dk)) = (self.store.get(), &disk_key) {
            store.put(dk, &out);
        }
        out
    }

    /// The automaton view of `ts` over `alpha`, lifted to the
    /// finitization of `big` (inverse projection), interned and
    /// minimized.  Keys are structural, so a composition rebuilding the
    /// same component lift from fresh `Arc`s still hits.
    pub fn lifted_dfa(
        &self,
        u: &Arc<Universe>,
        ts: &TraceSet,
        alpha: &EventSet,
        big: &EventSet,
        pred_depth: usize,
    ) -> Arc<ConcreteDfa> {
        let key = (self.ts_key(ts), self.alpha_id(alpha), self.alpha_id(big), pred_depth);
        let (slot, inserted) = self.claim(&self.lifted, key, ts);
        if !inserted {
            self.lift_hits.fetch_add(1, Ordering::Relaxed);
            let base = self.traceset_dfa(u, ts, alpha, pred_depth);
            let sigma_big = self.alphabet(big);
            return Arc::clone(slot.get_or_init(|| self.timed_build(|| base.lift_to(sigma_big))));
        }
        let sigma_big = self.alphabet(big);
        // A disk hit serves the finished lift without even building the
        // base automaton.
        let disk_key = self.persist_key("lift", u, ts, alpha, Some(big), pred_depth);
        if let (Some(store), Some(dk)) = (self.store.get(), &disk_key) {
            if let Some(dfa) = store.get(dk, &sigma_big) {
                self.lift_hits.fetch_add(1, Ordering::Relaxed);
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(slot.get_or_init(|| dfa));
            }
        }
        self.lift_misses.fetch_add(1, Ordering::Relaxed);
        let base = self.traceset_dfa(u, ts, alpha, pred_depth);
        let out = Arc::clone(slot.get_or_init(|| self.timed_build(|| base.lift_to(sigma_big))));
        // Written by the claimer only, as in `traceset_dfa`.
        if let (Some(store), Some(dk)) = (self.store.get(), &disk_key) {
            store.put(dk, &out);
        }
        out
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        let (disk_writes, disk_skipped) = match self.store.get() {
            Some(store) => {
                let s = store.stats();
                (s.writes, s.skipped())
            }
            None => (0, 0),
        };
        CacheStats {
            alphabet_hits: self.alphabet_hits.load(Ordering::Relaxed),
            alphabet_misses: self.alphabet_misses.load(Ordering::Relaxed),
            dfa_hits: self.dfa_hits.load(Ordering::Relaxed),
            dfa_misses: self.dfa_misses.load(Ordering::Relaxed),
            lift_hits: self.lift_hits.load(Ordering::Relaxed),
            lift_misses: self.lift_misses.load(Ordering::Relaxed),
            build_nanos: self.build_nanos.load(Ordering::Relaxed),
            min_builds: self.min_builds.load(Ordering::Relaxed),
            min_states_in: self.min_states_in.load(Ordering::Relaxed),
            min_states_out: self.min_states_out.load(Ordering::Relaxed),
            otf_checks: self.otf_checks.load(Ordering::Relaxed),
            otf_early_exits: self.otf_early_exits.load(Ordering::Relaxed),
            otf_explored: self.otf_explored.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_writes,
            disk_skipped,
        }
    }

    /// Number of interned automata (trace-set views plus lifts).
    pub fn len(&self) -> usize {
        self.dfas.lock().unwrap_or_else(|e| e.into_inner()).len()
            + self.lifted.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counters are kept).  Long-running services
    /// should call this at workload boundaries so pinned trace sets and
    /// universes can be reclaimed.
    pub fn clear(&self) {
        // Lock order: alphabets before the automaton maps, matching the
        // build path; stale `AlphaId`s cannot outlive this because every
        // key embedding one is dropped with the maps.
        let mut intern = self.alphabets.lock().unwrap_or_else(|e| e.into_inner());
        intern.ids.clear();
        intern.arena.clear();
        drop(intern);
        self.dfas.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.lifted.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.pinned_sets.lock().unwrap_or_else(|e| e.into_inner()).clear();
        // Fingerprints key on universe addresses, which the arena no
        // longer pins — a later universe could reuse one.
        self.universe_fps.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// Full refinement check `concrete ⊑ abstract_` (Def. 2) through the
/// cache, with the **on-the-fly** condition-3 engine: both trace-set
/// views are interned minimized automata over their *own* alphabets, and
/// the inclusion explores the product `A × ¬lift(B)` lazily, stopping at
/// the first counterexample.  Verdicts (including counterexample traces)
/// are identical to [`crate::check_refinement`]; no lifted automaton is
/// materialized on this path.
pub fn check_refinement_cached(
    cache: &DfaCache,
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
    let a = cache.traceset_dfa(u, concrete.trace_set(), concrete.alphabet(), pred_depth);
    let b = cache.traceset_dfa(u, abstract_.trace_set(), abstract_.alphabet(), pred_depth);
    let (verdict, otf) =
        condition3_verdict_lazy(concrete.trace_set(), abstract_.trace_set(), &a, &b, pred_depth);
    cache.record_otf(otf);
    verdict
}

/// Check many refinement queries, fanning independent verdicts across
/// threads.  Workers share `cache`, so automata common to several pairs
/// are built once; results come back in input order.
pub fn check_refinement_batch(
    cache: &DfaCache,
    pairs: &[(&Specification, &Specification)],
    pred_depth: usize,
) -> Vec<Verdict> {
    parallel_map_ref(pairs, |(concrete, abstract_)| {
        check_refinement_cached(cache, concrete, abstract_, pred_depth)
    })
}

/// Check every ordered pair of `specs` (the `specs[i] ⊑ specs[j]`
/// matrix, diagonal included) in parallel through `cache`.
///
/// Entry `[i][j]` answers "does `specs[i]` refine `specs[j]`?".  Each
/// spec's automaton and each lift target is built at most once for the
/// whole matrix.
pub fn check_all_pairs(
    cache: &DfaCache,
    specs: &[Specification],
    pred_depth: usize,
) -> Vec<Vec<Verdict>> {
    let pairs: Vec<(&Specification, &Specification)> =
        specs.iter().flat_map(|c| specs.iter().map(move |a| (c, a))).collect();
    let flat = check_refinement_batch(cache, &pairs, pred_depth);
    let n = specs.len();
    let mut flat = flat.into_iter();
    (0..n).map(|_| (0..n).map(|_| flat.next().expect("n*n verdicts")).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_refinement;
    use pospec_alphabet::{EventPattern, UniverseBuilder};
    use pospec_regex::{Re, Template, VarId};
    use pospec_trace::{MethodId, ObjectId, Trace};

    struct Fix {
        u: Arc<Universe>,
        o: ObjectId,
        objects: pospec_trace::ClassId,
        ow: MethodId,
        w: MethodId,
        cw: MethodId,
    }

    fn fix() -> Fix {
        let mut b = UniverseBuilder::new();
        let objects = b.object_class("Objects").unwrap();
        let o = b.object("o").unwrap();
        let ow = b.method("OW").unwrap();
        let w = b.method("W").unwrap();
        let cw = b.method("CW").unwrap();
        b.class_witnesses(objects, 2).unwrap();
        Fix { u: b.freeze(), o, objects, ow, w, cw }
    }

    fn alpha(f: &Fix, methods: &[MethodId]) -> EventSet {
        methods
            .iter()
            .map(|&m| EventPattern::call(f.objects, f.o, m).to_set(&f.u))
            .reduce(|a, b| a.union(&b))
            .unwrap()
    }

    fn write_spec(f: &Fix) -> Specification {
        let x = VarId(0);
        let re = Re::seq([
            Re::lit(Template::call(x, f.o, f.ow)),
            Re::lit(Template::call(x, f.o, f.w)).star(),
            Re::lit(Template::call(x, f.o, f.cw)),
        ])
        .bind(x, f.objects)
        .star();
        Specification::new("Write", [f.o], alpha(f, &[f.ow, f.w, f.cw]), TraceSet::prs(re)).unwrap()
    }

    fn universal_spec(f: &Fix) -> Specification {
        Specification::new("Any", [f.o], alpha(f, &[f.ow, f.w, f.cw]), TraceSet::Universal).unwrap()
    }

    #[test]
    fn cached_verdicts_match_uncached() {
        let f = fix();
        let w = write_spec(&f);
        let any = universal_spec(&f);
        let cache = DfaCache::new();
        for (c, a) in [(&w, &any), (&any, &w), (&w, &w), (&any, &any)] {
            let cached = check_refinement_cached(&cache, c, a, 6);
            let plain = check_refinement(c, a, 6);
            assert_eq!(cached.holds(), plain.holds(), "{} vs {}", c.name(), a.name());
            assert_eq!(
                cached.counterexample(),
                plain.counterexample(),
                "{} vs {}",
                c.name(),
                a.name()
            );
        }
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let f = fix();
        let w = write_spec(&f);
        let any = universal_spec(&f);
        let cache = DfaCache::new();
        let before = cache.stats();
        check_refinement_cached(&cache, &w, &any, 6);
        let after_first = cache.stats();
        assert!(after_first.since(&before).misses() > 0, "first query must build");
        check_refinement_cached(&cache, &w, &any, 6);
        let after_second = cache.stats();
        let delta = after_second.since(&after_first);
        assert_eq!(delta.misses(), 0, "repeat query must be all hits: {delta:?}");
        assert!(delta.hits() > 0);
    }

    #[test]
    fn structurally_equal_specs_rebuilt_from_scratch_hit() {
        // The lift-cache miss-storm regression: every caller that rebuilds
        // an equal spec used to get fresh Arc identities and could never
        // hit.  Content keys make the rebuilt spec (and the rebuilt
        // alphabet, and the rebuilt lift) find the original entries.
        let f = fix();
        let cache = DfaCache::new();
        let first = write_spec(&f);
        let d1 = cache.traceset_dfa(&f.u, first.trace_set(), first.alphabet(), 6);
        let before = cache.stats();
        let rebuilt = write_spec(&f); // fresh Arcs, equal content
        let d2 = cache.traceset_dfa(&f.u, rebuilt.trace_set(), rebuilt.alphabet(), 6);
        let delta = cache.stats().since(&before);
        assert!(Arc::ptr_eq(&d1, &d2), "rebuilt spec must intern to the same automaton");
        assert_eq!(delta.dfa_misses, 0, "no rebuild: {delta:?}");
        assert_eq!(delta.dfa_hits, 1);

        // Same for lifts: lift the rebuilt spec to a rebuilt bigger
        // alphabet twice — second caller hits.
        let big1 = alpha(&f, &[f.ow, f.w, f.cw]);
        let small1 = alpha(&f, &[f.ow, f.cw]);
        let ow_cw = Specification::new(
            "Brackets",
            [f.o],
            small1.clone(),
            TraceSet::prs(
                Re::seq([
                    Re::lit(Template::call(VarId(0), f.o, f.ow)),
                    Re::lit(Template::call(VarId(0), f.o, f.cw)),
                ])
                .bind(VarId(0), f.objects)
                .star(),
            ),
        )
        .unwrap();
        let l1 = cache.lifted_dfa(&f.u, ow_cw.trace_set(), ow_cw.alphabet(), &big1, 6);
        let before = cache.stats();
        let rebuilt2 = Specification::new(
            "Brackets#2",
            [f.o],
            alpha(&f, &[f.cw, f.ow]), // same granules, different construction order
            TraceSet::prs(
                Re::seq([
                    Re::lit(Template::call(VarId(0), f.o, f.ow)),
                    Re::lit(Template::call(VarId(0), f.o, f.cw)),
                ])
                .bind(VarId(0), f.objects)
                .star(),
            ),
        )
        .unwrap();
        let big2 = alpha(&f, &[f.w, f.cw, f.ow]);
        let l2 = cache.lifted_dfa(&f.u, rebuilt2.trace_set(), rebuilt2.alphabet(), &big2, 6);
        let delta = cache.stats().since(&before);
        assert!(Arc::ptr_eq(&l1, &l2), "rebuilt lift must intern to the same automaton");
        assert_eq!(delta.lift_misses, 0, "rebuilt lift must hit: {delta:?}");
        assert_eq!(delta.lift_hits, 1);
    }

    #[test]
    fn distinct_depths_are_distinct_entries() {
        let f = fix();
        let w = f.w;
        let pred = Specification::new(
            "≤2 W",
            [f.o],
            alpha(&f, &[f.ow, f.w, f.cw]),
            TraceSet::predicate("≤2 W", move |h: &Trace| h.count_method(w) <= 2),
        )
        .unwrap();
        let cache = DfaCache::new();
        let d4 = cache.traceset_dfa(&f.u, pred.trace_set(), pred.alphabet(), 4);
        let d6 = cache.traceset_dfa(&f.u, pred.trace_set(), pred.alphabet(), 6);
        assert!(!Arc::ptr_eq(&d4, &d6), "depth is part of the key");
        let d4_again = cache.traceset_dfa(&f.u, pred.trace_set(), pred.alphabet(), 4);
        assert!(Arc::ptr_eq(&d4, &d4_again), "same key interns one automaton");
    }

    #[test]
    fn structurally_equal_alphabets_share_enumeration() {
        let f = fix();
        let a1 = alpha(&f, &[f.ow, f.w]);
        let a2 = alpha(&f, &[f.w, f.ow]);
        let cache = DfaCache::new();
        let s1 = cache.alphabet(&a1);
        let s2 = cache.alphabet(&a2);
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(cache.stats().alphabet_misses, 1);
        assert_eq!(cache.stats().alphabet_hits, 1);
    }

    #[test]
    fn cached_automata_are_minimized() {
        let f = fix();
        let w = write_spec(&f);
        let cache = DfaCache::new();
        let cached = cache.traceset_dfa(&f.u, w.trace_set(), w.alphabet(), 6);
        let sigma = cache.alphabet(w.alphabet());
        let raw = traceset_dfa(&f.u, w.trace_set(), sigma, 6);
        assert!(cached.equiv(&raw), "minimization preserves the language");
        assert!(cached.state_count() <= raw.state_count());
        let s = cache.stats();
        assert!(s.min_builds >= 1);
        assert!(s.min_states_in >= s.min_states_out);
    }

    #[test]
    fn on_the_fly_counters_move() {
        let f = fix();
        let w = write_spec(&f);
        let any = universal_spec(&f);
        let cache = DfaCache::new();
        // Holds: exhaustive search, no early exit.
        check_refinement_cached(&cache, &w, &any, 6);
        let s1 = cache.stats();
        assert_eq!((s1.otf_checks, s1.otf_early_exits), (1, 0));
        assert!(s1.otf_explored > 0);
        // Fails: stops at the first counterexample.
        check_refinement_cached(&cache, &any, &w, 6);
        let s2 = cache.stats();
        assert_eq!((s2.otf_checks, s2.otf_early_exits), (2, 1));
    }

    #[test]
    fn batch_matches_sequential_and_matrix_shape() {
        let f = fix();
        let w = write_spec(&f);
        let any = universal_spec(&f);
        let cache = DfaCache::new();
        let specs = vec![w.clone(), any.clone()];
        let matrix = check_all_pairs(&cache, &specs, 6);
        assert_eq!(matrix.len(), 2);
        assert_eq!(matrix[0].len(), 2);
        for (i, c) in specs.iter().enumerate() {
            for (j, a) in specs.iter().enumerate() {
                let direct = check_refinement(c, a, 6);
                assert_eq!(matrix[i][j].holds(), direct.holds(), "[{i}][{j}]");
            }
        }
        // Write ⊑ Any, Any ⋢ Write, both reflexive.
        assert!(matrix[0][0].holds() && matrix[0][1].holds() && matrix[1][1].holds());
        assert!(!matrix[1][0].holds());
    }

    #[test]
    fn persisted_entries_warm_a_fresh_cache_from_disk() {
        let dir = std::env::temp_dir().join(format!("pospec-cache-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let f = fix();
        let w = write_spec(&f);
        let big = alpha(&f, &[f.ow, f.w, f.cw]);
        let small = alpha(&f, &[f.ow, f.cw]);
        let brackets = Specification::new(
            "Brackets",
            [f.o],
            small,
            TraceSet::prs(
                Re::seq([
                    Re::lit(Template::call(VarId(0), f.o, f.ow)),
                    Re::lit(Template::call(VarId(0), f.o, f.cw)),
                ])
                .bind(VarId(0), f.objects)
                .star(),
            ),
        )
        .unwrap();

        // Process one: build cold, write through.
        let cold = DfaCache::new();
        cold.attach_store(Arc::new(crate::persist::PersistentStore::open(&dir).unwrap()));
        let d_cold = cold.traceset_dfa(&f.u, w.trace_set(), w.alphabet(), 6);
        let l_cold = cold.lifted_dfa(&f.u, brackets.trace_set(), brackets.alphabet(), &big, 6);
        let cold_stats = cold.stats();
        assert_eq!(cold_stats.disk_hits, 0, "first process never disk-hits");
        assert!(cold_stats.disk_writes >= 3, "base + brackets + lift written: {cold_stats:?}");

        // An opaque predicate must stay memory-only.
        let wm = f.w;
        let pred = Specification::new(
            "≤2 W",
            [f.o],
            alpha(&f, &[f.ow, f.w, f.cw]),
            TraceSet::predicate("≤2 W", move |h: &Trace| h.count_method(wm) <= 2),
        )
        .unwrap();
        cold.traceset_dfa(&f.u, pred.trace_set(), pred.alphabet(), 6);
        assert_eq!(
            cold.stats().disk_writes,
            cold_stats.disk_writes,
            "identity-keyed sets are never persisted"
        );

        // "Process two": a fresh cache over the same directory.
        let warm = DfaCache::new();
        warm.attach_store(Arc::new(crate::persist::PersistentStore::open(&dir).unwrap()));
        let d_warm = warm.traceset_dfa(&f.u, w.trace_set(), w.alphabet(), 6);
        let l_warm = warm.lifted_dfa(&f.u, brackets.trace_set(), brackets.alphabet(), &big, 6);
        let s = warm.stats();
        assert!(d_warm.equiv(&d_cold), "disk-served language identical");
        assert!(l_warm.equiv(&l_cold), "disk-served lift identical");
        assert_eq!(s.disk_hits, 2, "both probes served from disk: {s:?}");
        assert_eq!(s.dfa_misses + s.lift_misses, 0, "nothing rebuilt: {s:?}");
        assert!(s.dfa_hits + s.lift_hits > 0, "disk hits count as cache hits");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_resets_entries_but_not_counters() {
        let f = fix();
        let w = write_spec(&f);
        let cache = DfaCache::new();
        cache.traceset_dfa(&f.u, w.trace_set(), w.alphabet(), 6);
        assert!(!cache.is_empty());
        let misses = cache.stats().misses();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses(), misses);
    }
}

//! Named, versioned specification documents behind an `RwLock`, with
//! incremental re-elaboration and dirty-pair tracking.
//!
//! A registered document is the unit of loading and lookup: `load_spec`
//! elaborates one `.pos` source through `pospec-lang` and registers the
//! resulting [`Document`] under a name.  Checks and compositions always
//! name two specifications *of the same document* — specifications from
//! different documents live in different universes, so a cross-document
//! refinement question is ill-posed (Def. 2 compares trace sets over one
//! universe's events).
//!
//! Reloading a name replaces the document and bumps its version; the
//! old `Arc` stays alive for requests already holding it, so in-flight
//! checks never observe a half-swapped registry.  Each name keeps a
//! per-document [`ElabSession`], so a reload re-elaborates **only the
//! declarations whose span-insensitive fingerprints changed** — and
//! reuses the same `Arc<Universe>` when the universe block is
//! untouched, which keeps the automaton cache's pointer-interned
//! alphabets warm across reloads.
//!
//! The registry also owns the **pair-verdict cache**: refinement
//! verdicts keyed by `(document, concrete, abstract, depth)` and
//! stamped with the fingerprints they were computed against.  A reload
//! leaves verdicts of *clean* pairs (both endpoints and the universe
//! unchanged) servable in O(1); *dirty* pairs are evicted and
//! recomputed on the next check.  This lives here rather than in the
//! LSP so the serve reload path gets the same incrementality for free.
//!
//! A load parses and elaborates its version once, into an
//! [`Elaborated`] value, and hands that value back whether the version
//! was registered or refused, so the caller can lint it without a
//! second front end.  The registry keeps no syntax tree:
//! [`RegisteredDoc::front_end`] re-parses a registered version's source
//! and reuses its universe and specifications.
//!
//! A registry can be made *strict*: every load then also runs the
//! static analyzer (`pospec-lint`) over that value and refuses documents
//! with error-severity diagnostics — a resident service should not hold
//! specifications that are already known to be broken.

use pospec_core::{check_refinement_cached, DfaCache, Verdict};
use pospec_lang::parser::{parse, DevStmt};
use pospec_lang::{Document, ElabSession, Elaborated, LangError, SessionLoad};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One registered `.pos` document.
#[derive(Debug)]
pub struct RegisteredDoc {
    /// Registry name (for preloaded files, the file stem).
    pub name: String,
    /// 1-based version, bumped on each reload of the same name.
    pub version: u64,
    /// The elaborated document (universe + specifications).
    pub doc: Document,
    /// The raw source text, kept so `lint` requests can analyse the
    /// registered document with exact spans.
    pub source: String,
    /// Span-insensitive fingerprint of the `universe { … }` block.
    pub universe_fp: u64,
    /// Span-insensitive fingerprint per spec name (first declaration
    /// wins, matching `Document::spec` lookup).
    pub spec_fps: BTreeMap<String, u64>,
}

impl RegisteredDoc {
    /// The specification names of this document, in declaration order.
    pub fn spec_names(&self) -> Vec<&str> {
        self.doc.specs.iter().map(|s| s.name()).collect()
    }

    /// The `refine concrete of abstract;` pairs declared in this
    /// document's `development { … }` block, in order.
    pub fn refine_pairs(&self) -> Vec<(&str, &str)> {
        self.doc
            .development
            .iter()
            .filter_map(|s| match s {
                DevStmt::Refine { concrete, abstract_, .. } => {
                    Some((concrete.as_str(), abstract_.as_str()))
                }
                _ => None,
            })
            .collect()
    }

    /// This version's front end: its source parsed again, over the
    /// registered universe and specifications, so nothing is elaborated
    /// again and automata built for `check` serve the linter too.
    pub fn front_end(&self) -> Result<Elaborated, LangError> {
        let ast = parse(&self.source)?;
        // A registered version elaborated without error, one spec per
        // `spec` block, in order.
        let specs = self.doc.specs.iter().cloned().map(Ok).collect();
        Ok(Elaborated { ast, universe: Ok(Arc::clone(&self.doc.universe)), specs })
    }
}

/// What one [`SpecRegistry::load`] call built and did.
#[derive(Debug)]
pub struct Load {
    /// The version's front end, built once: the parse error, or the
    /// syntax tree with the universe and every spec's elaboration
    /// result.  Lint it with `pospec_lint::lint_elaborated`.
    pub front: Result<Elaborated, LangError>,
    /// The registration, or why the version was refused (the previous
    /// version, if any, stays live).
    pub outcome: Result<LoadOutcome, String>,
}

/// What registering one version did.
#[derive(Debug)]
pub struct LoadOutcome {
    /// The freshly registered document.
    pub entry: Arc<RegisteredDoc>,
    /// Was the previous `Arc<Universe>` reused (universe unchanged)?
    pub universe_reused: bool,
    /// Spec names that were actually (re-)elaborated.
    pub reelaborated: Vec<String>,
    /// Spec names served from the per-document elaboration cache.
    pub reused: Vec<String>,
    /// `refine` pairs whose cached verdict was invalidated by this load
    /// (an endpoint or the universe changed, or the pair is new).
    pub dirty_pairs: Vec<(String, String)>,
    /// `refine` pairs whose cached verdict survived this load.
    pub clean_pairs: Vec<(String, String)>,
}

/// A cached refinement verdict, stamped with the fingerprints it was
/// computed against so a stale entry can never be served.
struct PairEntry {
    universe_fp: u64,
    fp_c: u64,
    fp_a: u64,
    verdict: Verdict,
}

type PairKey = (String, String, String, usize);

/// The server's shared table of registered documents.
#[derive(Default)]
pub struct SpecRegistry {
    docs: RwLock<HashMap<String, Arc<RegisteredDoc>>>,
    sessions: Mutex<HashMap<String, ElabSession>>,
    pairs: Mutex<HashMap<PairKey, PairEntry>>,
    loads: AtomicU64,
    /// Elaborations and reuses of the sessions of removed documents, so
    /// the totals never go down.
    removed_elaborations: AtomicU64,
    removed_reuses: AtomicU64,
    strict: AtomicBool,
    pair_checks: AtomicU64,
    pair_hits: AtomicU64,
}

impl SpecRegistry {
    /// An empty registry.
    pub fn new() -> SpecRegistry {
        SpecRegistry::default()
    }

    /// Make every subsequent load also pass the static analyzer:
    /// documents with error-severity lint diagnostics are refused.
    pub fn set_strict(&self, on: bool) {
        self.strict.store(on, Ordering::Relaxed);
    }

    /// Is the lint gate on?
    pub fn is_strict(&self) -> bool {
        self.strict.load(Ordering::Relaxed)
    }

    /// Parse and elaborate `source` once, through the per-name
    /// [`ElabSession`] (unchanged declarations are reused), and register
    /// it under `name`, replacing (and version-bumping) any previous
    /// document of that name; cached pair verdicts whose endpoints
    /// changed are evicted.  On any error the previous version (if any)
    /// stays live.  The front end comes back either way.
    pub fn load(&self, name: &str, source: &str) -> Load {
        let elaborated = parse(source).map(|ast| {
            let mut sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
            sessions.entry(name.to_string()).or_default().elaborate(ast)
        });
        match elaborated {
            Ok((value, load)) => {
                let outcome = self.register(name, source, &value, load);
                Load { front: Ok(value), outcome }
            }
            Err(e) => {
                let outcome = Err(render(e.clone(), source));
                Load { front: Err(e), outcome }
            }
        }
    }

    /// [`SpecRegistry::load`], for callers that do not lint the version.
    pub fn load_source(&self, name: &str, source: &str) -> Result<LoadOutcome, String> {
        self.load(name, source).outcome
    }

    /// Register the elaborated `value` of `source` under `name`, unless
    /// it has an error or (strict registry) lints with errors.
    fn register(
        &self,
        name: &str,
        source: &str,
        value: &Elaborated,
        load: SessionLoad,
    ) -> Result<LoadOutcome, String> {
        let doc = value.document().map_err(|e| render(e, source))?;
        if self.is_strict() {
            let report = pospec_lint::lint_elaborated(
                name,
                source,
                Ok(value),
                &Default::default(),
                &DfaCache::new(),
            );
            if report.has_errors() {
                let first = report
                    .diagnostics
                    .iter()
                    .find(|d| d.severity == pospec_lint::Severity::Error)
                    .map(|d| format!("{}: {}", d.code, d.message))
                    .unwrap_or_default();
                return Err(format!(
                    "refused by strict lint gate ({} error(s); first: {first})",
                    report.errors()
                ));
            }
        }
        let mut spec_fps = BTreeMap::new();
        for (n, fp) in &load.spec_fps {
            spec_fps.entry(n.clone()).or_insert(*fp);
        }
        let mut docs = self.docs.write().unwrap_or_else(|e| e.into_inner());
        let prev = docs.get(name).cloned();
        let version = prev.as_ref().map(|d| d.version + 1).unwrap_or(1);
        let entry = Arc::new(RegisteredDoc {
            name: name.to_string(),
            version,
            doc,
            source: source.to_string(),
            universe_fp: load.universe_fp,
            spec_fps,
        });
        docs.insert(name.to_string(), Arc::clone(&entry));
        drop(docs);
        self.loads.fetch_add(1, Ordering::Relaxed);

        // Split this document's refine obligations into clean pairs
        // (verdict still valid) and dirty pairs, and evict the latter.
        let pair_clean = |c: &str, a: &str| -> bool {
            let p = match &prev {
                Some(p) => p,
                None => return false,
            };
            p.universe_fp == entry.universe_fp
                && p.spec_fps.contains_key(c)
                && p.spec_fps.get(c) == entry.spec_fps.get(c)
                && p.spec_fps.contains_key(a)
                && p.spec_fps.get(a) == entry.spec_fps.get(a)
        };
        let mut dirty_pairs = Vec::new();
        let mut clean_pairs = Vec::new();
        for (c, a) in entry.refine_pairs() {
            if pair_clean(c, a) {
                clean_pairs.push((c.to_string(), a.to_string()));
            } else {
                dirty_pairs.push((c.to_string(), a.to_string()));
            }
        }
        {
            let mut pairs = self.pairs.lock().unwrap_or_else(|e| e.into_inner());
            pairs.retain(|(d, c, a, _), e| {
                d != name
                    || (e.universe_fp == entry.universe_fp
                        && entry.spec_fps.get(c) == Some(&e.fp_c)
                        && entry.spec_fps.get(a) == Some(&e.fp_a))
            });
        }
        Ok(LoadOutcome {
            entry,
            universe_reused: load.universe_reused,
            reelaborated: load.reelaborated,
            reused: load.reused,
            dirty_pairs,
            clean_pairs,
        })
    }

    /// Forget the document registered under `name`: its current
    /// version, its elaboration session and its cached pair verdicts.
    pub fn remove(&self, name: &str) {
        self.docs.write().unwrap_or_else(|e| e.into_inner()).remove(name);
        let session = self.sessions.lock().unwrap_or_else(|e| e.into_inner()).remove(name);
        if let Some(s) = session {
            self.removed_elaborations.fetch_add(s.elaborations(), Ordering::Relaxed);
            self.removed_reuses.fetch_add(s.reuses(), Ordering::Relaxed);
        }
        self.pairs.lock().unwrap_or_else(|e| e.into_inner()).retain(|(d, ..), _| d != name);
    }

    /// Total spec elaborations performed across all sessions.
    pub fn elaborations(&self) -> u64 {
        let sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        let live: u64 = sessions.values().map(|s| s.elaborations()).sum();
        live + self.removed_elaborations.load(Ordering::Relaxed)
    }

    /// Total spec elaborations avoided across all sessions.
    pub fn spec_reuses(&self) -> u64 {
        let sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        let live: u64 = sessions.values().map(|s| s.reuses()).sum();
        live + self.removed_reuses.load(Ordering::Relaxed)
    }

    /// Check `concrete ⊑ abstract` within `entry`'s document, serving
    /// the verdict from the pair cache when both endpoints (and the
    /// universe) are fingerprint-unchanged since it was computed.
    /// Returns `(verdict, came_from_pair_cache)`, or `None` when either
    /// spec name does not exist in the document.
    pub fn check_pair_cached(
        &self,
        entry: &RegisteredDoc,
        concrete: &str,
        abstract_: &str,
        depth: usize,
        cache: &DfaCache,
    ) -> Option<(Verdict, bool)> {
        let c = entry.doc.spec(concrete)?;
        let a = entry.doc.spec(abstract_)?;
        self.pair_checks.fetch_add(1, Ordering::Relaxed);
        let (fp_c, fp_a) = match (entry.spec_fps.get(concrete), entry.spec_fps.get(abstract_)) {
            (Some(c), Some(a)) => (*c, *a),
            // No fingerprint (not a declared spec — cannot happen for
            // names `Document::spec` resolved, but stay total).
            _ => return Some((check_refinement_cached(cache, c, a, depth), false)),
        };
        let key = (entry.name.clone(), concrete.to_string(), abstract_.to_string(), depth);
        {
            let pairs = self.pairs.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(e) = pairs.get(&key) {
                if e.universe_fp == entry.universe_fp && e.fp_c == fp_c && e.fp_a == fp_a {
                    self.pair_hits.fetch_add(1, Ordering::Relaxed);
                    return Some((e.verdict.clone(), true));
                }
            }
        }
        let verdict = check_refinement_cached(cache, c, a, depth);
        let mut pairs = self.pairs.lock().unwrap_or_else(|e| e.into_inner());
        pairs.insert(
            key,
            PairEntry { universe_fp: entry.universe_fp, fp_c, fp_a, verdict: verdict.clone() },
        );
        Some((verdict, false))
    }

    /// Re-check every `refine` pair of `entry`, serving clean pairs
    /// from the pair cache.  Returns `(recomputed, served_cached)` —
    /// after a one-spec edit, `recomputed` is exactly the number of
    /// pairs touching that spec.
    pub fn refresh_pairs(
        &self,
        entry: &RegisteredDoc,
        depth: usize,
        cache: &DfaCache,
    ) -> (usize, usize) {
        let mut recomputed = 0;
        let mut served = 0;
        for (c, a) in entry.refine_pairs() {
            match self.check_pair_cached(entry, c, a, depth, cache) {
                Some((_, true)) => served += 1,
                Some((_, false)) => recomputed += 1,
                // Names a composed (not declared) spec: nothing cached.
                None => {}
            }
        }
        (recomputed, served)
    }

    /// Total pair-level check requests answered (cached or not).
    pub fn pair_checks(&self) -> u64 {
        self.pair_checks.load(Ordering::Relaxed)
    }

    /// Pair-level check requests served from the pair-verdict cache.
    pub fn pair_hits(&self) -> u64 {
        self.pair_hits.load(Ordering::Relaxed)
    }

    /// Register every `*.pos` file of `dir` (file stem as name, sorted
    /// for determinism).  Any unreadable or ill-formed file fails the
    /// whole preload — a service must not start with a partial registry.
    pub fn preload_dir(&self, dir: &Path) -> Result<Vec<Arc<RegisteredDoc>>, String> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read `{}`: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "pos"))
            .collect();
        paths.sort();
        let mut loaded = Vec::new();
        for path in paths {
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| format!("non-UTF-8 file name: {}", path.display()))?
                .to_string();
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
            let outcome =
                self.load_source(&name, &source).map_err(|e| format!("{}: {e}", path.display()))?;
            loaded.push(outcome.entry);
        }
        Ok(loaded)
    }

    /// The current document registered under `name`.
    pub fn get(&self, name: &str) -> Option<Arc<RegisteredDoc>> {
        self.docs.read().unwrap_or_else(|e| e.into_inner()).get(name).cloned()
    }

    /// `(name, version, spec count)` for every registered document,
    /// sorted by name.
    pub fn list(&self) -> Vec<(String, u64, usize)> {
        let docs = self.docs.read().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<_> =
            docs.values().map(|d| (d.name.clone(), d.version, d.doc.specs.len())).collect();
        out.sort();
        out
    }

    /// Number of registered documents.
    pub fn len(&self) -> usize {
        self.docs.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of specifications across all registered documents.
    pub fn spec_count(&self) -> usize {
        self.docs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|d| d.doc.specs.len())
            .sum()
    }

    /// Total successful loads (reloads included).
    pub fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }
}

/// A front-end error as a load reports it: with its source line and a
/// caret underline.
fn render(e: LangError, source: &str) -> String {
    e.with_source(source).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "universe { class C; object o; method A; witnesses C 1; }\n\
                        spec S { objects { o } alphabet { <C, o, A>; } traces any; }\n";

    #[test]
    fn load_and_version_bump() {
        let r = SpecRegistry::new();
        let v1 = r.load_source("tiny", TINY).expect("well-formed").entry;
        assert_eq!((v1.version, v1.spec_names()), (1, vec!["S"]));
        let v2 = r.load_source("tiny", TINY).expect("well-formed").entry;
        assert_eq!(v2.version, 2);
        assert_eq!(r.get("tiny").expect("registered").version, 2);
        assert_eq!(r.list(), vec![("tiny".to_string(), 2, 1)]);
        assert_eq!((r.len(), r.spec_count(), r.loads()), (1, 1, 2));
    }

    #[test]
    fn bad_source_is_rejected_and_keeps_old_version() {
        let r = SpecRegistry::new();
        r.load_source("tiny", TINY).expect("well-formed");
        assert!(r.load_source("tiny", "universe { garbage").is_err());
        assert_eq!(r.get("tiny").expect("still registered").version, 1);
    }

    #[test]
    fn registered_docs_keep_their_source() {
        let r = SpecRegistry::new();
        r.load_source("tiny", TINY).expect("well-formed");
        assert_eq!(r.get("tiny").expect("registered").source, TINY);
    }

    #[test]
    fn strict_registry_refuses_lint_errors_but_not_warnings() {
        // Two specs named `S`: the elaborator accepts this (later
        // references silently mean the first), but it is a P003 lint
        // error, so the strict gate refuses the load.
        let broken = "universe { class C; object o; method A; witnesses C 1; }\n\
                      spec S { objects { o } alphabet { <C, o, A>; } traces any; }\n\
                      spec S { objects { o } alphabet { <C, o, A>; } traces any; }\n";
        let r = SpecRegistry::new();
        r.set_strict(true);
        assert!(r.is_strict());
        let err = r.load_source("broken", broken).expect_err("gated");
        assert!(err.contains("strict lint gate"), "{err}");
        assert!(err.contains("P003"), "{err}");
        assert!(r.is_empty());
        // Warning-severity findings do not gate.
        r.load_source("tiny", TINY).expect("warnings pass the gate");
    }
}

//! Incremental re-elaboration keyed on span-insensitive fingerprints.
//!
//! An editor (or the serve reload path) re-submits the *whole* document
//! on every keystroke, but a keystroke usually touches one `spec`
//! block.  [`ElabSession`] memoizes elaboration per declaration: each
//! `spec` block and the `universe { … }` block get a **content
//! fingerprint** that ignores source spans, so reformatting or editing
//! a neighbouring spec does not invalidate anything.
//!
//! Two properties are load-bearing:
//!
//! * equal fingerprint ⇒ equal elaboration result (the fingerprint
//!   covers every input `elaborate_spec`/`elaborate_universe` reads);
//! * an unchanged universe re-uses the **same `Arc<Universe>`**, not a
//!   structurally equal rebuild — the automaton cache
//!   (`pospec_core::DfaCache`) interns alphabets by universe pointer,
//!   so a fresh `Arc` per edit would turn every warm lookup into a
//!   miss.
//!
//! A universe change invalidates all cached specs: object, method and
//! class ids are universe-relative.

use crate::elab::{elaborate_spec, elaborate_universe, Document, Elaborated};
use crate::lexer::LangError;
use crate::parser::{parse, ArgAst, Ast, ReAst, SpecDecl, TemplateAst, TracesAst};
use pospec_alphabet::Universe;
use pospec_core::Specification;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

// FNV-1a, 64-bit. Local rather than `std::hash` so fingerprints are
// stable across processes and Rust versions (they key the registry's
// pair-verdict cache, and may be compared across restarts).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    /// A length-prefixed string write, so `("ab","c")` and `("a","bc")`
    /// hash differently.
    fn str(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }
    fn tag(&mut self, t: u8) {
        self.bytes(&[t]);
    }
}

fn template(h: &mut Fnv, t: &TemplateAst) {
    h.str(&t.caller);
    h.str(&t.callee);
    h.str(&t.method);
    match &t.arg {
        ArgAst::Absent => h.tag(0),
        ArgAst::Wild => h.tag(1),
        ArgAst::Name(n) => {
            h.tag(2);
            h.str(n);
        }
    }
}

fn regex(h: &mut Fnv, re: &ReAst) {
    match re {
        ReAst::Eps => h.tag(0),
        ReAst::Lit(t) => {
            h.tag(1);
            template(h, t);
        }
        ReAst::Seq(parts) => {
            h.tag(2);
            for p in parts {
                regex(h, p);
            }
            h.tag(255);
        }
        ReAst::Alt(parts) => {
            h.tag(3);
            for p in parts {
                regex(h, p);
            }
            h.tag(255);
        }
        ReAst::Star(r) => {
            h.tag(4);
            regex(h, r);
        }
        ReAst::Plus(r) => {
            h.tag(5);
            regex(h, r);
        }
        ReAst::Opt(r) => {
            h.tag(6);
            regex(h, r);
        }
        ReAst::Group(r) => {
            h.tag(7);
            regex(h, r);
        }
        ReAst::Bind { body, var, class, span: _ } => {
            h.tag(8);
            regex(h, body);
            h.str(var);
            h.str(class);
        }
    }
}

/// Span-insensitive fingerprint of one `spec` block: covers the name,
/// object list, alphabet templates and trace expression — everything
/// spec elaboration reads.
pub fn spec_fp(sd: &SpecDecl) -> u64 {
    let mut h = Fnv::new();
    h.str(&sd.name);
    h.tag(10);
    for (name, _span) in &sd.objects {
        h.str(name);
    }
    h.tag(11);
    for t in &sd.alphabet {
        template(&mut h, t);
    }
    h.tag(12);
    match &sd.traces {
        TracesAst::Any => h.tag(0),
        TracesAst::Prs(re) => {
            h.tag(1);
            regex(&mut h, re);
        }
    }
    h.0
}

/// Span-insensitive fingerprint of the `universe { … }` block.
/// `UDecl` carries no spans, so its `Debug` rendering is already a
/// faithful span-free canonical form.
pub fn universe_fp(ast: &Ast) -> u64 {
    let mut h = Fnv::new();
    for d in &ast.universe {
        h.str(&format!("{d:?}"));
    }
    h.0
}

/// What an [`ElabSession::elaborate`] call did, per declaration.
#[derive(Debug, Clone)]
pub struct SessionLoad {
    /// Fingerprint of the universe block.
    pub universe_fp: u64,
    /// Was the previous `Arc<Universe>` reused (same fingerprint)?
    pub universe_reused: bool,
    /// Names of the specs that were (re-)elaborated this call.
    pub reelaborated: Vec<String>,
    /// Names of the specs served from the session cache.
    pub reused: Vec<String>,
    /// `(name, fingerprint)` for every spec, in declaration order
    /// (none when the universe did not elaborate).
    pub spec_fps: Vec<(String, u64)>,
}

/// A memo table for re-elaborating successive versions of one document.
///
/// The session caches the elaborated universe (by fingerprint, reusing
/// the same `Arc`) and each successfully elaborated spec (by
/// `(name, fingerprint)`).  Failed elaborations are not cached — they
/// are rare, cheap to recompute, and keeping them out makes "cached ⇒
/// valid" an invariant.
#[derive(Default)]
pub struct ElabSession {
    universe: Option<(u64, Arc<Universe>)>,
    specs: HashMap<(String, u64), Specification>,
    elaborations: u64,
    reuses: u64,
}

impl ElabSession {
    /// An empty session.
    pub fn new() -> ElabSession {
        ElabSession::default()
    }

    /// Total spec elaborations actually performed (cache misses).
    pub fn elaborations(&self) -> u64 {
        self.elaborations
    }

    /// Total spec elaborations avoided (cache hits).
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// The universe of `ast` (whose universe fingerprint is `fp`),
    /// reusing the cached `Arc` when the universe block is unchanged.
    /// A changed universe drops every cached spec (their ids refer to
    /// the old universe).  Returns `(universe, reused)`.
    fn universe(&mut self, ast: &Ast, fp: u64) -> Result<(Arc<Universe>, bool), LangError> {
        if let Some((cached, u)) = &self.universe {
            if *cached == fp {
                return Ok((Arc::clone(u), true));
            }
        }
        let u = elaborate_universe(ast)?;
        self.specs.clear();
        self.universe = Some((fp, Arc::clone(&u)));
        Ok((u, false))
    }

    /// Elaborate one spec (whose fingerprint is `fp`) against `u`,
    /// served from cache when the fingerprint is unchanged.  Returns
    /// `(result, reused)`.
    fn spec(
        &mut self,
        u: &Arc<Universe>,
        sd: &SpecDecl,
        fp: u64,
    ) -> (Result<Specification, LangError>, bool) {
        let key = (sd.name.clone(), fp);
        if let Some(s) = self.specs.get(&key) {
            self.reuses += 1;
            return (Ok(s.clone()), true);
        }
        let result = elaborate_spec(u, sd);
        if let Ok(s) = &result {
            self.elaborations += 1;
            self.specs.insert(key, s.clone());
        }
        (result, false)
    }

    /// Elaborate one version of the document: the value
    /// [`Elaborated::new`] builds, with unchanged declarations served
    /// from the session.  When every declaration elaborated, the cache
    /// is pruned to this version's, so a long editing session does not
    /// accumulate dead entries.
    pub fn elaborate(&mut self, ast: Ast) -> (Elaborated, SessionLoad) {
        let universe_fp = universe_fp(&ast);
        let universe = self.universe(&ast, universe_fp);
        let mut load = SessionLoad {
            universe_fp,
            universe_reused: matches!(universe, Ok((_, true))),
            reelaborated: Vec::new(),
            reused: Vec::new(),
            spec_fps: Vec::new(),
        };
        let value = Elaborated::build(ast, universe.map(|(u, _)| u), |u, sd| {
            let fp = spec_fp(sd);
            let (spec, reused) = self.spec(u, sd, fp);
            if reused {
                load.reused.push(sd.name.clone());
            } else {
                load.reelaborated.push(sd.name.clone());
            }
            load.spec_fps.push((sd.name.clone(), fp));
            spec
        });
        if value.all_elaborated() {
            let live: HashSet<(&str, u64)> =
                load.spec_fps.iter().map(|(n, fp)| (n.as_str(), *fp)).collect();
            self.specs.retain(|(n, fp), _| live.contains(&(n.as_str(), *fp)));
        }
        (value, load)
    }
}

/// Parse and elaborate `src` through `session`, failing at the first
/// error — the incremental counterpart of [`crate::parse_document`],
/// with the same caret-ready error rendering.
pub fn parse_document_session(
    src: &str,
    session: &mut ElabSession,
) -> Result<(Document, SessionLoad), LangError> {
    let ast = parse(src).map_err(|e| e.with_source(src))?;
    let (value, load) = session.elaborate(ast);
    let doc = value.into_document().map_err(|e| e.with_source(src))?;
    Ok((doc, load))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO: &str = "
        universe { class C; object o; object b; method A; method B; witnesses C 1; }
        spec S { objects { o } alphabet { <C, o, A>; } traces any; }
        spec T { objects { b } alphabet { <C, b, B>; } traces any; }
    ";

    #[test]
    fn unchanged_reload_reuses_everything() {
        let mut s = ElabSession::new();
        let (_, l1) = parse_document_session(TWO, &mut s).unwrap();
        assert_eq!(l1.reelaborated, vec!["S", "T"]);
        let (_, l2) = parse_document_session(TWO, &mut s).unwrap();
        assert!(l2.universe_reused);
        assert!(l2.reelaborated.is_empty());
        assert_eq!(l2.reused, vec!["S", "T"]);
        assert_eq!((s.elaborations(), s.reuses()), (2, 2));
    }

    #[test]
    fn editing_one_spec_reelaborates_only_it() {
        let mut s = ElabSession::new();
        parse_document_session(TWO, &mut s).unwrap();
        let edited = TWO
            .replace("traces any; }\n        spec T", "traces prs <C, o, A>*; }\n        spec T");
        assert_ne!(edited, TWO);
        let (_, l) = parse_document_session(&edited, &mut s).unwrap();
        assert!(l.universe_reused);
        assert_eq!(l.reelaborated, vec!["S"]);
        assert_eq!(l.reused, vec!["T"]);
    }

    #[test]
    fn spans_do_not_affect_fingerprints() {
        let mut s = ElabSession::new();
        parse_document_session(TWO, &mut s).unwrap();
        // Re-indent: every span moves, no fingerprint changes.
        let reformatted = TWO.replace("        ", "  ");
        let (_, l) = parse_document_session(&reformatted, &mut s).unwrap();
        assert!(l.universe_reused);
        assert!(l.reelaborated.is_empty());
    }

    #[test]
    fn universe_change_reuses_the_arc_only_when_unchanged() {
        let mut s = ElabSession::new();
        let (d1, _) = parse_document_session(TWO, &mut s).unwrap();
        let (d2, _) = parse_document_session(TWO, &mut s).unwrap();
        assert!(Arc::ptr_eq(&d1.universe, &d2.universe), "same fp ⇒ same Arc");
        let grown = TWO.replace("witnesses C 1;", "witnesses C 2;");
        let (d3, l3) = parse_document_session(&grown, &mut s).unwrap();
        assert!(!l3.universe_reused);
        assert!(!Arc::ptr_eq(&d1.universe, &d3.universe));
        // All specs re-elaborated: ids are universe-relative.
        assert_eq!(l3.reelaborated, vec!["S", "T"]);
    }

    #[test]
    fn session_matches_eager_elaboration() {
        let mut s = ElabSession::new();
        let (incr, _) = parse_document_session(TWO, &mut s).unwrap();
        let eager = crate::parse_document(TWO).unwrap();
        assert_eq!(incr.specs.len(), eager.specs.len());
        for (a, b) in incr.specs.iter().zip(&eager.specs) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.alphabet().granule_count(), b.alphabet().granule_count());
        }
    }

    #[test]
    fn errors_and_pruning() {
        let mut s = ElabSession::new();
        parse_document_session(TWO, &mut s).unwrap();
        // Same first-error behaviour as the eager path.
        let broken = TWO.replace("objects { b }", "objects { nope }");
        let e = parse_document_session(&broken, &mut s).unwrap_err();
        let eager = crate::parse_document(&broken).unwrap_err();
        assert_eq!(e.message, eager.message);
        assert_eq!(e.span, eager.span);
        // Cache pruned to the live version on the next success.
        let (_, l) = parse_document_session(TWO, &mut s).unwrap();
        assert!(l.reelaborated.is_empty(), "S and T were still cached: {l:?}");
        assert_eq!(s.specs.len(), 2);
    }
}

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! `pospec-lint` — a multi-pass static analyzer for `.pos` documents.
//!
//! The checker (`pospec-check`) answers "does this refinement hold?";
//! the linter answers "is this document *sensible*?" before any
//! obligation is discharged.  Six passes share one diagnostic sink:
//!
//! 1. **names** — unknown/duplicate identifiers, self-communication
//!    (`P003`–`P008`, `P108`);
//! 2. **alphabet** — shadowed patterns, unused universe declarations,
//!    unreachable alphabet expansions (`P101`–`P103`);
//! 3. **compose/refine preconditions** — Def. 10 composability, Def. 2
//!    conditions 1–2, Def. 14 properness (`P020`, `P021`, `P120`);
//! 4. **reachability** — ε-only specs, dead patterns, deadlock-prone
//!    compositions (`P104`, `P105`, `P107`);
//! 5. **vacuity** — refinement obligations witnessed only by the empty
//!    trace (`P106`);
//! 6. **wait-for graph** — compositions with no enabled initial event,
//!    decided on the granule algebra without automata (`P110`).
//!
//! Every diagnostic carries a stable code, a severity, a primary span
//! and optional notes; [`LintReport`] renders them for humans (caret
//! lines) or as JSON (shared verbatim by the CLI and the server).
//! Where a provably safe rewrite exists, the diagnostic also carries a
//! [`Fix`] — byte-offset [`TextEdit`]s applied by `pospec lint --fix`
//! and served as LSP code actions.

mod alphabet;
mod compose_pre;
mod context;
mod diag;
mod fix;
mod names;
mod reach;
mod vacuity;
mod waitfor;

pub use diag::{
    Applicability, Code, DiagSink, Diagnostic, Fix, Level, LintConfig, LintReport, Note, Severity,
    ALL_CODES,
};
pub use pospec_lang::{apply_edits, coalesce_deletions, EditError, TextEdit};

use context::Ctx;
use pospec_core::DfaCache;
use pospec_lang::parser::parse;
use pospec_lang::{ElabSession, Elaborated, LangError};

/// Lint one `.pos` document through a fresh automaton cache.
///
/// `file` is only used to label the report; `src` is the document text.
/// A cache kept across calls would never hit: each call elaborates a new
/// universe, and the cache keys alphabets by universe address.  Callers
/// that keep a version's front end lint it with [`lint_elaborated`].
pub fn lint_document(file: &str, src: &str, config: &LintConfig) -> LintReport {
    lint_document_cached(file, src, config, &DfaCache::new())
}

/// Like [`lint_document`], with an explicit [`DfaCache`].
pub fn lint_document_cached(
    file: &str,
    src: &str,
    config: &LintConfig,
    cache: &DfaCache,
) -> LintReport {
    let front = parse(src).map(Elaborated::new);
    lint_elaborated(file, src, front.as_ref(), config, cache)
}

/// Like [`lint_document_cached`], with elaboration through an
/// [`ElabSession`], so re-linting an edited document re-elaborates only
/// the changed declarations and keeps the same `Arc<Universe>` (which
/// keeps `cache` warm).  The report is identical to the non-incremental
/// one.
pub fn lint_document_session(
    file: &str,
    src: &str,
    config: &LintConfig,
    cache: &DfaCache,
    session: &mut ElabSession,
) -> LintReport {
    let front = parse(src).map(|ast| session.elaborate(ast).0);
    lint_elaborated(file, src, front.as_ref(), config, cache)
}

/// Lint one document version's front end: `src` parsed into `front`
/// (or failed to parse with its error).  Every other entry point is a
/// wrapper that builds `front` first; a caller that already holds the
/// version's [`Elaborated`] value (the registry, the LSP) passes it
/// here, so the version is parsed and elaborated once.
///
/// Every pass runs in full: diagnostics are a pure function of the
/// document, whoever elaborated it and whatever `cache` holds.
pub fn lint_elaborated(
    file: &str,
    src: &str,
    front: Result<&Elaborated, &LangError>,
    config: &LintConfig,
    cache: &DfaCache,
) -> LintReport {
    let mut sink = DiagSink::new(config.clone());

    // P001 — syntax. A parse error is fatal for the later passes, but
    // the report is still well-formed (one diagnostic, correct span).
    let value = match front {
        Ok(value) => value,
        Err(e) => {
            sink.push(Diagnostic::new(Code::P001, e.message.clone()).at(e.span));
            return sink.finish(file);
        }
    };

    // P002 — the universe itself is inconsistent (duplicate names,
    // unknown classes in memberships/signatures).  Without a universe
    // nothing downstream can resolve, so this also short-circuits.
    let universe = match &value.universe {
        Ok(u) => u,
        Err(e) => {
            sink.push(Diagnostic::new(Code::P002, e.message.clone()).at(e.span));
            return sink.finish(file);
        }
    };

    let dirty = names::run(&value.ast, universe, &mut sink);
    let mut ctx = Ctx::build(value, universe, src, &dirty, config.depth, cache, &mut sink);
    compose_pre::run(&mut ctx, &mut sink);
    alphabet::run(&ctx, &mut sink);
    reach::run(&ctx, &mut sink);
    vacuity::run(&ctx, &mut sink);
    waitfor::run(&ctx, &mut sink);
    sink.finish(file)
}

/// What [`time_deadlock_passes`] measured on one document.
#[derive(Debug, Clone)]
pub struct DeadlockTimings {
    /// Number of `compose` statements that actually composed.
    pub compositions: usize,
    /// Compositions the O(edges) wait-for-graph pass flagged (`P110`).
    pub waitfor_flagged: Vec<String>,
    /// Compositions the product-DFA pass flagged (`P105`), immediate
    /// (Ex. 5) and quiescent (Ex. 4) alike.
    pub product_flagged: Vec<String>,
    /// Compositions the product-DFA pass flagged as deadlocking
    /// *immediately* (`T = {ε}`) — the exact shape `P110` decides.
    pub product_immediate: Vec<String>,
    /// Wall-clock nanoseconds of the wait-for-graph pass.
    pub waitfor_nanos: u128,
    /// Wall-clock nanoseconds of the product-DFA pass (automaton
    /// construction included; a fresh cache is used so nothing is warm).
    pub product_nanos: u128,
}

impl DeadlockTimings {
    /// Soundness of the static pass on this document: everything the
    /// wait-for graph flags, the product DFA flags as an immediate
    /// deadlock — and vice versa.
    pub fn agree(&self) -> bool {
        let mut a = self.waitfor_flagged.clone();
        let mut b = self.product_immediate.clone();
        a.sort();
        b.sort();
        a == b
    }
}

/// Run *only* the two deadlock analyses over `src` and time them, for
/// the paper-report comparison (wait-for graph vs product DFA at
/// N=10/100/1000).  Elaboration and the other passes run untimed
/// beforehand; the product pass gets a fresh automaton cache so its
/// cost includes DFA construction, exactly what a cold lint pays.
/// Returns `None` when the document does not parse or its universe does
/// not elaborate.
pub fn time_deadlock_passes(src: &str, depth: usize) -> Option<DeadlockTimings> {
    let mut config = LintConfig::default();
    config.depth = depth;
    let value = Elaborated::new(parse(src).ok()?);
    let universe = value.universe.as_ref().ok()?;
    let cache = DfaCache::new();
    let mut scratch = DiagSink::new(config.clone());
    let dirty = names::run(&value.ast, universe, &mut scratch);
    let mut ctx = Ctx::build(&value, universe, src, &dirty, config.depth, &cache, &mut scratch);
    compose_pre::run(&mut ctx, &mut scratch);
    let compositions = ctx
        .ast
        .development
        .iter()
        .filter(|s| {
            matches!(s, pospec_lang::parser::DevStmt::Compose { name, .. }
                if ctx.dev.contains_key(name))
        })
        .count();

    let t0 = std::time::Instant::now();
    let waitfor_flagged: Vec<String> =
        waitfor::candidates(&ctx).into_iter().map(|c| c.name).collect();
    let waitfor_nanos = t0.elapsed().as_nanos();

    let t1 = std::time::Instant::now();
    let product = reach::product_deadlocks(&ctx);
    let product_nanos = t1.elapsed().as_nanos();
    let product_immediate =
        product.iter().filter(|d| d.witness.is_none()).map(|d| d.name.clone()).collect();
    let product_flagged = product.into_iter().map(|d| d.name).collect();

    Some(DeadlockTimings {
        compositions,
        waitfor_flagged,
        product_flagged,
        product_immediate,
        waitfor_nanos,
        product_nanos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(report: &LintReport) -> Vec<Code> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    fn lint(src: &str) -> LintReport {
        lint_document("test.pos", src, &LintConfig::default())
    }

    // Def. 1 requires an infinite (open-environment) alphabet, so every
    // fixture includes a class comprehension alongside its finite core.
    const CLEAN: &str = "\
universe { class Env; object o; object b; method OP; witnesses Env 1; }
spec S {
  objects { o }
  alphabet { <Env, o, OP>; <o, b, OP>; <b, o, OP>; }
  traces prs (<o, b, OP> <b, o, OP>)*;
}
";

    #[test]
    fn a_clean_document_produces_no_diagnostics() {
        let r = lint(CLEAN);
        assert!(r.is_clean(), "unexpected: {:?}", r.diagnostics);
    }

    /// Two composable specs; each test appends its `development` block.
    const S_AND_T: &str = "\
universe { class Env; object o; object b; method OP; method OK; witnesses Env 1; }
spec S {
  objects { o }
  alphabet { <Env, o, OP>; <o, b, OP>; <b, o, OP>; }
  traces prs (<o, b, OP> <b, o, OP>)*;
}
spec T {
  objects { b }
  alphabet { <Env, b, OK>; <o, b, OP>; <b, o, OP>; }
  traces any;
}
";

    #[test]
    fn compositions_are_built_from_the_passed_cache() {
        let src = format!("{S_AND_T}development {{ compose ST from S with T; }}\n");
        let cache = DfaCache::new();
        lint_document_cached("test.pos", &src, &LintConfig::default(), &cache);
        let s = cache.stats();
        // Both operand lifts live in the passed cache, and they are lifts
        // of the operand automata the per-spec passes built: S, T and ST
        // are each built once.
        assert_eq!(s.lift_misses, 2, "{s:?}");
        assert_eq!(s.dfa_misses, 3, "{s:?}");
    }

    #[test]
    fn a_lift_hit_counts_once() {
        // `TS` reuses both operand lifts of `ST`.  A built lift answers
        // alone: no operand automaton or alphabet lookup rides on it.
        let src = format!(
            "{S_AND_T}development {{ compose ST from S with T; compose TS from T with S; }}\n"
        );
        let cache = DfaCache::new();
        lint_document_cached("test.pos", &src, &LintConfig::default(), &cache);
        let s = cache.stats();
        assert_eq!((s.lift_misses, s.lift_hits), (2, 2), "{s:?}");
        assert_eq!((s.dfa_hits, s.alphabet_hits), (2, 4), "{s:?}");
    }

    #[test]
    fn syntax_errors_are_p001_with_a_span() {
        let r = lint("universe { object }");
        assert_eq!(codes(&r), vec![Code::P001]);
        assert!(r.diagnostics[0].span.is_some());
        assert!(r.has_errors());
    }

    #[test]
    fn universe_errors_are_p002() {
        let r = lint("universe { object o; object o; } ");
        assert_eq!(codes(&r), vec![Code::P002]);
    }

    #[test]
    fn unknown_names_all_reported_not_just_the_first() {
        let r = lint(
            "universe { object o; method OP; }\n\
             spec S { objects { o zap } alphabet { <o, pow, OP>; } traces any; }\n",
        );
        assert_eq!(codes(&r), vec![Code::P004, Code::P004]);
        let spans: Vec<_> = r.diagnostics.iter().map(|d| d.span.expect("span")).collect();
        assert!(spans[0].offset < spans[1].offset);
    }

    #[test]
    fn self_communication_is_p008() {
        let r = lint(
            "universe { object o; object b; method OP; }\n\
             spec S { objects { o } alphabet { <o, o, OP>; } traces any; }\n",
        );
        assert!(codes(&r).contains(&Code::P008), "{:?}", r.diagnostics);
    }

    #[test]
    fn shadowed_pattern_is_p101_with_a_covering_note() {
        let r = lint(
            "universe { class C; object c : C; object o; method OW; }\n\
             spec S {\n\
               objects { o }\n\
               alphabet { <C, o, OW>; <c, o, OW>; }\n\
               traces any;\n\
             }\n",
        );
        assert_eq!(codes(&r), vec![Code::P101]);
        let d = &r.diagnostics[0];
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.span.expect("span").line, 4);
        assert_eq!(d.notes.len(), 1);
    }

    #[test]
    fn non_composable_pair_is_p020_naming_the_internal_events() {
        let r = lint(
            "universe { class Env; object o; object b; method OK; witnesses Env 1; }\n\
             spec Left { objects { o } alphabet { <Env, o, OK>; <o, b, OK>; } traces any; }\n\
             spec Right { objects { o b } alphabet { <Env, b, OK>; } traces any; }\n\
             development { compose Both from Left with Right; }\n",
        );
        assert!(codes(&r).contains(&Code::P020), "{:?}", r.diagnostics);
        let d = r.diagnostics.iter().find(|d| d.code == Code::P020).expect("P020");
        assert!(d.message.contains("Def. 10"));
        assert!(d.notes.iter().any(|n| n.message.contains("⟨o,b,OK⟩")), "{:?}", d.notes);
    }

    #[test]
    fn failed_static_refinement_conditions_are_p021() {
        let r = lint(
            "universe { class Env; object o; object b; object c; method OP; witnesses Env 1; }\n\
             spec A { objects { o c } alphabet { <Env, o, OP>; <o, b, OP>; <c, b, OP>; } traces any; }\n\
             spec C { objects { o } alphabet { <Env, o, OP>; <o, b, OP>; } traces any; }\n\
             development { refine C of A; }\n",
        );
        let got = codes(&r);
        assert_eq!(got.iter().filter(|c| **c == Code::P021).count(), 2, "{:?}", r.diagnostics);
    }

    #[test]
    fn epsilon_only_spec_is_p107_and_vacuous_refinement_is_p106() {
        let r = lint(
            "universe { class Env; object o; object b; method OP; witnesses Env 1; }\n\
             spec A { objects { o } alphabet { <Env, o, OP>; <o, b, OP>; } traces prs <o, b, OP>?; }\n\
             spec C { objects { o } alphabet { <Env, o, OP>; <o, b, OP>; } traces prs eps; }\n\
             development { refine C of A; }\n",
        );
        let got = codes(&r);
        assert!(got.contains(&Code::P107), "{:?}", r.diagnostics);
        assert!(got.contains(&Code::P106), "{:?}", r.diagnostics);
    }

    #[test]
    fn deadlocking_composition_is_p105() {
        // Ex. 4/5 shape: each side insists on a different first event.
        let r = lint(
            "universe { class Env; object o; object b; method OP; witnesses Env 1; }\n\
             spec L { objects { o } alphabet { <Env, o, OP>; <o, b, OP>; <b, o, OP>; } traces prs <o, b, OP> <b, o, OP>*; }\n\
             spec R { objects { b } alphabet { <Env, b, OP>; <o, b, OP>; <b, o, OP>; } traces prs <b, o, OP> <o, b, OP>*; }\n\
             development { compose Both from L with R; }\n",
        );
        assert!(codes(&r).contains(&Code::P105), "{:?}", r.diagnostics);
    }

    #[test]
    fn deny_warnings_promotes_severity_in_the_report() {
        let src = "universe { class Env; object o; object b; method OP; method DEAD; witnesses Env 1; }\n\
             spec S { objects { o } alphabet { <Env, o, OP>; <o, b, OP>; } traces any; }\n";
        let relaxed = lint(src);
        assert!(!relaxed.has_errors() && !relaxed.is_clean(), "{:?}", relaxed.diagnostics);
        let mut cfg = LintConfig::default();
        cfg.deny_warnings = true;
        let strict = lint_document("test.pos", src, &cfg);
        assert!(strict.has_errors());
    }

    #[test]
    fn unused_method_is_p102_and_allow_suppresses_it() {
        let src = "universe { class Env; object o; object b; method OP; method DEAD; witnesses Env 1; }\n\
             spec S { objects { o } alphabet { <Env, o, OP>; <o, b, OP>; } traces any; }\n";
        let r = lint(src);
        assert_eq!(codes(&r), vec![Code::P102]);
        assert!(r.diagnostics[0].message.contains("`DEAD`"));
        let mut cfg = LintConfig::default();
        cfg.set(Code::P102, Level::Allow);
        assert!(lint_document("test.pos", src, &cfg).is_clean());
    }
}

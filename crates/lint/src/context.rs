//! Shared analysis state, read from one version's front end.
//!
//! The linter reads each `spec` block's elaboration result from the
//! version's [`Elaborated`] value, which elaborated every block
//! *independently* against the one shared universe, so a broken spec
//! does not hide findings in its neighbours.  Elaboration failures of
//! specs the names pass judged clean are exactly Def.-1 violations and
//! surface as `P009`.

use crate::diag::{Code, DiagSink, Diagnostic};
use pospec_alphabet::{ArgSpec, EventPattern, EventSet, ObjSpec, Universe};
use pospec_core::{DfaCache, Specification};
use pospec_lang::parser::{ArgAst, Ast, TemplateAst};
use pospec_lang::Elaborated;
use pospec_regex::ConcreteDfa;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One `spec` block's analysis state.
pub(crate) struct SpecInfo<'a> {
    /// Index into `ast.specs`.
    pub decl: usize,
    /// The elaborated specification, when elaboration succeeded and the
    /// names pass found the block clean.
    pub spec: Option<&'a Specification>,
    /// The event set of each alphabet template, in declaration order
    /// (`None` when the template did not resolve).
    pub template_sets: Vec<Option<EventSet>>,
}

/// Everything the semantic passes share.
pub(crate) struct Ctx<'a> {
    pub ast: &'a Ast,
    /// The original document text (fix edits splice into it).
    pub src: &'a str,
    pub universe: Arc<Universe>,
    pub specs: Vec<SpecInfo<'a>>,
    /// Specifications the development statements can reference: every
    /// elaborated spec (first declaration wins) plus successfully
    /// composed `compose` results, inserted by the composition pass.
    pub dev: BTreeMap<String, Cow<'a, Specification>>,
    /// Name → index into `specs` (first declaration wins), so per-leaf
    /// lookups stay O(log n) on thousand-spec documents.
    by_name: BTreeMap<String, usize>,
    pub depth: usize,
    pub cache: &'a DfaCache,
}

impl<'a> Ctx<'a> {
    /// The shared state over `value`, whose universe elaborated.  Specs
    /// the names pass marked `dirty` are skipped: their elaboration
    /// failures are already explained.  The others' failures are
    /// reported as `P009`.
    pub fn build(
        value: &'a Elaborated,
        universe: &Arc<Universe>,
        src: &'a str,
        dirty: &[bool],
        depth: usize,
        cache: &'a DfaCache,
        sink: &mut DiagSink,
    ) -> Ctx<'a> {
        let ast = &value.ast;
        let mut specs = Vec::new();
        let mut dev = BTreeMap::new();
        let mut by_name = BTreeMap::new();
        for (i, (sd, elaborated)) in ast.specs.iter().zip(&value.specs).enumerate() {
            by_name.entry(sd.name.clone()).or_insert(i);
            let spec = match elaborated {
                _ if dirty[i] => None,
                Ok(s) => Some(s),
                Err(e) => {
                    sink.push(Diagnostic::new(Code::P009, e.message.clone()).at(e.span));
                    None
                }
            };
            if let Some(s) = spec {
                dev.entry(sd.name.clone()).or_insert(Cow::Borrowed(s));
            }
            let template_sets = sd.alphabet.iter().map(|t| pattern_set(universe, t)).collect();
            specs.push(SpecInfo { decl: i, spec, template_sets });
        }
        Ctx { ast, src, universe: Arc::clone(universe), specs, dev, by_name, depth, cache }
    }

    /// Find the `SpecInfo` of the first declaration named `name`.
    pub fn spec_by_name(&self, name: &str) -> Option<&SpecInfo<'a>> {
        self.by_name.get(name).map(|&i| &self.specs[i])
    }

    /// The cached automaton of `spec`'s trace set over its own
    /// alphabet, or `None` when the set has no exact automaton view.
    pub fn dfa(&self, spec: &Specification) -> Option<Arc<ConcreteDfa>> {
        if !spec.trace_set().is_regular() {
            return None;
        }
        Some(self.cache.traceset_dfa(&self.universe, spec.trace_set(), spec.alphabet(), self.depth))
    }
}

/// The event set one alphabet template denotes (the linter's own
/// resolution, tolerant of unknown names: those return `None` and were
/// already reported by the names pass).
fn pattern_set(u: &Arc<Universe>, t: &TemplateAst) -> Option<EventSet> {
    pattern_set_scoped(u, t, &BTreeMap::new())
}

/// Like [`pattern_set`], with binder variables in scope: an endpoint
/// naming a `[ R . x in C ]` variable denotes its class (the exact
/// over-approximation the elaborator uses for `x`'s range).
pub(crate) fn pattern_set_scoped(
    u: &Arc<Universe>,
    t: &TemplateAst,
    scope: &BTreeMap<String, pospec_trace::ClassId>,
) -> Option<EventSet> {
    let endpoint = |name: &str| {
        if let Some(c) = scope.get(name) {
            Some(ObjSpec::Class(*c))
        } else if let Some(o) = u.object_by_name(name) {
            Some(ObjSpec::Id(o))
        } else {
            u.class_by_name(name).map(ObjSpec::Class)
        }
    };
    let caller = endpoint(&t.caller)?;
    let callee = endpoint(&t.callee)?;
    let method = u.method_by_name(&t.method)?;
    let arg = match &t.arg {
        ArgAst::Absent | ArgAst::Wild => ArgSpec::Auto,
        ArgAst::Name(n) => {
            if let Some(d) = u.data_by_name(n) {
                ArgSpec::Value(d)
            } else if u.class_by_name(n).is_some() {
                ArgSpec::Auto
            } else {
                return None;
            }
        }
    };
    Some(EventPattern { caller, callee, method: Some(method), arg }.to_set(u))
}

//! Pass 2 — alphabet analysis on the exact granule algebra.
//!
//! * `P101` — an alphabet pattern whose event set is already covered by
//!   the union of the preceding patterns (decided exactly; shadowing is
//!   harmless to the semantics but almost always a copy-paste slip);
//! * `P102` — a universe declaration (object / method / value / class)
//!   matched by no specification at all;
//! * `P103` — a refinement that expands the alphabet (which Def. 2
//!   deliberately permits) but whose *new* events label no reachable
//!   transition of the refined automaton — the expansion is dead
//!   weight, and condition 3 over it is trivially satisfied.

use crate::context::Ctx;
use crate::diag::{Code, DiagSink, Diagnostic, Fix};
use crate::fix::{deletion_edit, regex_literal_sets};
use pospec_alphabet::EventSet;
use pospec_lang::parser::{ArgAst, DevStmt, ReAst, TemplateAst, TracesAst, UDecl, WitnessTarget};
use pospec_lang::TextEdit;
use std::collections::BTreeSet;

pub(crate) fn run(ctx: &Ctx<'_>, sink: &mut DiagSink) {
    shadowed_patterns(ctx, sink);
    unused_declarations(ctx, sink);
    dead_expansions(ctx, sink);
}

fn shadowed_patterns(ctx: &Ctx<'_>, sink: &mut DiagSink) {
    let u = &ctx.universe;
    for info in &ctx.specs {
        let sd = &ctx.ast.specs[info.decl];
        let mut acc = EventSet::empty(u);
        for (i, set) in info.template_sets.iter().enumerate() {
            let Some(s) = set else { continue };
            if !s.is_empty() && s.is_subset(&acc) {
                // Point at the shortest prefix that already covers it.
                let mut prefix = EventSet::empty(u);
                let mut covered_by = 0;
                for (j, earlier) in info.template_sets[..i].iter().enumerate() {
                    if let Some(e) = earlier {
                        prefix = prefix.union(e);
                    }
                    if s.is_subset(&prefix) {
                        covered_by = j;
                        break;
                    }
                }
                // Removal is unconditionally safe: the pattern's events
                // are a subset of the preceding patterns' union, so the
                // elaborated alphabet — and with it every trace set and
                // verdict — is unchanged.
                sink.push(
                    Diagnostic::new(
                        Code::P101,
                        format!(
                            "pattern {} of `{}`'s alphabet is shadowed: every event it denotes is already covered by the preceding patterns",
                            i + 1,
                            sd.name
                        ),
                    )
                    .at(sd.alphabet[i].span)
                    .note_at(
                        sd.alphabet[covered_by].span,
                        "fully covered by the patterns up to this one",
                    )
                    .with_fix(Fix::machine(
                        "remove the shadowed pattern",
                        vec![deletion_edit(ctx.src, sd.alphabet[i].span)],
                    )),
                );
            }
            acc = acc.union(s);
        }
    }
}

/// Syntactic usage collection: every identifier that appears in an
/// object list, template position, binder, or component membership.
fn used_names(ctx: &Ctx<'_>) -> BTreeSet<String> {
    let mut used = BTreeSet::new();
    let mut template = |t: &TemplateAst, used: &mut BTreeSet<String>| {
        used.insert(t.caller.clone());
        used.insert(t.callee.clone());
        used.insert(t.method.clone());
        if let ArgAst::Name(n) = &t.arg {
            used.insert(n.clone());
        }
    };
    fn walk(
        re: &ReAst,
        used: &mut BTreeSet<String>,
        template: &mut impl FnMut(&TemplateAst, &mut BTreeSet<String>),
    ) {
        match re {
            ReAst::Eps => {}
            ReAst::Lit(t) => template(t, used),
            ReAst::Seq(ps) | ReAst::Alt(ps) => {
                for p in ps {
                    walk(p, used, template);
                }
            }
            ReAst::Star(r) | ReAst::Plus(r) | ReAst::Opt(r) | ReAst::Group(r) => {
                walk(r, used, template)
            }
            ReAst::Bind { body, class, .. } => {
                used.insert(class.clone());
                walk(body, used, template);
            }
        }
    }
    for sd in &ctx.ast.specs {
        for (name, _) in &sd.objects {
            used.insert(name.clone());
        }
        for t in &sd.alphabet {
            template(t, &mut used);
        }
        if let pospec_lang::parser::TracesAst::Prs(re) = &sd.traces {
            walk(re, &mut used, &mut template);
        }
    }
    for cd in &ctx.ast.components {
        for (obj, _) in &cd.members {
            used.insert(obj.clone());
        }
    }
    used
}

fn unused_declarations(ctx: &Ctx<'_>, sink: &mut DiagSink) {
    let u = &ctx.universe;
    let named = used_names(ctx);
    // The union of every elaborated spec's alphabet decides *semantic*
    // usage: an object reached through a class pattern counts as used
    // even when its own name never appears.  Collect the granules in
    // one pass (a fold of `EventSet::union` clones the accumulated
    // granule set per spec — quadratic on generated thousand-spec
    // documents) and precompute the named endpoints once instead of
    // scanning the union per object declaration.
    let mut granules = BTreeSet::new();
    for info in &ctx.specs {
        if let Some(s) = &info.spec {
            granules.extend(s.alphabet().granules().copied());
        }
    }
    let union_alpha = EventSet::from_granules(u, granules);
    let endpoint_objects = union_alpha.named_endpoints();
    let used_method = |name: &str| named.contains(name);
    let used_object = |name: &str| {
        named.contains(name)
            || u.object_by_name(name).is_some_and(|o| endpoint_objects.contains(&o))
    };
    // A method's signature keeps its data class alive; a used method
    // with a parameterised signature keeps the class's values alive
    // (they are matched by `M(_)` without being named).
    let mut sig_classes: BTreeSet<&str> = BTreeSet::new();
    for d in &ctx.ast.universe {
        if let UDecl::Method { name, param: Some(c) } = d {
            if used_method(name) {
                sig_classes.insert(c.as_str());
            }
        }
    }
    let used_value = |name: &str, class: &str| named.contains(name) || sig_classes.contains(class);
    let used_class = |name: &str| {
        named.contains(name)
            || sig_classes.contains(name)
            || ctx.ast.universe.iter().any(|d| match d {
                UDecl::Object { name: o, class: Some(c) } => c == name && used_object(o),
                UDecl::Value { name: v, class: c } => c == name && used_value(v, c),
                _ => false,
            })
    };
    for (idx, d) in ctx.ast.universe.iter().enumerate() {
        let (kind, name, unused) = match d {
            UDecl::Class(n) | UDecl::Data(n) => ("class", n, !used_class(n)),
            UDecl::Object { name, .. } => ("object", name, !used_object(name)),
            UDecl::Method { name, .. } => ("method", name, !used_method(name)),
            UDecl::Value { name, class } => ("value", name, !used_value(name, class)),
            UDecl::Witnesses { .. } => continue,
        };
        if unused {
            // Removal preserves every verdict: a flagged declaration is
            // semantically absent from every elaborated alphabet (even
            // class patterns would have marked it used through the
            // granule expansion), so re-elaboration yields extensionally
            // identical specifications.  A class takes its (necessarily
            // also unused) members and `witnesses` lines with it — an
            // orphaned member or witness would break the universe.
            let mut edits = vec![deletion_edit(ctx.src, ctx.ast.universe_spans[idx])];
            if matches!(d, UDecl::Class(_) | UDecl::Data(_)) {
                for (j, other) in ctx.ast.universe.iter().enumerate() {
                    let member = match other {
                        UDecl::Object { class: Some(c), .. } => c == name,
                        UDecl::Value { class, .. } => class == name,
                        UDecl::Witnesses { target: WitnessTarget::Class(c), .. } => c == name,
                        _ => false,
                    };
                    if member {
                        edits.push(deletion_edit(ctx.src, ctx.ast.universe_spans[j]));
                    }
                }
            }
            sink.push(
                Diagnostic::new(
                    Code::P102,
                    format!(
                        "{kind} `{name}` is declared in the universe but matched by no specification"
                    ),
                )
                .at(ctx.ast.universe_spans[idx])
                .with_fix(Fix::machine(format!("remove unused {kind} `{name}`"), edits)),
            );
        }
    }
}

fn dead_expansions(ctx: &Ctx<'_>, sink: &mut DiagSink) {
    for stmt in &ctx.ast.development {
        let DevStmt::Refine { concrete, abstract_, span } = stmt else { continue };
        let (Some(c), Some(a)) = (ctx.dev.get(concrete), ctx.dev.get(abstract_)) else {
            continue;
        };
        let new = c.alphabet().difference(a.alphabet());
        if new.is_empty() {
            continue;
        }
        let Some(dfa) = ctx.dfa(c) else { continue };
        let live = dfa.live_symbols();
        let sigma = dfa.alphabet();
        let any_new_live = sigma.iter().enumerate().any(|(sym, e)| live[sym] && new.contains(e));
        if !any_new_live {
            let mut d = Diagnostic::new(
                Code::P103,
                format!(
                    "`{concrete}` expands `{abstract_}`'s alphabet, but none of the new events occurs in any accepted trace of `{concrete}` — the expansion is unreachable"
                ),
            )
            .at(*span)
            .note(format!(
                "new events α(`{concrete}`) ∖ α(`{abstract_}`): {}",
                crate::compose_pre::sample_events(&new, &ctx.universe, 3)
            ));
            if let Some(edits) = expansion_removal_edits(ctx, concrete, a, &new) {
                d = d.with_fix(Fix::machine("remove the dead alphabet expansion", edits));
            }
            sink.push(d);
        }
    }
}

/// Edits deleting exactly the alphabet patterns of `concrete` that
/// carry the dead expansion `new`, or `None` when no provably exact
/// removal exists.  The fix is attached only when
///
/// * `concrete` is a literal `spec` block (not a `compose` result),
/// * α(a) ⊆ α(c) — so the shrunken alphabet is exactly α(a), which is
///   admissible (a subset of an admissible set is) and infinite,
/// * the removed patterns partition off `new` exactly: each removed
///   pattern's events lie inside `new`, their union covers `new`, and
///   no surviving pattern overlaps `new` (otherwise the re-lint would
///   flag the residue forever and `--fix` would not reach a fixpoint),
/// * no trace-regex literal of `concrete` mentions a removed event —
///   the trace set elaborates identically over the smaller alphabet.
fn expansion_removal_edits(
    ctx: &Ctx<'_>,
    concrete: &str,
    abstract_spec: &pospec_core::Specification,
    new: &EventSet,
) -> Option<Vec<TextEdit>> {
    if ctx
        .ast
        .development
        .iter()
        .any(|s| matches!(s, DevStmt::Compose { name, .. } if name == concrete))
    {
        return None;
    }
    let info = ctx.spec_by_name(concrete)?;
    let sd = &ctx.ast.specs[info.decl];
    let c = info.spec.as_ref()?;
    if !abstract_spec.alphabet().is_subset(c.alphabet()) {
        return None;
    }
    let mut removed = Vec::new();
    let mut covered = EventSet::empty(&ctx.universe);
    for (i, set) in info.template_sets.iter().enumerate() {
        let s = set.as_ref()?;
        if s.is_subset(new) {
            removed.push(i);
            covered = covered.union(s);
        } else if !s.intersect(new).is_empty() {
            return None; // a surviving pattern straddles the expansion
        }
    }
    if removed.is_empty() || !new.is_subset(&covered) {
        return None;
    }
    if let TracesAst::Prs(re) = &sd.traces {
        let lits = regex_literal_sets(&ctx.universe, re)?;
        if lits.iter().any(|l| !l.intersect(new).is_empty()) {
            return None;
        }
    }
    Some(removed.iter().map(|&i| deletion_edit(ctx.src, sd.alphabet[i].span)).collect())
}

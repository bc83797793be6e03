//! Pass 3 — composition and refinement preconditions, decided exactly
//! on the granule algebra (no automata needed).
//!
//! * `P020` — a `compose` clause whose operands violate Def. 10, with
//!   the offending events and objects named (the checker's late
//!   `ComposeError` reports only an opaque overlap string);
//! * `P021` — a `refine` clause that already fails the static
//!   conditions 1–2 of Def. 2 (object and alphabet inclusion);
//! * `P120` — a refinement that is not *proper* (Def. 14) with respect
//!   to a declared composition context: its new objects communicate
//!   with the context, so the context's hiding would erase events the
//!   original composition kept observable.
//!
//! Successfully composed results are inserted into `ctx.dev` for the
//! reachability and vacuity passes.

use crate::context::Ctx;
use crate::diag::{Code, DiagSink, Diagnostic, Fix};
use crate::fix::granule_template_source;
use pospec_alphabet::{internal_of_set, EventSet, Universe};
use pospec_core::{
    compose, is_proper_refinement, properness_offending_events, refinement_conditions,
};
use pospec_lang::parser::DevStmt;
use pospec_lang::TextEdit;
use std::borrow::Cow;

/// Render at most `max` granules of `s`, with an ellipsis beyond.
pub(crate) fn sample_events(s: &EventSet, u: &Universe, max: usize) -> String {
    let mut parts: Vec<String> = s.granules().take(max).map(|g| g.display(u)).collect();
    if s.granule_count() > max {
        parts.push("…".to_string());
    }
    parts.join(", ")
}

fn object_names(u: &Universe, objs: impl IntoIterator<Item = pospec_trace::ObjectId>) -> String {
    objs.into_iter().map(|o| format!("`{}`", u.object_name(o))).collect::<Vec<_>>().join(", ")
}

pub(crate) fn run(ctx: &mut Ctx<'_>, sink: &mut DiagSink) {
    let ast = ctx.ast;
    let u = ctx.universe.clone();
    for stmt in &ast.development {
        match stmt {
            DevStmt::Compose { name, left, right, span } => {
                let (Some(l), Some(r)) = (ctx.dev.get(left).cloned(), ctx.dev.get(right).cloned())
                else {
                    continue; // operand missing: already reported upstream
                };
                match compose(&l, &r) {
                    Ok(c) => {
                        ctx.dev.insert(name.clone(), Cow::Owned(c));
                    }
                    Err(_) => {
                        // Recompute the two Def.-10 overlaps so the
                        // diagnostic can name exactly what collides.
                        let overlap_a = l.alphabet().intersect(&internal_of_set(&u, r.objects()));
                        let overlap_b = internal_of_set(&u, l.objects()).intersect(r.alphabet());
                        let mut d = Diagnostic::new(
                            Code::P020,
                            format!(
                                "`{left}` and `{right}` are not composable (Def. 10): each side's alphabet must avoid events internal to the other's objects"
                            ),
                        )
                        .at(*span);
                        if !overlap_a.is_empty() {
                            let objs: Vec<_> = r
                                .objects()
                                .iter()
                                .copied()
                                .filter(|o| overlap_a.mentions_object(*o))
                                .collect();
                            d = d.note(format!(
                                "α(`{left}`) contains events internal to `{right}`'s objects {}: {}",
                                object_names(&u, objs),
                                sample_events(&overlap_a, &u, 3),
                            ));
                        }
                        if !overlap_b.is_empty() {
                            let objs: Vec<_> = l
                                .objects()
                                .iter()
                                .copied()
                                .filter(|o| overlap_b.mentions_object(*o))
                                .collect();
                            d = d.note(format!(
                                "α(`{right}`) contains events internal to `{left}`'s objects {}: {}",
                                object_names(&u, objs),
                                sample_events(&overlap_b, &u, 3),
                            ));
                        }
                        sink.push(d);
                    }
                }
            }
            DevStmt::Refine { concrete, abstract_, span } => {
                let (Some(c), Some(a)) = (ctx.dev.get(concrete), ctx.dev.get(abstract_)) else {
                    continue;
                };
                let rc = refinement_conditions(c, a);
                if !rc.objects_ok {
                    let missing: Vec<_> = a.objects().difference(c.objects()).copied().collect();
                    sink.push(
                        Diagnostic::new(
                            Code::P021,
                            format!(
                                "`{concrete}` cannot refine `{abstract_}` (Def. 2, condition 1): O(`{abstract_}`) ⊄ O(`{concrete}`)"
                            ),
                        )
                        .at(*span)
                        .note(format!(
                            "objects of `{abstract_}` missing from `{concrete}`: {}",
                            object_names(&u, missing)
                        )),
                    );
                }
                if !rc.alphabet_ok {
                    let missing = a.alphabet().difference(c.alphabet());
                    let mut d = Diagnostic::new(
                        Code::P021,
                        format!(
                            "`{concrete}` cannot refine `{abstract_}` (Def. 2, condition 2): α(`{abstract_}`) ⊄ α(`{concrete}`)"
                        ),
                    )
                    .at(*span)
                    .note(format!(
                        "events of `{abstract_}` outside α(`{concrete}`): {}",
                        sample_events(&missing, &u, 3)
                    ));
                    // Offer to widen α(concrete) by the missing
                    // patterns.  MaybeIncorrect by design: when
                    // condition 1 also fails, or when the new events
                    // are internal to O(concrete), the widened spec no
                    // longer elaborates (Def. 1 admissibility) — the
                    // author must decide, so `--fix` never applies it.
                    if rc.objects_ok {
                        if let Some(edit) = widen_alphabet_edit(ctx, concrete, &missing) {
                            d = d.with_fix(Fix::suggestion(
                                format!("widen α(`{concrete}`) to cover α(`{abstract_}`)"),
                                vec![edit],
                            ));
                        }
                    }
                    sink.push(d);
                }
            }
            DevStmt::Sound { .. } => {}
        }
    }

    properness(ctx, sink);
}

/// An insertion that appends one template per missing granule after the
/// last alphabet pattern of `concrete`, or `None` when no clean
/// insertion exists: `concrete` must be a literal `spec` block with a
/// non-empty alphabet, and every missing granule must render back into
/// template source (anonymous-environment and undeclared-method blocks
/// do not).  Class-rest granules render as their class name — a
/// superset of the granule, but one whose extra members come from the
/// abstract spec's own class patterns, so the widened alphabet is
/// exactly α(concrete) ∪ α(abstract).
fn widen_alphabet_edit(ctx: &Ctx<'_>, concrete: &str, missing: &EventSet) -> Option<TextEdit> {
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
    let last = sd.alphabet.last()?;
    // Insert after the `;` that closes the last pattern.
    let end = (last.span.offset + last.span.len) as usize;
    let rest = ctx.src.get(end..)?;
    let semi = rest.find(';')?;
    if !rest[..semi].trim().is_empty() {
        return None; // unexpected tokens between pattern and `;`
    }
    let insert_at = end + semi + 1;
    let line_start = ctx.src[..last.span.offset as usize].rfind('\n').map(|i| i + 1).unwrap_or(0);
    let prefix = &ctx.src[line_start..last.span.offset as usize];
    let indent: String = prefix.chars().take_while(|c| c.is_whitespace()).collect();
    let mut templates: Vec<String> = Vec::new();
    for g in missing.granules() {
        let t = granule_template_source(&ctx.universe, g)?;
        if !templates.contains(&t) {
            templates.push(t);
        }
    }
    if templates.is_empty() {
        return None;
    }
    let text: String = templates.iter().map(|t| format!("\n{indent}{t};")).collect();
    Some(TextEdit::insert(insert_at, text))
}

/// `P120`: every declared refinement is checked against every declared
/// composition that uses its abstract side as an operand (Def. 14 with
/// the other operand as the context `∆`).
fn properness(ctx: &Ctx<'_>, sink: &mut DiagSink) {
    let u = &ctx.universe;
    for r in &ctx.ast.development {
        let DevStmt::Refine { concrete, abstract_, span: rspan } = r else { continue };
        let (Some(c), Some(a)) = (ctx.dev.get(concrete), ctx.dev.get(abstract_)) else {
            continue;
        };
        for s in &ctx.ast.development {
            let DevStmt::Compose { name, left, right, span: cspan } = s else { continue };
            let delta_name = if abstract_ == left {
                right
            } else if abstract_ == right {
                left
            } else {
                continue;
            };
            let Some(delta) = ctx.dev.get(delta_name) else { continue };
            if is_proper_refinement(c, a, delta) {
                continue;
            }
            let offending = properness_offending_events(c, a).intersect(delta.alphabet());
            let new_objs: Vec<_> = c
                .objects()
                .difference(a.objects())
                .copied()
                .filter(|o| offending.mentions_object(*o))
                .collect();
            sink.push(
                Diagnostic::new(
                    Code::P120,
                    format!(
                        "refining `{abstract_}` to `{concrete}` is not proper for the composition `{name}` (Def. 14): the refinement's new objects communicate with the context `{delta_name}`"
                    ),
                )
                .at(*rspan)
                .note(format!(
                    "offending events α₀ ∩ α(`{delta_name}`), via new objects {}: {}",
                    object_names(u, new_objs),
                    sample_events(&offending, u, 3)
                ))
                .note_at(*cspan, "the affected composition is declared here"),
            );
        }
    }
}

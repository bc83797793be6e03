//! Pass 4 — automaton reachability.
//!
//! * `P107` — a specification whose trace set is `{ε}`: legal (Def. 1
//!   only requires nonemptiness and prefix closure) but it permits no
//!   communication at all;
//! * `P104` — a finite alphabet pattern none of whose events occurs in
//!   any accepted trace: the pattern enlarges the alphabet (and thereby
//!   the refinement obligation, Def. 2 condition 3) without ever being
//!   exercised;
//! * `P105` — a declared composition that can reach a quiescent state:
//!   an accepted trace after which no event can ever be appended.  For
//!   a single spec that is often intentional (finite protocols end),
//!   but for a composition it is the paper's deadlock shape (Ex. 4/5):
//!   both sides are individually willing, yet the conjunction stalls.

use crate::context::Ctx;
use crate::diag::{Code, DiagSink, Diagnostic, Fix};
use crate::fix::{deletion_edit, regex_literal_sets};
use pospec_alphabet::EventSet;
use pospec_lang::parser::{DevStmt, TracesAst};
use pospec_lang::Span;

pub(crate) fn run(ctx: &Ctx<'_>, sink: &mut DiagSink) {
    epsilon_and_dead_patterns(ctx, sink);
    deadlocked_compositions(ctx, sink);
}

fn epsilon_and_dead_patterns(ctx: &Ctx<'_>, sink: &mut DiagSink) {
    for info in &ctx.specs {
        let sd = &ctx.ast.specs[info.decl];
        let Some(spec) = &info.spec else { continue };
        let Some(dfa) = ctx.dfa(spec) else { continue };
        if dfa.accepts_only_epsilon() {
            sink.push(
                Diagnostic::new(
                    Code::P107,
                    format!(
                        "`{}` accepts only the empty trace: it satisfies Def. 1 but permits no communication",
                        sd.name
                    ),
                )
                .at(sd.span),
            );
            // Every pattern is trivially dead in an ε-only spec; the
            // one P107 explains it better than a P104 per pattern.
            continue;
        }
        let live = dfa.live_symbols();
        let sigma = dfa.alphabet();
        for (i, set) in info.template_sets.iter().enumerate() {
            let Some(s) = set else { continue };
            // Only finite patterns: an open-environment comprehension
            // (class caller, wildcard argument over an infinite class)
            // legitimately over-approximates what traces exercise.
            if s.is_empty() || s.is_infinite() {
                continue;
            }
            let exercised = sigma.iter().enumerate().any(|(sym, e)| live[sym] && s.contains(e));
            if !exercised {
                let mut d = Diagnostic::new(
                    Code::P104,
                    format!(
                        "pattern {} of `{}`'s alphabet contributes no event to any accepted trace",
                        i + 1,
                        sd.name
                    ),
                )
                .at(sd.alphabet[i].span)
                .note(
                    "dead alphabet widens every refinement obligation over this spec (Def. 2, condition 3) without constraining behaviour",
                );
                // Removal is safe when no trace-regex literal mentions
                // an event only this pattern contributes: the remaining
                // (still infinite, still admissible) alphabet elaborates
                // the same trace set, so only obligations naming this
                // spec can change — which is the point of the fix.
                let mut others = EventSet::empty(&ctx.universe);
                for (j, other) in info.template_sets.iter().enumerate() {
                    if j != i {
                        if let Some(o) = other {
                            others = others.union(o);
                        }
                    }
                }
                let removed_events = s.difference(&others);
                let literals_safe = match &sd.traces {
                    TracesAst::Any => true,
                    TracesAst::Prs(re) => {
                        regex_literal_sets(&ctx.universe, re).is_some_and(|lits| {
                            lits.iter().all(|l| l.intersect(&removed_events).is_empty())
                        })
                    }
                };
                if literals_safe {
                    d = d.with_fix(Fix::machine(
                        "remove the dead pattern",
                        vec![deletion_edit(ctx.src, sd.alphabet[i].span)],
                    ));
                }
                sink.push(d);
            }
        }
    }
}

/// One composition the product-DFA analysis flags.
pub(crate) struct ProductDeadlock {
    pub name: String,
    pub left: String,
    pub right: String,
    pub span: Span,
    /// `None` for the immediate (Ex. 5, `T = {ε}`) shape; the shortest
    /// stalling trace (rendered) for the quiescent (Ex. 4) shape.
    pub witness: Option<String>,
}

/// The product-DFA deadlock analysis proper, shared by [`run`] and the
/// timing API: build each declared composition's automaton and look for
/// quiescent accepting states.
pub(crate) fn product_deadlocks(ctx: &Ctx<'_>) -> Vec<ProductDeadlock> {
    let u = &ctx.universe;
    let mut out = Vec::new();
    for stmt in &ctx.ast.development {
        let DevStmt::Compose { name, left, right, span } = stmt else { continue };
        let Some(spec) = ctx.dev.get(name) else { continue };
        let Some(dfa) = ctx.dfa(spec) else { continue };
        if dfa.accepts_only_epsilon() {
            out.push(ProductDeadlock {
                name: name.clone(),
                left: left.clone(),
                right: right.clone(),
                span: *span,
                witness: None,
            });
            continue;
        }
        if let Some(word) = dfa.quiescent_word() {
            let trace = word
                .iter()
                .map(|e| pospec_alphabet::display_event(u, e).to_string())
                .collect::<Vec<_>>()
                .join(" ");
            out.push(ProductDeadlock {
                name: name.clone(),
                left: left.clone(),
                right: right.clone(),
                span: *span,
                witness: Some(trace),
            });
        }
    }
    out
}

fn deadlocked_compositions(ctx: &Ctx<'_>, sink: &mut DiagSink) {
    for d in product_deadlocks(ctx) {
        let ProductDeadlock { name, left, right, span, witness } = d;
        match witness {
            None => sink.push(
                Diagnostic::new(
                    Code::P105,
                    format!(
                        "composition `{name}` deadlocks immediately: `{left}` and `{right}` agree on no non-empty trace (Ex. 5)"
                    ),
                )
                .at(span),
            ),
            Some(trace) => sink.push(
                Diagnostic::new(
                    Code::P105,
                    format!(
                        "composition `{name}` is deadlock-prone: after an accepted trace no further event is possible (Ex. 4)"
                    ),
                )
                .at(span)
                .note(if trace.is_empty() {
                    "shortest stalling trace: ε".to_string()
                } else {
                    format!("shortest stalling trace: {trace}")
                }),
            ),
        }
    }
}

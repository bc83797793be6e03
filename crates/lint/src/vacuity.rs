//! Pass 5 — vacuous refinement obligations.
//!
//! `P106`: a declared `refine` whose condition 3 (Def. 2) holds for a
//! degenerate reason — the concrete side's trace set is `{ε}` (or the
//! projection of every concrete trace is empty), so the inclusion
//! `T' / α ⊆ T` is witnessed only by the empty trace.  The refinement
//! "verifies" but establishes nothing about behaviour.

use crate::context::Ctx;
use crate::diag::{Code, DiagSink, Diagnostic};
use pospec_lang::parser::DevStmt;

pub(crate) fn run(ctx: &Ctx<'_>, sink: &mut DiagSink) {
    for stmt in &ctx.ast.development {
        let DevStmt::Refine { concrete, abstract_, span } = stmt else { continue };
        let (Some(c), Some(a)) = (ctx.dev.get(concrete), ctx.dev.get(abstract_)) else {
            continue;
        };
        let Some(cdfa) = ctx.dfa(c) else { continue };
        if cdfa.accepts_only_epsilon() {
            sink.push(
                Diagnostic::new(
                    Code::P106,
                    format!(
                        "the obligation `{concrete}` ⊒ `{abstract_}` holds vacuously: `{concrete}` accepts only the empty trace, so condition 3 of Def. 2 is witnessed by ε alone"
                    ),
                )
                .at(*span),
            );
            continue;
        }
        // Projection vacuity: no event of the abstract alphabet is live
        // in the concrete automaton, so every projected trace is ε.
        let live = cdfa.live_symbols();
        let sigma = cdfa.alphabet();
        let any_abstract_live =
            sigma.iter().enumerate().any(|(sym, e)| live[sym] && a.alphabet().contains(e));
        if !any_abstract_live {
            sink.push(
                Diagnostic::new(
                    Code::P106,
                    format!(
                        "the obligation `{concrete}` ⊒ `{abstract_}` holds vacuously: no accepted trace of `{concrete}` contains an event of α(`{abstract_}`), so the projection in condition 3 is always ε"
                    ),
                )
                .at(*span),
            );
        }
    }
}

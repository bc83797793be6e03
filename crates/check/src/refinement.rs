//! Human-readable refinement verdicts.
//!
//! Verdicts come from `pospec-core`: [`pospec_core::check_refinement_cached`]
//! through a caller-owned [`pospec_core::DfaCache`], or the eager
//! [`pospec_core::check_refinement`].  This module renders them with
//! universe names and the offending projection.

use pospec_core::{Specification, Verdict};

/// A human-readable explanation of a refinement verdict, rendering the
/// counterexample with universe names and showing the offending
/// projection (for CLI/report output).
pub fn explain_verdict(
    concrete: &Specification,
    abstract_: &Specification,
    verdict: &Verdict,
) -> String {
    use pospec_core::refine::FailedCondition as FC;
    let u = concrete.universe();
    match verdict {
        Verdict::Holds { exact: true } => format!(
            "{} ⊑ {} holds — decided exactly over the finitized alphabet.",
            concrete.name(),
            abstract_.name()
        ),
        Verdict::Holds { exact: false } => format!(
            "{} ⊑ {} holds up to the predicate depth (opaque predicate trace sets involved).",
            concrete.name(),
            abstract_.name()
        ),
        Verdict::Fails { reason: FC::Objects, .. } => format!(
            "{} ⋢ {}: Def. 2 condition 1 fails — O({}) ⊄ O({}).",
            concrete.name(),
            abstract_.name(),
            abstract_.name(),
            concrete.name()
        ),
        Verdict::Fails { reason: FC::Alphabet, .. } => {
            let missing = abstract_.alphabet().difference(concrete.alphabet());
            format!(
                "{} ⋢ {}: Def. 2 condition 2 fails — the abstract alphabet contains events the concrete one lacks: {}.",
                concrete.name(),
                abstract_.name(),
                missing.display()
            )
        }
        Verdict::Fails { reason: FC::Traces, counterexample } => match counterexample {
            Some(cex) => {
                let proj = cex.project(abstract_.alphabet());
                format!(
                    "{} ⋢ {}: condition 3 fails.\n  concrete witness: {}\n  its projection onto α({}): {}\n  …which is not in T({}).",
                    concrete.name(),
                    abstract_.name(),
                    pospec_alphabet::display_trace(u, cex),
                    abstract_.name(),
                    pospec_alphabet::display_trace(u, &proj),
                    abstract_.name()
                )
            }
            None => format!(
                "{} ⋢ {}: condition 3 fails (no witness recorded).",
                concrete.name(),
                abstract_.name()
            ),
        },
    }
}

//! Differential-test oracle over generated scenarios.
//!
//! `pospec-gen` derives every expected verdict from the *construction*
//! of its component networks — it does not link the checker, so a
//! manifest cannot have been produced by running it.  This suite closes
//! the loop: for scenarios across seeds × families × sizes, the
//! engine's refinement verdicts (Def. 2, including counterexamples),
//! composability verdicts (Def. 10, including the offending internal
//! events), observable-deadlock verdicts (Ex. 5) and lint diagnostics
//! must equal the manifest *exactly* — nothing missing, nothing extra.
//!
//! Metamorphic cases: a rename-consistent alphabet (salt suffix on
//! every identifier) must preserve all verdicts, and dropping the
//! offending granules from a non-composable pair must flip `P020` off
//! while flipping the donor refinement to a Def.-2 condition-2 failure
//! (`P021` + vacuity `P106`).

mod oracle;

use oracle::eager_check_refinement;
use pospec_alphabet::internal_of_set;
use pospec_core::{
    check_all_pairs, check_refinement_batch, compose, is_composable, observable_deadlock, DfaCache,
    FailedCondition, Specification, Verdict,
};
use pospec_gen::{generate, ExpectRefine, Family, GenConfig, Scenario};
use pospec_lang::parse_document;
use pospec_lint::{lint_document_cached, LintConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Predicate depth for the checker.  Every generated trace set is
/// regular, so verdicts are exact and depth-independent; the value only
/// needs to be a valid depth.
const DEPTH: usize = 6;

/// Assert that one engine verdict matches one manifest expectation.
fn assert_verdict(
    scenario: &Scenario,
    concrete: &str,
    abstract_: &str,
    expect: &ExpectRefine,
    got: &Verdict,
    universe: &std::sync::Arc<pospec_alphabet::Universe>,
) {
    let at = format!("[{}] {} ⊑ {}", scenario.config.stem(), concrete, abstract_);
    match expect {
        ExpectRefine::Holds => {
            assert_eq!(got, &Verdict::Holds { exact: true }, "{at}: manifest says holds (exact)");
        }
        ExpectRefine::FailsObjects => match got {
            Verdict::Fails { reason: FailedCondition::Objects, counterexample: None } => {}
            other => panic!("{at}: manifest says fails condition 1, engine says {other:?}"),
        },
        ExpectRefine::FailsAlphabet => match got {
            Verdict::Fails { reason: FailedCondition::Alphabet, counterexample: None } => {}
            other => panic!("{at}: manifest says fails condition 2, engine says {other:?}"),
        },
        ExpectRefine::FailsTraces { counterexample } => match got {
            Verdict::Fails { reason: FailedCondition::Traces, counterexample: Some(t) } => {
                let shown: Vec<String> = t
                    .iter()
                    .map(|e| pospec_alphabet::display_event(universe, e).to_string())
                    .collect();
                assert_eq!(
                    &shown, counterexample,
                    "{at}: the engine's witness differs from the constructed one"
                );
            }
            other => panic!("{at}: manifest says fails condition 3, engine says {other:?}"),
        },
    }
}

/// Run the full manifest-vs-engine comparison for one scenario.
fn verify_scenario(scenario: &Scenario) {
    let stem = scenario.config.stem();
    let doc = parse_document(&scenario.document)
        .unwrap_or_else(|e| panic!("[{stem}] generated document must parse: {e}"));
    assert_eq!(doc.specs.len(), scenario.manifest.spec_count, "[{stem}] spec count");
    let u = &doc.universe;
    let spec = |name: &str| -> &Specification {
        doc.spec(name).unwrap_or_else(|| panic!("[{stem}] missing spec `{name}`"))
    };

    // --- Refinement verdicts, through the parallel batch path. ---
    let pairs: Vec<(&Specification, &Specification)> = scenario
        .manifest
        .refinements
        .iter()
        .map(|r| (spec(&r.concrete), spec(&r.abstract_)))
        .collect();
    let cache = DfaCache::new();
    let verdicts = check_refinement_batch(&cache, &pairs, DEPTH);
    for (entry, got) in scenario.manifest.refinements.iter().zip(&verdicts) {
        assert_verdict(scenario, &entry.concrete, &entry.abstract_, &entry.expect, got, u);
    }
    // A deterministic subsample re-checked on the eager pipeline of
    // [`oracle`]: the claim is manifest == engine == reference.
    for (entry, batch) in
        scenario.manifest.refinements.iter().zip(&verdicts).step_by(7.max(verdicts.len() / 4))
    {
        let eager = eager_check_refinement(spec(&entry.concrete), spec(&entry.abstract_), DEPTH);
        assert_eq!(&eager, batch, "[{stem}] eager vs batch disagree on {}", entry.concrete);
    }

    // --- Composition verdicts. ---
    for c in &scenario.manifest.compositions {
        let (l, r) = (spec(&c.left), spec(&c.right));
        assert_eq!(
            is_composable(l, r),
            c.composable,
            "[{stem}] Def. 10 on {} ‖ {}",
            c.left,
            c.right
        );
        if c.composable {
            let composed =
                compose(l, r).unwrap_or_else(|e| panic!("[{stem}] manifest says composable: {e}"));
            assert_eq!(
                observable_deadlock(&composed),
                c.deadlock,
                "[{stem}] observable deadlock of {}",
                c.name
            );
            assert!(c.offending.is_empty(), "[{stem}] composable entries list no offenders");
        } else {
            assert!(compose(l, r).is_err(), "[{stem}] compose must refuse {}", c.name);
            // The offending internal events must be exactly the
            // manifest's, in both Def.-10 directions.
            let mut offending: Vec<String> = l
                .alphabet()
                .intersect(&internal_of_set(u, r.objects()))
                .granules()
                .chain(internal_of_set(u, l.objects()).intersect(r.alphabet()).granules())
                .map(|g| g.display(u))
                .collect();
            offending.sort();
            offending.dedup();
            assert_eq!(offending, c.offending, "[{stem}] offending events of {}", c.name);
        }
    }

    // --- Lint: the document must produce *exactly* the manifest's
    // diagnostics — same total, same per-(code, subject) counts. ---
    let report = lint_document_cached(
        &format!("{stem}.pos"),
        &scenario.document,
        &LintConfig::default(),
        &cache,
    );
    let mut expected: BTreeMap<(String, String), usize> = BTreeMap::new();
    for site in &scenario.manifest.lint {
        *expected.entry((site.code.to_string(), site.subject.clone())).or_default() += 1;
    }
    assert_eq!(
        report.diagnostics.len(),
        scenario.manifest.lint.len(),
        "[{stem}] diagnostic count; got: {:?}",
        report
            .diagnostics
            .iter()
            .map(|d| format!("{:?}: {}", d.code, d.message))
            .collect::<Vec<_>>()
    );
    for ((code, subject), count) in &expected {
        let matching = report
            .diagnostics
            .iter()
            .filter(|d| {
                format!("{:?}", d.code) == *code && d.message.contains(&format!("`{subject}`"))
            })
            .count();
        assert_eq!(matching, *count, "[{stem}] expected {count}× {code} mentioning `{subject}`");
    }
}

/// The acceptance matrix: ≥3 seeds × all 4 families × N ∈ {10, 100}.
#[test]
fn oracle_matrix_small_and_medium() {
    for seed in [1, 2, 3] {
        for family in Family::ALL {
            for n in [10, 100] {
                let s = generate(&GenConfig::new(family, n, seed)).expect("valid config");
                verify_scenario(&s);
            }
        }
    }
}

/// The acceptance matrix at three orders of magnitude: N = 1000 for
/// every family and the same three seeds.
#[test]
fn oracle_matrix_large() {
    for seed in [1, 2, 3] {
        for family in Family::ALL {
            let s = generate(&GenConfig::new(family, 1000, seed)).expect("valid config");
            verify_scenario(&s);
        }
    }
}

/// `check_all_pairs` agrees with the per-pair verdicts on a full
/// document matrix, and every diagonal entry holds (reflexivity of
/// Def. 2 on regular specifications).
#[test]
fn all_pairs_matrix_agrees_with_manifest() {
    let s = generate(&GenConfig::new(Family::Ring, 10, 2)).expect("valid config");
    let doc = parse_document(&s.document).expect("parses");
    let cache = DfaCache::new();
    let matrix = check_all_pairs(&cache, &doc.specs, DEPTH);
    let index: BTreeMap<&str, usize> =
        doc.specs.iter().enumerate().map(|(i, sp)| (sp.name(), i)).collect();
    for (i, row) in matrix.iter().enumerate() {
        assert_eq!(row[i], Verdict::Holds { exact: true }, "diagonal {}", doc.specs[i].name());
    }
    for entry in &s.manifest.refinements {
        let (i, j) = (index[entry.concrete.as_str()], index[entry.abstract_.as_str()]);
        assert_verdict(
            &s,
            &entry.concrete,
            &entry.abstract_,
            &entry.expect,
            &matrix[i][j],
            &doc.universe,
        );
    }
}

/// Metamorphic: a rename-consistent alphabet preserves every verdict.
/// Both scenarios are verified against the engine, and their manifests
/// must agree entry-for-entry modulo the salt.
#[test]
fn renaming_preserves_verdicts() {
    for (family, n, seed) in [(Family::Ring, 24, 4), (Family::Gossip, 12, 9), (Family::Star, 30, 5)]
    {
        let base = generate(&GenConfig::new(family, n, seed)).expect("valid config");
        let salted =
            generate(&GenConfig::new(family, n, seed).with_salt("_r1")).expect("valid config");
        verify_scenario(&base);
        verify_scenario(&salted);
        assert_eq!(base.manifest.refinements.len(), salted.manifest.refinements.len());
        for (b, s) in base.manifest.refinements.iter().zip(&salted.manifest.refinements) {
            assert_eq!(b.expect.tag(), s.expect.tag(), "verdict changed under rename");
            assert_eq!(b.mutation, s.mutation);
            assert_eq!(format!("{}_r1", b.concrete), s.concrete);
        }
        for (b, s) in base.manifest.compositions.iter().zip(&salted.manifest.compositions) {
            assert_eq!(b.composable, s.composable);
            assert_eq!(b.deadlock, s.deadlock);
        }
        let codes = |m: &pospec_gen::Manifest| {
            let mut v: Vec<&str> = m.lint.iter().map(|s| s.code).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(codes(&base.manifest), codes(&salted.manifest));
    }
}

/// Metamorphic: dropping the offending granules from a non-composable
/// pair flips `P020` off — and flips the donor refinement from holds to
/// a condition-2 failure with `P021` + vacuity `P106`.  (The reverse
/// reading — dropping a granule from a *composable* pair making it
/// non-composable — is impossible under Def. 10: composability is
/// preserved by shrinking alphabets.  See DESIGN.md.)
#[test]
fn dropping_offending_granules_flips_p020() {
    let config = (0..64)
        .map(|seed| GenConfig::new(Family::Ring, 16, seed))
        .find(|c| generate(c).expect("valid").manifest.lint_count("P020") > 0)
        .expect("some seed places a grab mutation");
    let base = generate(&config).expect("valid config");
    let dropped = generate(&config.clone().with_drop_offending(true)).expect("valid config");
    assert!(base.manifest.lint_count("P020") > 0);
    assert_eq!(dropped.manifest.lint_count("P020"), 0);
    assert_eq!(dropped.manifest.lint_count("P106"), base.manifest.lint_count("P020"));
    // Both sides' manifests must still match the engine exactly — this
    // is where the flip is actually *checked*, not just predicted.
    verify_scenario(&base);
    verify_scenario(&dropped);
}

/// And the dual flip on refinement: dropping a granule from the
/// alphabet of a holds-refinement concrete (the `drop_granule`
/// mutation) must turn the verdict into a condition-2 failure that
/// lint flags as `P021` — asserted against the engine by generating at
/// full mutation density and verifying.
#[test]
fn full_density_documents_still_agree() {
    for family in [Family::Pipeline, Family::Star] {
        let s = generate(&GenConfig::new(family, 12, 8).with_mutation_permille(1000))
            .expect("valid config");
        assert!(
            s.manifest.refinements.iter().any(|r| !r.expect.holds()),
            "full density must break something"
        );
        verify_scenario(&s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random corner of the configuration space: any family, small-to-
    /// medium N, any mutation density, any seed — manifest == engine.
    #[test]
    fn oracle_holds_on_random_configs(
        seed in 0u64..10_000,
        family_idx in 0usize..4,
        n in 4usize..40,
        permille in 0u32..1001,
    ) {
        let family = Family::ALL[family_idx];
        let config = GenConfig::new(family, n.max(family.min_objects()), seed)
            .with_mutation_permille(permille);
        let s = generate(&config).expect("valid config");
        verify_scenario(&s);
    }
}

//! Known answers: the paper's verdict table and the comparisons of
//! checker, lint, LSP and service output against `pospec-gen` manifests.

use pospec_alphabet::{display_trace, Universe};
use pospec_core::{FailedCondition, Verdict};
use pospec_gen::{ExpectRefine, Manifest};
use pospec_json::Value;
use std::collections::BTreeMap;

/// Spec order of [`PAPER_VERDICTS`] (that of `Paper::interface_specs`).
pub const PAPER_SPECS: [&str; 6] = ["Read", "Read2", "Write", "RW", "WriteAcc", "RW2"];

/// `PAPER_VERDICTS[i][j]` is the verdict of `PAPER_SPECS[i] ⊑ PAPER_SPECS[j]`,
/// in the form [`verdict_code`] renders.  Derived once from the eager
/// `check_refinement`; identical at predicate depths 3, 4 and 5.  14 of
/// the 36 refinements hold.
pub const PAPER_VERDICTS: [[&str; 6]; 6] = [
    [
        "holds",
        "fails-alphabet",
        "fails-alphabet",
        "fails-alphabet",
        "fails-alphabet",
        "fails-alphabet",
    ],
    [
        "holds-bounded",
        "holds-bounded",
        "fails-alphabet",
        "fails-alphabet",
        "fails-alphabet",
        "fails-alphabet",
    ],
    [
        "fails-alphabet",
        "fails-alphabet",
        "holds",
        "fails-alphabet",
        "fails-traces ⟨Objects!w0,o,OW⟩",
        "fails-alphabet",
    ],
    [
        "holds-bounded",
        "fails-traces ⟨c,o,OW⟩ ⟨c,o,R(Data!w0)⟩",
        "holds-bounded",
        "holds-bounded",
        "fails-traces ⟨Objects!w0,o,OW⟩",
        "fails-traces ⟨Objects!w0,o,OR⟩",
    ],
    ["fails-alphabet", "fails-alphabet", "holds", "fails-alphabet", "holds", "fails-alphabet"],
    ["holds", "fails-traces ⟨c,o,OW⟩ ⟨c,o,R(Data!w0)⟩", "holds", "holds-bounded", "holds", "holds"],
];

/// A verdict as one comparable string, counterexample included.
pub fn verdict_code(v: &Verdict, u: &Universe) -> String {
    match v {
        Verdict::Holds { exact: true } => "holds".into(),
        Verdict::Holds { exact: false } => "holds-bounded".into(),
        Verdict::Fails { reason: FailedCondition::Objects, .. } => "fails-objects".into(),
        Verdict::Fails { reason: FailedCondition::Alphabet, .. } => "fails-alphabet".into(),
        Verdict::Fails { reason: FailedCondition::Traces, counterexample } => {
            let cex = counterexample.as_ref().map(|t| display_trace(u, t).to_string());
            format!("fails-traces {}", cex.unwrap_or_default())
        }
    }
}

/// The manifest expectation in [`verdict_code`] form.  Every generated
/// trace set is regular, so a holding verdict must be exact.
pub fn expect_code(e: &ExpectRefine) -> String {
    match e {
        ExpectRefine::Holds => "holds".into(),
        ExpectRefine::FailsObjects => "fails-objects".into(),
        ExpectRefine::FailsAlphabet => "fails-alphabet".into(),
        ExpectRefine::FailsTraces { counterexample } => {
            format!("fails-traces {}", counterexample.join(" "))
        }
    }
}

/// A `check` response's `result` object in [`verdict_code`] form.
pub fn response_code(result: &Value) -> String {
    let holds = result.get("holds").and_then(Value::as_bool);
    let exact = result.get("exact").and_then(Value::as_bool);
    match (holds, exact) {
        (Some(true), Some(true)) => "holds".into(),
        (Some(true), _) => "holds-bounded".into(),
        _ => match result.get("reason").and_then(Value::as_str) {
            Some("traces") => format!(
                "fails-traces {}",
                result.get("counterexample").and_then(Value::as_str).unwrap_or("")
            ),
            Some(reason) => format!("fails-{reason}"),
            None => "malformed".into(),
        },
    }
}

/// Do these diagnostics, as `(code, message)` pairs, match the
/// manifest's lint sites exactly: same total, and for every site the
/// same number of diagnostics with that code naming that subject?
pub fn lint_matches<'a>(m: &Manifest, diags: impl IntoIterator<Item = (&'a str, &'a str)>) -> bool {
    let diags: Vec<(&str, &str)> = diags.into_iter().collect();
    if diags.len() != m.lint.len() {
        return false;
    }
    let mut expected: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for site in &m.lint {
        *expected.entry((site.code, site.subject.as_str())).or_default() += 1;
    }
    expected.iter().all(|((code, subject), count)| {
        let quoted = format!("`{subject}`");
        diags.iter().filter(|(c, msg)| c == code && msg.contains(&quoted)).count() == *count
    })
}

/// `(code, message)` pairs of a JSON diagnostics array (the shape both
/// `pospec lint --json` and LSP `publishDiagnostics` use).
pub fn json_diagnostics(diags: &Value) -> Vec<(&str, &str)> {
    diags
        .as_arr()
        .unwrap_or(&[])
        .iter()
        .map(|d| {
            (
                d.get("code").and_then(Value::as_str).unwrap_or(""),
                d.get("message").and_then(Value::as_str).unwrap_or(""),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pospec_bench::paper::Paper;
    use pospec_core::check_refinement;

    #[test]
    fn paper_table_matches_the_eager_checker() {
        let p = Paper::new();
        let specs = p.interface_specs();
        let names: Vec<&str> = specs.iter().map(|s| s.name()).collect();
        assert_eq!(names, PAPER_SPECS);
        for (i, c) in specs.iter().enumerate() {
            for (j, a) in specs.iter().enumerate() {
                assert_eq!(verdict_code(&check_refinement(c, a, 3), &p.u), PAPER_VERDICTS[i][j]);
            }
        }
        let holds = PAPER_VERDICTS.iter().flatten().filter(|v| v.starts_with("holds")).count();
        assert_eq!(holds, 14);
    }

    #[test]
    fn response_codes_mirror_verdict_codes() {
        let r =
            pospec_json::parse(r#"{"holds":false,"reason":"traces","counterexample":"⟨a,b,f⟩"}"#)
                .expect("json");
        assert_eq!(response_code(&r), "fails-traces ⟨a,b,f⟩");
        let r = pospec_json::parse(r#"{"holds":true,"exact":true}"#).expect("json");
        assert_eq!(response_code(&r), "holds");
    }
}

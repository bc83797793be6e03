//! SCALE — the known-answer scale campaign of EXPERIMENTS.md.
//!
//! The paper has no performance evaluation, so this campaign checks the
//! engine itself on generated ring networks of several sizes: every
//! verdict must equal the expectation the generator fixed at
//! construction time, the warm pass through the same cache must return
//! the same verdicts, and it must hit the cache.  The wall-clock and
//! peak-RSS columns are reported, not gated.

use pospec_core::Specification;

/// Depth used by the SCALE campaign, matching the generated-oracle
/// suite and the service default.
pub const SCALE_DEPTH: usize = 6;

/// One measured point of the SCALE campaign: a generated ring network
/// of `objects` objects, parsed and batch-checked against its
/// construction-time manifest, cold then warm through one cache.
pub struct ScalePoint {
    /// Network size (objects in the ring).
    pub objects: usize,
    /// Specifications in the generated document.
    pub specs: usize,
    /// Refinement pairs checked (the manifest's entries).
    pub pairs: usize,
    /// Wall time generating the document + manifest.
    pub generate_ms: f64,
    /// Wall time parsing and elaborating the document.
    pub parse_ms: f64,
    /// Wall time of the cold batch check (empty cache).
    pub cold_ms: f64,
    /// Wall time of the warm re-check (same cache).
    pub warm_ms: f64,
    /// Cache hits scored by the warm pass alone.
    pub warm_hits: u64,
    /// Peak resident set (`VmHWM`) reached during the point, in KiB; 0
    /// where `/proc/self/status` is unavailable.  The mark is reset before
    /// each point where `/proc/self/clear_refs` allows it; elsewhere it
    /// is the process-lifetime peak.
    pub peak_rss_kb: u64,
    /// Every cold verdict equalled the manifest's expectation, and every
    /// warm verdict equalled the cold one: reason, exactness and
    /// counterexample.
    pub verdicts_agree: bool,
}

impl ScalePoint {
    /// JSON record for the `"scale"` key of `paper_report.json`.
    pub fn to_json(&self) -> pospec_json::Value {
        pospec_json::ObjBuilder::new()
            .field("objects", self.objects)
            .field("specs", self.specs)
            .field("pairs", self.pairs)
            .field("generate_ms", self.generate_ms)
            .field("parse_ms", self.parse_ms)
            .field("cold_ms", self.cold_ms)
            .field("warm_ms", self.warm_ms)
            .field("warm_hits", self.warm_hits)
            .field("peak_rss_kb", self.peak_rss_kb)
            .field("verdicts_agree", self.verdicts_agree)
            .build()
    }
}

/// The full campaign: one [`ScalePoint`] per requested size.
pub struct ScaleCampaign {
    /// Points in input order.
    pub points: Vec<ScalePoint>,
}

impl ScaleCampaign {
    /// The campaign's correctness gates: every point's verdicts agree
    /// with its manifest and the warm pass actually hit the cache.
    pub fn gates_pass(&self) -> bool {
        !self.points.is_empty() && self.points.iter().all(|p| p.verdicts_agree && p.warm_hits > 0)
    }

    /// The `"scale"` object of `paper_report.json`.
    pub fn to_json(&self) -> pospec_json::Value {
        pospec_json::ObjBuilder::new()
            .field("points", self.points.iter().map(ScalePoint::to_json).collect::<Vec<_>>())
            .field("gates_pass", self.gates_pass())
            .build()
    }

    /// One-line summary per point, for logs and the paper report.
    pub fn summary(&self) -> String {
        self.points
            .iter()
            .map(|p| {
                format!(
                    "N={}: {} pairs cold {:.1}ms / warm {:.1}ms ({} hits), peak {} KiB, agree: {}",
                    p.objects,
                    p.pairs,
                    p.cold_ms,
                    p.warm_ms,
                    p.warm_hits,
                    p.peak_rss_kb,
                    p.verdicts_agree
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    }
}

fn expectation_matches(expect: &pospec_gen::ExpectRefine, v: &pospec_core::Verdict) -> bool {
    use pospec_core::{FailedCondition, Verdict};
    use pospec_gen::ExpectRefine;
    matches!(
        (expect, v),
        (ExpectRefine::Holds, Verdict::Holds { .. })
            | (ExpectRefine::FailsObjects, Verdict::Fails { reason: FailedCondition::Objects, .. })
            | (
                ExpectRefine::FailsAlphabet,
                Verdict::Fails { reason: FailedCondition::Alphabet, .. }
            )
            | (
                ExpectRefine::FailsTraces { .. },
                Verdict::Fails { reason: FailedCondition::Traces, .. }
            )
    )
}

/// Reset `VmHWM` to the current resident set, so the next
/// [`peak_rss_kb`] reads the peak since this call.  A no-op where
/// `/proc/self/clear_refs` is unavailable.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run the SCALE campaign: for each size, generate a seeded ring
/// network with its known-answer manifest, parse it, and batch-check
/// every manifest pair cold then warm through one fresh cache, checking
/// the cold verdicts against the construction-time expectations and the
/// warm verdicts against the cold ones.
pub fn run_scale(sizes: &[usize]) -> ScaleCampaign {
    use pospec_core::{check_refinement_batch, DfaCache};
    use std::time::Instant;

    let mut points = Vec::new();
    for &n in sizes {
        reset_peak_rss();
        let config = pospec_gen::GenConfig::new(pospec_gen::Family::Ring, n, 8);
        let t0 = Instant::now();
        let scenario = pospec_gen::generate(&config).expect("valid config generates");
        let generate_ms = ms(t0.elapsed());

        let t1 = Instant::now();
        let doc =
            pospec_lang::parse_document(&scenario.document).expect("generated documents parse");
        let parse_ms = ms(t1.elapsed());

        let pairs: Vec<(&Specification, &Specification)> = scenario
            .manifest
            .refinements
            .iter()
            .map(|e| {
                (
                    doc.spec(&e.concrete).expect("manifest names a declared spec"),
                    doc.spec(&e.abstract_).expect("manifest names a declared spec"),
                )
            })
            .collect();

        let cache = DfaCache::new();
        let t2 = Instant::now();
        let cold = check_refinement_batch(&cache, &pairs, SCALE_DEPTH);
        let cold_ms = ms(t2.elapsed());
        let hits_after_cold = cache.stats().hits();
        let t3 = Instant::now();
        let warm = check_refinement_batch(&cache, &pairs, SCALE_DEPTH);
        let warm_ms = ms(t3.elapsed());
        let warm_hits = cache.stats().hits().saturating_sub(hits_after_cold);

        let verdicts_agree = scenario
            .manifest
            .refinements
            .iter()
            .zip(cold.iter().zip(&warm))
            .all(|(e, (c, w))| expectation_matches(&e.expect, c) && c == w);

        points.push(ScalePoint {
            objects: n,
            specs: scenario.manifest.spec_count,
            pairs: pairs.len(),
            generate_ms,
            parse_ms,
            cold_ms,
            warm_ms,
            warm_hits,
            peak_rss_kb: peak_rss_kb(),
            verdicts_agree,
        });
    }
    ScaleCampaign { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_campaign_gates_pass_at_n_10_100_1000() {
        let sizes = [10, 100, 1000];
        let campaign = run_scale(&sizes);
        assert_eq!(campaign.points.len(), sizes.len());
        for (p, n) in campaign.points.iter().zip(sizes) {
            assert_eq!(p.objects, n);
            assert!(p.pairs >= n, "N={n}: a ring has at least one pair per edge");
            assert!(p.verdicts_agree, "N={n}: checker must match the manifest, cold and warm");
            assert!(p.warm_hits > 0, "N={n}: warm pass must hit the cache");
        }
        assert!(campaign.gates_pass());
        let json = campaign.to_json();
        assert_eq!(json.get("gates_pass").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(json.get("points").and_then(|v| v.as_arr()).map(<[_]>::len), Some(sizes.len()));
    }
}

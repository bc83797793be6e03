//! Parameterized inputs for the performance sweeps.
//!
//! The paper has no performance evaluation, so these sweeps characterize
//! the *engine itself*: how the exact decision procedures scale with the
//! size of the finitization (witness count), the size of the protocol
//! (regex blocks), and the number of objects in the granule algebra.

use pospec_alphabet::{EventPattern, EventSet, Universe};
use pospec_core::{Specification, TraceSet};
use pospec_regex::{Re, Template, VarId};
use pospec_trace::{ClassId, MethodId, ObjectId, Trace};
use std::sync::Arc;

/// A scalable world: one server, an environment class with `witnesses`
/// inhabitants, and `n_methods` parameterless methods.
pub struct ScaledWorld {
    /// The frozen universe.
    pub u: Arc<Universe>,
    /// The server object.
    pub server: ObjectId,
    /// The environment class.
    pub env: ClassId,
    /// The declared methods.
    pub methods: Vec<MethodId>,
}

impl ScaledWorld {
    /// Build with the given finitization width and method count.
    ///
    /// The universe shape is shared with the scenario generator:
    /// [`pospec_gen::world::build_world`] is the single source of truth
    /// for the `Env`-class/objects/methods layout, so the bench sweeps
    /// and the generated known-answer networks measure the same worlds.
    pub fn new(witnesses: usize, n_methods: usize) -> ScaledWorld {
        let method_names: Vec<String> = (0..n_methods).map(|i| format!("m{i}")).collect();
        let method_refs: Vec<&str> = method_names.iter().map(String::as_str).collect();
        let w = pospec_gen::world::build_world(witnesses, &["server"], &method_refs)
            .expect("canonical world builds");
        ScaledWorld { u: w.u, server: w.objects[0], env: w.env, methods: w.methods }
    }

    /// The alphabet of all declared methods called on the server.
    pub fn alphabet(&self) -> EventSet {
        self.methods.iter().fold(EventSet::empty(&self.u), |acc, &m| {
            acc.union(&EventPattern::call(self.env, self.server, m).to_set(&self.u))
        })
    }

    /// A session protocol with `blocks` sequential bracketed phases:
    /// `[m0 m1* m0 | m2 m3* m2 | …]*` with per-iteration caller binding.
    /// Larger `blocks` ⇒ larger NFA ⇒ larger DFA.
    pub fn protocol(&self, blocks: usize) -> Specification {
        let x = VarId(0);
        let alts: Vec<Re> = (0..blocks)
            .map(|i| {
                let open = self.methods[(2 * i) % self.methods.len()];
                let body = self.methods[(2 * i + 1) % self.methods.len()];
                Re::seq([
                    Re::lit(Template::call(x, self.server, open)),
                    Re::lit(Template::call(x, self.server, body)).star(),
                    Re::lit(Template::call(x, self.server, open)),
                ])
            })
            .collect();
        let re = Re::alt(alts).bind(x, self.env).star();
        Specification::new(
            format!("Protocol{blocks}"),
            [self.server],
            self.alphabet(),
            TraceSet::prs(re),
        )
        .unwrap()
    }

    /// A strictly tighter variant of [`ScaledWorld::protocol`] — the same
    /// protocol with every starred body bounded by a counting predicate.
    pub fn tightened(&self, blocks: usize, max_len: usize) -> Specification {
        let base = self.protocol(blocks);
        let bound = TraceSet::predicate("bounded length", move |h: &Trace| h.len() <= max_len);
        Specification::new(
            format!("Tight{blocks}"),
            [self.server],
            base.alphabet().clone(),
            TraceSet::conj([base.trace_set().clone(), bound]),
        )
        .unwrap()
    }

    /// A chaotic client of the server over the same alphabet restricted
    /// to one method (for composition sweeps).
    pub fn client_view(&self, method_idx: usize) -> Specification {
        let m = self.methods[method_idx % self.methods.len()];
        Specification::new(
            format!("View{method_idx}"),
            [self.server],
            EventPattern::call(self.env, self.server, m).to_set(&self.u),
            TraceSet::Universal,
        )
        .unwrap()
    }
}

/// The ablation baseline of DESIGN.md §6.1: a naive pattern-list event
/// set supporting membership only.
///
/// Union is concatenation; difference, subset, emptiness-of-intersection
/// and infinity are **not computable** on this representation without
/// enumerating events — which is exactly why the granule algebra exists.
/// The `algebra/ablation-membership` bench compares the two on the one
/// operation both support.
pub struct NaivePatternSet {
    u: Arc<Universe>,
    patterns: Vec<pospec_alphabet::EventPattern>,
}

impl NaivePatternSet {
    /// Build from patterns.
    pub fn new(
        u: &Arc<Universe>,
        patterns: impl IntoIterator<Item = pospec_alphabet::EventPattern>,
    ) -> Self {
        NaivePatternSet { u: Arc::clone(u), patterns: patterns.into_iter().collect() }
    }

    fn obj_matches(&self, spec: pospec_alphabet::ObjSpec, o: pospec_trace::ObjectId) -> bool {
        match spec {
            pospec_alphabet::ObjSpec::Id(x) => x == o,
            pospec_alphabet::ObjSpec::Class(c) => self.u.class_of_object(o) == Some(c),
            pospec_alphabet::ObjSpec::Any => true,
        }
    }

    /// Membership of a concrete event (linear in the pattern count).
    pub fn contains(&self, e: &pospec_trace::Event) -> bool {
        self.patterns.iter().any(|p| {
            self.obj_matches(p.caller, e.caller)
                && self.obj_matches(p.callee, e.callee)
                && match p.method {
                    None => true,
                    Some(m) => {
                        e.method == m
                            && match p.arg {
                                pospec_alphabet::ArgSpec::Auto => true,
                                pospec_alphabet::ArgSpec::None => e.arg.is_none(),
                                pospec_alphabet::ArgSpec::Value(d) => e.arg.data() == Some(d),
                            }
                    }
                }
        })
    }

    /// Union (concatenation — duplicates retained, the naive trade-off).
    pub fn union(&mut self, other: impl IntoIterator<Item = pospec_alphabet::EventPattern>) {
        self.patterns.extend(other);
    }

    /// Pattern count.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Is the pattern list empty?  (Note: an *empty denotation* is not
    /// detectable in general — another ablation point.)
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }
}

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
    /// Every checker verdict equalled the manifest's expectation, cold
    /// and warm.
    pub verdicts_agree: bool,
}

impl ScalePoint {
    /// JSON record for `BENCH_8.json` / `paper_report.json`.
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

    /// JSON document for `BENCH_8.json`.
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
/// every manifest pair cold then warm through one fresh cache,
/// asserting the verdicts equal the construction-time expectations.
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
            .all(|(e, (c, w))| expectation_matches(&e.expect, c) && c.holds() == w.holds());

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
    use pospec_core::check_refinement;

    #[test]
    fn scaled_world_builds_at_several_sizes() {
        for (w, m) in [(1, 2), (2, 4), (3, 6)] {
            let s = ScaledWorld::new(w, m);
            assert_eq!(s.u.class_witnesses(s.env).count(), w);
            assert_eq!(s.methods.len(), m);
            assert!(s.alphabet().is_infinite());
        }
    }

    #[test]
    fn protocols_are_well_formed_and_refinable() {
        let s = ScaledWorld::new(2, 6);
        let p = s.protocol(2);
        assert!(check_refinement(&p, &p, 4).holds());
        let t = s.tightened(2, 4);
        assert!(check_refinement(&t, &p, 4).holds(), "tightened refines base");
    }

    #[test]
    fn scale_campaign_gates_pass_at_a_small_size() {
        let campaign = run_scale(&[6]);
        assert_eq!(campaign.points.len(), 1);
        let p = &campaign.points[0];
        assert_eq!(p.objects, 6);
        assert!(p.pairs >= 6, "a 6-ring has at least one pair per edge");
        assert!(p.verdicts_agree, "checker must match the manifest");
        assert!(p.warm_hits > 0, "warm pass must hit the cache");
        assert!(campaign.gates_pass());
        let json = campaign.to_json();
        assert_eq!(json.get("gates_pass").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(json.get("points").and_then(|v| v.as_arr()).map(<[_]>::len), Some(1));
    }

    #[test]
    fn naive_pattern_set_membership_agrees_with_granules() {
        let s = ScaledWorld::new(2, 4);
        let patterns: Vec<pospec_alphabet::EventPattern> = s
            .methods
            .iter()
            .map(|&m| pospec_alphabet::EventPattern::call(s.env, s.server, m))
            .collect();
        let granule_set = s.alphabet();
        let naive = NaivePatternSet::new(&s.u, patterns);
        assert_eq!(naive.len(), 4);
        assert!(!naive.is_empty());
        for e in EventSet::universal(&s.u).enumerate_concrete() {
            assert_eq!(
                naive.contains(&e),
                granule_set.contains(&e),
                "membership disagreement on {e}"
            );
        }
    }
}

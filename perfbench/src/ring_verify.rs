//! `ring-verify`: whole-document verification of generated rings.
//!
//! Closed loop, one caller, in-process.  Set-up generates a pool of
//! `pospec-gen` rings (N = 1000, 250‰ mutations, seeds S, S+1, …).  One
//! operation takes the next document and runs `parse_document`, then
//! `lint_document_cached`, then `check_refinement_batch` over every
//! manifest pair, all through one fresh `DfaCache`.  The automata are
//! tiny, so the front end (parse, elaboration, lint) dominates.

use crate::known::{expect_code, lint_matches, verdict_code};
use crate::measure::{mean, median, ms, peak_rss_kb, ratio, span_total_ms, timed, Tracer};
use crate::replay::{document_replays, manifest_pairs};
use crate::report::{CoreCounts, Outcome};
use crate::Ctx;
use pospec_core::{check_refinement_batch, DfaCache, Verdict};
use pospec_gen::{generate, Family, GenConfig, Scenario};
use pospec_lang::{parse_document, Document};
use pospec_lint::{lint_document_cached, time_deadlock_passes, LintConfig, LintReport};
use std::time::Instant;

const N: usize = 1000;
/// Documents in the pool; per-document cost varies with the mutations
/// placed, so each run averages over this many.
pub const POOL: u64 = 8;
/// Every generated trace set is regular, so verdicts do not depend on
/// the predicate depth.
const DEPTH: usize = 6;

fn pool(ctx: &Ctx, n: usize, size: u64) -> Vec<Scenario> {
    (0..size)
        .map(|i| {
            generate(&GenConfig::new(Family::Ring, n, ctx.seed.wrapping_add(i)))
                .expect("ring configurations are valid")
        })
        .collect()
}

fn verify(
    s: &Scenario,
    doc: &Document,
    report: &LintReport,
    verdicts: &[Verdict],
    out: &mut Outcome,
) {
    let stem = s.config.stem();
    if doc.specs.len() != s.manifest.spec_count {
        out.wrong.push(format!(
            "{stem}: {} specs, manifest {}",
            doc.specs.len(),
            s.manifest.spec_count
        ));
    }
    for (entry, v) in s.manifest.refinements.iter().zip(verdicts) {
        let (got, want) = (verdict_code(v, &doc.universe), expect_code(&entry.expect));
        if got != want {
            out.wrong
                .push(format!("{stem}: {} ⊑ {}: {got} != {want}", entry.concrete, entry.abstract_));
        }
    }
    let diags = report.diagnostics.iter().map(|d| (d.code.as_str(), d.message.as_str()));
    if !lint_matches(&s.manifest, diags) {
        out.wrong.push(format!("{stem}: lint diagnostics differ from the manifest"));
    }
}

/// One operation, then the check of its output; returns when the
/// operation ended and its latency in ms.  `None` when the document does
/// not parse or lacks a manifest spec.
fn verify_document(
    s: &Scenario,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Option<(Document, DfaCache, LintReport, Instant, f64)> {
    let t = Instant::now();
    let (doc, report, cache, verdicts) = tr.span("op", |tr| {
        let doc = tr.span("lang.parse_document", |_| parse_document(&s.document)).ok()?;
        let cache = DfaCache::new();
        let report = tr.span("lint.lint_document_cached", |_| {
            lint_document_cached("ring.pos", &s.document, &LintConfig::default(), &cache)
        });
        let pairs = manifest_pairs(s, &doc)?;
        let verdicts = tr
            .span("core.check_refinement_batch", |_| check_refinement_batch(&cache, &pairs, DEPTH));
        Some((doc, report, cache, verdicts))
    })?;
    let end = Instant::now();
    verify(s, &doc, &report, &verdicts, out);
    Some((doc, cache, report, end, ms(end - t)))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (n, size) = if ctx.smoke { (10, 2) } else { (N, POOL) };
    let mut out = Outcome::default();
    let mut off = Tracer::new(ctx.epoch, false);

    // Set-up: generate the pool and verify its first document.
    let mut docs = Vec::new();
    let mut gen_share = Vec::new();
    for _ in 0..ctx.setup_reps(3) {
        let t = Instant::now();
        let (d, gen) = timed(|| pool(ctx, n, size));
        if verify_document(&d[0], &mut off, &mut out).is_none() {
            out.attempted += 1;
            out.failed += 1;
        }
        let setup = t.elapsed();
        out.setup_s.push(setup.as_secs_f64());
        gen_share.push(100.0 * ratio(ms(gen), ms(setup)));
        out.detail.insert("gen.generate_ms", ms(gen));
        docs = d;
    }

    let mut tr = Tracer::new(ctx.epoch, false);
    let mut core = CoreCounts::default();
    let mut diags = Vec::new();
    let mut last = None;
    let budget = ctx.budget(2);
    out.loop_start = Some(Instant::now());
    let mut i = 0;
    while budget.more(i) {
        tr.enabled = ctx.trace_op(i);
        tr.set_op(i + 1);
        let s = &docs[(i % size) as usize];
        match verify_document(s, &mut tr, &mut out) {
            Some((doc, cache, report, end, latency)) => {
                out.record_op(end, latency, tr.enabled);
                core.add(&cache.stats());
                diags.push(report.diagnostics.len() as f64);
                last = Some((s, doc, cache));
            }
            None => out.failed += 1,
        }
        i += 1;
        if i == ctx.rss_after {
            out.peak_rss_kb = peak_rss_kb(None);
        }
    }
    out.attempted += i;
    if out.peak_rss_kb == 0 {
        out.peak_rss_kb = peak_rss_kb(None);
    }

    if let (true, Some((s, doc, cache))) = (ctx.traced, last) {
        let op_ms = span_total_ms(tr.spans(), "op");
        let parse_ms = span_total_ms(tr.spans(), "lang.parse_document");
        let lint_ms = span_total_ms(tr.spans(), "lint.lint_document_cached");
        let traced_ops = out.latencies(true).len() as f64;
        tr.enabled = true;
        tr.set_op(0);
        document_replays(&mut tr, s, &doc, DEPTH, &cache, &mut out);
        if let Some(t) =
            tr.span("lint.time_deadlock_passes", |_| time_deadlock_passes(&s.document, DEPTH))
        {
            out.detail.insert("lint.waitfor_ms", t.waitfor_nanos as f64 / 1e6);
            out.detail.insert("lint.reach_ms", t.product_nanos as f64 / 1e6);
        }
        core.fill(&mut out);
        out.set("gen.setup_share_pct", median(&gen_share));
        out.set("lang.doc_kb", s.document.len() as f64 / 1024.0);
        out.set("lang.elaborations_per_op", doc.specs.len() as f64);
        out.set("lang.spec_reuses_per_op", 0.0);
        out.set("lang.share_pct", 100.0 * ratio(parse_ms, op_ms));
        out.set("lint.diagnostics", mean(&diags));
        out.set("lint.share_pct", 100.0 * ratio(lint_ms, op_ms));
        out.detail.insert("lang.parse_ms", ratio(parse_ms, traced_ops));
        out.detail.insert("lint.total_ms", ratio(lint_ms, traced_ops));
    }
    out.spans = tr.into_spans();
    out
}

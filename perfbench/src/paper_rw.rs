//! `paper-rw`: the 36-pair refinement matrix of the paper's six
//! interface specifications (Examples 1–6), cold each time.
//!
//! Closed loop, one caller, in-process.  One operation derives fresh
//! specifications, takes a fresh `DfaCache` and checks every ordered pair
//! with `check_refinement_cached`, one pair after another.  Nearly all of
//! it is automaton construction: the predicate tries of `Read2` and `RW`
//! unfolded to the predicate depth, then minimized.  The fixture is
//! fixed, so the seed changes nothing here.
//!
//! The pairs run on the calling thread rather than through the
//! two-thread `check_all_pairs`: on two cores that batch is slower than
//! the loop and its wall time jumps between runs (49–81 ms against a
//! steady 35 ms), which would drown any change in the automaton layers.
//! Its efficiency is reported per layer (`core.batch_efficiency`).

use crate::known::{verdict_code, PAPER_SPECS, PAPER_VERDICTS};
use crate::measure::{ms, peak_rss_kb, timed, Tracer};
use crate::replay::replays;
use crate::report::{CoreCounts, Outcome};
use crate::Ctx;
use pospec_bench::paper::Paper;
use pospec_core::{check_refinement_cached, DfaCache, Specification, Verdict};
use std::time::Instant;

/// Predicate-trie depth: deep enough that the `RW` trie dominates, short
/// enough for some thirty operations per second.
const DEPTH: usize = 4;
const SMOKE_DEPTH: usize = 3;

/// `specs[i] ⊑ specs[j]` for every ordered pair, through `cache`.
fn matrix(cache: &DfaCache, specs: &[Specification], depth: usize) -> Vec<Vec<Verdict>> {
    specs
        .iter()
        .map(|c| specs.iter().map(|a| check_refinement_cached(cache, c, a, depth)).collect())
        .collect()
}

fn check(p: &Paper, specs: &[Specification], m: &[Vec<Verdict>], out: &mut Outcome) {
    let names: Vec<&str> = specs.iter().map(|s| s.name()).collect();
    if names != PAPER_SPECS {
        out.wrong.push(format!("paper specs {names:?} are not in table order"));
    }
    for (i, row) in m.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            let got = verdict_code(v, &p.u);
            if got != PAPER_VERDICTS[i][j] {
                out.wrong.push(format!("paper [{i}][{j}]: {got} != {}", PAPER_VERDICTS[i][j]));
            }
        }
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let depth = if ctx.smoke { SMOKE_DEPTH } else { DEPTH };
    let mut out = Outcome::default();

    // Set-up: the fixture and a first (warm-up) matrix — the time to the
    // first verdicts.  Ten repetitions: each is as short as an operation,
    // and the first few in a fresh process swing with the host.
    let mut fixture = None;
    for _ in 0..ctx.setup_reps(10) {
        let ((p, specs, m), d) = timed(|| {
            let p = Paper::new();
            let specs = p.interface_specs();
            let m = matrix(&DfaCache::new(), &specs, depth);
            (p, specs, m)
        });
        check(&p, &specs, &m, &mut out);
        out.setup_s.push(d.as_secs_f64());
        fixture = Some(p);
    }
    let p = fixture.expect("at least one set-up");

    let mut tr = Tracer::new(ctx.epoch, false);
    let mut core = CoreCounts::default();
    let mut last: Option<(DfaCache, Vec<Specification>)> = None;
    let budget = ctx.budget(2);
    out.loop_start = Some(Instant::now());
    let mut i = 0;
    while budget.more(i) {
        tr.enabled = ctx.trace_op(i);
        tr.set_op(i + 1);
        let t = Instant::now();
        let (cache, specs, m) = tr.span("op", |tr| {
            let specs = tr.span("fixture.interface_specs", |_| p.interface_specs());
            let cache = DfaCache::new();
            let m = tr.span("core.check_refinement_cached", |_| matrix(&cache, &specs, depth));
            (cache, specs, m)
        });
        let end = Instant::now();
        out.record_op(end, ms(end - t), tr.enabled);
        check(&p, &specs, &m, &mut out);
        core.add(&cache.stats());
        last = Some((cache, specs));
        i += 1;
        if i == ctx.rss_after {
            out.peak_rss_kb = peak_rss_kb(None);
        }
    }
    out.attempted = i;
    if out.peak_rss_kb == 0 {
        out.peak_rss_kb = peak_rss_kb(None);
    }

    if let (true, Some((cache, specs))) = (ctx.traced, last) {
        tr.enabled = true;
        tr.set_op(0);
        let pairs: Vec<(&Specification, &Specification)> =
            specs.iter().flat_map(|c| specs.iter().map(move |a| (c, a))).collect();
        replays(&mut tr, &specs, &pairs, depth, &cache, &mut out);
        core.fill(&mut out);
    }
    out.spans = tr.into_spans();
    out
}

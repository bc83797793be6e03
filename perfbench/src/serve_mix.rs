//! `serve-mix`: mixed reads and writes against a resident `pospec serve`.
//!
//! Closed loop over two TCP connections to a child `pospec serve
//! --workers 2 --queue 64`, one client thread each.  Set-up spawns the
//! server and loads a generated ring (N = 100).  Each connection then
//! sends seeded requests: 85% `check` of a manifest pair, 10% `lint` of
//! the document, 5% `load_spec` that alternates the document between its
//! original and a variant with one spec's `)*` turned into `)+`.  The
//! variant denotes the same languages, so every answer stays the
//! manifest's, while each load invalidates that spec's cached pairs.

use crate::child::{spawn_server, LineConn};
use crate::known::{expect_code, json_diagnostics, lint_matches, response_code};
use crate::measure::{
    median, merge_spans, ms, peak_rss_kb, quantile, ratio, timed, Budget, Span, Tracer,
};
use crate::replay::document_replays;
use crate::report::{flatten, CoreCounts, Outcome};
use crate::Ctx;
use pospec_core::DfaCache;
use pospec_gen::{generate, Family, GenConfig, Scenario, SplitMix64};
use pospec_json::{ObjBuilder, Value};
use pospec_lang::parse_document;
use pospec_lint::{lint_document_cached, LintConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const N: usize = 100;
/// The served document is a fixed fixture; the seed picks the variant
/// spec and the request sequence (see `lsp_edit::DOC_SEED`).
const DOC_SEED: u64 = 1;
const DEPTH: usize = 6;
const CONNS: u64 = 2;
const WORKERS: usize = 2;
const QUEUE: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Check,
    Lint,
    Load,
}

/// The pre-encoded request lines and the answers they must get.
struct Plan {
    scenario: Scenario,
    /// `[original, variant]` documents.
    sources: [String; 2],
    load: [String; 2],
    lint: String,
    checks: Vec<String>,
    depth: usize,
}

impl Plan {
    fn new(seed: u64, n: usize, depth: usize) -> Plan {
        let scenario = generate(&GenConfig::new(Family::Ring, n, DOC_SEED)).expect("valid config");
        let sites: Vec<usize> =
            scenario.document.match_indices(")*;").map(|(i, _)| i + 1).collect();
        let site = sites[SplitMix64::new(seed).below(sites.len() as u64) as usize];
        let mut variant = scenario.document.clone();
        variant.replace_range(site..site + 1, "+");
        let load = |src: &str| {
            ObjBuilder::new()
                .field("op", "load_spec")
                .field("name", "ring")
                .field("source", src)
                .build()
                .to_compact()
        };
        let checks = scenario
            .manifest
            .refinements
            .iter()
            .map(|r| {
                ObjBuilder::new()
                    .field("op", "check")
                    .field("doc", "ring")
                    .field("concrete", r.concrete.as_str())
                    .field("abstract", r.abstract_.as_str())
                    .field("depth", depth)
                    .build()
                    .to_compact()
            })
            .collect();
        Plan {
            load: [load(&scenario.document), load(&variant)],
            lint: format!(r#"{{"op":"lint","doc":"ring","depth":{depth}}}"#),
            sources: [scenario.document.clone(), variant],
            checks,
            scenario,
            depth,
        }
    }
}

/// State the two client threads share.
struct Shared {
    /// `load_spec` requests sent: their parity picks the document.
    loads: AtomicU64,
    completed: AtomicU64,
    /// The server's peak RSS once `Ctx::rss_after` requests completed.
    rss_kb: AtomicU64,
    pid: u32,
}

/// One answered request, and the replayed layer times of traced ones.
struct Done {
    kind: Kind,
    end: Instant,
    latency_ms: f64,
    traced: bool,
    json_ms: f64,
    lang_ms: f64,
    lint_ms: f64,
    decode_ms: f64,
    line_bytes: usize,
}

struct ConnResult {
    done: Vec<Done>,
    failed: u64,
    wrong: Vec<String>,
    spans: Vec<Span>,
}

fn ok_result(resp: &str) -> Option<Value> {
    let v = pospec_json::parse(resp).ok()?;
    (v.get("ok").and_then(Value::as_bool) == Some(true)).then(|| v.get("result").cloned()).flatten()
}

/// Twenty requests in the exact 85/10/5 mix, in seeded order: a random
/// draw per request would let the share of expensive writes, and with it
/// every figure, wander from run to run.
fn shuffled_cycle(rng: &mut SplitMix64) -> Vec<Kind> {
    let mut cycle = vec![Kind::Check; 17];
    cycle.extend([Kind::Lint, Kind::Lint, Kind::Load]);
    for i in (1..cycle.len()).rev() {
        cycle.swap(i, rng.below(i as u64 + 1) as usize);
    }
    cycle
}

/// One connection's closed loop.
fn client(
    ctx: &Ctx,
    plan: &Plan,
    conn: &mut LineConn,
    c: u64,
    shared: &Shared,
    budget: Budget,
) -> ConnResult {
    let mut rng = SplitMix64::new(ctx.seed ^ (c + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut tr = Tracer::new(ctx.epoch, false);
    let mirror = DfaCache::new();
    let mut config = LintConfig::default();
    config.depth = plan.depth;
    let mut r = ConnResult { done: Vec::new(), failed: 0, wrong: Vec::new(), spans: Vec::new() };
    let mut verified = HashSet::new();
    let mut cycle = Vec::new();
    let mut i = 0u64;
    while budget.more(i) {
        let traced = ctx.trace_op(i);
        tr.enabled = traced;
        tr.set_op((c << 40) | (i + 1));
        i += 1;
        if cycle.is_empty() {
            cycle = shuffled_cycle(&mut rng);
        }
        let (kind, line, pair, src) = match cycle.pop().expect("refilled above") {
            Kind::Check => {
                let k = rng.below(plan.checks.len() as u64) as usize;
                (Kind::Check, &plan.checks[k], k, 0)
            }
            Kind::Lint => (Kind::Lint, &plan.lint, 0, 0),
            Kind::Load => {
                let v = ((shared.loads.fetch_add(1, Ordering::SeqCst) + 1) % 2) as usize;
                (Kind::Load, &plan.load[v], 0, v)
            }
        };
        let t = Instant::now();
        let name = match kind {
            Kind::Check => "serve.check",
            Kind::Lint => "serve.lint",
            Kind::Load => "serve.load_spec",
        };
        let reply = tr.span("op", |tr| tr.span(name, |_| conn.call(line)));
        let Ok((resp, at)) = reply else {
            r.failed += 1;
            break; // The connection is unusable.
        };
        let latency_ms = ms(at.duration_since(t));
        if shared.completed.fetch_add(1, Ordering::SeqCst) + 1 == ctx.rss_after {
            shared.rss_kb.store(peak_rss_kb(Some(shared.pid)), Ordering::SeqCst);
        }
        // A response line already verified for this request is right
        // again; only new lines are decoded, keeping the client's JSON
        // work out of the loop.
        let memo = format!("{}:{pair}:{resp}", kind as u8);
        if !verified.contains(&memo) {
            let Some(result) = ok_result(&resp) else {
                r.failed += 1;
                continue;
            };
            let m = &plan.scenario.manifest;
            let right = match kind {
                Kind::Check => response_code(&result) == expect_code(&m.refinements[pair].expect),
                Kind::Lint => lint_matches(
                    m,
                    json_diagnostics(result.get("diagnostics").unwrap_or(&Value::Null)),
                ),
                Kind::Load => {
                    result.get("specs").and_then(Value::as_arr).map(<[Value]>::len)
                        == Some(m.spec_count)
                }
            };
            if right {
                verified.insert(memo);
            } else {
                r.wrong.push(format!("connection {c}, request {i}: wrong answer {resp:.200}"));
            }
        }
        let mut d = Done {
            kind,
            end: at,
            latency_ms,
            traced,
            json_ms: 0.0,
            lang_ms: 0.0,
            lint_ms: 0.0,
            decode_ms: 0.0,
            line_bytes: line.len(),
        };
        if traced {
            tr.span("replay", |tr| {
                // What the server spends on JSON: decoding this request,
                // encoding this response.
                let (_, dec) = timed(|| {
                    tr.span("json.parse_request", |_| pospec_serve::parse_request(line).is_ok())
                });
                let full = pospec_json::parse(&resp).unwrap_or(Value::Null);
                let (_, enc) = timed(|| tr.span("json.to_compact", |_| full.to_compact()));
                d.json_ms = ms(dec + enc);
                d.decode_ms = ms(dec);
                match kind {
                    Kind::Load => {
                        let (_, lang) = timed(|| {
                            tr.span("lang.parse_document", |_| {
                                parse_document(&plan.sources[src]).is_ok()
                            })
                        });
                        d.lang_ms = ms(lang);
                    }
                    Kind::Lint => {
                        let (_, lint) = timed(|| {
                            tr.span("lint.lint_document_cached", |_| {
                                lint_document_cached("ring", &plan.sources[0], &config, &mirror)
                            })
                        });
                        d.lint_ms = ms(lint);
                    }
                    Kind::Check => {}
                }
            });
        }
        r.done.push(d);
    }
    r.spans = tr.into_spans();
    r
}

/// The `stats` result of the server behind `conn`.
fn stats(conn: &mut LineConn) -> Option<Value> {
    ok_result(&conn.call(r#"{"op":"stats"}"#).ok()?.0)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (n, depth) = if ctx.smoke { (10, 3) } else { (N, DEPTH) };
    let mut out = Outcome::default();
    let mut gen_share = Vec::new();
    let mut live = None;
    let mut plan = None;
    for rep in 0..ctx.setup_reps(5) {
        let t = Instant::now();
        let (p, gen) = timed(|| Plan::new(ctx.seed, n, depth));
        let up = spawn_server(&ctx.pospec, WORKERS, QUEUE).and_then(|(child, addr, stdout)| {
            let conns =
                (0..CONNS).map(|_| LineConn::connect(&addr)).collect::<Result<Vec<_>, _>>()?;
            Ok((child, conns, stdout))
        });
        let Ok((child, mut conns, stdout)) = up else {
            out.attempted += 1;
            out.failed += 1;
            continue;
        };
        let loaded = conns[0].call(&p.load[0]).ok().and_then(|(resp, _)| ok_result(&resp));
        out.setup_s.push(t.elapsed().as_secs_f64());
        gen_share.push(100.0 * ratio(ms(gen), ms(t.elapsed())));
        match loaded.as_ref().and_then(|r| r.get("specs")).and_then(Value::as_arr) {
            None => {
                out.attempted += 1;
                out.failed += 1;
            }
            Some(specs) if specs.len() != p.scenario.manifest.spec_count => {
                out.wrong.push(format!("load_spec registered {} specs", specs.len()));
            }
            Some(_) => {}
        }
        if rep + 1 < ctx.setup_reps(5) {
            let _ = conns[0].call(r#"{"op":"shutdown"}"#);
            drop(conns);
            if !child.finish(Duration::from_secs(10)) {
                out.failed += 1;
            }
            drop(stdout);
        } else {
            live = Some((child, conns, stdout));
        }
        plan = Some(p);
    }
    let (Some((child, mut conns, stdout)), Some(plan)) = (live, plan) else {
        return out;
    };

    let before = if ctx.traced { stats(&mut conns[0]) } else { None };
    let shared = Shared {
        loads: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        rss_kb: AtomicU64::new(0),
        pid: child.pid(),
    };
    let budget = ctx.budget(10);
    out.loop_start = Some(Instant::now());
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (plan, shared) = (&plan, &shared);
                scope.spawn(move || client(ctx, plan, conn, c as u64, shared, budget))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let done: Vec<&Done> = results.iter().flat_map(|r| &r.done).collect();
    for r in &results {
        out.attempted += r.done.len() as u64 + r.failed;
        out.failed += r.failed;
        out.wrong.extend(r.wrong.iter().cloned());
    }
    for d in &done {
        out.record_op(d.end, d.latency_ms, d.traced);
    }
    out.peak_rss_kb = match shared.rss_kb.load(Ordering::SeqCst) {
        0 => peak_rss_kb(Some(child.pid())),
        kb => kb,
    };
    let after = if ctx.traced { stats(&mut conns[0]) } else { None };
    if conns[0].call(r#"{"op":"shutdown"}"#).is_err() {
        out.failed += 1;
    }
    drop(conns);
    if !child.finish(Duration::from_secs(10)) {
        out.failed += 1;
    }
    drop(stdout);

    let mut tr = Tracer::new(ctx.epoch, ctx.traced);
    if ctx.traced {
        let (Some(b), Some(a)) = (before, after) else {
            out.failed += 1;
            return out;
        };
        let requests = done.len() as u64;
        let pick = |v: &Value, path: &[&str]| {
            path.iter().try_fold(v, |v, k| v.get(k)).and_then(Value::as_f64).unwrap_or(0.0)
        };
        let delta = |path: &[&str]| pick(&a, path) - pick(&b, path);
        let cache_of = |v: &Value| {
            v.get("metrics").and_then(|m| m.get("cache")).cloned().unwrap_or(Value::Null)
        };
        CoreCounts::from_json(&cache_of(&b), &cache_of(&a), requests).fill(&mut out);
        out.set("serve.queue_highwater", pick(&a, &["metrics", "queue_highwater"]));
        out.set(
            "serve.pair_hit_ratio",
            ratio(delta(&["registry", "pair_hits"]), delta(&["registry", "pair_checks"])),
        );
        out.set(
            "lang.elaborations_per_op",
            ratio(delta(&["registry", "elaborations"]), requests as f64),
        );
        out.set(
            "lang.spec_reuses_per_op",
            ratio(delta(&["registry", "spec_reuses"]), requests as f64),
        );
        out.detail.insert("serve.server_p50_us", pick(&a, &["metrics", "latency", "p50_us"]));
        out.detail.insert("serve.server_p99_us", pick(&a, &["metrics", "latency", "p99_us"]));
        flatten("serve.stats_before", &b, &mut out.counters);
        flatten("serve.stats_after", &a, &mut out.counters);

        let sum = |f: &dyn Fn(&Done) -> f64, only_traced: bool| {
            done.iter().filter(|d| d.traced || !only_traced).map(|d| f(d)).sum::<f64>()
        };
        let traced_total = sum(&|d| d.latency_ms, true);
        out.set(
            "serve.load_spec_share_pct",
            100.0
                * ratio(
                    sum(&|d| if d.kind == Kind::Load { d.latency_ms } else { 0.0 }, false),
                    sum(&|d| d.latency_ms, false),
                ),
        );
        out.set("json.share_pct", 100.0 * ratio(sum(&|d| d.json_ms, true), traced_total));
        out.set("lang.share_pct", 100.0 * ratio(sum(&|d| d.lang_ms, true), traced_total));
        out.set("lint.share_pct", 100.0 * ratio(sum(&|d| d.lint_ms, true), traced_total));
        out.set(
            "json.max_line_kb",
            done.iter().map(|d| d.line_bytes).max().unwrap_or(0) as f64 / 1024.0,
        );
        out.set("lang.doc_kb", plan.scenario.document.len() as f64 / 1024.0);
        out.set("lint.diagnostics", plan.scenario.manifest.lint.len() as f64);
        out.set("gen.setup_share_pct", median(&gen_share));
        for (kind, key) in [
            (Kind::Check, "serve.check_p50_ms"),
            (Kind::Lint, "serve.lint_p50_ms"),
            (Kind::Load, "serve.load_spec_p50_ms"),
        ] {
            let v: Vec<f64> =
                done.iter().filter(|d| d.kind == kind).map(|d| d.latency_ms).collect();
            out.detail.insert(key, quantile(&v, 0.5));
        }
        let loads: Vec<&&Done> = done.iter().filter(|d| d.traced && d.kind == Kind::Load).collect();
        out.detail.insert(
            "json.decode_ns_per_byte",
            ratio(
                loads.iter().map(|d| d.decode_ms * 1e6).sum(),
                loads.iter().map(|d| d.line_bytes as f64).sum(),
            ),
        );

        match parse_document(&plan.scenario.document) {
            Ok(doc) => {
                document_replays(&mut tr, &plan.scenario, &doc, depth, &DfaCache::new(), &mut out)
            }
            Err(_) => out.failed += 1,
        }
    }
    let mut parts: Vec<Vec<Span>> = results.into_iter().map(|r| r.spans).collect();
    parts.push(tr.into_spans());
    out.spans = merge_spans(parts);
    out
}

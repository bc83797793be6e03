//! `lsp-edit`: incremental edits against a resident `pospec lsp`.
//!
//! Closed loop over one stdio connection to a child `pospec lsp`.
//! Set-up spawns it, runs `initialize` and opens a generated ring
//! (N = 200).  Each operation is one `didChange` that turns a seeded
//! spec's `)*` into `)+` or back, timed until its `publishDiagnostics`
//! arrives.  Both forms denote the same prefix-closed language, so every
//! publish must repeat the `didOpen` diagnostics byte for byte, while the
//! changed fingerprint still forces re-elaboration, dirty-pair re-checks
//! and a full re-lint.

use crate::child::LspConn;
use crate::known::{json_diagnostics, lint_matches};
use crate::measure::{median, ms, peak_rss_kb, ratio, timed, Tracer};
use crate::replay::document_replays;
use crate::report::{flatten, CoreCounts, Outcome};
use crate::Ctx;
use pospec_core::DfaCache;
use pospec_gen::{generate, Family, GenConfig, Scenario, SplitMix64};
use pospec_json::{ObjBuilder, Value};
use pospec_lang::{parse_document, parse_document_session, ElabSession};
use pospec_lint::{lint_document_session, LintConfig};
use std::time::Instant;

const N: usize = 200;
/// The opened document is a fixed fixture and the seed picks the edits:
/// per-edit cost differs by up to a quarter between generated rings,
/// which would swamp run-to-run comparisons.
const DOC_SEED: u64 = 1;
const DEPTH: usize = 6;
const URI: &str = "file:///ring.pos";

/// Byte offsets of the `*` in every `)*;` — one per spec's trace line.
fn star_sites(doc: &str) -> Vec<usize> {
    doc.match_indices(")*;").map(|(i, _)| i + 1).collect()
}

/// LSP position (line, UTF-16 column) of byte `offset`.
fn position(doc: &str, offset: usize) -> (usize, usize) {
    let line_start = doc[..offset].rfind('\n').map_or(0, |i| i + 1);
    (doc[..offset].matches('\n').count(), doc[line_start..offset].encode_utf16().count())
}

fn did_change(version: u64, (line, ch): (usize, usize), text: &str) -> String {
    format!(
        r#"{{"jsonrpc":"2.0","method":"textDocument/didChange","params":{{"textDocument":{{"uri":"{URI}","version":{version}}},"contentChanges":[{{"range":{{"start":{{"line":{line},"character":{ch}}},"end":{{"line":{line},"character":{}}}}},"text":"{text}"}}]}}}}"#,
        ch + 1
    )
}

/// Wait for the next `publishDiagnostics`; return its raw body with its
/// arrival time.  Other messages are skipped.  Bodies are matched, not
/// decoded, so the client's own JSON work stays out of the loop.
fn next_publish(conn: &LspConn) -> Option<(Instant, String)> {
    loop {
        let (at, body) = conn.recv()?;
        if body.contains(r#""method":"textDocument/publishDiagnostics""#) {
            return Some((at, body));
        }
    }
}

/// The `"diagnostics":[…]` tail of a publish body (the server writes
/// `uri`, `version`, `diagnostics` in that order).
fn diagnostics_part(body: &str) -> Option<&str> {
    body.find(r#""diagnostics":"#).map(|i| &body[i..])
}

/// `pospec/stats` result.
fn stats(conn: &mut LspConn, id: u64) -> Option<Value> {
    conn.send(&format!(r#"{{"jsonrpc":"2.0","id":{id},"method":"pospec/stats"}}"#)).ok()?;
    loop {
        let (_, body) = conn.recv()?;
        let msg = pospec_json::parse(&body).ok()?;
        if msg.get("id").and_then(Value::as_u64) == Some(id) {
            return msg.get("result").cloned();
        }
    }
}

/// Spawn the server, initialize it and open the document; returns the
/// connection and the raw `didOpen` publish body.
fn open(ctx: &Ctx, depth: usize, open_body: &str) -> Option<(LspConn, String)> {
    let mut conn = LspConn::spawn(&ctx.pospec, depth).ok()?;
    conn.send(r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}"#).ok()?;
    conn.recv()?;
    conn.send(r#"{"jsonrpc":"2.0","method":"initialized","params":{}}"#).ok()?;
    conn.send(open_body).ok()?;
    let (_, body) = next_publish(&conn)?;
    Some((conn, body))
}

/// Replays of one traced edit: the server's JSON work, and its parse
/// and lint on a mirror session that saw the same texts.
struct EditSplit {
    json_ms: f64,
    lang_ms: f64,
    lint_ms: f64,
    latency_ms: f64,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (n, depth) = if ctx.smoke { (10, 3) } else { (N, DEPTH) };
    let mut out = Outcome::default();
    let mut gen_share = Vec::new();

    let mut live = None;
    let mut scenario: Option<Scenario> = None;
    for rep in 0..ctx.setup_reps(5) {
        let t = Instant::now();
        let (s, gen) =
            timed(|| generate(&GenConfig::new(Family::Ring, n, DOC_SEED)).expect("valid config"));
        let open_body = ObjBuilder::new()
            .field("jsonrpc", "2.0")
            .field("method", "textDocument/didOpen")
            .field(
                "params",
                ObjBuilder::new()
                    .field(
                        "textDocument",
                        ObjBuilder::new()
                            .field("uri", URI)
                            .field("languageId", "pospec")
                            .field("version", 0u64)
                            .field("text", s.document.as_str())
                            .build(),
                    )
                    .build(),
            )
            .build()
            .to_compact();
        let Some((conn, published)) = open(ctx, depth, &open_body) else {
            out.attempted += 1;
            out.failed += 1;
            continue;
        };
        out.setup_s.push(t.elapsed().as_secs_f64());
        gen_share.push(100.0 * ratio(ms(gen), ms(t.elapsed())));
        out.detail.insert("json.did_open_kb", open_body.len() as f64 / 1024.0);
        let decoded = pospec_json::parse(&published).unwrap_or(Value::Null);
        let diags =
            decoded.get("params").and_then(|p| p.get("diagnostics")).unwrap_or(&Value::Null);
        let diag_count = json_diagnostics(diags).len();
        if !lint_matches(&s.manifest, json_diagnostics(diags)) {
            out.wrong
                .push(format!("{}: didOpen diagnostics differ from the manifest", s.config.stem()));
        }
        if rep + 1 < ctx.setup_reps(5) {
            if !conn.close(2) {
                out.failed += 1;
            }
        } else {
            let part = diagnostics_part(&published).unwrap_or_default().to_string();
            live = Some((conn, part, diag_count, open_body.len()));
        }
        scenario = Some(s);
    }
    let (Some((mut conn, open_diags, diag_count, open_len)), Some(s)) = (live, scenario) else {
        return out;
    };

    let mut text = s.document.clone();
    let sites = star_sites(&text);
    let mut rng = SplitMix64::new(ctx.seed);
    let mut tr = Tracer::new(ctx.epoch, false);
    let mut session = ElabSession::new();
    let mirror = DfaCache::new();
    let mut config = LintConfig::default();
    config.depth = depth;
    if ctx.traced {
        let _ = parse_document_session(&text, &mut session);
        lint_document_session(URI, &text, &config, &mirror, &mut session);
    }
    let before = if ctx.traced { stats(&mut conn, 3) } else { None };

    let mut splits = Vec::new();
    let mut max_line = open_len;
    let mut site = 0;
    let budget = ctx.budget(4);
    out.loop_start = Some(Instant::now());
    let mut i = 0u64;
    while budget.more(i) {
        // Pairs of edits alternate between traced and untraced, so both
        // halves hold as many `)+` edits as reverts.
        tr.enabled = ctx.trace_op(i / 2);
        tr.set_op(i + 1);
        let forth = i.is_multiple_of(2);
        if forth {
            site = sites[rng.below(sites.len() as u64) as usize];
        }
        let new = if forth { "+" } else { "*" };
        let body = did_change(i + 1, position(&text, site), new);
        text.replace_range(site..site + 1, new);
        max_line = max_line.max(body.len());
        let t = Instant::now();
        let reply = tr.span("op", |tr| {
            tr.span("lsp.did_change", |_| {
                conn.send(&body).ok()?;
                next_publish(&conn)
            })
        });
        i += 1;
        let Some((at, published)) = reply else {
            out.failed += 1;
            break; // The connection is unusable.
        };
        let latency = ms(at.duration_since(t));
        out.record_op(at, latency, tr.enabled);
        if i == ctx.rss_after {
            out.peak_rss_kb = peak_rss_kb(Some(conn.child.pid()));
        }
        max_line = max_line.max(published.len());
        if diagnostics_part(&published) != Some(open_diags.as_str()) {
            out.wrong.push(format!("edit {i}: publishDiagnostics differ from didOpen"));
        }
        if tr.enabled {
            let split = tr.span("replay", |tr| {
                // The server decodes this request and encodes that reply.
                let (_, dec) = timed(|| tr.span("json.parse", |_| pospec_json::parse(&body)));
                let msg = pospec_json::parse(&published).unwrap_or(Value::Null);
                let (_, enc) = timed(|| tr.span("json.to_compact", |_| msg.to_compact()));
                let (_, lang) = timed(|| {
                    tr.span("lang.parse_document_session", |_| {
                        parse_document_session(&text, &mut session).is_ok()
                    })
                });
                let (_, lint) = timed(|| {
                    tr.span("lint.lint_document_session", |_| {
                        lint_document_session(URI, &text, &config, &mirror, &mut session)
                    })
                });
                EditSplit {
                    json_ms: ms(dec + enc),
                    lang_ms: ms(lang),
                    lint_ms: ms(lint),
                    latency_ms: latency,
                }
            });
            splits.push(split);
        }
    }
    out.attempted += i;
    if out.peak_rss_kb == 0 {
        out.peak_rss_kb = peak_rss_kb(Some(conn.child.pid()));
    }
    let after = if ctx.traced { stats(&mut conn, 4) } else { None };
    if !conn.close(5) {
        out.failed += 1;
    }

    if ctx.traced {
        tr.enabled = true;
        tr.set_op(0);
        let edits = i;
        let (Some(b), Some(a)) = (before, after) else {
            out.failed += 1;
            out.spans = tr.into_spans();
            return out;
        };
        let reg = |v: &Value, k: &str| {
            v.get("registry").and_then(|r| r.get(k)).and_then(Value::as_u64).unwrap_or(0) as f64
        };
        let per_edit = |k: &str| ratio(reg(&a, k) - reg(&b, k), edits as f64);
        let cache_of = |v: &Value| v.get("cache").cloned().unwrap_or(Value::Null);
        let core = CoreCounts::from_json(&cache_of(&b), &cache_of(&a), edits);
        core.fill(&mut out);
        out.set("lang.elaborations_per_op", per_edit("elaborations"));
        out.set("lang.spec_reuses_per_op", per_edit("spec_reuses"));
        out.set("lsp.pair_checks_per_edit", per_edit("pair_checks"));
        out.set("lsp.dfa_misses_per_edit", ratio(core.dfa_misses as f64, edits as f64));
        out.set(
            "serve.pair_hit_ratio",
            ratio(
                reg(&a, "pair_hits") - reg(&b, "pair_hits"),
                reg(&a, "pair_checks") - reg(&b, "pair_checks"),
            ),
        );
        let sum = |f: fn(&EditSplit) -> f64| splits.iter().map(f).sum::<f64>();
        let total = sum(|s| s.latency_ms);
        let rest = total - sum(|s| s.json_ms) - sum(|s| s.lang_ms) - sum(|s| s.lint_ms);
        out.set("json.share_pct", 100.0 * ratio(sum(|s| s.json_ms), total));
        out.set("lang.share_pct", 100.0 * ratio(sum(|s| s.lang_ms), total));
        out.set("lint.share_pct", 100.0 * ratio(sum(|s| s.lint_ms), total));
        out.set("lsp.self_share_pct", 100.0 * ratio(rest, total));
        out.detail.insert("lsp.roundtrip_self_ms", ratio(rest, splits.len() as f64));
        out.detail.insert("lint.total_ms", ratio(sum(|s| s.lint_ms), splits.len() as f64));
        out.set("json.max_line_kb", max_line as f64 / 1024.0);
        out.set("lsp.diag_kb", open_diags.len() as f64 / 1024.0);
        out.set("lang.doc_kb", s.document.len() as f64 / 1024.0);
        out.set("lint.diagnostics", diag_count as f64);
        out.set("gen.setup_share_pct", median(&gen_share));
        flatten("lsp.stats_before", &b, &mut out.counters);
        flatten("lsp.stats_after", &a, &mut out.counters);
        match parse_document(&s.document) {
            Ok(doc) => document_replays(&mut tr, &s, &doc, depth, &DfaCache::new(), &mut out),
            Err(_) => out.failed += 1,
        }
    }
    out.spans = tr.into_spans();
    out
}

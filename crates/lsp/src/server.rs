//! The LSP server state machine: lifecycle, document sync, publish-
//! diagnostics, hover, definition, and the `pospec/stats` counters.
//!
//! The server is transport-agnostic: [`LspServer::handle`] maps one
//! incoming message to the outgoing messages it provokes, and
//! [`LspServer::run`] wires that to framed stdio.  Tests drive
//! `handle`/`run` over in-memory pipes.

use crate::analysis;
use crate::convert;
use crate::rpc::{self, code};
use pospec_check::report::cache_stats_json;
use pospec_core::DfaCache;
use pospec_json::{ObjBuilder, Value};
use pospec_lang::pos::LineIndex;
use pospec_lint::{LintConfig, LintReport};
use pospec_serve::{RegisteredDoc, SpecRegistry};
use std::collections::HashMap;
use std::io::{BufRead, Write};

/// One open text document, kept in sync by didOpen/didChange.
struct OpenDoc {
    text: String,
    /// The line starts of `text`, rebuilt after every applied change.
    index: LineIndex,
    version: Option<u64>,
    /// The lint report of the last analysed version of `text`: its
    /// diagnostics were published, and code actions serve its fixes.
    report: Option<LintReport>,
}

impl OpenDoc {
    fn new(text: String, version: Option<u64>) -> OpenDoc {
        OpenDoc { index: LineIndex::new(&text), text, version, report: None }
    }
}

/// A resident LSP server over one registry and one automaton cache.
pub struct LspServer {
    registry: SpecRegistry,
    cache: DfaCache,
    docs: HashMap<String, OpenDoc>,
    depth: usize,
    initialized: bool,
    shutdown: bool,
    exit_code: Option<i32>,
}

impl LspServer {
    /// A fresh server checking refinements at `depth`.
    pub fn new(depth: usize) -> LspServer {
        LspServer {
            registry: SpecRegistry::new(),
            cache: DfaCache::new(),
            docs: HashMap::new(),
            depth,
            initialized: false,
            shutdown: false,
            exit_code: None,
        }
    }

    /// Attach a persistent automaton store so the server starts warm
    /// (the same disk cache `pospec serve` uses).
    pub fn attach_store(&self, store: std::sync::Arc<pospec_core::PersistentStore>) {
        self.cache.attach_store(store);
    }

    /// Serve until `exit` (or EOF); returns the process exit code:
    /// 0 when `exit` followed `shutdown`, 1 otherwise.
    pub fn run(&mut self, reader: &mut impl BufRead, writer: &mut impl Write) -> i32 {
        loop {
            match rpc::read_message(reader) {
                Ok(Some(message)) => {
                    for out in self.handle(&message) {
                        if rpc::write_message(writer, &out).is_err() {
                            return 1;
                        }
                    }
                    if let Some(rc) = self.exit_code {
                        return rc;
                    }
                }
                Ok(None) => return i32::from(!self.shutdown),
                Err(_) => return 1,
            }
        }
    }

    /// Process one incoming message; returns the messages to send.
    pub fn handle(&mut self, message: &Value) -> Vec<Value> {
        let method = message.get("method").and_then(Value::as_str).unwrap_or("");
        let id = message.get("id");
        let params = message.get("params");

        // Lifecycle gates. `exit` always works; everything else needs
        // `initialize` first and stops after `shutdown`.
        if method == "exit" {
            self.exit_code = Some(i32::from(!self.shutdown));
            return Vec::new();
        }
        if !self.initialized && method != "initialize" {
            return match id {
                Some(id) => vec![rpc::error_response(
                    id,
                    code::SERVER_NOT_INITIALIZED,
                    "server not initialized",
                )],
                None => Vec::new(),
            };
        }
        if self.shutdown && method != "shutdown" {
            return match id {
                Some(id) => vec![rpc::error_response(
                    id,
                    code::INVALID_DURING_SHUTDOWN,
                    "server is shutting down",
                )],
                None => Vec::new(),
            };
        }

        match (method, id) {
            ("initialize", Some(id)) => {
                self.initialized = true;
                vec![rpc::response(id, capabilities())]
            }
            ("initialized", _) => Vec::new(),
            ("shutdown", Some(id)) => {
                self.shutdown = true;
                vec![rpc::response(id, Value::Null)]
            }
            ("textDocument/didOpen", _) => self.did_open(params),
            ("textDocument/didChange", _) => self.did_change(params),
            ("textDocument/didClose", _) => self.did_close(params),
            ("textDocument/hover", Some(id)) => vec![self.hover(id, params)],
            ("textDocument/definition", Some(id)) => vec![self.definition(id, params)],
            ("textDocument/codeAction", Some(id)) => vec![self.code_action(id, params)],
            ("pospec/stats", Some(id)) => vec![rpc::response(id, self.stats())],
            (_, Some(id)) => {
                vec![rpc::error_response(
                    id,
                    code::METHOD_NOT_FOUND,
                    &format!("unknown method `{method}`"),
                )]
            }
            // Unknown notifications are dropped, per the protocol.
            (_, None) => Vec::new(),
        }
    }

    fn did_open(&mut self, params: Option<&Value>) -> Vec<Value> {
        let Some(td) = params.and_then(|p| p.get("textDocument")) else {
            return Vec::new();
        };
        let (Some(uri), Some(text)) =
            (td.get("uri").and_then(Value::as_str), td.get("text").and_then(Value::as_str))
        else {
            return Vec::new();
        };
        let version = td.get("version").and_then(Value::as_u64);
        self.docs.insert(uri.to_string(), OpenDoc::new(text.to_string(), version));
        self.analyze(uri)
    }

    fn did_change(&mut self, params: Option<&Value>) -> Vec<Value> {
        let Some(params) = params else { return Vec::new() };
        let Some(uri) =
            params.get("textDocument").and_then(|t| t.get("uri")).and_then(Value::as_str)
        else {
            return Vec::new();
        };
        let uri = uri.to_string();
        let version =
            params.get("textDocument").and_then(|t| t.get("version")).and_then(Value::as_u64);
        let Some(doc) = self.docs.get_mut(&uri) else { return Vec::new() };
        if let Some(changes) = params.get("contentChanges").and_then(Value::as_arr) {
            for change in changes {
                let Some(new_text) = change.get("text").and_then(Value::as_str) else {
                    continue;
                };
                match change.get("range") {
                    // Incremental edit: an UTF-16 range replaced by text.
                    Some(range) => {
                        let offset = |key: &str| {
                            range
                                .get(key)
                                .and_then(|p| convert::position_to_offset(&doc.index, &doc.text, p))
                        };
                        if let (Some(s), Some(e)) = (offset("start"), offset("end")) {
                            if s <= e && e <= doc.text.len() {
                                doc.text.replace_range(s..e, new_text);
                            }
                        }
                    }
                    // Full-document replacement.
                    None => doc.text = new_text.to_string(),
                }
                // The next change's positions refer to this text.
                doc.index = LineIndex::new(&doc.text);
            }
        }
        doc.version = version.or(doc.version);
        self.analyze(&uri)
    }

    fn did_close(&mut self, params: Option<&Value>) -> Vec<Value> {
        let Some(uri) = params
            .and_then(|p| p.get("textDocument"))
            .and_then(|t| t.get("uri"))
            .and_then(Value::as_str)
        else {
            return Vec::new();
        };
        self.docs.remove(uri);
        // The registered version, its elaboration session and its pair
        // verdicts go with the text.
        self.registry.remove(uri);
        // Clear the problems pane for the closed file.
        vec![rpc::notification(
            "textDocument/publishDiagnostics",
            convert::publish_params(uri, None, Vec::new()),
        )]
    }

    /// Parse and elaborate the document once (incrementally), register
    /// it, refresh refine verdicts (dirty pairs only), lint that same
    /// front end, and publish diagnostics.
    fn analyze(&mut self, uri: &str) -> Vec<Value> {
        let Some(doc) = self.docs.get_mut(uri) else { return Vec::new() };
        // Unchanged specs are reused from the per-document session, and
        // pair verdicts whose endpoints are untouched survive.  A parse
        // or elaboration failure keeps the previous version registered
        // (hover keeps working); the lint below reports the error with
        // its precise span.
        let load = self.registry.load(uri, &doc.text);
        if let Ok(outcome) = &load.outcome {
            self.registry.refresh_pairs(&outcome.entry, self.depth, &self.cache);
        }
        let mut config = LintConfig::default();
        config.depth = self.depth;
        let report =
            pospec_lint::lint_elaborated(uri, &doc.text, load.front.as_ref(), &config, &self.cache);
        // The syntax tree lives no longer than this request.
        drop(load);
        let diagnostics: Vec<Value> = report
            .diagnostics
            .iter()
            .map(|d| convert::diagnostic_to_lsp(&doc.index, &doc.text, uri, d))
            .collect();
        doc.report = Some(report);
        vec![rpc::notification(
            "textDocument/publishDiagnostics",
            convert::publish_params(uri, doc.version, diagnostics),
        )]
    }

    fn hover(&self, id: &Value, params: Option<&Value>) -> Value {
        let Some((uri, doc, offset)) = self.resolve_position(params) else {
            return rpc::response(id, Value::Null);
        };
        let Some((name, span)) = analysis::ident_at(&doc.text, offset) else {
            return rpc::response(id, Value::Null);
        };
        let Some(entry) = self.registry.get(uri) else {
            return rpc::response(id, Value::Null);
        };
        let Some(markdown) = self.hover_markdown(&entry, &name) else {
            return rpc::response(id, Value::Null);
        };
        rpc::response(
            id,
            ObjBuilder::new()
                .field(
                    "contents",
                    ObjBuilder::new().field("kind", "markdown").field("value", markdown).build(),
                )
                .field("range", convert::span_to_range(&doc.index, &doc.text, &span))
                .build(),
        )
    }

    /// Hover content for `name` within `entry`'s document: for a spec,
    /// its elaborated alphabet + granule set and the cached refinement
    /// verdicts of the `refine` statements naming it; for universe
    /// declarations, their kind and signature.
    fn hover_markdown(&self, entry: &RegisteredDoc, name: &str) -> Option<String> {
        let u = &entry.doc.universe;
        if let Some(spec) = entry.doc.spec(name) {
            let mut md = format!("**spec `{name}`**");
            if spec.is_interface() {
                md.push_str(" *(interface)*");
            }
            let objects: Vec<&str> = spec.objects().iter().map(|o| u.object_name(*o)).collect();
            md.push_str(&format!("\n\nobjects: {{{}}}\n", objects.join(", ")));
            let alpha = spec.alphabet();
            md.push_str(&format!(
                "\nalphabet: `{}` — {} granule(s){}\n",
                alpha.display(),
                alpha.granule_count(),
                if alpha.is_infinite() { ", infinite" } else { "" }
            ));
            const SHOWN: usize = 8;
            for g in alpha.granules().take(SHOWN) {
                md.push_str(&format!("- `{}`\n", g.display(u)));
            }
            if alpha.granule_count() > SHOWN {
                md.push_str(&format!("- … {} more\n", alpha.granule_count() - SHOWN));
            }
            md.push_str(if spec.trace_set().is_regular() {
                "\ntraces: regular (prs)\n"
            } else {
                "\ntraces: any\n"
            });
            let mut verdicts = String::new();
            for (c, a) in entry.refine_pairs() {
                if c != name && a != name {
                    continue;
                }
                if let Some((v, cached)) =
                    self.registry.check_pair_cached(entry, c, a, self.depth, &self.cache)
                {
                    verdicts.push_str(&format!(
                        "- `{c} ⊑ {a}`: **{}**{}\n",
                        if v.holds() { "holds" } else { "fails" },
                        if cached { " *(cached)*" } else { "" }
                    ));
                }
            }
            if !verdicts.is_empty() {
                md.push_str("\nrefinement obligations:\n");
                md.push_str(&verdicts);
            }
            return Some(md);
        }
        if let Some(o) = u.object_by_name(name) {
            let class =
                u.class_of_object(o).map(|c| format!(" : {}", u.class_name(c))).unwrap_or_default();
            let used_by: Vec<&str> = entry
                .doc
                .specs
                .iter()
                .filter(|s| s.objects().contains(&o))
                .map(|s| s.name())
                .collect();
            let mut md = format!("**object `{name}`**{class}");
            if !used_by.is_empty() {
                md.push_str(&format!("\n\nspecified by: {}", used_by.join(", ")));
            }
            return Some(md);
        }
        if let Some(m) = u.method_by_name(name) {
            let sig = match u.method_sig(m) {
                pospec_alphabet::MethodSig::Data(c) => {
                    format!("{name}({})", u.class_name(c))
                }
                pospec_alphabet::MethodSig::None => format!("{name}()"),
            };
            return Some(format!("**method `{sig}`**"));
        }
        if let Some(c) = u.class_by_name(name) {
            let kind = match u.class_kind(c) {
                pospec_alphabet::universe::ClassKind::Object => "object sort",
                pospec_alphabet::universe::ClassKind::Data => "data sort",
            };
            return Some(format!("**class `{name}`** ({kind})"));
        }
        if let Some(d) = u.data_by_name(name) {
            return Some(format!("**value `{name}`** : {}", u.class_name(u.class_of_data(d))));
        }
        None
    }

    /// `textDocument/codeAction`: every lint fix whose diagnostic
    /// intersects the requested range, served as a `quickfix` workspace
    /// edit.  The fixes come from the report of the last analysed
    /// version, which is the current text (every change re-analyses), so
    /// their byte offsets are in sync and nothing is linted again.
    fn code_action(&self, id: &Value, params: Option<&Value>) -> Value {
        let none = || rpc::response(id, Value::Arr(Vec::new()));
        let Some(params) = params else { return none() };
        let Some(uri) =
            params.get("textDocument").and_then(|t| t.get("uri")).and_then(Value::as_str)
        else {
            return none();
        };
        let Some(doc) = self.docs.get(uri) else { return none() };
        let Some(report) = &doc.report else { return none() };
        let (index, text) = (&doc.index, doc.text.as_str());
        let (start, end) = match params.get("range") {
            Some(r) => {
                let s = r.get("start").and_then(|p| convert::position_to_offset(index, text, p));
                let e = r.get("end").and_then(|p| convert::position_to_offset(index, text, p));
                match (s, e) {
                    (Some(s), Some(e)) => (s, e.max(s)),
                    _ => return none(),
                }
            }
            // No range: serve every available fix.
            None => (0, text.len()),
        };
        let mut actions = Vec::new();
        for d in &report.diagnostics {
            let Some(fix) = &d.fix else { continue };
            let Some(span) = &d.span else { continue };
            let (ds, de) = (span.offset as usize, (span.offset + span.len) as usize);
            // Touching counts as intersecting: a cursor (empty range)
            // at either edge of the squiggle still offers the fix.
            if ds > end || de < start {
                continue;
            }
            let edits: Vec<Value> = fix
                .edits
                .iter()
                .map(|e| {
                    ObjBuilder::new()
                        .field("range", convert::offset_range(index, text, e.start, e.end))
                        .field("newText", e.replacement.as_str())
                        .build()
                })
                .collect();
            let mut b = ObjBuilder::new()
                .field("title", fix.title.as_str())
                .field("kind", "quickfix")
                .field(
                    "diagnostics",
                    Value::Arr(vec![convert::diagnostic_to_lsp(index, text, uri, d)]),
                )
                .field(
                    "edit",
                    ObjBuilder::new()
                        .field("changes", ObjBuilder::new().field(uri, Value::Arr(edits)).build())
                        .build(),
                );
            if fix.applicability == pospec_lint::Applicability::MachineApplicable {
                b = b.field("isPreferred", true);
            }
            actions.push(b.build());
        }
        rpc::response(id, Value::Arr(actions))
    }

    fn definition(&self, id: &Value, params: Option<&Value>) -> Value {
        let Some((uri, doc, offset)) = self.resolve_position(params) else {
            return rpc::response(id, Value::Null);
        };
        let Some((name, _)) = analysis::ident_at(&doc.text, offset) else {
            return rpc::response(id, Value::Null);
        };
        match analysis::definition_of(&doc.text, &name) {
            Some(span) => {
                rpc::response(id, convert::location_json(uri, &doc.index, &doc.text, &span))
            }
            None => rpc::response(id, Value::Null),
        }
    }

    /// `(uri, document, byte offset)` for a request carrying
    /// `textDocument.uri` + `position`.
    fn resolve_position<'a>(
        &'a self,
        params: Option<&'a Value>,
    ) -> Option<(&'a str, &'a OpenDoc, usize)> {
        let params = params?;
        let uri = params.get("textDocument")?.get("uri")?.as_str()?;
        let doc = self.docs.get(uri)?;
        let offset = convert::position_to_offset(&doc.index, &doc.text, params.get("position")?)?;
        Some((uri, doc, offset))
    }

    /// The incrementality counters: per-session elaborations/reuses,
    /// pair-cache checks/hits, and the full automaton-cache stats.
    fn stats(&self) -> Value {
        ObjBuilder::new()
            .field(
                "registry",
                ObjBuilder::new()
                    .field("loads", self.registry.loads())
                    .field("documents", self.registry.len())
                    .field("elaborations", self.registry.elaborations())
                    .field("spec_reuses", self.registry.spec_reuses())
                    .field("pair_checks", self.registry.pair_checks())
                    .field("pair_hits", self.registry.pair_hits())
                    .build(),
            )
            .field("cache", cache_stats_json(&self.cache.stats()))
            .build()
    }
}

/// The `initialize` result: incremental sync, hover, definition.
fn capabilities() -> Value {
    ObjBuilder::new()
        .field(
            "capabilities",
            ObjBuilder::new()
                .field(
                    "textDocumentSync",
                    ObjBuilder::new()
                        .field("openClose", true)
                        // 2 = incremental: didChange sends ranges.
                        .field("change", 2u64)
                        .build(),
                )
                .field("hoverProvider", true)
                .field("definitionProvider", true)
                .field("codeActionProvider", true)
                .field("positionEncoding", "utf-16")
                .build(),
        )
        .field(
            "serverInfo",
            ObjBuilder::new()
                .field("name", "pospec-lsp")
                .field("version", env!("CARGO_PKG_VERSION"))
                .build(),
        )
        .build()
}

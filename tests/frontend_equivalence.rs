//! Front-end equivalence of the resident surfaces.
//!
//! `pospec lsp` and `pospec serve` parse and elaborate each document
//! version once, through the document's `ElabSession`, and lint the
//! value that front end built: the LSP lints what `SpecRegistry::load`
//! returned, and serve's `lint {doc}` lints the registered snapshot over
//! its own universe and specifications.  That is admissible only if it
//! is *observationally invisible*: after every version, each surface's
//! report must be byte-identical to a from-scratch `lint_document` of
//! the same text (a fresh universe, a fresh automaton cache).
//!
//! Three surfaces are compared against that oracle:
//! * the registry flow the LSP runs (`load`, `refresh_pairs`,
//!   `lint_elaborated` over one long-lived cache), by
//!   `LintReport::to_json`;
//! * a real `LspServer` fed ranged `didChange` edits, by its published
//!   diagnostics;
//! * a real `pospec serve` over TCP, by its `lint {doc}` replies.
//!
//! The versions come from an `lsp-edit`-style stream of `)*` ↔ `)+`
//! toggles on a generated ring, from edits that shift or break spans
//! (a comment line, a renamed spec, a broken then repaired universe
//! declaration, a parse error, a Def.-1 violation), from `pospec-gen`
//! mutations of every family, and from the shipped `specs/`.

use pospec_core::DfaCache;
use pospec_gen::{generate, Family, GenConfig, SplitMix64};
use pospec_json::{ObjBuilder, Value};
use pospec_lang::pos::{offset_to_utf16, LineIndex};
use pospec_lint::{lint_document, lint_elaborated, LintConfig};
use pospec_lsp::{convert, LspServer};
use pospec_serve::{response_ok, Client, Server, ServerConfig, SpecRegistry};
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

const URI: &str = "file:///ring.pos";
const DEPTH: usize = 4;

fn config() -> LintConfig {
    let mut config = LintConfig::default();
    config.depth = DEPTH;
    config
}

/// The oracle: a from-scratch lint of `text`, as the wire renders it.
fn scratch(file: &str, text: &str) -> String {
    lint_document(file, text, &config()).to_json().to_compact()
}

/// An LSP notification.
fn notification(method: &str, params: Value) -> Value {
    ObjBuilder::new()
        .field("jsonrpc", "2.0")
        .field("method", method)
        .field("params", params)
        .build()
}

fn position(src: &str, offset: usize) -> Value {
    let (line, character) = offset_to_utf16(src, offset);
    ObjBuilder::new().field("line", line as u64).field("character", character as u64).build()
}

/// The smallest ranged `didChange` turning `old` into `new`: the bytes
/// between their common prefix and common suffix.
fn ranged_change(version: u64, old: &str, new: &str) -> Value {
    let mut start = old.bytes().zip(new.bytes()).take_while(|(a, b)| a == b).count();
    while !old.is_char_boundary(start) || !new.is_char_boundary(start) {
        start -= 1;
    }
    let max_suffix = old.len().min(new.len()) - start;
    let mut suffix = old
        .bytes()
        .rev()
        .zip(new.bytes().rev())
        .take_while(|(a, b)| a == b)
        .count()
        .min(max_suffix);
    while !old.is_char_boundary(old.len() - suffix) || !new.is_char_boundary(new.len() - suffix) {
        suffix -= 1;
    }
    let range = ObjBuilder::new()
        .field("start", position(old, start))
        .field("end", position(old, old.len() - suffix))
        .build();
    let change = ObjBuilder::new()
        .field("range", range)
        .field("text", &new[start..new.len() - suffix])
        .build();
    notification(
        "textDocument/didChange",
        ObjBuilder::new()
            .field(
                "textDocument",
                ObjBuilder::new().field("uri", URI).field("version", version).build(),
            )
            .field("contentChanges", Value::Arr(vec![change]))
            .build(),
    )
}

/// The three resident surfaces, fed the same versions of one document.
struct Surfaces {
    registry: SpecRegistry,
    cache: DfaCache,
    lsp: LspServer,
    serve: Client,
    shutdown: pospec_serve::server::ShutdownHandle,
    serve_thread: thread::JoinHandle<Result<pospec_serve::MetricsSnapshot, String>>,
    /// The current text and its version number.
    text: String,
    version: u64,
    /// The text of the version serve holds registered, if any.
    registered: Option<String>,
}

impl Surfaces {
    fn open(text: &str) -> Surfaces {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue: 8,
            ..ServerConfig::default()
        })
        .expect("bind an ephemeral port");
        let addr = server.local_addr().expect("local addr").to_string();
        let shutdown = server.shutdown_handle();
        let serve_thread = thread::spawn(move || server.serve());
        let serve = Client::connect(&addr).expect("connect");
        serve.set_timeout(Some(Duration::from_secs(60))).expect("timeout");

        let mut lsp = LspServer::new(DEPTH);
        lsp.handle(
            &ObjBuilder::new()
                .field("jsonrpc", "2.0")
                .field("id", 1u64)
                .field("method", "initialize")
                .field("params", Value::Obj(Vec::new()))
                .build(),
        );
        let mut surfaces = Surfaces {
            registry: SpecRegistry::new(),
            cache: DfaCache::new(),
            lsp,
            serve,
            shutdown,
            serve_thread,
            text: text.to_string(),
            version: 1,
            registered: None,
        };
        let open = notification(
            "textDocument/didOpen",
            ObjBuilder::new()
                .field(
                    "textDocument",
                    ObjBuilder::new()
                        .field("uri", URI)
                        .field("languageId", "pospec")
                        .field("version", 1u64)
                        .field("text", text)
                        .build(),
                )
                .build(),
        );
        surfaces.check("didOpen", &open);
        surfaces
    }

    /// Move to version `text` and compare every surface with the oracle.
    fn edit(&mut self, tag: &str, text: &str) {
        self.version += 1;
        let change = ranged_change(self.version, &self.text, text);
        self.text = text.to_string();
        self.check(tag, &change);
    }

    fn check(&mut self, tag: &str, lsp_message: &Value) {
        let text = self.text.clone();
        let expected = scratch(URI, &text);

        // The registry flow the LSP runs, over one long-lived cache.
        let load = self.registry.load(URI, &text);
        if let Ok(outcome) = &load.outcome {
            self.registry.refresh_pairs(&outcome.entry, DEPTH, &self.cache);
        }
        let report = lint_elaborated(URI, &text, load.front.as_ref(), &config(), &self.cache);
        assert_eq!(report.to_json().to_compact(), expected, "{tag}: registry flow");

        // The LSP server: its publish is the oracle's report, converted.
        let index = LineIndex::new(&text);
        let want: Vec<Value> = lint_document(URI, &text, &config())
            .diagnostics
            .iter()
            .map(|d| convert::diagnostic_to_lsp(&index, &text, URI, d))
            .collect();
        let out = self.lsp.handle(lsp_message);
        let published = out
            .iter()
            .find(|m| {
                m.get("method").and_then(Value::as_str) == Some("textDocument/publishDiagnostics")
            })
            .and_then(|m| m.get("params"))
            .unwrap_or_else(|| panic!("{tag}: no publish"));
        assert_eq!(published.get("version").and_then(Value::as_u64), Some(self.version));
        assert_eq!(
            published.get("diagnostics").map(Value::to_compact),
            Some(Value::Arr(want).to_compact()),
            "{tag}: LSP publish"
        );

        // Serve: register the version, then lint the registered one.  A
        // version that fails to register leaves the previous one live.
        let load = ObjBuilder::new()
            .field("op", "load_spec")
            .field("name", "ring")
            .field("source", text.as_str())
            .build();
        let loaded = self.serve.call(&load).expect("load_spec");
        assert_eq!(response_ok(&loaded), load_ok(&self.registry, &text), "{tag}: load verdicts");
        if response_ok(&loaded) {
            self.registered = Some(text.clone());
        }
        if let Some(registered) = &self.registered {
            let lint = ObjBuilder::new()
                .field("op", "lint")
                .field("doc", "ring")
                .field("depth", DEPTH as u64)
                .build();
            let reply = self.serve.call(&lint).expect("lint");
            assert!(response_ok(&reply), "{tag}: {reply:?}");
            assert_eq!(
                reply.get("result").map(Value::to_compact),
                Some(scratch("ring", registered)),
                "{tag}: serve lint {{doc}}"
            );
        }
    }

    fn close(self) {
        self.shutdown.shutdown();
        self.serve_thread.join().expect("serve thread").expect("serve result");
    }
}

/// Did the registry flow register `text` (its last load)?
fn load_ok(registry: &SpecRegistry, text: &str) -> bool {
    registry.get(URI).is_some_and(|d| d.source == text)
}

/// Byte offsets of the `*` in every `)*;`, one per spec's trace line.
fn star_sites(doc: &str) -> Vec<usize> {
    doc.match_indices(")*;").map(|(i, _)| i + 1).collect()
}

#[test]
fn an_edit_stream_lints_as_from_scratch_after_every_edit() {
    // `lsp-edit`'s stream: a seeded spec's `)*` becomes `)+` and back.
    // Both denote the same language, but every edit changes that
    // spec's fingerprint, so it is re-elaborated and re-linted.
    let doc = generate(&GenConfig::new(Family::Ring, 10, 1)).expect("generate").document;
    let sites = star_sites(&doc);
    let mut rng = SplitMix64::new(7);
    let mut surfaces = Surfaces::open(&doc);
    let mut text = doc.clone();
    for i in 0..12 {
        let site = sites[rng.below(sites.len() as u64) as usize];
        text.replace_range(site..site + 1, "+");
        surfaces.edit(&format!("edit {i} forth"), &text);
        text.replace_range(site..site + 1, "*");
        surfaces.edit(&format!("edit {i} back"), &text);
    }
    surfaces.close();
}

#[test]
fn span_shifting_and_breaking_edits_lint_as_from_scratch() {
    let doc = generate(&GenConfig::new(Family::Ring, 6, 2)).expect("generate").document;
    let mut surfaces = Surfaces::open(&doc);
    let edits: Vec<(&str, String)> = vec![
        // Every later span moves down a line; no fingerprint changes.
        ("comment line", doc.replacen("universe {", "// a note 🦀\nuniverse {", 1)),
        // The declaration renamed: its uses are now unknown names.
        ("renamed spec", doc.replace("spec Caller1 {", "spec Caller1x {")),
        // ... and every use renamed with it: clean again.
        ("renamed uses", doc.replace("Caller1 ", "Caller1x ").replace("Caller1;", "Caller1x;")),
        ("back", doc.clone()),
        // An unknown class breaks the universe (P002), then is repaired.
        ("broken universe", doc.replace("object o2;", "object o2 : Nope;")),
        ("repaired universe", doc.clone()),
        // A syntax error (P001), then repaired.
        ("parse error", doc.replacen(")*;", ")*", 1)),
        ("parse repaired", doc.clone()),
        // A Def.-1 violation: elaboration of one spec fails (P009), so
        // the version is not registered, but every other spec lints.
        ("def1 violation", doc.replacen("objects { o0 }", "objects { o0 o1 }", 1)),
        ("def1 repaired", doc.clone()),
        // A duplicate spec: registered, but a lint error (P003).
        ("duplicate spec", doc.replacen("development {", "spec Proto0 { objects { o0 } alphabet { <Env, o0, req>; } traces any; }\ndevelopment {", 1)),
        ("shifted and edited", doc.replacen("universe {", "\n\n// two lines\nuniverse {", 1).replacen(")*;", ")+;", 1)),
    ];
    for (tag, text) in &edits {
        assert_ne!(text, &surfaces.text, "{tag}: the edit must change the text");
        surfaces.edit(tag, text);
    }
    surfaces.close();
}

#[test]
fn generated_mutations_lint_as_from_scratch() {
    for family in [Family::Pipeline, Family::Star, Family::Ring, Family::Gossip] {
        for (seed, permille) in [(1, 250), (2, 1000)] {
            let config = GenConfig::new(family, 6, seed).with_mutation_permille(permille);
            let doc = generate(&config).expect("generate").document;
            let surfaces = Surfaces::open(&doc);
            surfaces.close();
        }
    }
}

#[test]
fn shipped_specs_and_fixtures_lint_as_from_scratch() {
    let root: PathBuf = [env!("CARGO_MANIFEST_DIR"), "specs"].iter().collect();
    let mut paths: Vec<PathBuf> = [root.clone(), root.join("lint_fixtures")]
        .iter()
        .flat_map(|dir| std::fs::read_dir(dir).expect("specs dir"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pos"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 7, "{paths:?}");
    let mut texts = paths.iter().map(|p| std::fs::read_to_string(p).expect("read spec"));
    // One document whose versions are the shipped files in turn: each
    // step swaps every declaration.
    let mut surfaces = Surfaces::open(&texts.next().expect("a spec"));
    for (path, text) in paths.iter().skip(1).zip(texts) {
        surfaces.edit(&path.display().to_string(), &text);
    }
    surfaces.close();
}

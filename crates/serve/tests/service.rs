//! End-to-end tests for the refinement-checking service: a real server
//! on an ephemeral port, driven by the blocking [`Client`] over TCP.

use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use pospec_json::{ObjBuilder, Value};
use pospec_serve::{error_kind, response_ok, Client, Server, ServerConfig};

/// The workspace `specs/` directory, resolved relative to this crate.
fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

/// A running server plus the thread driving its accept loop.
struct Fixture {
    addr: String,
    handle: pospec_serve::server::ShutdownHandle,
    thread: thread::JoinHandle<Result<pospec_serve::MetricsSnapshot, String>>,
}

fn start(workers: usize, queue: usize, preload: bool) -> Fixture {
    start_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue,
        preload: preload.then(specs_dir),
        ..ServerConfig::default()
    })
}

fn start_with(config: ServerConfig) -> Fixture {
    let server = Server::bind(&config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.shutdown_handle();
    let thread = thread::spawn(move || server.serve());
    Fixture { addr, handle, thread }
}

impl Fixture {
    fn client(&self) -> Client {
        let client = Client::connect(&self.addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(30))).expect("timeout");
        client
    }

    /// Stop the server and return the final metrics snapshot.
    fn stop(self) -> pospec_serve::MetricsSnapshot {
        self.handle.shutdown();
        self.thread.join().expect("serve thread").expect("serve result")
    }
}

fn op(name: &str) -> ObjBuilder {
    ObjBuilder::new().field("op", name)
}

fn check_request(doc: &str, concrete: &str, abstract_: &str) -> Value {
    op("check").field("doc", doc).field("concrete", concrete).field("abstract", abstract_).build()
}

fn result<'a>(response: &'a Value, key: &str) -> Option<&'a Value> {
    response.get("result").and_then(|r| r.get(key))
}

#[test]
fn full_session_over_tcp() {
    let fixture = start(2, 16, true);
    let mut client = fixture.client();

    // load_spec: register a fresh document from inline source.
    let source = std::fs::read_to_string(specs_dir().join("readers_writers.pos")).expect("spec");
    let response = client
        .call(&op("load_spec").field("name", "rw_live").field("source", source).build())
        .expect("load_spec");
    assert!(response_ok(&response), "load_spec failed: {response:?}");
    assert_eq!(result(&response, "version"), Some(&Value::Num(1.0)));

    // check against the freshly loaded document; ids are echoed back.
    let request = op("check")
        .field("id", 7.0)
        .field("doc", "rw_live")
        .field("concrete", "WriteAcc")
        .field("abstract", "Write")
        .build();
    let response = client.call(&request).expect("check");
    assert!(response_ok(&response));
    assert_eq!(response.get("id"), Some(&Value::Num(7.0)));
    assert_eq!(result(&response, "holds"), Some(&Value::Bool(true)));

    // The same check again must be answered from the registry's
    // pair-verdict cache in O(1) — no automaton work at all.
    let response = client.call(&check_request("rw_live", "WriteAcc", "Write")).expect("recheck");
    assert_eq!(result(&response, "holds"), Some(&Value::Bool(true)));
    assert_eq!(result(&response, "cached"), Some(&Value::Bool(true)));
    let stats_after = client.call(&op("stats").build()).expect("stats");
    let pair_hits = stats_after
        .get("result")
        .and_then(|r| r.get("registry"))
        .and_then(|r| r.get("pair_hits"))
        .and_then(Value::as_f64)
        .expect("pair_hits counter");
    assert!(pair_hits >= 1.0, "repeated check must hit the pair cache: {stats_after:?}");

    // batch_check fans a pair list into the parallel checker.
    let pairs = Value::Arr(vec![
        Value::Arr(vec![Value::from("WriteAcc"), Value::from("Write")]),
        Value::Arr(vec![Value::from("Read"), Value::from("Write")]),
    ]);
    let response = client
        .call(&op("batch_check").field("doc", "readers_writers").field("pairs", pairs).build())
        .expect("batch_check");
    assert!(response_ok(&response));
    assert_eq!(result(&response, "count"), Some(&Value::Num(2.0)));
    assert_eq!(result(&response, "holds_all"), Some(&Value::Bool(false)));

    // compose reports the composite's shape.
    let response = client
        .call(
            &op("compose")
                .field("doc", "readers_writers")
                .field("left", "Read")
                .field("right", "Write")
                .build(),
        )
        .expect("compose");
    assert!(response_ok(&response));
    assert!(result(&response, "objects").is_some());

    // Unknown documents and specs come back as structured not_found.
    let response = client.call(&check_request("no_such_doc", "A", "B")).expect("call");
    assert!(!response_ok(&response));
    assert_eq!(error_kind(&response), Some("not_found"));

    // An expired deadline is reported instead of executed.
    let request = op("ping").field("deadline_ms", 0.0).field("delay_ms", 0.0).build();
    thread::sleep(Duration::from_millis(5));
    let response = client.call(&request).expect("ping");
    // deadline_ms of 0 expires before the worker picks the job up.
    assert!(!response_ok(&response));
    assert_eq!(error_kind(&response), Some("deadline"));

    let snapshot = fixture.stop();
    assert!(snapshot.total_requests() >= 8, "snapshot: {}", snapshot.summary_line());
}

#[test]
fn generated_documents_check_identically_over_tcp() {
    use pospec_gen::{generate, ExpectRefine, Family, GenConfig};

    // A generated known-answer network: the manifest's verdicts were
    // fixed at construction time, so the service, the in-process
    // checker, and the manifest must agree three ways on every pair.
    let config = GenConfig::new(Family::Ring, 16, 3);
    let scenario = generate(&config).expect("generate ring scenario");
    let fixture = start(2, 16, false);
    let mut client = fixture.client();

    let response = client
        .call(
            &op("load_spec")
                .field("name", "generated")
                .field("source", scenario.document.as_str())
                .build(),
        )
        .expect("load_spec");
    assert!(response_ok(&response), "load_spec failed: {response:?}");

    let pairs = Value::Arr(
        scenario
            .manifest
            .refinements
            .iter()
            .map(|e| {
                Value::Arr(vec![
                    Value::from(e.concrete.as_str()),
                    Value::from(e.abstract_.as_str()),
                ])
            })
            .collect(),
    );
    let response = client
        .call(&op("batch_check").field("doc", "generated").field("pairs", pairs).build())
        .expect("batch_check");
    assert!(response_ok(&response), "batch_check failed: {response:?}");
    let rows = result(&response, "verdicts").and_then(Value::as_arr).expect("verdict rows");
    assert_eq!(rows.len(), scenario.manifest.refinements.len());

    let doc = pospec_lang::parse_document(&scenario.document).expect("generated document parses");
    for (entry, row) in scenario.manifest.refinements.iter().zip(rows) {
        let pair = format!("{} ⊒ {}", entry.concrete, entry.abstract_);
        let holds = row.get("holds").and_then(Value::as_bool).expect("holds field");
        let reason = row.get("reason").and_then(Value::as_str);
        let (want_holds, want_reason) = match &entry.expect {
            ExpectRefine::Holds => (true, None),
            ExpectRefine::FailsObjects => (false, Some("objects")),
            ExpectRefine::FailsAlphabet => (false, Some("alphabet")),
            ExpectRefine::FailsTraces { .. } => (false, Some("traces")),
        };
        assert_eq!(holds, want_holds, "{pair}: {row:?}");
        assert_eq!(reason, want_reason, "{pair}: {row:?}");

        // Triangulate against the in-process checker at the service's
        // default depth.
        let c = doc.spec(&entry.concrete).expect("concrete spec");
        let a = doc.spec(&entry.abstract_).expect("abstract spec");
        let local = pospec_core::check_refinement(c, a, 6);
        assert_eq!(local.holds(), holds, "{pair}: service and library disagree");
    }
    fixture.stop();
}

#[test]
fn preload_registers_every_spec_file() {
    let fixture = start(1, 4, true);
    let mut client = fixture.client();
    let response = client.call(&op("stats").build()).expect("stats");
    let documents = result(&response, "registry")
        .and_then(|r| r.get("documents"))
        .and_then(Value::as_arr)
        .expect("documents");
    let names: Vec<&str> =
        documents.iter().filter_map(|d| d.get("name").and_then(Value::as_str)).collect();
    assert!(names.contains(&"readers_writers"), "preloaded docs: {names:?}");
    assert!(names.contains(&"auction"), "preloaded docs: {names:?}");
    fixture.stop();
}

#[test]
fn lint_requests_match_the_library_report_json() {
    let fixture = start(2, 8, true);
    let mut client = fixture.client();

    // Linting a registered document analyses its stored source.
    let response = client.call(&op("lint").field("doc", "readers_writers").build()).expect("lint");
    assert!(response_ok(&response), "lint failed: {response:?}");
    assert_eq!(result(&response, "clean"), Some(&Value::Bool(true)));
    assert_eq!(result(&response, "errors"), Some(&Value::Num(0.0)));

    // Inline source: the response is byte-for-byte the library's
    // report JSON (the CLI's --json `files[]` elements), so the two
    // front-ends can never drift apart.
    let flawed = "universe { class C; object c : C; object srv; method REQ; witnesses C 1; }\n\
                  spec S { objects { srv } alphabet { <C, srv, REQ>; <c, srv, REQ>; } traces any; }\n";
    let response = client.call(&op("lint").field("source", flawed).build()).expect("lint");
    assert!(response_ok(&response));
    let expected =
        pospec_lint::lint_document("<inline>", flawed, &pospec_lint::LintConfig::default());
    assert_eq!(response.get("result"), Some(&expected.to_json()), "serve/CLI JSON parity");
    assert_eq!(result(&response, "clean"), Some(&Value::Bool(false)));
    assert_eq!(result(&response, "warnings"), Some(&Value::Num(1.0)));
    let diag = result(&response, "diagnostics")
        .and_then(Value::as_arr)
        .and_then(|a| a.first())
        .expect("one diagnostic");
    assert_eq!(diag.get("code").and_then(Value::as_str), Some("P101"));

    // deny_warnings is honoured per-request.
    let response = client
        .call(&op("lint").field("source", flawed).field("deny_warnings", true).build())
        .expect("lint");
    assert_eq!(result(&response, "errors"), Some(&Value::Num(1.0)));

    // Unknown documents are structured not_found errors.
    let response = client.call(&op("lint").field("doc", "no_such_doc").build()).expect("lint");
    assert_eq!(error_kind(&response), Some("not_found"));
    fixture.stop();
}

/// `metrics.cache.<key>` of a `stats` reply.
fn cache_counter(client: &mut Client, key: &str) -> u64 {
    let stats = client.call(&op("stats").build()).expect("stats");
    result(&stats, "metrics")
        .and_then(|m| m.get("cache"))
        .and_then(|c| c.get(key))
        .and_then(Value::as_u64)
        .expect("counter")
}

#[test]
fn lint_reuses_registered_automata_and_inline_lints_stay_request_local() {
    use pospec_gen::{generate, Family, GenConfig};

    let scenario = generate(&GenConfig::new(Family::Ring, 12, 5)).expect("generate ring");
    let src = scenario.document.as_str();
    let fixture = start(1, 8, false);
    let mut client = fixture.client();
    let response = client
        .call(&op("load_spec").field("name", "ring").field("source", src).build())
        .expect("load_spec");
    assert!(response_ok(&response), "load_spec failed: {response:?}");
    let batch = Value::Arr(
        scenario
            .manifest
            .refinements
            .iter()
            .map(|r| Value::Arr(vec![r.concrete.as_str().into(), r.abstract_.as_str().into()]))
            .collect(),
    );
    let checked = client
        .call(&op("batch_check").field("doc", "ring").field("pairs", batch).build())
        .expect("batch_check");
    assert!(response_ok(&checked), "batch_check failed: {checked:?}");

    let mut config = pospec_lint::LintConfig::default();
    config.depth = 4;
    let lint = |client: &mut Client, field: &str, value: &str| {
        let request = op("lint").field(field, value).field("depth", 4u64).build();
        let response = client.call(&request).expect("lint");
        assert!(response_ok(&response), "lint failed: {response:?}");
        response.get("result").expect("result").clone()
    };

    // A registered document lints over its own universe: the reply is
    // the from-scratch report, and a second lint builds no automaton.
    let expected = pospec_lint::lint_document("ring", src, &config).to_json();
    let first = lint(&mut client, "doc", "ring");
    assert_eq!(first, expected);
    let (dfa, lift) =
        (cache_counter(&mut client, "dfa_misses"), cache_counter(&mut client, "lift_misses"));
    assert_eq!(lint(&mut client, "doc", "ring"), expected);
    assert_eq!(cache_counter(&mut client, "dfa_misses"), dfa, "second lint rebuilt automata");
    assert_eq!(cache_counter(&mut client, "lift_misses"), lift, "second lint rebuilt lifts");

    // Inline sources lint through a cache of their own: the shared one
    // does not grow, and every reply is the library's report.
    let expected = pospec_lint::lint_document("<inline>", src, &config).to_json();
    for _ in 0..3 {
        assert_eq!(lint(&mut client, "source", src), expected);
    }
    assert_eq!(cache_counter(&mut client, "dfa_misses"), dfa, "inline lints grew the shared cache");
    assert_eq!(cache_counter(&mut client, "lift_misses"), lift);
    fixture.stop();
}

#[test]
fn strict_server_refuses_documents_with_lint_errors() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue: 4,
        strict: true,
        ..ServerConfig::default()
    };
    let server = Server::bind(&config).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.shutdown_handle();
    let thread = thread::spawn(move || server.serve());
    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(30))).expect("timeout");

    // Duplicate spec names parse and elaborate, but lint as P003.
    let broken = "universe { class C; object o; method A; witnesses C 1; }\n\
                  spec S { objects { o } alphabet { <C, o, A>; } traces any; }\n\
                  spec S { objects { o } alphabet { <C, o, A>; } traces any; }\n";
    let response = client
        .call(&op("load_spec").field("name", "broken").field("source", broken).build())
        .expect("load_spec");
    assert!(!response_ok(&response), "strict server must refuse: {response:?}");
    let message = response
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .expect("message");
    assert!(message.contains("P003"), "{message}");

    // Clean documents still load.
    let clean = std::fs::read_to_string(specs_dir().join("readers_writers.pos")).expect("spec");
    let response = client
        .call(&op("load_spec").field("name", "rw").field("source", clean).build())
        .expect("load_spec");
    assert!(response_ok(&response), "clean doc refused: {response:?}");

    handle.shutdown();
    thread.join().expect("serve thread").expect("serve result");
}

#[test]
fn saturated_queue_reports_overloaded_without_panicking() {
    // One worker, queue capacity one: park the worker on a slow ping,
    // fill the single queue slot, and every further submission must be
    // rejected with a structured `overloaded` error.
    let fixture = start(1, 1, false);

    let slow = op("ping").field("delay_ms", 400.0).build();
    let mut blocker = fixture.client();
    let parked = thread::spawn(move || blocker.call(&slow).expect("slow ping"));
    thread::sleep(Duration::from_millis(50));

    let (tx, rx) = mpsc::channel();
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let tx = tx.clone();
            let addr = fixture.addr.clone();
            thread::spawn(move || {
                let client = Client::connect(&addr).expect("connect");
                client.set_timeout(Some(Duration::from_secs(30))).expect("timeout");
                let mut client = client;
                let response =
                    client.call(&op("ping").field("delay_ms", 50.0).build()).expect("ping");
                tx.send(response).expect("send");
            })
        })
        .collect();
    drop(tx);

    let responses: Vec<Value> = rx.iter().collect();
    for handle in clients {
        handle.join().expect("client thread");
    }
    assert_eq!(responses.len(), 8);
    let overloaded = responses.iter().filter(|r| error_kind(r) == Some("overloaded")).count();
    let succeeded = responses.iter().filter(|r| response_ok(r)).count();
    assert!(overloaded > 0, "expected rejections from a cap-1 queue: {responses:?}");
    assert_eq!(overloaded + succeeded, 8, "only ok/overloaded expected: {responses:?}");

    assert!(response_ok(&parked.join().expect("parked thread")));
    let snapshot = fixture.stop();
    assert!(snapshot.total_requests() >= 9);
}

#[test]
fn control_plane_answers_while_workers_are_busy() {
    let fixture = start(1, 1, false);
    let slow = op("ping").field("delay_ms", 300.0).build();
    let mut blocker = fixture.client();
    let parked = thread::spawn(move || blocker.call(&slow).expect("slow ping"));
    thread::sleep(Duration::from_millis(50));

    // stats bypasses the worker queue, so it answers immediately even
    // though the only worker is parked.
    let mut client = fixture.client();
    let response = client.call(&op("stats").build()).expect("stats");
    assert!(response_ok(&response));

    assert!(response_ok(&parked.join().expect("parked thread")));
    fixture.stop();
}

#[test]
fn malformed_lines_get_structured_errors_and_the_connection_survives() {
    let fixture = start(1, 4, false);
    let mut client = fixture.client();

    let response = client.call(&Value::from("just a string")).expect("call");
    assert!(!response_ok(&response));
    assert_eq!(error_kind(&response), Some("bad_request"));

    let response = client.call(&op("check").field("doc", "x").build()).expect("call");
    assert_eq!(error_kind(&response), Some("bad_request"));

    // The connection is still usable after both errors.
    let response = client.call(&op("ping").build()).expect("ping");
    assert!(response_ok(&response));
    fixture.stop();
}

#[test]
fn silent_connections_are_reaped_after_the_idle_timeout() {
    use std::io::Read;
    let fixture = start_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue: 4,
        idle_timeout_ms: 200,
        ..ServerConfig::default()
    });

    // Connect and send nothing: the server must close us, with a
    // structured notice, rather than pin a thread forever.
    let mut raw = std::net::TcpStream::connect(&fixture.addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes).expect("read until server closes");
    let notice = pospec_json::parse(String::from_utf8_lossy(&bytes).trim()).expect("json notice");
    assert_eq!(error_kind(&notice), Some("deadline"), "notice: {notice:?}");

    // A connection that keeps talking is NOT reaped.
    let mut client = fixture.client();
    for _ in 0..3 {
        thread::sleep(Duration::from_millis(100));
        assert!(response_ok(&client.call(&op("ping").build()).expect("ping")));
    }

    let snapshot = fixture.stop();
    assert_eq!(snapshot.idle_reaped, 1, "exactly the silent connection: {snapshot:?}");
}

#[test]
fn oversized_request_lines_are_rejected_with_a_structured_error() {
    use std::io::{BufRead, BufReader, Write};
    let fixture = start_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue: 4,
        max_line_bytes: 256,
        ..ServerConfig::default()
    });

    // A line over the cap is refused even though it never ends in a
    // newline — the slow-loris case `read_line` would buffer forever.
    let mut raw = std::net::TcpStream::connect(&fixture.addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    raw.write_all(&vec![b'a'; 4096]).expect("write oversized");
    raw.flush().expect("flush");
    let mut reader = BufReader::new(raw);
    let mut line = String::new();
    reader.read_line(&mut line).expect("refusal line");
    let refusal = pospec_json::parse(line.trim()).expect("json refusal");
    assert_eq!(error_kind(&refusal), Some("bad_request"), "refusal: {refusal:?}");
    assert!(
        refusal
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains("256 byte")),
        "message names the cap: {refusal:?}"
    );
    // ...and the connection is closed afterwards.
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("eof"), 0);

    // Lines under the cap still work on a fresh connection.
    let mut client = fixture.client();
    assert!(response_ok(&client.call(&op("ping").build()).expect("ping")));

    let snapshot = fixture.stop();
    assert_eq!(snapshot.oversize_rejected, 1, "snapshot: {snapshot:?}");
}

#[test]
fn connections_over_the_cap_are_refused_with_structured_overloaded() {
    use std::io::Read;
    let fixture = start_with(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue: 4,
        max_conns: 1,
        ..ServerConfig::default()
    });

    // First connection occupies the only slot (a ping proves it is
    // fully established, not just queued in the accept backlog).
    let mut first = fixture.client();
    assert!(response_ok(&first.call(&op("ping").build()).expect("ping")));

    // The second is refused with a structured line, then closed.
    let mut raw = std::net::TcpStream::connect(&fixture.addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes).expect("read refusal");
    let refusal = pospec_json::parse(String::from_utf8_lossy(&bytes).trim()).expect("json");
    assert_eq!(error_kind(&refusal), Some("overloaded"), "refusal: {refusal:?}");

    // Dropping the first connection frees the slot for a newcomer.
    drop(first);
    for attempt in 0.. {
        let mut client = fixture.client();
        match client.call(&op("ping").build()) {
            Ok(r) if response_ok(&r) => break,
            _ if attempt < 50 => thread::sleep(Duration::from_millis(20)),
            other => panic!("slot never freed: {other:?}"),
        }
    }

    let snapshot = fixture.stop();
    assert!(snapshot.conns_refused >= 1, "snapshot: {snapshot:?}");
}

#[test]
fn draining_server_answers_queued_requests_with_shutting_down() {
    let fixture = start(1, 4, false);

    // Establish a bystander connection before the shutdown lands.
    let mut bystander = fixture.client();
    assert!(response_ok(&bystander.call(&op("ping").build()).expect("ping")));

    // Shut down via the protocol, as a client would.
    let mut closer = fixture.client();
    let response = closer.call(&op("shutdown").build()).expect("shutdown");
    assert!(response_ok(&response));

    // Wait for the accept loop to exit and the pool to finish draining.
    let snapshot = fixture.thread.join().expect("serve thread").expect("serve result");
    assert!(snapshot.total_requests() >= 2);

    // The bystander's connection is still open; its next request must
    // get a structured `shutting_down`, not a hang or a silent close.
    let response = bystander.call(&op("ping").build()).expect("post-drain call");
    assert!(!response_ok(&response));
    assert_eq!(error_kind(&response), Some("shutting_down"), "response: {response:?}");
}

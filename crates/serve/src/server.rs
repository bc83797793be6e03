//! The TCP accept loop, request execution, and graceful shutdown.
//!
//! One lightweight thread per connection reads newline-delimited JSON
//! requests.  Control-plane operations (`stats`, `clear_cache`,
//! `shutdown`) are answered inline so they stay responsive even when
//! the service is saturated; everything else is submitted to the
//! bounded [`WorkerPool`] and executed on a worker thread, with the
//! connection thread streaming the response back when it arrives.
//! Backpressure is explicit: a full queue answers `overloaded`
//! immediately rather than buffering.
//!
//! Shutdown is graceful by construction: the `shutdown` op (or
//! [`Server::shutdown_handle`]) flips a flag; the accept loop stops
//! taking connections, the pool drains every job it already accepted,
//! and [`Server::serve`] returns a final [`MetricsSnapshot`] for the
//! closing log line.

use crate::metrics::{MetricsSnapshot, ServerMetrics};
use crate::pool::{SubmitError, WorkerPool};
use crate::protocol::{error_response, ok_response, parse_request, Envelope, Request};
use crate::registry::SpecRegistry;
use pospec_alphabet::display_trace;
use pospec_core::refine::FailedCondition;
use pospec_core::{
    check_refinement_batch, check_refinement_cached, compose, DfaCache, PersistentStore,
    Specification, Verdict, DEFAULT_PREDICATE_DEPTH,
};
use pospec_json::{ObjBuilder, Value};
use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Server tunables; every field has a serviceable default.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing heavy requests.
    pub workers: usize,
    /// Bounded queue capacity (pending requests beyond the workers).
    pub queue: usize,
    /// Directory of `*.pos` files to preload into the registry.
    pub preload: Option<PathBuf>,
    /// Refuse to register documents with lint errors (see
    /// [`SpecRegistry::set_strict`]); also applies to the preload.
    pub strict: bool,
    /// Close a connection whose peer sends nothing for this long
    /// (milliseconds; `0` disables the reaper).  Also bounds how long a
    /// response write may block on a dead peer.
    pub idle_timeout_ms: u64,
    /// Longest accepted request line in bytes; a peer exceeding it gets
    /// a structured `bad_request` and is disconnected (slow-loris guard).
    pub max_line_bytes: usize,
    /// Most simultaneously served connections; extra accepts are
    /// answered with a structured `overloaded` refusal and closed.
    pub max_conns: usize,
    /// Directory for the crash-safe persistent automaton cache; entries
    /// are loaded at bind and every build is written through, so a
    /// restarted server comes up warm.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(2);
        ServerConfig {
            addr: "127.0.0.1:7077".into(),
            workers,
            queue: 64,
            preload: None,
            strict: false,
            idle_timeout_ms: 30_000,
            max_line_bytes: 1 << 20,
            max_conns: 1024,
            cache_dir: None,
        }
    }
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    registry: SpecRegistry,
    cache: Arc<DfaCache>,
    metrics: ServerMetrics,
    pool: WorkerPool,
    stopping: AtomicBool,
    /// Connections currently being served (for the accept-time cap).
    active_conns: AtomicUsize,
    idle_timeout: Option<Duration>,
    max_line_bytes: usize,
    max_conns: usize,
}

/// Decrements the live-connection count when a connection thread exits,
/// however it exits.
struct ConnGuard {
    shared: Arc<Shared>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.shared.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A handle that asks a running server to stop accepting and drain.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Request a graceful stop (idempotent).
    pub fn shutdown(&self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
    }
}

/// A bound (but not yet serving) refinement-checking service.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `config.addr`, spawn the worker pool, and preload the
    /// registry.  Nothing is accepted until [`Server::serve`] runs.
    pub fn bind(config: &ServerConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind `{}`: {e}", config.addr))?;
        let shared = Arc::new(Shared {
            registry: SpecRegistry::new(),
            cache: Arc::new(DfaCache::new()),
            metrics: ServerMetrics::new(),
            pool: WorkerPool::new(config.workers, config.queue),
            stopping: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            idle_timeout: (config.idle_timeout_ms > 0)
                .then(|| Duration::from_millis(config.idle_timeout_ms)),
            max_line_bytes: config.max_line_bytes.max(1),
            max_conns: config.max_conns.max(1),
        });
        shared.registry.set_strict(config.strict);
        if let Some(dir) = &config.cache_dir {
            let store = PersistentStore::open(dir)?;
            let s = store.stats();
            eprintln!(
                "cache dir `{}`: {} automaton(s) loaded, {} skipped",
                dir.display(),
                s.loaded,
                s.skipped()
            );
            shared.cache.attach_store(Arc::new(store));
        }
        if let Some(dir) = &config.preload {
            let loaded = shared.registry.preload_dir(dir)?;
            for d in &loaded {
                eprintln!(
                    "preloaded `{}` v{} ({} spec(s))",
                    d.name,
                    d.version,
                    d.spec_names().len()
                );
            }
        }
        Ok(Server { listener, shared })
    }

    /// The actually bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { shared: Arc::clone(&self.shared) }
    }

    /// The server's spec registry (for in-process embedding).
    pub fn registry(&self) -> &SpecRegistry {
        &self.shared.registry
    }

    /// Accept and serve connections until a `shutdown` request (or
    /// [`ShutdownHandle`]) arrives, then drain in-flight work and
    /// return the final metrics snapshot.
    pub fn serve(self) -> Result<MetricsSnapshot, String> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set listener non-blocking: {e}"))?;
        while !self.shared.stopping.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.shared.active_conns.load(Ordering::SeqCst) >= self.shared.max_conns {
                        // Refuse with a structured line instead of a
                        // silent close, so a well-behaved client can
                        // back off and retry.
                        self.shared.metrics.conn_refused();
                        let mut stream = stream;
                        let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                        let refusal = error_response(
                            None,
                            "overloaded",
                            &format!(
                                "connection limit {} reached; retry later",
                                self.shared.max_conns
                            ),
                        );
                        let _ = refusal.write_line(&mut stream);
                        continue;
                    }
                    self.shared.metrics.connection();
                    self.shared.active_conns.fetch_add(1, Ordering::SeqCst);
                    let shared = Arc::clone(&self.shared);
                    let guard = ConnGuard { shared: Arc::clone(&self.shared) };
                    let spawned = std::thread::Builder::new()
                        .name("pospec-serve-conn".into())
                        .spawn(move || {
                            let _guard = guard;
                            handle_connection(stream, &shared);
                        });
                    // `guard` moved into the thread on success; a failed
                    // spawn dropped it (and the slot) already.
                    drop(spawned);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }
        // Drain: the pool finishes every accepted job; connection
        // threads deliver those responses and exit with their peers.
        self.shared.pool.shutdown();
        Ok(self.shared.metrics.snapshot(self.shared.cache.stats()))
    }
}

/// Why [`read_bounded_line`] stopped without producing a line.
enum LineError {
    /// The line exceeded the configured byte cap.
    TooLong,
    /// The read timeout fired with no bytes from the peer.
    Idle,
    /// Any other transport failure.
    Io,
}

/// Read one `\n`-terminated line into `buf` (newline excluded), never
/// buffering more than `max` bytes — the slow-loris guard the plain
/// `read_line` lacks.  Returns `Ok(false)` on clean EOF with an empty
/// buffer; a final unterminated line is returned as `Ok(true)` so a
/// truncated request still gets a structured parse error.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    max: usize,
) -> Result<bool, LineError> {
    loop {
        let available = match reader.fill_buf() {
            Ok(a) => a,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(LineError::Idle)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(LineError::Io),
        };
        if available.is_empty() {
            return Ok(!buf.is_empty());
        }
        match available.iter().position(|b| *b == b'\n') {
            Some(i) => {
                if buf.len() + i > max {
                    return Err(LineError::TooLong);
                }
                buf.extend_from_slice(&available[..i]);
                reader.consume(i + 1);
                return Ok(true);
            }
            None => {
                let n = available.len();
                if buf.len() + n > max {
                    return Err(LineError::TooLong);
                }
                buf.extend_from_slice(available);
                reader.consume(n);
            }
        }
    }
}

/// Serve one connection: read request lines, answer response lines.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    // One knob bounds both directions: a silent peer is reaped by the
    // read timeout, and a peer that stops draining responses cannot
    // wedge a writer forever.
    let _ = stream.set_read_timeout(shared.idle_timeout);
    let _ = stream.set_write_timeout(shared.idle_timeout);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        match read_bounded_line(&mut reader, &mut buf, shared.max_line_bytes) {
            Ok(false) => break, // clean EOF
            Ok(true) => {}
            Err(LineError::Idle) => {
                shared.metrics.idle_reaped();
                let timeout_ms =
                    shared.idle_timeout.map(|d| d.as_millis() as u64).unwrap_or_default();
                let notice = error_response(
                    None,
                    "deadline",
                    &format!("connection idle for {timeout_ms} ms; closing"),
                );
                let _ = notice.write_line(&mut writer);
                break;
            }
            Err(LineError::TooLong) => {
                shared.metrics.oversize_rejected();
                let refusal = error_response(
                    None,
                    "bad_request",
                    &format!(
                        "request line exceeds the {} byte limit; closing",
                        shared.max_line_bytes
                    ),
                );
                let _ = refusal.write_line(&mut writer);
                break;
            }
            Err(LineError::Io) => break, // peer went away mid-line
        }
        let line = String::from_utf8_lossy(&buf);
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_line(&line, shared);
        if response.write_line(&mut writer).is_err() {
            break;
        }
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// Decode and dispatch one request line, producing the response value.
fn handle_line(line: &str, shared: &Arc<Shared>) -> Value {
    let started = Instant::now();
    let envelope = match parse_request(line) {
        Ok(e) => e,
        Err(e) => {
            shared.metrics.error();
            return error_response(None, e.kind, &e.message);
        }
    };
    shared.metrics.request(envelope.req.kind());
    let response = dispatch(envelope, started, shared);
    if response.get("ok") == Some(&Value::Bool(false)) {
        shared.metrics.error();
    }
    shared.metrics.latency(started.elapsed());
    response
}

/// Inline ops answer directly; heavy ops go through the bounded pool.
fn dispatch(envelope: Envelope, started: Instant, shared: &Arc<Shared>) -> Value {
    let id = envelope.id.clone();
    match &envelope.req {
        Request::Stats => {
            let snapshot = shared.metrics.snapshot(shared.cache.stats());
            let result = ObjBuilder::new()
                .field("metrics", snapshot.to_json())
                .field("registry", registry_json(&shared.registry))
                .build();
            ok_response(id.as_ref(), "stats", result)
        }
        Request::ClearCache => {
            let entries = shared.cache.len();
            shared.cache.clear();
            ok_response(
                id.as_ref(),
                "clear_cache",
                ObjBuilder::new().field("dropped", entries).build(),
            )
        }
        Request::Shutdown => {
            shared.stopping.store(true, Ordering::SeqCst);
            ok_response(id.as_ref(), "shutdown", ObjBuilder::new().field("stopping", true).build())
        }
        _ => {
            let (tx, rx) = mpsc::channel::<Value>();
            let shared_for_job = Arc::clone(shared);
            let deadline = envelope.deadline_ms.map(Duration::from_millis);
            let kind = envelope.req.kind();
            let job = Box::new(move || {
                let response = if deadline.is_some_and(|d| started.elapsed() > d) {
                    shared_for_job.metrics.deadline_exceeded();
                    error_response(
                        envelope.id.as_ref(),
                        "deadline",
                        &format!("request expired after {:?} in queue", started.elapsed()),
                    )
                } else {
                    execute(&envelope, &shared_for_job)
                };
                let _ = tx.send(response);
            });
            match shared.pool.try_submit(job) {
                Ok(depth) => {
                    shared.metrics.queue_depth(depth);
                    match rx.recv() {
                        Ok(response) => response,
                        // The worker panicked mid-request and dropped the
                        // sender; the request is lost but the service lives.
                        Err(_) => error_response(
                            id.as_ref(),
                            "internal",
                            &format!("worker failed while executing `{kind}`"),
                        ),
                    }
                }
                Err(SubmitError::Overloaded { queued }) => {
                    shared.metrics.overloaded();
                    error_response(
                        id.as_ref(),
                        "overloaded",
                        &format!("queue full ({queued} request(s) queued); retry later"),
                    )
                }
                Err(SubmitError::ShuttingDown) => error_response(
                    id.as_ref(),
                    "shutting_down",
                    "server is draining; reconnect later",
                ),
            }
        }
    }
}

/// Execute a heavy request on a worker thread.
fn execute(envelope: &Envelope, shared: &Arc<Shared>) -> Value {
    let id = envelope.id.as_ref();
    match &envelope.req {
        Request::LoadSpec { name, source } => match shared.registry.load_source(name, source) {
            Ok(outcome) => {
                let doc = &outcome.entry;
                let strs =
                    |v: &[String]| Value::Arr(v.iter().map(|s| Value::from(s.as_str())).collect());
                let pairs = |v: &[(String, String)]| {
                    Value::Arr(
                        v.iter()
                            .map(|(c, a)| {
                                Value::Arr(vec![Value::from(c.as_str()), Value::from(a.as_str())])
                            })
                            .collect(),
                    )
                };
                ok_response(
                    id,
                    "load_spec",
                    ObjBuilder::new()
                        .field("name", doc.name.as_str())
                        .field("version", doc.version)
                        .field(
                            "specs",
                            Value::Arr(doc.spec_names().into_iter().map(Value::from).collect()),
                        )
                        .field("universe_reused", outcome.universe_reused)
                        .field("reelaborated", strs(&outcome.reelaborated))
                        .field("reused", strs(&outcome.reused))
                        .field("dirty_pairs", pairs(&outcome.dirty_pairs))
                        .field("clean_pairs", pairs(&outcome.clean_pairs))
                        .build(),
                )
            }
            Err(e) => error_response(id, "parse", &e),
        },
        Request::Check { doc, concrete, abstract_, depth } => {
            let entry = match shared.registry.get(doc) {
                Some(d) => d,
                None => return NotFound::doc(doc).into_response(id),
            };
            let (c, a) = match (entry.doc.spec(concrete), entry.doc.spec(abstract_)) {
                (Some(c), Some(a)) => (c, a),
                (None, _) => return NotFound::spec(doc, concrete).into_response(id),
                (_, None) => return NotFound::spec(doc, abstract_).into_response(id),
            };
            // The registry's pair cache answers repeats of the same
            // (doc, pair, depth) in O(1) until either endpoint's
            // fingerprint changes; misses fall through to the DFA path.
            let (verdict, cached) = match shared.registry.check_pair_cached(
                &entry,
                concrete,
                abstract_,
                *depth,
                &shared.cache,
            ) {
                Some(r) => r,
                None => (check_refinement_cached(&shared.cache, c, a, *depth), false),
            };
            let mut json = verdict_json(c, a, &verdict);
            if let Value::Obj(fields) = &mut json {
                fields.push(("cached".to_string(), Value::Bool(cached)));
            }
            ok_response(id, "check", json)
        }
        Request::BatchCheck { doc, pairs, depth } => {
            let entry = match shared.registry.get(doc) {
                Some(d) => d,
                None => return NotFound::doc(doc).into_response(id),
            };
            let mut resolved: Vec<(&Specification, &Specification)> = Vec::new();
            for (c, a) in pairs {
                match (entry.doc.spec(c), entry.doc.spec(a)) {
                    (Some(c), Some(a)) => resolved.push((c, a)),
                    (None, _) => return NotFound::spec(doc, c).into_response(id),
                    (_, None) => return NotFound::spec(doc, a).into_response(id),
                }
            }
            let verdicts = check_refinement_batch(&shared.cache, &resolved, *depth);
            let all_hold = verdicts.iter().all(Verdict::holds);
            let rows: Vec<Value> =
                resolved.iter().zip(&verdicts).map(|((c, a), v)| verdict_json(c, a, v)).collect();
            ok_response(
                id,
                "batch_check",
                ObjBuilder::new()
                    .field("count", rows.len())
                    .field("holds_all", all_hold)
                    .field("verdicts", Value::Arr(rows))
                    .build(),
            )
        }
        Request::Compose { doc, left, right, deadlock } => {
            let entry = match shared.registry.get(doc) {
                Some(d) => d,
                None => return NotFound::doc(doc).into_response(id),
            };
            let (l, r) = match (entry.doc.spec(left), entry.doc.spec(right)) {
                (Some(l), Some(r)) => (l, r),
                (None, _) => return NotFound::spec(doc, left).into_response(id),
                (_, None) => return NotFound::spec(doc, right).into_response(id),
            };
            match compose(l, r) {
                Err(e) => error_response(id, "bad_request", &e.to_string()),
                Ok(composed) => {
                    let mut b = ObjBuilder::new()
                        .field("name", composed.name())
                        .field("objects", composed.objects().len())
                        .field("alphabet_granules", composed.alphabet().granule_count());
                    if *deadlock {
                        // Through the server's cache, which holds the
                        // operand lifts for the next compose as well.
                        let dfa = shared.cache.traceset_dfa(
                            composed.universe(),
                            composed.trace_set(),
                            composed.alphabet(),
                            DEFAULT_PREDICATE_DEPTH,
                        );
                        b = b.field("deadlocked", dfa.accepts_only_epsilon());
                    }
                    ok_response(id, "compose", b.build())
                }
            }
        }
        Request::Lint { doc, source, depth, deny_warnings } => {
            let mut config = pospec_lint::LintConfig::default();
            config.depth = *depth;
            config.deny_warnings = *deny_warnings;
            let report = match (doc, source) {
                // A registered version is linted over its own universe
                // and specs through the shared cache, so lint reuses the
                // automata `check` built, and a repeated lint builds none.
                (Some(name), None) => match shared.registry.get(name) {
                    Some(d) => pospec_lint::lint_elaborated(
                        &d.name,
                        &d.source,
                        d.front_end().as_ref(),
                        &config,
                        &shared.cache,
                    ),
                    None => return NotFound::doc(name).into_response(id),
                },
                // An inline source elaborates a universe of its own, which
                // the shared cache could never hit again: it gets a cache
                // of its own, dropped with the request.
                (None, Some(src)) => pospec_lint::lint_document("<inline>", src, &config),
                // parse_request guarantees exactly one of the two.
                _ => return error_response(id, "bad_request", "lint needs `doc` xor `source`"),
            };
            ok_response(id, "lint", report.to_json())
        }
        Request::Ping { delay_ms } => {
            if *delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(*delay_ms));
            }
            ok_response(id, "ping", ObjBuilder::new().field("pong", true).build())
        }
        // Inline ops never reach the pool.
        Request::Stats | Request::ClearCache | Request::Shutdown => {
            error_response(id, "internal", "control op routed to a worker")
        }
    }
}

/// `not_found` error detail for a missing document or spec.
struct NotFound {
    message: String,
}

impl NotFound {
    fn doc(doc: &str) -> NotFound {
        NotFound { message: format!("no document `{doc}` registered (load_spec it first)") }
    }

    fn spec(doc: &str, spec: &str) -> NotFound {
        NotFound { message: format!("document `{doc}` has no spec `{spec}`") }
    }

    fn into_response(self, id: Option<&Value>) -> Value {
        error_response(id, "not_found", &self.message)
    }
}

/// Serialise a refinement verdict (with names and explanation).
fn verdict_json(concrete: &Specification, abstract_: &Specification, v: &Verdict) -> Value {
    let mut b = ObjBuilder::new()
        .field("concrete", concrete.name())
        .field("abstract", abstract_.name())
        .field("holds", v.holds());
    match v {
        Verdict::Holds { exact } => b = b.field("exact", *exact),
        Verdict::Fails { reason, counterexample } => {
            let reason = match reason {
                FailedCondition::Objects => "objects",
                FailedCondition::Alphabet => "alphabet",
                FailedCondition::Traces => "traces",
            };
            b = b.field("reason", reason);
            if let Some(cex) = counterexample {
                b = b.field("counterexample", display_trace(concrete.universe(), cex).to_string());
            }
        }
    }
    b.field("explanation", pospec_check::explain_verdict(concrete, abstract_, v)).build()
}

fn registry_json(registry: &SpecRegistry) -> Value {
    let docs: Vec<Value> = registry
        .list()
        .into_iter()
        .map(|(name, version, specs)| {
            ObjBuilder::new()
                .field("name", name)
                .field("version", version)
                .field("specs", specs)
                .build()
        })
        .collect();
    ObjBuilder::new()
        .field("documents", Value::Arr(docs))
        .field("spec_count", registry.spec_count())
        .field("loads", registry.loads())
        .field("elaborations", registry.elaborations())
        .field("spec_reuses", registry.spec_reuses())
        .field("pair_checks", registry.pair_checks())
        .field("pair_hits", registry.pair_hits())
        .build()
}

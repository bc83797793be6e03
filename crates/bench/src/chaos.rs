#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! CHAOS — the network-fault and restart campaign of EXPERIMENTS.md.
//!
//! Two legs, both fully deterministic from a seed:
//!
//! 1. **Fault injection.**  A [`ChaosProxy`] sits between a retrying
//!    [`Client`] and an in-process hardened server and mistreats traffic
//!    chunk by chunk — delaying, dropping the connection, or truncating
//!    a chunk mid-line before closing.  Every fate is a pure function of
//!    `(seed, connection, direction, chunk)`, the same SplitMix64
//!    discipline as the simulator's fault plans, so a failing campaign
//!    replays exactly.  The gate: across fault rates up to 10 %, every
//!    request ends in a **correct verdict or a structured error** —
//!    never a wrong verdict, and never a hang (the client's socket
//!    timeout plus a finite retry budget make hangs impossible by
//!    construction).
//!
//! 2. **Restart.**  A server cycle with `--cache-dir` builds the check
//!    matrix cold (write-through to the persistent store), shuts down,
//!    and a **fresh** server over the same directory answers the same
//!    matrix warm from disk.  The gate: identical verdicts, and the warm
//!    cycle's `dfa_hits + lift_hits` and `disk_hits` both positive —
//!    the automata really came from the store, not from a rebuild.

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use pospec_json::{ObjBuilder, Value};
use pospec_serve::{error_kind, response_ok, Client, RetryPolicy, Server, ServerConfig};

use crate::service::{SPEC_NAMES, SPEC_SOURCE};

/// Check depth of the campaign (same as the SERVE campaign).
pub const DEPTH: usize = 6;

/// Fault rates the campaign sweeps, in permil of chunks (0–10 %).
pub const FAULT_PERMIL: [u16; 4] = [0, 25, 50, 100];

/// SplitMix64 finalizer — duplicated from the simulator's fault plans
/// so the proxy stays dependency-free and byte-compatible in spirit.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-chunk fault probabilities in permil (out of 1000).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosRates {
    /// Close both directions without forwarding the chunk.
    pub drop: u16,
    /// Forward a prefix of the chunk, then close mid-line.
    pub truncate: u16,
    /// Hold the chunk up to 25 ms before forwarding it intact.
    pub delay: u16,
}

impl ChaosRates {
    /// Split a total fault budget: a quarter drops, a quarter
    /// truncates, the rest delays.
    pub fn scaled(permil: u16) -> ChaosRates {
        ChaosRates { drop: permil / 4, truncate: permil / 4, delay: permil - 2 * (permil / 4) }
    }

    /// Sum of all fault probabilities.
    pub fn total(&self) -> u16 {
        self.drop + self.truncate + self.delay
    }
}

/// What the proxy decided to do with one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Deliver,
    Delay(Duration),
    Truncate,
    Drop,
}

/// The seeded fate of chunk `chunk` of direction `dir` (0 = client →
/// server) on connection `conn` — a pure function, so a campaign replays.
fn chunk_fate(rates: ChaosRates, seed: u64, conn: u64, dir: u64, chunk: u64) -> Fate {
    let roll = mix(seed ^ mix((conn << 20) | (dir << 40) | chunk));
    let r = (roll % 1000) as u16;
    if r < rates.drop {
        Fate::Drop
    } else if r < rates.drop + rates.truncate {
        Fate::Truncate
    } else if r < rates.total() {
        Fate::Delay(Duration::from_millis(1 + (roll >> 10) % 25))
    } else {
        Fate::Deliver
    }
}

/// A deterministic fault-injecting TCP proxy.
///
/// Listens on an ephemeral local port and forwards every accepted
/// connection to `upstream`, one pump thread per direction, applying
/// `chunk_fate` to each read chunk.  Dropping the proxy stops the
/// accept loop; in-flight pump threads die with their sockets.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Start proxying to `upstream` with the given fault rates.
    pub fn start(upstream: &str, rates: ChaosRates, seed: u64) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let upstream = upstream.to_string();
        let accept_thread = thread::spawn(move || {
            let mut conn = 0u64;
            while !stop_flag.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((down, _)) => {
                        let id = conn;
                        conn += 1;
                        let upstream = upstream.clone();
                        thread::spawn(move || proxy_connection(down, &upstream, rates, seed, id));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(ChaosProxy { addr, stop, accept_thread: Some(accept_thread) })
    }

    /// The address clients should dial instead of the upstream.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn proxy_connection(down: TcpStream, upstream: &str, rates: ChaosRates, seed: u64, conn: u64) {
    let Ok(up) = TcpStream::connect(upstream) else {
        let _ = down.shutdown(Shutdown::Both);
        return;
    };
    let _ = down.set_nodelay(true);
    let _ = up.set_nodelay(true);
    // Bound pump reads so a wedged peer cannot strand the thread.
    let _ = down.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = up.set_read_timeout(Some(Duration::from_secs(30)));
    let (Ok(down_w), Ok(up_r)) = (down.try_clone(), up.try_clone()) else {
        return;
    };
    let forward = thread::spawn(move || pump(down, up, rates, seed, conn, 0));
    pump(up_r, down_w, rates, seed, conn, 1);
    let _ = forward.join();
}

/// Copy `src` to `dst` chunk by chunk under the fault plan.  Any fault
/// that damages a chunk closes **both** directions: a half-mangled
/// stream must look like a dead connection, not a quiet corruption.
fn pump(mut src: TcpStream, mut dst: TcpStream, rates: ChaosRates, seed: u64, conn: u64, dir: u64) {
    let mut chunk = 0u64;
    let mut buf = [0u8; 1024];
    loop {
        let n = match src.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let fate = chunk_fate(rates, seed, conn, dir, chunk);
        chunk += 1;
        match fate {
            Fate::Deliver => {
                if dst.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Fate::Delay(pause) => {
                thread::sleep(pause);
                if dst.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Fate::Truncate => {
                let _ = dst.write_all(&buf[..n / 2]);
                break;
            }
            Fate::Drop => break,
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

/// Outcome counts of one fault rate over the full check matrix.
#[derive(Debug, Clone)]
pub struct RateOutcome {
    /// Total chunk-fault probability, in permil.
    pub fault_permil: u16,
    /// Requests attempted (the ordered spec-pair matrix).
    pub requests: usize,
    /// Responses whose verdict matched the in-process checker.
    pub correct: usize,
    /// Structured protocol errors (a known `error.kind`).
    pub structured_errors: usize,
    /// Transport failures surviving the whole retry budget.
    pub transport_errors: usize,
    /// Responses with a *wrong* verdict — must stay zero.
    pub wrong: usize,
}

impl RateOutcome {
    /// This rate's row of the `CHAOS` report object.
    pub fn to_json(&self) -> Value {
        ObjBuilder::new()
            .field("fault_permil", u64::from(self.fault_permil))
            .field("requests", self.requests)
            .field("correct", self.correct)
            .field("structured_errors", self.structured_errors)
            .field("transport_errors", self.transport_errors)
            .field("wrong", self.wrong)
            .build()
    }
}

/// Cache counters of one serve cycle, read over the wire via `stats`.
#[derive(Debug, Clone, Copy, Default)]
struct CycleCache {
    dfa_hits: u64,
    lift_hits: u64,
    disk_hits: u64,
    disk_writes: u64,
}

/// Result of the kill-and-restart leg.
#[derive(Debug, Clone)]
pub struct RestartSummary {
    /// Ordered pairs checked per cycle.
    pub pairs: usize,
    /// Did the warm cycle reproduce the cold cycle's verdicts exactly?
    pub verdicts_identical: bool,
    /// Automata the cold cycle persisted to disk.
    pub cold_disk_writes: u64,
    /// Warm-cycle cache hits served from the persistent store.
    pub warm_disk_hits: u64,
    /// Warm-cycle DFA cache hits (disk-served hits included).
    pub warm_dfa_hits: u64,
    /// Warm-cycle lift cache hits (disk-served hits included).
    pub warm_lift_hits: u64,
}

impl RestartSummary {
    /// The restart acceptance gate: same verdicts, and the warm cycle
    /// demonstrably answered from disk.
    pub fn gates_pass(&self) -> bool {
        self.verdicts_identical
            && self.cold_disk_writes > 0
            && self.warm_disk_hits > 0
            && self.warm_dfa_hits + self.warm_lift_hits > 0
    }

    /// The `"restart"` object of the CHAOS report.
    pub fn to_json(&self) -> Value {
        ObjBuilder::new()
            .field("pairs", self.pairs)
            .field("verdicts_identical", self.verdicts_identical)
            .field("cold_disk_writes", self.cold_disk_writes)
            .field("warm_disk_hits", self.warm_disk_hits)
            .field("warm_dfa_hits", self.warm_dfa_hits)
            .field("warm_lift_hits", self.warm_lift_hits)
            .field("gates_pass", self.gates_pass())
            .build()
    }
}

/// Aggregate result of both chaos legs.
#[derive(Debug, Clone)]
pub struct ChaosSummary {
    /// Seed every fault decision derives from.
    pub seed: u64,
    /// One outcome row per entry of [`FAULT_PERMIL`].
    pub rates: Vec<RateOutcome>,
    /// The kill-and-restart leg.
    pub restart: RestartSummary,
}

impl ChaosSummary {
    /// The combined acceptance gate: no wrong verdict at any fault
    /// rate, a clean zero-fault baseline, and a disk-warm restart.
    pub fn gates_pass(&self) -> bool {
        let no_lies = self.rates.iter().all(|r| r.wrong == 0);
        let baseline_clean = self
            .rates
            .iter()
            .find(|r| r.fault_permil == 0)
            .is_some_and(|r| r.correct == r.requests);
        no_lies && baseline_clean && self.restart.gates_pass()
    }

    /// The `"CHAOS"` object of `paper_report.json`.
    pub fn to_json(&self) -> Value {
        ObjBuilder::new()
            .field("seed", self.seed)
            .field("rates", self.rates.iter().map(RateOutcome::to_json).collect::<Vec<_>>())
            .field("restart", self.restart.to_json())
            .field("gates_pass", self.gates_pass())
            .build()
    }
}

fn check_request(concrete: &str, abstract_: &str) -> Value {
    ObjBuilder::new()
        .field("op", "check")
        .field("doc", "readers_writers")
        .field("concrete", concrete)
        .field("abstract", abstract_)
        .field("depth", DEPTH as u64)
        .build()
}

/// The matrix verdicts from the in-process checker — the oracle every
/// over-the-wire response is compared against.
fn reference_verdicts() -> Vec<bool> {
    let doc = pospec_lang::parse_document(SPEC_SOURCE).expect("paper spec parses");
    let mut out = Vec::new();
    for concrete in SPEC_NAMES {
        for abstract_ in SPEC_NAMES {
            let c = doc.spec(concrete).expect("spec");
            let a = doc.spec(abstract_).expect("spec");
            out.push(pospec_core::check_refinement(c, a, DEPTH).holds());
        }
    }
    out
}

/// The closed error-kind vocabulary of the wire protocol; anything else
/// in a failure response counts as *wrong*, not merely unlucky.
const KNOWN_ERROR_KINDS: [&str; 7] =
    ["bad_request", "parse", "not_found", "overloaded", "deadline", "shutting_down", "internal"];

fn load_paper_doc(client: &mut Client) {
    let load = ObjBuilder::new()
        .field("op", "load_spec")
        .field("name", "readers_writers")
        .field("source", SPEC_SOURCE)
        .build();
    let response = client.call(&load).expect("load_spec");
    assert!(response_ok(&response), "load_spec failed: {response:?}");
}

/// Run the fault-rate sweep: the full check matrix through the chaos
/// proxy at each rate of [`FAULT_PERMIL`], via a retrying client.
fn run_rates(seed: u64, reference: &[bool]) -> Vec<RateOutcome> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue: 32,
        ..ServerConfig::default()
    };
    let server = Server::bind(&config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.shutdown_handle();
    let serving = thread::spawn(move || server.serve());

    let mut direct = Client::connect(&addr).expect("connect");
    direct.set_timeout(Some(Duration::from_secs(30))).expect("timeout");
    load_paper_doc(&mut direct);
    drop(direct);

    let mut outcomes = Vec::new();
    for permil in FAULT_PERMIL {
        let proxy = ChaosProxy::start(&addr, ChaosRates::scaled(permil), seed ^ u64::from(permil))
            .expect("start proxy");
        let mut client = Client::connect(&proxy.addr()).expect("connect via proxy");
        // A finite socket timeout plus a finite retry budget: a hang is
        // impossible by construction, the strongest gate of the leg.
        client.set_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let policy = RetryPolicy {
            attempts: 6,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(100),
            seed,
        };
        let mut outcome = RateOutcome {
            fault_permil: permil,
            requests: 0,
            correct: 0,
            structured_errors: 0,
            transport_errors: 0,
            wrong: 0,
        };
        for (i, (concrete, abstract_)) in
            SPEC_NAMES.iter().flat_map(|c| SPEC_NAMES.iter().map(move |a| (*c, *a))).enumerate()
        {
            outcome.requests += 1;
            match client.call_retrying(&check_request(concrete, abstract_), &policy, false) {
                Ok(response) if response_ok(&response) => {
                    let holds = response
                        .get("result")
                        .and_then(|r| r.get("holds"))
                        .and_then(Value::as_bool);
                    if holds == Some(reference[i]) {
                        outcome.correct += 1;
                    } else {
                        outcome.wrong += 1;
                    }
                }
                Ok(response) => {
                    let known =
                        error_kind(&response).is_some_and(|k| KNOWN_ERROR_KINDS.contains(&k));
                    if known {
                        outcome.structured_errors += 1;
                    } else {
                        outcome.wrong += 1;
                    }
                }
                Err(_) => outcome.transport_errors += 1,
            }
        }
        outcomes.push(outcome);
    }

    handle.shutdown();
    serving.join().expect("serve thread").expect("serve result");
    outcomes
}

/// One serve cycle over `cache_dir`: fresh server, load the paper
/// document, run the matrix, read the cache counters, shut down.
fn serve_cycle(cache_dir: &Path) -> (Vec<bool>, CycleCache) {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue: 32,
        cache_dir: Some(cache_dir.to_path_buf()),
        ..ServerConfig::default()
    };
    let server = Server::bind(&config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.shutdown_handle();
    let serving = thread::spawn(move || server.serve());

    let mut client = Client::connect(&addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(30))).expect("timeout");
    load_paper_doc(&mut client);
    let mut holds = Vec::new();
    for concrete in SPEC_NAMES {
        for abstract_ in SPEC_NAMES {
            let response = client.call(&check_request(concrete, abstract_)).expect("check");
            assert!(response_ok(&response), "cycle check failed: {response:?}");
            holds.push(
                response
                    .get("result")
                    .and_then(|r| r.get("holds"))
                    .and_then(Value::as_bool)
                    .expect("holds field"),
            );
        }
    }
    let stats = client.call(&ObjBuilder::new().field("op", "stats").build()).expect("stats");
    let counter = |name: &str| {
        stats
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(|m| m.get("cache"))
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("missing cache counter `{name}`"))
    };
    let cache = CycleCache {
        dfa_hits: counter("dfa_hits"),
        lift_hits: counter("lift_hits"),
        disk_hits: counter("disk_hits"),
        disk_writes: counter("disk_writes"),
    };
    drop(client);
    handle.shutdown();
    serving.join().expect("serve thread").expect("serve result");
    (holds, cache)
}

/// The restart leg alone: a cold cycle that persists its automata, then
/// a fresh server over the same directory answering warm from disk.
/// Write-through happens at build time, so the store survives even a
/// `kill -9` instead of this graceful shutdown (CI exercises that path).
fn run_restart(seed: u64) -> RestartSummary {
    let dir =
        std::env::temp_dir().join(format!("pospec-chaos-cache-{}-{seed:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (cold_holds, cold) = serve_cycle(&dir);
    let (warm_holds, warm) = serve_cycle(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    RestartSummary {
        pairs: cold_holds.len(),
        verdicts_identical: cold_holds == warm_holds,
        cold_disk_writes: cold.disk_writes,
        warm_disk_hits: warm.disk_hits,
        warm_dfa_hits: warm.dfa_hits,
        warm_lift_hits: warm.lift_hits,
    }
}

/// Run the whole campaign: the fault-rate sweep and the restart leg.
pub fn run_chaos(seed: u64) -> ChaosSummary {
    let reference = reference_verdicts();
    let rates = run_rates(seed, &reference);
    let restart = run_restart(seed);
    ChaosSummary { seed, rates, restart }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_fates_are_deterministic_and_rate_faithful() {
        let rates = ChaosRates::scaled(100);
        assert_eq!(rates.total(), 100);
        let a = chunk_fate(rates, 7, 3, 0, 11);
        let b = chunk_fate(rates, 7, 3, 0, 11);
        assert_eq!(a, b, "same coordinates, same fate");
        // At rate 0, every chunk is delivered untouched.
        for chunk in 0..200 {
            assert_eq!(chunk_fate(ChaosRates::default(), 7, 0, 0, chunk), Fate::Deliver);
        }
        // At full fault budget the sweep must actually injure chunks.
        let injured = (0..200)
            .filter(|&c| chunk_fate(ChaosRates::scaled(1000), 7, 0, 0, c) != Fate::Deliver)
            .count();
        assert_eq!(injured, 200, "rate 1000 permil must hit every chunk");
    }

    #[test]
    fn chaos_campaign_never_hangs_and_never_lies() {
        let summary = run_chaos(0xC4A0_5EED);
        for rate in &summary.rates {
            assert_eq!(rate.wrong, 0, "wrong verdicts at {} permil", rate.fault_permil);
            assert_eq!(rate.requests, 25);
        }
        let calm = &summary.rates[0];
        assert_eq!(calm.correct, calm.requests, "zero-fault baseline must be all-correct");
        assert!(summary.restart.gates_pass(), "restart gate failed: {:?}", summary.restart);
        assert!(summary.gates_pass());
    }
}

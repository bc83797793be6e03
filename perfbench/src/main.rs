//! `perfbench` — the repository benchmark: four workloads over pospec's
//! three verdict surfaces (the library, `pospec lsp`, `pospec serve`),
//! every output checked against a known answer.
//!
//! ```text
//! perfbench --pospec PATH --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//! perfbench --pospec PATH --smoke
//! ```
//!
//! Each workload runs in a child process of its own, so its peak memory
//! is its own, placed on the CPUs `Workload::placement` picks.  The last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  A
//! traced run also writes its spans to `DIR/trace-<workload>-s<seed>.json`.
//! See `BENCHMARK.md` next to this package for the workloads and metrics.

mod child;
mod known;
mod lsp_edit;
mod measure;
mod paper_rw;
mod replay;
mod report;
mod ring_verify;
mod serve_mix;

use measure::{median, ratio, Budget};
use pospec_json::{ObjBuilder, Value};
use report::Outcome;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// What every workload gets: the seed, the budget, and where things are.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
    pub pospec: PathBuf,
    pub epoch: Instant,
    /// Read peak RSS once this many operations are done, so the figure
    /// does not grow with how many operations a faster build fits into
    /// the run.
    pub rss_after: u64,
}

impl Ctx {
    fn new(cli: &Cli, w: Workload, traced: bool, smoke: bool) -> Ctx {
        Ctx {
            seed: cli.seed,
            seconds: if smoke { 1 } else { cli.seconds },
            traced,
            smoke,
            pospec: cli.pospec.clone(),
            epoch: Instant::now(),
            rss_after: w.tail().1 as u64,
        }
    }

    /// The measured loop's budget; smoke runs stop after `smoke_ops`.
    pub fn budget(&self, smoke_ops: u64) -> Budget {
        Budget::new(self.seconds, self.smoke.then_some(smoke_ops))
    }

    /// How many times set-up is repeated (its median is `setup_s`).
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.smoke {
            2
        } else {
            full
        }
    }

    /// Is operation `i` of a traced run traced?  Traced runs alternate,
    /// so the untraced half measures what the tracing costs.
    pub fn trace_op(&self, i: u64) -> bool {
        self.traced && i.is_multiple_of(2)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperRw,
    RingVerify,
    LspEdit,
    ServeMix,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::PaperRw, Workload::RingVerify, Workload::LspEdit, Workload::ServeMix];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperRw => "paper-rw",
            Workload::RingVerify => "ring-verify",
            Workload::LspEdit => "lsp-edit",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// The tail percentile the trace file's `op_tail_ms` reports, and the
    /// block of operations that and `ops_per_s` are taken over: a few
    /// seconds of work with ten or more samples beyond the percentile (a
    /// pool cycle for `ring-verify`).  p90 where latencies are one
    /// population; for `serve-mix` the middle of its slowest 5%, the
    /// `load_spec` writes: p95 and p99 sit on the edges of that band and
    /// jump between runs.
    fn tail(self) -> (f64, usize) {
        match self {
            Workload::PaperRw => (0.90, 100),
            Workload::RingVerify => (0.90, ring_verify::POOL as usize),
            Workload::LspEdit => (0.90, 200),
            Workload::ServeMix => (0.975, 400),
        }
    }

    /// The CPU to pin the workload process (and the `pospec` child it
    /// starts) to, given the CPUs `taskset` can pin to.  Single-threaded
    /// work is pinned: left free to migrate between the two vCPUs of a
    /// small VM it ran at one of two speeds chosen at random per run
    /// (`lsp-edit` p50 24 or 35 ms, `ring-verify` tails up to 790 ms).
    /// The editor and `pospec lsp` share their CPU, as only one of them
    /// works at a time: on two, every edit waits twice for an idle vCPU
    /// to wake, and some runs took a third longer.  The server keeps every
    /// CPU for its two workers; pinned to one, they time-share it and
    /// check latency follows the scheduler.
    fn placement(self, cpus: &[usize]) -> Option<usize> {
        match (self, cpus) {
            (Workload::ServeMix, _) | (_, [] | [_]) => None,
            (_, [first, ..]) => Some(*first),
        }
    }

    fn run(self, ctx: &Ctx) -> Outcome {
        match self {
            Workload::PaperRw => paper_rw::run(ctx),
            Workload::RingVerify => ring_verify::run(ctx),
            Workload::LspEdit => lsp_edit::run(ctx),
            Workload::ServeMix => serve_mix::run(ctx),
        }
    }
}

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    pospec: PathBuf,
    out_dir: PathBuf,
    /// Set on the child process that runs the workload (internal).
    child: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 15,
        trace: false,
        smoke: false,
        pospec: PathBuf::from("target/release/pospec"),
        out_dir: PathBuf::from("."),
        child: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.smoke = true;
            continue;
        }
        if flag == "--child" {
            cli.child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("bad value `{value}` for `{flag}`"));
        match flag.as_str() {
            "--workload" => {
                cli.workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => cli.seed = number()?,
            "--seconds" => cli.seconds = number()?.max(1),
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
                }
            }
            "--pospec" => cli.pospec = PathBuf::from(value),
            "--out-dir" => cli.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if cli.workload.is_none() && !cli.smoke {
        return Err("`--workload` is required (or `--smoke`)".into());
    }
    Ok(cli)
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn meta(ctx: &Ctx) -> Value {
    ObjBuilder::new()
        .field("schema", "pospec-bench/1")
        .field("commit", commit())
        .field("profile", if cfg!(debug_assertions) { "debug" } else { "release" })
        .field("rustc", env!("PERFBENCH_RUSTC"))
        .field(
            "nproc",
            cpu_list(
                &std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default(),
            )
            .len(),
        )
        .field("cpus_allowed", allowed_cpus())
        .field("seed", ctx.seed)
        .field("seconds", ctx.seconds)
        .field("traced", ctx.traced)
        .build()
}

/// Run one workload and print its result line.
fn measure(cli: &Cli, w: Workload) -> ExitCode {
    let ctx = Ctx::new(cli, w, cli.trace, false);
    let mut out = w.run(&ctx);
    for line in &out.wrong {
        eprintln!("wrong: {line}");
    }
    let (tail_q, block) = w.tail();
    let e2e = report::end_to_end(&out, block);
    let metrics = if ctx.traced {
        out.detail.insert("op_tail_ms", report::tail_ms(&out, tail_q, block));
        let layers = report::per_layer(&out);
        let traced = median(&out.latencies(true));
        let overhead = 100.0 * (ratio(traced, median(&out.latencies(false))) - 1.0);
        let doc = report::trace_document(meta(&ctx), w.name(), &out, &e2e, &layers, overhead);
        let path = cli.out_dir.join(format!("trace-{}-s{}.json", w.name(), ctx.seed));
        if let Err(e) = std::fs::create_dir_all(&cli.out_dir)
            .and_then(|()| std::fs::write(&path, doc.to_pretty()))
        {
            eprintln!("error: cannot write `{}`: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("trace written to {}", path.display());
        layers
    } else {
        e2e
    };
    if out.attempted == 0 {
        eprintln!("error: no operation ran");
        return ExitCode::FAILURE;
    }
    println!("{}", report::result_line(&out, &metrics).to_compact());
    if out.wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares.
fn declared_metrics(path: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = pospec_json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Value::as_arr).unwrap_or(&[]) {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            out.push((field("name"), field("unit")));
        }
    }
    Ok(out)
}

/// Per-layer values that must repeat exactly under one seed: sizes,
/// states, misses, elaborations and predicate calls (never times).
fn deterministic_counts(out: &Outcome) -> BTreeMap<&'static str, f64> {
    let exact = [
        "alphabet.sigma_events",
        "regex.subset_states",
        "regex.trie_states",
        "regex.pred_calls",
        "regex.min_states_in",
        "regex.min_states_out",
        "lang.doc_kb",
        "lang.elaborations_per_op",
        "lint.diagnostics",
    ];
    out.layers.iter().filter(|(k, _)| exact.contains(k)).map(|(k, v)| (*k, *v)).collect()
}

/// Every workload at smoke size, traced and untraced, twice with one
/// seed: names and units match `BENCHMARK.json`, no wrong verdict and no
/// failure, identical per-layer counts across the two runs, nested spans.
fn smoke(cli: &Cli) -> ExitCode {
    let declared = match declared_metrics("BENCHMARK.json") {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut problems = Vec::new();
    for w in Workload::ALL {
        let mut counts = Vec::new();
        for traced in [false, true, true] {
            let out = w.run(&Ctx::new(cli, w, traced, true));
            let metrics =
                if traced { report::per_layer(&out) } else { report::end_to_end(&out, w.tail().1) };
            for (name, value, unit) in &metrics {
                if !declared.iter().any(|(n, u)| n == name && u == unit) {
                    problems.push(format!("{}: `{name}` [{unit}] not in BENCHMARK.json", w.name()));
                }
                if !value.is_finite() {
                    problems.push(format!("{}: `{name}` is not finite", w.name()));
                }
            }
            let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
            for (name, _) in &declared {
                let kind_matches = report::END_TO_END.iter().any(|(n, _)| n == name) != traced;
                if kind_matches && !names.contains(&name.as_str()) {
                    problems.push(format!("{}: `{name}` not reported", w.name()));
                }
            }
            if !out.wrong.is_empty() || out.failed > 0 || out.attempted == 0 {
                problems.push(format!(
                    "{}: {} attempted, {} failed, wrong: {:?}",
                    w.name(),
                    out.attempted,
                    out.failed,
                    out.wrong
                ));
            }
            if traced {
                if !measure::spans_nest(&out.spans) || out.spans.is_empty() {
                    problems.push(format!("{}: spans do not nest", w.name()));
                }
                let missing = report::missing_layers(&out);
                if !missing.is_empty() {
                    problems.push(format!("{}: did not measure {missing:?}", w.name()));
                }
                counts.push(deterministic_counts(&out));
            }
        }
        if counts[0] != counts[1] {
            problems.push(format!("{}: counts differ across runs: {counts:?}", w.name()));
        }
        eprintln!("smoke {}: done", w.name());
    }
    for p in &problems {
        eprintln!("smoke: {p}");
    }
    if problems.is_empty() {
        eprintln!("smoke: all four workloads pass");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("error: perfbench measures release builds only (build with --release)");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if !cli.pospec.is_file() {
        eprintln!("error: no pospec binary at `{}`", cli.pospec.display());
        return ExitCode::from(2);
    }
    match cli.workload {
        Some(w) if !cli.smoke && cli.child => measure(&cli, w),
        Some(w) if !cli.smoke => run_child(&args, w),
        _ => smoke(&cli),
    }
}

/// CPU numbers of a kernel CPU list such as `0-3,6`.
fn cpu_list(list: &str) -> Vec<usize> {
    list.trim()
        .split(',')
        .flat_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            match (lo.parse::<usize>(), hi.parse::<usize>()) {
                (Ok(lo), Ok(hi)) => (lo..=hi).collect(),
                _ => Vec::new(),
            }
        })
        .collect()
}

/// This process's `Cpus_allowed_list`.
fn allowed_cpus() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"));
    list.unwrap_or("").trim().to_string()
}

/// Run this binary again on `w` as a child process, pinned by `taskset`
/// when `Workload::placement` asks for it, and pass its result line and
/// exit status on.
fn run_child(args: &[String], w: Workload) -> ExitCode {
    use std::process::{Command, Stdio};
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot locate perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let taskset = Command::new("taskset").arg("--version").stdout(Stdio::null()).status();
    let cpus =
        if taskset.is_ok_and(|s| s.success()) { cpu_list(&allowed_cpus()) } else { Vec::new() };
    let mut cmd = match w.placement(&cpus) {
        Some(cpu) => {
            let mut c = Command::new("taskset");
            c.arg("-c").arg(cpu.to_string()).arg(&exe);
            c
        }
        None => Command::new(&exe),
    };
    let out = cmd.args(args).arg("--child").stdin(Stdio::null()).stderr(Stdio::inherit()).output();
    match out {
        Ok(o) => {
            use std::io::Write as _;
            let _ = std::io::stdout().write_all(&o.stdout);
            ExitCode::from(o.status.code().map_or(1, |c| c as u8))
        }
        Err(e) => {
            eprintln!("error: cannot start the workload process: {e}");
            ExitCode::FAILURE
        }
    }
}

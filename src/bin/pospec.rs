//! `pospec` — a command-line front-end for partial object specifications.
//!
//! ```text
//! pospec check <file.pos>                      validate every spec (Def. 1)
//! pospec lint <path>… [--fix] [--json] [--depth N] [--deny warnings|CODE]
//!             [--warn CODE] [--allow CODE]     static analysis (codes P0xx/P1xx)
//! pospec list <file.pos>                       list specs with alphabets
//! pospec refine <file.pos> <concrete> <abstract> [--depth N]
//! pospec compose <file.pos> <a> <b> [--deadlock]
//! pospec quiesce <file.pos> <spec> [--depth N] quiescence/dead-end analysis
//! pospec monitor <file.pos> <spec> <trace.jsonl>
//!                                              replay a recorded trace
//! pospec simulate <file.pos> [--seed N] [--faults SPEC] [--deadline-ms N]
//!                 [--events N] [--json PATH|-]
//!                                              fault-injected supervised run
//! pospec verify <file.pos>                     run the development block
//! pospec print <file.pos>                      parse and pretty-print back
//! pospec gen --family F --objects N [--seed N] [--methods N]
//!            [--mutations PERMILLE] [--salt S] [--drop-offending] [--out DIR]
//!                                              emit a known-answer scenario
//! pospec serve [--addr A] [--workers N] [--queue N] [--preload DIR]
//!                                              long-running checking service
//! pospec call [--addr A] <op> [args…]          one request against a server
//! pospec lsp [--depth N] [--cache-dir DIR]     LSP server over stdio
//! ```
//!
//! Exit code 0 on success / verdict "holds"; 1 on a negative verdict; 2 on
//! usage, language, or transport errors — uniformly: any flag given an
//! unparsable value exits 2 with a message on stderr.

use pospec::prelude::*;
use pospec_core::compose as compose_specs;
use pospec_lang::{parse_document, Document};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  pospec check <file.pos>\n  \
         pospec lint <file.pos|dir>... [--fix] [--json] [--depth N] [--deny warnings|CODE] \
[--warn CODE] [--allow CODE]\n  pospec list <file.pos>\n  \
         pospec refine <file.pos> <concrete> <abstract> [--depth N]\n  \
         pospec compose <file.pos> <a> <b> [--deadlock]\n  \
         pospec quiesce <file.pos> <spec> [--depth N]\n  \
         pospec monitor <file.pos> <spec> <trace.jsonl>\n  \
         pospec simulate <file.pos> [--seed N] [--faults drop=P,dup=P,delay=P,crash=P] \
[--deadline-ms N] [--events N] [--json PATH|-]\n  \
         pospec verify <file.pos>\n  \
         pospec print <file.pos>\n  \
         pospec gen --family pipeline|star|ring|gossip --objects N [--seed N] [--methods N] \
[--mutations PERMILLE] [--salt SUFFIX] [--drop-offending] [--out DIR]\n  \
         pospec serve [--addr HOST:PORT] [--workers N] [--queue N] [--preload DIR] [--strict] \
[--idle-timeout-ms N] [--max-line-bytes N] [--max-conns N] [--cache-dir DIR]\n  \
         pospec call [--addr HOST:PORT] [--timeout-ms N] [--retries N] [--seed N] \
[--retry-unsafe] <op> [args...]   (ops: load_spec <name> <file>, \
check <doc> <concrete> <abstract>, compose <doc> <a> <b> [--deadlock], \
batch_check <doc> <c a>..., lint <doc> [--deny-warnings], ping, stats, clear_cache, \
shutdown, or a raw JSON object)\n  \
         pospec lsp [--depth N] [--cache-dir DIR]"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Document, ExitCode> {
    let src = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read `{path}`: {e}");
        ExitCode::from(2)
    })?;
    parse_document(&src).map_err(|e| {
        eprintln!("error: {path}:{e}");
        ExitCode::from(2)
    })
}

fn find<'a>(doc: &'a Document, name: &str) -> Result<&'a Specification, ExitCode> {
    doc.spec(name).ok_or_else(|| {
        let known: Vec<&str> = doc.specs.iter().map(|s| s.name()).collect();
        eprintln!("error: no spec named `{name}` (known: {})", known.join(", "));
        ExitCode::from(2)
    })
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].as_str())
}

/// The value of `--name` parsed as `T`, or `default` when the flag is
/// absent.  A flag with a missing or unparsable value is a uniform usage
/// error: message on stderr, exit code 2 — every subcommand shares this
/// convention (`tests/cli.rs` asserts it).
fn parsed_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, ExitCode> {
    match flag_value(args, name) {
        Some(raw) => raw.parse().map_err(|_| {
            eprintln!("error: invalid value `{raw}` for `{name}`");
            ExitCode::from(2)
        }),
        None if args.iter().any(|a| a == name) => {
            eprintln!("error: `{name}` requires a value");
            Err(ExitCode::from(2))
        }
        None => Ok(default),
    }
}

fn depth_arg(args: &[String]) -> Result<usize, ExitCode> {
    parsed_flag(args, "--depth", 6)
}

/// Every value of a repeatable `--name VALUE` flag, with the same
/// strict-parsing convention as [`parsed_flag`].
fn flag_values<'a>(args: &'a [String], name: &str) -> Result<Vec<&'a str>, ExitCode> {
    let mut out = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if a == name {
            match it.next() {
                Some(v) => out.push(v.as_str()),
                None => {
                    eprintln!("error: `{name}` requires a value");
                    return Err(ExitCode::from(2));
                }
            }
        }
    }
    Ok(out)
}

/// `pospec gen`: emit a known-answer scenario — a generated `.pos`
/// document plus the manifest of verdicts it carries by construction.
/// Flag parsing is strict: unknown arguments, missing required flags,
/// and unparsable values all exit 2.  Generation is deterministic, so
/// the same flags always produce byte-identical files.
fn gen_cmd(args: &[String]) -> ExitCode {
    match gen_inner(args) {
        Ok(code) | Err(code) => code,
    }
}

fn gen_inner(args: &[String]) -> Result<ExitCode, ExitCode> {
    use pospec_gen::{generate, Family, GenConfig};

    // Strict surface: every argument must be a known flag or the value
    // consumed by the preceding flag.
    const VALUE_FLAGS: [&str; 7] =
        ["--family", "--objects", "--seed", "--methods", "--mutations", "--salt", "--out"];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            if it.next().is_none() {
                eprintln!("error: `{a}` requires a value");
                return Err(ExitCode::from(2));
            }
        } else if a != "--drop-offending" {
            eprintln!("error: unknown argument `{a}` for `pospec gen`");
            return Err(ExitCode::from(2));
        }
    }

    let family: Family = match flag_value(args, "--family") {
        Some(raw) => raw.parse().map_err(|e| {
            eprintln!("error: {e}");
            ExitCode::from(2)
        })?,
        None => {
            eprintln!("error: `pospec gen` requires `--family pipeline|star|ring|gossip`");
            return Err(ExitCode::from(2));
        }
    };
    let objects: usize = match flag_value(args, "--objects") {
        Some(raw) => raw.parse().map_err(|_| {
            eprintln!("error: invalid value `{raw}` for `--objects`");
            ExitCode::from(2)
        })?,
        None => {
            eprintln!("error: `pospec gen` requires `--objects N`");
            return Err(ExitCode::from(2));
        }
    };
    let seed = parsed_flag(args, "--seed", 0u64)?;
    let mut config = GenConfig::new(family, objects, seed);
    config.methods = parsed_flag(args, "--methods", config.methods)?;
    config.mutation_permille = parsed_flag(args, "--mutations", config.mutation_permille)?;
    if config.mutation_permille > 1000 {
        eprintln!(
            "error: `--mutations` is a permille density (0..=1000), got {}",
            config.mutation_permille
        );
        return Err(ExitCode::from(2));
    }
    if let Some(salt) = flag_value(args, "--salt") {
        config.salt = salt.to_string();
    }
    config.drop_offending = args.iter().any(|a| a == "--drop-offending");

    let scenario = generate(&config).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })?;

    let out_dir = std::path::Path::new(flag_value(args, "--out").unwrap_or("."));
    std::fs::create_dir_all(out_dir).map_err(|e| {
        eprintln!("error: cannot create `{}`: {e}", out_dir.display());
        ExitCode::from(2)
    })?;
    let stem = config.stem();
    let pos_path = out_dir.join(format!("{stem}.pos"));
    let manifest_path = out_dir.join(format!("{stem}.manifest.json"));
    let manifest_text = format!("{}\n", scenario.manifest.to_json().to_pretty());
    for (path, contents) in [(&pos_path, &scenario.document), (&manifest_path, &manifest_text)] {
        std::fs::write(path, contents).map_err(|e| {
            eprintln!("error: cannot write `{}`: {e}", path.display());
            ExitCode::from(2)
        })?;
    }
    println!(
        "{}: {} spec(s), {} refinement(s), {} composition(s), {} expected diagnostic(s)",
        pos_path.display(),
        scenario.manifest.spec_count,
        scenario.manifest.refinements.len(),
        scenario.manifest.compositions.len(),
        scenario.manifest.lint.len()
    );
    println!("{}", manifest_path.display());
    Ok(ExitCode::SUCCESS)
}

/// `pospec lint`: run the static analyzer over every given `.pos` file
/// (directories are expanded non-recursively).  Exit 0 when no
/// error-severity diagnostics, 1 when errors, 2 on usage/IO errors.
fn lint_cmd(args: &[String]) -> ExitCode {
    use pospec_lint::{Code, Level, LintConfig};

    let mut config = LintConfig::default();
    config.depth = match parsed_flag(args, "--depth", config.depth) {
        Ok(d) => d,
        Err(c) => return c,
    };
    for (flag, level) in
        [("--deny", Level::Deny), ("--warn", Level::Warn), ("--allow", Level::Allow)]
    {
        let values = match flag_values(args, flag) {
            Ok(v) => v,
            Err(c) => return c,
        };
        for raw in values {
            if raw == "warnings" && flag == "--deny" {
                config.deny_warnings = true;
                continue;
            }
            match raw.parse::<Code>() {
                Ok(code) => config.set(code, level),
                Err(_) => {
                    eprintln!("error: invalid value `{raw}` for `{flag}`");
                    return ExitCode::from(2);
                }
            }
        }
    }

    let value_flags = ["--depth", "--deny", "--warn", "--allow"];
    let mut paths: Vec<String> = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
        } else if value_flags.contains(&a.as_str()) {
            skip = true;
        } else if !a.starts_with("--") {
            paths.push(a.clone());
        }
    }
    if paths.is_empty() {
        return usage();
    }

    // Expand directories to their (sorted) `.pos` files, non-recursively.
    let mut files: Vec<String> = Vec::new();
    for p in &paths {
        let meta = match std::fs::metadata(p) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: cannot read `{p}`: {e}");
                return ExitCode::from(2);
            }
        };
        if meta.is_dir() {
            let entries = match std::fs::read_dir(p) {
                Ok(es) => es,
                Err(e) => {
                    eprintln!("error: cannot read `{p}`: {e}");
                    return ExitCode::from(2);
                }
            };
            let mut found: Vec<String> = entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|q| q.is_file() && q.extension().is_some_and(|x| x == "pos"))
                .map(|q| q.display().to_string())
                .collect();
            found.sort();
            files.extend(found);
        } else {
            files.push(p.clone());
        }
    }
    if files.is_empty() {
        eprintln!("error: no `.pos` files found under {}", paths.join(", "));
        return ExitCode::from(2);
    }

    let json_mode = args.iter().any(|a| a == "--json");
    let fix_mode = args.iter().any(|a| a == "--fix");
    let mut reports = Vec::new();
    let mut errors = 0;
    let mut warnings = 0;
    let mut fixed = 0;
    for file in &files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read `{file}`: {e}");
                return ExitCode::from(2);
            }
        };
        let (report, out_src, applied) = if fix_mode {
            apply_machine_fixes(file, &src, &config)
        } else {
            (pospec_lint::lint_document(file, &src, &config), src.clone(), 0)
        };
        if fix_mode && out_src != src {
            if let Err(e) = std::fs::write(file, &out_src) {
                eprintln!("error: cannot write `{file}`: {e}");
                return ExitCode::from(2);
            }
        }
        errors += report.errors();
        warnings += report.warnings();
        fixed += applied;
        if !json_mode {
            print!("{}", report.render_human(&out_src));
            if applied > 0 {
                println!("{file}: applied {applied} fix(es)");
            }
        }
        reports.push(report);
    }
    if json_mode {
        let mut b = pospec_json::ObjBuilder::new()
            .field("files", pospec_json::Value::Arr(reports.iter().map(|r| r.to_json()).collect()))
            .field("errors", errors as u64)
            .field("warnings", warnings as u64);
        if fix_mode {
            b = b.field("fixed", fixed as u64);
        }
        println!("{}", b.build().to_compact());
    } else {
        println!("{} file(s) linted: {} error(s), {} warning(s)", files.len(), errors, warnings);
    }
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The `--fix` driver for one file: repeatedly lint, batch every
/// machine-applicable fix (overlapping deletions coalesce), apply, and
/// re-lint, until a fixpoint or the round bound.  Applied rounds are
/// kept only when the result still parses and is no worse (no new
/// error-severity diagnostics) — a failed round leaves the previous
/// text in place, so `--fix` can never corrupt a document.  Returns the
/// final report, the final text, and the number of fixes applied.
fn apply_machine_fixes(
    file: &str,
    src: &str,
    config: &pospec_lint::LintConfig,
) -> (pospec_lint::LintReport, String, usize) {
    use pospec_lint::{Applicability, Code};

    // Every machine fix removes at least one statement, so the fixpoint
    // is reached long before this bound on any real document; the bound
    // only guards against a (buggy) oscillating fix.
    const MAX_ROUNDS: usize = 8;
    let mut cur = src.to_string();
    let mut applied = 0usize;
    let mut report = pospec_lint::lint_document(file, &cur, config);
    for _ in 0..MAX_ROUNDS {
        let machine: Vec<&pospec_lint::Fix> = report
            .diagnostics
            .iter()
            .filter_map(|d| d.fix.as_ref())
            .filter(|f| f.applicability == Applicability::MachineApplicable)
            .collect();
        if machine.is_empty() {
            break;
        }
        let count = machine.len();
        let edits = pospec_lint::coalesce_deletions(
            machine.iter().flat_map(|f| f.edits.iter().cloned()).collect(),
        );
        let Ok(next) = pospec_lint::apply_edits(&cur, &edits) else { break };
        let next_report = pospec_lint::lint_document(file, &next, config);
        let broken = next_report
            .diagnostics
            .iter()
            .any(|d| matches!(d.code, Code::P001 | Code::P002 | Code::P009));
        if broken || next_report.errors() > report.errors() {
            break;
        }
        cur = next;
        applied += count;
        report = next_report;
    }
    (report, cur, applied)
}

/// Run every spec in `doc` under a fault-injected, monitored simulation.
fn simulate(file: &str, doc: &Document, args: &[String]) -> ExitCode {
    use pospec_sim::behaviors::ChaosClient;
    use pospec_sim::{FaultPlan, RunConfig, SupervisedRun};
    use std::time::Duration;

    let seed: u64 = match parsed_flag(args, "--seed", 0) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let events: usize = match parsed_flag(args, "--events", 200) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let deadline_ms: u64 = match parsed_flag(args, "--deadline-ms", 5_000) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let plan = match flag_value(args, "--faults") {
        Some(spec) => match FaultPlan::parse(seed, spec) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
        None => FaultPlan::new(seed),
    };

    let u = &doc.universe;
    let mut sup = SupervisedRun::new(seed);
    let cast: Vec<_> =
        u.declared_objects().chain(u.object_classes().flat_map(|c| u.class_witnesses(c))).collect();
    for &o in &cast {
        sup.add_object(Box::new(ChaosClient::new(o, u)));
    }
    for s in &doc.specs {
        sup.add_monitor(s.clone());
    }
    let config =
        RunConfig::budget(events).deadline(Duration::from_millis(deadline_ms)).faults(plan.clone());
    let out = sup.run(&config);

    let counts = out.run.fault_log.counts();
    let verdicts: Vec<pospec_json::Value> = out.reports.iter().map(|r| r.to_json()).collect();
    let json = pospec_json::ObjBuilder::new()
        .field("file", file)
        .field("seed", seed)
        .field("faults", plan.fault_rates().to_json())
        .field("stop_reason", out.run.stop_reason.label())
        .field("events", out.run.trace.len())
        .field("steps", out.steps)
        .field("objects", cast.len())
        .field("fault_counts", counts.to_json())
        .field("fault_log", out.run.fault_log.to_json(u))
        .field("verdicts", pospec_json::Value::Arr(verdicts))
        .build();

    let mut human = String::new();
    human.push_str(&format!(
        "simulated `{file}` with seed {seed}: {} event(s) over {} step(s), {} object(s), stopped: {}\n",
        out.run.trace.len(),
        out.steps,
        cast.len(),
        out.run.stop_reason
    ));
    human.push_str(&format!("  faults injected: {counts}\n"));
    for r in &out.reports {
        match r.violation {
            Some(at) => human.push_str(&format!("  {}: VIOLATION at event #{at}\n", r.spec)),
            None => human.push_str(&format!(
                "  {}: no violation ({} event(s) checked)\n",
                r.spec, r.checked
            )),
        }
    }

    match flag_value(args, "--json") {
        // `-`: machine output on stdout (byte-comparable across same-seed
        // runs), human summary on stderr.
        Some("-") => {
            println!("{}", json.to_compact());
            eprint!("{human}");
        }
        Some(path) => {
            if let Err(e) = std::fs::write(path, json.to_pretty() + "\n") {
                eprintln!("error: cannot write `{path}`: {e}");
                return ExitCode::from(2);
            }
            print!("{human}");
            println!("  fault log written to {path}");
        }
        None => print!("{human}"),
    }
    ExitCode::SUCCESS
}

/// `pospec serve`: run the long-lived refinement-checking service until
/// a client sends `shutdown`, then print the final metrics line.
fn serve_cmd(args: &[String]) -> ExitCode {
    use pospec_serve::{Server, ServerConfig};

    let defaults = ServerConfig::default();
    let workers = match parsed_flag(args, "--workers", defaults.workers) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let queue = match parsed_flag(args, "--queue", defaults.queue) {
        Ok(v) => v,
        Err(c) => return c,
    };
    if workers == 0 || queue == 0 {
        eprintln!("error: `--workers` and `--queue` must be at least 1");
        return ExitCode::from(2);
    }
    let idle_timeout_ms = match parsed_flag(args, "--idle-timeout-ms", defaults.idle_timeout_ms) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let max_line_bytes = match parsed_flag(args, "--max-line-bytes", defaults.max_line_bytes) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let max_conns = match parsed_flag(args, "--max-conns", defaults.max_conns) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let config = ServerConfig {
        addr: flag_value(args, "--addr").unwrap_or(&defaults.addr).to_string(),
        workers,
        queue,
        preload: flag_value(args, "--preload").map(std::path::PathBuf::from),
        strict: args.iter().any(|a| a == "--strict"),
        idle_timeout_ms,
        max_line_bytes,
        max_conns,
        cache_dir: flag_value(args, "--cache-dir").map(std::path::PathBuf::from),
    };
    let server = match Server::bind(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            // Parsed by scripts and the CI smoke job; keep the shape stable.
            println!("pospec-serve listening on {addr} ({workers} worker(s), queue {queue})");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    match server.serve() {
        Ok(snapshot) => {
            println!("{}", snapshot.summary_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `pospec lsp`: a resident LSP server over stdio.  Editors launch this
/// as a child process; all protocol I/O is framed JSON-RPC on
/// stdin/stdout, so nothing else may print there.
fn lsp_cmd(args: &[String]) -> ExitCode {
    let depth = match depth_arg(args) {
        Ok(d) => d,
        Err(c) => return c,
    };
    let mut server = pospec::lsp::LspServer::new(depth);
    if let Some(dir) = flag_value(args, "--cache-dir") {
        match pospec_core::PersistentStore::open(std::path::Path::new(dir)) {
            Ok(store) => {
                let s = store.stats();
                eprintln!(
                    "cache dir `{dir}`: {} automaton(s) loaded, {} skipped",
                    s.loaded,
                    s.skipped()
                );
                server.attach_store(std::sync::Arc::new(store));
            }
            Err(e) => {
                eprintln!("error: cannot open cache dir `{dir}`: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let code = server.run(&mut stdin.lock(), &mut stdout.lock());
    ExitCode::from(code as u8)
}

/// Build the request object for `pospec call` from positional words.
fn call_request(words: &[&String], args: &[String]) -> Result<pospec_json::Value, String> {
    use pospec_json::ObjBuilder;
    // A raw JSON object passes through untouched (full protocol access).
    if let [single] = words {
        if single.trim_start().starts_with('{') {
            return pospec_json::parse(single).map_err(|e| e.to_string());
        }
    }
    let depth = args
        .windows(2)
        .find(|w| w[0] == "--depth")
        .map(|w| w[1].parse::<u64>().map_err(|_| format!("invalid value `{}` for `--depth`", w[1])))
        .transpose()?;
    match words {
        [op] if ["ping", "stats", "clear_cache", "shutdown"].contains(&op.as_str()) => {
            Ok(ObjBuilder::new().field("op", op.as_str()).build())
        }
        [op, name, file] if op.as_str() == "load_spec" => {
            let source = std::fs::read_to_string(file.as_str())
                .map_err(|e| format!("cannot read `{file}`: {e}"))?;
            Ok(ObjBuilder::new()
                .field("op", "load_spec")
                .field("name", name.as_str())
                .field("source", source)
                .build())
        }
        [op, doc, concrete, abstract_] if op.as_str() == "check" => Ok(ObjBuilder::new()
            .field("op", "check")
            .field("doc", doc.as_str())
            .field("concrete", concrete.as_str())
            .field("abstract", abstract_.as_str())
            .field_opt("depth", depth)
            .build()),
        [op, doc] if op.as_str() == "lint" => Ok(ObjBuilder::new()
            .field("op", "lint")
            .field("doc", doc.as_str())
            .field("deny_warnings", args.iter().any(|a| a == "--deny-warnings"))
            .field_opt("depth", depth)
            .build()),
        [op, doc, left, right] if op.as_str() == "compose" => Ok(ObjBuilder::new()
            .field("op", "compose")
            .field("doc", doc.as_str())
            .field("left", left.as_str())
            .field("right", right.as_str())
            .field("deadlock", args.iter().any(|a| a == "--deadlock"))
            .build()),
        [op, doc, pairs @ ..] if op.as_str() == "batch_check" && !pairs.is_empty() => {
            if pairs.len() % 2 != 0 {
                return Err("batch_check needs an even number of spec names".to_string());
            }
            let pairs: Vec<pospec_json::Value> = pairs
                .chunks(2)
                .map(|p| pospec_json::Value::Arr(vec![p[0].as_str().into(), p[1].as_str().into()]))
                .collect();
            Ok(ObjBuilder::new()
                .field("op", "batch_check")
                .field("doc", doc.as_str())
                .field("pairs", pospec_json::Value::Arr(pairs))
                .field_opt("depth", depth)
                .build())
        }
        _ => Err("unrecognised call; see `pospec` usage".to_string()),
    }
}

/// `pospec call`: one request against a running server, response JSON on
/// stdout.  Exit 0 on a positive result, 1 on a negative verdict
/// (`holds`/`holds_all` false or a detected deadlock), 2 on any error.
fn call_cmd(args: &[String]) -> ExitCode {
    use pospec_json::Value;
    use pospec_serve::{response_ok, Client, RetryPolicy};

    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7077").to_string();
    // Finite by default so a wedged or unreachable server cannot hang the
    // CLI; `--timeout-ms 0` opts back into waiting forever.
    let timeout_ms = match parsed_flag(args, "--timeout-ms", 30_000u64) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let retries = match parsed_flag(args, "--retries", 3u32) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let seed = match parsed_flag(args, "--seed", 0x5EEDu64) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let retry_unsafe = args.iter().any(|a| a == "--retry-unsafe");
    let value_flags = ["--addr", "--depth", "--timeout-ms", "--retries", "--seed"];
    let mut words: Vec<&String> = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
        } else if value_flags.contains(&a.as_str()) {
            skip = true;
        } else if !a.starts_with("--") {
            words.push(a);
        }
    }
    if words.is_empty() {
        return usage();
    }
    let request = match call_request(&words, args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let policy = RetryPolicy::with_retries(retries, seed);
    let response = Client::connect(&addr)
        .and_then(|mut c| {
            c.set_timeout((timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms)))?;
            c.call_retrying(&request, &policy, retry_unsafe)
        })
        .map_err(|e| match &e {
            pospec_serve::ClientError::Io(io)
                if matches!(
                    io.kind(),
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                ) =>
            {
                format!("{addr}: timed out after {timeout_ms} ms waiting for a response")
            }
            _ => format!("{addr}: {e}"),
        });
    match response {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
        Ok(response) => {
            println!("{}", response.to_compact());
            if !response_ok(&response) {
                return ExitCode::from(2);
            }
            let result = response.get("result");
            let negative = |key: &str, bad: bool| {
                result.and_then(|r| r.get(key)).and_then(Value::as_bool) == Some(bad)
            };
            if negative("holds", false)
                || negative("holds_all", false)
                || negative("deadlocked", true)
                || negative("clean", false)
            {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    match (cmd, rest) {
        ("check", [file]) => {
            let doc = match load(file) {
                Ok(d) => d,
                Err(c) => return c,
            };
            println!("{}: {} specification(s), all Def.-1 well-formed:", file, doc.specs.len());
            for s in &doc.specs {
                let env = s.communication_environment();
                println!(
                    "  {} — {} object(s), {} alphabet granule(s), environment: {} named + {} infinite block(s)",
                    s.name(),
                    s.objects().len(),
                    s.alphabet().granule_count(),
                    env.named.len(),
                    env.residues.len()
                );
            }
            ExitCode::SUCCESS
        }
        ("list", [file]) => {
            let doc = match load(file) {
                Ok(d) => d,
                Err(c) => return c,
            };
            for s in &doc.specs {
                println!("{}:", s.name());
                println!("  α = {}", s.alphabet().display());
            }
            ExitCode::SUCCESS
        }
        ("refine", [file, concrete, abstract_, extra @ ..]) => {
            let doc = match load(file) {
                Ok(d) => d,
                Err(c) => return c,
            };
            let (c, a) = match (find(&doc, concrete), find(&doc, abstract_)) {
                (Ok(c), Ok(a)) => (c, a),
                (Err(e), _) | (_, Err(e)) => return e,
            };
            let depth = match depth_arg(extra) {
                Ok(d) => d,
                Err(c) => return c,
            };
            let v = check_refinement(c, a, depth);
            println!("{}", pospec_check::explain_verdict(c, a, &v));
            if v.holds() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        ("compose", [file, a_name, b_name, deadlock @ ..])
            if deadlock.iter().all(|s| s == "--deadlock") =>
        {
            let doc = match load(file) {
                Ok(d) => d,
                Err(c) => return c,
            };
            let (a, b) = match (find(&doc, a_name), find(&doc, b_name)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => return e,
            };
            if !is_composable(a, b) {
                eprintln!("{a_name} and {b_name} are NOT composable (Def. 10)");
                return ExitCode::FAILURE;
            }
            let composed = compose_specs(a, b).expect("checked composable");
            println!("composed `{}`:", composed.name());
            println!("  objects: {}", composed.objects().len());
            println!("  visible α = {}", composed.alphabet().display());
            if !deadlock.is_empty() {
                let dead = observable_deadlock(&composed);
                println!("  deadlocked (T = {{ε}}): {dead}");
                if dead {
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        ("quiesce", [file, spec_name, extra @ ..]) => {
            let doc = match load(file) {
                Ok(d) => d,
                Err(c) => return c,
            };
            let spec = match find(&doc, spec_name) {
                Ok(s) => s,
                Err(e) => return e,
            };
            let depth = match depth_arg(extra) {
                Ok(d) => d,
                Err(c) => return c,
            };
            let r = pospec_check::quiescence(spec, depth);
            println!("quiescence analysis of `{spec_name}`:");
            println!("  reachable histories sampled: {}", r.reachable_states);
            println!("  dead ends found: {}", r.quiescent_states);
            println!("  initially quiescent (T = {{ε}}): {}", r.initial_quiescent);
            if let Some(w) = &r.witness {
                println!(
                    "  shortest dead end: {}",
                    pospec_alphabet::display_trace(&doc.universe, w)
                );
            }
            if r.is_perpetual() {
                println!("  verdict: perpetual (up to depth)");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        ("monitor", [file, spec_name, trace_file]) => {
            let doc = match load(file) {
                Ok(d) => d,
                Err(c) => return c,
            };
            let spec = match find(&doc, spec_name) {
                Ok(s) => s.clone(),
                Err(e) => return e,
            };
            let input = match std::fs::File::open(trace_file) {
                Ok(f) => std::io::BufReader::new(f),
                Err(e) => {
                    eprintln!("error: cannot read `{trace_file}`: {e}");
                    return ExitCode::from(2);
                }
            };
            let trace = match pospec_sim::read_trace(&doc.universe, input) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: {trace_file}: {e}");
                    return ExitCode::from(2);
                }
            };
            let coverage = pospec_check::state_coverage(&spec, std::slice::from_ref(&trace), 6);
            let mut monitor = Monitor::new(spec);
            match monitor.observe_trace(&trace) {
                None => {
                    println!(
                        "{} events replayed against `{}`: no violation",
                        trace.len(),
                        spec_name
                    );
                    println!(
                        "  specification coverage: {}/{} states ({:.0}%)",
                        coverage.visited,
                        coverage.total,
                        coverage.fraction() * 100.0
                    );
                    if let Some(gap) = coverage.gap_witnesses.first() {
                        println!(
                            "  e.g. unexercised behaviour: {}",
                            pospec_alphabet::display_trace(&doc.universe, gap)
                        );
                    }
                    ExitCode::SUCCESS
                }
                Some(at) => {
                    println!(
                        "VIOLATION of `{}` at event #{at}: {}",
                        spec_name,
                        pospec_alphabet::display_event(&doc.universe, &trace.events()[at])
                    );
                    ExitCode::FAILURE
                }
            }
        }
        ("gen", extra) => gen_cmd(extra),
        ("lint", extra) => lint_cmd(extra),
        ("serve", extra) => serve_cmd(extra),
        ("call", extra) => call_cmd(extra),
        ("lsp", extra) => lsp_cmd(extra),
        ("simulate", [file, extra @ ..]) => {
            let doc = match load(file) {
                Ok(d) => d,
                Err(c) => return c,
            };
            simulate(file, &doc, extra)
        }
        ("verify", [file]) => {
            let doc = match load(file) {
                Ok(d) => d,
                Err(c) => return c,
            };
            if doc.development.is_empty() {
                println!("{file}: no development block — nothing to verify");
                return ExitCode::SUCCESS;
            }
            let dev = match pospec::audit::development_from(&doc) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let reports = dev.verify();
            let mut failed = 0;
            for r in &reports {
                println!("{r}");
                if !r.holds {
                    failed += 1;
                }
            }
            println!("{}/{} obligation(s) discharged", reports.len() - failed, reports.len());
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        ("print", [file]) => {
            let doc = match load(file) {
                Ok(d) => d,
                Err(c) => return c,
            };
            match pospec_lang::print_full_document(&doc) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

//! End-to-end tests of the `pospec` command-line front-end, driving the
//! real binary against the shipped `specs/*.pos` documents.

use std::path::PathBuf;
use std::process::{Command, Output};

fn specs(name: &str) -> String {
    let p: PathBuf = [env!("CARGO_MANIFEST_DIR"), "specs", name].iter().collect();
    p.to_string_lossy().into_owned()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pospec")).args(args).output().expect("binary runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn check_lists_wellformed_specs() {
    let out = run(&["check", &specs("readers_writers.pos")]);
    assert!(out.status.success());
    let text = stdout(&out);
    for name in ["Read", "Write", "WriteAcc", "Client", "Client2"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
    assert!(text.contains("Def.-1 well-formed"));
}

#[test]
fn refine_exit_codes_follow_the_verdict() {
    let file = specs("readers_writers.pos");
    let ok = run(&["refine", &file, "WriteAcc", "Write"]);
    assert!(ok.status.success(), "{}", stdout(&ok));
    assert!(stdout(&ok).contains("holds"));

    let bad = run(&["refine", &file, "Write", "WriteAcc"]);
    assert!(!bad.status.success());
    assert!(stdout(&bad).contains("fails"));
}

#[test]
fn compose_detects_the_example_5_deadlock() {
    let file = specs("readers_writers.pos");
    let live = run(&["compose", &file, "WriteAcc", "Client", "--deadlock"]);
    assert!(live.status.success());
    assert!(stdout(&live).contains("deadlocked (T = {ε}): false"));

    let dead = run(&["compose", &file, "Client2", "WriteAcc", "--deadlock"]);
    assert!(!dead.status.success());
    assert!(stdout(&dead).contains("deadlocked (T = {ε}): true"));
}

#[test]
fn quiesce_reports_perpetuality() {
    let out = run(&["quiesce", &specs("readers_writers.pos"), "Write"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("perpetual"));
}

#[test]
fn monitor_replays_trace_files() {
    let dir = std::env::temp_dir();
    let good = dir.join("pospec_cli_good.jsonl");
    let bad = dir.join("pospec_cli_bad.jsonl");
    std::fs::write(
        &good,
        "{\"caller\":\"c\",\"callee\":\"o\",\"method\":\"OW\"}\n\
         {\"caller\":\"c\",\"callee\":\"o\",\"method\":\"W\",\"arg\":\"Data!w0\"}\n\
         {\"caller\":\"c\",\"callee\":\"o\",\"method\":\"CW\"}\n",
    )
    .unwrap();
    std::fs::write(&bad, "{\"caller\":\"c\",\"callee\":\"o\",\"method\":\"CW\"}\n").unwrap();

    let file = specs("readers_writers.pos");
    let ok = run(&["monitor", &file, "WriteAcc", good.to_str().unwrap()]);
    assert!(ok.status.success(), "{}", stdout(&ok));
    assert!(stdout(&ok).contains("no violation"));

    let viol = run(&["monitor", &file, "WriteAcc", bad.to_str().unwrap()]);
    assert!(!viol.status.success());
    assert!(stdout(&viol).contains("VIOLATION"));
    assert!(stdout(&viol).contains("⟨c,o,CW⟩"), "{}", stdout(&viol));
}

#[test]
fn print_roundtrips_via_cli() {
    let out = run(&["print", &specs("readers_writers.pos")]);
    assert!(out.status.success());
    let printed = stdout(&out);
    assert!(printed.contains("universe {"));
    assert!(printed.contains("spec Write {"));
    // The printed text is itself a valid document.
    let dir = std::env::temp_dir().join("pospec_cli_printed.pos");
    std::fs::write(&dir, &printed).unwrap();
    let again = run(&["check", dir.to_str().unwrap()]);
    assert!(again.status.success(), "{}", stdout(&again));
}

#[test]
fn verify_runs_the_development_block() {
    let out = run(&["verify", &specs("session_service.pos")]);
    assert!(out.status.success(), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("7/7 obligation(s) discharged"), "{text}");
    assert!(text.contains("SessionService ⊑ Service"));
    assert!(text.contains("Lemma 6"));
    // A document without a development block is a no-op success.
    let out2 = run(&["verify", &specs("readers_writers.pos")]);
    assert!(out2.status.success());
    assert!(stdout(&out2).contains("nothing to verify"));
}

#[test]
fn verify_fails_on_false_obligations() {
    let dir = std::env::temp_dir().join("pospec_cli_bad_dev.pos");
    std::fs::write(
        &dir,
        "universe { class C; object o; method A; method B; witnesses C 1; }\n\
         spec Narrow { objects { o } alphabet { <C, o, A>; } traces any; }\n\
         spec Wide { objects { o } alphabet { <C, o, A>; <C, o, B>; } traces any; }\n\
         development { refine Narrow of Wide; }\n",
    )
    .unwrap();
    let out = run(&["verify", dir.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("0/1 obligation(s) discharged"), "{}", stdout(&out));
}

#[test]
fn simulate_runs_every_shipped_spec_within_its_deadline() {
    for name in ["readers_writers.pos", "auction.pos", "rw_component.pos", "session_service.pos"] {
        let started = std::time::Instant::now();
        let out = run(&[
            "simulate",
            &specs(name),
            "--seed",
            "7",
            "--faults",
            "drop=0.1,delay=0.2",
            "--deadline-ms",
            "2000",
        ]);
        assert!(out.status.success(), "{name}: {}", stdout(&out));
        // Generous slack over the 2 s deadline for process startup.
        assert!(started.elapsed() < std::time::Duration::from_secs(10), "{name} overran");
        let text = stdout(&out);
        assert!(text.contains("faults injected"), "{name}: {text}");
        assert!(text.contains("stopped:"), "{name}: {text}");
    }
}

#[test]
fn simulate_same_seed_runs_emit_identical_json() {
    let file = specs("readers_writers.pos");
    let args = [
        "simulate",
        file.as_str(),
        "--seed",
        "42",
        "--faults",
        "drop=0.15,dup=0.05,delay=0.2,crash=0.02",
        "--deadline-ms",
        "2000",
        "--json",
        "-",
    ];
    let a = run(&args);
    let b = run(&args);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(a.stdout, b.stdout, "same-seed fault logs and verdicts must be byte-identical");
    let json = stdout(&a);
    assert!(json.contains("\"fault_log\":["), "{json}");
    assert!(json.contains("\"verdicts\":["), "{json}");
    assert!(json.contains("\"stop_reason\""), "{json}");
    // A different seed injures different messages.
    let mut other = args;
    other[3] = "43";
    let c = run(&other);
    assert_ne!(a.stdout, c.stdout, "different seeds should diverge");
}

#[test]
fn simulate_rejects_malformed_fault_specs() {
    let out = run(&[
        "simulate",
        &specs("readers_writers.pos"),
        "--faults",
        "drop=2.0", // > 1.0: out of range
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid fault plan"), "{err}");
}

#[test]
fn lint_clean_specs_and_flawed_fixtures() {
    // The four shipping specs are clean even under --deny warnings.
    let strict = run(&["lint", &specs(""), "--deny", "warnings"]);
    assert!(strict.status.success(), "{}", String::from_utf8_lossy(&strict.stderr));
    assert!(stdout(&strict).contains("0 error(s), 0 warning(s)"), "{}", stdout(&strict));

    // The flawed fixtures: shadowed.pos is warnings-only (exit 0), but
    // --deny warnings promotes it to a failure (exit 1).
    let fixture = specs("lint_fixtures/shadowed.pos");
    let relaxed = run(&["lint", &fixture]);
    assert!(relaxed.status.success(), "{}", stdout(&relaxed));
    assert!(stdout(&relaxed).contains("warning[P101]"), "{}", stdout(&relaxed));
    let denied = run(&["lint", &fixture, "--deny", "warnings"]);
    assert_eq!(denied.status.code(), Some(1));
    assert!(stdout(&denied).contains("error[P101]"), "{}", stdout(&denied));
    // ...unless the code is individually allowed.
    let allowed = run(&["lint", &fixture, "--deny", "warnings", "--allow", "P101"]);
    assert!(allowed.status.success(), "{}", stdout(&allowed));

    // non_composable.pos has a hard error whatever the config.
    let out = run(&["lint", &specs("lint_fixtures/non_composable.pos")]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("error[P020]"), "{text}");
    assert!(text.contains("Def. 10"), "{text}");

    // --json emits one report per file plus totals, and carries spans.
    let json = run(&["lint", &specs("lint_fixtures"), "--json"]);
    assert_eq!(json.status.code(), Some(1), "directory contains an erroring fixture");
    let text = stdout(&json);
    assert!(text.contains("\"files\":["), "{text}");
    assert!(text.contains("\"code\":\"P020\""), "{text}");
    assert!(text.contains("\"code\":\"P101\""), "{text}");
    assert!(text.contains("\"offset\":"), "{text}");
}

#[test]
fn lint_flags_share_the_strict_parsing_convention() {
    let file = specs("readers_writers.pos");
    for args in [
        vec!["lint", file.as_str(), "--depth", "abc"],
        vec!["lint", file.as_str(), "--deny", "P9X9"],
        vec!["lint", file.as_str(), "--allow", "whatever"],
        vec!["lint", file.as_str(), "--warn", "warnings"],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("invalid value"), "args: {args:?}, stderr: {err}");
        assert!(err.contains(args[args.len() - 2]), "args: {args:?}, stderr: {err}");
    }
    // Bare value-flags and missing paths are usage errors too.
    let out = run(&["lint", &file, "--deny"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires a value"));
    let out = run(&["lint", "--json"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["lint", "/nonexistent_dir"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_names_and_files_exit_2() {
    let file = specs("readers_writers.pos");
    let missing = run(&["refine", &file, "Nope", "Write"]);
    assert_eq!(missing.status.code(), Some(2));
    let nofile = run(&["check", "/nonexistent.pos"]);
    assert_eq!(nofile.status.code(), Some(2));
    let nousage = run(&["frobnicate"]);
    assert_eq!(nousage.status.code(), Some(2));
}

#[test]
fn malformed_flag_values_exit_2_with_a_message() {
    let file = specs("readers_writers.pos");
    // Every numeric flag shares the same strict parser: a garbage value
    // is a usage error (exit 2) with the offending flag named on stderr.
    for args in [
        vec!["simulate", file.as_str(), "--seed", "abc"],
        vec!["simulate", file.as_str(), "--events", "many"],
        vec!["simulate", file.as_str(), "--deadline-ms", "soon"],
        vec!["refine", file.as_str(), "WriteAcc", "Write", "--depth", "abc"],
        vec!["quiesce", file.as_str(), "Write", "--depth", "-3"],
        vec!["serve", "--workers", "lots"],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("invalid value"), "args: {args:?}, stderr: {err}");
        assert!(err.contains(args[args.len() - 2]), "args: {args:?}, stderr: {err}");
    }
    // A flag given without any value is also a usage error.
    let out = run(&["simulate", &file, "--seed"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires a value"));
}

#[test]
fn subcommands_refuse_arguments_they_do_not_take() {
    let file = specs("readers_writers.pos");
    let trace = scratch("extra_args").join("good.jsonl");
    std::fs::write(&trace, "{\"caller\":\"c\",\"callee\":\"o\",\"method\":\"OW\"}\n").unwrap();
    let trace = trace.to_str().unwrap();
    let auction = specs("auction.pos");
    for args in [
        vec!["verify", auction.as_str(), "--depth", "garbage"],
        vec!["verify", auction.as_str(), "--depth", "6"],
        vec!["check", file.as_str(), "extra"],
        vec!["list", file.as_str(), "--json"],
        vec!["print", file.as_str(), "extra"],
        vec!["monitor", file.as_str(), "WriteAcc", trace, "extra"],
        // `compose` takes `--deadlock` and nothing else.
        vec!["compose", file.as_str(), "Client2", "WriteAcc", "--deadlock", "--depth", "x"],
        vec!["compose", file.as_str(), "Client2", "WriteAcc", "--depth", "6"],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("usage:"), "args: {args:?}, stderr: {err}");
    }
    // Without the extra argument each of them runs.
    assert!(run(&["monitor", &file, "WriteAcc", trace]).status.success());
    assert!(run(&["verify", &auction]).status.success());
}

/// A fresh scratch directory under the system temp dir, unique per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pospec_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn gen_writes_document_and_manifest() {
    let dir = scratch("gen_basic");
    let out = run(&[
        "gen",
        "--family",
        "ring",
        "--objects",
        "64",
        "--seed",
        "9",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let pos = dir.join("ring-n64-s9.pos");
    let manifest = dir.join("ring-n64-s9.manifest.json");
    let text = stdout(&out);
    assert!(text.contains("ring-n64-s9.pos"), "{text}");
    assert!(text.contains("spec(s)"), "{text}");

    // The document parses and its spec count matches the manifest's.
    let src = std::fs::read_to_string(&pos).expect("document written");
    let doc = pospec_lang::parse_document(&src).expect("generated document parses");
    let mtext = std::fs::read_to_string(&manifest).expect("manifest written");
    let mjson = pospec_json::parse(&mtext).expect("manifest is valid JSON");
    assert_eq!(
        mjson.get("spec_count").and_then(|v| v.as_u64()),
        Some(doc.specs.len() as u64),
        "{mtext}"
    );
    assert_eq!(mjson.get("format").and_then(|v| v.as_str()), Some("pospec-gen-manifest/1"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gen_same_seed_output_is_byte_identical() {
    let dir_a = scratch("gen_rep_a");
    let dir_b = scratch("gen_rep_b");
    let args = |dir: &std::path::Path| {
        vec![
            "gen".to_string(),
            "--family".into(),
            "gossip".into(),
            "--objects".into(),
            "12".into(),
            "--seed".into(),
            "5".into(),
            "--out".into(),
            dir.to_string_lossy().into_owned(),
        ]
    };
    for dir in [&dir_a, &dir_b] {
        let argv = args(dir);
        let refs: Vec<&str> = argv.iter().map(String::as_str).collect();
        let out = run(&refs);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    for name in ["gossip-n12-s5.pos", "gossip-n12-s5.manifest.json"] {
        let a = std::fs::read(dir_a.join(name)).expect("first run wrote");
        let b = std::fs::read(dir_b.join(name)).expect("second run wrote");
        assert_eq!(a, b, "same-flag runs must be byte-identical: {name}");
    }
    // ...and identical to what the library produces in-process.
    let config = pospec_gen::GenConfig::new(pospec_gen::Family::Gossip, 12, 5);
    let scenario = pospec_gen::generate(&config).expect("generate");
    let cli_doc = std::fs::read_to_string(dir_a.join("gossip-n12-s5.pos")).unwrap();
    assert_eq!(cli_doc, scenario.document, "CLI output must match the library");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn gen_flags_share_the_strict_parsing_convention() {
    // Missing required flags, malformed values, out-of-range densities,
    // unknown arguments, and impossible topologies all exit 2.
    for args in [
        vec!["gen", "--objects", "8"],
        vec!["gen", "--family", "ring"],
        vec!["gen", "--family", "hypercube", "--objects", "8"],
        vec!["gen", "--family", "ring", "--objects", "lots"],
        vec!["gen", "--family", "ring", "--objects", "8", "--seed", "abc"],
        vec!["gen", "--family", "ring", "--objects", "8", "--mutations", "1500"],
        vec!["gen", "--family", "gossip", "--objects", "2"],
        vec!["gen", "--family", "ring", "--objects", "8", "--salt", "no spaces"],
        vec!["gen", "--family", "ring", "--objects", "8", "--frobnicate"],
        vec!["gen", "--family", "ring", "--objects", "8", "--out"],
    ] {
        let out = run(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "args: {args:?}, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stderr.is_empty(), "args: {args:?} should explain itself on stderr");
    }
}

#[test]
fn bench_diff_compares_snapshots_and_gates_on_time() {
    let dir = scratch("benchdiff");
    let before = dir.join("before.json");
    let after = dir.join("after.json");
    std::fs::write(&before, r#"{"cold":{"matrix_nanos":1000,"cache":{"builds":10}}}"#)
        .expect("write before");

    // Self-comparison: zero deltas, exit 0.
    let same = run(&["bench", "diff", before.to_str().unwrap(), before.to_str().unwrap()]);
    assert_eq!(same.status.code(), Some(0), "{}", stdout(&same));
    assert!(stdout(&same).contains("no time regressions"), "{}", stdout(&same));

    // A time metric past the threshold fails; a counter never does.
    std::fs::write(&after, r#"{"cold":{"matrix_nanos":2000,"cache":{"builds":99}}}"#)
        .expect("write after");
    let worse = run(&[
        "bench",
        "diff",
        before.to_str().unwrap(),
        after.to_str().unwrap(),
        "--threshold-pct",
        "50",
    ]);
    assert_eq!(worse.status.code(), Some(1), "{}", stdout(&worse));
    assert!(stdout(&worse).contains("cold.matrix_nanos"), "{}", stdout(&worse));
    assert!(!stdout(&worse).contains("builds  REGRESSION"), "{}", stdout(&worse));

    // A generous threshold tolerates the same delta.
    let ok = run(&[
        "bench",
        "diff",
        before.to_str().unwrap(),
        after.to_str().unwrap(),
        "--threshold-pct",
        "200",
    ]);
    assert_eq!(ok.status.code(), Some(0), "{}", stdout(&ok));

    // Usage errors exit 2.
    let usage = run(&["bench", "diff", before.to_str().unwrap()]);
    assert_eq!(usage.status.code(), Some(2));
    let nofile = run(&["bench", "diff", "/nonexistent.json", before.to_str().unwrap()]);
    assert_eq!(nofile.status.code(), Some(2));
    let badpct = run(&[
        "bench",
        "diff",
        before.to_str().unwrap(),
        before.to_str().unwrap(),
        "--threshold-pct",
        "abc",
    ]);
    assert_eq!(badpct.status.code(), Some(2));
}

#[test]
fn lsp_serves_a_framed_session_over_stdio() {
    use std::io::Write as _;

    // A minimal editor session: initialize, open a clean document,
    // shut down.  Bodies are ASCII so byte lengths are char counts.
    let open_doc = "universe { class Env; object o; method OP; witnesses Env 1; }\\n\
                    spec A { objects { o } alphabet { <Env, o, OP>; } traces any; }\\n";
    let bodies = [
        r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}"#.to_string(),
        format!(
            r#"{{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{{"textDocument":{{"uri":"file:///t.pos","version":1,"text":"{open_doc}"}}}}}}"#
        ),
        r#"{"jsonrpc":"2.0","id":2,"method":"shutdown","params":null}"#.to_string(),
        r#"{"jsonrpc":"2.0","method":"exit"}"#.to_string(),
    ];
    let mut input = Vec::new();
    for b in &bodies {
        input.extend_from_slice(format!("Content-Length: {}\r\n\r\n{b}", b.len()).as_bytes());
    }

    let mut child = Command::new(env!("CARGO_BIN_EXE_pospec"))
        .arg("lsp")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn lsp");
    child.stdin.take().expect("stdin").write_all(&input).expect("feed session");
    let out = child.wait_with_output().expect("lsp exits");
    assert_eq!(out.status.code(), Some(0), "clean shutdown");
    let text = String::from_utf8(out.stdout).expect("utf-8 frames");
    assert!(text.contains("\"positionEncoding\":\"utf-16\""), "{text}");
    assert!(text.contains("\"diagnostics\":[]"), "clean doc publishes empty: {text}");
}

#[test]
fn lint_dir_expansion_is_sorted_deterministically() {
    let dir = std::env::temp_dir().join(format!("pospec-lint-sort-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let body = "universe { class Env; object o; method OP; witnesses Env 1; }\n\
                spec S { objects { o } alphabet { <Env, o, OP>; } traces any; }\n";
    // Created in shuffled order: the report must still come out sorted.
    for name in ["b.pos", "c.pos", "a.pos"] {
        std::fs::write(dir.join(name), body).expect("write fixture");
    }
    let out = run(&["lint", &dir.to_string_lossy(), "--json"]);
    assert!(out.status.success(), "{}", stdout(&out));
    let text = stdout(&out);
    let pos = |n: &str| text.find(n).unwrap_or_else(|| panic!("{n} missing from report:\n{text}"));
    let (a, b, c) = (pos("a.pos"), pos("b.pos"), pos("c.pos"));
    assert!(a < b && b < c, "directory expansion must be sorted: a@{a} b@{b} c@{c}\n{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_fix_converges_and_preserves_untouched_verdicts() {
    let dir = std::env::temp_dir().join(format!("pospec-lint-fix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let target = dir.join("dead_weight.pos");
    std::fs::copy(specs("lint_fixtures/dead_weight.pos"), &target).expect("copy fixture");
    let target = target.to_string_lossy().into_owned();

    // The untouched refinement's verdict before any fix is applied.
    let before = run(&["refine", &target, "Stable", "StableBase"]);
    assert!(before.status.success(), "{}", stdout(&before));

    let fix = run(&["lint", &target, "--fix"]);
    assert!(fix.status.success(), "{}", stdout(&fix));
    assert!(stdout(&fix).contains("applied"), "fixes must be reported: {}", stdout(&fix));

    // The fixed document lints clean, and a second --fix is a no-op.
    let again = run(&["lint", &target, "--fix", "--json"]);
    assert!(again.status.success());
    let text = stdout(&again);
    assert!(text.contains("\"clean\":true"), "fixed file must lint clean: {text}");
    assert!(text.contains("\"fixed\":0"), "--fix must be idempotent: {text}");

    // The pair the fixes never touched keeps its verdict.
    let after = run(&["refine", &target, "Stable", "StableBase"]);
    assert_eq!(before.status.code(), after.status.code());
    assert_eq!(stdout(&before), stdout(&after));
    assert!(stdout(&after).contains("holds"));
    std::fs::remove_dir_all(&dir).ok();
}

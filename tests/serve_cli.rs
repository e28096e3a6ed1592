//! End-to-end tests of `decisive serve` as a spawned process: the exit-code
//! contract (0 success, 1 failure, 2 usage), the stdio protocol loop,
//! serve-versus-CLI result identity, and SIGINT trace flushing.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use decisive::federation::{json, Value};

fn decisive_bin() -> &'static str {
    env!("CARGO_BIN_EXE_decisive")
}

fn data(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../data").join(file)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decisive-serve-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(decisive_bin()).args(args).output().expect("decisive spawns")
}

#[test]
fn unknown_verb_is_a_usage_error() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn serve_misuse_is_a_usage_error() {
    for (case, args) in [
        ("unknown flag", vec!["serve", "--bogus"]),
        ("positional", vec!["serve", "model.bd"]),
        ("dangling value flag", vec!["serve", "--socket"]),
        ("socket and watch together", vec!["serve", "--socket", "/tmp/x", "--watch", "m.bd"]),
        ("poll-ms without watch", vec!["serve", "--poll-ms", "100"]),
        ("bad poll-ms", vec!["serve", "--watch", "m.bd", "--poll-ms", "zero"]),
        ("bad jobs", vec!["serve", "--jobs", "0"]),
    ] {
        let out = run(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{case}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage error"),
            "{case} names the misuse"
        );
    }
}

#[test]
fn watching_a_missing_model_is_a_failure() {
    let out = run(&["serve", "--watch", "/no/such/model.bd"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

struct Serve {
    child: Child,
    stdin: std::process::ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
}

fn spawn_serve(extra: &[&str]) -> Serve {
    let mut child = Command::new(decisive_bin())
        .arg("serve")
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let stdin = child.stdin.take().expect("stdin piped");
    let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    Serve { child, stdin, stdout }
}

impl Serve {
    fn request(&mut self, line: &str) -> Value {
        writeln!(self.stdin, "{line}").expect("request written");
        self.stdin.flush().expect("request flushed");
        let mut response = String::new();
        self.stdout.read_line(&mut response).expect("response read");
        json::parse(response.trim()).unwrap_or_else(|e| panic!("`{response}` reparses: {e}"))
    }
}

#[test]
fn stdio_round_trip_exits_cleanly() {
    let model = data("brownout_threshold.bd");
    let mut serve = spawn_serve(&[]);
    let analyze = serve.request(&format!(
        r#"{{"op":"analyze","id":1,"session":"cli","path":"{}"}}"#,
        model.display()
    ));
    assert_eq!(analyze.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(analyze.get("id").and_then(Value::as_i64), Some(1));
    let junk = serve.request("definitely not json");
    assert_eq!(junk.get("ok").and_then(Value::as_bool), Some(false));
    let shutdown = serve.request(r#"{"op":"shutdown","id":2}"#);
    assert_eq!(shutdown.get("ok").and_then(Value::as_bool), Some(true));
    let status = serve.child.wait().expect("serve exits");
    assert_eq!(status.code(), Some(0), "clean shutdown exits 0");
}

/// Strips wall-clock fields so serve and CLI documents compare equal.
fn strip_timing(value: Value) -> Value {
    match value {
        Value::Record(fields) => Value::Record(
            fields
                .into_iter()
                .filter(|(k, _)| k != "stats" && k != "slowest" && k != "wall_ms")
                .map(|(k, v)| (k, strip_timing(v)))
                .collect(),
        ),
        Value::List(items) => Value::List(items.into_iter().map(strip_timing).collect()),
        other => other,
    }
}

/// The daemon speaks exactly the `--format json` documents: a served
/// pipeline result equals a one-shot CLI run on the same model.
#[test]
fn served_pipeline_matches_cli_json_output() {
    let model = data("brownout_threshold.bd");
    let model_arg = model.display().to_string();
    let out = run(&["pipeline", &model_arg, "--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let cli = json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("CLI JSON parses");

    let mut serve = spawn_serve(&[]);
    let response =
        serve.request(&format!(r#"{{"op":"pipeline","session":"cli","path":"{model_arg}"}}"#));
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    let served = response.get("result").cloned().expect("served result");
    serve.request(r#"{"op":"shutdown"}"#);
    serve.child.wait().expect("serve exits");

    assert_eq!(strip_timing(served), strip_timing(cli), "wire protocol IS the CLI JSON output");
}

/// A run's report depends only on the current design: a graph-only
/// `analyze` over a cache directory that a `.bd` pipeline filled prints
/// exactly what the uncached run prints — `campaign: null` included — and
/// leaves nothing in the directory but the store.
#[test]
fn graph_analyze_over_a_pipeline_cache_matches_the_uncached_run() {
    let dir = scratch("stale-health");
    let cache = dir.join("cache");
    std::fs::remove_dir_all(&cache).ok();
    let model = dir.join("model.json");
    let (cache_arg, model_arg) = (cache.display().to_string(), model.display().to_string());
    let design_arg = data("power_supply.bd").display().to_string();
    let ok = |args: &[&str]| {
        let out = run(args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("UTF-8 stdout")
    };
    ok(&["import", &design_arg, &model_arg]);
    ok(&["pipeline", &design_arg, "--cache", &cache_arg]);

    let uncached = ok(&["analyze", &model_arg, "--format", "json"]);
    let cached = ok(&["analyze", &model_arg, "--cache", &cache_arg, "--format", "json"]);
    let uncached = json::parse(uncached.trim()).expect("uncached JSON parses");
    let cached = json::parse(cached.trim()).expect("cached JSON parses");
    assert_eq!(cached.get("campaign"), Some(&Value::Null), "no campaign ran in this analysis");
    assert_eq!(strip_timing(cached), strip_timing(uncached), "the cache changes no reported field");
    ok(&["analyze", &model_arg, "--cache", &cache_arg, "--strict"]);

    let mut left: Vec<String> = std::fs::read_dir(&cache)
        .expect("cache dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    assert_eq!(left, ["store"], "the store is the cache directory's only content");
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGINT mid-serve still flushes a valid trace file and exits through
/// the normal persist path.
#[test]
fn sigint_flushes_a_valid_trace() {
    let dir = scratch("sigint");
    let trace = dir.join("trace.json");
    let trace_arg = trace.display().to_string();
    let model = data("brownout_threshold.bd");
    let mut serve = spawn_serve(&["--trace-out", &trace_arg]);
    let analyze = serve
        .request(&format!(r#"{{"op":"analyze","session":"cli","path":"{}"}}"#, model.display()));
    assert_eq!(analyze.get("ok").and_then(Value::as_bool), Some(true));

    let interrupt = Command::new("kill")
        .args(["-INT", &serve.child.id().to_string()])
        .status()
        .expect("kill spawns");
    assert!(interrupt.success());
    let status = serve.child.wait().expect("serve exits");
    assert_eq!(status.code(), Some(0), "interrupted serve still exits through the flush path");

    let text = std::fs::read_to_string(&trace).expect("trace file written on interrupt");
    let document = json::parse(&text).expect("interrupted trace is valid JSON");
    let events = document
        .get("traceEvents")
        .and_then(Value::as_list)
        .expect("chrome trace carries traceEvents");
    assert!(!events.is_empty(), "the served request's span survived the interrupt");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--watch` streams a first result immediately, then one per mtime
/// change, and SIGINT ends the loop with exit 0.
#[test]
fn watch_streams_results_until_interrupted() {
    let dir = scratch("watch");
    let model = dir.join("probe.bd");
    std::fs::copy(data("brownout_threshold.bd"), &model).expect("model staged");
    let model_arg = model.display().to_string();

    let mut child = Command::new(decisive_bin())
        .args(["serve", "--watch", &model_arg, "--poll-ms", "50"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("watch spawns");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));

    let mut first = String::new();
    stdout.read_line(&mut first).expect("first result streams");
    let value = json::parse(first.trim()).expect("watch result parses");
    assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(value.get("op").and_then(Value::as_str), Some("pipeline"));

    // Touch the model (content change so the analysis genuinely reruns).
    let text = std::fs::read_to_string(&model).expect("model reads");
    std::fs::write(&model, format!("{text}\n# revised\n")).expect("model touched");
    let mut second = String::new();
    stdout.read_line(&mut second).expect("revision result streams");
    let value = json::parse(second.trim()).expect("revision result parses");
    assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));

    let interrupt =
        Command::new("kill").args(["-INT", &child.id().to_string()]).status().expect("kill spawns");
    assert!(interrupt.success());
    let status = child.wait().expect("watch exits");
    assert_eq!(status.code(), Some(0), "interrupted watch exits cleanly");
    std::fs::remove_dir_all(&dir).ok();
}

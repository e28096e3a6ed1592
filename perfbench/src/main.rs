//! perfbench: the end-to-end and per-layer benchmark of the decisive
//! toolchain.
//!
//! ```text
//! perfbench --workload edit-loop|campaign|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (it reads `data/`). A run is a fixed
//! number of ops, `--seconds` times the workload's reference rate, so it
//! measures for about `--seconds` on a 2-vCPU machine and every run of a
//! workload measures the same ops. Every input is generated from `--seed`
//! into `.perfbench-work/` before set-up, and that directory is removed on
//! exit. The program is set up 21 times and the median set-up time is
//! reported; then one client runs the workload's seeded script in a closed
//! loop, and the output checks run. With `--trace 0` the last stdout line
//! is a JSON object with the end-to-end metrics; with `--trace 1` a fifth
//! of the script runs untraced, traced and untraced again, each from a
//! fresh set-up, and the JSON carries the per-layer metrics instead.
//! The workloads and the metrics' names and units are those of
//! `BENCHMARK.json`; `design.json` records how each workload is driven,
//! its reference rate, and what each layer metric should move.

mod campaign;
mod edit_loop;
mod layers;
mod serve_mix;
mod spec;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use decisive::federation::{json, Value};
use decisive::obs::Telemetry;

use crate::layers::{per_layer, TracedRun};
use crate::spec::{Metric, Spec};
use crate::stats::{median, tail, throughput, Tally};
use crate::workload::{Probes, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;

/// Metric values by name.
type Metrics = BTreeMap<&'static str, f64>;

/// A timed loop stops early past this many times `--seconds`, so a much
/// slower program still ends in bounded time.
const CAP_FACTOR: f64 = 2.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Ops in the timed loop.
    ops: usize,
}

/// Parses the command line; the run's op count is `--seconds` times the
/// workload's reference rate.
fn parse_args(spec: &Spec, mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = argv.next() {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = argv.next().ok_or(format!("`{flag}` needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |flag: &str| flags.get(flag).ok_or(format!("missing `{flag}`"));
    let workload = get("--workload")?.clone();
    let Some(&(_, rate)) = spec.workloads.iter().find(|(name, _)| *name == workload) else {
        let names: Vec<&str> = spec.workloads.iter().map(|(name, _)| name.as_str()).collect();
        return Err(format!("unknown workload `{workload}` ({})", names.join("|")));
    };
    let seed = get("--seed")?.parse().map_err(|_| "`--seed` wants an unsigned integer")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "`--seconds` wants a number")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("`--seconds` must be positive".to_owned());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("`--trace` wants 0 or 1, got `{other}`")),
    };
    let ops = ((seconds * rate).round() as usize).max(1);
    Ok(Args { workload, seed, seconds, trace, ops })
}

/// The run's input directory, removed when the run ends however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn make_workload(args: &Args, dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "edit-loop" => Box::new(edit_loop::EditLoop::new(args.seed, args.ops)?),
        "campaign" => Box::new(campaign::Campaign::new(args.seed, args.ops)?),
        _ => Box::new(serve_mix::ServeMix::new(args.seed, args.ops, dir, Path::new("data"))?),
    })
}

/// The outcome of one timed loop.
struct LoopRun {
    latencies_ms: Vec<f64>,
    /// When each op ended, in seconds since the loop started.
    ends_s: Vec<f64>,
}

/// Runs steps `0..ops` of the script, stopping early once `cap_s` seconds
/// have passed.
fn run_loop(
    workload: &mut dyn Workload,
    ops: usize,
    cap_s: f64,
    mut probes: Option<&mut Probes>,
    tally: &mut Tally,
    failures: &mut Vec<String>,
) -> LoopRun {
    let started = Instant::now();
    let mut latencies_ms = Vec::new();
    let mut ends_s = Vec::new();
    for step in 0..ops {
        if started.elapsed().as_secs_f64() > cap_s {
            eprintln!("perfbench: stopped after {step} of {ops} ops at the {cap_s} s cap");
            break;
        }
        let (ms, outcome) = workload.op(step, probes.as_deref_mut());
        tally.record(outcome.is_ok());
        if let Err(e) = outcome {
            failures.push(format!("op {step}: {e}"));
        }
        latencies_ms.push(ms);
        ends_s.push(started.elapsed().as_secs_f64());
    }
    LoopRun { latencies_ms, ends_s }
}

fn run_checks(workload: &mut dyn Workload, tally: &mut Tally, failures: &mut Vec<String>) {
    for (name, verdict) in workload.checks() {
        tally.record(verdict.is_ok());
        match verdict {
            Ok(()) => println!("# check ok: {name}"),
            Err(e) => {
                println!("# check FAILED: {name}: {e}");
                failures.push(format!("check {name}: {e}"));
            }
        }
    }
}

/// The process's peak resident set (VmHWM) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// The end-to-end run: set-ups, the timed loop, the checks.
fn end_to_end(
    args: &Args,
    spec: &Spec,
    workload: &mut dyn Workload,
) -> Result<(Tally, Metrics), String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        setups.push(workload.setup(Telemetry::noop())?);
    }
    let mut tally = Tally::default();
    let mut failures = Vec::new();
    let run =
        run_loop(workload, args.ops, CAP_FACTOR * args.seconds, None, &mut tally, &mut failures);
    // The peak of the set-ups and the timed loop, before the checks build
    // reference engines of their own.
    let peak_rss_mb = peak_rss_mb()?;
    run_checks(workload, &mut tally, &mut failures);
    for failure in failures.iter().take(5) {
        eprintln!("perfbench: {failure}");
    }
    let n = run.latencies_ms.len();
    let tail = tail(&run.latencies_ms).ok_or("the timed loop completed no op")?;
    let blocks = tail.blocks;
    let wall_s = run.ends_s.last().copied().unwrap_or_default();
    let values: Metrics = BTreeMap::from([
        ("setup_s", median(&setups)),
        ("latency_p50_ms", median(&run.latencies_ms)),
        ("latency_tail_ms", tail.value),
        ("throughput_per_s", throughput(&run.ends_s)),
        ("peak_rss_mb", peak_rss_mb),
    ]);
    let notes = BTreeMap::from([
        ("setup_s", format!("median of {SETUP_REPEATS} set-ups: {setups:.4?}")),
        ("latency_p50_ms", format!("n={n}")),
        (
            "latency_tail_ms",
            format!(
                "p{}, median of {blocks} block(s) of n={n}, {} samples beyond in each",
                tail.percentile, tail.beyond
            ),
        ),
        (
            "throughput_per_s",
            format!("median of {blocks} block(s); {n} ops in {wall_s:.3} s, closed loop, 1 client"),
        ),
        ("peak_rss_mb", "VmHWM after the timed loop, before the checks".to_owned()),
    ]);
    println!("# {} end to end (seed {}, {} s, trace off)", args.workload, args.seed, args.seconds);
    for Metric { name, unit } in &spec.end_to_end {
        let value = values.get(name.as_str()).copied().unwrap_or(f64::NAN);
        let note = notes.get(name.as_str()).map_or("", String::as_str);
        println!("# {name:<18} {value:>12.4} {unit:<4} {note}");
    }
    println!(
        "# {:<18} {:>12.4}      {} failed of {} attempted (ops and checks)",
        "error_rate",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );
    Ok((tally, values))
}

/// The traced run: five loops over the same fifth of the script, each from
/// a fresh set-up. A discarded warm-up loop first, because the first loop
/// of a process also pays for growing the heap. Then untraced, traced and
/// untraced again, so drift falls on both sides of the overhead ratio. Last
/// a loop with the layer probes between ops, whose latencies are not used
/// because the probes change what the next op finds warm. Then the checks.
fn traced(
    args: &Args,
    spec: &Spec,
    workload: &mut dyn Workload,
) -> Result<(Tally, Metrics), String> {
    const LOOPS: usize = 5;
    let mut tally = Tally::default();
    let mut failures = Vec::new();
    let ops = (args.ops / LOOPS).max(1);
    let cap_s = CAP_FACTOR * args.seconds / LOOPS as f64;
    workload.setup(Telemetry::noop())?;
    run_loop(workload, ops, cap_s, None, &mut tally, &mut failures);

    workload.setup(Telemetry::noop())?;
    let before = run_loop(workload, ops, cap_s, None, &mut tally, &mut failures);

    let (telemetry, sink) = Telemetry::recording();
    workload.setup(telemetry)?;
    let setup_report = sink.drain();
    let traced = run_loop(workload, ops, cap_s, None, &mut tally, &mut failures);
    let ops_report = sink.drain();
    let cache_entries = workload.cache_entries();

    workload.setup(Telemetry::noop())?;
    let after = run_loop(workload, ops, cap_s, None, &mut tally, &mut failures);

    workload.setup(Telemetry::noop())?;
    let mut probes = Probes::default();
    run_loop(workload, ops, cap_s, Some(&mut probes), &mut tally, &mut failures);
    run_checks(workload, &mut tally, &mut failures);
    for failure in failures.iter().take(5) {
        eprintln!("perfbench: {failure}");
    }

    let total = |run: &LoopRun| run.latencies_ms.iter().sum::<f64>();
    let plain_ms = (total(&before) + total(&after)) / 2.0;
    let values = per_layer(&TracedRun {
        ops: &ops_report,
        setup: &setup_report,
        probes: &probes,
        cache_entries,
        overhead_ratio: if plain_ms > 0.0 { total(&traced) / plain_ms - 1.0 } else { 0.0 },
    });

    println!(
        "# {} per layer (seed {}, {} ops traced, {} spans, trace on)",
        args.workload,
        args.seed,
        traced.latencies_ms.len(),
        ops_report.spans.len()
    );
    println!(
        "# {:<38} {:>12} {:<6} {:<34} {:<38} flat on",
        "metric", "value", "unit", "should move", "on"
    );
    for Metric { name, unit } in &spec.per_layer {
        let value = values.get(name.as_str()).copied().unwrap_or(f64::NAN);
        let row = spec.predictions.get(name).cloned().unwrap_or_default();
        let (moves, on, flat) = (row.moves, row.on, row.flat_on);
        println!("# {name:<38} {value:>12.4} {unit:<6} {moves:<34} {on:<38} {flat}");
    }
    println!(
        "# error_rate {:.4} ({} failed of {} attempted)",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    );
    Ok((tally, values))
}

/// The result line: every metric of `listed`, in its order, with its
/// unit. A listed metric the run did not compute is an error.
fn result_line(tally: &Tally, values: &Metrics, listed: &[Metric]) -> Result<String, String> {
    let metrics = listed
        .iter()
        .map(|Metric { name, unit }| {
            let value = values.get(name.as_str()).ok_or(format!("metric {name} not computed"))?;
            let record = Value::record([
                ("value", Value::Real(*value)),
                ("unit", Value::from(unit.as_str())),
            ]);
            Ok((name.as_str(), record))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(json::to_string(&Value::record([
        ("correct", Value::Bool(tally.failed == 0)),
        ("attempted", Value::Int(tally.attempted as i64)),
        ("failed", Value::Int(tally.failed as i64)),
        ("metrics", Value::record(metrics)),
    ])))
}

fn main() -> ExitCode {
    let spec = match Spec::load() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args = match parse_args(&spec, std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload edit-loop|campaign|serve-mix \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let dir = WorkDir(PathBuf::from(".perfbench-work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    let outcome = std::fs::create_dir_all(&dir.0).map_err(|e| e.to_string()).and_then(|()| {
        let mut workload = make_workload(&args, &dir.0)?;
        if args.trace {
            let (tally, values) = traced(&args, &spec, workload.as_mut())?;
            result_line(&tally, &values, &spec.per_layer)
        } else {
            let (tally, values) = end_to_end(&args, &spec, workload.as_mut())?;
            result_line(&tally, &values, &spec.end_to_end)
        }
    });
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_count_follows_seconds_and_rate() {
        let spec = Spec::load().expect("both files parse");
        let args = |w: &str, s: &str| {
            let argv = ["--workload", w, "--seed", "7", "--seconds", s, "--trace", "0"];
            parse_args(&spec, argv.iter().map(|a| (*a).to_owned()))
        };
        let rate = spec.workloads.iter().find(|(n, _)| n == "edit-loop").expect("edit-loop").1;
        assert_eq!(args("edit-loop", "25").expect("valid").ops, (25.0 * rate).round() as usize);
        assert_eq!(args("serve-mix", "0.001").expect("valid").ops, 1);
        assert!(args("fleet-sweep", "25").is_err());
        assert!(args("campaign", "-1").is_err());
    }
}

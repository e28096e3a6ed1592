//! Per-layer metrics of a traced run, read from the spans, counters and
//! histograms the program records, plus the benchmark's own probes.

use std::collections::BTreeMap;

use decisive::obs::{SpanRecord, TraceReport};

use crate::stats::{uncovered, Interval};
use crate::workload::{Probes, JOBS};

fn interval(span: &SpanRecord) -> Interval {
    (span.start_us, span.end_us())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 && num != 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// The spans of each op, assigned by time window: one op is in flight at
/// a time, so a span starting inside an op's `bench:op` window belongs to
/// that op whichever thread it ran on and whatever its parent link says.
pub struct OpSpans<'a> {
    /// Each op's window.
    pub windows: Vec<Interval>,
    /// Per op: the spans of the program other than `request:*`.
    pub engine: Vec<Vec<&'a SpanRecord>>,
    /// Per op: the `request:*` spans.
    pub requests: Vec<Vec<&'a SpanRecord>>,
}

impl<'a> OpSpans<'a> {
    /// Splits `spans` into the op windows the `bench:op` spans mark.
    pub fn assign(spans: &'a [SpanRecord]) -> OpSpans<'a> {
        let mut windows: Vec<Interval> =
            spans.iter().filter(|s| s.name == "bench:op").map(interval).collect();
        windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut engine = vec![Vec::new(); windows.len()];
        let mut requests = vec![Vec::new(); windows.len()];
        for span in spans.iter().filter(|s| s.name != "bench:op") {
            let after = windows.partition_point(|w| w.0 <= span.start_us);
            let Some(op) = after.checked_sub(1).filter(|&op| span.start_us <= windows[op].1) else {
                continue;
            };
            if span.name.starts_with("request:") {
                requests[op].push(span);
            } else {
                engine[op].push(span);
            }
        }
        OpSpans { windows, engine, requests }
    }

    /// Milliseconds per op of each op's window not covered by its
    /// non-request spans.
    pub fn engine_unattributed_ms(&self) -> f64 {
        let total: f64 = self
            .windows
            .iter()
            .zip(&self.engine)
            .map(|(&w, spans)| uncovered(w, &spans.iter().map(|s| interval(s)).collect::<Vec<_>>()))
            .sum();
        ratio(total, self.windows.len() as f64) / 1e3
    }

    /// Milliseconds per request op of each window covered by no span at
    /// all; `0` when no op carried a request span.
    pub fn serve_unattributed_ms(&self) -> f64 {
        let mut total = 0.0;
        let mut ops = 0;
        for ((&w, engine), requests) in self.windows.iter().zip(&self.engine).zip(&self.requests) {
            if requests.is_empty() {
                continue;
            }
            let all: Vec<Interval> = engine.iter().chain(requests).map(|s| interval(s)).collect();
            total += uncovered(w, &all);
            ops += 1;
        }
        ratio(total, ops as f64) / 1e3
    }

    /// Mean self time in milliseconds of the `request:{op}` spans: each
    /// span minus the part its op's other spans cover.
    pub fn request_self_ms(&self, op: &str) -> f64 {
        let name = format!("request:{op}");
        let mut selfs = Vec::new();
        for (engine, requests) in self.engine.iter().zip(&self.requests) {
            let children: Vec<Interval> = engine.iter().map(|s| interval(s)).collect();
            for request in requests.iter().filter(|r| r.name == name) {
                selfs.push(uncovered(interval(request), &children) / 1e3);
            }
        }
        mean(&selfs)
    }
}

/// Everything a traced run hands to [`per_layer`].
pub struct TracedRun<'a> {
    /// The trace of the timed ops.
    pub ops: &'a TraceReport,
    /// The trace of the set-up that preceded them.
    pub setup: &'a TraceReport,
    /// The benchmark's timed layer calls.
    pub probes: &'a Probes,
    /// The program's cache size after the ops.
    pub cache_entries: usize,
    /// Traced over untraced wall time of the same ops, minus one.
    pub overhead_ratio: f64,
}

/// Computes every per-layer metric of `BENCHMARK.json`. A layer the
/// workload does not touch reads `0`.
pub fn per_layer(run: &TracedRun<'_>) -> BTreeMap<&'static str, f64> {
    let report = run.ops;
    let op_spans = OpSpans::assign(&report.spans);
    let ops = op_spans.windows.len() as f64;
    let op_wall_us: f64 = op_spans.windows.iter().map(|w| w.1 - w.0).sum();
    let span_ms = |name: &str| -> f64 {
        let us: f64 = report.spans.iter().filter(|s| s.name == name).map(|s| s.duration_us).sum();
        ratio(us / 1e3, ops)
    };
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0) as f64;
    let counters_matching = |prefix: &str, suffix: &str| -> f64 {
        report
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, &v)| v as f64)
            .sum()
    };
    let histogram_sum_ms = |name: &str| report.histograms.get(name).map_or(0.0, |h| h.sum_ms);
    let job_us: f64 =
        report.spans.iter().filter(|s| s.name.starts_with("job:")).map(|s| s.duration_us).sum();
    let (wait_ms, waits) = report
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with("scheduler.") && k.ends_with(".queue_wait_ms"))
        .fold((0.0, 0u64), |(sum, n), (_, h)| (sum + h.sum_ms, n + h.count));
    let hits = counters_matching("cache.", ".hits");
    let misses = counters_matching("cache.", ".misses");
    let solves = counter("solver.solves");
    let reuse = counter("solver.factor_reuse");

    let mut out = BTreeMap::new();
    for (name, pass) in [
        ("engine.pass.fta.ms", "pass:fta"),
        ("engine.phase.fta-subtrees.ms", "phase:fta-subtrees"),
        ("engine.pass.assurance.ms", "pass:assurance"),
        ("engine.phase.assurance-case.ms", "phase:assurance-case"),
        ("engine.pass.hara.ms", "pass:hara"),
        ("engine.pass.graph-fmea.ms", "pass:graph-fmea"),
        ("engine.phase.graph-rows.ms", "phase:graph-rows"),
        ("engine.phase.risk-log.ms", "phase:risk-log"),
        ("engine.pass.montecarlo.ms", "pass:montecarlo"),
    ] {
        out.insert(name, span_ms(pass));
    }
    out.insert("engine.unattributed_ms", op_spans.engine_unattributed_ms());
    out.insert("engine.cache.hit_ratio", ratio(hits, hits + misses));
    out.insert("engine.cache.recomputed", ratio(counters_matching("cache.", ".recomputed"), ops));
    out.insert("engine.cache.entries", run.cache_entries as f64);
    out.insert("engine.model_fp.ms", mean(&run.probes.model_fp));
    out.insert("engine.model_fp.serialized_ms", mean(&run.probes.serialized_fp));
    out.insert("engine.scheduler.parallel_efficiency", ratio(job_us, JOBS as f64 * op_wall_us));
    out.insert("engine.scheduler.queue_wait_ms", ratio(wait_ms, waits as f64));
    out.insert("circuit.solver.solves", ratio(solves, ops));
    out.insert("circuit.solver.iterations_per_solve", ratio(counter("solver.iterations"), solves));
    out.insert(
        "circuit.solver.factor_reuse_ratio",
        ratio(reuse, reuse + counter("solver.refactorizations")),
    );
    out.insert("circuit.solver.factor_ms", ratio(histogram_sum_ms("solver.factor_ms"), ops));
    out.insert(
        "circuit.solver.newton_ms",
        ratio(histogram_sum_ms("solver.strategy.newton.ms"), ops),
    );
    out.insert("core.campaign.recovered", ratio(counter("campaign.recovered"), ops));
    out.insert("core.campaign.unsolvable", ratio(counter("campaign.unsolvable"), ops));
    out.insert("serve.request.pipeline.ms", op_spans.request_self_ms("pipeline"));
    out.insert("serve.request.analyze.ms", op_spans.request_self_ms("analyze"));
    out.insert("serve.unattributed_ms", op_spans.serve_unattributed_ms());
    out.insert("serve.cache_shared_hits", ratio(counter("serve.cache_shared_hits"), ops));
    out.insert("core.persist.load_model_ms", mean(&run.probes.load_model));
    out.insert("blocks.text.parse_ms", mean(&run.probes.parse));
    out.insert("engine.store.appends", ratio(counter("store.appends"), ops));
    out.insert("engine.store.rotations", ratio(counter("store.rotations"), ops));
    out.insert(
        "engine.store.open_ms",
        run.setup.histograms.get("store.open_ms").map_or(0.0, |h| h.mean_ms()),
    );
    out.insert("obs.overhead_ratio", run.overhead_ratio);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &str, thread: u64, start_us: f64, end_us: f64) -> SpanRecord {
        SpanRecord {
            id,
            parent: None,
            name: name.to_owned(),
            category: "test",
            thread,
            start_us,
            duration_us: end_us - start_us,
            args: Vec::new(),
        }
    }

    #[test]
    fn every_listed_metric_is_computed_and_untouched_layers_read_zero() {
        let empty = TraceReport::default();
        let probes = Probes::default();
        let run = TracedRun {
            ops: &empty,
            setup: &empty,
            probes: &probes,
            cache_entries: 0,
            overhead_ratio: 0.0,
        };
        let values = per_layer(&run);
        let listed = crate::spec::Spec::load().expect("both files parse").per_layer;
        assert_eq!(values.len(), listed.len());
        for metric in listed {
            assert_eq!(values.get(metric.name.as_str()), Some(&0.0), "{}", metric.name);
        }
    }

    #[test]
    fn cross_thread_spans_are_attributed_by_window() {
        // Two ops. In the first, a request span on thread 1 encloses two
        // overlapping pass spans that ran on worker threads 2 and 3 with
        // no parent link. A span after the last window belongs to no op.
        let spans = vec![
            span(1, "bench:op", 1, 0.0, 1000.0),
            span(2, "request:pipeline", 1, 100.0, 900.0),
            span(3, "pass:fta", 2, 200.0, 600.0),
            span(4, "pass:assurance", 3, 500.0, 700.0),
            span(5, "bench:op", 1, 2000.0, 2500.0),
            span(6, "pass:fta", 2, 2100.0, 2300.0),
            span(7, "pass:fta", 2, 3000.0, 3100.0),
        ];
        let ops = OpSpans::assign(&spans);
        assert_eq!(ops.windows, vec![(0.0, 1000.0), (2000.0, 2500.0)]);
        assert_eq!(ops.engine[0].len(), 2);
        assert_eq!(ops.requests[0].len(), 1);
        assert_eq!(ops.engine[1].len(), 1);
        // Request self time: 800 us minus the 500 us union of [200, 700].
        assert!((ops.request_self_ms("pipeline") - 0.3).abs() < 1e-9);
        // Engine unattributed: op 1 = 1000 - 500, op 2 = 500 - 200.
        assert!((ops.engine_unattributed_ms() - (0.5 + 0.3) / 2.0).abs() < 1e-9);
        // Serve unattributed covers request ops only: 1000 - 800.
        assert!((ops.serve_unattributed_ms() - 0.2).abs() < 1e-9);
    }
}

//! Bench: the pass-manager pipeline — a full DECISIVE iteration (graph
//! FMEA → FTA → monitors → HARA → assurance) as one DAG — cold, warm, and
//! after a one-component edit, across worker counts.
//!
//! Besides the Criterion groups, the run prints a single
//! `BENCH_pipeline … ` JSON line with one-shot wall times, convenient for
//! dropping into `BENCH_pipeline.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use decisive::engine::{Engine, Pipeline, PipelineInput};
use decisive::federation::{json, Value};
use decisive::ssam::architecture::Fit;
use decisive::ssam::model::SsamModel;
use decisive::workload::sets::chain_model;

/// Set2 of the paper's scalability study (§VI-B) as the headline size,
/// plus a small set for per-pass overhead visibility.
const SETS: [(&str, usize); 2] = [("set1", 57), ("set2", 456)];

/// Worker counts for the scaling sweep.
const JOBS: [usize; 4] = [1, 2, 4, 8];

fn edited_copy(
    n: usize,
) -> (SsamModel, decisive::ssam::id::Idx<decisive::ssam::architecture::Component>) {
    let (mut model, top) = chain_model(n);
    let mid = model.component_by_name(&format!("c{}", n / 2)).expect("mid component");
    model.components[mid].fit = Some(Fit::new(99.0));
    (model, top)
}

fn bench_pipeline(c: &mut Criterion) {
    for (label, n) in SETS {
        let (model, top) = chain_model(n);
        let (edited, edited_top) = edited_copy(n);
        let pipeline = Pipeline::standard(false);

        let mut group = c.benchmark_group(&format!("pipeline/{label}"));
        group.bench_function("cold", |b| {
            b.iter(|| {
                Engine::builder()
                    .jobs(4)
                    .build()
                    .expect("engine builds")
                    .run_pipeline(&pipeline, black_box(&PipelineInput::for_model(&model, top)))
                    .expect("cold pipeline")
            })
        });
        group.bench_function("warm", |b| {
            let mut engine = Engine::builder().jobs(4).build().expect("engine builds");
            engine.run_pipeline(&pipeline, &PipelineInput::for_model(&model, top)).expect("prime");
            b.iter(|| {
                engine
                    .run_pipeline(&pipeline, black_box(&PipelineInput::for_model(&model, top)))
                    .expect("warm pipeline")
            })
        });
        group.bench_function("one_edit", |b| {
            let mut engine = Engine::builder().jobs(4).build().expect("engine builds");
            engine.run_pipeline(&pipeline, &PipelineInput::for_model(&model, top)).expect("prime");
            b.iter(|| {
                engine
                    .run_pipeline(
                        &pipeline,
                        black_box(&PipelineInput::for_model(&edited, edited_top)),
                    )
                    .expect("edited pipeline")
            })
        });
        group.finish();

        let mut group = c.benchmark_group(&format!("pipeline/{label}/scaling"));
        for jobs in JOBS {
            group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, &jobs| {
                b.iter(|| {
                    Engine::builder()
                        .jobs(jobs)
                        .build()
                        .expect("engine builds")
                        .run_pipeline(&pipeline, black_box(&PipelineInput::for_model(&model, top)))
                        .expect("scaling pipeline")
                })
            });
        }
        group.finish();
    }

    print_summary();
}

/// One-shot wall times in a machine-readable line (BENCH_pipeline.json).
fn print_summary() {
    let mut sets = Vec::new();
    for (label, n) in SETS {
        let (model, top) = chain_model(n);
        let (edited, edited_top) = edited_copy(n);
        let pipeline = Pipeline::standard(false);

        let mut per_jobs = Vec::new();
        for jobs in JOBS {
            let mut engine = Engine::builder().jobs(jobs).build().expect("engine builds");

            let t = Instant::now();
            engine.run_pipeline(&pipeline, &PipelineInput::for_model(&model, top)).expect("cold");
            let cold_ms = t.elapsed().as_secs_f64() * 1e3;

            let t = Instant::now();
            engine.run_pipeline(&pipeline, &PipelineInput::for_model(&model, top)).expect("warm");
            let warm_ms = t.elapsed().as_secs_f64() * 1e3;

            let t = Instant::now();
            engine
                .run_pipeline(&pipeline, &PipelineInput::for_model(&edited, edited_top))
                .expect("one edit");
            let edit_ms = t.elapsed().as_secs_f64() * 1e3;

            per_jobs.push(Value::record([
                ("jobs", Value::Int(jobs as i64)),
                ("cold_ms", Value::Real(cold_ms)),
                ("warm_ms", Value::Real(warm_ms)),
                ("one_edit_ms", Value::Real(edit_ms)),
            ]));
        }
        sets.push(Value::record([
            ("set", Value::from(label)),
            ("elements", Value::Int(model.element_count() as i64)),
            ("passes", Value::Int(pipeline.passes().len() as i64)),
            ("runs", Value::List(per_jobs)),
        ]));
    }
    println!("BENCH_pipeline {}", json::to_string(&Value::List(sets)));
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);

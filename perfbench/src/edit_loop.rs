//! `edit-loop`: the paper's analyse–refine–re-analyse loop on a
//! Set3-sized model. One op is a single-component FIT edit followed by the
//! standard pipeline re-run on an in-memory engine.

use decisive::engine::{model_fp, Engine, Pipeline, PipelineInput};
use decisive::obs::Telemetry;
use decisive::ssam::architecture::{Component, Fit};
use decisive::ssam::id::Idx;
use decisive::ssam::model::SsamModel;
use decisive::workload::sets::chain_model;

use crate::workload::{time_model_fp, time_ms, timed_op, Probes, Rng, Workload, JOBS};

/// Chain length of the Set3-sized subject: 5 690 elements.
const COMPONENTS: usize = 1896;

struct State {
    engine: Engine,
    model: SsamModel,
    telemetry: Telemetry,
}

/// The edit-loop workload.
pub struct EditLoop {
    base: SsamModel,
    top: Idx<Component>,
    pipeline: Pipeline,
    /// Per step: the component to edit and its new FIT.
    script: Vec<(Idx<Component>, f64)>,
    state: Option<State>,
}

impl EditLoop {
    /// Generates the subject and a seeded script of `ops` edits.
    pub fn new(seed: u64, ops: usize) -> Result<EditLoop, String> {
        let (base, top) = chain_model(COMPONENTS);
        let mut rng = Rng::new(seed, 1);
        let mut script = Vec::with_capacity(ops);
        for _ in 0..ops {
            let name = format!("c{}", rng.below(COMPONENTS as u64));
            let idx = base.component_by_name(&name).ok_or(format!("no component {name}"))?;
            let fit = 1.0 + rng.below(100_000) as f64 / 1000.0;
            script.push((idx, fit));
        }
        Ok(EditLoop { base, top, pipeline: Pipeline::standard(false), script, state: None })
    }
}

impl Workload for EditLoop {
    fn setup(&mut self, telemetry: Telemetry) -> Result<f64, String> {
        self.state = None;
        let model = self.base.clone();
        let (engine, ms) = time_ms(|| -> Result<Engine, String> {
            let mut engine = Engine::builder()
                .jobs(JOBS)
                .telemetry(telemetry.clone())
                .build()
                .map_err(|e| e.to_string())?;
            engine
                .run_pipeline(&self.pipeline, &PipelineInput::for_model(&model, self.top))
                .map_err(|e| e.to_string())?;
            Ok(engine)
        });
        self.state = Some(State { engine: engine?, model, telemetry });
        Ok(ms / 1e3)
    }

    fn op(&mut self, step: usize, probes: Option<&mut Probes>) -> (f64, Result<(), String>) {
        let (idx, fit) = self.script[step];
        let (top, pipeline) = (self.top, &self.pipeline);
        let state = self.state.as_mut().expect("set up before use");
        let State { engine, model, telemetry } = state;
        let (run, ms) = timed_op(telemetry, || {
            model.components[idx].fit = Some(Fit::new(fit));
            engine.run_pipeline(pipeline, &PipelineInput::for_model(model, top))
        });
        let run = match run {
            Ok(run) => run,
            Err(e) => return (ms, Err(e.to_string())),
        };
        if let Some(probes) = probes {
            probes.model_fp.push(time_model_fp(model, top));
            if let Some(table) = run.fmea() {
                let (_, fp_ms) = time_ms(|| model_fp::serialized_fingerprint(table, "fmea"));
                probes.serialized_fp.push(fp_ms);
            }
        }
        (ms, Ok(()))
    }

    fn checks(&mut self) -> Vec<(&'static str, Result<(), String>)> {
        let (top, pipeline) = (self.top, &self.pipeline);
        let state = self.state.as_mut().expect("set up before use");
        let verdict = state
            .engine
            .verify_pipeline_against_full(pipeline, &PipelineInput::for_model(&state.model, top))
            .map(|_| ())
            .map_err(|e| e.to_string());
        vec![("incremental == full on the final revision", verdict)]
    }

    fn cache_entries(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.engine.cache().len())
    }
}

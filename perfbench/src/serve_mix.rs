//! `serve-mix`: one client driving `serve::Daemon::handle_line` in process
//! over four sessions and a durable store on disk, with a read-heavy mix
//! of warm requests and a stream of Set2 model revisions.

use std::path::{Path, PathBuf};

use decisive::core::fmea::FmeaTable;
use decisive::core::persist;
use decisive::core::reliability::ReliabilityDb;
use decisive::core::request::RunSpec;
use decisive::engine::{model_fp, Engine, Pipeline, PipelineInput};
use decisive::federation::{json, serde_bridge, Value};
use decisive::obs::Telemetry;
use decisive::output::PipelineOutput;
use decisive::serve::{Daemon, ServeOptions};
use decisive::ssam::architecture::{Component, Fit};
use decisive::ssam::id::Idx;
use decisive::ssam::model::SsamModel;
use decisive::workload::sets::chain_model;

use crate::workload::{time_model_fp, time_ms, timed_op, Probes, Rng, Workload, JOBS};

/// Chain length of the Set1-sized subject: 269 elements.
const SET1_COMPONENTS: usize = 89;
/// Chain length of the Set2-sized subject: 1 370 elements.
const SET2_COMPONENTS: usize = 456;
/// Sessions the requests are spread over.
const SESSIONS: u64 = 4;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `pipeline` on the Set1 chain JSON.
    Set1,
    /// `pipeline` on the brown-out `.bd` design with its reliability CSV.
    Brownout,
    /// `analyze` on the case-study JSON.
    CaseStudy,
    /// `pipeline` on the next Set2-chain revision.
    Set2,
    /// `status`.
    Status,
}

/// Request mix in percent. Set2 revisions are 15 % of requests, the one
/// share fixed by the workload's design. Brown-out, case-study and
/// status requests get one equal share each, and Set1 takes the rest; the
/// equal share is the one at which the mix reproduces the one measured
/// figure there is, about 122 k cross-session shared hits per 1 200
/// requests (see `design.json`). `Status` comes last and takes the
/// rounding remainder.
const MIX: [(Kind, u64); 5] = [
    (Kind::Set1, 70),
    (Kind::Brownout, 5),
    (Kind::CaseStudy, 5),
    (Kind::Set2, 15),
    (Kind::Status, 5),
];

struct Request {
    kind: Kind,
    /// The model file, for every kind but `status`.
    path: Option<PathBuf>,
    line: String,
}

struct State {
    daemon: Daemon,
    telemetry: Telemetry,
    cache_dir: PathBuf,
    /// `(step, response)` of the sampled pipeline requests.
    kept: Vec<(usize, String)>,
}

/// The serve-mix workload.
pub struct ServeMix {
    dir: PathBuf,
    csv: String,
    setup_lines: Vec<String>,
    script: Vec<Request>,
    /// Script steps whose responses the CLI == serve check compares.
    samples: Vec<usize>,
    setups: usize,
    state: Option<State>,
}

fn path_str(path: &Path) -> Result<String, String> {
    path.to_str().map(str::to_owned).ok_or_else(|| format!("{}: not UTF-8", path.display()))
}

fn request_line(id: usize, kind: Kind, session: u64, path: Option<&str>, csv: &str) -> String {
    let op = match kind {
        Kind::CaseStudy => "analyze",
        Kind::Status => "status",
        _ => "pipeline",
    };
    let mut fields = vec![
        ("v", Value::Int(1)),
        ("id", Value::Int(id as i64)),
        ("op", Value::from(op)),
        ("session", Value::Str(format!("s{session}"))),
    ];
    if let Some(path) = path {
        fields.push(("path", Value::from(path)));
    }
    if kind == Kind::Brownout {
        fields.push(("reliability", Value::from(csv)));
    }
    json::to_string(&Value::record(fields))
}

fn top_of(model: &SsamModel) -> Result<Idx<Component>, String> {
    model
        .components
        .iter()
        .find(|(_, c)| c.parent.is_none())
        .map(|(i, _)| i)
        .ok_or_else(|| "model has no top-level component".to_owned())
}

/// Drops the timing-dependent fields (`stats`, `slowest`, `wall_ms`) so a
/// warm served result and a cold one-shot result compare equal.
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

impl ServeMix {
    /// Writes every input under `dir`: the Set1 and case-study models, a
    /// copy of the brown-out design and its CSV from `data`, the whole
    /// Set2 revision series (one revision per Set2 request), and the
    /// request lines of a seeded script of `ops` requests.
    pub fn new(seed: u64, ops: usize, dir: &Path, data: &Path) -> Result<ServeMix, String> {
        let io = |e: std::io::Error| e.to_string();
        let set1 = dir.join("set1.json");
        persist::save_model(&chain_model(SET1_COMPONENTS).0, &set1).map_err(|e| e.to_string())?;
        let case_study = dir.join("case-study.json");
        persist::save_model(&decisive::core::case_study::ssam_model().0, &case_study)
            .map_err(|e| e.to_string())?;
        let brownout = dir.join("brownout_threshold.bd");
        std::fs::copy(data.join("brownout_threshold.bd"), &brownout).map_err(io)?;
        let csv_path = dir.join("brownout_reliability.csv");
        std::fs::copy(data.join("brownout_reliability.csv"), &csv_path).map_err(io)?;
        let csv = path_str(&csv_path)?;

        // Every seed gets the same population: exact counts per kind, and
        // within a kind the sessions in turn. The seed only orders it.
        let mut kinds: Vec<(Kind, u64)> = Vec::with_capacity(ops);
        for (kind, pct) in MIX {
            let count =
                if kind == Kind::Status { ops - kinds.len() } else { ops * pct as usize / 100 };
            kinds.extend((0..count as u64).map(|i| (kind, i % SESSIONS)));
        }
        let mut rng = Rng::new(seed, 4);
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.below(i as u64 + 1) as usize);
        }

        // Revision 0 is analysed during set-up; each later one changes the
        // FIT of one component of the revision before it.
        let revisions = 1 + kinds.iter().filter(|(k, _)| *k == Kind::Set2).count();
        let (mut set2, _) = chain_model(SET2_COMPONENTS);
        let mut revision_paths = Vec::with_capacity(revisions);
        for r in 0..revisions {
            if r > 0 {
                let name = format!("c{}", rng.below(SET2_COMPONENTS as u64));
                let idx = set2.component_by_name(&name).ok_or(format!("no component {name}"))?;
                set2.components[idx].fit = Some(Fit::new(1.0 + rng.below(100_000) as f64 / 1000.0));
            }
            let path = dir.join(format!("set2-rev{r:05}.json"));
            persist::save_model(&set2, &path).map_err(|e| e.to_string())?;
            revision_paths.push(path);
        }

        let mut next_revision = 1;
        let mut script = Vec::with_capacity(ops);
        for (step, (kind, session)) in kinds.into_iter().enumerate() {
            let path = match kind {
                Kind::Set1 => Some(set1.clone()),
                Kind::Brownout => Some(brownout.clone()),
                Kind::CaseStudy => Some(case_study.clone()),
                Kind::Set2 => {
                    let path = revision_paths[next_revision].clone();
                    next_revision += 1;
                    Some(path)
                }
                Kind::Status => None,
            };
            let text = path.as_deref().map(path_str).transpose()?;
            let line = request_line(step, kind, session, text.as_deref(), &csv);
            script.push(Request { kind, path, line });
        }

        // Flush the inputs to disk now, so their write-back does not land
        // on the fsyncs the timed loop makes.
        for path in [&set1, &case_study, &brownout, &csv_path].into_iter().chain(&revision_paths) {
            std::fs::File::open(path).and_then(|f| f.sync_all()).map_err(io)?;
        }

        let setup_lines = [
            (Kind::Set1, &set1),
            (Kind::Brownout, &brownout),
            (Kind::CaseStudy, &case_study),
            (Kind::Set2, &revision_paths[0]),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (kind, path))| {
            Ok(request_line(ops + i, kind, i as u64, Some(&path_str(path)?), &csv))
        })
        .collect::<Result<Vec<_>, String>>()?;

        // One pipeline request per subject, early in the script so every
        // run reaches it.
        let offset = (seed % 64) as usize;
        let samples = [Kind::Set1, Kind::Brownout, Kind::Set2]
            .into_iter()
            .filter_map(|kind| (offset..script.len()).find(|&s| script[s].kind == kind))
            .collect();

        Ok(ServeMix {
            dir: dir.to_owned(),
            csv,
            setup_lines,
            script,
            samples,
            setups: 0,
            state: None,
        })
    }

    /// The in-memory one-shot answer to a pipeline request, as the
    /// `decisive pipeline --format json` verb computes it.
    fn one_shot(&self, request: &Request) -> Result<Value, String> {
        let path = request.path.as_deref().ok_or("pipeline request without a path")?;
        let mut engine = Engine::builder().jobs(JOBS).build().map_err(|e| e.to_string())?;
        let spec = RunSpec::default();
        let hours = spec.mission_hours_or_default();
        let run = if request.kind == Kind::Brownout {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let diagram = decisive::blocks::text::from_text(&text).map_err(|e| e.to_string())?;
            let csv_text = std::fs::read_to_string(&self.csv).map_err(|e| e.to_string())?;
            let load = ReliabilityDb::from_csv_str_lenient(&csv_text, &self.csv);
            let degraded = engine.degraded_report_mut();
            degraded.substituted_fits.extend(load.substitutions);
            degraded.notes.extend(load.diagnostics.iter().map(ToString::to_string));
            let mut model = decisive::blocks::to_ssam(&diagram);
            load.db.aggregate_into(&mut model);
            let input = PipelineInput::for_model(&model, top_of(&model)?)
                .with_diagram(&diagram, &load.db)
                .with_injection_config(spec.injection_config())
                .with_mission_hours(hours);
            engine.run_pipeline(&Pipeline::standard(true), &input)
        } else {
            let model = persist::load_model(path).map_err(|e| e.to_string())?;
            let input = PipelineInput::for_model(&model, top_of(&model)?).with_mission_hours(hours);
            engine.run_pipeline(&Pipeline::standard(false), &input)
        };
        let run = run.map_err(|e| e.to_string())?;
        serde_bridge::to_value(&PipelineOutput::new(&run, &engine)).map_err(|e| e.to_string())
    }

    /// Times the layer calls a request's file goes through.
    fn probe(request: &Request, response: &str, probes: &mut Probes) -> Result<(), String> {
        let Some(path) = request.path.as_deref() else {
            return Ok(());
        };
        if request.kind == Kind::Brownout {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let (diagram, ms) = time_ms(|| decisive::blocks::text::from_text(&text));
            diagram.map_err(|e| e.to_string())?;
            probes.parse.push(ms);
            return Ok(());
        }
        let (model, ms) = time_ms(|| persist::load_model(path));
        let model = model.map_err(|e| e.to_string())?;
        probes.load_model.push(ms);
        probes.model_fp.push(time_model_fp(&model, top_of(&model)?));
        let response = json::parse(response).map_err(|e| e.to_string())?;
        let result = response.get("result").ok_or("response without a result")?;
        let field = if request.kind == Kind::CaseStudy { "table" } else { "fmea" };
        let table: FmeaTable =
            serde_bridge::from_value(result.get(field).ok_or("result without an FMEA table")?)
                .map_err(|e| e.to_string())?;
        let (_, ms) = time_ms(|| model_fp::serialized_fingerprint(&table, "fmea"));
        probes.serialized_fp.push(ms);
        Ok(())
    }
}

impl Workload for ServeMix {
    fn setup(&mut self, telemetry: Telemetry) -> Result<f64, String> {
        if let Some(old) = self.state.take() {
            drop(old.daemon);
            std::fs::remove_dir_all(&old.cache_dir).map_err(|e| e.to_string())?;
        }
        self.setups += 1;
        let cache_dir = self.dir.join(format!("cache-{}", self.setups));
        let options = ServeOptions {
            jobs: Some(JOBS),
            cache_dir: Some(cache_dir.clone()),
            ..ServeOptions::default()
        };
        let (daemon, ms) = time_ms(|| -> Result<Daemon, String> {
            let daemon = Daemon::new(options, telemetry.clone())?;
            for line in &self.setup_lines {
                let response = daemon.handle_line(line).unwrap_or_default();
                if !response.contains(r#""ok":true"#) {
                    return Err(format!(
                        "set-up request failed: {}",
                        &response[..response.len().min(300)]
                    ));
                }
            }
            Ok(daemon)
        });
        self.state = Some(State { daemon: daemon?, telemetry, cache_dir, kept: Vec::new() });
        Ok(ms / 1e3)
    }

    fn op(&mut self, step: usize, probes: Option<&mut Probes>) -> (f64, Result<(), String>) {
        let request = &self.script[step];
        let state = self.state.as_mut().expect("set up before use");
        let (response, ms) = timed_op(&state.telemetry, || state.daemon.handle_line(&request.line));
        let Some(response) = response else {
            return (ms, Err("no response".to_owned()));
        };
        if !response.contains(r#""ok":true"#) {
            return (ms, Err(response.chars().take(300).collect()));
        }
        if let Some(probes) = probes {
            if let Err(e) = Self::probe(request, &response, probes) {
                return (ms, Err(format!("probe: {e}")));
            }
        }
        if self.samples.contains(&step) {
            state.kept.push((step, response));
        }
        (ms, Ok(()))
    }

    fn checks(&mut self) -> Vec<(&'static str, Result<(), String>)> {
        let kept = self.state.as_ref().map(|s| s.kept.clone()).unwrap_or_default();
        kept.iter()
            .map(|(step, response)| {
                let verdict = (|| {
                    let served = json::parse(response).map_err(|e| e.to_string())?;
                    let served =
                        served.get("result").cloned().ok_or("response without a result")?;
                    let reference = self.one_shot(&self.script[*step])?;
                    if strip_timing(served) == strip_timing(reference) {
                        Ok(())
                    } else {
                        Err(format!(
                            "step {step}: served result differs from the one-shot engine's"
                        ))
                    }
                })();
                ("served pipeline == one-shot pipeline", verdict)
            })
            .collect()
    }

    fn cache_entries(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.daemon.shared().len())
    }
}

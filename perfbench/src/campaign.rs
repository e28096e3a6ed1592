//! `campaign`: stochastic fault-injection campaigns on an all-electrical
//! System-B-sized subject. One op is one two-trial Monte-Carlo request
//! under a fresh seed, so every trial misses the cache.

use decisive::blocks::{BlockDiagram, BlockId, BlockKind, Port};
use decisive::core::fmea::injection::InjectionConfig;
use decisive::core::montecarlo::MonteCarloReport;
use decisive::core::reliability::ReliabilityDb;
use decisive::engine::Engine;
use decisive::obs::Telemetry;

use crate::workload::{time_ms, timed_op, Probes, Rng, Workload, JOBS};

/// Trials per request: one in flight per worker.
const TRIALS: usize = 2;
/// Power rails of the subject; 32 rails plus ties and shunts make 230 blocks.
const RAILS: usize = 32;
/// Requests re-run on a single-worker engine by the determinism check.
const CHECK_SAMPLE: usize = 3;

/// One power rail: `source → diode → inductor → sensor → MCU load`, filter
/// capacitor across the source. Returns the MCU block.
fn add_rail(d: &mut BlockDiagram, prefix: &str, gnd: BlockId) -> Result<BlockId, String> {
    let dc = d.add_block(format!("{prefix}_DC"), BlockKind::DcVoltageSource { volts: 5.0 });
    let diode = d.add_block(format!("{prefix}_D"), BlockKind::Diode);
    let ind = d.add_block(format!("{prefix}_L"), BlockKind::Inductor { henries: 1e-3 });
    let cap = d.add_block(format!("{prefix}_C"), BlockKind::Capacitor { farads: 10e-6 });
    let cs = d.add_block(format!("{prefix}_CS"), BlockKind::CurrentSensor);
    let mc = d.add_block(
        format!("{prefix}_MC"),
        BlockKind::Mcu { on_amps: 0.1, brownout_volts: 3.0, fault_amps: 0.02 },
    );
    for (from, to) in [
        ((dc, 0), (diode, 0)),
        ((diode, 1), (ind, 0)),
        ((ind, 1), (cs, 0)),
        ((cs, 1), (mc, 0)),
        ((mc, 1), (gnd, 0)),
        ((dc, 1), (gnd, 0)),
        ((cap, 0), (dc, 0)),
        ((cap, 1), (gnd, 0)),
    ] {
        d.connect(from.0, Port(from.1), to.0, Port(to.1)).map_err(|e| e.to_string())?;
    }
    Ok(mc)
}

/// The 230-block all-electrical System-B subject of the Monte-Carlo bench:
/// cross-tied rails couple the MNA matrix off the tridiagonal, shunts pad
/// the block count.
fn electrical_system_b() -> Result<BlockDiagram, String> {
    let mut d = BlockDiagram::new("System B (electrical)");
    let gnd = d.add_block("GND", BlockKind::Ground);
    let mcs = (0..RAILS)
        .map(|i| add_rail(&mut d, &format!("R{i}"), gnd))
        .collect::<Result<Vec<_>, _>>()?;
    let wire = |d: &mut BlockDiagram, block: BlockId, a: BlockId, b: BlockId| {
        d.connect(block, Port(0), a, Port(0))
            .and_then(|_| d.connect(block, Port(1), b, Port(0)))
            .map_err(|e| e.to_string())
    };
    for i in 0..RAILS - 1 {
        let tie = d.add_block(format!("TIE{i}"), BlockKind::Resistor { ohms: 10.0 });
        wire(&mut d, tie, mcs[i], mcs[i + 1])?;
    }
    let mut shunts = 0;
    while d.blocks().count() < 230 {
        let shunt = d.add_block(format!("SH{shunts}"), BlockKind::Resistor { ohms: 470.0 });
        wire(&mut d, shunt, mcs[shunts], gnd)?;
        shunts += 1;
    }
    Ok(d)
}

/// Reliability data covering every electrical block type of the subject.
fn reliability() -> Result<ReliabilityDb, String> {
    ReliabilityDb::from_csv_str(
        "Component,FIT,Failure_Mode,Distribution\n\
         Diode,10,Open,0.3\n\
         Diode,10,Short,0.7\n\
         Capacitor,2,Open,0.3\n\
         Capacitor,2,Short,0.7\n\
         Inductor,15,Open,0.3\n\
         Inductor,15,Short,0.7\n\
         Resistor,5,Open,0.3\n\
         Resistor,5,Short,0.7\n\
         MC,300,RAM Failure,1.0\n",
    )
    .map_err(|e| e.to_string())
}

struct State {
    engine: Engine,
    telemetry: Telemetry,
    /// `(seed, report)` of every request the timed loop completed.
    reports: Vec<(u64, MonteCarloReport)>,
}

/// The campaign workload.
pub struct Campaign {
    diagram: BlockDiagram,
    db: ReliabilityDb,
    config: InjectionConfig,
    setup_seed: u64,
    /// Per step: the request's Monte-Carlo seed.
    script: Vec<u64>,
    check_rng: Rng,
    state: Option<State>,
}

impl Campaign {
    /// Generates the subject and a seeded script of `ops` requests.
    pub fn new(seed: u64, ops: usize) -> Result<Campaign, String> {
        let mut rng = Rng::new(seed, 2);
        let setup_seed = rng.next_u64();
        let script = (0..ops).map(|_| rng.next_u64()).collect();
        Ok(Campaign {
            diagram: electrical_system_b()?,
            db: reliability()?,
            config: InjectionConfig::default(),
            setup_seed,
            script,
            check_rng: Rng::new(seed, 3),
            state: None,
        })
    }
}

impl Workload for Campaign {
    fn setup(&mut self, telemetry: Telemetry) -> Result<f64, String> {
        self.state = None;
        let (engine, ms) = time_ms(|| -> Result<Engine, String> {
            let mut engine = Engine::builder()
                .jobs(JOBS)
                .telemetry(telemetry.clone())
                .build()
                .map_err(|e| e.to_string())?;
            engine
                .analyze_montecarlo(&self.diagram, &self.db, &self.config, TRIALS, self.setup_seed)
                .map_err(|e| e.to_string())?;
            Ok(engine)
        });
        self.state = Some(State { engine: engine?, telemetry, reports: Vec::new() });
        Ok(ms / 1e3)
    }

    fn op(&mut self, step: usize, _probes: Option<&mut Probes>) -> (f64, Result<(), String>) {
        let seed = self.script[step];
        let state = self.state.as_mut().expect("set up before use");
        let (report, ms) = timed_op(&state.telemetry, || {
            state.engine.analyze_montecarlo(&self.diagram, &self.db, &self.config, TRIALS, seed)
        });
        match report {
            Ok(report) if report.trials == TRIALS => {
                state.reports.push((seed, report));
                (ms, Ok(()))
            }
            Ok(report) => (ms, Err(format!("{} trials, wanted {TRIALS}", report.trials))),
            Err(e) => (ms, Err(e.to_string())),
        }
    }

    fn checks(&mut self) -> Vec<(&'static str, Result<(), String>)> {
        let state = self.state.as_ref().expect("set up before use");
        const CHECK: &str = "jobs-1 report == jobs-2 report";
        let mut single = match Engine::builder().jobs(1).build() {
            Ok(engine) => engine,
            Err(e) => return vec![(CHECK, Err(e.to_string()))],
        };
        let mut verdicts = Vec::new();
        for _ in 0..CHECK_SAMPLE.min(state.reports.len()) {
            let (seed, served) =
                &state.reports[self.check_rng.below(state.reports.len() as u64) as usize];
            let verdict = match single.analyze_montecarlo(
                &self.diagram,
                &self.db,
                &self.config,
                TRIALS,
                *seed,
            ) {
                // Debug prints every f64 in its shortest round-trip form,
                // so equal text means bitwise-equal reports.
                Ok(reference) if format!("{reference:?}") == format!("{served:?}") => Ok(()),
                Ok(_) => {
                    Err(format!("seed {seed}: jobs-1 report differs from the jobs-{JOBS} one"))
                }
                Err(e) => Err(format!("seed {seed}: {e}")),
            };
            verdicts.push((CHECK, verdict));
        }
        verdicts
    }

    fn cache_entries(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.engine.cache().len())
    }
}

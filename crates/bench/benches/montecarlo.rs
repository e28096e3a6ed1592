//! Bench: the Monte-Carlo campaign pass — scheduler scaling and
//! factorization reuse (ISSUE 10).
//!
//! The subject is the all-electrical System-B-scale build from the solver
//! bench: 230 blocks that all carry MNA stamps, so every trial's injection
//! sweep is real solver work rather than bookkeeping. Each Monte-Carlo
//! trial re-runs the full single-fault campaign under a perturbed
//! reliability draw, which makes the pass the heaviest per-artifact
//! workload in the engine and the one that most rewards both scheduler
//! parallelism and the per-worker `SolverWorkspace`.
//!
//! Two measurements:
//!
//! * trials/sec at scheduler jobs 1/2/4/8, each from a cold engine, with
//!   the reports required to be bitwise identical across all four runs
//!   (the seeded-RNG determinism contract), and
//! * the workspace-reuse speedup: the sparse kernel solves every injection
//!   through a per-worker workspace that reuses the healthy circuit's
//!   symbolic factorization, versus the dense kernel's fresh full
//!   factorization per solve. The acceptance gate is ≥2×.
//!
//! It prints one `BENCH_mc {...}` JSON line; `mc_ok` is the CI gate and
//! the checked-in `BENCH_mc.json` holds the first recorded baseline.
//!
//! Plain `fn main` (`harness = false`), same as the other benches.

use std::time::Instant;

use decisive::blocks::{BlockDiagram, BlockId, BlockKind, Port};
use decisive::circuit::{SolverKernel, SolverOptions};
use decisive::core::campaign::CampaignConfig;
use decisive::core::fmea::injection::InjectionConfig;
use decisive::core::montecarlo::MonteCarloReport;
use decisive::core::reliability::ReliabilityDb;
use decisive::engine::Engine;
use decisive::federation::{json, Value};

/// Power rails in the subject; 32 rails + ties + shunts = 230 blocks.
const RAILS: usize = 32;
/// Trials for the scaling sweep — enough campaign work to amortise
/// scheduler startup at 8 jobs, small enough to keep the bench quick.
const SCALING_TRIALS: usize = 8;
/// Trials for the kernel comparison; the dense comparator re-factorises
/// every solve, so this stays small.
const REUSE_TRIALS: usize = 2;
/// Master seed for every campaign in this bench.
const SEED: u64 = 42;
/// Scheduler widths swept for trials/sec.
const JOBS: [usize; 4] = [1, 2, 4, 8];

/// One power rail: `source → diode → inductor → sensor → MCU load`,
/// filter capacitor across the source. Returns the MCU block.
fn add_rail(d: &mut BlockDiagram, prefix: &str, gnd: BlockId) -> BlockId {
    let ok = "static bench wiring";
    let dc = d.add_block(format!("{prefix}_DC"), BlockKind::DcVoltageSource { volts: 5.0 });
    let diode = d.add_block(format!("{prefix}_D"), BlockKind::Diode);
    let ind = d.add_block(format!("{prefix}_L"), BlockKind::Inductor { henries: 1e-3 });
    let cap = d.add_block(format!("{prefix}_C"), BlockKind::Capacitor { farads: 10e-6 });
    let cs = d.add_block(format!("{prefix}_CS"), BlockKind::CurrentSensor);
    let mc = d.add_block(
        format!("{prefix}_MC"),
        BlockKind::Mcu { on_amps: 0.1, brownout_volts: 3.0, fault_amps: 0.02 },
    );
    d.connect(dc, Port(0), diode, Port(0)).expect(ok);
    d.connect(diode, Port(1), ind, Port(0)).expect(ok);
    d.connect(ind, Port(1), cs, Port(0)).expect(ok);
    d.connect(cs, Port(1), mc, Port(0)).expect(ok);
    d.connect(mc, Port(1), gnd, Port(0)).expect(ok);
    d.connect(dc, Port(1), gnd, Port(0)).expect(ok);
    d.connect(cap, Port(0), dc, Port(0)).expect(ok);
    d.connect(cap, Port(1), gnd, Port(0)).expect(ok);
    mc
}

/// The all-electrical System-B-scale subject (230 blocks): cross-tied
/// rails couple the MNA matrix off the tridiagonal, shunts pad the count.
fn electrical_system_b() -> BlockDiagram {
    let ok = "static bench wiring";
    let mut d = BlockDiagram::new("System B (electrical)");
    let gnd = d.add_block("GND", BlockKind::Ground);
    let mcs: Vec<BlockId> = (0..RAILS).map(|i| add_rail(&mut d, &format!("R{i}"), gnd)).collect();
    for i in 0..RAILS - 1 {
        let tie = d.add_block(format!("TIE{i}"), BlockKind::Resistor { ohms: 10.0 });
        d.connect(tie, Port(0), mcs[i], Port(0)).expect(ok);
        d.connect(tie, Port(1), mcs[i + 1], Port(0)).expect(ok);
    }
    let mut shunts = 0;
    while d.blocks().count() < 230 {
        let shunt = d.add_block(format!("SH{shunts}"), BlockKind::Resistor { ohms: 470.0 });
        d.connect(shunt, Port(0), mcs[shunts], Port(0)).expect(ok);
        d.connect(shunt, Port(1), gnd, Port(0)).expect(ok);
        shunts += 1;
    }
    d
}

/// Reliability data covering every electrical block type of the subject.
fn reliability() -> ReliabilityDb {
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
    .expect("static reliability model parses")
}

fn config(kernel: SolverKernel) -> InjectionConfig {
    InjectionConfig {
        campaign: CampaignConfig {
            solver: SolverOptions { kernel, ..SolverOptions::default() },
            ..CampaignConfig::default()
        },
        ..InjectionConfig::default()
    }
}

/// One cold Monte-Carlo campaign: fresh engine, given scheduler width and
/// kernel. Returns the wall time and the report.
fn run_campaign(
    diagram: &BlockDiagram,
    db: &ReliabilityDb,
    jobs: usize,
    kernel: SolverKernel,
    trials: usize,
) -> (f64, MonteCarloReport) {
    let mut engine = Engine::builder().jobs(jobs).build().expect("engine builds");
    let t = Instant::now();
    let report = engine
        .analyze_montecarlo(diagram, db, &config(kernel), trials, SEED)
        .expect("campaign completes");
    (t.elapsed().as_secs_f64(), report)
}

fn main() {
    let diagram = electrical_system_b();
    let db = reliability();

    // Trials/sec across scheduler widths, cold engine each time. The
    // determinism contract rides along: all four reports must agree.
    let mut rates = Vec::new();
    let mut reports: Vec<MonteCarloReport> = Vec::new();
    for jobs in JOBS {
        let (secs, report) =
            run_campaign(&diagram, &db, jobs, SolverKernel::Sparse, SCALING_TRIALS);
        rates.push(SCALING_TRIALS as f64 / secs);
        reports.push(report);
    }
    let deterministic = reports.windows(2).all(|pair| pair[0] == pair[1]);

    // Workspace reuse versus fresh solves, one worker so the comparison
    // is pure solver cost: the sparse kernel reuses the healthy circuit's
    // factorization through the per-worker workspace, the dense kernel
    // factorises from scratch on every injection.
    let (reuse_s, sparse_report) =
        run_campaign(&diagram, &db, 1, SolverKernel::Sparse, REUSE_TRIALS);
    let (fresh_s, dense_report) = run_campaign(&diagram, &db, 1, SolverKernel::Dense, REUSE_TRIALS);
    let speedup = fresh_s / reuse_s;
    // The kernels must also agree on the stochastic estimates themselves:
    // a fast path that shifts the CI is a regression, not a speedup.
    let kernels_agree = (sparse_report.spfm.mean - dense_report.spfm.mean).abs() < 1e-9
        && (sparse_report.pmhf.mean - dense_report.pmhf.mean).abs() < 1e-15;

    let mc_ok = deterministic && kernels_agree && speedup >= 2.0;

    let summary = Value::record([
        ("blocks", Value::Int(diagram.blocks().count() as i64)),
        ("trials", Value::Int(SCALING_TRIALS as i64)),
        ("seed", Value::Int(SEED as i64)),
        ("trials_per_sec_jobs1", Value::Real(rates[0])),
        ("trials_per_sec_jobs2", Value::Real(rates[1])),
        ("trials_per_sec_jobs4", Value::Real(rates[2])),
        ("trials_per_sec_jobs8", Value::Real(rates[3])),
        ("reuse_sparse_s", Value::Real(reuse_s)),
        ("fresh_dense_s", Value::Real(fresh_s)),
        ("workspace_reuse_speedup", Value::Real(speedup)),
        ("deterministic_across_jobs", Value::Bool(deterministic)),
        ("kernels_agree", Value::Bool(kernels_agree)),
        ("mc_ok", Value::Bool(mc_ok)),
    ]);
    println!("BENCH_mc {}", json::to_string(&summary));
}

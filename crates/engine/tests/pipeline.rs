//! Pass-manager pipeline properties (ISSUE 4: pass-manager refactor).
//!
//! Two families of guarantees:
//!
//! - **Refactor equivalence** — the `analyze_*` wrappers, now thin shims
//!   over [`decisive_engine::AnalysisPass`] implementations, still produce
//!   bitwise-identical artefacts to the from-scratch algorithms, cold and
//!   warm-after-edit alike.
//! - **DAG execution** — [`decisive_engine::Pipeline`] respects declared
//!   dependencies under every worker count, skips dependents of failed
//!   passes, and the whole-pipeline verifier catches nothing on a sound
//!   cache (warm == cold, artefact by artefact).

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use decisive_blocks::gallery;
use decisive_core::case_study;
use decisive_core::fmea::graph::{self, GraphConfig};
use decisive_core::fmea::injection::InjectionConfig;
use decisive_core::reliability::ReliabilityDb;
use decisive_engine::{
    AnalysisPass, Engine, InjectionFmeaPass, MonteCarloPass, PassArtifact, PassContext, Pipeline,
    PipelineInput, RecommendPass,
};
use decisive_federation::Value;
use decisive_ssam::architecture::Fit;
use decisive_ssam::base::IntegrityLevel;
use decisive_workload::sets::chain_model;

// ----------------------------------------------------------------------
// Refactor equivalence (proptest)
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pass-based `analyze_graph` wrapper equals `graph::run` bit for
    /// bit on arbitrary chain models, both on the cold run and on the
    /// warm run after a random FIT edit — the refactor changed plumbing,
    /// not results.
    #[test]
    fn graph_wrapper_equals_direct_run_cold_and_warm(
        n in 2usize..8,
        edited in 0usize..8,
        fit in 1.0f64..500.0,
        jobs in 1usize..5,
    ) {
        let (model, top) = chain_model(n);
        let mut engine = Engine::builder().jobs(jobs).build().expect("engine builds");
        let cold = engine.analyze_graph(&model, top).expect("cold wrapper run");
        prop_assert_eq!(&cold, &graph::run(&model, top, &GraphConfig::default()).unwrap());

        let (mut new, new_top) = chain_model(n);
        let name = format!("c{}", edited % n);
        let idx = new.component_by_name(&name).expect("chain component");
        new.components[idx].fit = Some(Fit::new(fit));
        let warm = engine.analyze_graph(&new, new_top).expect("warm wrapper run");
        prop_assert_eq!(&warm, &graph::run(&new, new_top, &GraphConfig::default()).unwrap());
    }
}

// ----------------------------------------------------------------------
// DAG ordering under 1..=8 workers
// ----------------------------------------------------------------------

/// A pass that does no analysis: it records when it ran and returns an
/// opaque artefact, so dependency ordering is observable from outside.
#[derive(Debug)]
struct ProbePass {
    id: &'static str,
    deps: Vec<&'static str>,
    log: Arc<Mutex<Vec<&'static str>>>,
}

impl AnalysisPass for ProbePass {
    fn id(&self) -> &'static str {
        self.id
    }

    fn depends_on(&self) -> &[&'static str] {
        &self.deps
    }

    fn run(&self, _ctx: &mut PassContext<'_>) -> decisive_engine::Result<PassArtifact> {
        self.log.lock().unwrap().push(self.id);
        Ok(PassArtifact::Opaque(Value::Str(self.id.to_owned())))
    }
}

/// A diamond — `a` feeds `b` and `c`, which both feed `d` — executed at
/// every worker count from 1 to 8. Whatever the interleaving of `b` and
/// `c`, every declared edge must be respected and every pass must run
/// exactly once.
#[test]
fn diamond_dag_respects_dependencies_under_any_worker_count() {
    for jobs in 1..=8usize {
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let probe = |id: &'static str, deps: Vec<&'static str>| ProbePass {
            id,
            deps,
            log: Arc::clone(&log),
        };
        let pipeline = Pipeline::new()
            .with(probe("d", vec!["b", "c"]))
            .with(probe("b", vec!["a"]))
            .with(probe("a", vec![]))
            .with(probe("c", vec!["a"]));
        let mut engine = Engine::builder().jobs(jobs).build().expect("engine builds");
        let run = engine.run_pipeline(&pipeline, &PipelineInput::new()).expect("diamond runs");

        let order = log.lock().unwrap().clone();
        assert_eq!(order.len(), 4, "every pass ran exactly once with {jobs} worker(s)");
        let pos = |id| order.iter().position(|&p| p == id).unwrap();
        assert!(pos("a") < pos("b"), "a before b with {jobs} worker(s)");
        assert!(pos("a") < pos("c"), "a before c with {jobs} worker(s)");
        assert!(pos("b") < pos("d"), "b before d with {jobs} worker(s)");
        assert!(pos("c") < pos("d"), "c before d with {jobs} worker(s)");
        assert_eq!(
            run.artifact("d"),
            Some(&PassArtifact::Opaque(Value::Str("d".to_owned()))),
            "the sink's artefact is retrievable"
        );
    }
}

/// A pass whose declared dependency is missing from the pipeline is
/// rejected at validation, before anything executes.
#[test]
fn unknown_dependency_is_rejected_before_execution() {
    let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    let pipeline = Pipeline::new().with(ProbePass {
        id: "lonely",
        deps: vec!["ghost"],
        log: Arc::clone(&log),
    });
    let mut engine = Engine::builder().jobs(1).build().expect("engine builds");
    let err = engine.run_pipeline(&pipeline, &PipelineInput::new()).unwrap_err();
    assert!(err.to_string().contains("ghost"), "error names the missing dependency: {err}");
    assert!(log.lock().unwrap().is_empty(), "nothing ran");
}

// ----------------------------------------------------------------------
// End-to-end on the case study
// ----------------------------------------------------------------------

/// The standard model-side pipeline on the S32K/SSAM case study produces
/// every artefact — FMEA, FTA, monitors, risk log, assurance case — and
/// the risk log reaches the case study's documented ASIL-B target.
#[test]
fn standard_pipeline_covers_the_case_study() {
    let (model, top) = case_study::ssam_model();
    let hazards = case_study::hazard_log();
    let mut engine = Engine::builder().jobs(2).build().expect("engine builds");
    let input = PipelineInput::for_model(&model, top).with_hazards(&hazards);
    let run = engine.run_pipeline(&Pipeline::standard(false), &input).expect("pipeline");

    let table = run.fmea().expect("fmea artefact");
    assert!((table.spfm() - 0.0538).abs() < 5e-4, "same verdict as the pre-refactor engine");
    assert!(run.fta().is_some(), "fta artefact present");
    assert!(run.monitor().is_some(), "monitor artefact present");
    let risk = run.risk_log().expect("risk log artefact");
    assert_eq!(risk.highest_asil(), Some(IntegrityLevel::AsilB), "case-study ASIL target");
    let assurance = run.assurance().expect("assurance artefact");
    assert_eq!(assurance.total, assurance.satisfied + assurance.open.len());
}

/// Whole-pipeline verification after an edit: the warm artefacts (served
/// partly from cache) are equivalent to a cold engine's from-scratch run,
/// artefact by artefact — and the warm run really did hit the cache.
#[test]
fn warm_pipeline_after_edit_verifies_against_cold() {
    let (model, top) = case_study::ssam_model();
    let mut engine = Engine::builder().jobs(2).build().expect("engine builds");
    let pipeline = Pipeline::standard(false);
    engine.run_pipeline(&pipeline, &PipelineInput::for_model(&model, top)).expect("priming run");

    let (mut edited, edited_top) = case_study::ssam_model();
    let d1 = edited.component_by_name("D1").expect("case-study diode");
    edited.components[d1].fit = Some(Fit::new(20.0));
    engine.reset_stats();
    engine
        .verify_pipeline_against_full(&pipeline, &PipelineInput::for_model(&edited, edited_top))
        .expect("warm-after-edit run equals the cold recomputation");
    let rows = engine.stats().phase("graph-rows").expect("graph-rows phase ran");
    assert!(rows.cache_hits > 0, "the edit invalidated some rows, not all of them");
    assert_eq!(rows.jobs_executed, 1, "only the edited component's row recomputes");
}

// ----------------------------------------------------------------------
// Stochastic campaigns and recommendations (ISSUE 10)
// ----------------------------------------------------------------------

/// The reliability annex shipped with the brownout gallery model: both the
/// series resistor and the microcontroller carry stochastic FIT budgets, so
/// Monte-Carlo metrics genuinely vary from trial to trial.
const BROWNOUT_RELIABILITY: &str =
    "Component,FIT,Failure_Mode,Distribution\nResistor,5,Drift,1\nMC,300,RAM Failure,1\n";

fn brownout_db() -> ReliabilityDb {
    ReliabilityDb::from_csv_str(BROWNOUT_RELIABILITY).expect("brownout reliability annex")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A seeded Monte-Carlo campaign is bitwise identical across scheduler
    /// thread counts and across warm/cold caches: the trial RNG is keyed by
    /// `(seed, trial index)` alone, and the report folds samples in trial
    /// order, so neither the worker count nor cache hits can reorder or
    /// perturb a single bit of the estimate.
    #[test]
    fn seeded_montecarlo_is_bitwise_identical_across_threads_and_caches(
        jobs in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let (diagram, _) = gallery::brownout_threshold_supply();
        let db = brownout_db();
        let config = InjectionConfig::default();
        let trials = 8;

        let mut reference = Engine::builder().jobs(1).build().expect("engine builds");
        let baseline = reference
            .analyze_montecarlo(&diagram, &db, &config, trials, seed)
            .expect("single-worker reference run");

        let mut engine = Engine::builder().jobs(jobs).build().expect("engine builds");
        let cold = engine
            .analyze_montecarlo(&diagram, &db, &config, trials, seed)
            .expect("cold run");
        prop_assert_eq!(&cold, &baseline);

        let warm = engine
            .analyze_montecarlo(&diagram, &db, &config, trials, seed)
            .expect("warm run");
        prop_assert_eq!(&warm, &baseline);
    }
}

/// Confidence intervals tighten as the campaign grows: on the brownout
/// gallery model the PMHF half-width shrinks strictly from N=64 to N=256 to
/// N=1024 trials, and no metric's half-width ever widens. The three runs
/// share one engine, so the larger campaigns re-serve the earlier trials
/// from cache — exactly how an interactive refinement session would run.
#[test]
fn montecarlo_ci_half_widths_shrink_with_trial_count() {
    let (diagram, _) = gallery::brownout_threshold_supply();
    let db = brownout_db();
    let config = InjectionConfig::default();
    let mut engine = Engine::builder().jobs(4).build().expect("engine builds");

    let reports: Vec<_> = [64usize, 256, 1024]
        .iter()
        .map(|&trials| {
            engine
                .analyze_montecarlo(&diagram, &db, &config, trials, 7)
                .unwrap_or_else(|e| panic!("{trials}-trial campaign: {e}"))
        })
        .collect();

    for pair in reports.windows(2) {
        let (small, large) = (&pair[0], &pair[1]);
        assert!(
            large.pmhf.half_width < small.pmhf.half_width,
            "PMHF CI tightens: {} trials gave ±{}, {} trials gave ±{}",
            small.trials,
            small.pmhf.half_width,
            large.trials,
            large.pmhf.half_width
        );
        assert!(large.spfm.half_width <= small.spfm.half_width, "SPFM CI never widens");
        assert!(large.lfm.half_width <= small.lfm.half_width, "LFM CI never widens");
        assert!(large.pmhf.mean > 0.0, "the PMHF estimate is a real failure rate");
    }
}

/// The recommendation pass, run as a pipeline stage downstream of the
/// injection FMEA, proposes at least one deployment whose projected SPFM
/// meets ASIL B on a gallery model — the paper's iterate-until-compliant
/// loop closed mechanically.
#[test]
fn recommend_pass_reaches_asil_b_on_the_gallery_model() {
    let (diagram, _) = gallery::sensor_power_supply();
    let db = ReliabilityDb::paper_table_ii();
    let mut engine = Engine::builder().jobs(2).build().expect("engine builds");
    let input =
        PipelineInput::for_diagram(&diagram, &db).with_injection_config(InjectionConfig::default());
    let pipeline = Pipeline::new().with(InjectionFmeaPass).with(RecommendPass::default());
    let run = engine.run_pipeline(&pipeline, &input).expect("injection + recommend pipeline");

    let report = run.recommendation().expect("recommendation artefact");
    assert!(!report.uncovered.is_empty(), "the bare supply has uncovered failure modes");
    let compliant: Vec<_> = report.meeting(IntegrityLevel::AsilB).collect();
    assert!(
        !compliant.is_empty(),
        "at least one recommended deployment projects to ASIL B (baseline SPFM {})",
        report.baseline.spfm
    );
    for rec in &report.recommendations {
        assert!(
            rec.projected_spfm >= report.baseline.spfm - 1e-12,
            "a recommendation never degrades SPFM"
        );
    }
}

/// `MonteCarloPass` participates in a pipeline like any other pass, and the
/// engine wrapper equals the pipeline route bit for bit.
#[test]
fn montecarlo_pass_runs_inside_a_pipeline() {
    let (diagram, _) = gallery::brownout_threshold_supply();
    let db = brownout_db();
    let input = PipelineInput::for_diagram(&diagram, &db)
        .with_injection_config(InjectionConfig::default())
        .with_trials(16)
        .with_seed(42);
    let mut engine = Engine::builder().jobs(2).build().expect("engine builds");
    let run = engine
        .run_pipeline(&Pipeline::new().with(MonteCarloPass), &input)
        .expect("montecarlo pipeline");
    let via_pipeline = run.montecarlo().expect("montecarlo artefact").clone();

    let mut direct = Engine::builder().jobs(2).build().expect("engine builds");
    let via_wrapper = direct
        .analyze_montecarlo(&diagram, &db, &InjectionConfig::default(), 16, 42)
        .expect("wrapper run");
    assert_eq!(via_pipeline, via_wrapper, "pipeline and wrapper routes agree");
    assert_eq!(via_pipeline.trials, 16);
    assert_eq!(via_pipeline.seed, 42);
}

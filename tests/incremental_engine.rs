//! End-to-end tests of the incremental analysis engine (`decisive-engine`):
//! cache persistence across engine instances through a cache directory,
//! the incremental ≡ full guarantee, the <10 % re-run bound on
//! single-component edits at Set3 scale, and parallel/sequential result
//! identity.

use decisive::core::fmea::graph::{self, GraphConfig};
use decisive::core::fmea::injection::{self, InjectionConfig};
use decisive::core::reliability::ReliabilityDb;
use decisive::core::{case_study, metrics};
use decisive::engine::Engine;
use decisive::ssam::architecture::Fit;
use decisive::workload::sets::{chain_model, ladder_model};

/// A scratch cache directory, unique per test, removed on drop.
struct TempCacheDir(std::path::PathBuf);

impl TempCacheDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("decisive_engine_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempCacheDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempCacheDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A persisted cache warms a brand-new engine instance, and the warmed
/// result passes `verify_against_full` — the cache survives "CLI
/// invocations" (here: engine lifetimes) without going stale or wrong.
#[test]
fn cache_persists_across_engine_instances() {
    let dir = TempCacheDir::new("persist");
    let (model, top) = case_study::ssam_model();

    let mut first = Engine::builder().jobs(2).cache_dir(dir.path()).build().expect("open");
    let cold = first.analyze_graph(&model, top).expect("cold analysis");
    assert!(first.stats().cache_hits() == 0, "first run starts cold");
    drop(first);

    let mut second = Engine::builder().jobs(2).cache_dir(dir.path()).build().expect("reopen");
    let warm = second.verify_against_full(&model, top).expect("verified warm analysis");
    assert_eq!(warm, cold);
    let rows = second.stats().phase("graph-rows").expect("rows phase");
    assert_eq!(rows.cache_misses, 0, "fully served from the persisted cache");
    assert_eq!(rows.jobs_executed, 0);
}

/// The headline incremental bound: a single-component FIT edit on the
/// Set3-scale chain (5689 model elements) re-runs fewer than 10 % of the
/// per-component jobs, and still produces exactly the full result.
#[test]
fn set3_single_edit_reruns_under_ten_percent_of_jobs() {
    let (old_model, old_top) = chain_model(1896);
    let (mut new_model, new_top) = chain_model(1896);
    let edited = new_model.component_by_name("c948").expect("mid-chain component");
    new_model.components[edited].fit = Some(Fit::new(99.0));

    let mut engine = Engine::builder().build().expect("engine builds");
    engine.analyze_graph(&old_model, old_top).expect("baseline analysis");
    engine.reset_stats();

    let (table, report) = engine.rerun(&old_model, &new_model, new_top).expect("rerun");
    assert!(report.requires_reanalysis());
    let rows = engine.stats().phase("graph-rows").expect("rows phase");
    assert!(
        rows.jobs_executed * 10 < rows.jobs_total,
        "{} of {} row jobs re-ran — not incremental",
        rows.jobs_executed,
        rows.jobs_total
    );
    assert_eq!(table, graph::run(&new_model, new_top, &GraphConfig::default()).expect("full run"),);
}

/// The parallel scheduler must not change results: 1-worker and 4-worker
/// engines and the plain sequential `graph::run` agree row-for-row (order
/// included) on a branchy redundancy ladder.
#[test]
fn parallel_and_sequential_schedules_agree() {
    let (model, top) = ladder_model(3, 4);
    let reference = graph::run(&model, top, &GraphConfig::default()).expect("reference");
    for jobs in [1, 4] {
        let mut engine = Engine::builder().jobs(jobs).build().expect("engine builds");
        let table = engine.analyze_graph(&model, top).expect("engine analysis");
        assert_eq!(table, reference, "{jobs}-worker schedule diverged");
    }
}

/// The injection path: the engine's cached fault-injection FMEA equals
/// `injection::run`, and a warm re-analysis of the unchanged circuit skips
/// every simulation.
#[test]
fn injection_rows_cache_and_match_direct_run() {
    let (diagram, _) = decisive::blocks::gallery::sensor_power_supply();
    let db = ReliabilityDb::paper_table_ii();
    let config = InjectionConfig::default();
    let direct = injection::run(&diagram, &db, &config).expect("direct run");

    let mut engine = Engine::builder().jobs(2).build().expect("engine builds");
    let cold = engine.analyze_injection(&diagram, &db, &config).expect("cold");
    assert_eq!(cold, direct);
    let warm = engine.analyze_injection(&diagram, &db, &config).expect("warm");
    assert_eq!(warm, direct);
    let phase = engine.stats().phase("injection-rows").expect("phase");
    assert_eq!(phase.cache_misses, 0, "warm pass simulates nothing");
    assert_eq!(phase.jobs_executed, 0);

    // Metrics ride along unchanged.
    let (md, mw) = (metrics::compute(&direct), metrics::compute(&warm));
    assert_eq!(md.achieved_asil, mw.achieved_asil);
    assert!((md.spfm - mw.spfm).abs() < 1e-12);
}

/// Campaign health covers cache hits and misses alike: a second engine
/// over the same cache directory simulates nothing and still reports the
/// full outcome classification, rebuilt from the cached row outcomes.
#[test]
fn campaign_health_survives_cache_round_trips() {
    let dir = TempCacheDir::new("campaign");
    let (diagram, _) = decisive::blocks::gallery::sensor_power_supply();
    let db = ReliabilityDb::paper_table_ii();
    let config = InjectionConfig::default();

    let mut engine = Engine::builder().jobs(2).cache_dir(dir.path()).build().expect("open");
    engine.analyze_injection(&diagram, &db, &config).expect("cold");
    let cold_health = engine.campaign_health().expect("cold health").clone();
    assert_eq!(cold_health.total, 9);
    assert_eq!(cold_health.unsolvable + cold_health.panicked, 0, "healthy design");
    drop(engine);

    let mut warm = Engine::builder().jobs(2).cache_dir(dir.path()).build().expect("reopen");
    warm.analyze_injection(&diagram, &db, &config).expect("warm");
    let phase = warm.stats().phase("injection-rows").expect("phase");
    assert_eq!(phase.cache_misses, 0, "warm pass simulates nothing");
    let warm_health = warm.campaign_health().expect("warm health");
    assert_eq!(warm_health.total, cold_health.total);
    assert_eq!(warm_health.converged, cold_health.converged);
    assert_eq!(warm_health.strategy_histogram, cold_health.strategy_histogram);
}

/// A run's report depends only on the current design: a graph-only
/// analysis over a cache directory an injection campaign once filled
/// reports no campaign, exactly as it would without the cache — even when
/// the directory still holds the `campaign.json` side file that earlier
/// releases wrote next to the cache.
#[test]
fn graph_analysis_over_a_campaign_cache_reports_no_campaign() {
    use decisive::federation::{json, serde_bridge};

    let dir = TempCacheDir::new("stale-health");
    let (diagram, _) = decisive::blocks::gallery::sensor_power_supply();
    let mut campaign = Engine::builder().jobs(2).cache_dir(dir.path()).build().expect("open");
    campaign
        .analyze_injection(&diagram, &ReliabilityDb::paper_table_ii(), &InjectionConfig::default())
        .expect("campaign");
    let health = campaign.campaign_health().expect("campaign health");
    let side_file = serde_bridge::to_value(health).expect("health serialises");
    std::fs::write(dir.path().join("campaign.json"), json::to_string(&side_file)).expect("write");
    drop(campaign);

    let (model, top) = case_study::ssam_model();
    let mut graph_only = Engine::builder().jobs(2).cache_dir(dir.path()).build().expect("reopen");
    assert_eq!(graph_only.campaign_health(), None, "nothing is restored at open");
    graph_only.analyze_graph(&model, top).expect("graph analysis");
    assert_eq!(graph_only.campaign_health(), None, "no campaign ran in this engine");
}

/// The campaign circuit breaker trips through the engine path too: a
/// starved per-case budget makes the sweep mostly unsolvable, the run
/// aborts with `CampaignAborted`, and the health report survives the
/// abort for post-mortem inspection.
#[test]
fn engine_campaign_breaker_trips_on_starved_budget() {
    use decisive::circuit::SolverOptions;
    use decisive::core::campaign::CampaignConfig;
    use decisive::core::CoreError;
    use decisive::engine::EngineError;

    let (diagram, _) = decisive::blocks::gallery::sensor_power_supply();
    let db = ReliabilityDb::paper_table_ii();
    let config = InjectionConfig {
        campaign: CampaignConfig {
            max_unsolvable_fraction: 0.25,
            solver: SolverOptions { budget: 1, ..SolverOptions::default() },
            ..CampaignConfig::default()
        },
        ..InjectionConfig::default()
    };
    let mut engine = Engine::builder().jobs(2).build().expect("engine builds");
    let err = engine.analyze_injection(&diagram, &db, &config).expect_err("breaker");
    assert!(
        matches!(err, EngineError::Core(CoreError::CampaignAborted { total: 9, .. })),
        "got {err}"
    );
    let health = engine.campaign_health().expect("health survives the abort");
    assert!(health.failure_fraction() > 0.25);
    assert!(!health.failed_cases.is_empty());
}

/// A poisoned legacy cache (corrupt JSON) awaiting migration is
/// quarantined and the run proceeds cold — the corruption is reported
/// through the degraded-mode channel instead of aborting the analysis.
#[test]
fn corrupt_cache_file_is_quarantined_and_run_proceeds() {
    let dir = TempCacheDir::new("corrupt");
    std::fs::create_dir_all(dir.path()).expect("mkdir");
    std::fs::write(dir.path().join("cache.json"), "{not json").expect("write");
    let mut engine =
        Engine::builder().jobs(1).cache_dir(dir.path()).build().expect("corruption is not fatal");
    assert!(engine.shared_store().is_some_and(|s| s.is_empty()), "corrupt cache loads cold");
    assert_eq!(engine.degraded_report().quarantined_cache_entries, 1);
    assert!(engine.degraded_report().is_degraded());
    assert_eq!(
        std::fs::read_to_string(dir.path().join("cache.quarantine.json")).expect("quarantined"),
        "{not json",
        "corrupt bytes are preserved for post-mortem"
    );
    // The analysis itself still runs and verifies against a from-scratch
    // pass.
    let (model, top) = case_study::ssam_model();
    engine.verify_against_full(&model, top).expect("cold run verifies");
}

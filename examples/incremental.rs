//! Incremental re-analysis with `decisive-engine`: analyse the case study
//! cold, edit one component, and watch the engine recompute only the work
//! that edit dirtied — then prove the shortcut changed nothing with
//! `verify_against_full`.
//!
//! ```sh
//! cargo run --example incremental
//! ```

use decisive::core::case_study;
use decisive::engine::Engine;
use decisive::ssam::architecture::Fit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Step 1: a cold analysis fills the content-addressed cache.
    let (model, top) = case_study::ssam_model();
    let mut engine = Engine::builder().jobs(4).build().expect("engine builds");
    let table = engine.analyze_graph(&model, top)?;
    println!("cold analysis: {} rows, SPFM {:.2}%", table.rows.len(), table.spfm() * 100.0);
    print!("{}", engine.stats().render());

    // Step 2: the analyst revises one component — the flyback diode's
    // failure rate doubles after a supplier change.
    let (mut revised, revised_top) = case_study::ssam_model();
    let d1 = revised.component_by_name("D1").expect("case study has D1");
    revised.components[d1].fit = Some(Fit::new(20.0));

    // Step 3: `rerun` diffs the revisions, drops exactly the artefacts the
    // change dirtied, and re-derives the table mostly from cache.
    engine.reset_stats();
    let (refreshed, report) = engine.rerun(&model, &revised, revised_top)?;
    print!("{}", report.render());
    println!("after edit: SPFM {:.2}%", refreshed.spfm() * 100.0);
    print!("{}", engine.stats().render());

    // Step 4: the escape hatch — incremental must equal from-scratch.
    engine.verify_against_full(&revised, revised_top)?;
    println!("incremental result verified against full recomputation");
    Ok(())
}

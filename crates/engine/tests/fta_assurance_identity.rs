//! Output identity of the FTA and assurance passes across the paper's
//! subjects.
//!
//! Minimal cut sets are extracted once per subtree and minimised through a
//! singleton index, importance is read through an inverted index, and
//! evidence queries evaluate by reference. None of that may change a
//! result: the digests below were recorded from the pairwise-minimisation,
//! copying-evaluator implementation, and cover every field of every
//! [`FtaSubtreeSummary`] (probabilities by bit pattern, cut sets in
//! order) and the whole serialised [`AssuranceReport`].

use decisive_core::case_study;
use decisive_engine::fingerprint::Hasher;
use decisive_engine::{Engine, FtaSubtreeSummary, Pipeline, PipelineInput};
use decisive_federation::{json, serde_bridge};
use decisive_ssam::architecture::Component;
use decisive_ssam::id::Idx;
use decisive_ssam::model::SsamModel;
use decisive_workload::sets::{chain_model, instance_model, SCALABILITY_SETS};
use decisive_workload::systems::{system_a, system_b, EvaluationSubject};

/// A digest of every summary field, with floats hashed by their exact
/// bits (`-0.0` and `0.0` stay distinct).
fn summaries_digest(summaries: &[FtaSubtreeSummary]) -> String {
    let mut h = Hasher::new();
    for s in summaries {
        h.write_str(&s.container);
        h.write_bool(s.analysable);
        h.write_u64(s.top_probability.to_bits());
        h.write_u64(s.single_points.len() as u64);
        for point in &s.single_points {
            h.write_str(point);
        }
        h.write_u64(s.minimal_cut_sets.len() as u64);
        for cut_set in &s.minimal_cut_sets {
            h.write_u64(cut_set.len() as u64);
            for event in cut_set {
                h.write_str(event);
            }
        }
    }
    h.finish().to_string()
}

/// `(fta digest, assurance digest)` of a cold standard pipeline run.
fn digests(model: &SsamModel, top: Idx<Component>) -> (String, String) {
    let mut engine = Engine::builder().jobs(2).build().expect("engine");
    let run = engine
        .run_pipeline(&Pipeline::standard(false), &PipelineInput::for_model(model, top))
        .expect("pipeline");
    let fta = summaries_digest(run.fta().expect("fta pass ran"));
    let report = serde_bridge::to_value(run.assurance().expect("assurance pass ran"))
        .expect("report serialises");
    let mut h = Hasher::new();
    h.write_str(&json::to_string(&report));
    (fta, h.finish().to_string())
}

/// A block-diagram subject lowered to SSAM with its reliability data, as
/// the CLI's `pipeline` verb does before the graph-side passes.
fn lowered(subject: &EvaluationSubject) -> (SsamModel, Idx<Component>) {
    let mut model = decisive_blocks::to_ssam(&subject.diagram);
    subject.reliability.aggregate_into(&mut model);
    let top = model
        .components
        .iter()
        .find(|(_, c)| c.parent.is_none())
        .map(|(i, _)| i)
        .expect("lowered model has a top component");
    (model, top)
}

fn check(name: &str, (model, top): (SsamModel, Idx<Component>), fta: &str, assurance: &str) {
    let got = digests(&model, top);
    assert_eq!(got, (fta.to_owned(), assurance.to_owned()), "{name}: outputs changed");
}

#[test]
fn case_study_outputs_are_unchanged() {
    check("case study", case_study::ssam_model(), "db7cb0cbd9cc3524", "c119df0e1e4ebf65");
}

#[test]
fn systems_a_and_b_outputs_are_unchanged() {
    check("System A", lowered(&system_a()), "05184e3121822554", "783c574e64923960");
    check("System B", lowered(&system_b()), "f13c8bf034f1caae", "c9bd064f6f4ce499");
}

#[test]
fn set0_to_set3_outputs_are_unchanged() {
    let expected = [
        ("c7561bacf6846483", "e2a3e5d93eee2f43"),
        ("12b618d7dc5fab75", "18b8ce8f688be3ea"),
        ("ebdee70c0497f9bc", "343cb35d3285cb63"),
        ("4004db14737500a9", "54af00a4edb886f8"),
    ];
    for (set, (fta, assurance)) in SCALABILITY_SETS.iter().zip(expected) {
        check(set.name, instance_model(set, 0, 7), fta, assurance);
    }
}

#[test]
fn set3_sized_chain_outputs_are_unchanged() {
    check("chain_model(1896)", chain_model(1896), "f5bc24cd1b9ef9c6", "e217522f6305e400");
}

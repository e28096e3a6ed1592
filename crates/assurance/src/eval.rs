//! Automated assurance case evaluation.
//!
//! "When our design changes, it is reflected in the FMEDA result, which can
//! in turn be automatically checked by ACME (by executing the query). In
//! this way, it is possible to automate the evaluation of assurance cases."
//! (paper §V-C) — this module is that loop: every solution's evidence query
//! re-runs against the *current* federated artefacts.

use std::collections::HashMap;

use decisive_federation::DriverRegistry;
use serde::{Deserialize, Serialize};

use crate::case::{AssuranceCase, EvidenceQuery, GsnKind, NodeRef};

/// The evaluation status of one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Status {
    /// The claim holds: all supports satisfied / the evidence query is
    /// truthy.
    Satisfied,
    /// The evidence query evaluated falsy, or a support is unsatisfied.
    Unsatisfied,
    /// No supports and no query — the branch is not developed yet.
    Undeveloped,
    /// The evidence query failed to run.
    Error(String),
}

/// The result of evaluating a whole case.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    statuses: HashMap<NodeRef, Status>,
    root: Option<NodeRef>,
}

impl Evaluation {
    /// The status of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not part of the evaluated case; use
    /// [`Evaluation::try_status`] for handles of unknown provenance.
    pub fn status(&self, node: NodeRef) -> &Status {
        self.try_status(node).unwrap_or_else(|| panic!("node {node} was not evaluated"))
    }

    /// The status of one node, or `None` for a handle foreign to the
    /// evaluated case.
    pub fn try_status(&self, node: NodeRef) -> Option<&Status> {
        self.statuses.get(&node)
    }

    /// The root goal's status ([`Status::Undeveloped`] when no root is set).
    pub fn overall(&self) -> Status {
        match self.root {
            Some(root) => self.statuses[&root].clone(),
            None => Status::Undeveloped,
        }
    }

    /// `true` when the root goal is satisfied.
    pub fn is_satisfied(&self) -> bool {
        self.overall() == Status::Satisfied
    }

    /// All nodes whose status is not [`Status::Satisfied`], in node order.
    pub fn open_items(&self) -> Vec<(NodeRef, Status)> {
        let mut items: Vec<_> = self
            .statuses
            .iter()
            .filter(|(_, s)| **s != Status::Satisfied)
            .map(|(n, s)| (*n, s.clone()))
            .collect();
        items.sort_by_key(|(n, _)| *n);
        items
    }
}

/// Evaluates `case` against the artefacts reachable through `registry`.
///
/// Contexts are informational and always satisfied. A solution with a query
/// is satisfied iff the query evaluates truthy; without a query it is
/// undeveloped. Goals and strategies are satisfied iff they have at least
/// one support and every support is satisfied.
pub fn evaluate(case: &AssuranceCase, registry: &DriverRegistry) -> Evaluation {
    let mut statuses: HashMap<NodeRef, Status> = HashMap::new();
    // Nodes are append-only and supports point at existing nodes, so a
    // reverse pass visits children before parents.
    let all: Vec<NodeRef> = case.nodes().map(|(n, _)| n).collect();
    for &node in all.iter().rev() {
        let n = case.node(node);
        let status = match n.kind {
            GsnKind::Context => Status::Satisfied,
            GsnKind::Solution => match &n.query {
                None => Status::Undeveloped,
                Some(q) => run_query(q, registry),
            },
            GsnKind::Goal | GsnKind::Strategy => {
                if n.supported_by.is_empty() {
                    Status::Undeveloped
                } else {
                    let mut status = Status::Satisfied;
                    for child in &n.supported_by {
                        match statuses.get(child) {
                            Some(Status::Satisfied) => {}
                            Some(Status::Error(e)) => {
                                status = Status::Error(e.clone());
                                break;
                            }
                            Some(Status::Unsatisfied) | Some(Status::Undeveloped) | None => {
                                status = Status::Unsatisfied;
                                break;
                            }
                        }
                    }
                    status
                }
            }
        };
        statuses.insert(node, status);
    }
    Evaluation { statuses, root: case.root() }
}

/// Runs one evidence query, inside an `eql:query` span when the
/// thread-current telemetry handle is recording.
fn run_query(query: &EvidenceQuery, registry: &DriverRegistry) -> Status {
    let run = || match registry.extract(&query.model_kind, &query.location, &query.expression) {
        Ok(result) if result.truthy() => Status::Satisfied,
        Ok(_) => Status::Unsatisfied,
        Err(e) => Status::Error(e.to_string()),
    };
    decisive_obs::with_current(|telemetry| {
        let mut span = telemetry.span("eql:query", "eql");
        span.arg("location", query.location.as_str());
        run()
    })
    .unwrap_or_else(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decisive_federation::Value;

    fn registry_with(key: &str, model: Value) -> DriverRegistry {
        let registry = DriverRegistry::with_defaults();
        registry.memory().register(key, model);
        registry
    }

    fn simple_case(expression: &str) -> AssuranceCase {
        let mut case = AssuranceCase::new("t");
        let g1 = case.goal("G1", "safe");
        let sn1 = case.solution("Sn1", "evidence");
        case.support(g1, sn1);
        case.set_root(g1);
        case.attach_query(
            sn1,
            EvidenceQuery {
                model_kind: "memory".into(),
                location: "m".into(),
                expression: expression.into(),
            },
        );
        case
    }

    #[test]
    fn satisfied_when_query_is_truthy() {
        let registry = registry_with("m", Value::list([Value::Int(1)]));
        let eval = evaluate(&simple_case("rows.size() = 1"), &registry);
        assert!(eval.is_satisfied());
        assert!(eval.open_items().is_empty());
    }

    #[test]
    fn unsatisfied_when_query_is_falsy() {
        let registry = registry_with("m", Value::list([Value::Int(1)]));
        let eval = evaluate(&simple_case("rows.size() > 5"), &registry);
        assert_eq!(eval.overall(), Status::Unsatisfied);
        assert_eq!(eval.open_items().len(), 2, "goal and solution are open");
    }

    #[test]
    fn error_when_artefact_is_missing() {
        let registry = DriverRegistry::with_defaults();
        let eval = evaluate(&simple_case("rows.size() = 1"), &registry);
        assert!(matches!(eval.overall(), Status::Error(_)));
    }

    #[test]
    fn undeveloped_branches_propagate() {
        let mut case = AssuranceCase::new("t");
        let g1 = case.goal("G1", "safe");
        let g2 = case.goal("G2", "nothing below"); // no supports
        case.support(g1, g2);
        case.set_root(g1);
        let eval = evaluate(&case, &DriverRegistry::with_defaults());
        assert_eq!(*eval.status(g2), Status::Undeveloped);
        assert_eq!(eval.overall(), Status::Unsatisfied);
    }

    #[test]
    fn contexts_are_always_satisfied() {
        let mut case = AssuranceCase::new("t");
        let g1 = case.goal("G1", "safe");
        let c1 = case.context("C1", "definition");
        let sn = case.solution("Sn1", "e");
        case.in_context(g1, c1);
        case.support(g1, sn);
        case.set_root(g1);
        case.attach_query(
            sn,
            EvidenceQuery {
                model_kind: "memory".into(),
                location: "m".into(),
                expression: "true".into(),
            },
        );
        let registry = registry_with("m", Value::Null);
        let eval = evaluate(&case, &registry);
        assert_eq!(*eval.status(c1), Status::Satisfied);
        assert!(eval.is_satisfied());
    }

    #[test]
    fn each_evidence_query_runs_in_its_own_span() {
        let registry = registry_with("m", Value::list([Value::Int(1)]));
        let (telemetry, sink) = decisive_obs::Telemetry::recording();
        {
            let _current = decisive_obs::set_current(telemetry);
            assert!(evaluate(&simple_case("rows.size() = 1"), &registry).is_satisfied());
        }
        let report = sink.drain();
        assert_eq!(report.span_count("eql:query"), 1);
        let span = report.spans.iter().find(|s| s.name == "eql:query").unwrap();
        assert_eq!(span.args, vec![("location".to_owned(), "m".to_owned())]);
        // Without a recording handle the same case evaluates identically.
        assert!(evaluate(&simple_case("rows.size() = 1"), &registry).is_satisfied());
    }

    /// The paper's §V-C loop: the FMEDA artefact changes, the same case
    /// flips from unsatisfied to satisfied on re-evaluation.
    #[test]
    fn design_change_flips_the_case() {
        let case = simple_case(
            "1.0 - rows.collect(r | r.Single_Point_Failure_Rate).sum() / \
             rows.select(r | r.Safety_Related = 'Yes').collect(r | [r.Component, r.FIT]).distinct() \
             .collect(p | p[1]).sum() >= 0.9",
        );
        let registry = DriverRegistry::with_defaults();
        let row = |component: &str, fit: f64, sr: &str, spf: f64| {
            Value::record([
                ("Component", Value::from(component)),
                ("FIT", Value::Real(fit)),
                ("Safety_Related", Value::from(sr)),
                ("Single_Point_Failure_Rate", Value::Real(spf)),
            ])
        };
        // Before refinement: MC1's RAM failure is uncovered (300 FIT SPF).
        registry.memory().register(
            "m",
            Value::list([
                row("D1", 10.0, "Yes", 3.0),
                row("L1", 15.0, "Yes", 4.5),
                row("MC1", 300.0, "Yes", 300.0),
            ]),
        );
        assert_eq!(evaluate(&case, &registry).overall(), Status::Unsatisfied);
        // After deploying ECC, the artefact is regenerated…
        registry.memory().register(
            "m",
            Value::list([
                row("D1", 10.0, "Yes", 3.0),
                row("L1", 15.0, "Yes", 4.5),
                row("MC1", 300.0, "Yes", 3.0),
            ]),
        );
        // …and the *same* case now evaluates satisfied (SPFM 96.77 %).
        assert!(evaluate(&case, &registry).is_satisfied());
    }
}

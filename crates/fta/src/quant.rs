//! Quantitative fault tree analysis: top-event probability and importance
//! measures over the minimal cut sets.

use std::collections::BTreeMap;

use crate::build::FtaError;
use crate::cutset::CutSet;
use crate::tree::{FaultTree, Node, NodeId};

/// Quantification results for a fault tree over a mission time.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantification {
    /// Mission time in hours.
    pub mission_hours: f64,
    /// Top event probability (rare-event approximation over the minimal
    /// cut sets).
    pub top_probability: f64,
    /// The minimal cut sets every figure here is computed over, in
    /// [`FaultTree::minimal_cut_sets`] order.
    pub minimal_cut_sets: Vec<CutSet>,
    /// Per-cut-set probability, aligned with the minimal cut set order.
    pub cut_set_probabilities: Vec<f64>,
    /// Fussell-Vesely importance per basic event: the share of the top
    /// probability flowing through cut sets containing the event.
    pub fussell_vesely: BTreeMap<NodeId, f64>,
    /// Birnbaum importance per basic event (rare-event approximation).
    pub birnbaum: BTreeMap<NodeId, f64>,
}

impl Quantification {
    /// Single-point basic events: those forming a singleton minimal cut
    /// set, read off the cut sets already extracted.
    pub fn single_points(&self) -> Vec<NodeId> {
        single_points_of(&self.minimal_cut_sets)
    }
}

impl FaultTree {
    /// Quantifies the tree over `mission_hours` using the rare-event
    /// approximation `P(top) ≈ Σ P(cut set)`.
    ///
    /// # Panics
    ///
    /// Panics if `mission_hours` is not positive and finite. Fallible
    /// callers (e.g. pipeline passes) should use
    /// [`FaultTree::try_quantify`].
    pub fn quantify(&self, mission_hours: f64) -> Quantification {
        self.try_quantify(mission_hours).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Quantifies the tree, reporting bad inputs and structural violations
    /// as typed errors instead of panicking.
    ///
    /// The minimal cut sets are extracted once and returned in the
    /// [`Quantification`], so callers needing single points or named cut
    /// sets as well derive them from it instead of re-running MOCUS.
    ///
    /// # Errors
    ///
    /// [`FtaError::InvalidMissionTime`] when `mission_hours` is not
    /// positive and finite; [`FtaError::TooManyCutSets`] when MOCUS
    /// expansion exceeds [`crate::cutset::MOCUS_BUDGET`] working sets
    /// (adversarial redundancy structures degrade with a typed error
    /// instead of hanging); [`FtaError::MalformedTree`] when a cut set
    /// references a gate node (impossible for trees built through the safe
    /// constructors, but reachable from hand-deserialized trees).
    pub fn try_quantify(&self, mission_hours: f64) -> Result<Quantification, FtaError> {
        if !(mission_hours > 0.0 && mission_hours.is_finite()) {
            return Err(FtaError::InvalidMissionTime { mission_hours });
        }
        let mcs = self.try_minimal_cut_sets(crate::cutset::MOCUS_BUDGET)?;
        let cut_set_probabilities: Vec<f64> = mcs
            .iter()
            .map(|cs| {
                cs.iter()
                    .map(|&e| self.event_probability(e, mission_hours))
                    .product::<Result<f64, FtaError>>()
            })
            .collect::<Result<_, _>>()?;
        let top_probability: f64 = cut_set_probabilities.iter().sum::<f64>().min(1.0);
        let (fussell_vesely, birnbaum) =
            self.importance(&mcs, &cut_set_probabilities, top_probability, mission_hours)?;
        Ok(Quantification {
            mission_hours,
            top_probability,
            minimal_cut_sets: mcs,
            cut_set_probabilities,
            fussell_vesely,
            birnbaum,
        })
    }

    /// The failure probability of basic event `id` over the mission.
    fn event_probability(&self, id: NodeId, mission_hours: f64) -> Result<f64, FtaError> {
        match self.node(id) {
            Node::Basic { fit, .. } => Ok(fit.failure_probability(mission_hours)),
            Node::Event { name, .. } => Err(FtaError::MalformedTree {
                message: format!(
                    "cut set references gate `{name}`; cut sets contain only basic events"
                ),
            }),
        }
    }

    /// Fussell-Vesely and Birnbaum importance of every basic event, read
    /// through an event → cut-set inverted index: each event visits only
    /// the cut sets containing it, in cut-set order, so the sums are
    /// accumulated in exactly the order a scan of every cut set per event
    /// would use.
    fn importance(
        &self,
        mcs: &[CutSet],
        cut_set_probabilities: &[f64],
        top_probability: f64,
        mission_hours: f64,
    ) -> Result<Importance, FtaError> {
        let mut containing: Vec<Vec<usize>> = vec![Vec::new(); self.len()];
        for (i, cs) in mcs.iter().enumerate() {
            for e in cs {
                containing[e.0 as usize].push(i);
            }
        }
        // Basic events come in ascending id order, so both maps are
        // collected from sorted runs instead of inserted into one by one.
        let mut fussell_vesely = Vec::new();
        let mut birnbaum = Vec::new();
        for (id, _, _) in self.basic_events() {
            let sets = &containing[id.0 as usize];
            let through: f64 = sets.iter().map(|&i| cut_set_probabilities[i]).sum();
            let fv = if top_probability > 0.0 { through / top_probability } else { 0.0 };
            fussell_vesely.push((id, fv.min(1.0)));
            // Birnbaum: ∂P(top)/∂p_i ≈ Σ over cut sets containing i of the
            // product of the *other* events' probabilities.
            let mut b = 0.0;
            for &i in sets {
                let mut product = 1.0;
                for &e in mcs[i].iter().filter(|&&e| e != id) {
                    product *= self.event_probability(e, mission_hours)?;
                }
                b += product;
            }
            birnbaum.push((id, b.min(1.0)));
        }
        Ok((fussell_vesely.into_iter().collect(), birnbaum.into_iter().collect()))
    }

    /// The per-event scan of every cut set that [`FaultTree::importance`]
    /// replaced, kept as the oracle its proptests compare against.
    #[cfg(test)]
    pub(crate) fn importance_scan(
        &self,
        mcs: &[CutSet],
        cut_set_probabilities: &[f64],
        top_probability: f64,
        mission_hours: f64,
    ) -> Result<Importance, FtaError> {
        let mut fussell_vesely = BTreeMap::new();
        let mut birnbaum = BTreeMap::new();
        for (id, _, _) in self.basic_events() {
            let through: f64 = mcs
                .iter()
                .zip(cut_set_probabilities)
                .filter(|(cs, _)| cs.contains(&id))
                .map(|(_, p)| p)
                .sum();
            let fv = if top_probability > 0.0 { through / top_probability } else { 0.0 };
            fussell_vesely.insert(id, fv.min(1.0));
            let mut b = 0.0;
            for cs in mcs.iter().filter(|cs| cs.contains(&id)) {
                let mut product = 1.0;
                for &e in cs.iter().filter(|&&e| e != id) {
                    product *= self.event_probability(e, mission_hours)?;
                }
                b += product;
            }
            birnbaum.insert(id, b.min(1.0));
        }
        Ok((fussell_vesely, birnbaum))
    }

    /// Single-point basic events: those forming a singleton minimal cut set.
    ///
    /// Runs MOCUS; a caller that already holds a [`Quantification`] should
    /// use [`Quantification::single_points`] instead.
    pub fn single_points(&self) -> Vec<NodeId> {
        single_points_of(&self.minimal_cut_sets())
    }

    /// The minimal cut sets rendered with event names, for reports.
    ///
    /// Runs MOCUS; a caller that already holds the cut sets should use
    /// [`FaultTree::cut_set_names`] instead.
    pub fn cut_sets_by_name(&self) -> Vec<Vec<String>> {
        self.cut_set_names(&self.minimal_cut_sets())
    }

    /// Renders already-extracted cut sets with event names.
    pub fn cut_set_names(&self, mcs: &[CutSet]) -> Vec<Vec<String>> {
        mcs.iter().map(|cs| cs.iter().map(|&e| self.node(e).name().to_owned()).collect()).collect()
    }
}

/// Fussell-Vesely and Birnbaum importance, keyed by basic event.
type Importance = (BTreeMap<NodeId, f64>, BTreeMap<NodeId, f64>);

/// The events of the singleton cut sets, in cut-set order.
fn single_points_of(mcs: &[CutSet]) -> Vec<NodeId> {
    mcs.iter().filter_map(|cs| if cs.len() == 1 { cs.first().copied() } else { None }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Gate;
    use decisive_ssam::architecture::Fit;
    use proptest::prelude::*;

    /// A series system: P(top) ≈ p1 + p2 for small probabilities.
    #[test]
    fn series_probability_adds() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", Fit::new(100.0));
        let b = ft.basic("b", Fit::new(200.0));
        let top = ft.event("top", Gate::Or, vec![a, b]);
        ft.set_top(top);
        let q = ft.quantify(10_000.0);
        let pa = Fit::new(100.0).failure_probability(10_000.0);
        let pb = Fit::new(200.0).failure_probability(10_000.0);
        assert!((q.top_probability - (pa + pb)).abs() < 1e-9);
    }

    /// A parallel system: P(top) = p1 * p2.
    #[test]
    fn parallel_probability_multiplies() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", Fit::new(100.0));
        let b = ft.basic("b", Fit::new(200.0));
        let top = ft.event("top", Gate::And, vec![a, b]);
        ft.set_top(top);
        let q = ft.quantify(10_000.0);
        let pa = Fit::new(100.0).failure_probability(10_000.0);
        let pb = Fit::new(200.0).failure_probability(10_000.0);
        assert!((q.top_probability - pa * pb).abs() < 1e-12);
        // Redundancy slashes risk by orders of magnitude.
        assert!(q.top_probability < pa / 100.0);
    }

    #[test]
    fn importance_measures_rank_the_dominant_event() {
        let mut ft = FaultTree::new("t");
        let weak = ft.basic("weak", Fit::new(1000.0));
        let strong = ft.basic("strong", Fit::new(1.0));
        let top = ft.event("top", Gate::Or, vec![weak, strong]);
        ft.set_top(top);
        let q = ft.quantify(10_000.0);
        assert!(q.fussell_vesely[&weak] > q.fussell_vesely[&strong]);
        // Birnbaum of events under a bare OR is 1 (they are single points).
        assert!((q.birnbaum[&weak] - 1.0).abs() < 1e-9);
        // FV sums to ~1 when cut sets are disjoint singletons.
        let total: f64 = q.fussell_vesely.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_points_are_singleton_cut_sets() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", Fit::new(1.0));
        let b = ft.basic("b", Fit::new(1.0));
        let c = ft.basic("c", Fit::new(1.0));
        let and = ft.event("and", Gate::And, vec![b, c]);
        let top = ft.event("top", Gate::Or, vec![a, and]);
        ft.set_top(top);
        assert_eq!(ft.single_points(), vec![a]);
        let names = ft.cut_sets_by_name();
        assert_eq!(names[0], vec!["a"]);
        assert_eq!(names[1], vec!["b", "c"]);
    }

    #[test]
    fn quantification_carries_the_cut_sets_it_summed() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", Fit::new(1.0));
        let b = ft.basic("b", Fit::new(2.0));
        let c = ft.basic("c", Fit::new(3.0));
        let and = ft.event("and", Gate::And, vec![b, c]);
        let top = ft.event("top", Gate::Or, vec![a, and]);
        ft.set_top(top);
        let q = ft.quantify(10_000.0);
        assert_eq!(q.minimal_cut_sets, ft.minimal_cut_sets());
        assert_eq!(q.single_points(), ft.single_points());
        assert_eq!(ft.cut_set_names(&q.minimal_cut_sets), ft.cut_sets_by_name());
    }

    /// A random tree: `fits.len()` basic events, then one gate per entry
    /// of `gates` (`kind` picks AND/OR/voting, `k` the voting threshold,
    /// `picks` the children among all earlier nodes); the last gate is
    /// the top event.
    fn arb_tree() -> impl Strategy<Value = FaultTree> {
        (
            proptest::collection::vec(0.0f64..500.0, 1..7),
            proptest::collection::vec(
                (0u8..3, 1u8..4, proptest::collection::vec(any::<u16>(), 1..5)),
                1..6,
            ),
        )
            .prop_map(|(fits, gates)| {
                let mut ft = FaultTree::new("random");
                let mut count = 0usize;
                for (i, fit) in fits.into_iter().enumerate() {
                    ft.basic(format!("e{i}"), Fit::new(fit));
                    count += 1;
                }
                let mut top = NodeId(0);
                for (i, (kind, k, picks)) in gates.into_iter().enumerate() {
                    let mut children: Vec<NodeId> =
                        picks.iter().map(|&p| NodeId((p as usize % count) as u32)).collect();
                    children.sort();
                    children.dedup();
                    let gate = match kind {
                        0 => Gate::And,
                        1 => Gate::Or,
                        _ => Gate::Voting { k: k.min(children.len() as u8) },
                    };
                    top = ft.event(format!("g{i}"), gate, children);
                    count += 1;
                }
                ft.set_top(top);
                ft
            })
    }

    fn bits(map: &BTreeMap<NodeId, f64>) -> Vec<(NodeId, u64)> {
        map.iter().map(|(&id, v)| (id, v.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn inverted_index_importance_matches_the_scan_bitwise(ft in arb_tree()) {
            let mission = 10_000.0;
            let q = ft.quantify(mission);
            let (fv, birnbaum) = ft
                .importance_scan(&q.minimal_cut_sets, &q.cut_set_probabilities, q.top_probability, mission)
                .unwrap();
            prop_assert_eq!(bits(&q.fussell_vesely), bits(&fv));
            prop_assert_eq!(bits(&q.birnbaum), bits(&birnbaum));
        }
    }

    #[test]
    fn try_quantify_reports_bad_mission_time_as_typed_error() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", Fit::new(1.0));
        ft.set_top(a);
        match ft.try_quantify(f64::NAN) {
            Err(FtaError::InvalidMissionTime { mission_hours }) => assert!(mission_hours.is_nan()),
            other => panic!("expected InvalidMissionTime, got {other:?}"),
        }
        assert!(ft.try_quantify(10_000.0).is_ok());
    }

    #[test]
    #[should_panic(expected = "mission time must be")]
    fn bad_mission_time_panics() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", Fit::new(1.0));
        ft.set_top(a);
        let _ = ft.quantify(-1.0);
    }
}

//! Minimal cut set extraction (MOCUS) and quantification.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::build::FtaError;
use crate::tree::{FaultTree, Gate, Node, NodeId};

/// A cut set: a set of basic events whose joint occurrence fails the top
/// event.
pub type CutSet = BTreeSet<NodeId>;

/// Default cap on the intermediate cut-set family during MOCUS expansion,
/// used by [`FaultTree::try_quantify`]. Redundancy structures whose
/// product exceeds it (deep fully-connected ladders are exponential even
/// with absorption) surface as [`FtaError::TooManyCutSets`] — a typed
/// degradation, never a hang.
pub const MOCUS_BUDGET: usize = 50_000;

impl FaultTree {
    /// Computes the minimal cut sets of the top event using MOCUS-style
    /// top-down expansion followed by minimisation.
    ///
    /// Returns an empty vector when no top event is set. Voting gates
    /// `k/n` expand into OR-of-ANDs over all `k`-subsets of their inputs.
    pub fn minimal_cut_sets(&self) -> Vec<CutSet> {
        self.try_minimal_cut_sets(usize::MAX).expect("unbounded MOCUS cannot overflow")
    }

    /// [`FaultTree::minimal_cut_sets`] with a cap on the intermediate
    /// working family, for callers (the pipeline's FTA pass) that must
    /// stay responsive on adversarial redundancy structures.
    ///
    /// # Errors
    ///
    /// [`FtaError::TooManyCutSets`] when any intermediate family exceeds
    /// `max_sets`.
    pub fn try_minimal_cut_sets(&self, max_sets: usize) -> Result<Vec<CutSet>, FtaError> {
        let Some(top) = self.top() else {
            return Ok(Vec::new());
        };
        let expanded = self.expand(top, max_sets)?;
        Ok(minimise(expanded))
    }

    /// The cut sets of `node`, absorbed but not fully minimised.
    fn expand(&self, node: NodeId, budget: usize) -> Result<Vec<CutSet>, FtaError> {
        match self.node(node) {
            Node::Basic { .. } => Ok(vec![std::iter::once(node).collect()]),
            Node::Event { gate, children, .. } => match gate {
                Gate::Or => {
                    let mut out = Vec::new();
                    for &c in children {
                        out.extend(self.expand(c, budget)?);
                        if out.len() > budget {
                            return Err(FtaError::TooManyCutSets { max_sets: budget });
                        }
                    }
                    out.sort();
                    out.dedup();
                    Ok(out)
                }
                Gate::And => {
                    let mut acc: Vec<CutSet> = vec![CutSet::new()];
                    for &c in children {
                        acc = cross(acc, &self.expand(c, budget)?, budget)?;
                    }
                    Ok(acc)
                }
                Gate::Voting { k } => {
                    // k-out-of-n failure: OR over all k-subsets ANDed.
                    let k = *k as usize;
                    let mut out = Vec::new();
                    for subset in combinations(children, k) {
                        let mut sets: Vec<CutSet> = vec![CutSet::new()];
                        for c in subset {
                            sets = cross(sets, &self.expand(c, budget)?, budget)?;
                        }
                        out.extend(sets);
                        if out.len() > budget {
                            return Err(FtaError::TooManyCutSets { max_sets: budget });
                        }
                    }
                    Ok(out)
                }
            },
        }
    }
}

/// The absorption-aware AND product of two cut-set families.
///
/// An element that stands alone in *both* factors is a cut set of the
/// product on its own, and every product set containing it is a superset
/// — dropped here rather than left for the final `minimise`. This is the
/// classical MOCUS absorption rule, and it is what keeps series/parallel
/// systems polynomial: the long series chain shared by every path
/// collapses to singletons on the first product instead of appearing in a
/// quadratic number of pairs.
fn cross(acc: Vec<CutSet>, child: &[CutSet], budget: usize) -> Result<Vec<CutSet>, FtaError> {
    let singles: BTreeSet<NodeId> = acc
        .iter()
        .filter(|s| s.len() == 1)
        .filter_map(|s| s.first().copied())
        .filter(|x| child.iter().any(|c| c.len() == 1 && c.first() == Some(x)))
        .collect();
    let survives = |s: &CutSet| s.iter().all(|e| !singles.contains(e));
    let child_live: Vec<&CutSet> = child.iter().filter(|s| survives(s)).collect();
    let mut out: Vec<CutSet> = singles.iter().map(|&x| CutSet::from([x])).collect();
    for a in acc.iter().filter(|s| survives(s)) {
        for c in &child_live {
            let mut merged = a.clone();
            merged.extend(c.iter().copied());
            out.push(merged);
            if out.len() > budget {
                return Err(FtaError::TooManyCutSets { max_sets: budget });
            }
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

fn combinations(items: &[NodeId], k: usize) -> Vec<Vec<NodeId>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    if items.len() < k {
        return Vec::new();
    }
    let mut out = Vec::new();
    let first = items[0];
    for mut rest in combinations(&items[1..], k - 1) {
        rest.insert(0, first);
        out.push(rest);
    }
    out.extend(combinations(&items[1..], k));
    out
}

/// Removes duplicate and superset cut sets, returning them sorted by size
/// then content (singletons — the single-point faults — first).
///
/// Candidates are visited in that order, so every kept set is no larger
/// than the candidate under test. A kept singleton `{x}` absorbs the
/// candidate iff `x` is in it, which one hash lookup per candidate event
/// decides; a kept multi-event set can only absorb a candidate holding
/// its smallest event, so kept multi-event sets are indexed by that event
/// and only those are subset-tested. Series structures — all singletons —
/// minimise in linear time instead of the pairwise scan's quadratic.
pub fn minimise(mut sets: Vec<CutSet>) -> Vec<CutSet> {
    sets.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    if sets.first().is_some_and(CutSet::is_empty) {
        // The empty set sorts first and is a subset of every other set.
        sets.truncate(1);
        return sets;
    }
    let mut minimal: Vec<CutSet> = Vec::new();
    let mut singletons: HashSet<NodeId> = HashSet::new();
    let mut multi_by_first: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for candidate in sets {
        // Only the first set can be empty, and it was not.
        let Some(&first) = candidate.first() else { continue };
        let absorbed = candidate.iter().any(|e| {
            singletons.contains(e)
                || multi_by_first
                    .get(e)
                    .is_some_and(|kept| kept.iter().any(|&i| minimal[i].is_subset(&candidate)))
        });
        if absorbed {
            continue;
        }
        if candidate.len() == 1 {
            singletons.insert(first);
        } else {
            multi_by_first.entry(first).or_default().push(minimal.len());
        }
        minimal.push(candidate);
    }
    minimal
}

/// The pairwise-scan minimisation [`minimise`] replaced, kept as the
/// oracle its proptests compare against.
#[cfg(test)]
pub(crate) fn minimise_pairwise(mut sets: Vec<CutSet>) -> Vec<CutSet> {
    sets.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    let mut minimal: Vec<CutSet> = Vec::new();
    for candidate in sets {
        if !minimal.iter().any(|m| m.is_subset(&candidate)) {
            minimal.push(candidate);
        }
    }
    minimal
}

#[cfg(test)]
mod tests {
    use super::*;
    use decisive_ssam::architecture::Fit;
    use proptest::prelude::*;

    fn fit() -> Fit {
        Fit::new(1.0)
    }

    #[test]
    fn or_of_basics_yields_singletons() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", fit());
        let b = ft.basic("b", fit());
        let top = ft.event("top", Gate::Or, vec![a, b]);
        ft.set_top(top);
        let mcs = ft.minimal_cut_sets();
        assert_eq!(mcs.len(), 2);
        assert!(mcs.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn and_of_basics_yields_one_pair() {
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", fit());
        let b = ft.basic("b", fit());
        let top = ft.event("top", Gate::And, vec![a, b]);
        ft.set_top(top);
        let mcs = ft.minimal_cut_sets();
        assert_eq!(mcs.len(), 1);
        assert_eq!(mcs[0].len(), 2);
    }

    #[test]
    fn nested_tree_minimises_supersets() {
        // top = OR(a, AND(a, b)) — the AND branch is absorbed by {a}.
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", fit());
        let b = ft.basic("b", fit());
        let and = ft.event("and", Gate::And, vec![a, b]);
        let top = ft.event("top", Gate::Or, vec![a, and]);
        ft.set_top(top);
        let mcs = ft.minimal_cut_sets();
        assert_eq!(mcs.len(), 1);
        assert_eq!(mcs[0].len(), 1);
    }

    #[test]
    fn voting_gate_expands_k_subsets() {
        // 2oo3 failure: any two of three failing fails the top.
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", fit());
        let b = ft.basic("b", fit());
        let c = ft.basic("c", fit());
        let top = ft.event("top", Gate::Voting { k: 2 }, vec![a, b, c]);
        ft.set_top(top);
        let mcs = ft.minimal_cut_sets();
        assert_eq!(mcs.len(), 3);
        assert!(mcs.iter().all(|s| s.len() == 2));
    }

    #[test]
    fn and_over_or_paths_structure() {
        // The path-set dual of a series/parallel system:
        // top = AND(OR(a, b), OR(a, c)) → mcs: {a}, {b, c}.
        let mut ft = FaultTree::new("t");
        let a = ft.basic("a", fit());
        let b = ft.basic("b", fit());
        let c = ft.basic("c", fit());
        let p1 = ft.event("p1", Gate::Or, vec![a, b]);
        let p2 = ft.event("p2", Gate::Or, vec![a, c]);
        let top = ft.event("top", Gate::And, vec![p1, p2]);
        ft.set_top(top);
        let mcs = ft.minimal_cut_sets();
        assert_eq!(mcs.len(), 2);
        assert_eq!(mcs[0].len(), 1, "singleton {{a}} first");
        assert_eq!(mcs[1].len(), 2);
    }

    #[test]
    fn no_top_event_yields_nothing() {
        let mut ft = FaultTree::new("t");
        ft.basic("a", fit());
        assert!(ft.minimal_cut_sets().is_empty());
    }

    #[test]
    fn minimise_keeps_only_the_empty_set_when_present() {
        let sets = vec![CutSet::from([NodeId(1)]), CutSet::new(), CutSet::new()];
        assert_eq!(minimise(sets), vec![CutSet::new()]);
    }

    #[test]
    fn minimise_absorbs_supersets_of_multi_event_sets() {
        let ab = CutSet::from([NodeId(0), NodeId(1)]);
        let abc = CutSet::from([NodeId(0), NodeId(1), NodeId(2)]);
        let bc = CutSet::from([NodeId(1), NodeId(2)]);
        let minimal = minimise(vec![abc, bc.clone(), ab.clone(), ab.clone()]);
        assert_eq!(minimal, vec![ab, bc]);
    }

    /// A family over a small alphabet, so duplicates and supersets are
    /// common; one family in eight also carries the empty set.
    fn arb_family() -> impl Strategy<Value = Vec<CutSet>> {
        (proptest::collection::vec(proptest::collection::vec(0u32..8, 1..5), 0..40), 0u8..8)
            .prop_map(|(sets, empty)| {
                let mut family: Vec<CutSet> =
                    sets.into_iter().map(|s| s.into_iter().map(NodeId).collect()).collect();
                if empty == 0 {
                    let at = family.len() / 2;
                    family.insert(at, CutSet::new());
                }
                family
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn minimise_matches_the_pairwise_scan(family in arb_family()) {
            prop_assert_eq!(minimise(family.clone()), minimise_pairwise(family));
        }
    }

    #[test]
    fn combinations_counts() {
        let ids: Vec<NodeId> = (0..4).map(NodeId).collect();
        assert_eq!(combinations(&ids, 2).len(), 6);
        assert_eq!(combinations(&ids, 4).len(), 1);
        assert_eq!(combinations(&ids, 5).len(), 0);
        assert_eq!(combinations(&ids, 0).len(), 1);
    }
}

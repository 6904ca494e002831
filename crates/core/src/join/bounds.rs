//! `LBC(e_T, e_T.JL)` — lower bounds over a whole join list
//! (paper Section III-B4).

use super::lbc::{lbc_entry, lbc_entry_admissible, EntryLbc};
use crate::cost::CostFunction;
use skyup_geom::dims::DimMask;
use skyup_geom::PointStore;
use skyup_rtree::{EntryRef, RTree};
use std::collections::HashMap;

/// Which per-entry bound the join uses (see DESIGN.md §3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BoundMode {
    /// The paper's `LBC` exactly as defined (Section III-B3). Not
    /// admissible: it can exceed true upgrading costs, so the join's
    /// emission order — and hence its top-k — is approximate whenever
    /// the `P`/`T` domains interleave. In the paper's own experimental
    /// setups the approximation is rarely visible. This is the default
    /// because the figures under reproduction study these bounds.
    #[default]
    Paper,
    /// The provably admissible single-dimension-escape bound
    /// ([`super::lbc_entry_admissible`]): weaker pruning, but the join's
    /// output order is exactly ascending in true cost and its top-k
    /// matches the probing algorithms.
    Admissible,
}

/// The three strategies for combining per-entry bounds into one bound
/// for a join list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LowerBound {
    /// `LBC_N` (Equation 2): the minimum over *all* entries. Correct but
    /// pessimistic — a single case-1/2 entry zeroes the bound.
    Naive,
    /// `LBC_C` (Equation 3): the minimum over entries with positive
    /// bounds only, justified by Lemma 2 (one positive entry forces a
    /// positive overall cost).
    Conservative,
    /// `LBC_A` (Equation 4): partition the positive entries by their
    /// `(D_D, D_I)` signature, take the maximum inside each partition,
    /// and the minimum across partitions (Lemma 3).
    Aggressive,
}

impl LowerBound {
    /// All strategies, in the order the paper's figures present them.
    pub const ALL: [LowerBound; 3] = [
        LowerBound::Naive,
        LowerBound::Conservative,
        LowerBound::Aggressive,
    ];

    /// The abbreviation used in the paper's figures.
    pub fn abbrev(self) -> &'static str {
        match self {
            LowerBound::Naive => "NLB",
            LowerBound::Conservative => "CLB",
            LowerBound::Aggressive => "ALB",
        }
    }
}

/// Evaluates the per-entry bound for one join-list entry, resolving the
/// entry's corners through the competitor tree.
pub(crate) fn entry_bound<C: CostFunction + ?Sized>(
    e_t_min: &[f64],
    entry: EntryRef,
    p_store: &PointStore,
    p_tree: &RTree,
    cost_fn: &C,
    mode: BoundMode,
) -> EntryLbc {
    let lo = p_tree.entry_lo(p_store, entry);
    let hi = p_tree.entry_hi(p_store, entry);
    match mode {
        BoundMode::Paper => lbc_entry(e_t_min, lo, hi, cost_fn),
        BoundMode::Admissible => {
            // Reuse the paper classification for the signature (the
            // aggressive strategy's grouping key) but replace the cost.
            let mut b = lbc_entry(e_t_min, lo, hi, cost_fn);
            b.cost = lbc_entry_admissible(e_t_min, hi, cost_fn);
            b
        }
    }
}

/// Computes `LBC(e_T, e_T.JL)` with the chosen strategy. An empty join
/// list means no competitor can dominate anything under `e_T`: bound 0.
pub fn list_bound<C: CostFunction + ?Sized>(
    e_t_min: &[f64],
    jl: &[EntryRef],
    p_store: &PointStore,
    p_tree: &RTree,
    cost_fn: &C,
    bound: LowerBound,
    mode: BoundMode,
) -> f64 {
    if jl.is_empty() {
        return 0.0;
    }
    match bound {
        LowerBound::Naive => {
            let mut min = f64::INFINITY;
            for &e in jl {
                let b = entry_bound(e_t_min, e, p_store, p_tree, cost_fn, mode);
                if b.cost < min {
                    min = b.cost;
                    if min == 0.0 {
                        break;
                    }
                }
            }
            min
        }
        LowerBound::Conservative => {
            let mut min_pos = f64::INFINITY;
            for &e in jl {
                let b = entry_bound(e_t_min, e, p_store, p_tree, cost_fn, mode);
                if b.cost > 0.0 && b.cost < min_pos {
                    min_pos = b.cost;
                }
            }
            if min_pos.is_finite() {
                min_pos
            } else {
                0.0
            }
        }
        LowerBound::Aggressive => {
            // In admissible mode a positive entry bound requires *every*
            // dimension disadvantaged ([`lbc_entry_admissible`]), so all
            // positive entries share the all-dims signature and the
            // grouping below degenerates to a single max — which is
            // exactly the sound aggressive bound: the upgrade must
            // escape every fully dominating entry. Take that path
            // without the map: no per-call allocation.
            if mode == BoundMode::Admissible {
                let mut max = 0.0f64;
                for &e in jl {
                    let b = entry_bound(e_t_min, e, p_store, p_tree, cost_fn, mode);
                    if b.cost > max {
                        max = b.cost;
                    }
                }
                return max;
            }
            // Group positive entries by signature; max within a group,
            // min across groups.
            let mut groups: HashMap<(DimMask, DimMask), f64> = HashMap::new();
            for &e in jl {
                let b = entry_bound(e_t_min, e, p_store, p_tree, cost_fn, mode);
                if b.cost > 0.0 {
                    let slot = groups.entry(b.signature).or_insert(0.0);
                    if b.cost > *slot {
                        *slot = b.cost;
                    }
                }
            }
            let min = groups.values().copied().fold(f64::INFINITY, f64::min);
            if min.is_finite() {
                min
            } else {
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SumCost;
    use skyup_geom::PointId;
    use skyup_rtree::RTreeParams;

    /// Builds a tiny P store/tree whose leaf points serve as join-list
    /// entries with exactly the corners we want.
    fn setup(points: &[[f64; 2]]) -> (PointStore, RTree) {
        let store = PointStore::from_rows(2, points.iter().map(|p| p.to_vec()));
        let tree = RTree::bulk_load(&store, RTreeParams::with_max_entries(4));
        (store, tree)
    }

    fn f() -> SumCost {
        SumCost::reciprocal(2, 1e-2)
    }

    #[test]
    fn empty_list_is_zero() {
        let (store, tree) = setup(&[[0.1, 0.1]]);
        assert_eq!(
            list_bound(
                &[0.5, 0.5],
                &[],
                &store,
                &tree,
                &f(),
                LowerBound::Naive,
                BoundMode::Paper
            ),
            0.0
        );
    }

    #[test]
    fn naive_zeroed_by_single_incomparable_entry() {
        let (store, tree) = setup(&[
            [0.1, 0.1], // dominates e_T.min: positive bound
            [0.1, 0.9], // incomparable with (0.5, 0.5): zero bound
        ]);
        let jl = vec![EntryRef::Point(PointId(0)), EntryRef::Point(PointId(1))];
        let t_min = [0.5, 0.5];
        let nlb = list_bound(
            &t_min,
            &jl,
            &store,
            &tree,
            &f(),
            LowerBound::Naive,
            BoundMode::Paper,
        );
        let clb = list_bound(
            &t_min,
            &jl,
            &store,
            &tree,
            &f(),
            LowerBound::Conservative,
            BoundMode::Paper,
        );
        assert_eq!(nlb, 0.0);
        assert!(clb > 0.0, "CLB uses the positive entry (Lemma 2)");
    }

    #[test]
    fn conservative_takes_min_positive() {
        let (store, tree) = setup(&[
            [0.4, 0.4], // close dominator: small bound
            [0.1, 0.1], // far dominator: large bound
        ]);
        let jl = vec![EntryRef::Point(PointId(0)), EntryRef::Point(PointId(1))];
        let t_min = [0.5, 0.5];
        let clb = list_bound(
            &t_min,
            &jl,
            &store,
            &tree,
            &f(),
            LowerBound::Conservative,
            BoundMode::Paper,
        );
        let near = entry_bound(
            &t_min,
            EntryRef::Point(PointId(0)),
            &store,
            &tree,
            &f(),
            BoundMode::Paper,
        )
        .cost;
        let far = entry_bound(
            &t_min,
            EntryRef::Point(PointId(1)),
            &store,
            &tree,
            &f(),
            BoundMode::Paper,
        )
        .cost;
        assert!(near < far);
        assert!((clb - near).abs() < 1e-12);
    }

    #[test]
    fn aggressive_at_least_conservative() {
        // Two entries with the same signature (both dominate on both
        // dims): ALB takes their max, CLB their min.
        let (store, tree) = setup(&[[0.4, 0.4], [0.1, 0.1]]);
        let jl = vec![EntryRef::Point(PointId(0)), EntryRef::Point(PointId(1))];
        let t_min = [0.5, 0.5];
        let clb = list_bound(
            &t_min,
            &jl,
            &store,
            &tree,
            &f(),
            LowerBound::Conservative,
            BoundMode::Paper,
        );
        let alb = list_bound(
            &t_min,
            &jl,
            &store,
            &tree,
            &f(),
            LowerBound::Aggressive,
            BoundMode::Paper,
        );
        assert!(alb >= clb);
        let far = entry_bound(
            &t_min,
            EntryRef::Point(PointId(1)),
            &store,
            &tree,
            &f(),
            BoundMode::Paper,
        )
        .cost;
        assert!((alb - far).abs() < 1e-12, "same signature: ALB = max");
    }

    #[test]
    fn aggressive_min_across_different_signatures() {
        // Entry 0 dominates on dim 0 only (dim 1 incomparable-equal);
        // entry 1 dominates on dim 1 only. Different signatures: ALB is
        // the min of the two (an upgrade can escape via either set).
        let (store, tree) = setup(&[[0.2, 0.5], [0.5, 0.1]]);
        let jl = vec![EntryRef::Point(PointId(0)), EntryRef::Point(PointId(1))];
        let t_min = [0.5, 0.5];
        let b0 = entry_bound(
            &t_min,
            EntryRef::Point(PointId(0)),
            &store,
            &tree,
            &f(),
            BoundMode::Paper,
        )
        .cost;
        let b1 = entry_bound(
            &t_min,
            EntryRef::Point(PointId(1)),
            &store,
            &tree,
            &f(),
            BoundMode::Paper,
        )
        .cost;
        let alb = list_bound(
            &t_min,
            &jl,
            &store,
            &tree,
            &f(),
            LowerBound::Aggressive,
            BoundMode::Paper,
        );
        assert!((alb - b0.min(b1)).abs() < 1e-12);
    }

    #[test]
    fn node_entries_use_mbr_corners() {
        // A multi-point tree: the root node's bound must use its MBR.
        let (store, tree) = setup(&[[0.1, 0.2], [0.3, 0.4], [0.2, 0.1], [0.4, 0.3]]);
        let jl = vec![EntryRef::Node(tree.root_id())];
        let t_min = [0.9, 0.9];
        let got = list_bound(
            &t_min,
            &jl,
            &store,
            &tree,
            &f(),
            LowerBound::Naive,
            BoundMode::Paper,
        );
        let cost_fn = f();
        let expected = cost_fn.product_cost(&[0.4, 0.4]) - cost_fn.product_cost(&[0.9, 0.9]);
        assert!((got - expected).abs() < 1e-12);
    }

    #[test]
    fn all_strategies_ordering_invariant() {
        // NLB <= CLB always; ALB >= CLB always (finer partitions only
        // raise the inner max).
        let (store, tree) = setup(&[[0.2, 0.5], [0.5, 0.1], [0.1, 0.1], [0.45, 0.45]]);
        let jl: Vec<EntryRef> = (0..4).map(|i| EntryRef::Point(PointId(i))).collect();
        let t_min = [0.5, 0.5];
        let nlb = list_bound(
            &t_min,
            &jl,
            &store,
            &tree,
            &f(),
            LowerBound::Naive,
            BoundMode::Paper,
        );
        let clb = list_bound(
            &t_min,
            &jl,
            &store,
            &tree,
            &f(),
            LowerBound::Conservative,
            BoundMode::Paper,
        );
        let alb = list_bound(
            &t_min,
            &jl,
            &store,
            &tree,
            &f(),
            LowerBound::Aggressive,
            BoundMode::Paper,
        );
        assert!(nlb <= clb + 1e-12);
        assert!(clb <= alb + 1e-12);
    }
}

//! The probing algorithms (paper Section III-A).
//!
//! Both probe every product `t ∈ T` in isolation against the competitor
//! R-tree `R_P`, compute the skyline of `t`'s dominators, upgrade `t`
//! with Algorithm 1, and keep the `k` cheapest upgrades.
//!
//! * [`basic_probing_topk`] — Algorithm 2: a plain range query over
//!   `ADR(t)` fetches *all* dominators, then their skyline is computed
//!   in memory. The paper's brute-force baseline.
//! * [`improved_probing_topk`] — replaces the range query + skyline pair
//!   with `getDominatingSky` (Algorithm 3), which prunes R-tree nodes
//!   dominated by already-found skyline points.
//!
//! Neither algorithm is progressive: no result can be reported until all
//! of `T` has been processed (Section IV-B notes this). Both stay as
//! the paper's sequential reference implementations: the figures and
//! the oracles run them.
//!
//! Everything else runs on one executor, [`run_probe_batch`]: it
//! evaluates the flattened product union of many *requests* against
//! one [`SkylineView`] of `P` (the id-sorted skyline, its columnar copy
//! and its per-dimension sorts) with the columnar dominance kernel,
//! work stealing, a cross-request dominator memo, and per-request
//! execution limits. Because a product's dominator skyline is
//! `{s ∈ skyline(P) : s ≺ t}`, paying for the view once answers every
//! product exactly. The `skyup-serve` query path (one view per epoch)
//! and the coordinator's gather call it directly; [`probe_topk`] runs
//! a single top-k query through it as a batch of one request, in
//! fixed-size chunks of `T` over one view.
//!
//! [`probe_topk`], [`try_basic_probing_topk`] and
//! [`try_improved_probing_topk`] are the fallible entry points: they
//! validate their inputs (returning [`crate::SkyupError`] instead of
//! panicking) and run under [`skyup_obs::ExecutionLimits`], degrading
//! to a tagged best-so-far answer ([`crate::AnytimeTopK`]) when a
//! budget fires.

mod basic;
mod batch;
mod improved;
mod probe_topk;

pub use basic::{basic_probing_topk, basic_probing_topk_rec, try_basic_probing_topk};
pub use batch::{run_probe_batch, BatchItem, BatchOutput, ItemAnswer, SkylineView};
pub use improved::{improved_probing_topk, improved_probing_topk_rec, try_improved_probing_topk};
pub use probe_topk::{probe_topk, ProbeOptions};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SumCost;
    use crate::UpgradeConfig;
    use skyup_geom::PointStore;
    use skyup_rtree::{RTree, RTreeParams};

    fn pseudo_random_store(n: usize, dims: usize, lo: f64, hi: f64, seed: u64) -> PointStore {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut s = PointStore::new(dims);
        for _ in 0..n {
            let row: Vec<f64> = (0..dims).map(|_| lo + (hi - lo) * next()).collect();
            s.push(&row);
        }
        s
    }

    #[test]
    fn basic_and_improved_agree() {
        for dims in [2, 3] {
            let p = pseudo_random_store(400, dims, 0.0, 1.0, 0xaa + dims as u64);
            let t = pseudo_random_store(60, dims, 0.5, 1.5, 0xbb + dims as u64);
            let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
            let cost = SumCost::reciprocal(dims, 1e-3);
            let cfg = UpgradeConfig::default();
            let a = basic_probing_topk(&p, &rp, &t, 5, &cost, &cfg);
            let b = improved_probing_topk(&p, &rp, &t, 5, &cost, &cfg);
            assert_eq!(a.len(), 5);
            let ca: Vec<f64> = a.iter().map(|r| r.cost).collect();
            let cb: Vec<f64> = b.iter().map(|r| r.cost).collect();
            for (x, y) in ca.iter().zip(&cb) {
                assert!((x - y).abs() < 1e-9, "cost mismatch: {ca:?} vs {cb:?}");
            }
            // With distinct costs, the chosen products agree too.
            let ia: Vec<u32> = a.iter().map(|r| r.product.0).collect();
            let ib: Vec<u32> = b.iter().map(|r| r.product.0).collect();
            assert_eq!(ia, ib);
        }
    }

    #[test]
    fn k_larger_than_t_returns_everything() {
        let p = pseudo_random_store(100, 2, 0.0, 1.0, 0x1);
        let t = pseudo_random_store(7, 2, 0.5, 1.5, 0x2);
        let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
        let cost = SumCost::reciprocal(2, 1e-3);
        let out = improved_probing_topk(&p, &rp, &t, 50, &cost, &UpgradeConfig::default());
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn results_sorted_by_cost() {
        let p = pseudo_random_store(300, 2, 0.0, 1.0, 0x3);
        let t = pseudo_random_store(40, 2, 0.8, 1.8, 0x4);
        let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
        let cost = SumCost::reciprocal(2, 1e-3);
        let out = basic_probing_topk(&p, &rp, &t, 10, &cost, &UpgradeConfig::default());
        assert!(out.windows(2).all(|w| w[0].cost <= w[1].cost));
    }

    #[test]
    fn already_competitive_products_cost_zero() {
        // T products strictly better than every competitor.
        let p = pseudo_random_store(100, 2, 0.5, 1.0, 0x5);
        let t = pseudo_random_store(5, 2, 0.0, 0.2, 0x6);
        let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(8));
        let cost = SumCost::reciprocal(2, 1e-3);
        let out = improved_probing_topk(&p, &rp, &t, 5, &cost, &UpgradeConfig::default());
        assert!(out.iter().all(|r| r.cost == 0.0 && r.already_competitive()));
    }

    #[test]
    fn empty_competitor_set() {
        let p = PointStore::new(2);
        let t = pseudo_random_store(5, 2, 0.0, 1.0, 0x7);
        let rp = RTree::bulk_load(&p, RTreeParams::default());
        let cost = SumCost::reciprocal(2, 1e-3);
        for algo in [basic_probing_topk, improved_probing_topk] {
            let out = algo(&p, &rp, &t, 3, &cost, &UpgradeConfig::default());
            assert_eq!(out.len(), 3);
            assert!(out.iter().all(|r| r.cost == 0.0));
        }
    }

    #[test]
    fn empty_product_set() {
        let p = pseudo_random_store(50, 2, 0.0, 1.0, 0x8);
        let t = PointStore::new(2);
        let rp = RTree::bulk_load(&p, RTreeParams::default());
        let cost = SumCost::reciprocal(2, 1e-3);
        let out = basic_probing_topk(&p, &rp, &t, 3, &cost, &UpgradeConfig::default());
        assert!(out.is_empty());
    }
}

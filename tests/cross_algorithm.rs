//! Cross-algorithm oracles: the three top-k approaches must agree on
//! upgrade costs across distributions, dimensionalities, and domain
//! layouts (using the admissible bound mode where exact ordering is
//! required; see DESIGN.md §3).

use skyup::core::cost::{AttributeCost, LinearCost, SumCost};
use skyup::core::join::{BoundMode, JoinUpgrader, LowerBound};
use skyup::core::{
    basic_probing_topk, basic_probing_topk_rec, improved_probing_topk, improved_probing_topk_rec,
    probe_topk, single_set_topk, ProbeOptions, UpgradeConfig,
};
use skyup::data::synthetic::{generate, Distribution, SyntheticConfig};
use skyup::geom::PointStore;
use skyup::obs::{Counter, QueryMetrics};
use skyup::rtree::{RTree, RTreeParams};

fn costs(rs: &[skyup::core::UpgradeResult]) -> Vec<f64> {
    rs.iter().map(|r| r.cost).collect()
}

fn assert_costs_eq(a: &[f64], b: &[f64], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((x - y).abs() < 1e-9, "{label}: rank {i}: {x} vs {y}");
    }
}

fn run_case(dist: Distribution, dims: usize, p_lo: f64, p_hi: f64, t_lo: f64, t_hi: f64) {
    let p = generate(
        800,
        &SyntheticConfig {
            dims,
            distribution: dist,
            lo: p_lo,
            hi: p_hi,
            seed: 100 + dims as u64,
        },
    );
    let t = generate(
        150,
        &SyntheticConfig {
            dims,
            distribution: dist,
            lo: t_lo,
            hi: t_hi,
            seed: 200 + dims as u64,
        },
    );
    let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(16));
    let rt = RTree::bulk_load(&t, RTreeParams::with_max_entries(16));
    let cost_fn = SumCost::reciprocal(dims, 1e-2);
    let cfg = UpgradeConfig::default();
    let k = 12;

    let basic = basic_probing_topk(&p, &rp, &t, k, &cost_fn, &cfg);
    let improved = improved_probing_topk(&p, &rp, &t, k, &cost_fn, &cfg);
    assert_costs_eq(
        &costs(&basic),
        &costs(&improved),
        &format!("{dist:?} d={dims} basic vs improved"),
    );
    // Identical tie-breaking: same products chosen, not just same costs.
    let ids_basic: Vec<_> = basic.iter().map(|r| r.product).collect();
    let ids_improved: Vec<_> = improved.iter().map(|r| r.product).collect();
    assert_eq!(ids_basic, ids_improved);

    for bound in LowerBound::ALL {
        let join: Vec<_> = JoinUpgrader::new(&p, &rp, &t, &rt, &cost_fn, cfg, bound)
            .with_bound_mode(BoundMode::Admissible)
            .take(k)
            .collect();
        assert_costs_eq(
            &costs(&join),
            &costs(&improved),
            &format!("{dist:?} d={dims} join-{bound:?} vs probing"),
        );
    }
}

#[test]
fn agreement_on_paper_domains() {
    for dist in [
        Distribution::Independent,
        Distribution::AntiCorrelated,
        Distribution::Correlated,
    ] {
        for dims in [2, 4] {
            run_case(dist, dims, 0.0, 1.0, 1.0001, 2.0);
        }
    }
}

#[test]
fn agreement_on_interleaved_domains() {
    for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
        for dims in [2, 3] {
            run_case(dist, dims, 0.0, 1.0, 0.3, 1.3);
        }
    }
}

/// The counters must tell the same story as the paper's Figure 2 and
/// Section V: improved probing reads strictly fewer R-tree entries than
/// basic probing (that is the whole point of `getDominatingSky`), while
/// the four probing variants return identical top-k answers and agree
/// on the workload-shape counters.
#[test]
fn counter_consistency_across_algorithms() {
    let p = generate(
        1200,
        &SyntheticConfig::unit(3, Distribution::AntiCorrelated, 31),
    );
    let t = generate(
        180,
        &SyntheticConfig {
            dims: 3,
            distribution: Distribution::Independent,
            lo: 0.4,
            hi: 1.4,
            seed: 32,
        },
    );
    let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(16));
    let cost_fn = SumCost::reciprocal(3, 1e-2);
    let cfg = UpgradeConfig::default();
    let k = 10;

    let mut mb = QueryMetrics::new();
    let basic = basic_probing_topk_rec(&p, &rp, &t, k, &cost_fn, &cfg, &mut mb);
    let mut mi = QueryMetrics::new();
    let improved = improved_probing_topk_rec(&p, &rp, &t, k, &cost_fn, &cfg, &mut mi);
    let mut me = QueryMetrics::new();
    let opts = ProbeOptions {
        threads: 4,
        ..ProbeOptions::default()
    };
    let executor = probe_topk(&p, &t, k, &cost_fn, &cfg, &opts, &mut me)
        .unwrap()
        .results;

    // All three algorithms produce the identical top-k plan.
    for (label, other) in [("improved", &improved), ("executor", &executor)] {
        assert_eq!(basic.len(), other.len(), "{label}");
        for (a, b) in basic.iter().zip(other.iter()) {
            assert_eq!(a.product, b.product, "{label}");
            assert!((a.cost - b.cost).abs() < 1e-9, "{label}");
            assert_eq!(a.upgraded, b.upgraded, "{label}");
        }
    }

    // getDominatingSky's node pruning must beat the ADR range scan.
    assert!(
        mi.get(Counter::RtreeEntryAccesses) < mb.get(Counter::RtreeEntryAccesses),
        "improved probing should access strictly fewer R-tree entries: {} vs {}",
        mi.get(Counter::RtreeEntryAccesses),
        mb.get(Counter::RtreeEntryAccesses),
    );
    assert!(mi.get(Counter::RtreeNodeAccesses) < mb.get(Counter::RtreeNodeAccesses));
    // (Dominance tests are NOT asserted: the constrained BBS re-checks
    // heap entries against the growing skyline, so it can run more
    // point-level tests even while touching far fewer R-tree entries.)

    // Workload-shape counters agree everywhere they are comparable.
    for m in [&mb, &mi, &me] {
        assert_eq!(m.get(Counter::ProductsEvaluated), t.len() as u64);
        assert_eq!(m.get(Counter::ResultsEmitted), k as u64);
    }
    // Both skyline strategies retain the same dominator skylines.
    assert_eq!(
        mb.get(Counter::SkylinePointsRetained),
        mi.get(Counter::SkylinePointsRetained)
    );
    // The executor never touches an R-tree.
    assert_eq!(me.get(Counter::RtreeNodeAccesses), 0);
}

/// The probe executor's counter contract for a top-k query: at every
/// thread count each product is claimed and evaluated exactly once,
/// the merged counters are identical, the kernel's block accounting is
/// exact, and the answer is bit-identical to sequential improved
/// probing.
#[test]
fn probe_topk_counter_contract() {
    use skyup::geom::DOM_BLOCK;
    use skyup::skyline::skyline_sfs_rec;

    let p = generate(
        800,
        &SyntheticConfig::unit(3, Distribution::Independent, 41),
    );
    let t = generate(
        150,
        &SyntheticConfig {
            dims: 3,
            distribution: Distribution::Independent,
            lo: 0.3,
            hi: 1.3,
            seed: 42,
        },
    );
    let rp = RTree::bulk_load(&p, RTreeParams::with_max_entries(16));
    let cost_fn = SumCost::new(
        (0..3)
            .map(|_| Box::new(LinearCost::new(2.0, 1.0)) as Box<dyn AttributeCost>)
            .collect(),
    );
    let cfg = UpgradeConfig::default();
    let k = 8;
    let seq = improved_probing_topk(&p, &rp, &t, k, &cost_fn, &cfg);
    // The executor's skyline pass runs the kernel too; its blocks are
    // deterministic, so measure them apart and subtract them below.
    let ids: Vec<_> = p.ids().collect();
    let mut ms = QueryMetrics::new();
    let sky_blocks = skyline_sfs_rec(&p, &ids, &mut ms).len().div_ceil(DOM_BLOCK) as u64;
    let sfs_blocks = ms.get(Counter::KernelBlockScans) + ms.get(Counter::KernelBlocksSkipped);

    let mut baseline: Option<Vec<u64>> = None;
    for threads in [1, 2, 4, 8] {
        let mut m = QueryMetrics::new();
        let opts = ProbeOptions {
            threads,
            ..ProbeOptions::default()
        };
        let out = probe_topk(&p, &t, k, &cost_fn, &cfg, &opts, &mut m).unwrap();
        assert!(out.completion.is_exact());
        assert_eq!(seq.len(), out.results.len(), "threads={threads}");
        for (a, b) in seq.iter().zip(&out.results) {
            assert_eq!(a.product, b.product, "threads={threads}");
            assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "threads={threads}");
            assert_eq!(a.upgraded, b.upgraded, "threads={threads}");
        }
        assert_eq!(out.evaluated, t.len());
        assert_eq!(m.get(Counter::StealEvents), t.len() as u64);
        assert_eq!(m.get(Counter::ProductsEvaluated), t.len() as u64);
        let full_scans = t.len() as u64 - m.get(Counter::DominatorMemoHits);
        assert_eq!(
            m.get(Counter::KernelBlockScans) + m.get(Counter::KernelBlocksSkipped),
            sfs_blocks + full_scans * sky_blocks,
            "threads={threads}: kernel blocks lost or double-counted"
        );
        let snap: Vec<u64> = Counter::ALL.iter().map(|&c| m.get(c)).collect();
        match &baseline {
            None => baseline = Some(snap),
            Some(b) => assert_eq!(b, &snap, "counters differ at threads={threads}"),
        }
    }
}

/// Zone-map accounting composes with batching and work stealing: every
/// item answered by a full skyline scan covers the shared skyline's
/// block count exactly once — as scanned plus skipped, never lost or
/// double-counted — at every thread count. Memo-hit items run no kernel
/// scan, so `KernelBlockScans + KernelBlocksSkipped` is an exact
/// function of the full-scan count even though *which* items the memo
/// answers is timing-dependent above one thread.
#[test]
fn batch_kernel_block_conservation() {
    use skyup::core::{run_probe_batch, BatchItem, SkylineView};
    use skyup::geom::DOM_BLOCK;
    use skyup::obs::ExecutionLimits;
    use skyup::skyline::skyline_bnl;

    let p = generate(
        900,
        &SyntheticConfig::unit(3, Distribution::AntiCorrelated, 51),
    );
    let t = generate(
        120,
        &SyntheticConfig {
            dims: 3,
            distribution: Distribution::Independent,
            lo: 0.4,
            hi: 1.4,
            seed: 52,
        },
    );
    let ids: Vec<_> = p.ids().collect();
    let mut sky = skyline_bnl(&p, &ids);
    sky.sort(); // a skyline view requires an id-sorted skyline
    let sky_blocks = sky.len().div_ceil(DOM_BLOCK) as u64;
    let view = SkylineView::new(&p, sky.clone());
    let cost_fn = SumCost::reciprocal(3, 1e-2);
    let cfg = UpgradeConfig::default();
    let items: Vec<BatchItem> = t
        .iter()
        .map(|(id, c)| BatchItem {
            request: 0,
            index: id.0,
            coords: c,
        })
        .collect();

    for threads in [1, 2, 4] {
        let guards = vec![ExecutionLimits::default().start()];
        let mut m = QueryMetrics::new();
        let out = run_probe_batch(
            &p,
            &view,
            &items,
            std::slice::from_ref(&cost_fn),
            &guards,
            &cfg,
            threads,
            &mut m,
        )
        .expect("batch executes");
        assert!(out.outcomes.iter().all(|o| o.is_some()), "no cuts expected");
        let full_scans = items.len() as u64 - out.memo_hits;
        assert_eq!(
            m.get(Counter::KernelBlockScans) + m.get(Counter::KernelBlocksSkipped),
            full_scans * sky_blocks,
            "threads={threads}: kernel blocks lost or double-counted"
        );
        // Every full scan is a collect pass over the gathered skyline,
        // so the points the kernel compared can never exceed one
        // skyline sweep per scan.
        assert!(m.get(Counter::DominanceTests) <= items.len() as u64 * sky.len() as u64);
    }
}

#[test]
fn single_set_agrees_with_probing_against_self() {
    // Splitting a catalog into {t} vs rest, probing each singleton,
    // must equal the single-set sweep.
    let store = generate(
        300,
        &SyntheticConfig::unit(3, Distribution::Independent, 77),
    );
    let tree = RTree::bulk_load(&store, RTreeParams::with_max_entries(16));
    let cost_fn = SumCost::reciprocal(3, 1e-2);
    let cfg = UpgradeConfig::default();

    let sweep = single_set_topk(&store, &tree, None, 300, &cost_fn, &cfg);
    assert_eq!(sweep.len(), 300);

    // Reference: per-product dominator skyline via scan + Algorithm 1.
    use skyup::core::upgrade_single;
    use skyup::geom::dominance::dominates;
    use skyup::skyline::skyline_naive;
    for r in sweep.iter().take(40) {
        let t = store.point(r.product);
        let dominators: Vec<_> = store
            .iter()
            .filter(|(id, c)| *id != r.product && dominates(c, t))
            .map(|(id, _)| id)
            .collect();
        let sky = skyline_naive(&store, &dominators);
        let (cost, _) = upgrade_single(&store, &sky, t, &cost_fn, &cfg);
        assert!((cost - r.cost).abs() < 1e-9, "product {:?}", r.product);
    }
}

#[test]
fn extreme_k_values() {
    let p = generate(400, &SyntheticConfig::unit(2, Distribution::Independent, 5));
    let t = generate(
        50,
        &SyntheticConfig {
            dims: 2,
            distribution: Distribution::Independent,
            lo: 1.0,
            hi: 2.0,
            seed: 6,
        },
    );
    let rp = RTree::bulk_load(&p, RTreeParams::default());
    let rt = RTree::bulk_load(&t, RTreeParams::default());
    let cost_fn = SumCost::reciprocal(2, 1e-2);
    let cfg = UpgradeConfig::default();

    // k = 1.
    let one = improved_probing_topk(&p, &rp, &t, 1, &cost_fn, &cfg);
    assert_eq!(one.len(), 1);
    // k > |T|: everything returned, still sorted.
    let all = improved_probing_topk(&p, &rp, &t, 1000, &cost_fn, &cfg);
    assert_eq!(all.len(), 50);
    assert!(all.windows(2).all(|w| w[0].cost <= w[1].cost));
    assert!((one[0].cost - all[0].cost).abs() < 1e-12);
    // Join agrees on the full ranking.
    let join: Vec<_> = JoinUpgrader::new(&p, &rp, &t, &rt, &cost_fn, cfg, LowerBound::Conservative)
        .with_bound_mode(BoundMode::Admissible)
        .collect();
    assert_eq!(join.len(), 50);
    for (a, b) in join.iter().zip(&all) {
        assert!((a.cost - b.cost).abs() < 1e-9);
    }
}

#[test]
fn one_dimensional_space() {
    // Degenerate but legal: upgrades must undercut the global minimum.
    let p = PointStore::from_rows(1, vec![vec![0.5], vec![0.3], vec![0.9]]);
    let t = PointStore::from_rows(1, vec![vec![0.7], vec![0.95]]);
    let rp = RTree::bulk_load(&p, RTreeParams::default());
    let cost_fn = SumCost::reciprocal(1, 1e-2);
    let cfg = UpgradeConfig::with_epsilon(1e-3);
    let out = improved_probing_topk(&p, &rp, &t, 2, &cost_fn, &cfg);
    assert_eq!(out.len(), 2);
    for r in &out {
        assert!(r.upgraded[0] < 0.3, "must beat the best competitor");
    }
    // The closer product is cheaper to upgrade.
    assert_eq!(out[0].product, skyup::geom::PointId(0));
}

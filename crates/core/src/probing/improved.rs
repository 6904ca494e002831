//! The improved probing algorithm: Algorithm 2 with lines 3–4 replaced by
//! `getDominatingSky` (Algorithm 3).

use crate::config::UpgradeConfig;
use crate::cost::CostFunction;
use crate::error::{validate_query, SkyupError};
use crate::result::{AnytimeTopK, UpgradeResult};
use crate::topk::TopK;
use crate::upgrade::upgrade_single;
use skyup_geom::PointStore;
use skyup_obs::{timed, Completion, Counter, ExecutionLimits, NullRecorder, Phase, Recorder};
use skyup_rtree::RTree;
use skyup_skyline::{dominating_skyline_lim, dominating_skyline_rec};

/// Runs the improved probing algorithm: for every `t ∈ T`, the skyline
/// of `t`'s dominators is computed directly by a constrained BBS
/// traversal of `R_P` — R-tree nodes whose minimum corner is dominated
/// by an already-found skyline point are pruned without being read
/// (paper Figure 2) — then `t` is upgraded with Algorithm 1. Returns the
/// `k` cheapest upgrades sorted by `(cost, product id)`.
pub fn improved_probing_topk<C: CostFunction + ?Sized>(
    p_store: &PointStore,
    p_tree: &RTree,
    t_store: &PointStore,
    k: usize,
    cost_fn: &C,
    cfg: &UpgradeConfig,
) -> Vec<UpgradeResult> {
    improved_probing_topk_rec(p_store, p_tree, t_store, k, cost_fn, cfg, &mut NullRecorder)
}

/// [`improved_probing_topk`] with instrumentation: times the probe loop
/// and its `getDominatingSky` / upgrade phases, counts R-tree accesses,
/// dominance tests, and products evaluated.
#[allow(clippy::too_many_arguments)]
pub fn improved_probing_topk_rec<C: CostFunction + ?Sized, R: Recorder + ?Sized>(
    p_store: &PointStore,
    p_tree: &RTree,
    t_store: &PointStore,
    k: usize,
    cost_fn: &C,
    cfg: &UpgradeConfig,
    rec: &mut R,
) -> Vec<UpgradeResult> {
    assert_eq!(
        p_store.dims(),
        t_store.dims(),
        "P and T dimensionality differ"
    );
    if t_store.is_empty() {
        return Vec::new();
    }
    let mut topk = TopK::new(k);
    timed(rec, Phase::ProbeLoop, |rec| {
        for (tid, t) in t_store.iter() {
            let skyline = timed(rec, Phase::DominatingSky, |rec| {
                dominating_skyline_rec(p_store, p_tree, t, rec)
            });
            let (cost, upgraded) = timed(rec, Phase::Upgrade, |_| {
                upgrade_single(p_store, &skyline, t, cost_fn, cfg)
            });
            rec.bump(Counter::ProductsEvaluated);
            topk.offer(UpgradeResult {
                product: tid,
                original: t.to_vec(),
                upgraded,
                cost,
            });
        }
    });
    let results = topk.into_sorted();
    rec.incr(Counter::ResultsEmitted, results.len() as u64);
    results
}

/// Fallible, guarded improved probing: input validation as in
/// [`crate::probing::try_basic_probing_topk`], then the probe loop runs
/// under `limits` with every `getDominatingSky` traversal charged to
/// the guard. On interruption the exact top-k over the fully evaluated
/// prefix of `T` comes back tagged [`Completion::Partial`]; unlimited
/// runs are bit-identical to [`improved_probing_topk_rec`].
#[allow(clippy::too_many_arguments)]
pub fn try_improved_probing_topk<C: CostFunction + ?Sized, R: Recorder + ?Sized>(
    p_store: &PointStore,
    p_tree: &RTree,
    t_store: &PointStore,
    k: usize,
    cost_fn: &C,
    cfg: &UpgradeConfig,
    limits: &ExecutionLimits,
    rec: &mut R,
) -> Result<AnytimeTopK, SkyupError> {
    validate_query(p_store, p_tree, t_store, k, cost_fn)?;
    let mut guard = limits.start();
    let mut topk = TopK::new(k);
    let mut completion = Completion::Exact;
    let mut evaluated = 0usize;

    timed(rec, Phase::ProbeLoop, |rec| {
        for (tid, t) in t_store.iter() {
            if let Err(i) = guard.checkpoint() {
                completion = Completion::Partial(i);
                break;
            }
            let sky_res = timed(rec, Phase::DominatingSky, |rec| {
                dominating_skyline_lim(p_store, p_tree, t, rec, &mut guard)
            });
            let skyline = match sky_res {
                Ok(s) => s,
                Err(i) => {
                    completion = Completion::Partial(i);
                    break;
                }
            };
            let (cost, upgraded) = timed(rec, Phase::Upgrade, |_| {
                upgrade_single(p_store, &skyline, t, cost_fn, cfg)
            });
            rec.bump(Counter::ProductsEvaluated);
            evaluated += 1;
            topk.offer(UpgradeResult {
                product: tid,
                original: t.to_vec(),
                upgraded,
                cost,
            });
        }
    });

    let results = topk.into_sorted();
    rec.incr(Counter::ResultsEmitted, results.len() as u64);
    rec.incr(Counter::GuardedNodeVisits, guard.node_visits());
    if !completion.is_exact() {
        rec.bump(Counter::LimitInterrupts);
    }
    Ok(AnytimeTopK {
        results,
        completion,
        evaluated,
    })
}

//! The fallible top-k entry point over the probe executor.
//!
//! A single query is a batch of one request: the id-sorted skyline of
//! `P` and its [`SkylineView`] are built once, `T` is fed through
//! [`run_probe_batch`] in fixed-size chunks, and every chunk's answers
//! are folded into a [`TopK`] in `(cost, product id)` order and dropped
//! before the next chunk runs. Each product's dominator skyline is
//! `{s ∈ skyline(P) : s ≺ t}` ([`crate::dominators_from_skyline`]), so
//! the answer is bit-identical to the sequential
//! [`crate::improved_probing_topk`] at any thread count — without an
//! R-tree over `P`.
//!
//! Limits follow the serving layer's accounting: each product is
//! charged one [`ExecGuard::visit_node`](skyup_obs::ExecGuard::visit_node)
//! at admission, a deadline or cancellation cuts at claim time, and a
//! cut query returns the exact top-k over the evaluated prefix of `T`
//! ([`crate::BatchOutput::first_cut`]), tagged [`Completion::Partial`].

use crate::config::UpgradeConfig;
use crate::cost::CostFunction;
use crate::error::{validate_inputs, SkyupError};
use crate::probing::{run_probe_batch, BatchItem, SkylineView};
use crate::result::{AnytimeTopK, UpgradeResult};
use crate::topk::TopK;
use skyup_geom::{PointId, PointStore};
use skyup_obs::{timed, Completion, Counter, ExecutionLimits, Phase, Recorder};
use skyup_skyline::skyline_sfs_rec;

/// Products handed to [`run_probe_batch`] per call. A chunk's answers
/// (their upgraded coordinates) are folded and dropped
/// before the next chunk runs, so the memory held for answers is
/// bounded by this constant rather than by `|T|`.
const CHUNK: usize = 4096;

/// How [`probe_topk`] runs: executor width and execution limits.
#[derive(Clone, Debug)]
pub struct ProbeOptions {
    /// Worker threads of the executor (at least 1; capped at the
    /// host's available parallelism).
    pub threads: usize,
    /// Deadline, node-visit budget (one visit per product), and
    /// cancellation for the whole query.
    pub limits: ExecutionLimits,
}

impl Default for ProbeOptions {
    /// One thread, no limits.
    fn default() -> Self {
        ProbeOptions {
            threads: 1,
            limits: ExecutionLimits::none(),
        }
    }
}

impl ProbeOptions {
    /// Rejects `threads == 0` as [`SkyupError::InvalidConfig`].
    pub fn validate(&self) -> Result<(), SkyupError> {
        if self.threads == 0 {
            return Err(SkyupError::InvalidConfig(
                "need at least one worker thread".into(),
            ));
        }
        Ok(())
    }
}

/// Returns the `k` cheapest upgrades of `T` against `P`, sorted by
/// `(cost, product id)` (see the module docs for the execution model
/// and the limits contract).
///
/// Validates the inputs (dimensionalities, `k >= 1`, cost-function
/// monotonicity on sampled data, `threads >= 1`). An empty `P` is
/// valid: every product is already competitive at cost 0. A worker
/// panic is contained and returned as [`SkyupError::WorkerPanicked`].
pub fn probe_topk<C, R>(
    p_store: &PointStore,
    t_store: &PointStore,
    k: usize,
    cost_fn: &C,
    cfg: &UpgradeConfig,
    opts: &ProbeOptions,
    rec: &mut R,
) -> Result<AnytimeTopK, SkyupError>
where
    C: CostFunction + Sync + ?Sized,
    R: Recorder + ?Sized,
{
    opts.validate()?;
    validate_inputs(p_store, t_store, k, cost_fn)?;
    let view = timed(rec, Phase::DominatingSky, |rec| {
        let all: Vec<PointId> = p_store.ids().collect();
        let mut sky = skyline_sfs_rec(p_store, &all, rec);
        sky.sort_unstable();
        SkylineView::new(p_store, sky)
    });

    let mut guard = opts.limits.start();
    let mut topk = TopK::new(k);
    let mut completion = Completion::Exact;
    let mut evaluated = 0usize;
    let mut items: Vec<BatchItem<'_>> = Vec::with_capacity(CHUNK.min(t_store.len()));
    let n = t_store.len() as u32;
    let mut next = 0u32;
    while completion.is_exact() && next < n {
        items.clear();
        let end = n.min(next + CHUNK as u32);
        for index in next..end {
            if let Err(i) = guard.visit_node() {
                completion = Completion::Partial(i);
                break;
            }
            items.push(BatchItem {
                request: 0,
                index,
                coords: t_store.point(PointId(index)),
            });
        }
        next = end;
        let out = run_probe_batch(
            p_store,
            &view,
            &items,
            &[cost_fn],
            std::slice::from_ref(&guard),
            cfg,
            opts.threads,
            rec,
        )?;
        let cut = out.first_cut(&items, 0);
        for (item, answer) in items.iter().zip(out.outcomes) {
            if cut.is_some_and(|c| item.index >= c) {
                break;
            }
            let answer = answer.expect("items before the first cut are evaluated");
            evaluated += 1;
            if topk.admits(answer.cost, item.index) {
                topk.offer(UpgradeResult {
                    product: PointId(item.index),
                    original: item.coords.to_vec(),
                    upgraded: answer.upgraded,
                    cost: answer.cost,
                });
            }
        }
        if cut.is_some() {
            let i = guard.interrupted().expect("a cut implies a tripped guard");
            completion = Completion::Partial(i);
        }
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SumCost;

    #[test]
    fn zero_threads_is_an_invalid_config() {
        let p = PointStore::from_rows(2, vec![[0.2, 0.8], [0.5, 0.5]]);
        let t = PointStore::from_rows(2, vec![[0.9, 0.9]]);
        let opts = ProbeOptions {
            threads: 0,
            ..ProbeOptions::default()
        };
        assert!(matches!(opts.validate(), Err(SkyupError::InvalidConfig(_))));
        let cost = SumCost::reciprocal(2, 1e-3);
        let err = probe_topk(
            &p,
            &t,
            1,
            &cost,
            &UpgradeConfig::default(),
            &opts,
            &mut skyup_obs::NullRecorder,
        )
        .unwrap_err();
        assert!(matches!(err, SkyupError::InvalidConfig(_)));
        assert!(ProbeOptions::default().validate().is_ok());
    }
}

//! The query path: a batch of requests answered together against one
//! pinned snapshot. Every served query runs here — a pool worker hands
//! over the backlog it drained (one request when the server is idle),
//! and [`crate::execute_query`] is a batch of one. Misses are evaluated
//! through [`skyup_core::run_probe_batch`] over the snapshot's
//! [`skyup_core::SkylineView`] (built once per epoch): columnar
//! dominance kernels, work stealing across `threads` workers, and a
//! cross-request dominator memo.
//!
//! # How per-request semantics survive batching
//!
//! * **Assembly** (timed as [`Phase::BatchAssemble`]) walks each
//!   request's products in index order and charges
//!   [`ExecGuard::visit_node`](skyup_obs::ExecGuard::visit_node) per
//!   product, hit or miss, so a `max_products` budget sheds at the same
//!   index whatever the cache holds and whoever shares the batch. Cache
//!   lookups for the whole batch happen under one shared-lock
//!   acquisition, so every request in it sees the same published epoch.
//! * **Execution** honors each request's remaining limits through
//!   per-worker guard forks; a deadline or cancellation cuts only the
//!   owning request's items.
//! * **Merge** truncates each request at its first cut index: the
//!   reported `evaluated` prefix is fully computed, and each retained
//!   answer is bit-identical to a sequential
//!   [`Snapshot::answer`](crate::Snapshot::answer) for the same
//!   `(product, epoch, cost)` — both filter the same id-sorted skyline
//!   and run the same Algorithm 1 — so clients cannot tell *how* their
//!   answer was scheduled, or with whom.
//!
//! Every computed answer (even one past a cut, already paid for) is
//! offered to the result cache under the epoch gate, so a batch warms
//! the cache for its successors.

use crate::cache::CacheKey;
use crate::engine::Engine;
use crate::server::{validate_request, ProductAnswer, QueryRequest, QueryResponse};
use crate::snapshot::Answer;
use skyup_core::{run_probe_batch, BatchItem, BatchOutput, SkyupError, UpgradeConfig};
use skyup_obs::{
    clocked, timed, Completion, Counter, ExecutionLimits, Interrupt, Phase, QueryMetrics, Recorder,
};

/// Per-request telemetry attribution from one batch execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchRequestStats {
    /// Products of this request answered from the result cache.
    pub cache_hits: u64,
    /// Products of this request that missed the cache and entered the
    /// shared work list.
    pub cache_misses: u64,
    /// This request's items answered via the cross-request dominator
    /// memo instead of a full skyline scan.
    pub memo_hits: u64,
}

/// Batch-level telemetry from one [`execute_batch_stats`] run.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Attribution per input request, parallel to the request slice
    /// (invalid requests keep zeroed stats).
    pub per_request: Vec<BatchRequestStats>,
    /// Wall-clock spent assembling the batch (budget charges + cache
    /// lookups), shared by every request in the window.
    pub assemble_nanos: u64,
    /// Wall-clock spent in [`run_probe_batch`], shared by every request
    /// in the window.
    pub exec_nanos: u64,
    /// Dominance-kernel blocks actually scanned while executing the
    /// batch (the whole window shares one kernel, so this is batch-wide,
    /// not per request).
    pub kernel_blocks_scanned: u64,
    /// Dominance-kernel blocks the per-block zone maps skipped without
    /// scanning. `kernel_blocks_scanned + kernel_blocks_skipped` equals
    /// the total blocks every full scan covered.
    pub kernel_blocks_skipped: u64,
    /// Point-vs-point dominance tests the batch ran (batch-wide, like
    /// the kernel block counts).
    pub dominance_tests: u64,
}

/// Executes a window of queries as one batch against one pinned
/// snapshot, returning one result per request in input order. Public so
/// the bench harness and the property suite can drive the exact code
/// path the server's workers run.
///
/// Requests are validated individually: an invalid request gets its own
/// `Err` slot and the rest of the batch still executes.
pub fn execute_batch(
    engine: &Engine,
    reqs: &[QueryRequest],
    threads: usize,
) -> Vec<Result<QueryResponse, SkyupError>> {
    execute_batch_stats(engine, reqs, threads).0
}

/// [`execute_batch`] plus the per-request telemetry attribution the
/// workers turn into traces. The answers are byte-for-byte the
/// same; the stats are derived from accounting the batch already does.
pub fn execute_batch_stats(
    engine: &Engine,
    reqs: &[QueryRequest],
    threads: usize,
) -> (Vec<Result<QueryResponse, SkyupError>>, BatchStats) {
    let snap = engine.snapshot();
    let dims = snap.dims();
    let mut stats = BatchStats {
        per_request: vec![BatchRequestStats::default(); reqs.len()],
        ..BatchStats::default()
    };
    let mut results: Vec<Option<Result<QueryResponse, SkyupError>>> =
        reqs.iter().map(|_| None).collect();
    // Dense index of the requests that passed validation.
    let mut valid: Vec<usize> = Vec::with_capacity(reqs.len());
    for (slot, req) in reqs.iter().enumerate() {
        match validate_request(req, dims) {
            Ok(()) => valid.push(slot),
            Err(e) => results[slot] = Some(Err(e)),
        }
    }
    if valid.is_empty() {
        return (results.into_iter().map(|r| r.unwrap()).collect(), stats);
    }

    let mut rec = QueryMetrics::new();
    rec.bump(Counter::BatchesExecuted);
    rec.incr(Counter::BatchedRequests, valid.len() as u64);

    // Per valid request: its started guard, assembly outcome, cache
    // hits, and the range of `items` holding its misses.
    let mut guards = Vec::with_capacity(valid.len());
    // Products charged (and therefore assembled) before the request's
    // budget fired during assembly, per valid request.
    let mut assembled: Vec<usize> = Vec::with_capacity(valid.len());
    // Answers served from the cache.
    let mut hits: Vec<Vec<ProductAnswer>> = Vec::with_capacity(valid.len());
    let mut ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(valid.len());
    // The flattened misses, request-major and index-ascending — the
    // claim order `run_probe_batch` relies on for prefix-exact cuts.
    let mut items: Vec<BatchItem<'_>> = Vec::new();

    timed(&mut rec, Phase::BatchAssemble, |rec| {
        for &slot in &valid {
            let req = &reqs[slot];
            let mut limits = ExecutionLimits::default();
            if let Some(n) = req.max_products {
                limits = limits.with_max_node_visits(n);
            }
            if let Some(d) = req.deadline {
                limits = limits.with_deadline(d);
            }
            guards.push(limits.start());
        }
        engine.with_cache(|cache, current_epoch| {
            let cache_live = current_epoch == snap.epoch();
            for (dense, &slot) in valid.iter().enumerate() {
                let req = &reqs[slot];
                let tag = req.cost.tag();
                let mut my_hits = Vec::new();
                let mut charged = 0usize;
                let first_item = items.len();
                for (index, t) in req.products.iter().enumerate() {
                    // One unit per product, hit or miss.
                    if guards[dense].visit_node().is_err() {
                        break;
                    }
                    charged = index + 1;
                    let cached = if cache_live {
                        cache.get(&CacheKey::new(t, tag))
                    } else {
                        None
                    };
                    match cached {
                        Some(a) => {
                            rec.bump(Counter::CacheHit);
                            stats.per_request[slot].cache_hits += 1;
                            my_hits.push(ProductAnswer {
                                index,
                                cost: a.cost,
                                upgraded: a.upgraded.clone(),
                            });
                        }
                        None => {
                            rec.bump(Counter::CacheMiss);
                            stats.per_request[slot].cache_misses += 1;
                            items.push(BatchItem {
                                request: dense as u32,
                                index: index as u32,
                                coords: t,
                            });
                        }
                    }
                }
                assembled.push(charged);
                hits.push(my_hits);
                ranges.push(first_item..items.len());
            }
        });
    });

    stats.assemble_nanos = rec.phase_nanos(Phase::BatchAssemble);

    let out = if items.is_empty() {
        // All hits: nothing to compute, so neither the cost functions
        // nor the epoch's skyline view are needed.
        BatchOutput {
            outcomes: Vec::new(),
            memo_hits: 0,
        }
    } else {
        let cost_fns: Vec<_> = valid
            .iter()
            .map(|&slot| reqs[slot].cost.cost_fn(dims))
            .collect();
        let (exec_nanos, ran) = clocked(|| {
            run_probe_batch(
                snap.store(),
                snap.view(),
                &items,
                &cost_fns,
                &guards,
                &UpgradeConfig::default(),
                threads,
                &mut rec,
            )
        });
        stats.exec_nanos = exec_nanos;
        stats.kernel_blocks_scanned = rec.get(Counter::KernelBlockScans);
        stats.kernel_blocks_skipped = rec.get(Counter::KernelBlocksSkipped);
        stats.dominance_tests = rec.get(Counter::DominanceTests);
        match ran {
            Ok(out) => out,
            Err(e) => {
                engine.absorb_metrics(&rec);
                for &slot in &valid {
                    results[slot] = Some(Err(match &e {
                        SkyupError::WorkerPanicked { worker, message } => {
                            SkyupError::WorkerPanicked {
                                worker: *worker,
                                message: message.clone(),
                            }
                        }
                        SkyupError::InvalidInput(m) => SkyupError::InvalidInput(m.clone()),
                        other => {
                            SkyupError::InvalidInput(format!("batch execution failed: {other}"))
                        }
                    }));
                }
                return (results.into_iter().map(|r| r.unwrap()).collect(), stats);
            }
        }
    };

    // Merge, one pass over each request's own items: truncate at the
    // first execution-time cut so the reported prefix is complete, then
    // sort by (cost, index) and keep the top k.
    for (dense, &slot) in valid.iter().enumerate() {
        let req = &reqs[slot];
        let range = ranges[dense].clone();
        let mine = &items[range.clone()];
        let outcomes = &out.outcomes[range];
        // Items are index-ascending, so the first cut by position is
        // the lowest cut index.
        let first_cut = mine
            .iter()
            .zip(outcomes)
            .find(|(_, o)| o.is_none())
            .map(|(item, _)| item.index as usize);
        let evaluated = first_cut.map_or(assembled[dense], |i| i.min(assembled[dense]));
        let mut answers = std::mem::take(&mut hits[dense]);
        answers.retain(|a| a.index < evaluated);
        for (item, outcome) in mine.iter().zip(outcomes) {
            if let Some(a) = outcome {
                stats.per_request[slot].memo_hits += u64::from(a.memo_hit);
                if (item.index as usize) < evaluated {
                    answers.push(ProductAnswer {
                        index: item.index as usize,
                        cost: a.cost,
                        upgraded: a.upgraded.clone(),
                    });
                }
            }
        }
        answers.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.index.cmp(&b.index)));
        answers.truncate(req.k);
        rec.incr(Counter::ResultsEmitted, answers.len() as u64);
        let completion = if evaluated == req.products.len() {
            Completion::Exact
        } else {
            rec.bump(Counter::LimitInterrupts);
            // A short prefix implies the guard tripped (assembly charge
            // or execution checkpoint); the sticky reason is the first
            // one that fired.
            Completion::Partial(guards[dense].interrupted().unwrap_or(Interrupt::Overloaded))
        };
        results[slot] = Some(Ok(QueryResponse {
            epoch: snap.epoch(),
            completion,
            evaluated,
            results: answers,
        }));
    }

    // The cache learns every computed answer — including ones past a
    // cut (already paid for, and pure functions of the epoch).
    if !items.is_empty() {
        let fills = items
            .iter()
            .zip(out.outcomes)
            .filter_map(|(item, outcome)| {
                outcome.map(|a| {
                    let req = &reqs[valid[item.request as usize]];
                    (
                        CacheKey::new(item.coords, req.cost.tag()),
                        Answer {
                            cost: a.cost,
                            upgraded: a.upgraded,
                        },
                    )
                })
            });
        engine.fill_cache(fills, snap.epoch());
    }
    engine.absorb_metrics(&rec);
    (results.into_iter().map(|r| r.unwrap()).collect(), stats)
}

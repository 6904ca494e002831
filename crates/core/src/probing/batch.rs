//! Shard-parallel batch execution of per-product upgrade answers over
//! one shared skyline.
//!
//! A serving layer that drains its queue into per-epoch batches ends up
//! with the union of many requests' products, all to be answered
//! against the *same* snapshot. This module evaluates that union once:
//!
//! * **One shared skyline view** — a [`SkylineView`] holds the
//!   id-sorted skyline, its [`ColumnarPoints`] copy and its
//!   per-dimension sorts ([`DimOrders`]). The caller builds it once per
//!   skyline (a serving snapshot once per epoch) and every batch reads
//!   it; workers scan it with the blockwise dominator kernel
//!   ([`skyup_geom::collect_dominators_cols`]) instead of a scalar
//!   filter per product.
//! * **Work stealing** — workers claim items from a shared atomic
//!   counter in *request-major index order* (all of request 0's
//!   products in order, then request 1's, ...). The claim order is load
//!   balancing *and* a correctness tool: see "Per-request limits"
//!   below.
//! * **Cross-request dominator memo** — dominator sets are memoized and
//!   reused across requests by ADR containment: if `t[i] <= t'[i]` on
//!   every dimension then `dominators(t) ⊆ dominators(t')` (any `s ≺ t`
//!   satisfies `s ≤ t ≤ t'` with a strict coordinate carried through),
//!   so a memoized superset list is filtered instead of re-scanning the
//!   whole skyline. An exact coordinate-bit match reuses the list
//!   verbatim.
//!
//! # Why batched answers are bit-identical
//!
//! A per-product answer is a pure function of `(t, skyline, cost_fn)`:
//! the dominator set is the order-preserving filter of the id-sorted
//! skyline (`skyline(dominators(t)) = {s ∈ skyline(P) : s ≺ t}`), and
//! [`upgrade_single_into`] is deterministic given that list. All three
//! dominator paths produce the *same list in the same order*: the
//! columnar kernel enumerates dominator positions ascending (= skyline
//! order), an exact memo hit returns a list produced that way, and an
//! ADR-containment filter of a superset list is the same subsequence of
//! the skyline as a full filter (the superset property guarantees no
//! dominator is missing, and filtering preserves order). So every item's
//! `(cost, upgraded)` is bit-identical to the sequential
//! `dominators_from_skyline` + `upgrade_single` path, regardless of
//! thread count, claim interleaving, or memo state.
//!
//! # Per-request limits
//!
//! Each request brings its own (already started) [`ExecGuard`]; workers
//! fork it ([`ExecGuard::clone`]) so one request's deadline or budget
//! never touches another's. A worker checks the owning request's guard
//! at claim time and *skips* the item (outcome `None`) when a
//! stop-now interrupt — deadline, cancellation, shed — has fired. A
//! sticky *budget* trip does not cut: budgets are charged at admission
//! (the caller ran `visit_node` per item before building the work
//! list), so every item in the list is already paid for and the
//! sequential path would have computed it before noticing the
//! exhausted budget. Because guard trips are sticky and claims walk each
//! request's products in index order, the cut items of a request are a
//! *suffix* in claim order — but a later-claimed item may still finish
//! on another worker after an earlier item was cut. Callers that need
//! exact-prefix semantics (the serving contract) therefore truncate at
//! the request's first cut index: everything before it is guaranteed
//! present (claimed earlier, and not cut — otherwise it would be the
//! first cut), so the retained prefix is complete and each retained
//! answer is exact. [`BatchOutput::first_cut`] reports that index.
//!
//! Claims are *not* sorted by a screening lower bound, and there is no
//! shared admission threshold. Every computed answer must be
//! materialized anyway — the result cache learns batch fills, and
//! per-request top-k merges must fold in cache hits the executor never
//! sees — and a bound-sorted claim order would break the first-cut
//! prefix guarantee above.

use crate::config::UpgradeConfig;
use crate::cost::CostFunction;
use crate::error::{panic_message, SkyupError};
use crate::upgrade::{upgrade_single_presorted_into, DimOrders, UpgradeScratch};
use skyup_geom::{ColumnarPoints, PointId, PointStore};
use skyup_obs::{
    timed, Counter, ExecGuard, Interrupt, NullRecorder, Phase, QueryMetrics, Recorder,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// One product of one request, flattened into the batch work list.
/// Items must be listed in request-major index order (all of a request's
/// products contiguous and ascending by `index`).
#[derive(Clone, Copy, Debug)]
pub struct BatchItem<'a> {
    /// Which request (index into the `cost_fns`/`guards` slices) this
    /// product belongs to.
    pub request: u32,
    /// The product's index within its request.
    pub index: u32,
    /// The product's coordinates.
    pub coords: &'a [f64],
}

/// A fully evaluated batch item.
#[derive(Clone, Debug, PartialEq)]
pub struct ItemAnswer {
    /// Minimal upgrade cost.
    pub cost: f64,
    /// The upgraded coordinates achieving that cost.
    pub upgraded: Vec<f64>,
    /// Whether the dominator set came from the cross-request memo
    /// (exact or containment hit) rather than a full skyline scan —
    /// per-item attribution behind the aggregate
    /// [`BatchOutput::memo_hits`].
    pub memo_hit: bool,
}

/// Everything a batch run produced.
#[derive(Debug)]
pub struct BatchOutput {
    /// Per item, parallel to the input slice: `Some` when evaluated,
    /// `None` when the owning request's guard had tripped at claim time.
    pub outcomes: Vec<Option<ItemAnswer>>,
    /// Items whose dominator set came out of the cross-request memo
    /// (exact or containment hit) instead of a full skyline scan.
    pub memo_hits: u64,
}

impl BatchOutput {
    /// The first cut item index (within its request) for request `r`,
    /// or `None` when every item of `r` was evaluated. Callers enforce
    /// prefix semantics by discarding answers at or beyond this index.
    pub fn first_cut<'a>(&self, items: &[BatchItem<'a>], r: u32) -> Option<u32> {
        items
            .iter()
            .zip(&self.outcomes)
            .filter(|(it, out)| it.request == r && out.is_none())
            .map(|(it, _)| it.index)
            .min()
    }
}

/// The skyline structure every probe of one competitor set reads: the
/// id-sorted skyline, its columnar copy for the dominator kernel, and
/// its per-dimension sorts for Algorithm 1. Build it once per skyline
/// and hand it to every [`run_probe_batch`] call over that skyline.
#[derive(Clone, Debug)]
pub struct SkylineView {
    skyline: Vec<PointId>,
    cols: ColumnarPoints,
    dim_orders: DimOrders,
}

impl SkylineView {
    /// Gathers `skyline` (which must be the id-sorted skyline of
    /// `p_store`'s live set) into its columnar copy and sorts it by
    /// every dimension.
    pub fn new(p_store: &PointStore, skyline: Vec<PointId>) -> Self {
        debug_assert!(
            skyline.windows(2).all(|w| w[0] < w[1]),
            "skyline not id-sorted"
        );
        let mut cols = ColumnarPoints::new(p_store.dims());
        cols.gather(p_store, &skyline);
        let dim_orders = DimOrders::new(p_store, &skyline);
        SkylineView {
            skyline,
            cols,
            dim_orders,
        }
    }

    /// The skyline points that dominate `t`, in skyline (id) order —
    /// the same list as [`crate::dominators_from_skyline`], found by the
    /// columnar kernel. `positions` is reusable scratch. Records the
    /// points compared and the blocks scanned and skipped.
    pub fn dominators<R: Recorder + ?Sized>(
        &self,
        t: &[f64],
        positions: &mut Vec<u32>,
        rec: &mut R,
    ) -> Vec<PointId> {
        positions.clear();
        let scan = self.cols.collect_dominators(t, positions);
        // Charge the points the kernel actually compared: zone-map-
        // skipped blocks ran no dominance tests.
        rec.incr(Counter::DominanceTests, scan.points);
        rec.incr(Counter::KernelBlockScans, scan.blocks);
        rec.incr(Counter::KernelBlocksSkipped, scan.skipped);
        positions
            .iter()
            .map(|&p| self.skyline[p as usize])
            .collect()
    }
}

/// Maximum entries held by the cross-request dominator memo. Lookups
/// scan linearly under a lock, so the table stays small on purpose —
/// past this size the scan would rival the columnar kernel it replaces.
const MEMO_CAP: usize = 64;

/// The memo only switches on when the skyline has at least this many
/// points. Below it, a memo lookup (a locked scan of up to [`MEMO_CAP`]
/// entries, each a `dims`-coordinate compare) costs as much as the
/// columnar kernel scan it would save, so the memo would be pure
/// overhead — measurably so on small-skyline workloads.
const MEMO_MIN_SKYLINE: usize = 128;

/// Minimum items per spawned worker: below this, a worker's share of
/// the batch is cheaper than spawning it.
const MIN_ITEMS_PER_WORKER: usize = 32;

/// The host's available parallelism, read once per process: on Linux
/// `available_parallelism` reads cgroup files on every call, which
/// costs tens of microseconds per batch.
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

struct MemoEntry {
    t: Vec<f64>,
    dominators: Arc<Vec<PointId>>,
}

enum MemoLookup {
    /// Same coordinate bits: the list is the answer.
    Exact(Arc<Vec<PointId>>),
    /// `t <= entry.t` on every dimension: the list is a superset of
    /// `dominators(t)` in skyline order; filter it.
    Superset(Arc<Vec<PointId>>),
    Miss,
}

/// The cross-request dominator memo (see module docs). Read-mostly: the
/// table stops growing at [`MEMO_CAP`], after which every access is a
/// shared read lock.
struct DominatorMemo {
    entries: RwLock<Vec<MemoEntry>>,
}

impl DominatorMemo {
    fn new() -> Self {
        DominatorMemo {
            entries: RwLock::new(Vec::new()),
        }
    }

    fn lookup(&self, t: &[f64]) -> MemoLookup {
        let entries = self.entries.read().expect("dominator memo poisoned");
        let mut best: Option<&MemoEntry> = None;
        for e in entries.iter() {
            if e.t.len() != t.len() {
                continue;
            }
            if e.t.iter().zip(t).all(|(a, b)| a.to_bits() == b.to_bits()) {
                return MemoLookup::Exact(Arc::clone(&e.dominators));
            }
            // ADR containment: t inside entry.t's lower-left box.
            if t.iter().zip(&e.t).all(|(&x, &y)| x <= y) {
                match best {
                    Some(b) if b.dominators.len() <= e.dominators.len() => {}
                    _ => best = Some(e),
                }
            }
        }
        match best {
            Some(e) => MemoLookup::Superset(Arc::clone(&e.dominators)),
            None => MemoLookup::Miss,
        }
    }

    fn insert(&self, t: &[f64], dominators: &Arc<Vec<PointId>>) {
        {
            // Full tables are the steady state; don't take the write
            // lock just to find that out.
            let entries = self.entries.read().expect("dominator memo poisoned");
            if entries.len() >= MEMO_CAP {
                return;
            }
        }
        let mut entries = self.entries.write().expect("dominator memo poisoned");
        if entries.len() >= MEMO_CAP {
            return;
        }
        entries.push(MemoEntry {
            t: t.to_vec(),
            dominators: Arc::clone(dominators),
        });
    }
}

struct WorkerOut {
    /// `(item position, answer)` pairs, in claim order.
    part: Vec<(usize, ItemAnswer)>,
    metrics: Option<QueryMetrics>,
    memo_hits: u64,
}

/// Evaluates a batch of request-tagged products against one shared
/// skyline view (see the module docs for the execution model and the
/// bit-identity argument).
///
/// * `view` must be built over `p_store` ([`SkylineView::new`]); its
///   id-sorted skyline is the canonical order every dominator list is a
///   subsequence of.
/// * `cost_fns[r]` and `guards[r]` belong to the request of every item
///   with `request == r`; guards are forked per worker, so budgets and
///   deadlines stay request-scoped.
///
/// A worker panic is contained: siblings stop at their next claim, all
/// output is dropped, and [`SkyupError::WorkerPanicked`] is returned.
#[allow(clippy::too_many_arguments)]
pub fn run_probe_batch<'a, C, R>(
    p_store: &PointStore,
    view: &SkylineView,
    items: &[BatchItem<'a>],
    cost_fns: &[C],
    guards: &[ExecGuard],
    cfg: &UpgradeConfig,
    threads: usize,
    rec: &mut R,
) -> Result<BatchOutput, SkyupError>
where
    C: CostFunction + Sync,
    R: Recorder + ?Sized,
{
    let n = items.len();
    if cost_fns.len() != guards.len() {
        return Err(SkyupError::InvalidInput(format!(
            "{} cost functions for {} request guards",
            cost_fns.len(),
            guards.len()
        )));
    }
    let dims = p_store.dims();
    if view.cols.dims() != dims {
        return Err(SkyupError::InvalidInput(format!(
            "{}-dimensional skyline view over a {dims}-dimensional store",
            view.cols.dims()
        )));
    }
    for (pos, it) in items.iter().enumerate() {
        if it.request as usize >= guards.len() {
            return Err(SkyupError::InvalidInput(format!(
                "item {pos} names request {} of {}",
                it.request,
                guards.len()
            )));
        }
        if it.coords.len() != dims {
            return Err(SkyupError::InvalidInput(format!(
                "item {pos} has {} coordinates, expected {dims}",
                it.coords.len()
            )));
        }
    }
    if n == 0 {
        return Ok(BatchOutput {
            outcomes: Vec::new(),
            memo_hits: 0,
        });
    }

    let collect = rec.is_enabled();
    // See MEMO_MIN_SKYLINE: on small skylines a memo probe costs as
    // much as the kernel scan it replaces.
    let memo = (view.skyline.len() >= MEMO_MIN_SKYLINE).then(DominatorMemo::new);
    let memo = memo.as_ref();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    // Spawning a scoped worker costs tens of microseconds — real money
    // against per-item costs of a few microseconds. Cap the worker
    // count so each spawned thread has enough items to amortize its own
    // startup, and never exceed the hardware's actual parallelism:
    // extra workers on a saturated machine only add context-switch
    // churn. Small batches run inline on the caller's thread.
    let workers = threads
        .max(1)
        .min(hardware_threads())
        .min(n.div_ceil(MIN_ITEMS_PER_WORKER))
        .max(1);

    let run_worker = |mut wguards: Vec<ExecGuard>| -> WorkerOut {
        let mut local = collect.then(QueryMetrics::new);
        let mut upg = UpgradeScratch::new();
        let mut positions: Vec<u32> = Vec::new();
        let mut part: Vec<(usize, ItemAnswer)> = Vec::new();
        let mut memo_hits = 0u64;
        loop {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            let pos = next.fetch_add(1, Ordering::Relaxed);
            if pos >= n {
                break;
            }
            if let Some(m) = &mut local {
                m.bump(Counter::StealEvents);
            }
            let item = &items[pos];
            let r = item.request as usize;
            // Only stop-now interrupts cut at claim time; a budget trip
            // means the admission charge ran out *after* this item was
            // admitted, so it still gets computed (see module docs).
            match wguards[r].checkpoint() {
                Err(Interrupt::NodeVisitBudget | Interrupt::HeapBudget) => {}
                Err(_) => continue, // outcome stays None: cut at claim time
                Ok(()) => {}
            }
            let t = item.coords;
            let mut full_scan = |local: &mut Option<QueryMetrics>| {
                Arc::new(match local {
                    Some(m) => view.dominators(t, &mut positions, m),
                    None => view.dominators(t, &mut positions, &mut NullRecorder),
                })
            };
            let memo_hits_before = memo_hits;
            let dominators: Arc<Vec<PointId>> = match memo.map(|m| m.lookup(t)) {
                Some(MemoLookup::Exact(list)) => {
                    memo_hits += 1;
                    if let Some(m) = &mut local {
                        m.bump(Counter::DominatorMemoHits);
                    }
                    list
                }
                Some(MemoLookup::Superset(list)) => {
                    memo_hits += 1;
                    if let Some(m) = &mut local {
                        m.bump(Counter::DominatorMemoHits);
                        m.incr(Counter::DominanceTests, list.len() as u64);
                    }
                    let filtered = Arc::new(
                        list.iter()
                            .copied()
                            .filter(|&s| skyup_geom::dominance::dominates(p_store.point(s), t))
                            .collect::<Vec<PointId>>(),
                    );
                    memo.expect("superset hit implies a memo")
                        .insert(t, &filtered);
                    filtered
                }
                Some(MemoLookup::Miss) => {
                    let found = full_scan(&mut local);
                    memo.expect("miss implies a memo").insert(t, &found);
                    found
                }
                None => full_scan(&mut local),
            };
            // Algorithm 1's per-dimension sorts come from the view:
            // each dominator subset's order is a subsequence filter
            // (bit-identical — see `upgrade_single_presorted_into`).
            let cost = upgrade_single_presorted_into(
                p_store,
                &view.dim_orders,
                &dominators[..],
                t,
                &cost_fns[r],
                cfg,
                &mut upg,
            );
            if let Some(m) = &mut local {
                m.bump(Counter::ProductsEvaluated);
            }
            part.push((
                pos,
                ItemAnswer {
                    cost,
                    upgraded: upg.upgraded().to_vec(),
                    memo_hit: memo_hits > memo_hits_before,
                },
            ));
        }
        WorkerOut {
            part,
            metrics: local,
            memo_hits,
        }
    };

    let outcomes_raw: Vec<(usize, Result<WorkerOut, String>)> =
        timed(rec, Phase::ProbeLoop, |_| {
            if workers == 1 {
                // Small batch / single thread: run inline, no spawn.
                let wguards: Vec<ExecGuard> = guards.to_vec();
                let out =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_worker(wguards)));
                vec![(0usize, out.map_err(panic_message))]
            } else {
                std::thread::scope(|scope| {
                    let mut handles = Vec::with_capacity(workers);
                    for w in 0..workers {
                        let wguards: Vec<ExecGuard> = guards.to_vec();
                        let (run_worker, abort) = (&run_worker, &abort);
                        handles.push(scope.spawn(move || {
                            let out =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    run_worker(wguards)
                                }));
                            match out {
                                Ok(o) => (w, Ok(o)),
                                Err(payload) => {
                                    // Stop the siblings at their next claim;
                                    // every worker's output is dropped anyway.
                                    abort.store(true, Ordering::Relaxed);
                                    (w, Err(panic_message(payload)))
                                }
                            }
                        }));
                    }
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("batch worker escaped its unwind barrier"))
                        .collect()
                })
            }
        });

    for (w, out) in &outcomes_raw {
        if let Err(message) = out {
            rec.bump(Counter::WorkerPanics);
            return Err(SkyupError::WorkerPanicked {
                worker: *w,
                message: message.clone(),
            });
        }
    }

    let mut outcomes: Vec<Option<ItemAnswer>> = (0..n).map(|_| None).collect();
    let mut memo_hits = 0u64;
    for (_, out) in outcomes_raw {
        let o = out.expect("panics were handled above");
        if let Some(m) = o.metrics {
            rec.absorb(&m);
        }
        memo_hits += o.memo_hits;
        for (pos, answer) in o.part {
            debug_assert!(outcomes[pos].is_none(), "item {pos} claimed twice");
            outcomes[pos] = Some(answer);
        }
    }
    Ok(BatchOutput {
        outcomes,
        memo_hits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SumCost;
    use crate::upgrade::{dominators_from_skyline, upgrade_single};
    use skyup_obs::{CancellationToken, ExecutionLimits, NullRecorder};
    use skyup_skyline::skyline_sfs;

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

    /// Anti-correlated competitors hugging the hyperplane
    /// `Σ coords = dims - 1`: most points are mutually incomparable, so
    /// the skyline is large enough (>= MEMO_MIN_SKYLINE) to switch the
    /// dominator memo on.
    fn anti_store(n: usize, dims: usize, seed: u64) -> PointStore {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut s = PointStore::new(dims);
        for _ in 0..n {
            let mut row: Vec<f64> = (0..dims - 1).map(|_| next()).collect();
            let sum: f64 = row.iter().sum();
            row.push((dims - 1) as f64 - sum + 0.01 * next());
            s.push(&row);
        }
        s
    }

    fn workload(dims: usize, seed: u64) -> (PointStore, Vec<PointId>, Vec<Vec<Vec<f64>>>, SumCost) {
        let p = anti_store(600, dims, seed);
        let all: Vec<PointId> = p.ids().collect();
        let mut sky = skyline_sfs(&p, &all);
        sky.sort_unstable();
        assert!(
            sky.len() >= MEMO_MIN_SKYLINE,
            "workload must enable the memo"
        );
        // Three requests with overlapping product sets (coarse grid so
        // exact coordinate repeats happen and the memo gets exercised).
        let t = pseudo_random_store(90, dims, 0.4, 1.4, seed ^ 0xbeef);
        let mut requests: Vec<Vec<Vec<f64>>> = vec![Vec::new(); 3];
        for (i, (_, coords)) in t.iter().enumerate() {
            let rounded: Vec<f64> = coords.iter().map(|v| (v * 8.0).floor() / 8.0).collect();
            requests[i % 3].push(rounded.clone());
            if i % 4 == 0 {
                requests[(i + 1) % 3].push(rounded);
            }
        }
        (p, sky, requests, SumCost::reciprocal(dims, 1e-3))
    }

    fn flatten<'a>(requests: &'a [Vec<Vec<f64>>]) -> Vec<BatchItem<'a>> {
        let mut items = Vec::new();
        for (r, products) in requests.iter().enumerate() {
            for (i, t) in products.iter().enumerate() {
                items.push(BatchItem {
                    request: r as u32,
                    index: i as u32,
                    coords: t,
                });
            }
        }
        items
    }

    #[test]
    fn batch_answers_bit_identical_to_sequential_at_any_thread_count() {
        for dims in [2usize, 3] {
            let (p, sky, requests, cost) = workload(dims, 0x77 + dims as u64);
            let items = flatten(&requests);
            let cfg = UpgradeConfig::default();
            let cost_fns: Vec<&SumCost> = vec![&cost; requests.len()];
            let guards: Vec<ExecGuard> = (0..requests.len())
                .map(|_| ExecutionLimits::none().start())
                .collect();
            for threads in [1usize, 2, 7] {
                let out = run_probe_batch(
                    &p,
                    &SkylineView::new(&p, sky.clone()),
                    &items,
                    &cost_fns,
                    &guards,
                    &cfg,
                    threads,
                    &mut NullRecorder,
                )
                .unwrap();
                assert_eq!(out.outcomes.len(), items.len());
                for (item, outcome) in items.iter().zip(&out.outcomes) {
                    let got = outcome.as_ref().expect("unlimited batch evaluates all");
                    let want_dom =
                        dominators_from_skyline(&p, &sky, item.coords, &mut NullRecorder);
                    let (want_cost, want_up) =
                        upgrade_single(&p, &want_dom, item.coords, &cost, &cfg);
                    assert_eq!(got.cost.to_bits(), want_cost.to_bits());
                    let gb: Vec<u64> = got.upgraded.iter().map(|v| v.to_bits()).collect();
                    let wb: Vec<u64> = want_up.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(gb, wb);
                }
                assert!(
                    out.memo_hits > 0,
                    "overlapping requests must hit the memo (threads={threads})"
                );
            }
        }
    }

    #[test]
    fn memo_superset_filter_matches_full_scan() {
        // Products on a dominance chain: t0 <= t1 <= t2 componentwise,
        // issued worst-first so the best product filters a superset.
        let p = anti_store(400, 3, 0x99);
        let all: Vec<PointId> = p.ids().collect();
        let mut sky = skyline_sfs(&p, &all);
        sky.sort_unstable();
        assert!(
            sky.len() >= MEMO_MIN_SKYLINE,
            "workload must enable the memo"
        );
        let chain: Vec<Vec<f64>> = vec![
            vec![1.2, 1.2, 1.2],
            vec![0.9, 1.0, 1.1],
            vec![0.6, 0.7, 0.8],
        ];
        let requests = vec![chain];
        let items = flatten(&requests);
        let cost = SumCost::reciprocal(3, 1e-3);
        let guards = vec![ExecutionLimits::none().start()];
        let out = run_probe_batch(
            &p,
            &SkylineView::new(&p, sky.clone()),
            &items,
            &[&cost],
            &guards,
            &UpgradeConfig::default(),
            1,
            &mut NullRecorder,
        )
        .unwrap();
        // Single-threaded claim order is the chain order, so items 1 and
        // 2 must both resolve through containment.
        assert_eq!(out.memo_hits, 2);
        // A superset filter that kept a non-dominator or dropped a
        // dominator would hand Algorithm 1 a different set; the answers
        // must match the full scan's bit for bit.
        let cfg = UpgradeConfig::default();
        for (item, outcome) in items.iter().zip(&out.outcomes) {
            let got = outcome.as_ref().unwrap();
            let want = dominators_from_skyline(&p, &sky, item.coords, &mut NullRecorder);
            assert!(!want.is_empty(), "every chain product has dominators");
            let (want_cost, want_up) = upgrade_single(&p, &want, item.coords, &cost, &cfg);
            assert_eq!(got.cost.to_bits(), want_cost.to_bits());
            let gb: Vec<u64> = got.upgraded.iter().map(|v| v.to_bits()).collect();
            let wb: Vec<u64> = want_up.iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, wb);
        }
    }

    #[test]
    fn tripped_guard_cuts_only_its_own_request() {
        let (p, sky, requests, cost) = workload(3, 0xab);
        let items = flatten(&requests);
        let cfg = UpgradeConfig::default();
        let cost_fns: Vec<&SumCost> = vec![&cost; requests.len()];
        let token = CancellationToken::new();
        token.cancel();
        // Request 1 arrives already cancelled; 0 and 2 are unlimited.
        let guards: Vec<ExecGuard> = (0..requests.len())
            .map(|r| {
                if r == 1 {
                    ExecutionLimits::none().with_token(token.clone()).start()
                } else {
                    ExecutionLimits::none().start()
                }
            })
            .collect();
        for threads in [1usize, 4] {
            let out = run_probe_batch(
                &p,
                &SkylineView::new(&p, sky.clone()),
                &items,
                &cost_fns,
                &guards,
                &cfg,
                threads,
                &mut NullRecorder,
            )
            .unwrap();
            for (item, outcome) in items.iter().zip(&out.outcomes) {
                if item.request == 1 {
                    assert!(outcome.is_none(), "cancelled request item evaluated");
                } else {
                    assert!(outcome.is_some(), "healthy request item dropped");
                }
            }
            assert_eq!(out.first_cut(&items, 1), Some(0));
            assert_eq!(out.first_cut(&items, 0), None);
        }
    }

    #[test]
    fn admission_charged_budget_does_not_cut_admitted_items() {
        // The serving layer charges visit_node per product at admission
        // and only lists the products that fit the budget. A request
        // whose budget tripped *during* admission must still get every
        // admitted item evaluated: the trip is sticky, but it is not a
        // stop-now interrupt.
        let (p, sky, requests, cost) = workload(3, 0xcd);
        let cfg = UpgradeConfig::default();
        let cost_fns: Vec<&SumCost> = vec![&cost; requests.len()];
        let budget = 2u64;
        let guards: Vec<ExecGuard> = (0..requests.len())
            .map(|_| ExecutionLimits::none().with_max_node_visits(budget).start())
            .collect();
        // Admission: charge each product, stop at the failing charge —
        // exactly what the serving layer does. Request 0 has more
        // products than budget, so its guard ends up tripped.
        let mut admitted = Vec::new();
        let mut charging = guards.clone();
        for (r, products) in requests.iter().enumerate() {
            for (i, t) in products.iter().enumerate() {
                if charging[r].visit_node().is_err() {
                    break;
                }
                admitted.push(BatchItem {
                    request: r as u32,
                    index: i as u32,
                    coords: t,
                });
            }
        }
        assert!(guards.iter().all(|g| g.interrupted().is_some()));
        for threads in [1usize, 3] {
            let out = run_probe_batch(
                &p,
                &SkylineView::new(&p, sky.clone()),
                &admitted,
                &cost_fns,
                &guards,
                &cfg,
                threads,
                &mut NullRecorder,
            )
            .unwrap();
            for (pos, outcome) in out.outcomes.iter().enumerate() {
                assert!(
                    outcome.is_some(),
                    "admitted item {pos} was cut (threads={threads})"
                );
            }
            for r in 0..requests.len() as u32 {
                assert_eq!(out.first_cut(&admitted, r), None);
            }
        }
    }

    #[test]
    fn worker_panic_is_contained() {
        // A NaN coordinate makes upgrade_single's debug contract panic
        // via the cost function; simulate with a poisoned cost fn by
        // feeding an out-of-range request id instead: cleaner to panic
        // deliberately through a product whose dims pass validation but
        // whose cost function panics.
        struct Bomb;
        impl CostFunction for Bomb {
            fn dims(&self) -> usize {
                2
            }
            fn attr_cost(&self, _dim: usize, _to: f64) -> f64 {
                panic!("bomb cost");
            }
            fn product_cost(&self, _p: &[f64]) -> f64 {
                panic!("bomb cost");
            }
        }
        let p = pseudo_random_store(50, 2, 0.0, 1.0, 0x5);
        let all: Vec<PointId> = p.ids().collect();
        let mut sky = skyline_sfs(&p, &all);
        sky.sort_unstable();
        let products = vec![vec![1.5, 1.5], vec![1.6, 1.6]];
        let requests = vec![products];
        let items = flatten(&requests);
        let guards = vec![ExecutionLimits::none().start()];
        let err = run_probe_batch(
            &p,
            &SkylineView::new(&p, sky.clone()),
            &items,
            &[&Bomb],
            &guards,
            &UpgradeConfig::default(),
            2,
            &mut NullRecorder,
        )
        .unwrap_err();
        assert!(matches!(err, SkyupError::WorkerPanicked { .. }));
    }

    #[test]
    fn validation_rejects_malformed_batches() {
        let p = pseudo_random_store(10, 2, 0.0, 1.0, 0x6);
        let sky: Vec<PointId> = Vec::new();
        let cost = SumCost::reciprocal(2, 1e-3);
        let guards = vec![ExecutionLimits::none().start()];
        let t = vec![0.5, 0.5];
        // Request id out of range.
        let items = [BatchItem {
            request: 3,
            index: 0,
            coords: &t,
        }];
        let err = run_probe_batch(
            &p,
            &SkylineView::new(&p, sky.clone()),
            &items,
            &[&cost],
            &guards,
            &UpgradeConfig::default(),
            1,
            &mut NullRecorder,
        )
        .unwrap_err();
        assert!(matches!(err, SkyupError::InvalidInput(_)));
        // Wrong dimensionality.
        let bad = vec![0.5];
        let items = [BatchItem {
            request: 0,
            index: 0,
            coords: &bad,
        }];
        let err = run_probe_batch(
            &p,
            &SkylineView::new(&p, sky.clone()),
            &items,
            &[&cost],
            &guards,
            &UpgradeConfig::default(),
            1,
            &mut NullRecorder,
        )
        .unwrap_err();
        assert!(matches!(err, SkyupError::InvalidInput(_)));
        // Mismatched request metadata.
        let items: [BatchItem<'_>; 0] = [];
        let err = run_probe_batch(
            &p,
            &SkylineView::new(&p, sky.clone()),
            &items,
            &[&cost, &cost],
            &guards,
            &UpgradeConfig::default(),
            1,
            &mut NullRecorder,
        )
        .unwrap_err();
        assert!(matches!(err, SkyupError::InvalidInput(_)));
    }

    #[test]
    fn empty_skyline_answers_are_free() {
        let p = PointStore::new(2);
        let sky: Vec<PointId> = Vec::new();
        let cost = SumCost::reciprocal(2, 1e-3);
        let t = vec![0.4, 0.4];
        let items = [BatchItem {
            request: 0,
            index: 0,
            coords: &t,
        }];
        let guards = vec![ExecutionLimits::none().start()];
        let out = run_probe_batch(
            &p,
            &SkylineView::new(&p, sky.clone()),
            &items,
            &[&cost],
            &guards,
            &UpgradeConfig::default(),
            2,
            &mut NullRecorder,
        )
        .unwrap();
        let a = out.outcomes[0].as_ref().unwrap();
        assert_eq!(a.cost, 0.0);
        assert_eq!(a.upgraded, t);
    }
}

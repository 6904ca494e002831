//! The scatter/gather coordinator over a partitioned competitor set.
//!
//! The coordinator owns the three pieces of global state a sharded
//! topology needs — the epoch counter, the competitor-id sequence, and
//! the cid→shard ownership map — and drives N shards that each hold one
//! [`crate::shard::Partition`] slab of `P` behind a full epoch engine.
//!
//! **Queries** scatter: every shard returns, per product `t`, its local
//! dominator skyline restricted to ADR(t) under its published label.
//! The gather dominance-filters the union of those skylines (via the
//! same columnar-kernel batch path single servers use) and runs the
//! upgrade join on the merged set. This is exact, not approximate: the
//! global dominator skyline `D(t)` is a subset of the union of local
//! skylines (a point dominating `t` that is globally undominated is
//! also locally undominated), so
//! `{s ∈ skyline(∪ₖ localₖ) : s dominates t} = D(t)` — and because
//! global cids are assigned in insertion order and every store
//! preserves relative row order across compaction, sorting the union by
//! cid reproduces the oracle's row order exactly. The answer is
//! bit-identical to a single engine holding all of `P` at the same
//! epoch; the property suite enforces this byte-for-byte on rendered
//! responses.
//!
//! **Mutations** run a two-phase epoch publish: stage epoch `E` on
//! *every* shard (the owner's stage carries the op and the assigned
//! cid; the rest are pure bumps), collect all stage acks — the commit
//! point — then flip. A query cannot interleave (queries take the
//! state read-lock, publishes the write-lock), so no gathered answer
//! ever mixes labels. Failure handling, by phase:
//!
//! * **Stage fails** (shard down, timeout): the publish aborts before
//!   the commit point; nothing flipped, the coordinator's epoch is
//!   unchanged, and the staged epoch left on other shards is
//!   overwritten by the next publish of the same epoch.
//! * **Flip fails / flip-ack lost** (after all stages acked): the
//!   mutation is committed — flips are idempotent and retried here,
//!   and a shard that still missed its flip is repaired on the next
//!   query (the gather sees its stale label and re-issues the flip
//!   before answering).
//! * **Shard unreachable at query time**: the gather degrades to
//!   `Completion::Partial(Interrupt::Overloaded)` with zero evaluated
//!   products — never a wrong exact answer.

use crate::engine::{Mutation, MutationOutcome};
use crate::net::{ClientPool, Dispatch};
use crate::proto::{
    parse_flip_ack, parse_probe_response, parse_stage_ack, render_error, render_flip_request,
    render_health, render_mutation_outcome, render_probe_request, render_query_response,
    render_skyup_error, render_stage_request, Request, Topology,
};
use crate::server::{validate_request, ProductAnswer, QueryRequest, QueryResponse};
use crate::shard::{FlipAck, Partition, ProbeRequest, ProbeResponse, ShardState, StagedOp};
use crate::CompetitorId;
use skyup_core::{run_probe_batch, BatchItem, SkyupError, UpgradeConfig};
use skyup_geom::{PointId, PointStore};
use skyup_obs::json::{self, Json};
use skyup_obs::{
    Completion, Counter, ExecutionLimits, Interrupt, QueryMetrics, Recorder, WindowedHistogram,
};
use skyup_skyline::skyline_sfs;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Flip attempts per shard before a committed publish gives up and
/// leaves the shard to repair-on-read.
const FLIP_ATTEMPTS: u32 = 3;

/// The least time a [`TcpLink`] probe waits for its reply beyond the
/// request deadline: a shard whose own deadline fired still needs to
/// render and send its prefix, so the grace is one more deadline, but
/// never less than this. The floor covers the reply-leg stall: a
/// shard's `write_line` sends the line and its newline as two writes
/// on a Nagle socket, so the newline can wait for the coordinator's
/// delayed ACK, up to 200 ms on Linux.
const MIN_PROBE_REPLY_GRACE: Duration = Duration::from_millis(250);

/// A coordinator's channel to one shard. Implemented over TCP
/// ([`TcpLink`]) for real topologies and in-process ([`LocalLink`]) for
/// the property suite and benches, where determinism and fault
/// injection matter more than sockets.
pub trait ShardLink: Send + Sync {
    /// Stages `epoch` with this shard's op slice; returns the shard's
    /// staged (or already-published) epoch.
    fn stage(&self, epoch: u64, op: Option<&StagedOp>) -> Result<u64, String>;
    /// Flips the staged `epoch`; idempotent on retries.
    fn flip(&self, epoch: u64) -> Result<FlipAck, String>;
    /// Scatter probe.
    fn probe(&self, req: &ProbeRequest) -> Result<ProbeResponse, String>;
    /// Cheap reachability check for the health report.
    fn reachable(&self) -> bool;
    /// Human-readable target (address or in-process tag).
    fn describe(&self) -> String;
}

/// An in-process link to a [`ShardState`] — the deterministic backend
/// for the property suite and the shard-axis bench.
#[derive(Clone)]
pub struct LocalLink(pub Arc<ShardState>);

impl ShardLink for LocalLink {
    fn stage(&self, epoch: u64, op: Option<&StagedOp>) -> Result<u64, String> {
        self.0.stage(epoch, op.cloned()).map_err(|e| e.to_string())
    }

    fn flip(&self, epoch: u64) -> Result<FlipAck, String> {
        self.0.flip(epoch).map_err(|e| e.to_string())
    }

    fn probe(&self, req: &ProbeRequest) -> Result<ProbeResponse, String> {
        Ok(self.0.probe(req))
    }

    fn reachable(&self) -> bool {
        true
    }

    fn describe(&self) -> String {
        format!("local:{}", self.0.shard_id())
    }
}

/// A pooled NDJSON-over-TCP link to a shard process, speaking the
/// `stage`/`flip`/`local_probe` protocol verbs.
pub struct TcpLink {
    pool: ClientPool,
}

impl TcpLink {
    /// A link to the shard server at `addr` (connections open lazily).
    pub fn new(addr: &str) -> TcpLink {
        TcpLink {
            pool: ClientPool::new(addr),
        }
    }
}

impl ShardLink for TcpLink {
    fn stage(&self, epoch: u64, op: Option<&StagedOp>) -> Result<u64, String> {
        let line = render_stage_request(epoch, op);
        self.pool.with(|c| {
            let resp = c.request(&line)?;
            parse_stage_ack(&resp)
        })
    }

    fn flip(&self, epoch: u64) -> Result<FlipAck, String> {
        let line = render_flip_request(epoch);
        self.pool.with(|c| {
            let resp = c.request(&line)?;
            parse_flip_ack(&resp)
        })
    }

    /// A probe with a deadline bounds its wait for the reply, so a
    /// wedged shard degrades the gather instead of hanging it. The
    /// timeout is cleared after the exchange, so pooled clients never
    /// carry one; a timed-out client is dropped by the pool.
    fn probe(&self, req: &ProbeRequest) -> Result<ProbeResponse, String> {
        let line = render_probe_request(req);
        let timeout = req.deadline.map(|d| d + d.max(MIN_PROBE_REPLY_GRACE));
        self.pool.with(|c| {
            if timeout.is_some() {
                c.set_read_timeout(timeout)?;
            }
            let resp = c.request(&line)?;
            if timeout.is_some() {
                c.set_read_timeout(None)?;
            }
            parse_probe_response(&resp)
        })
    }

    fn reachable(&self) -> bool {
        self.pool
            .with(|c| c.request("{\"op\":\"health\"}"))
            .is_ok_and(|resp| {
                json::parse(&resp).is_ok_and(|doc| doc.get("ok") == Some(&Json::Bool(true)))
            })
    }

    fn describe(&self) -> String {
        self.pool.addr().to_string()
    }
}

/// Global topology state, guarded by one RwLock: queries hold it shared
/// (so a publish can never slide between scatter and gather), publishes
/// hold it exclusively.
struct CoordState {
    /// The published global epoch.
    epoch: u64,
    /// The next competitor id to assign.
    next_cid: CompetitorId,
    /// Owning shard of every live competitor.
    owner_of: HashMap<CompetitorId, u32>,
}

/// Round-trip latency (nanoseconds) of each verb sent to one shard, for
/// the latency-attribution view in `metrics`.
#[derive(Default)]
struct LinkLatency {
    probe: WindowedHistogram,
    stage: WindowedHistogram,
    flip: WindowedHistogram,
}

/// Runs `f` and returns its wall-clock nanoseconds with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_nanos() as u64, r)
}

/// The scatter/gather front-end over `L`-linked shards.
pub struct Coordinator<L> {
    links: Vec<L>,
    partition: Partition,
    dims: usize,
    threads: usize,
    state: RwLock<CoordState>,
    metrics: Mutex<QueryMetrics>,
    /// Per-shard round-trip latencies, indexed like `links`.
    latency: Vec<Mutex<LinkLatency>>,
}

impl<L: ShardLink> Coordinator<L> {
    /// A coordinator over `links` (one per partition slab, in shard-id
    /// order) fronting a fresh topology seeded with `seed`: competitor
    /// ids `0..seed.len()` in row order, exactly the ids the shards
    /// were seeded with via [`Partition::shard_seed`], and epoch 0.
    pub fn new(links: Vec<L>, partition: Partition, seed: &PointStore) -> Result<Self, SkyupError> {
        if links.len() != partition.shards() as usize {
            return Err(SkyupError::InvalidConfig(format!(
                "{} shard links for a {}-shard partition",
                links.len(),
                partition.shards()
            )));
        }
        let owner_of = seed
            .ids()
            .map(|pid| {
                (
                    pid.index() as CompetitorId,
                    partition.shard_of(seed.point(pid)),
                )
            })
            .collect();
        let latency = links.iter().map(|_| Mutex::default()).collect();
        Ok(Coordinator {
            latency,
            links,
            partition,
            dims: seed.dims(),
            threads: 1,
            state: RwLock::new(CoordState {
                epoch: 0,
                next_cid: seed.len() as CompetitorId,
                owner_of,
            }),
            metrics: Mutex::new(QueryMetrics::new()),
        })
    }

    /// Sets the thread count for the gather-side merge kernel (the
    /// merged set is usually small; 1 is the sensible default).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The published global epoch.
    pub fn epoch(&self) -> u64 {
        self.state.read().unwrap().epoch
    }

    /// Product dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.links.len()
    }

    /// The coordinator's counters accumulated so far.
    pub fn metrics(&self) -> QueryMetrics {
        self.metrics.lock().unwrap().clone()
    }

    /// Scatters `req`'s admitted products to every shard, gathers and
    /// merges the local dominator skylines, and answers bit-identically
    /// to a single engine at the same epoch. See the module docs for
    /// the exactness argument and the degradation rules.
    pub fn query(&self, req: &QueryRequest) -> Result<QueryResponse, SkyupError> {
        validate_request(req, self.dims)?;
        let state = self.state.read().unwrap();
        let epoch = state.epoch;
        let mut rec = QueryMetrics::new();

        // Admission replay: the same guard the single-engine path runs,
        // charged one unit per product, so `max_products` budgets admit
        // bit-identical prefixes.
        let mut limits = ExecutionLimits::default();
        if let Some(n) = req.max_products {
            limits = limits.with_max_node_visits(n);
        }
        if let Some(d) = req.deadline {
            limits = limits.with_deadline(d);
        }
        let mut guard = limits.start();
        let mut completion = Completion::Exact;
        let mut admitted = 0usize;
        for _ in 0..req.products.len() {
            if let Err(i) = guard.visit_node() {
                completion = Completion::Partial(i);
                break;
            }
            admitted += 1;
        }

        if admitted == 0 {
            drop(state);
            return self.finish(epoch, completion, 0, Vec::new(), req.k, rec);
        }

        // Scatter.
        let probe_req = ProbeRequest {
            products: req.products[..admitted].to_vec(),
            deadline: req.deadline,
        };
        rec.incr(Counter::ScatterProbes, self.links.len() as u64);
        let mut gathered = self.scatter(&probe_req);

        // Gather-side label check: every shard must answer at the
        // coordinator's epoch. A stale label is a shard that missed its
        // flip (lost flip-ack) — repair it in place and probe again.
        for (k, slot) in gathered.iter_mut().enumerate() {
            let stale = matches!(&slot.1, Ok(resp) if resp.epoch != epoch);
            if stale {
                let (nanos, repaired) = timed(|| {
                    self.links[k]
                        .flip(epoch)
                        .and_then(|_| self.links[k].probe(&probe_req))
                });
                slot.0 += nanos;
                slot.1 = match repaired {
                    Ok(resp) if resp.epoch == epoch => Ok(resp),
                    Ok(resp) => Err(format!(
                        "shard {k} answers at label {} under published epoch {epoch}",
                        resp.epoch
                    )),
                    Err(e) => Err(e),
                };
            }
        }
        for ((nanos, _), lat) in gathered.iter().zip(&self.latency) {
            lat.lock().unwrap().probe.record(*nanos);
        }

        // An unreachable or inconsistent shard degrades the whole
        // answer to an empty exact-prefix partial: we cannot prove any
        // product's dominator set complete without every shard.
        if gathered.iter().any(|(_, r)| r.is_err()) {
            drop(state);
            return self.finish(
                epoch,
                Completion::Partial(Interrupt::Overloaded),
                0,
                Vec::new(),
                req.k,
                rec,
            );
        }
        let responses: Vec<ProbeResponse> = gathered.into_iter().map(|(_, r)| r.unwrap()).collect();

        // A shard that cut its prefix (deadline) caps the evaluated
        // prefix for the merged answer; the first shard interrupt wins
        // the completion tag.
        let mut cut = admitted;
        for resp in &responses {
            if resp.evaluated < cut {
                cut = resp.evaluated;
            }
            if let (Completion::Exact, Completion::Partial(i)) = (completion, resp.completion) {
                completion = Completion::Partial(i);
            }
        }
        if cut < req.products.len() && completion.is_exact() {
            completion = Completion::Partial(Interrupt::DeadlineExceeded);
        }

        // Merge: union the per-shard dominator skylines (dedup by cid,
        // ascending — reproducing the oracle's row order), dominance-
        // filter once for the whole request, and run the upgrade join
        // through the columnar batch kernel.
        let mut union: BTreeMap<CompetitorId, &Vec<f64>> = BTreeMap::new();
        for resp in &responses {
            for per_product in resp.dominators.iter().take(cut) {
                for (cid, coords) in per_product {
                    union.entry(*cid).or_insert(coords);
                }
            }
        }
        rec.incr(Counter::GatherPoints, union.len() as u64);
        let mut store = PointStore::new(self.dims);
        for coords in union.values() {
            store.push(coords);
        }
        let all: Vec<PointId> = store.ids().collect();
        let mut merged = skyline_sfs(&store, &all);
        merged.sort_unstable();
        rec.incr(Counter::MergeDropped, (union.len() - merged.len()) as u64);

        let cost_fn = req.cost.cost_fn(self.dims);
        let items: Vec<BatchItem<'_>> = req.products[..cut]
            .iter()
            .enumerate()
            .map(|(index, t)| BatchItem {
                request: 0,
                index: index as u32,
                coords: t,
            })
            .collect();
        let merge_guard = ExecutionLimits::default().start();
        let out = run_probe_batch(
            &store,
            &merged,
            &items,
            &[cost_fn],
            &[merge_guard],
            &UpgradeConfig::default(),
            self.threads,
            &mut rec,
        )?;
        drop(state);

        let mut answers: Vec<ProductAnswer> = Vec::with_capacity(cut);
        for (item, outcome) in items.iter().zip(&out.outcomes) {
            let a = outcome.as_ref().ok_or_else(|| {
                SkyupError::InvalidInput("unbudgeted merge execution cut a product".into())
            })?;
            answers.push(ProductAnswer {
                index: item.index as usize,
                cost: a.cost,
                upgraded: a.upgraded.clone(),
            });
        }
        self.finish(epoch, completion, cut, answers, req.k, rec)
    }

    /// Probes every shard concurrently; returns per shard the probe
    /// round-trip nanos and its result. The last link runs on the
    /// calling thread, so a single shard costs no spawn and N shards
    /// cost N − 1. A panicking probe counts as a failed one on either
    /// side.
    #[allow(clippy::type_complexity)]
    fn scatter(&self, req: &ProbeRequest) -> Vec<(u64, Result<ProbeResponse, String>)> {
        let (last, rest) = self.links.split_last().expect(
            "Coordinator::new checks one link per partition slab, and a partition has at least one",
        );
        let probe = |link: &L| timed(|| link.probe(req));
        let panicked = || (0, Err("probe panicked".to_string()));
        std::thread::scope(|s| {
            let handles: Vec<_> = rest
                .iter()
                .map(|link| s.spawn(move || probe(link)))
                .collect();
            let inline = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| probe(last)))
                .unwrap_or_else(|_| panicked());
            let mut gathered: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| panicked()))
                .collect();
            gathered.push(inline);
            gathered
        })
    }

    /// The shared tail of every query path: sort, truncate to `k`,
    /// account, and absorb the request's counters.
    fn finish(
        &self,
        epoch: u64,
        completion: Completion,
        evaluated: usize,
        mut answers: Vec<ProductAnswer>,
        k: usize,
        mut rec: QueryMetrics,
    ) -> Result<QueryResponse, SkyupError> {
        answers.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.index.cmp(&b.index)));
        answers.truncate(k);
        rec.incr(Counter::ResultsEmitted, answers.len() as u64);
        if !completion.is_exact() {
            rec.bump(Counter::LimitInterrupts);
        }
        self.metrics.lock().unwrap().absorb(&rec);
        Ok(QueryResponse {
            epoch,
            completion,
            evaluated,
            results: answers,
        })
    }

    /// Routes a client mutation through the two-phase publish. Returns
    /// an outcome under the *global* epoch (the per-shard engine
    /// details — rebuilt, evicted — come from the owning shard's flip).
    pub fn mutate(&self, m: Mutation) -> Result<MutationOutcome, SkyupError> {
        let mut state = self.state.write().unwrap();
        match m {
            Mutation::AddCompetitor(point) => {
                if point.len() != self.dims {
                    return Err(SkyupError::InvalidInput(format!(
                        "competitor has {} coordinates, expected {}",
                        point.len(),
                        self.dims
                    )));
                }
                if point.iter().any(|v| !v.is_finite()) {
                    return Err(SkyupError::InvalidInput(
                        "competitor coordinates must be finite".into(),
                    ));
                }
                let owner = self.partition.shard_of(&point);
                let cid = state.next_cid;
                let epoch = state.epoch + 1;
                let owner_ack = self.publish(epoch, owner, StagedOp::Add { cid, point })?;
                state.epoch = epoch;
                state.next_cid = cid + 1;
                state.owner_of.insert(cid, owner);
                Ok(MutationOutcome {
                    epoch,
                    cid: Some(cid),
                    removed: false,
                    rebuilt: owner_ack.as_ref().is_some_and(|o| o.rebuilt),
                    evicted: owner_ack.as_ref().map_or(0, |o| o.evicted),
                })
            }
            Mutation::RemoveCompetitor(cid) => {
                let Some(&owner) = state.owner_of.get(&cid) else {
                    // A no-op remove publishes nothing, exactly like a
                    // single engine: the epoch does not advance.
                    return Ok(MutationOutcome {
                        epoch: state.epoch,
                        cid: None,
                        removed: false,
                        rebuilt: false,
                        evicted: 0,
                    });
                };
                let epoch = state.epoch + 1;
                let owner_ack = self.publish(epoch, owner, StagedOp::Remove { cid })?;
                state.epoch = epoch;
                state.owner_of.remove(&cid);
                Ok(MutationOutcome {
                    epoch,
                    cid: None,
                    removed: true,
                    rebuilt: owner_ack.as_ref().is_some_and(|o| o.rebuilt),
                    evicted: owner_ack.as_ref().map_or(0, |o| o.evicted),
                })
            }
            Mutation::AddCompetitorWithCid(..) => Err(SkyupError::InvalidInput(
                "the coordinator owns the competitor id sequence; use a plain add".into(),
            )),
        }
    }

    /// The two-phase publish of `epoch`, with `op` staged on `owner`
    /// and pure bumps elsewhere. Called under the state write-lock.
    /// A stage failure aborts pre-commit (error, epoch unchanged); once
    /// every stage acked, the publish is committed and flip failures
    /// are left to repair-on-read.
    fn publish(
        &self,
        epoch: u64,
        owner: u32,
        op: StagedOp,
    ) -> Result<Option<MutationOutcome>, SkyupError> {
        for (k, link) in self.links.iter().enumerate() {
            let slice = (k as u32 == owner).then_some(&op);
            let (nanos, staged) = timed(|| link.stage(epoch, slice));
            self.latency[k].lock().unwrap().stage.record(nanos);
            staged.map_err(|e| {
                SkyupError::InvalidInput(format!(
                    "stage epoch {epoch} on shard {k} ({}): {e}",
                    link.describe()
                ))
            })?;
        }
        let mut rec = self.metrics.lock().unwrap();
        rec.incr(Counter::StageAcks, self.links.len() as u64);
        rec.bump(Counter::EpochFlips);
        drop(rec);

        let mut owner_ack = None;
        for (k, link) in self.links.iter().enumerate() {
            for attempt in 1..=FLIP_ATTEMPTS {
                let (nanos, flipped) = timed(|| link.flip(epoch));
                self.latency[k].lock().unwrap().flip.record(nanos);
                match flipped {
                    Ok(ack) => {
                        if k as u32 == owner {
                            owner_ack = ack.outcome;
                        }
                        break;
                    }
                    Err(e) if attempt == FLIP_ATTEMPTS => {
                        // Committed anyway: the next gather that sees
                        // this shard's stale label re-issues the flip.
                        eprintln!(
                            "flip epoch {epoch} on shard {k} ({}) failed after \
                             {FLIP_ATTEMPTS} attempts: {e}; deferring to repair-on-read",
                            link.describe()
                        );
                    }
                    Err(_) => {}
                }
            }
        }
        Ok(owner_ack)
    }

    /// The health line: global epoch plus per-shard reachability.
    pub fn health_json(&self) -> String {
        let epoch = self.state.read().unwrap().epoch;
        let shards = self
            .links
            .iter()
            .map(|l| (l.describe(), l.reachable()))
            .collect();
        render_health(epoch, 0, None, &Topology::Coordinator { shards })
    }

    /// The stats line: topology shape and the scatter/gather counters.
    pub fn stats_json(&self) -> String {
        let (epoch, next_cid, live) = {
            let s = self.state.read().unwrap();
            (s.epoch, s.next_cid, s.owner_of.len() as u64)
        };
        let m = self.metrics();
        let counters = Json::obj(
            [
                Counter::ScatterProbes,
                Counter::GatherPoints,
                Counter::MergeDropped,
                Counter::StageAcks,
                Counter::EpochFlips,
                Counter::ResultsEmitted,
                Counter::LimitInterrupts,
            ]
            .iter()
            .map(|&c| (c.name(), Json::Uint(m.get(c))))
            .collect(),
        );
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("epoch", Json::Uint(epoch)),
            ("shards", Json::Uint(self.links.len() as u64)),
            ("next_cid", Json::Uint(next_cid)),
            ("live", Json::Uint(live)),
            ("counters", counters),
        ])
        .render()
    }

    /// The metrics line: scatter/gather counters plus per-shard latency
    /// attribution (cumulative and rolling histograms) of every probe,
    /// stage and flip round trip, retries included.
    pub fn metrics_json(&self) -> String {
        let m = self.metrics();
        let counters = Json::obj(
            Counter::ALL
                .iter()
                .filter(|&&c| m.get(c) > 0)
                .map(|&c| (c.name(), Json::Uint(m.get(c))))
                .collect(),
        );
        let shards = self
            .links
            .iter()
            .zip(&self.latency)
            .enumerate()
            .map(|(k, (link, lat))| {
                let lat = lat.lock().unwrap();
                Json::obj(vec![
                    ("shard", Json::Uint(k as u64)),
                    ("target", Json::Str(link.describe())),
                    ("probe_latency_ns", lat.probe.to_json()),
                    ("stage_latency_ns", lat.stage.to_json()),
                    ("flip_latency_ns", lat.flip.to_json()),
                ])
            })
            .collect();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("counters", counters),
            ("shards", Json::Arr(shards)),
        ])
        .render()
    }
}

/// The coordinator role behind the NDJSON front door: clients speak the
/// exact same `query`/`add`/`remove`/`stats`/`health`/`metrics` verbs a
/// single server answers, so pointing `skyup query --connect` at a
/// coordinator Just Works.
#[derive(Clone)]
pub struct CoordinatorDispatch(pub Arc<Coordinator<TcpLink>>);

impl Dispatch for CoordinatorDispatch {
    fn dispatch(&self, req: Request) -> String {
        match req {
            Request::Query(q) => match self.0.query(&q) {
                Ok(resp) => render_query_response(&resp),
                Err(err) => render_skyup_error(&err),
            },
            Request::Add(point) => match self.0.mutate(Mutation::AddCompetitor(point)) {
                Ok(out) => render_mutation_outcome(&out),
                Err(err) => render_skyup_error(&err),
            },
            Request::Remove(cid) => match self.0.mutate(Mutation::RemoveCompetitor(cid)) {
                Ok(out) => render_mutation_outcome(&out),
                Err(err) => render_skyup_error(&err),
            },
            Request::Stats => self.0.stats_json(),
            Request::Health => self.0.health_json(),
            Request::Metrics => self.0.metrics_json(),
            Request::Trace(_) => render_error("tracing is shard-local; ask a shard directly"),
            Request::Stage { .. } | Request::Flip { .. } | Request::LocalProbe(_) => {
                render_error("the coordinator issues shard verbs; it does not serve them")
            }
            Request::Shutdown => unreachable!("the line loop handles shutdown"),
        }
    }

    fn on_stop(&self) {
        // Shards are separate processes with their own lifecycles; a
        // coordinator shutdown deliberately leaves them serving.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::CostSpec;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A loopback stand-in for a shard process that answers every
    /// request line with `reply`, or never answers when `reply` is
    /// `None` (a wedged shard that still accepts connections).
    fn scripted_shard(reply: Option<&'static str>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let mut wedged = Vec::new();
            for stream in listener.incoming().flatten() {
                let Some(reply) = reply else {
                    wedged.push(stream);
                    continue;
                };
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().unwrap();
                    for line in BufReader::new(stream).lines() {
                        if line.is_err() || writeln!(writer, "{reply}").is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    fn one_product_query(deadline: Duration) -> QueryRequest {
        QueryRequest {
            products: vec![vec![0.9, 0.9]],
            k: 1,
            cost: CostSpec::Reciprocal(1e-3),
            max_products: None,
            deadline: Some(deadline),
        }
    }

    #[test]
    fn wedged_shard_degrades_a_deadlined_query_instead_of_hanging_it() {
        let mut seed = PointStore::new(2);
        seed.push(&[0.2, 0.4]);
        let links = vec![TcpLink::new(&scripted_shard(None))];
        let coord = Coordinator::new(links, Partition::new(1).unwrap(), &seed).unwrap();
        // At the grace floor the reply wait is exactly twice the deadline.
        let deadline = MIN_PROBE_REPLY_GRACE;
        // The query runs on its own thread so a regression fails here
        // instead of hanging the test binary.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(coord.query(&one_product_query(deadline)));
        });
        let resp = rx
            .recv_timeout(deadline * 3)
            .expect("a wedged shard must not hold a deadlined query past twice its deadline")
            .unwrap();
        assert_eq!(resp.completion, Completion::Partial(Interrupt::Overloaded));
        assert_eq!(resp.evaluated, 0);
    }

    #[test]
    fn a_short_deadline_outlasts_the_reply_leg_stall() {
        // The scripted shard's `writeln!` on a raw socket sends the
        // line and its newline as two writes, like a shard's
        // `write_line`, so the newline can wait for a delayed ACK. A
        // healthy shard must still count as healthy under a deadline
        // far shorter than that stall, on every reuse of the pooled
        // connection.
        let mut seed = PointStore::new(2);
        seed.push(&[0.2, 0.4]);
        let reply = r#"{"ok": true, "epoch": 0, "completion": "exact", "evaluated": 1, "dominators": [[[0, [0.2, 0.4]]]]}"#;
        let links = vec![TcpLink::new(&scripted_shard(Some(reply)))];
        let coord = Coordinator::new(links, Partition::new(1).unwrap(), &seed).unwrap();
        for round in 0..10 {
            let resp = coord
                .query(&one_product_query(Duration::from_millis(5)))
                .unwrap();
            assert_eq!(resp.completion, Completion::Exact, "round {round}");
            assert_eq!(resp.evaluated, 1, "round {round}");
            assert_eq!(resp.results.len(), 1, "round {round}");
        }
    }

    #[test]
    fn health_reads_the_top_level_ok_not_a_nested_one() {
        let nested = scripted_shard(Some(r#"{"detail": {"ok": true}, "ok": false}"#));
        assert!(!TcpLink::new(&nested).reachable());
        let healthy = scripted_shard(Some(r#"{"ok": true, "role": "shard"}"#));
        assert!(TcpLink::new(&healthy).reachable());
    }
}

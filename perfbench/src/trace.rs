//! The traced run: an in-process, single-threaded replay of a prefix of
//! a workload's operation stream, with a span around each call into a
//! layer's public functions.
//!
//! Spans live in memory (name, start, end, parent, request id) and are
//! written out when the run ends. Every root span obeys the
//! conservation law `Σ child durations + unattributed = span duration`
//! with `unattributed ≥ 0` and children nested and disjoint; a violation
//! fails the run.

use crate::gen::{self, Op, OpStream, QUERY_COST};
use crate::served::{store_of, Segment, FSYNC};
use crate::stats::{median, ratio};
use skyup_core::{dominators_from_skyline, upgrade_single, UpgradeConfig};
use skyup_geom::PointStore;
use skyup_obs::{Counter, QueryMetrics};
use skyup_serve::proto::{
    parse_cost, parse_request, render_mutation_outcome, render_query_response, Request,
};
use skyup_serve::{
    execute_query, Coordinator, Engine, EngineConfig, FsyncPolicy, LocalLink, Mutation, Partition,
    ProbeRequest, ServeConfig, ServeHandle, ShardState, WalConfig,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Records spans when `on`; otherwise costs one branch per call, so the
/// same replay code measures the tracing overhead.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let now = self.now();
        self.spans[id].end = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in stack order");
    }

    pub fn rename(&mut self, id: usize, name: &'static str) {
        if self.on {
            self.spans[id].name = name;
        }
    }

    /// Checks the conservation law on every root span; returns the
    /// violations and `(Σ unattributed, Σ root duration)` in nanos.
    pub fn conservation(&self) -> (Vec<String>, u64, u64) {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut bad = Vec::new();
        let (mut unattributed, mut total) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &c in &children[i] {
                let cs = &self.spans[c];
                if cs.start < cursor || cs.end > s.end || cs.end < cs.start {
                    bad.push(format!(
                        "{} #{} escapes or overlaps in {} #{}",
                        cs.name, c, s.name, i
                    ));
                }
                cursor = cs.end;
                covered += cs.end - cs.start;
            }
            if covered > dur {
                bad.push(format!(
                    "{} #{i}: children cover {covered} ns of {dur} ns",
                    s.name
                ));
            }
            if s.parent.is_none() {
                unattributed += dur.saturating_sub(covered);
                total += dur;
            }
        }
        (bad, unattributed, total)
    }

    /// Durations in microseconds of the spans named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    }

    /// Per-name count, total self time and median duration.
    pub fn table(&self) -> String {
        let mut child_time = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut by: BTreeMap<&str, (u64, u64, Vec<f64>)> = BTreeMap::new();
        let mut all_self = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            let own = dur - child_time[i].min(dur);
            all_self += own;
            let e = by.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
            e.2.push(dur as f64 / 1e3);
        }
        let mut out = format!(
            "{:<24} {:>7} {:>12} {:>7} {:>12}\n",
            "layer", "spans", "self_ms", "self%", "p50_us"
        );
        for (name, (n, own, durs)) in by {
            let _ = writeln!(
                out,
                "{:<24} {:>7} {:>12.3} {:>6.1}% {:>12.2}",
                name,
                n,
                own as f64 / 1e6,
                100.0 * ratio(own as f64, all_self as f64),
                median(&durs)
            );
        }
        out
    }

    pub fn tsv(&self) -> String {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\treq\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.req
            );
        }
        out
    }
}

/// The first `per_segment` operations of each segment, as connection 0
/// of a single-connection stream, with `add` acks assigned the ids a
/// single engine would give them.
pub fn replay_ops(seed: u64, segments: &[Segment], seed_len: usize, per_segment: usize) -> Vec<Op> {
    let mut next_cid = seed_len as u64;
    let mut ops = Vec::new();
    for seg in segments {
        let mut stream = OpStream::new(
            seed,
            seg.tag,
            0,
            1,
            seed_len,
            seg.reads.clone(),
            seg.write_share,
        );
        for _ in 0..per_segment {
            let op = stream.next_op();
            if let Op::Add(_) = op {
                stream.on_add_ack(next_cid);
                next_cid += 1;
            }
            ops.push(op);
        }
    }
    ops
}

fn wal_cfg(dir: &Path) -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::parse(FSYNC).expect("FSYNC parses"),
        checkpoint_every: crate::served::CHECKPOINT_EVERY.parse().expect("a number"),
        ..WalConfig::new(dir)
    }
}

/// What the engine replay measured besides its spans.
#[derive(Default)]
pub struct EngineReplay {
    pub wall_s: f64,
    pub resp_bytes: Vec<f64>,
    pub dominators_per_product: Vec<f64>,
    pub kernel_scans: u64,
    pub kernel_skipped: u64,
    pub skyline_len: usize,
    pub replayed: u64,
    pub recover_s: f64,
}

/// Replays `ops` through `Engine` (as `skyup serve` runs it, WAL
/// attached): parse → execute_query / apply → render per request, and
/// per queried product the pinned-snapshot decomposition
/// dominators_from_skyline → upgrade_single plus a cache-hit
/// `answer_product`. Then recovers the WAL with `Engine::recover`.
pub fn replay_engine(
    tr: &mut Tracer,
    competitors: &[Vec<f64>],
    ops: &[Op],
    wal_dir: &Path,
) -> Result<EngineReplay, String> {
    let mut out = EngineReplay::default();
    let cfg = EngineConfig::default();
    let engine = Engine::with_durability(store_of(competitors), cfg, wal_cfg(wal_dir))
        .map_err(|e| e.to_string())?;
    let spec = parse_cost(QUERY_COST).expect("query cost parses");
    let cost_fn = spec.cost_fn(gen::DIMS);
    let upgrade_cfg = UpgradeConfig::default();
    let mut rec = QueryMetrics::new();
    let t0 = Instant::now();
    for (r, op) in ops.iter().enumerate() {
        let r = r as u64;
        let line = gen::render(op);
        let root = tr.begin("request", r);
        let s = tr.begin("proto.parse", r);
        let req = parse_request(&line);
        tr.end(s);
        let rendered = match req {
            Ok(Request::Query(q)) => {
                let s = tr.begin("engine.execute_query", r);
                let resp = execute_query(&engine, &q);
                tr.end(s);
                let resp = resp.map_err(|e| e.to_string())?;
                let s = tr.begin("proto.render", r);
                let text = render_query_response(&resp);
                tr.end(s);
                text
            }
            Ok(Request::Add(p)) => apply(tr, &engine, Mutation::AddCompetitor(p), r)?,
            Ok(Request::Remove(cid)) => apply(tr, &engine, Mutation::RemoveCompetitor(cid), r)?,
            _ => return Err(format!("replay cannot parse {line}")),
        };
        tr.end(root);
        out.resp_bytes.push(rendered.len() as f64);

        if let Op::Query(products) = op {
            let snap = engine.snapshot();
            for t in products {
                let root = tr.begin("product", r);
                let s = tr.begin("core.dominators", r);
                let doms = dominators_from_skyline(snap.store(), snap.skyline(), t, &mut rec);
                tr.end(s);
                let s = tr.begin("core.upgrade", r);
                let up = upgrade_single(snap.store(), &doms, t, &cost_fn, &upgrade_cfg);
                tr.end(s);
                let s = tr.begin("engine.answer_hit", r);
                let mut hit = QueryMetrics::new();
                let a =
                    engine.answer_product(&snap, t, &cost_fn, spec.tag(), &upgrade_cfg, &mut hit);
                tr.end(s);
                tr.end(root);
                if a.cost.to_bits() != up.0.to_bits() {
                    return Err(format!(
                        "answer_product and upgrade_single disagree on {t:?}"
                    ));
                }
                out.dominators_per_product.push(doms.len() as f64);
            }
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.kernel_scans = rec.get(Counter::KernelBlockScans);
    out.kernel_skipped = rec.get(Counter::KernelBlocksSkipped);
    out.skyline_len = engine.snapshot().skyline().len();
    engine.flush_wal().map_err(|e| e.to_string())?;
    drop(engine);

    let t0 = Instant::now();
    let recovered = Engine::recover(cfg, wal_cfg(wal_dir)).map_err(|e| e.to_string())?;
    out.recover_s = t0.elapsed().as_secs_f64();
    out.replayed = recovered.durability().map_or(0, |d| d.recovery.replayed);
    Ok(out)
}

/// Times one compaction rebuild over `competitors`: removes competitors
/// from a fresh engine (no WAL) until the degradation heuristic fires,
/// and records that `Engine::apply` as an `engine.rebuild` span. The
/// served streams mutate too slowly to reach a rebuild in a run.
pub fn replay_rebuild(tr: &mut Tracer, competitors: &[Vec<f64>]) -> Result<(), String> {
    let engine = Engine::with_competitors(store_of(competitors), EngineConfig::default());
    for cid in 0..competitors.len() as u64 {
        let s = tr.begin("engine.apply", cid);
        let outcome = engine.apply(Mutation::RemoveCompetitor(cid));
        tr.end(s);
        if outcome.map_err(|e| e.to_string())?.rebuilt {
            tr.rename(s, "engine.rebuild");
            return Ok(());
        }
    }
    Err("removing every competitor never triggered a rebuild".into())
}

fn apply(tr: &mut Tracer, engine: &Engine, m: Mutation, r: u64) -> Result<String, String> {
    let s = tr.begin("engine.apply", r);
    let outcome = engine.apply(m);
    tr.end(s);
    let outcome = outcome.map_err(|e| e.to_string())?;
    if outcome.rebuilt {
        tr.rename(s, "engine.rebuild");
    }
    let s = tr.begin("proto.render", r);
    let text = render_mutation_outcome(&outcome);
    tr.end(s);
    Ok(text)
}

/// What the coordinator replay measured besides its spans.
#[derive(Default)]
pub struct CoordinatorReplay {
    pub gather_points: u64,
    pub merge_dropped: u64,
}

/// Replays `ops` through a `Coordinator` over two in-process shards
/// (`LocalLink`), and probes each shard directly with every query's
/// products.
pub fn replay_coordinator(
    tr: &mut Tracer,
    competitors: &[Vec<f64>],
    ops: &[Op],
) -> Result<CoordinatorReplay, String> {
    let store: PointStore = store_of(competitors);
    let partition = Partition::new(2).map_err(|e| e.to_string())?;
    let mut states = Vec::new();
    for id in 0..2 {
        let (slab, cid_of) = partition.shard_seed(&store, id);
        let engine = Engine::with_identified_competitors(
            slab,
            cid_of,
            store.len() as u64,
            EngineConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let cfg = ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        };
        states.push(Arc::new(ShardState::new(
            ServeHandle::start(Arc::new(engine), cfg),
            id,
            2,
        )));
    }
    let links = states.iter().map(|s| LocalLink(Arc::clone(s))).collect();
    let result = (|| -> Result<CoordinatorReplay, String> {
        let coord = Coordinator::new(links, partition, &store).map_err(|e| e.to_string())?;
        for (r, op) in ops.iter().enumerate() {
            let r = r as u64;
            let root = tr.begin("request", r);
            match op {
                Op::Query(products) => {
                    let Ok(Request::Query(q)) = parse_request(&gen::render(op)) else {
                        return Err("replay query does not parse".into());
                    };
                    let s = tr.begin("coordinator.query", r);
                    let resp = coord.query(&q);
                    tr.end(s);
                    tr.end(root);
                    resp.map_err(|e| e.to_string())?;
                    let probe = ProbeRequest {
                        products: products.clone(),
                        deadline: None,
                    };
                    let root = tr.begin("probe", r);
                    for state in &states {
                        let s = tr.begin("shard.probe", r);
                        let _ = state.probe(&probe);
                        tr.end(s);
                    }
                    tr.end(root);
                }
                Op::Add(p) => {
                    mutate(tr, &coord, Mutation::AddCompetitor(p.clone()), r)?;
                    tr.end(root);
                }
                Op::Remove(cid) => {
                    mutate(tr, &coord, Mutation::RemoveCompetitor(*cid), r)?;
                    tr.end(root);
                }
            }
        }
        let m = coord.metrics();
        Ok(CoordinatorReplay {
            gather_points: m.get(Counter::GatherPoints),
            merge_dropped: m.get(Counter::MergeDropped),
        })
    })();
    for s in &states {
        s.handle().shutdown();
    }
    result
}

fn mutate<L: skyup_serve::ShardLink>(
    tr: &mut Tracer,
    coord: &Coordinator<L>,
    m: Mutation,
    r: u64,
) -> Result<(), String> {
    let s = tr.begin("coordinator.mutate", r);
    let out = coord.mutate(m);
    tr.end(s);
    out.map(|_| ()).map_err(|e| e.to_string())
}

//! Property suite for the sharded topology.
//!
//! The anchor claim of the scatter/gather design: a coordinator over N
//! partition shards is *bit-identical* to a single engine holding the
//! full competitor set at the same epoch — for every shard count, at
//! every epoch of a long mutation/query interleaving, across
//! mid-stream shard rebuilds, and under injected faults (dropped
//! flip-acks, truncated probes, unreachable shards) the answer is
//! either byte-for-byte the oracle's or an honestly-labelled partial —
//! never a wrong exact answer.

use skyup_data::rng::Rng;
use skyup_data::synthetic::{generate, Distribution, SyntheticConfig};
use skyup_geom::PointStore;
use skyup_obs::json::Json;
use skyup_obs::{Completion, Interrupt};
use skyup_serve::proto::render_query_response;
use skyup_serve::{
    execute_query, Coordinator, CostSpec, Engine, EngineConfig, FlipAck, LocalLink, Mutation,
    Partition, ProbeRequest, ProbeResponse, QueryRequest, ServeConfig, ServeHandle, ShardLink,
    ShardState, StagedOp,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A [`LocalLink`] with fault injection taps, so one coordinator type
/// covers the healthy path and every failure-matrix row.
#[derive(Clone)]
struct TestLink {
    inner: LocalLink,
    /// Fail every `stage` call (pre-commit abort path).
    fail_stage: Arc<AtomicBool>,
    /// Fail every `flip` call (lost flip-ack path).
    drop_flips: Arc<AtomicBool>,
    /// Fail every `probe` call (unreachable-shard path).
    fail_probe: Arc<AtomicBool>,
    /// Truncate probes to this many evaluated products, tagging them
    /// `Partial(DeadlineExceeded)` (`usize::MAX` = off).
    truncate: Arc<AtomicUsize>,
}

impl TestLink {
    fn healthy(state: Arc<ShardState>) -> TestLink {
        TestLink {
            inner: LocalLink(state),
            fail_stage: Arc::new(AtomicBool::new(false)),
            drop_flips: Arc::new(AtomicBool::new(false)),
            fail_probe: Arc::new(AtomicBool::new(false)),
            truncate: Arc::new(AtomicUsize::new(usize::MAX)),
        }
    }
}

impl ShardLink for TestLink {
    fn stage(&self, epoch: u64, op: Option<&StagedOp>) -> Result<u64, String> {
        if self.fail_stage.load(Ordering::SeqCst) {
            return Err("injected: stage dropped".into());
        }
        self.inner.stage(epoch, op)
    }

    fn flip(&self, epoch: u64) -> Result<FlipAck, String> {
        if self.drop_flips.load(Ordering::SeqCst) {
            return Err("injected: flip-ack lost".into());
        }
        self.inner.flip(epoch)
    }

    fn probe(&self, req: &ProbeRequest) -> Result<ProbeResponse, String> {
        if self.fail_probe.load(Ordering::SeqCst) {
            return Err("injected: shard unreachable".into());
        }
        let mut resp = self.inner.probe(req)?;
        let cut = self.truncate.load(Ordering::SeqCst);
        if resp.evaluated > cut {
            resp.evaluated = cut;
            resp.dominators.truncate(cut);
            resp.completion = Completion::Partial(Interrupt::DeadlineExceeded);
        }
        Ok(resp)
    }

    fn reachable(&self) -> bool {
        !self.fail_probe.load(Ordering::SeqCst)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

fn seed_store(n: usize, dims: usize) -> PointStore {
    // Anti-correlated: large skylines, so per-shard skylines overlap in
    // dominance and the merge filter actually drops points.
    generate(
        n,
        &SyntheticConfig::unit(dims, Distribution::AntiCorrelated, 0x5AD5),
    )
}

/// An aggressive rebuild threshold so compaction renumbers rows many
/// times mid-stream — the bit-identity claim must survive it on both
/// the shards and the oracle.
fn engine_cfg() -> EngineConfig {
    EngineConfig {
        rebuild_min_dead: 4,
        ..EngineConfig::default()
    }
}

/// Spawns `shards` shard servers seeded from slabs of `store` and
/// returns fault-injectable links plus the states (for label asserts
/// and shutdown).
fn make_topology(store: &PointStore, shards: u32) -> (Vec<TestLink>, Vec<Arc<ShardState>>) {
    let partition = Partition::new(shards).unwrap();
    let mut links = Vec::new();
    let mut states = Vec::new();
    for id in 0..shards {
        let (slab, cid_of) = partition.shard_seed(store, id);
        let engine =
            Engine::with_identified_competitors(slab, cid_of, store.len() as u64, engine_cfg())
                .unwrap();
        let state = Arc::new(ShardState::new(
            ServeHandle::start(Arc::new(engine), ServeConfig::default()),
            id,
            shards,
        ));
        links.push(TestLink::healthy(Arc::clone(&state)));
        states.push(state);
    }
    (links, states)
}

fn shutdown(states: &[Arc<ShardState>]) {
    for s in states {
        s.handle().shutdown();
    }
}

fn random_point(rng: &mut Rng, dims: usize) -> Vec<f64> {
    (0..dims).map(|_| rng.range_f64(0.05, 1.1)).collect()
}

fn random_request(rng: &mut Rng, dims: usize) -> QueryRequest {
    let n_products = 1 + rng.range_usize(3);
    QueryRequest {
        products: (0..n_products).map(|_| random_point(rng, dims)).collect(),
        k: 1 + rng.range_usize(3),
        cost: if rng.range_usize(3) == 0 {
            CostSpec::Linear(2.0)
        } else {
            CostSpec::Reciprocal(1e-3)
        },
        // Budget-cut partials must be bit-identical too (admission is
        // replayed, not timed); deadlines are exercised separately —
        // their cut point is inherently nondeterministic.
        max_products: (rng.range_usize(6) == 0).then(|| rng.range_usize(3) as u64),
        deadline: None,
    }
}

/// A request guaranteed to reach the scatter (no admission budget that
/// could cut it to zero products first) — the fault-injection tests
/// need the gather path itself to run.
fn unbudgeted_request(rng: &mut Rng, dims: usize) -> QueryRequest {
    QueryRequest {
        max_products: None,
        ..random_request(rng, dims)
    }
}

/// The tentpole anchor: a 10k-op mutation/query interleaving, replayed
/// against a single-engine oracle, at shard counts 1, 2, and 4. Every
/// query response must render byte-identically; every mutation ack must
/// agree on epoch, assigned cid, and removal (the per-shard `rebuilt`/
/// `evicted` engine details legitimately differ).
#[test]
fn coordinator_is_bit_identical_to_single_engine_across_shard_counts() {
    let dims = 3;
    let store = seed_store(120, dims);
    for shards in [1u32, 2, 4] {
        let (links, states) = make_topology(&store, shards);
        let coordinator = Coordinator::new(links, Partition::new(shards).unwrap(), &store).unwrap();
        let oracle = Engine::with_competitors(store.clone(), engine_cfg());

        let mut rng = Rng::seed_from_u64(0x5ca77e4 + shards as u64);
        let mut live: Vec<u64> = (0..store.len() as u64).collect();
        for op in 0..10_000 {
            match rng.range_usize(10) {
                // Add a competitor.
                0..=3 => {
                    let point = random_point(&mut rng, dims);
                    let got = coordinator
                        .mutate(Mutation::AddCompetitor(point.clone()))
                        .unwrap();
                    let want = oracle.apply(Mutation::AddCompetitor(point)).unwrap();
                    assert_eq!(got.epoch, want.epoch, "shards={shards} op={op}: add epoch");
                    assert_eq!(got.cid, want.cid, "shards={shards} op={op}: assigned cid");
                    live.push(got.cid.unwrap());
                }
                // Remove a live competitor — or, sometimes, a spent cid
                // (the no-op path must not publish an epoch).
                4..=5 => {
                    let cid = if rng.range_usize(8) == 0 || live.is_empty() {
                        u64::MAX
                    } else {
                        live.swap_remove(rng.range_usize(live.len()))
                    };
                    let got = coordinator.mutate(Mutation::RemoveCompetitor(cid)).unwrap();
                    let want = oracle.apply(Mutation::RemoveCompetitor(cid)).unwrap();
                    assert_eq!(got.epoch, want.epoch, "shards={shards} op={op}: rm epoch");
                    assert_eq!(
                        got.removed, want.removed,
                        "shards={shards} op={op}: removed"
                    );
                }
                // Query.
                _ => {
                    let req = random_request(&mut rng, dims);
                    let got = coordinator.query(&req).unwrap();
                    let want = execute_query(&oracle, &req).unwrap();
                    assert_eq!(
                        render_query_response(&got),
                        render_query_response(&want),
                        "shards={shards} op={op}: rendered response"
                    );
                }
            }
        }
        assert_eq!(coordinator.epoch(), oracle.snapshot().epoch());
        for state in &states {
            assert_eq!(state.label(), coordinator.epoch(), "published labels agree");
        }
        shutdown(&states);
    }
}

/// Failure-matrix row: a shard whose probe deadline fires answers a
/// shorter prefix; the gathered answer is cut to that prefix, labelled
/// partial, and the evaluated prefix is byte-identical to the oracle
/// evaluating exactly those products. Never a wrong exact answer.
#[test]
fn shard_deadline_partial_yields_an_exact_prefix() {
    let dims = 3;
    let store = seed_store(90, dims);
    let (links, states) = make_topology(&store, 2);
    let truncate = Arc::clone(&links[1].truncate);
    let coordinator = Coordinator::new(links, Partition::new(2).unwrap(), &store).unwrap();
    let oracle = Engine::with_competitors(store.clone(), engine_cfg());

    let mut rng = Rng::seed_from_u64(0xdead11);
    let req = QueryRequest {
        products: (0..6).map(|_| random_point(&mut rng, dims)).collect(),
        k: 8,
        cost: CostSpec::Reciprocal(1e-3),
        max_products: None,
        deadline: None,
    };
    truncate.store(4, Ordering::SeqCst);
    let got = coordinator.query(&req).unwrap();
    assert_eq!(
        got.completion,
        Completion::Partial(Interrupt::DeadlineExceeded)
    );
    assert_eq!(got.evaluated, 4, "cut to the slow shard's prefix");

    // The partial must agree byte-for-byte with the oracle run on the
    // surviving prefix (modulo the completion tag, which the oracle —
    // given only 4 products — reports as exact).
    let prefix = QueryRequest {
        products: req.products[..4].to_vec(),
        ..req.clone()
    };
    let want = execute_query(&oracle, &prefix).unwrap();
    assert_eq!(got.epoch, want.epoch);
    assert_eq!(got.results.len(), want.results.len());
    for (g, w) in got.results.iter().zip(&want.results) {
        assert_eq!(g.index, w.index);
        assert_eq!(g.cost.to_bits(), w.cost.to_bits());
        for (a, b) in g.upgraded.iter().zip(&w.upgraded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    // Healthy again: exact and bit-identical end to end.
    truncate.store(usize::MAX, Ordering::SeqCst);
    let got = coordinator.query(&req).unwrap();
    let want = execute_query(&oracle, &req).unwrap();
    assert_eq!(render_query_response(&got), render_query_response(&want));
    shutdown(&states);
}

/// Failure-matrix row: an unreachable shard degrades the gather to an
/// empty, honestly-labelled partial — the coordinator cannot prove any
/// dominator set complete without every slab.
#[test]
fn unreachable_shard_degrades_to_empty_partial() {
    let dims = 3;
    let store = seed_store(60, dims);
    let (links, states) = make_topology(&store, 2);
    let fail_probe = Arc::clone(&links[0].fail_probe);
    let coordinator = Coordinator::new(links, Partition::new(2).unwrap(), &store).unwrap();

    let mut rng = Rng::seed_from_u64(0xdead22);
    let req = unbudgeted_request(&mut rng, dims);
    fail_probe.store(true, Ordering::SeqCst);
    let got = coordinator.query(&req).unwrap();
    assert_eq!(got.completion, Completion::Partial(Interrupt::Overloaded));
    assert_eq!(got.evaluated, 0);
    assert!(got.results.is_empty());
    assert_eq!(got.epoch, coordinator.epoch());

    fail_probe.store(false, Ordering::SeqCst);
    let oracle = Engine::with_competitors(store.clone(), engine_cfg());
    let got = coordinator.query(&req).unwrap();
    let want = execute_query(&oracle, &req).unwrap();
    assert_eq!(render_query_response(&got), render_query_response(&want));
    shutdown(&states);
}

/// Failure-matrix row: every flip-ack to one shard is lost *after* the
/// stage round committed. The mutation still acks (commit point is the
/// stage round), the lagging shard is repaired by the next gather, and
/// the answer is bit-identical to the oracle at the committed epoch.
#[test]
fn lost_flip_ack_is_repaired_on_read() {
    let dims = 3;
    let store = seed_store(60, dims);
    let (links, states) = make_topology(&store, 2);
    let drop_flips = Arc::clone(&links[0].drop_flips);
    let coordinator = Coordinator::new(links, Partition::new(2).unwrap(), &store).unwrap();
    let oracle = Engine::with_competitors(store.clone(), engine_cfg());

    let mut rng = Rng::seed_from_u64(0xdead33);
    drop_flips.store(true, Ordering::SeqCst);
    let point = random_point(&mut rng, dims);
    let got = coordinator
        .mutate(Mutation::AddCompetitor(point.clone()))
        .unwrap();
    let want = oracle.apply(Mutation::AddCompetitor(point)).unwrap();
    assert_eq!(got.epoch, want.epoch, "committed at the stage round");
    assert_eq!(got.cid, want.cid);
    assert_eq!(states[0].label(), got.epoch - 1, "shard 0 missed its flip");

    // The network heals; the very next query repairs shard 0 in-line
    // and must already be bit-identical.
    drop_flips.store(false, Ordering::SeqCst);
    let req = unbudgeted_request(&mut rng, dims);
    let got_q = coordinator.query(&req).unwrap();
    let want_q = execute_query(&oracle, &req).unwrap();
    assert_eq!(
        render_query_response(&got_q),
        render_query_response(&want_q)
    );
    assert_eq!(states[0].label(), got.epoch, "repaired on read");

    // The metrics verb attributes every round trip to its shard and
    // verb: one stage each, three flip attempts on the lossy shard, one
    // probe each (the in-line repair is charged to the probe).
    let metrics = skyup_obs::json::parse(&coordinator.metrics_json()).unwrap();
    let Some(Json::Arr(shards)) = metrics.get("shards") else {
        panic!("metrics lacks per-shard latencies: {metrics:?}");
    };
    let count = |k: usize, verb: &str| {
        shards[k]
            .get(verb)
            .and_then(|h| h.get("cumulative"))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("shard {k} lacks {verb}"))
    };
    for (k, flips) in [(0, 3), (1, 1)] {
        assert_eq!(count(k, "stage_latency_ns"), 1, "shard {k} stages");
        assert_eq!(count(k, "flip_latency_ns"), flips, "shard {k} flips");
        assert_eq!(count(k, "probe_latency_ns"), 1, "shard {k} probes");
    }
    shutdown(&states);
}

/// Failure-matrix row: a stage failure aborts *before* the commit
/// point — the client sees the error, no epoch is published anywhere,
/// and the next publish (which re-stages the same epoch number over the
/// leftovers) keeps the topology bit-identical.
#[test]
fn stage_failure_aborts_cleanly_and_epoch_is_reused() {
    let dims = 3;
    let store = seed_store(60, dims);
    let (links, states) = make_topology(&store, 2);
    let fail_stage = Arc::clone(&links[1].fail_stage);
    let coordinator = Coordinator::new(links, Partition::new(2).unwrap(), &store).unwrap();
    let oracle = Engine::with_competitors(store.clone(), engine_cfg());

    let mut rng = Rng::seed_from_u64(0xdead44);
    let epoch_before = coordinator.epoch();
    fail_stage.store(true, Ordering::SeqCst);
    let point = random_point(&mut rng, dims);
    let err = coordinator
        .mutate(Mutation::AddCompetitor(point))
        .unwrap_err();
    assert!(err.to_string().contains("stage"), "surfaced: {err}");
    assert_eq!(coordinator.epoch(), epoch_before, "pre-commit abort");

    // Shard 0 staged epoch_before+1 and was left hanging; the retry
    // overwrites that staged slot with the new op and commits.
    fail_stage.store(false, Ordering::SeqCst);
    let point = random_point(&mut rng, dims);
    let got = coordinator
        .mutate(Mutation::AddCompetitor(point.clone()))
        .unwrap();
    let want = oracle.apply(Mutation::AddCompetitor(point)).unwrap();
    assert_eq!(got.epoch, want.epoch);
    assert_eq!(got.cid, want.cid);

    let req = unbudgeted_request(&mut rng, dims);
    let got_q = coordinator.query(&req).unwrap();
    let want_q = execute_query(&oracle, &req).unwrap();
    assert_eq!(
        render_query_response(&got_q),
        render_query_response(&want_q)
    );
    shutdown(&states);
}

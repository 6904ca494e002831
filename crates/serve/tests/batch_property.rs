//! Property suite for the query path (every served query is a batch).
//!
//! Three anchors:
//!
//! 1. [`execute_batch`] and [`execute_query`] (a batch of one) against
//!    a test-local sequential reference — [`Snapshot::answer`] per
//!    product over the budgeted prefix, then the `(cost, index)` top-k —
//!    for any mix of requests (multi-product, budgeted, invalid), at
//!    every worker count, hits and misses alike.
//! 2. A [`ServeHandle`] with no admission window and two workers, fed
//!    by concurrent submitters, answers bit-identically to that
//!    reference and traces every query as `query_cold` or
//!    `query_cached`.
//! 3. A live server with a window — concurrent pipelined clients,
//!    interleaved mutations, deadline- and budget-cut requests landing
//!    mid-batch — produces only responses that a cacheless
//!    cold-recompute oracle reproduces bit-for-bit at the response's
//!    epoch. Batching may only change *when* an answer is computed,
//!    never the answer.

use skyup_core::{dominators_from_skyline, upgrade_single, UpgradeConfig};
use skyup_data::rng::Rng;
use skyup_data::synthetic::{generate, Distribution, SyntheticConfig};
use skyup_geom::{PointId, PointStore};
use skyup_obs::json::Json;
use skyup_obs::{Completion, Counter, Interrupt, NullRecorder};
use skyup_serve::{
    execute_batch, execute_query, CompetitorId, CostSpec, Engine, EngineConfig, ProductAnswer,
    QueryRequest, QueryResponse, ServeConfig, ServeHandle,
};
use skyup_skyline::skyline_sfs;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn random_point(rng: &mut Rng, dims: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..dims).map(|_| rng.range_f64(lo, hi)).collect()
}

fn random_request(rng: &mut Rng, dims: usize) -> QueryRequest {
    let n_products = 1 + rng.range_usize(3);
    QueryRequest {
        products: (0..n_products)
            .map(|_| random_point(rng, dims, 0.2, 1.2))
            .collect(),
        k: 1 + rng.range_usize(3),
        cost: if rng.range_usize(3) == 0 {
            CostSpec::Linear(2.0)
        } else {
            CostSpec::Reciprocal(1e-3)
        },
        max_products: (rng.range_usize(5) == 0).then(|| rng.range_usize(3) as u64),
        deadline: None,
    }
}

fn assert_responses_bit_identical(a: &QueryResponse, b: &QueryResponse, what: &str) {
    assert_eq!(a.epoch, b.epoch, "{what}: epoch");
    assert_eq!(a.evaluated, b.evaluated, "{what}: evaluated");
    assert_eq!(
        format!("{:?}", a.completion),
        format!("{:?}", b.completion),
        "{what}: completion"
    );
    assert_eq!(a.results.len(), b.results.len(), "{what}: result count");
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.index, y.index, "{what}: index");
        assert_eq!(x.cost.to_bits(), y.cost.to_bits(), "{what}: cost bits");
        assert_eq!(x.upgraded.len(), y.upgraded.len(), "{what}: dims");
        for (u, v) in x.upgraded.iter().zip(&y.upgraded) {
            assert_eq!(u.to_bits(), v.to_bits(), "{what}: upgraded bits");
        }
    }
}

/// The sequential reference: validate like the server, charge one
/// budget unit per product, answer each product of the prefix with
/// [`skyup_serve::Snapshot::answer`] (the scalar skyline filter and
/// Algorithm 1), sort by `(cost, index)` and keep `k`.
fn sequential_reference(engine: &Engine, req: &QueryRequest) -> Option<QueryResponse> {
    let snap = engine.snapshot();
    let dims = snap.dims();
    if req.k == 0 || req.products.iter().any(|t| t.len() != dims) {
        return None;
    }
    let budget = req.max_products.map_or(usize::MAX, |n| n as usize);
    let evaluated = req.products.len().min(budget);
    let cost_fn = req.cost.cost_fn(dims);
    let mut results: Vec<ProductAnswer> = req.products[..evaluated]
        .iter()
        .enumerate()
        .map(|(index, t)| {
            let a = snap.answer(t, &cost_fn, &UpgradeConfig::default(), &mut NullRecorder);
            ProductAnswer {
                index,
                cost: a.cost,
                upgraded: a.upgraded,
            }
        })
        .collect();
    results.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.index.cmp(&b.index)));
    results.truncate(req.k);
    Some(QueryResponse {
        epoch: snap.epoch(),
        completion: if evaluated == req.products.len() {
            Completion::Exact
        } else {
            Completion::Partial(Interrupt::NodeVisitBudget)
        },
        evaluated,
        results,
    })
}

fn anti_correlated_competitors(dims: usize) -> PointStore {
    // A large skyline, so the dominator memo and the view's hoisted
    // sorts actually engage.
    generate(
        800,
        &SyntheticConfig::unit(dims, Distribution::AntiCorrelated, 11),
    )
}

/// Anchor 1: the batch path and the batch of one against the
/// sequential reference, same engine state, several worker counts,
/// mixed valid/budgeted/invalid requests, cold and cache-warm.
#[test]
fn execute_batch_is_bit_identical_to_the_sequential_reference() {
    let dims = 3;
    let mut rng = Rng::seed_from_u64(0xba7c4);
    let competitors = anti_correlated_competitors(dims);

    let mut reqs: Vec<QueryRequest> = (0..96).map(|_| random_request(&mut rng, dims)).collect();
    // Sprinkle invalid requests: each must fail in its own slot without
    // poisoning the rest of the batch.
    reqs[17].products[0].push(0.5); // wrong dimensionality
    reqs[53].k = 0;

    let reference_engine = Engine::with_competitors(competitors.clone(), EngineConfig::default());
    let expected: Vec<Option<QueryResponse>> = reqs
        .iter()
        .map(|r| sequential_reference(&reference_engine, r))
        .collect();

    let check = |what: &str, want: &Option<QueryResponse>, have: &Result<QueryResponse, _>| match (
        want, have,
    ) {
        (Some(want), Ok(have)) => assert_responses_bit_identical(want, have, what),
        (None, Err(_)) => {}
        (want, have) => panic!("{what}: expected {want:?}, got {have:?}"),
    };
    for threads in [1usize, 2, 4] {
        // Fresh engine per worker count so each run starts from the same
        // cold cache; a second pass then re-runs over the warm cache.
        let engine = Engine::with_competitors(competitors.clone(), EngineConfig::default());
        for pass in ["cold", "warm"] {
            for (chunk_idx, chunk) in reqs.chunks(13).enumerate() {
                let got = execute_batch(&engine, chunk, threads);
                assert_eq!(got.len(), chunk.len());
                for (i, result) in got.iter().enumerate() {
                    let slot = chunk_idx * 13 + i;
                    check(
                        &format!("threads={threads} {pass} slot={slot}"),
                        &expected[slot],
                        result,
                    );
                }
            }
        }
        assert!(
            engine.metrics().get(Counter::CacheHit) > 0,
            "warm pass never hit the cache"
        );
    }
    // The batch of one, on a cold engine and then over its own fills.
    let engine = Engine::with_competitors(competitors, EngineConfig::default());
    for pass in ["cold", "warm"] {
        for (slot, req) in reqs.iter().enumerate() {
            let what = format!("execute_query {pass} slot={slot}");
            check(&what, &expected[slot], &execute_query(&engine, req));
        }
    }
}

/// Anchor 2: the pool itself at window 0. Two workers drain the queue
/// that four concurrent submitters keep full, so batches of one and
/// greedily drained batches both occur; every answer must match the
/// sequential reference, and every query is traced as cold or cached.
#[test]
fn window_zero_pool_matches_the_sequential_reference() {
    const SUBMITTERS: usize = 4;
    const QUERIES_PER_SUBMITTER: usize = 150;
    let dims = 3;
    let competitors = anti_correlated_competitors(dims);
    let reference_engine = Engine::with_competitors(competitors.clone(), EngineConfig::default());
    let engine = Arc::new(Engine::with_competitors(
        competitors,
        EngineConfig::default(),
    ));
    let handle = ServeHandle::start(
        Arc::clone(&engine),
        ServeConfig {
            threads: 2,
            queue_cap: 1024,
            batch_window_us: 0,
            ..ServeConfig::default()
        },
    );

    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|c| {
            let handle = handle.clone();
            let mut rng = Rng::seed_from_u64(0x5eed + c as u64);
            // A small pool, so later queries repeat earlier products and
            // hit the cache.
            let pool: Vec<Vec<f64>> = (0..24)
                .map(|_| random_point(&mut rng, dims, 0.2, 1.2))
                .collect();
            std::thread::spawn(move || {
                let mut tickets = Vec::with_capacity(QUERIES_PER_SUBMITTER);
                for _ in 0..QUERIES_PER_SUBMITTER {
                    let mut req = random_request(&mut rng, dims);
                    req.products = (0..req.products.len())
                        .map(|_| pool[rng.range_usize(pool.len())].clone())
                        .collect();
                    let ticket = handle.query_async(req.clone()).expect("valid query");
                    tickets.push((req, ticket));
                }
                tickets
                    .into_iter()
                    .map(|(req, ticket)| (req, ticket.wait().expect("valid query")))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let responses: Vec<(QueryRequest, QueryResponse)> = submitters
        .into_iter()
        .flat_map(|s| s.join().expect("submitter thread"))
        .collect();
    handle.shutdown();

    for (i, (req, resp)) in responses.iter().enumerate() {
        let want = sequential_reference(&reference_engine, req).expect("valid query");
        assert_responses_bit_identical(&want, resp, &format!("response {i}"));
    }

    let metrics = handle.telemetry().metrics_json(0);
    let classes = metrics.get("classes").expect("classes object");
    let count = |class: &str| {
        classes
            .get(class)
            .and_then(|c| c.get("cumulative"))
            .and_then(|c| c.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("class {class} missing"))
    };
    let (cold, cached) = (count("query_cold"), count("query_cached"));
    assert_eq!(
        cold + cached,
        (SUBMITTERS * QUERIES_PER_SUBMITTER) as u64,
        "every query must be traced as query_cold or query_cached"
    );
    assert_eq!(
        handle.telemetry().recorded(),
        cold + cached,
        "no query may be traced under another class"
    );
    assert!(cold > 0 && cached > 0, "cold {cold}, cached {cached}");
}

/// The live set at one epoch, in insertion order — which is the order
/// the engine's store keeps (compaction preserves it; see
/// cache_property.rs), so the oracle's id-sorted skyline filters
/// identically to the engine's.
type LiveSet = Vec<Vec<f64>>;

/// Per-epoch oracle context: the cold-rebuilt store and its id-sorted
/// skyline, shared by every product verified at that epoch.
struct OracleCtx {
    store: PointStore,
    skyline: Vec<PointId>,
}

impl OracleCtx {
    fn new(live: &LiveSet, dims: usize) -> Self {
        let store = PointStore::from_rows(dims, live.iter().cloned());
        let all: Vec<PointId> = store.ids().collect();
        let mut skyline = skyline_sfs(&store, &all);
        skyline.sort_unstable();
        Self { store, skyline }
    }

    /// Cold recompute of one response's results, replicating the
    /// server's merge: per-product Algorithm 1 over the evaluated
    /// prefix, then the (cost, index) top-k.
    fn results(&self, req: &QueryRequest, evaluated: usize) -> Vec<(usize, f64, Vec<f64>)> {
        let cost_fn = req.cost.cost_fn(self.store.dims());
        let mut answers: Vec<(usize, f64, Vec<f64>)> = req.products[..evaluated]
            .iter()
            .enumerate()
            .map(|(index, t)| {
                let dominators =
                    dominators_from_skyline(&self.store, &self.skyline, t, &mut NullRecorder);
                let (cost, upgraded) = upgrade_single(
                    &self.store,
                    &dominators,
                    t,
                    &cost_fn,
                    &UpgradeConfig::default(),
                );
                (index, cost, upgraded)
            })
            .collect();
        answers.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        answers.truncate(req.k);
        answers
    }
}

/// Anchor 3: the 10k-op interleaving. One mutator publishes epochs and
/// journals each epoch's live set; three pipelined clients push queries
/// through a batching [`ServeHandle`] — some under product budgets,
/// some with already-expired or microsecond deadlines that cut inside a
/// batch. Post-hoc, every response must match the cold oracle at its
/// epoch over its evaluated prefix, bit for bit.
#[test]
fn interleaved_batched_serving_matches_cold_oracle() {
    const MUTATIONS: usize = 600;
    const CLIENTS: usize = 3;
    const QUERIES_PER_CLIENT: usize = 3200;
    const PIPELINE: usize = 8;
    let dims = 3;
    let mut rng = Rng::seed_from_u64(0x10a0b5);

    let initial: Vec<Vec<f64>> = (0..120)
        .map(|_| random_point(&mut rng, dims, 0.0, 1.0))
        .collect();
    let store = PointStore::from_rows(dims, initial.iter().cloned());
    let engine = Arc::new(Engine::with_competitors(store, EngineConfig::default()));
    let handle = ServeHandle::start(
        Arc::clone(&engine),
        ServeConfig {
            threads: 2,
            queue_cap: 64,
            batch_window_us: 50,
            max_batch: 16,
            ..ServeConfig::default()
        },
    );

    // Epoch journal. The mutator is the only writer of engine state, so
    // its local mirror after the i-th mutation IS the live set at the
    // epoch that mutation published; verification reads the journal only
    // after every thread has joined.
    let journal: Arc<Mutex<HashMap<u64, LiveSet>>> = Arc::new(Mutex::new(HashMap::new()));
    journal
        .lock()
        .unwrap()
        .insert(engine.snapshot().epoch(), initial.clone());

    let mutator = {
        let handle = handle.clone();
        let journal = Arc::clone(&journal);
        let mut rng = Rng::seed_from_u64(0x3a70);
        // `with_competitors` assigns cids by row index, like the engine.
        let mut live: Vec<(CompetitorId, Vec<f64>)> = initial
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, c)| (i as CompetitorId, c))
            .collect();
        std::thread::spawn(move || {
            for op in 0..MUTATIONS {
                let epoch = if live.len() < 60 || rng.range_usize(3) != 0 {
                    let coords = random_point(&mut rng, dims, 0.0, 1.2);
                    let out = handle
                        .add_competitor(coords.clone())
                        .expect("add is always valid");
                    live.push((out.cid.expect("add assigns a cid"), coords));
                    out.epoch
                } else {
                    let pick = rng.range_usize(live.len());
                    // Ordinary remove, not swap_remove: the mirror must
                    // keep insertion order.
                    let (cid, _) = live.remove(pick);
                    let out = handle.remove_competitor(cid).expect("cid was live");
                    assert!(out.removed, "removing a live cid must succeed");
                    out.epoch
                };
                let set: LiveSet = live.iter().map(|(_, c)| c.clone()).collect();
                journal.lock().unwrap().insert(epoch, set);
                if op % 3 == 0 {
                    // Stretch the mutation stream across the query burst
                    // so epochs actually swap under in-flight batches.
                    std::thread::yield_now();
                }
            }
        })
    };

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let handle = handle.clone();
            let mut rng = Rng::seed_from_u64(0xc11e47 + c as u64);
            // A recurring product pool per client so repeat queries can
            // hit the cache across epochs.
            let pool: Vec<Vec<f64>> = (0..16)
                .map(|_| random_point(&mut rng, dims, 0.2, 1.1))
                .collect();
            std::thread::spawn(move || {
                let mut done: Vec<(QueryRequest, QueryResponse)> =
                    Vec::with_capacity(QUERIES_PER_CLIENT);
                let mut inflight: std::collections::VecDeque<(
                    QueryRequest,
                    skyup_serve::QueryTicket,
                )> = std::collections::VecDeque::new();
                for q in 0..QUERIES_PER_CLIENT {
                    if inflight.len() >= PIPELINE {
                        let (req, ticket) = inflight.pop_front().expect("non-empty");
                        done.push((req, ticket.wait().expect("valid query")));
                    }
                    let mut req = random_request(&mut rng, dims);
                    if rng.range_usize(2) == 0 {
                        req.products = (0..req.products.len())
                            .map(|_| pool[rng.range_usize(pool.len())].clone())
                            .collect();
                    }
                    match q % 16 {
                        // Already expired on arrival: must come back
                        // Partial and empty, never wedge a batch.
                        3 => req.deadline = Some(Duration::ZERO),
                        // Tight enough to sometimes fire mid-batch,
                        // loose enough to sometimes finish.
                        9 => req.deadline = Some(Duration::from_micros(20)),
                        // Guaranteed budget cut inside the batch.
                        13 => {
                            req.products = (0..3)
                                .map(|_| random_point(&mut rng, dims, 0.2, 1.2))
                                .collect();
                            req.max_products = Some(1);
                        }
                        _ => {}
                    }
                    let ticket = handle.query_async(req.clone()).expect("valid query");
                    inflight.push_back((req, ticket));
                }
                while let Some((req, ticket)) = inflight.pop_front() {
                    done.push((req, ticket.wait().expect("valid query")));
                }
                done
            })
        })
        .collect();

    mutator.join().expect("mutator thread");
    let responses: Vec<(QueryRequest, QueryResponse)> = clients
        .into_iter()
        .flat_map(|c| c.join().expect("client thread"))
        .collect();
    let journal = Arc::try_unwrap(journal)
        .expect("all threads joined")
        .into_inner()
        .unwrap();

    // Post-hoc verification: every response against the cold oracle at
    // its own epoch.
    let mut contexts: HashMap<u64, OracleCtx> = HashMap::new();
    let mut deadline_cuts = 0usize;
    let mut budget_cuts = 0usize;
    let mut shed = 0usize;
    for (i, (req, resp)) in responses.iter().enumerate() {
        match resp.completion {
            Completion::Exact => assert_eq!(resp.evaluated, req.products.len(), "response {i}"),
            Completion::Partial(Interrupt::DeadlineExceeded) => {
                assert!(resp.evaluated < req.products.len(), "response {i}");
                deadline_cuts += 1;
            }
            Completion::Partial(Interrupt::NodeVisitBudget) => {
                let budget = req.max_products.expect("budget cut needs a budget") as usize;
                assert_eq!(
                    resp.evaluated,
                    budget.min(req.products.len()),
                    "response {i}"
                );
                budget_cuts += 1;
            }
            Completion::Partial(Interrupt::Overloaded) => {
                assert_eq!(resp.evaluated, 0, "shed response {i} must be empty");
                shed += 1;
            }
            other => panic!("response {i}: unexpected completion {other:?}"),
        }
        let live = journal
            .get(&resp.epoch)
            .unwrap_or_else(|| panic!("response {i}: unjournaled epoch {}", resp.epoch));
        let ctx = contexts
            .entry(resp.epoch)
            .or_insert_with(|| OracleCtx::new(live, dims));
        let expected = ctx.results(req, resp.evaluated);
        assert_eq!(resp.results.len(), expected.len(), "response {i}");
        for (got, (index, cost, upgraded)) in resp.results.iter().zip(&expected) {
            assert_eq!(got.index, *index, "response {i}");
            assert_eq!(
                got.cost.to_bits(),
                cost.to_bits(),
                "response {i}: cost drifted from the cold oracle"
            );
            assert_eq!(got.upgraded.len(), upgraded.len(), "response {i}");
            for (a, b) in got.upgraded.iter().zip(upgraded) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "response {i}: upgrade coords drifted"
                );
            }
        }
    }
    handle.shutdown();

    // The interleaving must have exercised what it claims to: batches
    // actually formed, epochs swapped under them, limits cut mid-batch,
    // and the cache both hit and missed across epochs.
    assert_eq!(responses.len(), CLIENTS * QUERIES_PER_CLIENT);
    assert!(
        responses.len() + MUTATIONS > 10_000,
        "interleaving shrank below the 10k-op bar"
    );
    let metrics = engine.metrics();
    assert!(
        metrics.get(Counter::BatchesExecuted) > 0,
        "no batch ever formed"
    );
    assert!(
        metrics.get(Counter::BatchedRequests) > 0,
        "no request ever rode a batch"
    );
    assert!(metrics.get(Counter::EpochSwaps) >= MUTATIONS as u64);
    assert!(metrics.get(Counter::CacheHit) > 0, "cache never hit");
    assert!(metrics.get(Counter::CacheMiss) > 0, "cache never missed");
    assert!(deadline_cuts > 0, "no deadline ever cut a batched request");
    assert!(budget_cuts > 0, "no budget ever cut a batched request");
    // Shedding is allowed (deadline already passed on arrival) but the
    // pipeline is sized to keep it rare; all kinds were verified above.
    let _ = shed;
}

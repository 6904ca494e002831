//! Property suite for the epoch engine and the dominance-aware cache.
//!
//! The anchor test drives a long random interleaving of mutations and
//! queries through [`execute_query`] — the exact code path the worker
//! pool runs — and checks every response bit-for-bit against a
//! cacheless cold-recompute oracle over a mirrored live set, including
//! budgeted queries that complete partially. Bit-identity across cache
//! hits, selective evictions, epoch swaps, and STR rebuilds is the
//! whole correctness claim of the cache; the targeted tests below pin
//! down that the invalidation really is selective (exact eviction
//! counts, survivors still hit) rather than a disguised flush.

use skyup_core::cost::CostFunction;
use skyup_core::{dominators_from_skyline, upgrade_single, UpgradeConfig};
use skyup_data::rng::Rng;
use skyup_geom::{point_in_adr, PointId, PointStore};
use skyup_obs::{Completion, Counter, NullRecorder};
use skyup_serve::{
    execute_query, CompetitorId, CostSpec, Engine, EngineConfig, Mutation, QueryRequest,
};
use skyup_skyline::skyline_sfs;

/// Cold-recompute oracle: rebuild the live set from scratch and answer
/// one product with no cache, no tree, no epochs.
fn oracle_answer(
    live: &[(CompetitorId, Vec<f64>)],
    dims: usize,
    t: &[f64],
    cost_fn: &dyn CostFunction,
) -> (f64, Vec<f64>) {
    let store = PointStore::from_rows(dims, live.iter().map(|(_, c)| c.clone()));
    let all: Vec<PointId> = store.ids().collect();
    let mut skyline = skyline_sfs(&store, &all);
    skyline.sort_unstable();
    let dominators = dominators_from_skyline(&store, &skyline, t, &mut NullRecorder);
    upgrade_single(&store, &dominators, t, cost_fn, &UpgradeConfig::default())
}

fn random_point(rng: &mut Rng, dims: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..dims).map(|_| rng.range_f64(lo, hi)).collect()
}

#[test]
fn interleaved_mutations_match_cold_oracle() {
    const OPS: usize = 10_000;
    let dims = 3;
    let mut rng = Rng::seed_from_u64(0x5eed_cafe);

    // Seed set: the mirror records (cid, coords) in insertion order,
    // which compaction preserves — so the oracle store and the engine
    // store list live points in the same relative order and the
    // id-sorted skylines filter identically.
    let initial: Vec<Vec<f64>> = (0..80)
        .map(|_| random_point(&mut rng, dims, 0.0, 1.0))
        .collect();
    let store = PointStore::from_rows(dims, initial.iter().cloned());
    let engine = Engine::with_competitors(store, EngineConfig::default());
    let mut live: Vec<(CompetitorId, Vec<f64>)> = initial
        .into_iter()
        .enumerate()
        .map(|(i, c)| (i as CompetitorId, c))
        .collect();

    // A pool of recurring products so repeated queries can hit the
    // cache across epochs.
    let mut pool: Vec<Vec<f64>> = (0..24)
        .map(|_| random_point(&mut rng, dims, 0.2, 1.1))
        .collect();

    let cost = CostSpec::Reciprocal(1e-3);
    let cost_fn = cost.cost_fn(dims);
    let mut queries = 0usize;
    let mut partials = 0usize;
    for _ in 0..OPS {
        match rng.range_usize(10) {
            // 40%: query a batch, sometimes under a product budget.
            0..=3 => {
                let batch = 1 + rng.range_usize(4);
                let products: Vec<Vec<f64>> = (0..batch)
                    .map(|_| {
                        if rng.range_usize(10) < 7 {
                            pool[rng.range_usize(pool.len())].clone()
                        } else {
                            let fresh = random_point(&mut rng, dims, 0.2, 1.1);
                            let slot = rng.range_usize(pool.len());
                            pool[slot] = fresh.clone();
                            fresh
                        }
                    })
                    .collect();
                let k = 1 + rng.range_usize(4);
                let max_products = if rng.range_usize(5) == 0 {
                    Some(rng.range_usize(batch) as u64)
                } else {
                    None
                };
                let req = QueryRequest {
                    products: products.clone(),
                    k,
                    cost,
                    max_products,
                    deadline: None,
                };
                let resp = execute_query(&engine, &req).expect("valid query");
                queries += 1;

                // The budget is cache-independent: exactly
                // min(batch, budget) products are processed.
                let expect_evaluated = max_products
                    .map(|b| (b as usize).min(batch))
                    .unwrap_or(batch);
                assert_eq!(resp.evaluated, expect_evaluated);
                match resp.completion {
                    Completion::Exact => assert_eq!(expect_evaluated, batch),
                    Completion::Partial(_) => {
                        partials += 1;
                        assert!(expect_evaluated < batch);
                    }
                }
                assert_eq!(resp.epoch, engine.snapshot().epoch());

                // Oracle over the processed prefix, ranked the same way.
                let mut expected: Vec<(usize, f64, Vec<f64>)> = products[..expect_evaluated]
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let (c, up) = oracle_answer(&live, dims, t, &cost_fn);
                        (i, c, up)
                    })
                    .collect();
                expected.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
                expected.truncate(k);
                assert_eq!(resp.results.len(), expected.len());
                for (got, (index, cost, upgraded)) in resp.results.iter().zip(&expected) {
                    assert_eq!(got.index, *index);
                    assert_eq!(
                        got.cost.to_bits(),
                        cost.to_bits(),
                        "cost drifted from oracle"
                    );
                    assert_eq!(got.upgraded.len(), upgraded.len());
                    for (a, b) in got.upgraded.iter().zip(upgraded) {
                        assert_eq!(a.to_bits(), b.to_bits(), "upgrade coords drifted");
                    }
                }
            }
            // 30%: add a competitor.
            4..=6 => {
                let coords = random_point(&mut rng, dims, 0.0, 1.0);
                let out = engine
                    .apply(Mutation::AddCompetitor(coords.clone()))
                    .expect("valid add");
                live.push((out.cid.expect("add assigns a cid"), coords));
                assert_eq!(out.epoch, engine.snapshot().epoch());
            }
            // 30%: remove a live competitor (sometimes a stale cid).
            _ => {
                if live.is_empty() {
                    continue;
                }
                let (cid, known) = if rng.range_usize(20) == 0 {
                    (u64::MAX - rng.range_usize(100) as u64, false)
                } else {
                    (live[rng.range_usize(live.len())].0, true)
                };
                let out = engine
                    .apply(Mutation::RemoveCompetitor(cid))
                    .expect("remove never errors");
                assert_eq!(out.removed, known);
                if known {
                    live.retain(|(c, _)| *c != cid);
                }
            }
        }
    }

    // The interleaving must actually have exercised the machinery it
    // claims to verify.
    let metrics = engine.metrics();
    let stats = engine.stats();
    assert!(
        queries > 1_000,
        "interleaving degenerated: {queries} queries"
    );
    assert!(partials > 10, "budgeted partial completions never fired");
    assert!(metrics.get(Counter::CacheHit) > 0, "cache never hit");
    assert!(metrics.get(Counter::CacheMiss) > 0, "cache never missed");
    assert!(
        metrics.get(Counter::CacheEvictions) > 0,
        "mutations never evicted a cached answer"
    );
    assert!(
        metrics.get(Counter::EpochSwaps) > 0,
        "no epoch ever swapped"
    );
    assert!(stats.rebuilds > 0, "degradation heuristic never rebuilt");
    assert_eq!(stats.live, live.len());
}

/// Exact eviction counts: a mutation that leaves the skyline unchanged
/// evicts nothing, and one that changes it evicts precisely the entries
/// whose product lies in the changed point's ADR. Survivors keep
/// hitting.
#[test]
fn invalidation_is_selective_not_a_flush() {
    let rows: Vec<Vec<f64>> = vec![
        vec![0.2, 0.8], // cid 0
        vec![0.8, 0.2], // cid 1
        vec![0.5, 0.5], // cid 2
    ];
    let store = PointStore::from_rows(2, rows);
    let engine = Engine::with_competitors(store, EngineConfig::default());
    let cost = CostSpec::Reciprocal(1e-3);
    let query = |t: &[f64]| {
        execute_query(
            &engine,
            &QueryRequest {
                products: vec![t.to_vec()],
                k: 1,
                cost,
                max_products: None,
                deadline: None,
            },
        )
        .expect("valid query")
    };
    let hits = || engine.metrics().get(Counter::CacheHit);

    // Cache four products with distinct dominator sets.
    let a = [0.9, 0.9]; // dominated by cids {0, 1, 2}
    let b = [0.6, 0.9]; // dominated by cids {0, 2}
    let c = [0.9, 0.6]; // dominated by cids {1, 2}
    let d = [0.25, 0.85]; // dominated by cid {0}
    for t in [&a, &b, &c, &d] {
        query(t.as_slice());
    }
    assert_eq!(engine.stats().cached, 4);
    assert_eq!(hits(), 0);

    // (0.7, 0.7) ADR-dominates product a, but (0.5, 0.5) dominates it,
    // so the skyline — and with it every cached answer — is unchanged.
    let out = engine
        .apply(Mutation::AddCompetitor(vec![0.7, 0.7]))
        .unwrap();
    assert_eq!(out.evicted, 0, "a dominated insert must evict nothing");
    assert_eq!(engine.stats().cached, 4);
    let before = hits();
    for t in [&a, &b, &c, &d] {
        query(t.as_slice());
    }
    assert_eq!(
        hits(),
        before + 4,
        "every entry must still hit after insert"
    );

    // Removing (0.5, 0.5) = cid 2, a skyline member, invalidates the
    // products it dominates (a, b, c) but not d. It also exposes
    // (0.7, 0.7), which now dominates a.
    let out = engine.apply(Mutation::RemoveCompetitor(2)).unwrap();
    assert!(out.removed);
    assert_eq!(
        out.evicted, 3,
        "delete must evict exactly the removed member's ADR hits"
    );
    assert_eq!(engine.stats().cached, 1);
    let before = hits();
    query(&d);
    assert_eq!(hits(), before + 1, "d must survive the delete");
}

/// The paper's setup: competitors in `[0, 1]^d`, products in
/// `(1, 2]^d`, so every competitor dominates every product and each
/// product's dominator skyline is the whole skyline. A few products
/// inside the unit cube ride along so the ADR count is selective.
struct PaperSetup {
    engine: Engine,
    live: Vec<(CompetitorId, Vec<f64>)>,
    products: Vec<Vec<f64>>,
    dims: usize,
    cost: CostSpec,
}

impl PaperSetup {
    fn new(seed: u64, n: usize, dims: usize) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| random_point(&mut rng, dims, 0.0, 1.0))
            .collect();
        let engine = Engine::with_competitors(
            PointStore::from_rows(dims, rows.iter().cloned()),
            EngineConfig::default(),
        );
        let live = rows
            .into_iter()
            .enumerate()
            .map(|(i, c)| (i as CompetitorId, c))
            .collect();
        // `range_f64` is half-open at the top; `2.0 - x` for x in
        // [0, 1) lands in (1, 2].
        let mut products: Vec<Vec<f64>> = (0..24)
            .map(|_| (0..dims).map(|_| 2.0 - rng.range_f64(0.0, 1.0)).collect())
            .collect();
        products.extend((0..8).map(|_| random_point(&mut rng, dims, 0.3, 1.0)));
        let setup = PaperSetup {
            engine,
            live,
            products,
            dims,
            cost: CostSpec::Reciprocal(1e-3),
        };
        for t in &setup.products {
            setup.ask(t);
        }
        assert_eq!(setup.engine.stats().cached, setup.products.len());
        setup
    }

    /// Asks for one product and checks the answer bit-for-bit against
    /// the cold oracle. Returns whether it was a cache hit.
    fn ask(&self, t: &[f64]) -> bool {
        let hits = self.engine.metrics().get(Counter::CacheHit);
        let resp = execute_query(
            &self.engine,
            &QueryRequest {
                products: vec![t.to_vec()],
                k: 1,
                cost: self.cost,
                max_products: None,
                deadline: None,
            },
        )
        .expect("valid query");
        let (cost, upgraded) =
            oracle_answer(&self.live, self.dims, t, &self.cost.cost_fn(self.dims));
        let got = &resp.results[0];
        assert_eq!(got.cost.to_bits(), cost.to_bits(), "cost drifted on {t:?}");
        let gb: Vec<u64> = got.upgraded.iter().map(|v| v.to_bits()).collect();
        let wb: Vec<u64> = upgraded.iter().map(|v| v.to_bits()).collect();
        assert_eq!(gb, wb, "upgrade drifted on {t:?}");
        self.engine.metrics().get(Counter::CacheHit) > hits
    }

    /// Cached products the point `p` ADR-dominates.
    fn adr_hits(&self, p: &[f64]) -> u64 {
        self.products.iter().filter(|t| point_in_adr(p, t)).count() as u64
    }

    fn skyline_cids(&self) -> Vec<CompetitorId> {
        let snap = self.engine.snapshot();
        snap.skyline().iter().map(|&pid| snap.cid(pid)).collect()
    }

    fn coords(&self, cid: CompetitorId) -> Vec<f64> {
        self.live.iter().find(|(c, _)| *c == cid).unwrap().1.clone()
    }

    /// Applies `m`, checks it evicted `expect` entries, then re-asks
    /// every product: exactly the survivors hit, and every answer —
    /// hit or recomputed — matches the cold oracle.
    fn mutate_expecting(&mut self, m: Mutation, expect: u64) {
        let out = self.engine.apply(m.clone()).expect("valid mutation");
        assert_eq!(out.evicted, expect, "wrong eviction count for {m:?}");
        match m {
            Mutation::AddCompetitor(c) => self.live.push((out.cid.unwrap(), c)),
            Mutation::RemoveCompetitor(cid) => {
                assert!(out.removed);
                self.live.retain(|(c, _)| *c != cid);
            }
            Mutation::AddCompetitorWithCid(..) => unreachable!(),
        }
        let before = self.products.len() as u64 - expect;
        assert_eq!(self.engine.stats().cached as u64, before);
        let hit = self.products.iter().filter(|t| self.ask(t)).count() as u64;
        assert_eq!(hit, before, "exactly the surviving entries must hit");
        assert_eq!(self.engine.stats().cached, self.products.len());
    }
}

#[test]
fn paper_setup_off_skyline_delete_evicts_nothing() {
    let mut s = PaperSetup::new(0xdead, 300, 3);
    let sky = s.skyline_cids();
    let off: Vec<CompetitorId> = s
        .live
        .iter()
        .map(|(c, _)| *c)
        .filter(|c| !sky.contains(c))
        .take(20)
        .collect();
    assert_eq!(off.len(), 20, "workload must have off-skyline competitors");
    for cid in off {
        s.mutate_expecting(Mutation::RemoveCompetitor(cid), 0);
        assert_eq!(
            s.skyline_cids(),
            sky,
            "an off-skyline delete moved the skyline"
        );
    }
}

#[test]
fn paper_setup_skyline_delete_evicts_exactly_its_adr_hits() {
    let mut s = PaperSetup::new(0xbeef, 300, 3);
    for _ in 0..10 {
        let cid = s.skyline_cids()[0];
        let p = s.coords(cid);
        let expect = s.adr_hits(&p);
        assert!(expect >= 24, "every paper product is dominated by a member");
        s.mutate_expecting(Mutation::RemoveCompetitor(cid), expect);
    }
}

/// Removing a skyline member exposes second-layer points that dominate
/// the cached products; the recomputed answers must see them.
#[test]
fn paper_setup_skyline_delete_exposes_the_second_layer() {
    let dims = 2;
    let rows: Vec<Vec<f64>> = vec![
        vec![0.1, 0.5],   // cid 0: skyline
        vec![0.3, 0.3],   // cid 1: skyline, the only dominator of 2 and 3
        vec![0.5, 0.1],   // cid 2: skyline
        vec![0.35, 0.4],  // cid 3: second layer
        vec![0.4, 0.35],  // cid 4: second layer
        vec![0.45, 0.45], // cid 5: third layer
    ];
    let engine = Engine::with_competitors(
        PointStore::from_rows(dims, rows.iter().cloned()),
        EngineConfig::default(),
    );
    let mut s = PaperSetup {
        engine,
        live: rows
            .into_iter()
            .enumerate()
            .map(|(i, c)| (i as CompetitorId, c))
            .collect(),
        products: vec![
            vec![1.5, 1.5],
            vec![1.1, 2.0],
            vec![2.0, 1.1],
            vec![0.42, 0.42], // dominated by cids 1, 3, 4
            vec![0.2, 0.9],   // dominated by cid 0 only
        ],
        dims,
        cost: CostSpec::Reciprocal(1e-3),
    };
    for t in &s.products {
        s.ask(t);
    }
    assert_eq!(s.skyline_cids(), vec![0, 1, 2]);
    s.mutate_expecting(Mutation::RemoveCompetitor(1), 4);
    assert_eq!(
        s.skyline_cids(),
        vec![0, 2, 3, 4],
        "the second layer must be exposed"
    );
    // Again one layer down: removing both exposed points brings up cid 5.
    s.mutate_expecting(Mutation::RemoveCompetitor(3), 4);
    s.mutate_expecting(Mutation::RemoveCompetitor(4), 4);
    assert_eq!(s.skyline_cids(), vec![0, 2, 5]);
}

#[test]
fn paper_setup_dominated_insert_evicts_nothing() {
    let mut s = PaperSetup::new(0xfeed, 300, 3);
    let sky = s.skyline_cids();
    for cid in sky.iter().take(10) {
        // A point strictly behind a member on every dimension.
        let p: Vec<f64> = s.coords(*cid).iter().map(|v| v + 1e-3).collect();
        s.mutate_expecting(Mutation::AddCompetitor(p), 0);
        assert_eq!(
            s.skyline_cids(),
            sky,
            "a dominated insert moved the skyline"
        );
    }
}

#[test]
fn paper_setup_joining_insert_evicts_exactly_its_adr_hits() {
    let mut s = PaperSetup::new(0xf00d, 300, 3);
    let mut rng = Rng::seed_from_u64(11);
    let mut joined = 0;
    while joined < 10 {
        // Small coordinates join the skyline often, and sometimes push
        // members out; dominated draws must evict nothing.
        let p = random_point(&mut rng, s.dims, 0.0, 0.3);
        let sky_before = s.skyline_cids();
        let expect = if sky_before
            .iter()
            .any(|&c| skyup_geom::dominance::dominates(&s.coords(c), &p))
        {
            0
        } else {
            joined += 1;
            s.adr_hits(&p)
        };
        s.mutate_expecting(Mutation::AddCompetitor(p), expect);
    }
}

/// An STR rebuild compacts the store and renumbers points, but stable
/// competitor ids keep cached answers valid — the cache survives the
/// rebuild and the renumbered engine still answers bit-identically.
#[test]
fn rebuild_preserves_cache_and_cids() {
    let mut rng = Rng::seed_from_u64(7);
    let dims = 2;
    // Base points live in [0.1, 1]^2; the appended corner point is the
    // unique possible dominator of anything with x < 0.1.
    let mut rows: Vec<Vec<f64>> = (0..40)
        .map(|_| random_point(&mut rng, dims, 0.1, 1.0))
        .collect();
    let corner_cid: CompetitorId = rows.len() as CompetitorId;
    rows.push(vec![0.0, 0.9]);
    let store = PointStore::from_rows(2, rows.iter().cloned());
    let cfg = EngineConfig {
        rebuild_min_dead: 2,
        ..EngineConfig::default()
    };
    let engine = Engine::with_competitors(store, cfg);
    let mut live: Vec<(CompetitorId, Vec<f64>)> = rows
        .into_iter()
        .enumerate()
        .map(|(i, c)| (i as CompetitorId, c))
        .collect();

    let cost = CostSpec::Reciprocal(1e-3);
    let cost_fn = cost.cost_fn(dims);
    let t = vec![1.5, 1.5]; // dominated by everything: uses the full skyline
    let req = QueryRequest {
        products: vec![t.clone()],
        k: 1,
        cost,
        max_products: None,
        deadline: None,
    };
    let first = execute_query(&engine, &req).unwrap();

    // This entry's dominator skyline is exactly {corner}: no removal
    // below touches it, so it must ride through the rebuild.
    let t2 = vec![0.05, 0.95];
    let req2 = QueryRequest {
        products: vec![t2],
        k: 1,
        cost,
        max_products: None,
        deadline: None,
    };
    execute_query(&engine, &req2).unwrap();
    let hits_before = engine.metrics().get(Counter::CacheHit);

    // Remove non-corner points until a rebuild fires; track it through
    // the outcomes.
    let mut rebuilt = false;
    while !rebuilt {
        let cid = live[rng.range_usize(live.len())].0;
        if cid == corner_cid {
            continue;
        }
        let out = engine.apply(Mutation::RemoveCompetitor(cid)).unwrap();
        assert!(out.removed);
        live.retain(|(c, _)| *c != cid);
        rebuilt = out.rebuilt;
    }
    assert!(engine.stats().rebuilds > 0);
    assert_eq!(engine.stats().dead, 0, "rebuild must compact tombstones");

    // The rebuild renumbered every point but did not flush the cache:
    // the corner-only entry is still present and still hits.
    assert!(engine.stats().cached >= 1, "rebuild flushed the cache");
    execute_query(&engine, &req2).unwrap();
    assert_eq!(
        engine.metrics().get(Counter::CacheHit),
        hits_before + 1,
        "the untouched entry must hit across a rebuild"
    );

    // Removing by stable cid still works after renumbering.
    let cid = live[0].0;
    assert!(
        engine
            .apply(Mutation::RemoveCompetitor(cid))
            .unwrap()
            .removed
    );
    live.retain(|(c, _)| *c != cid);

    // Post-rebuild answers are bit-identical to the cold oracle.
    let resp = execute_query(&engine, &req).unwrap();
    let (oracle_cost, oracle_up) = oracle_answer(&live, dims, &t, &cost_fn);
    assert_eq!(resp.results[0].cost.to_bits(), oracle_cost.to_bits());
    for (a, b) in resp.results[0].upgraded.iter().zip(&oracle_up) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_ne!(first.epoch, resp.epoch, "mutations must bump the epoch");
}

/// Regression: with strict dominance, two competitors at identical
/// coordinates both sit on the skyline. Removing one returns the twin
/// from the boundary-inclusive exposure query; it must not be appended
/// a second time, or its pid lingers in every later snapshot after the
/// twin itself is removed.
#[test]
fn removing_a_duplicate_coordinate_twin_keeps_the_skyline_exact() {
    let engine = Engine::new(2, EngineConfig::default());
    let add = |coords: Vec<f64>| {
        engine
            .apply(Mutation::AddCompetitor(coords))
            .unwrap()
            .cid
            .unwrap()
    };
    let a = add(vec![0.5, 0.5]);
    let b = add(vec![0.5, 0.5]);
    // Strictly dominated by the twins; exposed only once both are gone.
    let c = add(vec![0.6, 0.6]);
    assert_eq!(engine.snapshot().skyline().len(), 2);

    engine.apply(Mutation::RemoveCompetitor(a)).unwrap();
    let snap = engine.snapshot();
    let sky: Vec<CompetitorId> = snap.skyline().iter().map(|&p| snap.cid(p)).collect();
    assert_eq!(sky, vec![b], "surviving twin must appear exactly once");

    engine.apply(Mutation::RemoveCompetitor(b)).unwrap();
    let snap = engine.snapshot();
    let sky: Vec<CompetitorId> = snap.skyline().iter().map(|&p| snap.cid(p)).collect();
    assert_eq!(sky, vec![c], "no tombstoned pid may linger on the skyline");
}

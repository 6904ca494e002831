//! Property test of the probe executor's top-k entry point against the
//! paper's sequential reference implementations: for random
//! competitor and product sets (including empty sets and duplicated
//! coordinates), `probe_topk` at any thread count returns the same
//! products, bit-identical costs and bit-identical upgrades as
//! improved probing, and the same plan as basic probing.

use skyup_core::cost::SumCost;
use skyup_core::{
    basic_probing_topk, improved_probing_topk, probe_topk, ProbeOptions, UpgradeConfig,
    UpgradeResult,
};
use skyup_geom::PointStore;
use skyup_obs::NullRecorder;
use skyup_rtree::{RTree, RTreeParams};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() * n as f64) as usize % n.max(1)
    }
}

/// `n` points in `[lo, hi)^dims`; with `grid > 0` coordinates snap to a
/// grid of that many cells so duplicates and ties are common.
fn store(rng: &mut Rng, n: usize, dims: usize, lo: f64, hi: f64, grid: usize) -> PointStore {
    let mut s = PointStore::new(dims);
    for _ in 0..n {
        let row: Vec<f64> = (0..dims)
            .map(|_| {
                let u = rng.next();
                let u = if grid > 0 {
                    (u * grid as f64).floor() / grid as f64
                } else {
                    u
                };
                lo + (hi - lo) * u
            })
            .collect();
        s.push(&row);
    }
    s
}

fn bits(r: &UpgradeResult) -> (u32, u64, Vec<u64>) {
    (
        r.product.0,
        r.cost.to_bits(),
        r.upgraded.iter().map(|v| v.to_bits()).collect(),
    )
}

fn check(p: &PointStore, t: &PointStore, k: usize, label: &str) {
    let dims = p.dims();
    let rp = RTree::bulk_load(p, RTreeParams::with_max_entries(8));
    let cost = SumCost::reciprocal(dims, 1e-3);
    let cfg = UpgradeConfig::default();
    let improved = improved_probing_topk(p, &rp, t, k, &cost, &cfg);
    let basic = basic_probing_topk(p, &rp, t, k, &cost, &cfg);
    let want: Vec<_> = improved.iter().map(bits).collect();
    assert_eq!(improved.len(), k.min(t.len()), "{label}");
    for (a, b) in basic.iter().zip(&improved) {
        assert_eq!(a.product, b.product, "{label}: basic vs improved");
        assert!((a.cost - b.cost).abs() < 1e-9, "{label}: basic vs improved");
    }
    for threads in [1usize, 2, 7] {
        let opts = ProbeOptions {
            threads,
            ..ProbeOptions::default()
        };
        let out = probe_topk(p, t, k, &cost, &cfg, &opts, &mut NullRecorder)
            .unwrap_or_else(|e| panic!("{label} threads={threads}: {e}"));
        assert!(out.completion.is_exact(), "{label}");
        assert_eq!(out.evaluated, t.len(), "{label}");
        let got: Vec<_> = out.results.iter().map(bits).collect();
        assert_eq!(got, want, "{label} threads={threads}");
        for r in &out.results {
            assert_eq!(r.original, t.point(r.product), "{label}");
        }
    }
}

#[test]
fn probe_topk_matches_the_sequential_references() {
    let mut rng = Rng(0x5eed_1234);
    for case in 0..24 {
        let dims = 2 + case % 3;
        let n_p = 50 + rng.below(400);
        let n_t = 1 + rng.below(60);
        let grid = if case % 2 == 0 { 0 } else { 6 };
        let p = store(&mut rng, n_p, dims, 0.0, 1.0, grid);
        // Interleaved domains: some products are already competitive.
        let t = store(&mut rng, n_t, dims, 0.3, 1.3, grid);
        for k in [1, 5, n_t + 3] {
            check(&p, &t, k, &format!("case {case} dims {dims} k {k}"));
        }
    }
}

#[test]
fn probe_topk_handles_empty_and_duplicated_inputs() {
    let mut rng = Rng(0xd0d0);
    let dims = 3;
    let p = store(&mut rng, 300, dims, 0.0, 1.0, 0);
    let t = store(&mut rng, 40, dims, 1.0, 2.0, 0);

    // Empty T: nothing to upgrade.
    check(&p, &PointStore::new(dims), 5, "empty T");

    // Empty P: every product is already competitive at cost 0.
    let empty = PointStore::new(dims);
    check(&empty, &t, 5, "empty P");
    let out = probe_topk(
        &empty,
        &t,
        t.len(),
        &SumCost::reciprocal(dims, 1e-3),
        &UpgradeConfig::default(),
        &ProbeOptions::default(),
        &mut NullRecorder,
    )
    .unwrap();
    assert_eq!(out.results.len(), t.len());
    assert!(out.results.iter().all(|r| r.cost == 0.0));

    // Duplicates: repeated products tie and break by id; products equal
    // to a competitor are not dominated by it; repeated competitors
    // collapse in the skyline.
    let mut dup_p = PointStore::new(dims);
    let mut dup_t = PointStore::new(dims);
    for (_, c) in p.iter().take(100) {
        dup_p.push(c);
        dup_p.push(c);
    }
    for (i, (_, c)) in t.iter().enumerate().take(20) {
        dup_t.push(c);
        dup_t.push(c);
        dup_t.push(p.point(skyup_geom::PointId(i as u32)));
    }
    for k in [1, 5, dup_t.len() + 3] {
        check(&dup_p, &dup_t, k, &format!("duplicates k {k}"));
    }
}

//! Allocation accounting for the probe executor: the allocation count
//! of a top-k query may grow with `|T|` only by a small constant per
//! product. The executor materializes every product's answer (its
//! upgraded coordinates and its shared dominator list) before the
//! top-k fold drops it, so a few events per product are expected; the
//! bound catches a regression that allocates inside the per-product
//! kernel or upgrade loops, which would cost events per dominator or
//! per skyline point instead.
//!
//! This file holds a single test: the counting global allocator sees
//! every allocation in the process, so concurrent tests would pollute
//! the measurement.

use skyup_core::cost::{AttributeCost, LinearCost, SumCost};
use skyup_core::{probe_topk, ProbeOptions, UpgradeConfig};
use skyup_geom::PointStore;
use skyup_obs::NullRecorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over; the counter has no
// bearing on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

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

fn linear_cost(dims: usize) -> SumCost {
    SumCost::new(
        (0..dims)
            .map(|_| Box::new(LinearCost::new(2.0, 1.0)) as Box<dyn AttributeCost>)
            .collect(),
    )
}

/// Allocation events the executor may spend per product: the
/// dominator list (an `Arc` and its buffer), the upgraded coordinates,
/// and amortized growth of the worker's answer buffer.
const MAX_EVENTS_PER_PRODUCT: u64 = 4;

#[test]
fn probe_loop_allocations_per_product_are_bounded() {
    let dims = 3;
    let p = pseudo_random_store(600, dims, 0.0, 1.0, 0x71);
    let t_small = pseudo_random_store(100, dims, 0.3, 1.3, 0x72);
    let t_big = pseudo_random_store(400, dims, 0.3, 1.3, 0x72);
    let cost = linear_cost(dims);
    let cfg = UpgradeConfig::default();
    let k = 5;

    for threads in [1, 2] {
        let opts = ProbeOptions {
            threads,
            ..ProbeOptions::default()
        };
        let run =
            |t: &PointStore| probe_topk(&p, t, k, &cost, &cfg, &opts, &mut NullRecorder).unwrap();
        // Warmup: populate any lazily-grown shared state (thread stacks
        // cached by the OS, allocator arenas, ...).
        let _ = run(&t_small);
        let _ = run(&t_big);

        let before_small = alloc_events();
        let _ = run(&t_small);
        let cost_small = alloc_events() - before_small;

        let before_big = alloc_events();
        let _ = run(&t_big);
        let cost_big = alloc_events() - before_big;

        let delta = cost_big.saturating_sub(cost_small);
        let extra_products = (t_big.len() - t_small.len()) as u64;
        assert!(
            delta <= MAX_EVENTS_PER_PRODUCT * extra_products,
            "threads={threads}: {delta} allocation events for {extra_products} extra \
             products ({cost_small} for |T|={}, {cost_big} for |T|={})",
            t_small.len(),
            t_big.len(),
        );
    }
}

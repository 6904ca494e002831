//! The dominance-aware result cache.
//!
//! Completed per-product answers are memoized under `(t, cost-fn)` and
//! survive competitor mutations *selectively* instead of being flushed
//! wholesale on every epoch swap.
//!
//! A cached answer for product `t` is a function of `t`'s dominator
//! skyline, which is exactly `{s ∈ skyline(P) : s ≻ t}`. So one rule
//! covers every mutation, keyed off the point the writer saw enter or
//! leave the skyline:
//!
//! * **Skyline unchanged** — an insert that some skyline member
//!   dominates, or a delete of a competitor off the skyline. No
//!   dominator skyline changes, so nothing is evicted.
//! * **Skyline changed by point `p`** — the insert that joined, or the
//!   skyline member that was removed. Every point that left or entered
//!   alongside it is dominated by `p` (members a join pushes out are
//!   dominated by the new point; points a removal exposes were
//!   dominated only by the removed member), so a product whose
//!   dominator skyline changed is dominated by `p` by transitivity.
//!   [`ResultCache::evict_dominated_by`] drops the entries whose
//!   product lies in `ADR(p)` ([`skyup_geom::point_in_adr`]), which
//!   also covers the boundary case `p == t`: conservative (it may evict
//!   a still-valid entry when `p` merely ties `t` on every dimension)
//!   but it never keeps a stale one.
//!
//! Keys hash the product's coordinate *bits*, so two requests must
//! agree to the last ulp to share an entry — the right call for a
//! bit-identity serving contract. The key is also the only copy of the
//! coordinates: the ADR test reads them back from the bits. An entry
//! thus costs a fixed number of bytes for a given dimensionality
//! (DESIGN §12 gives the figure), so the entry-count capacity is a byte
//! bound too.
//!
//! Epoch discipline: the cache belongs to the engine's shared state and
//! is mutated under the same lock that swaps the snapshot. A worker
//! that computed an answer against epoch `E` may insert it only while
//! the published epoch is still `E` ([`ResultCache::insert_if_current`]);
//! anything later is dropped, because the worker cannot know whether
//! the intervening mutations affected its product.

use crate::snapshot::Answer;
use std::collections::HashMap;

/// Identifies the cost function a cached answer was computed under.
/// Carries the parameter as raw bits so the key is `Eq + Hash`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CostTag {
    /// `SumCost::reciprocal(dims, eps)` with these `eps` bits.
    Reciprocal(u64),
    /// The CLI's linear cost with these slope bits.
    Linear(u64),
}

/// Cache key: the product's exact coordinate bits plus the cost tag.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    t_bits: Vec<u64>,
    cost: CostTag,
}

impl CacheKey {
    /// Builds the key for product coordinates `t` under `cost`.
    pub fn new(t: &[f64], cost: CostTag) -> Self {
        CacheKey {
            t_bits: t.iter().map(|v| v.to_bits()).collect(),
            cost,
        }
    }

    /// Whether `p` lies in the product's `ADR`, i.e. `p[i] <= t[i]` on
    /// every dimension — [`skyup_geom::point_in_adr`] read off the bits.
    fn product_in_adr_of(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.t_bits.len());
        p.iter()
            .zip(&self.t_bits)
            .all(|(&x, &y)| x <= f64::from_bits(y))
    }
}

/// The dominance-aware result cache. Not internally synchronized: the
/// engine guards it with the shared-state lock.
pub struct ResultCache {
    entries: HashMap<CacheKey, Answer>,
    capacity: usize,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` answers; once full,
    /// new answers are simply not admitted (mutation evictions free
    /// space over time).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            entries: HashMap::new(),
            capacity,
        }
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a completed answer.
    pub fn get(&self, key: &CacheKey) -> Option<&Answer> {
        self.entries.get(key)
    }

    /// Admits an answer computed against epoch `computed_at`, provided
    /// the published epoch is still `current`. Returns whether the
    /// answer was admitted.
    pub fn insert_if_current(
        &mut self,
        key: CacheKey,
        answer: Answer,
        computed_at: u64,
        current: u64,
    ) -> bool {
        if computed_at != current {
            return false;
        }
        // Overwriting an existing key does not grow the map, so the
        // capacity gate only applies to new keys.
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.insert(key, answer);
        true
    }

    /// Evicts every entry whose product the point `p` that entered or
    /// left the skyline could dominate. Returns the eviction count.
    pub fn evict_dominated_by(&mut self, p: &[f64]) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|k, _| !k.product_in_adr_of(p));
        (before - self.entries.len()) as u64
    }

    /// Drops everything (index rebuilds don't need this — compaction
    /// renumbers points, not competitor ids — but warm-start replacement
    /// does).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(cost: f64) -> Answer {
        Answer {
            cost,
            upgraded: vec![0.5, 0.5],
        }
    }

    fn put(cache: &mut ResultCache, t: &[f64]) {
        let key = CacheKey::new(t, CostTag::Reciprocal(0));
        assert!(cache.insert_if_current(key, answer(1.0), 3, 3));
    }

    fn cached(cache: &ResultCache, t: &[f64]) -> bool {
        cache
            .get(&CacheKey::new(t, CostTag::Reciprocal(0)))
            .is_some()
    }

    #[test]
    fn stale_epoch_insert_dropped() {
        let mut c = ResultCache::new(16);
        let key = CacheKey::new(&[1.0, 1.0], CostTag::Reciprocal(0));
        assert!(!c.insert_if_current(key, answer(1.0), 2, 3));
        assert!(c.is_empty());
    }

    #[test]
    fn evicts_only_products_in_the_changed_points_adr() {
        let mut c = ResultCache::new(16);
        put(&mut c, &[0.9, 0.9]);
        put(&mut c, &[0.2, 0.9]);
        put(&mut c, &[0.9, 0.2]);
        // The changed point dominates only the first product.
        assert_eq!(c.evict_dominated_by(&[0.5, 0.5]), 1);
        assert_eq!(c.len(), 2);
        assert!(!cached(&c, &[0.9, 0.9]));
    }

    #[test]
    fn eviction_reads_coordinates_back_from_the_key_bits() {
        let mut c = ResultCache::new(16);
        put(&mut c, &[0.9, 0.9]);
        put(&mut c, &[0.8, 0.8]);
        put(&mut c, &[0.7, 0.7]);
        // A removed member at (0.75, 0.75) dominates the two products
        // above it; the tie on one dimension still counts (boundary of
        // the ADR), while (0.7, 0.7) lies outside.
        assert_eq!(c.evict_dominated_by(&[0.75, 0.8]), 2);
        assert_eq!(c.len(), 1);
        assert!(cached(&c, &[0.7, 0.7]));
        // Signed zeros differ in bits but compare by value.
        put(&mut c, &[-0.0, 1.5]);
        assert_eq!(c.evict_dominated_by(&[0.0, 1.0]), 1);
        assert!(cached(&c, &[0.7, 0.7]));
    }

    #[test]
    fn capacity_caps_admission() {
        let mut c = ResultCache::new(1);
        put(&mut c, &[0.9, 0.9]);
        let key = CacheKey::new(&[0.8, 0.8], CostTag::Reciprocal(0));
        assert!(!c.insert_if_current(key, answer(1.0), 3, 3));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn full_cache_still_overwrites_existing_key() {
        let mut c = ResultCache::new(1);
        put(&mut c, &[0.9, 0.9]);
        let key = CacheKey::new(&[0.9, 0.9], CostTag::Reciprocal(0));
        assert!(c.insert_if_current(key.clone(), answer(2.0), 3, 3));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key).unwrap().cost, 2.0);
    }

    /// The per-entry figure DESIGN §12 states: the map slot holds the
    /// key and the answer inline (plus one control byte), and the two
    /// coordinate vectors add `8 · dims` bytes of heap each.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn entry_is_72_bytes_inline() {
        assert_eq!(std::mem::size_of::<(CacheKey, Answer)>(), 72);
    }
}

//! A bounded top-k collector for upgrade results (smallest cost wins).

use crate::result::UpgradeResult;
use skyup_geom::OrderedF64;
use std::collections::BinaryHeap;

/// Heap entry ordered by `(cost, product id)` only; the payload does not
/// participate in comparisons.
struct Entry {
    key: (OrderedF64, u32),
    result: Box<UpgradeResult>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Keeps the `k` lowest-cost [`UpgradeResult`]s seen so far, with
/// deterministic tie-breaking by product id.
pub struct TopK {
    k: usize,
    // Max-heap: the root is the current worst kept result, evicted when
    // something strictly better arrives.
    heap: BinaryHeap<Entry>,
}

impl TopK {
    /// Creates a collector for the best `k` results.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k requires k >= 1");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Whether an offer with this `(cost, product id)` key would be
    /// kept. Probe loops use this gate to build the (allocating)
    /// [`UpgradeResult`] only for admissible products; `offer` makes the
    /// same decision, so `admits(c, id)` followed by `offer` never
    /// changes the collected set versus offering unconditionally.
    pub fn admits(&self, cost: f64, product: u32) -> bool {
        if self.heap.len() < self.k {
            return true;
        }
        match self.heap.peek() {
            Some(worst) => (OrderedF64::new(cost), product) < worst.key,
            None => true,
        }
    }

    /// Offers a result; it is kept iff it beats the current worst (ties
    /// favor the smaller product id, matching the deterministic ordering
    /// used across algorithms).
    pub fn offer(&mut self, result: UpgradeResult) {
        let entry = Entry {
            key: (OrderedF64::new(result.cost), result.product.0),
            result: Box::new(result),
        };
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(worst) = self.heap.peek() {
            if entry.key < worst.key {
                self.heap.pop();
                self.heap.push(entry);
            }
        }
    }

    /// Consumes the collector, returning results sorted by ascending
    /// `(cost, product id)`.
    pub fn into_sorted(self) -> Vec<UpgradeResult> {
        let mut items: Vec<Entry> = self.heap.into_vec();
        items.sort_by_key(|a| a.key);
        items.into_iter().map(|e| *e.result).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyup_geom::PointId;

    fn result(id: u32, cost: f64) -> UpgradeResult {
        UpgradeResult {
            product: PointId(id),
            original: vec![0.0],
            upgraded: vec![0.0],
            cost,
        }
    }

    #[test]
    fn keeps_k_smallest() {
        let mut tk = TopK::new(3);
        for (id, c) in [(0, 5.0), (1, 1.0), (2, 4.0), (3, 2.0), (4, 3.0)] {
            tk.offer(result(id, c));
        }
        let out = tk.into_sorted();
        let costs: Vec<f64> = out.iter().map(|r| r.cost).collect();
        assert_eq!(costs, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_product_id() {
        let mut tk = TopK::new(2);
        tk.offer(result(5, 1.0));
        tk.offer(result(3, 1.0));
        tk.offer(result(9, 1.0));
        let out = tk.into_sorted();
        let ids: Vec<u32> = out.iter().map(|r| r.product.0).collect();
        assert_eq!(ids, vec![3, 5]);
    }

    #[test]
    fn full_collector_tie_breaks_by_smaller_id() {
        // With the collector full, an equal-cost offer displaces the
        // kept entry only when its product id is smaller.
        let mut tk = TopK::new(1);
        tk.offer(result(7, 2.0));
        tk.offer(result(9, 2.0)); // larger id, same cost: rejected
        tk.offer(result(4, 2.0)); // smaller id, same cost: replaces
        let out = tk.into_sorted();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].product.0, 4);
    }

    #[test]
    fn rejected_ties_leave_the_kept_set_unchanged() {
        let mut tk = TopK::new(2);
        tk.offer(result(1, 3.0));
        tk.offer(result(2, 5.0));
        // Same cost, larger id than the worst kept: no change.
        assert!(!tk.admits(5.0, 8));
        tk.offer(result(8, 5.0));
        let ids: Vec<u32> = tk.into_sorted().iter().map(|r| r.product.0).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn fewer_results_than_k() {
        let mut tk = TopK::new(10);
        tk.offer(result(0, 2.0));
        assert_eq!(tk.into_sorted().len(), 1);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn zero_k_panics() {
        let _ = TopK::new(0);
    }

    #[test]
    fn admits_agrees_with_offer() {
        let mut tk = TopK::new(2);
        let offers = [
            (5u32, 3.0),
            (1, 5.0),
            (9, 4.0),
            (2, 5.0),
            (0, 3.0),
            (7, 3.0),
        ];
        for (id, c) in offers {
            let admitted = tk.admits(c, id);
            let before: Vec<(f64, u32)> = {
                let mut v: Vec<_> = tk.heap.iter().map(|e| (e.key.0.get(), e.key.1)).collect();
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v
            };
            tk.offer(result(id, c));
            let after: Vec<(f64, u32)> = {
                let mut v: Vec<_> = tk.heap.iter().map(|e| (e.key.0.get(), e.key.1)).collect();
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v
            };
            assert_eq!(admitted, before != after, "offer ({id}, {c})");
        }
    }
}

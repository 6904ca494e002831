//! Pareto dominance predicates.
//!
//! All dimensions are smaller-is-better: point `a` *dominates* `b`
//! (written `a ≺ b`) when `a` is no larger than `b` on every dimension and
//! strictly smaller on at least one (paper Definition 3).

/// The four possible dominance relationships between two points.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DomRelation {
    /// The first point dominates the second (`a ≺ b`).
    Dominates,
    /// The first point is dominated by the second (`b ≺ a`).
    DominatedBy,
    /// The points have identical coordinates.
    Equal,
    /// Neither point dominates the other.
    Incomparable,
}

/// Returns `true` when `a ≺ b`: `a[i] <= b[i]` for all `i` and
/// `a[i] < b[i]` for at least one `i`.
///
/// # Panics
/// Panics (in debug builds) if the slices have different lengths.
///
/// ```
/// use skyup_geom::dominance::dominates;
/// assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
/// assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0])); // equal, not dominated
/// assert!(!dominates(&[1.0, 4.0], &[2.0, 3.0])); // incomparable
/// ```
#[inline]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly_better = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Returns `true` when `a ≼ b`: `a[i] <= b[i]` for all `i` (dominates or
/// equal). This weak form is what transitivity arguments compose with.
#[inline]
pub fn dominates_or_equal(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(&x, &y)| x <= y)
}

/// Classifies the relationship between `a` and `b` in a single pass.
///
/// ```
/// use skyup_geom::dominance::{compare, DomRelation};
/// assert_eq!(compare(&[1.0], &[2.0]), DomRelation::Dominates);
/// assert_eq!(compare(&[2.0], &[1.0]), DomRelation::DominatedBy);
/// assert_eq!(compare(&[1.0], &[1.0]), DomRelation::Equal);
/// assert_eq!(compare(&[1.0, 3.0], &[2.0, 1.0]), DomRelation::Incomparable);
/// ```
pub fn compare(a: &[f64], b: &[f64]) -> DomRelation {
    debug_assert_eq!(a.len(), b.len());
    let mut a_better = false;
    let mut b_better = false;
    for (&x, &y) in a.iter().zip(b) {
        if x < y {
            a_better = true;
        } else if y < x {
            b_better = true;
        }
        if a_better && b_better {
            return DomRelation::Incomparable;
        }
    }
    match (a_better, b_better) {
        (true, false) => DomRelation::Dominates,
        (false, true) => DomRelation::DominatedBy,
        (false, false) => DomRelation::Equal,
        (true, true) => unreachable!("early-returned above"),
    }
}

/// Number of points per block scanned by the columnar dominance kernel.
/// One `u64` bitmask covers a block, so 64 is the natural width.
pub const DOM_BLOCK: usize = 64;

/// Outcome of a columnar dominance scan: the verdict plus how much work
/// the kernel actually did, so callers can charge the same counters the
/// scalar loop would (`points` → dominance tests, `blocks` → kernel
/// block scans, `skipped` → zone-map block skips).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColScan {
    /// Whether some scanned point dominates the target.
    pub dominated: bool,
    /// Points covered by the scanned blocks (block-granular: the kernel
    /// early-exits between blocks, not within one). Points in skipped
    /// blocks are not covered — no comparison ever touched them.
    pub points: u64,
    /// Blocks scanned (their lanes actually compared).
    pub blocks: u64,
    /// Blocks skipped wholesale because the block's zone map proved it
    /// cannot contain a dominator (always 0 on the raw column kernels,
    /// which carry no zone maps). On a scan that runs to completion —
    /// any [`collect_dominators_cols`]-style enumeration, or a
    /// membership scan that found no dominator — the conservation law
    /// `blocks + skipped == total blocks` holds exactly; a membership
    /// scan that stops at a dominating block accounts only for the
    /// blocks considered up to and including that block.
    pub skipped: u64,
}

/// Evaluates the `le`/`lt` masks of one block in dims-major, branch-free
/// form: for each dimension the whole lane column is compared against
/// the target's coordinate with no branch inside the lane loop (the
/// shape the compiler autovectorizes into packed compares + movemask),
/// and the per-dimension masks are combined afterwards.
///
/// `lanes` is the valid-lane mask (`u64::MAX` for a full block, the
/// precomputed tail mask for the last partial block). Bit `j` of the
/// returned `le` is set when point `base + j` is `<=` the target on
/// every dimension evaluated; bit `j` of `lt` when it is `<` on some
/// evaluated dimension. A block's remaining dimensions are abandoned as
/// soon as `le` empties — an exit at dimension granularity, outside the
/// lane loop, so it costs the vectorizer nothing. `le & lt` is the
/// dominator mask; the comparisons are the exact `f64` comparisons of
/// the scalar [`dominates`] loop, so the verdict is bit-identical
/// (coordinates are finite by the store contract, hence `x <= y` and
/// `!(x > y)` agree).
#[inline]
pub(crate) fn block_masks(
    cols: &[f64],
    stride: usize,
    base: usize,
    width: usize,
    lanes: u64,
    target: &[f64],
) -> (u64, u64) {
    let mut le = lanes;
    let mut lt = 0u64;
    for (d, &y) in target.iter().enumerate() {
        let col = &cols[d * stride + base..d * stride + base + width];
        let mut le_d = 0u64;
        let mut lt_d = 0u64;
        for (j, &x) in col.iter().enumerate() {
            le_d |= u64::from(x <= y) << j;
            lt_d |= u64::from(x < y) << j;
        }
        le &= le_d;
        lt |= lt_d;
        if le == 0 {
            break;
        }
    }
    (le, lt)
}

/// The per-scan block geometry: total block count and the valid-lane
/// mask of the last block, hoisted out of the block loop so the hot
/// path never recomputes the partial-block width test per iteration.
#[inline]
pub(crate) fn scan_geometry(len: usize) -> (usize, u64) {
    let blocks = len.div_ceil(DOM_BLOCK);
    let tail = len % DOM_BLOCK;
    let tail_mask = if tail == 0 {
        u64::MAX
    } else {
        (1u64 << tail) - 1
    };
    (blocks, tail_mask)
}

/// Columnar "is `target` dominated by any stored point" kernel.
///
/// `cols` holds `len` points in dims-major layout: dimension `d`'s
/// coordinates occupy `cols[d * stride .. d * stride + len]` (so
/// `stride >= len`). The scan proceeds in blocks of [`DOM_BLOCK`]
/// points, evaluating each block's `le`/`lt` masks dims-major and
/// branch-free (`block_masks`); early exit happens only at block
/// granularity, after the masks are combined — a block containing a
/// dominator (`le & lt != 0`) ends the scan.
///
/// The verdict is bit-identical to the scalar
/// `points.iter().any(|s| dominates(s, target))` loop: both reduce to
/// the same exact `f64` comparisons.
pub fn dominated_by_any_cols(cols: &[f64], stride: usize, len: usize, target: &[f64]) -> ColScan {
    let dims = target.len();
    debug_assert!(stride >= len);
    debug_assert!(cols.len() >= dims * stride);
    let (blocks, tail_mask) = scan_geometry(len);
    let mut scan = ColScan::default();
    for b in 0..blocks {
        let base = b * DOM_BLOCK;
        let (width, lanes) = if b + 1 == blocks {
            (len - base, tail_mask)
        } else {
            (DOM_BLOCK, u64::MAX)
        };
        scan.blocks += 1;
        scan.points += width as u64;
        let (le, lt) = block_masks(cols, stride, base, width, lanes, target);
        if le & lt != 0 {
            scan.dominated = true;
            return scan;
        }
    }
    scan
}

/// Columnar "collect every stored point that dominates `target`"
/// kernel: the enumerating sibling of [`dominated_by_any_cols`].
///
/// Same layout contract (`cols` dims-major with `stride >= len`), same
/// blockwise `le`/`lt` bitmask evaluation — but instead of stopping at
/// the first dominator it appends the *position* (0-based index into
/// the stored order) of every dominator to `out`, in ascending order.
/// Callers that keep an id vector aligned with the columnar buffer can
/// therefore map positions back to ids while preserving the stored
/// order, which is what makes filtered dominator lists order-identical
/// to a scalar `filter(|s| dominates(s, target))` pass.
///
/// Every block is scanned in full (`points == len` on return), because
/// the caller wants the complete set; the per-block early-out when `le`
/// empties still applies.
pub fn collect_dominators_cols(
    cols: &[f64],
    stride: usize,
    len: usize,
    target: &[f64],
    out: &mut Vec<u32>,
) -> ColScan {
    let dims = target.len();
    debug_assert!(stride >= len);
    debug_assert!(cols.len() >= dims * stride);
    let (blocks, tail_mask) = scan_geometry(len);
    let mut scan = ColScan::default();
    for b in 0..blocks {
        let base = b * DOM_BLOCK;
        let (width, lanes) = if b + 1 == blocks {
            (len - base, tail_mask)
        } else {
            (DOM_BLOCK, u64::MAX)
        };
        scan.blocks += 1;
        scan.points += width as u64;
        let (le, lt) = block_masks(cols, stride, base, width, lanes, target);
        let mut dom = le & lt;
        if dom != 0 {
            scan.dominated = true;
            while dom != 0 {
                let j = dom.trailing_zeros();
                out.push((base + j as usize) as u32);
                dom &= dom - 1;
            }
        }
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_is_irreflexive() {
        let p = [1.0, 2.0, 3.0];
        assert!(!dominates(&p, &p));
        assert!(dominates_or_equal(&p, &p));
    }

    #[test]
    fn dominance_is_asymmetric() {
        let a = [1.0, 2.0];
        let b = [2.0, 2.0];
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
    }

    #[test]
    fn dominance_is_transitive() {
        let a = [1.0, 1.0];
        let b = [1.0, 2.0];
        let c = [2.0, 2.0];
        assert!(dominates(&a, &b));
        assert!(dominates(&b, &c));
        assert!(dominates(&a, &c));
    }

    #[test]
    fn compare_matches_predicates() {
        let cases = [
            ([1.0, 1.0], [2.0, 2.0]),
            ([2.0, 2.0], [1.0, 1.0]),
            ([1.0, 2.0], [2.0, 1.0]),
            ([1.5, 1.5], [1.5, 1.5]),
        ];
        for (a, b) in cases {
            let rel = compare(&a, &b);
            assert_eq!(rel == DomRelation::Dominates, dominates(&a, &b));
            assert_eq!(rel == DomRelation::DominatedBy, dominates(&b, &a));
            assert_eq!(
                rel == DomRelation::Equal,
                dominates_or_equal(&a, &b) && dominates_or_equal(&b, &a)
            );
        }
    }

    #[test]
    fn single_dimension() {
        assert!(dominates(&[0.0], &[1.0]));
        assert!(!dominates(&[1.0], &[0.0]));
        assert_eq!(compare(&[0.5], &[0.5]), DomRelation::Equal);
    }

    /// Lays out `points` dims-major with the given stride.
    fn to_cols(points: &[Vec<f64>], dims: usize, stride: usize) -> Vec<f64> {
        let mut cols = vec![0.0; dims * stride];
        for (i, p) in points.iter().enumerate() {
            for (d, &x) in p.iter().enumerate() {
                cols[d * stride + i] = x;
            }
        }
        cols
    }

    #[test]
    fn columnar_kernel_matches_scalar_loop() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for dims in 1..=5usize {
            for n in [0usize, 1, 7, 63, 64, 65, 130, 200] {
                // Coarse grid so equal coordinates are common.
                let points: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..dims).map(|_| (next() * 4.0).floor() / 4.0).collect())
                    .collect();
                let stride = n + 3;
                let cols = to_cols(&points, dims, stride);
                for _ in 0..20 {
                    let target: Vec<f64> =
                        (0..dims).map(|_| (next() * 4.0).floor() / 4.0).collect();
                    let scalar = points.iter().any(|p| dominates(p, &target));
                    let scan = dominated_by_any_cols(&cols, stride, n, &target);
                    assert_eq!(scan.dominated, scalar, "dims={dims} n={n} t={target:?}");
                }
            }
        }
    }

    #[test]
    fn collect_kernel_matches_scalar_filter_in_order() {
        let mut state = 0xfeed_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for dims in 1..=4usize {
            for n in [0usize, 1, 63, 64, 65, 130] {
                let points: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..dims).map(|_| (next() * 4.0).floor() / 4.0).collect())
                    .collect();
                let stride = n + 2;
                let cols = to_cols(&points, dims, stride);
                for _ in 0..20 {
                    let target: Vec<f64> =
                        (0..dims).map(|_| (next() * 4.0).floor() / 4.0).collect();
                    let scalar: Vec<u32> = points
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| dominates(p, &target))
                        .map(|(i, _)| i as u32)
                        .collect();
                    let mut got = Vec::new();
                    let scan = collect_dominators_cols(&cols, stride, n, &target, &mut got);
                    assert_eq!(got, scalar, "dims={dims} n={n} t={target:?}");
                    assert_eq!(scan.dominated, !scalar.is_empty());
                    // The collect kernel never early-exits across blocks.
                    assert_eq!(scan.points, n as u64);
                }
            }
        }
    }

    #[test]
    fn columnar_kernel_counts_block_granular_work() {
        // 70 points, none dominating: the full two blocks are scanned.
        let points: Vec<Vec<f64>> = (0..70).map(|i| vec![i as f64, -(i as f64)]).collect();
        let cols = to_cols(&points, 2, 70);
        let scan = dominated_by_any_cols(&cols, 70, 70, &[-1.0, -100.0]);
        assert!(!scan.dominated);
        assert_eq!((scan.points, scan.blocks), (70, 2));
        // A dominator in the first block stops the scan there.
        let scan = dominated_by_any_cols(&cols, 70, 70, &[100.0, 100.0]);
        assert!(scan.dominated);
        assert_eq!((scan.points, scan.blocks), (64, 1));
    }

    #[test]
    fn columnar_kernel_equal_points_do_not_dominate() {
        let points = vec![vec![0.5, 0.5]];
        let cols = to_cols(&points, 2, 1);
        assert!(!dominated_by_any_cols(&cols, 1, 1, &[0.5, 0.5]).dominated);
        assert!(dominated_by_any_cols(&cols, 1, 1, &[0.5, 0.6]).dominated);
    }

    #[test]
    fn paper_table_one_phones() {
        // Table I, negated where larger-is-better (standby, camera) so
        // that smaller is uniformly better.
        let phones = [
            [140.0, -200.0, -2.0], // phone 1
            [180.0, -150.0, -3.0], // phone 2
            [100.0, -160.0, -3.0], // phone 3
            [180.0, -180.0, -3.0], // phone 4
            [120.0, -180.0, -4.0], // phone 5
            [150.0, -150.0, -3.0], // phone 6
        ];
        // Phones 1, 3, 5 are the skyline (not dominated by any other).
        for (i, p) in phones.iter().enumerate() {
            let dominated = phones
                .iter()
                .enumerate()
                .any(|(j, q)| j != i && dominates(q, p));
            let expect_skyline = matches!(i, 0 | 2 | 4);
            assert_eq!(!dominated, expect_skyline, "phone {}", i + 1);
        }
    }
}

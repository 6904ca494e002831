//! Immutable epoch snapshots: the unit of publication between the
//! single writer and the query workers.
//!
//! A snapshot freezes everything a query needs — the competitor point
//! store, the R-tree over its live points, and the precomputed skyline
//! of the live set — so workers answer requests with zero coordination
//! beyond one `Arc` clone. The store is append-only and may contain
//! tombstoned rows; the tree and the skyline cover live rows only.
//!
//! Per-product answering is tree-free: the skyline of a product's
//! dominators is a linear filter of the live-set skyline
//! ([`skyup_core::dominators_from_skyline`]), which is what makes the
//! precomputed skyline worth carrying in every epoch. Queries read it
//! through the snapshot's [`SkylineView`] (columnar copy plus
//! per-dimension sorts), built on first use and then shared by every
//! query of the epoch, so mutations never pay for it.

use crate::CompetitorId;
use skyup_core::cost::CostFunction;
use skyup_core::{dominators_from_skyline, upgrade_single, SkylineView, UpgradeConfig};
use skyup_geom::{PointId, PointStore};
use skyup_obs::Recorder;
use skyup_rtree::RTree;
use std::sync::OnceLock;

/// One fully evaluated per-product answer. It names no [`PointId`]s
/// or competitor ids, so it stays valid across index rebuilds (which
/// compact the store and renumber points); the result cache decides
/// when it goes stale from the product's coordinates alone.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// Minimal upgrade cost (0.0 when already competitive).
    pub cost: f64,
    /// The upgraded coordinates achieving that cost.
    pub upgraded: Vec<f64>,
}

/// An immutable view of the competitor set at one epoch.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub(crate) epoch: u64,
    pub(crate) store: PointStore,
    pub(crate) tree: RTree,
    /// Skyline of the live rows, sorted by [`PointId`] so every code
    /// path that consumes it sees one canonical order.
    pub(crate) skyline: Vec<PointId>,
    pub(crate) cid_of: Vec<CompetitorId>,
    pub(crate) live_count: usize,
    /// The skyline's view, built by the first query of the epoch.
    pub(crate) view: OnceLock<SkylineView>,
}

impl Snapshot {
    /// The epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The competitor store (live and tombstoned rows).
    pub fn store(&self) -> &PointStore {
        &self.store
    }

    /// The R-tree over the live competitors.
    pub fn tree(&self) -> &RTree {
        &self.tree
    }

    /// The id-sorted skyline of the live competitor set.
    pub fn skyline(&self) -> &[PointId] {
        &self.skyline
    }

    /// The epoch's [`SkylineView`]: built by the first caller, shared
    /// by every later one.
    pub fn view(&self) -> &SkylineView {
        self.view
            .get_or_init(|| SkylineView::new(&self.store, self.skyline.clone()))
    }

    /// Number of live competitors.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Dimensionality of the competitor space.
    pub fn dims(&self) -> usize {
        self.store.dims()
    }

    /// The stable competitor id of a store row.
    pub fn cid(&self, pid: PointId) -> CompetitorId {
        self.cid_of[pid.index()]
    }

    /// Computes product `t`'s answer against this snapshot: filter the
    /// live-set skyline down to `t`'s dominators and run Algorithm 1.
    pub fn answer<C: CostFunction + ?Sized, R: Recorder + ?Sized>(
        &self,
        t: &[f64],
        cost_fn: &C,
        cfg: &UpgradeConfig,
        rec: &mut R,
    ) -> Answer {
        let dominators = dominators_from_skyline(&self.store, &self.skyline, t, rec);
        let (cost, upgraded) = upgrade_single(&self.store, &dominators, t, cost_fn, cfg);
        Answer { cost, upgraded }
    }
}

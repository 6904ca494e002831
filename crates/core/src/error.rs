//! Structured errors for the fallible (`try_*`) query APIs.
//!
//! The panicking entry points keep their assert-based contracts for
//! callers that construct inputs programmatically; the `try_*` variants
//! validate everything a remote caller could get wrong — mismatched
//! dimensionalities, empty competitor sets, `k == 0`, `threads == 0`,
//! stale indexes, and non-monotone cost functions (checked with the
//! [`crate::cost::diagnostics`] sampler) — and report it as a
//! [`SkyupError`] instead of aborting the process.

use crate::cost::diagnostics::{verify_monotone_on, MonotonicityViolation};
use crate::cost::CostFunction;
use skyup_geom::PointStore;
use skyup_rtree::RTree;
use std::fmt;

/// How many leading points of each store the monotonicity sampler
/// inspects per `try_*` call (`O(limit²)` dominance-comparable pairs).
pub(crate) const MONOTONE_SAMPLE_LIMIT: usize = 48;

/// Why a `try_*` query was rejected or failed.
#[derive(Clone, Debug, PartialEq)]
pub enum SkyupError {
    /// A parameter is out of range (`k == 0`, `threads == 0`, a cost
    /// function of the wrong dimensionality, ...).
    InvalidConfig(String),
    /// The competitor and product stores disagree on dimensionality.
    DimensionMismatch {
        /// Dimensionality of the competitor store `P`.
        p_dims: usize,
        /// Dimensionality of the product store `T`.
        t_dims: usize,
    },
    /// The competitor set `P` is empty — there is nothing to upgrade
    /// against, which almost always means a wiring bug upstream.
    EmptyCompetitorSet,
    /// An R-tree does not index exactly the points of its store.
    IndexMismatch {
        /// Which index (`"R_P"` or `"R_T"`).
        tree: &'static str,
        /// Points the tree indexes.
        tree_len: usize,
        /// Points the store holds.
        store_len: usize,
    },
    /// The cost function violates the paper's monotonicity assumption
    /// on sampled data (Section I-C); lower bounds and Algorithm 1's
    /// pruning would silently break.
    NonMonotoneCost(MonotonicityViolation),
    /// A data value is malformed (non-finite coordinate, out-of-bounds
    /// skyline id, a skyline point that does not dominate the product).
    InvalidInput(String),
    /// A parallel-probing worker panicked; the panic was contained by
    /// the unwind barrier and the other workers' output was discarded.
    WorkerPanicked {
        /// Index of the worker that panicked.
        worker: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The serving engine degraded to read-only after a durability I/O
    /// failure (WAL append/fsync or checkpoint write). Queries keep
    /// being served from the last published snapshot; mutations are
    /// rejected with this error until the process is restarted.
    ReadOnly {
        /// The I/O failure that triggered the degradation.
        reason: String,
    },
    /// A data file could not be loaded: a malformed cell, a ragged
    /// column count, a non-finite value, or an empty file. Carries the
    /// 1-based line number so the offending row can be found without
    /// re-parsing (`line == 0` means the error is about the file as a
    /// whole, e.g. it is empty or unreadable).
    DataLoad {
        /// The file (or source label) being loaded.
        source: String,
        /// 1-based line of the offending row; `0` for whole-file errors.
        line: u64,
        /// What was wrong with the row.
        message: String,
    },
}

impl fmt::Display for SkyupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkyupError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SkyupError::DimensionMismatch { p_dims, t_dims } => {
                write!(f, "P has {p_dims} dimensions but T has {t_dims}")
            }
            SkyupError::EmptyCompetitorSet => write!(f, "competitor set P is empty"),
            SkyupError::IndexMismatch {
                tree,
                tree_len,
                store_len,
            } => write!(
                f,
                "{tree} indexes {tree_len} points but its store holds {store_len}"
            ),
            SkyupError::NonMonotoneCost(v) => {
                write!(f, "cost function is not monotone: {v}")
            }
            SkyupError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            SkyupError::WorkerPanicked { worker, message } => {
                write!(f, "probing worker {worker} panicked: {message}")
            }
            SkyupError::ReadOnly { reason } => {
                write!(
                    f,
                    "engine is read-only after a durability failure: {reason}"
                )
            }
            SkyupError::DataLoad {
                source,
                line,
                message,
            } => {
                if *line == 0 {
                    write!(f, "{source}: {message}")
                } else {
                    write!(f, "{source}: line {line}: {message}")
                }
            }
        }
    }
}

impl std::error::Error for SkyupError {}

/// The validation shared by every `try_*` query entry point that
/// searches a competitor R-tree: [`validate_inputs`] plus a non-empty
/// `P` indexed by `p_tree`.
pub(crate) fn validate_query<C: CostFunction + ?Sized>(
    p_store: &PointStore,
    p_tree: &RTree,
    t_store: &PointStore,
    k: usize,
    cost_fn: &C,
) -> Result<(), SkyupError> {
    validate_inputs(p_store, t_store, k, cost_fn)?;
    if p_store.is_empty() {
        return Err(SkyupError::EmptyCompetitorSet);
    }
    if p_tree.len() != p_store.len() {
        return Err(SkyupError::IndexMismatch {
            tree: "R_P",
            tree_len: p_tree.len(),
            store_len: p_store.len(),
        });
    }
    Ok(())
}

/// Dimensionalities, `k >= 1`, and cost-function monotonicity on
/// sampled data — everything a query needs that does not involve an
/// index.
pub(crate) fn validate_inputs<C: CostFunction + ?Sized>(
    p_store: &PointStore,
    t_store: &PointStore,
    k: usize,
    cost_fn: &C,
) -> Result<(), SkyupError> {
    if p_store.dims() != t_store.dims() {
        return Err(SkyupError::DimensionMismatch {
            p_dims: p_store.dims(),
            t_dims: t_store.dims(),
        });
    }
    if cost_fn.dims() != p_store.dims() {
        return Err(SkyupError::InvalidConfig(format!(
            "cost function covers {} dimensions but products have {}",
            cost_fn.dims(),
            p_store.dims()
        )));
    }
    if k == 0 {
        return Err(SkyupError::InvalidConfig("k must be at least 1".into()));
    }
    verify_monotone_on(cost_fn, p_store, MONOTONE_SAMPLE_LIMIT)
        .map_err(SkyupError::NonMonotoneCost)?;
    verify_monotone_on(cost_fn, t_store, MONOTONE_SAMPLE_LIMIT)
        .map_err(SkyupError::NonMonotoneCost)?;
    Ok(())
}

/// Renders a `catch_unwind` payload as text (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SumCost;
    use skyup_rtree::RTreeParams;

    #[test]
    fn validate_catches_each_mistake() {
        let p = PointStore::from_rows(2, vec![[0.1, 0.2], [0.3, 0.1]]);
        let rp = RTree::bulk_load(&p, RTreeParams::default());
        let t = PointStore::from_rows(2, vec![[0.5, 0.5]]);
        let cost = SumCost::reciprocal(2, 1e-3);

        assert!(validate_query(&p, &rp, &t, 3, &cost).is_ok());

        let t3 = PointStore::new(3);
        assert_eq!(
            validate_query(&p, &rp, &t3, 3, &cost),
            Err(SkyupError::DimensionMismatch {
                p_dims: 2,
                t_dims: 3
            })
        );

        let cost3 = SumCost::reciprocal(3, 1e-3);
        assert!(matches!(
            validate_query(&p, &rp, &t, 3, &cost3),
            Err(SkyupError::InvalidConfig(_))
        ));

        assert!(matches!(
            validate_query(&p, &rp, &t, 0, &cost),
            Err(SkyupError::InvalidConfig(_))
        ));

        let empty = PointStore::new(2);
        let r_empty = RTree::bulk_load(&empty, RTreeParams::default());
        assert_eq!(
            validate_query(&empty, &r_empty, &t, 3, &cost),
            Err(SkyupError::EmptyCompetitorSet)
        );

        // A tree built over a different cardinality is stale.
        assert_eq!(
            validate_query(&p, &r_empty, &t, 3, &cost),
            Err(SkyupError::IndexMismatch {
                tree: "R_P",
                tree_len: 0,
                store_len: 2
            })
        );
    }

    #[test]
    fn validate_catches_non_monotone_cost() {
        use crate::cost::AttributeCost;
        struct Increasing;
        impl AttributeCost for Increasing {
            fn eval(&self, v: f64) -> f64 {
                v
            }
        }
        let broken = SumCost::new(vec![Box::new(Increasing), Box::new(Increasing)]);
        let p = PointStore::from_rows(2, vec![[0.1, 0.1], [0.9, 0.9]]);
        let rp = RTree::bulk_load(&p, RTreeParams::default());
        let t = PointStore::from_rows(2, vec![[0.5, 0.5]]);
        let err = validate_query(&p, &rp, &t, 1, &broken).unwrap_err();
        assert!(matches!(err, SkyupError::NonMonotoneCost(_)));
        assert!(err.to_string().contains("monotone"));
    }

    #[test]
    fn display_covers_every_variant() {
        let msgs = [
            SkyupError::InvalidConfig("k must be at least 1".into()).to_string(),
            SkyupError::DimensionMismatch {
                p_dims: 2,
                t_dims: 3,
            }
            .to_string(),
            SkyupError::EmptyCompetitorSet.to_string(),
            SkyupError::IndexMismatch {
                tree: "R_T",
                tree_len: 1,
                store_len: 2,
            }
            .to_string(),
            SkyupError::InvalidInput("NaN".into()).to_string(),
            SkyupError::WorkerPanicked {
                worker: 3,
                message: "boom".into(),
            }
            .to_string(),
            SkyupError::ReadOnly {
                reason: "wal fsync failed: No space left on device".into(),
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }

    #[test]
    fn panic_message_extracts_strings() {
        assert_eq!(panic_message(Box::new("boom")), "boom");
        assert_eq!(panic_message(Box::new(String::from("kaput"))), "kaput");
        assert_eq!(panic_message(Box::new(42_u32)), "non-string panic payload");
    }
}

//! Workload generators for the `skyup` experiments.
//!
//! * [`synthetic`] — the independent / correlated / anti-correlated
//!   generators of Börzsönyi et al. (ICDE 2001), used by the paper's
//!   Sections IV-C and IV-D with `P ⊂ [0,1]^c` and `T ⊂ (1,2]^c`.
//! * [`wine`] — a statistically faithful stand-in for the UCI
//!   winequality-white data set used in Section IV-B (the original CSV
//!   cannot be fetched in this offline environment; see DESIGN.md §4).
//! * [`normalize`] — min-max normalization into the unit space and
//!   negation of larger-is-better attributes.
//! * [`sample`] — the paper's `P`/`T` split: sample non-skyline tuples
//!   at random as the upgrade candidates `T`, keep the rest as `P`.
//! * [`rng`] — the deterministic in-repo PRNG backing all of the above
//!   (the offline environment has no `rand` crate).
//!
//! * [`ingest`](mod@ingest) — real-data ingestion: CSV/NDJSON loading with schema
//!   inference, per-column min/max/cardinality/null profiling,
//!   direction flags, and normalization into the paper's
//!   `P ⊂ [0,1]^c` / `T ⊂ (1,2]^c` frame, with line-numbered
//!   `SkyupError::DataLoad` errors.
//!
//! All generators are deterministic given a seed.

pub mod ingest;
pub mod io;
pub mod normalize;
pub mod rng;
pub mod sample;
pub mod synthetic;
pub mod wine;

pub use ingest::{
    ingest, ingest_text, normalize_frame, ColumnProfile, Format, Frame, IngestOptions, Ingested,
    NullPolicy,
};
pub use io::{read_delimited, write_delimited};
pub use normalize::{negate_dimensions, normalize_unit};
pub use rng::Rng;
pub use sample::split_products;
pub use synthetic::{generate, paper_competitors, paper_products, Distribution, SyntheticConfig};
pub use wine::{load_wine_csv, wine_dataset, WineAttr};

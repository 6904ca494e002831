//! Outside-in benchmark for `skyup`. The program under test runs as
//! child processes (`skyup serve`, `skyup coordinate`, the top-k CLI)
//! fed only generated files and request lines; the traced run links the
//! workspace libraries to time each layer's public calls. See
//! `RECORDS.md` for the workloads, metrics and findings.

pub mod client;
pub mod gen;
pub mod offline;
pub mod procs;
pub mod served;
pub mod stats;
pub mod trace;

//! End-to-end benchmark of the `mrx serve` daemon at full XMark scale,
//! with per-layer attribution from a traced in-process replay of the same
//! requests. `run.py` builds the daemon and this crate and is the entry
//! point; `src/main.rs` is one run of one workload.

pub mod bench;
pub mod daemon;
pub mod procfs;
pub mod requests;
pub mod setup;
pub mod stats;
pub mod trace;

//! Bisimilarity-based structural indexes for XML data graphs.
//!
//! This crate implements the complete index family from He & Yang,
//! *"Multiresolution Indexing of XML for Frequent Queries"* (ICDE 2004):
//!
//! | Index | Module | Role |
//! |-------|--------|------|
//! | 1-index | [`OneIndex`] | full-bisimulation baseline (Milo & Suciu) |
//! | A(k)-index | [`AkIndex`] | global-resolution baseline (Kaushik et al.) |
//! | D(k)-index | [`DkIndex`] | adaptive baseline, construct + promote (Chen et al.) |
//! | M(k)-index | [`MkIndex`] | the paper's workload-aware index (§3) |
//! | M*(k)-index | [`MStarIndex`] | the paper's multiresolution index (§4) |
//!
//! All indexes share the same substrates: ground-truth k-bisimulation
//! partitions ([`k_bisim`], [`bisim`]), the mutable [`IndexGraph`] with
//! incremental node splitting, and the §3.1 query algorithm
//! ([`query::answer`]) with the paper's node-visit [`mrx_path::Cost`]
//! accounting.
//!
//! ```
//! use mrx_graph::xml::parse;
//! use mrx_path::PathExpr;
//! use mrx_index::MkIndex;
//!
//! let g = parse("<site><a><b/></a><c><b/></c></site>").unwrap();
//! let mut idx = MkIndex::new(&g);
//! let fup = PathExpr::parse("//a/b").unwrap();
//! let first = idx.answer_and_refine(&g, &fup);   // validates, then refines
//! let second = idx.query(&g, &fup);              // now precise, no validation
//! assert_eq!(first.nodes, second.nodes);
//! assert!(!second.validated);
//! ```

#![forbid(unsafe_code)]

mod a_k;
pub mod adapt;
mod apex;
pub mod compressed;
mod d_k;
pub mod graph;
mod m_k;
mod m_star;
mod one_index;
pub mod paged;
mod partition;
pub mod query;
pub mod refine;
pub mod session;
pub mod snapshot;
pub mod stats;
pub mod view;

pub use a_k::{ground_truth, AkIndex};
pub use adapt::AdaptEngine;
pub use apex::ApexIndex;
pub use compressed::CompressedIndex;
pub use d_k::{label_requirements, DkIndex};
pub use graph::{IdxId, IndexEvalScratch, IndexGraph};
pub use m_k::MkIndex;
pub use m_star::{EvalStrategy, MStarIndex};
pub use one_index::OneIndex;
pub use paged::PagedIndex;
pub use partition::{
    bisim, bisim_stats, k_bisim, k_bisim_all, k_bisim_stats, label_partition, naive, refine_once,
    Partition,
};
pub use query::{answer, answer_paper, Answer, QueryScratch, TrustPolicy};
pub use refine::{RefineStats, Refiner};
pub use session::{
    default_threads, replay, QuerySession, ReplayReport, Servable, SessionStats, SharedAnswerCache,
    SharedCacheConfig, SharedCacheStats,
};
pub use snapshot::{
    CompressedMStar, ExtentStore, MStarSnapshot, PagedMStar, SnapshotIndex, SubnodeLinks,
};
pub use view::{
    eval_view, finish_answer_view, finish_answer_view_budgeted, top_down_targets_budgeted,
    IndexView, Targets,
};

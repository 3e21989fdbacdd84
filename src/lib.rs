//! # mrx — Multiresolution Indexing of XML for Frequent Queries
//!
//! A from-scratch Rust implementation of He & Yang's ICDE 2004 paper:
//! the **M(k)-index** and **M\*(k)-index**, their baselines (1-index,
//! A(k)-index, D(k)-index in both construct and promote flavours), and the
//! complete substrate stack — XML data-graph model and parser, synthetic
//! XMark-like and NASA-like dataset generators, simple-path-expression
//! engine with validation, workload generation, and the experiment harness
//! that regenerates every figure of the paper's evaluation.
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here under a module of the same name.
//!
//! ## Quick start
//!
//! ```
//! use mrx::graph::xml::parse;
//! use mrx::path::PathExpr;
//! use mrx::index::{EvalStrategy, MStarIndex};
//!
//! // 1. Load a document (ID/IDREF attributes become reference edges).
//! let g = parse(r#"<site>
//!     <people><person id="p1"><name/></person></people>
//!     <open_auctions><open_auction><seller person="p1"/></open_auction></open_auctions>
//! </site>"#).unwrap();
//!
//! // 2. Build an adaptive multiresolution index.
//! let mut idx = MStarIndex::new(&g);
//!
//! // 3. Answer a query; its first run validates against the data graph.
//! let fup = PathExpr::parse("//open_auction/seller/person").unwrap();
//! let first = idx.answer_and_refine(&g, &fup);
//!
//! // 4. After refinement the index answers the FUP precisely: the default
//! //    (sound) policy double-checks one representative per index node
//! //    unless its proofs cover the query, the paper's claimed-k policy
//! //    trusts the index outright.
//! let second = idx.query(&g, &fup, EvalStrategy::TopDown);
//! assert_eq!(first.nodes, second.nodes);
//! assert!(!idx.query_paper(&g, &fup, EvalStrategy::TopDown).validated);
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`graph`] | `mrx-graph` | labeled data graph, XML parser/writer, stats |
//! | [`datagen`] | `mrx-datagen` | XMark-like, NASA-like, DTD-driven, random generators |
//! | [`path`] | `mrx-path` | path expressions, evaluation, validation, cost metric |
//! | [`index`] | `mrx-index` | 1-index, A(k), D(k), M(k), M*(k) + partition engine |
//! | [`workload`] | `mrx-workload` | §5 workload generator and FUP extraction |
//! | [`store`] | `mrx-store` | disk-resident persistence, lazy component loading (§6) |

#![forbid(unsafe_code)]

pub use mrx_datagen as datagen;
pub use mrx_graph as graph;
pub use mrx_index as index;
pub use mrx_path as path;
pub use mrx_store as store;
pub use mrx_workload as workload;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use mrx_datagen::{nasa_like, xmark_like, XmarkConfig};
    pub use mrx_graph::{DataGraph, GraphBuilder, LabelId, NodeId};
    pub use mrx_index::{
        AkIndex, Answer, ApexIndex, DkIndex, EvalStrategy, IdxId, IndexGraph, MStarIndex, MkIndex,
        OneIndex, QuerySession, TrustPolicy,
    };
    pub use mrx_path::{eval_data, Cost, PathExpr};
    pub use mrx_workload::{FupExtractor, Workload, WorkloadConfig};
}

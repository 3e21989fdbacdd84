//! Labeled directed data-graph model for XML and other semi-structured data.
//!
//! An XML document is represented by a labeled directed graph
//! `G = (V, E, root, Σ)` (He & Yang, ICDE 2004, §2):
//!
//! * every node carries a string label drawn from the alphabet `Σ`
//!   (element tag names), interned as a [`LabelId`];
//! * *tree edges* represent parent–child element nesting;
//! * *reference edges* represent ID/IDREF links between elements.
//!
//! Structural indexes treat both edge kinds uniformly — a path may traverse
//! references — so the frozen [`DataGraph`] exposes a single merged adjacency
//! (in compressed sparse row form, both forward and inverse), while the
//! edge kind is retained for serialization and statistics.
//!
//! # Quick start
//!
//! ```
//! use mrx_graph::{GraphBuilder, DataGraph};
//!
//! let mut b = GraphBuilder::new();
//! let root = b.add_node("site");
//! let people = b.add_child(root, "people");
//! let person = b.add_child(people, "person");
//! let auction = b.add_child(root, "open_auction");
//! b.add_ref(auction, person); // e.g. a `seller` IDREF
//! let g: DataGraph = b.freeze();
//!
//! assert_eq!(g.node_count(), 4);
//! assert_eq!(g.label_str(g.label(person)), "person");
//! assert_eq!(g.parents(person).len(), 2); // people + auction
//! ```

#![forbid(unsafe_code)]

mod builder;
mod frozen;
mod graph;
mod ids;
mod interner;
pub mod stats;
mod view;
pub mod xml;

pub use builder::GraphBuilder;
pub use frozen::{FrozenGraph, PackedGraphCsr};
pub use graph::{DataGraph, EdgeKind};
pub use ids::{LabelId, NodeId};
pub use interner::LabelInterner;
pub use view::GraphView;

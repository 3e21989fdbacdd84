//! Seeded synthetic XML dataset generators.
//!
//! The paper evaluates on two datasets neither of which is shippable here:
//! an 11 MB XMark document (~120k nodes) produced by the XML Benchmark
//! Project's C generator, and an 11 MB document (~90k nodes) produced by the
//! closed-source IBM XML generator from the NASA astronomy DTD. Structural
//! indexes only observe the *labeled graph shape* — label alphabet, nesting,
//! fan-out, and ID/IDREF sharing — so this crate re-creates both shapes from
//! scratch:
//!
//! * [`xmark`]: an auction-site document following the XMark DTD's element
//!   hierarchy and reference structure (`incategory`, `personref`, `seller`,
//!   `buyer`, `itemref`, `watch`, category-graph `edge`s);
//! * [`dtd`]: a general probabilistic DTD-driven generator (our stand-in for
//!   the IBM generator);
//! * [`nasa`]: a NASA-like astronomy-archive DTD — deeper, broader, more
//!   irregular and more reference-rich than XMark, with element names
//!   (`name`, `title`, `author`, `date`) reused in many contexts;
//! * [`random`]: uniform random labeled graphs for property-based tests.
//!
//! All generators are deterministic in their seed, driven by the in-repo
//! seeded generator in [`prng`] (no external dependencies).

#![forbid(unsafe_code)]

pub mod dtd;
pub mod nasa;
pub mod prng;
pub mod random;
pub mod xmark;

pub use dtd::{Dtd, DtdBuilder, Occurs};
pub use nasa::{nasa_like, nasa_like_with_density};
pub use prng::Prng;
pub use random::{random_graph, RandomGraphConfig};
pub use xmark::{xmark_like, XmarkConfig};

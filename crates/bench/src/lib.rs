//! Experiment harness reproducing §5 of He & Yang (ICDE 2004).
//!
//! Every figure in the paper's evaluation maps to a generator here:
//!
//! | Figures | Content | Entry point |
//! |---------|---------|-------------|
//! | 8, 9 | query-length distributions | [`figures::figure`] 8 / 9 |
//! | 10–13 | cost vs size, max length 9 | [`figures::figure`] 10–13 |
//! | 14–17 | index growth, max length 9 | [`figures::figure`] 14–17 |
//! | 18–22 | cost vs size, max length 4 | [`figures::figure`] 18–22 |
//! | 23–26 | index growth, max length 4 | [`figures::figure`] 23–26 |
//!
//! Experiment scale is configurable ([`Scale`], honouring the `MRX_SCALE`
//! and `MRX_QUERIES` environment variables) because the paper's full scale
//! (~120k-node XMark, ~90k-node NASA, 500 queries) takes a while under five
//! index families; the *shapes* the paper reports emerge at every scale.

pub mod datasets;
pub mod experiment;
pub mod figures;
pub mod plot;

pub use datasets::{Dataset, Scale};
pub use experiment::{AdaptiveRun, AkPoint, CostSizeExperiment, GrowthPoint, IndexKind, SizedCost};
pub use figures::{figure, figure_ids, FigureData, Series};
pub use plot::render_svg;

//! Simple path expressions over labeled data graphs.
//!
//! The paper (He & Yang, ICDE 2004, §2) works with *simple path
//! expressions* — label paths, optionally starting with the
//! self-or-descendant axis `//`, optionally containing `*` wildcards:
//!
//! * `/site/people/person` — anchored at the document root;
//! * `//name/lastname` — matched anywhere in the graph;
//! * `/site/regions/*/item` — one wildcard step.
//!
//! A path `l0/l1/…/ln` has **length `n`** (edge count, the paper's
//! convention), i.e. one less than its number of labels.
//!
//! This crate provides parsing ([`PathExpr`]), compilation against a graph's
//! label alphabet ([`CompiledPath`]), ground-truth evaluation on the data
//! graph ([`eval_data`]), and backward *validation* of candidate answers with
//! the paper's data-node-visit cost accounting ([`Validator`]).
//!
//! ```
//! use mrx_graph::xml::parse;
//! use mrx_path::{PathExpr, eval_data};
//!
//! let g = parse("<site><people><person/><person/></people></site>").unwrap();
//! let p = PathExpr::parse("//people/person").unwrap();
//! assert_eq!(p.length(), 1);
//! assert_eq!(eval_data(&g, &p.compile(&g)).len(), 2);
//! ```

#![forbid(unsafe_code)]

mod budget;
mod cost;
mod eval;
mod expr;
mod scratch;
mod validate;

pub use budget::{
    never_fails, BudgetError, BudgetKind, BudgetMeter, CancelProbe, Governor, QueryBudget,
    Ungoverned, POLL_INTERVAL,
};
pub use cost::Cost;
pub use eval::{eval_data, eval_data_counting, eval_data_in, eval_data_with};
pub use expr::{CompiledPath, CompiledStep, ParsePathError, PathExpr, Step};
pub use scratch::{EpochMemo, EpochSet, EvalScratch};
pub use validate::{Validator, ValidatorRef};

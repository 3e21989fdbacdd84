//! The paper's query algorithm (§3.1), shared by every single-graph index,
//! and its answering rule, shared by every index form.
//!
//! 1. Find the target set of the expression in the index graph.
//! 2. For each target index node `v`: if `v`'s local similarity covers the
//!    expression length, return `v.extent` outright; otherwise *validate*
//!    the extent members against the data graph and return true answers.
//!
//! Step 2 is written once, in `answer_targets`; the M\*(k) strategies of
//! §4.1 reach it with their own targets (see [`crate::snapshot`]).
//!
//! ## Trust policies
//!
//! The paper trusts the claimed similarity `v.k`. That is sound for the
//! A(k)-, 1-, D(k)-construct and D(k)-promote indexes, whose partitioning is
//! bisimilarity-faithful by construction. For the M(k)/M*(k) selective
//! refinement, however, a *mixed* piece (relevant and irrelevant data that
//! share all qualifying parents) can carry a claimed `k` higher than the
//! true bisimilarity of its extent, so trusting `k` can return false
//! positives without validation — a subtlety the paper's Property 1 glosses
//! over (its own Figure 7 cannot trigger it, but XMark-scale workloads do).
//!
//! This module therefore supports two policies:
//!
//! * [`TrustPolicy::Proven`] (the default): always exact. A target node
//!   whose *proven* similarity covers the expression is `≈len`-homogeneous,
//!   so all extent members share the same incoming label paths up to `len`
//!   and one memoized validation of a single representative decides the
//!   whole extent (homogeneity alone does not make the index-level instance
//!   real — that would additionally need proven similarities to satisfy
//!   Property 3 along the instance, which selective refinement does not
//!   maintain). Nodes without the proven cover validate every member.
//! * [`TrustPolicy::Claimed`]: the paper's behaviour, used by the experiment
//!   harness so the reported cost figures match the paper's protocol.
//!
//! Cost accounting follows §5: index-node visits during step 1 plus
//! data-node visits during step 2. Extent members of trusted target nodes
//! are **not** counted.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use mrx_graph::{GraphView, NodeId};
use mrx_path::{
    never_fails, CompiledPath, Cost, EpochMemo, Governor, PathExpr, Ungoverned, ValidatorRef,
};

use crate::graph::IndexEvalScratch;
use crate::view::{eval_view_governed, IndexView};
use crate::IdxId;

/// All per-query mutable state for one serving thread: index-eval buffers
/// plus the validator memo. One instance per [`crate::QuerySession`] (or
/// per call for the one-shot entry points); reuse makes answering
/// allocation-free in steady state.
#[derive(Debug, Default, Clone)]
pub struct QueryScratch {
    pub(crate) eval: IndexEvalScratch,
    pub(crate) memo: EpochMemo,
}

impl QueryScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Which similarity value the query algorithm trusts when deciding to skip
/// validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrustPolicy {
    /// Trust the proven similarity — exact answers, always.
    #[default]
    Proven,
    /// Trust the claimed `v.k` — the paper's §3.1 algorithm verbatim. Exact
    /// for the A(k)/1-/D(k) families; can return unvalidated false positives
    /// on selectively refined M(k)/M*(k) nodes.
    Claimed,
}

/// Result of answering a path expression through an index.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Answer set (sorted by node id). Exact under [`TrustPolicy::Proven`].
    pub nodes: Vec<NodeId>,
    /// Node-visit cost of producing it.
    pub cost: Cost,
    /// Target set in the index graph (alive at return time).
    pub target_index_nodes: Vec<IdxId>,
    /// Whether any extent needed validation.
    pub validated: bool,
}

/// Answers `path` using `ig` over `g` under the default (sound) policy.
///
/// All entry points here are generic over [`IndexView`] × [`GraphView`]:
/// the same code serves the live `IndexGraph`/`DataGraph` pair and their
/// compressed and paged snapshots, with bit-identical answers and costs (see
/// [`crate::view`] for the correspondence argument). Serving goes through
/// [`crate::QuerySession`], which adds scratch reuse, the answer cache and
/// the budget.
pub fn answer<I: IndexView, G: GraphView>(ig: &I, g: &G, path: &PathExpr) -> Answer {
    answer_compiled(ig, g, &path.compile(g), TrustPolicy::Proven)
}

/// Answers `path` trusting claimed similarities (the paper's protocol).
pub fn answer_paper<I: IndexView, G: GraphView>(ig: &I, g: &G, path: &PathExpr) -> Answer {
    answer_compiled(ig, g, &path.compile(g), TrustPolicy::Claimed)
}

/// [`answer`] for a pre-compiled path under an explicit policy.
pub fn answer_compiled<I: IndexView, G: GraphView>(
    ig: &I,
    g: &G,
    cp: &CompiledPath,
    policy: TrustPolicy,
) -> Answer {
    let r = answer_governed(ig, g, cp, policy, &mut QueryScratch::new(), &mut Ungoverned);
    never_fails(r.map_err(|(never, _)| never))
}

/// The single-graph §3.1 query, monomorphized over the [`Governor`]
/// ([`Ungoverned`] erases every budget check): find the targets, then
/// answer them by [`answer_targets`] with Lemma 2's premise taken from
/// [`IndexView::lemma2_safe`].
pub(crate) fn answer_governed<I: IndexView, G: GraphView, B: Governor>(
    ig: &I,
    g: &G,
    cp: &CompiledPath,
    policy: TrustPolicy,
    scratch: &mut QueryScratch,
    budget: &mut B,
) -> Result<Answer, (B::Err, Cost)> {
    let mut cost = Cost::ZERO;
    let targets = match eval_view_governed(ig, cp, &mut cost, &mut scratch.eval, budget) {
        Ok(f) => f.to_vec(),
        Err(e) => return Err((e, cost)),
    };
    let trust_proven = ig.lemma2_safe();
    answer_targets(
        ig,
        g,
        cp,
        targets,
        cost,
        policy,
        trust_proven,
        &mut scratch.memo,
        budget,
    )
}

/// The paper's answering rule (§3.1, §4.1), the one place a trust policy
/// decides what a target index node costs: return the extent of a node
/// whose similarity covers the expression length, validate every other
/// node's extent member by member.
///
/// Under [`TrustPolicy::Proven`] a covered node is `≈len`-homogeneous, so
/// its extent is all answers or none. `trust_proven` is the caller's
/// premise that the extent is exact as it stands; without it one
/// representative decides the whole node.
/// - A single index graph passes [`IndexView::lemma2_safe`]: proven
///   similarities then satisfy Property 3 everywhere, so Lemma 2 makes the
///   index-level instance real.
/// - A component hierarchy passes "the expression is a single label". Its
///   strategies reach targets through coarser components, so even a
///   `lemma2_safe` component gives no reachability premise; only a
///   label-only query is precise by construction, since every extent
///   member carries the node's label.
///
/// Root-anchored expressions always validate every member:
/// k-bisimilarity speaks about incoming label paths from anywhere, not
/// root-anchored ones.
#[allow(clippy::too_many_arguments)]
pub(crate) fn answer_targets<I: IndexView, G: GraphView, B: Governor>(
    ig: &I,
    g: &G,
    cp: &CompiledPath,
    targets: Vec<IdxId>,
    mut cost: Cost,
    policy: TrustPolicy,
    trust_proven: bool,
    memo: &mut EpochMemo,
    budget: &mut B,
) -> Result<Answer, (B::Err, Cost)> {
    let len = cp.length() as u32;
    let mut nodes = Vec::new();
    let mut validated = false;
    let mut validator = ValidatorRef::new(g, cp, memo);
    for &t in &targets {
        // Validation walks data nodes; charge the delta each arm adds.
        let before = cost.data_nodes;
        match policy {
            TrustPolicy::Claimed if ig.k(t) >= len && !cp.anchored => {
                ig.push_extent(t, &mut nodes);
            }
            TrustPolicy::Proven if ig.genuine(t) >= len && !cp.anchored => {
                if trust_proven {
                    ig.push_extent(t, &mut nodes);
                } else {
                    validated = true;
                    if validator.is_answer(ig.extent_first(t), &mut cost) {
                        ig.push_extent(t, &mut nodes);
                    }
                }
            }
            _ => {
                validated = true;
                ig.for_each_extent(t, |o| {
                    if validator.is_answer(o, &mut cost) {
                        nodes.push(o);
                    }
                });
            }
        }
        budget
            .visit(cost.data_nodes - before)
            .map_err(|e| (e, cost))?;
        budget.results(nodes.len()).map_err(|e| (e, cost))?;
    }
    nodes.sort_unstable();
    nodes.dedup();
    Ok(Answer {
        nodes,
        cost,
        target_index_nodes: targets,
        validated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexGraph;
    use mrx_graph::xml::parse;
    use mrx_graph::DataGraph;
    use mrx_path::eval_data;

    fn doc() -> DataGraph {
        parse(
            "<site>
               <people><person><name><last/></name></person></people>
               <forum><poster><name><last/></name></poster></forum>
             </site>",
        )
        .unwrap()
    }

    #[test]
    fn a0_answers_are_safe_and_validated_to_truth() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        for expr in [
            "//person/name/last",
            "//poster/name",
            "//name/last",
            "//last",
        ] {
            let p = PathExpr::parse(expr).unwrap();
            let ans = answer(&ig, &g, &p);
            let truth = eval_data(&g, &p.compile(&g));
            assert_eq!(ans.nodes, truth, "wrong answer for {expr}");
        }
    }

    #[test]
    fn zero_length_queries_skip_validation_on_a0() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let ans = answer(&ig, &g, &PathExpr::parse("//name").unwrap());
        assert!(!ans.validated);
        assert_eq!(ans.cost.data_nodes, 0);
        assert_eq!(ans.nodes.len(), 2);
    }

    #[test]
    fn longer_queries_validate_on_a0() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let ans = answer(&ig, &g, &PathExpr::parse("//person/name/last").unwrap());
        assert!(ans.validated);
        assert!(ans.cost.data_nodes > 0);
        assert_eq!(ans.nodes.len(), 1);
    }

    #[test]
    fn anchored_queries_always_validate() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let p = PathExpr::parse("/people").unwrap();
        let ans = answer(&ig, &g, &p);
        assert!(ans.validated);
        assert_eq!(ans.nodes, eval_data(&g, &p.compile(&g)));
    }

    #[test]
    fn policies_agree_on_partition_built_indexes() {
        let g = doc();
        let ig = IndexGraph::from_partition(&g, &crate::k_bisim(&g, 2), |_| 2);
        for expr in ["//person/name/last", "//name/last", "//last"] {
            let p = PathExpr::parse(expr).unwrap();
            let a = answer_compiled(&ig, &g, &p.compile(&g), TrustPolicy::Proven);
            let b = answer_compiled(&ig, &g, &p.compile(&g), TrustPolicy::Claimed);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.validated, b.validated, "{expr}");
        }
    }
}

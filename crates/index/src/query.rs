//! The paper's query algorithm (§3.1), shared by every single-graph index.
//!
//! 1. Find the target set of the expression in the index graph.
//! 2. For each target index node `v`: if `v`'s local similarity covers the
//!    expression length, return `v.extent` outright; otherwise *validate*
//!    the extent members against the data graph and return true answers.
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

use mrx_graph::{GraphView, NodeId};
use mrx_path::{
    BudgetError, BudgetMeter, CompiledPath, Cost, EpochMemo, Governor, PathExpr, Ungoverned,
    ValidatorRef,
};

use crate::graph::IndexEvalScratch;
use crate::view::{eval_view_governed, IndexView};
use crate::IdxId;

/// All per-query mutable state for one serving thread: index-eval buffers
/// plus the validator memo. One instance per [`crate::QuerySession`] (or
/// per call for the legacy entry points); reuse makes answering
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
/// [`crate::view`] for the correspondence argument).
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
    answer_with_scratch(ig, g, cp, policy, &mut QueryScratch::new())
}

/// [`answer_compiled`] over caller-owned scratch — the allocation-free
/// serving path. Bit-identical answers and cost counts: the validator memo
/// is reset (one epoch bump) lazily on the first validation, exactly
/// mirroring the lazily-constructed per-query validator it replaces.
pub fn answer_with_scratch<I: IndexView, G: GraphView>(
    ig: &I,
    g: &G,
    cp: &CompiledPath,
    policy: TrustPolicy,
    scratch: &mut QueryScratch,
) -> Answer {
    match answer_governed(ig, g, cp, policy, scratch, &mut Ungoverned) {
        Ok(a) => a,
        Err((never, _)) => match never {},
    }
}

/// [`answer_with_scratch`] under a [`BudgetMeter`]: both the index traversal
/// and the validation walk charge the budget, and the result set is capped
/// by `max_result_nodes`. Trips return a typed [`BudgetError`] carrying the
/// partial cost spent.
pub fn answer_budgeted<I: IndexView, G: GraphView>(
    ig: &I,
    g: &G,
    cp: &CompiledPath,
    policy: TrustPolicy,
    scratch: &mut QueryScratch,
    meter: &mut BudgetMeter,
) -> Result<Answer, BudgetError> {
    answer_governed(ig, g, cp, policy, scratch, meter)
        .map_err(|(kind, cost)| BudgetMeter::exhausted(kind, &cost))
}

/// The one §3.1 implementation both wrappers monomorphize ([`Ungoverned`]
/// erases every budget check).
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
    let len = cp.length() as u32;
    let mut nodes = Vec::new();
    let mut validated = false;
    let mut validator = ValidatorRef::new(g, cp, &mut scratch.memo);
    for &t in &targets {
        // Validation walks data nodes; charge the delta each arm adds.
        let before = cost.data_nodes;
        match policy {
            TrustPolicy::Claimed if ig.k(t) >= len && !cp.anchored => {
                ig.push_extent(t, &mut nodes);
            }
            TrustPolicy::Proven if ig.genuine(t) >= len && !cp.anchored => {
                if ig.lemma2_safe() {
                    // Proven similarities satisfy Property 3 everywhere, so
                    // Lemma 2 applies: the extent is exact as-is.
                    ig.push_extent(t, &mut nodes);
                } else {
                    // ≈len-homogeneous extent: one representative decides
                    // the whole node.
                    validated = true;
                    if validator.is_answer(ig.extent_first(t), &mut cost) {
                        ig.push_extent(t, &mut nodes);
                    }
                }
            }
            _ => {
                // Under-similar extent, or a root-anchored expression
                // (k-bisimilarity speaks about incoming label paths from
                // anywhere, not root-anchored ones): validate every member.
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

//! Backward validation of candidate answers against the data graph.
//!
//! When an index node's local similarity is smaller than the query length,
//! its extent may contain false positives (§3.1). Validation walks the data
//! graph *backwards* from each candidate, checking that an instance of the
//! whole label path really ends there.
//!
//! The walk is memoized per query on `(node, step)` states — a state is
//! explored at most once no matter how many candidates share ancestors — and
//! every first exploration of a state counts as one data-node visit in the
//! paper's cost metric.

use mrx_graph::{DataGraph, GraphView, NodeId};

use crate::{CompiledPath, Cost, EpochMemo};

const YES: u8 = 1;
const NO: u8 = 2;

/// The shared memoized backward walk: does an instance of
/// `path.steps[0..=step]` end at `v`? `memo[step * n + node]` holds
/// UNKNOWN (0) / YES / NO; every first exploration of a state counts one
/// data-node visit.
///
/// Generic over [`GraphView`]: the memo slot layout and the `any`
/// short-circuit over the *sorted* parent slice make the explored-state
/// set (and so the cost) a function of the adjacency arrays alone, which
/// freezing copies verbatim — live and frozen validation are bit-identical.
fn check_backward<G: GraphView>(
    g: &G,
    path: &CompiledPath,
    memo: &mut EpochMemo,
    v: NodeId,
    step: usize,
    cost: &mut Cost,
) -> bool {
    let slot = step * g.node_count() + v.index();
    match memo.get(slot) {
        YES => return true,
        NO => return false,
        _ => {}
    }
    cost.data_nodes += 1;
    // Mark NO before recursing: `step` strictly decreases, so there is
    // no recursion back into this state, but the early mark keeps the
    // accounting right even on pathological shapes.
    memo.set(slot, NO);
    let ok = if !path.steps[step].matches(g.label(v)) {
        false
    } else if step == 0 {
        if path.anchored {
            g.parents(v).binary_search(&g.root()).is_ok()
        } else {
            true
        }
    } else {
        g.parents(v)
            .iter()
            .any(|&p| check_backward(g, path, memo, p, step - 1, cost))
    };
    memo.set(slot, if ok { YES } else { NO });
    ok
}

/// Memoized backward validator for one query on one graph. Owns its memo;
/// for a session-owned memo reused across queries see [`ValidatorRef`].
pub struct Validator<'g, G: GraphView = DataGraph> {
    g: &'g G,
    path: CompiledPath,
    memo: EpochMemo,
}

impl<'g, G: GraphView> Validator<'g, G> {
    /// Creates a validator for `path` over `g`.
    pub fn new(g: &'g G, path: CompiledPath) -> Self {
        let mut memo = EpochMemo::new();
        memo.reset(g.node_count() * path.steps.len());
        Validator { g, path, memo }
    }

    /// The query this validator checks.
    pub fn path(&self) -> &CompiledPath {
        &self.path
    }

    /// Whether `v` is a true answer, counting data-node visits into `cost`.
    pub fn is_answer(&mut self, v: NodeId, cost: &mut Cost) -> bool {
        check_backward(
            self.g,
            &self.path,
            &mut self.memo,
            v,
            self.path.steps.len() - 1,
            cost,
        )
    }

    /// Filters `candidates` down to true answers (order preserved).
    pub fn filter(
        &mut self,
        candidates: impl IntoIterator<Item = NodeId>,
        cost: &mut Cost,
    ) -> Vec<NodeId> {
        candidates
            .into_iter()
            .filter(|&v| self.is_answer(v, cost))
            .collect()
    }
}

/// A [`Validator`] over a borrowed, session-owned [`EpochMemo`].
///
/// The memo is reset lazily on the first check, so constructing one costs
/// nothing for queries that end up not validating; in a warmed-up session
/// the reset zeroes only the words the previous query wrote, never the
/// whole O(n·steps) table.
/// Identical memoization (and therefore cost accounting) to [`Validator`].
pub struct ValidatorRef<'a, G: GraphView = DataGraph> {
    g: &'a G,
    path: &'a CompiledPath,
    memo: &'a mut EpochMemo,
    ready: bool,
}

impl<'a, G: GraphView> ValidatorRef<'a, G> {
    /// Wraps a session memo for validating `path` over `g`.
    pub fn new(g: &'a G, path: &'a CompiledPath, memo: &'a mut EpochMemo) -> Self {
        ValidatorRef {
            g,
            path,
            memo,
            ready: false,
        }
    }

    /// Whether `v` is a true answer, counting data-node visits into `cost`.
    pub fn is_answer(&mut self, v: NodeId, cost: &mut Cost) -> bool {
        if !self.ready {
            self.memo.reset(self.g.node_count() * self.path.steps.len());
            self.ready = true;
        }
        check_backward(
            self.g,
            self.path,
            self.memo,
            v,
            self.path.steps.len() - 1,
            cost,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval_data, PathExpr};
    use mrx_graph::xml::parse;

    fn doc() -> DataGraph {
        parse(
            "<site><people><person><name><lastname/></name></person>
              <person><name/></person></people>
             <forum><name><lastname/></name></forum></site>",
        )
        .unwrap()
    }

    #[test]
    fn validates_true_answers_only() {
        let g = doc();
        let p = PathExpr::parse("//person/name/lastname")
            .unwrap()
            .compile(&g);
        let truth = eval_data(&g, &p);
        assert_eq!(truth.len(), 1);
        let mut v = Validator::new(&g, p);
        let mut cost = Cost::ZERO;
        // All lastname nodes are candidates (what a coarse index would return).
        let lastname = g.labels().get("lastname").unwrap();
        let candidates: Vec<NodeId> = g.nodes_with_label(lastname).collect();
        assert_eq!(candidates.len(), 2);
        let accepted = v.filter(candidates, &mut cost);
        assert_eq!(accepted, truth);
        assert!(cost.data_nodes > 0);
    }

    #[test]
    fn memoization_caps_cost() {
        let g = doc();
        let p = PathExpr::parse("//name").unwrap().compile(&g);
        let mut v = Validator::new(&g, p);
        let mut cost = Cost::ZERO;
        let name = g.labels().get("name").unwrap();
        let candidates: Vec<NodeId> = g.nodes_with_label(name).collect();
        let k = candidates.len();
        let before = cost.data_nodes;
        let first = v.filter(candidates.clone(), &mut cost);
        assert_eq!(first.len(), k);
        let mid = cost.data_nodes;
        assert!(mid > before);
        // Re-validating the same candidates is free.
        let again = v.filter(candidates, &mut cost);
        assert_eq!(again.len(), k);
        assert_eq!(cost.data_nodes, mid);
    }

    #[test]
    fn anchored_validation_checks_root() {
        let g = doc();
        let p = PathExpr::parse("/people").unwrap().compile(&g);
        let mut v = Validator::new(&g, p.clone());
        let mut cost = Cost::ZERO;
        let people = g.labels().get("people").unwrap();
        let candidates: Vec<NodeId> = g.nodes_with_label(people).collect();
        // `people` is a child of `site` (the root), so it *is* an answer of
        // the anchored query /people under our root-children convention.
        assert_eq!(v.filter(candidates, &mut cost), eval_data(&g, &p));
    }

    #[test]
    fn agrees_with_forward_eval_on_reference_graphs() {
        let g = parse(r#"<r><a id="x"><b/></a><c to="x"/><d><b/></d></r>"#).unwrap();
        for expr in ["//c/a/b", "//r/c/a", "//d/b", "//a/b", "//r/a/b"] {
            let p = PathExpr::parse(expr).unwrap().compile(&g);
            let truth = eval_data(&g, &p);
            let mut v = Validator::new(&g, p);
            let mut cost = Cost::ZERO;
            let all: Vec<NodeId> = g.nodes().collect();
            let accepted = v.filter(all, &mut cost);
            assert_eq!(accepted, truth, "mismatch for {expr}");
        }
    }
}

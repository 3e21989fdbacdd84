//! Ground-truth evaluation of path expressions on the data graph.
//!
//! Indexes use this only for validation and testing; the point of the paper
//! is to avoid it. The harness uses it to compute FUP target sets (`T` in
//! REFINE/REFINE*) and to check every index answer in tests.

use mrx_graph::{GraphView, NodeId};

use crate::{CompiledPath, CompiledStep, Cost, EvalScratch};

/// Evaluates `path` on the data graph, returning the target set sorted by
/// node id.
///
/// All evaluators in this module are generic over [`GraphView`], so the
/// same traversal (and therefore the same answers and cost accounting)
/// runs over the live `DataGraph` and the frozen snapshot form.
pub fn eval_data<G: GraphView>(g: &G, path: &CompiledPath) -> Vec<NodeId> {
    eval_data_with(g, path, &mut EvalScratch::new())
}

/// [`eval_data`] over caller-owned scratch, without cost accounting.
///
/// This is the fast path for internal truth computation (FUP target sets):
/// a leading concrete-label step of an unanchored expression seeds the
/// frontier from the graph's label CSR instead of scanning every node. The
/// counting variants below keep the full scan on purpose — `data_nodes`
/// must reflect what an index-free evaluator would visit, and the paper's
/// cost figures depend on that.
pub fn eval_data_with<G: GraphView>(
    g: &G,
    path: &CompiledPath,
    scratch: &mut EvalScratch,
) -> Vec<NodeId> {
    if !path.anchored {
        match path.steps[0] {
            CompiledStep::Label(l) => {
                let EvalScratch {
                    mark,
                    frontier,
                    next,
                } = scratch;
                frontier.clear();
                frontier.extend_from_slice(g.label_nodes(l));
                for step in &path.steps[1..] {
                    next.clear();
                    mark.reset(g.node_count());
                    for &v in frontier.iter() {
                        for &c in g.children(v) {
                            if step.matches(g.label(c)) && mark.insert(c.index()) {
                                next.push(c);
                            }
                        }
                    }
                    std::mem::swap(frontier, next);
                    if frontier.is_empty() {
                        break;
                    }
                }
                if path.steps.len() > 1 {
                    frontier.sort_unstable();
                }
                return frontier.clone();
            }
            CompiledStep::NoSuchLabel => return Vec::new(),
            CompiledStep::Wildcard => {}
        }
    }
    let mut cost = Cost::ZERO;
    eval_data_in(g, path, &mut cost, scratch)
}

/// Like [`eval_data`] but counts every data node visited into
/// `cost.data_nodes` (used when a query is answered *without* any index,
/// the paper's implicit baseline).
pub fn eval_data_counting<G: GraphView>(
    g: &G,
    path: &CompiledPath,
    cost: &mut Cost,
) -> Vec<NodeId> {
    eval_data_in(g, path, cost, &mut EvalScratch::new())
}

/// [`eval_data_counting`] over caller-owned scratch: no per-call mark bitmap
/// or frontier allocation once the scratch has warmed up.
pub fn eval_data_in<G: GraphView>(
    g: &G,
    path: &CompiledPath,
    cost: &mut Cost,
    scratch: &mut EvalScratch,
) -> Vec<NodeId> {
    let EvalScratch {
        mark,
        frontier,
        next,
    } = scratch;
    frontier.clear();
    let first = path.steps[0];
    if path.anchored {
        cost.data_nodes += 1; // the root
        for &c in g.children(g.root()) {
            cost.data_nodes += 1;
            if first.matches(g.label(c)) {
                frontier.push(c);
            }
        }
    } else {
        for i in 0..g.node_count() {
            let v = NodeId(i as u32);
            cost.data_nodes += 1;
            if first.matches(g.label(v)) {
                frontier.push(v);
            }
        }
    }

    for step in &path.steps[1..] {
        next.clear();
        // Per-step clear is one epoch bump; the mark keeps `next` free of
        // duplicates, so no dedup pass is needed afterwards.
        mark.reset(g.node_count());
        for &v in frontier.iter() {
            for &c in g.children(v) {
                cost.data_nodes += 1;
                if step.matches(g.label(c)) && mark.insert(c.index()) {
                    next.push(c);
                }
            }
        }
        std::mem::swap(frontier, next);
        if frontier.is_empty() {
            break;
        }
    }
    // The initial frontier is already sorted (node-id scan, or the root's
    // sorted child slice); only multi-step traversal disturbs the order.
    if path.steps.len() > 1 {
        frontier.sort_unstable();
    }
    frontier.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PathExpr;
    use mrx_graph::xml::parse;
    use mrx_graph::{DataGraph, GraphBuilder};

    /// The paper's Figure 1 graph (auction site with reference edges).
    fn figure1() -> DataGraph {
        let mut b = GraphBuilder::new();
        let root = b.add_node("root"); // 0
        let site = b.add_child(root, "site"); // 1
        let regions = b.add_child(site, "regions"); // 2
        let people = b.add_child(site, "people"); // 3
        let auctions = b.add_child(site, "auctions"); // 4
        let africa = b.add_child(regions, "africa"); // 5
        let asia = b.add_child(regions, "asia"); // 6
        let p7 = b.add_child(people, "person"); // 7
        let p8 = b.add_child(people, "person"); // 8
        let _p9 = b.add_child(people, "person"); // 9
        let a10 = b.add_child(auctions, "auction"); // 10
        let a11 = b.add_child(auctions, "auction"); // 11
        let i12 = b.add_child(africa, "item"); // 12
        let i13 = b.add_child(africa, "item"); // 13
        let i14 = b.add_child(asia, "item"); // 14
        let _s15 = b.add_child(a10, "seller"); // 15
        let b16 = b.add_child(a10, "bidder"); // 16
        let b17 = b.add_child(a10, "bidder"); // 17
        let s18 = b.add_child(a11, "seller"); // 18
        let i19 = b.add_child(a11, "item"); // 19
        let _i20 = b.add_child(a11, "item"); // 20
                                             // reference edges (dashed in the figure)
        b.add_ref(p7, b16);
        b.add_ref(p8, b17);
        b.add_ref(p8, s18);
        b.add_ref(i13, i19);
        b.add_ref(a10, i12);
        let _ = (i14,);
        b.freeze()
    }

    fn ids(v: &[NodeId]) -> Vec<u32> {
        v.iter().map(|n| n.0).collect()
    }

    #[test]
    fn paper_example_absolute() {
        let g = figure1();
        let p = PathExpr::parse("/site/people/person").unwrap().compile(&g);
        assert_eq!(ids(&eval_data(&g, &p)), vec![7, 8, 9]);
    }

    #[test]
    fn paper_example_wildcard() {
        let g = figure1();
        let p = PathExpr::parse("/site/regions/*/item").unwrap().compile(&g);
        assert_eq!(ids(&eval_data(&g, &p)), vec![12, 13, 14]);
    }

    #[test]
    fn descendant_matches_everywhere() {
        let g = figure1();
        let p = PathExpr::parse("//item").unwrap().compile(&g);
        assert_eq!(ids(&eval_data(&g, &p)), vec![12, 13, 14, 19, 20]);
    }

    #[test]
    fn paths_through_reference_edges() {
        let g = figure1();
        // person -> bidder is a reference edge
        let p = PathExpr::parse("//person/bidder").unwrap().compile(&g);
        assert_eq!(ids(&eval_data(&g, &p)), vec![16, 17]);
        // item -> item via the i13 -> i19 reference
        let q = PathExpr::parse("//item/item").unwrap().compile(&g);
        assert_eq!(ids(&eval_data(&g, &q)), vec![19]);
    }

    #[test]
    fn missing_label_yields_empty() {
        let g = figure1();
        let p = PathExpr::parse("//nosuchthing/person").unwrap().compile(&g);
        assert!(eval_data(&g, &p).is_empty());
    }

    #[test]
    fn anchored_first_step_must_be_root_child() {
        let g = figure1();
        let p = PathExpr::parse("/people/person").unwrap().compile(&g);
        assert!(
            eval_data(&g, &p).is_empty(),
            "people is not a child of root"
        );
    }

    #[test]
    fn duplicate_candidates_are_merged_across_parents() {
        // Diamond: r -> a, r -> b, a -> c, b -> c; //*/c must return c once.
        let g = parse(r#"<r><a id="x"/><b to="x"/></r>"#).unwrap();
        let p = PathExpr::parse("//r/*").unwrap().compile(&g);
        assert_eq!(eval_data(&g, &p).len(), 2);
    }

    #[test]
    fn counting_visits() {
        let g = figure1();
        let mut cost = Cost::ZERO;
        let p = PathExpr::parse("//person").unwrap().compile(&g);
        eval_data_counting(&g, &p, &mut cost);
        // unanchored single label scans every node once
        assert_eq!(cost.data_nodes as usize, g.node_count());
        assert_eq!(cost.index_nodes, 0);
    }

    #[test]
    fn fast_path_matches_counting_eval() {
        let g = figure1();
        let mut scratch = EvalScratch::new();
        for expr in [
            "//person",
            "//person/bidder",
            "//item/item",
            "//*/item",
            "/site/people/person",
            "//nosuchthing/person",
        ] {
            let p = PathExpr::parse(expr).unwrap().compile(&g);
            let mut cost = Cost::ZERO;
            let slow = eval_data_in(&g, &p, &mut cost, &mut EvalScratch::new());
            let fast = eval_data_with(&g, &p, &mut scratch);
            assert_eq!(fast, slow, "mismatch on {expr}");
        }
    }

    #[test]
    fn cyclic_graph_terminates() {
        let mut b = GraphBuilder::new();
        let r = b.add_node("r");
        let a = b.add_child(r, "a");
        let c = b.add_child(a, "a");
        b.add_ref(c, a); // a-cycle
        let g = b.freeze();
        let p = PathExpr::parse("//a/a/a/a/a/a").unwrap().compile(&g);
        let res = eval_data(&g, &p);
        assert!(!res.is_empty()); // cycle supplies arbitrarily long a-paths
    }
}

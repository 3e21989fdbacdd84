//! Edge cases across the whole index family: wildcard and root-anchored
//! expressions, empty target sets, labels missing from the alphabet,
//! single-node documents, and degenerate workloads.

use mrx::graph::xml::parse;
use mrx::graph::{DataGraph, GraphBuilder};
use mrx::index::{AkIndex, ApexIndex, DkIndex, EvalStrategy, MStarIndex, MkIndex, OneIndex};
use mrx::path::{eval_data, PathExpr};

fn doc() -> DataGraph {
    parse(
        "<site>
           <regions><africa><item/></africa><asia><item/><item/></asia></regions>
           <people><person/><person/></people>
         </site>",
    )
    .unwrap()
}

/// Wildcard expressions work on every index (and as FUPs for the adaptive
/// ones — the refinement machinery is target-set-based, so `*` steps are
/// transparent to it).
#[test]
fn wildcard_expressions_everywhere() {
    let g = doc();
    let exprs = ["//regions/*/item", "//site/*", "//*/item", "/site/*/africa"];
    let a2 = AkIndex::build(&g, 2);
    let one = OneIndex::build(&g);
    let mut mk = MkIndex::new(&g);
    let mut ms = MStarIndex::new(&g);
    let mut dk = DkIndex::a0(&g);
    for e in exprs {
        let q = PathExpr::parse(e).unwrap();
        // use the wildcard expressions themselves as FUPs
        mk.refine_for(&g, &q);
        ms.refine_for(&g, &q);
        dk.promote_for(&g, &q);
    }
    mk.graph().check_invariants(&g);
    ms.check_invariants(&g);
    for e in exprs {
        let q = PathExpr::parse(e).unwrap();
        let truth = eval_data(&g, &q.compile(&g));
        assert_eq!(a2.query(&g, &q).nodes, truth, "A(2) {e}");
        assert_eq!(one.query(&g, &q).nodes, truth, "1-index {e}");
        assert_eq!(mk.query(&g, &q).nodes, truth, "M(k) {e}");
        assert_eq!(dk.query(&g, &q).nodes, truth, "D(k) {e}");
        for strat in [
            EvalStrategy::Naive,
            EvalStrategy::TopDown,
            EvalStrategy::BottomUp,
        ] {
            assert_eq!(ms.query(&g, &q, strat).nodes, truth, "M*(k) {strat:?} {e}");
        }
    }
}

/// Root-anchored expressions always validate and always come out exact —
/// including when used as FUPs.
#[test]
fn anchored_expressions_everywhere() {
    let g = doc();
    let exprs = ["/regions", "/people/person", "/site", "/regions/asia/item"];
    let mut mk = MkIndex::new(&g);
    let mut ms = MStarIndex::new(&g);
    for e in exprs {
        let q = PathExpr::parse(e).unwrap();
        mk.refine_for(&g, &q);
        ms.refine_for(&g, &q);
    }
    mk.graph().check_invariants(&g);
    ms.check_invariants(&g);
    for e in exprs {
        let q = PathExpr::parse(e).unwrap();
        let truth = eval_data(&g, &q.compile(&g));
        assert_eq!(mk.query(&g, &q).nodes, truth, "M(k) {e}");
        assert_eq!(
            ms.query(&g, &q, EvalStrategy::TopDown).nodes,
            truth,
            "M*(k) {e}"
        );
        assert_eq!(AkIndex::build(&g, 1).query(&g, &q).nodes, truth, "A(1) {e}");
    }
}

/// Expressions over labels that exist nowhere in the document.
#[test]
fn missing_labels_are_empty_everywhere() {
    let g = doc();
    let mut mk = MkIndex::new(&g);
    let mut ms = MStarIndex::new(&g);
    for e in [
        "//warehouse",
        "//item/warehouse",
        "//warehouse/item",
        "/warehouse",
    ] {
        let q = PathExpr::parse(e).unwrap();
        mk.refine_for(&g, &q); // refining for a no-match FUP must be a no-op
        ms.refine_for(&g, &q);
        assert!(mk.query(&g, &q).nodes.is_empty(), "{e}");
        assert!(
            ms.query(&g, &q, EvalStrategy::TopDown).nodes.is_empty(),
            "{e}"
        );
        assert!(AkIndex::build(&g, 0).query(&g, &q).nodes.is_empty(), "{e}");
        assert!(
            ApexIndex::build(&g, std::slice::from_ref(&q))
                .query(&g, &q)
                .nodes
                .is_empty(),
            "{e}"
        );
    }
    mk.graph().check_invariants(&g);
    ms.check_invariants(&g);
}

/// FUPs whose index target set exists but whose data target set is empty
/// (pure false-positive targets) refine without panicking and end precise.
#[test]
fn all_false_positive_fup() {
    // a-b paths exist under r1 only; query //r2/a/b has index instances on
    // A(0) (labels collide) but no data instances.
    let mut b = GraphBuilder::new();
    let root = b.add_node("root");
    let r1 = b.add_child(root, "r1");
    let r2 = b.add_child(root, "r2");
    let a1 = b.add_child(r1, "a");
    b.add_child(a1, "b");
    b.add_child(r2, "a"); // a without b below
    let g = b.freeze();
    let q = PathExpr::parse("//r2/a/b").unwrap();
    assert!(eval_data(&g, &q.compile(&g)).is_empty());
    let mut mk = MkIndex::new(&g);
    mk.refine_for(&g, &q);
    mk.graph().check_invariants(&g);
    assert!(mk.query(&g, &q).nodes.is_empty());
    // the paper-policy answer must also be clean after refinement: REFINE's
    // final loop breaks every false instance of the FUP itself
    assert!(mk.query_paper(&g, &q).nodes.is_empty());
    let mut ms = MStarIndex::new(&g);
    ms.refine_for(&g, &q);
    ms.check_invariants(&g);
    assert!(ms
        .query_paper(&g, &q, EvalStrategy::TopDown)
        .nodes
        .is_empty());
}

/// A single-element document survives the whole machinery.
#[test]
fn single_node_document() {
    let g = parse("<only/>").unwrap();
    let q = PathExpr::parse("//only").unwrap();
    assert_eq!(AkIndex::build(&g, 3).query(&g, &q).nodes.len(), 1);
    assert_eq!(OneIndex::build(&g).query(&g, &q).nodes.len(), 1);
    let mut ms = MStarIndex::new(&g);
    ms.refine_for(&g, &q);
    assert_eq!(ms.query(&g, &q, EvalStrategy::TopDown).nodes.len(), 1);
    assert_eq!(ms.max_k(), 0);
}

/// Queries longer than any path in the document.
#[test]
fn queries_longer_than_the_document() {
    let g = parse("<a><b/></a>").unwrap();
    let q = PathExpr::parse("//a/b/a/b/a/b/a/b").unwrap();
    assert!(eval_data(&g, &q.compile(&g)).is_empty());
    let mut mk = MkIndex::new(&g);
    mk.refine_for(&g, &q);
    assert!(mk.query(&g, &q).nodes.is_empty());
    let mut ms = MStarIndex::new(&g);
    ms.refine_for(&g, &q);
    assert!(ms.query(&g, &q, EvalStrategy::TopDown).nodes.is_empty());
    assert_eq!(
        ms.max_k(),
        7,
        "components grow to the FUP's length regardless"
    );
}

/// Self-referential (cyclic) single-label documents: the degenerate worst
/// case for bisimulation machinery.
#[test]
fn single_label_cycle() {
    let mut b = GraphBuilder::new();
    let n0 = b.add_node("x");
    let n1 = b.add_child(n0, "x");
    let n2 = b.add_child(n1, "x");
    b.add_ref(n2, n0);
    let g = b.freeze();
    for e in ["//x", "//x/x", "//x/x/x", "//x/x/x/x/x"] {
        let q = PathExpr::parse(e).unwrap();
        let truth = eval_data(&g, &q.compile(&g));
        let mut ms = MStarIndex::new(&g);
        ms.refine_for(&g, &q);
        ms.check_invariants(&g);
        assert_eq!(ms.query(&g, &q, EvalStrategy::TopDown).nodes, truth, "{e}");
        let mut dk = DkIndex::a0(&g);
        dk.promote_for(&g, &q);
        assert_eq!(dk.query(&g, &q).nodes, truth, "{e}");
    }
}

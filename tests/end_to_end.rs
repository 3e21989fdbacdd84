//! Cross-crate integration tests: the full pipeline from document to
//! answered workload, on both synthetic datasets.

use mrx::graph::stats::{all_reachable, graph_stats};
use mrx::graph::xml::{parse, write_document};
use mrx::index::{AkIndex, DkIndex, EvalStrategy, MStarIndex, MkIndex, OneIndex};
use mrx::path::{eval_data, PathExpr};
use mrx::prelude::{nasa_like, xmark_like, XmarkConfig};
use mrx::workload::{Workload, WorkloadConfig};

/// Generate → serialize → parse → index → query: every stage of the stack
/// in one flow, with the indexes built on the *re-parsed* graph.
#[test]
fn xmark_roundtrip_pipeline() {
    let original = xmark_like(&XmarkConfig::with_target_nodes(2_000), 9);
    let xml = write_document(&original).expect("generated graphs are trees + refs");
    let g = parse(&xml).expect("writer output parses");
    assert_eq!(g.node_count(), original.node_count());
    assert_eq!(g.edge_count(), original.edge_count());
    assert!(all_reachable(&g));

    let mut idx = MkIndex::new(&g);
    for expr in [
        "//open_auction/bidder",
        "//person/profile/interest",
        "//item/incategory",
    ] {
        let q = PathExpr::parse(expr).unwrap();
        let before = idx.answer_and_refine(&g, &q);
        let after = idx.query(&g, &q);
        assert_eq!(before.nodes, after.nodes, "{expr}");
        assert_eq!(after.nodes, eval_data(&g, &q.compile(&g)), "{expr}");
    }
    idx.graph().check_invariants(&g);
}

/// All five index families agree with ground truth across a whole sampled
/// workload on the NASA-like dataset.
#[test]
fn all_indexes_agree_on_nasa_workload() {
    let g = nasa_like(4_000, 21);
    let w = Workload::generate(
        &g,
        &WorkloadConfig {
            max_path_len: 4,
            num_queries: 60,
            seed: 13,
            max_enumerated_paths: 200_000,
        },
    );

    let a2 = AkIndex::build(&g, 2);
    let one = OneIndex::build(&g);
    let dkc = DkIndex::construct(&g, &w.queries);
    let mut dkp = DkIndex::a0(&g);
    let mut mk = MkIndex::new(&g);
    let mut mstar = MStarIndex::new(&g);
    for q in &w.queries {
        dkp.promote_for(&g, q);
        mk.refine_for(&g, q);
        mstar.refine_for(&g, q);
    }
    mstar.check_invariants(&g);

    for q in &w.queries {
        let truth = eval_data(&g, &q.compile(&g));
        assert_eq!(a2.query(&g, q).nodes, truth, "A(2) on {q}");
        assert_eq!(one.query(&g, q).nodes, truth, "1-index on {q}");
        assert_eq!(dkc.query(&g, q).nodes, truth, "D(k)-construct on {q}");
        assert_eq!(dkp.query(&g, q).nodes, truth, "D(k)-promote on {q}");
        assert_eq!(mk.query(&g, q).nodes, truth, "M(k) on {q}");
        for strat in [EvalStrategy::Naive, EvalStrategy::TopDown] {
            assert_eq!(
                mstar.query(&g, q, strat).nodes,
                truth,
                "M*(k) {strat:?} on {q}"
            );
        }
    }
}

/// The paper's headline size relations hold on both datasets: the M(k)
/// index is never larger than D(k)-promote, and M*(k)'s stored node count
/// beats both adaptive baselines.
#[test]
fn headline_size_relations() {
    for (name, g) in [
        (
            "xmark",
            xmark_like(&XmarkConfig::with_target_nodes(4_000), 5),
        ),
        ("nasa", nasa_like(4_000, 5)),
    ] {
        let w = Workload::generate(
            &g,
            &WorkloadConfig {
                max_path_len: 4,
                num_queries: 80,
                seed: 7,
                max_enumerated_paths: 200_000,
            },
        );
        let mut dkp = DkIndex::a0(&g);
        let mut mk = MkIndex::new(&g);
        let mut mstar = MStarIndex::new(&g);
        for q in &w.queries {
            dkp.promote_for(&g, q);
            mk.refine_for(&g, q);
            mstar.refine_for(&g, q);
        }
        assert!(
            mk.node_count() <= dkp.node_count(),
            "{name}: M(k) {} vs D(k)-promote {}",
            mk.node_count(),
            dkp.node_count()
        );
        assert!(
            mstar.node_count() <= dkp.node_count(),
            "{name}: M*(k) {} vs D(k)-promote {}",
            mstar.node_count(),
            dkp.node_count()
        );
        assert!(
            mstar.node_count() <= mk.node_count(),
            "{name}: M*(k) {} vs M(k) {}",
            mstar.node_count(),
            mk.node_count()
        );
    }
}

/// M*(k) top-down evaluation must be cheaper on average than evaluating in
/// the finest component (the multiresolution advantage, §4.1).
#[test]
fn mstar_topdown_beats_naive_on_average() {
    let g = xmark_like(&XmarkConfig::with_target_nodes(4_000), 3);
    let w = Workload::generate(
        &g,
        &WorkloadConfig {
            max_path_len: 9,
            num_queries: 120,
            seed: 3,
            max_enumerated_paths: 400_000,
        },
    );
    let mut mstar = MStarIndex::new(&g);
    for q in &w.queries {
        mstar.refine_for(&g, q);
    }
    let (mut td, mut naive) = (0u64, 0u64);
    for q in &w.queries {
        td += mstar.query_paper(&g, q, EvalStrategy::TopDown).cost.total();
        naive += mstar.query_paper(&g, q, EvalStrategy::Naive).cost.total();
    }
    assert!(
        td < naive,
        "top-down {td} should beat naive {naive} over a mixed-length workload"
    );
}

/// Workload statistics drive Figures 8–9; sanity-check the whole chain on
/// a generated dataset rather than a toy.
#[test]
fn workload_distribution_matches_figure8_shape() {
    let g = nasa_like(6_000, 7);
    let w = Workload::generate(
        &g,
        &WorkloadConfig {
            max_path_len: 9,
            num_queries: 500,
            seed: 0xF1D0,
            max_enumerated_paths: 400_000,
        },
    );
    let h = w.length_histogram();
    // Monotone-ish decreasing, mass concentrated on short queries.
    assert!(h[0] > 0.15 && h[0] < 0.6, "{h:?}");
    assert!(h[0] > h[3] && h[3] > h[8], "{h:?}");
    let s = graph_stats(&g);
    assert!(s.max_tree_depth >= 8, "NASA stand-in must be deep");
}

/// Stress: a long adversarial FUP sequence with repeated and overlapping
/// expressions keeps every invariant and stays idempotent at the end.
#[test]
fn repeated_overlapping_fups_are_stable() {
    let g = nasa_like(2_000, 8);
    let exprs = [
        "//dataset/reference/source",
        "//reference/source/journal/author",
        "//source/journal/author/lastname",
        "//dataset/reference/source", // repeat
        "//author/lastname",
        "//dataset/history/ingest/creator/name",
        "//reference/source/journal/author", // repeat
    ];
    let mut mk = MkIndex::new(&g);
    let mut mstar = MStarIndex::new(&g);
    for e in exprs {
        let q = PathExpr::parse(e).unwrap();
        mk.refine_for(&g, &q);
        mstar.refine_for(&g, &q);
    }
    mk.graph().check_invariants(&g);
    mstar.check_invariants(&g);
    let (mk_nodes, ms_nodes) = (mk.node_count(), mstar.node_count());
    // replay: everything already supported, sizes must not move
    for e in exprs {
        let q = PathExpr::parse(e).unwrap();
        mk.refine_for(&g, &q);
        mstar.refine_for(&g, &q);
    }
    assert_eq!(mk.node_count(), mk_nodes);
    assert_eq!(mstar.node_count(), ms_nodes);
}

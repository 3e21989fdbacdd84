//! The reach certificate that lets a proven top-down M\*(k) target skip
//! validation (DESIGN.md §5, "Lemma 2 for the component hierarchy"):
//!
//! * a counterexample where trusting a target's proven similarity alone
//!   returns a false positive, the certificate refuses that target, and
//!   every serving form answers exactly;
//! * the live certificate, which reads each node's supernode through
//!   `node_of`, equals the generic derivation, which walks every coarse
//!   extent and checks the nesting, after every public mutator of
//!   [`MStarIndex`], and both snapshot layouts reopen with the certificate
//!   `freeze_compressed` derives;
//! * the public pair servebench's traced evaluator replays
//!   ([`top_down_targets_budgeted`], then [`finish_answer_view_budgeted`])
//!   answers v5 and v9 files with the answers and `Cost` of
//!   [`QuerySession::try_serve`].

use std::path::PathBuf;

use mrx::graph::{FrozenGraph, GraphView};
use mrx::index::{
    derive_reach, finish_answer_view_budgeted, k_bisim_all, top_down_targets,
    top_down_targets_budgeted, AdaptEngine, CompressedMStar, EvalStrategy, IndexEvalScratch,
    IndexGraph, IndexView, MStarSnapshot, QuerySession,
};
use mrx::path::{eval_data, EpochMemo, PathExpr, QueryBudget};
use mrx::prelude::{xmark_like, DataGraph, GraphBuilder, MStarIndex, TrustPolicy, XmarkConfig};
use mrx::store::{load_compressed, save_compressed, save_paged_with, PagedFile};
use mrx::workload::{Workload, WorkloadConfig};

/// The case `tests/shrink` reduced from a 2,767-node XMark corpus (corpus
/// seed 0xA0C71, M\*(k) adapted to a 300-query workload of length ≤ 9,
/// workload seed 7): an isolated root, `person₁ → watches` and an IDREF
/// `seller ⇒ person₂`. Its one FUP is `//seller/person/watches`.
fn shrunk() -> DataGraph {
    let mut b = GraphBuilder::new();
    b.add_node("site");
    let person1 = b.add_node("person");
    let person2 = b.add_node("person");
    let watches = b.add_node("watches");
    let seller = b.add_node("seller");
    b.add_tree_edge(person1, watches);
    b.add_ref(seller, person2);
    b.freeze()
}

fn components(idx: &MStarIndex) -> Vec<IndexGraph> {
    (0..=idx.max_k())
        .map(|i| idx.component(i).clone())
        .collect()
}

/// `watches` has no `seller/person` above it, but top-down descent reaches
/// its node in `I2` through the `I1` node holding both persons, whose
/// members differ on their parents. The `watches` node itself is exactly
/// `≈2`-homogeneous (a singleton), so `genuine ≥ len` alone would return
/// it; its parent's supernode is mixed, so its reach stays below 2.
#[test]
fn proven_similarity_alone_admits_a_false_positive_the_certificate_refuses() {
    let g = shrunk();
    let q = PathExpr::parse("//seller/person/watches").unwrap();
    let mut idx = MStarIndex::new(&g);
    AdaptEngine::with_threads(1).adapt_mstar(&g, &mut idx, std::slice::from_ref(&q));
    let cp = q.compile(&g);
    let len = cp.length() as u32;
    let truth = eval_data(&g, &cp);
    let (targets, level, _) = top_down_targets(&components(&idx), &cp);
    assert_eq!(level, 2);
    let comp = idx.component(level);
    let wrong: Vec<_> = targets
        .iter()
        .copied()
        .filter(|&t| comp.genuine(t) >= len)
        .filter(|&t| {
            comp.extent(t)
                .iter()
                .any(|o| truth.binary_search(o).is_err())
        })
        .collect();
    assert!(
        !wrong.is_empty(),
        "trusting genuine ≥ len alone returns no false positive"
    );
    for &t in &wrong {
        assert!(comp.reach(t) < len, "the certificate trusts {t:?}");
    }

    let cz = idx.freeze_compressed();
    for strategy in [
        EvalStrategy::TopDown,
        EvalStrategy::Naive,
        EvalStrategy::BottomUp,
        EvalStrategy::Hybrid { split: 1 },
        EvalStrategy::Subpath { start: 1, end: 3 },
    ] {
        let a = idx.query(&g, &q, strategy);
        assert_eq!(a.nodes, truth, "{strategy:?}");
    }
    let live = idx.query(&g, &q, EvalStrategy::TopDown);
    assert!(live.validated);
    let served = QuerySession::new(TrustPolicy::Proven)
        .serve(&cz, &g, &q)
        .clone();
    assert_eq!((&served.nodes, served.cost), (&truth, live.cost));

    // One step shorter, the same node is reached through `I0`, which is
    // certified at depth 0: the extent is returned without a check.
    let short = PathExpr::parse("//person/watches").unwrap();
    let a = QuerySession::new(TrustPolicy::Proven)
        .serve(&cz, &g, &short)
        .clone();
    assert_eq!(a.nodes, eval_data(&g, &short.compile(&g)));
    assert_eq!((a.validated, a.cost.data_nodes), (false, 0));
}

fn corpus() -> (DataGraph, Vec<PathExpr>) {
    let g = xmark_like(&XmarkConfig::with_target_nodes(2_500), 11);
    let w = Workload::generate(
        &g,
        &WorkloadConfig {
            max_path_len: 6,
            num_queries: 30,
            seed: 7,
            max_enumerated_paths: 100_000,
        },
    );
    (g, w.queries)
}

/// Checks every component's stored certificate against a fresh derivation
/// and returns how many nodes are certified at their component's depth.
fn assert_fresh(idx: &MStarIndex, ctx: &str) -> usize {
    let i0 = idx.component(0);
    assert!(i0.iter().all(|v| i0.reach(v) == 0), "{ctx}: I0");
    let mut certified = 0;
    for i in 1..=idx.max_k() {
        let (fine, coarse) = (idx.component(i), idx.component(i - 1));
        let fresh = derive_reach(fine, coarse);
        for v in fine.iter() {
            assert_eq!(fine.reach(v), fresh[v.index()], "{ctx}: I{i} {v:?} stale");
            certified += usize::from(fine.reach(v) == i as u32);
        }
    }
    certified
}

/// The certificates of a hierarchy, component by component, in node order.
fn certificates<I: IndexView>(star: &MStarSnapshot<I>) -> Vec<Vec<u32>> {
    star.components
        .iter()
        .map(|c| {
            let mut nodes = Vec::new();
            c.push_all_nodes(&mut nodes);
            nodes.iter().map(|&v| c.reach(v)).collect()
        })
        .collect()
}

fn snapshot_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mrx-reach-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.mrx"))
}

#[test]
fn the_certificate_is_never_stale_and_survives_both_layouts() {
    let (g, queries) = corpus();

    let mut refined = MStarIndex::new(&g);
    for (n, q) in queries.iter().enumerate() {
        refined.refine_for(&g, q);
        assert_fresh(&refined, &format!("refine_for #{n} {q}"));
    }
    refined.answer_and_refine(&g, &PathExpr::parse("//item/description/text").unwrap());
    assert_fresh(&refined, "answer_and_refine");
    let fup = PathExpr::parse("//person/watches/watch").unwrap();
    refined.refine(&g, &fup, &eval_data(&g, &fup.compile(&g)));
    let before = assert_fresh(&refined, "refine");
    refined.certify_exact(&k_bisim_all(&g, refined.max_k() as u32));
    let after = assert_fresh(&refined, "certify_exact");
    assert!(after > before, "certify_exact certified nothing more");

    let mut adapted = MStarIndex::new(&g);
    let mut engine = AdaptEngine::with_threads(1);
    for (n, batch) in queries.chunks(10).enumerate() {
        engine.adapt_mstar(&g, &mut adapted, batch);
        assert_fresh(&adapted, &format!("adapt_mstar batch {n}"));
    }

    // The snapshot's certificate is the live one through the freeze's
    // ascending renumbering, and both layouts reopen with it.
    let cz = adapted.freeze_compressed();
    let frozen = certificates(&cz);
    for (i, row) in frozen.iter().enumerate() {
        let c = adapted.component(i);
        let live: Vec<u32> = c.iter().map(|v| c.reach(v)).collect();
        assert_eq!(row, &live, "I{i}: freeze");
    }
    assert!(frozen[1..].iter().flatten().any(|&r| r > 0));
    let fg = FrozenGraph::freeze(&g);
    let v5 = snapshot_path("v5");
    save_compressed(&v5, &fg, &cz).unwrap();
    let (_, star) = load_compressed(&v5).unwrap();
    assert_eq!(certificates(&star), frozen, "v5 reopen");
    let v9 = snapshot_path("v9");
    save_paged_with(&v9, &fg, &cz, 256).unwrap();
    let (_, star, _) = PagedFile::open_with(&v9, 1 << 20)
        .unwrap()
        .into_parts()
        .unwrap();
    assert_eq!(certificates(&star), frozen, "v9 reopen");
    std::fs::remove_file(v5).ok();
    std::fs::remove_file(v9).ok();
}

/// Replays `queries` the way servebench's traced evaluator does and
/// compares every reply with a session's.
fn replay_pair_matches_try_serve<I: IndexView, G: GraphView>(
    ctx: &str,
    star: &MStarSnapshot<I>,
    sg: &G,
    g: &DataGraph,
    queries: &[PathExpr],
) -> usize {
    let budget = QueryBudget {
        cancel: Some(Default::default()),
        ..QueryBudget::unlimited()
    };
    let (mut eval, mut memo) = (IndexEvalScratch::new(), EpochMemo::default());
    let mut trusted = 0;
    for q in queries {
        let cp = q.compile(sg);
        if cp.anchored {
            continue;
        }
        let mut meter = budget.meter();
        let (targets, level, cost) =
            top_down_targets_budgeted(&star.components, &cp, &mut eval, &mut meter).unwrap();
        let replayed = finish_answer_view_budgeted(
            &star.components[level],
            sg,
            &cp,
            targets,
            cost,
            TrustPolicy::Proven,
            &mut memo,
            &mut meter,
        )
        .unwrap();
        let mut session = QuerySession::new(TrustPolicy::Proven);
        session.set_budget(budget.clone());
        let served = session.try_serve(star, sg, q).unwrap();
        assert_eq!(replayed.nodes, served.nodes, "{ctx} on {q}: answer");
        assert_eq!(replayed.cost, served.cost, "{ctx} on {q}: cost");
        assert_eq!(replayed.validated, served.validated, "{ctx} on {q}");
        assert_eq!(served.nodes, eval_data(g, &q.compile(g)), "{ctx} on {q}");
        trusted += usize::from(!served.validated && cp.length() > 0);
    }
    trusted
}

#[test]
fn the_benchmark_replay_pair_serves_like_a_session() {
    let (g, queries) = corpus();
    let mut idx = MStarIndex::new(&g);
    AdaptEngine::with_threads(1).adapt_mstar(&g, &mut idx, &queries);
    let cz: CompressedMStar = idx.freeze_compressed();
    let fg = FrozenGraph::freeze(&g);

    let v5 = snapshot_path("pair-v5");
    save_compressed(&v5, &fg, &cz).unwrap();
    let (sg, star) = load_compressed(&v5).unwrap();
    let trusted = replay_pair_matches_try_serve("v5", &star, &sg, &g, &queries);
    assert!(trusted > 0, "v5: no multi-step query skipped validation");

    let v9 = snapshot_path("pair-v9");
    save_paged_with(&v9, &fg, &cz, 256).unwrap();
    let (sg, star, cache) = PagedFile::open_with(&v9, 4 * 256)
        .unwrap()
        .into_parts()
        .unwrap();
    let again = replay_pair_matches_try_serve("v9", &star, &sg, &g, &queries);
    assert_eq!(again, trusted, "v9 trusted a different set");
    assert!(cache.take_poison().is_none());
    std::fs::remove_file(v5).ok();
    std::fs::remove_file(v9).ok();
}

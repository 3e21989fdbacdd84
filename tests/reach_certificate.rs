//! Lemma 2 for the component hierarchy, per query (DESIGN.md §5): the
//! bit a top-down M\*(k) descent carries lets a proven target skip
//! validation.
//!
//! * a counterexample where trusting a target's proven similarity alone
//!   returns a false positive, the descent leaves that target uncertified,
//!   and every serving form answers exactly;
//! * a target with one certified and one uncertified parent: the descent
//!   came through the certified one, so the bit trusts what a certificate
//!   over every parent would validate;
//! * the total top-down `Proven` `Cost` over a small adapted corpus stays
//!   within its pin on the live index and both snapshot layouts;
//! * the public pair servebench's traced evaluator replays
//!   ([`top_down_targets_budgeted`], then [`finish_answer_view_budgeted`])
//!   answers v5 and v9 files with the answers and `Cost` of
//!   [`QuerySession::serve`].

use std::path::PathBuf;

use mrx::graph::{FrozenGraph, GraphView};
use mrx::index::{
    finish_answer_view_budgeted, top_down_targets_budgeted, AdaptEngine, CompressedMStar,
    EvalStrategy, IndexEvalScratch, IndexGraph, IndexView, MStarSnapshot, QuerySession,
};
use mrx::path::{eval_data, Cost, EpochMemo, PathExpr, QueryBudget};
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
/// it; the `person` node the descent came through is mixed, so the
/// descent does not certify it.
#[test]
fn proven_similarity_alone_admits_a_false_positive_the_certificate_refuses() {
    let g = shrunk();
    let q = PathExpr::parse("//seller/person/watches").unwrap();
    let mut idx = MStarIndex::new(&g);
    AdaptEngine::new().adapt_mstar(&g, &mut idx, std::slice::from_ref(&q));
    let cp = q.compile(&g);
    let len = cp.length() as u32;
    let truth = eval_data(&g, &cp);
    let (targets, level, _) = top_down_targets_budgeted(
        &components(&idx),
        &cp,
        &mut IndexEvalScratch::new(),
        &mut QueryBudget::unlimited().meter(),
    )
    .unwrap();
    assert_eq!(level, 2);
    let comp = idx.component(level);
    let wrong: Vec<_> = targets
        .nodes()
        .iter()
        .zip(targets.certified())
        .filter(|(&t, _)| comp.genuine(t) >= len)
        .filter(|(&t, _)| {
            comp.extent(t)
                .iter()
                .any(|o| truth.binary_search(o).is_err())
        })
        .collect();
    assert!(
        !wrong.is_empty(),
        "trusting genuine ≥ len alone returns no false positive"
    );
    for (t, &certified) in &wrong {
        assert!(!certified, "the descent certifies {t:?}");
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
        .unwrap()
        .clone();
    assert_eq!((&served.nodes, served.cost), (&truth, live.cost));

    // One step shorter, the same node is reached through `I0`, whose
    // matches start certified: the extent is returned without a check.
    let short = PathExpr::parse("//person/watches").unwrap();
    let a = QuerySession::new(TrustPolicy::Proven)
        .serve(&cz, &g, &short)
        .unwrap()
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

fn snapshot_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mrx-reach-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.mrx"))
}

/// `site → x → a → c`, `site → y → b₁ ⇒ c` and `site → z → b₂`: the one
/// `c` has an `a` and a `b` parent, and the two `b`s differ on their
/// parents.
fn two_parents() -> DataGraph {
    let mut b = GraphBuilder::new();
    let site = b.add_node("site");
    let x = b.add_child(site, "x");
    let a = b.add_child(x, "a");
    let c = b.add_child(a, "c");
    let y = b.add_child(site, "y");
    let b1 = b.add_child(y, "b");
    let z = b.add_child(site, "z");
    b.add_child(z, "b");
    b.add_ref(b1, c);
    b.freeze()
}

/// The `c` node of `I2` has two parents. The descent for `//x/a/c` comes
/// through `a`, whose supernode is certified; the `b` node's supernode in
/// `I1` mixes `b₁` and `b₂` (proven similarity 0), so a certificate taken
/// over every parent, as one derived before any query must be, would
/// validate `c`. The bit trusts it, and the answer is still exact. The
/// index is adapted to `//site/x/a`, which grows it to `I2` without
/// splitting the `b`s.
#[test]
fn a_target_reached_through_its_certified_parent_is_trusted() {
    let g = two_parents();
    let q = PathExpr::parse("//x/a/c").unwrap();
    let mut idx = MStarIndex::new(&g);
    let fup = PathExpr::parse("//site/x/a").unwrap();
    AdaptEngine::new().adapt_mstar(&g, &mut idx, &[fup]);
    let cp = q.compile(&g);
    let (targets, level, _) = top_down_targets_budgeted(
        &components(&idx),
        &cp,
        &mut IndexEvalScratch::new(),
        &mut QueryBudget::unlimited().meter(),
    )
    .unwrap();
    assert_eq!(level, 2);
    let (i1, i2) = (idx.component(1), idx.component(2));
    assert_eq!(targets.nodes().len(), 1);
    let t = targets.nodes()[0];
    assert!(i2.genuine(t) >= 2);
    let supers: Vec<u32> = i2
        .parents(t)
        .iter()
        .map(|&u| i1.genuine(idx.supernode(2, u)))
        .collect();
    assert_eq!(supers.len(), 2, "c has an a and a b parent");
    assert!(supers.contains(&0), "no parent's supernode is mixed");
    assert_eq!(targets.certified(), [true]);

    let truth = eval_data(&g, &cp);
    let live = idx.query(&g, &q, EvalStrategy::TopDown);
    assert_eq!((&live.nodes, live.validated), (&truth, false));
    let served = QuerySession::new(TrustPolicy::Proven)
        .serve(&idx.freeze_compressed(), &g, &q)
        .unwrap()
        .clone();
    assert_eq!((&served.nodes, served.cost), (&truth, live.cost));
    assert!(!served.validated);
}

/// The total top-down `Proven` `Cost` of [`corpus`] on its adapted index,
/// measured when the trust premise was a certificate stored per node: the
/// per-query bit must never cost more, on any serving form.
const PINNED: Cost = Cost {
    index_nodes: 473,
    data_nodes: 58,
};

fn within_pin(ctx: &str, total: Cost) {
    assert!(
        total.index_nodes <= PINNED.index_nodes && total.data_nodes <= PINNED.data_nodes,
        "{ctx}: {total:?} exceeds the pinned {PINNED:?}"
    );
}

fn total_served<I: IndexView, G: GraphView>(
    star: &MStarSnapshot<I>,
    sg: &G,
    queries: &[PathExpr],
) -> Cost {
    let mut session = QuerySession::new(TrustPolicy::Proven);
    let mut total = Cost::ZERO;
    for q in queries {
        total += session.serve(star, sg, q).unwrap().cost;
    }
    total
}

#[test]
fn top_down_proven_cost_stays_within_its_pin_on_every_layout() {
    let (g, queries) = corpus();
    let mut idx = MStarIndex::new(&g);
    AdaptEngine::new().adapt_mstar(&g, &mut idx, &queries);
    let mut live = Cost::ZERO;
    for q in &queries {
        live += idx.query(&g, q, EvalStrategy::TopDown).cost;
    }
    within_pin("live", live);

    let cz = idx.freeze_compressed();
    let fg = FrozenGraph::freeze(&g);
    let v5 = snapshot_path("pin-v5");
    save_compressed(&v5, &fg, &cz).unwrap();
    let (sg, star) = load_compressed(&v5).unwrap();
    let served = total_served(&star, &sg, &queries);
    within_pin("v5", served);
    assert_eq!(served, live, "v5");
    let v9 = snapshot_path("pin-v9");
    save_paged_with(&v9, &fg, &cz, 256).unwrap();
    let (sg, star, _) = PagedFile::open_with(&v9, 1 << 20)
        .unwrap()
        .into_parts()
        .unwrap();
    let served = total_served(&star, &sg, &queries);
    within_pin("v9", served);
    assert_eq!(served, live, "v9");
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
        let served = session.serve(star, sg, q).unwrap();
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
    AdaptEngine::new().adapt_mstar(&g, &mut idx, &queries);
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

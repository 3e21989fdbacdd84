//! One differential suite for the serving forms: the live index families
//! through a [`QuerySession`], and the two snapshot layouts the server
//! runs, compressed (v5) and demand-paged (v9).
//!
//! The session cases serve every family cold, warm (cache hit), after
//! refinement invalidated the cache, and replayed at 1/2/8 threads; every
//! answer and [`Cost`] must equal the per-query entry points. Every
//! snapshot case writes a real `.mrx` file and reopens it the way serving
//! does — v5 through the validated loader, v9 through a [`PagedFile`] with
//! tiny pages and a budget far below the paged region, so queries cross
//! page seams and churn the clock mid-evaluation. The table is datasets ×
//! layouts × trust policies × cold/warm/budgeted sessions (a budget so
//! generous the meter runs but never trips) — the datasets are XMark,
//! NASA, and a random graph with multiple parents and IDREF cycles, whose
//! index nodes have the most tangled subnode links; every answer and
//! [`Cost`] must equal the live [`MStarIndex`]'s top-down evaluation, and
//! every sound answer must equal naive evaluation on the data graph.
//!
//! M\*(k) is adapted through [`AdaptEngine`], so every index here carries
//! the engine's exact-similarity certificates: one test checks them node
//! by node against independently computed naive partitions, and the
//! parity test checks that they never raise a query's sound `Cost` above
//! the uncertified `refine_for` build's. A failing comparison is shrunk to
//! a minimal graph and workload before it panics (`shrink`).

mod shrink;

use std::collections::HashSet;
use std::path::PathBuf;

use mrx::datagen::{random_graph, RandomGraphConfig};
use mrx::graph::{FrozenGraph, GraphView};
use mrx::index::query::answer_compiled;
use mrx::index::{
    naive, replay, AdaptEngine, AkIndex, CompressedMStar, DkIndex, EvalStrategy, IndexGraph,
    IndexView, MStarSnapshot, MkIndex, OneIndex, PagedMStar, Partition, QuerySession,
};
use mrx::path::{eval_data, PathExpr, QueryBudget};
use mrx::prelude::{nasa_like, xmark_like, Cost, DataGraph, MStarIndex, TrustPolicy, XmarkConfig};
use mrx::store::{
    open_validated, save_compressed, save_paged_with, snapshot_version, PagedFile, SnapshotPayload,
};
use mrx::workload::{Workload, WorkloadConfig};
use mrx_postings::BLOCK_LEN;

const POLICIES: [TrustPolicy; 2] = [TrustPolicy::Proven, TrustPolicy::Claimed];

/// v9 page size and cache budget: 64-byte pages, 16 evictable pages.
const PAGE: u32 = 64;
const CACHE: u64 = 16 * PAGE as u64;

#[derive(Debug, Clone, Copy)]
enum Layout {
    Compressed,
    Paged,
}

const LAYOUTS: [Layout; 2] = [Layout::Compressed, Layout::Paged];

fn docs() -> Vec<(&'static str, DataGraph)> {
    vec![
        (
            "xmark",
            xmark_like(&XmarkConfig::with_target_nodes(2_500), 11),
        ),
        ("nasa", nasa_like(2_500, 12)),
        (
            "random",
            random_graph(
                &RandomGraphConfig {
                    nodes: 600,
                    labels: 5,
                    extra_edge_ratio: 0.4,
                    allow_cycles: true,
                },
                13,
            ),
        ),
    ]
}

fn workload(g: &DataGraph) -> Workload {
    Workload::generate(
        g,
        &WorkloadConfig {
            max_path_len: 4,
            num_queries: 30,
            seed: 7,
            max_enumerated_paths: 100_000,
        },
    )
}

/// M\*(k) adapted to `queries` through the engine, certified.
fn adapted(g: &DataGraph, queries: &[PathExpr]) -> MStarIndex {
    let mut idx = MStarIndex::new(g);
    AdaptEngine::new().adapt_mstar(g, &mut idx, queries);
    idx
}

/// The same index built by per-FUP `refine_for`, without certification.
fn uncertified(g: &DataGraph, queries: &[PathExpr]) -> MStarIndex {
    let mut idx = MStarIndex::new(g);
    for q in queries {
        idx.refine_for(g, q);
    }
    idx
}

fn snapshot_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mrx-snapshot-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.mrx"))
}

/// Checks one reopened hierarchy against the live index and the naive
/// oracle: cold (fresh scratch per query) and warm (a session serving
/// the workload twice, so the second round is all cache hits).
fn check<I: IndexView, G: GraphView>(
    ctx: &str,
    star: &MStarSnapshot<I>,
    sg: &G,
    idx: &MStarIndex,
    g: &DataGraph,
    queries: &[PathExpr],
) {
    assert_eq!(star.mutation_epoch(), idx.mutation_epoch(), "{ctx}: epoch");
    // Limits no query reaches: the meter runs on every evaluation and
    // never trips, so it must change neither answers nor `Cost`.
    let generous = QueryBudget {
        max_steps: Some(u64::MAX / 2),
        max_result_nodes: Some(u64::MAX / 2),
        ..QueryBudget::unlimited()
    };
    for policy in POLICIES {
        let mut session = QuerySession::new(policy);
        let mut live_session = QuerySession::new(policy);
        let mut metered = QuerySession::new(policy);
        metered.set_budget(generous.clone());
        for round in ["cold", "warm"] {
            for q in queries {
                let ctx = format!("{ctx}/{policy:?}/{round} on {q}");
                let live = idx.query_with_policy(g, q, EvalStrategy::TopDown, policy);
                if policy == TrustPolicy::Proven {
                    assert_eq!(live.nodes, eval_data(g, &q.compile(g)), "{ctx}: oracle");
                }
                let cold = QuerySession::new(policy)
                    .serve(star, sg, q)
                    .unwrap()
                    .clone();
                assert_eq!(cold.nodes, live.nodes, "{ctx}: cold answer");
                assert_eq!(cold.cost, live.cost, "{ctx}: cold cost");
                assert_eq!(cold.validated, live.validated, "{ctx}: cold validation");
                let warm = session.serve(star, sg, q).unwrap();
                assert_eq!(warm.nodes, live.nodes, "{ctx}: session answer");
                assert_eq!(warm.cost, live.cost, "{ctx}: session cost");
                let governed = metered.serve(star, sg, q).unwrap();
                assert_eq!(governed.nodes, warm.nodes, "{ctx}: budgeted answer");
                assert_eq!(governed.cost, warm.cost, "{ctx}: budgeted cost");
                live_session.serve(idx, g, q).unwrap();
            }
        }
        assert_eq!(
            session.stats(),
            live_session.stats(),
            "{ctx}/{policy:?}: cache behaviour diverged"
        );
        assert_eq!(
            metered.stats(),
            session.stats(),
            "{ctx}/{policy:?}: budgeted"
        );
        assert!(session.stats().hits >= queries.len() as u64, "{ctx}");
    }
}

#[test]
fn snapshots_match_live_top_down_and_the_naive_oracle() {
    let (mut fell, mut sole_targets) = (Vec::new(), 0);
    for (ds, g) in docs() {
        let w = workload(&g);
        let (certified, plain, sole) =
            shrink::check_or_shrink(ds, &g, &w.queries, |g, qs| parity_case(ds, g, qs));
        if certified < plain {
            fell.push(ds);
        }
        sole_targets += sole;
    }
    assert!(
        !fell.is_empty(),
        "exact certificates lowered the sound Cost on no dataset"
    );
    assert!(sole_targets > 0, "no query targeted a sole subnode");
}

/// One dataset of the parity table: both layouts against the live index
/// and the naive oracle, and every query's sound top-down `Cost` against
/// the uncertified build's. Returns the two `Cost` sums and the number of
/// queries that targeted a sole subnode (see [`sole_target_parity`]).
fn parity_case(ds: &str, g: &DataGraph, queries: &[PathExpr]) -> (u64, u64, usize) {
    let idx = adapted(g, queries);
    let fg = FrozenGraph::freeze(g);
    let cz = idx.freeze_compressed();
    let mut sole = 0;
    for layout in LAYOUTS {
        let ctx = format!("{ds}/{layout:?}");
        let path = snapshot_path(&format!("{ds}-{layout:?}"));
        match layout {
            Layout::Compressed => {
                save_compressed(&path, &fg, &cz).unwrap();
                assert_eq!(snapshot_version(&path).unwrap(), 5, "{ctx}");
                let v = open_validated(&path, true, None).unwrap();
                let SnapshotPayload::Compressed(sg, star) = v.payload else {
                    panic!("{ctx}: a v5 file must load compressed");
                };
                assert_eq!(sg, fg, "{ctx}: graph round trip");
                assert_eq!(star, cz, "{ctx}: index round trip");
                check(&ctx, &star, &sg, &idx, g, queries);
            }
            Layout::Paged => {
                save_paged_with(&path, &fg, &cz, PAGE).unwrap();
                assert_eq!(snapshot_version(&path).unwrap(), 9, "{ctx}");
                let file = PagedFile::open_with(&path, CACHE).unwrap();
                let (sg, star, cache) = file.into_parts().unwrap();
                check(&ctx, &star, &sg, &idx, g, queries);
                sole = sole_target_parity(&ctx, &star, &sg, &cz, &idx, g, queries);
                assert!(cache.take_poison().is_none(), "{ctx}: clean file poisoned");
                let s = cache.stats();
                assert!(s.faults > 0, "{ctx}: paged serving must fault");
                assert!(s.evictions > 0, "{ctx}: the budget must force eviction");
                assert_eq!(s.checksum_failures, 0, "{ctx}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
    let plain = uncertified(g, queries);
    let (mut certified_sum, mut plain_sum) = (0, 0);
    for q in queries {
        let ctx = format!("{ds} on {q}");
        let a = idx.query(g, q, EvalStrategy::TopDown).cost;
        let b = plain.query(g, q, EvalStrategy::TopDown).cost;
        assert_eq!(a.index_nodes, b.index_nodes, "{ctx}: index visits");
        assert!(a.total() <= b.total(), "{ctx}: certified cost rose");
        certified_sum += a.total();
        plain_sum += b.total();
    }
    (certified_sum, plain_sum, sole)
}

/// Serves, through the paged file, every query whose targets include a
/// sole subnode of the component its descent ends in, `I(min(length, K))`
/// past `I0`. The paged layout stores no list for such a node: it reads
/// its supernode's. Each answer and `Cost` must equal the compressed
/// snapshot's and the live index's, and the answer naive evaluation's.
/// Returns the number of such queries.
fn sole_target_parity<G: GraphView>(
    ctx: &str,
    star: &PagedMStar,
    sg: &G,
    cz: &CompressedMStar,
    idx: &MStarIndex,
    g: &DataGraph,
    queries: &[PathExpr],
) -> usize {
    let mut served = 0;
    for q in queries {
        let level = q.compile(g).length().min(star.max_k());
        let c = star.component(level);
        let sole = c.links.sole_supernodes(c.node_count());
        let paged = QuerySession::new(TrustPolicy::Proven)
            .serve(star, sg, q)
            .unwrap()
            .clone();
        if !paged
            .target_index_nodes
            .iter()
            .any(|t| sole[t.index()].is_some())
        {
            continue;
        }
        let ctx = format!("{ctx} on {q}");
        let compressed = QuerySession::new(TrustPolicy::Proven)
            .serve(cz, &FrozenGraph::freeze(g), q)
            .unwrap()
            .clone();
        let live = idx.query(g, q, EvalStrategy::TopDown);
        let got = (&paged.nodes, paged.cost);
        assert_eq!(
            got,
            (&compressed.nodes, compressed.cost),
            "{ctx}: sole target v5"
        );
        assert_eq!(got, (&live.nodes, live.cost), "{ctx}: sole target live");
        assert_eq!(
            paged.nodes,
            eval_data(g, &q.compile(g)),
            "{ctx}: sole target oracle"
        );
        served += 1;
    }
    served
}

/// Paper §4 size accounting, on disk: the paged file stores one extent
/// list per distinct extent, `MStarIndex::node_count` of them, because a
/// sole subnode reads its supernode's; the ids it stores are exactly those
/// of the nodes that are not sole subnodes, and nothing else fills the
/// paged region.
#[test]
fn paged_file_stores_each_distinct_extent_once() {
    let (_, g) = docs().remove(0);
    let idx = adapted(&g, &workload(&g).queries);
    let cz = idx.freeze_compressed();
    let path = snapshot_path("distinct-extents");
    save_paged_with(&path, &FrozenGraph::freeze(&g), &cz, PAGE).unwrap();
    let (_, star, _) = PagedFile::open_with(&path, CACHE)
        .unwrap()
        .into_parts()
        .unwrap();
    std::fs::remove_file(&path).ok();

    // From the live index: a sole subnode is its supernode's only subnode.
    let (mut ids, mut sole_ids, mut half_sole) = (0, 0, false);
    for i in 0..=idx.max_k() {
        let comp = idx.component(i);
        let mut sole = 0;
        for v in comp.iter() {
            let len = comp.extent(v).len();
            ids += len;
            if i > 0 && idx.subnodes(i - 1, idx.supernode(i, v)).len() == 1 {
                sole += 1;
                sole_ids += len;
            }
        }
        half_sole |= 2 * sole >= comp.node_count();
    }
    assert!(half_sole, "no component is at least half sole subnodes");

    // Each list as (first block, length): shared lists coincide.
    let lists: HashSet<(u32, u32)> = star
        .components
        .iter()
        .flat_map(|c| (0..c.node_count()).map(|v| c.extents.span(v)))
        .map(|l| (l.first_block, l.len))
        .collect();
    assert!(idx.node_count() < idx.logical_node_count());
    assert_eq!(lists.len(), idx.node_count(), "stored lists");
    assert_eq!(lists.len(), cz.distinct_extents(), "stored lists");
    let stored: usize = lists.iter().map(|&(_, len)| len as usize).sum();
    assert_eq!(stored, ids - sole_ids, "stored extent ids");
    let blocks: usize = lists
        .iter()
        .map(|&(_, len)| (len as usize).div_ceil(BLOCK_LEN))
        .sum();
    let region_blocks = star.components.last().unwrap().extents.run_end() as usize;
    assert_eq!(blocks, region_blocks, "the distinct lists fill the region");
}

/// After adaptation every node of every component carries its exact
/// similarity, capped at `K = max_k`: `min(genuine, K)` equals the largest
/// `j ≤ K` whose naive `≈j` partition holds the node's extent in one
/// block, computed here independently of the engine's partitions.
#[test]
fn adaptation_certifies_the_exact_similarity() {
    for (ds, g) in docs() {
        let w = workload(&g);
        shrink::check_or_shrink(ds, &g, &w.queries, |g, qs| {
            let idx = adapted(g, qs);
            let k = idx.max_k();
            let parts: Vec<Partition> = (0..=k).map(|j| naive::k_bisim(g, j as u32)).collect();
            for i in 0..=k {
                let comp = idx.component(i);
                for v in comp.iter() {
                    let ext = comp.extent(v);
                    let exact = (0..=k)
                        .rev()
                        .find(|&j| ext.iter().all(|&o| parts[j].same_block(o, ext[0])))
                        .unwrap_or(0);
                    assert_eq!(
                        (comp.genuine(v) as usize).min(k),
                        exact,
                        "{ds}: I{i} node {v:?} of {} members: similarity",
                        ext.len()
                    );
                }
            }
        });
    }
}

/// The lazy readers load only the prefix `I0..I(length)` a query needs;
/// answers over that prefix equal answers over the whole hierarchy.
#[test]
fn lazy_prefix_loading_matches_the_full_hierarchy() {
    let (_, g) = docs().remove(1);
    let w = workload(&g);
    let idx = adapted(&g, &w.queries);
    let fg = FrozenGraph::freeze(&g);
    let cz = idx.freeze_compressed();
    let (p5, p8) = (snapshot_path("prefix-v5"), snapshot_path("prefix-v9"));
    save_compressed(&p5, &fg, &cz).unwrap();
    save_paged_with(&p8, &fg, &cz, PAGE).unwrap();
    for q in &w.queries {
        let want = QuerySession::new(TrustPolicy::Proven)
            .serve(&cz, &fg, q)
            .unwrap()
            .clone();
        let prefix: Vec<usize> = (0..=q.steps().len().saturating_sub(1).min(cz.max_k())).collect();
        let mut v5 = mrx::store::CompressedFile::open(&p5).unwrap();
        let (g5, star5) = v5.activate(q).unwrap();
        let a5 = QuerySession::new(TrustPolicy::Proven)
            .serve(star5, g5, q)
            .unwrap()
            .clone();
        assert_eq!(v5.loaded_components(), prefix, "v5 prefix on {q}");
        let mut v9 = PagedFile::open_with(&p8, CACHE).unwrap();
        let (g8, star8) = v9.activate(q).unwrap();
        let a8 = QuerySession::new(TrustPolicy::Proven)
            .serve(star8, g8, q)
            .unwrap()
            .clone();
        assert_eq!(v9.loaded_components(), prefix, "v9 prefix on {q}");
        for (layout, a) in [("v5", &a5), ("v9", &a8)] {
            assert_eq!(a.nodes, want.nodes, "{layout} on {q}");
            assert_eq!(a.cost, want.cost, "{layout} on {q}");
        }
    }
    std::fs::remove_file(p5).ok();
    std::fs::remove_file(p8).ok();
}

/// Serves every query twice (cold, then warm hit) and checks both servings
/// against the per-query `answer_compiled` path.
fn assert_session_parity(tag: &str, ig: &IndexGraph, g: &DataGraph, queries: &[PathExpr]) {
    for policy in POLICIES {
        let mut session = QuerySession::new(policy);
        for round in ["cold", "warm"] {
            for q in queries {
                let served = session.serve(ig, g, q).unwrap();
                let legacy = answer_compiled(ig, g, &q.compile(g), policy);
                let ctx = format!("{tag}/{policy:?}/{round} on {q}");
                assert_eq!(served.nodes, legacy.nodes, "{ctx}: answer");
                assert_eq!(served.cost, legacy.cost, "{ctx}: cost");
            }
        }
        let stats = session.stats();
        assert_eq!(stats.queries, 2 * queries.len() as u64, "{tag}/{policy:?}");
        assert!(
            stats.hits >= queries.len() as u64,
            "{tag}/{policy:?}: warm round must hit"
        );
        assert_eq!(stats.evictions, 0, "{tag}/{policy:?}");
    }
}

#[test]
fn sessions_match_legacy_answers_on_all_single_graph_families() {
    for (ds, g) in docs() {
        let w = workload(&g);
        let (ak, one) = (AkIndex::build(&g, 2), OneIndex::build(&g));
        let dkc = DkIndex::construct(&g, &w.queries);
        let (mut dkp, mut mk) = (DkIndex::a0(&g), MkIndex::new(&g));
        for q in &w.queries {
            dkp.promote_for(&g, q);
            mk.refine_for(&g, q);
        }
        for (name, ig) in [
            ("ak", ak.graph()),
            ("one", one.graph()),
            ("dk-construct", dkc.graph()),
            ("dk-promote", dkp.graph()),
            ("mk", mk.graph()),
        ] {
            assert_session_parity(&format!("{ds}/{name}"), ig, &g, &w.queries);
        }
    }
}

#[test]
fn sessions_match_legacy_answers_on_mstar() {
    for (ds, g) in docs() {
        let w = workload(&g);
        let mstar = adapted(&g, &w.queries);
        for policy in POLICIES {
            let mut session = QuerySession::new(policy);
            for round in ["cold", "warm"] {
                for q in &w.queries {
                    let served = session.serve(&mstar, &g, q).unwrap();
                    let legacy = mstar.query_with_policy(&g, q, EvalStrategy::TopDown, policy);
                    let ctx = format!("{ds}/mstar/{policy:?}/{round} on {q}");
                    assert_eq!(served.nodes, legacy.nodes, "{ctx}: answer");
                    assert_eq!(served.cost, legacy.cost, "{ctx}: cost");
                }
            }
            assert!(session.stats().hits >= w.queries.len() as u64);
        }
    }
}

/// Refinement between servings must invalidate cached answers: the
/// re-served answer always matches a fresh evaluation, never the stale
/// pre-refinement extent.
#[test]
fn post_refinement_servings_match_fresh_evaluation() {
    for (ds, g) in docs() {
        let w = workload(&g);
        let (early, late) = w.queries.split_at(w.queries.len() / 2);
        for policy in POLICIES {
            let mut mk = MkIndex::new(&g);
            let mut session = QuerySession::new(policy);
            for q in early {
                session.serve(mk.graph(), &g, q).unwrap();
            }
            for q in late {
                mk.refine_for(&g, q); // bumps the mutation epoch
            }
            for q in &w.queries {
                let served = session.serve(mk.graph(), &g, q).unwrap().clone();
                let fresh = answer_compiled(mk.graph(), &g, &q.compile(&g), policy);
                assert_eq!(
                    served.nodes, fresh.nodes,
                    "{ds}/{policy:?}: stale answer for {q}"
                );
                assert_eq!(served.cost, fresh.cost, "{ds}/{policy:?}: {q}");
            }
        }
    }
}

/// Serve a query on M(k), apply an FUP whose refinement splits one of its
/// target index nodes, and the re-served answer must be a fresh
/// evaluation (and ground truth), not the stale cached extent.
#[test]
fn mk_fup_splitting_a_target_node_evicts_the_cached_answer() {
    let (_, g) = docs().remove(0);
    let served_q = PathExpr::parse("//person").unwrap();
    let fup = PathExpr::parse("//open_auction/bidder/personref/person").unwrap();
    let mut mk = MkIndex::new(&g);
    let mut session = QuerySession::new(TrustPolicy::Claimed);
    let before = session.serve(mk.graph(), &g, &served_q).unwrap().clone();
    assert_eq!(before.nodes, eval_data(&g, &served_q.compile(&g)));
    let epoch_before = mk.graph().mutation_epoch();
    mk.refine_for(&g, &fup);
    assert!(
        mk.graph().mutation_epoch() > epoch_before,
        "refinement bumps the epoch"
    );
    assert!(
        before
            .target_index_nodes
            .iter()
            .any(|&t| !mk.graph().is_alive(t)),
        "test premise: the FUP splits a target node of the served query"
    );
    let after = session.serve(mk.graph(), &g, &served_q).unwrap().clone();
    let fresh = mk.query_paper(&g, &served_q);
    assert_eq!(
        (&after.nodes, after.cost),
        (&fresh.nodes, fresh.cost),
        "stale extent served"
    );
    assert_eq!(after.nodes, eval_data(&g, &served_q.compile(&g)));
    assert_eq!((session.stats().evictions, session.stats().hits), (1, 0));
}

/// Parallel replay aggregates per-thread sessions: totals are identical at
/// 1, 2 and 8 threads and equal the per-query sum.
#[test]
fn replay_totals_are_thread_count_invariant() {
    for (ds, g) in docs() {
        let w = workload(&g);
        let (ak, mstar) = (AkIndex::build(&g, 2), adapted(&g, &w.queries));
        for policy in POLICIES {
            let sum = |f: &dyn Fn(&PathExpr) -> Cost| w.queries.iter().map(f).sum::<Cost>();
            let legacy = sum(&|q| answer_compiled(ak.graph(), &g, &q.compile(&g), policy).cost);
            let strategy = EvalStrategy::TopDown;
            let legacy_ms = sum(&|q| mstar.query_with_policy(&g, q, strategy, policy).cost);
            for threads in [1usize, 2, 8] {
                let r = replay(ak.graph(), &g, &w.queries, policy, threads).unwrap();
                assert_eq!(r.total, legacy, "{ds}/ak/{policy:?}/{threads}t");
                assert_eq!(
                    (r.queries, r.stats.queries),
                    (w.queries.len(), r.queries as u64)
                );
                let r = replay(&mstar, &g, &w.queries, policy, threads).unwrap();
                assert_eq!(r.total, legacy_ms, "{ds}/mstar/{policy:?}/{threads}t");
            }
        }
    }
}

//! One differential suite for the two snapshot layouts the server runs:
//! compressed (v5) and demand-paged (v7).
//!
//! Every case writes a real `.mrx` file and reopens it the way serving
//! does — v5 through the validated loader, v7 through a [`PagedFile`] with
//! tiny pages and a budget far below the paged region, so queries cross
//! page seams and churn the clock mid-evaluation. The table is datasets ×
//! layouts × trust policies × cold/warm sessions — the datasets are XMark,
//! NASA, and a random graph with multiple parents and IDREF cycles, whose
//! index nodes have the most tangled subnode links; every answer and
//! [`Cost`] must equal the live [`MStarIndex`]'s top-down evaluation, and
//! every sound answer must equal naive evaluation on the data graph.

use std::path::PathBuf;

use mrx::datagen::{random_graph, RandomGraphConfig};
use mrx::graph::{FrozenGraph, GraphView};
use mrx::index::{EvalStrategy, IndexView, MStarSnapshot, QueryScratch, QuerySession};
use mrx::path::{eval_data, PathExpr};
use mrx::prelude::{nasa_like, xmark_like, DataGraph, MStarIndex, TrustPolicy, XmarkConfig};
use mrx::store::{
    open_validated, save_compressed, save_paged_with, snapshot_version, PagedFile, SnapshotPayload,
};
use mrx::workload::{Workload, WorkloadConfig};

const POLICIES: [TrustPolicy; 2] = [TrustPolicy::Proven, TrustPolicy::Claimed];

/// v7 page size and cache budget: 64-byte pages, 16 evictable pages.
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

fn adapted(g: &DataGraph, w: &Workload) -> MStarIndex {
    let mut idx = MStarIndex::new(g);
    for q in &w.queries {
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
    for policy in POLICIES {
        let mut session = QuerySession::new(policy);
        let mut live_session = QuerySession::new(policy);
        for round in ["cold", "warm"] {
            for q in queries {
                let ctx = format!("{ctx}/{policy:?}/{round} on {q}");
                let live = idx.query_with_policy(g, q, EvalStrategy::TopDown, policy);
                if policy == TrustPolicy::Proven {
                    assert_eq!(live.nodes, eval_data(g, &q.compile(g)), "{ctx}: oracle");
                }
                let cold = star.query_top_down_with_scratch(
                    sg,
                    &q.compile(sg),
                    policy,
                    &mut QueryScratch::new(),
                );
                assert_eq!(cold.nodes, live.nodes, "{ctx}: cold answer");
                assert_eq!(cold.cost, live.cost, "{ctx}: cold cost");
                assert_eq!(cold.validated, live.validated, "{ctx}: cold validation");
                let warm = session.serve(star, sg, q);
                assert_eq!(warm.nodes, live.nodes, "{ctx}: session answer");
                assert_eq!(warm.cost, live.cost, "{ctx}: session cost");
                live_session.serve_mstar(idx, g, q, EvalStrategy::TopDown);
            }
        }
        assert_eq!(
            session.stats(),
            live_session.stats(),
            "{ctx}/{policy:?}: cache behaviour diverged"
        );
        assert!(session.stats().hits >= queries.len() as u64, "{ctx}");
    }
}

#[test]
fn snapshots_match_live_top_down_and_the_naive_oracle() {
    for (ds, g) in docs() {
        let w = workload(&g);
        let idx = adapted(&g, &w);
        let fg = FrozenGraph::freeze(&g);
        let cz = idx.freeze_compressed();
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
                    check(&ctx, &star, &sg, &idx, &g, &w.queries);
                }
                Layout::Paged => {
                    save_paged_with(&path, &fg, &cz, PAGE).unwrap();
                    assert_eq!(snapshot_version(&path).unwrap(), 7, "{ctx}");
                    let file = PagedFile::open_with(&path, CACHE).unwrap();
                    let (sg, star, cache) = file.into_parts().unwrap();
                    check(&ctx, &star, &sg, &idx, &g, &w.queries);
                    assert!(cache.take_poison().is_none(), "{ctx}: clean file poisoned");
                    let s = cache.stats();
                    assert!(s.faults > 0, "{ctx}: paged serving must fault");
                    assert!(s.evictions > 0, "{ctx}: the budget must force eviction");
                    assert_eq!(s.checksum_failures, 0, "{ctx}");
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

/// The lazy readers load only the prefix `I0..I(length)` a query needs;
/// answers over that prefix equal answers over the whole hierarchy.
#[test]
fn lazy_prefix_loading_matches_the_full_hierarchy() {
    let (_, g) = docs().remove(1);
    let w = workload(&g);
    let idx = adapted(&g, &w);
    let fg = FrozenGraph::freeze(&g);
    let cz = idx.freeze_compressed();
    let (p5, p7) = (snapshot_path("prefix-v5"), snapshot_path("prefix-v7"));
    save_compressed(&p5, &fg, &cz).unwrap();
    save_paged_with(&p7, &fg, &cz, PAGE).unwrap();
    for q in &w.queries {
        let want = cz.query_top_down(&fg, q, TrustPolicy::Proven);
        let prefix: Vec<usize> = (0..=q.steps().len().saturating_sub(1).min(cz.max_k())).collect();
        let mut v5 = mrx::store::CompressedFile::open(&p5).unwrap();
        let a5 = v5.query_top_down(q).unwrap();
        assert_eq!(v5.loaded_components(), prefix, "v5 prefix on {q}");
        let mut v7 = PagedFile::open_with(&p7, CACHE).unwrap();
        let a7 = v7.query_top_down(q).unwrap();
        assert_eq!(v7.loaded_components(), prefix, "v7 prefix on {q}");
        for (layout, a) in [("v5", &a5), ("v7", &a7)] {
            assert_eq!(a.nodes, want.nodes, "{layout} on {q}");
            assert_eq!(a.cost, want.cost, "{layout} on {q}");
        }
    }
    std::fs::remove_file(p5).ok();
    std::fs::remove_file(p7).ok();
}

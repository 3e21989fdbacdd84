//! NASA-archive scenario: demonstrates *why* the M(k)/M*(k) indexes exist,
//! on the dataset shape that stresses the baselines — element names reused
//! in many contexts plus dense ID/IDREF cross-references.
//!
//! The paper's motivating example: a FUP targeting employees' last names
//! drags *every* `lastname` index node to high resolution under the
//! D(k)-index, including ones only reachable through unrelated contexts.
//! Here `name` plays that role: it appears under fields, creators,
//! instruments, observatories, telescopes, journals, and astro objects.
//!
//! ```sh
//! cargo run --release --example nasa_archive
//! ```

use mrx::index::{DkIndex, EvalStrategy, MStarIndex, MkIndex};
use mrx::path::{eval_data, PathExpr};
use mrx::prelude::nasa_like;

fn main() {
    let g = nasa_like(15_000, 7);
    println!(
        "NASA-like archive: {} nodes, {} edges, {} references",
        g.node_count(),
        g.edge_count(),
        g.ref_edge_count()
    );

    // How many contexts does `name` appear in?
    let name = g.labels().get("name").expect("name exists");
    let mut contexts: Vec<&str> = Vec::new();
    for v in g.nodes() {
        if g.label(v) == name {
            if let Some(p) = g.tree_parent(v) {
                let pl = g.label_str(g.label(p));
                if !contexts.contains(&pl) {
                    contexts.push(pl);
                }
            }
        }
    }
    contexts.sort_unstable();
    println!(
        "`name` appears under {} different parents: {contexts:?}\n",
        contexts.len()
    );

    // The FUP only cares about *instrument* names.
    let fup = PathExpr::parse("//dataset/instrument/name").unwrap();
    let truth = eval_data(&g, &fup.compile(&g));
    println!("FUP {fup}: {} answers", truth.len());

    // D(k)-construct: the per-label requirement forces EVERY name-class to
    // ≈2 resolution, field names and telescope names included.
    let dk = DkIndex::construct(&g, std::slice::from_ref(&fup));
    let dk_name_nodes = dk.graph().nodes_with_label(name).count();

    // M(k): only the instrument names split off; everything else keeps k=0.
    let mut mk = MkIndex::new(&g);
    mk.refine_for(&g, &fup);
    let mk_name_nodes = mk.graph().nodes_with_label(name).count();

    // M*(k): same selectivity, plus all coarser resolutions kept.
    let mut mstar = MStarIndex::new(&g);
    mstar.refine_for(&g, &fup);

    println!("\nafter supporting the FUP:");
    println!(
        "  D(k)-construct: {:>6} index nodes total, {:>3} nodes labeled `name`",
        dk.node_count(),
        dk_name_nodes
    );
    println!(
        "  M(k):           {:>6} index nodes total, {:>3} nodes labeled `name`",
        mk.node_count(),
        mk_name_nodes
    );
    println!(
        "  M*(k):          {:>6} stored nodes across {} components",
        mstar.node_count(),
        mstar.max_k() + 1
    );
    assert!(mk_name_nodes <= dk_name_nodes);

    // All of them answer the FUP precisely. Under the paper's claimed-k
    // policy none needs validation; the library's default (sound) policy
    // re-checks one representative per M(k)/M*(k) target node unless the
    // node's proven similarity and Lemma 2's premise cover the query.
    for (label, ans) in [
        ("D(k)", dk.query(&g, &fup)),
        ("M(k)", mk.query(&g, &fup)),
        ("M*(k)", mstar.query(&g, &fup, EvalStrategy::TopDown)),
    ] {
        assert_eq!(ans.nodes, truth, "{label}");
    }
    for (label, ans) in [
        ("D(k)", dk.query_paper(&g, &fup)),
        ("M(k)", mk.query_paper(&g, &fup)),
        ("M*(k)", mstar.query_paper(&g, &fup, EvalStrategy::TopDown)),
    ] {
        assert_eq!(ans.nodes, truth, "{label}");
        assert!(!ans.validated, "{label}: paper policy skips validation");
    }

    // ...but short queries over the same data show the multiresolution
    // advantage: M*(k) answers //name from its coarse component.
    let short = PathExpr::parse("//name").unwrap();
    let mk_cost = mk.query_paper(&g, &short).cost;
    let ms_cost = mstar.query_paper(&g, &short, EvalStrategy::TopDown).cost;
    println!("\nshort query {short}:");
    println!(
        "  M(k) cost  = {:>4} node visits (must scan the refined name nodes)",
        mk_cost.total()
    );
    println!(
        "  M*(k) cost = {:>4} node visits (answers in I0)",
        ms_cost.total()
    );
    assert!(ms_cost.total() <= mk_cost.total());

    // And subpath pre-filtering (§4.1) can beat plain top-down when an
    // interior subpath is highly selective.
    let deep = PathExpr::parse("//dataset/history/ingest/creator/name").unwrap();
    mstar.refine_for(&g, &deep);
    let td = mstar.query_paper(&g, &deep, EvalStrategy::TopDown);
    let sp = mstar.query_paper(&g, &deep, EvalStrategy::Subpath { start: 2, end: 4 });
    assert_eq!(td.nodes, sp.nodes);
    println!("\ndeep query {deep}:");
    println!("  top-down cost          = {:>4}", td.cost.total());
    println!(
        "  subpath-prefilter cost = {:>4} (pre-filtering ingest/creator)",
        sp.cost.total()
    );
}

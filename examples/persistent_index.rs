//! Persistent, lazily loaded indexing — the paper's §6 future work in
//! action: "a disk-resident structure that can be loaded into memory
//! selectively and incrementally during query processing".
//!
//! The demand-paged (v9) snapshot loads selectively twice over: a query of
//! length `j` activates only components `I0..Ij`, and within them only the
//! extent pages the evaluation touches fault in from disk. The activated
//! prefix is served through a `QuerySession`, the one serving path.
//!
//! ```sh
//! cargo run --release --example persistent_index
//! ```

use mrx::graph::FrozenGraph;
use mrx::index::{EvalStrategy, MStarIndex, QuerySession, TrustPolicy};
use mrx::path::PathExpr;
use mrx::prelude::{xmark_like, XmarkConfig};
use mrx::store::{save_paged, PagedFile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build an index over an auction site and refine it for a mixed-depth
    // workload (so the component hierarchy reaches I5).
    let g = xmark_like(&XmarkConfig::with_target_nodes(20_000), 11);
    let mut idx = MStarIndex::new(&g);
    for expr in [
        "//person/name",
        "//open_auction/bidder/personref",
        "//site/open_auctions/open_auction/bidder/personref/person",
        "//closed_auction/buyer/person/profile/interest",
    ] {
        idx.refine_for(&g, &PathExpr::parse(expr)?);
    }
    println!(
        "index: {} components, {} stored nodes, {} stored edges",
        idx.max_k() + 1,
        idx.node_count(),
        idx.edge_count()
    );

    // Persist. Extents are compressed posting blocks; the paged region
    // carries one checksum per page, every eager section its own.
    let path = std::env::temp_dir().join("mrx-example-auctions.mrx");
    save_paged(&path, &FrozenGraph::freeze(&g), &idx.freeze_compressed())?;
    let file_len = std::fs::metadata(&path)?.len();
    println!("saved {} ({file_len} bytes)\n", path.display());

    // Reopen and watch queries pull in only the components and pages they
    // need.
    let mut file = PagedFile::open(&path)?;
    println!(
        "opened: {} bytes read (header + graph core + directory + page table), \
         {} bytes left on disk",
        file.bytes_read(),
        file.paged_bytes()
    );

    let mut session = QuerySession::new(TrustPolicy::Proven);
    let mut eager = file.bytes_read();
    for expr in [
        "//person",
        "//bidder/personref",
        "//open_auction/bidder/personref/person",
    ] {
        let q = PathExpr::parse(expr)?;
        let (graph, star) = file.activate(&q)?;
        let ans = session.serve(star, graph, &q)?;
        let pages = file.page_stats();
        println!(
            "{expr:<45} {:>5} answers | components loaded: {:?} | {:>6} eager bytes \
             | {:>3} pages faulted",
            ans.nodes.len(),
            file.loaded_components(),
            file.bytes_read(),
            pages.faults
        );
        // Loading is incremental: eager reads only grow, and only when a
        // query needs a component that is not active yet.
        assert!(file.bytes_read() >= eager);
        eager = file.bytes_read();
    }
    assert!(file.bytes_read() + file.page_stats().resident_bytes < file_len);

    // The in-memory index and the file agree, answers and costs alike.
    let q = PathExpr::parse("//closed_auction/buyer/person")?;
    let (graph, star) = file.activate(&q)?;
    let from_file = session.serve(star, graph, &q)?;
    let in_memory = idx.query(&g, &q, EvalStrategy::TopDown);
    assert_eq!(from_file.nodes, in_memory.nodes);
    assert_eq!(from_file.cost, in_memory.cost);
    println!(
        "\nfile and in-memory answers agree on {q} ({} nodes)",
        from_file.nodes.len()
    );

    std::fs::remove_file(&path).ok();
    Ok(())
}

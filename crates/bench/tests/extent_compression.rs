//! The size side of the compressed posting representation and of the
//! paged snapshot, at a fixed, fast scale: the small XMark-like corpus
//! (10,858 nodes) with its M*(k) adapted to a 150-query workload (seed 7,
//! max length 4).
//!
//! Raw extents cost one `u32` per member of every component (each
//! component partitions the data nodes) plus an `n + 1` offset table. The
//! tagged posting arenas must stay at least 3x smaller, and each
//! encoding's block count is pinned, so a change to the block encoder's
//! choice shows up here as an exact diff. The whole paged (v9) image is
//! capped in bytes per data node, so a regression in the row codec fails
//! here without the end-to-end benchmark.

use mrx_bench::{Dataset, Scale};
use mrx_graph::{DataGraph, FrozenGraph};
use mrx_index::{AdaptEngine, CompressedMStar, MStarIndex};
use mrx_workload::{Workload, WorkloadConfig};

/// The corpus and its adapted, frozen index.
fn adapted() -> (DataGraph, CompressedMStar) {
    let g = Dataset::XMark.load(Scale::Small);
    let w = Workload::generate(
        &g,
        &WorkloadConfig {
            max_path_len: 4,
            num_queries: 150,
            seed: 7,
            max_enumerated_paths: 200_000,
        },
    );
    let mut idx = MStarIndex::new(&g);
    idx.refine_batch(&g, &w.queries, &mut AdaptEngine::new());
    let cz = idx.freeze_compressed();
    (g, cz)
}

#[test]
fn packed_extents_stay_three_times_smaller_than_raw() {
    let (g, cz) = adapted();
    assert_eq!((g.node_count(), cz.components.len()), (10_858, 5));

    let (mut raw, mut packed) = (0usize, 0usize);
    // Blocks per encoding: delta-varint, bit-packed, run.
    let mut blocks = [0usize; 3];
    for c in &cz.components {
        raw += 4 * (g.node_count() + c.node_count() + 1);
        packed += c.extent_bytes();
        for (total, n) in blocks.iter_mut().zip(c.extents.encoding_counts()) {
            *total += n;
        }
    }
    let ratio = raw as f64 / packed as f64;
    assert!(
        ratio >= 3.0,
        "packed extents {packed} B vs raw {raw} B: {ratio:.2}x, below 3x"
    );
    assert_eq!(blocks, [42, 847, 151], "blocks per encoding changed");
}

#[test]
fn paged_image_stays_under_its_bytes_per_node_cap() {
    // Measured 5.93 B (64,401 B in all); the v8 layout took 31.45 B.
    const CAP: f64 = 6.5;
    let (g, cz) = adapted();
    let image = mrx_store::paged_image(&FrozenGraph::freeze(&g), &cz, 4096).unwrap();
    let per_node = image.len() as f64 / g.node_count() as f64;
    println!(
        "paged image: {} B, {per_node:.2} B per data node",
        image.len()
    );
    assert!(
        per_node <= CAP,
        "paged image {per_node:.2} B per data node, cap {CAP}"
    );
}

//! The size side of the compressed posting representation, at a fixed,
//! fast scale: the small XMark-like corpus (10,858 nodes) with its M*(k)
//! adapted to a 150-query workload (seed 7, max length 4).
//!
//! Raw extents cost one `u32` per member of every component (each
//! component partitions the data nodes) plus an `n + 1` offset table. The
//! tagged posting arenas must stay at least 3x smaller, and each
//! encoding's block count is pinned, so a change to the block encoder's
//! choice shows up here as an exact diff.

use mrx_bench::{Dataset, Scale};
use mrx_index::{AdaptEngine, MStarIndex};
use mrx_workload::{Workload, WorkloadConfig};

#[test]
fn packed_extents_stay_three_times_smaller_than_raw() {
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

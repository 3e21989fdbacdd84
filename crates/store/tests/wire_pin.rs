//! Pins the v5 and v9 wire formats: the byte length and FNV-64 digest of
//! both images for a small seeded XMark corpus. A change to either writer
//! that moves a single byte fails here, so `snapshot_mb` in the benchmark
//! and every snapshot already on disk stay what they were. The index is
//! adapted through `AdaptEngine`, so the digests also pin its certified
//! `genuine` values; the byte lengths do not depend on them.

use mrx_datagen::{xmark_like, XmarkConfig};
use mrx_graph::FrozenGraph;
use mrx_index::{AdaptEngine, MStarIndex};
use mrx_pagecache::fnv64;
use mrx_store::{paged_image, save_compressed_to};
use mrx_workload::{Workload, WorkloadConfig};

fn corpus() -> (FrozenGraph, mrx_index::CompressedMStar) {
    let g = xmark_like(&XmarkConfig::with_target_nodes(3_000), 0x5EED);
    let w = Workload::generate(
        &g,
        &WorkloadConfig {
            max_path_len: 4,
            num_queries: 40,
            seed: 9,
            max_enumerated_paths: 100_000,
        },
    );
    let mut idx = MStarIndex::new(&g);
    AdaptEngine::new().adapt_mstar(&g, &mut idx, &w.queries);
    (FrozenGraph::freeze(&g), idx.freeze_compressed())
}

#[test]
fn v5_and_v8_images_are_pinned() {
    let (fg, cz) = corpus();
    let mut v5 = Vec::new();
    save_compressed_to(&mut v5, &fg, &cz).unwrap();
    let v9 = paged_image(&fg, &cz, 4096).unwrap();
    assert_eq!(
        (v5.len(), fnv64(&v5)),
        (104_215, 0xf038_084c_81ea_2aa8),
        "v5 image moved"
    );
    assert_eq!(
        (v9.len(), fnv64(&v9)),
        (18_333, 0xb078_5c5e_9454_8d4e),
        "v9 image moved"
    );
}

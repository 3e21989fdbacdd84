//! Oracle equivalence for the refinement engine: on every graph the engine
//! in `mrx_index::refine` must produce the *same* partition — block ids and
//! all — as the naive reference implementation it replaced
//! (`mrx::index::naive`).
//!
//! Graphs cover random DAGs/cyclic graphs, XMark-like and NASA-like
//! documents, and fixpoint runs.

use mrx::datagen::{nasa_like, random_graph, xmark_like, RandomGraphConfig, XmarkConfig};
use mrx::graph::DataGraph;
use mrx::index::{label_partition, naive, Partition, Refiner};

/// `≈k` by the engine.
fn engine_k_bisim(g: &DataGraph, k: u32) -> Partition {
    let mut r = Refiner::new(g);
    r.run(k);
    r.finish().0
}

/// Asserts engine == naive for `0..=kmax` rounds, comparing `block_of`
/// verbatim (the engine numbers blocks by first occurrence, so equality is
/// exact, not just up-to-renaming).
fn assert_matches_naive(g: &DataGraph, kmax: u32, what: &str) {
    let mut naive_k = label_partition(g);
    for k in 0..=kmax {
        let e = engine_k_bisim(g, k);
        assert_eq!(e.num_blocks, naive_k.num_blocks, "{what}: k={k}");
        assert_eq!(e.block_of, naive_k.block_of, "{what}: k={k}");
        naive_k = naive::refine_once(g, &naive_k);
    }
}

#[test]
fn random_graphs_match_naive() {
    for seed in 0..12u64 {
        let g = random_graph(
            &RandomGraphConfig {
                nodes: 30 + (seed as usize) * 17,
                labels: 2 + (seed as usize % 4),
                extra_edge_ratio: 0.1 * (seed % 8) as f64,
                allow_cycles: seed % 2 == 0,
            },
            seed,
        );
        assert_matches_naive(&g, 4, &format!("random seed={seed}"));
    }
}

#[test]
fn xmark_like_matches_naive() {
    let g = xmark_like(&XmarkConfig::with_target_nodes(8_000), 7);
    assert_matches_naive(&g, 5, "xmark");
}

#[test]
fn nasa_like_matches_naive() {
    let g = nasa_like(8_000, 7);
    assert_matches_naive(&g, 5, "nasa");
}

#[test]
fn fixpoint_matches_naive_bisim() {
    for seed in [3u64, 11, 19] {
        let g = random_graph(
            &RandomGraphConfig {
                nodes: 200,
                labels: 4,
                extra_edge_ratio: 0.4,
                allow_cycles: true,
            },
            seed,
        );
        let (np, nrounds) = naive::bisim(&g);
        let mut r = Refiner::new(&g);
        let rounds = r.run_to_fixpoint();
        let (p, _) = r.finish();
        assert_eq!(rounds, nrounds, "seed={seed}");
        assert_eq!(p.num_blocks, np.num_blocks, "seed={seed}");
        assert_eq!(p.block_of, np.block_of, "seed={seed}");
    }
}

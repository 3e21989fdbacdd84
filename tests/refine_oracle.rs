//! Oracle equivalence for the refinement engine: on every graph, at every
//! thread count, the engine in `mrx_index::refine` must produce the *same*
//! partition — block ids and all — as the naive reference implementation it
//! replaced (`mrx::index::naive`).
//!
//! Graphs cover random DAGs/cyclic graphs, XMark-like and NASA-like
//! documents, and sizes straddling the sequential-fallback threshold
//! (`SEQ_THRESHOLD`), so both the sequential and the sharded parallel path
//! are exercised regardless of the host's core count.

use mrx::datagen::{nasa_like, random_graph, xmark_like, RandomGraphConfig, XmarkConfig};
use mrx::graph::DataGraph;
use mrx::index::{label_partition, naive, Direction, Partition, Refiner, SEQ_THRESHOLD};

const THREADS: &[usize] = &[1, 2, 8];

/// `≈k` by the engine at an explicit thread count.
fn engine_k_bisim(g: &DataGraph, k: u32, dir: Direction, threads: usize) -> Partition {
    let mut r = Refiner::with_threads(g, dir, threads);
    r.run(k);
    r.finish().0
}

/// Asserts engine == naive for `0..=kmax` rounds in both directions at all
/// thread counts, comparing `block_of` verbatim (the engine renumbers by
/// first occurrence, so equality is exact, not just up-to-renaming).
fn assert_matches_naive(g: &DataGraph, kmax: u32, what: &str) {
    let mut up = label_partition(g);
    let mut down = label_partition(g);
    for k in 0..=kmax {
        for &t in THREADS {
            let e_up = engine_k_bisim(g, k, Direction::Up, t);
            assert_eq!(e_up.num_blocks, up.num_blocks, "{what}: up k={k} t={t}");
            assert_eq!(e_up.block_of, up.block_of, "{what}: up k={k} t={t}");
            let e_down = engine_k_bisim(g, k, Direction::Down, t);
            assert_eq!(
                e_down.num_blocks, down.num_blocks,
                "{what}: down k={k} t={t}"
            );
            assert_eq!(e_down.block_of, down.block_of, "{what}: down k={k} t={t}");
        }
        up = naive::refine_once(g, &up);
        down = naive::refine_once_down(g, &down);
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
fn sizes_around_seq_threshold_match_naive() {
    // Straddle the sequential/parallel dispatch boundary so multi-thread
    // runs take both code paths.
    for nodes in [
        SEQ_THRESHOLD - 500,
        SEQ_THRESHOLD - 1,
        SEQ_THRESHOLD,
        SEQ_THRESHOLD + 1,
        SEQ_THRESHOLD + 500,
    ] {
        let g = random_graph(
            &RandomGraphConfig {
                nodes,
                labels: 6,
                extra_edge_ratio: 0.3,
                allow_cycles: true,
            },
            42,
        );
        assert_matches_naive(&g, 3, &format!("threshold nodes={nodes}"));
    }
}

#[test]
fn xmark_like_matches_naive() {
    let g = xmark_like(&XmarkConfig::with_target_nodes(8_000), 7);
    assert!(
        g.node_count() > SEQ_THRESHOLD,
        "dataset must hit parallel path"
    );
    assert_matches_naive(&g, 5, "xmark");
}

#[test]
fn nasa_like_matches_naive() {
    let g = nasa_like(8_000, 7);
    assert!(
        g.node_count() > SEQ_THRESHOLD,
        "dataset must hit parallel path"
    );
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
        for &t in THREADS {
            let mut r = Refiner::with_threads(&g, Direction::Up, t);
            let rounds = r.run_to_fixpoint();
            let (p, _) = r.finish();
            assert_eq!(rounds, nrounds, "seed={seed} t={t}");
            assert_eq!(p.num_blocks, np.num_blocks, "seed={seed} t={t}");
            assert_eq!(p.block_of, np.block_of, "seed={seed} t={t}");
        }
    }
}

//! Synthetic query-workload generation (§5 of the paper, "Query workload").
//!
//! The paper's recipe, reproduced here:
//!
//! 1. Generate all label paths of length up to `max_path_len` in the data
//!    graph (the length limit keeps cyclic documents finite). We enumerate
//!    on the A(max_path_len)-index, which represents exactly the same label
//!    paths as the data graph up to that length but is far smaller.
//! 2. For each query, pick a label path at random, extract a subsequence
//!    with random start position and random length, and prefix it with the
//!    self-or-descendant axis `//`.
//!
//! Because the start position is uniform, short queries are more likely than
//! long ones — matching the observation that short path expressions dominate
//! real workloads (the distributions of Figures 8 and 9 fall out of this
//! process; [`Workload::length_histogram`] regenerates them).

#![forbid(unsafe_code)]

use std::collections::HashSet;

use mrx_datagen::Prng;
use mrx_graph::{DataGraph, LabelId};
use mrx_index::AkIndex;
use mrx_path::PathExpr;

mod fup;
pub use fup::FupExtractor;

/// Parameters for workload generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Maximum label-path length in **edges** (the paper uses 9 and 4).
    pub max_path_len: usize,
    /// Number of queries to sample (the paper uses 500).
    pub num_queries: usize,
    /// RNG seed.
    pub seed: u64,
    /// Safety cap on the number of enumerated label paths.
    pub max_enumerated_paths: usize,
}

impl WorkloadConfig {
    /// The paper's primary setting: 500 queries, max length 9.
    pub fn paper_long(seed: u64) -> Self {
        WorkloadConfig {
            max_path_len: 9,
            num_queries: 500,
            seed,
            max_enumerated_paths: 400_000,
        }
    }
}

/// A generated workload of `//`-prefixed simple path expressions.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The sampled queries, in generation order (duplicates possible — a
    /// frequently sampled expression really is a *frequently used* path).
    pub queries: Vec<PathExpr>,
    /// The config that produced them.
    pub config: WorkloadConfig,
}

impl Workload {
    /// Generates a workload for `g` per the paper's recipe.
    pub fn generate(g: &DataGraph, config: &WorkloadConfig) -> Workload {
        let paths = enumerate_label_paths(g, config.max_path_len, config.max_enumerated_paths);
        assert!(!paths.is_empty(), "graph has no label paths");
        let mut rng = Prng::seed_from_u64(config.seed);
        let mut queries = Vec::with_capacity(config.num_queries);
        for _ in 0..config.num_queries {
            let path = &paths[rng.gen_range(0..paths.len())];
            let start = rng.gen_range(0..path.len());
            let len = rng.gen_range(1..=path.len() - start);
            let labels: Vec<&str> = path[start..start + len]
                .iter()
                .map(|&l| g.label_str(l))
                .collect();
            queries.push(PathExpr::descendant(labels));
        }
        Workload {
            queries,
            config: config.clone(),
        }
    }

    /// Fraction of queries per length `0..=max_path_len` (Figures 8 and 9).
    pub fn length_histogram(&self) -> Vec<f64> {
        let mut counts = vec![0usize; self.config.max_path_len + 1];
        for q in &self.queries {
            counts[q.length()] += 1;
        }
        let n = self.queries.len().max(1) as f64;
        counts.into_iter().map(|c| c as f64 / n).collect()
    }
}

/// Enumerates the distinct root-originated label paths of `g` with at most
/// `max_len` edges (i.e. up to `max_len + 1` labels), capped at `cap` paths.
///
/// Enumeration runs on the A(max_len)-index: its label paths of length up to
/// `max_len` coincide with the data graph's (A(k) property 2), and the index
/// is typically orders of magnitude smaller.
pub fn enumerate_label_paths(g: &DataGraph, max_len: usize, cap: usize) -> Vec<Vec<LabelId>> {
    let idx = AkIndex::build(g, max_len as u32);
    let ig = idx.graph();
    let root_node = ig.node_of(g.root());
    let mut out: Vec<Vec<LabelId>> = Vec::new();
    let mut seen: HashSet<Vec<LabelId>> = HashSet::new();
    // DFS over (index node, depth); the label path is carried on a stack.
    let mut label_stack: Vec<LabelId> = vec![ig.label(root_node)];
    dfs(
        ig,
        root_node,
        max_len,
        cap,
        &mut label_stack,
        &mut seen,
        &mut out,
    );
    out
}

fn dfs(
    ig: &mrx_index::IndexGraph,
    v: mrx_index::IdxId,
    remaining: usize,
    cap: usize,
    label_stack: &mut Vec<LabelId>,
    seen: &mut HashSet<Vec<LabelId>>,
    out: &mut Vec<Vec<LabelId>>,
) {
    if out.len() >= cap {
        return;
    }
    if seen.insert(label_stack.clone()) {
        out.push(label_stack.clone());
    }
    if remaining == 0 {
        return;
    }
    for &c in ig.children(v) {
        label_stack.push(ig.label(c));
        dfs(ig, c, remaining - 1, cap, label_stack, seen, out);
        label_stack.pop();
        if out.len() >= cap {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrx_datagen::{nasa_like, random_graph, RandomGraphConfig};
    use mrx_graph::xml::parse;
    use mrx_path::eval_data;

    fn doc() -> DataGraph {
        parse("<r><a><b><c/></b></a><d><b><e/></b></d></r>").unwrap()
    }

    #[test]
    fn enumeration_finds_all_root_paths() {
        let g = doc();
        let paths = enumerate_label_paths(&g, 3, 1000);
        let rendered: HashSet<String> = paths
            .iter()
            .map(|p| {
                p.iter()
                    .map(|&l| g.label_str(l))
                    .collect::<Vec<_>>()
                    .join("/")
            })
            .collect();
        let expected: HashSet<String> = ["r", "r/a", "r/d", "r/a/b", "r/d/b", "r/a/b/c", "r/d/b/e"]
            .into_iter()
            .map(String::from)
            .collect();
        assert_eq!(rendered, expected);
    }

    #[test]
    fn enumeration_respects_length_limit_on_cycles() {
        let mut b = mrx_graph::GraphBuilder::new();
        let r = b.add_node("r");
        let a = b.add_child(r, "a");
        b.add_ref(a, a); // self-loop: unbounded paths without the limit
        let g = b.freeze();
        let paths = enumerate_label_paths(&g, 5, 1000);
        assert_eq!(paths.len(), 6); // r, r/a, r/a/a, ..., r/a/a/a/a/a
        assert!(paths.iter().all(|p| p.len() <= 6));
    }

    #[test]
    fn cap_is_honoured() {
        let g = nasa_like(5_000, 2);
        let paths = enumerate_label_paths(&g, 9, 50);
        assert_eq!(paths.len(), 50);
    }

    #[test]
    fn workload_queries_are_descendant_subsequences() {
        let g = doc();
        let w = Workload::generate(
            &g,
            &WorkloadConfig {
                max_path_len: 3,
                num_queries: 100,
                seed: 5,
                max_enumerated_paths: 1000,
            },
        );
        assert_eq!(w.queries.len(), 100);
        for q in &w.queries {
            assert!(!q.is_anchored());
            assert!(q.length() <= 3);
            // every query has at least one instance in the data graph:
            // it is a subsequence of an existing root path
            assert!(
                !eval_data(&g, &q.compile(&g)).is_empty(),
                "query {q} has no answers"
            );
        }
    }

    #[test]
    fn length_distribution_is_skewed_short() {
        let g = nasa_like(8_000, 7);
        let w = Workload::generate(&g, &WorkloadConfig::paper_long(1));
        let h = w.length_histogram();
        assert_eq!(h.len(), 10);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // short queries dominate (Figure 8's shape)
        assert!(h[0] > h[5], "histogram {h:?}");
        assert!(h[0] + h[1] + h[2] > 0.4, "histogram {h:?}");
        // monotone-ish decrease over the tail
        assert!(h[9] < h[2], "histogram {h:?}");
    }

    #[test]
    fn deterministic_in_seed() {
        let g = doc();
        let cfg = WorkloadConfig {
            max_path_len: 3,
            num_queries: 20,
            seed: 9,
            max_enumerated_paths: 100,
        };
        let w1 = Workload::generate(&g, &cfg);
        let w2 = Workload::generate(&g, &cfg);
        assert_eq!(w1.queries, w2.queries);
        let w3 = Workload::generate(&g, &WorkloadConfig { seed: 10, ..cfg });
        assert_ne!(w1.queries, w3.queries);
    }

    #[test]
    fn works_on_random_graphs() {
        for seed in 0..5 {
            let g = random_graph(&RandomGraphConfig::default(), seed);
            let w = Workload::generate(
                &g,
                &WorkloadConfig {
                    max_path_len: 4,
                    num_queries: 30,
                    seed,
                    max_enumerated_paths: 10_000,
                },
            );
            assert_eq!(w.queries.len(), 30);
        }
    }
}

//! Ground-truth k-bisimulation partitions.
//!
//! [`k_bisim`] computes the `≈k` equivalence classes of a data graph by
//! iterative signature refinement (Definition 2 of the paper): two nodes are
//! in the same block at round `i` iff they were in the same block at round
//! `i−1` *and* their parents cover the same set of round-`i−1` blocks.
//! Round 0 partitions by label.
//!
//! The A(k)-index is exactly the index graph induced by `≈k`; the 1-index is
//! the fixpoint ([`bisim`]). The M(k)/M*(k) test-suites also use these
//! partitions as an independent oracle for Property 1 ("all data nodes in an
//! extent are `v.k`-bisimilar").

use mrx_graph::{DataGraph, NodeId};

use crate::refine::{RefineStats, Refiner};

/// A partition of a graph's nodes into numbered blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `block_of[v]` is the block id of node `v`; block ids are dense `0..num_blocks`.
    pub block_of: Vec<u32>,
    /// Number of blocks.
    pub num_blocks: usize,
}

impl Partition {
    /// Whether nodes `u` and `v` share a block.
    #[inline]
    pub fn same_block(&self, u: NodeId, v: NodeId) -> bool {
        self.block_of[u.index()] == self.block_of[v.index()]
    }

    /// Materializes the blocks as sorted extents.
    pub fn blocks(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.num_blocks];
        for (i, &b) in self.block_of.iter().enumerate() {
            out[b as usize].push(NodeId(i as u32));
        }
        out
    }

    /// Whether `self` refines `coarser`: every block of `self` lies inside
    /// one block of `coarser`.
    pub fn refines(&self, coarser: &Partition) -> bool {
        let mut rep: Vec<Option<u32>> = vec![None; self.num_blocks];
        for (i, &b) in self.block_of.iter().enumerate() {
            let c = coarser.block_of[i];
            match rep[b as usize] {
                None => rep[b as usize] = Some(c),
                Some(r) if r == c => {}
                Some(_) => return false,
            }
        }
        true
    }
}

/// The `≈0` partition: blocks are labels.
pub fn label_partition(g: &DataGraph) -> Partition {
    // Labels are dense but some may be unused; renumber to dense block ids.
    let mut remap: Vec<u32> = vec![u32::MAX; g.labels().len()];
    let mut block_of = Vec::with_capacity(g.node_count());
    let mut next = 0u32;
    for v in g.nodes() {
        let l = g.label(v).index();
        if remap[l] == u32::MAX {
            remap[l] = next;
            next += 1;
        }
        block_of.push(remap[l]);
    }
    Partition {
        block_of,
        num_blocks: next as usize,
    }
}

/// One refinement round: `≈i` from `≈{i−1}`.
///
/// Returns the refined partition; block count is non-decreasing. Backed by
/// the interning engine in [`crate::refine`] (see [`naive::refine_once`] for
/// the reference implementation it is tested against).
pub fn refine_once(g: &DataGraph, prev: &Partition) -> Partition {
    let mut r = Refiner::from_partition(g, prev.clone());
    r.step();
    r.finish().0
}

/// The `≈k` partition.
pub fn k_bisim(g: &DataGraph, k: u32) -> Partition {
    k_bisim_stats(g, k).0
}

/// [`k_bisim`] with the engine's per-round statistics.
pub fn k_bisim_stats(g: &DataGraph, k: u32) -> (Partition, RefineStats) {
    let mut r = Refiner::new(g);
    r.run(k);
    r.finish()
}

/// All partitions `≈0 ..= ≈kmax` (index `i` holds `≈i`).
pub fn k_bisim_all(g: &DataGraph, kmax: u32) -> Vec<Partition> {
    let mut r = Refiner::new(g);
    let mut out = Vec::with_capacity(kmax as usize + 1);
    out.push(r.partition().clone());
    for _ in 0..kmax {
        r.step();
        out.push(r.partition().clone());
    }
    out
}

/// Full bisimulation (the 1-index partition): refine until the block count
/// stabilizes. Returns the fixpoint and the number of rounds it took (the
/// graph's *stabilization k*).
pub fn bisim(g: &DataGraph) -> (Partition, u32) {
    let (p, rounds, _) = bisim_stats(g);
    (p, rounds)
}

/// [`bisim`] with the engine's per-round statistics.
pub fn bisim_stats(g: &DataGraph) -> (Partition, u32, RefineStats) {
    let mut r = Refiner::new(g);
    let rounds = r.run_to_fixpoint();
    let (p, stats) = r.finish();
    (p, rounds, stats)
}

/// The original round implementations, kept verbatim as the oracle the
/// engine in [`crate::refine`] is verified against: one heap-allocated
/// `Vec<u32>` signature per node per round, interned through a
/// `HashMap<Vec<u32>, u32>`. Slow but transparently correct — property
/// tests assert the optimized partitions match these block-for-block.
pub mod naive {
    use super::{label_partition, Partition};
    use mrx_graph::DataGraph;
    use std::collections::HashMap;

    /// One refinement round over parents (reference implementation).
    pub fn refine_once(g: &DataGraph, prev: &Partition) -> Partition {
        // Signature: [own previous block, sorted deduped previous parent blocks].
        let mut parent_blocks: Vec<u32> = Vec::new();
        let mut table: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut block_of = Vec::with_capacity(g.node_count());
        for v in g.nodes() {
            parent_blocks.clear();
            parent_blocks.extend(g.parents(v).iter().map(|p| prev.block_of[p.index()]));
            parent_blocks.sort_unstable();
            parent_blocks.dedup();
            let mut sig = Vec::with_capacity(parent_blocks.len() + 1);
            sig.push(prev.block_of[v.index()]);
            sig.extend_from_slice(&parent_blocks);
            let next = table.len() as u32;
            let id = *table.entry(sig).or_insert(next);
            block_of.push(id);
        }
        Partition {
            num_blocks: table.len(),
            block_of,
        }
    }

    /// The `≈k` partition by naive rounds (reference implementation).
    pub fn k_bisim(g: &DataGraph, k: u32) -> Partition {
        let mut p = label_partition(g);
        for _ in 0..k {
            p = refine_once(g, &p);
        }
        p
    }

    /// The full-bisimulation fixpoint by naive rounds (reference
    /// implementation). Returns the partition and its stabilization `k`.
    pub fn bisim(g: &DataGraph) -> (Partition, u32) {
        let mut p = label_partition(g);
        let mut rounds = 0u32;
        loop {
            let next = refine_once(g, &p);
            if next.num_blocks == p.num_blocks {
                // Equal block count for a refinement implies equal partition.
                return (p, rounds);
            }
            p = next;
            rounds += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrx_graph::GraphBuilder;

    /// Figure 2 of the paper: two `d` nodes with identical incoming label
    /// paths that are nonetheless not bisimilar.
    fn figure2() -> (DataGraph, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        // left tree: r -> a -> c1 -> d1, r -> b -> c2 -> d1 (two c's, shared d)
        let r = b.add_node("r");
        let a = b.add_child(r, "a");
        let bb = b.add_child(r, "b");
        let c1 = b.add_child(a, "c");
        let c2 = b.add_child(bb, "c");
        let d1 = b.add_child(c1, "d");
        b.add_ref(c2, d1);
        // right tree grafted under the same root via a fresh subtree:
        // r2 -> a2 -> c3 <- b2 ; c3 -> d2 (one shared c)
        let r2 = b.add_child(r, "r2");
        let a2 = b.add_child(r2, "a");
        let b2 = b.add_child(r2, "b");
        let c3 = b.add_child(a2, "c");
        b.add_ref(b2, c3);
        let d2 = b.add_child(c3, "d");
        (b.freeze(), d1, d2)
    }

    #[test]
    fn zero_bisim_is_label_partition() {
        let (g, d1, d2) = figure2();
        let p = label_partition(&g);
        assert!(p.same_block(d1, d2));
        // 6 labels: r a b c d r2
        assert_eq!(p.num_blocks, 6);
    }

    #[test]
    fn figure2_d_nodes_separate_at_k2() {
        let (g, d1, d2) = figure2();
        // k=1: both ds have only c parents -> same block
        assert!(k_bisim(&g, 1).same_block(d1, d2));
        // k=2: d1's parents are two c's with different parents (a vs b);
        // d2's parent is a single c with both a and b parents. The c-blocks
        // differ at k=1, so the d's separate at k=2.
        assert!(!k_bisim(&g, 2).same_block(d1, d2));
    }

    #[test]
    fn refinement_chain() {
        let (g, _, _) = figure2();
        let ps = k_bisim_all(&g, 4);
        for w in ps.windows(2) {
            assert!(w[1].refines(&w[0]), "≈(k+1) must refine ≈k");
            assert!(w[1].num_blocks >= w[0].num_blocks);
        }
    }

    #[test]
    fn fixpoint_separates_non_bisimilar() {
        let (g, d1, d2) = figure2();
        let (p, rounds) = bisim(&g);
        assert!(!p.same_block(d1, d2));
        assert!(rounds >= 2);
        // fixpoint really is a fixpoint
        let again = refine_once(&g, &p);
        assert_eq!(again.num_blocks, p.num_blocks);
    }

    #[test]
    fn pure_tree_blocks_by_root_path() {
        // In a tree, bisimilarity groups nodes by their root-to-node label path.
        let mut b = GraphBuilder::new();
        let r = b.add_node("r");
        let a1 = b.add_child(r, "a");
        let a2 = b.add_child(r, "a");
        let x1 = b.add_child(a1, "x");
        let x2 = b.add_child(a2, "x");
        let y = b.add_child(r, "x"); // x directly under r: different path
        let g = b.freeze();
        let (p, _) = bisim(&g);
        assert!(p.same_block(x1, x2));
        assert!(!p.same_block(x1, y));
        assert!(p.same_block(a1, a2));
    }

    #[test]
    fn blocks_materialization_partitions_nodes() {
        let (g, _, _) = figure2();
        let p = k_bisim(&g, 2);
        let blocks = p.blocks();
        assert_eq!(blocks.len(), p.num_blocks);
        let total: usize = blocks.iter().map(Vec::len).sum();
        assert_eq!(total, g.node_count());
        assert!(blocks.iter().all(|b| !b.is_empty()));
    }

    #[test]
    fn single_node_graph() {
        let mut b = GraphBuilder::new();
        b.add_node("only");
        let g = b.freeze();
        let (p, rounds) = bisim(&g);
        assert_eq!(p.num_blocks, 1);
        assert_eq!(rounds, 0);
    }

    #[test]
    fn cycle_terminates() {
        let mut b = GraphBuilder::new();
        let r = b.add_node("r");
        let a = b.add_child(r, "a");
        let c = b.add_child(a, "a");
        b.add_ref(c, a);
        let g = b.freeze();
        let (p, _) = bisim(&g);
        assert!(p.num_blocks <= g.node_count());
        assert!(!p.same_block(a, c)); // a has parent r, c does not
    }
}

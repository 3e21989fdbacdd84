//! Compressed snapshots of index graphs: the memory-lean serving form.
//!
//! [`CompressedIndex::freeze`] compiles a live [`IndexGraph`] — slot arena
//! with dead entries, per-node `Vec`s, label lists polluted by refinement
//! churn — straight into a [`CompressedIndex`]: dense ids `0..n`, CSR
//! parent/child adjacency, a label→nodes CSR, and the extents — the
//! dominant arrays at scale, one `u32` per data node per component — in an
//! encoding-adaptive [`mrx_postings::PostingArena`], served *without
//! decompression* through its per-block bulk decoders.
//!
//! Because the shared evaluators ([`crate::view`], [`crate::query`]) touch
//! extents only through the extent surface of [`crate::IndexView`], a
//! compressed component answers every query with the identical traversal,
//! identical answers, and identical [`mrx_path::Cost`] as the live index it
//! was frozen from. [`crate::CompressedMStar`] is the hierarchy form and
//! maps directly onto the `.mrx` v5 on-disk layout, which stores neither
//! the root's node nor the [`SubnodeLinks`]: the loader derives both, and
//! a loaded component passes [`SnapshotIndex::assemble`] before serving.

use mrx_graph::NodeId;
use mrx_postings::PostingArena;

use crate::snapshot::{ExtentStore, SnapshotIndex};
use crate::{IdxId, IndexGraph, SubnodeLinks};

/// A snapshot component with delta-compressed extents: posting list `v`
/// of the arena is the sorted extent of node `v`. The arena itself is
/// payload-validated by [`PostingArena::from_parts`] at read time;
/// [`assemble`](SnapshotIndex::assemble) checks the rest.
pub type CompressedIndex = SnapshotIndex<PostingArena>;

impl ExtentStore for PostingArena {
    fn len_of(&self, v: usize) -> usize {
        PostingArena::len_of(self, v)
    }

    fn first_of(&self, v: usize) -> Option<u32> {
        PostingArena::first_of(self, v)
    }

    fn for_each(&self, v: usize, f: impl FnMut(u32)) {
        PostingArena::for_each(self, v, f)
    }

    fn num_lists(&self) -> usize {
        PostingArena::num_lists(self)
    }

    fn push_into(&self, v: usize, out: &mut Vec<NodeId>) {
        self.decode_into(v, out);
    }
}

impl CompressedIndex {
    /// Compiles a live index graph into a compressed component, linked
    /// below `coarse` when given.
    ///
    /// Live slot ids are renumbered in ascending order (dead slots drop
    /// out). This monotone map keeps mapped adjacency rows sorted and makes
    /// live/snapshot correspondence exact — see the module docs of
    /// [`crate::view`]. Extents are packed straight from the live slots,
    /// and the label→nodes map is rebuilt dense, so refinement churn in the
    /// live `by_label` lists does not survive freezing. The links are the
    /// live inverse extent map taken through the renumbering, in a
    /// data-sized scratch that lives only for this call.
    pub fn freeze(ig: &IndexGraph, coarse: Option<&CompressedIndex>) -> CompressedIndex {
        let mut map = vec![IdxId(u32::MAX); ig.slot_bound()];
        for (i, v) in ig.iter().enumerate() {
            map[v.index()] = IdxId(i as u32);
        }
        let n = ig.node_count();
        let mut c = CompressedIndex {
            labels: Vec::with_capacity(n),
            k: Vec::with_capacity(n),
            genuine: Vec::with_capacity(n),
            extents: PostingArena::new(),
            child_off: Vec::with_capacity(n + 1),
            child_tgt: Vec::new(),
            parent_off: Vec::with_capacity(n + 1),
            parent_tgt: Vec::new(),
            root: map[ig.root_node().index()],
            links: SubnodeLinks::default(),
            by_label_off: Vec::new(),
            by_label_ids: Vec::new(),
            lemma2: ig.lemma2_safe(),
            epoch: ig.mutation_epoch(),
        };
        c.child_off.push(0);
        c.parent_off.push(0);
        for v in ig.iter() {
            c.labels.push(ig.label(v));
            c.k.push(ig.k(v));
            c.genuine.push(ig.genuine(v));
            c.extents.push_list(ig.extent(v));
            c.child_tgt
                .extend(ig.children(v).iter().map(|u| map[u.index()]));
            c.child_off.push(c.child_tgt.len() as u32);
            c.parent_tgt
                .extend(ig.parents(v).iter().map(|u| map[u.index()]));
            c.parent_off.push(c.parent_tgt.len() as u32);
        }
        c.derive_by_label(ig.num_labels());
        if let Some(coarse) = coarse {
            let node_of: Vec<IdxId> = (0..ig.data_node_count())
                .map(|o| map[ig.node_of(NodeId(o as u32)).index()])
                .collect();
            c.links = SubnodeLinks::derive(coarse, &node_of, n);
        }
        c
    }

    /// Heap bytes held by the extent representation (payload, skip
    /// directory, and per-list tables).
    pub fn extent_bytes(&self) -> usize {
        self.extents.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexView;
    use crate::{query, view, TrustPolicy};
    use mrx_graph::xml::parse;
    use mrx_graph::{DataGraph, GraphView, LabelId};
    use mrx_path::{Cost, PathExpr};

    fn doc() -> DataGraph {
        parse(
            "<site>
               <people><person><name><last/></name></person>
                        <person><name/></person></people>
               <forum><poster><name><last/></name></poster></forum>
             </site>",
        )
        .unwrap()
    }

    /// Live slot ids in ascending order: the freeze's renumbering.
    fn dense(ig: &IndexGraph) -> Vec<IdxId> {
        let mut m = vec![IdxId(u32::MAX); ig.slot_bound()];
        for (i, v) in ig.iter().enumerate() {
            m[v.index()] = IdxId(i as u32);
        }
        m
    }

    #[test]
    fn freeze_mirrors_live_index() {
        let g = doc();
        let ig = IndexGraph::from_partition(&g, &crate::k_bisim(&g, 2), |_| 2);
        let cz = CompressedIndex::freeze(&ig, None);
        let again = cz
            .clone()
            .assemble(g.node_count(), g.num_labels(), None, true);
        assert_eq!(again.expect("valid snapshot"), cz);
        assert_eq!(cz.node_count(), ig.node_count());
        let map = dense(&ig);
        // Elementwise correspondence under the monotone renumbering.
        for (fid, live) in ig.iter().enumerate() {
            let fid = IdxId(fid as u32);
            assert_eq!(cz.labels[fid.index()], ig.label(live));
            assert_eq!(cz.k[fid.index()], ig.k(live));
            assert_eq!(cz.genuine[fid.index()], ig.genuine(live));
            let mapped = |row: &[IdxId]| row.iter().map(|u| map[u.index()]).collect::<Vec<_>>();
            assert_eq!(cz.children(fid), &mapped(ig.children(live))[..]);
            assert_eq!(cz.parents(fid), &mapped(ig.parents(live))[..]);
        }
        for o in 0..g.node_count() {
            let o = NodeId(o as u32);
            let mut ext = Vec::new();
            cz.push_extent(map[ig.node_of(o).index()], &mut ext);
            assert!(ext.contains(&o));
        }
        assert_eq!(cz.root, map[ig.root_node().index()]);
        for l in 0..g.num_labels() {
            let l = LabelId(l as u32);
            let live: Vec<IdxId> = ig.nodes_with_label(l).map(|v| map[v.index()]).collect();
            assert_eq!(cz.label_nodes(l), &live[..]);
        }
        assert_eq!(cz.lemma2, ig.lemma2_safe());
        assert_eq!(cz.epoch, ig.mutation_epoch());
    }

    #[test]
    fn compress_round_trips_the_live_extents() {
        let g = doc();
        let ig = IndexGraph::from_partition(&g, &crate::k_bisim(&g, 2), |_| 2);
        let cz = CompressedIndex::freeze(&ig, None);
        for (v, live) in ig.iter().enumerate() {
            let v = IdxId(v as u32);
            assert_eq!(cz.extent_len(v), ig.extent(live).len());
            assert_eq!(IndexView::extent_first(&cz, v), ig.extent(live)[0]);
            let mut out = Vec::new();
            IndexView::push_extent(&cz, v, &mut out);
            assert_eq!(out, ig.extent(live));
        }
    }

    #[test]
    fn eval_parity_against_eval_in_place() {
        let g = doc();
        let ig = IndexGraph::from_partition(&g, &crate::k_bisim(&g, 1), |_| 1);
        let cz = CompressedIndex::freeze(&ig, None);
        let map = dense(&ig);
        let mut s1 = crate::IndexEvalScratch::new();
        let mut s2 = crate::IndexEvalScratch::new();
        for expr in ["//name/last", "//person/*", "//site/*/person", "/people"] {
            let cp = PathExpr::parse(expr).unwrap().compile(&g);
            let mut c1 = Cost::ZERO;
            let mut c2 = Cost::ZERO;
            let live: Vec<IdxId> = ig.eval_in_place(&g, &cp, &mut c1, &mut s1).to_vec();
            let froz: Vec<IdxId> = view::eval_view(&cz, &cp, &mut c2, &mut s2).to_vec();
            assert_eq!(c1, c2, "{expr}");
            // Targets correspond under the monotone renumbering.
            let mapped: Vec<IdxId> = live.iter().map(|v| map[v.index()]).collect();
            assert_eq!(mapped, froz, "{expr}");
        }
    }

    #[test]
    fn compressed_answers_match_live_answers_and_costs() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let cz = CompressedIndex::freeze(&ig, None);
        for expr in ["//person/name/last", "//name", "//name/last", "/people"] {
            let p = PathExpr::parse(expr).unwrap();
            for policy in [TrustPolicy::Proven, TrustPolicy::Claimed] {
                let a = query::answer_compiled(&ig, &g, &p.compile(&g), policy);
                let b = query::answer_compiled(&cz, &g, &p.compile(&g), policy);
                assert_eq!(a.nodes, b.nodes, "{expr}");
                assert_eq!(a.cost, b.cost, "{expr}");
                assert_eq!(a.validated, b.validated, "{expr}");
            }
        }
    }

    #[test]
    fn compressed_extents_are_smaller_on_shared_structure() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let cz = CompressedIndex::freeze(&ig, None);
        let raw = 4 * (g.node_count() + cz.node_count() + 1);
        // Tiny docs can't amortize directories, but the arena must at least
        // materialize and report its footprint.
        assert!(cz.extent_bytes() > 0);
        assert!(raw > 0);
    }
}

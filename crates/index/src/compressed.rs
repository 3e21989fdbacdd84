//! Compressed snapshots of index graphs: the memory-lean serving form.
//!
//! [`CompressedIndex`] is to [`FrozenIndex`] what a compressed posting index
//! is to an uncompressed one: same dense ids, same adjacency CSR and label
//! CSR, but the extents — the dominant arrays at scale, one `u32` per data
//! node per component — live in an encoding-adaptive
//! [`mrx_postings::PostingArena`] and are served *without decompression*
//! through its per-block bulk decoders.
//!
//! Because the shared evaluators ([`crate::view`], [`crate::query`]) touch
//! extents only through the extent surface of [`crate::IndexView`], a
//! compressed component answers every query with the identical traversal,
//! identical answers, and identical [`mrx_path::Cost`] as the live index it
//! was frozen from. [`crate::CompressedMStar`] is the hierarchy form and
//! maps directly onto the `.mrx` v5 on-disk layout, which stores neither
//! the root's node nor the [`SubnodeLinks`]: the loader derives both.

use mrx_graph::NodeId;
use mrx_postings::PostingArena;

use crate::snapshot::{ExtentStore, SnapshotIndex};
use crate::{FrozenIndex, IdxId, SubnodeLinks};

/// A snapshot component with delta-compressed extents: posting list `v`
/// of the arena is the sorted extent of node `v`. The arena itself is
/// payload-validated by [`PostingArena::from_parts`] at read time;
/// [`validate`](SnapshotIndex::validate) checks the rest.
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

    fn push_into(&self, v: usize, out: &mut Vec<NodeId>) {
        self.decode_into(v, out);
    }
}

impl CompressedIndex {
    /// Packs a frozen snapshot's extents into posting blocks; every other
    /// arena except the inverse map is copied verbatim. The links start
    /// empty ([`crate::MStarIndex::freeze_compressed`] fills them).
    pub fn from_frozen(fz: &FrozenIndex) -> CompressedIndex {
        let mut extents = PostingArena::new();
        for v in 0..fz.node_count() {
            extents.push_list(fz.extent(IdxId(v as u32)));
        }
        CompressedIndex {
            labels: fz.labels.clone(),
            k: fz.k.clone(),
            genuine: fz.genuine.clone(),
            extents,
            child_off: fz.child_off.clone(),
            child_tgt: fz.child_tgt.clone(),
            parent_off: fz.parent_off.clone(),
            parent_tgt: fz.parent_tgt.clone(),
            root: fz.root,
            links: SubnodeLinks::default(),
            by_label_off: fz.by_label_off.clone(),
            by_label_ids: fz.by_label_ids.clone(),
            lemma2: fz.lemma2,
            epoch: fz.epoch,
        }
    }

    /// Decompresses back into the raw-slice frozen form, the shape
    /// [`validate`](Self::validate) checks. The inverse map is rebuilt from
    /// the extents; a member out of range or in two extents is left for
    /// [`FrozenIndex::validate`] to report.
    pub fn to_frozen(&self) -> FrozenIndex {
        let n = self.node_count();
        let mut extent_off = Vec::with_capacity(n + 1);
        let total = (0..n).map(|v| self.extents.len_of(v)).sum();
        let mut extent_arena: Vec<NodeId> = Vec::with_capacity(total);
        extent_off.push(0u32);
        for v in 0..n {
            self.extents.decode_into(v, &mut extent_arena);
            extent_off.push(extent_arena.len() as u32);
        }
        let mut node_of_data = vec![IdxId(u32::MAX); extent_arena.len()];
        for (v, w) in extent_off.windows(2).enumerate() {
            for o in &extent_arena[w[0] as usize..w[1] as usize] {
                if let Some(slot) = node_of_data.get_mut(o.index()) {
                    *slot = IdxId(v as u32);
                }
            }
        }
        FrozenIndex {
            labels: self.labels.clone(),
            k: self.k.clone(),
            genuine: self.genuine.clone(),
            extent_off,
            extent_arena,
            child_off: self.child_off.clone(),
            child_tgt: self.child_tgt.clone(),
            parent_off: self.parent_off.clone(),
            parent_tgt: self.parent_tgt.clone(),
            node_of_data,
            root: self.root,
            by_label_off: self.by_label_off.clone(),
            by_label_ids: self.by_label_ids.clone(),
            lemma2: self.lemma2,
            epoch: self.epoch,
        }
    }

    /// Heap bytes held by the extent representation (payload, skip
    /// directory, and per-list tables) — the compressed counterpart of
    /// `extent_arena` + `extent_off`.
    pub fn extent_bytes(&self) -> usize {
        self.extents.heap_bytes()
    }

    /// Checks every structural invariant, mirroring
    /// [`FrozenIndex::validate`]; extents are walked through their cursors.
    /// Run on snapshots built from untrusted bytes before serving.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.node_count();
        if self.k.len() != n || self.genuine.len() != n {
            return Err("similarity arrays disagree with node count".into());
        }
        if self.extents.num_lists() != n {
            return Err("extent arena list count disagrees with node count".into());
        }
        // The raw-form checks cover the shared arenas (adjacency, labels,
        // root) and, via the decoded extents, exactly the §3.1 invariants:
        // partition coverage, strict ascent, no member in two extents.
        // Decoding here is the one full pass an untrusted load pays;
        // serving afterwards stays compressed.
        self.to_frozen().validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexView;
    use crate::{query, IndexGraph, TrustPolicy};
    use mrx_graph::xml::parse;
    use mrx_graph::DataGraph;
    use mrx_path::PathExpr;

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

    #[test]
    fn compress_round_trips_through_frozen() {
        let g = doc();
        let ig = IndexGraph::from_partition(&g, &crate::k_bisim(&g, 2), |_| 2);
        let fz = FrozenIndex::freeze(&ig);
        let cz = CompressedIndex::from_frozen(&fz);
        cz.validate().expect("valid compressed snapshot");
        assert_eq!(cz.to_frozen(), fz);
        for v in 0..fz.node_count() {
            let v = IdxId(v as u32);
            assert_eq!(cz.extent_len(v), fz.extent(v).len());
            assert_eq!(IndexView::extent_first(&cz, v), fz.extent(v)[0]);
            let mut out = Vec::new();
            IndexView::push_extent(&cz, v, &mut out);
            assert_eq!(out, fz.extent(v));
        }
    }

    #[test]
    fn compressed_answers_match_live_answers_and_costs() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let cz = CompressedIndex::from_frozen(&FrozenIndex::freeze(&ig));
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
        let fz = FrozenIndex::freeze(&ig);
        let cz = CompressedIndex::from_frozen(&fz);
        let raw = 4 * (fz.extent_arena.len() + fz.extent_off.len());
        // Tiny docs can't amortize directories, but the arena must at least
        // materialize and report its footprint.
        assert!(cz.extent_bytes() > 0);
        assert!(raw > 0);
    }
}

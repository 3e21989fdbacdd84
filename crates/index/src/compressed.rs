//! Compressed snapshots of index graphs: the memory-lean serving form.
//!
//! [`CompressedIndex`] is to [`FrozenIndex`] what a compressed posting index
//! is to an uncompressed one: same dense ids, same adjacency CSR and label
//! CSR, but the extents — the dominant arrays at scale, one `u32` per data
//! node per component — live in an encoding-adaptive
//! [`mrx_postings::PostingArena`] and are served *without decompression*
//! through [`ExtentCursor::Packed`] seeking cursors.
//!
//! Because the shared evaluators ([`crate::view`], [`crate::query`]) touch
//! extents only through the cursor surface of [`IndexView`], a compressed
//! component answers every query with the identical traversal, identical
//! answers, and identical [`mrx_path::Cost`] as the live index it was frozen
//! from. [`crate::CompressedMStar`] is the hierarchy form and maps directly
//! onto the `.mrx` v5 on-disk layout.

use mrx_graph::{LabelId, NodeId};
use mrx_postings::PostingArena;

use crate::view::{ExtentCursor, IndexView};
use crate::{FrozenIndex, IdxId};

/// An immutable snapshot of one index graph with delta-compressed extents.
///
/// Everything except the extents matches [`FrozenIndex`] field for field;
/// the fields are public so the store layer can serialize them verbatim.
/// Instances built from untrusted bytes must pass [`validate`] before
/// serving (the arena itself is already payload-validated by
/// [`PostingArena::from_parts`] at read time).
///
/// [`validate`]: CompressedIndex::validate
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedIndex {
    /// Label of each node.
    pub labels: Vec<LabelId>,
    /// Claimed local similarity of each node.
    pub k: Vec<u32>,
    /// Proven local similarity of each node.
    pub genuine: Vec<u32>,
    /// Extents: posting list `v` of the arena is the sorted extent of node
    /// `v`, stored as delta-varint blocks with a skip directory.
    pub extents: PostingArena,
    /// CSR offsets into [`child_tgt`](Self::child_tgt). Length `n + 1`.
    pub child_off: Vec<u32>,
    /// Child adjacency; each row sorted and deduped.
    pub child_tgt: Vec<IdxId>,
    /// CSR offsets into [`parent_tgt`](Self::parent_tgt). Length `n + 1`.
    pub parent_off: Vec<u32>,
    /// Parent adjacency; each row sorted and deduped.
    pub parent_tgt: Vec<IdxId>,
    /// Inverse extent map, length = data-graph node count.
    pub node_of_data: Vec<IdxId>,
    /// CSR offsets into [`by_label_ids`](Self::by_label_ids).
    pub by_label_off: Vec<u32>,
    /// Nodes grouped by label, ascending ids within each row.
    pub by_label_ids: Vec<IdxId>,
    /// The source's [`FrozenIndex::lemma2`].
    pub lemma2: bool,
    /// The source's [`FrozenIndex::epoch`].
    pub epoch: u64,
}

impl CompressedIndex {
    /// Packs a frozen snapshot's extents into posting blocks; every other
    /// arena is copied verbatim.
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
            node_of_data: fz.node_of_data.clone(),
            by_label_off: fz.by_label_off.clone(),
            by_label_ids: fz.by_label_ids.clone(),
            lemma2: fz.lemma2,
            epoch: fz.epoch,
        }
    }

    /// Decompresses back into the raw-slice frozen form, the shape
    /// [`validate`](Self::validate) checks.
    pub fn to_frozen(&self) -> FrozenIndex {
        let mut extent_off = Vec::with_capacity(self.node_count() + 1);
        let mut extent_arena: Vec<NodeId> = Vec::with_capacity(self.node_of_data.len());
        extent_off.push(0u32);
        for v in 0..self.node_count() {
            self.extents.decode_into(v, &mut extent_arena);
            extent_off.push(extent_arena.len() as u32);
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
            node_of_data: self.node_of_data.clone(),
            by_label_off: self.by_label_off.clone(),
            by_label_ids: self.by_label_ids.clone(),
            lemma2: self.lemma2,
            epoch: self.epoch,
        }
    }

    /// Number of index nodes (all ids dense and live).
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// The size of the label alphabet this snapshot was built over.
    pub fn num_labels(&self) -> usize {
        self.by_label_off.len() - 1
    }

    /// Sorted child nodes of `v`.
    pub fn children(&self, v: IdxId) -> &[IdxId] {
        &self.child_tgt[self.child_off[v.index()] as usize..self.child_off[v.index() + 1] as usize]
    }

    /// Sorted parent nodes of `v`.
    pub fn parents(&self, v: IdxId) -> &[IdxId] {
        &self.parent_tgt
            [self.parent_off[v.index()] as usize..self.parent_off[v.index() + 1] as usize]
    }

    /// Nodes labeled `l`, ascending.
    pub fn label_nodes(&self, l: LabelId) -> &[IdxId] {
        &self.by_label_ids
            [self.by_label_off[l.index()] as usize..self.by_label_off[l.index() + 1] as usize]
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
        // node_of_data) and, via the decoded extents, exactly the §3.1
        // invariants: partition coverage, strict ascent, inverse-map
        // agreement. Decoding here is the one full pass an untrusted load
        // pays; serving afterwards stays compressed.
        self.to_frozen().validate()
    }
}

impl IndexView for CompressedIndex {
    fn slot_bound(&self) -> usize {
        self.labels.len()
    }

    fn label(&self, v: IdxId) -> LabelId {
        self.labels[v.index()]
    }

    fn k(&self, v: IdxId) -> u32 {
        self.k[v.index()]
    }

    fn genuine(&self, v: IdxId) -> u32 {
        self.genuine[v.index()]
    }

    fn extent_len(&self, v: IdxId) -> usize {
        self.extents.len_of(v.index())
    }

    fn extent_first(&self, v: IdxId) -> NodeId {
        // Extents are never empty (they partition the data nodes); the
        // fallback keeps this total without a panic path.
        self.extents
            .first_of(v.index())
            .map(NodeId)
            .unwrap_or(NodeId(0))
    }

    fn extent_cursor(&self, v: IdxId) -> ExtentCursor<'_> {
        ExtentCursor::Packed(self.extents.cursor(v.index()))
    }

    fn for_each_extent(&self, v: IdxId, mut f: impl FnMut(NodeId)) {
        self.extents.for_each(v.index(), |o| f(NodeId(o)));
    }

    fn push_extent(&self, v: IdxId, out: &mut Vec<NodeId>) {
        self.extents.decode_into(v.index(), out);
    }

    fn parents(&self, v: IdxId) -> &[IdxId] {
        CompressedIndex::parents(self, v)
    }

    fn children(&self, v: IdxId) -> &[IdxId] {
        CompressedIndex::children(self, v)
    }

    fn node_of(&self, o: NodeId) -> IdxId {
        self.node_of_data[o.index()]
    }

    fn lemma2_safe(&self) -> bool {
        self.lemma2
    }

    fn mutation_epoch(&self) -> u64 {
        self.epoch
    }

    fn push_label_nodes(&self, l: LabelId, out: &mut Vec<IdxId>) {
        if l.index() < self.num_labels() {
            out.extend_from_slice(self.label_nodes(l));
        }
    }

    fn push_all_nodes(&self, out: &mut Vec<IdxId>) {
        out.extend((0..self.labels.len()).map(|i| IdxId(i as u32)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

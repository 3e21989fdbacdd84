//! Demand-paged snapshots of index graphs: the beyond-RAM serving form.
//!
//! [`PagedIndex`] is to [`CompressedIndex`] what a file is to a heap: same
//! dense ids, same adjacency and label CSRs, same delta-compressed extent
//! wire form — but the extent payload and the `node_of` inverse map (the
//! two structures that dominate bytes at scale) live on disk inside a
//! [`mrx_pagecache::PageCache`] region and fault in page by page as
//! queries touch them. Everything a descent probes on *every* step —
//! labels, similarities, adjacency CSRs, label buckets, extent skip
//! directories (pinned) — is resident, so the paged hierarchy answers
//! through the shared evaluators ([`crate::view`], [`crate::query`]) with
//! the identical traversal, identical answers, and identical
//! [`mrx_path::Cost`] as the live and compressed forms; only wall-clock
//! changes with cache temperature.
//!
//! # Trust and failure model
//!
//! The [`IndexView`] surface is infallible, so paged reads cannot return
//! `Result`s. Instead every integrity failure — page checksum mismatch,
//! I/O error, structurally invalid block, out-of-range id — *poisons* the
//! shared cache and the read surfaces return safe sentinels (`None`-like
//! exhaustion, node 0). Every fallible serving path checks the one fault
//! probe, [`crate::Servable::fault_cache`], after evaluating and returns
//! the typed error instead of the answer, so corruption is always caught
//! before any answer is served or cached. Deep cross-structure invariants that the
//! eager loaders verify by full decode (extents partition the data nodes;
//! `node_of` inverts them) are intentionally *not* re-proven at activation
//! — that full pass is exactly the cold-start cost this form exists to
//! avoid; per-page checksums carry the integrity burden instead, and every
//! decode still enforces the local invariants (ascent, bounds, exact
//! payload consumption).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use mrx_graph::{LabelId, NodeId};
use mrx_pagecache::{PageCache, PagedArena, PagedU32, StoreError};
use mrx_postings::{group_by_key, PostingId};

use crate::view::{ExtentCursor, IndexView};
use crate::IdxId;

/// The resident arrays of one paged component — everything except the
/// extent payload and `node_of`, which stay on disk. The store's v6 reader
/// decodes these from the checksummed meta section and hands them to
/// [`PagedIndex::assemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagedIndexParts {
    /// Label of each node.
    pub labels: Vec<LabelId>,
    /// Claimed local similarity of each node.
    pub k: Vec<u32>,
    /// Proven local similarity of each node.
    pub genuine: Vec<u32>,
    /// Child CSR offsets, length `n + 1`.
    pub child_off: Vec<u32>,
    /// Child adjacency; each row sorted strictly ascending.
    pub child_tgt: Vec<IdxId>,
    /// Parent CSR offsets, length `n + 1`.
    pub parent_off: Vec<u32>,
    /// Parent adjacency; each row sorted strictly ascending.
    pub parent_tgt: Vec<IdxId>,
    /// Per-node extent lengths (the paged arena's list lengths).
    pub extent_len: Vec<u32>,
    /// The source's `lemma2` flag.
    pub lemma2: bool,
    /// The source's mutation epoch at freeze time.
    pub epoch: u64,
}

fn check_csr(off: &[u32], tgt: &[IdxId], n: usize, what: &str) -> Result<(), String> {
    if off.len() != n + 1 || off.first() != Some(&0) {
        return Err(format!("{what} offsets malformed"));
    }
    if off.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("{what} offsets not monotone"));
    }
    if off[n] as usize != tgt.len() {
        return Err(format!("{what} offsets do not cover the targets"));
    }
    for w in off.windows(2) {
        let row = &tgt[w[0] as usize..w[1] as usize];
        if row.windows(2).any(|p| p[0] >= p[1]) {
            return Err(format!("{what} rows not strictly ascending"));
        }
        if row.last().is_some_and(|t| t.index() >= n) {
            return Err(format!("{what} target out of range"));
        }
    }
    Ok(())
}

/// An immutable snapshot of one index graph whose extents and inverse
/// extent map are demand-paged. See the module docs for what is resident
/// and what faults.
pub struct PagedIndex {
    labels: Vec<LabelId>,
    k: Vec<u32>,
    genuine: Vec<u32>,
    extents: PagedArena,
    child_off: Vec<u32>,
    child_tgt: Vec<IdxId>,
    parent_off: Vec<u32>,
    parent_tgt: Vec<IdxId>,
    node_of_data: PagedU32,
    by_label_off: Vec<u32>,
    by_label_ids: Vec<IdxId>,
    lemma2: bool,
    epoch: u64,
}

impl PagedIndex {
    /// Activates a component from its resident parts plus the two paged
    /// structures. Validates every invariant the resident arrays can
    /// witness — array shapes, CSR structure, label range, extent/`node_of`
    /// cardinality agreement — and derives the label buckets (so they are
    /// correct by construction). Costs no paged-region reads beyond the
    /// directory pages the arena already pinned.
    pub fn assemble(
        parts: PagedIndexParts,
        extents: PagedArena,
        node_of_data: PagedU32,
        num_labels: usize,
    ) -> Result<PagedIndex, String> {
        let n = parts.labels.len();
        if n == 0 {
            return Err("paged component has no nodes".into());
        }
        if parts.k.len() != n || parts.genuine.len() != n {
            return Err("similarity arrays disagree with node count".into());
        }
        if parts.extent_len.len() != n || extents.num_lists() != n {
            return Err("extent arena list count disagrees with node count".into());
        }
        let mut covered: u64 = 0;
        for (v, &len) in parts.extent_len.iter().enumerate() {
            if len == 0 {
                return Err(format!("node {v} has an empty extent"));
            }
            if extents.len_of(v) != len as usize {
                return Err(format!("node {v} extent length disagrees with the arena"));
            }
            covered += u64::from(len);
        }
        // Necessary (not sufficient) partition condition checkable without
        // touching the payload: extent cardinalities cover every data node
        // exactly once, and decode-time bounds keep members inside them.
        if covered != u64::from(node_of_data.len()) {
            return Err(format!(
                "extents cover {covered} data nodes, inverse map has {}",
                node_of_data.len()
            ));
        }
        if extents.universe() != node_of_data.len() {
            return Err("extent universe disagrees with the data node count".into());
        }
        check_csr(&parts.child_off, &parts.child_tgt, n, "child CSR")?;
        check_csr(&parts.parent_off, &parts.parent_tgt, n, "parent CSR")?;
        if parts.labels.iter().any(|l| l.index() >= num_labels) {
            return Err("node label out of range".into());
        }
        let (by_label_off, raw_ids) =
            group_by_key(n, num_labels, |i| parts.labels[i].index() as u32);
        let by_label_ids = raw_ids.into_iter().map(IdxId).collect();
        Ok(PagedIndex {
            labels: parts.labels,
            k: parts.k,
            genuine: parts.genuine,
            extents,
            child_off: parts.child_off,
            child_tgt: parts.child_tgt,
            parent_off: parts.parent_off,
            parent_tgt: parts.parent_tgt,
            node_of_data,
            by_label_off,
            by_label_ids,
            lemma2: parts.lemma2,
            epoch: parts.epoch,
        })
    }

    /// Number of index nodes (all ids dense and live).
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// The size of the label alphabet this snapshot was built over.
    pub fn num_labels(&self) -> usize {
        self.by_label_off.len() - 1
    }

    /// The paged arena backing the extents (shares its cache with
    /// `node_of`).
    pub fn extent_arena(&self) -> &PagedArena {
        &self.extents
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
}

impl IndexView for PagedIndex {
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
        // One pinned-directory read; the fallback keeps this total
        // without a panic path (extents are validated non-empty).
        self.extents
            .first_of(v.index())
            .map(NodeId)
            .unwrap_or(NodeId(0))
    }

    fn extent_cursor(&self, v: IdxId) -> ExtentCursor<'_> {
        ExtentCursor::Paged(self.extents.cursor(v.index()))
    }

    fn for_each_extent(&self, v: IdxId, mut f: impl FnMut(NodeId)) {
        self.extents.for_each(v.index(), |o| f(NodeId(o)));
    }

    fn push_extent(&self, v: IdxId, out: &mut Vec<NodeId>) {
        out.reserve(self.extents.len_of(v.index()));
        self.extents.for_each(v.index(), |o| out.push(NodeId(o)));
    }

    fn parents(&self, v: IdxId) -> &[IdxId] {
        PagedIndex::parents(self, v)
    }

    fn children(&self, v: IdxId) -> &[IdxId] {
        PagedIndex::children(self, v)
    }

    fn node_of(&self, o: NodeId) -> IdxId {
        let raw = self.node_of_data.get(o.to_u32());
        if raw as usize >= self.labels.len() {
            // Either the backing page failed (already poisoned, raw == 0
            // only if n == 0, which `assemble` rejects) or the stored map
            // points outside the component: record it and return a safe
            // sentinel — the owning query surfaces the poison, never this
            // placeholder.
            self.extents.cache().poison(StoreError::Format(format!(
                "paged node_of maps data node {} outside the component",
                o.to_u32()
            )));
            return IdxId(0);
        }
        IdxId(raw)
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

    fn page_cache(&self) -> Option<&PageCache> {
        Some(self.extents.cache())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{query, CompressedIndex, FrozenIndex, IndexGraph, MStarIndex, PagedMStar};
    use crate::{QueryScratch, TrustPolicy};
    use mrx_graph::xml::parse;
    use mrx_graph::DataGraph;
    use mrx_pagecache::{ArenaLayout, PageCache};
    use mrx_path::PathExpr;
    use std::rc::Rc;

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

    /// Serializes a compressed component into an in-memory paged region
    /// (extent payload + directories + node_of) and activates a
    /// [`PagedIndex`] over it — the same shape the store's v6 reader
    /// builds, minus the file.
    fn paged_of(cz: &CompressedIndex, page_size: u32, budget: u64) -> (Rc<PageCache>, PagedIndex) {
        let (data, bf, bo, ll) = cz.extents.parts();
        let mut region = data.to_vec();
        let bf_off = region.len() as u64;
        for v in bf {
            region.extend_from_slice(&v.to_le_bytes());
        }
        let bo_off = region.len() as u64;
        for v in bo {
            region.extend_from_slice(&v.to_le_bytes());
        }
        let node_of_off = region.len() as u64;
        for v in &cz.node_of_data {
            region.extend_from_slice(&v.to_u32().to_le_bytes());
        }
        let layout = ArenaLayout {
            data_off: 0,
            data_len: data.len() as u64,
            block_first_off: bf_off,
            block_off_off: bo_off,
            nblocks: bf.len() as u32,
        };
        let cache = PageCache::over_bytes(region, page_size, budget).unwrap();
        let universe = cz.node_of_data.len() as u32;
        let extents = PagedArena::new(cache.clone(), layout, ll.to_vec(), universe).unwrap();
        let node_of = PagedU32::new(cache.clone(), node_of_off, universe).unwrap();
        let parts = PagedIndexParts {
            labels: cz.labels.clone(),
            k: cz.k.clone(),
            genuine: cz.genuine.clone(),
            child_off: cz.child_off.clone(),
            child_tgt: cz.child_tgt.clone(),
            parent_off: cz.parent_off.clone(),
            parent_tgt: cz.parent_tgt.clone(),
            extent_len: (0..cz.node_count())
                .map(|v| cz.extents.len_of(v) as u32)
                .collect(),
            lemma2: cz.lemma2,
            epoch: cz.epoch,
        };
        let paged = PagedIndex::assemble(parts, extents, node_of, cz.num_labels())
            .expect("valid paged component");
        (cache, paged)
    }

    #[test]
    fn paged_answers_match_compressed_answers_and_costs() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let fz = FrozenIndex::freeze(&ig);
        let cz = CompressedIndex::from_frozen(&fz);
        // Tiny pages + tiny budget: every structure straddles seams and
        // faults repeatedly mid-query.
        let (cache, paged) = paged_of(&cz, 64, 4 * 64);
        for expr in ["//person/name/last", "//name", "//name/last", "/people"] {
            let p = PathExpr::parse(expr).unwrap();
            for policy in [TrustPolicy::Proven, TrustPolicy::Claimed] {
                let a = query::answer_compiled(&cz, &g, &p.compile(&g), policy);
                let b = query::answer_compiled(&paged, &g, &p.compile(&g), policy);
                assert_eq!(a.nodes, b.nodes, "{expr}");
                assert_eq!(a.cost, b.cost, "{expr}");
                assert_eq!(a.validated, b.validated, "{expr}");
            }
        }
        assert!(!cache.poisoned());
    }

    #[test]
    fn paged_mstar_matches_compressed_top_down() {
        let g = doc();
        let mut idx = MStarIndex::new(&g);
        idx.refine_for(&g, &PathExpr::parse("//person/name/last").unwrap());
        let cz = idx.freeze_compressed();
        let mut caches = Vec::new();
        let mut comps = Vec::new();
        for c in &cz.components {
            let (cache, p) = paged_of(c, 64, 6 * 64);
            caches.push(cache);
            comps.push(p);
        }
        let paged = PagedMStar {
            components: comps,
            epoch: cz.epoch,
        };
        assert_eq!(paged.mutation_epoch(), cz.mutation_epoch());
        let mut s1 = QueryScratch::new();
        let mut s2 = QueryScratch::new();
        for expr in [
            "//person/name/last",
            "//name/last",
            "//poster/name",
            "//name",
            "/people/person",
        ] {
            let cp = PathExpr::parse(expr).unwrap().compile(&g);
            for policy in [TrustPolicy::Proven, TrustPolicy::Claimed] {
                let a = cz.query_top_down_with_scratch(&g, &cp, policy, &mut s1);
                let b = paged.query_top_down_with_scratch(&g, &cp, policy, &mut s2);
                assert_eq!(a.nodes, b.nodes, "{expr}");
                assert_eq!(a.cost, b.cost, "{expr}");
                assert_eq!(a.validated, b.validated, "{expr}");
            }
        }
        assert!(caches.iter().all(|c| !c.poisoned()));
    }

    #[test]
    fn assemble_rejects_cardinality_lies() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let cz = CompressedIndex::from_frozen(&FrozenIndex::freeze(&ig));
        let (data, bf, bo, ll) = cz.extents.parts();
        let mut region = data.to_vec();
        let bf_off = region.len() as u64;
        for v in bf {
            region.extend_from_slice(&v.to_le_bytes());
        }
        let bo_off = region.len() as u64;
        for v in bo {
            region.extend_from_slice(&v.to_le_bytes());
        }
        let node_of_off = region.len() as u64;
        for v in &cz.node_of_data {
            region.extend_from_slice(&v.to_u32().to_le_bytes());
        }
        let layout = ArenaLayout {
            data_off: 0,
            data_len: data.len() as u64,
            block_first_off: bf_off,
            block_off_off: bo_off,
            nblocks: bf.len() as u32,
        };
        let cache = PageCache::over_bytes(region, 64, u64::MAX).unwrap();
        let universe = cz.node_of_data.len() as u32;
        let extents = PagedArena::new(cache.clone(), layout, ll.to_vec(), universe).unwrap();
        // Claim one fewer data node than the extents cover.
        let node_of = PagedU32::new(cache, node_of_off, universe - 1).unwrap();
        let parts = PagedIndexParts {
            labels: cz.labels.clone(),
            k: cz.k.clone(),
            genuine: cz.genuine.clone(),
            child_off: cz.child_off.clone(),
            child_tgt: cz.child_tgt.clone(),
            parent_off: cz.parent_off.clone(),
            parent_tgt: cz.parent_tgt.clone(),
            extent_len: (0..cz.node_count())
                .map(|v| cz.extents.len_of(v) as u32)
                .collect(),
            lemma2: cz.lemma2,
            epoch: cz.epoch,
        };
        assert!(PagedIndex::assemble(parts, extents, node_of, cz.num_labels()).is_err());
    }
}

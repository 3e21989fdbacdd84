//! Demand-paged snapshots of index graphs: the beyond-RAM serving form.
//!
//! [`PagedIndex`] is to [`crate::CompressedIndex`] what a file is to a
//! heap: the same [`SnapshotIndex`] — same dense ids, same adjacency and
//! label CSRs, same delta-compressed extent wire form — but the extent
//! payload (the one structure that dominates bytes at scale) lives on
//! disk inside a
//! [`mrx_pagecache::PageCache`] region and faults in page by page as
//! queries touch it. Everything a descent probes on *every* step —
//! labels, similarities, adjacency CSRs, subnode links, label buckets,
//! extent skip directories (pinned) — is resident, so the paged hierarchy
//! answers through the shared evaluators ([`crate::view`],
//! [`crate::query`]) with the identical traversal, identical answers, and
//! identical [`mrx_path::Cost`] as the live and compressed forms; only
//! wall-clock changes with cache temperature.
//!
//! # Trust and failure model
//!
//! The [`crate::IndexView`] surface is infallible, so paged reads cannot return
//! `Result`s. Instead every integrity failure — page checksum mismatch,
//! I/O error, structurally invalid block, out-of-range id — *poisons* the
//! shared cache and the read surfaces return safe sentinels (`None`-like
//! exhaustion, node 0). Every fallible serving path checks the one fault
//! probe, [`crate::Servable::fault_cache`], after evaluating and returns
//! the typed error instead of the answer, so corruption is always caught
//! before any answer is served or cached. The resident arrays are checked
//! whole at activation, the subnode links included (they must form a
//! tree: the paged form never degrades, so no component is ever rebuilt
//! into a partition that overlaps its neighbours). The deep extent
//! invariant that the eager loader verifies by full decode — extents
//! partition the data nodes — is intentionally *not* re-proven at
//! activation: that full pass is exactly the cold-start cost this form
//! exists to avoid; per-page checksums carry the integrity burden
//! instead, and every decode still enforces the local invariants (ascent,
//! bounds, exact payload consumption).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use mrx_pagecache::{PageCache, PagedArena};
use mrx_postings::group_by_key;

use crate::frozen::check_adjacency;
use crate::snapshot::{ExtentStore, SnapshotIndex};
use crate::IdxId;

/// A snapshot component whose extents are demand-paged. See the module
/// docs for what is resident and what faults.
pub type PagedIndex = SnapshotIndex<PagedArena>;

impl ExtentStore for PagedArena {
    fn len_of(&self, v: usize) -> usize {
        PagedArena::len_of(self, v)
    }

    fn first_of(&self, v: usize) -> Option<u32> {
        // One pinned-directory read.
        PagedArena::first_of(self, v)
    }

    fn for_each(&self, v: usize, f: impl FnMut(u32)) {
        PagedArena::for_each(self, v, f)
    }

    fn page_cache(&self) -> Option<&PageCache> {
        Some(self.cache())
    }
}

impl PagedIndex {
    /// Assembles a component read from its meta section for serving: its
    /// label buckets arrive empty, and its arena's universe is the data
    /// node count. `coarse` is the node count of the next-coarser component
    /// (`None` for `I0`). Validates every invariant the resident arrays
    /// can witness — array shapes, CSR structure, label and root range,
    /// extent cardinalities against the universe, subnode links forming a
    /// tree — and derives the label buckets (so they are correct by
    /// construction). Costs no paged-region reads beyond the directory
    /// pages the arena already pinned.
    pub fn assemble(
        mut self,
        num_labels: usize,
        coarse: Option<usize>,
    ) -> Result<PagedIndex, String> {
        let n = self.labels.len();
        if n == 0 {
            return Err("paged component has no nodes".into());
        }
        if self.k.len() != n || self.genuine.len() != n {
            return Err("similarity arrays disagree with node count".into());
        }
        if self.extents.num_lists() != n {
            return Err("extent arena list count disagrees with node count".into());
        }
        let mut covered: u64 = 0;
        for v in 0..n {
            let len = self.extents.len_of(v);
            if len == 0 {
                return Err(format!("node {v} has an empty extent"));
            }
            covered += len as u64;
        }
        // Necessary (not sufficient) partition condition checkable without
        // touching the payload: extent cardinalities cover every data node
        // exactly once, and decode-time bounds keep members inside them.
        let universe = self.extents.universe();
        if covered != u64::from(universe) {
            return Err(format!("extents cover {covered} of {universe} data nodes"));
        }
        check_adjacency("child", &self.child_off, &self.child_tgt, n)?;
        check_adjacency("parent", &self.parent_off, &self.parent_tgt, n)?;
        if self.labels.iter().any(|l| l.index() >= num_labels) {
            return Err("node label out of range".into());
        }
        if self.root.index() >= n {
            return Err("root node out of range".into());
        }
        self.links.check(coarse, n, true)?;
        let (off, ids) = group_by_key(n, num_labels, |i| self.labels[i].index() as u32);
        self.by_label_off = off;
        self.by_label_ids = ids.into_iter().map(IdxId).collect();
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{query, CompressedIndex, FrozenIndex, IndexGraph, MStarIndex, PagedMStar};
    use crate::{QueryScratch, TrustPolicy};
    use mrx_graph::xml::parse;
    use mrx_graph::DataGraph;
    use mrx_pagecache::ArenaLayout;
    use mrx_path::PathExpr;
    use std::sync::Arc;

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

    /// Serializes a compressed component's extents (payload + directories)
    /// into an in-memory paged region and returns the cache plus the
    /// unassembled component over it — the same shape the store's paged
    /// reader builds, minus the file.
    fn paged_parts(
        cz: &CompressedIndex,
        page_size: u32,
        budget: u64,
    ) -> (Arc<PageCache>, PagedIndex) {
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
        let layout = ArenaLayout {
            data_off: 0,
            data_len: data.len() as u64,
            block_first_off: bf_off,
            block_off_off: bo_off,
            nblocks: bf.len() as u32,
        };
        let cache = PageCache::over_bytes(region, page_size, budget).unwrap();
        let universe = ll.iter().sum::<u32>();
        let extents = PagedArena::new(cache.clone(), layout, ll.to_vec(), universe).unwrap();
        let paged = PagedIndex {
            labels: cz.labels.clone(),
            k: cz.k.clone(),
            genuine: cz.genuine.clone(),
            extents,
            child_off: cz.child_off.clone(),
            child_tgt: cz.child_tgt.clone(),
            parent_off: cz.parent_off.clone(),
            parent_tgt: cz.parent_tgt.clone(),
            root: cz.root,
            links: cz.links.clone(),
            by_label_off: Vec::new(),
            by_label_ids: Vec::new(),
            lemma2: cz.lemma2,
            epoch: cz.epoch,
        };
        (cache, paged)
    }

    /// Assembles `cz` as a [`PagedIndex`] whose coarser neighbour has
    /// `coarse` nodes.
    fn paged_of(
        cz: &CompressedIndex,
        coarse: Option<usize>,
        page_size: u32,
        budget: u64,
    ) -> (Arc<PageCache>, PagedIndex) {
        let (cache, paged) = paged_parts(cz, page_size, budget);
        let paged = paged
            .assemble(cz.num_labels(), coarse)
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
        let (cache, paged) = paged_of(&cz, None, 64, 4 * 64);
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
        for (i, c) in cz.components.iter().enumerate() {
            let coarse = i.checked_sub(1).map(|j| cz.components[j].node_count());
            let (cache, p) = paged_of(c, coarse, 64, 6 * 64);
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
        let mut idx = MStarIndex::new(&g);
        idx.refine_for(&g, &PathExpr::parse("//person/name/last").unwrap());
        let cz = idx.freeze_compressed();
        let (coarse, fine) = (&cz.components[0], &cz.components[1]);
        let m = Some(coarse.node_count());
        let lie = |f: &dyn Fn(&mut PagedIndex), coarse: Option<usize>| {
            let (_, mut paged) = paged_parts(fine, 64, u64::MAX);
            f(&mut paged);
            paged.assemble(fine.num_labels(), coarse).map(|_| ())
        };
        assert!(lie(&|_| {}, m).is_ok());
        assert!(lie(&|p| p.k.truncate(0), m).is_err());
        assert!(lie(&|p| p.child_off[1] = u32::MAX, m).is_err());
        assert!(lie(&|p| p.root = IdxId(fine.node_count() as u32), m).is_err());
        // Links of the wrong shape: an I0 with rows, rows for the wrong
        // coarse count, an id out of range, a node under two supernodes.
        assert!(lie(&|_| {}, None).is_err());
        assert!(lie(&|_| {}, Some(coarse.node_count() + 1)).is_err());
        let n = fine.node_count() as u32;
        assert!(lie(&|p| p.links.tgt[0] = IdxId(n), m).is_err());
        assert!(lie(&|p| p.links.tgt[1] = p.links.tgt[0], m).is_err());
    }
}

//! Immutable M*(k) hierarchies, their components, and the one top-down
//! query implementation every M*(k) serving form shares.
//!
//! A [`SnapshotIndex`] is one frozen component — dense ids, flat arrays —
//! generic over where its extents live ([`ExtentStore`]): compressed
//! posting blocks in memory ([`CompressedIndex`], the `.mrx` v5 serving
//! form) or the same blocks behind a page cache ([`PagedIndex`], the v9
//! serving form). [`MStarSnapshot`] holds one component per resolution.
//! QUERYTOPDOWN (§4.1) is written once, in `top_down_governed`, and
//! monomorphized over the representation and the [`Governor`]: the live
//! [`MStarIndex`] and both snapshot forms run the same code, budgeted or
//! not, so answers and [`Cost`] cannot drift between them. A snapshot is
//! served through [`crate::QuerySession`] alone, over
//! [`crate::Servable::eval`].
//!
//! Components are built straight from the live index
//! ([`CompressedIndex::freeze`]) and written by the store; a component
//! read back from bytes of either layout passes one check,
//! [`SnapshotIndex::assemble`], before it serves.
//!
//! Each snapshot component `Ii` (`i ≥ 1`) stores the §4 cross-component
//! links from `I(i−1)` into itself as a [`SubnodeLinks`] CSR, so a step
//! down reads one row instead of mapping a coarse extent through a
//! data-sized `node_of` map — only the live [`crate::IndexGraph`] keeps
//! that map, because refinement needs it.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use mrx_graph::{GraphView, LabelId, NodeId};
use mrx_pagecache::PageCache;
use mrx_path::{CompiledPath, Cost, Governor};

use crate::compressed::CompressedIndex;
use crate::paged::PagedIndex;
use crate::query::{self, Answer, QueryScratch, TrustPolicy};
use crate::view::{self, IndexView};
use crate::{IdxId, MStarIndex};

/// Where a snapshot component keeps its extents; list `v` is node `v`'s
/// sorted extent.
pub trait ExtentStore {
    /// Length of list `v`.
    fn len_of(&self, v: usize) -> usize;
    /// First (minimum) id of list `v`.
    fn first_of(&self, v: usize) -> Option<u32>;
    /// Calls `f` with every id of list `v`, ascending.
    fn for_each(&self, v: usize, f: impl FnMut(u32));
    /// Number of lists.
    fn num_lists(&self) -> usize;
    /// Appends list `v` to `out`.
    fn push_into(&self, v: usize, out: &mut Vec<NodeId>) {
        out.reserve(self.len_of(v));
        self.for_each(v, |o| out.push(NodeId(o)));
    }
    /// The page cache reads fault through (see [`IndexView::page_cache`]).
    fn page_cache(&self) -> Option<&PageCache> {
        None
    }
}

/// One immutable snapshot component with its extents in `E`.
///
/// Ids are dense: [`CompressedIndex::freeze`] renumbers the live slots
/// in ascending order. The fields are public so the store can write and
/// read them verbatim. Instead of the live inverse extent map, a
/// component carries the node holding the data root and its
/// [`SubnodeLinks`]. Instances built from untrusted bytes must pass
/// [`assemble`](Self::assemble) before serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotIndex<E> {
    /// Label of each node.
    pub labels: Vec<LabelId>,
    /// Claimed local similarity of each node.
    pub k: Vec<u32>,
    /// Proven local similarity of each node.
    pub genuine: Vec<u32>,
    /// The extents, one list per node.
    pub extents: E,
    /// CSR offsets into [`child_tgt`](Self::child_tgt). Length `n + 1`.
    pub child_off: Vec<u32>,
    /// Child adjacency; each row sorted and deduped.
    pub child_tgt: Vec<IdxId>,
    /// CSR offsets into [`parent_tgt`](Self::parent_tgt). Length `n + 1`.
    pub parent_off: Vec<u32>,
    /// Parent adjacency; each row sorted and deduped.
    pub parent_tgt: Vec<IdxId>,
    /// The node whose extent contains the data graph's root.
    pub root: IdxId,
    /// The subnodes of every node of the next-coarser component (empty
    /// for `I0` and for a component frozen on its own).
    pub links: SubnodeLinks,
    /// CSR offsets into [`by_label_ids`](Self::by_label_ids).
    pub by_label_off: Vec<u32>,
    /// Nodes grouped by label, ascending ids within each row.
    pub by_label_ids: Vec<IdxId>,
    /// Whether the links nest ([`IndexView::nests`]): set by
    /// [`assemble`](Self::assemble) and by a freeze of the live index;
    /// like the label buckets, no layout stores it.
    pub nests: bool,
    /// The live graph's [`crate::IndexGraph::lemma2_safe`] at freeze time.
    pub lemma2: bool,
    /// The live graph's [`crate::IndexGraph::mutation_epoch`] at freeze
    /// time.
    pub epoch: u64,
}

impl<E> SnapshotIndex<E> {
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
}

impl<E: ExtentStore> SnapshotIndex<E> {
    /// The one check a component read from outside passes before it
    /// serves, whichever layout it came from, and the step that derives
    /// its label buckets and nesting flag (no layout stores them, so they
    /// are correct by construction) and, when both parent arrays are left
    /// empty, its parent rows as the transpose of its child rows.
    /// `data_nodes` is the data graph's node count, `num_labels` its
    /// alphabet size, and `coarse` the next-coarser component, already
    /// assembled (`None` for `I0`).
    ///
    /// Checks every invariant the resident arrays witness: similarity
    /// array lengths, one extent list per node, no empty extent, extent
    /// cardinalities summing to the data nodes, child and parent CSR
    /// structure with stored parent rows the transpose of the child rows,
    /// label and root range, and the subnode links — forming a tree when
    /// `tree` is set. A tree must also nest: each coarse node's
    /// extent has as many members as its subnodes' together, and the same
    /// least member. Without `tree` the links need not form one, and the
    /// component [nests](IndexView::nests) only if they do: the v5 loader
    /// derives its rows from the extents it reads, so a node in one row
    /// has its extent inside that row's supernode, but a lenient A(i)
    /// rebuild or a hand-made file need not nest. Extent members are not
    /// decoded: the v5 loader proves the partition by inverting its
    /// extents (`link_component` in the store), and the paged layout
    /// leaves members to its per-page checksums and decode-time bounds.
    pub fn assemble(
        mut self,
        data_nodes: usize,
        num_labels: usize,
        coarse: Option<&Self>,
        tree: bool,
    ) -> Result<Self, String> {
        let n = self.labels.len();
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
        if covered != data_nodes as u64 {
            return Err(format!(
                "extents cover {covered} of {data_nodes} data nodes"
            ));
        }
        check_adjacency("child", &self.child_off, &self.child_tgt, n)?;
        if self.parent_off.is_empty() && self.parent_tgt.is_empty() {
            // A layout that stores one direction: the other is its transpose.
            (self.parent_off, self.parent_tgt) =
                mrx_postings::transpose(&self.child_off, &self.child_tgt, n);
        } else {
            check_adjacency("parent", &self.parent_off, &self.parent_tgt, n)?;
            if !mrx_postings::is_transpose(
                &self.child_off,
                &self.child_tgt,
                &self.parent_off,
                &self.parent_tgt,
            ) {
                return Err("parent rows are not the transpose of the child rows".into());
            }
        }
        if self.labels.iter().any(|l| l.index() >= num_labels) {
            return Err("node label out of range".into());
        }
        if self.root.index() >= n {
            return Err("root node out of range".into());
        }
        let coarse_n = coarse.map(SnapshotIndex::node_count);
        self.links.check(coarse_n, n, tree)?;
        if let (Some(coarse), true) = (coarse, tree) {
            self.check_nesting(coarse)?;
        }
        self.nests = tree || self.links.check(coarse_n, n, true).is_ok();
        self.derive_by_label(num_labels);
        Ok(self)
    }

    /// Each row of checked tree links against the coarse extent it splits:
    /// the subnodes' extents hold as many members as the supernode's, and
    /// the least of their first members is the supernode's first member.
    fn check_nesting(&self, coarse: &Self) -> Result<(), String> {
        for u in 0..coarse.node_count() {
            let (mut len, mut first) = (0usize, u32::MAX);
            for s in self.links.row(IdxId(u as u32)) {
                len += self.extents.len_of(s.index());
                first = first.min(self.extents.first_of(s.index()).unwrap_or(u32::MAX));
            }
            if len != coarse.extents.len_of(u) || Some(first) != coarse.extents.first_of(u) {
                return Err(format!(
                    "the subnodes of coarse node {u} do not split its extent"
                ));
            }
        }
        Ok(())
    }

    /// Rebuilds the label buckets from `labels` (every label below
    /// `num_labels`) by one counting pass.
    pub(crate) fn derive_by_label(&mut self, num_labels: usize) {
        let (off, ids) = mrx_postings::group_by_key(self.labels.len(), num_labels, |i| {
            self.labels[i].index() as u32
        });
        self.by_label_off = off;
        self.by_label_ids = ids.into_iter().map(IdxId).collect();
    }
}

/// Checks CSR offsets: `rows + 1` monotone entries spanning the arena.
fn check_csr(what: &str, off: &[u32], arena_len: usize, rows: usize) -> Result<(), String> {
    if off.len() != rows + 1 {
        return Err(format!("{what} offsets have wrong length"));
    }
    if off[0] != 0 || off[rows] as usize != arena_len {
        return Err(format!("{what} offsets do not span the arena"));
    }
    if !off.windows(2).all(|w| w[0] <= w[1]) {
        return Err(format!("{what} offsets not monotone"));
    }
    Ok(())
}

/// Checks an adjacency CSR over `n` nodes: offsets as in [`check_csr`],
/// every row strictly ascending, every target in range.
fn check_adjacency(what: &str, off: &[u32], tgt: &[IdxId], n: usize) -> Result<(), String> {
    check_csr(what, off, tgt.len(), n)?;
    for w in off.windows(2) {
        let row = &tgt[w[0] as usize..w[1] as usize];
        if row.windows(2).any(|p| p[0] >= p[1]) {
            return Err(format!("{what} row not strictly ascending"));
        }
        if row.last().is_some_and(|t| t.index() >= n) {
            return Err(format!("{what} target out of range"));
        }
    }
    Ok(())
}

impl<E: ExtentStore> IndexView for SnapshotIndex<E> {
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

    fn for_each_extent(&self, v: IdxId, mut f: impl FnMut(NodeId)) {
        self.extents.for_each(v.index(), |o| f(NodeId(o)));
    }

    fn push_extent(&self, v: IdxId, out: &mut Vec<NodeId>) {
        self.extents.push_into(v.index(), out);
    }

    fn parents(&self, v: IdxId) -> &[IdxId] {
        SnapshotIndex::parents(self, v)
    }

    fn children(&self, v: IdxId) -> &[IdxId] {
        SnapshotIndex::children(self, v)
    }

    fn root_node(&self) -> IdxId {
        self.root
    }

    fn for_each_subnode(&self, _coarse: &Self, u: IdxId, mut f: impl FnMut(IdxId)) {
        for &s in self.links.row(u) {
            f(s);
        }
    }

    fn lemma2_safe(&self) -> bool {
        self.lemma2
    }

    fn nests(&self) -> bool {
        self.nests
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
        self.extents.page_cache()
    }
}

/// The subnode links a snapshot component `Ii` carries: row `u` lists the
/// subnodes in `Ii` of node `u` of `I(i−1)`, exactly
/// [`MStarIndex::subnodes`]`(i − 1, u)` — distinct, in first-occurrence
/// order over `u`'s extent. `I0` has no rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubnodeLinks {
    /// CSR offsets into [`tgt`](Self::tgt): one row per node of `I(i−1)`,
    /// plus one. Empty for `I0`.
    pub off: Vec<u32>,
    /// Subnode ids in `Ii`, row after row.
    pub tgt: Vec<IdxId>,
}

impl SubnodeLinks {
    /// The rows for `coarse`'s nodes into a component of `n` nodes whose
    /// inverse extent map is `node_of`: row `u` holds the distinct
    /// `node_of` images of `u`'s extent in first-occurrence order, which
    /// is [`MStarIndex::subnodes`] by definition. Every coarse extent
    /// member must index `node_of`.
    pub fn derive(coarse: &CompressedIndex, node_of: &[IdxId], n: usize) -> SubnodeLinks {
        let mut links = SubnodeLinks {
            off: Vec::with_capacity(coarse.node_count() + 1),
            // Rows that nest hold each node once; only overlap grows this.
            tgt: Vec::with_capacity(n),
        };
        let mut stamp = vec![u32::MAX; n];
        links.off.push(0);
        for u in 0..coarse.node_count() {
            coarse.extents.for_each(u, |o| {
                let s = node_of[o as usize];
                if stamp[s.index()] != u as u32 {
                    stamp[s.index()] = u as u32;
                    links.tgt.push(s);
                }
            });
            links.off.push(links.tgt.len() as u32);
        }
        links
    }

    /// For each of the component's `n` nodes, its supernode when it is
    /// that supernode's only subnode, else `None`. Such a node is a §4
    /// duplicate: its extent is its supernode's. Total on unchecked links:
    /// a malformed row or an id out of range is skipped.
    pub fn sole_supernodes(&self, n: usize) -> Vec<Option<IdxId>> {
        let mut sole = vec![None; n];
        for (u, w) in self.off.windows(2).enumerate() {
            if let Some(&[s]) = self.tgt.get(w[0] as usize..w[1] as usize) {
                if let Some(slot) = sole.get_mut(s.index()) {
                    *slot = Some(IdxId(u as u32));
                }
            }
        }
        sole
    }

    /// The subnodes of coarse node `u`.
    #[inline]
    pub fn row(&self, u: IdxId) -> &[IdxId] {
        &self.tgt[self.off[u.index()] as usize..self.off[u.index() + 1] as usize]
    }

    /// Checks the rows of a component with `n` nodes whose coarser
    /// neighbour has `coarse` nodes (`None` for `I0`, which has none):
    /// offsets well formed, ids in range, every node in some row, and —
    /// when `tree` — in exactly one.
    pub fn check(&self, coarse: Option<usize>, n: usize, tree: bool) -> Result<(), String> {
        let Some(m) = coarse else {
            return match self.off.is_empty() && self.tgt.is_empty() {
                true => Ok(()),
                false => Err("I0 carries subnode links".into()),
            };
        };
        check_csr("subnode link", &self.off, self.tgt.len(), m)?;
        let mut seen = vec![false; n];
        for t in &self.tgt {
            let s = seen
                .get_mut(t.index())
                .ok_or_else(|| format!("subnode link {} out of range", t.0))?;
            if *s && tree {
                return Err(format!("node {} has two supernodes", t.0));
            }
            *s = true;
        }
        match seen.iter().position(|s| !s) {
            Some(v) => Err(format!("node {v} has no supernode")),
            None => Ok(()),
        }
    }
}

/// An immutable M*(k) hierarchy: every component `Ii` in representation
/// `I`, plus the source index's combined mutation epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MStarSnapshot<I> {
    /// `components[i]` is `Ii`. A demand-paged file may hold only an
    /// activated prefix.
    pub components: Vec<I>,
    /// [`MStarIndex::mutation_epoch`] at freeze time — the full
    /// hierarchy's, even when only a prefix is activated, so answer caches
    /// keyed on it stay warm across representations.
    pub epoch: u64,
}

/// The in-memory serving form: extents in compressed posting blocks.
pub type CompressedMStar = MStarSnapshot<CompressedIndex>;

/// The beyond-RAM serving form: extents paged in through one shared page
/// cache.
pub type PagedMStar = MStarSnapshot<PagedIndex>;

/// QUERYTOPDOWN (§4.1) over any component hierarchy: evaluate the
/// length-`i` prefix in `Ii`, descending one component per step, then
/// validate in the component the descent ended in. Root-anchored paths
/// always validate, so they run the single-graph algorithm in
/// `I(length)`. Budget trips return the governor's error with the
/// partial cost.
pub(crate) fn top_down_governed<I: IndexView, G: GraphView, B: Governor>(
    components: &[I],
    g: &G,
    cp: &CompiledPath,
    policy: TrustPolicy,
    scratch: &mut QueryScratch,
    budget: &mut B,
) -> Result<Answer, (B::Err, Cost)> {
    if cp.anchored {
        let level = cp.length().min(components.len() - 1);
        return query::answer_governed(&components[level], g, cp, policy, scratch, budget);
    }
    let (level, cost) = view::top_down_walk(components, cp, &mut scratch.eval, budget)?;
    view::finish_answer_view_governed(
        &components[level],
        g,
        cp,
        scratch.eval.targets(),
        cost,
        policy,
        &mut scratch.memo,
        budget,
    )
}

impl<I: IndexView> MStarSnapshot<I> {
    /// The finest component's resolution.
    pub fn max_k(&self) -> usize {
        self.components.len() - 1
    }

    /// Read access to component `Ii`.
    pub fn component(&self, i: usize) -> &I {
        &self.components[i]
    }

    /// The source index's combined mutation epoch at freeze time.
    pub fn mutation_epoch(&self) -> u64 {
        self.epoch
    }
}

impl<E> MStarSnapshot<SnapshotIndex<E>> {
    /// The distinct extent lists of the hierarchy: every node's but a sole
    /// subnode's, which shares its supernode's list. This is paper §4's
    /// stored node count, [`MStarIndex::node_count`], and the number of
    /// lists the paged layout writes.
    pub fn distinct_extents(&self) -> usize {
        self.components
            .iter()
            .map(|c| {
                let n = c.node_count();
                n - c.links.sole_supernodes(n).iter().flatten().count()
            })
            .sum()
    }
}

impl MStarIndex {
    /// Freezes every component into the compressed serving form, each
    /// `Ii` (`i ≥ 1`) linked below `I(i−1)` (see [`CompressedIndex::freeze`]).
    pub fn freeze_compressed(&self) -> CompressedMStar {
        let mut components: Vec<CompressedIndex> = Vec::with_capacity(self.components.len());
        for c in &self.components {
            components.push(CompressedIndex::freeze(c, components.last()));
        }
        CompressedMStar {
            components,
            epoch: self.mutation_epoch(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvalStrategy, QuerySession};
    use mrx_error::MrxError;
    use mrx_graph::xml::parse;
    use mrx_graph::DataGraph;
    use mrx_path::{PathExpr, QueryBudget};

    /// Runs every component of a fresh freeze through the shared load
    /// check: it passes, links nest into a tree, and re-deriving the label
    /// buckets reproduces the frozen ones.
    fn assert_assembles(cz: &CompressedMStar, g: &DataGraph) {
        for (i, c) in cz.components.iter().enumerate() {
            let coarse = i.checked_sub(1).map(|j| &cz.components[j]);
            let again = c
                .clone()
                .assemble(g.node_count(), g.num_labels(), coarse, true)
                .unwrap_or_else(|e| panic!("I{i}: {e}"));
            assert_eq!(&again, c, "I{i}");
        }
    }

    #[test]
    fn compressed_snapshot_matches_live_top_down() {
        let g = parse(
            "<site>
               <people><person><name><last/></name></person>
                        <person><name/></person></people>
               <forum><poster><name><last/></name></poster></forum>
             </site>",
        )
        .unwrap();
        let mut idx = MStarIndex::new(&g);
        idx.refine_for(&g, &PathExpr::parse("//person/name/last").unwrap());
        let cz = idx.freeze_compressed();
        assert_assembles(&cz, &g);
        assert_eq!(cz.mutation_epoch(), idx.mutation_epoch());
        for expr in [
            "//person/name/last",
            "//name/last",
            "//poster/name",
            "//name",
            "/people/person",
        ] {
            let p = PathExpr::parse(expr).unwrap();
            for policy in [TrustPolicy::Proven, TrustPolicy::Claimed] {
                let live = idx.query_with_policy(&g, &p, EvalStrategy::TopDown, policy);
                let comp = QuerySession::new(policy)
                    .serve(&cz, &g, &p)
                    .unwrap()
                    .clone();
                assert_eq!(live.nodes, comp.nodes, "{expr}");
                assert_eq!(live.cost, comp.cost, "{expr}");
                assert_eq!(live.validated, comp.validated, "{expr}");
            }
        }
    }

    /// Every frozen row is the live `subnodes(i - 1, u)` under the
    /// monotone renumbering, on a graph with multiple parents and cycles.
    #[test]
    fn snapshot_rows_equal_live_subnodes() {
        let g = mrx_datagen::random_graph(
            &mrx_datagen::RandomGraphConfig {
                nodes: 400,
                labels: 4,
                extra_edge_ratio: 0.5,
                allow_cycles: true,
            },
            5,
        );
        let mut idx = MStarIndex::new(&g);
        for expr in ["//l1/l2/l3", "//l0/l1", "//l2/l0/l1/l3/l2"] {
            idx.refine_for(&g, &PathExpr::parse(expr).unwrap());
        }
        let cz = idx.freeze_compressed();
        assert_assembles(&cz, &g);
        assert!(cz.components[0].links.off.is_empty());
        assert!(idx.max_k() >= 3);
        for i in 1..=idx.max_k() {
            let (coarse, fine) = (idx.component(i - 1), idx.component(i));
            let mut dense = vec![IdxId(u32::MAX); fine.slot_bound()];
            for (d, v) in fine.iter().enumerate() {
                dense[v.index()] = IdxId(d as u32);
            }
            let links = &cz.components[i].links;
            assert_eq!(links.off.len(), coarse.node_count() + 1, "I{i}");
            for (d, u) in coarse.iter().enumerate() {
                let live: Vec<IdxId> = idx
                    .subnodes(i - 1, u)
                    .iter()
                    .map(|s| dense[s.index()])
                    .collect();
                assert_eq!(links.row(IdxId(d as u32)), &live[..], "I{i} row {d}");
            }
        }
    }

    #[test]
    fn budget_trips_charge_exactly_the_visits_made() {
        let g = parse(
            "<site>
               <people><person><name><last/></name></person>
                        <person><name/></person></people>
               <forum><poster><name><last/></name></poster></forum>
             </site>",
        )
        .unwrap();
        let mut idx = MStarIndex::new(&g);
        idx.refine_for(&g, &PathExpr::parse("//person/name/last").unwrap());
        let cz = idx.freeze_compressed();
        for expr in ["//person/name/last", "//name/last", "//site/*/person"] {
            let p = PathExpr::parse(expr).unwrap();
            let full = QuerySession::new(TrustPolicy::Proven)
                .serve(&cz, &g, &p)
                .unwrap()
                .clone();
            let total = full.cost.total();
            let mut last_partial = 0;
            for max_steps in 0..=total {
                let mut session = QuerySession::new(TrustPolicy::Proven);
                session.set_budget(QueryBudget {
                    max_steps: Some(max_steps),
                    ..QueryBudget::unlimited()
                });
                match session.serve(&cz, &g, &p) {
                    Ok(a) => {
                        assert_eq!(max_steps, total, "{expr}: finished under budget");
                        assert_eq!((&a.nodes, a.cost), (&full.nodes, full.cost));
                    }
                    Err(MrxError::Budget(e)) => {
                        // Tripped on the first charge past the budget, and
                        // never charged a visit the full run did not make.
                        let partial = e.index_nodes + e.data_nodes;
                        assert!(max_steps < total, "{expr}: tripped at full budget");
                        assert!(partial > max_steps && partial <= total, "{expr}: {e:?}");
                        assert!(partial >= last_partial, "{expr}: partial cost shrank");
                        last_partial = partial;
                    }
                    Err(e) => panic!("{expr}: {e}"),
                }
            }
        }
    }
}

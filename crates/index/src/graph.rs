//! The mutable index-graph substrate shared by all structural indexes.
//!
//! An index graph `I(G)` is a labeled directed graph whose nodes carry an
//! *extent* (set of data nodes), a *local similarity* value `k`, and induced
//! edges: `(u, v) ∈ E_I` iff some data edge runs from `u.extent` to
//! `v.extent` (Property 2 of the M(k)-index, shared by all the indexes in
//! the paper).
//!
//! The one structural mutation every algorithm needs is *node replacement*:
//! split an index node into pieces that partition its extent, each with its
//! own local similarity, rebuilding induced edges incrementally (cost
//! proportional to the extent size times data-graph degree — never a global
//! recomputation).

use mrx_graph::{DataGraph, LabelId, NodeId};
use mrx_path::{CompiledPath, Cost, EpochSet};

use crate::Partition;

/// Reusable buffers for [`IndexGraph::eval_in_place`] and the M\*(k) descents:
/// the per-step duplicate-suppression set, the two frontier vectors
/// swapped between steps, the certified members of each (the Lemma 2 bit
/// of DESIGN.md §5, read only by the component hierarchy), and the
/// children a child step reached from a certified node. Grows to the
/// index size on first use, then allocation-free.
#[derive(Debug, Default, Clone)]
pub struct IndexEvalScratch {
    pub(crate) seen: EpochSet,
    pub(crate) frontier: Vec<IdxId>,
    pub(crate) next: Vec<IdxId>,
    pub(crate) trusted: EpochSet,
    pub(crate) trusted_next: EpochSet,
    pub(crate) reached: EpochSet,
}

impl IndexEvalScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Identifier of an index node within one [`IndexGraph`].
///
/// Ids are slots in an append-only arena and are never reused; a node
/// destroyed by a split leaves a dead slot behind. Never hold an `IdxId`
/// across a mutation unless you re-check [`IndexGraph::is_alive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IdxId(pub u32);

impl IdxId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl mrx_postings::PostingId for IdxId {
    #[inline]
    fn to_u32(self) -> u32 {
        self.0
    }
    #[inline]
    fn from_u32(v: u32) -> Self {
        IdxId(v)
    }
}

#[derive(Debug, Clone)]
struct Slot {
    label: LabelId,
    /// The *claimed* local similarity (the paper's `v.k`). Refinement
    /// assigns it per the REFINE/PROMOTE pseudocode; on mixed pieces it can
    /// overstate the true bisimilarity of the extent (see `genuine`).
    k: u32,
    /// The *proven* local similarity: a sound lower bound on the k for
    /// which all extent members are k-bisimilar, established by one of
    /// five certificates — partition construction, subset inheritance,
    /// the parent-uniformity rule of [`IndexGraph::replace_node`], an
    /// explicit caller floor ([`IndexGraph::raise_genuine`]), or the exact
    /// similarity against ground-truth partitions
    /// ([`IndexGraph::certify_exact`]).
    genuine: u32,
    extent: Vec<NodeId>,  // sorted
    parents: Vec<IdxId>,  // sorted, deduped
    children: Vec<IdxId>, // sorted, deduped
    alive: bool,
}

/// A structural index graph over one data graph.
///
/// Maintains, under every mutation:
/// * extents partition the data nodes (`node_of_data` is the inverse map);
/// * all data nodes in an extent share the node's label;
/// * edges are exactly those induced by data edges (Property 2);
/// * per-label node lists for O(|answer|) label lookup.
#[derive(Debug, Clone)]
pub struct IndexGraph {
    slots: Vec<Slot>,
    node_of_data: Vec<IdxId>,
    /// The data graph's root, for [`IndexGraph::root_node`].
    root: NodeId,
    /// label -> node ids; may contain dead ids (compacted lazily).
    by_label: Vec<Vec<IdxId>>,
    live_per_label: Vec<u32>,
    live_nodes: usize,
    live_edges: usize,
    /// Sticky flag: whether `genuine(parent) ≥ genuine(child) − 1` holds on
    /// every edge (the Lemma 2 precondition with *proven* similarities).
    /// While true, a target node with `genuine ≥ length` provably contains
    /// no false positives and the sound query policy skips validation
    /// entirely; once any mutation breaks the property the flag drops and
    /// the policy falls back to one representative validation per node.
    genuine_p3: bool,
    /// Mutation generation: bumped by every operation that can change an
    /// extent or a similarity value ([`IndexGraph::replace_node`],
    /// [`IndexGraph::set_k`], [`IndexGraph::raise_genuine`]). Query caches
    /// key their entries on this counter and treat any change as
    /// invalidating — conservative, but refinement only ever runs between
    /// queries, so over-eviction is cheap and staleness is impossible.
    epoch: u64,
}

impl IndexGraph {
    /// Builds the index graph induced by a partition of `g`'s nodes, giving
    /// block `b` local similarity `k_of_block(b)`.
    ///
    /// # Panics
    /// Panics if any block mixes labels (a partition must refine `≈0`).
    pub fn from_partition(
        g: &DataGraph,
        partition: &crate::Partition,
        mut k_of_block: impl FnMut(usize) -> u32,
    ) -> Self {
        let n = g.node_count();
        let nb = partition.num_blocks;
        let mut extents: Vec<Vec<NodeId>> = vec![Vec::new(); nb];
        for v in g.nodes() {
            extents[partition.block_of[v.index()] as usize].push(v);
        }
        let mut ig = IndexGraph {
            slots: Vec::with_capacity(nb),
            node_of_data: vec![IdxId(u32::MAX); n],
            root: g.root(),
            by_label: vec![Vec::new(); g.labels().len()],
            live_per_label: vec![0; g.labels().len()],
            live_nodes: 0,
            live_edges: 0,
            genuine_p3: true,
            epoch: 0,
        };
        for (b, extent) in extents.into_iter().enumerate() {
            assert!(!extent.is_empty(), "partition block {b} is empty");
            let label = g.label(extent[0]);
            assert!(
                extent.iter().all(|&v| g.label(v) == label),
                "partition block {b} mixes labels"
            );
            let id = IdxId(b as u32);
            for &v in &extent {
                ig.node_of_data[v.index()] = id;
            }
            let k = k_of_block(b);
            ig.slots.push(Slot {
                label,
                k,
                // Partition blocks are genuine ≈k classes by construction.
                genuine: k,
                extent,
                parents: Vec::new(),
                children: Vec::new(),
                alive: true,
            });
            ig.by_label[label.index()].push(id);
            ig.live_per_label[label.index()] += 1;
            ig.live_nodes += 1;
        }
        // Induced edges.
        for b in 0..nb {
            let (mut ps, mut cs) = ig.induced_edges(g, &ig.slots[b].extent);
            ig.live_edges += cs.len();
            std::mem::swap(&mut ig.slots[b].parents, &mut ps);
            std::mem::swap(&mut ig.slots[b].children, &mut cs);
        }
        // Establish the Lemma 2 precondition flag.
        'outer: for b in 0..nb {
            let gch = ig.slots[b].genuine;
            for &u in &ig.slots[b].parents {
                if ig.slots[u.index()].genuine.saturating_add(1) < gch {
                    ig.genuine_p3 = false;
                    break 'outer;
                }
            }
        }
        ig
    }

    /// The A(0)-index graph: one node per label, local similarity 0.
    pub fn a0(g: &DataGraph) -> Self {
        Self::from_partition(g, &crate::label_partition(g), |_| 0)
    }

    /// Exports the live nodes as `(extent, claimed k, proven k)` triples,
    /// sorted by first extent member (for structural comparisons).
    pub fn export_extents(&self) -> Vec<(Vec<NodeId>, u32, u32)> {
        let mut out: Vec<(Vec<NodeId>, u32, u32)> = self
            .iter()
            .map(|v| {
                let s = &self.slots[v.index()];
                (s.extent.clone(), s.k, s.genuine)
            })
            .collect();
        out.sort_by_key(|(e, _, _)| e[0]);
        out
    }

    /// Number of live index nodes.
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of index edges (each induced edge counted once).
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Whether `v` currently exists.
    #[inline]
    pub fn is_alive(&self, v: IdxId) -> bool {
        self.slots[v.index()].alive
    }

    /// The label of `v`.
    #[inline]
    pub fn label(&self, v: IdxId) -> LabelId {
        debug_assert!(self.is_alive(v));
        self.slots[v.index()].label
    }

    /// The local similarity `v.k`.
    #[inline]
    pub fn k(&self, v: IdxId) -> u32 {
        debug_assert!(self.is_alive(v));
        self.slots[v.index()].k
    }

    /// Raises `v.k` (callers are responsible for the semantic justification —
    /// the M*(k) propagation uses this when a supernode's similarity grows).
    pub fn set_k(&mut self, v: IdxId, k: u32) {
        debug_assert!(self.is_alive(v));
        self.epoch += 1;
        self.slots[v.index()].k = k;
    }

    /// The *proven* local similarity of `v`: all extent members are
    /// guaranteed `genuine(v)`-bisimilar. Always sound; may be lower than
    /// the claimed [`IndexGraph::k`] after selective (M(k)-style)
    /// refinement, which is exactly when trusting `k` could admit false
    /// positives.
    #[inline]
    pub fn genuine(&self, v: IdxId) -> u32 {
        debug_assert!(self.is_alive(v));
        self.slots[v.index()].genuine
    }

    /// Raises the proven similarity of `v` to at least `floor`. The caller
    /// must hold a soundness certificate — e.g. the M*(k) propagation knows
    /// a node's extent is a subset of a supernode piece with that proven
    /// similarity.
    pub fn raise_genuine(&mut self, v: IdxId, floor: u32) {
        debug_assert!(self.is_alive(v));
        let slot = &mut self.slots[v.index()];
        if floor > slot.genuine {
            slot.genuine = floor;
            self.epoch += 1;
            self.recheck_p3_around(v);
        }
    }

    /// The exact-similarity certificate: raises every node's proven
    /// similarity to the largest `j ≤ K = parts.len() − 1` such that its
    /// extent lies in one block of `parts[j]`, which must be the `≈j`
    /// partition of this index's data graph (index `j` holds `≈j`, as
    /// [`crate::k_bisim_all`] returns them). A node's `genuine` never
    /// drops. `≈(j+1)` refines `≈j`, so each extent member can only lower
    /// the level it shares with the first one: one pass over the extent
    /// plus at most `K` level steps per node, and no allocation. Returns
    /// whether any node rose; the epoch bumps once if so, and the sticky
    /// Lemma 2 flag is re-checked over every edge.
    pub fn certify_exact(&mut self, parts: &[Partition]) -> bool {
        let Some(cap) = parts.len().checked_sub(1) else {
            return false;
        };
        debug_assert!(parts
            .iter()
            .all(|p| p.block_of.len() == self.node_of_data.len()));
        let cap = cap as u32;
        let mut raised = false;
        for slot in self.slots.iter_mut() {
            if !slot.alive || slot.genuine >= cap {
                continue;
            }
            let first = slot.extent[0].index();
            let mut j = cap;
            for o in &slot.extent[1..] {
                while j > slot.genuine
                    && parts[j as usize].block_of[o.index()] != parts[j as usize].block_of[first]
                {
                    j -= 1;
                }
                if j == slot.genuine {
                    break;
                }
            }
            if j > slot.genuine {
                slot.genuine = j;
                raised = true;
            }
        }
        if raised {
            self.epoch += 1;
            let slots = &self.slots;
            self.genuine_p3 &= slots.iter().filter(|s| s.alive).all(|s| {
                s.parents
                    .iter()
                    .all(|u| slots[u.index()].genuine.saturating_add(1) >= s.genuine)
            });
        }
        raised
    }

    /// The current mutation generation. Strictly increases whenever a
    /// mutation could change any query's answer or trust level; equal values
    /// guarantee the index is unchanged (the basis for cached-answer
    /// validity in the serving layer).
    #[inline]
    pub fn mutation_epoch(&self) -> u64 {
        self.epoch
    }

    /// Snapshot of the mutation epoch, paired with
    /// [`IndexGraph::collapse_epoch`] to batch many mutations into one
    /// observable generation bump.
    #[inline]
    pub(crate) fn epoch_snapshot(&self) -> u64 {
        self.epoch
    }

    /// Collapses every epoch bump since `snapshot` into a single bump.
    ///
    /// Sound only while the caller holds the graph `&mut` for the whole
    /// mutation batch: no observer can have seen the intermediate epochs, so
    /// `snapshot + 1` still strictly exceeds every previously *observable*
    /// epoch iff anything changed.
    #[inline]
    pub(crate) fn collapse_epoch(&mut self, snapshot: u64) {
        if self.epoch > snapshot {
            self.epoch = snapshot + 1;
        }
    }

    /// Whether the Lemma 2 precondition holds with proven similarities (see
    /// the `genuine_p3` field). Sticky: never returns to `true` once lost.
    pub fn lemma2_safe(&self) -> bool {
        self.genuine_p3
    }

    /// Re-checks the local `genuine(parent) ≥ genuine(child) − 1` edges
    /// around `v` after its proven similarity changed; drops the sticky
    /// flag on violation. (Raising v's genuine can only violate constraints
    /// where v is the child.)
    fn recheck_p3_around(&mut self, v: IdxId) {
        if !self.genuine_p3 {
            return;
        }
        let gv = self.slots[v.index()].genuine;
        for &u in &self.slots[v.index()].parents {
            if self.slots[u.index()].genuine.saturating_add(1) < gv {
                self.genuine_p3 = false;
                return;
            }
        }
    }

    /// The sorted extent of `v`.
    #[inline]
    pub fn extent(&self, v: IdxId) -> &[NodeId] {
        debug_assert!(self.is_alive(v));
        &self.slots[v.index()].extent
    }

    /// Sorted parent index nodes of `v`.
    #[inline]
    pub fn parents(&self, v: IdxId) -> &[IdxId] {
        debug_assert!(self.is_alive(v));
        &self.slots[v.index()].parents
    }

    /// Sorted child index nodes of `v`.
    #[inline]
    pub fn children(&self, v: IdxId) -> &[IdxId] {
        debug_assert!(self.is_alive(v));
        &self.slots[v.index()].children
    }

    /// The index node whose extent contains data node `o`.
    #[inline]
    pub fn node_of(&self, o: NodeId) -> IdxId {
        self.node_of_data[o.index()]
    }

    /// The index node whose extent contains the data graph's root.
    #[inline]
    pub fn root_node(&self) -> IdxId {
        self.node_of(self.root)
    }

    /// Iterates over live index node ids.
    pub fn iter(&self) -> impl Iterator<Item = IdxId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive)
            .map(|(i, _)| IdxId(i as u32))
    }

    /// Live index nodes with the given label.
    pub fn nodes_with_label(&self, l: LabelId) -> impl Iterator<Item = IdxId> + '_ {
        self.by_label
            .get(l.index())
            .into_iter()
            .flatten()
            .copied()
            .filter(move |&id| self.slots[id.index()].alive && self.slots[id.index()].label == l)
    }

    /// An upper bound on slot ids ever allocated (for mark vectors).
    pub fn slot_bound(&self) -> usize {
        self.slots.len()
    }

    /// The number of data nodes this index partitions (the length of the
    /// `node_of_data` inverse map).
    pub(crate) fn data_node_count(&self) -> usize {
        self.node_of_data.len()
    }

    /// The size of the label alphabet this index was built over.
    pub(crate) fn num_labels(&self) -> usize {
        self.by_label.len()
    }

    /// Replaces `v` by pieces that partition its extent; piece `i` receives
    /// local similarity `parts[i].1`. Empty parts are skipped. Returns the
    /// ids of the pieces, in `parts` order.
    ///
    /// If exactly one part survives, the node is kept in place (its `k` is
    /// updated) and no structural change happens.
    ///
    /// # Panics
    /// Debug-asserts that the parts partition `v.extent` (each sorted, total
    /// size preserved, no overlap).
    pub fn replace_node(
        &mut self,
        g: &DataGraph,
        v: IdxId,
        parts: Vec<(Vec<NodeId>, u32)>,
    ) -> Vec<IdxId> {
        assert!(self.is_alive(v), "replace_node on a dead node");
        self.epoch += 1;
        let parts: Vec<(Vec<NodeId>, u32)> =
            parts.into_iter().filter(|(e, _)| !e.is_empty()).collect();
        // Hard assert even in release: proceeding would detach the node and
        // leave its extent unmapped, corrupting the whole index.
        assert!(!parts.is_empty(), "replace_node with all-empty parts");
        debug_assert_eq!(
            parts.iter().map(|(e, _)| e.len()).sum::<usize>(),
            self.slots[v.index()].extent.len(),
            "parts must cover the extent exactly"
        );
        #[cfg(debug_assertions)]
        {
            let mut all: Vec<NodeId> = parts.iter().flat_map(|(e, _)| e.iter().copied()).collect();
            all.sort_unstable();
            debug_assert_eq!(
                all,
                self.slots[v.index()].extent,
                "parts must partition the extent"
            );
            for (e, _) in &parts {
                debug_assert!(
                    e.windows(2).all(|w| w[0] < w[1]),
                    "each part must be sorted"
                );
            }
        }

        if parts.len() == 1 {
            self.slots[v.index()].k = parts[0].1;
            let bound = self.uniform_parent_bound(g, v);
            let slot = &mut self.slots[v.index()];
            if bound > slot.genuine {
                slot.genuine = bound;
                self.recheck_p3_around(v);
            }
            return vec![v];
        }

        let label = self.slots[v.index()].label;
        let old_genuine = self.slots[v.index()].genuine;

        // 1. Detach v from the graph.
        let old_parents = std::mem::take(&mut self.slots[v.index()].parents);
        let old_children = std::mem::take(&mut self.slots[v.index()].children);
        let self_loop = old_children.binary_search(&v).is_ok();
        for &u in &old_parents {
            if u != v {
                remove_sorted(&mut self.slots[u.index()].children, v);
            }
        }
        for &w in &old_children {
            if w != v {
                remove_sorted(&mut self.slots[w.index()].parents, v);
            }
        }
        // Removed edges: v's outgoing (old_children, self-loop included once)
        // plus incoming from others (old_parents, minus the self-loop that is
        // already covered by the outgoing count).
        self.live_edges -= old_children.len() + old_parents.len() - usize::from(self_loop);
        self.slots[v.index()].alive = false;
        self.slots[v.index()].extent = Vec::new();
        self.live_nodes -= 1;
        self.live_per_label[label.index()] -= 1;
        // The kill path can also leave `by_label` dominated by dead ids
        // (e.g. long promote runs that shrink a label's node count), so
        // compact here as eagerly as on allocation.
        self.maybe_compact_label(label.index());

        // 2. Allocate pieces and point node_of_data at them.
        let mut piece_ids = Vec::with_capacity(parts.len());
        for (extent, k) in parts {
            let id = self.alloc(Slot {
                label,
                k,
                // A subset of a genuinely g-bisimilar extent stays genuinely
                // g-bisimilar; upgraded below once edges are known.
                genuine: old_genuine,
                extent,
                parents: Vec::new(),
                children: Vec::new(),
                alive: true,
            });
            piece_ids.push(id);
        }
        for &id in &piece_ids {
            for i in 0..self.slots[id.index()].extent.len() {
                let o = self.slots[id.index()].extent[i];
                self.node_of_data[o.index()] = id;
            }
        }

        // 3. Rebuild each piece's induced edges and patch non-piece neighbours.
        // The pieces are the newest slots, allocated back to back.
        let first_piece = piece_ids[0].index();
        for &id in &piece_ids {
            let (ps, cs) = self.induced_edges(g, &self.slots[id.index()].extent);
            self.live_edges += cs.len();
            for &u in &ps {
                if u.index() < first_piece && insert_sorted(&mut self.slots[u.index()].children, id)
                {
                    self.live_edges += 1;
                }
            }
            for &w in &cs {
                if w.index() < first_piece {
                    insert_sorted(&mut self.slots[w.index()].parents, id);
                }
            }
            self.slots[id.index()].parents = ps;
            self.slots[id.index()].children = cs;
        }
        // 4. Upgrade proven similarity where the uniformity certificate
        // applies. Piece-parents still carry their conservative inherited
        // value at this point, which keeps the bound sound.
        for &id in &piece_ids {
            let bound = self.uniform_parent_bound(g, id);
            let slot = &mut self.slots[id.index()];
            slot.genuine = slot.genuine.max(bound);
        }
        // 5. Maintain the sticky Lemma 2 precondition: the only edges whose
        // endpoints changed are those incident to the pieces.
        if self.genuine_p3 {
            'check: for &id in &piece_ids {
                let gp = self.slots[id.index()].genuine;
                for &u in &self.slots[id.index()].parents {
                    if self.slots[u.index()].genuine.saturating_add(1) < gp {
                        self.genuine_p3 = false;
                        break 'check;
                    }
                }
                for &w in &self.slots[id.index()].children {
                    if gp.saturating_add(1) < self.slots[w.index()].genuine {
                        self.genuine_p3 = false;
                        break 'check;
                    }
                }
            }
        }
        piece_ids
    }

    /// The parent-uniformity certificate: if every extent member has the
    /// same set of parent *index nodes*, then by Lemma 1 all members are
    /// `1 + min(parent.genuine)`-bisimilar (members with no parents at all
    /// are bisimilar at every k). Returns 0 when the certificate fails.
    fn uniform_parent_bound(&self, g: &DataGraph, v: IdxId) -> u32 {
        let extent = &self.slots[v.index()].extent;
        let mut first: Vec<IdxId> = Vec::new();
        let mut buf: Vec<IdxId> = Vec::new();
        for (i, &o) in extent.iter().enumerate() {
            buf.clear();
            buf.extend(g.parents(o).iter().map(|p| self.node_of_data[p.index()]));
            buf.sort_unstable();
            buf.dedup();
            if i == 0 {
                std::mem::swap(&mut first, &mut buf);
            } else if buf != first {
                return 0;
            }
        }
        if first.is_empty() {
            return u32::MAX;
        }
        let min_parent = first
            .iter()
            .map(|u| self.slots[u.index()].genuine)
            .min()
            .expect("non-empty");
        min_parent.saturating_add(1)
    }

    /// Computes the induced (parents, children) of an extent via the data
    /// graph and the current `node_of_data` map. Both sorted and deduped.
    fn induced_edges(&self, g: &DataGraph, extent: &[NodeId]) -> (Vec<IdxId>, Vec<IdxId>) {
        let mut ps = Vec::new();
        let mut cs = Vec::new();
        for &o in extent {
            for &dp in g.parents(o) {
                ps.push(self.node_of_data[dp.index()]);
            }
            for &dc in g.children(o) {
                cs.push(self.node_of_data[dc.index()]);
            }
        }
        ps.sort_unstable();
        ps.dedup();
        cs.sort_unstable();
        cs.dedup();
        (ps, cs)
    }

    fn alloc(&mut self, slot: Slot) -> IdxId {
        let label = slot.label.index();
        self.slots.push(slot);
        let id = IdxId((self.slots.len() - 1) as u32);
        self.live_nodes += 1;
        self.live_per_label[label] += 1;
        self.by_label[label].push(id);
        self.maybe_compact_label(label);
        id
    }

    /// Compacts one label's node list once dead ids exceed twice the live
    /// count (ids are never reused, so retaining alive entries is always
    /// sound). Called on every allocation *and* on every node kill, so the
    /// list stays within a constant factor of the live count no matter how
    /// a long adaptation run interleaves splits and label shrinkage —
    /// label scans never degrade.
    fn maybe_compact_label(&mut self, label: usize) {
        let list = &mut self.by_label[label];
        if list.len() > 16 && list.len() as u32 > self.live_per_label[label] * 2 {
            let slots = &self.slots;
            list.retain(|&x| slots[x.index()].alive);
        }
    }

    /// The number of `by_label` entries (live + not-yet-compacted dead) for
    /// label `l` — test/diagnostic surface for the compaction bound.
    pub fn label_list_len(&self, l: LabelId) -> usize {
        self.by_label.get(l.index()).map_or(0, Vec::len)
    }

    /// Live index nodes carrying label `l`.
    pub fn live_label_count(&self, l: LabelId) -> usize {
        self.live_per_label
            .get(l.index())
            .map_or(0, |&n| n as usize)
    }

    /// Evaluates a compiled path on the index graph, returning the target
    /// set of index nodes and counting visited index nodes into `cost`.
    ///
    /// Cost accounting (paper §5): the initial frontier counts one visit per
    /// matching node; every subsequent step counts one visit per *distinct*
    /// child examined (whether or not its label matches).
    pub fn eval(&self, g: &DataGraph, path: &CompiledPath, cost: &mut Cost) -> Vec<IdxId> {
        self.eval_in_place(g, path, cost, &mut IndexEvalScratch::new())
            .to_vec()
    }

    /// [`IndexGraph::eval`] over caller-owned scratch, returning the
    /// scratch-owned result slice instead of a fresh vector: no per-query
    /// `seen` bitmap or per-step frontier allocations once the scratch has
    /// warmed up, and identical answers and cost accounting. The batched
    /// adaptation engine uses this for its skip-if-converged probes, where
    /// the targets are only inspected.
    /// Index evaluation reads only the index (the anchored filter uses
    /// [`IndexGraph::root_node`]), so `g` is not consulted.
    pub fn eval_in_place<'s>(
        &self,
        _g: &DataGraph,
        path: &CompiledPath,
        cost: &mut Cost,
        scratch: &'s mut IndexEvalScratch,
    ) -> &'s [IdxId] {
        crate::view::eval_view(self, path, cost, scratch)
    }

    /// Memoized check that an instance of `cp.steps[step..]` *starts* at
    /// index node `v`, walking index edges downward. `memo` must have
    /// `slot_bound() * cp.steps.len()` entries, zero-initialized per query.
    /// Every first visit counts one index node into `cost` (used by the
    /// M*(k) bottom-up/hybrid strategies, which §4.1 notes must "check
    /// downwards to ensure that the suffix path still exists").
    pub fn starts_outgoing(
        &self,
        v: IdxId,
        step: usize,
        cp: &CompiledPath,
        memo: &mut [u8],
        cost: &mut Cost,
    ) -> bool {
        const YES: u8 = 1;
        const NO: u8 = 2;
        let slot = step * self.slot_bound() + v.index();
        match memo[slot] {
            YES => return true,
            NO => return false,
            _ => {}
        }
        cost.index_nodes += 1;
        memo[slot] = NO;
        let ok = if !cp.steps[step].matches(self.label(v)) {
            false
        } else if step + 1 == cp.steps.len() {
            true
        } else {
            self.children(v)
                .iter()
                .any(|&c| self.starts_outgoing(c, step + 1, cp, memo, cost))
        };
        memo[slot] = if ok { YES } else { NO };
        ok
    }

    /// Verifies every structural invariant; used by tests and debug builds.
    ///
    /// # Panics
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self, g: &DataGraph) {
        let mut covered = vec![false; g.node_count()];
        let mut live_count = 0;
        let mut edge_count = 0;
        for id in self.iter() {
            live_count += 1;
            let s = &self.slots[id.index()];
            assert!(!s.extent.is_empty(), "{id:?}: empty extent");
            assert!(
                s.extent.windows(2).all(|w| w[0] < w[1]),
                "{id:?}: extent not sorted/deduped"
            );
            for &o in &s.extent {
                assert!(!covered[o.index()], "{o:?} in two extents");
                covered[o.index()] = true;
                assert_eq!(self.node_of(o), id, "node_of_data inconsistent for {o:?}");
                assert_eq!(g.label(o), s.label, "{id:?}: extent label mismatch");
            }
            let (ps, cs) = self.induced_edges(g, &s.extent);
            assert_eq!(s.parents, ps, "{id:?}: parents not induced");
            assert_eq!(s.children, cs, "{id:?}: children not induced");
            edge_count += cs.len();
            for &u in &s.parents {
                assert!(self.is_alive(u), "{id:?}: dead parent {u:?}");
                assert!(
                    self.slots[u.index()].children.binary_search(&id).is_ok(),
                    "{id:?}: parent {u:?} missing reverse edge"
                );
            }
            // by_label must find this node
            assert!(
                self.nodes_with_label(s.label).any(|x| x == id),
                "{id:?} missing from by_label"
            );
        }
        assert!(
            covered.iter().all(|&c| c),
            "extents do not cover all data nodes"
        );
        assert_eq!(live_count, self.live_nodes, "live_nodes counter wrong");
        assert_eq!(edge_count, self.live_edges, "live_edges counter wrong");
    }
}

/// Inserts into a sorted vec; returns true if newly inserted.
fn insert_sorted<T: Ord + Copy>(v: &mut Vec<T>, x: T) -> bool {
    match v.binary_search(&x) {
        Ok(_) => false,
        Err(i) => {
            v.insert(i, x);
            true
        }
    }
}

/// Removes from a sorted vec; returns true if it was present.
fn remove_sorted<T: Ord + Copy>(v: &mut Vec<T>, x: T) -> bool {
    match v.binary_search(&x) {
        Ok(i) => {
            v.remove(i);
            true
        }
        Err(_) => false,
    }
}

/// Sorted union of the data-graph children of `extent` (the paper's
/// `Succ(s)`).
pub fn succ_extent(g: &DataGraph, extent: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    for &o in extent {
        out.extend_from_slice(g.children(o));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Sorted union of the data-graph parents of `extent` (the paper's
/// `Pred(s)`).
pub fn pred_extent(g: &DataGraph, extent: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    for &o in extent {
        out.extend_from_slice(g.parents(o));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Sorted intersection of two sorted slices.
///
/// Delegates to [`mrx_postings::intersect`]: lopsided inputs gallop
/// (exponential probe + binary search), so they cost
/// `O(small · log large)`, and comparable ones take the linear merge.
pub fn intersect_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    mrx_postings::intersect(a, b, |v| out.push(v));
    out
}

/// Sorted difference `a − b` of two sorted slices, galloping over `b`
/// (see [`mrx_postings::difference`]).
pub fn difference_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    mrx_postings::difference(a, b, |v| out.push(v));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrx_graph::GraphBuilder;
    use mrx_path::PathExpr;

    fn small() -> DataGraph {
        let mut b = GraphBuilder::new();
        let r = b.add_node("r");
        let a = b.add_child(r, "a");
        let b1 = b.add_child(a, "b");
        let b2 = b.add_child(a, "b");
        let c = b.add_child(b1, "c");
        b.add_ref(b2, c);
        b.freeze()
    }

    #[test]
    fn a0_groups_by_label() {
        let g = small();
        let ig = IndexGraph::a0(&g);
        assert_eq!(ig.node_count(), 4); // r a b c
        ig.check_invariants(&g);
        let b = g.labels().get("b").unwrap();
        let bn: Vec<IdxId> = ig.nodes_with_label(b).collect();
        assert_eq!(bn.len(), 1);
        assert_eq!(ig.extent(bn[0]).len(), 2);
        assert_eq!(ig.k(bn[0]), 0);
    }

    #[test]
    fn replace_node_splits_and_rebuilds_edges() {
        let g = small();
        let mut ig = IndexGraph::a0(&g);
        let b = g.labels().get("b").unwrap();
        let bn: Vec<IdxId> = ig.nodes_with_label(b).collect();
        let extent = ig.extent(bn[0]).to_vec();
        let pieces = ig.replace_node(&g, bn[0], vec![(vec![extent[0]], 1), (vec![extent[1]], 2)]);
        assert_eq!(pieces.len(), 2);
        assert!(!ig.is_alive(bn[0]));
        ig.check_invariants(&g);
        assert_eq!(ig.node_count(), 5);
        assert_eq!(ig.k(pieces[0]), 1);
        assert_eq!(ig.k(pieces[1]), 2);
        // both pieces are children of the `a` node, both point to `c`
        let a = g.labels().get("a").unwrap();
        let an: Vec<IdxId> = ig.nodes_with_label(a).collect();
        assert_eq!(
            ig.children(an[0]),
            &[pieces[0].min(pieces[1]), pieces[0].max(pieces[1])]
        );
    }

    #[test]
    fn replace_node_single_part_updates_k_in_place() {
        let g = small();
        let mut ig = IndexGraph::a0(&g);
        let c = g.labels().get("c").unwrap();
        let cn: Vec<IdxId> = ig.nodes_with_label(c).collect();
        let extent = ig.extent(cn[0]).to_vec();
        let out = ig.replace_node(&g, cn[0], vec![(extent, 3), (Vec::new(), 7)]);
        assert_eq!(out, vec![cn[0]]);
        assert!(ig.is_alive(cn[0]));
        assert_eq!(ig.k(cn[0]), 3);
        ig.check_invariants(&g);
    }

    #[test]
    fn self_loop_edges_survive_splits() {
        // a -> a cycle collapses to a self-loop in A(0)
        let mut b = GraphBuilder::new();
        let r = b.add_node("r");
        let a1 = b.add_child(r, "a");
        let a2 = b.add_child(a1, "a");
        b.add_ref(a2, a1);
        let g = b.freeze();
        let mut ig = IndexGraph::a0(&g);
        ig.check_invariants(&g);
        let a = g.labels().get("a").unwrap();
        let an: Vec<IdxId> = ig.nodes_with_label(a).collect();
        assert!(ig.children(an[0]).contains(&an[0]), "expected self-loop");
        let pieces = ig.replace_node(&g, an[0], vec![(vec![a1], 1), (vec![a2], 1)]);
        ig.check_invariants(&g);
        // a1 <-> a2 in both directions now
        assert!(ig.children(pieces[0]).contains(&pieces[1]));
        assert!(ig.children(pieces[1]).contains(&pieces[0]));
    }

    #[test]
    fn eval_on_a0_finds_label_paths() {
        let g = small();
        let ig = IndexGraph::a0(&g);
        let mut cost = Cost::ZERO;
        let p = PathExpr::parse("//a/b/c").unwrap().compile(&g);
        let t = ig.eval(&g, &p, &mut cost);
        assert_eq!(t.len(), 1);
        assert_eq!(ig.label(t[0]), g.labels().get("c").unwrap());
        assert!(cost.index_nodes >= 3);
    }

    #[test]
    fn eval_missing_label_is_empty_and_cheap() {
        let g = small();
        let ig = IndexGraph::a0(&g);
        let mut cost = Cost::ZERO;
        let p = PathExpr::parse("//zzz/c").unwrap().compile(&g);
        assert!(ig.eval(&g, &p, &mut cost).is_empty());
        assert_eq!(cost.index_nodes, 0);
    }

    #[test]
    fn eval_anchored_restricts_to_root_children() {
        let g = small();
        let ig = IndexGraph::a0(&g);
        let mut cost = Cost::ZERO;
        let p = PathExpr::parse("/a").unwrap().compile(&g);
        assert_eq!(ig.eval(&g, &p, &mut cost).len(), 1);
        let q = PathExpr::parse("/b").unwrap().compile(&g);
        assert!(ig.eval(&g, &q, &mut cost).is_empty());
    }

    #[test]
    fn set_ops() {
        let a: Vec<NodeId> = [1, 3, 5, 7].into_iter().map(NodeId).collect();
        let b: Vec<NodeId> = [3, 4, 7, 9].into_iter().map(NodeId).collect();
        assert_eq!(intersect_sorted(&a, &b), vec![NodeId(3), NodeId(7)]);
        assert_eq!(difference_sorted(&a, &b), vec![NodeId(1), NodeId(5)]);
        assert_eq!(difference_sorted(&b, &a), vec![NodeId(4), NodeId(9)]);
        assert!(intersect_sorted(&a, &[]).is_empty());
        assert_eq!(difference_sorted(&a, &[]), a);
    }

    #[test]
    fn succ_and_pred() {
        let g = small();
        let a = g.labels().get("a").unwrap();
        let av: Vec<NodeId> = g.nodes_with_label(a).collect();
        let succ = succ_extent(&g, &av);
        assert_eq!(succ.len(), 2); // the two b nodes
        let pred = pred_extent(&g, &av);
        assert_eq!(pred, vec![g.root()]);
    }

    #[test]
    fn lemma2_flag_starts_true_and_drops_on_gap() {
        let g = small();
        let mut ig = IndexGraph::a0(&g);
        assert!(ig.lemma2_safe(), "A(0) satisfies genuine Property 3");
        // Splitting the b node into singletons keeps proven values sound
        // (uniformity certificates), but creates a proven-similarity gap:
        // the pieces become provably deep while their parent stays at 0? No:
        // uniformity raises pieces to 1 + genuine(parent) = 1, and the
        // child c then sits at genuine 0 <= 1+1, so the flag survives here.
        let b = g.labels().get("b").unwrap();
        let bn: Vec<IdxId> = ig.nodes_with_label(b).collect();
        let extent = ig.extent(bn[0]).to_vec();
        ig.replace_node(&g, bn[0], vec![(vec![extent[0]], 1), (vec![extent[1]], 2)]);
        assert!(ig.lemma2_safe());
        // Force a gap: raise a leaf's proven similarity far above its
        // parent's. (The certificate is the caller's responsibility; here
        // the singleton extent makes any value sound.)
        let c = g.labels().get("c").unwrap();
        let cn: Vec<IdxId> = ig.nodes_with_label(c).collect();
        ig.raise_genuine(cn[0], 10);
        assert!(!ig.lemma2_safe(), "gap parent.genuine + 1 < child.genuine");
    }

    #[test]
    fn exact_certificate_raises_to_the_true_similarity_once() {
        // The two y nodes differ in their parents' labels, so their A(0)
        // node is exactly 0-bisimilar; every singleton is exact up to K.
        let mut b = GraphBuilder::new();
        let r = b.add_node("r");
        let x = b.add_child(r, "x");
        let z = b.add_child(r, "z");
        let y1 = b.add_child(x, "y");
        let y2 = b.add_child(z, "y");
        let w = b.add_child(y1, "w");
        b.add_ref(y2, w);
        let g = b.freeze();
        let mut ig = IndexGraph::a0(&g);
        let parts = crate::k_bisim_all(&g, 2);
        let e0 = ig.mutation_epoch();
        assert!(ig.certify_exact(&parts));
        assert_eq!(ig.mutation_epoch(), e0 + 1, "one bump for the pass");
        assert_eq!(ig.genuine(ig.node_of(y2)), 0);
        for o in [r, x, z, w] {
            assert_eq!(ig.genuine(ig.node_of(o)), 2, "{o:?} is capped at K");
        }
        assert!(
            !ig.lemma2_safe(),
            "w (2) sits more than one above its parent y (0)"
        );
        assert!(!ig.certify_exact(&parts), "a second pass raises nothing");
        assert_eq!(ig.mutation_epoch(), e0 + 1);
    }

    #[test]
    fn genuine_uniformity_certificate() {
        // Two x nodes under the same single parent node are provably
        // 1 + genuine(parent) bisimilar after a split.
        let mut b = GraphBuilder::new();
        let r = b.add_node("r");
        let a = b.add_child(r, "a");
        let x1 = b.add_child(a, "x");
        let x2 = b.add_child(a, "x");
        let y = b.add_child(r, "x"); // x in a different context
        let g = b.freeze();
        let mut ig = IndexGraph::a0(&g);
        let xl = g.labels().get("x").unwrap();
        let xn: Vec<IdxId> = ig.nodes_with_label(xl).collect();
        assert_eq!(ig.genuine(xn[0]), 0, "mixed contexts: only label-proven");
        // Split {x1,x2} from {y}: the first piece is uniform w.r.t. the
        // a-node, the second w.r.t. the r-node.
        let pieces = ig.replace_node(&g, xn[0], vec![(vec![x1, x2], 1), (vec![y], 1)]);
        assert!(ig.genuine(pieces[0]) >= 1);
        assert!(ig.genuine(pieces[1]) >= 1);
        // The root node has no parents: proven at every k.
        let rl = g.labels().get("r").unwrap();
        let rn: Vec<IdxId> = ig.nodes_with_label(rl).collect();
        assert_eq!(ig.genuine(rn[0]), 0, "from_partition assigned k = 0");
        let ext = ig.extent(rn[0]).to_vec();
        ig.replace_node(&g, rn[0], vec![(ext, 0)]);
        assert_eq!(
            ig.genuine(rn[0]),
            u32::MAX,
            "parentless: bisimilar at every k"
        );
    }

    #[test]
    fn id_reuse_keeps_invariants() {
        let g = small();
        let mut ig = IndexGraph::a0(&g);
        let b = g.labels().get("b").unwrap();
        let bn: Vec<IdxId> = ig.nodes_with_label(b).collect();
        let ext = ig.extent(bn[0]).to_vec();
        let pieces = ig.replace_node(&g, bn[0], vec![(vec![ext[0]], 1), (vec![ext[1]], 1)]);
        // merge back by splitting one piece trivially after re-merging via replace:
        // simulate further churn: split each piece again (no-op single parts)
        for &p in &pieces {
            let e = ig.extent(p).to_vec();
            ig.replace_node(&g, p, vec![(e, 2)]);
        }
        ig.check_invariants(&g);
        assert_eq!(ig.node_count(), 5);
    }

    #[test]
    fn by_label_compacts_dead_ids_eagerly() {
        // Split churn alone cannot push dead ids past the live count (every
        // split retires one id and allocates at least as many live ones),
        // so flood the list with dead ids directly and check that the next
        // kill on the label compacts it back to exactly the live ids.
        let mut b = GraphBuilder::new();
        let r = b.add_node("r");
        for _ in 0..8 {
            b.add_child(r, "x");
        }
        let g = b.freeze();
        let xl = g.labels().get("x").unwrap();
        let mut ig = IndexGraph::a0(&g);
        let xs: Vec<IdxId> = ig.nodes_with_label(xl).collect();
        assert_eq!(xs.len(), 1, "A(0) groups all x leaves");
        let dead = xs[0];
        let ext = ig.extent(dead).to_vec();
        let parts: Vec<_> = ext.chunks(2).map(|c| (c.to_vec(), 1)).collect();
        ig.replace_node(&g, dead, parts);
        assert!(!ig.is_alive(dead));
        assert_eq!(ig.live_label_count(xl), 4);
        for _ in 0..100 {
            ig.by_label[xl.index()].push(dead);
        }
        assert!(ig.label_list_len(xl) > 2 * ig.live_label_count(xl));
        // The next kill on the label triggers the eager compaction.
        let victim = ig.nodes_with_label(xl).next().unwrap();
        let e = ig.extent(victim).to_vec();
        ig.replace_node(&g, victim, vec![(vec![e[0]], 1), (vec![e[1]], 1)]);
        assert_eq!(ig.live_label_count(xl), 5);
        assert_eq!(ig.label_list_len(xl), 5, "dead ids fully compacted away");
        // Enumeration stays ascending (the frozen-snapshot parity argument
        // relies on this) and the graph is structurally intact.
        let xs: Vec<IdxId> = ig.nodes_with_label(xl).collect();
        assert_eq!(xs.len(), 5);
        assert!(xs.windows(2).all(|w| w[0] < w[1]));
        ig.check_invariants(&g);
    }
}

//! Read-only serving views over index graphs, and the evaluators shared by
//! the live and snapshot representations.
//!
//! [`IndexView`] is the narrow surface the §3.1/§4.1 query algorithms
//! need from an index: per-node attributes, induced adjacency, extents,
//! the cross-component subnode links, and label-grouped node enumeration.
//! [`crate::IndexGraph`]
//! implements it by filtering its slot arena; the compressed and paged
//! snapshot components implement it over flat arenas and posting blocks.
//! The free functions here — [`eval_view`], [`top_down_targets`],
//! [`finish_answer_view`] — are the *single* implementation of index
//! evaluation and target descent, and the hierarchy's way into the one
//! answering rule in [`crate::query`], so live and snapshot serving cannot
//! drift apart.
//!
//! ## Why answers and costs are bit-identical across views
//!
//! Freezing renumbers live slots in ascending order (a monotone map), so
//! sorted id slices map to sorted id slices elementwise and ascending
//! enumeration corresponds one-to-one. `by_label` lists are ascending too
//! (slot ids are allocated monotonically and appended), so label-grouped
//! enumeration corresponds as well. Extents are copied verbatim. Every
//! frontier, `seen`-set insertion order, memoized-validation exploration
//! order — and therefore every cost increment — is then identical between
//! the two representations.

use mrx_graph::{GraphView, LabelId, NodeId};
use mrx_pagecache::PageCache;
use mrx_path::{
    never_fails, BudgetError, BudgetMeter, CompiledPath, CompiledStep, Cost, EpochMemo, Governor,
    Ungoverned,
};
use mrx_postings::{contains_seeking, PostingId, SliceSeeker};

use crate::graph::IndexEvalScratch;
use crate::query::{self, Answer, TrustPolicy};
use crate::{IdxId, IndexGraph};

/// Read-only access to one structural index graph for query serving.
///
/// Node ids are dense in `0..slot_bound()` for snapshot implementations; the
/// live [`IndexGraph`] has dead slots below `slot_bound()`, which is why
/// enumeration goes through the `push_*` methods instead of ranges.
///
/// Extents are exposed *only* through length, first element, a full walk,
/// and bulk append — never as a slice — so implementations are free to
/// store them compressed.
pub trait IndexView {
    /// Upper bound on node ids (sizing for mark/memo arrays).
    fn slot_bound(&self) -> usize;
    /// The label of `v`.
    fn label(&self, v: IdxId) -> LabelId;
    /// The claimed local similarity `v.k`.
    fn k(&self, v: IdxId) -> u32;
    /// The proven local similarity of `v`.
    fn genuine(&self, v: IdxId) -> u32;
    /// Number of data nodes in `v`'s extent (never zero: extents partition
    /// the data nodes).
    fn extent_len(&self, v: IdxId) -> usize;
    /// The first (minimum) data node of `v`'s extent.
    fn extent_first(&self, v: IdxId) -> NodeId;
    /// Calls `f` with every data node of `v`'s extent, in ascending order,
    /// through the representation's tightest full-scan loop.
    fn for_each_extent(&self, v: IdxId, f: impl FnMut(NodeId))
    where
        Self: Sized;
    /// Appends the sorted extent of `v` to `out`.
    fn push_extent(&self, v: IdxId, out: &mut Vec<NodeId>);
    /// Sorted parent index nodes of `v`.
    fn parents(&self, v: IdxId) -> &[IdxId];
    /// Sorted child index nodes of `v`.
    fn children(&self, v: IdxId) -> &[IdxId];
    /// The index node whose extent contains the data graph's root (the
    /// anchored filter of §3.1).
    fn root_node(&self) -> IdxId;
    /// Calls `f` with the subnodes in this component of node `u` of the
    /// next-coarser component `coarse` — the §4.1 top-down step. Each
    /// subnode comes first in first-occurrence order over `u`'s extent;
    /// repeats are allowed (the descent dedups).
    fn for_each_subnode(&self, coarse: &Self, u: IdxId, f: impl FnMut(IdxId))
    where
        Self: Sized;
    /// Whether Lemma 2 applies with proven similarities (see
    /// [`IndexGraph::lemma2_safe`]).
    fn lemma2_safe(&self) -> bool;
    /// Mutation generation for answer-cache invalidation. Snapshot views are
    /// immutable and report the epoch captured at freeze time.
    fn mutation_epoch(&self) -> u64;
    /// Appends the nodes labeled `l` to `out`, in ascending id order.
    fn push_label_nodes(&self, l: LabelId, out: &mut Vec<IdxId>);
    /// Appends every node to `out`, in ascending id order.
    fn push_all_nodes(&self, out: &mut Vec<IdxId>);
    /// The page cache this view's reads fault through, where integrity
    /// failures are recorded (see [`crate::Servable::fault_cache`]); `None`
    /// for in-memory views.
    fn page_cache(&self) -> Option<&PageCache> {
        None
    }
}

impl IndexView for IndexGraph {
    fn slot_bound(&self) -> usize {
        IndexGraph::slot_bound(self)
    }

    fn label(&self, v: IdxId) -> LabelId {
        IndexGraph::label(self, v)
    }

    fn k(&self, v: IdxId) -> u32 {
        IndexGraph::k(self, v)
    }

    fn genuine(&self, v: IdxId) -> u32 {
        IndexGraph::genuine(self, v)
    }

    fn extent_len(&self, v: IdxId) -> usize {
        IndexGraph::extent(self, v).len()
    }

    fn extent_first(&self, v: IdxId) -> NodeId {
        IndexGraph::extent(self, v)[0]
    }

    fn for_each_extent(&self, v: IdxId, mut f: impl FnMut(NodeId)) {
        for &o in IndexGraph::extent(self, v) {
            f(o);
        }
    }

    fn push_extent(&self, v: IdxId, out: &mut Vec<NodeId>) {
        out.extend_from_slice(IndexGraph::extent(self, v));
    }

    fn parents(&self, v: IdxId) -> &[IdxId] {
        IndexGraph::parents(self, v)
    }

    fn children(&self, v: IdxId) -> &[IdxId] {
        IndexGraph::children(self, v)
    }

    fn root_node(&self) -> IdxId {
        IndexGraph::root_node(self)
    }

    /// The live form keeps no links: it walks `u`'s extent through
    /// `node_of`, which refinement maintains anyway.
    fn for_each_subnode(&self, coarse: &Self, u: IdxId, mut f: impl FnMut(IdxId)) {
        for &o in IndexGraph::extent(coarse, u) {
            f(IndexGraph::node_of(self, o));
        }
    }

    fn lemma2_safe(&self) -> bool {
        IndexGraph::lemma2_safe(self)
    }

    fn mutation_epoch(&self) -> u64 {
        IndexGraph::mutation_epoch(self)
    }

    fn push_label_nodes(&self, l: LabelId, out: &mut Vec<IdxId>) {
        out.extend(self.nodes_with_label(l));
    }

    fn push_all_nodes(&self, out: &mut Vec<IdxId>) {
        out.extend(self.iter());
    }
}

/// Evaluates a compiled path on any index view, returning the target set
/// (sorted) in the scratch-owned frontier and counting visited index nodes
/// into `cost`.
///
/// This is the engine behind [`IndexGraph::eval_in_place`] and the snapshot
/// serving path; cost accounting follows §5 — one visit per initial
/// frontier node, then one per *distinct* child examined per step.
pub fn eval_view<'s, I: IndexView>(
    ig: &I,
    path: &CompiledPath,
    cost: &mut Cost,
    scratch: &'s mut IndexEvalScratch,
) -> &'s [IdxId] {
    never_fails(eval_view_governed(ig, path, cost, scratch, &mut Ungoverned))
}

/// The one traversal [`eval_view`] and the budgeted §3.1 query monomorphize
/// ([`Ungoverned`] erases every budget check, so the ungoverned build is
/// identical to the pre-budget evaluator).
pub(crate) fn eval_view_governed<'s, I: IndexView, B: Governor>(
    ig: &I,
    path: &CompiledPath,
    cost: &mut Cost,
    scratch: &'s mut IndexEvalScratch,
    budget: &mut B,
) -> Result<&'s [IdxId], B::Err> {
    let IndexEvalScratch {
        seen,
        frontier,
        next,
    } = scratch;
    frontier.clear();
    match path.steps[0] {
        CompiledStep::Label(l) => ig.push_label_nodes(l, frontier),
        CompiledStep::NoSuchLabel => {}
        CompiledStep::Wildcard => ig.push_all_nodes(frontier),
    }
    if path.anchored {
        // Only index nodes containing a child of the data root qualify.
        let root_idx = ig.root_node();
        frontier.retain(|&v| contains_seeking(SliceSeeker::new(ig.parents(v)), root_idx.to_u32()));
    }
    cost.index_nodes += frontier.len() as u64;
    budget.visit(frontier.len() as u64)?;

    for step in &path.steps[1..] {
        next.clear();
        // Per-step clear is one epoch bump; distinct children per step
        // count one index-node visit each.
        seen.reset(ig.slot_bound());
        for &u in frontier.iter() {
            for &c in ig.children(u) {
                if seen.insert(c.index()) {
                    cost.index_nodes += 1;
                    budget.visit(1)?;
                    if step.matches(ig.label(c)) {
                        next.push(c);
                    }
                }
            }
        }
        std::mem::swap(frontier, next);
        if frontier.is_empty() {
            break;
        }
    }
    frontier.sort_unstable();
    Ok(frontier)
}

/// QUERYTOPDOWN's target phase (§4.1) over any component hierarchy:
/// evaluate the length-`i` prefix in component `Ii`, descending one
/// component per step. Returns the raw target set in discovery order, the
/// component level it lives in, and the cost so far.
///
/// Each step down reads the subnode links
/// ([`IndexView::for_each_subnode`]) against the shared `seen` set, so a
/// fine node reached from two frontier nodes is visited once: same set,
/// same first-occurrence order and same cost as unioning
/// [`crate::MStarIndex::subnodes`] over the frontier.
pub fn top_down_targets<I: IndexView>(
    components: &[I],
    cp: &CompiledPath,
) -> (Vec<IdxId>, usize, Cost) {
    let r = top_down_targets_governed(
        components,
        cp,
        &mut IndexEvalScratch::new(),
        &mut Ungoverned,
    );
    never_fails(r.map_err(|(never, _)| never))
}

/// [`top_down_targets`] over caller-owned scratch, under a [`BudgetMeter`].
/// Dedup goes through the epoch-stamped [`mrx_path::EpochSet`] and the
/// frontier vectors are reused, so a warmed-up caller descends without
/// touching the allocator.
pub fn top_down_targets_budgeted<I: IndexView>(
    components: &[I],
    cp: &CompiledPath,
    scratch: &mut IndexEvalScratch,
    meter: &mut BudgetMeter,
) -> Result<(Vec<IdxId>, usize, Cost), BudgetError> {
    top_down_targets_governed(components, cp, scratch, meter)
        .map_err(|(kind, cost)| BudgetMeter::exhausted(kind, &cost))
}

/// Result of a governed descent: targets, validated count, and cost on
/// success; the governor's trip error plus the partial cost on exhaustion.
type GovernedTargets<E> = Result<(Vec<IdxId>, usize, Cost), (E, Cost)>;

/// Governed descent shared by the two wrappers; trip errors carry the
/// partial cost so the caller can surface it.
pub(crate) fn top_down_targets_governed<I: IndexView, B: Governor>(
    components: &[I],
    cp: &CompiledPath,
    scratch: &mut IndexEvalScratch,
    budget: &mut B,
) -> GovernedTargets<B::Err> {
    let IndexEvalScratch {
        seen,
        frontier,
        next,
    } = scratch;
    let max_k = components.len() - 1;
    let mut cost = Cost::ZERO;
    let j = cp.length();
    let mut level = 0usize;
    frontier.clear();
    match cp.steps[0] {
        CompiledStep::Label(l) => components[0].push_label_nodes(l, frontier),
        CompiledStep::NoSuchLabel => {}
        CompiledStep::Wildcard => components[0].push_all_nodes(frontier),
    }
    cost.index_nodes += frontier.len() as u64;
    budget.visit(frontier.len() as u64).map_err(|e| (e, cost))?;
    for i in 1..=j {
        if frontier.is_empty() {
            break;
        }
        let next_level = i.min(max_k);
        if next_level > level {
            let coarse = &components[level];
            let fine = &components[next_level];
            next.clear();
            seen.reset(fine.slot_bound());
            for &u in frontier.iter() {
                // A trip stops the charging at the exact tripping visit;
                // the rest of that one row is read but ignored.
                let mut tripped = None;
                fine.for_each_subnode(coarse, u, |sub| {
                    if tripped.is_some() {
                        return;
                    }
                    if seen.insert(sub.index()) {
                        next.push(sub);
                        cost.index_nodes += 1;
                        if let Err(e) = budget.visit(1) {
                            tripped = Some(e);
                        }
                    }
                });
                if let Some(e) = tripped {
                    return Err((e, cost));
                }
            }
            std::mem::swap(frontier, next);
            level = next_level;
        }
        let comp = &components[level];
        let step = cp.steps[i];
        next.clear();
        seen.reset(comp.slot_bound());
        for &u in frontier.iter() {
            for &c in comp.children(u) {
                if seen.insert(c.index()) {
                    cost.index_nodes += 1;
                    budget.visit(1).map_err(|e| (e, cost))?;
                    if step.matches(comp.label(c)) {
                        next.push(c);
                    }
                }
            }
        }
        std::mem::swap(frontier, next);
    }
    Ok((frontier.clone(), level, cost))
}

/// Turns an index-level target set of a component hierarchy into a
/// validated [`Answer`]: the paper's answering rule
/// (`crate::query::answer_targets`) with the hierarchy's premise, under
/// which only a label-only query trusts a proven extent without a check.
pub fn finish_answer_view<I: IndexView, G: GraphView>(
    comp: &I,
    g: &G,
    cp: &CompiledPath,
    targets: Vec<IdxId>,
    cost: Cost,
    policy: TrustPolicy,
) -> Answer {
    let mut memo = EpochMemo::new();
    let r = finish_answer_view_governed(
        comp,
        g,
        cp,
        targets,
        cost,
        policy,
        &mut memo,
        &mut Ungoverned,
    );
    never_fails(r.map_err(|(never, _)| never))
}

/// [`finish_answer_view`] over a caller-owned validator memo, under a
/// [`BudgetMeter`]: validation work (data
/// nodes walked by the backward checks) charges the budget, and the result
/// set is capped by `max_result_nodes`.
#[allow(clippy::too_many_arguments)]
pub fn finish_answer_view_budgeted<I: IndexView, G: GraphView>(
    comp: &I,
    g: &G,
    cp: &CompiledPath,
    targets: Vec<IdxId>,
    cost: Cost,
    policy: TrustPolicy,
    memo: &mut EpochMemo,
    meter: &mut BudgetMeter,
) -> Result<Answer, BudgetError> {
    finish_answer_view_governed(comp, g, cp, targets, cost, policy, memo, meter)
        .map_err(|(kind, cost)| BudgetMeter::exhausted(kind, &cost))
}

/// The governed form both wrappers and the top-down query share.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_answer_view_governed<I: IndexView, G: GraphView, B: Governor>(
    comp: &I,
    g: &G,
    cp: &CompiledPath,
    targets: Vec<IdxId>,
    cost: Cost,
    policy: TrustPolicy,
    memo: &mut EpochMemo,
    budget: &mut B,
) -> Result<Answer, (B::Err, Cost)> {
    let label_only = cp.length() == 0;
    query::answer_targets(comp, g, cp, targets, cost, policy, label_only, memo, budget)
}

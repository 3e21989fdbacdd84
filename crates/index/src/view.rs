//! Read-only serving views over index graphs, and the evaluators shared by
//! the live and snapshot representations.
//!
//! [`IndexView`] is the narrow surface the §3.1/§4.1 query algorithms
//! need from an index: per-node attributes, induced adjacency, extents,
//! the cross-component subnode links, and label-grouped node enumeration.
//! [`crate::IndexGraph`]
//! implements it by filtering its slot arena; the compressed and paged
//! snapshot components implement it over flat arenas and posting blocks.
//! The free functions here — [`eval_view`], [`top_down_targets_budgeted`],
//! [`finish_answer_view`] — are the *single* implementation of index
//! evaluation and target descent, and the hierarchy's way into the one
//! answering rule in [`crate::query`], so live and snapshot serving cannot
//! drift apart.
//!
//! ## Lemma 2 per query
//!
//! Every M\*(k) strategy walks through the same three steps, over the
//! epoch sets of [`IndexEvalScratch`]: a seed, one step down to the next
//! component, and one child step inside a component. Each frontier node
//! carries one bit, set when every member of its extent is proven to
//! answer the prefix walked so far (DESIGN.md §5):
//! - `I0`'s matches start certified;
//! - a child step at position `i` certifies a matching child `c` when
//!   `genuine(c) ≥ i` and a certified frontier node leads to it;
//! - a step down passes a node's bit to its subnodes only when the finer
//!   component [nests](IndexView::nests).
//!
//! The bits leave with the targets ([`Targets`]), and the answering rule
//! trusts a proven target exactly when its bit is set.
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
    /// Whether every node of this component lies under exactly one node
    /// of the next-coarser one, with its extent inside that node's: the
    /// nesting (N) a descent needs before a subnode may inherit its
    /// supernode's Lemma 2 bit (DESIGN.md §5). Always true for the live
    /// index (Property 3).
    fn nests(&self) -> bool;
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

    fn nests(&self) -> bool {
        true
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
    let frontier = &mut scratch.frontier;
    frontier.clear();
    match path.steps[0] {
        CompiledStep::Label(l) => ig.push_label_nodes(l, frontier),
        CompiledStep::NoSuchLabel => {}
        CompiledStep::Wildcard => ig.push_all_nodes(frontier),
    }
    if path.anchored {
        // Only index nodes containing a child of the data root qualify.
        let root_idx = ig.root_node();
        frontier.retain(|&v| ig.parents(v).binary_search(&root_idx).is_ok());
    }
    cost.index_nodes += frontier.len() as u64;
    budget.visit(frontier.len() as u64)?;
    // A single graph gives no Lemma 2 bit: its premise is `lemma2_safe`.
    scratch.certify_frontier(ig, false);
    for (i, &step) in path.steps.iter().enumerate().skip(1) {
        child_step(ig, step, i, scratch, cost, budget)?;
        if scratch.frontier.is_empty() {
            break;
        }
    }
    scratch.frontier.sort_unstable();
    Ok(&scratch.frontier)
}

/// The targets of an M\*(k) strategy, in discovery order, each with its
/// Lemma 2 bit: the bit holds when the descent proved that every member
/// of the target's extent answers the expression (DESIGN.md §5, "Lemma 2
/// for the component hierarchy"), so the answering rule returns that
/// extent without a check. Only a strategy's walk sets the bits, so no
/// caller can grant trust the walk did not prove.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Targets {
    nodes: Vec<IdxId>,
    certified: Vec<bool>,
}

impl Targets {
    /// The target index nodes.
    pub fn nodes(&self) -> &[IdxId] {
        &self.nodes
    }

    /// Each target's bit, by position in [`nodes`](Self::nodes).
    pub fn certified(&self) -> &[bool] {
        &self.certified
    }
}

impl IndexEvalScratch {
    /// The frontier as a [`Targets`] set.
    pub(crate) fn targets(&self) -> Targets {
        Targets {
            nodes: self.frontier.clone(),
            certified: self
                .frontier
                .iter()
                .map(|v| self.trusted.contains(v.index()))
                .collect(),
        }
    }

    /// Sets the bit of every frontier node, in `comp`, to `certified`.
    pub(crate) fn certify_frontier<I: IndexView>(&mut self, comp: &I, certified: bool) {
        self.trusted.reset(comp.slot_bound());
        if certified {
            for v in &self.frontier {
                self.trusted.insert(v.index());
            }
        }
    }
}

/// Starts a frontier at the nodes of `comp` that `step` matches, one visit
/// each, every bit set to `certified`.
pub(crate) fn seed<I: IndexView, B: Governor>(
    comp: &I,
    step: CompiledStep,
    certified: bool,
    s: &mut IndexEvalScratch,
    cost: &mut Cost,
    budget: &mut B,
) -> Result<(), B::Err> {
    s.frontier.clear();
    match step {
        CompiledStep::Label(l) => comp.push_label_nodes(l, &mut s.frontier),
        CompiledStep::NoSuchLabel => {}
        CompiledStep::Wildcard => comp.push_all_nodes(&mut s.frontier),
    }
    s.certify_frontier(comp, certified);
    cost.index_nodes += s.frontier.len() as u64;
    budget.visit(s.frontier.len() as u64)
}

/// One step down (§4.1): the frontier in `coarse` becomes its nodes'
/// subnodes in `fine`, the next component, in first-occurrence order with
/// one visit per distinct subnode — the same set, order and cost as
/// unioning [`crate::MStarIndex::subnodes`] over the frontier. A subnode
/// inherits its supernode's bit only when `fine` [nests](IndexView::nests).
pub(crate) fn descend<I: IndexView, B: Governor>(
    coarse: &I,
    fine: &I,
    s: &mut IndexEvalScratch,
    cost: &mut Cost,
    budget: &mut B,
) -> Result<(), B::Err> {
    let IndexEvalScratch {
        seen,
        frontier,
        next,
        trusted,
        trusted_next,
        ..
    } = s;
    let nests = fine.nests();
    next.clear();
    seen.reset(fine.slot_bound());
    trusted_next.reset(fine.slot_bound());
    for &u in frontier.iter() {
        let certified = nests && trusted.contains(u.index());
        // A trip stops the charging at the exact tripping visit; the rest
        // of that one row is read but ignored.
        let mut tripped = None;
        fine.for_each_subnode(coarse, u, |sub| {
            if tripped.is_some() {
                return;
            }
            if certified {
                trusted_next.insert(sub.index());
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
            return Err(e);
        }
    }
    std::mem::swap(frontier, next);
    std::mem::swap(trusted, trusted_next);
    Ok(())
}

/// One child step inside `comp`, for `step` at position `i` of the
/// expression: the frontier becomes its distinct matching children, one
/// visit per distinct child examined. A matching child `c` is certified
/// when `genuine(c) ≥ i` and a certified frontier node leads to it, so a
/// child reached twice keeps the stronger bit.
pub(crate) fn child_step<I: IndexView, B: Governor>(
    comp: &I,
    step: CompiledStep,
    i: usize,
    s: &mut IndexEvalScratch,
    cost: &mut Cost,
    budget: &mut B,
) -> Result<(), B::Err> {
    let IndexEvalScratch {
        seen,
        frontier,
        next,
        trusted,
        trusted_next,
        reached,
    } = s;
    next.clear();
    seen.reset(comp.slot_bound());
    reached.reset(comp.slot_bound());
    for &u in frontier.iter() {
        let certified = trusted.contains(u.index());
        for &c in comp.children(u) {
            if seen.insert(c.index()) {
                cost.index_nodes += 1;
                budget.visit(1)?;
                if step.matches(comp.label(c)) {
                    next.push(c);
                }
            }
            if certified {
                reached.insert(c.index());
            }
        }
    }
    trusted_next.reset(comp.slot_bound());
    for &c in next.iter() {
        if reached.contains(c.index()) && comp.genuine(c) as usize >= i {
            trusted_next.insert(c.index());
        }
    }
    std::mem::swap(frontier, next);
    std::mem::swap(trusted, trusted_next);
    Ok(())
}

/// QUERYTOPDOWN's target phase (§4.1) over any component hierarchy:
/// evaluate the length-`i` prefix in component `Ii`, descending one
/// component per step, over caller-owned scratch and under a
/// [`BudgetMeter`]. Returns the targets in discovery order with their
/// Lemma 2 bits, the component level they live in, and the cost so far.
/// `I0`'s matches start certified. Dedup goes through the epoch-stamped
/// [`mrx_path::EpochSet`] and the frontier vectors are reused, so a
/// warmed-up caller descends without touching the allocator beyond the
/// returned set.
pub fn top_down_targets_budgeted<I: IndexView>(
    components: &[I],
    cp: &CompiledPath,
    scratch: &mut IndexEvalScratch,
    meter: &mut BudgetMeter,
) -> Result<(Targets, usize, Cost), BudgetError> {
    let (level, cost) = top_down_walk(components, cp, scratch, meter)
        .map_err(|(kind, cost)| BudgetMeter::exhausted(kind, &cost))?;
    Ok((scratch.targets(), level, cost))
}

/// The governed top-down walk behind [`top_down_targets_budgeted`],
/// leaving the targets and their bits in `s` ([`IndexEvalScratch::targets`]
/// reads them out); the hybrid strategy continues from there. Returns the
/// targets' level and the cost; a trip returns the governor's error with
/// the partial cost.
pub(crate) fn top_down_walk<I: IndexView, B: Governor>(
    components: &[I],
    cp: &CompiledPath,
    s: &mut IndexEvalScratch,
    budget: &mut B,
) -> Result<(usize, Cost), (B::Err, Cost)> {
    let max_k = components.len() - 1;
    let mut cost = Cost::ZERO;
    let mut level = 0usize;
    seed(&components[0], cp.steps[0], true, s, &mut cost, budget).map_err(|e| (e, cost))?;
    for i in 1..=cp.length() {
        if s.frontier.is_empty() {
            break;
        }
        let next_level = i.min(max_k);
        if next_level > level {
            descend(
                &components[level],
                &components[next_level],
                s,
                &mut cost,
                budget,
            )
            .map_err(|e| (e, cost))?;
            level = next_level;
        }
        child_step(&components[level], cp.steps[i], i, s, &mut cost, budget)
            .map_err(|e| (e, cost))?;
    }
    Ok((level, cost))
}

/// Turns the targets of a component hierarchy into a validated [`Answer`]:
/// the paper's answering rule (`crate::query::answer_targets`) with the
/// hierarchy's premise, under which a proven target is trusted without a
/// check exactly when its Lemma 2 bit is set. The targets must live in
/// `comp`, the component the strategy ended in.
pub fn finish_answer_view<I: IndexView, G: GraphView>(
    comp: &I,
    g: &G,
    cp: &CompiledPath,
    targets: Targets,
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
    targets: Targets,
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
    targets: Targets,
    cost: Cost,
    policy: TrustPolicy,
    memo: &mut EpochMemo,
    budget: &mut B,
) -> Result<Answer, (B::Err, Cost)> {
    let Targets { nodes, certified } = targets;
    let certified = |i: usize| certified.get(i) == Some(&true);
    query::answer_targets(comp, g, cp, nodes, cost, policy, certified, memo, budget)
}

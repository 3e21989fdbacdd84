//! Batched workload-driven adaptation for M(k), M*(k) and D(k)-promote.
//!
//! The paper's runtime loop feeds frequently used path expressions (FUPs)
//! to the index one at a time; each call re-derives the FUP's target set,
//! re-evaluates the index, and allocates fresh vectors for every split.
//! Real workloads are batches with heavy duplication — "a frequently used
//! path" is by definition sampled many times — so [`AdaptEngine`] converges
//! the index for a whole batch in one pass:
//!
//! * **Planning.** The batch is deduplicated into a worklist of distinct
//!   FUPs in first-occurrence order; each job caches its compiled path and
//!   (for the refine flavours) its ground-truth target set, evaluated once
//!   instead of once per occurrence. The plan is cached between calls and
//!   reused verbatim when the same batch is adapted again, so steady-state
//!   adaptation performs no planning allocations at all.
//! * **Convergence skipping.** A FUP is *converged* when its index-eval
//!   targets all carry sufficient local similarity — exactly the state in
//!   which the legacy per-FUP operator is a provable no-op (splits only
//!   raise `k` values and refine reachability, so convergence is preserved
//!   by later refinement; see the oracle tests). Converged jobs cost one
//!   index evaluation over reused scratch and nothing else, which is what
//!   makes duplicated workloads cheap.
//! * **Execution.** Dirty jobs run through cores that mirror the recursive
//!   REFINE / REFINENODE / PROMOTE′ / PROMOTE procedures line by line but
//!   replace every sorted-merge set operation (`pred_extent`,
//!   `succ_extent`, `intersect_sorted`, `difference_sorted`) with
//!   epoch-stamped membership marks ([`EpochSet`]) and run the per-parent
//!   splitting cascade through flat ping-pong arenas. Splitting a sorted
//!   extent by stable partition preserves sortedness, so the engine emits
//!   the *same parts in the same order* to `replace_node` as the legacy
//!   code — index-node ids are allocated in an identical sequence and the
//!   final index is bit-identical, not merely equivalent (asserted by
//!   `tests/adapt_oracle.rs`).
//! * **One observable mutation epoch per batch.** The engine snapshots the
//!   index's mutation epoch before the batch and collapses all intermediate
//!   bumps into a single one afterwards, so a [`crate::QuerySession`]
//!   invalidates its answer cache once per batch instead of once per split.
//!
//! For M*(k) the recursive REFINE* mutates several components at once and
//! lazily grows the hierarchy by cloning the most-refined component.
//! Pre-splitting or pre-growing would change the clone ancestry and break
//! bit-parity, so the M*(k) core keeps the legacy *growth schedule* (clone
//! on demand, inside the job) while still replacing the set algebra of
//! REFINENODE* and SPLITNODE* with marks and arenas like the other cores.
//! Truth sets are shared across duplicates and computed once per distinct
//! FUP on the calling thread.
//!
//! **Exact similarity.** After each M*(k) batch the engine raises every
//! node of every component to its exact similarity, the largest `j ≤ K`
//! (`K` the hierarchy's `max_k`) such that the node's extent lies in one
//! `≈j` block ([`MStarIndex::certify_exact`]). The sound query policy
//! trusts only these proven values, so a certified node skips full-extent
//! validation wherever the index really is precise. The engine holds the
//! `≈0 ..= ≈K` partitions of its graph: they are built once, on one
//! thread beside the sequential job loop, and extended only when `K`
//! grows, so a long-lived engine pays for them once.
//!
//! An engine is tied to the [`DataGraph`] it first plans against (compiled
//! paths, truth sets and partitions are graph-specific); use one engine per
//! document.

use mrx_graph::{DataGraph, NodeId};
use mrx_path::{CompiledPath, Cost, EpochSet, EvalScratch, PathExpr};

use crate::graph::IndexEvalScratch;
use crate::refine::{RefineStats, Refiner};
use crate::{label_partition, DkIndex, IdxId, IndexGraph, MStarIndex, MkIndex, Partition};

/// One planned unit of adaptation work: a distinct FUP of the batch.
struct Job {
    fup: PathExpr,
    cp: CompiledPath,
    /// Ground-truth target set in the data graph (empty for the promote
    /// flavour, which never consults it, and for length-0 no-op jobs).
    truth: Vec<NodeId>,
    len: u32,
}

/// The deduplicated worklist for one batch, cached between calls.
struct Plan {
    /// The exact batch this plan was built for (compared verbatim).
    key: Vec<PathExpr>,
    with_truth: bool,
    jobs: Vec<Job>,
}

/// Pooled scratch shared by all cores. Buffers are taken and returned
/// around each use; the pools only grow while the recursion is deeper than
/// ever before, so steady-state adaptation allocates nothing.
#[derive(Default)]
struct AdaptScratch {
    probe: IndexEvalScratch,
    truth_scratch: EvalScratch,
    truth_mark: EpochSet,
    sets: Vec<EpochSet>,
    node_bufs: Vec<Vec<NodeId>>,
    idx_bufs: Vec<Vec<IdxId>>,
    bound_bufs: Vec<Vec<(u32, u32)>>,
}

impl AdaptScratch {
    fn take_set(&mut self, stats: &mut RefineStats) -> EpochSet {
        match self.sets.pop() {
            Some(s) => {
                stats.scratch_reuses += 1;
                s
            }
            None => {
                stats.scratch_allocs += 1;
                EpochSet::new()
            }
        }
    }

    fn put_set(&mut self, s: EpochSet) {
        self.sets.push(s);
    }

    fn take_nodes(&mut self, stats: &mut RefineStats) -> Vec<NodeId> {
        match self.node_bufs.pop() {
            Some(mut v) => {
                stats.scratch_reuses += 1;
                v.clear();
                v
            }
            None => {
                stats.scratch_allocs += 1;
                Vec::new()
            }
        }
    }

    fn put_nodes(&mut self, v: Vec<NodeId>) {
        self.node_bufs.push(v);
    }

    fn take_idx(&mut self, stats: &mut RefineStats) -> Vec<IdxId> {
        match self.idx_bufs.pop() {
            Some(mut v) => {
                stats.scratch_reuses += 1;
                v.clear();
                v
            }
            None => {
                stats.scratch_allocs += 1;
                Vec::new()
            }
        }
    }

    fn put_idx(&mut self, v: Vec<IdxId>) {
        self.idx_bufs.push(v);
    }

    fn take_bounds(&mut self, stats: &mut RefineStats) -> Vec<(u32, u32)> {
        match self.bound_bufs.pop() {
            Some(mut v) => {
                stats.scratch_reuses += 1;
                v.clear();
                v
            }
            None => {
                stats.scratch_allocs += 1;
                Vec::new()
            }
        }
    }

    fn put_bounds(&mut self, v: Vec<(u32, u32)>) {
        self.bound_bufs.push(v);
    }
}

/// The batched adaptation engine. See the module docs for the design.
pub struct AdaptEngine {
    stats: RefineStats,
    plan: Option<Plan>,
    scratch: AdaptScratch,
    /// `≈0 ..= ≈K` of the engine's data graph (index `j` holds `≈j`), for
    /// the exact-similarity certificate; extended only when K grows.
    similarity: Vec<Partition>,
}

impl Default for AdaptEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaptEngine {
    /// A fresh engine with no plan, scratch or partitions yet.
    pub fn new() -> Self {
        AdaptEngine {
            stats: RefineStats::default(),
            plan: None,
            scratch: AdaptScratch::default(),
            similarity: Vec::new(),
        }
    }

    /// Scratch/plan reuse counters (`scratch_allocs`, `scratch_reuses`).
    pub fn stats(&self) -> &RefineStats {
        &self.stats
    }

    /// Batched M(k) adaptation: equivalent to `refine_for` on every batch
    /// element in order, bit-identically (see module docs).
    pub fn adapt_mk(&mut self, g: &DataGraph, idx: &mut MkIndex, batch: &[PathExpr]) {
        self.prepare_plan(g, batch, true);
        let plan = self.plan.take().expect("plan prepared above");
        let e0 = idx.ig.epoch_snapshot();
        for job in &plan.jobs {
            if job.len == 0 {
                continue; // A(0) granularity already answers single labels
            }
            if converged(&idx.ig, g, job, &mut self.scratch.probe) {
                self.stats.scratch_reuses += 1;
                continue;
            }
            MkCore {
                g,
                ig: &mut idx.ig,
                breaks: &mut idx.false_instance_breaks,
                scratch: &mut self.scratch,
                stats: &mut self.stats,
            }
            .refine(job);
        }
        idx.ig.collapse_epoch(e0);
        self.plan = Some(plan);
    }

    /// Batched D(k)-promote adaptation: equivalent to `promote_for` on
    /// every batch element in order, bit-identically.
    pub fn adapt_dk(&mut self, g: &DataGraph, idx: &mut DkIndex, batch: &[PathExpr]) {
        self.prepare_plan(g, batch, false);
        let plan = self.plan.take().expect("plan prepared above");
        let e0 = idx.ig.epoch_snapshot();
        for job in &plan.jobs {
            if job.len == 0 {
                continue;
            }
            if converged(&idx.ig, g, job, &mut self.scratch.probe) {
                self.stats.scratch_reuses += 1;
                continue;
            }
            DkCore {
                g,
                ig: &mut idx.ig,
                scratch: &mut self.scratch,
                stats: &mut self.stats,
            }
            .promote_for(job);
        }
        idx.ig.collapse_epoch(e0);
        self.plan = Some(plan);
    }

    /// Batched M*(k) adaptation: equivalent to `refine_for` on every batch
    /// element in order followed by [`MStarIndex::certify_exact`],
    /// bit-identically. Dirty jobs run through the mark-based REFINE*
    /// mirror (which keeps the legacy on-demand growth schedule — see
    /// module docs), with dedup, shared truths, convergence skipping and a
    /// single observable epoch bump per pre-existing component.
    pub fn adapt_mstar(&mut self, g: &DataGraph, idx: &mut MStarIndex, batch: &[PathExpr]) {
        self.prepare_plan(g, batch, true);
        let plan = self.plan.take().expect("plan prepared above");
        let snapshots: Vec<u64> = idx
            .components
            .iter()
            .map(IndexGraph::epoch_snapshot)
            .collect();
        // REFINE* never skips a job the hierarchy is too short for, so the
        // batch ends at exactly this height. Partitions it lacks are built
        // on one thread beside the sequential job loop.
        let height = plan
            .jobs
            .iter()
            .map(|j| j.len as usize)
            .fold(idx.max_k(), usize::max);
        let mut parts = std::mem::take(&mut self.similarity);
        std::thread::scope(|s| {
            if height > 0 && !covers(&parts, g, height) {
                s.spawn(|| extend_partitions(g, &mut parts, height));
            }
            self.run_mstar_jobs(g, idx, &plan);
        });
        debug_assert_eq!(idx.max_k(), height);
        idx.certify_exact(&parts);
        self.similarity = parts;
        for (comp, &e0) in idx.components.iter_mut().zip(&snapshots) {
            comp.collapse_epoch(e0);
        }
        self.plan = Some(plan);
    }

    /// The M*(k) job loop: skips converged jobs, runs the rest through
    /// [`MStarCore`].
    fn run_mstar_jobs(&mut self, g: &DataGraph, idx: &mut MStarIndex, plan: &Plan) {
        for job in &plan.jobs {
            if job.len == 0 {
                continue;
            }
            let len = job.len as usize;
            // Converged only once the hierarchy is tall enough: REFINE*
            // grows components before looking at similarities.
            if idx.components.len() > len {
                let mut cost = Cost::ZERO;
                let clean = idx.components[len]
                    .eval_in_place(g, &job.cp, &mut cost, &mut self.scratch.probe)
                    .iter()
                    .all(|&t| idx.components[len].k(t) >= job.len);
                if clean {
                    self.stats.scratch_reuses += 1;
                    continue;
                }
            }
            MStarCore {
                g,
                components: &mut idx.components,
                breaks: &mut idx.false_instance_breaks,
                scratch: &mut self.scratch,
                stats: &mut self.stats,
            }
            .refine(job);
        }
    }

    /// Builds or reuses the worklist for `batch`.
    fn prepare_plan(&mut self, g: &DataGraph, batch: &[PathExpr], with_truth: bool) {
        if let Some(p) = &self.plan {
            if p.with_truth == with_truth && p.key == batch {
                self.stats.scratch_reuses += 1;
                return;
            }
        }
        self.stats.scratch_allocs += 1;
        let mut jobs: Vec<Job> = Vec::new();
        for f in batch {
            if jobs.iter().any(|j| &j.fup == f) {
                continue;
            }
            let cp = f.compile(g);
            let len = f.length() as u32;
            let truth = if with_truth && len > 0 {
                mrx_path::eval_data_with(g, &cp, &mut self.scratch.truth_scratch)
            } else {
                Vec::new()
            };
            jobs.push(Job {
                fup: f.clone(),
                cp,
                truth,
                len,
            });
        }
        self.plan = Some(Plan {
            key: batch.to_vec(),
            with_truth,
            jobs,
        });
    }
}

/// Whether `parts` holds `≈0 ..= ≈k` of `g`.
fn covers(parts: &[Partition], g: &DataGraph, k: usize) -> bool {
    parts.len() > k && parts[0].block_of.len() == g.node_count()
}

/// Extends `parts` to `≈0 ..= ≈k` of `g` with a [`Refiner`],
/// continuing from the finest partition already held (a set built over
/// another graph is dropped first).
fn extend_partitions(g: &DataGraph, parts: &mut Vec<Partition>, k: usize) {
    if !covers(parts, g, 0) {
        parts.clear();
    }
    let start = parts.pop().unwrap_or_else(|| label_partition(g));
    let mut r = Refiner::from_partition(g, start.clone());
    parts.push(start);
    while parts.len() <= k {
        r.step();
        parts.push(r.partition().clone());
    }
}

/// Whether `job` is already answered with sufficient similarity — the
/// state in which the legacy per-FUP operator is a no-op.
fn converged(ig: &IndexGraph, g: &DataGraph, job: &Job, probe: &mut IndexEvalScratch) -> bool {
    let mut cost = Cost::ZERO;
    ig.eval_in_place(g, &job.cp, &mut cost, probe)
        .iter()
        .all(|&t| ig.k(t) >= job.len)
}

/// Marks the parents (in the data graph) of every node in `members`.
fn mark_parents(g: &DataGraph, members: &[NodeId], mark: &mut EpochSet) {
    mark.reset(g.node_count());
    for &o in members {
        for &p in g.parents(o) {
            mark.insert(p.index());
        }
    }
}

/// Marks the children (in the data graph) of every node in `members`.
fn mark_children(g: &DataGraph, members: &[NodeId], mark: &mut EpochSet) {
    mark.reset(g.node_count());
    for &o in members {
        for &c in g.children(o) {
            mark.insert(c.index());
        }
    }
}

/// Splits every part in `(flat_a, bounds_a)` into the members inside
/// `mark` followed by the members outside it, writing to `(flat_b,
/// bounds_b)` and swapping the ping-pong pair. Stable partition of a
/// sorted slice keeps both pieces sorted, matching the legacy
/// `intersect_sorted` / `difference_sorted` pair exactly.
fn split_parts_by(
    mark: &EpochSet,
    flat_a: &mut Vec<NodeId>,
    bounds_a: &mut Vec<(u32, u32)>,
    flat_b: &mut Vec<NodeId>,
    bounds_b: &mut Vec<(u32, u32)>,
) {
    flat_b.clear();
    bounds_b.clear();
    for &(lo, hi) in bounds_a.iter() {
        let part = &flat_a[lo as usize..hi as usize];
        let start = flat_b.len() as u32;
        flat_b.extend(part.iter().copied().filter(|o| mark.contains(o.index())));
        let mid = flat_b.len() as u32;
        flat_b.extend(part.iter().copied().filter(|o| !mark.contains(o.index())));
        let end = flat_b.len() as u32;
        if mid > start {
            bounds_b.push((start, mid));
        }
        if end > mid {
            bounds_b.push((mid, end));
        }
    }
    std::mem::swap(flat_a, flat_b);
    std::mem::swap(bounds_a, bounds_b);
}

/// Mirror of [`MkIndex`]'s REFINE / REFINENODE / PROMOTE′ recursion over
/// pooled scratch. Field-level borrows keep the index graph and the
/// scratch pools independently mutable.
struct MkCore<'a> {
    g: &'a DataGraph,
    ig: &'a mut IndexGraph,
    breaks: &'a mut u64,
    scratch: &'a mut AdaptScratch,
    stats: &'a mut RefineStats,
}

impl MkCore<'_> {
    /// REFINE(l, S, T) — mirrors `MkIndex::refine` for a non-converged job.
    fn refine(&mut self, job: &Job) {
        let len = job.len;
        let mut cost = Cost::ZERO;

        // The truth marks outlive the whole job: `truth` is immutable.
        self.scratch.truth_mark.reset(self.g.node_count());
        for &o in &job.truth {
            self.scratch.truth_mark.insert(o.index());
        }

        let mut s = self.scratch.take_idx(self.stats);
        let targets = self
            .ig
            .eval_in_place(self.g, &job.cp, &mut cost, &mut self.scratch.probe);
        s.extend_from_slice(targets);
        for &v in &s {
            if !self.ig.is_alive(v) {
                continue; // split while processing an earlier target node
            }
            if self.ig.k(v) >= len {
                continue; // REFINENODE would return without touching it
            }
            let mut relevant = self.scratch.take_nodes(self.stats);
            relevant.extend(
                self.ig
                    .extent(v)
                    .iter()
                    .copied()
                    .filter(|o| self.scratch.truth_mark.contains(o.index())),
            );
            self.refine_node(v, len, &relevant);
            self.scratch.put_nodes(relevant);
        }
        self.scratch.put_idx(s);

        loop {
            let found = {
                let targets =
                    self.ig
                        .eval_in_place(self.g, &job.cp, &mut cost, &mut self.scratch.probe);
                targets.iter().copied().find(|&t| self.ig.k(t) < len)
            };
            let Some(v) = found else {
                break;
            };
            *self.breaks += 1;
            self.promote_break(v, len, job);
        }
    }

    /// REFINENODE(v, k, relevantData) — mirrors `MkIndex::refine_node`.
    fn refine_node(&mut self, v: IdxId, k: u32, relevant: &[NodeId]) {
        if !self.ig.is_alive(v) {
            self.redispatch_refine(relevant, k);
            return;
        }
        if self.ig.k(v) >= k || relevant.is_empty() {
            return;
        }
        // `Pred(relevant)` is a data-graph property: it stays valid across
        // every index mutation this call performs, exactly like the legacy
        // code's one-shot `pred_extent`.
        let mut pred = self.scratch.take_set(self.stats);
        mark_parents(self.g, relevant, &mut pred);

        if k >= 1 {
            loop {
                if !self.ig.is_alive(v) {
                    self.scratch.put_set(pred);
                    self.redispatch_refine(relevant, k);
                    return;
                }
                let next = self.ig.parents(v).iter().copied().find(|&u| {
                    self.ig.k(u) + 1 < k
                        && self.ig.extent(u).iter().any(|o| pred.contains(o.index()))
                });
                match next {
                    Some(u) => {
                        let mut pd = self.scratch.take_nodes(self.stats);
                        pd.extend(
                            self.ig
                                .extent(u)
                                .iter()
                                .copied()
                                .filter(|o| pred.contains(o.index())),
                        );
                        self.refine_node(u, k - 1, &pd);
                        self.scratch.put_nodes(pd);
                    }
                    None => break,
                }
            }
        }

        let kold = self.ig.k(v);
        let mut qualifying = self.scratch.take_idx(self.stats);
        qualifying.extend(
            self.ig
                .parents(v)
                .iter()
                .copied()
                .filter(|&u| self.ig.extent(u).iter().any(|o| pred.contains(o.index()))),
        );
        self.scratch.put_set(pred);

        let mut flat_a = self.scratch.take_nodes(self.stats);
        let mut bounds_a = self.scratch.take_bounds(self.stats);
        let mut flat_b = self.scratch.take_nodes(self.stats);
        let mut bounds_b = self.scratch.take_bounds(self.stats);
        flat_a.extend_from_slice(self.ig.extent(v));
        bounds_a.push((0, flat_a.len() as u32));
        let mut succ = self.scratch.take_set(self.stats);
        for &u in &qualifying {
            mark_children(self.g, self.ig.extent(u), &mut succ);
            split_parts_by(
                &succ,
                &mut flat_a,
                &mut bounds_a,
                &mut flat_b,
                &mut bounds_b,
            );
        }

        // Pieces holding relevant data get the new similarity; the rest
        // merge back into one remainder keeping the old one.
        mark_members(relevant, self.g.node_count(), &mut succ);
        let mut final_parts: Vec<(Vec<NodeId>, u32)> = Vec::new();
        let mut remainder: Vec<NodeId> = Vec::new();
        for &(lo, hi) in bounds_a.iter() {
            let part = &flat_a[lo as usize..hi as usize];
            if part.iter().any(|o| succ.contains(o.index())) {
                final_parts.push((part.to_vec(), k));
            } else {
                remainder.extend_from_slice(part);
            }
        }
        if !remainder.is_empty() {
            remainder.sort_unstable();
            final_parts.push((remainder, kold));
        }
        self.scratch.put_set(succ);
        self.scratch.put_idx(qualifying);
        self.scratch.put_nodes(flat_a);
        self.scratch.put_nodes(flat_b);
        self.scratch.put_bounds(bounds_a);
        self.scratch.put_bounds(bounds_b);
        self.ig.replace_node(self.g, v, final_parts);
    }

    /// Mirrors `MkIndex::redispatch_refine`.
    fn redispatch_refine(&mut self, relevant: &[NodeId], k: u32) {
        let mut seen = self.scratch.take_idx(self.stats);
        for &o in relevant {
            let n = self.ig.node_of(o);
            if !seen.contains(&n) {
                seen.push(n);
            }
        }
        for &n in &seen {
            if self.ig.is_alive(n) && self.ig.k(n) < k {
                let mut rel = self.scratch.take_nodes(self.stats);
                rel.extend(
                    self.ig
                        .extent(n)
                        .iter()
                        .copied()
                        .filter(|o| relevant.binary_search(o).is_ok()),
                );
                self.refine_node(n, k, &rel);
                self.scratch.put_nodes(rel);
            }
        }
        self.scratch.put_idx(seen);
    }

    /// PROMOTE′(v, kv) — mirrors `MkIndex::promote_break`.
    fn promote_break(&mut self, v: IdxId, kv: u32, job: &Job) -> bool {
        if !self.ig.is_alive(v) {
            return self.clean_for(job);
        }
        if self.ig.k(v) >= kv {
            return false;
        }
        let mut extent0 = self.scratch.take_nodes(self.stats);
        extent0.extend_from_slice(self.ig.extent(v));
        if kv >= 1 {
            loop {
                if !self.ig.is_alive(v) {
                    let mut seen = self.scratch.take_idx(self.stats);
                    for &o in &extent0 {
                        let n = self.ig.node_of(o);
                        if !seen.contains(&n) {
                            seen.push(n);
                        }
                    }
                    for i in 0..seen.len() {
                        let n = seen[i];
                        if self.clean_for(job) {
                            self.scratch.put_idx(seen);
                            self.scratch.put_nodes(extent0);
                            return true;
                        }
                        if self.ig.is_alive(n)
                            && self.ig.k(n) < kv
                            && self.promote_break(n, kv, job)
                        {
                            self.scratch.put_idx(seen);
                            self.scratch.put_nodes(extent0);
                            return true;
                        }
                    }
                    self.scratch.put_idx(seen);
                    self.scratch.put_nodes(extent0);
                    return self.clean_for(job);
                }
                let next = self
                    .ig
                    .parents(v)
                    .iter()
                    .copied()
                    .find(|&u| self.ig.k(u) + 1 < kv);
                match next {
                    Some(u) => {
                        if self.promote_break(u, kv - 1, job) {
                            self.scratch.put_nodes(extent0);
                            return true;
                        }
                    }
                    None => break,
                }
            }
        }
        self.scratch.put_nodes(extent0);

        let mut parents = self.scratch.take_idx(self.stats);
        parents.extend_from_slice(self.ig.parents(v));
        let mut flat_a = self.scratch.take_nodes(self.stats);
        let mut bounds_a = self.scratch.take_bounds(self.stats);
        let mut flat_b = self.scratch.take_nodes(self.stats);
        let mut bounds_b = self.scratch.take_bounds(self.stats);
        flat_a.extend_from_slice(self.ig.extent(v));
        bounds_a.push((0, flat_a.len() as u32));
        let mut succ = self.scratch.take_set(self.stats);
        for &u in &parents {
            mark_children(self.g, self.ig.extent(u), &mut succ);
            split_parts_by(
                &succ,
                &mut flat_a,
                &mut bounds_a,
                &mut flat_b,
                &mut bounds_b,
            );
        }
        let final_parts: Vec<(Vec<NodeId>, u32)> = bounds_a
            .iter()
            .map(|&(lo, hi)| (flat_a[lo as usize..hi as usize].to_vec(), kv))
            .collect();
        self.scratch.put_set(succ);
        self.scratch.put_idx(parents);
        self.scratch.put_nodes(flat_a);
        self.scratch.put_nodes(flat_b);
        self.scratch.put_bounds(bounds_a);
        self.scratch.put_bounds(bounds_b);
        self.ig.replace_node(self.g, v, final_parts);
        self.clean_for(job)
    }

    /// Mirrors `MkIndex::clean_for` over the reused eval probe.
    fn clean_for(&mut self, job: &Job) -> bool {
        let mut cost = Cost::ZERO;
        self.ig
            .eval_in_place(self.g, &job.cp, &mut cost, &mut self.scratch.probe)
            .iter()
            .all(|&t| self.ig.k(t) >= job.len)
    }
}

/// Marks every member of `members` in `mark` (over the id space `0..n`).
fn mark_members(members: &[NodeId], n: usize, mark: &mut EpochSet) {
    mark.reset(n);
    for &o in members {
        mark.insert(o.index());
    }
}

/// Mirror of [`DkIndex`]'s PROMOTE recursion over pooled scratch.
struct DkCore<'a> {
    g: &'a DataGraph,
    ig: &'a mut IndexGraph,
    scratch: &'a mut AdaptScratch,
    stats: &'a mut RefineStats,
}

impl DkCore<'_> {
    /// Mirrors `DkIndex::promote_for` for a non-converged job.
    fn promote_for(&mut self, job: &Job) {
        let kv = job.len;
        loop {
            let mut cost = Cost::ZERO;
            let found = {
                let targets =
                    self.ig
                        .eval_in_place(self.g, &job.cp, &mut cost, &mut self.scratch.probe);
                targets.iter().copied().find(|&t| self.ig.k(t) < kv)
            };
            let Some(v) = found else {
                break;
            };
            self.promote(v, kv);
        }
    }

    /// PROMOTE(v, kv) — mirrors `DkIndex::promote`.
    fn promote(&mut self, v: IdxId, kv: u32) {
        if !self.ig.is_alive(v) || self.ig.k(v) >= kv {
            return;
        }
        let mut extent0 = self.scratch.take_nodes(self.stats);
        extent0.extend_from_slice(self.ig.extent(v));

        if kv >= 1 {
            loop {
                if !self.ig.is_alive(v) {
                    self.redispatch(&extent0, kv);
                    self.scratch.put_nodes(extent0);
                    return;
                }
                let next = self
                    .ig
                    .parents(v)
                    .iter()
                    .copied()
                    .find(|&u| self.ig.k(u) + 1 < kv);
                match next {
                    Some(u) => self.promote(u, kv - 1),
                    None => break,
                }
            }
        }
        self.scratch.put_nodes(extent0);

        let mut parents = self.scratch.take_idx(self.stats);
        parents.extend_from_slice(self.ig.parents(v));
        let mut flat_a = self.scratch.take_nodes(self.stats);
        let mut bounds_a = self.scratch.take_bounds(self.stats);
        let mut flat_b = self.scratch.take_nodes(self.stats);
        let mut bounds_b = self.scratch.take_bounds(self.stats);
        flat_a.extend_from_slice(self.ig.extent(v));
        bounds_a.push((0, flat_a.len() as u32));
        let mut succ = self.scratch.take_set(self.stats);
        for &u in &parents {
            mark_children(self.g, self.ig.extent(u), &mut succ);
            split_parts_by(
                &succ,
                &mut flat_a,
                &mut bounds_a,
                &mut flat_b,
                &mut bounds_b,
            );
        }
        let final_parts: Vec<(Vec<NodeId>, u32)> = bounds_a
            .iter()
            .map(|&(lo, hi)| (flat_a[lo as usize..hi as usize].to_vec(), kv))
            .collect();
        self.scratch.put_set(succ);
        self.scratch.put_idx(parents);
        self.scratch.put_nodes(flat_a);
        self.scratch.put_nodes(flat_b);
        self.scratch.put_bounds(bounds_a);
        self.scratch.put_bounds(bounds_b);
        self.ig.replace_node(self.g, v, final_parts);
    }

    /// Mirrors `DkIndex::redispatch`.
    fn redispatch(&mut self, extent: &[NodeId], kv: u32) {
        let mut seen = self.scratch.take_idx(self.stats);
        for &o in extent {
            let n = self.ig.node_of(o);
            if !seen.contains(&n) {
                seen.push(n);
            }
        }
        for &n in &seen {
            if self.ig.is_alive(n) && self.ig.k(n) < kv {
                self.promote(n, kv);
            }
        }
        self.scratch.put_idx(seen);
    }
}

/// Mirror of [`MStarIndex`]'s REFINE* / REFINENODE* / SPLITNODE* recursion
/// over pooled scratch. The hierarchy keeps the legacy growth schedule
/// (components cloned on demand at the start of each job), so clone
/// ancestry — and with it index-node id allocation — is bit-identical to
/// the sequential oracle.
struct MStarCore<'a> {
    g: &'a DataGraph,
    components: &'a mut Vec<IndexGraph>,
    breaks: &'a mut u64,
    scratch: &'a mut AdaptScratch,
    stats: &'a mut RefineStats,
}

impl MStarCore<'_> {
    /// REFINE*(l, S, T) — mirrors `MStarIndex::refine` for a dirty job.
    fn refine(&mut self, job: &Job) {
        let len = job.len as usize;
        let mut cost = Cost::ZERO;
        // Lines 1–3: grow the hierarchy by copying the last component.
        while self.components.len() <= len {
            let copy = self.components.last().expect("at least I0").clone();
            self.components.push(copy);
        }
        // The truth marks outlive the whole job: `truth` is immutable.
        self.scratch.truth_mark.reset(self.g.node_count());
        for &o in &job.truth {
            self.scratch.truth_mark.insert(o.index());
        }
        // Lines 4–6: refine every target node in I_len.
        let mut s = self.scratch.take_idx(self.stats);
        let targets =
            self.components[len].eval_in_place(self.g, &job.cp, &mut cost, &mut self.scratch.probe);
        s.extend_from_slice(targets);
        for &v in &s {
            if !self.components[len].is_alive(v) {
                continue;
            }
            if self.components[len].k(v) >= job.len {
                continue; // REFINENODE* would return without touching it
            }
            let mut relevant = self.scratch.take_nodes(self.stats);
            relevant.extend(
                self.components[len]
                    .extent(v)
                    .iter()
                    .copied()
                    .filter(|o| self.scratch.truth_mark.contains(o.index())),
            );
            self.refine_node(len, v, &relevant, None);
            self.scratch.put_nodes(relevant);
        }
        self.scratch.put_idx(s);
        // Lines 7–8: break remaining false instances with PROMOTE*.
        loop {
            let found = {
                let targets = self.components[len].eval_in_place(
                    self.g,
                    &job.cp,
                    &mut cost,
                    &mut self.scratch.probe,
                );
                targets
                    .iter()
                    .copied()
                    .find(|&t| self.components[len].k(t) < job.len)
            };
            let Some(v) = found else {
                break;
            };
            *self.breaks += 1;
            let mut relevant = self.scratch.take_nodes(self.stats);
            relevant.extend_from_slice(self.components[len].extent(v));
            self.refine_node(len, v, &relevant, Some(job));
            self.scratch.put_nodes(relevant);
        }
    }

    /// The supernode of `v ∈ I_i` in `I_{i-1}`.
    fn supernode(&self, i: usize, v: IdxId) -> IdxId {
        let first = self.components[i].extent(v)[0];
        self.components[i - 1].node_of(first)
    }

    /// REFINENODE*(v, k, relevantData) — mirrors `MStarIndex::refine_node`.
    /// With `exit` set this is PROMOTE*, long-jumping out (returning
    /// `true`) as soon as no false instance of the exit path remains.
    fn refine_node(&mut self, k: usize, v: IdxId, relevant: &[NodeId], exit: Option<&Job>) -> bool {
        if !self.components[k].is_alive(v) {
            return self.redispatch(k, relevant, exit);
        }
        if self.components[k].k(v) >= k as u32 || relevant.is_empty() {
            return false;
        }
        let mut pred = self.scratch.take_set(self.stats);
        mark_parents(self.g, relevant, &mut pred);

        // Lines 2–7: recursively refine parents of supernode(v) in I_{k-1}
        // that contain parents of the relevant data.
        if k >= 1 {
            loop {
                if !self.components[k].is_alive(v) {
                    self.scratch.put_set(pred);
                    return self.redispatch(k, relevant, exit);
                }
                let sp = self.supernode(k, v);
                let coarse = &self.components[k - 1];
                let next = coarse.parents(sp).iter().copied().find(|&u| {
                    coarse.k(u) + 1 < k as u32
                        && coarse.extent(u).iter().any(|o| pred.contains(o.index()))
                });
                match next {
                    Some(u) => {
                        let mut pd = self.scratch.take_nodes(self.stats);
                        pd.extend(
                            self.components[k - 1]
                                .extent(u)
                                .iter()
                                .copied()
                                .filter(|o| pred.contains(o.index())),
                        );
                        let hit = self.refine_node(k - 1, u, &pd, exit);
                        self.scratch.put_nodes(pd);
                        if hit {
                            self.scratch.put_set(pred);
                            return true;
                        }
                    }
                    None => break,
                }
            }
        }
        self.scratch.put_set(pred);

        // Lines 9–13: split the ancestor supernodes level by level,
        // propagating each change to all finer components immediately.
        // `relevant` is fixed for the whole frame, so one membership mark
        // replaces every per-holder sorted intersection.
        let mut rel_mark = self.scratch.take_set(self.stats);
        mark_members(relevant, self.g.node_count(), &mut rel_mark);
        for i in 1..=k {
            let mut holders = self.scratch.take_idx(self.stats);
            let mut seen = self.scratch.take_set(self.stats);
            seen.reset(self.components[i].slot_bound());
            for &o in relevant {
                let p = self.components[i].node_of(o);
                if self.components[i].k(p) < i as u32 && seen.insert(p.index()) {
                    holders.push(p);
                }
            }
            self.scratch.put_set(seen);
            for hi in 0..holders.len() {
                let p = holders[hi];
                if !self.components[i].is_alive(p) {
                    continue; // split while handling a sibling holder
                }
                let mut rel = self.scratch.take_nodes(self.stats);
                rel.extend(
                    self.components[i]
                        .extent(p)
                        .iter()
                        .copied()
                        .filter(|o| rel_mark.contains(o.index())),
                );
                if rel.is_empty() {
                    self.scratch.put_nodes(rel);
                    continue;
                }
                self.split_node(i, p, &rel);
                self.scratch.put_nodes(rel);
                if let Some(job) = exit {
                    if self.clean_for(job) {
                        self.scratch.put_idx(holders);
                        self.scratch.put_set(rel_mark);
                        return true;
                    }
                }
            }
            self.scratch.put_idx(holders);
        }
        self.scratch.put_set(rel_mark);
        false
    }

    /// Mirrors `MStarIndex::redispatch`.
    fn redispatch(&mut self, k: usize, relevant: &[NodeId], exit: Option<&Job>) -> bool {
        let mut seen = self.scratch.take_idx(self.stats);
        let mut mark = self.scratch.take_set(self.stats);
        mark.reset(self.components[k].slot_bound());
        for &o in relevant {
            let n = self.components[k].node_of(o);
            if mark.insert(n.index()) {
                seen.push(n);
            }
        }
        self.scratch.put_set(mark);
        for si in 0..seen.len() {
            let n = seen[si];
            if self.components[k].is_alive(n) && self.components[k].k(n) < k as u32 {
                let mut rel_mark = self.scratch.take_set(self.stats);
                mark_members(relevant, self.g.node_count(), &mut rel_mark);
                let mut rel = self.scratch.take_nodes(self.stats);
                rel.extend(
                    self.components[k]
                        .extent(n)
                        .iter()
                        .copied()
                        .filter(|o| rel_mark.contains(o.index())),
                );
                self.scratch.put_set(rel_mark);
                let hit = self.refine_node(k, n, &rel, exit);
                self.scratch.put_nodes(rel);
                if hit {
                    self.scratch.put_idx(seen);
                    return true;
                }
            }
        }
        self.scratch.put_idx(seen);
        false
    }

    /// SPLITNODE*(p ∈ I_i, i, relevantData) — mirrors
    /// `MStarIndex::split_node` through the ping-pong arena. The qualifying
    /// coarse parents are found by marking the coarse nodes that hold the
    /// relevant data's parents, not by scanning each coarse extent.
    fn split_node(&mut self, i: usize, p: IdxId, relevant: &[NodeId]) {
        debug_assert!(i >= 1);
        let kold = self.components[i].k(p);
        let mut old_extent = self.scratch.take_nodes(self.stats);
        old_extent.extend_from_slice(self.components[i].extent(p));
        let sp = self.supernode(i, p);
        let coarse = &self.components[i - 1];
        let mut held = self.scratch.take_set(self.stats);
        held.reset(coarse.slot_bound());
        for &o in relevant {
            for &x in self.g.parents(o) {
                held.insert(coarse.node_of(x).index());
            }
        }
        let mut qualifying = self.scratch.take_idx(self.stats);
        qualifying.extend(
            coarse
                .parents(sp)
                .iter()
                .copied()
                .filter(|&u| held.contains(u.index())),
        );
        self.scratch.put_set(held);

        let mut flat_a = self.scratch.take_nodes(self.stats);
        let mut bounds_a = self.scratch.take_bounds(self.stats);
        let mut flat_b = self.scratch.take_nodes(self.stats);
        let mut bounds_b = self.scratch.take_bounds(self.stats);
        flat_a.extend_from_slice(&old_extent);
        bounds_a.push((0, flat_a.len() as u32));
        let mut succ = self.scratch.take_set(self.stats);
        for &u in &qualifying {
            mark_children(self.g, self.components[i - 1].extent(u), &mut succ);
            split_parts_by(
                &succ,
                &mut flat_a,
                &mut bounds_a,
                &mut flat_b,
                &mut bounds_b,
            );
        }

        // Relevant pieces get similarity i; the rest merge back into one
        // remainder keeping the old one.
        mark_members(relevant, self.g.node_count(), &mut succ);
        let mut final_parts: Vec<(Vec<NodeId>, u32)> = Vec::new();
        let mut remainder: Vec<NodeId> = Vec::new();
        for &(lo, hi) in bounds_a.iter() {
            let part = &flat_a[lo as usize..hi as usize];
            if part.iter().any(|o| succ.contains(o.index())) {
                final_parts.push((part.to_vec(), i as u32));
            } else {
                remainder.extend_from_slice(part);
            }
        }
        if !remainder.is_empty() {
            remainder.sort_unstable();
            final_parts.push((remainder, kold));
        }
        self.scratch.put_set(succ);
        self.scratch.put_idx(qualifying);
        self.scratch.put_nodes(flat_a);
        self.scratch.put_nodes(flat_b);
        self.scratch.put_bounds(bounds_a);
        self.scratch.put_bounds(bounds_b);
        self.components[i].replace_node(self.g, p, final_parts);
        self.propagate(i, &old_extent);
        self.scratch.put_nodes(old_extent);
    }

    /// Mirrors `MStarIndex::propagate`: pushes a change in `I_from` down to
    /// all finer components so Properties 3–5 keep holding.
    fn propagate(&mut self, from: usize, affected: &[NodeId]) {
        for lvl in (from + 1)..self.components.len() {
            let mut changed = false;
            let mut holders = self.scratch.take_idx(self.stats);
            let mut seen = self.scratch.take_set(self.stats);
            seen.reset(self.components[lvl].slot_bound());
            for &o in affected {
                let q = self.components[lvl].node_of(o);
                if seen.insert(q.index()) {
                    holders.push(q);
                }
            }
            self.scratch.put_set(seen);
            // Split the borrow so the coarse component can be read while
            // the fine one is mutated — no extent copies needed.
            let (coarser, finer) = self.components.split_at_mut(lvl);
            let coarse = &coarser[lvl - 1];
            let fine = &mut finer[0];
            for &q in &holders {
                if !fine.is_alive(q) {
                    continue;
                }
                // Partition q's extent by supernode in I_{lvl-1}. The
                // common case — the whole extent under one supernode —
                // needs no group vectors at all.
                let ext = fine.extent(q);
                let sup0 = coarse.node_of(ext[0]);
                let single = ext.iter().all(|&o| coarse.node_of(o) == sup0);
                let mut groups: Vec<(IdxId, Vec<NodeId>)> = Vec::new();
                if !single {
                    for &o in ext {
                        let sup = coarse.node_of(o);
                        match groups.iter_mut().find(|(s, _)| *s == sup) {
                            Some((_, v)) => v.push(o),
                            None => groups.push((sup, vec![o])),
                        }
                    }
                }
                let qk = fine.k(q);
                if single {
                    let sk = coarse.k(sup0);
                    if qk < sk {
                        fine.set_k(q, sk);
                        changed = true;
                    }
                    // A subset of the supernode inherits its proven bound.
                    let sg = coarse.genuine(sup0);
                    if fine.genuine(q) < sg {
                        fine.raise_genuine(q, sg);
                        changed = true;
                    }
                } else {
                    let sups: Vec<IdxId> = groups.iter().map(|&(s, _)| s).collect();
                    let parts: Vec<(Vec<NodeId>, u32)> = groups
                        .into_iter()
                        .map(|(sup, e)| {
                            let sk = coarse.k(sup);
                            (e, qk.max(sk))
                        })
                        .collect();
                    let pieces = fine.replace_node(self.g, q, parts);
                    for (piece, sup) in pieces.into_iter().zip(sups) {
                        let sg = coarse.genuine(sup);
                        fine.raise_genuine(piece, sg);
                    }
                    changed = true;
                }
            }
            self.scratch.put_idx(holders);
            if !changed {
                break; // nothing changed at this level, so nothing below can
            }
        }
    }

    /// Mirrors `MStarIndex::clean_for` over the reused eval probe.
    fn clean_for(&mut self, job: &Job) -> bool {
        let ci = (job.len as usize).min(self.components.len() - 1);
        let mut cost = Cost::ZERO;
        let comp = &self.components[ci];
        comp.eval_in_place(self.g, &job.cp, &mut cost, &mut self.scratch.probe)
            .iter()
            .all(|&t| comp.k(t) >= job.len)
    }
}

impl MkIndex {
    /// Adapts for a whole FUP batch through `engine` — equivalent to
    /// calling [`MkIndex::refine_for`] per element, bit-identically, with
    /// one observable mutation-epoch bump for the whole batch.
    pub fn refine_batch(&mut self, g: &DataGraph, batch: &[PathExpr], engine: &mut AdaptEngine) {
        engine.adapt_mk(g, self, batch);
    }
}

impl DkIndex {
    /// Adapts for a whole FUP batch through `engine` — equivalent to
    /// calling [`DkIndex::promote_for`] per element, bit-identically, with
    /// one observable mutation-epoch bump for the whole batch.
    pub fn promote_batch(&mut self, g: &DataGraph, batch: &[PathExpr], engine: &mut AdaptEngine) {
        engine.adapt_dk(g, self, batch);
    }
}

impl MStarIndex {
    /// Adapts for a whole FUP batch through `engine` — equivalent to
    /// calling [`MStarIndex::refine_for`] per element, bit-identically,
    /// with one observable epoch bump per pre-existing component.
    pub fn refine_batch(&mut self, g: &DataGraph, batch: &[PathExpr], engine: &mut AdaptEngine) {
        engine.adapt_mstar(g, self, batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::k_bisim_all;
    use mrx_graph::xml::parse;

    /// `<r>` holding `<b>` and `<c>`, each over `wide` distinctly labelled
    /// `<aN>` with a `<t>` child, plus `<t>`s under a `<z>`: the `t` node's
    /// coarse parents are the `aN`, and `//b/*/t` makes every one of them
    /// qualify in SPLITNODE*.
    fn wide_doc(wide: usize) -> DataGraph {
        let mut xml = String::from("<r>");
        for top in ["b", "c"] {
            xml.push_str(&format!("<{top}>"));
            for n in 0..wide {
                xml.push_str(&format!("<a{n}><t/><t/></a{n}>"));
            }
            xml.push_str(&format!("</{top}>"));
        }
        xml.push_str("<z><t/><t/></z></r>");
        parse(&xml).unwrap()
    }

    /// Adapts `g` to `fups` through the engine and through per-FUP
    /// `refine_for`, and checks that both leave the same parts in the same
    /// order: identical ids, not only an identical structure. Returns the
    /// engine's index.
    fn assert_matches_refine_for(g: &DataGraph, fups: &[&str], ctx: &str) -> MStarIndex {
        let fups: Vec<PathExpr> = fups.iter().map(|e| PathExpr::parse(e).unwrap()).collect();
        let mut oracle = MStarIndex::new(g);
        for f in &fups {
            oracle.refine_for(g, f);
        }
        oracle.certify_exact(&k_bisim_all(g, oracle.max_k() as u32));
        let mut idx = MStarIndex::new(g);
        idx.refine_batch(g, &fups, &mut AdaptEngine::new());
        idx.check_invariants(g);
        assert_eq!(idx.max_k(), oracle.max_k(), "{ctx}");
        let by_id = |c: &IndexGraph| -> Vec<(IdxId, Vec<NodeId>, u32, u32)> {
            c.iter()
                .map(|v| (v, c.extent(v).to_vec(), c.k(v), c.genuine(v)))
                .collect()
        };
        for i in 0..=idx.max_k() {
            assert_eq!(
                by_id(idx.component(i)),
                by_id(oracle.component(i)),
                "{ctx}: component {i}"
            );
        }
        idx
    }

    /// The engine's successive splits by many qualifying parents (10 and
    /// 70) leave the per-FUP oracle's parts in the oracle's order.
    #[test]
    fn split_node_matches_refine_for_with_many_qualifying_parents() {
        for wide in [10, 70] {
            let idx = assert_matches_refine_for(
                &wide_doc(wide),
                &["//b/*/t", "//c/a3/t", "//z/t"],
                &format!("wide {wide}"),
            );
            // The `t` extent really was split by every `aN`.
            let t_nodes = idx.component(1).export_extents().len();
            assert!(t_nodes > 2 * wide, "wide {wide}: {t_nodes} nodes");
        }
    }

    /// Here REFINENODE*'s recursion re-splits the coarse level while its
    /// loop still looks for coarse parents to refine; the engine must leave
    /// the oracle's ids all the same.
    #[test]
    fn refine_node_matches_refine_for_when_its_recursion_resplits_the_coarse_level() {
        assert_matches_refine_for(
            &mrx_datagen::nasa_like(405, 165),
            &[
                "//relatedDataset/dataset",
                "//datasets/dataset/relatedDataset/dataset/author/reference",
            ],
            "nasa 405/165",
        );
    }
}

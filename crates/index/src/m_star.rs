//! The M*(k)-index (§4 of the paper): a hierarchy of component indexes
//! `I0, I1, …, Ik` at successively finer resolutions.
//!
//! Component `Ii` is an M(k)-index whose maximum local similarity is `i`
//! (Property 2); `I(i+1)` refines `Ii` (Property 3); a node's similarity
//! grows by at most one per component (Property 4) and, once it stops
//! growing, stays constant (Property 5). Keeping every resolution lets the
//! index:
//!
//! * answer short queries in small, coarse components (top-down strategy);
//! * refine using *perfectly qualified* parents — SPLITNODE\* splits a node
//!   in `Ii` by the parents of its supernode in `I(i−1)`, whose similarity
//!   is exactly `i−1`, eliminating over-refinement due to overqualified
//!   parents.
//!
//! Components are stored logically complete (every component partitions all
//! data nodes); the paper's size-accounting dedup rules — a sole subnode and
//! the edges between sole subnodes are not stored — are applied by
//! [`MStarIndex::node_count`] / [`MStarIndex::edge_count`].

use mrx_graph::{DataGraph, NodeId};
use mrx_path::{never_fails, CompiledPath, Cost, PathExpr, Ungoverned};

use crate::graph::{difference_sorted, intersect_sorted, pred_extent, succ_extent};
use crate::snapshot::top_down_governed;
use crate::view;
use crate::{
    query, Answer, IdxId, IndexEvalScratch, IndexGraph, Partition, QueryScratch, TrustPolicy,
};

/// Evaluation strategy for path expressions on an M*(k)-index (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalStrategy {
    /// Evaluate the whole expression in component `I(length)` (or the finest
    /// available) with the plain M(k) query algorithm.
    Naive,
    /// Evaluate prefixes of increasing length in increasingly fine
    /// components, crossing supernode→subnode links between steps. This is
    /// the strategy the paper uses in its experiments.
    TopDown,
    /// Evaluate a highly selective subpath `steps[start..end]` first in the
    /// coarse component `I(end-start-1)`, map the survivors down to the
    /// finest needed component, then confirm the prefix upwards and the
    /// suffix downwards from them.
    Subpath {
        /// First step (0-based, inclusive) of the pre-filtering subpath.
        start: usize,
        /// One past the last step of the subpath.
        end: usize,
    },
    /// Evaluate progressively longer *suffixes* in progressively finer
    /// components (§4.1 "Other approaches"). k-bisimilarity gives no
    /// guarantee on outgoing paths, so every descent re-checks that the
    /// suffix still exists below — the overhead the paper predicts makes
    /// bottom-up lose to top-down (measured in `benches/ablations`).
    BottomUp,
    /// Meet in the middle: the prefix `steps[..=split]` top-down, then a
    /// downward existence check of the suffix from the survivors in the
    /// finest needed component.
    Hybrid {
        /// Step index where prefix meets suffix (`1..length`).
        split: usize,
    },
}

/// The M*(k)-index: a partition hierarchy of component index graphs.
#[derive(Debug, Clone)]
pub struct MStarIndex {
    /// `components[i]` is `Ii`; `components[0]` is always the A(0)-index.
    pub(crate) components: Vec<IndexGraph>,
    pub(crate) false_instance_breaks: u64,
}

impl MStarIndex {
    /// Initializes with the single component `I0` = A(0)-index.
    pub fn new(g: &DataGraph) -> Self {
        MStarIndex {
            components: vec![IndexGraph::a0(g)],
            false_instance_breaks: 0,
        }
    }

    /// The finest component's resolution (`k` of the M*(k)).
    pub fn max_k(&self) -> usize {
        self.components.len() - 1
    }

    /// Read access to component `Ii`.
    pub fn component(&self, i: usize) -> &IndexGraph {
        &self.components[i]
    }

    /// How often PROMOTE* was needed to break a false instance.
    pub fn false_instance_breaks(&self) -> u64 {
        self.false_instance_breaks
    }

    /// Combined mutation generation across components. Strictly monotone:
    /// components are never removed and their own epochs never decrease, so
    /// both growing the hierarchy (REFINE* clones the finest component,
    /// epoch included, adding one to the count term) and mutating any
    /// component strictly increase this value.
    pub fn mutation_epoch(&self) -> u64 {
        self.components
            .iter()
            .map(IndexGraph::mutation_epoch)
            .sum::<u64>()
            + self.components.len() as u64
    }

    /// Raises every node of every component to its exact similarity, capped
    /// at [`max_k`](Self::max_k) (see [`IndexGraph::certify_exact`]).
    /// `parts[j]` must be the `≈j` partition of this index's data graph;
    /// levels beyond `max_k` are ignored. [`crate::AdaptEngine::adapt_mstar`]
    /// runs this after every batch.
    pub fn certify_exact(&mut self, parts: &[Partition]) {
        let parts = &parts[..parts.len().min(self.max_k() + 1)];
        for comp in &mut self.components {
            comp.certify_exact(parts);
        }
    }

    /// The supernode in `I(i-1)` of node `v` in `Ii`.
    ///
    /// # Panics
    /// Panics if `i == 0`.
    pub fn supernode(&self, i: usize, v: IdxId) -> IdxId {
        assert!(i > 0, "I0 nodes have no supernode");
        let first = self.components[i].extent(v)[0];
        self.components[i - 1].node_of(first)
    }

    /// The subnodes in `I(i+1)` of node `v` in `Ii`, in first-occurrence
    /// order.
    pub fn subnodes(&self, i: usize, v: IdxId) -> Vec<IdxId> {
        let fine = &self.components[i + 1];
        let mut seen = vec![false; fine.slot_bound()];
        let mut out: Vec<IdxId> = Vec::new();
        for &o in self.components[i].extent(v) {
            let n = fine.node_of(o);
            if !seen[n.index()] {
                seen[n.index()] = true;
                out.push(n);
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Size accounting (§4 "space-efficient implementation" + §5 metrics)
    // ------------------------------------------------------------------

    /// Whether `v` in `Ii` is a *duplicate*: the sole subnode of its
    /// supernode (extent unchanged from the previous component).
    fn is_duplicate(&self, i: usize, v: IdxId) -> bool {
        if i == 0 {
            return false;
        }
        let sup = self.supernode(i, v);
        self.components[i - 1].extent(sup).len() == self.components[i].extent(v).len()
    }

    /// Stored node count: all components, duplicates excluded.
    pub fn node_count(&self) -> usize {
        let mut total = self.components[0].node_count();
        for i in 1..self.components.len() {
            total += self.components[i]
                .iter()
                .filter(|&v| !self.is_duplicate(i, v))
                .count();
        }
        total
    }

    /// Stored edge count: all component edges except those connecting two
    /// duplicates, plus one cross-component link per subnode of every
    /// supernode with at least two subnodes.
    pub fn edge_count(&self) -> usize {
        let mut total = self.components[0].edge_count();
        for i in 1..self.components.len() {
            let comp = &self.components[i];
            for v in comp.iter() {
                let vdup = self.is_duplicate(i, v);
                for &c in comp.children(v) {
                    if !(vdup && self.is_duplicate(i, c)) {
                        total += 1;
                    }
                }
            }
            // cross links from I(i-1) into Ii: components nest, so each
            // node of Ii is one subnode of its supernode.
            let mut subs = vec![0usize; self.components[i - 1].slot_bound()];
            for v in comp.iter() {
                subs[self.supernode(i, v).index()] += 1;
            }
            total += subs.iter().filter(|&&n| n >= 2).sum::<usize>();
        }
        total
    }

    /// Total logical node count (all components, duplicates included).
    pub fn logical_node_count(&self) -> usize {
        self.components.iter().map(IndexGraph::node_count).sum()
    }

    // ------------------------------------------------------------------
    // Query algorithms (§4.1)
    // ------------------------------------------------------------------

    /// Answers `path` with the given strategy under the sound
    /// [`TrustPolicy::Proven`] policy: extents are trusted only up to their
    /// *proven* local similarity, so answers are always exact.
    pub fn query(&self, g: &DataGraph, path: &PathExpr, strategy: EvalStrategy) -> Answer {
        self.query_with_policy(g, path, strategy, TrustPolicy::Proven)
    }

    /// The paper's §4.1 query algorithms verbatim (claimed-k trust): used by
    /// the experiment harness to reproduce the paper's cost figures; can
    /// return unvalidated false positives on mixed pieces (see
    /// [`crate::query`]).
    pub fn query_paper(&self, g: &DataGraph, path: &PathExpr, strategy: EvalStrategy) -> Answer {
        self.query_with_policy(g, path, strategy, TrustPolicy::Claimed)
    }

    /// Answers `path` with an explicit strategy and trust policy.
    pub fn query_with_policy(
        &self,
        g: &DataGraph,
        path: &PathExpr,
        strategy: EvalStrategy,
        policy: TrustPolicy,
    ) -> Answer {
        let cp = path.compile(g);
        if cp.anchored {
            // Root-anchored expressions always validate; the naive strategy
            // handles them via the shared query algorithm.
            let level = (cp.length()).min(self.max_k());
            return query::answer_compiled(&self.components[level], g, &cp, policy);
        }
        match strategy {
            EvalStrategy::Naive => {
                let level = cp.length().min(self.max_k());
                query::answer_compiled(&self.components[level], g, &cp, policy)
            }
            EvalStrategy::TopDown => self.top_down(g, &cp, policy),
            EvalStrategy::Subpath { start, end } => self.query_subpath(g, &cp, start, end, policy),
            EvalStrategy::BottomUp => self.query_bottom_up(g, &cp, policy),
            EvalStrategy::Hybrid { split } => self.query_hybrid(g, &cp, split, policy),
        }
    }

    /// QUERYTOPDOWN (§4.1): evaluate the length-`i` prefix in `Ii` — the
    /// implementation every snapshot form shares.
    fn top_down(&self, g: &DataGraph, cp: &CompiledPath, policy: TrustPolicy) -> Answer {
        let mut scratch = QueryScratch::new();
        never_fails(
            top_down_governed(
                &self.components,
                g,
                cp,
                policy,
                &mut scratch,
                &mut Ungoverned,
            )
            .map_err(|(never, _)| never),
        )
    }

    /// Subpath pre-filtering (§4.1): evaluate `steps[start..end]` top-down
    /// first, push the survivors down to the finest needed component,
    /// confirm the prefix `steps[..=start]` upwards from them, then extend
    /// with the suffix `steps[end..]`. The upward check proves that a
    /// matching index path exists, not which one, so the suffix walk starts
    /// uncertified and proven targets take the one-representative check.
    fn query_subpath(
        &self,
        g: &DataGraph,
        cp: &CompiledPath,
        start: usize,
        end: usize,
        policy: TrustPolicy,
    ) -> Answer {
        assert!(
            start < end && end <= cp.steps.len(),
            "invalid subpath range"
        );
        let m = cp.length().min(self.max_k());
        let sub = CompiledPath {
            anchored: false,
            steps: cp.steps[start..end].to_vec(),
        };
        let s = &mut IndexEvalScratch::new();
        // Phase 1: the subpath, top-down (cheap, coarse components).
        let (level, mut cost) = never_fails(
            view::top_down_walk(&self.components, &sub, s, &mut Ungoverned)
                .map_err(|(never, _)| never),
        );
        // Phase 2: descend to component I_m.
        self.descend_to(level, m, s, &mut cost);
        // Phase 3: confirm the prefix upwards in I_m (memoized DFS over
        // (node, step) states; each first visit counts once).
        let comp = &self.components[m];
        let mut memo: Vec<u8> = vec![0; comp.slot_bound() * end];
        s.frontier
            .retain(|&v| check_upwards(comp, cp, v, end - 1, &mut memo, &mut cost));
        s.certify_frontier(comp, false);
        // Phase 4: extend with the suffix within I_m.
        self.walk_children(m, cp, end, s, &mut cost);
        self.finish_answer(g, cp, m, s, cost, policy)
    }

    /// Bottom-up evaluation (§4.1): grow the suffix one label at a time,
    /// moving to a finer component per step and re-checking downward that
    /// the suffix still exists from each candidate (subnodes may have fewer
    /// outgoing paths than their supernodes). The survivors start whole
    /// instances, so the forward walk starts certified at depth 0.
    fn query_bottom_up(&self, g: &DataGraph, cp: &CompiledPath, policy: TrustPolicy) -> Answer {
        let mut cost = Cost::ZERO;
        let m = cp.length();
        let mut level = 0usize;
        let s = &mut IndexEvalScratch::new();
        // Suffix of length 0: nodes labeled like the last step, in I0.
        never_fails(view::seed(
            &self.components[0],
            cp.steps[m],
            false,
            s,
            &mut cost,
            &mut Ungoverned,
        ));
        for j in 1..=m {
            if s.frontier.is_empty() {
                break;
            }
            let next_level = j.min(self.max_k());
            self.descend_to(level, next_level, s, &mut cost);
            level = next_level;
            let comp = &self.components[level];
            // Candidates: parents of the suffix starts, matching the next
            // label leftwards.
            let step = cp.steps[m - j];
            s.next.clear();
            s.seen.reset(comp.slot_bound());
            for &u in &s.frontier {
                for &p in comp.parents(u) {
                    if s.seen.insert(p.index()) {
                        cost.index_nodes += 1;
                        if step.matches(comp.label(p)) {
                            s.next.push(p);
                        }
                    }
                }
            }
            std::mem::swap(&mut s.frontier, &mut s.next);
            // Downward re-check: the whole grown suffix must still exist
            // from each candidate *in this component*.
            let suffix = CompiledPath {
                anchored: false,
                steps: cp.steps[m - j..].to_vec(),
            };
            let mut memo = vec![0u8; comp.slot_bound() * suffix.steps.len()];
            s.frontier
                .retain(|&v| comp.starts_outgoing(v, 0, &suffix, &mut memo, &mut cost));
        }
        // The frontier now starts full instances; walk forward to collect
        // the targets.
        s.certify_frontier(&self.components[level], true);
        self.walk_children(level, cp, 1, s, &mut cost);
        self.finish_answer(g, cp, level, s, cost, policy)
    }

    /// Hybrid evaluation (§4.1): top-down prefix to `split`, descend to the
    /// finest needed component, keep candidates whose suffix exists below
    /// (downward check), then collect the suffix targets from them. The
    /// meet points keep the bits of their top-down prefix.
    fn query_hybrid(
        &self,
        g: &DataGraph,
        cp: &CompiledPath,
        split: usize,
        policy: TrustPolicy,
    ) -> Answer {
        let m = cp.length();
        if m == 0 {
            return self.top_down(g, cp, policy);
        }
        let split = split.clamp(1, m);
        let prefix = CompiledPath {
            anchored: cp.anchored,
            steps: cp.steps[..=split].to_vec(),
        };
        let s = &mut IndexEvalScratch::new();
        let (level, mut cost) = never_fails(
            view::top_down_walk(&self.components, &prefix, s, &mut Ungoverned)
                .map_err(|(never, _)| never),
        );
        let target_level = m.min(self.max_k());
        self.descend_to(level, target_level, s, &mut cost);
        let level = target_level;
        let comp = &self.components[level];
        let suffix = CompiledPath {
            anchored: false,
            steps: cp.steps[split..].to_vec(),
        };
        let mut memo = vec![0u8; comp.slot_bound() * suffix.steps.len()];
        s.frontier
            .retain(|&v| comp.starts_outgoing(v, 0, &suffix, &mut memo, &mut cost));
        // Collect the suffix targets from the confirmed meet points.
        self.walk_children(level, cp, split + 1, s, &mut cost);
        self.finish_answer(g, cp, level, s, cost, policy)
    }

    /// Moves the frontier in `scratch` from component `from` down to `to`,
    /// one component per step ([`view::descend`]).
    fn descend_to(&self, from: usize, to: usize, s: &mut IndexEvalScratch, cost: &mut Cost) {
        for level in from..to {
            never_fails(view::descend(
                &self.components[level],
                &self.components[level + 1],
                s,
                cost,
                &mut Ungoverned,
            ));
        }
    }

    /// Extends the frontier in component `level` through the steps of `cp`
    /// from position `from` on ([`view::child_step`]).
    fn walk_children(
        &self,
        level: usize,
        cp: &CompiledPath,
        from: usize,
        s: &mut IndexEvalScratch,
        cost: &mut Cost,
    ) {
        for (i, &step) in cp.steps.iter().enumerate().skip(from) {
            never_fails(view::child_step(
                &self.components[level],
                step,
                i,
                s,
                cost,
                &mut Ungoverned,
            ));
        }
    }

    /// Turns the frontier in component `level` into a validated answer.
    fn finish_answer(
        &self,
        g: &DataGraph,
        cp: &CompiledPath,
        level: usize,
        s: &IndexEvalScratch,
        cost: Cost,
        policy: TrustPolicy,
    ) -> Answer {
        view::finish_answer_view(&self.components[level], g, cp, s.targets(), cost, policy)
    }

    // ------------------------------------------------------------------
    // Refinement (§4.2)
    // ------------------------------------------------------------------

    /// Answers `fup` (top-down) and refines to support it precisely.
    pub fn answer_and_refine(&mut self, g: &DataGraph, fup: &PathExpr) -> Answer {
        let ans = self.query(g, fup, EvalStrategy::TopDown);
        self.refine(g, fup, &ans.nodes);
        ans
    }

    /// REFINE* with the target set computed from the data graph.
    pub fn refine_for(&mut self, g: &DataGraph, fup: &PathExpr) {
        let truth = mrx_path::eval_data(g, &fup.compile(g));
        self.refine(g, fup, &truth);
    }

    /// REFINE*(l, S, T): `truth` is the FUP's target set in the data graph.
    pub fn refine(&mut self, g: &DataGraph, fup: &PathExpr, truth: &[NodeId]) {
        debug_assert!(
            truth.windows(2).all(|w| w[0] < w[1]),
            "truth must be sorted"
        );
        let len = fup.length();
        if len == 0 {
            return;
        }
        let cp = fup.compile(g);
        // Lines 1–3: grow the hierarchy by copying the last component.
        while self.components.len() <= len {
            let copy = self.components.last().expect("at least I0").clone();
            self.components.push(copy);
        }
        // Lines 4–6: refine every target node in I_len.
        let mut cost = Cost::ZERO;
        let s = self.components[len].eval(g, &cp, &mut cost);
        for v in s {
            if !self.components[len].is_alive(v) {
                continue;
            }
            let relevant = intersect_sorted(self.components[len].extent(v), truth);
            self.refine_node(g, len, v, &relevant, None);
        }
        // Lines 7–8: break remaining false instances with PROMOTE*.
        loop {
            let targets = self.components[len].eval(g, &cp, &mut cost);
            let Some(&v) = targets
                .iter()
                .find(|&&t| self.components[len].k(t) < len as u32)
            else {
                break;
            };
            self.false_instance_breaks += 1;
            let relevant = self.components[len].extent(v).to_vec();
            self.refine_node(g, len, v, &relevant, Some(&cp));
        }
    }

    /// REFINENODE*(v ∈ I_k, k, relevantData) — and, with `exit` set,
    /// PROMOTE* (relevant = the whole extent, long-jumping out as soon as
    /// no false instance of `exit` remains). Returns `true` on early exit.
    fn refine_node(
        &mut self,
        g: &DataGraph,
        k: usize,
        v: IdxId,
        relevant: &[NodeId],
        exit: Option<&CompiledPath>,
    ) -> bool {
        if !self.components[k].is_alive(v) {
            return self.redispatch(g, k, relevant, exit);
        }
        if self.components[k].k(v) >= k as u32 || relevant.is_empty() {
            return false;
        }
        let pred_all = pred_extent(g, relevant);

        // Lines 2–7: recursively refine parents of supernode(v) in I_{k-1}
        // that contain parents of the relevant data.
        if k >= 1 {
            loop {
                if !self.components[k].is_alive(v) {
                    return self.redispatch(g, k, relevant, exit);
                }
                let sp = self.supernode(k, v);
                let coarse = &self.components[k - 1];
                let next = coarse.parents(sp).iter().copied().find(|&u| {
                    coarse.k(u) + 1 < k as u32
                        && !intersect_sorted(&pred_all, coarse.extent(u)).is_empty()
                });
                match next {
                    Some(u) => {
                        let pd = intersect_sorted(&pred_all, self.components[k - 1].extent(u));
                        if self.refine_node(g, k - 1, u, &pd, exit) {
                            return true;
                        }
                    }
                    None => break,
                }
            }
        }

        // Lines 9–13: split the ancestor supernodes level by level, from the
        // first component where the similarity is below its ceiling, down to
        // I_k, propagating each change to all finer components immediately.
        for i in 1..=k {
            // Nodes in I_i holding relevant data below their ceiling. (After
            // propagation the relevant data may be spread over several nodes,
            // generalizing the pseudocode's single ancestor supernode.)
            let mut holders: Vec<IdxId> = Vec::new();
            for &o in relevant {
                let p = self.components[i].node_of(o);
                if self.components[i].k(p) < i as u32 && !holders.contains(&p) {
                    holders.push(p);
                }
            }
            for p in holders {
                if !self.components[i].is_alive(p) {
                    continue; // split while handling a sibling holder
                }
                let rel = intersect_sorted(self.components[i].extent(p), relevant);
                if rel.is_empty() {
                    continue;
                }
                self.split_node(g, i, p, &rel);
                if let Some(cp) = exit {
                    if self.clean_for(g, cp) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Re-invoke REFINENODE* on the nodes now covering relevant data after
    /// the original node died mid-recursion.
    fn redispatch(
        &mut self,
        g: &DataGraph,
        k: usize,
        relevant: &[NodeId],
        exit: Option<&CompiledPath>,
    ) -> bool {
        let mut seen: Vec<IdxId> = Vec::new();
        for &o in relevant {
            let n = self.components[k].node_of(o);
            if !seen.contains(&n) {
                seen.push(n);
            }
        }
        for n in seen {
            if self.components[k].is_alive(n) && self.components[k].k(n) < k as u32 {
                let rel = intersect_sorted(self.components[k].extent(n), relevant);
                if self.refine_node(g, k, n, &rel, exit) {
                    return true;
                }
            }
        }
        false
    }

    /// SPLITNODE*(p ∈ I_i, i, relevantData): split `p` by the `Succ` sets of
    /// the *perfectly qualified* parents of its supernode in I_{i-1}, give
    /// relevant pieces similarity `i`, merge the rest into a remainder
    /// keeping the old similarity, then propagate to finer components.
    fn split_node(&mut self, g: &DataGraph, i: usize, p: IdxId, relevant: &[NodeId]) {
        debug_assert!(i >= 1);
        let comp = &self.components[i];
        let kold = comp.k(p);
        let old_extent = comp.extent(p).to_vec();
        let pred_all = pred_extent(g, relevant);
        let sp = self.supernode(i, p);
        let coarse = &self.components[i - 1];
        let qualifying: Vec<IdxId> = coarse
            .parents(sp)
            .iter()
            .copied()
            .filter(|&u| !intersect_sorted(&pred_all, coarse.extent(u)).is_empty())
            .collect();
        let mut parts: Vec<Vec<NodeId>> = vec![old_extent.clone()];
        for u in qualifying {
            let succ = succ_extent(g, self.components[i - 1].extent(u));
            let mut next_parts = Vec::with_capacity(parts.len() * 2);
            for part in parts {
                let inside = intersect_sorted(&part, &succ);
                let outside = difference_sorted(&part, &succ);
                if !inside.is_empty() {
                    next_parts.push(inside);
                }
                if !outside.is_empty() {
                    next_parts.push(outside);
                }
            }
            parts = next_parts;
        }
        let mut final_parts: Vec<(Vec<NodeId>, u32)> = Vec::new();
        let mut remainder: Vec<NodeId> = Vec::new();
        for part in parts {
            if intersect_sorted(&part, relevant).is_empty() {
                remainder.extend_from_slice(&part);
            } else {
                final_parts.push((part, i as u32));
            }
        }
        if !remainder.is_empty() {
            remainder.sort_unstable();
            final_parts.push((remainder, kold));
        }
        self.components[i].replace_node(g, p, final_parts);
        self.propagate(g, i, &old_extent);
    }

    /// Propagates a change in `I_from` to all finer components so that
    /// Properties 3–5 keep holding: subnodes straddling new pieces are
    /// split, and similarities are raised to match grown supernodes.
    fn propagate(&mut self, g: &DataGraph, from: usize, affected: &[NodeId]) {
        for lvl in (from + 1)..self.components.len() {
            let mut changed = false;
            let mut holders: Vec<IdxId> = Vec::new();
            for &o in affected {
                let q = self.components[lvl].node_of(o);
                if !holders.contains(&q) {
                    holders.push(q);
                }
            }
            for q in holders {
                if !self.components[lvl].is_alive(q) {
                    continue;
                }
                // Partition q's extent by supernode in I_{lvl-1}.
                let ext = self.components[lvl].extent(q).to_vec();
                let coarse = &self.components[lvl - 1];
                let mut groups: Vec<(IdxId, Vec<NodeId>)> = Vec::new();
                for &o in &ext {
                    let sup = coarse.node_of(o);
                    match groups.iter_mut().find(|(s, _)| *s == sup) {
                        Some((_, v)) => v.push(o),
                        None => groups.push((sup, vec![o])),
                    }
                }
                let qk = self.components[lvl].k(q);
                if groups.len() == 1 {
                    let sup = groups[0].0;
                    let sk = self.components[lvl - 1].k(sup);
                    if qk < sk {
                        self.components[lvl].set_k(q, sk);
                        changed = true;
                    }
                    // A subset of the supernode inherits its proven bound.
                    let sg = self.components[lvl - 1].genuine(sup);
                    if self.components[lvl].genuine(q) < sg {
                        self.components[lvl].raise_genuine(q, sg);
                        changed = true;
                    }
                } else {
                    let sups: Vec<IdxId> = groups.iter().map(|&(s, _)| s).collect();
                    let parts: Vec<(Vec<NodeId>, u32)> = groups
                        .into_iter()
                        .map(|(sup, ext)| {
                            let sk = self.components[lvl - 1].k(sup);
                            (ext, qk.max(sk))
                        })
                        .collect();
                    let pieces = self.components[lvl].replace_node(g, q, parts);
                    for (piece, sup) in pieces.into_iter().zip(sups) {
                        let sg = self.components[lvl - 1].genuine(sup);
                        self.components[lvl].raise_genuine(piece, sg);
                    }
                    changed = true;
                }
            }
            if !changed {
                break; // nothing changed at this level, so nothing below can
            }
        }
    }

    /// The PROMOTE* long-jump condition: no node reachable by `l` in the
    /// component that answers `l` has insufficient similarity.
    fn clean_for(&self, g: &DataGraph, l: &CompiledPath) -> bool {
        let len = l.length();
        let comp = &self.components[len.min(self.max_k())];
        let mut cost = Cost::ZERO;
        comp.eval(g, l, &mut cost)
            .iter()
            .all(|&t| comp.k(t) >= len as u32)
    }

    /// Verifies the M*(k) properties (1–5) plus every component's structural
    /// invariants. Test/debug use.
    ///
    /// # Panics
    /// Panics with a description of the first violated property.
    pub fn check_invariants(&self, g: &DataGraph) {
        for (i, comp) in self.components.iter().enumerate() {
            comp.check_invariants(g);
            // Property 2: ceiling i.
            for v in comp.iter() {
                assert!(
                    comp.k(v) <= i as u32,
                    "I{i}: node {v:?} has k={} > ceiling {i}",
                    comp.k(v)
                );
            }
        }
        for i in 1..self.components.len() {
            let fine = &self.components[i];
            let coarse = &self.components[i - 1];
            for v in fine.iter() {
                // Property 3: refinement — all extent members share a supernode.
                let sup = coarse.node_of(fine.extent(v)[0]);
                for &o in fine.extent(v) {
                    assert_eq!(
                        coarse.node_of(o),
                        sup,
                        "I{i}: node {v:?} straddles supernodes"
                    );
                }
                // Property 4: k grows by at most one per component.
                let (sk, vk) = (coarse.k(sup), fine.k(v));
                assert!(
                    sk <= vk && vk <= sk + 1,
                    "I{i}: node {v:?} k={vk} vs supernode k={sk}"
                );
                // Property 5: once growth stops, k stays the same.
                if sk < (i - 1) as u32 {
                    assert_eq!(vk, sk, "I{i}: node {v:?} grew after its supernode stopped");
                }
            }
        }
    }
}

/// Memoized upward confirmation that an instance of `cp.steps[0..=step]`
/// ends at `v` in `comp` (used by the subpath strategy's phase 3).
fn check_upwards(
    comp: &IndexGraph,
    cp: &CompiledPath,
    v: IdxId,
    step: usize,
    memo: &mut [u8],
    cost: &mut Cost,
) -> bool {
    const YES: u8 = 1;
    const NO: u8 = 2;
    let slot = step * comp.slot_bound() + v.index();
    match memo[slot] {
        YES => return true,
        NO => return false,
        _ => {}
    }
    cost.index_nodes += 1;
    let ok = if !cp.steps[step].matches(comp.label(v)) {
        false
    } else if step == 0 {
        true
    } else {
        comp.parents(v)
            .iter()
            .any(|&u| check_upwards(comp, cp, u, step - 1, memo, cost))
    };
    memo[slot] = if ok { YES } else { NO };
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrx_graph::GraphBuilder;
    use mrx_path::eval_data;

    /// The data graph of the paper's Figure 7:
    /// r→a1, r→b3; b3→a2; a1→c4; a2→c5; b3→c6, b3→c7.
    fn figure7() -> (DataGraph, [NodeId; 8]) {
        let mut b = GraphBuilder::new();
        let r = b.add_node("r"); // 0
        let a1 = b.add_child(r, "a"); // 1
        let b3 = b.add_child(r, "b"); // 2
        let a2 = b.add_child(b3, "a"); // 3
        let c4 = b.add_child(a1, "c"); // 4
        let c5 = b.add_child(a2, "c"); // 5
        let c6 = b.add_child(b3, "c"); // 6
        let c7 = b.add_child(b3, "c"); // 7
        (b.freeze(), [r, a1, b3, a2, c4, c5, c6, c7])
    }

    #[test]
    fn figure7_refinement_structure() {
        let (g, [_, a1, _, a2, c4, c5, c6, c7]) = figure7();
        let mut idx = MStarIndex::new(&g);
        let fup = PathExpr::parse("//b/a/c").unwrap();
        idx.refine_for(&g, &fup);
        idx.check_invariants(&g);
        assert_eq!(idx.max_k(), 2, "supporting a length-2 FUP needs I0..I2");

        // I1: a splits into {a2} (k=1) and the remainder {a1} (k=0, per
        // SPLITNODE*'s vrest rule); c splits into {c4,c5} (k=1) and
        // {c6,c7} (k=0).
        let i1 = idx.component(1);
        let na2 = i1.node_of(a2);
        assert_eq!(i1.extent(na2), &[a2]);
        assert_eq!(i1.k(na2), 1);
        let na1 = i1.node_of(a1);
        assert_eq!(i1.extent(na1), &[a1]);
        assert_eq!(i1.k(na1), 0);
        let nc45 = i1.node_of(c4);
        assert_eq!(i1.extent(nc45), &[c4, c5]);
        assert_eq!(i1.k(nc45), 1);
        let nc67 = i1.node_of(c6);
        assert_eq!(i1.extent(nc67), &[c6, c7]);
        assert_eq!(i1.k(nc67), 0);

        // I2: c{4,5} further splits into {c5} (k=2) and {c4} (k=1).
        let i2 = idx.component(2);
        assert_eq!(i2.extent(i2.node_of(c5)), &[c5]);
        assert_eq!(i2.k(i2.node_of(c5)), 2);
        assert_eq!(i2.extent(i2.node_of(c4)), &[c4]);
        assert_eq!(i2.k(i2.node_of(c4)), 1);
        assert_eq!(i2.extent(i2.node_of(c6)), &[c6, c7]);

        // The FUP answers precisely via every strategy; the paper policy
        // needs no validation at all after refinement, the sound policy
        // spends at most one representative check per target node.
        for strat in [EvalStrategy::Naive, EvalStrategy::TopDown] {
            let ans = idx.query(&g, &fup, strat);
            assert_eq!(ans.nodes, vec![c5], "{strat:?}");
            let paper = idx.query_paper(&g, &fup, strat);
            assert_eq!(paper.nodes, vec![c5], "{strat:?}");
            assert!(!paper.validated, "{strat:?}");
        }
    }

    #[test]
    fn figure7_dedup_size_accounting() {
        let (g, _) = figure7();
        let mut idx = MStarIndex::new(&g);
        idx.refine_for(&g, &PathExpr::parse("//b/a/c").unwrap());
        // Stored nodes: I0 has 4 (r a b c). I1 adds a{1}, a{2}, c{4,5},
        // c{6,7} (r and b are sole subnodes → dups): +4. I2 adds c{4} and
        // c{5} (all others are sole subnodes): +2. Total 10.
        assert_eq!(idx.node_count(), 10);
        assert!(idx.logical_node_count() > idx.node_count());
        assert!(idx.edge_count() > idx.component(0).edge_count());
    }

    #[test]
    fn avoids_overqualified_parent_overrefinement_figure4() {
        // Figure 4: r → a; a → b2, b3; b2 → c4; b3 → c5. First refine a
        // long FUP that makes the b's overqualified, then support //b/c.
        // M(k)/D(k) would split c{4,5} using the overqualified b's; M*(k)
        // must keep c4, c5 together (they are 1-bisimilar).
        let mut bld = GraphBuilder::new();
        let r = bld.add_node("r");
        let a = bld.add_child(r, "a");
        let b2 = bld.add_child(a, "b");
        let b3 = bld.add_child(a, "b");
        let c4 = bld.add_child(b2, "c");
        let _c5 = bld.add_child(b3, "c");
        let x = bld.add_child(r, "x");
        bld.add_ref(x, b2); // makes b2 and b3 structurally different
        let g = bld.freeze();

        // A long FUP targeting b2 separates the b's at high similarity.
        let mut mstar = MStarIndex::new(&g);
        mstar.refine_for(&g, &PathExpr::parse("//r/x/b").unwrap());
        mstar.check_invariants(&g);
        // Now support //b/c (length 1).
        mstar.refine_for(&g, &PathExpr::parse("//b/c").unwrap());
        mstar.check_invariants(&g);
        // In I1, the c's stay together with k=1: their supernode's parents in
        // I0 form a single b node, so SPLITNODE* sees a perfectly qualified
        // parent and does not split.
        let i1 = mstar.component(1);
        let nc = i1.node_of(c4);
        assert_eq!(i1.extent(nc).len(), 2, "c4, c5 must stay together in I1");
        assert_eq!(i1.k(nc), 1);

        // Contrast: M(k) on the same FUP sequence splits the c's.
        let mut mk = crate::MkIndex::new(&g);
        mk.refine_for(&g, &PathExpr::parse("//r/x/b").unwrap());
        mk.refine_for(&g, &PathExpr::parse("//b/c").unwrap());
        let cl = g.labels().get("c").unwrap();
        let mk_c_nodes = mk.graph().nodes_with_label(cl).count();
        assert!(
            mk_c_nodes >= 2,
            "M(k) over-refines via overqualified parents (got {mk_c_nodes} c-nodes)"
        );
    }

    #[test]
    fn all_strategies_agree_with_ground_truth() {
        let (g, _) = figure7();
        let mut idx = MStarIndex::new(&g);
        for f in ["//b/a/c", "//r/a/c", "//b/c"] {
            idx.refine_for(&g, &PathExpr::parse(f).unwrap());
            idx.check_invariants(&g);
        }
        for expr in [
            "//c", "//a/c", "//b/a", "//b/a/c", "//r/a/c", "//r/b/c", "//b/c",
        ] {
            let p = PathExpr::parse(expr).unwrap();
            let truth = eval_data(&g, &p.compile(&g));
            for strat in [
                EvalStrategy::Naive,
                EvalStrategy::TopDown,
                EvalStrategy::Subpath { start: 0, end: 1 },
                EvalStrategy::BottomUp,
                EvalStrategy::Hybrid { split: 1 },
            ] {
                let ans = idx.query(&g, &p, strat);
                assert_eq!(ans.nodes, truth, "{expr} via {strat:?}");
            }
            if p.length() >= 1 {
                let s = EvalStrategy::Subpath {
                    start: p.length(),
                    end: p.length() + 1,
                };
                assert_eq!(idx.query(&g, &p, s).nodes, truth, "{expr} via tail subpath");
            }
        }
    }

    #[test]
    fn short_queries_stay_in_coarse_components() {
        let (g, _) = figure7();
        let mut idx = MStarIndex::new(&g);
        idx.refine_for(&g, &PathExpr::parse("//b/a/c").unwrap());
        // A single-label query must only touch I0 (4 nodes there).
        let ans = idx.query(&g, &PathExpr::parse("//c").unwrap(), EvalStrategy::TopDown);
        assert_eq!(ans.cost.index_nodes, 1, "only the I0 c-node is visited");
        assert!(!ans.validated);
    }

    #[test]
    fn refine_zero_length_is_noop() {
        let (g, _) = figure7();
        let mut idx = MStarIndex::new(&g);
        idx.refine_for(&g, &PathExpr::parse("//c").unwrap());
        assert_eq!(idx.max_k(), 0);
        assert_eq!(idx.node_count(), idx.component(0).node_count());
    }

    #[test]
    fn refine_is_idempotent() {
        let (g, _) = figure7();
        let mut idx = MStarIndex::new(&g);
        let fup = PathExpr::parse("//b/a/c").unwrap();
        idx.refine_for(&g, &fup);
        let (n1, e1) = (idx.node_count(), idx.edge_count());
        idx.refine_for(&g, &fup);
        assert_eq!((idx.node_count(), idx.edge_count()), (n1, e1));
        idx.check_invariants(&g);
    }

    #[test]
    fn handles_cycles() {
        let mut b = GraphBuilder::new();
        let r = b.add_node("r");
        let a1 = b.add_child(r, "a");
        let a2 = b.add_child(a1, "a");
        let a3 = b.add_child(a2, "a");
        b.add_ref(a3, a1);
        let g = b.freeze();
        let mut idx = MStarIndex::new(&g);
        let fup = PathExpr::parse("//r/a/a").unwrap();
        idx.refine_for(&g, &fup);
        idx.check_invariants(&g);
        let ans = idx.query(&g, &fup, EvalStrategy::TopDown);
        assert_eq!(ans.nodes, eval_data(&g, &fup.compile(&g)));
        assert!(!idx.query_paper(&g, &fup, EvalStrategy::TopDown).validated);
    }

    #[test]
    fn size_accounting_dedup_rules() {
        let (g, [_, _, _, _, c4, c5, c6, _]) = figure7();
        let mut idx = MStarIndex::new(&g);
        idx.refine_for(&g, &PathExpr::parse("//b/a/c").unwrap());

        // Node dedup: a node is stored iff it is not its supernode's sole
        // subnode. Verify against a hand count (see figure7_dedup test) and
        // against the logical count.
        assert_eq!(idx.node_count(), 10);
        assert_eq!(idx.logical_node_count(), 4 + 6 + 7);

        // Cross-component links: I0->I1 has two split supernodes (a with 2
        // subnodes, c with 2 subnodes) -> 4 links; I1->I2 has one (c{4,5}
        // with 2 subnodes) -> 2 links.
        let links_i1: usize = idx
            .component(0)
            .iter()
            .map(|p| {
                let subs = idx.subnodes(0, p);
                if subs.len() >= 2 {
                    subs.len()
                } else {
                    0
                }
            })
            .sum();
        assert_eq!(links_i1, 4);
        let links_i2: usize = idx
            .component(1)
            .iter()
            .map(|p| {
                let subs = idx.subnodes(1, p);
                if subs.len() >= 2 {
                    subs.len()
                } else {
                    0
                }
            })
            .sum();
        assert_eq!(links_i2, 2);

        // Supernode/subnode navigation is consistent.
        let i2 = idx.component(2);
        let c5_node = i2.node_of(c5);
        let sup = idx.supernode(2, c5_node);
        assert_eq!(idx.component(1).extent(sup), &[c4, c5]);
        let subs = idx.subnodes(1, sup);
        assert_eq!(subs.len(), 2);
        let _ = c6;
    }

    #[test]
    fn bottom_up_and_hybrid_match_top_down() {
        let (g, _) = figure7();
        let mut idx = MStarIndex::new(&g);
        idx.refine_for(&g, &PathExpr::parse("//b/a/c").unwrap());
        for expr in ["//b/a/c", "//a/c", "//r/b/c", "//c"] {
            let p = PathExpr::parse(expr).unwrap();
            let td = idx.query(&g, &p, EvalStrategy::TopDown);
            let bu = idx.query(&g, &p, EvalStrategy::BottomUp);
            assert_eq!(td.nodes, bu.nodes, "{expr} bottom-up");
            if p.length() >= 1 {
                for split in 1..=p.length() {
                    let hy = idx.query(&g, &p, EvalStrategy::Hybrid { split });
                    assert_eq!(td.nodes, hy.nodes, "{expr} hybrid split {split}");
                }
            }
        }
    }

    #[test]
    fn bottom_up_pays_for_downward_checks() {
        // §4.1 prediction: the downward re-checks make bottom-up more
        // expensive than top-down on a refined index.
        let (g, _) = figure7();
        let mut idx = MStarIndex::new(&g);
        idx.refine_for(&g, &PathExpr::parse("//b/a/c").unwrap());
        let p = PathExpr::parse("//b/a/c").unwrap();
        let td = idx
            .query_paper(&g, &p, EvalStrategy::TopDown)
            .cost
            .index_nodes;
        let bu = idx
            .query_paper(&g, &p, EvalStrategy::BottomUp)
            .cost
            .index_nodes;
        assert!(bu >= td, "bottom-up {bu} vs top-down {td}");
    }

    #[test]
    fn answer_and_refine_flow() {
        let (g, _) = figure7();
        let mut idx = MStarIndex::new(&g);
        let fup = PathExpr::parse("//b/a/c").unwrap();
        let first = idx.answer_and_refine(&g, &fup);
        assert!(first.validated);
        assert!(first.cost.data_nodes > 0, "pre-refinement: full validation");
        let second = idx.query(&g, &fup, EvalStrategy::TopDown);
        assert_eq!(first.nodes, second.nodes);
        // After refinement the paper policy skips validation entirely...
        let paper = idx.query_paper(&g, &fup, EvalStrategy::TopDown);
        assert!(!paper.validated);
        assert_eq!(paper.nodes, first.nodes);
        // ...and the sound policy pays at most one representative chain.
        assert!(second.cost.data_nodes <= first.cost.data_nodes);
    }
}

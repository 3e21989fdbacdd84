//! Immutable M*(k) hierarchies and the one top-down query implementation
//! every M*(k) serving form shares.
//!
//! [`MStarSnapshot`] holds one component per resolution in any
//! [`IndexView`] representation: compressed extents in memory
//! ([`CompressedMStar`], the `.mrx` v5 serving form) or demand-paged
//! extents behind a page cache ([`PagedMStar`], the v6 serving form).
//! QUERYTOPDOWN (§4.1) is written once, in [`top_down_governed`], and
//! monomorphized over the representation and the [`Governor`]: the live
//! [`MStarIndex`], both snapshot forms, and the budgeted and unbudgeted
//! entry points all run the same code, so answers and [`Cost`] cannot
//! drift between them.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use mrx_graph::GraphView;
use mrx_path::{
    never_fails, BudgetError, BudgetMeter, CompiledPath, Cost, Governor, PathExpr, Ungoverned,
};

use crate::compressed::CompressedIndex;
use crate::paged::PagedIndex;
use crate::query::{self, Answer, QueryScratch, TrustPolicy};
use crate::view::{self, IndexView};
use crate::{FrozenIndex, MStarIndex};

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

/// The beyond-RAM serving form: extents and the inverse extent map paged
/// in through one shared page cache.
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
    let (targets, level, cost) =
        view::top_down_targets_governed(components, cp, &mut scratch.eval, budget)?;
    view::finish_answer_view_governed(
        &components[level],
        g,
        cp,
        targets,
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

    /// Answers `path` top-down — the same algorithm as
    /// [`MStarIndex::query_with_policy`] with
    /// [`crate::EvalStrategy::TopDown`], so answers and costs match the
    /// live index bit for bit.
    pub fn query_top_down<G: GraphView>(
        &self,
        g: &G,
        path: &PathExpr,
        policy: TrustPolicy,
    ) -> Answer {
        self.query_top_down_with_scratch(g, &path.compile(g), policy, &mut QueryScratch::new())
    }

    /// [`query_top_down`](Self::query_top_down) for a compiled path over
    /// caller-owned scratch — the allocation-free steady-state path.
    pub fn query_top_down_with_scratch<G: GraphView>(
        &self,
        g: &G,
        cp: &CompiledPath,
        policy: TrustPolicy,
        scratch: &mut QueryScratch,
    ) -> Answer {
        never_fails(
            top_down_governed(&self.components, g, cp, policy, scratch, &mut Ungoverned)
                .map_err(|(never, _)| never),
        )
    }

    /// [`query_top_down_with_scratch`](Self::query_top_down_with_scratch)
    /// under a [`BudgetMeter`]: descent, traversal, and validation all
    /// charge the budget; trips return a typed [`BudgetError`] with the
    /// partial cost attached.
    pub fn query_top_down_budgeted<G: GraphView>(
        &self,
        g: &G,
        cp: &CompiledPath,
        policy: TrustPolicy,
        scratch: &mut QueryScratch,
        meter: &mut BudgetMeter,
    ) -> Result<Answer, BudgetError> {
        top_down_governed(&self.components, g, cp, policy, scratch, meter)
            .map_err(|(kind, cost)| BudgetMeter::exhausted(kind, &cost))
    }
}

impl CompressedMStar {
    /// Validates every component (see [`CompressedIndex::validate`]); run
    /// on hierarchies built from untrusted bytes before serving.
    pub fn validate(&self) -> Result<(), String> {
        if self.components.is_empty() {
            return Err("compressed M* has no components".into());
        }
        for (i, c) in self.components.iter().enumerate() {
            c.validate().map_err(|e| format!("component {i}: {e}"))?;
        }
        Ok(())
    }
}

impl MStarIndex {
    /// Freezes every component into the compressed serving form.
    pub fn freeze_compressed(&self) -> CompressedMStar {
        CompressedMStar {
            components: self
                .components
                .iter()
                .map(|c| CompressedIndex::from_frozen(&FrozenIndex::freeze(c)))
                .collect(),
            epoch: self.mutation_epoch(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvalStrategy;
    use mrx_graph::xml::parse;

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
        cz.validate().expect("valid snapshot");
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
                let comp = cz.query_top_down(&g, &p, policy);
                assert_eq!(live.nodes, comp.nodes, "{expr}");
                assert_eq!(live.cost, comp.cost, "{expr}");
                assert_eq!(live.validated, comp.validated, "{expr}");
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
            let cp = PathExpr::parse(expr).unwrap().compile(&g);
            let mut scratch = QueryScratch::new();
            let full = cz.query_top_down_with_scratch(&g, &cp, TrustPolicy::Proven, &mut scratch);
            let total = full.cost.total();
            let mut last_partial = 0;
            for max_steps in 0..=total {
                let budget = mrx_path::QueryBudget {
                    max_steps: Some(max_steps),
                    ..mrx_path::QueryBudget::unlimited()
                };
                let r = cz.query_top_down_budgeted(
                    &g,
                    &cp,
                    TrustPolicy::Proven,
                    &mut scratch,
                    &mut budget.meter(),
                );
                match r {
                    Ok(a) => {
                        assert_eq!(max_steps, total, "{expr}: finished under budget");
                        assert_eq!((a.nodes, a.cost), (full.nodes.clone(), full.cost));
                    }
                    Err(e) => {
                        // Tripped on the first charge past the budget, and
                        // never charged a visit the full run did not make.
                        let partial = e.index_nodes + e.data_nodes;
                        assert!(max_steps < total, "{expr}: tripped at full budget");
                        assert!(partial > max_steps && partial <= total, "{expr}: {e:?}");
                        assert!(partial >= last_partial, "{expr}: partial cost shrank");
                        last_partial = partial;
                    }
                }
            }
        }
    }
}

//! Oracle suite for the batched adaptation engine: `AdaptEngine` must leave
//! every index family in a *bit-identical* state to the legacy per-FUP
//! recursive operators (`MkIndex::refine_for`, `DkIndex::promote_for`,
//! `MStarIndex::refine_for`) applied sequentially — extents, `k` values and
//! false-instance counts — over shuffled duplicated workloads. M*(k)
//! oracles get the engine's exact-similarity pass
//! (`MStarIndex::certify_exact`) after each batch, so `genuine` matches
//! too. Plus the steady-state guarantees: zero scratch allocations when
//! re-adapting a converged batch, no extra scratch work for repeated FUPs,
//! and a single observable mutation epoch per batch.

use mrx::datagen::Prng;
use mrx::index::{
    k_bisim_all, AdaptEngine, DkIndex, MStarIndex, MkIndex, QuerySession, TrustPolicy,
};
use mrx::path::PathExpr;
use mrx::prelude::{nasa_like, xmark_like, DataGraph, XmarkConfig};
use mrx::workload::{Workload, WorkloadConfig};

fn docs() -> Vec<(&'static str, DataGraph)> {
    vec![
        (
            "xmark",
            xmark_like(&XmarkConfig::with_target_nodes(2_500), 11),
        ),
        ("nasa", nasa_like(2_500, 12)),
    ]
}

/// A 50-query workload (duplicates included, as generated) shuffled with a
/// seeded PRNG so the batch order differs from generation order.
fn shuffled_fups(g: &DataGraph, shuffle_seed: u64) -> Vec<PathExpr> {
    let w = Workload::generate(
        g,
        &WorkloadConfig {
            max_path_len: 4,
            num_queries: 50,
            seed: 5,
            max_enumerated_paths: 100_000,
        },
    );
    let mut fups = w.queries;
    let mut rng = Prng::seed_from_u64(shuffle_seed);
    for i in (1..fups.len()).rev() {
        let j = rng.gen_range(0..=i);
        fups.swap(i, j);
    }
    fups
}

#[test]
fn batched_mk_matches_sequential_refine_for() {
    for (tag, g) in docs() {
        for shuffle_seed in [1u64, 9] {
            let fups = shuffled_fups(&g, shuffle_seed);
            let mut oracle = MkIndex::new(&g);
            for f in &fups {
                oracle.refine_for(&g, f);
            }
            let mut idx = MkIndex::new(&g);
            let mut engine = AdaptEngine::new();
            idx.refine_batch(&g, &fups, &mut engine);
            idx.graph().check_invariants(&g);
            assert_eq!(
                idx.graph().export_extents(),
                oracle.graph().export_extents(),
                "{tag}/seed{shuffle_seed}: extent mismatch"
            );
            assert_eq!(
                idx.false_instance_breaks(),
                oracle.false_instance_breaks(),
                "{tag}/seed{shuffle_seed}: break count mismatch"
            );
        }
    }
}

#[test]
fn batched_dk_promote_matches_sequential_promote_for() {
    for (tag, g) in docs() {
        for shuffle_seed in [1u64, 9] {
            let fups = shuffled_fups(&g, shuffle_seed);
            let mut oracle = DkIndex::a0(&g);
            for f in &fups {
                oracle.promote_for(&g, f);
            }
            let mut idx = DkIndex::a0(&g);
            let mut engine = AdaptEngine::new();
            idx.promote_batch(&g, &fups, &mut engine);
            idx.graph().check_invariants(&g);
            assert_eq!(
                idx.graph().export_extents(),
                oracle.graph().export_extents(),
                "{tag}/seed{shuffle_seed}: extent mismatch"
            );
        }
    }
}

#[test]
fn batched_mstar_matches_sequential_refine_for() {
    for (tag, g) in docs() {
        for shuffle_seed in [1u64, 9] {
            let fups = shuffled_fups(&g, shuffle_seed);
            let mut oracle = MStarIndex::new(&g);
            for f in &fups {
                oracle.refine_for(&g, f);
            }
            certify(&g, &mut oracle);
            let mut idx = MStarIndex::new(&g);
            let mut engine = AdaptEngine::new();
            idx.refine_batch(&g, &fups, &mut engine);
            idx.check_invariants(&g);
            assert_eq!(
                idx.max_k(),
                oracle.max_k(),
                "{tag}/seed{shuffle_seed}: hierarchy height mismatch"
            );
            for i in 0..=idx.max_k() {
                assert_eq!(
                    idx.component(i).export_extents(),
                    oracle.component(i).export_extents(),
                    "{tag}/seed{shuffle_seed}: component {i} mismatch"
                );
            }
            assert_eq!(
                idx.false_instance_breaks(),
                oracle.false_instance_breaks(),
                "{tag}/seed{shuffle_seed}: break count mismatch"
            );
        }
    }
}

/// The engine's exact-similarity pass, applied to a `refine_for` oracle.
fn certify(g: &DataGraph, idx: &mut MStarIndex) {
    idx.certify_exact(&k_bisim_all(g, idx.max_k() as u32));
}

/// Interleaved batches across families must stay bit-identical too: the
/// engine's plan cache is rebuilt when the batch changes, and convergence
/// skipping must not skip work a prefix batch left undone. For M*(k) the
/// first half's certified `genuine` values feed the second half, so this
/// also pins that a certified index adapts on exactly as the oracle does.
#[test]
fn engine_survives_changing_batches() {
    let (_, g) = docs().remove(0);
    let fups = shuffled_fups(&g, 3);
    let (first, second) = fups.split_at(fups.len() / 2);

    let mut oracle = MkIndex::new(&g);
    for f in first.iter().chain(second) {
        oracle.refine_for(&g, f);
    }

    let mut idx = MkIndex::new(&g);
    let mut engine = AdaptEngine::new();
    idx.refine_batch(&g, first, &mut engine);
    idx.refine_batch(&g, second, &mut engine);
    assert_eq!(
        idx.graph().export_extents(),
        oracle.graph().export_extents()
    );
    assert_eq!(idx.false_instance_breaks(), oracle.false_instance_breaks());

    let mut oracle = MStarIndex::new(&g);
    let mut idx = MStarIndex::new(&g);
    let mut engine = AdaptEngine::new();
    for (half, batch) in [("first", first), ("second", second)] {
        for f in batch {
            oracle.refine_for(&g, f);
        }
        certify(&g, &mut oracle);
        idx.refine_batch(&g, batch, &mut engine);
        idx.check_invariants(&g);
        assert_eq!(idx.max_k(), oracle.max_k(), "after the {half} half");
        for i in 0..=idx.max_k() {
            assert_eq!(
                idx.component(i).export_extents(),
                oracle.component(i).export_extents(),
                "component {i} after the {half} half"
            );
        }
        assert_eq!(idx.false_instance_breaks(), oracle.false_instance_breaks());
    }
}

/// Re-adapting an already-converged batch must be allocation-free: every
/// job is skipped off the reused plan and eval probe, so the engine's
/// alloc counter stands still while the reuse counter advances.
#[test]
fn steady_state_adaptation_is_allocation_free() {
    let (_, g) = docs().remove(0);
    let fups = shuffled_fups(&g, 1);

    let mut mk = MkIndex::new(&g);
    let mut engine = AdaptEngine::new();
    mk.refine_batch(&g, &fups, &mut engine);
    let warm_allocs = engine.stats().scratch_allocs;
    let warm_reuses = engine.stats().scratch_reuses;
    mk.refine_batch(&g, &fups, &mut engine);
    assert_eq!(
        engine.stats().scratch_allocs,
        warm_allocs,
        "converged M(k) batch must not allocate scratch"
    );
    assert!(
        engine.stats().scratch_reuses > warm_reuses,
        "converged M(k) batch must reuse the plan and probes"
    );

    let mut dk = DkIndex::a0(&g);
    let mut engine = AdaptEngine::new();
    dk.promote_batch(&g, &fups, &mut engine);
    let warm_allocs = engine.stats().scratch_allocs;
    dk.promote_batch(&g, &fups, &mut engine);
    assert_eq!(
        engine.stats().scratch_allocs,
        warm_allocs,
        "converged D(k)-promote batch must not allocate scratch"
    );

    let mut mstar = MStarIndex::new(&g);
    let mut engine = AdaptEngine::new();
    mstar.refine_batch(&g, &fups, &mut engine);
    let warm_allocs = engine.stats().scratch_allocs;
    mstar.refine_batch(&g, &fups, &mut engine);
    assert_eq!(
        engine.stats().scratch_allocs,
        warm_allocs,
        "converged M*(k) batch must not allocate scratch"
    );
}

/// A batch that repeats every FUP three times plans each distinct FUP
/// once: from a fresh index and a fresh engine it must leave bit-identical
/// indexes and exactly the scratch counters of the batch without repeats.
/// This pins the dedup that made batched adaptation beat the per-FUP loop.
#[test]
fn repeated_fups_cost_nothing_beyond_the_distinct_batch() {
    let (_, g) = docs().remove(0);
    let fups = shuffled_fups(&g, 1);
    let counters = |e: &AdaptEngine| (e.stats().scratch_allocs, e.stats().scratch_reuses);

    assert_repeats_are_free("M(k)", &fups, |batch| {
        let (mut idx, mut engine) = (MkIndex::new(&g), AdaptEngine::new());
        idx.refine_batch(&g, batch, &mut engine);
        let out = (idx.graph().export_extents(), idx.false_instance_breaks());
        (out, counters(&engine))
    });
    assert_repeats_are_free("D(k)-promote", &fups, |batch| {
        let (mut idx, mut engine) = (DkIndex::a0(&g), AdaptEngine::new());
        idx.promote_batch(&g, batch, &mut engine);
        (idx.graph().export_extents(), counters(&engine))
    });
    assert_repeats_are_free("M*(k)", &fups, |batch| {
        let (mut idx, mut engine) = (MStarIndex::new(&g), AdaptEngine::new());
        idx.refine_batch(&g, batch, &mut engine);
        let extents: Vec<_> = (0..=idx.max_k())
            .map(|i| idx.component(i).export_extents())
            .collect();
        ((extents, idx.false_instance_breaks()), counters(&engine))
    });
}

/// Adapts `fups` once and with every FUP repeated three times, each on a
/// fresh index and engine; `adapt` returns the index state and the
/// engine's `(scratch_allocs, scratch_reuses)`.
fn assert_repeats_are_free<I: PartialEq>(
    family: &str,
    fups: &[PathExpr],
    adapt: impl Fn(&[PathExpr]) -> (I, (u64, u64)),
) {
    let tripled: Vec<PathExpr> = fups.iter().flat_map(|f| [f, f, f]).cloned().collect();
    let (once, once_counters) = adapt(fups);
    let (thrice, thrice_counters) = adapt(&tripled);
    assert!(
        thrice == once,
        "{family}: repeating every FUP changed the index"
    );
    assert_eq!(
        thrice_counters, once_counters,
        "{family}: repeating every FUP changed (scratch_allocs, scratch_reuses)"
    );
}

/// A whole adaptation batch bumps the observable mutation epoch exactly
/// once for the single-graph families, and a converged batch not at all.
#[test]
fn batch_bumps_mutation_epoch_once() {
    let (_, g) = docs().remove(0);
    let fups = shuffled_fups(&g, 1);

    let mut mk = MkIndex::new(&g);
    let mut engine = AdaptEngine::new();
    let e0 = mk.graph().mutation_epoch();
    mk.refine_batch(&g, &fups, &mut engine);
    assert_eq!(
        mk.graph().mutation_epoch(),
        e0 + 1,
        "dirty M(k) batch must bump the epoch exactly once"
    );
    let e1 = mk.graph().mutation_epoch();
    mk.refine_batch(&g, &fups, &mut engine);
    assert_eq!(
        mk.graph().mutation_epoch(),
        e1,
        "converged M(k) batch must not bump the epoch"
    );

    let mut dk = DkIndex::a0(&g);
    let mut engine = AdaptEngine::new();
    let e0 = dk.graph().mutation_epoch();
    dk.promote_batch(&g, &fups, &mut engine);
    assert_eq!(dk.graph().mutation_epoch(), e0 + 1);
    let e1 = dk.graph().mutation_epoch();
    dk.promote_batch(&g, &fups, &mut engine);
    assert_eq!(dk.graph().mutation_epoch(), e1);

    // M*(k) sums per-component epochs; a converged batch must leave the
    // combined generation untouched.
    let mut mstar = MStarIndex::new(&g);
    let mut engine = AdaptEngine::new();
    let e0 = mstar.mutation_epoch();
    mstar.refine_batch(&g, &fups, &mut engine);
    assert!(mstar.mutation_epoch() > e0);
    let e1 = mstar.mutation_epoch();
    mstar.refine_batch(&g, &fups, &mut engine);
    assert_eq!(e1, mstar.mutation_epoch());
}

/// `QuerySession` regression: one adaptation batch invalidates each cached
/// answer exactly once — the next serving misses, every serving after that
/// hits again — instead of thrashing the cache per split.
#[test]
fn session_cache_invalidates_once_per_batch() {
    let (_, g) = docs().remove(0);
    let fups = shuffled_fups(&g, 1);
    let queries: Vec<PathExpr> = fups.iter().take(6).cloned().collect();

    let mut mk = MkIndex::new(&g);
    let mut session = QuerySession::new(TrustPolicy::Proven);
    for q in &queries {
        session.serve(mk.graph(), &g, q).unwrap(); // prime the cache
        session.serve(mk.graph(), &g, q).unwrap();
    }
    let before = session.stats().clone();

    let mut engine = AdaptEngine::new();
    mk.refine_batch(&g, &fups, &mut engine);

    for round in 0..2 {
        for q in &queries {
            session.serve(mk.graph(), &g, q).unwrap();
        }
        let now = session.stats();
        let distinct = queries
            .iter()
            .enumerate()
            .filter(|(i, q)| !queries[..*i].contains(q))
            .count() as u64;
        if round == 0 {
            assert_eq!(
                now.misses - before.misses,
                distinct,
                "each distinct cached query must miss exactly once after the batch"
            );
        } else {
            assert_eq!(
                now.misses - before.misses,
                distinct,
                "the second post-batch round must be all warm hits"
            );
        }
    }

    // And a converged follow-up batch must not invalidate anything.
    let before = session.stats().clone();
    mk.refine_batch(&g, &fups, &mut engine);
    for q in &queries {
        session.serve(mk.graph(), &g, q).unwrap();
    }
    assert_eq!(
        session.stats().misses,
        before.misses,
        "a no-op batch must leave every cached answer warm"
    );

    // Same observable for the M*(k) hierarchy through its own entry point.
    let mut mstar = MStarIndex::new(&g);
    let mut session = QuerySession::new(TrustPolicy::Proven);
    for q in &queries {
        session.serve(&mstar, &g, q).unwrap();
        session.serve(&mstar, &g, q).unwrap();
    }
    let mut engine = AdaptEngine::new();
    mstar.refine_batch(&g, &fups, &mut engine);
    let before = session.stats().clone();
    for round in 0..2 {
        for q in &queries {
            session.serve(&mstar, &g, q).unwrap();
        }
        let distinct = queries
            .iter()
            .enumerate()
            .filter(|(i, q)| !queries[..*i].contains(q))
            .count() as u64;
        assert_eq!(
            session.stats().misses - before.misses,
            distinct,
            "round {round}: one miss per distinct query, then warm hits"
        );
    }
    let before = session.stats().clone();
    mstar.refine_batch(&g, &fups, &mut engine);
    for q in &queries {
        session.serve(&mstar, &g, q).unwrap();
    }
    assert_eq!(session.stats().misses, before.misses);
}

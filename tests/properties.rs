//! Property-based tests over random adversarial graphs and workloads,
//! driven by the in-repo seeded PRNG (deterministic, no external crates).
//!
//! The central invariants, straight from the paper:
//!
//! * **Safety**: every index's answer contains the data-graph answer —
//!   in fact, with validation in the query algorithm, equals it.
//! * **Precision after refinement**: once an index has been refined for a
//!   FUP, re-running the FUP needs no validation and stays correct.
//! * **Structural invariants**: extents partition the data nodes, edges are
//!   induced (checked by `check_invariants`), and the M*(k) hierarchy keeps
//!   Properties 2–5 through arbitrary refinement sequences.
//! * **Ground-truth bisimilarity**: A(k) and D(k)-construct extents are
//!   `≈k`-homogeneous against an independently computed partition.

use mrx::datagen::{random_graph, Prng, RandomGraphConfig};
use mrx::graph::DataGraph;
use mrx::index::{k_bisim_all, AkIndex, DkIndex, EvalStrategy, MStarIndex, MkIndex, OneIndex};
use mrx::path::{eval_data, PathExpr};
use mrx::workload::{Workload, WorkloadConfig};

/// One random graph plus a workload of queries that exist in it, drawn from
/// a seeded parameter stream (case `i` of a test is reproducible from `i`).
fn graph_and_queries(case: u64) -> (DataGraph, Vec<PathExpr>) {
    let mut rng = Prng::seed_from_u64(0xA11CE ^ case);
    let g = random_graph(
        &RandomGraphConfig {
            nodes: rng.gen_range(10..60usize),
            labels: rng.gen_range(2..6usize),
            extra_edge_ratio: rng.gen_range(0.0..0.8),
            allow_cycles: rng.gen_bool(0.5),
        },
        rng.next_u64(),
    );
    let w = Workload::generate(
        &g,
        &WorkloadConfig {
            max_path_len: 4,
            num_queries: rng.gen_range(3..10usize),
            seed: rng.next_u64(),
            max_enumerated_paths: 20_000,
        },
    );
    (g, w.queries)
}

/// Runs `body` over `cases` independently seeded graph/workload pairs.
fn for_cases(cases: u64, mut body: impl FnMut(&DataGraph, &[PathExpr])) {
    for case in 0..cases {
        let (g, queries) = graph_and_queries(case);
        body(&g, &queries);
    }
}

#[test]
fn ak_and_one_index_answers_match_ground_truth() {
    for_cases(24, |g, queries| {
        let one = OneIndex::build(g);
        for k in 0..4 {
            let ak = AkIndex::build(g, k);
            ak.graph().check_invariants(g);
            for q in queries {
                let truth = eval_data(g, &q.compile(g));
                assert_eq!(ak.query(g, q).nodes, truth, "A({k}) on {q}");
                let oans = one.query(g, q);
                assert_eq!(oans.nodes, truth, "1-index on {q}");
                assert!(!oans.validated, "1-index never validates");
            }
        }
    });
}

#[test]
fn ak_extents_are_k_bisimilar() {
    for_cases(24, |g, _| {
        let parts = k_bisim_all(g, 3);
        for k in 0..=3u32 {
            let ak = AkIndex::build(g, k);
            for v in ak.graph().iter() {
                let ext = ak.graph().extent(v);
                let class = parts[k as usize].block_of[ext[0].index()];
                for &o in ext {
                    assert_eq!(
                        parts[k as usize].block_of[o.index()],
                        class,
                        "A({k}) extent mixes ≈{k} classes"
                    );
                }
            }
        }
    });
}

#[test]
fn mk_refinement_is_safe_and_fup_precise() {
    for_cases(32, |g, queries| {
        let mut idx = MkIndex::new(g);
        for q in queries {
            idx.refine_for(g, q);
            idx.graph().check_invariants(g);
            // the refined FUP is answered exactly; the sound trust policy
            // validates wherever the claimed similarity cannot be proven
            let ans = idx.query(g, q);
            let truth = eval_data(g, &q.compile(g));
            assert_eq!(ans.nodes, truth, "M(k) wrong on its own FUP {q}");
        }
        // all earlier FUPs remain correct (possibly with validation)
        for q in queries {
            let truth = eval_data(g, &q.compile(g));
            assert_eq!(idx.query(g, q).nodes, truth, "M(k) unsafe on {q}");
        }
    });
}

#[test]
fn dk_promote_is_safe_and_fup_precise() {
    for_cases(32, |g, queries| {
        let mut idx = DkIndex::a0(g);
        for q in queries {
            idx.promote_for(g, q);
            idx.graph().check_invariants(g);
            let ans = idx.query(g, q);
            let truth = eval_data(g, &q.compile(g));
            assert_eq!(ans.nodes, truth, "D(k)-promote wrong on its own FUP {q}");
        }
        for q in queries {
            let truth = eval_data(g, &q.compile(g));
            assert_eq!(idx.query(g, q).nodes, truth, "D(k)-promote unsafe on {q}");
        }
    });
}

#[test]
fn genuine_similarity_is_sound() {
    for_cases(24, |g, _| {
        // Drive an M(k)-index hard, then verify every node's *proven*
        // similarity against ground-truth partitions: the extent must lie
        // inside one ≈(genuine) class.
        let w = Workload::generate(
            g,
            &WorkloadConfig {
                max_path_len: 3,
                num_queries: 8,
                seed: 99,
                max_enumerated_paths: 10_000,
            },
        );
        let mut idx = MkIndex::new(g);
        for q in &w.queries {
            idx.refine_for(g, q);
        }
        let parts = k_bisim_all(g, 6);
        for v in idx.graph().iter() {
            let genuine = idx.graph().genuine(v).min(6);
            let ext = idx.graph().extent(v);
            let class = parts[genuine as usize].block_of[ext[0].index()];
            for &o in ext {
                assert_eq!(
                    parts[genuine as usize].block_of[o.index()],
                    class,
                    "extent of {v:?} not genuinely ≈{genuine}-homogeneous"
                );
            }
        }
    });
}

#[test]
fn dk_construct_supports_all_fups() {
    for_cases(32, |g, queries| {
        let idx = DkIndex::construct(g, queries);
        idx.graph().check_invariants(g);
        for q in queries {
            let truth = eval_data(g, &q.compile(g));
            let ans = idx.query(g, q);
            assert_eq!(ans.nodes, truth, "D(k)-construct wrong on {q}");
            assert!(!ans.validated, "D(k)-construct must support FUP {q}");
        }
    });
}

#[test]
fn mstar_keeps_all_properties_and_answers() {
    for_cases(24, |g, queries| {
        let mut idx = MStarIndex::new(g);
        for q in queries {
            idx.refine_for(g, q);
            idx.check_invariants(g);
            for strat in [EvalStrategy::Naive, EvalStrategy::TopDown] {
                let ans = idx.query(g, q, strat);
                let truth = eval_data(g, &q.compile(g));
                assert_eq!(ans.nodes, truth, "M*(k) {strat:?} wrong on its FUP {q}");
            }
        }
        // every strategy remains safe for the whole workload afterwards
        for q in queries {
            let truth = eval_data(g, &q.compile(g));
            for strat in [
                EvalStrategy::Naive,
                EvalStrategy::TopDown,
                EvalStrategy::BottomUp,
            ] {
                assert_eq!(idx.query(g, q, strat).nodes, truth, "{strat:?} on {q}");
            }
            if q.length() >= 1 {
                for strat in [
                    EvalStrategy::Subpath {
                        start: 0,
                        end: q.length(),
                    },
                    EvalStrategy::Hybrid {
                        split: q.length().div_ceil(2),
                    },
                    EvalStrategy::Hybrid { split: q.length() },
                ] {
                    assert_eq!(idx.query(g, q, strat).nodes, truth, "{strat:?} on {q}");
                }
            }
        }
    });
}

#[test]
fn mstar_never_larger_than_logical() {
    for_cases(32, |g, queries| {
        let mut idx = MStarIndex::new(g);
        for q in queries {
            idx.refine_for(g, q);
        }
        assert!(idx.node_count() <= idx.logical_node_count());
        // every component is at most as large as the next finer one
        for i in 1..=idx.max_k() {
            assert!(
                idx.component(i - 1).node_count() <= idx.component(i).node_count(),
                "component {} larger than component {}",
                i - 1,
                i
            );
        }
    });
}

#[test]
fn validation_agrees_with_forward_evaluation() {
    use mrx::path::{Cost, Validator};
    for_cases(32, |g, queries| {
        for q in queries {
            let cp = q.compile(g);
            let truth = eval_data(g, &cp);
            let mut v = Validator::new(g, cp);
            let mut cost = Cost::ZERO;
            let all: Vec<_> = g.nodes().collect();
            let accepted = v.filter(all, &mut cost);
            assert_eq!(accepted, truth, "validator disagrees on {q}");
        }
    });
}

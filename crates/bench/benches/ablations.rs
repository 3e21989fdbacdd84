//! `cargo bench --bench ablations` — design-choice ablations beyond the
//! paper's figures (DESIGN.md §4 calls these out):
//!
//! 1. **M*(k) evaluation strategies** (§4.1): naive vs top-down vs subpath
//!    pre-filtering vs bottom-up vs hybrid, per query length. The paper
//!    predicts top-down wins and bottom-up pays for its downward re-checks.
//! 2. **The price of soundness**: average rerun cost under the paper's
//!    claimed-k trust policy vs this library's sound proven-k policy, and
//!    the sound cost once `AdaptEngine` certifies exact similarities.
//! 3. **FUP threshold**: refining for every query vs only for expressions
//!    seen ≥ t times (index size and average streaming cost).
//! 4. **Reference density**: how ID/IDREF entanglement inflates each index
//!    family (the effect behind the XMark-vs-NASA differences in §5).
//!
//! Scale via `MRX_SCALE` / `MRX_QUERIES` (default: small).

#![forbid(unsafe_code)]

use mrx_bench::{Dataset, Scale};
use mrx_datagen::nasa_like_with_density;
use mrx_graph::DataGraph;
use mrx_index::{
    default_threads, replay, AdaptEngine, AkIndex, DkIndex, EvalStrategy, MStarIndex, MkIndex,
    TrustPolicy,
};
use mrx_path::PathExpr;
use mrx_workload::{FupExtractor, Workload, WorkloadConfig};

fn workload(g: &DataGraph, max_len: usize, n: usize) -> Workload {
    Workload::generate(
        g,
        &WorkloadConfig {
            max_path_len: max_len,
            num_queries: n,
            seed: 0xF1D0,
            max_enumerated_paths: 400_000,
        },
    )
}

fn refined_mstar(g: &DataGraph, w: &Workload) -> MStarIndex {
    let mut idx = MStarIndex::new(g);
    for q in &w.queries {
        idx.refine_for(g, q);
    }
    idx
}

/// Ablation 1: evaluation strategies by query length.
fn strategy_ablation(scale: Scale) {
    println!("# Ablation 1: M*(k) evaluation strategies (avg index-node visits per query)");
    for ds in [Dataset::XMark, Dataset::Nasa] {
        let g = ds.load(scale);
        let w = workload(&g, 9, scale.num_queries());
        let idx = refined_mstar(&g, &w);
        println!(
            "## {} ({} queries, max length 9)",
            ds.name(),
            w.queries.len()
        );
        println!(
            "{:>6} {:>8} {:>9} {:>9} {:>10} {:>9} {:>8}",
            "length", "queries", "naive", "top-down", "bottom-up", "hybrid", "subpath"
        );
        for len in 0..=9usize {
            let qs: Vec<&PathExpr> = w.queries.iter().filter(|q| q.length() == len).collect();
            if qs.is_empty() {
                continue;
            }
            let avg = |strat: EvalStrategy| -> f64 {
                let total: u64 = qs
                    .iter()
                    .map(|q| idx.query_paper(&g, q, strat).cost.index_nodes)
                    .sum();
                total as f64 / qs.len() as f64
            };
            let hybrid_split = (len / 2).max(1);
            let subpath = EvalStrategy::Subpath {
                start: len / 2,
                end: len / 2 + 1,
            };
            println!(
                "{:>6} {:>8} {:>9.1} {:>9.1} {:>10.1} {:>9.1} {:>8.1}",
                len,
                qs.len(),
                avg(EvalStrategy::Naive),
                avg(EvalStrategy::TopDown),
                avg(EvalStrategy::BottomUp),
                if len >= 1 {
                    avg(EvalStrategy::Hybrid {
                        split: hybrid_split,
                    })
                } else {
                    f64::NAN
                },
                avg(subpath),
            );
        }
        println!();
    }
}

/// Ablation 2: the price of soundness, and what exact-similarity
/// certificates win back. The certified M*(k) is adapted through
/// [`AdaptEngine`]; its extents are bit-identical to the `refine_for`
/// build's, so only the sound cost can move.
fn soundness_ablation(scale: Scale) {
    println!("# Ablation 2: claimed-k (paper) vs proven-k (sound) rerun cost");
    println!(
        "{:<8} {:<8} {:>14} {:>14} {:>10} {:>15}",
        "dataset", "index", "paper avg", "sound avg", "overhead", "certified avg"
    );
    for ds in [Dataset::XMark, Dataset::Nasa] {
        let g = ds.load(scale);
        let w = workload(&g, 9, scale.num_queries());
        let mut mk = MkIndex::new(&g);
        for q in &w.queries {
            mk.refine_for(&g, q);
        }
        let mstar = refined_mstar(&g, &w);
        let mut certified = MStarIndex::new(&g);
        AdaptEngine::new().adapt_mstar(&g, &mut certified, &w.queries);
        // Reruns go through the parallel session replay (the indexes are
        // read-only here); totals are thread-count-independent.
        let n = w.queries.len() as f64;
        let threads = default_threads();
        let avg = |total: u64| total as f64 / n;
        let mk_run = |policy| {
            replay(mk.graph(), &g, &w.queries, policy, threads)
                .expect("an in-memory replay cannot fault")
                .total
                .total()
        };
        let ms_run = |idx: &MStarIndex, policy| {
            replay(idx, &g, &w.queries, policy, threads)
                .expect("an in-memory replay cannot fault")
                .total
                .total()
        };
        let rows = [
            (
                "M(k)",
                mk_run(TrustPolicy::Claimed),
                mk_run(TrustPolicy::Proven),
                None,
            ),
            (
                "M*(k)",
                ms_run(&mstar, TrustPolicy::Claimed),
                ms_run(&mstar, TrustPolicy::Proven),
                Some(ms_run(&certified, TrustPolicy::Proven)),
            ),
        ];
        for (name, paper, sound, cert) in rows {
            println!(
                "{:<8} {:<8} {:>14.1} {:>14.1} {:>9.1}% {:>15}",
                ds.name(),
                name,
                avg(paper),
                avg(sound),
                (sound as f64 / paper as f64 - 1.0) * 100.0,
                cert.map_or("-".to_string(), |c| format!("{:.1}", avg(c)))
            );
        }
    }
    println!();
}

/// Ablation 3: FUP extraction threshold.
fn threshold_ablation(scale: Scale) {
    println!("# Ablation 3: FUP threshold (refine only after t observations)");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>16}",
        "dataset", "threshold", "refined", "index nodes", "avg stream cost"
    );
    for ds in [Dataset::XMark, Dataset::Nasa] {
        let g = ds.load(scale);
        // Duplicate-heavy stream: half the budget, played twice.
        let w = workload(&g, 4, scale.num_queries() / 2);
        let stream: Vec<&PathExpr> = w.queries.iter().chain(w.queries.iter()).collect();
        for threshold in [1usize, 2, 4] {
            let mut extractor = FupExtractor::new(threshold);
            let mut idx = MStarIndex::new(&g);
            let mut total = 0u64;
            let mut refined = 0usize;
            for q in &stream {
                let ans = idx.query(&g, q, EvalStrategy::TopDown);
                total += ans.cost.total();
                if let Some(fup) = extractor.observe(q) {
                    idx.refine(&g, &fup, &ans.nodes);
                    refined += 1;
                }
            }
            println!(
                "{:<8} {:>10} {:>12} {:>12} {:>16.1}",
                ds.name(),
                threshold,
                refined,
                idx.node_count(),
                total as f64 / stream.len() as f64
            );
        }
    }
    println!();
}

/// Ablation 4: reference density vs index size.
fn density_ablation(scale: Scale) {
    println!("# Ablation 4: reference density vs index size (NASA-like, 60 FUPs, max length 4)");
    println!(
        "{:>8} {:>10} {:>8} {:>8} {:>12} {:>8} {:>8}",
        "density", "ref edges", "A(2)", "A(4)", "D(k)-promote", "M(k)", "M*(k)"
    );
    let nodes = scale.target_nodes(Dataset::Nasa) / 2;
    for density in [0.0, 0.5, 1.0, 2.0] {
        let g = nasa_like_with_density(nodes, 0x9A5A, density);
        let w = workload(&g, 4, 60);
        let a2 = AkIndex::build(&g, 2);
        let a4 = AkIndex::build(&g, 4);
        let mut dkp = DkIndex::a0(&g);
        let mut mk = MkIndex::new(&g);
        let mut mstar = MStarIndex::new(&g);
        for q in &w.queries {
            dkp.promote_for(&g, q);
            mk.refine_for(&g, q);
            mstar.refine_for(&g, q);
        }
        println!(
            "{:>8.1} {:>10} {:>8} {:>8} {:>12} {:>8} {:>8}",
            density,
            g.ref_edge_count(),
            a2.node_count(),
            a4.node_count(),
            dkp.node_count(),
            mk.node_count(),
            mstar.node_count()
        );
    }
    println!();
}

/// Ablation 5: APEX vs the structural indexes, on cache hits and misses.
fn apex_ablation(scale: Scale) {
    use mrx_index::ApexIndex;
    println!("# Ablation 5: APEX cache behaviour vs structural M*(k) (avg cost per query)");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "dataset", "apex nodes", "m* nodes", "apex hit", "m* hit", "apex miss", "m* miss"
    );
    for ds in [Dataset::XMark, Dataset::Nasa] {
        let g = ds.load(scale);
        let w = workload(&g, 4, scale.num_queries());
        // First half registered/refined; second half never seen before.
        let mid = w.queries.len() / 2;
        let (hits, misses) = w.queries.split_at(mid);
        let apex = ApexIndex::build(&g, hits);
        let mut mstar = MStarIndex::new(&g);
        for q in hits {
            mstar.refine_for(&g, q);
        }
        let avg = |qs: &[PathExpr], f: &dyn Fn(&PathExpr) -> u64| -> f64 {
            qs.iter().map(f).sum::<u64>() as f64 / qs.len().max(1) as f64
        };
        println!(
            "{:<8} {:>12} {:>12} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            ds.name(),
            apex.node_count(),
            mstar.node_count(),
            avg(hits, &|q| apex.query(&g, q).cost.total()),
            avg(hits, &|q| mstar
                .query_paper(&g, q, EvalStrategy::TopDown)
                .cost
                .total()),
            avg(misses, &|q| apex.query(&g, q).cost.total()),
            avg(misses, &|q| mstar
                .query_paper(&g, q, EvalStrategy::TopDown)
                .cost
                .total()),
        );
    }
    println!();
}

fn main() {
    let scale = Scale::from_env();
    eprintln!("# ablations at {scale:?} scale");
    strategy_ablation(scale);
    soundness_ablation(scale);
    threshold_ablation(scale);
    density_ablation(scale);
    apex_ablation(scale);
}

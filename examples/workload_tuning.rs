//! Workload tuning: the full runtime loop of Figure 5 — answer queries,
//! extract FUPs by frequency, refine incrementally — and how index size and
//! query cost evolve as the workload streams in.
//!
//! ```sh
//! cargo run --release --example workload_tuning
//! ```

use mrx::index::{EvalStrategy, MStarIndex};
use mrx::prelude::{nasa_like, FupExtractor, Workload, WorkloadConfig};

fn main() {
    let g = nasa_like(10_000, 3);
    let w = Workload::generate(
        &g,
        &WorkloadConfig {
            max_path_len: 6,
            num_queries: 300,
            seed: 11,
            max_enumerated_paths: 200_000,
        },
    );
    let hist = w.length_histogram();
    println!(
        "workload: {} queries; length distribution:",
        w.queries.len()
    );
    for (len, frac) in hist.iter().enumerate() {
        println!(
            "  length {len}: {:>5.1}% {}",
            frac * 100.0,
            "#".repeat((frac * 60.0) as usize)
        );
    }

    // Refine only for expressions seen at least twice — the FUP threshold.
    let mut extractor = FupExtractor::new(2);
    let mut idx = MStarIndex::new(&g);
    let mut total_cost = 0u64;
    let mut refinements = 0usize;
    let mut checkpoints = Vec::new();
    for (i, q) in w.queries.iter().enumerate() {
        let ans = idx.query(&g, q, EvalStrategy::TopDown);
        total_cost += ans.cost.total();
        if let Some(fup) = extractor.observe(q) {
            // The answer (already validated) is exactly the target set T
            // that REFINE* needs — no extra data-graph work.
            idx.refine(&g, &fup, &ans.nodes);
            refinements += 1;
        }
        if (i + 1) % 60 == 0 {
            checkpoints.push((i + 1, total_cost as f64 / (i + 1) as f64, idx.node_count()));
        }
    }

    println!("\nstreaming run (FUP threshold = 2):");
    println!(
        "{:>8} {:>16} {:>12}",
        "queries", "avg cost so far", "index nodes"
    );
    for (n, avg, nodes) in checkpoints {
        println!("{n:>8} {avg:>16.1} {nodes:>12}");
    }
    println!(
        "\n{refinements} of {} distinct expressions were promoted to FUPs and refined for",
        w.queries.len()
    );
    println!(
        "final index: {} stored nodes, {} stored edges, {} components",
        idx.node_count(),
        idx.edge_count(),
        idx.max_k() + 1
    );

    // After the stream, the hot queries are cheap. Under the paper's
    // claimed-k policy a refined FUP never validates; the sound default
    // policy may still validate one representative per target wherever the
    // claimed similarity is not genuinely proven or the path to the target
    // is not (see DESIGN.md §"Paper deviations"), but it is always exact.
    let hot = extractor.fups().first().cloned();
    if let Some(hot) = hot {
        let sound = idx.query(&g, &hot, EvalStrategy::TopDown);
        let paper = idx.query_paper(&g, &hot, EvalStrategy::TopDown);
        println!(
            "\nhottest FUP {hot}:\n  sound policy: cost {} node visits, validated: {}\n  paper policy: cost {} node visits, validated: {}",
            sound.cost.total(),
            sound.validated,
            paper.cost.total(),
            paper.validated
        );
        assert!(
            !paper.validated,
            "the paper's policy answers a refined FUP without validation"
        );
        let truth = mrx::path::eval_data(&g, &hot.compile(&g));
        assert_eq!(sound.nodes, truth, "sound policy must stay exact");
    }
}

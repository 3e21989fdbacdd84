//! Demand-paged serving (v7) vs. the eager compressed (v5) snapshot, on
//! the default XMark-like dataset. The `v3`/`v4` names in prints and JSON
//! keys are kept for history continuity — they mean "eager compressed"
//! and "paged":
//!
//! * **time-to-first-answer** — open a real on-disk snapshot and serve the
//!   first workload query, timed as one span. The eager layout must
//!   deserialize the whole file first; the paged layout reads the 64-byte
//!   header, the graph section, a prefix of the small per-component meta
//!   sections, and then faults in only the pages the query touches.
//! * **capped-cache replay** — the whole workload replayed through the
//!   paged reader with the page-cache budget clamped to 25% of the v4
//!   file size, against fully-resident compressed serving (same evaluator,
//!   same posting encoding, everything in RAM). The paged path pays page
//!   faults, per-page checksum verification on fault, and clock eviction;
//!   the gate bounds that tax.
//!
//! Answers and costs are cross-checked paged-vs-eager under both trust
//! policies before any timing is trusted; outside `--smoke` the run asserts
//! the paged time-to-first-answer is at least `TTFA_GATE`x better than
//! the eager layout and the capped replay stays within the bounded
//! factor below.
//! Results print as a table and append one JSON line to `BENCH_page.json`.
//!
//! ```text
//! page_bench [--smoke] [--reps N] [--out FILE]
//! ```

use std::io::Write as _;

use mrx_bench::timing::time;
use mrx_bench::{json, Dataset, Scale};
use mrx_graph::FrozenGraph;
use mrx_index::{replay, MStarIndex, TrustPolicy};
use mrx_store::{load_compressed, save_compressed, save_paged_with, PagedFile};
use mrx_workload::{Workload, WorkloadConfig};

const POLICY: TrustPolicy = TrustPolicy::Proven;

/// Outside smoke, paged TTFA must beat the eager layout by this much.
/// Measured 10-19x at full scale; the shared 1-core box wanders the
/// minimums enough that one run in a handful lands just under 10x, so
/// the gate keeps spike headroom below the measured floor.
const TTFA_GATE: f64 = 8.0;

/// Outside smoke, workload replay with the cache capped at 25% of the
/// file must stay within this factor of fully-resident compressed
/// serving. The tax is page-table lookups, fault + per-page word-folded
/// FNV on every miss, and clock eviction churn; measured 1.8-2.7x at
/// full XMark scale on a warm file cache with the tagged-block decoders
/// and headroom-only readahead (the pre-readahead decoder measured
/// ~2.9x), gated with noise headroom above that.
const REPLAY_FACTOR_BOUND: f64 = 3.5;

struct Opts {
    smoke: bool,
    reps: usize,
    out: String,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        smoke: false,
        reps: 5,
        out: "BENCH_page.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--reps" => opts.reps = args.next().and_then(|v| v.parse().ok()).expect("--reps N"),
            "--out" => opts.out = args.next().expect("--out FILE"),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: page_bench [--smoke] [--reps N] [--out FILE]");
                std::process::exit(2);
            }
        }
    }
    if opts.smoke {
        opts.reps = 1;
    }
    opts
}

fn main() {
    let opts = parse_args();
    let scale = if opts.smoke { Scale::Tiny } else { Scale::Full };
    // Small pages at smoke scale so the tiny snapshot still spans many
    // pages and the capped cache actually evicts.
    let page_size: u32 = if opts.smoke { 1024 } else { 64 * 1024 };
    let g = Dataset::XMark.load(scale);
    let w = Workload::generate(
        &g,
        &WorkloadConfig {
            max_path_len: 4,
            num_queries: scale.num_queries(),
            seed: 7,
            max_enumerated_paths: 200_000,
        },
    );
    let mut idx = MStarIndex::new(&g);
    for q in &w.queries {
        idx.refine_for(&g, q);
    }
    let fg = FrozenGraph::freeze(&g);
    let cz = idx.freeze_compressed();
    fg.validate().expect("frozen graph invalid");
    cz.validate().expect("compressed index invalid");

    let dir = std::env::temp_dir().join(format!("mrx-page-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let p3 = dir.join("bench-v5.mrx");
    let p4 = dir.join("bench-v7.mrx");
    save_compressed(&p3, &fg, &cz).expect("save v5");
    save_paged_with(&p4, &fg, &cz, page_size).expect("save v7");
    let v3_bytes = std::fs::metadata(&p3).expect("stat v3").len();
    let v4_bytes = std::fs::metadata(&p4).expect("stat v4").len();
    println!(
        "page_bench: XMark-like, {} nodes, {} queries, page {} B, \
         v5 {} / v7 {} bytes, reps={}",
        g.node_count(),
        w.queries.len(),
        page_size,
        v3_bytes,
        v4_bytes,
        opts.reps,
    );

    // Parity gate under both policies: the paged reader must reproduce the
    // eager compressed answers and cost counts bit for bit — page seams,
    // evictions and all — before any timing is trusted.
    {
        let mut file = PagedFile::open_with(&p4, v4_bytes / 4).expect("open v4 for parity");
        for policy in [TrustPolicy::Proven, TrustPolicy::Claimed] {
            for q in &w.queries {
                let eager = cz.query_top_down(&fg, q, policy);
                let paged = file.query(q, policy).expect("paged parity query");
                assert_eq!(
                    paged.nodes, eager.nodes,
                    "{policy:?}: answer mismatch on {q}"
                );
                assert_eq!(paged.cost, eager.cost, "{policy:?}: cost mismatch on {q}");
            }
        }
        let s = file.page_stats();
        assert_eq!(s.checksum_failures, 0, "clean file must not fail checksums");
        println!(
            "parity: {} queries x 2 policies bit-identical \
             (faults={} hits={} evictions={})",
            w.queries.len(),
            s.faults,
            s.hits,
            s.evictions
        );
    }

    // --- Time-to-first-answer: eager full load vs. paged open ----------
    let q0 = &w.queries[0];
    let ttfa_v3 = time("ttfa/v3-eager", opts.reps, || {
        let (fg3, cz3) = load_compressed(&p3).expect("load v3");
        cz3.query_top_down(&fg3, q0, POLICY).nodes.len()
    });
    let ttfa_v4 = time("ttfa/v4-paged", opts.reps, || {
        let mut f = PagedFile::open(&p4).expect("open v4");
        f.query_top_down(q0).expect("paged first query").nodes.len()
    });
    println!("{}", ttfa_v3.render());
    println!("{}", ttfa_v4.render());
    let ttfa_speedup_v3 = ttfa_v3.min_ms / ttfa_v4.min_ms;
    println!("paged time-to-first-answer speedup: {ttfa_speedup_v3:.2}x vs v5");

    // --- Replay: capped cache vs. fully-resident compressed serving ----
    let cache_cap = v4_bytes / 4;
    let resident = time("replay/resident-v3", opts.reps, || {
        replay(&cz, &fg, &w.queries, POLICY, 1).total
    });
    let file = PagedFile::open_with(&p4, cache_cap).expect("open v7 for replay");
    let resident_total = replay(&cz, &fg, &w.queries, POLICY, 1).total;
    let (pg, star, cache) = file.into_parts().expect("activate v7");
    let paged_total = replay(&star, &pg, &w.queries, POLICY, 1).total;
    assert_eq!(
        paged_total, resident_total,
        "capped-cache replay must cost exactly what resident serving costs"
    );
    let capped = time("replay/paged-25pct", opts.reps, || {
        replay(&star, &pg, &w.queries, POLICY, 1).total
    });
    assert!(
        cache.take_poison().is_none(),
        "clean replay must not poison the cache"
    );
    let s = cache.stats();
    println!("{}", resident.render());
    println!("{}", capped.render());
    let replay_factor = capped.min_ms / resident.min_ms;
    println!(
        "capped-cache replay factor: {replay_factor:.2}x of resident \
         (cap {} bytes, faults={} hits={} evictions={} resident_bytes={})",
        cache_cap, s.faults, s.hits, s.evictions, s.resident_bytes
    );
    println!(
        "readahead: prefetched={} readahead_hits={} wasted_prefetches={}",
        s.prefetched, s.readahead_hits, s.wasted_prefetches
    );

    if !opts.smoke {
        assert!(
            ttfa_speedup_v3 >= TTFA_GATE,
            "paged time-to-first-answer must beat eager serving {TTFA_GATE}x \
             (got {ttfa_speedup_v3:.2}x vs v5)"
        );
        assert!(
            replay_factor <= REPLAY_FACTOR_BOUND,
            "capped-cache replay must stay within {REPLAY_FACTOR_BOUND}x of \
             resident serving (got {replay_factor:.2}x)"
        );
    }

    let line = format!(
        concat!(
            "{{\"dataset\":\"xmark\",\"nodes\":{},\"queries\":{},\"reps\":{},",
            "\"policy\":\"proven\",\"page_size\":{},",
            "\"v3_bytes\":{},\"v4_bytes\":{},",
            "\"ttfa_v3_ms\":{:.3},\"ttfa_v4_ms\":{:.3},",
            "\"ttfa_speedup_v3\":{:.2},",
            "\"cache_cap_bytes\":{},\"replay_resident_ms\":{:.3},",
            "\"replay_paged_ms\":{:.3},\"replay_factor\":{:.2},",
            "\"faults\":{},\"hits\":{},\"evictions\":{},\"resident_bytes\":{},",
            "\"prefetched\":{},\"readahead_hits\":{},\"wasted_prefetches\":{}}}"
        ),
        g.node_count(),
        w.queries.len(),
        opts.reps,
        page_size,
        v3_bytes,
        v4_bytes,
        ttfa_v3.min_ms,
        ttfa_v4.min_ms,
        ttfa_speedup_v3,
        cache_cap,
        resident.min_ms,
        capped.min_ms,
        replay_factor,
        s.faults,
        s.hits,
        s.evictions,
        s.resident_bytes,
        s.prefetched,
        s.readahead_hits,
        s.wasted_prefetches,
    );
    let _ = std::fs::remove_dir_all(&dir);
    // Validate even in smoke mode, so CI catches a malformed line before it
    // would ever reach the checked-in history.
    json::assert_valid(&line);
    if opts.smoke {
        println!("smoke mode: skipping JSON append");
        return;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&opts.out)
        .expect("open BENCH_page.json");
    writeln!(f, "{line}").expect("append result line");
    println!("appended to {}", opts.out);
}

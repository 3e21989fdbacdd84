//! Throughput and chaos harness for the `mrx serve` daemon.
//!
//! Two phases over in-process servers on a loopback socket:
//!
//! * **sustained throughput** — an XMark-like compressed snapshot served to
//!   N concurrent tenant connections, each replaying the workload's
//!   query strings in a tight loop. Every answer is first cross-checked
//!   against a single-threaded oracle, then the timed run records
//!   sustained QPS and the p50/p99/p999 client-observed latency along
//!   with the daemon's shed/cache counters.
//! * **deterministic chaos** (`--chaos` runs it alone) — a SplitMix64-
//!   seeded scenario mixes RELOAD storms flipping between two datasets
//!   and two layouts (compressed and demand-paged), reload attempts
//!   against torn/truncated/bit-flipped/stale-version images, malformed
//!   wire frames, abrupt disconnects, and flood tenants driving the
//!   bounded queue into typed shed — while one *healthy* tenant keeps
//!   querying and asserts, for every answer, bit-identical equality with
//!   the single-threaded oracle *for the epoch the server stamped on it*.
//!
//! Chaos gates: zero panics, zero wrong or partial answers, the healthy
//! tenant serves in **every** epoch (queries flow through every RELOAD),
//! every corrupt reload is rejected with the old epoch still serving, and
//! the healthy tenant's p999 stays bounded.
//!
//! Results print as a table and append one JSON line to `BENCH_serve.json`.
//!
//! ```text
//! serve_bench [--smoke] [--chaos] [--seed N] [--clients N] [--queries N] [--out FILE]
//! ```

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrx_bench::{json, Dataset, Scale};
use mrx_datagen::prng::Prng;
use mrx_graph::{DataGraph, FrozenGraph};
use mrx_index::{MStarIndex, QueryScratch, TrustPolicy};
use mrx_path::{PathExpr, QueryBudget};
use mrx_serve::{
    Client, ClientError, Response, ServeConfig, ServeError, Server, MAX_REQUEST_FRAME,
};
use mrx_store::{save_compressed, save_paged_with};
use mrx_workload::{Workload, WorkloadConfig};

struct Opts {
    smoke: bool,
    chaos_only: bool,
    seed: u64,
    clients: usize,
    queries: usize,
    out: String,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        smoke: false,
        chaos_only: false,
        seed: 42,
        clients: 8,
        queries: 1_500,
        out: "BENCH_serve.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--chaos" => opts.chaos_only = true,
            "--seed" => opts.seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            "--clients" => {
                opts.clients = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--clients N")
            }
            "--queries" => {
                opts.queries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--queries N")
            }
            "--out" => opts.out = args.next().expect("--out FILE"),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: serve_bench [--smoke] [--chaos] [--seed N] [--clients N] \
                     [--queries N] [--out FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    if opts.smoke {
        opts.clients = opts.clients.min(4);
        opts.queries = opts.queries.min(150);
    }
    opts
}

/// Pulls the integer after `"key":` out of the daemon's stats JSON (the
/// counters are flat and non-negative, so a digit scan suffices).
fn stat_u64(stats: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let Some(i) = stats.find(&pat) else { return 0 };
    stats[i + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

/// Number of entries in the stats `degraded_components` array.
fn degraded_count(stats: &str) -> usize {
    let Some(i) = stats.find("\"degraded_components\":[") else {
        return 0;
    };
    let rest = &stats[i + "\"degraded_components\":[".len()..];
    let Some(end) = rest.find(']') else { return 0 };
    let body = &rest[..end];
    if body.trim().is_empty() {
        0
    } else {
        body.split(',').count()
    }
}

fn pctl(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Single-threaded oracle: exact (Proven) answers for `exprs` on `g`.
fn oracle(g: &DataGraph, exprs: &[String]) -> HashMap<String, Vec<u32>> {
    let fg = FrozenGraph::freeze(g);
    let star = MStarIndex::new(g).freeze_compressed();
    let mut scratch = QueryScratch::new();
    exprs
        .iter()
        .map(|e| {
            let pe = PathExpr::parse(e).expect("oracle expr must parse");
            let cp = pe.compile(&fg);
            let mut meter = QueryBudget::default().meter();
            let a = star
                .query_top_down_budgeted(&fg, &cp, TrustPolicy::Proven, &mut scratch, &mut meter)
                .expect("oracle query must not trip an unlimited budget");
            (e.clone(), a.nodes.iter().map(|n| n.0).collect())
        })
        .collect()
}

struct ThroughputResult {
    nodes: usize,
    exprs: usize,
    answers: u64,
    elapsed_ms: f64,
    qps: f64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    cache_hits: u64,
    cache_misses: u64,
    shed_overload: u64,
    shed_rate: u64,
}

/// Phase 1: parity-checked sustained throughput on one compressed snapshot.
fn throughput(opts: &Opts, dir: &Path) -> ThroughputResult {
    let scale = if opts.smoke {
        Scale::Tiny
    } else {
        Scale::Small
    };
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
    // A bounded expression set keeps the oracle cheap while the clients
    // still rotate through a realistic mixed working set.
    let exprs: Vec<String> = w.queries.iter().take(32).map(|q| q.to_string()).collect();
    let want = Arc::new(oracle(&g, &exprs));
    let snap = dir.join("tput.mrx");
    save_compressed(&snap, &FrozenGraph::freeze(&g), &idx.freeze_compressed())
        .expect("save throughput snapshot");

    let mut cfg = ServeConfig::new("127.0.0.1:0", &snap);
    cfg.workers = 4;
    cfg.drain_timeout = Duration::from_secs(2);
    let server = Server::start(cfg).expect("start throughput server");
    let addr = server.addr();

    // Parity gate before any timing is trusted.
    {
        let mut c = Client::connect(addr).expect("parity connect");
        for e in &exprs {
            let r = c.query("parity", e).expect("parity query");
            assert_eq!(&r.nodes, &want[e], "parity mismatch on {e}");
        }
    }

    let exprs = Arc::new(exprs);
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for t in 0..opts.clients {
        let exprs = Arc::clone(&exprs);
        let want = Arc::clone(&want);
        let per_client = opts.queries;
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("client connect");
            let tenant = format!("tenant{t}");
            let mut lat = Vec::with_capacity(per_client);
            for i in 0..per_client {
                let e = &exprs[(i + t) % exprs.len()];
                let q0 = Instant::now();
                let r = c.query(&tenant, e).expect("throughput query");
                lat.push(q0.elapsed().as_micros() as u64);
                assert_eq!(&r.nodes, &want[e], "wrong answer for {e}");
            }
            lat
        }));
    }
    let mut lat: Vec<u64> = Vec::new();
    for h in handles {
        lat.extend(h.join().expect("throughput client must not panic"));
    }
    let elapsed = t0.elapsed();
    lat.sort_unstable();
    let stats = server.stats_json();
    server.stop();

    let answers = lat.len() as u64;
    ThroughputResult {
        nodes: g.node_count(),
        exprs: exprs.len(),
        answers,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        qps: answers as f64 / elapsed.as_secs_f64(),
        p50_us: pctl(&lat, 0.50),
        p99_us: pctl(&lat, 0.99),
        p999_us: pctl(&lat, 0.999),
        cache_hits: stat_u64(&stats, "hits"),
        cache_misses: stat_u64(&stats, "misses"),
        shed_overload: stat_u64(&stats, "shed_overload"),
        shed_rate: stat_u64(&stats, "shed_rate"),
    }
}

/// Corrupt variants of a good snapshot image, written next to it. RELOAD
/// must reject every one and keep the old epoch serving.
fn write_corrupt_variants(good: &Path, dir: &Path) -> Vec<PathBuf> {
    let bytes = std::fs::read(good).expect("read good snapshot");
    let mut out = Vec::new();
    let torn = dir.join("chaos-torn.mrx");
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).expect("write torn");
    out.push(torn);
    let trunc = dir.join("chaos-trunc.mrx");
    std::fs::write(&trunc, &bytes[..bytes.len() - 3]).expect("write trunc");
    out.push(trunc);
    let mut flipped = bytes.clone();
    let pos = flipped.len() - 9;
    flipped[pos] ^= 0x20;
    let flip = dir.join("chaos-flip.mrx");
    std::fs::write(&flip, &flipped).expect("write flip");
    out.push(flip);
    let mut stale = bytes;
    stale[8..12].copy_from_slice(&99u32.to_le_bytes());
    let stale_p = dir.join("chaos-stale.mrx");
    std::fs::write(&stale_p, &stale).expect("write stale");
    out.push(stale_p);
    out
}

/// One seeded malformed frame; returns (bytes, expect_response).
/// `expect_response == false` means the abuser drops the connection after
/// a partial frame and the server must simply reap it.
fn malformed_frame(rng: &mut Prng) -> (Vec<u8>, bool) {
    match rng.gen_range(0..5usize) {
        // Declared length beyond the request cap: rejected pre-allocation.
        0 => {
            let len = rng.gen_range(MAX_REQUEST_FRAME as u64 + 1..u32::MAX as u64);
            ((len as u32).to_le_bytes().to_vec(), true)
        }
        // Garbage verb byte in an otherwise well-framed payload.
        1 => {
            let verb = 32 + rng.gen_range(0..200u64) as u8;
            let mut payload = 7u32.to_le_bytes().to_vec();
            payload.push(verb);
            payload.extend_from_slice(&[0u8; 4]);
            let mut f = (payload.len() as u32).to_le_bytes().to_vec();
            f.extend_from_slice(&payload);
            (f, true)
        }
        // QUERY whose tenant length lies far past the frame end.
        2 => {
            let mut payload = 9u32.to_le_bytes().to_vec();
            payload.push(1); // VERB_QUERY
            payload.extend_from_slice(&(rng.gen_range(100..u16::MAX as u64) as u16).to_le_bytes());
            payload.extend_from_slice(b"x");
            let mut f = (payload.len() as u32).to_le_bytes().to_vec();
            f.extend_from_slice(&payload);
            (f, true)
        }
        // Empty payload: too short to even carry a request id.
        3 => (0u32.to_le_bytes().to_vec(), true),
        // Truncated frame: declare more than is sent, then hang up.
        _ => {
            let declared = rng.gen_range(16..512u64) as u32;
            let sent = rng.gen_range(0..declared as u64 / 2) as usize;
            let mut f = declared.to_le_bytes().to_vec();
            f.extend(vec![0xAAu8; sent]);
            (f, false)
        }
    }
}

struct ChaosResult {
    steps: u64,
    reloads_ok: u64,
    reloads_rejected: u64,
    protocol_errors: u64,
    healthy_answers: u64,
    epochs_served: u64,
    shed_overload: u64,
    flood_answers: u64,
    p999_us: u64,
    degraded: usize,
}

/// Phase 2: the deterministic chaos scenario (see module docs).
fn chaos(opts: &Opts, dir: &Path) -> ChaosResult {
    let good_reloads: u64 = if opts.smoke { 6 } else { 24 };
    let ga = Dataset::XMark.load(Scale::Tiny);
    let gb = Dataset::Nasa.load(Scale::Tiny);
    let wa = Workload::generate(
        &ga,
        &WorkloadConfig {
            max_path_len: 4,
            num_queries: 40,
            seed: opts.seed,
            max_enumerated_paths: 200_000,
        },
    );
    let exprs: Vec<String> = wa
        .queries
        .iter()
        .take(10)
        .map(|q| q.to_string())
        .chain(["//*".to_string(), "//*/*".to_string()])
        .collect();
    let want_a = Arc::new(oracle(&ga, &exprs));
    let want_b = Arc::new(oracle(&gb, &exprs));

    // Two layouts on purpose: every odd→even swap also crosses the
    // compressed/paged boundary, exercising the per-worker paged views.
    let pa = dir.join("chaos-a.mrx");
    let pb = dir.join("chaos-b.mrx");
    let ia = MStarIndex::new(&ga);
    save_compressed(&pa, &FrozenGraph::freeze(&ga), &ia.freeze_compressed()).expect("save A");
    let ib = MStarIndex::new(&gb);
    save_paged_with(
        &pb,
        &FrozenGraph::freeze(&gb),
        &ib.freeze_compressed(),
        4096,
    )
    .expect("save B");
    let corrupt = write_corrupt_variants(&pb, dir);

    let mut cfg = ServeConfig::new("127.0.0.1:0", &pa);
    cfg.workers = 4;
    cfg.queue_cap = 64;
    cfg.tenant_backlog = 8;
    cfg.drain_timeout = Duration::from_secs(2);
    cfg.frame_timeout = Duration::from_millis(200);
    cfg.tick = Duration::from_millis(10);
    let server = Server::start(cfg).expect("start chaos server");
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));

    // Healthy tenant: every answer oracle-checked for its stamped epoch;
    // records which epochs it served under and its latency distribution.
    let healthy = {
        let stop = Arc::clone(&stop);
        let exprs = exprs.clone();
        let (wa, wb) = (Arc::clone(&want_a), Arc::clone(&want_b));
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("healthy connect");
            let mut lat = Vec::new();
            let mut epochs = std::collections::BTreeSet::new();
            let mut served = 0u64;
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let e = &exprs[i % exprs.len()];
                i += 1;
                let q0 = Instant::now();
                let r = c.query("healthy", e).expect("healthy tenant must serve");
                lat.push(q0.elapsed().as_micros() as u64);
                let want = if r.epoch % 2 == 1 { &wa } else { &wb };
                assert_eq!(
                    &r.nodes, &want[e],
                    "wrong answer for {e} at epoch {}",
                    r.epoch
                );
                epochs.insert(r.epoch);
                served += 1;
            }
            (lat, epochs, served)
        })
    };

    // Flood tenants: drive the bounded queue; Ok answers are still
    // oracle-checked, Overloaded is the expected typed shed.
    let mut floods = Vec::new();
    for f in 0..3u64 {
        let stop = Arc::clone(&stop);
        let exprs = exprs.clone();
        let (wa, wb) = (Arc::clone(&want_a), Arc::clone(&want_b));
        let seed = opts.seed ^ (0xF100D + f);
        floods.push(std::thread::spawn(move || {
            let mut rng = Prng::seed_from_u64(seed);
            let mut c = Client::connect(addr).expect("flood connect");
            let tenant = format!("flood{f}");
            let mut ok = 0u64;
            let mut shed = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let e = &exprs[rng.gen_range(0..exprs.len())];
                match c.query(&tenant, e) {
                    Ok(r) => {
                        let want = if r.epoch % 2 == 1 { &wa } else { &wb };
                        assert_eq!(&r.nodes, &want[e], "flood wrong answer for {e}");
                        ok += 1;
                    }
                    Err(ClientError::Server(ServeError::Overloaded { .. })) => shed += 1,
                    Err(e) => panic!("flood tenant got a non-shed failure: {e}"),
                }
            }
            (ok, shed)
        }));
    }

    // Abusers: malformed frames, abrupt disconnects, reconnect loops.
    let mut abusers = Vec::new();
    for a in 0..2u64 {
        let stop = Arc::clone(&stop);
        let seed = opts.seed ^ (0xAB05E + a);
        abusers.push(std::thread::spawn(move || {
            let mut rng = Prng::seed_from_u64(seed);
            let mut typed = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let Ok(mut c) = Client::connect_with(addr, Duration::from_secs(5)) else {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                };
                if rng.gen_bool(0.2) {
                    // Plain abrupt disconnect; sometimes after a valid ping.
                    if rng.gen_bool(0.5) {
                        let _ = c.ping();
                    }
                    drop(c);
                    continue;
                }
                let (frame, expect_response) = malformed_frame(&mut rng);
                if c.send_raw(&frame).is_err() {
                    continue;
                }
                if expect_response {
                    match c.read_response_raw() {
                        Ok((_, Response::Error(ServeError::Protocol(_)))) => typed += 1,
                        Ok((_, other)) => panic!("malformed frame got {other:?}"),
                        // The server may slam the connection after (or
                        // instead of) the typed reply under load.
                        Err(_) => {}
                    }
                }
                // else: hang up mid-frame; the server reaps it.
                drop(c);
            }
            typed
        }));
    }

    // The driver: good reloads alternating B, A, B, ... with corrupt
    // attempts mixed in. Epoch parity (odd = A, even = B) is the contract
    // the query threads verify against.
    let mut rng = Prng::seed_from_u64(opts.seed);
    let mut driver = Client::connect(addr).expect("driver connect");
    let mut reloads_ok = 0u64;
    let mut reloads_rejected = 0u64;
    let mut steps = 0u64;
    while reloads_ok < good_reloads {
        steps += 1;
        if rng.gen_bool(0.35) {
            // Corrupt attempt: must be rejected, epoch must not move.
            let before = stat_u64(&server.stats_json(), "epoch");
            let bad = &corrupt[rng.gen_range(0..corrupt.len())];
            match driver.reload(&bad.display().to_string()) {
                Err(ClientError::Server(ServeError::ReloadRejected(_))) => {}
                other => panic!("corrupt reload must be rejected, got {other:?}"),
            }
            let after = stat_u64(&server.stats_json(), "epoch");
            assert_eq!(before, after, "corrupt reload moved the epoch");
            reloads_rejected += 1;
        } else {
            let next = if reloads_ok.is_multiple_of(2) {
                &pb
            } else {
                &pa
            };
            driver
                .reload(&next.display().to_string())
                .expect("good reload must swap");
            reloads_ok += 1;
        }
        std::thread::sleep(Duration::from_millis(if opts.smoke { 10 } else { 20 }));
    }

    stop.store(true, Ordering::Relaxed);
    let (mut lat, epochs, healthy_answers) = healthy.join().expect("healthy thread must not panic");
    let mut flood_answers = 0u64;
    let mut _flood_shed = 0u64;
    for f in floods {
        let (ok, shed) = f.join().expect("flood thread must not panic");
        flood_answers += ok;
        _flood_shed += shed;
    }
    let mut typed_protocol = 0u64;
    for a in abusers {
        typed_protocol += a.join().expect("abuser thread must not panic");
    }
    let stats = server.stats_json();
    server.stop();

    // --- Gates ----------------------------------------------------------
    let final_epoch = 1 + reloads_ok;
    let want_epochs: Vec<u64> = (1..=final_epoch).collect();
    let got_epochs: Vec<u64> = epochs.into_iter().collect();
    assert_eq!(
        got_epochs, want_epochs,
        "healthy tenant must serve through every RELOAD"
    );
    assert_eq!(
        stat_u64(&stats, "reloads_ok"),
        good_reloads,
        "daemon reload counter disagrees"
    );
    assert!(
        stat_u64(&stats, "reloads_rejected") >= reloads_rejected,
        "rejected reloads must be counted"
    );
    assert!(
        typed_protocol > 0,
        "abusers never saw a typed protocol error"
    );
    assert_eq!(degraded_count(&stats), 0, "chaos run must stay healthy");
    lat.sort_unstable();
    let p999_us = pctl(&lat, 0.999);
    assert!(
        p999_us < 2_000_000,
        "healthy-tenant p999 must stay bounded under chaos (got {p999_us} us)"
    );

    ChaosResult {
        steps,
        reloads_ok,
        reloads_rejected,
        protocol_errors: stat_u64(&stats, "protocol_errors"),
        healthy_answers,
        epochs_served: final_epoch,
        shed_overload: stat_u64(&stats, "shed_overload"),
        flood_answers,
        p999_us,
        degraded: degraded_count(&stats),
    }
}

fn main() {
    let opts = parse_args();
    let dir = std::env::temp_dir().join(format!("mrx-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let tput = if opts.chaos_only {
        None
    } else {
        let t = throughput(&opts, &dir);
        println!(
            "throughput: {} nodes, {} exprs, {} clients x {} queries",
            t.nodes, t.exprs, opts.clients, opts.queries
        );
        println!(
            "  {:.0} qps sustained over {:.1} ms ({} answers)",
            t.qps, t.elapsed_ms, t.answers
        );
        println!(
            "  latency p50 {} us, p99 {} us, p999 {} us",
            t.p50_us, t.p99_us, t.p999_us
        );
        println!(
            "  cache hits {} misses {}, shed overload {} rate {}",
            t.cache_hits, t.cache_misses, t.shed_overload, t.shed_rate
        );
        Some(t)
    };

    let ch = chaos(&opts, &dir);
    println!(
        "chaos: {} steps, {} reloads ok, {} corrupt reloads rejected, seed {}",
        ch.steps, ch.reloads_ok, ch.reloads_rejected, opts.seed
    );
    println!(
        "  healthy tenant: {} answers across all {} epochs, p999 {} us",
        ch.healthy_answers, ch.epochs_served, ch.p999_us
    );
    println!(
        "  floods: {} answers, {} queries shed typed; {} protocol errors typed",
        ch.flood_answers, ch.shed_overload, ch.protocol_errors
    );
    println!("  gates: 0 panics, 0 wrong answers, 0 degraded components");

    let _ = std::fs::remove_dir_all(&dir);
    let Some(t) = tput else {
        println!("chaos mode: skipping JSON append");
        return;
    };
    let line = format!(
        concat!(
            "{{\"dataset\":\"xmark\",\"nodes\":{},\"exprs\":{},\"clients\":{},",
            "\"queries_per_client\":{},\"answers\":{},\"elapsed_ms\":{:.1},",
            "\"qps\":{:.0},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},",
            "\"cache_hits\":{},\"cache_misses\":{},\"shed_overload\":{},\"shed_rate\":{},",
            "\"chaos_seed\":{},\"chaos_steps\":{},\"chaos_reloads_ok\":{},",
            "\"chaos_reloads_rejected\":{},\"chaos_protocol_errors\":{},",
            "\"chaos_healthy_answers\":{},\"chaos_epochs_served\":{},",
            "\"chaos_shed_overload\":{},\"chaos_flood_answers\":{},",
            "\"chaos_p999_us\":{},\"degraded_components\":{},",
            "\"panics\":0,\"wrong_answers\":0}}"
        ),
        t.nodes,
        t.exprs,
        opts.clients,
        opts.queries,
        t.answers,
        t.elapsed_ms,
        t.qps,
        t.p50_us,
        t.p99_us,
        t.p999_us,
        t.cache_hits,
        t.cache_misses,
        t.shed_overload,
        t.shed_rate,
        opts.seed,
        ch.steps,
        ch.reloads_ok,
        ch.reloads_rejected,
        ch.protocol_errors,
        ch.healthy_answers,
        ch.epochs_served,
        ch.shed_overload,
        ch.flood_answers,
        ch.p999_us,
        ch.degraded,
    );
    json::assert_valid(&line);
    if opts.smoke {
        println!("smoke mode: skipping JSON append");
        return;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&opts.out)
        .expect("open BENCH_serve.json");
    writeln!(f, "{line}").expect("append result line");
    println!("appended to {}", opts.out);
}

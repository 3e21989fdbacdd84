//! End-to-end daemon tests: correctness under concurrency, RELOAD storms,
//! mid-swap corruption, shedding, shutdown, and a seeded chaos scenario
//! that mixes them all.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrx_datagen::{nasa_like, xmark_like, Prng, XmarkConfig};
use mrx_graph::{DataGraph, FrozenGraph};
use mrx_index::{MStarIndex, QuerySession, TrustPolicy};
use mrx_path::PathExpr;
use mrx_serve::{
    Client, ClientError, Response, ServeConfig, ServeError, Server, TenantBudget, TenantRate,
};
use mrx_store::{paged_image, save_compressed, save_paged_with, PagedFile};
use mrx_workload::{Workload, WorkloadConfig};

mod common;
use common::malformed_frame;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mrx-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn graph_a() -> DataGraph {
    mrx_graph::xml::parse(
        "<site><people><person><name><first/><last/></name><address/></person>
          <person><name><last/></name></person></people>
          <regions><item><name/></item><item><name/></item></regions></site>",
    )
    .unwrap()
}

fn graph_b() -> DataGraph {
    mrx_graph::xml::parse(
        "<site><people><person><name><first/></name></person></people>
          <catalog><entry><name/><price/></entry><entry><name/></entry>
          <entry><name/></entry></catalog></site>",
    )
    .unwrap()
}

const EXPRS: &[&str] = &[
    "//person/name",
    "//name",
    "/site/people/person",
    "//name/last",
    "//item",
    "//entry/name",
];

/// Single-threaded oracle: exact (Proven) answers for every expression.
fn oracle<S: AsRef<str>>(g: &DataGraph, exprs: &[S]) -> HashMap<String, Vec<u32>> {
    let fg = FrozenGraph::freeze(g);
    let star = MStarIndex::new(g).freeze_compressed();
    let mut session = QuerySession::new(TrustPolicy::Proven);
    exprs
        .iter()
        .map(|e| {
            let e = e.as_ref();
            let pe = PathExpr::parse(e).unwrap();
            let a = session.try_serve(&star, &fg, &pe).unwrap();
            (e.to_string(), a.nodes.iter().map(|n| n.0).collect())
        })
        .collect()
}

fn save_pair(dir: &Path) -> (PathBuf, PathBuf) {
    let (ga, gb) = (graph_a(), graph_b());
    let pa = dir.join("a.mrx");
    let pb = dir.join("b.mrx");
    // Different layouts on purpose: RELOAD must swap across kinds.
    let mut ia = MStarIndex::new(&ga);
    ia.refine_for(&ga, &PathExpr::parse("//person/name").unwrap());
    save_compressed(&pa, &FrozenGraph::freeze(&ga), &ia.freeze_compressed()).unwrap();
    let ib = MStarIndex::new(&gb);
    save_paged_with(
        &pb,
        &FrozenGraph::freeze(&gb),
        &ib.freeze_compressed(),
        1024,
    )
    .unwrap();
    (pa, pb)
}

/// The four corrupt variants of a good snapshot image, written to `dir` in
/// the order torn, truncated, bit-flipped, stale-version. RELOAD must
/// reject every one and keep the old epoch serving.
fn corrupt_variants(good: &Path, dir: &Path) -> [PathBuf; 4] {
    let bytes = std::fs::read(good).unwrap();
    let mut flipped = bytes.clone();
    let off = flipped.len() - 9;
    flipped[off] ^= 0x20;
    let mut stale = bytes.clone();
    stale[8..12].copy_from_slice(&99u32.to_le_bytes());
    let images = [
        ("torn.mrx", bytes[..bytes.len() / 2].to_vec()),
        ("trunc.mrx", bytes[..bytes.len() - 3].to_vec()),
        ("flip.mrx", flipped),
        ("stale.mrx", stale),
    ];
    images.map(|(name, image)| {
        let p = dir.join(name);
        std::fs::write(&p, image).unwrap();
        p
    })
}

fn base_config(snapshot: &PathBuf) -> ServeConfig {
    let mut cfg = ServeConfig::new("127.0.0.1:0", snapshot);
    cfg.drain_timeout = Duration::from_secs(2);
    cfg
}

#[test]
fn ping_query_stats_shutdown() {
    let dir = tmp_dir("basic");
    let (pa, _) = save_pair(&dir);
    let server = Server::start(base_config(&pa)).unwrap();
    let want = oracle(&graph_a(), EXPRS);
    let mut c = Client::connect(server.addr()).unwrap();
    c.ping().unwrap();
    for e in EXPRS {
        let r = c.query("t0", e).unwrap();
        assert_eq!(r.epoch, 1);
        assert_eq!(&r.nodes, &want[*e], "answer mismatch for {e}");
    }
    // Repeat: second round should come from the shared answer cache with
    // identical nodes.
    for e in EXPRS {
        assert_eq!(&c.query("t1", e).unwrap().nodes, &want[*e]);
    }
    let stats = c.stats().unwrap();
    assert!(stats.contains("\"epoch\":1"), "{stats}");
    assert!(stats.contains("\"healthy\":true"), "{stats}");
    assert!(stats.contains("\"answers\":"), "{stats}");
    c.shutdown_server().unwrap();
    let report = server.stop();
    assert!(report.stats_json.contains("\"answers\":"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The satellite-3 hammer: concurrent clients query while RELOADs flip
/// the snapshot between two datasets, at 2/4/8 workers. Every answer must
/// be bit-identical to the single-threaded oracle *for the epoch the
/// server stamped on it* — a torn swap or stale cache entry fails loudly.
#[test]
fn reload_hammer_matches_oracle_per_epoch() {
    let dir = tmp_dir("hammer");
    let (pa, pb) = save_pair(&dir);
    let want_a = Arc::new(oracle(&graph_a(), EXPRS));
    let want_b = Arc::new(oracle(&graph_b(), EXPRS));
    for &workers in &[2usize, 4, 8] {
        let mut cfg = base_config(&pa);
        cfg.workers = workers;
        let server = Server::start(cfg).unwrap();
        let addr = server.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let mut clients = Vec::new();
        for t in 0..4 {
            let stop = Arc::clone(&stop);
            let (wa, wb) = (Arc::clone(&want_a), Arc::clone(&want_b));
            clients.push(std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let tenant = format!("tenant{t}");
                let mut served = 0u64;
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let expr = EXPRS[i % EXPRS.len()];
                    i += 1;
                    match c.query(&tenant, expr) {
                        Ok(r) => {
                            // Epoch 1 = A; each reload alternates B, A, ...
                            let want = if r.epoch % 2 == 1 { &wa } else { &wb };
                            assert_eq!(
                                &r.nodes, &want[expr],
                                "wrong answer for {expr} at epoch {} ({workers} workers)",
                                r.epoch
                            );
                            served += 1;
                        }
                        Err(ClientError::Server(ServeError::ShuttingDown)) => break,
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                served
            }));
        }
        // Reload storm on the main thread: 12 swaps, alternating kinds.
        let mut rc = Client::connect(addr).unwrap();
        for swap in 0..12 {
            let target = if swap % 2 == 0 { &pb } else { &pa };
            let summary = rc.reload(target.to_str().unwrap()).unwrap();
            assert!(
                summary.contains(&format!("\"epoch\":{}", swap + 2)),
                "{summary}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        let mut total = 0;
        for h in clients {
            total += h.join().unwrap();
        }
        assert!(total > 0, "clients served nothing at {workers} workers");
        let stats = rc.stats().unwrap();
        assert!(stats.contains("\"reloads_ok\":12"), "{stats}");
        server.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mid-swap corruption: torn, truncated, bit-flipped, unknown-version and
/// retired-layout (v1–v4) replacement files are each rejected typed while
/// the old epoch keeps serving correct answers.
#[test]
fn corrupt_reload_is_rejected_and_old_epoch_serves() {
    let dir = tmp_dir("corrupt");
    let (pa, pb) = save_pair(&dir);
    let want_a = oracle(&graph_a(), EXPRS);
    // Also cover the paged layout as a corruption target.
    let gb = graph_b();
    let pv7 = dir.join("b7.mrx");
    save_paged_with(
        &pv7,
        &FrozenGraph::freeze(&gb),
        &MStarIndex::new(&gb).freeze_compressed(),
        1024,
    )
    .unwrap();

    let [torn, truncated, flipped, stale] = corrupt_variants(&pb, &dir);
    let bytes = std::fs::read(&pb).unwrap();
    let retired: Vec<PathBuf> = [1, 2, 3, 4, 6u32]
        .into_iter()
        .map(|v| {
            let p = dir.join(format!("retired-v{v}.mrx"));
            let mut rb = bytes.clone();
            rb[8..12].copy_from_slice(&v.to_le_bytes());
            std::fs::write(&p, &rb).unwrap();
            p
        })
        .collect();
    let paged_torn = dir.join("torn7.mrx");
    let v7bytes = std::fs::read(&pv7).unwrap();
    std::fs::write(&paged_torn, &v7bytes[..v7bytes.len() * 3 / 5]).unwrap();

    let server = Server::start(base_config(&pa)).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let bad_files = [&torn, &truncated, &flipped, &stale, &paged_torn];
    for bad in bad_files.into_iter().chain(&retired) {
        let err = c.reload(bad.to_str().unwrap()).unwrap_err();
        assert!(
            matches!(err, ClientError::Server(ServeError::ReloadRejected(_))),
            "expected typed rejection for {bad:?}, got {err:?}"
        );
        if retired.contains(bad) {
            let msg = err.to_string();
            assert!(msg.contains("mrx freeze"), "{bad:?}: {msg}");
        }
        // Old epoch still serving, bit-identical.
        for e in EXPRS {
            let r = c.query("t", e).unwrap();
            assert_eq!(r.epoch, 1, "epoch must not advance on a rejected swap");
            assert_eq!(&r.nodes, &want_a[*e]);
        }
    }
    let stats = c.stats().unwrap();
    assert!(stats.contains("\"reloads_rejected\":10"), "{stats}");
    assert!(stats.contains("\"reloads_ok\":0"), "{stats}");
    // A good file still swaps after all those failures.
    let summary = c.reload(pv7.to_str().unwrap()).unwrap();
    assert!(summary.contains("\"epoch\":2"), "{summary}");
    assert!(summary.contains("\"kind\":\"paged\""), "{summary}");
    let want_b = oracle(&gb, EXPRS);
    for e in EXPRS {
        let r = c.query("t", e).unwrap();
        assert_eq!(r.epoch, 2);
        assert_eq!(&r.nodes, &want_b[*e]);
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rate_limit_and_budget_are_typed() {
    let dir = tmp_dir("limits");
    let (pa, _) = save_pair(&dir);
    let mut cfg = base_config(&pa);
    // "slow" tenant: one query per 100 s, burst of 2.
    cfg.tenant_rates.insert(
        "slow".into(),
        TenantRate {
            rate: 0.01,
            burst: 2.0,
        },
    );
    // "tiny" tenant: a budget no real query fits in.
    cfg.tenant_budgets.insert(
        "tiny".into(),
        TenantBudget {
            max_steps: Some(1),
            max_result_nodes: None,
            deadline_ms: None,
        },
    );
    // Disable the answer cache so the tiny tenant cannot be served a
    // cached answer admitted by someone else.
    cfg.cache.min_cost = u64::MAX;
    let server = Server::start(cfg).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert!(c.query("slow", "//name").is_ok());
    assert!(c.query("slow", "//name").is_ok());
    match c.query("slow", "//name") {
        Err(ClientError::Server(ServeError::RateLimited { retry_after_ms })) => {
            assert!(retry_after_ms > 0);
        }
        other => panic!("expected RateLimited, got {other:?}"),
    }
    // An unlimited tenant is unaffected by the slow tenant's bucket.
    assert!(c.query("fast", "//name").is_ok());
    match c.query("tiny", "//person/name") {
        Err(ClientError::Server(ServeError::Budget { index_nodes, .. })) => {
            assert!(index_nodes >= 1);
        }
        other => panic!("expected Budget trip, got {other:?}"),
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One tenant's traffic must not lift another tenant's result cap: a
/// shared-cache hit is checked against the cap of the tenant it serves.
#[test]
fn shared_cache_hit_keeps_each_tenants_result_cap() {
    let dir = tmp_dir("result-cap");
    let (pa, _) = save_pair(&dir);
    let mut cfg = base_config(&pa);
    cfg.tenant_budgets.insert(
        "capped".into(),
        TenantBudget {
            max_steps: None,
            max_result_nodes: Some(1),
            deadline_ms: None,
        },
    );
    // Admit every answer, so the open tenant's query becomes a hit.
    cfg.cache.min_cost = 0;
    let server = Server::start(cfg).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let capped = |c: &mut Client| match c.query("capped", "//person/name") {
        Err(ClientError::Server(ServeError::Budget { kind, .. })) => {
            assert_eq!(kind, mrx_path::BudgetKind::ResultNodes)
        }
        other => panic!("expected a result-cap trip, got {other:?}"),
    };
    capped(&mut c);
    assert_eq!(c.query("open", "//person/name").unwrap().nodes.len(), 2);
    capped(&mut c);
    let stats = c.stats().unwrap();
    assert!(stats.contains("\"cache\":{\"hits\":1,"), "{stats}");
    // An answer under the cap is served to the capped tenant as before.
    assert_eq!(c.query("capped", "//address").unwrap().nodes.len(), 1);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Queue-cap shedding: one worker pinned on an expensive query, a queue
/// of one, and a burst of concurrent queries — some must be refused with
/// a typed Overloaded carrying a retry hint, and every admitted answer
/// must still be correct.
#[test]
fn overload_sheds_typed() {
    let dir = tmp_dir("overload");
    let g = xmark_like(&XmarkConfig::with_target_nodes(60_000), 7);
    let snap = dir.join("big.mrx");
    save_compressed(
        &snap,
        &FrozenGraph::freeze(&g),
        &MStarIndex::new(&g).freeze_compressed(),
    )
    .unwrap();
    let mut cfg = base_config(&snap);
    cfg.workers = 1;
    cfg.queue_cap = 1;
    cfg.tenant_backlog = 1;
    // Bypass the cache entirely so every query really evaluates.
    cfg.cache.min_cost = u64::MAX;
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();
    // Pin the worker.
    let pin = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.query("pinner", "//*/*/*/*/*").unwrap();
    });
    std::thread::sleep(Duration::from_millis(30));
    let mut shed = 0;
    let mut served = 0;
    let mut handles = Vec::new();
    for i in 0..12 {
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            match c.query(&format!("t{i}"), "//*/*/*/*") {
                Ok(_) => Ok(()),
                Err(ClientError::Server(ServeError::Overloaded { retry_after_ms })) => {
                    assert!(retry_after_ms > 0);
                    Err(())
                }
                Err(e) => panic!("expected answer or Overloaded, got {e}"),
            }
        }));
    }
    for h in handles {
        match h.join().unwrap() {
            Ok(()) => served += 1,
            Err(()) => shed += 1,
        }
    }
    pin.join().unwrap();
    assert!(shed > 0, "nothing shed (served {served})");
    let mut c = Client::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    assert!(stats.contains("\"shed_overload\":"), "{stats}");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn protocol_abuse_gets_typed_errors_and_close() {
    let dir = tmp_dir("abuse");
    let (pa, _) = save_pair(&dir);
    let mut cfg = base_config(&pa);
    cfg.frame_timeout = Duration::from_millis(150);
    cfg.idle_timeout = Duration::from_millis(400);
    cfg.tick = Duration::from_millis(20);
    let server = Server::start(cfg).unwrap();

    // Oversized declared length: typed protocol error before allocation.
    let mut c = Client::connect(server.addr()).unwrap();
    c.send_raw(&(u32::MAX).to_le_bytes()).unwrap();
    let (_, resp) = c.read_response_raw().unwrap();
    assert!(matches!(
        resp,
        mrx_serve::Response::Error(ServeError::Protocol(_))
    ));

    // Slow loris: a partial frame that stalls trips the frame deadline.
    let mut c = Client::connect(server.addr()).unwrap();
    c.send_raw(&20u32.to_le_bytes()).unwrap();
    c.send_raw(&[1, 2, 3]).unwrap();
    let (_, resp) = c.read_response_raw().unwrap();
    assert!(matches!(
        resp,
        mrx_serve::Response::Error(ServeError::Protocol(_))
    ));

    // Garbage verb inside a well-framed payload.
    let mut c = Client::connect(server.addr()).unwrap();
    let payload = [9u8, 9, 9, 9, 77];
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    c.send_raw(&frame).unwrap();
    let (_, resp) = c.read_response_raw().unwrap();
    assert!(matches!(
        resp,
        mrx_serve::Response::Error(ServeError::Protocol(_))
    ));

    // Idle connection gets reaped: the next read sees EOF/err.
    let mut c = Client::connect_with(server.addr(), Duration::from_secs(3)).unwrap();
    std::thread::sleep(Duration::from_millis(900));
    assert!(c.ping().is_err(), "idle connection must have been reaped");

    // The server is still healthy for well-behaved clients.
    let mut c = Client::connect(server.addr()).unwrap();
    c.ping().unwrap();
    let stats = c.stats().unwrap();
    assert!(stats.contains("\"protocol_errors\":"), "{stats}");
    assert!(stats.contains("\"idle_reaped\":"), "{stats}");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_and_refuses_new_queries() {
    let dir = tmp_dir("shutdown");
    let (pa, _) = save_pair(&dir);
    let server = Server::start(base_config(&pa)).unwrap();
    let addr = server.addr();
    let mut c = Client::connect(addr).unwrap();
    c.query("t", "//name").unwrap();
    let draining = c.shutdown_server().unwrap();
    assert!(draining.contains("draining"), "{draining}");
    // New queries are refused (typed) or the socket is already closed.
    let start = Instant::now();
    let mut refused = false;
    while start.elapsed() < Duration::from_secs(2) {
        match Client::connect(addr) {
            Ok(mut c2) => match c2.query("t", "//name") {
                Err(_) => {
                    refused = true;
                    break;
                }
                Ok(_) => std::thread::sleep(Duration::from_millis(20)),
            },
            Err(_) => {
                refused = true;
                break;
            }
        }
    }
    assert!(refused, "shutdown never started refusing queries");
    let report = server.stop();
    assert!(report.stats_json.contains("\"answers\":"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Lenient boot of a v5 snapshot with one unreadable component: the
/// component is rebuilt as live `A(i)`, STATS reports it, and answers stay
/// exact. A strict boot refuses the same file, and so does RELOAD.
#[test]
fn lenient_boot_degrades_a_corrupt_v5_component() {
    let dir = tmp_dir("degraded-boot");
    let (pa, _) = save_pair(&dir);
    let mut bytes = std::fs::read(&pa).unwrap();
    // The last component's payload ends 8 bytes (its digest) before EOF.
    let off = bytes.len() - 9;
    bytes[off] ^= 0x40;
    let damaged = dir.join("damaged.mrx");
    std::fs::write(&damaged, &bytes).unwrap();

    let mut strict = base_config(&damaged);
    strict.strict_boot = true;
    assert!(matches!(
        Server::start(strict),
        Err(mrx_serve::StartError::Snapshot(_))
    ));

    let server = Server::start(base_config(&damaged)).unwrap();
    let want = oracle(&graph_a(), EXPRS);
    let mut c = Client::connect(server.addr()).unwrap();
    for e in EXPRS {
        assert_eq!(&c.query("t", e).unwrap().nodes, &want[*e], "{e}");
    }
    let stats = c.stats().unwrap();
    assert!(stats.contains("\"healthy\":false"), "{stats}");
    assert!(!stats.contains("\"degraded_components\":[]"), "{stats}");
    let err = c.reload(damaged.to_str().unwrap()).unwrap_err();
    assert!(matches!(
        err,
        ClientError::Server(ServeError::ReloadRejected(_))
    ));
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A paged snapshot corrupted on disk after a clean boot: one extent page
/// is flipped in place. A query whose evaluation touches the page gets a
/// typed store error naming the integrity failure, and so does its repeat
/// (the answer was never admitted); STATS counts the poison trips, and a
/// query over clean pages still matches the oracle.
#[test]
fn corrupt_page_after_boot_is_a_typed_error_and_never_cached() {
    const PAGED_EXPRS: &[&str] = &[
        "//person/name",
        "//item/name",
        "//open_auction/bidder/personref",
        "//category/name",
        "//closed_auction/price",
        "//person",
    ];
    let dir = tmp_dir("page-integrity");
    let g = xmark_like(&XmarkConfig::with_target_nodes(3_000), 5);
    let fg = FrozenGraph::freeze(&g);
    let cz = MStarIndex::new(&g).freeze_compressed();
    let image = paged_image(&fg, &cz, 64).unwrap();
    let le = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap()) as usize;
    let (paged_off, paged_len) = (le(&image[16..24]), le(&image[24..32]));

    // Judge in process which queries a flip reaches: pick the first flip
    // that faults some query and leaves another clean.
    let reached = |at: usize| -> Option<(Vec<&str>, Vec<&str>)> {
        let mut bad = image.clone();
        bad[paged_off + at] ^= 0x10;
        let (lg, star, cache) = PagedFile::open_bytes(bad, 1 << 20)
            .and_then(PagedFile::into_parts)
            .ok()?;
        let (mut hit, mut clean) = (Vec::new(), Vec::new());
        for e in PAGED_EXPRS {
            let q = PathExpr::parse(e).unwrap();
            QuerySession::new(TrustPolicy::Proven).serve(&star, &lg, &q);
            match cache.take_poison() {
                Some(_) => hit.push(*e),
                None => clean.push(*e),
            }
        }
        (!hit.is_empty() && !clean.is_empty()).then_some((hit, clean))
    };
    let (at, (hit, clean)) = (0..paged_len)
        .step_by(64)
        .find_map(|at| reached(at).map(|r| (at, r)))
        .expect("some page flip must fault one query and spare another");

    let path = dir.join("paged.mrx");
    std::fs::write(&path, &image).unwrap();
    let mut cfg = base_config(&path);
    cfg.workers = 1;
    let server = Server::start(cfg).unwrap();
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start((paged_off + at) as u64)).unwrap();
        f.write_all(&[image[paged_off + at] ^ 0x10]).unwrap();
    }

    let mut c = Client::connect(server.addr()).unwrap();
    for e in &hit {
        for round in ["first", "repeat"] {
            match c.query("t", e) {
                Err(ClientError::Server(ServeError::Store(msg))) => {
                    assert!(msg.contains("page integrity failure"), "{e} {round}: {msg}")
                }
                other => panic!("{e} {round}: corrupt page served: {other:?}"),
            }
        }
    }
    for e in &clean {
        let q = PathExpr::parse(e).unwrap();
        let want: Vec<u32> = QuerySession::new(TrustPolicy::Proven)
            .serve(&cz, &fg, &q)
            .nodes
            .iter()
            .map(|n| n.0)
            .collect();
        assert_eq!(c.query("t", e).unwrap().nodes, want, "{e}");
    }
    let stats = c.stats().unwrap();
    let trips: usize = stats
        .split("\"poison_trips\":")
        .nth(1)
        .and_then(|t| t.split(|ch: char| !ch.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no poison_trips in {stats}"));
    assert_eq!(trips, 2 * hit.len(), "{stats}");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A boot snapshot in a retired layout (v1–v4, v6) is refused by name, even
/// under a lenient boot.
#[test]
fn retired_boot_snapshots_are_refused() {
    let dir = tmp_dir("retired-boot");
    let (pa, _) = save_pair(&dir);
    let bytes = std::fs::read(&pa).unwrap();
    for version in [1, 2, 3, 4, 6u32] {
        let mut old = bytes.clone();
        old[8..12].copy_from_slice(&version.to_le_bytes());
        let p = dir.join(format!("boot-v{version}.mrx"));
        std::fs::write(&p, &old).unwrap();
        match Server::start(base_config(&p)) {
            Err(mrx_serve::StartError::Snapshot(e)) => {
                assert!(
                    matches!(e, mrx_store::StoreError::Retired { version: v } if v == version),
                    "{e}"
                );
                assert!(e.to_string().contains("mrx freeze"), "{e}");
            }
            Err(e) => panic!("v{version}: unexpected boot error {e}"),
            Ok(_) => panic!("v{version}: a retired snapshot must not boot"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The number after `"key":` in the part of `stats` following `after`.
fn stat_after(stats: &str, after: &str, key: &str) -> u64 {
    stats
        .split(after)
        .nth(1)
        .and_then(|t| t.split(&format!("\"{key}\":")).nth(1))
        .and_then(|t| t.split(|ch: char| !ch.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no {key} after {after} in {stats}"))
}

/// The daemon serves the paged file it validated, not whatever sits at
/// the path later: a different snapshot renamed over the boot path before
/// the first query is never read.
#[test]
fn paged_file_renamed_over_the_boot_path_is_never_served() {
    let dir = tmp_dir("rename");
    let path = dir.join("live.mrx");
    let other = dir.join("other.mrx");
    for (g, p) in [(graph_a(), &path), (graph_b(), &other)] {
        let star = MStarIndex::new(&g).freeze_compressed();
        save_paged_with(p, &FrozenGraph::freeze(&g), &star, 1024).unwrap();
    }
    let mut cfg = base_config(&path);
    cfg.workers = 1;
    let server = Server::start(cfg).unwrap();
    std::fs::rename(&other, &path).unwrap();
    let want = oracle(&graph_a(), EXPRS);
    let mut c = Client::connect(server.addr()).unwrap();
    for e in EXPRS {
        let r = c.query("t", e).unwrap();
        assert_eq!((r.epoch, &r.nodes), (1, &want[*e]), "{e}");
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Four workers serve one paged snapshot through one page cache under one
/// budget: concurrent clients' answers all match the oracle, and the
/// resident page bytes STATS reports never exceed `paged_cache_bytes`.
/// The answer cache admits nothing, so every query reads pages.
#[test]
fn workers_share_one_page_cache_within_its_budget() {
    const BUDGET: u64 = 12 * 64;
    const QUERIES: &[&str] = &[
        "//person/name",
        "//item/name",
        "//open_auction/bidder/personref",
        "//category/name",
        "//closed_auction/price",
        "//person",
    ];
    let dir = tmp_dir("shared-pages");
    let g = xmark_like(&XmarkConfig::with_target_nodes(3_000), 5);
    let (fg, cz) = (
        FrozenGraph::freeze(&g),
        MStarIndex::new(&g).freeze_compressed(),
    );
    let want: Arc<HashMap<&str, Vec<u32>>> = Arc::new(
        QUERIES
            .iter()
            .map(|e| {
                let q = PathExpr::parse(e).unwrap();
                let mut session = QuerySession::new(TrustPolicy::Proven);
                let a = session.serve(&cz, &fg, &q);
                (*e, a.nodes.iter().map(|n| n.0).collect())
            })
            .collect(),
    );
    let path = dir.join("paged.mrx");
    save_paged_with(&path, &fg, &cz, 64).unwrap();
    let mut cfg = base_config(&path);
    cfg.workers = 4;
    cfg.paged_cache_bytes = Some(BUDGET);
    cfg.cache.min_cost = u64::MAX;
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();
    let clients: Vec<_> = (0..4)
        .map(|t| {
            let want = Arc::clone(&want);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..30 {
                    let e = QUERIES[(i + t) % QUERIES.len()];
                    assert_eq!(c.query(&format!("t{t}"), e).unwrap().nodes, want[e], "{e}");
                }
            })
        })
        .collect();
    for h in clients {
        h.join().unwrap();
    }
    let stats = Client::connect(addr).unwrap().stats().unwrap();
    // More faults than the budget holds pages: the working set does not
    // fit, so the shared cache kept evicting.
    assert!(
        stat_after(&stats, "\"pages\":", "faults") > BUDGET / 64,
        "{stats}"
    );
    let resident = stat_after(&stats, "\"pages\":", "resident_bytes");
    assert!(resident > 0 && resident <= BUDGET, "{stats}");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded chaos over two layouts. RELOAD storms flip the daemon between
/// an XMark-like compressed snapshot and a NASA-like paged one, and the
/// four corrupt images are tried in turn between the good swaps. Abusers
/// send malformed frames and hang up mid-frame, and flood tenants drive
/// the bounded queue into typed shed. Meanwhile one healthy tenant queries
/// nonstop, and every answer any tenant gets must equal the oracle for the
/// epoch stamped on it.
///
/// Gates: the healthy tenant serves in every epoch; every corrupt image is
/// rejected at least once, each time without moving the epoch; the
/// daemon's reload counters agree with the reloader's; abusers see typed
/// protocol errors; no component degrades; and the healthy tenant's p999
/// stays under 2 s.
#[test]
fn chaos_reloads_keep_a_healthy_tenant_on_the_oracle() {
    const SEED: u64 = 42;
    const GOOD_RELOADS: u64 = 6;
    let dir = tmp_dir("chaos");
    let ga = xmark_like(&XmarkConfig::with_target_nodes(3_000), 0xA0C71);
    let gb = nasa_like(3_000, 0x9A5A);
    let wa = Workload::generate(
        &ga,
        &WorkloadConfig {
            max_path_len: 4,
            num_queries: 40,
            seed: SEED,
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

    // Two layouts on purpose: every swap crosses the compressed/paged
    // boundary, so each RELOAD to B validates a paged file and installs
    // its daemon-wide page cache, and each RELOAD back to A drops it.
    let pa = dir.join("chaos-a.mrx");
    let pb = dir.join("chaos-b.mrx");
    let ia = MStarIndex::new(&ga);
    save_compressed(&pa, &FrozenGraph::freeze(&ga), &ia.freeze_compressed()).unwrap();
    let ib = MStarIndex::new(&gb);
    save_paged_with(
        &pb,
        &FrozenGraph::freeze(&gb),
        &ib.freeze_compressed(),
        4096,
    )
    .unwrap();
    let corrupt = corrupt_variants(&pb, &dir);

    let mut cfg = base_config(&pa);
    cfg.workers = 4;
    cfg.queue_cap = 64;
    cfg.tenant_backlog = 8;
    cfg.frame_timeout = Duration::from_millis(200);
    cfg.tick = Duration::from_millis(10);
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));

    // Healthy tenant: every answer oracle-checked for its stamped epoch;
    // records which epochs it served under and its latency distribution.
    let healthy = {
        let stop = Arc::clone(&stop);
        let exprs = exprs.clone();
        let (wa, wb) = (Arc::clone(&want_a), Arc::clone(&want_b));
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut lat = Vec::new();
            let mut epochs = BTreeSet::new();
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
            }
            (lat, epochs)
        })
    };

    // Flood tenants: drive the bounded queue; Ok answers are still
    // oracle-checked, Overloaded is the expected typed shed.
    let floods: Vec<_> = (0..3u64)
        .map(|f| {
            let stop = Arc::clone(&stop);
            let exprs = exprs.clone();
            let (wa, wb) = (Arc::clone(&want_a), Arc::clone(&want_b));
            std::thread::spawn(move || {
                let mut rng = Prng::seed_from_u64(SEED ^ (0xF100D + f));
                let mut c = Client::connect(addr).unwrap();
                let tenant = format!("flood{f}");
                while !stop.load(Ordering::Relaxed) {
                    let e = &exprs[rng.gen_range(0..exprs.len())];
                    match c.query(&tenant, e) {
                        Ok(r) => {
                            let want = if r.epoch % 2 == 1 { &wa } else { &wb };
                            assert_eq!(&r.nodes, &want[e], "flood wrong answer for {e}");
                        }
                        Err(ClientError::Server(ServeError::Overloaded { .. })) => {}
                        Err(e) => panic!("flood tenant got a non-shed failure: {e}"),
                    }
                }
            })
        })
        .collect();

    // Abusers: malformed frames, abrupt disconnects, reconnect loops.
    let abusers: Vec<_> = (0..2u64)
        .map(|a| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = Prng::seed_from_u64(SEED ^ (0xAB05E + a));
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
                        continue;
                    }
                    let (frame, expect_response) = malformed_frame(&mut rng);
                    if c.send_raw(&frame).is_err() || !expect_response {
                        continue;
                    }
                    match c.read_response_raw() {
                        Ok((_, Response::Error(ServeError::Protocol(_)))) => typed += 1,
                        Ok((_, other)) => panic!("malformed frame got {other:?}"),
                        // The server may slam the connection after (or
                        // instead of) the typed reply under load.
                        Err(_) => {}
                    }
                }
                typed
            })
        })
        .collect();

    // The reloader: good reloads alternate B, A, B, ... with corrupt attempts
    // mixed in, which cycle through the four images in order. Epoch parity
    // (odd = A, even = B) is the contract the query threads check against.
    // After the good reloads it keeps trying corrupt images until each one
    // has been rejected.
    let mut rng = Prng::seed_from_u64(SEED);
    let mut reloader = Client::connect(addr).unwrap();
    let (mut reloads_ok, mut reloads_rejected) = (0u64, 0u64);
    let mut rejected_per_image = [0u64; 4];
    while reloads_ok < GOOD_RELOADS || reloads_rejected < corrupt.len() as u64 {
        if reloads_ok == GOOD_RELOADS || rng.gen_bool(0.35) {
            let i = reloads_rejected as usize % corrupt.len();
            let before = stat_after(&server.stats_json(), "{", "epoch");
            match reloader.reload(corrupt[i].to_str().unwrap()) {
                Err(ClientError::Server(ServeError::ReloadRejected(_))) => {}
                other => panic!("{:?} must be rejected, got {other:?}", corrupt[i]),
            }
            let after = stat_after(&server.stats_json(), "{", "epoch");
            assert_eq!(before, after, "{:?} moved the epoch", corrupt[i]);
            rejected_per_image[i] += 1;
            reloads_rejected += 1;
        } else {
            let next = if reloads_ok.is_multiple_of(2) {
                &pb
            } else {
                &pa
            };
            reloader.reload(next.to_str().unwrap()).unwrap();
            reloads_ok += 1;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    stop.store(true, Ordering::Relaxed);
    let (mut lat, epochs) = healthy.join().expect("healthy thread must not panic");
    for f in floods {
        f.join().expect("flood thread must not panic");
    }
    let mut typed_protocol = 0u64;
    for a in abusers {
        typed_protocol += a.join().expect("abuser thread must not panic");
    }
    let stats = server.stats_json();
    server.stop();

    let got_epochs: Vec<u64> = epochs.into_iter().collect();
    assert_eq!(
        got_epochs,
        (1..=1 + reloads_ok).collect::<Vec<_>>(),
        "healthy tenant must serve through every RELOAD"
    );
    assert!(
        rejected_per_image.iter().all(|&n| n > 0),
        "every corrupt image must be tried: {rejected_per_image:?}"
    );
    assert_eq!(
        stat_after(&stats, "\"counters\":", "reloads_ok"),
        GOOD_RELOADS,
        "{stats}"
    );
    assert_eq!(
        stat_after(&stats, "\"counters\":", "reloads_rejected"),
        reloads_rejected,
        "{stats}"
    );
    assert!(
        typed_protocol > 0,
        "abusers never saw a typed protocol error"
    );
    assert!(
        stats.contains("\"degraded_components\":[]"),
        "chaos run must stay healthy: {stats}"
    );
    lat.sort_unstable();
    let p999_us = lat[((lat.len() - 1) as f64 * 0.999).round() as usize];
    assert!(
        p999_us < 2_000_000,
        "healthy-tenant p999 must stay bounded under chaos (got {p999_us} us)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

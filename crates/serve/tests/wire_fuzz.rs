//! Wire-protocol fuzzing against a live daemon: 150 seeded malformed
//! frames (length prefixes past the request cap, garbage verbs, in-body
//! length lies, empty payloads, truncated frames followed by a hangup),
//! each on its own connection, against a `Server` serving a v5 snapshot of
//! the tiny XMark-like corpus.
//!
//! Every frame that is owed a reply must get a typed `Protocol` error, the
//! daemon must stay healthy and keep serving the clean answer, and the
//! whole sweep must allocate under 256 MiB although the frames declare
//! tens of gigabytes: the frame cap runs before any buffer is sized. The
//! bound needs a process-wide counting allocator, so this binary holds
//! exactly one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use mrx_datagen::{xmark_like, Prng, XmarkConfig};
use mrx_graph::FrozenGraph;
use mrx_index::{MStarIndex, QuerySession, TrustPolicy};
use mrx_serve::{Client, Response, ServeConfig, ServeError, Server};
use mrx_store::save_compressed;
use mrx_workload::{Workload, WorkloadConfig};

mod common;
use common::malformed_frame;

/// Counts bytes requested from the allocator, by every thread of the
/// process, the daemon's included.
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic that no
// allocation depends on.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const FRAMES: u64 = 150;

#[test]
fn malformed_frames_get_typed_errors_and_the_daemon_stays_healthy() {
    let g = xmark_like(&XmarkConfig::with_target_nodes(3_000), 0xA0C71);
    let w = Workload::generate(
        &g,
        &WorkloadConfig {
            max_path_len: 4,
            num_queries: 60,
            seed: 7,
            max_enumerated_paths: 200_000,
        },
    );
    let mut idx = MStarIndex::new(&g);
    for q in &w.queries[..8] {
        idx.refine_for(&g, q);
    }
    let fg = FrozenGraph::freeze(&g);
    let cz = idx.freeze_compressed();
    let probe = &w.queries[0];
    let want: Vec<u32> = QuerySession::new(TrustPolicy::Proven)
        .serve(&cz, &fg, probe)
        .nodes
        .iter()
        .map(|n| n.0)
        .collect();

    let dir = std::env::temp_dir().join(format!("mrx-wire-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("wire.mrx");
    save_compressed(&snap, &fg, &cz).unwrap();
    let mut cfg = ServeConfig::new("127.0.0.1:0", &snap);
    cfg.workers = 2;
    cfg.tick = Duration::from_millis(10);
    cfg.frame_timeout = Duration::from_millis(200);
    cfg.drain_timeout = Duration::from_secs(2);
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    let (mut owed, mut declared) = (0u64, 0u64);
    let before = BYTES.load(Ordering::Relaxed);
    for seed in 0..FRAMES {
        let (frame, owed_reply) = malformed_frame(&mut Prng::seed_from_u64(seed));
        declared += u64::from(u32::from_le_bytes(frame[..4].try_into().unwrap()));
        let mut c = Client::connect(addr)
            .unwrap_or_else(|e| panic!("seed {seed}: the daemon stopped accepting: {e}"));
        c.send_raw(&frame).unwrap();
        if !owed_reply {
            // A truncated frame: hang up and leave the daemon to reap it.
            continue;
        }
        owed += 1;
        match c.read_response_raw() {
            Ok((_, Response::Error(ServeError::Protocol(_)))) => {}
            other => panic!("seed {seed}: malformed frame answered with {other:?}"),
        }
    }
    let allocated = BYTES.load(Ordering::Relaxed) - before;

    let mut c = Client::connect(addr).unwrap();
    c.ping().expect("the daemon must answer ping after fuzzing");
    let r = c.query("probe", &probe.to_string()).unwrap();
    assert_eq!(r.nodes, want, "fuzzing changed a served answer");
    let stats = c.stats().unwrap();
    assert!(
        stats.contains("\"healthy\":true"),
        "daemon degraded: {stats}"
    );
    drop(c);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        owed >= FRAMES / 2,
        "only {owed} of {FRAMES} frames were owed a reply"
    );
    assert!(
        allocated < 1 << 28,
        "the sweep allocated {allocated} bytes against {declared} declared: \
         the frame cap must run before buffers are sized"
    );
}

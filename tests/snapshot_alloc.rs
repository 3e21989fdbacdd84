//! Asserts the headline property of both snapshot load paths: the number of
//! heap allocations is a function of the *schema* (array count per section,
//! component count), not of the node count. Loading a 25× larger v5
//! snapshot, or opening and activating a 25× larger v9 one, must perform
//! the same number of allocations.
//!
//! It also asserts that a warm answer-cache hit allocates nothing: serving
//! a query whose answer is cached is one read-locked probe and two `Arc`
//! clones, with or without the daemon's admission doorkeeper.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mrx::datagen::nasa_like;
use mrx::index::{QuerySession, SharedAnswerCache, SharedCacheConfig};
use mrx::path::PathExpr;
use mrx::prelude::{DataGraph, MStarIndex, TrustPolicy};
use mrx::store::{load_compressed_from, paged_image, save_compressed_to, PagedFile};
use mrx_graph::FrozenGraph;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The v5 and v9 images of one adapted snapshot.
fn snapshot_images(g: &DataGraph) -> (Vec<u8>, Vec<u8>) {
    let mut idx = MStarIndex::new(g);
    for expr in ["//dataset/reference/source", "//dataset/history/ingest"] {
        idx.refine_for(g, &PathExpr::parse(expr).unwrap());
    }
    let fg = FrozenGraph::freeze(g);
    let cz = idx.freeze_compressed();
    let mut v5 = Vec::new();
    save_compressed_to(&mut v5, &fg, &cz).unwrap();
    let v9 = paged_image(&fg, &cz, 4096).unwrap();
    (v5, v9)
}

/// Allocations of one v5 load, and the node count it loaded.
fn allocs_during_v5_load(bytes: &[u8]) -> (u64, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let (fg, cz) = load_compressed_from(bytes).unwrap();
    let after = ALLOCS.load(Ordering::Relaxed);
    let nodes = fg.node_count() + cz.components.iter().map(|c| c.node_count()).sum::<usize>();
    (after - before, nodes)
}

/// Allocations of one v9 open plus full component activation. The image
/// copy the in-memory source keeps is made before counting starts.
fn allocs_during_v9_open(bytes: &[u8]) -> u64 {
    let image = bytes.to_vec();
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut f = PagedFile::open_bytes(image, 1 << 20).unwrap();
    f.ensure_loaded(usize::MAX).unwrap();
    let after = ALLOCS.load(Ordering::Relaxed);
    drop(f);
    after - before
}

// A single test: the binary has its own process, and one test keeps the
// counter free of cross-test noise.
#[test]
fn v5_and_v8_load_allocation_count_is_independent_of_node_count() {
    let (small5, small8) = snapshot_images(&nasa_like(800, 4));
    let (large5, large8) = snapshot_images(&nasa_like(20_000, 4));
    assert!(
        large5.len() > 10 * small5.len(),
        "datasets not far enough apart"
    );

    // Warm up once (lazy statics, allocator metadata).
    let _ = allocs_during_v5_load(&small5);
    let _ = allocs_during_v9_open(&small8);

    let (a_small, n_small) = allocs_during_v5_load(&small5);
    let (a_large, n_large) = allocs_during_v5_load(&large5);
    assert!(n_large > 10 * n_small);

    // Identical schema => identical allocation count, modulo a tiny slack
    // for allocator-internal or harness noise.
    assert!(
        a_large <= a_small + 8,
        "v5 load allocates per node: {a_small} allocations for {n_small} nodes \
         but {a_large} for {n_large}"
    );
    // And the absolute count is a small schema constant, nowhere near the
    // node count.
    assert!(
        (a_large as usize) < n_large / 50,
        "v5 load performed {a_large} allocations for {n_large} nodes"
    );

    let p_small = allocs_during_v9_open(&small8);
    let p_large = allocs_during_v9_open(&large8);
    assert!(
        p_large <= p_small + 8,
        "v9 open allocates per node: {p_small} allocations small vs {p_large} large"
    );
    assert!(
        (p_large as usize) < n_large / 50,
        "v9 open performed {p_large} allocations for {n_large} nodes"
    );

    // A warm hit allocates nothing: three queries answered once, then
    // served from the session's cache 100 times each.
    let (fg, cz) = load_compressed_from(small5.as_slice()).unwrap();
    let queries: Vec<PathExpr> = [
        "//dataset/reference/source",
        "//dataset/history/ingest",
        "//source/journal",
    ]
    .iter()
    .map(|e| PathExpr::parse(e).unwrap())
    .collect();
    let mut session = QuerySession::new(TrustPolicy::Proven);
    for q in &queries {
        session.serve(&cz, &fg, q).unwrap();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..100 {
        for q in &queries {
            session.serve(&cz, &fg, q).unwrap();
        }
    }
    let hits = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(session.stats().hits, 300);
    assert_eq!(hits, 0, "300 warm hits performed {hits} allocations");

    // The same through a daemon-configured cache, whose doorkeeper admits
    // an answer on its second miss: the sightings are off the hit path.
    // (`min_cost` 0: one of the three costs less than the default admits.)
    let cache = Arc::new(SharedAnswerCache::new(SharedCacheConfig {
        min_cost: 0,
        ..SharedCacheConfig::default()
    }));
    let mut session = QuerySession::new(TrustPolicy::Proven);
    session.attach_shared(Arc::clone(&cache), 1);
    for _ in 0..2 {
        for q in &queries {
            session.serve(&cz, &fg, q).unwrap();
        }
    }
    assert_eq!(cache.stats().insertions, 3, "{:?}", cache.stats());
    assert_eq!(session.stats().bypass_once, 3);
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..100 {
        for q in &queries {
            session.serve(&cz, &fg, q).unwrap();
        }
    }
    let hits = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(session.stats().hits, 300);
    assert_eq!(
        hits, 0,
        "300 doorkept warm hits performed {hits} allocations"
    );
}

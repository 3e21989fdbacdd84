//! Seeded fault injection against both snapshot layouts, compressed (v5)
//! and demand-paged (v7), on the tiny XMark-like corpus (2,767 nodes) with
//! its M*(k) adapted to a 60-query workload (seed 7, max length 4).
//!
//! One test runs three phases in sequence:
//!
//! * **corruption sweep** — 500 seeded [`FaultPlan`]s per layout, each
//!   applied to a fresh copy of the image. A load either returns exactly
//!   the clean snapshot (v5) or the clean answers (v7), or fails with a
//!   typed [`StoreError`]. It never panics, and rejecting an image never
//!   allocates more than a clean load plus twice the image plus 2 MiB, so a
//!   lying length prefix cannot balloon the loader. v5 reads through each
//!   plan's faulting reader and takes every kind: short reads are legal
//!   `Read` behaviour and must load, injected I/O errors must surface as
//!   `StoreError::Io`. The v7 open reads an in-memory image, where a reader
//!   fault cannot fire, so its plans are drawn from the image-level kinds
//!   only. A v7 "load" is open, every component, four queries and the full
//!   page-checksum walk, since the paged region is never read eagerly;
//! * **payload bit flips** — every 97th bit (coprime to 8, so every bit
//!   position within a byte is hit) of every checksummed v5 section
//!   payload, tagged posting blocks and their tag bytes included. Each
//!   flipped image must fail with `StoreError::Checksum`, so no block
//!   decoder ever sees a flipped bit;
//! * **paged-region bit flips** — every 97th bit of a v7 paged region cut
//!   into 256-byte pages. The open must succeed (the region is lazy), the
//!   page walk must name a corrupt page, and each query must return the
//!   clean answer (its pages were never touched) or fail with a typed
//!   checksum error at first touch.
//!
//! The allocation bound needs a process-wide counting allocator, so this
//! binary holds exactly one `#[test]` and the sweep runs first, on one
//! thread: nothing else allocates while a load is measured. The bit-flip
//! phases read no counter and spread their flips over a few threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use mrx_datagen::{xmark_like, XmarkConfig};
use mrx_error::MrxError;
use mrx_graph::{FrozenGraph, NodeId};
use mrx_index::{CompressedMStar, MStarIndex, QuerySession, TrustPolicy};
use mrx_path::PathExpr;
use mrx_store::fault::{FaultKind, FaultPlan};
use mrx_store::{load_compressed_from, paged_image, save_compressed_to, PagedFile, StoreError};
use mrx_workload::{Workload, WorkloadConfig};

/// Counts bytes requested from the allocator (cumulative, so `Vec` growth
/// and reallocation both count toward a load attempt's footprint).
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

fn bytes_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (BYTES.load(Ordering::Relaxed) - before, out)
}

/// Seeds per layout in the corruption sweep.
const SEEDS: usize = 500;
/// Every `STRIDE`-th bit is flipped in the bit-flip phases.
const STRIDE: u64 = 97;
/// Cache budget for every v7 open: larger than any image here.
const CACHE: u64 = 1 << 22;

/// Whether `plan` corrupts the image rather than the reader.
fn image_level(plan: &FaultPlan) -> bool {
    !matches!(plan.kind(), FaultKind::IoError | FaultKind::ShortRead)
}

/// Applies each plan to a fresh copy of `image` and hands `check` what
/// `load` made of it. A panic fails the test naming its seed, and a
/// rejected image may allocate at most a clean load's bytes plus twice the
/// image plus 2 MiB (the staging copy and error strings).
fn sweep<T>(
    label: &str,
    image: &[u8],
    plans: impl IntoIterator<Item = (u64, FaultPlan)>,
    load: impl Fn(&FaultPlan, &[u8]) -> Result<T, StoreError>,
    mut check: impl FnMut(u64, &FaultPlan, Result<T, StoreError>),
) {
    // An image-level plan's reader is transparent, so feeding it the
    // unfaulted image measures a clean load.
    let intact = (0u64..)
        .map(FaultPlan::from_seed)
        .find(image_level)
        .expect("image-level kinds are 4 of 6");
    let (clean_bytes, clean) = bytes_during(|| load(&intact, image));
    assert!(clean.is_ok(), "{label}: the intact image must load");
    let alloc_cap = clean_bytes + 2 * image.len() as u64 + (1 << 21);
    for (seed, plan) in plans {
        let mut img = image.to_vec();
        plan.corrupt(&mut img);
        let (bytes, result) = bytes_during(|| catch_unwind(AssertUnwindSafe(|| load(&plan, &img))));
        let Ok(result) = result else {
            panic!(
                "{label}: seed {seed} ({:?}) panicked the loader",
                plan.kind()
            );
        };
        if result.is_err() {
            assert!(
                bytes <= alloc_cap,
                "{label}: seed {seed} ({:?}) allocated {bytes} bytes rejecting a \
                 {}-byte image (cap {alloc_cap})",
                plan.kind(),
                img.len(),
            );
        }
        check(seed, &plan, result);
    }
}

/// Byte ranges of every checksummed section payload in a v5 image: a
/// 16-byte header (`magic | u32 version | u32 ncomp`), the graph section,
/// a raw `8 * ncomp`-byte offset directory, then `ncomp` component
/// sections, each section `[u64 len][payload][u64 fnv64]`.
fn payload_ranges(image: &[u8]) -> Vec<(usize, usize)> {
    let le_u64 = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let ncomp = u32::from_le_bytes(image[12..16].try_into().unwrap()) as usize;
    let mut ranges = Vec::with_capacity(1 + ncomp);
    let mut off = 16usize;
    for i in 0..=ncomp {
        if i == 1 {
            off += 8 * ncomp;
        }
        let len = le_u64(off);
        ranges.push((off + 8, off + 8 + len));
        off += 8 + len + 8;
    }
    assert_eq!(off, image.len(), "the section walk must cover the image");
    ranges
}

/// Every [`STRIDE`]-th bit position inside the byte ranges `ranges`.
fn sampled_bits(ranges: &[(usize, usize)]) -> Vec<u64> {
    ranges
        .iter()
        .flat_map(|&(start, end)| (start as u64 * 8..end as u64 * 8).step_by(STRIDE as usize))
        .collect()
}

/// Calls `f` with a copy of `image` flipped at each of `bits`, split across
/// up to four threads. Only the sweep reads the allocation counter, so the
/// flip phases may allocate concurrently.
fn for_each_flip(image: &[u8], bits: &[u64], f: impl Fn(u64, Vec<u8>) + Sync) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    std::thread::scope(|s| {
        for part in bits.chunks(bits.len().div_ceil(threads).max(1)) {
            let f = &f;
            s.spawn(move || {
                for &bit in part {
                    let mut img = image.to_vec();
                    img[(bit / 8) as usize] ^= 1 << (bit % 8);
                    f(bit, img);
                }
            });
        }
    });
}

/// Flips every [`STRIDE`]-th checksummed payload bit of a v5 image; each
/// flip must fail the load with `StoreError::Checksum`. Returns the number
/// of bits flipped.
fn payload_flips(image: &[u8]) -> usize {
    let bits = sampled_bits(&payload_ranges(image));
    for_each_flip(image, &bits, |bit, img| {
        match load_compressed_from(&img[..]) {
            Err(StoreError::Checksum { .. }) => {}
            other => panic!("v5: flip of payload bit {bit} escaped the checksum: {other:?}"),
        }
    });
    bits.len()
}

/// Flips every [`STRIDE`]-th bit of a v7 image's paged region. The open
/// must succeed, [`PagedFile::verify`] must name a corrupt page, and each
/// query must return its clean answer or fail with a checksum error: the
/// checksum runs on page fault, before any block decode sees the page.
/// Returns (bits flipped, flips caught mid-query).
fn region_flips(image: &[u8], queries: &[PathExpr], clean: &[Vec<NodeId>]) -> (usize, u64) {
    let le_u64 = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let (paged_off, paged_len) = (le_u64(16), le_u64(24));
    let bits = sampled_bits(&[(paged_off, paged_off + paged_len)]);
    let mid_query = AtomicU64::new(0);
    for_each_flip(image, &bits, |bit, img| {
        let mut f = PagedFile::open_bytes(img, CACHE)
            .unwrap_or_else(|e| panic!("v7: the open read the lazy region (bit {bit}): {e}"));
        match f.verify() {
            Err(StoreError::Checksum { ref section }) if section.starts_with("page ") => {}
            other => panic!("v7: flip of region bit {bit} escaped the page walk: {other:?}"),
        }
        for (q, want) in queries.iter().zip(clean) {
            match serve(&mut f, q) {
                Ok(nodes) => assert_eq!(&nodes, want, "v7: wrong answer on {q} (bit {bit})"),
                Err(StoreError::Checksum { .. }) => {
                    mid_query.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(e) => {
                    panic!("v7: region bit {bit} surfaced as a non-checksum error on {q}: {e}")
                }
            }
        }
    });
    (bits.len(), mid_query.into_inner())
}

/// Serves `q` from `f` through a fresh session over the prefix `q` needs.
/// An unbudgeted session can fail only in the store.
fn serve(f: &mut PagedFile, q: &PathExpr) -> Result<Vec<NodeId>, StoreError> {
    let (graph, star) = f.activate(q)?;
    match QuerySession::new(TrustPolicy::Proven).try_serve(star, graph, q) {
        Ok(a) => Ok(a.nodes.clone()),
        Err(MrxError::Store(e)) => Err(e),
        Err(e) => panic!("unbudgeted serving failed outside the store: {e}"),
    }
}

/// Answers `queries` top-down from a v7 image after activating every
/// component, then walks every page checksum.
fn serve_v7(img: &[u8], queries: &[PathExpr]) -> Result<Vec<Vec<NodeId>>, StoreError> {
    let mut f = PagedFile::open_bytes(img.to_vec(), CACHE)?;
    f.ensure_loaded(usize::MAX)?;
    let answers = queries
        .iter()
        .map(|q| serve(&mut f, q))
        .collect::<Result<_, _>>()?;
    f.verify()?;
    Ok(answers)
}

fn v5_image(fg: &FrozenGraph, cz: &CompressedMStar) -> Vec<u8> {
    let mut image = Vec::new();
    save_compressed_to(&mut image, fg, cz).unwrap();
    image
}

#[test]
fn corrupt_snapshots_never_panic_and_never_answer_wrong() {
    let g = xmark_like(&XmarkConfig::with_target_nodes(3_000), 0xA0C71);
    assert_eq!(g.node_count(), 2_767);
    let w = Workload::generate(
        &g,
        &WorkloadConfig {
            max_path_len: 4,
            num_queries: 60,
            seed: 7,
            max_enumerated_paths: 200_000,
        },
    );
    let adapted = |fups: &[PathExpr]| {
        let mut idx = MStarIndex::new(&g);
        for q in fups {
            idx.refine_for(&g, q);
        }
        idx.freeze_compressed()
    };
    let fg = FrozenGraph::freeze(&g);
    let cz = adapted(&w.queries);
    let queries = &w.queries[..4];

    // --- Corruption sweep, v5: every kind, through the faulting reader.
    let v5 = v5_image(&fg, &cz);
    let clean_v5 = (fg.clone(), cz.clone());
    let (mut short_reads, mut io_errors, mut v5_rejected) = (0u64, 0u64, 0u64);
    sweep(
        "v5",
        &v5,
        (0..SEEDS as u64).map(|s| (s, FaultPlan::from_seed(s))),
        |plan, img| load_compressed_from(plan.reader(img, img.len() as u64)),
        |seed, plan, r| {
            let kind = plan.kind();
            match (kind, &r) {
                (FaultKind::ShortRead, Ok(_)) => short_reads += 1,
                (FaultKind::IoError, Err(StoreError::Io(_))) => io_errors += 1,
                (FaultKind::ShortRead | FaultKind::IoError, _) => panic!(
                    "v5: seed {seed} ({kind:?}) ended in {:?}",
                    r.as_ref().map(|_| ())
                ),
                (_, Err(_)) => v5_rejected += 1,
                (_, Ok(_)) => {}
            }
            if let Ok(loaded) = r {
                assert!(
                    loaded == clean_v5,
                    "v5: seed {seed} ({kind:?}) loaded a corrupt snapshot"
                );
            }
        },
    );
    assert!(
        short_reads > 0 && io_errors > 0,
        "v5: the sweep must draw both reader kinds"
    );

    // --- Corruption sweep, v7: image-level plans only, 4 KiB pages.
    let v7 = paged_image(&fg, &cz, 4096).unwrap();
    let clean_v7 = serve_v7(&v7, queries).unwrap();
    let plans = (0u64..)
        .map(|s| (s, FaultPlan::from_seed(s)))
        .filter(|(_, p)| image_level(p))
        .take(SEEDS);
    let mut v7_rejected = 0u64;
    sweep(
        "v7",
        &v7,
        plans,
        |_, img| serve_v7(img, queries),
        |seed, plan, r| match r {
            Ok(answers) => assert!(
                answers == clean_v7,
                "v7: seed {seed} ({:?}) served a wrong answer",
                plan.kind()
            ),
            Err(_) => v7_rejected += 1,
        },
    );

    // --- Bit flips on a smaller hierarchy (8 FUPs), the same graph.
    let small = adapted(&w.queries[..8]);
    let flips = payload_flips(&v5_image(&fg, &small));
    assert!(flips >= 7_708, "v5: only {flips} payload bits flipped");

    let small_v7 = paged_image(&fg, &small, 256).unwrap();
    let clean = serve_v7(&small_v7, queries).unwrap();
    let (region, mid_query) = region_flips(&small_v7, queries, &clean);
    assert!(region >= 735, "v7: only {region} region bits flipped");
    assert!(mid_query > 0, "v7: no region flip surfaced mid-query");

    println!(
        "v5 sweep: {v5_rejected} image faults rejected, {io_errors} I/O errors surfaced, \
         {short_reads} short reads loaded; v7 sweep: {v7_rejected} of {SEEDS} rejected; \
         {flips} payload flips caught; {region} region flips caught ({mid_query} mid-query)"
    );
}

//! Seeded fault injection against both snapshot layouts, compressed (v5)
//! and demand-paged (v9), on the tiny XMark-like corpus (2,767 nodes) with
//! its M*(k) adapted to a 60-query workload (seed 7, max length 4).
//!
//! One test runs its phases in sequence:
//!
//! * **corruption sweep** — 500 seeded [`FaultPlan`]s per layout, each
//!   applied to a fresh copy of the image. A load either returns exactly
//!   the clean snapshot (v5) or the clean answers (v9), or fails with a
//!   typed [`StoreError`]. It never panics, and rejecting an image never
//!   allocates more than a clean load plus twice the image plus 2 MiB, so a
//!   lying length prefix cannot balloon the loader. v5 reads through each
//!   plan's faulting reader and takes every kind: short reads are legal
//!   `Read` behaviour and must load, injected I/O errors must surface as
//!   `StoreError::Io`. The v9 open reads an in-memory image, where a reader
//!   fault cannot fire, so its plans are drawn from the image-level kinds
//!   only. A v9 "load" is open, every component, four queries and the full
//!   page-checksum walk, since the paged region is never read eagerly;
//! * **payload bit flips** — every 97th bit (coprime to 8, so every bit
//!   position within a byte is hit) of every checksummed v5 section
//!   payload, tagged posting blocks and their tag bytes included. Each
//!   flipped image must fail with `StoreError::Checksum`, so no block
//!   decoder ever sees a flipped bit;
//! * **paged-region bit flips** — every 31st bit of a v9 paged region cut
//!   into 256-byte pages. The open reads the skip directories at the
//!   region's end, so a flip in a page they touch must fail the open with
//!   a page checksum error. Elsewhere the open must succeed (the payload
//!   is lazy), the page walk must name a corrupt page, and each query must
//!   return the clean answer (its pages were never touched) or fail with a
//!   typed checksum error at first touch;
//! * **resealed link rows** — in every v9 component below `I0`, a row of
//!   the subnode links with two subnodes is made to look sole, and a sole
//!   row made to look split, by moving one row boundary, re-encoding the
//!   rows and resealing the meta checksum and the offsets behind it. The
//!   sole rows decide which nodes share their supernode's stored extent,
//!   so each case must end in a typed error or the clean answers, never a
//!   panic; all 471 are refused;
//! * **codec corruptions** — both graph units and every meta, resealed
//!   with a truncated varint, an overlong one (six bytes), a length that
//!   overruns its bytes (a row claiming 2^32 − 1 ids, or a labels unit cut
//!   in half) and an id out of range. Each must be refused with a typed
//!   error, without a panic, and within the same allocation cap as the
//!   sweep: no buffer is sized from a count the bytes cannot hold;
//! * **components that do not nest** — a hand-made v5 image whose `I2` is
//!   the A(2)-index, under which the adapted `I3` does not nest. v5 stores
//!   no links: the loader derives them from the extents it reads, so some
//!   `I3` node lies under two `I2` nodes. The load must succeed with every
//!   component that does not nest reporting so (a descent then passes no
//!   Lemma 2 bit into it), and every workload query must answer as naive
//!   evaluation does.
//!
//! The allocation bound needs a process-wide counting allocator, so this
//! binary holds exactly one `#[test]` and the sweep runs first, on one
//! thread: nothing else allocates while a load is measured. The bit-flip
//! phases read no counter and spread their flips over a few threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use mrx_datagen::{xmark_like, XmarkConfig};
use mrx_error::MrxError;
use mrx_graph::{DataGraph, FrozenGraph, NodeId};
use mrx_index::{
    k_bisim, top_down_targets_budgeted, CompressedIndex, CompressedMStar, IndexEvalScratch,
    IndexGraph, MStarIndex, QuerySession, TrustPolicy,
};
use mrx_path::{eval_data, PathExpr, QueryBudget};
use mrx_postings::{put_rows, put_words, RowOrder, RowReader};
use mrx_store::fault::{paged_links, paged_payload, reseal_paged, FaultKind, FaultPlan, PagedPart};
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
/// Every `STRIDE`-th bit is flipped in the v5 payload phase.
const STRIDE: u64 = 97;
/// Every `REGION_STRIDE`-th bit is flipped in the v9 region phase; the
/// region stores each distinct extent once, so it is denser than the v5
/// sections.
const REGION_STRIDE: u64 = 31;
/// Cache budget for every v9 open: larger than any image here.
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

/// Every `stride`-th bit position inside the byte ranges `ranges`.
fn sampled_bits(ranges: &[(usize, usize)], stride: u64) -> Vec<u64> {
    ranges
        .iter()
        .flat_map(|&(start, end)| (start as u64 * 8..end as u64 * 8).step_by(stride as usize))
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
    let bits = sampled_bits(&payload_ranges(image), STRIDE);
    for_each_flip(image, &bits, |bit, img| {
        match load_compressed_from(&img[..]) {
            Err(StoreError::Checksum { .. }) => {}
            other => panic!("v5: flip of payload bit {bit} escaped the checksum: {other:?}"),
        }
    });
    bits.len()
}

/// Flips every [`REGION_STRIDE`]-th bit of a v9 image's paged region. A
/// flip in a page the skip directories touch must fail the open with a
/// page checksum error. Otherwise the open must succeed,
/// [`PagedFile::verify`] must name a corrupt page, and each query must
/// return its clean answer or fail with a checksum error: the checksum runs
/// on page fault, before any block decode sees the page.
/// Returns (bits flipped, flips caught mid-query).
fn region_flips(image: &[u8], queries: &[PathExpr], clean: &[Vec<NodeId>]) -> (usize, u64) {
    let le_u64 = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let (paged_off, paged_len, data_len) = (le_u64(16), le_u64(24), le_u64(56));
    let page = u32::from_le_bytes(image[40..44].try_into().unwrap()) as usize;
    // The directories follow the payload; the open reads every page they touch.
    let dirs_from = (paged_off + data_len / page * page) as u64 * 8;
    let bits = sampled_bits(&[(paged_off, paged_off + paged_len)], REGION_STRIDE);
    let mid_query = AtomicU64::new(0);
    for_each_flip(image, &bits, |bit, img| {
        let opened = PagedFile::open_bytes(img, CACHE);
        if bit >= dirs_from {
            match opened {
                Err(StoreError::Checksum { ref section }) if section.starts_with("page ") => {}
                Err(e) => panic!("v9: directory bit {bit} refused as a non-checksum error: {e}"),
                Ok(_) => panic!("v9: the open missed a flip of directory bit {bit}"),
            }
            return;
        }
        let mut f = opened
            .unwrap_or_else(|e| panic!("v9: the open read the lazy payload (bit {bit}): {e}"));
        match f.verify() {
            Err(StoreError::Checksum { ref section }) if section.starts_with("page ") => {}
            other => panic!("v9: flip of region bit {bit} escaped the page walk: {other:?}"),
        }
        for (q, want) in queries.iter().zip(clean) {
            match serve(&mut f, q) {
                Ok(nodes) => assert_eq!(&nodes, want, "v9: wrong answer on {q} (bit {bit})"),
                Err(StoreError::Checksum { .. }) => {
                    mid_query.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(e) => {
                    panic!("v9: region bit {bit} surfaced as a non-checksum error on {q}: {e}")
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
    match QuerySession::new(TrustPolicy::Proven).serve(star, graph, q) {
        Ok(a) => Ok(a.nodes.clone()),
        Err(MrxError::Store(e)) => Err(e),
        Err(e) => panic!("unbudgeted serving failed outside the store: {e}"),
    }
}

/// Answers `queries` top-down from a v9 image after activating every
/// component, then walks every page checksum.
fn serve_v9(img: &[u8], queries: &[PathExpr]) -> Result<Vec<Vec<NodeId>>, StoreError> {
    let mut f = PagedFile::open_bytes(img.to_vec(), CACHE)?;
    f.ensure_loaded(usize::MAX)?;
    let answers = queries
        .iter()
        .map(|q| serve(&mut f, q))
        .collect::<Result<_, _>>()?;
    f.verify()?;
    Ok(answers)
}

/// The subnode link rows of component `i` of a v9 image as a CSR, and the
/// byte range they occupy in its meta payload.
fn links_of(image: &[u8], i: usize, coarse: usize) -> (Range<usize>, Vec<u32>, Vec<u32>) {
    let at = paged_links(image, i).expect("the image holds the links");
    let (off, tgt) = RowReader::new(&image[at.clone()])
        .rows(coarse, u32::MAX, RowOrder::Stored)
        .unwrap();
    let meta = paged_payload(image, PagedPart::Meta(i)).unwrap().start;
    (at.start - meta..at.end - meta, off, tgt)
}

/// `image` with the bytes at `at` of `part`'s payload replaced by `with`,
/// and everything that covers them resealed.
fn spliced(image: &[u8], part: PagedPart, at: Range<usize>, with: &[u8]) -> Vec<u8> {
    let payload = &image[paged_payload(image, part).expect("the image holds the part")];
    let payload = [&payload[..at.start], with, &payload[at.end..]].concat();
    reseal_paged(image, part, &payload).expect("reseal")
}

/// Moves the boundary between link rows `u` and `u + 1` of every
/// component below `I0` wherever row `u` has two subnodes (it loses its
/// second, so it looks sole) or one (it gains the next row's first, so it
/// looks split), re-encodes the rows, reseals the meta checksum and the
/// offsets behind it, and serves `queries` from each resealed image. Each
/// must end in a typed error or the clean answers. Returns (rows made
/// sole, rows made split, cases rejected).
fn resealed_rows(
    image: &[u8],
    cz: &CompressedMStar,
    queries: &[PathExpr],
    clean: &[Vec<NodeId>],
) -> (u64, u64, u64) {
    let (mut sole, mut split, mut rejected) = (0, 0, 0);
    for i in 1..cz.components.len() {
        let (at, off, tgt) = links_of(image, i, cz.components[i - 1].node_count());
        for u in 0..off.len().saturating_sub(2) {
            let mut moved = off.clone();
            moved[u + 1] = match off[u + 1] - off[u] {
                2 => off[u + 1] - 1,
                1 => off[u + 1] + 1,
                _ => continue,
            };
            let mut rows = Vec::new();
            put_rows(&mut rows, &moved, &tgt, RowOrder::Stored).unwrap();
            let img = spliced(image, PagedPart::Meta(i), at.clone(), &rows);
            let kind = if moved[u + 1] < off[u + 1] {
                "sole"
            } else {
                "split"
            };
            let r = catch_unwind(AssertUnwindSafe(|| serve_v9(&img, queries)))
                .unwrap_or_else(|_| panic!("v9: I{i} row {u} made {kind} panicked"));
            match r {
                Ok(answers) => assert!(
                    answers == clean,
                    "v9: I{i} row {u} made {kind} answered wrong"
                ),
                Err(_) => rejected += 1,
            }
            if kind == "sole" {
                sole += 1;
            } else {
                split += 1;
            }
        }
    }
    (sole, split, rejected)
}

/// Byte ranges, inside a v9 meta payload, of its first varint and of its
/// child rows. The codec starts 20 bytes in, after n, lemma2, epoch and
/// root, with three word arrays of n entries each.
fn meta_fields(payload: &[u8]) -> (Range<usize>, Range<usize>) {
    let n = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
    let mut r = RowReader::new(&payload[20..]);
    r.words(1, 1 << 32, |_| ()).unwrap();
    let first = 20..20 + r.position();
    r.words(3 * n - 1, 1 << 32, |_| ()).unwrap();
    let start = 20 + r.position();
    r.rows::<u32>(n, u32::MAX, RowOrder::Ascending).unwrap();
    (first, start..20 + r.position())
}

/// The codec corruptions of one part whose payload is `payload`, as
/// (name, byte range, replacement): `first` is the range of its first
/// varint and `rows` the range of its first adjacency rows with their
/// row count, which is also their id bound. A part without rows (the
/// labels) gets a first word of `out_of_range` instead.
fn codec_cases(
    payload: &[u8],
    first: Range<usize>,
    rows: Option<(Range<usize>, usize)>,
    out_of_range: u32,
) -> Vec<(&'static str, Range<usize>, Vec<u8>)> {
    let last = payload.len() - 1;
    let mut cases = vec![
        // The final varint claims a continuation byte that is not there.
        (
            "truncated varint",
            last..last + 1,
            vec![payload[last] | 0x80],
        ),
        // Six bytes for a value that fits in one.
        (
            "overlong varint",
            first.clone(),
            vec![0x80, 0x80, 0x80, 0x80, 0x80, 0],
        ),
    ];
    let mut word = Vec::new();
    put_words(&mut word, [out_of_range]);
    match rows {
        Some((at, n)) => {
            // The first row claims 2^32 − 1 ids.
            let len = at.start..at.start + 1;
            assert!(payload[at.start] < 0x80, "a one-byte row length");
            cases.push(("length overrun", len, vec![0xff, 0xff, 0xff, 0xff, 0x0f]));
            let (off, mut tgt) = RowReader::new(&payload[at.clone()])
                .rows::<u32>(n, u32::MAX, RowOrder::Ascending)
                .unwrap();
            // The last id of the last row, so the row stays ascending.
            *tgt.last_mut().unwrap() = n as u32;
            let mut bad = Vec::new();
            put_rows(&mut bad, &off, &tgt, RowOrder::Ascending).unwrap();
            cases.push(("id out of range", at, bad));
        }
        None => {
            // The node count overruns the words half the unit holds.
            cases.push((
                "length overrun",
                payload.len() / 2..payload.len(),
                Vec::new(),
            ));
            cases.push(("id out of range", first, word));
        }
    }
    cases
}

/// Resealed codec corruptions of both graph units and every component's
/// meta: each must be refused with a typed error, without a panic, and
/// without allocating more than a clean load plus twice the image plus
/// 2 MiB. Returns the number of cases.
fn codec_refusals(image: &[u8], fg: &FrozenGraph, ncomp: usize, queries: &[PathExpr]) -> usize {
    let load = |img: &[u8]| -> Result<(), StoreError> {
        let mut f = PagedFile::open_bytes(img.to_vec(), CACHE)?;
        f.ensure_loaded(usize::MAX)?;
        f.graph().ensure_all()?;
        serve_v9(img, queries).map(|_| ())
    };
    let (clean_bytes, clean) = bytes_during(|| load(image));
    assert!(clean.is_ok(), "v9 codec: the intact image must load");
    let alloc_cap = clean_bytes + 2 * image.len() as u64 + (1 << 21);
    let mut parts = vec![PagedPart::GraphUnit(0), PagedPart::GraphUnit(1)];
    parts.extend((0..ncomp).map(PagedPart::Meta));
    let mut count = 0;
    for part in parts {
        let at = paged_payload(image, part).unwrap();
        let payload = &image[at];
        let (first, rows) = match part {
            // The labels: words only, the first one byte.
            PagedPart::GraphUnit(0) => (0..1, None),
            PagedPart::GraphUnit(_) => (0..1, Some((0..payload.len(), fg.node_count()))),
            PagedPart::Meta(_) => {
                let (first, children) = meta_fields(payload);
                let n = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
                (first, Some((children, n)))
            }
        };
        for (what, range, with) in codec_cases(payload, first, rows, fg.num_labels() as u32) {
            let img = spliced(image, part, range, &with);
            let (bytes, r) = bytes_during(|| catch_unwind(AssertUnwindSafe(|| load(&img))));
            let r = r.unwrap_or_else(|_| panic!("v9 codec: {part:?} {what} panicked"));
            match r {
                Err(StoreError::Format(_)) => {}
                other => panic!("v9 codec: {part:?} {what} ended in {other:?}"),
            }
            assert!(
                bytes <= alloc_cap,
                "v9 codec: {part:?} {what} allocated {bytes} bytes (cap {alloc_cap})"
            );
            count += 1;
        }
    }
    count
}

/// Loads `cz` with its `I2` swapped for the A(2)-index of `g` from a v5
/// image, checks that every component whose derived links overlap reports
/// that it does not nest, and serves `queries` against naive evaluation.
/// Returns how many components do not nest.
fn knotted_v5(
    g: &DataGraph,
    fg: &FrozenGraph,
    cz: &CompressedMStar,
    queries: &[PathExpr],
) -> usize {
    let mut knotted = cz.clone();
    let a2 = IndexGraph::from_partition(g, &k_bisim(g, 2), |_| 2);
    knotted.components[2] = CompressedIndex::freeze(&a2, Some(&knotted.components[1]));
    let (sg, star) = load_compressed_from(&v5_image(fg, &knotted)[..]).unwrap();
    let mut loose = 0;
    let mut first_loose = usize::MAX;
    for (i, c) in star.components.iter().enumerate().skip(1) {
        let coarse = star.components[i - 1].node_count();
        if c.links.check(Some(coarse), c.node_count(), true).is_err() {
            loose += 1;
            first_loose = first_loose.min(i);
            assert!(!c.nests, "v5: I{i} does not nest but reports that it does");
        }
    }
    let mut session = QuerySession::new(TrustPolicy::Proven);
    for q in queries {
        let a = session.serve(&star, &sg, q).unwrap();
        assert_eq!(a.nodes, eval_data(g, &q.compile(g)), "v5 knotted: {q}");
        // A descent into a component that does not nest passes no bit on,
        // and no later child step can certify without one.
        let cp = q.compile(&sg);
        if !cp.anchored && cp.length() >= first_loose {
            let (targets, _, _) = top_down_targets_budgeted(
                &star.components,
                &cp,
                &mut IndexEvalScratch::new(),
                &mut QueryBudget::unlimited().meter(),
            )
            .unwrap();
            assert!(
                !targets.certified().contains(&true),
                "v5 knotted: {q} certified through I{first_loose}"
            );
        }
    }
    loose
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

    // --- Corruption sweep, v9: image-level plans only, 4 KiB pages.
    let v9 = paged_image(&fg, &cz, 4096).unwrap();
    let clean_v9 = serve_v9(&v9, queries).unwrap();
    let plans = (0u64..)
        .map(|s| (s, FaultPlan::from_seed(s)))
        .filter(|(_, p)| image_level(p))
        .take(SEEDS);
    let mut v8_rejected = 0u64;
    sweep(
        "v9",
        &v9,
        plans,
        |_, img| serve_v9(img, queries),
        |seed, plan, r| match r {
            Ok(answers) => assert!(
                answers == clean_v9,
                "v9: seed {seed} ({:?}) served a wrong answer",
                plan.kind()
            ),
            Err(_) => v8_rejected += 1,
        },
    );

    // --- Bit flips on a smaller hierarchy (8 FUPs), the same graph.
    let small = adapted(&w.queries[..8]);
    let flips = payload_flips(&v5_image(&fg, &small));
    assert!(flips >= 7_708, "v5: only {flips} payload bits flipped");

    let small_v9 = paged_image(&fg, &small, 256).unwrap();
    let clean = serve_v9(&small_v9, queries).unwrap();
    let (region, mid_query) = region_flips(&small_v9, queries, &clean);
    assert!(region >= 735, "v9: only {region} region bits flipped");
    assert!(mid_query > 0, "v9: no region flip surfaced mid-query");

    // --- Link rows resealed behind a valid meta checksum.
    let (made_sole, made_split, resealed_rejected) = resealed_rows(&v9, &cz, queries, &clean_v9);
    assert_eq!(
        (made_sole, made_split, resealed_rejected),
        (20, 451, 471),
        "v9: every resealed link row, both kinds, must be refused"
    );

    // --- Codec corruptions of resealed graph units and metas.
    let codec = codec_refusals(&v9, &fg, cz.components.len(), queries);
    assert_eq!(codec, 4 * (2 + cz.components.len()), "four cases per part");

    // --- Components that do not nest, hand-made and saved as v5.
    let loose = knotted_v5(&g, &fg, &cz, &w.queries);
    assert!(loose > 0, "v5: the swapped-in A(2) nests after all");

    println!(
        "v5 sweep: {v5_rejected} image faults rejected, {io_errors} I/O errors surfaced, \
         {short_reads} short reads loaded; v9 sweep: {v8_rejected} of {SEEDS} rejected; \
         {flips} payload flips caught; {region} region flips caught ({mid_query} mid-query); \
         {resealed_rejected} of {} resealed link rows rejected ({made_sole} made sole, \
         {made_split} made split); {codec} codec corruptions refused; {loose} component(s) \
         that do not nest loaded uncertified",
        made_sole + made_split
    );
}

//! Fault-injection harness for the `.mrx` serving read path.
//!
//! Experiments over a real XMark-like snapshot in both layouts: compressed
//! (v5) and demand-paged (v7). The `v3`/`v4` labels in prints and JSON
//! keys are kept for history continuity and mean v5 and v7; every
//! posting-section fault below lands inside or around a tagged block
//! (delta-varint, bit-packed, or run):
//!
//! * **seeded corruption sweep** — ≥10k deterministic [`FaultPlan`]s (bit
//!   flips, truncations, overwrites, section-length lies, mid-stream I/O
//!   errors, short reads) each applied to a fresh copy of the snapshot;
//!   every load attempt must end in `Ok` or a typed [`StoreError`] — never
//!   a panic, never an abort, and a *rejected* image must not allocate more
//!   than twice its own size on the way to the error. On v4 the "load" is
//!   open + a query sweep + a full page-checksum walk, since the paged
//!   region is never read eagerly;
//! * **paged-region bit flips** — every (sampled) bit inside the v4 paged
//!   region is flipped in turn; the open must still succeed (the region is
//!   lazy), the page walk must name exactly a corrupt page, and a fresh
//!   reader serving queries must either return the clean answer (page
//!   never touched) or fail with a typed checksum error at first touch —
//!   a flipped page is *never* decoded, so a wrong answer is impossible;
//! * **exhaustive single-bit flips** — on a small snapshot, every bit of
//!   every checksummed section payload is flipped in turn and the load must
//!   fail with [`StoreError::Checksum`] for exactly that section family; on
//!   the compressed layout this proves a flip inside a tagged block — tag
//!   byte included — is caught by the section checksum *before* any block
//!   decode runs;
//! * **wire-protocol fuzzing** — seeded malformed frames (lying length
//!   prefixes past the request cap, garbage verbs, in-body length lies,
//!   empty payloads, truncated frames followed by a hangup) thrown at a
//!   live `mrx serve` daemon; every response-bearing abuse must come back
//!   as a typed `Protocol` error, the daemon must stay healthy afterwards,
//!   and the whole sweep must allocate a bounded amount even though the
//!   frames *declare* gigabytes — the length cap runs before any buffer
//!   is sized;
//! * **budget overhead** — the same workload replayed over the compressed
//!   hierarchy through governed ([`replay_budgeted`] with a generous
//!   budget, so the meter runs but never trips) vs. ungoverned sessions;
//!   the warm-path tax of carrying a [`QueryBudget`] is gated as a
//!   regression backstop.
//!
//! Results print as a table and append one JSON line to `BENCH_fault.json`.
//!
//! ```text
//! fault_bench [--smoke] [--seeds N] [--reps N] [--out FILE]
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use mrx_bench::timing::time;
use mrx_bench::{json, Dataset, Scale};
use mrx_datagen::prng::Prng;
use mrx_graph::FrozenGraph;
use mrx_index::{replay, replay_budgeted, MStarIndex, TrustPolicy};
use mrx_path::PathExpr;
use mrx_path::QueryBudget;
use mrx_serve::{Client, Response, ServeConfig, ServeError, Server, MAX_REQUEST_FRAME};
use mrx_store::fault::{FaultKind, FaultPlan};
use mrx_store::{load_compressed_from, paged_image, save_compressed_to, PagedFile, StoreError};
use mrx_workload::{Workload, WorkloadConfig};

const POLICY: TrustPolicy = TrustPolicy::Proven;

/// Counts bytes requested from the allocator (cumulative, so `Vec` growth
/// and reallocation both count toward a load attempt's footprint).
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

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

struct Opts {
    smoke: bool,
    seeds: u64,
    reps: usize,
    out: String,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        smoke: false,
        seeds: 10_000,
        reps: 7,
        out: "BENCH_fault.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--seeds" => opts.seeds = args.next().and_then(|v| v.parse().ok()).expect("--seeds N"),
            "--reps" => opts.reps = args.next().and_then(|v| v.parse().ok()).expect("--reps N"),
            "--out" => opts.out = args.next().expect("--out FILE"),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: fault_bench [--smoke] [--seeds N] [--reps N] [--out FILE]");
                std::process::exit(2);
            }
        }
    }
    if opts.smoke {
        opts.seeds = opts.seeds.min(500);
        opts.reps = 3;
    }
    opts
}

/// How one faulted load attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Io,
    Format,
    Checksum,
}

impl Outcome {
    fn of<T>(r: &Result<T, StoreError>) -> Outcome {
        match r {
            Ok(_) => Outcome::Ok,
            Err(StoreError::Io(_)) => Outcome::Io,
            Err(StoreError::Format(_) | StoreError::Retired { .. }) => Outcome::Format,
            Err(StoreError::Checksum { .. }) => Outcome::Checksum,
        }
    }
}

#[derive(Default, Clone, Copy)]
struct Tally {
    ok: u64,
    io: u64,
    format: u64,
    checksum: u64,
}

impl Tally {
    fn record(&mut self, o: Outcome) {
        match o {
            Outcome::Ok => self.ok += 1,
            Outcome::Io => self.io += 1,
            Outcome::Format => self.format += 1,
            Outcome::Checksum => self.checksum += 1,
        }
    }

    fn rejected(&self) -> u64 {
        self.io + self.format + self.checksum
    }
}

fn kind_name(k: FaultKind) -> &'static str {
    match k {
        FaultKind::BitFlip => "bit-flip",
        FaultKind::Truncate => "truncate",
        FaultKind::Overwrite => "overwrite",
        FaultKind::LengthLie => "length-lie",
        FaultKind::IoError => "io-error",
        FaultKind::ShortRead => "short-read",
    }
}

/// Runs `seeds` deterministic corruptions of `image` through `load`,
/// tallying outcomes per fault kind. Asserts the loader never panics and
/// that rejecting a corrupt image never allocates more than loading the
/// intact one (plus `2 * image.len()` and a fixed slack for the staging
/// copy and error strings) — i.e. a lying length prefix cannot make the
/// loader balloon past the work an honest input would cost.
fn corruption_sweep(
    label: &str,
    image: &[u8],
    seeds: u64,
    load: impl Fn(&FaultPlan, &[u8]) -> Result<(), StoreError>,
) -> (BTreeMap<&'static str, Tally>, u64) {
    // An image-level plan's reader is transparent, so feeding it the
    // unfaulted image measures a clean load.
    let intact = (0u64..)
        .map(FaultPlan::from_seed)
        .find(|p| !matches!(p.kind(), FaultKind::IoError | FaultKind::ShortRead))
        .expect("image-level kinds are 4 of 6");
    let (clean_bytes, clean) = bytes_during(|| load(&intact, image));
    assert!(clean.is_ok(), "{label}: intact image must load");
    let alloc_cap = clean_bytes + 2 * image.len() as u64 + (1 << 21);
    let mut per_kind: BTreeMap<&'static str, Tally> = BTreeMap::new();
    let mut panics = 0u64;
    for seed in 0..seeds {
        let plan = FaultPlan::from_seed(seed);
        let mut img = image.to_vec();
        plan.corrupt(&mut img);
        let (bytes, result) =
            bytes_during(|| catch_unwind(AssertUnwindSafe(|| load(&plan, &img))).map_err(|_| seed));
        match result {
            Ok(r) => {
                let o = Outcome::of(&r);
                if o != Outcome::Ok {
                    assert!(
                        bytes <= alloc_cap,
                        "{label}: seed {seed} ({:?}) allocated {bytes} bytes \
                         rejecting a {}-byte image (cap {alloc_cap})",
                        plan.kind(),
                        img.len(),
                    );
                }
                per_kind
                    .entry(kind_name(plan.kind()))
                    .or_default()
                    .record(o);
            }
            Err(seed) => {
                eprintln!("{label}: PANIC at seed {seed} ({:?})", plan.kind());
                panics += 1;
            }
        }
    }
    (per_kind, panics)
}

/// Byte ranges of every checksummed section payload in a v5 `.mrx` image.
/// Layout: 16-byte header (`magic | u32 version |
/// u32 ncomp`), a graph section, a raw (unchecksummed) `8 * ncomp`-byte
/// offset directory, then `ncomp` component sections; every section is
/// `[u64 len][payload][u64 fnv64]`.
fn payload_ranges(image: &[u8]) -> Vec<(usize, usize)> {
    let ncomp = u32::from_le_bytes(image[12..16].try_into().unwrap()) as usize;
    let mut ranges = Vec::with_capacity(1 + ncomp);
    let mut off = 16usize;
    for i in 0..=ncomp {
        if i == 1 {
            off += 8 * ncomp; // skip the offset directory
        }
        let len = u64::from_le_bytes(image[off..off + 8].try_into().unwrap()) as usize;
        ranges.push((off + 8, off + 8 + len));
        off += 8 + len + 8;
    }
    assert_eq!(off, image.len(), "section walk must cover the whole image");
    ranges
}

/// Flips checksummed payload bits (every `stride`-th bit; `stride == 1`
/// is exhaustive) and asserts each flipped image fails to load with
/// `StoreError::Checksum`. Returns the number of bits tested.
fn bit_flips(
    label: &str,
    image: &[u8],
    stride: u64,
    load: impl Fn(&[u8]) -> Result<(), StoreError>,
) -> u64 {
    let mut tested = 0u64;
    for (start, end) in payload_ranges(image) {
        let mut bitpos = (start as u64) * 8;
        while bitpos < (end as u64) * 8 {
            let mut img = image.to_vec();
            img[(bitpos / 8) as usize] ^= 1 << (bitpos % 8);
            match load(&img) {
                Err(StoreError::Checksum { .. }) => {}
                other => panic!(
                    "{label}: flip of payload bit {bitpos} escaped the \
                     checksum (got {other:?})"
                ),
            }
            tested += 1;
            bitpos += stride;
        }
    }
    tested
}

fn main() {
    let opts = parse_args();
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
    let fg = FrozenGraph::freeze(&g);
    let cz = idx.freeze_compressed();
    let mut v3 = Vec::new();
    save_compressed_to(&mut v3, &fg, &cz).expect("save v3");
    // Demand-paged v4 with small pages, so seeded faults land across many
    // independently checksummed pages instead of one giant page.
    let v4 = paged_image(&fg, &cz, 4096).expect("pack v4");
    let extent_bytes: usize = (0..=cz.max_k())
        .map(|i| cz.component(i).extent_bytes())
        .sum();
    println!(
        "fault_bench: XMark-like, {} nodes, v5 {} bytes, v7 {} bytes, {} seeds per format",
        g.node_count(),
        v3.len(),
        v4.len(),
        opts.seeds,
    );

    // --- Seeded corruption sweep over both layouts ----------------------
    let (v3_tally, v3_panics) = corruption_sweep("v3", &v3, opts.seeds, |plan, img| {
        load_compressed_from(plan.reader(img, img.len() as u64)).map(|_| ())
    });
    // v4 opens lazily, so "load" alone would never touch the paged region
    // or the deeper meta sections: the attempt is open + full component
    // activation + a query sweep + the full page-checksum walk, covering
    // every byte the way the eager loaders do. Reader-level kinds
    // (io-error, short-read) don't apply to the in-memory open and land in
    // the `ok` column by construction.
    let v4_queries: Vec<PathExpr> = w.queries.iter().take(4).cloned().collect();
    let (v4_tally, v4_panics) = corruption_sweep("v4", &v4, opts.seeds, |_plan, img| {
        let mut f = PagedFile::open_bytes(img.to_vec(), 1 << 22)?;
        f.ensure_loaded(usize::MAX)?;
        for q in &v4_queries {
            f.query_top_down(q)?;
        }
        f.verify()
    });
    let panics = v3_panics + v4_panics;
    println!(
        "\n{:<12} {:>8} {:>8} {:>8} {:>10} {:>8}",
        "fault", "ok", "io", "format", "checksum", "total"
    );
    for (label, tally) in [("v3", &v3_tally), ("v4", &v4_tally)] {
        for (kind, t) in tally {
            println!(
                "{label}/{kind:<10} {:>8} {:>8} {:>8} {:>10} {:>8}",
                t.ok,
                t.io,
                t.format,
                t.checksum,
                t.ok + t.rejected(),
            );
        }
    }
    assert_eq!(panics, 0, "corrupted snapshots must never panic the loader");
    // Reader-level short reads are *legal* `Read` behaviour — the eager
    // loader must shrug them off; everything it rejects must be typed.
    if let Some(t) = v3_tally.get("short-read") {
        assert_eq!(
            t.rejected(),
            0,
            "v3: short reads are legal Read outcomes and must load cleanly"
        );
    }
    if let Some(t) = v3_tally.get("io-error") {
        assert_eq!(t.ok, 0, "v3: injected I/O errors must surface");
    }
    let rejected: u64 = [&v3_tally, &v4_tally]
        .iter()
        .flat_map(|t| t.values())
        .map(Tally::rejected)
        .sum();
    println!(
        "\n{} corruptions rejected with typed errors, 0 panics",
        rejected
    );

    // --- Exhaustive single-bit flips on a small snapshot -----------------
    let sg = Dataset::XMark.load(Scale::Tiny);
    let mut sidx = MStarIndex::new(&sg);
    for q in &w.queries[..w.queries.len().min(8)] {
        sidx.refine_for(&sg, q);
    }
    let sfg = FrozenGraph::freeze(&sg);
    let scz = sidx.freeze_compressed();
    let mut s3 = Vec::new();
    save_compressed_to(&mut s3, &sfg, &scz).expect("save small v3");
    // Exhaustive outside smoke; in smoke mode sample every 97th payload
    // bit (coprime to 8, so every bit position within a byte is hit) to
    // stay inside the CI time box while still proving the property.
    let stride = if opts.smoke { 97 } else { 1 };
    // Every flipped bit here lands in or around a tagged posting block —
    // including flips of the tag byte itself, which could otherwise turn a
    // run block into a bit-packed one; the section checksum must reject
    // the image before any tagged-block decode sees it.
    let b3 = bit_flips("v3", &s3, stride, |img| {
        load_compressed_from(img).map(|_| ())
    });
    println!(
        "payload bit flips all caught by checksum: v3 {b3}{}",
        if opts.smoke { " (sampled 1/97)" } else { "" }
    );

    // --- Paged-region bit flips on a small v4 snapshot -------------------
    // Tiny 256-byte pages spread the region over many independently
    // checksummed pages; the clean answers are the wrong-answer oracle.
    let s4 = paged_image(&sfg, &scz, 256).expect("pack small v4");
    let sq: Vec<PathExpr> = w.queries.iter().take(4).cloned().collect();
    let clean: Vec<_> = {
        let mut f = PagedFile::open_bytes(s4.clone(), 1 << 22).expect("open clean small v4");
        sq.iter()
            .map(|q| {
                f.query_top_down(q)
                    .expect("clean small v4 must serve")
                    .nodes
            })
            .collect()
    };
    let (b4, b4_query_catches) = paged_region_flips("v4", &s4, stride, &sq, &clean);
    println!(
        "paged-region bit flips all caught before decode: v4 {b4} \
         ({b4_query_catches} surfaced mid-query, rest in untouched pages){}",
        if opts.smoke { " (sampled 1/97)" } else { "" }
    );

    // --- Wire-protocol fuzzing against a live daemon ----------------------
    let wire_seeds = opts.seeds.min(if opts.smoke { 150 } else { 1_000 });
    let wire_q = w.queries[0].to_string();
    let wire_clean: Vec<u32> = scz
        .query_top_down(&sfg, &w.queries[0], POLICY)
        .nodes
        .iter()
        .map(|n| n.0)
        .collect();
    let wire = wire_fuzz(&s3, wire_seeds, &wire_q, &wire_clean);
    println!(
        "wire fuzzing: {} frames ({} typed protocol errors, {} hangups), \
         {} declared bytes rejected with {} bytes allocated, daemon healthy",
        wire.frames, wire.typed, wire.hangups, wire.declared_bytes, wire.alloc_bytes
    );

    // --- Budget overhead on the warm compressed replay path --------------
    // The whole replay is ~0.2 ms, so the min wanders a few percent run to
    // run; floor the rep count high enough that the minimums converge.
    let budget_reps = opts.reps.max(25);
    let ungoverned = time("replay/ungoverned", budget_reps, || {
        replay(&cz, &fg, &w.queries, POLICY, 1).total
    });
    let generous = QueryBudget {
        max_steps: Some(u64::MAX / 2),
        max_result_nodes: Some(u64::MAX / 2),
        ..QueryBudget::unlimited()
    };
    let governed = time("replay/governed", budget_reps, || {
        replay_budgeted(&cz, &fg, &w.queries, POLICY, 1, &generous).total
    });
    println!("{}", ungoverned.render());
    println!("{}", governed.render());
    let overhead_pct = (governed.min_ms / ungoverned.min_ms - 1.0) * 100.0;
    println!("budget metering overhead: {overhead_pct:.2}%");
    if !opts.smoke {
        // Both descents take the same bulk extent walk; the governed one
        // adds the meter arithmetic per visit and per validated target.
        // Gate as a regression backstop above the measured envelope.
        assert!(
            overhead_pct < 6.0,
            "budget metering must stay within the measured 2-4% envelope \
             on the warm path (got {overhead_pct:.2}%)"
        );
    }

    let line = format!(
        concat!(
            "{{\"dataset\":\"xmark\",\"nodes\":{},",
            "\"v3_bytes\":{},\"v4_bytes\":{},\"extent_bytes\":{},\"bytes_per_node\":{:.3},",
            "\"seeds_per_format\":{},\"rejected\":{},\"panics\":{},",
            "\"v3_ok\":{},\"v3_io\":{},\"v3_format\":{},\"v3_checksum\":{},",
            "\"v4_ok\":{},\"v4_io\":{},\"v4_format\":{},\"v4_checksum\":{},",
            "\"bitflips_v3\":{},",
            "\"region_flips_v4\":{},\"region_flips_v4_mid_query\":{},",
            "\"bitflip_escapes\":0,",
            "\"wire_frames\":{},\"wire_typed\":{},\"wire_hangups\":{},",
            "\"wire_declared_bytes\":{},\"wire_alloc_bytes\":{},\"wire_panics\":0,",
            "\"replay_ungoverned_ms\":{:.3},\"replay_governed_ms\":{:.3},",
            "\"budget_overhead_pct\":{:.2}}}"
        ),
        g.node_count(),
        v3.len(),
        v4.len(),
        extent_bytes,
        extent_bytes as f64 / g.node_count().max(1) as f64,
        opts.seeds,
        rejected,
        panics,
        sum(&v3_tally, |t| t.ok),
        sum(&v3_tally, |t| t.io),
        sum(&v3_tally, |t| t.format),
        sum(&v3_tally, |t| t.checksum),
        sum(&v4_tally, |t| t.ok),
        sum(&v4_tally, |t| t.io),
        sum(&v4_tally, |t| t.format),
        sum(&v4_tally, |t| t.checksum),
        b3,
        b4,
        b4_query_catches,
        wire.frames,
        wire.typed,
        wire.hangups,
        wire.declared_bytes,
        wire.alloc_bytes,
        ungoverned.min_ms,
        governed.min_ms,
        overhead_pct,
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
        .expect("open BENCH_fault.json");
    writeln!(f, "{line}").expect("append result line");
    println!("appended to {}", opts.out);
}

fn sum(t: &BTreeMap<&'static str, Tally>, f: impl Fn(&Tally) -> u64) -> u64 {
    t.values().map(f).sum()
}

struct WireResult {
    frames: u64,
    typed: u64,
    hangups: u64,
    declared_bytes: u64,
    alloc_bytes: u64,
}

/// One seeded malformed frame: (bytes, expect_response, declared_bytes).
/// `expect_response == false` means the abuse is a truncated frame the
/// client hangs up on; the daemon reaps it without answering.
fn wire_frame(rng: &mut Prng) -> (Vec<u8>, bool, u64) {
    match rng.gen_range(0..5usize) {
        // Length prefix far past the request cap: rejected pre-allocation.
        0 => {
            let len = rng.gen_range(MAX_REQUEST_FRAME as u64 + 1..u32::MAX as u64);
            ((len as u32).to_le_bytes().to_vec(), true, len)
        }
        // Garbage verb byte in an otherwise well-framed payload.
        1 => {
            let verb = 32 + rng.gen_range(0..200u64) as u8;
            let mut payload = 7u32.to_le_bytes().to_vec();
            payload.push(verb);
            payload.extend_from_slice(&[0u8; 4]);
            let mut f = (payload.len() as u32).to_le_bytes().to_vec();
            f.extend_from_slice(&payload);
            let n = payload.len() as u64;
            (f, true, n)
        }
        // QUERY whose in-body tenant length lies past the frame end.
        2 => {
            let mut payload = 9u32.to_le_bytes().to_vec();
            payload.push(1); // VERB_QUERY
            payload.extend_from_slice(&(rng.gen_range(100..u16::MAX as u64) as u16).to_le_bytes());
            payload.extend_from_slice(b"x");
            let mut f = (payload.len() as u32).to_le_bytes().to_vec();
            f.extend_from_slice(&payload);
            let n = payload.len() as u64;
            (f, true, n)
        }
        // Empty payload: too short to even carry a request id.
        3 => (0u32.to_le_bytes().to_vec(), true, 0),
        // Truncated frame: declare more than is sent, then hang up.
        _ => {
            let declared = rng.gen_range(16..512u64) as u32;
            let sent = rng.gen_range(0..declared as u64 / 2) as usize;
            let mut f = declared.to_le_bytes().to_vec();
            f.extend(vec![0xAAu8; sent]);
            (f, false, declared as u64)
        }
    }
}

/// Throws `seeds` malformed frames at a live daemon serving `image`.
/// Every response-bearing abuse must come back as a typed `Protocol`
/// error, the daemon must still serve `probe_expr` with the clean answer
/// afterwards, and the sweep's total allocation must stay bounded no
/// matter how many bytes the frames *declared* — the frame cap runs
/// before any buffer is sized.
fn wire_fuzz(image: &[u8], seeds: u64, probe_expr: &str, probe_want: &[u32]) -> WireResult {
    let dir = std::env::temp_dir().join(format!("mrx-fault-wire-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create wire temp dir");
    let snap = dir.join("wire.mrx");
    std::fs::write(&snap, image).expect("write wire snapshot");
    let mut cfg = ServeConfig::new("127.0.0.1:0", &snap);
    cfg.workers = 2;
    cfg.tick = std::time::Duration::from_millis(10);
    cfg.frame_timeout = std::time::Duration::from_millis(200);
    cfg.drain_timeout = std::time::Duration::from_secs(2);
    let server = Server::start(cfg).expect("start wire daemon");
    let addr = server.addr();
    let mut typed = 0u64;
    let mut hangups = 0u64;
    let mut declared = 0u64;
    let (alloc_bytes, ()) = bytes_during(|| {
        for seed in 0..seeds {
            let mut rng = Prng::seed_from_u64(seed);
            let (frame, expect_response, declared_len) = wire_frame(&mut rng);
            declared += declared_len;
            let Ok(mut c) = Client::connect(addr) else {
                panic!("wire daemon stopped accepting at seed {seed}")
            };
            if c.send_raw(&frame).is_err() {
                hangups += 1;
                continue;
            }
            if expect_response {
                match c.read_response_raw() {
                    Ok((_, Response::Error(ServeError::Protocol(_)))) => typed += 1,
                    Ok((_, other)) => {
                        panic!("seed {seed}: malformed frame answered with {other:?}")
                    }
                    // The daemon may slam the connection instead of (or
                    // after) the typed reply; both are legal refusals.
                    Err(_) => hangups += 1,
                }
            } else {
                hangups += 1;
            }
        }
    });
    // The daemon must shrug the abuse off: alive, healthy, and still
    // serving the clean answer.
    let mut c = Client::connect(addr).expect("reconnect after fuzzing");
    c.ping().expect("daemon must answer ping after fuzzing");
    let r = c
        .query("probe", probe_expr)
        .expect("daemon must serve after fuzzing");
    assert_eq!(r.nodes, probe_want, "fuzzing changed a served answer");
    let stats = c.stats().expect("stats after fuzzing");
    assert!(
        stats.contains("\"healthy\":true"),
        "daemon degraded: {stats}"
    );
    drop(c);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(typed > 0, "fuzzing never produced a typed protocol error");
    assert!(
        alloc_bytes < (1 << 28),
        "wire sweep allocated {alloc_bytes} bytes against {declared} declared \
         — the frame cap must run before buffers are sized"
    );
    WireResult {
        frames: seeds,
        typed,
        hangups,
        declared_bytes: declared,
        alloc_bytes,
    }
}

/// Flips every `stride`-th bit inside the v4 paged region. Opening must
/// still succeed (the region is lazy), [`PagedFile::verify`] must name a
/// corrupt page, and serving must never yield a wrong answer: each query
/// either matches the clean answer (the flipped page was never touched)
/// or fails with the typed per-page checksum error at first touch — the
/// checksum runs on page fault, *before* any tagged-block decode sees the
/// corrupt bytes (readahead keeps that property: a speculative page that
/// fails its checksum is simply not admitted, and the demand fault for it
/// re-verifies). Returns (bits tested, flips surfaced mid-query).
fn paged_region_flips(
    label: &str,
    image: &[u8],
    stride: u64,
    queries: &[PathExpr],
    clean: &[Vec<mrx_graph::NodeId>],
) -> (u64, u64) {
    let paged_off = u64::from_le_bytes(image[16..24].try_into().unwrap());
    let paged_len = u64::from_le_bytes(image[24..32].try_into().unwrap());
    let mut tested = 0u64;
    let mut caught_in_query = 0u64;
    let mut bitpos = paged_off * 8;
    while bitpos < (paged_off + paged_len) * 8 {
        let mut img = image.to_vec();
        img[(bitpos / 8) as usize] ^= 1 << (bitpos % 8);
        let mut f = PagedFile::open_bytes(img, 1 << 22).unwrap_or_else(|e| {
            panic!("{label}: open must not touch the lazy region (bit {bitpos}): {e}")
        });
        match f.verify() {
            Err(StoreError::Checksum { ref section }) if section.starts_with("page ") => {}
            other => {
                panic!("{label}: flip of region bit {bitpos} escaped the page walk (got {other:?})")
            }
        }
        for (q, want) in queries.iter().zip(clean) {
            match f.query_top_down(q) {
                Ok(ans) => assert_eq!(
                    &ans.nodes, want,
                    "{label}: wrong answer served despite flipped bit {bitpos} on {q}"
                ),
                Err(StoreError::Checksum { .. }) => {
                    caught_in_query += 1;
                    break;
                }
                Err(e) => panic!(
                    "{label}: flip of region bit {bitpos} surfaced as a \
                     non-checksum error on {q}: {e}"
                ),
            }
        }
        tested += 1;
        bitpos += stride;
    }
    (tested, caught_in_query)
}

//! The demand-paged (v9) `.mrx` snapshot layout.
//!
//! The compressed v5 layout serves fast but pays its whole cost up front: every component
//! section is read, checksummed, and validated before the first answer.
//! The v9 layout splits a snapshot into a small **eagerly loaded** part
//! and a large **paged region** that is only ever touched through a
//! fixed-page [`PageCache`], so cold start reads a few kilobytes and the
//! resident set is bounded by the cache budget, not the corpus size:
//!
//! ```text
//! paged file   := "MRXSTAR1" u32(version=9) u32(ncomponents) ext
//!                 section(graph-core) gunit gunit dir section(meta)*
//!                 region section(pagetab)
//! ext          := u64(paged_off) u64(paged_len) u64(pagetab_off)
//!                 u32(page_size) u32(npages) u64(star_epoch) u64(data_len)
//!                 u64(fnv64 of the preceding 48 ext bytes)
//! graph-core   := u32(n) u32(root) u32(nedges)
//!                 u64(len of labels) u64(len of parents)
//!                 arr(name_off) bytes(name_bytes) arr(name_order)
//! gunit        := u64(len) codec u64(fnv64_words) — two of them:
//!                 labels = words[n], parents = ascending rows[n]
//! dir          := u64(absolute offset of each meta section)*
//! meta         := u32(n) u32(lemma2) u64(epoch) u32(root)
//!                 words(labels)[n] words(k)[n] words(genuine)[n]
//!                 ascending rows(children)[n]
//!                 stored-order rows(links)[coarse n; none for I0]
//!                 words(extent_len)[nodes that store a list]
//! region       := extent payload [data_len bytes],
//!                 [u32; nblocks] block_first, [u32; nblocks+1] block_off
//!                 (nblocks = (paged_len − data_len − 4) / 8)
//! pagetab      := u64(fnv64_words of each page_size-byte page)*
//! section(p)   := u64(len(p)) p u64(fnv64(p))
//! ```
//!
//! `words` and `rows` are the row codec of [`mrx_postings::RowReader`]:
//! LEB128 words, and rows whose ids are deltas from the row's own node.
//! `root` is the component's node holding the data root, and the links
//! are its subnode links (one row per node of the previous component, in
//! first-occurrence order; see [`mrx_index::SubnodeLinks`]).
//!
//! **Only what cannot be derived is stored.** The graph's child rows are
//! the transpose of its parent rows and its label→nodes CSR the grouping
//! of its labels ([`LazyGraph`] derives both on first touch); a
//! component's parent rows are the transpose of its child rows, derived
//! when the component activates. The writer refuses an input whose halves
//! do not mirror each other, so every array the reader derives equals the
//! one that was saved.
//!
//! **Each distinct extent is stored once** (paper §4). A node of `Ii`
//! (`i ≥ 1`) whose supernode's link row has one entry is a sole subnode:
//! its extent is the supernode's, so it shares that list and stores none.
//! The region is one arena of every stored list, component by component
//! and in node order within a component. `extent_len` lists the lengths of
//! the lists a component stores, skipping its sole subnodes, and the
//! component's lists start at the block where the previous component's
//! end. Nothing records the sharing: the reader derives it from the links,
//! which are checksummed with the meta section and checked to form a tree
//! that splits every coarse extent before anything serves.
//!
//! **What loads eagerly** (at [`PagedFile::open`]): the 64-byte header,
//! the graph core (counts, root, label names — all query compilation
//! needs), the meta directory, the page table, and the region's two skip
//! directories, read through the cache so their pages verify and then
//! shape-checked whole — eight bytes per 128-id block. **What loads on
//! first touch**: the two graph unit sections, each one bulk read
//! digest-checked with the word-folded FNV-64 and decoded by the checked
//! codec as it materializes into [`LazyGraph`] (a top-down Proven query
//! touches only `labels` and `parents`; see `lazy_graph`), and the
//! per-component meta sections (a prefix `I0..Ij` exactly like
//! [`crate::CompressedFile`]), whose links are validated at activation to
//! form a tree that splits every coarse extent. **What never loads
//! whole**: the extent payload, which dominates the file. It is served
//! page-by-page through [`PagedArena`], with each 64 KiB page verified
//! against its checksum the first time it faults in — integrity checking
//! becomes lazy and incremental instead of a whole-file pass at load.
//!
//! # Failure model: typed errors, no degradation
//!
//! The v5 reader rebuilds an unreadable component from the embedded graph,
//! which is sound because the damage is discovered *before* the component
//! serves. Under demand paging a flipped bit may only surface mid-query,
//! after the evaluator has partially consumed the structure, so rebuilding
//! is no longer a sound drop-in. The paged reader therefore fails hard: any
//! page-checksum mismatch or payload-validation failure poisons the cache,
//! and the one serving path, [`mrx_index::QuerySession::serve`] (over
//! [`PagedFile::activate`] or [`PagedFile::into_parts`]), checks the
//! hierarchy's fault probe ([`mrx_index::Servable::fault_cache`]) after
//! evaluation and returns the typed error *instead of* the answer.
//! The fault-injection test (`tests/fault_injection.rs`) sweeps seeded
//! corruptions and flips bits across the paged region to prove nothing
//! escapes this net.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::fs::File;
use std::io::{BufReader, Cursor, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;

use mrx_graph::{FrozenGraph, LabelId};
use mrx_index::{CompressedMStar, IdxId, IndexView, PagedIndex, PagedMStar, SubnodeLinks};
use mrx_pagecache::{
    fnv64, fnv64_words, page_checksums, ArenaLayout, BytesSource, FileSource, PageCache,
    PageSource, PageStats, PagedArena, RunList, SkipDirectories, DEFAULT_CACHE_BYTES,
    DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE, MIN_PAGE_SIZE,
};
use mrx_path::PathExpr;
use mrx_postings::{put_rows, put_words, CodecError, PostingArena, RowOrder, RowReader};

use crate::compressed::read_prelude;
use crate::format::{
    format_err, read_section_bounded, to_payload, write_section, StoreError, STAR_MAGIC,
    VERSION_PAGED,
};
use crate::lazy_graph::{
    graph_unit_payloads, read_graph_core, write_graph_core, LazyGraph, GRAPH_UNITS,
};
use crate::wire::le_u64;

/// Fixed byte length of the paged header: the 16-byte shared
/// prelude plus the 56-byte paged extension.
pub(crate) const HEADER_LEN_PAGED: u64 = 72;

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Serializes a paged (v9) snapshot into an in-memory image. Exposed so
/// tests can corrupt or open images without a file; [`save_paged`] is the
/// file-writing entry point. Only one half of each mirrored pair is
/// written, so the graph must pass [`FrozenGraph::validate`] and each
/// component's parent rows must be the transpose of its child rows. The
/// links must form a tree, and a sole subnode's extent must equal its
/// supernode's, because only the supernode's is written. An input that
/// breaks any of this is refused with a format error.
pub fn paged_image(
    g: &FrozenGraph,
    idx: &CompressedMStar,
    page_size: u32,
) -> Result<Vec<u8>, StoreError> {
    if idx.components.is_empty() {
        return Err(format_err("paged M* has no components"));
    }
    if idx.components.len() > 4096 {
        return Err(format_err(format!(
            "implausible component count {}",
            idx.components.len()
        )));
    }
    if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
        return Err(format_err(format!(
            "page size {page_size} outside [{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}]"
        )));
    }
    if g.node_count() == 0 || g.num_labels() == 0 {
        return Err(format_err("paged graph has no nodes or no labels"));
    }
    g.validate()
        .map_err(|e| format_err(format!("graph: {e}")))?;
    let ncomp = idx.components.len();
    let gunits = graph_unit_payloads(g)?;
    let gcore_payload =
        to_payload(|w| write_graph_core(w, g, gunits.each_ref().map(|u| u.len() as u64)))?;

    // One arena for the whole region holds every distinct extent list
    // once, component by component. A sole subnode's extent is its
    // supernode's (paper §4), so it is checked equal and not written: the
    // reader derives the sharing from the subnode links.
    let mut arena = PostingArena::new();
    let mut metas: Vec<Vec<u8>> = Vec::with_capacity(ncomp);
    let (mut ext, mut sup) = (Vec::<u32>::new(), Vec::<u32>::new());
    for (i, c) in idx.components.iter().enumerate() {
        let n = c.node_count();
        if c.extents.num_lists() != n {
            return Err(format_err(format!(
                "component {i} carries {} extent lists for {n} nodes",
                c.extents.num_lists()
            )));
        }
        let coarse = i.checked_sub(1).map(|j| &idx.components[j]);
        let refuse = |e: String| format_err(format!("component {i}: {e}"));
        c.links
            .check(coarse.map(|c| c.node_count()), n, true)
            .map_err(refuse)?;
        if c.child_off.len() != n + 1
            || c.parent_off.len() != n + 1
            || !mrx_postings::is_transpose(&c.child_off, &c.child_tgt, &c.parent_off, &c.parent_tgt)
        {
            return Err(refuse(
                "parent rows are not the transpose of the child rows".into(),
            ));
        }
        let mut stored = Vec::new();
        for (v, sole) in c.links.sole_supernodes(n).into_iter().enumerate() {
            ext.clear();
            c.extents.decode_into(v, &mut ext);
            match (sole, coarse) {
                (Some(u), Some(coarse)) => {
                    sup.clear();
                    coarse.extents.decode_into(u.index(), &mut sup);
                    if ext != sup {
                        return Err(format_err(format!(
                            "component {i}: node {v} is the sole subnode of coarse node {} \
                             but its extent differs",
                            u.0
                        )));
                    }
                }
                _ => {
                    arena.push_list(&ext);
                    stored.push(ext.len() as u32);
                }
            }
        }
        let mut meta = Vec::new();
        meta.extend_from_slice(&(n as u32).to_le_bytes());
        meta.extend_from_slice(&u32::from(c.lemma2).to_le_bytes());
        meta.extend_from_slice(&c.epoch.to_le_bytes());
        meta.extend_from_slice(&c.root.0.to_le_bytes());
        put_words(&mut meta, c.labels.iter().map(|l| l.0));
        put_words(&mut meta, c.k.iter().copied());
        put_words(&mut meta, c.genuine.iter().copied());
        put_rows(&mut meta, &c.child_off, &c.child_tgt, RowOrder::Ascending)
            .map_err(|e| refuse(e.to_string()))?;
        put_rows(&mut meta, &c.links.off, &c.links.tgt, RowOrder::Stored)
            .map_err(|e| refuse(e.to_string()))?;
        put_words(&mut meta, stored.iter().copied());
        metas.push(meta);
    }
    let (data, bf, bo, _) = arena.parts();
    u32::try_from(bf.len()).map_err(|_| format_err("extent arena exceeds u32 block count"))?;
    let mut region: Vec<u8> = Vec::with_capacity(data.len() + 4 * (bf.len() + bo.len()));
    region.extend_from_slice(data);
    for &v in bf.iter().chain(bo) {
        region.extend_from_slice(&v.to_le_bytes());
    }

    let graph_sec = 8 + gcore_payload.len() as u64 + 8;
    let gunits_sec: u64 = gunits.iter().map(|u| 16 + u.len() as u64).sum();
    let dir_at = HEADER_LEN_PAGED + graph_sec + gunits_sec;
    let mut meta_at = dir_at + 8 * ncomp as u64;
    let mut dir = Vec::with_capacity(ncomp);
    for m in &metas {
        dir.push(meta_at);
        meta_at += 8 + m.len() as u64 + 8;
    }
    let paged_off = meta_at;
    let paged_len = region.len() as u64;
    let pagetab_off = paged_off + paged_len;
    let sums = page_checksums(&region, page_size);
    let npages =
        u32::try_from(sums.len()).map_err(|_| format_err("paged region has too many pages"))?;
    let mut pagetab = Vec::with_capacity(sums.len() * 8);
    for s in &sums {
        pagetab.extend_from_slice(&s.to_le_bytes());
    }

    let mut out = Vec::with_capacity((pagetab_off as usize) + pagetab.len() + 16);
    out.extend_from_slice(STAR_MAGIC);
    out.extend_from_slice(&VERSION_PAGED.to_le_bytes());
    out.extend_from_slice(&(ncomp as u32).to_le_bytes());
    out.extend_from_slice(&paged_off.to_le_bytes());
    out.extend_from_slice(&paged_len.to_le_bytes());
    out.extend_from_slice(&pagetab_off.to_le_bytes());
    out.extend_from_slice(&page_size.to_le_bytes());
    out.extend_from_slice(&npages.to_le_bytes());
    out.extend_from_slice(&idx.epoch.to_le_bytes());
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    let ext_fnv = fnv64(&out[16..]);
    out.extend_from_slice(&ext_fnv.to_le_bytes());
    write_section(&mut out, &gcore_payload)?;
    for u in &gunits {
        out.extend_from_slice(&(u.len() as u64).to_le_bytes());
        out.extend_from_slice(u);
        out.extend_from_slice(&fnv64_words(u).to_le_bytes());
    }
    for o in &dir {
        out.extend_from_slice(&o.to_le_bytes());
    }
    for m in &metas {
        write_section(&mut out, m)?;
    }
    if out.len() as u64 != paged_off {
        return Err(format_err("paged writer offset accounting is inconsistent"));
    }
    out.extend_from_slice(&region);
    write_section(&mut out, &pagetab)?;
    Ok(out)
}

/// Saves a paged (v9) snapshot with the default 64 KiB page size.
pub fn save_paged(
    path: impl AsRef<Path>,
    g: &FrozenGraph,
    idx: &CompressedMStar,
) -> Result<(), StoreError> {
    save_paged_with(path, g, idx, DEFAULT_PAGE_SIZE)
}

/// [`save_paged`] with an explicit page size (tests use tiny pages to
/// force seam crossings and eviction churn at small scale).
pub fn save_paged_with(
    path: impl AsRef<Path>,
    g: &FrozenGraph,
    idx: &CompressedMStar,
    page_size: u32,
) -> Result<(), StoreError> {
    let image = paged_image(g, idx, page_size)?;
    std::fs::write(path, image)?;
    Ok(())
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Combined bound for the eager-side reader (meta sections, graph, page
/// table); the paged region goes through the cache's [`PageSource`].
trait ReadSeek: Read + Seek {}
impl<T: Read + Seek> ReadSeek for T {}

/// Decodes a meta section payload into an unassembled [`PagedIndex`]
/// below `coarse`, whose extents run over `dirs`, with nodes labelled
/// below `num_labels`. The subnode links are checked first, because they
/// decide which lists the component stores: a node that is its
/// supernode's only subnode shares the
/// supernode's list, and every other node takes the next stored list, in a
/// run that starts where `coarse`'s ends. The parent rows are left for
/// [`PagedIndex::assemble`](mrx_index::SnapshotIndex::assemble) to derive;
/// it and [`PagedArena::run`] check the rest.
fn read_paged_meta(
    bytes: &[u8],
    dirs: &SkipDirectories,
    coarse: Option<&PagedIndex>,
    num_labels: usize,
) -> Result<PagedIndex, StoreError> {
    let (fixed, codec) = bytes
        .split_at_checked(20)
        .ok_or_else(|| format_err("paged component meta truncated"))?;
    let word =
        |at: usize| u32::from_le_bytes([fixed[at], fixed[at + 1], fixed[at + 2], fixed[at + 3]]);
    let n = word(0) as usize;
    if n == 0 {
        return Err(format_err("paged component has no nodes"));
    }
    let lemma2 = word(4) != 0;
    let epoch = le_u64(&fixed[8..16]);
    let root = IdxId(word(16));
    let bad = |e: CodecError| format_err(e.to_string());
    let mut r = RowReader::new(codec);
    let labels = r.words(n, num_labels as u64, LabelId).map_err(bad)?;
    let k = r.words(n, 1 << 32, |v| v).map_err(bad)?;
    let genuine = r.words(n, 1 << 32, |v| v).map_err(bad)?;
    let (child_off, child_tgt) = r.rows(n, n as u32, RowOrder::Ascending).map_err(bad)?;
    let links = match coarse {
        Some(c) => {
            let (off, tgt) = r
                .rows(c.node_count(), n as u32, RowOrder::Stored)
                .map_err(bad)?;
            SubnodeLinks { off, tgt }
        }
        None => SubnodeLinks::default(),
    };
    links
        .check(coarse.map(PagedIndex::node_count), n, true)
        .map_err(format_err)?;
    let sole = links.sole_supernodes(n);
    let own = sole.iter().filter(|s| s.is_none()).count();
    let extent_len = r.words(own, 1 << 32, |v| v).map_err(bad)?;
    r.finish().map_err(bad)?;
    let mut stored = extent_len.into_iter();
    let lists: Vec<RunList> = sole
        .into_iter()
        .map(|s| match (s, coarse) {
            (Some(u), Some(c)) => RunList::Shared(c.extents.span(u.index())),
            _ => RunList::Own(stored.next().unwrap_or(0)),
        })
        .collect();
    let first_block = coarse.map_or(0, |c| c.extents.run_end());
    Ok(PagedIndex {
        labels,
        k,
        genuine,
        extents: PagedArena::run(dirs, first_block, &lists)?,
        child_off,
        child_tgt,
        // Not stored: `assemble` derives them from the child rows.
        parent_off: Vec::new(),
        parent_tgt: Vec::new(),
        root,
        links,
        by_label_off: Vec::new(),
        by_label_ids: Vec::new(),
        nests: false,
        lemma2,
        epoch,
    })
}

/// Where the bytes of a paged file go, section by section. The parts of
/// a file the writer produced sum to its length ([`PagedSections::total`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedSections {
    /// The fixed header: prelude and paged extension.
    pub header: u64,
    /// The eager graph core section.
    pub graph_core: u64,
    /// The two graph unit sections, frames included.
    pub graph_units: u64,
    /// The meta directory and every component's meta section.
    pub metas: u64,
    /// The paged region: extent payload and skip directories.
    pub region: u64,
    /// The page checksum table section.
    pub page_table: u64,
}

impl PagedSections {
    /// The sum of the parts.
    pub fn total(&self) -> u64 {
        self.header
            + self.graph_core
            + self.graph_units
            + self.metas
            + self.region
            + self.page_table
    }
}

/// An open paged (v9) snapshot: eager graph core, lazily-materialized
/// graph units, lazy component meta prefix, and extents served through a
/// budgeted [`PageCache`].
///
/// Like [`crate::CompressedFile`], a top-down query of length `j` activates
/// only components `I0..Ij`; unlike it, activation reads just the meta
/// section (kilobytes) — the extent payload stays on disk until walks
/// fault its pages in. There is **no degradation path**: see the module
/// docs for why corruption is a typed error here.
pub struct PagedFile {
    reader: Box<dyn ReadSeek>,
    graph: LazyGraph,
    sections: PagedSections,
    /// Absolute offsets of the per-component meta sections.
    offsets: Vec<u64>,
    /// Always a prefix `I0..I(len-1)` of the file's components, stamped
    /// with the full hierarchy's mutation epoch from the header — reported
    /// even when only a prefix is active, and cross-checked once all
    /// components have loaded.
    star: PagedMStar,
    cache: Arc<PageCache>,
    /// The region-wide skip directories every component runs over.
    dirs: SkipDirectories,
    paged_off: u64,
    bytes_read: u64,
    epoch_checked: bool,
}

impl PagedFile {
    /// Opens a paged snapshot with the default cache budget.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(path, DEFAULT_CACHE_BYTES)
    }

    /// Opens a paged snapshot with an explicit cache byte budget.
    pub fn open_with(path: impl AsRef<Path>, cache_bytes: u64) -> Result<Self, StoreError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let source = FileSource::new(file.try_clone()?)?;
        Self::open_impl(
            Box::new(BufReader::new(file)),
            Box::new(source),
            file_len,
            cache_bytes,
        )
    }

    /// Opens a paged snapshot from an in-memory image — the entry point for
    /// tests and fault injection (no temp files per corruption seed).
    pub fn open_bytes(image: Vec<u8>, cache_bytes: u64) -> Result<Self, StoreError> {
        let file_len = image.len() as u64;
        let source = BytesSource(image.clone());
        Self::open_impl(
            Box::new(Cursor::new(image)),
            Box::new(source),
            file_len,
            cache_bytes,
        )
    }

    fn open_impl(
        mut reader: Box<dyn ReadSeek>,
        source: Box<dyn PageSource>,
        file_len: u64,
        cache_bytes: u64,
    ) -> Result<Self, StoreError> {
        let (ncomp, _) = read_prelude(&mut reader, Some(file_len), VERSION_PAGED)?;
        let mut ext = [0u8; 56];
        reader.read_exact(&mut ext)?;
        let paged_off = le_u64(&ext[0..8]);
        let paged_len = le_u64(&ext[8..16]);
        let pagetab_off = le_u64(&ext[16..24]);
        let page_size = u32::from_le_bytes([ext[24], ext[25], ext[26], ext[27]]);
        let npages = u32::from_le_bytes([ext[28], ext[29], ext[30], ext[31]]);
        let star_epoch = le_u64(&ext[32..40]);
        let data_len = le_u64(&ext[40..48]);
        if fnv64(&ext[..48]) != le_u64(&ext[48..56]) {
            return Err(StoreError::Checksum {
                section: "paged header".into(),
            });
        }
        // The region is the extent payload, then both directories:
        // `paged_len = data_len + 4 * nblocks + 4 * (nblocks + 1)`.
        let nblocks = paged_len
            .checked_sub(data_len)
            .and_then(|d| d.checked_sub(4))
            .filter(|d| d % 8 == 0)
            .and_then(|d| u32::try_from(d / 8).ok())
            .ok_or_else(|| {
                format_err(format!(
                    "paged region of {paged_len} bytes cannot hold a {data_len}-byte payload \
                     and its directories"
                ))
            })?;
        let layout = ArenaLayout {
            data_off: 0,
            data_len,
            block_first_off: data_len,
            block_off_off: data_len + 4 * u64::from(nblocks),
            nblocks,
        };
        let region_end = paged_off
            .checked_add(paged_len)
            .ok_or_else(|| format_err("paged region overflows"))?;
        if paged_off < HEADER_LEN_PAGED
            || region_end > file_len
            || pagetab_off < region_end
            || pagetab_off.checked_add(16).is_none_or(|end| end > file_len)
        {
            return Err(format_err(format!(
                "paged layout [{paged_off}, {region_end}) + table at {pagetab_off} \
                 outside the file ({file_len} bytes)"
            )));
        }
        let (core, glen) = read_section_bounded(
            &mut reader,
            "graph core",
            Some(paged_off - HEADER_LEN_PAGED),
            read_graph_core,
        )?;
        // Unit sections sit back to back after the core, which records
        // their lengths, so only offsets need computing.
        let mut unit_off = [0u64; GRAPH_UNITS];
        let mut at = HEADER_LEN_PAGED + glen;
        for (slot, len) in unit_off.iter_mut().zip(core.unit_len) {
            *slot = at;
            at = at.saturating_add(16).saturating_add(len);
        }
        let graph_units = at - unit_off[0];
        if at.saturating_add(8 * ncomp as u64) > paged_off {
            return Err(format_err(format!(
                "graph units [{}, {at}) leave no room for the directory",
                unit_off[0]
            )));
        }
        reader.seek(SeekFrom::Start(at))?;
        let mut dirbuf = vec![0u8; 8 * ncomp];
        reader.read_exact(&mut dirbuf)?;
        let mut offsets = Vec::with_capacity(ncomp);
        let mut prev = 0u64;
        for c in dirbuf.chunks_exact(8) {
            let o = le_u64(c);
            // 8(len) + 8(digest) is the smallest possible section, and meta
            // sections all live before the paged region.
            if o <= prev || o.checked_add(16).is_none_or(|end| end > paged_off) {
                return Err(format_err(format!(
                    "component directory offset {o} outside the meta area"
                )));
            }
            prev = o;
            offsets.push(o);
        }
        reader.seek(SeekFrom::Start(pagetab_off))?;
        let (sums, tlen) = read_section_bounded(
            &mut reader,
            "page table",
            Some(file_len - pagetab_off),
            |r| {
                if r.remaining() != u64::from(npages) * 8 {
                    return Err(format_err(format!(
                        "page table carries {} bytes for {npages} pages",
                        r.remaining()
                    )));
                }
                let mut v = Vec::with_capacity(npages as usize);
                for _ in 0..npages {
                    v.push(r.read_u64()?);
                }
                Ok(v)
            },
        )?;
        let cache = PageCache::new(source, paged_off, paged_len, page_size, sums, cache_bytes)?;
        let graph = LazyGraph::new(core, unit_off, cache.clone());
        let dirs = SkipDirectories::read(cache.clone(), layout, graph.node_count() as u32)?;
        let bytes_read = HEADER_LEN_PAGED + glen + 8 * ncomp as u64 + tlen;
        let sections = PagedSections {
            header: HEADER_LEN_PAGED,
            graph_core: glen,
            graph_units,
            metas: paged_off - at,
            region: paged_len,
            page_table: tlen,
        };
        Ok(PagedFile {
            reader,
            graph,
            sections,
            offsets,
            star: PagedMStar {
                components: Vec::new(),
                epoch: star_epoch,
            },
            cache,
            dirs,
            paged_off,
            bytes_read,
            epoch_checked: false,
        })
    }

    /// The embedded data graph: counts, root, and label names are eager;
    /// the label/CSR arrays materialize on first touch (see [`LazyGraph`]).
    pub fn graph(&self) -> &LazyGraph {
        &self.graph
    }

    /// Bytes per section of the file.
    pub fn sections(&self) -> PagedSections {
        self.sections
    }

    /// Total number of components in the file.
    pub fn component_count(&self) -> usize {
        self.offsets.len()
    }

    /// Indices of the components currently activated (always a prefix).
    pub fn loaded_components(&self) -> Vec<usize> {
        (0..self.star.components.len()).collect()
    }

    /// Bytes read *eagerly* so far: header, graph, directory, page table,
    /// and activated meta sections. Paged-region traffic is accounted
    /// separately in [`PagedFile::page_stats`].
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// The full hierarchy's mutation epoch (from the header; valid even
    /// when only a prefix is active).
    pub fn mutation_epoch(&self) -> u64 {
        self.star.epoch
    }

    /// Page size of the paged region.
    pub fn page_size(&self) -> u32 {
        self.cache.page_size()
    }

    /// Bytes in the paged region (on disk; residency is bounded by the
    /// cache budget, not this).
    pub fn paged_bytes(&self) -> u64 {
        self.cache.region_len()
    }

    /// Cache counters: faults, hits, evictions, checksum failures, and
    /// the resident footprint.
    pub fn page_stats(&self) -> PageStats {
        self.cache.stats()
    }

    /// Verifies every page of the paged region against the page table in
    /// one sequential pass (bypassing the cache), then digest-checks the
    /// two graph unit sections — the offline integrity check; serving
    /// verifies lazily per faulted page / per touched unit.
    pub fn verify(&self) -> Result<(), StoreError> {
        self.cache.verify_all()?;
        self.graph.verify_units()
    }

    /// Ensures components `I0..=Iupto` are activated. Unlike the v5
    /// reader there is no rebuild fallback — an unreadable meta section
    /// or invalid paged directory is a typed error.
    pub fn ensure_loaded(&mut self, upto: usize) -> Result<(), StoreError> {
        let upto = upto.min(self.offsets.len().saturating_sub(1));
        for i in self.star.components.len()..=upto {
            let c = self.read_component(i)?;
            self.star.components.push(c);
        }
        let components = &self.star.components;
        if !self.epoch_checked && components.len() == self.offsets.len() {
            let derived = components.iter().map(|c| c.mutation_epoch()).sum::<u64>()
                + components.len() as u64;
            if derived != self.star.epoch {
                return Err(format_err(format!(
                    "component epochs sum to {derived}, header claims {}",
                    self.star.epoch
                )));
            }
            let end = components.last().map_or(0, |c| c.extents.run_end());
            if end != self.dirs.nblocks() {
                return Err(format_err(format!(
                    "components read {end} of the region's {} extent blocks",
                    self.dirs.nblocks()
                )));
            }
            self.epoch_checked = true;
        }
        Ok(())
    }

    /// Reads and activates component `Ii`: decode its meta section, check
    /// its run of the skip directories, and validate the resident arrays,
    /// the links to `I(i−1)` included.
    fn read_component(&mut self, i: usize) -> Result<PagedIndex, StoreError> {
        self.reader.seek(SeekFrom::Start(self.offsets[i]))?;
        let budget = self.paged_off.saturating_sub(self.offsets[i]);
        let num_labels = self.graph.num_labels();
        let coarse = self.star.components.last();
        let (c, len) = read_section_bounded(
            &mut self.reader,
            &format!("component {i}"),
            Some(budget),
            |r| read_paged_meta(r.take_rest(), &self.dirs, coarse, num_labels),
        )?;
        self.bytes_read += len;
        c.assemble(
            self.graph.node_count(),
            self.graph.num_labels(),
            coarse,
            true,
        )
        .map_err(|e| format_err(format!("component {i}: {e}")))
    }

    /// Activates the prefix `I0..I(length)` that `path` needs and returns
    /// the graph and the activated hierarchy, for
    /// [`mrx_index::QuerySession::serve`] to serve. The session checks
    /// the hierarchy's fault probe after evaluating, so a page that fails
    /// its checksum mid-query surfaces as the typed error, not an answer.
    pub fn activate(&mut self, path: &PathExpr) -> Result<(&LazyGraph, &PagedMStar), StoreError> {
        self.ensure_loaded(path.steps().len().saturating_sub(1))?;
        Ok((&self.graph, &self.star))
    }

    /// Activates everything and hands out the parts for shared serving —
    /// the daemon's one view of a snapshot, replay loops — without the
    /// file wrapper. The parts are `Send + Sync` and read through the one
    /// returned cache (handed out for its page stats).
    #[allow(clippy::type_complexity)]
    pub fn into_parts(mut self) -> Result<(LazyGraph, PagedMStar, Arc<PageCache>), StoreError> {
        self.ensure_loaded(self.offsets.len().saturating_sub(1))?;
        if let Some(e) = self.cache.take_poison() {
            return Err(e);
        }
        Ok((self.graph, self.star, self.cache))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrx_error::MrxError;
    use mrx_graph::DataGraph;
    use mrx_index::{replay, Answer, MStarIndex, QuerySession, TrustPolicy};
    use mrx_path::eval_data;

    /// Serves `q` from `f` through a fresh session over the prefix `q`
    /// needs.
    fn serve(f: &mut PagedFile, q: &PathExpr, policy: TrustPolicy) -> Result<Answer, MrxError> {
        let (graph, star) = f.activate(q)?;
        QuerySession::new(policy).serve(star, graph, q).cloned()
    }

    /// The in-memory snapshot's top-down answer: the reference every paged
    /// answer must equal.
    fn want(cz: &CompressedMStar, fg: &FrozenGraph, q: &PathExpr, policy: TrustPolicy) -> Answer {
        QuerySession::new(policy).serve(cz, fg, q).unwrap().clone()
    }

    fn setup() -> (DataGraph, MStarIndex) {
        let g = mrx_datagen::nasa_like(2_000, 4);
        let mut idx = MStarIndex::new(&g);
        for expr in [
            "//dataset/reference/source",
            "//reference/source/journal/author/lastname",
            "//dataset/history/ingest",
        ] {
            idx.refine_for(&g, &PathExpr::parse(expr).unwrap());
        }
        (g, idx)
    }

    const EXPRS: [&str; 6] = [
        "//lastname",
        "//source/journal",
        "//reference/source/journal/author/lastname",
        "//dataset/history/ingest",
        "//author",
        "/dataset/title",
    ];

    fn image(page_size: u32) -> (DataGraph, CompressedMStar, FrozenGraph, Vec<u8>) {
        let (g, idx) = setup();
        let fg = FrozenGraph::freeze(&g);
        let cz = idx.freeze_compressed();
        let img = paged_image(&fg, &cz, page_size).unwrap();
        (g, cz, fg, img)
    }

    #[test]
    fn paged_answers_match_compressed_under_tiny_pages_and_budget() {
        let (g, cz, fg, img) = image(64);
        // Budget of four tiny pages: every query runs under heavy eviction.
        let mut f = PagedFile::open_bytes(img, 4 * 64).unwrap();
        assert_eq!(f.component_count(), cz.components.len());
        assert!(f.loaded_components().is_empty());
        for expr in EXPRS {
            let q = PathExpr::parse(expr).unwrap();
            for policy in [TrustPolicy::Proven, TrustPolicy::Claimed] {
                let want = want(&cz, &fg, &q, policy);
                let got = serve(&mut f, &q, policy).unwrap();
                assert_eq!(got.nodes, want.nodes, "{expr}");
                assert_eq!(got.cost, want.cost, "{expr}");
                assert_eq!(got.validated, want.validated, "{expr}");
            }
            assert_eq!(
                serve(&mut f, &q, TrustPolicy::Proven).unwrap().nodes,
                eval_data(&g, &q.compile(&g)),
                "{expr}"
            );
        }
        let s = f.page_stats();
        assert!(s.evictions > 0, "tiny budget must evict: {s:?}");
        assert!(s.resident_bytes <= 4 * 64, "budget overrun: {s:?}");
    }

    #[test]
    fn activation_is_a_prefix_and_reads_stay_small() {
        let (_g, _cz, _fg, img) = image(256);
        let total = img.len() as u64;
        let mut f = PagedFile::open_bytes(img, DEFAULT_CACHE_BYTES).unwrap();
        let after_open = f.bytes_read();
        assert!(after_open < total, "open must not read the whole file");
        let q = PathExpr::parse("//lastname").unwrap();
        serve(&mut f, &q, TrustPolicy::Proven).unwrap();
        assert_eq!(f.loaded_components(), vec![0]);
        let q = PathExpr::parse("//dataset/reference/source").unwrap();
        serve(&mut f, &q, TrustPolicy::Proven).unwrap();
        assert_eq!(f.loaded_components(), vec![0, 1, 2]);
        // Eager reads cover metas but never the paged region, which is
        // accounted through the cache instead.
        assert!(f.bytes_read() < total - f.paged_bytes() + 1);
        assert!(f.page_stats().faults > 0);
    }

    #[test]
    fn file_roundtrip_and_epoch_cross_check() {
        let dir = std::env::temp_dir().join(format!(
            "mrx-paged-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (g, idx) = setup();
        let fg = FrozenGraph::freeze(&g);
        let cz = idx.freeze_compressed();
        let path = dir.join("nasa-paged.mrx");
        save_paged_with(&path, &fg, &cz, 256).unwrap();
        assert_eq!(crate::snapshot_version(&path).unwrap(), VERSION_PAGED);

        let mut f = PagedFile::open_with(&path, 64 * 1024).unwrap();
        assert_eq!(f.mutation_epoch(), idx.mutation_epoch());
        f.verify().unwrap();
        // Load everything: the epoch cross-check runs and must pass.
        f.ensure_loaded(usize::MAX).unwrap();
        for expr in EXPRS {
            let q = PathExpr::parse(expr).unwrap();
            let want = want(&cz, &fg, &q, TrustPolicy::Proven);
            let got = serve(&mut f, &q, TrustPolicy::Proven).unwrap();
            assert_eq!(got.nodes, want.nodes, "{expr}");
            assert_eq!(got.cost, want.cost, "{expr}");
        }
        let (lg, star, _cache) = f.into_parts().unwrap();
        assert_eq!(lg.to_frozen().unwrap(), fg);
        assert_eq!(star.mutation_epoch(), idx.mutation_epoch());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn region_corruption_is_a_typed_page_checksum_error() {
        let (_g, _cz, _fg, img) = image(64);
        let paged_off = le_u64(&img[16..24]) as usize;
        let paged_len = le_u64(&img[24..32]) as usize;
        // A single flipped bit is caught by the offline sweep...
        let mut one = img.clone();
        one[paged_off] ^= 0x40;
        let f = PagedFile::open_bytes(one, DEFAULT_CACHE_BYTES).unwrap();
        match f.verify() {
            Err(StoreError::Checksum { section }) => {
                assert!(section.starts_with("page "), "{section}")
            }
            other => panic!("expected page checksum error, got {other:?}"),
        }
        // ...and a query that faults any damaged page gets the typed error
        // instead of an answer (flip one bit per payload page, short of the
        // directories the open reads, so every fault hits).
        let data_len = le_u64(&img[56..64]) as usize;
        let mut bad = img.clone();
        for p in (0..data_len / 64 * 64).step_by(64) {
            bad[paged_off + p] ^= 0x40;
        }
        let mut f = PagedFile::open_bytes(bad, DEFAULT_CACHE_BYTES).unwrap();
        let q = PathExpr::parse("//author").unwrap();
        match serve(&mut f, &q, TrustPolicy::Proven) {
            Err(MrxError::Store(StoreError::Checksum { section })) => {
                assert!(section.starts_with("page "), "{section}")
            }
            other => panic!("corrupt page served: {other:?}"),
        }
        // A flip in either skip directory is refused when the file opens.
        for at in [data_len, paged_len - 1] {
            let mut dir = img.clone();
            dir[paged_off + at] ^= 0x40;
            match PagedFile::open_bytes(dir, DEFAULT_CACHE_BYTES).err() {
                Some(StoreError::Checksum { section }) => {
                    assert!(section.starts_with("page "), "{section}")
                }
                other => panic!("directory flip at region byte {at}: {other:?}"),
            }
        }
        // The clean image still verifies end to end.
        PagedFile::open_bytes(img, DEFAULT_CACHE_BYTES)
            .unwrap()
            .verify()
            .unwrap();
    }

    /// `img` with one bit flipped in the labels graph unit, whose payload
    /// starts 8 bytes into the first unit frame, which follows the graph
    /// core section after the header.
    fn labels_unit_flipped(img: &[u8]) -> Vec<u8> {
        let h = HEADER_LEN_PAGED as usize;
        let gcore_len = le_u64(&img[h..h + 8]) as usize;
        let unit0 = h + 16 + gcore_len;
        let mut bad = img.to_vec();
        bad[unit0 + 8] ^= 0x04;
        bad
    }

    #[test]
    fn graph_unit_corruption_poisons_instead_of_answering() {
        let (_g, _cz, _fg, img) = image(64);
        let bad = labels_unit_flipped(&img);
        // The offline sweep names the damaged unit...
        let f = PagedFile::open_bytes(bad.clone(), DEFAULT_CACHE_BYTES).unwrap();
        match f.verify() {
            Err(StoreError::Checksum { section }) => assert_eq!(section, "graph labels"),
            other => panic!("expected graph unit checksum error, got {other:?}"),
        }
        // ...and a query that touches the unit gets the typed error
        // instead of an answer. The query must actually need backward
        // validation: an anchored path with a short-k component forces
        // `check_backward` onto the lazy labels array.
        let mut f = PagedFile::open_bytes(bad, DEFAULT_CACHE_BYTES).unwrap();
        let q = PathExpr::parse("/dataset/title").unwrap();
        match serve(&mut f, &q, TrustPolicy::Proven) {
            Err(MrxError::Store(StoreError::Checksum { section })) => {
                assert_eq!(section, "graph labels")
            }
            other => panic!("corrupt graph unit served: {other:?}"),
        }
        // The clean image's lazy graph round-trips to the eager one.
        let f = PagedFile::open_bytes(img, DEFAULT_CACHE_BYTES).unwrap();
        f.verify().unwrap();
        assert_eq!(f.graph().to_frozen().unwrap(), _fg);
    }

    /// A graph unit that fails to load is never stored: the next query
    /// over the same file loads it again and faults again, instead of
    /// answering over an empty fallback.
    #[test]
    fn corrupt_graph_unit_faults_every_query_not_just_the_first() {
        let (_g, _cz, _fg, img) = image(64);
        let mut f = PagedFile::open_bytes(labels_unit_flipped(&img), DEFAULT_CACHE_BYTES).unwrap();
        let q = PathExpr::parse("/dataset/title").unwrap();
        for round in ["first", "second"] {
            match serve(&mut f, &q, TrustPolicy::Proven) {
                Err(MrxError::Store(StoreError::Checksum { section })) => {
                    assert_eq!(section, "graph labels")
                }
                other => panic!("{round} query over a corrupt graph unit: {other:?}"),
            }
        }
    }

    /// Compile-time guard: the paged serving parts can be shared across
    /// threads, which is what lets a daemon serve every worker from one
    /// validated view under one cache budget.
    #[test]
    fn paged_serving_parts_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PageCache>();
        assert_send_sync::<LazyGraph>();
        assert_send_sync::<PagedMStar>();
    }

    /// Two threads share one view of an image with one corrupt region
    /// page, under a four-page budget. Each round forces the interleaving
    /// a cache-wide poison slot gets wrong: thread A faults the page with a
    /// direct read and holds its fault while thread B serves clean queries,
    /// then both serve at once. B's answers must match the oracle, and A's
    /// fault must still be A's to take — else A's query would answer over
    /// sentinels.
    #[test]
    fn threads_sharing_a_view_see_only_their_own_faults() {
        let (g, _cz, _fg, img) = image(64);
        let paged_off = le_u64(&img[16..24]) as usize;
        let paged_len = le_u64(&img[24..32]) as usize;
        let queries: Vec<PathExpr> = EXPRS.iter().map(|e| PathExpr::parse(e).unwrap()).collect();
        let open = |at: usize| {
            let mut bad = img.clone();
            bad[paged_off + at] ^= 0x10;
            PagedFile::open_bytes(bad, 4 * 64).and_then(PagedFile::into_parts)
        };
        // Pick the first flip that faults some query and spares another.
        let (at, hit, clean) = (0..paged_len)
            .step_by(64)
            .find_map(|at| {
                let (graph, star, _cache) = open(at).ok()?;
                let (hit, clean): (Vec<&PathExpr>, Vec<&PathExpr>) =
                    queries.iter().partition(|q| {
                        let mut session = QuerySession::new(TrustPolicy::Proven);
                        matches!(session.serve(&star, &graph, q), Err(MrxError::Store(_)))
                    });
                (!hit.is_empty() && !clean.is_empty()).then_some((at, hit, clean))
            })
            .expect("some page flip must fault one query and spare another");
        let (graph, star, cache) = open(at).unwrap();
        // Each thread records its wrong results instead of panicking, so a
        // failure cannot strand the other thread at the barrier.
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| {
                let (mut session, mut wrong) = (QuerySession::new(TrustPolicy::Proven), Vec::new());
                for round in 0..200 {
                    if cache.read(at as u64, &mut [0u8; 1]) {
                        wrong.push(format!("round {round}: the flipped page read clean"));
                    }
                    barrier.wait(); // B serves while A holds its fault
                    barrier.wait();
                    if cache.take_poison().is_none() {
                        wrong.push(format!("round {round}: A's fault was taken"));
                    }
                    for q in &hit {
                        let r = session.serve(&star, &graph, q);
                        if !matches!(r, Err(MrxError::Store(_))) {
                            wrong.push(format!("round {round}, {q}: corrupt page served: {r:?}"));
                        }
                    }
                }
                wrong
            });
            let b = s.spawn(|| {
                let mut wrong = Vec::new();
                for round in 0..200 {
                    barrier.wait();
                    for phase in ["A poisoned", "concurrent"] {
                        // A fresh session: every answer is evaluated.
                        let mut session = QuerySession::new(TrustPolicy::Proven);
                        for q in &clean {
                            let want = eval_data(&g, &q.compile(&g));
                            match session.serve(&star, &graph, q) {
                                Ok(a) if a.nodes == want => {}
                                r => wrong.push(format!("round {round}, {phase}, {q}: {r:?}")),
                            }
                        }
                        if phase == "A poisoned" {
                            barrier.wait();
                        }
                    }
                }
                wrong
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(a.is_empty() && b.is_empty(), "A: {a:?}\nB: {b:?}");
        // The corrupt page is never cached: every fault re-read it.
        assert!(
            cache.stats().checksum_failures >= 400,
            "{:?}",
            cache.stats()
        );
    }

    /// Serving a corrupt image never returns or caches an answer evaluated
    /// over a bad page. For every flip, a replay of the workload returns a
    /// typed store error or the clean image's totals, and one session
    /// serving every query in order returns each query's exact answer or a
    /// typed store error, with the fault taken. A repeat of a faulted query
    /// faults again instead of hitting the cache.
    #[test]
    fn session_never_caches_an_answer_evaluated_over_a_bad_page() {
        let (_g, cz, fg, img) = image(64);
        let paged_off = le_u64(&img[16..24]) as usize;
        let paged_len = le_u64(&img[24..32]) as usize;
        // The open reads the skip directories, so a flip in any 64-byte
        // page they touch fails there, before anything can serve.
        let dirs_from = le_u64(&img[56..64]) as usize / 64 * 64;
        let queries: Vec<PathExpr> = EXPRS.iter().map(|e| PathExpr::parse(e).unwrap()).collect();
        let clean = replay(&cz, &fg, &queries, TrustPolicy::Proven, 1)
            .unwrap()
            .total;
        let mut faulted = 0;
        for at in (0..paged_len).step_by(61) {
            let mut bad = img.clone();
            bad[paged_off + at] ^= 0x10;
            let opened = PagedFile::open_bytes(bad, DEFAULT_CACHE_BYTES);
            if at >= dirs_from {
                assert!(opened.is_err(), "flip at region byte {at} passed the open");
                continue;
            }
            let (graph, star, cache) = opened.and_then(PagedFile::into_parts).unwrap();
            match replay(&star, &graph, &queries, TrustPolicy::Proven, 2) {
                Ok(r) => assert_eq!(r.total, clean, "flip at region byte {at}: replay"),
                Err(MrxError::Store(_)) => {}
                Err(e) => panic!("flip at region byte {at}: replay returned {e:?}"),
            }
            let mut session = QuerySession::new(TrustPolicy::Proven);
            for q in &queries {
                let ctx = format!("flip at region byte {at}, {q}");
                let misses = session.stats().misses;
                match session.serve(&star, &graph, q) {
                    Ok(got) => {
                        let want = want(&cz, &fg, q, TrustPolicy::Proven);
                        assert_eq!(got.nodes, want.nodes, "{ctx}");
                        assert_eq!(got.cost, want.cost, "{ctx}");
                        continue;
                    }
                    Err(MrxError::Store(_)) => {}
                    Err(e) => panic!("{ctx}: serving returned {e:?}"),
                }
                faulted += 1;
                assert!(!cache.poisoned(), "{ctx}: serve must take the fault");
                match session.serve(&star, &graph, q) {
                    Err(MrxError::Store(_)) => {}
                    other => panic!("{ctx}: repeat serving returned {other:?}"),
                }
                assert_eq!(session.stats().misses, misses + 2, "{ctx}: cached");
            }
        }
        assert!(faulted > 0, "the sweep never faulted a query");
    }

    #[test]
    fn meta_corruption_is_a_typed_error_not_degradation() {
        let (_g, _cz, _fg, img) = image(64);
        // First meta section offset is the first directory entry; the
        // directory follows the graph core section and the four unit
        // frames, each of which leads with a u64 payload length.
        let mut dir_at = HEADER_LEN_PAGED as usize;
        for _ in 0..(1 + GRAPH_UNITS) {
            let len = le_u64(&img[dir_at..dir_at + 8]) as usize;
            dir_at += 16 + len;
        }
        let meta0 = le_u64(&img[dir_at..dir_at + 8]) as usize;
        let mut bad = img;
        bad[meta0 + 12] ^= 0x01; // inside the payload, past the length word
        let mut f = PagedFile::open_bytes(bad, DEFAULT_CACHE_BYTES).unwrap();
        let q = PathExpr::parse("//lastname").unwrap();
        match serve(&mut f, &q, TrustPolicy::Proven) {
            Err(MrxError::Store(StoreError::Checksum { section })) => {
                assert!(section.contains("component 0"))
            }
            other => panic!("expected component checksum error, got {other:?}"),
        }
    }

    /// A link id out of range behind a valid checksum is refused when its
    /// component activates: typed, and before anything serves through it.
    #[test]
    fn hostile_link_id_is_refused_at_activation() {
        use crate::fault::{paged_links, paged_payload, reseal_paged, PagedPart};
        let (_g, cz, _fg, img) = image(64);
        let (n, m) = (cz.components[1].node_count(), cz.components[0].node_count());
        let at = paged_links(&img, 1).unwrap();
        let mut r = RowReader::new(&img[at.clone()]);
        let (off, mut tgt) = r.rows::<u32>(m, u32::MAX, RowOrder::Stored).unwrap();
        assert!(!tgt.is_empty(), "component 1 has links");
        tgt[0] = n as u32;
        let mut links = Vec::new();
        put_rows(&mut links, &off, &tgt, RowOrder::Stored).unwrap();
        let meta = paged_payload(&img, PagedPart::Meta(1)).unwrap();
        let payload = [&img[meta.start..at.start], &links, &img[at.end..meta.end]].concat();
        let img = reseal_paged(&img, PagedPart::Meta(1), &payload).unwrap();

        let mut f = PagedFile::open_bytes(img, DEFAULT_CACHE_BYTES).unwrap();
        f.ensure_loaded(0).unwrap();
        match f.ensure_loaded(1) {
            Err(StoreError::Format(m)) => assert!(m.contains("out of range"), "{m}"),
            other => panic!("expected a format error, got {other:?}"),
        }
        assert_eq!(f.loaded_components(), vec![0]);
        let q = PathExpr::parse("//dataset/reference").unwrap();
        assert!(matches!(
            serve(&mut f, &q, TrustPolicy::Proven),
            Err(MrxError::Store(StoreError::Format(_)))
        ));
    }

    /// Resealing a part with its own payload reproduces the image, and a
    /// resealed meta that grows still opens and serves: the directory and
    /// region offsets move with it.
    #[test]
    fn resealed_parts_keep_the_image_consistent() {
        use crate::fault::{paged_payload, reseal_paged, PagedPart};
        let (g, _cz, _fg, img) = image(64);
        for part in [
            PagedPart::GraphUnit(0),
            PagedPart::GraphUnit(1),
            PagedPart::Meta(1),
        ] {
            let at = paged_payload(&img, part).unwrap();
            assert_eq!(reseal_paged(&img, part, &img[at]).unwrap(), img, "{part:?}");
        }
        // An overlong but valid varint (0 as two bytes) in I0's first
        // label grows the meta by one byte.
        let meta = paged_payload(&img, PagedPart::Meta(0)).unwrap();
        let first = img[meta.start + 20];
        assert!(first < 0x80);
        let payload = [
            &img[meta.start..meta.start + 20],
            &[first | 0x80, 0][..],
            &img[meta.start + 21..meta.end],
        ]
        .concat();
        let grown = reseal_paged(&img, PagedPart::Meta(0), &payload).unwrap();
        assert_eq!(grown.len(), img.len() + 1);
        let mut f = PagedFile::open_bytes(grown, DEFAULT_CACHE_BYTES).unwrap();
        f.verify().unwrap();
        let q = PathExpr::parse("//source/journal").unwrap();
        let got = serve(&mut f, &q, TrustPolicy::Proven).unwrap();
        assert_eq!(got.nodes, eval_data(&g, &q.compile(&g)));
    }

    /// Child and parent rows that each look well formed but are not each
    /// other's transpose: `I0`'s parent rows drop the root, so a backward
    /// check from `people` never reaches it and `/people` would answer
    /// nothing. v5 stores both directions, so its loader refuses the
    /// component (strict) or rebuilds it (lenient); v9 stores the child
    /// rows alone, so the writer refuses to write the hierarchy at all.
    #[test]
    fn parent_rows_that_drop_the_root_are_refused_on_v5_and_unwritable_on_v9() {
        let g = mrx_graph::xml::parse("<site><people><person/></people><regions/></site>").unwrap();
        let q = PathExpr::parse("/people").unwrap();
        assert_eq!(eval_data(&g, &q.compile(&g)), [mrx_graph::NodeId(1)]);
        let fg = FrozenGraph::freeze(&g);
        let mut cz = MStarIndex::new(&g).freeze_compressed();
        let c = &mut cz.components[0];
        let at = c.parent_tgt.iter().position(|&p| p == c.root).unwrap();
        c.parent_tgt.remove(at);
        for o in c.parent_off.iter_mut().filter(|o| **o as usize > at) {
            *o -= 1;
        }
        let transpose = "parent rows are not the transpose of the child rows";

        let mut v5 = Vec::new();
        crate::save_compressed_to(&mut v5, &fg, &cz).unwrap();
        match crate::load_compressed_from(&v5[..]) {
            Err(StoreError::Format(m)) => assert!(m.contains(transpose), "{m}"),
            other => panic!("v5 loaded a hierarchy without its root edge: {other:?}"),
        }
        let path = std::env::temp_dir().join(format!("mrx-people-{}.mrx", std::process::id()));
        std::fs::write(&path, &v5).unwrap();
        assert!(crate::open_validated(&path, true, None).is_err());
        let lenient = crate::open_validated(&path, false, None).unwrap();
        assert_eq!(lenient.degraded, vec![0]);
        if let crate::SnapshotPayload::Compressed(graph, star) = &lenient.payload {
            let got = QuerySession::new(TrustPolicy::Proven)
                .serve(star, graph, &q)
                .unwrap()
                .clone();
            assert_eq!(got.nodes, [mrx_graph::NodeId(1)]);
        }
        std::fs::remove_file(&path).ok();

        match paged_image(&fg, &cz, 64) {
            Err(StoreError::Format(m)) => assert!(m.contains(transpose), "{m}"),
            other => panic!("v9 wrote it: {:?}", other.map(|_| ())),
        }
    }

    /// The writer stores a sole subnode's extent only as its supernode's,
    /// so it refuses a hierarchy whose links call a node sole while its
    /// extent differs, instead of writing a file that serves the wrong
    /// members.
    #[test]
    fn writer_refuses_a_sole_subnode_whose_extent_differs() {
        let (_g, idx) = setup();
        let fg = FrozenGraph::freeze(&_g);
        let mut cz = idx.freeze_compressed();
        let (i, v) = (1..cz.components.len())
            .find_map(|i| {
                let c = &cz.components[i];
                let sole = c.links.sole_supernodes(c.node_count());
                (0..c.node_count())
                    .find(|&v| sole[v].is_some() && c.extents.len_of(v) > 1)
                    .map(|v| (i, v))
            })
            .expect("some sole subnode holds two members");
        let c = &mut cz.components[i];
        let mut lists = mrx_postings::PostingArena::new();
        for u in 0..c.node_count() {
            let mut ext: Vec<u32> = Vec::new();
            c.extents.decode_into(u, &mut ext);
            if u == v {
                ext.pop();
            }
            lists.push_list(&ext);
        }
        c.extents = lists;
        match paged_image(&fg, &cz, 64) {
            Err(StoreError::Format(m)) => {
                assert!(m.contains(&format!("node {v} is the sole subnode")), "{m}")
            }
            other => panic!("expected a format error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn header_and_truncation_are_rejected() {
        let (_g, _cz, _fg, img) = image(64);
        let mut bad = img.clone();
        bad[20] ^= 0x01; // paged_off byte: ext checksum must catch it
        match PagedFile::open_bytes(bad, DEFAULT_CACHE_BYTES).map(|_| ()) {
            Err(StoreError::Checksum { section }) => assert_eq!(section, "paged header"),
            other => panic!("expected header checksum error, got {other:?}"),
        }
        let cut = img[..img.len() - 9].to_vec();
        assert!(PagedFile::open_bytes(cut, DEFAULT_CACHE_BYTES).is_err());
        // A retired layout version is named, not parsed.
        for version in crate::format::RETIRED {
            let mut old = img.clone();
            old[8..12].copy_from_slice(&version.to_le_bytes());
            match PagedFile::open_bytes(old, DEFAULT_CACHE_BYTES).map(|_| ()) {
                Err(StoreError::Retired { version: v }) => assert_eq!(v, version),
                other => panic!("v{version}: expected a retired-layout error, got {other:?}"),
            }
        }
    }

    #[test]
    fn one_page_budget_serves_the_same_answers_twice() {
        let (_g, cz, fg, img) = image(64);
        let mut f = PagedFile::open_bytes(img, 64).unwrap();
        let q = PathExpr::parse("//source/journal").unwrap();
        let want = want(&cz, &fg, &q, TrustPolicy::Proven);
        for _ in 0..2 {
            let a = serve(&mut f, &q, TrustPolicy::Proven).unwrap();
            assert_eq!(a.nodes, want.nodes);
        }
        assert!(f.page_stats().resident_bytes <= 64);
    }

    /// A page-table offset near `u64::MAX` behind a valid header checksum
    /// must be refused as outside the file, not overflow the bounds check.
    #[test]
    fn pagetab_offset_near_u64_max_is_a_format_error() {
        let (_g, _cz, _fg, mut img) = image(64);
        // pagetab_off is header bytes 32..40; the extension checksum over
        // bytes 16..64 sits at 64..72.
        img[32..40].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        let sum = fnv64(&img[16..64]);
        img[64..72].copy_from_slice(&sum.to_le_bytes());
        match PagedFile::open_bytes(img, DEFAULT_CACHE_BYTES).map(|_| ()) {
            Err(StoreError::Format(m)) => assert!(m.contains("outside the file"), "{m}"),
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    /// A meta directory entry near `u64::MAX` must be refused as outside
    /// the meta area, not overflow the bounds check.
    #[test]
    fn meta_directory_offset_near_u64_max_is_a_format_error() {
        let (_g, _cz, _fg, mut img) = image(64);
        let mut dir_at = HEADER_LEN_PAGED as usize;
        for _ in 0..(1 + GRAPH_UNITS) {
            dir_at += 16 + le_u64(&img[dir_at..dir_at + 8]) as usize;
        }
        let ncomp = u32::from_le_bytes(img[12..16].try_into().unwrap()) as usize;
        let last = dir_at + 8 * (ncomp - 1);
        img[last..last + 8].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        match PagedFile::open_bytes(img, DEFAULT_CACHE_BYTES).map(|_| ()) {
            Err(StoreError::Format(m)) => assert!(m.contains("outside the meta area"), "{m}"),
            other => panic!("expected a format error, got {other:?}"),
        }
    }
}

//! The demand-paged (v7) `.mrx` snapshot layout.
//!
//! The compressed v5 layout serves fast but pays its whole cost up front: every component
//! section is read, checksummed, and validated before the first answer.
//! The v7 layout splits a snapshot into a small **eagerly loaded** part
//! and a large **paged region** that is only ever touched through a
//! fixed-page [`PageCache`], so cold start reads a few kilobytes and the
//! resident set is bounded by the cache budget, not the corpus size:
//!
//! ```text
//! paged file   := "MRXSTAR1" u32(version=7) u32(ncomponents) ext
//!                 section(graph-core) gunit* dir section(meta)*
//!                 region section(pagetab)
//! ext          := u64(paged_off) u64(paged_len) u64(pagetab_off)
//!                 u32(page_size) u32(npages) u64(star_epoch)
//!                 u64(fnv64 of the preceding 40 ext bytes)
//! graph-core   := u32(n) u32(root) u32(nedges) u32(npedges)
//!                 arr(name_off) bytes(name_bytes) arr(name_order)
//! gunit        := u64(len) raw-LE-u32s u64(fnv64_words) — four of them:
//!                 labels [n], children [n+1 off | nedges tgt],
//!                 parents [n+1 off | npedges tgt],
//!                 labelext [nlabels+1 off | n tgt]
//! dir          := u64(absolute offset of each meta section)*
//! meta         := u32(n) u32(lemma2) u64(epoch) u32(root)
//!                 arr(labels) arr(k) arr(genuine) arr(extent_len)
//!                 arr(child_off) arr(child_tgt) arr(parent_off) arr(parent_tgt)
//!                 arr(sub_off) arr(sub_tgt)
//!                 u64(data_off) u64(data_len) u64(bf_off) u64(bo_off)
//!                 u32(nblocks)
//! region       := per component: extent varint payload,
//!                 [u32; nblocks] block_first, [u32; nblocks+1] block_off
//!                                                  (offsets region-relative)
//! pagetab      := u64(fnv64_words of each page_size-byte page)*
//! section(p)   := u64(len(p)) p u64(fnv64(p))
//! ```
//!
//! `root` is the component's node holding the data root, and
//! `sub_off`/`sub_tgt` are its subnode links (one row per node of the
//! previous component, empty for `I0`; see [`mrx_index::SubnodeLinks`]).
//!
//! **What loads eagerly** (at [`PagedFile::open`]): the 64-byte header,
//! the graph core (counts, root, label names — all query compilation
//! needs), the meta directory, and the page table — a few kilobytes
//! regardless of corpus size. **What loads on first touch**: the four
//! graph unit sections, each one bulk read digest-checked with the
//! word-folded FNV-64 and structurally validated as it materializes into
//! [`LazyGraph`] (a top-down Proven query touches only `labels` and
//! `parents`; see `lazy_graph`), and the per-component meta sections (a
//! prefix `I0..Ij` exactly like [`crate::CompressedFile`]), whose links
//! are validated to form a tree at activation. **What never loads
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
//! and the one serving path, [`mrx_index::QuerySession::try_serve`] (over
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
use mrx_index::{
    CompressedMStar, IdxId, IndexView, PagedIndex, PagedMStar, Servable, SubnodeLinks,
};
use mrx_pagecache::{
    fnv64, fnv64_words, page_checksums, ArenaLayout, BytesSource, FileSource, PageCache,
    PageSource, PageStats, PagedArena, DEFAULT_CACHE_BYTES, DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE,
    MIN_PAGE_SIZE,
};
use mrx_path::PathExpr;

use crate::compressed::{read_arr, read_prelude, write_arr};
use crate::format::{
    format_err, read_section_bounded, to_payload, write_section, StoreError, STAR_MAGIC,
    VERSION_PAGED,
};
use crate::lazy_graph::{
    graph_unit_payloads, read_graph_core, write_graph_core, LazyGraph, GRAPH_UNITS,
};
use crate::wire::{le_u64, HashingReader};

/// Fixed byte length of the paged header: the 16-byte shared
/// prelude plus the 48-byte paged extension.
const HEADER_LEN_PAGED: u64 = 64;

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Serializes a paged (v7) snapshot into an in-memory image. Exposed so
/// tests can corrupt or open images without a file; [`save_paged`] is the
/// file-writing entry point.
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
    let ncomp = idx.components.len();
    let gcore_payload = to_payload(|w| write_graph_core(w, g))?;
    let gunits = graph_unit_payloads(g);

    // The paged region and, per component, a meta payload carrying the
    // resident arrays plus region-relative offsets of the paged ones.
    let mut region: Vec<u8> = Vec::new();
    let mut metas: Vec<Vec<u8>> = Vec::with_capacity(ncomp);
    for c in &idx.components {
        let (data, bf, bo, ll) = c.extents.parts();
        let data_off = region.len() as u64;
        region.extend_from_slice(data);
        let bf_off = region.len() as u64;
        for &v in bf {
            region.extend_from_slice(&v.to_le_bytes());
        }
        let bo_off = region.len() as u64;
        for &v in bo {
            region.extend_from_slice(&v.to_le_bytes());
        }
        let nblocks = u32::try_from(bf.len())
            .map_err(|_| format_err("extent arena exceeds u32 block count"))?;
        let meta = to_payload(|w| {
            w.write_u32(c.labels.len() as u32)?;
            w.write_u32(u32::from(c.lemma2))?;
            w.write_u64(c.epoch)?;
            w.write_u32(c.root.0)?;
            write_arr(w, c.labels.iter().map(|l| l.0))?;
            write_arr(w, c.k.iter().copied())?;
            write_arr(w, c.genuine.iter().copied())?;
            write_arr(w, ll.iter().copied())?;
            write_arr(w, c.child_off.iter().copied())?;
            write_arr(w, c.child_tgt.iter().map(|v| v.0))?;
            write_arr(w, c.parent_off.iter().copied())?;
            write_arr(w, c.parent_tgt.iter().map(|v| v.0))?;
            write_arr(w, c.links.off.iter().copied())?;
            write_arr(w, c.links.tgt.iter().map(|v| v.0))?;
            w.write_u64(data_off)?;
            w.write_u64(data.len() as u64)?;
            w.write_u64(bf_off)?;
            w.write_u64(bo_off)?;
            w.write_u32(nblocks)
        })?;
        metas.push(meta);
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

/// Saves a paged (v7) snapshot with the default 64 KiB page size.
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

/// Decodes a meta section into an unassembled [`PagedIndex`] whose arena
/// reads through `cache` over a universe of `universe` data nodes. Shape
/// validation happens in [`PagedArena::new`] and
/// [`PagedIndex::assemble`](mrx_index::SnapshotIndex::assemble); this only
/// reads.
fn read_paged_meta(
    r: &mut HashingReader<&[u8]>,
    cache: &Arc<PageCache>,
    universe: u32,
) -> Result<PagedIndex, StoreError> {
    let n = r.read_u32()? as usize;
    if n == 0 {
        return Err(format_err("paged component has no nodes"));
    }
    let lemma2 = r.read_u32()? != 0;
    let epoch = r.read_u64()?;
    let root = IdxId(r.read_u32()?);
    let labels = read_arr(r, "labels", LabelId)?;
    let k = read_arr(r, "k", |v| v)?;
    let genuine = read_arr(r, "genuine", |v| v)?;
    let extent_len = read_arr(r, "extent_len", |v| v)?;
    let child_off = read_arr(r, "child_off", |v| v)?;
    let child_tgt = read_arr(r, "child_tgt", IdxId)?;
    let parent_off = read_arr(r, "parent_off", |v| v)?;
    let parent_tgt = read_arr(r, "parent_tgt", IdxId)?;
    let links = SubnodeLinks {
        off: read_arr(r, "sub_off", |v| v)?,
        tgt: read_arr(r, "sub_tgt", IdxId)?,
    };
    if labels.len() != n {
        return Err(format_err(format!(
            "paged component declares {n} nodes but carries {}",
            labels.len()
        )));
    }
    let layout = ArenaLayout {
        data_off: r.read_u64()?,
        data_len: r.read_u64()?,
        block_first_off: r.read_u64()?,
        block_off_off: r.read_u64()?,
        nblocks: r.read_u32()?,
    };
    Ok(PagedIndex {
        labels,
        k,
        genuine,
        extents: PagedArena::new(cache.clone(), layout, extent_len, universe)?,
        child_off,
        child_tgt,
        parent_off,
        parent_tgt,
        root,
        links,
        by_label_off: Vec::new(),
        by_label_ids: Vec::new(),
        lemma2,
        epoch,
    })
}

/// An open paged (v7) snapshot: eager graph core, lazily-materialized
/// graph units, lazy component meta prefix, and extents served through a
/// budgeted [`PageCache`].
///
/// Like [`crate::CompressedFile`], a top-down query of length `j` activates
/// only components `I0..Ij`; unlike it, activation reads just the meta
/// section (kilobytes) — the extent payload stays on disk until cursors
/// fault its pages in. There is **no degradation path**: see the module
/// docs for why corruption is a typed error here.
pub struct PagedFile {
    reader: Box<dyn ReadSeek>,
    graph: LazyGraph,
    /// Absolute offsets of the per-component meta sections.
    offsets: Vec<u64>,
    /// Always a prefix `I0..I(len-1)` of the file's components, stamped
    /// with the full hierarchy's mutation epoch from the header — reported
    /// even when only a prefix is active, and cross-checked once all
    /// components have loaded.
    star: PagedMStar,
    cache: Arc<PageCache>,
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
        let mut ext = [0u8; 48];
        reader.read_exact(&mut ext)?;
        let paged_off = le_u64(&ext[0..8]);
        let paged_len = le_u64(&ext[8..16]);
        let pagetab_off = le_u64(&ext[16..24]);
        let page_size = u32::from_le_bytes([ext[24], ext[25], ext[26], ext[27]]);
        let npages = u32::from_le_bytes([ext[28], ext[29], ext[30], ext[31]]);
        let star_epoch = le_u64(&ext[32..40]);
        if fnv64(&ext[..40]) != le_u64(&ext[40..48]) {
            return Err(StoreError::Checksum {
                section: "paged header".into(),
            });
        }
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
        // Unit sections sit back to back after the core; their lengths are
        // derived from the core counts, so only offsets need computing.
        let mut unit_off = [0u64; GRAPH_UNITS];
        let mut at = HEADER_LEN_PAGED + glen;
        for (i, slot) in unit_off.iter_mut().enumerate() {
            *slot = at;
            at += 16 + core.unit_len(i);
        }
        if at + 8 * ncomp as u64 > paged_off {
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
        let bytes_read = HEADER_LEN_PAGED + glen + 8 * ncomp as u64 + tlen;
        Ok(PagedFile {
            reader,
            graph,
            offsets,
            star: PagedMStar {
                components: Vec::new(),
                epoch: star_epoch,
            },
            cache,
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
    /// the resident/pinned footprint.
    pub fn page_stats(&self) -> PageStats {
        self.cache.stats()
    }

    /// Re-targets the cache's eviction budget, reclaiming immediately if
    /// the new budget is smaller.
    pub fn set_cache_budget(&self, bytes: u64) {
        self.cache.set_budget(bytes)
    }

    /// Verifies every page of the paged region against the page table in
    /// one sequential pass (bypassing the cache), then digest-checks the
    /// four graph unit sections — the offline integrity check; serving
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
            self.epoch_checked = true;
        }
        Ok(())
    }

    /// Reads and activates component `Ii`: decode its meta section, pin
    /// the paged arena's skip directories, and validate the resident
    /// arrays, the links to `I(i−1)` included.
    fn read_component(&mut self, i: usize) -> Result<PagedIndex, StoreError> {
        self.reader.seek(SeekFrom::Start(self.offsets[i]))?;
        let budget = self.paged_off.saturating_sub(self.offsets[i]);
        let (cache, universe) = (&self.cache, self.graph.node_count() as u32);
        let (c, len) = read_section_bounded(
            &mut self.reader,
            &format!("component {i}"),
            Some(budget),
            |r| read_paged_meta(r, cache, universe),
        )?;
        self.bytes_read += len;
        let coarse = self.star.components.last().map(PagedIndex::node_count);
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
    /// [`mrx_index::QuerySession::try_serve`] to serve. The session checks
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
        if let Some(e) = self.star.take_fault() {
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
    use mrx_index::{Answer, MStarIndex, QuerySession, TrustPolicy};
    use mrx_path::eval_data;

    /// Serves `q` from `f` through a fresh session over the prefix `q`
    /// needs.
    fn serve(f: &mut PagedFile, q: &PathExpr, policy: TrustPolicy) -> Result<Answer, MrxError> {
        let (graph, star) = f.activate(q)?;
        QuerySession::new(policy).try_serve(star, graph, q).cloned()
    }

    /// The in-memory snapshot's top-down answer: the reference every paged
    /// answer must equal.
    fn want(cz: &CompressedMStar, fg: &FrozenGraph, q: &PathExpr, policy: TrustPolicy) -> Answer {
        QuerySession::new(policy).serve(cz, fg, q).clone()
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
        // Pinned skip-directory pages are exempt from the budget; the
        // evictable residency must respect it.
        let evictable = (s.resident_pages - s.pinned_pages) * 64;
        assert!(evictable <= 4 * 64, "budget overrun: {s:?}");
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
        // instead of an answer (flip one bit per page so every fault hits).
        let mut bad = img.clone();
        for p in (0..paged_len).step_by(64) {
            bad[paged_off + p] ^= 0x40;
        }
        let mut f = PagedFile::open_bytes(bad, DEFAULT_CACHE_BYTES).unwrap();
        let q = PathExpr::parse("//lastname").unwrap();
        match serve(&mut f, &q, TrustPolicy::Proven) {
            Err(MrxError::Store(StoreError::Checksum { section })) => {
                assert!(section.starts_with("page "), "{section}")
            }
            other => panic!("corrupt page served: {other:?}"),
        }
        // The clean image still verifies end to end.
        PagedFile::open_bytes(img, DEFAULT_CACHE_BYTES)
            .unwrap()
            .verify()
            .unwrap();
    }

    /// `img` with one bit flipped in the labels graph unit, whose payload
    /// starts 8 bytes into the first unit frame, which follows the graph
    /// core section at 64.
    fn labels_unit_flipped(img: &[u8]) -> Vec<u8> {
        let gcore_len = le_u64(&img[64..72]) as usize;
        let unit0 = 64 + 16 + gcore_len;
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
    /// a cache-wide poison slot gets wrong: thread A faults the page and
    /// holds its fault while thread B serves clean queries, then both serve
    /// at once. B's answers must match the oracle, and A's fault must still
    /// be A's to take — else A's query would answer over sentinels.
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
                        QuerySession::new(TrustPolicy::Proven).serve(&star, &graph, q);
                        star.take_fault().is_some()
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
                    QuerySession::new(TrustPolicy::Proven).serve(&star, &graph, hit[0]);
                    barrier.wait(); // B serves while A holds its fault
                    barrier.wait();
                    if star.take_fault().is_none() {
                        wrong.push(format!("round {round}: A's fault was taken"));
                    }
                    for q in &hit {
                        let r = session.try_serve(&star, &graph, q);
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
                            match session.try_serve(&star, &graph, q) {
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

    /// A session serving a corrupt image never caches an answer evaluated
    /// over a bad page: `try_serve` returns every faulted evaluation as a
    /// typed store error, a repeat faults again instead of hitting the
    /// cache, and `serve` returns the answer uncached with the fault left
    /// for the page cache's owner.
    #[test]
    fn session_never_caches_an_answer_evaluated_over_a_bad_page() {
        let (_g, cz, fg, img) = image(64);
        let paged_off = le_u64(&img[16..24]) as usize;
        let paged_len = le_u64(&img[24..32]) as usize;
        let queries: Vec<PathExpr> = EXPRS.iter().map(|e| PathExpr::parse(e).unwrap()).collect();
        let mut faulted = 0;
        for at in (0..paged_len).step_by(61) {
            let mut bad = img.clone();
            bad[paged_off + at] ^= 0x10;
            // A flip inside a pinned skip directory fails activation instead.
            let Ok((graph, star, cache)) =
                PagedFile::open_bytes(bad, DEFAULT_CACHE_BYTES).and_then(PagedFile::into_parts)
            else {
                continue;
            };
            let mut session = QuerySession::new(TrustPolicy::Proven);
            for q in &queries {
                let ctx = format!("flip at region byte {at}, {q}");
                QuerySession::new(TrustPolicy::Proven).serve(&star, &graph, q);
                if cache.take_poison().is_none() {
                    let want = want(&cz, &fg, q, TrustPolicy::Proven);
                    let got = session.try_serve(&star, &graph, q).unwrap();
                    assert_eq!(got.nodes, want.nodes, "{ctx}");
                    continue;
                }
                faulted += 1;
                for round in ["first", "repeat"] {
                    match session.try_serve(&star, &graph, q) {
                        Err(MrxError::Store(_)) => {}
                        other => panic!("{ctx}: {round} serving returned {other:?}"),
                    }
                }
                assert!(!cache.poisoned(), "{ctx}: try_serve must take the fault");
                let misses = session.stats().misses;
                for _ in 0..2 {
                    session.serve(&star, &graph, q);
                    assert!(cache.take_poison().is_some(), "{ctx}: serve took the fault");
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
        let mut dir_at = 64usize;
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
        let (_g, _cz, _fg, mut img) = image(64);
        let mut dir_at = 64usize;
        for _ in 0..(1 + GRAPH_UNITS) {
            dir_at += 16 + le_u64(&img[dir_at..dir_at + 8]) as usize;
        }
        let meta1 = le_u64(&img[dir_at + 8..dir_at + 16]) as usize;
        let len = le_u64(&img[meta1..meta1 + 8]) as usize;
        let payload = meta1 + 8;
        let word = |img: &[u8], at: usize| u32::from_le_bytes(img[at..at + 4].try_into().unwrap());
        let n = word(&img, payload);
        // Skip n, lemma2, epoch, root and the nine arrays before sub_tgt.
        let mut at = payload + 20;
        for _ in 0..9 {
            at += 4 + 4 * word(&img, at) as usize;
        }
        assert!(word(&img, at) > 0, "component 1 has links");
        img[at + 4..at + 8].copy_from_slice(&n.to_le_bytes());
        let sum = fnv64(&img[payload..payload + len]);
        img[payload + len..payload + len + 8].copy_from_slice(&sum.to_le_bytes());

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
    fn budgeted_queries_work_and_shrunk_cache_reclaims() {
        let (_g, cz, fg, img) = image(64);
        let mut f = PagedFile::open_bytes(img, DEFAULT_CACHE_BYTES).unwrap();
        let q = PathExpr::parse("//source/journal").unwrap();
        let want = want(&cz, &fg, &q, TrustPolicy::Proven);
        let a = serve(&mut f, &q, TrustPolicy::Proven).unwrap();
        assert_eq!(a.nodes, want.nodes);
        let resident_before = f.page_stats().resident_bytes;
        assert!(resident_before > 0);
        f.set_cache_budget(64);
        assert!(f.page_stats().resident_bytes <= resident_before);
        // Serving still works (and still matches) at one-page budget.
        let a2 = serve(&mut f, &q, TrustPolicy::Proven).unwrap();
        assert_eq!(a2.nodes, want.nodes);
    }

    /// A page-table offset near `u64::MAX` behind a valid header checksum
    /// must be refused as outside the file, not overflow the bounds check.
    #[test]
    fn pagetab_offset_near_u64_max_is_a_format_error() {
        let (_g, _cz, _fg, mut img) = image(64);
        // pagetab_off is header bytes 32..40; the extension checksum over
        // bytes 16..56 sits at 56..64.
        img[32..40].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        let sum = fnv64(&img[16..56]);
        img[56..64].copy_from_slice(&sum.to_le_bytes());
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
        let mut dir_at = 64usize;
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

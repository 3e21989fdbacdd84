//! The compressed (v5) `.mrx` snapshot layout: the resident serving form.
//!
//! ```text
//! file           := "MRXSTAR1" u32(version=5) u32(ncomponents)
//!                   section(packed-graph) dir section(packed-component)*
//! dir            := u64(absolute offset of each component section)*
//! section(p)     := u64(len(p)) p u64(fnv64(p))
//! packed-graph   := u32(n) u32(root) arr(node_labels)
//!                   arena(children) arena(parents) arena(label rows)
//!                   arr(name_off) bytes(name_bytes) arr(name_order)
//! packed-comp    := u32(n) u32(lemma2) u64(epoch)
//!                   arr(labels) arr(k) arr(genuine)
//!                   arena(extents) arena(children) arena(parents)
//! arena(a)       := bytes(data) arr(block_first) arr(block_off) arr(list_len)
//! arr(a)         := u32(len(a)) u32*          (little-endian words)
//! bytes(b)       := u32(len(b)) u8*
//! ```
//!
//! Every sorted id list is an encoding-tagged [`PostingArena`]. On load the
//! graph and index adjacency decode back to raw CSR (serving walks them as
//! slices), while component **extents stay compressed**: a component loads
//! into a [`CompressedIndex`] and is served through per-block bulk decodes
//! without ever materializing the extent arrays. The derived arrays are not
//! stored: `by_label` is rebuilt by one counting pass, and one inversion
//! pass over the extents into a reused scratch map proves they partition
//! the data nodes and yields the data root's node and the subnode links
//! from the previous component (see `link_component`). Section checksums
//! are verified before any block is decoded, so a bit flip is caught by
//! FNV-64 first and by [`PostingArena::from_parts`] payload validation
//! second — never by a panic mid-decode.
//!
//! Every declared length — section and per-array — is validated against the
//! bytes actually available *before* the corresponding buffer is allocated.
//! The graph passes `FrozenGraph::validate` as it is rebuilt, and each
//! component passes the inversion and then
//! [`CompressedIndex::assemble`], the structural check the paged layout
//! shares, so every byte read is checked exactly once before it serves.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use mrx_graph::{FrozenGraph, LabelId, NodeId, PackedGraphCsr};
use mrx_index::{CompressedIndex, CompressedMStar, IdxId, SubnodeLinks};
use mrx_path::PathExpr;
use mrx_postings::PostingArena;

use crate::format::{
    check_version, format_err, read_section_bounded, to_payload, write_section, StoreError,
    STAR_MAGIC, VERSION_COMPRESSED, VERSION_PAGED,
};
use crate::wire::{le_u64, HashingReader, HashingWriter};

// ---------------------------------------------------------------------
// Array codec
// ---------------------------------------------------------------------

/// `u32(count)` with a typed error instead of a panic when a count cannot
/// be represented on the wire.
fn write_count<W: Write>(w: &mut HashingWriter<W>, len: usize, what: &str) -> io::Result<()> {
    let count = u32::try_from(len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{what} of {len} elements exceeds the u32 wire limit"),
        )
    })?;
    w.write_u32(count)
}

/// Writes `u32(count)` followed by the raw little-endian words.
pub(crate) fn write_arr<W: Write>(
    w: &mut HashingWriter<W>,
    it: impl ExactSizeIterator<Item = u32>,
) -> io::Result<()> {
    write_count(w, it.len(), "array")?;
    let mut bytes = Vec::with_capacity(it.len() * 4);
    for v in it {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&bytes)
}

pub(crate) fn write_bytes<W: Write>(w: &mut HashingWriter<W>, b: &[u8]) -> io::Result<()> {
    write_count(w, b.len(), "byte array")?;
    w.write_all(b)
}

/// Reads a word array, rejecting a count that overflows the rest of the
/// section *before* allocating the buffer.
pub(crate) fn read_arr<T>(
    r: &mut HashingReader<&[u8]>,
    name: &str,
    f: impl Fn(u32) -> T,
) -> Result<Vec<T>, StoreError> {
    let count = r.read_u32()? as usize;
    if count as u64 * 4 > r.remaining() {
        return Err(format_err(format!(
            "array `{name}` declares {count} elements beyond the section end"
        )));
    }
    let mut buf = vec![0u8; count * 4];
    r.read_exact(&mut buf)?;
    Ok(buf
        .chunks_exact(4)
        .map(|c| f(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
        .collect())
}

pub(crate) fn read_bytes(r: &mut HashingReader<&[u8]>, name: &str) -> Result<Vec<u8>, StoreError> {
    let count = r.read_u32()? as usize;
    if count as u64 > r.remaining() {
        return Err(format_err(format!(
            "byte array `{name}` declares {count} bytes beyond the section end"
        )));
    }
    let mut buf = vec![0u8; count];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Writes a posting arena as its four wire arrays (`list_block` is derived
/// on read).
fn write_arena<W: Write>(w: &mut HashingWriter<W>, a: &PostingArena) -> io::Result<()> {
    let (data, block_first, block_off, list_len) = a.parts();
    write_bytes(w, data)?;
    write_arr(w, block_first.iter().copied())?;
    write_arr(w, block_off.iter().copied())?;
    write_arr(w, list_len.iter().copied())
}

/// Reads a posting arena, running the full payload validation of
/// [`PostingArena::from_parts`] so every later walk is in-bounds by
/// construction.
fn read_arena(r: &mut HashingReader<&[u8]>, name: &str) -> Result<PostingArena, StoreError> {
    let data = read_bytes(r, name)?;
    let block_first = read_arr(r, name, |v| v)?;
    let block_off = read_arr(r, name, |v| v)?;
    let list_len = read_arr(r, name, |v| v)?;
    PostingArena::from_parts(data, block_first, block_off, list_len)
        .map_err(|e| format_err(format!("posting arena `{name}`: {e}")))
}

// ---------------------------------------------------------------------
// Payloads
// ---------------------------------------------------------------------

fn write_compressed_graph_payload<W: Write>(
    w: &mut HashingWriter<W>,
    g: &FrozenGraph,
) -> io::Result<()> {
    let packed = g.pack_csr();
    w.write_u32(g.node_count() as u32)?;
    w.write_u32(g.root().0)?;
    write_arr(w, g.node_labels.iter().map(|l| l.0))?;
    write_arena(w, &packed.children)?;
    write_arena(w, &packed.parents)?;
    write_arena(w, &packed.labels)?;
    write_arr(w, g.name_off.iter().copied())?;
    write_bytes(w, &g.name_bytes)?;
    write_arr(w, g.name_order.iter().copied())
}

/// Reads a packed graph payload, decoding the three CSR arenas back into
/// the raw [`FrozenGraph`] serving form (adjacency is compressed on disk
/// only; queries walk it as slices).
fn read_compressed_graph_payload(r: &mut HashingReader<&[u8]>) -> Result<FrozenGraph, StoreError> {
    let n = r.read_u32()? as usize;
    if n == 0 {
        return Err(format_err("frozen graph has no nodes"));
    }
    let root = NodeId(r.read_u32()?);
    let node_labels = read_arr(r, "node_labels", LabelId)?;
    let csr = PackedGraphCsr {
        children: read_arena(r, "graph children")?,
        parents: read_arena(r, "graph parents")?,
        labels: read_arena(r, "graph labels")?,
    };
    let name_off = read_arr(r, "name_off", |v| v)?;
    let name_bytes = read_bytes(r, "name_bytes")?;
    let name_order = read_arr(r, "name_order", |v| v)?;
    let g = FrozenGraph::from_packed_csr(node_labels, &csr, name_off, name_bytes, name_order, root)
        .map_err(format_err)?;
    if g.node_count() != n {
        return Err(format_err(format!(
            "frozen graph declares {n} nodes but carries {}",
            g.node_count()
        )));
    }
    Ok(g)
}

fn write_compressed_component_payload<W: Write>(
    w: &mut HashingWriter<W>,
    c: &CompressedIndex,
) -> io::Result<()> {
    w.write_u32(c.node_count() as u32)?;
    w.write_u32(u32::from(c.lemma2))?;
    w.write_u64(c.epoch)?;
    write_arr(w, c.labels.iter().map(|l| l.0))?;
    write_arr(w, c.k.iter().copied())?;
    write_arr(w, c.genuine.iter().copied())?;
    write_arena(w, &c.extents)?;
    // Index adjacency rows are sorted and deduplicated, so they pack the
    // same way the extents do.
    let mut child = PostingArena::new();
    let mut parent = PostingArena::new();
    for v in 0..c.node_count() {
        let v = IdxId(v as u32);
        child.push_list(c.children(v));
        parent.push_list(c.parents(v));
    }
    write_arena(w, &child)?;
    write_arena(w, &parent)
}

/// Reads one packed component straight into its [`CompressedIndex`]
/// serving form: adjacency decodes back to raw CSR, the extent arena stays
/// compressed, [`link_component`] proves the partition and links it below
/// `coarse`, and [`CompressedIndex::assemble`] checks the rest and derives
/// `by_label`.
fn read_compressed_component_payload(
    r: &mut HashingReader<&[u8]>,
    g: &FrozenGraph,
    coarse: Option<&CompressedIndex>,
    node_of: &mut Vec<IdxId>,
) -> Result<CompressedIndex, StoreError> {
    let n = r.read_u32()? as usize;
    if n == 0 || n > g.node_count() {
        return Err(format_err(format!("implausible index node count {n}")));
    }
    let lemma2 = match r.read_u32()? {
        0 => false,
        1 => true,
        other => return Err(format_err(format!("invalid lemma2 flag {other}"))),
    };
    let epoch = r.read_u64()?;
    let labels = read_arr(r, "labels", LabelId)?;
    let k = read_arr(r, "k", |v| v)?;
    let genuine = read_arr(r, "genuine", |v| v)?;
    let extents = read_arena(r, "extents")?;
    let child = read_arena(r, "child adjacency")?;
    let parent = read_arena(r, "parent adjacency")?;

    if labels.len() != n {
        return Err(format_err("label array does not match node count"));
    }
    let (child_off, child_tgt) = child.decode_csr::<IdxId>();
    let (parent_off, parent_tgt) = parent.decode_csr::<IdxId>();

    let mut c = CompressedIndex {
        labels,
        k,
        genuine,
        extents,
        child_off,
        child_tgt,
        parent_off,
        parent_tgt,
        root: IdxId(0),
        links: SubnodeLinks::default(),
        by_label_off: Vec::new(),
        by_label_ids: Vec::new(),
        nests: false,
        lemma2,
        epoch,
    };
    link_component(&mut c, coarse, g, node_of)?;
    c.assemble(g.node_count(), g.num_labels(), coarse, false)
        .map_err(format_err)
}

/// Inverts `c`'s extents into the scratch map `node_of`, decoding each
/// list once — the only full decode pass a load pays for extents — proving
/// that every member is a data node of `g` and in exactly one extent and
/// that the extents cover `g`, then records the node holding `g`'s root
/// and derives the links below `coarse`. Rows come from the extents
/// actually loaded, so they stay exact even next to a rebuilt component
/// that does not nest between its neighbours. Runs before the list count
/// is checked, so it walks the lists the arena holds.
fn link_component(
    c: &mut CompressedIndex,
    coarse: Option<&CompressedIndex>,
    g: &FrozenGraph,
    node_of: &mut Vec<IdxId>,
) -> Result<(), StoreError> {
    let lists = c.extents.num_lists();
    node_of.clear();
    node_of.resize(g.node_count(), IdxId(u32::MAX));
    let mut covered = 0usize;
    for v in 0..lists {
        // The walk cannot stop early, so it keeps the first fault.
        let mut fault = None;
        c.extents
            .for_each(v, |o| match node_of.get_mut(o as usize) {
                _ if fault.is_some() => {}
                None => fault = Some(format!("extent member {o} out of range")),
                Some(slot) if *slot != IdxId(u32::MAX) => {
                    fault = Some(format!("data node {o} in two extents"))
                }
                Some(slot) => {
                    *slot = IdxId(v as u32);
                    covered += 1;
                }
            });
        if let Some(msg) = fault {
            return Err(format_err(msg));
        }
    }
    if covered != g.node_count() {
        return Err(format_err(format!(
            "extents cover {covered} of {} data nodes",
            g.node_count()
        )));
    }
    c.root = *node_of
        .get(g.root().index())
        .ok_or_else(|| format_err("graph root out of range"))?;
    c.links = coarse
        .map(|coarse| SubnodeLinks::derive(coarse, node_of, lists))
        .unwrap_or_default();
    Ok(())
}

// ---------------------------------------------------------------------
// Save / eager load
// ---------------------------------------------------------------------

/// Saves a compressed snapshot (`graph` + every component of `idx`) to
/// `path`.
pub fn save_compressed(
    path: impl AsRef<Path>,
    g: &FrozenGraph,
    idx: &CompressedMStar,
) -> Result<(), StoreError> {
    let file = File::create(path)?;
    save_compressed_to(BufWriter::new(file), g, idx)
}

/// Saves a compressed snapshot to an arbitrary writer: header, graph
/// section, component directory, component sections.
pub fn save_compressed_to<W: Write>(
    mut out: W,
    g: &FrozenGraph,
    idx: &CompressedMStar,
) -> Result<(), StoreError> {
    if idx.components.is_empty() {
        return Err(format_err("compressed M* has no components"));
    }
    let graph_payload = to_payload(|w| write_compressed_graph_payload(w, g))?;
    let component_payloads: Vec<Vec<u8>> = idx
        .components
        .iter()
        .map(|c| to_payload(|w| write_compressed_component_payload(w, c)))
        .collect::<io::Result<_>>()?;
    let ncomp = component_payloads.len();
    out.write_all(STAR_MAGIC)?;
    out.write_all(&VERSION_COMPRESSED.to_le_bytes())?;
    out.write_all(&(ncomp as u32).to_le_bytes())?;

    let header_len = 8 + 4 + 4;
    let graph_section_len = 8 + graph_payload.len() as u64 + 8;
    let dir_len = 8 * ncomp as u64;
    let mut offset = header_len + graph_section_len + dir_len;
    let mut dir = Vec::with_capacity(ncomp);
    for p in &component_payloads {
        dir.push(offset);
        offset += 8 + p.len() as u64 + 8;
    }

    write_section(&mut out, &graph_payload)?;
    for o in &dir {
        out.write_all(&o.to_le_bytes())?;
    }
    for p in &component_payloads {
        write_section(&mut out, p)?;
    }
    out.flush()?;
    Ok(())
}

/// Loads a complete compressed snapshot from `path` (eager; use
/// [`CompressedFile`] for lazy prefix loading). Every declared length is
/// checked against the file size before allocation.
pub fn load_compressed(
    path: impl AsRef<Path>,
) -> Result<(FrozenGraph, CompressedMStar), StoreError> {
    let file = File::open(path)?;
    let size = file.metadata()?.len();
    load_compressed_impl(BufReader::new(file), Some(size))
}

/// Loads a complete compressed snapshot from an arbitrary reader.
pub fn load_compressed_from<R: Read>(
    input: R,
) -> Result<(FrozenGraph, CompressedMStar), StoreError> {
    load_compressed_impl(input, None)
}

fn load_compressed_impl<R: Read>(
    mut input: R,
    size: Option<u64>,
) -> Result<(FrozenGraph, CompressedMStar), StoreError> {
    let (graph, ncomp, mut remaining) = read_header(&mut input, size)?;
    let mut dir = vec![0u8; 8 * ncomp];
    input.read_exact(&mut dir)?;
    let mut components: Vec<CompressedIndex> = Vec::with_capacity(ncomp);
    let mut node_of = Vec::new();
    for i in 0..ncomp {
        let (c, clen) =
            read_section_bounded(&mut input, &format!("component {i}"), remaining, |r| {
                read_compressed_component_payload(r, &graph, components.last(), &mut node_of)
            })?;
        if let Some(rem) = remaining.as_mut() {
            *rem = rem.saturating_sub(clen);
        }
        components.push(c);
    }
    Ok((graph, assemble(components)))
}

/// Peeks the layout version of an `.mrx` snapshot —
/// [`VERSION_COMPRESSED`] (5) or [`VERSION_PAGED`] (9) — without loading
/// any section. A retired layout (versions 1–4 and 6–8) is refused with
/// [`StoreError::Retired`], anything else with a format error.
pub fn snapshot_version(path: impl AsRef<Path>) -> Result<u32, StoreError> {
    let mut f = File::open(path)?;
    let mut hdr = [0u8; 12];
    f.read_exact(&mut hdr)?;
    if hdr[..8] != *STAR_MAGIC {
        return Err(format_err("not an mrx index file (bad magic)"));
    }
    let version = u32::from_le_bytes([hdr[8], hdr[9], hdr[10], hdr[11]]);
    check_version(version, &[VERSION_COMPRESSED, VERSION_PAGED])?;
    Ok(version)
}

/// Reads the header and the embedded graph. Returns the graph, the
/// component count, and the byte budget left after the graph section and
/// the directory (when the total size is known).
fn read_header<R: Read>(
    input: &mut R,
    size: Option<u64>,
) -> Result<(FrozenGraph, usize, Option<u64>), StoreError> {
    let (ncomp, mut remaining) = read_prelude(input, size, VERSION_COMPRESSED)?;
    let (graph, glen) =
        read_section_bounded(input, "graph", remaining, read_compressed_graph_payload)?;
    if let Some(rem) = remaining.as_mut() {
        *rem = rem.saturating_sub(glen + 8 * ncomp as u64);
    }
    Ok((graph, ncomp, remaining))
}

/// Checks magic, version, and component count; returns the component
/// count and the byte budget left after the 16-byte header.
pub(crate) fn read_prelude<R: Read>(
    input: &mut R,
    size: Option<u64>,
    version: u32,
) -> Result<(usize, Option<u64>), StoreError> {
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    if &magic != STAR_MAGIC {
        return Err(format_err("not an mrx index file (bad magic)"));
    }
    let mut buf4 = [0u8; 4];
    input.read_exact(&mut buf4)?;
    check_version(u32::from_le_bytes(buf4), &[version])?;
    input.read_exact(&mut buf4)?;
    let ncomp = u32::from_le_bytes(buf4) as usize;
    if ncomp == 0 || ncomp > 4096 {
        return Err(format_err(format!("implausible component count {ncomp}")));
    }
    Ok((ncomp, size.map(|s| s.saturating_sub(16))))
}

/// Rebuilds a [`CompressedMStar`] from loaded components. The combined
/// epoch is recomputed exactly as [`mrx_index::MStarIndex::mutation_epoch`]
/// defines it (sum of component epochs plus the component count), so a
/// freeze → save → load round trip is `==` to the original snapshot.
fn assemble(components: Vec<CompressedIndex>) -> CompressedMStar {
    let epoch = combined_epoch(&components);
    CompressedMStar { components, epoch }
}

fn combined_epoch(components: &[CompressedIndex]) -> u64 {
    components.iter().map(|c| c.epoch).sum::<u64>() + components.len() as u64
}

// ---------------------------------------------------------------------
// Lazy compressed file
// ---------------------------------------------------------------------

/// An open compressed snapshot whose components load lazily into
/// [`CompressedIndex`] serving form — extents stay compressed in memory
/// and are decoded block by block as queries walk them.
///
/// A top-down query of length `j` touches only `I0..Ij`: evaluating
/// top-down over the loaded prefix is *identical* to evaluating over the
/// full hierarchy, because descent from component `i` targets component
/// `min(i + 1, j)` and the query never looks past `Ij` — the paper's §6
/// selective loading. [`CompressedFile::activate`] loads that prefix;
/// the query itself is served through [`mrx_index::QuerySession`].
///
/// # Graceful degradation
///
/// A component section that fails to read — corrupt payload, bad checksum,
/// truncation — does **not** fail the query: the component is rebuilt live
/// from the embedded graph as the exact `A(i)` partition and compressed,
/// which is a sound drop-in (every block is a genuine `i`-bisimulation
/// class, so answers are unchanged; only the one-time load cost is).
/// Rebuilt components are reported by
/// [`CompressedFile::degraded_components`]. Only the graph section itself
/// is unrecoverable, since it is the rebuild source.
pub struct CompressedFile {
    file: BufReader<File>,
    file_len: u64,
    graph: FrozenGraph,
    offsets: Vec<u64>,
    /// Always a prefix `I0..I(len-1)` of the file's components, stamped
    /// with the prefix's combined epoch.
    star: CompressedMStar,
    /// Components rebuilt from the graph after a failed section read
    /// (ascending, each listed once).
    degraded: Vec<usize>,
    bytes_read: u64,
    /// Scratch inverse extent map, reused by every component load.
    node_of: Vec<IdxId>,
}

impl CompressedFile {
    /// Opens a compressed snapshot, reading only the header, the embedded
    /// graph and the directory.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut file = BufReader::new(file);
        let (graph, ncomp, _) = read_header(&mut file, Some(file_len))?;
        let mut dir = vec![0u8; 8 * ncomp];
        file.read_exact(&mut dir)?;
        let mut offsets = Vec::with_capacity(ncomp);
        let mut prev = 0u64;
        for c in dir.chunks_exact(8) {
            let o = le_u64(c);
            // 8(len) + 8(digest) is the smallest possible section.
            if o <= prev || o.checked_add(16).is_none_or(|end| end > file_len) {
                return Err(format_err(format!(
                    "component directory offset {o} outside the file"
                )));
            }
            prev = o;
            offsets.push(o);
        }
        let bytes_read = file.stream_position()?;
        Ok(CompressedFile {
            file,
            file_len,
            graph,
            offsets,
            star: assemble(Vec::new()),
            degraded: Vec::new(),
            bytes_read,
            node_of: Vec::new(),
        })
    }

    /// The embedded frozen data graph (always resident, decoded to raw
    /// CSR at open time).
    pub fn graph(&self) -> &FrozenGraph {
        &self.graph
    }

    /// Total number of components in the file.
    pub fn component_count(&self) -> usize {
        self.offsets.len()
    }

    /// Indices of the components currently in memory (always a prefix).
    pub fn loaded_components(&self) -> Vec<usize> {
        (0..self.star.components.len()).collect()
    }

    /// Bytes read from the file so far (header + graph + dir + loaded
    /// components).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Components that failed their section read and were rebuilt live
    /// from the embedded graph (ascending, each listed once).
    pub fn degraded_components(&self) -> &[usize] {
        &self.degraded
    }

    /// Heap bytes the loaded components' extent representations hold —
    /// the serving-footprint side of the compression trade.
    pub fn extent_bytes(&self) -> usize {
        self.star.components.iter().map(|c| c.extent_bytes()).sum()
    }

    /// Ensures components `I0..=Iupto` are resident, rebuilding any whose
    /// section cannot be read.
    pub fn ensure_loaded(&mut self, upto: usize) -> Result<(), StoreError> {
        let upto = upto.min(self.offsets.len().saturating_sub(1));
        for i in self.star.components.len()..=upto {
            let c = match self.read_component(i) {
                Ok(c) => c,
                Err(e) => self.rebuild_component(i, &e),
            };
            self.star.components.push(c);
        }
        self.star.epoch = combined_epoch(&self.star.components);
        Ok(())
    }

    /// Reads component `Ii` from its directory offset.
    fn read_component(&mut self, i: usize) -> Result<CompressedIndex, StoreError> {
        self.file.seek(SeekFrom::Start(self.offsets[i]))?;
        let budget = self.file_len.saturating_sub(self.offsets[i]);
        let (c, len) = read_section_bounded(
            &mut self.file,
            &format!("component {i}"),
            Some(budget),
            |r| {
                read_compressed_component_payload(
                    r,
                    &self.graph,
                    self.star.components.last(),
                    &mut self.node_of,
                )
            },
        )?;
        self.bytes_read += len;
        Ok(c)
    }

    /// Fallback for an unreadable component section: rebuild `Ii` as the
    /// exact `A(i)` partition of the embedded graph and compress it —
    /// sound because every block is a genuine `i`-bisimulation class.
    fn rebuild_component(&mut self, i: usize, cause: &StoreError) -> CompressedIndex {
        eprintln!(
            "mrx-store: component {i} unreadable ({cause}); rebuilding it from the data graph"
        );
        let dg = thaw_graph(&self.graph);
        let ak = mrx_index::AkIndex::build(&dg, i as u32);
        self.degraded.push(i);
        CompressedIndex::freeze(ak.graph(), self.star.components.last())
    }

    /// Loads the prefix `I0..I(length)` that `path` needs and returns the
    /// graph and the loaded hierarchy, for [`mrx_index::QuerySession`] to
    /// serve.
    pub fn activate(
        &mut self,
        path: &PathExpr,
    ) -> Result<(&FrozenGraph, &CompressedMStar), StoreError> {
        self.ensure_loaded(path.steps().len().saturating_sub(1))?;
        Ok((&self.graph, &self.star))
    }

    /// Loads everything and returns the full in-memory snapshot.
    pub fn into_compressed(mut self) -> Result<(FrozenGraph, CompressedMStar), StoreError> {
        self.ensure_loaded(self.offsets.len().saturating_sub(1))?;
        Ok((self.graph, self.star))
    }
}

/// Reconstructs a live [`DataGraph`](mrx_graph::DataGraph) from a frozen
/// one, preserving node and label ids. Merged adjacency is replayed as
/// reference edges: k-bisimulation sees only the merged child/parent
/// relation, so indexes built on the thawed graph partition data nodes
/// exactly as ones built on the original would.
fn thaw_graph(g: &FrozenGraph) -> mrx_graph::DataGraph {
    let mut b = mrx_graph::GraphBuilder::with_capacity(g.node_count());
    for l in 0..g.num_labels() {
        b.intern(g.label_str(LabelId(l as u32)));
    }
    for v in 0..g.node_count() {
        b.add_node_with(g.label(NodeId(v as u32)));
    }
    for v in 0..g.node_count() {
        let v = NodeId(v as u32);
        for &c in g.children(v) {
            b.add_ref(v, c);
        }
    }
    b.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrx_graph::DataGraph;
    use mrx_index::{Answer, MStarIndex, QuerySession, TrustPolicy};
    use mrx_path::eval_data;

    /// Serves `q` from `f` through a fresh session over the prefix `q`
    /// needs.
    fn serve(f: &mut CompressedFile, q: &PathExpr) -> Answer {
        let (g, star) = f.activate(q).unwrap();
        QuerySession::new(TrustPolicy::Proven)
            .serve(star, g, q)
            .unwrap()
            .clone()
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

    fn image(g: &DataGraph, idx: &MStarIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        save_compressed_to(&mut buf, &FrozenGraph::freeze(g), &idx.freeze_compressed()).unwrap();
        buf
    }

    fn tempdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mrx-compressed-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Absolute offset of component `i`'s section, read from the directory.
    fn component_offset(bytes: &[u8], i: usize) -> usize {
        let glen = le_u64(&bytes[16..24]) as usize;
        let dir_at = 24 + glen + 8;
        le_u64(&bytes[dir_at + 8 * i..dir_at + 8 * i + 8]) as usize
    }

    #[test]
    fn compressed_roundtrip_is_bit_identical() {
        let (g, idx) = setup();
        let fg = FrozenGraph::freeze(&g);
        let cz = idx.freeze_compressed();
        let mut buf = Vec::new();
        save_compressed_to(&mut buf, &fg, &cz).unwrap();
        let (fg2, cz2) = load_compressed_from(&buf[..]).unwrap();
        assert_eq!(fg, fg2);
        assert_eq!(cz, cz2);
        assert_eq!(cz2.mutation_epoch(), idx.mutation_epoch());
    }

    #[test]
    fn compressed_file_loads_a_prefix_and_matches_the_live_index() {
        let dir = tempdir();
        let (g, idx) = setup();
        let path = dir.join("nasa-packed.mrx");
        save_compressed(&path, &FrozenGraph::freeze(&g), &idx.freeze_compressed()).unwrap();
        assert_eq!(snapshot_version(&path).unwrap(), VERSION_COMPRESSED);

        let mut cf = CompressedFile::open(&path).unwrap();
        assert_eq!(cf.component_count(), 5);
        assert!(cf.loaded_components().is_empty());
        assert_eq!(cf.extent_bytes(), 0);
        let after_open = cf.bytes_read();
        for expr in [
            "//lastname",
            "//dataset/reference/source",
            "//author",
            "/dataset/title",
        ] {
            let q = PathExpr::parse(expr).unwrap();
            let live = idx.query_with_policy(
                &g,
                &q,
                mrx_index::EvalStrategy::TopDown,
                TrustPolicy::Proven,
            );
            let lazy = serve(&mut cf, &q);
            assert_eq!(lazy.nodes, live.nodes, "{expr}");
            assert_eq!(lazy.cost, live.cost, "{expr}");
            assert_eq!(lazy.nodes, eval_data(&g, &q.compile(&g)), "{expr}");
        }
        assert_eq!(cf.loaded_components(), vec![0, 1, 2]);
        assert!(cf.bytes_read() > after_open);
        assert!(cf.extent_bytes() > 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_compressed_component_degrades_to_live_rebuild() {
        let dir = tempdir();
        let (g, idx) = setup();
        let path = dir.join("degraded-packed.mrx");
        let mut bytes = image(&g, &idx);
        // Flip one byte inside component I2's section: the checksum (or the
        // arena payload validation) must catch it before any block decode
        // can run wild, and the query must still answer correctly.
        let c2 = component_offset(&bytes, 2);
        bytes[c2 + 64] ^= 0x41;
        std::fs::write(&path, &bytes).unwrap();

        let mut f = CompressedFile::open(&path).unwrap();
        let q = PathExpr::parse("//dataset/reference/source").unwrap();
        let ans = serve(&mut f, &q);
        assert_eq!(ans.nodes, eval_data(&g, &q.compile(&g)));
        assert_eq!(f.degraded_components(), &[2]);
        assert_eq!(f.loaded_components(), vec![0, 1, 2]);

        // Later components past the corrupt one still load from the file.
        let q4 = PathExpr::parse("//reference/source/journal/author/lastname").unwrap();
        let ans4 = serve(&mut f, &q4);
        assert_eq!(ans4.nodes, eval_data(&g, &q4.compile(&g)));
        assert_eq!(f.degraded_components(), &[2]);

        // The rebuilt A(2) need not nest between its stored neighbours, so
        // the links into and out of it overlap; a whole workload must
        // still answer exactly.
        let w = mrx_workload::Workload::generate(
            &g,
            &mrx_workload::WorkloadConfig {
                max_path_len: 5,
                num_queries: 60,
                seed: 3,
                max_enumerated_paths: 100_000,
            },
        );
        for q in &w.queries {
            let ans = serve(&mut f, q);
            assert_eq!(ans.nodes, eval_data(&g, &q.compile(&g)), "{q}");
        }
        assert_eq!(f.loaded_components(), vec![0, 1, 2, 3, 4]);
        assert_eq!(f.degraded_components(), &[2]);
        let (fg, star) = f.into_compressed().unwrap();
        let (c2, c3) = (&star.components[2], &star.components[3]);
        let n2 = Some(c2.node_count());
        assert!(
            c3.links.check(n2, c3.node_count(), true).is_err(),
            "rows nest"
        );
        for (i, c) in star.components.iter().enumerate() {
            let coarse = i.checked_sub(1).map(|j| &star.components[j]);
            let checked = c
                .clone()
                .assemble(fg.node_count(), fg.num_labels(), coarse, false);
            assert_eq!(checked.as_ref(), Ok(c), "I{i}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_or_flipped_file_rejected() {
        let (g, idx) = setup();
        let bytes = image(&g, &idx);
        assert!(load_compressed_from(&bytes[..bytes.len() / 2]).is_err());
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(matches!(
            load_compressed_from(&flipped[..]),
            Err(StoreError::Checksum { .. }) | Err(StoreError::Format(_))
        ));
    }

    #[test]
    fn oversized_section_length_rejected_before_allocation() {
        let dir = tempdir();
        let (g, idx) = setup();
        let path = dir.join("patched.mrx");
        let mut bytes = image(&g, &idx);
        // Patch the graph section's declared length (at offset 16) to claim
        // vastly more bytes than the file holds.
        bytes[16..24].copy_from_slice(&(1u64 << 39).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match CompressedFile::open(&path) {
            Err(StoreError::Format(m)) => assert!(m.contains("remain in the file"), "{m}"),
            Err(other) => panic!("expected format error, got {other:?}"),
            Ok(_) => panic!("expected format error, got a loaded file"),
        }
        match load_compressed(&path) {
            Err(StoreError::Format(m)) => assert!(m.contains("remain in the file"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn hostile_array_count_rejected_before_allocation() {
        let (g, idx) = setup();
        let mut bytes = image(&g, &idx);
        // The graph payload starts at 16 + 8 (section length prefix); its
        // first array count (node_labels) sits 8 bytes in (after n + root).
        let payload_start = 24usize;
        let len = le_u64(&bytes[16..24]) as usize;
        let count_at = payload_start + 8;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        // Recompute the checksum so only the per-array bound check can
        // reject the hostile count.
        let mut h = crate::wire::Fnv64::new();
        h.update(&bytes[payload_start..payload_start + len]);
        let digest_at = payload_start + len;
        bytes[digest_at..digest_at + 8].copy_from_slice(&h.finish().to_le_bytes());
        match load_compressed_from(&bytes[..]) {
            Err(StoreError::Format(m)) => assert!(m.contains("beyond the section end"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn retired_and_paged_versions_are_refused_by_the_v5_reader() {
        let (g, idx) = setup();
        let bytes = image(&g, &idx);
        for version in crate::format::RETIRED {
            let mut old = bytes.clone();
            old[8..12].copy_from_slice(&version.to_le_bytes());
            match load_compressed_from(&old[..]) {
                Err(StoreError::Retired { version: v }) => assert_eq!(v, version),
                other => panic!("v{version}: expected a retired-layout error, got {other:?}"),
            }
        }
        let paged =
            crate::paged_image(&FrozenGraph::freeze(&g), &idx.freeze_compressed(), 256).unwrap();
        match load_compressed_from(&paged[..]) {
            Err(StoreError::Format(m)) => {
                assert!(m.contains(&format!("version {VERSION_PAGED}")), "{m}")
            }
            other => panic!("expected format error, got {other:?}"),
        }
    }

    /// The v5 image of `idx` with component `i` rewritten by `edit`, which
    /// gets the component and its extent lists. The writer stores what it
    /// is given, so every checksum in the image is valid and only the
    /// loader's structural checks stand between the damage and serving.
    fn tampered_image(
        g: &DataGraph,
        idx: &MStarIndex,
        i: usize,
        edit: impl FnOnce(&mut CompressedIndex, &mut Vec<Vec<u32>>),
    ) -> Vec<u8> {
        let mut cz = idx.freeze_compressed();
        let c = &mut cz.components[i];
        let mut lists: Vec<Vec<u32>> = (0..c.node_count())
            .map(|v| {
                let mut out = Vec::new();
                c.extents.for_each(v, |o| out.push(o));
                out
            })
            .collect();
        edit(c, &mut lists);
        c.extents = PostingArena::new();
        for l in &lists {
            c.extents.push_list(l);
        }
        let mut buf = Vec::new();
        save_compressed_to(&mut buf, &FrozenGraph::freeze(g), &cz).unwrap();
        buf
    }

    /// One more `I0` node with an empty extent leaves every count
    /// consistent — the cardinalities still sum to the data nodes and the
    /// inversion sees every member once — so only the shared check's
    /// empty-extent test refuses it.
    #[test]
    fn empty_extent_list_is_refused_or_degraded() {
        let (g, idx) = setup();
        let bytes = tampered_image(&g, &idx, 0, |c, lists| {
            lists.push(Vec::new());
            c.labels.push(c.labels[0]);
            c.k.push(0);
            c.genuine.push(0);
            c.child_off.push(c.child_tgt.len() as u32);
            c.parent_off.push(c.parent_tgt.len() as u32);
        });
        match load_compressed_from(&bytes[..]) {
            Err(StoreError::Format(m)) => assert!(m.contains("empty extent"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
        let path = tempdir().join("empty-extent.mrx");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            crate::open_validated(&path, true, None),
            Err(StoreError::Format(_))
        ));
        let lenient = crate::open_validated(&path, false, None).unwrap();
        assert_eq!(lenient.degraded, vec![0]);
        std::fs::remove_file(path).ok();
    }

    /// A member moved into a second extent leaves a hole of the same size:
    /// the cardinalities still sum to the data nodes, so only the v5
    /// inversion refuses it.
    #[test]
    fn overlapping_extents_are_refused_by_the_inversion() {
        let (g, idx) = setup();
        let bytes = tampered_image(&g, &idx, 1, |_, lists| {
            let (a, b) = (lists.len() - 2, lists.len() - 1);
            let hole = lists[a].remove(0);
            assert_ne!(NodeId(hole), g.root(), "the hole must not hide the root");
            let shared = lists[b][0];
            lists[a].push(shared);
            lists[a].sort();
        });
        match load_compressed_from(&bytes[..]) {
            Err(StoreError::Format(m)) => assert!(m.contains("in two extents"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    /// A directory entry near `u64::MAX` must be refused as outside the
    /// file, not overflow the bounds check.
    #[test]
    fn directory_offset_near_u64_max_is_a_format_error() {
        let (g, idx) = setup();
        let mut bytes = image(&g, &idx);
        let glen = le_u64(&bytes[16..24]) as usize;
        let ncomp = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let last = 24 + glen + 8 + 8 * (ncomp - 1);
        bytes[last..last + 8].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        let path = tempdir().join("dir-overflow.mrx");
        std::fs::write(&path, &bytes).unwrap();
        match crate::open_validated(&path, false, None) {
            Err(StoreError::Format(m)) => assert!(m.contains("outside the file"), "{m}"),
            Err(other) => panic!("expected format error, got {other:?}"),
            Ok(_) => panic!("expected format error, got a loaded snapshot"),
        }
        std::fs::remove_file(path).ok();
    }
}

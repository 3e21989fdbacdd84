//! The lazily-loaded data graph behind the demand-paged (v8) snapshot.
//!
//! [`GraphView`] hands out borrowed slices (`children(v) -> &[NodeId]`),
//! so the graph cannot be served through an evicting page cache directly —
//! a borrow must stay valid for as long as the caller holds it. What *can*
//! be deferred is the load itself: [`LazyGraph`] keeps only the label-name
//! arena and the counts resident (everything `PathExpr::compile` needs)
//! and splits the four big arrays into independently checksummed **unit
//! sections** that materialize on first access:
//!
//! * `labels` — per-node label ids,
//! * `children` — forward CSR (offsets + targets),
//! * `parents` — backward CSR,
//! * `labelext` — the label→nodes CSR.
//!
//! A top-down query under [`TrustPolicy::Proven`] touches only `labels`
//! and `parents` (the backward validator); `children` and `labelext`
//! stay on disk. That asymmetry is most of the paged cold-start win: the
//! eager v5 loader deserializes and validates every array element
//! through a byte-hashing reader before the first answer, while the lazy
//! units load as single bulk reads verified with the word-folded FNV-64
//! ([`fnv64_words`]) and validated with the same structural checks
//! [`FrozenGraph::validate`] runs — just per unit, on first touch.
//!
//! # Failure model
//!
//! Accessors are infallible by trait contract, so a unit that fails its
//! checksum or structural validation **poisons the shared
//! [`PageCache`]** (for the calling thread) and the accessor answers as if
//! the unit were empty (no rows, label 0). A failed load is never stored:
//! the next access loads again and poisons again, so a corrupt unit can
//! never serve a later query from an empty fallback. It is the same cache
//! the paged index reads through, so the serving layer's one fault probe
//! ([`mrx_index::Servable::fault_cache`]) covers graph units too: the
//! poison is checked after every query and returned as the typed error
//! instead of the answer — the same always-caught-before-serving contract
//! the paged region has. Units load once and are then shared read-only by
//! every thread, like the cache.
//!
//! [`TrustPolicy::Proven`]: mrx_index::TrustPolicy

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mrx_graph::{FrozenGraph, GraphView, LabelId, NodeId};
use mrx_pagecache::{fnv64_words, PageCache};

use crate::format::{format_err, StoreError};
use crate::wire::{HashingReader, HashingWriter};

/// Number of lazily-loaded unit sections.
pub(crate) const GRAPH_UNITS: usize = 4;

/// The eagerly-loaded core of a paged graph: counts, root, and the validated
/// label-name arena. Everything query compilation touches, nothing sized
/// by the corpus.
pub(crate) struct GraphCore {
    pub n: usize,
    pub root: NodeId,
    pub nedges: usize,
    pub npedges: usize,
    pub name_off: Vec<u32>,
    pub name_bytes: Vec<u8>,
    pub name_order: Vec<u32>,
}

impl GraphCore {
    pub fn num_labels(&self) -> usize {
        self.name_order.len()
    }

    /// Payload byte length of unit `i`, derived from the core counts (the
    /// unit frames repeat it, and the reader cross-checks).
    pub fn unit_len(&self, i: usize) -> u64 {
        let (rows, tgts) = match i {
            0 => return 4 * self.n as u64,
            1 => (self.n + 1, self.nedges),
            2 => (self.n + 1, self.npedges),
            _ => (self.num_labels() + 1, self.n),
        };
        4 * (rows as u64 + tgts as u64)
    }
}

/// Serializes the eager graph core (standard byte-hashed section payload).
pub(crate) fn write_graph_core<W: Write>(
    w: &mut HashingWriter<W>,
    g: &FrozenGraph,
) -> io::Result<()> {
    w.write_u32(g.node_count() as u32)?;
    w.write_u32(g.root().0)?;
    w.write_u32(g.child_tgt.len() as u32)?;
    w.write_u32(g.parent_tgt.len() as u32)?;
    crate::compressed::write_arr(w, g.name_off.iter().copied())?;
    crate::compressed::write_bytes(w, &g.name_bytes)?;
    crate::compressed::write_arr(w, g.name_order.iter().copied())
}

/// Deserializes and validates the eager core: name arena shape, UTF-8,
/// sorted `name_order` permutation, root in range. The unit arrays are
/// *not* read here — only their lengths become computable.
pub(crate) fn read_graph_core(r: &mut HashingReader<&[u8]>) -> Result<GraphCore, StoreError> {
    let n = r.read_u32()? as usize;
    if n == 0 {
        return Err(format_err("paged graph has no nodes"));
    }
    let root = NodeId(r.read_u32()?);
    if root.index() >= n {
        return Err(format_err(format!("root {} out of range", root.0)));
    }
    let nedges = r.read_u32()? as usize;
    let npedges = r.read_u32()? as usize;
    let name_off = crate::compressed::read_arr(r, "name_off", |v| v)?;
    let name_bytes = crate::compressed::read_bytes(r, "name_bytes")?;
    let name_order = crate::compressed::read_arr(r, "name_order", |v| v)?;
    let nl = name_order.len();
    if nl == 0 {
        return Err(format_err("paged graph has no labels"));
    }
    if name_off.len() != nl + 1 {
        return Err(format_err(format!(
            "name offsets: {} entries for {nl} labels",
            name_off.len()
        )));
    }
    if name_off[0] != 0 || name_off[nl] as usize != name_bytes.len() {
        return Err(format_err("name offsets do not span the arena"));
    }
    if name_off.windows(2).any(|w| w[0] > w[1]) {
        return Err(format_err("name offsets not monotone"));
    }
    for l in 0..nl {
        let (lo, hi) = (name_off[l] as usize, name_off[l + 1] as usize);
        if std::str::from_utf8(&name_bytes[lo..hi]).is_err() {
            return Err(format_err(format!("label {l} name is not UTF-8")));
        }
    }
    let mut seen = vec![false; nl];
    for &l in &name_order {
        if l as usize >= nl || std::mem::replace(&mut seen[l as usize], true) {
            return Err(format_err("name_order is not a permutation of label ids"));
        }
    }
    let name_at =
        |l: u32| &name_bytes[name_off[l as usize] as usize..name_off[l as usize + 1] as usize];
    if name_order.windows(2).any(|w| name_at(w[0]) > name_at(w[1])) {
        return Err(format_err("name_order not sorted by name"));
    }
    Ok(GraphCore {
        n,
        root,
        nedges,
        npedges,
        name_off,
        name_bytes,
        name_order,
    })
}

/// The raw little-endian payloads of the four unit sections, in unit
/// order. The writer frames each as `u64(len) payload u64(fnv64_words)`.
pub(crate) fn graph_unit_payloads(g: &FrozenGraph) -> [Vec<u8>; GRAPH_UNITS] {
    fn push_u32s(out: &mut Vec<u8>, it: impl Iterator<Item = u32>) {
        for v in it {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    let mut labels = Vec::with_capacity(4 * g.node_count());
    push_u32s(&mut labels, g.node_labels.iter().map(|l| l.0));
    let mut children = Vec::with_capacity(4 * (g.child_off.len() + g.child_tgt.len()));
    push_u32s(&mut children, g.child_off.iter().copied());
    push_u32s(&mut children, g.child_tgt.iter().map(|v| v.0));
    let mut parents = Vec::with_capacity(4 * (g.parent_off.len() + g.parent_tgt.len()));
    push_u32s(&mut parents, g.parent_off.iter().copied());
    push_u32s(&mut parents, g.parent_tgt.iter().map(|v| v.0));
    let mut labelext = Vec::with_capacity(4 * (g.label_off.len() + g.label_tgt.len()));
    push_u32s(&mut labelext, g.label_off.iter().copied());
    push_u32s(&mut labelext, g.label_tgt.iter().map(|v| v.0));
    [labels, children, parents, labelext]
}

/// Little-endian `u32` lanes of `bytes` (sub-word tail ignored; unit
/// payload lengths are exact multiples of four by construction).
fn decode_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

const UNIT_NAMES: [&str; GRAPH_UNITS] = [
    "graph labels",
    "graph children",
    "graph parents",
    "graph label extents",
];

/// One direction of CSR adjacency (or the label→nodes CSR).
struct Csr {
    off: Vec<u32>,
    tgt: Vec<NodeId>,
}

impl Csr {
    fn row(&self, i: usize) -> &[NodeId] {
        &self.tgt[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// The unit in `cell`, loading it with `load` on first touch. Only a
/// successful load is stored; racing first touches may both load, and one
/// result wins.
fn unit<T>(
    cell: &OnceLock<T>,
    load: impl FnOnce() -> Result<T, StoreError>,
) -> Result<&T, StoreError> {
    if let Some(v) = cell.get() {
        return Ok(v);
    }
    let v = load()?;
    Ok(cell.get_or_init(|| v))
}

/// A [`GraphView`] whose adjacency loads on first touch — see the module
/// docs. Create via the paged reader ([`crate::PagedFile`]); hand it to any
/// evaluator generic over [`GraphView`].
pub struct LazyGraph {
    cache: Arc<PageCache>,
    core: GraphCore,
    /// Absolute file offset of each unit section frame.
    unit_off: [u64; GRAPH_UNITS],
    labels: OnceLock<Vec<LabelId>>,
    children: OnceLock<Csr>,
    parents: OnceLock<Csr>,
    labelext: OnceLock<Csr>,
    lazy_bytes: AtomicU64,
}

impl LazyGraph {
    pub(crate) fn new(
        core: GraphCore,
        unit_off: [u64; GRAPH_UNITS],
        cache: Arc<PageCache>,
    ) -> Self {
        LazyGraph {
            cache,
            core,
            unit_off,
            labels: OnceLock::new(),
            children: OnceLock::new(),
            parents: OnceLock::new(),
            labelext: OnceLock::new(),
            lazy_bytes: AtomicU64::new(0),
        }
    }

    /// Reads and digest-checks unit `i`'s payload (one bulk positioned
    /// read; no per-element hashing).
    fn unit_bytes(&self, i: usize) -> Result<Vec<u8>, StoreError> {
        let expect = self.core.unit_len(i);
        let off = self.unit_off[i];
        let mut word = [0u8; 8];
        self.cache.read_unpaged(off, &mut word)?;
        if u64::from_le_bytes(word) != expect {
            return Err(format_err(format!(
                "{} frame declares {} bytes, core counts say {expect}",
                UNIT_NAMES[i],
                u64::from_le_bytes(word)
            )));
        }
        let mut buf = vec![0u8; expect as usize];
        self.cache.read_unpaged(off + 8, &mut buf)?;
        self.cache.read_unpaged(off + 8 + expect, &mut word)?;
        if fnv64_words(&buf) != u64::from_le_bytes(word) {
            return Err(StoreError::Checksum {
                section: UNIT_NAMES[i].into(),
            });
        }
        self.lazy_bytes.fetch_add(16 + expect, Ordering::Relaxed);
        Ok(buf)
    }

    fn load_labels(&self) -> Result<Vec<LabelId>, StoreError> {
        let buf = self.unit_bytes(0)?;
        let nl = self.core.num_labels() as u32;
        // Bulk-convert, then range-check in a separate pass: both loops
        // vectorize, where a fused check-as-you-push loop does not — this
        // load is on the time-to-first-answer critical path.
        let out: Vec<LabelId> = decode_u32s(&buf).map(LabelId).collect();
        if let Some(bad) = out.iter().map(|l| l.0).max().filter(|&m| m >= nl) {
            return Err(format_err(format!("node label {bad} out of range")));
        }
        Ok(out)
    }

    /// Loads one CSR unit and runs the same structural checks the eager
    /// loader's `FrozenGraph::validate` applies: offset shape/monotonicity
    /// and target ids in range.
    fn load_csr(&self, i: usize, rows: usize, id_bound: u32) -> Result<Csr, StoreError> {
        let buf = self.unit_bytes(i)?;
        let err = |m: String| format_err(format!("{}: {m}", UNIT_NAMES[i]));
        // Same split as `load_labels`: bulk conversion first, then whole-
        // array validation scans that run at memory bandwidth.
        let (off_bytes, tgt_bytes) = buf.split_at(4 * (rows + 1));
        let off: Vec<u32> = decode_u32s(off_bytes).collect();
        let tgt: Vec<NodeId> = decode_u32s(tgt_bytes).map(NodeId).collect();
        if off[0] != 0 || off[rows] as usize != tgt.len() {
            return Err(err("offsets do not span the target array".into()));
        }
        if off.windows(2).any(|w| w[0] > w[1]) {
            return Err(err("offsets not monotone".into()));
        }
        if let Some(bad) = tgt.iter().map(|v| v.0).max().filter(|&m| m >= id_bound) {
            return Err(err(format!("target id {bad} out of range")));
        }
        Ok(Csr { off, tgt })
    }

    /// Loads the label→nodes CSR with its cross-checks against the label
    /// array (which this may itself fault in).
    fn load_labelext(&self) -> Result<Csr, StoreError> {
        let nl = self.core.num_labels();
        let csr = self.load_csr(3, nl, self.core.n as u32)?;
        if csr.tgt.len() != self.core.n {
            return Err(format_err("label CSR does not cover every node"));
        }
        let labels = unit(&self.labels, || self.load_labels())?;
        for l in 0..nl {
            let nodes = csr.row(l);
            if nodes.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format_err(format!(
                    "label {l} extent not strictly ascending"
                )));
            }
            if nodes.iter().any(|&v| labels[v.index()].index() != l) {
                return Err(format_err(format!(
                    "label {l} extent disagrees with node labels"
                )));
            }
        }
        Ok(csr)
    }

    /// A unit for an infallible accessor: a load failure poisons the
    /// calling thread and yields `None` (the accessor answers empty). A
    /// thread that is already poisoned skips the load — its answer is
    /// discarded anyway.
    fn served<'a, T>(
        &self,
        cell: &'a OnceLock<T>,
        load: impl FnOnce() -> Result<T, StoreError>,
    ) -> Option<&'a T> {
        if cell.get().is_none() && self.cache.poisoned() {
            return None;
        }
        unit(cell, load).map_err(|e| self.cache.poison(e)).ok()
    }

    /// Number of nodes (eager; ids are dense in `0..node_count()`).
    pub fn node_count(&self) -> usize {
        self.core.n
    }

    /// Number of directed edges (eager count; the arrays may be cold).
    pub fn edge_count(&self) -> usize {
        self.core.nedges
    }

    /// Number of distinct labels (eager).
    pub fn num_labels(&self) -> usize {
        self.core.num_labels()
    }

    /// The root node (eager).
    pub fn root(&self) -> NodeId {
        self.core.root
    }

    /// Bytes of unit sections materialized so far (frames included) —
    /// the lazy complement of the reader's eager `bytes_read`.
    pub fn lazy_bytes_loaded(&self) -> u64 {
        self.lazy_bytes.load(Ordering::Relaxed)
    }

    /// Digest-checks all four unit sections straight from the source
    /// without materializing or caching them — the offline integrity pass
    /// behind [`crate::PagedFile::verify`]. Serving instead verifies each
    /// unit lazily on first touch.
    pub fn verify_units(&self) -> Result<(), StoreError> {
        for i in 0..GRAPH_UNITS {
            self.unit_bytes(i)?;
        }
        Ok(())
    }

    /// Forces every unit resident, propagating the first load error
    /// instead of poisoning — the fallible bulk counterpart of the
    /// accessors.
    pub fn ensure_all(&self) -> Result<(), StoreError> {
        self.frozen_parts().map(|_| ())
    }

    #[allow(clippy::type_complexity)]
    fn frozen_parts(&self) -> Result<(&[LabelId], &Csr, &Csr, &Csr), StoreError> {
        let n = self.core.n;
        Ok((
            unit(&self.labels, || self.load_labels())?,
            unit(&self.children, || self.load_csr(1, n, n as u32))?,
            unit(&self.parents, || self.load_csr(2, n, n as u32))?,
            unit(&self.labelext, || self.load_labelext())?,
        ))
    }

    /// Materializes everything into an owned [`FrozenGraph`] (with its
    /// full structural validation) — the round-trip/diagnostic exit, not
    /// a serving path.
    pub fn to_frozen(&self) -> Result<FrozenGraph, StoreError> {
        let (labels, children, parents, labelext) = self.frozen_parts()?;
        let g = FrozenGraph {
            node_labels: labels.to_vec(),
            child_off: children.off.clone(),
            child_tgt: children.tgt.clone(),
            parent_off: parents.off.clone(),
            parent_tgt: parents.tgt.clone(),
            label_off: labelext.off.clone(),
            label_tgt: labelext.tgt.clone(),
            name_off: self.core.name_off.clone(),
            name_bytes: self.core.name_bytes.clone(),
            name_order: self.core.name_order.clone(),
            root: self.core.root,
        };
        g.validate().map_err(format_err)?;
        Ok(g)
    }
}

impl GraphView for LazyGraph {
    fn node_count(&self) -> usize {
        self.core.n
    }

    fn root(&self) -> NodeId {
        self.core.root
    }

    fn label(&self, v: NodeId) -> LabelId {
        self.served(&self.labels, || self.load_labels())
            .and_then(|l| l.get(v.index()).copied())
            .unwrap_or(LabelId(0))
    }

    fn children(&self, v: NodeId) -> &[NodeId] {
        let n = self.core.n;
        self.served(&self.children, || self.load_csr(1, n, n as u32))
            .map_or(&[], |c| c.row(v.index()))
    }

    fn parents(&self, v: NodeId) -> &[NodeId] {
        let n = self.core.n;
        self.served(&self.parents, || self.load_csr(2, n, n as u32))
            .map_or(&[], |c| c.row(v.index()))
    }

    fn label_nodes(&self, l: LabelId) -> &[NodeId] {
        self.served(&self.labelext, || self.load_labelext())
            .map_or(&[], |c| c.row(l.index()))
    }

    fn label_lookup(&self, name: &str) -> Option<LabelId> {
        self.core
            .name_order
            .binary_search_by(|&l| self.label_str(LabelId(l)).cmp(name))
            .ok()
            .map(|pos| LabelId(self.core.name_order[pos]))
    }

    fn label_str(&self, l: LabelId) -> &str {
        let i = l.index();
        let bytes = &self.core.name_bytes
            [self.core.name_off[i] as usize..self.core.name_off[i + 1] as usize];
        // The name arena was UTF-8-validated when the core section loaded;
        // the fallback keeps this surface panic-free regardless.
        std::str::from_utf8(bytes).unwrap_or("")
    }

    fn num_labels(&self) -> usize {
        self.core.num_labels()
    }
}

//! The lazily-loaded data graph behind the demand-paged (v9) snapshot.
//!
//! [`GraphView`] hands out borrowed slices (`children(v) -> &[NodeId]`),
//! so the graph cannot be served through an evicting page cache directly —
//! a borrow must stay valid for as long as the caller holds it. What *can*
//! be deferred is the load itself: [`LazyGraph`] keeps only the label-name
//! arena and the counts resident (everything `PathExpr::compile` needs).
//! The file stores two independently checksummed **unit sections**, in
//! the row codec of [`mrx_postings::RowReader`]:
//!
//! * `labels` — per-node label ids, one LEB128 word each,
//! * `parents` — the backward adjacency, one ascending row per node.
//!
//! The other two arrays only mirror these, so the file does not store
//! them; each is derived on first touch:
//!
//! * `children` — the forward adjacency, the transpose of `parents`,
//! * `labelext` — the label→nodes CSR, `labels` grouped by one counting
//!   pass.
//!
//! A top-down query under [`TrustPolicy::Proven`] touches only `labels`
//! and `parents` (the backward validator); `children` and `labelext`
//! are never built. Each stored unit loads as one bulk read verified with
//! the word-folded FNV-64 ([`fnv64_words`]) and decoded by the checked
//! codec, which refuses truncated or overlong varints, rows that overrun
//! the unit and ids out of range. A derived unit is correct by
//! construction: the writer refuses a graph whose halves are not exact
//! mirrors ([`FrozenGraph::validate`]).
//!
//! # Failure model
//!
//! Accessors are infallible by trait contract, so a unit that fails its
//! checksum or its decode **poisons the shared [`PageCache`]** (for the
//! calling thread) and the accessor answers as if the unit were empty (no
//! rows, label 0); a derived unit fails with the unit it derives from. A
//! failed load is never stored: the next access loads again and poisons
//! again, so a corrupt unit can never serve a later query from an empty
//! fallback. It is the same cache the paged index reads through, so the
//! serving layer's one fault probe
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
use std::sync::{Arc, OnceLock};

use mrx_graph::{FrozenGraph, GraphView, LabelId, NodeId};
use mrx_pagecache::{fnv64_words, PageCache};
use mrx_postings::{put_rows, put_words, RowOrder, RowReader};

use crate::format::{format_err, StoreError};
use crate::wire::{HashingReader, HashingWriter};

/// Number of stored unit sections.
pub(crate) const GRAPH_UNITS: usize = 2;

/// The eagerly-loaded core of a paged graph: counts, root, the unit
/// lengths, and the validated label-name arena. Everything query
/// compilation touches, nothing sized by the corpus.
pub(crate) struct GraphCore {
    pub n: usize,
    pub root: NodeId,
    pub nedges: usize,
    /// Payload byte length of each unit section (the unit frames repeat
    /// it, and the reader cross-checks).
    pub unit_len: [u64; GRAPH_UNITS],
    pub name_off: Vec<u32>,
    pub name_bytes: Vec<u8>,
    pub name_order: Vec<u32>,
}

impl GraphCore {
    pub fn num_labels(&self) -> usize {
        self.name_order.len()
    }
}

/// Serializes the eager graph core (standard byte-hashed section payload)
/// for unit payloads of `unit_len` bytes.
pub(crate) fn write_graph_core<W: Write>(
    w: &mut HashingWriter<W>,
    g: &FrozenGraph,
    unit_len: [u64; GRAPH_UNITS],
) -> io::Result<()> {
    w.write_u32(g.node_count() as u32)?;
    w.write_u32(g.root().0)?;
    w.write_u32(g.child_tgt.len() as u32)?;
    for len in unit_len {
        w.write_u64(len)?;
    }
    crate::compressed::write_arr(w, g.name_off.iter().copied())?;
    crate::compressed::write_bytes(w, &g.name_bytes)?;
    crate::compressed::write_arr(w, g.name_order.iter().copied())
}

/// Deserializes and validates the eager core: name arena shape, UTF-8,
/// sorted `name_order` permutation, root in range. The unit sections are
/// *not* read here — only their lengths become known.
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
    let unit_len = [r.read_u64()?, r.read_u64()?];
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
        unit_len,
        name_off,
        name_bytes,
        name_order,
    })
}

/// The payloads of the two unit sections, in unit order: the labels as
/// words and the parent rows. The writer frames each as
/// `u64(len) payload u64(fnv64_words)`. `g` must have passed
/// [`FrozenGraph::validate`], so the halves the reader derives equal its
/// own.
pub(crate) fn graph_unit_payloads(g: &FrozenGraph) -> Result<[Vec<u8>; GRAPH_UNITS], StoreError> {
    let mut labels = Vec::with_capacity(g.node_count());
    put_words(&mut labels, g.node_labels.iter().map(|l| l.0));
    let mut parents = Vec::with_capacity(2 * g.node_count());
    put_rows(
        &mut parents,
        &g.parent_off,
        &g.parent_tgt,
        RowOrder::Ascending,
    )
    .map_err(|e| format_err(format!("graph parents: {e}")))?;
    Ok([labels, parents])
}

const UNIT_NAMES: [&str; GRAPH_UNITS] = ["graph labels", "graph parents"];

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
    parents: OnceLock<Csr>,
    /// Derived from `parents`.
    children: OnceLock<Csr>,
    /// Derived from `labels`.
    labelext: OnceLock<Csr>,
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
            parents: OnceLock::new(),
            children: OnceLock::new(),
            labelext: OnceLock::new(),
        }
    }

    /// Reads and digest-checks unit `i`'s payload (one bulk positioned
    /// read; no per-element hashing).
    fn unit_bytes(&self, i: usize) -> Result<Vec<u8>, StoreError> {
        let expect = self.core.unit_len[i];
        let off = self.unit_off[i];
        let mut word = [0u8; 8];
        self.cache.read_unpaged(off, &mut word)?;
        if u64::from_le_bytes(word) != expect {
            return Err(format_err(format!(
                "{} frame declares {} bytes, the graph core says {expect}",
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
        Ok(buf)
    }

    fn load_labels(&self) -> Result<Vec<LabelId>, StoreError> {
        let buf = self.unit_bytes(0)?;
        let err = |e| format_err(format!("{}: {e}", UNIT_NAMES[0]));
        let mut r = RowReader::new(&buf);
        let labels = r
            .words(self.core.n, self.core.num_labels() as u64, LabelId)
            .map_err(err)?;
        r.finish().map_err(err)?;
        Ok(labels)
    }

    fn load_parents(&self) -> Result<Csr, StoreError> {
        let buf = self.unit_bytes(1)?;
        let err = |e| format_err(format!("{}: {e}", UNIT_NAMES[1]));
        let n = self.core.n;
        let mut r = RowReader::new(&buf);
        let (off, tgt) = r.rows(n, n as u32, RowOrder::Ascending).map_err(err)?;
        r.finish().map_err(err)?;
        if tgt.len() != self.core.nedges {
            return Err(format_err(format!(
                "{}: {} edges, the graph core says {}",
                UNIT_NAMES[1],
                tgt.len(),
                self.core.nedges
            )));
        }
        Ok(Csr { off, tgt })
    }

    /// The child rows: the transpose of the parent rows, which this may
    /// itself fault in.
    fn derive_children(&self) -> Result<Csr, StoreError> {
        let parents = unit(&self.parents, || self.load_parents())?;
        let (off, tgt) = mrx_postings::transpose(&parents.off, &parents.tgt, self.core.n);
        Ok(Csr { off, tgt })
    }

    /// The label→nodes CSR: the node labels grouped by one counting pass
    /// (which may itself fault the labels in).
    fn derive_labelext(&self) -> Result<Csr, StoreError> {
        let labels = unit(&self.labels, || self.load_labels())?;
        let (off, ids) =
            mrx_postings::group_by_key(labels.len(), self.core.num_labels(), |i| labels[i].0);
        Ok(Csr {
            off,
            tgt: ids.into_iter().map(NodeId).collect(),
        })
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

    /// Digest-checks both unit sections straight from the source
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
        Ok((
            unit(&self.labels, || self.load_labels())?,
            unit(&self.children, || self.derive_children())?,
            unit(&self.parents, || self.load_parents())?,
            unit(&self.labelext, || self.derive_labelext())?,
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
        self.served(&self.children, || self.derive_children())
            .map_or(&[], |c| c.row(v.index()))
    }

    fn parents(&self, v: NodeId) -> &[NodeId] {
        self.served(&self.parents, || self.load_parents())
            .map_or(&[], |c| c.row(v.index()))
    }

    fn label_nodes(&self, l: LabelId) -> &[NodeId] {
        self.served(&self.labelext, || self.derive_labelext())
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

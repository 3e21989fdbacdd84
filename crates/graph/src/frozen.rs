//! An immutable, flat-arena snapshot of a [`DataGraph`] for serving.
//!
//! [`FrozenGraph`] stores exactly the arrays the query path touches — CSR
//! adjacency in both directions, per-node labels, the label→nodes CSR, and
//! a flat label-name arena — and nothing else. There are no per-node
//! heap objects: every field is one contiguous allocation. The `.mrx` v5
//! snapshot stores it with its CSRs packed ([`FrozenGraph::pack_csr`]).
//!
//! Reference-edge bookkeeping (`ref_edges`, `tree_parent`, `EdgeKind`) is
//! deliberately dropped: serving traverses the *merged* adjacency only, so
//! a frozen snapshot cannot be thawed back into a builder. Re-freeze from
//! the live graph after mutating it.
//!
//! Adjacency arrays are copied verbatim from the live CSR, so any
//! evaluator that walks a [`GraphView`] explores nodes in exactly the same
//! order over either representation — the invariant behind the
//! bit-identical answer/cost guarantee.

use crate::view::GraphView;
use crate::{DataGraph, LabelId, NodeId};
use mrx_postings::PostingArena;

/// The adjacency and label CSRs of a [`FrozenGraph`] packed into
/// compressed posting arenas — the graph half of the `.mrx` v5 on-disk
/// layout. Every CSR row is strictly ascending (sorted and
/// deduplicated), so packing is lossless; [`FrozenGraph::from_packed_csr`]
/// inverts it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedGraphCsr {
    /// One posting list per node: its sorted child row.
    pub children: PostingArena,
    /// One posting list per node: its sorted parent row.
    pub parents: PostingArena,
    /// One posting list per label: its ascending node extent.
    pub labels: PostingArena,
}

/// Immutable CSR snapshot of a data graph.
///
/// Fields are public so `mrx-store` can serialize them verbatim and
/// reassemble a snapshot from disk; [`FrozenGraph::validate`] checks every
/// structural invariant after such a reassembly. Code outside the store
/// should treat the fields as read-only and use the accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenGraph {
    /// Label of each node, indexed by node id.
    pub node_labels: Vec<LabelId>,
    /// CSR offsets into `child_tgt`; length `node_count + 1`.
    pub child_off: Vec<u32>,
    /// Concatenated sorted child lists (tree + reference edges).
    pub child_tgt: Vec<NodeId>,
    /// CSR offsets into `parent_tgt`; length `node_count + 1`.
    pub parent_off: Vec<u32>,
    /// Concatenated sorted parent lists.
    pub parent_tgt: Vec<NodeId>,
    /// CSR offsets into `label_tgt`; length `num_labels + 1`.
    pub label_off: Vec<u32>,
    /// Nodes grouped by label, ascending node id within each label.
    pub label_tgt: Vec<NodeId>,
    /// Offsets into `name_bytes`; length `num_labels + 1`.
    pub name_off: Vec<u32>,
    /// UTF-8 label names, concatenated in label-id order.
    pub name_bytes: Vec<u8>,
    /// Label ids sorted by name — the binary-search side of
    /// [`GraphView::label_lookup`].
    pub name_order: Vec<u32>,
    /// The distinguished root node.
    pub root: NodeId,
}

impl FrozenGraph {
    /// Compiles a live graph into its frozen serving form.
    pub fn freeze(g: &DataGraph) -> FrozenGraph {
        let n = g.node_count();
        let node_labels: Vec<LabelId> = (0..n).map(|i| g.label(NodeId(i as u32))).collect();
        let (child_off, child_tgt) = g.children_csr();
        let (parent_off, parent_tgt) = g.parents_csr();

        let num_labels = g.labels().len();
        let mut label_off = Vec::with_capacity(num_labels + 1);
        let mut label_tgt = Vec::new();
        label_off.push(0u32);
        for l in 0..num_labels {
            label_tgt.extend_from_slice(g.label_nodes(LabelId(l as u32)));
            label_off.push(label_tgt.len() as u32);
        }

        let mut name_off = Vec::with_capacity(num_labels + 1);
        let mut name_bytes = Vec::new();
        name_off.push(0u32);
        for (_, name) in g.labels().iter() {
            name_bytes.extend_from_slice(name.as_bytes());
            name_off.push(name_bytes.len() as u32);
        }
        let mut name_order: Vec<u32> = (0..num_labels as u32).collect();
        name_order.sort_unstable_by_key(|&l| g.label_str(LabelId(l)));

        FrozenGraph {
            node_labels,
            child_off: child_off.to_vec(),
            child_tgt: child_tgt.to_vec(),
            parent_off: parent_off.to_vec(),
            parent_tgt: parent_tgt.to_vec(),
            label_off,
            label_tgt,
            name_off,
            name_bytes,
            name_order,
            root: g.root(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of directed edges (tree + reference, merged).
    pub fn edge_count(&self) -> usize {
        self.child_tgt.len()
    }

    /// Number of distinct labels.
    pub fn num_labels(&self) -> usize {
        self.name_order.len()
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The label of node `v`.
    pub fn label(&self, v: NodeId) -> LabelId {
        self.node_labels[v.index()]
    }

    /// Sorted, deduplicated successors of `v`.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.child_tgt[self.child_off[i] as usize..self.child_off[i + 1] as usize]
    }

    /// Sorted, deduplicated predecessors of `v`.
    pub fn parents(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.parent_tgt[self.parent_off[i] as usize..self.parent_off[i + 1] as usize]
    }

    /// All nodes with label `l`, ascending by node id.
    pub fn label_nodes(&self, l: LabelId) -> &[NodeId] {
        let i = l.index();
        &self.label_tgt[self.label_off[i] as usize..self.label_off[i + 1] as usize]
    }

    /// The name of label `l`.
    pub fn label_str(&self, l: LabelId) -> &str {
        let i = l.index();
        let bytes = &self.name_bytes[self.name_off[i] as usize..self.name_off[i + 1] as usize];
        // Invariant: arena bytes come from interned `str`s (or have passed
        // `validate` after a load), so this never fails.
        std::str::from_utf8(bytes).expect("label arena is UTF-8")
    }

    /// Resolves a label name by binary search over `name_order`.
    pub fn label_lookup(&self, name: &str) -> Option<LabelId> {
        self.name_order
            .binary_search_by(|&l| self.label_str(LabelId(l)).cmp(name))
            .ok()
            .map(|pos| LabelId(self.name_order[pos]))
    }

    /// Packs the adjacency and label CSRs into posting arenas — the
    /// compressed compile mode behind the v5 snapshot layout. Tree-shaped
    /// rows delta-encode to about one byte per edge versus four raw.
    pub fn pack_csr(&self) -> PackedGraphCsr {
        let mut children = PostingArena::new();
        let mut parents = PostingArena::new();
        let mut labels = PostingArena::new();
        for v in 0..self.node_count() {
            let v = NodeId(v as u32);
            children.push_list(self.children(v));
            parents.push_list(self.parents(v));
        }
        for l in 0..self.num_labels() {
            labels.push_list(self.label_nodes(LabelId(l as u32)));
        }
        PackedGraphCsr {
            children,
            parents,
            labels,
        }
    }

    /// Rebuilds a frozen graph from packed CSRs plus the remaining raw
    /// arrays, then validates every structural invariant (the arenas
    /// themselves must already be payload-valid, e.g. via
    /// [`PostingArena::from_parts`]). The inverse of
    /// [`FrozenGraph::pack_csr`].
    pub fn from_packed_csr(
        node_labels: Vec<LabelId>,
        csr: &PackedGraphCsr,
        name_off: Vec<u32>,
        name_bytes: Vec<u8>,
        name_order: Vec<u32>,
        root: NodeId,
    ) -> Result<FrozenGraph, String> {
        let (child_off, child_tgt) = csr.children.decode_csr();
        let (parent_off, parent_tgt) = csr.parents.decode_csr();
        let (label_off, label_tgt) = csr.labels.decode_csr();
        let g = FrozenGraph {
            node_labels,
            child_off,
            child_tgt,
            parent_off,
            parent_tgt,
            label_off,
            label_tgt,
            name_off,
            name_bytes,
            name_order,
            root,
        };
        g.validate()?;
        Ok(g)
    }

    /// Checks every structural invariant; call after reassembling a
    /// snapshot from untrusted bytes.
    ///
    /// Verifies offset-array shape and monotonicity, id ranges, strictly
    /// ascending rows, parent rows that are exactly the child rows' transpose,
    /// the label CSR against `node_labels`, and that the name arena is
    /// valid UTF-8 with `name_order` a permutation sorted by name.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.node_labels.len();
        let nl = self.name_order.len();
        check_csr("child", &self.child_off, &self.child_tgt, n, n)?;
        check_csr("parent", &self.parent_off, &self.parent_tgt, n, n)?;
        // Each direction can be well formed on its own and still disagree
        // with the other; evaluators walk both.
        if !mrx_postings::is_transpose(
            &self.child_off,
            &self.child_tgt,
            &self.parent_off,
            &self.parent_tgt,
        ) {
            return Err("parent rows are not the transpose of the child rows".into());
        }
        check_csr("label", &self.label_off, &self.label_tgt, nl, n)?;
        if self.name_off.len() != nl + 1 {
            return Err(format!(
                "name offsets: {} entries for {} labels",
                self.name_off.len(),
                nl
            ));
        }
        if self.name_off[0] != 0 || *self.name_off.last().unwrap() as usize != self.name_bytes.len()
        {
            return Err("name offsets do not span the arena".into());
        }
        if self.name_off.windows(2).any(|w| w[0] > w[1]) {
            return Err("name offsets not monotone".into());
        }
        if n > 0 && self.root.index() >= n {
            return Err(format!("root {} out of range", self.root.0));
        }
        if self.node_labels.iter().any(|l| l.index() >= nl) {
            return Err("node label out of range".into());
        }
        // Label CSR must be exactly the grouping of `node_labels`.
        if self.label_tgt.len() != n {
            return Err("label CSR does not cover every node".into());
        }
        for l in 0..nl {
            let nodes = self.label_nodes(LabelId(l as u32));
            if nodes.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("label {l} extent not strictly ascending"));
            }
            if nodes
                .iter()
                .any(|&v| self.node_labels[v.index()].index() != l)
            {
                return Err(format!("label {l} extent disagrees with node_labels"));
            }
        }
        for l in 0..nl {
            let lo = self.name_off[l] as usize;
            let hi = self.name_off[l + 1] as usize;
            if std::str::from_utf8(&self.name_bytes[lo..hi]).is_err() {
                return Err(format!("label {l} name is not UTF-8"));
            }
        }
        let mut seen = vec![false; nl];
        for &l in &self.name_order {
            if l as usize >= nl || std::mem::replace(&mut seen[l as usize], true) {
                return Err("name_order is not a permutation of label ids".into());
            }
        }
        if self
            .name_order
            .windows(2)
            .any(|w| self.label_str(LabelId(w[0])) > self.label_str(LabelId(w[1])))
        {
            return Err("name_order not sorted by name".into());
        }
        Ok(())
    }
}

/// Validates one CSR: `off` has `rows + 1` monotone entries spanning
/// `tgt`, and every target id is below `id_bound`.
fn check_csr(
    what: &str,
    off: &[u32],
    tgt: &[NodeId],
    rows: usize,
    id_bound: usize,
) -> Result<(), String> {
    if off.len() != rows + 1 {
        return Err(format!(
            "{what} offsets: {} entries for {rows} rows",
            off.len()
        ));
    }
    if off[0] != 0 || *off.last().unwrap() as usize != tgt.len() {
        return Err(format!("{what} offsets do not span the target array"));
    }
    if off.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("{what} offsets not monotone"));
    }
    if tgt.iter().any(|&v| v.index() >= id_bound) {
        return Err(format!("{what} target id out of range"));
    }
    Ok(())
}

impl GraphView for FrozenGraph {
    fn node_count(&self) -> usize {
        FrozenGraph::node_count(self)
    }

    fn root(&self) -> NodeId {
        FrozenGraph::root(self)
    }

    fn label(&self, v: NodeId) -> LabelId {
        FrozenGraph::label(self, v)
    }

    fn children(&self, v: NodeId) -> &[NodeId] {
        FrozenGraph::children(self, v)
    }

    fn parents(&self, v: NodeId) -> &[NodeId] {
        FrozenGraph::parents(self, v)
    }

    fn label_nodes(&self, l: LabelId) -> &[NodeId] {
        FrozenGraph::label_nodes(self, l)
    }

    fn label_lookup(&self, name: &str) -> Option<LabelId> {
        FrozenGraph::label_lookup(self, name)
    }

    fn label_str(&self, l: LabelId) -> &str {
        FrozenGraph::label_str(self, l)
    }

    fn num_labels(&self) -> usize {
        FrozenGraph::num_labels(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xml::parse;

    fn sample() -> DataGraph {
        parse(
            r#"<site><people><person id="p"><name/></person><person/></people>
               <auctions><auction><seller person="p"/></auction></auctions></site>"#,
        )
        .unwrap()
    }

    #[test]
    fn freeze_mirrors_live_graph() {
        let g = sample();
        let f = FrozenGraph::freeze(&g);
        f.validate().expect("fresh freeze validates");
        assert_eq!(f.node_count(), g.node_count());
        assert_eq!(f.edge_count(), g.edge_count());
        assert_eq!(f.root(), g.root());
        assert_eq!(f.num_labels(), g.labels().len());
        for v in g.nodes() {
            assert_eq!(f.label(v), g.label(v));
            assert_eq!(f.children(v), g.children(v));
            assert_eq!(f.parents(v), g.parents(v));
        }
        for (l, name) in g.labels().iter() {
            assert_eq!(f.label_str(l), name);
            assert_eq!(f.label_nodes(l), g.label_nodes(l));
            assert_eq!(f.label_lookup(name), Some(l));
        }
        assert_eq!(f.label_lookup("nosuchlabel"), None);
    }

    #[test]
    fn validate_rejects_corruption() {
        let g = sample();
        let ok = FrozenGraph::freeze(&g);

        let mut bad = ok.clone();
        bad.child_off[1] = u32::MAX;
        assert!(bad.validate().is_err(), "non-monotone offsets");

        let mut bad = ok.clone();
        bad.child_tgt[0] = NodeId(9999);
        assert!(bad.validate().is_err(), "target out of range");

        let mut bad = ok.clone();
        bad.node_labels[2] = LabelId(9999);
        assert!(bad.validate().is_err(), "label out of range");

        let mut bad = ok.clone();
        bad.name_order.swap(0, 1);
        assert!(bad.validate().is_err(), "unsorted name order");

        let mut bad = ok.clone();
        bad.name_bytes[0] = 0xFF;
        assert!(bad.validate().is_err(), "invalid UTF-8 name");

        // Each direction well formed on its own, but they disagree: a
        // parent row drops the root.
        let mut bad = ok.clone();
        let at = bad.parent_tgt.iter().position(|&p| p == bad.root).unwrap();
        bad.parent_tgt.remove(at);
        for o in bad.parent_off.iter_mut().filter(|o| **o as usize > at) {
            *o -= 1;
        }
        assert_eq!(
            bad.validate(),
            Err("parent rows are not the transpose of the child rows".into())
        );

        let mut bad = ok.clone();
        let v = (0..bad.node_count())
            .find(|&v| bad.child_off[v + 1] - bad.child_off[v] >= 2)
            .unwrap();
        bad.child_tgt
            .swap(bad.child_off[v] as usize, bad.child_off[v] as usize + 1);
        assert!(bad.validate().is_err(), "unsorted child row");
    }

    #[test]
    fn packed_csr_round_trips() {
        let g = sample();
        let f = FrozenGraph::freeze(&g);
        let packed = f.pack_csr();
        assert_eq!(packed.children.num_lists(), f.node_count());
        assert_eq!(packed.labels.num_lists(), f.num_labels());
        let f2 = FrozenGraph::from_packed_csr(
            f.node_labels.clone(),
            &packed,
            f.name_off.clone(),
            f.name_bytes.clone(),
            f.name_order.clone(),
            f.root,
        )
        .expect("packed round trip validates");
        assert_eq!(f, f2);
    }

    #[test]
    fn frozen_equality_is_structural() {
        let g = sample();
        assert_eq!(FrozenGraph::freeze(&g), FrozenGraph::freeze(&g));
    }
}

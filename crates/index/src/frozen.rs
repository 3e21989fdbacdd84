//! Frozen CSR snapshots of index graphs: the build and validation form of
//! the compressed serving snapshot.
//!
//! [`FrozenIndex`] compiles a live [`IndexGraph`] — slot arena with dead
//! entries, per-node `Vec`s, label lists polluted by refinement churn —
//! into flat arenas: dense ids `0..n`, one contiguous extent arena, CSR
//! parent/child adjacency, and a label→nodes CSR.
//! [`crate::CompressedIndex::from_frozen`] packs its extents for serving,
//! and [`FrozenIndex::validate`] is the invariant sweep a compressed
//! component loaded from untrusted bytes must pass.
//!
//! Freezing renumbers live slots in ascending order. This monotone map is
//! what makes live/snapshot correspondence exact — see the module docs of
//! [`crate::view`].

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use mrx_graph::{LabelId, NodeId};

use crate::{IdxId, IndexGraph};

/// An immutable, flat-arena snapshot of one [`IndexGraph`].
///
/// Node ids are dense: every id in `0..labels.len()` is a live node. The
/// fields are public so the store layer can write them to disk verbatim
/// and reconstruct the snapshot by reading them back; use [`validate`] on
/// any instance built from untrusted bytes.
///
/// [`validate`]: FrozenIndex::validate
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenIndex {
    /// Label of each node.
    pub labels: Vec<LabelId>,
    /// Claimed local similarity of each node.
    pub k: Vec<u32>,
    /// Proven local similarity of each node.
    pub genuine: Vec<u32>,
    /// `extent_off[v]..extent_off[v+1]` indexes node `v`'s extent in
    /// [`extent_arena`](Self::extent_arena). Length `n + 1`.
    pub extent_off: Vec<u32>,
    /// All extents, concatenated in node order; each slice sorted.
    pub extent_arena: Vec<NodeId>,
    /// CSR offsets into [`child_tgt`](Self::child_tgt). Length `n + 1`.
    pub child_off: Vec<u32>,
    /// Child adjacency; each row sorted and deduped.
    pub child_tgt: Vec<IdxId>,
    /// CSR offsets into [`parent_tgt`](Self::parent_tgt). Length `n + 1`.
    pub parent_off: Vec<u32>,
    /// Parent adjacency; each row sorted and deduped.
    pub parent_tgt: Vec<IdxId>,
    /// Inverse extent map: `node_of_data[o]` is the node whose extent
    /// contains data node `o`. Length = data-graph node count.
    pub node_of_data: Vec<IdxId>,
    /// The node whose extent contains the data graph's root.
    pub root: IdxId,
    /// CSR offsets into [`by_label_ids`](Self::by_label_ids), one row per
    /// label in the data graph's alphabet. Length `num_labels + 1`.
    pub by_label_off: Vec<u32>,
    /// Nodes grouped by label, ascending ids within each row.
    pub by_label_ids: Vec<IdxId>,
    /// The live graph's [`IndexGraph::lemma2_safe`] at freeze time.
    pub lemma2: bool,
    /// The live graph's [`IndexGraph::mutation_epoch`] at freeze time.
    pub epoch: u64,
}

impl FrozenIndex {
    /// Compiles a live index graph into its frozen form.
    ///
    /// Live slot ids are renumbered in ascending order (dead slots drop
    /// out); extents, similarities and adjacency are copied, and the
    /// label→nodes map is rebuilt dense — refinement churn in the live
    /// `by_label` lists does not survive freezing.
    pub fn freeze(ig: &IndexGraph) -> FrozenIndex {
        // Monotone renumbering: alive slots in ascending id order.
        let mut map = vec![u32::MAX; ig.slot_bound()];
        let mut n = 0u32;
        for v in ig.iter() {
            map[v.index()] = n;
            n += 1;
        }
        let n = n as usize;

        let mut fz = FrozenIndex {
            labels: Vec::with_capacity(n),
            k: Vec::with_capacity(n),
            genuine: Vec::with_capacity(n),
            extent_off: Vec::with_capacity(n + 1),
            extent_arena: Vec::with_capacity(ig.data_node_count()),
            child_off: Vec::with_capacity(n + 1),
            child_tgt: Vec::new(),
            parent_off: Vec::with_capacity(n + 1),
            parent_tgt: Vec::new(),
            node_of_data: Vec::with_capacity(ig.data_node_count()),
            root: IdxId(map[ig.root_node().index()]),
            by_label_off: Vec::new(),
            by_label_ids: Vec::with_capacity(n),
            lemma2: ig.lemma2_safe(),
            epoch: ig.mutation_epoch(),
        };

        fz.extent_off.push(0);
        fz.child_off.push(0);
        fz.parent_off.push(0);
        for v in ig.iter() {
            fz.labels.push(ig.label(v));
            fz.k.push(ig.k(v));
            fz.genuine.push(ig.genuine(v));
            fz.extent_arena.extend_from_slice(ig.extent(v));
            fz.extent_off.push(fz.extent_arena.len() as u32);
            // The monotone map keeps mapped adjacency rows sorted.
            fz.child_tgt
                .extend(ig.children(v).iter().map(|c| IdxId(map[c.index()])));
            fz.child_off.push(fz.child_tgt.len() as u32);
            fz.parent_tgt
                .extend(ig.parents(v).iter().map(|p| IdxId(map[p.index()])));
            fz.parent_off.push(fz.parent_tgt.len() as u32);
        }

        fz.node_of_data.extend((0..ig.data_node_count()).map(|i| {
            let live = ig.node_of(NodeId(i as u32));
            IdxId(map[live.index()])
        }));

        // The shared counting-sort CSR builder reproduces the live
        // enumeration order: nodes_with_label yields ascending live ids, and
        // the monotone map turns those into ascending frozen ids.
        let (off, ids) = mrx_postings::group_by_key(n, ig.num_labels(), |i| fz.labels[i].0);
        fz.by_label_off = off;
        fz.by_label_ids = ids.into_iter().map(IdxId).collect();

        fz
    }

    /// Number of index nodes (all ids dense and live).
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// The sorted extent of `v`.
    pub fn extent(&self, v: IdxId) -> &[NodeId] {
        &self.extent_arena
            [self.extent_off[v.index()] as usize..self.extent_off[v.index() + 1] as usize]
    }

    /// Checks every structural invariant of the snapshot, returning a
    /// description of the first violation. Run this on snapshots built
    /// from untrusted bytes before serving queries through them.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.node_count();
        if self.k.len() != n || self.genuine.len() != n {
            return Err("similarity arrays disagree with node count".into());
        }
        if self.root.index() >= n {
            return Err("root node out of range".into());
        }
        check_csr("extent", &self.extent_off, self.extent_arena.len(), n)?;
        check_adjacency("child", &self.child_off, &self.child_tgt, n)?;
        check_adjacency("parent", &self.parent_off, &self.parent_tgt, n)?;
        check_csr(
            "by_label",
            &self.by_label_off,
            self.by_label_ids.len(),
            self.by_label_off.len() - 1,
        )?;
        if self.by_label_off.is_empty() {
            return Err("by_label offsets empty".into());
        }
        if self.by_label_ids.len() != n {
            return Err("by_label does not cover every node exactly once".into());
        }
        let off_pairs = |off: &[u32]| -> Vec<(usize, usize)> {
            off.windows(2)
                .map(|w| (w[0] as usize, w[1] as usize))
                .collect()
        };
        let d = self.node_of_data.len();
        for (v, (a, b)) in off_pairs(&self.extent_off).into_iter().enumerate() {
            if a == b {
                return Err(format!("empty extent on node {v}"));
            }
            let ext = &self.extent_arena[a..b];
            if !ext.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("extent of node {v} not strictly ascending"));
            }
            for &o in ext {
                if o.index() >= d {
                    return Err(format!(
                        "extent of node {v} references data node out of range"
                    ));
                }
                if self.node_of_data[o.index()].index() != v {
                    return Err(format!("node_of_data disagrees with extent of node {v}"));
                }
            }
        }
        if self.extent_arena.len() != d {
            return Err("extents do not partition the data nodes".into());
        }
        for (l, (a, b)) in off_pairs(&self.by_label_off).into_iter().enumerate() {
            let row = &self.by_label_ids[a..b];
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("by_label row {l} not strictly ascending"));
            }
            for &v in row {
                if v.index() >= n {
                    return Err(format!("by_label row {l} references node out of range"));
                }
                if self.labels[v.index()].index() != l {
                    return Err(format!("by_label row {l} contains node with wrong label"));
                }
            }
        }
        Ok(())
    }
}

/// Checks CSR offsets: `rows + 1` monotone entries spanning the arena.
pub(crate) fn check_csr(
    what: &str,
    off: &[u32],
    arena_len: usize,
    rows: usize,
) -> Result<(), String> {
    if off.len() != rows + 1 {
        return Err(format!("{what} offsets have wrong length"));
    }
    if off[0] != 0 || off[rows] as usize != arena_len {
        return Err(format!("{what} offsets do not span the arena"));
    }
    if !off.windows(2).all(|w| w[0] <= w[1]) {
        return Err(format!("{what} offsets not monotone"));
    }
    Ok(())
}

/// Checks an adjacency CSR over `n` nodes: offsets as in [`check_csr`],
/// every row strictly ascending, every target in range.
pub(crate) fn check_adjacency(
    what: &str,
    off: &[u32],
    tgt: &[IdxId],
    n: usize,
) -> Result<(), String> {
    check_csr(what, off, tgt.len(), n)?;
    for w in off.windows(2) {
        let row = &tgt[w[0] as usize..w[1] as usize];
        if row.windows(2).any(|p| p[0] >= p[1]) {
            return Err(format!("{what} row not strictly ascending"));
        }
        if row.last().is_some_and(|t| t.index() >= n) {
            return Err(format!("{what} target out of range"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{view, CompressedIndex};
    use mrx_graph::xml::parse;
    use mrx_graph::DataGraph;
    use mrx_path::{Cost, PathExpr};

    fn doc() -> DataGraph {
        parse(
            "<site>
               <people><person><name><last/></name></person>
                        <person><name/></person></people>
               <forum><poster><name><last/></name></poster></forum>
             </site>",
        )
        .unwrap()
    }

    #[test]
    fn freeze_mirrors_live_index() {
        let g = doc();
        let ig = IndexGraph::from_partition(&g, &crate::k_bisim(&g, 2), |_| 2);
        let fz = FrozenIndex::freeze(&ig);
        fz.validate().expect("valid snapshot");
        assert_eq!(fz.node_count(), ig.node_count());
        // Elementwise correspondence under the monotone renumbering.
        for (fid, live) in ig.iter().enumerate() {
            let fid = IdxId(fid as u32);
            assert_eq!(fz.labels[fid.index()], ig.label(live));
            assert_eq!(fz.k[fid.index()], ig.k(live));
            assert_eq!(fz.genuine[fid.index()], ig.genuine(live));
            assert_eq!(fz.extent(fid), ig.extent(live));
        }
        for o in 0..g.node_count() {
            let o = NodeId(o as u32);
            assert!(fz.extent(fz.node_of_data[o.index()]).contains(&o));
        }
        assert_eq!(fz.lemma2, ig.lemma2_safe());
        assert_eq!(fz.epoch, ig.mutation_epoch());
    }

    #[test]
    fn validate_rejects_corruption() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let good = FrozenIndex::freeze(&ig);
        good.validate().unwrap();

        let mut bad = good.clone();
        bad.k.pop();
        assert!(bad.validate().is_err(), "short similarity array");

        let mut bad = good.clone();
        bad.child_off[1] = u32::MAX;
        assert!(bad.validate().is_err(), "non-monotone child offsets");

        let mut bad = good.clone();
        if let Some(t) = bad.parent_tgt.first_mut() {
            *t = IdxId(u32::MAX);
            assert!(bad.validate().is_err(), "parent target out of range");
        }

        let mut bad = good.clone();
        bad.node_of_data[0] = IdxId((good.node_count() - 1) as u32);
        assert!(
            bad.validate().is_err(),
            "node_of_data / extent disagreement"
        );

        let mut bad = good.clone();
        let (a, b) = (bad.by_label_ids[0], bad.by_label_ids[1]);
        bad.by_label_ids[0] = b;
        bad.by_label_ids[1] = a;
        assert!(bad.validate().is_err(), "unsorted or mislabeled by_label");
    }

    #[test]
    fn eval_parity_against_eval_in_place() {
        let g = doc();
        let ig = IndexGraph::from_partition(&g, &crate::k_bisim(&g, 1), |_| 1);
        let fz = CompressedIndex::from_frozen(&FrozenIndex::freeze(&ig));
        let mut s1 = crate::IndexEvalScratch::new();
        let mut s2 = crate::IndexEvalScratch::new();
        for expr in ["//name/last", "//person/*", "//site/*/person", "/people"] {
            let cp = PathExpr::parse(expr).unwrap().compile(&g);
            let mut c1 = Cost::ZERO;
            let mut c2 = Cost::ZERO;
            let live: Vec<IdxId> = ig.eval_in_place(&g, &cp, &mut c1, &mut s1).to_vec();
            let froz: Vec<IdxId> = view::eval_view(&fz, &cp, &mut c2, &mut s2).to_vec();
            assert_eq!(live.len(), froz.len(), "{expr}");
            assert_eq!(c1, c2, "{expr}");
            // Targets correspond under the monotone renumbering.
            let map: Vec<IdxId> = {
                let mut m = vec![IdxId(u32::MAX); ig.slot_bound()];
                for (i, v) in ig.iter().enumerate() {
                    m[v.index()] = IdxId(i as u32);
                }
                m
            };
            let mapped: Vec<IdxId> = live.iter().map(|v| map[v.index()]).collect();
            assert_eq!(mapped, froz, "{expr}");
        }
    }
}

//! Diagnostics over index graphs: similarity histograms, extent-size
//! distributions, per-label breakdowns, and refinement summaries.
//!
//! The paper reports index size as node/edge counts; these statistics look
//! *inside* an index — how resolution is distributed, where the extents are
//! large, how far the claimed similarities run ahead of the proven ones —
//! which is what you want when tuning a workload or explaining a figure.

use std::collections::BTreeMap;

use mrx_graph::DataGraph;

use crate::{IndexGraph, MStarIndex, RefineStats};

/// A summary of one index graph's internal structure.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexStats {
    /// Live index nodes.
    pub nodes: usize,
    /// Induced index edges.
    pub edges: usize,
    /// Histogram of claimed local similarity: `k -> node count`.
    pub k_histogram: BTreeMap<u32, usize>,
    /// Nodes whose claimed similarity exceeds the proven one — the *mixed
    /// pieces* created by selective refinement (0 for partition-built and
    /// D(k)-promote indexes).
    pub mixed_nodes: usize,
    /// Largest extent.
    pub max_extent: usize,
    /// Mean extent size (data nodes per index node).
    pub mean_extent: f64,
    /// Number of singleton extents (fully resolved data nodes).
    pub singleton_extents: usize,
    /// Compression ratio: data nodes per index node (higher = smaller index).
    pub compression: f64,
    /// Bytes the raw extent representation costs (one `u32` per member plus
    /// the offset table) — the live form.
    pub extent_raw_bytes: usize,
    /// Bytes the compressed posting form of the same extents costs
    /// (payload, skip directory, per-list tables) — the v5 serving form.
    pub extent_bytes: usize,
    /// [`extent_bytes`](Self::extent_bytes) per data node — the figure the
    /// compression benchmark tracks (raw is 4 B/node plus offsets).
    pub bytes_per_node: f64,
}

/// Computes [`IndexStats`] for an index graph over `g`.
pub fn index_stats(g: &DataGraph, ig: &IndexGraph) -> IndexStats {
    let mut k_histogram: BTreeMap<u32, usize> = BTreeMap::new();
    let mut mixed_nodes = 0;
    let mut max_extent = 0;
    let mut singleton_extents = 0;
    let mut total_extent = 0usize;
    let mut packed = mrx_postings::PostingArena::new();
    for v in ig.iter() {
        *k_histogram.entry(ig.k(v)).or_insert(0) += 1;
        if ig.k(v) > ig.genuine(v) {
            mixed_nodes += 1;
        }
        let ext = ig.extent(v);
        let e = ext.len();
        total_extent += e;
        max_extent = max_extent.max(e);
        if e == 1 {
            singleton_extents += 1;
        }
        packed.push_list(ext);
    }
    let nodes = ig.node_count();
    let extent_bytes = packed.heap_bytes();
    IndexStats {
        nodes,
        edges: ig.edge_count(),
        k_histogram,
        mixed_nodes,
        max_extent,
        mean_extent: total_extent as f64 / nodes.max(1) as f64,
        singleton_extents,
        compression: g.node_count() as f64 / nodes.max(1) as f64,
        extent_raw_bytes: 4 * (total_extent + nodes + 1),
        extent_bytes,
        bytes_per_node: extent_bytes as f64 / g.node_count().max(1) as f64,
    }
}

/// Per-component statistics of an M*(k)-index, coarse to fine.
pub fn mstar_stats(g: &DataGraph, idx: &MStarIndex) -> Vec<IndexStats> {
    (0..=idx.max_k())
        .map(|i| index_stats(g, idx.component(i)))
        .collect()
}

/// Renders stats as an aligned text block (used by the CLI).
pub fn render_stats(stats: &IndexStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "  nodes: {}  edges: {}", stats.nodes, stats.edges);
    let _ = writeln!(
        out,
        "  extents: mean {:.2}, max {}, singletons {} ({}x compression)",
        stats.mean_extent,
        stats.max_extent,
        stats.singleton_extents,
        stats.compression.round()
    );
    let _ = writeln!(
        out,
        "  extent bytes: raw {}, packed {} ({:.2}x, {:.2} B/node)",
        stats.extent_raw_bytes,
        stats.extent_bytes,
        stats.extent_raw_bytes as f64 / stats.extent_bytes.max(1) as f64,
        stats.bytes_per_node
    );
    let ks: Vec<String> = stats
        .k_histogram
        .iter()
        .map(|(k, n)| format!("k={k}:{n}"))
        .collect();
    let _ = writeln!(out, "  similarity: {}", ks.join("  "));
    if stats.mixed_nodes > 0 {
        let _ = writeln!(
            out,
            "  mixed pieces (claimed > proven): {}",
            stats.mixed_nodes
        );
    }
    out
}

/// Renders a refinement run's [`RefineStats`] as an aligned text block
/// (used by the CLI's `--stats` flag).
pub fn render_refine_stats(stats: &RefineStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  refinement: {} round(s), {:.2} ms total, {} KiB scratch",
        stats.rounds,
        stats.total_millis(),
        stats.scratch_bytes / 1024
    );
    for (i, (blocks, ms)) in stats
        .blocks_per_round
        .iter()
        .zip(&stats.round_millis)
        .enumerate()
    {
        let _ = writeln!(out, "    round {:>2}: {blocks} blocks in {ms:.2} ms", i + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AkIndex, MkIndex};
    use mrx_graph::xml::parse;
    use mrx_path::PathExpr;

    fn doc() -> DataGraph {
        parse("<r><a><b/><b/></a><c><b/></c><c><b/><b/></c></r>").unwrap()
    }

    #[test]
    fn a0_stats() {
        let g = doc();
        let idx = AkIndex::build(&g, 0);
        let s = index_stats(&g, idx.graph());
        assert_eq!(s.nodes, 4); // r a b c
        assert_eq!(s.k_histogram.get(&0), Some(&4));
        assert_eq!(
            s.mixed_nodes, 0,
            "partition-built indexes have no mixed pieces"
        );
        assert_eq!(s.max_extent, 5); // five b's
        assert!((s.compression - 9.0 / 4.0).abs() < 1e-9);
        assert_eq!(s.singleton_extents, 2); // r, a
        assert_eq!(s.extent_raw_bytes, 4 * (9 + 4 + 1));
        assert!(s.extent_bytes > 0);
        assert!((s.bytes_per_node - s.extent_bytes as f64 / 9.0).abs() < 1e-9);
        let text = render_stats(&s);
        assert!(text.contains("k=0:4"), "{text}");
        assert!(text.contains("extent bytes: raw"), "{text}");
        assert!(!text.contains("mixed pieces"));
    }

    #[test]
    fn refined_mk_reports_similarity_spread() {
        let g = doc();
        let mut idx = MkIndex::new(&g);
        idx.refine_for(&g, &PathExpr::parse("//r/a/b").unwrap());
        let s = index_stats(&g, idx.graph());
        assert!(
            s.k_histogram.contains_key(&2),
            "refined pieces at k=2: {s:?}"
        );
        assert!(s.k_histogram.contains_key(&0), "remainder at k=0");
        assert_eq!(
            s.k_histogram.values().sum::<usize>(),
            s.nodes,
            "histogram covers all nodes"
        );
    }

    #[test]
    fn refine_stats_render_lists_every_round() {
        let g = doc();
        let (idx, rs) = AkIndex::build_with_stats(&g, 2);
        assert_eq!(rs.rounds, 2);
        assert_eq!(rs.blocks_per_round.len(), 2);
        assert_eq!(*rs.blocks_per_round.last().unwrap(), idx.node_count());
        let text = render_refine_stats(&rs);
        assert!(text.contains("2 round(s)"), "{text}");
        assert!(text.contains("round  1:"), "{text}");
        assert!(text.contains("round  2:"), "{text}");
    }

    #[test]
    fn mstar_per_component_stats() {
        let g = doc();
        let mut idx = crate::MStarIndex::new(&g);
        idx.refine_for(&g, &PathExpr::parse("//r/a/b").unwrap());
        let per = mstar_stats(&g, &idx);
        assert_eq!(per.len(), 3);
        // components get (weakly) finer
        assert!(per.windows(2).all(|w| w[0].nodes <= w[1].nodes));
        // I0 is all k=0
        assert_eq!(per[0].k_histogram.get(&0), Some(&per[0].nodes));
    }
}

//! The shared set-up: the full-scale XMark corpus, the paper's §5
//! workload, an M*(k) index adapted to it, and the snapshot file the
//! daemon serves.

use std::path::Path;
use std::time::Instant;

use mrx_datagen::{xmark_like, XmarkConfig};
use mrx_graph::{DataGraph, FrozenGraph};
use mrx_index::{AdaptEngine, CompressedMStar, MStarIndex};
use mrx_path::PathExpr;
use mrx_store::{save_compressed, save_paged};
use mrx_workload::{Workload, WorkloadConfig};

use crate::requests::{stream_seed, STREAM_BATCH, STREAM_SAMPLE};

/// Corpus generator seed: the one the repository's figures harness uses,
/// so "full scale" here is the same 108,811-node document.
pub const CORPUS_SEED: u64 = 0xA0C71;

/// Seed of the paper's 500-query workload the served index is adapted
/// to. It is fixed rather than drawn from the run seed: the index under
/// test is then the same in every run, and the run seed varies only the
/// requests sent to it.
pub const PAPER_WORKLOAD_SEED: u64 = 7;

/// Seed of the cold workload's expression sample and of the shift
/// workload's publish batches, fixed for the same reason: every run serves
/// and publishes the same indexes, and the run seed orders and draws the
/// requests.
pub const SAMPLE_SEED: u64 = 11;

/// Target data-graph size handed to the XMark generator: the paper's
/// scale (§5), ~120k nodes.
pub const TARGET_NODES: usize = 120_000;

/// Queries in the §5 workload the index is adapted to.
pub const WORKLOAD_QUERIES: usize = 500;

/// Size of the seeded §5 sample whose distinct expressions the cold
/// workload sweeps.
pub const COLD_SAMPLE: usize = 20_000;

/// Target wall time of one shift epoch on a quiet host; the epoch count is
/// the run length divided by it, so a fixed `--seconds` always runs the
/// same epochs.
pub const SHIFT_EPOCH_S: f64 = 0.55;

/// FUPs per publish batch.
pub const SHIFT_BATCH: usize = 60;

/// Publish epochs for a run of `seconds`.
pub fn shift_epochs(seconds: f64) -> usize {
    ((seconds / SHIFT_EPOCH_S).round() as usize).max(2)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What one set-up built, with the time each step took.
pub struct Prepared {
    pub g: DataGraph,
    pub fg: FrozenGraph,
    /// The paper's 500-query workload (duplicates kept: they are the
    /// frequency distribution).
    pub workload: Vec<PathExpr>,
    /// The adapted index (the shift workload keeps adapting it).
    pub idx: MStarIndex,
    pub cz: CompressedMStar,
    /// Stored index nodes before adaptation (the unrefined M*(k)).
    pub nodes_before: usize,
    pub datagen_ms: f64,
    pub workload_ms: f64,
    pub adapt_ms: f64,
    pub freeze_ms: f64,
}

/// Builds corpus, workload and adapted index.
pub fn prepare() -> Prepared {
    let t = Instant::now();
    let g = xmark_like(&XmarkConfig::with_target_nodes(TARGET_NODES), CORPUS_SEED);
    let fg = FrozenGraph::freeze(&g);
    let datagen_ms = ms_since(t);

    let t = Instant::now();
    let mut cfg = WorkloadConfig::paper_long(PAPER_WORKLOAD_SEED);
    cfg.num_queries = WORKLOAD_QUERIES;
    let workload = Workload::generate(&g, &cfg).queries;
    let workload_ms = ms_since(t);

    let t = Instant::now();
    let mut idx = MStarIndex::new(&g);
    let nodes_before = idx.node_count();
    AdaptEngine::new().adapt_mstar(&g, &mut idx, &workload);
    let adapt_ms = ms_since(t);

    let t = Instant::now();
    let cz = idx.freeze_compressed();
    let freeze_ms = ms_since(t);

    Prepared {
        g,
        fg,
        workload,
        idx,
        cz,
        nodes_before,
        datagen_ms,
        workload_ms,
        adapt_ms,
        freeze_ms,
    }
}

/// A §5 sample of `n` queries.
fn sample(g: &DataGraph, n: usize, seed: u64) -> Vec<PathExpr> {
    let mut cfg = WorkloadConfig::paper_long(seed);
    cfg.num_queries = n;
    Workload::generate(g, &cfg).queries
}

/// The cold workload's expressions: every distinct expression of a large
/// §5 sample, in first-drawn order.
pub fn cold_expressions(g: &DataGraph) -> Vec<PathExpr> {
    crate::requests::distinct(&sample(
        g,
        COLD_SAMPLE,
        stream_seed(SAMPLE_SEED, STREAM_SAMPLE, 0),
    ))
}

/// The shift workload's publish batches: one §5 sample cut into `epochs`
/// FUP batches.
pub fn shift_batches(g: &DataGraph, epochs: usize) -> Vec<Vec<PathExpr>> {
    let all = sample(
        g,
        epochs * SHIFT_BATCH,
        stream_seed(SAMPLE_SEED, STREAM_BATCH, 0),
    );
    all.chunks(SHIFT_BATCH).map(<[_]>::to_vec).collect()
}

/// Which snapshot layout the daemon serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Flat compressed (v5), fully resident.
    Compressed,
    /// Demand-paged (v6) behind a page cache.
    Paged,
}

/// Saves `cz` over `fg` to `path`; returns the elapsed milliseconds.
pub fn save(
    path: &Path,
    layout: Layout,
    fg: &FrozenGraph,
    cz: &CompressedMStar,
) -> Result<f64, String> {
    let t = Instant::now();
    match layout {
        Layout::Compressed => save_compressed(path, fg, cz),
        Layout::Paged => save_paged(path, fg, cz),
    }
    .map_err(|e| format!("saving {}: {e}", path.display()))?;
    Ok(ms_since(t))
}

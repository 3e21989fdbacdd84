//! The traced in-process replay: the daemon's query path re-done from the
//! benchmark, one public call per stage, with a span around each call.
//!
//! The stages follow the daemon's worker: parse the expression, probe the
//! shared answer cache, and on a miss compile, descend the index top-down
//! (`view::top_down_targets_budgeted`), validate and materialise the
//! answer (`view::finish_answer_view_budgeted`) and admit it. The budgeted
//! entry points are the ones the daemon calls; the meter here has no
//! limits and no disconnect probe, as for a daemon tenant with no budget. One more stage re-walks
//! every target extent with `for_each_extent` to time posting decode on
//! its own; the daemon pays that decode inside validation, so the
//! re-walk is reported as `postings.*` but left out of the in-process time
//! compared against the daemon, and its page-cache traffic is kept apart.

use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;

use mrx_graph::GraphView;
use mrx_index::{view, IndexEvalScratch, IndexView, SharedAnswerCache, TrustPolicy};
use mrx_pagecache::{PageCache, PageStats};
use mrx_path::{Cost, EpochMemo, PathExpr, QueryBudget};

/// The daemon's default extent trust policy.
pub const POLICY: TrustPolicy = TrustPolicy::Proven;

/// Span names, indexed by [`Span::stage`]. Stage 0 is the whole request;
/// every other stage is its child.
pub const STAGES: [&str; 8] = [
    "query",
    "path.parse",
    "session.probe",
    "path.compile",
    "index.topdown",
    "path.validate",
    "session.admit",
    "postings.decode",
];
pub const QUERY: u8 = 0;
pub const PARSE: u8 = 1;
pub const PROBE: u8 = 2;
pub const COMPILE: u8 = 3;
pub const TOPDOWN: u8 = 4;
pub const VALIDATE: u8 = 5;
pub const ADMIT: u8 = 6;
pub const DECODE: u8 = 7;

/// One timed call. Spans of one request share `req`; every span but the
/// `query` root has that root as its parent.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u32,
    pub stage: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record(&mut self, req: u32, stage: u8, start_ns: u64) -> u64 {
        let end_ns = self.now();
        self.spans.push(Span {
            req,
            stage,
            start_ns,
            end_ns,
        });
        end_ns
    }

    /// Per-stage total nanoseconds, indexed like [`STAGES`].
    pub fn stage_totals(&self) -> [u64; STAGES.len()] {
        let mut t = [0u64; STAGES.len()];
        for s in &self.spans {
            t[s.stage as usize] += s.end_ns - s.start_ns;
        }
        t
    }

    /// Writes every span as `req stage start_ns end_ns` lines.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "req\tspan\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = if s.stage == QUERY { "-" } else { STAGES[0] };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.req, STAGES[s.stage as usize], parent, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Reusable evaluation scratch, as each daemon worker keeps, and the
/// budget every query runs under.
pub struct Scratch {
    eval: IndexEvalScratch,
    memo: EpochMemo,
    budget: QueryBudget,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            eval: IndexEvalScratch::new(),
            memo: EpochMemo::default(),
            // The daemon arms a shared cancel flag on every budget.
            budget: QueryBudget {
                cancel: Some(Default::default()),
                ..QueryBudget::unlimited()
            },
        }
    }
}

/// What one traced request did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Served {
    pub hit: bool,
    pub cost: Cost,
    pub nodes: Vec<u32>,
    /// Whether validation ran (only meaningful on a miss).
    pub validated: bool,
    /// Ids the decode re-walk produced.
    pub ids_decoded: u64,
    /// Wall time of the request without the decode re-walk.
    pub serve_ns: u64,
    /// Page-cache traffic of the decode re-walk, to be subtracted from the
    /// serving path's page counters.
    pub decode_pages: PageDelta,
}

/// Page-cache counter deltas over one interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageDelta {
    pub faults: u64,
    pub hits: u64,
    pub evictions: u64,
    pub readahead_hits: u64,
    pub wasted_prefetches: u64,
}

impl PageDelta {
    pub fn between(a: &PageStats, b: &PageStats) -> PageDelta {
        PageDelta {
            faults: b.faults - a.faults,
            hits: b.hits - a.hits,
            evictions: b.evictions - a.evictions,
            readahead_hits: b.readahead_hits - a.readahead_hits,
            wasted_prefetches: b.wasted_prefetches - a.wasted_prefetches,
        }
    }
}

/// The answer cache's notion of which snapshot an answer belongs to: the
/// serving generation (bumped per reload) and the index mutation epoch.
#[derive(Debug, Clone, Copy)]
pub struct CacheKey {
    pub generation: u64,
    pub epoch: u64,
}

/// Serves `expr` as the daemon would, with a span per stage.
#[allow(clippy::too_many_arguments)]
pub fn serve<I: IndexView, G: GraphView>(
    comps: &[I],
    g: &G,
    expr: &str,
    cache: &SharedAnswerCache,
    key: CacheKey,
    scratch: &mut Scratch,
    tr: &mut Tracer,
    req: u32,
    pages: Option<&PageCache>,
) -> Result<Served, String> {
    let t0 = tr.now();
    let path = PathExpr::parse(expr).map_err(|e| format!("{expr}: {e}"))?;
    let t = tr.record(req, PARSE, t0);
    let probed = cache.get(&path, key.generation, key.epoch);
    let mut t = tr.record(req, PROBE, t);
    let (hit, answer, level) = match probed {
        Some((_, a)) => (true, a, 0),
        None => {
            let cp = path.compile(g);
            t = tr.record(req, COMPILE, t);
            if cp.anchored {
                return Err(format!("{expr}: anchored paths are not in the §5 workload"));
            }
            let mut meter = scratch.budget.meter();
            let (targets, level, cost) =
                view::top_down_targets_budgeted(comps, &cp, &mut scratch.eval, &mut meter)
                    .map_err(|e| format!("{expr}: {e}"))?;
            t = tr.record(req, TOPDOWN, t);
            let a = view::finish_answer_view_budgeted(
                &comps[level],
                g,
                &cp,
                targets,
                cost,
                POLICY,
                &mut scratch.memo,
                &mut meter,
            )
            .map_err(|e| format!("{expr}: {e}"))?;
            t = tr.record(req, VALIDATE, t);
            cache.admit(&path, key.generation, key.epoch, &cp, &a);
            tr.record(req, ADMIT, t);
            (false, Arc::new(a), level)
        }
    };
    let serve_end = tr.now();
    let mut ids_decoded = 0u64;
    let mut decode_pages = PageDelta::default();
    if !hit {
        let before = pages.map(PageCache::stats);
        let d0 = tr.now();
        for &v in &answer.target_index_nodes {
            comps[level].for_each_extent(v, |_| ids_decoded += 1);
        }
        tr.record(req, DECODE, d0);
        if let (Some(p), Some(b)) = (pages, before) {
            decode_pages = PageDelta::between(&b, &p.stats());
        }
    }
    tr.record(req, QUERY, t0);
    Ok(Served {
        hit,
        cost: answer.cost,
        nodes: answer.nodes.iter().map(|n| n.0).collect(),
        validated: answer.validated,
        ids_decoded,
        serve_ns: serve_end - t0,
        decode_pages,
    })
}

//! The three workloads: set-up, oracle gate, timed phase against the
//! daemon, and the traced in-process replay of the same requests.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mrx_graph::{FrozenGraph, GraphView};
use mrx_index::{AdaptEngine, CompressedMStar, IndexView, SharedAnswerCache, SharedCacheConfig};
use mrx_pagecache::PageStats;
use mrx_path::{eval_data, PathExpr};
use mrx_serve::{Client, ClientError};
use mrx_store::{open_validated, PagedFile, SnapshotPayload};

use crate::daemon::{Daemon, DaemonConfig};
use crate::procfs;
use crate::requests::{draws, lap};
use crate::setup::{self, ms_since as ms, Layout, Prepared};
use crate::stats::{median, quantile_sorted};
use crate::trace::{self, CacheKey, PageDelta, Scratch, Served, Tracer};

/// Tenant name every benchmark request uses.
const TENANT: &str = "bench";
/// Warm-up requests sent before the cold and shift gates.
const WARMUP: usize = 200;
/// Reader requests per shift epoch.
pub const SHIFT_READS: usize = 8_000;
/// Hot laps per measurement window (~10k requests, so each window's p99
/// has ~100 samples beyond it).
const HOT_WINDOW_LAPS: u64 = 20;
/// Rounds the traced replay covers at most: enough for steady per-query
/// means, and a fixed number so its counts repeat exactly.
const TRACE_LAPS: u64 = 40;
const TRACE_SWEEPS: u64 = 3;
const TRACE_EPOCHS: u64 = 6;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cache-resident replay of the paper workload on a compressed v5
    /// snapshot.
    Hot,
    /// Every-query-misses sweeps on a paged v6 snapshot with a 25% page
    /// budget.
    Cold,
    /// Reads beside adapt/freeze/save/RELOAD publishes.
    Shift,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "hot-resident" => Some(Kind::Hot),
            "cold-paged" => Some(Kind::Cold),
            "shift-publish" => Some(Kind::Shift),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Hot => "hot-resident",
            Kind::Cold => "cold-paged",
            Kind::Shift => "shift-publish",
        }
    }

    fn layout(self) -> Layout {
        match self {
            Kind::Cold => Layout::Paged,
            _ => Layout::Compressed,
        }
    }
}

/// Run options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `mrx` binary to serve with.
    pub mrx: PathBuf,
    /// Scratch directory for snapshot files.
    pub work: PathBuf,
    /// Where the traced replay writes its spans.
    pub spans: Option<PathBuf>,
}

/// The requests a workload draws from. Expressions are numbered; every
/// sequence below is a list of those numbers.
pub struct Plan {
    pub exprs: Vec<String>,
    /// hot: the 500-query workload (duplicates kept); cold: every distinct
    /// sampled expression.
    pub items: Vec<u32>,
    /// shift: the reader's pool per epoch — the paper workload for epoch 0,
    /// then each publish batch.
    pub pools: Vec<Vec<u32>>,
    /// shift: the FUP batch each publish adapts to.
    pub batches: Vec<Vec<PathExpr>>,
}

impl Plan {
    fn build(kind: Kind, prep: &Prepared, seconds: f64) -> Plan {
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut exprs = Vec::new();
        let mut id = |e: &PathExpr| -> u32 {
            let s = e.to_string();
            *ids.entry(s.clone()).or_insert_with(|| {
                exprs.push(s);
                (exprs.len() - 1) as u32
            })
        };
        let (items, pools, batches) = match kind {
            Kind::Hot => (prep.workload.iter().map(&mut id).collect(), vec![], vec![]),
            Kind::Cold => {
                let cold = setup::cold_expressions(&prep.g);
                (cold.iter().map(&mut id).collect(), vec![], vec![])
            }
            Kind::Shift => {
                let batches = setup::shift_batches(&prep.g, setup::shift_epochs(seconds));
                let mut pools: Vec<Vec<u32>> = vec![prep.workload.iter().map(&mut id).collect()];
                pools.extend(batches.iter().map(|b| b.iter().map(&mut id).collect()));
                (vec![], pools, batches)
            }
        };
        Plan {
            exprs,
            items,
            pools,
            batches,
        }
    }
}

/// One set-up: everything from corpus generation to a warmed daemon.
pub struct Setup {
    pub prep: Prepared,
    pub plan: Plan,
    pub snapshot: PathBuf,
    pub snapshot_bytes: u64,
    pub daemon: Daemon,
    pub dcfg: DaemonConfig,
    /// Requests sent to warm up, in order.
    pub warm: Vec<u32>,
    pub save_ms: f64,
    pub boot_ms: f64,
    /// Wall time from the start of this set-up to the end of warm-up.
    pub total_s: f64,
}

/// Builds a set-up; `t0` is when it started (process start for the first).
pub fn set_up(opts: &Opts, t0: Instant, workers: usize) -> Result<Setup, String> {
    let mut prep = setup::prepare();
    let t = Instant::now();
    let plan = Plan::build(opts.kind, &prep, opts.seconds);
    prep.workload_ms += ms(t);
    fs::create_dir_all(&opts.work).map_err(|e| format!("{}: {e}", opts.work.display()))?;
    let snapshot = opts.work.join("epoch-0.mrx");
    let save_ms = setup::save(&snapshot, opts.kind.layout(), &prep.fg, &prep.cz)?;
    let snapshot_bytes = file_len(&snapshot)?;
    let dcfg = DaemonConfig {
        workers,
        cache_bytes: (opts.kind == Kind::Cold).then_some(snapshot_bytes / 4),
    };
    let t = Instant::now();
    let daemon = Daemon::start(&opts.mrx, &snapshot, dcfg)?;
    let boot_ms = ms(t);
    let warm: Vec<u32> = match opts.kind {
        Kind::Hot => lap(&plan.items, opts.seed, 0),
        Kind::Cold => lap(&plan.items, opts.seed, 0)
            .into_iter()
            .take(WARMUP)
            .collect(),
        Kind::Shift => draws(&plan.pools[0], opts.seed, 0, WARMUP),
    };
    let mut c = daemon.client()?;
    for &i in &warm {
        c.query(TENANT, &plan.exprs[i as usize])
            .map_err(|e| format!("warm-up {}: {e}", plan.exprs[i as usize]))?;
    }
    Ok(Setup {
        prep,
        plan,
        snapshot,
        snapshot_bytes,
        daemon,
        dcfg,
        warm,
        save_ms,
        boot_ms,
        total_s: t0.elapsed().as_secs_f64(),
    })
}

fn file_len(p: &Path) -> Result<u64, String> {
    fs::metadata(p)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", p.display()))
}

/// What a RELOAD reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reload {
    /// The serving epoch the swap installed.
    pub epoch: u64,
    pub rtt_ms: f64,
    pub validate_ms: f64,
    pub purged: u64,
}

/// The first number under `key` in a flat JSON reply (STATS, RELOAD).
pub fn json_num(s: &str, key: &str) -> Option<f64> {
    let at = s.find(&format!("\"{key}\":"))? + key.len() + 3;
    let tail = &s[at..];
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Sends `RELOAD path` and records the reply.
pub fn reload(c: &mut Client, path: &Path) -> Result<Reload, String> {
    let t = Instant::now();
    let reply = c
        .reload(&path.to_string_lossy())
        .map_err(|e| format!("RELOAD {}: {e}", path.display()))?;
    Ok(Reload {
        epoch: json_num(&reply, "epoch").unwrap_or(0.0) as u64,
        rtt_ms: ms(t),
        validate_ms: json_num(&reply, "validate_ms").unwrap_or(0.0),
        purged: json_num(&reply, "purged_answers").unwrap_or(0.0) as u64,
    })
}

/// The expected reply to an expression: the naive data-graph answer's
/// size and node hash, and the in-process `Cost`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub len: u32,
    pub nodes_hash: u64,
    pub index_nodes: u64,
    pub data_nodes: u64,
}

/// FNV-1a over an answer's node ids, so every timed reply can be checked
/// node by node against the naive answer without keeping it.
pub fn nodes_hash(nodes: &[u32]) -> u64 {
    nodes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &n| {
        (h ^ u64::from(n)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Evaluates `exprs` in-process with the traced evaluator against a fresh
/// answer cache (so every answer is computed, not recalled).
fn in_process<I: IndexView, G: GraphView>(
    comps: &[I],
    g: &G,
    exprs: &[&str],
) -> Result<Vec<Served>, String> {
    let cache = SharedAnswerCache::new(SharedCacheConfig::default());
    let key = CacheKey {
        generation: 0,
        epoch: 0,
    };
    let (mut sc, mut tr) = (Scratch::default(), Tracer::default());
    exprs
        .iter()
        .map(|e| trace::serve(comps, g, e, &cache, key, &mut sc, &mut tr, 0, None))
        .collect()
}

/// The oracle gate: for every expression the workload will send, the
/// daemon's answer must equal naive evaluation on the data graph, and its
/// `Cost` must equal the traced evaluator's. Returns the expectations the
/// timed phase checks each reply against.
pub fn gate(s: &Setup) -> Result<Vec<Expect>, String> {
    let fg = &s.prep.fg;
    let all: Vec<&str> = s.plan.exprs.iter().map(String::as_str).collect();
    let traced = in_process(&s.prep.cz.components, fg, &all)?;
    let mut c = s.daemon.client()?;
    let mut out = Vec::with_capacity(all.len());
    for (e, t) in all.iter().zip(&traced) {
        let truth: Vec<u32> = eval_data(
            fg,
            &PathExpr::parse(e).map_err(|x| x.to_string())?.compile(fg),
        )
        .into_iter()
        .map(|n| n.0)
        .collect();
        let r = c.query(TENANT, e).map_err(|x| format!("gate {e}: {x}"))?;
        if r.nodes != truth || t.nodes != truth {
            return Err(format!(
                "oracle mismatch on {e}: daemon {} nodes, traced {}, naive {}",
                r.nodes.len(),
                t.nodes.len(),
                truth.len()
            ));
        }
        if (r.index_nodes, r.data_nodes) != (t.cost.index_nodes, t.cost.data_nodes) {
            return Err(format!(
                "Cost mismatch on {e}: daemon {}+{}, traced {}+{}",
                r.index_nodes, r.data_nodes, t.cost.index_nodes, t.cost.data_nodes
            ));
        }
        out.push(Expect {
            len: truth.len() as u32,
            nodes_hash: nodes_hash(&truth),
            index_nodes: r.index_nodes,
            data_nodes: r.data_nodes,
        });
    }
    Ok(out)
}

/// One answered request of the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub id: u32,
    pub epoch: u64,
    pub lat_ns: u64,
    pub index_nodes: u64,
    pub data_nodes: u64,
    pub len: u32,
    pub nodes_hash: u64,
}

/// Everything the timed phase measured.
#[derive(Debug, Default)]
pub struct Timed {
    pub sent: Vec<Sent>,
    pub attempted: u64,
    pub errors: u64,
    /// Measurement windows: hot laps in groups, cold sweeps, shift
    /// epochs. Reloads and barrier waits fall between windows.
    pub windows: Vec<Window>,
    pub steal_ms: f64,
    /// Whole laps (hot), sweeps (cold) or epochs (shift) sent.
    pub rounds: u64,
    pub reloads: Vec<Reload>,
    /// shift: per-epoch publish measurements.
    pub publishes: Vec<Publish>,
    /// shift: the index after the final epoch.
    pub final_nodes: usize,
    pub final_bytes: u64,
    /// Daemon serving epoch → snapshot index (0 = boot file).
    pub epoch_snapshot: HashMap<u64, usize>,
    /// shift: the compressed index of every published snapshot.
    pub snapshots: Vec<CompressedMStar>,
}

/// One shift-publish epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Publish {
    pub adapt_ms: f64,
    pub freeze_ms: f64,
    pub save_ms: f64,
    pub reload: Reload,
    /// Adaptation start to RELOAD acknowledgement, less the time the
    /// publisher waited for the reader to finish its epoch.
    pub publish_ms: f64,
}

/// One measurement window: a stretch of back-to-back queries, timed on
/// the wall clock and on the daemon's CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub answered: u64,
    pub busy_s: f64,
    pub cpu_s: f64,
    /// Host steal over the window (diagnostic only).
    pub steal_ms: f64,
    /// Bytes the daemon read over the window.
    pub read_bytes: u64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
}

/// An open window.
struct Open {
    t: Instant,
    cpu: f64,
    steal: f64,
    read_bytes: u64,
    pid: u32,
    first: usize,
}

impl Open {
    fn start(pid: u32, into: &Timed) -> Open {
        Open {
            cpu: procfs::pid_cpu_seconds(pid).unwrap_or(0.0),
            steal: procfs::host_steal_ms().unwrap_or(0.0),
            read_bytes: procfs::pid_read_bytes(pid).unwrap_or(0),
            t: Instant::now(),
            pid,
            first: into.sent.len(),
        }
    }

    fn close(self, into: &mut Timed) {
        let busy_s = self.t.elapsed().as_secs_f64();
        let cpu_s = procfs::pid_cpu_seconds(self.pid).unwrap_or(0.0) - self.cpu;
        let mut lat: Vec<u64> = into.sent[self.first..].iter().map(|x| x.lat_ns).collect();
        lat.sort_unstable();
        into.windows.push(Window {
            answered: lat.len() as u64,
            busy_s,
            cpu_s,
            steal_ms: procfs::host_steal_ms().unwrap_or(0.0) - self.steal,
            read_bytes: procfs::pid_read_bytes(self.pid)
                .unwrap_or(0)
                .saturating_sub(self.read_bytes),
            p50_us: quantile_sorted(&lat, 0.50) as f64 / 1e3,
            p90_us: quantile_sorted(&lat, 0.90) as f64 / 1e3,
            p99_us: quantile_sorted(&lat, 0.99) as f64 / 1e3,
        });
    }
}

impl Timed {
    /// Sends one query and records it; a typed refusal or error counts
    /// as failed, a wrong answer aborts the run.
    fn query(
        &mut self,
        c: &mut Client,
        plan: &Plan,
        id: u32,
        expect: Option<&Expect>,
    ) -> Result<(), String> {
        let e = &plan.exprs[id as usize];
        self.attempted += 1;
        let t = Instant::now();
        let r = c.query(TENANT, e);
        let lat_ns = t.elapsed().as_nanos() as u64;
        match r {
            Ok(r) => {
                let hash = nodes_hash(&r.nodes);
                if let Some(x) = expect {
                    let got = (r.nodes.len() as u32, hash, r.index_nodes, r.data_nodes);
                    if got != (x.len, x.nodes_hash, x.index_nodes, x.data_nodes) {
                        return Err(format!(
                            "reply to {e} changed after the gate: {got:?} vs {x:?}"
                        ));
                    }
                }
                self.sent.push(Sent {
                    id,
                    epoch: r.epoch,
                    lat_ns,
                    index_nodes: r.index_nodes,
                    data_nodes: r.data_nodes,
                    len: r.nodes.len() as u32,
                    nodes_hash: hash,
                });
            }
            Err(ClientError::Server(_)) => self.errors += 1,
            Err(other) => return Err(format!("query {e}: {other}")),
        }
        Ok(())
    }
}

/// Runs the timed phase. `expect` holds the gate's expectations: every
/// reply's nodes (by size and hash) and `Cost`, checked per reply for hot
/// and cold; shift replies are checked afterwards, per epoch, by
/// [`check_shift`].
pub fn timed(opts: &Opts, s: &mut Setup, expect: &[Expect]) -> Result<Timed, String> {
    let mut out = Timed::default();
    let mut c = s.daemon.client()?;
    let pid = s.daemon.pid;
    let steal0 = procfs::host_steal_ms().unwrap_or(0.0);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(opts.seconds);
    match opts.kind {
        Kind::Hot => {
            while out.windows.is_empty() || Instant::now() < deadline {
                let w = Open::start(pid, &out);
                for _ in 0..HOT_WINDOW_LAPS {
                    out.rounds += 1;
                    for id in lap(&s.plan.items, opts.seed, out.rounds) {
                        out.query(&mut c, &s.plan, id, Some(&expect[id as usize]))?;
                    }
                }
                w.close(&mut out);
            }
        }
        Kind::Cold => {
            // Every sweep starts right after a RELOAD: empty answer cache,
            // fresh page caches.
            out.reloads.push(reload(&mut c, &s.snapshot)?);
            while out.rounds == 0 || Instant::now() < deadline {
                out.rounds += 1;
                let w = Open::start(pid, &out);
                for id in lap(&s.plan.items, opts.seed, out.rounds) {
                    out.query(&mut c, &s.plan, id, Some(&expect[id as usize]))?;
                }
                w.close(&mut out);
                out.reloads.push(reload(&mut c, &s.snapshot)?);
            }
        }
        Kind::Shift => shift(opts, s, &mut c, &mut out)?,
    }
    out.steal_ms = procfs::host_steal_ms().unwrap_or(0.0) - steal0;
    Ok(out)
}

/// The shift workload's reader requests for epoch `e`.
pub fn shift_reads(plan: &Plan, seed: u64, e: usize) -> Vec<u32> {
    draws(&plan.pools[e], seed, 1 + e as u64, SHIFT_READS)
}

fn shift(opts: &Opts, s: &mut Setup, c: &mut Client, out: &mut Timed) -> Result<(), String> {
    let mut pc = s.daemon.client()?;
    // Purge the gate's answers so every epoch starts the same way.
    let r = reload(&mut pc, &s.snapshot)?;
    out.reloads.push(r);
    out.epoch_snapshot.insert(r.epoch, 0);
    out.snapshots.push(s.prep.cz.clone());
    let mut engine = AdaptEngine::new();
    let (g, fg) = (&s.prep.g, &s.prep.fg);
    for e in 1..=s.plan.batches.len() {
        let reads = shift_reads(&s.plan, opts.seed, e - 1);
        let file = opts.work.join(format!("epoch-{e}.mrx"));
        let idx = &mut s.prep.idx;
        let batch = &s.plan.batches[e - 1];
        let (published, read_result) = std::thread::scope(|scope| {
            let publisher = scope.spawn(|| -> Result<(Publish, CompressedMStar, u64), String> {
                let t = Instant::now();
                engine.adapt_mstar(g, idx, batch);
                let adapt_ms = ms(t);
                let t = Instant::now();
                let cz = idx.freeze_compressed();
                let freeze_ms = ms(t);
                let save_ms = setup::save(&file, Layout::Compressed, fg, &cz)?;
                let p = Publish {
                    adapt_ms,
                    freeze_ms,
                    save_ms,
                    ..Publish::default()
                };
                Ok((p, cz, file_len(&file)?))
            });
            let w = Open::start(s.daemon.pid, out);
            let mut r = Ok(());
            for &id in &reads {
                r = out.query(c, &s.plan, id, None);
                if r.is_err() {
                    break;
                }
            }
            w.close(out);
            let p = publisher
                .join()
                .unwrap_or_else(|_| Err("publisher thread panicked".into()));
            (p, r)
        });
        read_result?;
        let (mut p, cz, bytes) = published?;
        p.reload = reload(&mut pc, &file)?;
        p.publish_ms = p.adapt_ms + p.freeze_ms + p.save_ms + p.reload.rtt_ms;
        out.epoch_snapshot.insert(p.reload.epoch, e);
        out.reloads.push(p.reload);
        out.publishes.push(p);
        out.snapshots.push(cz);
        out.final_bytes = bytes;
        out.rounds += 1;
    }
    out.final_nodes = s.prep.idx.node_count();
    Ok(())
}

/// Checks every shift reply after the run: the answer's size and node
/// hash against the naive oracle and the `Cost` against the traced
/// evaluator on the index the reply's epoch served.
pub fn check_shift(s: &Setup, t: &Timed, expect: &[Expect]) -> Result<(), String> {
    let mut want: HashMap<(u32, usize), (u64, u64)> = HashMap::new();
    for x in &t.sent {
        let snap = *t
            .epoch_snapshot
            .get(&x.epoch)
            .ok_or_else(|| format!("reply from unknown serving epoch {}", x.epoch))?;
        let want_nodes = &expect[x.id as usize];
        if (x.len, x.nodes_hash) != (want_nodes.len, want_nodes.nodes_hash) {
            return Err(format!(
                "oracle mismatch on {}",
                s.plan.exprs[x.id as usize]
            ));
        }
        let cost = match want.get(&(x.id, snap)) {
            Some(c) => *c,
            None => {
                let e = s.plan.exprs[x.id as usize].as_str();
                let r = in_process(&t.snapshots[snap].components, &s.prep.fg, &[e])?;
                let c = (r[0].cost.index_nodes, r[0].cost.data_nodes);
                want.insert((x.id, snap), c);
                c
            }
        };
        if cost != (x.index_nodes, x.data_nodes) {
            return Err(format!(
                "Cost mismatch on {} at epoch {}",
                s.plan.exprs[x.id as usize], x.epoch
            ));
        }
    }
    Ok(())
}

/// Per-layer numbers from the traced replay.
#[derive(Debug, Default)]
pub struct Traced {
    /// Requests in the traced segment.
    pub requests: u64,
    pub hits: u64,
    /// Misses the cache refused to admit because they were too cheap or
    /// too large: requests that can never hit.
    pub uncacheable: u64,
    pub bypass_cheap: u64,
    /// Answer-cache evictions, purges after a reload included.
    pub evictions: u64,
    pub validated: u64,
    pub misses: u64,
    pub index_visits: u64,
    pub data_visits: u64,
    pub ids_decoded: u64,
    /// Per-request serving time without the decode re-walk, in order.
    pub serve_ns: Vec<u64>,
    /// Per-stage totals over the traced segment.
    pub stage_ns: [u64; trace::STAGES.len()],
    pub pages: PageDelta,
    pub open_ms: Vec<f64>,
}

struct Replayer<'a> {
    out: &'a mut Traced,
    tr: Tracer,
    scratch: Scratch,
    costs: &'a [Sent],
    cursor: usize,
}

impl Replayer<'_> {
    /// Replays `ids` against `comps`; `traced` ones are counted. Each
    /// traced reply's `Cost` must equal the daemon's for the same request.
    #[allow(clippy::too_many_arguments)]
    fn run<I: IndexView, G: GraphView>(
        &mut self,
        comps: &[I],
        g: &G,
        plan: &Plan,
        ids: &[u32],
        cache: &SharedAnswerCache,
        key: CacheKey,
        pages: Option<&mrx_pagecache::PageCache>,
        traced: bool,
    ) -> Result<(), String> {
        let p0: Option<PageStats> = pages.map(|p| p.stats());
        let c0 = cache.stats();
        let mut decode = PageDelta::default();
        for &id in ids {
            let e = &plan.exprs[id as usize];
            let req = self.out.serve_ns.len() as u32;
            let before = self.tr.spans.len();
            let r = trace::serve(
                comps,
                g,
                e,
                cache,
                key,
                &mut self.scratch,
                &mut self.tr,
                req,
                pages,
            )?;
            if !traced {
                self.tr.spans.truncate(before);
                continue;
            }
            if let Some(x) = self.costs.get(self.cursor) {
                if x.id != id
                    || (x.index_nodes, x.data_nodes) != (r.cost.index_nodes, r.cost.data_nodes)
                {
                    return Err(format!("traced Cost differs from the daemon's on {e}"));
                }
            }
            self.cursor += 1;
            let o = &mut *self.out;
            o.requests += 1;
            o.serve_ns.push(r.serve_ns);
            o.index_visits += r.cost.index_nodes;
            o.data_visits += r.cost.data_nodes;
            o.ids_decoded += r.ids_decoded;
            if r.hit {
                o.hits += 1;
            } else {
                o.misses += 1;
                o.validated += r.validated as u64;
            }
            decode.faults += r.decode_pages.faults;
            decode.hits += r.decode_pages.hits;
            decode.evictions += r.decode_pages.evictions;
            decode.readahead_hits += r.decode_pages.readahead_hits;
            decode.wasted_prefetches += r.decode_pages.wasted_prefetches;
        }
        if traced {
            let c1 = cache.stats();
            let o = &mut *self.out;
            o.bypass_cheap += c1.bypass_cheap - c0.bypass_cheap;
            o.uncacheable += c1.bypass_cheap + c1.bypass_large - c0.bypass_cheap - c0.bypass_large;
            o.evictions += c1.evictions - c0.evictions;
        }
        if let (Some(p), Some(a)) = (pages, p0) {
            if traced {
                let d = PageDelta::between(&a, &p.stats());
                let o = &mut self.out.pages;
                o.faults += d.faults - decode.faults;
                o.hits += d.hits - decode.hits;
                o.evictions += d.evictions - decode.evictions;
                o.readahead_hits += d.readahead_hits - decode.readahead_hits;
                o.wasted_prefetches += d.wasted_prefetches - decode.wasted_prefetches;
            }
        }
        Ok(())
    }
}

/// Opens a compressed snapshot the way the daemon does (full validation),
/// recording how long it took.
fn open_compressed(
    path: &Path,
    open_ms: &mut Vec<f64>,
) -> Result<(FrozenGraph, CompressedMStar), String> {
    let t = Instant::now();
    let v = open_validated(path, true, None).map_err(|e| format!("{}: {e}", path.display()))?;
    open_ms.push(ms(t));
    match v.payload {
        SnapshotPayload::Compressed(g, cz) => Ok((g, cz)),
        _ => Err(format!("{} is not a compressed snapshot", path.display())),
    }
}

/// Replays the timed phase's requests in-process with spans: its first
/// [`TRACE_LAPS`] hot laps, first [`TRACE_SWEEPS`] cold sweeps or first
/// [`TRACE_EPOCHS`] shift epochs. The warm-up and gate requests are replayed untraced first
/// so the answer cache starts in the daemon's state.
pub fn replay(opts: &Opts, s: &Setup, t: &Timed) -> Result<Traced, String> {
    let mut out = Traced::default();
    let gate_ids: Vec<u32> = (0..s.plan.exprs.len() as u32).collect();
    let cache = SharedAnswerCache::new(SharedCacheConfig::default());
    let mut rp = Replayer {
        out: &mut out,
        tr: Tracer::default(),
        scratch: Scratch::default(),
        costs: &t.sent,
        cursor: 0,
    };
    match opts.kind {
        Kind::Hot => {
            let (g, cz) = open_compressed(&s.snapshot, &mut rp.out.open_ms)?;
            let key = CacheKey {
                generation: 1,
                epoch: cz.epoch,
            };
            rp.run(
                &cz.components,
                &g,
                &s.plan,
                &s.warm,
                &cache,
                key,
                None,
                false,
            )?;
            rp.run(
                &cz.components,
                &g,
                &s.plan,
                &gate_ids,
                &cache,
                key,
                None,
                false,
            )?;
            for round in 1..=t.rounds.min(TRACE_LAPS) {
                let ids = lap(&s.plan.items, opts.seed, round);
                rp.run(&cz.components, &g, &s.plan, &ids, &cache, key, None, true)?;
            }
        }
        Kind::Cold => {
            for round in 1..=t.rounds.min(TRACE_SWEEPS) {
                let ot = Instant::now();
                let file =
                    PagedFile::open_with(&s.snapshot, s.dcfg.cache_bytes.unwrap_or(u64::MAX))
                        .map_err(|e| e.to_string())?;
                let (graph, star, pages) = file.into_parts().map_err(|e| e.to_string())?;
                rp.out.open_ms.push(ms(ot));
                let key = CacheKey {
                    generation: round,
                    epoch: star.epoch,
                };
                let ids = lap(&s.plan.items, opts.seed, round);
                rp.run(
                    &star.components,
                    &graph,
                    &s.plan,
                    &ids,
                    &cache,
                    key,
                    Some(&pages),
                    true,
                )?;
                cache.purge_other_generations(round + 1);
            }
        }
        Kind::Shift => {
            for e in 1..=t.rounds.min(TRACE_EPOCHS) as usize {
                let file = if e == 1 {
                    s.snapshot.clone()
                } else {
                    opts.work.join(format!("epoch-{}.mrx", e - 1))
                };
                let (g, cz) = open_compressed(&file, &mut rp.out.open_ms)?;
                let key = CacheKey {
                    generation: e as u64,
                    epoch: cz.epoch,
                };
                cache.purge_other_generations(e as u64);
                let ids = shift_reads(&s.plan, opts.seed, e - 1);
                rp.run(&cz.components, &g, &s.plan, &ids, &cache, key, None, true)?;
            }
        }
    }
    rp.out.stage_ns = rp.tr.stage_totals();
    if let Some(path) = &opts.spans {
        let f = fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        rp.tr
            .write_tsv(&mut std::io::BufWriter::new(f))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(out)
}

/// p50 of a latency list, in microseconds.
pub fn p_us(ns: &[u64], q: f64) -> f64 {
    let mut v = ns.to_vec();
    v.sort_unstable();
    quantile_sorted(&v, q) as f64 / 1e3
}

/// Median of the publishes' `publish_ms`.
pub fn publish_median(t: &Timed) -> f64 {
    median(&t.publishes.iter().map(|p| p.publish_ms).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_hash_tells_same_size_answers_apart() {
        let a = nodes_hash(&[3, 17, 40]);
        assert_eq!(a, nodes_hash(&[3, 17, 40]));
        assert_ne!(a, nodes_hash(&[3, 18, 40]));
        assert_ne!(a, nodes_hash(&[3, 40, 17]));
        assert_ne!(nodes_hash(&[]), nodes_hash(&[0]));
    }
}

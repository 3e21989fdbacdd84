//! One benchmark run: set up (several times; the median is `setup_s`),
//! gate every expression against the naive oracle, time one workload
//! against a real `mrx serve` child, and with `--trace 1` replay the same
//! requests in-process with spans.
//!
//! ```text
//! servebench --workload hot-resident|cold-paged|shift-publish --seed N
//!            --seconds S --trace 0|1 --mrx PATH --work DIR
//!            [--spans FILE] [--rev REV]
//! ```
//!
//! The last stdout line is the result object; the line before it is the
//! run's context (rev, host, corpus, seeds, daemon settings, snapshot
//! sizes, and the per-layer predictions checked on this run).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mrx_index::SharedCacheConfig;
use mrx_servebench::bench::{self, Kind, Opts, Setup, Timed, Traced, Window};
use mrx_servebench::setup::{CORPUS_SEED, PAPER_WORKLOAD_SEED, SAMPLE_SEED};
use mrx_servebench::stats::{interquartile_mean, median, quantile_sorted, tail_percentile};
use mrx_servebench::{procfs, trace};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

struct Cli {
    opts: Opts,
    rev: String,
}

fn parse_args() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut mrx, mut work, mut spans) = (None, None, None);
    let mut rev = "unknown".to_string();
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                kind = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?)
            }
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(val()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(val()? == "1"),
            "--mrx" => mrx = Some(PathBuf::from(val()?)),
            "--work" => work = Some(PathBuf::from(val()?)),
            "--spans" => spans = Some(PathBuf::from(val()?)),
            "--rev" => rev = val()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let need = |what: &str| format!("missing {what}");
    Ok(Cli {
        opts: Opts {
            kind: kind.ok_or_else(|| need("--workload"))?,
            seed: seed.ok_or_else(|| need("--seed"))?,
            seconds: seconds.ok_or_else(|| need("--seconds"))?,
            trace: trace.ok_or_else(|| need("--trace"))?,
            mrx: mrx.ok_or_else(|| need("--mrx"))?,
            work: work.ok_or_else(|| need("--work"))?,
            spans,
        },
        rev,
    })
}

/// A flat JSON object built field by field.
#[derive(Default)]
struct Obj(String);

impl Obj {
    fn raw(&mut self, k: &str, v: impl std::fmt::Display) -> &mut Self {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        let _ = write!(self.0, "\"{k}\":{v}");
        self
    }

    fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.raw(k, if v.is_finite() { v } else { 0.0 })
    }

    fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.raw(
            k,
            format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")),
        )
    }

    fn metric(&mut self, k: &str, v: f64, unit: &str) -> &mut Self {
        let mut m = Obj::default();
        m.num("value", v).str("unit", unit);
        self.raw(k, m)
    }
}

impl std::fmt::Display for Obj {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}}}", self.0)
    }
}

fn per(x: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

/// Interquartile mean of `f` over the run's measurement windows, so
/// contention that hits a minority of windows does not move the figure.
fn windowed(t: &Timed, f: impl Fn(&Window) -> f64) -> f64 {
    interquartile_mean(&t.windows.iter().map(f).collect::<Vec<_>>())
}

fn cpu_us(w: &Window) -> f64 {
    per(w.cpu_s * 1e6, w.answered)
}

/// KiB the daemon read per query: page faults of a paged snapshot, as the
/// daemon's workers paid them, seen from outside.
fn read_kb(w: &Window) -> f64 {
    per(w.read_bytes as f64 / 1024.0, w.answered)
}

/// End-to-end metrics: the paper's `Cost` and sizes, exact for a fixed
/// seed and run length, the daemon's peak memory and the set-up time.
fn end_to_end(m: &mut Obj, s: &Setup, t: &Timed, setup_s: f64, rss: u64) {
    let answered = t.sent.len() as u64;
    let cost: u64 = t.sent.iter().map(|x| x.index_nodes + x.data_nodes).sum();
    let (nodes, bytes) = if t.publishes.is_empty() {
        (s.prep.idx.node_count(), s.snapshot_bytes)
    } else {
        (t.final_nodes, t.final_bytes)
    };
    m.metric("cost_per_query", per(cost as f64, answered), "count")
        .metric("index_nodes", nodes as f64, "count")
        .metric("snapshot_mb", bytes as f64 / 1e6, "MB")
        .metric("rss_mb", rss as f64 / 1e6, "MB")
        .metric("setup_s", setup_s, "s");
}

/// Client-observed throughput, latency and daemon CPU per query, as
/// `(name, value, unit)`. They move with host contention that lasts
/// minutes on a small shared host (see README), so they are per-layer
/// metrics, unbounded, and stamped on untraced runs' context lines.
fn client_figures(t: &Timed) -> [(&'static str, f64, &'static str); 5] {
    [
        ("qps", windowed(t, |x| x.answered as f64 / x.busy_s), "1/s"),
        ("p50_us", windowed(t, |x| x.p50_us), "us"),
        ("p90_us", windowed(t, |x| x.p90_us), "us"),
        ("p99_us", windowed(t, |x| x.p99_us), "us"),
        ("cpu_us_per_query", windowed(t, cpu_us), "us"),
    ]
}

fn client_summary(t: &Timed) -> Obj {
    let mut o = Obj::default();
    for (name, v, _) in client_figures(t) {
        o.num(name, v);
    }
    o
}

/// The whole timed phase's highest percentile with at least ten samples
/// beyond it, beside the windowed medians the metrics report.
fn whole_tail(t: &Timed) -> Obj {
    let mut lat: Vec<u64> = t.sent.iter().map(|x| x.lat_ns).collect();
    lat.sort_unstable();
    let (pct, v) = tail_percentile(&lat);
    let mut o = Obj::default();
    o.num("samples", lat.len() as f64)
        .num("p50_us", quantile_sorted(&lat, 0.5) as f64 / 1e3)
        .num("pct", pct)
        .num("us", v as f64 / 1e3);
    o
}

fn list(v: impl Iterator<Item = f64>) -> String {
    let items: Vec<String> = v.map(|x| format!("{x:.1}")).collect();
    format!("[{}]", items.join(","))
}

fn med(v: impl Iterator<Item = f64>) -> f64 {
    median(&v.collect::<Vec<_>>())
}

/// Per-layer metrics, and the predictions they are checked against.
fn per_layer(
    m: &mut Obj,
    p: &mut Obj,
    kind: Kind,
    s: &Setup,
    t: &Timed,
    r: &Traced,
    daemon_stats: &str,
) {
    let n = r.requests;
    let us = |stage: u8| per(r.stage_ns[stage as usize] as f64 / 1e3, n);
    let traced_lat: Vec<u64> = t.sent.iter().take(n as usize).map(|x| x.lat_ns).collect();
    let e2e_p50 = bench::p_us(&traced_lat, 0.5);
    let inproc_p50 = bench::p_us(&r.serve_ns, 0.5);
    let stat = |k: &str| bench::json_num(daemon_stats, k).unwrap_or(0.0);
    let shed = stat("shed_overload") + stat("shed_rate") + stat("conn_shed");
    let pubs = &t.publishes;
    let shift = !pubs.is_empty();
    let pages = &r.pages;
    let lookups = pages.hits + pages.faults;
    let root = r.stage_ns[trace::QUERY as usize] as f64;
    let children: u64 = r.stage_ns[1..].iter().sum();
    let cacheable = n.saturating_sub(r.uncacheable);
    let hit_ratio = per(r.hits as f64, cacheable);
    // Index, validation, decode and page-cache time as the daemon pays
    // it: posting decode and page faults happen inside top-down and
    // validation, so the separate decode re-walk is left out.
    let work_us = us(trace::TOPDOWN) + us(trace::VALIDATE);
    for (name, v, unit) in client_figures(t) {
        m.metric(&format!("client.{name}"), v, unit);
    }
    let reload_ms = med(t.reloads.iter().map(|x| x.rtt_ms));
    m.metric("serve.overhead_us", e2e_p50 - inproc_p50, "us")
        .metric("serve.shed", shed, "count")
        .metric("serve.reload_ms", reload_ms, "ms")
        .metric(
            "serve.reload_validate_ms",
            med(t.reloads.iter().map(|x| x.validate_ms)),
            "ms",
        )
        .metric(
            "serve.purged_answers",
            med(t.reloads.iter().map(|x| x.purged as f64)),
            "count",
        )
        .metric(
            "serve.error_frac",
            per(t.errors as f64, t.attempted),
            "ratio",
        )
        .metric("session.probe_us", us(trace::PROBE), "us")
        .metric("session.cache_hit_ratio", hit_ratio, "ratio")
        .metric(
            "session.cache_bypass_cheap",
            per(r.bypass_cheap as f64, n),
            "1/query",
        )
        .metric(
            "session.cache_evictions",
            per(r.evictions as f64, n),
            "1/query",
        )
        .metric("path.parse_us", us(trace::PARSE) + us(trace::COMPILE), "us")
        .metric("path.validate_us", us(trace::VALIDATE), "us")
        .metric("path.data_visits", per(r.data_visits as f64, n), "count")
        .metric(
            "path.validated_frac",
            per(r.validated as f64, r.misses),
            "ratio",
        )
        .metric("index.topdown_us", us(trace::TOPDOWN), "us")
        .metric("index.index_visits", per(r.index_visits as f64, n), "count")
        .metric(
            "index.freeze_ms",
            if shift {
                med(pubs.iter().map(|x| x.freeze_ms))
            } else {
                s.prep.freeze_ms
            },
            "ms",
        )
        .metric("postings.decode_us", us(trace::DECODE), "us")
        .metric(
            "postings.ids_decoded",
            per(r.ids_decoded as f64, n),
            "count",
        )
        .metric(
            "pagecache.lookups_per_query",
            per(lookups as f64, n),
            "count",
        )
        .metric(
            "pagecache.faults_per_query",
            per(pages.faults as f64, n),
            "count",
        )
        .metric(
            "pagecache.hit_ratio",
            per(pages.hits as f64, lookups),
            "ratio",
        )
        .metric(
            "pagecache.evictions_per_query",
            per(pages.evictions as f64, n),
            "count",
        )
        .metric(
            "pagecache.daemon_read_kb_per_query",
            windowed(t, read_kb),
            "KiB",
        )
        .metric(
            "pagecache.readahead_hits",
            per(pages.readahead_hits as f64, n),
            "1/query",
        )
        .metric(
            "pagecache.wasted_prefetches",
            per(pages.wasted_prefetches as f64, n),
            "1/query",
        )
        .metric("store.open_ms", med(r.open_ms.iter().copied()), "ms")
        .metric(
            "store.save_ms",
            if shift {
                med(pubs.iter().map(|x| x.save_ms))
            } else {
                s.save_ms
            },
            "ms",
        )
        .metric(
            "adapt.adapt_ms",
            if shift {
                med(pubs.iter().map(|x| x.adapt_ms))
            } else {
                s.prep.adapt_ms
            },
            "ms",
        )
        .metric(
            "adapt.index_growth",
            (if shift {
                t.final_nodes
            } else {
                s.prep.idx.node_count()
            } - s.prep.nodes_before) as f64,
            "count",
        )
        .metric("setup.datagen_ms", s.prep.datagen_ms, "ms")
        .metric("setup.workload_ms", s.prep.workload_ms, "ms")
        .metric("setup.boot_ms", s.boot_ms, "ms")
        .metric("host.steal_ms", t.steal_ms, "ms")
        .metric(
            "publish_ms",
            if shift {
                bench::publish_median(t)
            } else {
                // The set-up's publish of the adapted index.
                s.prep.adapt_ms + s.prep.freeze_ms + s.save_ms + reload_ms
            },
            "ms",
        )
        .metric("trace.query_us", per(root / 1e3, n), "us")
        .metric(
            "trace.coverage",
            if root > 0.0 {
                children as f64 / root
            } else {
                0.0
            },
            "ratio",
        );
    // The layer separation each workload was designed to show.
    p.num("traced_requests", n as f64)
        .num("work_us_over_p50", work_us / e2e_p50)
        .num("cacheable_hit_ratio", hit_ratio)
        .num("hits", r.hits as f64);
    match kind {
        Kind::Hot => p.raw("holds", work_us < 0.1 * e2e_p50 && hit_ratio >= 0.9),
        Kind::Cold => p.raw("holds", r.hits == 0 && work_us > 0.5 * e2e_p50),
        Kind::Shift => p.raw("holds", pubs.len() == s.plan.batches.len()),
    };
}

fn run(cli: &Cli, t_proc: Instant) -> Result<(String, String, bool), String> {
    let opts = &cli.opts;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut setups_s = Vec::new();
    let mut last: Option<Setup> = None;
    for i in 0..SETUPS {
        if let Some(mut prev) = last.take() {
            prev.daemon.stop()?;
        }
        let t0 = if i == 0 { t_proc } else { Instant::now() };
        let s = bench::set_up(opts, t0, workers)?;
        setups_s.push(s.total_s);
        last = Some(s);
    }
    let Some(mut s) = last else {
        return Err("no set-up ran".into());
    };
    let expect = bench::gate(&s)?;
    let mut t = bench::timed(opts, &mut s, &expect)?;
    if opts.kind == Kind::Shift {
        bench::check_shift(&s, &t, &expect)?;
    }
    let rss = procfs::pid_peak_rss_bytes(s.daemon.pid).unwrap_or(0);
    if t.reloads.is_empty() {
        // hot-resident reloads nothing while timed: one RELOAD of the
        // served file after timing (and after the peak-RSS reading, which
        // a second resident copy would raise) gives its reload figures.
        t.reloads
            .push(bench::reload(&mut s.daemon.client()?, &s.snapshot)?);
    }
    let daemon_stats = s
        .daemon
        .client()?
        .stats()
        .map_err(|e| format!("STATS: {e}"))?;
    s.daemon.stop()?;
    let traced = match opts.trace {
        true => Some(bench::replay(opts, &s, &t)?),
        false => None,
    };

    let mut metrics = Obj::default();
    let mut predictions = Obj::default();
    let holds = match &traced {
        Some(r) => {
            per_layer(
                &mut metrics,
                &mut predictions,
                opts.kind,
                &s,
                &t,
                r,
                &daemon_stats,
            );
            predictions.0.ends_with("true")
        }
        None => {
            end_to_end(&mut metrics, &s, &t, median(&setups_s), rss);
            true
        }
    };
    let cache = SharedCacheConfig::default();
    let mut answer_cache = Obj::default();
    answer_cache
        .num("capacity", cache.capacity as f64)
        .num("byte_cap", cache.byte_cap as f64)
        .num("max_answer_bytes", cache.max_answer_bytes as f64)
        .num("min_cost", cache.min_cost as f64);
    let setups: Vec<String> = setups_s.iter().map(f64::to_string).collect();
    let mut ctx = Obj::default();
    ctx.str("workload", opts.kind.name())
        .str("rev", &cli.rev)
        .num("nproc", workers as f64)
        .num("corpus_nodes", s.prep.g.node_count() as f64)
        .raw("seed", opts.seed)
        .raw("corpus_seed", CORPUS_SEED)
        .raw("paper_workload_seed", PAPER_WORKLOAD_SEED)
        .raw("sample_seed", SAMPLE_SEED)
        .num("workers", s.dcfg.workers as f64)
        .raw(
            "cache_bytes",
            s.dcfg
                .cache_bytes
                .map_or("null".to_string(), |b| b.to_string()),
        )
        .raw("answer_cache", answer_cache)
        .num("snapshot_bytes", s.snapshot_bytes as f64)
        .num(
            "final_snapshot_bytes",
            t.final_bytes.max(s.snapshot_bytes) as f64,
        )
        .num("expressions", s.plan.exprs.len() as f64)
        .num("rounds", t.rounds as f64)
        .num("answered", t.sent.len() as f64)
        .num("windows", t.windows.len() as f64)
        .num("busy_s", t.windows.iter().map(|w| w.busy_s).sum::<f64>())
        .raw("client", client_summary(&t))
        .raw("whole_phase_tail", whole_tail(&t))
        .raw(
            "window_qps",
            list(t.windows.iter().map(|w| w.answered as f64 / w.busy_s)),
        )
        .raw("window_p50_us", list(t.windows.iter().map(|w| w.p50_us)))
        .raw("window_p99_us", list(t.windows.iter().map(|w| w.p99_us)))
        .raw("window_cpu_us", list(t.windows.iter().map(cpu_us)))
        .raw(
            "window_read_kb_per_query",
            list(t.windows.iter().map(read_kb)),
        )
        .raw(
            "window_steal_ms",
            list(t.windows.iter().map(|w| w.steal_ms)),
        )
        .num("host_steal_ms", t.steal_ms)
        .raw("setups_s", format!("[{}]", setups.join(",")))
        .num("trace", opts.trace as u8 as f64);
    if traced.is_some() {
        ctx.raw("predictions", predictions);
    }
    let mut wrap = Obj::default();
    wrap.raw("context", ctx);
    let mut result = Obj::default();
    result
        .raw("correct", true)
        .raw("attempted", t.attempted)
        .raw("failed", t.errors)
        .raw("metrics", metrics);
    Ok((wrap.to_string(), result.to_string(), holds))
}

fn main() -> ExitCode {
    let t_proc = Instant::now();
    let cli = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cli, t_proc) {
        Ok((context, result, holds)) => {
            if !holds {
                // A failed prediction is a finding, not a broken run.
                eprintln!("servebench: a layer prediction did not hold; see the context line");
            }
            println!("{context}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(1)
        }
    }
}

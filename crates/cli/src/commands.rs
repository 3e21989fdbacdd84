//! The `mrx` subcommands, factored for testability: every command takes
//! parsed [`Args`] and a writer, and returns a `Result`.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::error::Error;
use std::fmt::Write as _;
use std::fs;

use mrx_datagen::{nasa_like, xmark_like, XmarkConfig};
use mrx_error::MrxError;
use mrx_graph::stats::{graph_stats, label_histogram};
use mrx_graph::xml;
use mrx_graph::{DataGraph, FrozenGraph, GraphView};
use mrx_index::{
    AdaptEngine, AkIndex, DkIndex, MStarIndex, MkIndex, OneIndex, QuerySession, Servable,
    TrustPolicy,
};
use mrx_path::{PathExpr, QueryBudget};
use mrx_workload::{Workload, WorkloadConfig};

use crate::args::{ArgError, Args};

/// Top-level usage text.
pub const USAGE: &str = "\
mrx — multiresolution XML indexing (He & Yang, ICDE 2004)

USAGE:
  mrx gen <xmark|nasa> [--nodes N] [--seed S] [--out FILE]
  mrx stats <file.xml> [--labels N]
  mrx index <file.xml> --kind <a0|ak|one|dk-construct|dk-promote|mk|mstar>
            [--k N] [--fups FILE] [--stats]
  mrx query <file.xml|file.mrx> <expr> [--kind KIND] [--k N] [--fups FILE] [--paper] [--stats]
            [--cache-bytes N] [--max-steps N] [--max-nodes N] [--timeout-ms N]
  mrx freeze <file.xml> --out FILE.mrx [--fups FILE] [--paged [--page-size N]]
  mrx workload <file.xml> [--max-len N] [--count N] [--seed S]
  mrx serve <file.mrx> [--addr HOST:PORT] [--workers N] [--max-conns N]
            [--queue N] [--tenant-backlog N] [--quantum N] [--rate QPS] [--burst N]
            [--max-steps N] [--max-nodes N] [--timeout-ms N] [--cache-bytes N] [--strict]
  mrx client <HOST:PORT> <query|stats|reload|ping|shutdown> [EXPR|FILE.mrx] [--tenant T]

Path expressions: //a/b/c (descendant), /a/b (root-anchored), * wildcards.
FUP files: one path expression per line; lines starting with # are skipped.
The adaptive kinds (dk-promote, mk, mstar) adapt to the whole FUP file in
one batched pass; an M*(k)-index then certifies each node's exact
similarity, so sound queries validate only where it is imprecise.
`freeze` builds an M*(k)-index of an XML file (adapted to --fups) and
writes a compressed v5 snapshot whose extents and adjacency are posting
lists served without decompression. `freeze --paged` writes a
demand-paged v9 snapshot instead: extents stay on disk and are served
through a budgeted page cache with per-page checksums, so opening is
near-instant and the resident set is capped; it prints where the file's
bytes go, section by section. `query` on a .mrx file
detects the layout from its header and loads only the components the
expression needs; for v9, --cache-bytes caps the cache and --stats adds
page fault/hit/eviction counters. A snapshot carries its own index, so
--kind, --k, --fups and --strict-refs are refused there. Snapshots in the
retired v1–v4 and v6–v8 layouts are refused: re-freeze them with `freeze`.
Every command that reads XML accepts --strict-refs, which rejects
documents with duplicate ID declarations or dangling IDREF tokens
(otherwise those are counted and reported as a warning).
--max-steps / --max-nodes / --timeout-ms bound a query's node visits,
answer size, and wall-clock time; an exhausted budget reports the partial
cost instead of an answer (`--stats` counts such trips as budget_trips).
`serve` runs the fault-tolerant multi-tenant daemon over a v5 or v9
snapshot: bounded queues with typed Overloaded/RateLimited shedding
(--rate/--burst arm a default per-tenant token bucket), per-tenant budgets
(--max-steps/--max-nodes/--timeout-ms apply per query), graceful
degradation reported through `client stats`, and zero-downtime hot swap
via `client reload FILE.mrx` (the file is fully validated first; a torn
or corrupt file is rejected while the old snapshot keeps serving).
SIGINT/SIGTERM drain in-flight queries, then print final stats. --strict
refuses a boot snapshot that would degrade instead of serving it. For a
v9 snapshot, --cache-bytes is one page-cache budget for the whole daemon:
every worker serves through the snapshot's one shared cache.
";

type CmdResult = Result<(), Box<dyn Error>>;

/// Dispatches a subcommand by name.
pub fn run(cmd: &str, raw: Vec<String>, out: &mut impl std::io::Write) -> CmdResult {
    match cmd {
        "gen" => cmd_gen(raw, out),
        "stats" => cmd_stats(raw, out),
        "index" => cmd_index(raw, out),
        "query" => cmd_query(raw, out),
        "freeze" => cmd_freeze(raw, out),
        "workload" => cmd_workload(raw, out),
        "serve" => cmd_serve(raw, out),
        "client" => cmd_client(raw, out),
        "help" | "--help" | "-h" => {
            out.write_all(USAGE.as_bytes())?;
            Ok(())
        }
        other => Err(Box::new(ArgError(format!(
            "unknown command `{other}` (try `mrx help`)"
        )))),
    }
}

/// Loads and parses an XML document, surfacing the [`xml::ParseReport`] of
/// reference anomalies the lenient parse tolerated. With `strict_refs` the
/// parser rejects those anomalies instead.
fn load_xml(
    path: &str,
    strict_refs: bool,
    out: &mut impl std::io::Write,
) -> Result<DataGraph, Box<dyn Error>> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let opts = xml::ParseOptions {
        strict_refs,
        ..Default::default()
    };
    let (g, report) = xml::parse_with_report(&text, &opts)?;
    if !report.is_clean() {
        writeln!(
            out,
            "warning: {} duplicate ID declaration(s), {} dangling IDREF token(s) \
             (--strict-refs rejects such documents)",
            report.duplicate_ids, report.dangling_idrefs
        )?;
    }
    Ok(g)
}

/// Builds the [`QueryBudget`] described by `--max-steps`, `--max-nodes` and
/// `--timeout-ms`, or an unlimited one when none is given.
fn budget_from_args(args: &Args) -> Result<QueryBudget, Box<dyn Error>> {
    let mut b = QueryBudget::unlimited();
    if args.option("max-steps").is_some() {
        b.max_steps = Some(args.option_parse("max-steps", 0u64)?);
    }
    if args.option("max-nodes").is_some() {
        b.max_result_nodes = Some(args.option_parse("max-nodes", 0u64)?);
    }
    if args.option("timeout-ms").is_some() {
        let ms: u64 = args.option_parse("timeout-ms", 0)?;
        b.deadline = Some(std::time::Instant::now() + std::time::Duration::from_millis(ms));
    }
    Ok(b)
}

/// Renders a budget trip: what ran out, and how far the query got.
fn render_budget_trip(e: &MrxError) -> String {
    match e.as_budget() {
        Some(b) => format!(
            "budget exhausted ({:?}) after {} index + {} data node visits",
            b.kind, b.index_nodes, b.data_nodes
        ),
        None => format!("query failed: {e}"),
    }
}

fn load_fups(path: &str) -> Result<Vec<PathExpr>, Box<dyn Error>> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(PathExpr::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?);
    }
    Ok(out)
}

fn cmd_gen(raw: Vec<String>, out: &mut impl std::io::Write) -> CmdResult {
    let args = Args::scan(raw, &["nodes", "seed", "out"])?;
    args.reject_unknown_flags(&[])?;
    let which = args.require_positional(0, "dataset")?;
    let nodes: usize = args.option_parse("nodes", 10_000)?;
    let seed: u64 = args.option_parse("seed", 42)?;
    let g = match which {
        "xmark" => xmark_like(&XmarkConfig::with_target_nodes(nodes), seed),
        "nasa" => nasa_like(nodes, seed),
        other => return Err(Box::new(ArgError(format!("unknown dataset `{other}`")))),
    };
    let doc = xml::write_document(&g)?;
    match args.option("out") {
        Some(path) => {
            fs::write(path, &doc)?;
            writeln!(
                out,
                "wrote {} ({} nodes, {} reference edges)",
                path,
                g.node_count(),
                g.ref_edge_count()
            )?;
        }
        None => out.write_all(doc.as_bytes())?,
    }
    Ok(())
}

fn cmd_stats(raw: Vec<String>, out: &mut impl std::io::Write) -> CmdResult {
    let args = Args::scan(raw, &["labels"])?;
    args.reject_unknown_flags(&["strict-refs"])?;
    let path = args.require_positional(0, "file.xml")?;
    let top: usize = args.option_parse("labels", 10)?;
    let g = load_xml(path, args.flag("strict-refs"), out)?;
    let s = graph_stats(&g);
    writeln!(out, "nodes:            {}", s.nodes)?;
    writeln!(out, "edges:            {}", s.edges)?;
    writeln!(out, "reference edges:  {}", s.ref_edges)?;
    writeln!(out, "labels:           {}", s.labels)?;
    writeln!(out, "max tree depth:   {}", s.max_tree_depth)?;
    writeln!(out, "max fan-out:      {}", s.max_fanout)?;
    writeln!(out, "mean fan-out:     {:.3}", s.mean_fanout)?;
    writeln!(out, "context-reused:   {} nodes", s.reused_label_nodes)?;
    writeln!(out, "top labels:")?;
    for (name, count) in label_histogram(&g).into_iter().take(top) {
        writeln!(out, "  {count:>8}  {name}")?;
    }
    Ok(())
}

fn build_summary(name: &str, nodes: usize, edges: usize) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{name}: {nodes} index nodes, {edges} index edges");
    s
}

fn cmd_index(raw: Vec<String>, out: &mut impl std::io::Write) -> CmdResult {
    let args = Args::scan(raw, &["kind", "k", "fups"])?;
    args.reject_unknown_flags(&["stats", "strict-refs"])?;
    let path = args.require_positional(0, "file.xml")?;
    let g = load_xml(path, args.flag("strict-refs"), out)?;
    let kind = args.option("kind").unwrap_or("mstar");
    let k: u32 = args.option_parse("k", 2)?;
    let fups = match args.option("fups") {
        Some(f) => load_fups(f)?,
        None => Vec::new(),
    };
    match kind {
        "a0" => {
            let (idx, rs) = AkIndex::build_with_stats(&g, 0);
            out.write_all(build_summary("A(0)", idx.node_count(), idx.edge_count()).as_bytes())?;
            if args.flag("stats") {
                out.write_all(mrx_index::stats::render_refine_stats(&rs).as_bytes())?;
            }
        }
        "ak" => {
            let (idx, rs) = AkIndex::build_with_stats(&g, k);
            out.write_all(
                build_summary(&format!("A({k})"), idx.node_count(), idx.edge_count()).as_bytes(),
            )?;
            if args.flag("stats") {
                out.write_all(mrx_index::stats::render_refine_stats(&rs).as_bytes())?;
            }
        }
        "one" => {
            let (idx, rs) = OneIndex::build_with_stats(&g);
            out.write_all(build_summary("1-index", idx.node_count(), idx.edge_count()).as_bytes())?;
            writeln!(
                out,
                "stabilized after {} refinement rounds",
                idx.stabilization_k()
            )?;
            if args.flag("stats") {
                out.write_all(mrx_index::stats::render_refine_stats(&rs).as_bytes())?;
            }
        }
        "dk-construct" => {
            let idx = DkIndex::construct(&g, &fups);
            out.write_all(
                build_summary("D(k)-construct", idx.node_count(), idx.edge_count()).as_bytes(),
            )?;
        }
        "dk-promote" => {
            let mut idx = DkIndex::a0(&g);
            idx.promote_batch(&g, &fups, &mut AdaptEngine::new());
            out.write_all(
                build_summary("D(k)-promote", idx.node_count(), idx.edge_count()).as_bytes(),
            )?;
        }
        "mk" => {
            let mut idx = MkIndex::new(&g);
            idx.refine_batch(&g, &fups, &mut AdaptEngine::new());
            out.write_all(build_summary("M(k)", idx.node_count(), idx.edge_count()).as_bytes())?;
            if args.flag("stats") {
                let s = mrx_index::stats::index_stats(&g, idx.graph());
                out.write_all(mrx_index::stats::render_stats(&s).as_bytes())?;
            }
        }
        "mstar" => {
            let mut idx = MStarIndex::new(&g);
            idx.refine_batch(&g, &fups, &mut AdaptEngine::new());
            out.write_all(
                build_summary(
                    &format!("M*(k), {} components", idx.max_k() + 1),
                    idx.node_count(),
                    idx.edge_count(),
                )
                .as_bytes(),
            )?;
            if args.flag("stats") {
                for (i, s) in mrx_index::stats::mstar_stats(&g, &idx).iter().enumerate() {
                    writeln!(out, "component I{i}:")?;
                    out.write_all(mrx_index::stats::render_stats(s).as_bytes())?;
                }
            }
        }
        other => return Err(Box::new(ArgError(format!("unknown index kind `{other}`")))),
    }
    Ok(())
}

fn cmd_query(raw: Vec<String>, out: &mut impl std::io::Write) -> CmdResult {
    let args = Args::scan(
        raw,
        &[
            "kind",
            "k",
            "fups",
            "cache-bytes",
            "max-steps",
            "max-nodes",
            "timeout-ms",
        ],
    )?;
    args.reject_unknown_flags(&["paper", "show-nodes", "stats", "strict-refs"])?;
    let path = args.require_positional(0, "file")?;
    let expr = args.require_positional(1, "expr")?;
    let q = PathExpr::parse(expr)?;
    let policy = if args.flag("paper") {
        TrustPolicy::Claimed
    } else {
        TrustPolicy::Proven
    };
    let mut session = QuerySession::new(policy);
    session.set_budget(budget_from_args(&args)?);

    // A snapshot carries its own index, and its layout comes from its
    // header (a retired header is refused with a typed error naming
    // `mrx freeze`).
    let snapshot = path.ends_with(".mrx");
    if snapshot {
        let index_flags = ["kind", "k", "fups"]
            .into_iter()
            .filter(|o| args.option(o).is_some());
        let refused: Vec<&str> = index_flags
            .chain(args.flag("strict-refs").then_some("strict-refs"))
            .collect();
        if !refused.is_empty() {
            return Err(Box::new(ArgError(format!(
                "--{} applies only to XML documents: a snapshot carries its own index",
                refused.join(", --")
            ))));
        }
        if mrx_store::snapshot_version(path)? == mrx_store::VERSION_PAGED {
            return query_paged(out, &args, path, &q, &mut session);
        }
    }
    if args.option("cache-bytes").is_some() {
        return Err(Box::new(ArgError(
            "--cache-bytes applies only to demand-paged v9 snapshots".into(),
        )));
    }
    if snapshot {
        return query_compressed(out, &args, path, &q, &mut session);
    }

    let g = load_xml(path, args.flag("strict-refs"), out)?;
    let kind = args.option("kind").unwrap_or("mstar");
    let k: u32 = args.option_parse("k", 2)?;
    let mut fups = match args.option("fups") {
        Some(f) => load_fups(f)?,
        None => Vec::new(),
    };
    fups.push(q.clone()); // the queried expression is itself a FUP
    let mut engine = AdaptEngine::new();
    match kind {
        "ak" => serve_query(
            out,
            &args,
            &mut session,
            AkIndex::build(&g, k).graph(),
            &g,
            &q,
        ),
        "one" => serve_query(
            out,
            &args,
            &mut session,
            OneIndex::build(&g).graph(),
            &g,
            &q,
        ),
        "mk" => {
            let mut idx = MkIndex::new(&g);
            idx.refine_batch(&g, &fups, &mut engine);
            serve_query(out, &args, &mut session, idx.graph(), &g, &q)
        }
        "mstar" => {
            let mut idx = MStarIndex::new(&g);
            idx.refine_batch(&g, &fups, &mut engine);
            serve_query(out, &args, &mut session, &idx, &g, &q)
        }
        other => Err(Box::new(ArgError(format!("unknown index kind `{other}`"))) as Box<dyn Error>),
    }
}

/// Serves one query from a compressed (v5) snapshot, loading only the
/// components the query's length needs.
fn query_compressed(
    out: &mut impl std::io::Write,
    args: &Args,
    path: &str,
    q: &PathExpr,
    session: &mut QuerySession,
) -> CmdResult {
    let mut file = mrx_store::CompressedFile::open(path)?;
    let (graph, star) = file.activate(q)?;
    serve_query(out, args, session, star, graph, q)?;
    writeln!(
        out,
        "loaded {} of {} components ({} bytes; {} extent bytes resident)",
        file.loaded_components().len(),
        file.component_count(),
        file.bytes_read(),
        file.extent_bytes()
    )?;
    if !file.degraded_components().is_empty() {
        writeln!(
            out,
            "rebuilt {} unreadable component(s): {:?}",
            file.degraded_components().len(),
            file.degraded_components()
        )?;
    }
    Ok(())
}

/// Serves one query from a demand-paged (v9) snapshot: near-zero open,
/// component metadata loaded as a prefix, extents paged in on demand
/// under the cache budget.
fn query_paged(
    out: &mut impl std::io::Write,
    args: &Args,
    path: &str,
    q: &PathExpr,
    session: &mut QuerySession,
) -> CmdResult {
    let mut file = match args.option("cache-bytes") {
        Some(_) => mrx_store::PagedFile::open_with(path, args.option_parse("cache-bytes", 0u64)?)?,
        None => mrx_store::PagedFile::open(path)?,
    };
    let (graph, star) = file.activate(q)?;
    serve_query(out, args, session, star, graph, q)?;
    writeln!(
        out,
        "loaded {} of {} components ({} bytes eager; {} bytes demand-paged)",
        file.loaded_components().len(),
        file.component_count(),
        file.bytes_read(),
        file.paged_bytes()
    )?;
    if args.flag("stats") {
        let s = file.page_stats();
        writeln!(
            out,
            "pages: size={} faults={} hits={} evictions={} resident_bytes={}",
            file.page_size(),
            s.faults,
            s.hits,
            s.evictions,
            s.resident_bytes
        )?;
    }
    Ok(())
}

/// The one CLI serving path: serves `q` through the session, then prints
/// the answer line or the budget trip, the session counters under
/// `--stats`, and the answer nodes under `--show-nodes`.
fn serve_query<T: Servable, G: GraphView>(
    out: &mut impl std::io::Write,
    args: &Args,
    session: &mut QuerySession,
    target: &T,
    g: &G,
    q: &PathExpr,
) -> CmdResult {
    let served = session.serve(target, g, q).cloned();
    match served {
        Ok(ans) => {
            writeln!(
                out,
                "{} answers, cost {} index + {} data node visits (validated: {})",
                ans.nodes.len(),
                ans.cost.index_nodes,
                ans.cost.data_nodes,
                ans.validated
            )?;
            if args.flag("stats") {
                writeln!(out, "session: {}", session.stats().render())?;
            }
            if args.flag("show-nodes") {
                print_nodes(out, g, &ans.nodes)?;
            }
            Ok(())
        }
        Err(e @ MrxError::Budget(_)) => {
            writeln!(out, "{}", render_budget_trip(&e))?;
            if args.flag("stats") {
                writeln!(out, "session: {}", session.stats().render())?;
            }
            Ok(())
        }
        Err(e) => Err(Box::new(e)),
    }
}

fn print_nodes<G: GraphView>(
    out: &mut impl std::io::Write,
    g: &G,
    nodes: &[mrx_graph::NodeId],
) -> std::io::Result<()> {
    for &n in nodes.iter().take(50) {
        writeln!(out, "  node {} <{}>", n.0, g.label_str(g.label(n)))?;
    }
    if nodes.len() > 50 {
        writeln!(out, "  ... and {} more", nodes.len() - 50)?;
    }
    Ok(())
}

/// Builds an M*(k)-index of an XML document, adapted to `--fups`, and
/// writes it as a compressed v5 snapshot (or demand-paged v9 with
/// `--paged`, reporting where its bytes go).
fn cmd_freeze(raw: Vec<String>, out: &mut impl std::io::Write) -> CmdResult {
    let args = Args::scan(raw, &["out", "fups", "page-size"])?;
    args.reject_unknown_flags(&["strict-refs", "paged"])?;
    let path = args.require_positional(0, "file.xml")?;
    let dest = args
        .option("out")
        .ok_or_else(|| ArgError("freeze requires --out FILE.mrx".into()))?;
    if args.option("page-size").is_some() && !args.flag("paged") {
        return Err(Box::new(ArgError(
            "--page-size applies only with --paged".into(),
        )));
    }
    if path.ends_with(".mrx") {
        return Err(Box::new(ArgError(
            "freeze reads an XML document; re-freeze a snapshot from its source document".into(),
        )));
    }
    let g = load_xml(path, args.flag("strict-refs"), out)?;
    let mut idx = MStarIndex::new(&g);
    if let Some(f) = args.option("fups") {
        idx.refine_batch(&g, &load_fups(f)?, &mut AdaptEngine::new());
    }
    let fg = FrozenGraph::freeze(&g);
    let cz = idx.freeze_compressed();
    let layout = if args.flag("paged") {
        match args.option("page-size") {
            Some(_) => {
                mrx_store::save_paged_with(dest, &fg, &cz, args.option_parse("page-size", 0u32)?)?
            }
            None => mrx_store::save_paged(dest, &fg, &cz)?,
        }
        "demand-paged v9"
    } else {
        mrx_store::save_compressed(dest, &fg, &cz)?;
        "compressed v5"
    };
    writeln!(
        out,
        "froze {} components ({} data nodes, {layout}) to {dest}",
        cz.components.len(),
        fg.node_count()
    )?;
    if args.flag("paged") {
        // A sole subnode reads its supernode's list, so each distinct
        // extent is stored once.
        writeln!(
            out,
            "{} extent lists for {} nodes",
            cz.distinct_extents(),
            cz.components.iter().map(|c| c.node_count()).sum::<usize>()
        )?;
        let s = mrx_store::PagedFile::open(dest)?.sections();
        writeln!(
            out,
            "bytes: header {}, graph core {}, graph units {}, metas {}, region {}, \
             page table {}; file {}",
            s.header,
            s.graph_core,
            s.graph_units,
            s.metas,
            s.region,
            s.page_table,
            s.total()
        )?;
    }
    Ok(())
}

fn cmd_workload(raw: Vec<String>, out: &mut impl std::io::Write) -> CmdResult {
    let args = Args::scan(raw, &["max-len", "count", "seed"])?;
    args.reject_unknown_flags(&["strict-refs"])?;
    let path = args.require_positional(0, "file.xml")?;
    let g = load_xml(path, args.flag("strict-refs"), out)?;
    let w = Workload::generate(
        &g,
        &WorkloadConfig {
            max_path_len: args.option_parse("max-len", 4)?,
            num_queries: args.option_parse("count", 20)?,
            seed: args.option_parse("seed", 1)?,
            max_enumerated_paths: 400_000,
        },
    );
    for q in &w.queries {
        writeln!(out, "{q}")?;
    }
    writeln!(out, "# length distribution:")?;
    for (len, frac) in w.length_histogram().iter().enumerate() {
        writeln!(out, "#   {len}: {:.1}%", frac * 100.0)?;
    }
    Ok(())
}

fn cmd_serve(raw: Vec<String>, out: &mut impl std::io::Write) -> CmdResult {
    let args = Args::scan(
        raw,
        &[
            "addr",
            "workers",
            "max-conns",
            "queue",
            "tenant-backlog",
            "quantum",
            "rate",
            "burst",
            "max-steps",
            "max-nodes",
            "timeout-ms",
            "cache-bytes",
        ],
    )?;
    args.reject_unknown_flags(&["strict"])?;
    let snapshot = args.require_positional(0, "file.mrx")?;
    let addr = args.option("addr").unwrap_or("127.0.0.1:7171");
    let mut cfg = mrx_serve::ServeConfig::new(addr, snapshot);
    cfg.workers = args.option_parse("workers", cfg.workers)?;
    cfg.max_conns = args.option_parse("max-conns", cfg.max_conns)?;
    cfg.queue_cap = args.option_parse("queue", cfg.queue_cap)?;
    cfg.tenant_backlog = args.option_parse("tenant-backlog", cfg.tenant_backlog)?;
    cfg.quantum = args.option_parse("quantum", cfg.quantum)?;
    cfg.strict_boot = args.flag("strict");
    if args.option("rate").is_some() {
        let rate: f64 = args.option_parse("rate", 0.0)?;
        let burst: f64 = args.option_parse("burst", rate.max(1.0))?;
        cfg.default_rate = Some(mrx_serve::TenantRate { rate, burst });
    }
    let mut budget = mrx_serve::TenantBudget::default();
    if args.option("max-steps").is_some() {
        budget.max_steps = Some(args.option_parse("max-steps", 0u64)?);
    }
    if args.option("max-nodes").is_some() {
        budget.max_result_nodes = Some(args.option_parse("max-nodes", 0u64)?);
    }
    if args.option("timeout-ms").is_some() {
        budget.deadline_ms = Some(args.option_parse("timeout-ms", 0u64)?);
    }
    cfg.default_budget = budget;
    if args.option("cache-bytes").is_some() {
        cfg.paged_cache_bytes = Some(args.option_parse("cache-bytes", 0u64)?);
    }
    mrx_serve::signal::reset();
    mrx_serve::signal::install();
    let server = mrx_serve::Server::start(cfg)?;
    writeln!(out, "serving {snapshot} on {}", server.addr())?;
    out.flush()?;
    while !mrx_serve::signal::triggered() && !server.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    writeln!(out, "draining…")?;
    let report = server.stop();
    writeln!(out, "{}", report.stats_json)?;
    Ok(())
}

fn cmd_client(raw: Vec<String>, out: &mut impl std::io::Write) -> CmdResult {
    let args = Args::scan(raw, &["tenant"])?;
    args.reject_unknown_flags(&[])?;
    let addr = args.require_positional(0, "host:port")?;
    let verb = args.require_positional(1, "verb")?;
    let mut client =
        mrx_serve::Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    match verb {
        "query" => {
            let expr = args.require_positional(2, "expr")?;
            let tenant = args.option("tenant").unwrap_or("default");
            let r = client.query(tenant, expr)?;
            writeln!(
                out,
                "{} node(s), epoch {}, cost {} index + {} data visits{}",
                r.nodes.len(),
                r.epoch,
                r.index_nodes,
                r.data_nodes,
                if r.validated { " (validated)" } else { "" }
            )?;
            for n in &r.nodes {
                writeln!(out, "{n}")?;
            }
        }
        "stats" => writeln!(out, "{}", client.stats()?)?,
        "reload" => {
            let path = args.require_positional(2, "file.mrx")?;
            writeln!(out, "{}", client.reload(path)?)?;
        }
        "ping" => {
            client.ping()?;
            writeln!(out, "pong")?;
        }
        "shutdown" => writeln!(out, "{}", client.shutdown_server()?)?,
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown client verb `{other}` (query|stats|reload|ping|shutdown)"
            ))))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrx_path::Cost;

    fn run_cmd(cmd: &str, args: &[&str]) -> Result<String, String> {
        let mut out = Vec::new();
        run(cmd, args.iter().map(|s| s.to_string()).collect(), &mut out)
            .map_err(|e| e.to_string())?;
        Ok(String::from_utf8(out).unwrap())
    }

    fn tempfile(name: &str, content: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mrx-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::write(&p, content).unwrap();
        p
    }

    const DOC: &str = r#"<site><people><person id="p"><name/></person></people>
        <auction><seller person="p"/></auction></site>"#;

    #[test]
    fn help_prints_usage() {
        let s = run_cmd("help", &[]).unwrap();
        assert!(s.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_cmd("frobnicate", &[])
            .unwrap_err()
            .contains("unknown command"));
    }

    #[test]
    fn stats_on_document() {
        let p = tempfile("stats.xml", DOC);
        let s = run_cmd("stats", &[p.to_str().unwrap()]).unwrap();
        assert!(s.contains("nodes:            6"), "{s}");
        assert!(s.contains("reference edges:  1"), "{s}");
    }

    #[test]
    fn gen_writes_parseable_xml() {
        let s = run_cmd("gen", &["nasa", "--nodes", "300", "--seed", "1"]).unwrap();
        let g = xml::parse(&s).unwrap();
        assert!(g.node_count() > 100);
        assert!(run_cmd("gen", &["marsbase"])
            .unwrap_err()
            .contains("unknown dataset"));
    }

    #[test]
    fn index_kinds_build() {
        let p = tempfile("idx.xml", DOC);
        let f = p.to_str().unwrap();
        for kind in [
            "a0",
            "ak",
            "one",
            "dk-construct",
            "dk-promote",
            "mk",
            "mstar",
        ] {
            let s = run_cmd("index", &[f, "--kind", kind]).unwrap();
            assert!(s.contains("index nodes"), "{kind}: {s}");
        }
        for kind in ["btree", "ud"] {
            assert!(run_cmd("index", &[f, "--kind", kind]).is_err(), "{kind}");
        }
    }

    #[test]
    fn index_batch_matches_sequential() {
        // The CLI adapts through the batched engine, which is oracle-tested
        // for bit-identical indexes; here pin that its summary line equals
        // a sequential per-FUP build's.
        let p = tempfile("batch.xml", DOC);
        let listing = "//auction/seller/person\n//person/name\n";
        let fups = tempfile("batch-fups.txt", listing);
        let g = xml::parse(DOC).unwrap();
        let (mut dk, mut mk, mut ms) = (DkIndex::a0(&g), MkIndex::new(&g), MStarIndex::new(&g));
        for line in listing.lines() {
            let q = PathExpr::parse(line).unwrap();
            dk.promote_for(&g, &q);
            mk.refine_for(&g, &q);
            ms.refine_for(&g, &q);
        }
        let components = format!("M*(k), {} components", ms.max_k() + 1);
        for (kind, want) in [
            (
                "dk-promote",
                build_summary("D(k)-promote", dk.node_count(), dk.edge_count()),
            ),
            (
                "mk",
                build_summary("M(k)", mk.node_count(), mk.edge_count()),
            ),
            (
                "mstar",
                build_summary(&components, ms.node_count(), ms.edge_count()),
            ),
        ] {
            let args = [
                p.to_str().unwrap(),
                "--kind",
                kind,
                "--fups",
                fups.to_str().unwrap(),
            ];
            assert_eq!(run_cmd("index", &args).unwrap(), want, "{kind}");
        }
    }

    #[test]
    fn index_stats_flag() {
        let p = tempfile("statsflag.xml", DOC);
        let fups = tempfile("sf-fups.txt", "//auction/seller/person\n");
        let s = run_cmd(
            "index",
            &[
                p.to_str().unwrap(),
                "--kind",
                "mstar",
                "--fups",
                fups.to_str().unwrap(),
                "--stats",
            ],
        )
        .unwrap();
        assert!(s.contains("component I0:"), "{s}");
        assert!(s.contains("similarity: k=0"), "{s}");
    }

    #[test]
    fn index_stats_flag_reports_refinement() {
        let p = tempfile("refstats.xml", DOC);
        let f = p.to_str().unwrap();
        let s = run_cmd("index", &[f, "--kind", "ak", "--k", "2", "--stats"]).unwrap();
        assert!(s.contains("refinement: 2 round(s)"), "{s}");
        assert!(s.contains("round  1:"), "{s}");
        let s = run_cmd("index", &[f, "--kind", "one", "--stats"]).unwrap();
        assert!(s.contains("refinement:"), "{s}");
    }

    /// Freezes `DOC` adapted to one FUP into a v5 and a v9 snapshot.
    fn freeze_pair(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let doc = tempfile(&format!("{tag}.xml"), DOC);
        let fups = tempfile(
            &format!("{tag}-fups.txt"),
            "# c\n//auction/seller/person\n\n",
        );
        let v5 = tempfile(&format!("{tag}-v5.mrx"), "");
        let v9 = tempfile(&format!("{tag}-v9.mrx"), "");
        let common = [doc.to_str().unwrap(), "--fups", fups.to_str().unwrap()];
        let s = run_cmd(
            "freeze",
            &[&common[..], &["--out", v5.to_str().unwrap()]].concat(),
        )
        .unwrap();
        assert!(s.contains("froze 3 components"), "{s}");
        assert!(s.contains("compressed v5"), "{s}");
        let paged = [
            "--out",
            v9.to_str().unwrap(),
            "--paged",
            "--page-size",
            "64",
        ];
        let s = run_cmd("freeze", &[&common[..], &paged[..]].concat()).unwrap();
        assert!(s.contains("demand-paged v9"), "{s}");
        assert!(s.contains(" extent lists for "), "{s}");
        (v5, v9)
    }

    /// `freeze --paged` names the bytes of every section, and they add up
    /// to the file it wrote.
    #[test]
    fn freeze_paged_reports_where_the_bytes_go() {
        let doc = tempfile("bytes.xml", DOC);
        let v9 = tempfile("bytes-v9.mrx", "");
        let s = run_cmd(
            "freeze",
            &[
                doc.to_str().unwrap(),
                "--out",
                v9.to_str().unwrap(),
                "--paged",
            ],
        )
        .unwrap();
        let line = s.lines().find(|l| l.starts_with("bytes: ")).expect(&s);
        let (parts, file) = line["bytes: ".len()..].split_once("; file ").expect(line);
        let mut names = Vec::new();
        let mut sum = 0u64;
        for part in parts.split(", ") {
            let (name, n) = part.rsplit_once(' ').expect(part);
            names.push(name);
            sum += n.parse::<u64>().expect(part);
        }
        assert_eq!(
            names,
            [
                "header",
                "graph core",
                "graph units",
                "metas",
                "region",
                "page table"
            ]
        );
        let len = std::fs::metadata(&v9).unwrap().len();
        assert_eq!((sum, file.parse::<u64>().unwrap()), (len, len), "{line}");
    }

    #[test]
    fn freeze_and_autodetected_query() {
        let (v5, v9) = freeze_pair("freeze");
        let q = "//auction/seller/person";
        // The layout comes from the header: no flag needed for either.
        let packed = run_cmd("query", &[v5.to_str().unwrap(), q]).unwrap();
        assert!(packed.contains("1 answers"), "{packed}");
        assert!(packed.contains("loaded 3 of 3 components"), "{packed}");
        assert!(packed.contains("extent bytes resident"), "{packed}");
        let paged = run_cmd("query", &[v9.to_str().unwrap(), q]).unwrap();
        assert!(paged.contains("bytes demand-paged"), "{paged}");
        // Same answer count and cost line from both layouts.
        assert_eq!(packed.lines().next(), paged.lines().next());
        // A short query loads only the prefix it needs.
        let short = run_cmd("query", &[v5.to_str().unwrap(), "//seller/person"]).unwrap();
        assert!(short.contains("loaded 2 of 3 components"), "{short}");

        for f in [&v5, &v9] {
            let shown = run_cmd("query", &[f.to_str().unwrap(), q, "--show-nodes"]).unwrap();
            assert!(shown.contains("<person>"), "{shown}");
        }
        // --cache-bytes caps the v9 cache and --stats adds its counters;
        // on a v5 snapshot --cache-bytes is a clear error.
        let s = run_cmd(
            "query",
            &[v9.to_str().unwrap(), q, "--cache-bytes", "4096", "--stats"],
        )
        .unwrap();
        assert!(s.contains("pages: size=64"), "{s}");
        assert!(s.contains("faults="), "{s}");
        let e = run_cmd("query", &[v5.to_str().unwrap(), q, "--cache-bytes", "64"]).unwrap_err();
        assert!(e.contains("v9"), "{e}");
    }

    #[test]
    fn removed_options_are_unknown() {
        let (v5, _) = freeze_pair("removed");
        let doc = tempfile("removed-doc.xml", DOC);
        let out = tempfile("removed-out.mrx", "");
        for (cmd, args) in [
            ("query", vec![v5.to_str().unwrap(), "//person", "--frozen"]),
            ("query", vec![v5.to_str().unwrap(), "//person", "--paged"]),
            (
                "freeze",
                vec![
                    doc.to_str().unwrap(),
                    "--out",
                    out.to_str().unwrap(),
                    "--compress",
                ],
            ),
            (
                "index",
                vec![doc.to_str().unwrap(), "--kind", "mstar", "--save", "x.mrx"],
            ),
            (
                "index",
                vec![doc.to_str().unwrap(), "--kind", "mk", "--batch"],
            ),
            (
                "index",
                vec![doc.to_str().unwrap(), "--kind", "ak", "--l", "2"],
            ),
        ] {
            let e = run_cmd(cmd, &args).unwrap_err();
            assert!(e.contains("unknown flag"), "{cmd} {args:?}: {e}");
        }
        // --page-size needs --paged, and freeze reads XML only.
        let e = run_cmd(
            "freeze",
            &[
                doc.to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
                "--page-size",
                "64",
            ],
        )
        .unwrap_err();
        assert!(e.contains("--paged"), "{e}");
        let e = run_cmd(
            "freeze",
            &[v5.to_str().unwrap(), "--out", out.to_str().unwrap()],
        )
        .unwrap_err();
        assert!(e.contains("XML"), "{e}");
        // Missing --out is a clear error.
        let e = run_cmd("freeze", &[doc.to_str().unwrap()]).unwrap_err();
        assert!(e.contains("--out"), "{e}");
    }

    #[test]
    fn retired_snapshots_are_refused_with_a_pointer_to_freeze() {
        let (v5, _) = freeze_pair("retired");
        let bytes = std::fs::read(&v5).unwrap();
        for version in [1, 2, 3, 4, 6, 7u32] {
            let mut old = bytes.clone();
            old[8..12].copy_from_slice(&version.to_le_bytes());
            let p = tempfile(&format!("retired-v{version}.mrx"), "");
            std::fs::write(&p, &old).unwrap();
            let e = run_cmd("query", &[p.to_str().unwrap(), "//person"]).unwrap_err();
            assert!(e.contains(&format!("v{version}")), "{e}");
            assert!(e.contains("mrx freeze"), "{e}");
        }
    }

    #[test]
    fn query_on_xml_builds_and_answers() {
        let p = tempfile("query.xml", DOC);
        for kind in ["ak", "one", "mk", "mstar"] {
            let s = run_cmd(
                "query",
                &[p.to_str().unwrap(), "//seller/person", "--kind", kind],
            )
            .unwrap();
            assert!(s.contains("1 answers"), "{kind}: {s}");
        }
        let s = run_cmd("query", &[p.to_str().unwrap(), "//person", "--paper"]).unwrap();
        assert!(s.contains("answers"));
        assert!(run_cmd("query", &[p.to_str().unwrap(), "no-slash"]).is_err());
    }

    #[test]
    fn query_stats_flag_reports_session_counters() {
        let p = tempfile("qstats.xml", DOC);
        let s = run_cmd(
            "query",
            &[
                p.to_str().unwrap(),
                "//seller/person",
                "--kind",
                "mk",
                "--stats",
            ],
        )
        .unwrap();
        assert!(
            s.contains("session: queries=1 hits=0 misses=1 evictions=0"),
            "{s}"
        );
    }

    #[test]
    fn query_budget_flags_trip_and_report() {
        let p = tempfile("budget.xml", DOC);
        let f = p.to_str().unwrap();
        // One step of visits is never enough for this query.
        let s = run_cmd(
            "query",
            &[f, "//seller/person", "--max-steps", "1", "--stats"],
        )
        .unwrap();
        assert!(s.contains("budget exhausted (Steps)"), "{s}");
        assert!(s.contains("budget_trips=1"), "{s}");
        // A generous budget answers normally and reports no trips.
        let s = run_cmd(
            "query",
            &[f, "//seller/person", "--max-steps", "100000", "--stats"],
        )
        .unwrap();
        assert!(s.contains("1 answers"), "{s}");
        assert!(s.contains("budget_trips=0"), "{s}");
        // A result cap of zero trips on the first produced node.
        let s = run_cmd("query", &[f, "//person", "--max-nodes", "0"]).unwrap();
        assert!(s.contains("budget exhausted (ResultNodes)"), "{s}");
    }

    #[test]
    fn query_budget_applies_to_both_snapshot_layouts() {
        let (v5, v9) = freeze_pair("budget");
        for file in [&v5, &v9] {
            let f = file.to_str().unwrap();
            let s = run_cmd("query", &[f, "//seller/person", "--max-steps", "1"]).unwrap();
            assert!(s.contains("budget exhausted"), "{f}: {s}");
            let s = run_cmd("query", &[f, "//seller/person", "--max-steps", "100000"]).unwrap();
            assert!(s.contains("1 answers"), "{f}: {s}");
        }
    }

    #[test]
    fn cache_bytes_is_refused_outside_paged_snapshots() {
        let (v5, v9) = freeze_pair("cache-bytes");
        let xml = tempfile("cache-bytes.xml", DOC);
        for file in [&v5, &xml] {
            let f = file.to_str().unwrap();
            let e =
                run_cmd("query", &[f, "//seller/person", "--cache-bytes", "65536"]).unwrap_err();
            assert!(e.contains("--cache-bytes applies only"), "{f}: {e}");
        }
        let f = v9.to_str().unwrap();
        let s = run_cmd("query", &[f, "//seller/person", "--cache-bytes", "65536"]).unwrap();
        assert!(s.contains("1 answers"), "{f}: {s}");
    }

    #[test]
    fn index_flags_are_refused_on_snapshots() {
        let (v5, v9) = freeze_pair("index-flags");
        let fups = tempfile("index-flags-fups.txt", "//seller/person\n");
        for file in [&v5, &v9] {
            let f = file.to_str().unwrap();
            for extra in [
                vec!["--kind", "mk"],
                vec!["--k", "3"],
                vec!["--fups", fups.to_str().unwrap()],
                vec!["--strict-refs"],
            ] {
                let args = [&[f, "//seller/person"][..], &extra[..]].concat();
                let e = run_cmd("query", &args).unwrap_err();
                assert!(
                    e.contains(&format!("{} applies only", extra[0])),
                    "{f} {extra:?}: {e}"
                );
            }
            let e = run_cmd("query", &[f, "//person", "--kind", "ak", "--k", "1"]).unwrap_err();
            assert!(e.contains("--kind, --k applies only"), "{f}: {e}");
        }
    }

    /// `mrx freeze --fups` adapts through the batched engine: its snapshot
    /// is the in-process `AdaptEngine` build, certificates included, so
    /// every FUP gets the same answer and `Cost` from either.
    #[test]
    fn cli_freeze_matches_an_in_process_engine_build() {
        let g = xmark_like(&XmarkConfig::with_target_nodes(3_000), 5);
        let doc = xml::write_document(&g).unwrap();
        let xml_path = tempfile("engine.xml", &doc);
        let g = xml::parse(&doc).unwrap();
        let w = Workload::generate(
            &g,
            &WorkloadConfig {
                max_path_len: 4,
                num_queries: 20,
                seed: 3,
                max_enumerated_paths: 100_000,
            },
        );
        let listing: String = w.queries.iter().map(|q| format!("{q}\n")).collect();
        let fups = tempfile("engine-fups.txt", &listing);
        let snap = tempfile("engine.mrx", "");
        run_cmd(
            "freeze",
            &[
                xml_path.to_str().unwrap(),
                "--fups",
                fups.to_str().unwrap(),
                "--out",
                snap.to_str().unwrap(),
            ],
        )
        .unwrap();

        let mut idx = MStarIndex::new(&g);
        idx.refine_batch(&g, &w.queries, &mut AdaptEngine::new());
        let (fg, cz) = (FrozenGraph::freeze(&g), idx.freeze_compressed());
        // The paged freeze reports the lists it stores: paper §4's count.
        let paged = tempfile("engine-paged.mrx", "");
        let s = run_cmd(
            "freeze",
            &[
                xml_path.to_str().unwrap(),
                "--fups",
                fups.to_str().unwrap(),
                "--out",
                paged.to_str().unwrap(),
                "--paged",
            ],
        )
        .unwrap();
        let counts = format!(
            "{} extent lists for {} nodes",
            idx.node_count(),
            idx.logical_node_count()
        );
        assert!(idx.node_count() < idx.logical_node_count(), "{counts}");
        assert!(s.contains(&counts), "{s}");
        assert_eq!(
            mrx_store::load_compressed(&snap).unwrap(),
            (fg.clone(), cz.clone())
        );
        let mut file = mrx_store::CompressedFile::open(&snap).unwrap();
        let (mut from_cli, mut in_process) = (Cost::ZERO, Cost::ZERO);
        for q in &w.queries {
            let want = QuerySession::new(TrustPolicy::Proven)
                .serve(&cz, &fg, q)
                .unwrap()
                .clone();
            let (graph, star) = file.activate(q).unwrap();
            let mut session = QuerySession::new(TrustPolicy::Proven);
            let got = session.serve(star, graph, q).unwrap();
            assert_eq!(got.nodes, want.nodes, "{q}");
            assert_eq!(got.cost, want.cost, "{q}");
            from_cli += got.cost;
            in_process += want.cost;
        }
        // Per-FUP refinement leaves the conservative certificates only, so
        // the engine's exact ones must be visibly cheaper to serve.
        let mut uncertified = MStarIndex::new(&g);
        for q in &w.queries {
            uncertified.refine_for(&g, q);
        }
        let plain = uncertified.freeze_compressed();
        let mut session = QuerySession::new(TrustPolicy::Proven);
        let mut plain_total = Cost::ZERO;
        for q in &w.queries {
            plain_total += session.serve(&plain, &fg, q).unwrap().cost;
        }
        assert_eq!(from_cli, in_process);
        assert!(
            from_cli.total() < plain_total.total(),
            "{from_cli:?} vs {plain_total:?}"
        );
    }

    const MESSY_DOC: &str = r#"<r><p id="a"/><p id="a"/><q refs="a zzz"/></r>"#;

    #[test]
    fn strict_refs_flag_rejects_and_lenient_warns() {
        let p = tempfile("messy.xml", MESSY_DOC);
        let f = p.to_str().unwrap();
        let s = run_cmd("stats", &[f]).unwrap();
        assert!(
            s.contains("warning: 1 duplicate ID declaration(s), 1 dangling IDREF token(s)"),
            "{s}"
        );
        let e = run_cmd("stats", &[f, "--strict-refs"]).unwrap_err();
        assert!(e.contains("duplicate ID"), "{e}");
        // Clean documents print no warning anywhere.
        let clean = tempfile("clean.xml", DOC);
        let s = run_cmd("index", &[clean.to_str().unwrap(), "--kind", "a0"]).unwrap();
        assert!(!s.contains("warning"), "{s}");
    }

    #[test]
    fn workload_lists_queries() {
        let p = tempfile("wl.xml", DOC);
        let s = run_cmd(
            "workload",
            &[p.to_str().unwrap(), "--count", "5", "--max-len", "3"],
        )
        .unwrap();
        assert_eq!(s.lines().filter(|l| l.starts_with("//")).count(), 5, "{s}");
        assert!(s.contains("length distribution"));
    }

    #[test]
    fn client_verbs_against_a_live_daemon() {
        let xml = tempfile("daemon.xml", DOC);
        let snap = std::env::temp_dir()
            .join(format!("mrx-cli-{}", std::process::id()))
            .join("daemon.mrx");
        run_cmd(
            "freeze",
            &[xml.to_str().unwrap(), "--out", snap.to_str().unwrap()],
        )
        .unwrap();
        let server =
            mrx_serve::Server::start(mrx_serve::ServeConfig::new("127.0.0.1:0", &snap)).unwrap();
        let addr = server.addr().to_string();
        assert!(run_cmd("client", &[&addr, "ping"])
            .unwrap()
            .contains("pong"));
        let q = run_cmd(
            "client",
            &[&addr, "query", "//person/name", "--tenant", "cli"],
        )
        .unwrap();
        assert!(q.contains("node(s), epoch 1"), "{q}");
        let stats = run_cmd("client", &[&addr, "stats"]).unwrap();
        assert!(stats.contains("\"epoch\":1"), "{stats}");
        let reload = run_cmd("client", &[&addr, "reload", snap.to_str().unwrap()]).unwrap();
        assert!(reload.contains("\"epoch\":2"), "{reload}");
        let bye = run_cmd("client", &[&addr, "shutdown"]).unwrap();
        assert!(bye.contains("draining"), "{bye}");
        server.stop();
        // Connection-level failures surface as errors, not panics.
        assert!(run_cmd("client", &[&addr, "ping"]).is_err());
    }

    #[test]
    fn serve_drains_on_signal_flag() {
        let xml = tempfile("sig.xml", DOC);
        let snap = std::env::temp_dir()
            .join(format!("mrx-cli-{}", std::process::id()))
            .join("sig.mrx");
        run_cmd(
            "freeze",
            &[xml.to_str().unwrap(), "--out", snap.to_str().unwrap()],
        )
        .unwrap();
        let snap_arg = snap.to_str().unwrap().to_string();
        let h = std::thread::spawn(move || {
            run_cmd(
                "serve",
                &[&snap_arg, "--addr", "127.0.0.1:0", "--workers", "2"],
            )
        });
        std::thread::sleep(std::time::Duration::from_millis(400));
        mrx_serve::signal::raise();
        let out = h.join().unwrap().unwrap();
        assert!(out.contains("serving"), "{out}");
        assert!(out.contains("\"counters\""), "{out}");
        mrx_serve::signal::reset();
    }

    #[test]
    fn bad_fups_file_reports_line() {
        let doc = tempfile("badfups.xml", DOC);
        let fups = tempfile("bad.txt", "//ok\nnot-a-path\n");
        let e = run_cmd(
            "index",
            &[
                doc.to_str().unwrap(),
                "--kind",
                "mk",
                "--fups",
                fups.to_str().unwrap(),
            ],
        )
        .unwrap_err();
        assert!(e.contains(":2:"), "{e}");
    }
}

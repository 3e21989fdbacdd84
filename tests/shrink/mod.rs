//! Shrinks a failing oracle comparison to a minimal graph and workload.
//!
//! [`check_or_shrink`] runs one test case over a data graph and a query
//! workload. When the case panics (an answer or `Cost` differs from its
//! oracle), it reduces the input while the same mismatch persists: it drops
//! workload queries, then query steps, then data nodes (chunks first, down
//! to one node at a time, rebuilding the graph with [`GraphBuilder`]). It
//! then panics with the minimal graph, the minimal workload and the
//! mismatch. A mismatch "persists" when the last `: `-separated phrase of
//! the first line of the panic message (the assertion's label, such as
//! `cold cost` or `oracle`) is unchanged, so shrinking cannot drift to an
//! unrelated failure.

use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe, PanicHookInfo};
use std::sync::Arc;
use std::thread;

use mrx::graph::{DataGraph, GraphBuilder, NodeId};
use mrx::path::PathExpr;

/// Runs `case(g, queries)`. On a panic, shrinks the input as the module
/// docs describe and panics with the minimal case.
pub fn check_or_shrink<T>(
    ctx: &str,
    g: &DataGraph,
    queries: &[PathExpr],
    case: impl Fn(&DataGraph, &[PathExpr]) -> T,
) -> T {
    let msg = match run(&case, g, queries) {
        Ok(t) => return t,
        Err(msg) => msg,
    };
    let kind = kind_of(&msg).to_string();
    let fails =
        |g: &DataGraph, qs: &[PathExpr]| matches!(run(&case, g, qs), Err(m) if kind_of(&m) == kind);
    let (g, qs) = quietly(|| shrink(g, queries, fails));
    let last = quietly(|| run(&case, &g, &qs).err()).unwrap_or(msg);
    panic!(
        "{ctx}: mismatch `{kind}` shrunk to {} data nodes and {} queries\n{}failure: {last}",
        g.node_count(),
        qs.len(),
        render(&g, &qs)
    );
}

fn run<T>(
    case: &impl Fn(&DataGraph, &[PathExpr]) -> T,
    g: &DataGraph,
    qs: &[PathExpr],
) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(|| case(g, qs))).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into())
    })
}

/// The assertion label: the last `: `-separated phrase of the first line.
fn kind_of(msg: &str) -> &str {
    let first = msg.lines().next().unwrap_or("");
    first.rsplit(": ").next().unwrap_or(first)
}

/// Runs `f` with panic messages from this thread suppressed (each shrink
/// attempt that still fails panics once); other threads report as usual.
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    let me = thread::current().id();
    let prev: Arc<dyn Fn(&PanicHookInfo<'_>) + Send + Sync> = Arc::from(panic::take_hook());
    let outer = Arc::clone(&prev);
    panic::set_hook(Box::new(move |info| {
        if thread::current().id() != me {
            outer(info);
        }
    }));
    let r = f();
    drop(panic::take_hook());
    panic::set_hook(Box::new(move |info| prev(info)));
    r
}

fn shrink(
    g: &DataGraph,
    queries: &[PathExpr],
    fails: impl Fn(&DataGraph, &[PathExpr]) -> bool,
) -> (DataGraph, Vec<PathExpr>) {
    let mut g = without(g, &vec![false; g.node_count()]);
    let mut qs = queries.to_vec();
    loop {
        let mut changed = false;
        let mut i = 0;
        while qs.len() > 1 && i < qs.len() {
            let mut t = qs.clone();
            t.remove(i);
            if fails(&g, &t) {
                qs = t;
                changed = true;
            } else {
                i += 1;
            }
        }
        for qi in 0..qs.len() {
            let mut si = 0;
            while si < qs[qi].steps().len() {
                let mut t = qs.clone();
                match without_step(&qs[qi], si) {
                    Some(q) => t[qi] = q,
                    None => break,
                }
                if fails(&g, &t) {
                    qs = t;
                    changed = true;
                } else {
                    si += 1;
                }
            }
        }
        // The root (node 0) stays; chunks halve down to single nodes.
        let mut chunk = g.node_count() / 2;
        loop {
            chunk = chunk.max(1);
            let mut start = 1;
            while start < g.node_count() {
                let end = (start + chunk).min(g.node_count());
                let mut drop = vec![false; g.node_count()];
                drop[start..end].fill(true);
                let h = without(&g, &drop);
                if fails(&h, &qs) {
                    g = h;
                    changed = true;
                } else {
                    start = end;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        if !changed {
            return (g, qs);
        }
    }
}

/// `q` without step `i`, or `None` if it is the only step.
fn without_step(q: &PathExpr, i: usize) -> Option<PathExpr> {
    let text = q.to_string();
    let (axis, rest) = match text.strip_prefix("//") {
        Some(r) => ("//", r),
        None => ("/", &text[1..]),
    };
    let mut steps: Vec<&str> = rest.split('/').collect();
    if steps.len() < 2 {
        return None;
    }
    steps.remove(i);
    PathExpr::parse(&format!("{axis}{}", steps.join("/"))).ok()
}

/// `g` without the nodes marked in `drop` (never the root), renumbered in
/// order; edges with a dropped end go with it.
fn without(g: &DataGraph, drop: &[bool]) -> DataGraph {
    let mut b = GraphBuilder::with_capacity(g.node_count());
    let mut map = vec![None; g.node_count()];
    for v in g.nodes() {
        if !drop[v.index()] || v == g.root() {
            map[v.index()] = Some(b.add_node(g.label_str(g.label(v))));
        }
    }
    let kept = |v: NodeId| map[v.index()];
    for v in g.nodes() {
        if let (Some(p), Some(c)) = (g.tree_parent(v).and_then(kept), kept(v)) {
            b.add_tree_edge(p, c);
        }
    }
    for &(from, to) in g.ref_edges() {
        if let (Some(f), Some(t)) = (kept(from), kept(to)) {
            b.add_ref(f, t);
        }
    }
    b.freeze()
}

fn render(g: &DataGraph, qs: &[PathExpr]) -> String {
    let mut s = String::from("nodes:");
    for v in g.nodes() {
        write!(s, " {}:{}", v.index(), g.label_str(g.label(v))).unwrap();
    }
    s.push_str("\nedges:");
    for v in g.nodes() {
        for &c in g.children(v) {
            let arrow = if g.tree_parent(c) == Some(v) {
                "->"
            } else {
                "=>"
            };
            write!(s, " {}{arrow}{}", v.index(), c.index()).unwrap();
        }
    }
    s.push_str(" (-> tree, => reference)\nqueries:");
    for q in qs {
        write!(s, " {q}").unwrap();
    }
    s.push('\n');
    s
}

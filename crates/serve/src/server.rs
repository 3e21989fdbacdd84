//! The `mrx serve` daemon: a thread-per-connection acceptor, a bounded
//! DRR work queue, and a worker pool evaluating against an epoch-fenced
//! snapshot slot.
//!
//! # Life of a query
//!
//! 1. The acceptor admits the connection (or sheds it typed when
//!    `max_conns` is reached) and hands it to a connection thread.
//! 2. The connection thread reads one bounded frame at a time (idle
//!    connections are reaped; stalled partial frames — the slow-loris
//!    shape — are rejected typed), decodes it, and for QUERY verbs runs
//!    admission: token bucket first (`RateLimited`), then the bounded DRR
//!    queue (`Overloaded`). Each rejection carries a retry-after hint.
//! 3. A worker pops the query in deficit-round-robin order, pins the
//!    current snapshot `Arc`, and serves it through its [`QuerySession`],
//!    attached to the daemon's shared answer cache: one cache probe, and
//!    on a miss an evaluation under the tenant's [`QueryBudget`] — with a
//!    disconnect probe wired in, so a vanished client cancels its own
//!    query at the next budget poll instead of burning a worker.
//! 4. The worker replies through a rendezvous channel; the connection
//!    thread writes the response frame. One outstanding request per
//!    connection, by construction — which is also what makes the
//!    worker-side socket peek in the disconnect probe race-free.
//!
//! # Failure containment
//!
//! Every failure an individual request can provoke — malformed frame,
//! unparsable path, budget trip, page-checksum poison — is answered as a
//! typed error on that request alone; the server never sends a partial
//! answer and never dies on tenant input. Snapshot-level failures are
//! contained by validation: RELOAD refuses any file that does not pass
//! full checksum + structural validation *before* the swap, so the old
//! epoch keeps serving through torn, truncated, or bit-flipped
//! replacement files.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use mrx_error::{BudgetKind, MrxError};
use mrx_index::{
    Answer, QuerySession, Servable, SharedAnswerCache, SharedCacheConfig, TrustPolicy,
};
use mrx_path::{CancelProbe, PathExpr, QueryBudget};
use mrx_store::StoreError;

use crate::proto::{
    decode_request, encode_response, write_frame, Request, Response, ServeError, MAX_REQUEST_FRAME,
};
use crate::shed::{BucketSet, DrrQueue, Popped, Shed, TenantRate};
use crate::snapshot::{SnapData, Snapshot, SnapshotSlot};

/// Per-tenant query resource limits, enforced by the budget meter inside
/// the evaluators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantBudget {
    /// Cap on total node visits.
    pub max_steps: Option<u64>,
    /// Cap on result-set size.
    pub max_result_nodes: Option<u64>,
    /// Per-query wall-clock deadline.
    pub deadline_ms: Option<u64>,
}

/// Everything the daemon needs to start. `ServeConfig::new` fills in
/// defaults tuned for the chaos harness; real deployments override.
#[derive(Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:7171"` (port 0 picks a free port).
    pub addr: String,
    /// The boot snapshot.
    pub snapshot: PathBuf,
    /// Worker threads evaluating queries.
    pub workers: usize,
    /// Concurrent-connection cap; excess connections are shed typed.
    pub max_conns: usize,
    /// Global queued-request cap.
    pub queue_cap: usize,
    /// Per-tenant queued-request cap.
    pub tenant_backlog: usize,
    /// DRR quantum: consecutive requests one tenant may serve.
    pub quantum: u32,
    /// Token-bucket limit applied to tenants without an override
    /// (`None` disables rate limiting for them).
    pub default_rate: Option<TenantRate>,
    /// Per-tenant token-bucket overrides.
    pub tenant_rates: HashMap<String, TenantRate>,
    /// Budget applied to tenants without an override.
    pub default_budget: TenantBudget,
    /// Per-tenant budget overrides.
    pub tenant_budgets: HashMap<String, TenantBudget>,
    /// Reap a connection that sends nothing for this long.
    pub idle_timeout: Duration,
    /// Reject a connection whose frame stalls mid-send for this long.
    pub frame_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// How long a connection thread waits for its worker reply before
    /// declaring the request lost and closing the connection.
    pub reply_timeout: Duration,
    /// Drain window: RELOAD waits this long for the old epoch to quiesce,
    /// and shutdown waits this long before cancelling in-flight queries.
    pub drain_timeout: Duration,
    /// Poll granularity for connection reads and shutdown checks.
    pub tick: Duration,
    /// Shared answer-cache geometry (capacity, byte cap, admission).
    pub cache: SharedCacheConfig,
    /// Page-cache budget for paged snapshots, `None` for the format
    /// default. One budget for the whole daemon: every worker serves
    /// through the snapshot's one shared page cache.
    pub paged_cache_bytes: Option<u64>,
    /// Refuse a boot snapshot that would degrade components (RELOAD is
    /// always strict; boot defaults to lenient so a partially damaged
    /// file can still come up serving, reported through STATS).
    pub strict_boot: bool,
}

impl ServeConfig {
    pub fn new(addr: impl Into<String>, snapshot: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: addr.into(),
            snapshot: snapshot.into(),
            workers: 4,
            max_conns: 256,
            queue_cap: 256,
            tenant_backlog: 32,
            quantum: 4,
            default_rate: None,
            tenant_rates: HashMap::new(),
            default_budget: TenantBudget::default(),
            tenant_budgets: HashMap::new(),
            idle_timeout: Duration::from_secs(30),
            frame_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(5),
            reply_timeout: Duration::from_secs(60),
            drain_timeout: Duration::from_secs(5),
            tick: Duration::from_millis(50),
            cache: SharedCacheConfig::default(),
            paged_cache_bytes: None,
            strict_boot: false,
        }
    }
}

/// Why the daemon failed to start.
#[derive(Debug)]
pub enum StartError {
    /// Bind/listen failure.
    Io(io::Error),
    /// The boot snapshot failed validation.
    Snapshot(StoreError),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::Io(e) => write!(f, "serve bind failed: {e}"),
            StartError::Snapshot(e) => write!(f, "boot snapshot failed validation: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// Monotonic serve-side counters, all relaxed (`--stats` is
        /// advisory, not a synchronization point).
        #[derive(Default)]
        pub(crate) struct Counters {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        impl Counters {
            fn render_json(&self) -> String {
                let mut s = String::new();
                $(
                    if !s.is_empty() { s.push(','); }
                    s.push_str(concat!("\"", stringify!($name), "\":"));
                    s.push_str(&self.$name.load(Ordering::Relaxed).to_string());
                )*
                s
            }
        }
    };
}

counters! {
    /// Connections accepted.
    accepted,
    /// Connections shed at accept (`max_conns`).
    conn_shed,
    /// Well-framed requests decoded (all verbs).
    requests,
    /// QUERY verbs admitted for evaluation.
    queries,
    /// Successful answers returned (cache hits included).
    answers,
    /// Queries shed by queue caps (`Overloaded`).
    shed_overload,
    /// Queries shed by token buckets (`RateLimited`).
    shed_rate,
    /// Budget trips (steps / result nodes / deadline).
    budget_trips,
    /// Queries cancelled by client disconnect or shutdown.
    cancelled,
    /// Malformed frames / verbs / fields.
    protocol_errors,
    /// Unparsable path expressions.
    path_errors,
    /// Store-level failures answered typed (open/read errors).
    store_errors,
    /// Page-integrity poison events surfaced as typed errors.
    poison_trips,
    /// Successful hot swaps.
    reloads_ok,
    /// RELOADs refused by validation (old epoch kept serving).
    reloads_rejected,
    /// Idle connections reaped.
    idle_reaped,
    /// Stalled partial frames rejected (slow-loris shape).
    slow_frames,
    /// Worker replies that missed `reply_timeout`.
    reply_timeouts,
}

fn inc(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// One admitted query travelling from connection thread to worker.
struct Job {
    tenant: String,
    expr: String,
    reply: mpsc::SyncSender<Response>,
    probe: CancelProbe,
}

pub(crate) struct Shared {
    cfg: ServeConfig,
    slot: SnapshotSlot,
    queue: DrrQueue<Job>,
    buckets: BucketSet,
    cache: Arc<SharedAnswerCache>,
    stats: Counters,
    shutdown: AtomicBool,
    /// Raised only if the drain deadline passes with queries still
    /// running: trips every in-flight budget at its next poll.
    cancel_all: Arc<AtomicBool>,
    conns: AtomicUsize,
    in_flight: AtomicUsize,
    reload_lock: Mutex<()>,
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for job in self.queue.close() {
            let _ = job.reply.send(Response::Error(ServeError::ShuttingDown));
        }
    }

    fn rate_for(&self, tenant: &str) -> Option<TenantRate> {
        self.cfg
            .tenant_rates
            .get(tenant)
            .copied()
            .or(self.cfg.default_rate)
    }

    fn budget_for(&self, tenant: &str, probe: CancelProbe) -> QueryBudget {
        let tb = self
            .cfg
            .tenant_budgets
            .get(tenant)
            .copied()
            .unwrap_or(self.cfg.default_budget);
        QueryBudget {
            max_steps: tb.max_steps,
            max_result_nodes: tb.max_result_nodes,
            deadline: tb
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            cancel: Some(Arc::clone(&self.cancel_all)),
            probe: Some(probe),
        }
    }

    fn stats_json(&self) -> String {
        let snap = self.slot.pin();
        let degraded: Vec<String> = snap.degraded.iter().map(|d| d.to_string()).collect();
        let c = self.cache.stats();
        // The paged snapshot's one page cache; a v5 snapshot has none.
        let p = match &snap.data {
            SnapData::Paged(paged) => paged.1.fault_cache().map(|pc| pc.stats()),
            SnapData::Compressed(_) => None,
        }
        .unwrap_or_default();
        format!(
            "{{\"epoch\":{},\"kind\":\"{}\",\"version\":{},\"degraded_components\":[{}],\
             \"healthy\":{},\"conns\":{},\"queue\":{},\"counters\":{{{}}},\
             \"cache\":{{\"hits\":{},\"misses\":{},\"insertions\":{},\"bypass_large\":{},\
             \"bypass_cheap\":{},\"evictions\":{},\"entries\":{},\"bytes\":{}}},\
             \"pages\":{{\"resident_bytes\":{},\"faults\":{},\"hits\":{}}}}}",
            snap.epoch,
            snap.kind,
            snap.version,
            degraded.join(","),
            snap.degraded.is_empty(),
            self.conns.load(Ordering::SeqCst),
            self.queue.len(),
            self.stats.render_json(),
            c.hits,
            c.misses,
            c.insertions,
            c.bypass_large,
            c.bypass_cheap,
            c.evictions,
            c.entries,
            c.bytes,
            p.resident_bytes,
            p.faults,
            p.hits,
        )
    }
}

/// A running daemon. Dropping it without [`Server::stop`] begins a
/// shutdown but does not wait for it.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Final statistics from a stopped server.
pub struct ServerReport {
    /// The same JSON the STATS verb serves, snapshotted at exit.
    pub stats_json: String,
}

impl Server {
    /// Validates the boot snapshot, binds, and spawns the acceptor and
    /// worker pool. Returns once the socket is accepting.
    pub fn start(cfg: ServeConfig) -> Result<Server, StartError> {
        let snap = Snapshot::load(&cfg.snapshot, 1, cfg.strict_boot, cfg.paged_cache_bytes)
            .map_err(StartError::Snapshot)?;
        let listener = TcpListener::bind(&cfg.addr).map_err(StartError::Io)?;
        listener.set_nonblocking(true).map_err(StartError::Io)?;
        let addr = listener.local_addr().map_err(StartError::Io)?;
        let shared = Arc::new(Shared {
            queue: DrrQueue::new(cfg.queue_cap, cfg.tenant_backlog, cfg.quantum),
            buckets: BucketSet::new(),
            cache: Arc::new(SharedAnswerCache::new(cfg.cache.clone())),
            stats: Counters::default(),
            shutdown: AtomicBool::new(false),
            cancel_all: Arc::new(AtomicBool::new(false)),
            conns: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            reload_lock: Mutex::new(()),
            slot: SnapshotSlot::new(snap),
            cfg,
        });
        let mut workers = Vec::with_capacity(shared.cfg.workers.max(1));
        for i in 0..shared.cfg.workers.max(1) {
            let sh = Arc::clone(&shared);
            let h = thread::Builder::new()
                .name(format!("mrx-worker-{i}"))
                .spawn(move || worker_loop(sh))
                .map_err(StartError::Io)?;
            workers.push(h);
        }
        let sh = Arc::clone(&shared);
        let acceptor = thread::Builder::new()
            .name("mrx-acceptor".into())
            .spawn(move || acceptor_loop(sh, listener))
            .map_err(StartError::Io)?;
        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The STATS JSON, same as the wire verb.
    pub fn stats_json(&self) -> String {
        self.shared.stats_json()
    }

    /// Flags the server to stop accepting and begin draining. Idempotent;
    /// also reachable through the SHUTDOWN verb.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether a shutdown has been requested (verb or signal relay).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Begins shutdown and waits for the drain: in-flight queries get
    /// `drain_timeout` to finish before being cancelled, workers and the
    /// acceptor are joined, connections are reaped.
    pub fn stop(mut self) -> ServerReport {
        self.shared.begin_shutdown();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        let deadline = Instant::now() + self.shared.cfg.drain_timeout;
        while self.shared.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        if self.shared.in_flight.load(Ordering::SeqCst) > 0 {
            self.shared.cancel_all.store(true, Ordering::SeqCst);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let deadline = Instant::now() + self.shared.cfg.drain_timeout;
        while self.shared.conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        ServerReport {
            stats_json: self.shared.stats_json(),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
    }
}

fn acceptor_loop(sh: Arc<Shared>, listener: TcpListener) {
    loop {
        if sh.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                inc(&sh.stats.accepted);
                let _ = stream.set_nonblocking(false);
                if sh.conns.load(Ordering::SeqCst) >= sh.cfg.max_conns {
                    inc(&sh.stats.conn_shed);
                    shed_connection(stream, &sh.cfg);
                    continue;
                }
                sh.conns.fetch_add(1, Ordering::SeqCst);
                let sh2 = Arc::clone(&sh);
                let spawned = thread::Builder::new()
                    .name("mrx-conn".into())
                    .spawn(move || conn_loop(sh2, stream));
                if spawned.is_err() {
                    // Thread exhaustion is an overload condition too.
                    sh.conns.fetch_sub(1, Ordering::SeqCst);
                    inc(&sh.stats.conn_shed);
                }
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(sh.cfg.tick.min(Duration::from_millis(10)));
            }
            Err(_) => thread::sleep(sh.cfg.tick),
        }
    }
}

/// Best-effort typed rejection for a connection shed at accept time
/// (req_id 0: the client has not spoken yet).
fn shed_connection(mut stream: TcpStream, cfg: &ServeConfig) {
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let payload = encode_response(
        0,
        &Response::Error(ServeError::Overloaded {
            retry_after_ms: 100,
        }),
    );
    let _ = write_frame(&mut stream, &payload);
}

/// Outcome of one bounded connection read.
enum ConnRead {
    Frame(Vec<u8>),
    /// Clean close between frames.
    Eof,
    /// Nothing arrived within `idle_timeout`.
    Idle,
    /// A partial frame stalled past `frame_timeout` (slow-loris shape).
    Slow,
    /// Declared length exceeds the request cap (rejected pre-allocation).
    TooLarge(u32),
    /// Server shutdown observed between reads.
    Shutdown,
    /// Transport error or mid-frame close.
    Broken,
}

fn read_conn_frame(mut stream: &TcpStream, sh: &Shared) -> ConnRead {
    let start = Instant::now();
    let mut got_any = false;
    let mut head = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        if sh.shutdown.load(Ordering::SeqCst) {
            return ConnRead::Shutdown;
        }
        match stream.read(&mut head[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    ConnRead::Eof
                } else {
                    ConnRead::Broken
                }
            }
            Ok(n) => {
                filled += n;
                got_any = true;
            }
            Err(ref e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                let elapsed = start.elapsed();
                if !got_any && elapsed >= sh.cfg.idle_timeout {
                    return ConnRead::Idle;
                }
                if got_any && elapsed >= sh.cfg.frame_timeout {
                    return ConnRead::Slow;
                }
            }
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ConnRead::Broken,
        }
    }
    let len = u32::from_le_bytes(head);
    if len > MAX_REQUEST_FRAME {
        return ConnRead::TooLarge(len);
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0usize;
    while filled < payload.len() {
        if sh.shutdown.load(Ordering::SeqCst) {
            return ConnRead::Shutdown;
        }
        match stream.read(&mut payload[filled..]) {
            Ok(0) => return ConnRead::Broken,
            Ok(n) => filled += n,
            Err(ref e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if start.elapsed() >= sh.cfg.frame_timeout {
                    return ConnRead::Slow;
                }
            }
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ConnRead::Broken,
        }
    }
    ConnRead::Frame(payload)
}

fn send(mut stream: &TcpStream, req_id: u32, resp: &Response) -> io::Result<()> {
    let payload = encode_response(req_id, resp);
    write_frame(&mut stream, &payload)
}

/// Serves one connection; each query's disconnect probe shares its socket.
/// On exit the socket is shut down rather than left to the last `Arc`: a
/// query that outlived its reply window may still hold a probe, and the
/// shutdown is what lets the client see the close and that probe see EOF.
fn conn_loop(sh: Arc<Shared>, stream: TcpStream) {
    let stream = Arc::new(stream);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(sh.cfg.tick));
    let _ = stream.set_write_timeout(Some(sh.cfg.write_timeout));
    loop {
        match read_conn_frame(&stream, &sh) {
            ConnRead::Frame(payload) => match decode_request(&payload) {
                Ok((req_id, req)) => {
                    inc(&sh.stats.requests);
                    if !handle_request(&sh, &stream, req_id, req) {
                        break;
                    }
                }
                Err((req_id, e)) => {
                    // The framing may be out of sync with the peer; answer
                    // typed, then close rather than misparse what follows.
                    inc(&sh.stats.protocol_errors);
                    let _ = send(&stream, req_id, &Response::Error(e));
                    break;
                }
            },
            ConnRead::Eof | ConnRead::Shutdown | ConnRead::Broken => break,
            ConnRead::Idle => {
                inc(&sh.stats.idle_reaped);
                break;
            }
            ConnRead::Slow => {
                inc(&sh.stats.slow_frames);
                inc(&sh.stats.protocol_errors);
                let _ = send(
                    &stream,
                    0,
                    &Response::Error(ServeError::Protocol(
                        "partial frame stalled past the frame deadline".into(),
                    )),
                );
                break;
            }
            ConnRead::TooLarge(n) => {
                inc(&sh.stats.protocol_errors);
                let _ = send(
                    &stream,
                    0,
                    &Response::Error(ServeError::Protocol(format!(
                        "frame of {n} bytes exceeds the {MAX_REQUEST_FRAME}-byte request cap"
                    ))),
                );
                break;
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    sh.conns.fetch_sub(1, Ordering::SeqCst);
}

/// Handles one decoded request; returns whether to keep the connection.
fn handle_request(sh: &Arc<Shared>, stream: &Arc<TcpStream>, req_id: u32, req: Request) -> bool {
    match req {
        Request::Ping => send(stream, req_id, &Response::Text("pong".into())).is_ok(),
        Request::Stats => send(stream, req_id, &Response::Text(sh.stats_json())).is_ok(),
        Request::Shutdown => {
            let _ = send(
                stream,
                req_id,
                &Response::Text("{\"draining\":true}".into()),
            );
            sh.begin_shutdown();
            false
        }
        Request::Reload { path } => {
            let resp = do_reload(sh, &path);
            send(stream, req_id, &resp).is_ok()
        }
        Request::Query { tenant, expr } => {
            let (resp, keep) = admit_query(sh, stream, tenant, expr);
            send(stream, req_id, &resp).is_ok() && keep
        }
    }
}

/// Runs the admission pipeline for one query and waits for its answer.
/// Returns the response plus whether the connection is still coherent.
fn admit_query(
    sh: &Arc<Shared>,
    stream: &Arc<TcpStream>,
    tenant: String,
    expr: String,
) -> (Response, bool) {
    if sh.shutdown.load(Ordering::SeqCst) {
        return (Response::Error(ServeError::ShuttingDown), false);
    }
    if let Some(limit) = sh.rate_for(&tenant) {
        if let Err(retry_after_ms) = sh.buckets.take(&tenant, limit, Instant::now()) {
            inc(&sh.stats.shed_rate);
            return (
                Response::Error(ServeError::RateLimited { retry_after_ms }),
                true,
            );
        }
    }
    inc(&sh.stats.queries);
    let probe = disconnect_probe(Arc::clone(stream));
    let (reply, rx) = mpsc::sync_channel(1);
    let job = Job {
        tenant: tenant.clone(),
        expr,
        reply,
        probe,
    };
    match sh.queue.push(&tenant, job) {
        Ok(()) => match rx.recv_timeout(sh.cfg.reply_timeout) {
            Ok(resp) => (resp, true),
            Err(_) => {
                // The worker still holds the reply sender. keep = false
                // ends `conn_loop`, which shuts the socket down: the
                // client sees a close, and the job's disconnect probe
                // reads EOF and cancels it at its next budget poll.
                inc(&sh.stats.reply_timeouts);
                (
                    Response::Error(ServeError::Server(
                        "query did not complete within the reply window".into(),
                    )),
                    false,
                )
            }
        },
        Err((Shed::Closed, _)) => (Response::Error(ServeError::ShuttingDown), false),
        Err((_, _)) => {
            inc(&sh.stats.shed_overload);
            // Scale the hint with backlog so clients back off harder the
            // deeper the overload.
            let retry_after_ms = 20 + (sh.queue.len() as u32) * 5 / (sh.cfg.workers.max(1) as u32);
            (
                Response::Error(ServeError::Overloaded { retry_after_ms }),
                true,
            )
        }
    }
}

/// Detects a vanished client from the worker side, over the connection's
/// own socket. Safe because each connection has at most one outstanding
/// request: while the worker evaluates, the connection thread is parked on
/// the reply channel and nobody else touches the socket, so briefly making
/// it non-blocking for a peek cannot disturb a read.
fn disconnect_probe(stream: Arc<TcpStream>) -> CancelProbe {
    CancelProbe::new(move || {
        if stream.set_nonblocking(true).is_err() {
            return true;
        }
        let mut byte = [0u8; 1];
        let r = stream.peek(&mut byte);
        let _ = stream.set_nonblocking(false);
        match r {
            Ok(0) => true,  // orderly close
            Ok(_) => false, // pipelined bytes waiting: alive
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => false,
            Err(_) => true, // reset / transport gone
        }
    })
}

/// Validates `path` fully, then hot-swaps. Serialized so concurrent
/// RELOADs cannot interleave epochs; queries are never blocked by the
/// validation (they run against the old epoch until the instant of the
/// swap).
fn do_reload(sh: &Arc<Shared>, path: &str) -> Response {
    let _guard = sh.reload_lock.lock().unwrap_or_else(|e| e.into_inner());
    if sh.shutdown.load(Ordering::SeqCst) {
        return Response::Error(ServeError::ShuttingDown);
    }
    let next_epoch = sh.slot.epoch() + 1;
    let t0 = Instant::now();
    match Snapshot::load(
        Path::new(path),
        next_epoch,
        true, // RELOAD is always strict: a replacement must be pristine
        sh.cfg.paged_cache_bytes,
    ) {
        Err(e) => {
            inc(&sh.stats.reloads_rejected);
            Response::Error(ServeError::ReloadRejected(e.to_string()))
        }
        Ok(snap) => {
            let (version, kind) = (snap.version, snap.kind);
            let validate_ms = t0.elapsed().as_millis();
            let old = sh.slot.swap(snap);
            // Epoch fence: wait for every query pinning the old snapshot
            // to finish before reporting the swap complete.
            let deadline = Instant::now() + sh.cfg.drain_timeout;
            let mut drained = true;
            while Arc::strong_count(&old) > 1 {
                if Instant::now() >= deadline {
                    drained = false;
                    break;
                }
                thread::sleep(Duration::from_millis(1));
            }
            let purged = sh.cache.purge_other_generations(next_epoch);
            inc(&sh.stats.reloads_ok);
            Response::Text(format!(
                "{{\"epoch\":{next_epoch},\"version\":{version},\"kind\":\"{kind}\",\
                 \"drained\":{drained},\"purged_answers\":{purged},\"validate_ms\":{validate_ms}}}"
            ))
        }
    }
}

fn worker_loop(sh: Arc<Shared>) {
    let mut session = QuerySession::new(TrustPolicy::Proven);
    loop {
        match sh.queue.pop(sh.cfg.tick) {
            Popped::Item(job) => {
                sh.in_flight.fetch_add(1, Ordering::SeqCst);
                let resp = eval_job(&sh, &mut session, &job);
                // The budget holds the job's disconnect probe, which owns
                // a share of the connection's socket: release it now, not
                // at this worker's next job.
                session.set_budget(QueryBudget::unlimited());
                if matches!(resp, Response::Answer { .. }) {
                    inc(&sh.stats.answers);
                }
                let _ = job.reply.send(resp);
                sh.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            Popped::Timeout => {}
            Popped::Closed => return,
        }
    }
}

fn answer_response(serving_epoch: u64, a: &Answer) -> Response {
    Response::Answer {
        epoch: serving_epoch,
        index_nodes: a.cost.index_nodes,
        data_nodes: a.cost.data_nodes,
        validated: a.validated,
        nodes: a.nodes.iter().map(|n| n.0).collect(),
    }
}

/// Evaluates one admitted query against the pinned snapshot through the
/// worker's session, attached to the daemon's answer cache under the
/// snapshot's serving epoch. Every failure mode returns a typed error;
/// partial answers are impossible (an error discards the whole
/// evaluation).
fn eval_job(sh: &Arc<Shared>, session: &mut QuerySession, job: &Job) -> Response {
    let snap = sh.slot.pin();
    let expr = match PathExpr::parse(&job.expr) {
        Ok(e) => e,
        Err(e) => {
            inc(&sh.stats.path_errors);
            return Response::Error(ServeError::Path(e.to_string()));
        }
    };
    // The cache key is (expression, serving epoch, index epoch), so a hot
    // swap can never serve a stale answer.
    session.attach_shared(Arc::clone(&sh.cache), snap.epoch);
    session.set_budget(sh.budget_for(&job.tenant, job.probe.clone()));
    let served = match &snap.data {
        SnapData::Compressed(resident) => {
            let (g, star) = &**resident;
            session.serve(star, g, &expr)
        }
        SnapData::Paged(paged) => {
            let (g, star) = &**paged;
            session.serve(star, g, &expr)
        }
    };
    match served {
        Ok(ans) => answer_response(snap.epoch, ans),
        Err(MrxError::Budget(be)) => {
            if be.kind == BudgetKind::Cancelled {
                inc(&sh.stats.cancelled);
            } else {
                inc(&sh.stats.budget_trips);
            }
            Response::Error(ServeError::Budget {
                kind: be.kind,
                index_nodes: be.index_nodes,
                data_nodes: be.data_nodes,
            })
        }
        // The session's fault probe: a page-integrity failure poisons the
        // page cache rather than panicking, and its answer is never admitted.
        Err(MrxError::Store(e)) => {
            inc(&sh.stats.poison_trips);
            inc(&sh.stats.store_errors);
            Response::Error(ServeError::Store(format!("page integrity failure: {e}")))
        }
        Err(e) => Response::Error(ServeError::Server(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// A loopback connection: (client end, server end).
    fn pair() -> (TcpStream, Arc<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, Arc::new(server))
    }

    #[test]
    fn disconnect_probe_tells_a_live_peer_from_a_closed_one() {
        let (mut client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let probe = disconnect_probe(Arc::clone(&server));
        assert!(!probe.is_cancelled(), "idle live peer");
        client.write_all(b"x").unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(server.peek(&mut byte).unwrap(), 1, "pipelined byte");
        assert!(!probe.is_cancelled(), "live peer with pipelined bytes");
        // The probe only peeks: the byte is still there to read.
        (&*server).read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"x");
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !probe.is_cancelled() {
            assert!(Instant::now() < deadline, "closed peer never seen");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

//! The query-serving layer: per-session scratch, a frequent-query answer
//! cache, and parallel workload replay.
//!
//! The paper's premise is that *frequent* queries repeat. A [`QuerySession`]
//! exploits that twice over:
//!
//! 1. **Scratch reuse** — all per-query mutable state (index-eval frontiers,
//!    the validator memo) lives in the session and is cleared by epoch
//!    bumps, so evaluating a query performs no scratch allocations in
//!    steady state (see [`QueryScratch`]).
//! 2. **Answer caching** — a served answer is kept in a
//!    [`SharedAnswerCache`] keyed by the normalized expression; re-serving a
//!    frequent query is one read-locked hash probe. Entries are stamped with
//!    the index's *mutation epoch* ([`crate::IndexGraph::mutation_epoch`])
//!    at serve time; any refinement bumps the epoch, so a stale answer never
//!    matches and is replaced when the query is next evaluated.
//!
//! There is one cache type, held by one owner or by many. A session made by
//! [`QuerySession::new`] owns a private cache;
//! [`QuerySession::attach_shared`] swaps it for a cache owned elsewhere, so
//! sessions on different threads share one set of answers: a query one
//! tenant warmed is a hash probe for every other tenant. Entries are keyed by (expression, generation, epoch) and
//! never serve across generations, so a server that hot-swaps snapshots
//! invalidates the cache for free by bumping the generation.
//!
//! A session is pinned to **one index, one data graph, and one trust
//! policy** per generation: cache keys are expressions only, so sharing a
//! cache across indexes or policies under one generation would conflate
//! their answers. Build one session per (index, policy) pair — they are
//! cheap — and one per *thread* when replaying in parallel ([`replay`]);
//! the index and graph are shared read-only.
//!
//! Demand-paged targets report integrity faults through one probe,
//! [`Servable::fault_cache`]. The session checks it after every
//! evaluation and before admission, so an answer computed over a bad page
//! is never cached: [`QuerySession::serve`] takes the fault and returns it
//! as [`MrxError::Store`], and [`replay`] stops at the first such error.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use mrx_error::MrxError;
use mrx_graph::GraphView;
use mrx_pagecache::PageCache;
use mrx_path::{
    BudgetKind, BudgetMeter, CompiledPath, CompiledStep, Cost, Governor, PathExpr, QueryBudget,
    Ungoverned,
};

use crate::query::{self, Answer, QueryScratch, TrustPolicy};
use crate::snapshot::{top_down_governed, MStarSnapshot};
use crate::view::IndexView;
use crate::MStarIndex;

/// Approximate heap footprint of one cache entry: the answer's node ids
/// and target index nodes, the stored compiled path's steps, and a fixed
/// allowance for the key and map overhead.
fn entry_bytes(key: &PathExpr, compiled: &CompiledPath, answer: &Answer) -> usize {
    128 + key.steps().len() * 16
        + compiled.steps.len() * size_of::<CompiledStep>()
        + (answer.nodes.len() + answer.target_index_nodes.len()) * 4
}

/// The doorkeeper's 64-bit key for an expression: a collision can only
/// admit an answer one miss early, never serve a wrong one.
fn fingerprint(path: &PathExpr) -> u64 {
    let mut h = DefaultHasher::new();
    path.hash(&mut h);
    h.finish()
}

/// Hit/miss/eviction counters for one session (or a merged replay).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries served, including cache hits.
    pub queries: u64,
    /// Served straight from the cache.
    pub hits: u64,
    /// Evaluated against the index (cold or invalidated).
    pub misses: u64,
    /// Entries this session's admissions displaced: a stale answer to the
    /// same expression, or an LRU victim.
    pub evictions: u64,
    /// Queries aborted by the resource budget (steps, results, deadline, or
    /// cooperative cancellation).
    pub budget_trips: u64,
    /// The subset of `evictions` forced by the entry or byte cap (LRU
    /// victims), as opposed to staleness. A high count means the cache is
    /// undersized for the workload's distinct-query set.
    pub cap_evictions: u64,
    /// Answers the cache's doorkeeper refused on their expression's first
    /// miss (see [`SharedCacheConfig::doorkeeper`]).
    pub bypass_once: u64,
}

impl SessionStats {
    /// Folds another session's counters into this one (used when merging
    /// per-thread sessions after a parallel replay).
    pub fn merge(&mut self, other: &SessionStats) {
        self.queries += other.queries;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.budget_trips += other.budget_trips;
        self.cap_evictions += other.cap_evictions;
        self.bypass_once += other.bypass_once;
    }

    /// One-line human-readable rendering (the CLI's `--stats` output).
    pub fn render(&self) -> String {
        format!(
            "queries={} hits={} misses={} evictions={} cap_evictions={} budget_trips={} \
             bypass_once={}",
            self.queries,
            self.hits,
            self.misses,
            self.evictions,
            self.cap_evictions,
            self.budget_trips,
            self.bypass_once,
        )
    }
}

/// Tuning knobs for a [`SharedAnswerCache`]. `Default` suits a serving
/// daemon: plenty of entries, a bounded footprint, and an admission policy
/// that refuses answers too large to be worth the space, too cheap to be
/// worth a probe, or to expressions not yet seen to recur.
#[derive(Debug, Clone)]
pub struct SharedCacheConfig {
    /// Maximum number of cached answers.
    pub capacity: usize,
    /// Approximate byte budget across all cached answers.
    pub byte_cap: usize,
    /// Admission: answers whose cache entry would exceed this many bytes
    /// are not cached (one `//everything` answer should not evict a
    /// thousand frequent queries).
    pub max_answer_bytes: usize,
    /// Admission: answers whose evaluation cost ([`Cost::total`]) is below
    /// this are not cached — re-evaluating them is about as cheap as the
    /// cache probe itself.
    pub min_cost: u64,
    /// Admission: when set, an answer is cached only on its expression's
    /// second probe miss under the same generation, so a query asked once
    /// per generation never occupies the cache; when clear, on the first.
    pub doorkeeper: bool,
}

impl SharedCacheConfig {
    /// The private cache of a [`QuerySession::new`] session: more entries
    /// than any paper workload has queries (500), so frequent-query
    /// workloads never thrash, and a byte cap because answers are node-id
    /// lists and a handful of `//everything` queries can dwarf thousands of
    /// ordinary ones. Every answer that fits the byte cap is admitted, on
    /// its first miss.
    pub(crate) const SESSION: SharedCacheConfig = SharedCacheConfig {
        capacity: 4096,
        byte_cap: 32 * 1024 * 1024,
        max_answer_bytes: 32 * 1024 * 1024,
        min_cost: 0,
        doorkeeper: false,
    };
}

impl Default for SharedCacheConfig {
    fn default() -> Self {
        SharedCacheConfig {
            capacity: 8192,
            byte_cap: 64 * 1024 * 1024,
            max_answer_bytes: 256 * 1024,
            min_cost: 2,
            doorkeeper: true,
        }
    }
}

/// Counter snapshot from a [`SharedAnswerCache`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Probes that returned a cached answer.
    pub hits: u64,
    /// Probes that found nothing usable.
    pub misses: u64,
    /// Answers admitted into the cache.
    pub insertions: u64,
    /// Answers refused because their entry exceeded `max_answer_bytes`.
    pub bypass_large: u64,
    /// Answers refused because their cost was below `min_cost`.
    pub bypass_cheap: u64,
    /// Answers refused by the doorkeeper: their expression had not missed
    /// before under the generation.
    pub bypass_once: u64,
    /// Entries evicted by cap pressure (LRU victims).
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Approximate bytes currently resident.
    pub bytes: u64,
}

struct SharedEntry {
    /// Caller-defined generation (a serving daemon uses its swap epoch);
    /// entries never match across generations.
    generation: u64,
    /// Index mutation epoch at evaluation time; the entry is valid only
    /// while the index still reports it.
    epoch: u64,
    compiled: Arc<CompiledPath>,
    answer: Arc<Answer>,
    bytes: usize,
    /// Logical clock of the last hit or insert; updated with a relaxed
    /// store so hits stay on the read lock.
    touched: AtomicU64,
}

struct SharedInner {
    map: HashMap<PathExpr, SharedEntry>,
    bytes: usize,
}

/// Why the admission policy refused an answer.
enum Refusal {
    /// Over `max_answer_bytes` or under `min_cost`.
    Unfit,
    /// The doorkeeper's: the expression's first miss under the generation.
    Once,
}

/// The doorkeeper's sightings, all of one generation: the fingerprint of
/// each expression that missed under it, and whether it missed again.
#[derive(Default)]
struct Sightings {
    generation: u64,
    again: HashMap<u64, bool>,
}

impl Sightings {
    /// Drops every sighting unless they already belong to `generation`.
    fn start(&mut self, generation: u64) {
        if self.generation != generation {
            self.again.clear();
            self.generation = generation;
        }
    }

    /// Records a miss of `path` under `generation`; whether it was sighted
    /// before. A miss under an older generation than the newest seen (a
    /// query finishing on a snapshot just swapped out) is not recorded.
    /// At most `cfg.capacity` sightings are kept; a full table is cleared.
    fn sight(&mut self, path: &PathExpr, generation: u64, cfg: &SharedCacheConfig) -> bool {
        if generation < self.generation {
            return false;
        }
        self.start(generation);
        let fp = fingerprint(path);
        if let Some(again) = self.again.get_mut(&fp) {
            *again = true;
            return true;
        }
        if self.again.len() >= cfg.capacity {
            self.again.clear();
        }
        self.again.insert(fp, false);
        false
    }

    /// Whether `path` missed more than once under `generation`.
    fn sighted_again(&self, path: &PathExpr, generation: u64) -> bool {
        self.generation == generation && self.again.get(&fingerprint(path)) == Some(&true)
    }
}

/// What one admission displaced.
struct Displaced {
    /// An entry for the same expression (stale: a fresh one would have hit).
    replaced: bool,
    /// Entries evicted by cap pressure.
    lru: u64,
}

/// The answer cache, held by one [`QuerySession`] or shared by many (and
/// their threads): hits take a read lock plus a hash probe; only admissions
/// and evictions take the write lock. Entries are keyed by expression and
/// stamped with a `(generation, epoch)` pair that must match exactly, so a
/// cache shared across snapshot swaps can never leak an answer across
/// generations. Admission is policy-gated (see [`SharedCacheConfig`]):
/// oversized answers and answers cheaper than the probe are bypassed, with
/// every outcome counted in [`SharedCacheStats`]. Under cap pressure the
/// least-recently-used entries are evicted one at a time until the new
/// entry fits both the entry and the byte cap.
///
/// With [`SharedCacheConfig::doorkeeper`] set, each probe miss marks the
/// expression's 64-bit fingerprint as sighted under the generation, and an
/// answer is admitted only if its expression was already sighted under
/// that generation. The sightings sit beside the map under their own lock,
/// so a hit never touches them.
pub struct SharedAnswerCache {
    cfg: SharedCacheConfig,
    inner: RwLock<SharedInner>,
    sightings: Mutex<Sightings>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    bypass_large: AtomicU64,
    bypass_cheap: AtomicU64,
    bypass_once: AtomicU64,
    evictions: AtomicU64,
}

impl SharedAnswerCache {
    /// A cache with the given limits and admission policy.
    pub fn new(cfg: SharedCacheConfig) -> Self {
        SharedAnswerCache {
            cfg: SharedCacheConfig {
                capacity: cfg.capacity.max(1),
                byte_cap: cfg.byte_cap.max(1),
                ..cfg
            },
            inner: RwLock::new(SharedInner {
                map: HashMap::new(),
                bytes: 0,
            }),
            sightings: Mutex::new(Sightings::default()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            bypass_large: AtomicU64::new(0),
            bypass_cheap: AtomicU64::new(0),
            bypass_once: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Probes for an answer evaluated at exactly `(generation, epoch)`.
    /// Read-lock only; a hit refreshes the entry's LRU clock and returns two
    /// `Arc` clones, so it allocates nothing. A miss is a doorkeeper
    /// sighting of `path` under `generation`.
    pub fn get(
        &self,
        path: &PathExpr,
        generation: u64,
        epoch: u64,
    ) -> Option<(Arc<CompiledPath>, Arc<Answer>)> {
        self.probe(path, generation, epoch).ok()
    }

    /// [`SharedAnswerCache::get`], reporting on a miss whether the
    /// doorkeeper lets the answer in.
    fn probe(
        &self,
        path: &PathExpr,
        generation: u64,
        epoch: u64,
    ) -> Result<(Arc<CompiledPath>, Arc<Answer>), bool> {
        {
            let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
            if let Some(e) = inner.map.get(path) {
                if e.generation == generation && e.epoch == epoch {
                    let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
                    e.touched.store(now, Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((Arc::clone(&e.compiled), Arc::clone(&e.answer)));
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Err(!self.cfg.doorkeeper || self.lock_sightings().sight(path, generation, &self.cfg))
    }

    fn lock_sightings(&self) -> MutexGuard<'_, Sightings> {
        self.sightings.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Offers an answer; the admission policy may refuse it (returning
    /// `false` and counting the bypass). Admission replaces any stale entry
    /// under the same expression and LRU-evicts under cap pressure. With
    /// the doorkeeper on, `get` must have seen `path` miss twice under
    /// `generation`.
    pub fn admit(
        &self,
        path: &PathExpr,
        generation: u64,
        epoch: u64,
        compiled: &CompiledPath,
        answer: &Answer,
    ) -> bool {
        let sighted = !self.cfg.doorkeeper || self.lock_sightings().sighted_again(path, generation);
        let Ok(bytes) = self.admissible(path, compiled, answer, sighted) else {
            return false;
        };
        let answer = Arc::new(answer.clone());
        self.insert(path, generation, epoch, compiled, answer, bytes);
        true
    }

    /// [`SharedAnswerCache::admit`] for an answer the caller already holds
    /// in an `Arc`, with the doorkeeper's verdict from its probe, reporting
    /// what the admission displaced or why it was refused.
    fn admit_shared(
        &self,
        path: &PathExpr,
        generation: u64,
        epoch: u64,
        compiled: &CompiledPath,
        answer: &Arc<Answer>,
        sighted: bool,
    ) -> Result<Displaced, Refusal> {
        let bytes = self.admissible(path, compiled, answer, sighted)?;
        Ok(self.insert(path, generation, epoch, compiled, Arc::clone(answer), bytes))
    }

    /// The admission policy: the entry's footprint if `answer` may be
    /// cached, the refusal (counted) if not. Size and cost are checked
    /// before the doorkeeper's verdict `sighted`, so an answer that could
    /// never be cached is counted as such however often it recurs.
    fn admissible(
        &self,
        path: &PathExpr,
        compiled: &CompiledPath,
        answer: &Answer,
        sighted: bool,
    ) -> Result<usize, Refusal> {
        let bytes = entry_bytes(path, compiled, answer);
        if bytes > self.cfg.max_answer_bytes {
            self.bypass_large.fetch_add(1, Ordering::Relaxed);
            return Err(Refusal::Unfit);
        }
        if answer.cost.total() < self.cfg.min_cost {
            self.bypass_cheap.fetch_add(1, Ordering::Relaxed);
            return Err(Refusal::Unfit);
        }
        if !sighted {
            self.bypass_once.fetch_add(1, Ordering::Relaxed);
            return Err(Refusal::Once);
        }
        Ok(bytes)
    }

    fn insert(
        &self,
        path: &PathExpr,
        generation: u64,
        epoch: u64,
        compiled: &CompiledPath,
        answer: Arc<Answer>,
        bytes: usize,
    ) -> Displaced {
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let replaced = match inner.map.remove(path) {
            Some(old) => {
                inner.bytes = inner.bytes.saturating_sub(old.bytes);
                true
            }
            None => false,
        };
        let mut lru = 0;
        while !inner.map.is_empty()
            && (inner.map.len() >= self.cfg.capacity
                || inner.bytes.saturating_add(bytes) > self.cfg.byte_cap)
        {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.touched.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            let Some(k) = victim else { break };
            if let Some(e) = inner.map.remove(&k) {
                inner.bytes = inner.bytes.saturating_sub(e.bytes);
                lru += 1;
            }
        }
        self.evictions.fetch_add(lru, Ordering::Relaxed);
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        inner.map.insert(
            path.clone(),
            SharedEntry {
                generation,
                epoch,
                compiled: Arc::new(compiled.clone()),
                answer,
                bytes,
                touched: AtomicU64::new(now),
            },
        );
        inner.bytes = inner.bytes.saturating_add(bytes);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        Displaced { replaced, lru }
    }

    /// Drops every entry and doorkeeper sighting not stamped with
    /// `generation` — a server calls this after a snapshot swap so dead
    /// generations stop occupying the byte budget (they could never be
    /// served again anyway). Returns the number of entries dropped.
    pub fn purge_other_generations(&self, generation: u64) -> usize {
        self.lock_sightings().start(generation);
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let before = inner.map.len();
        inner.map.retain(|_, e| e.generation == generation);
        let freed: usize = before - inner.map.len();
        inner.bytes = inner.map.values().map(|e| e.bytes).sum();
        self.evictions.fetch_add(freed as u64, Ordering::Relaxed);
        freed
    }

    /// Counter snapshot (counters are relaxed atomics; the snapshot is
    /// consistent enough for reporting, not a linearization point).
    pub fn stats(&self) -> SharedCacheStats {
        let (entries, bytes) = {
            let inner = self.inner.read().unwrap_or_else(|e| e.into_inner());
            (inner.map.len() as u64, inner.bytes as u64)
        };
        SharedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            bypass_large: self.bypass_large.load(Ordering::Relaxed),
            bypass_cheap: self.bypass_cheap.load(Ordering::Relaxed),
            bypass_once: self.bypass_once.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

/// Anything a [`QuerySession`] can serve: one index graph, answered by the
/// §3.1 algorithm, or an M*(k) hierarchy, answered top-down by §4.1. Both
/// are written once over [`IndexView`] and monomorphized over the
/// [`Governor`], so budgeted and unbudgeted serving share one code path.
pub trait Servable {
    /// The mutation generation cached answers are stamped with.
    fn cache_epoch(&self) -> u64;

    /// Evaluates a compiled path, charging `budget`; a trip returns the
    /// governor's error with the partial cost.
    fn eval<G: GraphView, B: Governor>(
        &self,
        g: &G,
        cp: &CompiledPath,
        policy: TrustPolicy,
        scratch: &mut QueryScratch,
        budget: &mut B,
    ) -> Result<Answer, (B::Err, Cost)>;

    /// The fault probe: the page cache this target's evaluations (and its
    /// graph's, which share the cache) record integrity faults in. An
    /// evaluation that faulted returned sentinels, not data, so its answer
    /// must not escape. In-memory targets cannot fault and have none.
    fn fault_cache(&self) -> Option<&PageCache> {
        None
    }
}

impl<I: IndexView> Servable for I {
    fn cache_epoch(&self) -> u64 {
        self.mutation_epoch()
    }

    fn eval<G: GraphView, B: Governor>(
        &self,
        g: &G,
        cp: &CompiledPath,
        policy: TrustPolicy,
        scratch: &mut QueryScratch,
        budget: &mut B,
    ) -> Result<Answer, (B::Err, Cost)> {
        query::answer_governed(self, g, cp, policy, scratch, budget)
    }

    fn fault_cache(&self) -> Option<&PageCache> {
        self.page_cache()
    }
}

impl<I: IndexView> Servable for MStarSnapshot<I> {
    fn cache_epoch(&self) -> u64 {
        self.epoch
    }

    fn eval<G: GraphView, B: Governor>(
        &self,
        g: &G,
        cp: &CompiledPath,
        policy: TrustPolicy,
        scratch: &mut QueryScratch,
        budget: &mut B,
    ) -> Result<Answer, (B::Err, Cost)> {
        top_down_governed(&self.components, g, cp, policy, scratch, budget)
    }

    /// Every component of a paged hierarchy reads through the file's one
    /// page cache, so the first component's probe covers them all.
    fn fault_cache(&self) -> Option<&PageCache> {
        self.components.first()?.page_cache()
    }
}

/// A live M*(k)-index serves top-down, the paper's serving strategy; the
/// other §4.1 strategies are reached through [`MStarIndex::query_with_policy`].
impl Servable for MStarIndex {
    fn cache_epoch(&self) -> u64 {
        self.mutation_epoch()
    }

    fn eval<G: GraphView, B: Governor>(
        &self,
        g: &G,
        cp: &CompiledPath,
        policy: TrustPolicy,
        scratch: &mut QueryScratch,
        budget: &mut B,
    ) -> Result<Answer, (B::Err, Cost)> {
        top_down_governed(&self.components, g, cp, policy, scratch, budget)
    }
}

/// A query-serving session over one index and data graph. See the module
/// docs for the caching and invalidation contract.
pub struct QuerySession {
    policy: TrustPolicy,
    scratch: QueryScratch,
    /// The answer cache: the session's own, or one attached from outside.
    cache: Arc<SharedAnswerCache>,
    /// The generation this session stamps on everything it exchanges with
    /// `cache`.
    generation: u64,
    /// The answer served last; `serve` hands out a reference to it.
    last: Arc<Answer>,
    stats: SessionStats,
    budget: QueryBudget,
}

impl QuerySession {
    /// A session serving under `policy` with a private answer cache of
    /// 4,096 entries and 32 MiB that admits every answer fitting the byte
    /// cap.
    pub fn new(policy: TrustPolicy) -> Self {
        QuerySession {
            policy,
            scratch: QueryScratch::new(),
            cache: Arc::new(SharedAnswerCache::new(SharedCacheConfig::SESSION)),
            generation: 0,
            last: Arc::new(Answer {
                nodes: Vec::new(),
                cost: Cost::ZERO,
                target_index_nodes: Vec::new(),
                validated: false,
            }),
            stats: SessionStats::default(),
            budget: QueryBudget::unlimited(),
        }
    }

    /// Replaces the session's cache with `cache`, owned elsewhere and
    /// possibly shared with other sessions and threads. `generation` stamps
    /// everything this session exchanges with the cache — sessions serving
    /// different snapshot generations must use different values (a serving
    /// daemon uses its swap epoch; standalone callers use any constant).
    pub fn attach_shared(&mut self, cache: Arc<SharedAnswerCache>, generation: u64) {
        self.cache = cache;
        self.generation = generation;
    }

    /// Sets the per-query resource budget enforced by
    /// [`QuerySession::serve`].
    pub fn set_budget(&mut self, budget: QueryBudget) {
        self.budget = budget;
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Serves `path` through `target`: probe the cache, compile on a miss,
    /// evaluate under the session's [`QueryBudget`], take the target's
    /// fault, admit. A warm hit is one cache probe with no evaluation and
    /// no validation.
    ///
    /// Generic over [`Servable`] × [`GraphView`]: one index graph (live or
    /// snapshot) answers by the §3.1 algorithm, an M*(k) hierarchy (live
    /// [`MStarIndex`], [`crate::CompressedMStar`], [`crate::PagedMStar`])
    /// top-down by §4.1, all with the same cache semantics. Snapshots report
    /// the epoch captured at freeze time, so a session warmed against the
    /// live index stays warm against a snapshot frozen from the same
    /// generation (and vice versa).
    ///
    /// A query that exhausts its step budget, result cap, or deadline (or is
    /// cooperatively cancelled) returns [`MrxError::Budget`] with the
    /// partial [`Cost`] attached, counted in [`SessionStats::budget_trips`].
    /// An evaluation that faulted on a paged target returns the fault as
    /// [`MrxError::Store`], whatever the evaluation itself returned. Nothing
    /// is cached for either. With an unlimited budget the evaluation is
    /// unmetered. A cache hit does no work, so `max_steps` and the deadline
    /// have nothing to bound there, but the result cap still applies: a
    /// hit larger than `max_result_nodes` returns the same
    /// [`BudgetKind::ResultNodes`] error a miss would, with zero cost.
    pub fn serve<'s, T: Servable, G: GraphView>(
        &'s mut self,
        target: &T,
        g: &G,
        path: &PathExpr,
    ) -> Result<&'s Answer, MrxError> {
        let epoch = target.cache_epoch();
        self.stats.queries += 1;
        let sighted = match self.cache.probe(path, self.generation, epoch) {
            Err(sighted) => sighted,
            Ok((_, answer)) => {
                self.stats.hits += 1;
                self.last = answer;
                if self
                    .budget
                    .max_result_nodes
                    .is_some_and(|cap| self.last.nodes.len() as u64 > cap)
                {
                    self.stats.budget_trips += 1;
                    let e = BudgetMeter::exhausted(BudgetKind::ResultNodes, &Cost::ZERO);
                    return Err(MrxError::Budget(e));
                }
                return Ok(&self.last);
            }
        };
        self.stats.misses += 1;
        let compiled = path.compile(g);
        let evaluated = if self.budget.is_unlimited() {
            target
                .eval(
                    g,
                    &compiled,
                    self.policy,
                    &mut self.scratch,
                    &mut Ungoverned,
                )
                .map_err(|(never, _)| match never {})
        } else {
            let mut meter = self.budget.meter();
            target
                .eval(g, &compiled, self.policy, &mut self.scratch, &mut meter)
                .map_err(|(kind, cost)| BudgetMeter::exhausted(kind, &cost))
        };
        if let Some(fault) = target.fault_cache().and_then(PageCache::take_poison) {
            return Err(MrxError::Store(fault));
        }
        let answer = evaluated.map_err(|e| {
            self.stats.budget_trips += 1;
            MrxError::Budget(e)
        })?;
        self.last = Arc::new(answer);
        match self
            .cache
            .admit_shared(path, self.generation, epoch, &compiled, &self.last, sighted)
        {
            Ok(d) => {
                self.stats.evictions += u64::from(d.replaced) + d.lru;
                self.stats.cap_evictions += d.lru;
            }
            Err(Refusal::Once) => self.stats.bypass_once += 1,
            Err(Refusal::Unfit) => {}
        }
        Ok(&self.last)
    }
}

/// Outcome of a workload replay: summed cost plus merged session counters.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Sum of all per-query costs (order-independent, so deterministic
    /// regardless of thread count).
    pub total: Cost,
    /// Number of queries served.
    pub queries: usize,
    /// Threads actually used (after clamping to the workload size).
    pub threads: usize,
    /// Merged per-thread cache counters.
    pub stats: SessionStats,
}

/// A thread count for [`replay`]: `std::thread::available_parallelism`,
/// else 1.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Replays `queries` against `target` over per-thread [`QuerySession`]s.
/// The index and graph are shared read-only; each thread owns its session
/// (scratch + cache), so no synchronization is needed. `threads == 1` (or
/// a single-query workload) degrades to a plain sequential loop.
///
/// Generic over [`Servable`] × [`GraphView`] like [`QuerySession::serve`].
/// A thread stops at its first error; the report is then that error (the
/// first thread's, in workload order), never a total summed over the
/// queries that happened to succeed.
pub fn replay<T: Servable + Sync, G: GraphView + Sync>(
    target: &T,
    g: &G,
    queries: &[PathExpr],
    policy: TrustPolicy,
    threads: usize,
) -> Result<ReplayReport, MrxError> {
    let run_part = |part: &[PathExpr]| {
        let mut session = QuerySession::new(policy);
        let mut total = Cost::ZERO;
        for q in part {
            total += session.serve(target, g, q)?.cost;
        }
        Ok((total, session.stats))
    };

    let threads = threads.clamp(1, queries.len().max(1));
    let partials: Vec<Result<(Cost, SessionStats), MrxError>> = if threads == 1 {
        vec![run_part(queries)]
    } else {
        let chunk = queries.len().div_ceil(threads);
        let run_part = &run_part;
        std::thread::scope(|s| {
            let handles: Vec<_> = queries
                .chunks(chunk)
                .map(|part| s.spawn(move || run_part(part)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    // Serving is panic-free by construction; if a worker
                    // somehow panicked anyway, propagate rather than
                    // fabricate numbers.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    };

    let mut report = ReplayReport {
        total: Cost::ZERO,
        queries: queries.len(),
        threads: partials.len(),
        stats: SessionStats::default(),
    };
    for partial in partials {
        let (c, st) = partial?;
        report.total += c;
        report.stats.merge(&st);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexGraph;
    use mrx_graph::xml::parse;
    use mrx_graph::DataGraph;
    use mrx_path::eval_data;

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }

    fn doc() -> DataGraph {
        parse(
            "<site>
               <people><person><name><last/></name></person></people>
               <forum><poster><name><last/></name></poster></forum>
             </site>",
        )
        .unwrap()
    }

    /// A session serving through a cache built from `cfg`, plus a handle on
    /// that cache.
    fn session_with(cfg: SharedCacheConfig) -> (QuerySession, Arc<SharedAnswerCache>) {
        let cache = Arc::new(SharedAnswerCache::new(cfg));
        let mut s = QuerySession::new(TrustPolicy::Proven);
        s.attach_shared(cache.clone(), 0);
        (s, cache)
    }

    #[test]
    fn warm_hit_skips_evaluation_and_matches_cold() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let p = PathExpr::parse("//person/name/last").unwrap();
        let (mut s, cache) = session_with(SharedCacheConfig::SESSION);
        let cold = s.serve(&ig, &g, &p).unwrap().clone();
        let warm = s.serve(&ig, &g, &p).unwrap().clone();
        assert_eq!(cold.nodes, warm.nodes);
        assert_eq!(cold.cost, warm.cost);
        assert_eq!(s.stats().queries, 2);
        assert_eq!(s.stats().hits, 1);
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.stats().evictions, 0);
        assert_eq!(cache.stats().entries, 1);
        // A session's own cache admits on the first miss: no doorkeeper.
        assert_eq!((s.stats().bypass_once, cache.stats().bypass_once), (0, 0));
        assert_eq!(sightings(&cache), 0);
    }

    #[test]
    fn session_warmed_on_live_stays_warm_on_compressed() {
        let g = doc();
        let mut idx = MStarIndex::new(&g);
        let p = PathExpr::parse("//person/name/last").unwrap();
        idx.refine_for(&g, &p);
        let fg = mrx_graph::FrozenGraph::freeze(&g);
        let cz = idx.freeze_compressed();
        let mut s = QuerySession::new(TrustPolicy::Proven);
        let cold = s.serve(&idx, &g, &p).unwrap().clone();
        // Same epoch, same answers: the packed snapshot is a cache hit.
        let warm = s.serve(&cz, &fg, &p).unwrap().clone();
        assert_eq!(warm.nodes, cold.nodes);
        assert_eq!(warm.cost, cold.cost);
        assert_eq!(s.stats().hits, 1);
        assert_eq!(s.stats().misses, 1);
        // A cold compressed session agrees bit for bit.
        let mut s2 = QuerySession::new(TrustPolicy::Proven);
        let packed = s2.serve(&cz, &fg, &p).unwrap().clone();
        assert_eq!(packed.nodes, cold.nodes);
        assert_eq!(packed.cost, cold.cost);
    }

    #[test]
    fn mutation_invalidates_cached_answers() {
        let g = doc();
        let mut ig = IndexGraph::a0(&g);
        let p = PathExpr::parse("//name/last").unwrap();
        let mut s = QuerySession::new(TrustPolicy::Proven);
        s.serve(&ig, &g, &p).unwrap();
        let before = ig.mutation_epoch();
        // Split the `last` node into singletons — any refinement works.
        let t = ig.node_of(eval_data(&g, &p.compile(&g))[0]);
        let parts: Vec<_> = ig.extent(t).iter().map(|&v| (vec![v], 3)).collect();
        ig.replace_node(&g, t, parts);
        assert!(ig.mutation_epoch() > before);
        let fresh = crate::query::answer(&ig, &g, &p);
        let served = s.serve(&ig, &g, &p).unwrap().clone();
        assert_eq!(served.nodes, fresh.nodes);
        assert_eq!(served.cost, fresh.cost);
        assert_eq!(s.stats().hits, 0);
        assert_eq!(s.stats().misses, 2);
        assert_eq!(s.stats().evictions, 1);
        assert_eq!(s.stats().cap_evictions, 0);
    }

    #[test]
    fn capacity_overflow_clears_and_counts_evictions() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let (mut s, cache) = session_with(SharedCacheConfig {
            capacity: 2,
            ..SharedCacheConfig::SESSION
        });
        for expr in ["//name", "//last", "//person", "//poster"] {
            s.serve(&ig, &g, &PathExpr::parse(expr).unwrap()).unwrap();
        }
        assert!(s.stats().evictions >= 2, "full cache must evict");
        assert!(cache.stats().entries <= 2);
        // Re-serving an evicted query still answers correctly.
        let p = PathExpr::parse("//name").unwrap();
        let a = s.serve(&ig, &g, &p).unwrap().clone();
        assert_eq!(a.nodes, eval_data(&g, &p.compile(&g)));
    }

    #[test]
    fn lru_keeps_the_hot_query_under_cap_pressure() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let (mut s, cache) = session_with(SharedCacheConfig {
            capacity: 2,
            ..SharedCacheConfig::SESSION
        });
        let hot = PathExpr::parse("//name").unwrap();
        s.serve(&ig, &g, &hot).unwrap();
        // Each cold insert evicts the LRU entry; touching `hot` between
        // inserts keeps it resident throughout.
        for expr in ["//last", "//person", "//poster"] {
            s.serve(&ig, &g, &hot).unwrap();
            s.serve(&ig, &g, &PathExpr::parse(expr).unwrap()).unwrap();
        }
        assert_eq!(cache.stats().entries, 2);
        let before_hits = s.stats().hits;
        s.serve(&ig, &g, &hot).unwrap();
        assert_eq!(s.stats().hits, before_hits + 1, "hot query was evicted");
        assert_eq!(s.stats().cap_evictions, 2);
        assert_eq!(s.stats().evictions, 2);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn byte_cap_bounds_the_cache_and_counts_cap_evictions() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        // Every entry here is 160–164 bytes: one fits the cap, two do not.
        let (mut s, cache) = session_with(SharedCacheConfig {
            byte_cap: 200,
            max_answer_bytes: 200,
            ..SharedCacheConfig::SESSION
        });
        for expr in ["//name", "//last", "//person"] {
            let p = PathExpr::parse(expr).unwrap();
            let a = s.serve(&ig, &g, &p).unwrap().clone();
            assert_eq!(a.nodes, eval_data(&g, &p.compile(&g)), "{expr}");
        }
        let cs = cache.stats();
        assert_eq!(cs.entries, 1, "byte cap must hold one entry");
        assert!(cs.bytes > 0 && cs.bytes <= 200, "{cs:?}");
        assert_eq!(cs.evictions, 2);
        assert_eq!(s.stats().cap_evictions, 2);
        assert!(s.stats().render().contains("cap_evictions=2"));
    }

    #[test]
    fn shared_cache_serves_across_sessions() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let p = PathExpr::parse("//person/name/last").unwrap();
        let shared = Arc::new(SharedAnswerCache::new(SharedCacheConfig {
            min_cost: 0,
            doorkeeper: false,
            ..SharedCacheConfig::default()
        }));
        let mut s1 = QuerySession::new(TrustPolicy::Proven);
        s1.attach_shared(shared.clone(), 7);
        let cold = s1.serve(&ig, &g, &p).unwrap().clone();
        assert_eq!(s1.stats().misses, 1);
        // A different session sharing the cache gets the answer without
        // evaluating, every time.
        let mut s2 = QuerySession::new(TrustPolicy::Proven);
        s2.attach_shared(shared.clone(), 7);
        let warm = s2.serve(&ig, &g, &p).unwrap().clone();
        assert_eq!(warm.nodes, cold.nodes);
        assert_eq!(warm.cost, cold.cost);
        assert_eq!(s2.stats().misses, 0);
        assert_eq!(s2.stats().hits, 1);
        s2.serve(&ig, &g, &p).unwrap();
        assert_eq!(s2.stats().hits, 2);
        let cs = shared.stats();
        assert_eq!(cs.insertions, 1);
        assert_eq!(cs.hits, 2);
        assert_eq!(cs.entries, 1);
    }

    /// A hit is checked against the result cap: another session's
    /// admission must not lift this session's `max_result_nodes`.
    #[test]
    fn shared_cache_hit_respects_the_result_cap() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let p = PathExpr::parse("//person/name/last").unwrap();
        let shared = Arc::new(SharedAnswerCache::new(SharedCacheConfig {
            min_cost: 0,
            ..SharedCacheConfig::default()
        }));
        let mut open = QuerySession::new(TrustPolicy::Proven);
        open.attach_shared(shared.clone(), 0);
        let mut capped = QuerySession::new(TrustPolicy::Proven);
        capped.attach_shared(shared.clone(), 0);
        capped.set_budget(QueryBudget {
            max_result_nodes: Some(0),
            ..QueryBudget::unlimited()
        });
        let trip = |r: Result<&Answer, MrxError>| match r {
            Err(MrxError::Budget(e)) => assert_eq!(e.kind, BudgetKind::ResultNodes),
            other => panic!("expected a result-cap trip, got {other:?}"),
        };
        trip(capped.serve(&ig, &g, &p));
        assert_eq!(open.serve(&ig, &g, &p).unwrap().nodes.len(), 1);
        assert_eq!(shared.stats().entries, 1);
        trip(capped.serve(&ig, &g, &p));
        assert_eq!(capped.stats().hits, 1);
        assert_eq!(capped.stats().budget_trips, 2);
        // A cap the answer fits under serves the hit.
        capped.set_budget(QueryBudget {
            max_result_nodes: Some(1),
            ..QueryBudget::unlimited()
        });
        assert_eq!(capped.serve(&ig, &g, &p).unwrap().nodes.len(), 1);
    }

    #[test]
    fn shared_cache_isolates_generations() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let p = PathExpr::parse("//name/last").unwrap();
        let shared = Arc::new(SharedAnswerCache::new(SharedCacheConfig {
            min_cost: 0,
            doorkeeper: false,
            ..SharedCacheConfig::default()
        }));
        let mut s1 = QuerySession::new(TrustPolicy::Proven);
        s1.attach_shared(shared.clone(), 1);
        s1.serve(&ig, &g, &p).unwrap();
        let q = PathExpr::parse("//poster").unwrap();
        s1.serve(&ig, &g, &q).unwrap();
        // Same expression, same epoch, different generation: must miss
        // (and the admit replaces the dead generation's entry in place).
        let mut s2 = QuerySession::new(TrustPolicy::Proven);
        s2.attach_shared(shared.clone(), 2);
        s2.serve(&ig, &g, &p).unwrap();
        assert_eq!(s2.stats().hits, 0);
        assert_eq!(s2.stats().misses, 1);
        assert!(shared.get(&p, 2, ig.mutation_epoch()).is_some());
        assert!(shared.get(&p, 1, ig.mutation_epoch()).is_none());
        // Purging to generation 2 drops generation 1's remaining entry.
        assert_eq!(shared.stats().entries, 2);
        assert_eq!(shared.purge_other_generations(2), 1);
        assert_eq!(shared.stats().entries, 1);
        assert!(shared.get(&q, 1, ig.mutation_epoch()).is_none());
    }

    /// Size and cost refusals are decided before the doorkeeper, so an
    /// answer that can never be cached is never counted as `bypass_once`.
    #[test]
    fn shared_cache_admission_bypasses_large_and_cheap() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let p = PathExpr::parse("//name").unwrap();
        // max_answer_bytes below any entry's fixed allowance: everything is
        // "too large".
        let (mut s, cache) = session_with(SharedCacheConfig {
            max_answer_bytes: 1,
            min_cost: 0,
            ..SharedCacheConfig::default()
        });
        s.serve(&ig, &g, &p).unwrap();
        let cs = cache.stats();
        assert_eq!(cs.bypass_large, 1);
        assert_eq!(cs.insertions, 0);
        assert_eq!(cs.entries, 0);
        s.serve(&ig, &g, &p).unwrap();
        let cs = cache.stats();
        assert_eq!((cs.bypass_large, cs.bypass_once, cs.insertions), (2, 0, 0));
        // min_cost above any tiny-doc evaluation: everything is "too cheap".
        let (mut s, cache) = session_with(SharedCacheConfig {
            min_cost: u64::MAX,
            ..SharedCacheConfig::default()
        });
        s.serve(&ig, &g, &p).unwrap();
        let cs = cache.stats();
        assert_eq!(cs.bypass_cheap, 1);
        assert_eq!(cs.insertions, 0);
        s.serve(&ig, &g, &p).unwrap();
        let cs = cache.stats();
        assert_eq!((cs.bypass_cheap, cs.bypass_once, cs.insertions), (2, 0, 0));
        assert_eq!(s.stats().bypass_once, 0);
    }

    #[test]
    fn shared_cache_evicts_lru_under_entry_cap() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let (mut s, shared) = session_with(SharedCacheConfig {
            capacity: 2,
            min_cost: 0,
            doorkeeper: false,
            ..SharedCacheConfig::default()
        });
        for expr in ["//name", "//last", "//person", "//poster"] {
            s.serve(&ig, &g, &PathExpr::parse(expr).unwrap()).unwrap();
        }
        let cs = shared.stats();
        assert_eq!(cs.entries, 2);
        assert_eq!(cs.evictions, 2);
        assert_eq!(cs.insertions, 4);
    }

    /// The daemon's configuration with every answer cheap enough to cache,
    /// so only the doorkeeper refuses.
    fn doorkeeper_cfg() -> SharedCacheConfig {
        SharedCacheConfig {
            min_cost: 0,
            ..SharedCacheConfig::default()
        }
    }

    fn sightings(cache: &SharedAnswerCache) -> usize {
        cache.sightings.lock().unwrap().again.len()
    }

    #[test]
    fn doorkeeper_refuses_the_first_miss_and_admits_the_second() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let p = PathExpr::parse("//person/name/last").unwrap();
        let (mut s, cache) = session_with(doorkeeper_cfg());
        let first = s.serve(&ig, &g, &p).unwrap().clone();
        let cs = cache.stats();
        assert_eq!((cs.misses, cs.bypass_once), (1, 1));
        assert_eq!((cs.insertions, cs.entries), (0, 0));
        assert_eq!(s.stats().bypass_once, 1);
        assert!(s.stats().render().contains("bypass_once=1"));
        // The second miss is admitted; the third request hits.
        let second = s.serve(&ig, &g, &p).unwrap().clone();
        assert_eq!(cache.stats().insertions, 1);
        let third = s.serve(&ig, &g, &p).unwrap().clone();
        assert_eq!(first.nodes, second.nodes);
        assert_eq!(first.nodes, third.nodes);
        let cs = cache.stats();
        assert_eq!((cs.hits, cs.misses, cs.bypass_once), (1, 2, 1));
        assert_eq!(
            (s.stats().hits, s.stats().misses, s.stats().bypass_once),
            (1, 2, 1)
        );
    }

    #[test]
    fn doorkeeper_sightings_belong_to_one_generation() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let p = PathExpr::parse("//name/last").unwrap();
        let cache = Arc::new(SharedAnswerCache::new(doorkeeper_cfg()));
        let mut s1 = QuerySession::new(TrustPolicy::Proven);
        s1.attach_shared(cache.clone(), 1);
        s1.serve(&ig, &g, &p).unwrap();
        // A miss under a newer generation starts the sightings over.
        let mut s2 = QuerySession::new(TrustPolicy::Proven);
        s2.attach_shared(cache.clone(), 2);
        s2.serve(&ig, &g, &p).unwrap();
        assert_eq!(cache.stats().bypass_once, 2);
        // A query still finishing under the older generation neither
        // records a sighting nor is admitted, however often it misses.
        s1.serve(&ig, &g, &p).unwrap();
        s1.serve(&ig, &g, &p).unwrap();
        assert_eq!(
            (cache.stats().bypass_once, cache.stats().insertions),
            (4, 0)
        );
        assert_eq!(sightings(&cache), 1);
        // Purging drops the other generations' sightings with their
        // entries, so generation 3 needs two misses again.
        s2.serve(&ig, &g, &PathExpr::parse("//poster").unwrap())
            .unwrap();
        assert_eq!(sightings(&cache), 2);
        cache.purge_other_generations(3);
        assert_eq!(sightings(&cache), 0);
        let mut s3 = QuerySession::new(TrustPolicy::Proven);
        s3.attach_shared(cache.clone(), 3);
        s3.serve(&ig, &g, &p).unwrap();
        assert_eq!(cache.stats().insertions, 0);
        s3.serve(&ig, &g, &p).unwrap();
        assert_eq!(cache.stats().insertions, 1);
        assert_eq!(s3.stats().bypass_once, 1);
    }

    /// The public probe-then-offer pair follows the same rule as a session.
    #[test]
    fn doorkeeper_gates_get_then_admit() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let p = PathExpr::parse("//person/name/last").unwrap();
        let cp = p.compile(&g);
        let mut own = QuerySession::new(TrustPolicy::Proven);
        let a = own.serve(&ig, &g, &p).unwrap().clone();
        let cache = SharedAnswerCache::new(doorkeeper_cfg());
        assert!(cache.get(&p, 1, 0).is_none());
        assert!(!cache.admit(&p, 1, 0, &cp, &a));
        assert!(cache.get(&p, 1, 0).is_none());
        assert!(cache.admit(&p, 1, 0, &cp, &a));
        assert!(cache.get(&p, 1, 0).is_some());
        let cs = cache.stats();
        assert_eq!(
            (cs.hits, cs.misses, cs.bypass_once, cs.insertions),
            (1, 2, 1, 1)
        );
    }

    #[test]
    fn doorkeeper_sightings_stay_within_capacity() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let (mut s, cache) = session_with(SharedCacheConfig {
            capacity: 2,
            ..doorkeeper_cfg()
        });
        for expr in ["//name", "//last", "//person", "//poster", "//people"] {
            s.serve(&ig, &g, &PathExpr::parse(expr).unwrap()).unwrap();
            assert!(sightings(&cache) <= 2, "{expr}");
        }
        assert_eq!(cache.stats().bypass_once, 5);
    }

    #[test]
    fn replay_is_thread_count_invariant() {
        let g = doc();
        let ig = IndexGraph::a0(&g);
        let queries: Vec<PathExpr> = ["//name", "//last", "//person/name", "//name", "//last"]
            .iter()
            .map(|e| PathExpr::parse(e).unwrap())
            .collect();
        let seq = replay(&ig, &g, &queries, TrustPolicy::Proven, 1).unwrap();
        let par = replay(&ig, &g, &queries, TrustPolicy::Proven, 3).unwrap();
        assert_eq!(seq.total, par.total);
        assert_eq!(seq.queries, par.queries);
        assert_eq!(seq.stats.queries, par.stats.queries);
        assert!(par.threads > 1);
    }

    /// One session's validator memo serves alternating 2-step and 10-step
    /// validating queries: a bit left behind by a longer query would show
    /// as a lower `Cost` than a fresh session's on the next one.
    #[test]
    fn reused_memo_matches_a_fresh_session_across_query_lengths() {
        // Alternating a/b chains of depth 3..=14, each ending in a `c`.
        let mut xml = String::from("<r>");
        for i in 0..40 {
            let depth = 3 + i % 12;
            for d in 0..depth {
                xml.push_str(if d % 2 == 0 { "<a>" } else { "<b>" });
            }
            xml.push_str("<c/>");
            for d in (0..depth).rev() {
                xml.push_str(if d % 2 == 0 { "</a>" } else { "</b>" });
            }
        }
        xml.push_str("</r>");
        let g = parse(&xml).unwrap();
        let ig = IndexGraph::a0(&g);
        let idx = MStarIndex::new(&g);
        let queries: Vec<PathExpr> = [
            "//a/b",
            "//a/b/a/b/a/b/a/b/a/b",
            "//b/c",
            "//b/a/b/a/b/a/b/a/b/c",
            "//a/c",
            "//a/b/a/b/a/b/a/b/a/c",
        ]
        .iter()
        .map(|e| PathExpr::parse(e).unwrap())
        .collect();
        // A cache that admits nothing, so every query is evaluated.
        let (mut s, _) = session_with(SharedCacheConfig {
            max_answer_bytes: 0,
            ..SharedCacheConfig::SESSION
        });
        for p in queries.iter().chain(&queries) {
            let truth = eval_data(&g, &p.compile(&g));
            let reused = s.serve(&ig, &g, p).unwrap().clone();
            let fresh = QuerySession::new(TrustPolicy::Proven)
                .serve(&ig, &g, p)
                .unwrap()
                .clone();
            assert!(reused.validated, "{p}");
            assert_eq!(reused.nodes, truth, "{p}");
            assert_eq!(reused.cost, fresh.cost, "{p}");
            let reused = s.serve(&idx, &g, p).unwrap().clone();
            let fresh = QuerySession::new(TrustPolicy::Proven)
                .serve(&idx, &g, p)
                .unwrap()
                .clone();
            assert!(reused.validated, "{p}");
            assert_eq!(reused.nodes, truth, "{p}");
            assert_eq!(reused.cost, fresh.cost, "{p}");
        }
        assert_eq!(s.stats().hits, 0);
    }
}

//! Admission control: per-tenant token buckets and a bounded
//! deficit-round-robin (DRR) request queue.
//!
//! Two independent gates stand between an accepted connection and a worker
//! thread:
//!
//! 1. **Token buckets** ([`BucketSet`]) bound each tenant's *rate*: a
//!    bucket refills continuously at `rate` tokens/second up to `burst`,
//!    and each query spends one token. An empty bucket yields a typed
//!    `RateLimited` rejection with a retry-after hint computed from the
//!    refill rate — clients can back off precisely instead of guessing.
//!
//! 2. **The DRR queue** ([`DrrQueue`]) bounds *backlog* and enforces
//!    *fairness*: total and per-tenant queue caps shed excess load with a
//!    typed `Overloaded` rejection (never an unbounded queue and never a
//!    silent drop), and workers pop tenants round-robin with a deficit
//!    counter so one chatty tenant cannot starve the rest — a tenant at
//!    the head of the ring serves at most `quantum` requests before the
//!    ring rotates.
//!
//! Both structures are deterministic given a fixed arrival order, which
//! the chaos harness exploits: fairness is asserted, not eyeballed.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Refill rate and burst capacity for one tenant's token bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantRate {
    /// Sustained queries per second.
    pub rate: f64,
    /// Bucket capacity (maximum burst).
    pub burst: f64,
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// All tenants' token buckets behind one lock (bucket updates are a few
/// float ops; contention is negligible next to query evaluation).
pub struct BucketSet {
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl Default for BucketSet {
    fn default() -> Self {
        Self::new()
    }
}

impl BucketSet {
    pub fn new() -> Self {
        BucketSet {
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Tries to spend one token from `tenant`'s bucket at `now`. On
    /// failure returns the suggested retry-after in milliseconds (the time
    /// until one full token has refilled).
    pub fn take(&self, tenant: &str, limit: TenantRate, now: Instant) -> Result<(), u32> {
        let mut map = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let b = map.entry(tenant.to_string()).or_insert(Bucket {
            tokens: limit.burst,
            last: now,
        });
        let dt = now.saturating_duration_since(b.last).as_secs_f64();
        b.tokens = (b.tokens + dt * limit.rate).min(limit.burst);
        b.last = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            Ok(())
        } else if limit.rate > 0.0 {
            let ms = ((1.0 - b.tokens) / limit.rate * 1000.0).ceil();
            Err((ms as u32).clamp(1, 60_000))
        } else {
            Err(60_000)
        }
    }
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// The global queue cap is reached.
    QueueFull,
    /// This tenant's backlog cap is reached (other tenants still admit).
    TenantFull,
    /// The queue is closed (server draining).
    Closed,
}

/// Result of a blocking pop.
pub enum Popped<T> {
    Item(T),
    /// Nothing arrived within the timeout; the caller should re-check its
    /// shutdown flag and pop again.
    Timeout,
    /// The queue is closed and fully drained.
    Closed,
}

struct DrrState<T> {
    /// Per-tenant FIFO backlogs; a tenant is present iff its backlog is
    /// non-empty.
    queues: HashMap<String, VecDeque<T>>,
    /// Active-tenant ring: the front tenant is being served.
    ring: VecDeque<String>,
    /// Remaining quantum for the tenant at the front of the ring.
    deficit: u32,
    len: usize,
    closed: bool,
}

/// A bounded multi-tenant queue popped in deficit-round-robin order.
pub struct DrrQueue<T> {
    state: Mutex<DrrState<T>>,
    nonempty: Condvar,
    cap: usize,
    tenant_cap: usize,
    quantum: u32,
}

impl<T> DrrQueue<T> {
    /// `cap` bounds the total backlog, `tenant_cap` each tenant's share,
    /// and `quantum` how many consecutive requests one tenant may serve
    /// before the ring rotates.
    pub fn new(cap: usize, tenant_cap: usize, quantum: u32) -> Self {
        DrrQueue {
            state: Mutex::new(DrrState {
                queues: HashMap::new(),
                ring: VecDeque::new(),
                deficit: 0,
                len: 0,
                closed: false,
            }),
            nonempty: Condvar::new(),
            cap: cap.max(1),
            tenant_cap: tenant_cap.max(1),
            quantum: quantum.max(1),
        }
    }

    /// Admits `item` under `tenant`, or returns it with the shed reason so
    /// the caller can send the typed rejection.
    pub fn push(&self, tenant: &str, item: T) -> Result<(), (Shed, T)> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.closed {
            return Err((Shed::Closed, item));
        }
        if st.len >= self.cap {
            return Err((Shed::QueueFull, item));
        }
        if let Some(q) = st.queues.get(tenant) {
            if q.len() >= self.tenant_cap {
                return Err((Shed::TenantFull, item));
            }
            // `get_mut` would borrow st mutably twice below; re-look up.
        } else {
            st.ring.push_back(tenant.to_string());
        }
        st.queues
            .entry(tenant.to_string())
            .or_default()
            .push_back(item);
        st.len += 1;
        drop(st);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Pops the next item in DRR order, waiting up to `timeout`.
    pub fn pop(&self, timeout: Duration) -> Popped<T> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(item) = Self::pop_locked(&mut st, self.quantum) {
                return Popped::Item(item);
            }
            if st.closed {
                return Popped::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Popped::Timeout;
            }
            let (guard, res) = self
                .nonempty
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
            if res.timed_out() && st.len == 0 && !st.closed {
                return Popped::Timeout;
            }
        }
    }

    fn pop_locked(st: &mut DrrState<T>, quantum: u32) -> Option<T> {
        let tenant = st.ring.front()?.clone();
        if st.deficit == 0 {
            st.deficit = quantum;
        }
        let (item, empty) = {
            let q = st.queues.get_mut(&tenant)?;
            let item = q.pop_front()?;
            (item, q.is_empty())
        };
        st.len -= 1;
        st.deficit -= 1;
        if empty {
            st.queues.remove(&tenant);
            st.ring.pop_front();
            st.deficit = 0;
        } else if st.deficit == 0 {
            st.ring.rotate_left(1);
        }
        Some(item)
    }

    /// Closes the queue and returns everything still backlogged (the
    /// caller answers each with `ShuttingDown`). Waiting poppers wake with
    /// [`Popped::Closed`].
    pub fn close(&self) -> Vec<T> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.closed = true;
        let mut drained = Vec::with_capacity(st.len);
        while let Some(tenant) = st.ring.pop_front() {
            if let Some(q) = st.queues.remove(&tenant) {
                drained.extend(q);
            }
        }
        st.len = 0;
        st.deficit = 0;
        drop(st);
        self.nonempty.notify_all();
        drained
    }

    /// Current backlog length (for retry-after hints and stats).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_limits_and_refills() {
        let set = BucketSet::new();
        let limit = TenantRate {
            rate: 10.0,
            burst: 2.0,
        };
        let t0 = Instant::now();
        assert!(set.take("a", limit, t0).is_ok());
        assert!(set.take("a", limit, t0).is_ok());
        let retry = set.take("a", limit, t0).unwrap_err();
        assert!((1..=200).contains(&retry), "retry hint {retry} off");
        // After 150ms at 10/s, 1.5 tokens refilled.
        assert!(set
            .take("a", limit, t0 + Duration::from_millis(150))
            .is_ok());
        // A different tenant has its own bucket.
        assert!(set.take("b", limit, t0).is_ok());
    }

    #[test]
    fn drr_interleaves_tenants() {
        let q: DrrQueue<(&str, u32)> = DrrQueue::new(100, 50, 2);
        for i in 0..8 {
            q.push("hog", ("hog", i)).unwrap();
        }
        q.push("mouse", ("mouse", 0)).unwrap();
        q.push("mouse", ("mouse", 1)).unwrap();
        let mut order = Vec::new();
        while let Popped::Item((t, _)) = q.pop(Duration::from_millis(1)) {
            order.push(t);
        }
        // With quantum 2, the mouse must be served after at most 2 hog
        // requests despite arriving behind 8 of them.
        let first_mouse = order.iter().position(|t| *t == "mouse").unwrap();
        assert!(first_mouse <= 2, "mouse starved: {order:?}");
        assert_eq!(order.len(), 10);
    }

    #[test]
    fn caps_shed_typed() {
        let q: DrrQueue<u32> = DrrQueue::new(3, 2, 1);
        q.push("a", 1).unwrap();
        q.push("a", 2).unwrap();
        assert!(matches!(q.push("a", 3), Err((Shed::TenantFull, 3))));
        q.push("b", 4).unwrap();
        assert!(matches!(q.push("c", 5), Err((Shed::QueueFull, 5))));
        let drained = q.close();
        assert_eq!(drained.len(), 3);
        assert!(matches!(q.push("a", 6), Err((Shed::Closed, 6))));
        assert!(matches!(q.pop(Duration::from_millis(1)), Popped::Closed));
    }

    #[test]
    fn pop_times_out_when_empty() {
        let q: DrrQueue<u32> = DrrQueue::new(4, 4, 1);
        assert!(matches!(q.pop(Duration::from_millis(5)), Popped::Timeout));
    }

    #[test]
    fn concurrent_producers_consumers_preserve_items() {
        use std::sync::Arc;
        let q: Arc<DrrQueue<u64>> = Arc::new(DrrQueue::new(1024, 512, 4));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let tenant = format!("t{t}");
                    while q.push(&tenant, t * 1000 + i).is_err() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut poppers = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            poppers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match q.pop(Duration::from_millis(20)) {
                        Popped::Item(v) => got.push(v),
                        Popped::Timeout => break,
                        Popped::Closed => break,
                    }
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all: Vec<u64> = Vec::new();
        for p in poppers {
            all.extend(p.join().unwrap());
        }
        all.sort_unstable();
        let mut expect: Vec<u64> = (0..4u64)
            .flat_map(|t| (0..100).map(move |i| t * 1000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
    }
}

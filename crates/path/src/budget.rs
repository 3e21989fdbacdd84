//! Query resource governance: budgets, meters, and the governor hook the
//! evaluators are generic over.
//!
//! A [`QueryBudget`] bounds a single query three ways — total node visits
//! (`max_steps`, the same unit as [`Cost::total`]), result-set size
//! (`max_result_nodes`), and wall clock (`deadline`) — plus a shared
//! cooperative-cancellation flag so parallel replay workers can stop each
//! other. A [`BudgetMeter`] is the per-query mutable state; evaluators charge
//! it as they visit nodes.
//!
//! The hot path stays free: evaluators are generic over [`Governor`], and the
//! no-op [`Ungoverned`] implementation monomorphizes every check away (its
//! error type is [`Infallible`]), so the ungoverned code is bit-identical to
//! the pre-budget code. Deadline and cancellation are polled only once per
//! [`POLL_INTERVAL`] visits to keep `Instant::now()` and the atomic load off
//! the per-node path.

use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::Cost;

pub use mrx_error::{BudgetError, BudgetKind};

/// Visits between deadline/cancellation polls.
pub const POLL_INTERVAL: u32 = 4096;

/// A caller-supplied cancellation predicate, polled at the same cadence as
/// the deadline and the shared cancel flag. Unlike the [`AtomicBool`] flag —
/// which someone else must remember to raise — a probe *asks* whether the
/// query still matters (the canonical use is a server peeking its client
/// socket: a disconnected client cancels its own in-flight query). Probes
/// must be cheap and non-blocking; they run on the evaluation thread.
#[derive(Clone)]
pub struct CancelProbe(Arc<dyn Fn() -> bool + Send + Sync>);

impl CancelProbe {
    /// Wraps a predicate that returns `true` once the query is cancelled.
    pub fn new(probe: impl Fn() -> bool + Send + Sync + 'static) -> Self {
        CancelProbe(Arc::new(probe))
    }

    /// Runs the predicate.
    pub fn is_cancelled(&self) -> bool {
        (self.0)()
    }
}

impl fmt::Debug for CancelProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CancelProbe(..)")
    }
}

/// Resource limits for one query. `Default` is unlimited.
#[derive(Debug, Clone, Default)]
pub struct QueryBudget {
    /// Cap on total node visits (index + data), i.e. on [`Cost::total`].
    pub max_steps: Option<u64>,
    /// Cap on the number of result nodes a query may accumulate.
    pub max_result_nodes: Option<u64>,
    /// Absolute wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Shared cancellation flag; when set, governed queries stop at the next
    /// poll with [`BudgetKind::Cancelled`].
    pub cancel: Option<Arc<AtomicBool>>,
    /// Cooperative cancellation probe (e.g. client-disconnect detection);
    /// when it reports cancelled, governed queries stop at the next poll
    /// with [`BudgetKind::Cancelled`].
    pub probe: Option<CancelProbe>,
}

impl QueryBudget {
    /// An unlimited budget (every check passes).
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// True if no limit or cancellation hook is configured.
    pub fn is_unlimited(&self) -> bool {
        self.max_steps.is_none()
            && self.max_result_nodes.is_none()
            && self.deadline.is_none()
            && self.cancel.is_none()
            && self.probe.is_none()
    }

    /// Starts metering one query against this budget.
    pub fn meter(&self) -> BudgetMeter {
        BudgetMeter {
            max_steps: self.max_steps.unwrap_or(u64::MAX),
            max_result_nodes: self.max_result_nodes.unwrap_or(u64::MAX),
            deadline: self.deadline,
            cancel: self.cancel.clone(),
            probe: self.probe.clone(),
            spent: 0,
            until_poll: POLL_INTERVAL,
        }
    }
}

/// Hook the evaluators are generic over. [`Ungoverned`] compiles to nothing;
/// [`BudgetMeter`] enforces a [`QueryBudget`].
pub trait Governor {
    /// Error produced when a limit trips. [`Infallible`] for [`Ungoverned`],
    /// so the compiler erases every check.
    type Err;

    /// Charges `n` node visits; fails when the step budget, deadline, or
    /// cancellation flag trips.
    fn visit(&mut self, n: u64) -> Result<(), Self::Err>;

    /// Checks an accumulated result-set size against the node cap.
    fn results(&mut self, n: usize) -> Result<(), Self::Err>;
}

/// The no-op governor: all checks vanish at monomorphization.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ungoverned;

impl Governor for Ungoverned {
    type Err = Infallible;
    #[inline(always)]
    fn visit(&mut self, _n: u64) -> Result<(), Infallible> {
        Ok(())
    }

    #[inline(always)]
    fn results(&mut self, _n: usize) -> Result<(), Infallible> {
        Ok(())
    }
}

/// Unwraps a `Result<T, Infallible>` from an [`Ungoverned`] evaluation.
#[inline(always)]
pub fn never_fails<T>(r: Result<T, Infallible>) -> T {
    match r {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

/// Per-query budget enforcement state. Reports only [`BudgetKind`]; callers
/// attach the partial [`Cost`] via [`BudgetMeter::exhausted`] where the cost
/// counters live.
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    max_steps: u64,
    max_result_nodes: u64,
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
    probe: Option<CancelProbe>,
    spent: u64,
    until_poll: u32,
}

impl BudgetMeter {
    /// Node visits charged so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Builds the typed error for a trip, attaching the partial cost.
    pub fn exhausted(kind: BudgetKind, cost: &Cost) -> BudgetError {
        BudgetError {
            kind,
            index_nodes: cost.index_nodes,
            data_nodes: cost.data_nodes,
        }
    }

    #[cold]
    fn poll(&mut self) -> Result<(), BudgetKind> {
        self.until_poll = POLL_INTERVAL;
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(BudgetKind::Cancelled);
            }
        }
        if let Some(probe) = &self.probe {
            if probe.is_cancelled() {
                return Err(BudgetKind::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(BudgetKind::Deadline);
            }
        }
        Ok(())
    }
}

impl Governor for BudgetMeter {
    type Err = BudgetKind;
    #[inline]
    fn visit(&mut self, n: u64) -> Result<(), BudgetKind> {
        self.spent += n;
        if self.spent > self.max_steps {
            return Err(BudgetKind::Steps);
        }
        let n32 = n.min(u64::from(u32::MAX)) as u32;
        match self.until_poll.checked_sub(n32) {
            Some(left) if left > 0 => {
                self.until_poll = left;
                Ok(())
            }
            _ => self.poll(),
        }
    }

    #[inline]
    fn results(&mut self, n: usize) -> Result<(), BudgetKind> {
        if n as u64 > self.max_result_nodes {
            return Err(BudgetKind::ResultNodes);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = QueryBudget::unlimited();
        assert!(b.is_unlimited());
        let mut m = b.meter();
        for _ in 0..100 {
            m.visit(1_000_000).unwrap();
        }
        m.results(usize::MAX).unwrap();
    }

    #[test]
    fn step_budget_trips_at_cap() {
        let b = QueryBudget {
            max_steps: Some(10),
            ..QueryBudget::default()
        };
        let mut m = b.meter();
        m.visit(10).unwrap();
        assert_eq!(m.visit(1), Err(BudgetKind::Steps));
        assert_eq!(m.spent(), 11);
    }

    #[test]
    fn result_cap_trips() {
        let b = QueryBudget {
            max_result_nodes: Some(5),
            ..QueryBudget::default()
        };
        let mut m = b.meter();
        m.results(5).unwrap();
        assert_eq!(m.results(6), Err(BudgetKind::ResultNodes));
    }

    #[test]
    fn expired_deadline_trips_on_poll() {
        let b = QueryBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..QueryBudget::default()
        };
        let mut m = b.meter();
        // Charges accumulate fine until the poll interval elapses.
        let mut tripped = false;
        for _ in 0..2 {
            if m.visit(u64::from(POLL_INTERVAL)) == Err(BudgetKind::Deadline) {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
    }

    #[test]
    fn cancellation_flag_trips_on_poll() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = QueryBudget {
            cancel: Some(flag.clone()),
            ..QueryBudget::default()
        };
        let mut m = b.meter();
        m.visit(u64::from(POLL_INTERVAL) * 2).unwrap();
        flag.store(true, Ordering::Relaxed);
        assert_eq!(
            m.visit(u64::from(POLL_INTERVAL) * 2),
            Err(BudgetKind::Cancelled)
        );
    }

    #[test]
    fn cancel_probe_trips_on_poll() {
        let flag = Arc::new(AtomicBool::new(false));
        let probe_flag = flag.clone();
        let b = QueryBudget {
            probe: Some(CancelProbe::new(move || probe_flag.load(Ordering::Relaxed))),
            ..QueryBudget::default()
        };
        assert!(!b.is_unlimited());
        let mut m = b.meter();
        m.visit(u64::from(POLL_INTERVAL) * 2).unwrap();
        flag.store(true, Ordering::Relaxed);
        assert_eq!(
            m.visit(u64::from(POLL_INTERVAL) * 2),
            Err(BudgetKind::Cancelled)
        );
    }

    #[test]
    fn exhausted_attaches_partial_cost() {
        let cost = Cost {
            index_nodes: 3,
            data_nodes: 7,
        };
        let e = BudgetMeter::exhausted(BudgetKind::Steps, &cost);
        assert_eq!(e.index_nodes, 3);
        assert_eq!(e.data_nodes, 7);
    }
}

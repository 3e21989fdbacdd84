//! `mrx serve`: a fault-tolerant, multi-tenant query daemon over
//! compressed (v5) and demand-paged (v9) `.mrx` snapshots.
//!
//! The paper's closing direction (§6) is a *disk-resident* M\*(k)-index
//! "loaded into memory selectively and incrementally during query
//! processing". This crate takes the last step from an I/O-efficient
//! structure to an operable service: a long-running daemon that serves
//! frequent path queries to many tenants at once and stays up — and
//! *correct* — through overload, bad input, partial snapshot damage, and
//! live snapshot replacement.
//!
//! Four robustness layers, composable and individually testable:
//!
//! * **Admission control & load shedding** ([`shed`]) — per-tenant token
//!   buckets, a bounded deficit-round-robin queue, and connection caps.
//!   Excess load is refused *typed* ([`ServeError::Overloaded`] /
//!   [`ServeError::RateLimited`], each with a retry-after hint), never
//!   queued unboundedly and never dropped silently. Idle connections are
//!   reaped and stalled partial frames (the slow-loris shape) rejected.
//! * **Per-tenant budgets** — every query runs under a [`QueryBudget`]
//!   (steps / result size / deadline) with a disconnect probe, so a
//!   vanished client cancels its own query instead of burning a worker.
//! * **Graceful degradation** — a boot snapshot with unreadable
//!   components may load lenient, serving those components through the
//!   live `A(i)` rebuild path, and reports them via the STATS health
//!   verb; failures with no sound fallback (page-checksum poison) are
//!   typed errors on that request only. Partial answers are impossible.
//! * **Zero-downtime hot swap** (the `snapshot` module) — RELOAD validates the
//!   replacement fully (checksums + structure, strictly) *before* an
//!   epoch-fenced atomic swap, then drains the old epoch. Torn,
//!   truncated, bit-flipped, or retired-layout (v1–v4) files are refused
//!   while the old snapshot keeps serving.
//!
//! The wire protocol ([`proto`]) is a dependency-free length-prefixed
//! binary framing with caps checked before allocation; [`client::Client`]
//! speaks it for the CLI, tests, and benches.

#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod client;
pub mod proto;
pub mod server;
pub mod shed;
pub mod signal;
mod snapshot;

pub use client::{Client, ClientError, QueryReply};
pub use mrx_path::QueryBudget;
pub use proto::{
    Request, Response, ServeError, MAX_EXPR_BYTES, MAX_PATH_BYTES, MAX_REQUEST_FRAME,
    MAX_RESPONSE_FRAME, MAX_TENANT_BYTES,
};
pub use server::{ServeConfig, Server, ServerReport, StartError, TenantBudget};
pub use shed::TenantRate;

//! The serving snapshot: an epoch-stamped, fully-validated `.mrx` file,
//! hot-swappable without downtime.
//!
//! A [`Snapshot`] is built through [`mrx_store::open_validated`], so by
//! construction every byte of it passed checksum and structural
//! validation before it became visible to any worker. Swaps are
//! epoch-fenced: the active snapshot lives in a `RwLock<Arc<Snapshot>>`
//! ([`SnapshotSlot`]); each query clones the `Arc` once up front and
//! evaluates entirely against that clone, so a RELOAD mid-query can never
//! tear an answer across two snapshots. After a swap the reloader waits
//! for the old `Arc`'s strong count to drain back to one — the classic
//! epoch-based reclamation fence, with the refcount as the epoch counter.
//!
//! Both layouts are shared read-only across all workers: the slot holds
//! exactly the structures validation proved. For the demand-paged (v9)
//! layout that is the validated handle's graph and hierarchy
//! ([`mrx_store::PagedFile::into_parts`]), which read through one
//! thread-safe page cache under the daemon's one `--cache-bytes` budget.
//! The handle keeps its file open, so a file renamed over the path later
//! is never served under this epoch. Each worker's `QuerySession` checks
//! the cache's fault probe — which records faults per thread — after
//! every evaluation.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use mrx_graph::FrozenGraph;
use mrx_index::{CompressedMStar, PagedMStar};
use mrx_store::{open_validated, LazyGraph, SnapshotPayload, StoreError};

/// The in-memory serving form of one validated snapshot, shared read-only
/// by every worker.
pub(crate) enum SnapData {
    /// Compressed posting arenas (v5).
    Compressed(Box<(FrozenGraph, CompressedMStar)>),
    /// Demand-paged hierarchy and lazy graph (v9), reading through one
    /// page cache.
    Paged(Box<(LazyGraph, PagedMStar)>),
}

/// One fully-validated snapshot, stamped with the serving epoch it was
/// installed under.
pub(crate) struct Snapshot {
    /// Serving epoch: 1 for the boot snapshot, +1 per successful RELOAD.
    pub epoch: u64,
    /// On-disk layout version (5 or 9).
    pub version: u32,
    /// `"compressed" | "paged"`.
    pub kind: &'static str,
    /// Components degraded to live `A(i)` at load time (lenient boot
    /// loads only; RELOAD validates strictly and never degrades).
    pub degraded: Vec<usize>,
    pub data: SnapData,
}

impl Snapshot {
    /// Loads and validates `path`, stamping the result with `epoch`.
    /// `strict` refuses files that would only load by degrading;
    /// `cache_bytes` is the paged layout's page-cache budget.
    pub fn load(
        path: &Path,
        epoch: u64,
        strict: bool,
        cache_bytes: Option<u64>,
    ) -> Result<Snapshot, StoreError> {
        let v = open_validated(path, strict, cache_bytes)?;
        let kind = v.payload.kind();
        let data = match v.payload {
            SnapshotPayload::Compressed(g, star) => SnapData::Compressed(Box::new((g, star))),
            SnapshotPayload::Paged(file) => {
                let (graph, star, _cache) = file.into_parts()?;
                SnapData::Paged(Box::new((graph, star)))
            }
        };
        Ok(Snapshot {
            epoch,
            version: v.version,
            kind,
            degraded: v.degraded,
            data,
        })
    }
}

/// The epoch-fenced slot the server serves from.
pub(crate) struct SnapshotSlot {
    current: RwLock<Arc<Snapshot>>,
    /// Mirrors `current.epoch` for lock-free reads in stats paths.
    epoch: AtomicU64,
}

impl SnapshotSlot {
    pub fn new(snap: Snapshot) -> Self {
        let epoch = snap.epoch;
        SnapshotSlot {
            current: RwLock::new(Arc::new(snap)),
            epoch: AtomicU64::new(epoch),
        }
    }

    /// Clones the active snapshot. The clone pins the snapshot for the
    /// whole query: a concurrent swap cannot free it or change what this
    /// query sees.
    pub fn pin(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Atomically installs `next` and returns the displaced snapshot so
    /// the caller can drain it.
    pub fn swap(&self, next: Snapshot) -> Arc<Snapshot> {
        let epoch = next.epoch;
        let mut w = self.current.write().unwrap_or_else(|e| e.into_inner());
        let old = std::mem::replace(&mut *w, Arc::new(next));
        self.epoch.store(epoch, Ordering::SeqCst);
        old
    }

    /// The current serving epoch (lock-free).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }
}

//! The fixed-page cache: fault, verify, pin, evict.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, ThreadId};

use mrx_error::StoreError;

use crate::source::PageSource;
use crate::{fnv64_words, page_checksums};

/// Default page size: 64 KiB amortizes the per-fault `read_at` while
/// keeping residency granular enough for frequent-query skew.
pub const DEFAULT_PAGE_SIZE: u32 = 64 * 1024;

/// Default cache byte budget (generous; the CLI overrides per run).
pub const DEFAULT_CACHE_BYTES: u64 = 256 * 1024 * 1024;

/// Smallest / largest accepted page size. The floor exists only so tests
/// can force many-page layouts with tiny pages; real files use the default.
pub const MIN_PAGE_SIZE: u32 = 16;
pub const MAX_PAGE_SIZE: u32 = 1 << 26;

/// Sentinel page id marking an unoccupied frame.
const EMPTY: u32 = u32::MAX;

/// Readahead window: when a fault lands on the page right after the
/// previous fault (a sequential walk), the next up-to-this-many pages are
/// fetched with one positioned read instead of one fault each.
const READAHEAD_PAGES: u32 = 8;

/// Cache traffic counters, surfaced through `query --stats` and the page
/// bench.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PageStats {
    /// Pages read (and verified) from the source.
    pub faults: u64,
    /// Page lookups served from a resident frame.
    pub hits: u64,
    /// Frames reclaimed by the clock sweep.
    pub evictions: u64,
    /// Pages whose content did not match the checksum table.
    pub checksum_failures: u64,
    /// Pages currently resident.
    pub resident_pages: u64,
    /// Bytes currently resident (pinned pages included).
    pub resident_bytes: u64,
    /// Pages pinned (directory/skip-directory pages; never evicted).
    pub pinned_pages: u64,
    /// Pages brought in speculatively by the readahead window (not counted
    /// in `faults`).
    pub prefetched: u64,
    /// Page lookups whose frame was resident because readahead fetched it.
    pub readahead_hits: u64,
    /// Prefetched pages evicted before any lookup touched them.
    pub wasted_prefetches: u64,
    /// Cumulative integrity failures recorded via [`PageCache::poison`] on
    /// any thread. Unlike the poison slots — which `take_poison` consumes
    /// after every query — this counter survives, so long-running servers
    /// can report how often a snapshot's pages failed verification.
    pub poison_events: u64,
}

struct Frame {
    /// Page held by this frame, or [`EMPTY`].
    page: u32,
    /// Clock reference bit: set on every hit, cleared by a sweep pass.
    referenced: bool,
    pinned: bool,
    /// Brought in by readahead and not yet touched by a lookup.
    prefetched: bool,
    data: Box<[u8]>,
}

struct Inner {
    /// page id → frame slot.
    map: HashMap<u32, u32>,
    slots: Vec<Frame>,
    /// Unoccupied frame slots, reused before growing `slots`.
    free: Vec<u32>,
    /// Clock hand over `slots`.
    hand: usize,
    budget: u64,
    /// Traffic counters; `resident_pages` is derived from `map` instead.
    stats: PageStats,
    /// Most recently faulted-or-prefetched page; a demand fault on
    /// `last_fault + 1` marks the walk as sequential and opens the
    /// readahead window.
    last_fault: u32,
    /// First integrity failure per thread (a query never spans threads):
    /// that thread's reads return sentinels, and its query entry point
    /// converts the failure into a typed error before any answer escapes.
    poison: HashMap<ThreadId, StoreError>,
}

impl Inner {
    fn poisoned(&self) -> bool {
        !self.poison.is_empty() && self.poison.contains_key(&thread::current().id())
    }

    fn set_poison(&mut self, e: StoreError) {
        self.poison.entry(thread::current().id()).or_insert(e);
    }
}

/// A fixed-page cache over one region `[base, base + region_len)` of a
/// [`PageSource`], with lazy per-page FNV-64 verification against a
/// checksum table captured at write time.
///
/// Offsets in the read API are **region-relative**. Reads copy out (no
/// borrows escape), so callers can hold many logical cursors over one
/// cache. One `Mutex` guards residency and counters, so every serving
/// thread reads through the same frames under one byte budget; integrity
/// failures are recorded per thread (see [`PageCache::poison`]).
pub struct PageCache {
    source: Box<dyn PageSource>,
    base: u64,
    region_len: u64,
    page_size: u32,
    checksums: Vec<u64>,
    inner: Mutex<Inner>,
}

impl PageCache {
    /// Opens a cache over `[base, base + region_len)` of `source`, with one
    /// checksum per page and an eviction byte budget. Validates the
    /// geometry (page size bounds, table length, region within the source)
    /// up front.
    pub fn new(
        source: Box<dyn PageSource>,
        base: u64,
        region_len: u64,
        page_size: u32,
        checksums: Vec<u64>,
        budget: u64,
    ) -> Result<Arc<PageCache>, StoreError> {
        if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
            return Err(StoreError::Format(format!(
                "page size {page_size} outside [{MIN_PAGE_SIZE}, {MAX_PAGE_SIZE}]"
            )));
        }
        let npages = region_len.div_ceil(u64::from(page_size));
        if checksums.len() as u64 != npages {
            return Err(StoreError::Format(format!(
                "page table has {} entries for {npages} pages",
                checksums.len()
            )));
        }
        if npages > u64::from(u32::MAX) {
            return Err(StoreError::Format("paged region has too many pages".into()));
        }
        let end = base
            .checked_add(region_len)
            .ok_or_else(|| StoreError::Format("paged region overflows".into()))?;
        if end > source.len() {
            return Err(StoreError::Format(format!(
                "paged region [{base}, {end}) extends past the source ({} bytes)",
                source.len()
            )));
        }
        Ok(Arc::new(PageCache {
            source,
            base,
            region_len,
            page_size,
            checksums,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                hand: 0,
                budget: budget.max(1),
                stats: PageStats::default(),
                last_fault: EMPTY,
                poison: HashMap::new(),
            }),
        }))
    }

    /// An in-memory cache over `region` with a freshly computed checksum
    /// table — the test/bench constructor.
    pub fn over_bytes(
        region: Vec<u8>,
        page_size: u32,
        budget: u64,
    ) -> Result<Arc<PageCache>, StoreError> {
        let sums = page_checksums(&region, page_size);
        let len = region.len() as u64;
        PageCache::new(
            Box::new(crate::BytesSource(region)),
            0,
            len,
            page_size,
            sums,
            budget,
        )
    }

    /// Bytes in the paged region.
    pub fn region_len(&self) -> u64 {
        self.region_len
    }

    /// The fixed page size.
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Number of pages in the region.
    pub fn num_pages(&self) -> u32 {
        self.checksums.len() as u32
    }

    /// The cache state. No critical section can panic partway (its indices
    /// come from the map and the region geometry), so a poisoned mutex
    /// still holds consistent frames and is entered as is.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> PageStats {
        let inner = self.lock();
        PageStats {
            resident_pages: inner.map.len() as u64,
            ..inner.stats
        }
    }

    /// Replaces the eviction byte budget, reclaiming immediately if the
    /// cache is now over it.
    pub fn set_budget(&self, budget: u64) {
        let mut inner = self.lock();
        inner.budget = budget.max(1);
        Self::evict_for(&mut inner, 0);
    }

    /// Records an integrity failure for the calling thread's query, so no
    /// other thread's query fails on it or takes it. The first poison wins;
    /// later ones are dropped (the first is the root cause).
    pub fn poison(&self, e: StoreError) {
        let mut inner = self.lock();
        inner.stats.poison_events += 1;
        inner.set_poison(e);
    }

    /// Whether the calling thread has recorded an integrity failure.
    pub fn poisoned(&self) -> bool {
        self.lock().poisoned()
    }

    /// Takes the calling thread's recorded failure, clearing its flag. The
    /// serving layer calls this after every query; a corrupt page re-poisons
    /// on its next fault, so clearing never masks persistent corruption.
    pub fn take_poison(&self) -> Option<StoreError> {
        self.lock().poison.remove(&thread::current().id())
    }

    /// Positioned read at an **absolute source offset**, outside the paged
    /// region's checksum regime — the escape hatch for lazily-loaded eager
    /// sections (the paged layout's graph units) that carry their own digests. The
    /// caller owns integrity checking of these bytes; region reads must go
    /// through [`PageCache::read`] instead.
    pub fn read_unpaged(&self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        let end = offset
            .checked_add(buf.len() as u64)
            .ok_or_else(|| StoreError::Format("unpaged read overflows".into()))?;
        if end > self.source.len() {
            return Err(StoreError::Format(format!(
                "unpaged read [{offset}, {end}) past the source ({} bytes)",
                self.source.len()
            )));
        }
        self.source.read_at(offset, buf).map_err(StoreError::Io)
    }

    /// Copies `dst.len()` bytes at region-relative `off` into `dst`,
    /// faulting (and verifying) pages as needed. On any failure —
    /// out-of-range read, I/O error, checksum mismatch, or a thread that
    /// is already poisoned — `dst` is zeroed, the poison records the
    /// cause, and `false` is returned.
    pub fn read(&self, off: u64, dst: &mut [u8]) -> bool {
        let mut inner = self.lock();
        if inner.poisoned() {
            dst.fill(0);
            return false;
        }
        let end = off.checked_add(dst.len() as u64);
        if end.is_none_or(|e| e > self.region_len) {
            inner.set_poison(StoreError::Format(format!(
                "paged read [{off}, +{}) outside the region ({} bytes)",
                dst.len(),
                self.region_len
            )));
            dst.fill(0);
            return false;
        }
        let psz = u64::from(self.page_size);
        let mut done = 0usize;
        while done < dst.len() {
            let cur = off + done as u64;
            let page = (cur / psz) as u32;
            let in_page = (cur % psz) as usize;
            let page_len = self.page_len(page);
            let n = (page_len - in_page).min(dst.len() - done);
            match self.frame(&mut inner, page, false) {
                Some(slot) => {
                    let data = &inner.slots[slot as usize].data;
                    dst[done..done + n].copy_from_slice(&data[in_page..in_page + n]);
                }
                None => {
                    dst.fill(0);
                    return false;
                }
            }
            done += n;
        }
        true
    }

    /// Little-endian `u32` at region-relative `off`; 0 (with poison set)
    /// on failure.
    #[inline]
    pub fn read_u32(&self, off: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read(off, &mut b);
        u32::from_le_bytes(b)
    }

    /// Faults in and pins every page covering `[off, off + len)` so the
    /// clock never evicts them — used for skip directories, whose probes
    /// must stay cheap. Returns `false` (poison set) if any page fails.
    pub fn pin(&self, off: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let end = off.checked_add(len);
        let mut inner = self.lock();
        if inner.poisoned() {
            return false;
        }
        let Some(end) = end.filter(|&e| e <= self.region_len) else {
            inner.set_poison(StoreError::Format(format!(
                "pin [{off}, +{len}) outside the region ({} bytes)",
                self.region_len
            )));
            return false;
        };
        let psz = u64::from(self.page_size);
        for page in (off / psz)..=((end - 1) / psz) {
            if self.frame(&mut inner, page as u32, true).is_none() {
                return false;
            }
        }
        true
    }

    /// Reads and verifies every page of the region straight from the
    /// source (bypassing the cache, so residency is unchanged). The
    /// fault-injection tests use this to prove a corrupt region cannot
    /// hide from the per-page table.
    pub fn verify_all(&self) -> Result<(), StoreError> {
        let mut buf = vec![0u8; self.page_size as usize];
        for page in 0..self.num_pages() {
            let len = self.page_len(page);
            let off = self.base + u64::from(page) * u64::from(self.page_size);
            self.source.read_at(off, &mut buf[..len])?;
            if fnv64_words(&buf[..len]) != self.checksums[page as usize] {
                return Err(StoreError::Checksum {
                    section: format!("page {page}"),
                });
            }
        }
        Ok(())
    }

    /// Bytes held by page `page` (the last page may be partial).
    fn page_len(&self, page: u32) -> usize {
        let start = u64::from(page) * u64::from(self.page_size);
        (self.region_len - start).min(u64::from(self.page_size)) as usize
    }

    /// Resolves `page` to a resident frame slot, faulting it in (verified)
    /// on miss. `None` means the fault failed and the poison records why.
    fn frame(&self, inner: &mut Inner, page: u32, pin: bool) -> Option<u32> {
        if let Some(&slot) = inner.map.get(&page) {
            let f = &mut inner.slots[slot as usize];
            f.referenced = true;
            if f.prefetched {
                f.prefetched = false;
                inner.stats.readahead_hits += 1;
            }
            if pin && !f.pinned {
                f.pinned = true;
                inner.stats.pinned_pages += 1;
            }
            inner.stats.hits += 1;
            return Some(slot);
        }

        // A fault on the page right after the previous one means the
        // caller is walking forward — worth opening the readahead window
        // once this fault lands. Pins are not walks: a directory that
        // straddles a page seam must not prefetch the payload after it,
        // so activation reads exactly the pages it pins.
        let sequential =
            !pin && inner.last_fault != EMPTY && inner.last_fault.wrapping_add(1) == page;

        let len = self.page_len(page);
        // Reclaim before inserting so the new page can never evict itself.
        Self::evict_for(inner, len as u64);

        inner.stats.faults += 1;
        let mut data = vec![0u8; len].into_boxed_slice();
        let off = self.base + u64::from(page) * u64::from(self.page_size);
        if let Err(e) = self.source.read_at(off, &mut data) {
            inner.set_poison(StoreError::Io(e));
            return None;
        }
        if fnv64_words(&data) != self.checksums[page as usize] {
            inner.stats.checksum_failures += 1;
            inner.set_poison(StoreError::Checksum {
                section: format!("page {page}"),
            });
            return None;
        }

        let slot = Self::install(
            inner,
            Frame {
                page,
                referenced: true,
                pinned: pin,
                prefetched: false,
                data,
            },
        );
        inner.last_fault = page;
        if sequential {
            // Shield the page just faulted: the prefetch's own eviction
            // sweep must not reclaim the frame this caller is about to
            // read from (slot indices are stable; eviction blanks in
            // place).
            let was_pinned = inner.slots[slot as usize].pinned;
            inner.slots[slot as usize].pinned = true;
            self.prefetch(inner, page + 1, READAHEAD_PAGES);
            inner.slots[slot as usize].pinned = was_pinned;
        }
        Some(slot)
    }

    /// Inserts a verified frame, reusing a free slot when one exists.
    fn install(inner: &mut Inner, frame: Frame) -> u32 {
        let page = frame.page;
        let len = frame.data.len() as u64;
        let pin = frame.pinned;
        let slot = match inner.free.pop() {
            Some(s) => {
                inner.slots[s as usize] = frame;
                s
            }
            None => {
                inner.slots.push(frame);
                (inner.slots.len() - 1) as u32
            }
        };
        inner.map.insert(page, slot);
        inner.stats.resident_bytes += len;
        if pin {
            inner.stats.pinned_pages += 1;
        }
        slot
    }

    /// Speculatively fetches up to `want` contiguous non-resident pages
    /// starting at `start` with **one** positioned read. Speculative work
    /// never degrades the demand path: the window shrinks to the budget
    /// headroom (a prefetch cannot evict its way over budget the way a
    /// demand fault may), an I/O error aborts silently, and a page failing
    /// its checksum is skipped (batch stops) without poisoning — if the
    /// walk really reaches that page, the demand fault re-reads it and
    /// poisons exactly as an unprefetched fault would.
    fn prefetch(&self, inner: &mut Inner, start: u32, want: u32) {
        let mut count = 0u32;
        while count < want {
            let p = start + count;
            if p >= self.num_pages() || inner.map.contains_key(&p) {
                break;
            }
            count += 1;
        }
        if count == 0 {
            return;
        }
        // No eviction here, by design: speculative pages fill whatever
        // headroom the budget has left and never reclaim a demand frame.
        // Under cache pressure (budget ≈ working set) the window collapses
        // to nothing and readahead turns itself off instead of thrashing
        // the clock with pages the walk may never reach.
        let headroom = inner.budget.saturating_sub(inner.stats.resident_bytes);
        let mut take = 0u32;
        let mut take_bytes = 0usize;
        while take < count {
            let len = self.page_len(start + take);
            if (take_bytes + len) as u64 > headroom {
                break;
            }
            take_bytes += len;
            take += 1;
        }
        if take == 0 {
            return;
        }
        let mut buf = vec![0u8; take_bytes];
        let off = self.base + u64::from(start) * u64::from(self.page_size);
        if self.source.read_at(off, &mut buf).is_err() {
            return;
        }
        let mut pos = 0usize;
        for page in start..start + take {
            let len = self.page_len(page);
            let data = &buf[pos..pos + len];
            pos += len;
            if fnv64_words(data) != self.checksums[page as usize] {
                break;
            }
            Self::install(
                inner,
                Frame {
                    page,
                    referenced: true,
                    pinned: false,
                    prefetched: true,
                    data: data.to_vec().into_boxed_slice(),
                },
            );
            inner.stats.prefetched += 1;
            // Chain the window: prefetched pages satisfy lookups without
            // faulting, so the *next* demand fault lands right past the
            // window and must still read as sequential.
            inner.last_fault = page;
        }
    }

    /// Readahead hint for a caller about to walk `[off, off + len)`
    /// sequentially: batch-fetches the window's first non-resident pages
    /// (bounded by the readahead window size) before the per-page lookups
    /// begin. Out-of-range hints are clamped; a poisoned thread's are
    /// ignored. Purely an optimization — identical results with or without.
    pub fn readahead(&self, off: u64, len: u64) {
        let mut inner = self.lock();
        if inner.poisoned() || len == 0 || off >= self.region_len {
            return;
        }
        let end = off.saturating_add(len).min(self.region_len);
        let psz = u64::from(self.page_size);
        let first = (off / psz) as u32;
        let last = ((end - 1) / psz) as u32;
        let mut p = first;
        while p <= last && inner.map.contains_key(&p) {
            p += 1;
        }
        if p > last {
            return;
        }
        self.prefetch(&mut inner, p, (last - p + 1).min(READAHEAD_PAGES));
    }

    /// Clock sweep: reclaim frames until `need` more bytes fit in the
    /// budget. Referenced frames get one more revolution; pinned frames
    /// are skipped. Bounded at two revolutions — if everything left is
    /// pinned or the budget is smaller than the working set, the cache
    /// runs over budget rather than thrashing or failing.
    fn evict_for(inner: &mut Inner, need: u64) {
        if inner.slots.is_empty() {
            return;
        }
        let mut steps = 2 * inner.slots.len();
        while inner.stats.resident_bytes + need > inner.budget && steps > 0 {
            steps -= 1;
            let slot = inner.hand;
            inner.hand = (inner.hand + 1) % inner.slots.len();
            let f = &mut inner.slots[slot];
            if f.page == EMPTY || f.pinned {
                continue;
            }
            if f.referenced {
                f.referenced = false;
                continue;
            }
            let page = f.page;
            f.page = EMPTY;
            if f.prefetched {
                inner.stats.wasted_prefetches += 1;
            }
            inner.stats.resident_bytes -= f.data.len() as u64;
            f.data = Box::new([]);
            inner.map.remove(&page);
            inner.free.push(slot as u32);
            inner.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn reads_match_source_across_page_seams() {
        let bytes = region(1000);
        let cache = PageCache::over_bytes(bytes.clone(), 64, u64::MAX).unwrap();
        // Unaligned read spanning three pages.
        let mut buf = vec![0u8; 150];
        assert!(cache.read(37, &mut buf));
        assert_eq!(buf, &bytes[37..187]);
        // Tail read covering the partial last page.
        let mut tail = vec![0u8; 100];
        assert!(cache.read(900, &mut tail));
        assert_eq!(tail, &bytes[900..1000]);
        let stats = cache.stats();
        assert!(stats.faults >= 4);
        assert_eq!(stats.checksum_failures, 0);
    }

    #[test]
    fn out_of_range_read_poisons_and_zeroes() {
        let cache = PageCache::over_bytes(region(100), 64, u64::MAX).unwrap();
        let mut buf = [7u8; 8];
        assert!(!cache.read(96, &mut buf));
        assert_eq!(buf, [0u8; 8]);
        assert!(cache.poisoned());
        assert!(matches!(
            cache.take_poison(),
            Some(StoreError::Format(m)) if m.contains("outside the region")
        ));
        assert!(!cache.poisoned());
    }

    #[test]
    fn budget_caps_residency_and_counts_evictions() {
        let bytes = region(64 * 16);
        let cache = PageCache::over_bytes(bytes.clone(), 64, 4 * 64).unwrap();
        let mut buf = [0u8; 64];
        for p in 0..16u64 {
            assert!(cache.read(p * 64, &mut buf));
            assert_eq!(&buf[..], &bytes[(p * 64) as usize..(p * 64 + 64) as usize]);
        }
        let stats = cache.stats();
        assert!(stats.resident_bytes <= 4 * 64, "{stats:?}");
        assert!(stats.evictions >= 12, "{stats:?}");
        // Evicted pages re-fault correctly.
        assert!(cache.read(0, &mut buf));
        assert_eq!(&buf[..], &bytes[..64]);
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let bytes = region(64 * 16);
        let cache = PageCache::over_bytes(bytes.clone(), 64, 3 * 64).unwrap();
        assert!(cache.pin(0, 64));
        let mut buf = [0u8; 64];
        for p in 0..16u64 {
            assert!(cache.read(p * 64, &mut buf));
        }
        let before = cache.stats();
        assert_eq!(before.pinned_pages, 1);
        // The pinned page must still be a hit (no new fault).
        assert!(cache.read(0, &mut buf));
        assert_eq!(&buf[..], &bytes[..64]);
        assert_eq!(cache.stats().faults, before.faults);
    }

    #[test]
    fn checksum_mismatch_is_caught_on_fault() {
        let bytes = region(256);
        let mut sums = page_checksums(&bytes, 64);
        sums[2] ^= 1; // lie about page 2
        let cache = PageCache::new(
            Box::new(crate::BytesSource(bytes)),
            0,
            256,
            64,
            sums,
            u64::MAX,
        )
        .unwrap();
        let mut buf = [0u8; 16];
        assert!(cache.read(0, &mut buf)); // page 0 fine
        assert!(!cache.read(130, &mut buf)); // page 2 corrupt
        assert_eq!(buf, [0u8; 16]);
        match cache.take_poison() {
            Some(StoreError::Checksum { section }) => assert_eq!(section, "page 2"),
            other => panic!("expected page checksum failure, got {other:?}"),
        }
        assert_eq!(cache.stats().checksum_failures, 1);
        // The corrupt page was not cached; touching it again re-poisons.
        assert!(!cache.read(130, &mut buf));
        assert!(cache.poisoned());
    }

    #[test]
    fn verify_all_scans_without_touching_residency() {
        let bytes = region(300);
        let cache = PageCache::over_bytes(bytes, 64, u64::MAX).unwrap();
        cache.verify_all().unwrap();
        assert_eq!(cache.stats().resident_pages, 0);

        let bytes = region(300);
        let mut sums = page_checksums(&bytes, 64);
        sums[4] ^= 0xFF;
        let bad = PageCache::new(
            Box::new(crate::BytesSource(bytes)),
            0,
            300,
            64,
            sums,
            u64::MAX,
        )
        .unwrap();
        match bad.verify_all() {
            Err(StoreError::Checksum { section }) => assert_eq!(section, "page 4"),
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn geometry_is_validated_up_front() {
        assert!(PageCache::over_bytes(region(100), 1, u64::MAX).is_err());
        let bytes = region(100);
        let sums = page_checksums(&bytes, 64);
        assert!(PageCache::new(
            Box::new(crate::BytesSource(bytes.clone())),
            0,
            100,
            64,
            sums[..1].to_vec(),
            u64::MAX
        )
        .is_err());
        assert!(PageCache::new(
            Box::new(crate::BytesSource(bytes)),
            64,
            100,
            64,
            page_checksums(&region(100), 64),
            u64::MAX
        )
        .is_err());
    }

    #[test]
    fn sequential_walk_triggers_readahead() {
        let bytes = region(64 * 32);
        let cache = PageCache::over_bytes(bytes.clone(), 64, u64::MAX).unwrap();
        let mut buf = [0u8; 64];
        for p in 0..32u64 {
            assert!(cache.read(p * 64, &mut buf));
            assert_eq!(&buf[..], &bytes[(p * 64) as usize..][..64]);
        }
        let stats = cache.stats();
        // Every page entered memory exactly once, most of them batched.
        assert_eq!(stats.faults + stats.prefetched, 32, "{stats:?}");
        assert!(stats.prefetched > stats.faults, "{stats:?}");
        assert!(stats.readahead_hits > 0, "{stats:?}");
        assert_eq!(stats.checksum_failures, 0);
    }

    #[test]
    fn pinning_across_a_seam_prefetches_nothing() {
        let cache = PageCache::over_bytes(region(64 * 16), 64, u64::MAX).unwrap();
        assert!(cache.pin(32, 3 * 64));
        let stats = cache.stats();
        assert_eq!((stats.faults, stats.prefetched), (4, 0), "{stats:?}");
        assert_eq!(stats.pinned_pages, 4);
    }

    #[test]
    fn readahead_hint_prefetches_window() {
        let bytes = region(64 * 16);
        let cache = PageCache::over_bytes(bytes.clone(), 64, u64::MAX).unwrap();
        cache.readahead(0, 5 * 64);
        let stats = cache.stats();
        assert_eq!(stats.prefetched, 5, "{stats:?}");
        assert_eq!(stats.faults, 0);
        let mut buf = [0u8; 64];
        for p in 0..5u64 {
            assert!(cache.read(p * 64, &mut buf));
            assert_eq!(&buf[..], &bytes[(p * 64) as usize..][..64]);
        }
        let stats = cache.stats();
        assert_eq!(stats.faults, 0, "{stats:?}");
        assert_eq!(stats.readahead_hits, 5, "{stats:?}");
        // Out-of-range and empty hints are harmless no-ops.
        cache.readahead(64 * 160, 64);
        cache.readahead(0, 0);
    }

    #[test]
    fn unused_prefetches_count_as_wasted_on_eviction() {
        let cache = PageCache::over_bytes(region(64 * 16), 64, u64::MAX).unwrap();
        cache.readahead(0, 8 * 64);
        assert_eq!(cache.stats().prefetched, 8);
        cache.set_budget(2 * 64);
        let stats = cache.stats();
        assert!(stats.wasted_prefetches >= 6, "{stats:?}");
    }

    #[test]
    fn prefetch_respects_budget_headroom() {
        // Budget of three pages: a hint may only fill what fits.
        let cache = PageCache::over_bytes(region(64 * 16), 64, 3 * 64).unwrap();
        cache.readahead(0, 16 * 64);
        let stats = cache.stats();
        assert!(stats.resident_bytes <= 3 * 64, "{stats:?}");
        assert!(stats.prefetched <= 3, "{stats:?}");
    }

    #[test]
    fn speculative_checksum_failure_never_poisons() {
        let bytes = region(64 * 8);
        let mut sums = page_checksums(&bytes, 64);
        sums[3] ^= 1; // lie about page 3
        let cache = PageCache::new(
            Box::new(crate::BytesSource(bytes)),
            0,
            64 * 8,
            64,
            sums,
            u64::MAX,
        )
        .unwrap();
        let mut buf = [0u8; 64];
        assert!(cache.read(0, &mut buf));
        // Sequential second fault opens the window over pages 2..; the
        // corrupt page 3 stops the batch silently.
        assert!(cache.read(64, &mut buf));
        assert!(!cache.poisoned());
        assert_eq!(cache.stats().checksum_failures, 0);
        assert!(cache.read(2 * 64, &mut buf)); // prefetched fine
        assert!(!cache.read(3 * 64, &mut buf)); // demand fault catches it
        match cache.take_poison() {
            Some(StoreError::Checksum { section }) => assert_eq!(section, "page 3"),
            other => panic!("expected page checksum failure, got {other:?}"),
        }
        assert_eq!(cache.stats().checksum_failures, 1);
    }

    #[test]
    fn shrinking_budget_reclaims_immediately() {
        let cache = PageCache::over_bytes(region(64 * 8), 64, u64::MAX).unwrap();
        let mut buf = [0u8; 64];
        for p in 0..8u64 {
            cache.read(p * 64, &mut buf);
        }
        assert_eq!(cache.stats().resident_pages, 8);
        cache.set_budget(2 * 64);
        assert!(cache.stats().resident_bytes <= 2 * 64);
    }
}

//! The fixed-page cache: fault, verify, evict.

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

/// Cache traffic counters, surfaced through `query --stats` and
/// servebench.
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
    /// Bytes currently resident; the budget bounds every page.
    pub resident_bytes: u64,
    /// Always 0: a miss reads only the page it asks for, so no lookup is
    /// served by a speculative read. Kept only while servebench reads it.
    pub readahead_hits: u64,
    /// Always 0: no page is read speculatively, so none is evicted
    /// untouched. Kept only while servebench reads it.
    pub wasted_prefetches: u64,
}

struct Frame {
    /// Page held by this frame, or [`EMPTY`].
    page: u32,
    /// Clock reference bit: set on every hit, cleared by a sweep pass.
    referenced: bool,
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
/// borrows escape), so callers can walk many lists over one cache at
/// once. One `Mutex` guards residency and counters, so every serving
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

    /// Records an integrity failure for the calling thread's query, so no
    /// other thread's query fails on it or takes it. The first poison wins;
    /// later ones are dropped (the first is the root cause).
    pub fn poison(&self, e: StoreError) {
        self.lock().set_poison(e);
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
            match self.frame(&mut inner, page) {
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
    /// on miss with one positioned read. `None` means the fault failed and
    /// the poison records why.
    fn frame(&self, inner: &mut Inner, page: u32) -> Option<u32> {
        if let Some(&slot) = inner.map.get(&page) {
            inner.slots[slot as usize].referenced = true;
            inner.stats.hits += 1;
            return Some(slot);
        }

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

        let frame = Frame {
            page,
            referenced: true,
            data,
        };
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
        inner.stats.resident_bytes += len as u64;
        Some(slot)
    }

    /// Clock sweep: reclaim frames until `need` more bytes fit in the
    /// budget. Referenced frames get one more revolution. Bounded at two
    /// revolutions, so a single page larger than the budget leaves the
    /// cache over budget rather than thrashing or failing.
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
            if f.page == EMPTY {
                continue;
            }
            if f.referenced {
                f.referenced = false;
                continue;
            }
            let page = f.page;
            f.page = EMPTY;
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
    fn residency_is_exactly_what_was_read() {
        let bytes = region(64 * 16);
        let cache = PageCache::over_bytes(bytes.clone(), 64, u64::MAX).unwrap();
        let mut buf = [0u8; 64];
        for p in 0..4u64 {
            assert!(cache.read(p * 64, &mut buf));
            assert_eq!(&buf[..], &bytes[(p * 64) as usize..][..64]);
        }
        let stats = cache.stats();
        assert_eq!(stats.faults, 4, "{stats:?}");
        assert_eq!(stats.resident_pages, 4, "{stats:?}");
    }
}

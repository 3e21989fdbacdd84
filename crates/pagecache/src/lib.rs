//! Demand-paged reads for `.mrx` snapshots: a fixed-page in-process cache
//! with per-page checksums, plus paged posting arenas served through it.
//!
//! The paper's premise is frequent-query skew; this crate exploits the same
//! skew at the storage layer. Instead of slurping and checksumming whole
//! sections at load (the v5 read path), the paged v9 layout designates a
//! *paged region* of the file whose bytes are fetched on demand in
//! fixed-size pages via positioned I/O ([`PageSource::read_at`] —
//! `std::os::unix::fs::FileExt`, no mmap, no libc), verified lazily one
//! page at a time against a per-page FNV-64 table, and cached under a
//! configurable byte budget with clock eviction. Hot pages stay resident;
//! cold pages cost one `read_at` when (and only when) a query touches them.
//!
//! Two layers live here:
//!
//! * [`PageCache`] — the cache itself: fault/hit/eviction accounting
//!   under one byte budget, checksum-verify-on-fault, and a
//!   per-thread *poison* slot that records a query's first integrity
//!   failure so infallible read surfaces (the `IndexView` contract) can
//!   return sentinels while the owning query is guaranteed to observe the
//!   typed error before any answer is served. One cache serves all threads.
//! * [`PagedArena`] — the demand-paged twin of
//!   [`mrx_postings::PostingArena`]: identical wire form (tagged blocks of
//!   [`mrx_postings::BLOCK_LEN`] ids + skip directory) and identical
//!   iteration, but payload bytes live on disk and decode one block at a
//!   time through the cache — lists freely straddle page seams. The skip
//!   directories are read once and kept resident ([`SkipDirectories`]).
//!   One region-wide arena is cut into per-component runs, and an arena
//!   may share a list an earlier run stores, so each distinct extent is
//!   on disk once. Extents are the only paged structure: everything a
//!   query probes per step, the subnode links included, is resident.
//!
//! # Integrity contract
//!
//! A page is never consumed before its checksum verifies: faults verify the
//! page against the table built at write time ([`page_checksums`]) before
//! the bytes enter the cache, and every structural violation found while
//! decoding (truncated block, non-ascending ids, out-of-range members)
//! poisons the cache instead of panicking. The serving layer's one fault
//! probe takes the poison ([`PageCache::take_poison`]) after evaluating and
//! returns the error in place of the answer — corruption is always caught before any answer is
//! served, which the store's fault-injection test proves seed by seed.

#![forbid(unsafe_code)]

mod arena;
mod cache;
mod source;

pub use arena::{ArenaLayout, ListSpan, PagedArena, RunList, SkipDirectories};
pub use cache::{
    PageCache, PageStats, DEFAULT_CACHE_BYTES, DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE, MIN_PAGE_SIZE,
};
pub use source::{BytesSource, FileSource, PageSource};

pub use mrx_error::StoreError;

/// FNV-1a 64-bit over `bytes` — the same digest the section framing uses,
/// re-implemented here because this crate sits below the store.
pub fn fnv64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Word-folded FNV-1a 64-bit: the FNV round applied to 8-byte
/// little-endian lanes instead of single bytes, with the sub-word tail
/// folded byte-wise. Byte-serial FNV is latency-bound on the multiply
/// (~0.7 GB/s); folding eight bytes per round runs ~8x faster, which is
/// what keeps lazy per-page and per-section verification off the
/// time-to-first-answer critical path. Not interchangeable with
/// [`fnv64`] — the paged writer and reader both use this for bulk data
/// (page table, graph units) and the byte form only for tiny headers.
pub fn fnv64_words(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        h = h.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The per-page checksum table for a paged region: one word-folded FNV-64
/// per `page_size` chunk (the last page may be partial and is hashed over
/// its actual bytes). The writer stores this table in its own checksummed
/// section; the cache verifies against it lazily, page by page, on fault.
pub fn page_checksums(region: &[u8], page_size: u32) -> Vec<u64> {
    region
        .chunks(page_size.max(1) as usize)
        .map(fnv64_words)
        .collect()
}

//! Demand-paged posting arenas: the same wire form as
//! [`mrx_postings::PostingArena`], decoded one block at a time through a
//! [`PageCache`].
//!
//! The eager arena holds its four arrays on the heap and validates every
//! byte up front. Here the heavy arrays (tagged block payload, skip
//! directory, block offsets) stay on disk inside the paged region; only the
//! tiny per-list tables (`list_len`, `list_block`) are resident.
//!
//! One region-wide arena can serve several [`PagedArena`]s: each owns a
//! contiguous *run* of blocks, activated after the runs before it, and may
//! also *share* lists that an earlier run stores ([`RunList::Shared`]), so a
//! list is written once however many arenas read it. Activation pins the
//! run's slices of the two directory arrays — a seek probes them on every
//! jump, so they must never fault — and validates their *shape* (monotone
//! offsets, bounded block spans, ascending block heads). Payload bytes are
//! validated lazily, block by block, as queries decode them: any violation
//! poisons the cache instead of panicking, and the serving layer converts
//! the poison into a typed error before an answer escapes.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::sync::Arc;

use mrx_error::StoreError;
use mrx_postings::{decode_tagged_block, SeekingIterator, BLOCK_LEN, MAX_BLOCK_PAYLOAD};

use crate::cache::PageCache;

const BLOCK_LEN32: u32 = BLOCK_LEN as u32;

/// Where an arena's three on-disk arrays live, as **region-relative** byte
/// offsets into the paged region. `list_len` is not part of the layout —
/// it is small, stored in the checksummed meta section, and resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaLayout {
    /// Block payload bytes.
    pub data_off: u64,
    /// Payload length in bytes.
    pub data_len: u64,
    /// `[u32; nblocks]` skip directory (first id of each block).
    pub block_first_off: u64,
    /// `[u32; nblocks + 1]` payload byte offsets (leading 0 included).
    pub block_off_off: u64,
    /// Total blocks across all lists.
    pub nblocks: u32,
}

/// Where one list's blocks start in its arena's block numbering, and how
/// many ids it holds: all another arena over the same layout needs to
/// read it (see [`RunList::Shared`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListSpan {
    /// The list's first block.
    pub first_block: u32,
    /// The list's length in ids.
    pub len: u32,
}

impl ListSpan {
    /// One past the list's last block.
    fn end_block(self) -> u64 {
        u64::from(self.first_block) + u64::from(blocks_of(self.len))
    }
}

/// One list of a run being activated by [`PagedArena::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunList {
    /// A list the run stores itself, of this many ids; a run's own lists
    /// sit back to back in the order they are given.
    Own(u32),
    /// A list an earlier run stores ([`PagedArena::span`] of an arena
    /// activated before this one, over the same layout).
    Shared(ListSpan),
}

fn blocks_of(len: u32) -> u32 {
    len.div_ceil(BLOCK_LEN32)
}

fn range_in(region_len: u64, off: u64, len: u64, what: &str) -> Result<(), StoreError> {
    match off.checked_add(len) {
        Some(end) if end <= region_len => Ok(()),
        _ => Err(StoreError::Format(format!(
            "paged arena {what} [{off}, +{len}) outside the region ({region_len} bytes)"
        ))),
    }
}

/// A read-only posting arena whose payload and directories live in a
/// [`PageCache`] region. Iteration and seek semantics are bit-identical to
/// [`mrx_postings::PostingArena`]: same block geometry, same skip-directory
/// jump, same visit order — so serving through it yields the same answers
/// and the same cost accounting.
pub struct PagedArena {
    cache: Arc<PageCache>,
    data_off: u64,
    data_len: u64,
    bf_off: u64,
    bo_off: u64,
    /// Blocks in the whole layout.
    nblocks: u32,
    /// One past the last block of this arena's own run.
    run_end: u32,
    /// First block of each list; a list spans `blocks_of(len)` blocks.
    list_block: Vec<u32>,
    list_len: Vec<u32>,
    /// Ids must be `< universe`; decode poisons on violation so downstream
    /// random-access structures never index out of range.
    universe: u32,
}

impl PagedArena {
    /// Activates an arena that owns every block of `layout`: the lists
    /// `list_len`, back to back from block 0, must fill it exactly. See
    /// [`PagedArena::run`] for what activation checks.
    pub fn new(
        cache: Arc<PageCache>,
        layout: ArenaLayout,
        list_len: Vec<u32>,
        universe: u32,
    ) -> Result<Self, StoreError> {
        let lists: Vec<RunList> = list_len.into_iter().map(RunList::Own).collect();
        let arena = Self::run(cache, layout, 0, &lists, universe)?;
        if arena.run_end != layout.nblocks {
            return Err(StoreError::Format(format!(
                "paged arena lists need {} blocks, layout declares {}",
                arena.run_end, layout.nblocks
            )));
        }
        Ok(arena)
    }

    /// Activates the run of `layout` that starts at block `first_block`:
    /// `lists` are the arena's lists in order, each either stored by this
    /// run ([`RunList::Own`], laid out back to back from `first_block`) or
    /// shared from a run before it ([`RunList::Shared`], which must end at
    /// or before `first_block`). Pins the run's slices of both directory
    /// arrays and validates everything that can be checked without
    /// touching the payload: directory ranges, monotone offsets with
    /// bounded per-block spans inside the payload, ascending block heads
    /// within each own list, and heads inside the id universe. Shared
    /// lists were checked when their run activated; payload bytes are
    /// validated lazily at decode time.
    pub fn run(
        cache: Arc<PageCache>,
        layout: ArenaLayout,
        first_block: u32,
        lists: &[RunList],
        universe: u32,
    ) -> Result<Self, StoreError> {
        let fail = |msg: String| Err(StoreError::Format(msg));
        if first_block > layout.nblocks {
            return fail(format!(
                "paged arena run at block {first_block} past the layout's {}",
                layout.nblocks
            ));
        }
        let mut list_block = Vec::with_capacity(lists.len());
        let mut list_len = Vec::with_capacity(lists.len());
        let mut end = u64::from(first_block);
        for &l in lists {
            let span = match l {
                RunList::Own(len) => {
                    let span = ListSpan {
                        first_block: end as u32,
                        len,
                    };
                    end = span.end_block();
                    if end > u64::from(layout.nblocks) {
                        return fail(format!(
                            "paged arena lists need blocks past the layout's {}",
                            layout.nblocks
                        ));
                    }
                    span
                }
                RunList::Shared(span) if span.end_block() <= u64::from(first_block) => span,
                RunList::Shared(span) => {
                    return fail(format!(
                        "paged arena shares block {} of a run at or past its own",
                        span.first_block
                    ))
                }
            };
            list_block.push(span.first_block);
            list_len.push(span.len);
        }
        if layout.data_len > u64::from(u32::MAX) {
            return fail("paged arena payload exceeds u32 offsets".into());
        }
        let region_len = cache.region_len();
        let nb = u64::from(layout.nblocks);
        range_in(region_len, layout.data_off, layout.data_len, "payload")?;
        range_in(region_len, layout.block_first_off, 4 * nb, "skip directory")?;
        range_in(
            region_len,
            layout.block_off_off,
            4 * (nb + 1),
            "offset table",
        )?;

        // Directories are probed on every seek: fault the run's slices in
        // now and pin them so the clock can never push a seek into a page
        // fault. A shared list's slices were pinned by its own run.
        let (lo, hi) = (u64::from(first_block), end);
        if !cache.pin(layout.block_first_off + 4 * lo, 4 * (hi - lo))
            || !cache.pin(layout.block_off_off + 4 * lo, 4 * (hi - lo + 1))
        {
            return Err(cache
                .take_poison()
                .unwrap_or_else(|| StoreError::Format("paged arena directory pin failed".into())));
        }

        let arena = PagedArena {
            cache,
            data_off: layout.data_off,
            data_len: layout.data_len,
            bf_off: layout.block_first_off,
            bo_off: layout.block_off_off,
            nblocks: layout.nblocks,
            run_end: end as u32,
            list_block,
            list_len,
            universe,
        };
        arena.validate_run(first_block)?;
        Ok(arena)
    }

    /// Shape checks over the run's pinned directory slices: `block_off`
    /// starts at 0 in the first run, ascends monotonically with per-block
    /// spans a valid block can actually occupy and inside the payload, and
    /// ends exactly at the payload length in the last run; block heads
    /// ascend strictly within each own list (the lists that start in the
    /// run) and sit inside the universe.
    fn validate_run(&self, first_block: u32) -> Result<(), StoreError> {
        let fail = |msg: String| Err(StoreError::Format(msg));
        if first_block == 0 && self.bo(0) != 0 {
            return fail("paged arena offset table does not start at 0".into());
        }
        for b in first_block..self.run_end {
            let (lo, hi) = (self.bo(b), self.bo(b + 1));
            if hi < lo {
                return fail(format!("paged arena block {b} offsets not monotone"));
            }
            if (hi - lo) as usize > MAX_BLOCK_PAYLOAD || u64::from(hi) > self.data_len {
                return fail(format!(
                    "paged arena block {b} payload impossibly large or past the end"
                ));
            }
        }
        if self.run_end == self.nblocks && u64::from(self.bo(self.nblocks)) != self.data_len {
            return fail("paged arena offset table does not cover the payload".into());
        }
        for (l, &lo) in self.list_block.iter().enumerate() {
            if lo < first_block {
                continue;
            }
            for b in lo..lo + blocks_of(self.list_len[l]) {
                let first = self.bf(b);
                if first >= self.universe {
                    return fail(format!("paged arena block {b} head outside the universe"));
                }
                if b > lo && first <= self.bf(b - 1) {
                    return fail(format!("paged arena list {l} block heads not ascending"));
                }
            }
        }
        if let Some(e) = self.cache.take_poison() {
            return Err(e);
        }
        Ok(())
    }

    /// The cache this arena reads through (shared with sibling structures
    /// of the same component).
    pub fn cache(&self) -> &Arc<PageCache> {
        &self.cache
    }

    /// Number of lists.
    pub fn num_lists(&self) -> usize {
        self.list_len.len()
    }

    /// The exclusive id upper bound enforced at decode time.
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// One past the last block of this arena's own run: where the next
    /// run over the same layout starts.
    pub fn run_end(&self) -> u32 {
        self.run_end
    }

    /// Where list `i` lives, for a later run to share it.
    pub fn span(&self, i: usize) -> ListSpan {
        ListSpan {
            first_block: self.list_block[i],
            len: self.list_len[i],
        }
    }

    /// Length of list `i`.
    #[inline]
    pub fn len_of(&self, i: usize) -> usize {
        self.list_len[i] as usize
    }

    /// First id of list `i` — one pinned-directory read, no payload touch.
    #[inline]
    pub fn first_of(&self, i: usize) -> Option<u32> {
        if self.list_len[i] == 0 {
            return None;
        }
        Some(self.bf(self.list_block[i]))
    }

    /// The blocks `[lo, hi)` of list `i`.
    #[inline]
    fn blocks(&self, i: usize) -> (u32, u32) {
        let lo = self.list_block[i];
        (lo, lo + blocks_of(self.list_len[i]))
    }

    /// A seeking cursor over list `i`.
    #[inline]
    pub fn cursor(&self, i: usize) -> PagedCursor<'_> {
        let (blk_lo, blk_hi) = self.blocks(i);
        PagedCursor {
            arena: self,
            blk_lo,
            blk_hi,
            len: self.list_len[i],
            idx: 0,
            buf_blk: u32::MAX,
            buf: [0; BLOCK_LEN],
        }
    }

    /// Calls `f` with every id of list `i` in ascending order — same visit
    /// order as the eager arena's `for_each`. Stops early (poison already
    /// set) if a block fails to decode; the owning query observes the
    /// poison before any answer is served.
    pub fn for_each(&self, i: usize, mut f: impl FnMut(u32)) {
        let (blo, bhi) = self.blocks(i);
        if blo == bhi {
            return;
        }
        // A bulk walk reads the list's payload span front to back: hint
        // the cache so the span's first pages arrive in one positioned
        // read, and the sequential-fault detector batches the rest.
        let (lo, hi) = (self.bo(blo), self.bo(bhi));
        if hi > lo {
            self.cache
                .readahead(self.data_off + u64::from(lo), u64::from(hi - lo));
        }
        let mut remaining = self.list_len[i];
        let mut buf = [0u32; BLOCK_LEN];
        for b in blo..bhi {
            let in_block = remaining.min(BLOCK_LEN32);
            if !self.decode_block(b, in_block, &mut buf) {
                return;
            }
            for &v in &buf[..in_block as usize] {
                f(v);
            }
            remaining -= in_block;
        }
    }

    /// First id of block `b`, from the pinned skip directory.
    #[inline]
    fn bf(&self, b: u32) -> u32 {
        self.cache.read_u32(self.bf_off + 4 * u64::from(b))
    }

    /// Payload byte offset `b` of the pinned offset table.
    #[inline]
    fn bo(&self, b: u32) -> u32 {
        self.cache.read_u32(self.bo_off + 4 * u64::from(b))
    }

    /// Decodes block `b` (holding `in_block` ids) into `out[..in_block]`,
    /// reading the payload through the cache — a block may straddle any
    /// number of page seams. Decoding goes through the same checked
    /// tagged-block decoder as the eager arena's `from_parts`; every
    /// structural violation (bad tag, truncation,
    /// non-ascending ids, overflow, trailing or nonzero-padding bytes,
    /// out-of-universe ids) poisons the cache and returns `false`, and
    /// callers then stop iterating.
    fn decode_block(&self, b: u32, in_block: u32, out: &mut [u32; BLOCK_LEN]) -> bool {
        if self.cache.poisoned() {
            return false;
        }
        let first = self.bf(b);
        let (start, end) = (self.bo(b), self.bo(b + 1));
        let plen = end.saturating_sub(start) as usize;
        let mut payload = [0u8; MAX_BLOCK_PAYLOAD];
        if plen > MAX_BLOCK_PAYLOAD
            || (plen > 0
                && !self
                    .cache
                    .read(self.data_off + u64::from(start), &mut payload[..plen]))
        {
            return false;
        }
        if let Err(e) = decode_tagged_block(&payload[..plen], first, in_block, out) {
            self.cache.poison(StoreError::Format(format!(
                "paged arena block {b}: {}",
                e.0
            )));
            return false;
        }
        // Ids ascend, so checking the block's last covers them all.
        if out[in_block.saturating_sub(1) as usize] >= self.universe {
            self.cache.poison(StoreError::Format(format!(
                "paged arena block {b} id outside the universe"
            )));
            return false;
        }
        true
    }
}

/// [`SeekingIterator`] over one list of a [`PagedArena`] — the paged twin
/// of [`mrx_postings::PostingCursor`].
///
/// Instead of the eager cursor's per-element varint position, this cursor
/// decodes whole blocks into a stack buffer (`buf`, tagged by `buf_blk`)
/// and serves from it; crossing into a new block re-decodes. `next_seek`
/// performs the *same* skip-directory jump as the eager cursor — find the
/// last block strictly after the current one whose head is `<= target` —
/// so the two visit identical elements in identical order, which keeps
/// cost accounting bit-identical across representations.
pub struct PagedCursor<'a> {
    arena: &'a PagedArena,
    blk_lo: u32,
    blk_hi: u32,
    len: u32,
    idx: u32,
    /// Absolute block index currently in `buf`, or `u32::MAX` for none.
    buf_blk: u32,
    buf: [u32; BLOCK_LEN],
}

impl SeekingIterator for PagedCursor<'_> {
    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.idx >= self.len {
            return None;
        }
        let rel = self.idx / BLOCK_LEN32;
        let blk = self.blk_lo + rel;
        if blk != self.buf_blk {
            let in_block = (self.len - rel * BLOCK_LEN32).min(BLOCK_LEN32);
            if !self.arena.decode_block(blk, in_block, &mut self.buf) {
                self.idx = self.len; // poisoned: exhaust, never panic
                return None;
            }
            self.buf_blk = blk;
        }
        let v = self.buf[(self.idx % BLOCK_LEN32) as usize];
        self.idx += 1;
        Some(v)
    }

    fn next_seek(&mut self, target: u32) -> Option<u32> {
        if self.idx >= self.len {
            return None;
        }
        // Skip-directory jump, identical to the eager cursor: among blocks
        // strictly after the current one, the last whose head is <= target
        // is the only block that can hold the first remaining id >= target.
        let cur = self.blk_lo + self.idx / BLOCK_LEN32;
        let (mut lo, mut hi) = (cur + 1, self.blk_hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.arena.bf(mid) <= target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let skip = lo - (cur + 1);
        if skip > 0 {
            self.idx = (cur + skip - self.blk_lo) * BLOCK_LEN32;
        }
        // Linear tail: at most one block, then the next block's head.
        // (No run-tag shortcut here: peeking the tag byte would fault the
        // same payload page the decode needs anyway, so the eager cursor's
        // O(1) run landing buys nothing on the paged side.)
        while let Some(v) = self.next() {
            if v >= target {
                return Some(v);
            }
        }
        None
    }

    #[inline]
    fn remaining(&self) -> usize {
        (self.len - self.idx) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_checksums;
    use crate::source::BytesSource;
    use mrx_postings::PostingArena;

    /// Local PRNG so tests stay dependency-free and reproducible.
    struct SplitMix64(u64);
    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// Serializes an eager arena's parts into a byte region: payload,
    /// then the two directories. Returns the region and the layout.
    fn region_of(pa: &PostingArena) -> (Vec<u8>, ArenaLayout) {
        let (data, bf, bo, _ll) = pa.parts();
        let mut region = data.to_vec();
        let bf_off = region.len() as u64;
        for &v in bf {
            region.extend_from_slice(&v.to_le_bytes());
        }
        let bo_off = region.len() as u64;
        for &v in bo {
            region.extend_from_slice(&v.to_le_bytes());
        }
        let layout = ArenaLayout {
            data_off: 0,
            data_len: data.len() as u64,
            block_first_off: bf_off,
            block_off_off: bo_off,
            nblocks: bf.len() as u32,
        };
        (region, layout)
    }

    fn paged_of(
        pa: &PostingArena,
        page_size: u32,
        budget: u64,
        universe: u32,
    ) -> (Arc<PageCache>, PagedArena) {
        let (region, layout) = region_of(pa);
        let (_, _, _, ll) = pa.parts();
        let cache = PageCache::over_bytes(region, page_size, budget).unwrap();
        let arena = PagedArena::new(cache.clone(), layout, ll.to_vec(), universe).unwrap();
        (cache, arena)
    }

    /// A strictly ascending list with mixed-density runs, the shape the
    /// parity suites use: dense runs exercise 1-byte deltas, jumps
    /// exercise multi-byte varints and skip jumps.
    fn random_list(rng: &mut SplitMix64, max_len: u64, universe: u32) -> Vec<u32> {
        let len = rng.below(max_len + 1);
        let mut out = Vec::with_capacity(len as usize);
        let mut cur = 0u64;
        for _ in 0..len {
            let span = if rng.below(4) == 0 { 5000 } else { 3 };
            cur += 1 + rng.below(span);
            if cur >= u64::from(universe) {
                break;
            }
            out.push(cur as u32);
        }
        out
    }

    #[test]
    fn paged_matches_eager_bulk_and_cursor() {
        let big: Vec<u32> = (0..1500).map(|i| i * 3 + 7).collect();
        let lists: Vec<Vec<u32>> = vec![vec![], vec![42], big, vec![1, 2, 3]];
        let mut pa = PostingArena::new();
        for l in &lists {
            pa.push_list(l);
        }
        for page_size in [64u32, 256, 4096] {
            let (cache, paged) = paged_of(&pa, page_size, u64::MAX, u32::MAX);
            assert_eq!(paged.num_lists(), lists.len());
            for (i, l) in lists.iter().enumerate() {
                assert_eq!(paged.len_of(i), l.len());
                assert_eq!(paged.first_of(i), l.first().copied());
                let mut bulk = Vec::new();
                paged.for_each(i, |v| bulk.push(v));
                assert_eq!(&bulk, l, "for_each list {i} page {page_size}");
                let mut drained = Vec::new();
                let mut c = paged.cursor(i);
                while let Some(v) = c.next() {
                    drained.push(v);
                }
                assert_eq!(&drained, l, "cursor list {i} page {page_size}");
            }
            assert!(!cache.poisoned());
        }
    }

    #[test]
    fn interleaved_seeks_match_eager_cursor_under_tiny_pages() {
        let mut rng = SplitMix64(0x5eed_cafe);
        for round in 0..30 {
            let nlists = 1 + rng.below(5) as usize;
            let mut pa = PostingArena::new();
            let mut lists = Vec::new();
            for _ in 0..nlists {
                let l = random_list(&mut rng, 900, 4_000_000);
                pa.push_list(&l);
                lists.push(l);
            }
            let page_size = [64u32, 128, 256][rng.below(3) as usize];
            // A budget of a few pages forces constant eviction and
            // re-faulting mid-iteration.
            let budget = u64::from(page_size) * (2 + rng.below(4));
            let (cache, paged) = paged_of(&pa, page_size, budget, 4_000_000);
            for (i, _) in lists.iter().enumerate() {
                let mut ours = paged.cursor(i);
                let mut theirs = pa.cursor(i);
                for _ in 0..200 {
                    if rng.below(2) == 0 {
                        assert_eq!(ours.next(), theirs.next(), "round {round} list {i}");
                    } else {
                        let t = rng.below(4_100_000) as u32;
                        assert_eq!(
                            ours.next_seek(t),
                            theirs.next_seek(t),
                            "round {round} list {i} target {t}"
                        );
                    }
                }
            }
            assert!(!cache.poisoned(), "round {round}");
        }
    }

    /// Satellite regression, fixed seed: heavy eviction traffic must never
    /// reclaim the pinned directory pages — a seek after the sweep still
    /// jumps straight off the resident directory and re-faults only
    /// payload pages.
    #[test]
    fn eviction_then_reread_keeps_directories_pinned() {
        let mut rng = SplitMix64(0xD1CE_0007);
        let mut pa = PostingArena::new();
        let mut lists = Vec::new();
        for _ in 0..4 {
            let l = random_list(&mut rng, 2000, 1_000_000);
            pa.push_list(&l);
            lists.push(l);
        }
        let (cache, paged) = paged_of(&pa, 64, 3 * 64, 1_000_000);
        let pinned = cache.stats().pinned_pages;
        assert!(pinned > 0, "directories must span at least one pinned page");
        // Churn: full scans of every list, forcing payload pages through
        // the tiny budget over and over.
        for (i, l) in lists.iter().enumerate() {
            for _ in 0..3 {
                let mut got = Vec::new();
                paged.for_each(i, |v| got.push(v));
                assert_eq!(&got, l);
            }
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "budget must have forced evictions");
        assert_eq!(stats.pinned_pages, pinned, "pins must survive the churn");
        // Directory-only probes after the churn are pure hits.
        let before = cache.stats().faults;
        for (i, l) in lists.iter().enumerate() {
            assert_eq!(paged.first_of(i), l.first().copied());
        }
        assert_eq!(cache.stats().faults, before, "first_of must not fault");
        // And a seek still lands exactly where the eager cursor does.
        for (i, _) in lists.iter().enumerate() {
            let mut ours = paged.cursor(i);
            let mut theirs = pa.cursor(i);
            for t in [0u32, 17, 40_000, 999_999] {
                assert_eq!(ours.next_seek(t), theirs.next_seek(t));
            }
        }
        assert!(!cache.poisoned());
    }

    #[test]
    fn payload_bit_flip_is_caught_by_the_page_checksum() {
        let big: Vec<u32> = (0..600).map(|i| i * 7 + 1).collect();
        let mut pa = PostingArena::new();
        pa.push_list(&big);
        let (region, layout) = region_of(&pa);
        let sums = page_checksums(&region, 64);
        let mut corrupt = region.clone();
        corrupt[10] ^= 0x40; // inside the varint payload
        let cache = PageCache::new(
            Box::new(BytesSource(corrupt)),
            0,
            region.len() as u64,
            64,
            sums,
            u64::MAX,
        )
        .unwrap();
        let (_, _, _, ll) = pa.parts();
        // Directories live past byte 10, so activation may succeed; the
        // flip must then surface on first payload decode, never as a wrong
        // answer.
        match PagedArena::new(cache.clone(), layout, ll.to_vec(), u32::MAX) {
            Err(StoreError::Checksum { .. }) => {}
            Err(other) => panic!("expected checksum failure, got {other:?}"),
            Ok(arena) => {
                let mut got = Vec::new();
                arena.for_each(0, |v| got.push(v));
                assert!(got.len() < big.len(), "decode must stop at the poison");
                match cache.take_poison() {
                    Some(StoreError::Checksum { section }) => {
                        assert!(section.starts_with("page "), "{section}")
                    }
                    other => panic!("expected page checksum poison, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn semantically_invalid_payload_with_valid_checksums_poisons() {
        let big: Vec<u32> = (0..300).map(|i| i * 2 + 5).collect();
        let mut pa = PostingArena::new();
        pa.push_list(&big);
        let (mut region, layout) = region_of(&pa);
        // Byte 0 is the first block's encoding tag: make it a tag no
        // writer emits. The checksum table is computed over the corrupted
        // bytes, so only semantic validation can catch this.
        region[0] = 0xEE;
        let cache = PageCache::over_bytes(region, 64, u64::MAX).unwrap();
        let (_, _, _, ll) = pa.parts();
        let arena = PagedArena::new(cache.clone(), layout, ll.to_vec(), u32::MAX).unwrap();
        let mut got = Vec::new();
        arena.for_each(0, |v| got.push(v));
        assert!(got.is_empty(), "poisoned block must emit nothing");
        assert!(matches!(
            cache.take_poison(),
            Some(StoreError::Format(m)) if m.contains("unknown block tag")
        ));
        // A cursor over the same list exhausts instead of panicking.
        let mut c = arena.cursor(0);
        assert_eq!(c.next(), None);

        // And a *semantic* corruption deeper in: re-tag the first block as
        // a varint block. The body no longer parses to 127 deltas, so the
        // typed error fires before any id escapes.
        let (mut region, layout) = region_of(&pa);
        region[0] = mrx_postings::TAG_VARINT;
        let cache = PageCache::over_bytes(region, 64, u64::MAX).unwrap();
        let arena = PagedArena::new(cache.clone(), layout, ll.to_vec(), u32::MAX).unwrap();
        let mut got = Vec::new();
        arena.for_each(0, |v| got.push(v));
        assert!(got.is_empty());
        assert!(matches!(
            cache.take_poison(),
            Some(StoreError::Format(m)) if m.contains("block 0")
        ));
    }

    #[test]
    fn activation_rejects_bad_geometry() {
        let mut pa = PostingArena::new();
        pa.push_list(&[1u32, 5, 9]);
        let (region, layout) = region_of(&pa);
        let (_, _, _, ll) = pa.parts();

        // Wrong block count for the list lengths.
        let cache = PageCache::over_bytes(region.clone(), 64, u64::MAX).unwrap();
        let mut bad = layout;
        bad.nblocks += 1;
        assert!(PagedArena::new(cache, bad, ll.to_vec(), u32::MAX).is_err());

        // Directory ranges outside the region.
        let cache = PageCache::over_bytes(region.clone(), 64, u64::MAX).unwrap();
        let mut bad = layout;
        bad.block_off_off = region.len() as u64;
        assert!(PagedArena::new(cache, bad, ll.to_vec(), u32::MAX).is_err());

        // Block head at or past the universe.
        let cache = PageCache::over_bytes(region, 64, u64::MAX).unwrap();
        assert!(PagedArena::new(cache, layout, ll.to_vec(), 1).is_err());
    }

    /// Two runs over one region-wide arena: the second stores one list and
    /// shares the first run's big list, which it reads exactly as the
    /// first run does. A run may share only blocks that end before it.
    #[test]
    fn runs_share_lists_stored_by_earlier_runs() {
        let big: Vec<u32> = (0..300).map(|i| i * 3 + 1).collect();
        let mut pa = PostingArena::new();
        for l in [&big[..], &[2, 4], &[7]] {
            pa.push_list(l);
        }
        let (region, layout) = region_of(&pa);
        let cache = PageCache::over_bytes(region, 64, u64::MAX).unwrap();
        let own = |len: usize| RunList::Own(len as u32);
        let first = PagedArena::run(cache.clone(), layout, 0, &[own(300), own(2)], 1000).unwrap();
        let shared = RunList::Shared(first.span(0));
        let second = PagedArena::run(
            cache.clone(),
            layout,
            first.run_end(),
            &[own(1), shared],
            1000,
        )
        .unwrap();
        assert_eq!(second.run_end(), layout.nblocks);
        for (arena, i, want) in [
            (&first, 0, &big[..]),
            (&second, 1, &big),
            (&second, 0, &[7]),
        ] {
            let mut got = Vec::new();
            arena.for_each(i, |v| got.push(v));
            assert_eq!(got, want);
            let mut c = arena.cursor(i);
            assert_eq!(c.next_seek(500), want.iter().copied().find(|&v| v >= 500));
        }
        assert!(!cache.poisoned());
        // Sharing a list of this run, or of no run yet activated, fails.
        for span in [
            second.span(0),
            ListSpan {
                first_block: layout.nblocks,
                len: 1,
            },
        ] {
            let r = PagedArena::run(cache.clone(), layout, 3, &[RunList::Shared(span)], 1000);
            assert!(r.is_err(), "{span:?}");
        }
        // A run past the layout's blocks fails.
        assert!(PagedArena::run(cache, layout, layout.nblocks + 1, &[], 1000).is_err());
    }
}

//! Demand-paged posting arenas: the same wire form as
//! [`mrx_postings::PostingArena`], decoded one block at a time through a
//! [`PageCache`].
//!
//! The eager arena holds its four arrays on the heap and validates every
//! byte up front. Here the block payload stays on disk inside the paged
//! region. The two skip-directory arrays (block heads, payload offsets) are
//! read once through the cache, so their pages verify against the page
//! table, shape-checked whole, and kept resident as [`SkipDirectories`]:
//! a walk reads them as plain slices, without the cache's lock.
//!
//! One region-wide arena can serve several [`PagedArena`]s: each owns a
//! contiguous *run* of blocks, activated after the runs before it, and may
//! also *share* lists that an earlier run stores ([`RunList::Shared`]), so a
//! list is written once however many arenas read it. Activation checks
//! only what depends on the run's lists: block heads ascend within each
//! list it stores. Payload bytes are validated lazily, block by block, as
//! queries decode them: any violation poisons the cache instead of
//! panicking, and the serving layer converts the poison into a typed error
//! before an answer escapes.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::sync::Arc;

use mrx_error::StoreError;
use mrx_postings::{decode_tagged_block, BLOCK_LEN, MAX_BLOCK_PAYLOAD};

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
    /// activated before this one, over the same directories).
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

/// A layout's two skip-directory arrays, resident and shape-checked, with
/// the cache its payload reads through. Cloning shares the arrays: every
/// [`PagedArena`] over one layout borrows the same two.
#[derive(Clone)]
pub struct SkipDirectories {
    cache: Arc<PageCache>,
    data_off: u64,
    /// First id of each block.
    block_first: Arc<[u32]>,
    /// Payload byte offsets, `nblocks + 1` of them.
    block_off: Arc<[u32]>,
    /// Ids must be `< universe`; decode poisons on violation so downstream
    /// random-access structures never index out of range.
    universe: u32,
}

impl SkipDirectories {
    /// Reads both directory arrays of `layout` through `cache`, so the
    /// page checksums verify them, and checks their whole shape: payload
    /// offsets start at 0, ascend with spans a valid block can occupy,
    /// and end at the payload length; every block head lies inside the
    /// id universe.
    pub fn read(
        cache: Arc<PageCache>,
        layout: ArenaLayout,
        universe: u32,
    ) -> Result<Self, StoreError> {
        let fail = |msg: String| Err(StoreError::Format(msg));
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
        let read = |off: u64, words: u64| -> Result<Arc<[u32]>, StoreError> {
            let mut bytes = vec![0u8; 4 * words as usize];
            if !cache.read(off, &mut bytes) {
                return Err(cache.take_poison().unwrap_or_else(|| {
                    StoreError::Format("paged arena directory read failed".into())
                }));
            }
            Ok(bytes
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
                .collect())
        };
        let block_first = read(layout.block_first_off, nb)?;
        let block_off = read(layout.block_off_off, nb + 1)?;
        if block_off.first() != Some(&0) {
            return fail("paged arena offset table does not start at 0".into());
        }
        for (b, w) in block_off.windows(2).enumerate() {
            if w[1] < w[0] || (w[1] - w[0]) as usize > MAX_BLOCK_PAYLOAD {
                return fail(format!(
                    "paged arena block {b} offsets not monotone or payload impossibly large"
                ));
            }
        }
        if block_off.last().map(|&end| u64::from(end)) != Some(layout.data_len) {
            return fail("paged arena offset table does not cover the payload".into());
        }
        if let Some(b) = block_first.iter().position(|&first| first >= universe) {
            return fail(format!("paged arena block {b} head outside the universe"));
        }
        Ok(SkipDirectories {
            cache,
            data_off: layout.data_off,
            block_first,
            block_off,
            universe,
        })
    }

    /// Blocks in the layout.
    pub fn nblocks(&self) -> u32 {
        self.block_first.len() as u32
    }
}

/// A read-only posting arena whose payload lives in a [`PageCache`]
/// region. Iteration is bit-identical to [`mrx_postings::PostingArena`]:
/// same block geometry, same visit order — so serving through it yields
/// the same answers and the same cost accounting.
pub struct PagedArena {
    dirs: SkipDirectories,
    /// One past the last block of this arena's own run.
    run_end: u32,
    /// First block of each list; a list spans `blocks_of(len)` blocks.
    list_block: Vec<u32>,
    list_len: Vec<u32>,
}

impl PagedArena {
    /// Reads the directories of `layout` and activates an arena that owns
    /// every block: the lists `list_len`, back to back from block 0, must
    /// fill it exactly. See [`SkipDirectories::read`] and
    /// [`PagedArena::run`] for what is checked.
    pub fn new(
        cache: Arc<PageCache>,
        layout: ArenaLayout,
        list_len: Vec<u32>,
        universe: u32,
    ) -> Result<Self, StoreError> {
        let dirs = SkipDirectories::read(cache, layout, universe)?;
        let lists: Vec<RunList> = list_len.into_iter().map(RunList::Own).collect();
        let arena = Self::run(&dirs, 0, &lists)?;
        if arena.run_end != dirs.nblocks() {
            return Err(StoreError::Format(format!(
                "paged arena lists need {} blocks, layout declares {}",
                arena.run_end,
                dirs.nblocks()
            )));
        }
        Ok(arena)
    }

    /// Activates the run of `dirs` that starts at block `first_block`:
    /// `lists` are the arena's lists in order, each either stored by this
    /// run ([`RunList::Own`], laid out back to back from `first_block`) or
    /// shared from a run before it ([`RunList::Shared`], which must end at
    /// or before `first_block`). Checks that the run's own lists fit the
    /// layout and that block heads ascend within each of them; shared
    /// lists were checked when their run activated, and payload bytes are
    /// validated lazily at decode time.
    pub fn run(
        dirs: &SkipDirectories,
        first_block: u32,
        lists: &[RunList],
    ) -> Result<Self, StoreError> {
        let fail = |msg: String| Err(StoreError::Format(msg));
        let nblocks = dirs.nblocks();
        if first_block > nblocks {
            return fail(format!(
                "paged arena run at block {first_block} past the layout's {nblocks}"
            ));
        }
        let mut list_block = Vec::with_capacity(lists.len());
        let mut list_len = Vec::with_capacity(lists.len());
        let mut end = u64::from(first_block);
        for (l, &list) in lists.iter().enumerate() {
            let span = match list {
                RunList::Own(len) => {
                    let span = ListSpan {
                        first_block: end as u32,
                        len,
                    };
                    end = span.end_block();
                    if end > u64::from(nblocks) {
                        return fail(format!(
                            "paged arena lists need blocks past the layout's {nblocks}"
                        ));
                    }
                    let heads = &dirs.block_first[span.first_block as usize..end as usize];
                    if heads.windows(2).any(|w| w[1] <= w[0]) {
                        return fail(format!("paged arena list {l} block heads not ascending"));
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
        Ok(PagedArena {
            dirs: dirs.clone(),
            run_end: end as u32,
            list_block,
            list_len,
        })
    }

    /// The cache this arena reads through (shared with sibling structures
    /// of the same component).
    pub fn cache(&self) -> &Arc<PageCache> {
        &self.dirs.cache
    }

    /// Number of lists.
    pub fn num_lists(&self) -> usize {
        self.list_len.len()
    }

    /// The exclusive id upper bound enforced at decode time.
    pub fn universe(&self) -> u32 {
        self.dirs.universe
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

    /// First id of list `i` — one resident directory read, no payload
    /// touch.
    #[inline]
    pub fn first_of(&self, i: usize) -> Option<u32> {
        if self.list_len[i] == 0 {
            return None;
        }
        Some(self.dirs.block_first[self.list_block[i] as usize])
    }

    /// Calls `f` with every id of list `i` in ascending order — same visit
    /// order as the eager arena's `for_each`. Stops at the first block
    /// that fails to decode (poison already set); the owning query
    /// observes the poison before any answer is served.
    pub fn for_each(&self, i: usize, mut f: impl FnMut(u32)) {
        let blo = self.list_block[i] as usize;
        let bhi = blo + blocks_of(self.list_len[i]) as usize;
        // Each block is one cache lookup; a page enters memory only when
        // a block on it is decoded.
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

    /// Decodes block `b` (holding `in_block` ids) into `out[..in_block]`,
    /// reading the payload through the cache — a block may straddle any
    /// number of page seams. Decoding goes through the same checked
    /// tagged-block decoder as the eager arena's `from_parts`; every
    /// structural violation (bad tag, truncation,
    /// non-ascending ids, overflow, trailing or nonzero-padding bytes,
    /// out-of-universe ids) poisons the cache and returns `false`, and
    /// callers then stop iterating. The cache refuses reads to a thread
    /// already poisoned, so its first poison stands.
    fn decode_block(&self, b: usize, in_block: u32, out: &mut [u32; BLOCK_LEN]) -> bool {
        let d = &self.dirs;
        let (start, end) = (d.block_off[b], d.block_off[b + 1]);
        let plen = (end - start) as usize;
        let mut payload = [0u8; MAX_BLOCK_PAYLOAD];
        if plen > 0
            && !d
                .cache
                .read(d.data_off + u64::from(start), &mut payload[..plen])
        {
            return false;
        }
        if let Err(e) = decode_tagged_block(&payload[..plen], d.block_first[b], in_block, out) {
            d.cache.poison(StoreError::Format(format!(
                "paged arena block {b}: {}",
                e.0
            )));
            return false;
        }
        // Ids ascend, so checking the block's last covers them all.
        if out[in_block.saturating_sub(1) as usize] >= d.universe {
            d.cache.poison(StoreError::Format(format!(
                "paged arena block {b} id outside the universe"
            )));
            return false;
        }
        true
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
            // A budget of two pages forces eviction and re-faulting in the
            // middle of a walk.
            for budget in [u64::MAX, 2 * u64::from(page_size)] {
                let (cache, paged) = paged_of(&pa, page_size, budget, u32::MAX);
                assert_eq!(paged.num_lists(), lists.len());
                for (i, l) in lists.iter().enumerate() {
                    assert_eq!(paged.len_of(i), l.len());
                    assert_eq!(paged.first_of(i), l.first().copied());
                    let mut bulk = Vec::new();
                    paged.for_each(i, |v| bulk.push(v));
                    assert_eq!(&bulk, l, "list {i} page {page_size} budget {budget}");
                }
                assert!(!cache.poisoned());
            }
        }
    }

    /// Heavy eviction traffic cannot touch the skip directories: after the
    /// churn, `first_of` answers without a single cache lookup.
    #[test]
    fn eviction_then_reread_keeps_directories_resident() {
        let mut rng = SplitMix64(0xD1CE_0007);
        let mut pa = PostingArena::new();
        let mut lists = Vec::new();
        for _ in 0..4 {
            let l = random_list(&mut rng, 2000, 1_000_000);
            pa.push_list(&l);
            lists.push(l);
        }
        let (cache, paged) = paged_of(&pa, 64, 3 * 64, 1_000_000);
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
        assert!(stats.resident_bytes <= 3 * 64, "{stats:?}");
        for (i, l) in lists.iter().enumerate() {
            assert_eq!(paged.first_of(i), l.first().copied());
        }
        let after = cache.stats();
        assert_eq!(
            (after.faults, after.hits),
            (stats.faults, stats.hits),
            "first_of must not look up a page"
        );
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
        // A second walk on the poisoned thread stops at once, and the
        // first poison stands.
        for _ in 0..2 {
            let mut got = Vec::new();
            arena.for_each(0, |v| got.push(v));
            assert!(got.is_empty(), "poisoned block must emit nothing");
        }
        assert!(matches!(
            cache.take_poison(),
            Some(StoreError::Format(m)) if m.contains("unknown block tag")
        ));

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
        let cache = PageCache::over_bytes(region.clone(), 64, u64::MAX).unwrap();
        assert!(PagedArena::new(cache, layout, ll.to_vec(), 1).is_err());

        // An offset table that does not start at 0, or whose last offset
        // misses the payload's end.
        for word in [0, layout.nblocks as usize] {
            let mut bad = region.clone();
            bad[layout.block_off_off as usize + 4 * word] ^= 1;
            let cache = PageCache::over_bytes(bad, 64, u64::MAX).unwrap();
            assert!(PagedArena::new(cache, layout, ll.to_vec(), u32::MAX).is_err());
        }
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
        let dirs = SkipDirectories::read(cache.clone(), layout, 1000).unwrap();
        let own = |len: usize| RunList::Own(len as u32);
        let first = PagedArena::run(&dirs, 0, &[own(300), own(2)]).unwrap();
        let shared = RunList::Shared(first.span(0));
        let second = PagedArena::run(&dirs, first.run_end(), &[own(1), shared]).unwrap();
        assert_eq!(second.run_end(), layout.nblocks);
        for (arena, i, want) in [
            (&first, 0, &big[..]),
            (&second, 1, &big),
            (&second, 0, &[7]),
        ] {
            let mut got = Vec::new();
            arena.for_each(i, |v| got.push(v));
            assert_eq!(got, want);
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
            let r = PagedArena::run(&dirs, 3, &[RunList::Shared(span)]);
            assert!(r.is_err(), "{span:?}");
        }
        // A run past the layout's blocks fails, and so does an own list
        // whose block heads do not ascend.
        assert!(PagedArena::run(&dirs, layout.nblocks + 1, &[]).is_err());
        assert!(PagedArena::run(&dirs, 0, &[own(600)]).is_err());
    }
}

//! Encoding-adaptive posting blocks with a per-arena skip directory.
//!
//! Many sorted lists pack into one [`PostingArena`]. Each list is split into
//! blocks of [`BLOCK_LEN`] ids; a block's *first* id lives only in the skip
//! directory (`block_first`), and its payload opens with a one-byte tag
//! naming how the remaining ids are encoded. Layout, for `L` lists and `B`
//! blocks total:
//!
//! ```text
//! data        [u8]        concatenated tagged block payloads
//! block_first [u32; B]    first id of each block (the skip directory)
//! block_off   [u32; B+1]  payload byte range of block b = data[off[b]..off[b+1]]
//! list_block  [u32; L+1]  block range of list l = blocks[lb[l]..lb[l+1]]
//! list_len    [u32; L]    id count of list l
//! ```
//!
//! The three block encodings, selected per block by whichever is smallest:
//!
//! * **Delta-varint** ([`TAG_VARINT`]): LEB128 varints of the id deltas —
//!   the fallback that handles any delta distribution.
//! * **Frame-of-reference bit-packed** (tag `w` in `1..=32`): every
//!   `delta - 1` packed into exactly `w` bits, LSB-first in little-endian
//!   byte order, final byte zero-padded. Fixed width makes the decode a
//!   branch-free bit-buffer loop with word-sized refills.
//! * **Run** ([`TAG_RUN`]): the ids are exactly
//!   `first .. first + in_block` — consecutive, so the tag byte *is* the
//!   whole payload and membership/seek inside the block is arithmetic.
//!
//! `list_block` is fully determined by `list_len` (`ceil(len/BLOCK_LEN)`
//! blocks per list), so the store serializes only the other four arrays and
//! [`PostingArena::from_parts`] re-derives it while validating every block
//! of every encoding byte-for-byte — a cursor over an arena that passed
//! `from_parts` never reads out of bounds and never sees a non-ascending
//! id.
//!
//! A [`PostingCursor`] implements [`SeekingIterator`]: `next_seek` binary
//! searches the skip directory to land on the one block that can contain
//! the target (`O(log B)`), then decodes at most one block — or, for run
//! blocks, lands by arithmetic without decoding at all.

use crate::seek::{PostingId, SeekingIterator};

/// Ids per block. 128 keeps the per-block directory overhead at 8 bytes
/// (first id + payload offset) — 0.0625 bytes/id — while bounding a seek's
/// linear tail to one cache-friendly block decode.
pub const BLOCK_LEN: usize = 128;
const BLOCK_LEN32: u32 = BLOCK_LEN as u32;

/// Block tag: payload body is LEB128 varints of the id deltas.
pub const TAG_VARINT: u8 = 0;
/// Block tag: the block's ids are consecutive (`first..first + in_block`);
/// the payload is the tag byte alone.
pub const TAG_RUN: u8 = 33;
/// Largest frame-of-reference bit width; tags `1..=MAX_TAG_WIDTH` mean
/// "bit-packed at width = tag".
pub const MAX_TAG_WIDTH: u8 = 32;

/// Largest payload a valid block can occupy: the tag byte plus
/// `BLOCK_LEN - 1` deltas of at most five LEB128 bytes each (bit-packed and
/// run payloads are always smaller). Lets block decode use a stack buffer.
pub const MAX_BLOCK_PAYLOAD: usize = 1 + (BLOCK_LEN - 1) * 5;

/// Validation failure rebuilding an arena from untrusted parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaError(pub &'static str);

impl core::fmt::Display for ArenaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "posting arena: {}", self.0)
    }
}

impl std::error::Error for ArenaError {}

#[inline]
fn write_varint(data: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        data.push((v as u8) | 0x80);
        v >>= 7;
    }
    data.push(v as u8);
}

/// Encoded LEB128 length of `v` (for `v >= 1`; `v = 0` never occurs in a
/// strictly ascending delta stream).
#[inline]
fn varint_len_of(v: u32) -> usize {
    let bits = 32 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Bounded LEB128 decode. On truncated or over-long input it stops early and
/// returns what it has — the checked block decoders reject such payloads, so
/// traversal of validated arenas never takes those exits.
#[inline]
pub(crate) fn read_varint(data: &[u8], pos: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0u32;
    while let Some(&b) = data.get(*pos) {
        *pos += 1;
        v |= u32::from(b & 0x7f) << shift.min(31);
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 28 {
            break;
        }
    }
    v
}

/// Bit-buffer refill for the fixed-width decode loops: ensure at least `w`
/// valid low bits in `acc`, splicing a whole little-endian word when the
/// body has one left (the common case — one branch per value), else byte by
/// byte over the tail. A truncated body (impossible after validation)
/// degrades to zero bits instead of reading out of bounds.
#[inline(always)]
fn refill(body: &[u8], pos: &mut usize, acc: &mut u64, avail: &mut u32, w: u32) {
    if *avail >= w {
        return;
    }
    if *pos + 4 <= body.len() {
        let word = u32::from_le_bytes([body[*pos], body[*pos + 1], body[*pos + 2], body[*pos + 3]]);
        *acc |= u64::from(word) << *avail;
        *pos += 4;
        *avail += 32;
    } else {
        while *avail < w && *pos < body.len() {
            *acc |= u64::from(body[*pos]) << *avail;
            *pos += 1;
            *avail += 8;
        }
        if *avail < w {
            *avail = w;
        }
    }
}

/// Encodes one block (`1..=BLOCK_LEN` strictly ascending ids whose first id
/// the caller has already written to the skip directory) into `data`,
/// choosing the smallest of the three encodings. Ties prefer bit-packed,
/// which decodes fastest.
fn encode_block(data: &mut Vec<u8>, chunk: &[u32]) {
    let mut max_dm1 = 0u32;
    let mut varint_len = 0usize;
    let mut prev = chunk[0];
    for &v in &chunk[1..] {
        debug_assert!(v > prev, "posting lists must be strictly ascending");
        let d = v.wrapping_sub(prev);
        // OR-accumulating `delta - 1` has the same bit width as the max.
        max_dm1 |= d.wrapping_sub(1);
        varint_len += varint_len_of(d);
        prev = v;
    }
    if max_dm1 == 0 {
        // Every delta is 1 (or the block is a singleton): a pure run.
        data.push(TAG_RUN);
        return;
    }
    let w = 32 - max_dm1.leading_zeros();
    let packed_len = ((chunk.len() - 1) * w as usize).div_ceil(8);
    if packed_len <= varint_len {
        data.push(w as u8);
        let (mut acc, mut avail) = (0u64, 0u32);
        let mut prev = chunk[0];
        for &v in &chunk[1..] {
            acc |= u64::from(v.wrapping_sub(prev).wrapping_sub(1)) << avail;
            avail += w;
            while avail >= 8 {
                data.push(acc as u8);
                acc >>= 8;
                avail -= 8;
            }
            prev = v;
        }
        if avail > 0 {
            data.push(acc as u8);
        }
    } else {
        data.push(TAG_VARINT);
        let mut prev = chunk[0];
        for &v in &chunk[1..] {
            write_varint(data, v.wrapping_sub(prev));
            prev = v;
        }
    }
}

/// Checked decode of a varint delta body.
fn decode_varint_body(
    body: &[u8],
    first: u32,
    n: usize,
    out: &mut [u32; BLOCK_LEN],
) -> Result<(), ArenaError> {
    let mut cur = first;
    let mut pos = 0usize;
    for slot in out[..n].iter_mut().skip(1) {
        if pos >= body.len() {
            return Err(ArenaError("block payload truncated"));
        }
        let delta = read_varint(body, &mut pos);
        if delta == 0 {
            return Err(ArenaError("ids not strictly ascending"));
        }
        let Some(next) = cur.checked_add(delta) else {
            return Err(ArenaError("id overflow"));
        };
        cur = next;
        *slot = cur;
    }
    if pos != body.len() {
        return Err(ArenaError("block payload has trailing bytes"));
    }
    Ok(())
}

/// Decodes and validates one **tagged** block payload into `out[..n]`:
/// known tag, exactly-sized and fully-consumed body, zero padding bits,
/// strictly ascending ids, no overflow. `first` is the block's head from
/// the skip directory; `n` its id count (`1..=BLOCK_LEN`). This is the one
/// checked decoder behind both [`PostingArena::from_parts`] and the
/// demand-paged arena's lazy per-block validation, so eager and paged
/// serving enforce identical invariants.
pub fn decode_tagged_block(
    payload: &[u8],
    first: u32,
    n: u32,
    out: &mut [u32; BLOCK_LEN],
) -> Result<(), ArenaError> {
    if n == 0 || n > BLOCK_LEN32 {
        return Err(ArenaError("block id count out of range"));
    }
    let Some((&tag, body)) = payload.split_first() else {
        return Err(ArenaError("block payload missing its tag"));
    };
    let n = n as usize;
    out[0] = first;
    match tag {
        TAG_RUN => {
            if !body.is_empty() {
                return Err(ArenaError("run block payload has trailing bytes"));
            }
            if first.checked_add(n as u32 - 1).is_none() {
                return Err(ArenaError("id overflow"));
            }
            for (k, slot) in out[..n].iter_mut().enumerate() {
                *slot = first + k as u32;
            }
        }
        TAG_VARINT => decode_varint_body(body, first, n, out)?,
        w if w <= MAX_TAG_WIDTH => {
            let w = u32::from(w);
            if body.len() != ((n - 1) * w as usize).div_ceil(8) {
                return Err(ArenaError("bit-packed payload length mismatch"));
            }
            let mask = (1u64 << w) - 1;
            let (mut acc, mut avail) = (0u64, 0u32);
            let mut pos = 0usize;
            let mut cur = u64::from(first);
            for slot in out[..n].iter_mut().skip(1) {
                refill(body, &mut pos, &mut acc, &mut avail, w);
                cur += (acc & mask) + 1;
                acc >>= w;
                avail -= w;
                if cur > u64::from(u32::MAX) {
                    return Err(ArenaError("id overflow"));
                }
                *slot = cur as u32;
            }
            // The body length is exact, so whatever is left in the buffer
            // is the final byte's padding — it must be zero.
            if acc != 0 {
                return Err(ArenaError("bit-packed padding bits not zero"));
            }
        }
        _ => return Err(ArenaError("unknown block tag")),
    }
    Ok(())
}

/// Decodes a block payload that already passed validation (built by
/// [`PostingArena::push_list`] or checked by `from_parts`) into
/// `out[..n]`, skipping the structural checks. Garbage input yields
/// unspecified ids but never reads out of bounds.
#[inline]
fn decode_block_trusted(payload: &[u8], first: u32, n: u32, out: &mut [u32; BLOCK_LEN]) {
    let n = n as usize;
    out[0] = first;
    let Some((&tag, body)) = payload.split_first() else {
        return;
    };
    match tag {
        TAG_RUN => {
            for (k, slot) in out[..n].iter_mut().enumerate() {
                *slot = first.wrapping_add(k as u32);
            }
        }
        TAG_VARINT => {
            let mut cur = first;
            let mut pos = 0usize;
            for slot in out[..n].iter_mut().skip(1) {
                // Extent deltas average about one byte, so peel the
                // single-byte case off the generic LEB128 loop.
                let delta = match body.get(pos) {
                    Some(&byte) if byte < 0x80 => {
                        pos += 1;
                        u32::from(byte)
                    }
                    _ => read_varint(body, &mut pos),
                };
                cur = cur.wrapping_add(delta);
                *slot = cur;
            }
        }
        w => unpack_fixed_width(u32::from(w).min(32), body, first, n, out),
    }
}

/// Fixed-width delta unpack with the width monomorphized: the refill
/// condition and shift amounts are compile-time constants, so the decode
/// loop unrolls into straight-line shifts — the branch-free bulk path the
/// block format is built around.
/// Largest possible bit-packed body: `BLOCK_LEN - 1` fields of 32 bits.
const PACKED_BODY_MAX: usize = (BLOCK_LEN - 1) * 4;

#[inline(always)]
fn unpack_width<const W: u32>(body: &[u8], first: u32, n: usize, out: &mut [u32; BLOCK_LEN]) {
    // Field `i` starts at bit `i*W`, so for `W <= 32` it always fits in the
    // unaligned 64-bit word at its base byte: one load + shift + mask per
    // id, no refill branch and no loop-carried bit-buffer state. The copy
    // into a zero-padded stack buffer makes the 8-byte loads near the end
    // of the body safe, and costs well under the per-element savings.
    let mut padded = [0u8; PACKED_BODY_MAX + 8];
    let take = body.len().min(PACKED_BODY_MAX);
    padded[..take].copy_from_slice(&body[..take]);
    let mask = (1u64 << W) - 1;
    let mut cur = first;
    let mut bit = 0u64;
    for slot in out[..n].iter_mut().skip(1) {
        let byte = (bit >> 3) as usize;
        let shift = (bit & 7) as u32;
        let word = u64::from_le_bytes(padded[byte..byte + 8].try_into().unwrap());
        cur = cur
            .wrapping_add(((word >> shift) & mask) as u32)
            .wrapping_add(1);
        *slot = cur;
        bit += u64::from(W);
    }
}

/// Width dispatch for the trusted bit-packed decode: one indirect-free
/// match onto the 32 monomorphized unpack loops.
fn unpack_fixed_width(w: u32, body: &[u8], first: u32, n: usize, out: &mut [u32; BLOCK_LEN]) {
    macro_rules! dispatch {
        ($($width:literal)*) => {
            match w {
                $($width => unpack_width::<$width>(body, first, n, out),)*
                _ => unpack_width::<32>(body, first, n, out),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31)
}

fn blocks_of(len: u32) -> u32 {
    len.div_ceil(BLOCK_LEN32)
}

/// Many compressed sorted id lists in one arena. See the module docs for the
/// physical layout and the per-block encodings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingArena {
    data: Vec<u8>,
    block_first: Vec<u32>,
    block_off: Vec<u32>,
    list_block: Vec<u32>,
    list_len: Vec<u32>,
}

impl PostingArena {
    /// An empty arena ready for [`PostingArena::push_list`].
    pub fn new() -> Self {
        PostingArena {
            data: Vec::new(),
            block_first: Vec::new(),
            block_off: vec![0],
            list_block: vec![0],
            list_len: Vec::new(),
        }
    }

    /// Appends one sorted, strictly ascending list and returns its index.
    /// Each block is written as whichever encoding is smallest for its
    /// deltas (see `encode_block`).
    pub fn push_list<T: PostingId>(&mut self, ids: &[T]) -> usize {
        let mut chunk_buf = [0u32; BLOCK_LEN];
        for chunk in ids.chunks(BLOCK_LEN) {
            for (slot, x) in chunk_buf.iter_mut().zip(chunk) {
                *slot = x.to_u32();
            }
            self.block_first.push(chunk_buf[0]);
            encode_block(&mut self.data, &chunk_buf[..chunk.len()]);
            self.block_off.push(self.data.len() as u32);
        }
        self.list_len.push(ids.len() as u32);
        self.list_block.push(self.block_first.len() as u32);
        self.list_len.len() - 1
    }

    /// Number of lists in the arena.
    pub fn num_lists(&self) -> usize {
        self.list_len.len()
    }

    /// Number of blocks in the arena.
    pub fn num_blocks(&self) -> usize {
        self.block_first.len()
    }

    /// Block counts per encoding as `[varint, bit_packed, run]` — the
    /// observability hook behind the bench's encoding-mix report.
    pub fn encoding_counts(&self) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for b in 0..self.num_blocks() {
            match self.payload(b).first() {
                Some(&TAG_VARINT) => counts[0] += 1,
                Some(&TAG_RUN) | None => counts[2] += 1,
                Some(_) => counts[1] += 1,
            }
        }
        counts
    }

    /// Length of list `i`.
    #[inline]
    pub fn len_of(&self, i: usize) -> usize {
        self.list_len[i] as usize
    }

    /// First id of list `i`, straight from the skip directory.
    #[inline]
    pub fn first_of(&self, i: usize) -> Option<u32> {
        if self.list_len[i] == 0 {
            return None;
        }
        Some(self.block_first[self.list_block[i] as usize])
    }

    /// The payload bytes of block `b` (tag byte included).
    #[inline]
    fn payload(&self, b: usize) -> &[u8] {
        &self.data[self.block_off[b] as usize..self.block_off[b + 1] as usize]
    }

    /// A seeking cursor over list `i`.
    #[inline]
    pub fn cursor(&self, i: usize) -> PostingCursor<'_> {
        PostingCursor {
            arena: self,
            blk_lo: self.list_block[i],
            blk_hi: self.list_block[i + 1],
            len: self.list_len[i],
            idx: 0,
            buf_blk: u32::MAX,
            buf: [0; BLOCK_LEN],
        }
    }

    /// Calls `f` with every id of list `i`, in ascending order — the bulk
    /// traversal, with a dedicated tight loop per block encoding: runs emit
    /// by pure arithmetic, bit-packed blocks unpack through the word-refill
    /// bit buffer, varint blocks keep the single-byte-delta fast path.
    /// Visit order is identical to draining [`cursor`](Self::cursor).
    #[inline]
    pub fn for_each(&self, i: usize, mut f: impl FnMut(u32)) {
        let mut buf = [0u32; BLOCK_LEN];
        let mut remaining = self.list_len[i];
        for b in self.list_block[i]..self.list_block[i + 1] {
            let b = b as usize;
            let in_block = remaining.min(BLOCK_LEN32);
            let first = self.block_first[b];
            let Some((&tag, body)) = self.payload(b).split_first() else {
                // Unreachable on validated arenas: every block has a tag.
                f(first);
                remaining -= in_block;
                continue;
            };
            match tag {
                TAG_RUN => {
                    for k in 0..in_block {
                        f(first.wrapping_add(k));
                    }
                }
                TAG_VARINT => {
                    f(first);
                    let mut cur = first;
                    let mut pos = 0usize;
                    for _ in 1..in_block {
                        let delta = match body.get(pos) {
                            Some(&byte) if byte < 0x80 => {
                                pos += 1;
                                u32::from(byte)
                            }
                            _ => read_varint(body, &mut pos),
                        };
                        cur = cur.wrapping_add(delta);
                        f(cur);
                    }
                }
                w => {
                    buf[0] = first;
                    unpack_fixed_width(
                        u32::from(w).min(32),
                        body,
                        first,
                        in_block as usize,
                        &mut buf,
                    );
                    for &v in &buf[..in_block as usize] {
                        f(v);
                    }
                }
            }
            remaining -= in_block;
        }
    }

    /// Decodes list `i`, appending every id to `out` — the answer
    /// materialization path. Whole blocks decode into a stack buffer and
    /// append through the slice-backed `extend`, so the per-id cost is the
    /// block decode plus a bulk copy, never a checked `push`.
    pub fn decode_into<T: PostingId>(&self, i: usize, out: &mut Vec<T>) {
        out.reserve(self.len_of(i));
        let mut buf = [0u32; BLOCK_LEN];
        let mut remaining = self.list_len[i];
        for b in self.list_block[i]..self.list_block[i + 1] {
            let b = b as usize;
            let n = remaining.min(BLOCK_LEN32);
            decode_block_trusted(self.payload(b), self.block_first[b], n, &mut buf);
            out.extend(buf[..n as usize].iter().map(|&v| T::from_u32(v)));
            remaining -= n;
        }
    }

    /// Decodes every list back into one CSR pair: `off[i]..off[i + 1]`
    /// indexes list `i`'s ids in `tgt`. The inverse of building an arena by
    /// [`push_list`](Self::push_list)-ing each CSR row in order.
    pub fn decode_csr<T: PostingId>(&self) -> (Vec<u32>, Vec<T>) {
        let total: usize = self.list_len.iter().map(|&l| l as usize).sum();
        let mut off = Vec::with_capacity(self.num_lists() + 1);
        let mut tgt = Vec::with_capacity(total);
        off.push(0u32);
        for i in 0..self.num_lists() {
            self.decode_into(i, &mut tgt);
            off.push(tgt.len() as u32);
        }
        (off, tgt)
    }

    /// Bytes of heap memory held by the arena (payload plus directories).
    pub fn heap_bytes(&self) -> usize {
        self.data.len()
            + 4 * (self.block_first.len()
                + self.block_off.len()
                + self.list_block.len()
                + self.list_len.len())
    }

    /// The four serialized arrays: `(data, block_first, block_off,
    /// list_len)`. `list_block` is derivable and not part of the wire form.
    pub fn parts(&self) -> (&[u8], &[u32], &[u32], &[u32]) {
        (
            &self.data,
            &self.block_first,
            &self.block_off,
            &self.list_len,
        )
    }

    /// Shape validation of the wire arrays: derives `list_block`
    /// from `list_len` and checks the directory arrays against it and the
    /// payload length.
    fn derive_list_block(
        data_len: usize,
        block_first: &[u32],
        block_off: &[u32],
        list_len: &[u32],
    ) -> Result<Vec<u32>, ArenaError> {
        let mut list_block = Vec::with_capacity(list_len.len() + 1);
        list_block.push(0u32);
        let mut total: u64 = 0;
        for &len in list_len {
            total += u64::from(blocks_of(len));
            if total > u64::from(u32::MAX) {
                return Err(ArenaError("block count overflow"));
            }
            list_block.push(total as u32);
        }
        let nblocks = total as usize;
        if block_first.len() != nblocks {
            return Err(ArenaError("skip directory length mismatch"));
        }
        if block_off.len() != nblocks + 1 || block_off.first() != Some(&0) {
            return Err(ArenaError("block offset table malformed"));
        }
        if block_off.windows(2).any(|w| w[0] > w[1]) {
            return Err(ArenaError("block offsets not monotone"));
        }
        if block_off.last().copied().unwrap_or(0) as usize != data_len {
            return Err(ArenaError("payload length mismatch"));
        }
        Ok(list_block)
    }

    /// Rebuilds an arena from untrusted serialized parts, re-deriving
    /// `list_block` and validating every byte: directory shapes, monotone
    /// offsets, and a full checked decode of every block in whichever
    /// encoding its tag names. After this check, cursor traversal is
    /// in-bounds by construction.
    pub fn from_parts(
        data: Vec<u8>,
        block_first: Vec<u32>,
        block_off: Vec<u32>,
        list_len: Vec<u32>,
    ) -> Result<Self, ArenaError> {
        let list_block = Self::derive_list_block(data.len(), &block_first, &block_off, &list_len)?;
        let arena = PostingArena {
            data,
            block_first,
            block_off,
            list_block,
            list_len,
        };
        arena.validate_payload()?;
        Ok(arena)
    }

    /// Full decode pass: every block's payload must carry a known tag,
    /// parse to exactly its id count, consume exactly its byte range, and
    /// ascend strictly across the whole list.
    fn validate_payload(&self) -> Result<(), ArenaError> {
        let mut buf = [0u32; BLOCK_LEN];
        for l in 0..self.num_lists() {
            let mut remaining = self.list_len[l];
            let mut prev: Option<u32> = None;
            for b in self.list_block[l]..self.list_block[l + 1] {
                let b = b as usize;
                if remaining == 0 {
                    return Err(ArenaError("block beyond list length"));
                }
                let in_block = remaining.min(BLOCK_LEN32);
                let first = self.block_first[b];
                if prev.is_some_and(|p| first <= p) {
                    return Err(ArenaError("ids not strictly ascending"));
                }
                decode_tagged_block(self.payload(b), first, in_block, &mut buf)?;
                prev = Some(buf[in_block as usize - 1]);
                remaining -= in_block;
            }
            if remaining != 0 {
                return Err(ArenaError("list shorter than its length"));
            }
        }
        Ok(())
    }
}

/// [`SeekingIterator`] over one list of a [`PostingArena`].
///
/// The cursor decodes whole blocks into a stack buffer (`buf`, tagged by
/// `buf_blk`) and serves from it; crossing into a new block re-decodes.
/// `next_seek` binary searches the skip directory to reposition `idx`, and
/// when the landing block is a run it computes the landing *within* the
/// block arithmetically too — a seek or membership probe inside a run
/// touches no payload bytes beyond the tag.
pub struct PostingCursor<'a> {
    arena: &'a PostingArena,
    blk_lo: u32,
    blk_hi: u32,
    len: u32,
    idx: u32,
    /// Absolute block index currently in `buf`, or `u32::MAX` for none.
    buf_blk: u32,
    buf: [u32; BLOCK_LEN],
}

impl SeekingIterator for PostingCursor<'_> {
    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.idx >= self.len {
            return None;
        }
        let rel = self.idx / BLOCK_LEN32;
        let blk = self.blk_lo + rel;
        if blk != self.buf_blk {
            let b = blk as usize;
            let in_block = (self.len - rel * BLOCK_LEN32).min(BLOCK_LEN32);
            decode_block_trusted(
                self.arena.payload(b),
                self.arena.block_first[b],
                in_block,
                &mut self.buf,
            );
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
        // Skip-directory jump: among the blocks strictly after the current
        // one, the last whose first id is <= target is the only block that
        // can hold the first remaining id >= target.
        let cur = self.blk_lo + self.idx / BLOCK_LEN32;
        let after = &self.arena.block_first[(cur + 1) as usize..self.blk_hi as usize];
        let skip = after.partition_point(|&f| f <= target) as u32;
        if skip > 0 {
            self.idx = (cur + skip - self.blk_lo) * BLOCK_LEN32;
        }
        // O(1) landing inside a run block: its ids are first..first + n,
        // so the position of the first id >= target is arithmetic and the
        // value needs no decode at all.
        let blk = self.blk_lo + self.idx / BLOCK_LEN32;
        let b = blk as usize;
        if self.arena.payload(b).first() == Some(&TAG_RUN) {
            let start = (blk - self.blk_lo) * BLOCK_LEN32;
            let in_block = (self.len - start).min(BLOCK_LEN32);
            let first = self.arena.block_first[b];
            let jump = if target > first {
                (target - first).min(in_block)
            } else {
                0
            };
            let land = self.idx.max(start + jump);
            if land < start + in_block {
                self.idx = land + 1;
                return Some(first + (land - start));
            }
            // Target is past this run: consume it and let the loop take
            // the next block's head.
            self.idx = start + in_block;
        }
        // Linear tail: at most one decoded block, then at most the first
        // id of the following block.
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
    use crate::seek::SliceSeeker;

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

    fn arena_of(lists: &[&[u32]]) -> PostingArena {
        let mut a = PostingArena::new();
        for l in lists {
            a.push_list(l);
        }
        a
    }

    fn decode(a: &PostingArena, i: usize) -> Vec<u32> {
        let mut out = Vec::new();
        a.decode_into(i, &mut out);
        out
    }

    fn tag_of(a: &PostingArena, b: usize) -> u8 {
        a.data[a.block_off[b] as usize]
    }

    /// A strictly ascending list whose delta distribution is steered by
    /// `style`: 0 = consecutive runs (run blocks), 1 = small bounded deltas
    /// (bit-packed blocks), 2 = mixed tiny/huge deltas (varint blocks),
    /// 3 = everything interleaved (mixed-encoding arenas).
    fn styled_list(rng: &mut SplitMix64, style: u32, max_len: u64) -> Option<Vec<u32>> {
        let len = rng.below(max_len + 1) as usize;
        let mut out = Vec::with_capacity(len);
        let mut cur = rng.below(1000) as u32;
        while out.len() < len {
            let s = if style == 3 {
                rng.below(3) as u32
            } else {
                style
            };
            match s {
                0 => {
                    // A consecutive run, then a gap.
                    let run = 1 + rng.below(300) as usize;
                    for _ in 0..run.min(len - out.len()) {
                        out.push(cur);
                        cur = cur.checked_add(1)?;
                    }
                    cur = cur.checked_add(rng.below(5000) as u32 + 1)?;
                }
                1 => {
                    out.push(cur);
                    cur = cur.checked_add(1 + rng.below(13) as u32)?;
                }
                _ => {
                    out.push(cur);
                    let d = if rng.below(10) == 0 {
                        1 + rng.below(1 << 20)
                    } else {
                        1 + rng.below(3)
                    };
                    cur = cur.checked_add(d as u32)?;
                }
            }
        }
        Some(out)
    }

    #[test]
    fn round_trip_across_blocks() {
        let big: Vec<u32> = (0..1000).map(|i| i * 3 + 7).collect();
        let a = arena_of(&[&[], &[42], &big, &[1, 2, 3]]);
        assert_eq!(a.num_lists(), 4);
        assert_eq!(decode(&a, 0), Vec::<u32>::new());
        assert_eq!(decode(&a, 1), [42]);
        assert_eq!(decode(&a, 2), big);
        assert_eq!(decode(&a, 3), [1, 2, 3]);
        assert_eq!(a.len_of(2), 1000);
        assert_eq!(a.first_of(2), Some(7));
        assert_eq!(a.first_of(0), None);
    }

    #[test]
    fn encoder_picks_the_expected_tags() {
        // Consecutive ids: run blocks, tag-only payloads.
        let run: Vec<u32> = (500..500 + 300).collect();
        // Constant stride 3: bit-packed at width 2 (delta - 1 = 2).
        let packed: Vec<u32> = (0..300).map(|i| i * 3).collect();
        // One huge delta per block amid tiny ones: varint wins.
        let mut wild = Vec::new();
        let mut cur = 0u32;
        for i in 0..300u32 {
            wild.push(cur);
            cur += if i % 40 == 20 { 1 << 24 } else { 2 };
        }
        let a = arena_of(&[&run, &packed, &wild, &[77]]);
        for b in 0..3 {
            assert_eq!(tag_of(&a, b), TAG_RUN, "run list block {b}");
            // Run payload is the tag byte alone.
            assert_eq!(a.block_off[b + 1] - a.block_off[b], 1);
        }
        for b in 3..6 {
            assert_eq!(tag_of(&a, b), 2, "packed list block {b}");
        }
        for b in 6..9 {
            assert_eq!(tag_of(&a, b), TAG_VARINT, "wild list block {b}");
        }
        // A singleton block is a (vacuous) run.
        assert_eq!(tag_of(&a, 9), TAG_RUN);
        for (i, l) in [&run, &packed, &wild].iter().enumerate() {
            assert_eq!(&decode(&a, i), *l);
        }
        assert_eq!(decode(&a, 3), [77]);
    }

    #[test]
    fn per_encoding_property_round_trip_and_seek_oracle() {
        let mut rng = SplitMix64(0xB10C_0DE5);
        for round in 0..40 {
            let style = round % 4;
            let Some(ids) = styled_list(&mut rng, style, 1200) else {
                continue;
            };
            let a = arena_of(&[&ids]);
            assert_eq!(decode(&a, 0), ids, "style {style} round {round}");
            // next_seek against the slice oracle, interleaved with next().
            let mut c = a.cursor(0);
            let mut s = SliceSeeker::new(&ids);
            assert_eq!(c.remaining(), s.remaining());
            for _ in 0..300 {
                if rng.below(3) == 0 {
                    assert_eq!(c.next(), s.next(), "style {style} round {round}");
                } else {
                    let hi = ids.last().map_or(100, |&l| u64::from(l) + 1000);
                    let t = rng.below(hi) as u32;
                    assert_eq!(
                        c.next_seek(t),
                        s.next_seek(t),
                        "style {style} round {round} target {t}"
                    );
                }
                assert_eq!(c.remaining(), s.remaining());
            }
        }
    }

    #[test]
    fn run_boundary_and_block_seam_seeks() {
        // A run spanning several blocks, ending mid-block, then a gap and a
        // short tail — every boundary a run seek can land on.
        let mut ids: Vec<u32> = (100..100 + 300).collect();
        ids.extend([1000, 1003, 1009]);
        let a = arena_of(&[&ids]);
        for t in [
            0, 99, 100, 101, 227, 228, 229, 255, 256, 355, 356, 357, 399, 400, 999, 1000, 1001,
            1009, 1010,
        ] {
            let mut c = a.cursor(0);
            let mut s = SliceSeeker::new(&ids);
            assert_eq!(c.next_seek(t), s.next_seek(t), "fresh seek to {t}");
        }
        // Monotone seek sweeps across the seams.
        let mut c = a.cursor(0);
        let mut s = SliceSeeker::new(&ids);
        for t in (0..1100).step_by(7) {
            assert_eq!(c.next_seek(t), s.next_seek(t), "sweep target {t}");
        }
    }

    #[test]
    fn empty_singleton_and_all_consecutive_lists() {
        let all: Vec<u32> = (0..BLOCK_LEN as u32 * 3).collect();
        let a = arena_of(&[&[], &[9], &all]);
        assert_eq!(decode(&a, 0), Vec::<u32>::new());
        assert_eq!(decode(&a, 1), [9]);
        assert_eq!(decode(&a, 2), all);
        assert_eq!(a.cursor(0).next(), None);
        assert_eq!(a.cursor(0).next_seek(0), None);
        assert_eq!(a.cursor(1).next_seek(9), Some(9));
        assert_eq!(a.cursor(1).next_seek(10), None);
        // O(1) membership inside the run: every probe lands exactly.
        for t in [0u32, 1, 127, 128, 129, 200, 383] {
            let mut c = a.cursor(2);
            assert_eq!(c.next_seek(t), Some(t), "run membership {t}");
        }
        assert_eq!(a.cursor(2).next_seek(384), None);
    }

    #[test]
    fn cursor_seek_matches_slice_seek() {
        let ids: Vec<u32> = (0..700).map(|i| i * i / 4 + i).collect();
        let a = arena_of(&[&ids]);
        for targets in [
            vec![0u32, 1, 5, 1000, 100_000],
            vec![ids[0], ids[ids.len() - 1], u32::MAX],
            (0..50).map(|i| i * 977).collect(),
        ] {
            let mut c = a.cursor(0);
            let mut s = SliceSeeker::new(&ids);
            for &t in &targets {
                assert_eq!(c.next_seek(t), s.next_seek(t), "target {t}");
            }
        }
    }

    #[test]
    fn decode_csr_inverts_row_pushes() {
        let big: Vec<u32> = (0..400).map(|i| i * 2 + 1).collect();
        let rows: &[&[u32]] = &[&[], &[7, 9], &big, &[], &[0]];
        let a = arena_of(rows);
        let (off, tgt) = a.decode_csr::<u32>();
        assert_eq!(off.len(), rows.len() + 1);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&tgt[off[i] as usize..off[i + 1] as usize], *row);
        }
    }

    #[test]
    fn wire_round_trip_and_validation() {
        let big: Vec<u32> = (0..300).map(|i| i * 5).collect();
        let a = arena_of(&[&[], &[9], &big]);
        let (data, bf, bo, ll) = a.parts();
        let b = PostingArena::from_parts(data.to_vec(), bf.to_vec(), bo.to_vec(), ll.to_vec())
            .expect("valid parts");
        assert_eq!(a, b);

        // Corruptions must be rejected, never panic.
        let bad = PostingArena::from_parts(data.to_vec(), bf.to_vec(), bo.to_vec(), vec![1]);
        assert!(bad.is_err());
        let mut data2 = data.to_vec();
        data2.pop();
        assert!(PostingArena::from_parts(data2, bf.to_vec(), bo.to_vec(), ll.to_vec()).is_err());
        // Second block of `big`: its first id must exceed the previous
        // block's last, so zeroing it breaks strict ascent.
        let mut bf2 = bf.to_vec();
        bf2[2] = 0;
        assert!(PostingArena::from_parts(data.to_vec(), bf2, bo.to_vec(), ll.to_vec()).is_err());
    }

    #[test]
    fn tagged_corruptions_are_rejected() {
        let stride: Vec<u32> = (0..300).map(|i| i * 3).collect(); // bit-packed
        let run: Vec<u32> = (0..200).collect(); // run
        let a = arena_of(&[&stride, &run]);
        let (data, bf, bo, ll) = a.parts();
        let fresh =
            |data: Vec<u8>| PostingArena::from_parts(data, bf.to_vec(), bo.to_vec(), ll.to_vec());
        assert!(fresh(data.to_vec()).is_ok());

        // Unknown tag.
        let mut d = data.to_vec();
        d[bo[0] as usize] = 200;
        assert_eq!(fresh(d).unwrap_err(), ArenaError("unknown block tag"));
        // Bit-packed block re-tagged as a run: trailing body bytes.
        let mut d = data.to_vec();
        d[bo[0] as usize] = TAG_RUN;
        assert_eq!(
            fresh(d).unwrap_err(),
            ArenaError("run block payload has trailing bytes")
        );
        // Width tampered: body length no longer matches.
        let mut d = data.to_vec();
        d[bo[0] as usize] = 7;
        assert_eq!(
            fresh(d).unwrap_err(),
            ArenaError("bit-packed payload length mismatch")
        );
        // Nonzero padding bits in the final byte of a packed body. Width 2
        // over 127 deltas = 254 bits: 6 pad bits in the last byte.
        let mut d = data.to_vec();
        let last = bo[1] as usize - 1;
        d[last] |= 0xC0;
        assert_eq!(
            fresh(d).unwrap_err(),
            ArenaError("bit-packed padding bits not zero")
        );
        // A run block cannot be grown past the end of the id space.
        let mut buf = [0u32; BLOCK_LEN];
        assert_eq!(
            decode_tagged_block(&[TAG_RUN], u32::MAX, 2, &mut buf),
            Err(ArenaError("id overflow"))
        );
        assert_eq!(
            decode_tagged_block(&[], 0, 1, &mut buf),
            Err(ArenaError("block payload missing its tag"))
        );
    }

    #[test]
    fn heap_bytes_counts_everything() {
        let a = arena_of(&[&[1, 2, 3]]);
        assert!(a.heap_bytes() > 0);
        assert!(a.heap_bytes() < 64);
    }
}

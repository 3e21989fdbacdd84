//! Compressed posting lists and seeking-iterator set algebra.
//!
//! Every structural index in this workspace ultimately stores *sorted id
//! lists* — partition extents, CSR adjacency rows, label buckets — and
//! spends its query time intersecting, uniting, and probing them. This
//! crate is the single home for both concerns:
//!
//! * [`SeekingIterator`]: the one iteration contract all representations
//!   implement — `next()` plus `next_seek(target)`, which skips forward to
//!   the first id `>= target` in sublinear time. [`SliceSeeker`] covers raw
//!   `&[id]` slices (live and frozen indexes) with galloping search;
//!   [`PostingCursor`] covers compressed blocks with skip-directory jumps.
//! * [`PostingArena`]: the compressed representation itself — many lists
//!   packed into one arena as blocks of [`BLOCK_LEN`] ids, each block
//!   written in whichever encoding is smallest for its deltas (delta-varint,
//!   frame-of-reference bit-packed, or a pure run of consecutive ids — see
//!   the tag constants [`TAG_VARINT`]/[`TAG_RUN`]) and fronted by its first
//!   id in a per-arena skip directory, so a seek costs `O(log B)` blocks
//!   plus at most one block decode.
//! * Set algebra ([`intersect_seeking`], [`union_seeking`],
//!   [`difference_seeking`], [`contains_seeking`]): galloping merges written
//!   once, generic over the trait, so live slices, frozen arenas, and
//!   compressed blocks all run the *same* algorithm and produce bit-identical
//!   answers and cost accounting.
//! * [`group_by_key`]: the shared counting-sort CSR builder used by every
//!   layer that groups ids by a key (label buckets in frozen indexes and
//!   the store's load path), deduplicating what used to be parallel
//!   implementations, and [`transpose`], which derives one adjacency
//!   direction from the other ([`is_transpose`] checks that two agree).
//! * The row codec ([`put_words`], [`put_rows`], [`RowReader`]): LEB128
//!   words and delta-coded adjacency rows, the compact resident half of the
//!   paged snapshot, decoded with the same typed refusal of hostile bytes.
//!
//! The crate is dependency-free and knows nothing about graphs or indexes;
//! callers adapt their id newtypes via [`PostingId`].

mod block;
mod csr;
mod rows;
mod seek;

pub use block::{
    decode_tagged_block, ArenaError, PostingArena, PostingCursor, BLOCK_LEN, MAX_BLOCK_PAYLOAD,
    TAG_RUN, TAG_VARINT,
};
pub use csr::{group_by_key, is_transpose, transpose};
pub use rows::{put_rows, put_words, CodecError, RowOrder, RowReader};
pub use seek::{
    contains_seeking, difference_seeking, intersect_seeking, union_seeking, PostingId,
    SeekingIterator, SliceSeeker,
};

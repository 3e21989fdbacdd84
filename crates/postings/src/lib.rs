//! Compressed posting lists and the set algebra over sorted id lists.
//!
//! Every structural index in this workspace ultimately stores *sorted id
//! lists* — partition extents, CSR adjacency rows, label buckets — and
//! spends its query time walking, intersecting, and probing them. This
//! crate is the single home for both concerns:
//!
//! * [`PostingArena`]: the compressed representation itself — many lists
//!   packed into one arena as blocks of [`BLOCK_LEN`] ids, each block
//!   written in whichever encoding is smallest for its deltas (delta-varint,
//!   frame-of-reference bit-packed, or a pure run of consecutive ids — see
//!   the tag constants [`TAG_VARINT`]/[`TAG_RUN`]) and fronted by its first
//!   id in a per-arena skip directory. A list is read whole, block by
//!   block, or by its first id, which the directory holds.
//! * Set algebra ([`intersect`], [`difference`]): merges over sorted
//!   slices that gallop when one side is much shorter than the other.
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

#![forbid(unsafe_code)]

mod block;
mod csr;
mod rows;
mod seek;

pub use block::{
    decode_tagged_block, ArenaError, PostingArena, BLOCK_LEN, MAX_BLOCK_PAYLOAD, TAG_RUN,
    TAG_VARINT,
};
pub use csr::{group_by_key, is_transpose, transpose};
pub use rows::{put_rows, put_words, CodecError, RowOrder, RowReader};
pub use seek::{difference, intersect, PostingId};

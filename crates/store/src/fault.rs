//! Deterministic fault injection for exercising `.mrx` load paths.
//!
//! Every fault is derived from a single `u64` seed via SplitMix64 (the
//! same stream-stretching step the data generator uses), so a failing
//! seed reproduces its exact corruption. Faults come in two families:
//!
//! * **image faults** mutate the snapshot bytes before parsing — bit
//!   flips, truncation, multi-byte overwrites, and section-length lies;
//! * **reader faults** perturb the I/O stream itself — a mid-stream
//!   error, or a short read, which a correct loader must tolerate
//!   *without* any error at all ([`Read::read`] is allowed to return
//!   fewer bytes than asked at any time).
//!
//! A third tool edits inside the checksums: [`reseal_paged`] replaces a
//! paged file's graph unit or meta payload and reseals every digest and
//! offset that covers it ([`paged_payload`] and [`paged_links`] find the
//! bytes to edit), so a test reaches the decoders behind the checksums.
//!
//! The contract under test: a loader fed any faulted input either
//! succeeds with a fully validated structure or returns a typed
//! [`StoreError`](crate::StoreError) — it never panics, never aborts,
//! and never allocates past the bounds the format's length checks imply.
//!
//! ```
//! use mrx_store::fault::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::from_seed(42);
//! let mut image = vec![0u8; 1024];
//! if plan.corrupt(&mut image) {
//!     // image-level fault applied; parse `image` directly
//! } else {
//!     // reader-level fault: parse through `plan.reader(&image[..])`
//! }
//! # let _ = plan.kind();
//! ```

use std::io::{self, Read};

/// One step of SplitMix64 — the same generator as
/// `mrx_datagen::prng::splitmix64`, duplicated here so the store crate
/// keeps zero runtime dependencies on the data generator.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The corruption a [`FaultPlan`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Flip one bit at a seeded offset.
    BitFlip,
    /// Cut the image off at a seeded length.
    Truncate,
    /// Overwrite 8 consecutive bytes at a seeded offset with seeded junk.
    Overwrite,
    /// Replace the first section's `u64` length prefix (the bytes at
    /// offset 16 in every `.mrx` layout) with a seeded value — the
    /// "section claims more bytes than exist" attack.
    LengthLie,
    /// The reader returns an [`io::Error`] once a seeded stream position
    /// is reached. Loaders must surface it as `StoreError::Io`.
    IoError,
    /// The reader serves one seeded read short (a legal `read` outcome).
    /// Loaders must succeed as if nothing happened.
    ShortRead,
}

/// A single seeded fault: which [`FaultKind`], where, and with what bytes.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    kind: FaultKind,
    offset: u64,
    value: u64,
}

impl FaultPlan {
    /// Derives a fault deterministically from `seed`. Equal seeds give
    /// byte-identical corruptions.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed;
        let kind = match splitmix64(&mut s) % 6 {
            0 => FaultKind::BitFlip,
            1 => FaultKind::Truncate,
            2 => FaultKind::Overwrite,
            3 => FaultKind::LengthLie,
            4 => FaultKind::IoError,
            _ => FaultKind::ShortRead,
        };
        let offset = splitmix64(&mut s);
        let value = splitmix64(&mut s);
        FaultPlan {
            kind,
            offset,
            value,
        }
    }

    /// The corruption this plan applies.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// Applies an image-level fault to `bytes` in place and returns
    /// `true`, or returns `false` for the reader-level kinds
    /// ([`FaultKind::IoError`], [`FaultKind::ShortRead`]) which
    /// [`FaultPlan::reader`] applies instead. Empty images are left
    /// untouched.
    pub fn corrupt(&self, bytes: &mut Vec<u8>) -> bool {
        if bytes.is_empty() {
            return false;
        }
        let len = bytes.len();
        match self.kind {
            FaultKind::BitFlip => {
                let at = (self.offset % len as u64) as usize;
                bytes[at] ^= 1 << (self.value % 8);
                true
            }
            FaultKind::Truncate => {
                bytes.truncate((self.offset % len as u64) as usize);
                true
            }
            FaultKind::Overwrite => {
                let span = 8.min(len);
                let at = (self.offset % (len - span + 1) as u64) as usize;
                bytes[at..at + span].copy_from_slice(&self.value.to_le_bytes()[..span]);
                true
            }
            FaultKind::LengthLie => {
                // Offset 16 holds the first section's u64 length in every
                // .mrx layout (8-byte magic + u32 version + u32 count).
                if len >= 24 {
                    bytes[16..24].copy_from_slice(&self.value.to_le_bytes());
                } else {
                    bytes[0] ^= 1 << (self.value % 8);
                }
                true
            }
            FaultKind::IoError | FaultKind::ShortRead => false,
        }
    }

    /// Wraps `inner` so the reader-level fault fires at a stream position
    /// derived from the seed (taken modulo `input_len`, so the fault lands
    /// inside the stream). Image-level plans produce a transparent reader.
    pub fn reader<R: Read>(&self, inner: R, input_len: u64) -> FaultReader<R> {
        let at = if input_len == 0 {
            0
        } else {
            self.offset % input_len
        };
        let kind = match self.kind {
            FaultKind::IoError | FaultKind::ShortRead => Some(self.kind),
            _ => None,
        };
        FaultReader {
            inner,
            pos: 0,
            fault_at: at,
            kind,
        }
    }
}

/// A [`Read`] adapter that injects its plan's stream-level fault once.
pub struct FaultReader<R: Read> {
    inner: R,
    pos: u64,
    fault_at: u64,
    kind: Option<FaultKind>,
}

impl<R: Read> Read for FaultReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let end = self.pos + buf.len() as u64;
        match self.kind {
            Some(FaultKind::IoError) if end > self.fault_at => Err(io::Error::other(format!(
                "injected I/O fault at stream offset {}",
                self.fault_at
            ))),
            Some(FaultKind::ShortRead) if !buf.is_empty() && end > self.fault_at => {
                // Serve exactly up to the fault point once, then behave.
                let keep = (self.fault_at.saturating_sub(self.pos) as usize)
                    .max(1)
                    .min(buf.len());
                self.kind = None;
                let n = self.inner.read(&mut buf[..keep])?;
                self.pos += n as u64;
                Ok(n)
            }
            _ => {
                let n = self.inner.read(buf)?;
                self.pos += n as u64;
                Ok(n)
            }
        }
    }
}

/// A checksummed part of a paged (v9) image that [`reseal_paged`] can
/// replace: a graph unit (0 = labels, 1 = parents) or a component's meta
/// section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagedPart {
    /// Graph unit section `u`.
    GraphUnit(usize),
    /// The meta section of component `i`.
    Meta(usize),
}

/// Frame offsets of a paged image: the graph core, both graph units and
/// the meta directory, in that order.
fn paged_frames(image: &[u8]) -> Option<[usize; 4]> {
    let word = |at: usize| Some(crate::wire::le_u64(image.get(at..at.checked_add(8)?)?) as usize);
    let core = crate::paged::HEADER_LEN_PAGED as usize;
    let unit0 = core.checked_add(16)?.checked_add(word(core)?)?;
    let unit1 = unit0.checked_add(16)?.checked_add(word(unit0)?)?;
    let dir = unit1.checked_add(16)?.checked_add(word(unit1)?)?;
    Some([core, unit0, unit1, dir])
}

/// Byte range of `part`'s payload in a paged image, or `None` when the
/// image does not hold it.
pub fn paged_payload(image: &[u8], part: PagedPart) -> Option<std::ops::Range<usize>> {
    let word = |at: usize| Some(crate::wire::le_u64(image.get(at..at.checked_add(8)?)?) as usize);
    let [_, unit0, unit1, dir] = paged_frames(image)?;
    let frame = match part {
        PagedPart::GraphUnit(0) => unit0,
        PagedPart::GraphUnit(1) => unit1,
        PagedPart::GraphUnit(_) => return None,
        PagedPart::Meta(i) => word(dir.checked_add(i.checked_mul(8)?)?)?,
    };
    let end = frame.checked_add(8)?.checked_add(word(frame)?)?;
    (end.checked_add(8)? <= image.len()).then_some(frame + 8..end)
}

/// Byte range of component `i`'s subnode link rows in a paged image
/// (empty for `I0`), found by walking the meta payload with the row codec,
/// or `None` when the image does not hold them.
pub fn paged_links(image: &[u8], i: usize) -> Option<std::ops::Range<usize>> {
    use mrx_postings::{RowOrder, RowReader};
    let nodes = |j: usize| -> Option<(std::ops::Range<usize>, usize)> {
        let meta = paged_payload(image, PagedPart::Meta(j))?;
        let n = u32::from_le_bytes(image.get(meta.start..meta.start + 4)?.try_into().ok()?);
        Some((meta, n as usize))
    };
    let (meta, n) = nodes(i)?;
    let coarse = match i.checked_sub(1) {
        Some(j) => nodes(j)?.1,
        None => 0,
    };
    let codec = meta.start + 20;
    let mut r = RowReader::new(image.get(codec..meta.end)?);
    for _ in 0..3 {
        r.words(n, 1 << 32, |_| ()).ok()?;
    }
    r.rows::<u32>(n, u32::MAX, RowOrder::Ascending).ok()?;
    let start = codec + r.position();
    r.rows::<u32>(coarse, u32::MAX, RowOrder::Stored).ok()?;
    Some(start..codec + r.position())
}

/// `image` with `part`'s payload replaced by `payload` and everything that
/// covers it resealed: the part's own digest, the graph core's record of a
/// unit's length (and the core's digest), the directory entries, region
/// and page-table offsets that follow it, and the header checksum. The
/// region and the page table move unchanged, so only the decoders stand
/// between the edit and serving. `None` when the image does not hold
/// `part`.
pub fn reseal_paged(image: &[u8], part: PagedPart, payload: &[u8]) -> Option<Vec<u8>> {
    use mrx_pagecache::{fnv64, fnv64_words};
    let old = paged_payload(image, part)?;
    let [core, _, _, dir] = paged_frames(image)?;
    let ncomp = u32::from_le_bytes(image.get(12..16)?.try_into().ok()?) as usize;
    let frame = old.start - 8;
    let grow = |o: usize| match o > frame {
        true => (o + payload.len()).checked_sub(old.len()),
        false => Some(o),
    };
    let digest = match part {
        PagedPart::GraphUnit(_) => fnv64_words(payload),
        PagedPart::Meta(_) => fnv64(payload),
    };
    let mut out = image.get(..frame)?.to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&digest.to_le_bytes());
    out.extend_from_slice(image.get(old.end + 8..)?);
    fn put(out: &mut [u8], at: usize, v: u64) -> Option<()> {
        out.get_mut(at..at + 8)?.copy_from_slice(&v.to_le_bytes());
        Some(())
    }
    let moved = grow(dir)?;
    for i in 0..ncomp {
        let o = crate::wire::le_u64(image.get(dir + 8 * i..dir + 8 * i + 8)?);
        put(&mut out, moved + 8 * i, grow(o as usize)? as u64)?;
    }
    for at in [16, 32] {
        let o = crate::wire::le_u64(image.get(at..at + 8)?);
        put(&mut out, at, grow(o as usize)? as u64)?;
    }
    if let PagedPart::GraphUnit(u) = part {
        // The core payload: u32 n, u32 root, u32 nedges, then the unit
        // lengths.
        put(&mut out, core + 8 + 12 + 8 * u, payload.len() as u64)?;
        let len = crate::wire::le_u64(out.get(core..core + 8)?) as usize;
        let sum = fnv64(out.get(core + 8..core + 8 + len)?);
        put(&mut out, core + 8 + len, sum)?;
    }
    let sum = fnv64(out.get(16..64)?);
    put(&mut out, 64, sum)?;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corruption() {
        for seed in 0..64u64 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            let mut x = (0u8..255).collect::<Vec<_>>();
            let mut y = x.clone();
            assert_eq!(a.kind(), b.kind());
            assert_eq!(a.corrupt(&mut x), b.corrupt(&mut y));
            assert_eq!(x, y, "seed {seed}");
        }
    }

    #[test]
    fn all_kinds_reachable() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..256u64 {
            seen.insert(FaultPlan::from_seed(seed).kind());
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn image_faults_change_bytes_reader_faults_do_not() {
        for seed in 0..256u64 {
            let plan = FaultPlan::from_seed(seed);
            let orig = (0u8..255).cycle().take(4096).collect::<Vec<_>>();
            let mut img = orig.clone();
            let applied = plan.corrupt(&mut img);
            match plan.kind() {
                FaultKind::IoError | FaultKind::ShortRead => {
                    assert!(!applied);
                    assert_eq!(img, orig);
                }
                _ => {
                    assert!(applied);
                    assert_ne!(img, orig, "seed {seed} was a no-op");
                }
            }
        }
    }

    #[test]
    fn io_error_fault_surfaces_mid_stream() {
        let data = vec![7u8; 1024];
        let plan = FaultPlan {
            kind: FaultKind::IoError,
            offset: 100,
            value: 0,
        };
        let mut r = plan.reader(&data[..], data.len() as u64);
        let mut buf = vec![0u8; 64];
        assert!(r.read_exact(&mut buf).is_ok());
        let mut rest = vec![0u8; 512];
        assert!(r.read_exact(&mut rest).is_err());
    }

    #[test]
    fn short_read_fault_is_transparent_to_read_exact() {
        let data: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
        let plan = FaultPlan {
            kind: FaultKind::ShortRead,
            offset: 700,
            value: 0,
        };
        let mut r = plan.reader(&data[..], data.len() as u64);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }
}

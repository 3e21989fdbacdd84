//! The `.mrx` framing shared by both snapshot layouts: the magic, the
//! version tags, checksummed sections, and the typed refusal of retired
//! layouts.
//!
//! ```text
//! file        := "MRXSTAR1" u32(version) u32(ncomponents) layout-specific...
//! section(p)  := u64(len(p)) p u64(fnv64(p))
//! ```
//!
//! Two layouts exist: compressed v5 ([`crate::compressed`]) and
//! demand-paged v9 ([`crate::paged`]). Versions 1–4 and 6–8 were earlier
//! layouts of the same data; a file carrying one is refused with
//! [`StoreError::Retired`], which tells the user to re-freeze it.

use std::io::{self, Read, Write};

use crate::wire::{Fnv64, HashingReader, HashingWriter};

pub(crate) const STAR_MAGIC: &[u8; 8] = b"MRXSTAR1";
/// Version tag of the compressed layout: every sorted id list stored as
/// encoding-tagged posting blocks, loaded eagerly — see
/// [`crate::compressed`].
pub const VERSION_COMPRESSED: u32 = 5;
/// Version tag of the demand-paged layout: eager graph core and
/// per-component metas with the subnode links, graph and metas in the row
/// codec with their mirror halves derived, each distinct extent served
/// once through a page cache — see [`crate::paged`].
pub const VERSION_PAGED: u32 = 9;
/// Retired layout versions, refused with [`StoreError::Retired`]. Version 6
/// was the paged layout with a `node_of` map per component, version 7 the
/// paged layout that stored a sole subnode's extent again, and version 8
/// the paged layout that stored the graph and metas as raw `u32` arrays,
/// both adjacency directions included.
pub(crate) const RETIRED: [u32; 7] = [1, 2, 3, 4, 6, 7, 8];

pub use mrx_error::StoreError;

pub(crate) fn format_err(m: impl Into<String>) -> StoreError {
    StoreError::Format(m.into())
}

/// Accepts `version` if a reader for it is listed in `accepted`; names a
/// retired layout with its own typed error.
pub(crate) fn check_version(version: u32, accepted: &[u32]) -> Result<(), StoreError> {
    if accepted.contains(&version) {
        return Ok(());
    }
    if RETIRED.contains(&version) {
        return Err(StoreError::Retired { version });
    }
    let expect = accepted
        .iter()
        .map(|v| format!("v{v}"))
        .collect::<Vec<_>>()
        .join("/");
    Err(format_err(format!(
        "unsupported snapshot version {version} (expected {expect})"
    )))
}

/// Writes `[len][payload][digest]` and returns bytes written.
pub(crate) fn write_section<W: Write>(out: &mut W, payload: &[u8]) -> io::Result<u64> {
    out.write_all(&(payload.len() as u64).to_le_bytes())?;
    out.write_all(payload)?;
    let mut h = Fnv64::new();
    h.update(payload);
    out.write_all(&h.finish().to_le_bytes())?;
    Ok(8 + payload.len() as u64 + 8)
}

/// Serializes a value into an in-memory payload via a hashing writer.
pub(crate) fn to_payload(
    f: impl FnOnce(&mut HashingWriter<&mut Vec<u8>>) -> io::Result<()>,
) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    let mut w = HashingWriter::new(&mut buf);
    f(&mut w)?;
    Ok(buf)
}

/// Reads `[len][payload][digest]`, verifying the checksum, with an optional
/// byte budget: when the caller knows how many bytes remain in the file, a
/// declared length that overflows them is rejected *before* anything is
/// allocated or streamed. Returns the decoded value and the section's total
/// length in bytes.
pub(crate) fn read_section_bounded<R: Read, T>(
    input: &mut R,
    name: &str,
    remaining: Option<u64>,
    decode: impl FnOnce(&mut HashingReader<&[u8]>) -> Result<T, StoreError>,
) -> Result<(T, u64), StoreError> {
    let mut lbuf = [0u8; 8];
    input.read_exact(&mut lbuf)?;
    let len = u64::from_le_bytes(lbuf) as usize;
    if len > 1 << 40 {
        return Err(format_err(format!("section `{name}` implausibly large")));
    }
    if let Some(rem) = remaining {
        if 8 + len as u64 + 8 > rem {
            return Err(format_err(format!(
                "section `{name}` declares {len} bytes but only {} remain in the file",
                rem.saturating_sub(16)
            )));
        }
    }
    // Stream rather than preallocate: a corrupted length prefix must fail
    // with a clean error (short read -> here, bit flip -> checksum), never
    // abort the process on a giant allocation.
    let mut payload = Vec::with_capacity(len.min(1 << 20));
    input.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() != len {
        return Err(format_err(format!(
            "section `{name}` truncated: expected {len} bytes, got {}",
            payload.len()
        )));
    }
    let mut dbuf = [0u8; 8];
    input.read_exact(&mut dbuf)?;
    let expected = u64::from_le_bytes(dbuf);
    let mut h = Fnv64::new();
    h.update(&payload);
    if h.finish() != expected {
        return Err(StoreError::Checksum {
            section: name.to_string(),
        });
    }
    let mut r = HashingReader::new(&payload[..]);
    let value = decode(&mut r)?;
    if r.bytes_read() != len as u64 {
        return Err(format_err(format!(
            "section `{name}` has {} trailing bytes",
            len as u64 - r.bytes_read()
        )));
    }
    Ok((value, 8 + len as u64 + 8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retired_versions_are_named_and_point_at_freeze() {
        for version in RETIRED {
            let e = check_version(version, &[VERSION_COMPRESSED]).unwrap_err();
            assert!(matches!(e, StoreError::Retired { version: v } if v == version));
            let msg = e.to_string();
            assert!(msg.contains(&format!("v{version}")), "{msg}");
            assert!(msg.contains("mrx freeze"), "{msg}");
        }
        assert!(check_version(VERSION_PAGED, &[VERSION_PAGED]).is_ok());
        match check_version(99, &[VERSION_COMPRESSED, VERSION_PAGED]) {
            Err(StoreError::Format(m)) => assert!(m.contains("v5/v9"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn section_round_trip_and_corruption() {
        let payload = to_payload(|w| w.write_u32(7)).unwrap();
        let mut buf = Vec::new();
        write_section(&mut buf, &payload).unwrap();
        let (v, len) = read_section_bounded(&mut &buf[..], "s", Some(buf.len() as u64), |r| {
            Ok(r.read_u32()?)
        })
        .unwrap();
        assert_eq!((v, len), (7, buf.len() as u64));
        let mut bad = buf.clone();
        bad[9] ^= 0xFF;
        match read_section_bounded(&mut &bad[..], "s", None, |r| Ok(r.read_u32()?)) {
            Err(StoreError::Checksum { section }) => assert_eq!(section, "s"),
            other => panic!("expected checksum failure, got {other:?}"),
        }
        match read_section_bounded(&mut &buf[..], "s", Some(8), |r| Ok(r.read_u32()?)) {
            Err(StoreError::Format(m)) => assert!(m.contains("remain in the file"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn error_display_formats() {
        let e = StoreError::Checksum {
            section: "graph".into(),
        };
        assert!(e.to_string().contains("graph"));
        let e = format_err("boom");
        assert!(e.to_string().contains("boom"));
        let e: StoreError = io::Error::other("disk on fire").into();
        assert!(e.to_string().contains("disk on fire"));
    }
}

//! The row codec: compact bytes for small integer arrays and adjacency
//! rows, the resident half of the paged snapshot (graph units and
//! component metas).
//!
//! Every value is an unsigned LEB128 varint of at most five bytes. The
//! reader always knows how many words or rows to expect, so nothing but
//! the rows themselves carries a length:
//!
//! ```text
//! words := varint(w)*                         one per element
//! rows  := row*                               one per row
//! row   := varint(len) varint(zz(first − r)) next*
//! next  := varint(id − prev − 1)              RowOrder::Ascending
//!        | varint(zz(id − prev))              RowOrder::Stored
//! ```
//!
//! `r` is the row's own index, so a row whose ids sit near its own node
//! (a parent just above a node in document order, an index node's
//! children just after it) costs a byte or two per id, and `zz` is the
//! zig-zag map of a signed delta onto the unsigned integers. Ascending
//! rows store the gaps less one, so any byte string decodes to strictly
//! ascending ids; stored-order rows keep any order (the subnode links are
//! in first-occurrence order, not ascending).
//!
//! [`RowReader`] decodes untrusted bytes: a truncated or overlong varint,
//! a row length that overruns the bytes, or an id out of range is a
//! [`CodecError`], and no buffer is sized from a count the bytes cannot
//! hold (each word, row and id takes at least one byte).

use crate::seek::PostingId;

/// Decode failure on untrusted codec bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "row codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// How the ids after a row's first are coded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOrder {
    /// Strictly ascending rows, stored as gaps less one.
    Ascending,
    /// Rows in any order, each id a zig-zag delta from the one before.
    Stored,
}

/// Longest varint: five bytes carry 35 bits, enough for a zig-zag delta
/// between two `u32` ids.
const MAX_VARINT: usize = 5;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// Checked LEB128 decode of one value at `*pos`.
fn checked_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    for k in 0..MAX_VARINT {
        let Some(&b) = bytes.get(*pos) else {
            return Err(CodecError("truncated varint"));
        };
        *pos += 1;
        v |= u64::from(b & 0x7f) << (7 * k);
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(CodecError("varint longer than five bytes"))
}

/// Appends `words`, one varint each.
pub fn put_words(out: &mut Vec<u8>, words: impl IntoIterator<Item = u32>) {
    for w in words {
        put_varint(out, u64::from(w));
    }
}

/// Appends the rows of the CSR `off`/`tgt` (one row per `off` window).
/// Refuses offsets outside `tgt` and, for [`RowOrder::Ascending`], a row
/// that is not strictly ascending.
pub fn put_rows<T: PostingId>(
    out: &mut Vec<u8>,
    off: &[u32],
    tgt: &[T],
    order: RowOrder,
) -> Result<(), CodecError> {
    for (r, w) in off.windows(2).enumerate() {
        let row = tgt
            .get(w[0] as usize..w[1] as usize)
            .ok_or(CodecError("row offsets outside the targets"))?;
        put_varint(out, row.len() as u64);
        let mut prev = r as i64;
        for (j, t) in row.iter().enumerate() {
            let t = i64::from(t.to_u32());
            let code = match order {
                RowOrder::Ascending if j > 0 => match t - prev - 1 {
                    gap if gap >= 0 => gap as u64,
                    _ => return Err(CodecError("row not strictly ascending")),
                },
                _ => zigzag(t - prev),
            };
            put_varint(out, code);
            prev = t;
        }
    }
    Ok(())
}

/// A decoding cursor over codec bytes. See the module docs for the
/// guarantees on untrusted input.
#[derive(Debug, Clone)]
pub struct RowReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> RowReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        RowReader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Decodes `count` words, each below `bound`, mapped through `f`.
    pub fn words<T>(
        &mut self,
        count: usize,
        bound: u64,
        f: impl Fn(u32) -> T,
    ) -> Result<Vec<T>, CodecError> {
        if count > self.remaining() {
            return Err(CodecError("more words than bytes"));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let w = checked_varint(self.bytes, &mut self.pos)?;
            if w >= bound {
                return Err(CodecError("word out of range"));
            }
            out.push(f(w as u32));
        }
        Ok(out)
    }

    /// Decodes `rows` rows of ids below `bound` into a CSR pair. One
    /// checking pass counts the ids, so both arrays are allocated once at
    /// their exact size.
    pub fn rows<T: PostingId>(
        &mut self,
        rows: usize,
        bound: u32,
        order: RowOrder,
    ) -> Result<(Vec<u32>, Vec<T>), CodecError> {
        if rows > self.remaining() {
            return Err(CodecError("more rows than bytes"));
        }
        let (end, total) = self.walk(rows, bound, order, |_| {}, |_| {})?;
        let mut off = Vec::with_capacity(rows + 1);
        let mut tgt = Vec::with_capacity(total);
        off.push(0);
        self.walk(
            rows,
            bound,
            order,
            |v| tgt.push(T::from_u32(v)),
            |t| off.push(t),
        )?;
        self.pos = end;
        Ok((off, tgt))
    }

    /// Fails unless every byte was consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(CodecError("trailing bytes")),
        }
    }

    /// Walks `rows` rows from the current position without consuming
    /// them, calling `id` for every id and `end` with the running id count
    /// after every row. Returns the end position and the id count.
    fn walk(
        &self,
        rows: usize,
        bound: u32,
        order: RowOrder,
        mut id: impl FnMut(u32),
        mut end: impl FnMut(u32),
    ) -> Result<(usize, usize), CodecError> {
        let (bytes, mut pos, mut total) = (self.bytes, self.pos, 0usize);
        for r in 0..rows {
            let len = checked_varint(bytes, &mut pos)?;
            if len > (bytes.len() - pos) as u64 {
                return Err(CodecError("row length overruns its bytes"));
            }
            let mut prev = r as i64;
            for j in 0..len {
                let code = checked_varint(bytes, &mut pos)?;
                let next = match order {
                    RowOrder::Ascending if j > 0 => prev + 1 + code as i64,
                    _ => prev + unzigzag(code),
                };
                if !(0..i64::from(bound)).contains(&next) {
                    return Err(CodecError("row id out of range"));
                }
                id(next as u32);
                prev = next;
            }
            total += len as usize;
            end(u32::try_from(total).map_err(|_| CodecError("more than u32::MAX ids"))?);
        }
        Ok((pos, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csr(rows: &[&[u32]]) -> (Vec<u32>, Vec<u32>) {
        let mut off = vec![0];
        let mut tgt = Vec::new();
        for r in rows {
            tgt.extend_from_slice(r);
            off.push(tgt.len() as u32);
        }
        (off, tgt)
    }

    #[test]
    fn rows_and_words_round_trip() {
        let (off, tgt) = csr(&[&[3, 7, 4_000_000_000], &[], &[0], &[1, 2, 3, 9]]);
        for order in [RowOrder::Ascending, RowOrder::Stored] {
            let mut out = Vec::new();
            put_words(&mut out, [0, 127, 128, u32::MAX]);
            put_rows(&mut out, &off, &tgt, order).unwrap();
            let mut r = RowReader::new(&out);
            assert_eq!(r.words(4, 1 << 32, |w| w).unwrap(), [0, 127, 128, u32::MAX]);
            assert_eq!(
                r.rows::<u32>(4, u32::MAX, order).unwrap(),
                (off.clone(), tgt.clone())
            );
            r.finish().unwrap();
        }
        // Stored order keeps any order; ascending refuses it.
        let (off, tgt) = csr(&[&[5, 2, 9, 0]]);
        let mut out = Vec::new();
        put_rows(&mut out, &off, &tgt, RowOrder::Stored).unwrap();
        let got = RowReader::new(&out).rows::<u32>(1, 10, RowOrder::Stored);
        assert_eq!(got.unwrap(), (off.clone(), tgt.clone()));
        let refused = put_rows(&mut Vec::new(), &off, &tgt, RowOrder::Ascending);
        assert_eq!(refused, Err(CodecError("row not strictly ascending")));
    }

    #[test]
    fn ids_near_their_row_cost_one_byte() {
        // Row r holds r + 1: length byte plus one zig-zag byte.
        let (off, tgt) = csr(&[&[1], &[2], &[3]]);
        let mut out = Vec::new();
        put_rows(&mut out, &off, &tgt, RowOrder::Ascending).unwrap();
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn hostile_bytes_are_typed_errors() {
        let err = |bytes: &[u8], rows: usize, bound: u32| {
            RowReader::new(bytes)
                .rows::<u32>(rows, bound, RowOrder::Ascending)
                .unwrap_err()
                .0
        };
        assert_eq!(err(&[0x81], 1, 10), "truncated varint");
        assert_eq!(err(&[0x80; 6], 1, 10), "varint longer than five bytes");
        assert_eq!(
            err(&[0xff, 0xff, 0xff, 0xff, 0x0f, 0], 1, 10),
            "row length overruns its bytes"
        );
        assert_eq!(err(&[1, 20], 1, 10), "row id out of range");
        assert_eq!(err(&[1, 1], 1, 10), "row id out of range"); // 0 − 1
        assert_eq!(err(&[0], 2, 10), "more rows than bytes");
        let mut r = RowReader::new(&[3, 9]);
        assert_eq!(r.words(2, 5, |w| w), Err(CodecError("word out of range")));
        let r = RowReader::new(&[3, 9]);
        assert_eq!(r.finish(), Err(CodecError("trailing bytes")));
        let mut r = RowReader::new(&[1, 2]);
        assert_eq!(
            r.words(3, 5, |w| w),
            Err(CodecError("more words than bytes"))
        );
    }
}

//! Little-endian wire primitives and the FNV-1a checksum.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::io::{self, Read, Write};

/// FNV-1a 64-bit, the format's integrity checksum (fast, dependency-free;
/// this is corruption detection, not cryptography).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Little-endian `u64` from an 8-byte chunk — the infallible companion of
/// `chunks_exact(8)`, avoiding a panicking `try_into` on the load path.
pub fn le_u64(c: &[u8]) -> u64 {
    c.iter().rev().fold(0, |acc, &b| (acc << 8) | u64::from(b))
}

/// A counting writer with length-prefixed primitive helpers.
pub struct HashingWriter<W: Write> {
    inner: W,
    written: u64,
}

impl<W: Write> HashingWriter<W> {
    pub fn new(inner: W) -> Self {
        HashingWriter { inner, written: 0 }
    }

    /// Bytes written so far.
    #[cfg(test)]
    pub fn written(&self) -> u64 {
        self.written
    }

    pub fn write_u32(&mut self, v: u32) -> io::Result<()> {
        self.write_all(&v.to_le_bytes())
    }

    pub fn write_u64(&mut self, v: u64) -> io::Result<()> {
        self.write_all(&v.to_le_bytes())
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A counting reader with length-prefixed primitive helpers.
pub struct HashingReader<R: Read> {
    inner: R,
    read: u64,
}

impl<R: Read> HashingReader<R> {
    pub fn new(inner: R) -> Self {
        HashingReader { inner, read: 0 }
    }

    pub fn bytes_read(&self) -> u64 {
        self.read
    }

    pub fn read_u32(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    pub fn read_u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
}

impl<'a> HashingReader<&'a [u8]> {
    /// Bytes left in the underlying payload slice. Lets decoders reject a
    /// declared element count that overflows the section before allocating.
    pub fn remaining(&self) -> u64 {
        self.inner.len() as u64
    }

    /// Consumes and returns the rest of the payload, for decoders that
    /// parse bytes in place.
    pub fn take_rest(&mut self) -> &'a [u8] {
        let rest = std::mem::take(&mut self.inner);
        self.read += rest.len() as u64;
        rest
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        let mut h = Fnv64::new();
        h.update(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.update(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut bytes = Vec::new();
        {
            let mut w = HashingWriter::new(&mut bytes);
            w.write_u32(0xDEAD_BEEF).unwrap();
            w.write_u64(7).unwrap();
            assert_eq!(w.written(), 4 + 8);
        }
        let mut r = HashingReader::new(&bytes[..]);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.remaining(), 8);
        assert_eq!(r.read_u64().unwrap(), 7);
        assert_eq!(r.bytes_read(), bytes.len() as u64);
    }
}

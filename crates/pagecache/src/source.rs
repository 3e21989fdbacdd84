//! Positioned-read byte sources the page cache faults from.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;

/// A random-access byte store the cache reads pages from, shared by every
/// thread reading the cache. Implementations must be cheap to read at
/// arbitrary offsets and need no interior mutability (positioned reads
/// don't move a file cursor).
///
/// The trait is public so the fault-injection harness can wrap a source
/// and inject I/O errors, short reads, or stale bytes underneath a live
/// cache.
pub trait PageSource: Send + Sync {
    /// Total readable length in bytes.
    fn len(&self) -> u64;

    /// Whether the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fills `buf` from `offset`, failing (never short-reading) if the
    /// range is unavailable.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
}

/// A [`PageSource`] over an open file, using positioned I/O
/// (`FileExt::read_exact_at`) so concurrent logical readers never contend
/// on a seek cursor.
pub struct FileSource {
    file: File,
    len: u64,
}

impl FileSource {
    /// Wraps an open file, capturing its current length.
    pub fn new(file: File) -> io::Result<Self> {
        let len = file.metadata()?.len();
        Ok(FileSource { file, len })
    }

    /// Opens `path` read-only.
    pub fn open(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Self::new(File::open(path)?)
    }
}

impl PageSource for FileSource {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.file.read_exact_at(buf, offset)
    }
}

/// An in-memory [`PageSource`] — the test and fault-injection double, and
/// the way a whole `.mrx` image can be served paged without touching disk.
pub struct BytesSource(pub Vec<u8>);

impl PageSource for BytesSource {
    fn len(&self) -> u64 {
        self.0.len() as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let start = usize::try_from(offset)
            .ok()
            .filter(|&s| s <= self.0.len())
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "read past end"))?;
        let end = start
            .checked_add(buf.len())
            .filter(|&e| e <= self.0.len())
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "read past end"))?;
        buf.copy_from_slice(&self.0[start..end]);
        Ok(())
    }
}

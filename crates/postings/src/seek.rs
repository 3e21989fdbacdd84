//! The [`SeekingIterator`] contract, its raw-slice implementation, and the
//! galloping set algebra written once over the trait.
//!
//! A seeking iterator yields a strictly ascending id sequence and supports
//! `next_seek(t)`: advance to the first remaining id `>= t` without visiting
//! every id in between. On slices that is galloping (exponential probe +
//! binary search) so an intersection of a small list against a large one
//! costs `O(small · log large)` instead of `O(small + large)`; on compressed
//! blocks it is a skip-directory jump (see [`crate::PostingCursor`]). The
//! merge loops below only ever talk to the trait, which is what makes raw
//! and compressed serving paths bit-identical.

/// Conversion between a caller's id newtype and the `u32` ids this crate
/// stores. Implemented here for `u32`; index and graph crates implement it
/// for their `NodeId`/`IdxId` newtypes.
pub trait PostingId: Copy {
    /// The raw posting value.
    fn to_u32(self) -> u32;
    /// Rebuilds the newtype from a raw posting value.
    fn from_u32(v: u32) -> Self;
}

impl PostingId for u32 {
    #[inline]
    fn to_u32(self) -> u32 {
        self
    }
    #[inline]
    fn from_u32(v: u32) -> Self {
        v
    }
}

/// An iterator over a strictly ascending sorted id list that can skip
/// forward. The two methods are the entire serving contract of a posting
/// list, whatever its physical representation.
pub trait SeekingIterator {
    /// The next id, or `None` when exhausted.
    fn next(&mut self) -> Option<u32>;

    /// Advances to (and returns) the first remaining id `>= target`,
    /// consuming everything before it. Ids already returned are never
    /// revisited: if the iterator has passed `target`, this behaves like
    /// [`SeekingIterator::next`].
    fn next_seek(&mut self, target: u32) -> Option<u32>;

    /// Exact number of ids left, in `O(1)`. Every physical representation
    /// knows its length up front, and [`intersect_seeking`] uses the two
    /// sides' remainders to choose between galloping and linear stepping.
    fn remaining(&self) -> usize;
}

/// [`SeekingIterator`] over a raw sorted slice — the representation used by
/// live `IndexGraph` extents and frozen CSR arenas.
///
/// `next_seek` first checks the very next element (the dense fast path: on
/// heavily interleaved lists galloping must not be slower than a linear
/// merge), then gallops — exponential probe to bracket the target, binary
/// search inside the bracket.
pub struct SliceSeeker<'a, T: PostingId> {
    s: &'a [T],
    pos: usize,
}

impl<'a, T: PostingId> SliceSeeker<'a, T> {
    /// Wraps a sorted, strictly ascending slice.
    pub fn new(s: &'a [T]) -> Self {
        SliceSeeker { s, pos: 0 }
    }
}

impl<T: PostingId> SeekingIterator for SliceSeeker<'_, T> {
    #[inline]
    fn next(&mut self) -> Option<u32> {
        let v = self.s.get(self.pos)?.to_u32();
        self.pos += 1;
        Some(v)
    }

    fn next_seek(&mut self, target: u32) -> Option<u32> {
        let n = self.s.len();
        if self.pos >= n {
            return None;
        }
        // Dense fast path: the target is often the very next element.
        if self.s[self.pos].to_u32() >= target {
            return self.next();
        }
        // Gallop: after the loop `s[lo] < target` and the first element
        // `>= target` (if any) lies in `s[lo+1 .. hi]`.
        let mut lo = self.pos;
        let mut step = 1usize;
        while lo + step < n && self.s[lo + step].to_u32() < target {
            lo += step;
            step <<= 1;
        }
        let hi = (lo + step + 1).min(n);
        let off = self.s[lo + 1..hi].partition_point(|x| x.to_u32() < target);
        self.pos = lo + 1 + off;
        self.next()
    }

    #[inline]
    fn remaining(&self) -> usize {
        self.s.len() - self.pos
    }
}

/// Sides whose lengths are within this factor of each other intersect by
/// linear stepping; beyond it, galloping wins. With comparable dense lists a
/// gallop degenerates to "probe the immediate neighbour, then fall into a
/// bracketed binary search" on nearly every step — strictly more work per
/// element than a merge — while the gallop's `O(small · log large)` payoff
/// needs the lists to be lopsided.
const GALLOP_RATIO: usize = 8;

/// Intersection of two seeking iterators.
///
/// When one side is much shorter than the other (by `GALLOP_RATIO`), the
/// shorter side drives and the longer side seeks — runs of misses are
/// skipped in logarithmic time. When the sides are comparable, seeking
/// cannot skip anything and the loop degrades to a plain linear merge, so
/// comparable inputs take a stepping loop that never seeks.
pub fn intersect_seeking(a: impl SeekingIterator, b: impl SeekingIterator, emit: impl FnMut(u32)) {
    let (ra, rb) = (a.remaining(), b.remaining());
    if ra.max(rb) < GALLOP_RATIO * ra.min(rb).max(1) {
        intersect_stepping(a, b, emit);
    } else {
        intersect_galloping(a, b, emit);
    }
}

fn intersect_galloping(
    mut a: impl SeekingIterator,
    mut b: impl SeekingIterator,
    mut emit: impl FnMut(u32),
) {
    let (Some(mut x), Some(mut y)) = (a.next(), b.next()) else {
        return;
    };
    loop {
        match x.cmp(&y) {
            core::cmp::Ordering::Equal => {
                emit(x);
                let (Some(nx), Some(ny)) = (a.next(), b.next()) else {
                    return;
                };
                x = nx;
                y = ny;
            }
            core::cmp::Ordering::Less => {
                let Some(nx) = a.next_seek(y) else { return };
                x = nx;
            }
            core::cmp::Ordering::Greater => {
                let Some(ny) = b.next_seek(x) else { return };
                y = ny;
            }
        }
    }
}

/// Linear-stepping intersection: both sides advance by `next()` only.
/// Equivalent output to the galloping loop, better constant factor when
/// neither side can skip far.
fn intersect_stepping(
    mut a: impl SeekingIterator,
    mut b: impl SeekingIterator,
    mut emit: impl FnMut(u32),
) {
    let (Some(mut x), Some(mut y)) = (a.next(), b.next()) else {
        return;
    };
    loop {
        match x.cmp(&y) {
            core::cmp::Ordering::Equal => {
                emit(x);
                let (Some(nx), Some(ny)) = (a.next(), b.next()) else {
                    return;
                };
                x = nx;
                y = ny;
            }
            core::cmp::Ordering::Less => {
                let Some(nx) = a.next() else { return };
                x = nx;
            }
            core::cmp::Ordering::Greater => {
                let Some(ny) = b.next() else { return };
                y = ny;
            }
        }
    }
}

/// Difference `a \ b` over seeking iterators: every id of `a` is emitted
/// unless `b` (which only ever seeks forward) produces it.
pub fn difference_seeking(
    mut a: impl SeekingIterator,
    mut b: impl SeekingIterator,
    mut emit: impl FnMut(u32),
) {
    let mut y = b.next();
    while let Some(x) = a.next() {
        if let Some(cur) = y {
            if cur < x {
                y = b.next_seek(x);
            }
        }
        if y != Some(x) {
            emit(x);
        }
    }
}

/// Union of two seeking iterators — a plain two-way merge (every element of
/// both inputs is emitted, so seeking cannot skip work here).
pub fn union_seeking(
    mut a: impl SeekingIterator,
    mut b: impl SeekingIterator,
    mut emit: impl FnMut(u32),
) {
    let mut x = a.next();
    let mut y = b.next();
    loop {
        match (x, y) {
            (Some(u), Some(v)) => match u.cmp(&v) {
                core::cmp::Ordering::Equal => {
                    emit(u);
                    x = a.next();
                    y = b.next();
                }
                core::cmp::Ordering::Less => {
                    emit(u);
                    x = a.next();
                }
                core::cmp::Ordering::Greater => {
                    emit(v);
                    y = b.next();
                }
            },
            (Some(u), None) => {
                emit(u);
                x = a.next();
            }
            (None, Some(v)) => {
                emit(v);
                y = b.next();
            }
            (None, None) => return,
        }
    }
}

/// Membership probe: does the iterator's remaining sequence contain
/// `target`? A single seek — `O(log n)` on slices, one skip-directory jump
/// plus a block scan on compressed lists.
#[inline]
pub fn contains_seeking(mut it: impl SeekingIterator, target: u32) -> bool {
    it.next_seek(target) == Some(target)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seek_all(s: &[u32], targets: &[u32]) -> Vec<Option<u32>> {
        let mut it = SliceSeeker::new(s);
        targets.iter().map(|&t| it.next_seek(t)).collect()
    }

    #[test]
    fn slice_next_yields_all() {
        let s = [1u32, 4, 9, 100];
        let mut it = SliceSeeker::new(&s);
        let mut out = Vec::new();
        while let Some(v) = it.next() {
            out.push(v);
        }
        assert_eq!(out, s);
    }

    #[test]
    fn slice_seek_finds_first_geq() {
        let s = [2u32, 3, 5, 8, 13, 21, 34, 55, 89];
        assert_eq!(seek_all(&s, &[0]), [Some(2)]);
        assert_eq!(seek_all(&s, &[5]), [Some(5)]);
        assert_eq!(seek_all(&s, &[6]), [Some(8)]);
        assert_eq!(seek_all(&s, &[90]), [None]);
        // monotone seeks
        assert_eq!(
            seek_all(&s, &[4, 4, 22, 55, 100]),
            [Some(5), Some(8), Some(34), Some(55), None]
        );
    }

    #[test]
    fn slice_seek_empty_and_singleton() {
        assert_eq!(seek_all(&[], &[7]), [None]);
        assert_eq!(seek_all(&[7], &[7]), [Some(7)]);
        assert_eq!(seek_all(&[7], &[8]), [None]);
        assert_eq!(seek_all(&[7], &[0]), [Some(7)]);
    }

    #[test]
    fn intersect_matches_naive() {
        let a = [1u32, 3, 5, 7, 9, 11, 500, 501];
        let b = [2u32, 3, 4, 9, 500, 502];
        let mut out = Vec::new();
        intersect_seeking(SliceSeeker::new(&a), SliceSeeker::new(&b), |v| out.push(v));
        assert_eq!(out, [3, 9, 500]);
    }

    #[test]
    fn difference_matches_naive() {
        let a = [1u32, 3, 5, 7, 9];
        let b = [0u32, 3, 4, 9, 10];
        let mut out = Vec::new();
        difference_seeking(SliceSeeker::new(&a), SliceSeeker::new(&b), |v| out.push(v));
        assert_eq!(out, [1, 5, 7]);
    }

    #[test]
    fn union_merges_and_dedups() {
        let a = [1u32, 3, 5];
        let b = [2u32, 3, 6];
        let mut out = Vec::new();
        union_seeking(SliceSeeker::new(&a), SliceSeeker::new(&b), |v| out.push(v));
        assert_eq!(out, [1, 2, 3, 5, 6]);
    }

    #[test]
    fn intersect_cutoff_paths_agree() {
        // Comparable dense lists take the stepping path, lopsided ones
        // gallop; both must match the naive set intersection, and the two
        // loops must agree with each other on any input.
        let dense_a: Vec<u32> = (0..2000).map(|i| i * 2).collect();
        let dense_b: Vec<u32> = (0..1900).map(|i| i * 2 + i % 3).collect();
        let sparse: Vec<u32> = (0..40).map(|i| i * 97).collect();
        for (a, b) in [
            (&dense_a, &dense_b),
            (&sparse, &dense_a),
            (&dense_a, &sparse),
        ] {
            let naive: Vec<u32> = a
                .iter()
                .filter(|x| b.binary_search(x).is_ok())
                .copied()
                .collect();
            let mut via_cutoff = Vec::new();
            intersect_seeking(SliceSeeker::new(a), SliceSeeker::new(b), |v| {
                via_cutoff.push(v)
            });
            assert_eq!(via_cutoff, naive);
            let mut stepped = Vec::new();
            intersect_stepping(SliceSeeker::new(a), SliceSeeker::new(b), |v| {
                stepped.push(v)
            });
            let mut galloped = Vec::new();
            intersect_galloping(SliceSeeker::new(a), SliceSeeker::new(b), |v| {
                galloped.push(v)
            });
            assert_eq!(stepped, naive);
            assert_eq!(galloped, naive);
        }
    }

    #[test]
    fn remaining_tracks_consumption() {
        let s = [2u32, 3, 5, 8, 13];
        let mut it = SliceSeeker::new(&s);
        assert_eq!(it.remaining(), 5);
        it.next();
        assert_eq!(it.remaining(), 4);
        assert_eq!(it.next_seek(6), Some(8));
        assert_eq!(it.remaining(), 1);
        assert_eq!(it.next(), Some(13));
        assert_eq!(it.remaining(), 0);
        assert_eq!(it.next(), None);
        assert_eq!(it.remaining(), 0);
    }

    #[test]
    fn contains_probes() {
        let s = [10u32, 20, 30];
        assert!(contains_seeking(SliceSeeker::new(&s), 20));
        assert!(!contains_seeking(SliceSeeker::new(&s), 25));
        assert!(!contains_seeking(SliceSeeker::<u32>::new(&[]), 0));
    }
}

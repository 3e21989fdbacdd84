//! Set algebra over sorted id slices: intersection and difference, with
//! galloping where one side can skip far ahead in the other.
//!
//! A gallop finds the first remaining id `>= t` without visiting every id
//! in between: an exponential probe brackets `t`, then a binary search
//! inside the bracket lands on it. An intersection of a small list against
//! a large one then costs `O(small · log large)` instead of
//! `O(small + large)`.

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

/// The first position `>= from` of the strictly ascending `s` whose id is
/// `>= target`, or `s.len()`.
///
/// Checks `s[from]` first (the dense fast path: on heavily interleaved
/// lists galloping must not be slower than a linear merge), then gallops.
fn gallop<T: PostingId>(s: &[T], from: usize, target: u32) -> usize {
    let n = s.len();
    if from >= n || s[from].to_u32() >= target {
        return from;
    }
    // After the loop `s[lo] < target` and the first element `>= target`
    // (if any) lies in `s[lo + 1 .. hi]`.
    let mut lo = from;
    let mut step = 1usize;
    while lo + step < n && s[lo + step].to_u32() < target {
        lo += step;
        step <<= 1;
    }
    let hi = (lo + step + 1).min(n);
    lo + 1 + s[lo + 1..hi].partition_point(|x| x.to_u32() < target)
}

/// Sides whose lengths are within this factor of each other intersect by
/// linear stepping; beyond it, galloping wins. With comparable dense lists a
/// gallop degenerates to "probe the immediate neighbour, then fall into a
/// bracketed binary search" on nearly every step — strictly more work per
/// element than a merge — while the gallop's `O(small · log large)` payoff
/// needs the lists to be lopsided.
const GALLOP_RATIO: usize = 8;

/// Intersection of two strictly ascending slices, emitted in order.
///
/// When one side is much shorter than the other (by `GALLOP_RATIO`), the
/// side that is behind gallops to the other's current id, so runs of misses
/// are skipped in logarithmic time. When the sides are comparable,
/// galloping cannot skip anything, so they take a stepping merge.
pub fn intersect<T: PostingId>(a: &[T], b: &[T], emit: impl FnMut(T)) {
    if a.len().max(b.len()) < GALLOP_RATIO * a.len().min(b.len()).max(1) {
        intersect_stepping(a, b, emit);
    } else {
        intersect_galloping(a, b, emit);
    }
}

fn intersect_galloping<T: PostingId>(a: &[T], b: &[T], mut emit: impl FnMut(T)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i].to_u32(), b[j].to_u32());
        match x.cmp(&y) {
            core::cmp::Ordering::Equal => {
                emit(a[i]);
                i += 1;
                j += 1;
            }
            core::cmp::Ordering::Less => i = gallop(a, i + 1, y),
            core::cmp::Ordering::Greater => j = gallop(b, j + 1, x),
        }
    }
}

/// Linear-stepping intersection: both sides advance one id at a time.
/// Same output as the galloping loop, better constant factor when neither
/// side can skip far.
fn intersect_stepping<T: PostingId>(a: &[T], b: &[T], mut emit: impl FnMut(T)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].to_u32().cmp(&b[j].to_u32()) {
            core::cmp::Ordering::Equal => {
                emit(a[i]);
                i += 1;
                j += 1;
            }
            core::cmp::Ordering::Less => i += 1,
            core::cmp::Ordering::Greater => j += 1,
        }
    }
}

/// Difference `a \ b` of two strictly ascending slices: every id of `a` is
/// emitted, in order, unless `b` holds it. `b` is only ever galloped
/// forward.
pub fn difference<T: PostingId>(a: &[T], b: &[T], mut emit: impl FnMut(T)) {
    let mut j = 0;
    for &x in a {
        j = gallop(b, j, x.to_u32());
        if b.get(j).is_none_or(|y| y.to_u32() != x.to_u32()) {
            emit(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Local PRNG so tests stay dependency-free and reproducible.
    struct SplitMix64(u64);
    impl SplitMix64 {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n.max(1)
        }
    }

    /// Each target's landing when galloped to in turn from the front.
    fn seek_all(s: &[u32], targets: &[u32]) -> Vec<Option<u32>> {
        let mut pos = 0;
        targets
            .iter()
            .map(|&t| {
                pos = gallop(s, pos, t);
                let hit = s.get(pos).copied();
                pos = (pos + 1).min(s.len());
                hit
            })
            .collect()
    }

    fn intersection(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        intersect(a, b, |v| out.push(v));
        out
    }

    fn minus(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        difference(a, b, |v| out.push(v));
        out
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
        assert_eq!(intersection(&a, &b), [3, 9, 500]);
        assert_eq!(intersection(&a, &[]), Vec::<u32>::new());
    }

    #[test]
    fn difference_matches_naive() {
        let a = [1u32, 3, 5, 7, 9];
        let b = [0u32, 3, 4, 9, 10];
        assert_eq!(minus(&a, &b), [1, 5, 7]);
        assert_eq!(minus(&a, &[]), a);
        assert_eq!(minus(&[], &b), Vec::<u32>::new());
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
            assert_eq!(intersection(a, b), naive);
            let mut stepped = Vec::new();
            intersect_stepping(a, b, |v| stepped.push(v));
            let mut galloped = Vec::new();
            intersect_galloping(a, b, |v| galloped.push(v));
            assert_eq!(stepped, naive);
            assert_eq!(galloped, naive);
        }
    }

    /// Intersection and difference split `a` by membership in `b`, as a
    /// `binary_search` probe decides it, on skewed pairs (one side far
    /// sparser: galloping) and interleaved ones (comparable: stepping).
    #[test]
    fn set_algebra_splits_by_membership_on_skewed_and_interleaved_inputs() {
        let mut rng = SplitMix64(0x5e7_a16e);
        let list = |rng: &mut SplitMix64, len: u64, gap: u64| -> Vec<u32> {
            let mut cur = rng.below(gap) as u32;
            (0..len)
                .map(|_| {
                    cur += 1 + rng.below(gap) as u32;
                    cur
                })
                .collect()
        };
        for round in 0..60 {
            let (a, b) = match round % 3 {
                0 => (list(&mut rng, 20, 400), list(&mut rng, 3000, 3)),
                1 => (list(&mut rng, 3000, 3), list(&mut rng, 20, 400)),
                _ => (list(&mut rng, 800, 4), list(&mut rng, 700, 5)),
            };
            let (inside, outside): (Vec<u32>, Vec<u32>) =
                a.iter().partition(|x| b.binary_search(x).is_ok());
            assert_eq!(intersection(&a, &b), inside, "round {round}");
            assert_eq!(intersection(&b, &a), inside, "round {round}");
            assert_eq!(minus(&a, &b), outside, "round {round}");
        }
    }
}

//! Seeded request sequences. Every stream is drawn from its own SplitMix64
//! generator keyed by `(run seed, purpose)`, so changing how one stream is
//! drawn never shifts another, and the same seed always gives the same
//! requests.

use std::collections::HashSet;

use mrx_datagen::prng::splitmix64;
use mrx_datagen::Prng;

/// Purposes that key independent streams off the run seed.
pub const STREAM_ORDER: u64 = 1;
pub const STREAM_SAMPLE: u64 = 2;
pub const STREAM_BATCH: u64 = 3;
pub const STREAM_DRAW: u64 = 4;

/// A seed for stream `purpose`, sub-stream `index`, of run `seed`.
pub fn stream_seed(seed: u64, purpose: u64, index: u64) -> u64 {
    let mut s = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let a = splitmix64(&mut s);
    let mut t = a ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix64(&mut t)
}

/// A Fisher–Yates permutation of `0..n` from `rng`.
pub fn permutation(n: usize, rng: &mut Prng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i + 1);
        p.swap(i, j);
    }
    p
}

/// Lap `lap` of a replay: a fresh seeded permutation of `items`. Laps are
/// whole permutations, so any whole number of laps sends every item
/// equally often — the multiset, and so the mean `Cost`, is fixed by the
/// workload and not by where a timed phase happens to stop.
pub fn lap<T: Clone>(items: &[T], seed: u64, lap: u64) -> Vec<T> {
    let mut rng = Prng::seed_from_u64(stream_seed(seed, STREAM_ORDER, lap));
    permutation(items.len(), &mut rng)
        .into_iter()
        .map(|i| items[i].clone())
        .collect()
}

/// `n` uniform draws (with repetition) from `items`.
pub fn draws<T: Clone>(items: &[T], seed: u64, index: u64, n: usize) -> Vec<T> {
    let mut rng = Prng::seed_from_u64(stream_seed(seed, STREAM_DRAW, index));
    (0..n)
        .map(|_| items[rng.gen_range(0..items.len())].clone())
        .collect()
}

/// The distinct items of `items`, in first-seen order.
pub fn distinct<T: Clone + Eq + std::hash::Hash>(items: &[T]) -> Vec<T> {
    let mut seen = HashSet::new();
    items
        .iter()
        .filter(|x| seen.insert((*x).clone()))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let items: Vec<u32> = (0..500).collect();
        assert_eq!(lap(&items, 7, 0), lap(&items, 7, 0));
        assert_eq!(lap(&items, 7, 3), lap(&items, 7, 3));
        assert_eq!(draws(&items, 7, 2, 1000), draws(&items, 7, 2, 1000));
        assert_ne!(lap(&items, 7, 0), lap(&items, 8, 0));
        assert_ne!(lap(&items, 7, 0), lap(&items, 7, 1));
        assert_ne!(draws(&items, 7, 0, 100), draws(&items, 7, 1, 100));
    }

    #[test]
    fn laps_are_permutations() {
        let items: Vec<u32> = (0..257).collect();
        let mut l = lap(&items, 99, 5);
        l.sort_unstable();
        assert_eq!(l, items);
    }

    #[test]
    fn streams_are_independent_of_each_other() {
        let a = stream_seed(1, STREAM_ORDER, 0);
        let b = stream_seed(1, STREAM_SAMPLE, 0);
        let c = stream_seed(1, STREAM_ORDER, 1);
        assert!(a != b && a != c && b != c);
        assert_eq!(a, stream_seed(1, STREAM_ORDER, 0));
    }

    #[test]
    fn distinct_keeps_first_seen_order() {
        assert_eq!(distinct(&[3, 1, 3, 2, 1]), vec![3, 1, 2]);
    }
}

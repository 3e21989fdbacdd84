//! Shared counting-sort CSR builder.
//!
//! Grouping `n` items by a small integer key into offset + id arrays is done
//! in several places (frozen label buckets, the store's load path); this is
//! the one implementation. Two passes: count per key, prefix-sum into
//! offsets, then scatter item indices with a moving cursor per key. The
//! scatter preserves item order within each bucket, so bucket contents come
//! out sorted whenever items are scanned in ascending id order — which is
//! what makes the buckets valid posting lists. [`transpose`] is the same
//! two passes over the edges of a CSR, and [`is_transpose`] checks that
//! two CSRs mirror each other without allocating.

use crate::seek::PostingId;

/// Groups items `0..n` by `key(i)` into a CSR pair `(offsets, ids)`:
/// `ids[offsets[k] .. offsets[k+1]]` lists (in ascending order) the items
/// with key `k`. Every `key(i)` must be `< num_keys`; callers validate
/// untrusted keys first.
pub fn group_by_key(n: usize, num_keys: usize, key: impl Fn(usize) -> u32) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; num_keys + 1];
    for i in 0..n {
        offsets[key(i) as usize + 1] += 1;
    }
    for k in 0..num_keys {
        offsets[k + 1] += offsets[k];
    }
    let mut cursor: Vec<u32> = offsets[..num_keys].to_vec();
    let mut ids = vec![0u32; n];
    for i in 0..n {
        let k = key(i) as usize;
        ids[cursor[k] as usize] = i as u32;
        cursor[k] += 1;
    }
    (offsets, ids)
}

/// The transpose of a CSR with targets below `n_targets`: row `t` of the
/// result lists, ascending, every row of `off`/`tgt` that holds `t` (once
/// per occurrence). One counting pass and one scatter in row order, like
/// [`group_by_key`]. Callers validate untrusted targets first.
pub fn transpose<T: PostingId>(off: &[u32], tgt: &[T], n_targets: usize) -> (Vec<u32>, Vec<T>) {
    let mut offsets = vec![0u32; n_targets + 1];
    for t in tgt {
        offsets[t.to_u32() as usize + 1] += 1;
    }
    for k in 0..n_targets {
        offsets[k + 1] += offsets[k];
    }
    let mut cursor: Vec<u32> = offsets[..n_targets].to_vec();
    let mut rows = vec![T::from_u32(0); tgt.len()];
    for (r, w) in off.windows(2).enumerate() {
        for t in &tgt[w[0] as usize..w[1] as usize] {
            let c = &mut cursor[t.to_u32() as usize];
            rows[*c as usize] = T::from_u32(r as u32);
            *c += 1;
        }
    }
    (offsets, rows)
}

/// Whether `t_off`/`t_tgt` is exactly the [`transpose`] of `off`/`tgt`,
/// checked without building it or allocating: the rows of both are
/// strictly ascending, both hold as many ids, and every `t` in row `r` of
/// the first has `r` in row `t` of the second (a binary search). Two sets
/// of distinct edges of equal size, one inside the other, are equal, and
/// sorted rows are then identical. Total on malformed input: offsets
/// outside their targets or an id without a row make it `false`.
pub fn is_transpose<T: PostingId>(off: &[u32], tgt: &[T], t_off: &[u32], t_tgt: &[T]) -> bool {
    fn rows_ascending<T: PostingId>(off: &[u32], tgt: &[T]) -> bool {
        off.windows(2).all(|w| {
            tgt.get(w[0] as usize..w[1] as usize)
                .is_some_and(|row| row.windows(2).all(|p| p[0].to_u32() < p[1].to_u32()))
        })
    }
    if tgt.len() != t_tgt.len() || !rows_ascending(off, tgt) || !rows_ascending(t_off, t_tgt) {
        return false;
    }
    let rows = t_off.len().saturating_sub(1);
    off.windows(2).enumerate().all(|(r, w)| {
        tgt[w[0] as usize..w[1] as usize].iter().all(|t| {
            let t = t.to_u32() as usize;
            t < rows
                && t_tgt[t_off[t] as usize..t_off[t + 1] as usize]
                    .binary_search_by_key(&(r as u32), |x| x.to_u32())
                    .is_ok()
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_in_order() {
        let keys = [2u32, 0, 2, 1, 0];
        let (off, ids) = group_by_key(keys.len(), 3, |i| keys[i]);
        assert_eq!(off, [0, 2, 3, 5]);
        assert_eq!(ids, [1, 4, 3, 0, 2]);
    }

    #[test]
    fn transpose_inverts_sorted_rows() {
        let (off, tgt) = (vec![0u32, 2, 2, 4], vec![1u32, 2, 0, 1]);
        let (toff, ttgt) = transpose(&off, &tgt, 3);
        assert_eq!(
            (&toff[..], &ttgt[..]),
            (&[0, 1, 3, 4][..], &[2, 0, 2, 0][..])
        );
        assert_eq!(transpose(&toff, &ttgt, 3), (off.clone(), tgt.clone()));
        assert!(is_transpose(&off, &tgt, &toff, &ttgt));
        // One edge dropped, moved or duplicated: no longer the transpose.
        assert!(!is_transpose(&off, &tgt, &[0, 1, 2, 3], &[2, 0, 0]));
        assert!(!is_transpose(&off, &tgt, &[0, 1, 3, 4], &[2, 0, 1, 0]));
        assert!(!is_transpose(&off, &tgt, &[0, 1, 3, 4], &[2, 2, 0, 0]));
        assert!(!is_transpose(&off, &tgt, &[0, 1, 3], &[2, 0, 2]));
    }

    #[test]
    fn empty_input() {
        let (off, ids) = group_by_key(0, 4, |_| 0);
        assert_eq!(off, [0, 0, 0, 0, 0]);
        assert!(ids.is_empty());
    }
}

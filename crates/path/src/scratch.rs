//! Reusable scratch buffers for the query hot path.
//!
//! Evaluation and validation need per-query "have I seen this state?"
//! storage. Allocating (and zeroing) a dense bitmap or memo table per query
//! is O(n) before any real work happens. The types here are owned by a
//! session and cleared in time proportional to what the previous query
//! wrote, not to their size:
//!
//! - [`EpochSet`] stamps each slot with the epoch in which it was last
//!   written, so clearing is one epoch increment. Epoch wraparound (after
//!   `u32::MAX` clears) falls back to one hard reset of the stamp array,
//!   keeping the fast path branch-free and sound.
//! - [`EpochMemo`] packs 2 bits per state into `u64` words and lists every
//!   word that became non-zero, so clearing zeroes just those words. The
//!   validator memo of a 10-step query over a 108,811-node document takes
//!   about 272 KB.

/// A sparse set over `0..n`, cleared in O(1) by bumping an epoch.
///
/// Replaces per-query `vec![false; n]` mark bitmaps.
#[derive(Debug, Default, Clone)]
pub struct EpochSet {
    stamps: Vec<u32>,
    epoch: u32,
}

impl EpochSet {
    /// An empty set; call [`EpochSet::reset`] before use.
    pub const fn new() -> Self {
        EpochSet {
            stamps: Vec::new(),
            epoch: 0,
        }
    }

    /// Empties the set and ensures it covers `0..n`. O(1) except on first
    /// use, growth, or epoch wraparound.
    pub fn reset(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        match self.epoch.checked_add(1) {
            Some(e) => self.epoch = e,
            None => {
                self.stamps.fill(0);
                self.epoch = 1;
            }
        }
    }

    /// Inserts `i`; returns `true` iff it was not already present.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        if self.stamps[i] == self.epoch {
            false
        } else {
            self.stamps[i] = self.epoch;
            true
        }
    }

    /// Whether `i` is present.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.stamps[i] == self.epoch
    }
}

/// A 2-bit memo table over `0..slots`. Unwritten entries read as `0` (the
/// conventional UNKNOWN); values `1..=3` are stored in two bits each.
///
/// Slot `s` lives in bits `2·(s % 32)..` of word `s / 32`. Every word that
/// goes from zero to non-zero is listed in `dirty`, and [`EpochMemo::reset`]
/// zeroes only the listed words, so a reset costs time in proportion to
/// the previous query's writes. The table takes ⌈slots/32⌉·8 bytes; the
/// list takes 8 bytes per word one query wrote.
///
/// Replaces per-query `vec![0u8; n * steps]` validator memos.
#[derive(Debug, Default, Clone)]
pub struct EpochMemo {
    words: Vec<u64>,
    /// Indices of the words written non-zero since the last reset.
    dirty: Vec<usize>,
}

impl EpochMemo {
    /// An empty memo; call [`EpochMemo::reset`] before use.
    pub const fn new() -> Self {
        EpochMemo {
            words: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// Clears all entries to `0` and ensures capacity for `slots` entries.
    /// Zeroes only the words written since the last reset; allocates only
    /// on first use or growth.
    pub fn reset(&mut self, slots: usize) {
        for &w in &self.dirty {
            self.words[w] = 0;
        }
        self.dirty.clear();
        let need = slots.div_ceil(32);
        if self.words.len() < need {
            self.words.reserve_exact(need - self.words.len());
            self.words.resize(need, 0);
        }
    }

    /// The value at `slot` (0 if never written since the last reset).
    #[inline]
    pub fn get(&self, slot: usize) -> u8 {
        (self.words[slot / 32] >> (slot % 32 * 2)) as u8 & 3
    }

    /// Writes `val` (at most 3) at `slot`.
    #[inline]
    pub fn set(&mut self, slot: usize, val: u8) {
        debug_assert!(val <= 3, "a memo entry holds two bits");
        let (w, shift) = (slot / 32, slot % 32 * 2);
        let old = self.words[w];
        let new = old & !(3 << shift) | u64::from(val & 3) << shift;
        if old == 0 && new != 0 {
            self.dirty.push(w);
        }
        self.words[w] = new;
    }
}

/// Reusable buffers for [`crate::eval_data_in`]: the duplicate-suppression
/// set plus the two frontier vectors swapped between steps.
#[derive(Debug, Default, Clone)]
pub struct EvalScratch {
    pub(crate) mark: EpochSet,
    pub(crate) frontier: Vec<mrx_graph::NodeId>,
    pub(crate) next: Vec<mrx_graph::NodeId>,
}

impl EvalScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_set_insert_and_reset() {
        let mut s = EpochSet::new();
        s.reset(4);
        assert!(s.insert(2));
        assert!(!s.insert(2));
        assert!(s.contains(2));
        assert!(!s.contains(3));
        s.reset(4);
        assert!(!s.contains(2), "reset clears membership");
        assert!(s.insert(2));
    }

    #[test]
    fn epoch_set_grows() {
        let mut s = EpochSet::new();
        s.reset(2);
        assert!(s.insert(1));
        s.reset(10);
        assert!(!s.contains(1));
        assert!(s.insert(9));
    }

    #[test]
    fn epoch_memo_defaults_to_zero() {
        let mut m = EpochMemo::new();
        m.reset(3);
        assert_eq!(m.get(0), 0);
        m.set(0, 2);
        m.set(1, 1);
        assert_eq!(m.get(0), 2);
        assert_eq!(m.get(1), 1);
        assert_eq!(m.get(2), 0);
        m.reset(3);
        assert_eq!(m.get(0), 0, "reset clears values");
    }

    /// Seeded differential test against a `HashMap` reference: random
    /// writes of every value over slot counts that are not multiples of
    /// 32, reads that include the last slot, and resets that shrink and
    /// grow the table.
    #[test]
    fn memo_matches_a_hash_map_reference() {
        use std::collections::HashMap;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut m = EpochMemo::new();
        let mut reference: HashMap<usize, u8> = HashMap::new();
        // Shrink then grow, ending far larger than the first table.
        for slots in [97, 33, 1, 500, 31, 64, 2_049, 65, 10_007] {
            m.reset(slots);
            reference.clear();
            for slot in 0..slots {
                assert_eq!(m.get(slot), 0, "slot {slot} of {slots} survived a reset");
            }
            for _ in 0..4 * slots {
                let slot = next(slots);
                if next(2) == 0 {
                    let val = next(4) as u8;
                    m.set(slot, val);
                    reference.insert(slot, val);
                }
                assert_eq!(m.get(slot), reference.get(&slot).copied().unwrap_or(0));
            }
            // YES and NO overwrite each other, and so does zero.
            let last = slots - 1;
            for val in [1, 2, 1, 0, 2] {
                m.set(last, val);
                reference.insert(last, val);
                assert_eq!(m.get(last), val);
            }
            for slot in 0..slots {
                let want = reference.get(&slot).copied().unwrap_or(0);
                assert_eq!(m.get(slot), want, "slot {slot} of {slots}");
            }
        }
    }

    /// A 10-step validation over a 108,811-node document fits in
    /// ⌈1,088,110 / 32⌉ words of 8 bytes, even after a smaller table grew.
    #[test]
    fn memo_takes_two_bits_per_state() {
        let slots = 108_811 * 10;
        let mut m = EpochMemo::new();
        m.reset(108_811 * 2);
        m.set(108_811 * 2 - 1, 2);
        m.reset(slots);
        let bytes = m.words.capacity() * std::mem::size_of::<u64>();
        assert!(bytes <= 272_032, "{bytes} bytes for {slots} slots");
        assert_eq!(m.get(108_811 * 2 - 1), 0);
    }

    #[test]
    fn wraparound_hard_resets() {
        let mut s = EpochSet::new();
        s.reset(2);
        s.insert(0);
        s.epoch = u32::MAX; // simulate u32::MAX clears
        s.stamps[1] = u32::MAX; // a stale stamp that would collide
        s.reset(2);
        assert_eq!(s.epoch, 1);
        assert!(!s.contains(0));
        assert!(!s.contains(1), "stale stamp must not survive wraparound");
    }
}

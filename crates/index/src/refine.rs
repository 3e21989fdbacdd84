//! The partition refinement engine: allocation-free signature interning
//! on one thread.
//!
//! Every index in this crate — 1-index, A(k), D(k), M(k), M*(k) —
//! reduces to rounds of k-bisimulation refinement, so this loop dominates
//! construction cost for the whole family. The naive engine (kept as an
//! oracle in [`crate::naive`]) heap-allocates a `Vec<u32>` signature per node
//! per round and keys a `HashMap<Vec<u32>, u32>` on it; this engine instead:
//!
//! * builds signatures in one flat **scratch arena** that is allocated once
//!   and reused across rounds, keeping only each block's representative
//!   signature — zero per-node allocations;
//! * interns them through an open-addressing table keyed by an in-repo
//!   FxHash-style 64-bit hash (std-only; no external hasher crates), with
//!   full signature comparison on hash hits so collisions cannot merge
//!   distinct blocks;
//! * numbers blocks by first occurrence in node order, so the result is
//!   **bit-identical** to the naive engine's partition, not merely equal up
//!   to renumbering.
//!
//! Rounds run on the calling thread: on a 108,811-node XMark corpus with
//! two cores, nine rounds took 21.6 ms here against 68.4 ms for the
//! sharded two-thread rounds this engine used to have (DESIGN.md,
//! "Construction performance"). Per-round timings and scratch sizes are
//! recorded in [`RefineStats`] (rendered by `mrx_index::stats` and printed
//! by the CLI's `--stats` flag).

use std::time::Instant;

use mrx_graph::DataGraph;

use crate::{label_partition, Partition};

/// Observability for one refinement run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RefineStats {
    /// Rounds executed.
    pub rounds: u32,
    /// Block count after each round.
    pub blocks_per_round: Vec<usize>,
    /// Wall time of each round in milliseconds.
    pub round_millis: Vec<f64>,
    /// Bytes of reusable scratch (arena, offset lanes, intern table) held
    /// at the end of the run.
    pub scratch_bytes: usize,
    /// Times a scratch structure (arena, plan, truth set) had to be built
    /// or grown on the heap. Steady-state batched adaptation keeps this at
    /// zero after warm-up — asserted by the adapt oracle tests.
    pub scratch_allocs: u64,
    /// Times a warmed scratch structure was reused without allocating.
    pub scratch_reuses: u64,
}

impl RefineStats {
    /// Total wall time across rounds, in milliseconds.
    pub fn total_millis(&self) -> f64 {
        self.round_millis.iter().sum()
    }
}

/// FxHash-style multiply-rotate over the signature words, with a
/// SplitMix64-style finisher so bucket probing (high bits) sees
/// well-mixed output.
#[inline]
fn hash_sig(words: &[u32]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = words.len() as u64;
    for &w in words {
        h = (h.rotate_left(5) ^ u64::from(w)).wrapping_mul(K);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

/// The interning table: open addressing, power-of-two capacity, parallel
/// arrays to keep probes cache-friendly. A slot is empty iff
/// `reps[i] == u32::MAX`. Block ids are handed out in insertion order.
#[derive(Debug, Default)]
struct Shard {
    hashes: Vec<u64>,
    /// Representative node whose signature occupies this slot.
    reps: Vec<u32>,
    /// Block id assigned to this signature.
    ids: Vec<u32>,
    len: usize,
}

const EMPTY: u32 = u32::MAX;

impl Shard {
    fn clear_with_capacity(&mut self, want: usize) {
        let cap = want.next_power_of_two().max(16);
        if self.hashes.len() < cap {
            self.hashes.resize(cap, 0);
            self.reps.resize(cap, EMPTY);
            self.ids.resize(cap, 0);
        }
        self.reps.fill(EMPTY);
        self.len = 0;
    }

    fn bytes(&self) -> usize {
        self.hashes.len() * (8 + 4 + 4)
    }

    /// Finds the signature's block id or claims a slot for it with the
    /// next id; the flag says whether the slot was claimed. `sig_of(rep)`
    /// returns the stored signature of a previously inserted
    /// representative.
    #[inline]
    fn intern<'a>(
        &mut self,
        hash: u64,
        node: u32,
        sig: &[u32],
        sig_of: impl Fn(u32) -> &'a [u32],
    ) -> (u32, bool) {
        if (self.len + 1) * 4 >= self.hashes.len() * 3 {
            self.grow();
        }
        let mask = self.hashes.len() - 1;
        let mut i = (hash >> 7) as usize & mask;
        loop {
            let rep = self.reps[i];
            if rep == EMPTY {
                let id = self.len as u32;
                self.hashes[i] = hash;
                self.reps[i] = node;
                self.ids[i] = id;
                self.len += 1;
                return (id, true);
            }
            if self.hashes[i] == hash && sig_of(rep) == sig {
                return (self.ids[i], false);
            }
            i = (i + 1) & mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let new_cap = (self.hashes.len() * 2).max(16);
        let old_hashes = std::mem::replace(&mut self.hashes, vec![0; new_cap]);
        let old_reps = std::mem::replace(&mut self.reps, vec![EMPTY; new_cap]);
        let old_ids = std::mem::replace(&mut self.ids, vec![0; new_cap]);
        let mask = new_cap - 1;
        for (slot, &rep) in old_reps.iter().enumerate() {
            if rep == EMPTY {
                continue;
            }
            let (h, id) = (old_hashes[slot], old_ids[slot]);
            let mut i = (h >> 7) as usize & mask;
            while self.reps[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.hashes[i] = h;
            self.reps[i] = rep;
            self.ids[i] = id;
        }
    }
}

/// A reusable refinement run over one graph: holds the current partition and
/// all scratch, so stepping `k` rounds performs no per-node allocation.
#[derive(Debug)]
pub struct Refiner<'g> {
    g: &'g DataGraph,
    part: Partition,
    // Scratch, allocated lazily on the first round and reused afterwards.
    sig_off: Vec<u32>,
    sig_len: Vec<u32>,
    arena: Vec<u32>,
    new_block: Vec<u32>,
    table: Shard,
    stats: RefineStats,
}

impl<'g> Refiner<'g> {
    /// Starts a run from the `≈0` (label) partition.
    pub fn new(g: &'g DataGraph) -> Self {
        Self::from_partition(g, label_partition(g))
    }

    /// Starts a run from an arbitrary partition of `g`'s nodes.
    pub fn from_partition(g: &'g DataGraph, part: Partition) -> Self {
        Refiner {
            g,
            part,
            sig_off: Vec::new(),
            sig_len: Vec::new(),
            arena: Vec::new(),
            new_block: Vec::new(),
            table: Shard::default(),
            stats: RefineStats::default(),
        }
    }

    /// The current partition.
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &RefineStats {
        &self.stats
    }

    /// Finishes the run, yielding the partition and its statistics.
    pub fn finish(mut self) -> (Partition, RefineStats) {
        self.stats.scratch_bytes = self.scratch_bytes();
        (self.part, self.stats)
    }

    fn scratch_bytes(&self) -> usize {
        (self.sig_off.capacity()
            + self.sig_len.capacity()
            + self.arena.capacity()
            + self.new_block.capacity())
            * 4
            + self.table.bytes()
    }

    /// Runs `rounds` refinement rounds.
    pub fn run(&mut self, rounds: u32) -> &Partition {
        for _ in 0..rounds {
            self.step();
        }
        &self.part
    }

    /// Refines until the block count stabilizes; returns the number of
    /// rounds that strictly refined (the graph's stabilization `k`). The
    /// final no-op round is rolled back so the result is the fixpoint
    /// itself, exactly like the naive engine.
    pub fn run_to_fixpoint(&mut self) -> u32 {
        let mut effective = 0u32;
        loop {
            let before = self.part.num_blocks;
            self.step();
            if self.part.num_blocks == before {
                // Equal block count for a refinement implies equal partition.
                return effective;
            }
            effective += 1;
        }
    }

    /// One refinement round: `≈i` from `≈{i−1}`. Returns the new block
    /// count. Only *distinct* signatures are retained in the arena (a
    /// duplicate is popped right back off), so scratch stays proportional
    /// to the block count.
    pub fn step(&mut self) -> usize {
        let n = self.g.node_count();
        let t0 = Instant::now();
        let (offsets, targets) = self.g.parents_csr();
        self.sig_off.resize(n, 0);
        self.sig_len.resize(n, 0);
        self.new_block.clear();
        self.new_block.reserve(n);
        self.arena.clear();
        self.table.clear_with_capacity(self.part.num_blocks * 2);
        let prev = &self.part.block_of;
        let arena = &mut self.arena;
        for v in 0..n {
            let start = arena.len();
            arena.push(prev[v]);
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            for p in &targets[lo..hi] {
                arena.push(prev[p.index()]);
            }
            normalize_tail(arena, start + 1);
            let sig = &arena[start..];
            let (sig_off, sig_len) = (&self.sig_off, &self.sig_len);
            let (id, fresh) = self.table.intern(hash_sig(sig), v as u32, sig, |rep| {
                let off = sig_off[rep as usize] as usize;
                &arena[off..off + sig_len[rep as usize] as usize]
            });
            if fresh {
                // Fresh signature: keep it in the arena as the block's
                // representative.
                self.sig_off[v] = start as u32;
                self.sig_len[v] = (arena.len() - start) as u32;
            } else {
                arena.truncate(start);
            }
            self.new_block.push(id);
        }
        // Interning assigns ids in first-occurrence order already, so no
        // renumbering pass is needed.
        std::mem::swap(&mut self.part.block_of, &mut self.new_block);
        self.part.num_blocks = self.table.len;
        self.stats.rounds += 1;
        self.stats.blocks_per_round.push(self.part.num_blocks);
        self.stats
            .round_millis
            .push(t0.elapsed().as_secs_f64() * 1e3);
        self.part.num_blocks
    }
}

/// Sorts and dedups `arena[from..]` in place (the parent block list of one
/// signature), truncating the arena to the deduped length.
#[inline]
fn normalize_tail(arena: &mut Vec<u32>, from: usize) {
    let tail = &mut arena[from..];
    if tail.len() <= 1 {
        return;
    }
    tail.sort_unstable();
    // In-place dedup on the tail, then truncate.
    let mut w = 1;
    for r in 1..tail.len() {
        if tail[r] != tail[r - 1] {
            tail[w] = tail[r];
            w += 1;
        }
    }
    let new_len = from + w;
    arena.truncate(new_len);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{naive, refine_once};
    use mrx_graph::GraphBuilder;

    fn diamond() -> DataGraph {
        let mut b = GraphBuilder::new();
        let r = b.add_node("r");
        let a = b.add_child(r, "a");
        let c = b.add_child(r, "b");
        let d = b.add_child(a, "d");
        b.add_ref(c, d);
        b.freeze()
    }

    #[test]
    fn single_round_matches_naive_exactly() {
        let g = diamond();
        let p0 = label_partition(&g);
        assert_eq!(refine_once(&g, &p0), naive::refine_once(&g, &p0));
    }

    #[test]
    fn fixpoint_counts_strict_rounds() {
        let g = diamond();
        let mut r = Refiner::new(&g);
        let rounds = r.run_to_fixpoint();
        let (p, stats) = r.finish();
        let (np, nrounds) = naive::bisim(&g);
        assert_eq!(p, np);
        assert_eq!(rounds, nrounds);
        assert_eq!(stats.rounds, rounds + 1, "one verification round on top");
        assert!(stats.scratch_bytes > 0);
        assert_eq!(stats.blocks_per_round.len() as u32, stats.rounds);
    }

    #[test]
    fn stats_record_each_round() {
        let g = diamond();
        let mut r = Refiner::new(&g);
        r.run(4);
        assert_eq!(r.stats().rounds, 4);
        assert_eq!(r.stats().round_millis.len(), 4);
    }

    #[test]
    fn hash_distinguishes_order_and_length() {
        assert_ne!(hash_sig(&[1, 2]), hash_sig(&[2, 1]));
        assert_ne!(hash_sig(&[1]), hash_sig(&[1, 0]));
        assert_ne!(hash_sig(&[]), hash_sig(&[0]));
    }

    #[test]
    fn normalize_tail_sorts_and_dedups() {
        let mut a = vec![9, 5, 3, 5, 1, 3];
        normalize_tail(&mut a, 1);
        assert_eq!(a, vec![9, 1, 3, 5]);
        let mut b = vec![7];
        normalize_tail(&mut b, 1);
        assert_eq!(b, vec![7]);
    }
}

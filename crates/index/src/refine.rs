//! The partition refinement engine: allocation-free signature interning,
//! with parallel rounds above a size threshold.
//!
//! Every index in this crate — 1-index, A(k), D(k), M(k), M*(k) —
//! reduces to rounds of k-bisimulation refinement, so this loop dominates
//! construction cost for the whole family. The naive engine (kept as an
//! oracle in [`crate::naive`]) heap-allocates a `Vec<u32>` signature per node
//! per round and keys a `HashMap<Vec<u32>, u32>` on it; this engine instead:
//!
//! * builds signatures in flat **scratch arenas** that are allocated once
//!   and reused across rounds — zero per-node allocations;
//! * interns them through an open-addressing table keyed by an in-repo
//!   FxHash-style 64-bit hash (std-only; no external hasher crates), with
//!   full signature comparison on hash hits so collisions cannot merge
//!   distinct blocks;
//! * above [`SEQ_THRESHOLD`] nodes, runs each round in parallel with
//!   `std::thread::scope`: nodes are chunked into per-thread shards that
//!   compute signature hashes locally, then merge block ids through a
//!   sharded mutex-striped table;
//! * renumbers blocks by first occurrence in node order after every round,
//!   so the result is **bit-identical** to the naive engine's partition, not
//!   merely equal up to renumbering.
//!
//! Thread count comes from `std::thread::available_parallelism` unless the
//! caller passes one ([`Refiner::with_threads`]). Per-round timings and
//! scratch sizes are recorded in [`RefineStats`] (rendered by
//! `mrx_index::stats` and printed by the CLI's `--stats` flag).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mrx_graph::{DataGraph, NodeId};

use crate::{label_partition, Partition};

/// Below this node count a round runs sequentially: chunking, hashing into
/// shards and re-merging cost more than they save on small graphs.
pub const SEQ_THRESHOLD: usize = 4096;

/// Observability for one refinement run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RefineStats {
    /// Rounds executed.
    pub rounds: u32,
    /// Worker threads the run was configured for (rounds under
    /// [`SEQ_THRESHOLD`] nodes fall back to one thread regardless).
    pub threads: usize,
    /// Block count after each round.
    pub blocks_per_round: Vec<usize>,
    /// Wall time of each round in milliseconds.
    pub round_millis: Vec<f64>,
    /// Bytes of reusable scratch (arenas, hash/offset lanes, intern tables)
    /// held at the end of the run.
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

/// The worker thread count: `std::thread::available_parallelism`, else 1.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// FxHash-style multiply-rotate over the signature words, with a
/// SplitMix64-style finisher so shard selection (low bits) and bucket
/// probing (high bits) both see well-mixed output.
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

/// One stripe of the interning table: open addressing, power-of-two
/// capacity, parallel arrays to keep probes cache-friendly. A slot is empty
/// iff `reps[i] == u32::MAX`.
#[derive(Debug, Default)]
struct Shard {
    hashes: Vec<u64>,
    /// Representative node whose signature occupies this slot.
    reps: Vec<u32>,
    /// Provisional block id assigned to this signature.
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

    /// Finds the signature's slot or claims one. `sig_of(rep)` must return
    /// the stored signature of a previously inserted representative;
    /// `fresh_id` runs only when a new slot is claimed.
    #[inline]
    fn intern(
        &mut self,
        hash: u64,
        node: u32,
        sig: &[u32],
        sig_of: impl Fn(u32) -> *const [u32],
        fresh_id: impl FnOnce() -> u32,
    ) -> u32 {
        if (self.len + 1) * 4 >= self.hashes.len() * 3 {
            self.grow();
        }
        let mask = self.hashes.len() - 1;
        let mut i = (hash >> 7) as usize & mask;
        loop {
            let rep = self.reps[i];
            if rep == EMPTY {
                let id = fresh_id();
                self.hashes[i] = hash;
                self.reps[i] = node;
                self.ids[i] = id;
                self.len += 1;
                return id;
            }
            // SAFETY of the deref: `sig_of` yields a pointer into an arena
            // that is only appended to (sequential mode) or frozen for the
            // whole interning phase (parallel mode); see call sites.
            if self.hashes[i] == hash && unsafe { &*sig_of(rep) } == sig {
                return self.ids[i];
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
    threads: usize,
    part: Partition,
    // Scratch, allocated lazily on the first round and reused afterwards.
    hashes: Vec<u64>,
    sig_off: Vec<u32>,
    sig_len: Vec<u32>,
    arenas: Vec<Vec<u32>>,
    new_block: Vec<u32>,
    remap: Vec<u32>,
    shards: Vec<Mutex<Shard>>,
    stats: RefineStats,
}

impl<'g> Refiner<'g> {
    /// Starts a run from the `≈0` (label) partition with
    /// [`default_threads`] workers.
    pub fn new(g: &'g DataGraph) -> Self {
        Self::with_threads(g, default_threads())
    }

    /// Starts a run from the label partition with an explicit thread count.
    pub fn with_threads(g: &'g DataGraph, threads: usize) -> Self {
        Self::from_partition(g, label_partition(g), threads)
    }

    /// Starts a run from an arbitrary partition of `g`'s nodes.
    pub fn from_partition(g: &'g DataGraph, part: Partition, threads: usize) -> Self {
        let threads = threads.max(1);
        Refiner {
            g,
            threads,
            part,
            hashes: Vec::new(),
            sig_off: Vec::new(),
            sig_len: Vec::new(),
            arenas: Vec::new(),
            new_block: Vec::new(),
            remap: Vec::new(),
            shards: Vec::new(),
            stats: RefineStats {
                threads,
                ..RefineStats::default()
            },
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
        self.hashes.capacity() * 8
            + (self.sig_off.capacity() + self.sig_len.capacity()) * 4
            + self.arenas.iter().map(|a| a.capacity() * 4).sum::<usize>()
            + (self.new_block.capacity() + self.remap.capacity()) * 4
            + self
                .shards
                .iter()
                .map(|s| s.lock().expect("shard poisoned").bytes())
                .sum::<usize>()
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

    /// One refinement round: `≈i` from `≈{i−1}`. Returns the new block count.
    pub fn step(&mut self) -> usize {
        let n = self.g.node_count();
        let start = Instant::now();
        if n == 0 {
            self.stats.rounds += 1;
            self.stats.blocks_per_round.push(0);
            self.stats.round_millis.push(0.0);
            return 0;
        }
        let (offsets, targets) = self.g.parents_csr();
        let threads = if n < SEQ_THRESHOLD { 1 } else { self.threads };
        if threads == 1 {
            self.step_seq(offsets, targets);
        } else {
            self.step_par(offsets, targets, threads);
        }
        self.stats.rounds += 1;
        self.stats.blocks_per_round.push(self.part.num_blocks);
        self.stats
            .round_millis
            .push(start.elapsed().as_secs_f64() * 1e3);
        self.part.num_blocks
    }

    /// Sequential round: one arena, one unlocked shard. Only *distinct*
    /// signatures are retained in the arena (a duplicate is popped right
    /// back off), so scratch stays proportional to the block count.
    fn step_seq(&mut self, offsets: &[u32], targets: &[NodeId]) {
        let n = self.g.node_count();
        if self.arenas.is_empty() {
            self.arenas.push(Vec::new());
        }
        if self.shards.is_empty() {
            self.shards.push(Mutex::new(Shard::default()));
        }
        self.sig_off.resize(n, 0);
        self.sig_len.resize(n, 0);
        self.new_block.clear();
        self.new_block.reserve(n);
        let prev = &self.part.block_of;
        let arena = &mut self.arenas[0];
        arena.clear();
        let table = self.shards[0].get_mut().expect("shard poisoned");
        table.clear_with_capacity(self.part.num_blocks * 2);
        let sig_off = &mut self.sig_off;
        let sig_len = &mut self.sig_len;
        let mut next_id = 0u32;
        for v in 0..n {
            let start = arena.len();
            arena.push(prev[v]);
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            for p in &targets[lo..hi] {
                arena.push(prev[p.index()]);
            }
            normalize_tail(arena, start + 1);
            let h = hash_sig(&arena[start..]);
            let before = next_id;
            let id = {
                // Shared reborrows for the probe; the mutable `arena` borrow
                // resumes after interning (for the duplicate pop below).
                let arena_ro: &Vec<u32> = arena;
                let off_ro: &Vec<u32> = sig_off;
                let len_ro: &Vec<u32> = sig_len;
                table.intern(
                    h,
                    v as u32,
                    &arena_ro[start..],
                    |rep| {
                        let off = off_ro[rep as usize] as usize;
                        let len = len_ro[rep as usize] as usize;
                        &arena_ro[off..off + len] as *const [u32]
                    },
                    || {
                        let id = next_id;
                        next_id += 1;
                        id
                    },
                )
            };
            if next_id > before {
                // Fresh signature: keep it in the arena as the block's
                // representative.
                sig_off[v] = start as u32;
                sig_len[v] = (arena.len() - start) as u32;
            } else {
                arena.truncate(start);
            }
            self.new_block.push(id);
        }
        // Sequential interning assigns ids in first-occurrence order
        // already, so no renumbering pass is needed.
        std::mem::swap(&mut self.part.block_of, &mut self.new_block);
        self.part.num_blocks = next_id as usize;
    }

    /// Parallel round: per-chunk signature build + hash, then sharded
    /// interning, then a sequential first-occurrence renumber that makes
    /// the block ids identical to the sequential engine's.
    fn step_par(&mut self, offsets: &[u32], targets: &[NodeId], threads: usize) {
        let n = self.g.node_count();
        let prev = &self.part.block_of;
        let chunk = n.div_ceil(threads);
        if self.arenas.len() < threads {
            self.arenas.resize_with(threads, Vec::new);
        }
        self.hashes.resize(n, 0);
        self.sig_off.resize(n, 0);
        self.sig_len.resize(n, 0);
        self.new_block.resize(n, 0);

        // Phase 1: per-chunk signature construction (disjoint writes).
        {
            let sig_off = &mut self.sig_off;
            let sig_len = &mut self.sig_len;
            let hashes = &mut self.hashes;
            std::thread::scope(|s| {
                let mut off_rest = sig_off.as_mut_slice();
                let mut len_rest = sig_len.as_mut_slice();
                let mut hash_rest = hashes.as_mut_slice();
                for (t, arena) in self.arenas.iter_mut().take(threads).enumerate() {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(n);
                    let take = hi - lo;
                    let (off_c, off_r) = off_rest.split_at_mut(take);
                    let (len_c, len_r) = len_rest.split_at_mut(take);
                    let (hash_c, hash_r) = hash_rest.split_at_mut(take);
                    off_rest = off_r;
                    len_rest = len_r;
                    hash_rest = hash_r;
                    s.spawn(move || {
                        arena.clear();
                        for (i, v) in (lo..hi).enumerate() {
                            let start = arena.len();
                            arena.push(prev[v]);
                            let (a, b) = (offsets[v] as usize, offsets[v + 1] as usize);
                            for p in &targets[a..b] {
                                arena.push(prev[p.index()]);
                            }
                            normalize_tail(arena, start + 1);
                            off_c[i] = start as u32;
                            len_c[i] = (arena.len() - start) as u32;
                            hash_c[i] = hash_sig(&arena[start..]);
                        }
                    });
                }
            });
        }

        // Phase 2: sharded interning. Arenas are frozen (shared borrows);
        // provisional ids come from one atomic counter.
        let num_shards = (threads * 8).next_power_of_two();
        if self.shards.len() < num_shards {
            self.shards
                .resize_with(num_shards, || Mutex::new(Shard::default()));
        }
        let per_shard = (self.part.num_blocks * 2 / num_shards).max(16);
        for shard in &self.shards {
            shard
                .lock()
                .expect("shard poisoned")
                .clear_with_capacity(per_shard);
        }
        let counter = AtomicU32::new(0);
        {
            let arenas = &self.arenas;
            let hashes = &self.hashes;
            let sig_off = &self.sig_off;
            let sig_len = &self.sig_len;
            let shards = &self.shards[..num_shards];
            let counter = &counter;
            let shard_mask = num_shards - 1;
            let sig_of = move |rep: u32| -> *const [u32] {
                let rep = rep as usize;
                let off = sig_off[rep] as usize;
                let len = sig_len[rep] as usize;
                &arenas[rep / chunk][off..off + len] as *const [u32]
            };
            std::thread::scope(|s| {
                let mut out_rest = self.new_block.as_mut_slice();
                for t in 0..threads {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(n);
                    let (out_c, out_r) = out_rest.split_at_mut(hi - lo);
                    out_rest = out_r;
                    s.spawn(move || {
                        for (i, v) in (lo..hi).enumerate() {
                            let h = hashes[v];
                            let sig = unsafe { &*sig_of(v as u32) };
                            let mut shard = shards[h as usize & shard_mask]
                                .lock()
                                .expect("shard poisoned");
                            out_c[i] = shard.intern(h, v as u32, sig, sig_of, || {
                                counter.fetch_add(1, Ordering::Relaxed)
                            });
                        }
                    });
                }
            });
        }

        // Phase 3: renumber provisional ids by first occurrence in node
        // order — identical ids to the sequential/naive engines.
        let provisional = counter.load(Ordering::Relaxed) as usize;
        self.remap.clear();
        self.remap.resize(provisional, EMPTY);
        let mut next = 0u32;
        for b in self.new_block.iter_mut() {
            let slot = &mut self.remap[*b as usize];
            if *slot == EMPTY {
                *slot = next;
                next += 1;
            }
            *b = *slot;
        }
        std::mem::swap(&mut self.part.block_of, &mut self.new_block);
        self.part.num_blocks = next as usize;
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

/// One refinement round of `prev` (over parents), engine-backed. Identical
/// output to [`crate::naive::refine_once`], including block numbering.
pub fn refine_once_with(g: &DataGraph, prev: &Partition, threads: usize) -> Partition {
    let mut r = Refiner::from_partition(g, prev.clone(), threads);
    r.step();
    r.finish().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
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
        for threads in [1, 2, 4] {
            let engine = refine_once_with(&g, &p0, threads);
            assert_eq!(engine, naive::refine_once(&g, &p0), "threads={threads}");
        }
    }

    #[test]
    fn fixpoint_counts_strict_rounds() {
        let g = diamond();
        let mut r = Refiner::with_threads(&g, 1);
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
        let mut r = Refiner::with_threads(&g, 3);
        r.run(4);
        assert_eq!(r.stats().rounds, 4);
        assert_eq!(r.stats().threads, 3);
        assert_eq!(r.stats().round_millis.len(), 4);
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
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

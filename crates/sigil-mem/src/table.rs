//! The generic two-level shadow table.

use std::fmt;

use sigil_trace::Addr;

use crate::residency::{split, Payload, Residency, CHUNK_BITS, CHUNK_BYTES};
use crate::stats::MemoryStats;

/// Number of shadow slots per second-level chunk of a [`ShadowTable`]
/// (4096): one per guest byte of a 4 KiB chunk.
pub const CHUNK_SLOTS: usize = CHUNK_BYTES;

/// The first-level key of the chunk covering `addr` — the high address
/// bits above the [`CHUNK_SLOTS`] split.
///
/// Exposed so callers that partition the address space at chunk
/// granularity (the sharded profiler routes each chunk run to
/// `chunk_key(addr) % shards`) agree with the table's own split without
/// duplicating the bit layout.
#[inline]
pub fn chunk_key(addr: Addr) -> u64 {
    addr >> CHUNK_BITS
}

/// Splits the head of the range `addr..addr+len` at the table's chunk
/// boundary: returns the covering chunk's key and the number of slots
/// the range keeps inside that chunk (`min(len, slots left)`).
///
/// This is [`ShadowTable::run_mut`]'s address arithmetic without the
/// table: a dispatcher that has elided its residency oracle (unbounded
/// shadow memory never evicts) still splits accesses into the identical
/// per-chunk runs by iterating `chunk_run` and advancing `addr` by
/// `consumed`.
#[inline]
pub fn chunk_run(addr: Addr, len: usize) -> (u64, usize) {
    let (key, off) = split(addr);
    (key, len.min(CHUNK_SLOTS - off))
}

/// Which chunk to evict when the memory limit is exceeded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EvictionPolicy {
    /// Evict the least recently *allocated* chunk — the paper's "simple
    /// FIFO mechanism".
    #[default]
    Fifo,
    /// Evict the least recently *touched* chunk. Slightly closer to the
    /// paper's stated intent ("least recently touched by the program");
    /// maintained as an intrusive doubly-linked recency list, so victim
    /// selection is O(1) rather than a scan. Compared in the ablation
    /// bench.
    Lru,
}

/// One dense slot per guest byte of the chunk.
impl<T: Default + Clone> Payload for Box<[T]> {
    fn fresh() -> Self {
        vec![T::default(); CHUNK_SLOTS].into_boxed_slice()
    }

    fn reset(&mut self) {
        self.fill(T::default());
    }
}

/// A sparse, lazily-populated map from guest byte addresses to shadow
/// slots of type `T`, implemented as a two-level table (paper §II-B).
///
/// The first level is keyed by the high address bits, the second level is
/// a dense chunk of [`CHUNK_SLOTS`] shadow slots covering a contiguous
/// address range. Chunks are created on first touch with `T::default()`
/// ("initialized to invalid").
///
/// Chunks live in a slab (`Vec`) indexed through a `HashMap`, and the
/// table keeps a one-entry MRU cache of the last chunk touched:
/// consecutive accesses that land in the same 4 KiB chunk — the common
/// case for real access streams — skip the hash probe entirely. Hit and
/// probe counts are reported through [`ShadowTable::stats`].
///
/// With a chunk limit configured (see [`ShadowTable::with_chunk_limit`])
/// the table evicts whole chunks according to the [`EvictionPolicy`];
/// evicted shadow state silently reverts to invalid, exactly as in the
/// paper's memory-limit command-line option. Evicted slab entries are
/// recycled through a free list so a limited table stops allocating once
/// it reaches its limit.
///
/// The residency machinery is shared with [`crate::GranuleTable`], which
/// the profiler classifies on; this per-byte table serves the line
/// shadow, the sharded residency oracle and per-byte reference walks.
///
/// # Example
///
/// ```
/// use sigil_mem::ShadowTable;
///
/// let mut table: ShadowTable<u32> = ShadowTable::new();
/// assert_eq!(table.get(0xdead_beef), None);
/// *table.slot_mut(0xdead_beef) = 7;
/// assert_eq!(table.get(0xdead_beef), Some(&7));
/// ```
pub struct ShadowTable<T> {
    core: Residency<Box<[T]>>,
}

impl<T: Default + Clone> ShadowTable<T> {
    /// Creates an unbounded shadow table.
    pub fn new() -> Self {
        ShadowTable {
            core: Residency::new(),
        }
    }

    /// Creates a table that keeps at most `max_chunks` second-level chunks
    /// resident, evicting per `policy` beyond that.
    ///
    /// # Panics
    ///
    /// Panics if `max_chunks` is zero.
    pub fn with_chunk_limit(max_chunks: usize, policy: EvictionPolicy) -> Self {
        ShadowTable {
            core: Residency::with_chunk_limit(max_chunks, policy),
        }
    }

    /// Returns the shadow slot for `addr` if its chunk is resident.
    pub fn get(&self, addr: Addr) -> Option<&T> {
        let (key, off) = split(addr);
        self.core
            .lookup(key)
            .map(|idx| &self.core.payload(idx)[off])
    }

    /// Returns a mutable reference to the shadow slot for `addr`,
    /// allocating (and possibly evicting) as needed.
    #[inline]
    pub fn slot_mut(&mut self, addr: Addr) -> &mut T {
        let (idx, off) = self.core.resolve_byte(addr);
        &mut self.core.payload_mut(idx).0[off]
    }

    /// Returns the maximal run of consecutive shadow slots starting at
    /// `addr` within one chunk, capped at `len` slots, resolving the
    /// chunk **once**: one address split, one MRU-cache check or hash
    /// probe, one recency `touch`, and one counter bump for the whole
    /// run instead of one per slot.
    ///
    /// `consumed` (also the slice length) is `min(len, slots left in the
    /// chunk)`; a caller covering a multi-chunk range advances `addr` by
    /// `consumed` and calls again — or uses [`ShadowTable::runs_mut`],
    /// which does exactly that. Allocation and eviction behave as in
    /// [`ShadowTable::slot_mut`], and the access counters are updated so
    /// that a run of `n` slots is indistinguishable from `n` `slot_mut`
    /// calls (the first slot pays the probe on an MRU miss, the rest
    /// count as MRU hits). The run itself is additionally recorded in
    /// the `runs`/`run_bytes` batching counters.
    ///
    /// A `len` of zero returns an empty slice without touching the table.
    pub fn run_mut(&mut self, addr: Addr, len: usize) -> (&mut [T], usize) {
        match self.core.resolve_run(addr, len) {
            Some(run) => (
                &mut self.core.payload_mut(run.idx).0[run.off..run.off + run.len],
                run.len,
            ),
            None => (&mut [], 0),
        }
    }

    /// Iterates over the maximal per-chunk runs covering `len` slots
    /// starting at `addr` (a lending iterator: drive it with
    /// `while let Some((run_addr, slots)) = runs.next_run()`).
    ///
    /// Each yielded slice is obtained through [`ShadowTable::run_mut`],
    /// so chunk resolution, recency, and eviction happen once per run;
    /// an access that straddles a chunk boundary yields one run per
    /// chunk, and eviction triggered by a later run can reclaim the
    /// chunk of an earlier one, exactly as in a per-slot loop.
    pub fn runs_mut(&mut self, addr: Addr, len: usize) -> RunsMut<'_, T> {
        RunsMut {
            table: self,
            addr,
            remaining: len,
        }
    }

    /// Starts recording evicted chunk keys (in victim order) into the
    /// eviction log, readable via [`ShadowTable::evictions`].
    ///
    /// The sharded profiler runs a residency oracle on its dispatch
    /// thread and replays the logged victims into the per-shard tables
    /// through [`crate::GranuleTable::evict_key`], so every shard sees
    /// exactly the serial eviction sequence for its chunks.
    pub fn enable_eviction_log(&mut self) {
        self.core.enable_eviction_log();
    }

    /// The chunk keys evicted since the last [`ShadowTable::clear_evictions`],
    /// in eviction order. Empty unless [`ShadowTable::enable_eviction_log`]
    /// was called.
    pub fn evictions(&self) -> &[u64] {
        self.core.evictions()
    }

    /// Forgets the logged evictions (the log stays enabled).
    pub fn clear_evictions(&mut self) {
        self.core.clear_evictions();
    }

    /// Evicts the chunk with first-level key `key` (see [`chunk_key`]) if
    /// it is resident, exactly as the limiter would: the shadow state
    /// reverts to invalid, the slab entry is recycled, and the eviction
    /// counter advances. Returns whether a chunk was evicted.
    ///
    /// This is the mirroring half of the eviction log: an unbounded
    /// per-shard table driven only by `evict_key` reproduces the
    /// residency (and therefore per-byte state) of a limited table.
    pub fn evict_key(&mut self, key: u64) -> bool {
        self.core.evict_key(key)
    }

    /// Number of resident second-level chunks.
    pub fn chunk_count(&self) -> usize {
        self.core.chunk_count()
    }

    /// Total chunks evicted by the limiter so far.
    pub fn evicted_chunks(&self) -> u64 {
        self.core.evicted_chunks
    }

    /// Total `slot_mut` accesses so far.
    pub fn accesses(&self) -> u64 {
        self.core.accesses
    }

    /// Accesses served by the one-entry MRU chunk cache.
    pub fn mru_hits(&self) -> u64 {
        self.core.mru_hits
    }

    /// Ranged accesses served so far (`run_mut` calls with `len > 0`).
    pub fn runs(&self) -> u64 {
        self.core.runs
    }

    /// Total slots covered by ranged accesses. `run_bytes / runs` is the
    /// observed batching factor of the range API.
    pub fn run_bytes(&self) -> u64 {
        self.core.run_bytes
    }

    /// Approximate resident shadow-memory footprint, eviction counters,
    /// and hot-path hit/probe/run counters.
    ///
    /// `resident_*` count **live** chunks only: entries reachable through
    /// the first-level index. Slab entries parked on the free list after
    /// an eviction hold allocated-but-dead memory and are deliberately
    /// excluded, so residency drops when the limiter evicts and goes to
    /// zero after [`ShadowTable::clear`].
    pub fn stats(&self) -> MemoryStats {
        self.core.stats(
            CHUNK_SLOTS as u64,
            (CHUNK_SLOTS * std::mem::size_of::<T>()) as u64,
        )
    }

    /// Iterates over every resident `(addr, slot)` pair, in unspecified
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &T)> {
        self.core.iter().flat_map(|(base, slots)| {
            slots
                .iter()
                .enumerate()
                .map(move |(off, slot)| (base | off as u64, slot))
        })
    }

    /// Removes all shadow state and resets every counter and cache, as if
    /// the table had just been constructed with the same limit and policy
    /// (the eviction log is emptied but stays enabled if it was).
    pub fn clear(&mut self) {
        self.core.clear();
    }
}

/// Lending iterator over the maximal per-chunk runs of a slot range; see
/// [`ShadowTable::runs_mut`].
///
/// Not a `std::iter::Iterator` — each yielded slice borrows the table, so
/// it must be dropped before the next call:
///
/// ```
/// use sigil_mem::ShadowTable;
///
/// let mut table: ShadowTable<u8> = ShadowTable::new();
/// let mut runs = table.runs_mut(4090, 12); // straddles the 4096 split
/// let mut seen = Vec::new();
/// while let Some((addr, slots)) = runs.next_run() {
///     seen.push((addr, slots.len()));
///     slots.fill(7);
/// }
/// assert_eq!(seen, vec![(4090, 6), (4096, 6)]);
/// assert_eq!(table.get(4095), Some(&7));
/// ```
pub struct RunsMut<'a, T> {
    table: &'a mut ShadowTable<T>,
    addr: Addr,
    remaining: usize,
}

impl<T: Default + Clone> RunsMut<'_, T> {
    /// Yields the next `(start_address, slots)` run, or `None` when the
    /// range is exhausted.
    pub fn next_run(&mut self) -> Option<(Addr, &mut [T])> {
        if self.remaining == 0 {
            return None;
        }
        let start = self.addr;
        let (slots, consumed) = self.table.run_mut(start, self.remaining);
        self.addr = start.wrapping_add(consumed as u64);
        self.remaining -= consumed;
        Some((start, slots))
    }
}

impl<T: Default + Clone> Default for ShadowTable<T> {
    fn default() -> Self {
        ShadowTable::new()
    }
}

impl<T> fmt::Debug for ShadowTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShadowTable")
            .field("chunks", &self.core.chunk_count())
            .field("chunk_limit", &self.core.chunk_limit())
            .field("policy", &self.core.policy)
            .field("accesses", &self.core.accesses)
            .field("mru_hits", &self.core.mru_hits)
            .field("evicted_chunks", &self.core.evicted_chunks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_addresses_read_as_none() {
        let table: ShadowTable<u8> = ShadowTable::new();
        assert_eq!(table.get(0), None);
        assert_eq!(table.get(u64::MAX), None);
        assert_eq!(table.chunk_count(), 0);
    }

    #[test]
    fn slot_mut_allocates_chunk_lazily() {
        let mut table: ShadowTable<u8> = ShadowTable::new();
        *table.slot_mut(100) = 9;
        assert_eq!(table.chunk_count(), 1);
        assert_eq!(table.get(100), Some(&9));
        // Neighbouring address in the same chunk: default-initialized.
        assert_eq!(table.get(101), Some(&0));
        // Address in a different chunk: still absent.
        assert_eq!(table.get(100 + (CHUNK_SLOTS as u64) * 2), None);
    }

    #[test]
    fn distant_addresses_use_distinct_chunks() {
        let mut table: ShadowTable<u8> = ShadowTable::new();
        *table.slot_mut(0) = 1;
        *table.slot_mut(1 << 40) = 2;
        assert_eq!(table.chunk_count(), 2);
        assert_eq!(table.get(0), Some(&1));
        assert_eq!(table.get(1 << 40), Some(&2));
    }

    #[test]
    fn fifo_limit_evicts_oldest_allocation() {
        let mut table: ShadowTable<u8> = ShadowTable::with_chunk_limit(2, EvictionPolicy::Fifo);
        let a = 0;
        let b = CHUNK_SLOTS as u64;
        let c = 2 * CHUNK_SLOTS as u64;
        *table.slot_mut(a) = 1;
        *table.slot_mut(b) = 2;
        // Touch `a` again — FIFO ignores recency, so `a` is still evicted.
        *table.slot_mut(a) = 3;
        *table.slot_mut(c) = 4;
        assert_eq!(table.chunk_count(), 2);
        assert_eq!(table.get(a), None);
        assert_eq!(table.get(b), Some(&2));
        assert_eq!(table.get(c), Some(&4));
        assert_eq!(table.evicted_chunks(), 1);
    }

    #[test]
    fn lru_limit_evicts_least_recently_touched() {
        let mut table: ShadowTable<u8> = ShadowTable::with_chunk_limit(2, EvictionPolicy::Lru);
        let a = 0;
        let b = CHUNK_SLOTS as u64;
        let c = 2 * CHUNK_SLOTS as u64;
        *table.slot_mut(a) = 1;
        *table.slot_mut(b) = 2;
        *table.slot_mut(a) = 3; // refresh `a`
        *table.slot_mut(c) = 4; // evicts `b`, not `a`
        assert_eq!(table.get(a), Some(&3));
        assert_eq!(table.get(b), None);
        assert_eq!(table.get(c), Some(&4));
    }

    #[test]
    fn lru_recency_chain_survives_many_interleavings() {
        // Exercise unlink/link_tail on head, middle, and tail positions.
        let mut table: ShadowTable<u8> = ShadowTable::with_chunk_limit(3, EvictionPolicy::Lru);
        let addr = |i: u64| i * CHUNK_SLOTS as u64;
        *table.slot_mut(addr(0)) = 1;
        *table.slot_mut(addr(1)) = 2;
        *table.slot_mut(addr(2)) = 3;
        *table.slot_mut(addr(1)) = 4; // touch middle
        *table.slot_mut(addr(0)) = 5; // touch (old) head
        *table.slot_mut(addr(3)) = 6; // evicts 2, the least recent
        assert_eq!(table.get(addr(2)), None);
        assert_eq!(table.get(addr(0)), Some(&5));
        assert_eq!(table.get(addr(1)), Some(&4));
        assert_eq!(table.get(addr(3)), Some(&6));
        *table.slot_mut(addr(4)) = 7; // evicts 1 (untouched since its refresh)
        assert_eq!(table.get(addr(1)), None);
    }

    #[test]
    fn evicted_state_reverts_to_default() {
        let mut table: ShadowTable<u32> = ShadowTable::with_chunk_limit(1, EvictionPolicy::Fifo);
        *table.slot_mut(0) = 42;
        *table.slot_mut(CHUNK_SLOTS as u64) = 7; // evicts chunk 0
        assert_eq!(*table.slot_mut(0), 0, "re-touch re-initializes to default");
    }

    #[test]
    fn eviction_invalidates_the_mru_cache() {
        // With limit 1 every new chunk evicts the one the MRU cache points
        // at; stale cache entries would resurrect dead state.
        let mut table: ShadowTable<u32> = ShadowTable::with_chunk_limit(1, EvictionPolicy::Lru);
        *table.slot_mut(0) = 42;
        *table.slot_mut(CHUNK_SLOTS as u64) = 7;
        assert_eq!(table.get(0), None, "evicted chunk must not be readable");
        assert_eq!(table.get(CHUNK_SLOTS as u64), Some(&7));
    }

    #[test]
    fn mru_cache_counts_hits_and_probes() {
        let mut table: ShadowTable<u8> = ShadowTable::new();
        *table.slot_mut(0) = 1; // miss (allocates)
        *table.slot_mut(1) = 2; // hit: same chunk
        *table.slot_mut(2) = 3; // hit
        *table.slot_mut(CHUNK_SLOTS as u64) = 4; // miss: new chunk
        *table.slot_mut(0) = 5; // miss: back to chunk 0
        let stats = table.stats();
        assert_eq!(stats.accesses, 5);
        assert_eq!(stats.mru_hits, 2);
        assert_eq!(stats.table_probes, 3);
        assert_eq!(table.accesses(), 5);
        assert_eq!(table.mru_hits(), 2);
    }

    #[test]
    fn stats_reflect_residency() {
        let mut table: ShadowTable<u64> = ShadowTable::new();
        *table.slot_mut(0) = 1;
        let stats = table.stats();
        assert_eq!(stats.resident_chunks, 1);
        assert_eq!(stats.resident_slots, CHUNK_SLOTS as u64);
        assert_eq!(stats.resident_bytes, (CHUNK_SLOTS * 8) as u64);
    }

    #[test]
    fn iter_visits_written_slots() {
        let mut table: ShadowTable<u8> = ShadowTable::new();
        *table.slot_mut(5) = 9;
        let found: Vec<_> = table.iter().filter(|(_, &v)| v != 0).collect();
        assert_eq!(found, vec![(5, &9)]);
    }

    #[test]
    fn clear_empties_the_table() {
        let mut table: ShadowTable<u8> = ShadowTable::new();
        *table.slot_mut(1) = 1;
        table.clear();
        assert_eq!(table.chunk_count(), 0);
        assert_eq!(table.get(1), None);
    }

    #[test]
    fn clear_resets_counters_caches_and_eviction_state() {
        // Regression: clear() used to leave the touch counter, eviction
        // counter, and (now) the MRU cache behind, so a cleared table
        // reported phantom evictions and could serve stale slots.
        let mut table: ShadowTable<u8> = ShadowTable::with_chunk_limit(1, EvictionPolicy::Fifo);
        *table.slot_mut(0) = 1;
        *table.slot_mut(CHUNK_SLOTS as u64) = 2; // forces one eviction
        *table.slot_mut(CHUNK_SLOTS as u64 + 1) = 3; // MRU hit
        assert!(table.evicted_chunks() > 0);
        table.clear();
        assert_eq!(table.chunk_count(), 0);
        assert_eq!(table.evicted_chunks(), 0, "eviction counter must reset");
        assert_eq!(table.accesses(), 0, "access counter must reset");
        assert_eq!(table.mru_hits(), 0, "hit counter must reset");
        assert_eq!(
            table.get(CHUNK_SLOTS as u64),
            None,
            "MRU cache must not leak"
        );
        assert_eq!(table.stats(), MemoryStats::default());
        // The cleared table must behave exactly like a fresh one.
        *table.slot_mut(0) = 9;
        assert_eq!(table.get(0), Some(&9));
        assert_eq!(table.evicted_chunks(), 0);
    }

    #[test]
    fn limited_table_recycles_slab_entries() {
        let mut table: ShadowTable<u8> = ShadowTable::with_chunk_limit(2, EvictionPolicy::Fifo);
        for i in 0..64u64 {
            *table.slot_mut(i * CHUNK_SLOTS as u64) = i as u8;
        }
        assert_eq!(table.chunk_count(), 2);
        assert_eq!(table.evicted_chunks(), 62);
        // The slab never grows past limit + the one in-flight insertion.
        assert!(
            table.core.slab_len() <= 3,
            "slab len {}",
            table.core.slab_len()
        );
    }

    #[test]
    #[should_panic(expected = "chunk limit must be at least 1")]
    fn zero_limit_is_rejected() {
        let _: ShadowTable<u8> = ShadowTable::with_chunk_limit(0, EvictionPolicy::Fifo);
    }

    #[test]
    fn run_mut_stops_at_the_chunk_boundary() {
        let mut table: ShadowTable<u8> = ShadowTable::new();
        let start = CHUNK_SLOTS as u64 - 3;
        let (slots, consumed) = table.run_mut(start, 8);
        assert_eq!(consumed, 3, "run is capped at the chunk end");
        slots.fill(1);
        let (slots, consumed) = table.run_mut(start + 3, 5);
        assert_eq!(consumed, 5, "remainder fits the next chunk");
        slots.fill(2);
        assert_eq!(table.get(start), Some(&1));
        assert_eq!(table.get(CHUNK_SLOTS as u64), Some(&2));
        assert_eq!(table.chunk_count(), 2);
    }

    #[test]
    fn run_mut_counters_match_a_slot_mut_loop() {
        // The same access pattern through both APIs must report identical
        // accesses/mru_hits/table_probes; only runs/run_bytes differ.
        let pattern: &[(u64, usize)] = &[(0, 8), (8, 8), (4090, 12), (1 << 20, 4), (4, 8)];
        let mut by_slot: ShadowTable<u8> = ShadowTable::new();
        let mut by_run: ShadowTable<u8> = ShadowTable::new();
        for &(addr, len) in pattern {
            for a in addr..addr + len as u64 {
                *by_slot.slot_mut(a) = 1;
            }
            let mut runs = by_run.runs_mut(addr, len);
            while let Some((_, slots)) = runs.next_run() {
                slots.fill(1);
            }
        }
        let (a, b) = (by_slot.stats(), by_run.stats());
        assert_eq!(a.accesses, b.accesses);
        assert_eq!(a.mru_hits, b.mru_hits);
        assert_eq!(a.table_probes, b.table_probes);
        assert_eq!(a.resident_chunks, b.resident_chunks);
        assert_eq!(a.runs, 0, "slot_mut records no runs");
        assert_eq!(b.runs, 6, "one run per chunk touched per access");
        assert_eq!(b.run_bytes, b.accesses);
    }

    #[test]
    fn zero_length_run_is_inert() {
        let mut table: ShadowTable<u8> = ShadowTable::new();
        let (slots, consumed) = table.run_mut(123, 0);
        assert!(slots.is_empty());
        assert_eq!(consumed, 0);
        assert_eq!(table.chunk_count(), 0, "no chunk allocated");
        assert_eq!(table.stats(), MemoryStats::default());
        assert!(table.runs_mut(123, 0).next_run().is_none());
    }

    #[test]
    fn run_eviction_can_reclaim_an_earlier_run_of_the_same_access() {
        // limit 1 and a chunk-straddling range: the second run's insert
        // evicts the first run's chunk, exactly like a per-slot loop.
        let mut table: ShadowTable<u8> = ShadowTable::with_chunk_limit(1, EvictionPolicy::Lru);
        let start = CHUNK_SLOTS as u64 - 2;
        let mut runs = table.runs_mut(start, 4);
        while let Some((_, slots)) = runs.next_run() {
            slots.fill(9);
        }
        assert_eq!(table.evicted_chunks(), 1);
        assert_eq!(table.get(start), None, "first chunk was the victim");
        assert_eq!(table.get(CHUNK_SLOTS as u64), Some(&9));
    }

    #[test]
    fn eviction_log_records_victims_in_order() {
        let mut table: ShadowTable<u8> = ShadowTable::with_chunk_limit(2, EvictionPolicy::Fifo);
        table.enable_eviction_log();
        let addr = |i: u64| i * CHUNK_SLOTS as u64;
        for i in 0..5u64 {
            *table.slot_mut(addr(i)) = 1;
        }
        // FIFO with limit 2: inserting chunks 2, 3, 4 evicts 0, 1, 2.
        assert_eq!(table.evictions(), &[0, 1, 2]);
        table.clear_evictions();
        assert!(table.evictions().is_empty());
        *table.slot_mut(addr(9)) = 1;
        assert_eq!(table.evictions(), &[3], "log keeps recording after drain");
        // Without enable_eviction_log nothing is recorded.
        let mut silent: ShadowTable<u8> = ShadowTable::with_chunk_limit(1, EvictionPolicy::Lru);
        *silent.slot_mut(addr(0)) = 1;
        *silent.slot_mut(addr(1)) = 1;
        assert!(silent.evictions().is_empty());
        assert_eq!(silent.evicted_chunks(), 1);
    }

    #[test]
    fn evict_key_mirrors_the_limiter() {
        let mut table: ShadowTable<u8> = ShadowTable::new();
        *table.slot_mut(5) = 9;
        *table.slot_mut(CHUNK_SLOTS as u64 + 1) = 8;
        assert!(table.evict_key(chunk_key(5)));
        assert_eq!(table.get(5), None, "state reverts to invalid");
        assert_eq!(table.get(CHUNK_SLOTS as u64 + 1), Some(&8));
        assert_eq!(table.evicted_chunks(), 1);
        assert_eq!(table.chunk_count(), 1);
        assert!(!table.evict_key(chunk_key(5)), "already gone");
        // The recycled slab entry re-initializes to default on re-touch.
        assert_eq!(*table.slot_mut(5), 0);
    }

    #[test]
    fn evict_key_invalidates_the_mru_cache() {
        let mut table: ShadowTable<u8> = ShadowTable::new();
        *table.slot_mut(7) = 3; // chunk 0 is now the MRU entry
        assert!(table.evict_key(0));
        assert_eq!(table.get(7), None, "stale MRU entry must not resurrect");
    }

    #[test]
    fn chunk_key_matches_the_table_split() {
        assert_eq!(chunk_key(0), 0);
        assert_eq!(chunk_key(CHUNK_SLOTS as u64 - 1), 0);
        assert_eq!(chunk_key(CHUNK_SLOTS as u64), 1);
        assert_eq!(chunk_key(u64::MAX), u64::MAX >> CHUNK_BITS);
    }

    #[test]
    fn chunk_run_matches_run_mut_splitting() {
        // The oracle-free split must agree with the table's own run
        // boundaries on every shape: interior, boundary-straddling, and
        // boundary-starting ranges.
        let mut table: ShadowTable<u8> = ShadowTable::new();
        for &(addr, len) in &[
            (0u64, 8usize),
            (4090, 12),
            (4096, 5),
            (CHUNK_SLOTS as u64 - 1, 1),
            (1 << 40, CHUNK_SLOTS + 7),
        ] {
            let (mut a, mut remaining) = (addr, len);
            while remaining > 0 {
                let (key, consumed) = chunk_run(a, remaining);
                let (_, table_consumed) = table.run_mut(a, remaining);
                assert_eq!(consumed, table_consumed, "addr {a:#x} len {remaining}");
                assert_eq!(key, chunk_key(a));
                a = a.wrapping_add(consumed as u64);
                remaining -= consumed;
            }
        }
        assert_eq!(chunk_run(123, 0), (0, 0), "zero-length range is inert");
    }

    #[test]
    fn mirrored_table_reproduces_limited_residency() {
        // An unbounded table fed the same runs plus the logged evictions
        // holds exactly the limited table's live chunks and values.
        let mut limited: ShadowTable<u8> = ShadowTable::with_chunk_limit(2, EvictionPolicy::Lru);
        limited.enable_eviction_log();
        let mut mirror: ShadowTable<u8> = ShadowTable::new();
        let pattern: &[(u64, usize)] = &[(0, 8), (4090, 12), (1 << 20, 4), (4, 8), (8192, 2)];
        for &(addr, len) in pattern {
            let mut runs = limited.runs_mut(addr, len);
            while let Some((run_addr, slots)) = runs.next_run() {
                slots.fill((run_addr & 0xff) as u8);
            }
            for i in 0..limited.evictions().len() {
                let key = limited.evictions()[i];
                assert!(mirror.evict_key(key), "victim resident in the mirror");
            }
            limited.clear_evictions();
            let mut runs = mirror.runs_mut(addr, len);
            while let Some((run_addr, slots)) = runs.next_run() {
                slots.fill((run_addr & 0xff) as u8);
            }
        }
        assert_eq!(limited.chunk_count(), mirror.chunk_count());
        for (addr, slot) in limited.iter() {
            assert_eq!(mirror.get(addr), Some(slot), "addr {addr:#x}");
        }
    }

    #[test]
    fn resident_stats_track_live_chunks_through_eviction_and_clear() {
        // Pins the residency accounting: `resident_*` must follow the
        // index (live chunks), not the slab, which retains free-listed
        // capacity after evictions; the slab/free/index audit in stats()
        // must hold at every step.
        let slot = std::mem::size_of::<u32>();
        let mut table: ShadowTable<u32> = ShadowTable::with_chunk_limit(2, EvictionPolicy::Fifo);
        for i in 0..5u64 {
            *table.slot_mut(i * CHUNK_SLOTS as u64) = 1;
            let stats = table.stats();
            let live = table.chunk_count() as u64;
            assert_eq!(stats.resident_chunks, live);
            assert_eq!(stats.resident_slots, live * CHUNK_SLOTS as u64);
            assert_eq!(stats.resident_bytes, live * (CHUNK_SLOTS * slot) as u64);
        }
        let stats = table.stats();
        assert_eq!(stats.resident_chunks, 2, "limit bounds live chunks");
        assert_eq!(stats.evicted_chunks, 3);
        assert_eq!(stats.resident_slots, 2 * CHUNK_SLOTS as u64);
        assert_eq!(stats.resident_bytes, (2 * CHUNK_SLOTS * slot) as u64);
        table.clear();
        let stats = table.stats();
        assert_eq!(stats.resident_chunks, 0);
        assert_eq!(stats.resident_slots, 0);
        assert_eq!(stats.resident_bytes, 0);
    }
}

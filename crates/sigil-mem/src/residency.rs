//! Chunk residency: the part of the two-level table that does not depend
//! on what a chunk holds.
//!
//! [`Residency`] owns the first-level index, the slab of chunks, the
//! one-entry MRU cursor, the FIFO/LRU recency order, the free list, the
//! eviction log and the hot-path counters. It is generic over the chunk
//! payload: [`crate::ShadowTable`] stores a dense slot per byte, and
//! [`crate::GranuleTable`] stores a slot per aligned granule plus split
//! byte slots. Both resolve chunks, count accesses and evict through
//! this one implementation.

use std::collections::{HashMap, VecDeque};

use sigil_trace::Addr;

use crate::stats::MemoryStats;
use crate::table::EvictionPolicy;

/// Log2 of the guest bytes covered by one second-level chunk.
pub(crate) const CHUNK_BITS: u32 = 12;
/// Guest bytes covered by one second-level chunk (4096).
pub(crate) const CHUNK_BYTES: usize = 1 << CHUNK_BITS;
const OFFSET_MASK: u64 = (CHUNK_BYTES as u64) - 1;

/// Sentinel slab index meaning "no chunk".
const NIL: usize = usize::MAX;

/// Splits `addr` into its chunk key and its byte offset in the chunk.
#[inline]
pub(crate) fn split(addr: Addr) -> (u64, usize) {
    (addr >> CHUNK_BITS, (addr & OFFSET_MASK) as usize)
}

/// What a resident chunk holds.
pub(crate) trait Payload {
    /// A chunk whose every slot is invalid.
    fn fresh() -> Self;

    /// Returns a recycled chunk to the [`Payload::fresh`] state.
    fn reset(&mut self);

    /// Granules the chunk holds split into byte slots (see
    /// [`crate::GranuleTable`]); a per-byte chunk holds none.
    fn splits(&self) -> u64 {
        0
    }
}

#[derive(Debug)]
struct Chunk<C> {
    key: u64,
    payload: C,
    /// Recency list neighbour toward the least-recently-touched end.
    lru_prev: usize,
    /// Recency list neighbour toward the most-recently-touched end.
    lru_next: usize,
}

/// A run resolved by [`Residency::resolve_run`]: the chunk's slab index,
/// the run's byte offset inside the chunk, and its length in bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResolvedRun {
    pub(crate) idx: usize,
    pub(crate) off: usize,
    pub(crate) len: usize,
}

/// Chunk residency over payloads of type `C`; see the module docs.
///
/// Chunks live in a slab (`Vec`) indexed through a `HashMap`. With a
/// chunk limit the table evicts whole chunks per the [`EvictionPolicy`];
/// evicted slab entries go to a free list and are recycled, so a limited
/// table stops allocating once it reaches its limit.
#[derive(Debug)]
pub(crate) struct Residency<C> {
    slab: Vec<Chunk<C>>,
    free: Vec<usize>,
    index: HashMap<u64, usize>,
    alloc_order: VecDeque<u64>,
    chunk_limit: Option<usize>,
    pub(crate) policy: EvictionPolicy,
    /// Least-recently-touched resident chunk (eviction victim under LRU).
    lru_head: usize,
    /// Most-recently-touched resident chunk.
    lru_tail: usize,
    /// One-entry MRU cache: chunk key and slab index of the last touch.
    mru_key: u64,
    mru_slot: usize,
    pub(crate) accesses: u64,
    pub(crate) mru_hits: u64,
    pub(crate) evicted_chunks: u64,
    pub(crate) runs: u64,
    pub(crate) run_bytes: u64,
    /// [`Payload::splits`] summed over resident chunks. The payload's
    /// owner adjusts it as it splits and merges granules; eviction
    /// subtracts the victim's share.
    pub(crate) splits: u64,
    /// When enabled, every eviction appends its chunk key here in victim
    /// order so an external table can mirror the residency decisions.
    log_evictions: bool,
    eviction_log: Vec<u64>,
}

impl<C> Residency<C> {
    pub(crate) fn chunk_limit(&self) -> Option<usize> {
        self.chunk_limit
    }

    /// Number of resident chunks.
    pub(crate) fn chunk_count(&self) -> usize {
        self.index.len()
    }
}

impl<C: Payload> Residency<C> {
    pub(crate) fn new() -> Self {
        Residency {
            slab: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            alloc_order: VecDeque::new(),
            chunk_limit: None,
            policy: EvictionPolicy::Fifo,
            lru_head: NIL,
            lru_tail: NIL,
            mru_key: 0,
            mru_slot: NIL,
            accesses: 0,
            mru_hits: 0,
            evicted_chunks: 0,
            runs: 0,
            run_bytes: 0,
            splits: 0,
            log_evictions: false,
            eviction_log: Vec::new(),
        }
    }

    /// # Panics
    ///
    /// Panics if `max_chunks` is zero.
    pub(crate) fn with_chunk_limit(max_chunks: usize, policy: EvictionPolicy) -> Self {
        assert!(max_chunks > 0, "chunk limit must be at least 1");
        Residency {
            chunk_limit: Some(max_chunks),
            policy,
            ..Residency::new()
        }
    }

    /// The slab index of resident chunk `key`, without touching it.
    #[inline]
    pub(crate) fn lookup(&self, key: u64) -> Option<usize> {
        if self.mru_slot != NIL && self.mru_key == key {
            return Some(self.mru_slot);
        }
        self.index.get(&key).copied()
    }

    pub(crate) fn payload(&self, idx: usize) -> &C {
        &self.slab[idx].payload
    }

    /// The payload of slab entry `idx` together with the running split
    /// total, which its owner keeps in step with the payload.
    #[inline]
    pub(crate) fn payload_mut(&mut self, idx: usize) -> (&mut C, &mut u64) {
        (&mut self.slab[idx].payload, &mut self.splits)
    }

    /// Resolves the chunk of one byte access, allocating (and possibly
    /// evicting) as needed; returns its slab index and byte offset.
    #[inline]
    pub(crate) fn resolve_byte(&mut self, addr: Addr) -> (usize, usize) {
        let (key, off) = split(addr);
        self.accesses += 1;
        // Fast path: same chunk as the previous access. The MRU chunk is
        // by construction the most recently touched, so it already sits
        // at the recency-list tail and needs no bookkeeping.
        if self.mru_slot != NIL && self.mru_key == key {
            self.mru_hits += 1;
            return (self.mru_slot, off);
        }
        (self.locate(key), off)
    }

    /// Resolves the maximal run of `addr..addr+len` inside one chunk,
    /// **once**: one address split, one MRU check or hash probe, one
    /// recency touch and one counter bump for the whole run. The run is
    /// `min(len, bytes left in the chunk)` long, and the counters move
    /// as if each of its bytes had been resolved by
    /// [`Residency::resolve_byte`] (the first pays the probe on an MRU
    /// miss, the rest count as MRU hits), plus one run.
    ///
    /// Returns `None` for `len == 0`, without touching the table.
    #[inline]
    pub(crate) fn resolve_run(&mut self, addr: Addr, len: usize) -> Option<ResolvedRun> {
        if len == 0 {
            return None;
        }
        let (key, off) = split(addr);
        let n = len.min(CHUNK_BYTES - off);
        self.accesses += n as u64;
        self.runs += 1;
        self.run_bytes += n as u64;
        let idx = if self.mru_slot != NIL && self.mru_key == key {
            self.mru_hits += n as u64;
            self.mru_slot
        } else {
            // The first byte pays the table probe; the remaining n-1
            // would have hit the MRU cache in a per-byte loop.
            self.mru_hits += n as u64 - 1;
            self.locate(key)
        };
        Some(ResolvedRun { idx, off, len: n })
    }

    /// The MRU-miss path: finds or creates chunk `key`, touches it and
    /// makes it the MRU entry.
    fn locate(&mut self, key: u64) -> usize {
        let idx = match self.index.get(&key) {
            Some(&idx) => {
                self.touch(idx);
                idx
            }
            None => self.insert_chunk(key),
        };
        self.mru_key = key;
        self.mru_slot = idx;
        idx
    }

    /// Moves a resident chunk to the most-recently-touched end.
    fn touch(&mut self, idx: usize) {
        if self.lru_tail == idx {
            return;
        }
        self.unlink(idx);
        self.link_tail(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].lru_prev, self.slab[idx].lru_next);
        if prev != NIL {
            self.slab[prev].lru_next = next;
        } else {
            self.lru_head = next;
        }
        if next != NIL {
            self.slab[next].lru_prev = prev;
        } else {
            self.lru_tail = prev;
        }
    }

    fn link_tail(&mut self, idx: usize) {
        self.slab[idx].lru_prev = self.lru_tail;
        self.slab[idx].lru_next = NIL;
        if self.lru_tail != NIL {
            self.slab[self.lru_tail].lru_next = idx;
        } else {
            self.lru_head = idx;
        }
        self.lru_tail = idx;
    }

    /// Allocates (or recycles) a chunk for `key` and links it as most
    /// recently touched. Returns its slab index.
    fn insert_chunk(&mut self, key: u64) -> usize {
        self.maybe_evict();
        let idx = match self.free.pop() {
            Some(idx) => {
                let chunk = &mut self.slab[idx];
                chunk.key = key;
                chunk.payload.reset();
                idx
            }
            None => {
                self.slab.push(Chunk {
                    key,
                    payload: C::fresh(),
                    lru_prev: NIL,
                    lru_next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.index.insert(key, idx);
        self.link_tail(idx);
        // FIFO is the only policy that consumes allocation order; skip the
        // queue otherwise so unbounded/LRU tables don't grow it forever.
        if self.chunk_limit.is_some() && self.policy == EvictionPolicy::Fifo {
            self.alloc_order.push_back(key);
        }
        idx
    }

    fn maybe_evict(&mut self) {
        let Some(limit) = self.chunk_limit else {
            return;
        };
        while self.index.len() >= limit {
            let victim = match self.policy {
                EvictionPolicy::Fifo => loop {
                    match self.alloc_order.pop_front() {
                        Some(key) if self.index.contains_key(&key) => break Some(key),
                        Some(_) => continue,
                        None => break None,
                    }
                },
                // O(1): the least recently touched chunk is the list head.
                EvictionPolicy::Lru => (self.lru_head != NIL).then(|| self.slab[self.lru_head].key),
            };
            match victim {
                Some(key) => self.evict(key),
                None => break,
            }
        }
    }

    fn evict(&mut self, key: u64) {
        let idx = self
            .index
            .remove(&key)
            .expect("eviction victim must be resident");
        self.unlink(idx);
        self.free.push(idx);
        self.splits -= self.slab[idx].payload.splits();
        if self.mru_slot == idx {
            self.mru_slot = NIL;
        }
        self.evicted_chunks += 1;
        if self.log_evictions {
            self.eviction_log.push(key);
        }
    }

    pub(crate) fn enable_eviction_log(&mut self) {
        self.log_evictions = true;
    }

    pub(crate) fn evictions(&self) -> &[u64] {
        &self.eviction_log
    }

    pub(crate) fn clear_evictions(&mut self) {
        self.eviction_log.clear();
    }

    /// Evicts chunk `key` if it is resident, exactly as the limiter
    /// would. Returns whether a chunk was evicted.
    pub(crate) fn evict_key(&mut self, key: u64) -> bool {
        if self.index.contains_key(&key) {
            self.evict(key);
            true
        } else {
            false
        }
    }

    /// Residency and hot-path counters, with each resident chunk priced
    /// at `chunk_slots` slots and `chunk_bytes` bytes. Free-listed slab
    /// entries hold allocated-but-dead memory and are not counted.
    pub(crate) fn stats(&self, chunk_slots: u64, chunk_bytes: u64) -> MemoryStats {
        debug_assert_eq!(
            self.index.len(),
            self.slab.len() - self.free.len(),
            "every slab entry is either indexed (live) or free-listed"
        );
        let chunks = self.index.len() as u64;
        MemoryStats {
            resident_chunks: chunks,
            resident_slots: chunks * chunk_slots,
            resident_bytes: chunks * chunk_bytes,
            evicted_chunks: self.evicted_chunks,
            accesses: self.accesses,
            mru_hits: self.mru_hits,
            table_probes: self.accesses - self.mru_hits,
            runs: self.runs,
            run_bytes: self.run_bytes,
        }
    }

    /// Every resident chunk as `(base address, payload)`, in unspecified
    /// order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Addr, &C)> {
        self.index
            .iter()
            .map(|(&key, &idx)| (key << CHUNK_BITS, &self.slab[idx].payload))
    }

    /// Slab entries allocated so far, live or free-listed.
    #[cfg(test)]
    pub(crate) fn slab_len(&self) -> usize {
        self.slab.len()
    }

    /// Drops all chunks and resets every counter and cache; the limit,
    /// the policy and whether evictions are logged stay.
    pub(crate) fn clear(&mut self) {
        self.slab.clear();
        self.free.clear();
        self.index.clear();
        self.alloc_order.clear();
        self.lru_head = NIL;
        self.lru_tail = NIL;
        self.mru_key = 0;
        self.mru_slot = NIL;
        self.accesses = 0;
        self.mru_hits = 0;
        self.evicted_chunks = 0;
        self.runs = 0;
        self.run_bytes = 0;
        self.splits = 0;
        self.eviction_log.clear();
    }
}

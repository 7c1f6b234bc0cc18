//! The granule shadow: one Table-I object per aligned 4-byte word, with
//! per-byte objects only where an access splits the word.
//!
//! This is the compressed shadow of Nethercote & Seward, "How to shadow
//! every byte of memory used by a program" (VEE 2007). Real access
//! streams touch memory in aligned words, so the four bytes of a granule
//! almost always carry identical state: the same last writer, the same
//! last reader, the same reuse record. A [`GranuleTable`] stores that
//! state once. An access that covers only part of a granule first copies
//! the granule's object into four byte slots held in per-chunk side
//! storage, and after any access to a split granule the table merges it
//! back as soon as its four byte slots are equal again. Equal states
//! evolve identically under every Table-I step, so the merge is exact:
//! every byte reads the state a per-byte table would hold.
//!
//! Callers see **cells**: runs of shadow objects with a byte weight, 4
//! for a whole granule and 1 for a split byte (see
//! [`GranuleRun::cells_mut`]). A Table-I step applied to a cell of weight
//! `w` is that step applied to `w` bytes of identical state.

use std::fmt;

use sigil_trace::Addr;

use crate::object::{ReuseSlot, ShadowObject};
use crate::residency::{split, Payload, Residency, ResolvedRun, CHUNK_BYTES};
use crate::stats::MemoryStats;
use crate::table::EvictionPolicy;

/// Guest bytes per granule.
pub const GRANULE_BYTES: usize = 4;
/// Granules per 4 KiB chunk (1024).
pub const CHUNK_GRANULES: usize = CHUNK_BYTES / GRANULE_BYTES;

/// A granule split into its byte slots, with the granule it belongs to.
#[derive(Debug, Clone, Copy)]
struct Split<R> {
    bytes: [ShadowObject<R>; GRANULE_BYTES],
    granule: u16,
}

/// One resident chunk of a [`GranuleTable`].
#[derive(Debug)]
pub(crate) struct GranuleChunk<R> {
    /// One object per granule; stale while the granule is split.
    whole: Box<[ShadowObject<R>]>,
    /// Per granule: 0 while it is whole, else 1 + its index in `split`.
    split_at: Box<[u16]>,
    /// The split granules, in no particular order.
    split: Vec<Split<R>>,
}

impl<R: ReuseSlot> Payload for GranuleChunk<R> {
    fn fresh() -> Self {
        GranuleChunk {
            whole: vec![ShadowObject::default(); CHUNK_GRANULES].into_boxed_slice(),
            split_at: vec![0; CHUNK_GRANULES].into_boxed_slice(),
            split: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.whole.fill(ShadowObject::default());
        self.split_at.fill(0);
        self.split.clear();
    }

    fn splits(&self) -> u64 {
        self.split.len() as u64
    }
}

impl<R: ReuseSlot> GranuleChunk<R> {
    /// The byte slots of granule `g`, splitting it first if it is whole.
    fn split_granule(&mut self, g: usize, splits: &mut u64) -> &mut [ShadowObject<R>] {
        let at = match self.split_at[g] {
            0 => {
                self.split.push(Split {
                    bytes: [self.whole[g]; GRANULE_BYTES],
                    granule: g as u16,
                });
                *splits += 1;
                let at = self.split.len();
                self.split_at[g] = at as u16;
                at
            }
            at => usize::from(at),
        };
        &mut self.split[at - 1].bytes
    }

    /// Merges split granule `g` back into one object if its four byte
    /// slots are equal.
    fn try_merge(&mut self, g: usize, splits: &mut u64) {
        let at = usize::from(self.split_at[g]) - 1;
        let [first, rest @ ..] = self.split[at].bytes;
        if rest.iter().any(|b| *b != first) {
            return;
        }
        self.whole[g] = first;
        self.split_at[g] = 0;
        self.split.swap_remove(at);
        if let Some(moved) = self.split.get(at) {
            self.split_at[usize::from(moved.granule)] = (at + 1) as u16;
        }
        *splits -= 1;
    }

    /// Walks the cells of bytes `off..off + len` of the chunk in byte
    /// order; see [`GranuleRun::cells_mut`].
    fn cells_mut(
        &mut self,
        off: usize,
        len: usize,
        splits: &mut u64,
        mut f: impl FnMut(&mut [ShadowObject<R>], u64),
    ) {
        let end = off + len;
        debug_assert!(end <= CHUNK_BYTES, "a run stays inside its chunk");
        // Granules `..full_end` end inside the range.
        let full_end = end / GRANULE_BYTES;
        let mut pos = off;
        while pos < end {
            let g = pos / GRANULE_BYTES;
            let lo = pos % GRANULE_BYTES;
            if lo == 0 && g < full_end && self.split_at[g] == 0 {
                // A run of whole granules the range covers entirely.
                let mut next = g + 1;
                if self.split.is_empty() {
                    next = full_end;
                } else {
                    while next < full_end && self.split_at[next] == 0 {
                        next += 1;
                    }
                }
                f(&mut self.whole[g..next], GRANULE_BYTES as u64);
                pos = next * GRANULE_BYTES;
                continue;
            }
            // The range covers part of the granule, or it is split.
            let hi = (end - g * GRANULE_BYTES).min(GRANULE_BYTES);
            f(&mut self.split_granule(g, splits)[lo..hi], 1);
            self.try_merge(g, splits);
            pos = g * GRANULE_BYTES + hi;
        }
    }

    /// The object shadowing byte `off` of the chunk.
    fn byte(&self, off: usize) -> &ShadowObject<R> {
        let g = off / GRANULE_BYTES;
        match self.split_at[g] {
            0 => &self.whole[g],
            at => &self.split[usize::from(at) - 1].bytes[off % GRANULE_BYTES],
        }
    }

    /// Every cell of the chunk with its byte weight.
    fn cells(&self) -> impl Iterator<Item = (&ShadowObject<R>, u64)> {
        let whole = self
            .whole
            .iter()
            .zip(self.split_at.iter())
            .filter(|(_, &at)| at == 0)
            .map(|(obj, _)| (obj, GRANULE_BYTES as u64));
        let split = self
            .split
            .iter()
            .flat_map(|s| s.bytes.iter().map(|obj| (obj, 1)));
        whole.chain(split)
    }
}

/// The two-level shadow table the profiler classifies on: one
/// [`ShadowObject`] per aligned 4-byte granule, split into byte slots
/// only where an access covers part of a granule (see the module docs).
///
/// Chunks cover 4 KiB of guest memory (1,024 granules), so chunk
/// keys, shard routing, the chunk limit and the eviction counter mean
/// what they mean for a [`crate::ShadowTable`], and the access counters
/// (`accesses`, `mru_hits`, `runs`, `run_bytes`) count guest
/// bytes. Both tables share one residency implementation.
///
/// # Example
///
/// ```
/// use sigil_mem::{GranuleTable, Owner};
/// use sigil_trace::CallNumber;
///
/// let writer = Owner::new(1, CallNumber::ROOT.next(), 0);
/// let mut table: GranuleTable = GranuleTable::new();
/// // An aligned 8-byte write: two whole granules, one cell run.
/// table.cells_mut(0x1000, 8, |cells, weight| {
///     assert_eq!((cells.len(), weight), (2, 4));
///     cells.iter_mut().for_each(|c| c.record_write(writer));
/// });
/// // A 1-byte write by another owner splits its granule.
/// let other = Owner::new(2, CallNumber::ROOT.next().next(), 0);
/// table.cells_mut(0x1001, 1, |cells, weight| {
///     assert_eq!((cells.len(), weight), (1, 1));
///     cells[0].record_write(other);
/// });
/// assert_eq!(table.split_granules(), 1);
/// assert_eq!(table.get(0x1001).and_then(|o| o.last_writer()), Some(other));
/// assert_eq!(table.get(0x1003).and_then(|o| o.last_writer()), Some(writer));
/// ```
pub struct GranuleTable<R = ()> {
    core: Residency<GranuleChunk<R>>,
}

impl<R: ReuseSlot> GranuleTable<R> {
    /// Creates an unbounded granule table.
    pub fn new() -> Self {
        GranuleTable {
            core: Residency::new(),
        }
    }

    /// Creates a table that keeps at most `max_chunks` chunks resident,
    /// evicting per `policy` beyond that.
    ///
    /// # Panics
    ///
    /// Panics if `max_chunks` is zero.
    pub fn with_chunk_limit(max_chunks: usize, policy: EvictionPolicy) -> Self {
        GranuleTable {
            core: Residency::with_chunk_limit(max_chunks, policy),
        }
    }

    /// The object shadowing byte `addr`, if its chunk is resident.
    pub fn get(&self, addr: Addr) -> Option<&ShadowObject<R>> {
        let (key, off) = split(addr);
        self.core
            .lookup(key)
            .map(|idx| self.core.payload(idx).byte(off))
    }

    /// Resolves the head of `addr..addr+len` that lies in one chunk,
    /// once, exactly as [`crate::ShadowTable::run_mut`] does: the same
    /// allocation, eviction and counters. The run is `min(len, bytes
    /// left in the chunk)` long ([`GranuleRun::len`]); `None` for
    /// `len == 0`.
    #[inline]
    pub fn run_mut(&mut self, addr: Addr, len: usize) -> Option<GranuleRun<'_, R>> {
        let ResolvedRun { idx, off, len } = self.core.resolve_run(addr, len)?;
        let (chunk, splits) = self.core.payload_mut(idx);
        Some(GranuleRun {
            chunk,
            splits,
            off,
            len,
        })
    }

    /// Walks the cells of `addr..addr+len` in byte order, chunk run by
    /// chunk run, calling `f(cells, weight)` on each (see
    /// [`GranuleRun::cells_mut`]).
    pub fn cells_mut(
        &mut self,
        mut addr: Addr,
        mut len: usize,
        mut f: impl FnMut(&mut [ShadowObject<R>], u64),
    ) {
        while let Some(mut run) = self.run_mut(addr, len) {
            let consumed = run.len();
            run.cells_mut(0, consumed, &mut f);
            addr = addr.wrapping_add(consumed as u64);
            len -= consumed;
        }
    }

    /// Evicts the chunk with key `key` (see [`crate::chunk_key`]) if it
    /// is resident, exactly as the limiter would. Returns whether a chunk
    /// was evicted.
    pub fn evict_key(&mut self, key: u64) -> bool {
        self.core.evict_key(key)
    }

    /// Number of resident chunks.
    pub fn chunk_count(&self) -> usize {
        self.core.chunk_count()
    }

    /// Granules currently split into byte slots, over resident chunks.
    pub fn split_granules(&self) -> u64 {
        self.core.splits
    }

    /// Residency and hot-path counters. `resident_slots` counts the
    /// objects held: one per granule plus four per split granule.
    /// `resident_bytes` counts everything held for resident chunks: the
    /// granule objects, the split markers and the split byte slots.
    pub fn stats(&self) -> MemoryStats {
        Self::price(self.core.stats(0, 0), self.split_granules())
    }

    /// Prices `chunks.resident_chunks` chunks holding `splits` split
    /// granules as a granule table holds them, keeping `chunks`'
    /// counters. This is how a table assembled from several (a sharded
    /// replay's residency oracle plus its workers' split counts) prices
    /// its footprint identically to one table.
    pub fn price(chunks: MemoryStats, splits: u64) -> MemoryStats {
        let chunk_bytes =
            CHUNK_GRANULES * (std::mem::size_of::<ShadowObject<R>>() + std::mem::size_of::<u16>());
        MemoryStats {
            resident_slots: chunks.resident_chunks * CHUNK_GRANULES as u64
                + splits * GRANULE_BYTES as u64,
            resident_bytes: chunks.resident_chunks * chunk_bytes as u64
                + splits * std::mem::size_of::<Split<R>>() as u64,
            ..chunks
        }
    }

    /// Every resident cell with its byte weight, in unspecified order.
    pub fn cells(&self) -> impl Iterator<Item = (&ShadowObject<R>, u64)> {
        self.core.iter().flat_map(|(_, chunk)| chunk.cells())
    }
}

impl<R: ReuseSlot> Default for GranuleTable<R> {
    fn default() -> Self {
        GranuleTable::new()
    }
}

impl<R> fmt::Debug for GranuleTable<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GranuleTable")
            .field("chunks", &self.core.chunk_count())
            .field("chunk_limit", &self.core.chunk_limit())
            .field("split_granules", &self.core.splits)
            .field("accesses", &self.core.accesses)
            .field("evicted_chunks", &self.core.evicted_chunks)
            .finish()
    }
}

/// One chunk run of a [`GranuleTable`], resolved once by
/// [`GranuleTable::run_mut`].
pub struct GranuleRun<'a, R> {
    chunk: &'a mut GranuleChunk<R>,
    splits: &'a mut u64,
    /// The run's first byte, as an offset in its chunk.
    off: usize,
    /// The run's length in bytes.
    len: usize,
}

impl<R: ReuseSlot> GranuleRun<'_, R> {
    /// The run's length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the run is empty; a resolved run never is.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Walks the cells of bytes `skip..skip + len` of the run in byte
    /// order, calling `f(cells, weight)` on each maximal slice: whole
    /// granules the range covers entirely come as one slice of weight 4,
    /// and each split or partly covered granule as its covered byte
    /// slots, of weight 1.
    ///
    /// A partly covered whole granule is split first. After `f` has run
    /// on a split granule's bytes, the granule merges back if its four
    /// byte slots are equal.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the run.
    pub fn cells_mut(
        &mut self,
        skip: usize,
        len: usize,
        f: impl FnMut(&mut [ShadowObject<R>], u64),
    ) {
        assert!(skip + len <= self.len, "cells past the end of the run");
        self.chunk.cells_mut(self.off + skip, len, self.splits, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Owner, ReuseInfo, CHUNK_SLOTS};
    use sigil_trace::CallNumber;

    fn owner(ctx: u32) -> Owner {
        Owner::new(ctx, CallNumber::from_raw(u64::from(ctx) + 1), 0)
    }

    fn write(table: &mut GranuleTable, addr: Addr, len: usize, who: Owner) -> Vec<(usize, u64)> {
        let mut seen = Vec::new();
        table.cells_mut(addr, len, |cells, weight| {
            seen.push((cells.len(), weight));
            cells.iter_mut().for_each(|c| c.record_write(who));
        });
        seen
    }

    #[test]
    fn aligned_accesses_never_split() {
        let mut table: GranuleTable = GranuleTable::new();
        assert_eq!(write(&mut table, 0x100, 64, owner(1)), vec![(16, 4)]);
        assert_eq!(table.split_granules(), 0);
        assert_eq!(
            table.get(0x13f).and_then(|o| o.last_writer()),
            Some(owner(1))
        );
        assert_eq!(table.get(0x140).and_then(|o| o.last_writer()), None);
    }

    #[test]
    fn a_partial_access_splits_and_a_covering_one_merges() {
        let mut table: GranuleTable = GranuleTable::new();
        // Bytes 1..7: byte slots of granule 0, then of granule 1.
        assert_eq!(
            write(&mut table, 1, 6, owner(1)),
            vec![(3, 1), (3, 1)],
            "two partly covered granules"
        );
        assert_eq!(table.split_granules(), 2);
        assert_eq!(table.get(0).and_then(|o| o.last_writer()), None);
        assert_eq!(table.get(1).and_then(|o| o.last_writer()), Some(owner(1)));
        // A whole-granule write over split granules walks byte slots and
        // merges each once its bytes agree.
        assert_eq!(write(&mut table, 0, 8, owner(2)), vec![(4, 1), (4, 1)]);
        assert_eq!(table.split_granules(), 0);
        // Whole again: the next covering write is one weight-4 run.
        assert_eq!(write(&mut table, 0, 8, owner(3)), vec![(2, 4)]);
    }

    #[test]
    fn completing_a_granule_byte_by_byte_merges_it() {
        let mut table: GranuleTable = GranuleTable::new();
        for (i, addr) in (8..12).enumerate() {
            write(&mut table, addr, 1, owner(5));
            let expected = u64::from(i < 3);
            assert_eq!(table.split_granules(), expected, "after byte {addr}");
        }
    }

    #[test]
    fn merging_keeps_the_other_split_granules_addressable() {
        // swap_remove moves the last split entry into the merged one's
        // index; its granule's marker must follow it.
        let mut table: GranuleTable = GranuleTable::new();
        for g in 0..3u64 {
            write(&mut table, g * 4 + 1, 1, owner(g as u32 + 1));
        }
        assert_eq!(table.split_granules(), 3);
        write(&mut table, 0, 4, owner(9)); // merges granule 0
        assert_eq!(table.split_granules(), 2);
        assert_eq!(table.get(5).and_then(|o| o.last_writer()), Some(owner(2)));
        assert_eq!(table.get(9).and_then(|o| o.last_writer()), Some(owner(3)));
        assert_eq!(table.get(8).and_then(|o| o.last_writer()), None);
    }

    #[test]
    fn eviction_drops_split_granules_and_recycling_clears_them() {
        let mut table: GranuleTable = GranuleTable::with_chunk_limit(1, EvictionPolicy::Fifo);
        write(&mut table, 1, 1, owner(1));
        write(&mut table, 6, 1, owner(1));
        assert_eq!(table.split_granules(), 2);
        write(&mut table, CHUNK_SLOTS as u64, 4, owner(2)); // evicts chunk 0
        assert_eq!(table.split_granules(), 0);
        // Chunk 0 comes back on the recycled slab entry: all invalid,
        // all whole.
        assert_eq!(write(&mut table, 0, 8, owner(3)), vec![(2, 4)]);
        assert_eq!(table.get(1).and_then(|o| o.last_writer()), Some(owner(3)));
        assert_eq!(table.split_granules(), 0);
    }

    #[test]
    fn stats_price_granules_markers_and_split_slots() {
        let mut table: GranuleTable<ReuseInfo> = GranuleTable::new();
        table.cells_mut(0, 1, |_, _| {});
        table.cells_mut(CHUNK_SLOTS as u64 + 2, 1, |_, _| {});
        // A read-like touch leaves the byte equal to its siblings, so the
        // granule merged straight back; make one split stick.
        table.cells_mut(2, 1, |cells, _| cells[0].record_write(owner(1)));
        let stats = table.stats();
        assert_eq!(stats.resident_chunks, 2);
        assert_eq!(table.split_granules(), 1);
        assert_eq!(stats.resident_slots, 2 * CHUNK_GRANULES as u64 + 4);
        let chunk = CHUNK_GRANULES * (56 + 2);
        let split = std::mem::size_of::<Split<ReuseInfo>>();
        assert_eq!(stats.resident_bytes, (2 * chunk + split) as u64);
        let cells: u64 = table.cells().map(|(_, w)| w).sum();
        assert_eq!(cells, 2 * CHUNK_SLOTS as u64, "cells cover every byte once");
    }
}

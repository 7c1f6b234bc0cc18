//! Phase-sliced communication profiles.
//!
//! The aggregate profile answers "how much does pair *(A, B)*
//! communicate"; a [`PhaseProfile`] answers "**when**". Call and
//! transfer tallies are folded into fixed-width buckets along the
//! *phase clock* — the cumulative count of event-stream-visible retired
//! ops — keyed by `(producer context, consumer context)`.
//!
//! # The phase clock
//!
//! The bucket axis must be computable identically by three independent
//! paths: the serial profiler, the sharded profiler (through the
//! [`crate::shard::ShardFragment`] merge monoid), and a bounded-memory
//! streaming fold over an SGEB `.evb` file that never sees the shadow
//! memory. The full op clock does not survive into the event stream
//! (returns, thread switches, and zero-size accesses retire ops but
//! leave no record), so the phase clock counts exactly the ops the
//! event representation *can* see, in stream order:
//!
//! * a `Call` record (function call or syscall entry) ticks the clock
//!   by 1, and the call itself is tallied at the **pre**-tick time;
//! * a `Compute { ops }` record advances the clock by `ops` — in replay
//!   terms, every increment of the open frame's pending-op counter
//!   (explicit ops, branches, and each non-empty read/write access)
//!   ticks the clock by 1 at the moment it happens;
//! * a `Transfer` is tallied at the current clock — for a read access,
//!   *after* the access's own tick, matching the event file where the
//!   pending-compute flush precedes the transfer records.
//!
//! Ops retired with no open frame are dropped from the event file, so
//! they do not tick the phase clock either. Replay keeps the clock in its
//! timeline (`crate::timeline`), beside the frames and the event file's
//! emission rules, so both tick in the same place.
//!
//! # Bucketing
//!
//! A timestamp `t` lands in bucket `t / bucket_ops` — boundary
//! timestamps belong to the *higher* bucket, and the last bucket is a
//! plain half-open interval like every other (nothing is clamped into
//! it). Only non-empty buckets are stored, sorted by index; pairs are
//! sorted by `(from, to)`. Two equal profiles therefore serialize to
//! identical bytes, which is how the serial/sharded/streaming
//! equivalence is asserted in tests and CI.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use sigil_callgrind::ContextId;

/// One non-empty bucket of a pair's activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseBucket {
    /// Bucket index: `timestamp / bucket_ops`.
    pub index: u64,
    /// Calls from `from` entering `to` in this bucket.
    pub calls: u64,
    /// Unique bytes flowing `from → to` in this bucket.
    pub xfer_bytes: u64,
}

/// Bucketed activity of one `(producer, consumer)` context pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhasePair {
    /// Producing (for transfers) or calling (for calls) context.
    pub from: ContextId,
    /// Consuming or called context.
    pub to: ContextId,
    /// Non-empty buckets, sorted by index.
    pub buckets: Vec<PhaseBucket>,
}

/// A communication profile sliced into fixed-width phase buckets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Bucket width along the phase clock, in retired ops.
    pub bucket_ops: u64,
    /// Pair rows, sorted by `(from, to)`.
    pub pairs: Vec<PhasePair>,
}

impl PhaseProfile {
    /// An empty profile with the given bucket width (clamped to ≥ 1).
    pub fn empty(bucket_ops: u64) -> Self {
        PhaseProfile {
            bucket_ops: bucket_ops.max(1),
            pairs: Vec::new(),
        }
    }

    /// Number of buckets spanned: one past the highest non-empty index
    /// (0 for an empty profile).
    pub fn num_buckets(&self) -> u64 {
        self.pairs
            .iter()
            .flat_map(|p| p.buckets.iter())
            .map(|b| b.index.saturating_add(1))
            .max()
            .unwrap_or(0)
    }

    /// Folds `other` into `self` cell by cell. Commutative and
    /// associative with [`PhaseProfile::empty`] as identity — the merge
    /// the shard workers' per-fragment profiles flow through.
    ///
    /// # Panics
    ///
    /// Panics if the bucket widths differ (shards always share one
    /// config, so this is a programming error).
    pub fn merge(&mut self, other: &PhaseProfile) {
        assert_eq!(
            self.bucket_ops, other.bucket_ops,
            "merging phase profiles with different bucket widths"
        );
        let mut builder = PhaseBuilder::new(self.bucket_ops);
        builder.absorb(self);
        builder.absorb(other);
        *self = builder.finish();
    }
}

/// Accumulates call/transfer tallies and renders them as a canonical
/// (sorted, sparse) [`PhaseProfile`].
///
/// Consecutive tallies almost always hit the same cell, so the latest
/// cell's sums stay pending and reach the cell map only when a tally
/// names another cell, or in [`PhaseBuilder::absorb`] and
/// [`PhaseBuilder::finish`]. Sums saturate as they would cell by cell:
/// saturating addition of non-negative values is associative.
#[derive(Debug, Clone)]
pub struct PhaseBuilder {
    bucket_ops: u64,
    cells: BTreeMap<(ContextId, ContextId), BTreeMap<u64, (u64, u64)>>,
    pending: Option<PendingCell>,
}

/// The cell of a [`PhaseBuilder`]'s latest tally, with its sums not yet
/// in the cell map.
#[derive(Debug, Clone, Copy)]
struct PendingCell {
    from: ContextId,
    to: ContextId,
    /// The first phase-clock time of the cell's bucket.
    start: u64,
    calls: u64,
    bytes: u64,
}

impl PhaseBuilder {
    /// A fresh builder with the given bucket width (clamped to ≥ 1).
    pub fn new(bucket_ops: u64) -> Self {
        PhaseBuilder {
            bucket_ops: bucket_ops.max(1),
            cells: BTreeMap::new(),
            pending: None,
        }
    }

    /// The bucket index a phase-clock timestamp falls into.
    pub fn bucket_of(&self, at: u64) -> u64 {
        at / self.bucket_ops
    }

    /// The pending sums of cell `(from, to, bucket_of(at))`, after
    /// flushing those of any other cell.
    #[inline]
    fn cell(&mut self, from: ContextId, to: ContextId, at: u64) -> &mut PendingCell {
        let hit = self.pending.as_ref().is_some_and(|cell| {
            cell.from == from
                && cell.to == to
                && at >= cell.start
                && at - cell.start < self.bucket_ops
        });
        if !hit {
            self.flush();
            self.pending = Some(PendingCell {
                from,
                to,
                start: self.bucket_of(at) * self.bucket_ops,
                calls: 0,
                bytes: 0,
            });
        }
        self.pending.as_mut().expect("a cell is pending")
    }

    /// Adds the pending sums to their cell in the map.
    fn flush(&mut self) {
        if let Some(pending) = self.pending.take() {
            let index = self.bucket_of(pending.start);
            let cell = self
                .cells
                .entry((pending.from, pending.to))
                .or_default()
                .entry(index)
                .or_insert((0, 0));
            cell.0 += pending.calls;
            cell.1 = cell.1.saturating_add(pending.bytes);
        }
    }

    /// Tallies one call `from → to` at phase time `at`.
    pub fn record_call(&mut self, from: ContextId, to: ContextId, at: u64) {
        self.cell(from, to, at).calls += 1;
    }

    /// Tallies `bytes` transferred `from → to` at phase time `at`.
    pub fn record_transfer(&mut self, from: ContextId, to: ContextId, at: u64, bytes: u64) {
        if bytes > 0 {
            let cell = self.cell(from, to, at);
            cell.bytes = cell.bytes.saturating_add(bytes);
        }
    }

    /// Folds an already-built profile into the builder (used by
    /// [`PhaseProfile::merge`]).
    ///
    /// # Panics
    ///
    /// Panics if the bucket widths differ.
    pub fn absorb(&mut self, profile: &PhaseProfile) {
        assert_eq!(self.bucket_ops, profile.bucket_ops, "bucket width mismatch");
        self.flush();
        for pair in &profile.pairs {
            let row = self.cells.entry((pair.from, pair.to)).or_default();
            for bucket in &pair.buckets {
                let cell = row.entry(bucket.index).or_insert((0, 0));
                cell.0 += bucket.calls;
                cell.1 += bucket.xfer_bytes;
            }
        }
    }

    /// Renders the canonical profile: pairs sorted by `(from, to)`,
    /// buckets sorted by index, empty cells dropped.
    pub fn finish(mut self) -> PhaseProfile {
        self.flush();
        let pairs = self
            .cells
            .into_iter()
            .filter_map(|((from, to), row)| {
                let buckets: Vec<PhaseBucket> = row
                    .into_iter()
                    .filter(|&(_, (calls, bytes))| calls > 0 || bytes > 0)
                    .map(|(index, (calls, xfer_bytes))| PhaseBucket {
                        index,
                        calls,
                        xfer_bytes,
                    })
                    .collect();
                (!buckets.is_empty()).then_some(PhasePair { from, to, buckets })
            })
            .collect();
        PhaseProfile {
            bucket_ops: self.bucket_ops,
            pairs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_timestamps_land_in_the_higher_bucket() {
        let mut b = PhaseBuilder::new(100);
        b.record_call(ContextId(1), ContextId(2), 99);
        b.record_call(ContextId(1), ContextId(2), 100);
        b.record_transfer(ContextId(1), ContextId(2), 199, 8);
        b.record_transfer(ContextId(1), ContextId(2), 200, 4);
        let profile = b.finish();
        assert_eq!(profile.pairs.len(), 1);
        assert_eq!(
            profile.pairs[0].buckets,
            vec![
                PhaseBucket {
                    index: 0,
                    calls: 1,
                    xfer_bytes: 0
                },
                PhaseBucket {
                    index: 1,
                    calls: 1,
                    xfer_bytes: 8
                },
                PhaseBucket {
                    index: 2,
                    calls: 0,
                    xfer_bytes: 4
                },
            ]
        );
        assert_eq!(profile.num_buckets(), 3);
    }

    #[test]
    fn zero_width_clamps_and_zero_byte_transfers_vanish() {
        let mut b = PhaseBuilder::new(0);
        assert_eq!(b.bucket_of(7), 7, "width clamped to 1");
        b.record_transfer(ContextId(0), ContextId(1), 3, 0);
        assert_eq!(b.finish().pairs, Vec::new());
        assert_eq!(PhaseProfile::empty(0).bucket_ops, 1);
    }

    #[test]
    fn merge_is_commutative_with_empty_identity() {
        let mut a = PhaseBuilder::new(10);
        a.record_call(ContextId(1), ContextId(2), 5);
        a.record_transfer(ContextId(2), ContextId(3), 25, 16);
        let a = a.finish();
        let mut b = PhaseBuilder::new(10);
        b.record_call(ContextId(1), ContextId(2), 7);
        b.record_transfer(ContextId(0), ContextId(1), 3, 2);
        let b = b.finish();

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        let mut with_empty = a.clone();
        with_empty.merge(&PhaseProfile::empty(10));
        assert_eq!(with_empty, a);

        // Same cell sums.
        assert_eq!(ab.pairs[1].buckets[0].calls, 2);
    }

    #[test]
    fn serde_round_trip_is_byte_stable() {
        let mut b = PhaseBuilder::new(50);
        b.record_call(ContextId(3), ContextId(4), 0);
        b.record_transfer(ContextId(1), ContextId(4), 120, 64);
        let profile = b.finish();
        let json = serde_json::to_string(&profile).expect("serializes");
        let back: PhaseProfile = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, profile);
        assert_eq!(serde_json::to_string(&back).expect("re-serializes"), json);
    }
}

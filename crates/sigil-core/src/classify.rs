//! The Table-I kernel (§II-B), shared by serial replay and the shard
//! workers.
//!
//! [`Tally`] owns everything classified bytes add to a profile: the
//! per-context communication counts, the producer→consumer edges and, in
//! reuse mode, the per-context reuse aggregates. [`Tally::read`] and
//! [`Tally::write`] are the only code that advances a [`ShadowObject`].
//! They step **cells** of a [`GranuleTable`], each with its byte weight:
//! 4 for a whole granule, 1 for a split byte. A cell's bytes share one
//! state, so stepping it once and counting its weight is exactly what a
//! per-byte pass over those bytes would do. The kernel is generic over
//! the slot's reuse part ([`ReuseSlot`]): the default mode runs it on
//! 32-byte `ShadowObject`s with no reuse step compiled in, reuse mode on
//! 56-byte `ShadowObject<ReuseInfo>`s.
//! What is globally ordered — event-file and phase-profile transfers —
//! goes back to the caller in [`Transfers`]: serial replay hands it to
//! its timeline and phase builder as it goes, a shard worker keys it by
//! `(access, part)` for the journal's replay
//! ([`crate::timeline::Timeline::take_events`]).

use std::collections::HashMap;

use sigil_callgrind::ContextId;
use sigil_mem::{GranuleTable, MemoryStats, Owner, ReuseInfo, ReuseSlot, ShadowObject};
use sigil_trace::{CallNumber, FunctionId, Timestamp};

use crate::phase::PhaseProfile;
use crate::reuse::ContextReuse;
use crate::shard::ShardFragment;
use crate::stats::{CommEdge, CommStats};

/// Unique and non-unique byte counts.
#[derive(Debug, Clone, Copy, Default)]
struct ByteCounts {
    unique: u64,
    nonunique: u64,
}

impl ByteCounts {
    fn add(&mut self, repeat: bool, bytes: u64) {
        if repeat {
            self.nonunique += bytes;
        } else {
            self.unique += bytes;
        }
    }
}

/// The consuming side of a read: owner tag, function identity and
/// op-clock timestamp, fixed for the whole access.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reader {
    pub(crate) owner: Owner,
    pub(crate) func: Option<FunctionId>,
    pub(crate) at: Timestamp,
}

/// The transfer segments of one read, in byte order. Consecutive bytes
/// from one producer share a segment, so pushing them in order through
/// the event file's coalescing reproduces the per-byte stream exactly.
#[derive(Debug, Default)]
pub(crate) struct Transfers {
    events_on: bool,
    phases_on: bool,
    /// Event-file dependencies: `(producer call, bytes)`.
    pub(crate) calls: Vec<(CallNumber, u64)>,
    /// Phase-profile transfers: `(producer context, bytes)`. Kept apart
    /// from `calls`: phases stay on when event recording is off, and
    /// bucket by producer *context*.
    pub(crate) ctxs: Vec<(ContextId, u64)>,
}

impl Transfers {
    pub(crate) fn new(events_on: bool, phases_on: bool) -> Self {
        Transfers {
            events_on,
            phases_on,
            ..Transfers::default()
        }
    }

    pub(crate) fn clear(&mut self) {
        self.calls.clear();
        self.ctxs.clear();
    }
}

/// Extends the last segment by `bytes` when `key` matches it, else opens
/// one.
fn push_bytes<K: PartialEq>(segments: &mut Vec<(K, u64)>, key: K, bytes: u64) {
    match segments.last_mut() {
        Some((last, len)) if *last == key => *len += bytes,
        _ => segments.push((key, bytes)),
    }
}

/// Closes a reader's reuse record over `bytes` bytes (its lifetime ends
/// with the call that read it) into the reader's context row.
fn record_reuse(reuse: &mut Vec<ContextReuse>, reader: Owner, info: ReuseInfo, bytes: u64) {
    let idx = reader.ctx() as usize;
    while reuse.len() <= idx {
        let next = ContextId(u32::try_from(reuse.len()).expect("context count fits u32"));
        reuse.push(ContextReuse::new(next));
    }
    reuse[idx].record(info.reuse_count, info.lifetime(), bytes);
}

/// A producer→consumer edge key.
type EdgeKey = (ContextId, ContextId);

/// Communication tallies over the bytes one replay classified: the
/// whole address space serially, one shard's chunks in a worker.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Per-context tallies (index = raw context id).
    comm: Vec<CommStats>,
    /// Edge counts, in first-seen order, found through `edge_index`.
    edges: Vec<(EdgeKey, ByteCounts)>,
    edge_index: HashMap<EdgeKey, usize>,
    /// The last edge charged and its index in `edges`: consecutive reads
    /// overwhelmingly charge the same edge, so they skip the hash.
    last_edge: Option<(EdgeKey, usize)>,
    /// Per-context reuse aggregates (reuse mode only).
    reuse: Option<Vec<ContextReuse>>,
}

impl Tally {
    /// An empty tally for a replay over `ShadowObject<R>` slots. It keeps
    /// reuse rows exactly when `R` keeps a reuse record, so the slot type
    /// is the one place reuse mode is decided.
    pub(crate) fn for_slot<R: ReuseSlot>() -> Self {
        Tally {
            reuse: R::default().info().map(|_| Vec::new()),
            ..Tally::default()
        }
    }

    pub(crate) fn comm_mut(&mut self, ctx: ContextId) -> &mut CommStats {
        let idx = ctx.index();
        if idx >= self.comm.len() {
            self.comm.resize(idx + 1, CommStats::default());
        }
        &mut self.comm[idx]
    }

    /// Charges one producer segment — consecutive bytes sharing a
    /// last-writer context — to the producer's output and the edge.
    fn flush_producer(&mut self, producer: ContextId, consumer: ContextId, seg: ByteCounts) {
        let stats = self.comm_mut(producer);
        stats.output_unique_bytes += seg.unique;
        stats.output_nonunique_bytes += seg.nonunique;
        let key = (producer, consumer);
        let idx = match self.last_edge {
            Some((last, idx)) if last == key => idx,
            _ => {
                let next = self.edges.len();
                let idx = *self.edge_index.entry(key).or_insert(next);
                if idx == next {
                    self.edges.push((key, ByteCounts::default()));
                }
                self.last_edge = Some((key, idx));
                idx
            }
        };
        let edge = &mut self.edges[idx].1;
        edge.unique += seg.unique;
        edge.nonunique += seg.nonunique;
    }

    /// Closes `reader`'s reuse record `info` over `bytes` bytes. Only
    /// slots that keep a record produce one, and their tally keeps reuse
    /// rows.
    fn close_reuse(&mut self, reader: Owner, info: ReuseInfo, bytes: u64) {
        let reuse = self
            .reuse
            .as_mut()
            .expect("a reuse slot's tally keeps reuse rows");
        record_reuse(reuse, reader, info, bytes);
    }

    /// Starts classifying one read access by `reader`. Feed it the
    /// access's cells in byte order through [`Read::cells`], then call
    /// [`Read::finish`]. `producer_fn` resolves a last writer's context
    /// to its function. Transfer segments are appended to `out`;
    /// `bytes_read` is the caller's, which sees the whole access.
    pub(crate) fn read<'a, F>(
        &'a mut self,
        reader: Reader,
        producer_fn: F,
        out: &'a mut Transfers,
    ) -> Read<'a, F>
    where
        F: Fn(ContextId) -> Option<FunctionId>,
    {
        Read {
            tally: self,
            out,
            reader,
            producer_fn,
            local: ByteCounts::default(),
            input: ByteCounts::default(),
            inter: ByteCounts::default(),
            seg: None,
            producer_fn_memo: None,
        }
    }

    /// Makes `writer` the producer of `cells`, each covering `weight`
    /// bytes, closing any open reuse records (`bytes_written` is the
    /// caller's).
    pub(crate) fn write<R: ReuseSlot>(
        &mut self,
        cells: &mut [ShadowObject<R>],
        weight: u64,
        writer: Owner,
    ) {
        for obj in cells {
            if let Some(info) = obj.reuse().info() {
                if let Some(reader) = obj.last_reader() {
                    self.close_reuse(reader, info, weight);
                }
            }
            obj.record_write(writer);
        }
    }

    /// Closes the reuse records of bytes still live at the end of the
    /// run; a tally over slots without one has nothing to close. A shard
    /// owns exactly its chunks, so the union of the shards' flushes is
    /// the serial table's.
    pub(crate) fn flush_live_reuse<R: ReuseSlot>(&mut self, table: &GranuleTable<R>) {
        if let Some(reuse) = self.reuse.as_mut() {
            for (obj, weight) in table.cells() {
                if let (Some(reader), Some(info)) = (obj.last_reader(), obj.reuse().info()) {
                    record_reuse(reuse, reader, info, weight);
                }
            }
        }
    }

    /// The tallies as a merge-layer fragment, edges sorted by
    /// `(producer, consumer)`.
    pub(crate) fn into_fragment(
        self,
        phases: Option<PhaseProfile>,
        memory: MemoryStats,
    ) -> ShardFragment {
        let mut edges: Vec<CommEdge> = self
            .edges
            .into_iter()
            .map(|((producer, consumer), counts)| CommEdge {
                producer,
                consumer,
                unique_bytes: counts.unique,
                nonunique_bytes: counts.nonunique,
            })
            .collect();
        edges.sort_by_key(|e| (e.producer, e.consumer));
        ShardFragment {
            comm: self.comm,
            edges,
            reuse: self.reuse,
            phases,
            memory,
        }
    }
}

/// One read access being classified; see [`Tally::read`]. It keeps the
/// consumer's class counts, the open producer segment and the producer
/// function memo across all the access's cells, and flushes them once.
pub(crate) struct Read<'a, F> {
    tally: &'a mut Tally,
    out: &'a mut Transfers,
    reader: Reader,
    producer_fn: F,
    local: ByteCounts,
    input: ByteCounts,
    inter: ByteCounts,
    /// The open producer segment: flushed whenever the last-writer
    /// context changes, and at the end.
    seg: Option<(ContextId, ByteCounts)>,
    /// Consecutive bytes overwhelmingly share one last writer.
    producer_fn_memo: Option<(ContextId, Option<FunctionId>)>,
}

impl<F: Fn(ContextId) -> Option<FunctionId>> Read<'_, F> {
    /// Classifies `cells`, each covering `weight` bytes, and advances
    /// their shadow state.
    pub(crate) fn cells<R: ReuseSlot>(&mut self, cells: &mut [ShadowObject<R>], weight: u64) {
        let Reader { owner, func, at } = self.reader;
        let consumer = ContextId(owner.ctx());
        for obj in cells {
            let repeat = obj.is_repeat_read(owner);
            let producer = obj.last_writer();

            // Reuse accounting: a change of reader flushes the previous
            // reader's record (lifetimes are per function call).
            if let Some(info) = obj.reuse().info() {
                if !repeat {
                    if let Some(prev_reader) = obj.last_reader() {
                        self.tally.close_reuse(prev_reader, info, weight);
                        *obj.reuse_mut() = R::default();
                    }
                }
                obj.reuse_mut().record_read(at, !repeat);
            }
            obj.record_read(owner);

            // Never-written bytes are program input, attributed to the
            // synthetic root producer.
            let (producer_ctx, producer_call) = match producer {
                Some(p) => (ContextId(p.ctx()), p.call()),
                None => (ContextId::ROOT, CallNumber::ROOT),
            };
            let producer_func = match self.producer_fn_memo {
                Some((memo_ctx, f)) if memo_ctx == producer_ctx => f,
                _ => {
                    let f = (self.producer_fn)(producer_ctx);
                    self.producer_fn_memo = Some((producer_ctx, f));
                    f
                }
            };
            // A last writer on another guest thread makes the byte
            // inter-thread input — disjoint from (and checked before)
            // the local class, so a thread re-reading data a sibling
            // wrote into "its own" function is still charged with the
            // cross-thread transfer.
            let is_inter = producer.is_some_and(|p| p.thread() != owner.thread());
            let is_local = !is_inter && producer.is_some() && producer_func == func;
            if is_inter {
                self.inter.add(repeat, weight);
            } else if is_local {
                self.local.add(repeat, weight);
            } else {
                self.input.add(repeat, weight);
            }
            if !is_local {
                match &mut self.seg {
                    Some((seg_ctx, counts)) if *seg_ctx == producer_ctx => {
                        counts.add(repeat, weight);
                    }
                    _ => {
                        let mut counts = ByteCounts::default();
                        counts.add(repeat, weight);
                        if let Some((prev, prev_counts)) = self.seg.replace((producer_ctx, counts))
                        {
                            self.tally.flush_producer(prev, consumer, prev_counts);
                        }
                    }
                }
            }
            // Event-file dependencies: any unique read of data produced
            // by a *different dynamic call* orders the consumer after
            // the producer — including a later call of the same function
            // (classified *local* above, but still a real dependency
            // between the two call nodes of the Figure 3 construction).
            if !repeat && producer.is_some() && producer_call != owner.call() {
                if self.out.events_on {
                    push_bytes(&mut self.out.calls, producer_call, weight);
                }
                if self.out.phases_on {
                    push_bytes(&mut self.out.ctxs, producer_ctx, weight);
                }
            }
        }
    }

    /// Flushes the access's last producer segment and its consumer
    /// class counts.
    pub(crate) fn finish(self) {
        let consumer = ContextId(self.reader.owner.ctx());
        if let Some((prev, prev_counts)) = self.seg {
            self.tally.flush_producer(prev, consumer, prev_counts);
        }
        let stats = self.tally.comm_mut(consumer);
        stats.local_unique_bytes += self.local.unique;
        stats.local_nonunique_bytes += self.local.nonunique;
        stats.input_unique_bytes += self.input.unique;
        stats.input_nonunique_bytes += self.input.nonunique;
        stats.inter_thread_unique_bytes += self.inter.unique;
        stats.inter_thread_nonunique_bytes += self.inter.nonunique;
    }
}

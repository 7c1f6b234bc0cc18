//! The per-byte Table-I kernel (§II-B), shared by serial replay and the
//! shard workers.
//!
//! [`Tally`] owns everything classified bytes add to a profile: the
//! per-context communication counts, the producer→consumer edges and, in
//! reuse mode, the per-context reuse aggregates. [`Tally::read`] and
//! [`Tally::write`] are the only code that advances a [`ShadowObject`].
//! What is globally ordered — event-file and phase-profile transfers —
//! goes back to the caller in [`Transfers`]: serial replay sequences it
//! at the phase clock as it goes, a shard worker keys it by access index
//! for [`crate::shard::sequence_events`].

use std::collections::HashMap;

use sigil_callgrind::ContextId;
use sigil_mem::{MemoryStats, Owner, ReuseInfo, ShadowObject, ShadowTable};
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
    fn add(&mut self, repeat: bool) {
        if repeat {
            self.nonunique += 1;
        } else {
            self.unique += 1;
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

/// Extends the last segment when `key` matches it, else opens one.
fn push_byte<K: PartialEq>(segments: &mut Vec<(K, u64)>, key: K) {
    match segments.last_mut() {
        Some((last, bytes)) if *last == key => *bytes += 1,
        _ => segments.push((key, 1)),
    }
}

/// Closes a reader's reuse record (its lifetime ends with the call that
/// read it) into the reader's context row.
fn record_reuse(reuse: &mut Vec<ContextReuse>, reader: Owner, info: ReuseInfo) {
    let idx = reader.ctx as usize;
    while reuse.len() <= idx {
        let next = ContextId(u32::try_from(reuse.len()).expect("context count fits u32"));
        reuse.push(ContextReuse::new(next));
    }
    reuse[idx].record(info.reuse_count, info.lifetime());
}

/// Communication tallies over the bytes one replay classified: the
/// whole address space serially, one shard's chunks in a worker.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Per-context tallies (index = raw context id).
    comm: Vec<CommStats>,
    edges: HashMap<(ContextId, ContextId), ByteCounts>,
    /// Per-context reuse aggregates (reuse mode only).
    reuse: Option<Vec<ContextReuse>>,
}

impl Tally {
    pub(crate) fn new(reuse_mode: bool) -> Self {
        Tally {
            reuse: reuse_mode.then(Vec::new),
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
        let edge = self.edges.entry((producer, consumer)).or_default();
        edge.unique += seg.unique;
        edge.nonunique += seg.nonunique;
    }

    /// Classifies a read of `slots` and advances their shadow state.
    /// `producer_fn` resolves a last writer's context to its function.
    /// Transfer segments are appended to `out`; `bytes_read` is the
    /// caller's, which sees the whole access.
    pub(crate) fn read(
        &mut self,
        slots: &mut [ShadowObject],
        reader: Reader,
        producer_fn: impl Fn(ContextId) -> Option<FunctionId>,
        out: &mut Transfers,
    ) {
        let Reader { owner, func, at } = reader;
        let consumer = ContextId(owner.ctx);
        // Consumer classes flush once, at the end; producer segments
        // flush whenever the last-writer context changes.
        let mut local = ByteCounts::default();
        let mut input = ByteCounts::default();
        let mut inter = ByteCounts::default();
        let mut seg: Option<(ContextId, ByteCounts)> = None;
        // Consecutive bytes overwhelmingly share one last writer.
        let mut producer_fn_memo: Option<(ContextId, Option<FunctionId>)> = None;
        for obj in slots {
            let repeat = obj.is_repeat_read(owner);
            let producer = obj.last_writer;

            // Reuse accounting: a change of reader flushes the previous
            // reader's record (lifetimes are per function call).
            if let Some(reuse) = self.reuse.as_mut() {
                if !repeat {
                    if let Some(prev_reader) = obj.last_reader {
                        record_reuse(reuse, prev_reader, obj.reuse);
                        obj.reuse.reset();
                    }
                }
                obj.reuse.record_read(at, !repeat);
            }
            obj.record_read(owner);

            // Never-written bytes are program input, attributed to the
            // synthetic root producer.
            let (producer_ctx, producer_call) = match producer {
                Some(p) => (ContextId(p.ctx), p.call),
                None => (ContextId::ROOT, CallNumber::ROOT),
            };
            let producer_func = match producer_fn_memo {
                Some((memo_ctx, f)) if memo_ctx == producer_ctx => f,
                _ => {
                    let f = producer_fn(producer_ctx);
                    producer_fn_memo = Some((producer_ctx, f));
                    f
                }
            };
            // A last writer on another guest thread makes the byte
            // inter-thread input — disjoint from (and checked before)
            // the local class, so a thread re-reading data a sibling
            // wrote into "its own" function is still charged with the
            // cross-thread transfer.
            let is_inter = producer.is_some_and(|p| p.thread != owner.thread);
            let is_local = !is_inter && producer.is_some() && producer_func == func;
            if is_inter {
                inter.add(repeat);
            } else if is_local {
                local.add(repeat);
            } else {
                input.add(repeat);
            }
            if !is_local {
                match &mut seg {
                    Some((seg_ctx, counts)) if *seg_ctx == producer_ctx => counts.add(repeat),
                    _ => {
                        let mut counts = ByteCounts::default();
                        counts.add(repeat);
                        if let Some((prev, prev_counts)) = seg.replace((producer_ctx, counts)) {
                            self.flush_producer(prev, consumer, prev_counts);
                        }
                    }
                }
            }
            // Event-file dependencies: any unique read of data produced
            // by a *different dynamic call* orders the consumer after
            // the producer — including a later call of the same function
            // (classified *local* above, but still a real dependency
            // between the two call nodes of the Figure 3 construction).
            if !repeat && producer.is_some() && producer_call != owner.call {
                if out.events_on {
                    push_byte(&mut out.calls, producer_call);
                }
                if out.phases_on {
                    push_byte(&mut out.ctxs, producer_ctx);
                }
            }
        }

        if let Some((prev, prev_counts)) = seg {
            self.flush_producer(prev, consumer, prev_counts);
        }
        let stats = self.comm_mut(consumer);
        stats.local_unique_bytes += local.unique;
        stats.local_nonunique_bytes += local.nonunique;
        stats.input_unique_bytes += input.unique;
        stats.input_nonunique_bytes += input.nonunique;
        stats.inter_thread_unique_bytes += inter.unique;
        stats.inter_thread_nonunique_bytes += inter.nonunique;
    }

    /// Makes `writer` the producer of `slots`, closing any open reuse
    /// records (`bytes_written` is the caller's).
    pub(crate) fn write(&mut self, slots: &mut [ShadowObject], writer: Owner) {
        for obj in slots {
            if let (Some(reuse), Some(reader)) = (self.reuse.as_mut(), obj.last_reader) {
                record_reuse(reuse, reader, obj.reuse);
            }
            obj.record_write(writer);
        }
    }

    /// Closes the reuse records of bytes still live at the end of the
    /// run. A shard owns exactly its chunks, so the union of the shards'
    /// flushes is the serial table's.
    pub(crate) fn flush_live_reuse(&mut self, table: &ShadowTable<ShadowObject>) {
        if let Some(reuse) = self.reuse.as_mut() {
            for (_, obj) in table.iter() {
                if let Some(reader) = obj.last_reader {
                    record_reuse(reuse, reader, obj.reuse);
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

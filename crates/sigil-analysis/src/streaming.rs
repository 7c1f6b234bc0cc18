//! Single-pass streaming folds over event records (paper §II-C2).
//!
//! The folds consume records one at a time (e.g. straight from a
//! [`ChunkStream`] over the binary format), so peak memory is bounded by
//! one decoded chunk plus the fold state:
//!
//! * [`CriticalPathFold`] is the one evaluation of the critical-path
//!   recurrence. It keeps one finish time and fragment index per dynamic
//!   call and yields the fragment node each record creates;
//!   [`crate::DependencyGraph`] only collects those nodes when the path
//!   itself or a schedule is needed.
//! * [`EventCdfgFold`] aggregates calls, compute ops, and context-pair
//!   transfer bytes into a context tree — the event-level counterpart of
//!   the CDFG, supporting the same merge/inclusive/breakeven-trim
//!   pipeline via [`EventCdfg::trim`].
//! * [`PhaseFold`] recovers the profiler's phase clock and buckets calls
//!   and transfers by it.
//!
//! Each fold's state is O(distinct dynamic calls) / O(contexts), not
//! O(records): compute fragments and transfers — the bulk of a trace —
//! add no state. The per-call state is indexed by call number in a
//! vector whose length stays below `2 × calls held + 1024`; a number
//! past that bound (call `u64::MAX`, or calls 2^20 apart) is kept in an
//! overflow map instead, so memory stays O(distinct calls) whatever the
//! numbers. Aggregation cells are summed in a pending cell while
//! consecutive records hit the same one.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io::Read;

use serde::{Deserialize, Serialize};
use sigil_callgrind::ContextId;
use sigil_core::events_bin::{BinError, ChunkStream};
use sigil_core::{EventRecord, PhaseBuilder, PhaseProfile};
use sigil_trace::CallNumber;

use crate::breakeven::{breakeven_speedup, BusModel};
use crate::call_table::CallTable;
use crate::critical_path::{CommModel, CriticalPathError, FragmentNode};
use crate::merge::{Flow, Forest};

/// A failure while streaming an analysis off a binary event file.
#[derive(Debug)]
pub enum StreamError {
    /// The binary file failed to decode.
    Decode(BinError),
    /// The decoded stream failed the analysis' preconditions.
    Analysis(CriticalPathError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Decode(e) => e.fmt(f),
            StreamError::Analysis(e) => e.fmt(f),
        }
    }
}

impl Error for StreamError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StreamError::Decode(e) => Some(e),
            StreamError::Analysis(e) => Some(e),
        }
    }
}

impl From<BinError> for StreamError {
    fn from(e: BinError) -> Self {
        StreamError::Decode(e)
    }
}

impl From<CriticalPathError> for StreamError {
    fn from(e: CriticalPathError) -> Self {
        StreamError::Analysis(e)
    }
}

/// The critical-path summary a bounded-memory fold can produce: the two
/// numbers of the paper's Figure 13, without the node list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathSummary {
    /// Total retired ops of the run (serial length).
    pub serial_ops: u64,
    /// Length of the longest dependency chain in retired ops.
    pub length_ops: u64,
}

impl PathSummary {
    /// Maximum theoretical function-level parallelism:
    /// serial length / critical-path length.
    pub fn max_parallelism(&self) -> f64 {
        if self.length_ops == 0 {
            1.0
        } else {
            self.serial_ops as f64 / self.length_ops as f64
        }
    }
}

/// Streaming critical-path fold: the recurrence of the paper's Figure 3.
///
/// Pushes records in program order. Calls are non-blocking and every
/// Call or Compute record opens a fragment, numbered in creation order.
/// A fragment starts at the latest of its ordering predecessor (the
/// previous fragment of its call, or the caller fragment that spawned
/// it) and the data it consumes, and finishes `self_ops` later. Per
/// dynamic call the fold keeps only its latest fragment's finish time and
/// index, plus the latest-arriving transfer a pending consumer waits on.
///
/// [`crate::DependencyGraph`] stores the node the fold yields for each
/// record; [`CriticalPathFold::push`] drops it and keeps the
/// [`PathSummary`].
#[derive(Debug, Clone)]
pub struct CriticalPathFold {
    comm: CommModel,
    calls: CallTable<CallState>,
    fragments: usize,
    serial_ops: u64,
    max_finish: u64,
}

impl CriticalPathFold {
    /// A fold with zero-cost transfers (the paper's model).
    pub fn new() -> Self {
        Self::with_comm(CommModel::free())
    }

    /// A fold charging transfer edges under `comm`.
    pub fn with_comm(comm: CommModel) -> Self {
        CriticalPathFold {
            comm,
            calls: CallTable::default(),
            fragments: 0,
            serial_ops: 0,
            max_finish: 0,
        }
    }

    /// Folds one record.
    pub fn push(&mut self, record: &EventRecord) {
        self.fragment(record);
    }

    /// Folds one record and returns the fragment node it creates: one
    /// per Call or Compute record, none for a Transfer. Nodes are
    /// numbered in the order this returns them.
    #[inline]
    pub(crate) fn fragment(&mut self, record: &EventRecord) -> Option<FragmentNode> {
        // A call opens an empty fragment ordered after its spawner's
        // latest one; a compute extends its own call and consumes the
        // data that arrived for it. `slot` is the call's state, whose
        // latest fragment the new one replaces.
        let (call, ctx, ops, order, data, slot) = match *record {
            EventRecord::Call {
                parent_call,
                call,
                ctx,
            } => {
                let order = self.calls.get(parent_call).and_then(|state| state.latest);
                (call, ctx, 0, order, None, self.calls.entry(call))
            }
            EventRecord::Compute { call, ctx, ops } => {
                self.serial_ops = self.serial_ops.saturating_add(ops);
                let slot = self.calls.entry(call);
                (call, ctx, ops, slot.latest, slot.ready.take(), slot)
            }
            EventRecord::Transfer {
                from_call,
                to_call,
                bytes,
            } => {
                let producer = self.calls.get(from_call).and_then(|state| state.latest);
                if let Some((finish, producer)) = producer {
                    let ready = finish.saturating_add(self.comm.latency(bytes));
                    let pending = &mut self.calls.entry(to_call).ready;
                    if pending.is_none_or(|(earlier, _)| ready > earlier) {
                        *pending = Some((ready, producer));
                    }
                }
                return None;
            }
        };
        let index = |pair: Option<(u64, usize)>| pair.map(|(_, i)| i);
        let order_finish = order.map_or(0, |(finish, _)| finish);
        // Data decides the start only by arriving strictly later.
        let (start, pred) = match data {
            Some((ready, producer)) if ready > order_finish => (ready, Some(producer)),
            _ => (order_finish, index(order)),
        };
        let finish = start.saturating_add(ops);
        slot.latest = Some((finish, self.fragments));
        self.fragments += 1;
        self.max_finish = self.max_finish.max(finish);
        Some(FragmentNode {
            call,
            ctx,
            self_ops: ops,
            finish,
            pred,
            order_pred: index(order),
            data_pred: index(data),
        })
    }

    /// Folds a whole record sequence.
    pub fn extend<'a, I: IntoIterator<Item = &'a EventRecord>>(&mut self, records: I) {
        for record in records {
            self.push(record);
        }
    }

    /// Serial length folded so far: total retired ops of every fragment.
    pub fn serial_ops(&self) -> u64 {
        self.serial_ops
    }

    /// The summary of the records folded so far.
    ///
    /// # Errors
    ///
    /// Returns [`CriticalPathError::EmptyEventFile`] when no compute work
    /// was folded, exactly like [`crate::DependencyGraph::critical_path`].
    pub fn summary(&self) -> Result<PathSummary, CriticalPathError> {
        if self.serial_ops == 0 {
            return Err(CriticalPathError::EmptyEventFile);
        }
        Ok(PathSummary {
            serial_ops: self.serial_ops,
            length_ops: self.max_finish,
        })
    }

    /// The final summary; see [`CriticalPathFold::summary`].
    ///
    /// # Errors
    ///
    /// Returns [`CriticalPathError::EmptyEventFile`] when no compute work
    /// was folded.
    pub fn finish(self) -> Result<PathSummary, CriticalPathError> {
        self.summary()
    }
}

impl Default for CriticalPathFold {
    fn default() -> Self {
        Self::new()
    }
}

/// What [`CriticalPathFold`] keeps per dynamic call.
#[derive(Debug, Clone, Copy, Default)]
struct CallState {
    /// `(finish, fragment)` of the call's latest fragment.
    latest: Option<(u64, usize)>,
    /// `(ready, producer fragment)` of the latest-arriving transfer the
    /// call's next compute consumes; a tie keeps the first producer.
    ready: Option<(u64, usize)>,
}

/// Streams a binary event file through [`CriticalPathFold`] with memory
/// bounded by one chunk plus the per-call state.
///
/// # Errors
///
/// Fails on a malformed file or an event stream with no compute work.
pub fn critical_path_from_bin<R: Read>(
    source: R,
    comm: &CommModel,
) -> Result<PathSummary, StreamError> {
    let _span = sigil_obs::span("analysis:critical_path_stream");
    let mut fold = CriticalPathFold::with_comm(*comm);
    ChunkStream::new(source)?.for_each(|record| fold.push(record))?;
    Ok(fold.finish()?)
}

/// One node of the event-level context tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventNode {
    /// The context.
    pub ctx: ContextId,
    /// Parent context, as witnessed by the first call into `ctx`
    /// (`None` until a call record names it, and for the root).
    pub parent: Option<ContextId>,
    /// Child contexts, in first-call order.
    pub children: Vec<ContextId>,
    /// Dynamic calls into this context.
    pub calls: u64,
    /// Compute fragments attributed to this context.
    pub fragments: u64,
    /// Retired ops attributed to this context (exclusive).
    pub ops: u64,
}

impl EventNode {
    fn new(ctx: ContextId) -> Self {
        EventNode {
            ctx,
            parent: None,
            children: Vec::new(),
            calls: 0,
            fragments: 0,
            ops: 0,
        }
    }
}

/// A context-pair data edge aggregated from transfer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventEdge {
    /// Producing context.
    pub producer: ContextId,
    /// Consuming context.
    pub consumer: ContextId,
    /// Unique bytes moved.
    pub bytes: u64,
}

/// Streaming event-level CDFG fold: rebuilds the context tree, per-context
/// compute costs, and context-pair transfer edges from the event stream
/// alone — no profile required.
///
/// Runs of computes in one context, and of transfers between one context
/// pair, are summed in a pending cell that reaches `nodes` or `edges`
/// only when the context or pair changes, or at [`EventCdfgFold::finish`].
#[derive(Debug, Clone, Default)]
pub struct EventCdfgFold {
    /// Context each dynamic call executes in (the attribution map for
    /// transfer records; `CallNumber::ROOT` is seeded lazily).
    ctx_of: CallTable<ContextId>,
    nodes: BTreeMap<ContextId, EventNode>,
    edges: BTreeMap<(ContextId, ContextId), u64>,
    /// The latest compute's context, with its fragments and ops not yet
    /// in `nodes`.
    computes: Option<(ContextId, u64, u64)>,
    /// The latest attributed transfer's pair, with its bytes not yet in
    /// `edges`.
    transfers: Option<((ContextId, ContextId), u64)>,
    /// Transfer bytes whose producer or consumer call was never declared
    /// by a call record (malformed or truncated streams).
    unattributed_bytes: u64,
}

impl EventCdfgFold {
    /// An empty fold.
    pub fn new() -> Self {
        EventCdfgFold::default()
    }

    fn node(&mut self, ctx: ContextId) -> &mut EventNode {
        self.nodes.entry(ctx).or_insert_with(|| EventNode::new(ctx))
    }

    /// Folds one record.
    pub fn push(&mut self, record: &EventRecord) {
        match *record {
            EventRecord::Call {
                parent_call,
                call,
                ctx,
            } => {
                let parent_ctx = if parent_call == CallNumber::ROOT {
                    ContextId::ROOT
                } else {
                    self.ctx_of
                        .get(parent_call)
                        .copied()
                        .unwrap_or(ContextId::ROOT)
                };
                *self.ctx_of.entry(call) = ctx;
                self.node(parent_ctx);
                let node = self.node(ctx);
                node.calls += 1;
                // Only the first call record naming a context links it to
                // a parent. Until then no call runs in that context, so it
                // has no children, cannot be `parent_ctx` itself, and the
                // link cannot close a cycle: parent links always form a
                // forest.
                if node.parent.is_none() && ctx != ContextId::ROOT {
                    node.parent = Some(parent_ctx);
                    self.node(parent_ctx).children.push(ctx);
                }
            }
            EventRecord::Compute { ctx, ops, .. } => match &mut self.computes {
                Some((pending, fragments, sum)) if *pending == ctx => {
                    *fragments += 1;
                    *sum = sum.saturating_add(ops);
                }
                _ => {
                    self.flush_computes();
                    self.computes = Some((ctx, 1, ops));
                }
            },
            EventRecord::Transfer {
                from_call,
                to_call,
                bytes,
            } => {
                let producer = self.ctx_of.get(from_call).copied();
                let consumer = self.ctx_of.get(to_call).copied();
                let (Some(p), Some(c)) = (producer, consumer) else {
                    self.unattributed_bytes = self.unattributed_bytes.saturating_add(bytes);
                    return;
                };
                match &mut self.transfers {
                    Some((pair, sum)) if *pair == (p, c) => *sum = sum.saturating_add(bytes),
                    _ => {
                        self.flush_transfers();
                        self.transfers = Some(((p, c), bytes));
                    }
                }
            }
        }
    }

    /// Adds the pending computes to their context's node.
    fn flush_computes(&mut self) {
        if let Some((ctx, fragments, ops)) = self.computes.take() {
            let node = self.node(ctx);
            node.fragments += fragments;
            node.ops = node.ops.saturating_add(ops);
        }
    }

    /// Adds the pending transfers to their pair's edge.
    fn flush_transfers(&mut self) {
        if let Some(((p, c), bytes)) = self.transfers.take() {
            self.node(p);
            self.node(c);
            let edge = self.edges.entry((p, c)).or_insert(0);
            *edge = edge.saturating_add(bytes);
        }
    }

    /// Folds a whole record sequence.
    pub fn extend<'a, I: IntoIterator<Item = &'a EventRecord>>(&mut self, records: I) {
        for record in records {
            self.push(record);
        }
    }

    /// The finished event-level CDFG.
    pub fn finish(mut self) -> EventCdfg {
        self.flush_computes();
        self.flush_transfers();
        EventCdfg {
            nodes: self.nodes,
            edges: self
                .edges
                .into_iter()
                .map(|((producer, consumer), bytes)| EventEdge {
                    producer,
                    consumer,
                    bytes,
                })
                .collect(),
            unattributed_bytes: self.unattributed_bytes,
        }
    }
}

/// Inclusive (merged-subtree) quantities of one event-level context:
/// the event-stream analogue of [`crate::inclusive::InclusiveCosts`],
/// with retired ops standing in for estimated cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventInclusive {
    /// Retired ops of the merged sub-tree.
    pub ops: u64,
    /// Bytes flowing into the merged box.
    pub in_bytes: u64,
    /// Bytes flowing out of the merged box.
    pub out_bytes: u64,
}

/// One accelerator candidate selected from the event-level tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventCandidate {
    /// The merged context.
    pub ctx: ContextId,
    /// Breakeven speedup with ops as the cycle proxy.
    pub breakeven: f64,
    /// Retired ops of the merged sub-tree.
    pub inclusive_ops: u64,
    /// Bytes entering the merged box.
    pub in_bytes: u64,
    /// Bytes leaving the merged box.
    pub out_bytes: u64,
}

/// The event-level CDFG: context tree plus aggregated data edges.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EventCdfg {
    nodes: BTreeMap<ContextId, EventNode>,
    edges: Vec<EventEdge>,
    unattributed_bytes: u64,
}

impl EventCdfg {
    /// Builds the CDFG from an in-memory record slice (the reference the
    /// streaming path is tested against).
    pub fn from_records<'a, I: IntoIterator<Item = &'a EventRecord>>(records: I) -> Self {
        let mut fold = EventCdfgFold::new();
        fold.extend(records);
        fold.finish()
    }

    /// The nodes, ordered by context id.
    pub fn nodes(&self) -> impl Iterator<Item = &EventNode> {
        self.nodes.values()
    }

    /// Looks up one node.
    pub fn node(&self, ctx: ContextId) -> Option<&EventNode> {
        self.nodes.get(&ctx)
    }

    /// The aggregated data edges, ordered by (producer, consumer).
    pub fn edges(&self) -> &[EventEdge] {
        &self.edges
    }

    /// Transfer bytes that could not be attributed to a context pair.
    pub fn unattributed_bytes(&self) -> u64 {
        self.unattributed_bytes
    }

    /// Number of contexts.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The context tree as a forest over the sorted context ids, and the
    /// inclusive quantities of every context, indexed alike.
    fn merged(&self) -> (Vec<ContextId>, Forest, Vec<EventInclusive>) {
        let ids: Vec<ContextId> = self.nodes.keys().copied().collect();
        // The fold makes a node for every context it links or charges.
        let pos = |ctx: ContextId| ids.binary_search(&ctx).expect("context has a node");
        let forest = Forest::new(
            self.nodes
                .values()
                .map(|node| node.children.iter().map(|&c| pos(c)).collect())
                .collect(),
        );
        let mut table: Vec<EventInclusive> = self
            .nodes
            .values()
            .map(|node| EventInclusive {
                ops: node.ops,
                ..EventInclusive::default()
            })
            .collect();
        forest.sum_subtrees(&mut table, |up, below| {
            up.ops = up.ops.saturating_add(below.ops)
        });
        for edge in &self.edges {
            forest.crossings(pos(edge.producer), pos(edge.consumer), |node, flow| {
                let row = &mut table[node];
                match flow {
                    Flow::In => row.in_bytes = row.in_bytes.saturating_add(edge.bytes),
                    Flow::Out => row.out_bytes = row.out_bytes.saturating_add(edge.bytes),
                }
            });
        }
        (ids, forest, table)
    }

    /// Inclusive quantities for every context: sub-tree ops plus the
    /// bytes crossing each merged box (edges internal to a box are
    /// discarded, exactly as [`crate::inclusive::inclusive_table`] does
    /// on the profile-based CDFG).
    pub fn inclusive(&self) -> BTreeMap<ContextId, EventInclusive> {
        let (ids, _, table) = self.merged();
        ids.into_iter().zip(table).collect()
    }

    /// Trims the event-level tree into accelerator candidates with the
    /// same merge heuristic as [`crate::partition::trim_calltree`]:
    /// merge a sub-tree into its root when that root's breakeven (ops as
    /// the cycle proxy) is at least as good as the best candidate below
    /// it. The program entry (child of the root context) is never a
    /// candidate; sub-trees under `min_ops` are noise-floored out.
    pub fn trim(&self, bus: &BusModel, min_ops: u64) -> Vec<EventCandidate> {
        let (ids, forest, inclusive) = self.merged();
        let Ok(root) = ids.binary_search(&ContextId::ROOT) else {
            return Vec::new();
        };
        let breakevens: Vec<f64> = self
            .nodes
            .values()
            .zip(&inclusive)
            .map(|(node, inc)| {
                if node.parent != Some(ContextId::ROOT) && inc.ops >= min_ops.max(1) {
                    breakeven_speedup(
                        inc.ops as f64,
                        bus.transfer_cycles(inc.in_bytes),
                        bus.transfer_cycles(inc.out_bytes),
                    )
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let mut leaves: Vec<EventCandidate> = forest
            .trim(root, &breakevens)
            .into_iter()
            .map(|node| EventCandidate {
                ctx: ids[node],
                breakeven: breakevens[node],
                inclusive_ops: inclusive[node].ops,
                in_bytes: inclusive[node].in_bytes,
                out_bytes: inclusive[node].out_bytes,
            })
            .collect();
        leaves.sort_by(|a, b| {
            a.breakeven
                .partial_cmp(&b.breakeven)
                .expect("breakevens are never NaN")
                .then_with(|| b.inclusive_ops.cmp(&a.inclusive_ops))
                .then_with(|| a.ctx.cmp(&b.ctx))
        });
        leaves
    }
}

/// Streams a binary event file through [`EventCdfgFold`] with memory
/// bounded by one chunk plus the per-context/per-call state.
///
/// # Errors
///
/// Fails on a malformed file.
pub fn event_cdfg_from_bin<R: Read>(source: R) -> Result<EventCdfg, StreamError> {
    let _span = sigil_obs::span("analysis:event_cdfg_stream");
    let mut fold = EventCdfgFold::new();
    ChunkStream::new(source)?.for_each(|record| fold.push(record))?;
    Ok(fold.finish())
}

/// Streaming phase-profile fold: rebuilds the profiler's
/// [`PhaseProfile`] from the event stream alone.
///
/// The phase clock is recovered by replaying the profiler's tick rules
/// over the records in program order:
///
/// * a `Call` record is tallied at the *pre-tick* clock, then advances
///   the clock by one (the call itself retires one op);
/// * a `Compute` fragment advances the clock by its `ops`;
/// * a `Transfer` is tallied at the current clock (its consuming read
///   already retired inside the preceding compute fragment).
///
/// Because the profiler only ticks for work the event file also
/// sees, the recovered clock — and therefore every bucket index — is
/// identical to the in-memory profiler's, making the fold's output
/// byte-identical to `Profile::phases` for the same bucket width. State
/// is O(distinct dynamic calls) for attribution plus O(occupied cells):
/// bounded, stream-friendly memory.
///
/// Transfers naming a call no `Call` record declared (malformed or
/// truncated streams) are attributed to [`ContextId::ROOT`].
#[derive(Debug, Clone)]
pub struct PhaseFold {
    builder: PhaseBuilder,
    /// Context each dynamic call executes in.
    ctx_of: CallTable<ContextId>,
    /// Recovered phase clock (retired ops since trace start).
    clock: u64,
}

impl PhaseFold {
    /// An empty fold bucketing at `bucket_ops` retired ops per phase
    /// (`0` is clamped to `1`).
    pub fn new(bucket_ops: u64) -> Self {
        PhaseFold {
            builder: PhaseBuilder::new(bucket_ops),
            ctx_of: CallTable::default(),
            clock: 0,
        }
    }

    fn ctx_or_root(&self, call: CallNumber) -> ContextId {
        if call == CallNumber::ROOT {
            ContextId::ROOT
        } else {
            self.ctx_of.get(call).copied().unwrap_or(ContextId::ROOT)
        }
    }

    /// Folds one record.
    pub fn push(&mut self, record: &EventRecord) {
        match *record {
            EventRecord::Call {
                parent_call,
                call,
                ctx,
            } => {
                let from = self.ctx_or_root(parent_call);
                *self.ctx_of.entry(call) = ctx;
                self.builder.record_call(from, ctx, self.clock);
                self.clock = self.clock.saturating_add(1);
            }
            EventRecord::Compute { ops, .. } => self.clock = self.clock.saturating_add(ops),
            EventRecord::Transfer {
                from_call,
                to_call,
                bytes,
            } => {
                let from = self.ctx_or_root(from_call);
                let to = self.ctx_or_root(to_call);
                self.builder.record_transfer(from, to, self.clock, bytes);
            }
        }
    }

    /// Folds a whole record sequence.
    pub fn extend<'a, I: IntoIterator<Item = &'a EventRecord>>(&mut self, records: I) {
        for record in records {
            self.push(record);
        }
    }

    /// The recovered phase clock so far (total retired ops folded).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The finished profile, in the profiler's canonical shape.
    pub fn finish(self) -> PhaseProfile {
        self.builder.finish()
    }
}

/// Streams a binary event file through [`PhaseFold`] with memory bounded
/// by one chunk plus the attribution map and occupied cells.
///
/// # Errors
///
/// Fails on a malformed file.
pub fn phase_profile_from_bin<R: Read>(
    source: R,
    bucket_ops: u64,
) -> Result<PhaseProfile, StreamError> {
    let _span = sigil_obs::span("analysis:phase_stream");
    let mut fold = PhaseFold::new(bucket_ops);
    ChunkStream::new(source)?.for_each(|record| fold.push(record))?;
    Ok(fold.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::DependencyGraph;
    use proptest::prelude::*;
    use sigil_core::events_bin::encode_events_chunked;
    use sigil_core::{EventFile, SigilConfig, SigilProfiler};
    use sigil_trace::{Engine, OpClass};

    fn call(n: u64) -> CallNumber {
        CallNumber::from_raw(n)
    }

    fn recorded_events<F: FnOnce(&mut Engine<SigilProfiler>)>(body: F) -> EventFile {
        let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default().with_events()));
        body(&mut engine);
        let (p, s) = engine.finish_with_symbols();
        p.into_profile(s).events.expect("events enabled")
    }

    fn diamond() -> EventFile {
        recorded_events(|e| {
            e.scoped_named("main", |e| {
                e.scoped_named("producer", |e| {
                    e.op(OpClass::IntArith, 100);
                    e.write(0x0, 8);
                    e.write(0x100, 8);
                });
                e.scoped_named("worker_a", |e| {
                    e.read(0x0, 8);
                    e.op(OpClass::IntArith, 900);
                });
                e.scoped_named("worker_b", |e| {
                    e.read(0x100, 8);
                    e.op(OpClass::IntArith, 900);
                });
            });
        })
    }

    /// The diamond's summary: the producer's 102 ops, then one worker's
    /// 900 after its 8 bytes arrive (free, or 50 + 8 ops on a bus).
    fn diamond_summary(latency: u64) -> PathSummary {
        PathSummary {
            serial_ops: 102 + 1 + 900 + 1 + 900,
            length_ops: 102 + latency + 900,
        }
    }

    #[test]
    fn fold_yields_the_diamond_graph() {
        let events = diamond();
        let bus = CommModel {
            fixed_ops: 50,
            bytes_per_op: 1.0,
        };
        for (comm, latency) in [(CommModel::free(), 0), (bus, 58)] {
            let mut fold = CriticalPathFold::with_comm(comm);
            let nodes: Vec<FragmentNode> = events
                .records()
                .iter()
                .filter_map(|record| fold.fragment(record))
                .collect();
            assert_eq!(nodes.len(), 4 + 5, "one fragment per call and compute");
            // Fragment 2 is the producer's compute; each worker's second
            // fragment waits for it rather than for its own first one.
            for worker in nodes.iter().filter(|node| node.self_ops == 900) {
                assert_eq!(worker.data_pred, Some(2));
                assert_eq!(worker.pred, Some(2));
                assert_eq!(worker.finish, 102 + latency + 900);
            }
            let summary = fold.finish().expect("compute work");
            assert_eq!(summary, diamond_summary(latency));
            assert!(summary.max_parallelism() > 1.0);
            let graph = DependencyGraph::from_records(events.records().iter().copied(), &comm);
            assert_eq!(graph.nodes(), nodes.as_slice());
        }
    }

    #[test]
    fn fold_from_binary_stream_matches() {
        let bytes = encode_events_chunked(&diamond(), 3);
        let streamed =
            critical_path_from_bin(bytes.as_slice(), &CommModel::free()).expect("clean file");
        assert_eq!(streamed, diamond_summary(0));
    }

    #[test]
    fn empty_stream_is_an_analysis_error() {
        let fold = CriticalPathFold::new();
        assert_eq!(fold.finish(), Err(CriticalPathError::EmptyEventFile));
        let bytes = encode_events_chunked(&EventFile::new(), 4);
        match critical_path_from_bin(bytes.as_slice(), &CommModel::free()) {
            Err(StreamError::Analysis(CriticalPathError::EmptyEventFile)) => {}
            other => panic!("expected EmptyEventFile, got {other:?}"),
        }
    }

    #[test]
    fn event_cdfg_rebuilds_tree_and_edges() {
        let events = diamond();
        let cdfg = EventCdfg::from_records(events.records());
        // root, main, producer, worker_a, worker_b
        assert_eq!(cdfg.len(), 5);
        let root = cdfg.node(ContextId::ROOT).expect("root");
        assert_eq!(root.children.len(), 1, "main is the sole entry");
        let main = cdfg.node(root.children[0]).expect("main");
        assert_eq!(main.children.len(), 3);
        // producer → worker_a and producer → worker_b edges, 8 bytes each.
        assert_eq!(cdfg.edges().len(), 2);
        for edge in cdfg.edges() {
            assert_eq!(edge.producer, main.children[0]);
            assert_eq!(edge.bytes, 8);
        }
        assert_eq!(cdfg.unattributed_bytes(), 0);
        // Total exclusive ops equal the event file's total.
        let total: u64 = cdfg.nodes().map(|n| n.ops).sum();
        assert_eq!(total, events.total_ops());
    }

    #[test]
    fn event_cdfg_streaming_matches_in_memory() {
        let events = diamond();
        let reference = EventCdfg::from_records(events.records());
        let bytes = encode_events_chunked(&events, 2);
        let streamed = event_cdfg_from_bin(bytes.as_slice()).expect("clean file");
        assert_eq!(streamed, reference);
    }

    #[test]
    fn inclusive_discards_internal_edges() {
        let events = diamond();
        let cdfg = EventCdfg::from_records(events.records());
        let inclusive = cdfg.inclusive();
        let root = cdfg.node(ContextId::ROOT).expect("root");
        let main_ctx = root.children[0];
        // Everything is inside main's box: no crossing traffic.
        let main_inc = inclusive[&main_ctx];
        assert_eq!(main_inc.in_bytes, 0);
        assert_eq!(main_inc.out_bytes, 0);
        assert_eq!(main_inc.ops, events.total_ops());
        // The producer's box exports both buffers.
        let producer_ctx = cdfg.node(main_ctx).expect("main").children[0];
        let producer_inc = inclusive[&producer_ctx];
        assert_eq!(producer_inc.out_bytes, 16);
        assert_eq!(producer_inc.in_bytes, 0);
    }

    #[test]
    fn trim_prefers_compute_heavy_subtrees() {
        let events = diamond();
        let cdfg = EventCdfg::from_records(events.records());
        let candidates = cdfg.trim(&BusModel::soc_default(), 1);
        assert!(!candidates.is_empty());
        // The entry (main) is never a candidate.
        let root = cdfg.node(ContextId::ROOT).expect("root");
        let main_ctx = root.children[0];
        assert!(candidates.iter().all(|c| c.ctx != main_ctx));
        for pair in candidates.windows(2) {
            assert!(pair[0].breakeven <= pair[1].breakeven);
        }
        for c in &candidates {
            assert!(c.breakeven >= 1.0);
        }
    }

    #[test]
    fn phase_fold_matches_profiler_profile() {
        // The fold recovers the profiler's own PhaseProfile from the
        // event stream, byte-for-byte, across bucket widths.
        for width in [1, 3, 64] {
            let mut engine = Engine::new(SigilProfiler::new(
                SigilConfig::default().with_events().with_phases(width),
            ));
            engine.scoped_named("main", |e| {
                e.scoped_named("producer", |e| {
                    e.op(OpClass::IntArith, 7);
                    e.write(0x0, 8);
                    e.write(0x100, 8);
                });
                e.scoped_named("worker_a", |e| {
                    e.read(0x0, 8);
                    e.op(OpClass::IntArith, 11);
                });
                e.scoped_named("worker_b", |e| {
                    e.read(0x100, 8);
                    e.read(0x100, 8); // repeat read: no transfer
                });
            });
            let (p, s) = engine.finish_with_symbols();
            let profile = p.into_profile(s);
            let events = profile.events.as_ref().expect("events on");
            let reference = profile.phases.as_ref().expect("phases on");

            let mut fold = PhaseFold::new(width);
            fold.extend(events.records());
            assert_eq!(fold.clock(), events.total_ops() + 4, "ops + 4 calls");
            let folded = fold.finish();
            assert_eq!(&folded, reference, "width={width}");

            // And the chunked binary path agrees with the in-memory fold.
            let bytes = encode_events_chunked(events, 3);
            let streamed = phase_profile_from_bin(bytes.as_slice(), width).expect("clean file");
            assert_eq!(&streamed, reference, "width={width} (binary)");
        }
    }

    #[test]
    fn phase_fold_attributes_unknown_calls_to_root() {
        let mut fold = PhaseFold::new(10);
        fold.push(&EventRecord::Transfer {
            from_call: call(99),
            to_call: call(98),
            bytes: 16,
        });
        let profile = fold.finish();
        assert_eq!(profile.pairs.len(), 1);
        assert_eq!(profile.pairs[0].from, ContextId::ROOT);
        assert_eq!(profile.pairs[0].to, ContextId::ROOT);
        assert_eq!(profile.pairs[0].buckets[0].xfer_bytes, 16);
    }

    #[test]
    fn malformed_streams_never_panic_the_folds() {
        // Transfers referencing undeclared calls, orphan computes, sums
        // past u64::MAX, and a would-be context cycle all fold cleanly.
        let mut fold = EventCdfgFold::new();
        let records = [
            EventRecord::Transfer {
                from_call: call(99),
                to_call: call(98),
                bytes: u64::MAX,
            },
            EventRecord::Transfer {
                from_call: call(99),
                to_call: call(98),
                bytes: u64::MAX,
            },
            EventRecord::Compute {
                call: call(50),
                ctx: ContextId(7),
                ops: u64::MAX,
            },
            EventRecord::Compute {
                call: call(50),
                ctx: ContextId(7),
                ops: u64::MAX,
            },
            EventRecord::Call {
                parent_call: call(1),
                call: call(2),
                ctx: ContextId(3),
            },
            EventRecord::Call {
                parent_call: call(2),
                call: call(3),
                ctx: ContextId(4),
            },
            // ctx 3's parent is already set; this tries to re-parent and
            // must not create a 3↔4 cycle.
            EventRecord::Call {
                parent_call: call(3),
                call: call(4),
                ctx: ContextId(3),
            },
        ];
        for r in &records {
            fold.push(r);
        }
        let cdfg = fold.finish();
        assert_eq!(cdfg.unattributed_bytes(), u64::MAX);
        let _ = cdfg.inclusive();
        let _ = cdfg.trim(&BusModel::soc_default(), 1);

        let mut cp = CriticalPathFold::new();
        for r in &records {
            cp.push(r);
        }
        cp.finish().expect("compute work present");

        // The phase clock and the two transfers sharing a bucket saturate.
        let mut phases = PhaseFold::new(1);
        phases.extend(&records);
        assert_eq!(phases.clock(), u64::MAX);
        let profile = phases.finish();
        assert_eq!(profile.pairs[0].buckets[0].xfer_bytes, u64::MAX);
        assert_eq!(
            profile.num_buckets(),
            u64::MAX,
            "calls at the saturated clock"
        );
    }

    #[test]
    fn transfers_alternating_between_two_pairs_sum_per_pair() {
        let mut records = vec![
            EventRecord::Call {
                parent_call: CallNumber::ROOT,
                call: call(1),
                ctx: ContextId(1),
            },
            EventRecord::Call {
                parent_call: call(1),
                call: call(2),
                ctx: ContextId(2),
            },
            EventRecord::Call {
                parent_call: call(1),
                call: call(3),
                ctx: ContextId(3),
            },
        ];
        // 1 → 2 carries the odd byte counts and 1 → 3 the even ones; the
        // computes alternate between the two consumers.
        for i in 0..10u64 {
            let (consumer, ctx) = (call(2 + i % 2), ContextId(2 + (i % 2) as u32));
            records.push(EventRecord::Transfer {
                from_call: call(1),
                to_call: consumer,
                bytes: i + 1,
            });
            records.push(EventRecord::Compute {
                call: consumer,
                ctx,
                ops: i,
            });
        }
        // A zero-byte transfer still names its pair.
        records.push(EventRecord::Transfer {
            from_call: call(2),
            to_call: call(3),
            bytes: 0,
        });
        let cdfg = EventCdfg::from_records(&records);
        let edge = |producer: u32, consumer: u32, bytes: u64| EventEdge {
            producer: ContextId(producer),
            consumer: ContextId(consumer),
            bytes,
        };
        assert_eq!(
            cdfg.edges(),
            [edge(1, 2, 25), edge(1, 3, 30), edge(2, 3, 0)].as_slice()
        );
        let node = |ctx: u32| cdfg.node(ContextId(ctx)).expect("node");
        assert_eq!((node(2).fragments, node(2).ops), (5, 20));
        assert_eq!((node(3).fragments, node(3).ops), (5, 25));
    }

    /// `records` with every call number but the root's mapped by `f`.
    fn renumbered(records: &[EventRecord], f: fn(u64) -> u64) -> Vec<EventRecord> {
        let map = |n: CallNumber| {
            CallNumber::from_raw(if n == CallNumber::ROOT {
                0
            } else {
                f(n.as_raw())
            })
        };
        records
            .iter()
            .map(|record| match *record {
                EventRecord::Call {
                    parent_call,
                    call,
                    ctx,
                } => EventRecord::Call {
                    parent_call: map(parent_call),
                    call: map(call),
                    ctx,
                },
                EventRecord::Compute { call, ctx, ops } => EventRecord::Compute {
                    call: map(call),
                    ctx,
                    ops,
                },
                EventRecord::Transfer {
                    from_call,
                    to_call,
                    bytes,
                } => EventRecord::Transfer {
                    from_call: map(from_call),
                    to_call: map(to_call),
                    bytes,
                },
            })
            .collect()
    }

    /// Call numbers 2^20 apart, and call numbers counting down from
    /// `u64::MAX`.
    const SPREADS: [fn(u64) -> u64; 2] = [|n| n << 20, |n| u64::MAX - n];

    #[test]
    fn far_apart_call_numbers_fold_in_memory_bounded_by_the_calls() {
        // 4,000 calls, each receiving data from its predecessor and
        // computing.
        let mut records = Vec::new();
        for n in 1..=4_000u64 {
            let ctx = ContextId((n % 7 + 1) as u32);
            records.extend([
                EventRecord::Call {
                    parent_call: call(n - 1),
                    call: call(n),
                    ctx,
                },
                EventRecord::Transfer {
                    from_call: call(n - 1),
                    to_call: call(n),
                    bytes: n,
                },
                EventRecord::Compute {
                    call: call(n),
                    ctx,
                    ops: n % 13,
                },
            ]);
        }
        let mut critpath = CriticalPathFold::new();
        critpath.extend(&records);
        let cdfg = EventCdfg::from_records(&records);
        let mut phases = PhaseFold::new(100);
        phases.extend(&records);
        let phases = phases.finish();
        for spread in SPREADS {
            let far = renumbered(&records, spread);
            let mut far_critpath = CriticalPathFold::new();
            let mut far_cdfg = EventCdfgFold::new();
            let mut far_phases = PhaseFold::new(100);
            far_critpath.extend(&far);
            far_cdfg.extend(&far);
            far_phases.extend(&far);
            // Every number lies past the bound, so none is stored densely
            // (a dense range reaching them would need 2^32 slots or more).
            assert_eq!(far_critpath.calls.dense_len(), 0);
            assert_eq!(far_cdfg.ctx_of.dense_len(), 0);
            assert_eq!(far_phases.ctx_of.dense_len(), 0);
            assert_eq!(far_critpath.summary(), critpath.summary());
            assert_eq!(far_cdfg.finish(), cdfg);
            assert_eq!(far_phases.finish(), phases);
        }
    }

    #[test]
    fn deep_call_chains_fold_merge_and_trim() {
        // A 50,000-deep chain retiring 10 ops per level; the deepest
        // level sends 8 bytes back to the entry.
        const DEPTH: u32 = 50_000;
        let mut fold = EventCdfgFold::new();
        for level in 1..=DEPTH {
            let n = u64::from(level);
            fold.push(&EventRecord::Call {
                parent_call: call(n - 1),
                call: call(n),
                ctx: ContextId(level),
            });
            fold.push(&EventRecord::Compute {
                call: call(n),
                ctx: ContextId(level),
                ops: 10,
            });
        }
        fold.push(&EventRecord::Transfer {
            from_call: call(DEPTH.into()),
            to_call: call(1),
            bytes: 8,
        });
        let cdfg = fold.finish();
        let inclusive = cdfg.inclusive();
        assert_eq!(inclusive[&ContextId(1)].ops, 10 * u64::from(DEPTH));
        assert_eq!(inclusive[&ContextId(1)].out_bytes, 0);
        assert_eq!(inclusive[&ContextId(2)].out_bytes, 8);
        // Level 2 hides the most work behind the same 8 bytes.
        let candidates = cdfg.trim(&BusModel::soc_default(), 1);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].ctx, ContextId(2));
    }

    fn arb_record() -> impl Strategy<Value = EventRecord> {
        prop_oneof![
            (0..6u64, 0..6u64, 0..5u32).prop_map(|(p, c, x)| EventRecord::Call {
                parent_call: call(p),
                call: call(c),
                ctx: ContextId(x),
            }),
            (0..6u64, 0..5u32, 0..100u64).prop_map(|(c, x, ops)| EventRecord::Compute {
                call: call(c),
                ctx: ContextId(x),
                ops,
            }),
            (0..6u64, 0..6u64, 0..100u64).prop_map(|(f, t, bytes)| EventRecord::Transfer {
                from_call: call(f),
                to_call: call(t),
                bytes,
            }),
        ]
    }

    proptest! {
        #[test]
        fn spread_call_numbers_fold_like_dense_ones(
            records in prop::collection::vec(arb_record(), 0..120),
        ) {
            let comm = CommModel::free();
            let dense = DependencyGraph::from_records(records.iter().copied(), &comm);
            for spread in SPREADS {
                let far = renumbered(&records, spread);
                let graph = DependencyGraph::from_records(far.iter().copied(), &comm);
                prop_assert_eq!(graph.serial_ops(), dense.serial_ops());
                for (node, want) in graph.nodes().iter().zip(dense.nodes()) {
                    prop_assert_eq!(
                        (node.finish, node.pred, node.order_pred, node.data_pred),
                        (want.finish, want.pred, want.order_pred, want.data_pred)
                    );
                }
                prop_assert_eq!(EventCdfg::from_records(&far), EventCdfg::from_records(&records));
                let (mut near_phases, mut far_phases) = (PhaseFold::new(7), PhaseFold::new(7));
                near_phases.extend(&records);
                far_phases.extend(&far);
                prop_assert_eq!(far_phases.finish(), near_phases.finish());
            }
        }

        #[test]
        fn folded_parent_links_form_a_forest(records in prop::collection::vec(arb_record(), 0..120)) {
            let cdfg = EventCdfg::from_records(&records);
            for node in cdfg.nodes() {
                let (mut cursor, mut steps) = (node.parent, 0);
                while let Some(ctx) = cursor {
                    steps += 1;
                    prop_assert!(steps <= cdfg.len(), "parent links loop from {:?}", node.ctx);
                    cursor = cdfg.node(ctx).expect("every parent has a node").parent;
                }
            }
        }
    }
}

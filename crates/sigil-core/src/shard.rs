//! Sharded shadow-memory replay: parallel per-byte classification with
//! serial semantics.
//!
//! The paper's Table-I classification is **per-byte state**: every shadow
//! object evolves only through the ordered sequence of accesses touching
//! *its own address*. Partitioning the address space by 4 KiB chunk
//! (`sigil_mem::chunk_key(addr) % shards`) therefore splits the access
//! stream into `N` independent sub-streams whose per-byte state machines
//! never interact — the replay is order-independent *across* shards as
//! long as each shard sees *its* accesses in program order.
//!
//! Three pieces of state are **not** per-byte and stay on the dispatch
//! thread:
//!
//! * **Global order** — call numbers, timestamps, and the calltree cursor
//!   advance once per event; the dispatcher resolves them and carries the
//!   results (`ctx`, `call`, `reader_fn`, `at`) inside each
//!   [`AccessRecord`], so workers never consult shared state.
//! * **Residency** — chunk eviction is a *global* decision (the limit
//!   spans the whole table, FIFO/LRU order interleaves all chunks). With
//!   a `shadow_chunk_limit` the dispatcher runs a zero-sized residency
//!   oracle (`ShadowTable<()>`) through the identical run sequence; its
//!   logged victims are mirrored to the owning shard
//!   (`ShadowTable::evict_key`) *between* the same runs as in serial
//!   replay, so per-shard tables reproduce the serial residency — and the
//!   oracle's counters reproduce the serial [`MemoryStats`] exactly.
//!   **Without** a limit there are no evictions and residency is no
//!   longer a global decision at all: the oracle is *elided*, each worker
//!   owns the residency of its own chunks (disjoint sets whose union is
//!   the serial footprint, folded through the commutative
//!   [`ShardFragment`] merge), and the serial table's access counters are
//!   reproduced arithmetically by [`RouteStats`] — dispatch degenerates
//!   to address routing.
//! * **Event order** — the event file is globally ordered. The dispatcher
//!   keeps a compact [`SeqOp`] log; workers return per-access transfer
//!   segments; [`sequence_events`] replays the log with simulated frame
//!   stacks, splicing the segments back in access order with the same
//!   `push_compute`/`push_transfer` coalescing as the serial emitter, so
//!   the reconstructed file is byte-identical.
//!
//! Dispatch itself is **epoch-pipelined**: each access is resolved into
//! chunk runs (plus any eviction mirrors) in a scratch list, then staged
//! into per-shard batches, where consecutive same-shard runs with no
//! intervening eviction coalesce into one [`AccessRecord`] carrying a
//! sub-access `count`/`sub_len` stride (workers reconstruct per-access
//! metadata exactly — see [`can_coalesce`] for the legality argument).
//! Every [`EPOCH_ACCESSES`] accesses all staged batches flush so workers
//! drain epoch *k* while the dispatcher resolves epoch *k+1*. The cost of
//! the dispatch thread is observable through the `dispatch.busy_ns` /
//! `dispatch.resolve_ns` / `dispatch.records_per_access` metrics.
//!
//! Everything a worker *does* produce (communication tallies, edges,
//! reuse aggregates) is a sum over disjoint byte sets, so per-shard
//! fragments merge through the commutative [`ShardFragment::merge`]
//! layer in any order with an identical result — a property pinned by
//! the `shard_merge` proptests.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use sigil_callgrind::{CallTree, ContextId};
use sigil_mem::{chunk_key, chunk_run, MemoryStats, Owner, ShadowObject, ShadowTable, CHUNK_SLOTS};
use sigil_trace::{Addr, CallNumber, FunctionId, Timestamp};

use crate::classify::{Reader, Tally, Transfers};
use crate::config::SigilConfig;
use crate::events_out::EventFile;
use crate::phase::{PhaseBuilder, PhaseProfile};
use crate::reuse::ContextReuse;
use crate::stats::{CommEdge, CommStats};

/// Messages per batch before a channel send.
const BATCH: usize = 256;
/// Batches in flight per worker before the dispatcher blocks
/// (backpressure when workers outnumber cores).
const CHANNEL_DEPTH: usize = 8;
/// Dispatched accesses per staging epoch. Coalescing slows record
/// production, so batches alone would add latency before workers see
/// work; at each epoch boundary every non-empty staging batch flushes,
/// keeping the previous epoch draining while the next one resolves.
const EPOCH_ACCESSES: u64 = 2048;

/// Transfer segments produced by one access, keyed by global access
/// index: `(part, [(producer_call, bytes)])` per chunk run that found
/// cross-call dependencies.
pub(crate) type TransferMap = HashMap<u64, Vec<(u32, Vec<(CallNumber, u64)>)>>;

/// One shadow access run — or a coalesced train of them — pre-resolved
/// on the dispatch thread.
///
/// `addr..addr+len` never crosses a chunk boundary (runs split at chunk
/// edges, and coalescing only extends within a chunk), so a worker
/// applies it with a single `run_mut`.
///
/// A record with `count > 1` carries that many *consecutive whole
/// accesses* coalesced into one message. For reads needing per-access
/// metadata (`sub_len > 0`), sub-access `k` of the train covers
/// `sub_len` bytes starting at `addr + k*sub_len` with index `idx + k`,
/// timestamp `at.advance(k)`, and phase stamp `phase_at + k` — the
/// coalescing predicate ([`can_coalesce`]) admits exactly the trains for
/// which this reconstruction is lossless.
#[derive(Debug, Clone, Copy)]
struct AccessRecord {
    /// Global access index of the train's first access (one per
    /// `Read`/`Write` event, shared by all parts of a straddling
    /// access) — sequences transfers back into program order.
    idx: u64,
    /// Run index within the access, in byte order.
    part: u32,
    write: bool,
    addr: Addr,
    len: u32,
    /// Coalesced accesses in this record (`1` = a plain run).
    count: u32,
    /// Per-sub-access byte stride for coalesced reads; `0` when the
    /// record needs no sub-access reconstruction (writes, plain runs,
    /// straddle parts, free-mode reads).
    sub_len: u32,
    /// The consuming/producing frame's context.
    ctx: ContextId,
    /// Its dynamic call number.
    call: CallNumber,
    /// Guest thread the access ran on (raw thread id) — part of the
    /// owner identity, and the discriminant for inter-thread
    /// classification.
    thread: u32,
    /// The reader's function identity (reads only).
    reader_fn: Option<FunctionId>,
    /// Op-clock timestamp of the (first) access.
    at: Timestamp,
    /// Phase-clock timestamp of the (first) access (post-tick —
    /// includes the access's own retired op), for phase-profile
    /// transfer bucketing.
    phase_at: u64,
}

enum ShardMsg {
    /// Defines the next `defs.len()` context ids' functions (contexts
    /// broadcast in id order, so the ids are implicit). One message per
    /// sync covers every context created since the last one; the `Arc`
    /// is shared across shards instead of cloning the definitions
    /// per-shard.
    CtxDefs(Arc<[Option<FunctionId>]>),
    Access(AccessRecord),
    /// Mirror of a residency-oracle eviction owned by this shard.
    Evict {
        key: u64,
    },
}

/// Globally-ordered event-file operations logged by the dispatcher
/// (events mode only) and replayed by [`sequence_events`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum SeqOp {
    /// A dynamic call was entered (parent comes from the simulated
    /// stack).
    Call { call: CallNumber, ctx: ContextId },
    /// The current frame returned.
    Return,
    /// Flush the current frame's pending ops (thread switch boundary).
    Flush,
    /// Make `thread` current (no flush — `on_finish` drains residual
    /// frames without one, exactly like the serial path).
    Switch { thread: u32 },
    /// `count` retired ops charged to the current frame.
    Ops { count: u64 },
    /// A read access; its transfer segments (if any) are looked up by
    /// index.
    Read { idx: u64 },
}

/// One access resolved against global-order state: either a chunk run
/// bound for its owner shard, or an eviction mirror that must precede
/// the run that triggered it.
#[derive(Debug, Clone, Copy)]
enum ResolvedOp {
    Evict { key: u64 },
    Run { addr: Addr, len: u32 },
}

/// Read-coalescing regime, fixed per engine by the feature set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadCoalesce {
    /// No per-access metadata is consumed by a read (reuse, events,
    /// and phases all off): any contiguous same-owner reads
    /// merge, including straddle parts.
    Free,
    /// Per-access metadata matters: only whole single-run accesses on
    /// an exact `idx`/`at`/`phase_at` stride merge, so workers can
    /// reconstruct each sub-access.
    Strided,
}

/// Arithmetic mirror of an *unbounded* [`ShadowTable`]'s access
/// counters, maintained by the elided-oracle dispatch path.
///
/// With no chunk limit the table's counter evolution is a pure function
/// of the run-key sequence: `run_mut` of `n` slots adds `n` accesses and
/// one run; the run counts `n` MRU hits when its chunk equals the
/// previous run's chunk, else `n - 1` (the first slot pays the probe,
/// and nothing but a run ever moves the MRU cursor when no chunk is
/// ever evicted). Replaying that recurrence here reproduces the serial
/// table's `MemoryStats` counters without instantiating a table.
#[derive(Debug, Default)]
struct RouteStats {
    last_key: Option<u64>,
    accesses: u64,
    mru_hits: u64,
    runs: u64,
    run_bytes: u64,
}

impl RouteStats {
    fn record_run(&mut self, key: u64, n: u64) {
        self.accesses += n;
        self.runs += 1;
        self.run_bytes += n;
        self.mru_hits += if self.last_key == Some(key) { n } else { n - 1 };
        self.last_key = Some(key);
    }
}

/// Dispatch-thread cost and shape counters, exported by the profiler as
/// `dispatch.*` metrics.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct DispatchStats {
    /// Nanoseconds spent in `dispatch_access` (obs-enabled runs only).
    pub(crate) busy_ns: u64,
    /// Nanoseconds of that spent resolving global order (oracle /
    /// routing), before staging (obs-enabled runs only).
    pub(crate) resolve_ns: u64,
    /// Access records staged (after coalescing).
    pub(crate) records: u64,
    /// Accesses dispatched.
    pub(crate) accesses: u64,
}

/// What one worker hands back at join time.
pub(crate) struct ShardResult {
    pub(crate) tally: Tally,
    pub(crate) transfers: TransferMap,
    /// Phase-profile transfer buckets for this shard's bytes (phase
    /// collection only).
    pub(crate) phases: Option<PhaseBuilder>,
    /// The worker table's own counters (telemetry; the engine reads
    /// residency from the workers' shared chunk counts).
    pub(crate) stats: MemoryStats,
    pub(crate) evictions_applied: u64,
    /// Nanoseconds this worker spent applying batches (telemetry).
    pub(crate) busy_ns: u64,
    /// Nanoseconds this worker spent blocked on its channel (telemetry).
    pub(crate) idle_ns: u64,
}

/// Everything the engine hands back after joining its workers.
pub(crate) struct ShardFinish {
    /// The serial-equivalent shadow counters (oracle stats re-priced,
    /// or the elided composition — exact either way).
    pub(crate) memory: MemoryStats,
    pub(crate) dispatch: DispatchStats,
    pub(crate) results: Vec<ShardResult>,
    pub(crate) seq: Vec<SeqOp>,
}

/// One shard's (or the dispatch thread's) contribution to a profile:
/// the commutative merge layer.
///
/// `comm` and `reuse` are indexed by raw context id; `edges` is sorted
/// by `(producer, consumer)`; `phases` folds cell-wise through
/// [`PhaseProfile::merge`]; `memory` sums component-wise. All five
/// merges are commutative and associative, so fragments fold in any
/// permutation to an identical result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardFragment {
    /// Per-context communication tallies (index = raw context id).
    pub comm: Vec<CommStats>,
    /// Producer→consumer edges, sorted by `(producer, consumer)`.
    pub edges: Vec<CommEdge>,
    /// Per-context reuse aggregates (reuse mode only).
    pub reuse: Option<Vec<ContextReuse>>,
    /// Phase-sliced profile slice (phase collection only).
    pub phases: Option<PhaseProfile>,
    /// Shadow-footprint counters.
    pub memory: MemoryStats,
}

impl ShardFragment {
    /// Folds `other` into `self` component-wise; see the type docs for
    /// the algebra.
    pub fn merge(&mut self, other: &ShardFragment) {
        if other.comm.len() > self.comm.len() {
            self.comm.resize(other.comm.len(), CommStats::default());
        }
        for (into, from) in self.comm.iter_mut().zip(&other.comm) {
            into.merge(from);
        }

        if !other.edges.is_empty() {
            let mut map: std::collections::BTreeMap<(ContextId, ContextId), (u64, u64)> =
                std::collections::BTreeMap::new();
            for edge in self.edges.iter().chain(&other.edges) {
                let entry = map.entry((edge.producer, edge.consumer)).or_default();
                entry.0 += edge.unique_bytes;
                entry.1 += edge.nonunique_bytes;
            }
            self.edges = map
                .into_iter()
                .map(|((producer, consumer), (unique, nonunique))| CommEdge {
                    producer,
                    consumer,
                    unique_bytes: unique,
                    nonunique_bytes: nonunique,
                })
                .collect();
        }

        if let Some(from) = &other.reuse {
            let into = self.reuse.get_or_insert_with(Vec::new);
            while into.len() < from.len() {
                let next = ContextId(u32::try_from(into.len()).expect("context count fits u32"));
                into.push(ContextReuse::new(next));
            }
            for (row, other_row) in into.iter_mut().zip(from) {
                row.merge(other_row);
            }
        }

        if let Some(from) = &other.phases {
            match self.phases.as_mut() {
                Some(into) => into.merge(from),
                None => self.phases = Some(from.clone()),
            }
        }

        self.memory = self.memory.combined(other.memory);
    }
}

/// Folds an iterator of fragments into one (order-insensitive).
pub fn merge_fragments(frags: impl IntoIterator<Item = ShardFragment>) -> ShardFragment {
    let mut merged = ShardFragment::default();
    for frag in frags {
        merged.merge(&frag);
    }
    merged
}

impl ShardResult {
    pub(crate) fn into_fragment(self) -> (ShardFragment, TransferMap) {
        let phases = self.phases.map(PhaseBuilder::finish);
        (
            self.tally.into_fragment(phases, MemoryStats::default()),
            self.transfers,
        )
    }
}

/// Decides whether `cand` can extend the coalesced train `prev` (the
/// last staged record of `cand`'s shard, with the staging window still
/// open — no flush, eviction, or context sync in between).
///
/// Always required: same direction, owner (`ctx`, `call`), reader
/// identity, and byte contiguity (`prev` ends where `cand` starts).
/// Contiguity plus same-shard routing implies same-chunk (`N ≥ 2`
/// shards map adjacent chunks to different shards), so a merged record
/// still never straddles a chunk.
///
/// Writes always merge: a write touches per-byte state through the
/// owner alone, so splitting a write train at any boundary is
/// unobservable. Reads merge freely when no per-access metadata is
/// consumed ([`ReadCoalesce::Free`]); otherwise only whole single-run
/// accesses on an exact index/timestamp/phase stride merge
/// ([`ReadCoalesce::Strided`]), which is precisely the shape
/// `apply_access` can split back losslessly.
fn can_coalesce(mode: ReadCoalesce, prev: &AccessRecord, cand: &AccessRecord) -> bool {
    // The thread is part of the owner identity: root frames across
    // guest threads share `(ctx, call)`, so merging across a thread
    // boundary would conflate distinct owners.
    if prev.write != cand.write
        || prev.ctx != cand.ctx
        || prev.call != cand.call
        || prev.thread != cand.thread
        || prev.reader_fn != cand.reader_fn
        || prev.addr.wrapping_add(u64::from(prev.len)) != cand.addr
    {
        return false;
    }
    if cand.write {
        return true;
    }
    match mode {
        ReadCoalesce::Free => true,
        ReadCoalesce::Strided => {
            cand.sub_len > 0
                && cand.sub_len == cand.len
                && prev.sub_len == cand.sub_len
                && cand.idx == prev.idx + u64::from(prev.count)
                && cand.at == prev.at.advance(u64::from(prev.count))
                && cand.phase_at == prev.phase_at + u64::from(prev.count)
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// The dispatch-side engine owned by a sharded [`SigilProfiler`].
pub(crate) struct ShardEngine {
    shards: usize,
    /// Zero-sized residency oracle: replays the exact serial run
    /// sequence, so its counters and its eviction log *are* the serial
    /// table's. `None` when the shadow memory is unbounded: no
    /// evictions can occur, so dispatch elides the table and
    /// [`RouteStats`] reproduces its counters.
    oracle: Option<ShadowTable<()>>,
    /// Counter mirror for the elided-oracle path.
    route: RouteStats,
    senders: Vec<SyncSender<Vec<ShardMsg>>>,
    batches: Vec<Vec<ShardMsg>>,
    /// Whether the last message staged to this shard is an `Access`
    /// still eligible for coalescing (no flush or control message has
    /// closed the window since).
    staging_open: Vec<bool>,
    handles: Vec<Option<JoinHandle<ShardResult>>>,
    /// A worker died before its channel closed: `(shard, panic
    /// message)`, reported on the next dispatch instead of profiling
    /// into the void until join.
    poisoned: Option<(usize, String)>,
    /// Contexts broadcast so far (defs are sent in id order).
    synced_ctxs: usize,
    next_idx: u64,
    events_on: bool,
    seq: Vec<SeqOp>,
    /// Per-access resolution scratch (evictions interleaved before the
    /// runs that triggered them, in serial order).
    scratch_ops: Vec<ResolvedOp>,
    read_coalesce: ReadCoalesce,
    /// Accesses dispatched since the last epoch flush.
    epoch_accesses: u64,
    dispatch: DispatchStats,
    /// Per-worker resident-chunk counts (elided mode), refreshed by each
    /// worker after every batch — mid-run residency reads lag in-flight
    /// batches; the post-join stats are exact.
    resident_chunks: Vec<Arc<AtomicU64>>,
    /// Telemetry (obs-enabled runs only): batches sent per shard, and
    /// the workers' shared drain counters — their difference is the
    /// channel depth sampled into the timeseries at each flush.
    obs_on: bool,
    sent_batches: Vec<u64>,
    received_batches: Vec<Arc<AtomicU64>>,
    /// Pre-built `shard.{i}.depth` gauge keys (no per-flush `format!`).
    depth_keys: Vec<String>,
}

impl std::fmt::Debug for ShardEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardEngine")
            .field("shards", &self.shards)
            .field("oracle_elided", &self.oracle.is_none())
            .field("synced_ctxs", &self.synced_ctxs)
            .field("dispatched_accesses", &self.next_idx)
            .finish_non_exhaustive()
    }
}

impl ShardEngine {
    pub(crate) fn new(config: &SigilConfig) -> Self {
        let shards = config.shards.max(2);
        let oracle = config.shadow_chunk_limit.map(|limit| {
            let mut oracle = ShadowTable::with_chunk_limit(limit, config.eviction);
            oracle.enable_eviction_log();
            oracle
        });
        let read_coalesce =
            if config.reuse_mode || config.record_events || config.phase_bucket_ops.is_some() {
                ReadCoalesce::Strided
            } else {
                ReadCoalesce::Free
            };
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let mut received_batches = Vec::with_capacity(shards);
        let mut resident_chunks = Vec::with_capacity(shards);
        let (reuse_mode, events_on) = (config.reuse_mode, config.record_events);
        let phase_bucket_ops = config.phase_bucket_ops;
        for shard in 0..shards {
            let (tx, rx) = sync_channel::<Vec<ShardMsg>>(CHANNEL_DEPTH);
            senders.push(tx);
            let received = Arc::new(AtomicU64::new(0));
            received_batches.push(Arc::clone(&received));
            let resident = Arc::new(AtomicU64::new(0));
            resident_chunks.push(Arc::clone(&resident));
            let spec = WorkerSpec {
                shard,
                reuse_mode,
                events_on,
                phase_bucket_ops,
                batches_received: received,
                resident_chunks: resident,
            };
            handles.push(Some(
                std::thread::Builder::new()
                    .name(format!("sigil-shard-{shard}"))
                    .spawn(move || shard_worker(spec, rx))
                    .expect("spawn shard worker"),
            ));
        }
        ShardEngine {
            shards,
            oracle,
            route: RouteStats::default(),
            senders,
            batches: (0..shards).map(|_| Vec::with_capacity(BATCH)).collect(),
            staging_open: vec![false; shards],
            handles,
            poisoned: None,
            synced_ctxs: 0,
            next_idx: 0,
            events_on,
            seq: Vec::new(),
            scratch_ops: Vec::new(),
            read_coalesce,
            epoch_accesses: 0,
            dispatch: DispatchStats::default(),
            resident_chunks,
            obs_on: sigil_obs::is_enabled(),
            sent_batches: vec![0; shards],
            received_batches,
            depth_keys: (0..shards).map(|s| format!("shard.{s}.depth")).collect(),
        }
    }

    /// Number of worker shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards
    }

    /// Whether dispatch runs without a residency oracle.
    #[cfg(test)]
    pub(crate) fn oracle_elided(&self) -> bool {
        self.oracle.is_none()
    }

    fn shard_of(&self, key: u64) -> usize {
        (key % self.shards as u64) as usize
    }

    /// Stages a control message (context sync / eviction mirror),
    /// closing the shard's coalescing window: per-byte replay order
    /// within a shard is batch order, so nothing may merge across it.
    fn push_ctl(&mut self, shard: usize, msg: ShardMsg) {
        self.staging_open[shard] = false;
        let batch = &mut self.batches[shard];
        batch.push(msg);
        if batch.len() >= BATCH {
            self.flush_batch(shard);
        }
    }

    /// Stages one resolved run, extending the shard's open coalescing
    /// train when legal.
    fn stage_access(&mut self, shard: usize, rec: AccessRecord) {
        if self.staging_open[shard] {
            if let Some(ShardMsg::Access(prev)) = self.batches[shard].last_mut() {
                if can_coalesce(self.read_coalesce, prev, &rec) {
                    prev.len += rec.len;
                    prev.count += 1;
                    debug_assert_eq!(
                        chunk_key(prev.addr),
                        chunk_key(prev.addr + u64::from(prev.len) - 1),
                        "coalesced records never straddle chunks"
                    );
                    return;
                }
            }
        }
        self.dispatch.records += 1;
        self.staging_open[shard] = true;
        let batch = &mut self.batches[shard];
        batch.push(ShardMsg::Access(rec));
        if batch.len() >= BATCH {
            self.flush_batch(shard);
        }
    }

    fn flush_batch(&mut self, shard: usize) {
        self.staging_open[shard] = false;
        if self.batches[shard].is_empty() {
            return;
        }
        let batch = std::mem::replace(&mut self.batches[shard], Vec::with_capacity(BATCH));
        if self.senders[shard].send(batch).is_err() {
            // The worker hung up mid-run: join it now, capture the
            // panic payload, and let the next dispatch fail fast with
            // the culprit named instead of profiling into the void.
            let message = match self.handles[shard].take() {
                Some(handle) => match handle.join() {
                    Err(payload) => panic_message(payload.as_ref()),
                    Ok(_) => "worker exited before its channel closed".to_owned(),
                },
                None => "worker already joined".to_owned(),
            };
            if self.poisoned.is_none() {
                self.poisoned = Some((shard, message));
            }
            return;
        }
        if self.obs_on {
            self.sent_batches[shard] += 1;
            self.sample_depths(shard);
        }
    }

    /// Samples the flushed shard's channel depth and the whole
    /// pipeline's dispatch backlog (batches sent but not yet drained)
    /// into the timeseries store.
    fn sample_depths(&self, shard: usize) {
        let drained = self.received_batches[shard].load(Ordering::Relaxed);
        let depth = self.sent_batches[shard].saturating_sub(drained);
        sigil_obs::timeseries::record_gauge(&self.depth_keys[shard], depth as f64);
        let sent: u64 = self.sent_batches.iter().sum();
        let received: u64 = self
            .received_batches
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        sigil_obs::timeseries::record_gauge(
            "shard.dispatch_backlog",
            sent.saturating_sub(received) as f64,
        );
        sigil_obs::timeseries::record_counter("shard.batches_sent", 1);
    }

    /// Broadcasts any calltree contexts created since the last sync, so
    /// workers can resolve producer functions from local state. All
    /// pending definitions travel in one `CtxDefs` message per shard
    /// (sharing one allocation), not one message per context per shard.
    pub(crate) fn sync_ctxs(&mut self, tree: &CallTree) {
        if self.synced_ctxs >= tree.len() {
            return;
        }
        let defs: Arc<[Option<FunctionId>]> = (self.synced_ctxs..tree.len())
            .map(|i| {
                let ctx = ContextId(u32::try_from(i).expect("context count fits u32"));
                tree.node(ctx).func
            })
            .collect();
        self.synced_ctxs = tree.len();
        for shard in 0..self.shards {
            self.push_ctl(shard, ShardMsg::CtxDefs(Arc::clone(&defs)));
        }
    }

    pub(crate) fn log_call(&mut self, call: CallNumber, ctx: ContextId) {
        if self.events_on {
            self.seq.push(SeqOp::Call { call, ctx });
        }
    }

    pub(crate) fn log_return(&mut self) {
        if self.events_on {
            self.seq.push(SeqOp::Return);
        }
    }

    /// A thread switch during the run: flush, then switch (serial
    /// `ThreadSwitch` semantics).
    pub(crate) fn log_switch(&mut self, thread: u32) {
        if self.events_on {
            self.seq.push(SeqOp::Flush);
            self.seq.push(SeqOp::Switch { thread });
        }
    }

    /// A thread resumed by `on_finish` frame draining: switch without a
    /// flush (the serial path sets `current_thread` directly).
    pub(crate) fn log_resume(&mut self, thread: u32) {
        if self.events_on {
            self.seq.push(SeqOp::Switch { thread });
        }
    }

    pub(crate) fn log_ops(&mut self, count: u64) {
        if !self.events_on || count == 0 {
            return;
        }
        // Runs of compute coalesce; reads/calls/switches break the run.
        if let Some(SeqOp::Ops { count: last }) = self.seq.last_mut() {
            *last += count;
        } else {
            self.seq.push(SeqOp::Ops { count });
        }
    }

    /// Routes one shadow access. Phase 1 resolves it into chunk runs
    /// (and any evictions they trigger) against the global-order state;
    /// phase 2 stages the resolved ops into per-shard batches,
    /// coalescing where legal; every [`EPOCH_ACCESSES`] accesses all
    /// staged batches flush so workers drain while dispatch resolves
    /// ahead.
    #[allow(clippy::too_many_arguments)] // the flattened AccessRecord fields
    pub(crate) fn dispatch_access(
        &mut self,
        write: bool,
        addr: Addr,
        len: usize,
        ctx: ContextId,
        call: CallNumber,
        thread: u32,
        reader_fn: Option<FunctionId>,
        at: Timestamp,
        phase_at: u64,
    ) {
        if let Some((shard, message)) = self.poisoned.take() {
            panic!("shard worker {shard} panicked: {message}");
        }
        let idx = self.next_idx;
        self.next_idx += 1;
        self.dispatch.accesses += 1;
        self.epoch_accesses += 1;
        if !write && self.events_on {
            self.seq.push(SeqOp::Read { idx });
        }
        let timer = self.obs_on.then(Instant::now);

        // Phase 1: resolve into chunk runs + eviction mirrors.
        self.scratch_ops.clear();
        let mut runs_resolved = 0u32;
        {
            let scratch = &mut self.scratch_ops;
            match self.oracle.as_mut() {
                Some(oracle) => {
                    let mut addr = addr;
                    let mut remaining = len;
                    while remaining > 0 {
                        let (_, consumed) = oracle.run_mut(addr, remaining);
                        // Mirror this run's evictions *before* the run
                        // itself: per victim chunk the eviction follows
                        // all its prior accesses (dispatch order) and
                        // precedes any re-creation.
                        if !oracle.evictions().is_empty() {
                            scratch.extend(
                                oracle
                                    .evictions()
                                    .iter()
                                    .map(|&key| ResolvedOp::Evict { key }),
                            );
                            oracle.clear_evictions();
                        }
                        scratch.push(ResolvedOp::Run {
                            addr,
                            len: u32::try_from(consumed).expect("run fits a chunk"),
                        });
                        runs_resolved += 1;
                        addr = addr.wrapping_add(consumed as u64);
                        remaining -= consumed;
                    }
                }
                None => {
                    // Elided oracle: no evictions are possible, so
                    // resolution is pure address arithmetic plus the
                    // counter recurrence.
                    let route = &mut self.route;
                    let mut addr = addr;
                    let mut remaining = len;
                    while remaining > 0 {
                        let (key, consumed) = chunk_run(addr, remaining);
                        route.record_run(key, consumed as u64);
                        scratch.push(ResolvedOp::Run {
                            addr,
                            len: u32::try_from(consumed).expect("run fits a chunk"),
                        });
                        runs_resolved += 1;
                        addr = addr.wrapping_add(consumed as u64);
                        remaining -= consumed;
                    }
                }
            }
        }
        let resolve_done = timer.map(|_| Instant::now());

        // Phase 2: stage (coalescing) and mirror evictions in order.
        let mut part = 0u32;
        for i in 0..self.scratch_ops.len() {
            match self.scratch_ops[i] {
                ResolvedOp::Evict { key } => {
                    self.push_ctl(self.shard_of(key), ShardMsg::Evict { key });
                }
                ResolvedOp::Run { addr, len } => {
                    let whole_read = !write && runs_resolved == 1;
                    let shard = self.shard_of(chunk_key(addr));
                    self.stage_access(
                        shard,
                        AccessRecord {
                            idx,
                            part,
                            write,
                            addr,
                            len,
                            count: 1,
                            sub_len: if whole_read { len } else { 0 },
                            ctx,
                            call,
                            thread,
                            reader_fn,
                            at,
                            phase_at,
                        },
                    );
                    part += 1;
                }
            }
        }
        if self.epoch_accesses >= EPOCH_ACCESSES {
            self.epoch_accesses = 0;
            for shard in 0..self.shards {
                self.flush_batch(shard);
            }
        }
        if let (Some(t0), Some(t1)) = (timer, resolve_done) {
            self.dispatch.resolve_ns +=
                u64::try_from(t1.duration_since(t0).as_nanos()).unwrap_or(u64::MAX);
            self.dispatch.busy_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }

    /// The serial-equivalent shadow counters.
    ///
    /// With a dispatch oracle these come straight from it (whose `T =
    /// ()` stores no bytes — residency is re-priced at the serial
    /// table's slot size) and are exact at any time. With the oracle
    /// elided the access counters ([`RouteStats`]) are exact, and the
    /// residency comes from the workers' per-batch snapshots — lagging
    /// in-flight batches mid-run, exact once [`ShardEngine::finish`] has
    /// joined the workers (each stores its final count after its last
    /// batch).
    pub(crate) fn memory_stats(&self) -> MemoryStats {
        if let Some(oracle) = &self.oracle {
            let mut stats = oracle.stats();
            stats.resident_bytes =
                stats.resident_slots * std::mem::size_of::<ShadowObject>() as u64;
            return stats;
        }
        let resident_chunks: u64 = self
            .resident_chunks
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        MemoryStats {
            resident_chunks,
            resident_slots: resident_chunks * CHUNK_SLOTS as u64,
            resident_bytes: resident_chunks
                * (CHUNK_SLOTS * std::mem::size_of::<ShadowObject>()) as u64,
            evicted_chunks: 0,
            accesses: self.route.accesses,
            mru_hits: self.route.mru_hits,
            table_probes: self.route.accesses - self.route.mru_hits,
            runs: self.route.runs,
            run_bytes: self.route.run_bytes,
        }
    }

    /// Flushes outstanding batches, closes the channels, joins the
    /// workers, and composes the final serial-equivalent memory stats.
    pub(crate) fn finish(mut self) -> ShardFinish {
        for shard in 0..self.shards {
            self.flush_batch(shard);
        }
        if let Some((shard, message)) = self.poisoned.take() {
            panic!("shard worker {shard} panicked: {message}");
        }
        self.senders.clear();
        let results: Vec<ShardResult> = self
            .handles
            .iter_mut()
            .enumerate()
            .map(|(shard, slot)| {
                let handle = slot.take().expect("worker joined twice");
                match handle.join() {
                    Ok(result) => result,
                    Err(payload) => panic!(
                        "shard worker {shard} panicked: {}",
                        panic_message(payload.as_ref())
                    ),
                }
            })
            .collect();
        ShardFinish {
            // Post-join, so exact: without an oracle the shards own
            // disjoint chunk sets whose union is the serial footprint.
            memory: self.memory_stats(),
            dispatch: self.dispatch,
            results,
            seq: std::mem::take(&mut self.seq),
        }
    }
}

/// Per-worker launch parameters.
struct WorkerSpec {
    shard: usize,
    reuse_mode: bool,
    events_on: bool,
    /// Phase-profile bucket width; `Some` turns on transfer bucketing.
    phase_bucket_ops: Option<u64>,
    /// Telemetry: batches this worker has drained, shared with the
    /// dispatcher's channel-depth sampling.
    batches_received: Arc<AtomicU64>,
    /// Resident-chunk count of this worker's table, refreshed after
    /// every batch for the dispatcher's elided-mode residency reads.
    resident_chunks: Arc<AtomicU64>,
}

/// Per-worker replay state.
struct WorkerState {
    table: ShadowTable<ShadowObject>,
    tally: Tally,
    /// Context → function map, filled by `CtxDefs` broadcasts.
    ctx_funcs: Vec<Option<FunctionId>>,
    /// Per-sub-access transfer scratch.
    scratch: Transfers,
    transfers: TransferMap,
    phases: Option<PhaseBuilder>,
    evictions_applied: u64,
}

fn shard_worker(spec: WorkerSpec, rx: Receiver<Vec<ShardMsg>>) -> ShardResult {
    let _span = sigil_obs::span_with(|| format!("shard-worker-{}", spec.shard));
    let mut state = WorkerState {
        table: ShadowTable::new(),
        tally: Tally::new(spec.reuse_mode),
        ctx_funcs: Vec::new(),
        scratch: Transfers::new(spec.events_on, spec.phase_bucket_ops.is_some()),
        transfers: TransferMap::new(),
        phases: spec.phase_bucket_ops.map(PhaseBuilder::new),
        evictions_applied: 0,
    };
    let mut busy_ns = 0u64;
    let mut idle_ns = 0u64;
    loop {
        let wait = Instant::now();
        let Ok(batch) = rx.recv() else { break };
        idle_ns += u64::try_from(wait.elapsed().as_nanos()).unwrap_or(u64::MAX);
        spec.batches_received.fetch_add(1, Ordering::Relaxed);
        let work = Instant::now();
        for msg in batch {
            match msg {
                ShardMsg::CtxDefs(defs) => state.ctx_funcs.extend(defs.iter().copied()),
                ShardMsg::Evict { key } => {
                    let evicted = state.table.evict_key(key);
                    debug_assert!(evicted, "mirrored victim must be resident");
                    state.evictions_applied += u64::from(evicted);
                }
                ShardMsg::Access(rec) => apply_access(&mut state, rec),
            }
        }
        spec.resident_chunks
            .store(state.table.chunk_count() as u64, Ordering::Relaxed);
        busy_ns += u64::try_from(work.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
    state.tally.flush_live_reuse(&state.table);
    ShardResult {
        stats: state.table.stats(),
        tally: state.tally,
        transfers: state.transfers,
        phases: state.phases,
        evictions_applied: state.evictions_applied,
        busy_ns,
        idle_ns,
    }
}

/// Replays one record through the Table-I kernel. A write train replays
/// as one run — every byte sees the same owner, so sub-access boundaries
/// are unobservable. A read train splits back into its sub-accesses,
/// each with its own index, timestamp and phase stamp.
fn apply_access(state: &mut WorkerState, rec: AccessRecord) {
    let WorkerState {
        table,
        tally,
        ctx_funcs,
        scratch,
        transfers,
        phases,
        ..
    } = state;
    let owner = Owner::new(rec.ctx.0, rec.call, rec.thread);
    let (slots, consumed) = table.run_mut(rec.addr, rec.len as usize);
    debug_assert_eq!(consumed, rec.len as usize, "records never straddle chunks");
    if rec.write {
        tally.write(slots, owner);
        return;
    }
    // Strided trains carry `count` whole accesses of `sub_len` bytes
    // each; everything else (plain runs, straddle parts, free-mode
    // trains) replays as one pass — free-mode records consume none of
    // the per-access metadata reconstructed here.
    let sub_len = if rec.count > 1 && rec.sub_len > 0 {
        rec.sub_len as usize
    } else {
        rec.len as usize
    };
    for (k, sub_slots) in (0u64..).zip(slots.chunks_mut(sub_len)) {
        let reader = Reader {
            owner,
            func: rec.reader_fn,
            at: rec.at.advance(k),
        };
        scratch.clear();
        tally.read(sub_slots, reader, |ctx| ctx_funcs[ctx.index()], scratch);
        if !scratch.calls.is_empty() {
            transfers
                .entry(rec.idx + k)
                .or_default()
                .push((rec.part, std::mem::take(&mut scratch.calls)));
        }
        if let Some(builder) = phases.as_mut() {
            for &(producer_ctx, bytes) in &scratch.ctxs {
                builder.record_transfer(producer_ctx, rec.ctx, rec.phase_at + k, bytes);
            }
        }
    }
}

/// Replays the dispatcher's [`SeqOp`] log against simulated per-thread
/// frame stacks, splicing worker transfer segments back in access
/// order. Mirrors the serial emitter exactly: `push_compute` drops
/// zero-op fragments, `push_transfer` coalesces adjacent same-pair
/// records, a read's pending op is flushed before its transfers.
pub(crate) fn sequence_events(seq: Vec<SeqOp>, transfers: &mut TransferMap) -> EventFile {
    struct SimFrame {
        ctx: ContextId,
        call: CallNumber,
        pending: u64,
    }
    fn flush(events: &mut EventFile, stack: &mut [SimFrame]) {
        if let Some(frame) = stack.last_mut() {
            let ops = frame.pending;
            frame.pending = 0;
            events.push_compute(frame.call, frame.ctx, ops);
        }
    }

    let mut events = EventFile::new();
    let mut stacks: HashMap<u32, Vec<SimFrame>> = HashMap::new();
    let mut current: u32 = 0;
    for op in seq {
        let stack = stacks.entry(current).or_default();
        match op {
            SeqOp::Call { call, ctx } => {
                let parent_call = stack.last().map_or(CallNumber::ROOT, |f| f.call);
                flush(&mut events, stack);
                events.push_call(parent_call, call, ctx);
                stack.push(SimFrame {
                    ctx,
                    call,
                    pending: 0,
                });
            }
            SeqOp::Return => {
                flush(&mut events, stack);
                stack.pop();
            }
            SeqOp::Flush => flush(&mut events, stack),
            SeqOp::Switch { thread } => current = thread,
            SeqOp::Ops { count } => {
                if let Some(frame) = stack.last_mut() {
                    frame.pending += count;
                }
            }
            SeqOp::Read { idx } => {
                if let Some(frame) = stack.last_mut() {
                    frame.pending += 1;
                }
                if let Some(mut parts) = transfers.remove(&idx) {
                    let to_call = stack.last().map_or(CallNumber::ROOT, |f| f.call);
                    parts.sort_by_key(|&(part, _)| part);
                    flush(&mut events, stack);
                    for (_, segs) in parts {
                        for (from_call, bytes) in segs {
                            events.push_transfer(from_call, to_call, bytes);
                        }
                    }
                }
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag(ctx_reads: &[(usize, u64)], edges: &[(u32, u32, u64)]) -> ShardFragment {
        let mut comm = vec![CommStats::default(); 4];
        for &(idx, bytes) in ctx_reads {
            comm[idx].input_unique_bytes += bytes;
        }
        let mut edge_rows: Vec<CommEdge> = edges
            .iter()
            .map(|&(p, c, u)| CommEdge {
                producer: ContextId(p),
                consumer: ContextId(c),
                unique_bytes: u,
                nonunique_bytes: 0,
            })
            .collect();
        edge_rows.sort_by_key(|e| (e.producer, e.consumer));
        ShardFragment {
            comm,
            edges: edge_rows,
            reuse: None,
            phases: None,
            memory: MemoryStats::default(),
        }
    }

    #[test]
    fn fragment_merge_is_commutative() {
        let a = frag(&[(0, 4), (2, 8)], &[(0, 2, 8), (1, 2, 1)]);
        let b = frag(&[(1, 3)], &[(0, 2, 2)]);
        let c = frag(&[(2, 5)], &[(3, 1, 9)]);
        let abc = merge_fragments([a.clone(), b.clone(), c.clone()]);
        let cba = merge_fragments([c, b, a]);
        assert_eq!(abc, cba);
        assert_eq!(abc.comm[2].input_unique_bytes, 13);
        assert_eq!(abc.edges.len(), 3, "same-pair edges coalesce");
        assert!(abc
            .edges
            .windows(2)
            .all(|w| (w[0].producer, w[0].consumer) <= (w[1].producer, w[1].consumer)));
    }

    #[test]
    fn empty_fragment_is_identity() {
        let a = frag(&[(0, 4)], &[(0, 1, 4)]);
        let merged = merge_fragments([ShardFragment::default(), a.clone()]);
        assert_eq!(merged, merge_fragments([a]));
    }

    #[test]
    fn sequencer_reproduces_serial_emission_order() {
        // call main(1) → 3 ops → read with an 8-byte transfer from root
        // → 2 ops → return: the flush before the Transfer counts the 3
        // ops plus the read's own op; the trailing Compute counts the 2
        // ops after.
        let seq = vec![
            SeqOp::Call {
                call: CallNumber::from_raw(1),
                ctx: ContextId(1),
            },
            SeqOp::Ops { count: 3 },
            SeqOp::Read { idx: 0 },
            SeqOp::Ops { count: 2 },
            SeqOp::Return,
        ];
        let mut transfers = TransferMap::new();
        transfers.insert(0, vec![(0, vec![(CallNumber::ROOT, 8)])]);
        let events = sequence_events(seq, &mut transfers);
        use crate::events_out::EventRecord;
        let records = events.records();
        assert_eq!(records.len(), 4);
        assert!(matches!(records[0], EventRecord::Call { .. }));
        assert!(matches!(records[1], EventRecord::Compute { ops: 4, .. }));
        assert!(
            matches!(records[2], EventRecord::Transfer { bytes: 8, to_call, .. }
                if to_call == CallNumber::from_raw(1))
        );
        assert!(matches!(records[3], EventRecord::Compute { ops: 2, .. }));
    }

    #[test]
    fn sequencer_orders_straddling_parts_by_byte_order() {
        // Two parts arriving out of order must splice back in part order
        // and coalesce into one transfer record when the producer call
        // matches.
        let producer = CallNumber::from_raw(7);
        let seq = vec![
            SeqOp::Call {
                call: CallNumber::from_raw(9),
                ctx: ContextId(2),
            },
            SeqOp::Read { idx: 5 },
            SeqOp::Return,
        ];
        let mut transfers = TransferMap::new();
        transfers.insert(5, vec![(1, vec![(producer, 4)]), (0, vec![(producer, 12)])]);
        let events = sequence_events(seq, &mut transfers);
        use crate::events_out::EventRecord;
        let transfer_bytes: Vec<u64> = events
            .records()
            .iter()
            .filter_map(|r| match r {
                EventRecord::Transfer { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(transfer_bytes, vec![16], "parts coalesce in byte order");
    }

    fn rec(write: bool, idx: u64, addr: Addr, len: u32, whole_read: bool) -> AccessRecord {
        AccessRecord {
            idx,
            part: 0,
            write,
            addr,
            len,
            count: 1,
            sub_len: if !write && whole_read { len } else { 0 },
            ctx: ContextId(3),
            call: CallNumber::from_raw(7),
            thread: 0,
            reader_fn: if write {
                None
            } else {
                Some(FunctionId::from_raw(2))
            },
            at: Timestamp::from_raw(100 + idx),
            phase_at: 200 + idx,
        }
    }

    #[test]
    fn writes_coalesce_in_both_modes_when_contiguous_and_same_owner() {
        let prev = rec(true, 0, 0x1000, 16, false);
        let next = rec(true, 1, 0x1010, 16, false);
        assert!(can_coalesce(ReadCoalesce::Free, &prev, &next));
        assert!(can_coalesce(ReadCoalesce::Strided, &prev, &next));

        let gap = rec(true, 1, 0x1018, 16, false);
        assert!(!can_coalesce(ReadCoalesce::Free, &prev, &gap), "gap");
        let mut other_call = next;
        other_call.call = CallNumber::from_raw(8);
        assert!(
            !can_coalesce(ReadCoalesce::Free, &prev, &other_call),
            "owner changed"
        );
        let mut other_thread = next;
        other_thread.thread = 1;
        assert!(
            !can_coalesce(ReadCoalesce::Free, &prev, &other_thread),
            "thread is part of the owner identity"
        );
        let read = rec(false, 1, 0x1010, 16, true);
        assert!(
            !can_coalesce(ReadCoalesce::Free, &prev, &read),
            "direction changed"
        );
    }

    #[test]
    fn strided_reads_require_the_exact_stride() {
        let prev = rec(false, 0, 0x1000, 16, true);
        let good = rec(false, 1, 0x1010, 16, true);
        assert!(can_coalesce(ReadCoalesce::Strided, &prev, &good));

        let mut wrong_len = good;
        wrong_len.len = 8;
        wrong_len.sub_len = 8;
        wrong_len.addr = 0x1010;
        assert!(
            !can_coalesce(ReadCoalesce::Strided, &prev, &wrong_len),
            "stride length changed"
        );

        let mut straddle_part = good;
        straddle_part.sub_len = 0;
        assert!(
            !can_coalesce(ReadCoalesce::Strided, &prev, &straddle_part),
            "straddle parts never merge in strided mode"
        );
        assert!(
            can_coalesce(ReadCoalesce::Free, &prev, &straddle_part),
            "but do in free mode"
        );

        let mut idx_gap = good;
        idx_gap.idx = 2;
        assert!(
            !can_coalesce(ReadCoalesce::Strided, &prev, &idx_gap),
            "an intervening access broke the index stride"
        );
        let mut time_gap = good;
        time_gap.at = Timestamp::from_raw(102);
        assert!(
            !can_coalesce(ReadCoalesce::Strided, &prev, &time_gap),
            "op clock advanced between the accesses"
        );
        let mut phase_gap = good;
        phase_gap.phase_at = 202;
        assert!(
            !can_coalesce(ReadCoalesce::Strided, &prev, &phase_gap),
            "phase clock advanced between the accesses"
        );
    }

    #[test]
    fn coalesced_train_extends_by_stride() {
        // After merging, the train's count/len admit exactly the next
        // stride element — the induction `can_coalesce` relies on.
        let mut train = rec(false, 0, 0x1000, 16, true);
        for k in 1..8u64 {
            let next = rec(false, k, 0x1000 + k * 16, 16, true);
            assert!(can_coalesce(ReadCoalesce::Strided, &train, &next));
            train.len += next.len;
            train.count += 1;
        }
        assert_eq!(train.count, 8);
        assert_eq!(train.len, 128);
        let off_stride = rec(false, 9, 0x1000 + 8 * 16, 16, true);
        assert!(
            !can_coalesce(ReadCoalesce::Strided, &train, &off_stride),
            "skipped index 8"
        );
    }

    #[test]
    fn route_stats_mirror_an_unbounded_table() {
        // The elided-oracle recurrence must match a real unbounded
        // ShadowTable driven through the identical access sequence.
        let accesses: &[(Addr, usize)] = &[
            (0x0000, 64),       // new chunk
            (0x0040, 64),       // MRU hit
            (0x0ff0, 64),       // straddles into chunk 1
            (0x0ff0, 64),       // straddle again: miss (MRU is chunk 1), then hit
            (0x2000, 1),        // new chunk 2
            (0x2000, 4096),     // whole chunk, MRU hit
            (0x0000, 3 * 4096), // spans chunks 0..3
        ];
        let mut table: ShadowTable<()> = ShadowTable::new();
        let mut route = RouteStats::default();
        for &(addr, len) in accesses {
            let mut a = addr;
            let mut remaining = len;
            while remaining > 0 {
                let (_, consumed) = table.run_mut(a, remaining);
                let (key, split) = chunk_run(a, remaining);
                assert_eq!(split, consumed, "chunk_run mirrors run_mut splitting");
                route.record_run(key, consumed as u64);
                a = a.wrapping_add(consumed as u64);
                remaining -= consumed;
            }
        }
        let stats = table.stats();
        assert_eq!(route.accesses, stats.accesses);
        assert_eq!(route.mru_hits, stats.mru_hits);
        assert_eq!(route.runs, stats.runs);
        assert_eq!(route.run_bytes, stats.run_bytes);
        assert_eq!(route.accesses - route.mru_hits, stats.table_probes);
    }

    #[test]
    fn engine_elides_the_oracle_exactly_when_unbounded() {
        let unbounded = SigilConfig::default().with_shards(2);
        assert!(ShardEngine::new(&unbounded).oracle_elided());
        let limited = SigilConfig::default().with_shards(2).with_shadow_limit(4);
        assert!(!ShardEngine::new(&limited).oracle_elided());
    }
}

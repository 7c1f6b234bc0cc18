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
//! **One shared access log.** The profiler thread splits each access at
//! chunk edges and appends one 32-byte [`LogRecord`] per chunk run to a
//! [`Block`] of [`BLOCK_RECORDS`] records. A full block is published by
//! `Arc` to every worker over a bounded channel (backpressure), and each
//! worker reads every record but classifies only the runs of the chunks
//! it owns, one `run_mut` and one Table-I pass per run. Published
//! blocks are recycled once every worker has dropped them.
//!
//! Three pieces of state are **not** per-byte and stay on the profiler
//! thread:
//!
//! * **Global order** — call numbers, timestamps, and the calltree cursor
//!   advance once per event. A record carries the access's context, call
//!   and thread; its `(op clock, phase clock)` pair rides in the block's
//!   side array when reuse or phases read them. A block also carries the
//!   functions of the contexts defined since the previous block, so a
//!   worker resolves reader and producer functions from local state.
//!   Workers count the global access index and each run's part over
//!   *every* record, the skipped ones included, so the transfer segments
//!   they return are keyed exactly as serial replay emits them.
//! * **Residency** — chunk eviction is a *global* decision (the limit
//!   spans the whole table, FIFO/LRU order interleaves all chunks). With
//!   a `shadow_chunk_limit` the profiler thread runs a zero-sized
//!   residency oracle (`ShadowTable<()>`) through the identical run
//!   sequence; its victims go into the log *before* the run that evicted
//!   them, and the victim's owner applies them (`GranuleTable::evict_key`)
//!   between the same runs as serial replay — so per-shard tables
//!   reproduce the serial residency, and the oracle's counters reproduce
//!   the serial [`MemoryStats`] exactly. **Without** a limit there are no
//!   evictions and residency is no longer a global decision at all: the
//!   oracle is *elided*, each worker owns the residency of its own chunks
//!   (disjoint sets whose union is the serial footprint, summed once the
//!   workers are joined), and the serial table's access counters are
//!   reproduced arithmetically by [`RouteStats`].
//! * **Event order** — the event file is globally ordered. The profiler
//!   thread drives the same `crate::timeline::Timeline` as serial
//!   replay, journaling its steps; each worker returns its reads'
//!   transfer segments in log order, keyed by `(access, part)`, and the
//!   journal's replay splices them back in through the serial emitter,
//!   so the file is byte-identical.
//!
//! The profiler thread's cost is observable through the
//! `dispatch.busy_ns` / `dispatch.records_per_access` metrics.
//!
//! Everything a worker *does* produce (communication tallies, edges,
//! reuse aggregates) is a sum over disjoint byte sets, so per-shard
//! fragments merge through the commutative [`ShardFragment::merge`]
//! layer in any order with an identical result — a property pinned by
//! the `shard_merge` proptests.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use sigil_callgrind::{CallTree, ContextId};
use sigil_mem::{
    chunk_key, chunk_run, GranuleTable, MemoryStats, Owner, ReuseInfo, ReuseSlot, ShadowTable,
};
use sigil_obs::metrics::{self, Counter, Gauge};
use sigil_trace::{Addr, CallNumber, FunctionId, Timestamp};

use crate::classify::{Reader, Tally, Transfers};
use crate::config::SigilConfig;
use crate::phase::{PhaseBuilder, PhaseProfile};
use crate::reuse::ContextReuse;
use crate::stats::{CommEdge, CommStats};
use crate::timeline::Segment;

/// Log records per published block.
const BLOCK_RECORDS: usize = 4096;
/// Blocks in flight per worker before the profiler thread blocks
/// (backpressure when workers outnumber cores).
const CHANNEL_DEPTH: usize = 8;

/// [`LogRecord::flags`]: the run writes (a run without it reads).
const WRITE: u8 = 1;
/// [`LogRecord::flags`]: the record evicts the chunk keyed by `addr`.
const EVICT: u8 = 2;
/// [`LogRecord::flags`]: the run is its access's first.
const FIRST: u8 = 4;

/// One chunk run of an access, or one residency eviction, in the access
/// log. A run never leaves its 4 KiB chunk, so a worker applies it with
/// one `run_mut`.
#[derive(Debug, Clone, Copy)]
struct LogRecord {
    /// The run's first byte; for an eviction, the victim's chunk key.
    addr: Addr,
    /// The consuming/producing frame's dynamic call number.
    call: CallNumber,
    /// Its context; the reader's function is `ctx`'s.
    ctx: ContextId,
    /// Guest thread the access ran on (raw thread id) — part of the
    /// owner identity, and the discriminant for inter-thread
    /// classification.
    thread: u32,
    /// Run length in bytes, at most one chunk.
    len: u16,
    /// [`WRITE`], [`EVICT`] and [`FIRST`].
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<LogRecord>() == 32);

impl LogRecord {
    fn eviction(key: u64) -> Self {
        LogRecord {
            addr: key,
            call: CallNumber::ROOT,
            ctx: ContextId::ROOT,
            thread: 0,
            len: 0,
            flags: EVICT,
        }
    }
}

/// A block of the access log, published to every worker at once.
#[derive(Debug, Default)]
struct Block {
    /// Functions of the contexts defined since the previous block, in id
    /// order; a worker extends its context map before reading `records`.
    ctx_defs: Vec<Option<FunctionId>>,
    records: Vec<LogRecord>,
    /// `(op clock, phase clock)` of each record, filled only when reuse
    /// (op clock) or phases (phase clock, post-tick: it includes the
    /// access's own retired op) read them.
    clocks: Vec<(Timestamp, u64)>,
}

impl Block {
    fn push(&mut self, rec: LogRecord, clocks: Option<(Timestamp, u64)>) {
        self.records.push(rec);
        if let Some(clocks) = clocks {
            self.clocks.push(clocks);
        }
    }
}

/// Arithmetic mirror of an *unbounded* [`ShadowTable`]'s access
/// counters, maintained by the elided-oracle path.
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

/// Profiler-thread cost and shape counters, exported by the profiler as
/// `dispatch.*` metrics.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct DispatchStats {
    /// Nanoseconds spent in `dispatch_access` (obs-enabled runs only).
    pub(crate) busy_ns: u64,
    /// Run records appended to the log (one per chunk run).
    pub(crate) records: u64,
    /// Accesses dispatched.
    pub(crate) accesses: u64,
}

/// What one worker hands back at join time.
pub(crate) struct ShardResult {
    pub(crate) tally: Tally,
    /// Its reads' transfer segments, in log order.
    pub(crate) segments: Vec<Segment>,
    /// Phase-profile transfer buckets for this shard's bytes (phase
    /// collection only).
    pub(crate) phases: Option<PhaseBuilder>,
    /// The worker table's own counters, its resident chunks included.
    pub(crate) stats: MemoryStats,
    /// Granules split into byte slots in the worker's table.
    pub(crate) split_granules: u64,
    pub(crate) evictions_applied: u64,
    /// Nanoseconds this worker spent applying blocks (telemetry).
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
}

/// One shard's (or the profiler thread's) contribution to a profile:
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
    pub(crate) fn into_fragment(self) -> (ShardFragment, Vec<Segment>) {
        let phases = self.phases.map(PhaseBuilder::finish);
        (
            self.tally.into_fragment(phases, MemoryStats::default()),
            self.segments,
        )
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

/// The profiler-side engine owned by a sharded [`SigilProfiler`]: the
/// writer of the access log.
pub(crate) struct ShardEngine {
    shards: usize,
    /// Zero-sized residency oracle: replays the exact serial run
    /// sequence, so its counters and its eviction log *are* the serial
    /// table's. `None` when the shadow memory is unbounded: no
    /// evictions can occur, so the engine elides the table and
    /// [`RouteStats`] reproduces its counters.
    oracle: Option<ShadowTable<()>>,
    /// Counter mirror for the elided-oracle path.
    route: RouteStats,
    /// Prices resident chunks and split granules as the workers' granule
    /// tables hold them ([`GranuleTable::price`] for the active slot).
    price: PriceFn,
    /// The block being filled.
    block: Block,
    /// Published blocks, oldest first. The oldest is refilled once every
    /// worker has dropped it.
    published: VecDeque<Arc<Block>>,
    /// Whether records carry their clocks (reuse or phases on).
    clocks_on: bool,
    senders: Vec<SyncSender<Arc<Block>>>,
    handles: Vec<JoinHandle<ShardResult>>,
    /// Contexts whose functions have gone into the log so far.
    synced_ctxs: usize,
    dispatch: DispatchStats,
    /// Telemetry (obs-enabled runs only): blocks published, and the
    /// workers' shared drain counters — their difference is the channel
    /// depth set on the `shard.<i>.depth` gauges at each publish.
    obs_on: bool,
    sent_blocks: u64,
    received_blocks: Vec<Arc<AtomicU64>>,
    /// Metric handles, registered once at construction (inert with obs
    /// off): each worker's channel depth, their sum as
    /// `shard.dispatch_backlog`, and `shard.blocks_sent`.
    depth_gauges: Vec<Gauge>,
    backlog_gauge: Gauge,
    blocks_sent: Counter,
}

impl std::fmt::Debug for ShardEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardEngine")
            .field("shards", &self.shards)
            .field("oracle_elided", &self.oracle.is_none())
            .field("synced_ctxs", &self.synced_ctxs)
            .field("dispatched_accesses", &self.dispatch.accesses)
            .finish_non_exhaustive()
    }
}

impl ShardEngine {
    pub(crate) fn new(config: &SigilConfig) -> Self {
        assert!(
            config.shards <= SigilConfig::MAX_SHARDS,
            "shard count must be at most {}, got {}",
            SigilConfig::MAX_SHARDS,
            config.shards
        );
        let shards = config.shards.max(2);
        let oracle = config.shadow_chunk_limit.map(|limit| {
            let mut oracle = ShadowTable::with_chunk_limit(limit, config.eviction);
            oracle.enable_eviction_log();
            oracle
        });
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let mut received_blocks = Vec::with_capacity(shards);
        let (worker, price) = if config.reuse_mode {
            slot_worker::<ReuseInfo>()
        } else {
            slot_worker::<()>()
        };
        let events_on = config.record_events;
        let phase_bucket_ops = config.phase_bucket_ops;
        for shard in 0..shards {
            let (tx, rx) = sync_channel::<Arc<Block>>(CHANNEL_DEPTH);
            senders.push(tx);
            let received = Arc::new(AtomicU64::new(0));
            received_blocks.push(Arc::clone(&received));
            let spec = WorkerSpec {
                shard,
                shards,
                events_on,
                phase_bucket_ops,
                blocks_received: received,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sigil-shard-{shard}"))
                    .spawn(move || worker(spec, rx))
                    .expect("spawn shard worker"),
            );
        }
        ShardEngine {
            shards,
            oracle,
            route: RouteStats::default(),
            price,
            block: Block::default(),
            published: VecDeque::new(),
            clocks_on: config.reuse_mode || phase_bucket_ops.is_some(),
            senders,
            handles,
            synced_ctxs: 0,
            dispatch: DispatchStats::default(),
            obs_on: sigil_obs::is_enabled(),
            sent_blocks: 0,
            received_blocks,
            depth_gauges: (0..shards)
                .map(|s| metrics::gauge(&format!("shard.{s}.depth")))
                .collect(),
            backlog_gauge: metrics::gauge("shard.dispatch_backlog"),
            blocks_sent: metrics::counter("shard.blocks_sent"),
        }
    }

    /// Number of worker shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards
    }

    /// Whether the engine runs without a residency oracle.
    #[cfg(test)]
    pub(crate) fn oracle_elided(&self) -> bool {
        self.oracle.is_none()
    }

    /// Publishes the filled block to every worker and starts the next
    /// one, reusing the oldest published block once no worker holds it.
    fn publish(&mut self) {
        let next = match self.published.pop_front().map(Arc::try_unwrap) {
            Some(Ok(mut block)) => {
                block.ctx_defs.clear();
                block.records.clear();
                block.clocks.clear();
                block
            }
            Some(Err(held)) => {
                self.published.push_front(held);
                Block::default()
            }
            None => Block::default(),
        };
        let block = Arc::new(std::mem::replace(&mut self.block, next));
        for shard in 0..self.shards {
            if self.senders[shard].send(Arc::clone(&block)).is_err() {
                self.fail(shard);
            }
        }
        self.published.push_back(block);
        if self.obs_on {
            self.sent_blocks += 1;
            self.sample_depths();
        }
    }

    /// Worker `shard` hung up before the log ended: join it and fail the
    /// profile with its panic message instead of profiling into the void.
    fn fail(&mut self, shard: usize) -> ! {
        let message = match self.handles.swap_remove(shard).join() {
            Err(payload) => panic_message(payload.as_ref()),
            Ok(_) => "worker exited before the log ended".to_owned(),
        };
        panic!("shard worker {shard} panicked: {message}");
    }

    /// Sets each worker's channel depth and the whole pipeline's
    /// backlog (blocks published but not yet drained) on their gauges,
    /// and counts the block just published.
    fn sample_depths(&self) {
        let mut backlog = 0;
        for (gauge, received) in self.depth_gauges.iter().zip(&self.received_blocks) {
            let depth = self
                .sent_blocks
                .saturating_sub(received.load(Ordering::Relaxed));
            gauge.set(depth as f64);
            backlog += depth;
        }
        self.backlog_gauge.set(backlog as f64);
        self.blocks_sent.inc();
    }

    /// Logs the functions of any calltree contexts created since the last
    /// sync, so workers resolve producer and reader functions from local
    /// state. They travel in the current block, ahead of its records.
    pub(crate) fn sync_ctxs(&mut self, tree: &CallTree) {
        if self.synced_ctxs >= tree.len() {
            return;
        }
        self.block
            .ctx_defs
            .extend((self.synced_ctxs..tree.len()).map(|i| {
                let ctx = ContextId(u32::try_from(i).expect("context count fits u32"));
                tree.node(ctx).func
            }));
        self.synced_ctxs = tree.len();
    }

    /// Appends one non-empty shadow access to the log: one record per
    /// chunk run, each preceded by the evictions its run caused.
    #[allow(clippy::too_many_arguments)] // the owner and both clocks
    pub(crate) fn dispatch_access(
        &mut self,
        write: bool,
        addr: Addr,
        len: usize,
        ctx: ContextId,
        call: CallNumber,
        thread: u32,
        at: Timestamp,
        phase_at: u64,
    ) {
        debug_assert!(len > 0, "empty accesses are never dispatched");
        let timer = self.obs_on.then(Instant::now);
        self.dispatch.accesses += 1;
        let clocks = self.clocks_on.then_some((at, phase_at));
        let kind = if write { WRITE } else { 0 };
        let mut flags = kind | FIRST;
        let mut addr = addr;
        let mut remaining = len;
        while remaining > 0 {
            let consumed = match self.oracle.as_mut() {
                Some(oracle) => {
                    let (_, consumed) = oracle.run_mut(addr, remaining);
                    // Each victim follows all its chunk's earlier runs and
                    // precedes any re-creation, as in serial replay.
                    for &key in oracle.evictions() {
                        self.block.push(LogRecord::eviction(key), clocks);
                    }
                    oracle.clear_evictions();
                    consumed
                }
                None => {
                    let (key, consumed) = chunk_run(addr, remaining);
                    self.route.record_run(key, consumed as u64);
                    consumed
                }
            };
            self.block.push(
                LogRecord {
                    addr,
                    call,
                    ctx,
                    thread,
                    len: u16::try_from(consumed).expect("a run fits a chunk"),
                    flags,
                },
                clocks,
            );
            self.dispatch.records += 1;
            if self.block.records.len() >= BLOCK_RECORDS {
                self.publish();
            }
            flags = kind;
            addr = addr.wrapping_add(consumed as u64);
            remaining -= consumed;
        }
        if let Some(t0) = timer {
            self.dispatch.busy_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }

    /// Publishes the last block, closes the channels, joins the workers,
    /// zeroes the depth gauges, and composes the final serial-equivalent
    /// memory stats.
    pub(crate) fn finish(mut self) -> ShardFinish {
        self.publish();
        self.senders.clear();
        let results: Vec<ShardResult> = std::mem::take(&mut self.handles)
            .into_iter()
            .enumerate()
            .map(|(shard, handle)| match handle.join() {
                Ok(result) => result,
                Err(payload) => panic!(
                    "shard worker {shard} panicked: {}",
                    panic_message(payload.as_ref())
                ),
            })
            .collect();
        // Every worker drained every block: the pipeline is empty.
        for gauge in self.depth_gauges.iter().chain([&self.backlog_gauge]) {
            gauge.set(0.0);
        }
        // The oracle's counters are the serial table's. Without it the
        // access counters come from `RouteStats`, and the workers own
        // disjoint chunk sets whose union is the serial footprint. Either
        // way the footprint is priced as the serial granule table holds
        // it, with the workers' summed split-granule counts.
        let chunks = match &self.oracle {
            Some(oracle) => oracle.stats(),
            None => MemoryStats {
                resident_chunks: results.iter().map(|r| r.stats.resident_chunks).sum(),
                accesses: self.route.accesses,
                mru_hits: self.route.mru_hits,
                table_probes: self.route.accesses - self.route.mru_hits,
                runs: self.route.runs,
                run_bytes: self.route.run_bytes,
                ..MemoryStats::default()
            },
        };
        let splits = results.iter().map(|r| r.split_granules).sum();
        ShardFinish {
            memory: (self.price)(chunks, splits),
            dispatch: self.dispatch,
            results,
        }
    }
}

/// Per-worker launch parameters.
struct WorkerSpec {
    shard: usize,
    shards: usize,
    events_on: bool,
    /// Phase-profile bucket width; `Some` turns on transfer bucketing.
    phase_bucket_ops: Option<u64>,
    /// Telemetry: blocks this worker has drained, shared with the
    /// engine's channel-depth sampling.
    blocks_received: Arc<AtomicU64>,
}

/// Per-worker replay state; `R` is the shadow slot's reuse part.
struct WorkerState<R> {
    table: GranuleTable<R>,
    tally: Tally,
    /// Context → function map, extended from each block's `ctx_defs`.
    ctx_funcs: Vec<Option<FunctionId>>,
    /// Per-run transfer scratch.
    scratch: Transfers,
    segments: Vec<Segment>,
    phases: Option<PhaseBuilder>,
    evictions_applied: u64,
}

/// A shard worker's entry point.
type WorkerFn = fn(WorkerSpec, Receiver<Arc<Block>>) -> ShardResult;

/// Prices resident chunks and split granules ([`GranuleTable::price`]).
type PriceFn = fn(MemoryStats, u64) -> MemoryStats;

/// The shard worker for slot reuse part `R`, with the pricing of the
/// granule table it shadows guest bytes with.
fn slot_worker<R: ReuseSlot>() -> (WorkerFn, PriceFn) {
    (shard_worker::<R>, GranuleTable::<R>::price)
}

fn shard_worker<R: ReuseSlot>(spec: WorkerSpec, rx: Receiver<Arc<Block>>) -> ShardResult {
    let _span = sigil_obs::span_with(|| format!("shard-worker-{}", spec.shard));
    let (shard, shards) = (spec.shard as u64, spec.shards as u64);
    let mut state = WorkerState::<R> {
        table: GranuleTable::new(),
        tally: Tally::for_slot::<R>(),
        ctx_funcs: Vec::new(),
        scratch: Transfers::new(spec.events_on, spec.phase_bucket_ops.is_some()),
        segments: Vec::new(),
        phases: spec.phase_bucket_ops.map(PhaseBuilder::new),
        evictions_applied: 0,
    };
    // Accesses begun so far and the current run's part within its
    // access, counted over every record, the skipped ones included.
    let mut accesses = 0u64;
    let mut part = 0u32;
    let mut busy_ns = 0u64;
    let mut idle_ns = 0u64;
    loop {
        let wait = Instant::now();
        let Ok(block) = rx.recv() else { break };
        idle_ns += u64::try_from(wait.elapsed().as_nanos()).unwrap_or(u64::MAX);
        spec.blocks_received.fetch_add(1, Ordering::Relaxed);
        let work = Instant::now();
        state.ctx_funcs.extend_from_slice(&block.ctx_defs);
        for (i, rec) in block.records.iter().enumerate() {
            if rec.flags & EVICT != 0 {
                if rec.addr % shards == shard {
                    let evicted = state.table.evict_key(rec.addr);
                    debug_assert!(evicted, "a logged victim is resident");
                    state.evictions_applied += u64::from(evicted);
                }
                continue;
            }
            if rec.flags & FIRST != 0 {
                accesses += 1;
                part = 0;
            } else {
                part += 1;
            }
            if chunk_key(rec.addr) % shards == shard {
                let clocks = block.clocks.get(i).copied().unwrap_or_default();
                apply_run(&mut state, rec, accesses - 1, part, clocks);
            }
        }
        drop(block);
        busy_ns += u64::try_from(work.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
    state.tally.flush_live_reuse(&state.table);
    ShardResult {
        stats: state.table.stats(),
        split_granules: state.table.split_granules(),
        tally: state.tally,
        segments: state.segments,
        phases: state.phases,
        evictions_applied: state.evictions_applied,
        busy_ns,
        idle_ns,
    }
}

/// Replays one owned run — part `part` of access `idx` — through the
/// Table-I kernel, exactly as serial replay classifies those bytes.
fn apply_run<R: ReuseSlot>(
    state: &mut WorkerState<R>,
    rec: &LogRecord,
    idx: u64,
    part: u32,
    (at, phase_at): (Timestamp, u64),
) {
    let WorkerState {
        table,
        tally,
        ctx_funcs,
        scratch,
        segments,
        phases,
        ..
    } = state;
    let owner = Owner::new(rec.ctx.0, rec.call, rec.thread);
    let len = usize::from(rec.len);
    let mut run = table
        .run_mut(rec.addr, len)
        .expect("records are never empty");
    debug_assert_eq!(run.len(), len, "records never straddle chunks");
    if rec.flags & WRITE != 0 {
        run.cells_mut(0, len, |cells, weight| tally.write(cells, weight, owner));
        return;
    }
    let reader = Reader {
        owner,
        func: ctx_funcs[rec.ctx.index()],
        at,
    };
    scratch.clear();
    let mut read = tally.read(reader, |ctx| ctx_funcs[ctx.index()], scratch);
    run.cells_mut(0, len, |cells, weight| read.cells(cells, weight));
    read.finish();
    segments.extend(
        scratch
            .calls
            .iter()
            .map(|&(from, bytes)| (idx, part, from, bytes)),
    );
    if let Some(builder) = phases.as_mut() {
        for &(producer_ctx, bytes) in &scratch.ctxs {
            builder.record_transfer(producer_ctx, rec.ctx, phase_at, bytes);
        }
    }
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

    #[test]
    #[should_panic(expected = "shard worker")]
    fn a_dead_worker_fails_the_profile_and_names_its_shard() {
        // Context 6 was never synced, so the worker owning the read's
        // chunk indexes an empty context map and dies; `finish` must
        // report it instead of hanging or returning a profile.
        let mut engine = ShardEngine::new(&SigilConfig::default().with_shards(2));
        let at = Timestamp::default();
        let call = CallNumber::from_raw(1);
        engine.dispatch_access(true, 0x1000, 8, ContextId(5), call, 0, at, 0);
        engine.dispatch_access(false, 0x1000, 8, ContextId(6), call.next(), 0, at, 0);
        drop(engine.finish());
    }
}

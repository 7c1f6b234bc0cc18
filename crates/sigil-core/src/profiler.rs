//! The Sigil profiler observer, one for serial and sharded replay.
//!
//! Each trace event goes to the embedded Callgrind model, then to the
//! replay's `Timeline` (frames, phase clock, event file), then to the
//! shadow memory: a granule table classified inline in serial replay, or
//! the shard engine's access log ([`crate::shard`]).

use serde::{Deserialize, Serialize};
use sigil_callgrind::{CallTree, CallgrindProfiler, ContextId};
use sigil_mem::{GranuleTable, LineShadow, MemoryStats, Owner, ReuseInfo, ReuseSlot};
use sigil_trace::{
    CallNumber, ExecutionObserver, MemAccess, OpClock, RuntimeEvent, SymbolTable, Timestamp,
};

use crate::classify::{Reader, Tally, Transfers};
use crate::config::SigilConfig;
use crate::phase::PhaseBuilder;
use crate::profile::{ContextComm, Profile};
use crate::shard::{ShardEngine, ShardFragment};
use crate::stats::CommStats;
use crate::timeline::{Segment, Timeline};

/// Aggregated line-granularity reuse report (drives Figure 12).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineReport {
    /// Configured cache-line size in bytes.
    pub line_size: u32,
    /// Lines bucketed by reuse count: `<10`, `<100`, `<1000`, `<10000`,
    /// `>=10000` (the paper's Figure 12 legend).
    pub buckets: [u64; 5],
    /// Total distinct lines touched.
    pub touched_lines: u64,
}

impl LineReport {
    /// Figure 12 bucket labels, in stacking order.
    pub const LABELS: [&'static str; 5] = ["<10", "<100", "<1000", "<10000", ">10000"];

    /// Bucket index for a line's reuse count.
    pub const fn bucket_of(reuse_count: u64) -> usize {
        match reuse_count {
            0..=9 => 0,
            10..=99 => 1,
            100..=999 => 2,
            1000..=9999 => 3,
            _ => 4,
        }
    }
}

/// The serial granule table, its slot chosen by `reuse_mode`: only reuse
/// mode pays for the reuse fields.
#[derive(Debug)]
enum Shadow {
    Plain(GranuleTable),
    Reuse(GranuleTable<ReuseInfo>),
}

impl Shadow {
    fn new(config: &SigilConfig) -> Self {
        fn table<R: ReuseSlot>(config: &SigilConfig) -> GranuleTable<R> {
            // In sharded mode the shadow state lives in the worker tables
            // and the dispatch-side residency oracle; this table stays
            // empty.
            match config.shadow_chunk_limit.filter(|_| config.shards <= 1) {
                Some(limit) => GranuleTable::with_chunk_limit(limit, config.eviction),
                None => GranuleTable::new(),
            }
        }
        if config.reuse_mode {
            Shadow::Reuse(table(config))
        } else {
            Shadow::Plain(table(config))
        }
    }

    fn stats(&self) -> MemoryStats {
        match self {
            Shadow::Plain(table) => table.stats(),
            Shadow::Reuse(table) => table.stats(),
        }
    }

    /// An empty tally for this table's slot type.
    fn tally(&self) -> Tally {
        match self {
            Shadow::Plain(_) => Tally::for_slot::<()>(),
            Shadow::Reuse(_) => Tally::for_slot::<ReuseInfo>(),
        }
    }
}

/// The Sigil profiler: an [`ExecutionObserver`] that shadows every data
/// byte to classify communication (see the crate docs for the
/// methodology). Bytes are shadowed per aligned 4-byte granule wherever
/// accesses keep a granule's bytes alike ([`GranuleTable`]).
///
/// Internally it embeds a [`CallgrindProfiler`] — Sigil "hooks into
/// Callgrind to identify function names, obtain addresses and count
/// operations" — and layers the shadow-memory pass on top.
#[derive(Debug)]
pub struct SigilProfiler {
    config: SigilConfig,
    cg: CallgrindProfiler,
    shadow: Shadow,
    lines: Option<LineShadow>,
    clock: OpClock,
    call_counter: CallNumber,
    /// Frames, phase clock and event file.
    timeline: Timeline,
    /// Table-I tallies. In sharded mode only the whole-access byte
    /// counts land here; classification comes back from the workers.
    tally: Tally,
    /// Per-access transfer scratch for serial reads.
    transfers: Transfers,
    /// Phase-sliced profile builder (present when phase collection is
    /// on). In sharded mode this dispatch-side builder tallies calls;
    /// transfers come back in the workers' fragments.
    phases: Option<PhaseBuilder>,
    /// Present when `config.shards > 1`: per-byte classification runs on
    /// worker threads and `shadow` stays empty (see [`crate::shard`]).
    engine: Option<ShardEngine>,
}

impl SigilProfiler {
    /// Creates a profiler with the given configuration.
    pub fn new(config: SigilConfig) -> Self {
        let shadow = Shadow::new(&config);
        SigilProfiler {
            config,
            cg: CallgrindProfiler::new(config.callgrind),
            tally: shadow.tally(),
            shadow,
            lines: config.line_size.map(LineShadow::new),
            clock: OpClock::new(),
            call_counter: CallNumber::ROOT,
            timeline: Timeline::new(&config),
            transfers: Transfers::new(config.record_events, config.phase_bucket_ops.is_some()),
            phases: config.phase_bucket_ops.map(PhaseBuilder::new),
            engine: (config.shards > 1).then(|| ShardEngine::new(&config)),
        }
    }

    /// The configuration this profiler runs with.
    pub fn config(&self) -> SigilConfig {
        self.config
    }

    /// The shadow footprint, line shadow included.
    fn with_lines(&self, memory: MemoryStats) -> MemoryStats {
        match &self.lines {
            Some(lines) => memory.combined(lines.memory_stats()),
            None => memory,
        }
    }

    /// A point-in-time snapshot of the phase-sliced profile built so
    /// far, for live queries against an in-progress run. `None` when
    /// phase collection is off or the profiler is sharded (sharded
    /// replay assembles phases only at finish).
    pub fn phase_snapshot(&self) -> Option<crate::phase::PhaseProfile> {
        if self.engine.is_some() {
            return None;
        }
        self.phases.as_ref().map(|b| b.clone().finish())
    }

    fn handle_enter(&mut self) {
        // `cg` has already entered the new context.
        let ctx = self.cg.current_context();
        self.call_counter = self.call_counter.next();
        if let Some(builder) = self.phases.as_mut() {
            // The call is tallied at the pre-tick clock.
            let (parent, at) = (self.timeline.frame().ctx, self.timeline.phase_clock());
            builder.record_call(parent, ctx, at);
        }
        self.timeline.enter(self.call_counter, ctx);
    }

    /// A shadow access. Whole-access work — line shadowing, `bytes_read`
    /// / `bytes_written`, the access's own retired op — happens here;
    /// the Table-I pass runs inline on the granule table, or on the shard
    /// workers per chunk run.
    fn handle_access(&mut self, write: bool, access: MemAccess, at: Timestamp) {
        if access.is_empty() {
            return;
        }
        let frame = self.timeline.frame();
        let thread = self.timeline.thread();
        let owner = Owner::new(frame.ctx.0, frame.call, thread);
        let reader_fn = if write {
            None
        } else {
            self.cg.tree().node(frame.ctx).func
        };
        if let Some(lines) = self.lines.as_mut() {
            lines.record_access(access, at);
        }
        self.timeline.access(write);
        let comm = self.tally.comm_mut(frame.ctx);
        if write {
            comm.bytes_written += u64::from(access.size);
        } else {
            comm.bytes_read += u64::from(access.size);
        }

        let tree = self.cg.tree();
        if let Some(engine) = self.engine.as_mut() {
            engine.sync_ctxs(tree);
            engine.dispatch_access(
                write,
                access.addr,
                access.len(),
                frame.ctx,
                frame.call,
                thread,
                at,
                self.timeline.phase_clock(),
            );
            return;
        }
        let reader = Reader {
            owner,
            func: reader_fn,
            at,
        };
        let (tally, transfers) = (&mut self.tally, &mut self.transfers);
        match &mut self.shadow {
            Shadow::Plain(table) => classify(table, tally, transfers, tree, write, access, reader),
            Shadow::Reuse(table) => classify(table, tally, transfers, tree, write, access, reader),
        }
        if write {
            return;
        }
        self.timeline
            .transfers(self.transfers.calls.iter().copied());
        if let Some(builder) = self.phases.as_mut() {
            // Bucketed at the post-tick clock: the event file flushes the
            // read's own pending op before its transfer records, so the
            // streaming fold sees these exact timestamps.
            let at = self.timeline.phase_clock();
            for &(producer_ctx, bytes) in &self.transfers.ctxs {
                builder.record_transfer(producer_ctx, frame.ctx, at, bytes);
            }
        }
    }

    /// Sharded-mode end of run: join the workers, fold their fragments
    /// through the commutative merge layer, and gather their transfer
    /// segments for the event file.
    fn finish_sharded(&mut self, engine: ShardEngine) -> (ShardFragment, Vec<Segment>) {
        let shards = engine.shard_count();
        let crate::shard::ShardFinish {
            memory,
            dispatch,
            results,
        } = engine.finish();

        // The dispatch thread's fragment: whole-access byte counts, the
        // calls of the phase profile and the serial-equivalent
        // footprint; classification comes from the workers.
        let mut merged = std::mem::take(&mut self.tally).into_fragment(
            self.phases.take().map(PhaseBuilder::finish),
            self.with_lines(memory),
        );
        let mut segments = Vec::new();
        let obs = sigil_obs::is_enabled();
        if obs {
            sigil_obs::metrics::set_counter("shadow.shards", shards as u64);
        }
        let (mut busy_total, mut idle_total) = (0u64, 0u64);
        for (i, result) in results.into_iter().enumerate() {
            if obs {
                sigil_obs::metrics::set_counter(
                    &format!("shadow.shard.{i}.accesses"),
                    result.stats.accesses,
                );
                sigil_obs::metrics::set_counter(
                    &format!("shadow.shard.{i}.runs"),
                    result.stats.runs,
                );
                sigil_obs::metrics::set_counter(
                    &format!("shadow.shard.{i}.evictions"),
                    result.evictions_applied,
                );
                sigil_obs::metrics::set_counter(
                    &format!("shadow.shard.{i}.busy_ns"),
                    result.busy_ns,
                );
                sigil_obs::metrics::set_counter(
                    &format!("shadow.shard.{i}.idle_ns"),
                    result.idle_ns,
                );
                busy_total += result.busy_ns;
                idle_total += result.idle_ns;
            }
            let (fragment, shard_segments) = result.into_fragment();
            merged.merge(&fragment);
            segments.extend(shard_segments);
        }
        if obs {
            // Add-counters so sweeps accumulate utilization across
            // workloads; the sweep report derives busy/(busy+idle).
            sigil_obs::metrics::counter("shadow.shards.busy_ns").add(busy_total);
            sigil_obs::metrics::counter("shadow.shards.idle_ns").add(idle_total);
            // Dispatch-thread telemetry: where the Amdahl ceiling is.
            sigil_obs::metrics::add_counter("dispatch.busy_ns", dispatch.busy_ns);
            sigil_obs::metrics::add_counter("dispatch.records", dispatch.records);
            sigil_obs::metrics::add_counter("dispatch.accesses", dispatch.accesses);
            sigil_obs::metrics::set_gauge(
                "dispatch.records_per_access",
                dispatch.records as f64 / dispatch.accesses.max(1) as f64,
            );
        }
        (merged, segments)
    }

    /// Consumes the profiler, pairing it with `symbols` into a [`Profile`].
    ///
    /// When observability is enabled this records two phase spans —
    /// `shadow` (final shadow-memory walk: footprint snapshot, reuse
    /// flush, line report) and `postprocess` (aggregate assembly) — as
    /// children of whatever span the caller has open, and publishes the
    /// shadow-table hot-path counters as `shadow.*` metrics.
    pub fn into_profile(mut self, symbols: SymbolTable) -> Profile {
        let shadow_span = sigil_obs::span("shadow");
        let (fragment, segments) = match self.engine.take() {
            Some(engine) => self.finish_sharded(engine),
            None => {
                let memory = self.with_lines(self.shadow.stats());
                if let Shadow::Reuse(table) = &self.shadow {
                    self.tally.flush_live_reuse(table);
                }
                let phases = self.phases.take().map(PhaseBuilder::finish);
                let tally = std::mem::take(&mut self.tally);
                (tally.into_fragment(phases, memory), Vec::new())
            }
        };
        fragment.memory.export_metrics("shadow");
        let events = self.timeline.take_events(segments);

        let line_report = self.lines.as_ref().map(|lines| {
            let mut buckets = [0u64; 5];
            let mut touched = 0u64;
            for (_, stats) in lines.iter() {
                buckets[LineReport::bucket_of(stats.reuse_count())] += 1;
                touched += 1;
            }
            LineReport {
                line_size: lines.line_size(),
                buckets,
                touched_lines: touched,
            }
        });
        drop(shadow_span);
        let _postprocess_span = sigil_obs::span("postprocess");

        let mut contexts: Vec<ContextComm> = fragment
            .comm
            .iter()
            .enumerate()
            .map(|(i, comm)| ContextComm {
                ctx: ContextId(u32::try_from(i).expect("context count fits u32")),
                comm: *comm,
            })
            .collect();
        // Make sure every calltree context has a row, even if it never
        // communicated.
        let tree_len = self.cg.tree().len();
        while contexts.len() < tree_len {
            contexts.push(ContextComm {
                ctx: ContextId(u32::try_from(contexts.len()).expect("context count fits u32")),
                comm: CommStats::default(),
            });
        }

        Profile {
            callgrind: self.cg.into_profile(symbols),
            contexts,
            edges: fragment.edges,
            reuse: fragment.reuse,
            lines: line_report,
            events,
            phases: fragment.phases,
            memory: fragment.memory,
        }
    }
}

/// The Table-I pass of one serial access: a write makes `reader.owner`
/// the producer of every byte, a read classifies them and leaves its
/// transfer segments in `transfers`.
fn classify<R: ReuseSlot>(
    table: &mut GranuleTable<R>,
    tally: &mut Tally,
    transfers: &mut Transfers,
    tree: &CallTree,
    write: bool,
    access: MemAccess,
    reader: Reader,
) {
    if write {
        table.cells_mut(access.addr, access.len(), |cells, weight| {
            tally.write(cells, weight, reader.owner);
        });
        return;
    }
    transfers.clear();
    let mut read = tally.read(reader, |ctx| tree.node(ctx).func, transfers);
    table.cells_mut(access.addr, access.len(), |cells, weight| {
        read.cells(cells, weight);
    });
    read.finish();
}

impl ExecutionObserver for SigilProfiler {
    fn on_event(&mut self, event: RuntimeEvent) {
        let at = self.clock.tick(event);
        self.cg.on_event(event);
        match event {
            RuntimeEvent::Call { .. } | RuntimeEvent::SyscallEnter { .. } => self.handle_enter(),
            RuntimeEvent::Return | RuntimeEvent::SyscallExit => self.timeline.leave(),
            RuntimeEvent::Op { count, .. } => self.timeline.retire(u64::from(count)),
            RuntimeEvent::Branch { .. } => self.timeline.retire(1),
            RuntimeEvent::Read { access } => self.handle_access(false, access, at),
            RuntimeEvent::Write { access } => self.handle_access(true, access, at),
            RuntimeEvent::ThreadSwitch { thread } => self.timeline.switch(thread.as_raw()),
        }
    }

    fn on_finish(&mut self) {
        self.timeline.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigil_trace::{Engine, OpClass};

    fn run<F: FnOnce(&mut Engine<SigilProfiler>)>(config: SigilConfig, body: F) -> Profile {
        let mut engine = Engine::new(SigilProfiler::new(config));
        body(&mut engine);
        let (profiler, symbols) = engine.finish_with_symbols();
        profiler.into_profile(symbols)
    }

    #[test]
    fn producer_consumer_classification() {
        let profile = run(SigilConfig::default(), |e| {
            e.scoped_named("main", |e| {
                e.scoped_named("produce", |e| e.write(0x100, 16));
                e.scoped_named("consume", |e| {
                    e.read(0x100, 16);
                    e.read(0x100, 16);
                });
            });
        });
        let consume = profile.function_by_name("consume").expect("consume");
        assert_eq!(consume.comm.input_unique_bytes, 16);
        assert_eq!(consume.comm.input_nonunique_bytes, 16);
        assert_eq!(consume.comm.local_unique_bytes, 0);
        let produce = profile.function_by_name("produce").expect("produce");
        assert_eq!(produce.comm.output_unique_bytes, 16);
        assert_eq!(produce.comm.output_nonunique_bytes, 16);
        assert_eq!(produce.comm.bytes_written, 16);
    }

    #[test]
    fn self_read_is_local() {
        let profile = run(SigilConfig::default(), |e| {
            e.scoped_named("f", |e| {
                e.write(0x200, 8);
                e.read(0x200, 8);
                e.read(0x200, 8);
            });
        });
        let f = profile.function_by_name("f").expect("f");
        assert_eq!(f.comm.local_unique_bytes, 8);
        assert_eq!(f.comm.local_nonunique_bytes, 8);
        assert_eq!(f.comm.input_unique_bytes, 0);
    }

    #[test]
    fn fresh_call_makes_reads_unique_again() {
        // Paper: the "last reader call" field distinguishes dynamic calls —
        // a new call of the same function reads uniquely again.
        let profile = run(SigilConfig::default(), |e| {
            e.scoped_named("main", |e| {
                e.scoped_named("produce", |e| e.write(0x300, 4));
                e.scoped_named("consume", |e| e.read(0x300, 4));
                e.scoped_named("consume", |e| e.read(0x300, 4));
            });
        });
        let consume = profile.function_by_name("consume").expect("consume");
        assert_eq!(consume.comm.input_unique_bytes, 8, "4 bytes per call");
        assert_eq!(consume.comm.input_nonunique_bytes, 0);
        assert_eq!(consume.calls, 2);
    }

    #[test]
    fn never_written_bytes_are_root_input() {
        let profile = run(SigilConfig::default(), |e| {
            e.scoped_named("f", |e| e.read(0x400, 8));
        });
        let f = profile.function_by_name("f").expect("f");
        assert_eq!(f.comm.input_unique_bytes, 8);
        // The edge comes from the synthetic root.
        assert_eq!(profile.edges.len(), 1);
        assert_eq!(profile.edges[0].producer, ContextId::ROOT);
    }

    #[test]
    fn overwrite_resets_uniqueness() {
        let profile = run(SigilConfig::default(), |e| {
            e.scoped_named("main", |e| {
                e.scoped_named("produce", |e| e.write(0x500, 4));
                e.scoped_named("consume", |e| e.read(0x500, 4));
                e.scoped_named("produce", |e| e.write(0x500, 4));
                e.scoped_named("consume", |e| e.read(0x500, 4));
            });
        });
        let consume = profile.function_by_name("consume").expect("consume");
        // Both reads unique: new value + new call.
        assert_eq!(consume.comm.input_unique_bytes, 8);
        let produce = profile.function_by_name("produce").expect("produce");
        assert_eq!(produce.comm.output_unique_bytes, 8);
    }

    #[test]
    fn context_separation_distinguishes_callers() {
        // D called from B and from C → two context rows (paper D1/D2).
        let profile = run(SigilConfig::default(), |e| {
            e.scoped_named("main", |e| {
                e.scoped_named("B", |e| {
                    e.scoped_named("D", |e| e.op(OpClass::IntArith, 5));
                });
                e.scoped_named("C", |e| {
                    e.scoped_named("D", |e| e.op(OpClass::IntArith, 7));
                });
            });
        });
        let d_contexts: Vec<_> = profile
            .callgrind
            .tree
            .iter()
            .filter(|(_, n)| {
                n.func
                    .is_some_and(|f| profile.callgrind.symbols.get_name(f) == Some("D"))
            })
            .collect();
        assert_eq!(d_contexts.len(), 2);
        let d = profile.function_by_name("D").expect("D");
        assert_eq!(d.calls, 2);
        assert_eq!(d.costs.ops_total(), 12);
    }

    #[test]
    fn reuse_mode_tracks_lifetimes() {
        let config = SigilConfig::default().with_reuse_mode();
        let profile = run(config, |e| {
            e.scoped_named("main", |e| {
                e.scoped_named("w", |e| e.write(0x600, 1));
                e.scoped_named("r", |e| {
                    e.read(0x600, 1);
                    e.op(OpClass::IntArith, 100);
                    e.read(0x600, 1); // reuse after 100 ops
                });
            });
        });
        let reuse = profile.reuse.as_ref().expect("reuse mode on");
        let r_row = profile
            .context_reuse_by_name("r")
            .expect("r has reuse stats");
        assert_eq!(r_row.reused_bytes, 1);
        assert_eq!(r_row.total_reuse_count, 1);
        assert!(r_row.avg_reused_lifetime() >= 100.0);
        assert!(!reuse.is_empty());
    }

    #[test]
    fn reader_change_starts_a_fresh_reuse_record() {
        // A read by another call closes the previous reader's record and
        // starts the new reader's at reuse count 0, with no write between.
        for shards in [1, 2] {
            let config = SigilConfig::default().with_reuse_mode().with_shards(shards);
            let profile = run(config, |e| {
                e.scoped_named("main", |e| {
                    e.scoped_named("w", |e| e.write(0x800, 1));
                    e.scoped_named("a", |e| {
                        for _ in 0..3 {
                            e.read(0x800, 1);
                        }
                    });
                    e.scoped_named("b", |e| e.read(0x800, 1));
                });
            });
            let a = profile.context_reuse_by_name("a").expect("a reuse");
            assert_eq!(
                (a.reused_bytes, a.total_reuse_count),
                (1, 2),
                "shards={shards}"
            );
            let b = profile.context_reuse_by_name("b").expect("b reuse");
            assert_eq!(
                (b.zero_reuse_bytes, b.reused_bytes),
                (1, 0),
                "shards={shards}"
            );
            assert_eq!(b.total_reuse_count, 0, "shards={shards}");
        }
    }

    #[test]
    fn zero_reuse_flushed_at_exit() {
        let config = SigilConfig::default().with_reuse_mode();
        let profile = run(config, |e| {
            e.scoped_named("f", |e| {
                e.write(0x700, 4);
                e.read(0x700, 4);
            });
        });
        let f_row = profile.context_reuse_by_name("f").expect("f reuse");
        assert_eq!(f_row.zero_reuse_bytes, 4);
        assert_eq!(f_row.reused_bytes, 0);
    }

    #[test]
    fn line_mode_reports_buckets() {
        let config = SigilConfig::default().with_line_mode(64);
        let profile = run(config, |e| {
            e.scoped_named("f", |e| {
                e.write(0x0, 8); // line 0: 1 access
                for _ in 0..50 {
                    e.read(0x40, 8); // line 1: 50 accesses → 49 reuses
                }
            });
        });
        let lines = profile.lines.as_ref().expect("line mode on");
        assert_eq!(lines.line_size, 64);
        assert_eq!(lines.touched_lines, 2);
        assert_eq!(lines.buckets[0], 1); // <10
        assert_eq!(lines.buckets[1], 1); // <100
    }

    #[test]
    fn event_file_records_dependencies() {
        let config = SigilConfig::default().with_events();
        let profile = run(config, |e| {
            e.scoped_named("main", |e| {
                e.scoped_named("produce", |e| {
                    e.op(OpClass::IntArith, 10);
                    e.write(0x800, 8);
                });
                e.scoped_named("consume", |e| {
                    e.read(0x800, 8);
                    e.op(OpClass::IntArith, 20);
                });
            });
        });
        let events = profile.events.as_ref().expect("events recorded");
        assert!(events.len() >= 5);
        assert_eq!(events.total_transfer_bytes(), 8);
        // Compute ops include reads/writes as retired ops.
        assert!(events.total_ops() >= 30);
    }

    #[test]
    fn shadow_limit_degrades_gracefully() {
        // With an aggressive limit, evicted bytes re-read as unique
        // (over-counting uniqueness, never crashing) — the paper reports
        // "negligible" accuracy loss for dedup.
        let config = SigilConfig::default().with_shadow_limit(1);
        let profile = run(config, |e| {
            e.scoped_named("f", |e| {
                e.write(0x0, 4);
                e.write(0x100_0000, 4); // different chunk, evicts first
                e.read(0x0, 4); // shadow lost → classified as root input
            });
        });
        assert!(profile.memory.evicted_chunks >= 1);
        let f = profile.function_by_name("f").expect("f");
        assert_eq!(f.comm.bytes_read, 4);
        assert_eq!(f.comm.input_unique_bytes, 4, "evicted → counted as input");
    }

    #[test]
    fn zero_length_accesses_are_no_ops() {
        // Hand-built event streams can carry size-0 accesses (the engine
        // never emits them); both handlers must return before touching
        // pending ops, line shadow, comm tallies, or the shadow table.
        let config = SigilConfig::default().with_reuse_mode().with_events();
        let empty = MemAccess::new(0x1000, 0);
        let mut symbols = SymbolTable::new();
        let f = symbols.intern("f");
        let mut profiler = SigilProfiler::new(config);
        profiler.on_event(RuntimeEvent::Call { callee: f });
        profiler.on_event(RuntimeEvent::Write { access: empty });
        profiler.on_event(RuntimeEvent::Read { access: empty });
        profiler.on_event(RuntimeEvent::Write {
            access: MemAccess::new(0x2000, 4),
        });
        profiler.on_event(RuntimeEvent::Return);
        profiler.on_finish();
        let profile = profiler.into_profile(symbols);
        let f = profile.function_by_name("f").expect("f");
        assert_eq!(f.comm.bytes_read, 0);
        assert_eq!(f.comm.bytes_written, 4);
        assert_eq!(profile.memory.accesses, 4, "only the real write shadows");
        assert_eq!(profile.memory.runs, 1);
        assert!(profile.edges.is_empty());
    }

    #[test]
    fn chunk_straddling_access_classifies_every_byte() {
        // One access spanning the 4 KiB shadow-chunk split must classify
        // byte-for-byte like two chunk-local accesses would.
        let profile = run(SigilConfig::default(), |e| {
            e.scoped_named("main", |e| {
                e.scoped_named("produce", |e| e.write(4096 - 8, 16));
                e.scoped_named("consume", |e| e.read(4096 - 8, 16));
            });
        });
        let consume = profile.function_by_name("consume").expect("consume");
        assert_eq!(consume.comm.input_unique_bytes, 16);
        let produce = profile.function_by_name("produce").expect("produce");
        assert_eq!(produce.comm.output_unique_bytes, 16);
        // Each access resolved its chunk twice (once per side of the split).
        assert_eq!(profile.memory.runs, 4);
        assert_eq!(profile.memory.run_bytes, 32);
    }

    /// A composite scenario exercising every subsystem the sharded path
    /// must reproduce: chunk-straddling accesses, repeat reads, cross-
    /// function transfers, syscalls, multiple threads, ops, and branches.
    fn composite_scenario(e: &mut Engine<SigilProfiler>) {
        e.scoped_named("main", |e| {
            e.scoped_named("produce", |e| {
                e.op(OpClass::IntArith, 10);
                e.write(4096 - 8, 16); // straddles chunks 0|1
                e.write(3 * 4096 - 4, 8); // straddles chunks 2|3
            });
            e.scoped_named("consume", |e| {
                e.read(4096 - 8, 16);
                e.read(4096 - 8, 16); // non-unique re-read
                e.op(OpClass::FloatArith, 5);
                e.read(3 * 4096 - 4, 8);
            });
            e.syscall("sys_read", |e| e.write(0x9000, 64));
            e.read(0x9000, 64);
            e.scoped_named("produce", |e| e.write(4096 - 8, 16)); // overwrite
            e.scoped_named("consume", |e| e.read(4096 - 8, 16));
            e.read(0x20_0000, 12); // never-written root input

            // One read spanning five chunks, more than 2, 3 or 4 shards:
            // each worker skips the others' runs but must still count
            // their parts, or the transfers splice back out of byte
            // order. The first chunk's key (769) is 1 modulo 2, 3, 4 and
            // 8, so part 0 is never on shard 0.
            let chunks = 0x30_1000;
            for k in 0..5 {
                e.scoped_named("produce", |e| e.write(chunks + k * 4096, 4096));
            }
            e.scoped_named("consume", |e| e.read(chunks + 4096 - 8, 3 * 4096 + 16));
        });
    }

    #[test]
    fn sharded_profile_matches_serial_byte_for_byte() {
        // The tentpole invariant: with every feature enabled, sharded
        // replay serializes to the identical profile.
        // Phases without reuse read the phase clock alone.
        let full = SigilConfig::default()
            .with_reuse_mode()
            .with_line_mode(64)
            .with_events()
            .with_phases(5);
        let phases_only = SigilConfig::default().with_events().with_phases(5);
        for base in [full, phases_only] {
            for shards in [2, 3, 4, 8] {
                let serial = run(base, composite_scenario);
                let sharded = run(base.with_shards(shards), composite_scenario);
                assert_eq!(
                    serde_json::to_string(&serial).unwrap(),
                    serde_json::to_string(&sharded).unwrap(),
                    "shards={shards} reuse={}",
                    base.reuse_mode
                );
                assert!(
                    serial.phases.as_ref().is_some_and(|p| !p.pairs.is_empty()),
                    "composite scenario produces phase activity"
                );
            }
        }
    }

    #[test]
    fn phase_profile_matches_event_clock() {
        // The phase clock must agree with the event file's timestamps:
        // replaying the recorded events through the fold rules yields
        // the identical profile. This pins serial replay and the
        // event-stream interpretation together.
        let config = SigilConfig::default().with_events().with_phases(3);
        let profile = run(config, composite_scenario);
        let events = profile.events.as_ref().expect("events on");
        let phases = profile.phases.as_ref().expect("phases on");

        use crate::events_out::EventRecord;
        let root = sigil_callgrind::ContextId::ROOT;
        let mut builder = PhaseBuilder::new(3);
        let mut ctx_of = std::collections::HashMap::new();
        let mut clock = 0u64;
        for record in events.records() {
            match *record {
                EventRecord::Call {
                    parent_call,
                    call,
                    ctx,
                } => {
                    ctx_of.insert(call, ctx);
                    let from = ctx_of.get(&parent_call).copied().unwrap_or(root);
                    builder.record_call(from, ctx, clock);
                    clock += 1;
                }
                EventRecord::Compute { ops, .. } => clock += ops,
                EventRecord::Transfer {
                    from_call,
                    to_call,
                    bytes,
                } => {
                    let from = ctx_of.get(&from_call).copied().unwrap_or(root);
                    let to = ctx_of.get(&to_call).copied().unwrap_or(root);
                    builder.record_transfer(from, to, clock, bytes);
                }
            }
        }
        let refolded = builder.finish();
        assert_eq!(
            serde_json::to_string(phases).unwrap(),
            serde_json::to_string(&refolded).unwrap()
        );
    }

    #[test]
    fn sharded_profile_matches_serial_under_eviction() {
        use sigil_mem::EvictionPolicy;
        // Tiny limits force constant eviction; the residency oracle must
        // mirror every victim so per-byte state stays serial-identical.
        for policy in [EvictionPolicy::Fifo, EvictionPolicy::Lru] {
            for limit in [1, 2, 3] {
                let base = SigilConfig::default()
                    .with_reuse_mode()
                    .with_events()
                    .with_shadow_limit(limit)
                    .with_eviction(policy);
                let serial = run(base, composite_scenario);
                let sharded = run(base.with_shards(4), composite_scenario);
                assert_eq!(
                    serde_json::to_string(&serial).unwrap(),
                    serde_json::to_string(&sharded).unwrap(),
                    "policy={policy:?} limit={limit}"
                );
            }
        }
    }

    #[test]
    fn sharded_multithread_event_order_is_serial() {
        // Thread switches and end-of-run frame draining must emit
        // identically (the timeline drains in sorted thread order).
        let scenario = |e: &mut Engine<SigilProfiler>| {
            e.scoped_named("main", |e| {
                e.write(0x100, 8);
                e.switch_thread(sigil_trace::ThreadId::from_raw(2));
                e.scoped_named("t2", |e| {
                    e.op(OpClass::IntArith, 3);
                    e.read(0x100, 8);
                });
                e.switch_thread(sigil_trace::ThreadId::from_raw(1));
                e.scoped_named("t1", |e| e.read(0x100, 8));
                e.switch_thread(sigil_trace::ThreadId::MAIN);
            });
        };
        let base = SigilConfig::default().with_events();
        let serial = run(base, scenario);
        let sharded = run(base.with_shards(4), scenario);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&sharded).unwrap()
        );
        assert!(serial.events.as_ref().is_some_and(|ev| !ev.is_empty()));
    }

    #[test]
    fn cross_thread_read_is_inter_thread_input() {
        use sigil_trace::ThreadId;
        let profile = run(SigilConfig::default(), |e| {
            e.scoped_named("main", |e| {
                e.scoped_named("produce", |e| e.write(0x100, 16));
                e.switch_thread(ThreadId::from_raw(1));
                e.scoped_named("consume", |e| {
                    e.read(0x100, 16);
                    e.read(0x100, 16); // same-call re-read: non-unique
                });
                e.switch_thread(ThreadId::MAIN);
            });
        });
        let consume = profile.function_by_name("consume").expect("consume");
        assert_eq!(consume.comm.inter_thread_unique_bytes, 16);
        assert_eq!(consume.comm.inter_thread_nonunique_bytes, 16);
        assert_eq!(consume.comm.input_unique_bytes, 0);
        assert_eq!(consume.comm.local_unique_bytes, 0);
        assert_eq!(consume.comm.bytes_read, 32);
        // The producer's output tallies and the edge are unchanged by the
        // new axis: inter-thread bytes still cross the boundary.
        let produce = profile.function_by_name("produce").expect("produce");
        assert_eq!(produce.comm.output_unique_bytes, 16);
        assert_eq!(produce.comm.output_nonunique_bytes, 16);
    }

    #[test]
    fn same_function_cross_thread_read_is_inter_not_local() {
        use sigil_trace::ThreadId;
        // Thread 1 re-reading bytes that thread 0 wrote inside the *same
        // function* is still a cross-thread transfer, never "local".
        let profile = run(SigilConfig::default(), |e| {
            e.scoped_named("main", |e| {
                e.scoped_named("worker", |e| e.write(0x200, 8));
                e.switch_thread(ThreadId::from_raw(1));
                e.scoped_named("worker", |e| e.read(0x200, 8));
                e.switch_thread(ThreadId::MAIN);
            });
        });
        let worker = profile.function_by_name("worker").expect("worker");
        assert_eq!(worker.comm.inter_thread_unique_bytes, 8);
        assert_eq!(worker.comm.local_unique_bytes, 0);
        assert_eq!(worker.comm.input_unique_bytes, 0);
        // The producer side of the same function still records output.
        assert_eq!(worker.comm.output_unique_bytes, 8);
    }

    #[test]
    fn same_thread_classification_is_unchanged() {
        use sigil_trace::ThreadId;
        // A round-trip through another thread that never touches the data
        // leaves every existing class exactly as the single-threaded run.
        let profile = run(SigilConfig::default(), |e| {
            e.scoped_named("main", |e| {
                e.scoped_named("f", |e| {
                    e.write(0x300, 8);
                    e.read(0x300, 8);
                });
                e.switch_thread(ThreadId::from_raw(1));
                e.op(sigil_trace::OpClass::IntArith, 3);
                e.switch_thread(ThreadId::MAIN);
                e.scoped_named("g", |e| e.read(0x300, 8));
            });
        });
        let f = profile.function_by_name("f").expect("f");
        assert_eq!(f.comm.local_unique_bytes, 8);
        assert_eq!(f.comm.inter_thread_bytes(), 0);
        let g = profile.function_by_name("g").expect("g");
        assert_eq!(g.comm.input_unique_bytes, 8);
        assert_eq!(g.comm.inter_thread_bytes(), 0);
    }

    #[test]
    fn syscall_output_attributed_to_syscall() {
        let profile = run(SigilConfig::default(), |e| {
            e.scoped_named("main", |e| {
                e.syscall("sys_read", |e| e.write(0x900, 64));
                e.read(0x900, 64);
            });
        });
        let sys = profile.function_by_name("sys_read").expect("syscall row");
        assert_eq!(sys.comm.output_unique_bytes, 64);
        let main = profile.function_by_name("main").expect("main");
        assert_eq!(main.comm.input_unique_bytes, 64);
    }
}

//! The naive reference profiler.

use std::collections::{BTreeMap, HashMap};

use sigil_core::reuse::ContextReuse;
use sigil_core::{LineReport, SigilConfig};
use sigil_mem::{EvictionPolicy, CHUNK_SLOTS};
use sigil_trace::{
    Addr, ExecutionObserver, FunctionId, MemAccess, OpClock, RuntimeEvent, SymbolTable,
};

use crate::report::{function_name, EdgeReport, FunctionReport, OracleReport, ReuseReport};

/// Function identity as the oracle tracks it: `None` is the synthetic
/// root (code running outside any call).
type FuncKey = Option<FunctionId>;

/// Who touched a byte: the function, the global dynamic call number,
/// and the guest thread.
///
/// Call numbers are globally unique across all functions and threads
/// (both profilers bump one counter on every `Call`/`SyscallEnter`), so
/// comparing `(func, call)` pairs is equivalent to the production
/// profiler's `(context, call)` owner comparison: equal call numbers
/// imply the very same dynamic call. The one collision is the `call ==
/// 0` root frame, which every thread shares — the `thread` field is
/// what keeps per-thread root frames distinct, mirroring the production
/// `Owner`'s thread field, and is the discriminant for inter-thread
/// classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OwnerRec {
    func: FuncKey,
    call: u64,
    thread: u32,
}

/// Flat per-byte shadow record: last writer, last reader, and the
/// reuse-mode triple — the paper's Table I, nothing else.
#[derive(Debug, Clone, Copy, Default)]
struct OracleByte {
    writer: Option<OwnerRec>,
    reader: Option<OwnerRec>,
    reuse_count: u64,
    first_access: u64,
    last_access: u64,
}

impl OracleByte {
    fn lifetime(&self) -> u64 {
        self.last_access.saturating_sub(self.first_access)
    }

    fn reset_reuse(&mut self) {
        self.reuse_count = 0;
        self.first_access = 0;
        self.last_access = 0;
    }
}

/// Intentional semantic mutations of the oracle, used by the harness's
/// self-test: replaying with a bug injected must produce divergences,
/// and the shrinker must reduce them to a tiny repro. Each variant is a
/// realistic way a shadow-memory refactor could go wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBug {
    /// Repeat-read detection compares only the reading *function*,
    /// ignoring the dynamic call number — a fresh call of the same
    /// function then wrongly sees its reads as non-unique.
    RepeatIgnoresCall,
    /// A write fails to invalidate the last-reader field, so a reader's
    /// later re-read of the *new* value still counts as a repeat.
    WriteKeepsReader,
    /// Inter-thread classification is skipped entirely: a read whose
    /// last writer ran on another thread falls back to the pre-thread
    /// input/local rule — exactly what forgetting the thread axis in a
    /// refactor would do. Only manifests on multithreaded traces.
    InterThreadAsInput,
}

/// The naive reference implementation of the Sigil byte classification.
///
/// An [`ExecutionObserver`] exactly like the production profiler; feed
/// both the same event stream (`sigil_trace::io::replay`) and project
/// both to an [`OracleReport`] to compare. See the crate docs for what
/// is deliberately naive here.
#[derive(Debug)]
pub struct OracleProfiler {
    config: SigilConfig,
    bug: Option<InjectedBug>,
    clock: OpClock,
    call_counter: u64,
    current_thread: u32,
    /// Per-thread stacks of (function, call-number) frames.
    stacks: HashMap<u32, Vec<OwnerRec>>,
    shadow: HashMap<Addr, OracleByte>,
    /// Naive residency model, active only under a chunk limit:
    /// `chunk key -> (allocation seq, last-touch seq)`. Victims are
    /// found by an O(n) scan.
    chunks: BTreeMap<u64, (u64, u64)>,
    seq: u64,
    evicted_chunks: u64,
    functions: BTreeMap<FuncKey, FunctionAccum>,
    edges: BTreeMap<(FuncKey, FuncKey), EdgeReport>,
    reuse: Option<BTreeMap<FuncKey, ContextReuse>>,
    /// Line-mode shadow: line index -> access count (never evicted, like
    /// the production line table).
    lines: Option<HashMap<u64, u64>>,
}

#[derive(Debug, Default)]
struct FunctionAccum {
    calls: u64,
    comm: sigil_core::CommStats,
}

impl OracleProfiler {
    /// Creates an oracle for `config`. The relevant knobs are
    /// `reuse_mode`, `line_size`, `shadow_chunk_limit`, and `eviction`;
    /// event recording is not modelled.
    pub fn new(config: SigilConfig) -> Self {
        let mut functions = BTreeMap::new();
        functions.insert(None, FunctionAccum::default());
        OracleProfiler {
            config,
            bug: None,
            clock: OpClock::new(),
            call_counter: 0,
            current_thread: 0,
            stacks: HashMap::new(),
            shadow: HashMap::new(),
            chunks: BTreeMap::new(),
            seq: 0,
            evicted_chunks: 0,
            functions,
            edges: BTreeMap::new(),
            reuse: config.reuse_mode.then(BTreeMap::new),
            lines: config.line_size.map(|_| HashMap::new()),
        }
    }

    /// Injects `bug`, deliberately corrupting the oracle's semantics.
    #[must_use]
    pub fn with_bug(mut self, bug: InjectedBug) -> Self {
        self.bug = Some(bug);
        self
    }

    /// Chunks the naive residency model evicted so far.
    pub fn evicted_chunks(&self) -> u64 {
        self.evicted_chunks
    }

    fn current_frame(&self) -> OwnerRec {
        self.stacks
            .get(&self.current_thread)
            .and_then(|s| s.last().copied())
            .unwrap_or(OwnerRec {
                func: None,
                call: 0,
                thread: self.current_thread,
            })
    }

    fn handle_enter(&mut self, func: FunctionId) {
        self.call_counter += 1;
        let call = self.call_counter;
        let thread = self.current_thread;
        self.stacks
            .entry(self.current_thread)
            .or_default()
            .push(OwnerRec {
                func: Some(func),
                call,
                thread,
            });
        self.functions.entry(Some(func)).or_default().calls += 1;
    }

    fn handle_leave(&mut self) {
        if let Some(stack) = self.stacks.get_mut(&self.current_thread) {
            stack.pop();
        }
    }

    /// Mirrors `ShadowTable::slot_mut` residency: every byte access
    /// touches its chunk's recency, allocating (and evicting, under a
    /// limit) as needed. Evicting a chunk drops every shadow record in
    /// it — exactly what the production table's chunk recycling does.
    fn touch(&mut self, addr: Addr) {
        let Some(limit) = self.config.shadow_chunk_limit else {
            return;
        };
        let key = addr / CHUNK_SLOTS as u64;
        self.seq += 1;
        if let Some(meta) = self.chunks.get_mut(&key) {
            meta.1 = self.seq;
            return;
        }
        while self.chunks.len() >= limit.max(1) {
            let victim = match self.config.eviction {
                EvictionPolicy::Fifo => self.chunks.iter().min_by_key(|&(_, &(alloc, _))| alloc),
                EvictionPolicy::Lru => self.chunks.iter().min_by_key(|&(_, &(_, touch))| touch),
            }
            .map(|(&k, _)| k)
            .expect("non-empty chunk index");
            self.chunks.remove(&victim);
            self.shadow.retain(|&a, _| a / CHUNK_SLOTS as u64 != victim);
            self.evicted_chunks += 1;
        }
        self.chunks.insert(key, (self.seq, self.seq));
    }

    fn record_lines(&mut self, access: MemAccess) {
        let Some(line_size) = self.config.line_size else {
            return;
        };
        let Some(lines) = self.lines.as_mut() else {
            return;
        };
        let shift = line_size.trailing_zeros();
        let first = access.addr >> shift;
        let last = (access.end() - 1) >> shift;
        for line in first..=last {
            *lines.entry(line).or_default() += 1;
        }
    }

    fn reuse_flush(
        reuse: &mut Option<BTreeMap<FuncKey, ContextReuse>>,
        reader: OwnerRec,
        byte: &OracleByte,
    ) {
        if let Some(map) = reuse.as_mut() {
            map.entry(reader.func)
                .or_insert_with(|| ContextReuse::new(sigil_callgrind::ContextId::ROOT))
                .record(byte.reuse_count, byte.lifetime(), 1);
        }
    }

    fn handle_read(&mut self, access: MemAccess, at: u64) {
        let cur = self.current_frame();
        self.record_lines(access);
        for addr in access.bytes() {
            self.touch(addr);
            let mut byte = self.shadow.get(&addr).copied().unwrap_or_default();
            let repeat = match self.bug {
                Some(InjectedBug::RepeatIgnoresCall) => {
                    byte.reader.map(|r| r.func) == Some(cur.func)
                }
                _ => byte.reader == Some(cur),
            };
            let producer = byte.writer;

            // Reuse: a change of reader flushes the previous reader's
            // record; the first read of a (value, call) pair starts a
            // new lifetime.
            if self.config.reuse_mode {
                if !repeat {
                    if let Some(prev_reader) = byte.reader {
                        Self::reuse_flush(&mut self.reuse, prev_reader, &byte);
                        byte.reset_reuse();
                    }
                }
                if !repeat {
                    byte.first_access = at;
                } else {
                    byte.reuse_count += 1;
                }
                byte.last_access = at;
            }
            byte.reader = Some(cur);
            self.shadow.insert(addr, byte);

            // Table-I classification, function-level, with the
            // inter-thread axis: a last writer on another guest thread
            // is inter-thread input, disjoint from (and checked before)
            // the local class.
            let producer_fn = producer.and_then(|p| p.func);
            let is_inter = self.bug != Some(InjectedBug::InterThreadAsInput)
                && producer.is_some_and(|p| p.thread != cur.thread);
            let is_local = !is_inter && producer.is_some() && producer_fn == cur.func;
            {
                let consumer = self.functions.entry(cur.func).or_default();
                consumer.comm.bytes_read += 1;
                match (is_inter, is_local, repeat) {
                    (true, _, false) => consumer.comm.inter_thread_unique_bytes += 1,
                    (true, _, true) => consumer.comm.inter_thread_nonunique_bytes += 1,
                    (false, true, false) => consumer.comm.local_unique_bytes += 1,
                    (false, true, true) => consumer.comm.local_nonunique_bytes += 1,
                    (false, false, false) => consumer.comm.input_unique_bytes += 1,
                    (false, false, true) => consumer.comm.input_nonunique_bytes += 1,
                }
            }
            if !is_local {
                let producer_stats = self.functions.entry(producer_fn).or_default();
                if repeat {
                    producer_stats.comm.output_nonunique_bytes += 1;
                } else {
                    producer_stats.comm.output_unique_bytes += 1;
                }
                let edge = self.edges.entry((producer_fn, cur.func)).or_default();
                if repeat {
                    edge.nonunique_bytes += 1;
                } else {
                    edge.unique_bytes += 1;
                }
            }
        }
    }

    fn handle_write(&mut self, access: MemAccess, _at: u64) {
        let cur = self.current_frame();
        self.record_lines(access);
        self.functions
            .entry(cur.func)
            .or_default()
            .comm
            .bytes_written += u64::from(access.size);
        for addr in access.bytes() {
            self.touch(addr);
            let mut byte = self.shadow.get(&addr).copied().unwrap_or_default();
            if self.config.reuse_mode {
                if let Some(prev_reader) = byte.reader {
                    Self::reuse_flush(&mut self.reuse, prev_reader, &byte);
                }
            }
            byte.writer = Some(cur);
            if self.bug != Some(InjectedBug::WriteKeepsReader) {
                byte.reader = None;
            }
            byte.reset_reuse();
            self.shadow.insert(addr, byte);
        }
    }

    /// Consumes the oracle into its per-function-name report.
    pub fn into_report(mut self, symbols: &SymbolTable) -> OracleReport {
        // Flush reuse records of bytes still live (and still resident —
        // evicted bytes lost their records, as in production) at exit.
        if self.config.reuse_mode {
            let shadow = std::mem::take(&mut self.shadow);
            for byte in shadow.values() {
                if let Some(reader) = byte.reader {
                    Self::reuse_flush(&mut self.reuse, reader, byte);
                }
            }
        }

        let functions = self
            .functions
            .iter()
            .map(|(&key, accum)| {
                (
                    function_name(key, symbols),
                    FunctionReport {
                        calls: accum.calls,
                        comm: accum.comm,
                    },
                )
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|(&(p, c), &bytes)| {
                (
                    format!(
                        "{} -> {}",
                        function_name(p, symbols),
                        function_name(c, symbols)
                    ),
                    bytes,
                )
            })
            .collect();
        let reuse = self.reuse.as_ref().map(|map| {
            map.iter()
                .map(|(&key, row)| (function_name(key, symbols), ReuseReport::from_context(row)))
                .collect()
        });
        let lines = self.lines.as_ref().map(|lines| {
            let mut buckets = [0u64; 5];
            let mut touched = 0u64;
            for &accesses in lines.values() {
                if accesses == 0 {
                    continue;
                }
                buckets[LineReport::bucket_of(accesses - 1)] += 1;
                touched += 1;
            }
            LineReport {
                line_size: self.config.line_size.expect("line mode on"),
                buckets,
                touched_lines: touched,
            }
        });
        OracleReport {
            functions,
            edges,
            reuse,
            lines,
        }
    }
}

impl ExecutionObserver for OracleProfiler {
    fn on_event(&mut self, event: RuntimeEvent) {
        let at = self.clock.tick(event).as_raw();
        match event {
            RuntimeEvent::Call { callee } => self.handle_enter(callee),
            RuntimeEvent::SyscallEnter { name } => self.handle_enter(name),
            RuntimeEvent::Return | RuntimeEvent::SyscallExit => self.handle_leave(),
            RuntimeEvent::Read { access } => self.handle_read(access, at),
            RuntimeEvent::Write { access } => self.handle_write(access, at),
            RuntimeEvent::ThreadSwitch { thread } => self.current_thread = thread.as_raw(),
            RuntimeEvent::Op { .. } | RuntimeEvent::Branch { .. } => {}
        }
    }

    fn on_finish(&mut self) {
        self.stacks.clear();
        self.current_thread = 0;
    }
}

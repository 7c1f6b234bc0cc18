//! Integration tests for multi-threaded traces.
//!
//! The paper defines software-level communication as "messages between
//! software entities such as functions, **threads**, basic blocks, or
//! even instructions" (§I) and §II-A names threads among the entities
//! Sigil can attribute. These tests drive interleaved two-thread traces
//! through the full stack: the shadow memory attributes cross-thread
//! producer→consumer traffic exactly like cross-function traffic, and
//! each thread gets its own call-stack cursor in the calltree.

use sigil::core::{Profile, SigilConfig, SigilProfiler};
use sigil::trace::{Engine, OpClass, ThreadId};

fn two_thread_profile() -> Profile {
    let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default().with_events()));
    let main_fn = engine.symbols_mut().intern("main");
    let producer = engine.symbols_mut().intern("producer_loop");
    let consumer = engine.symbols_mut().intern("consumer_loop");
    let worker = ThreadId::from_raw(1);

    // Main thread enters main and spawns the worker conceptually.
    engine.call(main_fn);
    engine.op(OpClass::IntArith, 10);

    // Worker thread starts producing.
    engine.switch_thread(worker);
    engine.call(producer);
    for i in 0..16u64 {
        engine.write(0x9000 + i * 8, 8);
        engine.op(OpClass::IntArith, 4);
    }

    // Interleave: main thread consumes what the worker produced so far.
    engine.switch_thread(ThreadId::MAIN);
    engine.call(consumer);
    for i in 0..8u64 {
        engine.read(0x9000 + i * 8, 8);
        engine.op(OpClass::FloatArith, 2);
    }

    // Back to the worker to finish, then both unwind.
    engine.switch_thread(worker);
    engine.write(0x9100, 8);
    engine.ret(); // producer_loop

    engine.switch_thread(ThreadId::MAIN);
    engine.read(0x9100, 8);
    engine.ret(); // consumer_loop
    engine.ret(); // main

    let (profiler, symbols) = engine.finish_with_symbols();
    profiler.into_profile(symbols)
}

#[test]
fn cross_thread_communication_is_inter_thread_input() {
    let profile = two_thread_profile();
    let consumer = profile.function_by_name("consumer_loop").expect("consumer");
    // 8*8 bytes of early data + 8 bytes of late data, all produced on the
    // other thread: unique inter-thread inputs, disjoint from the
    // same-thread input class.
    assert_eq!(consumer.comm.inter_thread_unique_bytes, 72);
    assert_eq!(consumer.comm.input_unique_bytes, 0);
    assert_eq!(consumer.comm.local_unique_bytes, 0);
    let producer = profile.function_by_name("producer_loop").expect("producer");
    assert_eq!(producer.comm.output_unique_bytes, 72);
    assert_eq!(producer.comm.bytes_written, 16 * 8 + 8);
}

#[test]
fn threads_keep_independent_call_stacks() {
    let profile = two_thread_profile();
    let tree = &profile.callgrind.tree;
    let symbols = profile.symbols();
    // consumer_loop is a child of main (main thread); producer_loop
    // hangs off the root (worker thread started with an empty stack).
    let (consumer_ctx, _) = tree
        .iter()
        .find(|(_, n)| {
            n.func
                .is_some_and(|f| symbols.get_name(f) == Some("consumer_loop"))
        })
        .expect("consumer context");
    assert_eq!(
        tree.path_label(consumer_ctx, symbols),
        "main->consumer_loop"
    );
    let (producer_ctx, _) = tree
        .iter()
        .find(|(_, n)| {
            n.func
                .is_some_and(|f| symbols.get_name(f) == Some("producer_loop"))
        })
        .expect("producer context");
    assert_eq!(tree.path_label(producer_ctx, symbols), "producer_loop");
}

#[test]
fn interleaving_does_not_corrupt_cost_attribution() {
    let profile = two_thread_profile();
    let producer = profile.function_by_name("producer_loop").expect("producer");
    let consumer = profile.function_by_name("consumer_loop").expect("consumer");
    let main_fn = profile.function_by_name("main").expect("main");
    assert_eq!(producer.costs.ops_total(), 64, "4 ops x 16 iterations");
    assert_eq!(consumer.costs.ops_total(), 16, "2 ops x 8 reads");
    assert_eq!(main_fn.costs.ops_total(), 10);
}

#[test]
fn event_file_and_critical_path_survive_threads() {
    use sigil::analysis::critical_path::CriticalPath;
    let profile = two_thread_profile();
    let cp = CriticalPath::from_profile(&profile).expect("events recorded");
    assert!(cp.length_ops <= cp.serial_ops);
    assert!(cp.max_parallelism() >= 1.0);
    // The consumer depends on producer data, so both appear in the graph
    // and the path ends no earlier than the dependency allows.
    let names = cp.function_names(&profile);
    assert!(!names.is_empty());
}

#[test]
fn trace_io_round_trips_thread_switches() {
    use sigil::trace::observer::RecordingObserver;
    let mut engine = Engine::new(RecordingObserver::new());
    let f = engine.symbols_mut().intern("f");
    engine.call(f);
    engine.switch_thread(ThreadId::from_raw(3));
    let g = engine.symbols_mut().intern("g");
    engine.call(g);
    engine.ret();
    engine.switch_thread(ThreadId::MAIN);
    engine.ret();
    let (rec, symbols) = engine.finish_with_symbols();
    let events = rec.into_events();

    use sigil::core::{BinWriter, ChunkStream, TraceRecord};
    let mut writer = BinWriter::with_chunk_records(Vec::new(), 2).expect("vec");
    for record in TraceRecord::of_trace(&symbols, &events) {
        writer.push(&record).expect("vec");
    }
    let (_, bytes) = writer.finish().expect("vec");
    let mut stream = ChunkStream::<_, TraceRecord>::new(bytes.as_slice()).expect("header");
    let mut loaded_symbols = sigil::trace::SymbolTable::new();
    let mut loaded = RecordingObserver::new();
    while let Some(records) = stream.next_chunk().expect("chunk decodes") {
        TraceRecord::apply(records, &mut loaded_symbols, &mut loaded).expect("symbols in order");
    }
    assert_eq!(events, loaded.into_events());
    assert_eq!(symbols, loaded_symbols);
}

/// A sharing-heavy interleaving touching several shadow chunks from
/// both threads, with re-reads, overwrites, and cross-thread traffic in
/// both directions — the scenario every multithreaded equivalence test
/// below replays.
fn sharing_scenario(engine: &mut Engine<SigilProfiler>) {
    let main_fn = engine.symbols_mut().intern("main");
    let stage_a = engine.symbols_mut().intern("stage_a");
    let stage_b = engine.symbols_mut().intern("stage_b");
    let worker = ThreadId::from_raw(1);

    engine.call(main_fn);
    engine.write(0x1000, 64); // main seeds a buffer
    engine.write(0x3FF8, 16); // straddles a chunk boundary

    engine.switch_thread(worker);
    engine.call(stage_a);
    engine.read(0x1000, 64); // inter-thread input
    engine.read(0x3FF8, 16); // straddling inter-thread input
    engine.write(0x2000, 32); // worker produces
    engine.write(0x1000, 16); // overwrites part of main's buffer
    engine.op(OpClass::IntArith, 7);

    engine.switch_thread(ThreadId::MAIN);
    engine.call(stage_b);
    engine.read(0x2000, 32); // inter-thread input from the worker
    engine.read(0x2000, 32); // non-unique re-read
    engine.read(0x1000, 64); // mixed: 16 inter (worker wrote), 48 local-ish
    engine.write(0x8000, 8);

    engine.switch_thread(worker);
    engine.read(0x8000, 8); // inter-thread input back the other way
    engine.ret(); // stage_a

    engine.switch_thread(ThreadId::MAIN);
    engine.ret(); // stage_b
    engine.ret(); // main
}

fn run_sharing(config: SigilConfig) -> Profile {
    let mut engine = Engine::new(SigilProfiler::new(config));
    sharing_scenario(&mut engine);
    let (profiler, symbols) = engine.finish_with_symbols();
    profiler.into_profile(symbols)
}

#[test]
fn multithreaded_sharded_matches_serial_byte_for_byte() {
    // Inter-thread classification must survive the sharded replay path
    // identically: same owner threads, same coalescing legality.
    let base = SigilConfig::default()
        .with_reuse_mode()
        .with_line_mode(64)
        .with_events()
        .with_phases(5);
    let serial = run_sharing(base);
    assert!(
        serial
            .contexts
            .iter()
            .any(|c| c.comm.inter_thread_unique_bytes > 0),
        "scenario produces inter-thread traffic"
    );
    for shards in [2, 4, 8] {
        let sharded = run_sharing(base.with_shards(shards));
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&sharded).unwrap(),
            "shards={shards}"
        );
    }
}

#[test]
fn multithreaded_eviction_matches_serial() {
    use sigil::mem::EvictionPolicy;
    // Chunk eviction interleaved with thread switches: the residency
    // oracle replays the same victim sequence, so sharded == serial even
    // when evicted bytes re-classify as root input mid-scenario.
    for policy in [EvictionPolicy::Fifo, EvictionPolicy::Lru] {
        for limit in [1, 2, 3] {
            let base = SigilConfig::default()
                .with_reuse_mode()
                .with_events()
                .with_shadow_limit(limit)
                .with_eviction(policy);
            let serial = run_sharing(base);
            let sharded = run_sharing(base.with_shards(4));
            assert_eq!(
                serde_json::to_string(&serial).unwrap(),
                serde_json::to_string(&sharded).unwrap(),
                "policy={policy:?} limit={limit}"
            );
            assert!(
                serial.memory.evicted_chunks >= 1,
                "limit {limit} must actually evict"
            );
        }
    }
}

#[test]
fn eviction_never_undercounts_inter_thread_bytes_as_local() {
    // An evicted byte loses its last-writer tag and re-reads as root
    // input — the degradation direction is inter→input, never
    // inter→local (which would hide a cross-thread dependency entirely).
    let bounded = run_sharing(SigilConfig::default().with_shadow_limit(1));
    for ctx in &bounded.contexts {
        // stage_b's 48 main-written bytes are "input" (ROOT differs from
        // stage_b), so local stays zero everywhere in this scenario.
        assert_eq!(ctx.comm.local_unique_bytes, 0, "ctx {:?}", ctx.ctx);
    }
}

#[test]
#[should_panic(expected = "unclosed call frames")]
fn unbalanced_thread_stacks_are_caught() {
    let mut engine: Engine<sigil::trace::observer::NullObserver> = Engine::new(Default::default());
    let f = engine.symbols_mut().intern("f");
    engine.switch_thread(ThreadId::from_raw(7));
    engine.call(f);
    engine.switch_thread(ThreadId::MAIN);
    // Thread 7 still has an open frame: finish must panic.
    let _ = engine.finish();
}

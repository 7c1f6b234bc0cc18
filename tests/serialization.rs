//! Integration tests for the data-release workflow: profiles serialize
//! to JSON and traces round-trip through the chunk container — "as
//! these profiles are platform independent, researchers can use the data
//! without running Sigil" (paper §VI).

use sigil::core::{BinWriter, ChunkStream, Profile, SigilConfig, SigilProfiler, TraceRecord};
use sigil::trace::observer::RecordingObserver;
use sigil::trace::{io as trace_io, Engine, ExecutionObserver, SymbolTable};
use sigil::workloads::{Benchmark, InputSize};

fn profile_of(bench: Benchmark, config: SigilConfig) -> Profile {
    let mut engine = Engine::new(SigilProfiler::new(config));
    bench.run(InputSize::SimSmall, &mut engine);
    let (profiler, symbols) = engine.finish_with_symbols();
    profiler.into_profile(symbols)
}

#[test]
fn profile_round_trips_through_json() {
    let config = SigilConfig::default()
        .with_reuse_mode()
        .with_line_mode(64)
        .with_events();
    let original = profile_of(Benchmark::Streamcluster, config);
    let json = serde_json::to_string(&original).expect("serializes");
    let loaded: Profile = serde_json::from_str(&json).expect("deserializes");

    assert_eq!(original.edges, loaded.edges);
    assert_eq!(original.contexts, loaded.contexts);
    assert_eq!(original.memory, loaded.memory);
    assert_eq!(original.lines, loaded.lines);
    assert_eq!(original.events, loaded.events);
    assert_eq!(original.callgrind.total_ops, loaded.callgrind.total_ops);
    assert_eq!(
        original.reuse_breakdown(),
        loaded.reuse_breakdown(),
        "reuse aggregates survive"
    );
    // Queries work identically on the loaded profile.
    let a = original.function_by_name("pkmedian").expect("pkmedian");
    let b = loaded.function_by_name("pkmedian").expect("pkmedian");
    assert_eq!(a, b);
}

#[test]
fn recorded_trace_replays_into_identical_profile() {
    // Record the raw event stream of a run…
    let mut engine = Engine::new(RecordingObserver::new());
    Benchmark::Canneal.run(InputSize::SimSmall, &mut engine);
    let (recorder, symbols) = engine.finish_with_symbols();
    let events = recorder.into_events();

    // …write it as a trace-kind container (what `sigil trace` writes)…
    let mut writer = BinWriter::new(Vec::new()).expect("vec");
    for record in TraceRecord::of_trace(&symbols, &events) {
        writer.push(&record).expect("vec");
    }
    let (_, bytes) = writer.finish().expect("vec");

    // …and profile both the live copy and the file, streamed one chunk
    // at a time as `sigil replay` does.
    let config = SigilConfig::default().with_reuse_mode();
    let mut live = SigilProfiler::new(config);
    trace_io::replay(&events, &mut live);
    let live_profile = live.into_profile(symbols);

    let mut stream = ChunkStream::<_, TraceRecord>::new(bytes.as_slice()).expect("header");
    let mut symbols2 = SymbolTable::new();
    let mut loaded = SigilProfiler::new(config);
    while let Some(records) = stream.next_chunk().expect("chunk decodes") {
        TraceRecord::apply(records, &mut symbols2, &mut loaded).expect("symbols in order");
    }
    loaded.on_finish();
    let loaded_profile = loaded.into_profile(symbols2);

    assert_eq!(live_profile.edges, loaded_profile.edges);
    assert_eq!(live_profile.contexts, loaded_profile.contexts);
    assert_eq!(
        live_profile.reuse_breakdown(),
        loaded_profile.reuse_breakdown()
    );
    assert_eq!(
        live_profile.callgrind.total_ops,
        loaded_profile.callgrind.total_ops
    );
}

#[test]
fn replayed_profile_matches_direct_profiling() {
    // Profiling a recorded trace must equal profiling the live run: the
    // profiler is a pure function of the event stream.
    let direct = profile_of(Benchmark::Freqmine, SigilConfig::default());

    let mut engine = Engine::new(RecordingObserver::new());
    Benchmark::Freqmine.run(InputSize::SimSmall, &mut engine);
    let (recorder, symbols) = engine.finish_with_symbols();
    let mut profiler = SigilProfiler::new(SigilConfig::default());
    trace_io::replay(recorder.events(), &mut profiler);
    let replayed = profiler.into_profile(symbols);

    assert_eq!(direct.edges, replayed.edges);
    assert_eq!(direct.contexts, replayed.contexts);
    assert_eq!(direct.callgrind.total_ops, replayed.callgrind.total_ops);
}

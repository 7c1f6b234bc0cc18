//! Pipelined epoch dispatch across shard counts.
//!
//! The sharded replay engine (`sigil_core::shard`) resolves accesses in
//! epochs: with no shadow-chunk limit the dispatch-side residency oracle
//! is elided entirely, and consecutive same-shard runs coalesce into one
//! channel record. `replay_dense/N` prices the engine at shard counts 1,
//! 2, 4 and 8 on a dense producer/consumer trace.
//!
//! Each iteration includes `into_profile`, which joins the workers and
//! merges their fragments — the full cost a `sigil profile --shards N`
//! run pays. On a machine with fewer cores than shards the sharded arms
//! price overhead, not speedup. The dispatch thread's own cost per
//! access is measured by the traced run of the one-command benchmark
//! (`shard.dispatch_ns_per_access`, `shard.records_per_access`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sigil_core::{SigilConfig, SigilProfiler};
use sigil_trace::observer::RecordingObserver;
use sigil_trace::{io::replay, Engine, OpClass, RuntimeEvent, SymbolTable};

/// Records a dense trace: eight producer→consumer rounds sweeping
/// 64-byte runs across a 64-chunk working set (~33k accesses), the
/// access shape where shadow lookups dominate profiling cost.
fn record_dense() -> (SymbolTable, Vec<RuntimeEvent>) {
    const SPAN: u64 = 64 * 4096;
    let mut engine = Engine::new(RecordingObserver::new());
    engine.scoped_named("main", |e| {
        for _ in 0..8 {
            e.scoped_named("producer", |e| {
                e.op(OpClass::IntArith, 16);
                for i in 0..2048u64 {
                    e.write((i * 64) % SPAN, 64);
                }
            });
            e.scoped_named("consumer", |e| {
                for i in 0..2048u64 {
                    e.read((i * 64) % SPAN, 64);
                }
                e.op(OpClass::FloatArith, 16);
            });
        }
    });
    let (observer, symbols) = engine.finish_with_symbols();
    (symbols, observer.into_events())
}

fn shadow_pipeline(c: &mut Criterion) {
    let (symbols, events) = record_dense();
    let mut group = c.benchmark_group("shadow_pipeline");
    group.sample_size(30);
    for shards in [1usize, 2, 4, 8] {
        let config = SigilConfig::default()
            .with_reuse_mode()
            .with_line_mode(64)
            .with_shards(shards);
        group.bench_with_input(
            BenchmarkId::new("replay_dense", shards),
            &events,
            |b, events| {
                b.iter(|| {
                    let mut profiler = SigilProfiler::new(config);
                    replay(events, &mut profiler);
                    black_box(profiler.into_profile(symbols.clone()))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, shadow_pipeline);
criterion_main!(benches);

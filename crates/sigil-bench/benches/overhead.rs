//! Criterion companion to Figures 4/5: per-benchmark cost of a native
//! run (events counted behind a never-inlined call) vs Callgrind-like
//! profiling vs full Sigil profiling of the same trace, plus the cost
//! of running the same profile with `sigil-obs` instrumentation enabled
//! vs disabled (`sigil_obs_off` should match `sigil` — the disabled
//! path is a handful of relaxed atomic loads).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sigil_bench::NativeFloor;
use sigil_callgrind::{CallgrindConfig, CallgrindProfiler};
use sigil_core::{SigilConfig, SigilProfiler};
use sigil_trace::Engine;
use sigil_workloads::{Benchmark, InputSize};

const BENCHES: [Benchmark; 3] = [
    Benchmark::Blackscholes,
    Benchmark::Streamcluster,
    Benchmark::Dedup,
];

fn overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("overhead");
    group.sample_size(10);
    for bench in BENCHES {
        group.bench_with_input(
            BenchmarkId::new("native", bench.name()),
            &bench,
            |b, &bench| {
                b.iter(|| {
                    let mut engine = Engine::new(NativeFloor::default());
                    bench.run(InputSize::SimSmall, &mut engine);
                    engine.finish()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("callgrind", bench.name()),
            &bench,
            |b, &bench| {
                b.iter(|| {
                    let mut engine =
                        Engine::new(CallgrindProfiler::new(CallgrindConfig::default()));
                    bench.run(InputSize::SimSmall, &mut engine);
                    let (p, s) = engine.finish_with_symbols();
                    p.into_profile(s)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sigil", bench.name()),
            &bench,
            |b, &bench| {
                b.iter(|| {
                    let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
                    bench.run(InputSize::SimSmall, &mut engine);
                    let (p, s) = engine.finish_with_symbols();
                    p.into_profile(s)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sigil_reuse", bench.name()),
            &bench,
            |b, &bench| {
                b.iter(|| {
                    let mut engine =
                        Engine::new(SigilProfiler::new(SigilConfig::default().with_reuse_mode()));
                    bench.run(InputSize::SimSmall, &mut engine);
                    let (p, s) = engine.finish_with_symbols();
                    p.into_profile(s)
                });
            },
        );
        // Same profile run with observability off (the default) and on:
        // the off column is the guard against instrumentation creep in
        // the hot path, the on column prices the spans + metric export.
        group.bench_with_input(
            BenchmarkId::new("sigil_obs_off", bench.name()),
            &bench,
            |b, &bench| {
                sigil_obs::set_enabled(false);
                b.iter(|| {
                    let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
                    bench.run(InputSize::SimSmall, &mut engine);
                    let (p, s) = engine.finish_with_symbols();
                    p.into_profile(s)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sigil_obs_on", bench.name()),
            &bench,
            |b, &bench| {
                sigil_obs::set_enabled(true);
                b.iter(|| {
                    let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
                    bench.run(InputSize::SimSmall, &mut engine);
                    let (p, s) = engine.finish_with_symbols();
                    p.into_profile(s)
                });
                sigil_obs::set_enabled(false);
                sigil_obs::span::clear();
                sigil_obs::metrics::clear();
            },
        );
    }
    group.finish();
}

criterion_group!(benches, overhead);
criterion_main!(benches);

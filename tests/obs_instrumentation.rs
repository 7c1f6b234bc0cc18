//! End-to-end observability: profiling a real workload under `sigil-obs`
//! must produce the nested phase spans and shadow metrics the CLI
//! exports, and a disabled run must leave no trace at all (the tier-1
//! guard against instrumentation creep in the hot path).
//!
//! This file is its own process, so the `sigil-obs` globals are shared
//! only between the tests below — they serialize on `OBS_LOCK`.

use sigil::core::{SigilConfig, SigilProfiler};
use sigil::obs::metrics::MetricValue;
use sigil::obs::{json, metrics, span};
use sigil::trace::Engine;
use sigil::workloads::{Benchmark, InputSize};

fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Profiles one small benchmark the same way `sigil profile` does,
/// including the phase spans the CLI opens around the run.
fn profile_with_spans(bench: Benchmark) -> sigil::core::Profile {
    let _profile_span = sigil::obs::span_with(|| format!("profile:{}", bench.name()));
    let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
    {
        let _trace_span = span::span("trace");
        bench.run(InputSize::SimSmall, &mut engine);
    }
    let (profiler, symbols) = engine.finish_with_symbols();
    profiler.into_profile(symbols)
}

#[test]
fn disabled_observability_records_nothing() {
    let _lock = obs_lock();
    sigil::obs::set_enabled(false);
    span::clear();
    metrics::clear();

    let profile = profile_with_spans(Benchmark::Blackscholes);
    assert!(profile.memory.accesses > 0, "the workload touched memory");

    assert_eq!(span::count(), 0, "no spans while disabled");
    assert!(metrics::snapshot().is_empty(), "no metrics while disabled");
}

#[test]
fn enabled_observability_captures_phases_and_shadow_counters() {
    let _lock = obs_lock();
    span::clear();
    metrics::clear();
    sigil::obs::set_enabled(true);
    let profile = profile_with_spans(Benchmark::Blackscholes);
    sigil::obs::set_enabled(false);

    // Phase spans: trace, shadow, and postprocess all nest (depth 1)
    // inside the profile:<bench> root on the same thread.
    let spans = span::snapshot();
    let root = spans
        .iter()
        .find(|s| s.name == "profile:blackscholes")
        .expect("profile root span");
    assert_eq!(root.depth, 0);
    for phase in ["trace", "shadow", "postprocess"] {
        let child = spans
            .iter()
            .find(|s| s.name == phase)
            .unwrap_or_else(|| panic!("`{phase}` span recorded"));
        assert_eq!(child.depth, 1, "`{phase}` nests inside the root");
        assert_eq!(child.tid, root.tid);
        assert!(root.start_us <= child.start_us);
        assert!(child.end_us() <= root.end_us());
    }

    // Shadow-table counters round-trip exactly from the profile.
    let snap = metrics::snapshot();
    assert_eq!(
        snap.get("shadow.accesses"),
        Some(&MetricValue::Counter(profile.memory.accesses))
    );
    assert_eq!(
        snap.get("shadow.mru_hits"),
        Some(&MetricValue::Counter(profile.memory.mru_hits))
    );
    assert_eq!(
        snap.get("shadow.table_probes"),
        Some(&MetricValue::Counter(profile.memory.table_probes))
    );

    // Both export formats are valid JSON.
    let trace_doc = json::parse(&sigil::obs::export_chrome_trace()).expect("trace JSON");
    let events = trace_doc
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .expect("traceEvents array");
    assert!(events.len() >= 4, "root + three phases (+ thread names)");
    let metrics_doc = json::parse(&metrics::snapshot_json()).expect("metrics JSON");
    assert!(metrics_doc
        .get("counters")
        .and_then(|c| c.get("shadow.accesses"))
        .is_some());

    span::clear();
    metrics::clear();
}

/// A sharded run under obs must export the dispatch-thread telemetry:
/// busy time, record and access counts, and the derived
/// records-per-access gauge. The access log holds one record per chunk
/// run, so the records are exactly the profile's runs. The pipeline's
/// depth lands in the same registry: one depth gauge per worker, the
/// backlog gauge, and the published-block counter. A finished run reads
/// every depth as 0.
#[test]
fn sharded_runs_export_dispatch_telemetry() {
    let _lock = obs_lock();
    span::clear();
    metrics::clear();
    sigil::obs::set_enabled(true);
    let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default().with_shards(4)));
    Benchmark::Blackscholes.run(InputSize::SimSmall, &mut engine);
    let (profiler, symbols) = engine.finish_with_symbols();
    let profile = profiler.into_profile(symbols);
    sigil::obs::set_enabled(false);

    let snap = metrics::snapshot();
    let counter = |name: &str| match snap.get(name) {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("`{name}` should be a counter, got {other:?}"),
    };
    let accesses = counter("dispatch.accesses");
    let records = counter("dispatch.records");
    assert!(accesses > 0, "the workload dispatched accesses");
    assert_eq!(records, profile.memory.runs, "one log record per chunk run");
    match snap.get("dispatch.records_per_access") {
        Some(MetricValue::Gauge(v)) => {
            assert!(*v > 0.0, "records/access gauge is positive");
            assert!((v - records as f64 / accesses as f64).abs() < 1e-9);
        }
        other => panic!("dispatch.records_per_access should be a gauge, got {other:?}"),
    }
    // The run is finished and its workers joined, so nothing is queued.
    let drained = |name: &str| match snap.get(name) {
        Some(MetricValue::Gauge(v)) => assert_eq!(*v, 0.0, "`{name}` after the join"),
        other => panic!("`{name}` should be a gauge, got {other:?}"),
    };
    for shard in 0..4 {
        drained(&format!("shard.{shard}.depth"));
    }
    drained("shard.dispatch_backlog");
    assert!(counter("shard.blocks_sent") > 0, "the final block at least");

    span::clear();
    metrics::clear();
}

/// Writers on many threads hammer counters, gauges, and histograms
/// while a reader repeatedly snapshots — every JSON export must stay
/// well-formed mid-flight, and the final counter totals must be exact
/// (no lost updates).
#[test]
fn concurrent_writers_keep_snapshots_well_formed() {
    let _lock = obs_lock();
    span::clear();
    metrics::clear();
    sigil::obs::set_enabled(true);

    const WRITERS: usize = 8;
    const ROUNDS: u64 = 500;
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    metrics::counter("stress.shared").inc();
                    metrics::counter(&format!("stress.worker.{w}")).add(i);
                    metrics::set_gauge(&format!("stress.depth.{w}"), i as f64);
                    metrics::histogram("stress.lat", &[1, 10, 100]).observe(i);
                }
            })
        })
        .collect();

    // Read concurrently with the writers: partial counts are fine, but
    // the exports must always parse and keys must stay sorted.
    for _ in 0..50 {
        let doc = json::parse(&metrics::snapshot_json()).expect("metrics JSON mid-write");
        assert!(doc.get("counters").is_some());
        let snap = metrics::snapshot();
        let keys: Vec<_> = snap.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "snapshot keys stay sorted");
        std::thread::yield_now();
    }
    for writer in writers {
        writer.join().expect("writer thread panicked");
    }

    let snap = metrics::snapshot();
    assert_eq!(
        snap.get("stress.shared"),
        Some(&MetricValue::Counter(WRITERS as u64 * ROUNDS)),
        "shared counter lost updates under contention"
    );
    let per_worker = ROUNDS * (ROUNDS - 1) / 2;
    for w in 0..WRITERS {
        assert_eq!(
            snap.get(&format!("stress.worker.{w}")),
            Some(&MetricValue::Counter(per_worker))
        );
    }
    match snap.get("stress.lat") {
        Some(MetricValue::Histogram { total, .. }) => {
            assert_eq!(*total, WRITERS as u64 * ROUNDS, "histogram lost samples");
        }
        other => panic!("stress.lat should be a histogram, got {other:?}"),
    }

    sigil::obs::set_enabled(false);
    metrics::clear();
}

#[test]
fn sweep_entries_surface_memory_stats() {
    let _lock = obs_lock();
    let names = vec![
        ("blackscholes".to_string(), "simsmall".to_string()),
        ("streamcluster".to_string(), "simsmall".to_string()),
    ];
    let entries = sigil::core::sweep::sweep(2, &names, |name| {
        let bench: Benchmark = name.parse().expect("known benchmark");
        let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
        bench.run(InputSize::SimSmall, &mut engine);
        let (profiler, symbols) = engine.finish_with_symbols();
        profiler.into_profile(symbols)
    });
    assert_eq!(entries.len(), 2);
    for entry in &entries {
        assert_eq!(entry.memory, entry.profile.memory);
        assert!(entry.memory.accesses > 0);
    }
    let json_text = serde_json::to_string(&entries).expect("serializes");
    assert!(json_text.contains("\"accesses\""));
    assert!(json_text.contains("\"mru_hits\""));
}

//! Every metric the benchmark reports, by name, with its unit and which
//! direction is better. `BENCHMARK.json` lists the same names.

use crate::json::Json;
use crate::stats::median;
use crate::workload::Timed;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Measured with tracing off, on every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("events_per_s", "events/s", "higher"),
    m("sigil_added_ns_per_event", "ns", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// Measured by the traced run, per timed pass, on every workload: the
/// layers every input passes through. `BENCHMARK.json` lists these.
pub const PER_LAYER: &[Metric] = &[
    m("trace.generate_s", "s", "lower"),
    m("trace.replay_floor_s", "s", "lower"),
    m("trace.events", "count", "lower"),
    m("trace.read_bytes", "bytes", "lower"),
    m("trace.write_bytes", "bytes", "lower"),
    m("callgrind.replay_s", "s", "lower"),
    m("callgrind.ns_per_event", "ns", "lower"),
    m("callgrind.contexts", "count", "lower"),
    m("callgrind.ratio", "x", "lower"),
    m("shadow.walk_s", "s", "lower"),
    m("shadow.accesses", "count", "lower"),
    m("shadow.runs", "count", "lower"),
    m("shadow.bytes_per_run", "bytes", "higher"),
    m("shadow.mru_hit_frac", "frac", "higher"),
    m("shadow.table_probes", "count", "lower"),
    m("shadow.resident_mib", "MiB", "lower"),
    m("core.classify_s", "s", "lower"),
    m("core.classify_ns_per_event", "ns", "lower"),
    m("core.into_profile_s", "s", "lower"),
    m("core.small_profile_us", "us", "lower"),
];

/// Layers only some workloads exercise, kept in each traced record (0
/// where a workload does not exercise the layer). They stay out of
/// `BENCHMARK.json`: a metric that reads 0 on some workload is no
/// measurement there.
pub const WORKLOAD_LAYERS: &[Metric] = &[
    m("trace.thread_switches", "count", "lower"),
    m("shadow.evicted_chunks", "count", "lower"),
    m("ladder.residual_frac", "frac", "lower"),
    m("obs.overhead_frac", "frac", "lower"),
    m("vm.interp_s", "s", "lower"),
    m("vm.ns_per_event", "ns", "lower"),
    m("vm.programs", "count", "lower"),
    m("core.reuse_s", "s", "lower"),
    m("core.lines_s", "s", "lower"),
    m("core.events_s", "s", "lower"),
    m("core.phases_s", "s", "lower"),
    m("core.limit_s", "s", "lower"),
    m("shard.replay_s", "s", "lower"),
    m("shard.speedup", "x", "higher"),
    m("shard.dispatch_ns_per_access", "ns", "lower"),
    m("shard.records_per_access", "records/access", "lower"),
    m("shard.worker_busy_frac", "frac", "higher"),
    m("events_bin.encode_s", "s", "lower"),
    m("events_bin.bytes", "bytes", "lower"),
    m("events_bin.records", "count", "lower"),
    m("analysis.stream_critpath_s", "s", "lower"),
    m("analysis.stream_cdfg_s", "s", "lower"),
    m("analysis.stream_phases_s", "s", "lower"),
    m("analysis.cdfg_s", "s", "lower"),
    m("analysis.trim_rank_s", "s", "lower"),
    m("analysis.critpath_s", "s", "lower"),
    m("serve.connect_s", "s", "lower"),
    m("serve.stream_s", "s", "lower"),
    m("serve.finish_s", "s", "lower"),
    m("serve.credit_waits", "count", "lower"),
    m("serve.chunks", "count", "lower"),
    m("serve.online_over_batch", "x", "lower"),
    m("serve.unattributed_frac", "frac", "lower"),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(WORKLOAD_LAYERS)
        .find(|metric| metric.name == name)
}

/// One metric as a record stores it: the reported value, its unit, and
/// the samples it summarizes.
pub fn entry(name: &str, value: f64, samples: &[f64]) -> Json {
    Json::obj()
        .with("value", value)
        .with("unit", find(name).map_or("", |metric| metric.unit))
        .with("samples", samples)
}

/// The end-to-end metrics of one untraced run: each the median of its
/// samples.
pub fn end_to_end(setup_s: &[f64], timed: &Timed, peak_rss_mib: f64) -> Json {
    let metric = |name: &str, samples: &[f64]| entry(name, median(samples), samples);
    Json::obj()
        .with("setup_s", metric("setup_s", setup_s))
        .with("events_per_s", metric("events_per_s", &timed.events_per_s))
        .with(
            "sigil_added_ns_per_event",
            metric("sigil_added_ns_per_event", &timed.sigil_added_ns_per_event),
        )
        .with("peak_rss_mib", metric("peak_rss_mib", &[peak_rss_mib]))
}

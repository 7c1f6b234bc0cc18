//! The traced run's per-layer numbers.
//!
//! The *ladder* records each input once, then replays it through heavier
//! and heavier observers: a counting floor, a bare shadow-table walk,
//! Callgrind, Sigil with default options, then each optional output the
//! workload's configuration turns on, and finally its shard count. The
//! difference between two rungs is one layer's cost. Spans opened around
//! the calls into each layer during a traced pass supply the rest
//! (encoding, analyses, served stages), and the sum of the layer costs is
//! checked against the untraced pass it should add up to. Rung times are
//! in reference seconds (see `speed`), like the end-to-end timings.

use std::collections::BTreeMap;
use std::hint::black_box;

use sigil_callgrind::{CallgrindConfig, CallgrindProfiler};
use sigil_core::{SigilConfig, SigilProfiler};
use sigil_mem::{MemoryStats, Owner, ShadowObject, ShadowTable};
use sigil_obs::SpanRecord;
use sigil_trace::io::replay;
use sigil_trace::observer::{EventCounts, RecordingObserver};
use sigil_trace::{CallNumber, Engine, ExecutionObserver, RuntimeEvent};

use crate::batch::{callgrind_arm, sigil_arm, Floor, Input};
use crate::json::Json;
use crate::metrics::WORKLOAD_LAYERS;
use crate::speed::{RefClock, Span};
use crate::stats::median;
use crate::workload::{LadderSpec, Timed};

/// Repetitions of every rung; each rung reports their median.
const REPS: usize = 5;

/// Walks the shadow table the way Sigil's profiler does — one ranged
/// lookup per access, every byte's shadow object read or written — but
/// classifies nothing. Its cost over the floor is the shadow-memory
/// share of what Sigil adds to Callgrind.
struct ShadowWalk {
    table: ShadowTable<ShadowObject>,
    owner: Owner,
}

impl ExecutionObserver for ShadowWalk {
    fn on_event(&mut self, event: RuntimeEvent) {
        let (write, access) = match event {
            RuntimeEvent::Read { access } => (false, access),
            RuntimeEvent::Write { access } => (true, access),
            _ => return,
        };
        let mut runs = self.table.runs_mut(access.addr, access.len());
        while let Some((_, slots)) = runs.next_run() {
            for obj in slots {
                if write {
                    obj.record_write(self.owner);
                } else {
                    black_box(obj.is_repeat_read(self.owner));
                    obj.record_read(self.owner);
                }
            }
        }
    }
}

/// Replay and `into_profile` time of one rung.
#[derive(Debug, Default, Clone, Copy)]
struct Cost {
    replay: f64,
    finish: f64,
}

impl Cost {
    fn total(self) -> f64 {
        self.replay + self.finish
    }

    /// The median replay and `finish` times of a rung's repetitions.
    fn median(samples: &[[Span; 2]], clock: &RefClock) -> Cost {
        let part = |i: usize| median_ref(samples.iter().map(|spans| spans[i]), clock);
        Cost {
            replay: part(0),
            finish: part(1),
        }
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, other: Cost) {
        self.replay += other.replay;
        self.finish += other.finish;
    }
}

/// The Sigil rungs up to `top`: default options, then each option `top`
/// turns on, in the order the ladder adds them, then its shard count.
fn sigil_rungs(top: SigilConfig) -> Vec<(&'static str, SigilConfig)> {
    let mut config = SigilConfig::default();
    let mut rungs = vec![("default", config)];
    if top.reuse_mode {
        config = config.with_reuse_mode();
        rungs.push(("reuse", config));
    }
    if let Some(line) = top.line_size {
        config = config.with_line_mode(line);
        rungs.push(("lines", config));
    }
    if top.record_events {
        config = config.with_events();
        rungs.push(("events", config));
    }
    if let Some(bucket) = top.phase_bucket_ops {
        config = config.with_phases(bucket);
        rungs.push(("phases", config));
    }
    if let Some(limit) = top.shadow_chunk_limit {
        config = config.with_shadow_limit(limit).with_eviction(top.eviction);
        rungs.push(("limit", config));
    }
    if top.shards > 1 {
        rungs.push(("shards", config.with_shards(top.shards)));
    }
    rungs
}

/// One input's median rung times.
struct Climb {
    vm: bool,
    events: u64,
    counts: EventCounts,
    contexts: u64,
    /// Shadow statistics of the top rung: the workload's own profile.
    memory: MemoryStats,
    generate: f64,
    floor: f64,
    walk: f64,
    callgrind: Cost,
    sigil: Vec<Cost>,
    /// Both arms of a pass by direct generation, timed between the rungs
    /// (when the ladder models the pass).
    arms: f64,
}

/// The median of `spans` in reference seconds.
fn median_ref(spans: impl IntoIterator<Item = Span>, clock: &RefClock) -> f64 {
    let secs: Vec<f64> = spans.into_iter().map(|span| clock.ref_s(span)).collect();
    median(&secs)
}

/// Times `f` on `clock`, calibrating first if a calibration is due.
fn timed<R>(clock: &mut RefClock, f: impl FnOnce() -> R) -> (R, Span) {
    clock.calibrate_if_due();
    clock.time(f)
}

/// Times one profiler rung: construction plus replay, then `finish`.
fn rung<P: ExecutionObserver, R>(
    clock: &mut RefClock,
    events: &[RuntimeEvent],
    make: impl FnOnce() -> P,
    finish: impl FnOnce(P) -> R,
) -> (R, [Span; 2]) {
    let (profiler, replay_span) = timed(clock, || {
        let mut profiler = make();
        replay(events, &mut profiler);
        profiler
    });
    let (result, finish_span) = clock.time(|| finish(profiler));
    (result, [replay_span, finish_span])
}

/// `arms` is the workload's configuration when its pass should be timed
/// alongside the rungs, so that machine drift between the two cancels.
fn climb_one(
    input: &Input,
    rungs: &[(&'static str, SigilConfig)],
    arms: Option<SigilConfig>,
    clock: &mut RefClock,
) -> Climb {
    let mut engine = Engine::new(RecordingObserver::new());
    input.drive(&mut engine);
    let (recorder, symbols) = engine.finish_with_symbols();
    let events = recorder.into_events();

    let (mut generate, mut floor, mut walk) = (Vec::new(), Vec::new(), Vec::new());
    let mut callgrind = Vec::new();
    let mut sigil = vec![Vec::new(); rungs.len()];
    let mut direct = Vec::new();
    let (mut counts, mut contexts, mut memory) = Default::default();
    for _ in 0..REPS {
        if let Some(config) = arms {
            let callgrind_span = timed(clock, || black_box(callgrind_arm(input))).1;
            let sigil_span = timed(clock, || black_box(sigil_arm(input, config))).1;
            direct.push([callgrind_span, sigil_span]);
        }
        generate.push(
            timed(clock, || {
                let mut engine = Engine::new(Floor::default());
                input.drive(&mut engine);
                black_box(engine.finish().0.counts())
            })
            .1,
        );
        let (floor_counts, spans) = rung(clock, &events, Floor::default, |f| f.0.counts());
        counts = black_box(floor_counts);
        floor.push(spans);
        let walker = || ShadowWalk {
            table: ShadowTable::new(),
            owner: Owner::new(1, CallNumber::ROOT.next(), 0),
        };
        walk.push(rung(clock, &events, walker, |w| black_box(w.table.stats())).1);
        let (profile, spans) = rung(
            clock,
            &events,
            || CallgrindProfiler::new(CallgrindConfig::default()),
            |p| p.into_profile(symbols.clone()),
        );
        contexts = profile.tree.len() as u64;
        black_box(profile);
        callgrind.push(spans);
        for ((_, config), samples) in rungs.iter().zip(&mut sigil) {
            let (profile, spans) = rung(
                clock,
                &events,
                || SigilProfiler::new(*config),
                |p| p.into_profile(symbols.clone()),
            );
            memory = profile.memory;
            black_box(profile);
            samples.push(spans);
        }
    }
    clock.calibrate();
    // The sharded rung's dispatch and worker telemetry exists only with
    // tracing on, which slows it: read it from one extra, untimed replay.
    if let Some((_, config)) = rungs.iter().find(|(label, _)| *label == "shards") {
        sigil_obs::set_enabled(true);
        let mut profiler = SigilProfiler::new(*config);
        replay(&events, &mut profiler);
        black_box(profiler.into_profile(symbols.clone()));
        sigil_obs::set_enabled(false);
    }
    Climb {
        vm: matches!(input, Input::Vm { .. }),
        events: events.len() as u64,
        counts,
        contexts,
        memory,
        generate: median_ref(generate, clock),
        floor: Cost::median(&floor, clock).total(),
        walk: Cost::median(&walk, clock).total(),
        callgrind: Cost::median(&callgrind, clock),
        sigil: sigil.iter().map(|s| Cost::median(s, clock)).collect(),
        arms: if direct.is_empty() {
            0.0
        } else {
            let both: Vec<f64> = direct
                .iter()
                .map(|arms| arms.iter().map(|&span| clock.ref_s(span)).sum())
                .collect();
            median(&both)
        },
    }
}

/// Per span name, per traced pass: how many, total and self seconds. A
/// span's self time is its duration less its direct children's.
pub fn span_table(spans: &[SpanRecord], passes: usize) -> BTreeMap<String, (f64, f64, f64)> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].tid, spans[i].start_us, spans[i].depth));
    let mut children_us = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        while let Some(&top) = stack.last() {
            if spans[top].tid != spans[i].tid || spans[top].depth >= spans[i].depth {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            children_us[parent] += spans[i].dur_us;
        }
        stack.push(i);
    }
    let per_pass = passes.max(1) as f64;
    let mut table: BTreeMap<String, (f64, f64, f64)> = BTreeMap::new();
    for (span, child) in spans.iter().zip(children_us) {
        let row = table.entry(span.name.clone()).or_default();
        row.0 += 1.0 / per_pass;
        row.1 += span.dur_us as f64 / 1e6 / per_pass;
        row.2 += span.dur_us.saturating_sub(child) as f64 / 1e6 / per_pass;
    }
    table
}

/// What the traced run reports.
pub struct Layers {
    pub metrics: BTreeMap<&'static str, f64>,
    pub ladder: Json,
}

/// Obs counters read back after the sharded rung.
fn counter(name: &str) -> f64 {
    match sigil_obs::metrics::snapshot().get(name) {
        Some(sigil_obs::metrics::MetricValue::Counter(v)) => *v as f64,
        _ => 0.0,
    }
}

/// Climbs the ladder for `spec` and assembles every per-layer metric.
/// `untraced` and `traced` are the workload's timed phases with tracing
/// off and on; `spans` the span table of the traced phase. Leaves
/// tracing off.
pub fn layers(
    spec: &LadderSpec<'_>,
    untraced: &Timed,
    traced: &Timed,
    spans: &BTreeMap<String, (f64, f64, f64)>,
    clock: &mut RefClock,
) -> Layers {
    let rungs = sigil_rungs(spec.config);
    sigil_obs::metrics::clear();
    let arms = spec.models_pass.then_some(spec.config);
    let climbs: Vec<Climb> = spec
        .inputs
        .iter()
        .map(|input| climb_one(input, &rungs, arms, clock))
        .collect();

    let sum = |f: &dyn Fn(&Climb) -> f64| climbs.iter().map(f).sum::<f64>();
    let rung = |label: &str| -> Option<Cost> {
        let index = rungs.iter().position(|(l, _)| *l == label)?;
        let mut total = Cost::default();
        for c in &climbs {
            total += c.sigil[index];
        }
        Some(total)
    };
    let mut callgrind = Cost::default();
    for c in &climbs {
        callgrind += c.callgrind;
    }
    let events = sum(&|c| c.events as f64);
    let vm_events = sum(&|c| if c.vm { c.events as f64 } else { 0.0 });
    let generate = sum(&|c| c.generate);
    let interp = sum(&|c| if c.vm { c.generate } else { 0.0 });
    let floor = sum(&|c| c.floor);
    let walk = sum(&|c| c.walk) - floor;
    let default = rung("default").expect("every ladder has a default rung");
    let per_event = |secs: f64| {
        if events > 0.0 {
            secs / events * 1e9
        } else {
            0.0
        }
    };
    let memory = climbs
        .iter()
        .fold(MemoryStats::default(), |acc, c| acc.combined(c.memory));
    // Inputs are profiled one after another: residency peaks, never adds.
    let resident_mib = climbs
        .iter()
        .map(|c| c.memory.resident_mib())
        .fold(0.0, f64::max);
    let counts = |f: &dyn Fn(&EventCounts) -> u64| sum(&|c| f(&c.counts) as f64);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("trace.generate_s", generate);
    m.insert("trace.replay_floor_s", floor);
    m.insert("trace.events", events);
    m.insert("trace.read_bytes", counts(&|c| c.bytes_read));
    m.insert("trace.write_bytes", counts(&|c| c.bytes_written));
    m.insert("trace.thread_switches", counts(&|c| c.thread_switches));
    m.insert("vm.interp_s", interp);
    if vm_events > 0.0 {
        m.insert("vm.ns_per_event", interp / vm_events * 1e9);
    }
    m.insert("vm.programs", sum(&|c| f64::from(u8::from(c.vm))));
    m.insert("callgrind.replay_s", callgrind.total() - floor);
    m.insert(
        "callgrind.ns_per_event",
        per_event(callgrind.total() - floor),
    );
    m.insert("callgrind.contexts", sum(&|c| c.contexts as f64));
    m.insert("callgrind.ratio", default.total() / callgrind.total());
    m.insert("shadow.walk_s", walk);
    m.insert("shadow.accesses", memory.accesses as f64);
    m.insert("shadow.runs", memory.runs as f64);
    m.insert("shadow.bytes_per_run", memory.bytes_per_run());
    m.insert("shadow.mru_hit_frac", memory.mru_hit_rate());
    m.insert("shadow.table_probes", memory.table_probes as f64);
    m.insert("shadow.evicted_chunks", memory.evicted_chunks as f64);
    m.insert("shadow.resident_mib", resident_mib);
    // No rung runs classification alone: it is what the default rung's
    // replay adds over Callgrind's that the shadow walk does not explain.
    let classify = default.replay - callgrind.replay - walk;
    m.insert("core.classify_s", classify);
    m.insert("core.classify_ns_per_event", per_event(classify));
    m.insert("core.into_profile_s", default.finish - callgrind.finish);
    let mut below = default.total();
    let mut extras = 0.0;
    for (label, name) in [
        ("reuse", "core.reuse_s"),
        ("lines", "core.lines_s"),
        ("events", "core.events_s"),
        ("phases", "core.phases_s"),
        ("limit", "core.limit_s"),
    ] {
        if let Some(cost) = rung(label) {
            m.insert(name, cost.total() - below);
            extras += cost.total() - below;
            below = cost.total();
        }
    }
    // The default rung comes first.
    let small: Vec<f64> = climbs.iter().map(|c| c.sigil[0].total() * 1e6).collect();
    m.insert("core.small_profile_us", median(&small));
    let mut shard_delta = 0.0;
    if let Some(shards) = rung("shards") {
        m.insert("shard.replay_s", shards.total());
        m.insert("shard.speedup", below / shards.total());
        shard_delta = shards.total() - below;
        let accesses = counter("dispatch.accesses").max(1.0);
        m.insert(
            "shard.dispatch_ns_per_access",
            counter("dispatch.busy_ns") / accesses,
        );
        m.insert(
            "shard.records_per_access",
            counter("dispatch.records") / accesses,
        );
        let busy = counter("shadow.shards.busy_ns");
        let idle = counter("shadow.shards.idle_ns");
        m.insert("shard.worker_busy_frac", busy / (busy + idle).max(1.0));
    }
    // Span totals are wall time of the traced passes; the host's median
    // slowdown over those passes brings them to reference seconds.
    let traced_slowdown = median(&traced.slowdown);
    let span_total = |name: &str| spans.get(name).map_or(0.0, |row| row.1) / traced_slowdown;
    for name in spec.span_layers {
        let metric = WORKLOAD_LAYERS
            .iter()
            .find(|metric| metric.name.strip_suffix("_s") == Some(name))
            .expect("every span layer is a per-layer metric");
        m.insert(metric.name, span_total(name));
    }
    m.extend(traced.layers.iter().map(|(k, v)| (*k, *v)));
    // Tracing's cost: the spans opened here, plus whatever the crates
    // record once sigil-obs is on. Throughput, unlike a median over
    // operations, does not depend on the mix of operations a phase ran.
    let rate = |t: &Timed| median(&t.events_per_s);
    m.insert("obs.overhead_frac", rate(untraced) / rate(traced) - 1.0);

    // Each arm of a pass generates its input once, so the ladder predicts
    // a pass as two generations, two Callgrind replays, Sigil's additions
    // over Callgrind, and the per-pass work it does not replay. The pass
    // it is checked against is timed between the rungs, arm by arm. With
    // classification a remainder, the check shows that replayed rungs
    // add up to directly generated arms, not how the gap splits.
    let mut parts = vec![
        ("trace.generate (both arms)", 2.0 * generate),
        ("callgrind (both arms)", 2.0 * (callgrind.total() - floor)),
        ("shadow.walk", walk),
        ("core.classify", classify),
        ("core.into_profile", default.finish - callgrind.finish),
        ("core.extras", extras),
        ("shard", shard_delta),
    ];
    parts.extend(spec.span_layers.iter().map(|n| (*n, span_total(n))));
    let predicted: f64 = parts.iter().map(|(_, s)| s).sum();
    let pass = sum(&|c| c.arms) + spec.span_layers.iter().map(|n| span_total(n)).sum::<f64>();
    if spec.models_pass {
        m.insert("ladder.residual_frac", (predicted - pass).abs() / pass);
    } else if let Some(&(_, total, own)) = spans.get("serve.session") {
        // The ladder's batch rungs do not model a socket; what is checked
        // instead is how much of each served session its stage spans
        // (connect, stream, finish) leave unexplained.
        m.insert("serve.unattributed_frac", own / total);
    }

    let rung_json = |cost: Cost| {
        Json::obj()
            .with("replay_s", cost.replay)
            .with("into_profile_s", cost.finish)
            .with("total_s", cost.total())
    };
    let mut rung_table = Json::obj()
        .with("generate", Json::obj().with("total_s", generate))
        .with("floor", Json::obj().with("total_s", floor))
        .with("walk", Json::obj().with("total_s", walk + floor))
        .with("callgrind", rung_json(callgrind));
    for (label, _) in &rungs {
        rung_table.set(label, rung_json(rung(label).expect("listed rung")));
    }
    let mut sum_table = Json::obj();
    for (name, secs) in &parts {
        sum_table.set(name, *secs);
    }
    let mut ladder = Json::obj()
        .with("reps_per_rung", REPS)
        .with("inputs", climbs.len())
        .with("rungs_s_per_pass", rung_table)
        .with(
            "sigil_over_callgrind_s",
            Json::obj()
                .with("total", default.total() - callgrind.total())
                .with("shadow.walk_s", walk)
                .with("core.classify_s", classify)
                .with("core.into_profile_s", default.finish - callgrind.finish),
        );
    if spec.models_pass {
        ladder.set("layer_sum_s", sum_table);
        ladder.set("predicted_pass_s", predicted);
        ladder.set("measured_pass_s", pass);
        let passes: Vec<f64> = (untraced.wall_s.iter().zip(&untraced.slowdown))
            .map(|(wall, slowdown)| wall / slowdown)
            .collect();
        ladder.set("timed_phase_pass_s", median(&passes));
    }
    Layers { metrics: m, ladder }
}

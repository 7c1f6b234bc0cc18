//! The four batch workloads. A pass profiles every input twice by direct
//! generation — once under Callgrind alone, once under Sigil — and
//! `dedup_vips_full` then encodes each Sigil profile's event file and
//! runs the post-processing analyses on it.

use std::time::Instant;

use sigil_analysis::{
    critical_path_from_bin, event_cdfg_from_bin, phase_profile_from_bin, rank_functions_prepared,
    trim_calltree_prepared, BusModel, Candidate, CommModel, CriticalPath, PartitionConfig,
    PathSummary, PreparedCdfg, TrimmedTree,
};
use sigil_callgrind::{CallgrindConfig, CallgrindProfile, CallgrindProfiler};
use sigil_core::{encode_events, PhaseProfile, Profile, SigilConfig, SigilProfiler};
use sigil_mem::MemoryStats;
use sigil_obs::span;
use sigil_trace::observer::CountingObserver;
use sigil_trace::{Engine, ExecutionObserver, RuntimeEvent};
use sigil_vm::{GenProgram, Interpreter, Program};
use sigil_workloads::{vm_kernels, Benchmark};

use crate::checks::{self, Checks, Expected};
use crate::harness;
use crate::json::Json;
use crate::speed::{RefClock, Span};
use crate::workload::{Budget, Kind, LadderSpec, Scale, Timed, Workload, DEFAULT_SEED};

/// Fuel for generated guest programs: bounds runaway recursion, as the
/// differential oracle does. The kernels run to completion instead:
/// `vector_add` and `dot_product` at 2^16 elements need more than this.
const GEN_FUEL: u64 = 2_000_000;
/// Guest threads per generated program.
const GEN_THREADS: u32 = 4;
/// Phase bucket width of `dedup_vips_full`.
const BUCKET_OPS: u64 = 10_000;
/// Span names of the per-pass work the ladder does not replay.
const ANALYSIS_SPANS: &[&str] = &[
    "events_bin.encode",
    "analysis.stream_critpath",
    "analysis.stream_cdfg",
    "analysis.stream_phases",
    "analysis.cdfg",
    "analysis.trim_rank",
    "analysis.critpath",
];

/// One profiled input: a suite program traced directly, or a guest
/// program run by the VM.
pub enum Input {
    Suite {
        bench: Benchmark,
        size: sigil_workloads::InputSize,
    },
    Vm {
        name: String,
        program: Program,
        schedule_seed: u64,
        fuel: Option<u64>,
        generated: bool,
    },
}

impl Input {
    pub fn name(&self) -> &str {
        match self {
            Input::Suite { bench, .. } => bench.name(),
            Input::Vm { name, .. } => name,
        }
    }

    /// Emits the input's event stream into `engine`.
    pub fn drive<O: ExecutionObserver>(&self, engine: &mut Engine<O>) {
        match self {
            Input::Suite { bench, size } => bench.run(*size, engine),
            Input::Vm {
                program,
                schedule_seed,
                fuel,
                ..
            } => {
                let mut interp = Interpreter::new(program).with_schedule_seed(*schedule_seed);
                if let Some(fuel) = fuel {
                    interp = interp.with_fuel(*fuel);
                }
                // A trap unwinds every open frame, so the trace stays
                // balanced and the profile complete; the guest's own
                // result is not part of the benchmark.
                let _ = interp.run(engine);
            }
        }
    }

    fn is_generated(&self) -> bool {
        matches!(
            self,
            Input::Vm {
                generated: true,
                ..
            }
        )
    }
}

/// The Callgrind-only arm: profile and events emitted.
pub fn callgrind_arm(input: &Input) -> (CallgrindProfile, u64) {
    let mut engine = Engine::new(CallgrindProfiler::new(CallgrindConfig::default()));
    input.drive(&mut engine);
    let events = engine.events_emitted();
    let (profiler, symbols) = engine.finish_with_symbols();
    let _span = span("callgrind.into_profile");
    (profiler.into_profile(symbols), events)
}

/// The Sigil arm: profile and events emitted.
pub fn sigil_arm(input: &Input, config: SigilConfig) -> (Profile, u64) {
    let mut engine = Engine::new(SigilProfiler::new(config));
    input.drive(&mut engine);
    let events = engine.events_emitted();
    let (profiler, symbols) = engine.finish_with_symbols();
    let _span = span("core.into_profile");
    (profiler.into_profile(symbols), events)
}

/// The floor observer: counts events behind a call the optimizer may not
/// inline, so a generator driven into it cannot be folded away and each
/// event costs the call a real profiler's does. The traced ladder's
/// generation and replay floors both use it, so its own cost cancels out
/// of every difference.
#[derive(Default)]
pub struct Floor(pub CountingObserver);

impl ExecutionObserver for Floor {
    #[inline(never)]
    fn on_event(&mut self, event: RuntimeEvent) {
        self.0.on_event(event);
    }
}

/// Events an input emits, counted by running its generator into the
/// floor observer.
fn count_events(input: &Input) -> u64 {
    let mut engine = Engine::new(Floor::default());
    input.drive(&mut engine);
    let events = engine.events_emitted();
    std::hint::black_box(engine.finish());
    events
}

/// Post-processing of one full profile: the streaming folds over its
/// in-memory SGEB encoding, then the in-memory analyses.
#[derive(Debug, PartialEq)]
struct Analyses {
    stream_critpath: PathSummary,
    stream_cdfg: Vec<sigil_analysis::streaming::EventCandidate>,
    stream_phases: PhaseProfile,
    trimmed: TrimmedTree,
    ranked: Vec<Candidate>,
    critpath: CriticalPath,
}

impl Analyses {
    fn diff(&self, other: &Analyses) -> Option<&'static str> {
        if self.stream_critpath != other.stream_critpath {
            Some("analysis.stream_critpath")
        } else if self.stream_cdfg != other.stream_cdfg {
            Some("analysis.stream_cdfg")
        } else if self.stream_phases != other.stream_phases {
            Some("analysis.stream_phases")
        } else if self.trimmed != other.trimmed {
            Some("analysis.trim")
        } else if self.ranked != other.ranked {
            Some("analysis.rank")
        } else if self.critpath != other.critpath {
            Some("analysis.critpath")
        } else {
            None
        }
    }
}

fn analyze(profile: &Profile) -> Result<(Vec<u8>, Analyses), String> {
    let events = profile.events.as_ref().ok_or("profile has no event file")?;
    let sgeb = {
        let _span = span("events_bin.encode");
        encode_events(events)
    };
    let stream_critpath = {
        let _span = span("analysis.stream_critpath");
        critical_path_from_bin(sgeb.as_slice(), &CommModel::free())
    }
    .map_err(|e| format!("streamed critical path: {e}"))?;
    let stream_cdfg = {
        let _span = span("analysis.stream_cdfg");
        event_cdfg_from_bin(sgeb.as_slice()).map(|cdfg| cdfg.trim(&BusModel::soc_default(), 1))
    }
    .map_err(|e| format!("streamed event CDFG: {e}"))?;
    let stream_phases = {
        let _span = span("analysis.stream_phases");
        phase_profile_from_bin(sgeb.as_slice(), BUCKET_OPS)
    }
    .map_err(|e| format!("streamed phases: {e}"))?;
    let prepared = {
        let _span = span("analysis.cdfg");
        PreparedCdfg::from_profile(profile)
    };
    let (trimmed, ranked) = {
        let _span = span("analysis.trim_rank");
        let config = PartitionConfig::default();
        (
            trim_calltree_prepared(&prepared, profile, &config),
            rank_functions_prepared(&prepared, profile, &config),
        )
    };
    let critpath = {
        let _span = span("analysis.critpath");
        CriticalPath::from_profile(profile)
    }
    .map_err(|e| format!("critical path: {e}"))?;
    Ok((
        sgeb,
        Analyses {
            stream_critpath,
            stream_cdfg,
            stream_phases,
            trimmed,
            ranked,
            critpath,
        },
    ))
}

/// What one pass produced for one input, kept from the first pass as the
/// reference for every later one. The event file is kept as its SGEB
/// encoding, which is lossless and a fraction of the size.
struct Output {
    sigil: Profile,
    sgeb: Option<Vec<u8>>,
    analyses: Option<Analyses>,
}

/// Both arms of one input and, with analyses on, its post-processing,
/// each timed: the Callgrind arm, the Sigil arm, the analyses.
struct Arms {
    callgrind: CallgrindProfile,
    callgrind_events: u64,
    profile: Profile,
    events: u64,
    analysed: Option<Result<(Vec<u8>, Analyses), String>>,
    spans: [Span; 3],
}

#[derive(Default)]
struct PassSample {
    /// Each input's [`Arms::spans`].
    spans: Vec<[Span; 3]>,
    events: u64,
    op_ms: Vec<f64>,
    /// Event-file records encoded, and the SGEB bytes they took.
    encoded_records: u64,
    encoded_bytes: u64,
}

impl PassSample {
    fn wall_s(&self) -> f64 {
        self.spans.iter().flatten().map(|span| span.wall_s()).sum()
    }

    /// The pass's Callgrind, Sigil and analysis time in reference
    /// seconds; the pass must have ended with a calibration.
    fn ref_s(&self, clock: &RefClock) -> [f64; 3] {
        let mut sums = [0.0; 3];
        for spans in &self.spans {
            for (sum, span) in sums.iter_mut().zip(spans) {
                *sum += clock.ref_s(*span);
            }
        }
        sums
    }
}

pub struct Batch {
    kind: Kind,
    inputs: Vec<Input>,
    config: SigilConfig,
    analyses: bool,
    /// Events per input counted at set-up (suite inputs only: counting a
    /// guest program means interpreting it).
    counted: Option<Vec<u64>>,
    /// Committed digests, checked on the first pass at full scale.
    expected: Option<Expected>,
    /// Whether the generated programs' combined digest is checked too
    /// (they depend on the seed).
    default_seed: bool,
    first: Vec<Output>,
}

impl Batch {
    pub fn setup(kind: Kind, seed: u64, scale: Scale, expected: Option<Expected>) -> Batch {
        let suite = |benches: &[Benchmark]| -> Vec<Input> {
            benches
                .iter()
                .map(|&bench| Input::Suite {
                    bench,
                    size: scale.size,
                })
                .collect()
        };
        let (inputs, config, analyses) = match kind {
            Kind::SuiteSerial => (suite(&Benchmark::ALL), SigilConfig::default(), false),
            Kind::SuiteSharded2 => (
                suite(&Benchmark::ALL),
                SigilConfig::default().with_shards(2),
                false,
            ),
            Kind::DedupVipsFull => (
                suite(&[Benchmark::Dedup, Benchmark::Vips]),
                full_config(),
                true,
            ),
            Kind::VmGuest => (vm_inputs(seed, scale), SigilConfig::default(), false),
            Kind::ServeTwoLanes => unreachable!("the served workload is not a batch"),
        };
        let counted = (kind != Kind::VmGuest).then(|| inputs.iter().map(count_events).collect());
        Batch {
            kind,
            inputs,
            config,
            analyses,
            counted,
            expected,
            default_seed: seed == DEFAULT_SEED,
            first: Vec::new(),
        }
    }

    /// Digests of every input's Sigil profile, for `expected.json`.
    pub fn digests(mut self) -> Vec<(String, String)> {
        self.first_pass(&mut Checks::new(self.kind.name()));
        self.first_pass_digests()
    }

    /// Named digests of the first pass's Sigil profiles; the generated VM
    /// programs share one combined digest.
    fn first_pass_digests(&self) -> Vec<(String, String)> {
        let mut digests = Vec::new();
        let mut generated = String::new();
        for (input, output) in self.inputs.iter().zip(&self.first) {
            let digest = checks::digest(&output.sigil);
            if input.is_generated() {
                generated.push_str(&digest);
            } else {
                digests.push((input.name().to_owned(), digest));
            }
        }
        if !generated.is_empty() {
            digests.push(("generated".to_owned(), checks::fnv(&generated)));
        }
        digests
    }

    fn arms(&self, input: &Input, clock: &mut RefClock) -> Arms {
        clock.calibrate_if_due();
        let ((callgrind, callgrind_events), callgrind_span) = clock.time(|| {
            let _span = span("callgrind.arm");
            callgrind_arm(input)
        });
        clock.calibrate_if_due();
        let ((profile, events), sigil_span) = clock.time(|| {
            let _span = span("core.arm");
            sigil_arm(input, self.config)
        });
        clock.calibrate_if_due();
        let (analysed, analysis_span) = clock.time(|| self.analyses.then(|| analyze(&profile)));
        Arms {
            callgrind,
            callgrind_events,
            profile,
            events,
            analysed,
            spans: [callgrind_span, sigil_span, analysis_span],
        }
    }

    /// One pass over every input, closed by a calibration of `clock`.
    fn pass(&mut self, clock: &mut RefClock, checks: &mut Checks) -> PassSample {
        let _pass = span("pass");
        let mut sample = PassSample::default();
        let first = self.first.is_empty();
        for (i, input) in self.inputs.iter().enumerate() {
            let Arms {
                callgrind,
                callgrind_events,
                mut profile,
                events,
                analysed,
                spans,
            } = self.arms(input, clock);
            checks.attempt(2 + u64::from(self.analyses));
            sample.spans.push(spans);
            sample.events += events;
            sample
                .op_ms
                .push((spans[1].wall_s() + spans[2].wall_s()) * 1e3);

            let _check = span("check");
            let name = input.name();
            checks.same(name, "callgrind", &callgrind, &profile.callgrind);
            checks.same(name, "events_emitted", &callgrind_events, &events);
            let (sgeb, analyses) = match analysed {
                Some(Ok((sgeb, analyses))) => {
                    let records = profile.events.take().map_or(0, |file| file.len());
                    sample.encoded_records += records as u64;
                    sample.encoded_bytes += sgeb.len() as u64;
                    (Some(sgeb), Some(analyses))
                }
                Some(Err(e)) => {
                    checks.fail(name, "analysis", e);
                    (None, None)
                }
                None => (None, None),
            };
            let output = Output {
                sigil: profile,
                sgeb,
                analyses,
            };
            if first {
                checks::conservation(checks, name, &output.sigil);
                if let Some(counted) = &self.counted {
                    checks.same(name, "events_counted_at_setup", &counted[i], &events);
                }
                if let Some(a) = &output.analyses {
                    checks.same(
                        name,
                        "analysis.stream_phases_vs_profile",
                        &Some(&a.stream_phases),
                        &output.sigil.phases.as_ref(),
                    );
                    let summary = PathSummary {
                        serial_ops: a.critpath.serial_ops,
                        length_ops: a.critpath.length_ops,
                    };
                    checks.same(
                        name,
                        "analysis.stream_critpath_vs_graph",
                        &a.stream_critpath,
                        &summary,
                    );
                }
                self.first.push(output);
            } else {
                let reference = &self.first[i];
                checks.same_profile(name, "the first pass", &output.sigil, &reference.sigil);
                checks.same(name, "events", &output.sgeb, &reference.sgeb);
                if let (Some(got), Some(want)) = (&output.analyses, &reference.analyses) {
                    if let Some(field) = got.diff(want) {
                        checks.fail(name, field, "differs from the first pass");
                    }
                }
            }
        }
        if let (true, Some(expected)) = (first, &self.expected) {
            for (input, digest) in self.first_pass_digests() {
                // Generated programs change with the seed; the committed
                // digest is the default seed's.
                if input != "generated" || self.default_seed {
                    expected.check(checks, self.kind.name(), &input, &digest);
                }
            }
        }
        clock.calibrate();
        sample
    }
}

/// `dedup_vips_full`'s configuration: every optional output on, under
/// the paper's 64-chunk FIFO shadow limit.
pub fn full_config() -> SigilConfig {
    SigilConfig::default()
        .with_reuse_mode()
        .with_line_mode(64)
        .with_events()
        .with_phases(BUCKET_OPS)
        .with_shadow_limit(64)
}

fn vm_inputs(seed: u64, scale: Scale) -> Vec<Input> {
    let kernel = |name: &str, program: Program| Input::Vm {
        name: name.to_owned(),
        program,
        schedule_seed: 0,
        fuel: None,
        generated: false,
    };
    let mut inputs = vec![
        kernel("vector_add", vm_kernels::vector_add(1 << 16)),
        kernel("dot_product", vm_kernels::dot_product(1 << 16)),
        kernel("fibonacci", vm_kernels::fibonacci(22)),
    ];
    for i in 0..scale.programs {
        let generated = GenProgram::generate_mt(seed.wrapping_add(i), GEN_THREADS);
        inputs.push(Input::Vm {
            name: format!("gen{}", seed.wrapping_add(i)),
            program: generated.build(),
            schedule_seed: generated.schedule_seed,
            fuel: Some(GEN_FUEL),
            generated: true,
        });
    }
    inputs
}

impl Workload for Batch {
    fn first_pass(&mut self, checks: &mut Checks) -> f64 {
        self.pass(&mut RefClock::new(), checks).wall_s()
    }

    fn timed(&mut self, budget: Budget, clock: &mut RefClock, checks: &mut Checks) -> Timed {
        let start = Instant::now();
        let mut timed = Timed::default();
        loop {
            let sample = self.pass(clock, checks);
            let wall = sample.wall_s();
            let [callgrind, sigil, analysis] = sample.ref_s(clock);
            let reference = callgrind + sigil + analysis;
            let events = sample.events as f64;
            timed.wall_s.push(wall);
            timed.slowdown.push(wall / reference);
            timed.events_per_s.push(events / reference);
            timed.wall_events_per_s.push(events / wall);
            timed
                .sigil_added_ns_per_event
                .push((sigil - callgrind) / events * 1e9);
            timed.op_ms.extend(sample.op_ms);
            if self.analyses {
                let records = sample.encoded_records as f64;
                timed.layers.insert("events_bin.records", records);
                timed
                    .layers
                    .insert("events_bin.bytes", sample.encoded_bytes as f64);
            }
            let elapsed = start.elapsed().as_secs_f64();
            if timed.wall_s.len() >= budget.min && elapsed + wall > budget.seconds {
                return timed;
            }
        }
    }

    fn verify(&mut self, checks: &mut Checks) {
        if self.config.shards > 1 {
            // Sharded replay must be byte-identical to serial replay.
            let serial = SigilConfig {
                shards: 1,
                ..self.config
            };
            for (input, reference) in self.inputs.iter().zip(&self.first) {
                checks.attempt(1);
                let (profile, _) = sigil_arm(input, serial);
                checks.same_profile(input.name(), "serial replay", &reference.sigil, &profile);
            }
        }
    }

    /// The first pass's outputs are the checks' storage, not profiler
    /// memory. They are dropped (keeping each input's digest and shadow
    /// statistics), the peak is reset, and one more pass, holding nothing
    /// from one input to the next, sets the peak reported.
    fn peak_rss_mib(&mut self, checks: &mut Checks) -> (f64, Json) {
        let whole_run = harness::peak_rss_mib();
        let with_references = harness::rss_mib();
        let references: Vec<(String, MemoryStats)> = std::mem::take(&mut self.first)
            .iter()
            .map(|output| (checks::digest(&output.sigil), output.sigil.memory))
            .collect();
        let without_references = harness::rss_mib();
        let reset = harness::reset_peak_rss();
        let mut clock = RefClock::new();
        for (input, (digest, memory)) in self.inputs.iter().zip(&references) {
            checks.attempt(2 + u64::from(self.analyses));
            let arms = self.arms(input, &mut clock);
            let name = input.name();
            let profile = &arms.profile;
            checks.same(name, "callgrind", &arms.callgrind, &profile.callgrind);
            checks.same(name, "digest", &checks::digest(profile), digest);
            checks.same(name, "memory", &profile.memory, memory);
            if let Some(Err(e)) = arms.analysed {
                checks.fail(name, "analysis", e);
            }
        }
        let details = Json::obj()
            .with("whole_run_peak_rss_mib", whole_run)
            .with("rss_with_references_mib", with_references)
            .with("rss_without_references_mib", without_references)
            .with("peak_reset", reset);
        (harness::peak_rss_mib(), details)
    }

    fn ladder(&self) -> LadderSpec<'_> {
        LadderSpec {
            inputs: &self.inputs,
            config: self.config,
            span_layers: if self.analyses { ANALYSIS_SPANS } else { &[] },
            models_pass: true,
        }
    }
}

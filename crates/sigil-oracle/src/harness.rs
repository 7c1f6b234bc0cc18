//! Differential replay, delta-debugging shrinker, and repro rendering.
//!
//! The flow: generate (or record) a trace once, replay the *identical*
//! event stream through the production [`SigilProfiler`] and the
//! [`OracleProfiler`], project both to [`OracleReport`]s, and diff. On
//! divergence, [`shrink`] delta-debugs the generating program down to a
//! minimal instruction sequence that still diverges, and
//! [`first_divergent_access`] replays growing prefixes of the minimized
//! trace to name the exact access where the two profilers first
//! disagree.

use sigil_core::{SigilConfig, SigilProfiler};
use sigil_mem::EvictionPolicy;
use sigil_trace::observer::RecordingObserver;
use sigil_trace::{io::replay, Engine, RuntimeEvent, SymbolTable};
use sigil_vm::{GenProgram, Interpreter};
use sigil_workloads::{Benchmark, InputSize};

use crate::profiler::{InjectedBug, OracleProfiler};
use crate::report::{diff_reports, project_profile, Divergence, OracleReport};

/// Fuel cap for generated programs: bounds runaway recursion while
/// leaving typical generated traces (tens of thousands of events)
/// untouched. An out-of-fuel trap unwinds cleanly, so the recorded
/// trace stays balanced and both profilers still see the same stream.
pub const GEN_FUEL: u64 = 2_000_000;

/// A recorded trace: the event stream plus the symbols it references.
#[derive(Debug, Clone)]
pub struct TraceBundle {
    /// Function names interned while recording.
    pub symbols: SymbolTable,
    /// The full event stream.
    pub events: Vec<RuntimeEvent>,
}

/// Runs a generated program once, recording its event stream. The
/// program's `schedule_seed` drives the guest-thread scheduler, so
/// multithreaded recordings replay the exact interleaving the generator
/// committed to — and shrunk copies (which carry the seed unchanged)
/// keep reproducing it.
pub fn record_program(program: &GenProgram) -> TraceBundle {
    let built = program.build();
    let mut engine = Engine::new(RecordingObserver::new());
    let _ = Interpreter::new(&built)
        .with_fuel(GEN_FUEL)
        .with_schedule_seed(program.schedule_seed)
        .run(&mut engine);
    let (observer, symbols) = engine.finish_with_symbols();
    TraceBundle {
        symbols,
        events: observer.into_events(),
    }
}

/// Runs a built-in workload once, recording its event stream.
pub fn record_benchmark(bench: Benchmark, size: InputSize) -> TraceBundle {
    let mut engine = Engine::new(RecordingObserver::new());
    bench.run(size, &mut engine);
    let (observer, symbols) = engine.finish_with_symbols();
    TraceBundle {
        symbols,
        events: observer.into_events(),
    }
}

/// Replays `bundle` through the production profiler and projects the
/// resulting profile.
pub fn production_report(bundle: &TraceBundle, config: SigilConfig) -> OracleReport {
    let mut profiler = SigilProfiler::new(config);
    replay(&bundle.events, &mut profiler);
    project_profile(&profiler.into_profile(bundle.symbols.clone()))
}

/// Replays `bundle` through the oracle (optionally with an injected
/// bug).
pub fn oracle_report(
    bundle: &TraceBundle,
    config: SigilConfig,
    bug: Option<InjectedBug>,
) -> OracleReport {
    let mut oracle = OracleProfiler::new(config);
    if let Some(bug) = bug {
        oracle = oracle.with_bug(bug);
    }
    replay(&bundle.events, &mut oracle);
    oracle.into_report(&bundle.symbols)
}

/// Replays `bundle` through both profilers and diffs the reports.
pub fn compare(
    bundle: &TraceBundle,
    config: SigilConfig,
    bug: Option<InjectedBug>,
) -> Vec<Divergence> {
    diff_reports(
        &production_report(bundle, config),
        &oracle_report(bundle, config, bug),
    )
}

/// Shard counts the conformance sweep crosses every base configuration
/// with: the serial replay plus three sharded ones, so the
/// [`sigil_core::shard`] fan-out/merge path is differentially validated
/// against the same serial oracle (the oracle itself never shards).
pub const SHARD_AXIS: [usize; 4] = [1, 2, 4, 8];

/// The per-seed configuration matrix: the full-featured default
/// (unbounded shadow memory, reuse + line mode on so histograms are
/// covered) plus a seed-derived *constrained* shadow-table limit and
/// eviction policy, so chunk-eviction paths are differentially covered —
/// each crossed with [`SHARD_AXIS`] so sharded replay is held to the
/// same reports as serial. Every sharded shard count also replays the
/// plain default configuration (what `sigil profile --shards N` runs):
/// with no per-access metadata to reconstruct, its reads take the free
/// coalescing path. `limit_override` pins the constrained limit and
/// `shards_override` pins the shard count (used by CI's seed × limit ×
/// shards matrix).
pub fn differential_configs(
    seed: u64,
    limit_override: Option<usize>,
    shards_override: Option<usize>,
) -> Vec<(String, SigilConfig)> {
    let base = SigilConfig::default().with_reuse_mode().with_line_mode(64);
    let limit = limit_override.unwrap_or(1 + (seed % 3) as usize);
    let policy = if seed.is_multiple_of(2) {
        EvictionPolicy::Fifo
    } else {
        EvictionPolicy::Lru
    };
    let bases = [
        ("unbounded".to_owned(), base),
        (
            format!("limit={limit} policy={policy:?}"),
            base.with_shadow_limit(limit).with_eviction(policy),
        ),
    ];
    let shard_axis: &[usize] = match &shards_override {
        Some(n) => std::slice::from_ref(n),
        None => &SHARD_AXIS,
    };
    shard_axis
        .iter()
        .flat_map(|&shards| {
            let mut configs: Vec<(String, SigilConfig)> = bases
                .iter()
                .map(|(label, config)| {
                    if shards <= 1 {
                        (label.clone(), *config)
                    } else {
                        (
                            format!("{label} shards={shards}"),
                            config.with_shards(shards),
                        )
                    }
                })
                .collect();
            if shards > 1 {
                configs.push((
                    format!("default shards={shards}"),
                    SigilConfig::default().with_shards(shards),
                ));
            }
            configs
        })
        .collect()
}

/// The configuration golden conformance profiles are recorded under:
/// reuse + line mode on (so the corpus pins histograms too), unbounded
/// shadow memory (so profiles are exact, not eviction-dependent).
pub fn golden_config() -> SigilConfig {
    SigilConfig::default().with_reuse_mode().with_line_mode(64)
}

/// One configuration's divergences for a seed.
#[derive(Debug, Clone)]
pub struct ConfigFailure {
    /// Human-readable configuration label.
    pub label: String,
    /// The configuration that diverged.
    pub config: SigilConfig,
    /// The field-level disagreements.
    pub divergences: Vec<Divergence>,
}

/// Generates the seed's program, records it once, and replays it under
/// the full configuration matrix. Empty result = conformant seed.
pub fn diff_seed(
    seed: u64,
    limit_override: Option<usize>,
    shards_override: Option<usize>,
) -> Vec<ConfigFailure> {
    diff_seed_mt(seed, 1, limit_override, shards_override)
}

/// [`diff_seed`] with a guest-thread axis: the seed's program is
/// generated with `threads` guest threads (`1` = the classic
/// single-threaded program, bit-identical to [`diff_seed`]), recorded
/// once under the generator-committed interleaving, and held to the
/// same configuration matrix — so cross-thread classification is
/// differentially verified against the oracle across every shard count
/// and eviction limit.
pub fn diff_seed_mt(
    seed: u64,
    threads: u32,
    limit_override: Option<usize>,
    shards_override: Option<usize>,
) -> Vec<ConfigFailure> {
    let program = GenProgram::generate_mt(seed, threads);
    let bundle = record_program(&program);
    differential_configs(seed, limit_override, shards_override)
        .into_iter()
        .filter_map(|(label, config)| {
            let divergences = compare(&bundle, config, None);
            (!divergences.is_empty()).then_some(ConfigFailure {
                label,
                config,
                divergences,
            })
        })
        .collect()
}

/// Whether `program` still exposes a divergence under `config`.
pub fn diverges(program: &GenProgram, config: SigilConfig, bug: Option<InjectedBug>) -> bool {
    !compare(&record_program(program), config, bug).is_empty()
}

/// Delta-debugs `program` by dropping instruction ranges while the
/// divergence persists (classic ddmin over the flattened instruction
/// list: halving chunks, then single instructions, iterated to a fixed
/// point). Returns the minimized program; the input must diverge.
pub fn shrink(program: &GenProgram, config: SigilConfig, bug: Option<InjectedBug>) -> GenProgram {
    shrink_with(program, |candidate| diverges(candidate, config, bug))
}

/// The ddmin loop behind [`shrink`], generalized over the failure
/// predicate so other axes (the `sigil-serve` online-vs-batch diff, for
/// one) reuse the identical minimization strategy: drop halving chunks
/// down to single instructions while `still_fails` holds, iterated to a
/// fixed point. The input program must satisfy the predicate.
pub fn shrink_with<F>(program: &GenProgram, mut still_fails: F) -> GenProgram
where
    F: FnMut(&GenProgram) -> bool,
{
    let mut current = program.clone();
    loop {
        let before = current.inst_count();
        if before == 0 {
            break;
        }
        let mut chunk = before.div_ceil(2);
        loop {
            let mut start = 0;
            while start < current.inst_count() {
                let candidate = current.drop_range(start, chunk);
                if candidate.inst_count() < current.inst_count() && still_fails(&candidate) {
                    current = candidate;
                } else {
                    start += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
        if current.inst_count() == before {
            break;
        }
    }
    current
}

/// The first access event at which the two profilers disagree.
#[derive(Debug, Clone)]
pub struct FirstDivergence {
    /// Index of the event in the trace.
    pub event_index: usize,
    /// The access event itself.
    pub event: RuntimeEvent,
    /// The divergences visible after replaying up to and including it.
    pub divergences: Vec<Divergence>,
}

/// Replays growing prefixes of `bundle` (cut after each `Read`/`Write`)
/// through both profilers to locate the first access after which the
/// reports disagree. Quadratic in trace length — call on minimized
/// repros only. `None` means the full trace does not diverge either.
pub fn first_divergent_access(
    bundle: &TraceBundle,
    config: SigilConfig,
    bug: Option<InjectedBug>,
) -> Option<FirstDivergence> {
    for (i, &event) in bundle.events.iter().enumerate() {
        if !matches!(
            event,
            RuntimeEvent::Read { .. } | RuntimeEvent::Write { .. }
        ) {
            continue;
        }
        let prefix = TraceBundle {
            symbols: bundle.symbols.clone(),
            events: bundle.events[..=i].to_vec(),
        };
        let divergences = compare(&prefix, config, bug);
        if !divergences.is_empty() {
            return Some(FirstDivergence {
                event_index: i,
                event,
                divergences,
            });
        }
    }
    None
}

/// Renders a minimized repro: the program listing, the first divergent
/// access, and the field-level diff — everything needed to reproduce
/// and debug a conformance failure by hand.
pub fn render_repro(program: &GenProgram, config: SigilConfig, bug: Option<InjectedBug>) -> String {
    use std::fmt::Write as _;
    let bundle = record_program(program);
    let divergences = compare(&bundle, config, bug);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "minimized repro: {} instructions, {} events, config: {config:?}",
        program.inst_count(),
        bundle.events.len()
    );
    if let Some(bug) = bug {
        let _ = writeln!(out, "injected bug: {bug:?}");
    }
    let _ = writeln!(
        out,
        "\n{}",
        sigil_vm::disasm::program_to_string(&program.build())
    );
    match first_divergent_access(&bundle, config, bug) {
        Some(first) => {
            let _ = writeln!(
                out,
                "first divergent access: event #{} = {:?}",
                first.event_index, first.event
            );
            for d in &first.divergences {
                let _ = writeln!(out, "  {d}");
            }
        }
        None => {
            let _ = writeln!(out, "divergence appears only in end-of-run aggregation:");
        }
    }
    let _ = writeln!(out, "full-trace divergences ({}):", divergences.len());
    for d in divergences.iter().take(16) {
        let _ = writeln!(out, "  {d}");
    }
    if divergences.len() > 16 {
        let _ = writeln!(out, "  ... and {} more", divergences.len() - 16);
    }
    out
}

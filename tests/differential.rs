//! Differential conformance: the production `SigilProfiler` against the
//! deliberately naive `sigil-oracle` reference, on seeded random programs
//! and on the committed golden corpus.
//!
//! The seed sweep is env-tunable so CI can shard it into a seed × limit
//! matrix without recompiling:
//!
//! - `SIGIL_DIFF_SEEDS`     — number of seeds (default 40 debug / 200 release)
//! - `SIGIL_DIFF_SEED_BASE` — first seed (default 0)
//! - `SIGIL_DIFF_LIMIT`     — pin the constrained shadow-chunk limit
//! - `SIGIL_DIFF_SHARDS`    — pin the shard count (default: the full
//!   `SHARD_AXIS`, i.e. serial plus 2/4/8-way sharded replay)
//! - `SIGIL_DIFF_THREADS`   — pin the guest-thread count for
//!   `random_programs_conform` (default 1; CI's thread-axis job sets 2
//!   and 4). `multithreaded_programs_conform` always sweeps {2, 4}.
//!
//! On any divergence the failing program is delta-debugged down to a
//! minimal repro before the assert fires, so the panic message alone is
//! enough to reproduce and debug the mismatch by hand.

use sigil_core::{PhaseBuilder, PhaseProfile, SigilConfig, SigilProfiler};
use sigil_oracle::harness::{
    self, golden_config, record_benchmark, record_program, shrink, TraceBundle, SHARD_AXIS,
};
use sigil_oracle::{diff_reports, InjectedBug, OracleReport};
use sigil_trace::io::replay;
use sigil_vm::GenProgram;
use sigil_workloads::{Benchmark, InputSize};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {name}: {v:?}")))
        .unwrap_or(default)
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {name}: {v:?}")))
}

/// Seeded random programs produce identical reports from the production
/// profiler and the oracle, under both the unbounded and the
/// seed-constrained shadow-table configurations, each replayed serially
/// and through 2/4/8-way sharding, plus the plain default configuration
/// at each sharded count.
#[test]
fn random_programs_conform() {
    let default_seeds = if cfg!(debug_assertions) { 40 } else { 200 };
    let seeds = env_u64("SIGIL_DIFF_SEEDS", default_seeds);
    let base = env_u64("SIGIL_DIFF_SEED_BASE", 0);
    let limit = env_usize("SIGIL_DIFF_LIMIT");
    let shards = env_usize("SIGIL_DIFF_SHARDS");
    let threads = u32::try_from(env_u64("SIGIL_DIFF_THREADS", 1)).expect("sane thread count");
    for seed in base..base + seeds {
        let failures = harness::diff_seed_mt(seed, threads, limit, shards);
        if let Some(failure) = failures.first() {
            let minimized = shrink(
                &GenProgram::generate_mt(seed, threads),
                failure.config,
                None,
            );
            panic!(
                "seed {seed} threads {threads} diverged under `{}`:\n{}",
                failure.label,
                harness::render_repro(&minimized, failure.config, None)
            );
        }
    }
}

/// Multithreaded seeded programs — whose entry spawns and joins guest
/// threads sharing every buffer — produce identical reports from the
/// production profiler and the oracle across the full configuration
/// matrix (serial, 2/4/8-way sharded, constrained shadow memory). This
/// is the differential proof behind the inter-thread classification
/// axis: both sides attribute every cross-thread byte independently.
#[test]
fn multithreaded_programs_conform() {
    let default_seeds = if cfg!(debug_assertions) { 20 } else { 100 };
    let seeds = env_u64("SIGIL_DIFF_MT_SEEDS", default_seeds);
    let base = env_u64("SIGIL_DIFF_SEED_BASE", 0);
    let limit = env_usize("SIGIL_DIFF_LIMIT");
    let shards = env_usize("SIGIL_DIFF_SHARDS");
    for seed in base..base + seeds {
        for threads in [2u32, 4] {
            let failures = harness::diff_seed_mt(seed, threads, limit, shards);
            if let Some(failure) = failures.first() {
                let minimized = shrink(
                    &GenProgram::generate_mt(seed, threads),
                    failure.config,
                    None,
                );
                panic!(
                    "seed {seed} threads {threads} diverged under `{}`:\n{}",
                    failure.label,
                    harness::render_repro(&minimized, failure.config, None)
                );
            }
        }
    }
}

/// An intentionally injected classification bug is caught by the harness
/// and shrinks to a small repro — validates that the differential setup
/// actually has teeth, not just that both sides agree. Runs once against
/// the serial production profiler and once against the 4-way sharded
/// one, so the shrinker and divergence locator are proven to work on
/// sharded divergences too.
#[test]
fn injected_bugs_are_caught_and_shrink() {
    for config in [golden_config(), golden_config().with_shards(4)] {
        for bug in [
            InjectedBug::RepeatIgnoresCall,
            InjectedBug::WriteKeepsReader,
        ] {
            let seed = (0..50)
                .find(|&s| harness::diverges(&GenProgram::generate(s), config, Some(bug)))
                .unwrap_or_else(|| panic!("{bug:?} never manifested in 50 seeds"));
            let minimized = shrink(&GenProgram::generate(seed), config, Some(bug));
            assert!(
                harness::diverges(&minimized, config, Some(bug)),
                "{bug:?} (shards={}): shrink lost the divergence",
                config.shards
            );
            assert!(
                minimized.inst_count() <= 20,
                "{bug:?} (shards={}): minimized repro has {} instructions (> 20)",
                config.shards,
                minimized.inst_count()
            );
            let bundle = harness::record_program(&minimized);
            assert!(
                harness::first_divergent_access(&bundle, config, Some(bug)).is_some(),
                "{bug:?} (shards={}): no first divergent access located",
                config.shards
            );
        }
    }
}

/// A mutant oracle that misclassifies inter-thread reads as ordinary
/// same-thread input is caught by the multithreaded differential axis —
/// and only there: single-threaded traces have no inter-thread bytes, so
/// the bug is invisible to them. This proves the thread axis adds real
/// discriminating power rather than re-testing what single-threaded
/// seeds already cover.
#[test]
fn inter_thread_misclassification_is_caught_only_by_mt_seeds() {
    let bug = InjectedBug::InterThreadAsInput;
    let config = golden_config();
    for seed in 0..10 {
        assert!(
            !harness::diverges(&GenProgram::generate(seed), config, Some(bug)),
            "seed {seed}: InterThreadAsInput manifested on a single-threaded trace"
        );
    }
    let seed = (0..50)
        .find(|&s| harness::diverges(&GenProgram::generate_mt(s, 4), config, Some(bug)))
        .expect("InterThreadAsInput never manifested in 50 multithreaded seeds");
    let minimized = shrink(&GenProgram::generate_mt(seed, 4), config, Some(bug));
    assert!(
        harness::diverges(&minimized, config, Some(bug)),
        "shrink lost the inter-thread divergence"
    );
    assert!(
        minimized.inst_count() <= 30,
        "minimized inter-thread repro has {} instructions (> 30)",
        minimized.inst_count()
    );
    let bundle = harness::record_program(&minimized);
    assert!(
        harness::first_divergent_access(&bundle, config, Some(bug)).is_some(),
        "no first divergent access located for the inter-thread bug"
    );
}

/// Replays `bundle` through the production profiler and returns the full
/// profile (the phase tests need `Profile.phases` and `Profile.events`,
/// which the projected [`OracleReport`] deliberately omits).
fn production_profile(bundle: &TraceBundle, config: SigilConfig) -> sigil_core::Profile {
    let mut profiler = SigilProfiler::new(config);
    replay(&bundle.events, &mut profiler);
    profiler.into_profile(bundle.symbols.clone())
}

/// The naive phase oracle: folds a recorded event file into a bucketed
/// profile with nothing but the documented clock rules — an independent
/// reimplementation of what `SigilProfiler` computes incrementally
/// during replay (and what `PhaseFold` recovers when streaming).
fn naive_phase_fold(events: &sigil_core::EventFile, bucket_ops: u64) -> PhaseProfile {
    use sigil_core::EventRecord;
    let root = sigil_callgrind::ContextId::ROOT;
    let mut ctx_of = std::collections::HashMap::new();
    let mut builder = PhaseBuilder::new(bucket_ops);
    let mut clock = 0u64;
    for record in events.records() {
        match *record {
            EventRecord::Call {
                parent_call,
                call,
                ctx,
            } => {
                let from = ctx_of.get(&parent_call).copied().unwrap_or(root);
                ctx_of.insert(call, ctx);
                builder.record_call(from, ctx, clock);
                clock += 1;
            }
            EventRecord::Compute { ops, .. } => clock += ops,
            EventRecord::Transfer {
                from_call,
                to_call,
                bytes,
            } => {
                let from = ctx_of.get(&from_call).copied().unwrap_or(root);
                let to = ctx_of.get(&to_call).copied().unwrap_or(root);
                builder.record_transfer(from, to, clock, bytes);
            }
        }
    }
    builder.finish()
}

/// Seeded random programs: the production `PhaseProfile` — serial and
/// across the full shard axis — equals the naive bucketed fold of the
/// very same run's event file. Seed count is env-tunable via
/// `SIGIL_DIFF_PHASE_SEEDS`.
#[test]
fn phase_profiles_conform_to_naive_event_fold() {
    let default_seeds = if cfg!(debug_assertions) { 12 } else { 60 };
    let seeds = env_u64("SIGIL_DIFF_PHASE_SEEDS", default_seeds);
    for seed in 0..seeds {
        let bundle = record_program(&GenProgram::generate(seed));
        // Vary the bucket width per seed so boundary alignments differ.
        let width = 1 + seed % 97;
        let config = golden_config().with_events().with_phases(width);
        let serial = production_profile(&bundle, config);
        let events = serial.events.as_ref().expect("events enabled");
        let phases = serial.phases.as_ref().expect("phases enabled");
        let naive = naive_phase_fold(events, width);
        assert_eq!(
            phases, &naive,
            "seed {seed} width {width}: production phases diverged from the naive event fold"
        );
        for &shards in &SHARD_AXIS[1..] {
            let sharded = production_profile(&bundle, config.with_shards(shards));
            assert_eq!(
                sharded.phases.as_ref(),
                Some(&naive),
                "seed {seed} width {width} shards {shards}: sharded phases diverged"
            );
        }
    }
}

/// The tentpole three-way equivalence on every golden workload: the
/// phase profile is byte-identical (serde) across serial replay, 2/4/8-
/// way sharded replay, and the bounded-memory `PhaseFold` streaming off
/// the chunked binary event file.
#[test]
fn phase_profiles_identical_across_paths_on_golden_workloads() {
    use sigil_core::events_bin::encode_events_chunked;
    let width = 500;
    let config = golden_config().with_events().with_phases(width);
    for bench in Benchmark::ALL {
        let bundle = record_benchmark(bench, InputSize::SimSmall);
        let serial = production_profile(&bundle, config);
        let events = serial.events.as_ref().expect("events enabled");
        let phases = serial.phases.as_ref().expect("phases enabled");
        let serial_json = serde_json::to_string(phases).expect("phases serialize");
        assert!(
            !phases.pairs.is_empty(),
            "{bench}: golden workload produced no phase activity"
        );

        let bytes = encode_events_chunked(events, 256);
        let streamed = sigil_analysis::phase_profile_from_bin(bytes.as_slice(), width)
            .expect("clean event file");
        assert_eq!(
            serde_json::to_string(&streamed).expect("phases serialize"),
            serial_json,
            "{bench}: streaming PhaseFold diverged from serial replay"
        );

        for &shards in &SHARD_AXIS[1..] {
            let sharded = production_profile(&bundle, config.with_shards(shards));
            let sharded_json = serde_json::to_string(sharded.phases.as_ref().expect("phases on"))
                .expect("phases serialize");
            assert_eq!(
                sharded_json, serial_json,
                "{bench} shards={shards}: sharded phases diverged from serial"
            );
        }
    }
}

/// Every committed golden profile matches a fresh oracle replay of its
/// workload, and the production profiler matches the oracle on the same
/// trace. Regenerate intentionally changed profiles with
/// `sigil diff bless`.
#[test]
fn golden_corpus_conforms() {
    let config = golden_config();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for bench in Benchmark::ALL {
        let path = dir.join(format!("{bench}.json"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read {}: {e} (run `sigil diff bless`)",
                path.display()
            )
        });
        let golden: OracleReport = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("bad golden {}: {e}", path.display()));
        let bundle = record_benchmark(bench, InputSize::SimSmall);
        let oracle = harness::oracle_report(&bundle, config, None);
        let drift = diff_reports(&golden, &oracle);
        assert!(
            drift.is_empty(),
            "golden profile for `{bench}` drifted from the oracle ({} field(s)), first: {}\n\
             re-bless only if intentional: sigil diff bless",
            drift.len(),
            drift[0]
        );
        for shards in [1, 4] {
            let production = harness::production_report(&bundle, config.with_shards(shards));
            let conformance = diff_reports(&production, &oracle);
            assert!(
                conformance.is_empty(),
                "production (shards={shards}) diverged from oracle on `{bench}` \
                 ({} field(s)), first: {}",
                conformance.len(),
                conformance[0]
            );
        }
    }
}

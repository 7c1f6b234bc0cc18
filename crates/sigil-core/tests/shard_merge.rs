//! Property tests for the sharding layer.
//!
//! Two invariants carry the whole sharded design (see
//! `sigil_core::shard`):
//!
//! 1. **The merge algebra is order-free** — folding per-shard
//!    [`ShardFragment`]s in *any* permutation yields the same result, so
//!    the join order of shard workers can never leak into a profile.
//! 2. **The twin profilers agree** — replaying one random event stream
//!    through a serial and a sharded [`SigilProfiler`] produces
//!    byte-identical profiles, unbounded and under tiny FIFO/LRU shadow
//!    limits, in both read-coalescing regimes, and with accesses that
//!    straddle chunk (hence shard) boundaries.

use proptest::prelude::*;
use sigil_callgrind::ContextId;
use sigil_core::{merge_fragments, ContextReuse, ShardFragment, SigilConfig, SigilProfiler};
use sigil_core::{CommEdge, CommStats, PhaseBuilder, PhaseProfile};
use sigil_mem::{EvictionPolicy, MemoryStats};
use sigil_trace::{Engine, OpClass, ThreadId};

// ---------------------------------------------------------------------
// Fragment strategies. Generated fragments respect the two invariants
// real `ShardResult::into_fragment` outputs hold: edges are unique and
// sorted by `(producer, consumer)`, and reuse row `i` belongs to
// context id `i`.
// ---------------------------------------------------------------------

fn arb_comm() -> impl Strategy<Value = CommStats> {
    proptest::collection::vec(0u64..200, 10..11).prop_map(|v| CommStats {
        input_unique_bytes: v[0],
        input_nonunique_bytes: v[1],
        local_unique_bytes: v[2],
        local_nonunique_bytes: v[3],
        output_unique_bytes: v[4],
        output_nonunique_bytes: v[5],
        inter_thread_unique_bytes: v[6],
        inter_thread_nonunique_bytes: v[7],
        bytes_read: v[8],
        bytes_written: v[9],
    })
}

fn arb_edges() -> impl Strategy<Value = Vec<CommEdge>> {
    proptest::collection::vec((0u32..5, 0u32..5, 0u64..100, 0u64..100), 0..6).prop_map(|raw| {
        let mut map = std::collections::BTreeMap::new();
        for (p, c, unique, nonunique) in raw {
            let entry = map.entry((p, c)).or_insert((0u64, 0u64));
            entry.0 += unique;
            entry.1 += nonunique;
        }
        map.into_iter()
            .map(|((p, c), (unique, nonunique))| CommEdge {
                producer: ContextId(p),
                consumer: ContextId(c),
                unique_bytes: unique,
                nonunique_bytes: nonunique,
            })
            .collect()
    })
}

fn arb_reuse() -> impl Strategy<Value = Option<Vec<ContextReuse>>> {
    (
        0u8..2,
        proptest::collection::vec(proptest::collection::vec((0u64..6, 0u64..5000), 0..5), 0..4),
    )
        .prop_map(|(some, rows)| {
            (some == 1).then(|| {
                rows.into_iter()
                    .enumerate()
                    .map(|(i, hits)| {
                        let mut row = ContextReuse::new(ContextId(u32::try_from(i).unwrap()));
                        for (count, lifetime) in hits {
                            row.record(count, lifetime, 1);
                        }
                        row
                    })
                    .collect()
            })
        })
}

fn arb_memory() -> impl Strategy<Value = MemoryStats> {
    proptest::collection::vec(0u64..1000, 9..10).prop_map(|v| MemoryStats {
        resident_chunks: v[0],
        resident_slots: v[1],
        resident_bytes: v[2],
        evicted_chunks: v[3],
        accesses: v[4],
        mru_hits: v[5],
        table_probes: v[6],
        runs: v[7],
        run_bytes: v[8],
    })
}

/// Phase profiles share one bucket width (merging mixed widths is a
/// programming error and panics), built through the real
/// [`PhaseBuilder`] so the canonical sparse/sorted shape holds.
fn arb_phases() -> impl Strategy<Value = Option<PhaseProfile>> {
    (
        0u8..2,
        proptest::collection::vec((0u32..4, 0u32..4, 0u64..64, 0u64..3, 0u64..200), 0..8),
    )
        .prop_map(|(some, cells)| {
            (some == 1).then(|| {
                let mut builder = PhaseBuilder::new(8);
                for (from, to, at, calls, bytes) in cells {
                    for _ in 0..calls {
                        builder.record_call(ContextId(from), ContextId(to), at);
                    }
                    builder.record_transfer(ContextId(from), ContextId(to), at, bytes);
                }
                builder.finish()
            })
        })
}

fn arb_fragment() -> impl Strategy<Value = ShardFragment> {
    (
        proptest::collection::vec(arb_comm(), 0..5),
        arb_edges(),
        arb_reuse(),
        arb_phases(),
        arb_memory(),
    )
        .prop_map(|(comm, edges, reuse, phases, memory)| ShardFragment {
            comm,
            edges,
            reuse,
            phases,
            memory,
        })
}

/// Deterministic Fisher–Yates driven by a seed, so failures replay.
fn shuffled(mut frags: Vec<ShardFragment>, mut seed: u64) -> Vec<ShardFragment> {
    for i in (1..frags.len()).rev() {
        // SplitMix64 step: plenty for a test shuffle.
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        frags.swap(i, (z % (i as u64 + 1)) as usize);
    }
    frags
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any permutation of the per-shard fragments merges to the same
    /// profile pieces — the algebra that makes worker join order
    /// irrelevant.
    #[test]
    fn fragment_merge_is_permutation_invariant(
        frags in proptest::collection::vec(arb_fragment(), 1..6),
        seed in any::<u64>(),
    ) {
        let baseline = merge_fragments(frags.clone());
        let mut reversed = frags.clone();
        reversed.reverse();
        prop_assert_eq!(&merge_fragments(reversed), &baseline);
        prop_assert_eq!(&merge_fragments(shuffled(frags, seed)), &baseline);
    }

    /// Merging in the empty fragment (an idle shard) changes nothing.
    #[test]
    fn idle_shards_are_merge_identities(frag in arb_fragment()) {
        let mut left = ShardFragment::default();
        left.merge(&frag);
        let mut right = frag.clone();
        right.merge(&ShardFragment::default());
        prop_assert_eq!(&left, &frag);
        prop_assert_eq!(&right, &frag);
    }
}

// ---------------------------------------------------------------------
// Twin-profiler equivalence on random event streams.
// ---------------------------------------------------------------------

/// One step of a random trace. Addresses concentrate around 4 KiB chunk
/// boundaries so runs regularly split across shards (consecutive chunk
/// keys always map to different shards).
#[derive(Debug, Clone)]
enum Step {
    Call(u8),
    Ret,
    Read(u64, u32),
    Write(u64, u32),
    Ops(u32),
    Switch(u8),
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..9, 0u8..4, 1u64..5, 0u64..24, 1u32..48).prop_map(|(kind, f, chunk, back, len)| {
        // Addresses sit just below a 4 KiB boundary, so `len` up to 48
        // regularly carries the run into the next chunk — and therefore
        // onto a different shard.
        let addr = chunk * 4096 - back;
        match kind {
            0 | 1 => Step::Call(f),
            2 => Step::Ret,
            3 | 4 => Step::Read(addr, len),
            5 | 6 => Step::Write(addr, len),
            7 => Step::Switch(f % 3),
            _ => Step::Ops(len),
        }
    })
}

/// Replays `steps` through a profiler built from `config` and returns
/// the serialized profile.
fn replay(steps: &[Step], config: SigilConfig) -> String {
    let mut engine = Engine::new(SigilProfiler::new(config));
    let funcs: Vec<_> = (0..4)
        .map(|i| engine.symbols_mut().intern(&format!("f{i}")))
        .collect();
    let mut depth = std::collections::HashMap::new();
    for step in steps {
        match *step {
            Step::Call(f) => {
                engine.call(funcs[usize::from(f) % funcs.len()]);
                *depth.entry(engine.current_thread()).or_insert(0u32) += 1;
            }
            Step::Ret => {
                let open = depth.entry(engine.current_thread()).or_insert(0);
                if *open > 0 {
                    engine.ret();
                    *open -= 1;
                }
            }
            Step::Read(addr, len) => engine.read(addr, len),
            Step::Write(addr, len) => engine.write(addr, len),
            Step::Ops(count) => engine.op(OpClass::IntArith, count),
            Step::Switch(t) => engine.switch_thread(ThreadId::from_raw(u32::from(t) + 1)),
        }
    }
    // Close every frame so strict trace validation stays happy; the
    // profilers must agree regardless.
    let mut threads: Vec<_> = depth.into_iter().filter(|&(_, n)| n > 0).collect();
    threads.sort_unstable();
    for (thread, open) in threads {
        engine.switch_thread(thread);
        for _ in 0..open {
            engine.ret();
        }
    }
    let (profiler, symbols) = engine.finish_with_symbols();
    serde_json::to_string(&profiler.into_profile(symbols)).expect("profile serializes")
}

/// `None` (unbounded — the oracle-elided path) or a tiny chunk limit
/// (the residency-oracle path with mid-access evictions).
fn arb_limit() -> impl Strategy<Value = Option<usize>> {
    (0u8..2, 1usize..4).prop_map(|(some, limit)| (some == 1).then_some(limit))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(144))]

    /// The sharded profiler is byte-identical to the serial one on
    /// random traces, across shard counts, unbounded and tiny shadow
    /// limits, and both eviction policies. The addresses straddle chunk
    /// boundaries. With `per_access_metadata` (reuse, events and phases
    /// on) the access log carries each record's clocks and workers key
    /// transfers by access index and part; without it, neither.
    #[test]
    fn sharded_profiler_matches_serial(
        steps in proptest::collection::vec(arb_step(), 0..60),
        shards in 2usize..9,
        limit in arb_limit(),
        lru in any::<bool>(),
        per_access_metadata in any::<bool>(),
    ) {
        let policy = if lru { EvictionPolicy::Lru } else { EvictionPolicy::Fifo };
        let mut config = SigilConfig::default().with_line_mode(64).with_eviction(policy);
        if per_access_metadata {
            config = config.with_reuse_mode().with_events().with_phases(7);
        }
        if let Some(limit) = limit {
            config = config.with_shadow_limit(limit);
        }
        let serial = replay(&steps, config);
        let sharded = replay(&steps, config.with_shards(shards));
        prop_assert_eq!(serial, sharded);
    }
}

//! Adversarial concurrency stress for sharded replay.
//!
//! Every access in this stream is chosen to be awkward for the sharding
//! layer: runs straddle a 4 KiB chunk boundary (consecutive chunk keys
//! always land on *different* shards, so every straddle is a cross-shard
//! split), the shadow limit is tiny enough that a straddling access can
//! evict a chunk mid-access, threads interleave with frames left open
//! across switches, and the shard count (8) deliberately exceeds the
//! container's core count — the workers make progress by preemption, not
//! parallel cores, which flushes out any ordering assumption hidden in
//! the message protocol.
//!
//! The bar is the strongest one the design claims: the sharded profile
//! serializes **byte-identically** to the serial one, for every policy ×
//! limit × shard-count combination, with reuse, line and event
//! collection all enabled, and in the default mode too.

use sigil_core::{Profile, SigilConfig, SigilProfiler};
use sigil_mem::{EvictionPolicy, CHUNK_GRANULES};
use sigil_trace::{Engine, OpClass, ThreadId};

/// Chunk boundaries the stream straddles (chunk key = addr >> 12).
const BOUNDARIES: u64 = 24;

/// The adversarial stream. Deterministic, so serial and sharded runs see
/// the identical event sequence.
fn stress_scenario(e: &mut Engine<SigilProfiler>) {
    e.scoped_named("main", |e| {
        // Producer writes a straddling run across *every* boundary: each
        // 16-byte write covers the last 8 bytes of chunk k-1 and the
        // first 8 of chunk k, so at `--shards N` both halves always go
        // to different workers.
        e.scoped_named("producer", |e| {
            e.op(OpClass::IntArith, 7);
            for k in 1..=BOUNDARIES {
                e.write(k * 4096 - 8, 16);
            }
        });
        // Consumer reads them back in reverse order (maximal distance
        // from the producer's insertion order, so FIFO and LRU disagree
        // about victims), then re-reads for non-unique coverage.
        e.scoped_named("consumer", |e| {
            for k in (1..=BOUNDARIES).rev() {
                e.read(k * 4096 - 8, 16);
                e.read(k * 4096 - 8, 16);
            }
            e.op(OpClass::FloatArith, 3);
        });
        // Thrash: a stride walk over far-apart chunks keeps the resident
        // set churning at limit 1–2, so straddling accesses routinely
        // evict the chunk their own first half just touched.
        e.scoped_named("thrash", |e| {
            for i in 0..64u64 {
                let k = 1 + (i * 7) % BOUNDARIES;
                e.write(k * 4096 - 4, 8);
                e.read(k * 4096 - 4, 8);
            }
        });
        // Cross-thread consumption with frames open across switches:
        // thread 2's frame stays on its stack while threads 3 and main
        // run, exercising the resume/drain sequencing at finish.
        let t2_consume = e.symbols_mut().intern("t2-consume");
        e.switch_thread(ThreadId::from_raw(2));
        e.call(t2_consume);
        for k in 1..=BOUNDARIES / 2 {
            e.read(k * 4096 - 8, 16);
        }
        e.switch_thread(ThreadId::from_raw(3));
        e.scoped_named("t3-produce", |e| {
            e.write(BOUNDARIES * 4096 + 4096 - 8, 16);
            e.op(OpClass::IntMulDiv, 2);
        });
        e.switch_thread(ThreadId::from_raw(2));
        e.ret();
        e.switch_thread(ThreadId::MAIN);
        // Overwrite + reconsume: flushes producer output segments and
        // re-attributes the bytes to the new writer.
        e.scoped_named("producer", |e| e.write(4096 - 8, 16));
        e.scoped_named("consumer", |e| e.read(4096 - 8, 16));
        // Never-written root input, far away from everything else.
        e.read(0x40_0000, 24);
    });
}

fn run(config: SigilConfig) -> Profile {
    run_scenario(config, stress_scenario)
}

#[test]
fn sharded_replay_survives_adversarial_stress() {
    for policy in [EvictionPolicy::Fifo, EvictionPolicy::Lru] {
        for limit in [1, 2] {
            let base = SigilConfig::default()
                .with_reuse_mode()
                .with_line_mode(64)
                .with_events()
                .with_shadow_limit(limit)
                .with_eviction(policy);
            let serial = serde_json::to_string(&run(base)).expect("serializes");
            for shards in [2, 8] {
                let sharded =
                    serde_json::to_string(&run(base.with_shards(shards))).expect("serializes");
                assert_eq!(
                    serial, sharded,
                    "policy={policy:?} limit={limit} shards={shards}"
                );
            }
        }
    }
}

/// An unaligned stream: 1–3-byte and 6-byte accesses at odd offsets,
/// some straddling a chunk boundary, split the granule shadow's 4-byte
/// granules; whole-granule writes then merge some of them back, and the
/// run ends with others still split, under any chunk limit.
fn unaligned_scenario(e: &mut Engine<SigilProfiler>) {
    e.scoped_named("main", |e| {
        e.scoped_named("bytes", |e| {
            for k in 1..=6u64 {
                let base = k * 4096;
                e.write(base - 3, 6); // straddles chunk k-1 | k
                e.write(base + 5, 1);
                e.write(base + 9, 2);
                e.write(base + 17, 3);
                e.op(OpClass::IntArith, 2);
            }
        });
        e.scoped_named("peek", |e| {
            for k in (1..=6u64).rev() {
                let base = k * 4096;
                e.read(base - 5, 3);
                e.read(base + 1, 6); // granules 0 and 1, partly
                e.read(base + 1, 6); // non-unique re-read
                e.read(base + 10, 1);
                e.read(base + 16, 8); // aligned, over a split granule
            }
        });
        e.switch_thread(ThreadId::from_raw(1));
        e.scoped_named("t1-peek", |e| {
            for k in 1..=3u64 {
                e.read(k * 4096 + 7, 2);
                e.write(k * 4096 + 22, 1);
            }
        });
        e.switch_thread(ThreadId::MAIN);
        // Whole-granule writes over the first granules of chunks 1..=3
        // merge them back; chunks 4..=6 stay split.
        e.scoped_named("merge", |e| {
            for k in 1..=3u64 {
                e.write(k * 4096 - 4, 16);
                e.write(k * 4096 + 16, 8);
            }
        });
        e.scoped_named("peek", |e| {
            for k in 1..=6u64 {
                e.read(k * 4096 - 4, 12);
            }
        });
        // Odd writes into a far chunk last, so even a one-chunk limit
        // ends with split granules resident.
        e.scoped_named("tail", |e| {
            e.write(0x7_0001, 2);
            e.write(0x7_0006, 1);
        });
    });
}

fn run_scenario(config: SigilConfig, scenario: fn(&mut Engine<SigilProfiler>)) -> Profile {
    let mut engine = Engine::new(SigilProfiler::new(config));
    scenario(&mut engine);
    let (profiler, symbols) = engine.finish_with_symbols();
    profiler.into_profile(symbols)
}

/// Granules the finished profile's shadow holds split: four byte slots
/// each on top of one slot per granule of every resident chunk.
fn split_granules(profile: &Profile) -> u64 {
    let memory = profile.memory;
    (memory.resident_slots - memory.resident_chunks * CHUNK_GRANULES as u64) / 4
}

#[test]
fn sharded_replay_matches_serial_on_split_granules() {
    let full = SigilConfig::default()
        .with_reuse_mode()
        .with_line_mode(64)
        .with_events();
    for (mode, config) in [("default", SigilConfig::default()), ("full", full)] {
        let unbounded = run_scenario(config, unaligned_scenario);
        assert!(
            split_granules(&unbounded) > 0,
            "{mode}: the stream must end with split granules"
        );
        for policy in [EvictionPolicy::Fifo, EvictionPolicy::Lru] {
            for limit in [None, Some(1), Some(2)] {
                let base = limit.map_or(config, |limit| {
                    config.with_shadow_limit(limit).with_eviction(policy)
                });
                let serial = serde_json::to_string(&run_scenario(base, unaligned_scenario))
                    .expect("serializes");
                for shards in [2, 8] {
                    let sharded = serde_json::to_string(&run_scenario(
                        base.with_shards(shards),
                        unaligned_scenario,
                    ))
                    .expect("serializes");
                    assert_eq!(
                        serial, sharded,
                        "{mode} policy={policy:?} limit={limit:?} shards={shards}"
                    );
                }
            }
        }
    }
}

/// What the granule shadow holds per resident chunk and per split
/// granule: 1,024 slots plus a 2-byte split marker per granule, and four
/// byte slots plus a 2-byte back-pointer per split granule (padded to the
/// slot's 8-byte alignment). A slot is 32 bytes in the default mode and
/// 56 with reuse mode's fields. Serial replay prices its own table;
/// sharded replay prices the dispatch oracle's chunks under a limit, the
/// workers' chunks without one, and the workers' split counts either way
/// — so the profiles stay byte-identical. Line mode is off: line-table
/// slots are priced separately.
#[test]
fn resident_bytes_price_the_slot_of_the_active_mode() {
    for (mode, config, chunk_bytes, split_bytes) in [
        (
            "default",
            SigilConfig::default().with_events(),
            1024 * (32 + 2),
            136,
        ),
        (
            "reuse",
            SigilConfig::default().with_reuse_mode().with_events(),
            1024 * (56 + 2),
            232,
        ),
    ] {
        for (scenario, splits) in [
            (stress_scenario as fn(&mut Engine<SigilProfiler>), false),
            (unaligned_scenario, true),
        ] {
            for limit in [None, Some(2)] {
                let base = limit.map_or(config, |limit| config.with_shadow_limit(limit));
                let serial = run_scenario(base, scenario);
                let memory = serial.memory;
                let split = split_granules(&serial);
                assert!(
                    memory.resident_chunks > 0,
                    "{mode} limit={limit:?}: nothing resident"
                );
                assert_eq!(
                    split > 0,
                    splits,
                    "{mode} limit={limit:?}: {split} split granules"
                );
                assert_eq!(
                    memory.resident_slots,
                    memory.resident_chunks * 1024 + 4 * split,
                    "{mode} limit={limit:?}: slots"
                );
                assert_eq!(
                    memory.resident_bytes,
                    memory.resident_chunks * chunk_bytes + split * split_bytes,
                    "{mode} limit={limit:?}: resident bytes not priced per granule"
                );
                let serial = serde_json::to_string(&serial).expect("serializes");
                for shards in [2, 8] {
                    let sharded =
                        serde_json::to_string(&run_scenario(base.with_shards(shards), scenario))
                            .expect("serializes");
                    assert_eq!(serial, sharded, "{mode} limit={limit:?} shards={shards}");
                }
            }
        }
    }
}

/// Same stream, unbounded shadow memory: pins the non-eviction path and
/// checks the profile is non-trivial (the stress stream really does
/// produce communication, transfers, and reuse rows).
#[test]
fn stress_stream_is_nontrivial_and_shards_agree_unbounded() {
    let base = SigilConfig::default()
        .with_reuse_mode()
        .with_line_mode(64)
        .with_events();
    let serial = run(base);
    let sharded = run(base.with_shards(8));
    assert_eq!(
        serde_json::to_string(&serial).expect("serializes"),
        serde_json::to_string(&sharded).expect("serializes")
    );
    assert!(!serial.edges.is_empty(), "no producer→consumer edges");
    assert!(
        serial.reuse.as_ref().is_some_and(|rows| !rows.is_empty()),
        "no reuse rows"
    );
    let events = serial.events.as_ref().expect("event file");
    assert!(events.total_transfer_bytes() > 0, "no transfer records");
    assert!(serial.memory.accesses > 0 && serial.memory.runs > 0);
}

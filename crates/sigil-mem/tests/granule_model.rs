//! Property tests: a `GranuleTable` must hold, for every byte, exactly
//! the Table-I state a per-byte `ShadowTable<ShadowObject<R>>` holds
//! under the same reads and writes — whatever the access offsets and
//! widths, and under eviction.
//!
//! Accesses are 1–16 bytes wide at any offset near the two ends of a few
//! chunks, so they split granules, straddle chunk boundaries and, with a
//! one-chunk limit, evict the chunk an earlier access split granules in.

use proptest::prelude::*;
use sigil_mem::{
    EvictionPolicy, GranuleTable, Owner, ReuseInfo, ReuseSlot, ShadowObject, ShadowTable,
    CHUNK_SLOTS, GRANULE_BYTES,
};
use sigil_trace::{CallNumber, Timestamp};

/// Chunks the accesses start in; the last one straddles into the next.
const CHUNKS: u64 = 4;
/// Offsets near a chunk's start and end that accesses begin at.
const HEAD: u64 = 48;
const TAIL: u64 = 24;
/// Every byte an access can touch lies in these windows of chunks
/// `0..=CHUNKS`: `[0, HEAD + 16)` and `[CHUNK_SLOTS - TAIL, CHUNK_SLOTS)`.
const CHECK_HEAD: u64 = HEAD + 16;

#[derive(Debug, Clone)]
struct Access {
    write: bool,
    addr: u64,
    len: usize,
    owner: Owner,
}

fn access_strategy() -> impl Strategy<Value = Access> {
    let chunk = CHUNK_SLOTS as u64;
    let offset = prop_oneof![0..HEAD, (chunk - TAIL)..chunk];
    (
        (any::<bool>(), 0..CHUNKS, offset),
        (1usize..17, 0u32..3, 1u64..4, 0u32..2),
    )
        .prop_map(move |((write, k, off), (len, ctx, call, thread))| Access {
            write,
            addr: k * chunk + off,
            len,
            owner: Owner::new(ctx, CallNumber::from_raw(call), thread),
        })
}

/// The read step of the Table-I kernel, on one object.
fn read<R: ReuseSlot>(obj: &mut ShadowObject<R>, owner: Owner, at: Timestamp) {
    let repeat = obj.is_repeat_read(owner);
    if obj.reuse().info().is_some() {
        if !repeat && obj.last_reader().is_some() {
            *obj.reuse_mut() = R::default();
        }
        obj.reuse_mut().record_read(at, !repeat);
    }
    obj.record_read(owner);
}

fn step<R: ReuseSlot>(obj: &mut ShadowObject<R>, access: &Access, at: Timestamp) {
    if access.write {
        obj.record_write(access.owner);
    } else {
        read(obj, access.owner, at);
    }
}

/// Every byte address an access can touch.
fn checked_bytes() -> impl Iterator<Item = u64> {
    let chunk = CHUNK_SLOTS as u64;
    (0..=CHUNKS).flat_map(move |k| {
        (0..CHECK_HEAD)
            .chain((chunk - TAIL)..chunk)
            .map(move |off| k * chunk + off)
    })
}

fn check<R: ReuseSlot>(accesses: &[Access], limit: Option<usize>) -> Result<(), TestCaseError> {
    let policy = EvictionPolicy::Fifo;
    let (mut granules, mut bytes) = match limit {
        Some(limit) => (
            GranuleTable::<R>::with_chunk_limit(limit, policy),
            ShadowTable::<ShadowObject<R>>::with_chunk_limit(limit, policy),
        ),
        None => (GranuleTable::<R>::new(), ShadowTable::new()),
    };
    for (i, access) in accesses.iter().enumerate() {
        let at = Timestamp::from_raw(i as u64);
        let mut covered = 0u64;
        granules.cells_mut(access.addr, access.len, |cells, weight| {
            covered += cells.len() as u64 * weight;
            cells.iter_mut().for_each(|obj| step(obj, access, at));
        });
        prop_assert_eq!(covered, access.len as u64, "cells cover the access once");
        let mut runs = bytes.runs_mut(access.addr, access.len);
        while let Some((_, slots)) = runs.next_run() {
            slots.iter_mut().for_each(|obj| step(obj, access, at));
        }

        prop_assert_eq!(granules.chunk_count(), bytes.chunk_count());
        let mut differing = 0u64;
        for addr in checked_bytes() {
            prop_assert_eq!(
                granules.get(addr),
                bytes.get(addr),
                "byte {:#x} after {:?}",
                addr,
                access
            );
            if addr % GRANULE_BYTES as u64 == 0 {
                let first = bytes.get(addr);
                differing +=
                    u64::from((1..GRANULE_BYTES as u64).any(|b| bytes.get(addr + b) != first));
            }
        }
        // A split granule merges as soon as its bytes agree, so exactly
        // the granules whose bytes differ stay split.
        prop_assert_eq!(granules.split_granules(), differing);
        let (g, b) = (granules.stats(), bytes.stats());
        prop_assert_eq!(
            (
                g.accesses,
                g.mru_hits,
                g.runs,
                g.run_bytes,
                g.evicted_chunks
            ),
            (
                b.accesses,
                b.mru_hits,
                b.runs,
                b.run_bytes,
                b.evicted_chunks
            )
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn granule_table_matches_the_byte_table(
        accesses in prop::collection::vec(access_strategy(), 1..120),
        limited in any::<bool>(),
    ) {
        check::<()>(&accesses, limited.then_some(1))?;
    }

    #[test]
    fn granule_table_matches_the_byte_table_in_reuse_mode(
        accesses in prop::collection::vec(access_strategy(), 1..120),
        limited in any::<bool>(),
    ) {
        check::<ReuseInfo>(&accesses, limited.then_some(1))?;
    }
}

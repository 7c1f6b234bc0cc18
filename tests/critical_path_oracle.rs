//! Integration test: the one production evaluation of the critical-path
//! recurrence (`CriticalPathFold`, and the `DependencyGraph` that
//! collects its nodes) against the naive Figure 3 reference in
//! `sigil-oracle`, which keeps every fragment's incoming edges and finds
//! the longest path in a separate pass.
//!
//! Every fragment's finish time, ordering and data predecessor, and the
//! `serial_ops`/`length_ops` pair must agree on every suite workload with
//! free and with charged transfers, and on arbitrary record streams —
//! undeclared calls, orphan transfers, re-declared call numbers and sums
//! past `u64::MAX` included.

use proptest::prelude::*;
use sigil::analysis::critical_path::CommModel;
use sigil::callgrind::ContextId;
use sigil::core::{EventRecord, SigilConfig, SigilProfiler};
use sigil::trace::{CallNumber, Engine};
use sigil::workloads::{Benchmark, InputSize};
use sigil_oracle::check_critical_path;

fn suite_records(bench: Benchmark) -> Vec<EventRecord> {
    let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default().with_events()));
    bench.run(InputSize::SimSmall, &mut engine);
    let (profiler, symbols) = engine.finish_with_symbols();
    let events = profiler
        .into_profile(symbols)
        .events
        .expect("events recording was enabled");
    events.records().to_vec()
}

/// A bus charging a fixed latency plus one op per 4 bytes.
const CHARGED: CommModel = CommModel {
    fixed_ops: 20,
    bytes_per_op: 4.0,
};

#[test]
fn suite_fragments_match_the_reference_with_free_transfers() {
    for bench in Benchmark::ALL {
        check_critical_path(&suite_records(bench), &CommModel::free())
            .unwrap_or_else(|e| panic!("{bench}: {e}"));
    }
}

#[test]
fn suite_fragments_match_the_reference_with_charged_transfers() {
    for bench in Benchmark::ALL {
        check_critical_path(&suite_records(bench), &CHARGED)
            .unwrap_or_else(|e| panic!("{bench}: {e}"));
    }
}

fn call(n: u64) -> CallNumber {
    CallNumber::from_raw(n)
}

/// Counts that are usually small and sometimes saturate a sum.
fn amount() -> impl Strategy<Value = u64> + Clone {
    prop_oneof![0..200u64, 0..200u64, 0..200u64, Just(u64::MAX)]
}

/// A handful of small call numbers, which the folds keep in their dense
/// call table, and a few near `u64::MAX` and 2^32, which it keeps in its
/// overflow map.
fn arb_call() -> impl Strategy<Value = CallNumber> + Clone {
    prop_oneof![
        0..8u64,
        0..8u64,
        0..8u64,
        (0..3u64).prop_map(|k| u64::MAX - k),
        (0..3u64).prop_map(|k| (1 << 32) + k),
    ]
    .prop_map(call)
}

/// Records over a handful of call numbers, so calls are re-declared,
/// computed without a Call record, and named by transfers before (or
/// without) any fragment of theirs exists.
fn arb_record() -> impl Strategy<Value = EventRecord> {
    prop_oneof![
        (arb_call(), arb_call(), 0..6u32).prop_map(|(parent_call, call, x)| EventRecord::Call {
            parent_call,
            call,
            ctx: ContextId(x),
        }),
        (arb_call(), 0..6u32, amount()).prop_map(|(call, x, ops)| EventRecord::Compute {
            call,
            ctx: ContextId(x),
            ops,
        }),
        (arb_call(), arb_call(), amount()).prop_map(|(from_call, to_call, bytes)| {
            EventRecord::Transfer {
                from_call,
                to_call,
                bytes,
            }
        }),
    ]
}

fn arb_comm() -> impl Strategy<Value = CommModel> {
    prop_oneof![
        Just(CommModel::free()),
        Just(CHARGED),
        (0..50u64).prop_map(|fixed_ops| CommModel {
            fixed_ops,
            bytes_per_op: 1.0,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_record_streams_match_the_reference(
        records in prop::collection::vec(arb_record(), 0..160),
        comm in arb_comm(),
    ) {
        let checked = check_critical_path(&records, &comm);
        prop_assert!(checked.is_ok(), "{:?} on {records:?}", checked);
    }
}

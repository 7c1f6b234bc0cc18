//! Property tests: cost-accounting invariants of the Callgrind-like
//! profiler under random traces.

use proptest::prelude::*;
use sigil_callgrind::{CallgrindConfig, CallgrindProfiler, CostVec};
use sigil_trace::{Engine, OpClass};

#[derive(Debug, Clone)]
enum Step {
    Call(u8),
    Return,
    Read(u32, u8),
    Write(u32, u8),
    Ops(u8, u8),
    Branch(u8, bool),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..5).prop_map(Step::Call),
        Just(Step::Return),
        (any::<u32>(), 1u8..16).prop_map(|(a, s)| Step::Read(a, s)),
        (any::<u32>(), 1u8..16).prop_map(|(a, s)| Step::Write(a, s)),
        (0u8..4, 1u8..40).prop_map(|(c, n)| Step::Ops(c, n)),
        (any::<u8>(), any::<bool>()).prop_map(|(s, t)| Step::Branch(s, t)),
    ]
}

fn run(steps: &[Step]) -> (sigil_callgrind::CallgrindProfile, ExpectedTotals) {
    let mut engine = Engine::new(CallgrindProfiler::new(CallgrindConfig::default()));
    let fns: Vec<_> = (0..5)
        .map(|i| engine.symbols_mut().intern(&format!("f{i}")))
        .collect();
    let main = engine.symbols_mut().intern("main");
    engine.call(main);
    let mut depth = 0usize;
    let mut expected = ExpectedTotals::default();
    for step in steps {
        match *step {
            Step::Call(f) => {
                if depth < 30 {
                    engine.call(fns[f as usize % fns.len()]);
                    depth += 1;
                    expected.calls += 1;
                }
            }
            Step::Return => {
                if depth > 0 {
                    engine.ret();
                    depth -= 1;
                }
            }
            Step::Read(addr, size) => {
                engine.read(u64::from(addr), u32::from(size));
                expected.reads += 1;
                expected.bytes_read += u64::from(size);
            }
            Step::Write(addr, size) => {
                engine.write(u64::from(addr), u32::from(size));
                expected.writes += 1;
                expected.bytes_written += u64::from(size);
            }
            Step::Ops(class, count) => {
                engine.op(OpClass::ALL[class as usize], u32::from(count));
                expected.ops += u64::from(count);
            }
            Step::Branch(site, taken) => {
                engine.branch(u64::from(site), taken);
                expected.branches += 1;
            }
        }
    }
    while depth > 0 {
        engine.ret();
        depth -= 1;
    }
    engine.ret();
    let (profiler, symbols) = engine.finish_with_symbols();
    (profiler.into_profile(symbols), expected)
}

#[derive(Debug, Default, Clone, Copy)]
struct ExpectedTotals {
    calls: u64,
    reads: u64,
    bytes_read: u64,
    writes: u64,
    bytes_written: u64,
    ops: u64,
    branches: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn totals_conserve_event_counts(steps in prop::collection::vec(step_strategy(), 0..250)) {
        let (profile, expected) = run(&steps);
        let total: CostVec = profile.total_costs();
        prop_assert_eq!(total.reads, expected.reads);
        prop_assert_eq!(total.bytes_read, expected.bytes_read);
        prop_assert_eq!(total.writes, expected.writes);
        prop_assert_eq!(total.bytes_written, expected.bytes_written);
        prop_assert_eq!(total.ops_total(), expected.ops);
        prop_assert_eq!(total.branches, expected.branches);
    }

    #[test]
    fn misses_never_exceed_accesses(steps in prop::collection::vec(step_strategy(), 0..250)) {
        let (profile, _) = run(&steps);
        for (_, node) in profile.tree.iter() {
            let c = node.costs;
            // A 15-byte access can straddle a line: at most 2 line
            // touches per access.
            prop_assert!(c.l1_read_misses <= 2 * c.reads);
            prop_assert!(c.l1_write_misses <= 2 * c.writes);
            prop_assert!(c.ll_read_misses <= c.l1_read_misses);
            prop_assert!(c.ll_write_misses <= c.l1_write_misses);
            prop_assert!(c.mispredicts <= c.branches);
        }
    }

    #[test]
    fn cycles_dominate_ir(steps in prop::collection::vec(step_strategy(), 0..250)) {
        let (profile, _) = run(&steps);
        prop_assert!(profile.total_cycles() >= profile.total_costs().ir);
    }
}

//! Property tests pinning [`PhaseProfile`] bucketing to a reference
//! model.
//!
//! The production builder keeps sparse per-pair cells, with the latest
//! cell's sums pending until a tally names another cell, and emits a
//! canonical sorted shape; the reference model here is the obvious
//! nested map built with nothing but integer division. Any drift in
//! bucket indexing (floor semantics, boundary timestamps landing in the
//! higher bucket, last-bucket inclusivity) or in the canonical ordering
//! shows up as a counterexample.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sigil_callgrind::ContextId;
use sigil_core::{PhaseBuilder, PhaseProfile};

/// One recorded phase fact: a call or a transfer between two contexts
/// at a phase-clock timestamp.
#[derive(Debug, Clone)]
enum Fact {
    Call {
        from: u32,
        to: u32,
        at: u64,
    },
    Transfer {
        from: u32,
        to: u32,
        at: u64,
        bytes: u64,
    },
}

fn arb_fact() -> impl Strategy<Value = Fact> {
    // Timestamps concentrate near small multiples of common widths so
    // exact boundaries (at % width == 0) are generated often.
    let at = prop_oneof![0u64..64, (0u64..8).prop_map(|k| k * 10), 0u64..10_000];
    (0u8..2, 0u32..5, 0u32..5, at, 0u64..500).prop_map(|(kind, from, to, at, bytes)| {
        if kind == 0 {
            Fact::Call { from, to, at }
        } else {
            Fact::Transfer {
                from,
                to,
                at,
                bytes,
            }
        }
    })
}

impl Fact {
    /// The same fact `step` ops later on the phase clock.
    fn later(&self, step: u64) -> Fact {
        match *self {
            Fact::Call { from, to, at } => Fact::Call {
                from,
                to,
                at: at + step,
            },
            Fact::Transfer {
                from,
                to,
                at,
                bytes,
            } => Fact::Transfer {
                from,
                to,
                at: at + step,
                bytes,
            },
        }
    }
}

/// Facts in runs on one context pair, as the profiler and the phase fold
/// emit them: each run repeats a fact up to 12 times, 0 to 2 ops apart,
/// so most of a run falls in one bucket and some runs cross a boundary.
fn arb_runs() -> impl Strategy<Value = Vec<Fact>> {
    proptest::collection::vec((arb_fact(), 1usize..12, 0u64..3), 0..12).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(fact, len, step)| (0..len as u64).map(move |i| fact.later(i * step)))
            .collect()
    })
}

/// The reference model: `(from, to) -> bucket index -> (calls, bytes)`,
/// bucket index computed directly as `at / width`.
type Model = BTreeMap<(u32, u32), BTreeMap<u64, (u64, u64)>>;

fn model_of(facts: &[Fact], width: u64) -> Model {
    let width = width.max(1);
    let mut model = Model::new();
    for fact in facts {
        match *fact {
            Fact::Call { from, to, at } => {
                model
                    .entry((from, to))
                    .or_default()
                    .entry(at / width)
                    .or_insert((0, 0))
                    .0 += 1;
            }
            Fact::Transfer {
                from,
                to,
                at,
                bytes,
            } => {
                if bytes == 0 {
                    continue; // zero-byte transfers leave no trace
                }
                model
                    .entry((from, to))
                    .or_default()
                    .entry(at / width)
                    .or_insert((0, 0))
                    .1 += bytes;
            }
        }
    }
    // Cells that never accumulated anything (all-zero) must not appear;
    // the builder drops them, so the model does too.
    for cells in model.values_mut() {
        cells.retain(|_, &mut (calls, bytes)| calls != 0 || bytes != 0);
    }
    model.retain(|_, cells| !cells.is_empty());
    model
}

fn record(builder: &mut PhaseBuilder, fact: &Fact) {
    match *fact {
        Fact::Call { from, to, at } => {
            builder.record_call(ContextId(from), ContextId(to), at);
        }
        Fact::Transfer {
            from,
            to,
            at,
            bytes,
        } => builder.record_transfer(ContextId(from), ContextId(to), at, bytes),
    }
}

fn build(facts: &[Fact], width: u64) -> PhaseProfile {
    let mut builder = PhaseBuilder::new(width);
    for fact in facts {
        record(&mut builder, fact);
    }
    builder.finish()
}

/// Flattens a finished profile back into the model shape.
fn flatten(profile: &PhaseProfile) -> Model {
    let mut model = Model::new();
    for pair in &profile.pairs {
        let cells: BTreeMap<u64, (u64, u64)> = pair
            .buckets
            .iter()
            .map(|b| (b.index, (b.calls, b.xfer_bytes)))
            .collect();
        model.insert((pair.from.0, pair.to.0), cells);
    }
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The builder agrees with the reference model for any fact
    /// sequence and bucket width — calls and bytes land in exactly
    /// the buckets integer division says they should.
    #[test]
    fn builder_matches_reference_model(
        facts in proptest::collection::vec(arb_fact(), 0..60),
        width in 1u64..40,
    ) {
        prop_assert_eq!(flatten(&build(&facts, width)), model_of(&facts, width));
    }

    /// Runs of tallies on one cell, which the builder sums in its
    /// pending cell, land as the model says.
    #[test]
    fn runs_on_one_cell_match_the_reference_model(
        facts in arb_runs(),
        width in 1u64..40,
    ) {
        prop_assert_eq!(flatten(&build(&facts, width)), model_of(&facts, width));
    }

    /// A snapshot taken partway through a run (clone, then finish) sees
    /// every tally so far, and a profile absorbed partway through a run
    /// adds to it without losing the pending tallies.
    #[test]
    fn snapshots_and_absorbs_mid_run_see_the_pending_cell(
        facts in arb_runs(),
        other in arb_runs(),
        width in 1u64..40,
        split in 0usize..160,
    ) {
        let split = split.min(facts.len());
        let mut builder = PhaseBuilder::new(width);
        for fact in &facts[..split] {
            record(&mut builder, fact);
        }
        let snapshot = builder.clone().finish();
        prop_assert_eq!(flatten(&snapshot), model_of(&facts[..split], width));
        builder.absorb(&build(&other, width));
        for fact in &facts[split..] {
            record(&mut builder, fact);
        }
        let all: Vec<Fact> = facts.iter().chain(&other).cloned().collect();
        prop_assert_eq!(flatten(&builder.finish()), model_of(&all, width));
    }

    /// The canonical shape invariants hold: pairs sorted by (from, to)
    /// with no duplicates, buckets sorted by index with no duplicates,
    /// no all-zero cells, no empty pairs, and `num_buckets` is one past
    /// the highest occupied index.
    #[test]
    fn finished_profiles_are_canonical(
        facts in proptest::collection::vec(arb_fact(), 0..60),
        width in 1u64..40,
    ) {
        let profile = build(&facts, width);
        prop_assert!(profile
            .pairs
            .windows(2)
            .all(|w| (w[0].from, w[0].to) < (w[1].from, w[1].to)));
        let mut max_index = None;
        for pair in &profile.pairs {
            prop_assert!(!pair.buckets.is_empty(), "empty pair survived finish");
            prop_assert!(pair.buckets.windows(2).all(|w| w[0].index < w[1].index));
            for bucket in &pair.buckets {
                prop_assert!(
                    bucket.calls != 0 || bucket.xfer_bytes != 0,
                    "all-zero cell survived finish"
                );
                max_index = max_index.max(Some(bucket.index));
            }
        }
        let expected = max_index.map_or(0, |i| i + 1);
        prop_assert_eq!(profile.num_buckets(), expected);
    }

    /// Boundary semantics: a timestamp exactly on a bucket boundary
    /// belongs to the *higher* bucket (floor division), the last tick
    /// of a bucket stays inside it, and splitting one fact stream into
    /// two merged halves changes nothing.
    #[test]
    fn boundaries_and_merge_respect_the_model(
        facts in proptest::collection::vec(arb_fact(), 1..40),
        width in 1u64..40,
        split in 0usize..40,
        k in 0u64..50,
    ) {
        // Direct boundary pins.
        let mut b = PhaseBuilder::new(width);
        b.record_transfer(ContextId(0), ContextId(1), k * width, 1);
        if width > 1 {
            b.record_transfer(ContextId(0), ContextId(1), k * width + width - 1, 1);
        }
        let profile = b.finish();
        prop_assert_eq!(profile.pairs.len(), 1);
        prop_assert_eq!(profile.pairs[0].buckets.len(), 1, "boundary + last tick share a bucket");
        prop_assert_eq!(profile.pairs[0].buckets[0].index, k);

        // Merge of a split stream == one-shot build.
        let split = split.min(facts.len());
        let mut left = build(&facts[..split], width);
        left.merge(&build(&facts[split..], width));
        prop_assert_eq!(flatten(&left), model_of(&facts, width));
    }
}

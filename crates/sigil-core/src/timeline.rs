//! Replay's global order, one implementation for serial and sharded
//! replay.
//!
//! Table-I classification is per-byte state (see [`crate::shard`]); what
//! depends on the *total* order of the trace lives in one [`Timeline`]:
//! the guest threads' frame stacks, the phase clock (its tick rules are
//! in [`crate::phase`]), the index of non-empty accesses, and the rules
//! that turn them into the event file, "a sequence of dependent events"
//! (paper §II-A, §II-C2):
//!
//! * a call, a return, a thread switch and a read's transfers each flush
//!   the open frame's pending compute first (`push_compute` drops an
//!   empty fragment);
//! * ops retired outside any frame are dropped, from the event file and
//!   from the phase clock alike;
//! * at the end of the run the open frames drain one thread at a time,
//!   in ascending thread id.
//!
//! Serial replay drives an **emitting** timeline, which writes the event
//! file as it goes. A sharded profiler thread drives a **journaling**
//! one: it keeps the same frames and clock and journals every step it
//! takes, because a read's transfers come back from the shard workers
//! only once they are joined. [`Timeline::take_events`] then replays the
//! journal through an emitting timeline, splicing each read's transfer
//! segments back in by `(access, part)`, so both paths emit through the
//! same code.

use std::collections::HashMap;

use sigil_callgrind::ContextId;
use sigil_trace::CallNumber;

use crate::config::SigilConfig;
use crate::events_out::EventFile;

/// A transfer segment of one chunk run of a sharded read, as a worker
/// returns it: `(access index, part, producer call, bytes)`. A run's
/// segments are in byte order.
pub(crate) type Segment = (u64, u32, CallNumber, u64);

/// An open dynamic call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub(crate) ctx: ContextId,
    pub(crate) call: CallNumber,
    /// Retired ops since this frame's last flushed compute fragment.
    pending_ops: u64,
}

/// Where an access made outside any call is attributed.
const ROOT: Frame = Frame {
    ctx: ContextId::ROOT,
    call: CallNumber::ROOT,
    pending_ops: 0,
};

/// One journaled step, replayed by [`Timeline::take_events`].
#[derive(Debug, Clone, Copy)]
enum Step {
    Enter(CallNumber, ContextId),
    Leave,
    /// Consecutive retired ops, summed.
    Retire(u64),
    /// A read, by access index: its own op, then its transfers.
    Read(u64),
    Switch(u32),
    Finish,
}

/// What a timeline does with the event file.
#[derive(Debug)]
enum Output {
    /// Events are off.
    Off,
    /// Writes the event file as it goes.
    Emit(EventFile),
    /// Journals its steps for [`Timeline::take_events`].
    Journal(Vec<Step>),
}

/// Replay's global order; see the module docs.
///
/// The small per-event methods are `#[inline]`: without the hints a
/// release build calls `access`, `leave`, `switch` and `transfers` out
/// of line from the profiler's event handlers.
#[derive(Debug)]
pub(crate) struct Timeline {
    /// The current thread's frame stack. Every step but a switch works
    /// on it, so it stays out of `parked`.
    frames: Vec<Frame>,
    thread: u32,
    /// The other threads' frame stacks, by raw thread id.
    parked: HashMap<u32, Vec<Frame>>,
    phase_clock: u64,
    /// Non-empty accesses so far: the next access's index.
    accesses: u64,
    out: Output,
}

impl Timeline {
    /// A timeline that emits `config`'s event file serially and journals
    /// it when sharded.
    pub(crate) fn new(config: &SigilConfig) -> Self {
        Timeline::with_output(match (config.record_events, config.shards > 1) {
            (false, _) => Output::Off,
            (true, false) => Output::Emit(EventFile::new()),
            (true, true) => Output::Journal(Vec::new()),
        })
    }

    fn with_output(out: Output) -> Self {
        Timeline {
            frames: Vec::with_capacity(64),
            thread: 0,
            parked: HashMap::new(),
            phase_clock: 0,
            accesses: 0,
            out,
        }
    }

    /// The open frame, or the root outside any call.
    #[inline]
    pub(crate) fn frame(&self) -> Frame {
        self.frames.last().copied().unwrap_or(ROOT)
    }

    /// The current guest thread (raw id).
    #[inline]
    pub(crate) fn thread(&self) -> u32 {
        self.thread
    }

    /// The phase clock.
    #[inline]
    pub(crate) fn phase_clock(&self) -> u64 {
        self.phase_clock
    }

    /// Enters dynamic call `call` in context `ctx`. The call retires one
    /// op of its own: it ticks the phase clock, and the event file shows
    /// it as the `Call` record.
    pub(crate) fn enter(&mut self, call: CallNumber, ctx: ContextId) {
        let parent = self.frame().call;
        self.flush();
        match &mut self.out {
            Output::Off => {}
            Output::Emit(events) => events.push_call(parent, call, ctx),
            Output::Journal(steps) => steps.push(Step::Enter(call, ctx)),
        }
        self.phase_clock += 1;
        self.frames.push(Frame {
            ctx,
            call,
            pending_ops: 0,
        });
    }

    /// Returns from the open frame.
    pub(crate) fn leave(&mut self) {
        self.journal(Step::Leave);
        self.pop();
    }

    /// Retires `count` ops into the open frame's pending compute.
    #[inline]
    pub(crate) fn retire(&mut self, count: u64) {
        if !self.tick(count) {
            return;
        }
        if let Output::Journal(steps) = &mut self.out {
            match steps.last_mut() {
                Some(Step::Retire(run)) => *run += count,
                _ => steps.push(Step::Retire(count)),
            }
        }
    }

    /// A non-empty access, which retires one op. A journal keeps a read
    /// by its access index, the place its transfers go.
    #[inline]
    pub(crate) fn access(&mut self, write: bool) {
        if write {
            self.retire(1);
        } else {
            self.tick(1);
            self.journal(Step::Read(self.accesses));
        }
        self.accesses += 1;
    }

    /// The transfers of the read just taken, `(producer call, bytes)` in
    /// byte order. If there are any, the open frame's pending compute,
    /// the read's own op included, goes first.
    #[inline]
    pub(crate) fn transfers(&mut self, calls: impl IntoIterator<Item = (CallNumber, u64)>) {
        if !matches!(self.out, Output::Emit(_)) {
            return;
        }
        let mut calls = calls.into_iter().peekable();
        if calls.peek().is_none() {
            return;
        }
        let to = self.frame().call;
        self.flush();
        if let Output::Emit(events) = &mut self.out {
            for (from, bytes) in calls {
                events.push_transfer(from, to, bytes);
            }
        }
    }

    /// Makes `thread` current. The outgoing thread's pending compute is
    /// flushed first, so its ops stay on its own timeline.
    pub(crate) fn switch(&mut self, thread: u32) {
        self.journal(Step::Switch(thread));
        self.flush();
        self.resume(thread);
    }

    /// End of run: drains the open frames one thread at a time, in
    /// ascending thread id, each frame as a return.
    pub(crate) fn finish(&mut self) {
        self.journal(Step::Finish);
        let mut threads: Vec<u32> = self.parked.keys().copied().collect();
        threads.push(self.thread);
        threads.sort_unstable();
        for thread in threads {
            // No flush here: each frame flushes as it returns.
            self.resume(thread);
            while !self.frames.is_empty() {
                self.pop();
            }
        }
        self.resume(0);
    }

    /// The event file, or `None` with events off. A journal is replayed
    /// through an emitting timeline that splices in each read's
    /// `segments`, the workers' lists concatenated in any order.
    pub(crate) fn take_events(self, mut segments: Vec<Segment>) -> Option<EventFile> {
        let steps = match self.out {
            Output::Off => return None,
            Output::Emit(events) => return Some(events),
            Output::Journal(steps) => steps,
        };
        // Stable: a run's segments keep their byte order.
        segments.sort_by_key(|&(access, part, ..)| (access, part));
        let mut replay = Timeline::with_output(Output::Emit(EventFile::new()));
        let mut rest = &segments[..];
        for step in steps {
            match step {
                Step::Enter(call, ctx) => replay.enter(call, ctx),
                Step::Leave => replay.leave(),
                Step::Retire(count) => replay.retire(count),
                Step::Read(access) => {
                    replay.access(false);
                    let (read, later) = rest.split_at(rest.partition_point(|s| s.0 == access));
                    replay.transfers(read.iter().map(|&(_, _, from, bytes)| (from, bytes)));
                    rest = later;
                }
                Step::Switch(thread) => replay.switch(thread),
                Step::Finish => replay.finish(),
            }
        }
        replay.take_events(Vec::new())
    }

    /// Adds `count` to the open frame's pending ops and the phase clock;
    /// outside any frame both drop them. Whether a frame took them.
    #[inline]
    fn tick(&mut self, count: u64) -> bool {
        let Some(frame) = self.frames.last_mut() else {
            return false;
        };
        frame.pending_ops += count;
        self.phase_clock += count;
        true
    }

    #[inline]
    fn journal(&mut self, step: Step) {
        if let Output::Journal(steps) = &mut self.out {
            steps.push(step);
        }
    }

    /// Writes the open frame's pending compute to the event file.
    #[inline]
    fn flush(&mut self) {
        if let (Output::Emit(events), Some(frame)) = (&mut self.out, self.frames.last_mut()) {
            events.push_compute(
                frame.call,
                frame.ctx,
                std::mem::take(&mut frame.pending_ops),
            );
        }
    }

    fn pop(&mut self) {
        self.flush();
        self.frames.pop();
    }

    /// Makes `thread` current without a flush: parks the outgoing
    /// thread's stack and takes up the incoming one's.
    fn resume(&mut self, thread: u32) {
        if thread == self.thread {
            return;
        }
        let incoming = self.parked.remove(&thread).unwrap_or_default();
        let outgoing = std::mem::replace(&mut self.frames, incoming);
        self.parked.insert(self.thread, outgoing);
        self.thread = thread;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events_out::EventRecord;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn journaling() -> Timeline {
        Timeline::with_output(Output::Journal(Vec::new()))
    }

    #[test]
    fn journal_replay_reproduces_serial_emission_order() {
        // call 1 → 3 ops → read with an 8-byte transfer from root → 2
        // ops → return: the flush before the Transfer counts the 3 ops
        // plus the read's own op; the trailing Compute counts the 2 ops
        // after.
        let mut timeline = journaling();
        timeline.enter(CallNumber::from_raw(1), ContextId(1));
        timeline.retire(3);
        timeline.access(false);
        timeline.retire(2);
        timeline.leave();
        let events = timeline
            .take_events(vec![(0, 0, CallNumber::ROOT, 8)])
            .expect("events on");
        let records = events.records();
        assert_eq!(records.len(), 4);
        assert!(matches!(records[0], EventRecord::Call { .. }));
        assert!(matches!(records[1], EventRecord::Compute { ops: 4, .. }));
        assert!(
            matches!(records[2], EventRecord::Transfer { bytes: 8, to_call, .. }
                if to_call == CallNumber::from_raw(1))
        );
        assert!(matches!(records[3], EventRecord::Compute { ops: 2, .. }));
    }

    #[test]
    fn journal_replay_orders_straddling_parts_by_byte_order() {
        // Two parts of access 5 arriving out of order must splice back in
        // part order and coalesce into one transfer record when the
        // producer call matches.
        let producer = CallNumber::from_raw(7);
        let mut timeline = journaling();
        timeline.enter(CallNumber::from_raw(9), ContextId(2));
        for _ in 0..5 {
            timeline.access(true);
        }
        timeline.access(false);
        timeline.leave();
        let events = timeline
            .take_events(vec![(5, 1, producer, 4), (5, 0, producer, 12)])
            .expect("events on");
        let transfer_bytes: Vec<u64> = events
            .records()
            .iter()
            .filter_map(|r| match r {
                EventRecord::Transfer { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(transfer_bytes, vec![16], "parts coalesce in byte order");
    }

    /// One step of a random replay, on up to three threads.
    #[derive(Debug, Clone)]
    enum Op {
        Enter(u32),
        Leave,
        Retire(u64),
        Write,
        /// A read's transfers, `(producer call, bytes)`, split into parts.
        Read(Vec<Vec<(u64, u64)>>),
        Switch(u32),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u32..4).prop_map(Op::Enter),
            Just(Op::Leave),
            (0u64..4).prop_map(Op::Retire),
            Just(Op::Write),
            prop::collection::vec(prop::collection::vec((0u64..4, 1u64..9), 0..3), 0..4)
                .prop_map(Op::Read),
            (0u32..3).prop_map(Op::Switch),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A journal replayed with the workers' segments, in whatever
        /// order the workers deliver them, emits the event file that
        /// serial replay writes inline.
        #[test]
        fn journal_replay_equals_inline_emission(
            ops in prop::collection::vec(op(), 0..48),
            finish in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut inline = Timeline::with_output(Output::Emit(EventFile::new()));
            let mut journal = journaling();
            let mut call = CallNumber::ROOT;
            let mut accesses = 0u64;
            // `(access, part, segments)` of every read run.
            let mut runs = Vec::new();
            for op in ops {
                for timeline in [&mut inline, &mut journal] {
                    match op {
                        Op::Enter(ctx) => timeline.enter(call.next(), ContextId(ctx)),
                        Op::Leave => timeline.leave(),
                        Op::Retire(count) => timeline.retire(count),
                        Op::Write => timeline.access(true),
                        Op::Read(_) => timeline.access(false),
                        Op::Switch(thread) => timeline.switch(thread),
                    }
                }
                match op {
                    Op::Enter(_) => call = call.next(),
                    Op::Write => accesses += 1,
                    Op::Read(parts) => {
                        let calls = parts.iter().flatten();
                        inline.transfers(calls.map(|&(from, bytes)| (CallNumber::from_raw(from), bytes)));
                        for (part, segments) in parts.into_iter().enumerate() {
                            runs.push((accesses, part as u32, segments));
                        }
                        accesses += 1;
                    }
                    _ => {}
                }
            }
            if finish {
                inline.finish();
                journal.finish();
            }
            // Workers deliver runs in any interleaving.
            let mut rng = SmallRng::seed_from_u64(seed);
            for i in (1..runs.len()).rev() {
                runs.swap(i, rng.gen_range(0..i + 1));
            }
            let segments: Vec<Segment> = runs
                .into_iter()
                .flat_map(|(access, part, segments)| {
                    segments.into_iter().map(move |(from, bytes)| {
                        (access, part, CallNumber::from_raw(from), bytes)
                    })
                })
                .collect();
            prop_assert_eq!(journal.take_events(segments), inline.take_events(Vec::new()));
        }
    }
}

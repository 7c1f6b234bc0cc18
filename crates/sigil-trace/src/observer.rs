//! The observer interface consumed by profilers.

use crate::event::RuntimeEvent;

/// A consumer of the dynamic execution-event stream.
///
/// Both profilers in this workspace — the Callgrind-like cost profiler and
/// Sigil itself — implement this trait, mirroring how Valgrind tools plug
/// into the instrumented execution. Observers are driven strictly in
/// program order and must not assume anything about the platform: events
/// carry only platform-independent information.
pub trait ExecutionObserver {
    /// Handles one dynamic event.
    fn on_event(&mut self, event: RuntimeEvent);

    /// Called once when the traced execution ends.
    ///
    /// The default implementation does nothing.
    fn on_finish(&mut self) {}
}

/// An observer that discards every event.
///
/// Its `on_event` inlines to nothing, so the optimizer may fold away a
/// workload generator driven into it: it is no timing baseline. Figure 4's
/// native arm counts events behind a call that is never inlined instead
/// (`sigil_bench::NativeFloor`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl ExecutionObserver for NullObserver {
    #[inline(always)]
    fn on_event(&mut self, _event: RuntimeEvent) {}
}

/// Aggregate event counts, useful for smoke tests and sanity checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Number of `Call` events observed.
    pub calls: u64,
    /// Number of `Return` events observed.
    pub returns: u64,
    /// Number of `Read` events observed.
    pub reads: u64,
    /// Total bytes across all reads.
    pub bytes_read: u64,
    /// Number of `Write` events observed.
    pub writes: u64,
    /// Total bytes across all writes.
    pub bytes_written: u64,
    /// Total retired compute operations (sum of `Op` counts).
    pub ops: u64,
    /// Number of `Branch` events observed.
    pub branches: u64,
    /// Number of `SyscallEnter` events observed.
    pub syscalls: u64,
    /// Number of `ThreadSwitch` events observed.
    pub thread_switches: u64,
}

/// An observer that tallies event counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingObserver {
    counts: EventCounts,
}

impl CountingObserver {
    /// Creates a counting observer with all counts zero.
    pub fn new() -> Self {
        CountingObserver::default()
    }

    /// Returns the counts accumulated so far.
    pub fn counts(&self) -> EventCounts {
        self.counts
    }

    /// Consumes the observer, returning the final counts.
    pub fn into_counts(self) -> EventCounts {
        self.counts
    }
}

impl ExecutionObserver for CountingObserver {
    fn on_event(&mut self, event: RuntimeEvent) {
        match event {
            RuntimeEvent::Call { .. } => self.counts.calls += 1,
            RuntimeEvent::Return => self.counts.returns += 1,
            RuntimeEvent::Read { access } => {
                self.counts.reads += 1;
                self.counts.bytes_read += u64::from(access.size);
            }
            RuntimeEvent::Write { access } => {
                self.counts.writes += 1;
                self.counts.bytes_written += u64::from(access.size);
            }
            RuntimeEvent::Op { count, .. } => self.counts.ops += u64::from(count),
            RuntimeEvent::Branch { .. } => self.counts.branches += 1,
            RuntimeEvent::SyscallEnter { .. } => self.counts.syscalls += 1,
            RuntimeEvent::SyscallExit => {}
            RuntimeEvent::ThreadSwitch { .. } => self.counts.thread_switches += 1,
        }
    }
}

/// Fans one event stream out to two observers.
///
/// Nests for more than two: `Fanout::new(a, Fanout::new(b, c))`.
///
/// # Example
///
/// ```
/// use sigil_trace::observer::{CountingObserver, Fanout, NullObserver};
/// use sigil_trace::{ExecutionObserver, RuntimeEvent};
///
/// let mut both = Fanout::new(CountingObserver::new(), NullObserver);
/// both.on_event(RuntimeEvent::Return);
/// assert_eq!(both.first().counts().returns, 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fanout<A, B> {
    a: A,
    b: B,
}

impl<A: ExecutionObserver, B: ExecutionObserver> Fanout<A, B> {
    /// Creates a fanout over observers `a` and `b`.
    pub fn new(a: A, b: B) -> Self {
        Fanout { a, b }
    }

    /// Borrows the first observer.
    pub fn first(&self) -> &A {
        &self.a
    }

    /// Borrows the second observer.
    pub fn second(&self) -> &B {
        &self.b
    }

    /// Splits the fanout back into its parts.
    pub fn into_parts(self) -> (A, B) {
        (self.a, self.b)
    }
}

impl<A: ExecutionObserver, B: ExecutionObserver> ExecutionObserver for Fanout<A, B> {
    fn on_event(&mut self, event: RuntimeEvent) {
        self.a.on_event(event);
        self.b.on_event(event);
    }

    fn on_finish(&mut self) {
        self.a.on_finish();
        self.b.on_finish();
    }
}

/// An observer that records every event into a buffer.
///
/// Useful in tests and for replaying a trace through another observer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordingObserver {
    events: Vec<RuntimeEvent>,
}

impl RecordingObserver {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        RecordingObserver::default()
    }

    /// The events recorded so far, in program order.
    pub fn events(&self) -> &[RuntimeEvent] {
        &self.events
    }

    /// Consumes the recorder, returning the recorded events.
    pub fn into_events(self) -> Vec<RuntimeEvent> {
        self.events
    }

    /// Replays the recorded trace into `observer`, including the finish
    /// notification.
    pub fn replay<O: ExecutionObserver>(&self, observer: &mut O) {
        for &ev in &self.events {
            observer.on_event(ev);
        }
        observer.on_finish();
    }
}

impl ExecutionObserver for RecordingObserver {
    fn on_event(&mut self, event: RuntimeEvent) {
        self.events.push(event);
    }
}

impl<O: ExecutionObserver + ?Sized> ExecutionObserver for &mut O {
    fn on_event(&mut self, event: RuntimeEvent) {
        (**self).on_event(event);
    }

    fn on_finish(&mut self) {
        (**self).on_finish();
    }
}

impl<O: ExecutionObserver + ?Sized> ExecutionObserver for Box<O> {
    fn on_event(&mut self, event: RuntimeEvent) {
        (**self).on_event(event);
    }

    fn on_finish(&mut self) {
        (**self).on_finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MemAccess, OpClass};
    use crate::ids::FunctionId;

    fn sample_events() -> Vec<RuntimeEvent> {
        vec![
            RuntimeEvent::Call {
                callee: FunctionId::from_raw(0),
            },
            RuntimeEvent::Write {
                access: MemAccess::new(0x10, 8),
            },
            RuntimeEvent::Op {
                class: OpClass::IntArith,
                count: 3,
            },
            RuntimeEvent::Read {
                access: MemAccess::new(0x10, 8),
            },
            RuntimeEvent::Branch {
                site: 1,
                taken: false,
            },
            RuntimeEvent::Return,
        ]
    }

    #[test]
    fn counting_observer_tallies_everything() {
        let mut obs = CountingObserver::new();
        for ev in sample_events() {
            obs.on_event(ev);
        }
        let c = obs.counts();
        assert_eq!(c.calls, 1);
        assert_eq!(c.returns, 1);
        assert_eq!(c.reads, 1);
        assert_eq!(c.bytes_read, 8);
        assert_eq!(c.writes, 1);
        assert_eq!(c.bytes_written, 8);
        assert_eq!(c.ops, 3);
        assert_eq!(c.branches, 1);
    }

    #[test]
    fn fanout_delivers_to_both() {
        let mut fan = Fanout::new(CountingObserver::new(), RecordingObserver::new());
        for ev in sample_events() {
            fan.on_event(ev);
        }
        fan.on_finish();
        let (count, rec) = fan.into_parts();
        assert_eq!(count.counts().calls, 1);
        assert_eq!(rec.events().len(), sample_events().len());
    }

    #[test]
    fn recorder_replay_reproduces_counts() {
        let mut rec = RecordingObserver::new();
        for ev in sample_events() {
            rec.on_event(ev);
        }
        let mut direct = CountingObserver::new();
        for ev in sample_events() {
            direct.on_event(ev);
        }
        let mut replayed = CountingObserver::new();
        rec.replay(&mut replayed);
        assert_eq!(direct.counts(), replayed.counts());
    }

    #[test]
    fn mut_ref_observer_forwards() {
        let mut obs = CountingObserver::new();
        {
            // Route through the `&mut O` blanket impl explicitly.
            let mut by_ref: &mut CountingObserver = &mut obs;
            ExecutionObserver::on_event(&mut by_ref, RuntimeEvent::Return);
        }
        assert_eq!(obs.counts().returns, 1);
    }

    #[test]
    fn boxed_observer_forwards() {
        let mut boxed: Box<CountingObserver> = Box::default();
        boxed.on_event(RuntimeEvent::Return);
        assert_eq!(boxed.counts().returns, 1);
    }
}

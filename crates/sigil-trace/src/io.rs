//! Replaying recorded event traces.
//!
//! The paper closes with: "we plan to release the profile data for many
//! commonly used benchmarks. As these profiles are platform independent,
//! researchers can use the data without running Sigil." A recorded
//! event stream replays into any observer exactly as the live run fed
//! it. The on-disk form of a recorded trace (`.sgtr`) is the trace kind
//! of `sigil_core::events_bin`'s chunk container.

use crate::observer::ExecutionObserver;
use crate::RuntimeEvent;

/// Replays a loaded trace into `observer`, including the finish
/// notification.
pub fn replay<O: ExecutionObserver>(events: &[RuntimeEvent], observer: &mut O) {
    for &event in events {
        observer.on_event(event);
    }
    observer.on_finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::observer::{CountingObserver, RecordingObserver};
    use crate::OpClass;

    #[test]
    fn replay_matches_live_counts() {
        let mut engine = Engine::new(RecordingObserver::new());
        engine.scoped_named("main", |e| {
            e.write(0xdead_beef_0000, 8);
            e.op(OpClass::FloatArith, 1000);
            e.branch(0x42, true);
            e.syscall("sys_write", |e| e.read(0xdead_beef_0000, 8));
        });
        let events = engine.finish().into_events();
        let mut live = CountingObserver::new();
        for &e in &events {
            live.on_event(e);
        }
        let mut replayed = CountingObserver::new();
        replay(&events, &mut replayed);
        assert_eq!(live.counts(), replayed.counts());
    }
}

//! The per-byte shadow object (paper Table I).

use std::fmt;
use std::num::NonZeroU32;

use serde::{Deserialize, Serialize};
use sigil_trace::{CallNumber, Timestamp};

/// Identity of the entity that last wrote or read a shadowed byte: a
/// function (in practice a *function context*, see `sigil-callgrind`)
/// together with the dynamic call number of that access.
///
/// The paper's shadow object stores a "pointer to function" plus a "call
/// number"; we store a dense context index plus the global call number,
/// which carries the same information without raw pointers. The guest
/// thread is carried alongside: call numbers are globally unique, so two
/// owners can only collide across threads at the shared root frame
/// (`call == 0`), and the thread field is what keeps per-thread root
/// frames distinct — and what lets the profiler classify a read whose
/// last writer ran on another thread as inter-thread input.
///
/// An owner packs into 16 bytes with a niche, so `Option<Owner>` needs no
/// tag word: the context is stored plus one, and context id `u32::MAX`
/// (which the calltree never mints) is not representable.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Owner {
    /// Dense index of the owning function context, plus one.
    ctx_plus_one: NonZeroU32,
    /// Guest thread the access ran on (raw [`sigil_trace::ThreadId`]).
    thread: u32,
    /// Dynamic call during which the access happened.
    call: CallNumber,
}

impl Owner {
    /// Creates an owner record.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is `u32::MAX`, the value the niche takes.
    pub const fn new(ctx: u32, call: CallNumber, thread: u32) -> Self {
        let Some(ctx_plus_one) = NonZeroU32::new(ctx.wrapping_add(1)) else {
            panic!("context id u32::MAX has no shadow owner");
        };
        Owner {
            ctx_plus_one,
            thread,
            call,
        }
    }

    /// Dense index of the owning function context.
    pub const fn ctx(self) -> u32 {
        self.ctx_plus_one.get() - 1
    }

    /// Guest thread the access ran on.
    pub const fn thread(self) -> u32 {
        self.thread
    }

    /// Dynamic call during which the access happened.
    pub const fn call(self) -> CallNumber {
        self.call
    }
}

impl fmt::Debug for Owner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Owner")
            .field("ctx", &self.ctx())
            .field("thread", &self.thread)
            .field("call", &self.call)
            .finish()
    }
}

/// Reuse-mode extension of the shadow object (paper Table I, "Additional
/// variables for Reuse mode").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseInfo {
    /// Number of times the byte was accessed beyond its first read
    /// ("re-use count").
    pub reuse_count: u64,
    /// Timestamp of the first read of the current value
    /// ("re-use lifetime start").
    pub first_access: Timestamp,
    /// Timestamp of the latest read of the current value
    /// ("re-use lifetime finish").
    pub last_access: Timestamp,
}

impl ReuseInfo {
    /// The reuse lifetime: retired-op distance between first and last
    /// access of the current value.
    pub const fn lifetime(&self) -> u64 {
        self.last_access.delta(self.first_access)
    }

    /// Records a read at `now`, updating count and lifetime bounds.
    pub fn record_read(&mut self, now: Timestamp, first_read: bool) {
        if first_read {
            self.first_access = now;
        } else {
            self.reuse_count += 1;
        }
        self.last_access = now;
    }
}

/// The reuse part of a shadow object: `()` outside reuse mode, which
/// stores nothing, and [`ReuseInfo`] in it. Code generic over the slot
/// compiles the reuse steps away for `()`.
pub trait ReuseSlot: Copy + Default + fmt::Debug + PartialEq + Send + 'static {
    /// The slot's reuse record, or `None` if the slot keeps none.
    fn info(&self) -> Option<ReuseInfo>;

    /// Records a read at `now` (see [`ReuseInfo::record_read`]).
    fn record_read(&mut self, now: Timestamp, first_read: bool);
}

impl ReuseSlot for () {
    fn info(&self) -> Option<ReuseInfo> {
        None
    }

    fn record_read(&mut self, _now: Timestamp, _first_read: bool) {}
}

impl ReuseSlot for ReuseInfo {
    fn info(&self) -> Option<ReuseInfo> {
        Some(*self)
    }

    fn record_read(&mut self, now: Timestamp, first_read: bool) {
        ReuseInfo::record_read(self, now, first_read);
    }
}

/// Shadow record for one byte of guest memory (paper Table I).
///
/// Baseline variables: last writer, last reader, last reader call (the
/// reader's [`Owner::call`]). `R` holds the "additional variables for
/// Reuse mode": the bare `ShadowObject` is the 32-byte baseline, and
/// `ShadowObject<ReuseInfo>` adds the 24-byte reuse record.
///
/// A freshly created shadow object is *invalid*: no writer, no reader.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowObject<R = ()> {
    last_writer: Option<Owner>,
    last_reader: Option<Owner>,
    reuse: R,
}

const _: () = assert!(std::mem::size_of::<ShadowObject>() == 32);
const _: () = assert!(std::mem::size_of::<ShadowObject<ReuseInfo>>() == 56);

impl<R: Default> ShadowObject<R> {
    /// Whether the byte has ever been written by the traced program.
    pub const fn is_written(&self) -> bool {
        self.last_writer.is_some()
    }

    /// Function context + call that last wrote this byte; `None` until
    /// the traced program first writes the byte.
    pub const fn last_writer(&self) -> Option<Owner> {
        self.last_writer
    }

    /// Function context + call that last read this byte; `None` until the
    /// first read of the current value.
    pub const fn last_reader(&self) -> Option<Owner> {
        self.last_reader
    }

    /// Reuse-mode statistics for the *current value* of the byte.
    pub const fn reuse(&self) -> &R {
        &self.reuse
    }

    /// Mutable access to the reuse-mode statistics.
    pub fn reuse_mut(&mut self) -> &mut R {
        &mut self.reuse
    }

    /// Marks `writer` as the producer of this byte's current value and
    /// invalidates reader / reuse history (a write starts a new value).
    pub fn record_write(&mut self, writer: Owner) {
        self.last_writer = Some(writer);
        self.last_reader = None;
        self.reuse = R::default();
    }

    /// Returns true iff `reader` (same context *and* same dynamic call)
    /// already read this byte, i.e. a further read is **non-unique**.
    pub fn is_repeat_read(&self, reader: Owner) -> bool {
        self.last_reader == Some(reader)
    }

    /// Marks `reader` as the most recent consumer.
    pub fn record_read(&mut self, reader: Owner) {
        self.last_reader = Some(reader);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owner(ctx: u32, call: u64) -> Owner {
        Owner::new(ctx, CallNumber::from_raw(call), 0)
    }

    #[test]
    fn fresh_object_is_invalid() {
        let obj = ShadowObject::<ReuseInfo>::default();
        assert!(!obj.is_written());
        assert_eq!(obj.last_reader(), None);
        assert_eq!(*obj.reuse(), ReuseInfo::default());
    }

    #[test]
    fn write_sets_producer_and_clears_readers() {
        let mut obj = ShadowObject::<ReuseInfo>::default();
        obj.record_read(owner(1, 5));
        obj.reuse_mut().record_read(Timestamp::from_raw(10), true);
        obj.record_write(owner(2, 6));
        assert_eq!(obj.last_writer(), Some(owner(2, 6)));
        assert_eq!(obj.last_reader(), None);
        assert_eq!(*obj.reuse(), ReuseInfo::default());
    }

    #[test]
    fn repeat_read_requires_same_context_and_call() {
        let mut obj: ShadowObject = ShadowObject::default();
        obj.record_read(owner(1, 5));
        assert!(obj.is_repeat_read(owner(1, 5)));
        // Same function, different dynamic call: unique again.
        assert!(!obj.is_repeat_read(owner(1, 7)));
        // Different function, same call number: unique.
        assert!(!obj.is_repeat_read(owner(2, 5)));
    }

    #[test]
    fn repeat_read_distinguishes_threads_at_the_root_frame() {
        // Root frames share (ctx, call) across guest threads; only the
        // thread field keeps their reads distinct.
        let mut obj: ShadowObject = ShadowObject::default();
        obj.record_read(Owner::new(0, CallNumber::ROOT, 0));
        assert!(obj.is_repeat_read(Owner::new(0, CallNumber::ROOT, 0)));
        assert!(!obj.is_repeat_read(Owner::new(0, CallNumber::ROOT, 1)));
    }

    #[test]
    fn owner_round_trips_every_mintable_context() {
        for ctx in [0, 1, u32::MAX - 1] {
            let o = Owner::new(ctx, CallNumber::from_raw(9), u32::MAX);
            assert_eq!((o.ctx(), o.call().as_raw(), o.thread()), (ctx, 9, u32::MAX));
        }
    }

    #[test]
    #[should_panic(expected = "u32::MAX")]
    fn owner_rejects_the_niche_context() {
        let _ = Owner::new(u32::MAX, CallNumber::ROOT, 0);
    }

    #[test]
    fn reuse_lifetime_spans_first_to_last_read() {
        let mut info = ReuseInfo::default();
        info.record_read(Timestamp::from_raw(100), true);
        assert_eq!(info.lifetime(), 0);
        assert_eq!(info.reuse_count, 0);
        info.record_read(Timestamp::from_raw(250), false);
        info.record_read(Timestamp::from_raw(400), false);
        assert_eq!(info.reuse_count, 2);
        assert_eq!(info.lifetime(), 300);
    }
}

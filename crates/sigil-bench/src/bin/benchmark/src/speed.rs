//! Reference seconds: wall time corrected for how fast the host ran.
//!
//! On a shared host the same pass can take twice as long from one minute
//! to the next, while nothing in this process changed: other tenants
//! contend for the cores under it. The benchmark therefore runs a small
//! calibration kernel of its own between timed operations and measures
//! its CPU time. How much slower than [`REF_KERNEL_S`] the kernel ran is
//! the host's slowdown at that moment, and an operation's time divided
//! by the slowdown around it is its time in reference seconds: what it
//! would have taken on an uncontended core of the reference host.
//!
//! The kernel is a miniature communication profiler (see
//! [`profile_stream`]). Of the kernels tried on the reference host, it
//! tracked the profiler's own slowdowns most closely. Over 400 seconds of
//! `suite_serial`-style passes, pass times spread by 30% (quartile
//! distance over the median) and their medians over 6-pass windows by
//! 26%; divided by the kernel's slowdown, by 10% and 5%. A bytecode
//! interpreter, hash-map churn, a B-tree, sorting, and random access to
//! tables of 1 to 256 MiB tracked worse, the large tables not at all.
//! The kernel is this benchmark's own code, so no change to the profiler
//! can move it.

use std::collections::HashMap;
use std::time::Instant;

/// Accesses the kernel profiles per calibration.
const KERNEL_ACCESSES: usize = 20_000;
/// CPU seconds the kernel takes on an idle core of the reference host, a
/// 2-vCPU Intel Xeon guest: the fastest of 5,000 calibrations, whose
/// median was 4.0 to 6.0 ms depending on the minute.
pub const REF_KERNEL_S: f64 = 3.6e-3;
/// Wall time after which [`RefClock::calibrate_if_due`] calibrates again.
const CALIBRATE_EVERY_S: f64 = 0.1;

/// A closed interval of a [`RefClock`]'s time, in seconds since its start.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub from: f64,
    pub to: f64,
}

impl Span {
    pub fn wall_s(self) -> f64 {
        self.to - self.from
    }
}

/// Converts wall time to reference seconds by calibrating between timed
/// operations. Each clock belongs to one thread: the kernel's CPU time
/// is that thread's.
pub struct RefClock {
    start: Instant,
    /// Each calibration's midpoint (seconds since `start`) and the
    /// slowdown it measured, in time order.
    marks: Vec<(f64, f64)>,
}

impl RefClock {
    /// A clock with no calibration yet.
    pub fn new() -> RefClock {
        RefClock {
            start: Instant::now(),
            marks: Vec::new(),
        }
    }

    /// Seconds since the clock was made.
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Times `work` on this clock.
    pub fn time<T>(&self, work: impl FnOnce() -> T) -> (T, Span) {
        let from = self.now();
        let out = work();
        (
            out,
            Span {
                from,
                to: self.now(),
            },
        )
    }

    /// Runs the kernel once and records the slowdown it measured.
    pub fn calibrate(&mut self) {
        let from = self.now();
        let cpu = thread_cpu_s();
        profile_stream(KERNEL_ACCESSES);
        let kernel_s = thread_cpu_s() - cpu;
        let mid = (from + self.now()) / 2.0;
        self.marks.push((mid, kernel_s / REF_KERNEL_S));
    }

    /// Calibrates unless the last calibration is recent.
    pub fn calibrate_if_due(&mut self) {
        let due = self
            .marks
            .last()
            .is_none_or(|&(at, _)| self.now() - at >= CALIBRATE_EVERY_S);
        if due {
            self.calibrate();
        }
    }

    /// The slowdown at `t`, interpolated between the calibrations around
    /// it (the nearest one outside their range).
    fn slowdown_at(&self, t: f64) -> f64 {
        let after = self.marks.partition_point(|&(at, _)| at <= t);
        let before = after.checked_sub(1).and_then(|i| self.marks.get(i));
        match (before, self.marks.get(after)) {
            (Some(&(t0, s0)), Some(&(t1, s1))) => s0 + (s1 - s0) * (t - t0) / (t1 - t0),
            (Some(&(_, s)), None) | (None, Some(&(_, s))) => s,
            (None, None) => panic!("a clock is calibrated before it converts time"),
        }
    }

    /// `span` in reference seconds. Calibrate after the span ends first,
    /// so that a calibration lies on each side of it.
    pub fn ref_s(&self, span: Span) -> f64 {
        span.wall_s() / self.slowdown_at((span.from + span.to) / 2.0)
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// An observer of the kernel's memory accesses.
trait Observer {
    fn access(&mut self, addr: u64, len: u64, write: bool, func: u32);
}

/// Shadow state of the kernel's profiler: per 4-byte granule, its last
/// writer and how often it was written; per (reader, writer) pair,
/// hashed into a small table, the bytes read of another function's data.
struct Shadow {
    granules: HashMap<u64, (u32, u32)>,
    comm: Vec<u64>,
}

impl Observer for Shadow {
    #[inline(never)]
    fn access(&mut self, addr: u64, len: u64, write: bool, func: u32) {
        for byte in addr..addr + len {
            let granule = self.granules.entry(byte >> 2).or_insert((NO_WRITER, 0));
            if write {
                *granule = (func, granule.1 + 1);
            } else if granule.0 != func && granule.0 != NO_WRITER {
                self.comm[(func as usize * 31 + granule.0 as usize) & 1023] += 1;
            }
        }
    }
}

const NO_WRITER: u32 = u32::MAX;

/// The calibration kernel, a miniature of the profiler it calibrates:
/// `accesses` random 4- to 7-byte accesses by 64 functions in turn, each
/// through a call the optimizer may not inline into a hash-map shadow of
/// every granule touched.
fn profile_stream(accesses: usize) {
    let mut observer: Box<dyn Observer> = Box::new(Shadow {
        granules: HashMap::new(),
        comm: vec![0; 1024],
    });
    let mut state = 11;
    let mut func = 0;
    for i in 0..accesses {
        let r = xorshift(&mut state);
        if i % 97 == 0 {
            func = (r >> 40) as u32 & 63;
        }
        let addr = (u64::from(func) << 16) + (r & 0x3fff0) + ((r >> 20) & 0xfff0);
        observer.access(addr, 4 + (r >> 60) % 4, r & 3 == 0, func);
    }
    std::hint::black_box(&observer);
}

/// CPU time of the calling thread, in seconds: unlike wall time, it does
/// not count time the thread waited for a core.
#[cfg(target_os = "linux")]
fn thread_cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `struct timespec` (two `long`s
    // on Linux), and the call writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "the thread CPU clock is always readable");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// Elsewhere the kernel is timed by wall time.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_s() -> f64 {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_interpolated_between_calibrations() {
        let mut clock = RefClock::new();
        clock.marks = vec![(1.0, 1.0), (3.0, 2.0)];
        assert_eq!(clock.slowdown_at(0.5), 1.0);
        assert_eq!(clock.slowdown_at(2.0), 1.5);
        assert_eq!(clock.slowdown_at(4.0), 2.0);
        // Two wall seconds centred on t=2, at a slowdown of 1.5.
        let span = Span { from: 1.0, to: 3.0 };
        assert!((clock.ref_s(span) - 2.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn calibration_measures_a_positive_slowdown() {
        let mut clock = RefClock::new();
        clock.calibrate();
        clock.calibrate_if_due();
        assert_eq!(clock.marks.len(), 1, "a fresh calibration is not due");
        assert!(clock.slowdown_at(clock.now()) > 0.0);
    }
}

//! Observability for the Sigil profiler *itself*.
//!
//! The paper spends two figures characterizing the profiler's own
//! overhead (Fig. 4/5 slowdown, Fig. 6 memory); this crate gives the
//! reproduction the same introspective power at runtime. It has **no
//! external dependencies** (the build environment is offline) and
//! provides four pillars:
//!
//! 1. **Span tracing** ([`span`]) — RAII phase spans on thread-local
//!    span stacks, collected into a global buffer and exportable as a
//!    Chrome trace-event JSON file ([`chrome`]) loadable in
//!    `chrome://tracing` or Perfetto.
//! 2. **Metrics** ([`metrics`]) — a global registry of counters,
//!    gauges, and fixed-bucket histograms with a JSON snapshot format
//!    written alongside results.
//! 3. **Leveled logging** ([`log`] and the [`obs_warn!`], [`obs_info!`],
//!    [`obs_debug!`] macros) — a global level gate that compiles down to
//!    one relaxed atomic load when the level is off.
//! 4. **Live streaming** ([`stream`]) — a background [`MetricsStreamer`]
//!    appending delta snapshots of the metrics registry as tail-able
//!    JSONL at a fixed interval: one line per interval, so the stream is
//!    the registry's time series.
//!
//! Tracing and metrics are **disabled by default** and cost one relaxed
//! atomic load per instrumentation site until [`set_enabled`] turns them
//! on; the profiler hot path (per-byte shadow accesses) is deliberately
//! *not* instrumented — phase boundaries are.
//!
//! # Example
//!
//! ```
//! sigil_obs::set_enabled(true);
//! {
//!     let _phase = sigil_obs::span("phase");
//!     let _inner = sigil_obs::span("inner");
//!     sigil_obs::metrics::counter("work.items").add(3);
//! }
//! let trace = sigil_obs::chrome::export_chrome_trace();
//! assert!(trace.contains("\"traceEvents\""));
//! sigil_obs::set_enabled(false);
//! # sigil_obs::span::clear();
//! # sigil_obs::metrics::clear();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod log;
pub mod metrics;
pub mod span;
pub mod stream;

pub use chrome::{export_chrome_trace, write_chrome_trace};
pub use log::Level;
pub use span::{span, span_with, SpanGuard, SpanRecord};
pub use stream::MetricsStreamer;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Globally enables or disables span collection and metric recording.
///
/// Logging is gated separately by [`log::set_level`]. Flip this once at
/// startup (before instrumented work begins): handles created while
/// disabled are inert no-ops even if collection is enabled later.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether span collection and metric recording are enabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

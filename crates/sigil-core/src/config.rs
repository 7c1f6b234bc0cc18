//! Sigil profiler configuration.

use sigil_callgrind::CallgrindConfig;
use sigil_mem::EvictionPolicy;

/// Configuration of a [`crate::SigilProfiler`].
///
/// Mirrors the paper's command-line options: reuse monitoring is opt-in
/// (it roughly doubles memory usage), the shadow-memory limit is opt-in
/// (the paper needed it only for `dedup`), line-granularity mode takes a
/// cache-line size, and event recording enables the "sequence of
/// dependent events" output representation.
///
/// # Example
///
/// ```
/// use sigil_core::SigilConfig;
///
/// let config = SigilConfig::default()
///     .with_reuse_mode()
///     .with_line_mode(64)
///     .with_shadow_limit(4096);
/// assert!(config.reuse_mode);
/// assert_eq!(config.line_size, Some(64));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SigilConfig {
    /// Track per-byte reuse counts and lifetimes (paper's "re-use mode").
    pub reuse_mode: bool,
    /// Shadow whole cache lines of this size as well (paper §IV-B3).
    pub line_size: Option<u32>,
    /// Cap on resident shadow chunks; `None` = unlimited.
    pub shadow_chunk_limit: Option<usize>,
    /// Eviction policy used when the cap is hit.
    pub eviction: EvictionPolicy,
    /// Record the event-file representation (sequence of dependent
    /// events) in addition to aggregates.
    pub record_events: bool,
    /// Collect a phase-sliced communication profile with this bucket
    /// width along the phase clock (retired ops); `None` = off.
    pub phase_bucket_ops: Option<u64>,
    /// Number of shadow-memory shards replayed by parallel workers.
    /// `1` (the default) profiles serially on the dispatching thread;
    /// `N > 1` partitions the address space by chunk (`chunk_key % N`)
    /// and fans per-chunk runs out to `N` worker threads. The resulting
    /// profile is byte-identical to serial replay (see
    /// [`crate::shard`]).
    pub shards: usize,
    /// Configuration of the embedded Callgrind-like profiler.
    pub callgrind: CallgrindConfig,
}

impl Default for SigilConfig {
    fn default() -> Self {
        SigilConfig {
            reuse_mode: false,
            line_size: None,
            shadow_chunk_limit: None,
            eviction: EvictionPolicy::Fifo,
            record_events: false,
            phase_bucket_ops: None,
            shards: 1,
            callgrind: CallgrindConfig::default(),
        }
    }
}

impl SigilConfig {
    /// Enables reuse monitoring.
    #[must_use]
    pub fn with_reuse_mode(mut self) -> Self {
        self.reuse_mode = true;
        self
    }

    /// Enables line-granularity shadowing with the given line size.
    #[must_use]
    pub fn with_line_mode(mut self, line_size: u32) -> Self {
        self.line_size = Some(line_size);
        self
    }

    /// Caps resident shadow chunks (the paper's memory-limit option).
    #[must_use]
    pub fn with_shadow_limit(mut self, max_chunks: usize) -> Self {
        self.shadow_chunk_limit = Some(max_chunks);
        self
    }

    /// Selects the eviction policy used with a shadow limit.
    #[must_use]
    pub fn with_eviction(mut self, policy: EvictionPolicy) -> Self {
        self.eviction = policy;
        self
    }

    /// Enables event-file recording.
    #[must_use]
    pub fn with_events(mut self) -> Self {
        self.record_events = true;
        self
    }

    /// Enables phase-sliced profiling with the given bucket width in
    /// retired ops (`0` is clamped to `1`).
    #[must_use]
    pub fn with_phases(mut self, bucket_ops: u64) -> Self {
        self.phase_bucket_ops = Some(bucket_ops.max(1));
        self
    }

    /// Sets the number of shadow-memory shards (`0` is treated as `1`).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Overrides the embedded Callgrind configuration.
    #[must_use]
    pub fn with_callgrind(mut self, callgrind: CallgrindConfig) -> Self {
        self.callgrind = callgrind;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_baseline_mode() {
        let c = SigilConfig::default();
        assert!(!c.reuse_mode);
        assert!(c.line_size.is_none());
        assert!(c.shadow_chunk_limit.is_none());
        assert!(!c.record_events);
        assert!(c.phase_bucket_ops.is_none());
        assert_eq!(c.shards, 1, "serial by default");
    }

    #[test]
    fn zero_shards_clamps_to_serial() {
        assert_eq!(SigilConfig::default().with_shards(0).shards, 1);
        assert_eq!(SigilConfig::default().with_shards(4).shards, 4);
    }

    #[test]
    fn builders_compose() {
        let c = SigilConfig::default()
            .with_reuse_mode()
            .with_events()
            .with_shadow_limit(16)
            .with_eviction(EvictionPolicy::Lru)
            .with_line_mode(128);
        assert!(c.reuse_mode && c.record_events);
        assert_eq!(c.shadow_chunk_limit, Some(16));
        assert_eq!(c.eviction, EvictionPolicy::Lru);
        assert_eq!(c.line_size, Some(128));
        assert_eq!(c.with_phases(0).phase_bucket_ops, Some(1), "width clamps");
    }
}

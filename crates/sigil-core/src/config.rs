//! Sigil profiler configuration.

use sigil_callgrind::CallgrindConfig;
use sigil_mem::{EvictionPolicy, LineShadow};

/// Configuration of a [`crate::SigilProfiler`].
///
/// Mirrors the paper's command-line options: reuse monitoring is opt-in
/// (it stores 56 instead of 32 shadow bytes per guest byte, 1.75× the
/// memory of the default mode), the shadow-memory limit is opt-in
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
    /// [`crate::shard`]). At most [`SigilConfig::MAX_SHARDS`].
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
    /// The most shards a profiler runs. Each shard is a worker thread,
    /// so [`SigilConfig::validate`] refuses larger counts from outside.
    pub const MAX_SHARDS: usize = 256;

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

    /// Checks a configuration built from outside input — command-line
    /// options, a daemon client's HELLO — before a profiler is made
    /// from it. [`crate::SigilProfiler::new`] asserts the same bounds.
    ///
    /// # Errors
    ///
    /// Names the first setting out of range: a line size that is not a
    /// power of two in `[8, 4096]`, a shadow limit of zero chunks, or
    /// more than [`SigilConfig::MAX_SHARDS`] shards.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(line_size) = self.line_size {
            LineShadow::check_line_size(line_size)?;
        }
        if self.shadow_chunk_limit == Some(0) {
            return Err("shadow limit must be at least 1 chunk, got 0".to_owned());
        }
        if self.shards > Self::MAX_SHARDS {
            return Err(format!(
                "shard count must be at most {}, got {}",
                Self::MAX_SHARDS,
                self.shards
            ));
        }
        Ok(())
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
    fn validate_names_the_setting_out_of_range() {
        assert_eq!(SigilConfig::default().with_line_mode(64).validate(), Ok(()));
        assert_eq!(
            SigilConfig::default().with_shadow_limit(1).validate(),
            Ok(())
        );
        for bad in [0, 3, 4, 96, 8192] {
            let err = SigilConfig::default().with_line_mode(bad).validate();
            assert!(
                err.is_err_and(|e| e.contains("line size")),
                "line size {bad}"
            );
        }
        let err = SigilConfig::default().with_shadow_limit(0).validate();
        assert!(err.is_err_and(|e| e.contains("shadow limit")));
        let max = SigilConfig::MAX_SHARDS;
        assert_eq!(SigilConfig::default().with_shards(max).validate(), Ok(()));
        for bad in [max + 1, usize::MAX] {
            let err = SigilConfig::default().with_shards(bad).validate();
            assert!(err.is_err_and(|e| e.contains("shard count")), "{bad}");
        }
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

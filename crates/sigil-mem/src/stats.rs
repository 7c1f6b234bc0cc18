//! Shadow-memory footprint accounting (drives Figure 6).

use std::fmt;

use serde::{Deserialize, Serialize};

/// A snapshot of the shadow memory footprint and hot-path counters.
///
/// The paper's Figure 6 plots Sigil's memory usage per workload and input
/// size; this is the measured quantity in our reproduction. The access
/// counters additionally expose how the shadow hot path behaved: every
/// `slot_mut` is an access, served either by the one-entry MRU chunk
/// cache (`mru_hits`) or by a first-level hash probe (`table_probes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryStats {
    /// Second-level chunks currently resident (4 KiB of guest memory
    /// each).
    pub resident_chunks: u64,
    /// Shadow slots currently resident. For the profiler's
    /// [`crate::GranuleTable`]: one object per granule of every resident
    /// chunk plus four per split granule. For a [`crate::ShadowTable`]:
    /// chunks × slots per chunk.
    pub resident_slots: u64,
    /// Bytes held for resident chunks. For a [`crate::GranuleTable`]:
    /// the granule objects, the split markers and the split granules'
    /// byte slots. For a [`crate::ShadowTable`]: slots × slot size.
    pub resident_bytes: u64,
    /// Chunks evicted by the FIFO/LRU limiter so far.
    pub evicted_chunks: u64,
    /// Total shadow slot accesses (`slot_mut` calls).
    pub accesses: u64,
    /// Accesses served by the one-entry MRU chunk cache.
    pub mru_hits: u64,
    /// Accesses that fell through to the first-level hash probe.
    pub table_probes: u64,
    /// Ranged accesses (`run_mut` calls): each resolves its chunk once
    /// for a whole run of slots.
    pub runs: u64,
    /// Slots covered by ranged accesses; `run_bytes / runs` is the
    /// observed batching factor of the range API.
    pub run_bytes: u64,
}

impl MemoryStats {
    /// Resident footprint in mebibytes.
    pub fn resident_mib(&self) -> f64 {
        self.resident_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Fraction of accesses served by the MRU chunk cache, in `[0, 1]`.
    /// Zero when no accesses were recorded.
    pub fn mru_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.mru_hits as f64 / self.accesses as f64
        }
    }

    /// Average slots per ranged access — how much per-slot bookkeeping
    /// the range API amortized. Zero when no runs were recorded.
    pub fn bytes_per_run(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.run_bytes as f64 / self.runs as f64
        }
    }

    /// Publishes the snapshot into the global [`sigil_obs`] metrics
    /// registry under `<prefix>.*` names (e.g. `shadow.accesses`,
    /// `shadow.mru_hits`, `shadow.table_probes`, `shadow.evicted_chunks`).
    ///
    /// The hot-path counters are maintained locally by the shadow table
    /// for speed; this is the one-shot export at end of run. A no-op
    /// (one atomic load) while observability is disabled.
    pub fn export_metrics(&self, prefix: &str) {
        if !sigil_obs::is_enabled() {
            return;
        }
        use sigil_obs::metrics::{set_counter, set_gauge};
        set_counter(&format!("{prefix}.accesses"), self.accesses);
        set_counter(&format!("{prefix}.mru_hits"), self.mru_hits);
        set_counter(&format!("{prefix}.table_probes"), self.table_probes);
        set_counter(&format!("{prefix}.evicted_chunks"), self.evicted_chunks);
        set_counter(&format!("{prefix}.resident_chunks"), self.resident_chunks);
        set_counter(&format!("{prefix}.resident_bytes"), self.resident_bytes);
        set_counter(&format!("{prefix}.runs"), self.runs);
        set_counter(&format!("{prefix}.run_bytes"), self.run_bytes);
        set_gauge(&format!("{prefix}.mru_hit_rate"), self.mru_hit_rate());
        set_gauge(&format!("{prefix}.bytes_per_run"), self.bytes_per_run());
        set_gauge(&format!("{prefix}.resident_mib"), self.resident_mib());
    }

    /// Component-wise sum of two snapshots (e.g. byte table + line table).
    #[must_use]
    pub fn combined(self, other: MemoryStats) -> MemoryStats {
        MemoryStats {
            resident_chunks: self.resident_chunks + other.resident_chunks,
            resident_slots: self.resident_slots + other.resident_slots,
            resident_bytes: self.resident_bytes + other.resident_bytes,
            evicted_chunks: self.evicted_chunks + other.evicted_chunks,
            accesses: self.accesses + other.accesses,
            mru_hits: self.mru_hits + other.mru_hits,
            table_probes: self.table_probes + other.table_probes,
            runs: self.runs + other.runs,
            run_bytes: self.run_bytes + other.run_bytes,
        }
    }
}

impl fmt::Display for MemoryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} MiB resident ({} chunks, {} evicted, {:.1}% MRU hits)",
            self.resident_mib(),
            self.resident_chunks,
            self.evicted_chunks,
            self.mru_hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mib_conversion() {
        let stats = MemoryStats {
            resident_bytes: 2 * 1024 * 1024,
            ..MemoryStats::default()
        };
        assert!((stats.resident_mib() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn combined_adds_componentwise() {
        let a = MemoryStats {
            resident_chunks: 1,
            resident_slots: 10,
            resident_bytes: 100,
            evicted_chunks: 2,
            accesses: 50,
            mru_hits: 40,
            table_probes: 10,
            runs: 5,
            run_bytes: 50,
        };
        let b = MemoryStats {
            resident_chunks: 3,
            resident_slots: 30,
            resident_bytes: 300,
            evicted_chunks: 4,
            accesses: 8,
            mru_hits: 2,
            table_probes: 6,
            runs: 1,
            run_bytes: 8,
        };
        let c = a.combined(b);
        assert_eq!(c.resident_chunks, 4);
        assert_eq!(c.resident_slots, 40);
        assert_eq!(c.resident_bytes, 400);
        assert_eq!(c.evicted_chunks, 6);
        assert_eq!(c.accesses, 58);
        assert_eq!(c.mru_hits, 42);
        assert_eq!(c.table_probes, 16);
        assert_eq!(c.runs, 6);
        assert_eq!(c.run_bytes, 58);
    }

    #[test]
    fn hit_rate_handles_zero_accesses() {
        assert_eq!(MemoryStats::default().mru_hit_rate(), 0.0);
        let stats = MemoryStats {
            accesses: 8,
            mru_hits: 6,
            table_probes: 2,
            ..MemoryStats::default()
        };
        assert!((stats.mru_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn export_metrics_publishes_counters_when_enabled() {
        let stats = MemoryStats {
            resident_chunks: 1,
            resident_slots: 4096,
            resident_bytes: 4096,
            evicted_chunks: 2,
            accesses: 10,
            mru_hits: 7,
            table_probes: 3,
            runs: 4,
            run_bytes: 10,
        };
        // Disabled: nothing registered under this prefix.
        sigil_obs::set_enabled(false);
        stats.export_metrics("test_shadow_off");
        assert!(!sigil_obs::metrics::snapshot()
            .keys()
            .any(|k| k.starts_with("test_shadow_off")));
        // Enabled: every counter appears with its exact value.
        sigil_obs::set_enabled(true);
        stats.export_metrics("test_shadow");
        sigil_obs::set_enabled(false);
        let snap = sigil_obs::metrics::snapshot();
        use sigil_obs::metrics::MetricValue;
        assert_eq!(snap["test_shadow.accesses"], MetricValue::Counter(10));
        assert_eq!(snap["test_shadow.mru_hits"], MetricValue::Counter(7));
        assert_eq!(snap["test_shadow.table_probes"], MetricValue::Counter(3));
        assert_eq!(snap["test_shadow.evicted_chunks"], MetricValue::Counter(2));
        assert_eq!(snap["test_shadow.runs"], MetricValue::Counter(4));
        assert_eq!(snap["test_shadow.run_bytes"], MetricValue::Counter(10));
        assert_eq!(snap["test_shadow.mru_hit_rate"], MetricValue::Gauge(0.7));
        assert_eq!(snap["test_shadow.bytes_per_run"], MetricValue::Gauge(2.5));
    }

    #[test]
    fn display_mentions_residency() {
        let stats = MemoryStats::default();
        assert!(stats.to_string().contains("resident"));
    }
}

//! Cache-line-granularity shadowing (paper §IV-B3, Figure 12).

use serde::{Deserialize, Serialize};
use sigil_trace::{Addr, MemAccess, Timestamp};

use crate::stats::MemoryStats;
use crate::table::ShadowTable;

/// Per-line reuse record.
///
/// In line mode the paper prints "re-use counts and lifetime for every
/// block touched by the program, instead of aggregating costs by
/// function".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineStats {
    /// Total accesses (reads + writes) that touched the line.
    pub accesses: u64,
    /// Timestamp of the first access.
    pub first_access: Timestamp,
    /// Timestamp of the most recent access.
    pub last_access: Timestamp,
}

impl LineStats {
    /// Re-use count: accesses beyond the first.
    pub const fn reuse_count(&self) -> u64 {
        self.accesses.saturating_sub(1)
    }

    /// Re-use lifetime: retired-op span between first and last access.
    pub const fn lifetime(&self) -> u64 {
        self.last_access.delta(self.first_access)
    }
}

/// Shadow state at cache-line granularity.
///
/// "Sigil can also capture line-level re-use when configured with the
/// cache line size. In this mode, Sigil shadows every line in memory
/// rather than every byte."
///
/// # Example
///
/// ```
/// use sigil_mem::LineShadow;
/// use sigil_trace::{MemAccess, Timestamp};
///
/// let mut lines = LineShadow::new(64);
/// lines.record_access(MemAccess::new(0, 4), Timestamp::from_raw(0));
/// lines.record_access(MemAccess::new(60, 8), Timestamp::from_raw(10)); // spans 2 lines
/// assert_eq!(lines.touched_lines(), 2);
/// ```
#[derive(Debug)]
pub struct LineShadow {
    table: ShadowTable<LineStats>,
    line_shift: u32,
}

impl LineShadow {
    /// Creates a line shadow for `line_size`-byte cache lines.
    ///
    /// # Panics
    ///
    /// Panics unless `line_size` is a power of two in `[8, 4096]`.
    pub fn new(line_size: u32) -> Self {
        if let Err(message) = Self::check_line_size(line_size) {
            panic!("{message}");
        }
        LineShadow {
            table: ShadowTable::new(),
            line_shift: line_size.trailing_zeros(),
        }
    }

    /// Checks that `line_size` is one a line shadow supports: a power of
    /// two in `[8, 4096]`.
    ///
    /// # Errors
    ///
    /// Says which sizes are supported and which was given.
    pub fn check_line_size(line_size: u32) -> Result<(), String> {
        if line_size.is_power_of_two() && (8..=4096).contains(&line_size) {
            Ok(())
        } else {
            Err(format!(
                "line size must be a power of two between 8 and 4096, got {line_size}"
            ))
        }
    }

    /// Configured line size in bytes.
    pub fn line_size(&self) -> u32 {
        1 << self.line_shift
    }

    /// Line index containing byte address `addr`.
    pub fn line_of(&self, addr: Addr) -> u64 {
        addr >> self.line_shift
    }

    /// Records one access; every line the byte range overlaps is touched
    /// once.
    pub fn record_access(&mut self, access: MemAccess, now: Timestamp) {
        let first_line = self.line_of(access.addr);
        let last_line = self.line_of(access.end().saturating_sub(1));
        for line in first_line..=last_line {
            let stats = self.table.slot_mut(line);
            if stats.accesses == 0 {
                stats.first_access = now;
            }
            stats.accesses += 1;
            stats.last_access = now;
        }
    }

    /// Number of distinct lines touched so far.
    pub fn touched_lines(&self) -> u64 {
        self.table.iter().filter(|(_, s)| s.accesses > 0).count() as u64
    }

    /// Iterates over `(line_index, stats)` of touched lines.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &LineStats)> {
        self.table.iter().filter(|(_, s)| s.accesses > 0)
    }

    /// Stats for one line, if touched.
    pub fn line_stats(&self, line: u64) -> Option<&LineStats> {
        self.table.get(line).filter(|s| s.accesses > 0)
    }

    /// Shadow footprint of the line table.
    pub fn memory_stats(&self) -> MemoryStats {
        self.table.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_within_one_line_touches_one_line() {
        let mut ls = LineShadow::new(64);
        ls.record_access(MemAccess::new(10, 4), Timestamp::from_raw(1));
        assert_eq!(ls.touched_lines(), 1);
        let stats = ls.line_stats(0).expect("line 0 touched");
        assert_eq!(stats.accesses, 1);
        assert_eq!(stats.reuse_count(), 0);
    }

    #[test]
    fn straddling_access_touches_both_lines() {
        let mut ls = LineShadow::new(64);
        ls.record_access(MemAccess::new(62, 4), Timestamp::from_raw(0));
        assert_eq!(ls.touched_lines(), 2);
        assert!(ls.line_stats(0).is_some());
        assert!(ls.line_stats(1).is_some());
    }

    #[test]
    fn reuse_count_and_lifetime_accumulate() {
        let mut ls = LineShadow::new(64);
        ls.record_access(MemAccess::new(0, 8), Timestamp::from_raw(100));
        ls.record_access(MemAccess::new(8, 8), Timestamp::from_raw(150));
        ls.record_access(MemAccess::new(16, 8), Timestamp::from_raw(400));
        let stats = ls.line_stats(0).expect("touched");
        assert_eq!(stats.accesses, 3);
        assert_eq!(stats.reuse_count(), 2);
        assert_eq!(stats.lifetime(), 300);
    }

    #[test]
    fn line_of_uses_configured_size() {
        let ls = LineShadow::new(128);
        assert_eq!(ls.line_size(), 128);
        assert_eq!(ls.line_of(127), 0);
        assert_eq!(ls.line_of(128), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_size_rejected() {
        let _ = LineShadow::new(48);
    }

    #[test]
    fn iter_skips_untouched_lines() {
        let mut ls = LineShadow::new(64);
        ls.record_access(MemAccess::new(0, 1), Timestamp::ZERO);
        // Chunk allocation creates many default slots; only touched ones
        // must be reported.
        assert_eq!(ls.iter().count(), 1);
    }
}

//! Reuse-mode aggregation: per-context reuse counts and lifetime
//! histograms (paper §IV-B, Figures 8–11).

use serde::{Deserialize, Serialize};
use sigil_callgrind::ContextId;

/// The paper's Figure 8 reuse-count buckets for data bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReuseBucket {
    /// Written once, read exactly once per consuming function call.
    Zero,
    /// Re-used 1–9 times.
    OneToNine,
    /// Re-used more than 9 times.
    MoreThanNine,
}

impl ReuseBucket {
    /// Buckets a reuse count.
    pub const fn of(reuse_count: u64) -> Self {
        match reuse_count {
            0 => ReuseBucket::Zero,
            1..=9 => ReuseBucket::OneToNine,
            _ => ReuseBucket::MoreThanNine,
        }
    }

    /// Label used in figure output.
    pub const fn label(self) -> &'static str {
        match self {
            ReuseBucket::Zero => "0",
            ReuseBucket::OneToNine => "1-9",
            ReuseBucket::MoreThanNine => ">9",
        }
    }
}

/// A histogram of reuse lifetimes with the paper's bin size of 1000
/// retired instructions (Figures 10 and 11).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LifetimeHistogram {
    /// The histogram bin width in retired ops.
    pub bin_size: u64,
    /// `bins[i]` counts records whose lifetime fell in
    /// `[i*bin_size, (i+1)*bin_size)`. Sparse representation:
    /// `(bin_index, count)` sorted by bin index.
    bins: Vec<(u64, u64)>,
}

impl LifetimeHistogram {
    /// The paper's bin size.
    pub const PAPER_BIN_SIZE: u64 = 1000;

    /// Creates an empty histogram with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin_size` is zero.
    pub fn new(bin_size: u64) -> Self {
        assert!(bin_size > 0, "bin size must be positive");
        LifetimeHistogram {
            bin_size,
            bins: Vec::new(),
        }
    }

    /// Records `count` data bytes whose reuse lifetime was `lifetime`.
    pub fn record(&mut self, lifetime: u64, count: u64) {
        let bin = lifetime / self.bin_size;
        match self.bins.binary_search_by_key(&bin, |&(b, _)| b) {
            Ok(i) => self.bins[i].1 += count,
            Err(i) => self.bins.insert(i, (bin, count)),
        }
    }

    /// Iterates `(bin_start_lifetime, count)` in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bins.iter().map(|&(b, c)| (b * self.bin_size, c))
    }

    /// Total records across all bins.
    pub fn total(&self) -> u64 {
        self.bins.iter().map(|&(_, c)| c).sum()
    }

    /// Number of non-empty bins.
    pub fn nonempty_bins(&self) -> usize {
        self.bins.len()
    }

    /// The largest bin-start lifetime with any records (tail length).
    pub fn max_lifetime_bin(&self) -> Option<u64> {
        self.bins.last().map(|&(b, _)| b * self.bin_size)
    }
}

/// Per-context reuse aggregates.
///
/// Each record corresponds to one (byte, consuming call) pair, flushed
/// when the byte is overwritten, read by a different call, or at the end
/// of the run — implementing the paper's definition: "re-use lifetime
/// \[is\] the time between the first and last read of a single data byte
/// within a function call".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContextReuse {
    /// The context these aggregates belong to.
    pub ctx: ContextId,
    /// Records with zero reuse (single read).
    pub zero_reuse_bytes: u64,
    /// Records re-used 1–9 times.
    pub low_reuse_bytes: u64,
    /// Records re-used more than 9 times.
    pub high_reuse_bytes: u64,
    /// Sum of reuse counts over all records.
    pub total_reuse_count: u64,
    /// Sum of lifetimes over *reused* records (reuse count ≥ 1).
    pub reused_lifetime_sum: u64,
    /// Number of reused records.
    pub reused_bytes: u64,
    /// Lifetime histogram over reused records (paper bin size 1000).
    pub histogram: LifetimeHistogram,
}

impl ContextReuse {
    /// Creates empty aggregates for `ctx`.
    pub fn new(ctx: ContextId) -> Self {
        ContextReuse {
            ctx,
            zero_reuse_bytes: 0,
            low_reuse_bytes: 0,
            high_reuse_bytes: 0,
            total_reuse_count: 0,
            reused_lifetime_sum: 0,
            reused_bytes: 0,
            histogram: LifetimeHistogram::new(LifetimeHistogram::PAPER_BIN_SIZE),
        }
    }

    /// Folds in `bytes` flushed (byte, call) records that share one
    /// reuse count and lifetime.
    pub fn record(&mut self, reuse_count: u64, lifetime: u64, bytes: u64) {
        match ReuseBucket::of(reuse_count) {
            ReuseBucket::Zero => self.zero_reuse_bytes += bytes,
            ReuseBucket::OneToNine => self.low_reuse_bytes += bytes,
            ReuseBucket::MoreThanNine => self.high_reuse_bytes += bytes,
        }
        self.total_reuse_count += reuse_count * bytes;
        if reuse_count >= 1 {
            self.reused_bytes += bytes;
            self.reused_lifetime_sum += lifetime * bytes;
            self.histogram.record(lifetime, bytes);
        }
    }

    /// Folds `other`'s aggregates into `self`, component-wise.
    ///
    /// Merging is commutative and associative (sums plus a sparse
    /// histogram whose bins accumulate independently), so per-shard
    /// fragments can be folded in any order with an identical result —
    /// the property the shard-merge proptests pin.
    pub fn merge(&mut self, other: &ContextReuse) {
        debug_assert_eq!(self.ctx, other.ctx, "merging rows of different contexts");
        self.zero_reuse_bytes += other.zero_reuse_bytes;
        self.low_reuse_bytes += other.low_reuse_bytes;
        self.high_reuse_bytes += other.high_reuse_bytes;
        self.total_reuse_count += other.total_reuse_count;
        self.reused_lifetime_sum += other.reused_lifetime_sum;
        self.reused_bytes += other.reused_bytes;
        for (lifetime, count) in other.histogram.iter() {
            self.histogram.record(lifetime, count);
        }
    }

    /// Total records (data bytes, in the paper's Fig. 8 sense).
    pub fn total_bytes(&self) -> u64 {
        self.zero_reuse_bytes + self.low_reuse_bytes + self.high_reuse_bytes
    }

    /// Average lifetime of a reused byte (Figure 9's metric); 0 when no
    /// byte was reused.
    pub fn avg_reused_lifetime(&self) -> f64 {
        if self.reused_bytes == 0 {
            0.0
        } else {
            self.reused_lifetime_sum as f64 / self.reused_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_match_paper_ranges() {
        assert_eq!(ReuseBucket::of(0), ReuseBucket::Zero);
        assert_eq!(ReuseBucket::of(1), ReuseBucket::OneToNine);
        assert_eq!(ReuseBucket::of(9), ReuseBucket::OneToNine);
        assert_eq!(ReuseBucket::of(10), ReuseBucket::MoreThanNine);
    }

    #[test]
    fn histogram_bins_by_thousands() {
        let mut h = LifetimeHistogram::new(1000);
        h.record(0, 1);
        h.record(999, 2);
        h.record(1000, 3);
        h.record(5500, 4);
        let bins: Vec<_> = h.iter().collect();
        assert_eq!(bins, vec![(0, 3), (1000, 3), (5000, 4)]);
        assert_eq!(h.total(), 10);
        assert_eq!(h.max_lifetime_bin(), Some(5000));
        assert_eq!(h.nonempty_bins(), 3);
    }

    #[test]
    fn context_reuse_aggregates_records() {
        let mut r = ContextReuse::new(ContextId(1));
        r.record(0, 0, 1); // single read
        r.record(3, 500, 1); // reused
        r.record(20, 12_000, 1); // heavily reused
        assert_eq!(r.zero_reuse_bytes, 1);
        assert_eq!(r.low_reuse_bytes, 1);
        assert_eq!(r.high_reuse_bytes, 1);
        assert_eq!(r.total_bytes(), 3);
        assert_eq!(r.reused_bytes, 2);
        assert!((r.avg_reused_lifetime() - 6250.0).abs() < 1e-9);
        assert_eq!(r.histogram.total(), 2);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = ContextReuse::new(ContextId(2));
        a.record(0, 0, 1);
        a.record(5, 1500, 1);
        let mut b = ContextReuse::new(ContextId(2));
        b.record(12, 700, 1);
        b.record(1, 1600, 1);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total_bytes(), 4);
        assert_eq!(ab.histogram.total(), 3);
    }

    #[test]
    fn avg_lifetime_zero_without_reuse() {
        let r = ContextReuse::new(ContextId(0));
        assert_eq!(r.avg_reused_lifetime(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bin size must be positive")]
    fn zero_bin_size_rejected() {
        let _ = LifetimeHistogram::new(0);
    }
}

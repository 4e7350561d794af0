//! Scan-path counters behind the `scan.*` metrics source.
//!
//! The two-phase late-materialization scan (DESIGN.md §6h) makes two
//! per-group decisions worth observing: whether the group was pruned
//! before any I/O (zone maps or the partition-tag fallback), and whether
//! its projection pages were skipped because the predicate mask came up
//! all-false. Each skipped page is one data-page GET that never reached
//! the object store — the request-economy win the paper's zone-map story
//! (§1) is about. Stores backed by the full cloud stack hand one shared
//! [`ScanStats`] to every scan via
//! [`PageStore::scan_stats`](crate::store::PageStore::scan_stats).

use std::sync::atomic::Ordering;

iq_common::counters! {
    /// Monotone counters accumulated across every scan through one store.
    ///
    /// All loads/stores are `Relaxed`: the counters are independent
    /// tallies, never used to synchronize.
    pub struct ScanStats {
        /// Row groups examined by the pruning front end.
        sum groups_considered,
        /// Groups pruned by a per-column zone entry.
        sum groups_zone_pruned,
        /// Groups pruned by the partition-tag fallback (zone was `None`).
        sum groups_partition_pruned,
        /// Surviving groups whose predicate mask came up all-false, so
        /// their projection pages were never read.
        sum groups_empty_mask,
        /// Surviving groups with at least one matching row (projection
        /// pages materialized).
        sum groups_materialized,
        /// Data pages demand-read because a predicate needed them.
        sum predicate_pages_read,
        /// Data pages demand-read for projection only.
        sum projection_pages_read,
        /// Projection pages skipped by all-false masks
        /// (late-materialization GETs saved).
        sum projection_pages_skipped,
        /// Pages (predicate and projection) never touched because their
        /// whole group was pruned.
        sum pruned_pages_skipped,
        /// String columns evaluated in the dictionary code domain, summed
        /// over scans.
        sum dict_filter_columns,
    }
    /// Point-in-time copy of [`ScanStats`].
    pub struct ScanStatsSnapshot;
}

impl ScanStats {
    /// Total data-page GETs avoided: whole-group pruning plus
    /// late-materialization skips.
    pub fn gets_saved(&self) -> u64 {
        self.pruned_pages_skipped.load(Ordering::Relaxed)
            + self.projection_pages_skipped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = ScanStats::default();
        s.pruned_pages_skipped.fetch_add(4, Ordering::Relaxed);
        s.projection_pages_skipped.fetch_add(3, Ordering::Relaxed);
        s.projection_pages_read.fetch_add(2, Ordering::Relaxed);
        assert_eq!(s.snapshot().projection_pages_read, 2);
        assert_eq!(s.gets_saved(), 7);
    }
}

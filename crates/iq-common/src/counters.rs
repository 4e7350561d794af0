//! Declarative counter sets.
//!
//! Every layer exports its activity as a set of relaxed atomic counters.
//! One [`counters!`](macro@crate::counters) declaration names each counter of a
//! set once, with its kind, and generates:
//!
//! * the set struct, whose counters are `pub` [`AtomicU64`]s (or a
//!   [`Histogram`]), so every update stays one relaxed `fetch_add` /
//!   `fetch_max` on the field itself, plus its `Default`;
//! * a plain snapshot struct with one `u64` (or `[u64; N]`) per counter,
//!   the set's `snapshot()`, and the snapshot's `since(base)` and
//!   `metric_rows()`, the `(name, MetricValue)` rows a
//!   [`MetricsRegistry`](crate::MetricsRegistry) source returns;
//! * for a set declared `with epoch`, `begin_epoch()`, `epoch()` and
//!   `lifetime_snapshot()`: `snapshot()` then reports what accumulated
//!   since the last `begin_epoch`.
//!
//! Kinds:
//!
//! * `sum` — a monotone tally; `since` subtracts the base.
//! * `max` — a high-water mark; `since` keeps the current value, and
//!   `begin_epoch` restarts it from 0, so an epoch reports its own peak.
//! * `gauge` — a level that moves both ways or is overwritten; reported
//!   as is.
//! * `hist [name <= bound, …; overflow]` — a fixed-bucket [`Histogram`]
//!   with one named bucket per inclusive upper bound plus a named overflow
//!   bucket; `since` subtracts bucket by bucket.
//!
//! A counter followed by `(unexported)` stays in the set and its snapshot
//! but is left out of `metric_rows()`. `GcStats` (in `iq-txn`) is a
//! declaration that uses a histogram; `BufferStats` (in `iq-buffer`) one
//! with an epoch.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Fixed-bucket histogram of `N` relaxed atomic counts. Bucket `i < N - 1`
/// counts values in `(bounds[i - 1], bounds[i]]`; the last bucket counts
/// everything above the last bound.
#[derive(Debug)]
pub struct Histogram<const N: usize> {
    bounds: &'static [u64],
    buckets: [AtomicU64; N],
}

impl<const N: usize> Histogram<N> {
    /// Zeroed histogram over ascending inclusive upper `bounds`
    /// (`N - 1` of them).
    pub fn new(bounds: &'static [u64]) -> Self {
        assert_eq!(
            bounds.len() + 1,
            N,
            "a histogram has one bucket per bound plus overflow"
        );
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Self {
            bounds,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Index of the bucket `value` falls into.
    fn bucket(&self, value: u64) -> usize {
        self.bounds.partition_point(|&b| b < value)
    }

    /// Count one observation of `value`.
    pub fn record(&self, value: u64) {
        self.buckets[self.bucket(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Current count of every bucket.
    pub fn load(&self) -> [u64; N] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// Baseline state of a counter set declared `with epoch`: the totals at
/// the last `begin_epoch` and how many epochs have begun.
#[derive(Debug, Default)]
pub struct Epoch<S> {
    baseline: Mutex<S>,
    count: AtomicU64,
}

impl<S: Copy> Epoch<S> {
    /// Start an epoch whose baseline is `totals()`, evaluated under the
    /// baseline lock so concurrent snapshots never see a half-set baseline.
    pub fn begin(&self, totals: impl FnOnce() -> S) {
        let mut base = self.baseline.lock();
        *base = totals();
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Totals at the start of the current epoch.
    pub fn baseline(&self) -> S {
        *self.baseline.lock()
    }

    /// Epochs begun so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// Declare a counter set once; see the [module docs](mod@crate::counters) for
/// the syntax and what it generates.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(with $epoch:ident)? {
            $(
                $(#[$fmeta:meta])*
                $kind:ident $field:ident
                $([ $($bucket:ident <= $bound:literal),+ ; $over:ident ])?
                $(($flag:ident))?
            ),* $(,)?
        }
        $(#[$smeta:meta])*
        pub struct $snap:ident;
    ) => {
        $(#[$meta])*
        #[derive(Debug)]
        $vis struct $name {
            $(
                $(#[$fmeta])*
                pub $field: $crate::__counter!(@storage $kind $([$($bucket),+ ; $over])?),
            )*
            $($epoch: $crate::counters::Epoch<$snap>,)?
        }

        impl ::std::default::Default for $name {
            fn default() -> Self {
                Self {
                    $($field: $crate::__counter!(@new $kind $([$($bound),+])?),)*
                    $($epoch: $crate::counters::Epoch::default(),)?
                }
            }
        }

        $(#[$smeta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $snap {
            $(
                $(#[$fmeta])*
                pub $field: $crate::__counter!(@value $kind $([$($bucket),+ ; $over])?),
            )*
        }

        impl $snap {
            /// The exported counters as metric rows, in declaration order.
            #[allow(clippy::vec_init_then_push)]
            pub fn metric_rows(&self) -> ::std::vec::Vec<(::std::string::String, $crate::MetricValue)> {
                let mut rows = ::std::vec::Vec::new();
                $($crate::__counter!(@row rows, self.$field, $field $([$($bucket),+ ; $over])? $(($flag))?);)*
                rows
            }

            /// What accumulated since `base`, an earlier snapshot of the
            /// same set: `sum` counters and histogram buckets subtract it,
            /// `max` and `gauge` counters keep their current value.
            pub fn since(mut self, base: &Self) -> Self {
                $($crate::__counter!(@since $kind self.$field, base.$field);)*
                self
            }
        }

        impl $name {
            fn totals(&self) -> $snap {
                $snap {
                    $($field: $crate::__counter!(@load $kind self.$field),)*
                }
            }

            /// Counters accumulated so far (in the current epoch, for a set
            /// with one).
            pub fn snapshot(&self) -> $snap {
                let snap = self.totals();
                $(let snap = snap.since(&self.$epoch.baseline());)?
                snap
            }

            #[allow(dead_code)]
            fn restart_max(&self) {
                $($crate::__counter!(@restart $kind self.$field);)*
            }

            $(
                /// Start a new epoch: current totals become the baseline
                /// that [`Self::snapshot`] subtracts, and every `max`
                /// counter restarts from zero.
                pub fn begin_epoch(&self) {
                    self.$epoch.begin(|| {
                        self.restart_max();
                        self.totals()
                    });
                }

                /// Epochs begun so far (0 until the first
                /// [`Self::begin_epoch`]).
                pub fn epoch(&self) -> u64 {
                    self.$epoch.count()
                }

                /// Counters over the whole lifetime, epoch boundaries
                /// ignored (a `max` counter reports the current epoch's
                /// peak).
                pub fn lifetime_snapshot(&self) -> $snap {
                    self.totals()
                }
            )?
        }
    };
}

/// Per-kind expansion helpers for [`counters!`]; not a public interface.
#[doc(hidden)]
#[macro_export]
macro_rules! __counter {
    (@storage hist [$($bucket:ident),+ ; $over:ident]) => {
        $crate::counters::Histogram<{ [$(stringify!($bucket),)+ stringify!($over)].len() }>
    };
    (@storage sum) => { ::std::sync::atomic::AtomicU64 };
    (@storage max) => { ::std::sync::atomic::AtomicU64 };
    (@storage gauge) => { ::std::sync::atomic::AtomicU64 };

    (@value hist [$($bucket:ident),+ ; $over:ident]) => {
        [u64; [$(stringify!($bucket),)+ stringify!($over)].len()]
    };
    (@value $kind:ident) => { u64 };

    (@new hist [$($bound:literal),+]) => { $crate::counters::Histogram::new(&[$($bound),+]) };
    (@new $kind:ident) => { ::std::sync::atomic::AtomicU64::new(0) };

    (@load hist $counter:expr) => { $counter.load() };
    (@load $kind:ident $counter:expr) => {
        $counter.load(::std::sync::atomic::Ordering::Relaxed)
    };

    (@since sum $cur:expr, $base:expr) => { $cur = $cur.saturating_sub($base) };
    (@since hist $cur:expr, $base:expr) => {
        for (c, b) in $cur.iter_mut().zip($base) {
            *c = c.saturating_sub(b);
        }
    };
    (@since $kind:ident $cur:expr, $base:expr) => {};

    (@restart max $counter:expr) => {
        $counter.store(0, ::std::sync::atomic::Ordering::Relaxed)
    };
    (@restart $kind:ident $counter:expr) => {};

    (@row $rows:ident, $value:expr, $field:ident (unexported)) => {};
    (@row $rows:ident, $value:expr, $field:ident [$($bucket:ident),+ ; $over:ident]) => {
        for (name, n) in [$(stringify!($bucket),)+ stringify!($over)].into_iter().zip($value) {
            $rows.push((name.to_string(), $crate::MetricValue::U64(n)));
        }
    };
    (@row $rows:ident, $value:expr, $field:ident) => {
        $rows.push((stringify!($field).to_string(), $crate::MetricValue::U64($value)));
    };
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering::Relaxed;

    use crate::MetricValue;

    crate::counters! {
        /// A set exercising every kind, with an epoch.
        pub struct Probe with epoch {
            /// A tally.
            sum hits,
            /// A high-water mark.
            max peak,
            /// A level.
            gauge level,
            /// A tally kept out of the export.
            sum hidden (unexported),
            /// Sizes.
            hist sizes [size_le_1 <= 1, size_le_4 <= 4, size_le_16 <= 16, size_le_64 <= 64; size_gt_64],
        }
        /// Snapshot of [`Probe`].
        pub struct ProbeSnapshot;
    }

    crate::counters! {
        /// A set without an epoch.
        pub struct Plain {
            /// Batches.
            hist batches [b_le_1 <= 1, b_le_10 <= 10, b_le_100 <= 100, b_le_1000 <= 1000; b_gt_1000],
        }
        /// Snapshot of [`Plain`].
        pub struct PlainSnapshot;
    }

    #[test]
    fn sum_counters_subtract_the_epoch_baseline() {
        let p = Probe::default();
        p.hits.fetch_add(5, Relaxed);
        p.sizes.record(3);
        assert_eq!(p.epoch(), 0);
        p.begin_epoch();
        assert_eq!(p.epoch(), 1);
        assert_eq!(p.snapshot().hits, 0);
        assert_eq!(p.snapshot().sizes, [0; 5]);
        p.hits.fetch_add(2, Relaxed);
        p.sizes.record(3);
        p.sizes.record(100);
        let s = p.snapshot();
        assert_eq!(s.hits, 2);
        assert_eq!(s.sizes, [0, 1, 0, 0, 1]);
    }

    #[test]
    fn max_counters_restart_at_begin_epoch() {
        let p = Probe::default();
        p.peak.fetch_max(9, Relaxed);
        p.begin_epoch();
        assert_eq!(p.snapshot().peak, 0);
        p.peak.fetch_max(4, Relaxed);
        assert_eq!(p.snapshot().peak, 4);
        // The lifetime view reports the current epoch's peak too.
        assert_eq!(p.lifetime_snapshot().peak, 4);
    }

    #[test]
    fn gauges_ignore_epochs() {
        let p = Probe::default();
        p.level.fetch_add(3, Relaxed);
        p.begin_epoch();
        p.level.fetch_sub(1, Relaxed);
        assert_eq!(p.snapshot().level, 2);
    }

    #[test]
    fn lifetime_snapshot_ignores_epochs() {
        let p = Probe::default();
        p.hits.fetch_add(5, Relaxed);
        p.sizes.record(1);
        p.begin_epoch();
        p.hits.fetch_add(2, Relaxed);
        p.begin_epoch();
        p.hits.fetch_add(1, Relaxed);
        let life = p.lifetime_snapshot();
        assert_eq!(life.hits, 8);
        assert_eq!(life.sizes, [1, 0, 0, 0, 0]);
        assert_eq!(p.snapshot().hits, 1);
        // Exports are lifetime totals.
        assert!(p
            .lifetime_snapshot()
            .metric_rows()
            .contains(&("hits".to_string(), MetricValue::U64(8))));
    }

    #[test]
    fn histogram_buckets_split_at_inclusive_bounds() {
        let p = Probe::default();
        for (v, bucket) in [
            (0, 0),
            (1, 0),
            (2, 1),
            (4, 1),
            (5, 2),
            (16, 2),
            (17, 3),
            (64, 3),
            (65, 4),
        ] {
            assert_eq!(p.sizes.bucket(v), bucket, "value {v}");
        }
        let q = Plain::default();
        for (v, bucket) in [
            (1, 0),
            (2, 1),
            (10, 1),
            (11, 2),
            (100, 2),
            (101, 3),
            (1000, 3),
            (1001, 4),
            (u64::MAX, 4),
        ] {
            assert_eq!(q.batches.bucket(v), bucket, "value {v}");
        }
        q.batches.record(10);
        let before = q.snapshot();
        q.batches.record(1001);
        assert_eq!(q.snapshot().batches, [0, 1, 0, 0, 1]);
        assert_eq!(q.snapshot().since(&before).batches, [0, 0, 0, 0, 1]);
    }

    #[test]
    fn metric_rows_yield_exactly_the_declared_names() {
        let p = Probe::default();
        p.hidden.fetch_add(1, Relaxed);
        let names: Vec<String> = p
            .snapshot()
            .metric_rows()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            names,
            [
                "hits",
                "peak",
                "level",
                "size_le_1",
                "size_le_4",
                "size_le_16",
                "size_le_64",
                "size_gt_64"
            ]
        );
        let plain: Vec<String> = Plain::default()
            .snapshot()
            .metric_rows()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            plain,
            ["b_le_1", "b_le_10", "b_le_100", "b_le_1000", "b_gt_1000"]
        );
        // Unexported counters stay in the snapshot.
        assert_eq!(p.snapshot().hidden, 1);
    }
}

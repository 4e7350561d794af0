//! The submission/completion I/O core.
//!
//! Parallel I/O follows an io_uring-shaped model rather than a
//! thread-per-op worker pool: callers *submit* a batch of operations
//! and then await their completions, so the number of operations in
//! flight is bounded by how much work was submitted — not by how many
//! threads happen to be blocked inside the backend. Two pieces implement
//! that model:
//!
//! * [`IoCore`] (this module) — the caller-side fan-out. It owns the
//!   submission accounting: all `n` tasks of a batch are counted in
//!   flight the moment the batch is submitted, and each completion
//!   retires one. Execution itself is carried by a small scoped worker
//!   set (the completion reactor's execution lanes), but the *depth*
//!   reported by [`IoStats`] is submission depth, which is the quantity
//!   the paper's prefetch/scan pipelines care about.
//! * `IoReactor` (in `iq-objectstore`) — the backend-side completion
//!   reactor. Every object-store request becomes a descriptor on a
//!   single submission queue and completions are delivered in
//!   virtual-clock order (tie-broken by submission sequence), which is
//!   what keeps the golden Table-1 trace byte-identical.
//!
//! Both sides feed one shared [`IoStats`], exported as the `io.*`
//! metrics source.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

crate::counters! {
    /// Shared counters for the submission/completion core — the `io.*`
    /// metrics source. One instance per database, fed from both ends of the
    /// pipe: the [`IoCore`] fan-out accounts logical operations
    /// (submission-depth in-flight tracking), the backend reactor accounts
    /// descriptors (queue depth, completions, failures), and the group-commit
    /// gather accounts coalesced log appends.
    pub struct IoStats {
        /// Descriptors submitted to the backend reactor.
        sum submitted,
        /// Completions the reactor delivered (success or failure).
        sum completed,
        /// Completions that carried an error.
        sum failed,
        /// Peak length of the reactor's submission queue.
        max queue_depth_peak,
        /// Logical operations currently submitted and not yet completed at
        /// the [`IoCore`] layer (scan morsels, flush groups, delete chunks).
        gauge ops_in_flight (unexported),
        /// Peak of `ops_in_flight` — submission depth, not thread count: a
        /// batch of `n` operations drives this to at least `n` however few
        /// execution lanes carry it.
        max in_flight_peak,
        /// Transaction-log appends absorbed into another append's PUT by the
        /// group-commit gather (each leader PUT of a batch of `k` adds
        /// `k - 1`).
        sum coalesced_appends,
    }
    /// Point-in-time copy of [`IoStats`].
    pub struct IoStatsSnapshot;
}

impl IoStats {
    /// Account a batch of `n` logical operations submitted for
    /// completion.
    pub fn note_submit_batch(&self, n: usize) {
        let now = self.ops_in_flight.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
        self.in_flight_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Account one logical operation completing (retired from the
    /// in-flight set).
    pub fn note_op_complete(&self) {
        self.ops_in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Account a descriptor entering the reactor's submission queue of
    /// current depth `depth`.
    pub fn note_descriptor_submitted(&self, depth: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth_peak
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Account one delivered completion; `ok` is false when it carried an
    /// error.
    pub fn note_descriptor_completed(&self, ok: bool) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Account a group-commit gather that folded `batch` appends into one
    /// PUT.
    pub fn note_coalesced_batch(&self, batch: usize) {
        self.coalesced_appends
            .fetch_add(batch.saturating_sub(1) as u64, Ordering::Relaxed);
    }
}

/// Counters describing one [`IoCore::run_ordered_with_stats`] batch.
///
/// `in_flight_peak` here is *execution* overlap — how many tasks were
/// simultaneously inside their closure — kept semantically identical to
/// the retired `PoolRunStats` so per-run trace events (`GcBatch`) and the
/// buffer's `flush_in_flight_peak` stay byte-for-byte stable. Submission
/// depth (the io_uring-style number) lives in the shared [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoRunStats {
    /// Number of tasks that actually executed (may be short of the task
    /// count when an early task failed and the rest were skipped).
    pub tasks_run: usize,
    /// Peak number of tasks executing simultaneously. 1 for serial runs;
    /// up to the lane count when execution genuinely overlaps.
    pub in_flight_peak: usize,
}

/// The caller-side submission/completion fan-out.
///
/// An `IoCore` turns a batch of `n` ordered tasks into `n` submitted
/// operations whose completions are gathered back in task order. The
/// execution lanes are scoped threads (the simulation has no async
/// runtime and needs none — backends account virtual time, they do not
/// sleep), but the *accounting* is submission-first: the whole batch is
/// in flight from the moment it is submitted, which is what decouples
/// reported I/O depth from lane count.
///
/// Error semantics match a serial left-to-right run: the error from the
/// lowest-indexed failing task wins and unclaimed later tasks are
/// skipped. Completions are stitched back in task order, so parallel
/// output is byte-identical to serial output.
#[derive(Clone)]
pub struct IoCore {
    lanes: usize,
    stats: Option<Arc<IoStats>>,
}

impl std::fmt::Debug for IoCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoCore")
            .field("lanes", &self.lanes)
            .field("stats", &self.stats.is_some())
            .finish()
    }
}

impl IoCore {
    /// A core with `lanes` execution lanes. Zero is clamped to one; a
    /// one-lane core runs every task inline on the caller's thread.
    pub fn new(lanes: usize) -> Self {
        Self {
            lanes: lanes.max(1),
            stats: None,
        }
    }

    /// Attach the shared [`IoStats`] this core should account submission
    /// depth into.
    pub fn with_stats(mut self, stats: Arc<IoStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Number of execution lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Submit `tasks` ordered tasks and await their completions in task
    /// order. See [`IoCore::run_ordered_with_stats`] for semantics.
    pub fn run_ordered<T, E, F>(&self, tasks: usize, f: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        self.run_ordered_with_stats(tasks, f).0
    }

    /// [`run_ordered`](IoCore::run_ordered) plus an [`IoRunStats`]
    /// describing how much the batch's execution actually overlapped.
    ///
    /// `f(i)` computes task `i`; tasks are claimed in increasing order but
    /// may complete out of order. On failure the error from the
    /// lowest-indexed failing task is returned — the same error a serial
    /// left-to-right run would surface — and remaining unclaimed tasks are
    /// skipped. Tasks already in flight when a failure lands run to
    /// completion (scoped lanes always join), but their results are
    /// discarded.
    pub fn run_ordered_with_stats<T, E, F>(
        &self,
        tasks: usize,
        f: F,
    ) -> (Result<Vec<T>, E>, IoRunStats)
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        if tasks == 0 {
            return (Ok(Vec::new()), IoRunStats::default());
        }
        // Submission-first accounting: the whole batch is in flight now.
        if let Some(stats) = &self.stats {
            stats.note_submit_batch(tasks);
        }
        let out = self.execute(tasks, f);
        if let Some(stats) = &self.stats {
            // Retire whatever submit charged, including skipped tasks —
            // a failed batch completes (with an error), it does not leak
            // in-flight depth.
            for _ in 0..tasks {
                stats.note_op_complete();
            }
        }
        out
    }

    fn execute<T, E, F>(&self, tasks: usize, f: F) -> (Result<Vec<T>, E>, IoRunStats)
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        if self.lanes == 1 || tasks == 1 {
            // Serial fast path: no spawn, no locks, early return on error.
            let mut out = Vec::with_capacity(tasks);
            let mut stats = IoRunStats {
                tasks_run: 0,
                in_flight_peak: 1,
            };
            for i in 0..tasks {
                stats.tasks_run += 1;
                match f(i) {
                    Ok(v) => out.push(v),
                    Err(e) => return (Err(e), stats),
                }
            }
            return (Ok(out), stats);
        }

        let results: Mutex<Vec<Option<T>>> = Mutex::new((0..tasks).map(|_| None).collect());
        // Lowest failing task index wins, matching the serial error.
        let failure: Mutex<Option<(usize, E)>> = Mutex::new(None);
        let cursor = AtomicUsize::new(0);
        let tasks_run = AtomicUsize::new(0);
        let in_flight = AtomicUsize::new(0);
        let in_flight_peak = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for _ in 0..self.lanes.min(tasks) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks {
                        return;
                    }
                    // Tasks below any recorded failure index must still run:
                    // the serial-equivalent error is the lowest one.
                    if failure.lock().as_ref().is_some_and(|(fi, _)| i > *fi) {
                        continue;
                    }
                    tasks_run.fetch_add(1, Ordering::Relaxed);
                    let now = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                    in_flight_peak.fetch_max(now, Ordering::Relaxed);
                    let r = f(i);
                    in_flight.fetch_sub(1, Ordering::Relaxed);
                    match r {
                        Ok(v) => results.lock()[i] = Some(v),
                        Err(e) => {
                            let mut slot = failure.lock();
                            if slot.as_ref().is_none_or(|(fi, _)| i < *fi) {
                                *slot = Some((i, e));
                            }
                        }
                    }
                });
            }
        });

        let stats = IoRunStats {
            tasks_run: tasks_run.into_inner(),
            in_flight_peak: in_flight_peak.into_inner(),
        };
        if let Some((_, e)) = failure.into_inner() {
            return (Err(e), stats);
        }
        let out = results
            .into_inner()
            .into_iter()
            .map(|slot| slot.expect("every task completed without failure"))
            .collect();
        (Ok(out), stats)
    }
}

impl Default for IoCore {
    fn default() -> Self {
        Self::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        let io = IoCore::new(4);
        let out: Result<Vec<usize>, ()> = io.run_ordered(100, |i| Ok(i * 3));
        assert_eq!(out.unwrap(), (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks_and_zero_lanes_are_fine() {
        let io = IoCore::new(0);
        assert_eq!(io.lanes(), 1);
        let out: Result<Vec<u8>, ()> = io.run_ordered(0, |_| Ok(0));
        assert_eq!(out.unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial: Result<Vec<String>, ()> =
            IoCore::new(1).run_ordered(37, |i| Ok(format!("task-{i}")));
        let parallel: Result<Vec<String>, ()> =
            IoCore::new(8).run_ordered(37, |i| Ok(format!("task-{i}")));
        assert_eq!(serial.unwrap(), parallel.unwrap());
    }

    #[test]
    fn lowest_index_error_wins() {
        // Every odd task fails; the reported error must be task 1's, same
        // as a serial left-to-right run, regardless of completion order.
        for _ in 0..8 {
            let err: Result<Vec<usize>, String> = IoCore::new(4).run_ordered(64, |i| {
                if i % 2 == 1 {
                    Err(format!("boom-{i}"))
                } else {
                    Ok(i)
                }
            });
            assert_eq!(err.unwrap_err(), "boom-1");
        }
    }

    #[test]
    fn run_stats_report_overlap_and_skips() {
        let io = IoCore::new(4);
        let gate = std::sync::Barrier::new(4);
        let (out, stats) = io.run_ordered_with_stats(4, |i| {
            gate.wait();
            Ok::<usize, ()>(i)
        });
        assert_eq!(out.unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(stats.tasks_run, 4);
        // All four tasks block on the barrier, so all four overlap.
        assert_eq!(stats.in_flight_peak, 4);

        // An early failure skips later unclaimed tasks.
        let (err, stats) =
            io.run_ordered_with_stats(1000, |i| if i == 0 { Err(()) } else { Ok(i) });
        assert!(err.is_err());
        assert!(stats.tasks_run < 1000, "failure should skip the tail");
    }

    #[test]
    fn serial_fast_path_stops_at_first_error() {
        let ran = AtomicUsize::new(0);
        let err: Result<Vec<usize>, &str> = IoCore::new(1).run_ordered(10, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 3 {
                Err("stop")
            } else {
                Ok(i)
            }
        });
        assert_eq!(err.unwrap_err(), "stop");
        assert_eq!(ran.into_inner(), 4);
    }

    #[test]
    fn submission_depth_exceeds_lane_count() {
        // The io_uring property this PR exists for: in-flight depth is the
        // number of submitted operations, not the number of lanes carrying
        // them. 2 lanes, 16 submitted ops → peak 16.
        let stats = Arc::new(IoStats::default());
        let io = IoCore::new(2).with_stats(Arc::clone(&stats));
        let out: Result<Vec<usize>, ()> = io.run_ordered(16, Ok);
        assert_eq!(out.unwrap().len(), 16);
        let snap = stats.snapshot();
        assert_eq!(snap.in_flight_peak, 16);
        assert!(snap.in_flight_peak > io.lanes() as u64);
        // Every submitted op retired.
        assert_eq!(stats.ops_in_flight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn failed_batches_retire_their_submission_depth() {
        let stats = Arc::new(IoStats::default());
        let io = IoCore::new(4).with_stats(Arc::clone(&stats));
        let err: Result<Vec<usize>, ()> =
            io.run_ordered(64, |i| if i == 0 { Err(()) } else { Ok(i) });
        assert!(err.is_err());
        assert_eq!(
            stats.ops_in_flight.load(Ordering::Relaxed),
            0,
            "skipped tasks must not leak in-flight depth"
        );
        assert_eq!(stats.snapshot().in_flight_peak, 64);
    }
}

//! The traced run's instruments: a `PageStore` wrapper that times every
//! call into the pager, and a timer for calls into the other layers'
//! public functions. Both live in the benchmark; the program is unchanged.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::ThreadId;
use std::time::Instant;

use bytes::Bytes;
use iq_common::{IqResult, PageId, TableId, TxnId};
use iq_engine::{PageStore, ScanStats};
use iq_storage::{Page, PageKind};

/// Call counts and busy time of one kind of pager call.
#[derive(Default)]
pub struct CallStat {
    /// Calls made (pages, for prefetch).
    pub count: AtomicU64,
    /// Time inside the pager, summed over every thread.
    pub busy_ns: AtomicU64,
    /// Time inside the pager on the client thread only.
    pub client_ns: AtomicU64,
}

impl CallStat {
    fn note(&self, n: u64, ns: u64, on_client: bool) {
        self.count.fetch_add(n, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        if on_client {
            self.client_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// `(count, busy_ns, client_ns)` now.
    pub fn read(&self) -> [u64; 3] {
        [
            self.count.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed),
            self.client_ns.load(Ordering::Relaxed),
        ]
    }
}

/// Everything the pager wrapper records.
pub struct PagerProbe {
    client: ThreadId,
    /// `read_page` calls.
    pub reads: CallStat,
    /// `prefetch` calls, counted in pages.
    pub prefetch: CallStat,
    /// `write_page` calls.
    pub writes: CallStat,
}

impl PagerProbe {
    /// A probe whose client thread is the calling thread.
    pub fn new() -> Self {
        Self {
            client: std::thread::current().id(),
            reads: CallStat::default(),
            prefetch: CallStat::default(),
            writes: CallStat::default(),
        }
    }

    /// Pager time spent on the client thread so far, in nanoseconds.
    pub fn client_ns(&self) -> u64 {
        self.reads.read()[2] + self.prefetch.read()[2] + self.writes.read()[2]
    }

    fn timed<T>(&self, stat: &CallStat, n: u64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        stat.note(n, ns, std::thread::current().id() == self.client);
        out
    }
}

/// A `PageStore` that delegates every trait method to `inner` and times
/// the calls that do I/O.
pub struct TimedStore<'a> {
    inner: &'a dyn PageStore,
    probe: &'a PagerProbe,
}

impl<'a> TimedStore<'a> {
    /// Wrap `inner`, recording into `probe`.
    pub fn new(inner: &'a dyn PageStore, probe: &'a PagerProbe) -> Self {
        Self { inner, probe }
    }
}

impl PageStore for TimedStore<'_> {
    fn read_page(&self, table: TableId, page: PageId, demand: bool) -> IqResult<Page> {
        self.probe.timed(&self.probe.reads, 1, || {
            self.inner.read_page(table, page, demand)
        })
    }

    fn write_page(
        &self,
        table: TableId,
        page: PageId,
        kind: PageKind,
        body: Bytes,
        txn: TxnId,
    ) -> IqResult<()> {
        self.probe.timed(&self.probe.writes, 1, || {
            self.inner.write_page(table, page, kind, body, txn)
        })
    }

    fn prefetch(&self, table: TableId, pages: &[PageId]) -> IqResult<()> {
        self.probe
            .timed(&self.probe.prefetch, pages.len() as u64, || {
                self.inner.prefetch(table, pages)
            })
    }

    fn scan_parallelism(&self) -> usize {
        self.inner.scan_parallelism()
    }

    fn io_stats(&self) -> Option<std::sync::Arc<iq_common::IoStats>> {
        self.inner.io_stats()
    }

    fn scan_stats(&self) -> Option<std::sync::Arc<ScanStats>> {
        self.inner.scan_stats()
    }
}

/// Wall time of calls into one public function, in milliseconds.
#[derive(Default)]
pub struct CallTimes(pub Vec<f64>);

impl CallTimes {
    /// Time `f` and record its duration.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0.push(t.elapsed().as_secs_f64() * 1e3);
        out
    }
}

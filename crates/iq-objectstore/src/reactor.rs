//! The backend completion reactor: a batched submission queue over the
//! simulated object store.
//!
//! Every object-store request — scan morsel GETs, composite-member ranged
//! GETs, commit-flush PUTs, GC multi-object deletes, OCM populates — is
//! expressed as an [`IoDescriptor`] on one shared submission queue and
//! answered with an [`IoCompletion`]. The shape is io_uring's: callers
//! *submit* and then *wait*; nothing blocks a thread inside the backend
//! per request. One driver at a time drains the queue (flat combining:
//! whichever waiter finds no active driver takes the role), executing
//! descriptors strictly in submission-sequence order with the reactor
//! lock **released** around each backend call, and publishes completions
//! for the other waiters.
//!
//! ## Determinism
//!
//! Completions are delivered in virtual-clock order, tie-broken by
//! submission sequence — and with this reactor the two orders coincide by
//! construction: descriptors execute serially in sequence order, and the
//! simulated op clock advances monotonically with each executed request,
//! so the i-th completion carries the i-th clock reading. A
//! single-threaded caller (the golden Table-1 walkthrough) therefore
//! drives exactly the same backend call sequence as a direct-call stack,
//! and the trace stays byte-identical. Retries remain the caller's
//! (`RetryPolicy`'s) business: each attempt is its own descriptor, fault
//! injection below the reactor stays per-descriptor, and backoffs are
//! charged through the same [`ObjectBackend::note_backoff`] path as
//! before.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use iq_common::{IoStats, IqError, IqResult, ObjectKey, SimDuration};
use parking_lot::{Condvar, Mutex};

use crate::metrics::StatsSnapshot;
use crate::traits::{ObjectBackend, RangeRead};

/// One submitted object-store operation.
#[derive(Debug, Clone)]
pub enum IoDescriptor {
    /// Whole-object GET.
    Get {
        /// Object to fetch.
        key: ObjectKey,
    },
    /// Ranged GET of `len` bytes at `offset`.
    GetRange {
        /// Object to fetch from.
        key: ObjectKey,
        /// First byte of the range.
        offset: u32,
        /// Length of the range.
        len: u32,
    },
    /// Whole-object PUT.
    Put {
        /// Key to upload under.
        key: ObjectKey,
        /// Object body.
        data: Bytes,
    },
    /// Single-object DELETE (the GC's existence poll issues these; kept
    /// distinct from a one-element [`IoDescriptor::DeleteBatch`] because
    /// the simulation prices and journals them differently).
    Delete {
        /// Key to delete.
        key: ObjectKey,
    },
    /// Multi-object DELETE with per-key outcomes.
    DeleteBatch {
        /// Keys to delete.
        keys: Vec<ObjectKey>,
    },
    /// Existence probe (HEAD).
    Head {
        /// Key to probe.
        key: ObjectKey,
    },
}

/// The payload of one delivered completion.
#[derive(Debug)]
pub enum IoCompletion {
    /// A fetched object ([`IoDescriptor::Get`]).
    Bytes(Bytes),
    /// A fetched range ([`IoDescriptor::GetRange`]).
    Range(RangeRead),
    /// A PUT or DELETE finished ([`IoDescriptor::Put`] /
    /// [`IoDescriptor::Delete`]).
    Unit,
    /// Per-key outcomes of a batch delete
    /// ([`IoDescriptor::DeleteBatch`]).
    Batch(Vec<(ObjectKey, IqResult<()>)>),
    /// HEAD verdict ([`IoDescriptor::Head`]).
    Exists(bool),
}

struct Pending {
    seq: u64,
    backend: Arc<dyn ObjectBackend>,
    desc: IoDescriptor,
}

#[derive(Default)]
struct ReactorState {
    next_seq: u64,
    queue: VecDeque<Pending>,
    results: HashMap<u64, IqResult<IoCompletion>>,
    driver_active: bool,
}

/// The shared completion reactor. One instance serves every cloud dbspace
/// of a database (plus the durable transaction log): descriptors carry
/// their target backend, so a single submission queue orders all of them.
pub struct IoReactor {
    state: Mutex<ReactorState>,
    cv: Condvar,
    stats: Option<Arc<IoStats>>,
}

impl std::fmt::Debug for IoReactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoReactor")
            .field("stats", &self.stats.is_some())
            .finish()
    }
}

impl Default for IoReactor {
    fn default() -> Self {
        Self::new()
    }
}

impl IoReactor {
    /// A reactor with no metrics attachment.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(ReactorState::default()),
            cv: Condvar::new(),
            stats: None,
        }
    }

    /// A reactor accounting descriptor traffic into `stats` (the `io.*`
    /// metrics source).
    pub fn with_stats(stats: Arc<IoStats>) -> Self {
        Self {
            state: Mutex::new(ReactorState::default()),
            cv: Condvar::new(),
            stats: Some(stats),
        }
    }

    /// Submit one descriptor against `backend`; returns its submission
    /// sequence number for [`Self::wait`].
    pub fn submit(&self, backend: Arc<dyn ObjectBackend>, desc: IoDescriptor) -> u64 {
        let mut g = self.state.lock();
        let seq = g.next_seq;
        g.next_seq += 1;
        g.queue.push_back(Pending { seq, backend, desc });
        if let Some(stats) = &self.stats {
            stats.note_descriptor_submitted(g.queue.len());
        }
        // Wake a parked waiter so someone becomes the driver.
        drop(g);
        self.cv.notify_all();
        seq
    }

    /// Await the completion of submission `seq`.
    ///
    /// Flat combining: if no driver is active the calling thread takes
    /// the role, drains the whole queue in submission order (executing
    /// each descriptor with the reactor lock released), publishes the
    /// completions and hands the role back. Otherwise it parks until the
    /// active driver delivers its completion.
    pub fn wait(&self, seq: u64) -> IqResult<IoCompletion> {
        let mut g = self.state.lock();
        loop {
            if let Some(done) = g.results.remove(&seq) {
                return done;
            }
            if g.driver_active {
                self.cv.wait(&mut g);
                continue;
            }
            g.driver_active = true;
            while let Some(p) = g.queue.pop_front() {
                // LOCK-OK: the reactor lock is explicitly dropped around
                // the backend call; `drive` runs unlocked.
                drop(g);
                let outcome = Self::drive(&p);
                g = self.state.lock();
                if let Some(stats) = &self.stats {
                    stats.note_descriptor_completed(outcome.is_ok());
                }
                g.results.insert(p.seq, outcome);
                self.cv.notify_all();
            }
            g.driver_active = false;
            self.cv.notify_all();
        }
    }

    /// Submit + wait in one call.
    pub fn run(
        &self,
        backend: Arc<dyn ObjectBackend>,
        desc: IoDescriptor,
    ) -> IqResult<IoCompletion> {
        let seq = self.submit(backend, desc);
        self.wait(seq)
    }

    fn drive(p: &Pending) -> IqResult<IoCompletion> {
        match &p.desc {
            IoDescriptor::Get { key } => p.backend.get(*key).map(IoCompletion::Bytes),
            IoDescriptor::GetRange { key, offset, len } => p
                .backend
                .get_range(*key, *offset, *len)
                .map(IoCompletion::Range),
            IoDescriptor::Put { key, data } => p
                .backend
                .put(*key, data.clone())
                .map(|()| IoCompletion::Unit),
            IoDescriptor::Delete { key } => p.backend.delete(*key).map(|()| IoCompletion::Unit),
            IoDescriptor::DeleteBatch { keys } => {
                Ok(IoCompletion::Batch(p.backend.delete_batch(keys)))
            }
            IoDescriptor::Head { key } => Ok(IoCompletion::Exists(p.backend.exists(*key))),
        }
    }
}

/// An [`ObjectBackend`] adapter that routes every operation through a
/// shared [`IoReactor`]. This is what sits between the retry layer and
/// the (possibly fault-injecting) store: retries submit fresh
/// descriptors, faults draw per descriptor, and bookkeeping calls
/// (`stats_snapshot`, `resident_bytes`, `note_backoff`) pass straight
/// through — a backoff is accounting, not I/O.
pub struct ReactorStore {
    reactor: Arc<IoReactor>,
    inner: Arc<dyn ObjectBackend>,
}

impl std::fmt::Debug for ReactorStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorStore").finish()
    }
}

impl ReactorStore {
    /// Wrap `inner` so its traffic flows through `reactor`.
    pub fn new(reactor: Arc<IoReactor>, inner: Arc<dyn ObjectBackend>) -> Self {
        Self { reactor, inner }
    }

    /// The wrapped backend (tests and stats plumbing).
    pub fn inner(&self) -> &Arc<dyn ObjectBackend> {
        &self.inner
    }

    fn run(&self, desc: IoDescriptor) -> IqResult<IoCompletion> {
        self.reactor.run(Arc::clone(&self.inner), desc)
    }
}

impl ObjectBackend for ReactorStore {
    fn put(&self, key: ObjectKey, data: Bytes) -> IqResult<()> {
        match self.run(IoDescriptor::Put { key, data })? {
            IoCompletion::Unit => Ok(()),
            other => Err(IqError::Invalid(format!("put completion: {other:?}"))),
        }
    }

    fn get(&self, key: ObjectKey) -> IqResult<Bytes> {
        match self.run(IoDescriptor::Get { key })? {
            IoCompletion::Bytes(b) => Ok(b),
            other => Err(IqError::Invalid(format!("get completion: {other:?}"))),
        }
    }

    fn get_range(&self, key: ObjectKey, offset: u32, len: u32) -> IqResult<RangeRead> {
        match self.run(IoDescriptor::GetRange { key, offset, len })? {
            IoCompletion::Range(r) => Ok(r),
            other => Err(IqError::Invalid(format!("range completion: {other:?}"))),
        }
    }

    fn delete(&self, key: ObjectKey) -> IqResult<()> {
        match self.run(IoDescriptor::Delete { key })? {
            IoCompletion::Unit => Ok(()),
            other => Err(IqError::Invalid(format!("delete completion: {other:?}"))),
        }
    }

    fn delete_batch(&self, keys: &[ObjectKey]) -> Vec<(ObjectKey, IqResult<()>)> {
        match self.run(IoDescriptor::DeleteBatch {
            keys: keys.to_vec(),
        }) {
            Ok(IoCompletion::Batch(results)) => results,
            Ok(other) => {
                let err = IqError::Invalid(format!("batch completion: {other:?}"));
                keys.iter().map(|&k| (k, Err(err.clone()))).collect()
            }
            Err(e) => keys.iter().map(|&k| (k, Err(e.clone()))).collect(),
        }
    }

    fn exists(&self, key: ObjectKey) -> bool {
        matches!(
            self.run(IoDescriptor::Head { key }),
            Ok(IoCompletion::Exists(true))
        )
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn note_backoff(&self, ops: u64, wait: SimDuration) {
        self.inner.note_backoff(ops, wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_store::{ConsistencyConfig, ObjectStoreSim};

    fn key(off: u64) -> ObjectKey {
        ObjectKey::from_offset(off)
    }

    fn stack() -> (Arc<IoReactor>, Arc<ObjectStoreSim>, ReactorStore) {
        let reactor = Arc::new(IoReactor::new());
        let sim = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
        let store = ReactorStore::new(
            Arc::clone(&reactor),
            Arc::clone(&sim) as Arc<dyn ObjectBackend>,
        );
        (reactor, sim, store)
    }

    #[test]
    fn round_trips_every_descriptor_kind() {
        let (_, sim, store) = stack();
        store
            .put(key(1), Bytes::from_static(b"hello world"))
            .unwrap();
        assert_eq!(
            store.get(key(1)).unwrap(),
            Bytes::from_static(b"hello world")
        );
        let r = store.get_range(key(1), 6, 5).unwrap();
        assert_eq!(r.data, Bytes::from_static(b"world"));
        assert_eq!(r.fetched, 5, "range-native path must survive the reactor");
        assert!(store.exists(key(1)));
        assert!(!store.exists(key(2)));
        store.put(key(2), Bytes::from_static(b"x")).unwrap();
        store.put(key(3), Bytes::from_static(b"y")).unwrap();
        let out = store.delete_batch(&[key(2), key(3)]);
        assert!(out.iter().all(|(_, r)| r.is_ok()));
        store.delete(key(1)).unwrap();
        assert_eq!(sim.object_count(), 0);
    }

    #[test]
    fn errors_pass_through_with_their_class() {
        let (_, _, store) = stack();
        // Strong consistency + absent key: permanent-looking NotFound from
        // the sim (transient by policy — the visibility contract).
        assert!(matches!(store.get(key(9)), Err(IqError::ObjectNotFound(_))));
        store.put(key(9), Bytes::from_static(b"abcd")).unwrap();
        assert!(matches!(
            store.get_range(key(9), 2, 10),
            Err(IqError::Invalid(_))
        ));
        let dup = store.put(key(9), Bytes::from_static(b"e"));
        assert!(matches!(dup, Err(IqError::DuplicateObjectKey(_))));
    }

    #[test]
    fn completions_deliver_in_submission_order() {
        // Submit a burst before waiting on any of it: completions must be
        // retrievable per-seq and the backend must have executed them in
        // submission order (monotone op clock ⇒ virtual-clock order).
        let (reactor, sim, _) = stack();
        let backend: Arc<dyn ObjectBackend> = Arc::clone(&sim) as _;
        let mut seqs = Vec::new();
        for i in 0..32u64 {
            seqs.push(reactor.submit(
                Arc::clone(&backend),
                IoDescriptor::Put {
                    key: key(i),
                    data: Bytes::from(vec![i as u8]),
                },
            ));
        }
        for i in 0..32u64 {
            seqs.push(reactor.submit(Arc::clone(&backend), IoDescriptor::Get { key: key(i) }));
        }
        // Waiting on the *last* seq drives the whole queue.
        for (i, seq) in seqs.iter().enumerate().rev() {
            let done = reactor.wait(*seq).unwrap();
            if i >= 32 {
                match done {
                    IoCompletion::Bytes(b) => assert_eq!(b[0], (i - 32) as u8),
                    other => panic!("expected bytes, got {other:?}"),
                }
            }
        }
        assert_eq!(sim.object_count(), 32);
    }

    #[test]
    fn concurrent_waiters_all_complete() {
        let (reactor, sim, _) = stack();
        let backend: Arc<dyn ObjectBackend> = Arc::clone(&sim) as _;
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let reactor = Arc::clone(&reactor);
                let backend = Arc::clone(&backend);
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let k = key(t * 1000 + i);
                        reactor
                            .run(
                                Arc::clone(&backend),
                                IoDescriptor::Put {
                                    key: k,
                                    data: Bytes::from(vec![t as u8]),
                                },
                            )
                            .unwrap();
                        match reactor
                            .run(Arc::clone(&backend), IoDescriptor::Get { key: k })
                            .unwrap()
                        {
                            IoCompletion::Bytes(b) => assert_eq!(b[0], t as u8),
                            other => panic!("expected bytes, got {other:?}"),
                        }
                    }
                });
            }
        });
        assert_eq!(sim.object_count(), 400);
    }

    #[test]
    fn reactor_accounts_descriptor_traffic() {
        let stats = Arc::new(IoStats::default());
        let reactor = Arc::new(IoReactor::with_stats(Arc::clone(&stats)));
        let sim = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
        let store = ReactorStore::new(Arc::clone(&reactor), Arc::clone(&sim) as _);
        store.put(key(1), Bytes::from_static(b"a")).unwrap();
        store.get(key(1)).unwrap();
        let _ = store.get(key(404));
        let snap = stats.snapshot();
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.failed, 1);
        assert!(snap.queue_depth_peak >= 1);
    }
}

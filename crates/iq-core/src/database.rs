//! The assembled database.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use iq_buffer::{BufferManager, BufferOptions};
use iq_common::trace::{MetricValue, MetricsRegistry};
use iq_common::{
    BlockNum, DbSpaceId, IoCore, IoStats, IoStatsSnapshot, IqError, IqResult, NodeId, ObjectKey,
    SimDuration, TableId, TxnId,
};
use iq_engine::{ScanStats, TableMeta, WorkMeter};
use iq_objectstore::{
    BlockDeviceSim, FaultInjector, IoReactor, ObjectBackend, ObjectStoreSim, ReactorStore,
};
use iq_ocm::{Ocm, OcmConfig};
use iq_snapshot::{RetainingSink, SnapshotManager};
use iq_storage::{Catalog, DbSpace};
use iq_txn::{
    DeletionSink, Multiplex, NodeKeyCache, NodeRole, RangeProvider, TransactionManager, TxnLog,
};
use parking_lot::{Mutex, RwLock};

use crate::config::{DatabaseConfig, GroupCommitMode};
use crate::group_commit::DurableLog;
use crate::log_recovery::LogRecoveryStats;
use crate::pager::Pager;
use crate::sink::DatabaseSink;
use crate::tablestore::TableStore;

/// Shared state behind a [`Database`] (and its [`Pager`]s).
pub struct Shared {
    /// Configuration.
    pub config: DatabaseConfig,
    /// RAM buffer manager.
    pub buffer: BufferManager,
    /// Transaction manager.
    pub txns: TransactionManager,
    /// Multiplex topology.
    pub mx: Multiplex,
    /// Work meter shared with the engine.
    pub meter: Arc<WorkMeter>,
    ocm: Mutex<Option<(DbSpaceId, Arc<Ocm>)>>,
    ssd: Arc<BlockDeviceSim>,
    spaces: RwLock<HashMap<u32, Arc<DbSpace>>>,
    cloud_stores: RwLock<HashMap<u32, Arc<ObjectStoreSim>>>,
    /// Fault injectors wrapping each cloud store, when `config.fault` is
    /// set (crash scripts and fault stats hang off these).
    fault_injectors: RwLock<HashMap<u32, Arc<FaultInjector>>>,
    block_devices: RwLock<HashMap<u32, Arc<BlockDeviceSim>>>,
    tables: RwLock<HashMap<u32, Arc<TableStore>>>,
    key_caches: Mutex<HashMap<u32, Arc<NodeKeyCache>>>,
    snapshots: Option<Arc<SnapshotManager>>,
    /// Chain-GC sink (retention-wrapped when snapshots are on).
    gc_sink: Arc<dyn DeletionSink>,
    /// Immediate sink (rollback garbage is never retained).
    immediate_sink: Arc<DatabaseSink>,
    catalog: Mutex<Catalog>,
    system: Arc<BlockDeviceSim>,
    log: Arc<TxnLog>,
    /// Unified metrics registry every subsystem registers a source into.
    metrics: Arc<MetricsRegistry>,
    /// Page-packing counters (the `pack.*` metrics source).
    pub pack_stats: PackStats,
    /// Descriptor-level I/O accounting shared by the reactor, the scan
    /// and flush fan-outs, and GC (the `io.*` metrics source).
    pub io_stats: Arc<IoStats>,
    /// Late-materialization scan counters — groups pruned, predicate vs
    /// projection pages read, GETs saved (the `scan.*` metrics source).
    pub scan_stats: Arc<ScanStats>,
    /// The submission/completion reactor every cloud backend is routed
    /// through (see `iq_objectstore::reactor`).
    pub reactor: Arc<IoReactor>,
    /// Durable transaction-log uploader, when `config.group_commit`
    /// is not `Off`.
    durable_log: Option<Arc<DurableLog>>,
    /// Durable-log recovery counters from the most recent `reopen`
    /// (part of the `log.*` metrics source; zeros on a fresh create).
    pub log_recovery: LogRecoveryStats,
}

iq_common::counters! {
    /// Lifetime counters for the page-packing write/read path, exported as
    /// the `pack.*` metrics source together with the composite registry's
    /// refcount counters.
    pub struct PackStats {
        /// Composite objects written.
        sum objects_written,
        /// Pages that left the cache inside a composite.
        sum pages_packed,
        /// Pages-per-object histogram.
        hist pack_hist [
            pack_le_1 <= 1,
            pack_le_4 <= 4,
            pack_le_16 <= 16,
            pack_le_64 <= 64;
            pack_gt_64
        ],
        /// Member reads served (ranged or slice-of-whole).
        sum ranged_gets,
        /// Bytes fetched beyond the member window (0 for true ranged GETs;
        /// the `pack_ranged_gets = false` ablation makes this nonzero).
        sum bytes_over_read,
        /// Compaction rounds driven to a commit.
        sum compactions,
        /// Live members rewritten into fresh composites by compaction.
        sum compaction_rewritten,
        /// Candidate members skipped because the page had already moved on
        /// — rewriting them would have double-freed the newer version.
        sum compaction_stale_skips,
    }
    /// Point-in-time copy of [`PackStats`].
    pub struct PackStatsSnapshot;
}

impl PackStats {
    pub(crate) fn note_pack(&self, pages: usize) {
        self.objects_written.fetch_add(1, Ordering::Relaxed);
        self.pages_packed.fetch_add(pages as u64, Ordering::Relaxed);
        self.pack_hist.record(pages as u64);
    }

    pub(crate) fn note_range_read(&self, read: &iq_objectstore::RangeRead) {
        self.ranged_gets.fetch_add(1, Ordering::Relaxed);
        self.bytes_over_read.fetch_add(
            read.fetched.saturating_sub(read.data.len() as u64),
            Ordering::Relaxed,
        );
    }
}

impl Shared {
    /// Dbspace lookup.
    pub fn space(&self, id: DbSpaceId) -> IqResult<Arc<DbSpace>> {
        self.spaces
            .read()
            .get(&id.0)
            .cloned()
            .ok_or_else(|| IqError::NotFound(format!("dbspace {id}")))
    }

    /// Table-store lookup.
    pub fn table_store(&self, id: TableId) -> IqResult<Arc<TableStore>> {
        self.tables
            .read()
            .get(&id.0)
            .cloned()
            .ok_or_else(|| IqError::NotFound(format!("table {id}")))
    }

    /// The OCM, if enabled and bound to `space`.
    pub fn ocm_for(&self, space: DbSpaceId) -> Option<Arc<Ocm>> {
        let g = self.ocm.lock();
        g.as_ref()
            .and_then(|(s, ocm)| (*s == space).then(|| Arc::clone(ocm)))
    }

    /// The snapshot manager, when retention is enabled.
    pub(crate) fn snapshots(&self) -> Option<&Arc<SnapshotManager>> {
        self.snapshots.as_ref()
    }

    fn key_cache(&self, node: NodeId) -> IqResult<Arc<NodeKeyCache>> {
        let mut g = self.key_caches.lock();
        if let Some(c) = g.get(&node.0) {
            return Ok(Arc::clone(c));
        }
        let cache = if node.0 == 0 {
            // The coordinator allocates for itself without an RPC (§3.2);
            // the operation is still transactional through the log.
            Arc::new(NodeKeyCache::new(
                node,
                Arc::clone(&self.mx.coordinator) as Arc<dyn RangeProvider>,
                iq_txn::keygen::CachePolicy::default(),
            ))
        } else {
            let secondary = self
                .mx
                .secondary(node)
                .ok_or_else(|| IqError::NotFound(format!("node {node}")))?;
            if secondary.role == NodeRole::Reader {
                // Reader nodes query but "cannot" modify the database
                // (§2): their pager carries a key source that refuses
                // allocation, so reads work and any write path fails.
                Arc::new(NodeKeyCache::new(
                    node,
                    Arc::new(DenyAllocation) as Arc<dyn RangeProvider>,
                    iq_txn::keygen::CachePolicy::default(),
                ))
            } else {
                secondary.key_cache()?
            }
        };
        g.insert(node.0, Arc::clone(&cache));
        Ok(cache)
    }
}

/// Buffer-manager geometry from the database config: `buffer_shards` as
/// requested, or — when 0 — twice the scan parallelism so neighbouring
/// morsel workers rarely collide on a shard lock.
fn buffer_options(config: &DatabaseConfig) -> BufferOptions {
    let shards = if config.buffer_shards == 0 {
        (config.scan_workers * 2).max(1)
    } else {
        config.buffer_shards
    };
    BufferOptions {
        shards,
        protected_fraction: config.cache_protected_fraction,
    }
}

/// Rows a metrics source reports.
type Rows = Vec<(String, MetricValue)>;

/// One metric row.
fn row(name: &str, value: MetricValue) -> (String, MetricValue) {
    (name.to_string(), value)
}

/// Register `rows` as the metrics source `name`. The closure holds a
/// `Weak` back-reference — the registry lives inside `Shared`, so a strong
/// capture would leak the whole database.
fn register_source(shared: &Arc<Shared>, name: &str, rows: fn(&Shared) -> Rows) {
    let w = Arc::downgrade(shared);
    shared.metrics.register(name, move || {
        w.upgrade().map(|s| rows(&s)).unwrap_or_default()
    });
}

/// Register the sources that exist from birth. Each source is its counter
/// set's generated rows plus the few rows derived from other state.
fn register_core_metrics(shared: &Arc<Shared>) {
    register_source(shared, "buffer", |s| {
        // Metrics report lifetime totals regardless of how many measurement
        // epochs the benchmark harness has opened on the same counters.
        let b = s.buffer.stats.lifetime_snapshot();
        let mut rows = b.metric_rows();
        rows.extend([
            row("shards", MetricValue::U64(s.buffer.shard_count() as u64)),
            row("epoch", MetricValue::U64(s.buffer.stats.epoch())),
            row("used_bytes", MetricValue::U64(s.buffer.used_bytes() as u64)),
            row("demand_fraction", MetricValue::F64(b.demand_fraction())),
        ]);
        rows
    });
    register_source(shared, "txn", |s| {
        let max_key = s.mx.coordinator.keygen().map(|k| k.max_allocated());
        vec![
            row("active", MetricValue::U64(s.txns.active_count() as u64)),
            row(
                "committed_chain",
                MetricValue::U64(s.txns.chain_len() as u64),
            ),
            row("commit_seq", MetricValue::U64(s.txns.current_seq())),
            row("max_allocated_key", MetricValue::U64(max_key.unwrap_or(0))),
        ]
    });
    register_source(shared, "gc", |s| s.txns.gc_stats().metric_rows());
    register_source(shared, "pack", |s| {
        let composites = s.txns.composites();
        let mean_live = composites.mean_live_fraction_at_claim();
        let mut rows = s.pack_stats.snapshot().metric_rows();
        rows.extend(composites.stats().metric_rows());
        rows.extend([
            row("mean_live_fraction_at_claim", MetricValue::F64(mean_live)),
            row("composites_live", MetricValue::U64(composites.len() as u64)),
        ]);
        rows
    });
    register_source(shared, "io", |s| s.io_stats.snapshot().metric_rows());
    register_source(shared, "scan", |s| {
        let mut rows = s.scan_stats.snapshot().metric_rows();
        rows.push(row(
            "gets_saved",
            MetricValue::U64(s.scan_stats.gets_saved()),
        ));
        rows
    });
    // Always registered — with the durable log off the upload counters
    // read zero — so the exported key set is stable.
    register_source(shared, "log", |s| {
        let mut rows = vec![row("records", MetricValue::U64(s.log.len() as u64))];
        let durable = s.durable_log.as_ref().map(|d| d.stats());
        rows.extend(durable.unwrap_or_default().metric_rows());
        rows.extend(s.log_recovery.snapshot().metric_rows());
        rows
    });
}

/// The flattened metric values for one device's request ledger (current
/// epoch only — the archived epochs are reachable via
/// `DeviceStats::lifetime_snapshot`).
fn device_rows(stats: &iq_objectstore::DeviceStats) -> Rows {
    let snap = stats.snapshot();
    vec![
        row("total_requests", MetricValue::U64(snap.total_requests)),
        row("retries", MetricValue::U64(snap.retries)),
        row("backoff_nanos", MetricValue::U64(snap.backoff_nanos)),
        row("prefix_count", MetricValue::U64(snap.prefix_count)),
        row(
            "effective_prefixes",
            MetricValue::F64(snap.effective_prefixes),
        ),
        row("mean_queue_depth", MetricValue::F64(snap.mean_queue_depth)),
        row("max_queue_depth", MetricValue::U64(snap.max_queue_depth)),
        row("epoch", MetricValue::U64(stats.epoch())),
    ]
}

/// Register a cloud store's device ledger under `dbspace.<id>`.
fn register_store_metrics(registry: &MetricsRegistry, id: u32, store: &Arc<ObjectStoreSim>) {
    let s = Arc::clone(store);
    registry.register(&format!("dbspace.{id}"), move || device_rows(&s.stats));
}

/// Register a block device's ledger under `dbspace.<id>`.
fn register_device_metrics(registry: &MetricsRegistry, id: u32, device: &Arc<BlockDeviceSim>) {
    let d = Arc::clone(device);
    registry.register(&format!("dbspace.{id}"), move || device_rows(&d.stats));
}

/// Register the OCM's Table-5 counters and its SSD ledger.
fn register_ocm_metrics(registry: &MetricsRegistry, ocm: &Arc<Ocm>, ssd: &Arc<BlockDeviceSim>) {
    let o = Arc::clone(ocm);
    registry.register("ocm", move || {
        let snap = o.stats_snapshot();
        let mut rows = snap.metric_rows();
        rows.extend([
            row("hit_rate", MetricValue::F64(snap.hit_rate())),
            row(
                "cached_objects",
                MetricValue::U64(o.cached_objects() as u64),
            ),
        ]);
        rows
    });
    let d = Arc::clone(ssd);
    registry.register("ocm_ssd", move || device_rows(&d.stats));
}

/// RAII release of compaction claims (see [`Database::compact_tick`]):
/// dropping the guard returns every claimed composite to the
/// GC/compaction candidate pool, on success, error, and panic paths
/// alike. `release_claims` is idempotent per round, and the guard is
/// the only releaser, so claims resolve exactly once.
struct ClaimGuard {
    registry: Arc<iq_txn::CompositeRegistry>,
    keys: Vec<ObjectKey>,
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        self.registry.release_claims(&self.keys);
    }
}

/// Range provider for reader nodes: always refuses.
struct DenyAllocation;

impl RangeProvider for DenyAllocation {
    fn allocate_range(&self, node: NodeId, _size: u64) -> IqResult<iq_txn::KeyRange> {
        Err(IqError::Invalid(format!(
            "node {node} is a reader; reader nodes cannot allocate object keys"
        )))
    }
}

/// The cloud-native database instance.
///
/// # Examples
///
/// ```
/// use iq_core::{Database, DatabaseConfig};
/// use iq_common::TableId;
/// use iq_engine::table::{Schema, TableMeta, TableWriter};
/// use iq_engine::value::{DataType, Value};
///
/// # fn main() -> iq_common::IqResult<()> {
/// let db = Database::create(DatabaseConfig::test_small())?;
/// let space = db.create_cloud_dbspace("sales")?; // CREATE DBSPACE ... USING OBJECT STORE
/// db.create_table(TableId(1), space)?;
///
/// let schema = Schema::new(&[("id", DataType::I64), ("amount", DataType::F64)]);
/// let mut meta = TableMeta::new(TableId(1), "sales", schema, 64);
/// let txn = db.begin();
/// {
///     let pager = db.pager(txn)?;
///     let meter = db.meter().clone();
///     let mut w = TableWriter::new(&mut meta, &pager, txn, &meter);
///     for i in 0..100 {
///         w.append_row(&[Value::I64(i), Value::F64(i as f64)])?;
///     }
///     w.finish()?;
/// }
/// db.commit(txn)?; // FlushForCommit -> blockmap cascade -> identity object
///
/// let rtxn = db.begin();
/// let pager = db.pager(rtxn)?;
/// let out = meta.scan(&pager, &[0], None, db.meter())?;
/// assert_eq!(out.len(), 100);
/// db.rollback(rtxn)?;
///
/// // The paper's invariant: no object key was ever written twice.
/// assert_eq!(db.cloud_store(space).unwrap().max_write_count(), 1);
/// # Ok(())
/// # }
/// ```
pub struct Database {
    shared: Arc<Shared>,
    next_space: AtomicU32,
    next_table: AtomicU32,
}

impl Database {
    /// Create a fresh database: the open of an empty durable state (a
    /// blank system dbspace, an empty log, no backends). The empty
    /// catalog is persisted from birth, so a database that never ran DDL
    /// still reopens.
    pub fn create(config: DatabaseConfig) -> IqResult<Self> {
        let block = config.storage.block_size();
        let durable = DurableState {
            system: Arc::new(BlockDeviceSim::new(
                block,
                config.system_bytes / block as u64,
            )),
            log: Arc::new(TxnLog::new()),
            cloud_stores: HashMap::new(),
            block_devices: HashMap::new(),
            log_store: None,
        };
        let db = Self::open(durable, Catalog::default(), config)?;
        db.shared
            .catalog
            .lock()
            .save(db.shared.system.as_ref(), BlockNum(0))?;
        Ok(db)
    }

    /// Reopen a database from its durable state: reload the catalog,
    /// rebuild dbspaces and tables from their definitions and identity
    /// objects, recover the Object Key Generator by log replay (§3.2),
    /// restore conventional freelists from the last checkpoint plus
    /// committed RF/RB bitmaps (§3.3), and garbage collect every
    /// outstanding active-set range — transactions in flight at power-off
    /// can never commit.
    pub fn reopen(durable: DurableState, config: DatabaseConfig) -> IqResult<Self> {
        let catalog = Catalog::load(durable.system.as_ref(), BlockNum(0))?;
        Self::open(durable, catalog, config)
    }

    /// The one construction path: build the volatile shell around the
    /// durable parts, then rebuild everything `catalog` and the log
    /// describe. Over an empty state (what [`Self::create`] passes) every
    /// replay step is a no-op.
    fn open(durable: DurableState, catalog: Catalog, config: DatabaseConfig) -> IqResult<Self> {
        let DurableState {
            system,
            log,
            cloud_stores,
            block_devices,
            log_store,
        } = durable;
        // When the previous life mirrored the log durably, the durable
        // stream is authoritative for commits: reconcile the in-memory
        // log against it BEFORE any replay consumer runs (OKG recovery,
        // freelist restore, composite rebuild) — an un-durable commit
        // must not resurrect.
        let recovery = match &log_store {
            Some(store) => crate::log_recovery::reconcile(&log, store)?,
            None => crate::log_recovery::RecoveryReport::default(),
        };
        let block = config.storage.block_size();
        let ssd = Arc::new(BlockDeviceSim::new(
            block,
            (config.ocm_bytes / block as u64).max(1),
        ));
        let mx = Multiplex::new(Arc::clone(&log), config.writers, config.readers);
        // Recover the key generator from the (reconciled) log before
        // serving; over an empty log this is a fresh generator.
        mx.coordinator.recover();
        let immediate_sink = Arc::new(DatabaseSink::new());
        let snapshots = config.retention.map(|r| Arc::new(SnapshotManager::new(r)));
        let gc_sink: Arc<dyn DeletionSink> = match &snapshots {
            Some(sm) => Arc::new(RetainingSink::new(
                Arc::clone(sm),
                Arc::clone(&immediate_sink) as Arc<dyn DeletionSink>,
            )),
            None => Arc::clone(&immediate_sink) as Arc<dyn DeletionSink>,
        };
        let keygen = mx.coordinator.keygen()?;
        let txns = TransactionManager::new(Arc::clone(&log), Some(keygen));
        txns.set_gc_workers(config.scan_workers.max(1));
        let io_stats = Arc::new(IoStats::default());
        txns.set_io_stats(Arc::clone(&io_stats));
        let reactor = Arc::new(IoReactor::with_stats(Arc::clone(&io_stats)));
        // The log object may have survived a restart; bind (or drop) its
        // durability sink to match this instance's configuration.
        let durable_log = match config.group_commit {
            GroupCommitMode::Off => {
                log.clear_sink();
                None
            }
            mode => {
                let dl = match &log_store {
                    Some(sim) => {
                        // The log store survived: open a fresh stats epoch
                        // (like the other surviving backends, so
                        // post-recovery metrics exclude pre-crash log
                        // traffic) and resume key allocation above its
                        // live keys.
                        sim.stats.begin_epoch();
                        Arc::new(DurableLog::over_store(
                            mode,
                            Arc::clone(&reactor),
                            Some(Arc::clone(&io_stats)),
                            config.retry,
                            config.log_fault,
                            Arc::clone(sim),
                        ))
                    }
                    None => {
                        let dl = Arc::new(DurableLog::new(
                            mode,
                            Arc::clone(&reactor),
                            Some(Arc::clone(&io_stats)),
                            config.retry,
                            config.log_fault,
                        ));
                        // Uploads enabled over a log with history (a
                        // reopen that turns them on): mirror it so the
                        // durable stream stays a superset of memory
                        // (otherwise the next reconciliation would drop
                        // every pre-existing commit). An empty log issues
                        // no PUT.
                        dl.bootstrap(&log.all_records())?;
                        dl
                    }
                };
                log.set_sink(Arc::clone(&dl) as Arc<dyn iq_txn::LogSink>);
                Some(dl)
            }
        };
        let shared = Arc::new(Shared {
            buffer: BufferManager::with_options(config.buffer_bytes, buffer_options(&config)),
            txns,
            mx,
            meter: Arc::new(WorkMeter::new()),
            ocm: Mutex::new(None),
            ssd,
            spaces: RwLock::new(HashMap::new()),
            cloud_stores: RwLock::new(HashMap::new()),
            fault_injectors: RwLock::new(HashMap::new()),
            block_devices: RwLock::new(HashMap::new()),
            tables: RwLock::new(HashMap::new()),
            key_caches: Mutex::new(HashMap::new()),
            snapshots,
            gc_sink,
            immediate_sink,
            catalog: Mutex::new(catalog),
            system,
            log,
            config,
            metrics: Arc::new(MetricsRegistry::new()),
            pack_stats: PackStats::default(),
            io_stats,
            scan_stats: Arc::new(ScanStats::default()),
            reactor,
            durable_log,
            log_recovery: LogRecoveryStats::default(),
        });
        shared.log_recovery.record(&recovery);
        register_core_metrics(&shared);
        let db = Self {
            shared,
            next_space: AtomicU32::new(1),
            next_table: AtomicU32::new(1),
        };

        // Rebuild dbspaces from their catalog definitions over the
        // surviving backends. Each backend (and its request ledger)
        // survives the restart; open a fresh stats epoch so post-restart
        // traffic is accounted separately while the archived epochs
        // remain reachable via `lifetime_snapshot`.
        let defs: Vec<DbSpaceDef> = db
            .shared
            .catalog
            .lock()
            .get_section("dbspaces")?
            .unwrap_or_default();
        for def in &defs {
            let id = DbSpaceId(def.id);
            let storage = iq_storage::StorageConfig {
                page_size: def.page_size,
            };
            if def.cloud {
                let store = cloud_stores
                    .get(&def.id)
                    .cloned()
                    .ok_or_else(|| IqError::Catalog(format!("missing store for {}", def.name)))?;
                store.stats.begin_epoch();
                db.attach_cloud(id, &def.name, storage, store);
            } else {
                let device = block_devices
                    .get(&def.id)
                    .cloned()
                    .ok_or_else(|| IqError::Catalog(format!("missing device for {}", def.name)))?;
                device.stats.begin_epoch();
                db.attach_conventional(id, &def.name, storage, device)?;
            }
            db.next_space.fetch_max(def.id + 1, Ordering::Relaxed);
        }

        // Restore conventional freelists: last checkpoint image, then
        // committed RF/RB bitmaps replayed in order (§3.3).
        let mut checkpoint_freelists: Option<std::collections::BTreeMap<u32, Vec<u8>>> = None;
        let mut commit_bitmaps = Vec::new();
        for record in db.shared.log.replay_suffix() {
            match record {
                iq_txn::LogRecord::Checkpoint { freelists, .. } => {
                    checkpoint_freelists = Some(freelists);
                    commit_bitmaps.clear();
                }
                iq_txn::LogRecord::Commit { rfrb, .. } => commit_bitmaps.push(rfrb),
                iq_txn::LogRecord::AllocateRange { .. } => {}
            }
        }
        if let Some(images) = checkpoint_freelists {
            for (space_id, image) in images {
                if let Ok(space) = db.shared.space(DbSpaceId(space_id)) {
                    space.restore_freelist(&image)?;
                }
            }
        }
        for rfrb in &commit_bitmaps {
            for (space_id, start, count) in rfrb.rb.iter_blocks() {
                if let Ok(space) = db.shared.space(space_id) {
                    space.with_freelist(|f| f.mark_used(start, count as u32));
                }
            }
            for (space_id, start, count) in rfrb.rf.iter_blocks() {
                if let Ok(space) = db.shared.space(space_id) {
                    space.with_freelist(|f| f.free(start, count as u32));
                }
            }
        }

        // Rebuild the composite registry from the same suffix: member
        // layouts first (registration precedes any member free in commit
        // order), then the recorded member deaths. A composite the
        // pre-crash GC already reclaimed re-registers, re-dies, and hits
        // an idempotent delete — self-healing, never a double free.
        let composites = db.shared.txns.composites();
        for rfrb in &commit_bitmaps {
            for (&off, members) in &rfrb.packs {
                composites.register(ObjectKey::from_offset(off), members);
            }
        }
        for rfrb in &commit_bitmaps {
            for (&off, ranges) in &rfrb.rf.members {
                for &(member_off, _len) in ranges {
                    composites.mark_member_dead(off, member_off);
                }
            }
        }

        // Rebuild tables from definitions + identity objects.
        let table_defs: Vec<TableDef> = db
            .shared
            .catalog
            .lock()
            .get_section("tables")?
            .unwrap_or_default();
        for def in &table_defs {
            let identity = db.shared.catalog.lock().identity(TableId(def.id)).copied();
            let ts = match identity {
                Some(identity) => {
                    Arc::new(TableStore::from_identity(identity, DbSpaceId(def.space)))
                }
                None => Arc::new(TableStore::new(
                    TableId(def.id),
                    DbSpaceId(def.space),
                    db.shared.config.blockmap_fanout,
                )),
            };
            db.shared.tables.write().insert(def.id, ts);
            db.next_table.fetch_max(def.id + 1, Ordering::Relaxed);
        }

        // Transactions in flight at power-off can never commit: poll
        // every node's outstanding active set for garbage (§3.3,
        // Table 1 clock 150 — applied to every node on full restart).
        let keygen = db.shared.mx.coordinator.keygen()?;
        let nodes: Vec<u32> = (0..=db.shared.config.writers + db.shared.config.readers).collect();
        for node in nodes {
            let set = keygen.drain_active_set(NodeId(node));
            for off in set.iter() {
                let key = ObjectKey::from_offset(off);
                for space in db.shared.spaces.read().values() {
                    if space.is_cloud() && space.poll_delete(key)? {
                        break;
                    }
                }
            }
        }
        Ok(db)
    }

    /// Shared state (for advanced integrations and tests).
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Work meter.
    pub fn meter(&self) -> &Arc<WorkMeter> {
        &self.shared.meter
    }

    // ------------------------------------------------------------------
    // Dbspaces
    // ------------------------------------------------------------------

    /// `CREATE DBSPACE name USING OBJECT STORE "s3://…"` (§3). The first
    /// cloud dbspace gets the OCM bound to it (when `ocm_bytes > 0`).
    pub fn create_cloud_dbspace(&self, name: &str) -> IqResult<DbSpaceId> {
        self.create_cloud_dbspace_with(name, self.shared.config.storage)
    }

    /// Create a cloud dbspace with a custom page size — the paper's third
    /// future-work item (§8): "the requirement of having a unified page
    /// size across the whole database was primarily driven by the
    /// characteristics of shared block devices that do not necessarily
    /// apply to object stores." Each dbspace seals and reads its own
    /// geometry; tables on different dbspaces can tune page size to their
    /// update pattern.
    pub fn create_cloud_dbspace_with(
        &self,
        name: &str,
        storage: iq_storage::StorageConfig,
    ) -> IqResult<DbSpaceId> {
        let id = DbSpaceId(self.next_space.fetch_add(1, Ordering::Relaxed));
        let store = Arc::new(ObjectStoreSim::new(self.shared.config.consistency.clone()));
        self.attach_cloud(id, name, storage, store);
        self.persist_ddl()?;
        Ok(id)
    }

    /// Open a read-only view over a past snapshot without restoring the
    /// database (the paper's first future-work item, §8). The view
    /// resolves pages from the snapshot's identity objects; retained
    /// pages guarantee they are still on the store.
    pub fn snapshot_view(&self, id: u64) -> IqResult<crate::view::SnapshotView> {
        crate::view::SnapshotView::open(Arc::clone(&self.shared), id)
    }

    /// Create a conventional dbspace over a simulated block volume.
    pub fn create_conventional_dbspace(&self, name: &str, bytes: u64) -> IqResult<DbSpaceId> {
        let id = DbSpaceId(self.next_space.fetch_add(1, Ordering::Relaxed));
        let block = self.shared.config.storage.block_size();
        let device = Arc::new(BlockDeviceSim::new(block, bytes / block as u64));
        self.attach_conventional(id, name, self.shared.config.storage, device)?;
        self.persist_ddl()?;
        Ok(id)
    }

    /// Attach a cloud dbspace over `store`, new or surviving a restart.
    /// The client-side stack is always built fresh (a restarted node is
    /// healed). The first cloud dbspace gets the OCM bound to it, cold.
    fn attach_cloud(
        &self,
        id: DbSpaceId,
        name: &str,
        storage: iq_storage::StorageConfig,
        store: Arc<ObjectStoreSim>,
    ) {
        let shared = &self.shared;
        shared.cloud_stores.write().insert(id.0, Arc::clone(&store));
        register_store_metrics(&shared.metrics, id.0, &store);
        // With a fault plan configured, every path to the store — dbspace
        // reads/writes, OCM uploads, GC polls — goes through the injector.
        // The concrete sim stays reachable for invariant checks.
        let backend: Arc<dyn ObjectBackend> = match shared.config.fault {
            Some(plan) => {
                let injector = Arc::new(FaultInjector::new(store, plan));
                shared
                    .fault_injectors
                    .write()
                    .insert(id.0, Arc::clone(&injector));
                injector
            }
            None => store,
        };
        // Route every path to this store — dbspace reads/writes, OCM
        // uploads, GC deletes — through the shared submission/completion
        // reactor. Retry attempts submit individual descriptors, so
        // per-descriptor fault injection falls out of the stacking
        // order: retry → reactor → injector → sim.
        let backend: Arc<dyn ObjectBackend> =
            Arc::new(ReactorStore::new(Arc::clone(&shared.reactor), backend));
        let space = Arc::new(DbSpace::cloud(
            id,
            name,
            storage,
            Arc::clone(&backend),
            shared.config.retry,
        ));
        shared.spaces.write().insert(id.0, Arc::clone(&space));
        shared.immediate_sink.register(space);
        let mut ocm = shared.ocm.lock();
        if ocm.is_none() && shared.config.ocm_bytes > 0 {
            let bound = Arc::new(Ocm::new(
                Arc::clone(&shared.ssd),
                backend,
                OcmConfig {
                    // Slots fit this dbspace's sealed page images.
                    slot_bytes: storage.page_size,
                    capacity_bytes: shared.config.ocm_bytes,
                    retry: shared.config.retry,
                    protected_fraction: shared.config.cache_protected_fraction,
                },
            ));
            register_ocm_metrics(&shared.metrics, &bound, &shared.ssd);
            *ocm = Some((id, bound));
        }
    }

    /// Attach a conventional dbspace over `device`, new or surviving a
    /// restart.
    fn attach_conventional(
        &self,
        id: DbSpaceId,
        name: &str,
        storage: iq_storage::StorageConfig,
        device: Arc<BlockDeviceSim>,
    ) -> IqResult<()> {
        let space = Arc::new(DbSpace::conventional(id, name, storage, device.clone())?);
        let shared = &self.shared;
        shared
            .block_devices
            .write()
            .insert(id.0, Arc::clone(&device));
        register_device_metrics(&shared.metrics, id.0, &device);
        shared.spaces.write().insert(id.0, Arc::clone(&space));
        shared.immediate_sink.register(space);
        Ok(())
    }

    /// The object store behind a cloud dbspace (stats, invariant checks).
    pub fn cloud_store(&self, id: DbSpaceId) -> Option<Arc<ObjectStoreSim>> {
        self.shared.cloud_stores.read().get(&id.0).cloned()
    }

    /// The fault injector wrapping a cloud dbspace's store, when
    /// `config.fault` is set (crash scripts arm cuts and read fault
    /// stats through this).
    pub fn fault_injector(&self, id: DbSpaceId) -> Option<Arc<FaultInjector>> {
        self.shared.fault_injectors.read().get(&id.0).cloned()
    }

    /// The OCM, if one is bound.
    pub fn ocm(&self) -> Option<Arc<Ocm>> {
        self.shared.ocm.lock().as_ref().map(|(_, o)| Arc::clone(o))
    }

    /// The instance-local SSD device backing the OCM.
    pub fn ssd(&self) -> &Arc<BlockDeviceSim> {
        &self.shared.ssd
    }

    /// A dbspace handle.
    pub fn dbspace(&self, id: DbSpaceId) -> IqResult<Arc<DbSpace>> {
        self.shared.space(id)
    }

    // ------------------------------------------------------------------
    // Tables
    // ------------------------------------------------------------------

    /// Register a table with an explicit id (must match the engine-side
    /// `TableMeta` id) on `space`.
    pub fn create_table(&self, table: TableId, space: DbSpaceId) -> IqResult<()> {
        self.shared.space(space)?; // must exist
        let ts = Arc::new(TableStore::new(
            table,
            space,
            self.shared.config.blockmap_fanout,
        ));
        self.shared.tables.write().insert(table.0, ts);
        self.next_table.fetch_max(table.0 + 1, Ordering::Relaxed);
        self.persist_ddl()?;
        Ok(())
    }

    /// `DROP TABLE`: the current version's pages (data + blockmap) are
    /// recorded in a transaction's RF bitmap and die through normal chain
    /// GC — or into the retention FIFO, which keeps dropped tables
    /// restorable from earlier snapshots.
    pub fn drop_table(&self, table: TableId) -> IqResult<()> {
        let ts = self.shared.table_store(table)?;
        let txn = self.begin();
        let space = self.shared.space(ts.space)?;
        let keys = self.shared.key_cache(NodeId(0))?;
        if let Some(identity) = ts.identity() {
            let io = iq_storage::PageIo {
                space: &space,
                keys: keys.as_ref(),
            };
            let mut bm = iq_storage::Blockmap::open(identity.fanout as usize, identity.root, &io)?;
            for loc in bm.live_data_locators(&io)? {
                self.shared.txns.record_free(txn, ts.space, loc)?;
            }
            for loc in bm.live_node_locators() {
                self.shared.txns.record_free(txn, ts.space, loc)?;
            }
        }
        self.shared.txns.commit(txn, self.shared.gc_sink.as_ref())?;
        self.shared.tables.write().remove(&table.0);
        {
            let mut catalog = self.shared.catalog.lock();
            catalog.remove_identity(table);
            catalog.sections.remove(&format!("table-meta/{}", table.0));
        }
        self.persist_ddl()?;
        Ok(())
    }

    /// Persist an engine-side `TableMeta` in the catalog (schema, row
    /// groups, dictionaries, zone maps) so a restore can reconstruct it.
    pub fn save_table_meta(&self, meta: &TableMeta) -> IqResult<()> {
        let mut catalog = self.shared.catalog.lock();
        catalog.put_section(&format!("table-meta/{}", meta.id.0), meta)?;
        catalog.save(self.shared.system.as_ref(), BlockNum(0))?;
        Ok(())
    }

    /// Load a persisted engine-side `TableMeta`.
    pub fn load_table_meta(&self, table: TableId) -> IqResult<Option<TableMeta>> {
        self.shared
            .catalog
            .lock()
            .get_section(&format!("table-meta/{}", table.0))
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction on the coordinator (node 0).
    pub fn begin(&self) -> TxnId {
        self.shared.txns.begin(NodeId(0))
    }

    /// Begin a transaction on a specific node.
    pub fn begin_on(&self, node: NodeId) -> IqResult<TxnId> {
        if node.0 != 0 {
            let secondary = self
                .shared
                .mx
                .secondary(node)
                .ok_or_else(|| IqError::NotFound(format!("node {node}")))?;
            if !secondary.is_up() {
                return Err(IqError::NodeDown(format!("node {node}")));
            }
        }
        Ok(self.shared.txns.begin(node))
    }

    /// A [`Pager`] bound to `txn` (implements the engine's `PageStore`).
    pub fn pager(&self, txn: TxnId) -> IqResult<Pager> {
        let node = self.shared.txns.node_of(txn)?;
        let keys = self.shared.key_cache(node)?;
        Ok(Pager {
            shared: Arc::clone(&self.shared),
            txn,
            keys,
        })
    }

    /// Commit: flush dirty pages (write-through at the OCM), run the
    /// Figure 2 blockmap cascade, install identities, drain the OCM write
    /// queue, log the RF/RB bitmaps, and garbage collect what the chain
    /// allows. Returns the commit sequence.
    pub fn commit(&self, txn: TxnId) -> IqResult<u64> {
        // Group commit: register as an expected committer *before* any
        // flushing, so a gather leader holds its batch open for us. The
        // guard deregisters on every early-error path (rollback).
        let _commit_window = self.shared.durable_log.as_ref().map(|dl| dl.enter_commit());
        let pager = self.pager(txn)?;
        // FlushForCommit semantics: the OCM prioritizes this transaction
        // and upgrades its writes to write-through from here on.
        if let Some((_, ocm)) = self.shared.ocm.lock().as_ref() {
            // Signal first so buffered flushes below go write-through.
            ocm.flush_for_commit(txn).inspect_err(|_e| {
                let _ = self.rollback_inner(txn, true);
            })?;
        }
        // Fan the uploads across the I/O core — packed into composite
        // objects of up to `pack_pages` pages (one PUT per group); the
        // buffer lock is no longer held across object-store writes.
        let flush_io = IoCore::new(self.shared.config.scan_workers.max(1))
            .with_stats(Arc::clone(&self.shared.io_stats));
        self.shared
            .buffer
            .flush_txn(txn, &pager, &flush_io, self.shared.config.pack_pages.max(1))
            .inspect_err(|_| {
                let _ = self.rollback_inner(txn, true);
            })?;

        // Blockmap cascade + identity installation per written table. A
        // failure anywhere in the cascade (blockmap uploads go to the
        // same store) must also roll the transaction back (§4) — leaving
        // it active would strand its dirty frames and RF/RB state.
        let version = self.shared.catalog.lock().bump_version();
        let cascade = || -> IqResult<()> {
            let tables: Vec<Arc<TableStore>> =
                self.shared.tables.read().values().cloned().collect();
            for ts in tables {
                if !ts.written_by(txn) {
                    continue;
                }
                let space = self.shared.space(ts.space)?;
                let io = iq_storage::PageIo {
                    space: &space,
                    keys: pager.keys.as_ref(),
                };
                if let Some((identity, superseded, written)) = ts.commit(txn, version, 0, &io)? {
                    for loc in written {
                        self.shared.txns.record_alloc(txn, ts.space, loc)?;
                    }
                    for loc in superseded {
                        self.shared.txns.record_free(txn, ts.space, loc)?;
                    }
                    // Identity objects update in place in the catalog (§3.1).
                    self.shared.catalog.lock().set_identity(identity);
                }
            }
            Ok(())
        };
        cascade().inspect_err(|_| {
            let _ = self.rollback_inner(txn, true);
        })?;
        // Drain this transaction's asynchronous uploads; failure forces
        // rollback (§4).
        if let Some((_, ocm)) = self.shared.ocm.lock().as_ref() {
            ocm.flush_for_commit(txn).inspect_err(|_e| {
                let _ = self.rollback_inner(txn, true);
            })?;
        }
        // Deferred GC: the commit only moves the transaction onto the
        // committed chain. Reclamation runs through the budgeted driver
        // ([`Self::gc_tick`] / [`Self::gc_drain`]), so commit latency no
        // longer includes the deletion fan-out.
        //
        // `commit_deferred` appends the commit record durably: if the
        // durable-log PUT fails past its retry budget, the commit fails
        // here and rolls back exactly like a blockmap-cascade failure.
        let seq = self.shared.txns.commit_deferred(txn).inspect_err(|_| {
            let _ = self.rollback_inner(txn, true);
        })?;
        self.shared
            .catalog
            .lock()
            .save(self.shared.system.as_ref(), BlockNum(0))?;
        if let Some((_, ocm)) = self.shared.ocm.lock().as_ref() {
            ocm.end_txn(txn);
        }
        Ok(seq)
    }

    /// Roll back: discard dirty frames and working blockmaps, delete the
    /// transaction's RB pages immediately. The coordinator is not
    /// notified (§3.3's optimization) — its active set still covers the
    /// keys, which is harmless.
    pub fn rollback(&self, txn: TxnId) -> IqResult<()> {
        self.rollback_inner(txn, false)
    }

    fn rollback_inner(&self, txn: TxnId, already_failed: bool) -> IqResult<()> {
        self.shared.buffer.discard_txn(txn);
        for ts in self.shared.tables.read().values() {
            ts.rollback(txn);
        }
        let ocm = self.shared.ocm.lock().as_ref().map(|(_, o)| Arc::clone(o));
        if let Some(ocm) = ocm {
            ocm.quiesce();
            ocm.end_txn(txn);
        }
        let res = self
            .shared
            .txns
            .rollback(txn, self.shared.immediate_sink.as_ref());
        if already_failed {
            let _ = res;
            Ok(())
        } else {
            res
        }
    }

    /// Run one budgeted garbage-collection pass over the committed chain,
    /// consuming at most `budget` eligible entries. Commits defer
    /// reclamation to this driver, so deletion cost is paid here — as
    /// deduped, coalesced, worker-pool-parallel multi-object deletes —
    /// instead of inline on the commit path. Returns pages reclaimed
    /// (first-time only; requeued retries never double-count).
    pub fn gc_tick(&self, budget: usize) -> IqResult<usize> {
        self.shared
            .txns
            .gc_tick_budget(self.shared.gc_sink.as_ref(), budget)
    }

    /// Drain every currently-eligible chain entry in one batched pass.
    /// Eligibility depends only on the active-transaction horizon, so a
    /// single unbounded pass reaches everything a loop would.
    pub fn gc_drain(&self) -> IqResult<usize> {
        self.gc_tick(usize::MAX)
    }

    /// Run one budgeted compaction round over sparse composites: claim up
    /// to `max_composites` composites whose live fraction has dropped to
    /// `live_threshold` or below, rewrite their surviving members through
    /// the ordinary packed write path — fresh keys from the generator, so
    /// never-write-twice holds by construction — and commit. The rewrite
    /// supersedes each member's old ranged locator, so the donor
    /// composites turn fully dead and the next [`Self::gc_tick`] reclaims
    /// them as whole objects. Returns the number of members rewritten.
    ///
    /// Safety rule: a claimed member whose current committed locator is no
    /// longer the exact donor range is skipped *without* being touched —
    /// the page has moved on, and rewriting it would free the newer
    /// version out from under concurrent readers.
    pub fn compact_tick(&self, live_threshold: f64, max_composites: usize) -> IqResult<usize> {
        let candidates = self
            .shared
            .txns
            .composites()
            .compaction_candidates(live_threshold, max_composites);
        if candidates.is_empty() {
            return Ok(0);
        }
        let claimed: Vec<ObjectKey> = candidates.iter().map(|(k, _)| *k).collect();
        // RAII: whatever happens inside this round — commit, rollback,
        // an error return, or a panic unwinding out of the rewrite
        // closure — the claims resolve exactly once. A leaked claim
        // would hide the composite from GC and compaction forever.
        let _claims = ClaimGuard {
            registry: Arc::clone(self.shared.txns.composites()),
            keys: claimed,
        };
        let txn = self.begin();
        let run = || -> IqResult<usize> {
            let pager = self.pager(txn)?;
            let mut rewritten = 0usize;
            for (key, live) in &candidates {
                let mut this_rewritten = 0u64;
                let mut this_stale = 0u64;
                for m in live {
                    let table = TableId(m.table);
                    let expect = iq_common::PhysicalLocator::ObjectRange {
                        key: *key,
                        offset: m.offset,
                        len: m.len,
                    };
                    let current = {
                        let ts = self.shared.table_store(table)?;
                        let space = self.shared.space(ts.space)?;
                        let pio = iq_storage::PageIo {
                            space: &space,
                            keys: pager.keys.as_ref(),
                        };
                        ts.resolve(txn, iq_common::PageId(m.page), &pio)?
                    };
                    if current != Some(expect) {
                        this_stale += 1;
                        continue;
                    }
                    let page = iq_engine::PageStore::read_page(
                        &pager,
                        table,
                        iq_common::PageId(m.page),
                        true,
                    )?;
                    iq_engine::PageStore::write_page(
                        &pager,
                        table,
                        iq_common::PageId(m.page),
                        page.kind,
                        page.body.clone(),
                        txn,
                    )?;
                    this_rewritten += 1;
                    rewritten += 1;
                }
                iq_common::trace::emit(iq_common::trace::EventKind::Compaction {
                    key: key.offset(),
                    rewritten: this_rewritten,
                    dead: this_stale,
                });
                self.shared
                    .pack_stats
                    .compaction_rewritten
                    .fetch_add(this_rewritten, Ordering::Relaxed);
                self.shared
                    .pack_stats
                    .compaction_stale_skips
                    .fetch_add(this_stale, Ordering::Relaxed);
            }
            Ok(rewritten)
        };
        let finished = match run() {
            Ok(n) if n > 0 => self.commit(txn).map(|_| n),
            Ok(_) => self.rollback(txn).map(|_| 0),
            Err(e) => {
                let _ = self.rollback_inner(txn, true);
                Err(e)
            }
        };
        // `_claims` drops here: on success the donors are now fully
        // dead and become GC-visible; on failure they go back into the
        // candidate pool.
        if let Ok(n) = &finished {
            if *n > 0 {
                self.shared
                    .pack_stats
                    .compactions
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        finished
    }

    /// Emit a checkpoint (key-generator state + freelists) to the log.
    pub fn checkpoint(&self) -> IqResult<()> {
        let mut freelists = std::collections::BTreeMap::new();
        for (id, space) in self.shared.spaces.read().iter() {
            if let Some(image) = space.freelist_image() {
                freelists.insert(*id, image);
            }
        }
        self.shared.mx.coordinator.keygen()?.checkpoint(freelists);
        self.shared.log.truncate_before_checkpoint()?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Crash simulation
    // ------------------------------------------------------------------

    /// Crash a writer node: its active transactions abort with their RB
    /// bitmaps lost; cleanup happens at restart via coordinator
    /// active-set polling (§3.3, Table 1).
    pub fn crash_writer(&self, node: NodeId) -> IqResult<Vec<TxnId>> {
        let secondary = self
            .shared
            .mx
            .secondary(node)
            .ok_or_else(|| IqError::NotFound(format!("node {node}")))?;
        if secondary.role != NodeRole::Writer {
            return Err(IqError::Invalid(format!("node {node} is not a writer")));
        }
        secondary.crash();
        self.shared.key_caches.lock().remove(&node.0);
        let aborted = self.shared.txns.abort_node(node);
        let ocm = self.shared.ocm.lock().as_ref().map(|(_, o)| Arc::clone(o));
        for &t in &aborted {
            self.shared.buffer.discard_txn(t);
            for ts in self.shared.tables.read().values() {
                ts.rollback(t);
            }
            if let Some(ocm) = &ocm {
                ocm.end_txn(t);
            }
        }
        Ok(aborted)
    }

    /// Restart a crashed writer: the coordinator polls the node's entire
    /// outstanding key range for garbage. Returns `(polled, deleted)`.
    pub fn restart_writer(&self, node: NodeId, cloud_space: DbSpaceId) -> IqResult<(u64, u64)> {
        let secondary = self
            .shared
            .mx
            .secondary(node)
            .ok_or_else(|| IqError::NotFound(format!("node {node}")))?;
        let space = self.shared.space(cloud_space)?;
        secondary.restart(&space)
    }

    /// Crash the coordinator (volatile key-generator state lost).
    pub fn crash_coordinator(&self) {
        self.shared.mx.coordinator.crash();
        self.shared.key_caches.lock().remove(&0);
    }

    /// Recover the coordinator by replaying the transaction log.
    pub fn recover_coordinator(&self) -> IqResult<()> {
        self.shared.mx.coordinator.recover();
        // The transaction manager keeps notifying the *recovered*
        // generator about commits.
        Ok(())
    }

    /// The coordinator's view of a node's active key set (tests).
    pub fn active_set(&self, node: NodeId) -> IqResult<iq_common::KeySet> {
        Ok(self.shared.mx.coordinator.keygen()?.active_set(node))
    }

    // ------------------------------------------------------------------
    // Snapshots (§5)
    // ------------------------------------------------------------------

    /// Take a near-instantaneous snapshot: catalog + snapshot-manager
    /// metadata only; cloud dbspaces are not copied. Returns the snapshot
    /// id.
    pub fn take_snapshot(&self) -> IqResult<u64> {
        let sm = self
            .shared
            .snapshots
            .as_ref()
            .ok_or_else(|| IqError::Invalid("retention disabled".into()))?;
        // Surrender every node's cached key range: all post-snapshot keys
        // are then strictly above the recorded watermark, making the
        // restore-time GC range exact (§5; burned keys cost nothing).
        for cache in self.shared.key_caches.lock().values() {
            cache.surrender();
        }
        // "Just like the user data, this list of metadata is also stored
        // on object stores" (§5): persist the retention FIFO to the first
        // cloud dbspace and anchor its key in the catalog.
        let fifo_anchor = {
            let spaces = self.shared.spaces.read();
            spaces.values().find(|s| s.is_cloud()).cloned()
        };
        if let Some(space) = fifo_anchor {
            let keys = self.shared.key_cache(NodeId(0))?;
            let key = sm.persist_fifo(&space, keys.as_ref())?;
            let mut catalog = self.shared.catalog.lock();
            catalog.put_section("snapshot-fifo", &key.offset())?;
            catalog.save(self.shared.system.as_ref(), BlockNum(0))?;
        }
        let max_key = self.shared.mx.coordinator.keygen()?.max_allocated();
        let catalog = self.shared.catalog.lock().clone();
        Ok(sm.take_snapshot(&catalog, max_key).id)
    }

    /// Point-in-time restore: reinstate the snapshot's catalog, drop RAM
    /// state, and garbage collect the keys created since the snapshot
    /// (computable thanks to monotone keys, §5). Returns keys deleted.
    pub fn restore_snapshot(&self, id: u64) -> IqResult<u64> {
        let sm = self
            .shared
            .snapshots
            .as_ref()
            .ok_or_else(|| IqError::Invalid("retention disabled".into()))?;
        let current_max = self.shared.mx.coordinator.keygen()?.max_allocated();
        let (catalog, gc_range) = sm.restore(id, current_max)?;
        // Reinstate identities; tables absent at snapshot time lose theirs.
        for ts in self.shared.tables.read().values() {
            ts.restore_identity(catalog.identity(ts.table).copied());
        }
        *self.shared.catalog.lock() = catalog;
        self.shared
            .catalog
            .lock()
            .save(self.shared.system.as_ref(), BlockNum(0))?;
        self.shared.buffer.clear();
        let mut deleted = 0;
        for space in self.shared.spaces.read().values() {
            if space.is_cloud() {
                let (_, d) = SnapshotManager::gc_key_range(space, gc_range)?;
                deleted += d;
            }
        }
        Ok(deleted)
    }

    /// Advance the retention clock.
    pub fn advance_clock(&self, d: SimDuration) {
        if let Some(sm) = &self.shared.snapshots {
            sm.advance_clock(d);
        }
    }

    /// Sweep expired retained pages. Returns pages permanently deleted.
    pub fn sweep_retention(&self) -> IqResult<usize> {
        match &self.shared.snapshots {
            Some(sm) => sm.sweep_expired(self.shared.immediate_sink.as_ref()),
            None => Ok(0),
        }
    }

    /// The snapshot manager (tests / benches).
    pub fn snapshot_manager(&self) -> Option<&Arc<SnapshotManager>> {
        self.shared.snapshots.as_ref()
    }

    /// Buffer-manager statistics.
    pub fn buffer_stats(&self) -> &iq_buffer::BufferStats {
        &self.shared.buffer.stats
    }

    /// Snapshot of the submission/completion I/O core's counters (the
    /// `io.*` metrics source).
    pub fn io_stats(&self) -> IoStatsSnapshot {
        self.shared.io_stats.snapshot()
    }

    /// Late-materialization scan counters (the `scan.*` metrics source;
    /// the `--prune` ablation reads GETs saved from here).
    pub fn scan_stats(&self) -> &Arc<ScanStats> {
        &self.shared.scan_stats
    }

    /// The durable transaction-log uploader, when `config.group_commit`
    /// is not `Off` (the group-commit ablation reads its counters).
    pub fn durable_log(&self) -> Option<&Arc<DurableLog>> {
        self.shared.durable_log.as_ref()
    }

    /// The shared in-memory transaction log (tests and the recovery
    /// bench compare it against the durable stream).
    pub fn txn_log(&self) -> &Arc<TxnLog> {
        &self.shared.log
    }

    /// The unified metrics registry. Subsystems register named sources at
    /// creation/reopen; external integrations may add their own.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// Flattened snapshot of every registered metrics source, keyed
    /// `"source.metric"` in sorted order.
    pub fn metrics(&self) -> std::collections::BTreeMap<String, MetricValue> {
        self.shared.metrics.snapshot()
    }

    /// The metrics snapshot as a stable, machine-readable JSON object
    /// (`repro --metrics` and the CI schema check consume this).
    pub fn metrics_json(&self) -> String {
        self.shared.metrics.to_json()
    }

    /// Aggregate monitoring snapshot across every layer of the stack.
    pub fn stats(&self) -> DatabaseStats {
        let b = self.shared.buffer.stats.lifetime_snapshot();
        let ocm = self.ocm().map(|o| o.stats_snapshot());
        let (cloud_objects, cloud_bytes, max_writes) = {
            let stores = self.shared.cloud_stores.read();
            let mut objects = 0;
            let mut bytes = 0;
            let mut writes = 0;
            for s in stores.values() {
                objects += s.object_count() as u64;
                bytes += iq_objectstore::ObjectBackend::resident_bytes(s.as_ref());
                writes = writes.max(s.max_write_count());
            }
            (objects, bytes, writes)
        };
        DatabaseStats {
            buffer_hits: b.hits,
            buffer_demand_misses: b.demand_misses,
            buffer_prefetched: b.prefetched,
            buffer_evictions: b.evictions,
            buffer_used_bytes: self.shared.buffer.used_bytes() as u64,
            ocm,
            cloud_objects,
            cloud_resident_bytes: cloud_bytes,
            max_key_writes: max_writes,
            active_txns: self.shared.txns.active_count() as u64,
            committed_chain: self.shared.txns.chain_len() as u64,
            retained_pages: self
                .shared
                .snapshots
                .as_ref()
                .map_or(0, |sm| sm.retained_count() as u64),
            max_allocated_key: self
                .shared
                .mx
                .coordinator
                .keygen()
                .map(|k| k.max_allocated())
                .unwrap_or(0),
        }
    }

    /// Poll-delete a specific object key everywhere (tests).
    pub fn poll_delete(&self, key: ObjectKey) -> IqResult<bool> {
        for space in self.shared.spaces.read().values() {
            if space.is_cloud() && space.poll_delete(key)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn persist_ddl(&self) -> IqResult<()> {
        // DDL is durable immediately: the catalog records dbspace and
        // table definitions and goes straight to the system dbspace.
        let defs: Vec<DbSpaceDef> = {
            let spaces = self.shared.spaces.read();
            let mut v: Vec<DbSpaceDef> = spaces
                .values()
                .map(|s| DbSpaceDef {
                    id: s.id.0,
                    name: s.name.clone(),
                    cloud: s.is_cloud(),
                    page_size: s.config.page_size,
                })
                .collect();
            v.sort_by_key(|d| d.id);
            v
        };
        let tables: Vec<TableDef> = {
            let tables = self.shared.tables.read();
            let mut v: Vec<TableDef> = tables
                .values()
                .map(|t| TableDef {
                    id: t.table.0,
                    space: t.space.0,
                })
                .collect();
            v.sort_by_key(|t| t.id);
            v
        };
        let mut catalog = self.shared.catalog.lock();
        catalog.put_section("dbspaces", &defs)?;
        catalog.put_section("tables", &tables)?;
        catalog.save(self.shared.system.as_ref(), BlockNum(0))?;
        Ok(())
    }

    /// "Power off" the instance: volatile state (buffer cache, OCM SSD
    /// contents, key caches, active transactions) is dropped; what
    /// survives is exactly what survives an EC2 stop — the system
    /// dbspace, the transaction log, and the storage backends.
    pub fn into_durable(self) -> DurableState {
        // Abort whatever was in flight, like a crash would.
        DurableState {
            system: Arc::clone(&self.shared.system),
            log: Arc::clone(&self.shared.log),
            cloud_stores: self.shared.cloud_stores.read().clone(),
            block_devices: self.shared.block_devices.read().clone(),
            // The durable-log *store* survives like any other backend;
            // the uploader wrapped around it is volatile.
            log_store: self
                .shared
                .durable_log
                .as_ref()
                .map(|dl| Arc::clone(dl.sim())),
        }
    }
}

/// Persisted definition of a dbspace (catalog section `"dbspaces"`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DbSpaceDef {
    /// Dbspace id.
    pub id: u32,
    /// User-visible name.
    pub name: String,
    /// Cloud (object store) vs conventional (block device).
    pub cloud: bool,
    /// Page size of the dbspace.
    pub page_size: u32,
}

/// Persisted definition of a table (catalog section `"tables"`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TableDef {
    /// Table id.
    pub id: u32,
    /// Dbspace the table lives on.
    pub space: u32,
}

/// One monitoring snapshot across the stack (see [`Database::stats`]).
#[derive(Debug, Clone, serde::Serialize)]
pub struct DatabaseStats {
    /// Buffer-manager cache hits.
    pub buffer_hits: u64,
    /// Buffer-manager demand misses (queries waited on these).
    pub buffer_demand_misses: u64,
    /// Pages loaded by the prefetcher.
    pub buffer_prefetched: u64,
    /// Buffer frames evicted.
    pub buffer_evictions: u64,
    /// RAM currently used by the buffer cache.
    pub buffer_used_bytes: u64,
    /// OCM counters, when an OCM is bound.
    pub ocm: Option<iq_ocm::OcmStatsSnapshot>,
    /// Objects resident across all cloud dbspaces.
    pub cloud_objects: u64,
    /// Bytes at rest across all cloud dbspaces.
    pub cloud_resident_bytes: u64,
    /// Maximum writes observed to any single key (must be ≤ 1).
    pub max_key_writes: u64,
    /// Transactions currently active.
    pub active_txns: u64,
    /// Committed transactions awaiting garbage collection.
    pub committed_chain: u64,
    /// Pages held by the snapshot manager's retention FIFO.
    pub retained_pages: u64,
    /// Largest object-key offset ever allocated.
    pub max_allocated_key: u64,
}

/// What survives an instance stop: the system dbspace, the transaction
/// log, and the storage backends. RAM and instance-store SSD do not.
pub struct DurableState {
    system: Arc<BlockDeviceSim>,
    log: Arc<TxnLog>,
    cloud_stores: HashMap<u32, Arc<ObjectStoreSim>>,
    block_devices: HashMap<u32, Arc<BlockDeviceSim>>,
    /// The durable-log store, when the previous life ran an uploader.
    /// Recovery reads the record stream back from here and a reopening
    /// uploader resumes key allocation above its live keys.
    log_store: Option<Arc<ObjectStoreSim>>,
}

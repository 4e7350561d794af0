//! Shared machinery: database set-up, the correctness oracle, the modeled
//! clock, and the statistics every workload reports.

use std::collections::BTreeMap;
use std::time::Instant;

use iq_bench::runner::{PhaseCapture, PowerRun, RunConfig};
use iq_common::{DbSpaceId, IqResult, MetricValue, SimDuration, TableId, TxnId};
use iq_core::{Database, DatabaseConfig};
use iq_engine::chunk::{Chunk, Col};
use iq_engine::table::TableMeta;
use iq_engine::{MemPageStore, OpExec, PageStore};
use iq_objectstore::timemodel::{DeviceLoad, PhaseLoad};
use iq_objectstore::{CostLedger, CostSummary, DeviceProfile, IoOp, StatsSnapshot};
use iq_ocm::OcmStatsSnapshot;
use iq_tpch::queries::{run_query, Ctx};
use iq_tpch::TpchDb;

/// Rows per row group, as in the repository's TPC-H power runs.
pub const ROW_GROUP: u32 = 4096;
/// Morsel-parallel scan and commit-flush workers: one per core of the
/// two-core host the benchmark was calibrated on, fixed so the workload
/// does not change with the host.
pub const SCAN_WORKERS: usize = 2;
/// The 22 TPC-H queries, in power-run order.
pub const QUERIES: std::ops::RangeInclusive<u32> = 1..=22;

/// A loaded TPC-H database on one cloud dbspace.
pub struct Loaded {
    /// The system under test.
    pub db: Database,
    /// Table metadata of the current committed version.
    pub tpch: TpchDb,
    /// The cloud dbspace every table lives on.
    pub space: DbSpaceId,
    /// Store resident bytes right after the load committed.
    pub resident_after_load: u64,
}

/// Configuration for a workload: the defaults with the benchmark's fixed
/// worker count, a RAM buffer of `buffer_bytes` (`None` keeps the
/// default 256 MiB) and no snapshot retention, so GC reclaims at once.
pub fn config(buffer_bytes: Option<usize>) -> DatabaseConfig {
    let mut cfg = DatabaseConfig {
        scan_workers: SCAN_WORKERS,
        retention: None,
        ..DatabaseConfig::default()
    };
    if let Some(b) = buffer_bytes {
        cfg.buffer_bytes = b;
    }
    cfg
}

/// Create a database, load TPC-H at `sf` from `seed`, commit, and drain
/// GC: the benchmark's set-up.
pub fn setup(cfg: DatabaseConfig, sf: f64, seed: u64) -> IqResult<Loaded> {
    let db = Database::create(cfg)?;
    let space = db.create_cloud_dbspace("tpch")?;
    for t in 1..=8u32 {
        db.create_table(TableId(t), space)?;
    }
    let txn = db.begin();
    let tpch = {
        let pager = db.pager(txn)?;
        TpchDb::load(sf, seed, &pager, txn, db.meter(), ROW_GROUP)?
    };
    db.commit(txn)?;
    db.gc_drain()?;
    quiesce(&db);
    let resident_after_load = db.dbspace(space)?.resident_bytes();
    Ok(Loaded {
        db,
        tpch,
        space,
        resident_after_load,
    })
}

/// Set-ups per run at least; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
/// Set-ups continue until they have taken this long in total, so a
/// small set-up is measured as often as a large one is long.
const SETUP_BUDGET_S: f64 = 2.0;
/// Set-ups per run at most.
const MAX_SETUPS: usize = 64;

/// Run `setup` repeatedly and keep the last result; returns it with the
/// median set-up time in seconds. Each earlier result is dropped before
/// the next set-up starts, so peak memory is one set-up's.
pub fn timed_setups<T>(mut setup: impl FnMut() -> IqResult<T>) -> IqResult<(T, f64)> {
    let mut secs = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while secs.len() < MIN_SETUPS
        || (start.elapsed().as_secs_f64() < SETUP_BUDGET_S && secs.len() < MAX_SETUPS)
    {
        drop(last.take());
        let t = Instant::now();
        let value = setup()?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    let value = last.expect("at least one set-up ran");
    Ok((value, median(&secs)))
}

/// Wait for the OCM's asynchronous work so counters are settled.
pub fn quiesce(db: &Database) {
    if let Some(ocm) = db.ocm() {
        ocm.quiesce();
    }
}

/// Empty every cache, as an instance restart does: the RAM buffer, the
/// OCM (instance storage is ephemeral) and the tables' resolved maps.
pub fn clear_caches(db: &Database) -> IqResult<()> {
    db.shared().buffer.clear();
    if let Some(ocm) = db.ocm() {
        ocm.clear_cache();
    }
    for t in 1..=8u32 {
        db.shared().table_store(TableId(t))?.invalidate_cache();
    }
    Ok(())
}

/// Query context over `store` with the operator fan-out of `store`.
pub fn ctx<'a>(
    tpch: &'a TpchDb,
    store: &'a dyn PageStore,
    db_meter: &'a iq_engine::WorkMeter,
) -> Ctx<'a> {
    Ctx {
        db: tpch,
        store,
        meter: db_meter,
        exec: OpExec::for_store(store),
        late_mat: true,
    }
}

// ----------------------------------------------------------------------
// Correctness oracle
// ----------------------------------------------------------------------

/// FNV-1a digest of a query result: column types, row count and every
/// value bit for bit (floats by their bit pattern).
pub fn digest(chunk: &Chunk) -> u64 {
    let mut h = Fnv::new();
    h.u64(chunk.len() as u64);
    for col in &chunk.cols {
        match col {
            Col::I64(v) => {
                h.u64(1);
                v.iter().for_each(|x| h.u64(*x as u64));
            }
            Col::F64(v) => {
                h.u64(2);
                v.iter().for_each(|x| h.u64(x.to_bits()));
            }
            Col::Str(v) => {
                h.u64(3);
                for s in v {
                    h.u64(s.len() as u64);
                    h.bytes(s.as_bytes());
                }
            }
            Col::Date(v) => {
                h.u64(4);
                v.iter().for_each(|x| h.u64(*x as u64));
            }
            Col::Bool(v) => {
                h.u64(5);
                v.iter().for_each(|x| h.u64(*x as u64));
            }
        }
    }
    h.finish()
}

/// Digest of a table's metadata (row groups, zone maps, dictionaries and
/// indexes): two loads or refreshes of the same rows produce equal digests.
pub fn meta_digest(meta: &TableMeta) -> u64 {
    let json = serde_json::to_vec(meta).expect("table metadata serializes");
    let mut h = Fnv::new();
    h.bytes(&json);
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The reference the storage stack is checked against: the same TPC-H
/// load on an in-memory page store, which has no buffer, OCM, object
/// store, packing or GC. Scans fan out like the system's (results are
/// identical at any worker count).
pub struct Reference {
    store: WideStore,
    meter: iq_engine::WorkMeter,
    /// Table metadata of the reference's current version.
    pub tpch: TpchDb,
}

impl Reference {
    /// Load TPC-H at `sf` from `seed` into memory.
    pub fn load(sf: f64, seed: u64) -> IqResult<Self> {
        let store = WideStore(MemPageStore::new());
        let meter = iq_engine::WorkMeter::new();
        let tpch = TpchDb::load(sf, seed, &store, TxnId(1), &meter, ROW_GROUP)?;
        Ok(Self { store, meter, tpch })
    }

    /// Digests of Q1..Q22 over the reference's current version.
    pub fn query_digests(&self) -> IqResult<Vec<u64>> {
        let c = ctx(&self.tpch, &self.store, &self.meter);
        QUERIES
            .map(|n| run_query(n, &c).map(|out| digest(&out)))
            .collect()
    }

    /// Replay RF1 with `refresh_seq`; returns the meta digests of the new
    /// orders and lineitem versions.
    pub fn rf1(&mut self, refresh_seq: u64) -> IqResult<[u64; 2]> {
        let (o, l, _) =
            iq_tpch::refresh::rf1(&self.tpch, &self.store, TxnId(1), &self.meter, refresh_seq)?;
        Ok(self.install(o, l))
    }

    /// Replay RF2; returns the meta digests of the new versions.
    pub fn rf2(&mut self) -> IqResult<[u64; 2]> {
        let (o, l, _) = iq_tpch::refresh::rf2(&self.tpch, &self.store, TxnId(1), &self.meter)?;
        Ok(self.install(o, l))
    }

    fn install(&mut self, orders: TableMeta, lineitem: TableMeta) -> [u64; 2] {
        self.tpch.orders = orders;
        self.tpch.lineitem = lineitem;
        [
            meta_digest(&self.tpch.orders),
            meta_digest(&self.tpch.lineitem),
        ]
    }
}

/// An in-memory page store that asks for the system's scan fan-out.
struct WideStore(MemPageStore);

impl PageStore for WideStore {
    fn read_page(
        &self,
        table: TableId,
        page: iq_common::PageId,
        demand: bool,
    ) -> IqResult<iq_storage::Page> {
        self.0.read_page(table, page, demand)
    }
    fn write_page(
        &self,
        table: TableId,
        page: iq_common::PageId,
        kind: iq_storage::PageKind,
        body: bytes::Bytes,
        txn: TxnId,
    ) -> IqResult<()> {
        self.0.write_page(table, page, kind, body, txn)
    }
    fn prefetch(&self, table: TableId, pages: &[iq_common::PageId]) -> IqResult<()> {
        self.0.prefetch(table, pages)
    }
    fn scan_parallelism(&self) -> usize {
        SCAN_WORKERS
    }
}

// ----------------------------------------------------------------------
// The modeled clock
// ----------------------------------------------------------------------

/// Folds captured device counters and `WorkMeter` units into `TimeModel`
/// seconds and request dollars at SF 1000, through the repository's own
/// `PowerRun` projection (`scale_phase`, then the paper's m5ad.24xlarge
/// compute profile and S3 + instance-store OCM devices).
pub struct ModeledClock {
    run: PowerRun,
}

/// Modeled cost of a span of work, at SF 1000.
#[derive(Debug, Clone, Copy, Default)]
pub struct Modeled {
    /// `TimeModel` seconds.
    pub seconds: f64,
    /// Store request dollars.
    pub request_usd: f64,
    /// Instance time plus requests plus the system volume, as Table 3
    /// prices a run.
    pub usd: f64,
}

impl ModeledClock {
    /// A clock projecting work done at `sf` to SF 1000.
    pub fn new(sf: f64) -> Self {
        let empty = PhaseCapture {
            name: String::new(),
            load: PhaseLoad::default(),
            rows: 0,
        };
        Self {
            run: PowerRun {
                config: RunConfig::paper_default(sf),
                load: empty,
                queries: Vec::new(),
                ocm_stats: OcmStatsSnapshot {
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                },
                resident_bytes: 0,
                input_bytes: 0,
                load_buckets: Vec::new(),
            },
        }
    }

    /// Fold phases into modeled time and dollars. Each phase folds on its
    /// own, as `PowerRun` folds each query.
    pub fn fold(&self, phases: &[PhaseCapture]) -> Modeled {
        let seconds: f64 = phases.iter().map(|p| self.run.phase_seconds(p)).sum();
        let refs: Vec<&PhaseCapture> = phases.iter().collect();
        let ledger: CostLedger = self.run.request_cost(&refs);
        // 80 GiB of gp2 for the system dbspaces, as Table 3 charges.
        let cost = CostSummary::for_run(
            &self.run.config.compute,
            1,
            SimDuration::from_secs_f64(seconds),
            &ledger,
            80,
        );
        Modeled {
            seconds,
            request_usd: ledger.request_usd(),
            usd: cost.total(),
        }
    }

    /// The SSD profile the OCM's device is charged at.
    fn ssd_profile(&self) -> DeviceProfile {
        DeviceProfile::local_nvme(self.run.config.compute.ssd_devices.max(1))
    }
}

/// Captures one phase's device counters and meter units. `begin` resets
/// the per-phase ledgers, as `PowerRun` does between queries.
pub struct PhaseProbe {
    meter_mark: u64,
}

impl PhaseProbe {
    /// Reset the store, SSD and buffer ledgers and mark the meter.
    pub fn begin(db: &Database, space: DbSpaceId) -> IqResult<Self> {
        db.dbspace(space)?.reset_backend_stats();
        db.ssd().stats.reset();
        db.buffer_stats().begin_epoch();
        Ok(Self {
            meter_mark: db.meter().total(),
        })
    }

    /// A phase spanning everything since the database was opened, whose
    /// ledgers all started empty.
    pub fn since_open() -> Self {
        Self { meter_mark: 0 }
    }

    /// Capture the phase since `begin`.
    pub fn end(
        self,
        db: &Database,
        space: DbSpaceId,
        clock: &ModeledClock,
        name: &str,
    ) -> IqResult<PhaseCapture> {
        quiesce(db);
        let user = db.dbspace(space)?.backend_stats();
        let ssd = db.ssd().stats.snapshot();
        let serial = db.buffer_stats().demand_fraction();
        let mut devices = vec![DeviceLoad {
            profile: DeviceProfile::s3(),
            snapshot: user,
            serial_read_fraction: serial,
        }];
        if ssd.total_requests > 0 {
            devices.push(DeviceLoad {
                profile: clock.ssd_profile(),
                snapshot: ssd,
                serial_read_fraction: serial,
            });
        }
        Ok(PhaseCapture {
            name: name.to_string(),
            load: PhaseLoad {
                devices,
                cpu_work: db.meter().since(self.meter_mark) as f64,
            },
            rows: 0,
        })
    }
}

/// Store request counters summed over captured phases (the user volume
/// and the OCM's SSD).
#[derive(Debug, Default, Clone, Copy)]
pub struct DeviceTotals {
    pub gets: u64,
    pub puts: u64,
    pub deletes: u64,
    pub get_bytes: u64,
    pub put_bytes: u64,
    pub retries: u64,
    pub backoff_nanos: u64,
    pub ssd_requests: u64,
}

impl DeviceTotals {
    /// Add one phase's counters.
    pub fn add(&mut self, phase: &PhaseCapture) {
        let Some(user) = phase.load.devices.first() else {
            return;
        };
        let s: &StatsSnapshot = &user.snapshot;
        self.gets += s.op(IoOp::Get).count;
        self.puts += s.op(IoOp::Put).count;
        self.deletes += s.op(IoOp::Delete).count;
        self.get_bytes += s.op(IoOp::Get).bytes;
        self.put_bytes += s.op(IoOp::Put).bytes;
        self.retries += s.retries;
        self.backoff_nanos += s.backoff_nanos;
        self.ssd_requests += phase
            .load
            .devices
            .get(1)
            .map_or(0, |d| d.snapshot.total_requests);
    }
}

// ----------------------------------------------------------------------
// Counters and statistics
// ----------------------------------------------------------------------

/// Accumulates deltas of `Database::metrics()` over measured spans; a
/// database that is reopened starts a new span.
#[derive(Default)]
pub struct CounterDeltas {
    totals: BTreeMap<String, f64>,
    levels: BTreeMap<String, f64>,
    open: Option<BTreeMap<String, MetricValue>>,
}

impl CounterDeltas {
    /// Start a span on `db`.
    pub fn open(&mut self, db: &Database) {
        quiesce(db);
        self.open = Some(db.metrics());
    }

    /// Close the span opened on `db`, adding its deltas.
    pub fn close(&mut self, db: &Database) {
        quiesce(db);
        let Some(before) = self.open.take() else {
            return;
        };
        for (name, after) in db.metrics() {
            if let (MetricValue::U64(a), Some(MetricValue::U64(b))) = (&after, before.get(&name)) {
                *self.totals.entry(name.clone()).or_default() += a.saturating_sub(*b) as f64;
                self.levels.insert(name, *a as f64);
            }
        }
    }

    /// A gauge's value at the end of the last closed span.
    pub fn level(&self, name: &str) -> f64 {
        self.levels.get(name).copied().unwrap_or(0.0)
    }

    /// Total delta of a counter over every closed span.
    pub fn get(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }
}

/// The median (0 for no samples).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(value, percentile, samples)`; with eleven samples or fewer it is the
/// largest sample.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = n.saturating_sub(11);
    let idx = if n <= 11 { n - 1 } else { idx };
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64, n)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Serialized size of a catalog holding the tables' metadata sections,
/// and the device it was saved to.
pub fn saved_meta_catalog(
    tables: &[&TableMeta],
) -> IqResult<(u64, iq_objectstore::BlockDeviceSim)> {
    let mut catalog = iq_storage::Catalog::default();
    for t in tables {
        catalog.put_section(&format!("table-meta/{}", t.id.0), t)?;
    }
    let bytes = serde_json::to_vec(&catalog)
        .map_err(|e| iq_common::IqError::Catalog(e.to_string()))?
        .len() as u64;
    let block = 4096u32;
    let blocks = bytes.div_ceil(block as u64) + 2;
    let device = iq_objectstore::BlockDeviceSim::new(block, blocks);
    catalog.save(&device, iq_common::BlockNum(0))?;
    Ok((bytes, device))
}

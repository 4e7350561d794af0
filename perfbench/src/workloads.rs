//! The four workloads. Each is one closed-loop client: it issues its next
//! call only after the previous one returned.

use std::sync::Arc;
use std::time::Instant;

use iq_bench::runner::PhaseCapture;
use iq_common::{DbSpaceId, IqError, IqResult, TableId};
use iq_core::Database;
use iq_engine::table::TableMeta;
use iq_engine::PageStore;
use iq_tpch::queries::run_query;
use iq_tpch::TpchDb;

use crate::harness::{
    self, clear_caches, ctx, digest, median, meta_digest, tail, CounterDeltas, DeviceTotals,
    Loaded, ModeledClock, PhaseProbe, Reference, QUERIES,
};
use crate::report::{Metric, Outcome};
use crate::trace::{CallTimes, PagerProbe, TimedStore};

/// How a run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Data seed: feeds `TpchDb::load` and the refresh sequence.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scale-factor override (the smoke test runs every workload tiny).
    pub sf: Option<f64>,
}

/// Operation units measured per run at least, whatever `--seconds` says.
const MIN_OPS: usize = 3;
/// Scale factor of the query workloads.
const SF_TPCH: f64 = 0.02;
/// Scale factor of the refresh workload, whose units also rewrite the two
/// largest tables twice.
const SF_REFRESH: f64 = 0.01;
/// Scale factor of the restart workload: reopen is quadratic in catalog
/// size today (see NOTES.md), so larger data would not restart in time.
const SF_RESTART: f64 = 0.0005;
/// Compressed resident bytes per unit of scale factor (23.9 MiB at
/// SF 0.1); the cold workloads size their RAM buffer at a third of it.
const RESIDENT_PER_SF: f64 = 239.0 * 1024.0 * 1024.0;

/// Run workload `name`.
pub fn run(name: &str, p: Params) -> IqResult<Outcome> {
    match name {
        "tpch_hot" => power_workload(p, false),
        "tpch_cold" => power_workload(p, true),
        "refresh" => refresh_workload(p),
        "restart" => restart_workload(p),
        other => Err(IqError::Invalid(format!(
            "unknown workload `{other}` (expected tpch_hot, tpch_cold, refresh or restart)"
        ))),
    }
}

/// A RAM buffer a third the size of the data, as in the paper's cold
/// power runs where the buffer holds a fraction of the working set.
fn third_of_data(sf: f64) -> usize {
    ((sf * RESIDENT_PER_SF / 3.0) as usize).max(1 << 20)
}

/// Everything one run records.
struct Recorder {
    p: Params,
    clock: ModeledClock,
    probe: Arc<PagerProbe>,
    counters: CounterDeltas,
    devices: DeviceTotals,
    /// Wall seconds and traced flag of each measured operation unit.
    ops: Vec<(f64, bool)>,
    /// Modeled cost of each measured operation unit.
    modeled: Vec<harness::Modeled>,
    /// Phases of the operation unit in progress.
    phases: Vec<PhaseCapture>,
    /// Untraced query latencies (ms), and per query the traced ones.
    query_ms: Vec<f64>,
    traced_query_ms: Vec<Vec<f64>>,
    /// Per traced power run: summed query wall and engine self time (ms).
    query_wall_ms: Vec<f64>,
    query_self_ms: Vec<f64>,
    /// Engine self time of each traced RF call (ms).
    rewrite_self_ms: Vec<f64>,
    /// Wall time of each RF1+RF2 pair, with commits and GC (s).
    refresh_s: Vec<f64>,
    /// Wall time of each restart, `into_durable` to the last meta (s).
    restart_s: Vec<f64>,
    commit: CallTimes,
    gc_drain: CallTimes,
    save_meta: CallTimes,
    reopen: CallTimes,
    load_meta: CallTimes,
    /// GC chain entries consumed by the drain right after each reopen.
    gc_after_reopen: Vec<f64>,
    /// `WorkMeter` units, and store GETs and timed queries, summed over
    /// the measured operation units.
    meter_units: f64,
    query_gets: u64,
    queries: u64,
    attempted: u64,
    failed: u64,
    lineitem_rows: u64,
    catalog_bytes: u64,
    catalog_load_ms: Vec<f64>,
    /// Store resident bytes after the load, and their growth after the
    /// first `MIN_OPS` operation units (a fixed point, so the figure does
    /// not depend on how many units fit in the window).
    resident_after_load: u64,
    space_amp: Option<f64>,
    notes: Vec<String>,
}

impl Recorder {
    fn new(p: Params, sf: f64) -> Self {
        Self {
            p,
            clock: ModeledClock::new(sf),
            probe: Arc::new(PagerProbe::new()),
            counters: CounterDeltas::default(),
            devices: DeviceTotals::default(),
            ops: Vec::new(),
            modeled: Vec::new(),
            phases: Vec::new(),
            query_ms: Vec::new(),
            traced_query_ms: vec![Vec::new(); QUERIES.count()],
            query_wall_ms: Vec::new(),
            query_self_ms: Vec::new(),
            rewrite_self_ms: Vec::new(),
            refresh_s: Vec::new(),
            restart_s: Vec::new(),
            commit: CallTimes::default(),
            gc_drain: CallTimes::default(),
            save_meta: CallTimes::default(),
            reopen: CallTimes::default(),
            load_meta: CallTimes::default(),
            gc_after_reopen: Vec::new(),
            meter_units: 0.0,
            query_gets: 0,
            queries: 0,
            attempted: 0,
            failed: 0,
            lineitem_rows: 0,
            catalog_bytes: 0,
            catalog_load_ms: Vec::new(),
            resident_after_load: 0,
            space_amp: None,
            notes: Vec::new(),
        }
    }

    /// Whether the window is still open before operation unit `i`.
    fn more(&self, start: Instant, i: usize) -> bool {
        i < MIN_OPS || start.elapsed().as_secs_f64() < self.p.seconds
    }

    /// In a traced run every other operation unit runs untraced, so the
    /// tracing overhead can be measured in the same run.
    fn traced(&self, i: usize) -> bool {
        self.p.trace && i.is_multiple_of(2)
    }

    /// Close operation unit: record its wall time and modeled cost.
    fn finish_op(&mut self, secs: f64, traced: bool) {
        self.ops.push((secs, traced));
        let phases = std::mem::take(&mut self.phases);
        for p in &phases {
            self.devices.add(p);
            self.meter_units += p.load.cpu_work;
            if p.name.starts_with('Q') {
                let mut q = DeviceTotals::default();
                q.add(p);
                self.query_gets += q.gets;
                self.queries += 1;
            }
        }
        self.modeled.push(self.clock.fold(&phases));
    }

    /// Record the space amplification once `MIN_OPS` units have run.
    fn note_space(&mut self, db: &Database, space: DbSpaceId) -> IqResult<()> {
        if self.space_amp.is_none() && self.ops.len() == MIN_OPS {
            harness::quiesce(db);
            let now = db.dbspace(space)?.resident_bytes();
            self.space_amp = Some(now as f64 / self.resident_after_load.max(1) as f64);
        }
        Ok(())
    }

    /// Compare a refresh's table-meta digests with the reference's; one
    /// refresh is one operation, whichever table differs.
    fn check_refresh(&mut self, observed: &[u64; 2], expected: &[u64; 2], what: &str) {
        if observed != expected {
            self.failed += 1;
            self.notes.push(format!(
                "{what}: new table versions differ from the reference"
            ));
        }
    }

    /// Compare observed query digests with expected ones.
    fn check(&mut self, observed: &[u64], expected: &[u64], what: &str) {
        if observed.len() != expected.len() {
            self.failed += observed.len() as u64;
            self.notes.push(format!(
                "{what}: {} results, expected {}",
                observed.len(),
                expected.len()
            ));
            return;
        }
        let bad = observed
            .iter()
            .zip(expected)
            .filter(|(a, b)| a != b)
            .count();
        if bad > 0 {
            self.failed += bad as u64;
            self.notes
                .push(format!("{what}: {bad} result(s) differ from the reference"));
        }
    }
}

/// Run Q1..Q22 once through `store`, recording latencies and phases.
/// Returns the result digests (`0` marks a query that errored).
fn power_run(
    r: &mut Recorder,
    db: &Database,
    space: DbSpaceId,
    tpch: &TpchDb,
    traced: bool,
    timed: bool,
) -> IqResult<Vec<u64>> {
    let txn = db.begin();
    let pager = db.pager(txn)?;
    let probe = Arc::clone(&r.probe);
    let wrapped = TimedStore::new(&pager, &probe);
    let store: &dyn PageStore = if traced { &wrapped } else { &pager };
    let mut digests = Vec::with_capacity(22);
    let (mut wall_ms, mut self_ms) = (0.0, 0.0);
    for n in QUERIES {
        let phase = PhaseProbe::begin(db, space)?;
        let pager_ns = probe.client_ns();
        let t = Instant::now();
        let out = run_query(n, &ctx(tpch, store, db.meter()));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let phase = phase.end(db, space, &r.clock, &format!("Q{n}"))?;
        r.attempted += 1;
        match out {
            Ok(chunk) => digests.push(digest(&chunk)),
            Err(e) => {
                r.failed += 1;
                r.notes.push(format!("Q{n} failed: {e}"));
                digests.push(0);
            }
        }
        if !timed {
            continue;
        }
        r.phases.push(phase);
        let idx = (n - 1) as usize;
        if traced {
            r.traced_query_ms[idx].push(ms);
            wall_ms += ms;
            self_ms += ms - (probe.client_ns() - pager_ns) as f64 / 1e6;
        } else if !r.p.trace {
            r.query_ms.push(ms);
        }
    }
    db.rollback(txn)?;
    if timed && traced {
        r.query_wall_ms.push(wall_ms);
        r.query_self_ms.push(self_ms);
    }
    Ok(digests)
}

/// Run one refresh function (RF1 when `seq` is set, else RF2), commit it,
/// install the new versions and drain GC. Returns the meta digests.
fn refresh_fn(
    r: &mut Recorder,
    db: &Database,
    space: DbSpaceId,
    tpch: &mut TpchDb,
    seq: Option<u64>,
    traced: bool,
) -> IqResult<[u64; 2]> {
    let phase = PhaseProbe::begin(db, space)?;
    let txn = db.begin();
    let (orders, lineitem) = {
        let pager = db.pager(txn)?;
        let probe = Arc::clone(&r.probe);
        let wrapped = TimedStore::new(&pager, &probe);
        let store: &dyn PageStore = if traced { &wrapped } else { &pager };
        let pager_ns = probe.client_ns();
        let t = Instant::now();
        let out = match seq {
            Some(s) => {
                iq_tpch::refresh::rf1(tpch, store, txn, db.meter(), s).map(|(o, l, _)| (o, l))
            }
            None => iq_tpch::refresh::rf2(tpch, store, txn, db.meter()).map(|(o, l, _)| (o, l)),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if traced {
            r.rewrite_self_ms
                .push(ms - (probe.client_ns() - pager_ns) as f64 / 1e6);
        }
        out?
    };
    r.commit.time(|| db.commit(txn))?;
    tpch.orders = orders;
    tpch.lineitem = lineitem;
    r.gc_drain.time(|| db.gc_drain())?;
    r.phases.push(phase.end(
        db,
        space,
        &r.clock,
        if seq.is_some() { "RF1" } else { "RF2" },
    )?);
    r.attempted += 1;
    Ok([meta_digest(&tpch.orders), meta_digest(&tpch.lineitem)])
}

/// Close the run: end-to-end or per-layer metrics.
fn finish(mut r: Recorder, loaded_setup_s: f64, peak_rss: f64) -> Outcome {
    let ops = r.ops.len().max(1) as f64;
    let mut out = Outcome::new(r.attempted, r.failed);
    r.notes.push(format!(
        "data: {} lineitem rows, {:.2} MiB resident in the store after the load",
        r.lineitem_rows,
        r.resident_after_load as f64 / (1u64 << 20) as f64
    ));
    let op_wall: Vec<f64> = r.ops.iter().map(|o| o.0).collect();
    let modeled_s: Vec<f64> = r.modeled.iter().map(|m| m.seconds).collect();
    let usd: Vec<f64> = r.modeled.iter().map(|m| m.usd).collect();
    let request_usd: Vec<f64> = r.modeled.iter().map(|m| m.request_usd).collect();
    if !r.p.trace {
        let (tail_ms, pct, n) = tail(&r.query_ms);
        out.e2e(Metric::new("setup_s", "s", loaded_setup_s));
        out.e2e(Metric::new("op_s", "s", median(&op_wall)));
        out.e2e(Metric::new("query_p50_ms", "ms", median(&r.query_ms)));
        out.e2e(Metric::new("query_tail_ms", "ms", tail_ms));
        out.e2e(Metric::new("modeled_s", "s", median(&modeled_s)));
        out.e2e(Metric::new("usd", "USD", median(&usd)));
        out.e2e(Metric::new(
            "space_amp",
            "ratio",
            r.space_amp.unwrap_or(1.0),
        ));
        out.e2e(Metric::new("peak_rss_mib", "MiB", peak_rss));
        let walls: Vec<String> = op_wall.iter().map(|w| format!("{w:.3}")).collect();
        r.notes.push(format!(
            "query_tail_ms is p{pct:.1} of {n} query latencies; op_s is the median of {} operation units: {}",
            r.ops.len(),
            walls.join(" ")
        ));
        for (name, v) in [("refresh_s", &r.refresh_s), ("restart_s", &r.restart_s)] {
            if !v.is_empty() {
                let vs: Vec<String> = v.iter().map(|w| format!("{w:.3}")).collect();
                r.notes.push(format!("{name} per unit: {}", vs.join(" ")));
            }
        }
        out.extra(Metric::new("request_usd", "USD", median(&request_usd)));
        out.extra(Metric::new(
            "error_rate",
            "ratio",
            r.failed as f64 / r.attempted.max(1) as f64,
        ));
        out.extra_if(
            !r.refresh_s.is_empty(),
            Metric::new("refresh_s", "s", median(&r.refresh_s)),
        );
        out.extra_if(
            !r.commit.0.is_empty(),
            Metric::new("commit_ms", "ms", median(&r.commit.0)),
        );
        out.extra_if(
            !r.restart_s.is_empty(),
            Metric::new("restart_s", "s", median(&r.restart_s)),
        );
        out.notes = r.notes;
        return out;
    }

    // ---- per-layer metrics of the traced run ----
    // Counts are per operation unit; pager times per traced unit.
    let traced_ops = r.ops.iter().filter(|o| o.1).count().max(1) as f64;
    let traced_wall: Vec<f64> = r.ops.iter().filter(|o| o.1).map(|o| o.0).collect();
    let plain_wall: Vec<f64> = r.ops.iter().filter(|o| !o.1).map(|o| o.0).collect();
    let per_op = |counter: &str| r.counters.get(counter) / ops;
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let mut add =
        |name: &str, unit: &'static str, value: f64| out.layer(Metric::new(name, unit, value));

    for (i, q) in r.traced_query_ms.iter().enumerate() {
        add(&format!("tpch.q{:02}_ms", i + 1), "ms", median(q));
    }
    let (wall, self_ms) = (median(&r.query_wall_ms), median(&r.query_self_ms));
    add("engine.query_wall_ms", "ms", wall);
    add("engine.query_self_ms", "ms", self_ms);
    add("engine.query_self_share", "ratio", share(self_ms, wall));
    let q1_ns = median(&r.traced_query_ms[0]) * 1e6;
    add(
        "engine.q1_ns_per_row",
        "ns",
        q1_ns / r.lineitem_rows.max(1) as f64,
    );
    add("engine.meter_units", "count", r.meter_units / ops);
    for name in [
        "groups_considered",
        "groups_zone_pruned",
        "groups_partition_pruned",
        "groups_empty_mask",
        "predicate_pages_read",
        "projection_pages_read",
        "projection_pages_skipped",
        "gets_saved",
    ] {
        add(
            &format!("scan.{name}"),
            "count",
            per_op(&format!("scan.{name}")),
        );
    }
    let pruned =
        r.counters.get("scan.groups_zone_pruned") + r.counters.get("scan.groups_partition_pruned");
    add(
        "scan.prune_ratio",
        "ratio",
        share(pruned, r.counters.get("scan.groups_considered")),
    );

    let [reads, read_ns, _] = r.probe.reads.read();
    let [pre_pages, pre_ns, _] = r.probe.prefetch.read();
    let [writes, write_ns, _] = r.probe.writes.read();
    add("pager.reads", "count", reads as f64 / traced_ops);
    add(
        "pager.read_busy_ms",
        "ms",
        read_ns as f64 / 1e6 / traced_ops,
    );
    add(
        "pager.read_ns_per_page",
        "ns",
        share(read_ns as f64, reads as f64),
    );
    add(
        "pager.prefetch_pages",
        "count",
        pre_pages as f64 / traced_ops,
    );
    add("pager.writes", "count", writes as f64 / traced_ops);

    for name in [
        "hits",
        "demand_misses",
        "prefetched",
        "evictions",
        "dirty_evictions",
    ] {
        add(
            &format!("buffer.{name}"),
            "count",
            per_op(&format!("buffer.{name}")),
        );
    }
    let hits = r.counters.get("buffer.hits");
    let loads = r.counters.get("buffer.demand_misses") + r.counters.get("buffer.prefetched");
    add("buffer.hit_ratio", "ratio", share(hits, hits + loads));
    let lock_wait_ms = per_op("buffer.lock_wait_nanos") / 1e6;

    for name in ["hits", "misses", "evictions"] {
        add(
            &format!("ocm.{name}"),
            "count",
            per_op(&format!("ocm.{name}")),
        );
    }
    let (oh, om) = (r.counters.get("ocm.hits"), r.counters.get("ocm.misses"));
    add("ocm.hit_rate", "ratio", share(oh, oh + om));
    let d = r.devices;
    add("ocm_ssd.requests", "count", d.ssd_requests as f64 / ops);

    let mib = (1u64 << 20) as f64;
    add("store.gets", "count", d.gets as f64 / ops);
    add("store.ranged_gets", "count", per_op("pack.ranged_gets"));
    add("store.puts", "count", d.puts as f64 / ops);
    add("store.deletes", "count", d.deletes as f64 / ops);
    add("store.get_mib", "MiB", d.get_bytes as f64 / ops / mib);
    add("store.put_mib", "MiB", d.put_bytes as f64 / ops / mib);
    add("store.retries", "count", d.retries as f64 / ops);
    add(
        "store.gets_per_query",
        "count",
        share(r.query_gets as f64, r.queries as f64),
    );
    add("store.request_usd", "USD", median(&request_usd));

    // The I/O peaks are gauges over the database's life.
    add("io.submitted", "count", per_op("io.submitted"));
    add(
        "io.in_flight_peak",
        "count",
        r.counters.level("io.in_flight_peak"),
    );
    add(
        "io.queue_depth_peak",
        "count",
        r.counters.level("io.queue_depth_peak"),
    );

    let objects = r.counters.get("pack.objects_written");
    add("pack.objects_written", "count", objects / ops);
    add(
        "pack.pages_per_object",
        "pages",
        share(r.counters.get("pack.pages_packed"), objects),
    );
    add(
        "pack.bytes_over_read",
        "bytes",
        per_op("pack.bytes_over_read"),
    );
    for name in ["keys_deleted", "requests", "entries_consumed"] {
        add(
            &format!("gc.{name}"),
            "count",
            per_op(&format!("gc.{name}")),
        );
    }
    add(
        "gc.entries_after_reopen",
        "count",
        median(&r.gc_after_reopen),
    );
    add("log.records", "count", r.counters.level("log.records"));
    add("catalog.bytes", "bytes", r.catalog_bytes as f64);
    let overhead_s = median(&traced_wall) - median(&plain_wall);
    add("trace.overhead_ms", "ms", overhead_s * 1e3);

    // Times of work only some workloads do (restart at its scale never
    // prefetches, and only the refresh paths write): printed where the
    // work happened, not in the JSON.
    let times = [
        (
            "pager.prefetch_busy_ms",
            vec![pre_ns as f64 / 1e6 / traced_ops],
        ),
        (
            "pager.write_busy_ms",
            vec![write_ns as f64 / 1e6 / traced_ops],
        ),
        ("buffer.lock_wait_ms", vec![lock_wait_ms]),
        ("store.backoff_ms", vec![d.backoff_nanos as f64 / 1e6 / ops]),
        ("engine.rewrite_self_ms", r.rewrite_self_ms),
        ("core.commit_ms", r.commit.0),
        ("core.gc_drain_ms", r.gc_drain.0),
        ("catalog.save_ms", r.save_meta.0),
        ("catalog.load_ms", r.catalog_load_ms),
        ("core.reopen_ms", r.reopen.0),
        ("core.load_meta_ms", r.load_meta.0),
    ];
    for (name, samples) in times {
        let value = median(&samples);
        out.extra_if(value > 0.0, Metric::new(name, "ms", value));
    }
    out.notes = r.notes;
    out
}

fn catalog_bytes(tpch: &TpchDb) -> IqResult<u64> {
    let tables: Vec<&TableMeta> = tpch.tables().to_vec();
    Ok(harness::saved_meta_catalog(&tables)?.0)
}

// ----------------------------------------------------------------------
// tpch_hot and tpch_cold
// ----------------------------------------------------------------------

/// Q1–Q22 power runs. Hot: the default 256 MiB buffer holds the whole
/// database after one untimed warm-up run, so no run touches the store.
/// Cold: the buffer holds a third of the data and every cache is emptied
/// before each run, as at an instance restart.
fn power_workload(p: Params, cold: bool) -> IqResult<Outcome> {
    let sf = p.sf.unwrap_or(SF_TPCH);
    let cfg = harness::config(cold.then(|| third_of_data(sf)));
    let (loaded, setup_s) = harness::timed_setups(|| harness::setup(cfg.clone(), sf, p.seed))?;
    let mut r = Recorder::new(p, sf);
    r.lineitem_rows = loaded.tpch.lineitem.row_count();
    r.resident_after_load = loaded.resident_after_load;
    let (db, space, tpch) = (&loaded.db, loaded.space, &loaded.tpch);

    // Warm-up: fills the buffer (hot) and settles the process (both).
    if cold {
        clear_caches(db)?;
    }
    let expected_warm = power_run(&mut r, db, space, tpch, false, false)?;
    let mut observed = vec![expected_warm];

    r.counters.open(db);
    let start = Instant::now();
    let mut i = 0;
    while r.more(start, i) {
        if cold {
            clear_caches(db)?;
        }
        let traced = r.traced(i);
        let t = Instant::now();
        observed.push(power_run(&mut r, db, space, tpch, traced, true)?);
        r.finish_op(t.elapsed().as_secs_f64(), traced);
        r.note_space(db, space)?;
        i += 1;
    }
    r.counters.close(db);
    let peak = harness::peak_rss_mib();
    if p.trace {
        r.catalog_bytes = catalog_bytes(tpch)?;
    }
    drop(loaded);

    // The oracle: every run's results against the in-memory reference.
    let t = Instant::now();
    let expected = Reference::load(sf, p.seed)?.query_digests()?;
    for (k, run) in observed.iter().enumerate() {
        r.check(run, &expected, &format!("power run {k}"));
    }
    r.notes.push(format!(
        "oracle: {:.2} s (reference load and Q1-Q22, not part of setup_s)",
        t.elapsed().as_secs_f64()
    ));
    Ok(finish(r, setup_s, peak))
}

// ----------------------------------------------------------------------
// refresh
// ----------------------------------------------------------------------

/// Refresh sequence numbers derive from the data seed.
fn refresh_seq(seed: u64, k: u64) -> u64 {
    (seed % 4096) * 1024 + k
}

/// The TPC-H power-test order, repeated: RF1, Q1–Q22, RF2. Each refresh
/// is committed and followed by a GC drain; the queries read the freshly
/// written version back through a buffer a third the size of the data.
fn refresh_workload(p: Params) -> IqResult<Outcome> {
    let sf = p.sf.unwrap_or(SF_REFRESH);
    let cfg = harness::config(Some(third_of_data(sf)));
    let (mut loaded, setup_s) = harness::timed_setups(|| harness::setup(cfg.clone(), sf, p.seed))?;
    let mut r = Recorder::new(p, sf);
    r.lineitem_rows = loaded.tpch.lineitem.row_count();
    r.resident_after_load = loaded.resident_after_load;

    // Observed digests per operation unit: RF1 metas, queries, RF2 metas.
    let mut observed: Vec<([u64; 2], Vec<u64>, [u64; 2])> = Vec::new();
    let mut start = Instant::now();
    let mut i = 0usize;
    // Unit 0 is an untimed warm-up.
    while i == 0 || r.more(start, i - 1) {
        let timed = i > 0;
        if i == 1 {
            r.counters.open(&loaded.db);
            start = Instant::now();
        }
        let traced = timed && r.traced(i - 1);
        let (db, space) = (&loaded.db, loaded.space);
        let t = Instant::now();
        let rf1 = refresh_fn(
            &mut r,
            db,
            space,
            &mut loaded.tpch,
            Some(refresh_seq(p.seed, i as u64)),
            traced,
        )?;
        let rf1_s = t.elapsed().as_secs_f64();
        let queries = power_run(&mut r, db, space, &loaded.tpch, traced, timed)?;
        let t2 = Instant::now();
        let rf2 = refresh_fn(&mut r, db, space, &mut loaded.tpch, None, traced)?;
        let secs = t.elapsed().as_secs_f64();
        if timed {
            r.refresh_s.push(rf1_s + t2.elapsed().as_secs_f64());
            r.finish_op(secs, traced);
            r.note_space(db, space)?;
        } else {
            r.phases.clear();
            r.commit.0.clear();
            r.gc_drain.0.clear();
            r.rewrite_self_ms.clear();
        }
        observed.push((rf1, queries, rf2));
        i += 1;
    }
    r.counters.close(&loaded.db);
    let peak = harness::peak_rss_mib();
    if p.trace {
        r.catalog_bytes = catalog_bytes(&loaded.tpch)?;
    }
    drop(loaded);

    let t = Instant::now();
    let mut reference = Reference::load(sf, p.seed)?;
    for (k, (rf1, queries, rf2)) in observed.iter().enumerate() {
        let e1 = reference.rf1(refresh_seq(p.seed, k as u64))?;
        r.check_refresh(rf1, &e1, &format!("RF1 of unit {k}"));
        let eq = reference.query_digests()?;
        r.check(queries, &eq, &format!("queries of unit {k}"));
        let e2 = reference.rf2()?;
        r.check_refresh(rf2, &e2, &format!("RF2 of unit {k}"));
    }
    r.notes.push(format!(
        "oracle: {:.2} s (reference replay of every unit)",
        t.elapsed().as_secs_f64()
    ));
    Ok(finish(r, setup_s, peak))
}

// ----------------------------------------------------------------------
// restart
// ----------------------------------------------------------------------

/// Cycles of: RF1 and RF2 with commits, `save_table_meta` for the changed
/// tables, a checkpoint, Q1–Q22, power-off (`into_durable`),
/// `Database::reopen`, `load_table_meta` for all eight tables, a GC drain,
/// and a cold Q1–Q22 whose results must equal the ones before power-off.
fn restart_workload(p: Params) -> IqResult<Outcome> {
    let sf = p.sf.unwrap_or(SF_RESTART);
    let cfg = harness::config(None);
    let mut r = Recorder::new(p, sf);
    // Set-up includes persisting every table's metadata: reopen needs it.
    let (loaded, setup_s) = harness::timed_setups(|| {
        let l = harness::setup(cfg.clone(), sf, p.seed)?;
        for m in l.tpch.tables() {
            l.db.save_table_meta(m)?;
        }
        l.db.checkpoint()?;
        Ok(l)
    })?;
    let Loaded {
        db,
        mut tpch,
        space,
        resident_after_load,
    } = loaded;
    r.lineitem_rows = tpch.lineitem.row_count();
    r.resident_after_load = resident_after_load;
    let mut db = db;

    let mut observed: Vec<([u64; 2], [u64; 2], Vec<u64>)> = Vec::new();
    r.counters.open(&db);
    let start = Instant::now();
    let mut i = 0usize;
    while r.more(start, i) {
        let traced = r.traced(i);
        let t = Instant::now();
        let rf1 = refresh_fn(
            &mut r,
            &db,
            space,
            &mut tpch,
            Some(refresh_seq(p.seed, i as u64)),
            traced,
        )?;
        let rf2 = refresh_fn(&mut r, &db, space, &mut tpch, None, traced)?;
        r.refresh_s.push(t.elapsed().as_secs_f64());
        for m in [&tpch.orders, &tpch.lineitem] {
            r.save_meta.time(|| db.save_table_meta(m))?;
        }
        db.checkpoint()?;
        // The check run before power-off is not part of the cycle's time.
        let t_check = Instant::now();
        let before = power_run(&mut r, &db, space, &tpch, traced, false)?;
        let check_s = t_check.elapsed().as_secs_f64();

        // Power off and reopen. The reopened database's ledgers start
        // empty, so the restart phase spans reopen, meta loads and GC.
        r.counters.close(&db);
        let t_restart = Instant::now();
        let durable = db.into_durable();
        db = r.reopen.time(|| Database::reopen(durable, cfg.clone()))?;
        let metas = r.load_meta.time(|| -> IqResult<Vec<TableMeta>> {
            (1..=8u32)
                .map(|t| {
                    db.load_table_meta(TableId(t))?
                        .ok_or_else(|| IqError::NotFound(format!("table-meta/{t}")))
                })
                .collect()
        })?;
        r.restart_s.push(t_restart.elapsed().as_secs_f64());
        r.attempted += 1;
        tpch = rebuild(metas, tpch.sf)?;
        let phase = PhaseProbe::since_open();
        r.counters.open(&db);
        let before_gc = db.metrics();
        r.gc_drain.time(|| db.gc_drain())?;
        let after_gc = db.metrics();
        r.gc_after_reopen.push(
            counter(&after_gc, "gc.entries_consumed") - counter(&before_gc, "gc.entries_consumed"),
        );
        r.phases.push(phase.end(&db, space, &r.clock, "restart")?);

        let after = power_run(&mut r, &db, space, &tpch, traced, true)?;
        r.check(&after, &before, &format!("cold run after reopen {i}"));
        r.finish_op(t.elapsed().as_secs_f64() - check_s, traced);
        r.note_space(&db, space)?;
        observed.push((rf1, rf2, before));
        i += 1;
    }
    r.counters.close(&db);
    let peak = harness::peak_rss_mib();
    if p.trace {
        let tables: Vec<&TableMeta> = tpch.tables().to_vec();
        let (bytes, device) = harness::saved_meta_catalog(&tables)?;
        r.catalog_bytes = bytes;
        let t = Instant::now();
        iq_storage::Catalog::load(&device, iq_common::BlockNum(0))?;
        r.catalog_load_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drop(db);

    let t = Instant::now();
    let mut reference = Reference::load(sf, p.seed)?;
    for (k, (rf1, rf2, queries)) in observed.iter().enumerate() {
        let e1 = reference.rf1(refresh_seq(p.seed, k as u64))?;
        r.check_refresh(rf1, &e1, &format!("RF1 of cycle {k}"));
        let e2 = reference.rf2()?;
        r.check_refresh(rf2, &e2, &format!("RF2 of cycle {k}"));
        let eq = reference.query_digests()?;
        r.check(queries, &eq, &format!("queries of cycle {k}"));
    }
    r.notes.push(format!(
        "oracle: {:.2} s (reference replay of every cycle)",
        t.elapsed().as_secs_f64()
    ));
    Ok(finish(r, setup_s, peak))
}

fn counter(m: &std::collections::BTreeMap<String, iq_common::MetricValue>, name: &str) -> f64 {
    match m.get(name) {
        Some(iq_common::MetricValue::U64(v)) => *v as f64,
        _ => 0.0,
    }
}

/// The TPC-H table set from metadata loaded back out of the catalog.
fn rebuild(metas: Vec<TableMeta>, sf: f64) -> IqResult<TpchDb> {
    let [region, nation, supplier, customer, part, partsupp, orders, lineitem]: [TableMeta; 8] =
        metas
            .try_into()
            .map_err(|_| IqError::Invalid("expected eight table metas".into()))?;
    Ok(TpchDb {
        region,
        nation,
        supplier,
        customer,
        part,
        partsupp,
        orders,
        lineitem,
        sf,
    })
}

//! Golden-metrics test for the restart path: a database with a cloud and a
//! conventional dbspace is committed, checkpointed, powered off with
//! `into_durable`, reopened and scanned cold. The metrics export after the
//! reopen, default and with the scripted fault injector, must report the
//! same keys with the same values as the checked-in files.
//!
//! As in `golden_metrics`, every counter is deterministic except
//! `buffer.lock_wait_nanos` (wall-clock time blocked on shard locks), which
//! is checked for presence and type only. Regenerate with:
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test -p iq-bench --test golden_reopen
//! ```

use std::collections::BTreeMap;

use iq_common::{IqResult, TableId};
use iq_core::{Database, DatabaseConfig, GroupCommitMode};
use iq_engine::{DataType, Schema, TableMeta, TableWriter, Value};
use iq_objectstore::{FaultPlan, RetryPolicy};
use serde_json::Value as Json;

/// Wall-clock keys: compared for presence and type, never for value.
const WALL_CLOCK: &[&str] = &["buffer.lock_wait_nanos"];

const CLOUD_ROWS: i64 = 1_000;
const CONVENTIONAL_ROWS: i64 = 500;

fn load(db: &Database, meta: &mut TableMeta, txn: iq_common::TxnId, rows: i64) -> IqResult<()> {
    let pager = db.pager(txn)?;
    let meter = db.meter().clone();
    let mut w = TableWriter::new(meta, &pager, txn, &meter);
    for i in 0..rows {
        w.append_row(&[Value::I64(i), Value::Str(format!("r{i}").into())])?;
    }
    w.finish()
}

fn quiesce(db: &Database) {
    if let Some(ocm) = db.ocm() {
        ocm.quiesce();
    }
}

/// Run the restart lifecycle and return the metrics export of the
/// reopened instance.
fn reopen_export(faults: bool) -> IqResult<String> {
    let mut cfg = DatabaseConfig::test_small();
    cfg.pack_pages = 4;
    cfg.group_commit = GroupCommitMode::Coalesced;
    if faults {
        cfg.fault = Some(FaultPlan::flaky(7, 0.05));
        cfg.retry = RetryPolicy {
            seed: 7,
            ..RetryPolicy::attempts(12)
        };
    }
    let schema = || Schema::new(&[("k", DataType::I64), ("v", DataType::Str)]);
    let (cloud, conventional) = (TableId(1), TableId(2));

    let db = Database::create(cfg.clone())?;
    let cloud_space = db.create_cloud_dbspace("cloud")?;
    let conventional_space = db.create_conventional_dbspace("conventional", 16 << 20)?;
    db.create_table(cloud, cloud_space)?;
    db.create_table(conventional, conventional_space)?;
    let mut cloud_meta = TableMeta::new(cloud, "c", schema(), 64);
    let mut conventional_meta = TableMeta::new(conventional, "v", schema(), 64);
    let txn = db.begin();
    load(&db, &mut cloud_meta, txn, CLOUD_ROWS)?;
    load(&db, &mut conventional_meta, txn, CONVENTIONAL_ROWS)?;
    db.commit(txn)?;
    db.save_table_meta(&cloud_meta)?;
    db.save_table_meta(&conventional_meta)?;
    db.checkpoint()?;
    quiesce(&db);

    let db = Database::reopen(db.into_durable(), cfg)?;
    let rtxn = db.begin();
    let pager = db.pager(rtxn)?;
    for (table, rows) in [(cloud, CLOUD_ROWS), (conventional, CONVENTIONAL_ROWS)] {
        let meta = db.load_table_meta(table)?.expect("persisted table meta");
        let out = meta.scan(&pager, &[0, 1], None, db.meter())?;
        assert_eq!(out.len(), rows as usize);
    }
    db.rollback(rtxn)?;
    db.gc_drain()?;
    quiesce(&db);
    Ok(db.metrics_json())
}

fn parse(json: &str) -> BTreeMap<String, Json> {
    match serde_json::from_str(json).expect("metrics export is JSON") {
        Json::Object(map) => map,
        other => panic!("metrics export is not a JSON object: {other:?}"),
    }
}

fn check(faults: bool, file: &str) {
    let export = reopen_export(faults).expect("reopen lifecycle");
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&path, format!("{export}\n")).expect("write golden file");
    }
    let got = parse(&export);
    let want = parse(&std::fs::read_to_string(&path).expect("golden file"));
    let mode = if faults { "--faults" } else { "default" };
    let missing: Vec<_> = want.keys().filter(|k| !got.contains_key(*k)).collect();
    let extra: Vec<_> = got.keys().filter(|k| !want.contains_key(*k)).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{mode}: metric key set drifted; missing {missing:?}, unexpected {extra:?}"
    );
    for (key, want) in &want {
        let got = &got[key];
        if WALL_CLOCK.contains(&key.as_str()) {
            assert!(
                matches!(got, Json::Number(n) if n.as_u64().is_some()),
                "{mode}: {key} must be an unsigned counter, got {got:?}"
            );
        } else {
            assert_eq!(got, want, "{mode}: {key} diverges from golden");
        }
    }
}

#[test]
fn reopen_metrics_match_golden_default_and_faults() {
    // One test, so the two lifecycles run in sequence and never interleave
    // on the process-global op-clock.
    check(false, "metrics_reopen.json");
    check(true, "metrics_reopen_faults.json");
}

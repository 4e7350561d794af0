//! Golden-metrics test: the `repro --metrics` export, default and
//! `--faults`, must report the same keys with the same values as the
//! checked-in files.
//!
//! The metrics lifecycle is single-writer and its store traffic is timed
//! by the virtual op-clock, so every counter is deterministic except
//! `buffer.lock_wait_nanos`, which is wall-clock time spent blocked on
//! shard locks; that key is checked for presence and type only. Any other
//! drift means a counter was renamed, dropped, added or re-accounted, and
//! must be reviewed. Regenerate with:
//!
//! ```sh
//! cargo run --release -p iq-bench --bin repro -- --metrics > crates/iq-bench/tests/golden/metrics.json
//! cargo run --release -p iq-bench --bin repro -- --metrics --faults > crates/iq-bench/tests/golden/metrics_faults.json
//! ```

use std::collections::BTreeMap;

use iq_bench::experiments;
use serde_json::Value;

/// The scale factor `repro` runs at by default.
const SF: f64 = 0.01;

/// Wall-clock keys: compared for presence and type, never for value.
const WALL_CLOCK: &[&str] = &["buffer.lock_wait_nanos"];

fn parse(json: &str) -> BTreeMap<String, Value> {
    match serde_json::from_str(json).expect("metrics export is JSON") {
        Value::Object(map) => map,
        other => panic!("metrics export is not a JSON object: {other:?}"),
    }
}

fn check(faults: bool, golden: &str) {
    let got = parse(&experiments::metrics_export(SF, faults).expect("metrics export"));
    let want = parse(golden);
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
                matches!(got, Value::Number(n) if n.as_u64().is_some()),
                "{mode}: {key} must be an unsigned counter, got {got:?}"
            );
        } else {
            assert_eq!(got, want, "{mode}: {key} diverges from golden");
        }
    }
}

#[test]
fn metrics_export_matches_golden_default_and_faults() {
    // One test, so the two exports run in sequence and never interleave
    // on the process-global op-clock.
    check(false, include_str!("golden/metrics.json"));
    check(true, include_str!("golden/metrics_faults.json"));
}

//! Smoke test: every workload at a tiny scale factor, with two seeds, in
//! both modes. Each run must exit 0, print every metric BENCHMARK.json
//! declares with its unit (end-to-end untraced, per-layer traced), name
//! the workload's own metrics in its report, and check every result
//! against the reference without a failure.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

use serde_json::Value;

const SEEDS: [u64; 2] = [7, 20210620];

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Value::Object(doc) = doc else {
        panic!("BENCHMARK.json is an object")
    };
    let Some(Value::Array(metrics)) = doc.get(section) else {
        panic!("BENCHMARK.json has a `{section}` list")
    };
    metrics
        .iter()
        .map(|m| {
            let Value::Object(m) = m else {
                panic!("metric entries are objects")
            };
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Run one workload; returns the report's `metric` lines as
/// `name -> (value, unit)` and the final JSON object.
fn run(
    workload: &str,
    sf: f64,
    seed: u64,
    trace: bool,
) -> (BTreeMap<String, (f64, String)>, BTreeMap<String, Value>) {
    let out = Command::new(env!("CARGO_BIN_EXE_cloudiq-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0",
        ])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--sf",
            &sf.to_string(),
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = BTreeMap::new();
    for line in stdout.lines() {
        let Some(rest) = line.strip_prefix("metric ") else {
            continue;
        };
        let parts: Vec<&str> = rest.split_whitespace().collect();
        assert_eq!(parts.len(), 5, "metric line `{line}`");
        assert_eq!(parts[0], workload);
        assert_eq!(parts[2], "=");
        let value: f64 = parts[3].parse().expect("numeric value");
        lines.insert(parts[1].to_string(), (value, parts[4].to_string()));
    }
    let last = stdout.lines().last().expect("some output");
    let Value::Object(json) = serde_json::from_str::<Value>(last).expect("last line is JSON")
    else {
        panic!("last line is a JSON object")
    };
    (lines, json)
}

fn check(workload: &str, sf: f64, own: &[(&str, &str)]) {
    for seed in SEEDS {
        for trace in [false, true] {
            let (lines, json) = run(workload, sf, seed, trace);
            assert_eq!(
                json.get("correct"),
                Some(&Value::Bool(true)),
                "{workload} seed {seed}"
            );
            assert_eq!(json.get("failed").and_then(Value::as_u64), Some(0));
            assert!(json.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
            let Some(Value::Object(metrics)) = json.get("metrics") else {
                panic!("JSON has metrics")
            };
            let section = if trace { "per_layer" } else { "end_to_end" };
            let expected = declared(section);
            assert_eq!(
                metrics.len(),
                expected.len(),
                "{workload}: exactly the {section} metrics"
            );
            for (name, unit) in &expected {
                let Some(Value::Object(m)) = metrics.get(name) else {
                    panic!("{workload} seed {seed}: `{name}` missing from the JSON line")
                };
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let v = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite(), "{name} = {v}");
                if !trace {
                    assert!(
                        v > 0.0,
                        "{workload}: end-to-end `{name}` must be positive, got {v}"
                    );
                }
                assert_eq!(
                    lines.get(name).map(|l| l.1.as_str()),
                    Some(unit.as_str()),
                    "{name} printed"
                );
            }
            if !trace {
                assert_eq!(lines.get("error_rate"), Some(&(0.0, "ratio".to_string())));
                assert!(lines.contains_key("request_usd"));
            }
            for (name, unit) in own.iter().filter(|(n, _)| trace != is_e2e(n)) {
                assert_eq!(
                    lines.get(*name).map(|l| l.1.as_str()),
                    Some(*unit),
                    "{workload} seed {seed}: `{name}` with unit {unit}"
                );
            }
        }
    }
}

fn is_e2e(name: &str) -> bool {
    !name.contains('.')
}

#[test]
fn tpch_hot() {
    check("tpch_hot", 0.002, &[]);
}

#[test]
fn tpch_cold() {
    check("tpch_cold", 0.002, &[]);
}

#[test]
fn refresh() {
    check(
        "refresh",
        0.002,
        &[
            ("refresh_s", "s"),
            ("commit_ms", "ms"),
            ("pager.write_busy_ms", "ms"),
            ("engine.rewrite_self_ms", "ms"),
            ("core.commit_ms", "ms"),
            ("core.gc_drain_ms", "ms"),
        ],
    );
}

#[test]
fn restart() {
    check(
        "restart",
        0.0005,
        &[
            ("refresh_s", "s"),
            ("commit_ms", "ms"),
            ("restart_s", "s"),
            ("engine.rewrite_self_ms", "ms"),
            ("core.commit_ms", "ms"),
            ("core.gc_drain_ms", "ms"),
            ("catalog.save_ms", "ms"),
            ("catalog.load_ms", "ms"),
            ("core.reopen_ms", "ms"),
            ("core.load_meta_ms", "ms"),
        ],
    );
}

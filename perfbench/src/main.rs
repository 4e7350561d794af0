//! The cloudiq benchmark: TPC-H power runs with a hot and a cold cache,
//! TPC-H refreshes, and restart cycles, measured on the host's real clock
//! and on the repository's modeled clock.
//!
//! ```text
//! cloudiq-perfbench --workload <tpch_hot|tpch_cold|refresh|restart>
//!                   --seed <n> --seconds <s> --trace <0|1> [--sf <f>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the
//! instrumented pager and prints the per-layer metrics. The last line of
//! standard output is one JSON object; the lines before it name every
//! metric with its unit. See NOTES.md.

mod harness;
mod report;
mod trace;
mod workloads;

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cloudiq-perfbench --workload <tpch_hot|tpch_cold|refresh|restart> \
         --seed <n> --seconds <s> --trace <0|1> [--sf <scale factor>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut params = workloads::Params {
        seed: 1,
        seconds: 10.0,
        trace: false,
        sf: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| params.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| params.seconds = v)
                .is_ok_and(|_| params.seconds >= 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    params.trace = value == "1";
                    true
                }
                _ => false,
            },
            "--sf" => value
                .parse::<f64>()
                .map(|v| params.sf = Some(v))
                .is_ok_and(|_| params.sf.is_some_and(|sf| sf > 0.0)),
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    match workloads::run(&workload, params) {
        Ok(outcome) => {
            print!("{}", outcome.render(&workload, params.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("workload {workload} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

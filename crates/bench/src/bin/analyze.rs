//! `analyze` — post-hoc root-cause analyzer for a captured serving
//! session: ingests the Chrome trace written by `loadgen --trace` (and
//! optionally the `--json` document of the same run) and prints the
//! session's operational timeline with every burn-rate alert firing
//! attributed to the nearest preceding fault / autoscale / brownout /
//! quarantine event, per-phase (pre-fault / degraded / recovered)
//! latency and throughput breakdowns, and per-tenant queue-vs-execute
//! attribution.
//!
//! ```text
//! cargo run --release -p red-bench --bin loadgen -- \
//!     --mix --model-only --requests 100000 --scrape-us 2000 \
//!     --fault-plan crash:800:0:1 --trace trace.json --json out.json
//! cargo run --release -p red-bench --bin analyze -- trace.json out.json
//! ```
//!
//! With the loadgen JSON the analyzer additionally re-checks the
//! scraped time-series conservation ledger (for every counter series,
//! retained window deltas plus the eviction ledger must reproduce the
//! end-of-run registry total exactly) and echoes the alert episodes the
//! server reported. Exits 0 on success, 1 on any defect — the CI
//! bench-gate runs it over the chaos-smoke capture, so a scrape
//! pipeline that drops a window or an alert that stops attributing to
//! its planned fault fails the gate.

use red_bench::analyze::{analyze_trace, check_loadgen, render};
use red_bench::{minijson::parse, out, outln};
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("analyze: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (trace_path, json_path) = match args.as_slice() {
        [trace] => (trace, None),
        [trace, json] => (trace, Some(json)),
        _ => {
            eprintln!("usage: analyze <trace.json> [<loadgen.json>]");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(trace_path) {
        Ok(text) => text,
        Err(e) => return fail(&format!("cannot read {trace_path}: {e}")),
    };
    let doc = match parse(&text) {
        Ok(doc) => doc,
        Err(e) => return fail(&format!("{trace_path} is not valid JSON: {e}")),
    };
    let analysis = match analyze_trace(&doc) {
        Ok(a) => a,
        Err(e) => return fail(&format!("{trace_path}: {e}")),
    };
    out!("{}", render(&analysis));
    if let Some(path) = json_path {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => return fail(&format!("cannot read {path}: {e}")),
        };
        let doc = match parse(&text) {
            Ok(doc) => doc,
            Err(e) => return fail(&format!("{path} is not valid JSON: {e}")),
        };
        match check_loadgen(&doc) {
            Ok(summary) => {
                outln!("\n-- loadgen json --");
                out!("{summary}");
            }
            Err(e) => return fail(&format!("{path}: {e}")),
        }
    }
    ExitCode::SUCCESS
}

//! `tracecheck` — structural validator for exported Chrome trace-event
//! / Perfetto JSON timelines (`loadgen --trace`, `serve --trace`).
//!
//! ```text
//! cargo run --release -p red-bench --bin tracecheck -- trace.json
//! ```
//!
//! Round-trips the file through the bench harness's own JSON parser and
//! then checks the trace-event contract the exporter promises:
//!
//! * top level is an object with `displayTimeUnit` and a `traceEvents`
//!   array;
//! * every event is an object with a string `name` and a known phase
//!   `ph` (`M`, `X`, `b`, `n`, `e`, `i`, `C`), a numeric `pid`, and —
//!   for non-metadata events — a numeric non-negative `ts`;
//! * `X` complete spans carry a non-negative `dur`;
//! * `C` counter samples carry an `args` object with at least one
//!   member, every member numeric and finite (the chart's series
//!   values), and timestamps monotone non-decreasing per
//!   `(pid, name)` counter track;
//! * async `b`/`e` events pair up exactly (per `(pid, cat, id)` key —
//!   the format pairs async events by category + id, so the `admit` /
//!   `shed` instants land inside their request's `req` span — balanced
//!   and never closing an unopened span). When the document declares
//!   flight-recorder truncation (`otherData.overflowEvents > 0`, written
//!   by the exporter when its bounded rings evicted events), orphaned
//!   ends/instants whose begins fell off the window are tolerated and
//!   counted; in a complete trace they are defects;
//! * timestamps are monotone non-decreasing in document order, which is
//!   what the exporter's deterministic merge-sort guarantees.
//!
//! Exits 0 and prints a one-line summary on success; prints the defect
//! and exits 1 on any violation. The CI bench-gate runs this over the
//! trace captured during the loadgen replay, so a malformed or
//! non-deterministically ordered export fails the gate rather than
//! silently producing a timeline Perfetto cannot load.

use red_bench::minijson::{parse, JsonValue};
use red_bench::outln;
use std::collections::HashMap;
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("tracecheck: {msg}");
    ExitCode::FAILURE
}

/// Async event ids may be numbers or strings (the exporter writes
/// `"0x..."` hex strings, the format's idiomatic spelling).
fn event_id(ev: &JsonValue) -> Option<String> {
    match ev.get("id")? {
        JsonValue::Num(n) => Some(format!("{n}")),
        JsonValue::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: tracecheck <trace.json>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let doc = match parse(&text) {
        Ok(doc) => doc,
        Err(e) => return fail(&format!("{path} is not valid JSON: {e}")),
    };
    if doc.get("displayTimeUnit").and_then(JsonValue::as_str) != Some("ns") {
        return fail("displayTimeUnit missing or not \"ns\"");
    }
    let Some(events) = doc.get("traceEvents").and_then(JsonValue::as_arr) else {
        return fail("traceEvents missing or not an array");
    };
    let overflow = doc
        .get("otherData")
        .and_then(|d| d.get("overflowEvents"))
        .and_then(JsonValue::as_num)
        .unwrap_or(0.0);
    let truncated = overflow > 0.0;

    // Open async spans per (pid, cat, id); counts survive nesting.
    let mut open_async: HashMap<(u64, String, String), u64> = HashMap::new();
    // Last timestamp per (pid, name) counter track.
    let mut counter_ts: HashMap<(u64, String), f64> = HashMap::new();
    let mut orphans = 0usize;
    let mut last_ts = f64::NEG_INFINITY;
    let mut metadata = 0usize;
    let mut spans = 0usize;
    let mut instants = 0usize;
    let mut async_events = 0usize;
    let mut counters = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ctx = |msg: String| format!("event {i}: {msg}");
        let Some(name) = ev.get("name").and_then(JsonValue::as_str) else {
            return fail(&ctx("missing string name".to_string()));
        };
        let Some(ph) = ev.get("ph").and_then(JsonValue::as_str) else {
            return fail(&ctx(format!("{name:?}: missing string ph")));
        };
        let Some(pid) = ev.get("pid").and_then(JsonValue::as_num) else {
            return fail(&ctx(format!("{name:?}: missing numeric pid")));
        };
        if ph == "M" {
            metadata += 1;
            continue;
        }
        let Some(ts) = ev.get("ts").and_then(JsonValue::as_num) else {
            return fail(&ctx(format!("{name:?}: missing numeric ts")));
        };
        if ts.is_nan() || ts < 0.0 {
            return fail(&ctx(format!("{name:?}: negative or NaN ts {ts}")));
        }
        if ts < last_ts {
            return fail(&ctx(format!(
                "{name:?}: ts {ts} regresses below {last_ts} — the export \
                 is not the deterministic merge-sort order"
            )));
        }
        last_ts = ts;
        match ph {
            "X" => {
                spans += 1;
                match ev.get("dur").and_then(JsonValue::as_num) {
                    Some(dur) if dur >= 0.0 => {}
                    _ => return fail(&ctx(format!("{name:?}: X span without non-negative dur"))),
                }
            }
            "i" => instants += 1,
            "C" => {
                counters += 1;
                let Some(JsonValue::Obj(members)) = ev.get("args") else {
                    return fail(&ctx(format!("{name:?}: C counter without an args object")));
                };
                if members.is_empty() {
                    return fail(&ctx(format!("{name:?}: C counter with no series values")));
                }
                for (key, value) in members {
                    match value.as_num() {
                        Some(v) if v.is_finite() => {}
                        _ => {
                            return fail(&ctx(format!(
                                "{name:?}: C counter series {key:?} is not a \
                                 finite number"
                            )))
                        }
                    }
                }
                let track = (pid as u64, name.to_string());
                if let Some(&prev) = counter_ts.get(&track) {
                    if ts < prev {
                        return fail(&ctx(format!(
                            "{name:?}: C counter ts {ts} regresses below {prev} \
                             on its (pid, name) track"
                        )));
                    }
                }
                counter_ts.insert(track, ts);
            }
            "b" | "n" | "e" => {
                async_events += 1;
                let Some(id) = event_id(ev) else {
                    return fail(&ctx(format!("{name:?}: async event without id")));
                };
                let cat = ev.get("cat").and_then(JsonValue::as_str).unwrap_or("");
                let key = (pid as u64, cat.to_string(), id.clone());
                match ph {
                    "b" => *open_async.entry(key).or_insert(0) += 1,
                    "e" => match open_async.get_mut(&key) {
                        Some(n) if *n > 0 => *n -= 1,
                        _ if truncated => orphans += 1,
                        _ => {
                            return fail(&ctx(format!(
                                "{name:?}: async end (id {id}) without a \
                                 matching begin"
                            )))
                        }
                    },
                    _ => {
                        // Instants inside an async span need an open begin.
                        if open_async.get(&key).copied().unwrap_or(0) == 0 {
                            if truncated {
                                orphans += 1;
                            } else {
                                return fail(&ctx(format!(
                                    "{name:?}: async instant (id {id}) outside \
                                     any open span"
                                )));
                            }
                        }
                    }
                }
            }
            other => return fail(&ctx(format!("{name:?}: unknown phase {other:?}"))),
        }
    }
    let unclosed: u64 = open_async.values().sum();
    if unclosed > 0 {
        return fail(&format!("{unclosed} async span(s) never ended"));
    }
    let trunc_note = if truncated {
        format!(
            "; flight-recorder truncated ({overflow} evicted, {orphans} \
             orphaned in-window)"
        )
    } else {
        String::new()
    };
    outln!(
        "tracecheck: {path} OK — {} events ({metadata} metadata, {spans} spans, \
         {instants} instants, {async_events} async, {counters} counters{trunc_note})",
        events.len()
    );
    ExitCode::SUCCESS
}

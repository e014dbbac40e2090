//! `benchdiff` — the CI bench-gate's comparator: diffs a freshly
//! regenerated bench JSON document against the committed baseline and
//! exits nonzero on **modeled-metric drift**.
//!
//! ```text
//! cargo run --release -p red-bench --bin benchdiff -- BENCH_loadgen.json fresh.json
//! ```
//!
//! The repo's bench baselines (`BENCH_loadgen.json`, `BENCH_serve.json`)
//! carry two kinds of numbers. **Modeled metrics** — virtual-clock
//! latencies, admission counts, batch statistics, modeled throughput —
//! are deterministic functions of the committed configuration, so a
//! regenerated document must match the baseline *exactly*; any
//! difference means the model changed and the baseline (or the change)
//! needs review. **Host metrics** — wall-clock milliseconds, host
//! images/s — measure the machine the bench ran on and differ on every
//! run, so they are reported informationally and never fail the gate.
//!
//! A field is a host metric iff its key starts with `host` (e.g.
//! `host_ms`, `host_images_per_s`); everything else is modeled. Two
//! schema-evolution allowances keep old baselines replayable by newer
//! generators: fields present only in the *fresh* document are ignored
//! (optional additions), and the `version` field may move forward.
//! Fields the baseline pins must still match exactly. Exit codes:
//! 0 = no modeled drift, 1 = drift (each divergence printed),
//! 2 = usage or parse error.

use red_bench::minijson::{parse, JsonValue};
use red_bench::outln;
use std::process::ExitCode;

/// `true` for keys whose values measure the host machine, not the
/// model.
fn is_host_key(key: &str) -> bool {
    key.starts_with("host")
}

/// `true` where a fresh-document value may legitimately differ from the
/// baseline: the schema `version` may only move forward (newer
/// generators replay older baselines), and fields present only in the
/// fresh document are *optional additions* from a newer schema — a
/// baseline regenerated with the committed config still matches on
/// every shared field, which is what the gate protects.
fn version_advanced(key: &str, base: &JsonValue, fresh: &JsonValue) -> bool {
    if key != "version" {
        return false;
    }
    match (base, fresh) {
        (JsonValue::Num(b), JsonValue::Num(f)) => f >= b,
        _ => false,
    }
}

/// Recursively compares `base` and `fresh`, appending a line per
/// modeled divergence and counting host-metric differences separately.
fn diff(
    path: &str,
    base: &JsonValue,
    fresh: &JsonValue,
    drift: &mut Vec<String>,
    host_diffs: &mut usize,
) {
    match (base, fresh) {
        (JsonValue::Obj(b), JsonValue::Obj(_)) => {
            for (key, bv) in b {
                let child = format!("{path}.{key}");
                match fresh.get(key) {
                    None => drift.push(format!("{child}: missing from fresh document")),
                    Some(fv) if is_host_key(key) => {
                        if bv != fv {
                            *host_diffs += 1;
                        }
                    }
                    Some(fv) if version_advanced(key, bv, fv) => {}
                    Some(fv) => diff(&child, bv, fv, drift, host_diffs),
                }
            }
            // Fresh-only keys are optional schema additions (a newer
            // generator replaying an older baseline), never drift: every
            // field the baseline pins was compared above.
        }
        (JsonValue::Arr(b), JsonValue::Arr(f)) => {
            if b.len() != f.len() {
                drift.push(format!(
                    "{path}: array length {} vs {} in fresh",
                    b.len(),
                    f.len()
                ));
            }
            for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                diff(&format!("{path}[{i}]"), bv, fv, drift, host_diffs);
            }
        }
        // Modeled numbers must match bit-for-bit: both documents were
        // printed by the same formatter from deterministic
        // virtual-clock arithmetic, so even the last decimal is
        // reproducible.
        _ => {
            if base != fresh {
                drift.push(format!(
                    "{path}: baseline {} vs fresh {}",
                    render(base),
                    render(fresh)
                ));
            }
        }
    }
}

/// A compact single-line rendering for diff messages.
fn render(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => format!("{n}"),
        JsonValue::Str(s) => format!("{s:?}"),
        other => format!("<{}>", other.kind()),
    }
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, fresh_path] = args.as_slice() else {
        eprintln!("usage: benchdiff <baseline.json> <fresh.json>");
        return ExitCode::from(2);
    };
    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for err in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("benchdiff: {err}");
            }
            return ExitCode::from(2);
        }
    };
    let mut drift = Vec::new();
    let mut host_diffs = 0usize;
    diff("$", &baseline, &fresh, &mut drift, &mut host_diffs);
    outln!(
        "benchdiff: {} vs {} — {} modeled divergence(s), {} host-metric difference(s) (informational)",
        baseline_path,
        fresh_path,
        drift.len(),
        host_diffs
    );
    if drift.is_empty() {
        outln!("benchdiff: modeled metrics reproduce the baseline exactly");
        ExitCode::SUCCESS
    } else {
        for line in &drift {
            outln!("  DRIFT {line}");
        }
        outln!(
            "benchdiff: modeled metrics drifted — either the change is unintended, or the \
             baseline needs regenerating with the committed config"
        );
        ExitCode::FAILURE
    }
}

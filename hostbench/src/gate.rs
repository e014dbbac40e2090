//! The correctness gate: every check a run makes is one attempted
//! operation, and every check that does not hold is one failed
//! operation. The committed `BENCH_serve.json` / `BENCH_loadgen.json`
//! baselines are read here too.

use red_bench::minijson::{self, JsonValue};

/// Attempted and failed operations of one run, with the first few
/// failure messages.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Gate {
    /// Records one checked operation; `what` describes it on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Records a fresh modeled figure against its committed value, at
    /// the precision the committed file prints it with.
    pub fn same_figure(&mut self, what: &str, fresh: f64, committed: f64, decimals: i32) {
        let tol = 0.5 * 10f64.powi(-decimals) * 1.000_001;
        self.check((fresh - committed).abs() <= tol, || {
            format!("{what}: fresh {fresh} != committed {committed}")
        });
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Reads and parses a JSON file from the working directory.
pub fn read_json(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    minijson::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The committed modeled figures of one `BENCH_serve.json` row.
#[derive(Debug, Clone, Copy)]
pub struct ServeRow {
    pub fill_us: f64,
    pub interval_us: f64,
    pub energy_per_image_uj: f64,
}

/// Looks up the `BENCH_serve.json` row for (`network`, `design`, `xbar`).
pub fn serve_row(doc: &JsonValue, network: &str, design: &str, xbar: &str) -> Option<ServeRow> {
    let row = doc.get("rows")?.as_arr()?.iter().find(|r| {
        r.get("network").and_then(JsonValue::as_str) == Some(network)
            && r.get("design").and_then(JsonValue::as_str) == Some(design)
            && r.get("xbar").and_then(JsonValue::as_str) == Some(xbar)
    })?;
    let num = |k: &str| row.get(k).and_then(JsonValue::as_num);
    Some(ServeRow {
        fill_us: num("fill_us")?,
        interval_us: num("interval_us")?,
        energy_per_image_uj: num("energy_per_image_uj")?,
    })
}

/// The committed modeled figures of one `BENCH_loadgen.json` row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadRow {
    pub served: f64,
    pub shed: f64,
    pub p99_us: f64,
    pub batches: f64,
}

/// Looks up the `BENCH_loadgen.json` row for admission `policy`.
pub fn load_row(doc: &JsonValue, policy: &str) -> Option<LoadRow> {
    let row = doc
        .get("rows")?
        .as_arr()?
        .iter()
        .find(|r| r.get("policy").and_then(JsonValue::as_str) == Some(policy))?;
    let num = |k: &str| row.get(k).and_then(JsonValue::as_num);
    Some(LoadRow {
        served: num("served")?,
        shed: num("shed")?,
        p99_us: num("p99_us")?,
        batches: num("batches")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_counts_attempts_and_failures() {
        let mut g = Gate::default();
        g.check(true, || unreachable!());
        g.check(false, || "boom".to_string());
        g.same_figure("fill", 51.2479494, 51.247949, 6);
        g.same_figure("fill", 51.247951, 51.247949, 6);
        assert_eq!((g.attempted, g.failed), (4, 2));
        assert_eq!(g.notes()[0], "boom");
    }

    #[test]
    fn baseline_rows_are_found_by_key() {
        let doc = minijson::parse(
            r#"{"rows":[{"network":"N","design":"RED","xbar":"full","fill_us":1.5,
                "interval_us":1.25,"energy_per_image_uj":0.5,"policy":"priority",
                "served":7,"shed":3,"p99_us":9.5,"batches":2}]}"#,
        )
        .unwrap();
        let s = serve_row(&doc, "N", "RED", "full").unwrap();
        assert_eq!((s.fill_us, s.interval_us), (1.5, 1.25));
        assert!(serve_row(&doc, "N", "RED", "ideal").is_none());
        let l = load_row(&doc, "priority").unwrap();
        assert_eq!(l.served + l.shed, 10.0);
        assert!(load_row(&doc, "fifo").is_none());
    }
}

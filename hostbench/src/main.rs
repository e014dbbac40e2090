//! `hostbench` — the host-time benchmark of the red-sim stack.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path hostbench/Cargo.toml -- \
//!     --workload noisy_lineup --seed 9000 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (`noisy_lineup` or `fleet_replay`)
//! from the repository root, checks its outputs, and prints the metrics
//! `BENCHMARK.json` declares: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `hostbench/README.md`.

mod fleet;
mod gate;
mod host;
mod lineup;
mod served;
mod spans;
mod xbar;

use gate::Gate;
use red_bench::minijson::JsonValue;
use red_core::prelude::XbarConfig;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// Samples of one untraced run. A pass runs every unit of the workload
/// (a chip or a row) once.
#[derive(Debug)]
pub struct EndToEnd {
    items_per_pass: f64,
    /// `[unit][pass]` wall times in ns.
    unit_walls: Vec<Vec<f64>>,
    /// Process CPU per item of each pass, in ns.
    cpu_ns: Vec<f64>,
    setup_s: f64,
}

impl EndToEnd {
    pub fn new(setup_s: f64, items_per_pass: usize) -> Self {
        EndToEnd {
            items_per_pass: items_per_pass as f64,
            unit_walls: Vec::new(),
            cpu_ns: Vec::new(),
            setup_s,
        }
    }

    pub fn passes(&self) -> usize {
        self.cpu_ns.len()
    }

    /// Records one pass: each unit's wall time and the pass's process CPU.
    pub fn record(&mut self, walls_ns: &[f64], cpu: host::CpuTimes) {
        self.unit_walls.resize(walls_ns.len(), Vec::new());
        for (unit, &w) in self.unit_walls.iter_mut().zip(walls_ns) {
            unit.push(w);
        }
        self.cpu_ns
            .push(cpu.total_ns() as f64 / self.items_per_pass);
    }

    /// Items of one pass over the sum of every unit's fastest wall. On a
    /// shared host, interference only ever adds time, and it comes in
    /// bursts of seconds; the fastest pass of each unit is the figure
    /// that repeats best from run to run (see README.md).
    fn throughput_per_s(&self) -> f64 {
        let wall: f64 = self
            .unit_walls
            .iter()
            .map(|w| w.iter().copied().fold(f64::INFINITY, f64::min))
            .sum();
        self.items_per_pass / (wall / 1e9)
    }

    /// Throughput of each pass on its own, for the printed spread.
    fn pass_rates(&self) -> Vec<f64> {
        (0..self.passes())
            .map(|p| {
                self.items_per_pass / (self.unit_walls.iter().map(|w| w[p]).sum::<f64>() / 1e9)
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    NoisyLineup,
    FleetReplay,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "noisy_lineup" => Some(Workload::NoisyLineup),
            "fleet_replay" => Some(Workload::FleetReplay),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::NoisyLineup => "noisy_lineup",
            Workload::FleetReplay => "fleet_replay",
        }
    }

    /// The seed the committed baselines were recorded with.
    fn committed_seed(self) -> u64 {
        match self {
            Workload::NoisyLineup => 9000,
            Workload::FleetReplay => fleet::COMMITTED_SEED,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).map(String::as_str)
    };
    let workload = value("--workload")
        .and_then(Workload::parse)
        .ok_or("--workload must be noisy_lineup or fleet_replay")?;
    let seed = match value("--seed") {
        None => workload.committed_seed(),
        Some(s) => s
            .parse()
            .map_err(|_| "--seed must be an unsigned integer")?,
    };
    let seconds = match value("--seconds") {
        None => 10.0,
        Some(s) => s
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
    };
    let trace = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The `(name, unit)` list of `kind` (`end_to_end` or `per_layer`) in
/// `BENCHMARK.json`.
fn declared_metrics(spec: &JsonValue, kind: &str) -> Result<Vec<(String, String)>, String> {
    spec.get(kind)
        .and_then(JsonValue::as_arr)
        .ok_or(format!("BENCHMARK.json has no {kind} list"))?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or(format!("BENCHMARK.json {kind} entry lacks name or unit"))
        })
        .collect()
}

/// One untraced run: the end-to-end metrics.
fn untraced(
    args: &Args,
    serve_doc: &JsonValue,
    loadgen_doc: &JsonValue,
    gate: &mut Gate,
) -> Metrics {
    let e2e = match args.workload {
        Workload::NoisyLineup => lineup::noisy_lineup(args.seed, args.seconds, serve_doc, gate),
        Workload::FleetReplay => fleet::fleet_replay(args.seed, args.seconds, loadgen_doc, gate),
    };
    for (name, samples) in [
        ("throughput_per_s", e2e.pass_rates()),
        ("cpu_ns_per_item", e2e.cpu_ns.clone()),
    ] {
        let (q1, q2, q3) = host::quartiles(&samples);
        println!(
            "# {name} per pass: median {q2:.4}, quartiles {q1:.4} .. {q3:.4}, {} passes",
            samples.len()
        );
    }
    let mut m = Metrics::new();
    m.insert("throughput_per_s".into(), e2e.throughput_per_s());
    m.insert("cpu_ns_per_item".into(), host::median(&e2e.cpu_ns));
    m.insert("setup_s".into(), e2e.setup_s);
    m.insert("peak_rss_mb".into(), host::peak_rss_mb());
    m
}

/// One traced run: every per-layer metric, whatever the workload; the
/// workload picks the pass the tracing overhead is measured on.
fn traced(args: &Args, serve_doc: &JsonValue, gate: &mut Gate) -> Metrics {
    let mut m = Metrics::new();
    let mut spans = spans::Spans::new();
    // First, so `telemetry.peak_rss_mb` is not inflated by the lineups.
    let fleet_walls = fleet::trace(args.seed, gate, &mut spans, &mut m);
    served::trace(args.seed, serve_doc, gate, &mut spans, &mut m);

    let mut ideal = lineup::Lineup::build(XbarConfig::ideal(), args.seed);
    m.insert(
        "runtime.compile_ms.ideal".into(),
        ideal.chips.iter().map(|c| c.compile_ns).sum::<f64>() / 1e6,
    );
    lineup::trace_regime(&mut ideal, "ideal", 5, gate, &mut spans, &mut m);
    drop(ideal);

    let full = XbarConfig::preset("full").expect("the full preset exists");
    let mut noisy = lineup::Lineup::build(full, args.seed);
    for c in &noisy.chips {
        m.insert(
            format!("runtime.compile_ms.noisy.{}.{}", c.net, c.design),
            c.compile_ns / 1e6,
        );
    }
    let noisy_walls = lineup::trace_regime(&mut noisy, "noisy", 2, gate, &mut spans, &mut m);
    xbar::probe(&noisy, args.seed, gate, &mut m);

    let (plain, with_spans) = match args.workload {
        Workload::NoisyLineup => noisy_walls,
        Workload::FleetReplay => fleet_walls,
    };
    m.insert("trace.overhead_share".into(), with_spans / plain - 1.0);
    println!(
        "# tracing overhead on {}: {:.3} ms traced - {:.3} ms untraced = {:.3} ms",
        args.workload.name(),
        with_spans / 1e6,
        plain / 1e6,
        (with_spans - plain) / 1e6
    );

    let dir = std::path::Path::new("hostbench/target");
    let path = dir.join(format!("spans-{}.json", args.workload.name()));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_chrome_trace()))
    {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written: {e}"),
    }
    m
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload noisy_lineup|fleet_replay \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // Every input file is read before any measurement starts.
    let inputs = (|| {
        let spec = gate::read_json("BENCHMARK.json")?;
        let kind = if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        };
        Ok::<_, String>((
            declared_metrics(&spec, kind)?,
            gate::read_json("BENCH_serve.json")?,
            gate::read_json("BENCH_loadgen.json")?,
        ))
    })();
    let (declared, serve_doc, loadgen_doc) = match inputs {
        Ok(i) => i,
        Err(e) => {
            eprintln!("hostbench: {e} (run from the repository root)");
            return ExitCode::from(2);
        }
    };
    println!("# env {}", host::env_header());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut gate = Gate::default();
    let measured = if args.trace {
        traced(&args, &serve_doc, &mut gate)
    } else {
        untraced(&args, &serve_doc, &loadgen_doc, &mut gate)
    };

    let mut fields = Vec::with_capacity(declared.len());
    for (name, unit) in &declared {
        let value = measured.get(name).copied().filter(|v| v.is_finite());
        gate.check(value.is_some(), || {
            format!("metric {name} was not measured")
        });
        let value = value.unwrap_or(0.0);
        println!("# {name} = {value} {unit}");
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            red_bench::json_escape(name),
            red_bench::json_escape(unit)
        ));
    }
    for name in measured
        .keys()
        .filter(|k| !declared.iter().any(|(d, _)| d == *k))
    {
        println!("# (undeclared metric {name} not reported)");
    }
    for note in gate.notes() {
        println!("# FAILED: {note}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0,
        gate.attempted.max(1),
        gate.failed,
        fields.join(", ")
    );
    if gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_and_default_to_committed_seeds() {
        let a = args(&["--workload", "fleet_replay", "--trace", "1"]).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.trace),
            (Workload::FleetReplay, 7, true)
        );
        let a = args(&[
            "--workload",
            "noisy_lineup",
            "--seed",
            "12",
            "--seconds",
            "3",
        ])
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (12, 3.0, false));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "served_ideal"]).is_err());
        assert!(args(&["--workload", "fleet_replay", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "fleet_replay", "--seconds", "-1"]).is_err());
        assert!(args(&[]).is_err());
    }

    #[test]
    fn declared_metrics_read_names_and_units() {
        let spec = red_bench::minijson::parse(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}],
                "per_layer":[{"name":"a.b","unit":"ms","better":"lower"}]}"#,
        )
        .unwrap();
        assert_eq!(
            declared_metrics(&spec, "end_to_end").unwrap(),
            vec![("setup_s".to_string(), "s".to_string())]
        );
        assert_eq!(declared_metrics(&spec, "per_layer").unwrap().len(), 1);
        assert!(declared_metrics(&spec, "workloads").is_err());
    }

    #[test]
    fn the_committed_spec_declares_what_the_benchmark_measures() {
        let text = include_str!("../../BENCHMARK.json");
        let spec = red_bench::minijson::parse(text).unwrap();
        let e2e = declared_metrics(&spec, "end_to_end").unwrap();
        let names: Vec<&str> = e2e.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "throughput_per_s",
                "cpu_ns_per_item",
                "setup_s",
                "peak_rss_mb"
            ]
        );
        let per_layer = declared_metrics(&spec, "per_layer").unwrap();
        let stages = per_layer
            .iter()
            .filter(|(n, _)| n.starts_with("arch.stage_ms."))
            .count();
        assert_eq!(stages, 54, "one arch.stage_ms per stage of both regimes");
    }
}

//! `serve` — batched, pipelined end-to-end inference through the
//! `red-runtime` chip: compiles the DCGAN / SNGAN / FCN-8s stacks onto
//! per-layer tile groups for all three designs and pushes a configurable
//! batch through each with `Chip::run_pipelined` (image shards on one
//! host thread per core; the modeled chip pipelines its layers), printing
//! the serving throughput table.
//!
//! ```text
//! cargo run --release -p red-bench --bin serve -- --batch 4 --scale 8
//! cargo run --release -p red-bench --bin serve -- --batch 16 --scale 8 --verify
//! cargo run --release -p red-bench --bin serve -- --batch 4 --scale 8 --csv results
//! cargo run --release -p red-bench --bin serve -- --batch 8 --scale 8 \
//!     --noisy full --json BENCH_serve.json
//! ```
//!
//! `--scale N` divides every stack's channels by `N` (1 = full size; the
//! functional simulation of full-size stacks is slow — the analytic
//! figures come from the `PipelineReport` machinery either way).
//! `--verify` additionally runs the sequential golden path and asserts
//! the pipelined **and** stage-major batched outputs are bit-exact
//! against it.
//! `--noisy <preset>` adds a second pass over the lineup with the named
//! non-ideal crossbar configuration (`variation`, `adc`, `ir-drop`,
//! `full` — see `XbarConfig::preset`), so the table and the JSON cover
//! the analog simulation path next to the exact one. Noisy serving runs
//! the full Fig. 1(a) pipeline — bit-serial phases over the
//! programming-time effective-current plane — per VMM.
//! `--json <path>` additionally emits the table machine-readably — the
//! file committed as `BENCH_serve.json` is the perf-trajectory baseline,
//! regenerated with the command shown in README's Performance section.
//! Each row carries an `output_digest` (FNV-1a over the batch's output
//! tensors), so replaying the baseline through `benchdiff` pins the
//! functional outputs exactly, not just the modeled figures.
//! `--trace <path>` records every chip run's per-stage virtual-clock
//! schedule as a Chrome trace-event / Perfetto timeline (one trace
//! process per table row; open at `ui.perfetto.dev`).
//!
//! Every run asserts that the measured schedule — each stage's actually
//! issued cycles, priced at its cost-model cycle time — reconciles with
//! the analytical pipeline prediction (fill = stage sum, steady-state
//! interval = bottleneck stage), so a run that drops, duplicates or
//! misroutes images, or an engine whose dataflow diverges from its priced
//! geometry, fails the CI smoke instead of printing wrong numbers.

use red_bench::{
    cli_args, csv_dir, flag_value, json_escape, maybe_write_csv, out, outln, parse_flag,
    render_table,
};
use red_core::prelude::*;
use red_core::workloads::networks;
use red_runtime::ChipBuilder;
use red_telemetry::{peak_rss_kb, Telemetry};
use std::process::ExitCode;

/// One serving measurement, kept numeric for the JSON emitter.
struct ServeRow {
    network: String,
    design: String,
    xbar: String,
    exec_mode: String,
    stages: usize,
    macros: usize,
    area_mm2: f64,
    fill_us: f64,
    interval_us: f64,
    images_per_s: f64,
    speedup_vs_zero_padding: f64,
    energy_per_image_uj: f64,
    output_digest: u64,
    host_ms: f64,
    host_images_per_s: f64,
}

impl ServeRow {
    fn table_cells(&self) -> Vec<String> {
        vec![
            self.network.clone(),
            self.design.clone(),
            self.xbar.clone(),
            self.stages.to_string(),
            self.macros.to_string(),
            format!("{:.3}", self.area_mm2),
            format!("{:.2}", self.fill_us),
            format!("{:.2}", self.interval_us),
            format!("{:.0}", self.images_per_s),
            format!("{:.2}x", self.speedup_vs_zero_padding),
            format!("{:.3}", self.energy_per_image_uj),
            format!("{:.1}", self.host_ms),
        ]
    }

    fn json_object(&self) -> String {
        format!(
            "{{\"network\":\"{}\",\"design\":\"{}\",\"xbar\":\"{}\",\"exec_mode\":\"{}\",\
             \"stages\":{},\"macros\":{},\
             \"area_mm2\":{:.6},\"fill_us\":{:.6},\"interval_us\":{:.6},\
             \"images_per_s\":{:.3},\"speedup_vs_zero_padding\":{:.4},\
             \"energy_per_image_uj\":{:.6},\"output_digest\":\"{:016x}\",\
             \"host_ms\":{:.3},\"host_images_per_s\":{:.2}}}",
            json_escape(&self.network),
            json_escape(&self.design),
            json_escape(&self.xbar),
            json_escape(&self.exec_mode),
            self.stages,
            self.macros,
            self.area_mm2,
            self.fill_us,
            self.interval_us,
            self.images_per_s,
            self.speedup_vs_zero_padding,
            self.energy_per_image_uj,
            self.output_digest,
            self.host_ms,
            self.host_images_per_s,
        )
    }
}

/// Schema version of the `--json` document: 2 added the explicit
/// `version` key plus per-row `exec_mode` (noisy rows previously shared
/// the row schema by convention only); 3 added per-row `output_digest`;
/// 4 dropped per-row `workers_per_stage` (the host's core count, not a
/// modeled figure).
const JSON_SCHEMA_VERSION: u32 = 4;

/// 64-bit FNV-1a over a batch's output tensors: each tensor's shape,
/// then its values, as little-endian bytes.
fn output_digest(outputs: &[FeatureMap<i64>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for out in outputs {
        for dim in [out.height(), out.width(), out.channels()] {
            eat(dim as u64);
        }
        for &v in out.as_slice() {
            eat(v as u64);
        }
    }
    hash
}

fn write_json(path: &str, batch: usize, scale: usize, rows: &[ServeRow]) -> std::io::Result<()> {
    let objects: Vec<String> = rows.iter().map(ServeRow::json_object).collect();
    let doc = format!(
        "{{\n  \"bench\": \"serve\",\n  \"version\": {JSON_SCHEMA_VERSION},\n  \
         \"batch\": {batch},\n  \"scale\": {scale},\n  \
         \"rows\": [\n    {}\n  ]\n}}\n",
        objects.join(",\n    ")
    );
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, doc)
}

/// Every flag `serve` knows, as [`red_bench::unknown_arg`] reads them.
const USAGE: &str = "usage: serve [--batch N] [--scale N] [--verify] \
    [--noisy variation|adc|ir-drop|full] [--csv <dir>] [--json <path>] \
    [--trace <path>]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let Some(args) = cli_args(USAGE) else {
        return ExitCode::from(2);
    };
    let (Some(batch), Some(scale)) = (
        parse_flag::<usize>(&args, "--batch", 8),
        parse_flag::<usize>(&args, "--scale", 8),
    ) else {
        return usage();
    };
    if batch == 0 || scale == 0 {
        eprintln!("--batch and --scale must be positive");
        return ExitCode::from(2);
    }
    let verify = args.iter().any(|a| a == "--verify");
    let noisy = match flag_value(&args, "--noisy") {
        None => None,
        Some(Some(name)) => match XbarConfig::preset(name) {
            Some(cfg) => Some((name.to_string(), cfg)),
            None => {
                eprintln!(
                    "unknown --noisy preset {name:?} \
                     (expected variation, adc, ir-drop, or full)"
                );
                return ExitCode::from(2);
            }
        },
        Some(None) => {
            eprintln!("--noisy requires a preset name argument");
            return ExitCode::from(2);
        }
    };
    let path_flag = |name: &str| match flag_value(&args, name) {
        Some(None) => Err(()),
        path => Ok(path.flatten().map(str::to_owned)),
    };
    let Ok(json_path) = path_flag("--json") else {
        eprintln!("--json requires a path argument");
        return ExitCode::from(2);
    };
    let Ok(trace_path) = path_flag("--trace") else {
        eprintln!("--trace requires a path argument");
        return ExitCode::from(2);
    };
    let telemetry = if trace_path.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    outln!("== red-runtime serve: batched pipelined inference ==");
    outln!(
        "batch {batch}, channel scale {scale}, one image shard per core{}{}",
        match &noisy {
            Some((name, _)) => format!(", noisy pass: {name} preset"),
            None => String::new(),
        },
        if verify {
            ", verifying against sequential golden path"
        } else {
            ""
        }
    );

    let mut passes = vec![("ideal".to_string(), XbarConfig::ideal())];
    if let Some((name, cfg)) = noisy {
        passes.push((name, cfg));
    }

    let stacks = networks::serving_lineup(scale).expect("serving stacks build");
    let headers = [
        "network",
        "design",
        "xbar",
        "stages",
        "macros",
        "area (mm2)",
        "fill (us)",
        "interval (us)",
        "img/s",
        "speedup",
        "energy/img (uJ)",
        "host (ms)",
    ];
    let mut rows: Vec<ServeRow> = Vec::new();
    for (xbar_label, xbar_cfg) in &passes {
        for stack in &stacks {
            let inputs: Vec<_> = (0..batch)
                .map(|i| synth::input_dense(&stack.layers[0], 64, 9000 + i as u64))
                .collect();
            let mut zp_interval = 0.0;
            for design in Design::paper_lineup() {
                let mut chip = ChipBuilder::new()
                    .design(design)
                    .xbar_config(*xbar_cfg)
                    .compile_seeded(stack, 5, 77)
                    .expect("stack compiles onto the chip");
                if telemetry.is_enabled() {
                    // One trace "process" per table row: the pid encodes
                    // (pass, network, design) so every chip's stage
                    // timeline lands on its own Perfetto track group.
                    let pid = 100 + rows.len() as u32;
                    chip.set_telemetry(telemetry.clone(), pid);
                    telemetry.name_process(
                        pid,
                        &format!("{} / {} ({xbar_label})", stack.name, design.label()),
                    );
                }
                let run = chip
                    .run_pipelined(&inputs)
                    .expect("batch streams through the pipeline");
                let report = &run.report;
                let analytic = chip.pipeline_report();
                assert!(
                    report.reconciles_with(&analytic),
                    "{} on {} ({xbar_label}): measured schedule (fill {:.3} us, \
                     interval {:.3} us) diverged from the analytic prediction \
                     (fill {:.3} us, bottleneck {:.3} us)",
                    stack.name,
                    design.label(),
                    report.fill_latency_ns / 1e3,
                    report.steady_interval_ns / 1e3,
                    analytic.fill_latency_ns() / 1e3,
                    analytic.steady_interval_ns() / 1e3,
                );
                if verify {
                    let golden = chip
                        .run_sequential(&inputs)
                        .expect("sequential golden path runs");
                    assert_eq!(
                        golden.outputs,
                        run.outputs,
                        "{} on {} ({xbar_label}): pipelined outputs must be bit-exact \
                         vs sequential",
                        stack.name,
                        design.label()
                    );
                    // The stage-major batched executor — the path that
                    // engages the blocked exact VMMs — must compute the
                    // same function.
                    let batched = chip
                        .run_batched_with_scratch(&inputs, &mut chip.make_scratch())
                        .expect("stage-major batched path runs");
                    assert_eq!(
                        golden.outputs,
                        batched.outputs,
                        "{} on {} ({xbar_label}): batched outputs must be bit-exact \
                         vs sequential",
                        stack.name,
                        design.label()
                    );
                }
                if design == Design::ZeroPadding {
                    zp_interval = report.steady_interval_ns;
                }
                let plan = chip.floorplan();
                rows.push(ServeRow {
                    network: stack.name.to_string(),
                    design: design.label().to_string(),
                    xbar: xbar_label.clone(),
                    exec_mode: "pipelined".to_string(),
                    stages: chip.depth(),
                    macros: plan.total_macros(),
                    area_mm2: plan.total_area_um2() / 1e6,
                    fill_us: report.fill_latency_ns / 1e3,
                    interval_us: report.steady_interval_ns / 1e3,
                    images_per_s: report.throughput_per_s(),
                    speedup_vs_zero_padding: zp_interval / report.steady_interval_ns,
                    energy_per_image_uj: report.energy_per_image_pj / 1e6,
                    output_digest: output_digest(&run.outputs),
                    host_ms: report.wall_ns as f64 / 1e6,
                    host_images_per_s: report.host_images_per_s(),
                });
            }
        }
    }
    let cells: Vec<Vec<String>> = rows.iter().map(ServeRow::table_cells).collect();
    out!("{}", render_table(&headers, &cells));
    maybe_write_csv(csv_dir(&args), "serve", &headers, &cells);
    if let Some(path) = &json_path {
        match write_json(path, batch, scale, &rows) {
            Ok(()) => outln!("(wrote {path})"),
            Err(e) => {
                eprintln!("json write failed for {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &trace_path {
        match std::fs::write(path, telemetry.export_chrome_trace()) {
            Ok(()) => outln!("(wrote {path})"),
            Err(e) => {
                eprintln!("trace write failed for {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    outln!(
        "\nIntervals are the measured steady-state output spacing; each row is\n\
         asserted to match the analytic bottleneck stage. RED compresses every\n\
         stage by ~stride^2, so it compresses the pipeline bottleneck — and the\n\
         served images/sec — by the same factor{}",
        if verify {
            "; all pipelined and batched\noutputs verified bit-exact against sequential execution."
        } else {
            "."
        }
    );
    if let Some(kb) = peak_rss_kb() {
        outln!("(peak RSS {kb} kB)");
    }
    ExitCode::SUCCESS
}

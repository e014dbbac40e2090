//! The chip lineup — DCGAN, SNGAN and FCN-8s at channel scale 8, each on
//! zero-padding, padding-free and RED — and the `noisy_lineup` workload
//! that pushes a batch of 8 through every chip stage-major on one thread.

use crate::gate::{self, Gate};
use crate::host::{self, median};
use crate::spans::Spans;
use crate::{EndToEnd, Metrics};
use red_bench::minijson::JsonValue;
use red_core::prelude::*;
use red_core::workloads::networks;
use red_core::LayerScratch;
use red_runtime::{Chip, ChipBuilder, ChipScratch};
use std::time::Instant;

/// Short network names, in `serving_lineup` order.
pub const NETS: [&str; 3] = ["dcgan", "sngan", "fcn"];
/// Short design names, in `Design::paper_lineup` order.
pub const DESIGNS: [&str; 3] = ["zp", "pf", "red"];
/// Channel scale of every stack.
pub const SCALE: usize = 8;
/// Images per chip run.
pub const BATCH: usize = 8;
/// Kernel weight bound and seed of `compile_seeded`, as in
/// `BENCH_serve.json`.
pub const KERNEL_BOUND: i64 = 5;
pub const KERNEL_SEED: u64 = 77;

/// One compiled network × design chip with its inputs.
#[derive(Debug)]
pub struct LineupChip {
    pub net: &'static str,
    pub design: &'static str,
    pub network_name: &'static str,
    pub design_label: &'static str,
    pub chip: Chip,
    pub scratch: ChipScratch,
    pub inputs: Vec<FeatureMap<i64>>,
    pub compile_ns: f64,
}

/// The nine lineup chips on one crossbar configuration.
#[derive(Debug)]
pub struct Lineup {
    pub chips: Vec<LineupChip>,
}

type Outputs = Vec<FeatureMap<i64>>;

impl Lineup {
    /// Compiles the nine chips on `cfg` and synthesizes each chip's batch
    /// (`synth::input_dense(first layer, 64, seed + i)`).
    pub fn build(cfg: XbarConfig, seed: u64) -> Lineup {
        let stacks = networks::serving_lineup(SCALE).expect("serving stacks build");
        let mut chips = Vec::with_capacity(9);
        for (net, stack) in NETS.iter().zip(&stacks) {
            let inputs: Vec<_> = (0..BATCH)
                .map(|i| synth::input_dense(&stack.layers[0], 64, seed.wrapping_add(i as u64)))
                .collect();
            for (design_name, design) in DESIGNS.iter().zip(Design::paper_lineup()) {
                let t = Instant::now();
                let chip = ChipBuilder::new()
                    .design(design)
                    .xbar_config(cfg)
                    .compile_seeded(stack, KERNEL_BOUND, KERNEL_SEED)
                    .expect("lineup stack compiles onto the chip");
                let scratch = chip.make_scratch();
                chips.push(LineupChip {
                    net,
                    design: design_name,
                    network_name: stack.name,
                    design_label: design.label(),
                    chip,
                    scratch,
                    inputs: inputs.clone(),
                    compile_ns: host::elapsed_ns(t),
                });
            }
        }
        Lineup { chips }
    }

    pub fn images(&self) -> usize {
        self.chips.len() * BATCH
    }

    /// Sequential golden outputs of every chip (`Chip::run_sequential`).
    pub fn goldens(&self, gate: &mut Gate) -> Vec<Outputs> {
        self.chips
            .iter()
            .map(|c| match c.chip.run_sequential(&c.inputs) {
                Ok(run) => run.outputs,
                Err(e) => {
                    gate.check(false, || format!("{}/{} golden: {e}", c.net, c.design));
                    Vec::new()
                }
            })
            .collect()
    }

    /// One stage-major pass through every chip
    /// (`Chip::run_batched_with_scratch`); returns each chip's wall time
    /// in ns. Every run is checked against `goldens` and its measured
    /// schedule against the analytic pipeline.
    pub fn pass(&mut self, goldens: &[Outputs], gate: &mut Gate) -> Vec<f64> {
        let mut walls = Vec::with_capacity(self.chips.len());
        for (c, golden) in self.chips.iter_mut().zip(goldens) {
            let t = Instant::now();
            let run = c.chip.run_batched_with_scratch(&c.inputs, &mut c.scratch);
            walls.push(host::elapsed_ns(t));
            match run {
                Ok(run) => {
                    gate.check(run.outputs == *golden, || {
                        format!(
                            "{}/{}: batched outputs differ from sequential",
                            c.net, c.design
                        )
                    });
                    gate.check(
                        run.report.reconciles_with(&c.chip.pipeline_report()),
                        || format!("{}/{}: schedule does not reconcile", c.net, c.design),
                    );
                }
                Err(e) => gate.check(false, || format!("{}/{}: {e}", c.net, c.design)),
            }
        }
        walls
    }

    /// Checks every chip's modeled figures against the `xbar` rows of
    /// `BENCH_serve.json`. They depend on the stack shapes and chip seeds
    /// only, never on the input seed.
    pub fn check_modeled(&self, doc: &JsonValue, xbar: &str, gate: &mut Gate) {
        for c in &self.chips {
            let what = format!("{}/{} ({xbar})", c.net, c.design);
            let Some(row) = gate::serve_row(doc, c.network_name, c.design_label, xbar) else {
                gate.check(false, || format!("{what}: no BENCH_serve.json row"));
                continue;
            };
            let p = c.chip.pipeline_report();
            gate.same_figure(
                &format!("{what} fill_us"),
                p.fill_latency_ns() / 1e3,
                row.fill_us,
                6,
            );
            gate.same_figure(
                &format!("{what} interval_us"),
                p.steady_interval_ns() / 1e3,
                row.interval_us,
                6,
            );
            gate.same_figure(
                &format!("{what} energy_per_image_uj"),
                c.chip.energy_per_image_pj() / 1e6,
                row.energy_per_image_uj,
                6,
            );
        }
    }

    /// Modeled RED-vs-zero-padding figures: geomeans over the three
    /// networks of the steady-interval speedup and of `1 − E_RED/E_ZP`.
    pub fn modeled_red_vs_zp(&self) -> (f64, f64) {
        let by = |net: &str, design: &str| {
            let c = self
                .chips
                .iter()
                .find(|c| c.net == net && c.design == design)
                .expect("every lineup chip is present");
            (
                c.chip.pipeline_report().steady_interval_ns(),
                c.chip.energy_per_image_pj(),
            )
        };
        let (mut speedups, mut savings) = (Vec::new(), Vec::new());
        for net in NETS {
            let (zp_int, zp_e) = by(net, "zp");
            let (red_int, red_e) = by(net, "red");
            speedups.push(zp_int / red_int);
            savings.push(1.0 - red_e / zp_e);
        }
        (
            host::geomean(&speedups).unwrap_or(0.0),
            host::geomean(&savings).unwrap_or(0.0),
        )
    }
}

/// Repeats `build` at least `min_reps` times (and until a second of
/// set-up has been timed, at most 50 times); returns the last result and
/// the median set-up time in seconds.
pub fn timed_setup<T>(min_reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut samples = Vec::new();
    let mut last = None;
    while samples.len() < min_reps || (samples.iter().sum::<f64>() < 1.0 && samples.len() < 50) {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        samples.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), median(&samples))
}

/// The `noisy_lineup` workload (tracing off).
pub fn noisy_lineup(seed: u64, seconds: f64, serve_doc: &JsonValue, gate: &mut Gate) -> EndToEnd {
    let cfg = XbarConfig::preset("full").expect("the full preset exists");
    let (mut lineup, setup_s) = timed_setup(3, || Lineup::build(cfg, seed));
    let goldens = lineup.goldens(gate);
    lineup.check_modeled(serve_doc, "full", gate);
    let (speedup, saving) = lineup.modeled_red_vs_zp();
    println!("# modeled: speedup_red_vs_zp {speedup:.4}, energy_saving_red_vs_zp {saving:.4}");

    lineup.pass(&goldens, gate); // warm-up, untimed
    let mut e2e = EndToEnd::new(setup_s, lineup.images());
    let t0 = Instant::now();
    while e2e.passes() == 0 || t0.elapsed().as_secs_f64() < seconds {
        let cpu0 = host::process_cpu();
        let walls = lineup.pass(&goldens, gate);
        e2e.record(&walls, host::process_cpu().since(cpu0));
    }
    e2e
}

/// Runs chip `c` stage by stage exactly as
/// `Chip::run_batched_with_scratch` does, timing every stage's
/// `CompiledLayer::run_batch_with` call in its own span under one run
/// span. Returns the outputs, the stage times and the run span's self
/// time (input clone, activations, collection), all in ns.
fn run_staged(
    c: &LineupChip,
    scratches: &mut [LayerScratch],
    spans: &mut Spans,
    label: &str,
) -> Result<(Outputs, Vec<f64>, f64), String> {
    let run = spans.open(
        "runtime",
        format!("{label}.{}.{}.run_batched", c.net, c.design),
        None,
    );
    let depth = c.chip.depth();
    let mut stage_ns = Vec::with_capacity(depth);
    let mut fms = c.inputs.to_vec();
    for (k, (stage, scratch)) in c.chip.stages().iter().zip(scratches.iter_mut()).enumerate() {
        let id = spans.open(
            "arch",
            format!("{label}.{}.{}.s{k}", c.net, c.design),
            Some(run),
        );
        let execs = stage
            .compiled()
            .run_batch_with(&fms, scratch)
            .map_err(|e| e.to_string())?;
        stage_ns.push(spans.close(id));
        let last = k + 1 == depth;
        fms = execs
            .into_iter()
            .map(|e| {
                if last {
                    e.output
                } else {
                    c.chip.activation().apply(&e.output)
                }
            })
            .collect();
    }
    spans.close(run);
    Ok((fms, stage_ns, spans.self_ns(run)))
}

/// Per-layer measurement of one crossbar regime (`label` is `ideal` or
/// `noisy`): `reps` passes, each running every chip once through
/// `Chip::run_batched_with_scratch` and once stage by stage. Emits
/// `arch.stage_ms.*`, `arch.ns_per_activation.*`,
/// `runtime.handoff_ms.*` (the stage-by-stage run's self time) and
/// `runtime.run_batched_ms.*` (the direct calls); per chip, medians over
/// the passes. Returns the summed median wall of the direct and of the
/// stage-by-stage runs, in ns.
pub fn trace_regime(
    lineup: &mut Lineup,
    label: &str,
    reps: usize,
    gate: &mut Gate,
    spans: &mut Spans,
    m: &mut Metrics,
) -> (f64, f64) {
    let n = lineup.chips.len();
    let mut scratches: Vec<Vec<LayerScratch>> = lineup
        .chips
        .iter()
        .map(|c| {
            c.chip
                .stages()
                .iter()
                .map(|s| s.compiled().make_scratch())
                .collect()
        })
        .collect();
    let mut direct = vec![Vec::new(); n];
    let mut handoff = vec![Vec::new(); n];
    let mut stage_samples: Vec<Vec<Vec<f64>>> = lineup
        .chips
        .iter()
        .map(|c| vec![Vec::new(); c.chip.depth()])
        .collect();
    for _ in 0..reps {
        for (i, c) in lineup.chips.iter_mut().enumerate() {
            let id = spans.open(
                "runtime",
                format!("{label}.{}.{}.run_batched_with_scratch", c.net, c.design),
                None,
            );
            let run = c.chip.run_batched_with_scratch(&c.inputs, &mut c.scratch);
            direct[i].push(spans.close(id));
            let traced = run_staged(c, &mut scratches[i], spans, label);
            match (run, traced) {
                (Ok(run), Ok((outputs, stage_ns, self_ns))) => {
                    gate.check(run.outputs == outputs, || {
                        format!(
                            "{label} {}/{}: stage-by-stage outputs differ",
                            c.net, c.design
                        )
                    });
                    handoff[i].push(self_ns);
                    for (k, ns) in stage_ns.into_iter().enumerate() {
                        stage_samples[i][k].push(ns);
                    }
                }
                (run, traced) => {
                    let err = run.err().map(|e| e.to_string()).or(traced.err());
                    gate.check(false, || format!("{label} {}/{}: {err:?}", c.net, c.design));
                }
            }
        }
    }

    let (mut direct_sum, mut staged_sum, mut handoff_sum) = (0.0, 0.0, 0.0);
    for design in DESIGNS {
        let (mut busy_ns, mut activations) = (0.0, 0.0);
        for (i, c) in lineup.chips.iter().enumerate() {
            if c.design != design {
                continue;
            }
            let stage_med: Vec<f64> = stage_samples[i].iter().map(|s| median(s)).collect();
            for (k, ns) in stage_med.iter().enumerate() {
                m.insert(
                    format!("arch.stage_ms.{label}.{}.{}.s{k}", c.net, c.design),
                    ns / 1e6,
                );
            }
            let stages_ns: f64 = stage_med.iter().sum();
            busy_ns += stages_ns;
            activations +=
                (c.chip.hardware_per_image().crossbar_activations as usize * BATCH) as f64;
            handoff_sum += median(&handoff[i]);
            direct_sum += median(&direct[i]);
            staged_sum += stages_ns + median(&handoff[i]);
        }
        m.insert(
            format!("arch.ns_per_activation.{label}.{design}"),
            busy_ns / activations,
        );
    }
    m.insert(format!("runtime.handoff_ms.{label}"), handoff_sum / 1e6);
    m.insert(format!("runtime.run_batched_ms.{label}"), direct_sum / 1e6);
    println!(
        "# {label}: stages + handoff {:.3} ms vs run_batched_with_scratch {:.3} ms",
        staged_sum / 1e6,
        direct_sum / 1e6
    );
    (direct_sum, staged_sum)
}

//! Ablations over RED's two techniques and the model's key assumptions:
//!
//! 1. **pixel-wise mapping without zero-skipping** — keep the sub-crossbar
//!    split but stream one output pixel per cycle, as the paper's §III-B
//!    motivates zero-skipping;
//! 2. **Eq. 2 halving** on each benchmark — area saved vs cycles paid;
//! 3. **driver-upsizing exponent** — how the padding-free array-energy
//!    penalty (Fig. 8's 4.48–7.53×) depends on the wordline driving law;
//! 4. **weight/input precision** — bit-slice count vs cost;
//! 5. **physical macro tiling** — the paper's logical-array model vs
//!    bounded 512×512 / 128×128 macros: do the orderings survive?
//! 6. **pipelined stacks** — whole-generator throughput per design.

use red_bench::{out, outln, render_table};
use red_core::prelude::*;

fn main() {
    let model = CostModel::paper_default();

    // ---- 1. zero-skipping ablation.
    outln!("ABLATION 1 — pixel-wise mapping WITHOUT zero-skipping\n");
    let mut rows = Vec::new();
    for b in Benchmark::all() {
        let layer = b.layer();
        let zp = model.evaluate(Design::ZeroPadding, &layer).unwrap();
        let red = model
            .evaluate(Design::red(RedLayoutPolicy::Auto), &layer)
            .unwrap();
        // Mapping-only: same sub-crossbar geometry, but one output pixel
        // per cycle (no mode-parallel batching), zeros still streamed.
        let mut mapping_only = red.geometry;
        mapping_only.cycles = zp.geometry.cycles;
        mapping_only.total_row_slots = zp.geometry.total_row_slots;
        let mapping_only = model.price(mapping_only);
        rows.push(vec![
            b.name().to_string(),
            format!("{:.2}x", mapping_only.speedup_vs(&zp)),
            format!("{:.2}x", red.speedup_vs(&zp)),
            format!("{:.2}x", red.speedup_vs(&zp) / mapping_only.speedup_vs(&zp)),
        ]);
    }
    out!(
        "{}",
        render_table(
            &["benchmark", "mapping only", "mapping + skip", "skip gain"],
            &rows
        )
    );
    outln!("(zero-skipping supplies essentially the whole speedup — the mapping\n alone only restructures the array, as §III-B argues)\n");

    // ---- 2. Eq. 2 halving everywhere.
    outln!("ABLATION 2 — full vs halved SCT (Eq. 2) on every benchmark\n");
    let mut rows = Vec::new();
    for b in Benchmark::all() {
        let layer = b.layer();
        let zp = model.evaluate(Design::ZeroPadding, &layer).unwrap();
        let full = model
            .evaluate(Design::red(RedLayoutPolicy::AlwaysFull), &layer)
            .unwrap();
        let halved = model
            .evaluate(Design::red(RedLayoutPolicy::AlwaysHalved), &layer)
            .unwrap();
        rows.push(vec![
            b.name().to_string(),
            format!(
                "{:.2}x / {:+.1}%",
                full.speedup_vs(&zp),
                full.area_overhead_vs(&zp) * 100.0
            ),
            format!(
                "{:.2}x / {:+.1}%",
                halved.speedup_vs(&zp),
                halved.area_overhead_vs(&zp) * 100.0
            ),
        ]);
    }
    out!(
        "{}",
        render_table(
            &["benchmark", "full: speedup/area", "halved: speedup/area"],
            &rows
        )
    );
    outln!("(the paper picks halved only for the 256-tap FCN kernel)\n");

    // ---- 3. Driver-upsizing exponent sweep.
    outln!("ABLATION 3 — wordline driver energy law vs padding-free array penalty\n");
    let layer = Benchmark::GanDeconv1.layer();
    let mut rows = Vec::new();
    for exp in [0.0, 0.25, 0.55, 0.75, 1.0] {
        let params = CircuitParams {
            driver_upsize_exp: exp,
            ..CircuitParams::default()
        };
        let m = CostModel::new(TechnologyParams::node_65nm(), params, CellConfig::default());
        let zp = m.evaluate(Design::ZeroPadding, &layer).unwrap();
        let pf = m.evaluate(Design::PaddingFree, &layer).unwrap();
        rows.push(vec![
            format!("{exp:.2}"),
            format!("{:.2}x", pf.array_energy_pj() / zp.array_energy_pj()),
            format!("{:.2}x", pf.total_energy_pj() / zp.total_energy_pj()),
        ]);
    }
    out!(
        "{}",
        render_table(
            &["upsize exp", "PF/ZP array energy", "PF/ZP total energy"],
            &rows
        )
    );
    outln!("(exp=0 is the pure-capacitive bound; the calibrated 0.55 lands the\n paper's 4.48x-7.53x band; 1.0 is the literal quadratic-power reading)\n");

    // ---- 4. Precision sweep.
    outln!("ABLATION 4 — weight precision vs RED cost (GAN_Deconv3)\n");
    let layer = Benchmark::GanDeconv3.layer();
    let mut rows = Vec::new();
    for bits in [4u32, 8, 16] {
        let params = CircuitParams {
            weight_bits: bits,
            input_bits: bits,
            ..CircuitParams::default()
        };
        let m = CostModel::new(TechnologyParams::node_65nm(), params, CellConfig::default());
        let r = m
            .evaluate(Design::red(RedLayoutPolicy::Auto), &layer)
            .unwrap();
        rows.push(vec![
            format!("{bits}"),
            format!("{}", m.cells_per_weight()),
            format!("{:.2}", r.total_latency_ns() / 1e3),
            format!("{:.2}", r.total_energy_pj() / 1e6),
            format!("{:.3}", r.total_area_um2() / 1e6),
        ]);
    }
    out!(
        "{}",
        render_table(
            &[
                "bits",
                "cells/weight",
                "latency (us)",
                "energy (uJ)",
                "area (mm2)"
            ],
            &rows
        )
    );

    // ---- 5. Physical tiling.
    outln!("\nABLATION 5 — logical arrays vs bounded physical macros (GAN_Deconv3)\n");
    let layer = Benchmark::GanDeconv3.layer();
    let mut rows = Vec::new();
    for (name, mac) in [
        ("logical (paper mode)", None),
        ("512x512 macros", Some(MacroSpec::m512())),
        ("128x128 macros", Some(MacroSpec::m128())),
    ] {
        let eval = |d: Design| match mac {
            None => model.evaluate(d, &layer).unwrap(),
            Some(m) => model.evaluate_tiled(d, &layer, m).unwrap(),
        };
        let zp = eval(Design::ZeroPadding);
        let red = eval(Design::red(RedLayoutPolicy::Auto));
        rows.push(vec![
            name.to_string(),
            format!("{:.2}x", red.speedup_vs(&zp)),
            format!("{:.1}%", red.energy_saving_vs(&zp) * 100.0),
            format!("{:.3}", zp.total_area_um2() / 1e6),
        ]);
    }
    out!(
        "{}",
        render_table(
            &["array model", "RED speedup", "RED saving", "ZP area (mm2)"],
            &rows
        )
    );
    outln!("(absolute costs move under tiling; the paper's orderings do not)\n");

    // ---- 6. Pipelined stacks.
    outln!("ABLATION 6 — pipelined DCGAN generator (4 stages)\n");
    let stack = red_core::workloads::networks::dcgan_generator(1).unwrap();
    let mut rows = Vec::new();
    let zp_pipe = PipelineReport::evaluate(&model, Design::ZeroPadding, &stack.layers).unwrap();
    for design in Design::paper_lineup() {
        let p = PipelineReport::evaluate(&model, design, &stack.layers).unwrap();
        rows.push(vec![
            design.label().to_string(),
            format!("{:.2}", p.fill_latency_ns() / 1e3),
            format!("{:.2}", p.steady_interval_ns() / 1e3),
            format!("{}", p.bottleneck()),
            format!("{:.2}x", p.speedup_vs(&zp_pipe)),
            format!("{:.1}", p.energy_per_input_pj() / 1e6),
        ]);
    }
    out!(
        "{}",
        render_table(
            &[
                "design",
                "fill (us)",
                "interval (us)",
                "bottleneck",
                "speedup",
                "energy/input (uJ)"
            ],
            &rows
        )
    );
    outln!("(PipeLayer/ReGAN-style inter-layer pipelining; RED compresses the\n bottleneck stage by ~stride^2, so throughput scales with the single-layer speedup)");

    // ---- 7. Buffer traffic.
    outln!("\nABLATION 7 — feature-map buffer traffic (words moved per layer)\n");
    let mut rows = Vec::new();
    for b in Benchmark::all() {
        let layer = b.layer();
        let cells: Vec<String> = Design::paper_lineup()
            .iter()
            .map(|&d| {
                let t = model.traffic(d, &layer).unwrap();
                format!("{:.2e}", t.total_words() as f64)
            })
            .collect();
        let pf = model.traffic(Design::PaddingFree, &layer).unwrap();
        rows.push(vec![
            b.name().to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            format!("{:.2e}", pf.partial_traffic as f64),
        ]);
    }
    out!(
        "{}",
        render_table(
            &[
                "benchmark",
                "zero-padding",
                "padding-free",
                "RED",
                "PF spill"
            ],
            &rows
        )
    );
    outln!("(RED matches zero-padding's useful traffic with no partial-sum spill;\n padding-free trades input re-reads for overlap-add buffer traffic)");
}

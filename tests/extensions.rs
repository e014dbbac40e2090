//! Integration coverage for the beyond-the-paper extensions (DESIGN.md
//! §5b) through the public API: convolution, pipelining, macro tiling,
//! programming cost, and sparsity-aware evaluation — and the interactions
//! between them.

use red_core::prelude::*;
use red_core::tensor::conv::conv2d;
use red_core::workloads::networks;

#[test]
fn conv_engine_runs_a_discriminator_block() {
    // A DCGAN-discriminator-style strided conv block: 16x16x8 -> 8x8x16.
    let layer = ConvLayerShape::new(16, 16, 8, 16, 4, 4, 2, 1).unwrap();
    let kernel = Kernel::from_fn(4, 4, 8, 16, |i, j, c, m| {
        ((i * 31 + j * 17 + c * 5 + m) % 160) as i64 - 80
    });
    let input = FeatureMap::from_fn(16, 16, 8, |h, w, c| ((h * 3 + w * 7 + c) % 50) as i64 + 1);
    let engine = ConvEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
    let mut scratch = LayerScratch::default();
    let exec = engine
        .run(std::slice::from_ref(&input), &mut scratch)
        .unwrap();
    let exec = &exec[0];
    let golden = conv2d(&input, &kernel, 2, 1).unwrap();
    assert_eq!(exec.output, golden);
    assert_eq!((exec.output.height(), exec.output.width()), (8, 8));
    // Priced through the same cost model.
    let report = CostModel::paper_default().evaluate_conv(&layer).unwrap();
    assert_eq!(report.geometry.cycles, 64);
    assert!(report.total_energy_pj() > 0.0);
}

#[test]
fn conv_and_deconv_costs_share_the_substrate() {
    // A conv layer and the deconv layer with the same array geometry and
    // output-pixel count must be priced identically — same machine.
    let model = CostModel::paper_default();
    let deconv = LayerShape::new(8, 8, 64, 32, 3, 3, 1, 0).unwrap();
    let zp = model.evaluate(Design::ZeroPadding, &deconv).unwrap();
    let (oh, _) = (deconv.output_geometry().height, ());
    let conv = ConvLayerShape::new(oh, oh, 64, 32, 3, 3, 1, 1).unwrap();
    let cv = model.evaluate_conv(&conv).unwrap();
    assert_eq!(zp.geometry.array.rows, cv.geometry.array.rows);
    assert_eq!(zp.geometry.array.weight_cols, cv.geometry.array.weight_cols);
    // Same per-cycle machinery.
    assert!((zp.cycle_time_ns() - cv.cycle_time_ns()).abs() < 1e-9);
}

#[test]
fn whole_network_pipeline_on_all_designs() {
    let model = CostModel::paper_default();
    let stack = networks::sngan_generator(1).unwrap();
    let zp = PipelineReport::evaluate(&model, Design::ZeroPadding, &stack.layers).unwrap();
    let red = PipelineReport::evaluate(&model, Design::red(RedLayoutPolicy::Auto), &stack.layers)
        .unwrap();
    assert_eq!(zp.depth(), 3);
    // RED compresses the bottleneck by ~stride^2 across the whole network.
    let s = red.speedup_vs(&zp);
    assert!((3.4..=4.0).contains(&s), "pipeline speedup {s}");
    // Pipeline area = sum of stages; both designs keep all weights resident.
    assert!(red.total_area_um2() > zp.total_area_um2());
    // Throughput at batch scale: affine check.
    let b = 32;
    assert!(red.batch_latency_ns(b) < zp.batch_latency_ns(b));
}

#[test]
fn tiling_preserves_paper_bands_qualitatively() {
    let model = CostModel::paper_default();
    for b in Benchmark::gans() {
        let layer = b.layer();
        let zp = model
            .evaluate_tiled(Design::ZeroPadding, &layer, MacroSpec::m512())
            .unwrap();
        let red = model
            .evaluate_tiled(
                Design::red(RedLayoutPolicy::Auto),
                &layer,
                MacroSpec::m512(),
            )
            .unwrap();
        let s = red.speedup_vs(&zp);
        assert!(
            s > 3.0,
            "{b}: tiled RED speedup {s} must stay near stride^2"
        );
        assert!(
            red.energy_saving_vs(&zp) > 0.0,
            "{b}: tiled RED must save energy"
        );
    }
}

#[test]
fn programming_cost_consistency_across_suite() {
    let model = CostModel::paper_default();
    for b in Benchmark::all() {
        let layer = b.layer();
        let costs: Vec<_> = Design::paper_lineup()
            .iter()
            .map(|&d| model.programming_cost(d, &layer).unwrap())
            .collect();
        // Identical cells and write energy; RED never slower to program.
        assert_eq!(costs[0].cells, costs[2].cells, "{b}");
        assert!(costs[2].time_ns <= costs[0].time_ns, "{b}");
        assert_eq!(
            costs[0].cells,
            layer.weights() as u128 * model.cells_per_weight() as u128,
            "{b}"
        );
    }
}

#[test]
fn sparsity_monotonically_reduces_energy() {
    let model = CostModel::paper_default();
    let layer = Benchmark::GanDeconv3.layer();
    let mut last = f64::INFINITY;
    for density in [1.0, 0.75, 0.5, 0.25] {
        let r = model
            .evaluate_with_density(Design::red(RedLayoutPolicy::Auto), &layer, density)
            .unwrap();
        let e = r.total_energy_pj();
        assert!(e < last, "density {density}: energy must fall");
        last = e;
    }
}

#[test]
fn sparsity_helps_every_design_equally_in_relative_terms() {
    // Zero activations are skipped by all three dataflows, so the RED vs
    // zero-padding energy ratio is stable across densities.
    let model = CostModel::paper_default();
    let layer = Benchmark::GanDeconv4.layer();
    let ratio_at = |d: f64| {
        let zp = model
            .evaluate_with_density(Design::ZeroPadding, &layer, d)
            .unwrap();
        let red = model
            .evaluate_with_density(Design::red(RedLayoutPolicy::Auto), &layer, d)
            .unwrap();
        red.total_energy_pj() / zp.total_energy_pj()
    };
    let dense = ratio_at(1.0);
    let sparse = ratio_at(0.5);
    assert!(
        (dense - sparse).abs() < 0.1,
        "relative energy should be density-stable (dense {dense:.3} vs sparse {sparse:.3})"
    );
}

#[test]
fn conv_then_deconv_autoencoder_roundtrip() {
    // Encoder (strided conv) -> decoder (RED deconv): the full
    // autoencoder/GAN pattern through the simulated substrate.
    let enc_layer = ConvLayerShape::new(8, 8, 4, 8, 4, 4, 2, 1).unwrap();
    let enc_kernel = Kernel::from_fn(4, 4, 4, 8, |i, j, c, m| ((i + j + c + m) % 7) as i64 - 3);
    let image = FeatureMap::from_fn(8, 8, 4, |h, w, c| ((h * 5 + w * 3 + c) % 30) as i64 + 1);
    let encoder = ConvEngine::new(&XbarConfig::ideal(), &enc_layer, &enc_kernel).unwrap();
    let mut scratch = LayerScratch::default();
    let code = encoder.run(std::slice::from_ref(&image), &mut scratch);
    let code = code.unwrap().remove(0).output;
    assert_eq!((code.height(), code.width(), code.channels()), (4, 4, 8));

    // Clamp the code into crossbar input range before decoding.
    let code = code.map(|v| v % 100);
    let dec_layer = LayerShape::new(4, 4, 8, 4, 4, 4, 2, 1).unwrap();
    let dec_kernel = Kernel::from_fn(4, 4, 8, 4, |i, j, c, m| {
        ((i * 3 + j + c + m) % 9) as i64 - 4
    });
    let acc = Accelerator::builder()
        .design(Design::red(RedLayoutPolicy::Auto))
        .build();
    // The decoder runs in the encoder's scratch: one scratch serves both.
    let decoded = acc
        .compile(&dec_layer, &dec_kernel)
        .unwrap()
        .run_batch_with(std::slice::from_ref(&code), &mut scratch)
        .unwrap()
        .remove(0);
    assert_eq!(
        (
            decoded.output.height(),
            decoded.output.width(),
            decoded.output.channels()
        ),
        (8, 8, 4)
    );
    // Verified against the golden path.
    let golden =
        red_core::tensor::deconv::deconv_direct(&code, &dec_kernel, dec_layer.spec()).unwrap();
    assert_eq!(decoded.output, golden);
}

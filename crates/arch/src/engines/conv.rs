use super::window::{self, WindowGeom};
use super::{Execution, LayerScratch};
use crate::plan::ExecPlan;
use crate::{ArchError, CostModel, CostReport, Design, DesignGeometry};
use red_tensor::{ConvLayerShape, FeatureMap, Kernel, LayerShape};
use red_xbar::{CrossbarArray, ExecPrecision, XbarConfig};

/// Standard-convolution engine on the crossbar substrate.
///
/// This is the classic Fig. 1(b) kernel mapping the paper describes in
/// §II-A — `KH·KW·C` rows × `M` columns, one output pixel per cycle — the
/// operator the substrate accelerators (PRIME, ISAAC, PipeLayer) were
/// built for. The repository includes it so whole networks (a GAN's
/// conv discriminator, an FCN's conv backbone) can be mapped alongside
/// their deconvolution layers; RED itself only changes the *deconvolution*
/// layers.
///
/// Like the deconvolution engines, the receptive-field window schedule is
/// resolved once at construction into an [`ExecPlan`] and replayed
/// allocation-free on every run.
#[derive(Debug, Clone)]
pub struct ConvEngine {
    layer: ConvLayerShape,
    array: CrossbarArray,
    plan: ExecPlan,
}

impl ConvEngine {
    /// Programs the engine for `layer` with `kernel`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::KernelMismatch`] when the kernel does not
    /// match the layer, and propagates programming errors.
    pub fn new(
        cfg: &XbarConfig,
        layer: &ConvLayerShape,
        kernel: &Kernel<i64>,
    ) -> Result<Self, ArchError> {
        if kernel.kernel_h() != layer.kernel_h()
            || kernel.kernel_w() != layer.kernel_w()
            || kernel.channels() != layer.channels()
            || kernel.filters() != layer.filters()
        {
            return Err(ArchError::KernelMismatch {
                detail: format!(
                    "kernel {}x{}x{}x{} vs conv layer {}x{}x{}x{}",
                    kernel.kernel_h(),
                    kernel.kernel_w(),
                    kernel.channels(),
                    kernel.filters(),
                    layer.kernel_h(),
                    layer.kernel_w(),
                    layer.channels(),
                    layer.filters()
                ),
            });
        }
        let (kh, kw, c, m) = (
            kernel.kernel_h(),
            kernel.kernel_w(),
            kernel.channels(),
            kernel.filters(),
        );
        let mut flat = Vec::with_capacity(kh * kw * c * m);
        for i in 0..kh {
            for j in 0..kw {
                for ch in 0..c {
                    flat.extend_from_slice(kernel.row(i, j, ch));
                }
            }
        }
        let array = CrossbarArray::program_flat(cfg, kh * kw * c, m, flat)?;
        let plan = Self::build_plan(layer);
        Ok(Self {
            layer: *layer,
            array,
            plan,
        })
    }

    /// Resolves the window schedule: output pixel `(u, v)`'s window tap
    /// `(i, j)` reads input `(u·s + i - p, v·s + j - p)` when that lands
    /// inside the input; zero-padded border taps are simply never
    /// gathered.
    fn build_plan(layer: &ConvLayerShape) -> ExecPlan {
        let (kh, kw) = (layer.kernel_h(), layer.kernel_w());
        let (oh, ow) = layer.output_extent();
        let (s, p) = (layer.stride(), layer.padding());
        let mut plan = ExecPlan::new();
        for u in 0..oh {
            for v in 0..ow {
                plan.begin_pixel(u, v);
                for i in 0..kh {
                    for j in 0..kw {
                        // Padded coordinate -> input coordinate.
                        let (hp, wp) = (u * s + i, v * s + j);
                        if hp < p || wp < p {
                            continue;
                        }
                        let (h, w) = (hp - p, wp - p);
                        if h >= layer.input_h() || w >= layer.input_w() {
                            continue;
                        }
                        plan.push_gather(i * kw + j, h, w);
                    }
                }
            }
        }
        plan
    }

    /// The conv layer this engine was programmed for.
    pub fn layer(&self) -> &ConvLayerShape {
        &self.layer
    }

    /// The programmed crossbar (for inspection/tests).
    pub fn array(&self) -> &CrossbarArray {
        &self.array
    }

    fn check_input(&self, input: &FeatureMap<i64>) -> Result<(), ArchError> {
        let l = &self.layer;
        if input.height() != l.input_h()
            || input.width() != l.input_w()
            || input.channels() != l.channels()
        {
            return Err(ArchError::InputMismatch {
                detail: format!(
                    "input {}x{}x{} vs conv layer {}x{}x{}",
                    input.height(),
                    input.width(),
                    input.channels(),
                    l.input_h(),
                    l.input_w(),
                    l.channels()
                ),
            });
        }
        Ok(())
    }

    /// Executes the convolution on every input of a batch, replaying the
    /// compile-time window plan pixel-major at full precision; the only
    /// heap allocations per call are the outputs. A single image is a
    /// batch of one.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InputMismatch`] when an input's shape does not
    /// match the layer; no input runs then.
    pub fn run(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut LayerScratch,
    ) -> Result<Vec<Execution>, ArchError> {
        for input in inputs {
            self.check_input(input)?;
        }
        let l = &self.layer;
        let (oh, ow) = l.output_extent();
        let g = WindowGeom {
            channels: l.channels(),
            filters: l.filters(),
            out_h: oh,
            out_w: ow,
            window_len: l.taps() * l.channels(),
        };
        Ok(window::run_plan(
            &self.plan,
            &self.array,
            g,
            inputs,
            scratch,
            ExecPrecision::Full,
        ))
    }
}

impl CostModel {
    /// Prices a standard convolution layer on the substrate's Fig. 1(b)
    /// mapping (the same machinery the zero-padding deconvolution design
    /// uses, with the conv layer's own output-pixel cycle count).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError`] if the equivalent geometry cannot be derived.
    pub fn evaluate_conv(&self, layer: &ConvLayerShape) -> Result<CostReport, ArchError> {
        // The crossbar geometry of a conv layer is identical in form to the
        // zero-padding deconvolution mapping: (KH·KW·C) x M array,
        // one output pixel per cycle. Reuse that derivation on a deconv
        // LayerShape with matching array dims and cycle count, then patch
        // the cycle-dependent fields to the conv layer's true counts.
        let proxy = LayerShape::new(
            layer.input_h(),
            layer.input_w(),
            layer.channels(),
            layer.filters(),
            layer.kernel_h(),
            layer.kernel_w(),
            1,
            0,
        )
        .map_err(|e| ArchError::KernelMismatch {
            detail: format!("conv layer not mappable: {e}"),
        })?;
        let mut g = DesignGeometry::derive(Design::ZeroPadding, &proxy, self.cells_per_weight())?;
        let cycles = layer.output_pixels() as u64;
        let phys_cols = g.phys_cols_per_instance() as u128;
        g.cycles = cycles;
        g.conversions = cycles as u128 * phys_cols;
        g.sa_events = cycles as u128 * layer.filters() as u128;
        g.total_row_slots = cycles as u128 * g.array.total_rows() as u128;
        // Dense conv: every window tap lands on a real pixel except at the
        // zero-padded border. Bill the interior count (border effects are
        // second order for the sizes of interest).
        g.nonzero_row_activations = g.total_row_slots;
        Ok(self.price(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use red_tensor::conv::conv2d;

    fn run_one(engine: &ConvEngine, input: &FeatureMap<i64>) -> Result<Execution, ArchError> {
        let mut runs = engine.run(std::slice::from_ref(input), &mut LayerScratch::default())?;
        Ok(runs.pop().expect("one execution per input"))
    }

    fn setup(
        k: usize,
        s: usize,
        p: usize,
        ih: usize,
        c: usize,
        m: usize,
    ) -> (ConvLayerShape, Kernel<i64>, FeatureMap<i64>) {
        let layer = ConvLayerShape::new(ih, ih, c, m, k, k, s, p).unwrap();
        let kernel = Kernel::from_fn(k, k, c, m, |i, j, cc, mm| {
            ((i * 23 + j * 11 + cc * 5 + mm * 3) % 200) as i64 - 100
        });
        let input = FeatureMap::from_fn(ih, ih, c, |h, w, cc| {
            ((h * 9 + w * 5 + cc) % 60) as i64 - 25
        });
        (layer, kernel, input)
    }

    #[test]
    fn matches_golden_conv() {
        for (k, s, p, ih) in [(3, 1, 1, 6), (3, 2, 1, 8), (5, 1, 2, 7), (4, 2, 0, 8)] {
            let (layer, kernel, input) = setup(k, s, p, ih, 4, 3);
            let engine = ConvEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
            let exec = run_one(&engine, &input).unwrap();
            let golden = conv2d(&input, &kernel, s, p).unwrap();
            assert_eq!(exec.output, golden, "k={k} s={s} p={p}");
            assert_eq!(exec.stats.cycles, layer.output_pixels() as u64);
        }
    }

    #[test]
    fn run_batch_matches_per_image_runs_ideal_and_noisy() {
        let (layer, kernel, input) = setup(3, 2, 1, 8, 4, 3);
        let inputs: Vec<_> = (0..3).map(|k| input.map(|v| v + k as i64)).collect();
        for cfg in [XbarConfig::ideal(), XbarConfig::noisy(0.01, 0.001, 0.0, 31)] {
            let engine = ConvEngine::new(&cfg, &layer, &kernel).unwrap();
            let batch = engine.run(&inputs, &mut LayerScratch::default()).unwrap();
            for (one, exec) in inputs.iter().zip(&batch) {
                let single = run_one(&engine, one).unwrap();
                assert_eq!(single.output, exec.output);
                assert_eq!(single.stats, exec.stats);
            }
        }
    }

    #[test]
    fn run_batch_pixel_major_path_matches_per_image() {
        // 16 taps x 128 channels x 64 filters = 1 MiB of weights: crosses
        // the blocking threshold, exercising vmm_batch_at's row blocking
        // across the batch.
        let (layer, kernel, input) = setup(4, 1, 1, 6, 128, 64);
        let engine = ConvEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
        assert!(engine.array().batching_pays());
        let inputs: Vec<_> = (0..2).map(|k| input.map(|v| v + k as i64)).collect();
        let batch = engine.run(&inputs, &mut LayerScratch::default()).unwrap();
        for (one, exec) in inputs.iter().zip(&batch) {
            let single = run_one(&engine, one).unwrap();
            assert_eq!(single.output, exec.output);
            assert_eq!(single.stats, exec.stats);
        }
    }

    #[test]
    fn array_shape_is_fig1b_mapping() {
        let (layer, kernel, _) = setup(3, 1, 1, 6, 4, 5);
        let engine = ConvEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
        assert_eq!(engine.array().rows(), 9 * 4);
        assert_eq!(engine.array().weight_cols(), 5);
        assert_eq!(engine.layer(), &layer);
    }

    #[test]
    fn rejects_bad_shapes() {
        let (layer, kernel, _) = setup(3, 1, 1, 6, 4, 3);
        let bad = Kernel::<i64>::zeros(3, 3, 4, 2);
        assert!(ConvEngine::new(&XbarConfig::ideal(), &layer, &bad).is_err());
        let engine = ConvEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
        assert!(run_one(&engine, &FeatureMap::<i64>::zeros(5, 6, 4)).is_err());
    }

    #[test]
    fn conv_cost_scales_with_output_pixels() {
        let model = CostModel::paper_default();
        let small = ConvLayerShape::new(8, 8, 32, 16, 3, 3, 1, 1).unwrap();
        let big = ConvLayerShape::new(16, 16, 32, 16, 3, 3, 1, 1).unwrap();
        let rs = model.evaluate_conv(&small).unwrap();
        let rb = model.evaluate_conv(&big).unwrap();
        assert_eq!(rs.geometry.cycles, 64);
        assert_eq!(rb.geometry.cycles, 256);
        let ratio = rb.total_latency_ns() / rs.total_latency_ns();
        assert!((ratio - 4.0).abs() < 0.01, "latency ratio {ratio}");
        // Same weights, same area.
        assert!((rs.total_area_um2() - rb.total_area_um2()).abs() < 1e-6);
    }

    #[test]
    fn strided_conv_costs_fewer_cycles() {
        let model = CostModel::paper_default();
        let dense = ConvLayerShape::new(16, 16, 8, 8, 3, 3, 1, 1).unwrap();
        let strided = ConvLayerShape::new(16, 16, 8, 8, 3, 3, 2, 1).unwrap();
        let rd = model.evaluate_conv(&dense).unwrap();
        let rs = model.evaluate_conv(&strided).unwrap();
        assert!(rs.geometry.cycles < rd.geometry.cycles);
        assert!(rs.total_energy_pj() < rd.total_energy_pj());
    }
}

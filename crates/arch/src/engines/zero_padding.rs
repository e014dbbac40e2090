use super::window::{self, WindowGeom, WindowScratch};
use super::{check_input, check_kernel, DeconvEngine, Execution};
use crate::plan::ExecPlan;
use crate::{ArchError, Design};
use red_tensor::{FeatureMap, Kernel, LayerShape};
use red_xbar::{CrossbarArray, ExecPrecision, XbarConfig};

/// The conventional zero-padding design (paper Fig. 3(a)): the kernel maps
/// like a standard convolution onto one `(KH·KW·C) × M` crossbar, and the
/// zero-inserted, border-padded input streams through it one receptive
/// field per cycle — `OH·OW` cycles, most of whose wordlines carry the
/// inserted zeros (Fig. 4's redundancy).
///
/// Row order matches the window flattening `((i·KW + j)·C + c)` with the
/// 180°-rotated kernel, exactly composing Algorithm 1's two steps.
///
/// Instead of materialising the zero-inserted padded tensor per image, the
/// window schedule — which real input pixel lands in which receptive-field
/// slot of which output pixel — is resolved once at construction into an
/// [`ExecPlan`] and replayed allocation-free by every run.
#[derive(Debug, Clone)]
pub struct ZeroPaddingEngine {
    layer: LayerShape,
    array: CrossbarArray,
    plan: ExecPlan,
}

/// Reusable working memory for [`ZeroPaddingEngine::run_with`]: the
/// gathered receptive-field window, the per-pixel output buffer, and the
/// analog-path VMM scratch.
#[derive(Debug, Clone)]
pub struct ZpScratch(WindowScratch);

impl ZeroPaddingEngine {
    /// Programs the engine for `layer` with `kernel`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::KernelMismatch`] when the kernel does not match
    /// the layer, and propagates programming errors.
    pub fn new(
        cfg: &XbarConfig,
        layer: &LayerShape,
        kernel: &Kernel<i64>,
    ) -> Result<Self, ArchError> {
        check_kernel(layer, kernel)?;
        let rotated = kernel.rotate_180();
        let (kh, kw) = (rotated.kernel_h(), rotated.kernel_w());
        let (c, m) = (rotated.channels(), rotated.filters());
        let mut flat = Vec::with_capacity(kh * kw * c * m);
        for i in 0..kh {
            for j in 0..kw {
                for ch in 0..c {
                    flat.extend_from_slice(rotated.row(i, j, ch));
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

    /// Resolves the window schedule: output pixel `(u, v)`'s receptive
    /// field covers padded coordinates `(u+i, v+j)`; a padded coordinate
    /// holds real input pixel `(x, y)` exactly when it sits `stride`-aligned
    /// past the `K-1-p` border (`zero_insert_pad`'s layout — every other
    /// slot is an inserted zero the plan simply never gathers).
    fn build_plan(layer: &LayerShape) -> ExecPlan {
        let spec = layer.spec();
        let s = spec.stride();
        let (kh, kw) = (spec.kernel_h(), spec.kernel_w());
        let bh = spec.border_before(kh);
        let bw = spec.border_before(kw);
        let geom = layer.output_geometry();
        let (ih, iw) = (layer.input_h(), layer.input_w());
        let mut plan = ExecPlan::new();
        for u in 0..geom.height {
            for v in 0..geom.width {
                plan.begin_pixel(u, v);
                for i in 0..kh {
                    for j in 0..kw {
                        let (Some(dh), Some(dw)) =
                            ((u + i).checked_sub(bh), (v + j).checked_sub(bw))
                        else {
                            continue;
                        };
                        if dh % s != 0 || dw % s != 0 {
                            continue;
                        }
                        let (x, y) = (dh / s, dw / s);
                        if x >= ih || y >= iw {
                            continue;
                        }
                        plan.push_gather(i * kw + j, x, y);
                    }
                }
            }
        }
        plan
    }

    /// The programmed crossbar (for inspection/tests).
    pub fn array(&self) -> &CrossbarArray {
        &self.array
    }

    /// The frozen window schedule (for inspection/tests).
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    fn window_geom(&self) -> WindowGeom {
        let geom = self.layer.output_geometry();
        WindowGeom {
            channels: self.layer.channels(),
            filters: self.layer.filters(),
            out_h: geom.height,
            out_w: geom.width,
            window_len: self.layer.spec().taps() * self.layer.channels(),
        }
    }

    /// Creates working memory for [`ZeroPaddingEngine::run_with`].
    pub fn make_scratch(&self) -> ZpScratch {
        let g = self.window_geom();
        ZpScratch(WindowScratch::new(g.window_len, g.filters))
    }

    /// Executes the layer on `input` with caller-provided scratch,
    /// replaying the compile-time window plan (the rotated-kernel row
    /// order means window element `((i·KW + j)·C + c)` pairs with rotated
    /// tap `(i, j)`); the only heap allocation per call is the output
    /// feature map itself.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InputMismatch`] for a wrong-shaped input.
    pub fn run_with(
        &self,
        input: &FeatureMap<i64>,
        scratch: &mut ZpScratch,
    ) -> Result<Execution, ArchError> {
        self.run_with_at(input, scratch, ExecPrecision::Full)
    }

    /// [`ZeroPaddingEngine::run_with`] at an explicit precision tier:
    /// `prec` selects how many low input bits the crossbar drops per
    /// window (see [`ExecPrecision`]). Metering is unchanged across
    /// tiers; only the VMM conversion-phase window narrows.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InputMismatch`] for a wrong-shaped input.
    pub fn run_with_at(
        &self,
        input: &FeatureMap<i64>,
        scratch: &mut ZpScratch,
        prec: ExecPrecision,
    ) -> Result<Execution, ArchError> {
        check_input(&self.layer, input)?;
        Ok(window::run_plan(
            &self.plan,
            &self.array,
            self.window_geom(),
            input,
            &mut scratch.0,
            prec,
        ))
    }
}

impl DeconvEngine for ZeroPaddingEngine {
    fn design(&self) -> Design {
        Design::ZeroPadding
    }

    fn layer(&self) -> &LayerShape {
        &self.layer
    }

    fn run(&self, input: &FeatureMap<i64>) -> Result<Execution, ArchError> {
        self.run_with(input, &mut self.make_scratch())
    }

    /// Batched execution: when the `(KH·KW·C) × M` array is large enough
    /// for batching to pay ([`CrossbarArray::batching_pays`] — the
    /// cache-blocked exact path on ideal crossbars), every output pixel's
    /// windows are gathered for the whole batch and multiplied through
    /// [`CrossbarArray::vmm_batch`], so the weights stream from cache
    /// once per block instead of once per image. Smaller or non-ideal
    /// arrays fall back to per-image execution with shared scratch.
    /// Bit-exact against per-input [`DeconvEngine::run`] either way.
    fn run_batch(&self, inputs: &[FeatureMap<i64>]) -> Result<Vec<Execution>, ArchError> {
        if !self.array.batching_pays() {
            let mut scratch = self.make_scratch();
            return inputs
                .iter()
                .map(|input| self.run_with(input, &mut scratch))
                .collect();
        }
        self.run_batch_blocked(inputs, ExecPrecision::Full)
    }
}

impl ZeroPaddingEngine {
    /// [`DeconvEngine::run_batch`] with caller-provided scratch: the
    /// per-image fallback below the batching threshold reuses `scratch`
    /// instead of allocating a fresh one per call, so a serving loop
    /// issuing many small batches stays allocation-free in steady state.
    /// Above the threshold this is exactly `run_batch`. Bit-exact against
    /// both either way.
    ///
    /// # Errors
    ///
    /// As [`DeconvEngine::run_batch`].
    pub fn run_batch_with(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut ZpScratch,
    ) -> Result<Vec<Execution>, ArchError> {
        self.run_batch_with_at(inputs, scratch, ExecPrecision::Full)
    }

    /// [`ZeroPaddingEngine::run_batch_with`] at an explicit precision
    /// tier (see [`ZeroPaddingEngine::run_with_at`]).
    ///
    /// # Errors
    ///
    /// As [`DeconvEngine::run_batch`].
    pub fn run_batch_with_at(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut ZpScratch,
        prec: ExecPrecision,
    ) -> Result<Vec<Execution>, ArchError> {
        if !self.array.batching_pays() {
            return inputs
                .iter()
                .map(|input| self.run_with_at(input, scratch, prec))
                .collect();
        }
        self.run_batch_blocked(inputs, prec)
    }

    /// The paying pixel-major batch path (shared by `run_batch` and
    /// `run_batch_with_at`).
    fn run_batch_blocked(
        &self,
        inputs: &[FeatureMap<i64>],
        prec: ExecPrecision,
    ) -> Result<Vec<Execution>, ArchError> {
        for input in inputs {
            check_input(&self.layer, input)?;
        }
        Ok(window::run_plan_batch(
            &self.plan,
            &self.array,
            self.window_geom(),
            inputs,
            prec,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use red_tensor::deconv::deconv_direct;

    fn setup(
        k: usize,
        s: usize,
        p: usize,
        op: usize,
        ih: usize,
        c: usize,
        m: usize,
    ) -> (LayerShape, Kernel<i64>, FeatureMap<i64>) {
        let spec = red_tensor::DeconvSpec::with_output_padding(k, k, s, p, op).unwrap();
        let layer = LayerShape::with_spec(ih, ih, c, m, spec).unwrap();
        let kernel = Kernel::from_fn(k, k, c, m, |i, j, cc, mm| {
            ((i * 37 + j * 11 + cc * 3 + mm * 7) % 200) as i64 - 100
        });
        let input = FeatureMap::from_fn(ih, ih, c, |h, w, cc| {
            ((h * 13 + w * 5 + cc) % 50) as i64 - 20
        });
        (layer, kernel, input)
    }

    #[test]
    fn matches_golden_deconv() {
        for (k, s, p, op, ih) in [(4, 2, 1, 0, 4), (5, 2, 2, 1, 4), (3, 3, 0, 0, 3)] {
            let (layer, kernel, input) = setup(k, s, p, op, ih, 6, 4);
            let engine = ZeroPaddingEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
            let exec = engine.run(&input).unwrap();
            let golden = deconv_direct(&input, &kernel, layer.spec()).unwrap();
            assert_eq!(exec.output, golden, "k={k} s={s} p={p} op={op}");
        }
    }

    #[test]
    fn cycle_count_is_output_pixels() {
        let (layer, kernel, input) = setup(4, 2, 1, 0, 4, 3, 2);
        let engine = ZeroPaddingEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
        let exec = engine.run(&input).unwrap();
        let geom = layer.output_geometry();
        assert_eq!(exec.stats.cycles, geom.pixels() as u64);
        assert_eq!(exec.stats.output_pixels, geom.pixels() as u64);
    }

    #[test]
    fn measures_the_fig4_redundancy() {
        // Dense input: the measured zero-slot fraction equals the analytic
        // per-MAC redundancy of the redundancy module.
        let spec = red_tensor::DeconvSpec::new(4, 4, 2, 1).unwrap();
        let layer = LayerShape::with_spec(4, 4, 3, 2, spec).unwrap();
        let kernel = Kernel::from_fn(4, 4, 3, 2, |i, j, c, m| (i + j + c + m) as i64);
        let input = FeatureMap::from_fn(4, 4, 3, |_, _, _| 1); // all non-zero
        let engine = ZeroPaddingEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
        let exec = engine.run(&input).unwrap();
        let analytic = red_tensor::redundancy::mac_zero_fraction(4, 4, &spec).unwrap();
        assert!(
            (exec.stats.zero_slot_fraction() - analytic).abs() < 1e-12,
            "measured {} vs analytic {analytic}",
            exec.stats.zero_slot_fraction()
        );
    }

    #[test]
    fn run_batch_matches_per_image_runs_ideal_and_noisy() {
        let (layer, kernel, input) = setup(4, 2, 1, 0, 4, 3, 2);
        let inputs: Vec<_> = (0..3).map(|k| input.map(|v| v - k as i64)).collect();
        for cfg in [XbarConfig::ideal(), XbarConfig::noisy(0.01, 0.001, 0.0, 17)] {
            let engine = ZeroPaddingEngine::new(&cfg, &layer, &kernel).unwrap();
            let batch = engine.run_batch(&inputs).unwrap();
            for (one, exec) in inputs.iter().zip(&batch) {
                let single = engine.run(one).unwrap();
                assert_eq!(single.output, exec.output);
                assert_eq!(single.stats, exec.stats);
            }
        }
    }

    #[test]
    fn run_batch_pixel_major_path_matches_per_image() {
        // 16 taps x 128 channels x 64 filters = 1 MiB of weights: crosses
        // the blocking threshold, so this exercises the batched gather +
        // vmm_batch path (the small-layer test above covers the fallback).
        let (layer, kernel, input) = setup(4, 2, 1, 0, 4, 128, 64);
        let engine = ZeroPaddingEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
        assert!(engine.array().batching_pays());
        let inputs: Vec<_> = (0..2).map(|k| input.map(|v| v + k as i64)).collect();
        let batch = engine.run_batch(&inputs).unwrap();
        for (one, exec) in inputs.iter().zip(&batch) {
            let single = engine.run(one).unwrap();
            assert_eq!(single.output, exec.output);
            assert_eq!(single.stats, exec.stats);
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_runs_on_sparse_windows() {
        // k16/s8 as in FCN-8s' upscore: each receptive field holds at most
        // 2x2 real pixels among 16x16 slots, 1/64 dense. A pixel writes
        // only its gathered slots into the window and clears them after
        // its VMM, so a reused scratch must carry nothing over.
        let (layer, kernel, input) = setup(16, 8, 4, 0, 3, 2, 3);
        let inputs: Vec<_> = (0..3i64)
            .map(|k| input.map(|v| (v * (k + 1) + 7 * k) % 60))
            .collect();
        for cfg in [XbarConfig::ideal(), XbarConfig::noisy(0.01, 0.001, 0.0, 5)] {
            let engine = ZeroPaddingEngine::new(&cfg, &layer, &kernel).unwrap();
            let mut scratch = engine.make_scratch();
            let fresh: Vec<_> = inputs.iter().map(|x| engine.run(x).unwrap()).collect();
            for (x, want) in inputs.iter().zip(&fresh) {
                assert_eq!(&engine.run_with(x, &mut scratch).unwrap(), want);
            }
            let batch = engine.run_batch_with(&inputs, &mut scratch).unwrap();
            assert_eq!(batch, fresh);
            if engine.array().is_ideal() {
                for (x, exec) in inputs.iter().zip(&fresh) {
                    let golden = deconv_direct(x, &kernel, layer.spec()).unwrap();
                    assert_eq!(exec.output, golden);
                }
            }
        }
    }

    #[test]
    fn rejects_mismatched_kernel_and_input() {
        let (layer, kernel, input) = setup(4, 2, 1, 0, 4, 3, 2);
        let bad_kernel = Kernel::<i64>::zeros(3, 3, 3, 2);
        assert!(matches!(
            ZeroPaddingEngine::new(&XbarConfig::ideal(), &layer, &bad_kernel),
            Err(ArchError::KernelMismatch { .. })
        ));
        let engine = ZeroPaddingEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
        let bad_input = FeatureMap::<i64>::zeros(5, 4, 3);
        assert!(matches!(
            engine.run(&bad_input),
            Err(ArchError::InputMismatch { .. })
        ));
        let _ = input;
    }

    #[test]
    fn array_geometry_matches_design() {
        let (layer, kernel, _) = setup(4, 2, 1, 0, 4, 3, 2);
        let engine = ZeroPaddingEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
        assert_eq!(engine.array().rows(), 16 * 3);
        assert_eq!(engine.array().weight_cols(), 2);
        assert_eq!(engine.design(), Design::ZeroPadding);
        assert_eq!(engine.layer(), &layer);
    }
}

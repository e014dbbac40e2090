use super::{check_input, check_kernel, DeconvEngine, Execution};
use crate::plan::ExecPlan;
use crate::{ArchError, Design, ExecutionStats, RedLayoutPolicy};
use red_tensor::modes::ModeSet;
use red_tensor::{FeatureMap, Kernel, LayerShape};
use red_xbar::{ExecPrecision, SctLayout, SubCrossbarTensor, TapScratch, XbarConfig};

/// The RED design (paper §III-B): pixel-wise mapping (Eq. 1) plus the
/// zero-skipping data flow (Fig. 5).
///
/// The kernel lives in `KH·KW` sub-crossbars of shape `C × M` (or the
/// Eq. 2 halved arrangement). Each batch produces one `s × s` block of
/// output pixels: every computation mode (Fig. 6) claims its disjoint tap
/// set, each active tap's sub-crossbar is driven with the *real* input
/// pixel it needs (padded zeros are never driven — that is the whole
/// point), and the mode group's partial sums merge into the output pixel
/// through the vertical sum-up path.
///
/// The mode/tap/coordinate resolution — which input pixel feeds which
/// sub-crossbar for which output pixel — depends only on the layer
/// geometry, so it is resolved once at construction into an [`ExecPlan`]
/// and replayed allocation-free by every run (see [`RedEngine::run_with`]).
#[derive(Debug, Clone)]
pub struct RedEngine {
    layer: LayerShape,
    sct: SubCrossbarTensor,
    modes: ModeSet,
    plan: ExecPlan,
    /// `s × s` output blocks per image (Fig. 5(c) batches).
    blocks: u64,
}

/// Reusable working memory for [`RedEngine::run_with`]: the vertical
/// sum-up accumulator, the per-tap partial-sum buffer, and the sub-crossbar
/// tap scratch. Built once (per run, worker, or batch) and reused for every
/// output pixel, so steady-state execution performs no per-pixel heap
/// allocation.
#[derive(Debug, Clone)]
pub struct RedScratch {
    acc: Vec<i64>,
    partial: Vec<i64>,
    taps: TapScratch,
}

impl RedEngine {
    /// Programs the engine for `layer` with `kernel` under `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::KernelMismatch`] when the kernel does not match
    /// the layer, and propagates programming errors.
    pub fn new(
        cfg: &XbarConfig,
        layer: &LayerShape,
        kernel: &Kernel<i64>,
        policy: RedLayoutPolicy,
    ) -> Result<Self, ArchError> {
        check_kernel(layer, kernel)?;
        let layout = policy.resolve(layer);
        let sct = SubCrossbarTensor::map(cfg, kernel, layout)?;
        let modes = ModeSet::enumerate(layer.spec());
        let (plan, blocks) = Self::build_plan(layer, &modes);
        Ok(Self {
            layer: *layer,
            sct,
            modes,
            plan,
            blocks,
        })
    }

    /// Resolves the zero-skipping gather schedule for every output pixel:
    /// one batch per `s × s` output block (Fig. 5(c)'s cycle schedule),
    /// each pixel gathering the real input pixels its mode's taps read.
    fn build_plan(layer: &LayerShape, modes: &ModeSet) -> (ExecPlan, u64) {
        let spec = layer.spec();
        let s = spec.stride();
        let p = spec.padding();
        let kw = spec.kernel_w();
        let geom = layer.output_geometry();
        let (ih, iw) = (layer.input_h(), layer.input_w());
        let mut plan = ExecPlan::new();
        let mut blocks = 0u64;
        for bu in 0..geom.height.div_ceil(s) {
            for bv in 0..geom.width.div_ceil(s) {
                blocks += 1;
                for a in 0..s {
                    for b in 0..s {
                        let (u, v) = (bu * s + a, bv * s + b);
                        if u >= geom.height || v >= geom.width {
                            continue;
                        }
                        plan.begin_pixel(u, v);
                        let mode = modes.mode_of_output(u, v, p);
                        for &(i, j) in &mode.taps {
                            // Gather condition: tap (i, j) reads input
                            // (x, y) with s*x = u + p - i.
                            let Some(du) = (u + p).checked_sub(i) else {
                                continue;
                            };
                            let Some(dv) = (v + p).checked_sub(j) else {
                                continue;
                            };
                            if du % s != 0 || dv % s != 0 {
                                continue;
                            }
                            let (x, y) = (du / s, dv / s);
                            if x >= ih || y >= iw {
                                continue;
                            }
                            plan.push_gather(i * kw + j, x, y);
                        }
                    }
                }
            }
        }
        (plan, blocks)
    }

    /// The sub-crossbar tensor (for inspection/tests).
    pub fn sct(&self) -> &SubCrossbarTensor {
        &self.sct
    }

    /// The resolved layout (full or halved).
    pub fn layout(&self) -> SctLayout {
        self.sct.layout()
    }

    /// The frozen gather schedule (for inspection/tests).
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// The computation-mode decomposition the plan was resolved from.
    pub fn modes(&self) -> &ModeSet {
        &self.modes
    }

    /// Creates working memory for [`RedEngine::run_with`].
    pub fn make_scratch(&self) -> RedScratch {
        let m = self.layer.filters();
        RedScratch {
            acc: vec![0i64; m],
            partial: vec![0i64; m],
            taps: TapScratch::new(),
        }
    }

    /// The per-image [`ExecutionStats`] every run starts from. Every
    /// sub-crossbar fires each batch; in the halved layout the pair
    /// array fires twice (once per half), so the slot count is
    /// rows-per-array x arrays x cycles either way.
    fn base_stats(&self) -> ExecutionStats {
        let cycles_per_batch = self.sct.cycles_per_batch() as u64;
        ExecutionStats {
            cycles: self.blocks * cycles_per_batch,
            total_row_slots: self.blocks as u128
                * (self.sct.sub_crossbars() * self.sct.rows_per_array()) as u128
                * cycles_per_batch as u128,
            ..ExecutionStats::default()
        }
    }

    /// Meters one gathered input pixel: one vector op driving `filters`
    /// MACs per non-zero channel.
    fn meter_gather(stats: &mut ExecutionStats, px: &[i64], filters: usize) {
        let nnz = px.iter().filter(|v| **v != 0).count() as u128;
        stats.vector_ops += 1;
        stats.nonzero_row_activations += nnz;
        stats.nonzero_macs += nnz * filters as u128;
    }

    /// Executes the layer on `input` with caller-provided scratch, so a
    /// batch or a pipeline worker pays the buffer setup once instead of
    /// per image. Replays the compile-time [`ExecPlan`]; the only heap
    /// allocation per call is the output feature map itself.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InputMismatch`] for a wrong-shaped input.
    pub fn run_with(
        &self,
        input: &FeatureMap<i64>,
        scratch: &mut RedScratch,
    ) -> Result<Execution, ArchError> {
        self.run_with_at(input, scratch, ExecPrecision::Full)
    }

    /// [`RedEngine::run_with`] at an explicit precision tier: `prec`
    /// selects how many low input bits every tap VMM drops (see
    /// [`ExecPrecision`]). Metering is over the untruncated gathered
    /// pixels, so [`ExecutionStats`] are identical across tiers — the
    /// tier narrows the conversion-phase window, not the zero-skipping
    /// schedule.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InputMismatch`] for a wrong-shaped input.
    pub fn run_with_at(
        &self,
        input: &FeatureMap<i64>,
        scratch: &mut RedScratch,
        prec: ExecPrecision,
    ) -> Result<Execution, ArchError> {
        check_input(&self.layer, input)?;
        let kw = self.layer.spec().kernel_w();
        let geom = self.layer.output_geometry();
        let m = self.layer.filters();

        let mut output = FeatureMap::<i64>::zeros(geom.height, geom.width, m);
        let mut stats = self.base_stats();

        for ((u, v), gathers) in self.plan.iter() {
            scratch.acc.fill(0);
            for g in gathers {
                let px = input.pixel(g.x as usize, g.y as usize);
                Self::meter_gather(&mut stats, px, m);
                let (i, j) = (g.slot as usize / kw, g.slot as usize % kw);
                self.sct
                    .eval_tap_into_at(i, j, px, &mut scratch.taps, &mut scratch.partial, prec);
                for (o, &q) in scratch.acc.iter_mut().zip(&scratch.partial) {
                    *o += q;
                }
            }
            output.pixel_mut(u, v).copy_from_slice(&scratch.acc);
            stats.output_pixels += 1;
        }
        Ok(Execution { output, stats })
    }
}

impl DeconvEngine for RedEngine {
    fn design(&self) -> Design {
        Design::Red {
            policy: match self.sct.layout() {
                SctLayout::Full => RedLayoutPolicy::AlwaysFull,
                SctLayout::Halved => RedLayoutPolicy::AlwaysHalved,
            },
        }
    }

    fn layer(&self) -> &LayerShape {
        &self.layer
    }

    fn run(&self, input: &FeatureMap<i64>) -> Result<Execution, ArchError> {
        self.run_with(input, &mut self.make_scratch())
    }

    /// Batched execution: when the sub-crossbars are large enough for
    /// batched VMMs to pay ([`SubCrossbarTensor::batch_pays`] — blocked
    /// exact VMMs on ideal crossbars), the plan is replayed
    /// pixel-major: each gather's input pixel is collected across the
    /// whole batch and driven through the tap's sub-crossbar once via
    /// [`SubCrossbarTensor::eval_tap_batch_into`]. Smaller or non-ideal
    /// sub-crossbars take the per-image loop with shared scratch.
    /// Bit-exact against per-input [`DeconvEngine::run`] either way.
    fn run_batch(&self, inputs: &[FeatureMap<i64>]) -> Result<Vec<Execution>, ArchError> {
        if inputs.len() <= 1 || !self.sct.batch_pays() {
            let mut scratch = self.make_scratch();
            return inputs
                .iter()
                .map(|input| self.run_with(input, &mut scratch))
                .collect();
        }
        self.run_batch_pixel_major(inputs, ExecPrecision::Full)
    }
}

impl RedEngine {
    /// [`DeconvEngine::run_batch`] with caller-provided scratch: the
    /// per-image fallback below the batched-tap threshold reuses
    /// `scratch` instead of allocating a fresh one per call, so a serving
    /// loop issuing many small batches stays allocation-free in steady
    /// state. Above the threshold this is exactly `run_batch`. Bit-exact
    /// against both either way.
    ///
    /// # Errors
    ///
    /// As [`DeconvEngine::run_batch`].
    pub fn run_batch_with(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut RedScratch,
    ) -> Result<Vec<Execution>, ArchError> {
        self.run_batch_with_at(inputs, scratch, ExecPrecision::Full)
    }

    /// [`RedEngine::run_batch_with`] at an explicit precision tier (see
    /// [`RedEngine::run_with_at`]).
    ///
    /// # Errors
    ///
    /// As [`DeconvEngine::run_batch`].
    pub fn run_batch_with_at(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut RedScratch,
        prec: ExecPrecision,
    ) -> Result<Vec<Execution>, ArchError> {
        if inputs.len() <= 1 || !self.sct.batch_pays() {
            return inputs
                .iter()
                .map(|input| self.run_with_at(input, scratch, prec))
                .collect();
        }
        self.run_batch_pixel_major(inputs, prec)
    }

    /// The paying pixel-major batched-tap path (shared by `run_batch`
    /// and `run_batch_with_at`).
    fn run_batch_pixel_major(
        &self,
        inputs: &[FeatureMap<i64>],
        prec: ExecPrecision,
    ) -> Result<Vec<Execution>, ArchError> {
        for input in inputs {
            check_input(&self.layer, input)?;
        }
        let n = inputs.len();
        let kw = self.layer.spec().kernel_w();
        let geom = self.layer.output_geometry();
        let m = self.layer.filters();
        let c = self.layer.channels();

        let mut outputs: Vec<FeatureMap<i64>> = inputs
            .iter()
            .map(|_| FeatureMap::zeros(geom.height, geom.width, m))
            .collect();
        let mut stats = vec![self.base_stats(); n];
        let mut taps = TapScratch::new();
        let mut pixels = vec![0i64; n * c];
        let mut partials = vec![0i64; n * m];
        let mut accs = vec![0i64; n * m];

        for ((u, v), gathers) in self.plan.iter() {
            accs.fill(0);
            for g in gathers {
                for (k, (input, st)) in inputs.iter().zip(&mut stats).enumerate() {
                    let px = input.pixel(g.x as usize, g.y as usize);
                    Self::meter_gather(st, px, m);
                    pixels[k * c..(k + 1) * c].copy_from_slice(px);
                }
                let (i, j) = (g.slot as usize / kw, g.slot as usize % kw);
                self.sct
                    .eval_tap_batch_into_at(i, j, &pixels, n, &mut taps, &mut partials, prec);
                for (o, &q) in accs.iter_mut().zip(&partials) {
                    *o += q;
                }
            }
            for (k, output) in outputs.iter_mut().enumerate() {
                output
                    .pixel_mut(u, v)
                    .copy_from_slice(&accs[k * m..(k + 1) * m]);
            }
            for st in &mut stats {
                st.output_pixels += 1;
            }
        }
        Ok(outputs
            .into_iter()
            .zip(stats)
            .map(|(output, stats)| Execution { output, stats })
            .collect())
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
            ((i * 41 + j * 17 + cc * 5 + mm * 3) % 200) as i64 - 99
        });
        let input = FeatureMap::from_fn(ih, ih, c, |h, w, cc| {
            ((h * 11 + w * 3 + cc) % 60) as i64 - 25
        });
        (layer, kernel, input)
    }

    #[test]
    fn matches_golden_deconv_full_layout() {
        for (k, s, p, op, ih) in [
            (3, 2, 0, 0, 3),
            (4, 2, 1, 0, 4),
            (5, 2, 2, 1, 4),
            (4, 4, 0, 0, 3),
            (3, 1, 0, 0, 4), // stride 1: single mode
        ] {
            let (layer, kernel, input) = setup(k, s, p, op, ih, 4, 3);
            let engine = RedEngine::new(
                &XbarConfig::ideal(),
                &layer,
                &kernel,
                RedLayoutPolicy::AlwaysFull,
            )
            .unwrap();
            let exec = engine.run(&input).unwrap();
            let golden = deconv_direct(&input, &kernel, layer.spec()).unwrap();
            assert_eq!(exec.output, golden, "k={k} s={s} p={p} op={op}");
        }
    }

    #[test]
    fn matches_golden_deconv_halved_layout() {
        for (k, s, p, op, ih) in [(4, 2, 1, 0, 4), (5, 2, 2, 1, 4), (4, 4, 0, 0, 5)] {
            let (layer, kernel, input) = setup(k, s, p, op, ih, 3, 2);
            let engine = RedEngine::new(
                &XbarConfig::ideal(),
                &layer,
                &kernel,
                RedLayoutPolicy::AlwaysHalved,
            )
            .unwrap();
            assert_eq!(engine.layout(), SctLayout::Halved);
            let exec = engine.run(&input).unwrap();
            let golden = deconv_direct(&input, &kernel, layer.spec()).unwrap();
            assert_eq!(exec.output, golden, "halved k={k} s={s}");
        }
    }

    #[test]
    fn cycle_count_is_stride_squared_fewer() {
        let (layer, kernel, input) = setup(4, 2, 1, 0, 4, 3, 2);
        let engine = RedEngine::new(
            &XbarConfig::ideal(),
            &layer,
            &kernel,
            RedLayoutPolicy::AlwaysFull,
        )
        .unwrap();
        let exec = engine.run(&input).unwrap();
        // OH*OW / s^2 = 64/4.
        assert_eq!(exec.stats.cycles, 16);
        // Halved doubles it.
        let engine = RedEngine::new(
            &XbarConfig::ideal(),
            &layer,
            &kernel,
            RedLayoutPolicy::AlwaysHalved,
        )
        .unwrap();
        assert_eq!(engine.run(&input).unwrap().stats.cycles, 32);
    }

    #[test]
    fn zero_skipping_performs_only_nonzero_work() {
        // Dense input: RED's non-zero row activations equal the
        // zero-padding engine's (it does the same real work), but RED's
        // total slots are ~s^2 smaller (it never drives padded zeros).
        let (layer, kernel, input) = setup(4, 2, 1, 0, 4, 3, 2);
        let input = input.map(|v| if v == 0 { 1 } else { v }); // fully dense
        let red = RedEngine::new(
            &XbarConfig::ideal(),
            &layer,
            &kernel,
            RedLayoutPolicy::AlwaysFull,
        )
        .unwrap()
        .run(&input)
        .unwrap();
        let zp = crate::ZeroPaddingEngine::new(&XbarConfig::ideal(), &layer, &kernel)
            .unwrap()
            .run(&input)
            .unwrap();
        assert_eq!(
            red.stats.nonzero_row_activations,
            zp.stats.nonzero_row_activations
        );
        assert_eq!(red.stats.nonzero_macs, zp.stats.nonzero_macs);
        assert!(red.stats.total_row_slots < zp.stats.total_row_slots / 3);
    }

    #[test]
    fn run_batch_and_scratch_reuse_are_bit_exact() {
        let (layer, kernel, input) = setup(4, 2, 1, 0, 4, 3, 2);
        let engine = RedEngine::new(
            &XbarConfig::ideal(),
            &layer,
            &kernel,
            RedLayoutPolicy::AlwaysHalved,
        )
        .unwrap();
        let inputs: Vec<_> = (0..3).map(|k| input.map(|v| v + k as i64)).collect();
        let batch = engine.run_batch(&inputs).unwrap();
        for (one, exec) in inputs.iter().zip(&batch) {
            let single = engine.run(one).unwrap();
            assert_eq!(single.output, exec.output);
            assert_eq!(single.stats, exec.stats);
        }
    }

    #[test]
    fn run_batch_batched_tap_path_matches_per_image_noisy() {
        // 256-channel 256-filter taps: each sub-crossbar's
        // effective-current plane is 256 x 2048 f64 = 4 MiB (8 MiB for
        // the halved layout's 2C-row pair arrays). A noisy batch runs
        // per image in both layouts, and results must stay bit-exact vs
        // per-image runs.
        let (layer, kernel, input) = setup(3, 2, 1, 0, 2, 256, 256);
        let cfg = XbarConfig::noisy(0.01, 0.0, 0.001, 23);
        for policy in [RedLayoutPolicy::AlwaysFull, RedLayoutPolicy::AlwaysHalved] {
            let engine = RedEngine::new(&cfg, &layer, &kernel, policy).unwrap();
            let inputs: Vec<_> = (0..3).map(|k| input.map(|v| v + k as i64)).collect();
            let batch = engine.run_batch(&inputs).unwrap();
            for (one, exec) in inputs.iter().zip(&batch) {
                let single = engine.run(one).unwrap();
                assert_eq!(single.output, exec.output, "{policy:?}");
                assert_eq!(single.stats, exec.stats, "{policy:?}");
            }
        }
    }

    #[test]
    fn plan_covers_every_output_pixel_once() {
        let (layer, kernel, _) = setup(5, 2, 2, 1, 4, 3, 2);
        let engine = RedEngine::new(
            &XbarConfig::ideal(),
            &layer,
            &kernel,
            RedLayoutPolicy::AlwaysFull,
        )
        .unwrap();
        let geom = layer.output_geometry();
        assert_eq!(engine.plan().pixel_count(), geom.pixels());
        let mut seen = std::collections::HashSet::new();
        for ((u, v), _) in engine.plan().iter() {
            assert!(seen.insert((u, v)), "pixel ({u},{v}) planned twice");
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let (layer, kernel, _) = setup(4, 2, 1, 0, 4, 3, 2);
        let bad = Kernel::<i64>::zeros(4, 4, 3, 5);
        assert!(RedEngine::new(&XbarConfig::ideal(), &layer, &bad, RedLayoutPolicy::Auto).is_err());
        let engine =
            RedEngine::new(&XbarConfig::ideal(), &layer, &kernel, RedLayoutPolicy::Auto).unwrap();
        assert!(engine.run(&FeatureMap::<i64>::zeros(4, 4, 2)).is_err());
    }

    #[test]
    fn design_reports_resolved_layout() {
        let (layer, kernel, _) = setup(4, 2, 1, 0, 4, 3, 2);
        let engine =
            RedEngine::new(&XbarConfig::ideal(), &layer, &kernel, RedLayoutPolicy::Auto).unwrap();
        assert_eq!(engine.layout(), SctLayout::Full);
        assert_eq!(engine.sct().sub_crossbars(), 16);
        assert!(matches!(engine.design(), Design::Red { .. }));
    }
}

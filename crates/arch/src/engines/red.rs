//! The RED engine (paper §III-B): pixel-wise mapping (Eq. 1) plus the
//! zero-skipping data flow (Fig. 5).
//!
//! The engine keeps two orders apart. The *modeled* order is Fig. 5(c)'s
//! cycle schedule: one batch per `s × s` block of output pixels, every
//! computation mode (Fig. 6) driving its taps' sub-crossbars with the
//! real input pixels they read. [`ExecutionStats`] meter that schedule
//! and nothing else. The *host* order is input-stationary: each input
//! pixel is driven once through every tap it feeds
//! ([`SubCrossbarTensor::eval_taps`]), and each tap's `M` partial sums
//! are added into the output pixel the schedule sends them to. A
//! product does not depend on when the host computes it, and integer
//! sums do not depend on their order, so outputs are bit-identical to
//! replaying the modeled schedule gather by gather.

use super::scatter;
use super::{check_kernel, DeconvEngine, Execution, LayerScratch};
use crate::plan::InputSchedule;
use crate::{ArchError, Design, ExecutionStats, RedLayoutPolicy};
use red_tensor::modes::ModeSet;
use red_tensor::{FeatureMap, Kernel, LayerShape};
use red_xbar::{ExecPrecision, SctLayout, SubCrossbarTensor, XbarConfig};

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
/// Which input pixel feeds which sub-crossbar for which output pixel
/// depends only on the layer geometry, so it is resolved once at
/// construction into the input-stationary schedule padding-free shares,
/// and every run replays it allocation-free (see the module docs).
#[derive(Debug, Clone)]
pub struct RedEngine {
    layer: LayerShape,
    sct: SubCrossbarTensor,
    modes: ModeSet,
    schedule: InputSchedule,
    /// `s × s` output blocks per image (Fig. 5(c) batches).
    blocks: u64,
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
        let s = layer.spec().stride();
        let geom = layer.output_geometry();
        Ok(Self {
            layer: *layer,
            sct,
            modes: ModeSet::enumerate(layer.spec()),
            schedule: InputSchedule::new(layer),
            blocks: (geom.height.div_ceil(s) * geom.width.div_ceil(s)) as u64,
        })
    }

    /// The sub-crossbar tensor (for inspection/tests).
    pub fn sct(&self) -> &SubCrossbarTensor {
        &self.sct
    }

    /// The resolved layout (full or halved).
    pub fn layout(&self) -> SctLayout {
        self.sct.layout()
    }

    /// The layer's computation-mode decomposition (Fig. 6): the tap set
    /// each output pixel's mode gathers through.
    pub fn modes(&self) -> &ModeSet {
        &self.modes
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
            output_pixels: self.layer.output_geometry().pixels() as u64,
            ..ExecutionStats::default()
        }
    }

    /// Meters the `gathers` gathers of one input pixel: each is one
    /// vector op driving `filters` MACs per non-zero channel.
    fn meter_gathers(stats: &mut ExecutionStats, px: &[i64], gathers: usize, filters: usize) {
        let nnz = px.iter().filter(|v| **v != 0).count() as u128;
        stats.vector_ops += gathers as u64;
        stats.nonzero_row_activations += gathers as u128 * nnz;
        stats.nonzero_macs += gathers as u128 * nnz * filters as u128;
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

    fn truncation_error_bound(&self, prec: ExecPrecision) -> f64 {
        self.layer.spec().taps() as f64 * self.sct.truncation_error_bound(prec)
    }

    /// Replays the zero-skipping schedule input pixel by input pixel: each
    /// image's pixel is metered once per gather, the pixel position is
    /// driven through its taps for the whole batch in one
    /// [`SubCrossbarTensor::eval_taps`] call, and each gather's partial
    /// sums are added into its output pixel.
    fn run(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut LayerScratch,
        prec: ExecPrecision,
    ) -> Result<Vec<Execution>, ArchError> {
        let m = self.layer.filters();
        scatter::run_schedule(
            &self.layer,
            &self.schedule,
            inputs,
            self.base_stats(),
            scratch,
            |stats, px, gathers| Self::meter_gathers(stats, px, gathers, m),
            |taps, pixels, vmm, partials| self.sct.eval_taps(taps, pixels, vmm, partials, prec),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::run_one;
    use crate::plan::ExecPlan;
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
            let exec = run_one(&engine, &input).unwrap();
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
            let exec = run_one(&engine, &input).unwrap();
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
        let exec = run_one(&engine, &input).unwrap();
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
        assert_eq!(run_one(&engine, &input).unwrap().stats.cycles, 32);
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
        .unwrap();
        let red = run_one(&red, &input).unwrap();
        let zp = crate::ZeroPaddingEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
        let zp = run_one(&zp, &input).unwrap();
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
        let mut scratch = LayerScratch::default();
        let batch = engine
            .run(&inputs, &mut scratch, ExecPrecision::Full)
            .unwrap();
        for (one, exec) in inputs.iter().zip(&batch) {
            let single = run_one(&engine, one).unwrap();
            assert_eq!(single.output, exec.output);
            assert_eq!(single.stats, exec.stats);
            let reused = engine.run(std::slice::from_ref(one), &mut scratch, ExecPrecision::Full);
            assert_eq!(reused.unwrap(), [single]);
        }
    }

    #[test]
    fn run_batch_batched_tap_path_matches_per_image_noisy() {
        // 256-channel 256-filter taps: each tap's rows of the fused
        // plane are 256 x 2048 f64 = 4 MiB, so a pixel's fused VMM spans
        // many column tiles. A noisy batch drives each pixel position for
        // every image in turn, and results must stay bit-exact vs
        // per-image runs in both layouts.
        let (layer, kernel, input) = setup(3, 2, 1, 0, 2, 256, 256);
        let cfg = XbarConfig::noisy(0.01, 0.0, 0.001, 23);
        for policy in [RedLayoutPolicy::AlwaysFull, RedLayoutPolicy::AlwaysHalved] {
            let engine = RedEngine::new(&cfg, &layer, &kernel, policy).unwrap();
            let inputs: Vec<_> = (0..3).map(|k| input.map(|v| v + k as i64)).collect();
            let mut scratch = LayerScratch::default();
            let batch = engine
                .run(&inputs, &mut scratch, ExecPrecision::Full)
                .unwrap();
            for (one, exec) in inputs.iter().zip(&batch) {
                let single = run_one(&engine, one).unwrap();
                assert_eq!(single.output, exec.output, "{policy:?}");
                assert_eq!(single.stats, exec.stats, "{policy:?}");
            }
        }
    }

    /// The per-output-pixel gather plan of Fig. 5(c): one batch per
    /// `s × s` output block, each output pixel gathering the real input
    /// pixels its mode's taps read. Returns it with the block count.
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

    #[test]
    fn plan_covers_every_output_pixel_once() {
        // (k, s, p, op, ih): odd and even kernels, a kernel narrower than
        // the stride (modes without taps), stride 1, FCN's k16/s8.
        for (k, s, p, op, ih) in [
            (5, 2, 2, 1, 4),
            (4, 2, 1, 0, 4),
            (2, 3, 1, 2, 3),
            (3, 1, 0, 0, 4),
            (16, 8, 4, 0, 3),
        ] {
            let (layer, kernel, _) = setup(k, s, p, op, ih, 3, 2);
            let engine = RedEngine::new(
                &XbarConfig::ideal(),
                &layer,
                &kernel,
                RedLayoutPolicy::AlwaysFull,
            )
            .unwrap();
            let (plan, blocks) = build_plan(&layer, engine.modes());
            assert_eq!(engine.blocks, blocks);
            let geom = layer.output_geometry();
            assert_eq!(plan.pixel_count(), geom.pixels());
            let mut seen = std::collections::HashSet::new();
            let mut planned = Vec::new();
            for ((u, v), gathers) in plan.iter() {
                assert!(seen.insert((u, v)), "pixel ({u},{v}) planned twice");
                let (u, v) = (u as u32, v as u32);
                planned.extend(gathers.iter().map(|g| (g.x, g.y, g.slot, u, v)));
            }
            // The input-stationary schedule holds exactly the plan's
            // gathers, and each input pixel's tap ranges are ascending,
            // merged, and cover exactly the taps of its gathers.
            let iw = layer.input_w() as u32;
            let mut inverted = Vec::new();
            for (xy, (scatters, taps)) in (0u32..).zip(engine.schedule.pixels()) {
                inverted.extend(scatters.iter().map(|g| (xy / iw, xy % iw, g.tap, g.u, g.v)));
                let used: Vec<usize> = scatters.iter().map(|g| g.tap as usize).collect();
                let ranged: Vec<usize> = taps.iter().flat_map(Clone::clone).collect();
                assert_eq!(ranged, used, "input pixel {xy}");
                assert!(taps.windows(2).all(|w| w[0].end < w[1].start), "{taps:?}");
            }
            assert_eq!(engine.schedule.ends.len(), ih * ih);
            planned.sort_unstable();
            inverted.sort_unstable();
            assert_eq!(planned, inverted, "k={k} s={s} p={p} op={op}");
        }
    }

    #[test]
    fn ideal_batch_blocks_large_taps_bit_exactly() {
        // 512 x 256 taps: 1 MiB of weights each, so the batch's tap VMMs
        // take the exact path's row blocking.
        let (layer, kernel, input) = setup(2, 2, 0, 0, 2, 512, 256);
        let engine = RedEngine::new(
            &XbarConfig::ideal(),
            &layer,
            &kernel,
            RedLayoutPolicy::AlwaysHalved,
        )
        .unwrap();
        assert!(engine.sct().array(0).batching_pays());
        let inputs: Vec<_> = (0..3).map(|k| input.map(|v| v - k as i64)).collect();
        let mut scratch = LayerScratch::default();
        let batch = engine
            .run(&inputs, &mut scratch, ExecPrecision::Full)
            .unwrap();
        for (one, exec) in inputs.iter().zip(&batch) {
            assert_eq!(run_one(&engine, one).unwrap(), *exec);
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let (layer, kernel, _) = setup(4, 2, 1, 0, 4, 3, 2);
        let bad = Kernel::<i64>::zeros(4, 4, 3, 5);
        assert!(RedEngine::new(&XbarConfig::ideal(), &layer, &bad, RedLayoutPolicy::Auto).is_err());
        let engine =
            RedEngine::new(&XbarConfig::ideal(), &layer, &kernel, RedLayoutPolicy::Auto).unwrap();
        assert!(run_one(&engine, &FeatureMap::<i64>::zeros(4, 4, 2)).is_err());
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

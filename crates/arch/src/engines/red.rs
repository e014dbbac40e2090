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

use super::{check_input, check_kernel, DeconvEngine, Execution};
use crate::{ArchError, Design, ExecutionStats, RedLayoutPolicy};
use red_tensor::modes::ModeSet;
use red_tensor::{FeatureMap, Kernel, LayerShape};
use red_xbar::{ExecPrecision, SctLayout, SubCrossbarTensor, VmmScratch, XbarConfig};
use std::ops::Range;

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
/// construction, per input pixel, into a schedule that every run replays
/// allocation-free (see the module docs and [`RedEngine::run_with`]).
#[derive(Debug, Clone)]
pub struct RedEngine {
    layer: LayerShape,
    sct: SubCrossbarTensor,
    modes: ModeSet,
    schedule: InputSchedule,
    /// `s × s` output blocks per image (Fig. 5(c) batches).
    blocks: u64,
}

/// One gather seen from its input pixel: the pixel's partial sums
/// through tap `tap` add into output pixel `(u, v)`.
#[derive(Debug, Clone, Copy)]
struct Scatter {
    tap: u32,
    u: u32,
    v: u32,
}

/// The zero-skipping schedule in the host's input-stationary order: per
/// input pixel, in raster order, its gathers (ascending in tap) and the
/// merged ranges of the taps they use.
#[derive(Debug, Clone, Default)]
struct InputSchedule {
    /// Per input pixel, the ends of its slices of `scatters` and `taps`.
    ends: Vec<(u32, u32)>,
    scatters: Vec<Scatter>,
    taps: Vec<Range<usize>>,
}

impl InputSchedule {
    /// Every gather of the zero-skipping schedule, seen from its input
    /// pixel. A mode's tap `(i, j)` gathers input pixel `(x, y)` for
    /// output pixel `(u, v)` exactly when `s·x = u + p − i` and
    /// `s·y = v + p − j` (Fig. 5/6), so tap `(i, j)` of input pixel
    /// `(x, y)` lands in output pixel `(s·x + i − p, s·y + j − p)` when
    /// that pixel exists. Enumerating that directly inverts the
    /// per-output-pixel plan without building it (or an inversion table)
    /// at compile time; `plan_covers_every_output_pixel_once` checks the
    /// two hold the same gathers.
    fn new(layer: &LayerShape) -> Self {
        let spec = layer.spec();
        let (s, p, kh, kw) = (
            spec.stride(),
            spec.padding(),
            spec.kernel_h(),
            spec.kernel_w(),
        );
        let geom = layer.output_geometry();
        let out = |x: usize, i: usize, len: usize| (s * x + i).checked_sub(p).filter(|&u| u < len);
        let mut schedule = Self::default();
        for x in 0..layer.input_h() {
            for y in 0..layer.input_w() {
                let first = schedule.taps.len();
                for (i, u) in (0..kh).filter_map(|i| Some((i, out(x, i, geom.height)?))) {
                    for (j, v) in (0..kw).filter_map(|j| Some((j, out(y, j, geom.width)?))) {
                        let t = i * kw + j;
                        let (tap, u, v) = (t as u32, u as u32, v as u32);
                        schedule.scatters.push(Scatter { tap, u, v });
                        match schedule.taps[first..].last_mut() {
                            Some(r) if r.end == t => r.end += 1,
                            _ => schedule.taps.push(t..t + 1),
                        }
                    }
                }
                let ends = (schedule.scatters.len(), schedule.taps.len());
                schedule.ends.push((ends.0 as u32, ends.1 as u32));
            }
        }
        schedule
    }

    /// Each input pixel's gathers and tap ranges, in raster order.
    fn pixels(&self) -> impl Iterator<Item = (&[Scatter], &[Range<usize>])> + '_ {
        let mut start = (0, 0);
        self.ends.iter().map(move |&(scatters, taps)| {
            let (scatters, taps) = (scatters as usize, taps as usize);
            let pixel = (&self.scatters[start.0..scatters], &self.taps[start.1..taps]);
            start = (scatters, taps);
            pixel
        })
    }
}

/// Reusable working memory for [`RedEngine::run_with`] and the batched
/// runs: one input pixel position across the images of a batch, their
/// partial sums, and the sub-crossbar VMM scratch. Built once (per run,
/// worker, or batch) and reused for every input pixel, so steady-state
/// execution performs no per-pixel heap allocation.
#[derive(Debug, Clone)]
pub struct RedScratch {
    /// `n × C`: input pixel `(x, y)` of each image.
    pixels: Vec<i64>,
    /// `n × KH·KW·M`: their partial sums, tap-major per image.
    partials: Vec<i64>,
    vmm: VmmScratch,
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

    /// Creates working memory for [`RedEngine::run_with`].
    pub fn make_scratch(&self) -> RedScratch {
        let taps = self.layer.spec().taps();
        RedScratch {
            pixels: Vec::with_capacity(self.layer.channels()),
            partials: vec![0i64; taps * self.layer.filters()],
            vmm: VmmScratch::new(),
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

    /// Executes the layer on `input` with caller-provided scratch, so a
    /// batch or a pipeline worker pays the buffer setup once instead of
    /// per image. The only heap allocations per call are the output
    /// feature map and its result vector.
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
        let mut run = self.replay(std::slice::from_ref(input), scratch, prec)?;
        Ok(run.pop().expect("one execution per input"))
    }

    /// The one replay behind every run: input pixel by input pixel, each
    /// image's pixel is metered once per gather, the pixel position is
    /// driven through its taps for the whole batch in one
    /// [`SubCrossbarTensor::eval_taps`] call, and each gather's partial
    /// sums are added into its output pixel.
    fn replay(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut RedScratch,
        prec: ExecPrecision,
    ) -> Result<Vec<Execution>, ArchError> {
        for input in inputs {
            check_input(&self.layer, input)?;
        }
        let geom = self.layer.output_geometry();
        let (m, iw) = (self.layer.filters(), self.layer.input_w());
        let width = self.layer.spec().taps() * m;
        let mut runs: Vec<Execution> = inputs
            .iter()
            .map(|_| Execution {
                output: FeatureMap::zeros(geom.height, geom.width, m),
                stats: self.base_stats(),
            })
            .collect();
        scratch.partials.resize(inputs.len() * width, 0);
        for (xy, (scatters, taps)) in self.schedule.pixels().enumerate() {
            if scatters.is_empty() {
                continue;
            }
            scratch.pixels.clear();
            for (input, run) in inputs.iter().zip(&mut runs) {
                let px = input.pixel(xy / iw, xy % iw);
                Self::meter_gathers(&mut run.stats, px, scatters.len(), m);
                scratch.pixels.extend_from_slice(px);
            }
            let partials = &mut scratch.partials;
            self.sct
                .eval_taps(taps, &scratch.pixels, &mut scratch.vmm, partials, prec);
            for (run, partials) in runs.iter_mut().zip(partials.chunks_exact(width)) {
                for g in scatters {
                    let out = run.output.pixel_mut(g.u as usize, g.v as usize);
                    for (o, &q) in out.iter_mut().zip(&partials[g.tap as usize * m..]) {
                        *o += q;
                    }
                }
            }
        }
        Ok(runs)
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

    /// Batched execution through the same replay as [`DeconvEngine::run`]:
    /// each input pixel position is driven through its taps for every
    /// image at once, which on ideal sub-crossbars lets
    /// [`red_xbar::CrossbarArray::vmm_batch`] cache-block large tap
    /// weight matrices across the batch. Bit-exact against per-input
    /// [`DeconvEngine::run`].
    fn run_batch(&self, inputs: &[FeatureMap<i64>]) -> Result<Vec<Execution>, ArchError> {
        self.replay(inputs, &mut self.make_scratch(), ExecPrecision::Full)
    }
}

impl RedEngine {
    /// [`DeconvEngine::run_batch`] with caller-provided scratch, so a
    /// serving loop issuing many small batches stays allocation-free in
    /// steady state. Bit-exact against `run_batch`.
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
        self.replay(inputs, scratch, prec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let batch = engine.run_batch(&inputs).unwrap();
            for (one, exec) in inputs.iter().zip(&batch) {
                let single = engine.run(one).unwrap();
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
        let batch = engine.run_batch(&inputs).unwrap();
        for (one, exec) in inputs.iter().zip(&batch) {
            assert_eq!(engine.run(one).unwrap(), *exec);
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

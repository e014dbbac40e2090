use super::{check_input, check_kernel, DeconvEngine, Execution};
use crate::{ArchError, Design, ExecutionStats};
use red_tensor::{FeatureMap, Kernel, LayerShape};
use red_xbar::{CrossbarArray, ExecPrecision, VmmScratch, XbarConfig};

/// The padding-free design (paper Fig. 3(b)): input-stationary mapping onto
/// one `C × (KH·KW·M)` crossbar. Each real input pixel streams once
/// (`IH·IW` cycles), producing all `KH·KW·M` partial products at once;
/// dedicated output periphery then overlap-adds them into the full scatter
/// tensor and crops — Algorithm 2's add/crop steps, the "add-on
/// operations" that cost this design its output periphery.
///
/// The per-tap scatter offsets into the overlap-add accumulator depend
/// only on the layer geometry, so they are resolved once at construction
/// and the accumulator itself lives in reusable scratch — execution
/// allocates nothing per pixel.
#[derive(Debug, Clone)]
pub struct PaddingFreeEngine {
    layer: LayerShape,
    array: CrossbarArray,
    /// Flat offset of tap `(i, j)`'s scatter target within the full
    /// accumulator, relative to the pixel base `((s·x)·FW + s·y)·M`.
    tap_offsets: Vec<usize>,
}

/// Reusable working memory for [`PaddingFreeEngine::run_with`]: the full
/// overlap-add scatter accumulator (`FH × FW × M`, zeroed per image), the
/// per-pixel partial-product buffer, and the analog-path VMM scratch.
#[derive(Debug, Clone)]
pub struct PfScratch {
    full: Vec<i64>,
    partials: Vec<i64>,
    vmm: VmmScratch,
}

impl PaddingFreeEngine {
    /// Programs the engine for `layer` with `kernel`.
    ///
    /// Column order is tap-major: column `(i·KW + j)·M + m` holds
    /// `W[i, j, ·, m]` (the scatter form — algebraically the rotated-kernel
    /// gather of Algorithm 2, see `red-tensor`'s equivalence tests).
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
        let (kh, kw) = (kernel.kernel_h(), kernel.kernel_w());
        let (c, m) = (kernel.channels(), kernel.filters());
        let cols = kh * kw * m;
        let mut flat = vec![0i64; c * cols];
        for ch in 0..c {
            for i in 0..kh {
                for j in 0..kw {
                    let row = kernel.row(i, j, ch);
                    let base = ch * cols + (i * kw + j) * m;
                    flat[base..base + m].copy_from_slice(row);
                }
            }
        }
        let array = CrossbarArray::program_flat(cfg, c, cols, flat)?;
        let geom = layer.output_geometry();
        let tap_offsets = (0..kh * kw)
            .map(|t| ((t / kw) * geom.full_width + (t % kw)) * m)
            .collect();
        Ok(Self {
            layer: *layer,
            array,
            tap_offsets,
        })
    }

    /// The programmed crossbar (for inspection/tests).
    pub fn array(&self) -> &CrossbarArray {
        &self.array
    }

    /// Creates working memory for [`PaddingFreeEngine::run_with`].
    pub fn make_scratch(&self) -> PfScratch {
        let spec = self.layer.spec();
        let geom = self.layer.output_geometry();
        let m = self.layer.filters();
        PfScratch {
            full: vec![0i64; geom.full_height * geom.full_width * m],
            partials: vec![0i64; spec.taps() * m],
            vmm: VmmScratch::new(),
        }
    }

    /// Executes the layer on `input` with caller-provided scratch: the
    /// overlap-add accumulator and partial-product buffer are reused
    /// across images, and the only heap allocation per call is the output
    /// feature map itself.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InputMismatch`] for a wrong-shaped input.
    pub fn run_with(
        &self,
        input: &FeatureMap<i64>,
        scratch: &mut PfScratch,
    ) -> Result<Execution, ArchError> {
        self.run_with_at(input, scratch, ExecPrecision::Full)
    }

    /// [`PaddingFreeEngine::run_with`] at an explicit precision tier:
    /// `prec` selects how many low input bits the crossbar drops per
    /// pixel VMM (see [`ExecPrecision`]). Metering is over the
    /// untruncated pixel, so [`ExecutionStats`] are identical across
    /// tiers.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InputMismatch`] for a wrong-shaped input.
    pub fn run_with_at(
        &self,
        input: &FeatureMap<i64>,
        scratch: &mut PfScratch,
        prec: ExecPrecision,
    ) -> Result<Execution, ArchError> {
        check_input(&self.layer, input)?;
        let spec = self.layer.spec();
        let (kh, kw) = (spec.kernel_h(), spec.kernel_w());
        let s = spec.stride();
        let m = self.layer.filters();
        let geom = self.layer.output_geometry();

        // The overlap-add accumulator: the full scatter tensor the output
        // periphery materialises before cropping.
        scratch.full.fill(0);
        let mut stats = ExecutionStats::default();

        for x in 0..input.height() {
            for y in 0..input.width() {
                let px = input.pixel(x, y);
                Self::meter_pixel(&mut stats, px, kh * kw * m);
                self.array
                    .vmm_into_at(px, &mut scratch.vmm, &mut scratch.partials, prec);
                let base = ((s * x) * geom.full_width + s * y) * m;
                self.scatter(&scratch.partials, base, &mut scratch.full);
            }
        }

        stats.output_pixels = geom.pixels() as u64;
        Ok(Execution {
            output: self.crop(&scratch.full),
            stats,
        })
    }

    fn meter_pixel(stats: &mut ExecutionStats, px: &[i64], macs_per_nnz: usize) {
        let nnz = px.iter().filter(|v| **v != 0).count() as u128;
        stats.cycles += 1;
        stats.vector_ops += 1;
        stats.nonzero_row_activations += nnz;
        stats.total_row_slots += px.len() as u128;
        stats.nonzero_macs += nnz * macs_per_nnz as u128;
    }

    /// Overlap-adds one pixel's `KH·KW·M` partial products into the full
    /// accumulator at the given pixel base offset.
    fn scatter(&self, partials: &[i64], base: usize, full: &mut [i64]) {
        let m = self.layer.filters();
        for (t, &off) in self.tap_offsets.iter().enumerate() {
            let acc = &mut full[base + off..base + off + m];
            let src = &partials[t * m..(t + 1) * m];
            for (a, &v) in acc.iter_mut().zip(src) {
                *a += v;
            }
        }
    }

    /// Crop (and zero-extend when output_padding > padding).
    fn crop(&self, full: &[i64]) -> FeatureMap<i64> {
        let geom = self.layer.output_geometry();
        let m = self.layer.filters();
        let p = geom.crop_before;
        let mut output = FeatureMap::<i64>::zeros(geom.height, geom.width, m);
        for u in 0..geom.height.min(geom.full_height.saturating_sub(p)) {
            for v in 0..geom.width.min(geom.full_width.saturating_sub(p)) {
                let src = ((u + p) * geom.full_width + (v + p)) * m;
                output.pixel_mut(u, v).copy_from_slice(&full[src..src + m]);
            }
        }
        output
    }
}

impl DeconvEngine for PaddingFreeEngine {
    fn design(&self) -> Design {
        Design::PaddingFree
    }

    fn layer(&self) -> &LayerShape {
        &self.layer
    }

    fn run(&self, input: &FeatureMap<i64>) -> Result<Execution, ArchError> {
        self.run_with(input, &mut self.make_scratch())
    }

    /// Batched execution: when the wide `C × (KH·KW·M)` array is large
    /// enough for batching to pay ([`CrossbarArray::batching_pays`] —
    /// cache-blocked exact VMMs on ideal crossbars), every input pixel is
    /// gathered from the whole batch and multiplied through
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

impl PaddingFreeEngine {
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
        scratch: &mut PfScratch,
    ) -> Result<Vec<Execution>, ArchError> {
        self.run_batch_with_at(inputs, scratch, ExecPrecision::Full)
    }

    /// [`PaddingFreeEngine::run_batch_with`] at an explicit precision
    /// tier (see [`PaddingFreeEngine::run_with_at`]).
    ///
    /// # Errors
    ///
    /// As [`DeconvEngine::run_batch`].
    pub fn run_batch_with_at(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut PfScratch,
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
        let n = inputs.len();
        let spec = self.layer.spec();
        let s = spec.stride();
        let c = self.layer.channels();
        let m = self.layer.filters();
        let cols = spec.taps() * m;
        let geom = self.layer.output_geometry();

        let full_len = geom.full_height * geom.full_width * m;
        let mut fulls = vec![0i64; n * full_len];
        let mut stats = vec![ExecutionStats::default(); n];
        let mut pixels = vec![0i64; n * c];
        let mut partials = vec![0i64; n * cols];
        let mut vmm = VmmScratch::new();

        for x in 0..self.layer.input_h() {
            for y in 0..self.layer.input_w() {
                for (k, (input, st)) in inputs.iter().zip(&mut stats).enumerate() {
                    let px = input.pixel(x, y);
                    Self::meter_pixel(st, px, cols);
                    pixels[k * c..(k + 1) * c].copy_from_slice(px);
                }
                self.array
                    .vmm_batch_at(&pixels, n, &mut vmm, &mut partials, prec);
                let base = ((s * x) * geom.full_width + s * y) * m;
                for (k, full) in fulls.chunks_exact_mut(full_len).enumerate() {
                    self.scatter(&partials[k * cols..(k + 1) * cols], base, full);
                }
            }
        }

        Ok(fulls
            .chunks_exact(full_len)
            .zip(stats)
            .map(|(full, mut stats)| {
                stats.output_pixels = geom.pixels() as u64;
                Execution {
                    output: self.crop(full),
                    stats,
                }
            })
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
            ((i * 29 + j * 13 + cc * 5 + mm * 3) % 200) as i64 - 100
        });
        let input = FeatureMap::from_fn(ih, ih, c, |h, w, cc| {
            ((h * 7 + w * 3 + cc) % 40) as i64 - 15
        });
        (layer, kernel, input)
    }

    #[test]
    fn matches_golden_deconv() {
        for (k, s, p, op, ih) in [
            (4, 2, 1, 0, 4),
            (5, 2, 2, 1, 4),
            (3, 1, 0, 0, 5),
            (3, 3, 0, 2, 3),
        ] {
            let (layer, kernel, input) = setup(k, s, p, op, ih, 5, 3);
            let engine = PaddingFreeEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
            let exec = engine.run(&input).unwrap();
            let golden = deconv_direct(&input, &kernel, layer.spec()).unwrap();
            assert_eq!(exec.output, golden, "k={k} s={s} p={p} op={op}");
        }
    }

    #[test]
    fn cycle_count_is_input_pixels() {
        let (layer, kernel, input) = setup(4, 2, 1, 0, 6, 4, 3);
        // Force a fully dense input (no incidental zero values).
        let input = input.map(|v| if v == 0 { 1 } else { v });
        let engine = PaddingFreeEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
        let exec = engine.run(&input).unwrap();
        assert_eq!(exec.stats.cycles, 36);
        // Dense input: no zero slots at all — padding-free skips the
        // inserted zeros entirely.
        assert_eq!(exec.stats.zero_slot_fraction(), 0.0);
    }

    #[test]
    fn run_batch_matches_per_image_runs_ideal_and_noisy() {
        let (layer, kernel, input) = setup(5, 2, 2, 1, 4, 5, 3);
        let inputs: Vec<_> = (0..3).map(|k| input.map(|v| v + 2 * k as i64)).collect();
        for cfg in [XbarConfig::ideal(), XbarConfig::noisy(0.01, 0.0, 0.001, 23)] {
            let engine = PaddingFreeEngine::new(&cfg, &layer, &kernel).unwrap();
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
        // 128 channels x (16 taps x 64 filters) = 1 MiB of weights:
        // crosses the blocking threshold, exercising the batched gather +
        // vmm_batch path. The noisy twin takes the per-image analog loop.
        let (layer, kernel, input) = setup(4, 2, 1, 0, 4, 128, 64);
        for cfg in [
            XbarConfig::ideal(),
            XbarConfig::noisy(0.01, 0.0005, 0.0, 77),
        ] {
            let engine = PaddingFreeEngine::new(&cfg, &layer, &kernel).unwrap();
            if engine.array().is_ideal() {
                assert!(engine.array().batching_pays());
            }
            let inputs: Vec<_> = (0..2).map(|k| input.map(|v| v - k as i64)).collect();
            let batch = engine.run_batch(&inputs).unwrap();
            for (one, exec) in inputs.iter().zip(&batch) {
                let single = engine.run(one).unwrap();
                assert_eq!(single.output, exec.output);
                assert_eq!(single.stats, exec.stats);
            }
        }
    }

    #[test]
    fn array_has_khkwm_columns() {
        let (layer, kernel, _) = setup(4, 2, 1, 0, 4, 5, 3);
        let engine = PaddingFreeEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
        assert_eq!(engine.array().rows(), 5);
        assert_eq!(engine.array().weight_cols(), 16 * 3);
        assert_eq!(engine.design(), Design::PaddingFree);
    }

    #[test]
    fn rejects_bad_shapes() {
        let (layer, kernel, _) = setup(4, 2, 1, 0, 4, 5, 3);
        let bad = Kernel::<i64>::zeros(4, 4, 5, 2);
        assert!(PaddingFreeEngine::new(&XbarConfig::ideal(), &layer, &bad).is_err());
        let engine = PaddingFreeEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
        assert!(engine.run(&FeatureMap::<i64>::zeros(4, 4, 2)).is_err());
    }
}

//! The padding-free engine (paper Fig. 3(b)): input-stationary mapping
//! onto one `C × (KH·KW·M)` crossbar, plus the overlap-add/crop output
//! periphery of Algorithm 2.
//!
//! The engine keeps two orders apart, the way RED's does. The *modeled*
//! order is the design's: each input pixel streams once and drives all
//! `KH·KW·M` columns, cropped taps included, and the output periphery
//! overlap-adds every tap's partial products into the full scatter tensor
//! and then crops it. [`ExecutionStats`] meter that schedule and nothing
//! else. The *host* order skips the full tensor and the cropped taps: per
//! input pixel it runs one [`CrossbarArray::vmm_batch_cols`] for the whole
//! batch over the columns of the taps that land in an output pixel
//! `(s·x + i − p, s·y + j − p)` that exists, then adds each of those
//! taps' `M` partial sums straight into it. A column's result does not
//! depend on which other columns are evaluated, and integer sums do not
//! depend on their order, so outputs are bit-identical to driving every
//! column, overlap-adding and cropping.

use super::scatter;
use super::{check_kernel, DeconvEngine, Execution, LayerScratch};
use crate::plan::InputSchedule;
use crate::{ArchError, Design, ExecutionStats};
use red_tensor::{FeatureMap, Kernel, LayerShape};
use red_xbar::{CrossbarArray, ExecPrecision, XbarConfig};

/// The padding-free design (paper Fig. 3(b)): input-stationary mapping onto
/// one `C × (KH·KW·M)` crossbar. Each real input pixel streams once
/// (`IH·IW` cycles), producing all `KH·KW·M` partial products at once;
/// dedicated output periphery then overlap-adds them into the full scatter
/// tensor and crops — Algorithm 2's add/crop steps, the "add-on
/// operations" that cost this design its output periphery.
///
/// Where each tap of each input pixel lands after the crop depends only on
/// the layer geometry, so it is resolved once at construction — the same
/// input-stationary schedule RED replays — and every run replays it
/// allocation-free (see the module docs).
#[derive(Debug, Clone)]
pub struct PaddingFreeEngine {
    layer: LayerShape,
    array: CrossbarArray,
    schedule: InputSchedule,
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
        Ok(Self {
            layer: *layer,
            array,
            schedule: InputSchedule::new(layer),
        })
    }

    /// The programmed crossbar (for inspection/tests).
    pub fn array(&self) -> &CrossbarArray {
        &self.array
    }

    /// Meters one input pixel: one cycle driving all `macs_per_nnz`
    /// columns per non-zero channel, whether or not its taps land.
    fn meter_pixel(stats: &mut ExecutionStats, px: &[i64], macs_per_nnz: usize) {
        let nnz = px.iter().filter(|v| **v != 0).count() as u128;
        stats.cycles += 1;
        stats.vector_ops += 1;
        stats.nonzero_row_activations += nnz;
        stats.total_row_slots += px.len() as u128;
        stats.nonzero_macs += nnz * macs_per_nnz as u128;
    }
}

impl DeconvEngine for PaddingFreeEngine {
    fn design(&self) -> Design {
        Design::PaddingFree
    }

    fn layer(&self) -> &LayerShape {
        &self.layer
    }

    fn truncation_error_bound(&self, prec: ExecPrecision) -> f64 {
        self.layer.spec().taps() as f64 * self.array.truncation_error_bound(prec)
    }

    /// Replays the scatter schedule: per input pixel, one
    /// [`CrossbarArray::vmm_batch_cols`] call for the whole batch over the
    /// landing taps' columns, then each landing tap's partial sums into
    /// its output pixel. The only heap allocations per call are the
    /// outputs.
    fn run(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut LayerScratch,
        prec: ExecPrecision,
    ) -> Result<Vec<Execution>, ArchError> {
        let (n, cols) = (inputs.len(), self.array.weight_cols());
        let m = self.layer.filters();
        let base = ExecutionStats {
            output_pixels: self.layer.output_geometry().pixels() as u64,
            ..ExecutionStats::default()
        };
        scatter::run_schedule(
            &self.layer,
            &self.schedule,
            inputs,
            base,
            scratch,
            |stats, px, _| Self::meter_pixel(stats, px, cols),
            |taps, pixels, vmm, partials| {
                let landing = taps.iter().map(|t| t.start * m..t.end * m);
                self.array
                    .vmm_batch_cols(pixels, n, landing, vmm, partials, prec)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::run_one;
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
            let exec = run_one(&engine, &input).unwrap();
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
        let exec = run_one(&engine, &input).unwrap();
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
            let batch = engine
                .run(&inputs, &mut LayerScratch::default(), ExecPrecision::Full)
                .unwrap();
            for (one, exec) in inputs.iter().zip(&batch) {
                let single = run_one(&engine, one).unwrap();
                assert_eq!(single.output, exec.output);
                assert_eq!(single.stats, exec.stats);
            }
        }
    }

    #[test]
    fn run_batch_pixel_major_path_matches_per_image() {
        // 128 channels x (16 taps x 64 filters) = 1 MiB of weights:
        // crosses the blocking threshold, exercising vmm_batch_cols' row
        // blocking across the batch. The noisy twin takes the batch-major
        // analog kernel over several column tiles.
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
            let batch = engine
                .run(&inputs, &mut LayerScratch::default(), ExecPrecision::Full)
                .unwrap();
            for (one, exec) in inputs.iter().zip(&batch) {
                let single = run_one(&engine, one).unwrap();
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
        assert!(run_one(&engine, &FeatureMap::<i64>::zeros(4, 4, 2)).is_err());
    }
}

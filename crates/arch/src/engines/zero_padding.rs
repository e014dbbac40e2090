use super::window::{self, PhaseOrder, WindowGeom};
use super::{check_input, check_kernel, DeconvEngine, Execution, LayerScratch};
use crate::plan::ExecPlan;
use crate::{ArchError, Design};
use red_tensor::{FeatureMap, Kernel, LayerShape};
use red_xbar::{CrossbarArray, ExecPrecision, PhasedCrossbar, XbarConfig};

/// The conventional zero-padding design (paper Fig. 3(a)): the kernel maps
/// like a standard convolution onto one `(KH·KW·C) × M` crossbar, and the
/// zero-inserted, border-padded input streams through it one receptive
/// field per cycle — `OH·OW` cycles, most of whose wordlines carry the
/// inserted zeros (Fig. 4's redundancy).
///
/// Row order matches the window flattening `((i·KW + j)·C + c)` with the
/// 180°-rotated kernel, exactly composing Algorithm 1's two steps.
///
/// The engine keeps two orders apart. The *modeled* order is the design's:
/// every output pixel drives all `KH·KW·C` rows, and [`ExecutionStats`]
/// meter exactly that. The *host* order evaluates only the rows that can
/// hold real inputs. Rotated tap `(i, j)` of output pixel `(u, v)` reads
/// a real input only when `u + i` and `v + j` sit `stride`-aligned past
/// the border, so a pixel's real inputs all fall in the taps of one
/// stride phase `(i mod s, j mod s)`. The array's rows are partitioned
/// into those `s²` phases ([`PhasedCrossbar`]), and the window schedule —
/// which real input pixel lands in which receptive-field slot of which
/// output pixel — is resolved once at construction into an [`ExecPlan`],
/// grouped by phase, and replayed allocation-free by every run. Driving
/// a phase's rows equals driving the whole window with the inserted
/// zeros, bit for bit.
///
/// [`ExecutionStats`]: crate::ExecutionStats
#[derive(Debug, Clone)]
pub struct ZeroPaddingEngine {
    layer: LayerShape,
    crossbar: PhasedCrossbar,
    plan: ExecPlan,
    order: PhaseOrder,
}

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
        let s = layer.spec().stride();
        let phase_of = |r: usize| {
            let (i, j) = (r / c / kw, r / c % kw);
            (i % s) * s + j % s
        };
        let crossbar = PhasedCrossbar::program(cfg, kh * kw * c, m, flat, s * s, phase_of)?;
        let plan = Self::build_plan(layer);
        let order = PhaseOrder::new(&plan, &crossbar, c);
        Ok(Self {
            layer: *layer,
            crossbar,
            plan,
            order,
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

    /// The programmed crossbar (for inspection/tests): the modeled
    /// window array, which holds its weights only.
    pub fn array(&self) -> &CrossbarArray {
        self.crossbar.array()
    }

    /// The frozen window schedule (for inspection/tests).
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }
}

impl DeconvEngine for ZeroPaddingEngine {
    fn design(&self) -> Design {
        Design::ZeroPadding
    }

    fn layer(&self) -> &LayerShape {
        &self.layer
    }

    fn truncation_error_bound(&self, prec: ExecPrecision) -> f64 {
        self.crossbar.truncation_error_bound(prec)
    }

    /// Replays the compile-time window plan mode-major: phase by phase,
    /// chunks of (output pixel, image) pairs gather their real inputs
    /// densely into the phase's rows (the rotated-kernel row order means
    /// window element `((i·KW + j)·C + c)` pairs with rotated tap
    /// `(i, j)`) and go through one crossbar call. Every pixel is metered
    /// over its full window. The only heap allocations per call are the
    /// outputs.
    fn run(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut LayerScratch,
        prec: ExecPrecision,
    ) -> Result<Vec<Execution>, ArchError> {
        for input in inputs {
            check_input(&self.layer, input)?;
        }
        let geom = self.layer.output_geometry();
        let g = WindowGeom {
            filters: self.layer.filters(),
            out_h: geom.height,
            out_w: geom.width,
            window_len: self.layer.spec().taps() * self.layer.channels(),
        };
        Ok(window::run_plan(
            &self.plan,
            &self.order,
            &self.crossbar,
            g,
            inputs,
            scratch,
            prec,
        ))
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
            let exec = run_one(&engine, &input).unwrap();
            let golden = deconv_direct(&input, &kernel, layer.spec()).unwrap();
            assert_eq!(exec.output, golden, "k={k} s={s} p={p} op={op}");
        }
    }

    #[test]
    fn cycle_count_is_output_pixels() {
        let (layer, kernel, input) = setup(4, 2, 1, 0, 4, 3, 2);
        let engine = ZeroPaddingEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
        let exec = run_one(&engine, &input).unwrap();
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
        let exec = run_one(&engine, &input).unwrap();
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
    fn run_batch_wide_window_matches_per_image() {
        // 16 taps x 128 channels x 64 filters: the modeled window holds 1
        // MiB of weights, past the exact path's row-blocking threshold,
        // but the host drives one stride phase at a time, 4 taps of 256
        // KiB each, so every phase takes the per-input exact loop over
        // chunks of many (pixel, image) pairs.
        let (layer, kernel, input) = setup(4, 2, 1, 0, 4, 128, 64);
        let engine = ZeroPaddingEngine::new(&XbarConfig::ideal(), &layer, &kernel).unwrap();
        assert!(engine.array().batching_pays());
        let phases = engine.crossbar.phases();
        assert_eq!(phases, 4);
        assert!((0..phases).all(|p| engine.crossbar.phase_rows(p).len() == 4 * 128));
        let inputs: Vec<_> = (0..2).map(|k| input.map(|v| v + k as i64)).collect();
        let batch = engine
            .run(&inputs, &mut LayerScratch::default(), ExecPrecision::Full)
            .unwrap();
        for (one, exec) in inputs.iter().zip(&batch) {
            let single = run_one(&engine, one).unwrap();
            assert_eq!(single.output, exec.output);
            assert_eq!(single.stats, exec.stats);
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_runs_on_sparse_windows() {
        // k16/s8 as in FCN-8s' upscore: each receptive field holds at most
        // 2x2 real pixels among 16x16 slots, 1/64 dense, all in one of 64
        // stride phases. A chunk zero-fills its phase rows before its
        // gathers, so a reused scratch must carry nothing over.
        let (layer, kernel, input) = setup(16, 8, 4, 0, 3, 2, 3);
        let inputs: Vec<_> = (0..3i64)
            .map(|k| input.map(|v| (v * (k + 1) + 7 * k) % 60))
            .collect();
        for cfg in [XbarConfig::ideal(), XbarConfig::noisy(0.01, 0.001, 0.0, 5)] {
            let engine = ZeroPaddingEngine::new(&cfg, &layer, &kernel).unwrap();
            let mut scratch = LayerScratch::default();
            let fresh: Vec<_> = inputs
                .iter()
                .map(|x| run_one(&engine, x).unwrap())
                .collect();
            for (x, want) in inputs.iter().zip(&fresh) {
                let one = std::slice::from_ref(x);
                let got = engine.run(one, &mut scratch, ExecPrecision::Full);
                assert_eq!(got.unwrap(), std::slice::from_ref(want));
            }
            let batch = engine.run(&inputs, &mut scratch, ExecPrecision::Full);
            assert_eq!(batch.unwrap(), fresh);
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
            run_one(&engine, &bad_input),
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

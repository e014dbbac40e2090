use red_arch::{
    ArchError, CostModel, CostReport, DeconvEngine, Design, Execution, PaddingFreeEngine,
    RedEngine, RedLayoutPolicy, ZeroPaddingEngine,
};
use red_tensor::{FeatureMap, Kernel, LayerShape};
use red_xbar::{ExecPrecision, XbarConfig};

/// A configured accelerator: one design plus the device/circuit models it
/// is priced and simulated with.
///
/// Build with [`Accelerator::builder`], then either [`estimate`] a layer's
/// cost analytically or [`compile`] it onto simulated crossbars and run
/// real data through it.
///
/// [`estimate`]: Accelerator::estimate
/// [`compile`]: Accelerator::compile
///
/// # Example
///
/// ```
/// use red_core::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let layer = Benchmark::FcnDeconv1.scaled_layer(4);
/// let acc = Accelerator::builder()
///     .design(Design::red(RedLayoutPolicy::Auto))
///     .build();
/// let report = acc.estimate(&layer)?;
/// assert_eq!(report.geometry.array.instances, 16); // 4x4 kernel -> 16 SCs
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Accelerator {
    design: Design,
    xbar: XbarConfig,
    model: CostModel,
}

impl Accelerator {
    /// Starts building an accelerator (defaults: RED with the paper's
    /// layout policy, ideal crossbars, paper-calibrated cost model).
    pub fn builder() -> AcceleratorBuilder {
        AcceleratorBuilder::new()
    }

    /// The configured design.
    pub fn design(&self) -> Design {
        self.design
    }

    /// The functional crossbar configuration.
    pub fn xbar_config(&self) -> &XbarConfig {
        &self.xbar
    }

    /// The analytical cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Analytically prices `layer` on this design (no crossbar
    /// programming; fast even for full Table I channel counts).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError`] if the geometry cannot be derived.
    pub fn estimate(&self, layer: &LayerShape) -> Result<CostReport, ArchError> {
        self.model.evaluate(self.design, layer)
    }

    /// Programs `kernel` onto simulated crossbars for `layer`, returning a
    /// runnable compiled layer together with its cost report.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError`] for kernel/layer mismatches or weight-range
    /// violations.
    pub fn compile(
        &self,
        layer: &LayerShape,
        kernel: &Kernel<i64>,
    ) -> Result<CompiledLayer, ArchError> {
        let cost = self.estimate(layer)?;
        let engine = match self.design {
            Design::ZeroPadding => {
                EngineKind::ZeroPadding(ZeroPaddingEngine::new(&self.xbar, layer, kernel)?)
            }
            Design::PaddingFree => {
                EngineKind::PaddingFree(PaddingFreeEngine::new(&self.xbar, layer, kernel)?)
            }
            Design::Red { policy } => {
                EngineKind::Red(RedEngine::new(&self.xbar, layer, kernel, policy)?)
            }
        };
        Ok(CompiledLayer { engine, cost })
    }
}

impl Default for Accelerator {
    fn default() -> Self {
        Accelerator::builder().build()
    }
}

/// Builder for [`Accelerator`].
#[derive(Debug, Clone)]
pub struct AcceleratorBuilder {
    design: Design,
    xbar: XbarConfig,
    model: CostModel,
}

impl AcceleratorBuilder {
    /// Creates the builder with paper defaults.
    pub fn new() -> Self {
        Self {
            design: Design::red(RedLayoutPolicy::Auto),
            xbar: XbarConfig::ideal(),
            model: CostModel::paper_default(),
        }
    }

    /// Selects the accelerator design.
    pub fn design(mut self, design: Design) -> Self {
        self.design = design;
        self
    }

    /// Sets the functional crossbar configuration (ADC model, variation,
    /// faults, precisions).
    pub fn xbar_config(mut self, cfg: XbarConfig) -> Self {
        self.xbar = cfg;
        self
    }

    /// Sets the analytical cost model.
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.model = model;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> Accelerator {
        Accelerator {
            design: self.design,
            xbar: self.xbar,
            model: self.model,
        }
    }
}

impl Default for AcceleratorBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Debug, Clone)]
enum EngineKind {
    ZeroPadding(ZeroPaddingEngine),
    PaddingFree(PaddingFreeEngine),
    Red(RedEngine),
}

/// Reusable working memory for [`CompiledLayer::run_with`]: the compiled
/// engine's scratch buffers (accumulators, gather windows, analog-path
/// VMM state), built once per execution context — a batch, a pipeline
/// worker — and reused across images so steady-state execution performs
/// no per-pixel heap allocation.
#[derive(Debug)]
pub struct LayerScratch(ScratchKind);

#[derive(Debug)]
enum ScratchKind {
    ZeroPadding(red_arch::ZpScratch),
    PaddingFree(red_arch::PfScratch),
    Red(red_arch::RedScratch),
}

/// A layer compiled onto simulated crossbars, ready to execute.
#[derive(Debug, Clone)]
pub struct CompiledLayer {
    engine: EngineKind,
    cost: CostReport,
}

impl CompiledLayer {
    /// Executes the layer on `input`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InputMismatch`] for a wrong-shaped input.
    pub fn run(&self, input: &FeatureMap<i64>) -> Result<Execution, ArchError> {
        self.run_with(input, &mut self.make_scratch())
    }

    /// Creates working memory for [`CompiledLayer::run_with`].
    pub fn make_scratch(&self) -> LayerScratch {
        LayerScratch(match &self.engine {
            EngineKind::ZeroPadding(e) => ScratchKind::ZeroPadding(e.make_scratch()),
            EngineKind::PaddingFree(e) => ScratchKind::PaddingFree(e.make_scratch()),
            EngineKind::Red(e) => ScratchKind::Red(e.make_scratch()),
        })
    }

    /// Executes the layer on `input` with caller-provided scratch, so
    /// repeated executions (a batch, a serving loop) pay the buffer setup
    /// once instead of per image.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InputMismatch`] for a wrong-shaped input.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was created by a [`CompiledLayer`] of a
    /// different design.
    pub fn run_with(
        &self,
        input: &FeatureMap<i64>,
        scratch: &mut LayerScratch,
    ) -> Result<Execution, ArchError> {
        match (&self.engine, &mut scratch.0) {
            (EngineKind::ZeroPadding(e), ScratchKind::ZeroPadding(s)) => e.run_with(input, s),
            (EngineKind::PaddingFree(e), ScratchKind::PaddingFree(s)) => e.run_with(input, s),
            (EngineKind::Red(e), ScratchKind::Red(s)) => e.run_with(input, s),
            _ => panic!("LayerScratch used with a different design's CompiledLayer"),
        }
    }

    /// [`CompiledLayer::run_with`] at an explicit precision tier: `prec`
    /// selects how many low input bits every crossbar VMM drops (see
    /// [`ExecPrecision`]); `ExecPrecision::Full` is bit-identical to
    /// [`CompiledLayer::run_with`], and the worst-case output deviation
    /// of a degraded tier is
    /// [`CompiledLayer::truncation_error_bound`]. [`red_arch::ExecutionStats`]
    /// are identical across tiers.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InputMismatch`] for a wrong-shaped input.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was created by a [`CompiledLayer`] of a
    /// different design.
    pub fn run_with_at(
        &self,
        input: &FeatureMap<i64>,
        scratch: &mut LayerScratch,
        prec: ExecPrecision,
    ) -> Result<Execution, ArchError> {
        match (&self.engine, &mut scratch.0) {
            (EngineKind::ZeroPadding(e), ScratchKind::ZeroPadding(s)) => {
                e.run_with_at(input, s, prec)
            }
            (EngineKind::PaddingFree(e), ScratchKind::PaddingFree(s)) => {
                e.run_with_at(input, s, prec)
            }
            (EngineKind::Red(e), ScratchKind::Red(s)) => e.run_with_at(input, s, prec),
            _ => panic!("LayerScratch used with a different design's CompiledLayer"),
        }
    }

    /// Executes the layer on every input of a batch, bit-exact against
    /// per-input [`CompiledLayer::run`] calls. Scratch buffers are reused
    /// across the batch, and when an ideal crossbar is large enough the
    /// engines multiply whole-batch gathers at once through the
    /// row-blocked exact VMM, so its weights stream from cache once per
    /// block instead of once per image.
    ///
    /// # Errors
    ///
    /// As [`CompiledLayer::run`]; the first failing input aborts the
    /// batch.
    pub fn run_batch(&self, inputs: &[FeatureMap<i64>]) -> Result<Vec<Execution>, ArchError> {
        match &self.engine {
            EngineKind::ZeroPadding(e) => e.run_batch(inputs),
            EngineKind::PaddingFree(e) => e.run_batch(inputs),
            EngineKind::Red(e) => e.run_batch(inputs),
        }
    }

    /// [`CompiledLayer::run_batch`] with caller-provided scratch: when
    /// the crossbars are below the batched-VMM threshold the per-image
    /// fallback reuses `scratch` instead of allocating one per call, so a
    /// serving loop pushing many small batches through the same layer
    /// performs no steady-state scratch allocation. Bit-exact against
    /// [`CompiledLayer::run_batch`] on every path.
    ///
    /// # Errors
    ///
    /// As [`CompiledLayer::run_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was created by a [`CompiledLayer`] of a
    /// different design.
    pub fn run_batch_with(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut LayerScratch,
    ) -> Result<Vec<Execution>, ArchError> {
        match (&self.engine, &mut scratch.0) {
            (EngineKind::ZeroPadding(e), ScratchKind::ZeroPadding(s)) => {
                e.run_batch_with(inputs, s)
            }
            (EngineKind::PaddingFree(e), ScratchKind::PaddingFree(s)) => {
                e.run_batch_with(inputs, s)
            }
            (EngineKind::Red(e), ScratchKind::Red(s)) => e.run_batch_with(inputs, s),
            _ => panic!("LayerScratch used with a different design's CompiledLayer"),
        }
    }

    /// [`CompiledLayer::run_batch_with`] at an explicit precision tier
    /// (see [`CompiledLayer::run_with_at`]).
    ///
    /// # Errors
    ///
    /// As [`CompiledLayer::run_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was created by a [`CompiledLayer`] of a
    /// different design.
    pub fn run_batch_with_at(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut LayerScratch,
        prec: ExecPrecision,
    ) -> Result<Vec<Execution>, ArchError> {
        match (&self.engine, &mut scratch.0) {
            (EngineKind::ZeroPadding(e), ScratchKind::ZeroPadding(s)) => {
                e.run_batch_with_at(inputs, s, prec)
            }
            (EngineKind::PaddingFree(e), ScratchKind::PaddingFree(s)) => {
                e.run_batch_with_at(inputs, s, prec)
            }
            (EngineKind::Red(e), ScratchKind::Red(s)) => e.run_batch_with_at(inputs, s, prec),
            _ => panic!("LayerScratch used with a different design's CompiledLayer"),
        }
    }

    /// Worst-case absolute deviation of any output element at `prec`
    /// relative to the same input at [`ExecPrecision::Full`]: the
    /// per-VMM bound (see
    /// [`red_xbar::CrossbarArray::truncation_error_bound`]) scaled by
    /// the design's accumulation fan-in — zero-padding computes each
    /// output pixel in one VMM, while padding-free's overlap-add and
    /// RED's vertical sum-up each merge up to `KH·KW` tap VMMs into one
    /// output element. Zero for `Full`; a sound (per-tap-tight) upper
    /// bound for degraded tiers.
    pub fn truncation_error_bound(&self, prec: ExecPrecision) -> f64 {
        let taps = self.layer().spec().taps() as f64;
        match &self.engine {
            EngineKind::ZeroPadding(e) => e.array().truncation_error_bound(prec),
            EngineKind::PaddingFree(e) => taps * e.array().truncation_error_bound(prec),
            EngineKind::Red(e) => taps * e.sct().truncation_error_bound(prec),
        }
    }

    /// The analytical cost report for this layer on this design.
    pub fn cost(&self) -> &CostReport {
        &self.cost
    }

    /// The design this layer was compiled for.
    pub fn design(&self) -> Design {
        match &self.engine {
            EngineKind::ZeroPadding(e) => e.design(),
            EngineKind::PaddingFree(e) => e.design(),
            EngineKind::Red(e) => e.design(),
        }
    }

    /// The layer shape this was compiled for.
    pub fn layer(&self) -> &LayerShape {
        match &self.engine {
            EngineKind::ZeroPadding(e) => e.layer(),
            EngineKind::PaddingFree(e) => e.layer(),
            EngineKind::Red(e) => e.layer(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use red_tensor::deconv::deconv_direct;
    use red_workloads::{synth, Benchmark};

    #[test]
    fn all_designs_compile_and_agree() {
        let layer = Benchmark::GanDeconv3.scaled_layer(128);
        let kernel = synth::kernel(&layer, 100, 1);
        let input = synth::input_dense(&layer, 100, 2);
        let golden = deconv_direct(&input, &kernel, layer.spec()).unwrap();
        for design in Design::paper_lineup() {
            let acc = Accelerator::builder().design(design).build();
            let compiled = acc.compile(&layer, &kernel).unwrap();
            let exec = compiled.run(&input).unwrap();
            assert_eq!(exec.output, golden, "{design}");
            assert_eq!(compiled.design().label(), design.label());
            assert_eq!(compiled.layer(), &layer);
            // Measured cycles match the priced geometry.
            assert_eq!(
                exec.stats.cycles,
                compiled.cost().geometry.cycles,
                "{design}"
            );
        }
    }

    #[test]
    fn run_batch_and_run_with_match_per_image_runs() {
        let layer = Benchmark::GanDeconv3.scaled_layer(128);
        let kernel = synth::kernel(&layer, 100, 1);
        let inputs: Vec<_> = (0..3)
            .map(|i| synth::input_dense(&layer, 100, 10 + i))
            .collect();
        for design in Design::paper_lineup() {
            let acc = Accelerator::builder().design(design).build();
            let compiled = acc.compile(&layer, &kernel).unwrap();
            let batch = compiled.run_batch(&inputs).unwrap();
            let mut scratch = compiled.make_scratch();
            for (input, exec) in inputs.iter().zip(&batch) {
                let single = compiled.run(input).unwrap();
                let with = compiled.run_with(input, &mut scratch).unwrap();
                assert_eq!(single.output, exec.output, "{design}");
                assert_eq!(single.stats, exec.stats, "{design}");
                assert_eq!(with.output, exec.output, "{design}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "different design")]
    fn mismatched_scratch_panics() {
        let layer = Benchmark::GanDeconv3.scaled_layer(128);
        let kernel = synth::kernel(&layer, 100, 1);
        let input = synth::input_dense(&layer, 100, 2);
        let red = Accelerator::builder()
            .design(Design::red(RedLayoutPolicy::Auto))
            .build()
            .compile(&layer, &kernel)
            .unwrap();
        let zp = Accelerator::builder()
            .design(Design::ZeroPadding)
            .build()
            .compile(&layer, &kernel)
            .unwrap();
        let mut scratch = zp.make_scratch();
        let _ = red.run_with(&input, &mut scratch);
    }

    #[test]
    fn estimate_without_compiling() {
        let layer = Benchmark::GanDeconv1.layer(); // full size: analytic only
        let acc = Accelerator::default();
        let report = acc.estimate(&layer).unwrap();
        assert_eq!(report.geometry.cycles, 64); // 256 outputs / 4 modes
    }

    #[test]
    fn builder_accessors() {
        let acc = Accelerator::builder().design(Design::PaddingFree).build();
        assert_eq!(acc.design(), Design::PaddingFree);
        let _ = acc.xbar_config();
        let _ = acc.cost_model();
    }
}

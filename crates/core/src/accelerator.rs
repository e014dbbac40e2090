use red_arch::{
    ArchError, CostModel, CostReport, DeconvEngine, Design, Execution, LayerScratch,
    PaddingFreeEngine, RedEngine, RedLayoutPolicy, ZeroPaddingEngine,
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
        let engine: Box<dyn DeconvEngine> = match self.design {
            Design::ZeroPadding => Box::new(ZeroPaddingEngine::new(&self.xbar, layer, kernel)?),
            Design::PaddingFree => Box::new(PaddingFreeEngine::new(&self.xbar, layer, kernel)?),
            Design::Red { policy } => Box::new(RedEngine::new(&self.xbar, layer, kernel, policy)?),
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

/// A layer compiled onto simulated crossbars, ready to execute: the
/// design's engine and its cost report. It holds no working memory:
/// every run takes a caller's [`LayerScratch`], and one scratch serves
/// every compiled layer of any design.
#[derive(Debug)]
pub struct CompiledLayer {
    engine: Box<dyn DeconvEngine>,
    cost: CostReport,
}

impl CompiledLayer {
    /// Executes the layer on one image through a fresh scratch.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InputMismatch`] for a wrong-shaped input.
    pub fn run(&self, input: &FeatureMap<i64>) -> Result<Execution, ArchError> {
        let one = std::slice::from_ref(input);
        let mut runs = self.run_batch_with(one, &mut self.make_scratch())?;
        Ok(runs.pop().expect("one execution per input"))
    }

    /// Creates working memory for [`CompiledLayer::run_batch_with`]. It
    /// serves this layer and any other, whatever its design.
    pub fn make_scratch(&self) -> LayerScratch {
        LayerScratch::default()
    }

    /// Executes the layer on every input of a batch with caller-provided
    /// scratch, one [`Execution`] per input, in order. Each image's
    /// execution is the same whatever batch it runs in and whatever the
    /// scratch ran before, on this layer or another, so a single image is
    /// a batch of one, and a serving loop pushing many batches through
    /// its layers pays the scratch setup once.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InputMismatch`] when an input's shape does not
    /// match the layer; no input runs then.
    pub fn run_batch_with(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut LayerScratch,
    ) -> Result<Vec<Execution>, ArchError> {
        self.run_batch_with_at(inputs, scratch, ExecPrecision::Full)
    }

    /// [`CompiledLayer::run_batch_with`] at an explicit precision tier:
    /// `prec` selects how many low input bits every crossbar VMM drops
    /// (see [`ExecPrecision`]); `ExecPrecision::Full` is bit-identical to
    /// [`CompiledLayer::run_batch_with`], and the worst-case output
    /// deviation of a degraded tier is
    /// [`CompiledLayer::truncation_error_bound`].
    /// [`red_arch::ExecutionStats`] are identical across tiers.
    ///
    /// # Errors
    ///
    /// As [`CompiledLayer::run_batch_with`].
    pub fn run_batch_with_at(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut LayerScratch,
        prec: ExecPrecision,
    ) -> Result<Vec<Execution>, ArchError> {
        self.engine.run(inputs, scratch, prec)
    }

    /// Worst-case absolute deviation of any output element at `prec`
    /// relative to the same input at [`ExecPrecision::Full`]
    /// ([`DeconvEngine::truncation_error_bound`]).
    pub fn truncation_error_bound(&self, prec: ExecPrecision) -> f64 {
        self.engine.truncation_error_bound(prec)
    }

    /// The analytical cost report for this layer on this design.
    pub fn cost(&self) -> &CostReport {
        &self.cost
    }

    /// The design this layer was compiled for.
    pub fn design(&self) -> Design {
        self.engine.design()
    }

    /// The layer shape this was compiled for.
    pub fn layer(&self) -> &LayerShape {
        self.engine.layer()
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
            let mut scratch = compiled.make_scratch();
            let batch = compiled.run_batch_with(&inputs, &mut scratch).unwrap();
            for (input, exec) in inputs.iter().zip(&batch) {
                let single = compiled.run(input).unwrap();
                let one = std::slice::from_ref(input);
                let with = compiled.run_batch_with(one, &mut scratch).unwrap();
                assert_eq!(single.output, exec.output, "{design}");
                assert_eq!(single.stats, exec.stats, "{design}");
                assert_eq!(with[0].output, exec.output, "{design}");
            }
        }
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

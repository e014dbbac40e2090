//! Functional engines: cycle-enumerated executions of each design's
//! dataflow through simulated crossbars.
//!
//! Every engine consumes the same `(kernel, layer)` pair and produces a
//! bit-exact deconvolution output plus measured [`ExecutionStats`]. The
//! engines are verified three ways:
//!
//! 1. against the `red-tensor` golden algorithms (functional correctness);
//! 2. against each other (all three designs compute the same function);
//! 3. against [`crate::DesignGeometry`] (measured cycles/activations must
//!    equal the closed forms the cost model prices).
//!
//! Each engine keeps two orders apart. The *modeled* order is the design's
//! cycle schedule, and [`ExecutionStats`] meter that schedule and nothing
//! else. The *host* order is whatever computes the same outputs fastest;
//! products do not depend on when the host computes them, and integer
//! sums do not depend on their order. Two host replays serve all four
//! engines, both driving whole batches through each crossbar call and
//! working in one [`LayerScratch`], so a single scratch serves every
//! engine, layer and design in turn:
//!
//! - the window replay (zero-padding and conv) walks stride phases: in
//!   each, it gathers chunks of (output pixel, image) pairs densely into
//!   the only window rows that can hold real inputs, the phase's, and
//!   drives each chunk through one call. Zero-padding's inserted zeros
//!   are metered, as the design drives them, but never driven;
//! - the scatter replay (padding-free and RED) walks input pixels,
//!   evaluates only the taps that land in the output, and adds each
//!   tap's partial sums straight into the output pixel it lands in. For
//!   padding-free that differs from the modeled order, where every input
//!   pixel drives all columns and the output periphery overlap-adds every
//!   tap into the full tensor and then crops it.

mod conv;
mod padding_free;
mod red;
mod scatter;
mod window;
mod zero_padding;

pub use conv::ConvEngine;
pub use padding_free::PaddingFreeEngine;
pub use red::RedEngine;
pub use zero_padding::ZeroPaddingEngine;

use crate::{ArchError, Design, ExecutionStats};
use red_tensor::{FeatureMap, Kernel, LayerShape};
use red_xbar::{ExecPrecision, VmmScratch};

/// Result of running one layer through an engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// The deconvolution output feature map.
    pub output: FeatureMap<i64>,
    /// Measured dataflow statistics.
    pub stats: ExecutionStats,
}

/// Reusable working memory for [`DeconvEngine::run`] and
/// [`ConvEngine::run`]: the crossbar inputs of one call (an input pixel
/// per image, or a chunk of (output pixel, image) pairs' stride-phase
/// rows, which stays within the `n × (window_len + M)` values whole
/// windows and their outputs would take), their crossbar outputs, and
/// the [`VmmScratch`]. Every buffer grows on first use and is resized on
/// every call, so one scratch serves batches of any size on any engine,
/// layer or design, and a serving loop reusing it stays allocation-free
/// in steady state.
#[derive(Debug, Default)]
pub struct LayerScratch {
    /// `k × row_len`: the crossbar inputs of one call.
    inputs: Vec<i64>,
    /// `k × out_len`: their crossbar outputs.
    outputs: Vec<i64>,
    vmm: VmmScratch,
}

/// A functional deconvolution accelerator engine.
pub trait DeconvEngine: std::fmt::Debug + Send + Sync {
    /// The design this engine implements.
    fn design(&self) -> Design;

    /// The layer this engine was programmed for.
    fn layer(&self) -> &LayerShape;

    /// Worst-case absolute deviation of any output element at `prec`
    /// relative to the same input at [`ExecPrecision::Full`]: the per-VMM
    /// bound (see [`red_xbar::CrossbarArray::truncation_error_bound`])
    /// scaled by the design's accumulation fan-in — zero-padding computes
    /// each output pixel in one VMM, while padding-free's overlap-add and
    /// RED's vertical sum-up each merge up to `KH·KW` tap VMMs into one
    /// output element. Zero for `Full`; a sound (per-tap-tight) upper
    /// bound for degraded tiers.
    fn truncation_error_bound(&self, prec: ExecPrecision) -> f64;

    /// Executes the layer on every input of a batch at precision tier
    /// `prec`, one [`Execution`] per input, in order. A single image is a
    /// batch of one.
    ///
    /// Each image's execution is the same whatever batch it runs in and
    /// whatever the scratch ran before. `prec` selects how many low input
    /// bits every crossbar VMM drops (see [`ExecPrecision`]); metering is
    /// over the untruncated inputs, so [`ExecutionStats`] are identical
    /// across tiers.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InputMismatch`] when an input's shape does not
    /// match the layer; no input runs then.
    fn run(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut LayerScratch,
        prec: ExecPrecision,
    ) -> Result<Vec<Execution>, ArchError>;
}

/// Runs one image at full precision through a fresh scratch.
#[cfg(test)]
pub(crate) fn run_one(
    engine: &dyn DeconvEngine,
    input: &FeatureMap<i64>,
) -> Result<Execution, ArchError> {
    let one = std::slice::from_ref(input);
    let mut runs = engine.run(one, &mut LayerScratch::default(), ExecPrecision::Full)?;
    Ok(runs.pop().expect("one execution per input"))
}

pub(crate) fn check_input(layer: &LayerShape, input: &FeatureMap<i64>) -> Result<(), ArchError> {
    if input.height() != layer.input_h()
        || input.width() != layer.input_w()
        || input.channels() != layer.channels()
    {
        return Err(ArchError::InputMismatch {
            detail: format!(
                "input {}x{}x{} vs layer {}x{}x{}",
                input.height(),
                input.width(),
                input.channels(),
                layer.input_h(),
                layer.input_w(),
                layer.channels()
            ),
        });
    }
    Ok(())
}

pub(crate) fn check_kernel(layer: &LayerShape, kernel: &Kernel<i64>) -> Result<(), ArchError> {
    if kernel.kernel_h() != layer.spec().kernel_h()
        || kernel.kernel_w() != layer.spec().kernel_w()
        || kernel.channels() != layer.channels()
        || kernel.filters() != layer.filters()
    {
        return Err(ArchError::KernelMismatch {
            detail: format!(
                "kernel {}x{}x{}x{} vs layer {}x{}x{}x{}",
                kernel.kernel_h(),
                kernel.kernel_w(),
                kernel.channels(),
                kernel.filters(),
                layer.spec().kernel_h(),
                layer.spec().kernel_w(),
                layer.channels(),
                layer.filters()
            ),
        });
    }
    Ok(())
}

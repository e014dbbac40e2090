//! # red-arch
//!
//! Accelerator architecture models for the RED reproduction: the three
//! designs the paper evaluates (§III–§IV), each as both a *functional
//! engine* that executes deconvolutions through simulated crossbars and an
//! *analytical geometry* that the latency/energy/area cost model prices.
//!
//! | Design | Paper | Mapping | Cycles |
//! |---|---|---|---|
//! | [`Design::ZeroPadding`] | ReGAN-style baseline | one `(KH·KW·C) × M` array | `OH·OW` |
//! | [`Design::PaddingFree`] | FCN-Engine-style | one `C × (KH·KW·M)` array + overlap-add/crop unit | `IH·IW` |
//! | [`Design::Red`] | this paper | `KH·KW` sub-crossbars of `C × M` (Eq. 1), zero-skipping flow | `OH·OW / s²` |
//!
//! The RED design additionally supports the paper's Eq. 2 area-efficient
//! variant (half the sub-crossbars, double rows, two cycles per batch),
//! selected per-layer by [`RedLayoutPolicy`].
//!
//! Functional engines ([`engines`]) produce bit-exact deconvolution outputs
//! (verified against the `red-tensor` golden algorithms) together with
//! measured [`ExecutionStats`]; the cost model ([`cost`]) prices the same
//! geometry analytically with the paper's Table II component breakdown and
//! Eq. 3 / Eq. 4 aggregation. Tests cross-check the two: measured cycle and
//! activation counts must equal the analytical ones.
//!
//! # Example
//!
//! ```
//! use red_arch::{CostModel, Design, RedLayoutPolicy};
//! use red_tensor::LayerShape;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // GAN_Deconv3 from Table I.
//! let layer = LayerShape::new(4, 4, 512, 256, 4, 4, 2, 1)?;
//! let model = CostModel::paper_default();
//! let zp = model.evaluate(Design::ZeroPadding, &layer)?;
//! let red = model.evaluate(Design::red(RedLayoutPolicy::Auto), &layer)?;
//! let speedup = zp.total_latency_ns() / red.total_latency_ns();
//! assert!(speedup > 3.0 && speedup < 4.0); // paper: 3.69x at stride 2
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
mod design;
pub mod engines;
mod error;
mod geometry;
mod pipeline;
mod plan;
mod programming;
mod stats;
mod tiling;
mod traffic;

pub use cost::{Component, CostModel, CostReport, ReprogramCost};
pub use design::{Design, RedLayoutPolicy};
pub use engines::{
    ConvEngine, DeconvEngine, Execution, LayerScratch, PaddingFreeEngine, RedEngine,
    ZeroPaddingEngine,
};
pub use error::ArchError;
pub use geometry::{ArrayShape, DesignGeometry};
pub use pipeline::PipelineReport;
pub use plan::{ExecPlan, GatherEntry, PixelStep};
pub use programming::ProgrammingCost;
pub use red_xbar::ExecPrecision;
pub use stats::ExecutionStats;
pub use tiling::MacroSpec;
pub use traffic::TrafficReport;

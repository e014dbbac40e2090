//! # red-runtime
//!
//! Chip-level execution runtime for the RED reproduction: where
//! `red-core::Accelerator` runs one deconvolution layer on one accelerator
//! instance, this crate turns a whole network into a *chip* and serves
//! batched traffic through it the way PipeLayer-class ReRAM systems do —
//! every layer's weights resident in their own crossbar tile group, feature
//! maps streaming through the layers as a pipeline.
//!
//! The subsystem has three parts:
//!
//! * the **chip compiler** ([`ChipBuilder`]) takes a
//!   `red_workloads::DeconvStack`, validates its seams, allocates one
//!   [`TileGroup`] per layer (geometry and area from the existing
//!   `CostModel`, physical macro count from [`MacroSpec`]), and programs
//!   each group with a compiled engine via `red_core::Accelerator`;
//! * the **executors** ([`Chip::run_sequential`],
//!   [`Chip::run_batched_with_scratch`], [`Chip::run_pipelined`]) share
//!   one stage loop and differ only in how they slice the batch: one
//!   image at a time, the whole batch, or contiguous shards on
//!   `std::thread::scope` threads (one per available core). A shard
//!   holds every stage's outputs for its images, as the batched executor
//!   does for the whole batch;
//! * the **runtime stats layer** ([`RuntimeReport`]) models fill latency,
//!   steady-state interval, throughput, per-stage occupancy and energy from
//!   the per-stage cost reports, and must reconcile with
//!   `red_arch::PipelineReport`'s analytical bottleneck prediction
//!   ([`RuntimeReport::reconciles_with`], asserted in the repository's
//!   integration tests).
//!
//! Pipelined execution is **bit-exact** against sequential
//! single-accelerator execution of the same stack
//! ([`Chip::run_sequential`]): the executors change *where* and *when*
//! stages run, never *what* they compute. Layer pipelining is a property
//! of the modeled chip: [`ExecMode::Pipelined`] composes every stage's
//! metered cycles into the overlapped schedule, whatever the host did.
//!
//! # Example
//!
//! ```
//! use red_runtime::{Chip, ChipBuilder};
//! use red_core::prelude::*;
//! use red_core::workloads::networks;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stack = networks::dcgan_generator(64)?; // channel-scaled for speed
//! let chip = ChipBuilder::new()
//!     .design(Design::red(RedLayoutPolicy::Auto))
//!     .compile_seeded(&stack, 5, 42)?;
//! let inputs: Vec<_> = (0..4)
//!     .map(|i| synth::input_dense(&stack.layers[0], 64, 100 + i))
//!     .collect();
//! let run = chip.run_pipelined(&inputs)?;
//! assert_eq!(run.outputs.len(), 4);
//! // The modeled schedule reconciles with the analytical pipeline report.
//! assert!(run.report.reconciles_with(&chip.pipeline_report()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chip;
mod error;
mod hw;
mod report;
mod schedule;

pub use chip::{Activation, Chip, ChipBuilder, Floorplan, Stage, TileGroup};
pub use error::RuntimeError;
pub use hw::HardwarePerImage;
pub use report::{ExecMode, RuntimeReport, StageStats};
pub use schedule::{BatchRun, ChipScratch};

// The tiling bound reused for the chip floorplan.
pub use red_arch::MacroSpec;

/// Re-export: the execution precision tiers brownout serving steps
/// between (see `red-xbar`).
pub use red_arch::ExecPrecision;

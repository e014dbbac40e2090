//! # red-core
//!
//! Public API facade for **red-sim** — a from-scratch Rust reproduction of
//! *RED: A ReRAM-based Deconvolution Accelerator* (Fan, Li, Li, Chen, Li —
//! DATE 2019, arXiv:1907.02987).
//!
//! RED accelerates deconvolution (transposed convolution) on ReRAM
//! processing-in-memory hardware with two techniques: **pixel-wise
//! mapping** (the kernel split across `KH·KW` sub-crossbars, Eq. 1) and a
//! **zero-skipping data flow** (only real input pixels are ever driven;
//! the `stride²` computation modes run concurrently). This crate stitches
//! the full simulator stack into one API:
//!
//! * [`Accelerator`] — configure a design, compile a layer onto simulated
//!   crossbars, execute it, and read the latency/energy/area bill;
//! * [`Comparison`] — evaluate all three designs the paper compares
//!   (zero-padding, padding-free, RED) side by side, normalized the way
//!   the paper's figures are;
//! * re-exports of every layer of the stack ([`tensor`], [`device`],
//!   [`circuit`], [`xbar`], [`arch`], [`workloads`]) for direct use.
//!
//! # Quickstart
//!
//! ```
//! use red_core::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's GAN_Deconv3 benchmark, channel-scaled for a fast demo.
//! let layer = Benchmark::GanDeconv3.scaled_layer(64);
//! let kernel = synth::kernel(&layer, 127, 42);
//! let input = synth::input_dense(&layer, 127, 7);
//!
//! // Compile onto the RED design and run.
//! let acc = Accelerator::builder().design(Design::red(RedLayoutPolicy::Auto)).build();
//! let compiled = acc.compile(&layer, &kernel)?;
//! let exec = compiled.run(&input)?;
//!
//! // Output is bit-exact with the textbook deconvolution.
//! let golden = red_core::tensor::deconv::deconv_direct(&input, &kernel, layer.spec())?;
//! assert_eq!(exec.output, golden);
//!
//! // And the paper's headline: ~4x fewer cycles than zero-padding at stride 2.
//! let zp = Accelerator::builder().design(Design::ZeroPadding).build();
//! let zp_cycles = zp.estimate(&layer)?.geometry.cycles;
//! assert_eq!(zp_cycles, 4 * exec.stats.cycles);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accelerator;
mod comparison;
pub mod prelude;

pub use accelerator::{Accelerator, AcceleratorBuilder, CompiledLayer};
pub use comparison::{Comparison, DesignRow};
pub use red_arch::LayerScratch;

/// The tensor / golden-algorithm substrate (re-export of `red-tensor`).
pub use red_tensor as tensor;

/// ReRAM device and technology models (re-export of `red-device`).
pub use red_device as device;

/// Periphery circuit models (re-export of `red-circuit`).
pub use red_circuit as circuit;

/// Functional crossbar simulation (re-export of `red-xbar`).
pub use red_xbar as xbar;

/// Architecture engines and cost model (re-export of `red-arch`).
pub use red_arch as arch;

/// Table I benchmarks and synthetic workloads (re-export of `red-workloads`).
pub use red_workloads as workloads;

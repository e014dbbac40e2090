//! # red-xbar
//!
//! Functional ReRAM crossbar simulation for the RED accelerator
//! reproduction.
//!
//! Where `red-circuit` *prices* crossbar operations, this crate *executes*
//! them: weights are bit-sliced onto multi-level cells, input vectors are
//! streamed bit-serially, column currents are summed in the analog domain,
//! converted by an integrate-and-fire read circuit, and recombined by the
//! shift-adder — reproducing the full Fig. 1(a) pipeline numerically.
//!
//! Key types:
//!
//! * [`XbarConfig`] — device + conversion configuration (cell, weight
//!   encoding, ADC model, variation/faults);
//! * [`CrossbarArray`] — one programmed array: exact digital reference
//!   ([`CrossbarArray::vmm_exact`]) and analog-path simulation
//!   ([`CrossbarArray::vmm`]);
//! * [`SubCrossbarTensor`] — RED's pixel-wise mapping (paper Eq. 1): the
//!   kernel split into `KH·KW` sub-crossbars of shape `C × M`, plus the
//!   area-efficient halved arrangement (paper Eq. 2);
//! * [`PhasedCrossbar`] — the zero-padding design's window crossbar,
//!   evaluated one stride phase's rows at a time (paper Fig. 4).
//!
//! With an ideal ADC and no variation, the analog path is bit-exact with
//! the digital reference (property-tested); with a saturating ADC,
//! conductance variation or stuck-at faults it degrades the way real
//! arrays do, which the fault-injection tests quantify.
//!
//! # Example
//!
//! ```
//! use red_xbar::{CrossbarArray, XbarConfig};
//!
//! # fn main() -> Result<(), red_xbar::XbarError> {
//! let cfg = XbarConfig::ideal();
//! // 3 rows (channels) x 2 weight columns (filters).
//! let weights = vec![vec![5, -3], vec![0, 7], vec![-2, 1]];
//! let array = CrossbarArray::program(&cfg, &weights)?;
//! let out = array.vmm(&[1, 2, -1]);
//! assert_eq!(out, vec![1 * 5 + 2 * 0 + -1 * -2, 1 * -3 + 2 * 7 + -1 * 1]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod config;
mod ir_drop;
mod phased;
mod plane;
mod precision;
mod sct;

pub use array::{CrossbarArray, VmmScratch};
pub use config::{AdcModel, WeightScheme, XbarConfig, XbarError};
pub use ir_drop::IrDropModel;
pub use phased::PhasedCrossbar;
pub use precision::ExecPrecision;
pub use sct::{SctLayout, SubCrossbarTensor};

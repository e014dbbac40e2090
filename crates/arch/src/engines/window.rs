//! The window replay: the one host executor of the output-stationary
//! engines.
//!
//! `ZeroPaddingEngine` and `ConvEngine` differ only in how their window
//! schedule is *built* (zero-inserted padded coordinates vs strided conv
//! coordinates); executing a built plan — gather each output pixel's
//! receptive field, meter it, multiply it through the crossbar — is
//! identical. This module holds that executor once. It runs pixel-major:
//! at each output pixel it gathers every image's window into the
//! [`LayerScratch`]'s crossbar inputs and drives the whole batch through
//! one [`CrossbarArray::vmm_batch_at`] call, which row-blocks large ideal
//! arrays across the batch. A single image is a batch of one.

use super::{Execution, LayerScratch};
use crate::plan::{ExecPlan, GatherEntry};
use crate::ExecutionStats;
use red_tensor::FeatureMap;
use red_xbar::{CrossbarArray, ExecPrecision};

/// Static geometry a window plan executes against.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowGeom {
    /// Input channels `C` (one gather copies `C` values per slot).
    pub channels: usize,
    /// Filters `M` (output values per pixel).
    pub filters: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
    /// Receptive-field window length (`taps · C`).
    pub window_len: usize,
}

/// Gathers one pixel's receptive field into its slots of the all-zero
/// `window` and returns the window's non-zero entry count, which only
/// the gathered pixels can contribute. Every other slot is an inserted
/// or border zero that costs nothing here.
fn gather_window(
    plan_entries: &[GatherEntry],
    input: &FeatureMap<i64>,
    channels: usize,
    window: &mut [i64],
) -> u128 {
    let mut nnz = 0;
    for g in plan_entries {
        let px = input.pixel(g.x as usize, g.y as usize);
        let slot = g.slot as usize;
        window[slot * channels..(slot + 1) * channels].copy_from_slice(px);
        nnz += px.iter().filter(|x| **x != 0).count();
    }
    nnz as u128
}

/// Clears the slots [`gather_window`] wrote, leaving `window` all zero
/// for the next pixel.
fn clear_window(plan_entries: &[GatherEntry], channels: usize, window: &mut [i64]) {
    for g in plan_entries {
        let slot = g.slot as usize;
        window[slot * channels..(slot + 1) * channels].fill(0);
    }
}

fn meter_window(stats: &mut ExecutionStats, nnz: u128, window_len: usize, filters: usize) {
    stats.cycles += 1;
    stats.vector_ops += 1;
    stats.nonzero_row_activations += nnz;
    stats.total_row_slots += window_len as u128;
    stats.nonzero_macs += nnz * filters as u128;
    stats.output_pixels += 1;
}

/// Replays a window plan pixel-major over a batch with caller-provided
/// scratch; the only heap allocations are the outputs. Inputs must
/// already be shape-checked. The scratch's crossbar inputs hold one
/// `window_len` window per image, all zeros between pixels: a pixel
/// writes only its gathered slots and clears them after its VMM. Its
/// crossbar outputs hold the pixel's `M` outputs per image. Each image
/// is metered on its own over the *untruncated* gathered window, so
/// [`ExecutionStats`] are identical across precision tiers (the tier
/// changes conversion phases, not the value-structure schedule), and
/// each image's execution is the same whatever batch it runs in.
pub(crate) fn run_plan(
    plan: &ExecPlan,
    array: &CrossbarArray,
    geom: WindowGeom,
    inputs: &[FeatureMap<i64>],
    scratch: &mut LayerScratch,
    prec: ExecPrecision,
) -> Vec<Execution> {
    let (n, m, len) = (inputs.len(), geom.filters, geom.window_len);
    let mut runs: Vec<Execution> = inputs
        .iter()
        .map(|_| Execution {
            output: FeatureMap::zeros(geom.out_h, geom.out_w, m),
            stats: ExecutionStats::default(),
        })
        .collect();
    // Zeroed once per call, so neither a run that panicked mid-pixel nor
    // another engine's run can leave values behind in a reused scratch.
    scratch.inputs.clear();
    scratch.inputs.resize(n * len, 0);
    scratch.outputs.resize(n * m, 0);
    for ((u, v), gathers) in plan.iter() {
        for (window, (input, run)) in scratch
            .inputs
            .chunks_exact_mut(len)
            .zip(inputs.iter().zip(&mut runs))
        {
            let nnz = gather_window(gathers, input, geom.channels, window);
            meter_window(&mut run.stats, nnz, len, m);
        }
        array.vmm_batch_at(
            &scratch.inputs,
            n,
            &mut scratch.vmm,
            &mut scratch.outputs,
            prec,
        );
        for (window, (run, out)) in scratch
            .inputs
            .chunks_exact_mut(len)
            .zip(runs.iter_mut().zip(scratch.outputs.chunks_exact(m)))
        {
            clear_window(gathers, geom.channels, window);
            run.output.pixel_mut(u, v).copy_from_slice(out);
        }
    }
    runs
}

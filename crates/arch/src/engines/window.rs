//! Shared plan-replay executor for the window engines.
//!
//! `ZeroPaddingEngine` and `ConvEngine` differ only in how their window
//! schedule is *built* (zero-inserted padded coordinates vs strided conv
//! coordinates); executing a built plan — gather each output pixel's
//! receptive field, meter it, multiply it through the crossbar — is
//! identical. This module holds that executor once, for both the
//! per-image scratch path and the pixel-major batched path.

use super::Execution;
use crate::plan::{ExecPlan, GatherEntry};
use crate::ExecutionStats;
use red_tensor::FeatureMap;
use red_xbar::{CrossbarArray, ExecPrecision, VmmScratch};

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

/// Reusable working memory for [`run_plan`]: the gathered receptive-field
/// window, the per-pixel output buffer, and the analog-path VMM scratch.
#[derive(Debug, Clone)]
pub(crate) struct WindowScratch {
    /// All zeros between pixels: a pixel writes only its gathered slots
    /// and clears them after its VMM.
    window: Vec<i64>,
    out: Vec<i64>,
    vmm: VmmScratch,
}

impl WindowScratch {
    pub(crate) fn new(window_len: usize, filters: usize) -> Self {
        Self {
            window: vec![0i64; window_len],
            out: vec![0i64; filters],
            vmm: VmmScratch::new(),
        }
    }
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

/// Replays a window plan for one image with caller-provided scratch; the
/// only heap allocation is the output feature map. The input must already
/// be shape-checked. Metering is over the *untruncated* gathered window,
/// so [`ExecutionStats`] are identical across precision tiers (the tier
/// changes conversion phases, not the value-structure schedule).
pub(crate) fn run_plan(
    plan: &ExecPlan,
    array: &CrossbarArray,
    geom: WindowGeom,
    input: &FeatureMap<i64>,
    scratch: &mut WindowScratch,
    prec: ExecPrecision,
) -> Execution {
    let mut output = FeatureMap::<i64>::zeros(geom.out_h, geom.out_w, geom.filters);
    let mut stats = ExecutionStats::default();
    // Cleared once per run, so a run that panicked mid-pixel cannot
    // leave gathered values behind in a reused scratch.
    scratch.window.fill(0);
    for ((u, v), gathers) in plan.iter() {
        let nnz = gather_window(gathers, input, geom.channels, &mut scratch.window);
        meter_window(&mut stats, nnz, scratch.window.len(), geom.filters);
        array.vmm_into_at(&scratch.window, &mut scratch.vmm, &mut scratch.out, prec);
        clear_window(gathers, geom.channels, &mut scratch.window);
        output.pixel_mut(u, v).copy_from_slice(&scratch.out);
    }
    Execution { output, stats }
}

/// Replays a window plan pixel-major over a whole batch, gathering every
/// image's window per output pixel and multiplying them through the
/// batched [`CrossbarArray::vmm_batch`] — cache-blocked exact VMM on the
/// ideal path, per-input analog VMMs otherwise — with one [`VmmScratch`]
/// owned here and reused for every output pixel. Inputs must already be
/// shape-checked; callers gate this on [`CrossbarArray::batching_pays`]
/// — below that threshold the per-image [`run_plan`] loop is faster.
pub(crate) fn run_plan_batch(
    plan: &ExecPlan,
    array: &CrossbarArray,
    geom: WindowGeom,
    inputs: &[FeatureMap<i64>],
    prec: ExecPrecision,
) -> Vec<Execution> {
    let n = inputs.len();
    let m = geom.filters;
    let mut outputs: Vec<FeatureMap<i64>> = inputs
        .iter()
        .map(|_| FeatureMap::zeros(geom.out_h, geom.out_w, m))
        .collect();
    let mut stats = vec![ExecutionStats::default(); n];
    let mut windows = vec![0i64; n * geom.window_len];
    let mut outs = vec![0i64; n * m];
    let mut vmm = VmmScratch::new();

    for ((u, v), gathers) in plan.iter() {
        for (window, (input, st)) in windows
            .chunks_exact_mut(geom.window_len)
            .zip(inputs.iter().zip(&mut stats))
        {
            let nnz = gather_window(gathers, input, geom.channels, window);
            meter_window(st, nnz, geom.window_len, m);
        }
        array.vmm_batch_at(&windows, n, &mut vmm, &mut outs, prec);
        for window in windows.chunks_exact_mut(geom.window_len) {
            clear_window(gathers, geom.channels, window);
        }
        for (k, output) in outputs.iter_mut().enumerate() {
            output
                .pixel_mut(u, v)
                .copy_from_slice(&outs[k * m..(k + 1) * m]);
        }
    }
    outputs
        .into_iter()
        .zip(stats)
        .map(|(output, stats)| Execution { output, stats })
        .collect()
}

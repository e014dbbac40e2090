//! The window replay: the one host executor of the output-stationary
//! engines.
//!
//! `ZeroPaddingEngine` and `ConvEngine` differ only in how their window
//! schedule is *built* (zero-inserted padded coordinates vs strided conv
//! coordinates); executing a built plan — gather each output pixel's
//! receptive field, meter it, multiply it through the crossbar — is
//! identical. This module holds that executor once.
//!
//! It runs mode-major. An output pixel's receptive field holds real
//! inputs only in the rows of one stride phase of its
//! [`PhasedCrossbar`] (zero-padding's Fig. 4 redundancy; a conv window
//! is one phase), so the replay walks the phases, and in each phase
//! gathers chunks of (output pixel, image) pairs densely into the phase's
//! rows and drives each chunk through one [`PhasedCrossbar::vmm_phase`]
//! call. The inserted zeros are never stored or driven. A pixel whose
//! window gathers nothing reads out zeros, which its zero-filled output
//! already holds. A single image is a batch of one.

use super::{Execution, LayerScratch};
use crate::plan::{ExecPlan, GatherEntry};
use crate::ExecutionStats;
use red_tensor::FeatureMap;
use red_xbar::{ExecPrecision, PhasedCrossbar};

/// Static geometry a window plan executes against.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowGeom {
    /// Filters `M` (output values per pixel).
    pub filters: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
    /// Receptive-field window length (`taps · C`).
    pub window_len: usize,
}

/// A window plan's pixels grouped by stride phase, resolved once at
/// engine construction.
#[derive(Debug, Clone)]
pub(crate) struct PhaseOrder {
    /// Per receptive-field slot `i·KW + j`, the offset of its first row
    /// within its phase's rows.
    offsets: Vec<u32>,
    /// The plan's pixels that gather anything, phase by phase, in plan
    /// order within a phase.
    pixels: Vec<u32>,
    /// `phases + 1` ascending offsets into `pixels`.
    starts: Vec<u32>,
}

impl PhaseOrder {
    /// Groups `plan`'s pixels by the phase of `crossbar` their gathers'
    /// rows fall in (one phase per pixel, by construction of the plan's
    /// window schedule), for windows of `channels` rows per slot.
    ///
    /// # Panics
    ///
    /// Panics if a pixel gathers slots of two phases.
    pub(crate) fn new(plan: &ExecPlan, crossbar: &PhasedCrossbar, channels: usize) -> Self {
        let slots = crossbar.array().rows() / channels;
        let (mut offsets, mut phase_of) = (vec![0u32; slots], vec![0u32; slots]);
        for p in 0..crossbar.phases() {
            for (k, &r) in crossbar.phase_rows(p).iter().enumerate().step_by(channels) {
                let slot = r as usize / channels;
                (offsets[slot], phase_of[slot]) = (k as u32, p as u32);
            }
        }
        let mut grouped = vec![Vec::new(); crossbar.phases()];
        for (i, (_, gathers)) in plan.iter().enumerate() {
            let Some(first) = gathers.first() else {
                continue;
            };
            let p = phase_of[first.slot as usize];
            let one_phase = gathers.iter().all(|g| phase_of[g.slot as usize] == p);
            assert!(one_phase, "a window's gathers fall in one stride phase");
            grouped[p as usize].push(i as u32);
        }
        let mut starts = vec![0u32];
        starts.extend(grouped.iter().scan(0, |end, g| {
            *end += g.len() as u32;
            Some(*end)
        }));
        Self {
            offsets,
            pixels: grouped.concat(),
            starts,
        }
    }

    /// Phase `p`'s pixels, as indices into the plan.
    fn phase_pixels(&self, p: usize) -> &[u32] {
        &self.pixels[self.starts[p] as usize..self.starts[p + 1] as usize]
    }
}

/// Gathers one pixel's receptive field densely into `dense`, one phase's
/// rows, all zero on entry, and returns the gathered non-zero entry
/// count, which only the gathered pixels can contribute.
fn gather(
    gathers: &[GatherEntry],
    offsets: &[u32],
    input: &FeatureMap<i64>,
    dense: &mut [i64],
) -> u128 {
    let mut nnz = 0;
    for g in gathers {
        let px = input.pixel(g.x as usize, g.y as usize);
        let at = offsets[g.slot as usize] as usize;
        dense[at..at + px.len()].copy_from_slice(px);
        nnz += px.iter().filter(|x| **x != 0).count();
    }
    nnz as u128
}

/// Replays a window plan mode-major over a batch with caller-provided
/// scratch; the only heap allocations are the outputs. Inputs must
/// already be shape-checked.
///
/// Within a phase, pixels go in chunks of whole pixels, every image of a
/// pixel in one chunk: the scratch's crossbar inputs hold each (pixel,
/// image) pair's phase rows, zero-filled per chunk before the gathers,
/// and its crossbar outputs their `M` outputs. A chunk holds as many
/// pairs as keep those two buffers within what a pixel-major replay's
/// whole windows would take, `n × (window_len + M)` values, and at least
/// one pixel.
///
/// Each image is metered on its own over the *untruncated* full window
/// of every output pixel — one cycle and `window_len` row slots per
/// pixel, and the gathered non-zeros — so [`ExecutionStats`] are the
/// design's whatever the host order, identical across precision tiers
/// (the tier changes conversion phases, not the value-structure
/// schedule), and each image's execution is the same whatever batch it
/// runs in.
pub(crate) fn run_plan(
    plan: &ExecPlan,
    order: &PhaseOrder,
    crossbar: &PhasedCrossbar,
    geom: WindowGeom,
    inputs: &[FeatureMap<i64>],
    scratch: &mut LayerScratch,
    prec: ExecPrecision,
) -> Vec<Execution> {
    let (n, m, len) = (inputs.len(), geom.filters, geom.window_len);
    let pixels = plan.pixel_count();
    let metered = ExecutionStats {
        cycles: pixels as u64,
        vector_ops: pixels as u64,
        total_row_slots: (pixels * len) as u128,
        output_pixels: pixels as u64,
        ..ExecutionStats::default()
    };
    let mut runs: Vec<Execution> = inputs
        .iter()
        .map(|_| Execution {
            output: FeatureMap::zeros(geom.out_h, geom.out_w, m),
            stats: metered,
        })
        .collect();
    if n == 0 {
        return runs;
    }
    let budget = n * (len + m);
    for p in 0..crossbar.phases() {
        let rows = crossbar.phase_rows(p).len();
        let per_chunk = (budget / (n * (rows + m))).max(1);
        for chunk in order.phase_pixels(p).chunks(per_chunk) {
            let pairs = chunk.len() * n;
            scratch.inputs.clear();
            scratch.inputs.resize(pairs * rows, 0);
            let mut dense = scratch.inputs.chunks_exact_mut(rows);
            for &i in chunk {
                let (_, gathers) = plan.pixel(i as usize);
                for ((input, run), dense) in inputs.iter().zip(&mut runs).zip(&mut dense) {
                    let nnz = gather(gathers, &order.offsets, input, dense);
                    run.stats.nonzero_row_activations += nnz;
                    run.stats.nonzero_macs += nnz * m as u128;
                }
            }
            scratch.outputs.clear();
            scratch.outputs.resize(pairs * m, 0);
            crossbar.vmm_phase(
                p,
                &scratch.inputs,
                pairs,
                &mut scratch.vmm,
                &mut scratch.outputs,
                prec,
            );
            let mut outs = scratch.outputs.chunks_exact(m);
            for &i in chunk {
                let ((u, v), _) = plan.pixel(i as usize);
                for (run, out) in runs.iter_mut().zip(&mut outs) {
                    run.output.pixel_mut(u, v).copy_from_slice(out);
                }
            }
        }
    }
    runs
}

//! The scatter replay: the one host executor of the input-stationary
//! engines.
//!
//! Padding-free and RED do the same host arithmetic per input pixel: drive
//! the pixel through the kernel taps that land in the output, then add
//! each such tap's `M` partial sums into the output pixel it lands in
//! ([`InputSchedule`]). They differ in how a pixel is metered and in which
//! crossbar call evaluates its taps, so the replay takes both as closures.
//! It runs pixel-major over the batch — one evaluation per input pixel
//! position for every image at once, which the batch-major analog kernel
//! turns into tile reuse, and a few-row plane into set-table lookups —
//! and a single image is a batch of one.

use super::{check_input, Execution, LayerScratch};
use crate::plan::InputSchedule;
use crate::{ArchError, ExecutionStats};
use red_tensor::{FeatureMap, LayerShape};
use red_xbar::VmmScratch;
use std::ops::Range;

/// Replays `schedule` over `inputs`, input pixel by input pixel. Each
/// image's execution starts from `base` stats, and each image's pixel is
/// metered by `meter(stats, pixel, landings)`. Then `eval(taps, pixels,
/// vmm, partials)` evaluates the pixel position for the whole batch —
/// `pixels` is `n × C`, and it must write at least the taps in `taps` of
/// the `n × KH·KW·M` `partials` — and each landing's partial sums are
/// added into its output pixel. Pixels no tap lands from are metered but
/// not evaluated. The scratch's crossbar inputs hold the pixels and its
/// crossbar outputs the partial sums, tap-major per image; only the
/// partial sums `eval` wrote are read, so whatever the scratch held
/// before never reaches an output.
pub(crate) fn run_schedule(
    layer: &LayerShape,
    schedule: &InputSchedule,
    inputs: &[FeatureMap<i64>],
    base: ExecutionStats,
    scratch: &mut LayerScratch,
    meter: impl Fn(&mut ExecutionStats, &[i64], usize),
    mut eval: impl FnMut(&[Range<usize>], &[i64], &mut VmmScratch, &mut [i64]),
) -> Result<Vec<Execution>, ArchError> {
    for input in inputs {
        check_input(layer, input)?;
    }
    let geom = layer.output_geometry();
    let (m, iw) = (layer.filters(), layer.input_w());
    let width = layer.spec().taps() * m;
    let mut runs: Vec<Execution> = inputs
        .iter()
        .map(|_| Execution {
            output: FeatureMap::zeros(geom.height, geom.width, m),
            stats: base,
        })
        .collect();
    scratch.outputs.resize(inputs.len() * width, 0);
    for (xy, (scatters, taps)) in schedule.pixels().enumerate() {
        scratch.inputs.clear();
        for (input, run) in inputs.iter().zip(&mut runs) {
            let px = input.pixel(xy / iw, xy % iw);
            meter(&mut run.stats, px, scatters.len());
            scratch.inputs.extend_from_slice(px);
        }
        if scatters.is_empty() {
            continue;
        }
        eval(
            taps,
            &scratch.inputs,
            &mut scratch.vmm,
            &mut scratch.outputs,
        );
        for (run, partials) in runs.iter_mut().zip(scratch.outputs.chunks_exact(width)) {
            for g in scatters {
                let out = run.output.pixel_mut(g.u as usize, g.v as usize);
                for (o, &q) in out.iter_mut().zip(&partials[g.tap as usize * m..]) {
                    *o += q;
                }
            }
        }
    }
    Ok(runs)
}

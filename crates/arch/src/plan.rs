//! Compile-time execution plans: the gather and scatter schedules the
//! engines resolve once at `new()` time and replay allocation-free on
//! every run.
//!
//! The seed engines re-derived the same mode/tap/coordinate arithmetic for
//! every pixel of every image — pure per-image overhead, since the
//! schedule depends only on the layer geometry the engine was compiled
//! for. Two frozen schedules replace it:
//!
//! - An [`ExecPlan`] is output-stationary, for the window engines: a flat
//!   list of resolved [`GatherEntry`]s (which input pixel feeds which
//!   receptive-field slot), sliced per output pixel, in exactly the pixel
//!   order the seed dataflow visited.
//! - An `InputSchedule` is input-stationary, for padding-free and RED:
//!   per input pixel, the output pixel each kernel tap's partial sums
//!   land in, and the merged ranges of the taps that land anywhere.
//!
//! Executing either is a linear walk — no modulo arithmetic, no bounds
//! checks beyond the slice, no heap allocation.

use red_tensor::LayerShape;
use std::ops::Range;

/// One resolved gather: input pixel `(x, y)` feeds engine slot `slot`.
///
/// The slot meaning is engine-defined: for the window engines
/// (`ZeroPaddingEngine`, `ConvEngine`) it is the receptive-field slot
/// `i·KW + j` whose `C` channels the pixel fills. (`RedEngine` keeps no
/// plan: it stores the same gathers per input pixel instead, in an
/// `InputSchedule`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherEntry {
    /// Engine-defined destination slot.
    pub slot: u32,
    /// Input-row coordinate.
    pub x: u32,
    /// Input-column coordinate.
    pub y: u32,
}

/// One output pixel's slice of the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelStep {
    /// Output-row coordinate.
    pub u: u32,
    /// Output-column coordinate.
    pub v: u32,
    start: u32,
    end: u32,
}

/// A frozen per-output-pixel gather schedule (see the module docs).
///
/// Build with [`ExecPlan::begin_pixel`] / [`ExecPlan::push_gather`] during
/// engine construction; replay with [`ExecPlan::iter`] during execution.
#[derive(Debug, Clone, Default)]
pub struct ExecPlan {
    entries: Vec<GatherEntry>,
    pixels: Vec<PixelStep>,
}

impl ExecPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the next output pixel `(u, v)`; subsequent
    /// [`ExecPlan::push_gather`] calls attach to it.
    pub fn begin_pixel(&mut self, u: usize, v: usize) {
        let at = self.entries.len() as u32;
        self.pixels.push(PixelStep {
            u: u as u32,
            v: v as u32,
            start: at,
            end: at,
        });
    }

    /// Appends a resolved gather to the currently open pixel.
    ///
    /// # Panics
    ///
    /// Panics if no pixel has been opened.
    pub fn push_gather(&mut self, slot: usize, x: usize, y: usize) {
        self.entries.push(GatherEntry {
            slot: slot as u32,
            x: x as u32,
            y: y as u32,
        });
        self.pixels
            .last_mut()
            .expect("begin_pixel before push_gather")
            .end += 1;
    }

    /// Number of planned output pixels.
    pub fn pixel_count(&self) -> usize {
        self.pixels.len()
    }

    /// Total number of resolved gather entries across all pixels.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Iterates the plan in the recorded pixel order, yielding each output
    /// pixel's coordinates and its resolved gathers.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), &[GatherEntry])> + '_ {
        self.pixels.iter().map(|p| {
            (
                (p.u as usize, p.v as usize),
                &self.entries[p.start as usize..p.end as usize],
            )
        })
    }
}

/// One tap's landing, seen from its input pixel: the pixel's partial
/// sums through tap `tap` add into output pixel `(u, v)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scatter {
    pub tap: u32,
    pub u: u32,
    pub v: u32,
}

/// The input-stationary scatter schedule: per input pixel, in raster
/// order, the taps whose partial sums land in the output (ascending in
/// tap) and the merged ranges of those taps.
///
/// Padding-free and RED share it. Tap `(i, j)` of input pixel `(x, y)`
/// lands in output pixel `(s·x + i − p, s·y + j − p)` when that pixel
/// exists: for padding-free that is Algorithm 2's overlap-add position
/// in the full tensor, shifted by the crop; for RED it is exactly the
/// gather of Fig. 5/6 in which mode tap `(i, j)` reads `(x, y)`
/// (`s·x = u + p − i`, `s·y = v + p − j`). Enumerating that directly
/// inverts RED's per-output-pixel plan without building it (or an
/// inversion table) at compile time; `plan_covers_every_output_pixel_once`
/// checks the two hold the same gathers.
#[derive(Debug, Clone, Default)]
pub(crate) struct InputSchedule {
    /// Per input pixel, the ends of its slices of `scatters` and `taps`.
    pub ends: Vec<(u32, u32)>,
    scatters: Vec<Scatter>,
    taps: Vec<Range<usize>>,
}

impl InputSchedule {
    /// Resolves where every tap of every input pixel of `layer` lands.
    pub fn new(layer: &LayerShape) -> Self {
        let spec = layer.spec();
        let (s, p, kh, kw) = (
            spec.stride(),
            spec.padding(),
            spec.kernel_h(),
            spec.kernel_w(),
        );
        let geom = layer.output_geometry();
        let out = |x: usize, i: usize, len: usize| (s * x + i).checked_sub(p).filter(|&u| u < len);
        let mut schedule = Self::default();
        for x in 0..layer.input_h() {
            for y in 0..layer.input_w() {
                let first = schedule.taps.len();
                for (i, u) in (0..kh).filter_map(|i| Some((i, out(x, i, geom.height)?))) {
                    for (j, v) in (0..kw).filter_map(|j| Some((j, out(y, j, geom.width)?))) {
                        let t = i * kw + j;
                        let (tap, u, v) = (t as u32, u as u32, v as u32);
                        schedule.scatters.push(Scatter { tap, u, v });
                        match schedule.taps[first..].last_mut() {
                            Some(r) if r.end == t => r.end += 1,
                            _ => schedule.taps.push(t..t + 1),
                        }
                    }
                }
                let ends = (schedule.scatters.len(), schedule.taps.len());
                schedule.ends.push((ends.0 as u32, ends.1 as u32));
            }
        }
        schedule
    }

    /// Each input pixel's landings and tap ranges, in raster order.
    pub fn pixels(&self) -> impl Iterator<Item = (&[Scatter], &[Range<usize>])> + '_ {
        let mut start = (0, 0);
        self.ends.iter().map(move |&(scatters, taps)| {
            let (scatters, taps) = (scatters as usize, taps as usize);
            let pixel = (&self.scatters[start.0..scatters], &self.taps[start.1..taps]);
            start = (scatters, taps);
            pixel
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_records_pixels_and_slices_entries() {
        let mut plan = ExecPlan::new();
        plan.begin_pixel(0, 0);
        plan.push_gather(3, 1, 2);
        plan.push_gather(5, 0, 0);
        plan.begin_pixel(0, 1); // no gathers: structural-zero pixel
        plan.begin_pixel(1, 0);
        plan.push_gather(0, 2, 2);
        assert_eq!(plan.pixel_count(), 3);
        assert_eq!(plan.entry_count(), 3);
        let collected: Vec<_> = plan.iter().collect();
        assert_eq!(collected[0].0, (0, 0));
        assert_eq!(collected[0].1.len(), 2);
        assert_eq!(
            collected[0].1[0],
            GatherEntry {
                slot: 3,
                x: 1,
                y: 2
            }
        );
        assert_eq!(collected[1].0, (0, 1));
        assert!(collected[1].1.is_empty());
        assert_eq!(collected[2].1.len(), 1);
    }

    #[test]
    #[should_panic(expected = "begin_pixel before push_gather")]
    fn gather_without_pixel_panics() {
        let mut plan = ExecPlan::new();
        plan.push_gather(0, 0, 0);
    }
}

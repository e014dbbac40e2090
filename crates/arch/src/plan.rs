//! Compile-time execution plans: the per-output-pixel gather schedules the
//! engines resolve once at `new()` time and replay allocation-free on
//! every run.
//!
//! The seed engines re-derived the same mode/tap/coordinate arithmetic for
//! every output pixel of every image — pure per-image overhead, since the
//! schedule depends only on the layer geometry the engine was compiled
//! for. An [`ExecPlan`] freezes that schedule: a flat list of resolved
//! [`GatherEntry`]s (which input pixel feeds which engine slot), sliced
//! per output pixel, in exactly the pixel order the seed dataflow visited.
//! Executing a plan is a linear walk — no modulo arithmetic, no bounds
//! checks beyond the slice, no heap allocation.

/// One resolved gather: input pixel `(x, y)` feeds engine slot `slot`.
///
/// The slot meaning is engine-defined: for the window engines
/// (`ZeroPaddingEngine`, `ConvEngine`) it is the receptive-field slot
/// `i·KW + j` whose `C` channels the pixel fills. (`RedEngine` keeps no
/// plan: it stores the same gathers per input pixel instead.)
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

//! A window crossbar evaluated one stride phase at a time (paper Fig. 4).
//!
//! The zero-padding design maps the kernel onto one `(KH·KW·C) × M`
//! crossbar and streams each output pixel's zero-inserted window through
//! it. Under stride `s`, though, an output pixel's window holds real
//! inputs only in the rows of one stride phase: the taps `(i, j)` whose
//! `i` and `j` fall in one residue class mod `s`. Every other row carries
//! an inserted zero, which pulses no conversion phase. That is the
//! redundancy of Fig. 4, and the same tap partition RED's pixel-wise
//! mapping (Eq. 1) and zero-skipping data flow build in hardware.
//!
//! [`PhasedCrossbar`] keeps the *modeled* array whole — one
//! [`CrossbarArray`] holding the weights, whose geometry, metering and
//! truncation bound are the design's — and partitions its rows into the
//! stride phases the *host* evaluates: per phase, its rows'
//! effective-current plane when the array is noisy, or its rows of the
//! array's weights when it is ideal. Every plane is frozen at programming, wire droop included, so a
//! phase plane that holds its window rows in ascending order, each with
//! its window row index for the droop model, sums any active-row set bit
//! for bit as the window's plane would, and driving a phase's rows equals
//! driving the whole window with zeros elsewhere.

use crate::plane::Plane;
use crate::{CrossbarArray, ExecPrecision, VmmScratch, XbarConfig, XbarError};

/// One modeled window crossbar and its rows' stride-phase stores (see the
/// module docs).
///
/// # Example
///
/// ```
/// use red_xbar::{ExecPrecision, PhasedCrossbar, VmmScratch, XbarConfig};
///
/// # fn main() -> Result<(), red_xbar::XbarError> {
/// // 4 rows of 2 weights; even rows are phase 0, odd rows phase 1.
/// let weights = vec![1, 2, 3, 4, 5, 6, 7, 8];
/// let phased = PhasedCrossbar::program(&XbarConfig::ideal(), 4, 2, weights, 2, |r| r % 2)?;
/// assert_eq!(phased.phase_rows(1), &[1, 3]);
/// // Phase 1's rows driven with [1, -1] equal the window driven with
/// // [0, 1, 0, -1].
/// let mut out = vec![0i64; 2];
/// let mut scratch = VmmScratch::new();
/// phased.vmm_phase(1, &[1, -1], 1, &mut scratch, &mut out, ExecPrecision::Full);
/// assert_eq!(out, phased.array().vmm_exact(&[0, 1, 0, -1]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PhasedCrossbar {
    /// The modeled window array. It holds its weights only: no plane is
    /// built for it unless an oracle asks ([`CrossbarArray::vmm_analog_reference`]).
    array: CrossbarArray,
    phases: Vec<Phase>,
    /// The window's truncation error per dropped residue, recorded at
    /// programming from the whole window's deviations.
    error_per_residue: f64,
}

/// One stride phase's rows and what evaluates them.
#[derive(Debug, Clone)]
struct Phase {
    /// The phase's window rows, ascending.
    rows: Vec<u32>,
    /// Non-ideal arrays: the phase rows' effective-current plane, with
    /// its own dead columns left out. Ideal arrays drive the rows'
    /// weights in place.
    plane: Option<Plane>,
}

impl PhasedCrossbar {
    /// Programs a `rows × weight_cols` row-major weight buffer as one
    /// window array whose rows fall into `phases` stride phases, row `r`
    /// into phase `phase_of(r)`.
    ///
    /// A non-ideal array's rows stream once, in programming order, each
    /// into its phase's plane builder, and the same replay sums the whole
    /// window's deviations, which check the analog read-out as
    /// [`CrossbarArray::program_flat`] does and give the window's
    /// truncation bound. No window plane is built.
    ///
    /// # Errors
    ///
    /// As [`CrossbarArray::program_flat`].
    ///
    /// # Panics
    ///
    /// Panics if `phase_of` names a phase at or past `phases`.
    pub fn program(
        cfg: &XbarConfig,
        rows: usize,
        weight_cols: usize,
        weights: Vec<i64>,
        phases: usize,
        phase_of: impl Fn(usize) -> usize,
    ) -> Result<Self, XbarError> {
        let array = CrossbarArray::program_weights(cfg, rows, weight_cols, weights)?;
        let mut parts = vec![Vec::new(); phases];
        (0..rows).for_each(|r| parts[phase_of(r)].push(r as u32));
        // An ideal array builds no plane, so each phase takes `None`.
        let (planes, error_per_residue) = array.part_planes(phases, &phase_of)?;
        let mut planes = planes.into_iter();
        let phases = parts
            .into_iter()
            .map(|rows| Phase {
                rows,
                plane: planes.next(),
            })
            .collect();
        Ok(Self {
            array,
            phases,
            error_per_residue,
        })
    }

    /// The modeled window array (for inspection and the test oracles).
    pub fn array(&self) -> &CrossbarArray {
        &self.array
    }

    /// Number of stride phases.
    pub fn phases(&self) -> usize {
        self.phases.len()
    }

    /// Phase `phase`'s window rows, ascending: the order its inputs list
    /// them in.
    ///
    /// # Panics
    ///
    /// Panics if `phase >= phases()`.
    pub fn phase_rows(&self, phase: usize) -> &[u32] {
        &self.phases[phase].rows
    }

    /// Drives phase `phase`'s rows with `n` inputs, flattened row-major
    /// into `inputs` (`n × phase_rows(phase).len()`), at precision tier
    /// `prec`, writing `n × weight_cols` results into `out`.
    ///
    /// Each result equals driving the whole window with the input in the
    /// phase's rows and zeros elsewhere through
    /// [`CrossbarArray::vmm_batch_cols`], bit for bit: the exact path over
    /// the phase's rows of weights on an ideal array, the analog kernel
    /// over its plane otherwise. A phase with no rows reads out zeros.
    ///
    /// # Panics
    ///
    /// Panics if `phase >= phases()`, `inputs.len() != n · rows` or
    /// `out.len() != n · weight_cols`.
    pub fn vmm_phase(
        &self,
        phase: usize,
        inputs: &[i64],
        n: usize,
        scratch: &mut VmmScratch,
        out: &mut [i64],
        prec: ExecPrecision,
    ) {
        let Phase { rows, plane } = &self.phases[phase];
        let cols = self.array.weight_cols();
        assert_eq!(inputs.len(), n * rows.len(), "inputs must be n x rows");
        assert_eq!(out.len(), n * cols, "out must be n x weight_cols");
        let all = std::iter::once(0..cols);
        match plane {
            _ if rows.is_empty() => out.fill(0),
            None => (self.array).exact_ranges(Some(rows), inputs, all, scratch, out, prec),
            Some(plane) => {
                (self.array).vmm_analog_ranges(plane, inputs, n, all, scratch, out, prec)
            }
        }
    }

    /// Worst-case elementwise output error of serving at `prec` instead
    /// of [`ExecPrecision::Full`]: the window array's
    /// [`CrossbarArray::truncation_error_bound`], bit for bit, from the
    /// per-residue factor recorded at programming, so no plane is read.
    pub fn truncation_error_bound(&self, prec: ExecPrecision) -> f64 {
        let residues = self.array.dropped_residues(prec.dropped_bits());
        if residues == 0.0 {
            return 0.0;
        }
        residues * self.error_per_residue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightScheme;

    /// The phase of window row `r` of a `k × k × c` window at stride `s`,
    /// rows ordered `(i·k + j)·c + ch`.
    fn phase_of(k: usize, c: usize, s: usize) -> impl Fn(usize) -> usize {
        move |r| {
            let t = r / c;
            (t / k % s) * s + t % k % s
        }
    }

    /// Weights within `±bound`, row-major.
    fn weights(rows: usize, cols: usize, bound: i64) -> Vec<i64> {
        (0..rows * cols)
            .map(|i| ((i * 37 + i / cols * 11) as i64 % (2 * bound + 1)) - bound)
            .collect()
    }

    /// Both schemes of every non-ideal preset, and the ideal array.
    fn configs() -> Vec<XbarConfig> {
        let presets = ["variation", "adc", "ir-drop", "full"];
        let noisy = presets.map(|p| XbarConfig::preset(p).unwrap());
        let offset = noisy.map(|cfg| XbarConfig {
            scheme: WeightScheme::OffsetBinary,
            ..cfg
        });
        noisy
            .into_iter()
            .chain(offset)
            .chain([XbarConfig::ideal()])
            .collect()
    }

    /// Every phase of k5/s2 (phases of 9, 6, 6 and 4 taps) and k4/s4 (one
    /// tap a phase) windows equals the window array driven with zeros
    /// outside the phase: the reference pipeline on noisy arrays, the
    /// exact product on ideal ones, at every tier, for a batch. The
    /// window's plane is never built: not by programming, a phase VMM or
    /// the truncation bound, which equals a freshly programmed window
    /// array's bit for bit.
    #[test]
    fn phases_match_the_window_and_build_no_window_plane() {
        for (k, c, s) in [(5, 3, 2), (4, 2, 4)] {
            let rows = k * k * c;
            for cfg in configs() {
                for bound in [1, 5, 127] {
                    let w = weights(rows, 3, bound);
                    let phased =
                        PhasedCrossbar::program(&cfg, rows, 3, w.clone(), s * s, phase_of(k, c, s))
                            .unwrap();
                    let fresh = CrossbarArray::program_flat(&cfg, rows, 3, w).unwrap();
                    let what = format!("k{k} s{s} {cfg:?} ±{bound}");
                    let mut scratch = VmmScratch::new();
                    for prec in ExecPrecision::ALL {
                        let got = phased.truncation_error_bound(prec);
                        let want = fresh.truncation_error_bound(prec);
                        assert_eq!(got.to_bits(), want.to_bits(), "{what} {prec}");
                        for p in 0..phased.phases() {
                            let prow = phased.phase_rows(p);
                            let n = 3;
                            let inputs: Vec<i64> = (0..n * prow.len())
                                .map(|i| ((i * 53 + p * 7) % 255) as i64 - 127)
                                .collect();
                            let mut out = vec![i64::MIN; n * 3];
                            phased.vmm_phase(p, &inputs, n, &mut scratch, &mut out, prec);
                            let dropped = prec.dropped_bits().min(6);
                            for (x, got) in inputs.chunks_exact(prow.len()).zip(out.chunks(3)) {
                                let mut window = vec![0i64; rows];
                                for (&r, &v) in prow.iter().zip(x) {
                                    window[r as usize] =
                                        v.signum() * ((v.abs() >> dropped) << dropped);
                                }
                                let want = match cfg == XbarConfig::ideal() {
                                    true => fresh.vmm_exact(&window),
                                    false => fresh.vmm_analog_reference(&window),
                                };
                                assert_eq!(got, want.as_slice(), "{what} phase {p} {prec}");
                            }
                        }
                    }
                    assert!(!phased.array().plane_built(), "{what}");
                }
            }
        }
    }

    /// Narrow weights leave a phase plane columns dead that the whole
    /// window keeps live, and a phase of at most 8 rows carries a table.
    #[test]
    fn phase_planes_find_their_own_dead_columns() {
        let cfg = XbarConfig::preset("full").unwrap();
        let (k, c, s) = (16, 2, 8);
        let rows = k * k * c;
        let phased =
            PhasedCrossbar::program(&cfg, rows, 2, weights(rows, 2, 5), s * s, phase_of(k, c, s))
                .unwrap();
        let window = CrossbarArray::program_flat(&cfg, rows, 2, weights(rows, 2, 5)).unwrap();
        let planes: Vec<&Plane> = phased
            .phases
            .iter()
            .map(|p| p.plane.as_ref().expect("a noisy phase holds a plane"))
            .collect();
        assert!(planes.iter().all(|p| !p.table.is_empty()));
        assert!(phased.phases.iter().all(|p| p.rows.len() == 8));
        let live = planes.iter().map(|p| p.live()).min().unwrap();
        let window_live = window.plane().live();
        assert!(live < window_live, "{live} vs {window_live}");
    }
}

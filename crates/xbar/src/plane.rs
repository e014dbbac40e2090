//! The effective-current plane and its one builder, which reads an array's
//! conductance rows one at a time ([`CrossbarArray::for_each_row`]), and
//! the set tables of planes with few rows.

use crate::array::TILE_COLS;
use crate::config::round_half_away;
use crate::{AdcModel, CrossbarArray, WeightScheme, XbarError};
use std::borrow::Cow;
use std::ops::Range;

/// The flag of a live column's [`Plane::roles`] entry that marks a
/// differential pair's negative column; the low bits hold the slice's
/// shift.
const NEGATED: u8 = 0x80;

/// The most rows a plane tabulates ([`Plane::table`]): at 8 rows a plane
/// has 255 active-row sets, so converting each once at programming costs
/// at most 255 row sums per column, and its table holds 255 values per
/// weight.
pub(crate) const TABLE_ROWS: usize = 8;

/// An effective-current plane, with its dead columns left out.
///
/// A physical column is *dead* when no active-row set can convert it to
/// anything but code 0 (see [`CrossbarArray::code_ranges`]): its cells
/// all read within less than half an LSB, in total, of the dummy-column
/// baseline, as the upper slices of narrow weights do. A dead column
/// adds 0 to every shift-add, so the plane keeps only the *live*
/// columns, and the kernel sums, converts and recombines those alone. An
/// array with no dead column keeps every column, in place.
#[derive(Debug, Clone, Default)]
pub(crate) struct Plane {
    /// Effective read current per cell of the live columns, row-major
    /// `rows × live()`.
    pub(crate) currents: Vec<f64>,
    /// `weights + 1` ascending offsets: weight `m`'s live columns are
    /// `starts[m]..starts[m + 1]` of every row.
    pub(crate) starts: Vec<u32>,
    /// Per live column, its shift-add role: the slice's shift
    /// `s · bits_per_cell`, plus [`NEGATED`] for a differential pair's
    /// negative column.
    pub(crate) roles: Vec<u8>,
    /// Worst-case |recombined value| of one conversion phase
    /// ([`CrossbarArray::phase_value_bound`]).
    pub(crate) phase_bound: f64,
    /// Planes of at most [`TABLE_ROWS`] rows: every active-row set's
    /// recombined phase value, `(2^rows − 1) × weights`, the set whose
    /// rows are the set bits of `mask` at row `mask − 1`. Empty for a
    /// plane of more rows. See [`CrossbarArray::tabulate`].
    pub(crate) table: Vec<i64>,
}

impl Plane {
    /// Live columns per row: the row stride of `currents`.
    pub(crate) fn live(&self) -> usize {
        self.roles.len()
    }

    /// The end of the column tile that starts at weight `w0` of a range
    /// ending at weight `end`: as many whole weights as fit in
    /// [`TILE_COLS`] live columns, at least one.
    pub(crate) fn tile_end(&self, w0: usize, end: usize) -> usize {
        let c0 = self.starts[w0];
        let fit = self.starts[w0 + 1..=end].partition_point(|&s| (s - c0) as usize <= TILE_COLS);
        w0 + fit.max(1)
    }

    /// Live columns of the weights in `r`.
    pub(crate) fn live_in(&self, r: &Range<usize>) -> usize {
        match r.is_empty() {
            true => 0,
            false => (self.starts[r.end] - self.starts[r.start]) as usize,
        }
    }

    /// The planes `blocks`, each of `rows` rows, laid side by side as one
    /// plane: each row holds every block's row in turn, and block `b`'s
    /// weights, with their live columns, roles and set-table entries,
    /// follow block `b − 1`'s. Each block is dropped once it is copied.
    pub(crate) fn side_by_side(blocks: Vec<Plane>, rows: usize) -> Plane {
        let live: usize = blocks.iter().map(Plane::live).sum();
        let weights: usize = blocks.iter().map(|b| b.starts.len() - 1).sum();
        let sets = blocks
            .first()
            .map_or(0, |b| b.table.len() / (b.starts.len() - 1));
        let mut plane = Plane {
            currents: vec![0.0; rows * live],
            starts: Vec::with_capacity(weights + 1),
            roles: Vec::with_capacity(live),
            phase_bound: blocks.iter().map(|b| b.phase_bound).fold(0.0, f64::max),
            table: vec![0; sets * weights],
        };
        plane.starts.push(0);
        for block in blocks {
            // The block's first live column and first weight.
            let (col, weight) = (plane.live(), plane.starts.len() - 1);
            let (width, count) = (block.live(), block.starts.len() - 1);
            for r in 0..rows {
                let row = &block.currents[r * width..][..width];
                plane.currents[r * live + col..][..width].copy_from_slice(row);
            }
            for set in 0..sets {
                let values = &block.table[set * count..][..count];
                plane.table[set * weights + weight..][..count].copy_from_slice(values);
            }
            let starts = block.starts[1..].iter().map(|&s| s + col as u32);
            plane.starts.extend(starts);
            plane.roles.extend_from_slice(&block.roles);
        }
        plane
    }
}

/// One plane's rows as a replay streams them in: every cell's effective
/// current over all physical columns, row-major, and each column's
/// summed deviations above (`pos`) and below (`neg`) the dummy-column
/// baseline, in the order the rows came.
#[derive(Debug, Clone)]
struct PlaneBuilder {
    currents: Vec<f64>,
    pos: Vec<f64>,
    neg: Vec<f64>,
}

impl PlaneBuilder {
    /// An empty builder for `rows` rows of `phys_cols` columns.
    fn new(rows: usize, phys_cols: usize) -> Self {
        Self {
            currents: Vec::with_capacity(rows * phys_cols),
            pos: vec![0.0; phys_cols],
            neg: vec![0.0; phys_cols],
        }
    }
}

/// Adds one row of effective currents' deviations from the baseline
/// `baseline_per_row` to each column's sums. Branch-free, so it
/// vectorizes: adding 0.0 leaves a sum of non-negative terms as it is,
/// and `n + (−d)` is `n − d`.
fn add_deviations(pos: &mut [f64], neg: &mut [f64], row: &[f64], baseline_per_row: f64) {
    for ((p, n), &i_eff) in pos.iter_mut().zip(neg).zip(row) {
        let d = i_eff - baseline_per_row;
        let (up, down) = if d >= 0.0 { (d, 0.0) } else { (0.0, -d) };
        *p += up;
        *n += down;
    }
}

impl CrossbarArray {
    /// Builds the effective-current plane: wire droop depends only on the
    /// cell's position and conductance, both frozen at programming, so it
    /// is folded in once instead of once per cell per conversion phase.
    /// The conductance rows stream in, so no matrix is allocated.
    ///
    /// The same pass sums each physical column's deviations from the
    /// dummy-column baseline, the cells above it and those below, in
    /// ascending row order: the interval every active-row set's summed
    /// deviation lies in. From it come the truncation bound
    /// ([`CrossbarArray::phase_value_bound`]), each column's code range
    /// ([`CrossbarArray::code_ranges`]) and the read-out check
    /// ([`CrossbarArray::readout_fits`]). `None` when the read-out could
    /// leave `i64`.
    pub(crate) fn build_plane(&self) -> Option<Plane> {
        let (currents, pos, neg) = self.currents_and_deviations();
        if !self.readout_fits(&pos, &neg, || Cow::Borrowed(&currents)) {
            return None;
        }
        Some(self.finish_plane(PlaneBuilder { currents, pos, neg }))
    }

    /// One plane per part of a partition of the rows, from one replay,
    /// and the whole array's truncation error per dropped residue
    /// ([`CrossbarArray::error_per_residue`]). Row `r` streams, with its
    /// own index for the droop model, into the builder of part
    /// `part_of(r)`, so each part's plane holds its rows in ascending
    /// order, bit for bit as the whole array's plane holds them, and
    /// finds its own dead columns. The whole array's deviations, summed in
    /// the same pass, give the read-out check and the per-residue bound
    /// (`2 · phase_value_bound`), equal to what the whole array's plane
    /// would record. An ideal array builds no plane: its parts drive its
    /// weights in place, and its bound is the weights'.
    ///
    /// # Errors
    ///
    /// [`XbarError::OutputOverflow`] when the analog read-out could leave
    /// `i64`, as [`CrossbarArray::program_flat`] returns it.
    ///
    /// # Panics
    ///
    /// Panics if `part_of` names a part at or past `parts`.
    pub(crate) fn part_planes(
        &self,
        parts: usize,
        part_of: impl Fn(usize) -> usize,
    ) -> Result<(Vec<Plane>, f64), XbarError> {
        if self.is_ideal() {
            return Ok((Vec::new(), self.error_per_residue()));
        }
        let pc = self.phys_cols;
        let mut counts = vec![0usize; parts];
        (0..self.rows).for_each(|r| counts[part_of(r)] += 1);
        let mut builders: Vec<PlaneBuilder> = counts
            .iter()
            .map(|&rows| PlaneBuilder::new(rows, pc))
            .collect();
        let (mut pos, mut neg) = (vec![0.0f64; pc], vec![0.0f64; pc]);
        let baseline_per_row = self.cfg.cell.read_voltage * self.g_min;
        self.for_each_row(|r, row| {
            let currents = self.push_row(&mut builders[part_of(r)], r, row);
            add_deviations(&mut pos, &mut neg, currents, baseline_per_row);
        });
        // The row bound reads every row in order, so it takes a replay of
        // its own, only when the code-range bound leaves i64.
        let whole = || Cow::Owned(self.currents_and_deviations().0);
        if !self.readout_fits(&pos, &neg, whole) {
            return Err(self.overflow());
        }
        let per_residue = 2.0 * self.phase_value_bound(&pos, &neg);
        let planes = builders.into_iter().map(|b| self.finish_plane(b));
        Ok((planes.collect(), per_residue))
    }

    /// Appends conductance row `row`, the array's row `r`, to `builder`
    /// as effective currents and adds their deviations to its sums;
    /// returns the appended currents.
    fn push_row<'a>(&self, builder: &'a mut PlaneBuilder, r: usize, row: &[f64]) -> &'a [f64] {
        let ir = &self.cfg.ir_drop;
        let v_read = self.cfg.cell.read_voltage;
        let at = builder.currents.len();
        let cells = row.iter().enumerate();
        let currents = cells.map(|(c, &g)| ir.cell_current_a(v_read, g, r, c, self.rows));
        builder.currents.extend(currents);
        let (pos, neg) = (&mut builder.pos, &mut builder.neg);
        add_deviations(pos, neg, &builder.currents[at..], v_read * self.g_min);
        &builder.currents[at..]
    }

    /// Every cell's effective current, row-major over all physical
    /// columns, and each column's summed deviations above (`pos`) and
    /// below (`neg`) the dummy-column baseline, in ascending row order, in
    /// one pass over the conductance rows: a build's one full-width buffer.
    pub(crate) fn currents_and_deviations(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut builder = PlaneBuilder::new(self.rows, self.phys_cols);
        self.for_each_row(|r, row| {
            self.push_row(&mut builder, r, row);
        });
        (builder.currents, builder.pos, builder.neg)
    }

    /// `true` when the analog read-out provably stays in `i64`: the
    /// code-range bound ([`CrossbarArray::readout_bound`]) from the
    /// array's summed deviations `pos` and `neg` or, when that leaves
    /// `i64`, a tighter one, row by row
    /// ([`CrossbarArray::row_readout_bound`]), over the full-width
    /// `currents`, which are asked for only then.
    fn readout_fits<'a>(
        &self,
        pos: &[f64],
        neg: &[f64],
        currents: impl FnOnce() -> Cow<'a, [f64]>,
    ) -> bool {
        // Every partial sum of the read-out stays within a few times the
        // code-range bound, so the row bound may stand in for it only
        // while that bound has room in i128.
        let fits = |bound: Option<i128>| bound.is_some_and(|b| b <= i128::from(i64::MAX));
        match self.readout_bound(&self.code_ranges(pos, neg)) {
            bound if fits(bound) => true,
            Some(b) if b <= i128::MAX >> 8 => fits(self.row_readout_bound(&currents(), pos, neg)),
            _ => false,
        }
    }

    /// Finishes a plane from its builder: each column's code range from
    /// the builder's deviations, the dead columns' cells closed up in
    /// place, the per-phase bound and, for a plane of at most
    /// [`TABLE_ROWS`] rows, its set table.
    fn finish_plane(&self, builder: PlaneBuilder) -> Plane {
        let PlaneBuilder {
            mut currents,
            pos,
            neg,
        } = builder;
        let pc = self.phys_cols;
        let rows = currents.len() / pc;
        let codes = self.code_ranges(&pos, &neg);
        // Each end lies within its column's code range, which the
        // code-range bound keeps far from overflowing the shift-add.
        let phase_bound = self.phase_value_bound(&pos, &neg);
        let per_weight = self.cfg.phys_cols_per_weight();
        let mut keep = Vec::with_capacity(pc);
        let mut starts = Vec::with_capacity(self.weight_cols + 1);
        starts.push(0);
        for (m, cols) in codes.chunks_exact(per_weight).enumerate() {
            for (j, &range) in cols.iter().enumerate() {
                if range != (0, 0) {
                    keep.push((m * per_weight + j) as u32);
                }
            }
            starts.push(keep.len() as u32);
        }
        let roles = keep
            .iter()
            .map(|&c| self.role(c as usize % per_weight))
            .collect();
        let live = keep.len();
        if live < pc {
            // Each live cell moves to an index at or below its own, in
            // ascending order, so nothing is overwritten before it moves.
            for r in 0..rows {
                for (j, &c) in keep.iter().enumerate() {
                    currents[r * live + j] = currents[r * pc + c as usize];
                }
            }
            currents.truncate(rows * live);
            currents.shrink_to_fit();
        }
        let mut plane = Plane {
            currents,
            starts,
            roles,
            phase_bound,
            table: Vec::new(),
        };
        self.tabulate(&mut plane, rows);
        plane
    }

    /// Fills the set table ([`Plane::table`]) of a plane of `rows ≤`
    /// [`TABLE_ROWS`] rows; a plane of more rows keeps none. Each
    /// active-row set converts once, as the kernel would convert it: per
    /// live column its rows' currents summed in ascending order from
    /// `0.0`, the baseline cancelled by the same subtraction and division
    /// by the LSB, and the code quantized; then each weight's codes are
    /// shift-added, less offset binary's reference for the set's rows.
    /// The set `mask`'s sums are set `mask` less its highest row's sums
    /// plus that row, which is the ascending chain itself, so each costs
    /// one addition per column. `self` supplies the read-out (converter,
    /// LSB, baseline, scheme), which every array programmed with one
    /// configuration shares.
    ///
    /// Every value fits `i64`: it is the output a magnitude of 1 on the
    /// set's rows reads out, which a plane build's read-out check (the
    /// array's own, or for a partitioned plane the whole array's that it
    /// was cut from) keeps in `i64`. Partial sums are added modulo 2^64,
    /// which leaves the exact result where that fits.
    fn tabulate(&self, plane: &mut Plane, rows: usize) {
        if rows > TABLE_ROWS {
            return;
        }
        let (live, weights) = (plane.live(), plane.starts.len() - 1);
        let sets = (1usize << rows) - 1;
        let v_read = self.cfg.cell.read_voltage;
        let lsb = v_read * self.g_step;
        let offset = self.row_offset() as i64;
        let mut table = vec![0i64; sets * weights];
        for (mask, values) in (1..=sets).zip(table.chunks_exact_mut(weights)) {
            let reference = offset.wrapping_mul(mask.count_ones() as i64);
            values.fill(reference.wrapping_neg());
        }
        let mut sums = vec![0.0f64; sets + 1];
        for m in 0..weights {
            for c in plane.starts[m] as usize..plane.starts[m + 1] as usize {
                let role = plane.roles[c];
                for mask in 1..=sets {
                    let top = (usize::BITS - 1 - mask.leading_zeros()) as usize;
                    sums[mask] = sums[mask & !(1 << top)] + plane.currents[top * live + c];
                    let baseline = mask.count_ones() as f64 * v_read * self.g_min;
                    let code = self.cfg.adc.quantize((sums[mask] - baseline) / lsb);
                    let term = code.wrapping_shl(u32::from(role & !NEGATED));
                    let value = &mut table[(mask - 1) * weights + m];
                    *value = match role & NEGATED == 0 {
                        true => value.wrapping_add(term),
                        false => value.wrapping_sub(term),
                    };
                }
            }
        }
        plane.table = table;
    }

    /// The shift-add role ([`Plane::roles`]) of a weight's physical
    /// column `j`: a differential pair's slice `j / 2`, its negative
    /// column when `j` is odd; offset binary's slice `j`.
    fn role(&self, j: usize) -> u8 {
        let (slice, negated) = match self.cfg.scheme {
            WeightScheme::Differential => (j / 2, j % 2 == 1),
            WeightScheme::OffsetBinary => (j, false),
        };
        let shift = (slice as u32 * self.cfg.cell.bits_per_cell) as u8;
        if negated {
            shift | NEGATED
        } else {
            shift
        }
    }

    /// Worst-case |recombined value| of any single conversion phase over
    /// any active-row set, from each physical column's summed positive
    /// (`pos`) and negative (`neg`) deviations from the baseline: any
    /// subset's summed deviation lies between `−neg` and `pos`, and the
    /// ADC's monotonicity carries the interval through quantization, the
    /// shift-add slices, and (for offset binary) the `[0, 2^(wb−1)·rows]`
    /// reference-sum range.
    pub(crate) fn phase_value_bound(&self, pos: &[f64], neg: &[f64]) -> f64 {
        let lsb = self.cfg.cell.read_voltage * self.g_step;
        // Per physical column, the extreme counts any subset reaches. A
        // differential pair's negative column enters its weight negated,
        // so its extremes swap.
        let differential = self.cfg.scheme == WeightScheme::Differential;
        let mut upper = vec![0i128; self.phys_cols];
        let mut lower = vec![0i128; self.phys_cols];
        for c in 0..self.phys_cols {
            let hi = i128::from(self.cfg.adc.quantize(pos[c] / lsb));
            let lo = i128::from(self.cfg.adc.quantize(-neg[c] / lsb));
            (upper[c], lower[c]) = if differential && c % 2 == 1 {
                (lo, hi)
            } else {
                (hi, lo)
            };
        }
        let ref_max = self.reference_max();
        let per_weight = self.cfg.phys_cols_per_weight();
        let roles: Vec<u8> = (0..per_weight).map(|j| self.role(j)).collect();
        upper
            .chunks_exact(per_weight)
            .zip(lower.chunks_exact(per_weight))
            .map(|(u, l)| {
                let hi = shift_add(u, &roles, i128::from).unsigned_abs();
                hi.max((shift_add(l, &roles, i128::from) - ref_max).unsigned_abs())
            })
            .max()
            .unwrap_or(0) as f64
    }

    /// The reference offset binary subtracts per active row of a phase:
    /// the `2^(wb−1)` every stored weight is offset by, summed digitally
    /// from the phase's pulse count (the hardware's dummy reference
    /// column); 0 for differential pairs.
    pub(crate) fn row_offset(&self) -> i128 {
        match self.cfg.scheme {
            WeightScheme::Differential => 0,
            WeightScheme::OffsetBinary => i128::from(1i64 << (self.cfg.weight_bits - 1)),
        }
    }

    /// The largest reference sum offset binary subtracts from one phase,
    /// all rows active.
    fn reference_max(&self) -> i128 {
        self.row_offset() * self.rows as i128
    }

    /// Per physical column, the lowest and highest code any active-row
    /// set converts it to, rigorously: `phase_value_bound`'s interval
    /// `[−neg, pos]` widened by a margin that covers every `f64`
    /// rounding between the cells' currents and the converter's input.
    /// A column whose range is `(0, 0)` is dead.
    ///
    /// The margin: a set of `k ≤ R` rows (`R` the array's rows) sums its
    /// currents in a chain of `k − 1` additions and subtracts a baseline
    /// `fl(fl(k·v)·g_min)`; `pos` and `neg` are chains of `R` additions
    /// of rounded deviations. With `u = 2^−53`, `ρ = (R + 2)·u ≤ 2^−10`
    /// (any array that fits in memory) and `b = |fl(v·g_min)|`, the
    /// standard bounds on those chains put the real difference
    /// `current − baseline` within `3ρ·(pos + neg + (R + 4)·b)` of the
    /// interval. Twice that more covers the rounding of the margin's own
    /// evaluation, and `(R + 4)·f64::MIN_POSITIVE` the absolute error of
    /// subnormal results. Every later step (the subtraction, the division
    /// by `lsb`, the converter) is monotone, so the widened ends,
    /// converted the same way, bound every code. A NaN end widens to the
    /// converter's whole range.
    pub(crate) fn code_ranges(&self, pos: &[f64], neg: &[f64]) -> Vec<(i64, i64)> {
        let lsb = self.cfg.cell.read_voltage * self.g_step;
        let code = |raw: f64, nan: f64| self.cfg.adc.quantize(if raw.is_nan() { nan } else { raw });
        pos.iter()
            .zip(neg)
            .map(|(&p, &n)| {
                let margin = self.rounding_margin(p, n);
                let lo = code(-(n + margin) / lsb, f64::NEG_INFINITY);
                let hi = code((p + margin) / lsb, f64::INFINITY);
                (lo, hi)
            })
            .collect()
    }

    /// [`CrossbarArray::code_ranges`]' margin for a column whose summed
    /// deviations are `pos` above the baseline and `neg` below it.
    fn rounding_margin(&self, pos: f64, neg: f64) -> f64 {
        let reach = (self.rows + 4) as f64;
        let rho = (self.rows + 2) as f64 * (f64::EPSILON / 2.0);
        let b = (self.cfg.cell.read_voltage * self.g_min).abs();
        8.0 * rho * (pos + neg + reach * b) + reach * f64::MIN_POSITIVE
    }

    /// The largest |output| the analog read-out can produce for any input
    /// (`None` past `i128`), from the columns' code ranges.
    ///
    /// Proof: per weight, a phase's recombined value — the shift-add of
    /// its codes, less offset binary's reference sum in `[0, ref_max]` —
    /// lies in `[lo, hi]`, the shift-adds of the columns' lowest and
    /// highest codes (extremes swapped for a negative column) less
    /// `ref_max` and less 0. Every range holds 0, so `lo ≤ 0 ≤ hi`. Bit
    /// `b`'s two polarity phases add `2^b·(v⁺ − v⁻)`, at most `2^b·(hi −
    /// lo)` in magnitude, so no output exceeds `(2^mag − 1)·(hi − lo)`,
    /// `mag` the streamed magnitude bits. Bounding each column alone, it
    /// cannot see that offset binary's reference sum cancels each active
    /// row's offset, and there reads up to 3× the true read-out.
    pub(crate) fn readout_bound(&self, codes: &[(i64, i64)]) -> Option<i128> {
        let ref_max = self.reference_max();
        let mut widest = 0i128;
        for cols in codes.chunks_exact(self.cfg.phys_cols_per_weight()) {
            let (mut hi, mut lo) = (0i128, -ref_max);
            for (j, &(low, high)) in cols.iter().enumerate() {
                let role = self.role(j);
                // A code is an i64 and a shift at most 62: no overflow.
                let unit = 1i128 << (role & !NEGATED);
                let (low, high) = (i128::from(low) * unit, i128::from(high) * unit);
                let (low, high) = match role & NEGATED == 0 {
                    true => (low, high),
                    false => (-high, -low),
                };
                hi = hi.checked_add(high)?;
                lo = lo.checked_add(low)?;
            }
            widest = widest.max(hi.checked_sub(lo)?);
        }
        widest.checked_mul((1i128 << self.input_mag_bits()) - 1)
    }

    /// The read-out bound taken row by row (`None` when it cannot bound
    /// the read-out), from the plane's full-width `currents` and each
    /// column's summed deviations `pos` and `neg`. It reads every cell
    /// again, so [`CrossbarArray::build_plane`] asks for it only when the
    /// code-range bound ([`CrossbarArray::readout_bound`]) leaves `i64`.
    ///
    /// Proof: write each cell's deviation from the baseline, in LSBs, as
    /// its nearest integer count `n` plus a residual. A set's converter
    /// input for a column is then `C + E + ε`: `C` the sum of its rows'
    /// counts, an integer; `E` the sum of their residuals, between the
    /// column's summed negative and positive residuals; `|ε|` within
    /// three times the column's [`CrossbarArray::rounding_margin`] in
    /// LSBs (the addition chains behind that margin, the subtraction and
    /// the division, each residual's own rounding). Since `⌈x − ½⌉ ≤
    /// round(x) ≤ ⌊x + ½⌋`, the code is `C + t` with `t` an integer in
    /// `[−⌊F⁻ + ½⌋, ⌊F⁺ + ½⌋]`, `F±` the residual sums, grown by `2ρ`
    /// for their own rounding (`ρ` as in `code_ranges`), plus that
    /// slack; a saturating converter's clamp to `[0, max]` widens the
    /// ends to at least the column's summed negative counts and its
    /// summed positive counts less `max`. A weight's phase value is then
    /// the sum over the set of `ω_r`, row `r`'s shift-add of its counts
    /// less the offset (the weight as that row reads it), plus the
    /// shift-add of the `t`s: between the sum of the negative `ω_r` and
    /// that of the positive ones, each widened by the shift-add of the
    /// `t`s' ends. That interval holds 0, and the output follows as in
    /// `readout_bound`. On an ideal array every `ω_r` is the programmed
    /// weight and, short of millions of rows, every `t` is 0: the bound
    /// is `(2^mag − 1)·Σ_r |w_r|`, all the exact product can reach.
    pub(crate) fn row_readout_bound(
        &self,
        currents: &[f64],
        pos: &[f64],
        neg: &[f64],
    ) -> Option<i128> {
        const INTEGRAL: f64 = (1u64 << 52) as f64;
        let (pc, per_weight) = (self.phys_cols, self.cfg.phys_cols_per_weight());
        let v_read = self.cfg.cell.read_voltage;
        let (baseline, lsb) = (v_read * self.g_min, v_read * self.g_step);
        let offset = self.row_offset();
        let roles: Vec<u8> = (0..per_weight).map(|j| self.role(j)).collect();
        // Per column, its counts summed above and below 0 and its
        // residuals likewise; per weight, its rows' `ω_r` likewise.
        let mut counts = vec![(0i128, 0i128); pc];
        let mut residuals = vec![(0.0f64, 0.0f64); pc];
        let mut reads = vec![(0i128, 0i128); self.weight_cols];
        let mut row = vec![0i128; per_weight];
        for cells in currents.chunks_exact(pc) {
            for (m, (up, down)) in reads.iter_mut().enumerate() {
                for (j, n) in row.iter_mut().enumerate() {
                    let c = m * per_weight + j;
                    let z = (cells[c] - baseline) / lsb;
                    if z.is_nan() || z.abs() >= INTEGRAL {
                        return None;
                    }
                    let count = i128::from(round_half_away(z));
                    // Exact: `count` is 0 or within a factor 2 of `z`.
                    let e = z - count as f64;
                    *n = count;
                    counts[c].0 += count.max(0);
                    counts[c].1 -= count.min(0);
                    residuals[c].0 += e.max(0.0);
                    residuals[c].1 -= e.min(0.0);
                }
                // Counts below 2^52 and shifts below 63 keep this in i128.
                let read = shift_add(&row, &roles, |n| n) - offset;
                *up = up.checked_add(read.max(0))?;
                *down = down.checked_sub(read.min(0))?;
            }
        }
        let rho = (self.rows + 2) as f64 * (f64::EPSILON / 2.0);
        // `⌊F + ½⌋` for `F` ≥ 0 widened by the slack; `None` past 2^52.
        let steps = |residual: f64, slack: f64| {
            let f = residual * (1.0 + 2.0 * rho) + slack + 0.5;
            (f < INTEGRAL).then(|| i128::from(f as i64))
        };
        let mut widest = 0i128;
        for (m, &(up, down)) in reads.iter().enumerate() {
            let (mut hi, mut lo) = (up, -down);
            for (j, &role) in roles.iter().enumerate() {
                let c = m * per_weight + j;
                let slack = 3.0 * self.rounding_margin(pos[c], neg[c]) / lsb;
                let (t_up, t_down) = (steps(residuals[c].0, slack)?, steps(residuals[c].1, slack)?);
                let (t_up, t_down) = match self.cfg.adc {
                    AdcModel::Ideal => (t_up, t_down),
                    AdcModel::Saturating { bits } => {
                        let max = (1i128 << bits) - 1;
                        (t_up.max(counts[c].1), t_down.max(counts[c].0 - max))
                    }
                };
                let (t_up, t_down) = match role & NEGATED == 0 {
                    true => (t_up, t_down),
                    false => (t_down, t_up),
                };
                let unit = 1i128 << (role & !NEGATED);
                hi = hi.checked_add(t_up.checked_mul(unit)?)?;
                lo = lo.checked_sub(t_down.checked_mul(unit)?)?;
            }
            widest = widest.max(hi.checked_sub(lo)?);
        }
        widest.checked_mul((1i128 << self.input_mag_bits()) - 1)
    }
}

/// Shift-add recombination of one weight's column values (counts or sums
/// of counts), each read as an integer by `int`: a column enters at its
/// slice's shift, negated for a differential pair's negative column, as
/// its role says ([`Plane::roles`]).
pub(crate) fn shift_add<T: Copy>(cols: &[T], roles: &[u8], int: impl Fn(T) -> i128) -> i128 {
    cols.iter()
        .zip(roles)
        .map(|(&v, &role)| {
            let term = int(v) << (role & !NEGATED);
            if role & NEGATED == 0 {
                term
            } else {
                -term
            }
        })
        .sum()
}

use crate::config::{round_half_away, round_to_code};
use crate::plane::{shift_add, Plane};
use crate::{AdcModel, ExecPrecision, WeightScheme, XbarConfig, XbarError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use red_device::variation::StuckPolarity;
use red_device::DriftModel;
use std::borrow::Cow;
use std::ops::Range;

/// Physical columns per tile of the analog kernel, rounded down to whole
/// weights: one tile's `f64` currents take 4 KiB, so together with the
/// plane row slices a set reads they stay in L1 while the tile is summed.
pub(crate) const TILE_COLS: usize = 512;

/// One active-row set of an analog kernel call: the rows one input's
/// conversion phase pulses.
#[derive(Debug, Clone, Copy)]
struct RowSet {
    /// The set's rows, `rows[start..][..len]` of the buffer that lists
    /// them, ascending.
    start: u32,
    len: u32,
    /// The input that pulses it, at the phase's scale `±2^bit`.
    input: u32,
    scale: i64,
}

/// The active-row sets of one kernel run.
#[derive(Debug, Clone, Default)]
struct RowSets {
    sets: Vec<RowSet>,
    /// The sets' rows, packed.
    rows: Vec<u32>,
    /// Per input, `Σ ±len · 2^bit` over its live phases: how many offset
    /// units offset binary's reference column subtracts.
    pulses: Vec<i128>,
}

impl RowSets {
    fn clear(&mut self) {
        self.sets.clear();
        self.rows.clear();
        self.pulses.clear();
    }

    /// Appends one input's live phase buckets (`stride` slots apart in
    /// `phase_rows`) as sets, their rows copied to the end of `rows`, and
    /// the input's pulse count.
    fn push_phases(&mut self, phase_rows: &[u32], phase_len: &[u32], stride: usize) {
        let input = self.pulses.len() as u32;
        let mut pulses = 0;
        for (p, &len) in phase_len.iter().enumerate().filter(|(_, &len)| len > 0) {
            let scale = phase_scale(p);
            pulses += i128::from(len) * i128::from(scale);
            let start = self.rows.len() as u32;
            self.rows
                .extend_from_slice(&phase_rows[p * stride..][..len as usize]);
            self.sets.push(RowSet {
                start,
                len,
                input,
                scale,
            });
        }
        self.pulses.push(pulses);
    }
}

/// One column tile's working sums.
#[derive(Debug, Clone, Default)]
struct TileSums {
    /// Per-physical-column current accumulator for one set (on the `i128`
    /// path, then its baseline-cancelled, LSB-normalized value).
    currents: Vec<f64>,
    /// Per input, the tile's per-physical-column sums of `code · scale`
    /// over its sets, in `f64`, for converters whose sums stay exact
    /// integers there ([`CrossbarArray::f64_full_scale`]).
    col_sum: Vec<f64>,
    /// The same in `i128` for every other converter.
    col_acc: Vec<i128>,
}

/// The scale `±2^bit` of phase bucket `p = 2·bit + (input < 0)`: analog
/// sums cannot carry input signs, so positive-sign and negative-sign rows
/// pulse in separate phases and subtract digitally (standard practice).
fn phase_scale(p: usize) -> i64 {
    let polarity: i64 = if p.is_multiple_of(2) { 1 } else { -1 };
    polarity << (p / 2)
}

/// Reusable working memory for the VMM kernels.
///
/// The analog kernel needs a handful of working buffers: one input's
/// per-phase active-row buckets, the call's active-row sets, one tile's
/// column currents, and every input's per-column sums of converted codes
/// (a tabulated plane needs none of them). The exact path needs one: the
/// inputs truncated to a degraded tier. A scratch owns them so
/// steady-state execution — thousands of VMMs through the same array —
/// performs no per-call heap allocation: the buffers are grown on first
/// use and reused afterwards. One scratch serves arrays and planes of any
/// geometry (buffers are resized per call), so an engine can share a
/// single scratch across all its sub-crossbars and stride phases.
#[derive(Debug, Clone, Default)]
pub struct VmmScratch {
    /// One input's active-row indices per phase bucket, `rows` apart:
    /// bucket `p` owns `phase_rows[p·rows..][..phase_len[p]]`, ascending
    /// (the f64 summation order contract). Every input of a batch reuses
    /// it. Grown, never cleared: only the first `phase_len[p]` slots of a
    /// bucket are ever read.
    phase_rows: Vec<u32>,
    /// Active-row count of phase bucket `2·bit + (input < 0)`.
    phase_len: Vec<u32>,
    sets: RowSets,
    tile: TileSums,
    /// Truncated-input staging for the exact path at reduced precision
    /// (the analog path truncates implicitly by masking phase bits).
    trunc: Vec<i64>,
}

impl VmmScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One programmed ReRAM crossbar array.
///
/// Rows correspond to input channels (wordlines), logical columns to
/// filters; each logical column expands into several physical columns of
/// multi-level cells according to the configured [`WeightScheme`].
///
/// Two evaluation paths are provided:
///
/// * [`CrossbarArray::vmm_exact`] — the digital integer reference
///   (`out = Wᵀ x`);
/// * [`CrossbarArray::vmm_analog_into`] — the full Fig. 1(a) pipeline:
///   bit-serial input phases, per-phase analog column-current summation
///   with dummy-column baseline cancellation, integrate-and-fire
///   conversion, and shift-add recombination.
///
/// With an ideal configuration the two are bit-exact (property-tested);
/// [`CrossbarArray::vmm_batch_cols`] — the entry the engines execute
/// through — dispatches to the fast exact path when the configuration is
/// ideal and to the analog path otherwise.
///
/// Everything the analog path needs that is fixed once the cells are
/// written — conductance, geometry, wire droop, retention drift,
/// variation, stuck-at faults — is frozen at [`CrossbarArray::program`]
/// time into the **effective-current plane** (`i_eff[r][col]`, the read
/// current each cell contributes to its bitline), so a conversion phase
/// is nothing but streaming additions over contiguous row slices of the
/// plane. The same pass bounds every physical column's converted code
/// over all active-row sets, and the plane keeps only the columns that
/// can convert to a non-zero code: with narrow weights, the upper bit
/// slices hold only code-0 cells, which can never reach half an LSB
/// above the baseline, so no phase sums, converts or recombines them.
///
/// No conductance matrix is kept: its samplers seeded from the
/// configuration, it is a pure function of that and the weights, which a
/// plane build replays row by row. Only a strike or a drift advance, which
/// no replay reproduces, makes the array hold it.
#[derive(Debug, Clone)]
pub struct CrossbarArray {
    pub(crate) cfg: XbarConfig,
    pub(crate) rows: usize,
    pub(crate) weight_cols: usize,
    pub(crate) phys_cols: usize,
    /// Reference copy of the programmed weights (digital golden model).
    weights: Vec<i64>,
    /// Per-cell conductance in siemens, row-major `rows x phys_cols`, held
    /// only once a strike or a drift advance changed a cell; until then
    /// [`CrossbarArray::for_each_row`] replays it.
    conductance: Option<Vec<f64>>,
    /// Effective read current per cell in amperes of the live columns,
    /// row-major: `i_eff = IrDropModel::cell_current_a(v_read, g, r,
    /// col)` — conductance with wire droop already folded in, so a
    /// conversion phase only sums plane entries. Populated at programming
    /// time for non-ideal configurations (the only ones whose `vmm`
    /// dispatch reaches the analog path); ideal arrays — which only hit
    /// the analog pipeline through explicit `vmm_analog*` calls, e.g. the
    /// equivalence tests — build it lazily on first use, so an ideal
    /// array on the exact serving path holds nothing but its weights.
    eff_current: std::sync::OnceLock<Plane>,
    pub(crate) g_min: f64,
    pub(crate) g_step: f64,
    /// Cells pinned to a rail by post-programming stuck-at strikes
    /// ([`CrossbarArray::apply_faults`]); counted so `is_ideal` knows the
    /// array left the exact path even under an otherwise ideal config.
    struck: u64,
}

impl CrossbarArray {
    /// Programs an array from a `rows x cols` signed weight matrix.
    ///
    /// Device-to-device variation and stuck-at faults from the
    /// configuration are applied once here, at programming time, exactly
    /// as write-and-verify hardware would freeze them. For non-ideal
    /// configurations the cells stream, row by row, into the
    /// effective-current plane the analog read path sums over (one `f64`
    /// per live cell — the price of never re-deriving wire droop per
    /// conversion phase), and only the plane is kept; ideal arrays keep
    /// only their weights, since their `vmm` never reaches the analog path.
    ///
    /// # Errors
    ///
    /// * [`XbarError::BadBitWidth`] for a cell, input or weight width the
    ///   array cannot represent;
    /// * [`XbarError::BadWeightMatrix`] for an empty or ragged matrix;
    /// * [`XbarError::WeightOutOfRange`] when a weight exceeds
    ///   `±(2^(weight_bits-1) - 1)`;
    /// * [`XbarError::OutputOverflow`] when some input within the streamed
    ///   width could drive an output past `i64`, on the exact path
    ///   (`rows · (2^mag − 1) · max|weight|`, `mag` the streamed
    ///   magnitude bits) or, for a non-ideal array, the analog one:
    ///   `(2^mag − 1)` times the widest span of any weight's recombined
    ///   phase value over all active-row sets, bounded from the code
    ///   range of each of its physical columns or, where that is too
    ///   loose, row by row.
    pub fn program(cfg: &XbarConfig, weights: &[Vec<i64>]) -> Result<Self, XbarError> {
        check_widths(cfg)?;
        let rows = weights.len();
        if rows == 0 {
            return Err(XbarError::BadWeightMatrix("no rows".into()));
        }
        let weight_cols = weights[0].len();
        if weight_cols == 0 {
            return Err(XbarError::BadWeightMatrix("no columns".into()));
        }
        if let Some(bad) = weights.iter().find(|r| r.len() != weight_cols) {
            return Err(XbarError::BadWeightMatrix(format!(
                "ragged row of length {} (expected {weight_cols})",
                bad.len()
            )));
        }
        let bound = cfg.weight_bound();
        let mut flat = Vec::with_capacity(rows * weight_cols);
        for row in weights {
            for &w in row {
                if w.abs() > bound {
                    return Err(XbarError::WeightOutOfRange { value: w, bound });
                }
                flat.push(w);
            }
        }
        Self::program_flat(cfg, rows, weight_cols, flat)
    }

    /// Programs an array from a flat row-major weight buffer.
    ///
    /// # Errors
    ///
    /// Same as [`CrossbarArray::program`]; additionally rejects a buffer
    /// whose length is not `rows * cols`.
    pub fn program_flat(
        cfg: &XbarConfig,
        rows: usize,
        weight_cols: usize,
        weights: Vec<i64>,
    ) -> Result<Self, XbarError> {
        let arr = Self::program_weights(cfg, rows, weight_cols, weights)?;
        // Non-ideal configurations freeze the effective-current plane at
        // programming time, exactly like write-and-verify hardware; ideal
        // arrays never reach the analog path through `vmm`, so they defer
        // the build to a first explicit `vmm_analog*` call.
        if !arr.is_ideal() {
            let plane = arr.build_plane().ok_or_else(|| arr.overflow())?;
            let _ = arr.eff_current.set(plane);
        }
        Ok(arr)
    }

    /// [`CrossbarArray::program_flat`] short of building the plane: the
    /// weights checked and held, the exact path's overflow checked, and
    /// nothing else. A caller that builds its own planes from the rows
    /// (`PhasedCrossbar`) must check the analog read-out itself.
    pub(crate) fn program_weights(
        cfg: &XbarConfig,
        rows: usize,
        weight_cols: usize,
        weights: Vec<i64>,
    ) -> Result<Self, XbarError> {
        check_widths(cfg)?;
        if rows == 0 || weight_cols == 0 {
            return Err(XbarError::BadWeightMatrix("zero dimension".into()));
        }
        if weights.len() != rows * weight_cols {
            return Err(XbarError::BadWeightMatrix(format!(
                "buffer length {} != {rows} x {weight_cols}",
                weights.len()
            )));
        }
        let bound = cfg.weight_bound();
        if let Some(&w) = weights.iter().find(|w| w.abs() > bound) {
            return Err(XbarError::WeightOutOfRange { value: w, bound });
        }
        let g_min = 1.0 / cfg.cell.r_off_ohm;
        let arr = Self {
            cfg: *cfg,
            rows,
            weight_cols,
            phys_cols: weight_cols * cfg.phys_cols_per_weight(),
            weights,
            conductance: None,
            eff_current: std::sync::OnceLock::new(),
            g_min,
            g_step: (1.0 / cfg.cell.r_on_ohm - g_min) / f64::from(cfg.cell.levels() - 1),
            struck: 0,
        };
        let max_input = (1i128 << input_mag_bits(cfg)) - 1;
        let exact = (rows as i128)
            .checked_mul(max_input)
            .and_then(|x| x.checked_mul(i128::from(bound)));
        if exact.is_none_or(|b| b > i128::from(i64::MAX)) {
            return Err(arr.overflow());
        }
        Ok(arr)
    }

    /// The error of an array whose output could leave `i64`.
    pub(crate) fn overflow(&self) -> XbarError {
        XbarError::OutputOverflow {
            rows: self.rows,
            input_bits: self.cfg.input_bits,
            weight_bits: self.cfg.weight_bits,
        }
    }

    /// The effective-current plane, built on first use for ideal arrays.
    ///
    /// # Panics
    ///
    /// Panics if a first build finds that the analog read-out could leave
    /// `i64`. `program_flat` bounds an ideal array's exact product, and
    /// the row bound ([`CrossbarArray::row_readout_bound`]) of an ideal
    /// array is that product's bound for its weights unless its rounding
    /// slack reaches half a code, which at the default cell's on/off
    /// ratio takes millions of rows.
    pub(crate) fn plane(&self) -> &Plane {
        self.eff_current
            .get_or_init(|| self.build_plane().expect(READOUT_OVERFLOW))
    }

    /// Calls `f` with each row index and row of the conductance matrix,
    /// in order: the held matrix's or, while the array holds none, the
    /// programming loop's, replayed one row at a time. Its samplers are
    /// seeded from the configuration and draw in row-major cell order, so
    /// every replay writes the same bits.
    pub(crate) fn for_each_row(&self, mut f: impl FnMut(usize, &[f64])) {
        if let Some(matrix) = &self.conductance {
            matrix
                .chunks_exact(self.phys_cols)
                .enumerate()
                .for_each(|(r, row)| f(r, row));
            return;
        }
        let (cfg, g_min, g_step) = (&self.cfg, self.g_min, self.g_step);
        let g_max = 1.0 / cfg.cell.r_on_ohm;
        let (bpc, level_mask) = (cfg.cell.bits_per_cell, u64::from(cfg.cell.levels() - 1));
        let mut variation = cfg.variation.sampler();
        let mut faults = cfg.faults.sampler();
        // Retention drift scales every programmed filament uniformly (the
        // read circuit's reference levels stay fresh, which is exactly why
        // drifted arrays misread).
        let drift = cfg.drift.factor();
        let mut cell = |code: u16| match faults.next_fault() {
            Some(StuckPolarity::StuckOff) => drift * g_min,
            Some(StuckPolarity::StuckOn) => drift * g_max,
            None => drift * ((g_min + g_step * f64::from(code)) * variation.next_factor()),
        };
        let mut row = vec![0.0f64; self.phys_cols];
        for (r, weights) in self.weights.chunks_exact(self.weight_cols).enumerate() {
            let per_weight = row.chunks_exact_mut(cfg.phys_cols_per_weight());
            for (&w, cells) in weights.iter().zip(per_weight) {
                for s in 0..cfg.slices() {
                    let shift = (s as u32) * bpc;
                    match cfg.scheme {
                        WeightScheme::Differential => {
                            let code = ((w.unsigned_abs() >> shift) & level_mask) as u16;
                            let (pos_code, neg_code) = if w >= 0 { (code, 0) } else { (0, code) };
                            cells[2 * s] = cell(pos_code);
                            cells[2 * s + 1] = cell(neg_code);
                        }
                        WeightScheme::OffsetBinary => {
                            let offset = (w + (1i64 << (cfg.weight_bits - 1))) as u64;
                            cells[s] = cell(((offset >> shift) & level_mask) as u16);
                        }
                    }
                }
            }
            f(r, &row);
        }
    }

    /// The conductance matrix, row-major: the held one, or a copy
    /// regenerated by [`CrossbarArray::for_each_row`].
    fn conductances(&self) -> Cow<'_, [f64]> {
        if let Some(matrix) = &self.conductance {
            return Cow::Borrowed(matrix);
        }
        let mut matrix = Vec::with_capacity(self.rows * self.phys_cols);
        self.for_each_row(|_, row| matrix.extend_from_slice(row));
        Cow::Owned(matrix)
    }

    /// The conductance matrix, to change in place: regenerated if the
    /// array holds none, and held from then on.
    fn hold_conductances(&mut self) -> &mut [f64] {
        let matrix = match self.conductance.take() {
            Some(matrix) => matrix,
            None => self.conductances().into_owned(),
        };
        self.conductance.insert(matrix)
    }

    /// Input channel (row) count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical weight column (filter) count.
    pub fn weight_cols(&self) -> usize {
        self.weight_cols
    }

    /// Physical column count after bit-slicing and sign encoding.
    pub fn phys_cols(&self) -> usize {
        self.phys_cols
    }

    /// The configuration this array was programmed with.
    pub fn config(&self) -> &XbarConfig {
        &self.cfg
    }

    /// The programmed weight at `(row, col)` (digital reference copy).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn weight(&self, row: usize, col: usize) -> i64 {
        assert!(
            row < self.rows && col < self.weight_cols,
            "index out of bounds"
        );
        self.weights[row * self.weight_cols + col]
    }

    /// `true` when the configured model has no non-idealities, i.e.
    /// [`CrossbarArray::vmm`] dispatches to the exact digital path.
    pub fn is_ideal(&self) -> bool {
        self.cfg.adc == AdcModel::Ideal
            && self.cfg.variation.is_ideal()
            && self.cfg.faults.is_none()
            && self.cfg.ir_drop.is_ideal()
            && self.cfg.drift.is_fresh()
            && self.struck == 0
    }

    /// Cells pinned to a rail by [`CrossbarArray::apply_faults`] since
    /// programming (0 for a freshly programmed array).
    pub fn struck_cells(&self) -> u64 {
        self.struck
    }

    /// Strikes `strikes` seeded-random cells with stuck-at faults — the
    /// in-field aging path, as opposed to the programming-time fault map
    /// frozen by [`CrossbarArray::program`]. Each strike pins one cell to
    /// a conductance rail (SA0 → `g_min`, SA1 → `g_max`, polarity drawn
    /// from the same stream as the position), then the effective-current
    /// plane is rebuilt so the analog path sees the damage immediately.
    /// The array holds its conductance matrix from then on: a struck cell
    /// cannot be replayed from the configuration.
    ///
    /// The strike map is a pure function of `(geometry, strikes, seed)`:
    /// two identically programmed arrays struck with the same arguments
    /// end up with identical planes, and repeated incremental calls
    /// compose deterministically (each call draws from its own seeded
    /// stream). Strikes may land on already-struck cells; `struck` counts
    /// strike events, not distinct cells.
    ///
    /// # Panics
    ///
    /// As [`CrossbarArray::rebuild_plane`].
    pub fn apply_faults(&mut self, strikes: usize, seed: u64) -> u64 {
        if strikes == 0 {
            return self.struck;
        }
        let (g_min, levels) = (self.g_min, self.cfg.cell.levels());
        let g_max = g_min + self.g_step * f64::from(levels - 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let conductance = self.hold_conductances();
        for _ in 0..strikes {
            let idx = rng.gen_range(0..conductance.len());
            let on: f64 = rng.gen_range(0.0..1.0);
            conductance[idx] = if on < 0.5 { g_min } else { g_max };
        }
        self.struck += strikes as u64;
        self.rebuild_plane();
        self.struck
    }

    /// Advances retention drift to `model`, rescaling every programmed
    /// conductance by the ratio of the new drift factor to the one frozen
    /// at programming time (drift is multiplicative, so the update is
    /// exact — re-programming with `model` in the config yields the same
    /// plane up to the variation/fault streams, which are untouched).
    /// Rebuilds the effective-current plane. The array holds its
    /// conductance matrix from then on: `g · (new / old)` need not round
    /// as a replay under `model` would.
    ///
    /// # Panics
    ///
    /// As [`CrossbarArray::rebuild_plane`].
    pub fn advance_drift(&mut self, model: DriftModel) {
        let ratio = model.factor() / self.cfg.drift.factor();
        // Held before the replay's drift factor changes.
        let conductance = self.hold_conductances();
        if ratio != 1.0 {
            for g in conductance {
                *g *= ratio;
            }
        }
        self.cfg.drift = model;
        self.rebuild_plane();
    }

    /// Recomputes the effective-current plane from the current
    /// conductances (the held matrix, or the programmed cells replayed
    /// from the configuration) — the modeled analogue of a read-calibration pass
    /// after [`CrossbarArray::apply_faults`] or
    /// [`CrossbarArray::advance_drift`] mutate the cells. Which columns
    /// are dead is decided afresh: a stuck-on strike can revive one, and
    /// drift can move one either way.
    ///
    /// # Panics
    ///
    /// Panics if the mutated cells could drive the analog read-out past
    /// `i64`, which takes widths near 63 bits; the same check fails
    /// [`CrossbarArray::program`] with [`XbarError::OutputOverflow`].
    pub fn rebuild_plane(&mut self) {
        self.eff_current = self.build_plane().expect(READOUT_OVERFLOW).into();
    }

    /// `true` when [`CrossbarArray::vmm_batch_cols`] will actually
    /// cache-block the exact path: the configuration is ideal and the
    /// weight matrix is too large (≥ 1 MiB) to stay resident between
    /// back-to-back per-input passes. Below the threshold a per-input loop
    /// is faster (measured on the committed baseline host).
    ///
    /// The gate is private to that dispatch: no engine consults it. The
    /// analog path picks its own order from the plane and the columns it
    /// is asked for: a plane of at most 8 rows looks each phase's set up
    /// in its table; otherwise, past one column tile, it runs
    /// batch-major, every input's phases on a tile before the next tile,
    /// so the tile's plane rows are reused across the batch; within one
    /// tile it runs input by input.
    pub fn batching_pays(&self) -> bool {
        self.is_ideal() && blocking_pays(self.rows, self.weight_cols)
    }

    /// Exact digital vector-matrix multiply: `out[m] = Σ_r input[r] * W[r,m]`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != rows`.
    pub fn vmm_exact(&self, input: &[i64]) -> Vec<i64> {
        let mut out = vec![0i64; self.weight_cols];
        self.vmm_exact_into(input, &mut out);
        out
    }

    /// Allocation-free [`CrossbarArray::vmm_exact`]: writes the result into
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != rows` or `out.len() != weight_cols`.
    pub fn vmm_exact_into(&self, input: &[i64], out: &mut [i64]) {
        assert_eq!(input.len(), self.rows, "input length must match rows");
        assert_eq!(out.len(), self.weight_cols, "output length must match");
        exact_cols(&self.weights, |j| j, input, 0..self.weight_cols, out);
    }

    /// The one execution-time VMM entry: `n` input vectors, flattened
    /// row-major into `inputs` (`n × rows`), drive the weight columns in
    /// `cols` (ascending, disjoint ranges) at precision tier `prec`. Each
    /// input's results in those columns are written into its row of
    /// `out` (`n × weight_cols`), and the rest of `out` is left as it is:
    /// an input-stationary engine passes the columns of the taps that
    /// land in its output, and `once(0..weight_cols)` asks for them all.
    ///
    /// Ideal arrays run the exact integer path; `prec` truncates each
    /// input's dropped low bits first (staged through `scratch`). When
    /// the weight matrix is too large to sit in cache across back-to-back
    /// inputs ([`CrossbarArray::batching_pays`]), it is walked in row
    /// blocks that stay resident while every input of the batch consumes
    /// them, so weight traffic is paid once per block instead of once per
    /// input; smaller matrices take the straight per-input loop. Integer
    /// accumulation is order-independent, so either way each result
    /// equals [`CrossbarArray::vmm_exact_into`] on the truncated input.
    ///
    /// Non-ideal arrays run the analog kernel of
    /// [`CrossbarArray::vmm_analog_batch_at`], whose dropped phases
    /// degrade the result the same way. Either path's deviation from
    /// [`ExecPrecision::Full`] obeys
    /// [`CrossbarArray::truncation_error_bound`]. `scratch` is the
    /// caller's, so steady-state batched execution stays allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n * rows`, `out.len() != n *
    /// weight_cols`, or a range ends past `weight_cols`.
    pub fn vmm_batch_cols<C>(
        &self,
        inputs: &[i64],
        n: usize,
        cols: C,
        scratch: &mut VmmScratch,
        out: &mut [i64],
        prec: ExecPrecision,
    ) where
        C: IntoIterator<Item = Range<usize>>,
        C::IntoIter: Clone,
    {
        assert_eq!(inputs.len(), n * self.rows, "inputs must be n x rows");
        assert_eq!(
            out.len(),
            n * self.weight_cols,
            "out must be n x weight_cols"
        );
        let cols = cols.into_iter();
        match self.is_ideal() {
            true => self.exact_ranges(None, inputs, cols, scratch, out, prec),
            false => self.vmm_analog_ranges(self.plane(), inputs, n, cols, scratch, out, prec),
        }
    }

    /// The exact path of [`CrossbarArray::vmm_batch_cols`] over the
    /// weight rows `rows` of this array, ascending (all of them when
    /// `None`, or a stride phase's), each input listing its values for
    /// those rows in order: `prec` truncates each input's dropped low bits
    /// first (staged through `scratch`), then [`CrossbarArray::exact_batch`]
    /// drives the rows.
    pub(crate) fn exact_ranges(
        &self,
        rows: Option<&[u32]>,
        inputs: &[i64],
        cols: impl Iterator<Item = Range<usize>> + Clone,
        scratch: &mut VmmScratch,
        out: &mut [i64],
        prec: ExecPrecision,
    ) {
        assert!(
            cols.clone().all(|c| c.end <= self.weight_cols),
            "column range out of bounds"
        );
        let inputs = self.truncated(inputs, prec, scratch);
        // Monomorphized per row map, so the whole array's walk indexes
        // its rows directly.
        match rows {
            None => self.exact_batch(|j| j, self.rows, inputs, cols, out, 0),
            Some(rows) => {
                let row_of = |j| rows[j] as usize;
                self.exact_batch(row_of, rows.len(), inputs, cols, out, 0)
            }
        }
    }

    /// `inputs` truncated to tier `prec` ([`CrossbarArray::truncate_input`]
    /// on every value, staged through `scratch`), or `inputs` itself at a
    /// tier that drops no bit of this array's inputs.
    pub(crate) fn truncated<'a>(
        &self,
        inputs: &'a [i64],
        prec: ExecPrecision,
        scratch: &'a mut VmmScratch,
    ) -> &'a [i64] {
        let dropped = self.effective_dropped_bits(prec);
        if dropped == 0 {
            return inputs;
        }
        scratch.trunc.clear();
        let truncated = inputs.iter().map(|&x| Self::truncate_input(x, dropped));
        scratch.trunc.extend(truncated);
        &scratch.trunc
    }

    /// The exact products of `inputs`, already truncated, each of `rows`
    /// values, value `j` driving weight row `row_of(j)`, over the weight
    /// columns in `cols`: input `k`'s result for weight column `c` lands
    /// in `out[k·stride + at + c]`, `stride` being `out.len()` over the
    /// input count, and the rest of `out` is left as it is. When the
    /// driven weights are too large to sit in cache across back-to-back
    /// inputs (1 MiB, as [`CrossbarArray::batching_pays`]), each column
    /// range's weights are walked in blocks of rows that stay hot while
    /// the whole batch streams over them; otherwise it is a straight
    /// per-input loop.
    pub(crate) fn exact_batch(
        &self,
        row_of: impl Fn(usize) -> usize + Copy,
        rows: usize,
        inputs: &[i64],
        cols: impl Iterator<Item = Range<usize>> + Clone,
        out: &mut [i64],
        at: usize,
    ) {
        const ROW_BLOCK: usize = 64;
        let (m, weights) = (self.weight_cols, &self.weights);
        let n = inputs.len() / rows;
        if n == 0 {
            return;
        }
        let stride = out.len() / n;
        if !blocking_pays(rows, m) {
            for (input, o) in inputs.chunks_exact(rows).zip(out.chunks_exact_mut(stride)) {
                let o = &mut o[at..][..m];
                cols.clone()
                    .for_each(|c| exact_cols(weights, row_of, input, c, o));
            }
            return;
        }
        for c in cols {
            for o in out.chunks_exact_mut(stride) {
                o[at..][c.clone()].fill(0);
            }
            for r0 in (0..rows).step_by(ROW_BLOCK) {
                let r1 = (r0 + ROW_BLOCK).min(rows);
                for (input, o) in inputs.chunks_exact(rows).zip(out.chunks_exact_mut(stride)) {
                    let o = &mut o[at..][c.clone()];
                    for (j, &x) in (r0..r1).zip(&input[r0..r1]) {
                        if x == 0 {
                            continue;
                        }
                        let row = &weights[row_of(j) * m..][c.clone()];
                        for (acc, &w) in o.iter_mut().zip(row) {
                            *acc += x * w;
                        }
                    }
                }
            }
        }
    }

    /// Vector-matrix multiply through the configured model: the fast exact
    /// path when the configuration is ideal, the full analog pipeline
    /// otherwise (the two are bit-identical in the ideal case, see the
    /// property tests).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != rows`.
    pub fn vmm(&self, input: &[i64]) -> Vec<i64> {
        let mut out = vec![0i64; self.weight_cols];
        let (all, full) = (std::iter::once(0..self.weight_cols), ExecPrecision::Full);
        self.vmm_batch_cols(input, 1, all, &mut VmmScratch::new(), &mut out, full);
        out
    }

    /// Full analog-pipeline simulation — bit-serial input phases, analog
    /// column currents, dummy-column baseline cancellation,
    /// integrate-and-fire conversion, shift-add recombination — of one
    /// input: [`CrossbarArray::vmm_analog_batch_at`] on a batch of one.
    ///
    /// The result is **bit-identical** to
    /// [`CrossbarArray::vmm_analog_reference`] for every configuration
    /// (golden-equivalence property tests).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != rows` or `out.len() != weight_cols`.
    pub fn vmm_analog_into(&self, input: &[i64], scratch: &mut VmmScratch, out: &mut [i64]) {
        self.vmm_analog_batch_at(input, 1, scratch, out, ExecPrecision::Full);
    }

    /// The analog kernel behind [`CrossbarArray::vmm_analog_batch_at`],
    /// over any effective-current `plane` this array's configuration
    /// reads: `n` inputs of `inputs.len() / n` rows, each driving the
    /// plane's live columns of `out.len() / n` weight columns, row-major.
    /// Only the weight columns in `ranges` (ascending, disjoint) are
    /// evaluated and written, for every input; the rest of `out` is left
    /// as it is. `self` supplies the read-out (converter, LSB, baseline,
    /// scheme), which every array programmed with one configuration
    /// shares — so `SubCrossbarTensor` runs a fused plane of its taps'
    /// planes through one call, and `PhasedCrossbar` a stride phase's rows
    /// of its window.
    ///
    /// A plane of at most 8 rows carries a table of every active-row
    /// set's recombined phase values ([`CrossbarArray::tabulate`]), built
    /// at programming, so each input's set-bit pass gives each live
    /// phase's row mask, and the phase adds `±2^bit` times its set's
    /// entries over the ranges (see [`CrossbarArray::table_ranges`]).
    ///
    /// Any other plane is summed and converted set by set, each conversion
    /// phase (magnitude bit × polarity) a set of its own, in tiles of
    /// whole weights of at most 512 live columns; the plane's dead columns
    /// would convert to 0 on every set, so no tile holds them. When the
    /// ranges hold more than one tile's worth of live columns the call
    /// runs batch-major: one set-bit pass per input buckets the active
    /// rows of every phase, and each tile then runs every input's sets
    /// (see [`CrossbarArray::run_tiles`]) and reads every input out, so a
    /// tile's plane rows serve the whole batch while they are hot. A
    /// narrower call runs input by input, each input's set rows packed as
    /// the batch-major path packs them: with one tile, batch-major order
    /// would visit the plane just as input order does.
    ///
    /// The result is **bit-identical** to
    /// [`CrossbarArray::vmm_analog_reference`] on every input. Tiles only
    /// regroup columns, a dead column's code is 0 on every set, and a
    /// set's currents do not depend on which input pulses it: per column
    /// the `f64` additions happen in the reference's ascending-row order,
    /// from `0.0`, and the baseline is cancelled by the same subtraction
    /// and division by `lsb`. The converter rounds exactly as
    /// [`AdcModel::quantize`] does. Everything after quantization is
    /// integer arithmetic — in `f64` only where every partial sum is an
    /// integer below 2^53, which `f64` adds exactly in any order — so
    /// deferring the shift-add to the read-out, or taking it from a
    /// table, is an identity: every output matches the per-phase
    /// recombination.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn vmm_analog_ranges(
        &self,
        plane: &Plane,
        inputs: &[i64],
        n: usize,
        ranges: impl Iterator<Item = Range<usize>> + Clone,
        scratch: &mut VmmScratch,
        out: &mut [i64],
        prec: ExecPrecision,
    ) {
        if n == 0 {
            return;
        }
        let (rows, out_cols) = (inputs.len() / n, out.len() / n);
        assert_eq!(inputs.len(), n * rows, "inputs must be n x rows");
        assert_eq!(out.len(), n * out_cols, "out must be n x weight columns");
        assert_eq!(plane.starts.len(), out_cols + 1, "plane must span out");
        assert_eq!(
            plane.currents.len(),
            rows * plane.live(),
            "plane must be rows x live"
        );
        assert!(
            ranges.clone().all(|r| r.end <= out_cols),
            "column range out of bounds"
        );
        let lo = self.effective_dropped_bits(prec);
        if !plane.table.is_empty() {
            self.table_ranges(&plane.table, inputs, n, ranges, out, lo);
            return;
        }
        let live: usize = ranges.clone().map(|r| plane.live_in(&r)).sum();
        let VmmScratch {
            phase_rows,
            phase_len,
            sets,
            tile,
            ..
        } = scratch;
        sets.clear();
        if live > TILE_COLS {
            for input in inputs.chunks_exact(rows) {
                self.bucket_phases(input, lo, phase_rows, phase_len);
                sets.push_phases(phase_rows, phase_len, rows);
            }
            self.run_tiles(plane, ranges, sets, tile, out);
            return;
        }
        for (input, o) in inputs
            .chunks_exact(rows)
            .zip(out.chunks_exact_mut(out_cols))
        {
            self.bucket_phases(input, lo, phase_rows, phase_len);
            sets.clear();
            sets.push_phases(phase_rows, phase_len, rows);
            self.run_tiles(plane, ranges.clone(), sets, tile, o);
        }
    }

    /// The kernel on a tabulated plane (`table`, see [`Plane::table`]):
    /// per input, one pass over its rows records each live phase's row
    /// mask (bits below `lo` and at or above the streamed magnitude width
    /// never pulse), and each live phase then adds `±2^bit` times its
    /// mask's table row into the ranges' outputs. The table rows hold
    /// each set's recombined phase value, so this is the per-phase
    /// recombination itself. It runs modulo 2^64, which leaves every
    /// output exact: each lies in `i64` (the plane's read-out check).
    fn table_ranges(
        &self,
        table: &[i64],
        inputs: &[i64],
        n: usize,
        ranges: impl Iterator<Item = Range<usize>> + Clone,
        out: &mut [i64],
        lo: u32,
    ) {
        let (rows, out_cols) = (inputs.len() / n, out.len() / n);
        assert_eq!(
            table.len(),
            ((1 << rows) - 1) * out_cols,
            "table must be sets x weight columns"
        );
        let mag_bits = self.input_mag_bits();
        let window = (u64::MAX >> (u64::BITS - mag_bits)) & (u64::MAX << lo);
        // Two polarity phases per streamed magnitude bit, at most 62.
        let mut buckets = [0u8; 2 * 62];
        let masks = &mut buckets[..2 * mag_bits as usize];
        for (input, o) in inputs
            .chunks_exact(rows)
            .zip(out.chunks_exact_mut(out_cols))
        {
            masks.fill(0);
            for (r, &x) in input.iter().enumerate() {
                let polarity = usize::from(x < 0);
                let mut mag = x.unsigned_abs() & window;
                while mag != 0 {
                    masks[2 * mag.trailing_zeros() as usize + polarity] |= 1 << r;
                    mag &= mag - 1;
                }
            }
            for r in ranges.clone() {
                o[r].fill(0);
            }
            for (p, &mask) in masks.iter().enumerate().filter(|(_, &mask)| mask != 0) {
                let values = &table[(usize::from(mask) - 1) * out_cols..][..out_cols];
                let bit = (p / 2) as u32;
                for r in ranges.clone() {
                    let (o, values) = (&mut o[r.clone()], &values[r]);
                    if p % 2 == 0 {
                        for (o, &v) in o.iter_mut().zip(values) {
                            *o = o.wrapping_add(v.wrapping_shl(bit));
                        }
                    } else {
                        for (o, &v) in o.iter_mut().zip(values) {
                            *o = o.wrapping_sub(v.wrapping_shl(bit));
                        }
                    }
                }
            }
        }
    }

    /// Evaluates the `sets` on every tile of the weight columns in
    /// `ranges`, for the `sets.pulses.len()` inputs whose results fill
    /// `out` row-major. On each tile, each set sums its rows' contiguous
    /// slices of the plane's live columns, four rows per sweep
    /// of the tile's currents, and converts them in one branch-free pass:
    /// cancel the baseline, normalize by the LSB, quantize, and add
    /// `code · scale` into its input's column sums. The sums are `f64`
    /// when they provably stay exact integers there (a saturating
    /// converter with `bits + magnitude bits + 1 ≤ 53`), so the pass
    /// vectorizes, and `i128` otherwise. Each input's tile is then read
    /// out: the shift-add recombination of its column sums into weights in
    /// `i128`, less offset binary's reference term.
    fn run_tiles(
        &self,
        plane: &Plane,
        ranges: impl Iterator<Item = Range<usize>>,
        sets: &RowSets,
        tile: &mut TileSums,
        out: &mut [i64],
    ) {
        let n = sets.pulses.len();
        let out_cols = out.len() / n;
        let v_read = self.cfg.cell.read_voltage;
        let lsb = v_read * self.g_step;
        let full_scale = self.f64_full_scale();
        let offset = self.row_offset();
        // A weight of at most 63 bits has at most 124 physical columns,
        // so a tile holds at most TILE_COLS live columns.
        let width = TILE_COLS;
        let TileSums {
            currents,
            col_sum,
            col_acc,
        } = tile;
        currents.resize(width, 0.0);
        match full_scale {
            Some(_) => col_sum.resize(n * width, 0.0),
            None => col_acc.resize(n * width, 0),
        }
        // Recombines one weight's live columns of f64 sums; each is an
        // integer below 2^52, so the truncating cast is exact.
        let recombine =
            |cols: &[f64], roles: &[u8]| shift_add(cols, roles, |s| i128::from(s as i64));
        for r in ranges {
            let mut w0 = r.start;
            while w0 < r.end {
                let w1 = plane.tile_end(w0, r.end);
                let (c0, c1) = (plane.starts[w0] as usize, plane.starts[w1] as usize);
                let w = c1 - c0;
                // Weight `w0 + m`'s live columns within the tile.
                let starts = &plane.starts[w0..=w1];
                let span = |m: usize| (starts[m] as usize - c0)..(starts[m + 1] as usize - c0);
                let roles = &plane.roles[c0..c1];
                let currents = &mut currents[..w];
                match full_scale {
                    Some(_) => col_sum[..n * w].fill(0.0),
                    None => col_acc[..n * w].fill(0),
                }
                for set in &sets.sets {
                    let active = &sets.rows[set.start as usize..][..set.len as usize];
                    sum_rows(&plane.currents, plane.live(), c0, active, currents);
                    // The dummy (baseline) column sits next to the sense
                    // amps, so its reference current sees the same droop
                    // statistics as a column-0 read; first-order, the
                    // baseline stays V·g_min per active row.
                    let baseline = set.len as f64 * v_read * self.g_min;
                    let at = set.input as usize * w;
                    if let Some(max) = full_scale {
                        let sums = &mut col_sum[at..][..w];
                        convert(sums, currents, baseline, lsb, max, set.scale as f64);
                    } else {
                        normalize(currents, baseline, lsb);
                        let acc = &mut col_acc[at..][..w];
                        match self.cfg.adc {
                            AdcModel::Ideal => {
                                accumulate(acc, currents, set.scale, round_half_away)
                            }
                            AdcModel::Saturating { bits } => {
                                let max = (1i64 << bits) - 1;
                                accumulate(acc, currents, set.scale, |x| round_to_code(x, max));
                            }
                        }
                    }
                }
                for (k, &pulses) in sets.pulses.iter().enumerate() {
                    let reference = offset * pulses;
                    let outs = &mut out[k * out_cols..][w0..w1];
                    for (m, o) in outs.iter_mut().enumerate() {
                        let (cols, roles) = (span(m), &roles[span(m)]);
                        let value = match full_scale {
                            Some(_) => recombine(&col_sum[k * w..][cols], roles),
                            None => shift_add(&col_acc[k * w..][cols], roles, |c| c),
                        } - reference;
                        // Unreachable overflow: `value` is this weight's
                        // output, the sum over the live phases of `±2^bit`
                        // times a recombined phase value, so |value| stays
                        // within `readout_bound` (every code lies in its
                        // column's range from `code_ranges`) and within
                        // `row_readout_bound`. Every plane build checks
                        // one of them against i64 (`program` returns
                        // `OutputOverflow`): a part's plane is cut from an
                        // array that passed it, a stride phase's from its
                        // window and a RED tap's from its sub-crossbar,
                        // and a fused plane lays tap planes side by side,
                        // each driven by its own rows. Every i128 partial sum
                        // stays within a few times `readout_bound`, which
                        // the build keeps below i128::MAX >> 8.
                        *o = i64::try_from(value).expect("accumulator overflow");
                    }
                }
                w0 = w1;
            }
        }
    }

    /// Batched analog VMM: `n` input vectors, flattened row-major into
    /// `inputs` (`n × rows`), produce `n × weight_cols` results in `out`,
    /// in one batch-major kernel call over the shared scratch.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n * rows` or `out.len() != n * weight_cols`.
    pub fn vmm_analog_batch(
        &self,
        inputs: &[i64],
        n: usize,
        scratch: &mut VmmScratch,
        out: &mut [i64],
    ) {
        self.vmm_analog_batch_at(inputs, n, scratch, out, ExecPrecision::Full);
    }

    /// [`CrossbarArray::vmm_analog_batch`] at an explicit precision tier.
    ///
    /// The tier's dropped bits are masked off before the set-bit pass, so
    /// their phases never pulse; phases no input reaches (every bit above
    /// the live high bit) stay empty and are skipped. Truncation happens
    /// *by construction*: dropping the `k` lowest phases is elementwise
    /// identical to running the full pipeline on
    /// `sign(x)·((|x| >> k) << k)`, so the [`ExecPrecision::Full`] result
    /// minus the degraded result is exactly the dropped phases'
    /// contribution — the quantity
    /// [`CrossbarArray::truncation_error_bound`] bounds.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n * rows` or `out.len() != n * weight_cols`.
    pub fn vmm_analog_batch_at(
        &self,
        inputs: &[i64],
        n: usize,
        scratch: &mut VmmScratch,
        out: &mut [i64],
        prec: ExecPrecision,
    ) {
        assert_eq!(inputs.len(), n * self.rows, "inputs must be n x rows");
        assert_eq!(
            out.len(),
            n * self.weight_cols,
            "out must be n x weight_cols"
        );
        let all = std::iter::once(0..self.weight_cols);
        self.vmm_analog_ranges(self.plane(), inputs, n, all, scratch, out, prec);
    }

    /// Signed input magnitude bits streamed bit-serially (sign handled by
    /// the polarity phases).
    pub(crate) fn input_mag_bits(&self) -> u32 {
        input_mag_bits(&self.cfg)
    }

    /// The saturating converter's full-scale code `2^bits − 1`, when every
    /// per-column sum of `±count · 2^bit` is an exact integer in `f64`:
    /// each polarity's phases add at most `(2^bits − 1)(2^mag − 1) <
    /// 2^(bits + mag)`, and `bits + mag + 1 ≤ 53` keeps that below 2^52,
    /// inside the 2^53 range where `f64` holds every integer. `None` (the
    /// ideal converter, whose codes are unbounded, or a wider saturating
    /// one) selects the `i128` accumulation.
    fn f64_full_scale(&self) -> Option<f64> {
        match self.cfg.adc {
            AdcModel::Saturating { bits }
                if bits.saturating_add(self.input_mag_bits()) < f64::MANTISSA_DIGITS =>
            {
                Some(((1u64 << bits) - 1) as f64)
            }
            _ => None,
        }
    }

    /// Low magnitude bits actually dropped at `prec` on this array: the
    /// tier's nominal count clamped so at least one bit stays live (a
    /// 4-bit-input array browns out by 2 bits, not 4).
    fn effective_dropped_bits(&self, prec: ExecPrecision) -> u32 {
        prec.dropped_bits().min(self.input_mag_bits() - 1)
    }

    /// Truncates `x` to its magnitude bits at or above `dropped`:
    /// `sign(x) · ((|x| >> dropped) << dropped)` — elementwise what the
    /// analog path's dropped phases amount to.
    fn truncate_input(x: i64, dropped: u32) -> i64 {
        let mag = ((x.unsigned_abs() >> dropped) << dropped) as i64;
        if x < 0 {
            -mag
        } else {
            mag
        }
    }

    /// The set-bit pass: every row whose input has magnitude bit `b` set
    /// lands in phase bucket `2·b + (x < 0)`, `input.len()` slots apart,
    /// in ascending row order — the order the `f64` per-column summation
    /// contract requires. Bits below `lo` (the tier's dropped bits) and at
    /// or above the streamed magnitude width never pulse, so they are
    /// masked off first; a row costs one step per set bit, and buckets no
    /// input reaches stay empty.
    fn bucket_phases(
        &self,
        input: &[i64],
        lo: u32,
        phase_rows: &mut Vec<u32>,
        phase_len: &mut Vec<u32>,
    ) {
        let mag_bits = self.input_mag_bits();
        let window = (u64::MAX >> (u64::BITS - mag_bits)) & (u64::MAX << lo);
        let (buckets, rows) = (2 * mag_bits as usize, input.len());
        phase_len.clear();
        phase_len.resize(buckets, 0);
        if phase_rows.len() < buckets * rows {
            phase_rows.resize(buckets * rows, 0);
        }
        for (r, &x) in input.iter().enumerate() {
            let polarity = usize::from(x < 0);
            let mut mag = x.unsigned_abs() & window;
            while mag != 0 {
                let p = 2 * mag.trailing_zeros() as usize + polarity;
                let len = &mut phase_len[p];
                phase_rows[p * rows + *len as usize] = r as u32;
                *len += 1;
                mag &= mag - 1;
            }
        }
    }

    /// Worst-case elementwise output error of serving at `prec` instead
    /// of [`ExecPrecision::Full`], in output LSBs (as a `f64` — the
    /// analog case folds conversion thresholds that are not integral).
    ///
    /// See [`CrossbarArray::truncation_error_bound_bits`]; the tier's
    /// dropped-bit count is clamped exactly as execution clamps it.
    pub fn truncation_error_bound(&self, prec: ExecPrecision) -> f64 {
        self.truncation_error_bound_bits(prec.dropped_bits())
    }

    /// Worst-case elementwise output error of dropping the `dropped_bits`
    /// lowest input magnitude bits (clamped so one bit stays live, as
    /// execution clamps it), over **all** admissible inputs. Monotone
    /// nondecreasing in `dropped_bits` by construction.
    ///
    /// * Ideal (exact-path) arrays: dropping `k` bits perturbs each input
    ///   by at most `2^k - 1` toward zero, so the error is exactly
    ///   bounded by `(2^k - 1) · max_m Σ_r |W[r,m]|` — and that bound is
    ///   attained (every residue at `2^k - 1`, signs aligned with the
    ///   worst column), so it is tight.
    /// * Analog arrays: the degraded output differs from `Full` by
    ///   exactly the dropped phase buckets' contribution. Each phase's
    ///   recombined value is bounded through the frozen effective-current
    ///   plane: for any active-row set, a physical column's
    ///   baseline-cancelled count lies between quantizing the column's
    ///   summed negative deviations and its summed positive deviations
    ///   (the ADC is monotone), which bounds each shift-add slice, each
    ///   weight column, and therefore the phase. Phase `(bit b, ±)`
    ///   contributes at scale `2^b`, so the total over both polarities of
    ///   bits `0..k` is `2·(2^k - 1)` times the per-phase bound.
    pub fn truncation_error_bound_bits(&self, dropped_bits: u32) -> f64 {
        let residues = self.dropped_residues(dropped_bits);
        if residues == 0.0 {
            return 0.0;
        }
        residues * self.error_per_residue()
    }

    /// `2^k − 1` for the `k` low magnitude bits execution actually drops
    /// when asked to drop `dropped_bits` (clamped so one bit stays live):
    /// the largest residue truncation takes off any input.
    pub(crate) fn dropped_residues(&self, dropped_bits: u32) -> f64 {
        let k = dropped_bits.min(self.input_mag_bits() - 1);
        ((1u64 << k) - 1) as f64
    }

    /// The truncation error bound per unit of dropped residue, so that
    /// [`CrossbarArray::truncation_error_bound_bits`] is
    /// `dropped_residues · error_per_residue`. Reads the effective-current
    /// plane on analog arrays (building it if it is not built).
    pub(crate) fn error_per_residue(&self) -> f64 {
        if self.is_ideal() {
            let mut cols = vec![0i128; self.weight_cols];
            for row in self.weights.chunks_exact(self.weight_cols) {
                for (col, &w) in cols.iter_mut().zip(row) {
                    *col += i128::from(w.unsigned_abs());
                }
            }
            cols.into_iter().max().unwrap_or(0) as f64
        } else {
            // Σ_{b<k} 2^b · (two polarity phases) = 2·(2^k − 1).
            2.0 * self.plane().phase_bound
        }
    }

    /// `true` while the effective-current plane is built.
    #[cfg(test)]
    pub(crate) fn plane_built(&self) -> bool {
        self.eff_current.get().is_some()
    }

    /// The original per-phase-recompute analog pipeline, kept verbatim as
    /// the golden reference: every phase rescans all rows for its active
    /// set, every cell's wire droop is re-derived from the conductance
    /// matrix inside a column-outer strided loop, and every phase
    /// recombines its own counts — no effective-current plane, no
    /// deferred shift-add. An array that holds no conductance matrix
    /// regenerates it on every call.
    ///
    /// [`CrossbarArray::vmm_analog_into`] must stay **bit-identical** to
    /// this for every scheme × ADC × IR-drop × drift combination; the
    /// golden-equivalence property tests assert it, and the `analog`
    /// criterion bench measures what the precomputation buys.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != rows`.
    #[allow(clippy::needless_range_loop)] // strided views; indexing reads clearer
    pub fn vmm_analog_reference(&self, input: &[i64]) -> Vec<i64> {
        assert_eq!(input.len(), self.rows, "input length must match rows");
        // Builds the plane if it is not built, which checks the read-out
        // bound the final conversion below relies on.
        let _ = self.plane();
        let conductance = self.conductances();
        let input_mag_bits = self.input_mag_bits();
        let v_read = self.cfg.cell.read_voltage;
        let ir = &self.cfg.ir_drop;
        let slices = self.cfg.slices();
        let per_weight = self.cfg.phys_cols_per_weight();
        let bpc = self.cfg.cell.bits_per_cell;
        let lsb = v_read * self.g_step;

        let mut acc = vec![0i128; self.weight_cols];
        let mut col_counts = vec![0i64; self.phys_cols];
        for bit in 0..input_mag_bits {
            for polarity in [1i64, -1i64] {
                let active: Vec<usize> = (0..self.rows)
                    .filter(|&r| {
                        let x = input[r];
                        x.signum() == polarity && (x.unsigned_abs() >> bit) & 1 == 1
                    })
                    .collect();
                if active.is_empty() {
                    continue;
                }
                let baseline = active.len() as f64 * v_read * self.g_min;
                for col in 0..self.phys_cols {
                    let mut current = 0.0f64;
                    for &r in &active {
                        let g = conductance[r * self.phys_cols + col];
                        current += ir.cell_current_a(v_read, g, r, col, self.rows);
                    }
                    col_counts[col] = self.cfg.adc.quantize((current - baseline) / lsb);
                }
                let phase_scale = polarity * (1i64 << bit);
                match self.cfg.scheme {
                    WeightScheme::Differential => {
                        for m in 0..self.weight_cols {
                            let mut val = 0i128;
                            for s in 0..slices {
                                let base = m * per_weight + 2 * s;
                                let diff = col_counts[base] - col_counts[base + 1];
                                val += i128::from(diff) << ((s as u32) * bpc);
                            }
                            acc[m] += val * i128::from(phase_scale);
                        }
                    }
                    WeightScheme::OffsetBinary => {
                        let offset = i128::from(1i64 << (self.cfg.weight_bits - 1));
                        let ref_sum = offset * active.len() as i128;
                        for m in 0..self.weight_cols {
                            let mut val = 0i128;
                            for s in 0..slices {
                                let base = m * per_weight + s;
                                val += i128::from(col_counts[base]) << ((s as u32) * bpc);
                            }
                            acc[m] += (val - ref_sum) * i128::from(phase_scale);
                        }
                    }
                }
            }
        }

        // Unreachable overflow: each code comes from the plane's currents,
        // summed and converted as the kernel does, so `acc` lies within
        // both `readout_bound` and `row_readout_bound`, one of which the
        // plane build checked against i64.
        acc.iter()
            .map(|&v| i64::try_from(v).expect("accumulator overflow"))
            .collect()
    }
}

/// The message of a plane build whose read-out bound leaves `i64`.
const READOUT_OVERFLOW: &str = "analog read-out can leave i64";

/// Signed input magnitude bits `cfg` streams bit-serially.
fn input_mag_bits(cfg: &XbarConfig) -> u32 {
    cfg.input_bits.saturating_sub(1).max(1)
}

/// Rejects the widths an array cannot represent: cells of 0 bits (no
/// level to slice onto) or of 16 and more (the level count is a `u16`),
/// and inputs or weights of 0 or more than 63 bits (their bounds are
/// `i64`).
fn check_widths(cfg: &XbarConfig) -> Result<(), XbarError> {
    let widths = [
        ("bits_per_cell", cfg.cell.bits_per_cell, 15),
        ("input_bits", cfg.input_bits, 63),
        ("weight_bits", cfg.weight_bits, 63),
    ];
    match widths
        .into_iter()
        .find(|&(_, bits, max)| !(1..=max).contains(&bits))
    {
        Some((field, bits, _)) => Err(XbarError::BadBitWidth { field, bits }),
        None => Ok(()),
    }
}

/// `true` when an exact weight matrix of `rows × cols` is too large (≥ 1
/// MiB) to stay resident between back-to-back per-input passes, so the
/// exact path walks it in row blocks across the batch; below it a
/// per-input loop is faster (measured on the committed baseline host).
fn blocking_pays(rows: usize, cols: usize) -> bool {
    const BLOCK_BYTES_MIN: usize = 1 << 20;
    rows * cols * std::mem::size_of::<i64>() >= BLOCK_BYTES_MIN
}

/// The exact VMM of one input over the columns in `cols` of `weights`
/// (rows of `out.len()` columns, row-major), input value `j` driving row
/// `row_of(j)`; the rest of `out` is left as it is.
fn exact_cols(
    weights: &[i64],
    row_of: impl Fn(usize) -> usize,
    input: &[i64],
    cols: Range<usize>,
    out: &mut [i64],
) {
    let m = out.len();
    let out = &mut out[cols.clone()];
    out.fill(0);
    for (j, &x) in input.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let row = &weights[row_of(j) * m..][cols.clone()];
        for (o, &w) in out.iter_mut().zip(row) {
            *o += x * w;
        }
    }
}

/// Sums the active rows' effective currents over one tile of `plane`
/// (`plane_cols` columns a row): columns `c0..c0 + sums.len()`, four
/// plane rows per sweep of `sums` as `(((s + a) + b) + c) + d`. Any
/// leftover rows (the count mod 4) open the sum instead of closing it, so
/// per column this is exactly the ascending-row `f64` addition chain from
/// `0.0` that the reference column-outer loop performs.
fn sum_rows(plane: &[f64], plane_cols: usize, c0: usize, active: &[u32], sums: &mut [f64]) {
    let w = sums.len();
    let row = |r: u32| &plane[r as usize * plane_cols + c0..][..w];
    let (head, quads) = active.split_at(active.len() % 4);
    match *head {
        [] => sums.fill(0.0),
        [a] => {
            for (s, &a) in sums.iter_mut().zip(row(a)) {
                *s = 0.0 + a;
            }
        }
        [a, b] => {
            for ((s, &a), &b) in sums.iter_mut().zip(row(a)).zip(row(b)) {
                *s = (0.0 + a) + b;
            }
        }
        [a, b, c] => {
            for (((s, &a), &b), &c) in sums.iter_mut().zip(row(a)).zip(row(b)).zip(row(c)) {
                *s = ((0.0 + a) + b) + c;
            }
        }
        _ => unreachable!("head holds fewer than 4 rows"),
    }
    for q in quads.chunks_exact(4) {
        let (a, b, c, d) = (row(q[0]), row(q[1]), row(q[2]), row(q[3]));
        for ((((s, &a), &b), &c), &d) in sums.iter_mut().zip(a).zip(b).zip(c).zip(d) {
            *s = (((*s + a) + b) + c) + d;
        }
    }
}

/// Cancels one phase's baseline and normalizes by the LSB, in place:
/// `(I − baseline) / lsb`, never a multiply by `1/lsb`, which rounds
/// differently.
fn normalize(currents: &mut [f64], baseline: f64, lsb: f64) {
    for c in currents {
        *c = (*c - baseline) / lsb;
    }
}

/// Adds `quantize(raw) · scale` into each physical column's sum, with
/// the phase's `scale = ±2^bit` (one widening multiply per column).
fn accumulate(sums: &mut [i128], raw: &[f64], scale: i64, quantize: impl Fn(f64) -> i64) {
    for (s, &x) in sums.iter_mut().zip(raw) {
        *s += i128::from(quantize(x)) * i128::from(scale);
    }
}

/// One conversion phase of a saturating converter in a single
/// branch-free pass over the physical columns, which the release build
/// vectorizes: `raw = (I − baseline) / lsb` (a division, never a
/// multiply by `1/lsb`, which rounds differently), its code, and
/// `code · scale` added into the column's `f64` sum, with the phase's
/// `scale = ±2^bit`.
///
/// The code equals [`AdcModel::quantize`]'s `round(raw)` clamped to
/// `[0, max]`: 0 below one half (NaN and −∞ included), otherwise
/// `floor(min(raw, max) + 0.5)` — +∞ gives `max`. With `max < 2^52` the
/// `+ 0.5` is exact, and adding then subtracting 2^52 rounds that
/// positive value to an integer at most one above its floor, so one
/// compare finishes the floor without a library call or an integer
/// conversion. The caller keeps every sum below 2^53 (see
/// [`CrossbarArray::f64_full_scale`]), so each addition is exact.
fn convert(sums: &mut [f64], currents: &[f64], baseline: f64, lsb: f64, max: f64, scale: f64) {
    const TO_INTEGER: f64 = (1u64 << 52) as f64;
    for (s, &current) in sums.iter_mut().zip(currents) {
        let raw = (current - baseline) / lsb;
        let half_up = if raw < max { raw } else { max } + 0.5;
        let near = (half_up + TO_INTEGER) - TO_INTEGER;
        let floor = if near > half_up { near - 1.0 } else { near };
        let code = if raw >= 0.5 { floor } else { 0.0 };
        *s += code * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests::within_4_ulps;
    use crate::plane::TABLE_ROWS;
    use red_device::DriftModel;
    use std::iter::once;

    fn ramp_weights(rows: usize, cols: usize) -> Vec<Vec<i64>> {
        (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| ((r * 31 + c * 7) as i64 % 255) - 127)
                    .collect()
            })
            .collect()
    }

    /// The analog kernel on one input, through a fresh scratch.
    fn analog(a: &CrossbarArray, x: &[i64]) -> Vec<i64> {
        let mut out = vec![0i64; a.weight_cols()];
        a.vmm_analog_into(x, &mut VmmScratch::new(), &mut out);
        out
    }

    /// A lineup of non-ideal configurations spanning scheme x ADC x
    /// IR-drop x drift (plus variation and faults).
    fn nonideal_lineup() -> Vec<XbarConfig> {
        let mut cfgs = vec![
            XbarConfig::noisy(0.02, 0.001, 0.0005, 7),
            XbarConfig::preset("variation").unwrap(),
            XbarConfig::preset("adc").unwrap(),
            XbarConfig::preset("ir-drop").unwrap(),
            XbarConfig::preset("full").unwrap(),
        ];
        let offset: Vec<XbarConfig> = cfgs
            .iter()
            .map(|c| XbarConfig {
                scheme: WeightScheme::OffsetBinary,
                ..*c
            })
            .collect();
        cfgs.extend(offset);
        cfgs
    }

    #[test]
    fn exact_vmm_matches_hand_computation() {
        let cfg = XbarConfig::ideal();
        let a = CrossbarArray::program(&cfg, &[vec![1, 2], vec![3, 4]]).unwrap();
        assert_eq!(a.vmm_exact(&[5, 6]), vec![5 + 18, 10 + 24]);
    }

    #[test]
    fn analog_matches_exact_differential() {
        let cfg = XbarConfig::ideal();
        let w = ramp_weights(17, 5);
        let a = CrossbarArray::program(&cfg, &w).unwrap();
        let input: Vec<i64> = (0..17).map(|i| ((i * 13) % 255) as i64 - 127).collect();
        assert_eq!(analog(&a, &input), a.vmm_exact(&input));
    }

    #[test]
    fn analog_matches_exact_offset_binary() {
        let cfg = XbarConfig {
            scheme: WeightScheme::OffsetBinary,
            ..XbarConfig::ideal()
        };
        let w = ramp_weights(11, 4);
        let a = CrossbarArray::program(&cfg, &w).unwrap();
        let input: Vec<i64> = (0..11).map(|i| ((i * 29) % 200) as i64 - 100).collect();
        assert_eq!(analog(&a, &input), a.vmm_exact(&input));
    }

    #[test]
    fn planned_analog_matches_reference_across_nonideal_configs() {
        for (i, cfg) in nonideal_lineup().into_iter().enumerate() {
            let a = CrossbarArray::program(&cfg, &ramp_weights(23, 5)).unwrap();
            let input: Vec<i64> = (0..23).map(|i| ((i * 19) % 255) as i64 - 127).collect();
            assert_eq!(
                analog(&a, &input),
                a.vmm_analog_reference(&input),
                "config {i} ({:?} scheme)",
                cfg.scheme
            );
        }
    }

    #[test]
    fn column_tiles_match_reference_at_tile_seams() {
        let full = XbarConfig::preset("full").unwrap();
        // (physical columns, scheme, weight bits, bits per cell): a single
        // column, either side of one tile, and several tiles.
        let shapes = [
            (1, WeightScheme::OffsetBinary, 4, 4),
            (511, WeightScheme::OffsetBinary, 7, 1),
            (512, WeightScheme::Differential, 8, 2),
            (513, WeightScheme::OffsetBinary, 6, 2),
            (1300, WeightScheme::Differential, 5, 2),
            (4096, WeightScheme::Differential, 8, 2),
        ];
        // 5 rows take the set table, 10 the row sums.
        let short = [-90i64, 127, 0, 45, -3];
        let long = [-90i64, 127, 0, 45, -3, 64, -1, 0, 33, -127];
        for (x, (phys, scheme, weight_bits, bits_per_cell)) in [&short[..], &long[..]]
            .into_iter()
            .flat_map(|x| shapes.map(|shape| (x, shape)))
        {
            // f64 column sums (saturating) and the i128 path (ideal ADC).
            for adc in [full.adc, AdcModel::Ideal] {
                let mut cfg = XbarConfig {
                    scheme,
                    weight_bits,
                    adc,
                    ..full
                };
                cfg.cell.bits_per_cell = bits_per_cell;
                let cols = phys / cfg.phys_cols_per_weight();
                let span = 2 * cfg.weight_bound() + 1;
                let weights: Vec<Vec<i64>> = (0..x.len())
                    .map(|r| {
                        (0..cols)
                            .map(|c| (r * 31 + c * 7) as i64 % span - cfg.weight_bound())
                            .collect()
                    })
                    .collect();
                let a = CrossbarArray::program(&cfg, &weights).unwrap();
                assert_eq!(a.phys_cols(), phys);
                let mut scratch = VmmScratch::new();
                let mut out = vec![0i64; cols];
                for prec in ExecPrecision::ALL {
                    let k = a.effective_dropped_bits(prec);
                    let trunc: Vec<i64> = x
                        .iter()
                        .map(|&v| CrossbarArray::truncate_input(v, k))
                        .collect();
                    a.vmm_analog_batch_at(x, 1, &mut scratch, &mut out, prec);
                    let want = a.vmm_analog_reference(&trunc);
                    let rows = x.len();
                    assert_eq!(out, want, "{rows} rows, {phys} columns, {adc:?}, {prec}");
                }
            }
        }
    }

    #[test]
    fn ranged_kernel_writes_only_its_ranges() {
        // 200 weights x 8 = 1600 physical columns: ranges cross tiles. 6
        // rows take the set table, 11 the row sums.
        let cfg = XbarConfig::preset("full").unwrap();
        let short = [17i64, -127, 0, 64, 5, -33];
        let long = [17i64, -127, 0, 64, 5, -33, 90, 0, -2, 127, 1];
        let mut scratch = VmmScratch::new();
        let cases = [
            vec![0..1, 3..4],
            vec![1..2, 4..140, 150..200],
            std::iter::once(0..200).collect(),
            vec![],
        ];
        for (x, prec) in [&short[..], &long[..]]
            .into_iter()
            .flat_map(|x| ExecPrecision::ALL.map(|prec| (x, prec)))
        {
            let a = CrossbarArray::program(&cfg, &ramp_weights(x.len(), 200)).unwrap();
            let mut whole = vec![0i64; 200];
            a.vmm_analog_batch_at(x, 1, &mut scratch, &mut whole, prec);
            for ranges in &cases {
                let mut out = vec![i64::MIN; 200];
                let it = ranges.iter().cloned();
                a.vmm_analog_ranges(a.plane(), x, 1, it, &mut scratch, &mut out, prec);
                for (m, (&got, &want)) in out.iter().zip(&whole).enumerate() {
                    let inside = ranges.iter().any(|r| r.contains(&m));
                    let want = if inside { want } else { i64::MIN };
                    let rows = x.len();
                    assert_eq!(got, want, "{rows} rows, column {m} of {ranges:?} at {prec}");
                }
            }
        }
    }

    /// Planes of 1 to 4 rows (set tables) and of 9 to 12 (row sums), wide
    /// enough for several tiles: an input's phases pulse few distinct row
    /// sets, and inputs 3 and 5 repeat inputs 0 and 1. Every input equals
    /// the reference on its own, and columns outside the ranges stay
    /// untouched.
    #[test]
    fn shared_row_sets_match_reference_per_input() {
        let full = XbarConfig::preset("full").unwrap();
        let cols = 300; // 4 or 8 physical columns each: past one tile
        let ranges = [0..3, 40..300];
        for rows in (1..=4).chain(9..=12) {
            for scheme in [WeightScheme::Differential, WeightScheme::OffsetBinary] {
                for adc in [full.adc, AdcModel::Ideal] {
                    let cfg = XbarConfig {
                        scheme,
                        adc,
                        ..full
                    };
                    let a = CrossbarArray::program(&cfg, &ramp_weights(rows, cols)).unwrap();
                    assert_eq!(a.plane().table.is_empty(), rows > TABLE_ROWS);
                    let inputs: Vec<i64> = [0, 1, 2, 0, 3, 1]
                        .iter()
                        .flat_map(|&k| {
                            (0..rows).map(move |r| ((k * 37 + r * 11) % 255) as i64 - 127)
                        })
                        .collect();
                    let n = inputs.len() / rows;
                    let mut scratch = VmmScratch::new();
                    for prec in ExecPrecision::ALL {
                        let mut out = vec![i64::MIN; n * cols];
                        let it = ranges.iter().cloned();
                        a.vmm_analog_ranges(
                            a.plane(),
                            &inputs,
                            n,
                            it,
                            &mut scratch,
                            &mut out,
                            prec,
                        );
                        let k = a.effective_dropped_bits(prec);
                        for (x, got) in inputs.chunks_exact(rows).zip(out.chunks_exact(cols)) {
                            let trunc: Vec<i64> = x
                                .iter()
                                .map(|&v| CrossbarArray::truncate_input(v, k))
                                .collect();
                            let want = a.vmm_analog_reference(&trunc);
                            for (m, (&got, &want)) in got.iter().zip(&want).enumerate() {
                                let inside = ranges.iter().any(|r| r.contains(&m));
                                let want = if inside { want } else { i64::MIN };
                                assert_eq!(got, want, "{rows} rows, {scheme:?}, {adc:?}, {prec}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every active-row set of a plane of 1 to 8 rows, driven at either
    /// polarity and at every tier, reads out from the set table exactly
    /// what the reference pipeline computes, in both schemes, with an
    /// ideal, an 8-bit and a 44- or 50-bit saturating converter; a
    /// 9-row plane carries no table.
    #[test]
    fn set_tables_match_reference_on_every_set() {
        let full = XbarConfig::preset("full").unwrap();
        let adcs = [
            AdcModel::Ideal,
            AdcModel::Saturating { bits: 8 },
            AdcModel::Saturating { bits: 44 },
            AdcModel::Saturating { bits: 50 },
        ];
        for rows in 1..=9 {
            for scheme in [WeightScheme::Differential, WeightScheme::OffsetBinary] {
                for adc in adcs {
                    let cfg = XbarConfig {
                        scheme,
                        adc,
                        ..full
                    };
                    let a = CrossbarArray::program(&cfg, &narrow_weights(rows, 5, 5)).unwrap();
                    let sets = (1usize << rows) - 1;
                    if rows > TABLE_ROWS {
                        assert!(a.plane().table.is_empty(), "{rows} rows");
                        continue;
                    }
                    assert_eq!(a.plane().table.len(), sets * 5);
                    let mut scratch = VmmScratch::new();
                    let mut out = vec![0i64; 5];
                    for (mask, sign, prec) in (1..=sets).flat_map(|mask| {
                        [1i64, -1].into_iter().flat_map(move |sign| {
                            ExecPrecision::ALL.map(move |prec| (mask, sign, prec))
                        })
                    }) {
                        // Magnitudes with high and low bits, so every tier
                        // keeps some phases and drops others.
                        let x: Vec<i64> = (0..rows)
                            .map(|r| match mask >> r & 1 {
                                1 => sign * [127, 65, 96, 3, 81][r % 5],
                                _ => 0,
                            })
                            .collect();
                        a.vmm_analog_batch_at(&x, 1, &mut scratch, &mut out, prec);
                        let k = a.effective_dropped_bits(prec);
                        let trunc: Vec<i64> = x
                            .iter()
                            .map(|&v| CrossbarArray::truncate_input(v, k))
                            .collect();
                        let want = a.vmm_analog_reference(&trunc);
                        assert_eq!(out, want, "{rows} rows {scheme:?} {adc:?} {x:?} {prec}");
                    }
                }
            }
        }
    }

    #[test]
    fn row_sums_keep_the_ascending_addition_chain() {
        // Quantization absorbs most last-bit differences, so a reordered
        // f64 sum can pass the end-to-end tests on typical planes. This
        // plane cancels catastrophically, so any other association of a
        // column's rows changes the sum's bits.
        let values = [1e16, 1.0, -1e16, 3.0, 0.1, -2.5e15, 7.0, 1.0, 0.3];
        let pc = 14;
        let plane: Vec<f64> = (0..9 * pc).map(|i| values[(i / pc + i % pc) % 9]).collect();
        // A tile of 5 columns from column 3 reads only its own columns.
        let (c0, w) = (3, 5);
        let mut sums = vec![f64::NAN; w];
        for n in 1..=9u32 {
            let active: Vec<u32> = (0..n).collect();
            sum_rows(&plane, pc, c0, &active, &mut sums);
            for (c, &s) in (c0..).zip(&sums) {
                let chain = active
                    .iter()
                    .fold(0.0, |x, &r| x + plane[r as usize * pc + c]);
                assert_eq!(s.to_bits(), chain.to_bits(), "{n} rows, column {c}");
            }
        }
    }

    #[test]
    fn fused_conversion_codes_match_quantize() {
        let two52 = (1u64 << 52) as f64;
        let specials = [
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
            two52 - 1.0,
            two52 + 1.0,
        ];
        for bits in [1u32, 4, 8, 16, 45] {
            let adc = AdcModel::Saturating { bits };
            let max = (1i64 << bits) - 1;
            // Every k ± 0.5 threshold from -0.5 up to max + 0.5; past
            // 2^16 codes, the first and last 2^16 and those around every
            // power of two.
            let ks: Vec<i64> = if bits <= 16 {
                (-1..=max).collect()
            } else {
                (-1..=1 << 16)
                    .chain(max - (1 << 16)..=max)
                    .chain((17..bits).flat_map(|j| (1i64 << j) - 2..=(1i64 << j) + 1))
                    .collect()
            };
            let raw: Vec<f64> = ks
                .iter()
                .map(|&k| k as f64 + 0.5)
                .flat_map(within_4_ulps)
                .chain(specials.into_iter().flat_map(within_4_ulps))
                .collect();
            // Identity normalization, so each column's sum is its code.
            let mut codes = vec![0.0; raw.len()];
            convert(&mut codes, &raw, 0.0, 1.0, max as f64, 1.0);
            for (&x, &code) in raw.iter().zip(&codes) {
                assert_eq!(code, adc.quantize(x) as f64, "bits {bits}, raw {x:e}");
            }
            // A phase's scale ±2^bit multiplies the code exactly.
            let mut scaled = vec![0.0; raw.len()];
            convert(&mut scaled, &raw, 0.0, 1.0, max as f64, -64.0);
            for ((&x, &code), &s) in raw.iter().zip(&codes).zip(&scaled) {
                assert_eq!(s, -64.0 * code, "bits {bits}, raw {x:e}");
            }
        }
    }

    #[test]
    fn f64_column_sums_stay_exact_up_to_the_53_bit_bound() {
        // 8-bit inputs stream 7 magnitude bits: a 45-bit converter meets
        // bits + mag + 1 = 53 and takes the f64 sums; a 46-bit one is 54
        // and falls back to i128. Conductances `g_min + c·g_step` with `c`
        // near the converter's full scale drive codes to its top, so the
        // f64 path sums up to (2^45 - 1)(2^7 - 1), just under 2^52. At 3
        // rows the set table holds those values; 10 rows, the last 7
        // driven by 0, take the row sums, which then reach the same codes.
        for (bits, fused, rows) in [(45u32, true), (46, false)]
            .into_iter()
            .flat_map(|(bits, fused)| [3, 10].map(|rows| (bits, fused, rows)))
        {
            let cfg = XbarConfig {
                adc: AdcModel::Saturating { bits },
                ..XbarConfig::ideal()
            };
            let mut a = CrossbarArray::program(&cfg, &ramp_weights(rows, 2)).unwrap();
            assert_eq!(a.f64_full_scale().is_some(), fused, "{bits} bits");
            let full = ((1u64 << bits) - 1) as f64;
            let levels = [
                full - 0.3,
                full + 0.7,
                full * 0.5 + 0.5,
                0.49,
                3.5,
                full * 2.0,
            ];
            let (g_min, g_step) = (a.g_min, a.g_step);
            for (i, g) in a.hold_conductances().iter_mut().enumerate() {
                *g = g_min + levels[i % levels.len()] * g_step;
            }
            a.rebuild_plane();
            assert_eq!(a.plane().table.is_empty(), rows > TABLE_ROWS);
            for x in [[127, -127, 127], [127, 127, -127], [-1, 64, 127], [0, 0, 5]] {
                let x: Vec<i64> = x.into_iter().chain([0; 7]).take(rows).collect();
                assert_eq!(
                    analog(&a, &x),
                    a.vmm_analog_reference(&x),
                    "{bits} bits, {rows} rows, input {x:?}"
                );
            }
        }
    }

    #[test]
    fn vmm_dispatches_to_exact_when_ideal() {
        let cfg = XbarConfig::ideal();
        let a = CrossbarArray::program(&cfg, &ramp_weights(4, 3)).unwrap();
        let x = vec![1, -2, 3, -4];
        assert_eq!(a.vmm(&x), a.vmm_exact(&x));
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let cfg = XbarConfig::ideal();
        let a = CrossbarArray::program(&cfg, &ramp_weights(6, 2)).unwrap();
        assert_eq!(analog(&a, &[0; 6]), vec![0, 0]);
    }

    #[test]
    fn saturating_adc_clips_large_sums() {
        // 64 rows of max weight, max input: per-phase column counts far
        // exceed 3 bits -> saturation must reduce the result magnitude.
        let mut cfg = XbarConfig::ideal();
        cfg.adc = AdcModel::Saturating { bits: 3 };
        let w = vec![vec![127i64]; 64];
        let a = CrossbarArray::program(&cfg, &w).unwrap();
        let x = vec![127i64; 64];
        let exact: i64 = a.vmm_exact(&x)[0];
        let analog = analog(&a, &x)[0];
        assert!(
            analog < exact,
            "saturated {analog} must be below exact {exact}"
        );
        assert!(analog > 0);
    }

    #[test]
    fn variation_perturbs_but_preserves_scale() {
        let cfg = XbarConfig::noisy(0.02, 0.0, 0.0, 99);
        let w = ramp_weights(32, 4);
        let a = CrossbarArray::program(&cfg, &w).unwrap();
        let x: Vec<i64> = (0..32).map(|i| (i % 100) as i64).collect();
        let exact = a.vmm_exact(&x);
        let noisy = a.vmm(&x);
        for (e, n) in exact.iter().zip(&noisy) {
            let denom = (e.abs().max(100)) as f64;
            assert!(
                ((e - n).abs() as f64) / denom < 0.5,
                "noisy {n} too far from exact {e}"
            );
        }
    }

    #[test]
    fn stuck_off_everything_zeroes_output() {
        let cfg = XbarConfig::noisy(0.0, 1.0, 0.0, 5); // all cells stuck off
        let w = ramp_weights(8, 3);
        let a = CrossbarArray::program(&cfg, &w).unwrap();
        let x = vec![50i64; 8];
        assert_eq!(a.vmm(&x), vec![0, 0, 0]);
    }

    #[test]
    fn weight_out_of_range_rejected() {
        let cfg = XbarConfig::ideal();
        assert!(matches!(
            CrossbarArray::program(&cfg, &[vec![128]]),
            Err(XbarError::WeightOutOfRange {
                value: 128,
                bound: 127
            })
        ));
        assert!(CrossbarArray::program(&cfg, &[vec![-127]]).is_ok());
    }

    #[test]
    fn ragged_and_empty_matrices_rejected() {
        let cfg = XbarConfig::ideal();
        assert!(CrossbarArray::program(&cfg, &[]).is_err());
        assert!(CrossbarArray::program(&cfg, &[vec![]]).is_err());
        assert!(CrossbarArray::program(&cfg, &[vec![1, 2], vec![3]]).is_err());
    }

    #[test]
    fn geometry_accessors() {
        let cfg = XbarConfig::ideal();
        let a = CrossbarArray::program(&cfg, &ramp_weights(5, 3)).unwrap();
        assert_eq!(a.rows(), 5);
        assert_eq!(a.weight_cols(), 3);
        assert_eq!(a.phys_cols(), 3 * cfg.phys_cols_per_weight());
        assert_eq!(a.weight(2, 1), (2 * 31 + 7) as i64 - 127);
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let ideal = XbarConfig::ideal();
        let noisy = XbarConfig::noisy(0.01, 0.002, 0.001, 42);
        for cfg in [ideal, noisy] {
            let a = CrossbarArray::program(&cfg, &ramp_weights(13, 6)).unwrap();
            let x: Vec<i64> = (0..13).map(|i| ((i * 17) % 255) as i64 - 127).collect();
            let mut scratch = VmmScratch::new();
            let mut out = vec![0i64; 6];
            a.vmm_batch_cols(
                &x,
                1,
                once(0..6),
                &mut scratch,
                &mut out,
                ExecPrecision::Full,
            );
            assert_eq!(out, a.vmm(&x));
            // Scratch reuse across calls with different inputs stays exact.
            let y: Vec<i64> = x.iter().map(|v| -v / 2).collect();
            a.vmm_batch_cols(
                &y,
                1,
                once(0..6),
                &mut scratch,
                &mut out,
                ExecPrecision::Full,
            );
            assert_eq!(out, a.vmm(&y));
        }
    }

    #[test]
    fn one_scratch_serves_arrays_of_different_geometry() {
        let cfg = XbarConfig::noisy(0.01, 0.0, 0.0, 3);
        let small = CrossbarArray::program(&cfg, &ramp_weights(4, 2)).unwrap();
        let big = CrossbarArray::program(&cfg, &ramp_weights(19, 7)).unwrap();
        let mut scratch = VmmScratch::new();
        let xs: Vec<i64> = (0..4).map(|i| i as i64 - 2).collect();
        let xb: Vec<i64> = (0..19).map(|i| (i * 3) as i64 - 20).collect();
        let mut os = vec![0i64; 2];
        let mut ob = vec![0i64; 7];
        big.vmm_batch_cols(
            &xb,
            1,
            once(0..7),
            &mut scratch,
            &mut ob,
            ExecPrecision::Full,
        );
        small.vmm_batch_cols(
            &xs,
            1,
            once(0..2),
            &mut scratch,
            &mut os,
            ExecPrecision::Full,
        );
        assert_eq!(ob, big.vmm(&xb));
        assert_eq!(os, small.vmm(&xs));
    }

    #[test]
    fn vmm_batch_bit_exact_vs_per_input() {
        // Small matrix: the cache-resident per-input path.
        // 2048 x 64 (exactly the 1 MiB blocking threshold): the blocked
        // path, with rows crossing several ROW_BLOCK seams.
        let cfg = XbarConfig::ideal();
        for (rows, cols) in [(150usize, 5usize), (2048, 64)] {
            let a = CrossbarArray::program(&cfg, &ramp_weights(rows, cols)).unwrap();
            let n = 3;
            let inputs: Vec<i64> = (0..n * rows)
                .map(|i| ((i * 31) % 255) as i64 - 127)
                .collect();
            let mut out = vec![0i64; n * cols];
            a.vmm_batch_cols(
                &inputs,
                n,
                once(0..cols),
                &mut VmmScratch::new(),
                &mut out,
                ExecPrecision::Full,
            );
            for (k, chunk) in inputs.chunks_exact(rows).enumerate() {
                assert_eq!(
                    &out[k * cols..(k + 1) * cols],
                    a.vmm_exact(chunk),
                    "input {k} of {rows}x{cols}"
                );
            }
        }
    }

    #[test]
    fn vmm_batch_falls_back_to_analog_when_noisy() {
        let cfg = XbarConfig::noisy(0.015, 0.001, 0.0, 9);
        let a = CrossbarArray::program(&cfg, &ramp_weights(24, 4)).unwrap();
        let n = 3;
        let inputs: Vec<i64> = (0..n * 24).map(|i| ((i * 13) % 200) as i64 - 99).collect();
        let mut out = vec![0i64; n * 4];
        a.vmm_batch_cols(
            &inputs,
            n,
            once(0..4),
            &mut VmmScratch::new(),
            &mut out,
            ExecPrecision::Full,
        );
        for (k, chunk) in inputs.chunks_exact(24).enumerate() {
            assert_eq!(&out[k * 4..(k + 1) * 4], a.vmm(chunk), "input {k}");
        }
    }

    #[test]
    fn analog_batch_bit_exact_vs_reference_per_input() {
        for (i, cfg) in nonideal_lineup().into_iter().enumerate() {
            let rows = 37;
            let cols = 4;
            let a = CrossbarArray::program(&cfg, &ramp_weights(rows, cols)).unwrap();
            let n = 3;
            let inputs: Vec<i64> = (0..n * rows)
                .map(|i| ((i * 23) % 255) as i64 - 127)
                .collect();
            let mut out = vec![0i64; n * cols];
            let mut scratch = VmmScratch::new();
            a.vmm_analog_batch_at(&inputs, n, &mut scratch, &mut out, ExecPrecision::Full);
            for (k, chunk) in inputs.chunks_exact(rows).enumerate() {
                assert_eq!(
                    &out[k * cols..(k + 1) * cols],
                    a.vmm_analog_reference(chunk),
                    "config {i}, input {k}"
                );
            }
        }
    }

    #[test]
    fn analog_batch_above_threshold_bit_exact_and_gated() {
        // 512 x 128 differential 8-bit: phys plane = 512 x 1024 f64 =
        // 4 MiB, well past the last-level cache of the baseline host.
        let cfg = XbarConfig::noisy(0.02, 0.0005, 0.0, 17);
        let a = CrossbarArray::program(&cfg, &ramp_weights(512, 128)).unwrap();
        assert!(!a.batching_pays()); // not ideal: no exact path to block
        let n = 3;
        let inputs: Vec<i64> = (0..n * 512)
            .map(|i| ((i * 29) % 255) as i64 - 127)
            .collect();
        let mut out = vec![0i64; n * 128];
        let mut scratch = VmmScratch::new();
        a.vmm_analog_batch(&inputs, n, &mut scratch, &mut out);
        for (k, chunk) in inputs.chunks_exact(512).enumerate() {
            assert_eq!(&out[k * 128..(k + 1) * 128], a.vmm(chunk), "input {k}");
        }
    }

    #[test]
    fn batching_pays_tracks_weight_size_and_ideality() {
        let small_noisy =
            CrossbarArray::program(&XbarConfig::noisy(0.02, 0.0, 0.0, 1), &ramp_weights(24, 4))
                .unwrap();
        assert!(!small_noisy.batching_pays());
        let big_ideal =
            CrossbarArray::program(&XbarConfig::ideal(), &ramp_weights(2048, 64)).unwrap();
        assert!(big_ideal.batching_pays()); // weights = 1 MiB, exact blocking
    }

    #[test]
    fn is_ideal_tracks_configuration() {
        let a = CrossbarArray::program(&XbarConfig::ideal(), &ramp_weights(3, 2)).unwrap();
        assert!(a.is_ideal());
        let noisy =
            CrossbarArray::program(&XbarConfig::noisy(0.02, 0.0, 0.0, 1), &ramp_weights(3, 2))
                .unwrap();
        assert!(!noisy.is_ideal());
    }

    #[test]
    fn full_tier_is_bit_identical_everywhere() {
        let mut cfgs = nonideal_lineup();
        cfgs.push(XbarConfig::ideal());
        for (i, cfg) in cfgs.into_iter().enumerate() {
            let a = CrossbarArray::program(&cfg, &ramp_weights(21, 4)).unwrap();
            let x: Vec<i64> = (0..21).map(|i| ((i * 37) % 255) as i64 - 127).collect();
            let mut scratch = VmmScratch::new();
            let mut out = vec![0i64; 4];
            a.vmm_batch_cols(
                &x,
                1,
                once(0..4),
                &mut scratch,
                &mut out,
                ExecPrecision::Full,
            );
            assert_eq!(out, a.vmm(&x), "config {i}");
            let n = 3;
            let inputs: Vec<i64> = (0..n * 21).map(|i| ((i * 11) % 255) as i64 - 127).collect();
            let mut bout = vec![0i64; n * 4];
            a.vmm_batch_cols(
                &inputs,
                n,
                once(0..4),
                &mut scratch,
                &mut bout,
                ExecPrecision::Full,
            );
            for (k, chunk) in inputs.chunks_exact(21).enumerate() {
                assert_eq!(
                    &bout[k * 4..(k + 1) * 4],
                    a.vmm(chunk),
                    "config {i} batch {k}"
                );
            }
        }
    }

    #[test]
    fn degraded_tier_equals_full_pipeline_on_truncated_inputs() {
        // The phase-window identity: skipping the k lowest buckets IS
        // running the full pipeline on inputs with those bits zeroed.
        for (i, cfg) in nonideal_lineup().into_iter().enumerate() {
            let a = CrossbarArray::program(&cfg, &ramp_weights(23, 5)).unwrap();
            let x: Vec<i64> = (0..23).map(|i| ((i * 19) % 255) as i64 - 127).collect();
            for prec in [ExecPrecision::Eco, ExecPrecision::Brownout] {
                let k = prec.dropped_bits();
                let trunc: Vec<i64> = x
                    .iter()
                    .map(|&v| CrossbarArray::truncate_input(v, k))
                    .collect();
                let mut scratch = VmmScratch::new();
                let mut out = vec![0i64; 5];
                a.vmm_batch_cols(&x, 1, once(0..5), &mut scratch, &mut out, prec);
                assert_eq!(out, a.vmm_analog_reference(&trunc), "config {i} {prec}");
            }
        }
    }

    #[test]
    fn degraded_batch_matches_per_input() {
        for (i, cfg) in nonideal_lineup().into_iter().enumerate() {
            let rows = 37;
            let cols = 4;
            let a = CrossbarArray::program(&cfg, &ramp_weights(rows, cols)).unwrap();
            let n = 3;
            let inputs: Vec<i64> = (0..n * rows)
                .map(|i| ((i * 23) % 255) as i64 - 127)
                .collect();
            for prec in [ExecPrecision::Eco, ExecPrecision::Brownout] {
                let mut scratch = VmmScratch::new();
                let mut batch = vec![0i64; n * cols];
                a.vmm_analog_batch_at(&inputs, n, &mut scratch, &mut batch, prec);
                for (k, chunk) in inputs.chunks_exact(rows).enumerate() {
                    let mut one = vec![0i64; cols];
                    a.vmm_batch_cols(chunk, 1, once(0..cols), &mut scratch, &mut one, prec);
                    assert_eq!(
                        &batch[k * cols..(k + 1) * cols],
                        one.as_slice(),
                        "config {i}, input {k}, {prec}"
                    );
                }
            }
        }
    }

    #[test]
    fn ideal_tier_truncates_the_exact_path() {
        let cfg = XbarConfig::ideal();
        let a = CrossbarArray::program(&cfg, &ramp_weights(13, 3)).unwrap();
        let x: Vec<i64> = (0..13).map(|i| ((i * 41) % 255) as i64 - 127).collect();
        let trunc: Vec<i64> = x
            .iter()
            .map(|&v| CrossbarArray::truncate_input(v, 4))
            .collect();
        let mut scratch = VmmScratch::new();
        let mut out = vec![0i64; 3];
        a.vmm_batch_cols(
            &x,
            1,
            once(0..3),
            &mut scratch,
            &mut out,
            ExecPrecision::Brownout,
        );
        assert_eq!(out, a.vmm_exact(&trunc));
        let n = 2;
        let inputs: Vec<i64> = (0..n * 13).map(|i| ((i * 7) % 255) as i64 - 127).collect();
        let mut bout = vec![0i64; n * 3];
        a.vmm_batch_cols(
            &inputs,
            n,
            once(0..3),
            &mut scratch,
            &mut bout,
            ExecPrecision::Brownout,
        );
        for (k, chunk) in inputs.chunks_exact(13).enumerate() {
            let t: Vec<i64> = chunk
                .iter()
                .map(|&v| CrossbarArray::truncate_input(v, 4))
                .collect();
            assert_eq!(&bout[k * 3..(k + 1) * 3], a.vmm_exact(&t), "input {k}");
        }
    }

    #[test]
    fn error_bound_monotone_and_observed_within() {
        let mut cfgs = nonideal_lineup();
        cfgs.push(XbarConfig::ideal());
        for (i, cfg) in cfgs.into_iter().enumerate() {
            let a = CrossbarArray::program(&cfg, &ramp_weights(29, 4)).unwrap();
            let mut prev = 0.0f64;
            for k in 0..8 {
                let b = a.truncation_error_bound_bits(k);
                assert!(b >= prev, "config {i}: bound fell {prev} -> {b} at k={k}");
                prev = b;
            }
            assert_eq!(a.truncation_error_bound_bits(0), 0.0);
            let x: Vec<i64> = (0..29).map(|i| ((i * 31) % 255) as i64 - 127).collect();
            let full = a.vmm(&x);
            for prec in ExecPrecision::ALL {
                let mut scratch = VmmScratch::new();
                let mut out = vec![0i64; 4];
                a.vmm_batch_cols(&x, 1, once(0..4), &mut scratch, &mut out, prec);
                let bound = a.truncation_error_bound(prec);
                for (m, (&got, &want)) in out.iter().zip(&full).enumerate() {
                    let err = (got - want).abs() as f64;
                    assert!(
                        err <= bound,
                        "config {i} {prec} col {m}: |{got} - {want}| = {err} > bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn dropped_bits_clamp_to_leave_one_live_bit() {
        let cfg = XbarConfig {
            input_bits: 4, // 3 magnitude bits: brownout's 4 clamps to 2
            ..XbarConfig::ideal()
        };
        let a = CrossbarArray::program(&cfg, &ramp_weights(5, 2)).unwrap();
        let x = vec![7, -6, 5, -4, 7];
        let mut scratch = VmmScratch::new();
        let mut out = vec![0i64; 2];
        a.vmm_batch_cols(
            &x,
            1,
            once(0..2),
            &mut scratch,
            &mut out,
            ExecPrecision::Brownout,
        );
        let trunc: Vec<i64> = x
            .iter()
            .map(|&v| CrossbarArray::truncate_input(v, 2))
            .collect();
        assert_eq!(out, a.vmm_exact(&trunc));
        assert!(out.iter().any(|&v| v != 0), "one bit must stay live");
    }

    /// Weights of `rows x cols` within `±bound`, from a ramp.
    fn narrow_weights(rows: usize, cols: usize, bound: i64) -> Vec<Vec<i64>> {
        (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| ((r * 31 + c * 7) as i64 % (2 * bound + 1)) - bound)
                    .collect()
            })
            .collect()
    }

    /// Every mixed-sign input over `rows` rows drawn from `values`.
    fn all_inputs(rows: usize, values: &[i64]) -> Vec<Vec<i64>> {
        (0..values.len().pow(rows as u32))
            .map(|mut k| {
                (0..rows)
                    .map(|_| {
                        let v = values[k % values.len()];
                        k /= values.len();
                        v
                    })
                    .collect()
            })
            .collect()
    }

    /// Live columns of each weight in the array's plane.
    fn live_per_weight(a: &CrossbarArray) -> Vec<u32> {
        a.plane().starts.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// A column whose cells sum to just under half an LSB above the
    /// baseline is dead, and converts to 0 on every set; just over half,
    /// it is live, and the set of both rows converts it to 1. Either way
    /// the kernel equals the reference on every input.
    #[test]
    fn dead_column_threshold_sits_at_half_an_lsb() {
        let adc = XbarConfig::preset("adc").unwrap();
        for cfg in [
            adc,
            XbarConfig {
                adc: AdcModel::Ideal,
                ..adc
            },
        ] {
            for (second, live) in [(0.2 - 1e-9, 0), (0.2 + 1e-9, 1)] {
                // Two rows of zero weights: every cell sits on g_min,
                // except physical column 0's two cells, 0.3 and `second`
                // of a level above it.
                let mut a = CrossbarArray::program(&cfg, &[vec![0], vec![0]]).unwrap();
                let (g_min, g_step, pc) = (a.g_min, a.g_step, a.phys_cols);
                let conductance = a.hold_conductances();
                conductance[0] = g_min + 0.3 * g_step;
                conductance[pc] = g_min + second * g_step;
                a.rebuild_plane();
                assert_eq!(live_per_weight(&a), [live], "{:?}, {second}", cfg.adc);
                assert_eq!(
                    analog(&a, &[1, 1]),
                    [live as i64],
                    "{:?}, {second}",
                    cfg.adc
                );
                for x in all_inputs(2, &[-3, -1, 0, 1, 2]) {
                    assert_eq!(analog(&a, &x), a.vmm_analog_reference(&x), "{x:?}");
                }
            }
        }
    }

    /// Narrow weights leave the upper slices dead; an in-field stuck-on
    /// strike into one revives it, and the rebuilt plane keeps exactly
    /// the columns that hold a cell above the baseline.
    #[test]
    fn stuck_on_strike_revives_a_dead_column() {
        let cfg = XbarConfig::preset("adc").unwrap();
        let mut a = CrossbarArray::program(&cfg, &narrow_weights(6, 8, 1)).unwrap();
        // Live iff some cell of the column conducts above g_min: the
        // converter clamps everything at or below the baseline to 0.
        let expected = |a: &CrossbarArray| -> Vec<u32> {
            (0..a.weight_cols)
                .map(|m| {
                    let cols = m * 8..(m + 1) * 8;
                    let conductance = a.conductances();
                    let above = |c: usize| (0..a.rows).any(|r| conductance[r * 64 + c] > a.g_min);
                    cols.filter(|&c| above(c)).count() as u32
                })
                .collect()
        };
        let before = live_per_weight(&a);
        assert_eq!(before, expected(&a));
        assert!(before.iter().all(|&l| l <= 2), "slice 0 only: {before:?}");
        a.apply_faults(40, 5);
        let after = live_per_weight(&a);
        assert_eq!(after, expected(&a));
        assert!(
            after.iter().sum::<u32>() > before.iter().sum::<u32>(),
            "no dead column revived: {before:?} -> {after:?}"
        );
        for x in all_inputs(6, &[-5, 0, 3]).into_iter().step_by(7) {
            assert_eq!(analog(&a, &x), a.vmm_analog_reference(&x), "{x:?}");
        }
    }

    /// With the ideal converter a column is dead only while its cells'
    /// summed shortfall below the baseline stays under half an LSB too:
    /// 30 days of drift pull 24 code-0 cells about 0.77 LSB below it, so
    /// every column comes alive, and advancing back to fresh cells kills
    /// the upper slices again.
    #[test]
    fn advance_drift_reclassifies_columns() {
        let mut a =
            CrossbarArray::program(&XbarConfig::ideal(), &narrow_weights(24, 4, 1)).unwrap();
        let x: Vec<i64> = (0..24).map(|r| [1, 7, -3][r % 3]).collect();
        let fresh = live_per_weight(&a);
        assert!(fresh.iter().all(|&l| l <= 2), "slice 0 only: {fresh:?}");
        a.advance_drift(DriftModel::after(0.02, 30.0 * 86_400.0));
        assert_eq!(live_per_weight(&a), [8; 4]);
        assert_eq!(analog(&a, &x), a.vmm_analog_reference(&x));
        a.advance_drift(DriftModel::fresh());
        assert_eq!(live_per_weight(&a), fresh);
        assert_eq!(analog(&a, &x), a.vmm_analog_reference(&x));
    }

    /// The truncation bound of an array whose plane elides columns equals,
    /// bit for bit, the bound from the summed deviations of its
    /// full-width plane.
    #[test]
    fn truncation_bound_matches_full_width_plane() {
        let mut elided = 0;
        for cfg in nonideal_lineup() {
            for bound in [1, 5] {
                let a = CrossbarArray::program(&cfg, &narrow_weights(29, 6, bound)).unwrap();
                elided += usize::from(a.plane().live() < a.phys_cols);
                let (v_read, pc) = (cfg.cell.read_voltage, a.phys_cols);
                let baseline_per_row = v_read * a.g_min;
                let mut pos = vec![0.0f64; pc];
                let mut neg = vec![0.0f64; pc];
                for (idx, &g) in a.conductances().iter().enumerate() {
                    let i_eff = cfg
                        .ir_drop
                        .cell_current_a(v_read, g, idx / pc, idx % pc, a.rows);
                    let d = i_eff - baseline_per_row;
                    if d >= 0.0 {
                        pos[idx % pc] += d;
                    } else {
                        neg[idx % pc] -= d;
                    }
                }
                let per_residue = 2.0 * a.phase_value_bound(&pos, &neg);
                for k in 0..8 {
                    let want = a.dropped_residues(k) * per_residue;
                    let got = a.truncation_error_bound_bits(k);
                    assert_eq!(got.to_bits(), want.to_bits(), "{cfg:?}, ±{bound}, {k} bits");
                }
            }
        }
        assert!(elided > 0, "no plane elided a column");
    }

    /// `true` while `a` holds its conductance matrix.
    fn matrix_held(a: &CrossbarArray) -> bool {
        a.conductance.is_some()
    }

    /// An array's plane, bit for bit: currents, live-column starts and
    /// roles, and the per-phase bound.
    fn plane_bits(a: &CrossbarArray) -> (Vec<u64>, Vec<u32>, Vec<u8>, u64) {
        let p = a.plane();
        let currents = p.currents.iter().map(|c| c.to_bits()).collect();
        (
            currents,
            p.starts.clone(),
            p.roles.clone(),
            p.phase_bound.to_bits(),
        )
    }

    /// The replayed conductance matrix equals, bit for bit, the matrix the
    /// programming loop writes cell by cell in row-major order: the fault
    /// drawn first, a variation factor only for a healthy cell, a
    /// differential pair's positive cell before its negative one, drift
    /// last. Heavy fault rates put both stuck polarities in every array.
    #[test]
    fn replayed_matrix_equals_the_programming_loop() {
        let faulty = XbarConfig {
            drift: DriftModel::after(0.02, 86_400.0),
            ..XbarConfig::noisy(0.05, 0.2, 0.2, 3)
        };
        let offset = XbarConfig {
            scheme: WeightScheme::OffsetBinary,
            ..faulty
        };
        for cfg in nonideal_lineup().into_iter().chain([faulty, offset]) {
            for bound in [1, 5, 127] {
                let (rows, cols) = (9, 5);
                let w = narrow_weights(rows, cols, bound);
                let a = CrossbarArray::program(&cfg, &w).unwrap();
                let (per_weight, pc) = (cfg.phys_cols_per_weight(), a.phys_cols);
                let (g_min, g_max) = (1.0 / cfg.cell.r_off_ohm, 1.0 / cfg.cell.r_on_ohm);
                let mask = u64::from(cfg.cell.levels() - 1);
                let (mut variation, mut faults) = (cfg.variation.sampler(), cfg.faults.sampler());
                let mut want = vec![0.0f64; rows * pc];
                for (r, m, s) in (0..rows).flat_map(|r| {
                    (0..cols).flat_map(move |m| (0..cfg.slices()).map(move |s| (r, m, s)))
                }) {
                    let (shift, x) = (s as u32 * cfg.cell.bits_per_cell, w[r][m]);
                    let cells = match cfg.scheme {
                        WeightScheme::Differential => {
                            let code = (x.unsigned_abs() >> shift) & mask;
                            let (p, n) = if x >= 0 { (code, 0) } else { (0, code) };
                            vec![(2 * s, p), (2 * s + 1, n)]
                        }
                        WeightScheme::OffsetBinary => {
                            let stored = (x + (1 << (cfg.weight_bits - 1))) as u64;
                            vec![(s, (stored >> shift) & mask)]
                        }
                    };
                    for (j, code) in cells {
                        let g = match faults.next_fault() {
                            Some(StuckPolarity::StuckOff) => g_min,
                            Some(StuckPolarity::StuckOn) => g_max,
                            None => (g_min + a.g_step * code as f64) * variation.next_factor(),
                        };
                        want[r * pc + m * per_weight + j] = cfg.drift.factor() * g;
                    }
                }
                let bits = |g: &[f64]| g.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a.conductances()), bits(&want), "{cfg:?}, ±{bound}");
            }
        }
    }

    /// A plane built from rows replayed from the configuration equals, bit
    /// for bit, the plane rebuilt from the same array's held matrix, and so
    /// does every truncation bound, on weights that leave columns dead (±1,
    /// ±5) and that fill every slice (±127).
    #[test]
    fn replayed_rows_build_the_plane_a_held_matrix_builds() {
        for cfg in nonideal_lineup() {
            for bound in [1, 5, 127] {
                let a = CrossbarArray::program(&cfg, &narrow_weights(29, 6, bound)).unwrap();
                let mut held = a.clone();
                held.hold_conductances();
                held.rebuild_plane();
                assert!(!matrix_held(&a) && matrix_held(&held));
                assert_eq!(plane_bits(&a), plane_bits(&held), "{cfg:?}, ±{bound}");
                for k in 0..8 {
                    let (got, want) = (
                        a.truncation_error_bound_bits(k),
                        held.truncation_error_bound_bits(k),
                    );
                    assert_eq!(got.to_bits(), want.to_bits(), "{cfg:?}, ±{bound}, {k} bits");
                }
            }
        }
    }

    /// The same strikes and drift advances, applied to a pristine array and
    /// to a clone that already holds its matrix, leave equal planes and
    /// equal kernel and reference outputs after every step.
    #[test]
    fn mutations_match_on_a_clone_that_holds_its_matrix() {
        let x: Vec<i64> = (0..29).map(|r| ((r * 37) % 255) as i64 - 127).collect();
        let steps: [&dyn Fn(&mut CrossbarArray); 4] = [
            &|a| {
                a.apply_faults(12, 3);
            },
            &|a| a.advance_drift(DriftModel::after(0.02, 86_400.0)),
            &|a| {
                a.apply_faults(5, 4);
            },
            &|a| a.advance_drift(DriftModel::after(0.02, 30.0 * 86_400.0)),
        ];
        for cfg in nonideal_lineup().into_iter().chain([XbarConfig::ideal()]) {
            for bound in [1, 5, 127] {
                let mut a = CrossbarArray::program(&cfg, &narrow_weights(29, 6, bound)).unwrap();
                let mut held = a.clone();
                held.hold_conductances();
                for (i, step) in steps.iter().enumerate() {
                    step(&mut a);
                    step(&mut held);
                    let what = format!("{cfg:?}, ±{bound}, step {i}");
                    assert_eq!(plane_bits(&a), plane_bits(&held), "{what}");
                    assert_eq!(analog(&a, &x), analog(&held, &x), "{what}");
                    let reference = a.vmm_analog_reference(&x);
                    assert_eq!(reference, held.vmm_analog_reference(&x), "{what}");
                    assert_eq!(analog(&a, &x), reference, "{what}");
                }
            }
        }
    }

    /// After programming no array holds a matrix and an ideal one holds no
    /// plane; analog and reference reads of an ideal array build its plane
    /// and hold no matrix; a strike or a drift advance leaves the matrix
    /// held; a clone holds what its source holds.
    #[test]
    fn only_mutations_make_an_array_hold_its_matrix() {
        let w = narrow_weights(7, 3, 5);
        let x = [3, -1, 0, 7, 2, -5, 1];
        let ideal = CrossbarArray::program(&XbarConfig::ideal(), &w).unwrap();
        let noisy = CrossbarArray::program(&XbarConfig::preset("full").unwrap(), &w).unwrap();
        assert!(!matrix_held(&ideal) && !ideal.plane_built());
        assert!(!matrix_held(&noisy) && noisy.plane_built());
        let read = ideal.clone();
        assert_eq!(analog(&read, &x), read.vmm_analog_reference(&x));
        assert!(!matrix_held(&read) && read.plane_built());
        let mut arrays = vec![ideal, read];
        for a in [arrays[0].clone(), noisy] {
            let (mut struck, mut drifted) = (a.clone(), a.clone());
            struck.apply_faults(3, 1);
            drifted.advance_drift(DriftModel::after(0.02, 86_400.0));
            assert!(matrix_held(&struck) && matrix_held(&drifted));
            arrays.extend([a, struck, drifted]);
        }
        for a in &arrays {
            let copy = a.clone();
            let held = |a: &CrossbarArray| (matrix_held(a), a.plane_built());
            assert_eq!(held(&copy), held(a));
        }
    }

    #[test]
    fn unrepresentable_widths_are_typed_errors() {
        for (field, bits) in [
            ("bits_per_cell", 0),
            ("bits_per_cell", 16),
            ("input_bits", 0),
            ("input_bits", 64),
            ("weight_bits", 0),
            ("weight_bits", 64),
        ] {
            let mut cfg = XbarConfig::ideal();
            match field {
                "bits_per_cell" => cfg.cell.bits_per_cell = bits,
                "input_bits" => cfg.input_bits = bits,
                _ => cfg.weight_bits = bits,
            }
            let want = Err(XbarError::BadBitWidth { field, bits });
            assert_eq!(CrossbarArray::program(&cfg, &[vec![0]]).map(|_| ()), want);
            let flat = CrossbarArray::program_flat(&cfg, 1, 1, vec![0]);
            assert_eq!(flat.map(|_| ()), want);
        }
    }

    /// 2 rows of 40-bit weights at 40-bit inputs reach 2^79: the exact
    /// path would wrap, so programming refuses the array.
    #[test]
    fn exact_overflow_is_a_typed_error() {
        let cfg = XbarConfig {
            input_bits: 40,
            weight_bits: 40,
            ..XbarConfig::ideal()
        };
        let w = cfg.weight_bound();
        let got = CrossbarArray::program(&cfg, &[vec![w], vec![w]]).map(|_| ());
        let want = XbarError::OutputOverflow {
            rows: 2,
            input_bits: 40,
            weight_bits: 40,
        };
        assert_eq!(got, Err(want));
    }

    /// At the widest input width each configuration of either scheme
    /// accepts for 2 rows of 32-bit weights (one bit more is an
    /// `OutputOverflow`), extreme inputs read out without overflow, the
    /// kernel equal to the reference and, on the ideal array, both equal
    /// to the exact product. Without noise that width is the exact path's
    /// 32 bits: offset binary's code-range bound is 3× too loose there,
    /// and the row bound must accept it. The 2 rows read out from the set
    /// table. The same weight rows repeated to 10 rows, whose widest
    /// exact-path width is 29 bits (`10 · (2^28 − 1) · (2^31 − 1)` stays
    /// below 2^63), take the row sums' `i128` read-out.
    #[test]
    fn widest_accepted_configuration_reads_out_in_range() {
        let adc = XbarConfig::preset("adc").unwrap();
        let variation = XbarConfig::preset("variation").unwrap();
        let schemes = [WeightScheme::Differential, WeightScheme::OffsetBinary];
        for (base, scheme, (rows, exact_widest)) in [XbarConfig::ideal(), adc, variation]
            .into_iter()
            .flat_map(|base| schemes.map(|scheme| (base, scheme)))
            .flat_map(|(base, scheme)| [(2, 32), (10, 29)].map(|rows| (base, scheme, rows)))
        {
            let at = |input_bits| XbarConfig {
                input_bits,
                weight_bits: 32,
                scheme,
                ..base
            };
            let w = at(2).weight_bound();
            let pair = [vec![w, -w, 1], vec![w, w, -1]];
            let weights: Vec<Vec<i64>> = pair.iter().cycle().take(rows).cloned().collect();
            let widest = (2..=63)
                .take_while(|&b| CrossbarArray::program(&at(b), &weights).is_ok())
                .last()
                .expect("2-bit inputs are accepted");
            if base != variation {
                assert_eq!(widest, exact_widest, "{base:?} {scheme:?} {rows} rows");
            }
            if widest < 63 {
                let over = CrossbarArray::program(&at(widest + 1), &weights).map(|_| ());
                assert!(
                    matches!(over, Err(XbarError::OutputOverflow { rows: r, .. }) if r == rows),
                    "{over:?}"
                );
            }
            let a = CrossbarArray::program(&at(widest), &weights).unwrap();
            assert_eq!(a.plane().table.is_empty(), rows > TABLE_ROWS);
            let x = at(widest).input_bound();
            for input in [[x, x], [x, -x], [-x, -x], [x - 1, 1]] {
                let input: Vec<i64> = input.iter().copied().cycle().take(rows).collect();
                let kernel = analog(&a, &input);
                assert_eq!(kernel, a.vmm_analog_reference(&input), "{input:?}");
                if base == XbarConfig::ideal() {
                    let exact: Vec<i64> = (0..3)
                        .map(|m| {
                            let sum: i128 = input
                                .iter()
                                .zip(&weights)
                                .map(|(&x, w)| i128::from(x) * i128::from(w[m]))
                                .sum();
                            i64::try_from(sum).unwrap()
                        })
                        .collect();
                    assert_eq!(a.vmm_exact(&input), exact, "{input:?}");
                    assert_eq!(kernel, exact, "{input:?}");
                }
            }
        }
    }

    /// Both read-out bounds hold every output of every input on 10,000
    /// seeded-random 3 × 2 arrays: either scheme, an ideal converter or
    /// one that clamps at 1–3 bits, variation, drift and low on/off
    /// ratios (whose drifted code-0 cells count −1), and on one array
    /// picked so that a clamp raises negative counts: every term of the
    /// row bound's slack is needed somewhere. On an ideal array the
    /// row bound is what the exact product reaches, and for offset binary
    /// the code-range bound is looser.
    #[test]
    fn readout_bounds_cover_every_output() {
        use red_device::variation::VariationModel;
        let inputs = all_inputs(3, &[-1, 0, 1]);
        let worst = |a: &CrossbarArray| {
            let outputs = inputs.iter().flat_map(|x| a.vmm_analog_reference(x));
            outputs.map(|v| i128::from(v).abs()).max().unwrap()
        };
        let bounds = |a: &CrossbarArray| {
            let (currents, pos, neg) = a.currents_and_deviations();
            let by_codes = a.readout_bound(&a.code_ranges(&pos, &neg)).unwrap();
            (
                by_codes,
                a.row_readout_bound(&currents, &pos, &neg).unwrap(),
            )
        };
        let schemes = [WeightScheme::Differential, WeightScheme::OffsetBinary];
        let mut rng = StdRng::seed_from_u64(1);
        for seed in 0..10_000 {
            let mut cfg = XbarConfig {
                scheme: schemes[rng.gen_range(0usize..2)],
                adc: match rng.gen_range(0..4) {
                    0 => AdcModel::Ideal,
                    bits => AdcModel::Saturating { bits },
                },
                variation: VariationModel::with_sigma(
                    [0.0, 0.05, 0.1][rng.gen_range(0usize..3)],
                    seed,
                ),
                drift: DriftModel::after(rng.gen_range(0.0..0.05), 30.0 * 86_400.0),
                input_bits: 2,
                weight_bits: rng.gen_range(2..=6),
                ..XbarConfig::ideal()
            };
            cfg.cell.r_off_ohm = [22e3, 30e3, 60e3, 500e3][rng.gen_range(0usize..4)];
            let b = cfg.weight_bound();
            let weights: Vec<Vec<i64>> = (0..3)
                .map(|_| (0..2).map(|_| rng.gen_range(-b..=b)).collect())
                .collect();
            let a = CrossbarArray::program(&cfg, &weights).unwrap();
            let (by_codes, by_rows) = bounds(&a);
            let worst = worst(&a);
            assert!(
                worst <= by_codes.min(by_rows),
                "{worst} > {by_codes} or {by_rows}: {cfg:?} {weights:?}"
            );
        }
        // Drifted code-0 cells of a low-ratio cell count −1, and the
        // clamping converter raises such a sum to 0: the row bound's upper
        // end needs the column's summed negative counts here.
        let mut cfg = XbarConfig {
            scheme: WeightScheme::OffsetBinary,
            adc: AdcModel::Saturating { bits: 3 },
            drift: DriftModel::after(0.01, 30.0 * 86_400.0),
            input_bits: 2,
            weight_bits: 6,
            ..XbarConfig::ideal()
        };
        cfg.cell.r_off_ohm = 30e3;
        let a = CrossbarArray::program(&cfg, &[vec![-12, 24], vec![13, -30], vec![13, 9]]).unwrap();
        assert!(worst(&a) <= bounds(&a).1);
        for scheme in schemes {
            let cfg = XbarConfig {
                scheme,
                input_bits: 2,
                weight_bits: 6,
                ..XbarConfig::ideal()
            };
            let weights = narrow_weights(3, 5, cfg.weight_bound());
            let a = CrossbarArray::program(&cfg, &weights).unwrap();
            let (by_codes, by_rows) = bounds(&a);
            let exact = (0..5)
                .map(|m| weights.iter().map(|w| i128::from(w[m].abs())).sum::<i128>())
                .max()
                .unwrap();
            assert_eq!((by_rows, worst(&a)), (exact, exact), "{scheme:?}");
            if scheme == WeightScheme::OffsetBinary {
                assert!(by_codes > by_rows);
            }
        }
    }

    #[test]
    fn program_flat_equivalent_to_nested() {
        let cfg = XbarConfig::ideal();
        let nested = ramp_weights(4, 4);
        let flat: Vec<i64> = nested.iter().flatten().copied().collect();
        let a = CrossbarArray::program(&cfg, &nested).unwrap();
        let b = CrossbarArray::program_flat(&cfg, 4, 4, flat).unwrap();
        let x = vec![9, -8, 7, -6];
        assert_eq!(a.vmm_exact(&x), b.vmm_exact(&x));
    }
}

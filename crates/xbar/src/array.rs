use crate::config::{round_half_away, round_to_code};
use crate::{AdcModel, ExecPrecision, WeightScheme, XbarConfig, XbarError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use red_device::variation::StuckPolarity;
use red_device::DriftModel;
use std::ops::Range;

/// Physical columns per tile of the analog kernel, rounded down to whole
/// weights: one tile's `f64` currents take 4 KiB, so together with the
/// plane row slices a set reads they stay in L1 while the tile is summed.
const TILE_COLS: usize = 512;

/// End of a chain of [`SetUse`]s.
const NO_USE: u32 = u32::MAX;

/// One active-row set of an analog kernel call: the rows one or more
/// conversion phases pulse.
#[derive(Debug, Clone, Copy)]
struct RowSet {
    /// The set's rows, `rows[start..][..len]` of the buffer that lists
    /// them, ascending.
    start: u32,
    len: u32,
    /// The first and last row, the key a set is looked up under with
    /// `len`.
    ends: u64,
    /// The first input's use; any later input's [`SetUse`] is chained
    /// from it through `RowSets::uses`, up to the one at `last`
    /// ([`NO_USE`] while `first` is the only one).
    first: SetUse,
    last: u32,
    /// Number of inputs that pulse it.
    users: u32,
}

/// One input's use of a [`RowSet`]: the merged `Σ ±2^bit` scale of the
/// input's phases whose active rows are exactly the set.
#[derive(Debug, Clone, Copy)]
struct SetUse {
    input: u32,
    scale: i64,
    /// The set's next use, or [`NO_USE`].
    next: u32,
}

impl SetUse {
    fn new(input: usize, scale: i64) -> Self {
        let (input, next) = (input as u32, NO_USE);
        Self { input, scale, next }
    }
}

/// The active-row sets of one kernel run and their uses.
#[derive(Debug, Clone, Default)]
struct RowSets {
    sets: Vec<RowSet>,
    /// The batch-major run's distinct sets' rows, packed.
    rows: Vec<u32>,
    uses: Vec<SetUse>,
    /// Open-addressed lookup of `sets` by `(len, ends)`: set index + 1,
    /// 0 for an empty slot.
    slots: Vec<u32>,
    /// Per input, `Σ ±len · 2^bit` over its live phases: how many offset
    /// units offset binary's reference column subtracts.
    pulses: Vec<i128>,
}

impl RowSets {
    fn clear(&mut self) {
        self.sets.clear();
        self.rows.clear();
        self.uses.clear();
        self.pulses.clear();
    }

    /// Appends a set that `input` pulses at `scale`.
    fn push(&mut self, start: usize, len: u32, ends: u64, input: usize, scale: i64) {
        self.sets.push(RowSet {
            start: start as u32,
            len,
            ends,
            first: SetUse::new(input, scale),
            last: NO_USE,
            users: 1,
        });
    }

    /// Records that `input`'s phase of `scale` pulses set `d`: merged
    /// into the input's use when it already has one (uses arrive in input
    /// order), chained otherwise.
    fn add_use(&mut self, d: usize, input: usize, scale: i64) {
        let u = self.uses.len() as u32;
        let set = &mut self.sets[d];
        let last = match set.last {
            NO_USE => &mut set.first,
            at => &mut self.uses[at as usize],
        };
        if last.input as usize == input {
            last.scale += scale;
            return;
        }
        last.next = u;
        set.last = u;
        set.users += 1;
        self.uses.push(SetUse::new(input, scale));
    }

    /// Lists one input's live phase buckets as sets of their own, their
    /// rows left in the buckets `stride` apart.
    fn list_phases(&mut self, phase_len: &[u32], stride: usize) {
        self.clear();
        let mut pulses = 0;
        for (p, &len) in phase_len.iter().enumerate().filter(|(_, &len)| len > 0) {
            let scale = phase_scale(p);
            pulses += i128::from(len) * i128::from(scale);
            self.push(p * stride, len, 0, 0, scale);
        }
        self.pulses.push(pulses);
    }

    /// The uses of `set`, in input order.
    fn uses_of<'a>(&'a self, set: &'a RowSet) -> impl Iterator<Item = &'a SetUse> {
        let uses = &self.uses;
        std::iter::successors(Some(&set.first), |u| uses.get(u.next as usize))
    }
}

/// One column tile's working sums.
#[derive(Debug, Clone, Default)]
struct TileSums {
    /// Per-physical-column current accumulator for one set (on the `i128`
    /// path, then its baseline-cancelled, LSB-normalized value).
    currents: Vec<f64>,
    /// Per input, the tile's per-physical-column sums of `code · scale`
    /// over the sets only it uses, in `f64`, for converters whose sums
    /// stay exact integers there ([`CrossbarArray::f64_full_scale`]);
    /// then one more tile, a shared set's codes.
    col_sum: Vec<f64>,
    /// The same in `i128` for every other converter.
    col_acc: Vec<i128>,
    /// Per input, the tile's per-weight sums of `scale ·` the shared
    /// sets' recombined codes; then one more row, one shared set's.
    shared: Vec<i128>,
    /// Per input, whether it pulses a set no other input pulses. An input
    /// that does not has all-zero column sums, and its read-out skips
    /// them: on FCN's 2-row planes most inputs share every set, and
    /// recombining their zeros made a batch of 8 take 1.75× as long.
    owns: Vec<bool>,
}

/// The scale `±2^bit` of phase bucket `p = 2·bit + (input < 0)`: analog
/// sums cannot carry input signs, so positive-sign and negative-sign rows
/// pulse in separate phases and subtract digitally (standard practice).
fn phase_scale(p: usize) -> i64 {
    let polarity: i64 = if p.is_multiple_of(2) { 1 } else { -1 };
    polarity << (p / 2)
}

/// Reusable working memory for the analog VMM pipeline.
///
/// [`CrossbarArray::vmm_analog_batch_at`] needs a handful of working
/// buffers (one input's per-phase active-row buckets, the batch's
/// active-row sets, one tile's column currents, and every input's
/// per-column sums of converted codes). A scratch owns them so
/// steady-state execution — thousands of VMMs through the same array —
/// performs no per-call heap allocation: the buffers are grown on first
/// use and reused afterwards. One scratch serves arrays of any geometry
/// (buffers are resized per call), so an engine can share a single
/// scratch across all its sub-crossbars.
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
    /// `SubCrossbarTensor`'s staging for exact tap VMMs: the tap arrays'
    /// input rows (the halved layout's zero-filled `2C` vectors) and one
    /// tap's partial sums.
    pub(crate) tap_inputs: Vec<i64>,
    pub(crate) tap_out: Vec<i64>,
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
/// [`CrossbarArray::vmm_batch_at`] — the entry the engines execute through —
/// dispatches to the fast exact path when the configuration is ideal and
/// to the analog path otherwise.
///
/// Everything the analog path needs that is fixed once the cells are
/// written — conductance, geometry, wire droop, retention drift,
/// variation, stuck-at faults — is frozen at [`CrossbarArray::program`]
/// time into the **effective-current plane** (`i_eff[r][col]`, the read
/// current each cell contributes to its bitline), so a conversion phase
/// is nothing but streaming additions over contiguous row slices of the
/// plane.
#[derive(Debug)]
pub struct CrossbarArray {
    cfg: XbarConfig,
    rows: usize,
    weight_cols: usize,
    phys_cols: usize,
    /// Reference copy of the programmed weights (digital golden model).
    weights: Vec<i64>,
    /// Per-cell conductance in siemens, row-major `rows x phys_cols`,
    /// including programming variation and stuck-at faults.
    conductance: Vec<f64>,
    /// Effective read current per cell in amperes, row-major
    /// `rows x phys_cols`: `i_eff = IrDropModel::cell_current_a(v_read,
    /// g, r, col)` — conductance with wire droop already folded in, so a
    /// conversion phase only sums plane entries. Populated at programming
    /// time for non-ideal configurations (the only ones whose `vmm`
    /// dispatch reaches the analog path); ideal arrays — which only hit
    /// the analog pipeline through explicit `vmm_analog*` calls, e.g. the
    /// equivalence tests — build it lazily on first use, so the exact
    /// serving path never pays the doubled memory.
    eff_current: std::sync::OnceLock<Vec<f64>>,
    g_min: f64,
    g_step: f64,
    /// Cells pinned to a rail by post-programming stuck-at strikes
    /// ([`CrossbarArray::apply_faults`]); counted so `is_ideal` knows the
    /// array left the exact path even under an otherwise ideal config.
    struck: u64,
}

impl Clone for CrossbarArray {
    fn clone(&self) -> Self {
        // OnceLock is not Clone; carry over an already-built plane so a
        // cloned noisy array stays ready-to-run.
        let eff_current = std::sync::OnceLock::new();
        if let Some(plane) = self.eff_current.get() {
            let _ = eff_current.set(plane.clone());
        }
        Self {
            cfg: self.cfg,
            rows: self.rows,
            weight_cols: self.weight_cols,
            phys_cols: self.phys_cols,
            weights: self.weights.clone(),
            conductance: self.conductance.clone(),
            eff_current,
            g_min: self.g_min,
            g_step: self.g_step,
            struck: self.struck,
        }
    }
}

impl CrossbarArray {
    /// Programs an array from a `rows x cols` signed weight matrix.
    ///
    /// Device-to-device variation and stuck-at faults from the
    /// configuration are applied once here, at programming time, exactly
    /// as write-and-verify hardware would freeze them. For non-ideal
    /// configurations the same pass precomputes the effective-current
    /// plane the analog read path sums over (one extra `f64` per cell —
    /// the price of never re-deriving wire droop per conversion phase);
    /// ideal arrays skip it, since their `vmm` dispatch never reaches the
    /// analog path.
    ///
    /// # Errors
    ///
    /// * [`XbarError::BadWeightMatrix`] for an empty or ragged matrix;
    /// * [`XbarError::WeightOutOfRange`] when a weight exceeds
    ///   `±(2^(weight_bits-1) - 1)`.
    pub fn program(cfg: &XbarConfig, weights: &[Vec<i64>]) -> Result<Self, XbarError> {
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

        let slices = cfg.slices();
        let per_weight = cfg.phys_cols_per_weight();
        let phys_cols = weight_cols * per_weight;
        let levels = cfg.cell.levels();
        let g_min = 1.0 / cfg.cell.r_off_ohm;
        let g_max = 1.0 / cfg.cell.r_on_ohm;
        let g_step = (g_max - g_min) / f64::from(levels - 1);
        let bpc = cfg.cell.bits_per_cell;
        let level_mask = u64::from(levels - 1);

        let mut variation = cfg.variation.sampler();
        let mut faults = cfg.faults.sampler();
        // Retention drift scales every programmed filament uniformly (the
        // read circuit's reference levels stay fresh, which is exactly why
        // drifted arrays misread).
        let drift = cfg.drift.factor();
        let mut conductance = vec![0.0f64; rows * phys_cols];

        for r in 0..rows {
            for m in 0..weight_cols {
                let w = weights[r * weight_cols + m];
                for s in 0..slices {
                    let shift = (s as u32) * bpc;
                    match cfg.scheme {
                        WeightScheme::Differential => {
                            let mag = w.unsigned_abs();
                            let code = ((mag >> shift) & level_mask) as u16;
                            let (pos_code, neg_code) = if w >= 0 { (code, 0) } else { (0, code) };
                            let base = r * phys_cols + m * per_weight + 2 * s;
                            conductance[base] = drift
                                * Self::cell_conductance(
                                    pos_code,
                                    g_min,
                                    g_max,
                                    g_step,
                                    &mut variation,
                                    &mut faults,
                                );
                            conductance[base + 1] = drift
                                * Self::cell_conductance(
                                    neg_code,
                                    g_min,
                                    g_max,
                                    g_step,
                                    &mut variation,
                                    &mut faults,
                                );
                        }
                        WeightScheme::OffsetBinary => {
                            let offset = (w + (1i64 << (cfg.weight_bits - 1))) as u64;
                            let code = ((offset >> shift) & level_mask) as u16;
                            let base = r * phys_cols + m * per_weight + s;
                            conductance[base] = drift
                                * Self::cell_conductance(
                                    code,
                                    g_min,
                                    g_max,
                                    g_step,
                                    &mut variation,
                                    &mut faults,
                                );
                        }
                    }
                }
            }
        }

        let arr = Self {
            cfg: *cfg,
            rows,
            weight_cols,
            phys_cols,
            weights,
            conductance,
            eff_current: std::sync::OnceLock::new(),
            g_min,
            g_step,
            struck: 0,
        };
        // Non-ideal configurations freeze the effective-current plane at
        // programming time, exactly like write-and-verify hardware; ideal
        // arrays never reach the analog path through `vmm`, so they defer
        // the build to a first explicit `vmm_analog*` call.
        if !arr.is_ideal() {
            let _ = arr.eff_current.set(arr.build_plane());
        }
        Ok(arr)
    }

    /// Builds the effective-current plane: wire droop depends only on the
    /// cell's position and conductance, both frozen at programming, so it
    /// is folded in once instead of once per cell per conversion phase.
    fn build_plane(&self) -> Vec<f64> {
        let ir = &self.cfg.ir_drop;
        let v_read = self.cfg.cell.read_voltage;
        self.conductance
            .iter()
            .enumerate()
            .map(|(idx, &g)| {
                ir.cell_current_a(
                    v_read,
                    g,
                    idx / self.phys_cols,
                    idx % self.phys_cols,
                    self.rows,
                )
            })
            .collect()
    }

    /// The effective-current plane, built on first use for ideal arrays.
    fn plane(&self) -> &[f64] {
        self.eff_current.get_or_init(|| self.build_plane())
    }

    fn cell_conductance(
        code: u16,
        g_min: f64,
        g_max: f64,
        g_step: f64,
        variation: &mut red_device::variation::VariationSampler,
        faults: &mut red_device::variation::FaultSampler,
    ) -> f64 {
        let ideal = g_min + g_step * f64::from(code);
        match faults.next_fault() {
            Some(StuckPolarity::StuckOff) => g_min,
            Some(StuckPolarity::StuckOn) => g_max,
            None => ideal * variation.next_factor(),
        }
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
    ///
    /// The strike map is a pure function of `(geometry, strikes, seed)`:
    /// two identically programmed arrays struck with the same arguments
    /// end up with identical planes, and repeated incremental calls
    /// compose deterministically (each call draws from its own seeded
    /// stream). Strikes may land on already-struck cells; `struck` counts
    /// strike events, not distinct cells.
    pub fn apply_faults(&mut self, strikes: usize, seed: u64) -> u64 {
        if strikes == 0 {
            return self.struck;
        }
        let levels = self.cfg.cell.levels();
        let g_max = self.g_min + self.g_step * f64::from(levels - 1);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..strikes {
            let idx = rng.gen_range(0..self.conductance.len());
            let on: f64 = rng.gen_range(0.0..1.0);
            self.conductance[idx] = if on < 0.5 { self.g_min } else { g_max };
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
    /// Rebuilds the effective-current plane.
    pub fn advance_drift(&mut self, model: DriftModel) {
        let ratio = model.factor() / self.cfg.drift.factor();
        if ratio != 1.0 {
            for g in &mut self.conductance {
                *g *= ratio;
            }
        }
        self.cfg.drift = model;
        self.rebuild_plane();
    }

    /// Recomputes the effective-current plane from the current
    /// conductances — the modeled analogue of a read-calibration pass
    /// after [`CrossbarArray::apply_faults`] or
    /// [`CrossbarArray::advance_drift`] mutate the cells.
    pub fn rebuild_plane(&mut self) {
        let plane = self.build_plane();
        self.eff_current = std::sync::OnceLock::new();
        let _ = self.eff_current.set(plane);
    }

    /// `true` when [`CrossbarArray::vmm_batch_at`] will actually
    /// cache-block the exact path: the configuration is ideal and the
    /// weight matrix is too large (≥ 1 MiB) to stay resident between
    /// back-to-back per-input passes. Below the threshold a per-input loop
    /// is faster (measured on the committed baseline host).
    ///
    /// The gate is private to that dispatch: no engine consults it. Every
    /// engine hands `vmm_batch_at` the whole batch at each pixel. The
    /// analog path picks its own order from the columns it is asked for:
    /// past one column tile it runs batch-major, every input's phases on
    /// a tile before the next tile, so the tile's plane rows are reused
    /// across the batch and an active-row set that repeats across phases
    /// or inputs is summed and converted once per tile; within one tile
    /// it runs input by input.
    pub fn batching_pays(&self) -> bool {
        const BLOCK_BYTES_MIN: usize = 1 << 20;
        self.is_ideal() && std::mem::size_of_val(self.weights.as_slice()) >= BLOCK_BYTES_MIN
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
        self.exact_cols(input, 0..self.weight_cols, out);
    }

    /// [`CrossbarArray::vmm_exact_into`] over the weight columns in
    /// `cols` alone; the rest of `out` is left as it is.
    fn exact_cols(&self, input: &[i64], cols: Range<usize>, out: &mut [i64]) {
        let out = &mut out[cols.clone()];
        out.fill(0);
        for (r, &x) in input.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let row = &self.weights[r * self.weight_cols..][cols.clone()];
            for (o, &w) in out.iter_mut().zip(row) {
                *o += x * w;
            }
        }
    }

    /// The one execution-time VMM entry: `n` input vectors, flattened
    /// row-major into `inputs` (`n × rows`), produce `n × weight_cols`
    /// results in `out`, at precision tier `prec`.
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
    /// Panics if `inputs.len() != n * rows` or `out.len() != n * weight_cols`.
    pub fn vmm_batch_at(
        &self,
        inputs: &[i64],
        n: usize,
        scratch: &mut VmmScratch,
        out: &mut [i64],
        prec: ExecPrecision,
    ) {
        let all = std::iter::once(0..self.weight_cols);
        self.vmm_batch_cols(inputs, n, all, scratch, out, prec);
    }

    /// [`CrossbarArray::vmm_batch_at`] over the weight columns in `cols`
    /// alone (ascending, disjoint ranges): each input's results in those
    /// columns are written, bit for bit what `vmm_batch_at` writes there,
    /// and the rest of `out` is left as it is. An input-stationary engine
    /// passes the columns of the taps that land in its output.
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
        if !self.is_ideal() {
            self.vmm_analog_ranges(self.plane(), inputs, n, cols, scratch, out, prec);
            return;
        }
        let dropped = self.effective_dropped_bits(prec);
        if dropped == 0 {
            self.exact_batch(inputs, cols, out);
            return;
        }
        scratch.trunc.clear();
        scratch
            .trunc
            .extend(inputs.iter().map(|&x| Self::truncate_input(x, dropped)));
        self.exact_batch(&scratch.trunc, cols, out);
    }

    /// The exact path of [`CrossbarArray::vmm_batch_cols`]. When
    /// [`CrossbarArray::batching_pays`], each column range's weights are
    /// walked in blocks of rows that stay hot while the whole batch
    /// streams over them; otherwise it is a straight per-input loop.
    fn exact_batch(
        &self,
        inputs: &[i64],
        cols: impl Iterator<Item = Range<usize>> + Clone,
        out: &mut [i64],
    ) {
        const ROW_BLOCK: usize = 64;
        let m = self.weight_cols;
        assert!(
            cols.clone().all(|c| c.end <= m),
            "column range out of bounds"
        );
        if !self.batching_pays() {
            for (input, o) in inputs.chunks_exact(self.rows).zip(out.chunks_exact_mut(m)) {
                cols.clone().for_each(|c| self.exact_cols(input, c, o));
            }
            return;
        }
        for c in cols {
            for o in out.chunks_exact_mut(m) {
                o[c.clone()].fill(0);
            }
            for r0 in (0..self.rows).step_by(ROW_BLOCK) {
                let r1 = (r0 + ROW_BLOCK).min(self.rows);
                for (input, o) in inputs.chunks_exact(self.rows).zip(out.chunks_exact_mut(m)) {
                    let o = &mut o[c.clone()];
                    for (r, &x) in (r0..r1).zip(&input[r0..r1]) {
                        if x == 0 {
                            continue;
                        }
                        let row = &self.weights[r * m..][c.clone()];
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
        let full = ExecPrecision::Full;
        self.vmm_batch_at(input, 1, &mut VmmScratch::new(), &mut out, full);
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
    /// plane's `out.len() / n` weight columns' physical columns,
    /// row-major. Only the weight columns in `ranges` (ascending,
    /// disjoint) are evaluated and written, for every input; the rest of
    /// `out` is left as it is. `self` supplies the read-out (converter,
    /// LSB, baseline, scheme), which every array programmed with one
    /// configuration shares — so `SubCrossbarTensor` runs a fused plane of
    /// several arrays' rows through one call.
    ///
    /// Columns are evaluated in tiles of whole weights, at most 512
    /// physical columns. When the ranges hold more than one tile's worth
    /// of weights the call runs batch-major:
    ///
    /// 1. One set-bit pass per input buckets the active rows of every
    ///    conversion phase (magnitude bit × polarity), and the batch's
    ///    distinct active-row sets are gathered. Each set records, per
    ///    input that pulses it, the merged scale `Σ ±2^bit` of that
    ///    input's phases (one input's phases share a set only within one
    ///    polarity, since a row's input has one sign).
    /// 2. Each tile then runs every set (see
    ///    [`CrossbarArray::run_tiles`]) and reads every input out, so a
    ///    tile's plane rows serve the whole batch while they are hot, and
    ///    a set that repeats across phases or inputs is summed and
    ///    converted once per tile.
    ///
    /// A narrower call runs input by input, each phase bucket a set of
    /// its own, its rows read in place: with one tile, batch-major order
    /// would visit the plane just as input order does, and on so few
    /// columns looking sets up costs about what a repeated set saves (the
    /// lineup's zero-padding windows ran slower with it).
    ///
    /// The result is **bit-identical** to
    /// [`CrossbarArray::vmm_analog_reference`] on every input. Tiles only
    /// regroup columns, and a set's currents do not depend on who pulses
    /// it: per column the `f64` additions happen in the reference's
    /// ascending-row order, from `0.0`, and the baseline is cancelled by
    /// the same subtraction and division by `lsb`. The converter rounds
    /// exactly as [`AdcModel::quantize`] does. Everything after
    /// quantization is integer arithmetic — in `f64` only where every
    /// partial sum is an integer below 2^53, which `f64` adds exactly in
    /// any order — so merging a set's scales, and deferring the shift-add
    /// to the read-out, are identities: every output, and every
    /// `accumulator overflow`, matches the per-phase recombination.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn vmm_analog_ranges(
        &self,
        plane: &[f64],
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
        let plane_cols = out_cols * self.cfg.phys_cols_per_weight();
        assert_eq!(plane.len(), rows * plane_cols, "plane must be rows x out");
        let lo = self.effective_dropped_bits(prec);
        let weights: usize = ranges.clone().map(|r| r.len()).sum();
        let VmmScratch {
            phase_rows,
            phase_len,
            sets,
            tile,
            ..
        } = scratch;
        if weights > self.tile_weights() {
            self.collect_sets(inputs, n, lo, phase_rows, phase_len, sets);
            self.run_tiles(plane, ranges, sets, &sets.rows, tile, out);
            return;
        }
        for (input, o) in inputs
            .chunks_exact(rows)
            .zip(out.chunks_exact_mut(out_cols))
        {
            self.bucket_phases(input, lo, phase_rows, phase_len);
            sets.list_phases(phase_len, rows);
            self.run_tiles(plane, ranges.clone(), sets, phase_rows, tile, o);
        }
    }

    /// Weights per column tile: as many as fit in [`TILE_COLS`] physical
    /// columns, at least one.
    fn tile_weights(&self) -> usize {
        (TILE_COLS / self.cfg.phys_cols_per_weight()).max(1)
    }

    /// Evaluates the `sets` (rows listed in `rows`) on every tile of the
    /// weight columns in `ranges`, for the `sets.pulses.len()` inputs whose
    /// results fill `out` row-major. On each tile, each set sums its rows'
    /// contiguous plane slices, four rows per sweep of the tile's
    /// currents, and converts them in one branch-free pass: cancel the
    /// baseline, normalize by the LSB, quantize. A set one input uses adds
    /// `code · scale` straight into that input's column sums. A shared set
    /// converts once into a spare code tile, which is shift-added into
    /// weights once; each user adds its scale times those weights, since
    /// the recombination is linear. The sums are `f64` when they provably
    /// stay exact integers there (a saturating converter with
    /// `bits + magnitude bits + 1 ≤ 53`), so the pass vectorizes, and
    /// `i128` otherwise. Each input's tile is then read out: the shift-add
    /// recombination of its own column sums into weights in `i128`, plus
    /// its shared sets' weights, less offset binary's reference term.
    fn run_tiles(
        &self,
        plane: &[f64],
        ranges: impl Iterator<Item = Range<usize>>,
        sets: &RowSets,
        rows: &[u32],
        tile: &mut TileSums,
        out: &mut [i64],
    ) {
        let n = sets.pulses.len();
        let out_cols = out.len() / n;
        let per_weight = self.cfg.phys_cols_per_weight();
        let plane_cols = out_cols * per_weight;
        let v_read = self.cfg.cell.read_voltage;
        let lsb = v_read * self.g_step;
        let full_scale = self.f64_full_scale();
        let offset = match self.cfg.scheme {
            WeightScheme::Differential => 0,
            // Every active row contributes the fixed offset 2^(wb-1) in
            // each weight, summed digitally from the known pulse count
            // (the hardware's dummy reference column).
            WeightScheme::OffsetBinary => i128::from(1i64 << (self.cfg.weight_bits - 1)),
        };
        let tile_weights = self.tile_weights();
        let width = tile_weights * per_weight;
        let TileSums {
            currents,
            col_sum,
            col_acc,
            shared,
            owns,
        } = tile;
        currents.resize(width, 0.0);
        // Every input's tile sums, then one more tile: a shared set's codes.
        match full_scale {
            Some(_) => col_sum.resize((n + 1) * width, 0.0),
            None => col_acc.resize((n + 1) * width, 0),
        }
        shared.resize((n + 1) * tile_weights, 0);
        owns.clear();
        owns.resize(n, false);
        for set in sets.sets.iter().filter(|set| set.users == 1) {
            owns[set.first.input as usize] = true;
        }
        // Recombines one weight's columns of f64 sums or codes; each is an
        // integer below 2^52, so the truncating cast is exact.
        let recombine = |cols: &[f64]| self.shift_add(cols, |s| i128::from(s as i64));
        for r in ranges {
            assert!(r.end <= out_cols, "column range out of bounds");
            for w0 in r.clone().step_by(tile_weights) {
                let w1 = (w0 + tile_weights).min(r.end);
                let (c0, w) = (w0 * per_weight, (w1 - w0) * per_weight);
                let weights = w1 - w0;
                let currents = &mut currents[..w];
                match full_scale {
                    Some(_) => col_sum[..n * w].fill(0.0),
                    None => col_acc[..n * w].fill(0),
                }
                shared[..n * weights].fill(0);
                for set in &sets.sets {
                    let active = &rows[set.start as usize..][..set.len as usize];
                    sum_rows(plane, plane_cols, c0, active, currents);
                    // The dummy (baseline) column sits next to the sense
                    // amps, so its reference current sees the same droop
                    // statistics as a column-0 read; first-order, the
                    // baseline stays V·g_min per active row.
                    let baseline = set.len as f64 * v_read * self.g_min;
                    let is_shared = set.users > 1;
                    let (at, scale) = match is_shared {
                        true => (n, 1),
                        false => (set.first.input as usize, set.first.scale),
                    };
                    // A shared set's codes land in the spare tile and are
                    // recombined into weights once, into the spare row.
                    let (per_input, spare) = shared.split_at_mut(n * weights);
                    let recombined = &mut spare[..weights];
                    if let Some(max) = full_scale {
                        let sums = &mut col_sum[at * w..][..w];
                        if is_shared {
                            sums.fill(0.0);
                        }
                        convert(sums, currents, baseline, lsb, max, scale as f64);
                        if is_shared {
                            let cols = sums.chunks_exact(per_weight);
                            for (v, cols) in recombined.iter_mut().zip(cols) {
                                *v = recombine(cols);
                            }
                        }
                    } else {
                        normalize(currents, baseline, lsb);
                        let acc = &mut col_acc[at * w..][..w];
                        if is_shared {
                            acc.fill(0);
                        }
                        match self.cfg.adc {
                            AdcModel::Ideal => accumulate(acc, currents, scale, round_half_away),
                            AdcModel::Saturating { bits } => {
                                let max = (1i64 << bits) - 1;
                                accumulate(acc, currents, scale, |x| round_to_code(x, max));
                            }
                        }
                        if is_shared {
                            let cols = acc.chunks_exact(per_weight);
                            for (v, cols) in recombined.iter_mut().zip(cols) {
                                *v = self.shift_add(cols, |c| c);
                            }
                        }
                    }
                    if is_shared {
                        for u in sets.uses_of(set) {
                            let sums = &mut per_input[u.input as usize * weights..][..weights];
                            add_scaled(sums, recombined, i128::from(u.scale));
                        }
                    }
                }
                for (k, &pulses) in sets.pulses.iter().enumerate() {
                    let reference = offset * pulses;
                    let outs = &mut out[k * out_cols..][w0..w1];
                    let from_shared = &shared[k * weights..][..weights];
                    for (m, (o, &from_shared)) in outs.iter_mut().zip(from_shared).enumerate() {
                        let cols = m * per_weight..(m + 1) * per_weight;
                        let own = match full_scale {
                            _ if !owns[k] => 0,
                            Some(_) => recombine(&col_sum[k * w..][cols]),
                            None => self.shift_add(&col_acc[k * w..][cols], |c| c),
                        };
                        let value = own + from_shared - reference;
                        *o = i64::try_from(value).expect("accumulator overflow");
                    }
                }
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
    fn input_mag_bits(&self) -> u32 {
        self.cfg.input_bits.saturating_sub(1).max(1)
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
    /// input reaches stay empty. A block of 8 zero rows — the inserted
    /// zeros of a zero-padded window — costs one OR-reduction.
    fn bucket_phases(
        &self,
        input: &[i64],
        lo: u32,
        phase_rows: &mut Vec<u32>,
        phase_len: &mut Vec<u32>,
    ) {
        const BLOCK: usize = 8;
        let mag_bits = self.input_mag_bits();
        let window = (u64::MAX >> (u64::BITS - mag_bits)) & (u64::MAX << lo);
        let (buckets, rows) = (2 * mag_bits as usize, input.len());
        phase_len.clear();
        phase_len.resize(buckets, 0);
        if phase_rows.len() < buckets * rows {
            phase_rows.resize(buckets * rows, 0);
        }
        for (b, block) in input.chunks(BLOCK).enumerate() {
            if block.iter().fold(0, |any, &x| any | x) == 0 {
                continue;
            }
            for (r, &x) in (b * BLOCK..).zip(block) {
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
    }

    /// Buckets each of the `n` inputs in turn and gathers the batch's
    /// distinct active-row sets into `sets`, in order of first use, their
    /// rows packed in `sets.rows`, with each input's merged scale per set
    /// and its pulse count. A bucket is looked up by its length and its
    /// first and last row, and an equal key is confirmed by comparing the
    /// rows, so only equal row lists are merged. The buckets hold one
    /// input at a time; the packed rows hold each distinct set once.
    fn collect_sets(
        &self,
        inputs: &[i64],
        n: usize,
        lo: u32,
        phase_rows: &mut Vec<u32>,
        phase_len: &mut Vec<u32>,
        sets: &mut RowSets,
    ) {
        let rows = inputs.len() / n;
        // At most half full, so probe sequences stay short.
        let slots = (4 * n * self.input_mag_bits() as usize).next_power_of_two();
        let shift = u64::BITS - slots.trailing_zeros();
        sets.clear();
        sets.slots.clear();
        sets.slots.resize(slots, 0);
        for (k, input) in inputs.chunks_exact(rows).enumerate() {
            self.bucket_phases(input, lo, phase_rows, phase_len);
            let mut pulses = 0;
            for (p, &len) in phase_len.iter().enumerate().filter(|(_, &len)| len > 0) {
                let scale = phase_scale(p);
                pulses += i128::from(len) * i128::from(scale);
                let active = &phase_rows[p * rows..][..len as usize];
                let ends = u64::from(active[0]) << 32 | u64::from(active[active.len() - 1]);
                let hash = (ends ^ u64::from(len) << 20).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut slot = (hash >> shift) as usize;
                loop {
                    let Some(d) = sets.slots[slot].checked_sub(1) else {
                        sets.slots[slot] = sets.sets.len() as u32 + 1;
                        sets.push(sets.rows.len(), len, ends, k, scale);
                        sets.rows.extend_from_slice(active);
                        break;
                    };
                    let set = &sets.sets[d as usize];
                    if (set.len, set.ends) == (len, ends)
                        && sets.rows[set.start as usize..][..active.len()] == *active
                    {
                        sets.add_use(d as usize, k, scale);
                        break;
                    }
                    slot = (slot + 1) & (slots - 1);
                }
            }
            sets.pulses.push(pulses);
        }
    }

    /// Shift-add recombination of one weight's physical-column values
    /// (counts or sums of counts), each read as an integer by `int`:
    /// slice `s` enters at `s·bits_per_cell`, a differential pair as
    /// `pos − neg`.
    fn shift_add<T: Copy>(&self, cols: &[T], int: impl Fn(T) -> i128) -> i128 {
        let bpc = self.cfg.cell.bits_per_cell;
        match self.cfg.scheme {
            WeightScheme::Differential => cols
                .chunks_exact(2)
                .enumerate()
                .map(|(s, pair)| (int(pair[0]) - int(pair[1])) << (s as u32 * bpc))
                .sum(),
            WeightScheme::OffsetBinary => cols
                .iter()
                .enumerate()
                .map(|(s, &v)| int(v) << (s as u32 * bpc))
                .sum(),
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
            2.0 * self.phase_value_bound()
        }
    }

    /// Detaches the effective-current plane, building it first if it is
    /// not built. The array stays usable: its next analog read rebuilds
    /// the identical plane from the conductances.
    pub(crate) fn take_plane(&mut self) -> Vec<f64> {
        self.eff_current
            .take()
            .unwrap_or_else(|| self.build_plane())
    }

    /// `true` while the effective-current plane is built.
    #[cfg(test)]
    pub(crate) fn plane_built(&self) -> bool {
        self.eff_current.get().is_some()
    }

    /// Worst-case |recombined value| of any single conversion phase over
    /// any active-row set, from the frozen plane: per physical column,
    /// split every cell's baseline-cancelled deviation into its positive
    /// and negative parts — any subset's summed deviation lies between
    /// `−N_col` and `P_col`, and the ADC's monotonicity carries the
    /// interval through quantization, the shift-add slices, and (for
    /// offset binary) the `[0, 2^(wb−1)·rows]` reference-sum range.
    fn phase_value_bound(&self) -> f64 {
        let plane = self.plane();
        let v_read = self.cfg.cell.read_voltage;
        let lsb = v_read * self.g_step;
        let baseline_per_row = v_read * self.g_min;
        let mut pos = vec![0.0f64; self.phys_cols];
        let mut neg = vec![0.0f64; self.phys_cols];
        for row in plane.chunks_exact(self.phys_cols) {
            for ((p, n), &i_eff) in pos.iter_mut().zip(&mut neg).zip(row) {
                let d = i_eff - baseline_per_row;
                if d >= 0.0 {
                    *p += d;
                } else {
                    *n -= d;
                }
            }
        }
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
        let ref_max = match self.cfg.scheme {
            WeightScheme::Differential => 0,
            WeightScheme::OffsetBinary => {
                i128::from(1i64 << (self.cfg.weight_bits - 1)) * self.rows as i128
            }
        };
        let per_weight = self.cfg.phys_cols_per_weight();
        upper
            .chunks_exact(per_weight)
            .zip(lower.chunks_exact(per_weight))
            .map(|(u, l)| {
                let hi = self.shift_add(u, i128::from).unsigned_abs();
                hi.max((self.shift_add(l, i128::from) - ref_max).unsigned_abs())
            })
            .max()
            .unwrap_or(0) as f64
    }

    /// The original per-phase-recompute analog pipeline, kept verbatim as
    /// the golden reference: every phase rescans all rows for its active
    /// set, every cell's wire droop is re-derived from the conductance
    /// matrix inside a column-outer strided loop, and every phase
    /// recombines its own counts — no effective-current plane, no
    /// deferred shift-add.
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
                        let g = self.conductance[r * self.phys_cols + col];
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

        acc.iter()
            .map(|&v| i64::try_from(v).expect("accumulator overflow"))
            .collect()
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
/// the set's merged `scale = Σ ±2^bit` (one widening multiply per
/// column).
fn accumulate(sums: &mut [i128], raw: &[f64], scale: i64, quantize: impl Fn(f64) -> i64) {
    for (s, &x) in sums.iter_mut().zip(raw) {
        *s += i128::from(quantize(x)) * i128::from(scale);
    }
}

/// Adds a shared set's recombined weights times one user's merged scale
/// into the user's weight sums. Every term and partial sum is an integer
/// well inside `i128`, so the order in which users add does not matter.
fn add_scaled(sums: &mut [i128], weights: &[i128], scale: i128) {
    for (s, &w) in sums.iter_mut().zip(weights) {
        *s += w * scale;
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
        let x = [-90i64, 127, 0, 45, -3];
        for (phys, scheme, weight_bits, bits_per_cell) in shapes {
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
                    a.vmm_analog_batch_at(&x, 1, &mut scratch, &mut out, prec);
                    let want = a.vmm_analog_reference(&trunc);
                    assert_eq!(out, want, "{phys} columns, {adc:?}, {prec}");
                }
            }
        }
    }

    #[test]
    fn ranged_kernel_writes_only_its_ranges() {
        // 200 weights x 8 = 1600 physical columns: ranges cross tiles.
        let cfg = XbarConfig::preset("full").unwrap();
        let a = CrossbarArray::program(&cfg, &ramp_weights(6, 200)).unwrap();
        let x = [17i64, -127, 0, 64, 5, -33];
        let mut scratch = VmmScratch::new();
        let cases = [
            vec![0..1, 3..4],
            vec![1..2, 4..140, 150..200],
            std::iter::once(0..200).collect(),
            vec![],
        ];
        for prec in ExecPrecision::ALL {
            let mut whole = vec![0i64; 200];
            a.vmm_analog_batch_at(&x, 1, &mut scratch, &mut whole, prec);
            for ranges in &cases {
                let mut out = vec![i64::MIN; 200];
                let it = ranges.iter().cloned();
                a.vmm_analog_ranges(a.plane(), &x, 1, it, &mut scratch, &mut out, prec);
                for (m, (&got, &want)) in out.iter().zip(&whole).enumerate() {
                    let inside = ranges.iter().any(|r| r.contains(&m));
                    let want = if inside { want } else { i64::MIN };
                    assert_eq!(got, want, "column {m} of {ranges:?} at {prec}");
                }
            }
        }
    }

    /// Planes of 1 to 4 rows, wide enough for several tiles: an input's
    /// phases pulse few distinct row sets, and inputs 3 and 5 repeat
    /// inputs 0 and 1, so the batch-major kernel merges scales and shares
    /// code tiles. Every input still equals the reference on its own, and
    /// columns outside the ranges stay untouched.
    #[test]
    fn shared_row_sets_match_reference_per_input() {
        let full = XbarConfig::preset("full").unwrap();
        let cols = 300; // 4 or 8 physical columns each: past one tile
        let ranges = [0..3, 40..300];
        for rows in 1..=4 {
            for scheme in [WeightScheme::Differential, WeightScheme::OffsetBinary] {
                for adc in [full.adc, AdcModel::Ideal] {
                    let cfg = XbarConfig {
                        scheme,
                        adc,
                        ..full
                    };
                    let a = CrossbarArray::program(&cfg, &ramp_weights(rows, cols)).unwrap();
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
                        assert!(
                            scratch.sets.sets.iter().any(|s| s.users > 1),
                            "no set shared"
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
        // f64 path sums up to (2^45 - 1)(2^7 - 1), just under 2^52.
        for (bits, fused) in [(45u32, true), (46, false)] {
            let cfg = XbarConfig {
                adc: AdcModel::Saturating { bits },
                ..XbarConfig::ideal()
            };
            let mut a = CrossbarArray::program(&cfg, &ramp_weights(3, 2)).unwrap();
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
            for (i, g) in a.conductance.iter_mut().enumerate() {
                *g = a.g_min + levels[i % levels.len()] * a.g_step;
            }
            a.rebuild_plane();
            for x in [[127, -127, 127], [127, 127, -127], [-1, 64, 127], [0, 0, 5]] {
                assert_eq!(
                    analog(&a, &x),
                    a.vmm_analog_reference(&x),
                    "{bits} bits, input {x:?}"
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
            a.vmm_batch_at(&x, 1, &mut scratch, &mut out, ExecPrecision::Full);
            assert_eq!(out, a.vmm(&x));
            // Scratch reuse across calls with different inputs stays exact.
            let y: Vec<i64> = x.iter().map(|v| -v / 2).collect();
            a.vmm_batch_at(&y, 1, &mut scratch, &mut out, ExecPrecision::Full);
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
        big.vmm_batch_at(&xb, 1, &mut scratch, &mut ob, ExecPrecision::Full);
        small.vmm_batch_at(&xs, 1, &mut scratch, &mut os, ExecPrecision::Full);
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
            a.vmm_batch_at(
                &inputs,
                n,
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
        a.vmm_batch_at(
            &inputs,
            n,
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
            a.vmm_batch_at(&x, 1, &mut scratch, &mut out, ExecPrecision::Full);
            assert_eq!(out, a.vmm(&x), "config {i}");
            let n = 3;
            let inputs: Vec<i64> = (0..n * 21).map(|i| ((i * 11) % 255) as i64 - 127).collect();
            let mut bout = vec![0i64; n * 4];
            a.vmm_batch_at(&inputs, n, &mut scratch, &mut bout, ExecPrecision::Full);
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
                a.vmm_batch_at(&x, 1, &mut scratch, &mut out, prec);
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
                    a.vmm_batch_at(chunk, 1, &mut scratch, &mut one, prec);
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
        a.vmm_batch_at(&x, 1, &mut scratch, &mut out, ExecPrecision::Brownout);
        assert_eq!(out, a.vmm_exact(&trunc));
        let n = 2;
        let inputs: Vec<i64> = (0..n * 13).map(|i| ((i * 7) % 255) as i64 - 127).collect();
        let mut bout = vec![0i64; n * 3];
        a.vmm_batch_at(&inputs, n, &mut scratch, &mut bout, ExecPrecision::Brownout);
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
                a.vmm_batch_at(&x, 1, &mut scratch, &mut out, prec);
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
        a.vmm_batch_at(&x, 1, &mut scratch, &mut out, ExecPrecision::Brownout);
        let trunc: Vec<i64> = x
            .iter()
            .map(|&v| CrossbarArray::truncate_input(v, 2))
            .collect();
        assert_eq!(out, a.vmm_exact(&trunc));
        assert!(out.iter().any(|&v| v != 0), "one bit must stay live");
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

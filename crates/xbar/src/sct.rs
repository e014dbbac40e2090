use crate::{CrossbarArray, ExecPrecision, VmmScratch, XbarConfig, XbarError};
use red_tensor::Kernel;

/// Reusable working memory for repeated [`SubCrossbarTensor::eval_tap_into`]
/// calls: the zero-filled `2C` input staging buffer the halved layout
/// drives its pair arrays with, plus the analog-path [`VmmScratch`]. Built
/// once per execution context and reused for every tap of every output
/// pixel, so steady-state evaluation performs no per-tap heap allocation.
#[derive(Debug, Clone, Default)]
pub struct TapScratch {
    padded: Vec<i64>,
    vmm: VmmScratch,
}

impl TapScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Physical arrangement of the sub-crossbar tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SctLayout {
    /// Paper Eq. 1: `KH·KW` sub-crossbars of shape `C × M`; every kernel
    /// tap owns one sub-crossbar and all taps can fire each cycle.
    Full,
    /// Paper Eq. 2 (area-efficient design): `ceil(KH·KW / 2)` sub-crossbars
    /// of shape `2C × M`; taps `2n` and `2n+1` share sub-crossbar `n` and
    /// fire in alternate cycles with the unused half of the input vector
    /// zero-filled. Halves the output-periphery instance count at the cost
    /// of doubling the cycle count.
    Halved,
}

/// RED's pixel-wise mapping (paper Eq. 1): the deconvolution kernel split
/// across per-tap sub-crossbars.
///
/// `SCT[c, m, i·KW + j] = W[i, j, c, m]` — sub-crossbar `i·KW + j` is the
/// `C × M` weight matrix of kernel tap `(i, j)`. The zero-skipping data
/// flow then drives each sub-crossbar with (only) real input pixels and
/// merges per-mode groups of sub-crossbar outputs into output pixels.
///
/// # Example
///
/// ```
/// use red_tensor::Kernel;
/// use red_xbar::{SctLayout, SubCrossbarTensor, XbarConfig};
///
/// # fn main() -> Result<(), red_xbar::XbarError> {
/// let kernel = Kernel::<i64>::from_fn(3, 3, 4, 2, |i, j, c, m| {
///     (i as i64) * 20 + (j as i64) * 5 + (c as i64) - (m as i64)
/// });
/// let sct = SubCrossbarTensor::map(&XbarConfig::ideal(), &kernel, SctLayout::Full)?;
/// assert_eq!(sct.sub_crossbars(), 9);
/// // Eq. 1: sub-crossbar (i*KW + j) holds W[i, j, ., .].
/// assert_eq!(sct.array(3 * 1 + 2).weight(1, 0), kernel[(1, 2, 1, 0)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SubCrossbarTensor {
    layout: SctLayout,
    kernel_h: usize,
    kernel_w: usize,
    channels: usize,
    filters: usize,
    arrays: Vec<CrossbarArray>,
}

impl SubCrossbarTensor {
    /// Maps a kernel onto sub-crossbars per Eq. 1 (or the Eq. 2 halved
    /// arrangement).
    ///
    /// # Errors
    ///
    /// Propagates [`XbarError`] from array programming (weight range
    /// violations).
    pub fn map(
        cfg: &XbarConfig,
        kernel: &Kernel<i64>,
        layout: SctLayout,
    ) -> Result<Self, XbarError> {
        let (kh, kw) = (kernel.kernel_h(), kernel.kernel_w());
        let (c, m) = (kernel.channels(), kernel.filters());
        let taps = kh * kw;
        let mut arrays = Vec::new();
        match layout {
            SctLayout::Full => {
                for i in 0..kh {
                    for j in 0..kw {
                        let mut flat = Vec::with_capacity(c * m);
                        for ch in 0..c {
                            flat.extend_from_slice(kernel.row(i, j, ch));
                        }
                        arrays.push(CrossbarArray::program_flat(cfg, c, m, flat)?);
                    }
                }
            }
            SctLayout::Halved => {
                let pairs = taps.div_ceil(2);
                for n in 0..pairs {
                    // Rows 0..C hold tap 2n, rows C..2C hold tap 2n+1
                    // (zero rows when 2n+1 falls off an odd tap count).
                    let mut flat = Vec::with_capacity(2 * c * m);
                    for half in 0..2 {
                        let t = 2 * n + half;
                        if t < taps {
                            let (i, j) = (t / kw, t % kw);
                            for ch in 0..c {
                                flat.extend_from_slice(kernel.row(i, j, ch));
                            }
                        } else {
                            flat.extend(std::iter::repeat_n(0, c * m));
                        }
                    }
                    arrays.push(CrossbarArray::program_flat(cfg, 2 * c, m, flat)?);
                }
            }
        }
        Ok(Self {
            layout,
            kernel_h: kh,
            kernel_w: kw,
            channels: c,
            filters: m,
            arrays,
        })
    }

    /// The linear sub-crossbar index of tap `(i, j)`: `i·KW + j` (Eq. 1).
    pub fn sc_index(i: usize, j: usize, kernel_w: usize) -> usize {
        i * kernel_w + j
    }

    /// Number of physical sub-crossbar arrays.
    pub fn sub_crossbars(&self) -> usize {
        self.arrays.len()
    }

    /// Rows per array: `C` for the full layout, `2C` for the halved one.
    pub fn rows_per_array(&self) -> usize {
        match self.layout {
            SctLayout::Full => self.channels,
            SctLayout::Halved => 2 * self.channels,
        }
    }

    /// The layout this SCT was mapped with.
    pub fn layout(&self) -> SctLayout {
        self.layout
    }

    /// Kernel height.
    pub fn kernel_h(&self) -> usize {
        self.kernel_h
    }

    /// Kernel width.
    pub fn kernel_w(&self) -> usize {
        self.kernel_w
    }

    /// Input channels `C`.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Filters `M`.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Cycles needed to evaluate all taps once: 1 for the full layout, 2
    /// for the halved one (Eq. 2's two-cycle schedule).
    pub fn cycles_per_batch(&self) -> usize {
        match self.layout {
            SctLayout::Full => 1,
            SctLayout::Halved => 2,
        }
    }

    /// Borrow a sub-crossbar array by linear index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= sub_crossbars()`.
    pub fn array(&self, index: usize) -> &CrossbarArray {
        &self.arrays[index]
    }

    /// Evaluates kernel tap `(i, j)` for one input pixel vector (length
    /// `C`), returning the `M` partial sums.
    ///
    /// For the halved layout this builds Eq. 2's zero-filled `2C` input
    /// vector and drives the shared pair array, exactly as the two-cycle
    /// hardware schedule would.
    ///
    /// # Panics
    ///
    /// Panics if the tap is out of range or `input.len() != C`.
    pub fn eval_tap(&self, i: usize, j: usize, input: &[i64]) -> Vec<i64> {
        let mut out = vec![0i64; self.filters];
        self.eval_tap_into(i, j, input, &mut TapScratch::new(), &mut out);
        out
    }

    /// Allocation-free [`SubCrossbarTensor::eval_tap`]: writes the `M`
    /// partial sums into `out`, staging the halved layout's zero-filled
    /// `2C` vector in `scratch` instead of allocating it per call.
    ///
    /// # Panics
    ///
    /// Panics if the tap is out of range, `input.len() != C`, or
    /// `out.len() != M`.
    pub fn eval_tap_into(
        &self,
        i: usize,
        j: usize,
        input: &[i64],
        scratch: &mut TapScratch,
        out: &mut [i64],
    ) {
        self.eval_tap_into_at(i, j, input, scratch, out, ExecPrecision::Full);
    }

    /// [`SubCrossbarTensor::eval_tap_into`] at an explicit precision
    /// tier, forwarded to the tap array's
    /// [`CrossbarArray::vmm_into_at`]. `Full` is bit-identical to the
    /// unsuffixed path.
    ///
    /// # Panics
    ///
    /// Panics if the tap is out of range, `input.len() != C`, or
    /// `out.len() != M`.
    pub fn eval_tap_into_at(
        &self,
        i: usize,
        j: usize,
        input: &[i64],
        scratch: &mut TapScratch,
        out: &mut [i64],
        prec: ExecPrecision,
    ) {
        assert!(i < self.kernel_h && j < self.kernel_w, "tap out of range");
        assert_eq!(input.len(), self.channels, "input must have C entries");
        let t = Self::sc_index(i, j, self.kernel_w);
        match self.layout {
            SctLayout::Full => self.arrays[t].vmm_into_at(input, &mut scratch.vmm, out, prec),
            SctLayout::Halved => {
                let n = t / 2;
                scratch.padded.clear();
                scratch.padded.resize(2 * self.channels, 0);
                let start = (t % 2) * self.channels;
                scratch.padded[start..start + self.channels].copy_from_slice(input);
                self.arrays[n].vmm_into_at(&scratch.padded, &mut scratch.vmm, out, prec);
            }
        }
    }

    /// `true` when batched tap evaluation
    /// ([`SubCrossbarTensor::eval_tap_batch_into`]) actually reuses
    /// weight/plane blocks across the batch — every sub-crossbar shares
    /// the same geometry and configuration, so the first array decides
    /// ([`CrossbarArray::batching_pays`]). Engines consult this before
    /// gathering tap inputs pixel-major across a whole batch.
    pub fn batch_pays(&self) -> bool {
        self.arrays
            .first()
            .is_some_and(CrossbarArray::batching_pays)
    }

    /// Batched [`SubCrossbarTensor::eval_tap_into`]: evaluates kernel tap
    /// `(i, j)` for `n` input pixel vectors flattened row-major into
    /// `inputs` (`n × C`), writing `n × M` partial sums into `out`.
    ///
    /// Routes through [`CrossbarArray::vmm_batch`], so the tap's weight
    /// matrix (exact path) or effective-current plane (analog path)
    /// streams across the whole batch in blocks when that pays; results
    /// are bit-identical to `n` single-pixel calls either way. For the
    /// halved layout the `n` zero-filled `2C` staging vectors live in
    /// `scratch`, exactly like the single-pixel path's.
    ///
    /// # Panics
    ///
    /// Panics if the tap is out of range, `inputs.len() != n * C`, or
    /// `out.len() != n * M`.
    pub fn eval_tap_batch_into(
        &self,
        i: usize,
        j: usize,
        inputs: &[i64],
        n: usize,
        scratch: &mut TapScratch,
        out: &mut [i64],
    ) {
        self.eval_tap_batch_into_at(i, j, inputs, n, scratch, out, ExecPrecision::Full);
    }

    /// [`SubCrossbarTensor::eval_tap_batch_into`] at an explicit
    /// precision tier, forwarded to the tap array's
    /// [`CrossbarArray::vmm_batch_at`]. `Full` is bit-identical to the
    /// unsuffixed path.
    ///
    /// # Panics
    ///
    /// Panics if the tap is out of range, `inputs.len() != n * C`, or
    /// `out.len() != n * M`.
    #[allow(clippy::too_many_arguments)] // mirrors eval_tap_batch_into + tier
    pub fn eval_tap_batch_into_at(
        &self,
        i: usize,
        j: usize,
        inputs: &[i64],
        n: usize,
        scratch: &mut TapScratch,
        out: &mut [i64],
        prec: ExecPrecision,
    ) {
        assert!(i < self.kernel_h && j < self.kernel_w, "tap out of range");
        assert_eq!(inputs.len(), n * self.channels, "inputs must be n x C");
        assert_eq!(out.len(), n * self.filters, "out must be n x M");
        let t = Self::sc_index(i, j, self.kernel_w);
        match self.layout {
            SctLayout::Full => self.arrays[t].vmm_batch_at(inputs, n, &mut scratch.vmm, out, prec),
            SctLayout::Halved => {
                let rows = 2 * self.channels;
                scratch.padded.clear();
                scratch.padded.resize(n * rows, 0);
                let start = (t % 2) * self.channels;
                for (k, px) in inputs.chunks_exact(self.channels).enumerate() {
                    scratch.padded[k * rows + start..k * rows + start + self.channels]
                        .copy_from_slice(px);
                }
                self.arrays[t / 2].vmm_batch_at(&scratch.padded, n, &mut scratch.vmm, out, prec);
            }
        }
    }

    /// Worst-case elementwise partial-sum error of evaluating taps at
    /// `prec` instead of [`ExecPrecision::Full`]: the max of
    /// [`CrossbarArray::truncation_error_bound`] across the
    /// sub-crossbars.
    pub fn truncation_error_bound(&self, prec: ExecPrecision) -> f64 {
        self.arrays
            .iter()
            .map(|a| a.truncation_error_bound(prec))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(kh: usize, kw: usize, c: usize, m: usize) -> Kernel<i64> {
        Kernel::from_fn(kh, kw, c, m, |i, j, cc, mm| {
            ((i * 53 + j * 19 + cc * 7 + mm * 3) % 250) as i64 - 125
        })
    }

    #[test]
    fn eq1_mapping_bijection_full() {
        let k = kernel(3, 3, 5, 4);
        let sct = SubCrossbarTensor::map(&XbarConfig::ideal(), &k, SctLayout::Full).unwrap();
        assert_eq!(sct.sub_crossbars(), 9);
        for i in 0..3 {
            for j in 0..3 {
                let a = sct.array(SubCrossbarTensor::sc_index(i, j, 3));
                assert_eq!(a.rows(), 5);
                assert_eq!(a.weight_cols(), 4);
                for c in 0..5 {
                    for m in 0..4 {
                        assert_eq!(a.weight(c, m), k[(i, j, c, m)], "SCT[{c},{m},{i}*KW+{j}]");
                    }
                }
            }
        }
    }

    #[test]
    fn halved_layout_pairs_taps() {
        let k = kernel(4, 4, 3, 2);
        let sct = SubCrossbarTensor::map(&XbarConfig::ideal(), &k, SctLayout::Halved).unwrap();
        assert_eq!(sct.sub_crossbars(), 8); // 16 taps / 2
        assert_eq!(sct.rows_per_array(), 6); // 2C
        assert_eq!(sct.cycles_per_batch(), 2);
        // Tap 5 = (1,1) lives in array 2, upper half (rows C..2C).
        let a = sct.array(2);
        for c in 0..3 {
            for m in 0..2 {
                assert_eq!(a.weight(c, m), k[(1, 0, c, m)]); // tap 4, lower half
                assert_eq!(a.weight(3 + c, m), k[(1, 1, c, m)]); // tap 5, upper half
            }
        }
    }

    #[test]
    fn halved_odd_tap_count_zero_fills() {
        let k = kernel(3, 3, 2, 2); // 9 taps -> 5 arrays, last half empty
        let sct = SubCrossbarTensor::map(&XbarConfig::ideal(), &k, SctLayout::Halved).unwrap();
        assert_eq!(sct.sub_crossbars(), 5);
        let last = sct.array(4);
        for c in 0..2 {
            for m in 0..2 {
                assert_eq!(last.weight(c, m), k[(2, 2, c, m)]); // tap 8
                assert_eq!(last.weight(2 + c, m), 0); // zero fill
            }
        }
    }

    #[test]
    fn eval_tap_equal_across_layouts() {
        let k = kernel(3, 3, 6, 4);
        let cfg = XbarConfig::ideal();
        let full = SubCrossbarTensor::map(&cfg, &k, SctLayout::Full).unwrap();
        let halved = SubCrossbarTensor::map(&cfg, &k, SctLayout::Halved).unwrap();
        let input: Vec<i64> = (0..6).map(|i| (i as i64) * 9 - 20).collect();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(
                    full.eval_tap(i, j, &input),
                    halved.eval_tap(i, j, &input),
                    "tap ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn eval_tap_matches_direct_mac() {
        let k = kernel(2, 2, 4, 3);
        let sct = SubCrossbarTensor::map(&XbarConfig::ideal(), &k, SctLayout::Full).unwrap();
        let input = vec![3i64, -1, 0, 7];
        let out = sct.eval_tap(1, 0, &input);
        for m in 0..3 {
            let expect: i64 = (0..4).map(|c| input[c] * k[(1, 0, c, m)]).sum();
            assert_eq!(out[m], expect);
        }
    }

    #[test]
    fn geometry_accessors() {
        let k = kernel(5, 4, 3, 2);
        let sct = SubCrossbarTensor::map(&XbarConfig::ideal(), &k, SctLayout::Full).unwrap();
        assert_eq!(sct.kernel_h(), 5);
        assert_eq!(sct.kernel_w(), 4);
        assert_eq!(sct.channels(), 3);
        assert_eq!(sct.filters(), 2);
        assert_eq!(sct.layout(), SctLayout::Full);
        assert_eq!(sct.cycles_per_batch(), 1);
        assert_eq!(sct.rows_per_array(), 3);
    }

    #[test]
    fn eval_tap_into_matches_allocating_path_with_shared_scratch() {
        let k = kernel(3, 3, 5, 4);
        for layout in [SctLayout::Full, SctLayout::Halved] {
            let sct = SubCrossbarTensor::map(&XbarConfig::ideal(), &k, layout).unwrap();
            let mut scratch = TapScratch::new();
            let mut out = vec![0i64; 4];
            for i in 0..3 {
                for j in 0..3 {
                    let input: Vec<i64> = (0..5)
                        .map(|c| (c as i64) * 7 - 12 + (i + j) as i64)
                        .collect();
                    sct.eval_tap_into(i, j, &input, &mut scratch, &mut out);
                    assert_eq!(out, sct.eval_tap(i, j, &input), "tap ({i},{j}) {layout:?}");
                }
            }
        }
    }

    #[test]
    fn eval_tap_batch_matches_per_pixel_both_layouts() {
        let k = kernel(3, 3, 5, 4);
        for cfg in [XbarConfig::ideal(), XbarConfig::noisy(0.02, 0.001, 0.0, 31)] {
            for layout in [SctLayout::Full, SctLayout::Halved] {
                let sct = SubCrossbarTensor::map(&cfg, &k, layout).unwrap();
                let n = 3;
                let inputs: Vec<i64> = (0..n * 5).map(|i| ((i * 11) % 100) as i64 - 50).collect();
                let mut scratch = TapScratch::new();
                let mut out = vec![0i64; n * 4];
                for i in 0..3 {
                    for j in 0..3 {
                        sct.eval_tap_batch_into(i, j, &inputs, n, &mut scratch, &mut out);
                        for (kk, px) in inputs.chunks_exact(5).enumerate() {
                            assert_eq!(
                                &out[kk * 4..(kk + 1) * 4],
                                sct.eval_tap(i, j, px),
                                "tap ({i},{j}) input {kk} {layout:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tap out of range")]
    fn bad_tap_panics() {
        let k = kernel(2, 2, 2, 2);
        let sct = SubCrossbarTensor::map(&XbarConfig::ideal(), &k, SctLayout::Full).unwrap();
        let _ = sct.eval_tap(2, 0, &[1, 2]);
    }
}

//! RED's pixel-wise mapping (paper Eq. 1/2) and its host evaluation.
//!
//! Two orders are kept apart here. The *modeled* order is the paper's
//! Fig. 5(c) cycle schedule: every sub-crossbar fires each cycle, driven
//! by the real input pixels one `s × s` block of output pixels gathers,
//! and `red-arch`'s `RedEngine` meters exactly that. The *host* order is
//! free to differ, because a (input pixel, tap) product does not depend on
//! when it is computed: the host drives each input pixel position once,
//! for a whole batch, through every tap it feeds
//! ([`SubCrossbarTensor::eval_taps`]). On non-ideal arrays that is one
//! batch-major analog kernel call over a fused plane that holds every
//! tap's rows side by side, so a pixel pays the kernel's fixed cost (the
//! set-bit pass, the phase dispatch, the read-out) once instead of once
//! per tap, the batch's images reuse each column tile's plane rows, and
//! an active-row set that repeats across phases or images is converted
//! once per tile. Ideal arrays run the taps' exact VMMs.

use crate::{CrossbarArray, ExecPrecision, VmmScratch, XbarConfig, XbarError};
use red_tensor::Kernel;
use std::ops::Range;

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
    /// Non-ideal configurations only (empty otherwise): the effective
    /// currents of every tap's `C` rows, `C × (KH·KW·M·per_weight)`
    /// row-major, tap `t` in columns `t·M·per_weight..`. They are copied
    /// from each tap array's plane at mapping time, and those planes are
    /// then dropped, so the fused plane replaces them rather than
    /// doubling them.
    fused: Vec<f64>,
    /// The largest [`CrossbarArray`] truncation error per dropped residue
    /// over the arrays, recorded at mapping time while each plane exists.
    error_per_residue: f64,
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
        let mut sct = Self {
            layout,
            kernel_h: kh,
            kernel_w: kw,
            channels: c,
            filters: m,
            arrays: Vec::new(),
            fused: Vec::new(),
            error_per_residue: 0.0,
        };
        // Array `n` holds the `per` taps from `per·n`, tap `per·n + half`
        // in rows `half·C..`; a tap past an odd count leaves zero rows.
        let per = sct.cycles_per_batch();
        let fused_cols = taps * m * cfg.phys_cols_per_weight();
        for n in 0..taps.div_ceil(per) {
            let mut flat = Vec::with_capacity(per * c * m);
            for t in per * n..per * (n + 1) {
                if t < taps {
                    for ch in 0..c {
                        flat.extend_from_slice(kernel.row(t / kw, t % kw, ch));
                    }
                } else {
                    flat.extend(std::iter::repeat_n(0, c * m));
                }
            }
            let mut array = CrossbarArray::program_flat(cfg, per * c, m, flat)?;
            let bound = array.error_per_residue();
            sct.error_per_residue = sct.error_per_residue.max(bound);
            if !array.is_ideal() {
                if sct.fused.is_empty() {
                    sct.fused = vec![0.0; c * fused_cols];
                }
                let plane = array.take_plane();
                let pc = array.phys_cols();
                for (half, t) in (per * n..taps.min(per * (n + 1))).enumerate() {
                    for ch in 0..c {
                        sct.fused[ch * fused_cols + t * pc..][..pc]
                            .copy_from_slice(&plane[(half * c + ch) * pc..][..pc]);
                    }
                }
            }
            sct.arrays.push(array);
        }
        Ok(sct)
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
        self.cycles_per_batch() * self.channels
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

    /// Evaluates the kernel taps in `taps` — ascending, disjoint ranges of
    /// linear tap indices `i·KW + j` — for `n` input pixel vectors
    /// flattened row-major into `inputs` (`n × C`). Pixel `k`'s partial
    /// sums for tap `t` land in `out[(k·KH·KW + t)·M..][..M]` (`out` is
    /// `n × KH·KW·M`); entries of taps outside `taps` are left as they
    /// are.
    ///
    /// Each result equals driving the tap's sub-crossbar with the pixel
    /// ([`CrossbarArray::vmm_batch_at`]), the halved layout's with Eq. 2's
    /// zero-filled `2C` vector, bit for bit. On non-ideal arrays the `n`
    /// pixels are one batch-major analog kernel call over the fused plane,
    /// evaluating only the requested taps' columns; ideal arrays run each
    /// tap's exact VMM over all `n` pixels at once
    /// ([`CrossbarArray::vmm_batch_at`], which cache-blocks large weight
    /// matrices).
    ///
    /// # Panics
    ///
    /// Panics if a tap is out of range, `inputs.len()` is not a multiple
    /// of `C`, or `out.len() != n · KH·KW·M`.
    pub fn eval_taps(
        &self,
        taps: &[Range<usize>],
        inputs: &[i64],
        scratch: &mut VmmScratch,
        out: &mut [i64],
        prec: ExecPrecision,
    ) {
        let (c, m) = (self.channels, self.filters);
        let width = self.kernel_h * self.kernel_w * m;
        assert!(taps.iter().all(|r| r.end * m <= width), "tap out of range");
        assert_eq!(inputs.len() % c, 0, "inputs must be n x C");
        let n = inputs.len() / c;
        assert_eq!(out.len(), n * width, "out must be n x taps x M");
        if !self.fused.is_empty() {
            let cols = taps.iter().map(|r| r.start * m..r.end * m);
            let read = &self.arrays[0];
            read.vmm_analog_ranges(&self.fused, inputs, n, cols, scratch, out, prec);
            return;
        }
        let per = self.cycles_per_batch();
        let mut staged = std::mem::take(&mut scratch.tap_inputs);
        let mut partials = std::mem::take(&mut scratch.tap_out);
        partials.resize(n * m, 0);
        for t in taps.iter().flat_map(Clone::clone) {
            let x = if per == 1 {
                inputs
            } else {
                staged.clear();
                staged.resize(n * per * c, 0);
                for (row, px) in staged.chunks_exact_mut(per * c).zip(inputs.chunks_exact(c)) {
                    row[(t % per) * c..][..c].copy_from_slice(px);
                }
                &staged
            };
            self.arrays[t / per].vmm_batch_at(x, n, scratch, &mut partials, prec);
            for (o, p) in out.chunks_exact_mut(width).zip(partials.chunks_exact(m)) {
                o[t * m..][..m].copy_from_slice(p);
            }
        }
        scratch.tap_inputs = staged;
        scratch.tap_out = partials;
    }

    /// Worst-case elementwise partial-sum error of evaluating taps at
    /// `prec` instead of [`ExecPrecision::Full`]: the max of
    /// [`CrossbarArray::truncation_error_bound`] across the
    /// sub-crossbars. Every array's bound is its dropped residue times a
    /// per-residue factor recorded at mapping time, and the residue is
    /// the same for all of them, so no plane is read here.
    pub fn truncation_error_bound(&self, prec: ExecPrecision) -> f64 {
        self.arrays[0].dropped_residues(prec.dropped_bits()) * self.error_per_residue
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

    /// One pixel's partial sums for the taps in `taps`, `KH·KW·M` long.
    fn eval(sct: &SubCrossbarTensor, taps: &[Range<usize>], input: &[i64]) -> Vec<i64> {
        let width = sct.kernel_h() * sct.kernel_w() * sct.filters();
        let mut out = vec![0i64; width];
        let (scratch, prec) = (&mut VmmScratch::new(), ExecPrecision::Full);
        sct.eval_taps(taps, input, scratch, &mut out, prec);
        out
    }

    /// The noisy configurations the fused plane must reproduce exactly:
    /// both schemes, saturating and ideal converters.
    fn noisy_lineup() -> Vec<XbarConfig> {
        let full = XbarConfig::preset("full").unwrap();
        let variation = XbarConfig::preset("variation").unwrap();
        let mut cfgs = vec![full, variation];
        for cfg in [full, variation] {
            cfgs.push(XbarConfig {
                scheme: crate::WeightScheme::OffsetBinary,
                ..cfg
            });
        }
        cfgs
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
        let all = std::slice::from_ref(&(0..9));
        assert_eq!(eval(&full, all, &input), eval(&halved, all, &input));
    }

    #[test]
    fn eval_tap_matches_direct_mac() {
        let k = kernel(2, 2, 4, 3);
        let sct = SubCrossbarTensor::map(&XbarConfig::ideal(), &k, SctLayout::Full).unwrap();
        let input = vec![3i64, -1, 0, 7];
        // Tap 2 = (1, 0) alone; the other taps' entries stay untouched.
        let out = eval(&sct, std::slice::from_ref(&(2..3)), &input);
        for (t, partials) in out.chunks_exact(3).enumerate() {
            for (m, &got) in partials.iter().enumerate() {
                let expect: i64 = (0..4).map(|c| input[c] * k[(1, 0, c, m)]).sum();
                assert_eq!(got, if t == 2 { expect } else { 0 }, "tap {t}, filter {m}");
            }
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

    /// One scratch reused across every tap, pixel and tier of both layouts
    /// gives the same partial sums as a fresh scratch and output per call.
    #[test]
    fn eval_tap_into_matches_allocating_path_with_shared_scratch() {
        let k = kernel(3, 3, 5, 4);
        let mut cfgs = noisy_lineup();
        cfgs.push(XbarConfig::ideal());
        for cfg in cfgs {
            for layout in [SctLayout::Full, SctLayout::Halved] {
                let sct = SubCrossbarTensor::map(&cfg, &k, layout).unwrap();
                let mut scratch = VmmScratch::new();
                let mut out = vec![0i64; 9 * 4];
                for prec in ExecPrecision::ALL {
                    for t in 0..9 {
                        let input: Vec<i64> =
                            (0..5).map(|c| (c as i64) * 7 - 12 + t as i64).collect();
                        let range = t..t + 1;
                        let tap = std::slice::from_ref(&range);
                        out.fill(0);
                        sct.eval_taps(tap, &input, &mut scratch, &mut out, prec);
                        let mut fresh = vec![0i64; 9 * 4];
                        let fresh_scratch = &mut VmmScratch::new();
                        sct.eval_taps(tap, &input, fresh_scratch, &mut fresh, prec);
                        assert_eq!(out, fresh, "tap {t} {layout:?} {prec}");
                    }
                }
            }
        }
    }

    /// Every tap of every pixel, noisy or ideal, in both layouts and at
    /// every tier, equals driving the tap's own array (the halved layout's
    /// with the zero-filled `2C` vector) through the reference pipeline;
    /// a batch of pixels equals the pixels one at a time over a shared
    /// scratch, and taps outside the requested ranges stay untouched.
    #[test]
    fn eval_tap_batch_matches_per_pixel_both_layouts() {
        let k = kernel(3, 3, 5, 4); // 9 taps: the halved layout's last pair is half empty
        let (c, m, width) = (5, 4, 9 * 4);
        let n = 3;
        let inputs: Vec<i64> = (0..n * c).map(|i| ((i * 37) % 255) as i64 - 127).collect();
        let taps = [0..2, 3..4, 5..9];
        let mut cfgs = noisy_lineup();
        cfgs.push(XbarConfig::ideal());
        for cfg in cfgs {
            for layout in [SctLayout::Full, SctLayout::Halved] {
                let sct = SubCrossbarTensor::map(&cfg, &k, layout).unwrap();
                let per = sct.cycles_per_batch();
                let mut scratch = VmmScratch::new();
                for prec in ExecPrecision::ALL {
                    let mut batch = vec![i64::MIN; n * width];
                    sct.eval_taps(&taps, &inputs, &mut scratch, &mut batch, prec);
                    for (px, got) in inputs.chunks_exact(c).zip(batch.chunks_exact(width)) {
                        let mut one = vec![i64::MIN; width];
                        sct.eval_taps(&taps, px, &mut scratch, &mut one, prec);
                        assert_eq!(got, one.as_slice(), "{layout:?} {prec}");
                        for (t, partials) in got.chunks_exact(m).enumerate() {
                            if !taps.iter().any(|r| r.contains(&t)) {
                                assert!(partials.iter().all(|&v| v == i64::MIN), "tap {t}");
                                continue;
                            }
                            let mut x = vec![0i64; per * c];
                            x[(t % per) * c..][..c].copy_from_slice(px);
                            let mut want = vec![0i64; m];
                            let array = sct.array(t / per);
                            array.vmm_batch_at(&x, 1, &mut VmmScratch::new(), &mut want, prec);
                            assert_eq!(partials, want.as_slice(), "tap {t} {layout:?} {prec}");
                        }
                    }
                }
            }
        }
    }

    /// The bound kept at mapping time equals the bound of freshly
    /// programmed copies of the arrays, bit for bit, at every tier and in
    /// both layouts, and asking for it builds no tap plane back.
    #[test]
    fn truncation_bound_matches_fresh_arrays_without_planes() {
        let k = kernel(3, 3, 5, 4);
        let mut cfgs = noisy_lineup();
        cfgs.push(XbarConfig::ideal());
        for cfg in cfgs {
            for layout in [SctLayout::Full, SctLayout::Halved] {
                let sct = SubCrossbarTensor::map(&cfg, &k, layout).unwrap();
                let fresh: Vec<CrossbarArray> = (0..sct.sub_crossbars())
                    .map(|n| {
                        let a = sct.array(n);
                        let w = (0..a.rows())
                            .flat_map(|r| (0..a.weight_cols()).map(move |m| a.weight(r, m)))
                            .collect();
                        CrossbarArray::program_flat(&cfg, a.rows(), a.weight_cols(), w).unwrap()
                    })
                    .collect();
                for prec in ExecPrecision::ALL {
                    let want = fresh
                        .iter()
                        .map(|a| a.truncation_error_bound(prec))
                        .fold(0.0, f64::max);
                    let got = sct.truncation_error_bound(prec);
                    assert_eq!(got.to_bits(), want.to_bits(), "{layout:?} {prec}");
                }
                assert!(sct.arrays.iter().all(|a| !a.plane_built()), "{layout:?}");
                assert_eq!(sct.fused.is_empty(), cfg == XbarConfig::ideal());
            }
        }
    }

    #[test]
    #[should_panic(expected = "tap out of range")]
    fn bad_tap_panics() {
        let k = kernel(2, 2, 2, 2);
        let sct = SubCrossbarTensor::map(&XbarConfig::ideal(), &k, SctLayout::Full).unwrap();
        let _ = eval(&sct, std::slice::from_ref(&(3..5)), &[1, 2]);
    }
}

use red_device::variation::{FaultModel, VariationModel};
use red_device::CellConfig;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Errors from crossbar programming and simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum XbarError {
    /// A weight exceeds the representable range for the configured
    /// `weight_bits`.
    WeightOutOfRange {
        /// The offending weight value.
        value: i64,
        /// The symmetric bound `2^(weight_bits-1) - 1`.
        bound: i64,
    },
    /// The weight matrix is empty or ragged.
    BadWeightMatrix(String),
}

impl fmt::Display for XbarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XbarError::WeightOutOfRange { value, bound } => {
                write!(f, "weight {value} outside representable range ±{bound}")
            }
            XbarError::BadWeightMatrix(msg) => write!(f, "bad weight matrix: {msg}"),
        }
    }
}

impl Error for XbarError {}

/// How signed multi-bit weights are encoded onto cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WeightScheme {
    /// Differential column pairs: `w = w⁺ - w⁻`, each magnitude bit-sliced
    /// across `ceil((weight_bits-1)/bits_per_cell)` cells. Doubles the
    /// physical column count but subtracts in the digital domain with no
    /// reference-current bookkeeping. This is the functional default.
    Differential,
    /// Offset binary: `w + 2^(weight_bits-1)` stored unsigned, with a dummy
    /// reference column per array whose weighted input sum is subtracted
    /// after conversion (ISAAC-style). Halves the column count relative to
    /// [`WeightScheme::Differential`] at the price of one extra column and
    /// wider ADC headroom.
    OffsetBinary,
}

/// The read-circuit conversion model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdcModel {
    /// Infinite-resolution conversion: the analog column sum is recovered
    /// exactly (after dummy-column baseline cancellation). Use for
    /// functional-equivalence verification.
    Ideal,
    /// Integrate-and-fire with `bits` of resolution: per-phase column sums
    /// clamp at `2^bits - 1` counts, exactly like a real spike counter
    /// running out of integration window.
    Saturating {
        /// Converter resolution in bits.
        bits: u32,
    },
}

impl AdcModel {
    /// Quantizes one baseline-cancelled, LSB-normalized column sum to an
    /// integer spike count: nearest-integer rounding for the ideal
    /// converter, additionally clamped to `[0, 2^bits - 1]` for the
    /// saturating one (the integrate-and-fire counter can neither count
    /// below zero nor past the end of its integration window).
    ///
    /// This defines the ADC semantics of the analog pipeline. The golden
    /// reference converts through it; the planned kernel converts through
    /// builtin-free equivalents that unit tests pin to it exactly.
    pub fn quantize(&self, raw: f64) -> i64 {
        match self {
            AdcModel::Ideal => raw.round() as i64,
            AdcModel::Saturating { bits } => {
                let max = (1i64 << bits) - 1;
                (raw.round() as i64).clamp(0, max)
            }
        }
    }
}

/// The ideal converter's `raw.round() as i64` without the `round`
/// builtin (a library call on baseline x86-64): truncate toward zero,
/// then step away from zero when the remainder reaches one half. For
/// finite `|raw| < 2^63` the truncation and the remainder are exact; past
/// that the cast saturates and the remainder only pushes further out, so
/// the saturating steps keep `i64::MIN`/`i64::MAX`. NaN gives 0.
#[inline]
pub(crate) fn round_half_away(raw: f64) -> i64 {
    let t = raw as i64;
    let rem = raw - t as f64;
    t.saturating_add(i64::from(rem >= 0.5))
        .saturating_sub(i64::from(rem <= -0.5))
}

/// The saturating converter's `(raw.round() as i64).clamp(0, max)`
/// without the `round` builtin. Below one half (and for NaN) the code is
/// 0. From one half up it is `floor(raw + 0.5)`, a truncating cast of a
/// positive value, and `raw + 0.5` is exact below `2^52`. From `2^52` up
/// every `f64` is already an integer, and adding one half could round up
/// to the next even one, so `raw` is cast as is.
#[inline]
pub(crate) fn round_to_code(raw: f64, max: i64) -> i64 {
    const INTEGRAL: f64 = (1u64 << 52) as f64;
    if raw >= 0.5 {
        let x = if raw < INTEGRAL { raw + 0.5 } else { raw };
        (x as i64).min(max)
    } else {
        0
    }
}

/// Full functional configuration of a crossbar.
///
/// # Example
///
/// ```
/// use red_xbar::{AdcModel, XbarConfig};
///
/// let cfg = XbarConfig::ideal();
/// assert_eq!(cfg.adc, AdcModel::Ideal);
/// assert_eq!(cfg.magnitude_slices(), 4); // 7 magnitude bits on 2-bit cells
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct XbarConfig {
    /// Device-level cell configuration.
    pub cell: CellConfig,
    /// Weight encoding scheme.
    pub scheme: WeightScheme,
    /// Read-circuit model.
    pub adc: AdcModel,
    /// Conductance variation model (ideal by default).
    pub variation: VariationModel,
    /// Stuck-at fault model (none by default).
    pub faults: FaultModel,
    /// Wire IR-drop model (ideal wires by default).
    pub ir_drop: crate::IrDropModel,
    /// Conductance retention drift (fresh by default).
    pub drift: red_device::DriftModel,
    /// Input precision in bits (signed, bit-serial streaming).
    pub input_bits: u32,
    /// Weight precision in bits (signed).
    pub weight_bits: u32,
}

impl XbarConfig {
    /// Ideal configuration: exact conversion, no variation, no faults,
    /// 8-bit inputs and weights on 2-bit cells.
    pub fn ideal() -> Self {
        Self {
            cell: CellConfig::default(),
            scheme: WeightScheme::Differential,
            adc: AdcModel::Ideal,
            variation: VariationModel::ideal(),
            faults: FaultModel::none(),
            ir_drop: crate::IrDropModel::ideal(),
            drift: red_device::DriftModel::fresh(),
            input_bits: 8,
            weight_bits: 8,
        }
    }

    /// A realistic configuration for accuracy studies: saturating 8-bit
    /// ADC, the given conductance variation sigma and fault rates.
    pub fn noisy(sigma: f64, p_stuck_off: f64, p_stuck_on: f64, seed: u64) -> Self {
        Self {
            adc: AdcModel::Saturating { bits: 8 },
            variation: VariationModel::with_sigma(sigma, seed),
            faults: FaultModel::with_rates(p_stuck_off, p_stuck_on, seed.wrapping_add(1)),
            ..Self::ideal()
        }
    }

    /// A named non-ideal preset for accuracy/perf studies, or `None` for
    /// an unknown name. Each preset switches exactly one device effect on
    /// (plus the `full` combination), so sweeps can attribute degradation
    /// — and the noisy serving benchmark can pick its scenario — by name:
    ///
    /// * `variation` — 2% log-normal conductance variation;
    /// * `adc` — 8-bit saturating integrate-and-fire conversion;
    /// * `ir-drop` — 2 Ω/cell wire resistance;
    /// * `full` — all of the above plus 0.1%/0.05% stuck-off/on faults
    ///   and 30 days of 2% retention drift.
    ///
    /// Presets are seeded deterministically so programmed arrays (and
    /// therefore benchmark rows) are reproducible across runs.
    pub fn preset(name: &str) -> Option<Self> {
        let base = Self::ideal();
        match name {
            "variation" => Some(Self {
                variation: VariationModel::with_sigma(0.02, 11),
                ..base
            }),
            "adc" => Some(Self {
                adc: AdcModel::Saturating { bits: 8 },
                ..base
            }),
            "ir-drop" => Some(Self {
                ir_drop: crate::IrDropModel::with_resistance(2.0),
                ..base
            }),
            "full" => Some(Self {
                adc: AdcModel::Saturating { bits: 8 },
                variation: VariationModel::with_sigma(0.02, 11),
                faults: FaultModel::with_rates(0.001, 0.0005, 12),
                ir_drop: crate::IrDropModel::with_resistance(2.0),
                drift: red_device::DriftModel::after(0.02, 30.0 * 86_400.0),
                ..base
            }),
            _ => None,
        }
    }

    /// Number of cells each signed weight's magnitude is sliced across:
    /// `ceil((weight_bits - 1) / bits_per_cell)`, at least 1.
    pub fn magnitude_slices(&self) -> usize {
        let mag_bits = self.weight_bits.saturating_sub(1).max(1);
        mag_bits.div_ceil(self.cell.bits_per_cell) as usize
    }

    /// Cells per stored (unsigned) value under the active scheme:
    /// magnitude slices for differential pairs, `ceil(weight_bits /
    /// bits_per_cell)` for offset binary (the offset adds one bit of
    /// unsigned range).
    pub fn slices(&self) -> usize {
        match self.scheme {
            WeightScheme::Differential => self.magnitude_slices(),
            WeightScheme::OffsetBinary => {
                self.weight_bits.div_ceil(self.cell.bits_per_cell) as usize
            }
        }
    }

    /// Physical columns per logical weight column, including the encoding
    /// overhead (2× for differential pairs; offset binary's shared
    /// reference column is amortised and counted separately).
    pub fn phys_cols_per_weight(&self) -> usize {
        match self.scheme {
            WeightScheme::Differential => 2 * self.slices(),
            WeightScheme::OffsetBinary => self.slices(),
        }
    }

    /// Symmetric weight bound `2^(weight_bits-1) - 1`.
    pub fn weight_bound(&self) -> i64 {
        (1i64 << (self.weight_bits - 1)) - 1
    }

    /// Symmetric input bound `2^(input_bits-1) - 1`.
    pub fn input_bound(&self) -> i64 {
        (1i64 << (self.input_bits - 1)) - 1
    }
}

impl Default for XbarConfig {
    fn default() -> Self {
        Self::ideal()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn ideal_defaults() {
        let c = XbarConfig::ideal();
        assert_eq!(c.weight_bound(), 127);
        assert_eq!(c.input_bound(), 127);
        assert_eq!(c.magnitude_slices(), 4);
        assert_eq!(c.phys_cols_per_weight(), 8); // differential doubles
    }

    #[test]
    fn offset_binary_halves_columns() {
        let c = XbarConfig {
            scheme: WeightScheme::OffsetBinary,
            ..XbarConfig::ideal()
        };
        assert_eq!(c.phys_cols_per_weight(), 4);
    }

    #[test]
    fn slices_track_cell_bits() {
        let mut c = XbarConfig::ideal();
        c.cell.bits_per_cell = 1;
        assert_eq!(c.magnitude_slices(), 7);
        c.cell.bits_per_cell = 4;
        assert_eq!(c.magnitude_slices(), 2);
        c.weight_bits = 2;
        assert_eq!(c.magnitude_slices(), 1);
    }

    #[test]
    fn ideal_adc_rounds_to_nearest() {
        let adc = AdcModel::Ideal;
        assert_eq!(adc.quantize(0.0), 0);
        assert_eq!(adc.quantize(2.4), 2);
        assert_eq!(adc.quantize(2.5), 3); // round-half-away-from-zero
        assert_eq!(adc.quantize(-3.6), -4);
        assert_eq!(adc.quantize(1e6 + 0.49), 1_000_000);
    }

    #[test]
    fn saturating_adc_clamps_to_code_range() {
        let adc = AdcModel::Saturating { bits: 3 };
        assert_eq!(adc.quantize(-0.4), 0); // rounds to 0, not clamped
        assert_eq!(adc.quantize(-5.0), 0); // clamped at the bottom
        assert_eq!(adc.quantize(3.2), 3); // in-range passes through
        assert_eq!(adc.quantize(6.6), 7); // rounds up to full scale
        assert_eq!(adc.quantize(7.4), 7); // full scale
        assert_eq!(adc.quantize(250.0), 7); // clamped at 2^bits - 1
        let wide = AdcModel::Saturating { bits: 8 };
        assert_eq!(wide.quantize(250.0), 250);
        assert_eq!(wide.quantize(256.0), 255);
    }

    /// `x` and its 4 nearest neighbours on either side.
    pub(crate) fn within_4_ulps(x: f64) -> impl Iterator<Item = f64> {
        (-4i64..=4).map(move |d| f64::from_bits(x.to_bits().wrapping_add_signed(d)))
    }

    #[test]
    fn builtin_free_rounding_matches_round_formula() {
        let two52 = (1u64 << 52) as f64;
        let two63 = (1u64 << 63) as f64;
        let specials = [
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
            two52 + 1.0,
            two52 * 2.0 - 1.0,
            two63,
            -two63,
        ];
        for bits in [1u32, 4, 8, 16] {
            let max = (1i64 << bits) - 1;
            // Every k ± 0.5 threshold of the code range, from -0.5 up to
            // max + 0.5, and its ±4-ulp neighbourhood.
            let thresholds = (-1..=max).map(|k| k as f64 + 0.5);
            for x in thresholds.flat_map(within_4_ulps).chain(specials) {
                let old = (x.round() as i64).clamp(0, max);
                assert_eq!(round_to_code(x, max), old, "bits {bits}, raw {x:e}");
            }
        }
        // A converter wider than the f64 mantissa: odd integers from 2^52
        // up must not round to the next even one.
        let wide = (1i64 << 60) - 1;
        for x in specials.into_iter().flat_map(within_4_ulps) {
            let old = (x.round() as i64).clamp(0, wide);
            assert_eq!(round_to_code(x, wide), old, "60 bits, raw {x:e}");
        }
        let ideal_thresholds = (-(1i64 << 16) - 1..=1 << 16).map(|k| k as f64 + 0.5);
        for x in ideal_thresholds
            .chain(specials)
            .chain(specials.map(|s| -s))
            .flat_map(within_4_ulps)
        {
            assert_eq!(round_half_away(x), x.round() as i64, "raw {x:e}");
        }
    }

    #[test]
    fn presets_enable_exactly_their_effect() {
        let v = XbarConfig::preset("variation").unwrap();
        assert!(!v.variation.is_ideal());
        assert_eq!(v.adc, AdcModel::Ideal);
        assert!(v.ir_drop.is_ideal());

        let a = XbarConfig::preset("adc").unwrap();
        assert!(matches!(a.adc, AdcModel::Saturating { bits: 8 }));
        assert!(a.variation.is_ideal());

        let w = XbarConfig::preset("ir-drop").unwrap();
        assert!(!w.ir_drop.is_ideal());
        assert!(w.variation.is_ideal());

        let f = XbarConfig::preset("full").unwrap();
        assert!(!f.variation.is_ideal());
        assert!(!f.faults.is_none());
        assert!(!f.ir_drop.is_ideal());
        assert!(!f.drift.is_fresh());

        assert!(XbarConfig::preset("nope").is_none());
    }

    #[test]
    fn noisy_config_enables_nonidealities() {
        let c = XbarConfig::noisy(0.1, 0.01, 0.001, 7);
        assert!(!c.variation.is_ideal());
        assert!(!c.faults.is_none());
        assert!(matches!(c.adc, AdcModel::Saturating { bits: 8 }));
    }
}

//! Per-image hardware activity counters: the telemetry plane's view of
//! what the modeled chip physically does for one inference.
//!
//! Every figure is derived in closed form from the per-stage
//! [`DesignGeometry`](red_arch::DesignGeometry) the compiler already
//! priced, so the counters are exact integers — a batch of B images
//! does exactly `B ×` the per-image work, and per-request counter sums
//! reconcile exactly against aggregate report figures (asserted in the
//! workspace telemetry tests). Energy is carried in integer
//! **femtojoules** for the same reason: summing the rounded-per-stage
//! integer once per image keeps request-level sums exactly equal to
//! aggregate products, where repeated `f64` addition would drift.

use red_arch::CostReport;
use serde::Serialize;

fn sat_u64(v: u128) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// Modeled hardware activity to push **one image** through every stage
/// of a chip. Obtain via [`crate::Chip::hardware_per_image`]; scale to a
/// batch with [`HardwarePerImage::scaled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct HardwarePerImage {
    /// Crossbar vector-operation activations (geometry `cycles`) summed
    /// over all stages — each is one wordline-parallel analog VMM issue.
    pub crossbar_activations: u64,
    /// Bit-serial input phases swept across those activations:
    /// `activations × 2·(input_bits−1)` (positive and negative polarity
    /// per magnitude bit).
    pub bit_phase_sweeps: u64,
    /// Non-zero wordline row-current adds into column accumulators,
    /// across all phases — the analog work zero-skipping designs avoid.
    pub plane_row_adds: u64,
    /// ADC integrate-and-fire conversions across all phases.
    pub adc_quantizations: u64,
    /// Modeled energy per image, in femtojoules (integer; see module
    /// docs for why not `f64` picojoules).
    pub energy_fj: u64,
}

impl HardwarePerImage {
    /// Derives the per-image counters from per-stage cost reports and
    /// the crossbar input precision (`input_bits` of the chip's
    /// `XbarConfig`).
    pub(crate) fn derive<'a>(costs: impl Iterator<Item = &'a CostReport>, input_bits: u32) -> Self {
        let mag = input_bits.saturating_sub(1).max(1);
        Self::derive_tier(costs, mag, mag)
    }

    /// [`HardwarePerImage::derive`] for a reduced-precision tier: only
    /// `live_mag_bits` of the chip's `full_mag_bits` input magnitude
    /// bits actually stream, so every per-phase counter (sweeps, row
    /// adds, conversions) scales to the live phase count and energy
    /// keeps its static share while the phase-gated share
    /// ([`CostReport::phase_gated_energy_pj`]) shrinks proportionally.
    /// `live == full` reproduces [`HardwarePerImage::derive`] exactly
    /// (bit-identical integers).
    pub(crate) fn derive_tier<'a>(
        costs: impl Iterator<Item = &'a CostReport>,
        full_mag_bits: u32,
        live_mag_bits: u32,
    ) -> Self {
        // Two polarity phases per live magnitude bit — the sweep the
        // analog engine actually performs (`CrossbarArray::vmm_analog_into`).
        let live = live_mag_bits.clamp(1, full_mag_bits.max(1));
        let phases = u128::from(2 * live);
        let full = full_mag_bits.max(1);
        let mut hw = Self::default();
        for cost in costs {
            let g = &cost.geometry;
            hw.crossbar_activations += g.cycles;
            hw.bit_phase_sweeps += sat_u64(u128::from(g.cycles) * phases);
            hw.plane_row_adds += sat_u64(g.nonzero_row_activations * phases);
            hw.adc_quantizations += sat_u64(g.conversions * phases);
            let pj = if live == full {
                cost.total_energy_pj()
            } else {
                cost.energy_at_live_bits_pj(live, full)
            };
            hw.energy_fj += (pj * 1_000.0).round() as u64;
        }
        hw
    }

    /// The counters for a batch of `images` (exact integer scaling,
    /// saturating at `u64::MAX`).
    #[must_use]
    pub fn scaled(self, images: u64) -> Self {
        Self {
            crossbar_activations: self.crossbar_activations.saturating_mul(images),
            bit_phase_sweeps: self.bit_phase_sweeps.saturating_mul(images),
            plane_row_adds: self.plane_row_adds.saturating_mul(images),
            adc_quantizations: self.adc_quantizations.saturating_mul(images),
            energy_fj: self.energy_fj.saturating_mul(images),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ChipBuilder;
    use red_workloads::networks;

    #[test]
    fn per_image_counters_follow_the_priced_geometry() {
        let stack = networks::sngan_generator(64).unwrap();
        let chip = ChipBuilder::new().compile_seeded(&stack, 5, 11).unwrap();
        let hw = chip.hardware_per_image();
        // Default XbarConfig: 8 input bits → 14 polarity phases.
        let phases = 14u128;
        let cycles: u64 = chip.stages().iter().map(|s| s.cost().geometry.cycles).sum();
        assert_eq!(hw.crossbar_activations, cycles);
        assert_eq!(hw.bit_phase_sweeps, cycles * phases as u64);
        let adds: u128 = chip
            .stages()
            .iter()
            .map(|s| s.cost().geometry.nonzero_row_activations)
            .sum::<u128>()
            * phases;
        assert_eq!(u128::from(hw.plane_row_adds), adds);
        let convs: u128 = chip
            .stages()
            .iter()
            .map(|s| s.cost().geometry.conversions)
            .sum::<u128>()
            * phases;
        assert_eq!(u128::from(hw.adc_quantizations), convs);
        // Integer femtojoules track the f64 picojoule figure to rounding.
        let pj = chip.energy_per_image_pj();
        assert!((hw.energy_fj as f64 / 1_000.0 - pj).abs() / pj < 1e-6);
    }

    #[test]
    fn batch_scaling_is_exact() {
        let stack = networks::sngan_generator(64).unwrap();
        let chip = ChipBuilder::new().compile_seeded(&stack, 5, 11).unwrap();
        let hw = chip.hardware_per_image();
        let b = hw.scaled(7);
        assert_eq!(b.crossbar_activations, 7 * hw.crossbar_activations);
        assert_eq!(b.energy_fj, 7 * hw.energy_fj);
        // Saturation, not overflow, at the extreme.
        let max = hw.scaled(u64::MAX);
        assert_eq!(max.adc_quantizations, u64::MAX);
    }
}

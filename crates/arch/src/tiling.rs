//! Physical-macro tiling mode for the cost model.
//!
//! The paper's model (and our default) prices each design's arrays at
//! their *logical* size — a `12800 × 1024` zero-padding array is billed as
//! one array. Real ReRAM macros cap out at a few hundred wordlines and
//! bitlines, so a fabricated accelerator splits logical arrays into a grid
//! of bounded tiles whose partial results are summed digitally (as
//! PipeLayer-class designs do). This module prices that realistic mode:
//! shorter lines (cheaper driving) against more instances (more periphery)
//! and a deeper cross-tile merge.
//!
//! Used by `ablation` to show that the paper's headline *orderings* are
//! robust to the tiling assumption even though the absolute numbers move.

use crate::{ArchError, CostModel, CostReport, Design, DesignGeometry};
use red_tensor::LayerShape;
use serde::{Deserialize, Serialize};

/// A bounded physical crossbar macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MacroSpec {
    /// Maximum wordlines per macro.
    pub max_rows: usize,
    /// Maximum physical (bit-sliced) columns per macro.
    pub max_phys_cols: usize,
}

impl MacroSpec {
    /// A common published macro size: 512 × 512 physical cells.
    pub fn m512() -> Self {
        Self {
            max_rows: 512,
            max_phys_cols: 512,
        }
    }

    /// A conservative 128 × 128 macro.
    pub fn m128() -> Self {
        Self {
            max_rows: 128,
            max_phys_cols: 128,
        }
    }

    /// Creates a macro bound.
    ///
    /// # Panics
    ///
    /// Panics if either bound is zero.
    pub fn new(max_rows: usize, max_phys_cols: usize) -> Self {
        assert!(
            max_rows > 0 && max_phys_cols > 0,
            "macro dimensions must be positive"
        );
        Self {
            max_rows,
            max_phys_cols,
        }
    }

    /// The `(row_tiles, col_tiles)` grid each logical array instance of
    /// `geometry` splits into: its wordlines over `max_rows` and its
    /// physical columns over `max_phys_cols`, each rounded up. The tiled
    /// price and the chip floorplan both split through here.
    pub fn split(&self, geometry: &DesignGeometry) -> (usize, usize) {
        (
            geometry.array.rows.div_ceil(self.max_rows),
            geometry
                .phys_cols_per_instance()
                .div_ceil(self.max_phys_cols),
        )
    }
}

impl CostModel {
    /// Prices `design` on `layer` with every logical array instance split
    /// into physical macros of at most `mac` size.
    ///
    /// Row tiles contribute partial sums that are merged digitally
    /// (deepening the shift-adder merge by the row-tile count); column
    /// tiles segment each wordline (more, shorter drives and more
    /// conversions-per-cycle capacity).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError`] if the base geometry cannot be derived.
    pub fn evaluate_tiled(
        &self,
        design: Design,
        layer: &LayerShape,
        mac: MacroSpec,
    ) -> Result<CostReport, ArchError> {
        let base = DesignGeometry::derive(design, layer, self.cells_per_weight())?;
        let (row_tiles, col_tiles) = mac.split(&base);

        let mut g = base;
        g.array.rows = base.array.rows.div_ceil(row_tiles);
        g.array.weight_cols = base.array.weight_cols.div_ceil(col_tiles);
        g.array.instances = base.array.instances * row_tiles * col_tiles;
        // Each logical row is now segmented across `col_tiles` wordlines.
        g.nonzero_row_activations = base.nonzero_row_activations * col_tiles as u128;
        g.total_row_slots = base.total_row_slots * col_tiles as u128;
        // Each physical column converts once per row tile (partial sums).
        g.conversions = base.conversions * row_tiles as u128;
        g.adc_channels_per_cycle = base.adc_channels_per_cycle * row_tiles;
        // Cross-tile partial sums deepen the merge tree.
        g.merge_width = base.merge_width * row_tiles;
        Ok(self.price(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RedLayoutPolicy;

    fn gan_d3() -> LayerShape {
        LayerShape::new(4, 4, 512, 256, 4, 4, 2, 1).unwrap()
    }

    #[test]
    fn untileable_layer_matches_untiled_price() {
        // A layer that already fits one macro must price identically.
        let model = CostModel::paper_default();
        let tiny = LayerShape::new(4, 4, 8, 4, 3, 3, 2, 0).unwrap();
        let mac = MacroSpec::new(4096, 4096);
        for design in Design::paper_lineup() {
            let plain = model.evaluate(design, &tiny).unwrap();
            let tiled = model.evaluate_tiled(design, &tiny, mac).unwrap();
            assert!(
                (plain.total_latency_ns() - tiled.total_latency_ns()).abs() < 1e-9,
                "{design}"
            );
            assert!(
                (plain.total_area_um2() - tiled.total_area_um2()).abs() < 1e-6,
                "{design}"
            );
        }
    }

    #[test]
    fn tiling_multiplies_instances_and_merge() {
        let model = CostModel::paper_default();
        // Zero-padding GAN_Deconv3: 8192 rows x 1024 phys cols.
        let r = model
            .evaluate_tiled(Design::ZeroPadding, &gan_d3(), MacroSpec::m512())
            .unwrap();
        assert_eq!(r.geometry.array.instances, 16 * 2); // 16 row x 2 col tiles
        let base = model.evaluate(Design::ZeroPadding, &gan_d3()).unwrap();
        assert_eq!(MacroSpec::m512().split(&base.geometry), (16, 2));
        assert_eq!(r.geometry.array.rows, 512);
        assert_eq!(r.geometry.merge_width, 16);
    }

    #[test]
    fn paper_orderings_survive_tiling() {
        let model = CostModel::paper_default();
        for mac in [MacroSpec::m512(), MacroSpec::m128()] {
            let zp = model
                .evaluate_tiled(Design::ZeroPadding, &gan_d3(), mac)
                .unwrap();
            let pf = model
                .evaluate_tiled(Design::PaddingFree, &gan_d3(), mac)
                .unwrap();
            let red = model
                .evaluate_tiled(Design::red(RedLayoutPolicy::Auto), &gan_d3(), mac)
                .unwrap();
            // RED stays fastest and cheapest in energy; cell area identical.
            assert!(red.total_latency_ns() < zp.total_latency_ns());
            assert!(red.total_latency_ns() < pf.total_latency_ns());
            assert!(red.total_energy_pj() < zp.total_energy_pj());
            let zp_cells = zp.area_um2(crate::Component::Computation);
            let red_cells = red.area_um2(crate::Component::Computation);
            assert!((zp_cells - red_cells).abs() / zp_cells < 1e-9);
        }
    }

    #[test]
    fn smaller_macros_cost_more_area() {
        let model = CostModel::paper_default();
        let big = model
            .evaluate_tiled(Design::ZeroPadding, &gan_d3(), MacroSpec::m512())
            .unwrap();
        let small = model
            .evaluate_tiled(Design::ZeroPadding, &gan_d3(), MacroSpec::m128())
            .unwrap();
        assert!(small.total_area_um2() > big.total_area_um2());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_macro_panics() {
        let _ = MacroSpec::new(0, 128);
    }
}

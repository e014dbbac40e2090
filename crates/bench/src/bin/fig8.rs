//! Regenerates the paper's Fig. 8: (a) energy saving normalized to
//! zero-padding, (b) per-design energy breakdown into array (c + wd + bd)
//! and periphery (dec + mux + rc + sa) portions (Eq. 4).

use red_bench::{all_comparisons, maybe_write_csv, out, outln, render_table};
use red_core::prelude::*;

fn main() {
    let comps = all_comparisons();

    outln!("FIG. 8(a) — ENERGY (normalized to zero-padding; saving = 1 - value)\n");
    let rows: Vec<Vec<String>> = comps
        .iter()
        .map(|(b, c)| {
            let zp_e = c.zero_padding().total_energy_pj();
            vec![
                b.name().to_string(),
                "1.000x".to_string(),
                format!("{:.3}x", c.padding_free().total_energy_pj() / zp_e),
                format!("{:.3}x", c.red().total_energy_pj() / zp_e),
                format!("{:.1}%", c.red().energy_saving_vs(c.zero_padding()) * 100.0),
            ]
        })
        .collect();
    let headers = [
        "benchmark",
        "zero-padding",
        "padding-free",
        "RED",
        "RED saving",
    ];
    out!("{}", render_table(&headers, &rows));
    maybe_write_csv("fig8a_energy", &headers, &rows);

    outln!("\nFIG. 8(b) — ENERGY BREAKDOWN (% of each design's own total)\n");
    let mut rows = Vec::new();
    for (b, c) in &comps {
        for r in c.reports() {
            let total = r.total_energy_pj();
            rows.push(vec![
                b.name().to_string(),
                r.design.label().to_string(),
                format!("{:.1}%", 100.0 * r.array_energy_pj() / total),
                format!("{:.1}%", 100.0 * r.periphery_energy_pj() / total),
                format!("{:.3e}", total),
            ]);
        }
    }
    out!(
        "{}",
        render_table(
            &["benchmark", "design", "array", "periphery", "total (pJ)"],
            &rows
        )
    );

    outln!("\nper-component energy shares (GAN_Deconv1):");
    let (_, c) = &comps[0];
    for r in c.reports() {
        let total = r.total_energy_pj();
        let parts: Vec<String> = Component::ALL
            .iter()
            .filter_map(|&comp| {
                let v = r.energy_pj(comp);
                (v > 0.0).then(|| format!("{}={:.1}%", comp.abbr(), 100.0 * v / total))
            })
            .collect();
        outln!("  {:13} {}", r.design.label(), parts.join("  "));
    }

    let pf_arr: Vec<f64> = comps
        .iter()
        .filter(|(b, _)| b.is_gan())
        .map(|(_, c)| c.padding_free().array_energy_pj() / c.zero_padding().array_energy_pj())
        .collect();
    outln!(
        "\npadding-free array energy on GANs: {:.2}x - {:.2}x the zero-padding design's \
         (paper: 4.48x - 7.53x)",
        pf_arr.iter().copied().fold(f64::INFINITY, f64::min),
        pf_arr.iter().copied().fold(0.0, f64::max)
    );
}

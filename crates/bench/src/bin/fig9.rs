//! Regenerates the paper's Fig. 9: area breakdown of the three designs,
//! normalized to the zero-padding design, for GAN_Deconv1 and FCN_Deconv2
//! (the two layers the paper plots) plus a summary over all benchmarks.

use red_bench::{all_comparisons, maybe_write_csv, out, outln, render_table};
use red_core::prelude::*;

fn main() {
    let comps = all_comparisons();

    outln!("FIG. 9 — AREA BREAKDOWN (normalized to zero-padding total = 100%)\n");
    for name in ["GAN_Deconv1", "FCN_Deconv2"] {
        let (b, c) = comps
            .iter()
            .find(|(b, _)| b.name() == name)
            .expect("benchmark present");
        let zp_total = c.zero_padding().total_area_um2();
        outln!("{}:", b.name());
        let rows: Vec<Vec<String>> = c
            .reports()
            .iter()
            .map(|r| {
                vec![
                    r.design.label().to_string(),
                    format!("{:.1}%", 100.0 * r.array_area_um2() / zp_total),
                    format!("{:.1}%", 100.0 * r.periphery_area_um2() / zp_total),
                    format!("{:.1}%", 100.0 * r.total_area_um2() / zp_total),
                    format!("{:.3}", r.total_area_um2() / 1e6),
                ]
            })
            .collect();
        out!(
            "{}",
            render_table(
                &["design", "array", "periphery", "total", "abs (mm2)"],
                &rows
            )
        );
        outln!();
    }

    outln!("area overhead vs zero-padding, all benchmarks:\n");
    let rows: Vec<Vec<String>> = comps
        .iter()
        .map(|(b, c)| {
            vec![
                b.name().to_string(),
                format!(
                    "{:+.1}%",
                    c.padding_free().area_overhead_vs(c.zero_padding()) * 100.0
                ),
                format!(
                    "{:+.1}%",
                    c.red().area_overhead_vs(c.zero_padding()) * 100.0
                ),
            ]
        })
        .collect();
    let headers = ["benchmark", "padding-free", "RED"];
    out!("{}", render_table(&headers, &rows));
    maybe_write_csv("fig9_area_overhead", &headers, &rows);

    outln!("\nper-component area (GAN_Deconv1, RED):");
    let (_, c) = &comps[0];
    let r = c.red();
    let total = r.total_area_um2();
    for comp in Component::ALL {
        let v = r.area_um2(comp);
        if v > 0.0 {
            outln!(
                "  {:4} {:>10.0} um2  ({:.1}%)",
                comp.abbr(),
                v,
                100.0 * v / total
            );
        }
    }
    outln!(
        "\npaper: padding-free +9.79% (GANs) / +116.57% (FCN_Deconv2); RED +21.41%.\n\
         Our FCN RED overhead exceeds the paper's flat claim because 21-channel\n\
         sub-crossbars cannot amortize per-instance periphery (see EXPERIMENTS.md)."
    );
}

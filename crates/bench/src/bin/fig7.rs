//! Regenerates the paper's Fig. 7: (a) speedup of the three designs
//! normalized to zero-padding, (b) per-design execution-time breakdown
//! into array (wd + bd) and periphery (dec + mux + rc + sa) portions
//! (Eq. 3).

use red_bench::{all_comparisons, maybe_write_csv, out, outln, render_table};
use red_core::Comparison;

fn main() {
    let comps = all_comparisons();

    outln!("FIG. 7(a) — SPEEDUP (normalized to zero-padding)\n");
    let rows: Vec<Vec<String>> = comps
        .iter()
        .map(|(b, c)| {
            let zp = c.zero_padding();
            vec![
                b.name().to_string(),
                "1.00x".to_string(),
                format!("{:.2}x", c.padding_free().speedup_vs(zp)),
                format!("{:.2}x", c.red().speedup_vs(zp)),
            ]
        })
        .collect();
    let headers = ["benchmark", "zero-padding", "padding-free", "RED"];
    out!("{}", render_table(&headers, &rows));
    maybe_write_csv("fig7a_speedup", &headers, &rows);

    outln!("\nFIG. 7(b) — EXECUTION TIME BREAKDOWN (% of each design's own total)\n");
    let mut rows = Vec::new();
    for (b, c) in &comps {
        for r in c.reports() {
            let total = r.total_latency_ns();
            rows.push(vec![
                b.name().to_string(),
                r.design.label().to_string(),
                format!("{:.1}%", 100.0 * r.array_latency_ns() / total),
                format!("{:.1}%", 100.0 * r.periphery_latency_ns() / total),
                format!("{:.3e}", total),
            ]);
        }
    }
    out!(
        "{}",
        render_table(
            &["benchmark", "design", "array", "periphery", "total (ns)"],
            &rows
        )
    );

    outln!("\nper-component latency shares (GAN_Deconv1):");
    let (_, c) = &comps[0];
    for r in c.reports() {
        let parts: Vec<String> = Comparison::latency_breakdown_pct(r)
            .into_iter()
            .map(|(comp, pct)| format!("{}={pct:.1}%", comp.abbr()))
            .collect();
        outln!("  {:13} {}", r.design.label(), parts.join("  "));
    }

    let zp_pf: Vec<f64> = comps
        .iter()
        .filter(|(b, _)| b.is_gan())
        .map(|(_, c)| c.zero_padding().total_latency_ns() / c.padding_free().total_latency_ns())
        .collect();
    outln!(
        "\nzero-padding vs padding-free on GANs: {:.2}x - {:.2}x slower (paper: 1.55x - 2.62x)",
        zp_pf.iter().copied().fold(f64::INFINITY, f64::min),
        zp_pf.iter().copied().fold(0.0, f64::max)
    );
}

//! Regenerates the paper's Fig. 4: zero-redundancy ratio of the
//! zero-padding deconvolution vs stride, for the SNGAN-shaped 4×4 input
//! (kernel 4, padding 1) and the FCN-shaped 16×16 input (kernel 16,
//! padding 0).
//!
//! Paper anchors: 86.8 % at stride 2 and 99.8 % at stride 32 (SNGAN curve).

use red_bench::{cli_args, csv_dir, maybe_write_csv, out, outln, render_table};
use red_core::tensor::redundancy::sweep_strides;
use std::process::ExitCode;

/// Every flag `fig4` knows, as [`red_bench::unknown_arg`] reads them.
const USAGE: &str = "usage: fig4 [--csv <dir>]";

fn main() -> ExitCode {
    let Some(args) = cli_args(USAGE) else {
        return ExitCode::from(2);
    };
    let strides = [1usize, 2, 4, 8, 16, 32];
    let sngan = sweep_strides(4, 4, 4, 1, &strides).expect("SNGAN sweep");
    let fcn = sweep_strides(16, 16, 16, 0, &strides).expect("FCN sweep");

    outln!("FIG. 4 — ZERO REDUNDANCY RATIO vs STRIDE\n");
    let rows: Vec<Vec<String>> = strides
        .iter()
        .enumerate()
        .map(|(i, s)| {
            vec![
                s.to_string(),
                format!("{:.1}%", sngan[i].map_zero_fraction * 100.0),
                format!("{:.1}%", sngan[i].mac_zero_fraction * 100.0),
                format!("{:.1}%", fcn[i].map_zero_fraction * 100.0),
                format!("{:.1}%", fcn[i].mac_zero_fraction * 100.0),
            ]
        })
        .collect();
    let headers = [
        "stride",
        "SNGAN 4x4 (map)",
        "SNGAN 4x4 (per-MAC)",
        "FCN 16x16 (map)",
        "FCN 16x16 (per-MAC)",
    ];
    out!("{}", render_table(&headers, &rows));
    maybe_write_csv(csv_dir(&args), "fig4", &headers, &rows);
    outln!(
        "\npaper anchors: 86.8% @ stride 2 -> measured {:.1}%;  99.8% @ stride 32 -> measured {:.1}%",
        sngan[1].map_zero_fraction * 100.0,
        sngan[5].map_zero_fraction * 100.0
    );
    outln!("(map = zero fraction of the padded input map, the paper's metric;");
    outln!(" per-MAC = fraction of window-tap multiplies with a zero operand)");
    ExitCode::SUCCESS
}

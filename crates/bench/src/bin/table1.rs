//! Regenerates the paper's Table I: the benchmark deconvolution layers.

use red_bench::{cli_args, out, outln, render_table};
use red_core::prelude::*;
use std::process::ExitCode;

/// `table1` takes no flags, so [`red_bench::unknown_arg`] rejects every argument.
const USAGE: &str = "usage: table1";

fn main() -> ExitCode {
    if cli_args(USAGE).is_none() {
        return ExitCode::from(2);
    }
    outln!("TABLE I — BENCHMARKS USED IN THIS WORK\n");
    let rows: Vec<Vec<String>> = Benchmark::all()
        .iter()
        .map(|b| {
            let l = b.layer();
            let o = l.output_geometry();
            vec![
                b.name().to_string(),
                b.network().to_string(),
                b.dataset().to_string(),
                format!("({}, {}, {})", l.input_h(), l.input_w(), l.channels()),
                format!("({}, {}, {})", o.height, o.width, l.filters()),
                format!(
                    "({}, {}, {}, {})",
                    l.spec().kernel_h(),
                    l.spec().kernel_w(),
                    l.channels(),
                    l.filters()
                ),
                l.spec().stride().to_string(),
            ]
        })
        .collect();
    out!(
        "{}",
        render_table(
            &[
                "Layer Name",
                "Network Model",
                "Dataset",
                "Input (IH,IW,C)",
                "Output (OH,OW,M)",
                "Kernel (KH,KW,C,M)",
                "Stride"
            ],
            &rows
        )
    );
    outln!("\n(paper Table I reproduced exactly; geometry validated by red-workloads tests)");
    ExitCode::SUCCESS
}

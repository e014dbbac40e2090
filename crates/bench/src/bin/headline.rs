//! Checks every §IV headline claim of the paper against this
//! reproduction's measurements and prints a verdict table.

use red_bench::{cli_args, headline_checks, out, outln, render_table};
use std::process::ExitCode;

/// `headline` takes no flags, so [`red_bench::unknown_arg`] rejects every argument.
const USAGE: &str = "usage: headline";

fn main() -> ExitCode {
    if cli_args(USAGE).is_none() {
        return ExitCode::from(2);
    }
    outln!("HEADLINE CLAIMS (paper SIV) vs THIS REPRODUCTION\n");
    let rows: Vec<Vec<String>> = headline_checks()
        .into_iter()
        .map(|c| {
            vec![
                c.source.to_string(),
                c.paper,
                c.measured,
                if c.in_band {
                    "in band".into()
                } else {
                    "DEVIATES".into()
                },
            ]
        })
        .collect();
    out!(
        "{}",
        render_table(&["source", "paper claim", "measured", "verdict"], &rows)
    );
    outln!("\n(bands are the reproduction tolerances asserted by tests/paper_bands.rs)");
    ExitCode::SUCCESS
}

//! Checks every §IV headline claim of the paper against this
//! reproduction's measurements and prints a verdict table.

use red_bench::{headline_checks, out, outln, render_table};

fn main() {
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
}

//! # red-bench
//!
//! Benchmark harness regenerating **every table and figure** of the RED
//! paper's evaluation (§IV), plus ablations the paper's design discussion
//! implies. One binary per artifact:
//!
//! | Binary | Artifact |
//! |---|---|
//! | `table1` | Table I — benchmark layer geometries |
//! | `fig4` | Fig. 4 — zero-redundancy ratio vs stride |
//! | `fig7` | Fig. 7 — latency: speedup + array/periphery breakdown |
//! | `fig8` | Fig. 8 — energy: saving + array/periphery breakdown |
//! | `fig9` | Fig. 9 — area breakdown |
//! | `headline` | §IV headline claims vs measured values |
//! | `ablation` | zero-skipping / Eq. 2 halving / driver-upsizing / precision ablations |
//! | `experiments` | regenerates `EXPERIMENTS.md` from all of the above |
//!
//! The Criterion benches (`benches/`) measure the *simulator itself*
//! (engine throughput, crossbar VMM paths, cost-model evaluation) so
//! regressions in the substrate are visible too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod minijson;

use red_core::prelude::*;
use red_core::Comparison;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once stdout's reader has gone away; every later write is dropped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `args` to stdout: every red-bench binary prints through here,
/// by way of [`out!`] and [`outln!`]. Once stdout is closed — a reader
/// such as `head -1` that stops early — this and every later write is
/// dropped, where `println!` would panic with status 101. The program
/// runs on, so the files it writes and its exit status are those of a
/// run whose stdout stayed open. Any other write error still panics.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::{ErrorKind, Write};
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => STDOUT_CLOSED.store(true, Ordering::Relaxed),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// A named paper claim with its measured counterpart, used by `headline`
/// and `experiments`.
#[derive(Debug, Clone)]
pub struct PaperCheck {
    /// Which figure/section the claim comes from.
    pub source: &'static str,
    /// The claim as the paper states it.
    pub paper: String,
    /// What this reproduction measures.
    pub measured: String,
    /// Whether the measured value falls in the reproduction band.
    pub in_band: bool,
}

/// Evaluates the three designs on every Table I benchmark with the default
/// (paper-calibrated) cost model, one worker thread per benchmark.
pub fn all_comparisons() -> Vec<(Benchmark, Comparison)> {
    let model = CostModel::paper_default();
    std::thread::scope(|s| {
        let handles: Vec<_> = Benchmark::all()
            .into_iter()
            .map(|b| {
                let model = &model;
                s.spawn(move || {
                    let cmp =
                        Comparison::evaluate(model, &b.layer()).expect("Table I layers evaluate");
                    (b, cmp)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("evaluation thread completes"))
            .collect()
    })
}

/// Parses `--flag V` from a raw argument list: the default when the flag
/// is absent, `None` (a usage error) when it is present without a
/// parsable value.
pub fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Option<T> {
    match args.iter().position(|a| a == flag) {
        None => Some(default),
        Some(i) => args.get(i + 1)?.parse().ok(),
    }
}

/// Parses `--flag a,b,c` as a comma-separated list: `default` when the
/// flag is absent, `None` when present without a fully parsable list.
pub fn parse_list_flag<T: std::str::FromStr + Clone>(
    args: &[String],
    flag: &str,
    default: &[T],
) -> Option<Vec<T>> {
    match args.iter().position(|a| a == flag) {
        None => Some(default.to_vec()),
        Some(i) => args
            .get(i + 1)?
            .split(',')
            .map(|s| s.trim().parse().ok())
            .collect(),
    }
}

/// Formats a fixed-width text table (markdown-flavoured) into a string.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let body: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        format!("| {} |\n", body.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&sep, &widths));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Writes `headers` + `rows` as a CSV file, creating parent directories.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or the write.
pub fn write_csv(
    path: &std::path::Path,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for row in rows {
        let escaped: Vec<String> = row
            .iter()
            .map(|c| {
                if c.contains(',') || c.contains('"') {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c.clone()
                }
            })
            .collect();
        out.push_str(&escaped.join(","));
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Escapes a string for embedding inside a JSON string literal (the
/// machine-readable outputs are assembled by hand — the workspace's
/// `serde_json` slot is an offline placeholder).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// If the process was invoked with `--csv <dir>`, writes the table there
/// as `<name>.csv` and reports the path on stdout.
pub fn maybe_write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--csv") {
        let dir = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| "results".to_string());
        let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
        match write_csv(&path, headers, rows) {
            Ok(()) => write_stdout(format_args!("(wrote {})\n", path.display())),
            Err(e) => eprintln!("csv write failed: {e}"),
        }
    }
}

/// The headline checks of §IV, computed from the default model.
pub fn headline_checks() -> Vec<PaperCheck> {
    let comps = all_comparisons();
    let speedups: Vec<f64> = comps
        .iter()
        .map(|(_, c)| c.red().speedup_vs(c.zero_padding()))
        .collect();
    let savings: Vec<f64> = comps
        .iter()
        .map(|(_, c)| c.red().energy_saving_vs(c.zero_padding()))
        .collect();
    let min_s = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let max_s = speedups.iter().copied().fold(0.0, f64::max);
    let min_e = savings.iter().copied().fold(f64::INFINITY, f64::min);
    let max_e = savings.iter().copied().fold(0.0, f64::max);
    let gan_red_area: Vec<f64> = comps
        .iter()
        .filter(|(b, _)| b.is_gan())
        .map(|(_, c)| c.red().area_overhead_vs(c.zero_padding()))
        .collect();
    let red_area = gan_red_area.iter().sum::<f64>() / gan_red_area.len() as f64;
    let pf_gan_energy = comps
        .iter()
        .filter(|(b, _)| b.is_gan())
        .map(|(_, c)| c.padding_free().total_energy_pj() / c.zero_padding().total_energy_pj())
        .fold(0.0, f64::max);
    let pf_gan_array: Vec<f64> = comps
        .iter()
        .filter(|(b, _)| b.is_gan())
        .map(|(_, c)| c.padding_free().array_energy_pj() / c.zero_padding().array_energy_pj())
        .collect();
    let (pf_arr_min, pf_arr_max) = (
        pf_gan_array.iter().copied().fold(f64::INFINITY, f64::min),
        pf_gan_array.iter().copied().fold(0.0, f64::max),
    );
    let zp_pf: Vec<f64> = comps
        .iter()
        .filter(|(b, _)| b.is_gan())
        .map(|(_, c)| c.zero_padding().total_latency_ns() / c.padding_free().total_latency_ns())
        .collect();
    let (zp_pf_min, zp_pf_max) = (
        zp_pf.iter().copied().fold(f64::INFINITY, f64::min),
        zp_pf.iter().copied().fold(0.0, f64::max),
    );

    vec![
        PaperCheck {
            source: "Fig. 7(a)",
            paper: "RED speedup 3.69x - 31.15x over zero-padding".into(),
            measured: format!("{min_s:.2}x - {max_s:.2}x"),
            in_band: (3.4..=4.0).contains(&min_s) && (29.0..=33.0).contains(&max_s),
        },
        PaperCheck {
            source: "SIV-B1",
            paper: "zero-padding latency 1.55x - 2.62x padding-free (GANs)".into(),
            measured: format!("{zp_pf_min:.2}x - {zp_pf_max:.2}x"),
            in_band: zp_pf_min >= 1.55 && zp_pf_max <= 2.62,
        },
        PaperCheck {
            source: "Fig. 8(a)",
            paper: "RED saves 8% - 88.36% energy vs zero-padding".into(),
            measured: format!("{:.1}% - {:.1}%", min_e * 100.0, max_e * 100.0),
            in_band: (0.05..=0.30).contains(&min_e) && (0.80..=0.97).contains(&max_e),
        },
        PaperCheck {
            source: "SIV-B2",
            paper: "padding-free array energy 4.48x - 7.53x the others (GANs)".into(),
            measured: format!("{pf_arr_min:.2}x - {pf_arr_max:.2}x"),
            in_band: pf_arr_min >= 4.0 && pf_arr_max <= 8.0,
        },
        PaperCheck {
            source: "SIV-B2",
            paper: "padding-free up to 6.68x more total energy on GANs".into(),
            measured: format!("up to {pf_gan_energy:.2}x"),
            in_band: (4.0..=7.5).contains(&pf_gan_energy),
        },
        PaperCheck {
            source: "Fig. 9",
            paper: "RED area overhead ~21.41% (abstract: 22.14%)".into(),
            measured: format!("{:.1}% (GAN layers)", red_area * 100.0),
            in_band: (0.15..=0.30).contains(&red_area),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons_cover_all_benchmarks() {
        let c = all_comparisons();
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn headline_checks_all_pass() {
        for check in headline_checks() {
            assert!(
                check.in_band,
                "{}: {} vs {}",
                check.source, check.paper, check.measured
            );
        }
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\t"), "line\\nbreak\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("| 333 |"));
        assert_eq!(t.lines().count(), 4);
    }
}

//! `redsim` — command-line front end for the RED accelerator simulator.
//!
//! ```text
//! redsim list                               # the Table I benchmarks
//! redsim estimate GAN_Deconv3 --design red  # one design's bill
//! redsim estimate custom 8 512 256 5 2 2 1  # IH C M K stride pad [outpad]
//! redsim compare FCN_Deconv2                # all three designs
//! redsim compare GAN_Deconv1 --macros 512   # ... with physical tiling
//! redsim run GAN_Deconv3 --scale 64         # functional run + stats
//! redsim pipeline dcgan                     # pipelined network totals
//! ```

use red_bench::{out, outln, render_table};
use red_core::prelude::*;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  redsim list\n  redsim estimate <benchmark|custom IH C M K S P [OP]> [--design zp|pf|red] [--macros 512|128]\n  redsim compare <benchmark|custom IH C M K S P [OP]> [--macros 512|128]\n  redsim run <benchmark> [--scale N] [--design zp|pf|red]\n  redsim pipeline <dcgan|sngan|fcn>"
    );
    ExitCode::from(2)
}

fn parse_design(s: &str) -> Option<Design> {
    match s {
        "zp" | "zero-padding" => Some(Design::ZeroPadding),
        "pf" | "padding-free" => Some(Design::PaddingFree),
        "red" => Some(Design::red(RedLayoutPolicy::Auto)),
        _ => None,
    }
}

fn parse_macros(s: &str) -> Option<MacroSpec> {
    match s {
        "512" => Some(MacroSpec::m512()),
        "128" => Some(MacroSpec::m128()),
        _ => None,
    }
}

fn parse_scale(s: &str) -> Option<usize> {
    s.parse().ok().filter(|&n| n > 0)
}

fn find_benchmark(name: &str) -> Option<Benchmark> {
    Benchmark::all()
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
}

/// Parses either a benchmark name or `custom IH C M K S P [OP]`. Every
/// field before the first `--` flag must be a number, six or seven of
/// them, describing a valid layer. A bad field prints which one, and the
/// usage text follows with exit code 2.
fn parse_layer(args: &[String]) -> Result<LayerShape, ExitCode> {
    const FIELDS: [&str; 7] = ["IH", "C", "M", "K", "S", "P", "OP"];
    let Some(first) = args.first() else {
        return Err(usage());
    };
    if first != "custom" {
        return find_benchmark(first).map(|b| b.layer()).ok_or_else(usage);
    }
    let fields: Vec<&String> = args[1..]
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .collect();
    if !(6..=FIELDS.len()).contains(&fields.len()) {
        eprintln!(
            "custom takes IH C M K S P [OP], got {} fields",
            fields.len()
        );
        return Err(usage());
    }
    let mut nums = [0usize; 7];
    for ((name, value), num) in FIELDS.iter().zip(fields).zip(&mut nums) {
        *num = value.parse().map_err(|_| {
            eprintln!("invalid custom field {name} {value:?}");
            usage()
        })?;
    }
    let [ih, c, m, k, s, p, op] = nums;
    let layer = DeconvSpec::with_output_padding(k, k, s, p, op)
        .and_then(|spec| LayerShape::with_spec(ih, ih, c, m, spec));
    layer.map_err(|e| {
        eprintln!("invalid custom layer: {e}");
        usage()
    })
}

/// `flag`'s value through `parse`: `Ok(None)` when the flag is absent.
/// A missing or rejected value prints which flag was bad and the usage
/// text, and yields exit code 2.
fn flag_value<T>(
    args: &[String],
    flag: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, ExitCode> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) => match parse(value) {
            Some(v) => Ok(Some(v)),
            None => {
                eprintln!("invalid {flag} value {value:?}");
                Err(usage())
            }
        },
        None => {
            eprintln!("{flag} requires a value");
            Err(usage())
        }
    }
}

fn print_report(r: &CostReport) {
    outln!(
        "design {} | cycles {} | latency {:.3} us | energy {:.3} uJ | area {:.4} mm2",
        r.design.label(),
        r.geometry.cycles,
        r.total_latency_ns() / 1e3,
        r.total_energy_pj() / 1e6,
        r.total_area_um2() / 1e6
    );
    let rows: Vec<Vec<String>> = Component::ALL
        .iter()
        .filter(|c| r.latency_ns(**c) > 0.0 || r.energy_pj(**c) > 0.0 || r.area_um2(**c) > 0.0)
        .map(|c| {
            vec![
                c.abbr().to_string(),
                if c.is_array() { "array" } else { "periphery" }.to_string(),
                format!("{:.2}", r.latency_ns(*c) / 1e3),
                format!("{:.3}", r.energy_pj(*c) / 1e6),
                format!("{:.4}", r.area_um2(*c) / 1e6),
            ]
        })
        .collect();
    out!(
        "{}",
        render_table(
            &["part", "group", "latency (us)", "energy (uJ)", "area (mm2)"],
            &rows
        )
    );
}

fn cmd_list() -> ExitCode {
    let rows: Vec<Vec<String>> = Benchmark::all()
        .iter()
        .map(|b| {
            let l = b.layer();
            vec![
                b.name().to_string(),
                b.network().to_string(),
                format!(
                    "{}x{}x{} -> {}x{}x{}",
                    l.input_h(),
                    l.input_w(),
                    l.channels(),
                    l.output_geometry().height,
                    l.output_geometry().width,
                    l.filters()
                ),
                format!(
                    "{}x{}/s{}",
                    l.spec().kernel_h(),
                    l.spec().kernel_w(),
                    l.spec().stride()
                ),
            ]
        })
        .collect();
    out!(
        "{}",
        render_table(&["benchmark", "network", "shape", "kernel"], &rows)
    );
    ExitCode::SUCCESS
}

fn cmd_estimate(args: &[String]) -> Result<ExitCode, ExitCode> {
    let layer = parse_layer(args)?;
    let design =
        flag_value(args, "--design", parse_design)?.unwrap_or(Design::red(RedLayoutPolicy::Auto));
    let model = CostModel::paper_default();
    let report = match flag_value(args, "--macros", parse_macros)? {
        Some(mac) => model.evaluate_tiled(design, &layer, mac),
        None => model.evaluate(design, &layer),
    };
    match report {
        Ok(r) => {
            print_report(&r);
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("error: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, ExitCode> {
    let layer = parse_layer(args)?;
    let model = CostModel::paper_default();
    let mac = flag_value(args, "--macros", parse_macros)?;
    let reports: Vec<CostReport> = Design::paper_lineup()
        .iter()
        .map(|&d| match mac {
            Some(m) => model.evaluate_tiled(d, &layer, m).expect("evaluates"),
            None => model.evaluate(d, &layer).expect("evaluates"),
        })
        .collect();
    let zp = &reports[0];
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.design.label().to_string(),
                format!("{:.2}x", r.speedup_vs(zp)),
                format!("{:.3}x", r.total_energy_pj() / zp.total_energy_pj()),
                format!("{:+.1}%", r.area_overhead_vs(zp) * 100.0),
                format!("{}", r.geometry.cycles),
            ]
        })
        .collect();
    out!(
        "{}",
        render_table(&["design", "speedup", "energy", "area", "cycles"], &rows)
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, ExitCode> {
    let Some(bench) = args.first().and_then(|s| find_benchmark(s)) else {
        return Err(usage());
    };
    let scale = flag_value(args, "--scale", parse_scale)?.unwrap_or(64);
    let design =
        flag_value(args, "--design", parse_design)?.unwrap_or(Design::red(RedLayoutPolicy::Auto));
    let layer = bench.scaled_layer(scale);
    let kernel = synth::kernel(&layer, 127, 1);
    let input = synth::input_dense(&layer, 127, 2);
    let acc = Accelerator::builder().design(design).build();
    let compiled = match acc.compile(&layer, &kernel) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("compile error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    match compiled.run(&input) {
        Ok(exec) => {
            let golden = red_core::tensor::deconv::deconv_direct(&input, &kernel, layer.spec())
                .expect("golden deconvolution");
            outln!(
                "{bench} (C/M scaled /{scale}) on {}: cycles={} vector-ops={} \
                 nonzero-activations={} zero-slots={:.1}% bit-exact={}",
                design.label(),
                exec.stats.cycles,
                exec.stats.vector_ops,
                exec.stats.nonzero_row_activations,
                exec.stats.zero_slot_fraction() * 100.0,
                exec.output == golden
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("run error: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_pipeline(args: &[String]) -> ExitCode {
    use red_core::workloads::networks;
    let stack = match args.first().map(String::as_str) {
        Some("dcgan") => networks::dcgan_generator(1),
        Some("sngan") => networks::sngan_generator(1),
        Some("fcn") => networks::fcn8s_upsampling(16),
        _ => return usage(),
    };
    let stack = match stack {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = CostModel::paper_default();
    outln!("{} — {} stages", stack.name, stack.layers.len());
    let zp =
        PipelineReport::evaluate(&model, Design::ZeroPadding, &stack.layers).expect("evaluates");
    let rows: Vec<Vec<String>> = Design::paper_lineup()
        .iter()
        .map(|&d| {
            let p = PipelineReport::evaluate(&model, d, &stack.layers).expect("evaluates");
            vec![
                d.label().to_string(),
                format!("{:.2}", p.fill_latency_ns() / 1e3),
                format!("{:.2}", p.steady_interval_ns() / 1e3),
                format!("{:.2}x", p.speedup_vs(&zp)),
                format!("{:.1}", p.energy_per_input_pj() / 1e6),
                format!("{:.3}", p.total_area_um2() / 1e6),
            ]
        })
        .collect();
    out!(
        "{}",
        render_table(
            &[
                "design",
                "fill (us)",
                "interval (us)",
                "speedup",
                "uJ/input",
                "area (mm2)"
            ],
            &rows
        )
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("estimate") => cmd_estimate(&args[1..]).unwrap_or_else(|code| code),
        Some("compare") => cmd_compare(&args[1..]).unwrap_or_else(|code| code),
        Some("run") => cmd_run(&args[1..]).unwrap_or_else(|code| code),
        Some("pipeline") => cmd_pipeline(&args[1..]),
        _ => usage(),
    }
}

//! Regenerates `EXPERIMENTS.md`: the paper-vs-measured record for every
//! table and figure in the paper's evaluation.
//!
//! ```sh
//! cargo run -p red-bench --bin experiments   # writes ./EXPERIMENTS.md
//! ```

use red_bench::{all_comparisons, headline_checks, outln, render_table};
use red_core::tensor::redundancy::sweep_strides;
use std::fmt::Write as _;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut md = String::new();
    let comps = all_comparisons();

    writeln!(md, "# EXPERIMENTS — paper vs measured\n")?;
    writeln!(
        md,
        "Reproduction of every table and figure in *RED: A ReRAM-based Deconvolution\n\
         Accelerator* (DATE 2019) with this repository's simulator stack. All values\n\
         regenerate with `cargo run -p red-bench --bin experiments` (per-figure\n\
         binaries: `table1`, `fig4`, `fig7`, `fig8`, `fig9`, `headline`, `ablation`).\n\
         The substrate is our NeuroSim-style analytical model (see DESIGN.md §3-§4),\n\
         so the reproduction target is the *shape* of each result — orderings and\n\
         approximate ratios — not absolute ns/pJ/µm².\n"
    )?;

    // ---- headline summary.
    writeln!(md, "## Headline claims (§IV)\n")?;
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
                    "deviates (documented)".into()
                },
            ]
        })
        .collect();
    writeln!(
        md,
        "{}",
        render_table(&["source", "paper", "measured", "verdict"], &rows)
    )?;

    // ---- Table I.
    writeln!(md, "## Table I — benchmarks\n")?;
    writeln!(
        md,
        "Reproduced exactly (six layers; geometry pinned by `red-workloads` tests).\n\
         The 5×5/stride-2 layers require `padding=2, output_padding=1` (PyTorch\n\
         convention) to reach the published output sizes; 4×4 layers use padding 1;\n\
         FCN layers use padding 0.\n"
    )?;

    // ---- Fig. 4.
    writeln!(md, "## Fig. 4 — zero redundancy vs stride\n")?;
    let strides = [1usize, 2, 4, 8, 16, 32];
    let sngan = sweep_strides(4, 4, 4, 1, &strides)?;
    let fcn = sweep_strides(16, 16, 16, 0, &strides)?;
    let rows: Vec<Vec<String>> = strides
        .iter()
        .enumerate()
        .map(|(i, s)| {
            vec![
                s.to_string(),
                format!("{:.1}%", sngan[i].map_zero_fraction * 100.0),
                format!("{:.1}%", fcn[i].map_zero_fraction * 100.0),
            ]
        })
        .collect();
    writeln!(
        md,
        "{}",
        render_table(&["stride", "SNGAN 4x4", "FCN 16x16"], &rows)
    )?;
    writeln!(
        md,
        "Paper anchors hit exactly: **86.8 %** at stride 2 (measured {:.1} %) and\n\
         **99.8 %** at stride 32 (measured {:.2} %), with the metric identified as\n\
         the zero fraction of the padded input map at the network's native\n\
         kernel/padding.\n",
        sngan[1].map_zero_fraction * 100.0,
        sngan[5].map_zero_fraction * 100.0
    )?;

    // ---- Fig. 7.
    writeln!(md, "## Fig. 7 — latency\n")?;
    let rows: Vec<Vec<String>> = comps
        .iter()
        .map(|(b, c)| {
            let zp = c.zero_padding();
            vec![
                b.name().to_string(),
                format!("{:.2}x", c.padding_free().speedup_vs(zp)),
                format!("{:.2}x", c.red().speedup_vs(zp)),
                format!(
                    "{:.0}%/{:.0}%",
                    100.0 * zp.array_latency_ns() / zp.total_latency_ns(),
                    100.0 * zp.periphery_latency_ns() / zp.total_latency_ns()
                ),
                format!(
                    "{:.0}%/{:.0}%",
                    100.0 * c.red().array_latency_ns() / c.red().total_latency_ns(),
                    100.0 * c.red().periphery_latency_ns() / c.red().total_latency_ns()
                ),
            ]
        })
        .collect();
    writeln!(
        md,
        "{}",
        render_table(
            &[
                "benchmark",
                "PF speedup",
                "RED speedup",
                "ZP arr/pp",
                "RED arr/pp"
            ],
            &rows
        )
    )?;
    let (smin, smax) = comps
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), (_, c)| {
            let s = c.red().speedup_vs(c.zero_padding());
            (lo.min(s), hi.max(s))
        });
    writeln!(
        md,
        "Paper: RED speedup **3.69×–31.15×**; measured **{smin:.2}×–{smax:.2}×**, minimum\n\
         on the 5×5 stride-2 GAN layers, maximum on the halved-SCT FCN_Deconv2,\n\
         matching the paper's distribution. Zero-padding runs 1.55×–2.62× slower\n\
         than padding-free on GANs in the paper; measured {:.2}×–{:.2}×.\n",
        comps
            .iter()
            .filter(|(b, _)| b.is_gan())
            .map(|(_, c)| c.zero_padding().total_latency_ns() / c.padding_free().total_latency_ns())
            .fold(f64::INFINITY, f64::min),
        comps
            .iter()
            .filter(|(b, _)| b.is_gan())
            .map(|(_, c)| c.zero_padding().total_latency_ns() / c.padding_free().total_latency_ns())
            .fold(0.0, f64::max)
    )?;

    // ---- Fig. 8.
    writeln!(md, "## Fig. 8 — energy\n")?;
    let rows: Vec<Vec<String>> = comps
        .iter()
        .map(|(b, c)| {
            let zp_e = c.zero_padding().total_energy_pj();
            vec![
                b.name().to_string(),
                format!("{:.3}x", c.padding_free().total_energy_pj() / zp_e),
                format!("{:.3}x", c.red().total_energy_pj() / zp_e),
                format!("{:.1}%", c.red().energy_saving_vs(c.zero_padding()) * 100.0),
                format!(
                    "{:.2}x",
                    c.padding_free().array_energy_pj() / c.zero_padding().array_energy_pj()
                ),
            ]
        })
        .collect();
    writeln!(
        md,
        "{}",
        render_table(
            &[
                "benchmark",
                "PF energy",
                "RED energy",
                "RED saving",
                "PF/ZP array"
            ],
            &rows
        )
    )?;
    writeln!(
        md,
        "Paper: RED saves **8 %–88.36 %** vs zero-padding; measured {:.1} %–{:.1} %.\n\
         Padding-free array energy **4.48×–7.53×** the others on GANs; measured in\n\
         band (table above). Zero-padding and RED show near-identical array energy\n\
         on GANs (identical non-zero work and wordline geometry); on FCNs RED's\n\
         array energy is *lower* than zero-padding's because the stride²-inflated\n\
         cycle count burns extra bitline precharge — a modelling deviation from the\n\
         paper's blanket \"similar\" wording, in RED's favour.\n",
        comps
            .iter()
            .map(|(_, c)| c.red().energy_saving_vs(c.zero_padding()) * 100.0)
            .fold(f64::INFINITY, f64::min),
        comps
            .iter()
            .map(|(_, c)| c.red().energy_saving_vs(c.zero_padding()) * 100.0)
            .fold(0.0, f64::max)
    )?;

    // ---- Fig. 9.
    writeln!(md, "## Fig. 9 — area\n")?;
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
    writeln!(
        md,
        "{}",
        render_table(&["benchmark", "padding-free", "RED"], &rows)
    )?;
    writeln!(
        md,
        "Paper: identical cell area across designs (holds exactly here);\n\
         padding-free **+9.79 %** on GANs / **+116.57 %** on FCN_Deconv2 (measured\n\
         above: GANs ≈ +6 %, FCN_Deconv2 ≈ +135 % — same shape, constants shared\n\
         with the FCN band); RED **+21.41 %** (measured ≈ +20 % on GANs).\n\n\
         **Documented deviation:** on the FCN layers our RED area overhead\n\
         (≈ +77–84 %) exceeds the paper's flat ~21 % claim: with only 21 channels\n\
         per sub-crossbar, per-instance periphery cannot amortize. The paper's\n\
         figure axis (0–120 %) and its \"similar area overhead\" wording do not\n\
         resolve FCN RED's exact bar; our model keeps the two robust orderings it\n\
         does state — RED ≪ padding-free on FCNs, RED slightly above zero-padding\n\
         everywhere.\n"
    )?;

    // ---- extensions.
    writeln!(md, "## Extensions beyond the paper (DESIGN.md §5b)\n")?;
    {
        use red_core::prelude::*;
        let model = CostModel::paper_default();
        // Pipelined DCGAN generator.
        let stack = red_core::workloads::networks::dcgan_generator(1)?;
        let zp = PipelineReport::evaluate(&model, Design::ZeroPadding, &stack.layers)?;
        let red =
            PipelineReport::evaluate(&model, Design::red(RedLayoutPolicy::Auto), &stack.layers)?;
        writeln!(
            md,
            "* **Pipelined DCGAN generator** (4 stages, PipeLayer-style): steady-state\n\
              interval {:.1} µs (zero-padding) vs {:.1} µs (RED) — **{:.2}×** sustained\n\
              throughput gain, {:.0} µJ vs {:.0} µJ per generated image.",
            zp.steady_interval_ns() / 1e3,
            red.steady_interval_ns() / 1e3,
            red.speedup_vs(&zp),
            zp.energy_per_input_pj() / 1e6,
            red.energy_per_input_pj() / 1e6
        )?;
        // Tiling robustness.
        let layer = Benchmark::GanDeconv3.layer();
        let zp_t = model.evaluate_tiled(Design::ZeroPadding, &layer, MacroSpec::m512())?;
        let red_t = model.evaluate_tiled(
            Design::red(RedLayoutPolicy::Auto),
            &layer,
            MacroSpec::m512(),
        )?;
        writeln!(
            md,
            "* **Physical 512×512 macro tiling** (vs the paper's logical arrays):\n\
              GAN_Deconv3 RED speedup {:.2}× and energy saving {:.1} % — the paper's\n\
              orderings survive the realistic array model.",
            red_t.speedup_vs(&zp_t),
            red_t.energy_saving_vs(&zp_t) * 100.0
        )?;
        // Programming cost.
        let prog = model.programming_cost(Design::red(RedLayoutPolicy::Auto), &layer)?;
        writeln!(
            md,
            "* **Programming cost**: loading GAN_Deconv3's weights once costs\n\
              {:.1} µJ across {} cells — identical for all three designs (same\n\
              resident weights), amortized over every subsequent inference.",
            prog.energy_pj / 1e6,
            prog.cells
        )?;
        writeln!(
            md,
            "* **Device realism** (`cargo run --example noise_resilience`): accuracy\n\
              degrades monotonically under conductance variation, stuck-at faults,\n\
              retention drift and ADC saturation; under wire IR drop RED is markedly\n\
              *more* robust than the monolithic zero-padding mapping (~24 dB SQNR\n\
              advantage at 10 Ω/cell) because its sub-crossbar lines are KH·KW×\n\
              shorter — an emergent benefit the paper does not claim.\n"
        )?;
    }

    // ---- online serving recipe.
    writeln!(md, "## Online serving (beyond the paper)\n")?;
    writeln!(
        md,
        "`red-server` puts a dynamic micro-batching scheduler with SLO-aware,\n\
         tenant-aware admission between live request traffic and a replicated\n\
         multi-network fleet; all latency figures are virtual (modeled\n\
         hardware) time, so a fixed seed reproduces them anywhere. The\n\
         committed `BENCH_loadgen.json` baseline drives **one million\n\
         requests per policy row** through the DCGAN + SNGAN + FCN lineup\n\
         (`--mix`) with three tenant classes (weights 4:2:1, the interactive\n\
         class on a 200 us SLO), model-only execution (identical virtual\n\
         statistics, no functional crossbars) and deterministic replica\n\
         autoscaling from a floor of 1. The driver runs the scheduler on\n\
         the calling thread with a bounded window per client (~30 MB peak\n\
         RSS). Regenerate it with:\n\n\
         ```sh\n\
         cargo run --release -p red-bench --bin loadgen -- \\\n\
         \x20   --mix --model-only --requests 1000000 \\\n\
         \x20   --clients 12 --replicas 2 \\\n\
         \x20   --tenants interactive:4:0:200,standard:2:1:800,batch:1:2:0 \\\n\
         \x20   --policy weighted-fair,priority --max-lag-us 50 \\\n\
         \x20   --rps 600000 --autoscale 1 --seed 7 \\\n\
         \x20   --json BENCH_loadgen.json\n\
         ```\n\n\
         At 600 krps offered (~1.6x the slowest partition's local capacity)\n\
         `weighted-fair` serves the interactive tenant with **zero shed** and\n\
         a 106.5 us p99 — far inside its 200 us SLO — while the best-effort\n\
         tenants absorb ~6.2% shed each; `priority` pins tier 0 harder\n\
         (79.9 us p99) by starving the lower tiers (30.9% / 60.2% shed).\n\
         Headlines baked into `tests/server_serving.rs`: at equal offered\n\
         overload, `max_batch 16` sustains strictly more images/sec than\n\
         `max_batch 1`; `deadline-shed` holds served p99 at or below the SLO\n\
         while `fifo` lets the tail grow without bound; weighted-fair\n\
         work-conservation and starvation-freedom are proptested; `drive`\n\
         and a thread-per-client `Server::start` session match\n\
         bit-for-bit; and autoscale decision sequences replay identically.\n\
         Served outputs stay bit-exact against `Chip::run_sequential` on\n\
         every design, ideal and `full`-noisy, per network in multi-network\n\
         fleets. CI's `bench-gate` job replays the command above (and the\n\
         `BENCH_serve.json` one) and\n\
         `benchdiff`s the fresh JSON against the committed baselines —\n\
         modeled metrics must match exactly; `host*` fields never gate.\n"
    )?;

    // ---- observability, chaos, brownout and alerting recipes.
    md.push_str(
        r#"### Trace capture and diff (observability)

Any serving experiment can be captured as a Perfetto timeline and a
Prometheus metrics snapshot — both deterministic (byte-identical)
functions of the request trace, which makes `diff`/`cmp` a valid
regression tool for *scheduling behavior*, not just aggregate numbers:

```sh
# Capture a timeline + metrics for the first sweep row
cargo run --release -p red-bench --bin loadgen -- \
    --rps 200000 --max-batch 8 --requests 2000 --slo-us 120 \
    --replicas 2 --policy deadline-shed --seed 7 \
    --trace before.json --metrics before.prom

# Validate the trace-event structure (CI does this on every push)
cargo run --release -p red-bench --bin tracecheck -- before.json

# ...change scheduler/policy/autoscaler code, re-run with after.json...
cmp before.json after.json   # byte-identical ⇔ schedule unchanged
diff before.prom after.prom  # counter-level view of what moved
```

A `cmp` mismatch pinpoints the first virtual instant where the new
code dispatches differently; load both files at
[ui.perfetto.dev](https://ui.perfetto.dev) and scroll to that
timestamp to see the divergence on the timeline. The same works for
the chip pipeline view via `serve --batch 8 --scale 8 --trace`.

### Chaos replay (self-healing under injected faults)

Arm a deterministic fault plan to watch the fleet heal itself —
events are `kind:at_us:partition:...` (crash, stall + duration µs,
drift + elapsed seconds, strike + cells), scheduled on the virtual
clock so the whole faulted session replays byte-identically:

```sh
# Crash replica 0/1 at 800 us, age partition 1 by a month at 2 ms,
# stall a replica for 400 us, strike 512 cells — 10^5 requests
cargo run --release -p red-bench --bin loadgen -- \
    --mix --model-only --requests 100000 --clients 12 \
    --replicas 2 --tenants interactive:4:0:200,standard:2:1:800,batch:1:2:0 \
    --policy weighted-fair --rps 600000 --autoscale 1 --seed 7 \
    --fault-plan crash:800:0:1,drift:2000:1:2592000,stall:9000:1:1:400,strike:12000:0:0:512 \
    --trace chaos.json --metrics chaos.prom
```

The summary line reports faults injected, reprograms, retries,
hedges, and per-reason sheds, and asserts the no-lost-request
invariant (`offered == served + shed`) whenever a plan is armed.
Open `chaos.json` in Perfetto and look at the partition tracks: a
`fault` instant at each event, `probe` instants from the canary
prober (deviation in the args), `quarantine` instants when a
threshold trips, and a `reprogram` span priced by
`CostModel::reprogram_cost` covering the repair outage; orphaned
requests carry a request-level `fault` instant before their retry or
hedge resolves. CI's `bench-gate` replays exactly this plan twice at
every push — zero lost requests, a structurally valid trace, pinned
per-partition fault/repair counters, and `cmp`-identical JSON +
trace between the two runs — while the fault-free baseline gates
above prove the chaos layer is inert when disarmed.

### Brownout under chaos (precision-degrading overload control)

Overload plus lost capacity is where shedding hurts most — and where
the bit-serial pipeline has a second lever. Arm brownout control on
top of a quarantine-heavy plan at ~1.6× capacity (two crashes, so the
fleet spends a window down a replica) and pin the interactive tenant
to bit-exact service with the fifth tenant-spec field:

```sh
# Overload at 1.6x capacity + 2-event fault plan; interactive pinned
# full, standard/batch free to degrade. This is CI's brownout smoke.
cargo run --release -p red-bench --bin loadgen -- \
    --mix --model-only --requests 100000 --clients 12 \
    --replicas 2 --tenants interactive:4:0:200:full,standard:2:1:800,batch:1:2:0 \
    --policy weighted-fair --max-lag-us 50 --rps 960000 --seed 7 \
    --brownout --fault-plan crash:800:0:1,crash:5000:2:0 \
    --json brownout.json --trace brownout_trace.json --metrics brownout.prom
```

Dropping `--brownout` from the identical trace yields the
shed-vs-brownout comparison (seed 7, same faults, same arrivals):

| run          | served     | shed       | tier transitions | served eco/brownout | interactive sheds |
|--------------|------------|------------|------------------|---------------------|-------------------|
| shedding only| 81 078     | 18 922     | 0                | 0                   | unchanged         |
| brownout     | **81 235** | **18 765** | 8                | 0 / 306             | unchanged         |

The 157 rescued requests are exactly the pure best-effort batches the
controller caught inside its degraded windows — mixed batches carry an
interactive request and run at full precision regardless, which is why
the interactive column cannot move. Row-level JSON (schema ≥ v4) adds
`served_by_tier`, `tier_transitions`, `max_observed_error` and
`precision_error_bound`; the run asserts `max_observed_error <=
precision_error_bound` whenever functional execution is on. CI's
`bench-gate` pins the transition and per-tier counters, `cmp`s a
double replay of the brownout run (byte-identical JSON + trace), and
verifies the brownout-off run still matches the committed v3
baselines — the control plane is provably inert when disarmed.

### Alerting & analysis (brownout under chaos, root-caused)

Add `--scrape-us` to any serving run and the metrics registry is
scraped on the virtual clock: per-tenant served/shed/SLO-miss window
deltas, fault counters, backlog/replica gauges and windowed latency
quantiles become `"C"` counter tracks in the trace and a `timeseries`
block in the JSON (schema v5), each series carrying an exact eviction
ledger (`evicted_sum + Σ retained == total`). A deterministic
multi-window burn-rate `AlertEngine` rides the window sequence —
fast-burn / slow-burn per tenant SLO, level-triggered `replica-lost`
and `quarantine`, end-of-session `error-bound` — and the `analyze`
binary replays the whole capture as a root-cause story:

```sh
# Brownout under a mid-session crash, scraped every 500 virtual µs
cargo run --release -p red-bench --bin loadgen -- \
    --model-only --requests 2000 --clients 8 --replicas 2 \
    --tenants interactive:4:0:200:full,standard:2:1:800 \
    --policy weighted-fair --max-lag-us 50 --rps 400000 --seed 7 \
    --brownout --fault-plan crash:2000:0:1 --scrape-us 500 \
    --trace bo_trace.json --json bo.json

cargo run --release -p red-bench --bin analyze -- bo_trace.json bo.json
```

The timeline interleaves operational events with alert edges and
attributes every firing to its nearest preceding cause:

```text
   500.0 us  ALERT  fast-burn FIRE tenant 0 value 266.67 — no preceding operational event
   517.2 us  ops    brownout (partition 0)
  2000.0 us  ops    fault(crash) (partition 0)
  2000.0 us  ops    quarantine (partition 0)
  2000.0 us  ALERT  quarantine FIRE value 1.00 — 0.0 us after quarantine (partition 0)
  3500.0 us  ALERT  quarantine resolve value 0.00
```

Reading it: sustained 2× overload burns the interactive tenant's
error budget 266× faster than its SLO allows, so fast-burn pages at
the very first window; the brownout controller reacts within 20 µs
(the two `brownout` instants are tier transitions); the planned crash
at 2 ms quarantines replica 0/1 — the `quarantine` alert fires at
lag zero from the quarantine event — and resolves hysteretically
three calm windows after the re-program lands. The phase table
quantifies the outage (`pre-fault` 167 500 served/s → `degraded`
82 397 → `recovered` 163 562) and the tenant table splits each class's
latency into queue vs execute time, showing the overload lives in the
queue (≈150 µs) not the array (≈30 µs). The final section re-checks
the conservation ledger of every scraped counter series against the
end-of-run totals and echoes the alert episodes the server reported.
CI's `bench-gate` runs this analyzer over the chaos smoke and a
dedicated attribution smoke, grepping the exact lines above; the
alert/time-series record is proptested byte-identical across replays
in `tests/observability.rs`.

"#,
    );

    // ---- functional verification.
    writeln!(
        md,
        "## Functional verification (not in the paper's tables)\n"
    )?;
    writeln!(
        md,
        "* All three engine dataflows are **bit-exact** against the textbook\n\
          transposed convolution on every Table I geometry (channel-scaled) and on\n\
          ~100 randomized geometries per property (see `tests/`).\n\
        * Measured cycles / row activations equal the closed-form geometry the\n\
          cost model prices, for every design × benchmark pair.\n\
        * The analog pipeline (bit-serial inputs, conductance quantization,\n\
          integrate-and-fire conversion, shift-add recombination) is bit-exact\n\
          with the digital reference under ideal devices, and degrades\n\
          monotonically under conductance variation / stuck-at faults / ADC\n\
          saturation (`tests/fault_injection.rs`).\n"
    )?;

    std::fs::write("EXPERIMENTS.md", &md)?;
    outln!("wrote EXPERIMENTS.md ({} bytes)", md.len());
    Ok(())
}

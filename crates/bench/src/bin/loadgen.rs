//! `loadgen` — closed-loop / open-loop load generation against a
//! `red-server` chip fleet: multi-tenant Poisson (or closed-loop)
//! request traffic through the dynamic micro-batching scheduler,
//! printing offered vs served rates, shed counts, and virtual-clock
//! latency percentiles, with per-tenant and per-partition breakdowns in
//! the JSON output.
//!
//! ```text
//! cargo run --release -p red-bench --bin loadgen -- \
//!     --rps 200 --clients 4 --max-batch 8 --duration-ms 250 --replicas 2 --json out.json
//! cargo run --release -p red-bench --bin loadgen -- \
//!     --rps 30000,90000,180000 --max-batch 1,16 --policy fifo,deadline-shed \
//!     --slo-us 120 --replicas 2 --requests 300 --json BENCH_loadgen.json
//! cargo run --release -p red-bench --bin loadgen -- --closed --clients 8 --requests 200
//! cargo run --release -p red-bench --bin loadgen -- \
//!     --mix --model-only --requests 1000000 --clients 12 --replicas 2 \
//!     --tenants interactive:4:0:200,standard:2:1:800,batch:1:2:0 \
//!     --policy weighted-fair,priority --rps 400000 --autoscale 1
//! ```
//!
//! Rates and every latency figure are **virtual** (modeled hardware
//! time): arrivals are stamped on a virtual clock, batches are charged
//! the chip's modeled pipeline schedule, and host speed only affects how
//! long the simulation takes — so a fixed `--seed` reproduces the same
//! numbers anywhere. For orientation, the scale-8 DCGAN chip sustains
//! roughly 10⁵ modeled images/s per replica at large `max_batch`
//! (`1/steady-interval`), and only ~7·10⁴/s at `max_batch 1` (`1/fill`);
//! sweep `--rps` around those to see admission policies separate.
//!
//! `--rps`, `--max-batch` and `--policy` accept comma-separated lists
//! (the row set is their cross product). `--closed` switches every
//! client to closed-loop driving (ignores `--rps`). `--noisy <preset>`
//! serves on the named non-ideal crossbar configuration. `--mix` hosts
//! the whole serving lineup (DCGAN + SNGAN + FCN-8s) as partitions of
//! one fleet, with clients routing round-robin across the resident
//! networks. `--tenants name:weight:priority:slo_us,...` declares
//! tenant classes (clients are assigned round-robin); `weighted-fair`
//! and `priority` admission differentiate by class once queue lag
//! exceeds `--max-lag-us`. `--model-only` skips functional execution
//! (virtual statistics unchanged); the driver runs the scheduler on the
//! calling thread with a bounded window per client, so a model-only run
//! sustains `--requests 1000000` in seconds of host time and flat
//! memory.
//! `--autoscale N` enables per-partition replica autoscaling with floor
//! N. `--brownout` arms precision-degrading overload control: under
//! pressure each partition steps its execution tier full → eco →
//! brownout, serving bounded-error outputs instead of shedding;
//! `--precision-floor full|eco|brownout` caps how deep every tenant
//! class may be degraded (per-tenant floors ride the 5th `--tenants`
//! field), and rows report `served_by_tier`, `tier_transitions`, and
//! the observed-vs-advertised output error. Every run asserts the
//! server report reconciles (`ServerReport::reconciles`), that no
//! request failed, and that the observed brownout error stays within
//! the advertised bound.
//!
//! `--fault-plan crash:AT_US:PART:REPLICA,stall:AT_US:PART:REPLICA:DUR_US,\
//! drift:AT_US:PART:ELAPSED_S,strike:AT_US:PART:REPLICA:CELLS` arms the
//! deterministic chaos layer: the listed events fire on the virtual
//! clock, the canary prober quarantines and re-programs unhealthy
//! replicas, and requests orphaned by a crash are retried, hedged, or
//! shed with an attributed `replica-lost` reason — the run then asserts
//! that every offered request was served or shed (none lost). Identical
//! (trace, plan, seed) triples reproduce byte-identical outputs.
//!
//! `--scrape-us F` arms the time-series scraper and the burn-rate alert
//! engine on the first sweep row: the metrics registry is snapshotted
//! every `F` virtual microseconds at batch-close boundaries, multi-window
//! SLO burn-rate / shed / quarantine alert rules are evaluated over the
//! scrape sequence, counter charts land in the Chrome trace as `"C"`
//! events, the JSON document gains a top-level `timeseries` block and
//! per-row `alerts` episodes, and `red-bench --bin analyze` turns the
//! captured artifacts into a root-cause timeline. Scrapes ride the same
//! virtual clock as everything else, so the alert fire/resolve sequence
//! replays byte-identically with the trace.
//!
//! `--trace out.json` captures the first sweep row's full request
//! lifecycle as a Chrome trace-event / Perfetto timeline (open at
//! `ui.perfetto.dev`), and `--metrics out.prom` exports the per-tenant /
//! per-partition metrics plane in Prometheus text format. Both are
//! deterministic functions of the virtual-clock schedule: the same seed
//! produces byte-identical files on any host.

use red_bench::{
    cli_args, csv_dir, flag_value, json_escape, maybe_write_csv, out, outln, parse_flag,
    parse_list_flag, render_table,
};
use red_core::prelude::*;
use red_core::workloads::networks;
use red_runtime::ChipBuilder;
use red_server::{
    drive, policy_for, AutoscaleConfig, BrownoutConfig, ChipFleet, ExecPrecision, FaultPlan,
    LoadMode, LoadgenConfig, ScrapeConfig, ServerConfig, ServerReport, TenantClass,
};
use red_telemetry::{peak_rss_kb, SeriesSnapshot, Telemetry};
use std::process::ExitCode;

/// One load-generation measurement, numeric for the JSON emitter.
struct LoadRow {
    network: String,
    design: String,
    xbar: String,
    policy: String,
    mode: String,
    rps: f64,
    max_batch: usize,
    offered: u64,
    served: u64,
    shed: u64,
    failed: u64,
    batches: u64,
    mean_batch: f64,
    span_us: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    p999_us: f64,
    queue_p50_us: f64,
    queue_p99_us: f64,
    execute_p50_us: f64,
    served_per_s: f64,
    offered_per_s: f64,
    peak_per_s: f64,
    utilization: f64,
    reconciled: bool,
    tenants_json: String,
    partitions_json: String,
    host_ms: f64,
    host_images_per_s: f64,
    sheds_by_reason_json: String,
    faults_injected: u64,
    reprograms: u64,
    retries: u64,
    hedges: u64,
    served_by_tier_json: String,
    tier_transitions: u64,
    max_observed_error: f64,
    precision_error_bound: f64,
    alerts_json: String,
}

/// Renders the burn-rate alert episodes of `report` as a JSON array
/// (server order: per partition, fire-ordered; `resolved_at_us` is
/// `null` while an episode is still firing at session end).
fn alerts_json(report: &ServerReport) -> String {
    let objects: Vec<String> = report
        .alerts
        .iter()
        .map(|a| {
            format!(
                "{{\"partition\":{},\"rule\":\"{}\",\"tenant\":{},\
                 \"fired_at_us\":{:.3},\"resolved_at_us\":{},\"value\":{:.4}}}",
                a.partition,
                json_escape(&a.rule),
                a.tenant.map_or("null".to_string(), |t| t.to_string()),
                a.fired_at_ns as f64 / 1e3,
                a.resolved_at_ns
                    .map_or("null".to_string(), |t| format!("{:.3}", t as f64 / 1e3)),
                a.value,
            )
        })
        .collect();
    format!("[{}]", objects.join(","))
}

/// Renders the scraped time-series block as a JSON array: one object
/// per series with its bounded ring of `[t_ns, delta-or-level]`
/// samples and the conservation ledger (`evicted_sum + Σ samples ==
/// total` for counters).
fn timeseries_json(series: &[SeriesSnapshot]) -> String {
    let objects: Vec<String> = series
        .iter()
        .map(|s| {
            let samples: Vec<String> = s
                .samples
                .iter()
                .map(|(t, v)| format!("[{t},{v}]"))
                .collect();
            format!(
                "{{\"partition\":{},\"chart\":\"{}\",\"key\":\"{}\",\"kind\":\"{}\",\
                 \"total\":{},\"evicted\":{},\"evicted_sum\":{},\"samples\":[{}]}}",
                s.partition,
                json_escape(&s.chart),
                json_escape(&s.key),
                s.kind,
                s.total,
                s.evicted,
                s.evicted_sum,
                samples.join(","),
            )
        })
        .collect();
    format!("[{}]", objects.join(","))
}

/// Renders the served-per-execution-tier breakdown of `report` as a
/// JSON object (stable key order — `ExecPrecision::ALL` order from the
/// server).
fn served_by_tier_json(report: &ServerReport) -> String {
    let fields: Vec<String> = report
        .served_by_tier
        .iter()
        .map(|(tier, n)| format!("\"{}\":{}", json_escape(tier), n))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Renders the attributed shed breakdown of `report` as a JSON object
/// (stable key order — the reasons come pre-ordered from the server).
fn sheds_by_reason_json(report: &ServerReport) -> String {
    let fields: Vec<String> = report
        .sheds_by_reason
        .iter()
        .map(|(reason, n)| format!("\"{}\":{}", json_escape(reason), n))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Renders the per-tenant breakdown of `report` as a JSON array.
fn tenants_json(report: &ServerReport) -> String {
    let objects: Vec<String> = report
        .tenant_reports
        .iter()
        .map(|t| {
            format!(
                "{{\"tenant\":{},\"name\":\"{}\",\"weight\":{},\"priority\":{},\
                 \"slo_us\":{:.3},\"offered\":{},\"served\":{},\"shed\":{},\
                 \"p50_us\":{:.3},\"p99_us\":{:.3},\"queue_p99_us\":{:.3}}}",
                t.tenant,
                json_escape(&t.name),
                t.weight,
                t.priority,
                t.slo_ns.unwrap_or(0) as f64 / 1e3,
                t.offered,
                t.served,
                t.shed,
                t.total.p50() as f64 / 1e3,
                t.total.p99() as f64 / 1e3,
                t.queue_wait.p99() as f64 / 1e3,
            )
        })
        .collect();
    format!("[{}]", objects.join(","))
}

/// Renders the per-partition breakdown of `report` as a JSON array.
fn partitions_json(report: &ServerReport) -> String {
    let objects: Vec<String> = report
        .partition_reports
        .iter()
        .map(|p| {
            let ups = p.scale_events.iter().filter(|e| e.to > e.from).count();
            format!(
                "{{\"partition\":{},\"network\":\"{}\",\"replicas\":{},\
                 \"active_final\":{},\"offered\":{},\"served\":{},\"shed\":{},\
                 \"batches\":{},\"p99_us\":{:.3},\
                 \"scale_ups\":{},\"scale_downs\":{}}}",
                p.partition,
                json_escape(&p.network),
                p.replicas_provisioned,
                p.replicas_active,
                p.offered,
                p.served,
                p.shed,
                p.batches,
                p.total.p99() as f64 / 1e3,
                ups,
                p.scale_events.len() - ups,
            )
        })
        .collect();
    format!("[{}]", objects.join(","))
}

impl LoadRow {
    fn table_cells(&self) -> Vec<String> {
        vec![
            self.network.clone(),
            self.design.clone(),
            self.xbar.clone(),
            self.policy.clone(),
            self.mode.clone(),
            if self.mode == "closed" {
                "-".into()
            } else {
                format!("{:.0}", self.rps)
            },
            self.max_batch.to_string(),
            self.offered.to_string(),
            self.served.to_string(),
            self.shed.to_string(),
            format!("{:.1}", self.mean_batch),
            format!("{:.1}", self.p50_us),
            format!("{:.1}", self.p99_us),
            format!("{:.0}", self.served_per_s),
            format!("{:.2}", self.utilization),
            format!("{:.1}", self.span_us / 1e3),
            format!("{:.1}", self.host_ms),
        ]
    }

    fn json_object(&self) -> String {
        format!(
            "{{\"network\":\"{}\",\"design\":\"{}\",\"xbar\":\"{}\",\"policy\":\"{}\",\
             \"mode\":\"{}\",\"rps\":{:.3},\"max_batch\":{},\
             \"offered\":{},\"served\":{},\"shed\":{},\"failed\":{},\"batches\":{},\
             \"mean_batch\":{:.4},\"span_us\":{:.3},\
             \"p50_us\":{:.3},\"p95_us\":{:.3},\"p99_us\":{:.3},\"p999_us\":{:.3},\
             \"queue_p50_us\":{:.3},\"queue_p99_us\":{:.3},\"execute_p50_us\":{:.3},\
             \"served_per_s\":{:.3},\"offered_per_s\":{:.3},\"peak_per_s\":{:.3},\
             \"utilization\":{:.4},\"reconciled\":{},\
             \"tenants\":{},\"partitions\":{},\
             \"host_ms\":{:.3},\"host_images_per_s\":{:.2},\
             \"sheds_by_reason\":{},\"faults_injected\":{},\
             \"reprograms\":{},\"retries\":{},\"hedges\":{},\
             \"served_by_tier\":{},\"tier_transitions\":{},\
             \"max_observed_error\":{:.3},\"precision_error_bound\":{:.3},\
             \"alerts\":{}}}",
            json_escape(&self.network),
            json_escape(&self.design),
            json_escape(&self.xbar),
            json_escape(&self.policy),
            json_escape(&self.mode),
            self.rps,
            self.max_batch,
            self.offered,
            self.served,
            self.shed,
            self.failed,
            self.batches,
            self.mean_batch,
            self.span_us,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.p999_us,
            self.queue_p50_us,
            self.queue_p99_us,
            self.execute_p50_us,
            self.served_per_s,
            self.offered_per_s,
            self.peak_per_s,
            self.utilization,
            self.reconciled,
            self.tenants_json,
            self.partitions_json,
            self.host_ms,
            self.host_images_per_s,
            self.sheds_by_reason_json,
            self.faults_injected,
            self.reprograms,
            self.retries,
            self.hedges,
            self.served_by_tier_json,
            self.tier_transitions,
            self.max_observed_error,
            self.precision_error_bound,
            self.alerts_json,
        )
    }
}

/// Schema version of the `--json` document. v2: per-row `span_us`
/// replaces the (always-zero) header `duration_ms` as the run-length
/// record, rows gain `tenants` and `partitions` breakdowns, the header
/// gains the tenant/autoscale/streaming configuration. v3: rows gain
/// the `sheds_by_reason` breakdown and the chaos counters
/// (`faults_injected`, `reprograms`, `retries`, `hedges`), the header
/// gains the `fault_plan` echo. v4: rows gain the brownout accounting
/// (`served_by_tier`, `tier_transitions`, `max_observed_error`,
/// `precision_error_bound`), the header echoes `brownout` and
/// `precision_floor`. v5: rows gain the burn-rate `alerts` episodes,
/// the document gains the top-level `timeseries` block of scraped
/// counter/gauge/quantile windows, and the header echoes `scrape_us` —
/// all *optional* additions at each step, so a v5 document replays
/// cleanly against v2/v3/v4 baselines (`benchdiff` ignores fresh-only
/// fields and accepts fresh `version` >= baseline).
const JSON_SCHEMA_VERSION: u32 = 5;

/// Header-level configuration echoed into the JSON document.
struct JsonHeader<'a> {
    scale: usize,
    seed: u64,
    clients: usize,
    replicas: usize,
    max_wait_us: f64,
    slo_us: f64,
    max_lag_us: f64,
    horizon_ms: f64,
    requests: usize,
    model_only: bool,
    mix: bool,
    autoscale_min: usize,
    autoscale_cooldown_us: f64,
    brownout: bool,
    precision_floor: &'a str,
    tenants: &'a [TenantClass],
    fault_plan: &'a str,
    scrape_us: f64,
}

fn write_json(
    path: &str,
    h: &JsonHeader<'_>,
    rows: &[LoadRow],
    timeseries: &[SeriesSnapshot],
) -> std::io::Result<()> {
    let tenant_objs: Vec<String> = h
        .tenants
        .iter()
        .map(|t| {
            format!(
                "{{\"name\":\"{}\",\"weight\":{},\"priority\":{},\"slo_us\":{:.3},\
                 \"floor\":\"{}\"}}",
                json_escape(&t.name),
                t.weight,
                t.priority,
                t.slo_ns.unwrap_or(0) as f64 / 1e3,
                t.precision_floor.name(),
            )
        })
        .collect();
    let objects: Vec<String> = rows.iter().map(LoadRow::json_object).collect();
    // `stream` is always true: every session runs on the one windowed
    // driver. Committed baselines pin the key, so it stays.
    let doc = format!(
        "{{\n  \"bench\": \"loadgen\",\n  \"version\": {JSON_SCHEMA_VERSION},\n  \
         \"scale\": {},\n  \"seed\": {},\n  \"clients\": {},\n  \
         \"replicas\": {},\n  \"max_wait_us\": {},\n  \
         \"slo_us\": {},\n  \"max_lag_us\": {},\n  \"horizon_ms\": {},\n  \
         \"requests\": {},\n  \"stream\": true,\n  \"model_only\": {},\n  \
         \"mix\": {},\n  \"autoscale_min\": {},\n  \"autoscale_cooldown_us\": {},\n  \
         \"brownout\": {},\n  \"precision_floor\": \"{}\",\n  \
         \"tenants\": [{}],\n  \"fault_plan\": \"{}\",\n  \"scrape_us\": {},\n  \
         \"timeseries\": {},\n  \
         \"rows\": [\n    {}\n  ]\n}}\n",
        h.scale,
        h.seed,
        h.clients,
        h.replicas,
        h.max_wait_us,
        h.slo_us,
        h.max_lag_us,
        h.horizon_ms,
        h.requests,
        h.model_only,
        h.mix,
        h.autoscale_min,
        h.autoscale_cooldown_us,
        h.brownout,
        json_escape(h.precision_floor),
        tenant_objs.join(", "),
        json_escape(h.fault_plan),
        h.scrape_us,
        timeseries_json(timeseries),
        objects.join(",\n    ")
    );
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, doc)
}

/// Every flag `loadgen` knows, as [`red_bench::unknown_arg`] reads them.
const USAGE: &str = "usage: loadgen [--rps F[,F..]] [--clients N] [--max-batch N[,N..]] \
    [--max-wait-us F] [--slo-us F] \
    [--policy fifo|deadline-shed|weighted-fair|priority[,..]] \
    [--tenants name:weight:priority:slo_us[,..]] [--max-lag-us F] \
    [--replicas N] [--noisy variation|adc|ir-drop|full] [--closed] \
    [--mix] [--model-only] \
    [--autoscale MIN] [--autoscale-cooldown-us F] \
    [--brownout] [--brownout-cooldown-us F] [--precision-floor full|eco|brownout] \
    [--duration-ms F] [--requests N] [--scale N] [--seed N] \
    [--network dcgan|sngan|fcn|all] [--design zero-padding|padding-free|red|all] \
    [--fault-plan crash:AT_US:P:R,stall:AT_US:P:R:DUR_US,drift:AT_US:P:SECS,\
strike:AT_US:P:R:CELLS] \
    [--scrape-us F] \
    [--csv <dir>] [--json <path>] [--trace <path>] [--metrics <path>]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let Some(args) = cli_args(USAGE) else {
        return ExitCode::from(2);
    };
    let (
        Some(rps_list),
        Some(clients),
        Some(batch_list),
        Some(max_wait_us),
        Some(slo_us),
        Some(max_lag_us),
        Some(policy_list),
        Some(replicas),
        Some(duration_ms),
        Some(requests),
        Some(scale),
        Some(seed),
        Some(network_sel),
        Some(design_sel),
        Some(tenant_specs),
        Some(autoscale_cooldown_us),
    ) = (
        parse_list_flag::<f64>(&args, "--rps", &[20_000.0]),
        parse_flag::<usize>(&args, "--clients", 4),
        parse_list_flag::<usize>(&args, "--max-batch", &[8]),
        parse_flag::<f64>(&args, "--max-wait-us", 50.0),
        parse_flag::<f64>(&args, "--slo-us", 0.0),
        parse_flag::<f64>(&args, "--max-lag-us", 200.0),
        parse_list_flag::<String>(&args, "--policy", &["fifo".to_string()]),
        parse_flag::<usize>(&args, "--replicas", 1),
        parse_flag::<f64>(&args, "--duration-ms", 0.0),
        parse_flag::<usize>(&args, "--requests", 400),
        parse_flag::<usize>(&args, "--scale", 8),
        parse_flag::<u64>(&args, "--seed", 42),
        parse_flag::<String>(&args, "--network", "dcgan".to_string()),
        parse_flag::<String>(&args, "--design", "red".to_string()),
        parse_list_flag::<String>(&args, "--tenants", &[]),
        parse_flag::<f64>(&args, "--autoscale-cooldown-us", 500.0),
    )
    else {
        return usage();
    };
    let Some(scrape_us) = parse_flag::<f64>(&args, "--scrape-us", 0.0) else {
        return usage();
    };
    let closed = args.iter().any(|a| a == "--closed");
    let mix = args.iter().any(|a| a == "--mix");
    let model_only = args.iter().any(|a| a == "--model-only");
    let brownout = args.iter().any(|a| a == "--brownout");
    let Some(brownout_cooldown_us) = parse_flag::<f64>(&args, "--brownout-cooldown-us", 500.0)
    else {
        return usage();
    };
    // `--precision-floor TIER` caps brownout degradation for EVERY
    // tenant class at once; per-tenant `name:w:p:slo:floor` specs set
    // finer-grained floors.
    let precision_floor = match args.iter().position(|a| a == "--precision-floor") {
        None => None,
        Some(i) => match args
            .get(i + 1)
            .and_then(|name| ExecPrecision::from_name(name))
        {
            Some(tier) => Some(tier),
            None => {
                eprintln!("--precision-floor requires full, eco, or brownout");
                return ExitCode::from(2);
            }
        },
    };
    let autoscale_min = match args.iter().position(|a| a == "--autoscale") {
        None => 0usize,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n > 0 => n,
            _ => {
                eprintln!("--autoscale requires a positive replica floor");
                return ExitCode::from(2);
            }
        },
    };
    if clients == 0
        || replicas == 0
        || requests == 0
        || scale == 0
        || batch_list.is_empty()
        || batch_list.contains(&0)
    {
        eprintln!("--clients, --replicas, --requests, --scale and --max-batch must be positive");
        return ExitCode::from(2);
    }
    if !closed && rps_list.iter().any(|&r| !(r.is_finite() && r > 0.0)) {
        eprintln!("--rps rates must be positive and finite");
        return ExitCode::from(2);
    }
    for (flag, value) in [
        ("--max-wait-us", max_wait_us),
        ("--slo-us", slo_us),
        ("--max-lag-us", max_lag_us),
        ("--duration-ms", duration_ms),
        ("--scrape-us", scrape_us),
        ("--autoscale-cooldown-us", autoscale_cooldown_us),
        ("--brownout-cooldown-us", brownout_cooldown_us),
    ] {
        if !(value.is_finite() && value >= 0.0) {
            eprintln!("{flag} must be finite and non-negative");
            return ExitCode::from(2);
        }
    }
    let mut tenants: Vec<TenantClass> = if tenant_specs.is_empty() {
        vec![TenantClass::default()]
    } else {
        match tenant_specs.iter().map(|s| TenantClass::parse(s)).collect() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bad --tenants spec: {e}");
                return ExitCode::from(2);
            }
        }
    };
    if let Some(floor) = precision_floor {
        for t in &mut tenants {
            // The meet: a blanket floor tightens every class but never
            // loosens one a spec already pinned shallower.
            t.precision_floor = t.precision_floor.min(floor);
        }
    }
    let noisy = match flag_value(&args, "--noisy") {
        None => None,
        Some(Some(name)) => match XbarConfig::preset(name) {
            Some(cfg) => Some((name.to_string(), cfg)),
            None => {
                eprintln!(
                    "unknown --noisy preset {name:?} \
                     (expected variation, adc, ir-drop, or full)"
                );
                return ExitCode::from(2);
            }
        },
        Some(None) => {
            eprintln!("--noisy requires a preset name argument");
            return ExitCode::from(2);
        }
    };
    let path_flag = |name: &str| match flag_value(&args, name) {
        Some(None) => Err(()),
        path => Ok(path.flatten().map(str::to_owned)),
    };
    let Ok(json_path) = path_flag("--json") else {
        eprintln!("--json requires a path argument");
        return ExitCode::from(2);
    };
    // `--trace`/`--metrics` attach a telemetry plane to the FIRST row of
    // the sweep (one deterministic serving session) and export it as
    // Chrome trace-event JSON / Prometheus text at exit.
    let Ok(trace_path) = path_flag("--trace") else {
        eprintln!("--trace requires a path argument");
        return ExitCode::from(2);
    };
    let Ok(metrics_path) = path_flag("--metrics") else {
        eprintln!("--metrics requires a path argument");
        return ExitCode::from(2);
    };
    let Ok(fault_spec) = path_flag("--fault-plan") else {
        eprintln!("--fault-plan requires an event-list argument");
        return ExitCode::from(2);
    };
    let fault_plan = match &fault_spec {
        None => None,
        Some(spec) => match FaultPlan::parse(spec, seed) {
            Ok(plan) => Some(plan),
            Err(e) => {
                eprintln!("bad --fault-plan: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let max_lag_ns = (max_lag_us * 1e3).round().max(0.0) as u64;
    let policies: Vec<_> = match policy_list
        .iter()
        .map(|name| policy_for(name, &tenants, max_lag_ns).map(|p| (name.clone(), p)))
        .collect::<Option<Vec<_>>>()
    {
        Some(p) => p,
        None => {
            eprintln!(
                "unknown --policy (expected fifo, deadline-shed, weighted-fair, or priority)"
            );
            return ExitCode::from(2);
        }
    };
    let (xbar_label, xbar_cfg) =
        noisy.unwrap_or_else(|| ("ideal".to_string(), XbarConfig::ideal()));

    let lineup = networks::serving_lineup(scale).expect("serving stacks build");
    let selected: Vec<_> = if mix {
        lineup
    } else {
        match network_sel.as_str() {
            "all" => lineup,
            "dcgan" => vec![lineup.into_iter().next().expect("lineup has 3 stacks")],
            "sngan" => vec![lineup.into_iter().nth(1).expect("lineup has 3 stacks")],
            "fcn" => vec![lineup.into_iter().nth(2).expect("lineup has 3 stacks")],
            other => {
                eprintln!("unknown --network {other:?} (expected dcgan, sngan, fcn, or all)");
                return ExitCode::from(2);
            }
        }
    };
    // `--mix` hosts every selected stack in ONE fleet (one partition
    // each); otherwise each stack gets its own single-partition fleet.
    let fleet_groups: Vec<Vec<_>> = if mix {
        vec![selected]
    } else {
        selected.into_iter().map(|s| vec![s]).collect()
    };
    let designs: Vec<Design> = match design_sel.as_str() {
        "all" => Design::paper_lineup().to_vec(),
        "zero-padding" | "zp" => vec![Design::ZeroPadding],
        "padding-free" | "pf" => vec![Design::PaddingFree],
        "red" => vec![Design::red(RedLayoutPolicy::Auto)],
        other => {
            eprintln!(
                "unknown --design {other:?} \
                 (expected zero-padding, padding-free, red, or all)"
            );
            return ExitCode::from(2);
        }
    };

    let max_wait_ns = (max_wait_us * 1e3).round().max(0.0) as u64;
    let slo_ns = if slo_us > 0.0 {
        Some((slo_us * 1e3).round() as u64)
    } else {
        None
    };
    let horizon_ns = if duration_ms > 0.0 {
        Some((duration_ms * 1e6).round() as u64)
    } else {
        None
    };
    let mode_label = if closed { "closed" } else { "open" };

    outln!("== red-server loadgen: online serving under load ==");
    outln!(
        "{mode_label}-loop{}{}, {clients} clients, {replicas} replica(s)/partition, \
         {} tenant class(es), scale {scale}, xbar {xbar_label}, max-wait {max_wait_us} us, \
         slo {slo_us} us, seed {seed}",
        if model_only { " (model-only)" } else { "" },
        if autoscale_min > 0 {
            " (autoscaled)"
        } else {
            ""
        },
        tenants.len(),
    );
    if brownout {
        outln!(
            "(brownout overload control armed, cooldown {brownout_cooldown_us} us{})",
            match precision_floor {
                Some(f) => format!(", blanket precision floor {f}"),
                None => String::new(),
            }
        );
    }

    let rates: Vec<f64> = if closed { vec![0.0] } else { rps_list };
    let want_telemetry = trace_path.is_some() || metrics_path.is_some() || scrape_us > 0.0;
    let mut telemetry_out: Option<Telemetry> = None;
    let mut rows: Vec<LoadRow> = Vec::new();
    let mut alert_episodes = 0u64;
    for stacks in &fleet_groups {
        // Model-only servers never execute the payloads; skip
        // materializing per-partition input streams entirely.
        let traffic: Vec<Vec<_>> = if model_only {
            Vec::new()
        } else {
            stacks
                .iter()
                .map(|stack| networks::request_stream(stack, 8, 64, seed ^ 0xBEEF))
                .collect()
        };
        for design in &designs {
            let fleet = ChipFleet::multi(
                stacks
                    .iter()
                    .map(|stack| {
                        let chip = ChipBuilder::new()
                            .design(*design)
                            .xbar_config(xbar_cfg)
                            .compile_seeded(stack, 5, 77)
                            .expect("stack compiles onto the chip");
                        (chip, replicas)
                    })
                    .collect(),
            )
            .expect("replicas is positive");
            let peak_per_s = fleet.peak_throughput_per_s();
            let total_replicas = fleet.replicas();
            for (policy_name, policy) in &policies {
                for &max_batch in &batch_list {
                    for &rps in &rates {
                        let mut server_cfg = ServerConfig::new()
                            .max_batch(max_batch)
                            .max_wait_ns(max_wait_ns)
                            .policy_arc(std::sync::Arc::clone(policy))
                            .tenants(tenants.clone());
                        if model_only {
                            server_cfg = server_cfg.model_only();
                        }
                        if let Some(plan) = &fault_plan {
                            server_cfg = server_cfg.fault_plan(plan.clone());
                        }
                        if autoscale_min > 0 {
                            server_cfg = server_cfg.autoscale(AutoscaleConfig {
                                min_replicas: autoscale_min,
                                cooldown_ns: (autoscale_cooldown_us * 1e3).round() as u64,
                                ..AutoscaleConfig::default()
                            });
                        }
                        if brownout {
                            server_cfg = server_cfg.brownout(BrownoutConfig {
                                cooldown_ns: (brownout_cooldown_us * 1e3).round() as u64,
                                ..BrownoutConfig::default()
                            });
                        }
                        // Trace/metrics/scrape capture attaches to the
                        // first row of the sweep only: one serving
                        // session, one deterministic timeline.
                        if want_telemetry && telemetry_out.is_none() {
                            let tele = Telemetry::enabled();
                            telemetry_out = Some(tele.clone());
                            server_cfg = server_cfg.telemetry(tele);
                            if scrape_us > 0.0 {
                                server_cfg = server_cfg.scrape(ScrapeConfig {
                                    interval_ns: (scrape_us * 1e3).round().max(1.0) as u64,
                                    ..ScrapeConfig::default()
                                });
                            }
                        }
                        let load = LoadgenConfig {
                            mode: if closed {
                                LoadMode::Closed
                            } else {
                                LoadMode::Open { rps }
                            },
                            clients,
                            requests,
                            horizon_ns,
                            slo_ns,
                            seed,
                            stream: true,
                        };
                        let report = drive(&fleet, &server_cfg, &load, &traffic)
                            .expect("load generation runs");
                        alert_episodes += report.alerts.len() as u64;
                        assert!(
                            report.reconciles(),
                            "{} on {} ({xbar_label}): the scheduler's virtual charge \
                             diverged from the replicas' accounting",
                            report.network,
                            design.label(),
                        );
                        assert_eq!(
                            report.failed,
                            0,
                            "{} on {}: no validated request may fail",
                            report.network,
                            design.label(),
                        );
                        if fault_plan.is_some() {
                            // The no-lost-request invariant: chaos may
                            // retry, hedge, or shed, but every offered
                            // request resolves exactly once.
                            assert_eq!(
                                report.offered,
                                report.served + report.shed,
                                "{} on {}: requests lost under the fault plan",
                                report.network,
                                design.label(),
                            );
                        }
                        // Bounded-error accounting: what degradation
                        // actually cost never exceeds what the crossbar
                        // layer advertised.
                        assert!(
                            report.max_observed_error <= report.precision_error_bound,
                            "{} on {}: observed brownout error {} exceeds the \
                             advertised bound {}",
                            report.network,
                            design.label(),
                            report.max_observed_error,
                            report.precision_error_bound,
                        );
                        rows.push(LoadRow {
                            network: report.network.clone(),
                            design: design.label().to_string(),
                            xbar: xbar_label.clone(),
                            policy: policy_name.clone(),
                            mode: mode_label.to_string(),
                            rps,
                            max_batch,
                            offered: report.offered,
                            served: report.served,
                            shed: report.shed,
                            failed: report.failed,
                            batches: report.batches,
                            mean_batch: report.mean_batch(),
                            span_us: report.span_ns() as f64 / 1e3,
                            p50_us: report.total.p50() as f64 / 1e3,
                            p95_us: report.total.p95() as f64 / 1e3,
                            p99_us: report.total.p99() as f64 / 1e3,
                            p999_us: report.total.p999() as f64 / 1e3,
                            queue_p50_us: report.queue_wait.p50() as f64 / 1e3,
                            queue_p99_us: report.queue_wait.p99() as f64 / 1e3,
                            execute_p50_us: report.execute.p50() as f64 / 1e3,
                            served_per_s: report.served_per_s(),
                            offered_per_s: report.offered_per_s(),
                            peak_per_s,
                            utilization: if report.span_ns() == 0 {
                                0.0
                            } else {
                                report.modeled_busy_ns as f64
                                    / (total_replicas as f64 * report.span_ns() as f64)
                            },
                            reconciled: report.reconciles(),
                            tenants_json: tenants_json(&report),
                            partitions_json: partitions_json(&report),
                            host_ms: report.host_exec_ns as f64 / 1e6,
                            host_images_per_s: report.host_images_per_s(),
                            sheds_by_reason_json: sheds_by_reason_json(&report),
                            faults_injected: report.faults_injected,
                            reprograms: report.reprograms,
                            retries: report.retries,
                            hedges: report.hedges,
                            served_by_tier_json: served_by_tier_json(&report),
                            tier_transitions: report
                                .partition_reports
                                .iter()
                                .map(|p| p.brownout_events.len() as u64)
                                .sum(),
                            max_observed_error: report.max_observed_error,
                            precision_error_bound: report.precision_error_bound,
                            alerts_json: alerts_json(&report),
                        });
                    }
                }
            }
        }
    }

    let headers = [
        "network",
        "design",
        "xbar",
        "policy",
        "mode",
        "rps",
        "batch<=",
        "offered",
        "served",
        "shed",
        "avg B",
        "p50 (us)",
        "p99 (us)",
        "img/s",
        "util",
        "span (ms)",
        "host (ms)",
    ];
    let cells: Vec<Vec<String>> = rows.iter().map(LoadRow::table_cells).collect();
    out!("{}", render_table(&headers, &cells));
    maybe_write_csv(csv_dir(&args), "loadgen", &headers, &cells);
    if let Some(plan) = &fault_plan {
        let sum = |f: fn(&LoadRow) -> u64| rows.iter().map(f).sum::<u64>();
        outln!(
            "(chaos: {} planned event(s)/row; across rows {} fault(s) injected, \
             {} reprogram(s), {} retrie(s), {} hedge(s); zero requests lost)",
            plan.len(),
            sum(|r| r.faults_injected),
            sum(|r| r.reprograms),
            sum(|r| r.retries),
            sum(|r| r.hedges),
        );
    }
    if brownout {
        let transitions = rows.iter().map(|r| r.tier_transitions).sum::<u64>();
        let max_err = rows
            .iter()
            .map(|r| r.max_observed_error)
            .fold(0.0, f64::max);
        let bound = rows
            .iter()
            .map(|r| r.precision_error_bound)
            .fold(0.0, f64::max);
        outln!(
            "(brownout: {transitions} tier transition(s) across rows; \
             max observed output error {max_err:.1} within advertised bound {bound:.1})"
        );
    }
    if scrape_us > 0.0 {
        outln!(
            "(scrape: {scrape_us} us cadence on the first row; \
             {alert_episodes} alert episode(s) across rows)"
        );
    }
    if let Some(path) = &json_path {
        let header = JsonHeader {
            scale,
            seed,
            clients,
            replicas,
            max_wait_us,
            slo_us,
            max_lag_us,
            horizon_ms: duration_ms,
            requests,
            model_only,
            mix,
            autoscale_min,
            autoscale_cooldown_us,
            brownout,
            precision_floor: precision_floor.map_or("", ExecPrecision::name),
            tenants: &tenants,
            fault_plan: fault_spec.as_deref().unwrap_or(""),
            scrape_us,
        };
        let timeseries = telemetry_out
            .as_ref()
            .map(Telemetry::timeseries_snapshot)
            .unwrap_or_default();
        match write_json(path, &header, &rows, &timeseries) {
            Ok(()) => outln!("(wrote {path})"),
            Err(e) => {
                eprintln!("json write failed for {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(tele) = &telemetry_out {
        if let Some(path) = &trace_path {
            match std::fs::write(path, tele.export_chrome_trace()) {
                Ok(()) => outln!("(wrote {path})"),
                Err(e) => {
                    eprintln!("trace write failed for {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(path) = &metrics_path {
            match std::fs::write(path, tele.export_prometheus()) {
                Ok(()) => outln!("(wrote {path})"),
                Err(e) => {
                    eprintln!("metrics write failed for {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    outln!(
        "\nAll figures are virtual (modeled hardware) time; every row's scheduler\n\
         charge reconciled with the replicas' accounting. Larger micro-batches\n\
         amortize the pipeline fill across outputs (img/s -> the fleet's\n\
         bottleneck rate). Under overload, deadline-shed converts queueing into\n\
         shed count, weighted-fair shares capacity by tenant weight, and priority\n\
         pins tier 0's tail at the lower tiers' expense."
    );
    if let Some(kb) = peak_rss_kb() {
        outln!("(peak RSS {kb} kB)");
    }
    ExitCode::SUCCESS
}

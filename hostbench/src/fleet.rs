//! The `fleet_replay` workload: the committed `BENCH_loadgen.json`
//! configuration, model-only — DCGAN + SNGAN + FCN-8s on RED as one
//! three-partition fleet of 2 replicas each, three tenant classes,
//! weighted-fair and priority rows of 10⁶ requests at 600 krps virtual,
//! autoscale floor 1.

use crate::gate::{self, Gate, LoadRow};
use crate::host::{self, CpuTimes};
use crate::lineup::{timed_setup, KERNEL_BOUND, KERNEL_SEED, SCALE};
use crate::spans::Spans;
use crate::{EndToEnd, Metrics};
use red_bench::minijson::JsonValue;
use red_core::prelude::*;
use red_core::workloads::networks;
use red_runtime::ChipBuilder;
use red_server::{
    drive, policy_for, AutoscaleConfig, ChipFleet, LoadMode, LoadgenConfig, ServerConfig,
    ServerReport, TenantClass,
};
use red_telemetry::Telemetry;
use std::time::Instant;

/// The seed `BENCH_loadgen.json` was recorded with.
pub const COMMITTED_SEED: u64 = 7;
/// Requests per row.
pub const REQUESTS: usize = 1_000_000;
/// Admission policies, one row each, in `BENCH_loadgen.json` order.
pub const POLICIES: [&str; 2] = ["weighted-fair", "priority"];

/// The compiled fleet and its session configuration.
pub struct Replay {
    fleet: ChipFleet,
    tenants: Vec<TenantClass>,
    load: LoadgenConfig,
}

/// One row's report with its host cost.
pub struct Row {
    pub report: ServerReport,
    pub wall_ns: f64,
    /// Whole-process CPU during `drive`.
    pub process: CpuTimes,
    /// CPU of the calling (driving) thread during `drive`.
    pub driver: CpuTimes,
}

impl Replay {
    pub fn build(seed: u64) -> Replay {
        let stacks = networks::serving_lineup(SCALE).expect("serving stacks build");
        let fleet = ChipFleet::multi(
            stacks
                .iter()
                .map(|stack| {
                    let chip = ChipBuilder::new()
                        .design(Design::red(RedLayoutPolicy::Auto))
                        .xbar_config(XbarConfig::ideal())
                        .compile_seeded(stack, KERNEL_BOUND, KERNEL_SEED)
                        .expect("stack compiles onto the chip");
                    (chip, 2)
                })
                .collect(),
        )
        .expect("replicas is positive");
        let tenants = ["interactive:4:0:200", "standard:2:1:800", "batch:1:2:0"]
            .iter()
            .map(|s| TenantClass::parse(s).expect("committed tenant spec parses"))
            .collect();
        Replay {
            fleet,
            tenants,
            load: LoadgenConfig {
                mode: LoadMode::Open { rps: 600_000.0 },
                clients: 12,
                requests: REQUESTS,
                horizon_ns: None,
                slo_ns: None,
                seed,
                stream: true,
            },
        }
    }

    fn config(&self, policy: &str, telemetry: Option<Telemetry>) -> ServerConfig {
        let policy = policy_for(policy, &self.tenants, 50_000).expect("committed policy exists");
        let mut cfg = ServerConfig::new()
            .max_batch(8)
            .max_wait_ns(50_000)
            .policy_arc(policy)
            .tenants(self.tenants.clone())
            .model_only()
            .autoscale(AutoscaleConfig {
                min_replicas: 1,
                cooldown_ns: 500_000,
                ..AutoscaleConfig::default()
            });
        if let Some(t) = telemetry {
            cfg = cfg.telemetry(t);
        }
        cfg
    }

    /// Drives one row; `None` (after recording the failure) on error.
    pub fn row(&self, policy: &str, telemetry: Option<Telemetry>, gate: &mut Gate) -> Option<Row> {
        let cfg = self.config(policy, telemetry);
        let (p0, d0) = (host::process_cpu(), host::thread_cpu());
        let t = Instant::now();
        let report = drive(&self.fleet, &cfg, &self.load, &[]);
        let wall_ns = host::elapsed_ns(t);
        let (process, driver) = (host::process_cpu().since(p0), host::thread_cpu().since(d0));
        match report {
            Ok(report) => Some(Row {
                report,
                wall_ns,
                process,
                driver,
            }),
            Err(e) => {
                gate.check(false, || format!("fleet {policy}: {e}"));
                None
            }
        }
    }
}

fn modeled(report: &ServerReport) -> LoadRow {
    LoadRow {
        served: report.served as f64,
        shed: report.shed as f64,
        p99_us: report.total.p99() as f64 / 1e3,
        batches: report.batches as f64,
    }
}

/// Checks one row: reconciliation, no failures, conservation, the same
/// modeled figures as every earlier replay of this row, and — at the
/// committed seed — the `BENCH_loadgen.json` row.
fn check_row(
    row: &Row,
    policy: &str,
    first: &mut Option<LoadRow>,
    baseline: Option<&JsonValue>,
    gate: &mut Gate,
) {
    let r = &row.report;
    gate.check(r.reconciles(), || {
        format!("fleet {policy}: does not reconcile")
    });
    gate.check(r.failed == 0, || {
        format!("fleet {policy}: {} failed", r.failed)
    });
    gate.check(
        r.offered == REQUESTS as u64 && r.offered == r.served + r.shed,
        || {
            format!(
                "fleet {policy}: offered {} served {} shed {}",
                r.offered, r.served, r.shed
            )
        },
    );
    let fresh = modeled(r);
    let reference = *first.get_or_insert(fresh);
    gate.check(fresh == reference, || {
        format!("fleet {policy}: modeled figures drifted between replays")
    });
    if let Some(doc) = baseline {
        let Some(committed) = gate::load_row(doc, policy) else {
            gate.check(false, || {
                format!("fleet {policy}: no BENCH_loadgen.json row")
            });
            return;
        };
        let what = |f: &str| format!("fleet {policy} {f}");
        gate.same_figure(&what("served"), fresh.served, committed.served, 0);
        gate.same_figure(&what("shed"), fresh.shed, committed.shed, 0);
        gate.same_figure(&what("p99_us"), fresh.p99_us, committed.p99_us, 3);
        gate.same_figure(&what("batches"), fresh.batches, committed.batches, 0);
    }
}

/// Totals of one replay (both rows).
#[derive(Debug, Default)]
struct ReplayTotals {
    /// Per-row `drive` walls, in ns.
    walls: Vec<f64>,
    cpu: CpuTimes,
    served: u64,
    offered: u64,
    interactive_p99_us: f64,
}

fn replay_once(
    replay: &Replay,
    firsts: &mut [Option<LoadRow>; 2],
    baseline: Option<&JsonValue>,
    gate: &mut Gate,
) -> ReplayTotals {
    let mut t = ReplayTotals::default();
    for (policy, first) in POLICIES.iter().zip(firsts.iter_mut()) {
        let Some(row) = replay.row(policy, None, gate) else {
            continue;
        };
        check_row(&row, policy, first, baseline, gate);
        let r = &row.report;
        t.walls.push(row.wall_ns);
        t.cpu = t.cpu + row.process;
        t.served += r.served;
        t.offered += r.offered;
        if *policy == "weighted-fair" {
            t.interactive_p99_us = r
                .tenant_reports
                .first()
                .map_or(0.0, |t| t.total.p99() as f64 / 1e3);
        }
    }
    t
}

/// The `fleet_replay` workload (tracing off). `baseline` is the parsed
/// `BENCH_loadgen.json`, compared only at [`COMMITTED_SEED`].
pub fn fleet_replay(seed: u64, seconds: f64, baseline: &JsonValue, gate: &mut Gate) -> EndToEnd {
    let baseline = (seed == COMMITTED_SEED).then_some(baseline);
    let (replay, setup_s) = timed_setup(3, || Replay::build(seed));
    let mut firsts = [None, None];
    // The first replay warms caches and the allocator: checked, not timed.
    let warm = replay_once(&replay, &mut firsts, baseline, gate);
    println!(
        "# modeled: served_share {:.6}, interactive_p99_us (weighted-fair) {:.3}",
        warm.served as f64 / warm.offered.max(1) as f64,
        warm.interactive_p99_us
    );
    let mut e2e = EndToEnd::new(setup_s, POLICIES.len() * REQUESTS);
    let t0 = Instant::now();
    while e2e.passes() == 0 || t0.elapsed().as_secs_f64() < seconds {
        let t = replay_once(&replay, &mut firsts, baseline, gate);
        e2e.record(&t.walls, t.cpu);
    }
    e2e
}

/// Per-layer measurement of the control plane and of telemetry: an
/// untraced replay, the weighted-fair row with telemetry enabled plus
/// both exports, then a traced replay with per-thread CPU accounting.
/// Run first in a traced process, so `telemetry.peak_rss_mb` is the peak
/// of the replay with telemetry on. Returns the untraced and traced
/// replay walls in ns.
pub fn trace(seed: u64, gate: &mut Gate, spans: &mut Spans, m: &mut Metrics) -> (f64, f64) {
    let replay = Replay::build(seed);
    let mut firsts = [None, None];
    let mut plain_wall = 0.0;
    let mut wf_off = 0.0;
    for (policy, first) in POLICIES.iter().zip(&mut firsts) {
        if let Some(row) = replay.row(policy, None, gate) {
            check_row(&row, policy, first, None, gate);
            plain_wall += row.wall_ns;
            if *policy == "weighted-fair" {
                wf_off = row.wall_ns;
            }
        }
    }

    let tele = Telemetry::enabled();
    if let Some(row) = replay.row(POLICIES[0], Some(tele.clone()), gate) {
        check_row(&row, POLICIES[0], &mut firsts[0], None, gate);
        m.insert(
            "telemetry.overhead_share".into(),
            row.wall_ns / wf_off - 1.0,
        );
    }
    let t = Instant::now();
    let exported = tele.export_chrome_trace().len() + tele.export_prometheus().len();
    m.insert("telemetry.export_ms".into(), host::elapsed_ns(t) / 1e6);
    gate.check(exported > 0, || "telemetry export is empty".to_string());
    m.insert("telemetry.peak_rss_mb".into(), host::peak_rss_mb());
    drop(tele);

    let (mut wall, mut batches) = (0.0, 0u64);
    let (mut process, mut driver) = (CpuTimes::default(), CpuTimes::default());
    let mut requests = 0u64;
    for (policy, first) in POLICIES.iter().zip(&mut firsts) {
        let id = spans.open("server", format!("drive.{policy}"), None);
        let row = replay.row(policy, None, gate);
        spans.close(id);
        if let Some(row) = row {
            check_row(&row, policy, first, None, gate);
            wall += row.wall_ns;
            batches += row.report.batches;
            requests += row.report.served + row.report.shed;
            process = process + row.process;
            driver = driver + row.driver;
        }
    }
    let per = |ns: f64| ns / requests.max(1) as f64;
    m.insert("server.wall_ns_per_request".into(), per(wall));
    m.insert(
        "server.user_ns_per_request".into(),
        per(process.user_ns as f64),
    );
    m.insert(
        "server.sys_ns_per_request".into(),
        per(process.sys_ns as f64),
    );
    m.insert(
        "server.driver_cpu_ns_per_request".into(),
        per(driver.total_ns() as f64),
    );
    m.insert(
        "server.threads_cpu_ns_per_request".into(),
        per(process.total_ns().saturating_sub(driver.total_ns()) as f64),
    );
    m.insert(
        "server.batches_per_host_s".into(),
        batches as f64 / (wall / 1e9),
    );
    (plain_wall, wall)
}

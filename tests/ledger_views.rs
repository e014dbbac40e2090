//! The serving report, the Prometheus registry and the scraped
//! time-series are views of one scheduler ledger, so they agree
//! exactly — across partitions, tenants, execution tiers and shed
//! reasons, and on every commit path a session can take: batches,
//! sheds, crash retries, hedges to a sibling replica, and
//! `replica-lost` sheds.

use red_sim::red_core::prelude::*;
use red_sim::red_core::workloads::networks;
use red_sim::red_runtime::ChipBuilder;
use red_sim::red_server::{
    drive, AdmissionPolicy, BrownoutConfig, ChipFleet, ExecPrecision, FaultPlan, HealthConfig,
    LoadMode, LoadgenConfig, RequestMeta, ScrapeConfig, ServerConfig, ServerReport,
    ServiceEstimate, TenantClass,
};
use red_sim::red_telemetry::{ArgValue, Phase, Telemetry};
use std::collections::{BTreeMap, HashMap};

const SCALE: usize = 16; // DCGAN at 64 base channels: fast but non-trivial
const SLO_NS: u64 = 400_000;

/// Three resident networks; the last has a single replica, so a crash
/// there leaves a deadline-bound orphan no sibling to hedge to.
fn fleet() -> ChipFleet {
    let compile = |stack, design| {
        ChipBuilder::new()
            .design(design)
            .compile_seeded(&stack, 5, 42)
            .unwrap()
    };
    let red = Design::red(RedLayoutPolicy::Auto);
    ChipFleet::multi(vec![
        (compile(networks::dcgan_generator(SCALE).unwrap(), red), 2),
        (compile(networks::sngan_generator(64).unwrap(), red), 2),
        (
            compile(
                networks::dcgan_generator(SCALE).unwrap(),
                Design::PaddingFree,
            ),
            1,
        ),
    ])
    .unwrap()
}

/// An interactive tenant pinned to full precision, a deadline-bound
/// standard tenant free to brown out, and a deadline-free batch tenant
/// (whose crash orphans are re-queued rather than hedged).
fn tenants() -> Vec<TenantClass> {
    vec![
        TenantClass::named("interactive")
            .weight(4.0)
            .slo_ns(SLO_NS)
            .precision_floor(ExecPrecision::Full),
        TenantClass::named("standard")
            .weight(2.0)
            .slo_ns(3 * SLO_NS),
        TenantClass::named("batch"),
    ]
}

/// Sheds the standard tenant's doomed requests and admits everything
/// else whatever its deadline, so the session both sheds and misses
/// SLOs.
#[derive(Clone, Copy)]
struct ShedStandardOnly;

impl AdmissionPolicy for ShedStandardOnly {
    fn name(&self) -> &'static str {
        "shed-standard-only"
    }

    fn admit(&mut self, meta: &RequestMeta, estimate: &ServiceEstimate) -> bool {
        meta.tenant != 1 || !estimate.doomed(meta)
    }

    fn fork(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(*self)
    }
}

/// The Prometheus exposition as `(name, sorted labels) → value`.
fn parse_prometheus(text: &str) -> HashMap<(String, BTreeMap<String, String>), f64> {
    let mut out = HashMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => (name, rest.trim_end_matches('}')),
            None => (series, ""),
        };
        let labels = labels
            .split(',')
            .filter(|kv| !kv.is_empty())
            .map(|kv| {
                let (k, v) = kv.split_once('=').expect("label pair");
                (k.to_string(), v.trim_matches('"').to_string())
            })
            .collect();
        out.insert((name.to_string(), labels), value.parse().expect("value"));
    }
    out
}

struct Views {
    report: ServerReport,
    prom: HashMap<(String, BTreeMap<String, String>), f64>,
    telemetry: Telemetry,
    fleet: ChipFleet,
}

impl Views {
    /// The registry counter `name` with exactly `labels`.
    fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let key = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let v = self
            .prom
            .get(&(name.to_string(), key))
            .unwrap_or_else(|| panic!("no series {name}{labels:?}"));
        *v as u64
    }

    /// `counter` summed over every partition.
    fn over_partitions(&self, name: &str, key: &str, value: &str) -> u64 {
        (0..self.fleet.partition_count())
            .map(|p| self.counter(name, &[("partition", &p.to_string()), (key, value)]))
            .sum()
    }
}

/// One scraped, brownout-armed, fault-injected session over the
/// three-partition fleet, with a trace ring large enough to keep every
/// event.
fn session() -> Views {
    let fleet = fleet();
    let mut plan = FaultPlan::new(11)
        .crash(300_000, 0, 0)
        .crash(600_000, 1, 1)
        .crash(1_500_000, 0, 1);
    for k in 1..12 {
        plan = plan.crash(k * 230_000, 2, 0);
    }
    let telemetry = Telemetry::with_stream_capacity(1 << 20);
    let config = ServerConfig::new()
        .max_batch(4)
        .max_wait_ns(20_000)
        .policy(ShedStandardOnly)
        .tenants(tenants())
        .model_only()
        .brownout(BrownoutConfig::default())
        .fault_plan(plan)
        .health(HealthConfig::default().probe_interval_ns(50_000))
        .scrape(ScrapeConfig {
            interval_ns: 100_000,
            ring_capacity: 16,
        })
        .telemetry(telemetry.clone());
    let load = LoadgenConfig {
        mode: LoadMode::Open {
            rps: 1.6 * fleet.peak_throughput_per_s(),
        },
        clients: 6,
        requests: 3_000,
        horizon_ns: None,
        slo_ns: None,
        seed: 7,
        stream: true,
    };
    let report = drive(&fleet, &config, &load, &[]).expect("session runs");
    assert_eq!(telemetry.overflow_total(), 0, "the trace must be complete");
    let prom = parse_prometheus(&telemetry.export_prometheus());
    Views {
        report,
        prom,
        telemetry,
        fleet,
    }
}

/// Per-(partition, tenant) `[served, shed, slo_miss]` counts rebuilt
/// from the complete trace: each request's lifecycle span carries its
/// network, tenant track, arrival and completion instants, and outcome.
fn trace_cells(v: &Views) -> HashMap<(usize, usize), [u64; 3]> {
    let slos: Vec<Option<u64>> = tenants().iter().map(|c| c.slo_ns).collect();
    let mut open: HashMap<u64, (usize, u64)> = HashMap::new();
    let mut cells: HashMap<(usize, usize), [u64; 3]> = HashMap::new();
    for ev in v.telemetry.snapshot() {
        let arg = |key: &str| {
            ev.args
                .iter()
                .flatten()
                .find(|(k, _)| *k == key)
                .map(|(_, a)| *a)
        };
        match (ev.name, ev.ph) {
            ("req", Phase::AsyncBegin) => {
                let Some(ArgValue::U64(net)) = arg("network") else {
                    panic!("a request span names its network")
                };
                open.insert(ev.id, (net as usize, ev.ts_ns));
            }
            ("req", Phase::AsyncEnd) => {
                let (net, arrival) = open.remove(&ev.id).expect("span was opened");
                let tenant = ev.tid as usize;
                let cell = cells.entry((net, tenant)).or_default();
                if matches!(arg("outcome"), Some(ArgValue::Str("shed"))) {
                    cell[1] += 1;
                } else {
                    cell[0] += 1;
                    let missed = slos[tenant].is_some_and(|slo| ev.ts_ns - arrival > slo);
                    cell[2] += u64::from(missed);
                }
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "every request span closed");
    cells
}

#[test]
fn report_registry_and_scrape_series_are_views_of_one_ledger() {
    let v = session();
    let r = &v.report;
    let reason = |name: &str| {
        r.sheds_by_reason
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, n)| n)
    };
    // Every writer ran: batches, sheds, retries, hedges, lost replicas,
    // and batches at degraded tiers.
    assert!(r.served > 0 && r.shed > 0);
    assert!(r.hedges > 0, "the plan must hedge an orphan");
    assert!(r.retries > 0, "the plan must re-queue an orphan");
    assert!(reason("replica-lost") > 0, "the plan must lose an orphan");
    assert!(
        r.served_by_tier.iter().any(|(t, n)| t != "full" && *n > 0),
        "brownout must degrade some batches"
    );
    assert_eq!(r.offered, r.served + r.shed, "no request lost");

    // Per (partition, tenant): the registry cell equals the trace's.
    let traced = trace_cells(&v);
    let names = [
        "red_requests_served_total",
        "red_requests_shed_total",
        "red_slo_miss_total",
    ];
    let parts = v.fleet.partition_count();
    for p in 0..parts {
        for (t, class) in tenants().iter().enumerate() {
            let p_label = p.to_string();
            let labels = [
                ("partition", p_label.as_str()),
                ("tenant", class.name.as_str()),
            ];
            let registry = names.map(|name| v.counter(name, &labels));
            let want = traced.get(&(p, t)).copied().unwrap_or_default();
            assert_eq!(registry, want, "partition {p} tenant {}", class.name);
        }
    }
    // Summed over partitions they are each tenant's report...
    for tr in &r.tenant_reports {
        let sum = |name| v.over_partitions(name, "tenant", &tr.name);
        assert_eq!(sum(names[0]), tr.served, "tenant {} served", tr.name);
        assert_eq!(sum(names[1]), tr.shed, "tenant {} shed", tr.name);
        assert_eq!(tr.offered, tr.served + tr.shed);
    }
    assert!(
        (0..parts).any(|p| v.counter(
            names[2],
            &[("partition", &p.to_string()), ("tenant", "interactive")]
        ) > 0),
        "the overload must miss some SLOs"
    );
    // ...and summed over tenants, each partition's.
    for pr in &r.partition_reports {
        let p = pr.partition.to_string();
        let sum = |name| -> u64 {
            tenants()
                .iter()
                .map(|c| v.counter(name, &[("partition", &p), ("tenant", &c.name)]))
                .sum()
        };
        assert_eq!(sum(names[0]), pr.served, "partition {p} served");
        assert_eq!(sum(names[1]), pr.shed, "partition {p} shed");
        assert_eq!(pr.offered, pr.served + pr.shed);
    }

    // Sheds by reason and serves by tier, per partition and in total.
    for (name, n) in &r.sheds_by_reason {
        assert_eq!(
            v.over_partitions("red_sheds_total", "reason", name),
            *n,
            "{name}"
        );
    }
    for (i, (tier, n)) in r.served_by_tier.iter().enumerate() {
        let series = "red_requests_served_by_tier_total";
        assert_eq!(v.over_partitions(series, "tier", tier), *n, "tier {tier}");
        for pr in &r.partition_reports {
            let p = pr.partition.to_string();
            let labels = [("partition", p.as_str()), ("tier", tier.as_str())];
            assert_eq!(v.counter(series, &labels), pr.served_by_tier[i]);
        }
    }

    // Hardware counters: each tier's exact per-image integers times the
    // images served at that tier.
    for (pr, partition) in r.partition_reports.iter().zip(v.fleet.partitions()) {
        let mut want = [0u64; 6];
        for (tier, &images) in ExecPrecision::ALL.iter().zip(&pr.served_by_tier) {
            let hw = partition.chip().hardware_per_image_at(*tier).scaled(images);
            let row = [
                images,
                hw.crossbar_activations,
                hw.bit_phase_sweeps,
                hw.plane_row_adds,
                hw.adc_quantizations,
                hw.energy_fj,
            ];
            for (w, x) in want.iter_mut().zip(row) {
                *w += x;
            }
        }
        let p = pr.partition.to_string();
        let got = [
            "red_images_total",
            "red_xbar_activations_total",
            "red_bit_phase_sweeps_total",
            "red_plane_row_adds_total",
            "red_adc_quantizations_total",
            "red_energy_femtojoules_total",
        ]
        .map(|name| v.counter(name, &[("partition", &p)]));
        assert_eq!(got, want, "partition {p} hardware counters");
    }

    // Fault counts.
    let faults = |name| -> u64 {
        (0..parts)
            .map(|p| v.counter(name, &[("partition", &p.to_string())]))
            .sum()
    };
    assert_eq!(faults("red_faults_injected_total"), r.faults_injected);
    assert_eq!(faults("red_reprograms_total"), r.reprograms);
    assert_eq!(faults("red_retries_total"), r.retries);
    assert_eq!(faults("red_hedges_total"), r.hedges);

    // Every scraped counter series reproduces its registry value, ring
    // eviction included.
    let mut checked = 0;
    for s in v.telemetry.timeseries_snapshot() {
        if s.kind != "counter" {
            continue;
        }
        let retained: i64 = s.samples.iter().map(|&(_, d)| d).sum();
        assert_eq!(s.evicted_sum + retained, s.total, "{}/{}", s.chart, s.key);
        let p = s.partition.to_string();
        let registry = match s.chart.as_str() {
            "served" => v.counter(names[0], &[("partition", &p), ("tenant", &s.key)]),
            "shed" => v.counter(names[1], &[("partition", &p), ("tenant", &s.key)]),
            "slo_miss" => v.counter(names[2], &[("partition", &p), ("tenant", &s.key)]),
            "sheds_by_reason" => {
                v.counter("red_sheds_total", &[("partition", &p), ("reason", &s.key)])
            }
            "tier" => v.counter(
                "red_requests_served_by_tier_total",
                &[("partition", &p), ("tier", &s.key)],
            ),
            "faults" => {
                let name = match s.key.as_str() {
                    "injected" => "red_faults_injected_total",
                    "reprograms" => "red_reprograms_total",
                    "retries" => "red_retries_total",
                    _ => "red_hedges_total",
                };
                v.counter(name, &[("partition", &p)])
            }
            chart => panic!("unexpected counter chart {chart}"),
        };
        assert_eq!(
            s.total, registry as i64,
            "partition {p} {}/{}",
            s.chart, s.key
        );
        checked += 1;
    }
    assert_eq!(
        checked,
        parts * (3 * 3 + 5 + 3 + 4),
        "every counter series scraped"
    );
    assert!(
        v.telemetry
            .timeseries_snapshot()
            .iter()
            .any(|s| s.evicted > 0),
        "a 16-slot ring must evict"
    );
}

//! Acceptance tests for brownout serving: precision-degrading overload
//! control with bounded-error accounting.
//!
//! The headline claim: under a quarantine-heavy fault plan at well over
//! the fleet's capacity, a brownout-enabled run serves **strictly
//! more** requests (sheds fewer) than the identical trace with brownout
//! off, the full-pinned interactive tenant's p99 stays under its SLO,
//! and both sessions — being pure functions of the request trace —
//! replay byte-identically, telemetry timeline included. Functional
//! sessions additionally meter the worst *observed* output deviation of
//! every degraded batch against its full-precision re-execution and
//! must stay within the advertised worst-case bound.

use proptest::prelude::*;
use red_core::prelude::*;
use red_core::workloads::networks;
use red_runtime::ChipBuilder;
use red_server::{
    drive, BrownoutConfig, ChipFleet, DeadlineShed, ExecPrecision, FaultPlan, HealthConfig,
    LoadMode, LoadgenConfig, ServerConfig, ServerReport, TenantClass,
};
use red_telemetry::Telemetry;
use std::sync::OnceLock;

const SCALE: usize = 16; // DCGAN at 64 base channels: fast but non-trivial

/// One compiled RED fleet (2 replicas), shared across cases.
fn shared_fleet() -> &'static ChipFleet {
    static FLEET: OnceLock<ChipFleet> = OnceLock::new();
    FLEET.get_or_init(|| {
        let stack = networks::dcgan_generator(SCALE).unwrap();
        let chip = ChipBuilder::new()
            .design(Design::red(RedLayoutPolicy::Auto))
            .compile_seeded(&stack, 5, 42)
            .unwrap();
        ChipFleet::new(chip, 2).unwrap()
    })
}

/// An interactive tenant pinned to bit-exact service plus three
/// deadline-bound best-effort tenants free to brown out — the mix the
/// precision floor exists for. Three best-effort classes (one client
/// each) keep pure best-effort batches common, and those are the only
/// batches a full-pinned neighbour cannot drag back to full precision.
fn tenant_mix(slo_ns: u64) -> Vec<TenantClass> {
    vec![
        TenantClass::named("interactive")
            .weight(4.0)
            .slo_ns(slo_ns)
            .precision_floor(ExecPrecision::Full),
        TenantClass::named("be0").slo_ns(3 * slo_ns),
        TenantClass::named("be1").slo_ns(3 * slo_ns),
        TenantClass::named("be2").slo_ns(3 * slo_ns),
    ]
}

/// Drives the shared fleet at `overload`x its peak throughput under a
/// quarantine-heavy fault plan (a stuck-at strike burst plus a
/// retention-drift advance — both quarantine and reprogram replicas),
/// with or without brownout control, capturing the telemetry timeline.
fn chaos_session(overload: f64, brownout: bool, seed: u64) -> (ServerReport, String) {
    let fleet = shared_fleet();
    let slo_ns = 400_000u64;
    let plan = FaultPlan::new(seed)
        .strikes(40_000, 0, 0, 512)
        .drift(120_000, 0, 2_592_000.0);
    let tele = Telemetry::enabled();
    // DeadlineShed makes degraded pricing monotone: a request doomed at
    // full-precision latency can fit its deadline at the shorter
    // degraded makespan, so brownout turns sheds directly into serves.
    let mut config = ServerConfig::new()
        .max_batch(4)
        .max_wait_ns(20_000)
        .policy(DeadlineShed)
        .tenants(tenant_mix(slo_ns))
        .model_only()
        .fault_plan(plan)
        .health(HealthConfig::default().probe_interval_ns(10_000))
        .telemetry(tele.clone());
    if brownout {
        config = config.brownout(BrownoutConfig::default());
    }
    let load = LoadgenConfig {
        mode: LoadMode::Open {
            rps: overload * fleet.peak_throughput_per_s(),
        },
        clients: 4,
        requests: 2_000,
        horizon_ns: None,
        slo_ns: None,
        seed,
        stream: true,
    };
    let report = drive(fleet, &config, &load, &[]).unwrap();
    (report, tele.export_chrome_trace())
}

#[test]
fn brownout_outserves_shedding_under_quarantine_overload() {
    let (off, off_trace) = chaos_session(1.6, false, 7);
    let (on, on_trace) = chaos_session(1.6, true, 7);

    // Same trace, same faults: degradation must turn sheds into serves.
    assert_eq!(on.offered, off.offered, "identical offered trace");
    assert!(
        on.served > off.served && on.shed < off.shed,
        "brownout must serve strictly more than shedding: \
         served {} vs {}, shed {} vs {}",
        on.served,
        off.served,
        on.shed,
        off.shed,
    );
    let degraded: u64 = on
        .served_by_tier
        .iter()
        .filter(|(tier, _)| tier != "full")
        .map(|&(_, n)| n)
        .sum();
    assert!(degraded > 0, "the extra headroom comes from degraded tiers");
    assert!(
        on.partition_reports[0].brownout_events.len() >= 2,
        "the controller stepped down and (eventually) back"
    );
    // Brownout off: nothing degrades, no transitions, ledger unchanged.
    assert_eq!(off.served_by_tier[0], ("full".to_string(), off.served));
    assert!(off.partition_reports[0].brownout_events.is_empty());

    // The interactive tenant is pinned Full: it keeps its SLO and is
    // never harmed by the degradation serving its neighbours.
    let interactive = &on.tenant_reports[0];
    assert!(
        interactive.total.p99() <= interactive.slo_ns.unwrap(),
        "interactive p99 {} must stay under the {} ns SLO",
        interactive.total.p99(),
        interactive.slo_ns.unwrap(),
    );
    assert!(interactive.served >= off.tenant_reports[0].served);

    // Both sessions replay byte-identically, timeline included.
    let (off2, off_trace2) = chaos_session(1.6, false, 7);
    let (on2, on_trace2) = chaos_session(1.6, true, 7);
    assert_eq!(off_trace, off_trace2, "brownout-off replay diverged");
    assert_eq!(on_trace, on_trace2, "brownout-on replay diverged");
    assert_eq!(off.served, off2.served);
    assert_eq!(on.served_by_tier, on2.served_by_tier);

    // Both ledgers still reconcile at repriced tiers.
    assert!(on.reconciles() && off.reconciles());
}

#[test]
fn degraded_functional_outputs_stay_within_the_advertised_bound() {
    // A tiny functional fleet, every tenant free to brown out, driven
    // past capacity so the controller actually degrades: the replicas
    // re-run every degraded batch at full precision and meter the worst
    // observed deviation, which must respect the crossbar bound. With
    // two replicas the degraded batches and their golden re-runs execute
    // on parallel scoped threads inside the scheduler's close loop.
    let stack = networks::dcgan_generator(4).unwrap();
    let chip = ChipBuilder::new()
        .design(Design::red(RedLayoutPolicy::Auto))
        .compile_seeded(&stack, 5, 42)
        .unwrap();
    let bound_eco = chip.truncation_error_bound(ExecPrecision::Eco);
    let bound_deep = chip.truncation_error_bound(ExecPrecision::Brownout);
    assert!(
        0.0 < bound_eco && bound_eco <= bound_deep,
        "advertised bound grows with degradation depth"
    );
    let traffic = networks::request_stream(&stack, 8, 16, 0xBEEF);
    let config = ServerConfig::new()
        .max_batch(4)
        .max_wait_ns(20_000)
        .tenants(vec![TenantClass::default()])
        .brownout(BrownoutConfig {
            cooldown_ns: 100_000,
            ..BrownoutConfig::default()
        });
    for replicas in [1, 2] {
        let fleet = ChipFleet::new(chip.clone(), replicas).unwrap();
        let load = LoadgenConfig {
            mode: LoadMode::Open {
                rps: 3.0 * fleet.peak_throughput_per_s(),
            },
            clients: 2,
            requests: 120,
            horizon_ns: None,
            slo_ns: None,
            seed: 9,
            stream: false,
        };
        let report = drive(&fleet, &config, &load, std::slice::from_ref(&traffic)).unwrap();
        let degraded: u64 = report.served_by_tier[1..].iter().map(|&(_, n)| n).sum();
        assert!(
            degraded > 0,
            "{replicas} replica(s): overload must reach a degraded tier"
        );
        assert!(
            report.precision_error_bound >= bound_eco,
            "{replicas} replica(s): the session advertises the deepest executed tier's bound"
        );
        assert!(
            report.max_observed_error <= report.precision_error_bound,
            "{replicas} replica(s): observed error {} exceeds the advertised bound {}",
            report.max_observed_error,
            report.precision_error_bound,
        );
        assert!(
            report.reconciles(),
            "{replicas} replica(s): tier repricing preserves the ledgers"
        );
        assert_eq!(
            report.failed, 0,
            "{replicas} replica(s): every batch executes"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A brownout session is a pure function of its request trace:
    /// arbitrary seeds, double replay, byte-identical timeline and
    /// identical per-tier ledger.
    #[test]
    fn brownout_sessions_replay_byte_identically(seed in any::<u64>()) {
        let (a, trace_a) = chaos_session(1.4, true, seed);
        let (b, trace_b) = chaos_session(1.4, true, seed);
        prop_assert_eq!(trace_a, trace_b);
        prop_assert_eq!(a.served, b.served);
        prop_assert_eq!(a.shed, b.shed);
        prop_assert_eq!(a.served_by_tier, b.served_by_tier);
        prop_assert_eq!(
            a.partition_reports[0].brownout_events.len(),
            b.partition_reports[0].brownout_events.len()
        );
    }
}

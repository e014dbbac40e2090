//! Integration tests for the `red-server` seam: online serving must
//! compute exactly what offline sequential execution computes, the batch
//! former must honor its bounds and per-client ordering for arbitrary
//! traces, SLO shedding must never execute a request past its deadline,
//! and micro-batching must buy measurable modeled throughput — the
//! acceptance criteria of the serving subsystem.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use red_sim::red_core::prelude::*;
use red_sim::red_core::workloads::networks;
use red_sim::red_runtime::ChipBuilder;
use red_sim::red_server::{
    drive, BatchFormer, ChipFleet, ClientMode, DeadlineShed, Fifo, LoadMode, LoadgenConfig,
    Outcome, RequestMeta, Server, ServerConfig,
};

const SCALE: usize = 16; // DCGAN at 64 base channels: fast but non-trivial

/// Served outputs are bit-exact against the chip's sequential golden
/// path for every design, on ideal and fully non-ideal crossbars — the
/// scheduler changes when and together with what requests execute, never
/// what they compute.
#[test]
fn served_outputs_are_bit_exact_vs_sequential_for_all_designs() {
    let stack = networks::dcgan_generator(SCALE).unwrap();
    let inputs: Vec<_> = (0..6)
        .map(|i| synth::input_dense(&stack.layers[0], 64, 3_000 + i as u64))
        .collect();
    for cfg in [
        XbarConfig::ideal(),
        XbarConfig::preset("full").expect("known preset"),
    ] {
        for design in Design::paper_lineup() {
            let chip = ChipBuilder::new()
                .design(design)
                .xbar_config(cfg)
                .compile_seeded(&stack, 5, 42)
                .unwrap();
            let golden = chip.run_sequential(&inputs).unwrap();
            let fleet = ChipFleet::new(chip, 2).unwrap();
            let config = ServerConfig::new().max_batch(4).max_wait_ns(2_000);
            let (server, mut clients) =
                Server::start(&fleet, &config, &[ClientMode::Open, ClientMode::Open]).unwrap();
            // Interleave the six requests over two open-loop clients with
            // staggered virtual arrivals; remember which input each
            // (client, seq) carries.
            let mut expected = vec![Vec::new(); 2];
            for (i, input) in inputs.iter().enumerate() {
                let c = i % 2;
                let meta = clients[c]
                    .submit(input.clone(), 700 * i as u64, None)
                    .unwrap();
                assert_eq!(meta.seq as usize, i / 2);
                expected[c].push(golden.outputs[i].clone());
            }
            // Finish every client before draining: the former (correctly)
            // refuses to finalize a batch that a still-active client
            // could preempt with an earlier virtual arrival.
            for client in clients.iter_mut() {
                client.finish();
            }
            for (c, client) in clients.iter_mut().enumerate() {
                let mut got = vec![None; expected[c].len()];
                for _ in 0..expected[c].len() {
                    let completion = client.recv().unwrap();
                    let Outcome::Served(output) = completion.outcome else {
                        panic!("{design}: every request is served under FIFO");
                    };
                    got[completion.meta.seq as usize] = Some(output);
                }
                for (seq, (g, e)) in got.iter().zip(&expected[c]).enumerate() {
                    assert_eq!(
                        g.as_ref().expect("all seqs answered"),
                        e,
                        "{design}: client {c} seq {seq} must be bit-exact vs sequential"
                    );
                }
            }
            let report = server.finish();
            assert_eq!(report.served, 6);
            assert_eq!(report.failed, 0);
            assert!(
                report.reconciles(),
                "{design}: scheduler charge must reconcile with measured runtime reports"
            );
        }
    }
}

/// The acceptance benchmark: at equal offered overload on 2 ideal DCGAN
/// replicas, `max_batch = 16` must sustain strictly more modeled
/// images/sec than `max_batch = 1` — micro-batching amortizes the
/// pipeline fill across outputs.
#[test]
fn batching_sustains_higher_throughput_at_equal_offered_load() {
    let stack = networks::dcgan_generator(SCALE).unwrap();
    let chip = ChipBuilder::new()
        .design(Design::red(RedLayoutPolicy::Auto))
        .compile_seeded(&stack, 5, 42)
        .unwrap();
    let analytic = chip.pipeline_report();
    // Offer 3x the fleet's max_batch=1 capacity (one output per fill
    // latency per replica): overload for the unbatched server, near the
    // bottleneck rate for the batched one.
    let rps = 3.0 * 2.0 * 1e9 / analytic.fill_latency_ns();
    let fleet = ChipFleet::new(chip, 2).unwrap();
    let inputs = networks::request_stream(&stack, 8, 64, 11);
    let load = LoadgenConfig {
        mode: LoadMode::Open { rps },
        clients: 4,
        requests: 128,
        horizon_ns: None,
        slo_ns: None,
        seed: 9,
        stream: false,
    };
    let run = |max_batch: usize| {
        let config = ServerConfig::new()
            .max_batch(max_batch)
            .max_wait_ns(20_000)
            .policy(Fifo);
        let report =
            drive(&fleet, &config, &load, std::slice::from_ref(&inputs)).expect("load runs");
        assert_eq!(report.served, 128, "FIFO serves everything");
        assert_eq!(report.failed, 0);
        assert!(report.reconciles(), "batch {max_batch} must reconcile");
        report
    };
    let single = run(1);
    let batched = run(16);
    assert!(
        batched.served_per_s() > single.served_per_s(),
        "max_batch=16 ({:.0} img/s) must beat max_batch=1 ({:.0} img/s) at equal offered load",
        batched.served_per_s(),
        single.served_per_s()
    );
    assert!(batched.mean_batch() > 1.5, "overload must actually batch");
    assert_eq!(single.mean_batch(), 1.0);
}

/// The acceptance SLO criterion: under overload, `DeadlineShed` keeps
/// the served p99 at or below the SLO and sheds a nonzero share, while
/// `Fifo` at the same load blows through the SLO instead.
#[test]
fn deadline_shed_meets_slo_under_overload_where_fifo_does_not() {
    let stack = networks::dcgan_generator(SCALE).unwrap();
    let chip = ChipBuilder::new()
        .design(Design::red(RedLayoutPolicy::Auto))
        .compile_seeded(&stack, 5, 42)
        .unwrap();
    let analytic = chip.pipeline_report();
    let fill_ns = analytic.fill_latency_ns() as u64;
    let slo_ns = 4 * fill_ns;
    let rps = 4.0 * 2.0 * 1e9 / analytic.fill_latency_ns(); // 4x capacity
    let fleet = ChipFleet::new(chip, 2).unwrap();
    let inputs = networks::request_stream(&stack, 8, 64, 12);
    let load = LoadgenConfig {
        mode: LoadMode::Open { rps },
        clients: 4,
        requests: 160,
        horizon_ns: None,
        slo_ns: Some(slo_ns),
        seed: 17,
        stream: false,
    };
    let config = ServerConfig::new().max_batch(8).max_wait_ns(5_000);
    let shed_report = drive(
        &fleet,
        &config.clone().policy(DeadlineShed),
        &load,
        std::slice::from_ref(&inputs),
    )
    .expect("load runs");
    assert!(shed_report.reconciles());
    assert!(shed_report.shed > 0, "overload must shed");
    assert!(shed_report.served > 0, "shedding must not starve the fleet");
    assert!(
        shed_report.total.p99() <= slo_ns,
        "served p99 {} ns must stay within the {} ns SLO",
        shed_report.total.p99(),
        slo_ns
    );
    assert!(
        shed_report.total.max_ns() <= slo_ns,
        "DeadlineShed never serves past the deadline, so even the max meets the SLO"
    );
    let fifo_report = drive(
        &fleet,
        &config.clone().policy(Fifo),
        &load,
        std::slice::from_ref(&inputs),
    )
    .expect("load runs");
    assert_eq!(fifo_report.shed, 0);
    assert!(
        fifo_report.total.p99() > slo_ns,
        "FIFO under 4x overload must miss the SLO (p99 {} ns vs {} ns)",
        fifo_report.total.p99(),
        slo_ns
    );
}

/// Closed-loop clients self-throttle: offered load equals served load,
/// nothing sheds even with deadlines armed, and per-client completions
/// arrive in submission order.
#[test]
fn closed_loop_clients_self_throttle_and_stay_ordered() {
    let stack = networks::sngan_generator(64).unwrap();
    let chip = ChipBuilder::new()
        .design(Design::ZeroPadding)
        .compile_seeded(&stack, 5, 11)
        .unwrap();
    let analytic = chip.pipeline_report();
    let slo = (4.0 * analytic.fill_latency_ns()) as u64;
    let fleet = ChipFleet::new(chip, 2).unwrap();
    let inputs = networks::request_stream(&stack, 4, 40, 5);
    let load = LoadgenConfig {
        mode: LoadMode::Closed,
        clients: 3,
        requests: 30,
        horizon_ns: None,
        slo_ns: Some(slo),
        seed: 3,
        stream: false,
    };
    let config = ServerConfig::new()
        .max_batch(4)
        .max_wait_ns(1_000)
        .policy(DeadlineShed);
    let report = drive(&fleet, &config, &load, std::slice::from_ref(&inputs)).expect("load runs");
    assert_eq!(report.offered, 30);
    assert_eq!(report.served + report.shed, 30);
    assert!(report.reconciles());
    // A closed-loop client is never more than one request deep, so its
    // deadline is always meetable: nothing sheds.
    assert_eq!(report.shed, 0, "closed loop never overloads the fleet");
    assert!(report.total.max_ns() <= slo);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batch former never emits more than `max_batch` requests, never
    /// spans more than `max_wait` of virtual time inside one batch, never
    /// reorders a single client's requests, and never loses or duplicates
    /// a request — for arbitrary multi-client traces and arbitrary
    /// frontier schedules.
    #[test]
    fn batch_former_honors_bounds_order_and_conservation(
        seed in any::<u64>(),
        clients in 1usize..=5,
        n in 1usize..=120,
        max_batch in 1usize..=9,
        max_wait in 0u64..=2_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut former = BatchFormer::new(max_batch, max_wait);
        let mut clocks = vec![0u64; clients];
        let mut seqs = vec![0u64; clients];
        let mut emitted: Vec<Vec<u64>> = vec![Vec::new(); clients]; // per-client seqs
        let mut emitted_total = 0usize;
        for _ in 0..n {
            let c = rng.gen_range(0..clients);
            clocks[c] += rng.gen_range(0..=500u64);
            let meta = RequestMeta {
                client: c,
                tenant: 0,
                network: 0,
                seq: seqs[c],
                arrival_ns: clocks[c],
                deadline_ns: None,
            };
            seqs[c] += 1;
            former.push(meta, ());
            // The frontier the scheduler would report: the slowest
            // client's current clock (each client's next arrival is at
            // or after its own clock).
            let frontier = clocks.iter().copied().min().unwrap();
            while let Some(batch) = former.try_close(frontier, 0) {
                prop_assert!(batch.requests.len() <= max_batch);
                prop_assert!(!batch.requests.is_empty());
                let arrivals: Vec<u64> =
                    batch.requests.iter().map(|(m, ())| m.arrival_ns).collect();
                prop_assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
                prop_assert!(arrivals[arrivals.len() - 1] - arrivals[0] <= max_wait);
                prop_assert!(batch.close_ns >= arrivals[arrivals.len() - 1]);
                prop_assert!(batch.close_ns <= arrivals[0].saturating_add(max_wait));
                for (m, ()) in &batch.requests {
                    emitted[m.client].push(m.seq);
                    emitted_total += 1;
                }
            }
        }
        while let Some(batch) = former.try_close(u64::MAX, u64::MAX) {
            prop_assert!(batch.requests.len() <= max_batch);
            for (m, ()) in &batch.requests {
                emitted[m.client].push(m.seq);
                emitted_total += 1;
            }
        }
        prop_assert_eq!(emitted_total, n, "every request emitted exactly once");
        for (c, seq_list) in emitted.iter().enumerate() {
            prop_assert_eq!(seq_list.len() as u64, seqs[c]);
            prop_assert!(
                seq_list.windows(2).all(|w| w[0] < w[1]),
                "client {} seqs out of order: {:?}", c, seq_list
            );
        }
    }

    /// End-to-end through a real server: `DeadlineShed` never serves a
    /// request past its deadline, whatever the load, SLO, or batch
    /// bounds — and every request is answered exactly once.
    #[test]
    fn deadline_shed_never_executes_past_deadline(
        seed in any::<u64>(),
        rps_scale in 1u32..=8,       // x0.5 .. x4 of fleet capacity
        slo_scale in 1u32..=6,       // x0.5 .. x3 of fill latency
        max_batch in 1usize..=6,
        max_wait in 0u64..=20_000,
    ) {
        let stack = networks::sngan_generator(64).unwrap();
        let chip = ChipBuilder::new()
            .design(Design::PaddingFree)
            .compile_seeded(&stack, 5, 11)
            .unwrap();
        let analytic = chip.pipeline_report();
        let fill = analytic.fill_latency_ns();
        let rps = f64::from(rps_scale) * 0.5 * 1e9 / fill;
        let slo_ns = (f64::from(slo_scale) * 0.5 * fill) as u64;
        let fleet = ChipFleet::new(chip, 1).unwrap();
        let config = ServerConfig::new()
            .max_batch(max_batch)
            .max_wait_ns(max_wait)
            .policy(DeadlineShed);
        let (server, mut clients) =
            Server::start(&fleet, &config, &[ClientMode::Open]).unwrap();
        let input = synth::input_dense(&stack.layers[0], 40, seed % 1000);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut clock = 0.0f64;
        let n = 40usize;
        for _ in 0..n {
            let u: f64 = rng.gen_range(0.0..1.0);
            clock += -(1.0 - u).ln() / rps * 1e9;
            let arrival = clock as u64;
            clients[0]
                .submit(input.clone(), arrival, Some(arrival + slo_ns))
                .unwrap();
        }
        clients[0].finish();
        let mut served = 0u64;
        let mut shed = 0u64;
        for _ in 0..n {
            let completion = clients[0].recv().unwrap();
            let deadline = completion.meta.deadline_ns.unwrap();
            match completion.outcome {
                Outcome::Served(_) => {
                    served += 1;
                    prop_assert!(
                        completion.timing.completion_ns <= deadline,
                        "served at {} past deadline {}",
                        completion.timing.completion_ns,
                        deadline
                    );
                }
                Outcome::Shed => shed += 1,
                Outcome::Modeled => prop_assert!(false, "functional servers never answer Modeled"),
                Outcome::Failed => prop_assert!(false, "no request may fail"),
            }
        }
        drop(clients);
        let report = server.finish();
        prop_assert_eq!(report.served, served);
        prop_assert_eq!(report.shed, shed);
        prop_assert_eq!(served + shed, n as u64);
        prop_assert!(report.reconciles());
    }
}

// ===========================================================================
// Multi-tenant fleet serving: multi-network routing, driver
// equivalence, tenant isolation, model-only equivalence, autoscaling
// determinism, and histogram accuracy at one million samples.
// ===========================================================================

use red_sim::red_server::{
    AdmissionPolicy, AutoscaleConfig, BrownoutConfig, ClientSpec, FaultPlan, LatencyHistogram,
    ScrapeConfig, ServerError, ServerReport, ServiceEstimate, StrictPriority, TenantClass,
    WeightedFair,
};
use red_sim::red_telemetry::Telemetry;

/// The tenant lineup of the committed `BENCH_loadgen.json` baseline: a
/// latency-pinned interactive class, a mid-tier standard class, and a
/// best-effort batch class without a deadline.
fn tenant_lineup(slo_ns: u64) -> Vec<TenantClass> {
    vec![
        TenantClass::named("interactive")
            .weight(4.0)
            .priority(0)
            .slo_ns(slo_ns),
        TenantClass::named("standard")
            .weight(2.0)
            .priority(1)
            .slo_ns(8 * slo_ns),
        TenantClass::named("batch").weight(1.0).priority(2),
    ]
}

/// A two-network fleet (DCGAN + SNGAN generators on RED chips) plus its
/// aggregate modeled peak throughput, for the model-only tests.
fn two_network_fleet(replicas: usize) -> (ChipFleet, f64) {
    let a = ChipBuilder::new()
        .design(Design::red(RedLayoutPolicy::Auto))
        .compile_seeded(&networks::dcgan_generator(SCALE).unwrap(), 5, 42)
        .unwrap();
    let b = ChipBuilder::new()
        .design(Design::red(RedLayoutPolicy::Auto))
        .compile_seeded(&networks::sngan_generator(64).unwrap(), 5, 42)
        .unwrap();
    let fleet = ChipFleet::multi(vec![(a, replicas), (b, replicas)]).unwrap();
    let peak = fleet.peak_throughput_per_s();
    (fleet, peak)
}

/// Asserts every modeled (virtual-clock) statistic of two reports is
/// identical — counts, spans, busy-time ledgers, every histogram's
/// moments and quantiles, and the per-tenant / per-partition breakdowns
/// including autoscale events. Host-side fields are deliberately not
/// compared.
fn assert_modeled_stats_identical(a: &ServerReport, b: &ServerReport) {
    assert_eq!(a.offered, b.offered, "offered");
    assert_eq!(a.served, b.served, "served");
    assert_eq!(a.shed, b.shed, "shed");
    assert_eq!(a.failed, b.failed, "failed");
    assert_eq!(a.batches, b.batches, "batches");
    assert_eq!(a.first_arrival_ns, b.first_arrival_ns, "first arrival");
    assert_eq!(
        a.last_completion_ns, b.last_completion_ns,
        "last completion"
    );
    assert_eq!(a.modeled_busy_ns, b.modeled_busy_ns, "modeled busy");
    for (name, ha, hb) in [
        ("total", &a.total, &b.total),
        ("queue_wait", &a.queue_wait, &b.queue_wait),
        ("execute", &a.execute, &b.execute),
        ("shed_wait", &a.shed_wait, &b.shed_wait),
        ("batch_sizes", &a.batch_sizes, &b.batch_sizes),
    ] {
        assert_eq!(ha.count(), hb.count(), "{name} count");
        assert_eq!(ha.min_ns(), hb.min_ns(), "{name} min");
        assert_eq!(ha.max_ns(), hb.max_ns(), "{name} max");
        assert_eq!(
            ha.mean_ns().to_bits(),
            hb.mean_ns().to_bits(),
            "{name} mean"
        );
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(ha.quantile(q), hb.quantile(q), "{name} q{q}");
        }
    }
    assert_eq!(a.tenant_reports.len(), b.tenant_reports.len());
    for (ta, tb) in a.tenant_reports.iter().zip(&b.tenant_reports) {
        assert_eq!(ta.offered, tb.offered, "tenant {} offered", ta.name);
        assert_eq!(ta.served, tb.served, "tenant {} served", ta.name);
        assert_eq!(ta.shed, tb.shed, "tenant {} shed", ta.name);
        assert_eq!(ta.total.p99(), tb.total.p99(), "tenant {} p99", ta.name);
        assert_eq!(
            ta.queue_wait.p99(),
            tb.queue_wait.p99(),
            "tenant {} queue p99",
            ta.name
        );
    }
    assert_eq!(a.partition_reports.len(), b.partition_reports.len());
    for (pa, pb) in a.partition_reports.iter().zip(&b.partition_reports) {
        assert_eq!(pa.offered, pb.offered, "partition {} offered", pa.network);
        assert_eq!(pa.served, pb.served, "partition {} served", pa.network);
        assert_eq!(pa.shed, pb.shed, "partition {} shed", pa.network);
        assert_eq!(pa.batches, pb.batches, "partition {} batches", pa.network);
        assert_eq!(
            pa.replicas_active, pb.replicas_active,
            "partition {} final active",
            pa.network
        );
        assert_eq!(
            pa.total.p99(),
            pb.total.p99(),
            "partition {} p99",
            pa.network
        );
        assert_eq!(
            pa.scale_events, pb.scale_events,
            "partition {} scale events",
            pa.network
        );
    }
}

/// A multi-network fleet routes every request to the partition its tag
/// names and each partition's outputs stay bit-exact against that
/// chip's own sequential golden path.
#[test]
fn multi_network_fleet_routes_requests_bit_exact_per_network() {
    let stack_a = networks::dcgan_generator(SCALE).unwrap();
    let stack_b = networks::sngan_generator(64).unwrap();
    let chip_a = ChipBuilder::new()
        .design(Design::red(RedLayoutPolicy::Auto))
        .compile_seeded(&stack_a, 5, 42)
        .unwrap();
    let chip_b = ChipBuilder::new()
        .design(Design::red(RedLayoutPolicy::Auto))
        .compile_seeded(&stack_b, 5, 42)
        .unwrap();
    let inputs_a: Vec<_> = (0..4)
        .map(|i| synth::input_dense(&stack_a.layers[0], 48, 100 + i as u64))
        .collect();
    let inputs_b: Vec<_> = (0..4)
        .map(|i| synth::input_dense(&stack_b.layers[0], 48, 200 + i as u64))
        .collect();
    let golden_a = chip_a.run_sequential(&inputs_a).unwrap();
    let golden_b = chip_b.run_sequential(&inputs_b).unwrap();
    let fleet = ChipFleet::multi(vec![(chip_a, 1), (chip_b, 1)]).unwrap();
    let config = ServerConfig::new().max_batch(4).max_wait_ns(2_000);
    let (server, mut clients) =
        Server::start(&fleet, &config, &[ClientMode::Open, ClientMode::Open]).unwrap();
    for (i, input) in inputs_a.iter().enumerate() {
        clients[0]
            .submit_to(0, input.clone(), 500 * i as u64, None)
            .unwrap();
    }
    for (i, input) in inputs_b.iter().enumerate() {
        clients[1]
            .submit_to(1, input.clone(), 500 * i as u64, None)
            .unwrap();
    }
    for client in clients.iter_mut() {
        client.finish();
    }
    for (c, golden) in [(0usize, &golden_a), (1usize, &golden_b)] {
        for _ in 0..4 {
            let completion = clients[c].recv().unwrap();
            let Outcome::Served(output) = completion.outcome else {
                panic!("FIFO serves everything");
            };
            assert_eq!(
                &output, &golden.outputs[completion.meta.seq as usize],
                "network {c} seq {} must be bit-exact vs its own chip",
                completion.meta.seq
            );
            assert_eq!(completion.meta.network, c, "routing tag preserved");
        }
    }
    let report = server.finish();
    assert_eq!(report.partition_reports.len(), 2);
    for p in &report.partition_reports {
        assert_eq!(p.offered, 4);
        assert_eq!(p.served, 4);
        assert!(p.reconciles(), "partition {} reconciles", p.network);
    }
    assert!(report.reconciles());
    assert!(
        report.network.contains('+'),
        "aggregate report names both resident networks: {}",
        report.network
    );
}

/// An open-loop `Server::start` session fed `load`'s traces by one
/// thread per client, each submitting its whole trace before collecting
/// its completions. `drive`'s seed stream, gap formula, budget split,
/// tenant rule and routing rule are copied here, so the two deliver the
/// same requests through different hosts: the shell's channels and
/// threads, and the core on the calling thread.
fn thread_per_client_session(
    fleet: &ChipFleet,
    config: &ServerConfig,
    load: &LoadgenConfig,
) -> ServerReport {
    let LoadMode::Open { rps } = load.mode else {
        unreachable!("open loops only");
    };
    assert!(load.horizon_ns.is_none(), "budget-limited traces only");
    let classes = config.tenant_classes();
    let slos: Vec<Option<u64>> = classes.iter().map(|t| t.slo_ns.or(load.slo_ns)).collect();
    let specs: Vec<ClientSpec> = (0..load.clients)
        .map(|i| ClientSpec::open(i % classes.len()))
        .collect();
    let partitions = fleet.partition_count();
    let (server, handles) = Server::start(fleet, config, &specs).unwrap();
    std::thread::scope(|scope| {
        for mut handle in handles {
            let slos = &slos;
            scope.spawn(move || {
                let idx = handle.id();
                let budget =
                    load.requests / load.clients + usize::from(idx < load.requests % load.clients);
                let rate = rps / load.clients as f64;
                let mut rng = StdRng::seed_from_u64(
                    load.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(idx as u64 + 1),
                );
                let mut clock = 0.0f64;
                for k in 0..budget {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    clock += -(1.0 - u).ln() / rate * 1e9;
                    let arrival = clock as u64;
                    let deadline = slos[handle.tenant()].map(|s| arrival + s);
                    handle
                        .submit_modeled((idx + k) % partitions, arrival, deadline)
                        .unwrap();
                }
                handle.finish();
                for _ in 0..budget {
                    handle.recv().unwrap();
                }
            });
        }
    });
    server.try_finish().unwrap()
}

/// `drive`, which runs the scheduler core on the calling thread, and a
/// `Server::start` session fed the same traces by one thread per client
/// produce **bit-identical** modeled statistics — on a plain
/// weighted-fair session and off the happy path: under a fault plan with
/// a crash and a strike, with brownout armed, and with the scraper and
/// alert engine on. Batch close instants are trace-deterministic, so the
/// report cannot depend on how the host delivered the trace.
#[test]
fn streaming_driver_matches_threaded_driver_bit_for_bit() {
    let (fleet, peak) = two_network_fleet(2);
    let slo_ns = 200_000;
    let classes = tenant_lineup(slo_ns);
    let plain = ServerConfig::new()
        .max_batch(8)
        .max_wait_ns(20_000)
        .policy(WeightedFair::new(&classes, 100_000))
        .tenants(classes)
        .model_only();
    // Built afresh per run: each alerting session needs its own
    // telemetry handle.
    let config = |case: &str| match case {
        "plain" => plain.clone(),
        "chaos" => plain.clone().fault_plan(
            FaultPlan::new(23)
                .crash(5_000_000, 0, 1)
                .strikes(12_000_000, 1, 0, 512),
        ),
        "brownout" => plain.clone().brownout(BrownoutConfig::default()),
        "alerts" => plain
            .clone()
            .telemetry(Telemetry::enabled())
            .scrape(ScrapeConfig {
                interval_ns: 1_000_000,
                ..ScrapeConfig::default()
            }),
        other => unreachable!("no case {other}"),
    };
    let load = LoadgenConfig {
        mode: LoadMode::Open { rps: 1.8 * peak },
        clients: 9,
        requests: 30_000,
        horizon_ns: None,
        slo_ns: None,
        seed: 23,
        stream: true,
    };
    for case in ["plain", "chaos", "brownout", "alerts"] {
        let shell = thread_per_client_session(&fleet, &config(case), &load);
        let inline = drive(&fleet, &config(case), &load, &[]).unwrap();
        assert!(shell.reconciles(), "{case}: shell reconciles");
        assert!(inline.reconciles(), "{case}: inline reconciles");
        assert!(shell.shed > 0, "{case}: 1.8x overload must shed");
        assert_modeled_stats_identical(&shell, &inline);
        assert_eq!(shell.served_by_tier, inline.served_by_tier, "{case}");
        assert_eq!(shell.retries, inline.retries, "{case}: retries");
        assert_eq!(shell.hedges, inline.hedges, "{case}: hedges");
        assert_eq!(shell.sheds_by_reason, inline.sheds_by_reason, "{case}");
        assert_eq!(shell.alerts, inline.alerts, "{case}: alert episodes");
        // Each case must actually leave the happy path it names.
        match case {
            "chaos" => assert_eq!(inline.faults_injected, 2, "both faults fire"),
            "brownout" => assert!(
                inline
                    .partition_reports
                    .iter()
                    .any(|p| !p.brownout_events.is_empty()),
                "overload must step a brownout tier"
            ),
            "alerts" => assert!(!inline.alerts.is_empty(), "overload must fire an alert"),
            _ => {}
        }
    }
}

/// A policy whose every admission decision panics.
#[derive(Debug)]
struct PanickingPolicy;

impl AdmissionPolicy for PanickingPolicy {
    fn name(&self) -> &'static str {
        "panicking"
    }

    fn admit(&mut self, _meta: &RequestMeta, _estimate: &ServiceEstimate) -> bool {
        panic!("admission policy panicked on purpose")
    }

    fn fork(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(PanickingPolicy)
    }
}

/// A panicking custom policy surfaces as `SchedulerFailed` wherever the
/// core runs: from `drive`, which runs it on the calling thread, on a
/// model-only and on a functional server, and from `try_finish` of a
/// `Server::start` session, whose shell thread runs it.
#[test]
fn a_panicking_policy_surfaces_as_scheduler_failed_on_both_drivers() {
    let stack = networks::dcgan_generator(SCALE).unwrap();
    let chip = ChipBuilder::new()
        .design(Design::red(RedLayoutPolicy::Auto))
        .compile_seeded(&stack, 5, 42)
        .unwrap();
    let fleet = ChipFleet::new(chip, 2).unwrap();
    let inputs = networks::request_stream(&stack, 4, 48, 3);
    let config = ServerConfig::new()
        .max_batch(4)
        .max_wait_ns(10_000)
        .policy(PanickingPolicy);
    let load = LoadgenConfig {
        mode: LoadMode::Open { rps: 100_000.0 },
        clients: 3,
        requests: 24,
        horizon_ns: None,
        slo_ns: None,
        seed: 1,
        stream: true,
    };
    let shell = || {
        let (server, mut clients) = Server::start(&fleet, &config, &[ClientMode::Open]).unwrap();
        for (i, input) in inputs.iter().enumerate() {
            // The shell may already be gone: only try_finish reports.
            let _ = clients[0].submit(input.clone(), 1_000 * i as u64, None);
        }
        drop(clients);
        server.try_finish()
    };
    for (driver, result) in [
        (
            "drive model-only",
            drive(&fleet, &config.clone().model_only(), &load, &[]),
        ),
        (
            "drive functional",
            drive(&fleet, &config, &load, std::slice::from_ref(&inputs)),
        ),
        ("Server::start", shell()),
    ] {
        match result {
            Err(ServerError::SchedulerFailed { message }) => assert!(
                message.contains("panicked on purpose"),
                "{driver}: the panic message survives, got {message:?}"
            ),
            other => panic!("{driver}: expected SchedulerFailed, got {other:?}"),
        }
    }
}

/// Open-loop rates must be positive and finite: `drive` answers NaN,
/// infinities, zero and negative rates with a typed error instead of
/// panicking or stamping every arrival at t = 0.
#[test]
fn drive_rejects_non_finite_and_non_positive_rates() {
    let (fleet, _) = two_network_fleet(1);
    for rps in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
        let load = LoadgenConfig {
            mode: LoadMode::Open { rps },
            clients: 2,
            requests: 8,
            horizon_ns: None,
            slo_ns: None,
            seed: 1,
            stream: true,
        };
        match drive(&fleet, &ServerConfig::new().model_only(), &load, &[]) {
            Err(ServerError::InvalidRate { rps: got }) => {
                assert!(got == rps || (got.is_nan() && rps.is_nan()), "{rps}");
            }
            other => panic!("rps {rps}: expected InvalidRate, got {other:?}"),
        }
    }
}

/// Under sustained overload, weighted-fair admission pins the
/// interactive tenant's served p99 at or below its SLO while the
/// best-effort batch tenant absorbs a disproportionate share of the
/// shed — and still is not starved.
#[test]
fn weighted_fair_pins_interactive_p99_while_batch_absorbs_the_shed() {
    // A single-network fleet: with two resident networks the round-robin
    // routing would pin the slower partition at ~4x *local* overload
    // regardless of the aggregate rate, putting every tenant over its
    // share there and washing out the isolation this test measures.
    let chip = ChipBuilder::new()
        .design(Design::red(RedLayoutPolicy::Auto))
        .compile_seeded(&networks::dcgan_generator(SCALE).unwrap(), 5, 42)
        .unwrap();
    let fleet = ChipFleet::new(chip, 2).unwrap();
    let peak = fleet.peak_throughput_per_s();
    let slo_ns = 200_000;
    let classes = tenant_lineup(slo_ns);
    let config = ServerConfig::new()
        .max_batch(8)
        .max_wait_ns(20_000)
        .policy(WeightedFair::new(&classes, 50_000))
        .tenants(classes)
        .model_only();
    // 1.5x aggregate overload: each tenant offers 0.5x peak, so the
    // interactive class (fair share 4/7 ≈ 0.57x) stays inside its
    // share and sheds only doomed requests, while the batch class
    // (share 1/7) is far over its own and absorbs the overload.
    let load = LoadgenConfig {
        mode: LoadMode::Open { rps: 1.5 * peak },
        clients: 9,
        requests: 60_000,
        horizon_ns: None,
        slo_ns: None,
        seed: 31,
        stream: true,
    };
    let report = drive(&fleet, &config, &load, &[]).unwrap();
    assert!(report.reconciles());
    assert!(report.shed > 0, "2x overload must shed");
    let [interactive, _standard, batch] = report.tenant_reports.as_slice() else {
        panic!("three tenant classes reported");
    };
    assert!(
        interactive.total.p99() <= slo_ns,
        "interactive served p99 {} ns must stay within the {} ns SLO under overload",
        interactive.total.p99(),
        slo_ns
    );
    let shed_frac = |t: &red_sim::red_server::TenantReport| t.shed as f64 / t.offered as f64;
    assert!(
        shed_frac(batch) > 2.0 * shed_frac(interactive),
        "batch tenant absorbs the overload: shed {:.1}% vs interactive {:.1}%",
        100.0 * shed_frac(batch),
        100.0 * shed_frac(interactive)
    );
    assert!(batch.served > 0, "weighted-fair never starves a tenant");
}

/// A model-only server charges exactly the virtual-clock statistics of
/// the functional server over the same trace — it just skips executing
/// the crossbars.
#[test]
fn model_only_matches_functional_virtual_stats_bit_for_bit() {
    let stack = networks::dcgan_generator(SCALE).unwrap();
    let chip = ChipBuilder::new()
        .design(Design::red(RedLayoutPolicy::Auto))
        .compile_seeded(&stack, 5, 42)
        .unwrap();
    let fleet = ChipFleet::new(chip, 2).unwrap();
    let peak = fleet.peak_throughput_per_s();
    let inputs = networks::request_stream(&stack, 8, 48, 11);
    let load = LoadgenConfig {
        mode: LoadMode::Open { rps: 1.2 * peak },
        clients: 4,
        requests: 256,
        horizon_ns: None,
        slo_ns: None,
        seed: 5,
        stream: false,
    };
    let config = ServerConfig::new()
        .max_batch(8)
        .max_wait_ns(10_000)
        .policy(Fifo);
    let functional = drive(&fleet, &config, &load, std::slice::from_ref(&inputs)).unwrap();
    let modeled = drive(&fleet, &config.clone().model_only(), &load, &[]).unwrap();
    assert!(functional.reconciles());
    assert!(modeled.reconciles());
    assert!(functional.host_exec_ns > 0, "functional run executes");
    assert_eq!(modeled.host_exec_ns, 0, "model-only run never executes");
    assert_modeled_stats_identical(&functional, &modeled);
}

/// End-to-end autoscaling: under overload the partitions scale up from
/// the configured floor, the scale-event ledgers are identical run to
/// run, and the virtual statistics stay deterministic with autoscaling
/// enabled.
#[test]
fn autoscaling_scales_up_under_overload_and_stays_deterministic() {
    let run = || {
        let (fleet, peak) = two_network_fleet(4);
        let config = ServerConfig::new()
            .max_batch(8)
            .max_wait_ns(20_000)
            .policy(Fifo)
            .autoscale(AutoscaleConfig {
                min_replicas: 1,
                cooldown_ns: 200_000,
                ..AutoscaleConfig::default()
            })
            .model_only();
        let load = LoadgenConfig {
            mode: LoadMode::Open { rps: 2.0 * peak },
            clients: 6,
            requests: 20_000,
            horizon_ns: None,
            slo_ns: None,
            seed: 13,
            stream: true,
        };
        drive(&fleet, &config, &load, &[]).unwrap()
    };
    let a = run();
    let b = run();
    assert!(a.reconciles());
    for p in &a.partition_reports {
        assert!(
            !p.scale_events.is_empty(),
            "partition {} must scale under 2x overload from a floor of 1",
            p.network
        );
        assert!(
            p.scale_events.iter().any(|e| e.to > e.from),
            "partition {} must scale UP",
            p.network
        );
        assert!(
            p.replicas_active > 1,
            "partition {} ends above the floor",
            p.network
        );
        for w in p.scale_events.windows(2) {
            assert!(
                w[1].at_ns - w[0].at_ns >= 200_000,
                "cooldown respected between scale events"
            );
            assert!(
                (w[1].to as i64 - w[1].from as i64).abs() == 1,
                "one step at a time"
            );
        }
    }
    assert_modeled_stats_identical(&a, &b);
}

/// One million log-uniform samples: every quantile the reports publish
/// stays within one log-bucket (3.2% relative) of the exact sorted
/// value, and the histogram's footprint does not grow with the sample
/// count — the O(1)-memory property the load generator depends on.
#[test]
fn histogram_million_sample_quantiles_within_one_log_bucket() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut h = LatencyHistogram::new();
    let buckets_before = h.bucket_count();
    let n = 1_000_000usize;
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let exp: f64 = rng.gen_range(0.0..36.0);
        let v = 2f64.powf(exp) as u64;
        h.record(v);
        samples.push(v);
    }
    samples.sort_unstable();
    for q in [0.5, 0.9, 0.99, 0.999, 0.9999] {
        let target = ((q * n as f64).ceil() as usize).clamp(1, n);
        let exact = samples[target - 1];
        let est = h.quantile(q);
        assert!(est >= exact, "q{q}: estimate {est} below exact {exact}");
        assert!(
            est - exact <= exact / 32 + 1,
            "q{q}: estimate {est} more than one log-bucket above exact {exact}"
        );
    }
    assert_eq!(
        h.bucket_count(),
        buckets_before,
        "footprint independent of sample count"
    );
    assert!(
        h.bucket_count() * 8 < 16 * 1024,
        "fixed footprint stays under 16 KiB"
    );
    assert_eq!(h.count(), n as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Histogram quantiles track the exact sorted values within one
    /// log-bucket for arbitrary sample sets at any magnitude, and the
    /// bucket array never grows.
    #[test]
    fn histogram_quantiles_track_exact_for_arbitrary_samples(
        seed in any::<u64>(),
        n in 1usize..=4_000,
        scale_bits in 0u32..=48,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = LatencyHistogram::new();
        let buckets_before = h.bucket_count();
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let v = rng.gen_range(0..=(1u64 << scale_bits));
            h.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for q in [0.25, 0.5, 0.9, 0.99, 1.0] {
            let target = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = samples[target - 1];
            let est = h.quantile(q);
            prop_assert!(est >= exact, "q{}: {} below exact {}", q, est, exact);
            prop_assert!(
                est - exact <= exact / 32 + 1,
                "q{}: {} more than one log-bucket above {}", q, est, exact
            );
        }
        prop_assert_eq!(h.bucket_count(), buckets_before);
    }

    /// Weighted-fair admission invariants for arbitrary weight tables
    /// and offer sequences: work-conserving when the queue lag is
    /// within bounds, and no tenant starves under sustained pressure.
    #[test]
    fn weighted_fair_work_conserves_and_never_starves(
        seed in any::<u64>(),
        n_tenants in 2usize..=4,
    ) {
        let mut wrng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let classes: Vec<TenantClass> = (0..n_tenants)
            .map(|i| {
                let w: u32 = wrng.gen_range(1..=8);
                TenantClass::named(&format!("t{i}")).weight(f64::from(w))
            })
            .collect();
        let max_lag = 10_000u64;
        let mut wf = WeightedFair::new(&classes, max_lag);
        let mut rng = StdRng::seed_from_u64(seed);
        let offer = |wf: &mut WeightedFair, tenant: usize, seq: u64, lag: u64| {
            let arrival = seq * 100;
            let start = arrival + lag;
            let meta = RequestMeta {
                client: 0,
                tenant,
                network: 0,
                seq,
                arrival_ns: arrival,
                deadline_ns: None,
            };
            let estimate = ServiceEstimate {
                batch_start_ns: start,
                position: 0,
                fill_latency_ns: 50,
                steady_interval_ns: 10,
                predicted_completion_ns: start + 50,
            };
            wf.admit(&meta, &estimate)
        };
        // Work conservation: within the lag bound nothing is shed,
        // whatever the tenant mix.
        for k in 0..200u64 {
            let t = rng.gen_range(0..classes.len());
            prop_assert!(
                offer(&mut wf, t, k, max_lag / 2),
                "within-lag offers must all admit (work conservation)"
            );
        }
        // Sustained pressure: random offers at 4x the lag bound. Every
        // tenant must still get service in proportion to a positive
        // share — no starvation.
        let mut served = vec![0u32; classes.len()];
        for k in 200..2_600u64 {
            let t = rng.gen_range(0..classes.len());
            if offer(&mut wf, t, k, 4 * max_lag) {
                served[t] += 1;
            }
        }
        for (t, s) in served.iter().enumerate() {
            prop_assert!(*s > 0, "tenant {} starved under pressure: {:?}", t, served);
        }
    }

    /// Strict-priority admission is monotone in priority: whenever a
    /// lower tier admits a request at some queue lag, every higher tier
    /// admits the same request — and tier budgets shrink geometrically.
    #[test]
    fn strict_priority_is_monotone_in_tier(
        lag in 0u64..=1_000_000,
        max_lag in 1u64..=1_000_000,
    ) {
        let classes: Vec<TenantClass> = (0..4)
            .map(|p| TenantClass::named(&format!("p{p}")).priority(p))
            .collect();
        let mut sp = StrictPriority::new(&classes, max_lag);
        let admit_at = |sp: &mut StrictPriority, tenant: usize| {
            let meta = RequestMeta {
                client: 0,
                tenant,
                network: 0,
                seq: 0,
                arrival_ns: 0,
                deadline_ns: None,
            };
            let estimate = ServiceEstimate {
                batch_start_ns: lag,
                position: 0,
                fill_latency_ns: 50,
                steady_interval_ns: 10,
                predicted_completion_ns: lag + 50,
            };
            sp.admit(&meta, &estimate)
        };
        let decisions: Vec<bool> = (0..4).map(|t| admit_at(&mut sp, t)).collect();
        for w in decisions.windows(2) {
            prop_assert!(
                w[0] || !w[1],
                "a lower tier admitted where a higher tier shed: {:?}", decisions
            );
        }
        for p in 0..3u32 {
            prop_assert!(sp.lag_budget_ns(p) >= sp.lag_budget_ns(p + 1));
        }
        prop_assert_eq!(sp.lag_budget_ns(0), max_lag);
    }
}

//! The functional serving path: the nine lineup chips on ideal crossbars,
//! each served through `red_server::drive` as a one-partition,
//! one-replica fleet (fifo, `max_batch` 8, streaming open loop at 200 krps
//! virtual). Measured in the traced run only; see README.md for why it is
//! not an end-to-end workload.

use crate::gate::Gate;
use crate::lineup::Lineup;
use crate::spans::Spans;
use crate::Metrics;
use red_bench::minijson::JsonValue;
use red_core::prelude::*;
use red_server::{
    drive, ChipFleet, ClientMode, LoadMode, LoadgenConfig, Outcome, Server, ServerConfig,
};

/// Requests per session; a sweep of the nine sessions serves 216.
const REQUESTS: usize = 24;

fn server_config() -> ServerConfig {
    ServerConfig::new().max_batch(8).max_wait_ns(50_000)
}

fn load(seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        mode: LoadMode::Open { rps: 200_000.0 },
        clients: 4,
        requests: REQUESTS,
        horizon_ns: None,
        slo_ns: None,
        seed,
        stream: true,
    }
}

/// The nine single-replica fleets, each with its chip's inputs as the
/// partition's request stream.
pub struct Sessions {
    lineup: Lineup,
    fleets: Vec<ChipFleet>,
}

impl Sessions {
    pub fn build(seed: u64) -> Sessions {
        let lineup = Lineup::build(XbarConfig::ideal(), seed);
        let fleets = lineup
            .chips
            .iter()
            .map(|c| ChipFleet::new(c.chip.clone(), 1).expect("one replica is positive"))
            .collect();
        Sessions { lineup, fleets }
    }
}

/// What one sweep over the nine sessions cost.
#[derive(Debug, Default)]
struct Sweep {
    wall_ns: f64,
    host_exec_ns: f64,
    resolved: u64,
}

/// Drives every session once, in its own span, and checks each report.
fn sweep(s: &Sessions, seed: u64, gate: &mut Gate, spans: &mut Spans) -> Sweep {
    let cfg = server_config();
    let load = load(seed);
    let mut out = Sweep::default();
    for (c, fleet) in s.lineup.chips.iter().zip(&s.fleets) {
        let traffic = [c.inputs.clone()];
        let span = spans.open("server", format!("drive.{}.{}", c.net, c.design), None);
        let report = drive(fleet, &cfg, &load, &traffic);
        let wall = spans.close(span);
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                gate.check(false, || format!("served {}/{}: {e}", c.net, c.design));
                continue;
            }
        };
        let what = || format!("served {}/{}", c.net, c.design);
        gate.check(report.reconciles(), || {
            format!("{}: does not reconcile", what())
        });
        gate.check(report.failed == 0, || {
            format!("{}: {} failed", what(), report.failed)
        });
        gate.check(
            report.offered == REQUESTS as u64 && report.offered == report.served + report.shed,
            || {
                format!(
                    "{}: offered {} served {} shed {}",
                    what(),
                    report.offered,
                    report.served,
                    report.shed
                )
            },
        );
        out.wall_ns += wall;
        out.host_exec_ns += report.host_exec_ns as f64;
        out.resolved += report.served + report.shed;
    }
    out
}

/// Serves every chip's batch through a closed-loop client and checks each
/// served output bit-exact against `goldens`.
fn verify_outputs(s: &Sessions, goldens: &[Vec<FeatureMap<i64>>], gate: &mut Gate) {
    for ((c, fleet), golden) in s.lineup.chips.iter().zip(&s.fleets).zip(goldens) {
        let (server, mut clients) =
            match Server::start(fleet, &server_config(), &[ClientMode::Closed]) {
                Ok(started) => started,
                Err(e) => {
                    gate.check(false, || {
                        format!("served {}/{}: start: {e}", c.net, c.design)
                    });
                    continue;
                }
            };
        let mut client = clients.pop().expect("one client was registered");
        for (i, (input, want)) in c.inputs.iter().zip(golden).enumerate() {
            let reply = client.call(input.clone(), i as u64 * 100_000, None);
            gate.check(
                matches!(&reply, Ok(done) if matches!(&done.outcome, Outcome::Served(fm) if fm == want)),
                || format!("served {}/{} image {i}: output differs from sequential", c.net, c.design),
            );
        }
        drop(client); // declares the client finished
        gate.check(server.try_finish().is_ok_and(|r| r.reconciles()), || {
            format!("served {}/{}: verification session", c.net, c.design)
        });
    }
}

/// Per-layer measurement of the functional server shell. Every chip's
/// batch is served once and checked bit-exact against
/// `Chip::run_sequential`, and the modeled figures against the `ideal`
/// rows of `BENCH_serve.json`; then a measured sweep follows a warm-up
/// one. Emits `server.exec_share` and `server.shell_ns_per_request`.
pub fn trace(
    seed: u64,
    serve_doc: &JsonValue,
    gate: &mut Gate,
    spans: &mut Spans,
    m: &mut Metrics,
) {
    let sessions = Sessions::build(seed);
    let goldens = sessions.lineup.goldens(gate);
    verify_outputs(&sessions, &goldens, gate);
    sessions.lineup.check_modeled(serve_doc, "ideal", gate);
    sweep(&sessions, seed, gate, spans);
    let traced = sweep(&sessions, seed, gate, spans);
    m.insert(
        "server.exec_share".into(),
        traced.host_exec_ns / traced.wall_ns,
    );
    m.insert(
        "server.shell_ns_per_request".into(),
        (traced.wall_ns - traced.host_exec_ns) / traced.resolved.max(1) as f64,
    );
}

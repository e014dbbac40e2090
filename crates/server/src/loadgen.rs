//! Closed- and open-loop load generation against a [`ChipFleet`].
//!
//! **Open loop** models independent user traffic: each client owns a
//! seeded Poisson arrival process (exponential inter-arrival gaps at
//! `rps / clients` per client) and submits its trace fire-and-forget,
//! so offered load does not slow down when the server falls behind —
//! the regime where batching policy and admission control actually
//! matter. **Closed loop** models synchronous callers: each client
//! submits, waits for the completion, and immediately submits again at
//! the completion's virtual time, so concurrency is capped at the
//! client count and offered load self-throttles.
//!
//! Clients are assigned round-robin to the server's tenant classes and
//! route request `k` of client `i` to fleet partition `(i + k) %
//! partitions`, so every tenant exercises every resident network.
//!
//! Arrival traces live on the virtual clock and derive only from
//! `(seed, rps, clients, budget)`, so a load run's statistics are
//! reproducible run to run — that determinism is what the committed
//! `BENCH_loadgen.json` baseline and the CI bench-gate rely on.
//!
//! # Streaming mode
//!
//! The thread-per-client open-loop driver submits each client's whole
//! trace before draining completions, which retains O(requests) channel
//! memory — fine at 10⁴ requests, hopeless at 10⁶. With
//! [`LoadgenConfig::stream`] set, open-loop traffic instead runs on a
//! **single driver thread** that merges the per-client Poisson streams
//! in global arrival order and caps each client's outstanding window at
//! `2 · partitions · max_batch + 64` requests. When the earliest-
//! arrival client is window-full, the driver heartbeats every client's
//! watermark and collects completions: the watermarks push the
//! scheduler's frontier past every outstanding arrival, and the window
//! is wide enough that some partition then holds a closable full batch
//! (pigeonhole over `2·max_batch` requests in one former), so collecting
//! makes progress. On a model-only server the driver runs the scheduler
//! core itself on the calling thread: it submits, heartbeats, runs the
//! core's close loop and drains its outbox, with no scheduler thread,
//! worker or channel in between, and the window bounds the outbox too.
//! A pump that resolves nothing is returned as
//! [`ServerError::SchedulerFailed`] rather than retried. A functional
//! server is driven through its [`ClientHandle`]s instead, blocking on
//! the window-full client's completions. Memory is O(clients · window),
//! independent of the request budget — the property the CI
//! million-request smoke's RSS ceiling asserts. The per-client traces are
//! drawn from the same seeds and gap formula as the threaded driver, and
//! batch close instants are trace-deterministic (see
//! [`BatchFormer`](crate::BatchFormer)), so a streaming run's modeled
//! statistics are **bit-identical** to the threaded run over the same
//! configuration (asserted in `tests/server_serving.rs`).

use crate::server::{
    panic_message, ClientHandle, ClientMode, ClientSpec, Scheduler, Server, ServerConfig,
};
use crate::{ChipFleet, RequestMeta, ServerError, ServerReport, TenantId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use red_tensor::FeatureMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How the load generator drives the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Poisson arrivals at `rps` requests/second (virtual), split evenly
    /// across clients, submitted fire-and-forget.
    Open {
        /// Aggregate offered rate, in requests per virtual second.
        rps: f64,
    },
    /// Each client keeps exactly one request outstanding, resubmitting
    /// at its previous completion's virtual time.
    Closed,
}

/// Load-generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadgenConfig {
    /// Open- or closed-loop driving.
    pub mode: LoadMode,
    /// Client count.
    pub clients: usize,
    /// Total request budget across clients.
    pub requests: usize,
    /// Stop issuing past this virtual instant (open loop: arrivals
    /// beyond it are dropped; closed loop: a client whose clock passes
    /// it stops). `None` = budget-limited only.
    pub horizon_ns: Option<u64>,
    /// Fallback per-request SLO for tenants without their own:
    /// deadline = arrival + `slo_ns`. A tenant class's
    /// [`slo_ns`](crate::TenantClass::slo_ns) takes precedence. `None`
    /// = best-effort requests without deadlines.
    pub slo_ns: Option<u64>,
    /// Trace seed (per-client streams are derived from it).
    pub seed: u64,
    /// Use the O(1)-memory single-threaded streaming driver for
    /// open-loop traffic (see the module docs). Ignored for closed
    /// loops, which are already O(clients).
    pub stream: bool,
}

/// Splits the request budget across clients (first `total % clients`
/// clients get one extra).
fn client_budget(total: usize, clients: usize, idx: usize) -> usize {
    total / clients + usize::from(idx < total % clients)
}

/// The per-client Poisson seed stream, shared verbatim by the threaded
/// and streaming drivers so their traces are identical.
fn client_rng(seed: u64, idx: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(idx as u64 + 1))
}

/// Drives `fleet` with the configured load and returns the session's
/// [`ServerReport`]. `traffic` holds one input set per fleet partition,
/// rotated round-robin across that partition's requests; on a
/// model-only server (`server_config.is_functional() == false`) the
/// inputs are never executed, so `traffic` may be empty.
///
/// # Errors
///
/// [`ServerError::NoClients`] for zero clients;
/// [`ServerError::InvalidRate`] for an open-loop `rps` that is not
/// positive and finite;
/// [`ServerError::TrafficMismatch`] when a functional run's `traffic`
/// does not provide exactly one input set per partition;
/// [`ServerError::NoInputs`] for an empty per-partition set;
/// [`ServerError::InputMismatch`] when an input does not match its
/// partition's first stage;
/// [`ServerError::SchedulerFailed`] when the scheduler panicked (e.g. in
/// a custom [`AdmissionPolicy`](crate::AdmissionPolicy)), whichever
/// driver ran it, or when the model-only streaming driver stopped
/// making progress.
pub fn drive(
    fleet: &ChipFleet,
    server_config: &ServerConfig,
    load: &LoadgenConfig,
    traffic: &[Vec<FeatureMap<i64>>],
) -> Result<ServerReport, ServerError> {
    if load.clients == 0 {
        return Err(ServerError::NoClients);
    }
    if let LoadMode::Open { rps } = load.mode {
        if !(rps.is_finite() && rps > 0.0) {
            return Err(ServerError::InvalidRate { rps });
        }
    }
    let partitions = fleet.partition_count();
    if server_config.is_functional() {
        if traffic.len() != partitions {
            return Err(ServerError::TrafficMismatch {
                expected: partitions,
                actual: traffic.len(),
            });
        }
        for (p, set) in traffic.iter().enumerate() {
            if set.is_empty() {
                return Err(ServerError::NoInputs);
            }
            let expected = fleet.partitions()[p].chip().input_shape();
            for input in set {
                let actual = (input.height(), input.width(), input.channels());
                if actual != expected {
                    return Err(ServerError::InputMismatch { expected, actual });
                }
            }
        }
    }
    let tenants = server_config.tenant_classes().len();
    let specs: Vec<ClientSpec> = (0..load.clients)
        .map(|i| ClientSpec {
            mode: match load.mode {
                LoadMode::Open { .. } => ClientMode::Open,
                LoadMode::Closed => ClientMode::Closed,
            },
            tenant: i % tenants,
        })
        .collect();
    // Per-tenant effective SLO: the class's own, else the load's.
    let slos: Vec<Option<u64>> = server_config
        .tenant_classes()
        .iter()
        .map(|t| t.slo_ns.or(load.slo_ns))
        .collect();
    let ctx = DriveCtx {
        load,
        traffic,
        slos: &slos,
        specs: &specs,
        partitions,
        functional: server_config.is_functional(),
    };
    let streaming = load.stream && matches!(load.mode, LoadMode::Open { .. });
    let max_batch = server_config.max_batch_bound();
    if streaming && !ctx.functional {
        let mut core = Scheduler::new(fleet, server_config, &specs)?;
        // The core runs on this thread, so a panic inside it (say, in a
        // custom admission policy) unwinds here: report it the way the
        // threaded shell's join does.
        return catch_unwind(AssertUnwindSafe(move || {
            drive_streaming(&mut core, &ctx, max_batch)?;
            Ok(core.finish())
        }))
        .unwrap_or_else(|payload| {
            Err(ServerError::SchedulerFailed {
                message: panic_message(&*payload),
            })
        });
    }
    let (server, mut handles) = Server::start(fleet, server_config, &specs)?;
    let streamed = if streaming {
        drive_streaming(&mut handles, &ctx, max_batch)
    } else {
        std::thread::scope(|scope| {
            for handle in handles.drain(..) {
                let ctx = &ctx;
                scope.spawn(move || drive_client(handle, ctx));
            }
        });
        Ok(())
    };
    // Dropping finishes every client, even those of a stream cut short,
    // so the shell can drain. A dead scheduler explains a broken stream,
    // so its failure wins.
    drop(handles);
    let report = server.try_finish()?;
    streamed.map(|()| report)
}

/// Everything a driver needs besides the handles.
struct DriveCtx<'a> {
    load: &'a LoadgenConfig,
    traffic: &'a [Vec<FeatureMap<i64>>],
    slos: &'a [Option<u64>],
    specs: &'a [ClientSpec],
    partitions: usize,
    functional: bool,
}

impl DriveCtx<'_> {
    /// Partition for request `k` of client `idx`.
    fn network(&self, idx: usize, k: usize) -> usize {
        (idx + k) % self.partitions
    }

    /// Deadline of a request of `tenant` arriving at `arrival`.
    fn deadline(&self, tenant: TenantId, arrival: u64) -> Option<u64> {
        self.slos[tenant].map(|s| arrival + s)
    }

    /// Input for request `k` of client `idx` on partition `net`.
    fn input(&self, idx: usize, k: usize, net: usize) -> FeatureMap<i64> {
        let set = &self.traffic[net];
        set[(idx + k * self.load.clients) % set.len()].clone()
    }

    /// Submits request `k` of a client (functional or modeled).
    fn submit(&self, handle: &mut ClientHandle, k: usize, arrival: u64) -> Result<(), ServerError> {
        let idx = handle.id();
        let net = self.network(idx, k);
        let deadline = self.deadline(handle.tenant(), arrival);
        if self.functional {
            handle.submit_to(net, self.input(idx, k, net), arrival, deadline)?;
        } else {
            handle.submit_modeled(net, arrival, deadline)?;
        }
        Ok(())
    }
}

/// One client thread's life: issue its trace, then drain completions.
fn drive_client(mut handle: ClientHandle, ctx: &DriveCtx<'_>) {
    let load = ctx.load;
    let idx = handle.id();
    let budget = client_budget(load.requests, load.clients, idx);
    match load.mode {
        LoadMode::Open { rps } => {
            let rate = rps / load.clients as f64;
            let mut rng = client_rng(load.seed, idx);
            let mut clock = 0.0f64;
            let mut sent = 0usize;
            for k in 0..budget {
                let u: f64 = rng.gen_range(0.0..1.0);
                clock += -(1.0 - u).ln() / rate * 1e9;
                if load.horizon_ns.is_some_and(|h| clock > h as f64) {
                    break;
                }
                if ctx.submit(&mut handle, k, clock as u64).is_err() {
                    break;
                }
                sent += 1;
            }
            handle.finish();
            for _ in 0..sent {
                if handle.recv().is_err() {
                    break;
                }
            }
        }
        LoadMode::Closed => {
            let mut clock = 0u64;
            for k in 0..budget {
                if load.horizon_ns.is_some_and(|h| clock > h) {
                    break;
                }
                if ctx.submit(&mut handle, k, clock).is_err() {
                    break;
                }
                match handle.recv() {
                    // Shed completions advance the clock too: the caller
                    // learns of the rejection at the shedding instant.
                    Ok(completion) => clock = completion.timing.completion_ns,
                    Err(_) => break,
                }
            }
            handle.finish();
        }
    }
}

/// One client's trace inside the streaming driver.
struct StreamClient {
    rng: StdRng,
    clock: f64,
    /// Next request index (gap draws and input rotation stay aligned
    /// with the threaded driver's `k`).
    k: usize,
    budget: usize,
    /// The next arrival, already drawn; `None` once the trace is
    /// exhausted (budget spent or horizon passed).
    next: Option<u64>,
}

impl StreamClient {
    /// Draws the arrival of request `k`, or retires the trace.
    fn draw_next(&mut self, load: &LoadgenConfig, rate: f64) {
        if self.k >= self.budget {
            self.next = None;
        } else {
            let u: f64 = self.rng.gen_range(0.0..1.0);
            self.clock += -(1.0 - u).ln() / rate * 1e9;
            self.next = if load.horizon_ns.is_some_and(|h| self.clock > h as f64) {
                None
            } else {
                Some(self.clock as u64)
            };
        }
    }
}

/// Where the streaming driver sends its trace: a threaded server's client
/// handles, or the scheduler core itself on the calling thread.
trait Session {
    /// Submits request `k` of `client`, arriving at `arrival_ns`.
    fn send(
        &mut self,
        ctx: &DriveCtx<'_>,
        client: usize,
        k: usize,
        arrival_ns: u64,
    ) -> Result<(), ServerError>;

    /// Promises that `client` submits nothing before `watermark_ns`.
    fn heartbeat(&mut self, client: usize, watermark_ns: u64);

    /// Declares `client`'s trace over.
    fn retire(&mut self, client: usize);

    /// Collects at least one completion of `client`, taking every
    /// completion collected (of any client) off `outstanding`.
    fn collect(&mut self, client: usize, outstanding: &mut [usize]) -> Result<(), ServerError>;
}

/// A threaded server: blocks on the client's own completion channel.
impl Session for Vec<ClientHandle> {
    fn send(
        &mut self,
        ctx: &DriveCtx<'_>,
        client: usize,
        k: usize,
        arrival_ns: u64,
    ) -> Result<(), ServerError> {
        ctx.submit(&mut self[client], k, arrival_ns)
    }

    fn heartbeat(&mut self, client: usize, watermark_ns: u64) {
        // A dead server surfaces at the next submit or collect.
        let _ = self[client].advance(watermark_ns);
    }

    fn retire(&mut self, client: usize) {
        self[client].finish();
    }

    fn collect(&mut self, client: usize, outstanding: &mut [usize]) -> Result<(), ServerError> {
        self[client].recv()?;
        outstanding[client] -= 1;
        Ok(())
    }
}

/// The core on the calling thread: a collect runs its close loop and
/// drains the outbox. The heartbeats before it have already told the
/// core everything the driver knows, so a pump that resolves nothing
/// would resolve nothing forever — an error, not a retry.
impl Session for Scheduler {
    fn send(
        &mut self,
        ctx: &DriveCtx<'_>,
        client: usize,
        k: usize,
        arrival_ns: u64,
    ) -> Result<(), ServerError> {
        let tenant = ctx.specs[client].tenant;
        let meta = RequestMeta {
            client,
            tenant,
            network: ctx.network(client, k),
            seq: k as u64,
            arrival_ns,
            deadline_ns: ctx.deadline(tenant, arrival_ns),
        };
        self.submit(meta, None);
        Ok(())
    }

    fn heartbeat(&mut self, client: usize, watermark_ns: u64) {
        self.advance(client, watermark_ns);
    }

    fn retire(&mut self, client: usize) {
        self.finish_client(client);
    }

    fn collect(&mut self, client: usize, outstanding: &mut [usize]) -> Result<(), ServerError> {
        self.close_ready();
        let mut resolved = 0usize;
        for completion in self.outbox() {
            outstanding[completion.meta.client] -= 1;
            resolved += 1;
        }
        if resolved == 0 {
            return Err(ServerError::SchedulerFailed {
                message: format!(
                    "the streaming pump made no progress: client {client} has {} requests \
                     outstanding and no batch can close",
                    outstanding[client]
                ),
            });
        }
        Ok(())
    }
}

/// The O(1)-memory open-loop driver (see the module docs).
fn drive_streaming(
    session: &mut impl Session,
    ctx: &DriveCtx<'_>,
    max_batch: usize,
) -> Result<(), ServerError> {
    let load = ctx.load;
    let LoadMode::Open { rps } = load.mode else {
        unreachable!("streaming applies to open loops only");
    };
    let rate = rps / load.clients as f64;
    let window = 2 * ctx.partitions * max_batch + 64;
    let mut cls: Vec<StreamClient> = (0..load.clients)
        .map(|idx| StreamClient {
            rng: client_rng(load.seed, idx),
            clock: 0.0,
            k: 0,
            budget: client_budget(load.requests, load.clients, idx),
            next: None,
        })
        .collect();
    let mut outstanding = vec![0usize; load.clients];
    for (idx, cl) in cls.iter_mut().enumerate() {
        cl.draw_next(load, rate);
        if cl.next.is_none() {
            session.retire(idx);
        }
    }
    // Globally earliest pending arrival, lowest client id on ties.
    let earliest = |cls: &[StreamClient]| {
        cls.iter()
            .enumerate()
            .filter_map(|(i, cl)| cl.next.map(|t| (t, i)))
            .min()
            .map(|(_, i)| i)
    };
    while let Some(c) = earliest(&cls) {
        if outstanding[c] < window {
            let arrival = cls[c].next.take().expect("selected for a pending arrival");
            let k = cls[c].k;
            cls[c].k += 1;
            session.send(ctx, c, k, arrival)?;
            outstanding[c] += 1;
            cls[c].draw_next(load, rate);
            if cls[c].next.is_none() {
                // Retire promptly: a quiet-but-unfinished client would
                // pin the scheduler's frontier and stall everyone's
                // batches.
                session.retire(c);
            }
        } else {
            // The earliest client is window-full: promise every
            // client's next arrival to the scheduler so the frontier
            // clears all outstanding work, then collect — the window
            // guarantees a closable full batch.
            for (i, cl) in cls.iter().enumerate() {
                if let Some(t) = cl.next {
                    session.heartbeat(i, t);
                }
            }
            session.collect(c, &mut outstanding)?;
        }
    }
    // Every trace is retired; drain what is in flight.
    while let Some(c) = outstanding.iter().position(|&n| n > 0) {
        session.collect(c, &mut outstanding)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_splits_evenly_with_remainder_up_front() {
        let shares: Vec<_> = (0..4).map(|i| client_budget(10, 4, i)).collect();
        assert_eq!(shares, vec![3, 3, 2, 2]);
        assert_eq!(shares.iter().sum::<usize>(), 10);
        assert_eq!(client_budget(2, 4, 3), 0);
    }

    #[test]
    fn threaded_and_streaming_drivers_draw_identical_traces() {
        let load = LoadgenConfig {
            mode: LoadMode::Open { rps: 1000.0 },
            clients: 3,
            requests: 50,
            horizon_ns: None,
            slo_ns: None,
            seed: 7,
            stream: true,
        };
        for idx in 0..load.clients {
            let rate = 1000.0 / load.clients as f64;
            // Threaded formula, inlined.
            let mut rng = client_rng(load.seed, idx);
            let mut clock = 0.0f64;
            let threaded: Vec<u64> = (0..client_budget(load.requests, load.clients, idx))
                .map(|_| {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    clock += -(1.0 - u).ln() / rate * 1e9;
                    clock as u64
                })
                .collect();
            // Streaming draw loop.
            let mut arrivals = Vec::new();
            let mut rng = client_rng(load.seed, idx);
            let mut clock = 0.0f64;
            for _ in 0..client_budget(load.requests, load.clients, idx) {
                let u: f64 = rng.gen_range(0.0..1.0);
                clock += -(1.0 - u).ln() / rate * 1e9;
                arrivals.push(clock as u64);
            }
            assert_eq!(threaded, arrivals);
        }
    }
}

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
//! # One driver
//!
//! [`drive`] runs the scheduler core on the calling thread, for open and
//! closed loops, functional and model-only servers alike: it submits,
//! heartbeats, runs the core's close loop and drains its outbox, with no
//! scheduler thread or channel in between. On a functional server the
//! core executes each close loop's batches itself, in parallel across
//! replicas (see the `server` module docs).
//!
//! Open-loop traffic is merged across clients in global arrival order,
//! and each client's outstanding window is capped at
//! `2 · partitions · max_batch + 64` requests. A closed-loop client has
//! one request outstanding; its next arrival is the completion of the
//! previous one. When the earliest pending arrival belongs to a
//! window-full client, or no arrival is pending, the driver pumps:
//! it heartbeats every pending arrival, so the scheduler's frontier
//! clears all outstanding work, then runs the close loop and drains the
//! outbox. The window is wide enough that some partition then holds a
//! closable full batch (pigeonhole over `2·max_batch` requests in one
//! former), and with no arrival pending every live client waits on a
//! request in flight, so the frontier is unbounded and every former
//! drains. A pump that resolves nothing would resolve nothing forever:
//! it is returned as [`ServerError::SchedulerFailed`] rather than
//! retried. Memory is O(clients · window), independent of the request
//! budget — the property the CI million-request smoke's RSS ceiling
//! asserts. Batch close instants are trace-deterministic (see
//! [`BatchFormer`](crate::BatchFormer)), so the modeled statistics match
//! a [`Server`](crate::Server) session fed the same traces by one thread
//! per client, bit for bit (asserted in `tests/server_serving.rs`).

use crate::server::{panic_message, ClientMode, ClientSpec, Scheduler, ServerConfig};
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
    /// Ignored: every session runs on the one inline driver (see the
    /// module docs). The field stays so that configurations which set it
    /// keep compiling.
    pub stream: bool,
}

/// Splits the request budget across clients (first `total % clients`
/// clients get one extra).
fn client_budget(total: usize, clients: usize, idx: usize) -> usize {
    total / clients + usize::from(idx < total % clients)
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
/// [`ServerError::SchedulerFailed`] when the scheduler or a chip
/// execution panicked (e.g. in a custom
/// [`AdmissionPolicy`](crate::AdmissionPolicy)), or when the driver
/// stopped making progress.
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
    let max_batch = server_config.max_batch_bound();
    let mut core = Scheduler::new(fleet, server_config, &specs)?;
    // The core, and on a functional server the chips, run on this
    // thread or its scoped helpers, so a panic inside them (say, in a
    // custom admission policy) unwinds here.
    catch_unwind(AssertUnwindSafe(move || {
        run(&mut core, &ctx, max_batch)?;
        Ok(core.finish())
    }))
    .unwrap_or_else(|payload| {
        Err(ServerError::SchedulerFailed {
            message: panic_message(&*payload),
        })
    })
}

/// Everything the driver needs besides the core.
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
}

/// One client's trace.
struct StreamClient {
    rng: StdRng,
    clock: f64,
    /// Next request index (gap draws and input rotation stay aligned
    /// with it).
    k: usize,
    budget: usize,
    /// The next arrival, already known; `None` while a closed-loop
    /// request is in flight and once the trace is exhausted (budget
    /// spent or horizon passed).
    next: Option<u64>,
}

impl StreamClient {
    /// Client `idx`'s trace, with its first arrival drawn: the first
    /// Poisson gap in an open loop, instant 0 in a closed one.
    fn new(load: &LoadgenConfig, idx: usize) -> Self {
        let mut cl = StreamClient {
            rng: StdRng::seed_from_u64(
                load.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(idx as u64 + 1),
            ),
            clock: 0.0,
            k: 0,
            budget: client_budget(load.requests, load.clients, idx),
            next: None,
        };
        match load.mode {
            LoadMode::Open { rps } => cl.draw_next(load, rps / load.clients as f64),
            LoadMode::Closed => cl.resume(load, 0),
        }
        cl
    }

    /// Draws the open-loop arrival of request `k`, or retires the trace.
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

    /// A closed-loop client learns of its previous completion (shed
    /// completions too: the caller learns of the rejection at the
    /// shedding instant) and submits request `k` then, unless its budget
    /// is spent or its clock has passed the horizon.
    fn resume(&mut self, load: &LoadgenConfig, at_ns: u64) {
        let live = self.k < self.budget && load.horizon_ns.is_none_or(|h| at_ns <= h);
        self.next = live.then_some(at_ns);
    }
}

/// The one driver (see the module docs).
fn run(core: &mut Scheduler, ctx: &DriveCtx<'_>, max_batch: usize) -> Result<(), ServerError> {
    let load = ctx.load;
    let rate = match load.mode {
        LoadMode::Open { rps } => Some(rps / load.clients as f64),
        LoadMode::Closed => None,
    };
    let window = 2 * ctx.partitions * max_batch + 64;
    let mut cls: Vec<StreamClient> = (0..load.clients)
        .map(|idx| StreamClient::new(load, idx))
        .collect();
    let mut outstanding = vec![0usize; load.clients];
    for (idx, cl) in cls.iter().enumerate() {
        if cl.next.is_none() {
            core.finish_client(idx);
        }
    }
    loop {
        // Globally earliest pending arrival, lowest client id on ties.
        let earliest = cls
            .iter()
            .enumerate()
            .filter_map(|(i, cl)| cl.next.map(|t| (t, i)))
            .min();
        match earliest {
            Some((arrival, c)) if outstanding[c] < window => {
                let cl = &mut cls[c];
                let k = cl.k;
                cl.k += 1;
                cl.next = None;
                let tenant = ctx.specs[c].tenant;
                let network = ctx.network(c, k);
                let meta = RequestMeta {
                    client: c,
                    tenant,
                    network,
                    seq: k as u64,
                    arrival_ns: arrival,
                    deadline_ns: ctx.deadline(tenant, arrival),
                };
                let input = ctx.functional.then(|| ctx.input(c, k, network));
                core.submit(meta, input);
                outstanding[c] += 1;
                if let Some(rate) = rate {
                    cl.draw_next(load, rate);
                    if cl.next.is_none() {
                        // Retire promptly: a quiet-but-unfinished client
                        // would pin the scheduler's frontier and stall
                        // everyone's batches.
                        core.finish_client(c);
                    }
                }
            }
            _ if outstanding.iter().any(|&n| n > 0) => {
                pump(core, load, &mut cls, &mut outstanding)?
            }
            _ => return Ok(()),
        }
    }
}

/// Promises every pending arrival to the core, runs its close loop and
/// drains its outbox. The heartbeats have told the core everything the
/// driver knows, so a pump that resolves nothing would resolve nothing
/// forever — an error, not a retry.
fn pump(
    core: &mut Scheduler,
    load: &LoadgenConfig,
    cls: &mut [StreamClient],
    outstanding: &mut [usize],
) -> Result<(), ServerError> {
    for (i, cl) in cls.iter().enumerate() {
        if let Some(t) = cl.next {
            core.advance(i, t);
        }
    }
    core.close_ready();
    let closed = load.mode == LoadMode::Closed;
    let mut resolved = 0usize;
    for completion in core.outbox() {
        let c = completion.meta.client;
        outstanding[c] -= 1;
        resolved += 1;
        if closed {
            cls[c].resume(load, completion.timing.completion_ns);
        }
    }
    if resolved == 0 {
        return Err(ServerError::SchedulerFailed {
            message: format!(
                "the driver made no progress: {} requests outstanding and no batch can close",
                outstanding.iter().sum::<usize>()
            ),
        });
    }
    if closed {
        // A closed-loop client whose last request came back is done.
        for (i, cl) in cls.iter().enumerate() {
            if cl.next.is_none() && outstanding[i] == 0 {
                core.finish_client(i);
            }
        }
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

    /// The driver's own per-client draws reproduce the seed stream and
    /// gap formula, inlined here, that every committed open-loop
    /// baseline was recorded with.
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
        let rate = 1000.0 / load.clients as f64;
        for idx in 0..load.clients {
            let budget = client_budget(load.requests, load.clients, idx);
            // The formula, inlined.
            let mut rng =
                StdRng::seed_from_u64(7 ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(idx as u64 + 1));
            let mut clock = 0.0f64;
            let expected: Vec<u64> = (0..budget)
                .map(|_| {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    clock += -(1.0 - u).ln() / rate * 1e9;
                    clock as u64
                })
                .collect();
            // The driver's draws, one per submitted request.
            let mut cl = StreamClient::new(&load, idx);
            let mut drawn = Vec::new();
            while let Some(t) = cl.next {
                drawn.push(t);
                cl.k += 1;
                cl.draw_next(&load, rate);
            }
            assert_eq!(drawn, expected, "client {idx}");
        }
    }
}

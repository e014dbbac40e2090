//! The online serving engine: per-partition dynamic micro-batch formers
//! → SLO-aware tenant admission → replicas, with optional virtual-clock
//! autoscaling.
//!
//! # Core and shell
//!
//! ```text
//!               submit · advance · finish_client · close_ready
//! driver ─────────────────────────────────────────────▶ Scheduler (core)
//!    ▲                                                       │
//!    └── outbox: Completion, addressed by meta.client ◀──────┘
//!
//! close_ready: close and commit every final batch (a functional batch
//! queues on its replica), then run each replica's queue in dispatch
//! order, replicas in parallel on scoped threads
//!
//! drive: the driver is the calling thread — no shell, no channels
//!
//! Server::start, the shell (external clients):
//!
//! clients ──(MPSC: Submit/Advance/Done)──▶ shell thread ⇄ core
//!    ▲                                       │
//!    └──(Completion, per client channel)◀────┘
//! ```
//!
//! The **core** (`Scheduler`) owns the virtual clock and does no I/O: its
//! driver hands it client events as method calls and drains the
//! completions it queues. It merges per-client request streams in
//! `(arrival, client, seq)` order, routes each request to its target
//! **partition** (resident network), closes micro-batches through one
//! [`BatchFormer`] per partition (never finalizing a batch a future
//! arrival could still change — see the former's module docs), runs the
//! partition's forked [`AdmissionPolicy`] at dispatch with that chip's
//! modeled service law, and charges each executed batch the pipelined
//! schedule `fill + (B-1)·steady` on the virtual clock. Shed requests
//! cost zero chip time and are answered through the outbox. On a
//! functional server each admitted batch queues on its **replica**, and
//! the close loop ends by executing every queue
//! (`Chip::run_batched_with_scratch_at`, bit-exact against the
//! sequential golden path): in dispatch order per replica, the replicas
//! in parallel on scoped threads, their outputs appended to the outbox in
//! replica order. Completions are stamped at dispatch, so virtual-time
//! bookkeeping never depends on host execution. In model-only mode
//! ([`ServerConfig::model_only`]) the core charges each batch in place
//! and answers [`Outcome::Modeled`] through the outbox — every
//! virtual-clock figure is unchanged, and with no chip work the load
//! generator sustains 10⁶-request runs on one thread.
//!
//! Because every latency figure derives from the virtual clock, a
//! serving session's statistics are a deterministic function of the
//! request trace — independent of how a shell's client threads
//! interleave — which is what makes the committed `BENCH_loadgen.json`
//! baselines and the CI bench-gate assertions reproducible. Stateful admission and
//! autoscaling keep that property by scoping their state per partition:
//! each partition's decision sequence is deterministic even though
//! cross-partition dispatch interleaving is not.
//!
//! # One commit path, one ledger
//!
//! Every formed batch takes `Scheduler::commit`, with or without a fault
//! plan: admission for the whole batch in batch order, then (only with a
//! plan armed) the crash lookahead, then one pass recording each request
//! as served, shed, or orphaned by the crash. Orphans are re-queued,
//! hedged to a sibling as a solo full-precision batch, or shed as
//! `replica-lost`. `record_served`, `record_shed` and
//! `Ledger::record_batch` are the only writers of one ledger, kept per
//! partition: a `Cell` per tenant (offered, served, shed and SLO-miss
//! counts, served by tier, sheds by reason, and the queue-wait, execute,
//! total and shed-wait histograms), the per-replica batch charge, the
//! images executed per tier, and the fault counts. Everything else is a
//! view of it: `finish` folds the cells into the session, partition and
//! tenant reports, and `PartitionState::publish` raises the registry
//! counters to the ledger totals just before each scrape pump and once at
//! session end, so the report, the Prometheus export and the scraped
//! series cannot disagree.

use crate::autoscale::Autoscaler;
use crate::brownout::{BrownoutConfig, BrownoutController, BrownoutEvent};
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::former::{BatchFormer, FormedBatch};
use crate::health::{HealthConfig, ReplicaState, Witness};
use crate::policy::{AdmissionPolicy, Fifo, ServiceEstimate, ShedReason};
use crate::report::{AlertReport, PartitionReport, ReplicaReport, ServerReport, TenantReport};
use crate::request::{ClientId, Completion, Outcome, RequestMeta, RequestTiming};
use crate::tenant::{TenantClass, TenantId};
use crate::{AutoscaleConfig, ChipFleet, ScaleEvent, ServerError};
use red_arch::{CostModel, PipelineReport};
use red_device::DriftModel;
use red_runtime::{Chip, ChipScratch, ExecPrecision, HardwarePerImage};
use red_telemetry::{
    AlertEngine, AlertPolicy, AlertState, AlertTransition, AlertWindow, ArgValue, Counter, Gauge,
    LatencyHistogram, Phase, ScrapeConfig, Scraper, Telemetry, TenantWindow, TraceEvent,
    WindowSnapshot,
};
use red_tensor::FeatureMap;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Scheduler tuning: batch former bounds, admission policy, tenant
/// classes, autoscaling, and the functional/model-only switch.
#[derive(Clone)]
pub struct ServerConfig {
    max_batch: usize,
    max_wait_ns: u64,
    policy: Arc<dyn AdmissionPolicy>,
    tenants: Vec<TenantClass>,
    autoscale: Option<AutoscaleConfig>,
    brownout: Option<BrownoutConfig>,
    functional: bool,
    telemetry: Telemetry,
    fault_plan: Option<FaultPlan>,
    health: HealthConfig,
    scrape: Option<ScrapeConfig>,
}

impl ServerConfig {
    /// Defaults: `max_batch` 8, `max_wait` 0 (batch only what arrives
    /// together), [`Fifo`] admission, one default tenant class, no
    /// autoscaling, functional execution.
    pub fn new() -> Self {
        Self {
            max_batch: 8,
            max_wait_ns: 0,
            policy: Arc::new(Fifo),
            tenants: vec![TenantClass::default()],
            autoscale: None,
            brownout: None,
            functional: true,
            telemetry: Telemetry::disabled(),
            fault_plan: None,
            health: HealthConfig::default(),
            scrape: None,
        }
    }

    /// Sets the batch-size bound.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn max_batch(mut self, n: usize) -> Self {
        assert!(n > 0, "max_batch must be positive");
        self.max_batch = n;
        self
    }

    /// Sets the forming-window bound, in virtual ns.
    pub fn max_wait_ns(mut self, ns: u64) -> Self {
        self.max_wait_ns = ns;
        self
    }

    /// Sets the admission policy (forked once per fleet partition).
    pub fn policy(mut self, policy: impl AdmissionPolicy + 'static) -> Self {
        self.policy = Arc::new(policy);
        self
    }

    /// Sets an already-shared admission policy (e.g. from
    /// [`crate::policy_for`]).
    pub fn policy_arc(mut self, policy: Arc<dyn AdmissionPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Declares the tenant classes clients may register under.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty.
    pub fn tenants(mut self, classes: Vec<TenantClass>) -> Self {
        assert!(
            !classes.is_empty(),
            "a server needs at least one tenant class"
        );
        self.tenants = classes;
        self
    }

    /// Enables per-partition replica autoscaling.
    pub fn autoscale(mut self, cfg: AutoscaleConfig) -> Self {
        self.autoscale = Some(cfg);
        self
    }

    /// Enables per-partition brownout control: under overload or lost
    /// capacity the partition steps its execution tier
    /// `Full → Eco → Brownout` ([`ExecPrecision`]) instead of only
    /// shedding, trading a bounded output error for proportionally
    /// cheaper batches. Tenants cap the degradation via
    /// [`TenantClass::precision_floor`]. Strictly opt-in — without this
    /// call every batch runs at full precision and the dispatch path is
    /// byte-identical to earlier builds.
    pub fn brownout(mut self, cfg: BrownoutConfig) -> Self {
        self.brownout = Some(cfg);
        self
    }

    /// Arms a deterministic fault plan: the scheduler injects the
    /// plan's crashes, stalls, drift advances, and stuck-at strikes on
    /// the virtual clock, runs the canary prober, and self-heals via
    /// the [`ReplicaState`] machine. Strictly opt-in — with no plan no
    /// fault, probe or crash lookahead runs on the shared commit path.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Tunes the canary prober and self-healing loop (only read when a
    /// [`ServerConfig::fault_plan`] is armed).
    pub fn health(mut self, cfg: HealthConfig) -> Self {
        self.health = cfg;
        self
    }

    /// Attaches a telemetry handle: the scheduler records per-request
    /// lifecycle spans, batch/stage execute spans, scale instants, and
    /// the per-tenant/per-partition metrics plane into it. The default
    /// disabled handle costs one branch per would-be record. Every
    /// recorded timestamp is virtual-clock, and all emission happens in
    /// the scheduler core, into per-partition streams, so the exported
    /// trace is a deterministic function of the request trace.
    pub fn telemetry(mut self, handle: Telemetry) -> Self {
        self.telemetry = handle;
        self
    }

    /// Arms the windowed time-series scraper: each partition snapshots
    /// its metric registry on the virtual clock at the configured
    /// interval, driven from the scheduler's batch-close pump so scrape
    /// instants — and everything derived from them — are a pure
    /// function of the request trace. Scraping feeds the alert engine
    /// (running [`AlertPolicy::default`]), emits Chrome-trace `"C"` counter
    /// tracks interleaved with the request spans, and publishes the
    /// per-window series for the JSON reports. Only effective when a
    /// telemetry handle is attached ([`ServerConfig::telemetry`]);
    /// strictly opt-in — without this call the dispatch path is
    /// byte-identical to a scrape-free build.
    pub fn scrape(mut self, cfg: ScrapeConfig) -> Self {
        self.scrape = Some(cfg);
        self
    }

    /// Skips functional execution: the scheduler core charges the
    /// modeled schedule itself and answers [`Outcome::Modeled`], so no
    /// replica chip, scratch or execution thread is set up. Virtual-clock
    /// statistics are identical to a functional run over the same trace
    /// (asserted in `tests/server_serving.rs`); host cost drops by the
    /// chip simulation, which is what makes 10⁶-request load runs
    /// feasible.
    pub fn model_only(mut self) -> Self {
        self.functional = false;
        self
    }

    /// The configured batch-size bound.
    pub fn max_batch_bound(&self) -> usize {
        self.max_batch
    }

    /// The configured tenant classes.
    pub fn tenant_classes(&self) -> &[TenantClass] {
        &self.tenants
    }

    /// `false` when the server runs model-only.
    pub fn is_functional(&self) -> bool {
        self.functional
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("max_batch", &self.max_batch)
            .field("max_wait_ns", &self.max_wait_ns)
            .field("policy", &self.policy.name())
            .field("tenants", &self.tenants.len())
            .field("autoscale", &self.autoscale)
            .field("brownout", &self.brownout)
            .field("functional", &self.functional)
            .field("telemetry", &self.telemetry.is_enabled())
            .field("fault_plan", &self.fault_plan.as_ref().map(FaultPlan::len))
            .field("health", &self.health)
            .field("scrape", &self.scrape)
            .finish()
    }
}

/// How a client interacts with the server — the scheduler needs to know
/// to merge request streams deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientMode {
    /// Fire-and-forget: submits whenever its trace says, regardless of
    /// completions (open-loop load).
    Open,
    /// One request outstanding: submits only after receiving the
    /// previous completion, at or after its virtual completion time
    /// (closed-loop load).
    Closed,
}

/// One client's registration: its loop mode plus the tenant class its
/// requests are accounted (and admission-differentiated) under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientSpec {
    /// Open- or closed-loop interaction.
    pub mode: ClientMode,
    /// Tenant class index into [`ServerConfig::tenants`].
    pub tenant: TenantId,
}

impl ClientSpec {
    /// An open-loop client of the given tenant.
    pub fn open(tenant: TenantId) -> Self {
        Self {
            mode: ClientMode::Open,
            tenant,
        }
    }

    /// A closed-loop client of the given tenant.
    pub fn closed(tenant: TenantId) -> Self {
        Self {
            mode: ClientMode::Closed,
            tenant,
        }
    }
}

impl From<ClientMode> for ClientSpec {
    /// A bare mode registers under tenant 0 — the single-tenant
    /// convenience that keeps `Server::start(&fleet, &config,
    /// &[ClientMode::Closed])` working.
    fn from(mode: ClientMode) -> Self {
        Self { mode, tenant: 0 }
    }
}

/// What client handles send to the shell thread, which applies each one
/// to the scheduler core.
enum Event {
    Submit {
        meta: RequestMeta,
        input: Option<FeatureMap<i64>>,
    },
    /// A watermark heartbeat: the client promises to submit nothing
    /// before the given virtual instant.
    Advance(ClientId, u64),
    Done(ClientId),
}

/// A client's handle to a running [`Server`]: submit requests, receive
/// [`Completion`]s.
///
/// Dropping the handle (or calling [`ClientHandle::finish`]) tells the
/// server this client will submit no more requests — required for the
/// server to drain and shut down.
///
/// **Liveness contract:** deterministic virtual-time batching means the
/// scheduler will not finalize a batch that a still-active client could
/// preempt with an earlier-timestamped request. An [`ClientMode::Open`]
/// client must therefore keep submitting, [`advance`] its watermark, or
/// [`finish`] before blocking on [`recv`] — a client that silently goes
/// quiet stalls batch forming for everyone. [`ClientMode::Closed`]
/// clients are exempt while a request is in flight (the scheduler knows
/// they cannot submit), which is what makes
/// [`call`](ClientHandle::call) safe. When blocking is not an option,
/// poll with [`try_recv`] or bound the wait with [`recv_timeout`] —
/// both return instead of deadlocking, so a client that forgot to
/// heartbeat gets an error path rather than a hang.
///
/// [`advance`]: ClientHandle::advance
/// [`finish`]: ClientHandle::finish
/// [`recv`]: ClientHandle::recv
/// [`try_recv`]: ClientHandle::try_recv
/// [`recv_timeout`]: ClientHandle::recv_timeout
#[derive(Debug)]
pub struct ClientHandle {
    id: ClientId,
    tenant: TenantId,
    seq: u64,
    last_arrival_ns: u64,
    expected_shapes: Arc<Vec<(usize, usize, usize)>>,
    functional: bool,
    events: Sender<Event>,
    completions: Receiver<Completion>,
    done: bool,
}

impl ClientHandle {
    /// This client's id (index into the client slice given to
    /// [`Server::start`]).
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// This client's tenant class index.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Submits a request to partition 0 — the whole fleet, for
    /// single-network fleets. See [`ClientHandle::submit_to`].
    ///
    /// # Errors
    ///
    /// As [`ClientHandle::submit_to`].
    pub fn submit(
        &mut self,
        input: FeatureMap<i64>,
        arrival_ns: u64,
        deadline_ns: Option<u64>,
    ) -> Result<RequestMeta, ServerError> {
        self.submit_to(0, input, arrival_ns, deadline_ns)
    }

    /// Submits a request for the network resident on fleet partition
    /// `network`, arriving at virtual time `arrival_ns` with an
    /// optional absolute deadline. Arrivals must be nondecreasing per
    /// client; a too-early stamp is clamped to the client's frontier
    /// (its last arrival or [`advance`](ClientHandle::advance)
    /// watermark here, and additionally its last virtual completion on
    /// the scheduler side for closed-loop clients). Returns the
    /// request's final metadata.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownNetwork`] for an out-of-range partition;
    /// [`ServerError::InputMismatch`] for a wrong-shaped input;
    /// [`ServerError::Disconnected`] after [`ClientHandle::finish`] or
    /// server shutdown.
    pub fn submit_to(
        &mut self,
        network: usize,
        input: FeatureMap<i64>,
        arrival_ns: u64,
        deadline_ns: Option<u64>,
    ) -> Result<RequestMeta, ServerError> {
        let expected = *self
            .expected_shapes
            .get(network)
            .ok_or(ServerError::UnknownNetwork {
                network,
                partitions: self.expected_shapes.len(),
            })?;
        let actual = (input.height(), input.width(), input.channels());
        if actual != expected {
            return Err(ServerError::InputMismatch { expected, actual });
        }
        self.send_submit(network, Some(input), arrival_ns, deadline_ns)
    }

    /// Submits an input-less request on a model-only server (the
    /// functional payload would never be executed; skipping it keeps a
    /// high-rate client free of per-request tensor clones).
    ///
    /// # Errors
    ///
    /// [`ServerError::NeedsInput`] on a functional server;
    /// [`ServerError::UnknownNetwork`] / [`ServerError::Disconnected`]
    /// as [`ClientHandle::submit_to`].
    pub fn submit_modeled(
        &mut self,
        network: usize,
        arrival_ns: u64,
        deadline_ns: Option<u64>,
    ) -> Result<RequestMeta, ServerError> {
        if self.functional {
            return Err(ServerError::NeedsInput);
        }
        if network >= self.expected_shapes.len() {
            return Err(ServerError::UnknownNetwork {
                network,
                partitions: self.expected_shapes.len(),
            });
        }
        self.send_submit(network, None, arrival_ns, deadline_ns)
    }

    fn send_submit(
        &mut self,
        network: usize,
        input: Option<FeatureMap<i64>>,
        arrival_ns: u64,
        deadline_ns: Option<u64>,
    ) -> Result<RequestMeta, ServerError> {
        if self.done {
            return Err(ServerError::Disconnected);
        }
        let arrival = arrival_ns.max(self.last_arrival_ns);
        let meta = RequestMeta {
            client: self.id,
            tenant: self.tenant,
            network,
            seq: self.seq,
            arrival_ns: arrival,
            deadline_ns,
        };
        self.events
            .send(Event::Submit { meta, input })
            .map_err(|_| ServerError::Disconnected)?;
        self.seq += 1;
        self.last_arrival_ns = arrival;
        Ok(meta)
    }

    /// Promises the scheduler this client will submit nothing before
    /// virtual instant `watermark_ns` — a heartbeat that lets batches
    /// below the watermark close without this client submitting or
    /// finishing. An open-loop client sends one before blocking on
    /// completions while its trace goes on; no-op when the watermark
    /// does not advance.
    ///
    /// # Errors
    ///
    /// [`ServerError::Disconnected`] after [`ClientHandle::finish`] or
    /// server shutdown.
    pub fn advance(&mut self, watermark_ns: u64) -> Result<(), ServerError> {
        if self.done {
            return Err(ServerError::Disconnected);
        }
        if watermark_ns <= self.last_arrival_ns {
            return Ok(());
        }
        self.events
            .send(Event::Advance(self.id, watermark_ns))
            .map_err(|_| ServerError::Disconnected)?;
        self.last_arrival_ns = watermark_ns;
        Ok(())
    }

    /// Blocks for the next completion addressed to this client.
    ///
    /// # Errors
    ///
    /// [`ServerError::Disconnected`] when the server is gone and no
    /// completion is queued.
    pub fn recv(&self) -> Result<Completion, ServerError> {
        self.completions
            .recv()
            .map_err(|_| ServerError::Disconnected)
    }

    /// Non-blocking poll for the next completion: `Ok(None)` when
    /// nothing is queued yet. The liveness-safe alternative to
    /// [`recv`](ClientHandle::recv) for clients that interleave
    /// submission and collection without heartbeating.
    ///
    /// # Errors
    ///
    /// [`ServerError::Disconnected`] when the server is gone and no
    /// completion is queued.
    pub fn try_recv(&self) -> Result<Option<Completion>, ServerError> {
        use std::sync::mpsc::TryRecvError;
        match self.completions.try_recv() {
            Ok(c) => Ok(Some(c)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(ServerError::Disconnected),
        }
    }

    /// Blocks up to `timeout` (host time) for the next completion:
    /// `Ok(None)` on timeout. Bounds the wait where
    /// [`recv`](ClientHandle::recv) would deadlock a client that
    /// stalled batch forming by going quiet.
    ///
    /// # Errors
    ///
    /// [`ServerError::Disconnected`] when the server is gone and no
    /// completion is queued.
    pub fn recv_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<Option<Completion>, ServerError> {
        use std::sync::mpsc::RecvTimeoutError;
        match self.completions.recv_timeout(timeout) {
            Ok(c) => Ok(Some(c)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(ServerError::Disconnected),
        }
    }

    /// Closed-loop convenience: [`submit`](ClientHandle::submit) then
    /// [`recv`](ClientHandle::recv).
    ///
    /// # Errors
    ///
    /// As `submit` and `recv`.
    pub fn call(
        &mut self,
        input: FeatureMap<i64>,
        arrival_ns: u64,
        deadline_ns: Option<u64>,
    ) -> Result<Completion, ServerError> {
        self.submit(input, arrival_ns, deadline_ns)?;
        self.recv()
    }

    /// Declares this client finished (no more submissions). Idempotent;
    /// also called on drop. Completions can still be received afterward.
    pub fn finish(&mut self) {
        if !self.done {
            self.done = true;
            let _ = self.events.send(Event::Done(self.id));
        }
    }
}

impl Drop for ClientHandle {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Scheduler-side client bookkeeping (see the module docs).
struct ClientState {
    mode: ClientMode,
    done: bool,
    in_flight: u64,
    watermark_ns: u64,
}

/// One request riding to a replica.
struct ExecItem {
    meta: RequestMeta,
    timing: RequestTiming,
}

/// One admitted batch for a replica (`inputs[i]` belongs to `items[i]`;
/// `inputs` is empty on a model-only server). The core stamps the
/// execution tier it priced the batch at; the replica executes (and
/// re-derives its charge) at the same tier.
struct ExecBatch {
    inputs: Vec<FeatureMap<i64>>,
    items: Vec<ExecItem>,
    tier: ExecPrecision,
}

/// One replica's side of the reconciliation ledger: re-derived from
/// each executed batch by [`Replica::execute`] on a functional server,
/// charged by the core from the chip's analytic schedule on a model-only
/// one ([`PartitionState::charge_modeled`]).
#[derive(Default)]
struct ReplicaStats {
    runtime_modeled_ns: u64,
    host_ns: u128,
    unreconciled: u64,
    failed: u64,
    first_error: Option<String>,
    /// Largest elementwise deviation any degraded batch's outputs
    /// showed against a full-precision double-run of the same inputs
    /// (functional mode only; 0 when every batch ran at full tier).
    max_observed_error: f64,
    /// Largest advertised worst-case bound among the tiers this
    /// replica actually executed at.
    error_bound: f64,
}

/// One replica of a functional server: its chip, the working memory its
/// batches reuse, and the batches dispatched to it since the last
/// execution pass of [`Scheduler::close_ready`].
struct Replica {
    chip: Chip,
    /// The chip's analytic schedule, which every measured batch report
    /// must reconcile with.
    analytic: PipelineReport,
    scratch: ChipScratch,
    /// The full-precision reference scratch for degraded batches; built
    /// on first use so brownout-free sessions pay nothing.
    golden: Option<ChipScratch>,
    /// Batches in dispatch order.
    queue: Vec<ExecBatch>,
}

impl Replica {
    /// Executes one batch through [`Chip::run_batched_with_scratch_at`]
    /// at the batch's brownout tier, answers each request into `deliver`,
    /// and re-derives the core's virtual charge from the *measured*
    /// `RuntimeReport` for [`ServerReport::reconciles`] — the measured
    /// schedule is value-independent, so a degraded batch scales the
    /// measured fill and bottleneck by the same [`Chip::phase_ratio`] the
    /// core priced it with. A degraded batch is also re-run at full
    /// precision against the golden scratch to meter the session's worst
    /// *observed* output error against the advertised
    /// [`Chip::truncation_error_bound`].
    fn execute(
        &mut self,
        batch: ExecBatch,
        stats: &mut ReplicaStats,
        deliver: &mut Vec<Completion>,
    ) {
        let chip = &self.chip;
        match chip.run_batched_with_scratch_at(&batch.inputs, &mut self.scratch, batch.tier) {
            Ok(run) => {
                let b = batch.inputs.len() as u64;
                // The measured pipelined charge: fill is the measured
                // stage-latency sum; the steady interval is the measured
                // bottleneck stage (the Batched-mode report keeps
                // per-stage latencies even though its own schedule is
                // sequential). Metering is value-independent, so the
                // degraded tier reprices through the phase ratio exactly
                // as the scheduler did.
                let ratio = chip.phase_ratio(batch.tier);
                let fill = (run.report.fill_latency_ns * ratio).round() as u64;
                let bottleneck = (run
                    .report
                    .stages
                    .iter()
                    .map(|s| s.latency_ns)
                    .fold(0.0, f64::max)
                    * ratio)
                    .round() as u64;
                stats.runtime_modeled_ns += fill + (b - 1) * bottleneck;
                if !run.report.reconciles_with(&self.analytic) {
                    stats.unreconciled += 1;
                }
                stats.host_ns += run.report.wall_ns;
                if batch.tier != ExecPrecision::Full {
                    stats.error_bound = stats
                        .error_bound
                        .max(chip.truncation_error_bound(batch.tier));
                    let reference = self.golden.get_or_insert_with(|| chip.make_scratch());
                    if let Ok(exact) = chip.run_batched_with_scratch(&batch.inputs, reference) {
                        for (deg, full) in run.outputs.iter().zip(&exact.outputs) {
                            for (&d, &x) in deg.as_slice().iter().zip(full.as_slice()) {
                                stats.max_observed_error =
                                    stats.max_observed_error.max((d - x).abs() as f64);
                            }
                        }
                    }
                }
                deliver.extend(
                    batch
                        .items
                        .into_iter()
                        .zip(run.outputs)
                        .map(|(item, output)| Completion {
                            meta: item.meta,
                            timing: item.timing,
                            outcome: Outcome::Served(output),
                        }),
                );
            }
            Err(e) => {
                stats.failed += batch.items.len() as u64;
                if stats.first_error.is_none() {
                    stats.first_error = Some(e.to_string());
                }
                deliver.extend(batch.items.into_iter().map(|item| Completion {
                    meta: item.meta,
                    timing: item.timing,
                    outcome: Outcome::Failed,
                }));
            }
        }
    }
}

/// A pending request's functional input (`None` on a model-only server).
type Payload = Option<FeatureMap<i64>>;

/// One (partition, tenant) cell of the session ledger: every count the
/// scheduler keeps about request fates. Past the offered count at
/// [`Scheduler::submit`], [`Scheduler::record_served`] and
/// [`Scheduler::record_shed`] are its only writers; the reports, the
/// registry counters and the scrape series are folds of cells.
#[derive(Default)]
struct Cell {
    offered: u64,
    served: u64,
    shed: u64,
    /// Served requests whose end-to-end latency exceeded their tenant's
    /// SLO (best-effort tenants never miss).
    slo_miss: u64,
    /// Served requests by [`ExecPrecision::index`].
    served_by_tier: [u64; 3],
    /// Sheds by [`ShedReason::index`].
    sheds_by_reason: [u64; ShedReason::ALL.len()],
    queue_wait: LatencyHistogram,
    execute: LatencyHistogram,
    total: LatencyHistogram,
    /// Wait absorbed by shed requests before rejection.
    shed_wait: LatencyHistogram,
}

impl Cell {
    /// The fold of `cells`: exact, since counts add and
    /// [`LatencyHistogram::merge`] adds bucket by bucket.
    fn sum<'a>(cells: impl IntoIterator<Item = &'a Cell>) -> Cell {
        let mut acc = Cell::default();
        for c in cells {
            acc.offered += c.offered;
            acc.served += c.served;
            acc.shed += c.shed;
            acc.slo_miss += c.slo_miss;
            add(&mut acc.served_by_tier, &c.served_by_tier);
            add(&mut acc.sheds_by_reason, &c.sheds_by_reason);
            acc.queue_wait.merge(&c.queue_wait);
            acc.execute.merge(&c.execute);
            acc.total.merge(&c.total);
            acc.shed_wait.merge(&c.shed_wait);
        }
        acc
    }
}

/// Adds `x` into `acc` elementwise.
fn add(acc: &mut [u64], x: &[u64]) {
    for (a, v) in acc.iter_mut().zip(x) {
        *a += v;
    }
}

/// A partition's fault-plan counts, in [`FAULT_SERIES`] order.
#[derive(Clone, Copy, Default)]
struct Faults {
    injected: u64,
    reprograms: u64,
    retries: u64,
    hedges: u64,
}

/// One partition's share of the session ledger (see the module docs).
struct Ledger {
    /// Request fates, by tenant.
    cells: Vec<Cell>,
    /// The batch charge per replica: `(batches, images, busy_ns)`.
    per_replica: Vec<(u64, u64, u64)>,
    /// Executed batch sizes (recorded as "latencies" of B ns).
    batch_sizes: LatencyHistogram,
    /// Images executed per tier, by [`ExecPrecision::index`]: what the
    /// hardware counters are priced from.
    images_by_tier: [u64; 3],
    faults: Faults,
}

impl Ledger {
    /// Charges a `b`-image batch at `tier`, `makespan` long, to replica
    /// `r` — the only writer of the batch charge.
    fn record_batch(&mut self, r: usize, b: u64, makespan: u64, tier: ExecPrecision) {
        let (batches, images, busy_ns) = &mut self.per_replica[r];
        *batches += 1;
        *images += b;
        *busy_ns += makespan;
        self.batch_sizes.record(b);
        self.images_by_tier[tier.index()] += b;
    }

    /// `(batches, busy_ns)` charged across the partition's replicas.
    fn charged(&self) -> (u64, u64) {
        self.per_replica
            .iter()
            .fold((0, 0), |(b, busy), &(rb, _, rbusy)| (b + rb, busy + rbusy))
    }

    /// Images executed, then the five [`HardwarePerImage`] counters:
    /// each tier's exact per-image integers times the images executed
    /// at that tier. In [`HARDWARE_SERIES`] order.
    fn hardware(&self, price: &[TierPrice; 3]) -> [u64; 6] {
        let mut out = [0; 6];
        for (tp, &n) in price.iter().zip(&self.images_by_tier) {
            let hw = tp.hw.scaled(n);
            let row = [
                n,
                hw.crossbar_activations,
                hw.bit_phase_sweeps,
                hw.plane_row_adds,
                hw.adc_quantizations,
                hw.energy_fj,
            ];
            add(&mut out, &row);
        }
        out
    }
}

/// One execution tier's batch pricing: the chip's analytic fill and
/// steady interval scaled by the tier's live-phase ratio (1.0 at full
/// precision — a bit-exact multiply, so full-tier batches price exactly
/// as a brownout-free session), and its per-image hardware counters.
#[derive(Clone, Copy)]
struct TierPrice {
    fill_ns: u64,
    steady_ns: u64,
    /// Live-over-full phase ratio, for scaling the tracer's analytic
    /// per-stage spans.
    ratio: f64,
    hw: HardwarePerImage,
}

impl TierPrice {
    /// The pipelined makespan `fill + (b-1)·steady` of a `b`-image
    /// batch (`b ≥ 1`).
    fn makespan(&self, b: u64) -> u64 {
        self.fill_ns + (b - 1) * self.steady_ns
    }
}

/// A registry counter bound to one ledger total. [`Bound::publish`]
/// adds what the ledger gained since the last publish, so a counter
/// moves only at publish instants, and a telemetry handle shared by
/// successive sessions still sums them.
struct Bound {
    counter: Counter,
    published: u64,
}

impl Bound {
    fn new(counter: Counter) -> Self {
        Self {
            counter,
            published: 0,
        }
    }

    fn publish(&mut self, total: u64) {
        if total > self.published {
            self.counter.add(total - self.published);
            self.published = total;
        }
    }
}

/// Publishes `totals` into `bounds`, pairwise.
fn publish_all(bounds: &mut [Bound], totals: impl IntoIterator<Item = u64>) {
    for (b, total) in bounds.iter_mut().zip(totals) {
        b.publish(total);
    }
}

/// Per-tenant counters: registry name, help, scrape chart — in
/// `[served, shed, slo_miss]` order.
const TENANT_SERIES: [(&str, &str, &str); 3] = [
    (
        "red_requests_served_total",
        "Requests admitted and served",
        "served",
    ),
    (
        "red_requests_shed_total",
        "Requests denied by admission control",
        "shed",
    ),
    (
        "red_slo_miss_total",
        "Served requests that exceeded their tenant's latency SLO",
        "slo_miss",
    ),
];

/// Per-partition hardware counters (registry name, help), in
/// [`Ledger::hardware`] order.
const HARDWARE_SERIES: [(&str, &str); 6] = [
    ("red_images_total", "Images executed"),
    (
        "red_xbar_activations_total",
        "Crossbar vector-operation activations issued",
    ),
    (
        "red_bit_phase_sweeps_total",
        "Bit-serial input phases swept across activations",
    ),
    (
        "red_plane_row_adds_total",
        "Non-zero wordline row-current adds",
    ),
    (
        "red_adc_quantizations_total",
        "ADC integrate-and-fire conversions",
    ),
    (
        "red_energy_femtojoules_total",
        "Modeled execution energy in femtojoules",
    ),
];

/// Fault-plan counters: registry name, help, scrape key — in [`Faults`]
/// order.
const FAULT_SERIES: [(&str, &str, &str); 4] = [
    (
        "red_faults_injected_total",
        "Fault-plan events injected",
        "injected",
    ),
    (
        "red_reprograms_total",
        "Replica crossbar re-programming repairs",
        "reprograms",
    ),
    (
        "red_retries_total",
        "Requests re-queued after losing their replica mid-batch",
        "retries",
    ),
    (
        "red_hedges_total",
        "Requests hedged to a sibling replica",
        "hedges",
    ),
];

/// A partition's registry handles (all no-ops when telemetry is
/// disabled), bound once by [`PartitionMetrics::bind`]. The counters
/// are written only by [`PartitionState::publish`]; the gauges are set
/// at decision and scrape instants.
struct PartitionMetrics {
    /// [`TENANT_SERIES`], by tenant.
    tenant: Vec<[Bound; 3]>,
    /// `red_sheds_total`, by [`ShedReason::index`].
    sheds_by_reason: Vec<Bound>,
    /// `red_requests_served_by_tier_total`, by [`ExecPrecision::index`].
    served_by_tier: Vec<Bound>,
    /// [`HARDWARE_SERIES`].
    hardware: Vec<Bound>,
    /// [`FAULT_SERIES`].
    faults: Vec<Bound>,
    replicas_active: Gauge,
    /// Current execution tier as [`ExecPrecision::index`] (0 = full).
    precision_tier: Gauge,
    /// Modeled backlog ahead of the newest dispatch, in virtual ns
    /// (refreshed at scrape-pump instants).
    backlog_ns: Gauge,
    /// Replicas the dispatch may currently route to — active minus
    /// quarantined/reprogramming.
    replicas_routable: Gauge,
}

/// One fire-order alert episode under construction (becomes an
/// [`AlertReport`] at shutdown).
struct AlertEpisode {
    rule: &'static str,
    tenant: Option<usize>,
    fired_at_ns: u64,
    resolved_at_ns: Option<u64>,
    value: f64,
}

/// Per-partition observability plane, armed by [`ServerConfig::scrape`]:
/// the windowed registry [`Scraper`], the [`AlertEngine`] consuming its
/// window sequence, the scraper series ids that assemble each
/// [`AlertWindow`], and the pre-bound `red_alerts_fired_total` handles.
/// Everything here is pumped from the scheduler's batch-close loop on
/// the virtual clock, so scrape windows, alert edges, and the exported
/// series are pure functions of the request trace.
struct PartitionObs {
    scraper: Scraper,
    engine: AlertEngine,
    tele: Telemetry,
    partition: usize,
    pid: u32,
    /// Per-tenant `[served, shed, slo_miss]` counter-series ids.
    tenant_ids: Vec<[usize; 3]>,
    /// The `sheds_by_reason` series of [`ShedReason::ReplicaLost`].
    replica_lost_id: usize,
    /// The `replicas_active` gauge series.
    active_id: usize,
    /// The `replicas_routable` gauge series.
    routable_id: usize,
    /// `(rule, tenant) → red_alerts_fired_total` handles, linear-scanned
    /// (a handful of entries).
    fired: Vec<(&'static str, Option<usize>, Counter)>,
    /// Fire-order episode log; resolves close the latest open episode
    /// of their `(rule, tenant)`.
    episodes: Vec<AlertEpisode>,
}

impl PartitionObs {
    /// Runs the alert engine over freshly closed scrape windows,
    /// counting fire edges, logging episodes, and emitting one `alert`
    /// instant per transition onto the partition's autoscale track.
    fn ingest(&mut self, windows: &[WindowSnapshot]) {
        for w in windows {
            let count = |id: usize| w.values[id].max(0) as u64;
            let tenants = self
                .tenant_ids
                .iter()
                .map(|&[served, shed, slo_miss]| TenantWindow {
                    served: count(served),
                    shed: count(shed),
                    slo_miss: count(slo_miss),
                })
                .collect();
            let aw = AlertWindow {
                t_ns: w.t_ns,
                tenants,
                replica_lost: count(self.replica_lost_id),
                active: w.values[self.active_id],
                routable: w.values[self.routable_id],
            };
            for tr in self.engine.observe(&aw) {
                self.apply(&tr);
            }
        }
    }

    fn apply(&mut self, tr: &AlertTransition) {
        match tr.state {
            AlertState::Fired => {
                if let Some((_, _, c)) = self
                    .fired
                    .iter()
                    .find(|(rule, tenant, _)| *rule == tr.rule && *tenant == tr.tenant)
                {
                    c.add(1);
                }
                self.episodes.push(AlertEpisode {
                    rule: tr.rule,
                    tenant: tr.tenant,
                    fired_at_ns: tr.t_ns,
                    resolved_at_ns: None,
                    value: tr.value,
                });
            }
            AlertState::Resolved => {
                if let Some(e) = self.episodes.iter_mut().rev().find(|e| {
                    e.rule == tr.rule && e.tenant == tr.tenant && e.resolved_at_ns.is_none()
                }) {
                    e.resolved_at_ns = Some(tr.t_ns);
                }
            }
        }
        if self.tele.is_enabled() {
            self.tele.record(
                self.partition,
                TraceEvent::new(tr.rule, "alert", Phase::Instant, tr.t_ns)
                    .track(self.pid, TRACE_TID_AUTOSCALE)
                    .arg("state", ArgValue::Str(tr.state.as_str()))
                    .arg("tenant", ArgValue::I64(tr.tenant.map_or(-1, |t| t as i64)))
                    .arg("value", ArgValue::F64(tr.value)),
            );
        }
    }

    /// Drains the episode log into report form.
    fn into_reports(self) -> Vec<AlertReport> {
        let p = self.partition;
        self.episodes
            .into_iter()
            .map(|e| AlertReport {
                partition: p,
                rule: e.rule.to_string(),
                tenant: e.tenant,
                fired_at_ns: e.fired_at_ns,
                resolved_at_ns: e.resolved_at_ns,
                value: e.value,
            })
            .collect()
    }
}

/// Per-partition scheduler state: its own former, service law, forked
/// policy, replica pool, autoscaler, and share of the ledger. Scoping
/// mutable policy/autoscaler state here is what keeps reports
/// deterministic — only the per-partition dispatch order is a function
/// of the trace.
struct PartitionState {
    former: BatchFormer<Payload>,
    /// Batch pricing per tier, indexed by [`ExecPrecision::index`].
    price: [TierPrice; 3],
    /// Per-stage priced latencies, for the tracer's analytic per-stage
    /// execute spans.
    stage_lat: Vec<f64>,
    policy: Box<dyn AdmissionPolicy>,
    /// The partition's chip and its unrounded analytic fill and steady
    /// interval, from which a model-only batch re-derives its
    /// replica-side charge ([`PartitionState::charge_modeled`]).
    chip: Chip,
    analytic_fill_ns: f64,
    analytic_steady_ns: f64,
    /// Per-replica reconciliation ledgers, by replica index.
    replica_stats: Vec<ReplicaStats>,
    /// The replicas that execute dispatched batches, by replica index;
    /// empty on a model-only server.
    replicas: Vec<Replica>,
    free_at: Vec<u64>,
    active: usize,
    autoscaler: Option<Autoscaler>,
    scale_events: Vec<ScaleEvent>,
    brownout: Option<BrownoutController>,
    brownout_events: Vec<BrownoutEvent>,
    ledger: Ledger,
    metrics: PartitionMetrics,
    /// Scraper + alert engine, armed by [`ServerConfig::scrape`].
    obs: Option<PartitionObs>,
}

impl PartitionState {
    /// Charges a model-only batch of `b` requests at `tier` to replica
    /// `r`'s ledger the way a replica re-derives it: the chip's analytic
    /// schedule scaled by [`Chip::phase_ratio`], rounded once. It is
    /// computed from the chip, not read from the tier tables the dispatch
    /// priced the batch with, so [`ServerReport::reconciles`] still
    /// cross-checks those tables.
    fn charge_modeled(&mut self, r: usize, b: u64, tier: ExecPrecision) {
        let ratio = self.chip.phase_ratio(tier);
        let fill = (self.analytic_fill_ns * ratio).round() as u64;
        let steady = (self.analytic_steady_ns * ratio).round() as u64;
        let stats = &mut self.replica_stats[r];
        stats.runtime_modeled_ns += fill + (b - 1) * steady;
        if tier != ExecPrecision::Full {
            stats.error_bound = stats
                .error_bound
                .max(self.chip.truncation_error_bound(tier));
        }
    }

    /// The earliest-free active replica that `eligible` admits, lowest
    /// index on ties — deterministic given the partition's dispatch
    /// sequence.
    fn earliest(&self, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        self.free_at[..self.active]
            .iter()
            .enumerate()
            .filter(|&(i, _)| eligible(i))
            .min_by_key(|&(i, &t)| (t, i))
            .map(|(i, _)| i)
    }

    /// The modeled backlog ahead of work closing at `now_ns`: how long
    /// until the least-loaded active replica frees up.
    fn backlog_ns(&self, now_ns: u64) -> u64 {
        let horizon = self.free_at[..self.active]
            .iter()
            .copied()
            .min()
            .unwrap_or(0);
        horizon.saturating_sub(now_ns)
    }

    /// The full-precision makespan of a full batch: the unit the
    /// autoscaler and brownout controller measure backlog in.
    fn full_batch_ns(&self) -> u64 {
        self.price[0]
            .makespan(self.former.max_batch() as u64)
            .max(1)
    }

    /// Moves every bound registry counter up to its ledger total. Runs
    /// just before each scrape pump and once at session end, so the
    /// scrape series and the Prometheus export read the numbers the
    /// report folds; counters move nowhere else.
    fn publish(&mut self) {
        let (m, ledger) = (&mut self.metrics, &self.ledger);
        let mut reasons = [0; ShedReason::ALL.len()];
        let mut tiers = [0; 3];
        for (bounds, c) in m.tenant.iter_mut().zip(&ledger.cells) {
            publish_all(bounds, [c.served, c.shed, c.slo_miss]);
            add(&mut reasons, &c.sheds_by_reason);
            add(&mut tiers, &c.served_by_tier);
        }
        publish_all(&mut m.sheds_by_reason, reasons);
        publish_all(&mut m.served_by_tier, tiers);
        publish_all(&mut m.hardware, ledger.hardware(&self.price));
        let f = ledger.faults;
        publish_all(
            &mut m.faults,
            [f.injected, f.reprograms, f.retries, f.hedges],
        );
    }
}

impl PartitionMetrics {
    /// Binds partition `pi`'s registry series and, with scraping armed,
    /// registers the same handles with a fresh scraper — the one list of
    /// what a partition publishes. Series registration order fixes the
    /// chart grouping of the exported "C" counter tracks.
    fn bind(
        tele: &Telemetry,
        config: &ServerConfig,
        pi: usize,
        active: usize,
    ) -> (Self, Option<PartitionObs>) {
        let part_label = pi.to_string();
        let counter = |name, help, key: &'static str, value: &str| {
            Bound::new(tele.counter(name, help, &[("partition", &part_label), (key, value)]))
        };
        let part_counter =
            |name, help| Bound::new(tele.counter(name, help, &[("partition", &part_label)]));
        let gauge = |name, help| tele.gauge(name, help, &[("partition", &part_label)]);
        let m = PartitionMetrics {
            tenant: config
                .tenants
                .iter()
                .map(|c| {
                    TENANT_SERIES.map(|(name, help, _)| counter(name, help, "tenant", &c.name))
                })
                .collect(),
            sheds_by_reason: ShedReason::ALL
                .iter()
                .map(|r| {
                    counter(
                        "red_sheds_total",
                        "Requests shed, by attributed reason",
                        "reason",
                        r.as_str(),
                    )
                })
                .collect(),
            served_by_tier: ExecPrecision::ALL
                .iter()
                .map(|t| {
                    counter(
                        "red_requests_served_by_tier_total",
                        "Requests served, by execution precision tier",
                        "tier",
                        t.name(),
                    )
                })
                .collect(),
            hardware: HARDWARE_SERIES
                .iter()
                .map(|&(name, help)| part_counter(name, help))
                .collect(),
            faults: FAULT_SERIES
                .iter()
                .map(|&(name, help, _)| part_counter(name, help))
                .collect(),
            replicas_active: gauge("red_replicas_active", "Currently active serving replicas"),
            precision_tier: gauge(
                "red_precision_tier",
                "Current brownout execution tier (0 = full, 2 = brownout)",
            ),
            backlog_ns: gauge(
                "red_backlog_ns",
                "Modeled backlog ahead of the newest dispatch, in virtual ns",
            ),
            replicas_routable: gauge(
                "red_replicas_routable",
                "Replicas the dispatch may route to (active minus quarantined)",
            ),
        };
        m.replicas_active.set(active as i64);
        m.precision_tier.set(0);
        m.replicas_routable.set(active as i64);
        let obs = config.scrape.filter(|_| tele.is_enabled()).map(|scfg| {
            let pid = trace_pid(pi);
            let mut scraper = Scraper::new(scfg, tele.clone(), pi, pi, pid);
            let mut tenant_ids = vec![[0; 3]; config.tenants.len()];
            for (k, &(_, _, chart)) in TENANT_SERIES.iter().enumerate() {
                for (t, c) in config.tenants.iter().enumerate() {
                    tenant_ids[t][k] =
                        scraper.counter(chart, &c.name, m.tenant[t][k].counter.clone());
                }
            }
            let reason_ids: Vec<usize> = ShedReason::ALL
                .iter()
                .zip(&m.sheds_by_reason)
                .map(|(r, b)| scraper.counter("sheds_by_reason", r.as_str(), b.counter.clone()))
                .collect();
            for (t, b) in ExecPrecision::ALL.iter().zip(&m.served_by_tier) {
                scraper.counter("tier", t.name(), b.counter.clone());
            }
            for (&(_, _, key), b) in FAULT_SERIES.iter().zip(&m.faults) {
                scraper.counter("faults", key, b.counter.clone());
            }
            scraper.gauge("capacity", "backlog_ns", m.backlog_ns.clone());
            let active_id = scraper.gauge("capacity", "replicas_active", m.replicas_active.clone());
            let routable_id =
                scraper.gauge("capacity", "replicas_routable", m.replicas_routable.clone());
            scraper.quantile("latency", "p50", 0.5);
            scraper.quantile("latency", "p99", 0.99);
            let fired_help = "Alert-rule fire edges";
            let mut fired: Vec<(&'static str, Option<usize>, Counter)> = Vec::new();
            for (t, c) in config.tenants.iter().enumerate() {
                for rule in ["fast-burn", "slow-burn"] {
                    let labels = [
                        ("partition", part_label.as_str()),
                        ("rule", rule),
                        ("tenant", &c.name),
                    ];
                    fired.push((
                        rule,
                        Some(t),
                        tele.counter("red_alerts_fired_total", fired_help, &labels),
                    ));
                }
            }
            for rule in ["replica-lost", "quarantine"] {
                let labels = [("partition", part_label.as_str()), ("rule", rule)];
                fired.push((
                    rule,
                    None,
                    tele.counter("red_alerts_fired_total", fired_help, &labels),
                ));
            }
            PartitionObs {
                engine: AlertEngine::new(AlertPolicy::default(), config.tenants.len()),
                scraper,
                tele: tele.clone(),
                partition: pi,
                pid,
                tenant_ids,
                replica_lost_id: reason_ids[ShedReason::ReplicaLost.index()],
                active_id,
                routable_id,
                fired,
                episodes: Vec::new(),
            }
        });
        (m, obs)
    }
}

/// Per-replica self-healing state (fault-plan runs only).
struct ReplicaChaos {
    state: ReplicaState,
    witness: Witness,
    next_probe_ns: u64,
    repair_until_ns: Option<u64>,
}

impl ReplicaChaos {
    /// Repair completion: fresh witness, back to `Active`.
    fn complete_repair(&mut self) {
        self.witness.reprogram();
        self.state = ReplicaState::Active;
        self.repair_until_ns = None;
    }
}

/// Per-partition chaos state: this partition's slice of the fault plan
/// (each event paired with its seed, derived from the *global* plan
/// index, for deterministic stuck-at strikes) plus the replica health
/// records.
struct PartChaos {
    events: Vec<(u64, FaultEvent)>,
    /// Events consumed out of order by the commit-time crash lookahead;
    /// the pump skips them.
    consumed: Vec<bool>,
    cursor: usize,
    replicas: Vec<ReplicaChaos>,
}

impl PartChaos {
    /// Index (into `events`) of the first unconsumed event at or before
    /// `now`.
    fn next_event_at(&self, now: u64) -> Option<usize> {
        (self.cursor..self.events.len())
            .find(|&i| !self.consumed[i])
            .filter(|&i| self.events[i].1.at_ns <= now)
    }

    /// Marks event `i` consumed, advances the cursor past the consumed
    /// prefix, and returns the event with its seed.
    fn consume(&mut self, i: usize) -> (u64, FaultEvent) {
        self.consumed[i] = true;
        while self.cursor < self.events.len() && self.consumed[self.cursor] {
            self.cursor += 1;
        }
        self.events[i]
    }

    /// How many of the first `active` replicas the scheduler may route
    /// to.
    fn routable(&self, active: usize) -> usize {
        self.replicas[..active.min(self.replicas.len())]
            .iter()
            .filter(|r| r.state.routable())
            .count()
    }
}

/// Scheduler-side fault-injection and self-healing state, present only
/// when a [`FaultPlan`] is armed. Taken out of the scheduler
/// (`Option::take`) for the duration of a dispatch so the chaos logic
/// can borrow partitions and ledgers freely.
struct ChaosState {
    health: HealthConfig,
    /// Modeled replica re-programming outage, from
    /// `CostModel::reprogram_cost(health.reprogram_cells)`.
    reprogram_ns: u64,
    reprogram_energy_pj: f64,
    parts: Vec<PartChaos>,
    /// Re-serve attempts per orphaned request — bounded by
    /// `health.max_retries`, keyed `(client, seq)`. Never iterated, so
    /// the hash order cannot leak into results.
    attempts: HashMap<(ClientId, u64), u32>,
}

/// The synchronous scheduler core (see the module docs). Its driver
/// hands it client events as method calls — [`Scheduler::submit`],
/// [`Scheduler::advance`], [`Scheduler::finish_client`] — then runs
/// [`Scheduler::close_ready`] and delivers the completions that queues
/// in the outbox. It does no I/O and keeps no thread: on a functional
/// server the close loop executes its own batches, on scoped threads
/// while more than one replica has work. [`crate::drive`] runs it on the
/// caller's thread and [`Server::start`] inside the shell thread: one
/// scheduling code path for both.
pub(crate) struct Scheduler {
    clients: Vec<ClientState>,
    parts: Vec<PartitionState>,
    /// Per-tenant precision floors ([`TenantClass::precision_floor`]),
    /// indexed by tenant id.
    floors: Vec<ExecPrecision>,
    /// Per-tenant SLOs ([`TenantClass::slo_ns`]), indexed by tenant id,
    /// for the SLO-miss count.
    slos: Vec<Option<u64>>,
    functional: bool,
    tele: Telemetry,
    chaos: Option<ChaosState>,
    /// Earliest submitted arrival (`u64::MAX` before the first).
    first_arrival_ns: u64,
    /// Latest virtual completion of any settled request.
    last_completion_ns: u64,
    /// Admission verdicts of the batch being committed, in batch order
    /// (`None` = admitted); reused across batches.
    verdicts: Vec<Option<ShedReason>>,
    /// Completions awaiting delivery, each to client `meta.client`.
    outbox: Vec<Completion>,
    /// The configuration the session report echoes.
    info: SessionInfo,
}

/// The session configuration a [`ServerReport`] echoes.
struct SessionInfo {
    network: String,
    design: String,
    replicas: usize,
    max_batch: usize,
    max_wait_ns: u64,
    policy: String,
    tenant_classes: Vec<TenantClass>,
    partition_names: Vec<String>,
    /// The effective alert policy when scraping is armed (drives the
    /// end-of-session `error-bound` rule in [`Scheduler::finish`]).
    alert_policy: Option<AlertPolicy>,
}

// Trace track layout. Request lifecycle events live on the scheduler
// process (pid 1), one thread track per tenant class; each partition is
// its own process (pid 100+p) with tid 0 for autoscale instants, tid
// 1+r for replica batch spans, and a per-(replica, stage) band for the
// analytic execute spans. Partition `p` records into telemetry stream
// `p` — the per-partition emission sequence is deterministic, so the
// merged export is too.
const TRACE_PID_SCHED: u32 = 1;
const TRACE_TID_AUTOSCALE: u32 = 0;
const TRACE_STAGE_TID_BASE: u32 = 1_000;
/// Stage tids reserved per replica (chips here are ≤ 8 stages deep;
/// deeper stages fold into the last slot rather than colliding across
/// replicas).
const TRACE_STAGE_SLOTS: u32 = 32;

fn trace_pid(partition: usize) -> u32 {
    100 + partition as u32
}

fn trace_tid_replica(replica: usize) -> u32 {
    1 + replica as u32
}

fn trace_tid_stage(replica: usize, stage: usize) -> u32 {
    let k = (stage as u32).min(TRACE_STAGE_SLOTS - 1);
    TRACE_STAGE_TID_BASE + replica as u32 * TRACE_STAGE_SLOTS + k
}

/// Async correlation id of one request's lifecycle span: unique per
/// (client, seq) within a session.
fn trace_req_id(meta: &RequestMeta) -> u64 {
    ((meta.client as u64) << 32) | (meta.seq & 0xffff_ffff)
}

/// One event of a request's lifecycle span, on its tenant's track.
fn request_event(name: &'static str, ph: Phase, ts_ns: u64, meta: &RequestMeta) -> TraceEvent {
    TraceEvent::new(name, "request", ph, ts_ns)
        .track(TRACE_PID_SCHED, meta.tenant as u32)
        .with_id(trace_req_id(meta))
}

impl Scheduler {
    /// Exclusive-ish lower bound on every future arrival: the minimum
    /// over clients of what each could still submit. A finished client
    /// contributes nothing; a closed-loop client with a request in
    /// flight cannot submit until the scheduler itself assigns that
    /// request a completion time (so ∞ is *exact*, not an
    /// approximation); otherwise the watermark is the client's last
    /// arrival or heartbeat (open) or last virtual completion (closed),
    /// both proven lower bounds on its next arrival.
    fn frontier(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| {
                if c.done || (c.mode == ClientMode::Closed && c.in_flight > 0) {
                    u64::MAX
                } else {
                    c.watermark_ns
                }
            })
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The virtual instant the trace provably ended, for drain-mode
    /// closes: the latest final watermark among finished clients (a
    /// client disconnects at its last arrival or heartbeat). Zero when
    /// no client has finished — the all-closed-loop drain, where the
    /// former falls back to its work-conserving close.
    fn drain_end(&self) -> u64 {
        self.clients
            .iter()
            .filter(|c| c.done)
            .map(|c| c.watermark_ns)
            .max()
            .unwrap_or(0)
    }

    /// Queues a submitted request in its partition's former, counting it
    /// as offered. The arrival is clamped to the client's watermark —
    /// the invariant the former's safety argument rests on (a no-op for
    /// well-behaved drivers).
    pub(crate) fn submit(&mut self, mut meta: RequestMeta, input: Payload) {
        let st = &mut self.clients[meta.client];
        meta.arrival_ns = meta.arrival_ns.max(st.watermark_ns);
        st.watermark_ns = meta.arrival_ns;
        if st.mode == ClientMode::Closed {
            st.in_flight += 1;
        }
        self.first_arrival_ns = self.first_arrival_ns.min(meta.arrival_ns);
        let part = &mut self.parts[meta.network];
        part.ledger.cells[meta.tenant].offered += 1;
        part.former.push(meta, input);
    }

    /// A watermark heartbeat: `client` promises to submit nothing before
    /// `watermark_ns`.
    pub(crate) fn advance(&mut self, client: ClientId, watermark_ns: u64) {
        let st = &mut self.clients[client];
        st.watermark_ns = st.watermark_ns.max(watermark_ns);
    }

    /// `client` will submit nothing more. Idempotent.
    pub(crate) fn finish_client(&mut self, client: ClientId) {
        self.clients[client].done = true;
    }

    /// Applies one client event from the [`Server`] shell.
    fn apply(&mut self, event: Event) {
        match event {
            Event::Submit { meta, input } => self.submit(meta, input),
            Event::Advance(client, watermark_ns) => self.advance(client, watermark_ns),
            Event::Done(client) => self.finish_client(client),
        }
    }

    /// Closes and dispatches every batch the frontier has made final,
    /// until no partition can close another, then executes every batch
    /// that queued on a replica, so the outbox holds each completion the
    /// loop produced and no batch is left queued.
    pub(crate) fn close_ready(&mut self) {
        loop {
            let mut progressed = false;
            for p in 0..self.parts.len() {
                let frontier = self.frontier();
                let drain_end = self.drain_end();
                if let Some(batch) = self.parts[p].former.try_close(frontier, drain_end) {
                    self.dispatch(p, batch);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        if self.functional {
            self.execute_queued();
        }
    }

    /// Runs each replica's queue in dispatch order, the replicas in
    /// parallel on scoped threads (inline when only one has work), and
    /// appends their completions to the outbox in replica order. A panic
    /// in chip execution resumes on this thread with its own payload.
    fn execute_queued(&mut self) {
        fn drain(replica: &mut Replica, stats: &mut ReplicaStats, deliver: &mut Vec<Completion>) {
            let mut queue = std::mem::take(&mut replica.queue);
            for batch in queue.drain(..) {
                replica.execute(batch, stats, deliver);
            }
            replica.queue = queue;
        }
        let mut busy: Vec<(&mut Replica, &mut ReplicaStats)> = self
            .parts
            .iter_mut()
            .flat_map(|p| p.replicas.iter_mut().zip(&mut p.replica_stats))
            .filter(|(replica, _)| !replica.queue.is_empty())
            .collect();
        if busy.len() <= 1 {
            if let Some((replica, stats)) = busy.pop() {
                drain(replica, stats, &mut self.outbox);
            }
            return;
        }
        let outbox = &mut self.outbox;
        std::thread::scope(|scope| {
            let runs: Vec<_> = busy
                .into_iter()
                .map(|(replica, stats)| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        drain(replica, stats, &mut out);
                        out
                    })
                })
                .collect();
            for run in runs {
                let out = run
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                outbox.extend(out);
            }
        });
    }

    /// `true` once every client has finished and every former is empty:
    /// nothing is left to close.
    pub(crate) fn is_drained(&self) -> bool {
        self.clients.iter().all(|c| c.done) && self.parts.iter().all(|p| p.former.is_empty())
    }

    /// Drains the outbox: the completions queued since the last call,
    /// each addressed to client `meta.client`.
    pub(crate) fn outbox(&mut self) -> std::vec::Drain<'_, Completion> {
        self.outbox.drain(..)
    }

    /// Hands an admitted batch to replica `r` of partition `p`. On a
    /// functional server it queues on the replica, which executes it at
    /// the end of the close loop; on a model-only one it is charged to
    /// the replica's ledger here and answered [`Outcome::Modeled`].
    fn ship(&mut self, p: usize, r: usize, batch: ExecBatch) {
        if self.functional {
            self.parts[p].replicas[r].queue.push(batch);
            return;
        }
        self.parts[p].charge_modeled(r, batch.items.len() as u64, batch.tier);
        self.outbox
            .extend(batch.items.into_iter().map(|item| Completion {
                meta: item.meta,
                timing: item.timing,
                outcome: Outcome::Modeled,
            }));
    }

    /// How many of partition `p`'s active replicas a dispatch may route
    /// to: all of them unless a fault plan has some under repair.
    fn routable(&self, p: usize) -> usize {
        let active = self.parts[p].active;
        self.chaos
            .as_ref()
            .map_or(active, |c| c.parts[p].routable(active))
    }

    /// One batch-close instant of partition `p`: with a fault plan
    /// armed, first pump the plan's events, probes and repairs up to the
    /// close; then [`Scheduler::commit`] the batch; then run the
    /// autoscale, brownout and scrape ticks.
    fn dispatch(&mut self, p: usize, batch: FormedBatch<Payload>) {
        let close_ns = batch.close_ns;
        let mut chaos = self.chaos.take();
        if let Some(c) = chaos.as_mut() {
            self.pump_chaos(c, p, close_ns, true);
        }
        let makespan = self.commit(&mut chaos, p, batch);
        self.chaos = chaos;
        // Autoscaling: every dispatch is a decision instant on the
        // virtual clock. Batches dispatch eagerly (a closed batch is
        // committed to a replica immediately, starting whenever that
        // replica frees up), so queue pressure lives in the replica
        // `free_at` ledger, not the former. The queue-depth signal is
        // therefore the modeled backlog ahead of the newest dispatch,
        // in units of full-batch makespans: how many max-size batches
        // the least-loaded active replica still has to finish before
        // work closing *now* could start. Every input is a
        // deterministic function of the partition's dispatch sequence,
        // which keeps scale decisions trace-reproducible. Sheds feed
        // the saturation trigger: admission control caps the queue
        // near its lag bound, so a shedding partition signals overload
        // through utilization + shed count, not backlog.
        let effective = self.routable(p);
        self.autoscale_tick(p, close_ns, makespan, effective);
        self.brownout_tick(p, close_ns, effective);
        // Routable capacity after the ticks (autoscaling may have moved
        // `active`), so the scraped gauge matches what the next
        // dispatch could actually route to.
        let routable = self.routable(p);
        self.observe_tick(p, close_ns, routable);
    }

    /// The one commit path: every formed batch, with or without a fault
    /// plan. Admission is decided for the whole batch first, in batch
    /// order. With a plan armed, the crash lookahead then asks whether a
    /// planned crash truncates the batch (completions are stamped at
    /// dispatch, so the crash must be resolved *now*). Then each request
    /// is recorded in batch order — served, shed, or orphaned by the
    /// crash — and the survivors are charged and shipped. Orphans are
    /// re-queued, hedged, or shed with [`ShedReason::ReplicaLost`] —
    /// never silently dropped. Everything is a pure function of (trace,
    /// plan, seed): no host time, no iterated hash maps, stable
    /// tie-breaks throughout. Returns the busy time charged (for the
    /// autoscaler).
    fn commit(
        &mut self,
        chaos: &mut Option<ChaosState>,
        p: usize,
        batch: FormedBatch<Payload>,
    ) -> u64 {
        let tracing = self.tele.is_enabled();
        let (close_ns, trigger) = (batch.close_ns, batch.trigger.as_str());
        // The batch's execution tier: the brownout controller's current
        // tier, capped by the precision floor of every tenant with a
        // request in the formed batch (the `min` under the
        // `Full < Eco < Brownout` order is the more precise tier). The
        // tier is fixed by batch *membership* before admission, so the
        // service estimates the policy sees are priced at the tier the
        // batch will actually run at.
        let ctl = self.parts[p]
            .brownout
            .as_ref()
            .map_or(ExecPrecision::Full, BrownoutController::tier);
        let tier = batch
            .requests
            .iter()
            .fold(ctl, |t, (meta, _)| t.min(self.floors[meta.tenant]));
        let part = &mut self.parts[p];
        let price = part.price[tier.index()];
        // Under a fault plan only routable replicas qualify; when every
        // active replica is down, fall back to the earliest-repaired one
        // so the batch (and the virtual clock) still makes progress.
        let routable = |i: usize| {
            chaos
                .as_ref()
                .is_none_or(|c| c.parts[p].replicas[i].state.routable())
        };
        let r = part
            .earliest(routable)
            .or_else(|| part.earliest(|_| true))
            .expect("a partition always has at least one active replica");
        let start = close_ns.max(part.free_at[r]);

        // Admission, in batch order: each request is priced at its
        // position among the requests admitted before it.
        let mut verdicts = std::mem::take(&mut self.verdicts);
        let mut admitted = 0u64;
        for (meta, _) in &batch.requests {
            let estimate = ServiceEstimate {
                batch_start_ns: start,
                position: admitted as usize,
                fill_latency_ns: price.fill_ns,
                steady_interval_ns: price.steady_ns,
                predicted_completion_ns: start + price.fill_ns + admitted * price.steady_ns,
            };
            if part.policy.admit(meta, &estimate) {
                admitted += 1;
                verdicts.push(None);
            } else {
                verdicts.push(Some(part.policy.shed_reason(meta, &estimate)));
            }
        }

        // Does a planned crash truncate the batch? Survivors are the
        // admitted requests stamped at or before it.
        let crash = match chaos.as_mut() {
            Some(c) if admitted > 0 => self.crash_within(c, p, r, start + price.makespan(admitted)),
            _ => None,
        };

        let mut inputs = Vec::new();
        let mut items = Vec::with_capacity(admitted as usize);
        let mut orphans = Vec::new();
        let mut shed_here = 0u64;
        for ((meta, input), verdict) in batch.requests.into_iter().zip(verdicts.drain(..)) {
            // One lifecycle span per request across all of its
            // dispatches: a re-queued orphan is already in the attempts
            // ledger and its span is still open.
            let retry = |c: &ChaosState| c.attempts.contains_key(&(meta.client, meta.seq));
            if tracing && !chaos.as_ref().is_some_and(retry) {
                self.tele.record(
                    p,
                    request_event("req", Phase::AsyncBegin, meta.arrival_ns, &meta)
                        .arg("network", ArgValue::U64(meta.network as u64)),
                );
            }
            if let Some(reason) = verdict {
                shed_here += 1;
                self.record_shed(p, meta, start, reason);
                continue;
            }
            // Survivors precede orphans, so this is the request's
            // position among the admitted.
            let position = (items.len() + orphans.len()) as u64;
            let completion_ns = start + price.fill_ns + position * price.steady_ns;
            if crash.is_some_and(|t| completion_ns > t) {
                orphans.push((meta, input));
                continue;
            }
            let timing = RequestTiming {
                arrival_ns: meta.arrival_ns,
                dispatch_ns: start,
                completion_ns,
            };
            if tracing {
                self.tele.record(
                    p,
                    request_event("admit", Phase::AsyncInstant, start, &meta)
                        .arg("position", ArgValue::U64(position))
                        .arg("replica", ArgValue::U64(r as u64)),
                );
            }
            self.record_served(p, &meta, &timing, tier);
            if self.functional {
                inputs.push(input.expect("functional servers always carry inputs"));
            }
            items.push(ExecItem { meta, timing });
        }
        self.verdicts = verdicts;

        // Charge and ship the survivors: `fill + (s-1)·steady` for the s
        // survivors — exactly what the replica re-derives from the
        // survivor-only batch — so `ServerReport::reconciles` holds
        // under a crash too. A crashed replica's `free_at` already
        // points at its repair completion. A fully shed batch costs
        // zero chip time and leaves the replica free.
        let s = items.len() as u64;
        let makespan = if s == 0 { 0 } else { price.makespan(s) };
        if s > 0 {
            let part = &mut self.parts[p];
            if crash.is_none() {
                part.free_at[r] = start + makespan;
            }
            part.ledger.record_batch(r, s, makespan, tier);
            if tracing {
                let pid = trace_pid(p);
                let mut ev = TraceEvent::new("batch", "exec", Phase::Complete, start)
                    .track(pid, trace_tid_replica(r))
                    .dur(makespan)
                    .arg("size", ArgValue::U64(s))
                    .arg("trigger", ArgValue::Str(trigger))
                    .arg("shed", ArgValue::U64(shed_here));
                // `lost` rides only on fault-plan sessions and `tier`
                // only on brownout-armed ones, so earlier committed
                // traces stay byte-identical.
                if chaos.is_some() {
                    ev = ev.arg("lost", ArgValue::U64(orphans.len() as u64));
                }
                ev = ev.arg("energy_fj", ArgValue::U64(price.hw.scaled(s).energy_fj));
                if part.brownout.is_some() {
                    ev = ev.arg("tier", ArgValue::Str(tier.name()));
                }
                self.tele.record(p, ev);
                // Analytic per-stage execute spans under the pipelined
                // schedule the makespan charges: stage k first starts at
                // the latency prefix and last finishes one bottleneck
                // interval per extra image later. Stage latencies scale
                // with the tier's live phase ratio, like the makespan.
                let mut prefix = 0.0f64;
                let mut runmax = 0.0f64;
                for (k, &l) in part.stage_lat.iter().enumerate() {
                    let l = l * price.ratio;
                    runmax = runmax.max(l);
                    let begin = start + prefix.round() as u64;
                    let end = start + (prefix + l + (s - 1) as f64 * runmax).round() as u64;
                    prefix += l;
                    self.tele.record(
                        p,
                        TraceEvent::new("stage", "exec", Phase::Complete, begin)
                            .track(pid, trace_tid_stage(r, k))
                            .dur(end.saturating_sub(begin))
                            .arg("stage", ArgValue::U64(k as u64))
                            .arg("images", ArgValue::U64(s)),
                    );
                }
            }
            let batch = ExecBatch {
                inputs,
                items,
                tier,
            };
            self.ship(p, r, batch);
        }
        // Resolve every orphan — retry, hedge, or shed, never lose. The
        // crash instant is the orphan's new "now".
        if let (Some(t), Some(chaos)) = (crash, chaos.as_mut()) {
            for (meta, input) in orphans {
                self.trace_orphan(p, &meta, t, r);
                self.resolve_orphan(chaos, p, meta, input, t);
            }
        }
        makespan
    }

    /// Settles a request at `completion_ns`: a closed-loop client may
    /// submit again from there. The only writer of client completion
    /// state.
    fn settle(&mut self, meta: &RequestMeta, completion_ns: u64) {
        let st = &mut self.clients[meta.client];
        if st.mode == ClientMode::Closed {
            st.in_flight -= 1;
            st.watermark_ns = st.watermark_ns.max(completion_ns);
        }
        self.last_completion_ns = self.last_completion_ns.max(completion_ns);
    }

    /// Books one served request of partition `p` at `tier` into its
    /// ledger cell and the scraper's latency window, and closes its
    /// lifecycle span with one image's exact hardware counters (so
    /// summing the `e` events of every served request reproduces the
    /// aggregate figures). The batch charge is
    /// [`Ledger::record_batch`]'s.
    fn record_served(
        &mut self,
        p: usize,
        meta: &RequestMeta,
        timing: &RequestTiming,
        tier: ExecPrecision,
    ) {
        self.settle(meta, timing.completion_ns);
        let total = timing.total_ns();
        let slo_miss = self.slos[meta.tenant].is_some_and(|slo| total > slo);
        let part = &mut self.parts[p];
        let cell = &mut part.ledger.cells[meta.tenant];
        cell.served += 1;
        cell.served_by_tier[tier.index()] += 1;
        cell.slo_miss += u64::from(slo_miss);
        cell.queue_wait.record(timing.queue_wait_ns());
        cell.execute.record(timing.execute_ns());
        cell.total.record(total);
        if let Some(obs) = part.obs.as_mut() {
            obs.scraper.record_latency(total);
        }
        if self.tele.is_enabled() {
            let hw = part.price[tier.index()].hw;
            self.tele.record(
                p,
                request_event("req", Phase::AsyncEnd, timing.completion_ns, meta)
                    .arg("xbar_activations", ArgValue::U64(hw.crossbar_activations))
                    .arg("adc_quantizations", ArgValue::U64(hw.adc_quantizations))
                    .arg("energy_fj", ArgValue::U64(hw.energy_fj)),
            );
        }
    }

    /// Books one request of partition `p` shed at instant `at` for
    /// `reason` — zero chip time — feeds the denial to the autoscaler
    /// (which names the worst-shedding tenant in its next event) and
    /// the brownout controller, and answers it.
    fn record_shed(&mut self, p: usize, meta: RequestMeta, at: u64, reason: ShedReason) {
        self.settle(&meta, at);
        let timing = RequestTiming {
            arrival_ns: meta.arrival_ns,
            dispatch_ns: at,
            completion_ns: at,
        };
        let part = &mut self.parts[p];
        let cell = &mut part.ledger.cells[meta.tenant];
        cell.shed += 1;
        cell.sheds_by_reason[reason.index()] += 1;
        cell.shed_wait.record(timing.queue_wait_ns());
        if let Some(scaler) = part.autoscaler.as_mut() {
            scaler.observe_shed(meta.tenant, 1);
        }
        if let Some(ctl) = part.brownout.as_mut() {
            ctl.observe_shed(1);
        }
        if self.tele.is_enabled() {
            self.tele.record(
                p,
                request_event("shed", Phase::AsyncInstant, at, &meta)
                    .arg("reason", ArgValue::Str(reason.as_str())),
            );
            self.tele.record(
                p,
                request_event("req", Phase::AsyncEnd, at, &meta)
                    .arg("outcome", ArgValue::Str("shed")),
            );
        }
        self.outbox.push(Completion {
            meta,
            timing,
            outcome: Outcome::Shed,
        });
    }

    /// The per-dispatch autoscaling decision instant. `effective` is
    /// the replica count the decision sees — the full active pool in
    /// normal runs, the *routable* pool under a fault plan (so
    /// quarantined capacity reads as lost and produces scale-up
    /// pressure). The decision's delta is applied to the provisioned
    /// `active` count.
    fn autoscale_tick(&mut self, p: usize, close_ns: u64, makespan: u64, effective: usize) {
        let part = &mut self.parts[p];
        let Some(scaler) = part.autoscaler.as_mut() else {
            return;
        };
        scaler.observe_busy(makespan);
        if !scaler.due(close_ns) {
            return;
        }
        let backlog_ns = part.backlog_ns(close_ns);
        let queue = (backlog_ns / part.full_batch_ns()) as usize;
        let decision = part
            .autoscaler
            .as_mut()
            .and_then(|s| s.decide(close_ns, queue, backlog_ns, effective.max(1)));
        if let Some(event) = decision {
            let delta = event.to as i64 - event.from as i64;
            part.active = (part.active as i64 + delta).clamp(1, part.free_at.len() as i64) as usize;
            part.metrics.replicas_active.set(part.active as i64);
            part.scale_events.push(event);
            if self.tele.is_enabled() {
                self.tele.record(
                    p,
                    TraceEvent::new("scale", "autoscale", Phase::Instant, event.at_ns)
                        .track(trace_pid(p), TRACE_TID_AUTOSCALE)
                        .arg("from", ArgValue::U64(event.from as u64))
                        .arg("to", ArgValue::U64(event.to as u64))
                        .arg("queue", ArgValue::U64(event.queue_depth as u64))
                        .arg("utilization", ArgValue::F64(event.utilization))
                        .arg("shed_in_window", ArgValue::U64(event.shed_in_window))
                        .arg(
                            "top_shed_tenant",
                            ArgValue::I64(event.top_shed_tenant.map_or(-1, |t| t as i64)),
                        ),
                );
            }
        }
    }

    /// The per-dispatch brownout decision instant, mirroring
    /// [`Scheduler::autoscale_tick`]: the queue-depth signal is the
    /// modeled backlog ahead of the newest dispatch in **full-precision**
    /// full-batch makespans (a stable unit across tiers — measuring
    /// backlog in the degraded tier's shorter makespans would make the
    /// pressure signal shrink exactly when the fleet degrades, hiding
    /// the overload it is reacting to). `routable` is the replica pool
    /// the dispatch could route to; the gap to the provisioned active
    /// pool is the health plane's lost capacity.
    fn brownout_tick(&mut self, p: usize, close_ns: u64, routable: usize) {
        let part = &mut self.parts[p];
        if !part.brownout.as_ref().is_some_and(|ctl| ctl.due(close_ns)) {
            return;
        }
        let backlog_ns = part.backlog_ns(close_ns);
        let queue = (backlog_ns / part.full_batch_ns()) as usize;
        let provisioned = part.active;
        let decision = part
            .brownout
            .as_mut()
            .and_then(|ctl| ctl.decide(close_ns, queue, backlog_ns, routable.max(1), provisioned));
        if let Some(event) = decision {
            part.metrics.precision_tier.set(event.to.index() as i64);
            part.brownout_events.push(event);
            if self.tele.is_enabled() {
                self.tele.record(
                    p,
                    TraceEvent::new("brownout", "autoscale", Phase::Instant, event.at_ns)
                        .track(trace_pid(p), TRACE_TID_AUTOSCALE)
                        .arg("from", ArgValue::Str(event.from.name()))
                        .arg("to", ArgValue::Str(event.to.name()))
                        .arg("queue", ArgValue::U64(event.queue_depth as u64))
                        .arg("shed_in_window", ArgValue::U64(event.shed_in_window))
                        .arg("replicas_lost", ArgValue::U64(event.replicas_lost as u64)),
                );
            }
        }
    }

    /// The per-dispatch scrape-pump instant: publish the ledger and
    /// refresh the sampled gauges, advance partition `p`'s scraper to
    /// `now_ns` (taking one registry snapshot per crossed window
    /// boundary), and run the alert engine over every window that
    /// closed. Every input is a deterministic function of the
    /// partition's dispatch sequence, so the scrape series and alert
    /// timeline replay byte-identically — the same argument the
    /// autoscale and brownout ticks rest on.
    fn observe_tick(&mut self, p: usize, now_ns: u64, routable: usize) {
        let part = &mut self.parts[p];
        if part.obs.is_none() {
            return;
        }
        part.publish();
        part.metrics.backlog_ns.set(part.backlog_ns(now_ns) as i64);
        part.metrics.replicas_routable.set(routable as i64);
        let obs = part.obs.as_mut().expect("checked non-None above");
        let windows = obs.scraper.pump(now_ns);
        obs.ingest(&windows);
    }

    /// End-of-session publish and scrape flush, after
    /// [`Scheduler::finalize_chaos`] so end-of-plan repairs and fault
    /// counts land in it: publish every partition's ledger, close the
    /// final (possibly partial) scrape window at the last virtual
    /// completion, run the alert engine over the tail, and publish every
    /// series (with its conservation ledger) for the JSON exports.
    fn flush_observability(&mut self) {
        let end = self.last_completion_ns;
        for part in &mut self.parts {
            part.publish();
            let backlog_ns = part.backlog_ns(end);
            let Some(obs) = part.obs.as_mut() else {
                continue;
            };
            part.metrics.backlog_ns.set(backlog_ns as i64);
            let windows = obs.scraper.finish(end);
            obs.ingest(&windows);
            self.tele.publish_timeseries(obs.scraper.export());
        }
    }

    // ---- Fault plan: injection, probes, self-healing -----------------
    //
    // The armed `FaultPlan` is interleaved with the batch stream on the
    // virtual clock: plan events, canary probes, and repair completions
    // are pumped in virtual-time order up to each batch close, and the
    // commit-time crash lookahead consumes a planned crash out of order
    // when it truncates the batch being committed.

    /// Processes plan events, canary probes (unless `probes` is off —
    /// the end-of-session flush skips them), and repair completions for
    /// partition `p` in virtual-time order up to `now`. Ties process
    /// repairs first, then plan events, then probes, with replica/plan
    /// index as the final tie-break.
    fn pump_chaos(&mut self, chaos: &mut ChaosState, p: usize, now: u64, probes: bool) {
        loop {
            let pc = &chaos.parts[p];
            // (instant, class, index): class 0 repair, 1 event, 2 probe.
            let mut best: Option<(u64, u8, usize)> = None;
            let mut offer = |cand: Option<(u64, u8, usize)>| {
                if let Some((t, c, i)) = cand {
                    if t <= now && best.is_none_or(|b| (t, c, i) < (b.0, b.1, b.2)) {
                        best = Some((t, c, i));
                    }
                }
            };
            offer(
                pc.replicas
                    .iter()
                    .enumerate()
                    .filter_map(|(r, rc)| rc.repair_until_ns.map(|t| (t, 0, r)))
                    .min(),
            );
            offer(pc.next_event_at(now).map(|i| (pc.events[i].1.at_ns, 1, i)));
            if probes {
                offer(
                    pc.replicas
                        .iter()
                        .enumerate()
                        .map(|(r, rc)| (rc.next_probe_ns, 2, r))
                        .min(),
                );
            }
            match best {
                Some((_, 0, r)) => chaos.parts[p].replicas[r].complete_repair(),
                Some((_, 1, i)) => self.apply_plan_event(chaos, p, i),
                Some((t, _, r)) => self.probe_replica(chaos, p, r, t),
                None => break,
            }
        }
    }

    /// Applies the plan event at `events[i]` (already known due) to its
    /// partition and emits its `fault` instant.
    fn apply_plan_event(&mut self, chaos: &mut ChaosState, p: usize, i: usize) {
        let pc = &mut chaos.parts[p];
        let (event_seed, event) = pc.consume(i);
        let r = event.replica.min(pc.replicas.len() - 1);
        self.count_fault(p, &event, r);
        match event.kind {
            FaultKind::Crash => self.quarantine_replica(chaos, p, r, event.at_ns, None),
            FaultKind::Stall { ns } => {
                let free_at = &mut self.parts[p].free_at[r];
                *free_at = (*free_at).max(event.at_ns) + ns;
            }
            FaultKind::Drift { elapsed_s } => {
                let nu = chaos.health.drift_nu;
                for rc in &mut chaos.parts[p].replicas {
                    let aged = DriftModel::after(nu, rc.witness.drift().elapsed_s + elapsed_s);
                    rc.witness.advance_drift(aged);
                }
            }
            FaultKind::Strikes { cells } => {
                chaos.parts[p].replicas[r].witness.strike(cells, event_seed);
            }
        }
    }

    /// Fault-injection bookkeeping shared by the pump and the crash
    /// lookahead: the ledger count and the replica-track `fault`
    /// instant.
    fn count_fault(&mut self, p: usize, event: &FaultEvent, r: usize) {
        self.parts[p].ledger.faults.injected += 1;
        if self.tele.is_enabled() {
            self.tele.record(
                p,
                TraceEvent::new("fault", "fault", Phase::Instant, event.at_ns)
                    .track(trace_pid(p), trace_tid_replica(r))
                    .arg("kind", ArgValue::Str(event.kind.as_str()))
                    .arg("replica", ArgValue::U64(r as u64)),
            );
        }
    }

    /// Pulls replica `r` from routing at instant `t` and schedules its
    /// re-programming: `Quarantined` is passed through instantly (repair
    /// capacity is not modeled), the modeled outage comes from
    /// `CostModel::reprogram_cost`, and `free_at` is pushed to the
    /// repair completion so backlog math sees the outage too.
    fn quarantine_replica(
        &mut self,
        chaos: &mut ChaosState,
        p: usize,
        r: usize,
        t: u64,
        deviation: Option<f64>,
    ) {
        let part = &mut self.parts[p];
        let begin = part.free_at[r].max(t);
        let until = begin + chaos.reprogram_ns;
        let rc = &mut chaos.parts[p].replicas[r];
        rc.repair_until_ns = Some(until.max(rc.repair_until_ns.unwrap_or(0)));
        rc.state = ReplicaState::Reprogramming;
        part.free_at[r] = until;
        part.ledger.faults.reprograms += 1;
        if self.tele.is_enabled() {
            let mut quarantine = TraceEvent::new("quarantine", "health", Phase::Instant, t)
                .track(trace_pid(p), trace_tid_replica(r))
                .arg("replica", ArgValue::U64(r as u64));
            if let Some(dev) = deviation {
                quarantine = quarantine.arg("deviation", ArgValue::F64(dev));
            }
            self.tele.record(p, quarantine);
            self.tele.record(
                p,
                TraceEvent::new("reprogram", "health", Phase::Complete, begin)
                    .track(trace_pid(p), trace_tid_replica(r))
                    .dur(chaos.reprogram_ns)
                    .arg("replica", ArgValue::U64(r as u64))
                    .arg("cells", ArgValue::U64(chaos.health.reprogram_cells))
                    .arg("energy_pj", ArgValue::F64(chaos.reprogram_energy_pj)),
            );
        }
    }

    /// One canary probe of replica `r` at instant `t`: replay the golden
    /// probe input through the witness and act on the deviation.
    fn probe_replica(&mut self, chaos: &mut ChaosState, p: usize, r: usize, t: u64) {
        let interval = chaos.health.probe_interval_ns.max(1);
        let rc = &mut chaos.parts[p].replicas[r];
        rc.next_probe_ns = t + interval;
        if !rc.state.routable() {
            return; // being repaired; nothing to probe
        }
        let dev = rc.witness.deviation();
        let quarantine = dev >= chaos.health.quarantine_deviation;
        if !quarantine && dev >= chaos.health.warn_deviation && rc.state == ReplicaState::Active {
            rc.state = ReplicaState::Degraded;
        }
        let state = if quarantine {
            ReplicaState::Quarantined
        } else {
            rc.state
        };
        if self.tele.is_enabled() {
            self.tele.record(
                p,
                TraceEvent::new("probe", "health", Phase::Instant, t)
                    .track(trace_pid(p), trace_tid_replica(r))
                    .arg("deviation", ArgValue::F64(dev))
                    .arg("state", ArgValue::Str(state.as_str())),
            );
        }
        if quarantine {
            self.quarantine_replica(chaos, p, r, t, Some(dev));
        }
    }

    /// Commit-time crash lookahead: if an unconsumed planned crash on
    /// replica `r` fires at or before `end`, consume it, count it, and
    /// start the repair. Returns the crash instant.
    fn crash_within(
        &mut self,
        chaos: &mut ChaosState,
        p: usize,
        r: usize,
        end: u64,
    ) -> Option<u64> {
        let pc = &mut chaos.parts[p];
        let last = pc.replicas.len() - 1;
        let i = (pc.cursor..pc.events.len())
            .filter(|&i| !pc.consumed[i])
            .take_while(|&i| pc.events[i].1.at_ns <= end)
            .find(|&i| {
                let e = pc.events[i].1;
                e.kind == FaultKind::Crash && e.replica.min(last) == r
            })?;
        let (_, event) = pc.consume(i);
        self.count_fault(p, &event, r);
        self.quarantine_replica(chaos, p, r, event.at_ns, None);
        Some(event.at_ns)
    }

    /// The `fault` instant on a request orphaned at `t` by the crash of
    /// replica `r`.
    fn trace_orphan(&self, p: usize, meta: &RequestMeta, t: u64, r: usize) {
        if self.tele.is_enabled() {
            self.tele.record(
                p,
                request_event("fault", Phase::AsyncInstant, t, meta)
                    .arg("kind", ArgValue::Str("replica-crash"))
                    .arg("replica", ArgValue::U64(r as u64)),
            );
        }
    }

    /// Re-serves or sheds one request orphaned at instant `now` by its
    /// replica's crash: deadline-free orphans re-queue into the former
    /// (bounded by the retry budget), deadline-bound ones hedge to the
    /// earliest routable sibling when the pipeline fill still fits the
    /// budget, and everything else sheds with
    /// [`ShedReason::ReplicaLost`].
    fn resolve_orphan(
        &mut self,
        chaos: &mut ChaosState,
        p: usize,
        meta: RequestMeta,
        input: Payload,
        mut now: u64,
    ) {
        loop {
            let attempts = chaos.attempts.entry((meta.client, meta.seq)).or_insert(0);
            if *attempts >= chaos.health.max_retries {
                break;
            }
            *attempts += 1;
            let part = &mut self.parts[p];
            let Some(deadline) = meta.deadline_ns else {
                part.ledger.faults.retries += 1;
                part.former.push(
                    RequestMeta {
                        arrival_ns: now,
                        ..meta
                    },
                    input,
                );
                return;
            };
            let pc = &chaos.parts[p];
            let Some(r2) = part.earliest(|i| pc.replicas[i].state.routable()) else {
                break;
            };
            let hstart = now.max(part.free_at[r2]);
            let predicted = hstart + part.price[0].fill_ns;
            if predicted > deadline {
                break;
            }
            part.ledger.faults.hedges += 1;
            match self.crash_within(chaos, p, r2, predicted) {
                // The hedge replica dies too — go around again.
                Some(t) if predicted > t => {
                    self.trace_orphan(p, &meta, t, r2);
                    now = t;
                }
                _ => return self.serve_hedge(p, r2, meta, input, hstart, predicted),
            }
        }
        self.record_shed(p, meta, now, ShedReason::ReplicaLost);
    }

    /// Serves one hedged request as a solo batch on replica `r` —
    /// admission was already granted on the original dispatch, so the
    /// request goes straight to the chip. Hedges are deadline rescues:
    /// they execute, and are charged, at full precision regardless of
    /// the controller, and keep their own trace shape (a `hedge` admit,
    /// no stage spans).
    fn serve_hedge(
        &mut self,
        p: usize,
        r: usize,
        meta: RequestMeta,
        input: Payload,
        start: u64,
        completion: u64,
    ) {
        let tracing = self.tele.is_enabled();
        let full = ExecPrecision::Full;
        let timing = RequestTiming {
            arrival_ns: meta.arrival_ns,
            dispatch_ns: start,
            completion_ns: completion,
        };
        if tracing {
            self.tele.record(
                p,
                request_event("admit", Phase::AsyncInstant, start, &meta)
                    .arg("position", ArgValue::U64(0))
                    .arg("replica", ArgValue::U64(r as u64))
                    .arg("hedge", ArgValue::U64(1)),
            );
        }
        self.record_served(p, &meta, &timing, full);
        let part = &mut self.parts[p];
        let price = part.price[full.index()];
        let makespan = price.fill_ns;
        part.free_at[r] = part.free_at[r].max(start + makespan);
        part.ledger.record_batch(r, 1, makespan, full);
        if tracing {
            self.tele.record(
                p,
                TraceEvent::new("batch", "exec", Phase::Complete, start)
                    .track(trace_pid(p), trace_tid_replica(r))
                    .dur(makespan)
                    .arg("size", ArgValue::U64(1))
                    .arg("trigger", ArgValue::Str("hedge"))
                    .arg("shed", ArgValue::U64(0))
                    .arg("energy_fj", ArgValue::U64(price.hw.energy_fj)),
            );
        }
        let inputs = if self.functional {
            vec![input.expect("functional servers always carry inputs")]
        } else {
            Vec::new()
        };
        let batch = ExecBatch {
            inputs,
            items: vec![ExecItem { meta, timing }],
            tier: full,
        };
        self.ship(p, r, batch);
    }

    /// End-of-session chaos flush: apply any plan events and finish any
    /// repairs the request trace never reached (probes stop with the
    /// traffic). Keeps the injected-fault count a function of the plan
    /// alone and closes every `reprogram` span before export.
    fn finalize_chaos(&mut self) {
        let Some(mut chaos) = self.chaos.take() else {
            return;
        };
        for p in 0..self.parts.len() {
            self.pump_chaos(&mut chaos, p, u64::MAX, false);
        }
        self.chaos = Some(chaos);
    }
}

/// The [`Server`] shell's thread: applies client events to the core,
/// runs its close loop, and sends each completion to its client's
/// channel, until every client has finished and every batch is out.
/// Returns the core for [`Server::try_finish`].
fn run_shell(
    mut core: Scheduler,
    events: Receiver<Event>,
    clients: Vec<Sender<Completion>>,
) -> Scheduler {
    loop {
        core.close_ready();
        for completion in core.outbox() {
            let _ = clients[completion.meta.client].send(completion);
        }
        if core.is_drained() {
            return core;
        }
        match events.recv() {
            Ok(event) => {
                core.apply(event);
                while let Ok(event) = events.try_recv() {
                    core.apply(event);
                }
            }
            // Every sender gone: no more submissions are possible,
            // whatever Done events may have been missed.
            Err(_) => {
                for client in 0..core.clients.len() {
                    core.finish_client(client);
                }
            }
        }
    }
}

/// A running serving session over a [`ChipFleet`] for external clients:
/// the thread-and-channel shell around the scheduler core (see the module
/// docs).
///
/// [`Server::start`] spawns the shell thread, which runs the core (and,
/// on a functional server, the chip execution at the end of each close
/// loop), and returns a [`ClientHandle`] per requested client. Drop (or
/// [`finish`](ClientHandle::finish)) every handle, then call
/// [`Server::finish`] to drain, join, and collect the [`ServerReport`].
#[derive(Debug)]
pub struct Server {
    events: Sender<Event>,
    scheduler: JoinHandle<Scheduler>,
}

impl Scheduler {
    /// Builds the core of a session over `fleet` under `config`, one
    /// client per entry of `specs`: per-partition formers, service laws,
    /// forked policies, ledgers and metric handles, plus the armed
    /// chaos, scrape and alert planes.
    ///
    /// # Errors
    ///
    /// [`ServerError::NoClients`] when `specs` is empty;
    /// [`ServerError::UnknownTenant`] when a spec names a tenant class
    /// the config does not declare.
    pub(crate) fn new(
        fleet: &ChipFleet,
        config: &ServerConfig,
        specs: &[ClientSpec],
    ) -> Result<Scheduler, ServerError> {
        if specs.is_empty() {
            return Err(ServerError::NoClients);
        }
        for spec in specs {
            if spec.tenant >= config.tenants.len() {
                return Err(ServerError::UnknownTenant {
                    tenant: spec.tenant,
                    tenants: config.tenants.len(),
                });
            }
        }
        let tele = config.telemetry.clone();
        if tele.is_enabled() {
            tele.name_process(TRACE_PID_SCHED, "scheduler");
            for (t, class) in config.tenants.iter().enumerate() {
                tele.name_thread(TRACE_PID_SCHED, t as u32, &class.name);
            }
        }

        let mut parts = Vec::with_capacity(fleet.partition_count());
        for (pi, partition) in fleet.partitions().iter().enumerate() {
            let chip = partition.chip();
            let analytic = chip.pipeline_report();
            let stage_lat = chip.stage_latency_profile_ns();
            // Per-tier pricing, computed once: analytic latencies scaled
            // by each tier's live-phase ratio and the tier-repriced
            // hardware-per-image counters.
            let price = ExecPrecision::ALL.map(|tier| {
                let ratio = chip.phase_ratio(tier);
                TierPrice {
                    fill_ns: (analytic.fill_latency_ns() * ratio).round() as u64,
                    steady_ns: (analytic.steady_interval_ns() * ratio).round() as u64,
                    ratio,
                    hw: chip.hardware_per_image_at(tier),
                }
            });
            if tele.is_enabled() {
                let pid = trace_pid(pi);
                tele.name_process(pid, &format!("partition{pi}:{}", chip.name()));
                tele.name_thread(pid, TRACE_TID_AUTOSCALE, "autoscale");
                for r in 0..partition.replicas() {
                    tele.name_thread(pid, trace_tid_replica(r), &format!("replica{r}"));
                    for k in 0..stage_lat.len().min(TRACE_STAGE_SLOTS as usize) {
                        tele.name_thread(pid, trace_tid_stage(r, k), &format!("r{r} stage{k}"));
                    }
                }
            }
            let autoscaler = config
                .autoscale
                .map(|cfg| Autoscaler::new(cfg, pi, partition.replicas(), config.tenants.len()));
            let active = autoscaler
                .as_ref()
                .map_or(partition.replicas(), Autoscaler::initial_active);
            let (metrics, obs) = PartitionMetrics::bind(&tele, config, pi, active);
            parts.push(PartitionState {
                former: BatchFormer::new(config.max_batch, config.max_wait_ns),
                price,
                stage_lat,
                policy: config.policy.fork(),
                chip: partition.replica_chip(),
                analytic_fill_ns: analytic.fill_latency_ns(),
                analytic_steady_ns: analytic.steady_interval_ns(),
                replica_stats: (0..partition.replicas())
                    .map(|_| ReplicaStats::default())
                    .collect(),
                replicas: (0..partition.replicas())
                    .filter(|_| config.functional)
                    .map(|_| {
                        let chip = partition.replica_chip();
                        Replica {
                            analytic: analytic.clone(),
                            scratch: chip.make_scratch(),
                            golden: None,
                            queue: Vec::new(),
                            chip,
                        }
                    })
                    .collect(),
                free_at: vec![0; partition.replicas()],
                active,
                autoscaler,
                scale_events: Vec::new(),
                brownout: config.brownout.map(|cfg| BrownoutController::new(cfg, pi)),
                brownout_events: Vec::new(),
                ledger: Ledger {
                    cells: config.tenants.iter().map(|_| Cell::default()).collect(),
                    per_replica: vec![(0, 0, 0); partition.replicas()],
                    batch_sizes: LatencyHistogram::new(),
                    images_by_tier: [0; 3],
                    faults: Faults::default(),
                },
                metrics,
                obs,
            });
        }

        // Arm the chaos layer: split the fault plan per partition
        // (global event indices keep their per-event seeds), seed one
        // canary witness per provisioned replica as a pure function of
        // (plan seed, partition, replica), and price the repair outage
        // from the paper's cost model once up front.
        let chaos = config.fault_plan.as_ref().map(|plan| {
            let health = config.health;
            let repro = CostModel::paper_default().reprogram_cost(health.reprogram_cells);
            let n_parts = fleet.partition_count();
            let chaos_parts = fleet
                .partitions()
                .iter()
                .enumerate()
                .map(|(pi, partition)| {
                    let events: Vec<(u64, FaultEvent)> = plan
                        .events()
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.partition.min(n_parts - 1) == pi)
                        .map(|(gi, e)| (plan.event_seed(gi), *e))
                        .collect();
                    let consumed = vec![false; events.len()];
                    let replicas = (0..partition.replicas())
                        .map(|r| ReplicaChaos {
                            state: ReplicaState::Active,
                            witness: Witness::new(
                                plan.seed() ^ ((pi as u64) << 32) ^ (0x5EED << 16) ^ r as u64,
                            ),
                            next_probe_ns: health.probe_interval_ns.max(1),
                            repair_until_ns: None,
                        })
                        .collect();
                    PartChaos {
                        events,
                        consumed,
                        cursor: 0,
                        replicas,
                    }
                })
                .collect();
            ChaosState {
                health,
                reprogram_ns: repro.latency_ns.round() as u64,
                reprogram_energy_pj: repro.energy_pj,
                parts: chaos_parts,
                attempts: HashMap::new(),
            }
        });

        let mut designs: Vec<String> = Vec::new();
        for p in fleet.partitions() {
            let label = p.chip().design().label().to_string();
            if !designs.contains(&label) {
                designs.push(label);
            }
        }
        let info = SessionInfo {
            network: fleet
                .partitions()
                .iter()
                .map(|p| p.chip().name())
                .collect::<Vec<_>>()
                .join("+"),
            design: designs.join("+"),
            replicas: fleet.replicas(),
            max_batch: config.max_batch,
            max_wait_ns: config.max_wait_ns,
            policy: config.policy.name().to_string(),
            tenant_classes: config.tenants.clone(),
            partition_names: fleet
                .partitions()
                .iter()
                .map(|p| p.chip().name().to_string())
                .collect(),
            alert_policy: (config.scrape.is_some() && tele.is_enabled()).then(AlertPolicy::default),
        };
        Ok(Scheduler {
            clients: specs
                .iter()
                .map(|spec| ClientState {
                    mode: spec.mode,
                    done: false,
                    in_flight: 0,
                    watermark_ns: 0,
                })
                .collect(),
            parts,
            tele,
            floors: config.tenants.iter().map(|c| c.precision_floor).collect(),
            slos: config.tenants.iter().map(|c| c.slo_ns).collect(),
            functional: config.functional,
            chaos,
            first_arrival_ns: u64::MAX,
            last_completion_ns: 0,
            verdicts: Vec::new(),
            outbox: Vec::new(),
            info,
        })
    }

    /// Ends the session and assembles its report: applies the plan
    /// events and repairs the traffic never reached, publishes the
    /// ledger and flushes the last scrape window, and folds the ledger
    /// into a [`ServerReport`] — per partition, per tenant, and in
    /// total. Called once the driver has stopped submitting and every
    /// batch has closed ([`Scheduler::is_drained`]); every executed
    /// batch is already in `replica_stats`.
    pub(crate) fn finish(mut self) -> ServerReport {
        self.finalize_chaos();
        self.flush_observability();
        let mut alerts: Vec<AlertReport> = Vec::new();
        for part in &mut self.parts {
            if let Some(obs) = part.obs.take() {
                alerts.extend(obs.into_reports());
            }
        }
        let first_arrival_ns = if self.first_arrival_ns == u64::MAX {
            0
        } else {
            self.first_arrival_ns
        };
        let span_ns = self.last_completion_ns.saturating_sub(first_arrival_ns);
        let mut replica_reports = Vec::with_capacity(self.info.replicas);
        for (pi, part) in self.parts.iter().enumerate() {
            let ledgers = part.replica_stats.iter().zip(&part.ledger.per_replica);
            for (ri, (s, &(batches, images, busy_ns))) in ledgers.enumerate() {
                replica_reports.push(ReplicaReport {
                    partition: pi,
                    replica: ri,
                    batches,
                    images,
                    busy_ns,
                    utilization: if span_ns == 0 {
                        0.0
                    } else {
                        busy_ns as f64 / span_ns as f64
                    },
                    host_ns: s.host_ns,
                });
            }
        }
        let partition_reports = self
            .parts
            .iter()
            .zip(&self.info.partition_names)
            .enumerate()
            .map(|(pi, (part, network))| {
                let cell = Cell::sum(&part.ledger.cells);
                let (batches, modeled_busy_ns) = part.ledger.charged();
                PartitionReport {
                    partition: pi,
                    network: network.clone(),
                    replicas_provisioned: part.free_at.len(),
                    replicas_active: part.active,
                    offered: cell.offered,
                    served: cell.served,
                    shed: cell.shed,
                    batches,
                    total: cell.total,
                    modeled_busy_ns,
                    runtime_modeled_ns: part
                        .replica_stats
                        .iter()
                        .map(|s| s.runtime_modeled_ns)
                        .sum(),
                    batches_reconciled: part.replica_stats.iter().all(|s| s.unreconciled == 0),
                    scale_events: part.scale_events.clone(),
                    brownout_events: part.brownout_events.clone(),
                    served_by_tier: cell.served_by_tier.to_vec(),
                }
            })
            .collect::<Vec<_>>();
        let tele = &self.tele;
        let tenant_reports = self
            .info
            .tenant_classes
            .iter()
            .enumerate()
            .map(|(ti, class)| {
                let cell = Cell::sum(self.parts.iter().map(|p| &p.ledger.cells[ti]));
                // The metrics plane's latency summaries are folds of the
                // ledger too, taken once at shutdown.
                tele.histogram(
                    "red_request_queue_wait_ns",
                    "Virtual-clock queue wait per served request",
                    &[("tenant", &class.name)],
                )
                .merge(&cell.queue_wait);
                tele.histogram(
                    "red_request_total_ns",
                    "Virtual-clock arrival-to-completion latency per served request",
                    &[("tenant", &class.name)],
                )
                .merge(&cell.total);
                TenantReport {
                    tenant: ti,
                    name: class.name.clone(),
                    weight: class.weight,
                    priority: class.priority,
                    slo_ns: class.slo_ns,
                    offered: cell.offered,
                    served: cell.served,
                    shed: cell.shed,
                    queue_wait: cell.queue_wait,
                    total: cell.total,
                }
            })
            .collect();
        let stats: Vec<&ReplicaStats> = self.parts.iter().flat_map(|p| &p.replica_stats).collect();
        let max_observed_error = stats
            .iter()
            .map(|s| s.max_observed_error)
            .fold(0.0, f64::max);
        let precision_error_bound = stats.iter().map(|s| s.error_bound).fold(0.0, f64::max);
        // The end-of-session `error-bound` rule: the worst observed
        // degradation error has consumed the policy's margin of the
        // advertised worst-case bound. Evaluated here because the
        // observed error exists only once every batch has executed; it
        // never resolves (there is nothing after session end to calm
        // down).
        if let Some(policy) = &self.info.alert_policy {
            if policy.error_bound_breached(max_observed_error, precision_error_bound) {
                tele.counter(
                    "red_alerts_fired_total",
                    "Alert-rule fire edges",
                    &[("rule", "error-bound")],
                )
                .add(1);
                alerts.push(AlertReport {
                    partition: 0,
                    rule: "error-bound".to_string(),
                    tenant: None,
                    fired_at_ns: self.last_completion_ns,
                    resolved_at_ns: None,
                    value: max_observed_error / precision_error_bound,
                });
            }
        }
        let all = Cell::sum(self.parts.iter().flat_map(|p| &p.ledger.cells));
        let (mut batches, mut modeled_busy_ns) = (0, 0);
        let mut batch_sizes = LatencyHistogram::new();
        let mut faults = Faults::default();
        for ledger in self.parts.iter().map(|p| &p.ledger) {
            let (b, busy_ns) = ledger.charged();
            batches += b;
            modeled_busy_ns += busy_ns;
            batch_sizes.merge(&ledger.batch_sizes);
            faults.injected += ledger.faults.injected;
            faults.reprograms += ledger.faults.reprograms;
            faults.retries += ledger.faults.retries;
            faults.hedges += ledger.faults.hedges;
        }
        ServerReport {
            network: self.info.network,
            design: self.info.design,
            replicas: self.info.replicas,
            clients: self.clients.len(),
            max_batch: self.info.max_batch,
            max_wait_ns: self.info.max_wait_ns,
            policy: self.info.policy,
            functional: self.functional,
            offered: all.offered,
            served: all.served,
            shed: all.shed,
            failed: stats.iter().map(|s| s.failed).sum(),
            batches,
            queue_wait: all.queue_wait,
            execute: all.execute,
            total: all.total,
            shed_wait: all.shed_wait,
            batch_sizes,
            first_arrival_ns,
            last_completion_ns: self.last_completion_ns,
            modeled_busy_ns,
            runtime_modeled_ns: stats.iter().map(|s| s.runtime_modeled_ns).sum(),
            batches_reconciled: stats.iter().all(|s| s.unreconciled == 0),
            tenant_reports,
            partition_reports,
            replica_reports,
            host_exec_ns: stats.iter().map(|s| s.host_ns).sum(),
            first_error: stats.iter().find_map(|s| s.first_error.clone()),
            sheds_by_reason: ShedReason::ALL
                .iter()
                .zip(all.sheds_by_reason)
                .map(|(reason, n)| (reason.as_str().to_string(), n))
                .collect(),
            faults_injected: faults.injected,
            reprograms: faults.reprograms,
            retries: faults.retries,
            hedges: faults.hedges,
            served_by_tier: ExecPrecision::ALL
                .iter()
                .map(|t| (t.name().to_string(), all.served_by_tier[t.index()]))
                .collect(),
            max_observed_error,
            precision_error_bound,
            alerts,
        }
    }
}

impl Server {
    /// Starts serving: one shell thread running the scheduler core, which
    /// on a functional server also executes each close loop's batches
    /// (on scoped threads while more than one replica has work), and one
    /// [`ClientHandle`] per entry of `clients`. Accepts `&[ClientMode]`
    /// (every client under tenant 0) or `&[ClientSpec]` for multi-tenant
    /// registration. [`crate::drive`] needs no shell: it runs the core
    /// on the calling thread.
    ///
    /// # Errors
    ///
    /// [`ServerError::NoClients`] when `clients` is empty;
    /// [`ServerError::UnknownTenant`] when a spec names a tenant class
    /// the config does not declare.
    pub fn start<S>(
        fleet: &ChipFleet,
        config: &ServerConfig,
        clients: &[S],
    ) -> Result<(Server, Vec<ClientHandle>), ServerError>
    where
        S: Clone + Into<ClientSpec>,
    {
        let specs: Vec<ClientSpec> = clients.iter().cloned().map(Into::into).collect();
        let core = Scheduler::new(fleet, config, &specs)?;
        let expected_shapes = Arc::new(
            fleet
                .partitions()
                .iter()
                .map(|p| p.chip().input_shape())
                .collect::<Vec<_>>(),
        );
        let (event_tx, event_rx) = channel::<Event>();
        let (completion_tx, completion_rx): (Vec<_>, Vec<_>) =
            specs.iter().map(|_| channel::<Completion>()).unzip();
        let scheduler = std::thread::spawn(move || run_shell(core, event_rx, completion_tx));
        let handles = specs
            .iter()
            .zip(completion_rx)
            .enumerate()
            .map(|(id, (spec, completions))| ClientHandle {
                id,
                tenant: spec.tenant,
                seq: 0,
                last_arrival_ns: 0,
                expected_shapes: Arc::clone(&expected_shapes),
                functional: config.functional,
                events: event_tx.clone(),
                completions,
                done: false,
            })
            .collect();
        Ok((
            Server {
                events: event_tx,
                scheduler,
            },
            handles,
        ))
    }

    /// Drains outstanding work, joins the shell thread, and returns the
    /// session report. Every [`ClientHandle`] must be finished or
    /// dropped first, or this blocks waiting for them.
    ///
    /// # Panics
    ///
    /// Panics with [`ServerError::SchedulerFailed`] when the shell thread
    /// died (a panicking custom [`AdmissionPolicy`] or chip execution
    /// surfaces here) — use [`Server::try_finish`] to handle that case
    /// as a value.
    pub fn finish(self) -> ServerReport {
        match self.try_finish() {
            Ok(report) => report,
            Err(e) => panic!("server shutdown failed: {e}"),
        }
    }

    /// [`Server::finish`], but a dead shell thread comes back as a value
    /// instead of a panic: [`ServerError::SchedulerFailed`] carries its
    /// panic message (the core owns the virtual clock, so there is no
    /// meaningful report without it).
    ///
    /// # Errors
    ///
    /// [`ServerError::SchedulerFailed`] when the shell thread panicked,
    /// in the scheduler or in chip execution.
    pub fn try_finish(self) -> Result<ServerReport, ServerError> {
        drop(self.events);
        match self.scheduler.join() {
            Ok(core) => Ok(core.finish()),
            Err(payload) => Err(ServerError::SchedulerFailed {
                message: panic_message(&*payload),
            }),
        }
    }
}

/// The message a panic carried, for [`ServerError::SchedulerFailed`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

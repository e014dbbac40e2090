//! # red-server
//!
//! Online serving subsystem for the RED reproduction: where
//! `red-runtime` executes a pre-collected batch through one chip and
//! returns when it drains, this crate serves **live traffic** — requests
//! arriving one by one on a queue, answered under latency objectives —
//! the way a production ReRAM inference fleet would sit behind user
//! load.
//!
//! The subsystem's parts:
//!
//! * a **[`ChipFleet`]** hosts one or more resident networks, each on
//!   its own **partition** of N replicas of a compiled
//!   `red_runtime::Chip`. Replication is `Arc`-shallow (one copy of the
//!   programmed crossbars, per-replica scratch) but priced honestly:
//!   the fleet reports the aggregate floorplan of all physical chips
//!   across partitions;
//! * a **[`Server`]** runs the dynamic micro-batching scheduler — a
//!   synchronous core that its driver feeds client events and drains
//!   completions from, and that executes functional batches itself at
//!   the end of each close loop, wrapped in a thread-and-channel shell
//!   for external clients: requests arrive with virtual-clock
//!   timestamps, optional deadlines, and a network routing tag; each partition's
//!   [`BatchFormer`] closes a batch on `max_batch` **or** `max_wait`
//!   (whichever first), and an [`AdmissionPolicy`] decides at dispatch
//!   which requests are still worth the chip time. Batching matters
//!   because the chip is a layer pipeline: a batch of B costs
//!   `fill + (B-1)·steady` modeled time, so larger batches amortize the
//!   pipeline fill (the DAC/ADC-dominated stage latencies) across
//!   outputs;
//! * **multi-tenant admission**: clients register under
//!   [`TenantClass`]es (weight, priority tier, per-class SLO) via
//!   [`ClientSpec`]; [`WeightedFair`] shares capacity by weight under
//!   overload and [`StrictPriority`] pins high tiers at the expense of
//!   low ones, alongside the tenant-blind [`Fifo`] and
//!   [`DeadlineShed`]. Reports break admission and latency down per
//!   tenant ([`TenantReport`]) — the tail-latency isolation evidence in
//!   `BENCH_loadgen.json`;
//! * **replica autoscaling** ([`AutoscaleConfig`]): each partition
//!   scales its active replica count from trace-deterministic
//!   queue-depth and utilization signals on the virtual clock, with
//!   cooldown hysteresis, logging every step as a [`ScaleEvent`];
//! * **brownout overload control** ([`BrownoutConfig`]): each partition
//!   steps its execution tier `Full → Eco → Brownout`
//!   ([`ExecPrecision`]) from the same trace-deterministic signals the
//!   autoscaler reads — queue depth, window sheds, and health-plane
//!   capacity loss — serving degraded-but-bounded-error outputs
//!   instead of shedding. [`TenantClass::precision_floor`] pins
//!   latency-sensitive tenants to bit-exact service, and reports carry
//!   every tier transition ([`BrownoutEvent`]) plus served-per-tier
//!   counts and observed-vs-advertised error accounting;
//! * **deterministic chaos & self-healing** ([`FaultPlan`],
//!   [`HealthConfig`]): seeded, virtual-clock-scheduled replica
//!   crashes/stalls, retention-drift advances, and stuck-at strikes; a
//!   canary prober replays a golden probe per replica and drives the
//!   `Active → Degraded → Quarantined → Reprogramming → Active` repair
//!   state machine ([`ReplicaState`]), with reprogram outages priced by
//!   `red_arch::CostModel::reprogram_cost`. Requests orphaned by a
//!   crash are re-queued, hedged to a sibling, or shed with
//!   [`ShedReason::ReplicaLost`] — never silently lost (proptested in
//!   `tests/chaos_serving.rs`);
//! * a **[`ServerReport`]** aggregates per-request lifecycle accounting
//!   (queue wait, execute, total) into HDR-style log-bucketed
//!   [`LatencyHistogram`]s with p50/p95/p99/p999 — per session, per
//!   tenant, and per partition ([`PartitionReport`]) — and reconciles
//!   the scheduler's virtual charge against the replicas' own
//!   accounting ([`ServerReport::reconciles`]);
//! * a **load generator** ([`drive`]) pushes closed-loop or open-loop
//!   (Poisson-arrival) multi-tenant traffic through the scheduler core
//!   on the calling thread, with no shell thread or channel in between,
//!   in memory bounded by a per-client window, which sustains
//!   10⁶-request runs; exposed on the command line as
//!   `red-bench --bin loadgen`.
//!
//! Served outputs are **bit-exact** against `Chip::run_sequential` of
//! the same inputs: the scheduler changes *when and together with what*
//! requests execute, never what they compute (asserted in
//! `tests/server_serving.rs`). For statistics at scales where
//! functional execution is beside the point, model-only serving
//! ([`ServerConfig::model_only`]) keeps every virtual-clock figure and
//! skips the chip work.
//!
//! # Example
//!
//! ```
//! use red_server::{ChipFleet, ServerConfig, Server, ClientMode, DeadlineShed};
//! use red_runtime::ChipBuilder;
//! use red_workloads::{networks, synth};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stack = networks::sngan_generator(64)?;
//! let chip = ChipBuilder::new().compile_seeded(&stack, 5, 42)?;
//! let fleet = ChipFleet::new(chip, 2)?;
//! let config = ServerConfig::new()
//!     .max_batch(4)
//!     .max_wait_ns(2_000)
//!     .policy(DeadlineShed);
//! let (server, mut clients) = Server::start(&fleet, &config, &[ClientMode::Closed])?;
//! let input = synth::input_dense(&stack.layers[0], 40, 7);
//! let reply = clients[0].call(input, 0, Some(10_000_000))?;
//! assert!(reply.outcome.is_served());
//! drop(clients);
//! let report = server.finish();
//! assert_eq!(report.served, 1);
//! assert!(report.reconciles());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod autoscale;
mod brownout;
mod error;
mod fault;
mod fleet;
mod former;
mod health;
mod loadgen;
mod policy;
mod report;
mod request;
mod server;
mod tenant;

pub use autoscale::{AutoscaleConfig, ScaleEvent};
pub use brownout::{BrownoutConfig, BrownoutEvent};
pub use error::ServerError;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use fleet::{ChipFleet, FleetFloorplan, FleetPartition, PartitionFloorplan};
pub use former::{BatchFormer, CloseTrigger, FormedBatch};
pub use health::{HealthConfig, ReplicaState};
pub use loadgen::{drive, LoadMode, LoadgenConfig};
pub use policy::{
    policy_by_name, policy_for, AdmissionPolicy, DeadlineShed, Fifo, ServiceEstimate, ShedReason,
    StrictPriority, WeightedFair,
};
pub use red_runtime::ExecPrecision;
pub use red_telemetry::{AlertPolicy, LatencyHistogram, ScrapeConfig};
pub use report::{AlertReport, PartitionReport, ReplicaReport, ServerReport, TenantReport};
pub use request::{ClientId, Completion, Outcome, RequestMeta, RequestTiming};
pub use server::{ClientHandle, ClientMode, ClientSpec, Server, ServerConfig};
pub use tenant::{TenantClass, TenantId};

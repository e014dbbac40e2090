//! Aggregate serving statistics and the modeled-time reconciliation.

use crate::autoscale::ScaleEvent;
use crate::brownout::BrownoutEvent;
use red_telemetry::LatencyHistogram;

/// One alert-rule episode on the virtual clock: a fire edge and, when
/// the session saw one, the matching resolve. Episodes are produced by
/// the deterministic `AlertEngine` over the scrape-window sequence, so
/// two replays of the same trace report byte-identical episodes.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertReport {
    /// Partition whose windows the rule evaluated on (session-scope
    /// rules such as `error-bound` report partition 0).
    pub partition: usize,
    /// Rule name (`fast-burn`, `slow-burn`, `replica-lost`,
    /// `quarantine`, `error-bound`).
    pub rule: String,
    /// Tenant scope (burn-rate rules); `None` for partition- or
    /// session-scope rules.
    pub tenant: Option<usize>,
    /// Virtual instant the rule fired.
    pub fired_at_ns: u64,
    /// Virtual instant the rule resolved; `None` when still firing at
    /// session end.
    pub resolved_at_ns: Option<u64>,
    /// Rule value at the fire edge (burn rate, lost-shed count, replica
    /// deficit, or observed-over-bound error ratio).
    pub value: f64,
}

/// Per-replica serving statistics.
#[derive(Debug, Clone)]
pub struct ReplicaReport {
    /// Fleet partition the replica belongs to.
    pub partition: usize,
    /// Replica index within its partition.
    pub replica: usize,
    /// Batches this replica executed.
    pub batches: u64,
    /// Images this replica served.
    pub images: u64,
    /// Modeled busy time on the virtual clock, in ns.
    pub busy_ns: u64,
    /// `busy_ns` over the serving span (0 when the span is empty).
    pub utilization: f64,
    /// Host wall-clock the replica's functional execution took, in ns.
    pub host_ns: u128,
}

/// Per-tenant serving statistics — the isolation evidence: under
/// overload a tenant-aware policy keeps a latency-sensitive tenant's
/// `total` tail pinned while a best-effort tenant's `shed` absorbs the
/// excess.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant index (into `ServerConfig::tenants`).
    pub tenant: usize,
    /// Tenant class name.
    pub name: String,
    /// Weighted-fair share weight.
    pub weight: f64,
    /// Strict-priority tier (0 = highest).
    pub priority: u32,
    /// Per-request SLO, in ns (`None` = best-effort).
    pub slo_ns: Option<u64>,
    /// Requests this tenant's clients submitted.
    pub offered: u64,
    /// Requests executed (admitted).
    pub served: u64,
    /// Requests rejected by the admission policy.
    pub shed: u64,
    /// Queue-wait latency of the tenant's served requests.
    pub queue_wait: LatencyHistogram,
    /// End-to-end latency of the tenant's served requests.
    pub total: LatencyHistogram,
}

/// Per-partition (resident network) serving statistics, each carrying
/// its own ledger cross-check so a multi-network report still
/// `reconciles` partition by partition.
#[derive(Debug, Clone)]
pub struct PartitionReport {
    /// Partition index (the request routing tag).
    pub partition: usize,
    /// Network name the partition serves.
    pub network: String,
    /// Replicas provisioned in the fleet.
    pub replicas_provisioned: usize,
    /// Active replicas when the session ended (equals provisioned when
    /// autoscaling is off).
    pub replicas_active: usize,
    /// Requests routed to this partition.
    pub offered: u64,
    /// Requests executed here.
    pub served: u64,
    /// Requests shed at this partition's dispatch.
    pub shed: u64,
    /// Batches this partition executed.
    pub batches: u64,
    /// End-to-end latency of this partition's served requests.
    pub total: LatencyHistogram,
    /// Virtual busy time the scheduler charged this partition.
    pub modeled_busy_ns: u64,
    /// The same quantity re-derived on this partition's replicas' side.
    pub runtime_modeled_ns: u64,
    /// `true` while every batch's measured schedule also reconciled
    /// with the partition chip's analytic `PipelineReport`.
    pub batches_reconciled: bool,
    /// Applied autoscaling decisions, in virtual-clock order.
    pub scale_events: Vec<ScaleEvent>,
    /// Applied brownout tier transitions, in virtual-clock order
    /// (empty without `ServerConfig::brownout`).
    pub brownout_events: Vec<BrownoutEvent>,
    /// Requests served at each execution tier, indexed by
    /// `ExecPrecision::index()` (`[full, eco, brownout]`; everything in
    /// `full` without brownout control).
    pub served_by_tier: Vec<u64>,
}

impl PartitionReport {
    /// Scheduler-vs-replicas ledger agreement for this partition (same
    /// tolerance as [`ServerReport::reconciles`]: 1 ppb plus one ns of
    /// rounding skew per batch).
    pub fn reconciles(&self) -> bool {
        let (a, b) = (self.modeled_busy_ns as f64, self.runtime_modeled_ns as f64);
        let tol = 1e-9 * a.max(b) + self.batches as f64;
        self.batches_reconciled && (a - b).abs() <= tol.max(1.0)
    }
}

/// Everything one serving session measured.
///
/// All latency figures are **virtual** (modeled hardware time — see
/// `crate::request`); host time appears only in the `host_*` fields.
///
/// # Reconciliation
///
/// The scheduler charges every dispatched batch the chip's *analytic*
/// pipelined schedule (`fill + (B-1)·steady`, from
/// `red_arch::PipelineReport`) on the virtual clock, before the batch
/// ever executes. Each replica independently re-derives the same
/// quantity from the **measured** `red_runtime::RuntimeReport` of its
/// actual execution (per-stage issued cycles priced at cost-model cycle
/// times). [`ServerReport::reconciles`] checks the two ledgers agree —
/// per partition and in aggregate — the serving-layer analogue of
/// `RuntimeReport::reconciles_with(PipelineReport)`, and a genuine
/// cross-check: a scheduler that loses or double-charges a batch, or an
/// engine whose dataflow diverges from its priced geometry, breaks it.
///
/// In model-only mode (`functional == false`) nothing executes: the
/// scheduler core re-derives each batch's replica-side charge from the
/// chip's analytic schedule and `Chip::phase_ratio`, apart from the
/// tier tables it priced the batch with, so the cross-check degrades to
/// a batch-conservation and tier-pricing check (every batch the
/// scheduler charged was sized and priced identically) rather than an
/// independent measurement — reports say so via `functional`.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Network name(s) the fleet serves (`+`-joined across partitions).
    pub network: String,
    /// Design label of the replicas (`+`-joined when partitions mix).
    pub design: String,
    /// Total provisioned replica count.
    pub replicas: usize,
    /// Registered client count.
    pub clients: usize,
    /// Batch-size bound the former ran with.
    pub max_batch: usize,
    /// Forming-window bound, in ns.
    pub max_wait_ns: u64,
    /// Admission policy name.
    pub policy: String,
    /// `false` when the session ran model-only (virtual clock exact,
    /// functional outputs skipped).
    pub functional: bool,

    /// Requests submitted.
    pub offered: u64,
    /// Requests executed (admitted).
    pub served: u64,
    /// Requests rejected by the admission policy.
    pub shed: u64,
    /// Requests whose host execution failed after admission (0 for
    /// shape-validated inputs).
    pub failed: u64,
    /// Executed batches.
    pub batches: u64,

    /// Queue-wait latency of served requests (arrival → dispatch).
    pub queue_wait: LatencyHistogram,
    /// Modeled execution latency of served requests (dispatch → output).
    pub execute: LatencyHistogram,
    /// End-to-end latency of served requests (arrival → output).
    pub total: LatencyHistogram,
    /// Wait absorbed by shed requests before rejection.
    pub shed_wait: LatencyHistogram,
    /// Executed batch sizes (recorded as "latencies" of B ns — exact,
    /// since sizes are far below the histogram's linear range).
    pub batch_sizes: LatencyHistogram,

    /// First virtual arrival, in ns.
    pub first_arrival_ns: u64,
    /// Last virtual completion (served or shed), in ns.
    pub last_completion_ns: u64,
    /// Virtual busy time the scheduler charged, summed over batches.
    pub modeled_busy_ns: u64,
    /// The same quantity re-derived on the replicas' side: from
    /// measured `RuntimeReport`s, or per model-only batch
    /// from the chip's analytic schedule.
    pub runtime_modeled_ns: u64,
    /// `true` while every executed batch's measured schedule also
    /// reconciled with the chip's analytic `PipelineReport`.
    pub batches_reconciled: bool,
    /// Per-tenant statistics, in `ServerConfig::tenants` order.
    pub tenant_reports: Vec<TenantReport>,
    /// Per-partition statistics, in routing-tag order.
    pub partition_reports: Vec<PartitionReport>,
    /// Per-replica statistics across partitions.
    pub replica_reports: Vec<ReplicaReport>,
    /// Host wall-clock spent in functional execution across replicas.
    pub host_exec_ns: u128,
    /// First execution error message, if any batch failed.
    pub first_error: Option<String>,

    /// Sheds broken down by reason, one `(label, count)` entry per
    /// `ShedReason::ALL` member (zero entries included, stable order).
    pub sheds_by_reason: Vec<(String, u64)>,
    /// Fault-plan events the scheduler injected.
    pub faults_injected: u64,
    /// Replica reprogram (repair) cycles started.
    pub reprograms: u64,
    /// Requests re-queued after losing their replica mid-batch.
    pub retries: u64,
    /// Requests hedged to a sibling replica to make their deadline.
    pub hedges: u64,

    /// Requests served at each execution tier, one `(label, count)`
    /// entry per `ExecPrecision::ALL` member (zero entries included,
    /// stable order). Everything lands in `full` without brownout
    /// control.
    pub served_by_tier: Vec<(String, u64)>,
    /// Largest output deviation any degraded functional batch actually
    /// produced against its full-precision re-execution (0 for
    /// brownout-free or model-only sessions).
    pub max_observed_error: f64,
    /// Largest worst-case output error bound
    /// (`Chip::truncation_error_bound`) of any tier the session
    /// executed at — `max_observed_error` must stay at or below this.
    pub precision_error_bound: f64,
    /// Alert episodes the session's `AlertEngine` produced, in fire
    /// order per partition (empty without `ServerConfig::scrape`).
    pub alerts: Vec<AlertReport>,
}

impl ServerReport {
    /// The virtual serving span (first arrival to last completion).
    pub fn span_ns(&self) -> u64 {
        self.last_completion_ns
            .saturating_sub(self.first_arrival_ns)
    }

    /// Served throughput over the span, in images per second (virtual).
    pub fn served_per_s(&self) -> f64 {
        if self.span_ns() == 0 {
            0.0
        } else {
            self.served as f64 * 1e9 / self.span_ns() as f64
        }
    }

    /// Offered load over the span, in requests per second (virtual).
    pub fn offered_per_s(&self) -> f64 {
        if self.span_ns() == 0 {
            0.0
        } else {
            self.offered as f64 * 1e9 / self.span_ns() as f64
        }
    }

    /// Mean executed batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.served as f64 / self.batches as f64
        }
    }

    /// Host-side serving throughput, in images per second.
    pub fn host_images_per_s(&self) -> f64 {
        if self.host_exec_ns == 0 {
            0.0
        } else {
            self.served as f64 * 1e9 / self.host_exec_ns as f64
        }
    }

    /// `true` when the scheduler's virtual charge agrees with the
    /// replicas' measured re-derivation (1 ppb, plus per-batch rounding)
    /// — in aggregate **and** partition by partition — and every
    /// batch's own `RuntimeReport` reconciled with the analytic
    /// pipeline prediction. See the type docs.
    pub fn reconciles(&self) -> bool {
        let (a, b) = (self.modeled_busy_ns as f64, self.runtime_modeled_ns as f64);
        // Each batch charge is rounded to whole ns on both ledgers; allow
        // one ns of rounding skew per batch on top of the relative band.
        let tol = 1e-9 * a.max(b) + self.batches as f64;
        self.batches_reconciled
            && (a - b).abs() <= tol.max(1.0)
            && self.partition_reports.iter().all(|p| p.reconciles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ServerReport {
        ServerReport {
            network: "net".into(),
            design: "RED".into(),
            replicas: 2,
            clients: 4,
            max_batch: 8,
            max_wait_ns: 1_000,
            policy: "fifo".into(),
            functional: true,
            offered: 100,
            served: 90,
            shed: 10,
            failed: 0,
            batches: 30,
            queue_wait: LatencyHistogram::new(),
            execute: LatencyHistogram::new(),
            total: LatencyHistogram::new(),
            shed_wait: LatencyHistogram::new(),
            batch_sizes: LatencyHistogram::new(),
            first_arrival_ns: 1_000,
            last_completion_ns: 10_001_000,
            modeled_busy_ns: 5_000_000,
            runtime_modeled_ns: 5_000_010,
            batches_reconciled: true,
            tenant_reports: Vec::new(),
            partition_reports: vec![PartitionReport {
                partition: 0,
                network: "net".into(),
                replicas_provisioned: 2,
                replicas_active: 2,
                offered: 100,
                served: 90,
                shed: 10,
                batches: 30,
                total: LatencyHistogram::new(),
                modeled_busy_ns: 5_000_000,
                runtime_modeled_ns: 5_000_010,
                batches_reconciled: true,
                scale_events: Vec::new(),
                brownout_events: Vec::new(),
                served_by_tier: vec![90, 0, 0],
            }],
            replica_reports: Vec::new(),
            host_exec_ns: 2_000_000,
            first_error: None,
            sheds_by_reason: Vec::new(),
            faults_injected: 0,
            reprograms: 0,
            retries: 0,
            hedges: 0,
            served_by_tier: vec![
                ("full".into(), 90),
                ("eco".into(), 0),
                ("brownout".into(), 0),
            ],
            max_observed_error: 0.0,
            precision_error_bound: 0.0,
            alerts: Vec::new(),
        }
    }

    #[test]
    fn rates_and_span_are_consistent() {
        let r = report();
        assert_eq!(r.span_ns(), 10_000_000);
        assert!((r.served_per_s() - 9_000.0).abs() < 1e-6);
        assert!((r.offered_per_s() - 10_000.0).abs() < 1e-6);
        assert!((r.mean_batch() - 3.0).abs() < 1e-12);
        assert!((r.host_images_per_s() - 45_000.0).abs() < 1e-6);
    }

    #[test]
    fn reconciliation_tolerates_rounding_but_not_drift() {
        let mut r = report();
        assert!(r.reconciles(), "30 ns skew within 30-batch rounding band");
        r.runtime_modeled_ns = r.modeled_busy_ns + 1_000;
        assert!(!r.reconciles(), "1 µs drift over 30 batches must fail");
        r.runtime_modeled_ns = r.modeled_busy_ns;
        r.batches_reconciled = false;
        assert!(!r.reconciles());
    }

    #[test]
    fn a_drifting_partition_breaks_reconciliation_even_if_sums_agree() {
        let mut r = report();
        // Add a second partition whose drift cancels the first's in the
        // aggregate — the per-partition check must still catch it.
        let mut p1 = r.partition_reports[0].clone();
        p1.partition = 1;
        p1.modeled_busy_ns = 5_000_000;
        p1.runtime_modeled_ns = 4_900_000;
        let mut p0 = r.partition_reports[0].clone();
        p0.modeled_busy_ns = 5_000_000;
        p0.runtime_modeled_ns = 5_100_000;
        r.partition_reports = vec![p0, p1];
        r.modeled_busy_ns = 10_000_000;
        r.runtime_modeled_ns = 10_000_000;
        assert!(!r.reconciles());
    }
}

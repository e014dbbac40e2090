//! SLO-aware admission: decide, at batch dispatch, which requests are
//! worth executing.
//!
//! The scheduler knows the chip's modeled service law exactly (fill
//! latency for the first output, one bottleneck interval per subsequent
//! output — the same numbers `RuntimeReport` reconciliation pins), so at
//! dispatch it can *predict* every batch member's completion instant on
//! the virtual clock. An [`AdmissionPolicy`] turns that prediction into
//! an execute/shed decision. Shedding a doomed request costs zero chip
//! time and frees its slot for a request that can still meet its SLO —
//! which is why [`DeadlineShed`] keeps served tail latency at or below
//! the SLO under overload while [`Fifo`] lets the queue (and p99) grow
//! without bound.
//!
//! # Tenant-aware policies and per-partition state
//!
//! [`WeightedFair`] and [`StrictPriority`] differentiate by the
//! request's [`TenantClass`]: under queue pressure they shed the tenant
//! that is over its fair share (respectively, the lowest-priority
//! tiers), which is what pins a latency-sensitive tenant's p99 while a
//! best-effort tenant absorbs the overload. Both are deterministic
//! functions of the *per-partition* decision sequence: the scheduler
//! calls [`AdmissionPolicy::fork`] once per fleet partition so that
//! each partition's admission state evolves only with its own
//! dispatches — partitions dispatch independently, and cross-partition
//! dispatch interleaving is not deterministic, so shared mutable state
//! would break report reproducibility.

use crate::request::RequestMeta;
use crate::tenant::TenantClass;
use std::sync::Arc;

/// What the scheduler predicts for one request at batch dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceEstimate {
    /// Virtual instant the batch starts on its replica.
    pub batch_start_ns: u64,
    /// The request's position among the batch's admitted requests
    /// (0-based; outputs emerge in this order).
    pub position: usize,
    /// Modeled fill latency of the replica pipeline, in ns.
    pub fill_latency_ns: u64,
    /// Modeled steady-state output interval (bottleneck stage), in ns.
    pub steady_interval_ns: u64,
    /// Predicted virtual completion:
    /// `batch_start + fill + position · steady`.
    pub predicted_completion_ns: u64,
}

impl ServiceEstimate {
    /// Queue lag at dispatch: how long the request has already waited
    /// (`batch_start − arrival`). The pressure signal the tenant-aware
    /// policies key on.
    pub fn lag_ns(&self, meta: &RequestMeta) -> u64 {
        self.batch_start_ns.saturating_sub(meta.arrival_ns)
    }

    /// `true` when the predicted completion already misses the
    /// request's deadline — chip time spent on it would be wasted.
    pub fn doomed(&self, meta: &RequestMeta) -> bool {
        meta.deadline_ns
            .is_some_and(|d| self.predicted_completion_ns > d)
    }
}

/// Why an admission policy shed a request — recorded in trace events
/// and per-tenant shed metrics so overload behavior is attributable
/// (was the request doomed anyway, over its fair share, or out of its
/// priority tier's lag budget?).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Predicted completion already past the request's deadline: chip
    /// time spent on it would be wasted regardless of policy.
    Doomed,
    /// Tenant ahead of its weighted-fair share under queue pressure.
    OverShare,
    /// Queue lag exceeded the tenant's priority-tier budget.
    LagBudget,
    /// Policy-specific rule not covered by the cases above.
    Policy,
    /// The request's replica died mid-batch and the retry budget or
    /// deadline left no way to re-serve it (fault-plan runs only).
    ReplicaLost,
}

impl ShedReason {
    /// Every reason, in the stable order used by per-reason ledgers
    /// ([`ShedReason::index`] indexes into this).
    pub const ALL: [ShedReason; 5] = [
        ShedReason::Doomed,
        ShedReason::OverShare,
        ShedReason::LagBudget,
        ShedReason::Policy,
        ShedReason::ReplicaLost,
    ];

    /// Stable lowercase label for traces and metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::Doomed => "doomed",
            ShedReason::OverShare => "over-share",
            ShedReason::LagBudget => "lag-budget",
            ShedReason::Policy => "policy",
            ShedReason::ReplicaLost => "replica-lost",
        }
    }

    /// Position in [`ShedReason::ALL`].
    pub fn index(self) -> usize {
        match self {
            ShedReason::Doomed => 0,
            ShedReason::OverShare => 1,
            ShedReason::LagBudget => 2,
            ShedReason::Policy => 3,
            ShedReason::ReplicaLost => 4,
        }
    }
}

/// A batch-dispatch admission decision rule.
///
/// Implementations must be deterministic functions of their decision
/// sequence: the scheduler replays decisions on the virtual clock, and
/// reports are expected to be reproducible for a fixed trace. Stateless
/// policies ([`Fifo`], [`DeadlineShed`], [`StrictPriority`]) satisfy
/// this trivially; stateful ones ([`WeightedFair`]) get a private state
/// copy per fleet partition via [`AdmissionPolicy::fork`], because only
/// the *per-partition* dispatch order is deterministic.
pub trait AdmissionPolicy: Send + Sync {
    /// Short name echoed in reports and CLI output (e.g. `"fifo"`).
    fn name(&self) -> &'static str;

    /// `true` to execute the request, `false` to shed it. Takes `&mut
    /// self` so policies can account admitted work; the scheduler calls
    /// it exactly once per request, in dispatch order, on the
    /// partition's forked instance.
    fn admit(&mut self, meta: &RequestMeta, estimate: &ServiceEstimate) -> bool;

    /// A fresh instance with the same configuration and *reset* state —
    /// one per fleet partition.
    fn fork(&self) -> Box<dyn AdmissionPolicy>;

    /// Classifies a shed the scheduler just observed (i.e. [`admit`]
    /// returned `false` for this exact `(meta, estimate)`). Pure — must
    /// not touch decision state; the scheduler calls it *after* the
    /// admit and only for sheds. The default distinguishes doomed
    /// requests from everything else; policies with richer rules
    /// override it.
    ///
    /// [`admit`]: AdmissionPolicy::admit
    fn shed_reason(&self, meta: &RequestMeta, estimate: &ServiceEstimate) -> ShedReason {
        if estimate.doomed(meta) {
            ShedReason::Doomed
        } else {
            ShedReason::Policy
        }
    }
}

/// Admit everything, in arrival order. Deadlines are ignored; under
/// overload the queue — and every latency percentile — grows without
/// bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fifo;

impl AdmissionPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn admit(&mut self, _meta: &RequestMeta, _estimate: &ServiceEstimate) -> bool {
        true
    }

    fn fork(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(Fifo)
    }
}

/// Shed every request whose predicted completion already misses its
/// deadline at dispatch time; requests without a deadline are always
/// admitted. Served requests therefore *never* finish past their
/// deadline (the prediction is exact on the virtual clock), so under
/// overload the served tail stays at or below the SLO and the shed
/// count — not the latency — absorbs the excess load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineShed;

impl AdmissionPolicy for DeadlineShed {
    fn name(&self) -> &'static str {
        "deadline-shed"
    }

    fn admit(&mut self, meta: &RequestMeta, estimate: &ServiceEstimate) -> bool {
        !estimate.doomed(meta)
    }

    fn fork(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(DeadlineShed)
    }
}

/// How many admission decisions a tenant may sit out before it is
/// considered idle (dropped from the active set, and lifted to the
/// current virtual time when it returns so idleness banks no credit).
const WF_ACTIVE_WINDOW: u64 = 256;

/// Weighted-fair shedding: under queue pressure, chip time is
/// apportioned to tenants in proportion to their
/// [`TenantClass::weight`]s, via start-time fairness over normalized
/// virtual service.
///
/// Each tenant carries a **normalized service** counter
/// `norm(t) = admitted work / weight(t)` (work charged at the marginal
/// batch cost, one steady interval per admitted request). The rule,
/// applied per request in dispatch order:
///
/// * a **doomed** request (predicted completion past its deadline) is
///   always shed — same zero-waste argument as [`DeadlineShed`];
/// * a tenant returning from idle (no offer within the last 256
///   decisions) is lifted to the minimum active `norm`, so idleness
///   banks no catch-up credit;
/// * while the request's queue lag is within `max_lag_ns` the policy is
///   **work-conserving**: everything (with a meetable deadline) is
///   admitted, so an underloaded fleet never sheds;
/// * under pressure (lag above `max_lag_ns`), tenant `t` admits iff
///   `norm(t) ≤ min_active_norm + cost/weight(t)` — it is not ahead of
///   its share.
///
/// **Work conservation**: the minimum-`norm` active tenant always
/// passes its own test, so pressure never sheds *everything*; a sole
/// tenant is its own minimum and is never shed. **Starvation-freedom**:
/// a shed tenant's `norm` is frozen while every admission raises the
/// others', so the minimum active `norm` catches up and the inequality
/// eventually readmits it. Both invariants are proptested in
/// `tests/server_serving.rs`.
#[derive(Debug, Clone)]
pub struct WeightedFair {
    weights: Vec<f64>,
    max_lag_ns: u64,
    norm: Vec<f64>,
    last_offer: Vec<u64>,
    decisions: u64,
}

impl WeightedFair {
    /// A weighted-fair policy over the given tenant classes, enforcing
    /// shares once queue lag exceeds `max_lag_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty (every request carries a tenant
    /// index that must resolve to a weight).
    pub fn new(classes: &[TenantClass], max_lag_ns: u64) -> Self {
        assert!(
            !classes.is_empty(),
            "weighted-fair needs at least one tenant class"
        );
        Self {
            weights: classes.iter().map(|c| c.weight).collect(),
            max_lag_ns,
            norm: vec![0.0; classes.len()],
            last_offer: vec![u64::MAX; classes.len()],
            decisions: 0,
        }
    }

    /// The lag threshold above which shares are enforced, in ns.
    pub fn max_lag_ns(&self) -> u64 {
        self.max_lag_ns
    }

    /// Minimum normalized service over the *other* tenants that offered
    /// recently; `None` when `t` is the sole active tenant.
    fn min_other_active_norm(&self, t: usize) -> Option<f64> {
        let mut min: Option<f64> = None;
        for u in 0..self.norm.len() {
            if u != t
                && self.last_offer[u] != u64::MAX
                && self.decisions - self.last_offer[u] <= WF_ACTIVE_WINDOW
            {
                min = Some(min.map_or(self.norm[u], |m: f64| m.min(self.norm[u])));
            }
        }
        min
    }
}

impl AdmissionPolicy for WeightedFair {
    fn name(&self) -> &'static str {
        "weighted-fair"
    }

    fn admit(&mut self, meta: &RequestMeta, estimate: &ServiceEstimate) -> bool {
        let t = meta.tenant;
        self.decisions += 1;
        let was_idle = self.last_offer[t] == u64::MAX
            || self.decisions - self.last_offer[t] > WF_ACTIVE_WINDOW;
        self.last_offer[t] = self.decisions;
        if estimate.doomed(meta) {
            return false;
        }
        let min_others = self.min_other_active_norm(t);
        if was_idle {
            if let Some(m) = min_others {
                self.norm[t] = self.norm[t].max(m);
            }
        }
        let min_active = min_others.map_or(self.norm[t], |m| m.min(self.norm[t]));
        let cost_norm = estimate.steady_interval_ns.max(1) as f64 / self.weights[t];
        if estimate.lag_ns(meta) > self.max_lag_ns && self.norm[t] > min_active + cost_norm {
            return false;
        }
        self.norm[t] += cost_norm;
        true
    }

    fn fork(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(WeightedFair::new_from(self))
    }

    fn shed_reason(&self, meta: &RequestMeta, estimate: &ServiceEstimate) -> ShedReason {
        if estimate.doomed(meta) {
            ShedReason::Doomed
        } else {
            // The only non-doomed shed in `admit` is the share test.
            ShedReason::OverShare
        }
    }
}

impl WeightedFair {
    /// A fresh-state copy sharing configuration (weights, lag bound).
    fn new_from(other: &WeightedFair) -> Self {
        Self {
            weights: other.weights.clone(),
            max_lag_ns: other.max_lag_ns,
            norm: vec![0.0; other.weights.len()],
            last_offer: vec![u64::MAX; other.weights.len()],
            decisions: 0,
        }
    }
}

/// Strict-priority shedding: each priority tier gets a geometrically
/// shrinking queue-lag budget (`max_lag_ns >> priority`), so as overload
/// deepens the lowest tiers are shed first and tier 0 is shed last.
/// Doomed requests are always shed. Unlike [`WeightedFair`] this policy
/// *intentionally* starves low tiers under sustained overload — that is
/// the contract of a strict priority class.
#[derive(Debug, Clone)]
pub struct StrictPriority {
    priorities: Vec<u32>,
    max_lag_ns: u64,
}

impl StrictPriority {
    /// A strict-priority policy over the given tenant classes; tier 0
    /// tolerates `max_lag_ns` of queue lag, tier `p` only
    /// `max_lag_ns >> p`.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty.
    pub fn new(classes: &[TenantClass], max_lag_ns: u64) -> Self {
        assert!(
            !classes.is_empty(),
            "strict-priority needs at least one tenant class"
        );
        Self {
            priorities: classes.iter().map(|c| c.priority).collect(),
            max_lag_ns,
        }
    }

    /// The lag budget of priority tier `p`, in ns.
    pub fn lag_budget_ns(&self, priority: u32) -> u64 {
        self.max_lag_ns >> priority.min(63)
    }
}

impl AdmissionPolicy for StrictPriority {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn admit(&mut self, meta: &RequestMeta, estimate: &ServiceEstimate) -> bool {
        if estimate.doomed(meta) {
            return false;
        }
        estimate.lag_ns(meta) <= self.lag_budget_ns(self.priorities[meta.tenant])
    }

    fn fork(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(self.clone())
    }

    fn shed_reason(&self, meta: &RequestMeta, estimate: &ServiceEstimate) -> ShedReason {
        if estimate.doomed(meta) {
            ShedReason::Doomed
        } else {
            ShedReason::LagBudget
        }
    }
}

/// Resolves a tenant-agnostic policy by CLI name (`"fifo"`,
/// `"deadline-shed"`). The tenant-aware policies need the class table —
/// use [`policy_for`].
pub fn policy_by_name(name: &str) -> Option<Arc<dyn AdmissionPolicy>> {
    match name {
        "fifo" => Some(Arc::new(Fifo)),
        "deadline-shed" | "deadline_shed" => Some(Arc::new(DeadlineShed)),
        _ => None,
    }
}

/// Resolves any policy by CLI name, supplying the tenant classes and
/// lag threshold the tenant-aware policies (`"weighted-fair"`,
/// `"priority"`) need. Falls back to [`policy_by_name`] for the
/// tenant-agnostic ones.
pub fn policy_for(
    name: &str,
    classes: &[TenantClass],
    max_lag_ns: u64,
) -> Option<Arc<dyn AdmissionPolicy>> {
    match name {
        "weighted-fair" | "weighted_fair" => Some(Arc::new(WeightedFair::new(classes, max_lag_ns))),
        "priority" | "strict-priority" => Some(Arc::new(StrictPriority::new(classes, max_lag_ns))),
        _ => policy_by_name(name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantClass;

    fn meta(tenant: usize, arrival_ns: u64, deadline_ns: Option<u64>) -> RequestMeta {
        RequestMeta {
            client: 0,
            tenant,
            network: 0,
            seq: 0,
            arrival_ns,
            deadline_ns,
        }
    }

    fn estimate(start: u64, predicted: u64) -> ServiceEstimate {
        ServiceEstimate {
            batch_start_ns: start,
            position: 1,
            fill_latency_ns: 50,
            steady_interval_ns: 10,
            predicted_completion_ns: predicted,
        }
    }

    fn classes() -> Vec<TenantClass> {
        vec![
            TenantClass::named("premium").weight(3.0),
            TenantClass::named("be").weight(1.0).priority(2),
        ]
    }

    #[test]
    fn fifo_admits_everything() {
        assert!(Fifo.admit(&meta(0, 100, Some(0)), &estimate(200, u64::MAX)));
        assert_eq!(Fifo.name(), "fifo");
    }

    #[test]
    fn deadline_shed_compares_prediction_to_deadline() {
        let mut p = DeadlineShed;
        assert!(p.admit(&meta(0, 100, None), &estimate(200, u64::MAX)));
        assert!(p.admit(&meta(0, 100, Some(300)), &estimate(200, 300)));
        assert!(!p.admit(&meta(0, 100, Some(300)), &estimate(200, 301)));
    }

    #[test]
    fn weighted_fair_is_work_conserving_within_lag() {
        let mut p = WeightedFair::new(&classes(), 1_000);
        // Lag 900 ≤ 1000: everything with a meetable deadline admits.
        for t in [0, 1, 1, 1, 0] {
            assert!(p.admit(&meta(t, 100, None), &estimate(1_000, 2_000)));
        }
    }

    #[test]
    fn weighted_fair_enforces_shares_under_pressure() {
        let mut p = WeightedFair::new(&classes(), 100);
        // Lag 10_000 ≫ 100: alternate offers; long-run admits ≈ 3:1.
        let mut admitted = [0u32; 2];
        for k in 0..400 {
            let t = k % 2;
            if p.admit(&meta(t, 0, None), &estimate(10_000, 20_000)) {
                admitted[t] += 1;
            }
        }
        let ratio = admitted[0] as f64 / admitted[1] as f64;
        assert!(
            (ratio - 3.0).abs() < 0.2,
            "premium:be admit ratio {ratio} should track weights 3:1 ({admitted:?})"
        );
    }

    #[test]
    fn weighted_fair_never_sheds_a_sole_tenant() {
        let mut p = WeightedFair::new(&classes(), 100);
        // Only best-effort traffic, deep under pressure: with no
        // competitor the tenant is its own active minimum, so shedding
        // it would be pure waste — it must always be admitted.
        for _ in 0..1_000 {
            assert!(p.admit(&meta(1, 0, None), &estimate(10_000, 20_000)));
        }
    }

    #[test]
    fn weighted_fair_lifts_a_returning_tenant_to_virtual_time() {
        let mut p = WeightedFair::new(&classes(), 0);
        let est = estimate(10_000, 20_000);
        // Tenant 0 accumulates service while tenant 1 idles far past
        // the active window.
        for _ in 0..2_000 {
            assert!(p.admit(&meta(0, 0, None), &est));
        }
        // Tenant 1 returns: it is lifted to the current virtual time
        // instead of monopolizing admissions on banked credit, so
        // tenant 0 keeps being admitted alongside it.
        assert!(p.admit(&meta(1, 0, None), &est));
        assert!(
            p.admit(&meta(0, 0, None), &est),
            "no banked-credit monopoly"
        );
    }

    #[test]
    fn weighted_fair_sheds_doomed_requests_regardless_of_share() {
        let mut p = WeightedFair::new(&classes(), u64::MAX);
        assert!(!p.admit(&meta(0, 0, Some(10)), &estimate(0, 11)));
    }

    #[test]
    fn strict_priority_sheds_low_tiers_first() {
        let mut p = StrictPriority::new(&classes(), 1_000);
        assert_eq!(p.lag_budget_ns(0), 1_000);
        assert_eq!(p.lag_budget_ns(2), 250);
        // Lag 500: inside tier 0's budget, outside tier 2's.
        let est = estimate(500, 2_000);
        assert!(p.admit(&meta(0, 0, None), &est));
        assert!(!p.admit(&meta(1, 0, None), &est));
        // Lag 100: everyone admits — work conservation at low load.
        let est = estimate(100, 2_000);
        assert!(p.admit(&meta(0, 0, None), &est));
        assert!(p.admit(&meta(1, 0, None), &est));
    }

    #[test]
    fn fork_resets_weighted_fair_state() {
        let mut p = WeightedFair::new(&classes(), 0);
        let est = estimate(10_000, 20_000);
        for _ in 0..10 {
            p.admit(&meta(0, 0, None), &est);
        }
        let mut forked = p.fork();
        // A fresh fork has no accumulated shares: tenant 1's first
        // offer under pressure is within its (empty) share and admits.
        assert!(forked.admit(&meta(1, 0, None), &est));
        assert_eq!(forked.name(), "weighted-fair");
    }

    #[test]
    fn shed_reasons_classify_by_policy() {
        let cs = classes();
        let doomed_meta = meta(0, 100, Some(300));
        let doomed_est = estimate(200, 301);
        let mut ds = DeadlineShed;
        assert!(!ds.admit(&doomed_meta, &doomed_est));
        assert_eq!(
            ds.shed_reason(&doomed_meta, &doomed_est),
            ShedReason::Doomed
        );
        // A non-doomed weighted-fair shed is a share violation; a
        // non-doomed strict-priority shed is a lag-budget violation.
        let wf = WeightedFair::new(&cs, 100);
        assert_eq!(
            wf.shed_reason(&meta(0, 0, None), &estimate(10_000, 20_000)),
            ShedReason::OverShare
        );
        let sp = StrictPriority::new(&cs, 1_000);
        assert_eq!(
            sp.shed_reason(&meta(1, 0, None), &estimate(500, 2_000)),
            ShedReason::LagBudget
        );
        assert_eq!(ShedReason::Policy.as_str(), "policy");
    }

    #[test]
    fn policies_resolve_by_name() {
        assert_eq!(policy_by_name("fifo").unwrap().name(), "fifo");
        assert_eq!(
            policy_by_name("deadline-shed").unwrap().name(),
            "deadline-shed"
        );
        assert!(policy_by_name("weighted-fair").is_none(), "needs classes");
        let cs = classes();
        assert_eq!(
            policy_for("weighted-fair", &cs, 1_000).unwrap().name(),
            "weighted-fair"
        );
        assert_eq!(
            policy_for("priority", &cs, 1_000).unwrap().name(),
            "priority"
        );
        assert_eq!(policy_for("fifo", &cs, 1_000).unwrap().name(), "fifo");
        assert!(policy_for("lifo", &cs, 1_000).is_none());
    }
}

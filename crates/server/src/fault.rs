//! Deterministic runtime fault plans.
//!
//! A [`FaultPlan`] is a seeded list of virtual-clock-scheduled fault
//! events — replica crashes, stalls, per-partition retention-drift
//! advances, and incremental stuck-at strikes — that the scheduler
//! injects while serving. Like the batch former, the plan carries no
//! hidden host-time state: a chaos run's statistics, telemetry, and
//! repair history are a pure function of `(request trace, plan, seed)`,
//! so a faulted session replays bit-identically (asserted in
//! `tests/chaos_serving.rs`).

/// What one fault event does to its target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The replica process dies at the event instant: requests in flight
    /// past the instant are lost (and retried/hedged/shed by the
    /// scheduler), and the replica re-programs before returning.
    Crash,
    /// The replica pauses for the given duration (e.g. a thermal
    /// throttle or a host hiccup): nothing is lost, availability slips.
    Stall {
        /// Stall duration, in virtual ns.
        ns: u64,
    },
    /// Retention drift advances on every replica of the target
    /// partition: conductances decay per
    /// [`red_device::DriftModel::after`] with the configured exponent,
    /// detectable by the canary prober.
    Drift {
        /// Time since programming the drift law is evaluated at, in
        /// seconds (composes additively across drift events).
        elapsed_s: f64,
    },
    /// `cells` seeded-random stuck-at strikes land on the target
    /// replica (via `CrossbarArray::apply_faults`).
    Strikes {
        /// Cells struck.
        cells: usize,
    },
}

impl FaultKind {
    /// Stable lowercase label for traces and logs.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Stall { .. } => "stall",
            FaultKind::Drift { .. } => "drift",
            FaultKind::Strikes { .. } => "strike",
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual instant the fault fires, in ns.
    pub at_ns: u64,
    /// Target fleet partition.
    pub partition: usize,
    /// Target replica within the partition (ignored for
    /// [`FaultKind::Drift`], which hits the whole partition).
    pub replica: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded, virtual-clock-ordered fault schedule.
///
/// Events are kept sorted by `(at_ns, insertion order)`; the seed
/// derives the per-event randomness (strike cell positions), so two
/// plans built from the same spec are identical objects.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, sorted by fire instant (stable on ties).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Scheduled event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The per-event strike seed: a splitmix-style mix of the plan seed
    /// and the event's position in the sorted schedule, so incremental
    /// strikes compose deterministically and independently of when the
    /// scheduler consumes them.
    pub fn event_seed(&self, index: usize) -> u64 {
        self.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1)
    }

    /// Adds an event, keeping the schedule sorted by `at_ns` (insertion
    /// order on ties).
    pub fn push(mut self, event: FaultEvent) -> Self {
        let pos = self.events.partition_point(|e| e.at_ns <= event.at_ns);
        self.events.insert(pos, event);
        self
    }

    /// Schedules a replica crash.
    pub fn crash(self, at_ns: u64, partition: usize, replica: usize) -> Self {
        self.push(FaultEvent {
            at_ns,
            partition,
            replica,
            kind: FaultKind::Crash,
        })
    }

    /// Schedules a replica stall of `dur_ns`.
    pub fn stall(self, at_ns: u64, partition: usize, replica: usize, dur_ns: u64) -> Self {
        self.push(FaultEvent {
            at_ns,
            partition,
            replica,
            kind: FaultKind::Stall { ns: dur_ns },
        })
    }

    /// Schedules a partition-wide drift advance to `elapsed_s` seconds
    /// after programming (see [`red_device::DriftModel::after`]).
    pub fn drift(self, at_ns: u64, partition: usize, elapsed_s: f64) -> Self {
        self.push(FaultEvent {
            at_ns,
            partition,
            replica: 0,
            kind: FaultKind::Drift { elapsed_s },
        })
    }

    /// Schedules `cells` stuck-at strikes on one replica.
    pub fn strikes(self, at_ns: u64, partition: usize, replica: usize, cells: usize) -> Self {
        self.push(FaultEvent {
            at_ns,
            partition,
            replica,
            kind: FaultKind::Strikes { cells },
        })
    }

    /// Parses the `loadgen --fault-plan` spec: comma-separated events,
    /// each `kind:at_us:partition:...` with times in virtual µs —
    ///
    /// * `crash:AT_US:PART:REPLICA`
    /// * `stall:AT_US:PART:REPLICA:DUR_US`
    /// * `drift:AT_US:PART:ELAPSED_S`
    /// * `strike:AT_US:PART:REPLICA:CELLS`
    ///
    /// e.g. `crash:40000:0:0,drift:60000:1:2592000`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed event.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan::new(seed);
        for part in spec.split(',').filter(|s| !s.is_empty()) {
            let fields: Vec<&str> = part.split(':').collect();
            let bad = |what: &str| format!("fault event `{part}`: {what}");
            let int = |f: &str, what: &str| f.parse::<u64>().map_err(|_| bad(what));
            let kind = *fields.first().ok_or_else(|| bad("empty event"))?;
            let at_ns = int(
                fields.get(1).ok_or_else(|| bad("missing time"))?,
                "bad time",
            )?
            .saturating_mul(1_000);
            let pnum = int(
                fields.get(2).ok_or_else(|| bad("missing partition"))?,
                "bad partition",
            )? as usize;
            plan = match (kind, fields.len()) {
                ("crash", 4) => plan.crash(at_ns, pnum, int(fields[3], "bad replica")? as usize),
                ("stall", 5) => plan.stall(
                    at_ns,
                    pnum,
                    int(fields[3], "bad replica")? as usize,
                    int(fields[4], "bad duration")?.saturating_mul(1_000),
                ),
                ("drift", 4) => {
                    let elapsed: f64 = fields[3].parse().map_err(|_| bad("bad elapsed_s"))?;
                    if elapsed.is_nan() || elapsed < 0.0 {
                        return Err(bad("elapsed_s must be non-negative"));
                    }
                    plan.drift(at_ns, pnum, elapsed)
                }
                ("strike", 5) => plan.strikes(
                    at_ns,
                    pnum,
                    int(fields[3], "bad replica")? as usize,
                    int(fields[4], "bad cells")? as usize,
                ),
                _ => return Err(bad("unknown kind or wrong field count")),
            };
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_builder() {
        let parsed = FaultPlan::parse(
            "crash:40000:0:0,drift:60000:1:2592000,strike:80000:0:1:64",
            7,
        )
        .unwrap();
        let built = FaultPlan::new(7)
            .crash(40_000_000, 0, 0)
            .drift(60_000_000, 1, 2_592_000.0)
            .strikes(80_000_000, 0, 1, 64);
        assert_eq!(parsed, built);
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed.events()[0].kind.as_str(), "crash");
    }

    #[test]
    fn events_sort_by_time_with_stable_ties() {
        let plan = FaultPlan::new(0)
            .crash(50, 0, 1)
            .stall(10, 0, 0, 5)
            .crash(50, 1, 0);
        let at: Vec<(u64, usize)> = plan
            .events()
            .iter()
            .map(|e| (e.at_ns, e.partition))
            .collect();
        assert_eq!(at, vec![(10, 0), (50, 0), (50, 1)]);
    }

    #[test]
    fn parse_rejects_malformed_events() {
        assert!(FaultPlan::parse("crash:1:0", 0).is_err());
        assert!(FaultPlan::parse("meteor:1:0:0", 0).is_err());
        assert!(FaultPlan::parse("drift:1:0:-3", 0).is_err());
        assert!(FaultPlan::parse("stall:1:0:0", 0).is_err());
        assert!(FaultPlan::parse("", 0).unwrap().is_empty());
    }

    #[test]
    fn event_seeds_differ_per_index_and_plan_seed() {
        let plan = FaultPlan::new(7);
        assert_ne!(plan.event_seed(0), plan.event_seed(1));
        assert_ne!(
            FaultPlan::new(7).event_seed(0),
            FaultPlan::new(8).event_seed(0)
        );
    }
}

//! Chip replication and partitioning: several resident networks, N
//! serving replicas each, one copy of each network's weights.

use crate::ServerError;
use red_runtime::{Chip, Floorplan};
use serde::Serialize;

/// One resident network's slice of the fleet: a compiled [`Chip`] and
/// the replicas provisioned for it.
///
/// Replication is `Arc`-shallow: every replica shares the immutable
/// compiled stages of the source [`Chip`] (programmed crossbars,
/// effective-current planes, gather plans — see
/// [`red_runtime::Stage::shared_compiled`]), and each functional
/// replica builds its own mutable scratch ([`Chip::make_scratch`]). The modeled
/// *hardware* cost of replication is real, though: every replica is a
/// full physical copy of the chip's tile groups, and the fleet reports
/// the aggregate floorplan accordingly.
#[derive(Debug, Clone)]
pub struct FleetPartition {
    chip: Chip,
    replicas: usize,
}

impl FleetPartition {
    /// The partition's compiled network.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Provisioned replicas (the autoscaler's ceiling).
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// A replica's chip handle — an `Arc`-shallow clone sharing the
    /// compiled stages.
    pub fn replica_chip(&self) -> Chip {
        self.chip.clone()
    }

    /// Modeled peak partition throughput, in images per second: every
    /// replica emitting one output per bottleneck interval.
    pub fn peak_throughput_per_s(&self) -> f64 {
        let analytic = self.chip.pipeline_report();
        self.replicas as f64 * 1e9 / analytic.steady_interval_ns()
    }
}

/// A fleet of chip replicas hosting one or more resident networks.
///
/// Each **partition** serves one compiled network with its own replica
/// pool; requests route to a partition by the `network` tag on
/// [`ClientHandle::submit_to`](crate::ClientHandle::submit_to). A
/// single-network fleet ([`ChipFleet::new`]) is the one-partition
/// special case.
#[derive(Debug, Clone)]
pub struct ChipFleet {
    partitions: Vec<FleetPartition>,
}

/// One partition's slice of a [`FleetFloorplan`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PartitionFloorplan {
    /// Partition index (the request routing tag).
    pub partition: usize,
    /// Network name the partition serves.
    pub network: String,
    /// Provisioned replicas.
    pub replicas: usize,
    /// One replica's floorplan.
    pub per_replica: Floorplan,
    /// Partition area (all its replicas), in µm².
    pub area_um2: f64,
    /// Physical macro count across the partition's replicas.
    pub macros: usize,
}

/// Aggregate floorplan of a [`ChipFleet`]: every partition's replicas,
/// priced as full physical chips.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetFloorplan {
    /// Total replica count across partitions.
    pub replicas: usize,
    /// Per-partition breakdown.
    pub partitions: Vec<PartitionFloorplan>,
    /// Total fleet area (all partitions, all replicas), in µm².
    pub total_area_um2: f64,
    /// Total physical macro count across the fleet.
    pub total_macros: usize,
}

impl ChipFleet {
    /// Builds a single-partition fleet of `replicas` clones of `chip`.
    ///
    /// # Errors
    ///
    /// [`ServerError::EmptyFleet`] when `replicas` is zero.
    pub fn new(chip: Chip, replicas: usize) -> Result<Self, ServerError> {
        Self::multi(vec![(chip, replicas)])
    }

    /// Builds a multi-network fleet: one partition per `(chip,
    /// replicas)` pair, in routing-tag order.
    ///
    /// # Errors
    ///
    /// [`ServerError::EmptyFleet`] when `parts` is empty or any
    /// partition has zero replicas.
    pub fn multi(parts: Vec<(Chip, usize)>) -> Result<Self, ServerError> {
        if parts.is_empty() || parts.iter().any(|(_, r)| *r == 0) {
            return Err(ServerError::EmptyFleet);
        }
        Ok(Self {
            partitions: parts
                .into_iter()
                .map(|(chip, replicas)| FleetPartition { chip, replicas })
                .collect(),
        })
    }

    /// The resident-network partitions, in routing-tag order.
    pub fn partitions(&self) -> &[FleetPartition] {
        &self.partitions
    }

    /// Number of resident networks.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total replicas across partitions.
    pub fn replicas(&self) -> usize {
        self.partitions.iter().map(|p| p.replicas).sum()
    }

    /// The first partition's chip (the whole fleet's, for
    /// single-network fleets).
    pub fn chip(&self) -> &Chip {
        &self.partitions[0].chip
    }

    /// A replica handle of the first partition's chip.
    pub fn replica_chip(&self) -> Chip {
        self.partitions[0].replica_chip()
    }

    /// The aggregate fleet floorplan.
    pub fn floorplan(&self) -> FleetFloorplan {
        let partitions: Vec<PartitionFloorplan> = self
            .partitions
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let per_replica = p.chip.floorplan();
                PartitionFloorplan {
                    partition: i,
                    network: p.chip.name().to_string(),
                    replicas: p.replicas,
                    area_um2: per_replica.total_area_um2() * p.replicas as f64,
                    macros: per_replica.total_macros() * p.replicas,
                    per_replica,
                }
            })
            .collect();
        FleetFloorplan {
            replicas: self.replicas(),
            total_area_um2: partitions.iter().map(|p| p.area_um2).sum(),
            total_macros: partitions.iter().map(|p| p.macros).sum(),
            partitions,
        }
    }

    /// Total fleet area, in µm².
    pub fn total_area_um2(&self) -> f64 {
        self.floorplan().total_area_um2
    }

    /// Modeled peak fleet throughput, in images per second, summed over
    /// partitions. The serving scheduler approaches this as `max_batch`
    /// grows; `max_batch = 1` caps each replica at one output per *fill
    /// latency* instead.
    pub fn peak_throughput_per_s(&self) -> f64 {
        self.partitions
            .iter()
            .map(|p| p.peak_throughput_per_s())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use red_core::prelude::Design;
    use red_runtime::ChipBuilder;
    use red_workloads::networks;

    fn chip() -> Chip {
        let stack = networks::sngan_generator(64).unwrap();
        ChipBuilder::new()
            .design(Design::ZeroPadding)
            .compile_seeded(&stack, 5, 7)
            .unwrap()
    }

    fn second_chip() -> Chip {
        let stack = networks::dcgan_generator(64).unwrap();
        ChipBuilder::new()
            .design(Design::ZeroPadding)
            .compile_seeded(&stack, 5, 7)
            .unwrap()
    }

    #[test]
    fn fleet_aggregates_area_and_macros() {
        let chip = chip();
        let one = chip.floorplan();
        let fleet = ChipFleet::new(chip, 3).unwrap();
        let plan = fleet.floorplan();
        assert_eq!(plan.replicas, 3);
        assert_eq!(plan.partitions.len(), 1);
        assert_eq!(plan.partitions[0].per_replica, one);
        assert!((plan.total_area_um2 - 3.0 * one.total_area_um2()).abs() < 1e-9);
        assert_eq!(plan.total_macros, 3 * one.total_macros());
        assert!((fleet.total_area_um2() - plan.total_area_um2).abs() < 1e-9);
    }

    #[test]
    fn multi_network_fleet_sums_partitions_honestly() {
        let (a, b) = (chip(), second_chip());
        let (pa, pb) = (a.floorplan(), b.floorplan());
        let fleet = ChipFleet::multi(vec![(a, 2), (b, 3)]).unwrap();
        assert_eq!(fleet.partition_count(), 2);
        assert_eq!(fleet.replicas(), 5);
        let plan = fleet.floorplan();
        assert_eq!(plan.partitions.len(), 2);
        assert_eq!(plan.partitions[0].macros, 2 * pa.total_macros());
        assert_eq!(plan.partitions[1].macros, 3 * pb.total_macros());
        let expect = 2.0 * pa.total_area_um2() + 3.0 * pb.total_area_um2();
        assert!((plan.total_area_um2 - expect).abs() < 1e-6);
        let per_part: f64 = fleet
            .partitions()
            .iter()
            .map(|p| p.peak_throughput_per_s())
            .sum();
        assert!((fleet.peak_throughput_per_s() - per_part).abs() < 1e-9);
    }

    #[test]
    fn replica_chips_share_compiled_stages() {
        let fleet = ChipFleet::new(chip(), 2).unwrap();
        let a = fleet.replica_chip();
        let b = fleet.replica_chip();
        for (x, y) in a.stages().iter().zip(b.stages()) {
            assert!(std::sync::Arc::ptr_eq(
                x.shared_compiled(),
                y.shared_compiled()
            ));
        }
    }

    #[test]
    fn peak_throughput_scales_with_replicas() {
        let chip = chip();
        let single = ChipFleet::new(chip.clone(), 1)
            .unwrap()
            .peak_throughput_per_s();
        let double = ChipFleet::new(chip, 2).unwrap().peak_throughput_per_s();
        assert!((double / single - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_replicas_is_rejected() {
        assert!(matches!(
            ChipFleet::new(chip(), 0),
            Err(ServerError::EmptyFleet)
        ));
        assert!(matches!(
            ChipFleet::multi(vec![(chip(), 2), (second_chip(), 0)]),
            Err(ServerError::EmptyFleet)
        ));
        assert!(matches!(
            ChipFleet::multi(Vec::new()),
            Err(ServerError::EmptyFleet)
        ));
    }
}

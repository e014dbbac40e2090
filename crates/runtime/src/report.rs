//! The runtime stats layer: modeled schedules that must reconcile with
//! the analytical `PipelineReport`.

use red_arch::{Design, PipelineReport};
use serde::Serialize;

/// How a batch was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ExecMode {
    /// One image at a time through every stage (the golden path).
    Sequential,
    /// Stage-major over the whole batch: each stage consumes every image
    /// through its engine's batched executor before the next stage
    /// starts. Same modeled hardware schedule as [`ExecMode::Sequential`]
    /// (one tile group per stage, no overlap) — only the host-side
    /// execution order, and therefore weight/plane cache reuse, differs.
    Batched,
    /// Layer-parallel pipelining: the modeled chip overlaps its stages
    /// across images, one output per bottleneck interval. On the host,
    /// contiguous image shards run on scoped threads, and each shard
    /// holds every stage's outputs for its images, as
    /// [`ExecMode::Batched`] does for the whole batch.
    Pipelined,
}

/// Per-stage scheduling statistics for one batch run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StageStats {
    /// Pipeline stage index.
    pub stage: usize,
    /// Measured per-image stage latency (issued cycles priced at the
    /// stage's cycle time), in ns.
    pub latency_ns: f64,
    /// Images this stage processed.
    pub images: u64,
    /// Vector-operation cycles the stage's engine actually issued across
    /// those images.
    pub cycles: u128,
    /// Measured busy time (`images * latency`), in ns.
    pub busy_ns: f64,
    /// Fraction of the batch makespan this stage spent busy. The
    /// bottleneck stage approaches 1.0 as the batch grows.
    pub occupancy: f64,
}

/// Measured schedule of one batch through the chip, plus the host
/// wall-clock the simulator itself took.
///
/// Latencies are *measured* hardware time: the cycles each stage's
/// engine actually issued during this run, priced at the stage's
/// cost-model cycle time and composed by the execution mode's dependency
/// structure (see the scheduling module docs). `wall_ns` is the host
/// simulator time, reported so scheduler overhead stays visible to the
/// criterion benches.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RuntimeReport {
    /// How the batch was executed.
    pub mode: ExecMode,
    /// The design all stages run on.
    pub design: Design,
    /// Number of images pushed through the chip.
    pub batch: usize,
    /// Per-stage scheduling statistics.
    pub stages: Vec<StageStats>,
    /// Measured latency until the first image's final output, in ns.
    pub fill_latency_ns: f64,
    /// Measured steady-state interval between consecutive outputs, in ns.
    pub steady_interval_ns: f64,
    /// Measured completion time of the whole batch, in ns.
    pub makespan_ns: f64,
    /// Modeled energy per image (sum of stage energies), in pJ.
    pub energy_per_image_pj: f64,
    /// Host wall-clock the simulator spent on this batch, in ns.
    pub wall_ns: u128,
}

impl RuntimeReport {
    /// Measured steady-state throughput, in images per second.
    pub fn throughput_per_s(&self) -> f64 {
        1e9 / self.steady_interval_ns
    }

    /// Measured whole-batch throughput (`batch / makespan`), in images
    /// per second — lower than [`throughput_per_s`] while the pipeline
    /// fills.
    ///
    /// [`throughput_per_s`]: RuntimeReport::throughput_per_s
    pub fn batch_throughput_per_s(&self) -> f64 {
        self.batch as f64 * 1e9 / self.makespan_ns
    }

    /// Host-side simulator throughput, in images per second.
    pub fn host_images_per_s(&self) -> f64 {
        self.batch as f64 * 1e9 / self.wall_ns as f64
    }

    /// `true` when this run's measured schedule reconciles with the
    /// analytical pipeline report: fill latency matches the predicted
    /// stage-latency sum, and — for pipelined runs — the steady-state
    /// interval matches the predicted bottleneck stage. Sequential and
    /// batched runs must instead show an interval equal to the full fill
    /// latency (no overlap).
    ///
    /// This is a genuine cross-check, not an identity: the run's side is
    /// built from the cycles each engine *actually issued* for each image
    /// of the batch, the analytic side from the closed-form geometry the
    /// cost model prices. A stage that drops or double-processes an
    /// image, or an engine whose dataflow diverges from its priced
    /// geometry, breaks the reconciliation.
    pub fn reconciles_with(&self, analytic: &PipelineReport) -> bool {
        let interval = match self.mode {
            ExecMode::Pipelined => analytic.steady_interval_ns(),
            ExecMode::Sequential | ExecMode::Batched => analytic.fill_latency_ns(),
        };
        rel_close(self.fill_latency_ns, analytic.fill_latency_ns())
            && rel_close(self.steady_interval_ns, interval)
    }
}

/// Relative closeness for modeled times assembled in different float
/// orders (1 ppb).
fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChipBuilder;
    use red_workloads::networks;

    #[test]
    fn throughput_definitions_are_consistent() {
        let stack = networks::sngan_generator(64).unwrap();
        let chip = ChipBuilder::new().compile_seeded(&stack, 5, 1).unwrap();
        let inputs: Vec<_> = (0..3)
            .map(|i| red_workloads::synth::input_dense(&stack.layers[0], 30, i))
            .collect();
        let run = chip.run_pipelined(&inputs).unwrap();
        let r = &run.report;
        assert_eq!(r.batch, 3);
        assert!(r.throughput_per_s() >= r.batch_throughput_per_s());
        assert!(r.host_images_per_s() > 0.0);
        assert!(rel_close(
            r.makespan_ns,
            r.fill_latency_ns + 2.0 * r.steady_interval_ns
        ));
    }

    #[test]
    fn rel_close_tolerates_reassociation_only() {
        assert!(rel_close(1e12, 1e12 + 1e-3));
        assert!(!rel_close(1e12, 1.001e12));
    }
}

//! The batched executors: the sequential golden path, stage-major
//! batching and the pipelined executor, all over one stage loop.
//!
//! Every executor runs `Chip::run_stages`: each stage consumes a slice
//! of images through its engine
//! ([`red_core::CompiledLayer::run_batch_with_at`]), the inter-stage
//! activation runs on its outputs, and the stage meters what it issued.
//! The stages run in turn in one [`ChipScratch`], whose single engine
//! scratch serves every stage of any chip. The executors differ only in
//! how they slice the batch:
//! [`Chip::run_sequential`] passes one image at a time,
//! [`Chip::run_batched_with_scratch_at`] the whole batch, and
//! [`Chip::run_pipelined`] contiguous shards, each on its own
//! `std::thread::scope` thread with a scratch of its own. A shard holds
//! every stage's outputs for its images, as the batched executor does
//! for the whole batch.
//!
//! All three compute the *same function*: an engine's execution of an
//! image does not depend on its batch or on what its scratch ran before,
//! so every executor is bit-exact against the sequential one for every
//! shard count (asserted by `tests/runtime_pipeline.rs` and
//! `tests/batched_exec.rs`).
//!
//! Sharding is a *host* optimization only. The modeled chip still has
//! one tile group per stage and overlaps the stages across images, so
//! the measured schedule, the reconciliation against `PipelineReport`,
//! and every latency/energy figure are identical for every shard count;
//! only `wall_ns` (host time) moves.
//!
//! # What "measured" means here
//!
//! The simulator is functional, not clocked, so hardware time cannot be
//! read off the host clock. Instead, every stage meters the cycles its
//! engine *actually issued* for each image ([`ExecutionStats::cycles`]);
//! the report prices those measured cycles at the stage's cost-model
//! cycle time and composes them into the schedule the execution mode
//! models. Reconciliation with the analytical `PipelineReport` is
//! therefore a real cross-check: if an executor drops, duplicates or
//! misroutes an image — or an engine issues a cycle count different from
//! the priced geometry — the measured interval diverges from the
//! predicted bottleneck and [`RuntimeReport::reconciles_with`] fails.
//!
//! [`ExecutionStats::cycles`]: red_arch::ExecutionStats

use crate::chip::Chip;
use crate::{ExecMode, RuntimeError, RuntimeReport};
use red_arch::{ExecPrecision, LayerScratch};
use red_tensor::FeatureMap;
use std::time::Instant;

/// Outputs and statistics of one batch pushed through a [`Chip`].
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// Final-stage outputs, in input order.
    pub outputs: Vec<FeatureMap<i64>>,
    /// The measured schedule and host wall-clock of the run.
    pub report: RuntimeReport,
}

/// Reusable working memory for [`Chip::run_batched_with_scratch`]: the
/// one [`LayerScratch`] every stage's engine uses in turn. Built once per
/// serving context ([`Chip::make_scratch`]) and reused across batches, so
/// a serving loop pushing many small batches through the chip performs
/// no steady-state engine-scratch allocation. A scratch is not tied to
/// the chip that made it: any chip's scratch runs any chip.
#[derive(Debug)]
pub struct ChipScratch {
    layer: LayerScratch,
}

/// Per-stage execution meter: what one stage actually did during a run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageMeter {
    /// Images this stage processed.
    pub images: u64,
    /// Vector-operation cycles the engine issued across those images.
    pub cycles: u128,
}

impl Chip {
    /// Runs `inputs` one image at a time through every stage — the
    /// sequential golden path the other executors are verified against.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::EmptyBatch`] for an empty batch;
    /// [`RuntimeError::Arch`] when any stage rejects its input.
    pub fn run_sequential(&self, inputs: &[FeatureMap<i64>]) -> Result<BatchRun, RuntimeError> {
        if inputs.is_empty() {
            return Err(RuntimeError::EmptyBatch);
        }
        let started = Instant::now();
        let mut meters = vec![StageMeter::default(); self.depth()];
        let mut scratch = self.make_scratch();
        let mut outputs = Vec::with_capacity(inputs.len());
        for input in inputs {
            outputs.extend(self.run_stages(
                std::slice::from_ref(input),
                &mut scratch,
                ExecPrecision::Full,
                &mut meters,
            )?);
        }
        let wall_ns = started.elapsed().as_nanos();
        Ok(BatchRun {
            report: self.measured_report(ExecMode::Sequential, &meters, wall_ns),
            outputs,
        })
    }

    /// Creates working memory for [`Chip::run_batched_with_scratch`] (one
    /// per serving replica).
    pub fn make_scratch(&self) -> ChipScratch {
        ChipScratch {
            layer: LayerScratch::default(),
        }
    }

    /// Runs `inputs` stage-major with caller-provided working memory:
    /// every stage consumes the whole batch through its engine
    /// ([`red_core::CompiledLayer::run_batch_with`]) before the next stage
    /// starts, so each pixel drives the whole batch through one crossbar
    /// call and large ideal crossbars stream their weight blocks once per
    /// batch instead of once per image. Every stage runs in the scratch's
    /// one engine scratch, which is reused across calls, so a serving
    /// loop — `red-server` replicas drive exactly this entry — pays the
    /// scratch setup once per replica, not once per micro-batch.
    ///
    /// Outputs are bit-exact against [`Chip::run_sequential`] (an
    /// engine's execution of an image does not depend on its batch), and
    /// the modeled hardware schedule is identical — only host wall time
    /// moves.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::EmptyBatch`] for an empty batch;
    /// [`RuntimeError::Arch`] when any stage rejects its input.
    pub fn run_batched_with_scratch(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut ChipScratch,
    ) -> Result<BatchRun, RuntimeError> {
        self.run_batched_with_scratch_at(inputs, scratch, ExecPrecision::Full)
    }

    /// [`Chip::run_batched_with_scratch`] at an explicit precision tier:
    /// every stage's crossbars drop the tier's low input bits
    /// ([`red_arch::ExecPrecision`]), trading a bounded output deviation
    /// ([`Chip::truncation_error_bound`]) for proportionally fewer
    /// conversion phases ([`Chip::phase_ratio`]). The measured schedule
    /// is value-independent — engines meter the untruncated schedule —
    /// so the report is identical across tiers and still reconciles
    /// with the analytic pipeline; the serving layer reprices a
    /// degraded batch's fill/steady and energy through
    /// [`Chip::phase_ratio`] and [`Chip::hardware_per_image_at`].
    /// `ExecPrecision::Full` is bit-identical to
    /// [`Chip::run_batched_with_scratch`].
    ///
    /// # Errors
    ///
    /// As [`Chip::run_batched_with_scratch`].
    pub fn run_batched_with_scratch_at(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut ChipScratch,
        prec: ExecPrecision,
    ) -> Result<BatchRun, RuntimeError> {
        if inputs.is_empty() {
            return Err(RuntimeError::EmptyBatch);
        }
        let started = Instant::now();
        let mut meters = vec![StageMeter::default(); self.depth()];
        let outputs = self.run_stages(inputs, scratch, prec, &mut meters)?;
        let wall_ns = started.elapsed().as_nanos();
        Ok(BatchRun {
            report: self.measured_report(ExecMode::Batched, &meters, wall_ns),
            outputs,
        })
    }

    /// Runs `inputs` through the layer pipeline. The batch is split into
    /// `min(batch, available_parallelism)` contiguous shards of sizes
    /// that differ by at most one; each shard runs stage-major on its own
    /// `std::thread::scope` thread with its own scratch (a single shard
    /// runs on the calling thread). Outputs are concatenated in input
    /// order and are bit-exact against [`Chip::run_sequential`]; the
    /// shards' meters sum into the modeled pipeline schedule, which is
    /// the same for every shard count.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::EmptyBatch`] for an empty batch;
    /// [`RuntimeError::Arch`] when any stage rejects its input (every
    /// shard finishes, and the error of the first failing shard in input
    /// order is returned).
    ///
    /// # Panics
    ///
    /// A panic in a shard resumes on the caller with its own payload.
    pub fn run_pipelined(&self, inputs: &[FeatureMap<i64>]) -> Result<BatchRun, RuntimeError> {
        if inputs.is_empty() {
            return Err(RuntimeError::EmptyBatch);
        }
        let started = Instant::now();
        let shards = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(inputs.len());
        let run_shard = |part: &[FeatureMap<i64>]| {
            let mut meters = vec![StageMeter::default(); self.depth()];
            let outputs = self.run_stages(
                part,
                &mut self.make_scratch(),
                ExecPrecision::Full,
                &mut meters,
            )?;
            Ok::<_, RuntimeError>((outputs, meters))
        };
        let runs: Vec<_> = if shards == 1 {
            vec![run_shard(inputs)]
        } else {
            let (base, extra) = (inputs.len() / shards, inputs.len() % shards);
            let mut rest = inputs;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..shards)
                    .map(|i| {
                        let (part, tail) = rest.split_at(base + usize::from(i < extra));
                        rest = tail;
                        s.spawn(move || run_shard(part))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };
        let mut meters = vec![StageMeter::default(); self.depth()];
        let mut outputs = Vec::with_capacity(inputs.len());
        for run in runs {
            let (shard_outputs, shard_meters) = run?;
            outputs.extend(shard_outputs);
            for (total, shard) in meters.iter_mut().zip(shard_meters) {
                total.images += shard.images;
                total.cycles += shard.cycles;
            }
        }
        let wall_ns = started.elapsed().as_nanos();
        Ok(BatchRun {
            report: self.measured_report(ExecMode::Pipelined, &meters, wall_ns),
            outputs,
        })
    }

    /// The stage loop every executor runs: each stage consumes the
    /// previous stage's outputs (`inputs` for the first) in one call to
    /// its engine at `prec`, the activation runs on every stage's outputs
    /// but the last's, and stage `k` adds the images and cycles it issued
    /// to `meters[k]`. Returns the final-stage outputs in input order.
    fn run_stages(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut ChipScratch,
        prec: ExecPrecision,
        meters: &mut [StageMeter],
    ) -> Result<Vec<FeatureMap<i64>>, RuntimeError> {
        let last = self.depth() - 1;
        let mut fms = Vec::new();
        for (k, stage) in self.stages().iter().enumerate() {
            let src = if k == 0 { inputs } else { &fms };
            let execs = stage
                .compiled()
                .run_batch_with_at(src, &mut scratch.layer, prec)?;
            meters[k].images += execs.len() as u64;
            meters[k].cycles += execs
                .iter()
                .map(|e| u128::from(e.stats.cycles))
                .sum::<u128>();
            fms = execs
                .into_iter()
                .map(|e| {
                    if k == last {
                        e.output
                    } else {
                        self.activation().apply(&e.output)
                    }
                })
                .collect();
        }
        Ok(fms)
    }

    /// Prices each stage's *measured* cycles at its cost-model cycle time
    /// and composes the per-image latencies into the schedule the given
    /// execution mode follows, producing the runtime report.
    fn measured_report(
        &self,
        mode: ExecMode,
        meters: &[StageMeter],
        wall_ns: u128,
    ) -> RuntimeReport {
        let lat: Vec<f64> = self
            .stages()
            .iter()
            .zip(meters)
            .map(|(stage, m)| {
                // Measured per-image cycles, priced at the stage's cycle
                // time. Equals the stage's priced latency exactly when the
                // engine issued the cycle count the geometry predicts.
                let per_image = if m.images > 0 {
                    m.cycles as f64 / m.images as f64
                } else {
                    0.0
                };
                per_image * stage.cost().cycle_time_ns()
            })
            .collect();
        let batch = meters.first().map_or(0, |m| m.images) as usize;
        let (fill, steady, makespan) = match mode {
            // Stage-major batching changes host execution order only; the
            // modeled hardware still runs each image through each stage
            // with no overlap, exactly like the sequential golden path.
            ExecMode::Sequential | ExecMode::Batched => {
                let fill: f64 = lat.iter().sum();
                (fill, fill, fill * batch as f64)
            }
            ExecMode::Pipelined => {
                // Event-driven recurrence over the dataflow dependencies
                // of the modeled layer pipeline: stage k starts image n
                // when both the image and the stage are free. With every
                // input ready at t=0 this converges to one output per
                // bottleneck interval — the reconciliation target.
                let mut stage_free = vec![0.0f64; lat.len()];
                let mut out_times = Vec::with_capacity(batch);
                for _ in 0..batch {
                    let mut t = 0.0f64;
                    for (free, l) in stage_free.iter_mut().zip(&lat) {
                        t = t.max(*free) + l;
                        *free = t;
                    }
                    out_times.push(t);
                }
                let fill = out_times.first().copied().unwrap_or(0.0);
                let makespan = out_times.last().copied().unwrap_or(0.0);
                let steady = if batch > 1 {
                    out_times[batch - 1] - out_times[batch - 2]
                } else {
                    lat.iter().copied().fold(0.0, f64::max)
                };
                (fill, steady, makespan)
            }
        };
        let report = RuntimeReport {
            mode,
            design: self.design(),
            batch,
            stages: self.stage_stats(meters, &lat, makespan),
            fill_latency_ns: fill,
            steady_interval_ns: steady,
            makespan_ns: makespan,
            energy_per_image_pj: self.energy_per_image_pj(),
            wall_ns,
        };
        self.emit_run_trace(&report, &lat, meters);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChipBuilder;
    use red_arch::Design;
    use red_workloads::{networks, synth};

    fn chip_and_inputs(batch: usize) -> (Chip, Vec<FeatureMap<i64>>) {
        let stack = networks::sngan_generator(64).unwrap();
        let chip = ChipBuilder::new()
            .design(Design::ZeroPadding)
            .compile_seeded(&stack, 5, 11)
            .unwrap();
        let inputs = (0..batch)
            .map(|i| synth::input_dense(&stack.layers[0], 40, 500 + i as u64))
            .collect();
        (chip, inputs)
    }

    #[test]
    fn pipelined_matches_sequential_bit_exactly() {
        let (chip, inputs) = chip_and_inputs(5);
        let seq = chip.run_sequential(&inputs).unwrap();
        let pipe = chip.run_pipelined(&inputs).unwrap();
        assert_eq!(seq.outputs, pipe.outputs);
        assert_eq!(seq.report.mode, ExecMode::Sequential);
        assert_eq!(pipe.report.mode, ExecMode::Pipelined);
    }

    #[test]
    fn batched_matches_sequential_on_ideal_and_noisy_chips() {
        use red_core::xbar::XbarConfig;
        let stack = networks::sngan_generator(64).unwrap();
        let inputs: Vec<_> = (0..4)
            .map(|i| synth::input_dense(&stack.layers[0], 40, 800 + i as u64))
            .collect();
        // One scratch, made by the first chip, serves all six in turn.
        let mut shared = None;
        let mut first = None;
        for cfg in [
            XbarConfig::ideal(),
            XbarConfig::preset("full").expect("known preset"),
        ] {
            for design in Design::paper_lineup() {
                let chip = ChipBuilder::new()
                    .design(design)
                    .xbar_config(cfg)
                    .compile_seeded(&stack, 5, 11)
                    .unwrap();
                let scratch = shared.get_or_insert_with(|| chip.make_scratch());
                let seq = chip.run_sequential(&inputs).unwrap();
                let batched = chip.run_batched_with_scratch(&inputs, scratch).unwrap();
                assert_eq!(seq.outputs, batched.outputs, "{design}");
                assert_eq!(batched.report.mode, ExecMode::Batched);
                // Stage-major batching is host-side only: same measured
                // hardware schedule, same reconciliation target.
                assert_eq!(seq.report.fill_latency_ns, batched.report.fill_latency_ns);
                assert_eq!(
                    seq.report.steady_interval_ns,
                    batched.report.steady_interval_ns
                );
                assert!(batched.report.reconciles_with(&chip.pipeline_report()));
                first.get_or_insert((chip, seq));
            }
        }
        // After the other five chips, the first reruns on the shared
        // scratch unchanged.
        let (chip, seq) = first.expect("six chips ran");
        let scratch = shared.as_mut().expect("six chips ran");
        let again = chip.run_batched_with_scratch(&inputs, scratch).unwrap();
        assert_eq!(seq.outputs, again.outputs);
    }

    #[test]
    fn chip_clones_share_compiled_stages_and_stay_bit_exact() {
        use red_core::xbar::XbarConfig;
        let stack = networks::sngan_generator(64).unwrap();
        let inputs: Vec<_> = (0..3)
            .map(|i| synth::input_dense(&stack.layers[0], 40, 900 + i as u64))
            .collect();
        for cfg in [
            XbarConfig::ideal(),
            XbarConfig::preset("full").expect("known preset"),
        ] {
            let chip = ChipBuilder::new()
                .design(Design::red(red_arch::RedLayoutPolicy::Auto))
                .xbar_config(cfg)
                .compile_seeded(&stack, 5, 11)
                .unwrap();
            let clone_a = chip.clone();
            let clone_b = chip.clone();
            // Replication shares the programmed crossbars: every stage's
            // compiled engine is the same allocation, not a copy.
            for (s, c) in chip.stages().iter().zip(clone_a.stages()) {
                assert!(std::sync::Arc::ptr_eq(
                    s.shared_compiled(),
                    c.shared_compiled()
                ));
            }
            // Two clones running the batched path independently (each
            // with its own scratch) are bit-exact vs each other and vs
            // the original's sequential golden path.
            let golden = chip.run_sequential(&inputs).unwrap();
            let mut scratch_a = clone_a.make_scratch();
            let mut scratch_b = clone_b.make_scratch();
            let run_a = clone_a
                .run_batched_with_scratch(&inputs, &mut scratch_a)
                .unwrap();
            let run_b = clone_b
                .run_batched_with_scratch(&inputs, &mut scratch_b)
                .unwrap();
            assert_eq!(run_a.outputs, run_b.outputs);
            assert_eq!(golden.outputs, run_a.outputs);
            // Scratch reuse across batches changes nothing.
            let again = clone_a
                .run_batched_with_scratch(&inputs, &mut scratch_a)
                .unwrap();
            assert_eq!(again.outputs, run_a.outputs);
        }
    }

    #[test]
    fn precision_tiers_keep_the_measured_schedule_and_reprice_counters() {
        use red_arch::ExecPrecision;
        let stack = networks::sngan_generator(64).unwrap();
        let chip = ChipBuilder::new().compile_seeded(&stack, 5, 11).unwrap();
        let inputs: Vec<_> = (0..2)
            .map(|i| synth::input_dense(&stack.layers[0], 40, 700 + i as u64))
            .collect();
        let mut scratch = chip.make_scratch();
        let full = chip
            .run_batched_with_scratch_at(&inputs, &mut scratch, ExecPrecision::Full)
            .unwrap();
        // Full tier is the bit-identical golden path.
        let fresh = chip.run_batched_with_scratch(&inputs, &mut chip.make_scratch());
        assert_eq!(full.outputs, fresh.unwrap().outputs);
        assert_eq!(
            chip.hardware_per_image_at(ExecPrecision::Full),
            chip.hardware_per_image()
        );
        assert_eq!(chip.truncation_error_bound(ExecPrecision::Full), 0.0);
        let mut prev_sweeps = chip.hardware_per_image().bit_phase_sweeps;
        let mut prev_energy = chip.hardware_per_image().energy_fj;
        let mut prev_bound = 0.0;
        for prec in [ExecPrecision::Eco, ExecPrecision::Brownout] {
            let run = chip
                .run_batched_with_scratch_at(&inputs, &mut scratch, prec)
                .unwrap();
            // Engines meter the untruncated schedule, so the measured
            // report is tier-independent and still reconciles.
            assert_eq!(run.report.fill_latency_ns, full.report.fill_latency_ns);
            assert_eq!(
                run.report.steady_interval_ns,
                full.report.steady_interval_ns
            );
            assert!(run.report.reconciles_with(&chip.pipeline_report()));
            // Repriced counters shrink monotonically with depth; issue
            // counts are phase-independent.
            let hw = chip.hardware_per_image_at(prec);
            assert!(hw.bit_phase_sweeps < prev_sweeps);
            assert!(hw.energy_fj < prev_energy);
            assert_eq!(
                hw.crossbar_activations,
                chip.hardware_per_image().crossbar_activations
            );
            prev_sweeps = hw.bit_phase_sweeps;
            prev_energy = hw.energy_fj;
            assert!(chip.phase_ratio(prec) < 1.0);
            let bound = chip.truncation_error_bound(prec);
            assert!(bound > prev_bound);
            prev_bound = bound;
        }
    }

    #[test]
    fn stage_accessor_matches_stage_slice() {
        let (chip, _) = chip_and_inputs(1);
        assert!(chip.stage(chip.depth()).is_none());
        for k in 0..chip.depth() {
            let stage = chip.stage(k).unwrap();
            assert_eq!(stage.layer(), chip.stages()[k].layer());
        }
    }

    #[test]
    fn batched_rejects_empty_batch() {
        let (chip, _) = chip_and_inputs(1);
        assert!(matches!(
            chip.run_batched_with_scratch(&[], &mut chip.make_scratch()),
            Err(RuntimeError::EmptyBatch)
        ));
    }

    #[test]
    fn shards_preserve_outputs_order_meters_and_schedule() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (chip, inputs) = chip_and_inputs(2 * cores + 3);
        let analytic = chip.pipeline_report();
        // Every batch size from one image to more than two per shard, so
        // single, even and uneven shards all run.
        for batch in 1..=inputs.len() {
            let inputs = &inputs[..batch];
            let seq = chip.run_sequential(inputs).unwrap();
            let pipe = chip.run_pipelined(inputs).unwrap();
            // Bit-exact outputs in input order, identical meters:
            // sharding is host-side only.
            assert_eq!(seq.outputs, pipe.outputs, "batch {batch}");
            for (a, b) in seq.report.stages.iter().zip(&pipe.report.stages) {
                assert_eq!(a.images, b.images, "batch {batch}");
                assert_eq!(a.cycles, b.cycles, "batch {batch}");
            }
            assert_eq!(pipe.report.batch, batch);
            assert!(pipe.report.reconciles_with(&analytic), "batch {batch}");
        }
    }

    #[test]
    fn schedules_reconcile_with_the_analytic_pipeline() {
        let (chip, inputs) = chip_and_inputs(6);
        let analytic = chip.pipeline_report();
        let seq = chip.run_sequential(&inputs).unwrap().report;
        let pipe = chip.run_pipelined(&inputs).unwrap().report;
        assert!(seq.reconciles_with(&analytic));
        assert!(pipe.reconciles_with(&analytic));
        // Pipelining helps exactly when the bottleneck is shorter than the
        // whole chain.
        assert!(pipe.steady_interval_ns < seq.steady_interval_ns);
        assert!(pipe.makespan_ns < seq.makespan_ns);
        // The bottleneck stage is the most occupied one.
        let bottleneck = analytic.bottleneck();
        let max_occ = pipe
            .stages
            .iter()
            .map(|s| s.occupancy)
            .fold(0.0f64, f64::max);
        assert_eq!(pipe.stages[bottleneck].occupancy, max_occ);
        assert!(max_occ <= 1.0 + 1e-12);
    }

    #[test]
    fn stage_stats_carry_measured_cycles() {
        let (chip, inputs) = chip_and_inputs(3);
        let pipe = chip.run_pipelined(&inputs).unwrap().report;
        for (stats, stage) in pipe.stages.iter().zip(chip.stages()) {
            assert_eq!(stats.images, 3);
            // Every image issues exactly the priced cycle count, so the
            // measured total is 3x the geometry's cycles.
            assert_eq!(stats.cycles, 3 * u128::from(stage.cost().geometry.cycles));
            assert!(stats.busy_ns > 0.0);
        }
    }

    #[test]
    fn empty_batch_is_rejected() {
        let (chip, _) = chip_and_inputs(1);
        assert!(matches!(
            chip.run_sequential(&[]),
            Err(RuntimeError::EmptyBatch)
        ));
        assert!(matches!(
            chip.run_pipelined(&[]),
            Err(RuntimeError::EmptyBatch)
        ));
    }

    #[test]
    fn wrong_shaped_input_drains_and_reports_the_stage_error() {
        // One image per shard up to 8 shards, so the bad input lands in
        // the first, a middle and the last shard in turn.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (chip, inputs) = chip_and_inputs(cores.clamp(3, 8));
        let last = inputs.len() - 1;
        for pos in 0..=last {
            let mut inputs = inputs.clone();
            inputs[pos] = FeatureMap::zeros(2, 2, 1);
            if pos < last {
                // A later bad input must not win: the error is that of the
                // first failing image in input order.
                inputs[last] = FeatureMap::zeros(3, 3, 1);
            }
            for err in [
                chip.run_pipelined(&inputs).unwrap_err(),
                chip.run_sequential(&inputs).unwrap_err(),
            ] {
                assert!(
                    matches!(
                        err,
                        RuntimeError::Arch(red_arch::ArchError::InputMismatch { .. })
                    ),
                    "position {pos}: {err}"
                );
                assert!(
                    err.to_string().contains("input 2x2x1"),
                    "position {pos}: {err}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "RangeFold modulus must be positive")]
    fn shard_panics_resume_with_their_own_payload() {
        let stack = networks::sngan_generator(64).unwrap();
        let chip = ChipBuilder::new()
            .design(Design::ZeroPadding)
            .activation(crate::Activation::RangeFold { modulus: 0 })
            .compile_seeded(&stack, 5, 11)
            .unwrap();
        let inputs: Vec<_> = (0..4)
            .map(|i| synth::input_dense(&stack.layers[0], 40, 500 + i as u64))
            .collect();
        let _ = chip.run_pipelined(&inputs);
    }

    #[test]
    fn single_image_batch_has_fill_equal_makespan() {
        let (chip, inputs) = chip_and_inputs(1);
        let run = chip.run_pipelined(&inputs).unwrap();
        let r = run.report;
        assert_eq!(r.batch, 1);
        assert!((r.makespan_ns - r.fill_latency_ns).abs() < 1e-9);
        assert!(r.reconciles_with(&chip.pipeline_report()));
    }
}

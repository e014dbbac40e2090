//! The batched executors: the sequential golden path and the pipelined
//! scheduler.
//!
//! Pipelined execution spawns a pool of `std::thread::scope` workers per
//! stage ([`crate::Chip::workers_per_stage`], configurable via
//! [`crate::ChipBuilder::workers`]): the stage's workers pull images from
//! a shared bounded channel, each with its own reusable engine scratch, so
//! a stage drains its queue `workers`-wide while the stages still overlap
//! pipeline-style. Channels are bounded to `queue_depth` packets per
//! worker (default 2: classic double buffering — one feature map being
//! consumed, one staged). A feeder thread streams the batch in at the
//! front; the caller's thread drains outputs at the back and restores
//! input order from the packet indices, so backpressure from the
//! bottleneck stage propagates to the feeder instead of buffering the
//! whole batch.
//!
//! Both executors compute the *same function* — the scheduler only changes
//! when and where stages run; every image is processed independently by a
//! deterministic engine — so pipelined output is bit-exact against
//! sequential output for every worker count (asserted by
//! `tests/runtime_pipeline.rs` and `tests/batched_exec.rs`).
//!
//! Intra-stage sharding is a *host* optimization only: the modeled
//! hardware still has exactly one tile group per stage, so the measured
//! schedule, the reconciliation against `PipelineReport`, and every
//! latency/energy figure are identical for every worker count — only
//! `wall_ns` (host time) shrinks.
//!
//! # What "measured" means here
//!
//! The simulator is functional, not clocked, so hardware time cannot be
//! read off the host clock. Instead, every worker meters the cycles its
//! engine *actually issued* for each image ([`ExecutionStats::cycles`]);
//! the report prices those measured cycles at the stage's cost-model
//! cycle time and composes them into the pipeline schedule the channel
//! topology enforces. Reconciliation with the analytical
//! `PipelineReport` is therefore a real cross-check: if a scheduler bug
//! drops, duplicates or misroutes an image — or an engine issues a cycle
//! count different from the priced geometry — the measured interval
//! diverges from the predicted bottleneck and
//! [`RuntimeReport::reconciles_with`] fails.
//!
//! [`ExecutionStats::cycles`]: red_arch::ExecutionStats

use crate::chip::Chip;
use crate::{ExecMode, RuntimeError, RuntimeReport};
use red_tensor::FeatureMap;
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Outputs and statistics of one batch pushed through a [`Chip`].
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// Final-stage outputs, in input order.
    pub outputs: Vec<FeatureMap<i64>>,
    /// The measured schedule and host wall-clock of the run.
    pub report: RuntimeReport,
}

/// Reusable working memory for [`Chip::run_batched_with_scratch`]: one
/// engine scratch per stage. Built once per serving context
/// ([`Chip::make_scratch`]) and reused across batches, so a serving loop
/// pushing many small batches through the chip performs no steady-state
/// engine-scratch allocation.
///
/// A scratch is tied to the chip (design and stage lineup) that created
/// it; using it with a different chip panics in the stage engines.
#[derive(Debug)]
pub struct ChipScratch {
    stages: Vec<red_core::LayerScratch>,
}

/// Per-stage execution meter: what one stage actually did during a run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageMeter {
    /// Images this stage processed.
    pub images: u64,
    /// Vector-operation cycles the engine issued across those images.
    pub cycles: u128,
}

type Packet = (usize, FeatureMap<i64>);

impl Chip {
    /// Runs `inputs` one image at a time through every stage — the
    /// sequential golden path the pipelined scheduler is verified against.
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
        let depth = self.depth();
        let mut meters = vec![StageMeter::default(); depth];
        let mut scratches: Vec<_> = self.stages().iter().map(|s| s.make_scratch()).collect();
        let mut outputs = Vec::with_capacity(inputs.len());
        for input in inputs {
            let mut fm = input.clone();
            for (k, stage) in self.stages().iter().enumerate() {
                let exec = stage.run_with(&fm, &mut scratches[k])?;
                meters[k].images += 1;
                meters[k].cycles += u128::from(exec.stats.cycles);
                fm = if k + 1 < depth {
                    self.activation().apply(&exec.output)
                } else {
                    exec.output
                };
            }
            outputs.push(fm);
        }
        let wall_ns = started.elapsed().as_nanos();
        Ok(BatchRun {
            report: self.measured_report(ExecMode::Sequential, &meters, wall_ns),
            outputs,
        })
    }

    /// Runs `inputs` stage-major: every stage consumes the whole batch
    /// through its engine's batched executor (`CompiledLayer::run_batch`)
    /// before the next stage starts, so large ideal crossbars stream
    /// their weight blocks across the batch instead of once per image,
    /// and every stage reuses one scratch for the whole batch.
    ///
    /// Outputs are bit-exact against [`Chip::run_sequential`] (the
    /// engines' batched executors are bit-exact against their per-image
    /// paths), and the modeled hardware schedule is identical — only host
    /// wall time moves.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::EmptyBatch`] for an empty batch;
    /// [`RuntimeError::Arch`] when any stage rejects its input.
    pub fn run_batched(&self, inputs: &[FeatureMap<i64>]) -> Result<BatchRun, RuntimeError> {
        self.run_batched_with_scratch(inputs, &mut self.make_scratch())
    }

    /// Creates working memory for [`Chip::run_batched_with_scratch`] (one
    /// per serving replica or worker).
    pub fn make_scratch(&self) -> ChipScratch {
        ChipScratch {
            stages: self.stages().iter().map(|s| s.make_scratch()).collect(),
        }
    }

    /// [`Chip::run_batched`] with caller-provided working memory: the
    /// per-stage engine scratches are reused across calls instead of
    /// rebuilt per batch, so a serving loop — `red-server` replicas drive
    /// exactly this entry — pays the scratch setup once per replica, not
    /// once per micro-batch. Outputs and the measured schedule are
    /// bit-identical to [`Chip::run_batched`].
    ///
    /// # Errors
    ///
    /// As [`Chip::run_batched`].
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was created by a different chip's
    /// [`Chip::make_scratch`].
    pub fn run_batched_with_scratch(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut ChipScratch,
    ) -> Result<BatchRun, RuntimeError> {
        self.run_batched_with_scratch_at(inputs, scratch, red_arch::ExecPrecision::Full)
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
    /// As [`Chip::run_batched`].
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was created by a different chip's
    /// [`Chip::make_scratch`].
    pub fn run_batched_with_scratch_at(
        &self,
        inputs: &[FeatureMap<i64>],
        scratch: &mut ChipScratch,
        prec: red_arch::ExecPrecision,
    ) -> Result<BatchRun, RuntimeError> {
        if inputs.is_empty() {
            return Err(RuntimeError::EmptyBatch);
        }
        assert_eq!(
            scratch.stages.len(),
            self.depth(),
            "ChipScratch stage count must match the chip that uses it"
        );
        let started = Instant::now();
        let depth = self.depth();
        let mut meters = vec![StageMeter::default(); depth];
        let mut fms = inputs.to_vec();
        for (k, (stage, layer_scratch)) in self.stages().iter().zip(&mut scratch.stages).enumerate()
        {
            let execs = stage
                .compiled()
                .run_batch_with_at(&fms, layer_scratch, prec)?;
            meters[k].images += execs.len() as u64;
            meters[k].cycles += execs
                .iter()
                .map(|e| u128::from(e.stats.cycles))
                .sum::<u128>();
            let last = k + 1 == depth;
            fms = execs
                .into_iter()
                .map(|e| {
                    if last {
                        e.output
                    } else {
                        self.activation().apply(&e.output)
                    }
                })
                .collect();
        }
        let wall_ns = started.elapsed().as_nanos();
        Ok(BatchRun {
            report: self.measured_report(ExecMode::Batched, &meters, wall_ns),
            outputs: fms,
        })
    }

    /// Runs `inputs` through the layer pipeline: a pool of
    /// [`Chip::workers_per_stage`] worker threads per stage pulling from a
    /// shared bounded channel, so stage `k` processes up to `workers`
    /// images concurrently while stage `k-1` already processes later
    /// images. Outputs are restored to input order and are bit-exact
    /// against [`Chip::run_sequential`] for every worker count.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::EmptyBatch`] for an empty batch;
    /// [`RuntimeError::Arch`] when any stage rejects its input (the
    /// pipeline drains and the first stage error, in dataflow order, is
    /// returned).
    pub fn run_pipelined(&self, inputs: &[FeatureMap<i64>]) -> Result<BatchRun, RuntimeError> {
        if inputs.is_empty() {
            return Err(RuntimeError::EmptyBatch);
        }
        let started = Instant::now();
        let depth = self.depth();
        let pool = self.workers_per_stage();
        // Double buffering per worker: each worker can have one packet in
        // flight and one staged, whatever the pool size.
        let cap = self.queue_depth() * pool;
        let activation = self.activation();

        let (first_tx, first_rx) = sync_channel::<Packet>(cap);
        let (stage_results, mut collected) = std::thread::scope(|s| {
            // Receivers are shared per stage: workers take turns pulling
            // the next packet (the mutex is only held for the blocking
            // recv, never while an engine runs). The Arc means a stage's
            // input channel disconnects — propagating shutdown upstream —
            // exactly when its last worker exits.
            let mut prev_rx = Arc::new(Mutex::new(first_rx));
            let mut workers = Vec::with_capacity(depth * pool);
            for (k, stage) in self.stages().iter().enumerate() {
                let (tx, rx) = sync_channel::<Packet>(cap);
                let in_rx = std::mem::replace(&mut prev_rx, Arc::new(Mutex::new(rx)));
                let last = k + 1 == depth;
                for _ in 0..pool {
                    let in_rx = Arc::clone(&in_rx);
                    let tx = tx.clone();
                    workers.push((
                        k,
                        s.spawn(move || -> Result<StageMeter, RuntimeError> {
                            let mut scratch = stage.make_scratch();
                            let mut meter = StageMeter::default();
                            loop {
                                let msg =
                                    in_rx.lock().expect("receiver mutex never poisoned").recv();
                                let Ok((idx, fm)) = msg else {
                                    break; // upstream done or hung up
                                };
                                let exec = stage.run_with(&fm, &mut scratch)?;
                                meter.images += 1;
                                meter.cycles += u128::from(exec.stats.cycles);
                                let out = if last {
                                    exec.output
                                } else {
                                    activation.apply(&exec.output)
                                };
                                if tx.send((idx, out)).is_err() {
                                    break; // downstream hung up (error drain)
                                }
                            }
                            Ok(meter)
                        }),
                    ));
                }
                // The loop's `tx` clones live in the workers; dropping the
                // original here lets stage k+1 see disconnect when stage
                // k's last worker exits.
            }
            let sink = prev_rx;
            let feeder = s.spawn(move || {
                for (idx, input) in inputs.iter().enumerate() {
                    if first_tx.send((idx, input.clone())).is_err() {
                        break; // stage 0 hung up (error drain)
                    }
                }
            });
            let sink = sink.lock().expect("sink mutex never poisoned");
            let mut collected: Vec<Packet> = Vec::with_capacity(inputs.len());
            while let Ok(packet) = sink.recv() {
                collected.push(packet);
            }
            feeder.join().expect("feeder thread never panics");
            let results: Vec<(usize, Result<StageMeter, RuntimeError>)> = workers
                .into_iter()
                .map(|(k, w)| (k, w.join().expect("stage worker never panics")))
                .collect();
            (results, collected)
        });
        let wall_ns = started.elapsed().as_nanos();

        // Sum each stage's worker meters; report the first error in
        // dataflow order.
        let mut meters = vec![StageMeter::default(); depth];
        let mut first_err: Option<(usize, RuntimeError)> = None;
        for (k, result) in stage_results {
            match result {
                Ok(m) => {
                    meters[k].images += m.images;
                    meters[k].cycles += m.cycles;
                }
                Err(e) if first_err.as_ref().is_none_or(|(fk, _)| k < *fk) => {
                    first_err = Some((k, e));
                }
                Err(_) => {}
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }
        collected.sort_by_key(|(idx, _)| *idx);
        let outputs: Vec<FeatureMap<i64>> = collected.into_iter().map(|(_, fm)| fm).collect();
        assert_eq!(
            outputs.len(),
            inputs.len(),
            "every stage succeeded, so every image must emerge"
        );
        Ok(BatchRun {
            report: self.measured_report(ExecMode::Pipelined, &meters, wall_ns),
            outputs,
        })
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
                // the channel topology enforces: stage k starts image n
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
                let seq = chip.run_sequential(&inputs).unwrap();
                let batched = chip.run_batched(&inputs).unwrap();
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
            }
        }
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
        assert_eq!(full.outputs, chip.run_batched(&inputs).unwrap().outputs);
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
            chip.run_batched(&[]),
            Err(RuntimeError::EmptyBatch)
        ));
    }

    #[test]
    fn worker_pools_preserve_outputs_order_meters_and_schedule() {
        let stack = networks::sngan_generator(64).unwrap();
        let inputs: Vec<_> = (0..7)
            .map(|i| synth::input_dense(&stack.layers[0], 40, 600 + i as u64))
            .collect();
        let one = ChipBuilder::new()
            .design(Design::ZeroPadding)
            .workers(1)
            .compile_seeded(&stack, 5, 11)
            .unwrap();
        let wide = ChipBuilder::new()
            .design(Design::ZeroPadding)
            .workers(4)
            .compile_seeded(&stack, 5, 11)
            .unwrap();
        assert_eq!(one.workers_per_stage(), 1);
        assert_eq!(wide.workers_per_stage(), 4);
        let run1 = one.run_pipelined(&inputs).unwrap();
        let run4 = wide.run_pipelined(&inputs).unwrap();
        // Bit-exact outputs in input order, identical modeled schedule:
        // sharding is host-side only.
        assert_eq!(run1.outputs, run4.outputs);
        for (a, b) in run1.report.stages.iter().zip(&run4.report.stages) {
            assert_eq!(a.images, b.images);
            assert_eq!(a.cycles, b.cycles);
        }
        assert_eq!(run1.report.fill_latency_ns, run4.report.fill_latency_ns);
        assert_eq!(
            run1.report.steady_interval_ns,
            run4.report.steady_interval_ns
        );
        assert!(run4.report.reconciles_with(&wide.pipeline_report()));
    }

    #[test]
    fn default_worker_count_is_derived_and_positive() {
        let (chip, _) = chip_and_inputs(1);
        assert!(chip.workers_per_stage() >= 1);
    }

    #[test]
    #[should_panic(expected = "worker count must be positive")]
    fn zero_workers_panics() {
        let _ = ChipBuilder::new().workers(0);
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
        let (chip, mut inputs) = chip_and_inputs(3);
        inputs[1] = FeatureMap::zeros(2, 2, 1);
        let err = chip.run_pipelined(&inputs).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Arch(red_arch::ArchError::InputMismatch { .. })
        ));
        let err = chip.run_sequential(&inputs).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Arch(red_arch::ArchError::InputMismatch { .. })
        ));
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

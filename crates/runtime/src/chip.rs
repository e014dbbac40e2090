//! The chip compiler: a whole network mapped onto per-layer tile groups.

use crate::hw::HardwarePerImage;
use crate::{RuntimeError, StageStats};
use red_arch::{CostModel, CostReport, Design, MacroSpec, PipelineReport, RedLayoutPolicy};
use red_core::xbar::XbarConfig;
use red_core::{Accelerator, CompiledLayer};
use red_tensor::{FeatureMap, Kernel, LayerShape};
use red_workloads::networks::DeconvStack;
use red_workloads::synth;
use serde::Serialize;
use std::sync::Arc;

/// The inter-stage activation function applied to every feature map that
/// crosses a stage boundary (never to the final stage's output).
///
/// Functional engines compute in exact `i64`, so chained deconvolutions
/// would overflow after a few stages without a range-limiting
/// nonlinearity. [`Activation::RangeFold`] is the repository's standard
/// stand-in (the examples use the same fold): it keeps activations
/// strictly positive and within crossbar input range while remaining
/// bit-exact and deterministic — which is all the runtime needs, since
/// sequential and pipelined execution share the same activation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Activation {
    /// Pass values through unchanged (single-layer chips, or externally
    /// bounded inputs).
    Identity,
    /// `(v % modulus).abs() + 1` — strictly positive, bounded by
    /// `modulus`.
    RangeFold {
        /// The fold bound; must be positive.
        modulus: i64,
    },
}

impl Activation {
    /// The default inter-stage fold used across the repository's
    /// end-to-end examples (modulus 89).
    pub fn default_fold() -> Self {
        Activation::RangeFold { modulus: 89 }
    }

    /// Applies the activation to a feature map.
    ///
    /// # Panics
    ///
    /// Panics if a [`Activation::RangeFold`] modulus is not positive.
    pub fn apply(&self, fm: &FeatureMap<i64>) -> FeatureMap<i64> {
        match self {
            Activation::Identity => fm.clone(),
            Activation::RangeFold { modulus } => {
                assert!(*modulus > 0, "RangeFold modulus must be positive");
                fm.map(|v| (v % modulus).abs() + 1)
            }
        }
    }
}

/// The crossbar tiles allocated to one pipeline stage.
///
/// `instances` are the design's logical sub-crossbars (RED's `KH·KW`
/// pixel-wise arrays, one monolithic array for the baselines); `macros`
/// is the physical tile count after splitting every instance into
/// [`MacroSpec`]-bounded macros ([`MacroSpec::split`]), the same split
/// `CostModel::evaluate_tiled` prices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TileGroup {
    /// Pipeline stage (layer index in dataflow order).
    pub stage: usize,
    /// Logical array instances of the design.
    pub instances: usize,
    /// Wordlines per logical instance.
    pub rows: usize,
    /// Physical (bit-sliced) columns per logical instance.
    pub phys_cols: usize,
    /// Physical macros after the [`MacroSpec`] split.
    pub macros: usize,
    /// Total stage area (arrays + periphery), in µm².
    pub area_um2: f64,
}

impl TileGroup {
    fn derive(stage: usize, cost: &CostReport, mac: MacroSpec) -> Self {
        let g = &cost.geometry;
        let (row_tiles, col_tiles) = mac.split(g);
        TileGroup {
            stage,
            instances: g.array.instances,
            rows: g.array.rows,
            phys_cols: g.phys_cols_per_instance(),
            macros: g.array.instances * row_tiles * col_tiles,
            area_um2: cost.total_area_um2(),
        }
    }
}

/// The chip's resident floorplan: every stage's tile group coexists.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Floorplan {
    /// The macro bound the floorplan was split against.
    pub macro_spec: MacroSpec,
    /// Per-stage tile groups, in dataflow order.
    pub tiles: Vec<TileGroup>,
}

impl Floorplan {
    /// Total chip area (all resident stages), in µm².
    pub fn total_area_um2(&self) -> f64 {
        self.tiles.iter().map(|t| t.area_um2).sum()
    }

    /// Total physical macro count across all stages.
    pub fn total_macros(&self) -> usize {
        self.tiles.iter().map(|t| t.macros).sum()
    }
}

/// One pipeline stage: a layer compiled onto its tile group.
///
/// The compiled engine (crossbar weights, effective-current planes,
/// gather plans) is held behind an [`Arc`], so cloning a stage — and
/// therefore cloning a whole [`Chip`] for fleet replication — shares the
/// immutable compiled state instead of re-copying the programmed arrays.
/// Mutable execution state lives entirely in the caller-provided
/// [`red_core::LayerScratch`] ([`CompiledLayer::run_batch_with`]): a
/// stage holds none, and one scratch serves every stage of every chip.
#[derive(Debug, Clone)]
pub struct Stage {
    compiled: Arc<CompiledLayer>,
    tiles: TileGroup,
}

impl Stage {
    /// The compiled engine executing this stage.
    pub fn compiled(&self) -> &CompiledLayer {
        self.compiled.as_ref()
    }

    /// The shared handle to the compiled engine — what [`Chip`] clones
    /// actually share. Two clones of the same chip return pointers to the
    /// same allocation ([`Arc::ptr_eq`]), which is how fleet replication
    /// keeps N replicas at one copy of the programmed crossbars.
    pub fn shared_compiled(&self) -> &Arc<CompiledLayer> {
        &self.compiled
    }

    /// The analytical cost report of this stage.
    pub fn cost(&self) -> &CostReport {
        self.compiled.cost()
    }

    /// The tile group allocated to this stage.
    pub fn tiles(&self) -> &TileGroup {
        &self.tiles
    }

    /// The layer shape this stage executes.
    pub fn layer(&self) -> &LayerShape {
        self.compiled.layer()
    }
}

/// A compiled chip: one design, one network, every layer resident in its
/// own tile group. Build with [`Chip::builder`].
///
/// Cloning a chip is cheap: every stage's compiled engine sits behind an
/// [`Arc`] ([`Stage::shared_compiled`]), so a clone shares the programmed
/// crossbars and only copies the per-stage bookkeeping. `red-server`'s
/// `ChipFleet` replicates a chip this way — N serving replicas, one copy
/// of the weights — and clones stay bit-exact on every execution path.
#[derive(Debug, Clone)]
pub struct Chip {
    name: String,
    design: Design,
    activation: Activation,
    macro_spec: MacroSpec,
    stages: Vec<Stage>,
    input_bits: u32,
    hw_per_image: HardwarePerImage,
    telemetry: red_telemetry::Telemetry,
    trace_pid: u32,
}

impl Chip {
    /// Starts building a chip (defaults: RED design with the paper's
    /// layout policy, ideal crossbars, paper cost model, the repository's
    /// standard inter-stage fold, 512×512 macros).
    pub fn builder() -> ChipBuilder {
        ChipBuilder::new()
    }

    /// The network name this chip was compiled from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The design every stage runs on.
    pub fn design(&self) -> Design {
        self.design
    }

    /// The inter-stage activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of pipeline stages.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// The pipeline stages, in dataflow order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// One pipeline stage by index, or `None` past the last stage.
    pub fn stage(&self, index: usize) -> Option<&Stage> {
        self.stages.get(index)
    }

    /// The `(height, width, channels)` shape this chip's first stage
    /// expects. The serving layer validates request inputs against it
    /// before they enter the queue.
    pub fn input_shape(&self) -> (usize, usize, usize) {
        let layer0 = self.stages[0].layer();
        (layer0.input_h(), layer0.input_w(), layer0.channels())
    }

    /// The chip floorplan (per-stage tile groups and totals).
    pub fn floorplan(&self) -> Floorplan {
        Floorplan {
            macro_spec: self.macro_spec,
            tiles: self.stages.iter().map(|s| s.tiles).collect(),
        }
    }

    /// The analytical pipeline report for this chip, assembled from the
    /// per-stage cost reports the compiler already priced. The runtime's
    /// measured schedule must reconcile with it
    /// ([`crate::RuntimeReport::reconciles_with`]).
    pub fn pipeline_report(&self) -> PipelineReport {
        PipelineReport::from_stages(
            self.design,
            self.stages.iter().map(|s| s.cost().clone()).collect(),
        )
        .expect("a compiled chip has at least one stage")
    }

    /// Modeled energy to push one image through every stage, in pJ.
    pub fn energy_per_image_pj(&self) -> f64 {
        self.stages.iter().map(|s| s.cost().total_energy_pj()).sum()
    }

    /// Modeled hardware activity counters for one image through every
    /// stage (exact integers; see [`HardwarePerImage`]). The serving
    /// layer charges `hw × batch` per dispatched batch, and the
    /// telemetry tests assert those per-request charges sum exactly to
    /// the aggregate report figures.
    pub fn hardware_per_image(&self) -> HardwarePerImage {
        self.hw_per_image
    }

    /// [`Chip::hardware_per_image`] at an explicit precision tier: a
    /// degraded tier streams fewer input magnitude bits, so the
    /// per-phase counters (bit-phase sweeps, plane row adds, ADC
    /// conversions) shrink to the live phase count and the phase-gated
    /// energy share reprices proportionally while activations and the
    /// static energy share stay put. `ExecPrecision::Full` is
    /// bit-identical to [`Chip::hardware_per_image`].
    pub fn hardware_per_image_at(&self, prec: red_arch::ExecPrecision) -> HardwarePerImage {
        if prec == red_arch::ExecPrecision::Full {
            return self.hw_per_image;
        }
        HardwarePerImage::derive_tier(
            self.stages.iter().map(|s| s.cost()),
            self.full_mag_bits(),
            self.live_mag_bits(prec),
        )
    }

    /// Input magnitude bits of the chip's crossbar configuration
    /// (`input_bits − 1`, at least 1) — the full-precision bit-serial
    /// phase count is twice this.
    pub fn full_mag_bits(&self) -> u32 {
        self.input_bits.saturating_sub(1).max(1)
    }

    /// Input magnitude bits that actually stream at `prec`: the full
    /// count minus the tier's dropped bits, clamped so at least one bit
    /// stays live (matching `CrossbarArray`'s clamp).
    pub fn live_mag_bits(&self, prec: red_arch::ExecPrecision) -> u32 {
        let mag = self.full_mag_bits();
        mag - prec.dropped_bits().min(mag - 1)
    }

    /// Fraction of the full-precision conversion-phase count a tier
    /// actually sweeps (`live_mag_bits / full_mag_bits`; 1.0 for
    /// `Full`). The serving scheduler prices a degraded batch's fill
    /// and steady interval at this ratio — phase count is what the
    /// bit-serial pipeline's service time is linear in.
    pub fn phase_ratio(&self, prec: red_arch::ExecPrecision) -> f64 {
        f64::from(self.live_mag_bits(prec)) / f64::from(self.full_mag_bits())
    }

    /// Worst-case absolute deviation any single stage's output can
    /// show at `prec` relative to the same stage input at full
    /// precision, maximised over the chip's stages
    /// ([`red_core::CompiledLayer::truncation_error_bound`]). For a
    /// single-stage chip this bounds the served output exactly; across
    /// stages the inter-stage activation re-maps values, so this
    /// per-stage figure is what the serving layer advertises per
    /// degraded batch. Zero for `Full`.
    pub fn truncation_error_bound(&self, prec: red_arch::ExecPrecision) -> f64 {
        self.stages
            .iter()
            .map(|s| s.compiled().truncation_error_bound(prec))
            .fold(0.0, f64::max)
    }

    /// Per-stage priced latencies in ns, in dataflow order — the
    /// analytic profile the tracer uses to draw per-stage execute spans
    /// without replaying the schedule.
    pub fn stage_latency_profile_ns(&self) -> Vec<f64> {
        self.stages
            .iter()
            .map(|s| s.cost().total_latency_ns())
            .collect()
    }

    /// Attaches a telemetry handle: subsequent `run_*` calls record a
    /// virtual-clock execution trace (one `run` span plus per-stage
    /// spans, plus hardware counters) into stream `pid` under Perfetto
    /// process `pid`. The emission happens once per run on the thread
    /// that assembles the report, so the recorded event sequence is a
    /// deterministic function of the run sequence — do not attach a
    /// handle to chips serving as fleet replicas (the server's scheduler
    /// records its own deterministic spans instead).
    pub fn set_telemetry(&mut self, telemetry: red_telemetry::Telemetry, pid: u32) {
        self.telemetry = telemetry;
        self.trace_pid = pid;
        if self.telemetry.is_enabled() {
            self.telemetry
                .name_process(self.trace_pid, &format!("chip:{}", self.name));
            for (k, stage) in self.stages.iter().enumerate() {
                let l = stage.layer();
                self.telemetry.name_thread(
                    self.trace_pid,
                    1_000 + k as u32,
                    &format!(
                        "stage{k}: {}x{}x{}->{}",
                        l.input_h(),
                        l.input_w(),
                        l.channels(),
                        l.filters()
                    ),
                );
            }
        }
    }

    /// The telemetry handle attached via [`Chip::set_telemetry`]
    /// (disabled by default).
    pub fn telemetry(&self) -> &red_telemetry::Telemetry {
        &self.telemetry
    }

    /// Records one run's execution trace (see [`Chip::set_telemetry`]):
    /// a `run` span on tid 0 plus one analytic per-stage span per
    /// pipeline stage, all on the virtual clock with `t = 0` at batch
    /// start, plus the run's hardware counters. No-op (one branch) when
    /// telemetry is disabled.
    pub(crate) fn emit_run_trace(
        &self,
        report: &crate::RuntimeReport,
        lat: &[f64],
        meters: &[crate::schedule::StageMeter],
    ) {
        use red_telemetry::{ArgValue, Phase, TraceEvent};
        if !self.telemetry.is_enabled() {
            return;
        }
        let pid = self.trace_pid;
        let stream = pid as usize;
        let b = report.batch as u64;
        let mode = match report.mode {
            crate::ExecMode::Sequential => "sequential",
            crate::ExecMode::Batched => "batched",
            crate::ExecMode::Pipelined => "pipelined",
        };
        let hw = self.hw_per_image.scaled(b);
        self.telemetry.record(
            stream,
            TraceEvent::new("run", "chip", Phase::Complete, 0)
                .track(pid, 0)
                .dur(report.makespan_ns.round() as u64)
                .arg("images", ArgValue::U64(b))
                .arg("mode", ArgValue::Str(mode))
                .arg("xbar_activations", ArgValue::U64(hw.crossbar_activations))
                .arg("adc_quantizations", ArgValue::U64(hw.adc_quantizations))
                .arg("energy_fj", ArgValue::U64(hw.energy_fj)),
        );
        // Analytic per-stage windows from the measured latencies: first
        // start to last end of each stage under the mode's schedule.
        let pipelined = report.mode == crate::ExecMode::Pipelined;
        let fill: f64 = lat.iter().sum();
        let mut prefix = 0.0f64;
        let mut runmax = 0.0f64;
        for (k, (&l, meter)) in lat.iter().zip(meters).enumerate() {
            runmax = runmax.max(l);
            let begin = prefix;
            prefix += l;
            let end = if pipelined {
                prefix + (b.saturating_sub(1)) as f64 * runmax
            } else {
                (b.saturating_sub(1)) as f64 * fill + prefix
            };
            let ts = begin.round() as u64;
            self.telemetry.record(
                stream,
                TraceEvent::new("stage", "chip", Phase::Complete, ts)
                    .track(pid, 1_000 + k as u32)
                    .dur((end.round() as u64).saturating_sub(ts))
                    .arg("stage", ArgValue::U64(k as u64))
                    .arg("images", ArgValue::U64(meter.images))
                    .arg(
                        "cycles",
                        ArgValue::U64(u64::try_from(meter.cycles).unwrap_or(u64::MAX)),
                    ),
            );
        }
        let labels: [(&'static str, &str); 1] = [("chip", &self.name)];
        self.telemetry
            .counter(
                "red_xbar_activations_total",
                "Crossbar vector-operation activations issued",
                &labels,
            )
            .add(hw.crossbar_activations);
        self.telemetry
            .counter(
                "red_bit_phase_sweeps_total",
                "Bit-serial input phases swept across activations",
                &labels,
            )
            .add(hw.bit_phase_sweeps);
        self.telemetry
            .counter(
                "red_plane_row_adds_total",
                "Non-zero wordline row-current adds",
                &labels,
            )
            .add(hw.plane_row_adds);
        self.telemetry
            .counter(
                "red_adc_quantizations_total",
                "ADC integrate-and-fire conversions",
                &labels,
            )
            .add(hw.adc_quantizations);
        self.telemetry
            .counter(
                "red_energy_femtojoules_total",
                "Modeled execution energy in femtojoules",
                &labels,
            )
            .add(hw.energy_fj);
        self.telemetry
            .counter("red_images_total", "Images executed", &labels)
            .add(b);
    }

    pub(crate) fn stage_stats(
        &self,
        meters: &[crate::schedule::StageMeter],
        measured_latency_ns: &[f64],
        makespan_ns: f64,
    ) -> Vec<StageStats> {
        meters
            .iter()
            .zip(measured_latency_ns)
            .enumerate()
            .map(|(stage, (meter, &latency_ns))| {
                let busy_ns = latency_ns * meter.images as f64;
                StageStats {
                    stage,
                    latency_ns,
                    images: meter.images,
                    cycles: meter.cycles,
                    busy_ns,
                    occupancy: if makespan_ns > 0.0 {
                        busy_ns / makespan_ns
                    } else {
                        0.0
                    },
                }
            })
            .collect()
    }
}

/// Builder/compiler for [`Chip`].
#[derive(Debug, Clone)]
pub struct ChipBuilder {
    design: Design,
    xbar: XbarConfig,
    model: CostModel,
    activation: Activation,
    macro_spec: MacroSpec,
}

impl ChipBuilder {
    /// Creates the builder with paper defaults.
    pub fn new() -> Self {
        Self {
            design: Design::red(RedLayoutPolicy::Auto),
            xbar: XbarConfig::ideal(),
            model: CostModel::paper_default(),
            activation: Activation::default_fold(),
            macro_spec: MacroSpec::m512(),
        }
    }

    /// Selects the design all stages run on.
    pub fn design(mut self, design: Design) -> Self {
        self.design = design;
        self
    }

    /// Sets the functional crossbar configuration.
    pub fn xbar_config(mut self, cfg: XbarConfig) -> Self {
        self.xbar = cfg;
        self
    }

    /// Copies design, crossbar configuration and cost model from an
    /// already-configured [`Accelerator`].
    pub fn accelerator(mut self, acc: &Accelerator) -> Self {
        self.design = acc.design();
        self.xbar = *acc.xbar_config();
        self.model = *acc.cost_model();
        self
    }

    /// Sets the inter-stage activation.
    pub fn activation(mut self, activation: Activation) -> Self {
        self.activation = activation;
        self
    }

    /// Sets the macro bound for the physical tile split.
    pub fn macro_spec(mut self, mac: MacroSpec) -> Self {
        self.macro_spec = mac;
        self
    }

    /// Compiles `stack` with one kernel per layer.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::Arch`]`(ArchError::EmptyPipeline)` for an empty
    ///   stack;
    /// * [`RuntimeError::Shape`] when the stack's seams do not chain;
    /// * [`RuntimeError::KernelCount`] when `kernels.len()` differs from
    ///   the stack depth;
    /// * [`RuntimeError::Arch`] for kernel/layer mismatches or programming
    ///   failures in any stage.
    pub fn compile(
        &self,
        stack: &DeconvStack,
        kernels: &[Kernel<i64>],
    ) -> Result<Chip, RuntimeError> {
        if stack.layers.is_empty() {
            return Err(red_arch::ArchError::EmptyPipeline.into());
        }
        stack.validate()?;
        if kernels.len() != stack.layers.len() {
            return Err(RuntimeError::KernelCount {
                expected: stack.layers.len(),
                actual: kernels.len(),
            });
        }
        let acc = Accelerator::builder()
            .design(self.design)
            .xbar_config(self.xbar)
            .cost_model(self.model)
            .build();
        let stages = stack
            .layers
            .iter()
            .zip(kernels)
            .enumerate()
            .map(|(i, (layer, kernel))| {
                let compiled = acc.compile(layer, kernel)?;
                let tiles = TileGroup::derive(i, compiled.cost(), self.macro_spec);
                Ok(Stage {
                    compiled: Arc::new(compiled),
                    tiles,
                })
            })
            .collect::<Result<Vec<_>, RuntimeError>>()?;
        let hw_per_image =
            HardwarePerImage::derive(stages.iter().map(|s| s.cost()), self.xbar.input_bits);
        Ok(Chip {
            name: stack.name.to_string(),
            design: self.design,
            activation: self.activation,
            macro_spec: self.macro_spec,
            stages,
            input_bits: self.xbar.input_bits,
            hw_per_image,
            telemetry: red_telemetry::Telemetry::disabled(),
            trace_pid: 0,
        })
    }

    /// Compiles `stack` with seeded synthetic kernels (`synth::kernel`
    /// with weights in `[-bound, bound]`, one derived seed per layer).
    ///
    /// # Errors
    ///
    /// As [`compile`](ChipBuilder::compile).
    ///
    /// # Panics
    ///
    /// Panics if `bound <= 0` (propagated from `synth::kernel`).
    pub fn compile_seeded(
        &self,
        stack: &DeconvStack,
        bound: i64,
        seed: u64,
    ) -> Result<Chip, RuntimeError> {
        let kernels: Vec<_> = stack
            .layers
            .iter()
            .enumerate()
            .map(|(i, layer)| synth::kernel(layer, bound, seed.wrapping_add(i as u64)))
            .collect();
        self.compile(stack, &kernels)
    }
}

impl Default for ChipBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use red_tensor::ShapeError;
    use red_workloads::networks;

    fn small_stack() -> DeconvStack {
        networks::sngan_generator(64).unwrap() // 8/4/2-channel stages
    }

    #[test]
    fn compiler_allocates_one_tile_group_per_layer() {
        let stack = small_stack();
        let chip = ChipBuilder::new().compile_seeded(&stack, 5, 7).unwrap();
        assert_eq!(chip.depth(), stack.layers.len());
        assert_eq!(chip.name(), stack.name);
        let plan = chip.floorplan();
        assert_eq!(plan.tiles.len(), chip.depth());
        for (i, tile) in plan.tiles.iter().enumerate() {
            assert_eq!(tile.stage, i);
            assert!(tile.instances > 0 && tile.macros >= tile.instances);
            assert!(tile.area_um2 > 0.0);
        }
        let area: f64 = chip
            .stages()
            .iter()
            .map(|s| s.cost().total_area_um2())
            .sum();
        assert!((plan.total_area_um2() - area).abs() < 1e-9);
        // The analytical pipeline report is assembled from the same stages.
        let report = chip.pipeline_report();
        assert_eq!(report.depth(), chip.depth());
        assert_eq!(report.total_area_um2(), area);
        assert_eq!(chip.energy_per_image_pj(), report.energy_per_input_pj());
    }

    #[test]
    fn small_macros_split_into_more_tiles() {
        let stack = small_stack();
        let big = ChipBuilder::new()
            .macro_spec(MacroSpec::new(4096, 4096))
            .compile_seeded(&stack, 5, 7)
            .unwrap();
        let small = ChipBuilder::new()
            .macro_spec(MacroSpec::new(4, 4))
            .compile_seeded(&stack, 5, 7)
            .unwrap();
        assert!(small.floorplan().total_macros() > big.floorplan().total_macros());
        // Every tile group holds as many macros as the tiled price bills.
        let model = CostModel::paper_default();
        for chip in [&big, &small] {
            let plan = chip.floorplan();
            for (tile, stage) in plan.tiles.iter().zip(chip.stages()) {
                let tiled = model.evaluate_tiled(chip.design(), stage.layer(), plan.macro_spec);
                assert_eq!(tile.macros, tiled.unwrap().geometry.array.instances);
            }
        }
        // Logical instances are macro-independent.
        assert_eq!(
            big.floorplan().tiles[0].instances,
            small.floorplan().tiles[0].instances
        );
    }

    #[test]
    fn compile_rejects_bad_stacks_and_kernel_counts() {
        let builder = ChipBuilder::new();
        let empty = DeconvStack {
            name: "empty",
            layers: Vec::new(),
        };
        assert!(matches!(
            builder.compile(&empty, &[]),
            Err(RuntimeError::Arch(red_arch::ArchError::EmptyPipeline))
        ));

        let mut broken = small_stack();
        broken.layers.swap(0, 1);
        assert!(matches!(
            builder.compile_seeded(&broken, 5, 7),
            Err(RuntimeError::Shape(ShapeError::ChainMismatch { .. }))
        ));

        let stack = small_stack();
        let one_kernel = vec![synth::kernel(&stack.layers[0], 5, 7)];
        assert!(matches!(
            builder.compile(&stack, &one_kernel),
            Err(RuntimeError::KernelCount {
                expected: 3,
                actual: 1
            })
        ));
    }

    #[test]
    fn accelerator_handoff_copies_configuration() {
        let acc = Accelerator::builder().design(Design::PaddingFree).build();
        let chip = ChipBuilder::new()
            .accelerator(&acc)
            .compile_seeded(&small_stack(), 5, 7)
            .unwrap();
        assert_eq!(chip.design(), Design::PaddingFree);
        for stage in chip.stages() {
            assert_eq!(stage.cost().design, Design::PaddingFree);
            assert_eq!(stage.compiled().design(), Design::PaddingFree);
        }
    }

    #[test]
    fn activation_folds_into_range() {
        let fold = Activation::default_fold();
        let fm = FeatureMap::from_fn(2, 2, 1, |h, w, _| (h as i64 - w as i64) * 1_000_003);
        let out = fold.apply(&fm);
        assert!(out.as_slice().iter().all(|&v| (1..=89).contains(&v)));
        let id = Activation::Identity.apply(&fm);
        assert_eq!(id, fm);
    }
}

//! Property-based invariants over randomly drawn layer geometries and
//! tensor values, via `proptest`.
//!
//! The central property is the one the whole paper rests on: *all three
//! accelerator dataflows compute exactly the same transposed convolution*
//! for every valid `(kernel, stride, padding, output_padding, input)`
//! combination — not just the Table I points.

use proptest::prelude::*;
use red_core::prelude::*;
use red_core::tensor::deconv::{deconv_direct, deconv_padding_free, deconv_zero_padding};
use red_core::tensor::modes::ModeSet;
use red_core::tensor::redundancy;
use std::iter::once;

/// A random small-but-arbitrary deconvolution problem.
#[derive(Debug, Clone)]
struct Problem {
    layer: LayerShape,
    kernel: Kernel<i64>,
    input: FeatureMap<i64>,
}

/// Weight bounds the analog golden tests draw from: ±127 fills every
/// slice, while ±1 and ±5 (the serving lineup's bound) leave the upper
/// slices with code-0 cells only, whose columns the plane elides.
const WEIGHT_BOUNDS: [i64; 3] = [1, 5, 127];

/// The non-ideal crossbar presets.
const NOISY_PRESETS: [&str; 4] = ["variation", "adc", "ir-drop", "full"];

fn problem_strategy() -> impl Strategy<Value = Problem> {
    problem_with_channels(1usize..=4)
}

/// Channel counts for the analog replay tests: 1–4 give planes of at
/// most 8 rows, which read set tables, and 9–12 planes that sum rows.
fn table_and_sum_channels() -> impl Strategy<Value = usize> {
    (0usize..8).prop_map(|i| [1, 2, 3, 4, 9, 10, 11, 12][i])
}

/// [`problem_strategy`] with the channel count drawn from `channels`.
fn problem_with_channels(channels: impl Strategy<Value = usize>) -> impl Strategy<Value = Problem> {
    // kernel 1..=5, stride 1..=4, padding < kernel, op < stride,
    // input 1..=5, filters 1..=4.
    (1usize..=5, 1usize..=4, 1usize..=5, channels, 1usize..=4)
        .prop_flat_map(|(k, s, ih, c, m)| {
            (
                Just(k),
                Just(s),
                Just(ih),
                Just(c),
                Just(m),
                0..k.clamp(1, 2), // padding < kernel (kept small)
                0..s,             // output_padding < stride
                any::<u64>(),
                any::<u64>(),
            )
        })
        .prop_filter_map(
            "valid deconv geometry",
            |(k, s, ih, c, m, p, op, kseed, iseed)| {
                let spec = DeconvSpec::with_output_padding(k, k, s, p, op).ok()?;
                let layer = LayerShape::with_spec(ih, ih, c, m, spec).ok()?;
                // Seeded value generation keeps the strategy cheap while
                // still varying contents across cases.
                let kernel = red_core::workloads::synth::kernel(&layer, 127, kseed);
                let input = red_core::workloads::synth::input_sparse(
                    &layer,
                    127,
                    (iseed % 4) as f64 * 0.25,
                    iseed,
                );
                Some(Problem {
                    layer,
                    kernel,
                    input,
                })
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The three golden algorithms agree on arbitrary geometry.
    #[test]
    fn golden_algorithms_agree(pb in problem_strategy()) {
        let d = deconv_direct(&pb.input, &pb.kernel, pb.layer.spec()).unwrap();
        let zp = deconv_zero_padding(&pb.input, &pb.kernel, pb.layer.spec()).unwrap();
        let pf = deconv_padding_free(&pb.input, &pb.kernel, pb.layer.spec()).unwrap();
        prop_assert_eq!(&zp, &d);
        prop_assert_eq!(&pf, &d);
    }

    /// All three hardware engines agree with the direct definition on
    /// arbitrary geometry — the repository's core claim.
    #[test]
    fn engines_agree_with_oracle(pb in problem_strategy()) {
        let golden = deconv_direct(&pb.input, &pb.kernel, pb.layer.spec()).unwrap();
        for design in Design::paper_lineup() {
            let acc = Accelerator::builder().design(design).build();
            let exec = acc.compile(&pb.layer, &pb.kernel).unwrap().run(&pb.input).unwrap();
            prop_assert_eq!(&exec.output, &golden, "{}", design);
        }
    }

    /// Both RED layouts agree and the halved layout costs exactly 2x the
    /// cycles (Eq. 2).
    #[test]
    fn red_layouts_agree(pb in problem_strategy()) {
        let full = Accelerator::builder()
            .design(Design::red(RedLayoutPolicy::AlwaysFull))
            .build()
            .compile(&pb.layer, &pb.kernel).unwrap()
            .run(&pb.input).unwrap();
        let halved = Accelerator::builder()
            .design(Design::red(RedLayoutPolicy::AlwaysHalved))
            .build()
            .compile(&pb.layer, &pb.kernel).unwrap()
            .run(&pb.input).unwrap();
        prop_assert_eq!(&full.output, &halved.output);
        prop_assert_eq!(halved.stats.cycles, 2 * full.stats.cycles);
    }

    /// The computation modes partition the kernel taps exactly (the
    /// exclusivity the pixel-wise mapping relies on, Fig. 6).
    #[test]
    fn modes_partition_kernel(k in 1usize..=8, s in 1usize..=8) {
        let spec = DeconvSpec::new(k, k, s, 0).unwrap();
        let set = ModeSet::enumerate(&spec);
        let mut seen = std::collections::HashSet::new();
        for mode in &set {
            for &t in &mode.taps {
                prop_assert!(seen.insert(t), "tap {:?} appears in two modes", t);
            }
        }
        prop_assert_eq!(seen.len(), k * k);
        prop_assert_eq!(set.len(), s * s);
    }

    /// Redundancy analytics: the map-level zero fraction is always at
    /// least the interior bound `1 - 1/s²`... (loosely: increases with
    /// stride, bounded by 1) and matches a directly counted padded map.
    #[test]
    fn redundancy_matches_counting(n in 1usize..=8, k in 1usize..=6, s in 1usize..=6) {
        let p = 0usize;
        let spec = DeconvSpec::new(k, k, s, p).unwrap();
        let analytic = redundancy::map_zero_fraction(n, n, &spec).unwrap();
        let input = FeatureMap::<i64>::from_fn(n, n, 1, |_, _, _| 1);
        let padded = red_core::tensor::deconv::zero_insert_pad(&input, &spec);
        let counted = padded.count_zeros() as f64 / padded.len() as f64;
        prop_assert!((analytic - counted).abs() < 1e-12);
        prop_assert!((0.0..1.0).contains(&analytic));
    }

    /// Crossbar analog pipeline is bit-exact with the digital reference
    /// under ideal configuration, for both weight encodings.
    #[test]
    fn analog_vmm_exact(
        rows in 1usize..=24,
        cols in 1usize..=8,
        wseed in any::<u64>(),
        xseed in any::<u64>(),
        offset_binary in any::<bool>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(wseed);
        let weights: Vec<Vec<i64>> = (0..rows)
            .map(|_| (0..cols).map(|_| rng.gen_range(-127..=127)).collect())
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(xseed);
        let input: Vec<i64> = (0..rows).map(|_| rng.gen_range(-127..=127)).collect();
        let cfg = XbarConfig {
            scheme: if offset_binary { WeightScheme::OffsetBinary } else { WeightScheme::Differential },
            ..XbarConfig::ideal()
        };
        let arr = red_core::xbar::CrossbarArray::program(&cfg, &weights).unwrap();
        let mut analog = vec![0i64; cols];
        arr.vmm_analog_into(&input, &mut red_core::xbar::VmmScratch::new(), &mut analog);
        prop_assert_eq!(analog, arr.vmm_exact(&input));
    }

    /// Golden equivalence of the analog kernel: the planned path
    /// (programming-time effective-current plane, set-bit phase buckets,
    /// 4-row plane sums, one shift-add per VMM) and the batched entry
    /// point are **bit-identical** to the seed per-phase-recompute
    /// pipeline (`vmm_analog_reference`) across arbitrary scheme x ADC x
    /// IR-drop x drift combinations, with variation and stuck-at faults
    /// drawn in too. Cell width, input width and precision tier vary as
    /// well, so the slice shifts, the phase windows and offset binary's
    /// deferred reference term are all exercised; a degraded tier is
    /// checked against the reference on truncated inputs. Every case
    /// also reruns on a saturating converter of 44..=62 bits, which
    /// crosses the `bits + magnitude bits + 1 ≤ 53` bound between the
    /// kernel's f64 column sums and its i128 fallback. Weights are drawn
    /// within ±1, ±5 or ±127: the narrow bounds leave the upper slices'
    /// columns dead (code-0 cells only) unless a stuck-on cell revives
    /// them, so the plane's dead-column elision is checked too.
    #[test]
    fn analog_plane_bit_identical_to_reference(
        (rows, cols) in (1usize..=24, 1usize..=6),
        wseed in any::<u64>(),
        xseed in any::<u64>(),
        offset_binary in any::<bool>(),
        adc_bits in 0u32..=10,          // <3: ideal converter
        ir_centi_ohm in 0u32..=500,     // 0..=5 ohm/cell in 0.01 steps
        drift_days in 0u32..=365,
        sigma_pct in 0u32..=5,
        fault_pm in 0u32..=20,          // stuck-off rate, per-mille
        (cell_bits, input_bits, tier, wide_bits, wbound) in
            (0usize..=2, 2u32..=8, 0usize..=2, 44u32..=62, 0usize..=2),
    ) {
        use rand::{Rng, SeedableRng};
        use red_core::device::DriftModel;
        use red_core::xbar::{CrossbarArray, ExecPrecision, IrDropModel, VmmScratch};

        let wb = WEIGHT_BOUNDS[wbound];
        let mut rng = rand::rngs::StdRng::seed_from_u64(wseed);
        let weights: Vec<Vec<i64>> = (0..rows)
            .map(|_| (0..cols).map(|_| rng.gen_range(-wb..=wb)).collect())
            .collect();
        let mut cfg = XbarConfig {
            scheme: if offset_binary { WeightScheme::OffsetBinary } else { WeightScheme::Differential },
            adc: if adc_bits < 3 {
                AdcModel::Ideal
            } else {
                AdcModel::Saturating { bits: adc_bits }
            },
            variation: red_core::device::variation::VariationModel::with_sigma(
                f64::from(sigma_pct) / 100.0,
                wseed ^ 1,
            ),
            faults: red_core::device::variation::FaultModel::with_rates(
                f64::from(fault_pm) / 1000.0,
                f64::from(fault_pm) / 2000.0,
                wseed ^ 2,
            ),
            ir_drop: IrDropModel::with_resistance(f64::from(ir_centi_ohm) / 100.0),
            drift: DriftModel::after(0.02, f64::from(drift_days) * 86_400.0),
            input_bits,
            ..XbarConfig::ideal()
        };
        cfg.cell.bits_per_cell = [1, 2, 4][cell_bits];
        let arr = CrossbarArray::program(&cfg, &weights).unwrap();

        // Mixed-sign inputs over the configured input range, and the
        // tier's truncation of them: `sign(x)·((|x| >> k) << k)`, with
        // `k` clamped so one magnitude bit stays live.
        let prec = ExecPrecision::ALL[tier];
        let dropped = prec.dropped_bits().min((input_bits - 1).max(1) - 1);
        let bound = cfg.input_bound();
        let mut rng = rand::rngs::StdRng::seed_from_u64(xseed);
        let n = 3usize;
        let inputs: Vec<i64> = (0..n * rows).map(|_| rng.gen_range(-bound..=bound)).collect();
        let wide = CrossbarArray::program(
            &XbarConfig { adc: AdcModel::Saturating { bits: wide_bits }, ..cfg },
            &weights,
        )
        .unwrap();
        let mut scratch = VmmScratch::new();
        for arr in [&arr, &wide] {
            let golden: Vec<Vec<i64>> = inputs
                .chunks_exact(rows)
                .map(|x| {
                    let truncated: Vec<i64> = x
                        .iter()
                        .map(|&v| v.signum() * ((v.abs() >> dropped) << dropped))
                        .collect();
                    arr.vmm_analog_reference(&truncated)
                })
                .collect();
            let adc = arr.config().adc;

            // Single-input planned path...
            let mut out = vec![0i64; cols];
            for (x, g) in inputs.chunks_exact(rows).zip(&golden) {
                arr.vmm_analog_batch_at(x, 1, &mut scratch, &mut out, prec);
                prop_assert_eq!(&out, g, "planned vs reference at {}, {:?}", prec, adc);
            }
            // ...and the public batched entry point.
            let mut batch_out = vec![0i64; n * cols];
            arr.vmm_analog_batch_at(&inputs, n, &mut scratch, &mut batch_out, prec);
            for (k, g) in golden.iter().enumerate() {
                prop_assert_eq!(&batch_out[k * cols..(k + 1) * cols], g.as_slice(), "batched input {} at {}, {:?}", k, prec, adc);
            }
        }
    }

    /// Golden equivalence of the kernel where active-row sets repeat
    /// across phases and inputs: planes of 1–12 rows (set tables up to 8,
    /// row sums past it) whose columns span one to several tiles, batches
    /// of 1–9 inputs that copy earlier inputs at random, random disjoint
    /// weight-column ranges, both schemes and every tier, on an ideal
    /// converter (`i128` sums) or a saturating one of 3..=10 bits (`f64`
    /// sums), plus each case's 44..=62-bit `wide_bits` converter, which
    /// crosses the bound between the two. Every input's results in the ranges equal
    /// `vmm_analog_reference` on its own truncated input, and the other
    /// columns stay untouched. The other effects come from the
    /// `variation`, `adc`, `ir-drop` or `full` preset, and weights lie
    /// within ±1, ±5 or ±127, so tiles hold dead columns elided, stuck-on
    /// cells reviving them, or none.
    #[test]
    fn analog_batch_shared_sets_bit_identical_to_reference(
        (rows, cols, n) in (1usize..=12, 1usize..=200, 1usize..=9),
        wseed in any::<u64>(),
        xseed in any::<u64>(),
        offset_binary in any::<bool>(),
        adc_bits in 0u32..=10,          // <3: ideal converter
        (tier, wide_bits, preset, wbound) in (0usize..=2, 44u32..=62, 0usize..=3, 0usize..=2),
    ) {
        use rand::{Rng, SeedableRng};
        use red_core::xbar::{CrossbarArray, ExecPrecision, VmmScratch};

        let wb = WEIGHT_BOUNDS[wbound];
        let mut rng = rand::rngs::StdRng::seed_from_u64(wseed);
        let weights: Vec<Vec<i64>> = (0..rows)
            .map(|_| (0..cols).map(|_| rng.gen_range(-wb..=wb)).collect())
            .collect();
        let cfg = XbarConfig {
            scheme: if offset_binary { WeightScheme::OffsetBinary } else { WeightScheme::Differential },
            adc: if adc_bits < 3 {
                AdcModel::Ideal
            } else {
                AdcModel::Saturating { bits: adc_bits }
            },
            ..XbarConfig::preset(NOISY_PRESETS[preset]).unwrap()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(xseed);
        let bound = cfg.input_bound();
        let mut inputs: Vec<i64> = Vec::with_capacity(n * rows);
        for k in 0..n {
            if k > 0 && rng.gen_bool(0.4) {
                let j = rng.gen_range(0..k);
                inputs.extend_from_within(j * rows..(j + 1) * rows);
            } else {
                inputs.extend((0..rows).map(|_| rng.gen_range(-bound..=bound)));
            }
        }
        // Every other segment between random cuts of the columns.
        let mut cuts: Vec<usize> = (0..4).map(|_| rng.gen_range(0..=cols)).chain([0, cols]).collect();
        cuts.sort_unstable();
        let parity = rng.gen_range(0..2usize);
        let ranges: Vec<std::ops::Range<usize>> = cuts
            .windows(2)
            .enumerate()
            .filter(|&(i, _)| i % 2 == parity)
            .map(|(_, w)| w[0]..w[1])
            .collect();

        let prec = ExecPrecision::ALL[tier];
        // 8-bit inputs stream 7 magnitude bits, and one stays live.
        let dropped = prec.dropped_bits().min(6);
        let arr = CrossbarArray::program(&cfg, &weights).unwrap();
        let wide = CrossbarArray::program(
            &XbarConfig { adc: AdcModel::Saturating { bits: wide_bits }, ..cfg },
            &weights,
        )
        .unwrap();
        let mut scratch = VmmScratch::new();
        for arr in [&arr, &wide] {
            let adc = arr.config().adc;
            let mut out = vec![i64::MIN; n * cols];
            arr.vmm_batch_cols(&inputs, n, ranges.iter().cloned(), &mut scratch, &mut out, prec);
            for (k, (x, got)) in inputs.chunks_exact(rows).zip(out.chunks_exact(cols)).enumerate() {
                let truncated: Vec<i64> = x
                    .iter()
                    .map(|&v| v.signum() * ((v.abs() >> dropped) << dropped))
                    .collect();
                let golden = arr.vmm_analog_reference(&truncated);
                for (m, (&got, &golden)) in got.iter().zip(&golden).enumerate() {
                    let want = if ranges.iter().any(|r| r.contains(&m)) { golden } else { i64::MIN };
                    prop_assert_eq!(got, want, "input {} column {} at {}, {:?}", k, m, prec, adc);
                }
            }
        }
    }

    /// Golden equivalence of RED's input-stationary replay: on noisy
    /// crossbars of both schemes, with a saturating or an ideal
    /// converter, in both layouts (odd tap counts included) and at every
    /// precision tier, the engine's outputs and [`ExecutionStats`] equal
    /// an output-stationary reference built from scratch. That reference
    /// enumerates every gather of the zero-skipping schedule — tap
    /// `(i, j)` of input pixel `(x, y)` lands in output pixel
    /// `(s·x + i − p, s·y + j − p)` when that pixel exists — drives the
    /// tap's own array through `vmm_analog_reference` (the halved
    /// layout's with the zero-filled `2C` vector) on the tier's truncated
    /// pixel, and meters each gather on its own. The crossbars take the
    /// `variation`, `adc`, `ir-drop` or `full` preset's other effects,
    /// with stuck-at faults and σ = 0.03 variation always on, both seeded
    /// per case, and the kernel is drawn within ±1, ±5 or ±127, so the
    /// fused plane holds dead columns elided, stuck-on cells reviving
    /// them, or none. The fused plane has a row per channel, so 1–4
    /// channels read its set table and 9–12 sum its rows.
    #[test]
    fn red_replay_matches_gathered_reference(
        pb in problem_with_channels(table_and_sum_channels()),
        halved in any::<bool>(),
        offset_binary in any::<bool>(),
        saturating in any::<bool>(),
        (tier, preset, wbound) in (0usize..=2, 0usize..=3, 0usize..=2),
        seed in any::<u64>(),
    ) {
        use red_core::arch::RedEngine;
        use red_core::device::variation::{FaultModel, VariationModel};

        let cfg = XbarConfig {
            scheme: if offset_binary { WeightScheme::OffsetBinary } else { WeightScheme::Differential },
            adc: if saturating { AdcModel::Saturating { bits: 8 } } else { AdcModel::Ideal },
            variation: VariationModel::with_sigma(0.03, seed),
            faults: FaultModel::with_rates(0.002, 0.001, seed ^ 1),
            ..XbarConfig::preset(NOISY_PRESETS[preset]).unwrap()
        };
        let kernel = red_core::workloads::synth::kernel(&pb.layer, WEIGHT_BOUNDS[wbound], seed);
        let policy = if halved { RedLayoutPolicy::AlwaysHalved } else { RedLayoutPolicy::AlwaysFull };
        let engine = RedEngine::new(&cfg, &pb.layer, &kernel, policy).unwrap();
        let prec = ExecPrecision::ALL[tier];
        // 8-bit inputs stream 7 magnitude bits, and one stays live.
        let dropped = prec.dropped_bits().min(6);
        // Mixed signs, so both polarity phases pulse.
        let inputs = [pb.input.map(|v| if v % 3 == 1 { -v } else { v }), pb.input.map(|v| -v)];

        let spec = pb.layer.spec();
        let (k, s, p) = (spec.kernel_w(), spec.stride(), spec.padding());
        let (c, m) = (pb.layer.channels(), pb.layer.filters());
        let geom = pb.layer.output_geometry();
        let sct = engine.sct();
        let per = sct.cycles_per_batch();
        let blocks = (geom.height.div_ceil(s) * geom.width.div_ceil(s)) as u64;
        let mut scratch = LayerScratch::default();
        let batch = engine.run(&inputs, &mut scratch, prec).unwrap();
        for (input, got) in inputs.iter().zip(&batch) {
            let mut want = FeatureMap::<i64>::zeros(geom.height, geom.width, m);
            let mut stats = ExecutionStats {
                cycles: blocks * per as u64,
                total_row_slots: u128::from(blocks)
                    * (sct.sub_crossbars() * sct.rows_per_array() * per) as u128,
                output_pixels: geom.pixels() as u64,
                ..ExecutionStats::default()
            };
            for (x, y, i, j) in (0..pb.layer.input_h()).flat_map(|x| {
                (0..pb.layer.input_w()).flat_map(move |y| {
                    (0..k).flat_map(move |i| (0..k).map(move |j| (x, y, i, j)))
                })
            }) {
                let (Some(u), Some(v)) = ((s * x + i).checked_sub(p), (s * y + j).checked_sub(p))
                else {
                    continue;
                };
                if u >= geom.height || v >= geom.width {
                    continue;
                }
                let px = input.pixel(x, y);
                let t = i * k + j;
                let mut driven = vec![0i64; per * c];
                for (d, &x) in driven[(t % per) * c..].iter_mut().zip(px) {
                    *d = x.signum() * ((x.abs() >> dropped) << dropped);
                }
                let partial = sct.array(t / per).vmm_analog_reference(&driven);
                for (o, q) in want.pixel_mut(u, v).iter_mut().zip(partial) {
                    *o += q;
                }
                let nnz = px.iter().filter(|&&x| x != 0).count() as u128;
                stats.vector_ops += 1;
                stats.nonzero_row_activations += nnz;
                stats.nonzero_macs += nnz * m as u128;
            }
            prop_assert_eq!(&got.output, &want, "{:?} at {}", policy, prec);
            prop_assert_eq!(got.stats, stats, "{:?} at {}", policy, prec);
            let one = engine.run(std::slice::from_ref(input), &mut scratch, prec).unwrap();
            prop_assert_eq!(&one[0], got, "single image vs batch");
        }
    }

    /// Golden equivalence of padding-free's landing-column replay: on
    /// noisy crossbars of both schemes, with a saturating or an ideal
    /// converter, at every precision tier, for the lineup's k5/s2/p2/op1
    /// and k4/s2/p1 specs, the engine's outputs equal evaluating every
    /// input pixel on all `KH·KW·M` columns through `vmm_analog_reference`
    /// (on the tier's truncated pixel) and adding each tap's partial sums
    /// into output pixel `(s·x + i − p, s·y + j − p)` when that pixel
    /// exists. The batch repeats an image, so row sets recur across
    /// inputs; 1–4 channels make them recur across phases and give a
    /// plane of at most 8 rows, which reads its set table, and 9–12 one
    /// that sums its rows; up to 6 filters take the array past one
    /// column tile. The crossbars take
    /// the `variation`, `adc`, `ir-drop` or `full` preset's other effects,
    /// with stuck-at faults and σ = 0.03 variation always on, both seeded
    /// per case, and the kernel is drawn within ±1, ±5 or ±127, so the
    /// plane holds dead columns elided, stuck-on cells reviving them, or
    /// none.
    #[test]
    fn padding_free_replay_matches_full_column_reference(
        k5 in any::<bool>(),
        (ih, c, m) in (1usize..=4, table_and_sum_channels(), 1usize..=6),
        offset_binary in any::<bool>(),
        saturating in any::<bool>(),
        (tier, preset, wbound) in (0usize..=2, 0usize..=3, 0usize..=2),
        seed in any::<u64>(),
    ) {
        use red_core::arch::PaddingFreeEngine;
        use red_core::device::variation::{FaultModel, VariationModel};

        let spec = if k5 {
            DeconvSpec::with_output_padding(5, 5, 2, 2, 1)
        } else {
            DeconvSpec::new(4, 4, 2, 1)
        }
        .unwrap();
        let layer = LayerShape::with_spec(ih, ih, c, m, spec).unwrap();
        let kernel = red_core::workloads::synth::kernel(&layer, WEIGHT_BOUNDS[wbound], seed);
        let input = red_core::workloads::synth::input_sparse(&layer, 127, 0.25, seed ^ 3);
        let cfg = XbarConfig {
            scheme: if offset_binary { WeightScheme::OffsetBinary } else { WeightScheme::Differential },
            adc: if saturating { AdcModel::Saturating { bits: 8 } } else { AdcModel::Ideal },
            variation: VariationModel::with_sigma(0.03, seed),
            faults: FaultModel::with_rates(0.002, 0.001, seed ^ 1),
            ..XbarConfig::preset(NOISY_PRESETS[preset]).unwrap()
        };
        let engine = PaddingFreeEngine::new(&cfg, &layer, &kernel).unwrap();
        let prec = ExecPrecision::ALL[tier];
        // 8-bit inputs stream 7 magnitude bits, and one stays live.
        let dropped = prec.dropped_bits().min(6);
        // Mixed signs, so both polarity phases pulse.
        let mixed = input.map(|v| if v % 3 == 1 { -v } else { v });
        let inputs = [mixed.clone(), input.map(|v| -v), mixed];

        let (k, s, p) = (spec.kernel_w(), spec.stride(), spec.padding());
        let geom = layer.output_geometry();
        let mut scratch = LayerScratch::default();
        let batch = engine.run(&inputs, &mut scratch, prec).unwrap();
        for (input, got) in inputs.iter().zip(&batch) {
            let mut want = FeatureMap::<i64>::zeros(geom.height, geom.width, m);
            for (x, y) in (0..ih).flat_map(|x| (0..ih).map(move |y| (x, y))) {
                let px: Vec<i64> = input
                    .pixel(x, y)
                    .iter()
                    .map(|&v| v.signum() * ((v.abs() >> dropped) << dropped))
                    .collect();
                let partials = engine.array().vmm_analog_reference(&px);
                for (i, j) in (0..k).flat_map(|i| (0..k).map(move |j| (i, j))) {
                    let (Some(u), Some(v)) = ((s * x + i).checked_sub(p), (s * y + j).checked_sub(p))
                    else {
                        continue;
                    };
                    if u >= geom.height || v >= geom.width {
                        continue;
                    }
                    let t = i * k + j;
                    for (o, &q) in want.pixel_mut(u, v).iter_mut().zip(&partials[t * m..]) {
                        *o += q;
                    }
                }
            }
            prop_assert_eq!(&got.output, &want, "k{} at {}", k, prec);
            let one = engine.run(std::slice::from_ref(input), &mut scratch, prec).unwrap();
            prop_assert_eq!(&one[0], got, "single image vs batch");
        }
    }

    /// Golden equivalence of zero-padding's stride-phase replay: on noisy
    /// crossbars of both schemes, with a saturating or an ideal
    /// converter, at every precision tier, for the lineup's k5/s2/p2/op1,
    /// k4/s2/p1 and k16/s8/p0 specs with 1–4 channels (so stride phases
    /// of 4 to 36 rows fall on both sides of the set tables' 8-row
    /// bound), the engine's outputs equal gathering every output pixel's
    /// full zero-inserted window from `zero_insert_pad` and driving the
    /// modeled window array through `vmm_analog_reference` on the tier's
    /// truncated window, and its [`ExecutionStats`] equal metering every
    /// full window. The batch repeats an image, and one image run alone
    /// equals its result in the batch. The crossbars take the
    /// `variation`, `adc`, `ir-drop` or `full` preset's other effects,
    /// with stuck-at faults and σ = 0.03 variation always on, both seeded
    /// per case, and the kernel is drawn within ±1, ±5 or ±127, so the
    /// phase planes hold dead columns elided, stuck-on cells reviving
    /// them, or none.
    #[test]
    fn zero_padding_replay_matches_window_reference(
        spec_at in 0usize..=2,
        (ih, c, m) in (1usize..=3, 1usize..=4, 1usize..=3),
        offset_binary in any::<bool>(),
        saturating in any::<bool>(),
        (tier, preset, wbound) in (0usize..=2, 0usize..=3, 0usize..=2),
        seed in any::<u64>(),
    ) {
        use red_core::arch::ZeroPaddingEngine;
        use red_core::device::variation::{FaultModel, VariationModel};
        use red_core::tensor::deconv::zero_insert_pad;
        use std::collections::HashMap;

        let spec = match spec_at {
            0 => DeconvSpec::with_output_padding(5, 5, 2, 2, 1),
            1 => DeconvSpec::new(4, 4, 2, 1),
            _ => DeconvSpec::new(16, 16, 8, 0),
        }
        .unwrap();
        // The k16/s8 window is 256·C rows: one or two input pixels a side
        // keep the reference's per-window replays affordable.
        let ih = if spec_at == 2 { ih.min(2) } else { ih };
        let layer = LayerShape::with_spec(ih, ih, c, m, spec).unwrap();
        let kernel = red_core::workloads::synth::kernel(&layer, WEIGHT_BOUNDS[wbound], seed);
        let input = red_core::workloads::synth::input_sparse(&layer, 127, 0.25, seed ^ 3);
        let cfg = XbarConfig {
            scheme: if offset_binary { WeightScheme::OffsetBinary } else { WeightScheme::Differential },
            adc: if saturating { AdcModel::Saturating { bits: 8 } } else { AdcModel::Ideal },
            variation: VariationModel::with_sigma(0.03, seed),
            faults: FaultModel::with_rates(0.002, 0.001, seed ^ 1),
            ..XbarConfig::preset(NOISY_PRESETS[preset]).unwrap()
        };
        let engine = ZeroPaddingEngine::new(&cfg, &layer, &kernel).unwrap();
        let prec = ExecPrecision::ALL[tier];
        // 8-bit inputs stream 7 magnitude bits, and one stays live.
        let dropped = prec.dropped_bits().min(6);
        // Mixed signs, so both polarity phases pulse.
        let mixed = input.map(|v| if v % 3 == 1 { -v } else { v });
        let inputs = [mixed.clone(), input.map(|v| -v), mixed];

        let k = spec.kernel_w();
        let geom = layer.output_geometry();
        let len = k * k * c;
        let array = engine.array();
        let mut scratch = LayerScratch::default();
        let batch = engine.run(&inputs, &mut scratch, prec).unwrap();
        // Equal windows read out equal values, so each distinct truncated
        // window goes through the reference once.
        let mut reference: HashMap<Vec<i64>, Vec<i64>> = HashMap::new();
        for (input, got) in inputs.iter().zip(&batch) {
            let padded = zero_insert_pad(input, &spec);
            let mut want = FeatureMap::<i64>::zeros(geom.height, geom.width, m);
            let mut stats = ExecutionStats::default();
            for (u, v) in (0..geom.height).flat_map(|u| (0..geom.width).map(move |v| (u, v))) {
                let window: Vec<i64> = (0..k)
                    .flat_map(|i| (0..k).map(move |j| (i, j)))
                    .flat_map(|(i, j)| padded.pixel(u + i, v + j).to_vec())
                    .collect();
                let truncated: Vec<i64> = window
                    .iter()
                    .map(|&x| x.signum() * ((x.abs() >> dropped) << dropped))
                    .collect();
                let out = reference
                    .entry(truncated)
                    .or_insert_with_key(|x| array.vmm_analog_reference(x));
                want.pixel_mut(u, v).copy_from_slice(out);
                let nnz = window.iter().filter(|&&x| x != 0).count() as u128;
                stats.cycles += 1;
                stats.vector_ops += 1;
                stats.nonzero_row_activations += nnz;
                stats.total_row_slots += len as u128;
                stats.nonzero_macs += nnz * m as u128;
                stats.output_pixels += 1;
            }
            prop_assert_eq!(&got.output, &want, "k{} C{} at {}", k, c, prec);
            prop_assert_eq!(got.stats, stats, "k{} C{} at {}", k, c, prec);
            let one = engine.run(std::slice::from_ref(input), &mut scratch, prec).unwrap();
            prop_assert_eq!(&one[0], got, "single image vs batch");
        }
    }

    /// Degraded-tier execution obeys its advertised worst-case error
    /// bound on every crossbar preset, the bound itself is monotone
    /// nondecreasing in dropped bits, and for ideal arrays it is
    /// attained by the sign-aligned adversarial input (tight). The
    /// monotone claim lives on the *bound*: a single sample's observed
    /// error is not monotone in dropped bits — truncating two more bits
    /// can cancel a residue the shallower tier kept (e.g. `W = [2, -1]`,
    /// `x = [1, 2]`: one dropped bit errs by 2, two err by 0).
    #[test]
    fn truncation_error_within_advertised_bound(
        rows in 1usize..=24,
        cols in 1usize..=6,
        wseed in any::<u64>(),
        xseed in any::<u64>(),
        preset in 0usize..=4,
    ) {
        use rand::{Rng, SeedableRng};
        use red_core::xbar::{CrossbarArray, ExecPrecision, VmmScratch};

        let mut rng = rand::rngs::StdRng::seed_from_u64(wseed);
        let weights: Vec<Vec<i64>> = (0..rows)
            .map(|_| (0..cols).map(|_| rng.gen_range(-127..=127)).collect())
            .collect();
        let name = ["ideal", "variation", "adc", "ir-drop", "full"][preset];
        let cfg = if name == "ideal" {
            XbarConfig::ideal()
        } else {
            XbarConfig::preset(name).unwrap()
        };
        let arr = CrossbarArray::program(&cfg, &weights).unwrap();

        // The advertised bound is monotone in depth by construction.
        for k in 0..8 {
            prop_assert!(
                arr.truncation_error_bound_bits(k) <= arr.truncation_error_bound_bits(k + 1),
                "bound must be nondecreasing in dropped bits at k={}", k
            );
        }

        let mut rng = rand::rngs::StdRng::seed_from_u64(xseed);
        let input: Vec<i64> = (0..rows).map(|_| rng.gen_range(-127..=127)).collect();
        let mut scratch = VmmScratch::new();
        let mut full = vec![0i64; cols];
        arr.vmm_batch_cols(&input, 1, once(0..cols), &mut scratch, &mut full, ExecPrecision::Full);
        for prec in ExecPrecision::ALL {
            let mut out = vec![0i64; cols];
            arr.vmm_batch_cols(&input, 1, once(0..cols), &mut scratch, &mut out, prec);
            let bound = arr.truncation_error_bound(prec);
            if prec == ExecPrecision::Full {
                prop_assert_eq!(&out, &full, "full tier is bit-identical");
                prop_assert_eq!(bound, 0.0);
            }
            for (m, (&d, &f)) in out.iter().zip(&full).enumerate() {
                let err = (d - f).abs() as f64;
                prop_assert!(
                    err <= bound,
                    "{:?} col {}: observed error {} exceeds advertised bound {}",
                    prec, m, err, bound
                );
            }
        }

        // Ideal arrays: the bound is tight. The adversarial input puts
        // every residue at 2^k - 1 with signs aligned to the worst
        // column, truncates to all-zeros, and attains the bound exactly.
        if preset == 0 {
            let worst = (0..cols)
                .max_by_key(|&m| weights.iter().map(|r| r[m].abs()).sum::<i64>())
                .unwrap();
            for prec in [ExecPrecision::Eco, ExecPrecision::Brownout] {
                let k = prec.dropped_bits().min(6);
                let residue = (1i64 << k) - 1;
                let adversarial: Vec<i64> = weights
                    .iter()
                    .map(|r| if r[worst] < 0 { -residue } else { residue })
                    .collect();
                let mut out = vec![0i64; cols];
                arr.vmm_batch_cols(&adversarial, 1, once(0..cols), &mut scratch, &mut out, prec);
                let mut exact = vec![0i64; cols];
                let (all, full_tier) = (once(0..cols), ExecPrecision::Full);
                arr.vmm_batch_cols(&adversarial, 1, all, &mut scratch, &mut exact, full_tier);
                let attained = (out[worst] - exact[worst]).abs() as f64;
                prop_assert_eq!(
                    attained,
                    arr.truncation_error_bound(prec),
                    "ideal bound is attained at {:?}", prec
                );
            }
        }
    }

    /// Quantization round-trip error is bounded by half a step, and the
    /// quantizer never exceeds the representable code range.
    #[test]
    fn quantization_bounds(bits in 2u32..=12, max_abs in 0.001f64..100.0, v in -200.0f64..200.0) {
        use red_core::tensor::quant::QuantParams;
        let p = QuantParams::fit(bits, max_abs);
        let q = p.quantize(v);
        let qmax = QuantParams::q_max(bits);
        prop_assert!(q.abs() <= qmax);
        if v.abs() <= max_abs {
            let err = (p.dequantize(q) - v).abs();
            prop_assert!(err <= p.scale / 2.0 + 1e-9);
        }
    }

    /// Cost-model sanity on arbitrary geometry: totals are positive and
    /// finite, breakdowns sum to totals, RED never takes more cycles than
    /// zero-padding. (Padding-free *can* exceed zero-padding cycles when
    /// cropping shrinks the output below the input — it computes every
    /// input pixel regardless — so the cycle bound applies to RED only.)
    #[test]
    fn cost_model_sane(pb in problem_strategy()) {
        let model = CostModel::paper_default();
        let zp = model.evaluate(Design::ZeroPadding, &pb.layer).unwrap();
        for design in Design::paper_lineup() {
            let r = model.evaluate(design, &pb.layer).unwrap();
            prop_assert!(r.total_latency_ns().is_finite() && r.total_latency_ns() > 0.0);
            prop_assert!(r.total_energy_pj().is_finite() && r.total_energy_pj() > 0.0);
            prop_assert!(r.total_area_um2().is_finite() && r.total_area_um2() > 0.0);
            let sum = r.array_latency_ns() + r.periphery_latency_ns();
            prop_assert!((sum - r.total_latency_ns()).abs() <= 1e-9 * sum.max(1.0));
            if matches!(design, Design::Red { .. }) {
                // Batches = ceil(OH/s)*ceil(OW/s) <= OH*OW; halved doubles.
                prop_assert!(r.geometry.cycles <= zp.geometry.cycles.max(1) * 2);
            }
        }
    }
}

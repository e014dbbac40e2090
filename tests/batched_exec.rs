//! Integration tests for the allocation-free batched execution layer:
//! `CompiledLayer::run_batch_with_at` must be bit-exact against per-image
//! execution and the golden algorithm for all three designs, whatever
//! batch an image runs in and whatever its scratch ran before — on the
//! ideal path, on a noisy (`XbarConfig::noisy`) analog configuration, at
//! every precision tier, and through the pipelined runtime at every
//! worker count — and steady-state execution must not allocate per
//! pixel.
#![allow(unsafe_code)] // the counting global allocator below

use proptest::prelude::*;
use red_sim::red_core::prelude::*;
use red_sim::red_core::tensor::deconv::deconv_direct;
use red_sim::red_core::workloads::networks;
use red_sim::red_runtime::ChipBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper counting every allocation *per thread*, so
/// the allocation-budget test measures only its own thread's work even
/// when libtest runs the other tests concurrently.
struct CountingAlloc;

thread_local! {
    // const-initialized TLS never allocates on first access, so the
    // allocator can touch it without recursing.
    static TL_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump_thread_allocations() {
    // try_with: TLS may be gone during thread teardown; skip counting then.
    let _ = TL_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump_thread_allocations();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump_thread_allocations();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by the calling thread so far.
fn allocations_now() -> u64 {
    TL_ALLOCATIONS.with(|c| c.get())
}

/// A random small-but-arbitrary deconvolution problem plus batch.
#[derive(Debug, Clone)]
struct Problem {
    layer: LayerShape,
    kernel: Kernel<i64>,
    batch: Vec<FeatureMap<i64>>,
}

fn problem_strategy() -> impl Strategy<Value = Problem> {
    (1usize..=5, 1usize..=4, 1usize..=5, 1usize..=4, 1usize..=4)
        .prop_flat_map(|(k, s, ih, c, m)| {
            (
                Just(k),
                Just(s),
                Just(ih),
                Just(c),
                Just(m),
                0..k.clamp(1, 2), // padding < kernel (kept small)
                0..s,             // output_padding < stride
                1usize..=4,       // batch size
                any::<u64>(),
                any::<u64>(),
            )
        })
        .prop_filter_map(
            "valid deconv geometry",
            |(k, s, ih, c, m, p, op, batch, kseed, iseed)| {
                let spec = DeconvSpec::with_output_padding(k, k, s, p, op).ok()?;
                let layer = LayerShape::with_spec(ih, ih, c, m, spec).ok()?;
                let kernel = red_sim::red_core::workloads::synth::kernel(&layer, 127, kseed);
                let batch = (0..batch)
                    .map(|i| {
                        red_sim::red_core::workloads::synth::input_sparse(
                            &layer,
                            127,
                            (iseed % 4) as f64 * 0.25,
                            iseed.wrapping_add(i as u64),
                        )
                    })
                    .collect();
                Some(Problem {
                    layer,
                    kernel,
                    batch,
                })
            },
        )
}

/// Runs `pb.batch` on `compiled` through one reused scratch three times
/// per precision tier — the batch, the batch without its first image,
/// then one image — and checks every image's execution against a
/// fresh-scratch single-image run at the same tier, and on ideal arrays
/// at `Full` against the golden algorithm. The merged replays resize
/// their scratch on every call, so a shrinking batch must not see what
/// a larger one left behind.
fn check_scratch_reuse(
    compiled: &CompiledLayer,
    pb: &Problem,
    ideal: bool,
) -> Result<(), TestCaseError> {
    let design = compiled.design();
    let mut scratch = compiled.make_scratch();
    for prec in ExecPrecision::ALL {
        for inputs in [&pb.batch[..], &pb.batch[1..], &pb.batch[..1]] {
            let runs = compiled
                .run_batch_with_at(inputs, &mut scratch, prec)
                .unwrap();
            prop_assert_eq!(runs.len(), inputs.len());
            for (input, exec) in inputs.iter().zip(&runs) {
                let one = std::slice::from_ref(input);
                let fresh = compiled
                    .run_batch_with_at(one, &mut compiled.make_scratch(), prec)
                    .unwrap();
                prop_assert_eq!(
                    &exec.output,
                    &fresh[0].output,
                    "{} at {} output",
                    design,
                    prec
                );
                prop_assert_eq!(&exec.stats, &fresh[0].stats, "{} at {} stats", design, prec);
                if ideal && prec == ExecPrecision::Full {
                    let golden = deconv_direct(input, &pb.kernel, pb.layer.spec()).unwrap();
                    prop_assert_eq!(&exec.output, &golden, "{} reused scratch vs golden", design);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A fresh-scratch batch, per-image `run`, a reused scratch across
    /// shrinking batches at every precision tier, and the golden
    /// algorithm all agree on arbitrary geometry for all three designs
    /// (the plan-based executors compute the seed per-pixel function
    /// exactly).
    #[test]
    fn batched_execution_is_bit_exact_on_arbitrary_geometry(pb in problem_strategy()) {
        for design in Design::paper_lineup() {
            let acc = Accelerator::builder().design(design).build();
            let compiled = acc.compile(&pb.layer, &pb.kernel).unwrap();
            let batch = compiled.run_batch_with(&pb.batch, &mut compiled.make_scratch()).unwrap();
            for (input, exec) in pb.batch.iter().zip(&batch) {
                let golden = deconv_direct(input, &pb.kernel, pb.layer.spec()).unwrap();
                let single = compiled.run(input).unwrap();
                prop_assert_eq!(&exec.output, &golden, "{} batch vs golden", design);
                prop_assert_eq!(&single.output, &golden, "{} run vs golden", design);
                prop_assert_eq!(&single.stats, &exec.stats, "{} stats", design);
            }
            check_scratch_reuse(&compiled, &pb, true)?;
        }
    }

    /// On a noisy analog configuration (variation + stuck-at faults) the
    /// batched path must still be bit-exact against per-image execution,
    /// at every precision tier and across scratch reuse: non-idealities
    /// are frozen at programming time, so execution stays deterministic.
    #[test]
    fn batched_execution_matches_per_image_on_noisy_arrays(pb in problem_strategy()) {
        let noisy = XbarConfig::noisy(0.01, 0.002, 0.001, 1234);
        for design in Design::paper_lineup() {
            let acc = Accelerator::builder().design(design).xbar_config(noisy).build();
            let compiled = acc.compile(&pb.layer, &pb.kernel).unwrap();
            let batch = compiled.run_batch_with(&pb.batch, &mut compiled.make_scratch()).unwrap();
            for (input, exec) in pb.batch.iter().zip(&batch) {
                let single = compiled.run(input).unwrap();
                prop_assert_eq!(&single.output, &exec.output, "{} noisy", design);
                prop_assert_eq!(&single.stats, &exec.stats, "{} noisy stats", design);
            }
            check_scratch_reuse(&compiled, &pb, false)?;
        }
    }
}

#[test]
fn pipelined_shards_bit_exact_for_all_designs() {
    let stack = networks::dcgan_generator(16).unwrap();
    let inputs: Vec<_> = (0..6)
        .map(|i| synth::input_dense(&stack.layers[0], 64, 3_000 + i as u64))
        .collect();
    for design in Design::paper_lineup() {
        let chip = ChipBuilder::new()
            .design(design)
            .compile_seeded(&stack, 5, 42)
            .unwrap();
        let analytic = chip.pipeline_report();
        // One shard, then single-image, uneven and multi-image shards.
        for batch in [1, 2, 3, 6] {
            let inputs = &inputs[..batch];
            let seq = chip.run_sequential(inputs).unwrap();
            let pipe = chip.run_pipelined(inputs).unwrap();
            assert_eq!(
                seq.outputs, pipe.outputs,
                "{design}, batch {batch}: pipelined vs sequential"
            );
            // The modeled hardware schedule is shard-count invariant.
            for (a, b) in seq.report.stages.iter().zip(&pipe.report.stages) {
                assert_eq!(a.images, b.images, "{design}, batch {batch}");
                assert_eq!(a.cycles, b.cycles, "{design}, batch {batch}");
            }
            assert_eq!(seq.report.fill_latency_ns, pipe.report.fill_latency_ns);
            assert!(
                pipe.report.reconciles_with(&analytic),
                "{design}, batch {batch}"
            );
        }
    }
}

/// A warmed caller-owned [`VmmScratch`] makes `vmm_analog_batch` — and
/// `vmm_batch_at`'s non-ideal path that routes through it — perform
/// **zero** heap allocations on large and small planes alike: every
/// buffer (phase buckets, column currents, shift-add sums) lives in the
/// scratch, which the allocation-free contract hands to the caller.
#[test]
fn warmed_analog_batch_allocates_nothing() {
    use red_sim::red_core::xbar::{CrossbarArray, VmmScratch};
    // 512 x 128 differential: a 4 MiB effective-current plane; 24 x 4 is
    // cache-resident.
    for (rows, cols) in [(512usize, 128usize), (24, 4)] {
        let cfg = XbarConfig::noisy(0.02, 0.001, 0.0, 13);
        let weights: Vec<Vec<i64>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| ((r * 31 + c * 7) % 255) as i64 - 127)
                    .collect()
            })
            .collect();
        let a = CrossbarArray::program(&cfg, &weights).unwrap();
        let n = 3;
        let inputs: Vec<i64> = (0..n * rows)
            .map(|i| ((i * 17) % 255) as i64 - 127)
            .collect();
        let mut scratch = VmmScratch::new();
        let mut out = vec![0i64; n * cols];
        // Warm both entry points, then count.
        let full = ExecPrecision::Full;
        a.vmm_analog_batch(&inputs, n, &mut scratch, &mut out);
        a.vmm_batch_at(&inputs, n, &mut scratch, &mut out, full);
        let before = allocations_now();
        a.vmm_analog_batch(&inputs, n, &mut scratch, &mut out);
        a.vmm_batch_at(&inputs, n, &mut scratch, &mut out, full);
        let during = allocations_now() - before;
        assert_eq!(
            during, 0,
            "{rows}x{cols}: warmed analog batch must not touch the heap"
        );
    }
}

/// Batched noisy execution allocates per *batch*, never per pixel: a
/// second fresh-scratch `run_batch_with` on a layer with large
/// effective-current planes stays within a small per-batch budget
/// (outputs, one scratch) — orders of magnitude below the output-pixel
/// count the batch produces.
#[test]
fn noisy_run_batch_allocates_per_batch_not_per_pixel() {
    // 4x4 stride-2 deconv, 128 channels, 64 filters: the zero-padding
    // array's plane is (16*128) x 512 f64 = 8 MiB and padding-free's
    // 128 x 8192 f64 = 8 MiB; RED's per-tap planes are 128 x 512.
    let spec = DeconvSpec::with_output_padding(4, 4, 2, 1, 0).unwrap();
    let layer = LayerShape::with_spec(4, 4, 128, 64, spec).unwrap();
    let kernel = synth::kernel(&layer, 100, 7);
    let inputs: Vec<_> = (0..3)
        .map(|i| synth::input_dense(&layer, 100, 20 + i))
        .collect();
    let pixels = layer.output_geometry().pixels() as u64 * inputs.len() as u64;
    assert!(pixels >= 64, "test layer must be non-trivial");
    let budget = 48 + 16 * inputs.len() as u64;
    for design in Design::paper_lineup() {
        let acc = Accelerator::builder()
            .design(design)
            .xbar_config(XbarConfig::noisy(0.01, 0.0005, 0.0, 5))
            .build();
        let compiled = acc.compile(&layer, &kernel).unwrap();
        let warm = compiled.run_batch_with(&inputs, &mut compiled.make_scratch());
        let before = allocations_now();
        let batch = compiled.run_batch_with(&inputs, &mut compiled.make_scratch());
        let during = allocations_now() - before;
        let (warm, batch) = (warm.unwrap(), batch.unwrap());
        for (w, b) in warm.iter().zip(&batch) {
            assert_eq!(w.output, b.output);
        }
        assert!(
            during <= budget,
            "{design}: {during} allocations per noisy batch (budget {budget}, \
             {pixels} output pixels)"
        );
    }
}

/// Steady-state execution performs no per-pixel heap allocation: once the
/// plan is built (compile time) and the scratch is warm (first run), a
/// one-image `run_batch_with` allocates only the output tensor and a few
/// bookkeeping cells — orders of magnitude fewer allocations than the
/// hundreds of output pixels it produces. One scratch, warmed on all
/// three designs, keeps every design within that budget and bit-exact
/// against a fresh scratch.
#[test]
fn steady_state_run_allocates_output_only() {
    let layer = Benchmark::GanDeconv3.scaled_layer(64); // 8x8 -> stride-2 deconv
    let kernel = synth::kernel(&layer, 100, 7);
    let input = synth::input_dense(&layer, 100, 8);
    let pixels = layer.output_geometry().pixels() as u64;
    assert!(pixels >= 64, "test layer must be non-trivial");
    for (cfg, budget) in [
        // Ideal path: output tensor + Execution plumbing only.
        (XbarConfig::ideal(), 8u64),
        // Analog path: same budget — the bit-serial phase buffers all
        // live in the warmed scratch.
        (XbarConfig::noisy(0.01, 0.001, 0.0, 5), 8u64),
    ] {
        let compiled: Vec<_> = Design::paper_lineup()
            .into_iter()
            .map(|design| {
                let acc = Accelerator::builder()
                    .design(design)
                    .xbar_config(cfg)
                    .build();
                acc.compile(&layer, &kernel).unwrap()
            })
            .collect();
        let one = std::slice::from_ref(&input);
        let mut scratch = compiled[0].make_scratch();
        let warm: Vec<_> = compiled
            .iter()
            .map(|c| c.run_batch_with(one, &mut scratch).unwrap())
            .collect();
        for (compiled, warm) in compiled.iter().zip(&warm) {
            let design = compiled.design();
            let before = allocations_now();
            let exec = compiled.run_batch_with(one, &mut scratch).unwrap();
            let during = allocations_now() - before;
            let fresh = compiled.run_batch_with(one, &mut compiled.make_scratch());
            assert_eq!(warm[0].output, exec[0].output, "{design}");
            assert_eq!(fresh.unwrap(), exec, "{design}");
            assert!(
                during <= budget,
                "{design}: {during} allocations in steady state (budget {budget}, \
                 {pixels} output pixels)"
            );
        }
    }
}

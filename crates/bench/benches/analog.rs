//! Criterion benches: the non-ideal analog VMM pipeline — the seed
//! per-phase-recompute reference vs the planned kernel over the
//! programming-time effective-current plane, the planned kernel on the
//! array shapes that dominate the `full`-preset serving lineup, one
//! batch-major call against single calls on two padding-free planes,
//! RED's per-input-pixel work on its fused plane, and two lineup shapes
//! programmed with the lineup's ±5 weights against ±127 ones.
//!
//! Every group but the last programs ±127 weights, which fill every bit
//! slice, so no plane column is dead there. The lineup's ±5 weights
//! leave the upper two of the four 2-bit slices with code-0 cells only,
//! and the plane elides their columns (`analog_narrow`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use red_core::prelude::*;
use red_core::xbar::{CrossbarArray, SubCrossbarTensor, VmmScratch};

fn make_weights(rows: usize, cols: usize) -> Vec<Vec<i64>> {
    bounded_weights(rows, cols, 127)
}

/// A ramp of weights within `±bound`.
fn bounded_weights(rows: usize, cols: usize, bound: usize) -> Vec<Vec<i64>> {
    (0..rows)
        .map(|r| {
            (0..cols)
                .map(|c| ((r * 37 + c * 13) % (2 * bound + 1)) as i64 - bound as i64)
                .collect()
        })
        .collect()
}

fn make_inputs(n: usize, rows: usize) -> Vec<i64> {
    (0..n * rows)
        .map(|i| ((i * 7) % 255) as i64 - 127)
        .collect()
}

/// The full non-ideal stack (variation + saturating ADC + IR drop +
/// faults + drift) — the heaviest per-cell arithmetic the reference path
/// pays per phase, and exactly what the plane precomputation removes.
fn noisy_cfg() -> XbarConfig {
    XbarConfig::preset("full").expect("known preset")
}

/// Seed per-phase-recompute pipeline vs the planned plane path, one
/// input at a time. `(512, 64)` is a 2 MiB plane; `(64, 32)` fits in L2.
/// Arrays keep no conductance matrix, so each reference call first
/// regenerates it from the seeded samplers, and its time includes that.
fn analog_single(c: &mut Criterion) {
    let mut group = c.benchmark_group("analog");
    for (rows, cols) in [(64usize, 32usize), (512, 64)] {
        let a = CrossbarArray::program(&noisy_cfg(), &make_weights(rows, cols)).expect("programs");
        let input = make_inputs(1, rows);
        let label = format!("{rows}x{cols}");
        group.bench_with_input(BenchmarkId::new("reference", &label), &a, |b, a| {
            b.iter(|| a.vmm_analog_reference(&input))
        });
        let mut scratch = VmmScratch::new();
        let mut out = vec![0i64; cols];
        group.bench_with_input(BenchmarkId::new("planned", &label), &a, |b, a| {
            b.iter(|| a.vmm_analog_into(&input, &mut scratch, &mut out))
        });
    }
    group.finish();
}

/// The planned kernel on the lineup's hot shapes, with dense activations
/// in 1..=89 like the lineup's ReLU feature maps: a 128 x 64 window
/// array, DCGAN stage 0's largest zero-padding stride phase (1,152 of
/// the 3,200 window rows: 9 taps x 128 channels), FCN stage 1's 8-row
/// zero-padding phase (2 x 2 taps x 2 channels), whose set table the
/// kernel looks each phase up in, and RED's 2 x 512 two-row
/// sub-crossbar VMMs, also tabulated.
fn analog_lineup(c: &mut Criterion) {
    let mut group = c.benchmark_group("analog_lineup");
    for (rows, cols) in [(128usize, 64usize), (1152, 64), (8, 2), (2, 512)] {
        let a = CrossbarArray::program(&noisy_cfg(), &make_weights(rows, cols)).expect("programs");
        let input: Vec<i64> = (0..rows).map(|r| (r * 7 % 89) as i64 + 1).collect();
        let label = format!("{rows}x{cols}");
        let mut scratch = VmmScratch::new();
        let mut out = vec![0i64; cols];
        group.bench_with_input(BenchmarkId::new("planned", &label), &a, |b, a| {
            b.iter(|| a.vmm_analog_into(&input, &mut scratch, &mut out))
        });
    }
    group.finish();
}

/// One 8-input call of the batch-major kernel against eight single
/// calls, with activations in 1..=89, on two padding-free planes: DCGAN
/// stage 0 (128 channels × 25 taps · 64 filters, 25 column tiles), where
/// each tile's plane rows serve all 8 inputs while they are cached, and
/// FCN stage 1 (2 channels × 256 taps · 2 filters), whose 3 active-row
/// sets were converted once, at programming, into its set table.
fn analog_batch(c: &mut Criterion) {
    const BATCH: usize = 8;
    let mut group = c.benchmark_group("analog_batch");
    for (label, rows, cols) in [("dcgan_pf_s0", 128usize, 1600usize), ("fcn_pf_s1", 2, 512)] {
        let a = CrossbarArray::program(&noisy_cfg(), &make_weights(rows, cols)).expect("programs");
        let inputs: Vec<i64> = (0..BATCH * rows)
            .map(|i| (i * 37 % 89) as i64 + 1)
            .collect();
        let mut scratch = VmmScratch::new();
        let mut out = vec![0i64; BATCH * cols];
        group.bench_with_input(BenchmarkId::new("batch", label), &a, |b, a| {
            b.iter(|| a.vmm_analog_batch(&inputs, BATCH, &mut scratch, &mut out))
        });
        group.bench_with_input(BenchmarkId::new("single", label), &a, |b, a| {
            b.iter(|| {
                for (x, o) in inputs.chunks_exact(rows).zip(out.chunks_exact_mut(cols)) {
                    a.vmm_analog_into(x, &mut scratch, o);
                }
            })
        });
    }
    group.finish();
}

/// RED's work for one input pixel on two lineup shapes: one fused call
/// over every tap the pixel feeds (what the engine runs) against one VMM
/// per tap on the tap's own array (the per-gather shape it replaced).
/// DCGAN stage 3 is 16 channels × 25 taps · 1 filter · 8 physical
/// columns; FCN stage 1, halved, is 2 channels × 256 taps · 2 filters ·
/// 8 physical columns.
fn analog_red_pixel(c: &mut Criterion) {
    let mut group = c.benchmark_group("analog_red_pixel");
    let shapes = [
        ("dcgan_s3_16x25x1", 5, 16, 1, SctLayout::Full),
        ("fcn_s1_2x256x2", 16, 2, 2, SctLayout::Halved),
    ];
    for (label, k, channels, filters, layout) in shapes {
        let kernel = Kernel::from_fn(k, k, channels, filters, |i, j, ch, m| {
            ((i * 37 + j * 13 + ch * 7 + m) % 255) as i64 - 127
        });
        let sct = SubCrossbarTensor::map(&noisy_cfg(), &kernel, layout).expect("maps");
        let taps = k * k;
        let pixel: Vec<i64> = (0..channels).map(|ch| (ch * 7 % 89) as i64 + 1).collect();
        let mut scratch = VmmScratch::new();
        let mut out = vec![0i64; taps * filters];
        let all = 0..taps;
        let all = std::slice::from_ref(&all);
        group.bench_with_input(BenchmarkId::new("fused", label), &sct, |b, sct| {
            b.iter(|| sct.eval_taps(all, &pixel, &mut scratch, &mut out, ExecPrecision::Full))
        });
        let per = sct.cycles_per_batch();
        let mut driven = vec![0i64; per * channels];
        group.bench_with_input(BenchmarkId::new("per_tap", label), &sct, |b, sct| {
            b.iter(|| {
                for (t, o) in out.chunks_exact_mut(filters).enumerate() {
                    driven.fill(0);
                    driven[(t % per) * channels..][..channels].copy_from_slice(&pixel);
                    sct.array(t / per).vmm_analog_into(&driven, &mut scratch, o);
                }
            })
        });
    }
    group.finish();
}

/// Dead-column elision on two lineup shapes, each programmed with the
/// lineup's ±5 weights and with ±127 ones, activations in 1..=89: one
/// 8-input call on DCGAN stage 0's 128 × 1,600 padding-free plane, whose
/// ±5 plane keeps about half its 12,800 columns, and one input on its
/// zero-padding window's 1,152-row stride phase.
fn analog_narrow(c: &mut Criterion) {
    const BATCH: usize = 8;
    let mut group = c.benchmark_group("analog_narrow");
    let shapes = [
        ("dcgan_pf_s0", 128usize, 1600usize, BATCH),
        ("dcgan_zp_s0_phase", 1152, 64, 1),
    ];
    for (label, rows, cols, n) in shapes {
        let inputs: Vec<i64> = (0..n * rows).map(|i| (i * 37 % 89) as i64 + 1).collect();
        for bound in [5, 127] {
            let weights = bounded_weights(rows, cols, bound);
            let a = CrossbarArray::program(&noisy_cfg(), &weights).expect("programs");
            let mut scratch = VmmScratch::new();
            let mut out = vec![0i64; n * cols];
            let id = BenchmarkId::new(format!("bound{bound}"), label);
            group.bench_with_input(id, &a, |b, a| {
                b.iter(|| a.vmm_analog_batch(&inputs, n, &mut scratch, &mut out))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    analog_single,
    analog_lineup,
    analog_batch,
    analog_red_pixel,
    analog_narrow
);
criterion_main!(benches);

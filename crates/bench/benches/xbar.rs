//! Criterion benches: crossbar-level primitives — exact vs analog VMM
//! paths, programming, and the SCT mapping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use red_core::prelude::*;
use red_core::xbar::{CrossbarArray, VmmScratch};

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

fn vmm_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("vmm");
    for rows in [64usize, 256] {
        let weights = make_weights(rows, 32);
        let input: Vec<i64> = (0..rows).map(|i| ((i * 7) % 255) as i64 - 127).collect();
        let ideal = CrossbarArray::program(&XbarConfig::ideal(), &weights).expect("programs");
        group.bench_with_input(BenchmarkId::new("exact", rows), &ideal, |b, a| {
            b.iter(|| a.vmm_exact(&input))
        });
        let (mut scratch, mut out) = (VmmScratch::new(), vec![0i64; 32]);
        group.bench_with_input(BenchmarkId::new("analog_ideal", rows), &ideal, |b, a| {
            b.iter(|| a.vmm_analog_into(&input, &mut scratch, &mut out))
        });
        let noisy_cfg = XbarConfig::noisy(0.05, 0.001, 0.001, 42);
        let noisy = CrossbarArray::program(&noisy_cfg, &weights).expect("programs");
        group.bench_with_input(BenchmarkId::new("analog_noisy", rows), &noisy, |b, a| {
            b.iter(|| a.vmm(&input))
        });
    }
    group.finish();
}

/// Programming: ideal arrays, which keep only their weights, and DCGAN
/// stage 0's 3,200 × 64 zero-padding window (5 × 5 taps × 128 channels)
/// under the `full` preset at the serving lineup's ±5 weights, whose
/// plane build replays the seeded samplers row by row: one layer of
/// `noisy_lineup`'s `setup_s`.
fn programming(c: &mut Criterion) {
    let mut group = c.benchmark_group("program");
    for rows in [64usize, 512] {
        let weights = make_weights(rows, 64);
        group.bench_with_input(BenchmarkId::new("ideal", rows), &weights, |b, w| {
            b.iter(|| CrossbarArray::program(&XbarConfig::ideal(), w).expect("programs"))
        });
    }
    let full = XbarConfig::preset("full").expect("known preset");
    let window = bounded_weights(3200, 64, 5);
    group.bench_with_input(BenchmarkId::new("full_narrow", 3200), &window, |b, w| {
        b.iter(|| CrossbarArray::program(&full, w).expect("programs"))
    });
    group.finish();
}

fn sct_mapping(c: &mut Criterion) {
    use red_core::xbar::{SctLayout, SubCrossbarTensor};
    let mut group = c.benchmark_group("sct_map");
    let kernel = red_core::tensor::Kernel::<i64>::from_fn(5, 5, 64, 32, |i, j, cc, mm| {
        ((i * 53 + j * 19 + cc * 7 + mm) % 255) as i64 - 127
    });
    for (name, layout) in [("full", SctLayout::Full), ("halved", SctLayout::Halved)] {
        group.bench_function(name, |b| {
            b.iter(|| SubCrossbarTensor::map(&XbarConfig::ideal(), &kernel, layout).expect("maps"))
        });
    }
    group.finish();
}

criterion_group!(benches, vmm_paths, programming, sct_mapping);
criterion_main!(benches);

//! Criterion benches: simulator images/sec of the pipelined chip runtime
//! vs sequential execution of the same stack, so future PRs can track
//! scheduler overhead (channel hops, thread wake-ups, feature-map clones)
//! separately from engine throughput.
//!
//! The `pipelined_b8_w1` vs `pipelined_b8_auto` pair isolates the
//! intra-stage data-parallelism win: same chip, same batch, one worker
//! per stage vs the derived pool. `layer_batch` tracks one batch call of
//! `CompiledLayer::run_batch_with` against eight one-image calls.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use red_core::prelude::*;
use red_core::workloads::networks;
use red_runtime::ChipBuilder;

const BATCH: usize = 8;

fn serving_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_serve");
    let stack = networks::dcgan_generator(64).expect("stack builds"); // 16 base channels
    let inputs: Vec<_> = (0..BATCH)
        .map(|i| synth::input_dense(&stack.layers[0], 64, 40 + i as u64))
        .collect();
    for design in Design::paper_lineup() {
        let single = ChipBuilder::new()
            .design(design)
            .workers(1)
            .compile_seeded(&stack, 5, 4)
            .expect("chip compiles");
        let auto = ChipBuilder::new()
            .design(design)
            .compile_seeded(&stack, 5, 4)
            .expect("chip compiles");
        group.bench_with_input(
            BenchmarkId::new("pipelined_b8_w1", design.label()),
            &single,
            |b, chip| b.iter(|| chip.run_pipelined(&inputs).expect("runs")),
        );
        group.bench_with_input(
            BenchmarkId::new("pipelined_b8_auto", design.label()),
            &auto,
            |b, chip| b.iter(|| chip.run_pipelined(&inputs).expect("runs")),
        );
        group.bench_with_input(
            BenchmarkId::new("sequential_b8", design.label()),
            &auto,
            |b, chip| b.iter(|| chip.run_sequential(&inputs).expect("runs")),
        );
    }
    group.finish();
}

fn layer_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("layer_batch");
    // Scale 8 keeps the weight matrices big enough (e.g. zero-padding's
    // 1024 x 32) that the cache-blocked batch path has traffic to save.
    let layer = Benchmark::GanDeconv3.scaled_layer(8);
    let kernel = synth::kernel(&layer, 5, 4);
    let inputs: Vec<_> = (0..BATCH)
        .map(|i| synth::input_dense(&layer, 64, 70 + i as u64))
        .collect();
    for design in Design::paper_lineup() {
        let compiled = Accelerator::builder()
            .design(design)
            .build()
            .compile(&layer, &kernel)
            .expect("layer compiles");
        // One batch call against eight one-image calls, each reusing one
        // scratch across iterations.
        group.bench_with_input(
            BenchmarkId::new("run_batch_b8", design.label()),
            &compiled,
            |b, l| {
                let mut scratch = l.make_scratch();
                b.iter(|| l.run_batch_with(&inputs, &mut scratch).expect("runs"))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("run_per_image_b8", design.label()),
            &compiled,
            |b, l| {
                let mut scratch = l.make_scratch();
                b.iter(|| {
                    inputs
                        .iter()
                        .map(|i| l.run_batch_with(std::slice::from_ref(i), &mut scratch))
                        .collect::<Result<Vec<_>, _>>()
                        .expect("runs")
                })
            },
        );
    }
    group.finish();
}

fn chip_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_compile");
    let stack = networks::sngan_generator(64).expect("stack builds");
    for design in Design::paper_lineup() {
        let builder = ChipBuilder::new().design(design);
        group.bench_function(design.label(), |b| {
            b.iter(|| builder.compile_seeded(&stack, 5, 4).expect("compiles"))
        });
    }
    group.finish();
}

criterion_group!(benches, serving_throughput, layer_batch, chip_compile);
criterion_main!(benches);

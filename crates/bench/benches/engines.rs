//! Criterion benches: functional-engine throughput on channel-scaled
//! Table I layers and on the serving lineup's noisy stages. These
//! measure the *simulator*, guarding against regressions in the engine
//! dataflows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use red_core::prelude::*;
use red_core::workloads::networks;

fn engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_run");
    let layer = Benchmark::GanDeconv3.scaled_layer(32); // 4x4x16 -> 8x8x8
    let kernel = synth::kernel(&layer, 127, 1);
    let input = synth::input_dense(&layer, 127, 2);

    for design in Design::paper_lineup() {
        let acc = Accelerator::builder().design(design).build();
        let compiled = acc.compile(&layer, &kernel).expect("compiles");
        group.bench_with_input(
            BenchmarkId::new("gan_deconv3_c16", design.label()),
            &compiled,
            |b, compiled| b.iter(|| compiled.run(&input).expect("runs")),
        );
    }
    group.finish();
}

fn red_layout_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("red_layouts");
    // 16x16 kernel stride 8 at reduced extent: the Eq. 2 operating point.
    let layer = LayerShape::new(6, 6, 8, 8, 16, 16, 8, 0).expect("valid layer");
    let kernel = synth::kernel(&layer, 127, 3);
    let input = synth::input_dense(&layer, 127, 4);
    for (name, policy) in [
        ("full_256sc", RedLayoutPolicy::AlwaysFull),
        ("halved_128sc", RedLayoutPolicy::AlwaysHalved),
    ] {
        let acc = Accelerator::builder().design(Design::red(policy)).build();
        let compiled = acc.compile(&layer, &kernel).expect("compiles");
        group.bench_function(name, |b| b.iter(|| compiled.run(&input).expect("runs")));
    }
    group.finish();
}

/// One batch of 8 through the lineup stages whose host order the
/// stride-phase replay and the set tables set, on `full` crossbars with
/// the lineup's ±5 kernels (`synth::kernel(layer, 5, 77 + stage)`):
/// FCN stage 1 (k16/s8, 2 channels: 8-row zero-padding phases and
/// 2-row padding-free and RED planes, all tabulated) on every design,
/// and DCGAN stage 0's zero-padding (k5/s2, 128 channels: phases of 512
/// to 1,152 rows). Inputs are dense activations in 0..=64.
fn lineup_full(c: &mut Criterion) {
    const BATCH: usize = 8;
    let mut group = c.benchmark_group("lineup_full");
    let cfg = XbarConfig::preset("full").expect("known preset");
    let fcn = networks::serving_lineup(8).expect("serving stacks build")[2].layers[1];
    let dcgan = networks::dcgan_generator(8).expect("stack builds").layers[0];
    let mut stages = vec![("fcn_s1", fcn, 1u64, Design::ZeroPadding)];
    stages.extend(
        Design::paper_lineup()
            .into_iter()
            .skip(1)
            .map(|design| ("fcn_s1", fcn, 1, design)),
    );
    stages.push(("dcgan_s0", dcgan, 0, Design::ZeroPadding));
    for (label, layer, stage, design) in stages {
        let kernel = synth::kernel(&layer, 5, 77 + stage);
        let inputs: Vec<_> = (0..BATCH as u64)
            .map(|i| synth::input_dense(&layer, 64, 9000 + i))
            .collect();
        let acc = Accelerator::builder()
            .design(design)
            .xbar_config(cfg)
            .build();
        let compiled = acc.compile(&layer, &kernel).expect("compiles");
        let mut scratch = compiled.make_scratch();
        group.bench_function(BenchmarkId::new(label, design.label()), |b| {
            b.iter(|| {
                compiled
                    .run_batch_with(&inputs, &mut scratch)
                    .expect("runs")
            })
        });
    }
    group.finish();
}

fn compile_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile");
    let layer = Benchmark::GanDeconv3.scaled_layer(16); // 4x4x32 -> 8x8x16
    let kernel = synth::kernel(&layer, 127, 5);
    for design in Design::paper_lineup() {
        let acc = Accelerator::builder().design(design).build();
        group.bench_function(design.label(), |b| {
            b.iter(|| acc.compile(&layer, &kernel).expect("compiles"))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    engine_throughput,
    red_layout_throughput,
    lineup_full,
    compile_time
);
criterion_main!(benches);

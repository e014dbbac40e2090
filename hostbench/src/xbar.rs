//! Crossbar probes: programming and the VMM kernels of `red-xbar`, timed
//! on the two array shapes the lineup's cache regimes hinge on — RED's
//! DCGAN stage-0 sub-crossbar (`small`, cache-resident) and zero-padding's
//! DCGAN stage-0 array (`large`, above the 4 MiB phase-major gate).

use crate::gate::Gate;
use crate::lineup::{Lineup, BATCH};
use crate::Metrics;
use red_core::prelude::*;
use red_core::xbar::{CrossbarArray, VmmScratch};
use std::hint::black_box;
use std::time::Instant;

/// Deterministic 64-bit generator (splitmix64).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// Median time of one call of `f` in ns, over calls repeated until
/// `budget_ns` has elapsed (at least 5 calls).
fn per_call_ns(budget_ns: f64, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || (start.elapsed().as_nanos() as f64) < budget_ns {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    crate::host::median(&samples)
}

/// Times `program`, `vmm_analog_into` and `vmm_analog_batch` under the
/// `full` preset and `vmm_exact_into` on ideal crossbars, for both
/// shapes, taken from the stage-0 geometry of `lineup`'s DCGAN chips.
pub fn probe(lineup: &Lineup, seed: u64, gate: &mut Gate, m: &mut Metrics) {
    let full = XbarConfig::preset("full").expect("the full preset exists");
    let ideal = XbarConfig::ideal();
    for (size, design) in [("small", "red"), ("large", "zp")] {
        let chip = lineup
            .chips
            .iter()
            .find(|c| c.net == "dcgan" && c.design == design)
            .expect("the lineup holds every DCGAN chip");
        let shape = chip.chip.stages()[0].cost().geometry.array;
        let (rows, cols) = (shape.rows, shape.weight_cols);
        let mut rng = SplitMix(seed ^ rows as u64);
        let wb = full.weight_bound().min(ideal.weight_bound());
        let weights: Vec<Vec<i64>> = (0..rows)
            .map(|_| (0..cols).map(|_| rng.range(-wb, wb)).collect())
            .collect();
        let ib = full.input_bound().min(63);
        let inputs: Vec<i64> = (0..BATCH * rows).map(|_| rng.range(0, ib)).collect();

        let budget = 300e6;
        let program_ns = per_call_ns(budget, || {
            black_box(
                CrossbarArray::program(&full, black_box(&weights)).expect("weights in range"),
            );
        });
        let analog = CrossbarArray::program(&full, &weights).expect("weights in range");
        let exact = CrossbarArray::program(&ideal, &weights).expect("weights in range");
        let mut scratch = VmmScratch::new();
        let mut out = vec![0i64; BATCH * cols];

        let analog_ns = per_call_ns(budget, || {
            for (x, o) in inputs.chunks_exact(rows).zip(out.chunks_exact_mut(cols)) {
                analog.vmm_analog_into(black_box(x), &mut scratch, o);
            }
        }) / BATCH as f64;
        let mut batch_out = vec![0i64; BATCH * cols];
        let batch_ns = per_call_ns(budget, || {
            analog.vmm_analog_batch(black_box(&inputs), BATCH, &mut scratch, &mut batch_out);
        }) / BATCH as f64;
        gate.check(out == batch_out, || {
            format!("xbar {size}: batched analog VMM differs from per-input")
        });
        let exact_ns = per_call_ns(budget, || {
            for (x, o) in inputs.chunks_exact(rows).zip(out.chunks_exact_mut(cols)) {
                exact.vmm_exact_into(black_box(x), o);
            }
        }) / BATCH as f64;
        black_box(&out);

        m.insert(format!("xbar.program_ms.{size}"), program_ns / 1e6);
        m.insert(format!("xbar.analog_ns_per_vmm.{size}"), analog_ns);
        m.insert(format!("xbar.analog_batch_ns_per_input.{size}"), batch_ns);
        m.insert(format!("xbar.exact_ns_per_vmm.{size}"), exact_ns);
        println!(
            "# xbar {size}: {rows}x{cols} weights, {} physical columns",
            analog.phys_cols()
        );
    }
}

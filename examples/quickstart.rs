//! Quickstart: the three layers of the library in ~60 lines.
//!
//! 1. Sweep a floating-point core's pipeline depth (the paper's core
//!    analysis) and pick the throughput/area-optimal implementation;
//! 2. Run the chosen core cycle by cycle, bit-exactly;
//! 3. Multiply two matrices on the cycle-accurate linear array.
//!
//! Run with: `cargo run --example quickstart`

use fpfpga::prelude::*;

fn main() {
    let tech = Tech::virtex2pro();

    // --- 1. Design-space sweep for a single-precision adder: one
    // report per pipeline depth.
    let sweep = CoreSweep::new(
        CoreKind::Adder,
        FpFormat::SINGLE,
        &tech,
        SynthesisOptions::SPEED,
    );
    println!("single-precision adder, pipeline-depth sweep:");
    println!("  min: {}", sweep.min());
    println!("  opt: {}", sweep.opt());
    println!("  max: {}", sweep.max());
    let opt_stages = sweep.opt().stages;

    // --- 2. Cycle-accurate simulation of the optimal configuration:
    // `run_batch` clocks one operand pair per cycle and drains, in one
    // call.
    let design = AdderDesign::new(FpFormat::SINGLE);
    let mut unit = design.simulator(opt_stages);
    let (a, b) = (1.5f32, 2.25f32);
    let results = unit.run_batch(&[(a.to_bits() as u64, b.to_bits() as u64)]);
    let (bits, flags) = results[0];
    println!(
        "\n{a} + {b} = {} (latency = {} stages, flags: {flags:?})",
        f32::from_bits(bits as u32),
        unit.latency(),
    );

    // --- 3. Matrix multiplication on the linear array.
    let fmt = FpFormat::SINGLE;
    let n = 8;
    let a = Matrix::from_fn(fmt, n, n, |i, j| ((i * n + j) as f64 * 0.37).sin());
    let b = Matrix::from_fn(fmt, n, n, |i, j| ((i + j) as f64 * 0.11).cos());
    let pl = 7 + 9; // multiplier + adder stages
                    // The block size the paper's cycle model favours (one 8×8 tile).
    let plan =
        BlockMatMul::cheapest(n as u32, n as u32, n as u32, pl).expect("nonzero shape and latency");
    let (c, stats) = MultiMatMul { plan, arrays: 1 }
        .run(RoundMode::NearestEven, &a, &b, 1)
        .expect("operands match the plan");
    let err = fpfpga::matmul::reference::error_vs_f64(&c, &a, &b);
    println!(
        "\n{n}x{n} matmul (b = {}): {} cycles, {} useful MACs, {} padded, max |err| vs f64 = {err:.2e}",
        plan.b, stats.total.cycles, stats.total.useful_macs, stats.total.pad_macs
    );
    println!("c[0][0] = {:.6}", c.get_f64(0, 0));
}

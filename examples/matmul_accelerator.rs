//! Size a complete matrix-multiplication accelerator.
//!
//! The workflow a designer would follow with this library:
//!
//! 1. pick a precision and a device;
//! 2. choose the per-PE floating-point units by throughput/area, *at the
//!    frequency the surrounding architecture sustains* (Section 4.2's
//!    point: a unit faster than the array clock wastes slices);
//! 3. fill the device with PEs, read off GFLOPS and power, compare with
//!    general-purpose processors;
//! 4. validate the design numerically with a cycle-accurate block run.
//!
//! Run with: `cargo run --release --example matmul_accelerator`

use fpfpga::prelude::*;

fn main() {
    let tech = Tech::virtex2pro();
    let opts = SynthesisOptions::SPEED;
    let fmt = FpFormat::SINGLE;
    let device = Device::XC2VP125;

    // --- Unit selection at the kernel's operating point.
    println!("=== unit selection ({fmt}) ===");
    let units = UnitSet::for_level(fmt, PipeliningLevel::Maximum, &tech, opts);
    println!("adder:      {}", units.adder);
    println!("multiplier: {}", units.multiplier);
    println!("combined MAC latency PL = {} cycles", units.pl());

    // --- Device fill.
    let fill = DeviceFill::new(device, &units, 64, &tech);
    println!("\n=== {} fill ===", fill.device.name);
    println!("PE slices: {:.0}", fill.pe.slices(&tech));
    println!(
        "PEs: {}   array clock: {:.0} MHz",
        fill.pe_count, fill.clock_mhz
    );
    println!("sustained: {:.1} GFLOPS", fill.gflops());
    println!(
        "dynamic power: {:.1} W   → {:.2} GFLOPS/W",
        fill.power_w(0.3),
        fill.gflops_per_watt(0.3)
    );

    // --- Processor comparison (Section 4.2).
    let cmp = ProcessorComparison::new(fill.gflops(), fill.power_w(0.3));
    println!("\n=== vs general-purpose processors ===");
    for p in &cmp.processors {
        println!(
            "{:24} {:5.1} GFLOPS sustained → FPGA speedup {:.1}x, GFLOPS/W gain {:.1}x",
            p.name,
            p.sustained_gflops_single(),
            cmp.speedup_over(p),
            cmp.efficiency_gain_over(p),
        );
    }

    // --- Numerical validation with a cycle-accurate blocked run.
    println!("\n=== cycle-accurate validation (blocked 32x32, b = 16) ===");
    let n = 32u32;
    let b = 16u32;
    let plan = BlockMatMul::square(n, b, units.pl()).expect("positive plan");
    let a_m = Matrix::from_fn(fmt, n as usize, n as usize, |i, j| {
        ((i + j) as f64 * 0.21).sin()
    });
    let b_m = Matrix::from_fn(fmt, n as usize, n as usize, |i, j| {
        ((i * 3 + j) as f64 * 0.17).cos()
    });
    let (c, stats, _) = plan
        .run(
            fmt,
            RoundMode::NearestEven,
            units.multiplier.stages,
            units.adder.stages,
            &a_m,
            &b_m,
            UnitBackend::Fast,
        )
        .expect("operands match the plan");
    let err = fpfpga::matmul::reference::error_vs_f64(&c, &a_m, &b_m);
    println!(
        "cycles: {} (model: {})   pad share: {:.1}%   max |err| vs f64: {err:.2e}",
        stats.cycles,
        plan.total_cycles(),
        100.0 * stats.pad_macs as f64 / (stats.pad_macs + stats.useful_macs) as f64,
    );
    assert!(err < 1e-4, "single-precision block matmul must be accurate");

    // --- Scale out: a ragged rectangular problem across 4 arrays.
    println!("\n=== multi-array run (100x37 · 37x61, b = 16, 4 arrays) ===");
    let mm = MultiMatMul::new(100, 37, 61, b, units.pl(), 4).expect("positive plan");
    let a_r = Matrix::from_fn(fmt, 100, 37, |i, j| ((i * 37 + j) as f64 * 0.03).sin());
    let b_r = Matrix::from_fn(fmt, 37, 61, |i, j| ((i + 5 * j) as f64 * 0.02).cos());
    let (c_r, ms) = mm
        .run(
            RoundMode::NearestEven,
            &a_r,
            &b_r,
            0, // one worker per CPU; result is thread-count invariant
        )
        .expect("operands match the plan");
    let err_r = fpfpga::matmul::reference::error_vs_f64(&c_r, &a_r, &b_r);
    println!(
        "array-cycles: {}   makespan: {}   peak resident tiles: {}   max |err| vs f64: {err_r:.2e}",
        ms.total.cycles,
        ms.makespan_cycles(),
        ms.peak_resident_tiles,
    );
    assert!(err_r < 1e-4, "multi-array matmul must be accurate");
    println!("OK — accelerator validated.");
}

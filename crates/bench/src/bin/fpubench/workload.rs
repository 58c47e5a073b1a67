//! The five workloads and the inputs each one makes from its seed.
//!
//! Batch workloads drive the softfp batch kernels directly; serving
//! workloads replay a synthetic request trace through the in-process
//! pool or over loopback TCP. Every input is a pure function of the
//! seed, and every expected output is computed before timing starts.

use fpfpga::prelude::Tech;
use fpfpga::serve::{run_serial, synth_trace, JobResult, JobSpec, Priority, TraceConfig};
use fpfpga::softfp::{self, Flags, FpFormat, RoundMode};
use fpfpga_net::wire::encode_result;

/// Elements per batch call: three operand streams of 16 384 `u64`
/// stay resident in L2, so the kernels, not DRAM, set the pace.
pub const BATCH_LEN: usize = 16_384;

/// Workers of every pool under test (the host has two cores).
pub const POOL_WORKERS: usize = 2;

/// Distinct requests in the light (payload scale 1) request sets.
pub const LIGHT_REQUESTS: usize = 20_000;

/// Distinct requests in the heavy (payload scale 8) request set.
pub const HEAVY_REQUESTS: usize = 4_000;

/// Distinct scale-1 requests the traced run of a batch workload uses to
/// profile the layers its own loop bypasses, and their offered rate.
pub const REFERENCE_REQUESTS: usize = 5_000;
pub const REFERENCE_RATE: f64 = 20_000.0;

pub const MODE: RoundMode = RoundMode::NearestEven;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchClean,
    BatchSpecial,
    ServeLight,
    WireLight,
    WireHeavy,
}

/// How a serving workload loads the program.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeShape {
    /// `synth_trace` payload scale.
    pub scale: usize,
    /// Distinct requests, cycled through in order.
    pub distinct: usize,
    /// Over loopback TCP (else straight into an in-process pool).
    pub wire: bool,
    /// Requests in flight in the closed-loop (throughput) phase.
    pub window: usize,
    /// Poisson arrival rate of the open-loop phase, in requests/s; the
    /// traced run's pool and wire probes offer the same.
    pub open_rate: f64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Shape {
    /// The 12-call batch rotation; `special_pct`% of operands special.
    Batch {
        special_pct: u32,
    },
    Serve(ServeShape),
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::BatchClean,
        Workload::BatchSpecial,
        Workload::ServeLight,
        Workload::WireLight,
        Workload::WireHeavy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchClean => "batch_clean",
            Workload::BatchSpecial => "batch_special",
            Workload::ServeLight => "serve_light",
            Workload::WireLight => "wire_light",
            Workload::WireHeavy => "wire_heavy",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::BatchClean => Shape::Batch { special_pct: 0 },
            Workload::BatchSpecial => Shape::Batch { special_pct: 75 },
            Workload::ServeLight => Shape::Serve(ServeShape {
                scale: 1,
                distinct: LIGHT_REQUESTS,
                wire: false,
                window: 128,
                open_rate: 40_000.0,
            }),
            // Each open-loop rate sits far below what the workload
            // sustains (~310k/s, ~70k/s and ~12k/s closed loop), so a
            // host that slows several-fold still measures latency rather
            // than a backlog.
            Workload::WireLight => Shape::Serve(ServeShape {
                scale: 1,
                distinct: LIGHT_REQUESTS,
                wire: true,
                window: 64,
                open_rate: 10_000.0,
            }),
            Workload::WireHeavy => Shape::Serve(ServeShape {
                scale: 8,
                distinct: HEAVY_REQUESTS,
                wire: true,
                window: 16,
                open_rate: 2_000.0,
            }),
        }
    }
}

/// SplitMix64: a tiny, seedable, well-mixed generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Arrival offsets of a Poisson process, in nanoseconds from the start.
pub struct Poisson {
    rng: Rng,
    mean_gap_ns: f64,
    t_ns: f64,
}

impl Poisson {
    pub fn new(seed: u64, rate_hz: f64) -> Poisson {
        Poisson {
            rng: Rng::new(seed ^ 0x0a11_7e55_5c4e_d01e),
            mean_gap_ns: 1e9 / rate_hz,
            t_ns: 0.0,
        }
    }

    pub fn next_ns(&mut self) -> u64 {
        self.t_ns += -self.rng.unit().ln() * self.mean_gap_ns;
        self.t_ns as u64
    }
}

// ---------------------------------------------------------------------------
// Batch inputs
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOp {
    Add,
    Sub,
    Mul,
    Fma,
}

pub const BATCH_OPS: [BatchOp; 4] = [BatchOp::Add, BatchOp::Sub, BatchOp::Mul, BatchOp::Fma];

pub const FORMATS: [(FpFormat, &str); 3] = [
    (FpFormat::SINGLE, "f32"),
    (FpFormat::FP48, "f48"),
    (FpFormat::DOUBLE, "f64"),
];

/// Span names of the rotation's 12 calls, in call order.
pub const CALL_SPANS: [&str; 12] = [
    "softfp.add.f32",
    "softfp.sub.f32",
    "softfp.mul.f32",
    "softfp.fma.f32",
    "softfp.add.f48",
    "softfp.sub.f48",
    "softfp.mul.f48",
    "softfp.fma.f48",
    "softfp.add.f64",
    "softfp.sub.f64",
    "softfp.mul.f64",
    "softfp.fma.f64",
];

impl BatchOp {
    /// The default-dispatch batch kernel (the code under test).
    pub fn run(self, fmt: FpFormat, o: &Operands, out: &mut Vec<(u64, Flags)>) {
        match self {
            BatchOp::Add => softfp::add_bits_batch(fmt, &o.a, &o.b, MODE, out),
            BatchOp::Sub => softfp::sub_bits_batch(fmt, &o.a, &o.b, MODE, out),
            BatchOp::Mul => softfp::mul_bits_batch(fmt, &o.a, &o.b, MODE, out),
            BatchOp::Fma => softfp::fma_bits_batch(fmt, &o.a, &o.b, &o.c, MODE, out),
        }
    }

    /// The generic scalar reference for element `i`.
    pub fn reference(self, fmt: FpFormat, o: &Operands, i: usize) -> (u64, Flags) {
        let (a, b, c) = (o.a[i], o.b[i], o.c[i]);
        match self {
            BatchOp::Add => softfp::add_bits(fmt, a, b, MODE),
            BatchOp::Sub => softfp::sub_bits(fmt, a, b, MODE),
            BatchOp::Mul => softfp::mul_bits(fmt, a, b, MODE),
            BatchOp::Fma => softfp::fma_bits(fmt, a, b, c, MODE),
        }
    }

    fn operands(self) -> usize {
        if self == BatchOp::Fma {
            3
        } else {
            2
        }
    }
}

/// One format's operand streams.
pub struct Operands {
    pub fmt: FpFormat,
    pub a: Vec<u64>,
    pub b: Vec<u64>,
    pub c: Vec<u64>,
}

/// Call `i` of the rotation: format-major, then add, sub, mul, fma.
pub fn call(i: usize) -> (usize, BatchOp) {
    let i = i % CALL_SPANS.len();
    (i / BATCH_OPS.len(), BATCH_OPS[i % BATCH_OPS.len()])
}

/// A stream where about `special_pct`% of operands are special
/// encodings (±0, ±∞, subnormals) and the rest random normals.
fn stream(fmt: FpFormat, rng: &mut Rng, special_pct: u32) -> Vec<u64> {
    let specials = [
        0u64,
        1u64 << fmt.sign_shift(),
        fmt.pos_inf(),
        fmt.neg_inf(),
        fmt.pack(false, 0, 7),
        fmt.pack(true, 0, fmt.frac_mask()),
    ];
    let em = fmt.inf_biased_exp();
    (0..BATCH_LEN)
        .map(|_| {
            let r = rng.next_u64();
            if r % 100 < u64::from(special_pct) {
                specials[(r / 100) as usize % specials.len()]
            } else {
                let exp = 1 + rng.next_u64() % (em - 1);
                let bits = rng.next_u64() & fmt.enc_mask() & !(em << fmt.frac_bits());
                bits | (exp << fmt.frac_bits())
            }
        })
        .collect()
}

/// Operand streams for the three formats.
pub fn operand_sets(seed: u64, special_pct: u32) -> Vec<Operands> {
    let mut rng = Rng::new(seed ^ 0x0bad_5eed_0f0e_a5e5);
    FORMATS
        .iter()
        .map(|&(fmt, _)| Operands {
            fmt,
            a: stream(fmt, &mut rng, special_pct),
            b: stream(fmt, &mut rng, special_pct),
            c: stream(fmt, &mut rng, special_pct),
        })
        .collect()
}

fn is_special(fmt: FpFormat, bits: u64) -> bool {
    let exp = (bits >> fmt.frac_bits()) & fmt.inf_biased_exp();
    exp == 0 || exp == fmt.inf_biased_exp()
}

/// Share of the rotation's lanes with at least one non-normal operand:
/// the lanes the wide kernels hand to the generic fixup path.
pub fn special_lane_frac(sets: &[Operands]) -> f64 {
    let mut special = 0usize;
    for i in 0..CALL_SPANS.len() {
        let (s, op) = call(i);
        let o = &sets[s];
        let streams = [&o.a, &o.b, &o.c];
        special += (0..BATCH_LEN)
            .filter(|&j| {
                streams[..op.operands()]
                    .iter()
                    .any(|v| is_special(o.fmt, v[j]))
            })
            .count();
    }
    special as f64 / (CALL_SPANS.len() * BATCH_LEN) as f64
}

// ---------------------------------------------------------------------------
// Request inputs
// ---------------------------------------------------------------------------

/// A request set with its serial oracle, computed once before timing.
pub struct Requests {
    pub specs: Vec<JobSpec>,
    /// `run_serial` over `specs`.
    pub oracle: Vec<JobResult>,
    /// `oracle`, wire-encoded: a response must match these bytes.
    pub encoded: Vec<Vec<u8>>,
}

impl Requests {
    pub fn len(&self) -> usize {
        self.specs.len()
    }
}

/// `n` distinct requests of the `synth_trace` mix at `scale`, with
/// deadlines and priorities stripped: a deadline or a priority shed
/// would turn a host stall into a failed request.
pub fn requests(seed: u64, scale: usize, n: usize) -> Requests {
    let specs: Vec<JobSpec> = synth_trace(&TraceConfig {
        seed,
        jobs: n,
        rate_hz: 1.0,
        payload_scale: scale,
    })
    .into_iter()
    .map(|ev| JobSpec {
        deadline: None,
        priority: Priority::Normal,
        ..ev.spec
    })
    .collect();
    let oracle = run_serial(&specs, &Tech::virtex2pro());
    let encoded = oracle.iter().map(encode_result).collect();
    Requests {
        specs,
        oracle,
        encoded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("hit"), None);
    }

    #[test]
    fn inputs_are_pure_functions_of_the_seed() {
        let a = operand_sets(5, 75);
        let b = operand_sets(5, 75);
        let c = operand_sets(6, 75);
        assert_eq!(a[2].c, b[2].c);
        assert_ne!(a[2].c, c[2].c);
        let mut p = Poisson::new(9, 20_000.0);
        let mut q = Poisson::new(9, 20_000.0);
        let due: Vec<u64> = (0..100).map(|_| p.next_ns()).collect();
        assert_eq!(due, (0..100).map(|_| q.next_ns()).collect::<Vec<_>>());
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        // 100 arrivals at 20k/s take about 5 ms.
        assert!((2_000_000..10_000_000).contains(&due[99]), "{}", due[99]);
    }

    #[test]
    fn special_density_sets_the_fixup_share() {
        assert_eq!(special_lane_frac(&operand_sets(1, 0)), 0.0);
        // 75% specials: 1 - 0.25² of binary lanes, 1 - 0.25³ of fma lanes.
        let expect = (9.0 * (1.0 - 0.25f64.powi(2)) + 3.0 * (1.0 - 0.25f64.powi(3))) / 12.0;
        let got = special_lane_frac(&operand_sets(1, 75));
        assert!((got - expect).abs() < 0.01, "{got} vs {expect}");
    }

    #[test]
    fn the_rotation_covers_every_op_and_format_once() {
        let calls: Vec<(usize, BatchOp)> = (0..12).map(call).collect();
        for (s, _) in FORMATS.iter().enumerate() {
            for op in BATCH_OPS {
                assert_eq!(calls.iter().filter(|&&c| c == (s, op)).count(), 1);
            }
        }
        for (i, name) in CALL_SPANS.iter().enumerate() {
            let (s, op) = call(i);
            let expect = format!(
                "softfp.{}.{}",
                format!("{op:?}").to_lowercase(),
                FORMATS[s].1
            );
            assert_eq!(*name, expect);
        }
    }
}

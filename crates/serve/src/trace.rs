//! Synthetic request traces: Poisson arrivals, mixed precisions,
//! mixed kernels — fully determined by a seed.
//!
//! The generator drives everything from one [`SmallRng`], so `(seed,
//! jobs, rate)` names the trace exactly: replaying it against any
//! worker count must produce bit-identical
//! [`JobResult`](crate::job::JobResult)s (the
//! serving-equivalence property test relies on this).

use std::time::Duration;

use fpfpga_fabric::synthesis::SynthesisOptions;
use fpfpga_fpu::analysis::CoreKind;
use fpfpga_matmul::{Cplx, Matrix};
use fpfpga_softfp::{FpFormat, PrecisionPolicy, RoundMode, SoftFloat};
use rand::SmallRng;

use fpfpga_softfp::limb::LimbFormat;

use crate::job::{ApOp, EltOp, Job, Kernel};
use crate::pool::{JobSpec, Priority};

/// Parameters of a synthetic trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// RNG seed; the whole trace is a pure function of it.
    pub seed: u64,
    /// Number of requests.
    pub jobs: usize,
    /// Mean Poisson arrival rate in requests per second.
    pub rate_hz: f64,
    /// Multiplier on payload sizes (vector lengths, matrix dims, FFT
    /// points). 1 = the light default mix; throughput benches raise it
    /// so per-job compute dominates scheduling overhead.
    pub payload_scale: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            seed: 7,
            jobs: 256,
            rate_hz: 20_000.0,
            payload_scale: 1,
        }
    }
}

/// One timed request of a trace.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Arrival offset from trace start.
    pub at: Duration,
    /// The request.
    pub spec: JobSpec,
}

/// Scramble the user-facing seed before it reaches the xorshift state
/// (whose own seeding collapses seeds differing only in bit 0).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Synth {
    rng: SmallRng,
    scale: usize,
}

impl Synth {
    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        (((self.rng.next_u64() >> 11) + 1) as f64) / ((1u64 << 53) as f64)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_u64() % n
    }

    /// A well-scaled finite operand in roughly ±8.
    fn value(&mut self) -> f64 {
        (self.below(3200) as f64 - 1600.0) / 200.0
    }

    fn nonzero(&mut self) -> f64 {
        (self.below(1600) as f64 + 25.0) / 200.0 * if self.below(2) == 0 { 1.0 } else { -1.0 }
    }

    fn format(&mut self) -> FpFormat {
        FpFormat::PAPER_PRECISIONS[self.below(3) as usize]
    }

    fn priority(&mut self) -> Priority {
        match self.below(10) {
            0 => Priority::Low,
            1 => Priority::High,
            _ => Priority::Normal,
        }
    }

    fn encode(&mut self, fmt: FpFormat, v: f64) -> u64 {
        SoftFloat::from_f64(fmt, v).bits()
    }

    fn vector(&mut self, fmt: FpFormat, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| {
                let v = self.value();
                self.encode(fmt, v)
            })
            .collect()
    }

    fn matrix(&mut self, fmt: FpFormat, rows: usize, cols: usize) -> Matrix {
        let entries: Vec<f64> = (0..rows * cols).map(|_| self.value()).collect();
        Matrix::from_f64(fmt, rows, cols, &entries)
    }

    /// Diagonally dominant square matrix — safe for no-pivot LU.
    fn dominant_matrix(&mut self, fmt: FpFormat, n: usize) -> Matrix {
        let mut entries: Vec<f64> = (0..n * n).map(|_| self.value()).collect();
        for i in 0..n {
            let row_sum: f64 = (0..n)
                .filter(|&j| j != i)
                .map(|j| entries[i * n + j].abs())
                .sum();
            entries[i * n + i] = row_sum + 1.0 + self.unit();
        }
        Matrix::from_f64(fmt, n, n, &entries)
    }

    /// A policy for an accumulating kernel stored in `fmt`: uniform
    /// two times in three, f64-accumulate mixed otherwise — so the
    /// equivalence proptests exercise the mixed kernels routinely.
    fn accum_policy(&mut self, fmt: FpFormat) -> PrecisionPolicy {
        if self.below(3) == 0 {
            PrecisionPolicy::mixed(fmt, FpFormat::DOUBLE)
        } else {
            PrecisionPolicy::uniform(fmt)
        }
    }

    /// A policy for an elementwise kernel stored in `fmt`: uniform
    /// three times in four, wide (f64) compute otherwise.
    fn eltwise_policy(&mut self, fmt: FpFormat) -> PrecisionPolicy {
        if self.below(4) == 0 {
            PrecisionPolicy::new(FpFormat::DOUBLE, FpFormat::DOUBLE, fmt)
        } else {
            PrecisionPolicy::uniform(fmt)
        }
    }

    fn job(&mut self) -> Job {
        let fmt = self.format();
        let mode = RoundMode::NearestEven;
        match self.below(100) {
            // Coalescible elementwise streams dominate the mix, drawn
            // from a small set of depths so streams actually share
            // classes and the pool's batching has something to win.
            0..=44 => {
                let op = match self.below(5) {
                    0 => EltOp::Add,
                    1 => EltOp::Sub,
                    2 => EltOp::Mul,
                    3 => EltOp::Div,
                    _ => EltOp::Sqrt,
                };
                let stages = [4u32, 6, 8][self.below(3) as usize];
                let n = (1 + self.below(8) as usize) * self.scale;
                let pairs = (0..n)
                    .map(|_| {
                        let (a, b) = match op {
                            EltOp::Div => (self.value(), self.nonzero()),
                            EltOp::Sqrt => (self.value().abs(), 0.0),
                            _ => (self.value(), self.value()),
                        };
                        (self.encode(fmt, a), self.encode(fmt, b))
                    })
                    .collect();
                let policy = self.eltwise_policy(fmt);
                Job::new(Kernel::Eltwise { op, stages, pairs }, policy, mode)
            }
            45..=59 => {
                let n = (4 + self.below(13) as usize) * self.scale;
                let kernel = Kernel::Dot {
                    mult_stages: 4 + self.below(4) as u32,
                    add_stages: 4 + self.below(4) as u32,
                    x: self.vector(fmt, n),
                    y: self.vector(fmt, n),
                };
                let policy = self.accum_policy(fmt);
                Job::new(kernel, policy, mode)
            }
            60..=69 => {
                let rows = (3 + self.below(4) as usize) * self.scale;
                let cols = (3 + self.below(4) as usize) * self.scale;
                let kernel = Kernel::Mvm {
                    mult_stages: 5,
                    add_stages: 4,
                    p: 1 + self.below(3) as usize,
                    a: self.matrix(fmt, rows, cols),
                    x: self.vector(fmt, cols),
                };
                let policy = self.accum_policy(fmt);
                Job::new(kernel, policy, mode)
            }
            70..=77 => {
                // One matmul in three is rectangular, so uniform draws
                // exercise blocked plans with ragged edge tiles (square
                // ones run as one tile) and mixed draws exercise the
                // rectangular mixed kernel — at every worker count, via
                // the equivalence proptests.
                let m = (2 + self.below(3) as usize) * self.scale;
                let (k, n) = if self.below(3) == 0 {
                    (
                        (1 + self.below(5) as usize) * self.scale,
                        (2 + self.below(4) as usize) * self.scale,
                    )
                } else {
                    (m, m)
                };
                let kernel = Kernel::MatMul {
                    mult_stages: 5,
                    add_stages: 4,
                    a: self.matrix(fmt, m, k),
                    b: self.matrix(fmt, k, n),
                };
                let policy = self.accum_policy(fmt);
                Job::new(kernel, policy, mode)
            }
            78..=85 => {
                let n = (3 + self.below(3) as usize) * self.scale;
                let kernel = Kernel::Lu {
                    div_stages: 8,
                    mac_stages: 6,
                    p: 1 + self.below(2) as u32,
                    a: self.dominant_matrix(fmt, n),
                };
                Job::uniform(kernel, fmt, mode)
            }
            86..=91 => {
                // Arbitrary-precision streams: the wide format rides in
                // the kernel (the policy stays uniform and is ignored
                // past its rounding mode), operands are canonical limb
                // arrays with exponents clustered around the bias so
                // the arithmetic exercises real alignment work.
                let wide = [LimbFormat::F128, LimbFormat::F256][self.below(2) as usize];
                let op = match self.below(4) {
                    0 => ApOp::Add,
                    1 => ApOp::Sub,
                    2 => ApOp::Mul,
                    _ => ApOp::Fma,
                };
                let n = (1 + self.below(6) as usize) * self.scale;
                let operand = |s: &mut Self| {
                    let sign = s.below(2) == 1;
                    let exp = (wide.bias() + s.below(41) as i64 - 20) as u64;
                    let frac: Vec<u64> = (0..wide.limbs()).map(|_| s.rng.next_u64()).collect();
                    wide.pack_parts(sign, exp, &frac)
                };
                let a: Vec<Vec<u64>> = (0..n).map(|_| operand(self)).collect();
                let b: Vec<Vec<u64>> = (0..n).map(|_| operand(self)).collect();
                let c: Vec<Vec<u64>> = if op == ApOp::Fma {
                    (0..n).map(|_| operand(self)).collect()
                } else {
                    vec![]
                };
                let kernel = Kernel::Apfloat {
                    op,
                    fmt: wide,
                    a,
                    b,
                    c,
                };
                Job::uniform(kernel, fmt, mode)
            }
            92..=95 => {
                // FFT lengths must stay powers of two under scaling.
                let n = [4usize, 8, 16][self.below(3) as usize] * self.scale.next_power_of_two();
                let data = (0..n)
                    .map(|_| {
                        let (re, im) = (self.value(), self.value());
                        Cplx::from_f64(fmt, re, im)
                    })
                    .collect();
                let kernel = Kernel::Fft {
                    mult_stages: 5,
                    add_stages: 4,
                    data,
                    inverse: self.below(2) == 1,
                };
                Job::uniform(kernel, fmt, mode)
            }
            _ => {
                let kind = [
                    CoreKind::Adder,
                    CoreKind::Multiplier,
                    CoreKind::Divider,
                    CoreKind::Sqrt,
                ][self.below(4) as usize];
                let opts = if self.below(2) == 0 {
                    SynthesisOptions::SPEED
                } else {
                    SynthesisOptions::AREA
                };
                Job::uniform(Kernel::Sweep { kind, opts }, fmt, mode)
            }
        }
    }
}

/// Generate the trace named by `cfg`: `jobs` requests with
/// exponentially distributed inter-arrival gaps (a Poisson process at
/// `rate_hz`), kernels and precisions mixed per fixed weights. Purely
/// a function of the config.
pub fn synth_trace(cfg: &TraceConfig) -> Vec<TraceEvent> {
    assert!(cfg.rate_hz > 0.0, "arrival rate must be positive");
    assert!(cfg.payload_scale >= 1, "payload scale must be at least 1");
    let mut s = Synth {
        rng: SmallRng::seed_from_u64(splitmix(cfg.seed)),
        scale: cfg.payload_scale,
    };
    let mut at = 0.0f64;
    (0..cfg.jobs)
        .map(|_| {
            at += -s.unit().ln() / cfg.rate_hz;
            let spec = JobSpec::new(s.job()).with_priority(s.priority());
            TraceEvent {
                at: Duration::from_secs_f64(at),
                spec,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_in_the_seed() {
        let cfg = TraceConfig {
            seed: 42,
            jobs: 64,
            rate_hz: 10_000.0,
            ..TraceConfig::default()
        };
        let t1 = synth_trace(&cfg);
        let t2 = synth_trace(&cfg);
        assert_eq!(t1.len(), 64);
        let hash = |ev: &TraceEvent| ev.spec.fixed_job().expect("pinned policy").class_hash();
        for (a, b) in t1.iter().zip(&t2) {
            assert_eq!(a.at, b.at);
            assert_eq!(hash(a), hash(b));
        }
        let t3 = synth_trace(&TraceConfig { seed: 43, ..cfg });
        assert!(
            t1.iter().zip(&t3).any(|(a, b)| hash(a) != hash(b)),
            "different seeds must differ"
        );
    }

    #[test]
    fn arrivals_are_monotone_and_jobs_valid() {
        let trace = synth_trace(&TraceConfig::default());
        let mut prev = Duration::ZERO;
        for ev in &trace {
            assert!(ev.at >= prev, "arrival times must be non-decreasing");
            prev = ev.at;
            ev.spec
                .fixed_job()
                .expect("trace policies are pinned")
                .validate()
                .expect("synthetic jobs must be valid");
        }
    }

    #[test]
    fn the_mix_covers_every_kernel() {
        let trace = synth_trace(&TraceConfig {
            seed: 1,
            jobs: 512,
            rate_hz: 1e6,
            ..TraceConfig::default()
        });
        let mut seen = [false; 8];
        let mut mixed = 0usize;
        for ev in &trace {
            let i = match ev.spec.kernel {
                Kernel::Eltwise { .. } => 0,
                Kernel::Dot { .. } => 1,
                Kernel::MatMul { .. } => 2,
                Kernel::Mvm { .. } => 3,
                Kernel::Lu { .. } => 4,
                Kernel::Fft { .. } => 5,
                Kernel::Sweep { .. } => 6,
                Kernel::Apfloat { .. } => 7,
            };
            seen[i] = true;
            let job = ev.spec.fixed_job().expect("pinned policy");
            if !job.policy.is_uniform() {
                mixed += 1;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "mix must cover all kernels: {seen:?}"
        );
        assert!(
            mixed > 0,
            "the mix must include mixed-precision policies so the \
             equivalence proptests exercise the mixed kernels"
        );
    }
}

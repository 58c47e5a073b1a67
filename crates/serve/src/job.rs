//! The serving layer's unit of work: one [`Job`] per request.
//!
//! A job is a [`Kernel`] payload plus the run-time [`PrecisionPolicy`]
//! and rounding mode it executes under. The policy names three
//! formats — compute, accumulate, storage — so one request can, say,
//! store single-precision operands, multiply in single and accumulate
//! in double (the classic mixed-precision dot product). Dot, MVM and
//! matmul run the `fpfpga-matmul` policy kernels under every policy: a
//! uniform policy is the case where every format conversion is skipped,
//! and the cycle and MAC statistics come from the engines' cost models,
//! which do not depend on the policy.
//!
//! Execution is a pure function of the job payload: [`Job::run`] on
//! any thread, against any (warm or cold) [`SweepCache`], returns
//! bit-identical [`JobResult`]s, which is what lets the pool schedule
//! freely while the property tests pin the numerics.

use std::hash::{Hash, Hasher};

use fpfpga_fabric::report::ImplementationReport;
use fpfpga_fabric::synthesis::SynthesisOptions;
use fpfpga_fabric::tech::Tech;
use fpfpga_fabric::timing;
use fpfpga_fpu::analysis::CoreKind;
use fpfpga_fpu::SweepCache;
use fpfpga_matmul::fft::reference_fft;
use fpfpga_matmul::{
    array::ArrayStats, mixed, BlockMatMul, Cplx, FftEngine, LuEngine, Matrix, PlanError,
};
use fpfpga_softfp::limb::{limb_add, limb_fma, limb_mul, limb_sub, LimbFormat};
use fpfpga_softfp::{convert, Flags, FpFormat, PrecisionPolicy, RoundMode};

/// Deepest pipe a served job may ask for, in stages, for every pipe of
/// every kernel. The deepest core the fabric model builds for the
/// paper's formats sits well below it (pinned by a test). Served dot and
/// MVM keep one accumulator bank per adder stage, so without a bound one
/// request could ask for gigabytes of banks.
pub const MAX_PIPE_STAGES: u32 = 256;

/// Elementwise operation of a coalescible eltwise stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EltOp {
    /// a + b
    Add,
    /// a − b
    Sub,
    /// a × b
    Mul,
    /// a ÷ b
    Div,
    /// √a (second operand ignored)
    Sqrt,
}

/// Operation of an arbitrary-precision ([`Kernel::Apfloat`]) stream —
/// the four multi-limb kernels the wide datapath implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ApOp {
    /// a + b
    Add,
    /// a − b
    Sub,
    /// a × b
    Mul,
    /// a × b + c, single rounding
    Fma,
}

impl EltOp {
    /// Apply the operation to every `(a, b)` pair in `fmt`, appending
    /// `(result, flags)` to `out`: what a pipelined unit of any depth
    /// retires for each pair. Add, sub and mul take the softfp pair
    /// batches, div and sqrt the slice batches (√ ignores `b`).
    fn run(
        self,
        fmt: FpFormat,
        mode: RoundMode,
        pairs: &[(u64, u64)],
        out: &mut Vec<(u64, Flags)>,
    ) {
        match self {
            EltOp::Add => fpfpga_softfp::add_pairs_batch(fmt, pairs, mode, out),
            EltOp::Sub => fpfpga_softfp::sub_pairs_batch(fmt, pairs, mode, out),
            EltOp::Mul => fpfpga_softfp::mul_pairs_batch(fmt, pairs, mode, out),
            EltOp::Div => {
                let (a, b): (Vec<u64>, Vec<u64>) = pairs.iter().copied().unzip();
                fpfpga_softfp::div_bits_batch(fmt, &a, &b, mode, out)
            }
            EltOp::Sqrt => {
                let a: Vec<u64> = pairs.iter().map(|&(a, _)| a).collect();
                fpfpga_softfp::sqrt_bits_batch(fmt, &a, mode, out)
            }
        }
    }
}

/// The class of jobs that may be served together in one coalesced
/// batch: same operation, precision policy, rounding mode and pipeline
/// depth.
/// Streams of the same class concatenate without changing any
/// element's result (each element's value is independent of its batch
/// position — property-tested).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CoalesceKey {
    /// Elementwise operation.
    pub op: EltOp,
    /// Precision policy (the operation runs in `policy.compute`;
    /// operands and results live in `policy.storage`).
    pub policy: PrecisionPolicy,
    /// Rounding mode.
    pub mode: RoundMode,
    /// Pipeline depth of the modeled unit.
    pub stages: u32,
}

/// A kernel payload: *what* to run, with its pipeline configuration,
/// but without the numeric formats — those come from the enclosing
/// [`Job`]'s [`PrecisionPolicy`] and rounding mode.
#[derive(Clone, Debug)]
pub enum Kernel {
    /// A coalescible elementwise stream: `op(a, b)` per pair, through
    /// one pipelined unit at initiation interval 1.
    Eltwise {
        /// Elementwise operation.
        op: EltOp,
        /// Pipeline depth of the unit.
        stages: u32,
        /// Operand pairs (raw encodings in the policy's storage format).
        pairs: Vec<(u64, u64)>,
    },
    /// Dot product on the round-robin accumulator-bank unit.
    Dot {
        /// Multiplier pipeline depth.
        mult_stages: u32,
        /// Adder pipeline depth (= accumulator bank size).
        add_stages: u32,
        /// Left vector.
        x: Vec<u64>,
        /// Right vector.
        y: Vec<u64>,
    },
    /// Matrix multiply `A(M×K)·B(K×N)`, any shape, blocked onto the
    /// linear PE array with the block size the cycle model favours
    /// ([`BlockMatMul::cheapest`]).
    MatMul {
        /// Multiplier pipeline depth.
        mult_stages: u32,
        /// Adder pipeline depth.
        add_stages: u32,
        /// Left operand.
        a: Matrix,
        /// Right operand.
        b: Matrix,
    },
    /// Matrix-vector multiply on a `p`-PE engine.
    Mvm {
        /// Multiplier pipeline depth.
        mult_stages: u32,
        /// Adder pipeline depth.
        add_stages: u32,
        /// PE count.
        p: usize,
        /// The matrix.
        a: Matrix,
        /// The vector.
        x: Vec<u64>,
    },
    /// LU factorization (no pivoting). Uniform policies only.
    Lu {
        /// Divider pipeline depth.
        div_stages: u32,
        /// Fused-MAC pipeline depth.
        mac_stages: u32,
        /// Update PEs.
        p: u32,
        /// The matrix to factor.
        a: Matrix,
    },
    /// Radix-2 FFT on one butterfly unit. Uniform policies only.
    Fft {
        /// Multiplier pipeline depth.
        mult_stages: u32,
        /// Adder pipeline depth.
        add_stages: u32,
        /// Input samples (power-of-two length ≥ 2).
        data: Vec<Cplx>,
        /// Inverse transform?
        inverse: bool,
    },
    /// An arbitrary-precision elementwise stream through the
    /// multi-limb (`softfp::limb`) kernels. The wide format travels
    /// with the kernel — [`LimbFormat`] reaches past the 64-bit
    /// [`FpFormat`] cap, so the job's precision policy cannot express
    /// it; the policy must be uniform and only the rounding mode of
    /// the enclosing [`Job`] applies. Operands are canonical
    /// little-endian limb arrays of exactly `fmt.limbs()` words each.
    Apfloat {
        /// Which wide kernel.
        op: ApOp,
        /// The wide format the operands and results are encoded in.
        fmt: LimbFormat,
        /// First operands, one limb array per element.
        a: Vec<Vec<u64>>,
        /// Second operands, same length as `a`.
        b: Vec<Vec<u64>>,
        /// Addends for [`ApOp::Fma`] (same length as `a`); must be
        /// empty for the two-operand kernels.
        c: Vec<Vec<u64>>,
    },
    /// A design-space depth sweep of the policy's compute format
    /// (served from the worker's [`SweepCache`] shard; repeats of the
    /// same key are cache hits). Uniform policies only.
    Sweep {
        /// Which core.
        kind: CoreKind,
        /// Tool objective.
        opts: SynthesisOptions,
    },
}

/// One request against the serving layer: a [`Kernel`] under a
/// [`PrecisionPolicy`] and rounding mode.
#[derive(Clone, Debug)]
pub struct Job {
    /// The kernel payload.
    pub kernel: Kernel,
    /// Compute/accumulate/storage formats for this request.
    pub policy: PrecisionPolicy,
    /// Rounding mode.
    pub mode: RoundMode,
}

/// The result of one [`Job`], bit-exact.
#[derive(Clone, Debug, PartialEq)]
pub enum JobResult {
    /// Per-pair results with flags, in input order.
    Eltwise(Vec<(u64, Flags)>),
    /// Dot product value, accumulated flags, cycles consumed.
    Dot {
        /// Result encoding (in the policy's storage format).
        value: u64,
        /// Accumulated exception flags.
        flags: Flags,
        /// Cycles consumed by the unit.
        cycles: u64,
    },
    /// Product matrix and the array's run statistics.
    MatMul {
        /// C = A·B.
        c: Matrix,
        /// Cycle/MAC statistics of the run on one linear array, from the
        /// plan the job was validated against
        /// ([`BlockMatMul::stats`]).
        stats: ArrayStats,
    },
    /// Result vector and cycles.
    Mvm {
        /// y = A·x.
        y: Vec<u64>,
        /// Cycles consumed.
        cycles: u64,
    },
    /// Packed LU factors and run counters.
    Lu {
        /// L (unit diagonal implicit) and U packed together.
        lu: Matrix,
        /// Cycles consumed.
        cycles: u64,
        /// Division operations issued.
        divs: u64,
        /// Fused MACs issued.
        macs: u64,
        /// Accumulated exception flags.
        flags: Flags,
    },
    /// The transform and cycles.
    Fft {
        /// Transformed samples.
        data: Vec<Cplx>,
        /// Cycles consumed.
        cycles: u64,
    },
    /// Per-element wide results with flags, in input order. Each
    /// result is a canonical limb array of the request's
    /// [`LimbFormat`].
    Apfloat(Vec<(Vec<u64>, Flags)>),
    /// The sweep's opt point and the sweep depth count.
    Sweep {
        /// Highest freq/area implementation.
        opt: ImplementationReport,
        /// Number of depths swept.
        depths: usize,
    },
}

impl Job {
    /// A job running `kernel` under `policy`.
    pub fn new(kernel: Kernel, policy: PrecisionPolicy, mode: RoundMode) -> Job {
        Job {
            kernel,
            policy,
            mode,
        }
    }

    /// A job whose compute, accumulate and storage formats are all
    /// `fmt` — exactly the pre-policy behaviour of every kernel.
    pub fn uniform(kernel: Kernel, fmt: FpFormat, mode: RoundMode) -> Job {
        Job::new(kernel, PrecisionPolicy::uniform(fmt), mode)
    }

    /// The flop-ish size of the job — used for throughput accounting,
    /// never for scheduling decisions.
    pub fn work_items(&self) -> u64 {
        match &self.kernel {
            Kernel::Eltwise { pairs, .. } => pairs.len() as u64,
            Kernel::Dot { x, .. } => 2 * x.len() as u64,
            Kernel::MatMul { a, b, .. } => 2 * a.rows() as u64 * a.cols() as u64 * b.cols() as u64,
            Kernel::Mvm { a, .. } => 2 * (a.rows() * a.cols()) as u64,
            Kernel::Lu { a, .. } => {
                let n = a.rows() as u64;
                2 * n * n * n / 3
            }
            Kernel::Fft { data, .. } => {
                let n = data.len() as u64;
                5 * n * (n.max(2).ilog2() as u64)
            }
            // Wide elements cost roughly their limb count in 64-bit
            // unit passes.
            Kernel::Apfloat { fmt, a, .. } => a.len() as u64 * fmt.limbs() as u64,
            Kernel::Sweep { .. } => 1,
        }
    }

    /// The job's *class* — everything about its configuration except
    /// the payload data: kernel kind and stage counts, precision
    /// policy, rounding mode. Jobs of one class route to one worker
    /// shard, so repeated sweeps hit a warm cache and coalescible
    /// streams meet in one queue.
    pub fn class_hash(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::mem::discriminant(&self.kernel).hash(&mut h);
        (self.policy, self.mode).hash(&mut h);
        match &self.kernel {
            Kernel::Eltwise { op, stages, .. } => (op, stages).hash(&mut h),
            Kernel::Dot {
                mult_stages,
                add_stages,
                ..
            } => (mult_stages, add_stages).hash(&mut h),
            Kernel::MatMul {
                mult_stages,
                add_stages,
                ..
            } => (mult_stages, add_stages).hash(&mut h),
            Kernel::Mvm {
                mult_stages,
                add_stages,
                p,
                ..
            } => (mult_stages, add_stages, p).hash(&mut h),
            Kernel::Lu {
                div_stages,
                mac_stages,
                p,
                ..
            } => (div_stages, mac_stages, p).hash(&mut h),
            Kernel::Fft {
                mult_stages,
                add_stages,
                inverse,
                ..
            } => (mult_stages, add_stages, inverse).hash(&mut h),
            Kernel::Apfloat { op, fmt, .. } => (op, fmt).hash(&mut h),
            Kernel::Sweep { kind, opts } => (kind, opts).hash(&mut h),
        }
        h.finish()
    }

    /// The coalescing class, for jobs that may be served in one batch.
    pub fn coalesce_key(&self) -> Option<CoalesceKey> {
        match self.kernel {
            Kernel::Eltwise { op, stages, .. } => Some(CoalesceKey {
                op,
                policy: self.policy,
                mode: self.mode,
                stages,
            }),
            _ => None,
        }
    }

    /// Check the payload against the kernel's preconditions — and the
    /// policy against the kernel's capabilities — so a bad request is
    /// refused at submission instead of killing a worker.
    pub fn validate(&self) -> Result<(), String> {
        let p = self.policy;
        let uniform_only = |what: &str| -> Result<(), String> {
            if p.is_uniform() {
                Ok(())
            } else {
                Err(format!(
                    "{what} requires a uniform precision policy, got {p}"
                ))
            }
        };
        let storage_matrix = |name: &str, m: &Matrix| -> Result<(), String> {
            if m.format() == p.storage {
                Ok(())
            } else {
                Err(format!(
                    "matrix {name} is in format {}, policy stores {}",
                    m.format().canonical_name(),
                    p.storage.canonical_name()
                ))
            }
        };
        let covering = || -> Result<(), String> {
            if p.accumulate_covers_compute() {
                Ok(())
            } else {
                Err(format!(
                    "accumulate format {} does not cover compute format {}",
                    p.accumulate.canonical_name(),
                    p.compute.canonical_name()
                ))
            }
        };
        // Dot and MVM allocate one accumulator bank per adder stage, so
        // every pipe depth is bounded before anything else is looked at
        // (one rule for every kernel's pipes).
        let pipes: &[_] = match &self.kernel {
            Kernel::Eltwise { stages, .. } => &[*stages],
            Kernel::Dot {
                mult_stages,
                add_stages,
                ..
            }
            | Kernel::MatMul {
                mult_stages,
                add_stages,
                ..
            }
            | Kernel::Mvm {
                mult_stages,
                add_stages,
                ..
            }
            | Kernel::Fft {
                mult_stages,
                add_stages,
                ..
            } => &[*mult_stages, *add_stages],
            Kernel::Lu {
                div_stages,
                mac_stages,
                ..
            } => &[*div_stages, *mac_stages],
            Kernel::Apfloat { .. } | Kernel::Sweep { .. } => &[],
        };
        if let Some(bad) = pipes.iter().find(|d| !(1..=MAX_PIPE_STAGES).contains(*d)) {
            return Err(format!(
                "pipe depth {bad} is outside 1..={MAX_PIPE_STAGES} stages"
            ));
        }
        match &self.kernel {
            Kernel::Eltwise { .. } => {}
            Kernel::Dot { x, y, .. } => {
                covering()?;
                if x.len() != y.len() {
                    return Err(format!(
                        "dot vector lengths differ: {} vs {}",
                        x.len(),
                        y.len()
                    ));
                }
            }
            Kernel::MatMul {
                mult_stages,
                add_stages,
                a,
                b,
                ..
            } => {
                covering()?;
                storage_matrix("a", a)?;
                // The plan every job is charged by must exist, so shape
                // refusals (and `b`'s format, which must be `a`'s) are
                // the planner's typed errors.
                matmul_plan(*mult_stages + *add_stages, a, b)
                    .and_then(|plan| plan.check_operands(a, b))
                    .map_err(|e| format!("matmul: {e}"))?;
            }
            Kernel::Mvm { a, x, p: pes, .. } => {
                covering()?;
                storage_matrix("a", a)?;
                if a.cols() != x.len() {
                    return Err(format!(
                        "mvm dimension mismatch: {}×{} · {}",
                        a.rows(),
                        a.cols(),
                        x.len()
                    ));
                }
                if *pes == 0 {
                    return Err("mvm needs at least 1 PE".into());
                }
            }
            Kernel::Lu { a, p: pes, .. } => {
                uniform_only("LU")?;
                storage_matrix("a", a)?;
                if a.rows() != a.cols() {
                    return Err("LU needs a square matrix".into());
                }
                if *pes == 0 {
                    return Err("LU needs at least 1 update PE".into());
                }
            }
            Kernel::Fft { data, .. } => {
                uniform_only("FFT")?;
                if !data.len().is_power_of_two() || data.len() < 2 {
                    return Err(format!(
                        "FFT length {} is not a power of two ≥ 2",
                        data.len()
                    ));
                }
            }
            Kernel::Apfloat { op, fmt, a, b, c } => {
                // The ≤64-bit policy formats cannot name a wide format;
                // refuse anything but a uniform policy so nobody
                // mistakes the policy for the operative precision.
                uniform_only("apfloat")?;
                if a.len() != b.len() {
                    return Err(format!(
                        "apfloat operand streams differ in length: {} vs {}",
                        a.len(),
                        b.len()
                    ));
                }
                if *op == ApOp::Fma {
                    if c.len() != a.len() {
                        return Err(format!(
                            "apfloat fma addend stream has {} elements, operands have {}",
                            c.len(),
                            a.len()
                        ));
                    }
                } else if !c.is_empty() {
                    return Err(format!(
                        "apfloat {op:?} takes two operands but {} addends were supplied",
                        c.len()
                    ));
                }
                for (name, stream) in [("a", a), ("b", b), ("c", c)] {
                    for (i, enc) in stream.iter().enumerate() {
                        if !fmt.is_canonical(enc) {
                            return Err(format!(
                                "apfloat operand {name}[{i}] is not a canonical {} encoding",
                                fmt.canonical_name()
                            ));
                        }
                    }
                }
            }
            Kernel::Sweep { .. } => uniform_only("a depth sweep")?,
        }
        Ok(())
    }

    /// Execute the job. Pure in the payload: the `cache` only memoizes
    /// [`Kernel::Sweep`] synthesis (identical results warm or cold),
    /// and every kernel starts from freshly built, empty pipelines, so
    /// the result is bit-identical no matter which thread, worker count
    /// or batch the job ran in. Dot, MVM and matmul run the
    /// [`fpfpga_matmul::mixed`] policy kernels under every policy (a
    /// uniform policy skips every conversion, and the result equals the
    /// per-cycle engines', tested); matmul's statistics are the
    /// validated plan's analytic [`BlockMatMul::stats`], so no simulated
    /// array is built. FFT likewise runs [`reference_fft`] and charges
    /// [`FftEngine::cycle_model`] (equal to the per-cycle engine, tested).
    pub fn run(&self, tech: &Tech, cache: &SweepCache) -> JobResult {
        let p = self.policy;
        let mode = self.mode;
        match &self.kernel {
            Kernel::Eltwise { op, pairs, .. } => {
                let mut results = Vec::with_capacity(pairs.len());
                eltwise_batch_into(*op, p, mode, pairs, &mut results);
                JobResult::Eltwise(results)
            }
            Kernel::Dot {
                mult_stages,
                add_stages,
                x,
                y,
            } => {
                let d = mixed::mixed_dot(p, mode, x, y, *mult_stages, *add_stages);
                JobResult::Dot {
                    value: d.bits,
                    flags: d.flags,
                    cycles: d.cycles,
                }
            }
            Kernel::MatMul {
                mult_stages,
                add_stages,
                a,
                b,
            } => {
                let (c, _flags) = mixed::mixed_matmul(p, mode, a, b);
                let plan = matmul_plan(*mult_stages + *add_stages, a, b)
                    .expect("matmul plan was validated at submission");
                JobResult::MatMul {
                    c,
                    stats: plan.stats(),
                }
            }
            Kernel::Mvm {
                mult_stages,
                add_stages,
                p: pes,
                a,
                x,
            } => {
                let (y, _flags, cycles) =
                    mixed::mixed_mvm(p, mode, a, x, *mult_stages, *add_stages, *pes);
                JobResult::Mvm { y, cycles }
            }
            Kernel::Lu {
                div_stages,
                mac_stages,
                p: pes,
                a,
            } => {
                let engine = LuEngine::new(p.compute, mode, *div_stages, *mac_stages, *pes);
                let r = engine.factor_batched(a);
                JobResult::Lu {
                    lu: r.lu,
                    cycles: r.cycles,
                    divs: r.divs,
                    macs: r.macs,
                    flags: r.flags,
                }
            }
            Kernel::Fft {
                mult_stages,
                add_stages,
                data,
                inverse,
            } => {
                let engine = FftEngine::new(p.compute, mode, *mult_stages, *add_stages);
                JobResult::Fft {
                    data: reference_fft(p.compute, mode, data, *inverse),
                    cycles: engine.cycle_model(data.len()),
                }
            }
            Kernel::Apfloat { op, fmt, a, b, c } => {
                let results = a
                    .iter()
                    .zip(b)
                    .enumerate()
                    .map(|(i, (x, y))| match op {
                        ApOp::Add => limb_add(*fmt, x, y, mode),
                        ApOp::Sub => limb_sub(*fmt, x, y, mode),
                        ApOp::Mul => limb_mul(*fmt, x, y, mode),
                        ApOp::Fma => limb_fma(*fmt, x, y, &c[i], mode),
                    })
                    .collect();
                JobResult::Apfloat(results)
            }
            Kernel::Sweep { kind, opts } => {
                let reports = cache.sweep(kind.unit_op(), p.compute, tech, *opts);
                JobResult::Sweep {
                    opt: timing::optimal(&reports).clone(),
                    depths: reports.len(),
                }
            }
        }
    }
}

/// The plan a matmul job is checked against and charged by: the block
/// size the paper's cycle model favours for the job's shape and
/// combined MAC latency `pl`.
fn matmul_plan(pl: u32, a: &Matrix, b: &Matrix) -> Result<BlockMatMul, PlanError> {
    let dim = |d: usize| {
        u32::try_from(d).map_err(|_| PlanError::Shape(format!("dimension {d} exceeds u32")))
    };
    BlockMatMul::cheapest(dim(a.rows())?, dim(a.cols())?, dim(b.cols())?, pl)
}

/// Run one eltwise payload under `policy`: convert operands in from
/// `policy.storage`, apply `op` in `policy.compute`, convert results
/// back out, and OR each element's conversion flags into its result's.
/// With `storage == compute` nothing is converted, untouched bits and
/// all. Each element depends only on its own operands, so results are
/// independent of batching.
fn eltwise_batch_into(
    op: EltOp,
    policy: PrecisionPolicy,
    mode: RoundMode,
    pairs: &[(u64, u64)],
    out: &mut Vec<(u64, Flags)>,
) {
    if policy.storage == policy.compute {
        op.run(policy.compute, mode, pairs, out);
        return;
    }
    let convert_in = |x| convert::convert(policy.storage, x, policy.compute, mode);
    let mut in_flags = Vec::with_capacity(pairs.len());
    let converted: Vec<(u64, u64)> = pairs
        .iter()
        .map(|&(a, b)| {
            let (ca, fa) = convert_in(a);
            // √ ignores `b`, so converting it could only leak flags.
            let (cb, fb) = match op {
                EltOp::Sqrt => (0, Flags::NONE),
                _ => convert_in(b),
            };
            in_flags.push(fa | fb);
            (ca, cb)
        })
        .collect();
    let start = out.len();
    op.run(policy.compute, mode, &converted, out);
    for ((bits, f), inf) in out[start..].iter_mut().zip(in_flags) {
        let (sb, nf) = convert::convert(policy.compute, *bits, policy.storage, mode);
        *bits = sb;
        *f = inf | *f | nf;
    }
}

/// Run a coalesced batch of eltwise streams of one [`CoalesceKey`], one
/// bulk call per job straight into that job's result vector — no
/// concatenation, no re-splitting. Each element's value depends only on
/// its own operands, so this is bit-identical to running the jobs one
/// by one (property-tested) — for mixed policies too, since the format
/// converters are stateless.
pub fn run_coalesced(key: CoalesceKey, batches: &[&[(u64, u64)]]) -> Vec<JobResult> {
    batches
        .iter()
        .map(|b| {
            let mut results = Vec::with_capacity(b.len());
            eltwise_batch_into(key.op, key.policy, key.mode, b, &mut results);
            JobResult::Eltwise(results)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpfpga_softfp::SoftFloat;

    const RM: RoundMode = RoundMode::NearestEven;

    fn enc(fmt: FpFormat, v: f64) -> u64 {
        SoftFloat::from_f64(fmt, v).bits()
    }

    #[test]
    fn eltwise_runs_and_flags() {
        let fmt = FpFormat::SINGLE;
        let job = Job::uniform(
            Kernel::Eltwise {
                op: EltOp::Add,
                stages: 6,
                pairs: vec![
                    (enc(fmt, 1.5), enc(fmt, 2.25)),
                    (enc(fmt, -1.0), enc(fmt, 1.0)),
                ],
            },
            fmt,
            RM,
        );
        let cache = SweepCache::new();
        match job.run(&Tech::virtex2pro(), &cache) {
            JobResult::Eltwise(rs) => {
                assert_eq!(rs.len(), 2);
                assert_eq!(SoftFloat::from_bits(fmt, rs[0].0).to_f64(), 3.75);
                assert_eq!(SoftFloat::from_bits(fmt, rs[1].0).to_f64(), 0.0);
            }
            other => panic!("wrong result kind: {other:?}"),
        }
    }

    #[test]
    fn eltwise_narrow_compute_rounds_through_the_compute_format() {
        // Storage f64, compute f32: the small addend must vanish in the
        // compute format even though storage could represent the sum.
        let policy = PrecisionPolicy::new(FpFormat::SINGLE, FpFormat::SINGLE, FpFormat::DOUBLE);
        let st = FpFormat::DOUBLE;
        let tiny = 2f64.powi(-30);
        let job = Job::new(
            Kernel::Eltwise {
                op: EltOp::Add,
                stages: 4,
                pairs: vec![(enc(st, 1.0), enc(st, tiny))],
            },
            policy,
            RM,
        );
        let cache = SweepCache::new();
        match job.run(&Tech::virtex2pro(), &cache) {
            JobResult::Eltwise(rs) => {
                assert_eq!(SoftFloat::from_bits(st, rs[0].0).to_f64(), 1.0);
                assert!(rs[0].1.inexact, "losing the addend must raise inexact");
            }
            other => panic!("wrong result kind: {other:?}"),
        }
        // The uniform job at storage precision keeps the addend.
        let job64 = Job::uniform(
            Kernel::Eltwise {
                op: EltOp::Add,
                stages: 4,
                pairs: vec![(enc(st, 1.0), enc(st, tiny))],
            },
            st,
            RM,
        );
        match job64.run(&Tech::virtex2pro(), &cache) {
            JobResult::Eltwise(rs) => {
                assert_eq!(SoftFloat::from_bits(st, rs[0].0).to_f64(), 1.0 + tiny);
            }
            other => panic!("wrong result kind: {other:?}"),
        }
    }

    #[test]
    fn narrowing_sqrt_ignores_the_second_operand() {
        // √4 stored in f64, computed in f32: exact, whatever `b` holds.
        // Converting the ignored `b` would raise inexact for 0.1 and
        // overflow for 1e300.
        let policy = PrecisionPolicy::new(FpFormat::SINGLE, FpFormat::SINGLE, FpFormat::DOUBLE);
        let st = policy.storage;
        let cache = SweepCache::new();
        let run = |b: f64| {
            let job = Job::new(
                Kernel::Eltwise {
                    op: EltOp::Sqrt,
                    stages: 3,
                    pairs: vec![(enc(st, 4.0), enc(st, b))],
                },
                policy,
                RM,
            );
            job.validate().unwrap();
            job.run(&Tech::virtex2pro(), &cache)
        };
        let want = run(0.0);
        assert_eq!(want, JobResult::Eltwise(vec![(enc(st, 2.0), Flags::NONE)]));
        for b in [0.1, 1e300] {
            assert_eq!(run(b), want, "b = {b}");
        }
    }

    #[test]
    fn mixed_dot_job_matches_the_mixed_kernel() {
        let policy = PrecisionPolicy::mixed(FpFormat::SINGLE, FpFormat::DOUBLE);
        let fmt = policy.storage;
        let x: Vec<u64> = (0..37).map(|i| enc(fmt, (i as f64 * 0.31).sin())).collect();
        let y: Vec<u64> = (0..37).map(|i| enc(fmt, (i as f64 * 0.17).cos())).collect();
        let job = Job::new(
            Kernel::Dot {
                mult_stages: 5,
                add_stages: 4,
                x: x.clone(),
                y: y.clone(),
            },
            policy,
            RM,
        );
        let want = mixed::mixed_dot(policy, RM, &x, &y, 5, 4);
        let cache = SweepCache::new();
        match job.run(&Tech::virtex2pro(), &cache) {
            JobResult::Dot {
                value,
                flags,
                cycles,
            } => {
                assert_eq!(value, want.bits);
                assert_eq!(flags, want.flags);
                assert_eq!(cycles, want.cycles);
            }
            other => panic!("wrong result kind: {other:?}"),
        }
    }

    #[test]
    fn coalesced_matches_individual_runs() {
        // One uniform and one mixed key: the coalesced path must be
        // bit-identical to solo runs for both.
        for policy in [
            PrecisionPolicy::uniform(FpFormat::FP48),
            PrecisionPolicy::new(FpFormat::DOUBLE, FpFormat::DOUBLE, FpFormat::FP48),
        ] {
            let st = policy.storage;
            let key = CoalesceKey {
                op: EltOp::Mul,
                policy,
                mode: RM,
                stages: 9,
            };
            let mk = |vals: &[(f64, f64)]| -> Vec<(u64, u64)> {
                vals.iter()
                    .map(|&(a, b)| (enc(st, a), enc(st, b)))
                    .collect()
            };
            let b1 = mk(&[(1.5, 2.0), (3.0, -0.25)]);
            let b2 = mk(&[(1e10, 1e-10)]);
            let b3 = mk(&[]);
            let coalesced = run_coalesced(key, &[&b1, &b2, &b3]);
            let tech = Tech::virtex2pro();
            let cache = SweepCache::new();
            for (got, pairs) in coalesced.iter().zip([&b1, &b2, &b3]) {
                let solo = Job::new(
                    Kernel::Eltwise {
                        op: key.op,
                        stages: key.stages,
                        pairs: pairs.clone(),
                    },
                    policy,
                    key.mode,
                )
                .run(&tech, &cache);
                assert_eq!(*got, solo);
            }
        }
    }

    #[test]
    fn class_hash_ignores_payload_but_not_config_or_policy() {
        let fmt = FpFormat::SINGLE;
        let elt = |stages: u32, pairs: Vec<(u64, u64)>| Kernel::Eltwise {
            op: EltOp::Add,
            stages,
            pairs,
        };
        let j1 = Job::uniform(elt(6, vec![(1, 2)]), fmt, RM);
        let j2 = Job::uniform(elt(6, vec![(3, 4), (5, 6)]), fmt, RM);
        let j3 = Job::uniform(elt(7, vec![(1, 2)]), fmt, RM);
        let j4 = Job::new(
            elt(6, vec![(1, 2)]),
            PrecisionPolicy::new(FpFormat::DOUBLE, FpFormat::DOUBLE, fmt),
            RM,
        );
        assert_eq!(j1.class_hash(), j2.class_hash());
        assert_ne!(j1.class_hash(), j3.class_hash());
        assert_ne!(
            j1.class_hash(),
            j4.class_hash(),
            "policy is part of the class"
        );
    }

    #[test]
    fn validate_catches_bad_payloads() {
        let fmt = FpFormat::SINGLE;
        assert!(Job::uniform(
            Kernel::Dot {
                mult_stages: 5,
                add_stages: 5,
                x: vec![1, 2],
                y: vec![1],
            },
            fmt,
            RM,
        )
        .validate()
        .is_err());
        assert!(Job::uniform(
            Kernel::Fft {
                mult_stages: 5,
                add_stages: 5,
                data: vec![Cplx::zero(); 3],
                inverse: false,
            },
            fmt,
            RM,
        )
        .validate()
        .is_err());
        // A zero diagonal is accepted: the divider gives a zero pivot
        // IEEE semantics instead of panicking a worker.
        let a = Matrix::zero(fmt, 3, 3);
        assert!(Job::uniform(
            Kernel::Lu {
                div_stages: 8,
                mac_stages: 6,
                p: 2,
                a,
            },
            fmt,
            RM,
        )
        .validate()
        .is_ok());
    }

    #[test]
    fn validate_enforces_policy_capabilities() {
        let fmt = FpFormat::SINGLE;
        // LU under a mixed policy is refused.
        let lu = Kernel::Lu {
            div_stages: 8,
            mac_stages: 6,
            p: 1,
            a: Matrix::identity(fmt, 2),
        };
        let mixed_policy = PrecisionPolicy::mixed(fmt, FpFormat::DOUBLE);
        let err = Job::new(lu, mixed_policy, RM).validate().unwrap_err();
        assert!(err.contains("uniform"), "{err}");
        // A narrowing accumulate format is refused for dot products.
        let narrow = PrecisionPolicy::new(FpFormat::DOUBLE, FpFormat::SINGLE, FpFormat::DOUBLE);
        let err = Job::new(
            Kernel::Dot {
                mult_stages: 5,
                add_stages: 4,
                x: vec![0],
                y: vec![0],
            },
            narrow,
            RM,
        )
        .validate()
        .unwrap_err();
        assert!(err.contains("does not cover"), "{err}");
        // A matrix in the wrong storage format is refused.
        let err = Job::new(
            Kernel::MatMul {
                mult_stages: 5,
                add_stages: 4,
                a: Matrix::identity(FpFormat::DOUBLE, 2),
                b: Matrix::identity(FpFormat::DOUBLE, 2),
            },
            PrecisionPolicy::mixed(fmt, FpFormat::DOUBLE),
            RM,
        )
        .validate()
        .unwrap_err();
        assert!(err.contains("policy stores"), "{err}");
    }

    fn matmul_job(mult_stages: u32, add_stages: u32, a: &Matrix, b: &Matrix) -> Job {
        let (a, b) = (a.clone(), b.clone());
        let kernel = Kernel::MatMul {
            mult_stages,
            add_stages,
            a,
            b,
        };
        Job::uniform(kernel, FpFormat::SINGLE, RM)
    }

    #[test]
    fn matmul_zero_and_stageless_payloads_are_refused_not_panics() {
        let fmt = FpFormat::SINGLE;
        let id = Matrix::identity(fmt, 2);
        // The planner's typed errors: a zero dimension (0×0 operands used
        // to panic a worker at `pes[0]`) and mismatched inner dimensions.
        let zero = Matrix::zero(fmt, 0, 0);
        let err = matmul_job(5, 4, &zero, &zero).validate().unwrap_err();
        assert!(err.contains("dimension M must be at least 1"), "{err}");
        let err = matmul_job(5, 4, &Matrix::zero(fmt, 2, 3), &id)
            .validate()
            .unwrap_err();
        assert!(err.contains("B is 2×2, plan expects 3×2"), "{err}");
        // mult+add = 0 used to trip Schedule::new's assert on a worker.
        let err = matmul_job(0, 0, &id, &id).validate().unwrap_err();
        assert!(err.contains("pipe depth 0"), "{err}");
    }

    #[test]
    fn served_square_matmul_equals_the_per_cycle_array() {
        // Square jobs run the one-tile plan (b = n): values and every
        // stats field equal the per-cycle single array.
        let fmt = FpFormat::SINGLE;
        let top = if cfg!(debug_assertions) { 24 } else { 64 };
        let cache = SweepCache::new();
        for (lm, la) in [(5u32, 4u32), (1, 1), (9, 12), (13, 12)] {
            for n in 1..=top {
                let a = Matrix::from_fn(fmt, n, n, |i, j| ((i * n + j) as f64 * 0.31).sin());
                let b = Matrix::from_fn(fmt, n, n, |i, j| ((i + 3 * j) as f64 * 0.17).cos());
                let job = matmul_job(lm, la, &a, &b);
                job.validate().unwrap();
                let backend = fpfpga_matmul::pe::UnitBackend::Fast;
                let want = fpfpga_matmul::LinearArray::multiply(fmt, RM, lm, la, &a, &b, backend);
                match job.run(&Tech::virtex2pro(), &cache) {
                    JobResult::MatMul { c, stats } => assert_eq!((c, stats), want, "n={n}"),
                    other => panic!("wrong result kind: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn rectangular_matmul_runs_the_cheapest_plan() {
        let fmt = FpFormat::SINGLE;
        let a = Matrix::from_fn(fmt, 7, 3, |i, j| ((i * 3 + j) as f64 * 0.2).sin());
        let b = Matrix::from_fn(fmt, 3, 5, |i, j| ((i + 2 * j) as f64 * 0.3).cos());
        let plan = BlockMatMul::cheapest(7, 3, 5, 9).unwrap();
        let job = matmul_job(5, 4, &a, &b);
        job.validate().unwrap();
        match job.run(&Tech::virtex2pro(), &SweepCache::new()) {
            JobResult::MatMul { c, stats } => {
                assert_eq!(c, fpfpga_matmul::reference::reference_matmul(&a, &b, RM));
                assert_eq!(stats.cycles, plan.total_cycles());
                assert_eq!(stats.pad_macs, plan.pad_macs());
            }
            other => panic!("wrong result kind: {other:?}"),
        }
    }

    #[test]
    fn pipe_depth_bound_covers_the_fabric_models_deepest_core() {
        use fpfpga_fpu::generator::{sweep_for, UnitOp};
        let tech = Tech::virtex2pro();
        for op in [
            UnitOp::Add,
            UnitOp::Mul,
            UnitOp::Div,
            UnitOp::Sqrt,
            UnitOp::Mac,
        ] {
            for fmt in FpFormat::PAPER_PRECISIONS {
                let deepest = sweep_for(op, fmt, &tech, SynthesisOptions::SPEED).len();
                assert!(
                    deepest as u32 <= MAX_PIPE_STAGES,
                    "{op:?} {fmt:?}: {deepest}"
                );
            }
        }
    }

    #[test]
    fn every_kernels_pipe_depths_are_bounded() {
        let fmt = FpFormat::SINGLE;
        let (one, id) = (enc(fmt, 1.0), Matrix::identity(fmt, 2));
        // One job of each kernel kind with pipes, at depths (s1, s2).
        let jobs = |s1: u32, s2: u32| {
            [
                Kernel::Eltwise {
                    op: EltOp::Add,
                    stages: s1,
                    pairs: vec![(one, one)],
                },
                Kernel::Dot {
                    mult_stages: s1,
                    add_stages: s2,
                    x: vec![one],
                    y: vec![one],
                },
                Kernel::MatMul {
                    mult_stages: s1,
                    add_stages: s2,
                    a: id.clone(),
                    b: id.clone(),
                },
                Kernel::Mvm {
                    mult_stages: s1,
                    add_stages: s2,
                    p: 1,
                    a: id.clone(),
                    x: vec![one; 2],
                },
                Kernel::Lu {
                    div_stages: s1,
                    mac_stages: s2,
                    p: 1,
                    a: id.clone(),
                },
                Kernel::Fft {
                    mult_stages: s1,
                    add_stages: s2,
                    data: vec![Cplx::zero(); 2],
                    inverse: false,
                },
            ]
            .map(|kernel| Job::uniform(kernel, fmt, RM))
        };
        let cache = SweepCache::new();
        for depth in [1, MAX_PIPE_STAGES] {
            for job in jobs(depth, depth) {
                job.validate().unwrap();
                job.run(&Tech::virtex2pro(), &cache);
            }
        }
        for bad in [0, MAX_PIPE_STAGES + 1, 1 << 22, u32::MAX] {
            // Each pipe in turn; the eltwise unit has only the first.
            let second = jobs(4, bad).into_iter().skip(1);
            for job in jobs(bad, 4).into_iter().chain(second) {
                let err = job.validate().unwrap_err();
                assert!(err.contains(&format!("pipe depth {bad} ")), "{err}");
            }
        }
    }

    #[test]
    fn apfloat_job_matches_the_serial_limb_kernels() {
        let fmt = LimbFormat::F128;
        let enc = |e_off: i64, lo: u64, hi: u64| {
            fmt.pack_parts(false, (fmt.bias() + e_off) as u64, &[lo, hi])
        };
        let a = vec![enc(0, 0, 0), enc(3, 0xdead_beef, 0x1234), enc(-80, 7, 0)];
        let b = vec![enc(1, 0, 0), enc(-2, 1, 0xffff), enc(90, 0, 0x42)];
        let c = vec![enc(2, 5, 0), enc(0, 0, 0), enc(11, 1, 1)];
        let cache = SweepCache::new();
        let tech = Tech::virtex2pro();
        type BinKernel = fn(LimbFormat, &[u64], &[u64], RoundMode) -> (Vec<u64>, Flags);
        let binaries: [(ApOp, BinKernel); 3] = [
            (ApOp::Add, limb_add),
            (ApOp::Sub, limb_sub),
            (ApOp::Mul, limb_mul),
        ];
        for (op, kernel) in binaries {
            let job = Job::uniform(
                Kernel::Apfloat {
                    op,
                    fmt,
                    a: a.clone(),
                    b: b.clone(),
                    c: vec![],
                },
                FpFormat::SINGLE,
                RM,
            );
            job.validate().expect("canonical payload is valid");
            match job.run(&tech, &cache) {
                JobResult::Apfloat(rs) => {
                    let want: Vec<_> = a
                        .iter()
                        .zip(&b)
                        .map(|(x, y)| kernel(fmt, x, y, RM))
                        .collect();
                    assert_eq!(rs, want, "{op:?}");
                }
                other => panic!("wrong result kind: {other:?}"),
            }
        }
        let job = Job::uniform(
            Kernel::Apfloat {
                op: ApOp::Fma,
                fmt,
                a: a.clone(),
                b: b.clone(),
                c: c.clone(),
            },
            FpFormat::SINGLE,
            RM,
        );
        job.validate().unwrap();
        match job.run(&tech, &cache) {
            JobResult::Apfloat(rs) => {
                let want: Vec<_> = (0..a.len())
                    .map(|i| limb_fma(fmt, &a[i], &b[i], &c[i], RM))
                    .collect();
                assert_eq!(rs, want);
            }
            other => panic!("wrong result kind: {other:?}"),
        }
    }

    #[test]
    fn apfloat_validate_refuses_bad_payloads_and_policies() {
        let fmt = LimbFormat::F256;
        let one = fmt.pack_parts(false, fmt.bias() as u64, &[0, 0, 0, 0]);
        let base = |op, a: Vec<Vec<u64>>, b: Vec<Vec<u64>>, c: Vec<Vec<u64>>| {
            Job::uniform(Kernel::Apfloat { op, fmt, a, b, c }, FpFormat::SINGLE, RM)
        };
        // Mismatched stream lengths.
        let err = base(
            ApOp::Add,
            vec![one.clone(), one.clone()],
            vec![one.clone()],
            vec![],
        )
        .validate()
        .unwrap_err();
        assert!(err.contains("differ in length"), "{err}");
        // Fma without addends; non-fma with addends.
        let err = base(ApOp::Fma, vec![one.clone()], vec![one.clone()], vec![])
            .validate()
            .unwrap_err();
        assert!(err.contains("addend"), "{err}");
        let err = base(
            ApOp::Mul,
            vec![one.clone()],
            vec![one.clone()],
            vec![one.clone()],
        )
        .validate()
        .unwrap_err();
        assert!(err.contains("two operands"), "{err}");
        // Non-canonical operand: wrong limb count.
        let err = base(ApOp::Add, vec![vec![0; 3]], vec![one.clone()], vec![])
            .validate()
            .unwrap_err();
        assert!(err.contains("canonical"), "{err}");
        // Stray bits above total_bits (a format with top-limb padding;
        // f256 is exactly 4 limbs, so it has none).
        let pad = LimbFormat::new(19, 200);
        let pad_one = pad.pack_parts(false, pad.bias() as u64, &[0, 0, 0, 0]);
        let mut stray = pad_one.clone();
        *stray.last_mut().unwrap() |= 1 << 63;
        let err = Job::uniform(
            Kernel::Apfloat {
                op: ApOp::Add,
                fmt: pad,
                a: vec![stray],
                b: vec![pad_one],
                c: vec![],
            },
            FpFormat::SINGLE,
            RM,
        )
        .validate()
        .unwrap_err();
        assert!(err.contains("canonical"), "{err}");
        // Mixed policies cannot express a wide format.
        let err = Job::new(
            Kernel::Apfloat {
                op: ApOp::Add,
                fmt,
                a: vec![one.clone()],
                b: vec![one.clone()],
                c: vec![],
            },
            PrecisionPolicy::mixed(FpFormat::SINGLE, FpFormat::DOUBLE),
            RM,
        )
        .validate()
        .unwrap_err();
        assert!(err.contains("uniform"), "{err}");
    }

    #[test]
    fn sweep_job_uses_the_shard_cache() {
        let cache = SweepCache::new();
        let tech = Tech::virtex2pro();
        let job = Job::uniform(
            Kernel::Sweep {
                kind: CoreKind::Adder,
                opts: SynthesisOptions::SPEED,
            },
            FpFormat::SINGLE,
            RM,
        );
        let r1 = job.run(&tech, &cache);
        assert_eq!(cache.misses(), 1);
        let r2 = job.run(&tech, &cache);
        assert_eq!(cache.misses(), 1, "second run must be a cache hit");
        assert_eq!(cache.hits(), 1);
        assert_eq!(r1, r2);
    }
}

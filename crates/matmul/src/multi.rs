//! Multi-array blocked matmul: tile an arbitrary `M×K · K×N` product
//! across several simulated linear arrays.
//!
//! Shen et al. (*"Towards a Multi-array Architecture for Accelerating
//! Large-scale Matrix Multiplication on FPGAs"*, PAPERS.md) partition
//! large products across multiple linear arrays with hierarchical
//! blocking; Merchant et al. show the same blocking discipline is what
//! makes the FP units pay off at scale. This module applies that to the
//! paper's Jang/Choi/Prasanna array: a [`BlockMatMul`] plan is split by
//! **output tile** — each b×b tile of `C` is produced start-to-finish by
//! exactly one array, accumulating its ⌈K/b⌉ block products in ascending
//! `k` order.
//!
//! The arithmetic runs on the precision-policy kernels' multiply-accumulate
//! kernel ([`mac_steps_bits`] in one format): for every block product,
//! each real row of the `A` tile is one call against the `B` tile,
//! accumulating into that row of the `C` tile. Zero padding only
//! costs the hardware cycles, so it is never computed; each array's
//! statistics come from the plan instead, as the sum of
//! [`BlockMatMul::stats`] over one-tile sub-plans of the tiles it owns.
//!
//! Because an output tile never migrates between arrays and its
//! accumulation order is a pure function of the plan, the result —
//! values *and* exception flags — and the statistics are bit-identical
//! to the per-cycle [`BlockMatMul::run`] reference for every array
//! count and thread count. Tiles are assigned to arrays round-robin in
//! row-major tile order (again a pure function of the plan), and the
//! per-array jobs run on [`fpfpga_fpu::parallel_map_slice`], which
//! preserves job order at any thread count.
//!
//! Operands arrive through the [`TileSource`] trait, one zero-padded
//! b×b tile at a time: each array job owns exactly two resident tile
//! buffers (one `A`, one `B`) which it reuses across the whole job, so
//! an out-of-core problem streams through at ≤ 2 tiles resident per
//! array — never materializing a full operand. [`MatrixTiles`] adapts
//! an in-memory [`Matrix`]; [`FnTiles`] generates elements on the fly.

use crate::array::ArrayStats;
use crate::block::{BlockMatMul, PlanError};
use crate::matrix::Matrix;
use fpfpga_softfp::{mac_steps_bits, Flags, FpFormat, RoundMode};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A source of zero-padded b×b operand tiles. Implementations must be
/// `Sync`: several array jobs read tiles concurrently.
pub trait TileSource: Sync {
    /// Real row count of the full operand.
    fn rows(&self) -> usize;
    /// Real column count of the full operand.
    fn cols(&self) -> usize;
    /// Element format.
    fn format(&self) -> FpFormat;
    /// Fill `dest` (a `b×b` matrix) with the tile whose top-left
    /// element is `(bi·b, bj·b)`. Slots beyond the real extent must be
    /// written as zero bits — the explicit zero padding of Section 5.
    fn read_tile(&self, bi: usize, bj: usize, b: usize, dest: &mut Matrix);
}

/// [`TileSource`] over an in-memory [`Matrix`].
pub struct MatrixTiles<'a>(pub &'a Matrix);

impl TileSource for MatrixTiles<'_> {
    fn rows(&self) -> usize {
        self.0.rows()
    }
    fn cols(&self) -> usize {
        self.0.cols()
    }
    fn format(&self) -> FpFormat {
        self.0.format()
    }
    fn read_tile(&self, bi: usize, bj: usize, b: usize, dest: &mut Matrix) {
        BlockMatMul::copy_tile(self.0, bi, bj, b, dest);
    }
}

/// [`TileSource`] that generates elements on demand from a closure —
/// the out-of-core path: the "operand" is never materialized, only the
/// requested b×b window is.
pub struct FnTiles<F> {
    /// Real row count of the virtual operand.
    pub rows: usize,
    /// Real column count of the virtual operand.
    pub cols: usize,
    /// Element format.
    pub format: FpFormat,
    /// `(i, j) -> raw bits` element generator.
    pub gen: F,
}

impl<F: Fn(usize, usize) -> u64 + Sync> TileSource for FnTiles<F> {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn format(&self) -> FpFormat {
        self.format
    }
    fn read_tile(&self, bi: usize, bj: usize, b: usize, dest: &mut Matrix) {
        for i in 0..b {
            let si = bi * b + i;
            for j in 0..b {
                let sj = bj * b + j;
                let bits = if si < self.rows && sj < self.cols {
                    (self.gen)(si, sj)
                } else {
                    0
                };
                dest.set(i, j, bits);
            }
        }
    }
}

/// Aggregate statistics of a multi-array run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiStats {
    /// Per-array run statistics, indexed by array — a pure function of
    /// the plan and array count (thread-count invariant).
    pub per_array: Vec<ArrayStats>,
    /// Sum across arrays; `total.cycles` equals the plan's
    /// [`BlockMatMul::total_cycles`] (total array-cycles of work, the
    /// quantity the energy model charges).
    pub total: ArrayStats,
    /// OR of every array's exception flags.
    pub flags: Flags,
    /// Operand tiles fetched from the [`TileSource`]s (2 per block
    /// product) — a pure function of the plan.
    pub tile_fetches: u64,
    /// High-water mark of concurrently resident operand tile buffers
    /// across all arrays. Each array job owns exactly 2, so this is
    /// ≤ `2 · arrays` at any thread count.
    pub peak_resident_tiles: usize,
}

impl MultiStats {
    /// Simulated wall-clock of the run: the busiest array's cycle
    /// count (arrays run concurrently; `total.cycles` is their sum).
    pub fn makespan_cycles(&self) -> u64 {
        self.per_array.iter().map(|s| s.cycles).max().unwrap_or(0)
    }
}

/// A blocked matmul plan fanned out over `arrays` linear arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiMatMul {
    /// The underlying (possibly ragged) tiling.
    pub plan: BlockMatMul,
    /// Number of simulated arrays the output tiles are dealt across.
    pub arrays: u32,
}

impl MultiMatMul {
    /// Plan an `M×K · K×N` product with block size `b` across `arrays`
    /// linear arrays. Accepts any positive shape; zero parameters are
    /// typed [`PlanError`]s.
    pub fn new(m: u32, k: u32, n: u32, b: u32, pl: u32, arrays: u32) -> Result<Self, PlanError> {
        if arrays == 0 {
            return Err(PlanError::ZeroArrays);
        }
        Ok(MultiMatMul {
            plan: BlockMatMul::new(m, k, n, b, pl)?,
            arrays,
        })
    }

    /// The output tiles (row-major `(ti, tj)` order) owned by array
    /// `r` — round-robin, a pure function of the plan and array count.
    pub fn tiles_of(&self, r: u32) -> Vec<(usize, usize)> {
        let tn = self.plan.tiles_n() as usize;
        (0..self.plan.output_tiles() as usize)
            .filter(|t| (t % self.arrays as usize) as u32 == r)
            .map(|t| (t / tn, t % tn))
            .collect()
    }

    /// Run against in-memory operands. Equivalent to
    /// [`MultiMatMul::run_streamed`] over [`MatrixTiles`].
    pub fn run(
        &self,
        mode: RoundMode,
        a: &Matrix,
        b: &Matrix,
        threads: usize,
    ) -> Result<(Matrix, MultiStats), PlanError> {
        self.run_streamed(mode, &MatrixTiles(a), &MatrixTiles(b), threads)
    }

    /// Run against streamed operands: each array job holds exactly two
    /// resident tile buffers (one `A`, one `B`), reused across every
    /// block product it executes, so peak resident tiles ≤ 2·arrays no
    /// matter how large the problem is.
    ///
    /// Values, flags and per-array statistics are bit-identical for
    /// every thread count (including 0 = one worker per CPU) and equal
    /// to the serial [`BlockMatMul::run`] reference.
    pub fn run_streamed<A: TileSource + ?Sized, B: TileSource + ?Sized>(
        &self,
        mode: RoundMode,
        a: &A,
        b: &B,
        threads: usize,
    ) -> Result<(Matrix, MultiStats), PlanError> {
        let plan = self.plan;
        plan.check_sources(a, b)?;
        let fmt = a.format();
        let bs = plan.b as usize;
        let tk = plan.tiles_k() as usize;

        let jobs: Vec<Vec<(usize, usize)>> = (0..self.arrays).map(|r| self.tiles_of(r)).collect();
        let resident = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let fetches = AtomicU64::new(0);

        let results = fpfpga_fpu::parallel_map_slice(threads, &jobs, |_, tiles| {
            let mut stats = ArrayStats::default();
            let mut flags = Flags::NONE;
            let mut out: Vec<(usize, usize, Matrix)> = Vec::with_capacity(tiles.len());
            if tiles.is_empty() {
                return (out, stats, flags);
            }
            // This job's only two resident operand tiles, reused for
            // every block product it executes.
            let now = resident.fetch_add(2, Ordering::SeqCst) + 2;
            peak.fetch_max(now, Ordering::SeqCst);
            let mut a_buf = Matrix::zero(fmt, bs, bs);
            let mut b_buf = Matrix::zero(fmt, bs, bs);
            for &(ti, tj) in tiles {
                let rows = plan.tile_rows(ti);
                let cols = plan.tile_cols(tj);
                let mut c_tile = vec![fmt.zero(); rows * cols];
                for bk in 0..tk {
                    let steps = plan.tile_steps(bk);
                    a.read_tile(ti, bk, bs, &mut a_buf);
                    b.read_tile(bk, tj, bs, &mut b_buf);
                    fetches.fetch_add(2, Ordering::Relaxed);
                    for (a_row, c_row) in a_buf.data().chunks(bs).zip(c_tile.chunks_mut(cols)) {
                        let a_row = &a_row[..steps];
                        flags |= mac_steps_bits(fmt, fmt, a_row, b_buf.data(), bs, c_row, 1, mode);
                    }
                }
                // A one-tile sub-plan has exactly this tile's cycles,
                // drain, MACs, idle cycles and BRAM traffic.
                let tile_plan = BlockMatMul {
                    m: rows as u32,
                    n: cols as u32,
                    ..plan
                };
                stats.merge(tile_plan.stats());
                out.push((ti, tj, Matrix::from_bits(fmt, rows, cols, c_tile)));
            }
            resident.fetch_sub(2, Ordering::SeqCst);
            (out, stats, flags)
        });

        let mut c = Matrix::zero(fmt, plan.m as usize, plan.n as usize);
        let mut multi = MultiStats {
            per_array: Vec::with_capacity(results.len()),
            total: ArrayStats::default(),
            flags: Flags::NONE,
            tile_fetches: fetches.load(Ordering::Relaxed),
            peak_resident_tiles: peak.load(Ordering::SeqCst),
        };
        for (tiles, stats, flags) in results {
            multi.per_array.push(stats);
            multi.total.merge(stats);
            multi.flags |= flags;
            for (ti, tj, tile) in tiles {
                for i in 0..tile.rows() {
                    for j in 0..tile.cols() {
                        c.set(ti * bs + i, tj * bs + j, tile.get(i, j));
                    }
                }
            }
        }
        Ok((c, multi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_matmul_flags;

    const F: FpFormat = FpFormat::SINGLE;
    const RM: RoundMode = RoundMode::NearestEven;

    fn sample(rows: usize, cols: usize, seed: f64) -> Matrix {
        Matrix::from_fn(F, rows, cols, |i, j| {
            ((i * cols + j) as f64 * 0.29 + seed).sin() * 3.0
        })
    }

    #[test]
    fn tiles_partition_round_robin() {
        let mm = MultiMatMul::new(10, 4, 7, 3, 7, 3).unwrap();
        // 4×3 output tiles = 12 tiles over 3 arrays, 4 each.
        let mut seen = vec![];
        for r in 0..3 {
            let t = mm.tiles_of(r);
            assert_eq!(t.len(), 4);
            seen.extend(t);
        }
        seen.sort_unstable();
        let all: Vec<(usize, usize)> = (0..4).flat_map(|i| (0..3).map(move |j| (i, j))).collect();
        assert_eq!(seen, all);
    }

    /// Every array and thread count reproduces the one-array serial run
    /// of the blocked plan, which matches the softfp reference and the
    /// plan's cycle and MAC model. (`tests/multi_equivalence.rs` pins the
    /// same run against the per-cycle [`BlockMatMul::run`].)
    #[test]
    fn multi_equals_serial_block_run() {
        let (m, k, n, bs) = (11u32, 6u32, 9u32, 4u32);
        let a = sample(m as usize, k as usize, 0.3);
        let b = sample(k as usize, n as usize, 1.1);
        let serial = MultiMatMul::new(m, k, n, bs, 7, 1).unwrap();
        let (c_ref, serial_stats) = serial.run(RM, &a, &b, 1).unwrap();
        let (s_ref, f_ref) = (serial_stats.total, serial_stats.flags);
        assert_eq!((c_ref.clone(), f_ref), reference_matmul_flags(&a, &b, RM));
        assert_eq!(s_ref.cycles, serial.plan.total_cycles());
        assert_eq!(s_ref.useful_macs, serial.plan.useful_macs());
        assert_eq!(s_ref.pad_macs, serial.plan.pad_macs());
        for arrays in [1u32, 2, 3, 8] {
            for threads in [1usize, 2, 4] {
                let mm = MultiMatMul::new(m, k, n, bs, 7, arrays).unwrap();
                let (c, stats) = mm.run(RM, &a, &b, threads).unwrap();
                assert_eq!(c, c_ref, "arrays={arrays} threads={threads}");
                assert_eq!(stats.flags, f_ref, "arrays={arrays} threads={threads}");
                assert_eq!(stats.total, s_ref, "arrays={arrays} threads={threads}");
            }
        }
    }

    #[test]
    fn flags_match_reference_on_specials() {
        // Overflow + invalid (inf · finite then inf − inf in the
        // accumulation) must come out identical to the serial oracle.
        let m = Matrix::from_f64(
            F,
            3,
            3,
            &[
                f32::MAX as f64,
                f64::INFINITY,
                1.0,
                -2.0,
                f32::MAX as f64,
                0.5,
                f64::NEG_INFINITY,
                3.0,
                4.0,
            ],
        );
        let (want, want_flags) = reference_matmul_flags(&m, &m, RM);
        let mm = MultiMatMul::new(3, 3, 3, 2, 7, 4).unwrap();
        let (c, stats) = mm.run(RM, &m, &m, 2).unwrap();
        assert_eq!(c, want);
        assert_eq!(stats.flags, want_flags);
        assert!(want_flags.invalid || want_flags.overflow);
    }

    #[test]
    fn more_arrays_than_tiles() {
        let a = sample(3, 3, 0.1);
        let b = sample(3, 3, 0.2);
        let mm = MultiMatMul::new(3, 3, 3, 3, 7, 8).unwrap();
        let (c, stats) = mm.run(RM, &a, &b, 2).unwrap();
        let (want, _) = reference_matmul_flags(&a, &b, RM);
        assert_eq!(c, want);
        // 1 output tile → 7 arrays idle with zero stats.
        assert_eq!(stats.per_array.len(), 8);
        assert_eq!(stats.per_array.iter().filter(|s| s.cycles > 0).count(), 1);
        assert!(stats.peak_resident_tiles <= 2);
    }

    #[test]
    fn zero_arrays_is_typed_error() {
        assert_eq!(
            MultiMatMul::new(4, 4, 4, 2, 7, 0),
            Err(PlanError::ZeroArrays)
        );
    }

    #[test]
    fn streamed_never_materializes_operands() {
        // 40×40 virtual operands, b=8, 4 arrays: resident tiles stay
        // ≤ 2·arrays while the full operands are never built by the
        // executor.
        let (m, k, n, bs, arrays) = (40usize, 40usize, 40usize, 8u32, 4u32);
        let gen_a = |i: usize, j: usize| (((i * 40 + j) as f32 * 0.01).sin().to_bits()) as u64;
        let gen_b = |i: usize, j: usize| (((i + 2 * j) as f32 * 0.02).cos().to_bits()) as u64;
        let a_src = FnTiles {
            rows: m,
            cols: k,
            format: F,
            gen: gen_a,
        };
        let b_src = FnTiles {
            rows: k,
            cols: n,
            format: F,
            gen: gen_b,
        };
        let mm = MultiMatMul::new(m as u32, k as u32, n as u32, bs, 9, arrays).unwrap();
        let (c, stats) = mm.run_streamed(RM, &a_src, &b_src, 4).unwrap();
        assert!(stats.peak_resident_tiles <= 2 * arrays as usize);
        assert_eq!(stats.tile_fetches, 2 * mm.plan.block_products());
        // Same result as materializing the operands first.
        let bits = |g: &dyn Fn(usize, usize) -> u64, rows: usize, cols: usize| {
            Matrix::from_bits(
                F,
                rows,
                cols,
                (0..rows * cols).map(|t| g(t / cols, t % cols)).collect(),
            )
        };
        let a_full = bits(&gen_a, m, k);
        let b_full = bits(&gen_b, k, n);
        let (want, _) = mm.run(RM, &a_full, &b_full, 1).unwrap();
        assert_eq!(c, want);
    }

    #[test]
    fn shape_mismatch_is_typed_error() {
        let mm = MultiMatMul::new(4, 4, 4, 2, 7, 2).unwrap();
        let a = sample(4, 5, 0.0);
        let b = sample(4, 4, 0.0);
        match mm.run(RM, &a, &b, 1) {
            Err(PlanError::Shape(_)) => {}
            other => panic!("expected shape error, got {other:?}"),
        }
    }
}

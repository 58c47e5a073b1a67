//! Block matrix multiplication (Section 5, Figure 6), generalized to
//! rectangular problems with ragged edges.
//!
//! "In \[5\], block matrix multiplication was employed for matrices with
//! large problem sizes. Block size b was used as a parameter while
//! performing design tradeoffs. In the floating-point architecture, for
//! small block sizes, zero padding has to be used to satisfy the latency
//! requirement."
//!
//! An M×K·K×N product is tiled into ⌈M/b⌉·⌈N/b⌉ output blocks; each
//! output block accumulates ⌈K/b⌉ b×b block products on a b-PE array.
//! Edge tiles whose real extent falls short of `b` are **explicitly
//! zero-padded** to the block size — exactly the paper's Section 5
//! padding discipline — and every padding slot is issued as a
//! [`Token::pad`](crate::schedule::Token) zero-operation, so it burns
//! pipeline cycles (which the energy model charges) without ever
//! touching `B`, `C` or the exception flags. The `C` block stays
//! resident in the PE block RAMs across the k-loop, so only `A` and `B`
//! blocks move — and every b×b block product pays the padded inner
//! period `max(b, PL)`.

use crate::array::{ArrayStats, LinearArray};
use crate::matrix::Matrix;
use crate::multi::{MatrixTiles, TileSource};
use crate::pe::UnitBackend;
use crate::schedule::Schedule;
use fpfpga_softfp::{Flags, FpFormat, RoundMode};

/// Why a blocked (or multi-array) matmul plan cannot be built. Typed so
/// the serving layer can refuse the request at submission
/// (`SubmitError::Invalid`) instead of a worker thread panicking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// A problem dimension (M, K or N) is zero.
    ZeroDim(&'static str),
    /// The block size is zero.
    ZeroBlock,
    /// The combined MAC latency is zero.
    ZeroLatency,
    /// The array count of a multi-array plan is zero.
    ZeroArrays,
    /// Operand shapes or formats do not match the plan.
    Shape(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::ZeroDim(which) => {
                write!(f, "matmul dimension {which} must be at least 1")
            }
            PlanError::ZeroBlock => write!(f, "block size must be at least 1"),
            PlanError::ZeroLatency => write!(f, "combined MAC latency must be at least 1"),
            PlanError::ZeroArrays => write!(f, "a multi-array plan needs at least 1 array"),
            PlanError::Shape(why) => write!(f, "operand mismatch: {why}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A blocked matmul plan for `C(M×N) = A(M×K) · B(K×N)` on a b-PE
/// array. Any positive M, K, N, b are accepted; ragged edges are
/// zero-padded tiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMatMul {
    /// Output rows M.
    pub m: u32,
    /// Inner (contraction) dimension K.
    pub k: u32,
    /// Output columns N.
    pub n: u32,
    /// Block (and array) size b.
    pub b: u32,
    /// Combined MAC latency of the chosen unit set.
    pub pl: u32,
}

impl BlockMatMul {
    /// Plan an `M×K · K×N` product with block size `b`. Every positive
    /// shape is accepted — non-square, non-divisible sizes get
    /// zero-padded edge tiles — and invalid (zero) parameters return a
    /// typed [`PlanError`] instead of panicking.
    pub fn new(m: u32, k: u32, n: u32, b: u32, pl: u32) -> Result<BlockMatMul, PlanError> {
        if m == 0 {
            return Err(PlanError::ZeroDim("M"));
        }
        if k == 0 {
            return Err(PlanError::ZeroDim("K"));
        }
        if n == 0 {
            return Err(PlanError::ZeroDim("N"));
        }
        if b == 0 {
            return Err(PlanError::ZeroBlock);
        }
        if pl == 0 {
            return Err(PlanError::ZeroLatency);
        }
        Ok(BlockMatMul { m, k, n, b, pl })
    }

    /// The classic square plan of Figure 6: `N×N` with block size `b`.
    pub fn square(n: u32, b: u32, pl: u32) -> Result<BlockMatMul, PlanError> {
        BlockMatMul::new(n, n, n, b, pl)
    }

    /// The block size the paper's cycle model favours: the plan whose
    /// `b ∈ 1..=max(M, K, N)` minimises [`BlockMatMul::total_cycles`],
    /// ties going to fewer [`BlockMatMul::pad_macs`], then to the
    /// smaller `b`. A square `N×N` problem gets `b = N` (one tile, no
    /// ragged edges). Zero parameters are the same typed errors as
    /// [`BlockMatMul::new`].
    pub fn cheapest(m: u32, k: u32, n: u32, pl: u32) -> Result<BlockMatMul, PlanError> {
        let base = BlockMatMul::new(m, k, n, 1, pl)?;
        Ok((1..=m.max(k).max(n))
            .map(|b| BlockMatMul { b, ..base })
            .min_by_key(|plan| (plan.total_cycles(), plan.pad_macs(), plan.b))
            .expect("the block range is nonempty"))
    }

    /// Tile rows ⌈M/b⌉.
    pub fn tiles_m(&self) -> u32 {
        self.m.div_ceil(self.b)
    }

    /// Inner tile count ⌈K/b⌉.
    pub fn tiles_k(&self) -> u32 {
        self.k.div_ceil(self.b)
    }

    /// Tile columns ⌈N/b⌉.
    pub fn tiles_n(&self) -> u32 {
        self.n.div_ceil(self.b)
    }

    /// Real row extent of output-tile row `ti` (the last tile row may
    /// be ragged).
    pub fn tile_rows(&self, ti: usize) -> usize {
        Self::edge(self.m, self.b, ti)
    }

    /// Real k extent of inner tile `bk`.
    pub fn tile_steps(&self, bk: usize) -> usize {
        Self::edge(self.k, self.b, bk)
    }

    /// Real column extent of output-tile column `tj`.
    pub fn tile_cols(&self, tj: usize) -> usize {
        Self::edge(self.n, self.b, tj)
    }

    fn edge(total: u32, b: u32, idx: usize) -> usize {
        let start = idx as u64 * b as u64;
        ((total as u64).saturating_sub(start)).min(b as u64) as usize
    }

    /// The per-block schedule (with padding).
    pub fn block_schedule(&self) -> Schedule {
        Schedule::new(self.b, self.pl)
    }

    /// Number of b×b block products.
    pub fn block_products(&self) -> u64 {
        self.tiles_m() as u64 * self.tiles_k() as u64 * self.tiles_n() as u64
    }

    /// Number of output tiles (each drained once).
    pub fn output_tiles(&self) -> u64 {
        self.tiles_m() as u64 * self.tiles_n() as u64
    }

    /// Analytical total cycles: every block product streams one padded
    /// A block (issue cycles) back to back — the double-buffered `B`
    /// banks let block products chain without draining — plus one drain
    /// per output tile before its `C` block is read out. An output
    /// tile's drain is `p + PL + 1` where `p` is its real column count
    /// (ragged edge-column tiles instantiate fewer PEs).
    pub fn total_cycles(&self) -> u64 {
        let per_block = self.block_schedule().issue_cycles();
        let drain_total =
            self.tiles_m() as u64 * (self.n as u64 + self.tiles_n() as u64 * (self.pl as u64 + 1));
        self.block_products() * per_block + drain_total
    }

    /// Analytical padding *issue slots* across the whole computation:
    /// schedule slots that carry a zero-operation instead of a real
    /// `A` element (latency padding plus ragged-edge padding).
    pub fn pad_cycles(&self) -> u64 {
        let issue = self.block_products() * self.block_schedule().issue_cycles();
        let real = self.tiles_n() as u64 * self.m as u64 * self.k as u64;
        issue - real
    }

    /// Useful MAC issues: exactly M·K·N scalar MACs.
    pub fn useful_macs(&self) -> u64 {
        self.m as u64 * self.k as u64 * self.n as u64
    }

    /// Padding MAC issues summed over PEs: each block product issues
    /// `b·max(b,PL)` slots into its tile's `p` real-column PEs, of
    /// which only rows·steps carry data.
    pub fn pad_macs(&self) -> u64 {
        let per_block = self.block_schedule().issue_cycles();
        self.tiles_m() as u64 * self.tiles_k() as u64 * per_block * self.n as u64
            - self.useful_macs()
    }

    /// The run statistics [`BlockMatMul::run`] simulates, from the
    /// plan alone: its cycles, useful and pad MACs; one drain per
    /// output tile, idling each of the tile's `p` real-column PEs for
    /// the `p + PL + 1` drain cycles; and per-PE BRAM traffic of three
    /// accesses per useful MAC (`B` read, `C` read, `C` write) plus one
    /// full-height `B` column load per PE per block product.
    pub fn stats(&self) -> ArrayStats {
        let (tiles_m, tiles_k) = (self.tiles_m() as u64, self.tiles_k() as u64);
        let drains: u64 = (0..self.tiles_n() as usize)
            .map(|tj| {
                let cols = self.tile_cols(tj) as u64;
                cols * (cols + self.pl as u64 + 1)
            })
            .sum();
        let useful_macs = self.useful_macs();
        ArrayStats {
            cycles: self.total_cycles(),
            useful_macs,
            pad_macs: self.pad_macs(),
            idle_cycles: tiles_m * drains,
            bram_accesses: 3 * useful_macs + tiles_m * tiles_k * self.n as u64 * self.b as u64,
        }
    }

    /// Fraction of issue slots wasted on padding.
    pub fn waste_fraction(&self) -> f64 {
        self.pad_cycles() as f64
            / (self.block_products() * self.block_schedule().issue_cycles()) as f64
    }

    /// Words crossing the array boundary: every A block streams
    /// b·period tokens, every B block loads its real columns at full
    /// height b, every C tile drains its real columns at full height b.
    pub fn io_words(&self) -> u64 {
        let a_words =
            self.block_products() * (self.b as u64 * self.block_schedule().tokens_per_step());
        let b_words = self.tiles_m() as u64 * self.tiles_k() as u64 * self.b as u64 * self.n as u64;
        let c_words = self.tiles_m() as u64 * self.b as u64 * self.n as u64;
        a_words + b_words + c_words
    }

    /// Check `a`/`b` against the plan's shapes and format.
    pub fn check_operands(&self, a: &Matrix, b: &Matrix) -> Result<(), PlanError> {
        self.check_sources(&MatrixTiles(a), &MatrixTiles(b))
    }

    /// [`BlockMatMul::check_operands`] for streamed operands.
    pub fn check_sources<A: TileSource + ?Sized, B: TileSource + ?Sized>(
        &self,
        a: &A,
        b: &B,
    ) -> Result<(), PlanError> {
        if a.rows() != self.m as usize || a.cols() != self.k as usize {
            return Err(PlanError::Shape(format!(
                "A is {}×{}, plan expects {}×{}",
                a.rows(),
                a.cols(),
                self.m,
                self.k
            )));
        }
        if b.rows() != self.k as usize || b.cols() != self.n as usize {
            return Err(PlanError::Shape(format!(
                "B is {}×{}, plan expects {}×{}",
                b.rows(),
                b.cols(),
                self.k,
                self.n
            )));
        }
        if a.format() != b.format() {
            return Err(PlanError::Shape(format!(
                "operand formats differ: {:?} vs {:?}",
                a.format(),
                b.format()
            )));
        }
        Ok(())
    }

    /// Copy the zero-padded `b×b` tile of `src` whose top-left element
    /// is `(bi·b, bj·b)` into `dest`.
    pub fn copy_tile(src: &Matrix, bi: usize, bj: usize, b: usize, dest: &mut Matrix) {
        debug_assert_eq!((dest.rows(), dest.cols()), (b, b));
        for i in 0..b {
            let si = bi * b + i;
            for j in 0..b {
                let sj = bj * b + j;
                let bits = if si < src.rows() && sj < src.cols() {
                    src.get(si, sj)
                } else {
                    0
                };
                dest.set(i, j, bits);
            }
        }
    }

    /// Execute the plan cycle-accurately, token by token — the slow
    /// validated reference [`crate::multi::MultiMatMul`] (the rank-1
    /// executor, with statistics from [`BlockMatMul::stats`]) is
    /// property-tested against.
    /// Returns the product, the aggregate run statistics and the OR of
    /// all exception flags.
    #[allow(clippy::too_many_arguments)] // mirrors LinearArray::multiply's parameter list
    pub fn run(
        &self,
        fmt: FpFormat,
        mode: RoundMode,
        mult_stages: u32,
        add_stages: u32,
        a: &Matrix,
        b: &Matrix,
        backend: UnitBackend,
    ) -> Result<(Matrix, ArrayStats, Flags), PlanError> {
        assert_eq!(
            mult_stages + add_stages,
            self.pl,
            "unit latencies must sum to PL"
        );
        self.check_operands(a, b)?;
        let bs = self.b as usize;
        let (tm, tk, tn) = (
            self.tiles_m() as usize,
            self.tiles_k() as usize,
            self.tiles_n() as usize,
        );

        let mut c = Matrix::zero(fmt, self.m as usize, self.n as usize);
        let mut stats = ArrayStats::default();
        let mut flags = Flags::NONE;
        let mut a_buf = Matrix::zero(fmt, bs, bs);
        let mut b_buf = Matrix::zero(fmt, bs, bs);

        for ti in 0..tm {
            for tj in 0..tn {
                let rows = self.tile_rows(ti);
                let cols = self.tile_cols(tj);
                let mut arr =
                    LinearArray::new(fmt, mode, mult_stages, add_stages, cols, bs, backend);
                for bk in 0..tk {
                    let steps = self.tile_steps(bk);
                    Self::copy_tile(a, ti, bk, bs, &mut a_buf);
                    Self::copy_tile(b, bk, tj, bs, &mut b_buf);
                    // Double buffering: load the bank the previous block
                    // product is not reading, then stream against it.
                    let bank = bk % 2 == 1;
                    arr.load_b_tile(bank, &b_buf, cols);
                    arr.stream_a_tile_from_bank(&a_buf, rows, steps, bank);
                }
                arr.drain();
                let c_blk = arr.read_c();
                for i in 0..rows {
                    for j in 0..cols {
                        c.set(ti * bs + i, tj * bs + j, c_blk.get(i, j));
                    }
                }
                stats.merge(arr.stats());
                flags |= arr.flags();
            }
        }
        Ok((c, stats, flags))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{reference_matmul, reference_matmul_flags};

    const F: FpFormat = FpFormat::SINGLE;
    const RM: RoundMode = RoundMode::NearestEven;

    fn sample(rows: usize, cols: usize, seed: f64) -> Matrix {
        Matrix::from_fn(F, rows, cols, |i, j| {
            ((i * cols + j) as f64 * 0.13 + seed).cos() * 2.0
        })
    }

    #[test]
    fn blocked_equals_unblocked_reference() {
        // Blocked accumulation order equals the flat order when both go
        // ascending in k, so even the bits agree.
        let n = 8;
        let a = sample(n, n, 0.5);
        let b = sample(n, n, 1.5);
        for bs in [2u32, 4, 8] {
            let plan = BlockMatMul::square(n as u32, bs, 7).unwrap();
            let (c, _, _) = plan.run(F, RM, 3, 4, &a, &b, UnitBackend::Fast).unwrap();
            let want = reference_matmul(&a, &b, RM);
            assert_eq!(c, want, "block size {bs}");
        }
    }

    #[test]
    fn ragged_and_rectangular_equal_reference() {
        for (m, k, n, bs) in [
            (10u32, 3u32, 7u32, 4u32),
            (5, 5, 5, 3),
            (1, 9, 4, 4),
            (6, 1, 1, 8),
            (9, 9, 9, 2),
        ] {
            let a = sample(m as usize, k as usize, 0.25);
            let b = sample(k as usize, n as usize, 1.75);
            let plan = BlockMatMul::new(m, k, n, bs, 7).unwrap();
            let (c, stats, flags) = plan.run(F, RM, 3, 4, &a, &b, UnitBackend::Fast).unwrap();
            let (want, want_flags) = reference_matmul_flags(&a, &b, RM);
            assert_eq!(c, want, "m={m} k={k} n={n} b={bs}");
            assert_eq!(flags, want_flags, "m={m} k={k} n={n} b={bs}");
            assert_eq!(
                stats.cycles,
                plan.total_cycles(),
                "m={m} k={k} n={n} b={bs}"
            );
            assert_eq!(stats.useful_macs, plan.useful_macs());
            assert_eq!(stats.pad_macs, plan.pad_macs());
        }
    }

    #[test]
    fn small_blocks_pad() {
        let plan = BlockMatMul::square(16, 4, 19).unwrap();
        assert!(plan.pad_cycles() > 0);
        assert!((plan.waste_fraction() - (19.0 - 4.0) / 19.0).abs() < 1e-12);
        let big = BlockMatMul::square(16, 16, 19).unwrap(); // still padded: 16 < 19
        assert!(big.waste_fraction() > 0.0);
        let ok = BlockMatMul::square(64, 32, 19).unwrap();
        assert_eq!(ok.pad_cycles(), 0);
    }

    #[test]
    fn cycle_model_matches_simulation() {
        let n = 12u32;
        for (bs, pl, ms, asl) in [(4u32, 7u32, 3u32, 4u32), (6, 9, 4, 5), (12, 7, 3, 4)] {
            let plan = BlockMatMul::square(n, bs, pl).unwrap();
            let a = sample(n as usize, n as usize, 2.0);
            let b = sample(n as usize, n as usize, 3.0);
            let (_, stats, _) = plan.run(F, RM, ms, asl, &a, &b, UnitBackend::Fast).unwrap();
            assert_eq!(stats.cycles, plan.total_cycles(), "b={bs} pl={pl}");
            assert_eq!(stats.useful_macs, plan.useful_macs(), "b={bs}");
            // every pad issue slot becomes one pad MAC in each of the b PEs
            assert_eq!(stats.pad_macs, plan.pad_macs(), "b={bs} pl={pl}");
            assert_eq!(
                plan.pad_macs(),
                plan.pad_cycles() * bs as u64,
                "divisible square plans keep the legacy pad relation"
            );
        }
    }

    #[test]
    fn rectangular_cycle_model_matches_simulation() {
        for (m, k, n, bs, ms, asl) in [
            (10u32, 6u32, 14u32, 4u32, 3u32, 4u32),
            (7, 7, 7, 3, 4, 5),
            (3, 11, 2, 5, 2, 3),
            (16, 4, 9, 8, 9, 12),
        ] {
            let plan = BlockMatMul::new(m, k, n, bs, ms + asl).unwrap();
            let a = sample(m as usize, k as usize, 4.0);
            let b = sample(k as usize, n as usize, 5.0);
            let (_, stats, _) = plan.run(F, RM, ms, asl, &a, &b, UnitBackend::Fast).unwrap();
            assert_eq!(
                stats.cycles,
                plan.total_cycles(),
                "m={m} k={k} n={n} b={bs}"
            );
            assert_eq!(stats.useful_macs, plan.useful_macs());
            assert_eq!(stats.pad_macs, plan.pad_macs());
        }
    }

    #[test]
    fn analytic_stats_equal_both_simulators() {
        use crate::multi::MultiMatMul;
        for (m, k, n) in
            (1u32..=9).flat_map(|m| (1..=9).flat_map(move |k| (1..=9).map(move |n| (m, k, n))))
        {
            let a = sample(m as usize, k as usize, 0.5);
            let b = sample(k as usize, n as usize, 1.5);
            for bs in 1..=m.max(k).max(n) {
                for (ms, asl) in [(1u32, 1u32), (5, 4), (9, 12)] {
                    let plan = BlockMatMul::new(m, k, n, bs, ms + asl).unwrap();
                    let want = plan.stats();
                    let (_, multi) = MultiMatMul { plan, arrays: 1 }.run(RM, &a, &b, 1).unwrap();
                    let (_, cycle, _) =
                        plan.run(F, RM, ms, asl, &a, &b, UnitBackend::Fast).unwrap();
                    let at = format!("m={m} k={k} n={n} b={bs} PL={ms}+{asl}");
                    assert_eq!(multi.total, want, "batched {at}");
                    assert_eq!(cycle, want, "per-cycle {at}");
                }
            }
        }
    }

    #[test]
    fn padding_grows_as_blocks_shrink() {
        // "There is large amount of wasteful energy dissipation when the
        // block size is much smaller than the latency of the
        // floating-point units."
        let pl = 19;
        let mut last = 0u64;
        for bs in [16u32, 8, 4, 2] {
            let plan = BlockMatMul::square(32, bs, pl).unwrap();
            let waste = plan.pad_cycles();
            assert!(
                waste > last,
                "waste must grow as b shrinks: b={bs} waste={waste}"
            );
            last = waste;
        }
        assert!(
            BlockMatMul::square(32, 2, pl).unwrap().waste_fraction()
                > BlockMatMul::square(32, 16, pl).unwrap().waste_fraction()
        );
    }

    #[test]
    fn nondividing_block_plans_ragged_edges() {
        // The old constructor panicked here; now it plans 4 ragged-edge
        // tiles per side with a 1-wide remainder.
        let plan = BlockMatMul::square(10, 3, 7).unwrap();
        assert_eq!(plan.tiles_m(), 4);
        assert_eq!(plan.tile_rows(3), 1);
        assert_eq!(plan.useful_macs(), 1000);
    }

    #[test]
    fn zero_parameters_are_typed_errors() {
        assert_eq!(
            BlockMatMul::new(0, 3, 3, 2, 7),
            Err(PlanError::ZeroDim("M"))
        );
        assert_eq!(
            BlockMatMul::new(3, 0, 3, 2, 7),
            Err(PlanError::ZeroDim("K"))
        );
        assert_eq!(
            BlockMatMul::new(3, 3, 0, 2, 7),
            Err(PlanError::ZeroDim("N"))
        );
        assert_eq!(BlockMatMul::new(3, 3, 3, 0, 7), Err(PlanError::ZeroBlock));
        assert_eq!(BlockMatMul::new(3, 3, 3, 2, 0), Err(PlanError::ZeroLatency));
    }

    #[test]
    fn cheapest_is_the_brute_force_argmin() {
        let shapes =
            (1u32..=24).flat_map(|m| (1..=24).flat_map(move |k| (1..=24).map(move |n| (m, k, n))));
        for ((m, k, n), pl) in shapes.flat_map(|s| [1u32, 9, 25].map(|pl| (s, pl))) {
            let top = m.max(k).max(n);
            let mut best = BlockMatMul::new(m, k, n, 1, pl).unwrap();
            for b in 2..=top {
                let cand = BlockMatMul::new(m, k, n, b, pl).unwrap();
                if (cand.total_cycles(), cand.pad_macs()) < (best.total_cycles(), best.pad_macs()) {
                    best = cand;
                }
            }
            let plan = BlockMatMul::cheapest(m, k, n, pl).unwrap();
            assert_eq!(plan, best, "m={m} k={k} n={n} pl={pl}");
            assert!(plan.b <= top);
            if m == k && k == n {
                assert_eq!(plan.b, n, "square n={n} pl={pl}");
            }
        }
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let plan = BlockMatMul::new(4, 4, 4, 2, 7).unwrap();
        let a = sample(4, 3, 0.0);
        let b = sample(4, 4, 1.0);
        match plan.run(F, RM, 3, 4, &a, &b, UnitBackend::Fast) {
            Err(PlanError::Shape(why)) => assert!(why.contains("A is 4×3"), "{why}"),
            other => panic!("expected shape error, got {other:?}"),
        }
    }
}

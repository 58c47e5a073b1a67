//! # fpfpga-softfp — parameterized, bit-exact software floating point
//!
//! This crate is the *numerical reference model* for the FPGA floating-point
//! cores described in Govindu, Zhuo, Choi and Prasanna, *"Analysis of
//! High-performance Floating-point Arithmetic on FPGAs"* (IPPS 2004).
//!
//! The paper's cores follow the IEEE 754 layout (sign, biased exponent,
//! fraction with a hidden leading one) for single (32-bit), 48-bit and
//! double (64-bit) precisions, with two deliberate deviations that this
//! crate reproduces exactly:
//!
//! * **No denormals.** Denormal inputs are flushed to zero; results that
//!   would be denormal are flushed to zero and flagged as underflow.
//! * **No NaNs.** All-ones exponent encodings denote infinity. Invalid
//!   operations (∞ − ∞, 0 × ∞) raise the `invalid` flag and return a
//!   deterministic value instead of a NaN payload.
//!
//! Only the two rounding modes the paper implemented are provided:
//! round-to-nearest(-even) and truncation (round toward zero).
//!
//! Every arithmetic routine is written as the same dataflow the hardware
//! uses (compare/swap → align → add → normalize → round for addition;
//! multiply → exponent add/bias subtract → small normalize → round for
//! multiplication) so that the cycle-accurate datapath in `fpfpga-fpu` can
//! be property-tested for bit-identical behaviour against this crate, and
//! this crate in turn is tested against native `f32`/`f64` where the
//! formats coincide. On AVX2/AVX-512 hosts the batch add, sub, mul, fma,
//! divide and square root run on the native binary64 unit instead, with
//! the same bits and flags ([`simd`]).
//!
//! ## Quick example
//!
//! ```
//! use fpfpga_softfp::{FpFormat, SoftFloat, RoundMode};
//!
//! let fmt = FpFormat::SINGLE;
//! let a = SoftFloat::from_f64(fmt, 1.5);
//! let b = SoftFloat::from_f64(fmt, 2.25);
//! let (sum, flags) = a.add(&b, RoundMode::NearestEven);
//! assert_eq!(sum.to_f64(), 3.75);
//! assert!(!flags.any());
//! ```

pub mod compare;
pub mod convert;
pub mod exceptions;
pub mod fastpath;
pub mod format;
pub mod ieee;
pub mod intconv;
pub mod limb;
pub mod ops;
pub mod policy;
pub mod round;
pub mod simd;
pub mod unpacked;
pub mod value;

pub use exceptions::Flags;
pub use fastpath::{
    add_acc_bits, add_bits_batch, add_bits_into, add_pairs_batch, div_bits_batch, div_bits_into,
    fma_bits_batch, fma_rank1_bits, mac_steps_bits, mul_bits_batch, mul_bits_into, mul_pairs_batch,
    sqrt_bits_batch, sub_bits_batch, sub_bits_into, sub_pairs_batch,
};
pub use format::{FpFormat, ParseFormatError};
pub use policy::{ParsePolicyError, PrecisionPolicy};
pub use round::RoundMode;
pub use simd::SimdEngine;
pub use unpacked::{Class, Unpacked};
pub use value::SoftFloat;

/// Add two operands given as raw encodings in `fmt`.
///
/// Convenience free-function mirror of [`SoftFloat::add`], used by callers
/// (the FPU datapath, the matmul simulator) that keep raw bit streams.
pub fn add_bits(fmt: FpFormat, a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    ops::add::add(fmt, a, b, mode)
}

/// Subtract `b` from `a` (raw encodings in `fmt`).
pub fn sub_bits(fmt: FpFormat, a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    ops::add::sub(fmt, a, b, mode)
}

/// Multiply two operands given as raw encodings in `fmt`.
pub fn mul_bits(fmt: FpFormat, a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    ops::mul::mul(fmt, a, b, mode)
}

/// Divide `a` by `b` (raw encodings in `fmt`).
pub fn div_bits(fmt: FpFormat, a: u64, b: u64, mode: RoundMode) -> (u64, Flags) {
    ops::div::div(fmt, a, b, mode)
}

/// Square root of `a` (raw encoding in `fmt`).
pub fn sqrt_bits(fmt: FpFormat, a: u64, mode: RoundMode) -> (u64, Flags) {
    ops::sqrt::sqrt(fmt, a, mode)
}

/// Fused multiply-add `a·b + c` with a single rounding (raw encodings).
pub fn fma_bits(fmt: FpFormat, a: u64, b: u64, c: u64, mode: RoundMode) -> (u64, Flags) {
    ops::fma::fma(fmt, a, b, c, mode)
}

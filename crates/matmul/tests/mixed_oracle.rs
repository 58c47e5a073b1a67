//! Bit-equivalence of the mixed-precision kernels against a per-element
//! oracle built only from the generic softfp operations: `mixed_matmul`
//! and `mixed_mvm`, values *and* flags, over covering and non-covering
//! policies, both rounding modes, operands with ±0, ±∞, flushed
//! subnormal encodings and overflowing/underflowing magnitudes, and
//! shapes down to 0 rows, a zero inner dimension and single columns.

use fpfpga_matmul::matrix::Matrix;
use fpfpga_matmul::{mixed_matmul, mixed_mvm};
use fpfpga_softfp::convert::convert;
use fpfpga_softfp::{add_bits, Flags, FpFormat, PrecisionPolicy, RoundMode, SoftFloat};
use proptest::prelude::*;

const F32: FpFormat = FpFormat::SINGLE;
const F48: FpFormat = FpFormat::FP48;
const F64: FpFormat = FpFormat::DOUBLE;

/// Covering mixes (f32/f48 storage with f64 accumulate, a storage format
/// wider than compute), non-covering accumulate formats (narrower
/// exponent, or narrower exponent and fraction), and a uniform policy.
const POLICIES: [PrecisionPolicy; 6] = [
    PrecisionPolicy::mixed(F32, F64),
    PrecisionPolicy::mixed(F48, F64),
    PrecisionPolicy::new(F32, F64, F48),
    PrecisionPolicy::new(F64, FpFormat::new(8, 40), F64),
    PrecisionPolicy::new(F32, FpFormat::new(6, 40), F32),
    PrecisionPolicy::uniform(F48),
];

/// The mixed matmul as a per-element triple loop: every `B` element is
/// converted for each `(i, j, k)`, the product is the generic
/// `SoftFloat::mul`, the widening a `convert`, the sum the generic add.
fn oracle_matmul(
    policy: PrecisionPolicy,
    mode: RoundMode,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, Flags) {
    let (n, m, p) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zero(policy.storage, n, p);
    let mut flags = Flags::NONE;
    for i in 0..n {
        for k in 0..m {
            flags |= convert(policy.storage, a.get(i, k), policy.compute, mode).1;
        }
        for j in 0..p {
            let mut acc = policy.accumulate.zero();
            for k in 0..m {
                let (ax, _) = convert(policy.storage, a.get(i, k), policy.compute, mode);
                let (bx, bf) = convert(policy.storage, b.get(k, j), policy.compute, mode);
                flags |= bf;
                let (prod, pf) = SoftFloat::from_bits(policy.compute, ax)
                    .mul(&SoftFloat::from_bits(policy.compute, bx), mode);
                flags |= pf;
                let (wide, wf) = convert(policy.compute, prod.bits(), policy.accumulate, mode);
                flags |= wf;
                let (s, sf) = add_bits(policy.accumulate, acc, wide, mode);
                flags |= sf;
                acc = s;
            }
            let (bits, nf) = convert(policy.accumulate, acc, policy.storage, mode);
            flags |= nf;
            c.set(i, j, bits);
        }
    }
    (c, flags)
}

/// One mixed dot product in the hardware dot unit's banked order (`la`
/// round-robin partial sums, then a pairwise fold), on the generic ops.
fn oracle_dot(
    policy: PrecisionPolicy,
    mode: RoundMode,
    x: &[u64],
    y: &[u64],
    la: usize,
) -> (u64, Flags) {
    let mut flags = Flags::NONE;
    let mut bank = vec![policy.accumulate.zero(); la];
    let mut to_compute = |v: u64| {
        let (c, f) = convert(policy.storage, v, policy.compute, mode);
        flags |= f;
        c
    };
    let xc: Vec<u64> = x.iter().map(|&v| to_compute(v)).collect();
    let yc: Vec<u64> = y.iter().map(|&v| to_compute(v)).collect();
    for (i, (&xv, &yv)) in xc.iter().zip(&yc).enumerate() {
        let (prod, pf) = SoftFloat::from_bits(policy.compute, xv)
            .mul(&SoftFloat::from_bits(policy.compute, yv), mode);
        let (wide, wf) = convert(policy.compute, prod.bits(), policy.accumulate, mode);
        let (s, sf) = add_bits(policy.accumulate, bank[i % la], wide, mode);
        flags |= pf | wf | sf;
        bank[i % la] = s;
    }
    while bank.len() > 1 {
        let mut next = Vec::new();
        for pair in bank.chunks(2) {
            if let [l, r] = *pair {
                let (s, sf) = add_bits(policy.accumulate, l, r, mode);
                flags |= sf;
                next.push(s);
            } else {
                next.push(pair[0]);
            }
        }
        bank = next;
    }
    let (bits, nf) = convert(policy.accumulate, bank[0], policy.storage, mode);
    (bits, flags | nf)
}

/// A storage-format entry: with `special_pct`% probability a ±0, ±∞
/// (with or without payload), flushed subnormal pattern, or an extreme
/// magnitude that overflows or underflows in products; otherwise a
/// normal within a few binades of 1.
fn entry(fmt: FpFormat, raw: u64, special_pct: u64) -> u64 {
    let (sign, _, frac) = fmt.unpack_fields(raw);
    let bias = fmt.bias() as u64;
    if (raw >> 56) % 100 < special_pct {
        match (raw >> 48) % 6 {
            0 => fmt.pack(sign, 0, 0),
            1 => fmt.pack(sign, fmt.inf_biased_exp(), 0),
            2 => fmt.pack(sign, fmt.inf_biased_exp(), frac | 1),
            3 => fmt.pack(sign, 0, frac | 1),
            4 => fmt.pack(sign, fmt.max_biased_exp() - (raw >> 40) % 3, frac),
            _ => fmt.pack(sign, 1 + (raw >> 40) % 3, frac),
        }
    } else {
        fmt.pack(sign, bias - 4 + (raw >> 40) % 9, frac)
    }
}

fn matrix(fmt: FpFormat, rows: usize, cols: usize, seed: u64, special_pct: u64) -> Matrix {
    let mut s = seed | 1;
    let data = (0..rows * cols)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            entry(fmt, s, special_pct)
        })
        .collect();
    Matrix::from_bits(fmt, rows, cols, data)
}

fn any_mode() -> impl Strategy<Value = RoundMode> {
    prop_oneof![Just(RoundMode::NearestEven), Just(RoundMode::Truncate)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `mixed_matmul` equals the triple-loop oracle, values and flags.
    #[test]
    fn mixed_matmul_matches_oracle(
        n in 0usize..7,
        m in 0usize..7,
        p in 1usize..12,
        policy_ix in 0usize..POLICIES.len(),
        mode in any_mode(),
        special_pct in prop_oneof![Just(0u64), Just(30u64), Just(100u64)],
        seed in any::<u64>(),
    ) {
        let policy = POLICIES[policy_ix];
        let a = matrix(policy.storage, n, m, seed, special_pct);
        let b = matrix(policy.storage, m, p, seed ^ 0x5eed, special_pct);
        let want = oracle_matmul(policy, mode, &a, &b);
        prop_assert_eq!(mixed_matmul(policy, mode, &a, &b), want, "serial {:?}", policy);
    }

    /// `mixed_mvm` equals one banked oracle dot per row, values and flags.
    #[test]
    fn mixed_mvm_matches_oracle(
        n in 0usize..7,
        m in 0usize..20,
        la in 1u32..10,
        policy_ix in 0usize..POLICIES.len(),
        mode in any_mode(),
        special_pct in prop_oneof![Just(0u64), Just(30u64), Just(100u64)],
        seed in any::<u64>(),
    ) {
        let policy = POLICIES[policy_ix];
        let a = matrix(policy.storage, n, m, seed, special_pct);
        let x = matrix(policy.storage, 1, m, seed ^ 0xfeed, special_pct).data().to_vec();
        let (y, flags, _) = mixed_mvm(policy, mode, &a, &x, 5, la, 2);
        let mut want_flags = Flags::NONE;
        let want: Vec<u64> = (0..n)
            .map(|i| {
                let row: Vec<u64> = (0..m).map(|k| a.get(i, k)).collect();
                let (bits, f) = oracle_dot(policy, mode, &row, &x, la as usize);
                want_flags |= f;
                bits
            })
            .collect();
        prop_assert_eq!(y, want, "{:?}", policy);
        prop_assert_eq!(flags, want_flags, "{:?}", policy);
    }
}

/// The edge shapes by name: no rows (`B`'s conversion flags must not
/// count), a zero inner dimension, and single-column `B`.
#[test]
fn edge_shapes_match_oracle() {
    for policy in POLICIES {
        for (n, m, p) in [
            (0, 3, 4),
            (0, 0, 2),
            (3, 0, 2),
            (1, 1, 1),
            (4, 5, 1),
            (1, 9, 1),
        ] {
            for special_pct in [0, 100] {
                let a = matrix(policy.storage, n, m, 11, special_pct);
                let b = matrix(policy.storage, m, p, 23, special_pct);
                let want = oracle_matmul(policy, RoundMode::NearestEven, &a, &b);
                let got = mixed_matmul(policy, RoundMode::NearestEven, &a, &b);
                assert_eq!(got, want, "{policy:?} {n}x{m}x{p} {special_pct}%");
            }
        }
    }
}

//! LU jobs whose pivot is or becomes zero complete on the pool with the
//! divider's IEEE results (±∞ with `div_by_zero`), equal to both LU
//! engines, instead of panicking a worker. At n = 10 the vanishing pivot
//! divides a full chunk of 8 column entries, so the batch divide's
//! special-operand select runs on the wide engines.

use fpfpga_matmul::{LuEngine, Matrix};
use fpfpga_serve::{Job, JobOutcome, JobResult, JobSpec, Kernel, ServeConfig, ServePool};
use fpfpga_softfp::{FpFormat, RoundMode};

#[test]
fn singular_lu_completes_on_the_pool() {
    let rm = RoundMode::NearestEven;
    for fmt in FpFormat::PAPER_PRECISIONS {
        let pool = ServePool::new(ServeConfig::with_workers(2));
        let eng = LuEngine::new(fmt, rm, 8, 6, 2);
        // The last pivot vanishes; a mid pivot vanishes over a 1 (1/0);
        // the second of ten vanishes over eight nonzero entries.
        let x_over_0 = [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 2.0, 3.0];
        let wide = wide_x_over_0();
        for (n, entries) in [(2, &[1.0; 4][..]), (3, &x_over_0[..]), (10, &wide[..])] {
            let a = Matrix::from_f64(fmt, n, n, entries);
            let kernel = Kernel::Lu {
                div_stages: 8,
                mac_stages: 6,
                p: 2,
                a: a.clone(),
            };
            let handle = pool.submit(JobSpec::new(Job::uniform(kernel, fmt, rm)));
            let (want, batched) = (eng.factor(&a), eng.factor_batched(&a));
            assert_eq!((&batched.lu, batched.flags), (&want.lu, want.flags));
            match handle.expect("accepted").wait() {
                JobOutcome::Completed(JobResult::Lu { lu, flags, .. }) => {
                    assert_eq!((lu, flags), (want.lu, want.flags));
                    assert_eq!(flags.div_by_zero, n > 2);
                }
                other => panic!("singular LU must complete, got {other:?}"),
            }
        }
        let metrics = pool.join();
        assert_eq!((metrics.completed, metrics.failed), (3, 0));
    }
}

/// A 10 × 10 matrix whose second pivot is 0 after the first step, over
/// the nonzero column 1, 2, …, 8 in rows 2–9.
fn wide_x_over_0() -> Vec<f64> {
    let n = 10;
    (0..n * n)
        .map(|t| match (t / n, t % n) {
            (0, _) | (_, 0) | (1, 1) => 1.0,
            (1, _) => 2.0,
            (i, 1) => i as f64,
            (i, j) if i == j => 20.0,
            (i, j) => 1.0 / (i + j) as f64,
        })
        .collect()
}

//! Order statistics over recorded samples.
//!
//! Every latency is recorded, in a log-linear histogram whose buckets
//! are at most 1/128 of their value wide, so a percentile is within
//! 0.4% of the exact nearest-rank value (exact below 256 ns) — not a
//! power-of-two bucket bound — while memory stays constant however long
//! a run is. Medians and quartiles summarize samples taken across a run
//! or across runs.

/// Median of a sample (mean of the middle two for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, so spreads computed
/// here match the ones an external checker computes from the same runs.
/// A single sample is its own quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let m = ld + 1;
            Some(std::array::from_fn(|i| {
                let i = i + 1;
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            }))
        }
    }
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread a bound is judged against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    Some((q3 - q1) / q2.abs())
}

/// Sub-buckets per octave: a bucket spans at most 1/128 of its value.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values at or above 2^40 ns (about 18 minutes) share the last bucket.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = (MAX_BITS - SUB_BITS) as usize * SUB + 2 * SUB;

/// Nanosecond samples in log-linear buckets.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    let v = v.min((1 << MAX_BITS) - 1);
    if v < 2 * SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    shift as usize * SUB + (v >> shift) as usize
}

/// The middle of bucket `i`.
fn midpoint(i: usize) -> f64 {
    if i < 2 * SUB {
        return i as f64;
    }
    let shift = i / SUB - 1;
    let low = ((i - shift * SUB) as u64) << shift;
    low as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile in ns: the bucket holding the smallest
    /// sample with at least `p`% of the samples at or below it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        // The epsilon keeps decimal percentiles such as 99.9, which
        // binary floating point stores a hair high, from rounding up a
        // whole rank.
        let rank = ((p / 100.0) * self.total as f64 - 1e-9).ceil().max(1.0) as u64;
        let mut seen = 0;
        self.counts.iter().enumerate().find_map(|(i, &c)| {
            seen += c;
            (seen >= rank).then(|| midpoint(i))
        })
    }
}

/// Latency percentiles in microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub samples: u64,
}

impl LatencySummary {
    /// `None` when nothing was recorded.
    pub fn of(h: &Histogram) -> Option<LatencySummary> {
        let us = |p: f64| h.percentile(p).map(|ns| ns / 1e3);
        Some(LatencySummary {
            p50_us: us(50.0)?,
            p90_us: us(90.0)?,
            p99_us: us(99.0)?,
            p999_us: us(99.9)?,
            samples: h.count(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(got: f64, want: f64) -> bool {
        (got - want).abs() <= want * 0.004
    }

    #[test]
    fn percentiles_of_one_to_a_thousand_microseconds() {
        let mut h = Histogram::default();
        for us in (1..=1000u64).rev() {
            h.record(us * 1000);
        }
        let s = LatencySummary::of(&h).expect("non-empty");
        assert!(close(s.p50_us, 500.0), "{}", s.p50_us);
        assert!(close(s.p90_us, 900.0), "{}", s.p90_us);
        assert!(close(s.p99_us, 990.0), "{}", s.p99_us);
        assert!(close(s.p999_us, 999.0), "{}", s.p999_us);
        assert_eq!(s.samples, 1000);
    }

    #[test]
    fn small_values_are_exact_and_buckets_stay_narrow() {
        let mut h = Histogram::default();
        for ns in 1..=100 {
            h.record(ns);
        }
        assert_eq!(h.percentile(50.0), Some(50.0));
        assert_eq!(h.percentile(100.0), Some(100.0));
        assert_eq!(h.percentile(0.0), Some(1.0));
        assert_eq!(Histogram::default().percentile(50.0), None);
        // Every value lands in a bucket whose middle is within 0.4%.
        for v in [255u64, 256, 1000, 123_456, 9_999_999, 1 << 39] {
            let m = midpoint(bucket(v));
            assert!((m - v as f64).abs() <= v as f64 / 256.0, "{v} -> {m}");
        }
        let mut other = Histogram::default();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.count(), 101);
        assert!(h.percentile(100.0).expect("max") > 1e12);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(relative_iqr(&v), Some((8.25 - 2.75) / 5.5));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}

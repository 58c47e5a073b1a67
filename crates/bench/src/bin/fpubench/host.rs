//! Host facts recorded with every result: core count, CPU features, the
//! SIMD engine the kernels dispatched to, CPU steal, and peak memory.

use fpfpga::softfp::simd;
use serde_json::{json, Value};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The x86 feature bits the softfp engines select on.
pub fn cpu_features() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        vec![
            ("avx2", has!("avx2")),
            ("avx512f", has!("avx512f")),
            ("avx512cd", has!("avx512cd")),
            ("avx512vl", has!("avx512vl")),
            ("avx512dq", has!("avx512dq")),
            ("avx512bw", has!("avx512bw")),
            ("bmi2", has!("bmi2")),
            ("lzcnt", has!("lzcnt")),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// The engine the default-dispatch batch kernels resolve to.
pub fn engine() -> String {
    format!("{:?}", simd::active_engine())
}

/// The facts as one JSON object.
pub fn facts() -> Value {
    let features = cpu_features()
        .into_iter()
        .map(|(name, on)| (name.to_string(), Value::Bool(on)))
        .collect();
    json!({
        "arch": std::env::consts::ARCH,
        "nproc": nproc(),
        "engine": engine(),
        "features": Value::Object(features),
    })
}

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Zeroes where `/proc/stat` is unavailable.
    pub fn read() -> CpuTimes {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(CpuTimes::parse))
            .unwrap_or_default()
    }

    /// Parse `cpu  user nice system idle iowait irq softirq steal ...`.
    fn parse(line: &str) -> CpuTimes {
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTimes {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of CPU time the hypervisor stole between `self` and
    /// `later`; 0 when nothing was counted.
    pub fn steal_frac_until(self, later: CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// kernel reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_between_two_readings() {
        let a = CpuTimes::parse("cpu  100 0 50 800 10 0 0 40 0 0");
        let b = CpuTimes::parse("cpu  200 0 100 1600 20 0 0 80 0 0");
        assert_eq!(a.total, 1000);
        assert_eq!(a.steal, 40);
        assert!((a.steal_frac_until(b) - 0.04).abs() < 1e-12);
        assert_eq!(a.steal_frac_until(a), 0.0);
    }
}

//! Memoized synthesis sweeps.
//!
//! Every design-space query in this crate and in `fpfpga-matmul` —
//! [`CoreSweep::new`] and [`PrecisionAnalysis`] (Figure 2, Tables 1-2),
//! the unit generator, `UnitSet` selection, the architecture explorer —
//! calls the same pure function directly: *sweep (op, format) across
//! pipeline depths under a (tech, options) flow*, 10–170 µs per call.
//! [`SweepCache`] memoizes exactly that function behind a cheap
//! cloneable handle for the one place where design points are drawn per
//! request at run time: the serving pool, whose `Kernel::Sweep` jobs and
//! policy auto-tuner read their opt points from a per-shard cache. A
//! warm lookup returns the stored `Arc` without copying the reports.
//!
//! The cache is std-only: a `Mutex<HashMap>` of per-key `OnceLock`s.
//! Concurrent lookups of *different* keys synthesize in parallel;
//! concurrent lookups of the *same* key block on one computation
//! (exactly-once, so a warm cache never re-synthesizes). Hit/miss
//! counters make redundancy observable in tests and benches.
//!
//! By default a cache is unbounded (the paper's design space is a
//! handful of keys). Under sustained serving traffic with per-request
//! formats the key population is open-ended, so
//! [`SweepCache::with_capacity`] bounds the cache: when a miss would
//! grow it past the capacity, the least-recently-used entry is evicted
//! and the [`SweepCache::evictions`] counter increments. An evicted key
//! that comes back simply re-synthesizes (counted as a fresh miss).
//!
//! [`CoreSweep::new`]: crate::analysis::CoreSweep::new
//! [`PrecisionAnalysis`]: crate::analysis::PrecisionAnalysis

use crate::generator::{sweep_for, UnitOp};
use fpfpga_fabric::report::ImplementationReport;
use fpfpga_fabric::synthesis::SynthesisOptions;
use fpfpga_fabric::tech::Tech;
use fpfpga_softfp::FpFormat;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One memoized sweep point: (op, format, tech fingerprint, options).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct SweepKey {
    op: UnitOp,
    format: FpFormat,
    tech_bits: u64,
    opts: SynthesisOptions,
}

/// `Tech` carries calibrated `f64`s (and derives neither `Eq` nor
/// `Hash`), so it is hashed by bit pattern.
/// Two `Tech` values collide only if every field is bit-identical — in
/// which case every sweep result is identical too.
fn tech_fingerprint(tech: &Tech) -> u64 {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for x in [
        tech.t_lut_route_ns,
        tech.t_carry_per_bit_ns,
        tech.t_cmp_per_bit_ns,
        tech.t_mux_level_ns,
        tech.t_prienc_level_ns,
        tech.t_mult18_ns,
        tech.t_mult18_half_ns,
        tech.t_bram_ns,
        tech.t_ff_ns,
        tech.f_max_mhz,
        tech.free_ff_utilization,
        tech.skew_lut_per_bit,
        tech.speed_obj_area_factor,
        tech.speed_obj_delay_factor,
        tech.area_obj_delay_factor,
        tech.speed_par_slice_factor,
        tech.speed_par_delay_factor,
    ] {
        h.write(&x.to_bits().to_le_bytes());
    }
    h.finish()
}

type SweepCell = Arc<OnceLock<Arc<Vec<ImplementationReport>>>>;

/// A resident entry: the memo cell plus its last-touch stamp (a logical
/// clock, bumped on every lookup) for LRU ordering.
struct CacheEntry {
    cell: SweepCell,
    stamp: u64,
}

#[derive(Default)]
struct CacheMap {
    map: HashMap<SweepKey, CacheEntry>,
    tick: u64,
}

#[derive(Default)]
struct Inner {
    state: Mutex<CacheMap>,
    /// `None` = unbounded (the default).
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A shared, thread-safe memo of synthesis sweeps. Clones share state.
#[derive(Clone, Default)]
pub struct SweepCache {
    inner: Arc<Inner>,
}

impl SweepCache {
    /// An empty, unbounded cache.
    pub fn new() -> SweepCache {
        SweepCache::default()
    }

    /// An empty cache holding at most `capacity` sweeps; beyond that,
    /// the least-recently-used entry is evicted on insert.
    ///
    /// # Panics
    /// If `capacity` is zero (a cache that can hold nothing cannot
    /// honour the exactly-once contract of a single lookup).
    pub fn with_capacity(capacity: usize) -> SweepCache {
        assert!(capacity >= 1, "SweepCache capacity must be at least 1");
        SweepCache {
            inner: Arc::new(Inner {
                capacity: Some(capacity),
                ..Inner::default()
            }),
        }
    }

    /// The configured bound, or `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.inner.capacity
    }

    /// The memoized form of [`generator::sweep_for`]: returns the full
    /// depth sweep for `(op, format)` under `(tech, opts)`, synthesizing
    /// at most once per distinct key over the cache's lifetime.
    ///
    /// [`generator::sweep_for`]: crate::generator::sweep_for
    pub fn sweep(
        &self,
        op: UnitOp,
        format: FpFormat,
        tech: &Tech,
        opts: SynthesisOptions,
    ) -> Arc<Vec<ImplementationReport>> {
        let key = SweepKey {
            op,
            format,
            tech_bits: tech_fingerprint(tech),
            opts,
        };
        let (cell, first) = {
            let mut state = self.inner.state.lock().expect("sweep cache poisoned");
            state.tick += 1;
            let tick = state.tick;
            match state.map.get_mut(&key) {
                Some(entry) => {
                    entry.stamp = tick;
                    (entry.cell.clone(), false)
                }
                None => {
                    let cell: SweepCell = Arc::new(OnceLock::new());
                    state.map.insert(
                        key,
                        CacheEntry {
                            cell: cell.clone(),
                            stamp: tick,
                        },
                    );
                    if let Some(cap) = self.inner.capacity {
                        // The just-inserted entry holds the newest stamp,
                        // so the LRU victim is never the new key.
                        while state.map.len() > cap {
                            let victim = state
                                .map
                                .iter()
                                .min_by_key(|(_, e)| e.stamp)
                                .map(|(&k, _)| k)
                                .expect("non-empty over-capacity map");
                            state.map.remove(&victim);
                            self.inner.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    (cell, true)
                }
            }
        };
        if first {
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
        }
        // The map lock is released; concurrent distinct keys synthesize
        // in parallel, concurrent identical keys block on this cell.
        cell.get_or_init(|| Arc::new(sweep_for(op, format, tech, opts)))
            .clone()
    }

    /// Lookups that found an already-requested key.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Lookups that triggered a synthesis sweep.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by the LRU bound (always 0 when unbounded).
    pub fn evictions(&self) -> u64 {
        self.inner.evictions.load(Ordering::Relaxed)
    }

    /// Number of distinct sweeps held.
    pub fn len(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("sweep cache poisoned")
            .map
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> (Tech, SynthesisOptions) {
        (Tech::virtex2pro(), SynthesisOptions::SPEED)
    }

    #[test]
    fn warm_lookups_do_not_resynthesize() {
        let (tech, opts) = flow();
        let cache = SweepCache::new();
        let a = cache.sweep(UnitOp::Add, FpFormat::SINGLE, &tech, opts);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let b = cache.sweep(UnitOp::Add, FpFormat::SINGLE, &tech, opts);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(
            Arc::ptr_eq(&a, &b),
            "warm lookup must return the memoized sweep"
        );
        assert_eq!(*a, sweep_for(UnitOp::Add, FpFormat::SINGLE, &tech, opts));
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let (tech, opts) = flow();
        let cache = SweepCache::new();
        cache.sweep(UnitOp::Add, FpFormat::SINGLE, &tech, opts);
        cache.sweep(UnitOp::Mul, FpFormat::SINGLE, &tech, opts);
        cache.sweep(UnitOp::Add, FpFormat::DOUBLE, &tech, opts);
        cache.sweep(UnitOp::Add, FpFormat::SINGLE, &tech, SynthesisOptions::AREA);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.misses(), 4);
    }

    #[test]
    fn tech_fingerprint_tracks_field_changes() {
        let tech = Tech::virtex2pro();
        let mut other = tech.clone();
        other.t_ff_ns += 0.001;
        assert_ne!(tech_fingerprint(&tech), tech_fingerprint(&other));
        assert_eq!(tech_fingerprint(&tech), tech_fingerprint(&tech.clone()));
    }

    #[test]
    fn concurrent_same_key_synthesizes_once() {
        let (tech, opts) = flow();
        let cache = SweepCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = cache.clone();
                let tech = &tech;
                scope.spawn(move || cache.sweep(UnitOp::Mul, FpFormat::FP48, tech, opts));
            }
        });
        assert_eq!(
            cache.misses(),
            1,
            "one thread computes, the rest block on the cell"
        );
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let (tech, opts) = flow();
        let cache = SweepCache::new();
        assert_eq!(cache.capacity(), None);
        for op in [UnitOp::Add, UnitOp::Mul, UnitOp::Div, UnitOp::Sqrt] {
            for fmt in FpFormat::PAPER_PRECISIONS {
                cache.sweep(op, fmt, &tech, opts);
            }
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 12);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let (tech, opts) = flow();
        let cache = SweepCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        cache.sweep(UnitOp::Add, FpFormat::SINGLE, &tech, opts);
        cache.sweep(UnitOp::Mul, FpFormat::SINGLE, &tech, opts);
        // Touch Add so Mul becomes the LRU victim.
        cache.sweep(UnitOp::Add, FpFormat::SINGLE, &tech, opts);
        cache.sweep(UnitOp::Div, FpFormat::SINGLE, &tech, opts);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // Add survived (hit); Mul was evicted (fresh miss re-computes).
        let misses = cache.misses();
        cache.sweep(UnitOp::Add, FpFormat::SINGLE, &tech, opts);
        assert_eq!(cache.misses(), misses, "LRU-protected key must hit");
        cache.sweep(UnitOp::Mul, FpFormat::SINGLE, &tech, opts);
        assert_eq!(cache.misses(), misses + 1, "evicted key must re-miss");
    }

    #[test]
    fn eviction_preserves_in_flight_results() {
        // A holder of an evicted sweep keeps its Arc alive and correct.
        let (tech, opts) = flow();
        let cache = SweepCache::with_capacity(1);
        let kept = cache.sweep(UnitOp::Add, FpFormat::SINGLE, &tech, opts);
        cache.sweep(UnitOp::Mul, FpFormat::SINGLE, &tech, opts);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(*kept, sweep_for(UnitOp::Add, FpFormat::SINGLE, &tech, opts));
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = SweepCache::with_capacity(0);
    }

    #[test]
    fn clones_share_state() {
        let (tech, opts) = flow();
        let cache = SweepCache::new();
        let clone = cache.clone();
        cache.sweep(UnitOp::Sqrt, FpFormat::SINGLE, &tech, opts);
        clone.sweep(UnitOp::Sqrt, FpFormat::SINGLE, &tech, opts);
        assert_eq!((clone.hits(), clone.misses()), (1, 1));
    }
}

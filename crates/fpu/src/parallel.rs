//! Deterministic data-parallel fan-out over scoped threads.
//!
//! The multi-array matmul and the conformance sweeps are
//! embarrassingly parallel over independent work items, but this
//! repository vendors no threadpool crate — and does not need one:
//! [`std::thread::scope`] borrows the work list directly, and joining
//! the workers in spawn order keeps the output ordering (and therefore
//! every downstream byte) identical regardless of the worker count.

use std::num::NonZeroUsize;

/// Split `len` items into at most `parts` contiguous ranges of
/// near-equal size (the first `len % parts` ranges get one extra item).
/// Returns fewer ranges when there are fewer items than parts; never
/// returns an empty range.
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1).min(len);
    if parts == 0 {
        return Vec::new();
    }
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Number of worker threads to use for `requested` (0 = one per
/// available CPU).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Map `f` over `items` with up to `threads` scoped workers, returning
/// results **in item order** — bit-identical output for every thread
/// count, including 1 (which runs inline without spawning).
///
/// Each worker owns one contiguous chunk, so `f` sees items in the same
/// order a sequential loop would within its chunk, and chunk results are
/// reassembled in chunk order.
pub fn parallel_map_slice<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = resolve_threads(threads);
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let ranges = chunk_ranges(items.len(), threads);
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let r = r.clone();
                let f = &f;
                scope.spawn(move || {
                    items[r.clone()]
                        .iter()
                        .enumerate()
                        .map(|(i, t)| f(r.start + i, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("parallel_map_slice worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 7, 16, 100, 1001] {
            for parts in [1usize, 2, 3, 4, 8, 200] {
                let ranges = chunk_ranges(len, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "len={len} parts={parts}");
                    assert!(!r.is_empty(), "len={len} parts={parts}");
                    next = r.end;
                }
                assert_eq!(next, len, "len={len} parts={parts}");
                assert!(ranges.len() <= parts.min(len.max(1)));
            }
        }
    }

    #[test]
    fn map_order_is_thread_count_invariant() {
        let items: Vec<u64> = (0..257).collect();
        let sequential = parallel_map_slice(1, &items, |i, &x| (i as u64) * 1000 + x * x);
        for threads in [2, 3, 4, 7, 64] {
            let parallel = parallel_map_slice(threads, &items, |i, &x| (i as u64) * 1000 + x * x);
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_degenerate_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_slice(4, &empty, |_, &x| x).is_empty());
        assert_eq!(
            parallel_map_slice(4, &[42u32], |i, &x| x + i as u32),
            vec![42]
        );
        // 0 = auto (one per CPU); still ordered.
        let items: Vec<u32> = (0..100).collect();
        assert_eq!(parallel_map_slice(0, &items, |_, &x| x), items);
    }
}

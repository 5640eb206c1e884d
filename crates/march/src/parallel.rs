//! Deterministic fork-join parallelism for fault sweeps.
//!
//! The build environment cannot fetch `rayon`, so the parallel coverage
//! and degree-of-freedom sweeps use the workspace's [`sched`] worker pool
//! through these order-preserving wrappers. They keep the property that
//! makes `rayon`'s ordered collects safe to use in experiments: **the
//! output order is the input order**, regardless of how the work was
//! scheduled, so parallel sweeps produce byte-identical reports to serial
//! ones.
//!
//! Every fan-out below reaches the pool as [`sched::WorkKind::FaultSweep`]
//! work items; each pool worker owns a [`WorkerScratch`] for its whole
//! lifetime, which [`par_chunk_flat_map_balanced_scratch`] exposes to the
//! chunk closure so the lane-batched hot path can reuse its dispatch
//! buffers across chunks instead of reallocating per cohort.

use std::num::NonZeroUsize;
use std::thread;

use sched::WorkKind;
pub use sched::WorkerScratch;

/// Number of worker threads a sweep may use: the machine's available
/// parallelism, or `1` when it cannot be queried.
pub fn max_threads() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps contiguous chunks of `items` across the worker pool and
/// concatenates the per-chunk outputs **in input order**.
///
/// `map_chunk` is called once per chunk and must return one output per
/// input item, in order; the chunking is how workers amortise per-thread
/// setup (e.g. one scratch memory per worker instead of one per fault).
/// The items are split into one contiguous chunk per worker — fault
/// simulations in the standard list have near-uniform cost, so static
/// partitioning is within a few percent of stealing here. With one item,
/// one worker, or an empty input the call degenerates to
/// `map_chunk(items)` on the current thread.
///
/// # Panics
///
/// Panics if a worker panics (the first worker's payload is propagated)
/// or if `map_chunk` returns a different number of outputs than inputs
/// for some chunk.
pub fn par_chunk_map<T, R, F>(items: &[T], threads: usize, map_chunk: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    let results = sched::map_chunks(WorkKind::FaultSweep, items, workers, workers, |chunk, _| {
        map_chunk(chunk)
    });
    assert_eq!(results.len(), items.len(), "map_chunk must be 1:1");
    results
}

/// Chunk oversubscription factor of [`par_chunk_flat_map_balanced_scratch`]:
/// the item list is split into up to this many chunks per worker, so
/// workers that draw cheap chunks claim (steal) more instead of idling.
const CHUNKS_PER_WORKER: usize = 8;

/// Maps chunks of `items` across the worker pool with dynamic load
/// balancing and concatenates the per-chunk outputs — any number per
/// chunk — **in input order**. The items are split into more chunks than
/// workers and the pool's shared cursor hands chunks to whichever worker
/// frees up first; per-chunk outputs are written into indexed write-once
/// slots and concatenated in chunk order at the end.
///
/// This is the fan-out primitive of the lane-batched sweep, whose work
/// items have very uneven costs (64-lane cohorts that early-exit at
/// different depths, interleaved with serial singletons): a static
/// one-chunk-per-worker split can leave most workers idle behind one
/// expensive chunk. The closure also gets the claiming worker's
/// [`WorkerScratch`], where the sweep keeps its dispatch buffers (lane
/// memory backing stores, merged schedules, lowered cohorts) so
/// consecutive chunks on one worker reuse the allocations.
///
/// # Panics
///
/// Panics if a worker panics (the first worker's payload is propagated).
pub fn par_chunk_flat_map_balanced_scratch<T, R, F>(
    items: &[T],
    threads: usize,
    map_chunk: F,
) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(&[T], &mut WorkerScratch) -> Vec<R> + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    let chunk_count = (workers * CHUNKS_PER_WORKER).min(items.len().max(1));
    sched::map_chunks(WorkKind::FaultSweep, items, workers, chunk_count, map_chunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_thread_count() {
        let items: Vec<u32> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3).collect();
        for threads in [1, 2, 3, 8, 64, 1000] {
            let out = par_chunk_map(&items, threads, |chunk| {
                chunk.iter().map(|&x| u64::from(x) * 3).collect()
            });
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = par_chunk_map(&[] as &[u8], 8, |chunk| chunk.to_vec());
        assert!(out.is_empty());
    }

    #[test]
    fn max_threads_is_at_least_one() {
        assert!(max_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "1:1")]
    fn lossy_map_chunk_is_rejected() {
        let _ = par_chunk_map(&[1, 2, 3], 1, |_| Vec::<u32>::new());
    }

    #[test]
    fn balanced_flat_map_preserves_input_order_under_any_thread_count() {
        // Items of wildly different cost (cohort-like expansion) must
        // still concatenate in input order regardless of which worker
        // claimed which chunk.
        let items: Vec<u32> = (0..517).map(|i| i % 97).collect();
        let expected: Vec<u32> = items
            .iter()
            .flat_map(|&x| std::iter::repeat_n(x, (x % 3) as usize))
            .collect();
        for threads in [1, 2, 3, 8, 64, 1000] {
            let out = par_chunk_flat_map_balanced_scratch(&items, threads, |chunk, _| {
                chunk
                    .iter()
                    .flat_map(|&x| std::iter::repeat_n(x, (x % 3) as usize))
                    .collect()
            });
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn balanced_flat_map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u8> =
            par_chunk_flat_map_balanced_scratch(&[] as &[u8], 8, |chunk, _| chunk.to_vec());
        assert!(empty.is_empty());
        let one = par_chunk_flat_map_balanced_scratch(&[7u8], 8, |chunk, _| chunk.to_vec());
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn flat_map_concatenates_variable_length_outputs_in_input_order() {
        // Each item expands to `item` copies of itself, like a cohort
        // expanding to one outcome per member fault.
        let items: Vec<u32> = vec![3, 0, 1, 4, 2];
        let expected: Vec<u32> = items
            .iter()
            .flat_map(|&x| std::iter::repeat_n(x, x as usize))
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = par_chunk_flat_map_balanced_scratch(&items, threads, |chunk, _| {
                chunk
                    .iter()
                    .flat_map(|&x| std::iter::repeat_n(x, x as usize))
                    .collect()
            });
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn scratch_variant_reuses_worker_state_across_chunks() {
        // With one worker every chunk lands on the same scratch, so an
        // allocation made by the first chunk is visible to all of them.
        let items: Vec<u32> = (0..64).collect();
        let out = par_chunk_flat_map_balanced_scratch(&items, 1, |chunk, scratch| {
            let buffer: &mut Vec<u32> = scratch.get_or_insert_with(Vec::new);
            buffer.extend_from_slice(chunk);
            vec![buffer.len() as u32]
        });
        // One worker degenerates to a single whole-slice chunk.
        assert_eq!(out, vec![64]);
    }
}

//! The worker pool: shared-cursor claiming over one set of workers.
//!
//! The pool is a *pull* design. Callers hand [`run_pool`] a producer
//! closure; each worker repeatedly polls it for the next [`WorkItem`] and
//! executes whatever it gets with its own long-lived
//! [`WorkerScratch`](crate::WorkerScratch). That one loop serves every
//! fan-out shape in the workspace:
//!
//! * **batch fan-outs** (fault sweeps, Table 1 power sessions) expose an
//!   atomic cursor over a precomputed chunk list — whichever worker frees
//!   up first claims (steals) the next chunk, so uneven chunks balance
//!   themselves; [`map_chunks`] packages this shape, including the
//!   order-preserving write-once output slots;
//! * **open-ended producers** (the campaign runner's retry queue) return
//!   [`Poll::Pending`] while items are in flight elsewhere and may keep
//!   producing items that earlier items re-enqueued.
//!
//! Workers never coordinate beyond the producer closure, and results
//! travel through what the items captured, so the pool stays free of
//! result types, `unsafe`, and locks of its own.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::Duration;

use crate::item::{WorkItem, WorkKind};
use crate::scratch::WorkerScratch;

/// What a producer hands a polling worker.
#[derive(Debug)]
pub enum Poll<'a> {
    /// Run this item now.
    Item(WorkItem<'a>),
    /// Nothing to run *yet* — items in flight on other workers may still
    /// produce more. The worker backs off briefly and polls again.
    Pending,
    /// The producer is exhausted; the polling worker exits.
    Done,
}

/// How long an idle worker sleeps between [`Poll::Pending`] polls.
const IDLE_BACKOFF: Duration = Duration::from_millis(1);

fn drain<'a>(worker: usize, next: &(impl Fn(usize) -> Poll<'a> + Sync)) {
    let mut scratch = WorkerScratch::new();
    loop {
        match next(worker) {
            Poll::Item(item) => item.execute(&mut scratch),
            Poll::Pending => thread::sleep(IDLE_BACKOFF),
            Poll::Done => break,
        }
    }
}

/// Runs up to `threads` workers over a producer until every worker sees
/// [`Poll::Done`].
///
/// Each worker owns one [`WorkerScratch`](crate::WorkerScratch) for the
/// whole run and passes it to every item it executes. `next` is called
/// with the polling worker's index (`0..workers`); it must be safe to
/// call concurrently from all workers — an atomic cursor or an internal
/// lock is the producer's business.
///
/// With one thread no worker threads are spawned: the current thread
/// drains the producer directly, so single-threaded runs stay
/// deterministic and stack traces stay flat.
///
/// # Panics
///
/// If a worker panics, the pool waits for every worker to exit and then
/// resumes unwinding with the lowest-indexed panicking worker's original
/// payload, so the caller sees the same panic message a single-threaded
/// run would raise. Producers that must survive item panics catch them
/// inside the item's closure, as the campaign runner does.
pub fn run_pool<'a, F>(threads: usize, next: F)
where
    F: Fn(usize) -> Poll<'a> + Sync,
{
    let workers = threads.max(1);
    if workers == 1 {
        drain(0, &next);
        return;
    }
    // Joining every handle explicitly keeps the scope from replacing the
    // payload with its own "a scoped thread panicked".
    let panic = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let next = &next;
                scope.spawn(move || drain(worker, next))
            })
            .collect();
        let mut first = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                first.get_or_insert(payload);
            }
        }
        first
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
}

/// Fans contiguous chunks of `items` across the pool and concatenates the
/// per-chunk outputs **in input order**.
///
/// The items are split into up to `chunk_count` contiguous chunks; an
/// atomic cursor hands chunks to whichever worker frees up first, and
/// each chunk's output is published into its own write-once slot
/// ([`OnceLock`]), so the concatenation order is the chunk order whatever
/// the claiming order was. Passing more chunks than workers is the
/// load-balancing lever: workers that draw cheap chunks claim more.
///
/// With one item, one worker, or an empty input the call degenerates to
/// `map_chunk(items, scratch)` on the current thread with a fresh
/// scratch.
///
/// # Examples
///
/// ```
/// use sched::{map_chunks, WorkKind};
///
/// let items: Vec<u32> = (0..100).collect();
/// let doubled = map_chunks(WorkKind::FaultSweep, &items, 4, 16, |chunk, _scratch| {
///     chunk.iter().map(|&x| u64::from(x) * 2).collect()
/// });
/// assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
/// ```
///
/// # Panics
///
/// Panics if a worker panics, with the first worker's original payload
/// (see [`run_pool`]).
pub fn map_chunks<T, R, F>(
    kind: WorkKind,
    items: &[T],
    threads: usize,
    chunk_count: usize,
    map_chunk: F,
) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(&[T], &mut WorkerScratch) -> Vec<R> + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    if workers <= 1 {
        return map_chunk(items, &mut WorkerScratch::new());
    }
    let chunk_count = chunk_count.clamp(1, items.len());
    let chunk_size = items.len().div_ceil(chunk_count);
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Vec<R>>> = chunks.iter().map(|_| OnceLock::new()).collect();
    let map_chunk = &map_chunk;
    let slots_ref = &slots;
    run_pool(workers, |_| {
        let claim = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&chunk) = chunks.get(claim) else {
            return Poll::Done;
        };
        Poll::Item(WorkItem::new(kind, move |scratch| {
            let out = map_chunk(chunk, scratch);
            slots_ref[claim]
                .set(out)
                .unwrap_or_else(|_| unreachable!("chunk claimed twice"));
        }))
    });
    let mut results = Vec::with_capacity(items.len());
    for slot in slots {
        results.extend(slot.into_inner().expect("claimed chunks publish results"));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn map_chunks_preserves_input_order_for_any_worker_count() {
        let items: Vec<u32> = (0..517).collect();
        let expected: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3).collect();
        for threads in [1, 2, 3, 8, 64, 1000] {
            let out = map_chunks(
                WorkKind::FaultSweep,
                &items,
                threads,
                threads * 8,
                |c, _| c.iter().map(|&x| u64::from(x) * 3).collect(),
            );
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_chunks_handles_empty_and_tiny_inputs() {
        let empty: Vec<u8> =
            map_chunks(WorkKind::FaultSweep, &[] as &[u8], 8, 64, |c, _| c.to_vec());
        assert!(empty.is_empty());
        let one = map_chunks(WorkKind::FaultSweep, &[7u8], 8, 64, |c, _| c.to_vec());
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn map_chunks_concatenates_variable_length_outputs_in_input_order() {
        let items: Vec<u32> = (0..211).map(|i| i % 13).collect();
        let expected: Vec<u32> = items
            .iter()
            .flat_map(|&x| std::iter::repeat_n(x, (x % 3) as usize))
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = map_chunks(
                WorkKind::FaultSweep,
                &items,
                threads,
                threads * 8,
                |c, _| {
                    c.iter()
                        .flat_map(|&x| std::iter::repeat_n(x, (x % 3) as usize))
                        .collect()
                },
            );
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn scratch_survives_across_items_on_one_worker() {
        // Single worker: every chunk sees the same scratch, so a counter
        // stored in it observes every dispatch.
        let items: Vec<u32> = (0..40).collect();
        let out = map_chunks(WorkKind::FaultSweep, &items, 1, 8, |chunk, scratch| {
            let seen = scratch.get_or_insert_with(|| 0u32);
            *seen += chunk.len() as u32;
            vec![*seen]
        });
        // One worker degenerates to a single whole-slice chunk.
        assert_eq!(out, vec![40]);
    }

    #[test]
    fn pending_producers_can_reenqueue_from_running_items() {
        // A queue whose first item enqueues a second one while other
        // workers are already polling: Pending must keep them alive until
        // the re-enqueued item lands — the campaign retry shape.
        let queue = Mutex::new(vec![0u32]);
        let in_flight = AtomicUsize::new(0);
        let ran = Mutex::new(Vec::new());
        let (queue_ref, in_flight_ref, ran_ref) = (&queue, &in_flight, &ran);
        run_pool(3, |_| {
            let item = {
                let mut queue = queue.lock().unwrap();
                let item = queue.pop();
                if item.is_some() {
                    in_flight.fetch_add(1, Ordering::SeqCst);
                }
                item
            };
            match item {
                Some(job) => Poll::Item(WorkItem::campaign_job(move |_| {
                    if job < 3 {
                        queue_ref.lock().unwrap().push(job + 1);
                    }
                    ran_ref.lock().unwrap().push(job);
                    in_flight_ref.fetch_sub(1, Ordering::SeqCst);
                })),
                None if in_flight.load(Ordering::SeqCst) > 0 => Poll::Pending,
                None => Poll::Done,
            }
        });
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        for threads in [2, 3, 8] {
            let items: Vec<u32> = (0..64).collect();
            let caught = std::panic::catch_unwind(|| {
                map_chunks(WorkKind::FaultSweep, &items, threads, 16, |chunk, _| {
                    if chunk.contains(&37) {
                        panic!("item 37 exploded");
                    }
                    chunk.to_vec()
                })
            })
            .expect_err("the panic must reach the caller");
            assert_eq!(
                caught.downcast_ref::<&str>(),
                Some(&"item 37 exploded"),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn single_threaded_pool_runs_on_the_current_thread() {
        let caller = thread::current().id();
        let produced = AtomicUsize::new(0);
        run_pool(1, |_| {
            if produced.fetch_add(1, Ordering::Relaxed) == 0 {
                Poll::Item(WorkItem::fault_sweep(move |_| {
                    assert_eq!(thread::current().id(), caller);
                }))
            } else {
                Poll::Done
            }
        });
    }
}

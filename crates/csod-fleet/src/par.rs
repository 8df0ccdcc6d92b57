//! The chunked work-stealing driver.
//!
//! Every simulated execution in this workspace is self-contained — one
//! machine, one heap, one runtime — so a batch of scenarios (or a batch
//! of per-process WALs) is embarrassingly parallel as long as each job
//! builds its own world. Workers pull input indices from a shared
//! atomic counter (so slow jobs don't stall a pre-partitioned stripe)
//! and run each one to completion on its own OS thread. Results come
//! back in input order, and per-job determinism is untouched: a job's
//! outcome depends only on its own input, never on scheduling.
//!
//! It sits below `workloads` in the crate stack so the fleet ingest
//! pipeline can fan out over the same driver without a dependency
//! cycle. `workloads` re-exports [`run_parallel`] and
//! [`run_parallel_chunked`]; the ingest pipeline calls
//! [`run_parallel_batches`] directly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Runs `job` over every input, fanned across at most `threads` OS
/// threads, and returns the outputs in input order.
///
/// Workers claim inputs through a shared counter, so an uneven mix of
/// cheap and expensive jobs still keeps every thread busy. A panicking
/// job propagates the panic to the caller.
pub fn run_parallel<I, O, F>(inputs: &[I], threads: usize, job: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    run_parallel_chunked(inputs, threads, 1, job)
}

/// [`run_parallel`] with a work-stealing granularity knob: workers claim
/// `chunk` consecutive inputs per shared-counter increment instead of
/// one.
///
/// Chunking trades steal overhead against balance: for many cheap jobs
/// a larger chunk amortises the atomic (and the cache-line ping-pong
/// behind it) over several jobs; for few expensive jobs `chunk = 1`
/// keeps the tail balanced. When only one worker would run, the pool is
/// skipped entirely and the inputs execute inline on the caller's
/// thread — no spawn, no atomics.
pub fn run_parallel_chunked<I, O, F>(inputs: &[I], threads: usize, chunk: usize, job: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let batches = run_parallel_batches(inputs, threads, chunk, |_, slice| {
        slice.iter().map(&job).collect::<Vec<O>>()
    });
    batches.into_iter().flatten().collect()
}

/// The batch-granular driver underneath [`run_parallel_chunked`]:
/// workers claim `chunk` consecutive inputs per steal and hand the
/// whole claimed slice (plus its starting index) to `job` in one call.
///
/// This is the shape the fleet ingest pipeline needs — per-batch work
/// like a group-commit checkpoint sync must run once per *claim*, not
/// once per input — and the plain per-item drivers are expressed over
/// it. Batch outputs come back ordered by their starting index, so
/// flattening them preserves input order.
pub fn run_parallel_batches<I, O, F>(inputs: &[I], threads: usize, chunk: usize, job: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &[I]) -> O + Sync,
{
    if inputs.is_empty() {
        return Vec::new();
    }
    let chunk = chunk.max(1);
    let workers = threads.clamp(1, inputs.len().div_ceil(chunk));
    if workers <= 1 {
        return inputs
            .chunks(chunk)
            .enumerate()
            .map(|(i, slice)| job(i * chunk, slice))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, O)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= inputs.len() {
                            break;
                        }
                        let end = start.saturating_add(chunk).min(inputs.len());
                        out.push((start, job(start, &inputs[start..end])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel job panicked"))
            .collect()
    });
    collected.sort_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, o)| o).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let squares = run_parallel(&inputs, 8, |&n| n * n);
        assert_eq!(squares.len(), 100);
        for (i, sq) in squares.iter().enumerate() {
            assert_eq!(*sq, (i as u64) * (i as u64));
        }
        assert_eq!(run_parallel(&inputs[..3], 64, |&n| n + 1), vec![1, 2, 3]);
        assert_eq!(run_parallel(&inputs[..3], 1, |&n| n + 1), vec![1, 2, 3]);
        assert!(run_parallel::<u64, u64, _>(&[], 4, |&n| n).is_empty());
    }

    #[test]
    fn chunked_claims_preserve_order_and_coverage() {
        let inputs: Vec<u64> = (0..97).collect(); // deliberately not a chunk multiple
        for chunk in [1, 2, 3, 7, 16, 97, 1000] {
            let doubled = run_parallel_chunked(&inputs, 4, chunk, |&n| n * 2);
            assert_eq!(doubled.len(), inputs.len(), "chunk {chunk}");
            for (i, d) in doubled.iter().enumerate() {
                assert_eq!(*d, 2 * i as u64, "chunk {chunk}, index {i}");
            }
        }
        // chunk = 0 is treated as 1, not a spin loop.
        assert_eq!(
            run_parallel_chunked(&inputs[..3], 2, 0, |&n| n),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn batch_claims_cover_every_input_exactly_once() {
        let inputs: Vec<u64> = (0..97).collect();
        for threads in [1, 4] {
            for chunk in [1, 5, 32, 97, 200] {
                let batches = run_parallel_batches(&inputs, threads, chunk, |start, slice| {
                    (start, slice.to_vec())
                });
                let mut seen = Vec::new();
                for (start, slice) in batches {
                    assert_eq!(seen.len(), start, "batches arrive in input order");
                    seen.extend(slice);
                }
                assert_eq!(seen, inputs, "threads {threads}, chunk {chunk}");
            }
        }
    }
}

//! Property tests for the lock-free trace ring (ISSUE 5 satellite):
//! concurrent writers never lose more events than ring capacity
//! accounts for, and drained streams are time-ordered.

use csod_trace::{TraceEventKind, Tracer};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Checks the merged stream is sorted by timestamp, and that each
/// thread's events appear in emission order (we encode the per-thread
/// emission index in payload word `a`).
fn assert_time_ordered(stream: &csod_trace::TraceStream) {
    let mut last_at = 0u64;
    let mut last_seq_per_thread = std::collections::HashMap::new();
    for e in &stream.events {
        assert!(e.at_ns >= last_at, "merged stream out of time order");
        last_at = e.at_ns;
        let last = last_seq_per_thread.entry(e.thread).or_insert(0u64);
        assert!(
            e.a >= *last,
            "thread {} events out of emission order: {} after {}",
            e.thread,
            e.a,
            *last
        );
        *last = e.a;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Quiescent accounting: after writers finish, one drain sees every
    /// event either delivered or counted dropped, and a ring never
    /// drops more than the events beyond its capacity.
    #[test]
    fn drained_plus_dropped_equals_emitted(
        capacity in 2usize..128,
        per_writer in proptest::collection::vec(1u64..600, 1..5),
    ) {
        let tracer = Tracer::new(capacity);
        let cap = tracer.capacity() as u64;
        let mut handles: Vec<_> = (0..per_writer.len() as u32)
            .map(|t| tracer.register(t))
            .collect();
        let mut emitted = 0u64;
        let mut over_capacity = 0u64;
        for (h, &n) in handles.iter_mut().zip(&per_writer) {
            for i in 0..n {
                h.emit(i, TraceEventKind::AllocSampled, i, 0);
            }
            emitted += n;
            over_capacity += n.saturating_sub(cap);
        }
        let stream = tracer.drain();
        prop_assert_eq!(stream.events.len() as u64 + stream.dropped, emitted);
        // Never lose more than what the ring capacity accounts for.
        prop_assert_eq!(stream.dropped, over_capacity);
        assert_time_ordered(&stream);
        // A second drain after quiescence has nothing left.
        let again = tracer.drain();
        prop_assert_eq!(again.events.len(), 0);
        prop_assert_eq!(again.dropped, 0);
    }

    /// Concurrent writers on real threads racing a drain loop: nothing
    /// is double-counted or invented — the final tally of delivered
    /// plus dropped events equals exactly what was emitted, and every
    /// drained batch is time-ordered with per-thread order intact.
    #[test]
    fn concurrent_writers_account_for_every_event(
        capacity in 4usize..64,
        writers in 1usize..4,
        events_per_writer in 50u64..400,
    ) {
        let tracer = Arc::new(Tracer::new(capacity));
        let done = Arc::new(AtomicBool::new(false));
        let threads: Vec<_> = (0..writers as u32)
            .map(|t| {
                let mut handle = tracer.register(t);
                std::thread::spawn(move || {
                    for i in 0..events_per_writer {
                        // Per-thread timestamps are monotone, as the
                        // virtual clock guarantees in the real runtime.
                        handle.emit(i, TraceEventKind::WatchInstalled, i, u64::from(t));
                    }
                })
            })
            .collect();

        let drainer = {
            let tracer = Arc::clone(&tracer);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut delivered = 0u64;
                let mut dropped = 0u64;
                while !done.load(Ordering::Acquire) {
                    let stream = tracer.drain();
                    assert_time_ordered(&stream);
                    delivered += stream.events.len() as u64;
                    dropped += stream.dropped;
                }
                (delivered, dropped)
            })
        };

        for t in threads {
            t.join().unwrap();
        }
        done.store(true, Ordering::Release);
        let (mut delivered, mut dropped) = drainer.join().unwrap();
        // Final quiescent drain picks up whatever the loop missed.
        let last = tracer.drain();
        assert_time_ordered(&last);
        delivered += last.events.len() as u64;
        dropped += last.dropped;
        prop_assert_eq!(delivered + dropped, events_per_writer * writers as u64);
    }
}

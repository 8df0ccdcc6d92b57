//! Concurrency stress tests on the data structures shared across
//! threads: the frame interner and the per-thread generator (Section
//! III-A1). The context table (Section III-B1) is owned by the
//! runtime's sampler and reached through `&mut`, so it only has to be
//! movable and shareable.

use csod::ctx::{CallingContext, ContextTable, FrameTable};
use csod::rng::{with_thread_rng, Arc4Random};
use std::collections::HashSet;
use std::sync::Mutex;

#[test]
fn frame_interner_is_consistent_across_threads() {
    let frames = FrameTable::new();
    let results: Mutex<Vec<Vec<u32>>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let frames = &frames;
            let results = &results;
            scope.spawn(move || {
                let ids: Vec<u32> = (0..200)
                    .map(|i| frames.intern(&format!("file{}.c:{i}", i % 50)).as_u32())
                    .collect();
                results.lock().unwrap().push(ids);
            });
        }
    });
    let results = results.lock().unwrap();
    for other in results.iter().skip(1) {
        assert_eq!(other, &results[0], "all threads agree on every id");
    }
    assert_eq!(frames.len(), 200);
}

#[test]
fn per_thread_generators_are_independent_streams() {
    let prefixes: Mutex<HashSet<Vec<u32>>> = Mutex::new(HashSet::new());
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let prefixes = &prefixes;
            scope.spawn(move || {
                let p: Vec<u32> = (0..8).map(|_| with_thread_rng(|r| r.next_u32())).collect();
                prefixes.lock().unwrap().insert(p);
            });
        }
    });
    assert_eq!(
        prefixes.lock().unwrap().len(),
        8,
        "no two threads share a stream"
    );
}

#[test]
fn explicit_generators_are_send() {
    // Sampling decisions can move across worker threads in test
    // harnesses; the generator itself must be freely movable.
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut rng = Arc4Random::from_seed(42, t);
                (0..1000).map(|_| u64::from(rng.next_u32())).sum::<u64>()
            })
        })
        .collect();
    let sums: HashSet<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(sums.len(), 4, "distinct streams give distinct sums");
}

#[test]
fn calling_contexts_are_shareable() {
    // CallingContext values flow between the sampler, the reporter and
    // the WAL; they must be Send + Sync.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CallingContext>();
    assert_send_sync::<ContextTable<u64>>();
    assert_send_sync::<FrameTable>();
}

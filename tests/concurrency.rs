//! Concurrency tests: the frame interner is the one structure shared
//! across threads. Generators (Section III-A1) and the context table
//! (Section III-B1) are owned, one generator per runtime thread slot and
//! one table in the runtime's sampler, so they only have to be movable
//! and shareable.

use csod::ctx::{CallingContext, ContextTable, FrameTable};
use csod::rng::Arc4Random;
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

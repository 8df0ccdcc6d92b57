//! Concurrency stress tests on the shared data structures that the
//! paper designs for multithreaded programs: the bucket-locked context
//! table (Section III-B1), the frame interner, and the per-thread
//! generator (Section III-A1).

use csod::ctx::{CallingContext, ContextKey, ContextTable, FrameTable};
use csod::rng::{with_thread_rng, Arc4Random};
use std::collections::HashSet;
use std::sync::Mutex;

#[test]
fn context_table_survives_heavy_contention() {
    let frames = FrameTable::new();
    let table: ContextTable<u64> = ContextTable::with_buckets(8);
    let keys: Vec<ContextKey> = (0..64)
        .map(|i| ContextKey::new(frames.intern(&format!("hot{i}.c:1")), 0x40))
        .collect();
    let threads = 8;
    let iters = 2_000;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let keys = &keys;
            let table = &table;
            scope.spawn(move || {
                for i in 0..iters {
                    let key = keys[(t * 7 + i) % keys.len()];
                    table.with_entry(key, || 0, |v| *v += 1);
                }
            });
        }
    });
    let mut total = 0;
    table.for_each(|_, v| total += *v);
    assert_eq!(total, (threads * iters) as u64);
    assert_eq!(table.len(), keys.len());
}

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
fn sampling_unit_is_safe_under_concurrent_allocations() {
    // The paper's allocator interposition runs on every application
    // thread concurrently; the sampling unit's bucket-locked table must
    // keep exact counts under contention.
    use csod::core::{ContextJudgment, SamplingParams, SamplingUnit};
    use csod::machine::VirtInstant;
    use csod::rng::Arc4Random;

    let frames = FrameTable::new();
    let unit = SamplingUnit::new(SamplingParams::default());
    let keys: Vec<ContextKey> = (0..16)
        .map(|i| ContextKey::new(frames.intern(&format!("mt{i}.c:1")), 0x40))
        .collect();
    let per_thread = 500u64;
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let unit = &unit;
            let keys = &keys;
            let frames = &frames;
            scope.spawn(move || {
                let mut rng = Arc4Random::from_seed(99, t);
                for i in 0..per_thread {
                    let key = keys[((t + i) % keys.len() as u64) as usize];
                    let decision = unit.on_allocation(
                        key,
                        VirtInstant::BOOT,
                        &mut rng,
                        &CallingContext::from_locations(frames, ["mt.c:1", "main.c:1"]),
                        |_| ContextJudgment::clear(),
                    );
                    if decision.wants_watch {
                        unit.on_watched(key);
                    }
                }
            });
        }
    });
    assert_eq!(unit.distinct_contexts(), keys.len());
    assert_eq!(unit.total_allocations(), 8 * per_thread);
    for key in keys {
        let p = unit.probability_ppm(key).unwrap();
        assert!((10..=1_000_000).contains(&p));
    }
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

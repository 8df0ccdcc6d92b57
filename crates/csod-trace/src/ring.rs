//! The lock-free per-thread event rings and their merge-drain.
//!
//! Each registered thread owns one bounded ring and is its only writer:
//! a push is one claim store, four relaxed data stores and one release
//! commit store — no locks, no CAS loops, no allocation, no per-slot
//! sequence word. The two counters make concurrent drains safe: `head`
//! counts *claimed* positions (bumped before the data is written),
//! `tail` counts *committed* ones (bumped after). A reader scans up to
//! `tail`, then re-reads `head`; any scanned position the writer could
//! have been overwriting meanwhile (`pos + capacity <= head`) is
//! discarded as torn rather than surfaced. A writer that laps the ring
//! overwrites the oldest events; the drain accounts for every
//! overwritten or discarded event in [`TraceStream::dropped`], so
//! `drained + dropped == emitted` always holds per ring.
//!
//! Tracing is switched off at run time by not emitting (the runtime's
//! `TraceParams::events`); a tracer nobody registers with allocates no
//! rings.

use crate::event::{TraceEvent, TraceEventKind};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Ring capacity used when the embedder does not specify one: room for
/// the last thousand events per thread at ~32 KiB per ring — small
/// enough that cycling through the ring stays inside L1/L2 and the
/// emit path does not evict the allocator's working set.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// A drained, time-ordered view over every per-thread ring.
#[derive(Debug, Clone, Default)]
pub struct TraceStream {
    /// The surviving events, sorted by timestamp (stable: events of one
    /// thread keep their emission order on timestamp ties).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wrap-around or torn mid-overwrite slots since
    /// the previous drain.
    pub dropped: u64,
}

impl TraceStream {
    /// Number of drained events of `kind`.
    pub fn count_of(&self, kind: TraceEventKind) -> u64 {
        self.events.iter().filter(|e| e.kind == kind).count() as u64
    }

    /// Per-kind event counts in tag order, omitting kinds never seen.
    pub fn counts(&self) -> Vec<(TraceEventKind, u64)> {
        let mut counts = [0u64; TraceEventKind::ALL.len()];
        for e in &self.events {
            counts[e.kind as usize] += 1;
        }
        TraceEventKind::ALL
            .into_iter()
            .zip(counts)
            .filter(|&(_, n)| n > 0)
            .collect()
    }
}

/// One ring slot: the four encoded event words, all-atomic so
/// readers and the writer race without UB. 32-byte aligned — two
/// slots per cache line, never straddling one.
#[derive(Debug, Default)]
#[repr(align(32))]
struct Slot {
    w: [AtomicU64; 4],
}

#[derive(Debug)]
struct Ring {
    /// Positions ever *claimed* by the writer: bumped before the
    /// data stores, so `head` bounds what may be mid-overwrite.
    head: AtomicU64,
    /// Positions *committed*: bumped after the data stores, so
    /// everything below `tail` was fully written at some point.
    tail: AtomicU64,
    /// Position the last drain consumed up to.
    reader: AtomicU64,
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let capacity = capacity.max(2).next_power_of_two();
        let slots = (0..capacity).map(|_| Slot::default()).collect();
        Ring {
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            reader: AtomicU64::new(0),
            mask: capacity - 1,
            slots,
        }
    }

    /// Drains everything still readable into `out`; returns the
    /// number of events lost since the previous drain. Runs
    /// concurrently with the writer: after reading, `head` is
    /// re-checked and every position the writer may have been
    /// overwriting meanwhile counts as lost rather than surfacing
    /// torn.
    fn drain_into(&self, out: &mut Vec<TraceEvent>) -> u64 {
        let tail = self.tail.load(Ordering::Acquire);
        let prev = self.reader.load(Ordering::Relaxed);
        let cap = self.mask as u64 + 1;
        let start = prev.max(tail.saturating_sub(cap));
        let mut lost = start - prev;
        let mut batch: Vec<(u64, Option<TraceEvent>)> =
            Vec::with_capacity(usize::try_from(tail - start).unwrap_or(0));
        for pos in start..tail {
            let slot = &self.slots[usize::try_from(pos).unwrap_or(usize::MAX) & self.mask];
            let words = [
                slot.w[0].load(Ordering::Relaxed),
                slot.w[1].load(Ordering::Relaxed),
                slot.w[2].load(Ordering::Relaxed),
                slot.w[3].load(Ordering::Relaxed),
            ];
            batch.push((pos, TraceEvent::decode(words)));
        }
        // The writer claims `head` *before* its data stores: slot
        // `pos` can only have been mid-rewrite if position
        // `pos + cap` was already claimed (`head > pos + cap`), so
        // such positions may be torn and are discarded. The fence
        // orders the data loads above before this re-check.
        fence(Ordering::Acquire);
        let head_now = self.head.load(Ordering::Relaxed);
        for (pos, event) in batch {
            match event {
                Some(e) if pos + cap >= head_now => out.push(e),
                _ => lost += 1,
            }
        }
        self.reader.store(tail, Ordering::Relaxed);
        lost
    }
}

/// The tracer: hands out per-thread writer handles and merges their
/// rings into one stream on [`Tracer::drain`].
#[derive(Debug)]
pub struct Tracer {
    capacity: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
}

impl Tracer {
    /// Creates a tracer whose rings keep the last `capacity` events
    /// per thread (rounded up to a power of two).
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            capacity: capacity.max(2).next_power_of_two(),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// A tracer with [`DEFAULT_RING_CAPACITY`].
    pub fn with_default_capacity() -> Tracer {
        Tracer::new(DEFAULT_RING_CAPACITY)
    }

    /// Per-ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Registers a new writer for `thread` and returns its handle.
    /// The handle is the ring's *only* writer — it is not `Clone`,
    /// and `emit` takes `&mut self` — which is what makes the push
    /// path safe without compare-and-swap.
    pub fn register(&self, thread: u32) -> ThreadTracer {
        let ring = Arc::new(Ring::new(self.capacity));
        self.rings
            .lock()
            .expect("tracer registry poisoned")
            .push(Arc::clone(&ring));
        ThreadTracer { ring, thread }
    }

    /// Merges every ring's unread events into one stream sorted by
    /// timestamp (stable, so each thread's events keep their
    /// emission order on ties). Safe to call while writers are live;
    /// events overwritten or torn mid-drain are counted in
    /// [`TraceStream::dropped`].
    pub fn drain(&self) -> TraceStream {
        let rings = self.rings.lock().expect("tracer registry poisoned");
        let mut stream = TraceStream::default();
        for ring in rings.iter() {
            stream.dropped += ring.drain_into(&mut stream.events);
        }
        stream.events.sort_by_key(|e| e.at_ns);
        stream
    }
}

/// One thread's writer handle (see [`Tracer::register`]).
#[derive(Debug)]
pub struct ThreadTracer {
    ring: Arc<Ring>,
    thread: u32,
}

impl ThreadTracer {
    /// Appends one event. Wait-free: one claim store, four data
    /// stores, one commit store, evicting the oldest event when the
    /// ring is full.
    #[inline]
    pub fn emit(&mut self, at_ns: u64, kind: TraceEventKind, a: u64, b: u64) {
        let pos = self.ring.head.load(Ordering::Relaxed);
        // Claim before writing: readers re-check `head` after their
        // data loads and discard any position this rewrite could
        // have torn. The release fence keeps the data stores below
        // from becoming visible before the claim.
        self.ring.head.store(pos + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        let slot = &self.ring.slots[usize::try_from(pos).unwrap_or(usize::MAX) & self.ring.mask];
        let words = TraceEvent {
            at_ns,
            thread: self.thread,
            kind,
            a,
            b,
        }
        .encode();
        slot.w[0].store(words[0], Ordering::Relaxed);
        slot.w[1].store(words[1], Ordering::Relaxed);
        slot.w[2].store(words[2], Ordering::Relaxed);
        slot.w[3].store(words[3], Ordering::Relaxed);
        // Commit: readers only scan below `tail`, so the slot is
        // visible only once fully written.
        self.ring.tail.store(pos + 1, Ordering::Release);
        // Warm the next slot's cache line off the critical path:
        // the ring streams through memory, so without this every
        // other emit opens its line with a demand miss. A relaxed
        // load is enough — drains are rare, so the line arrives
        // exclusive and the eventual stores upgrade it for free.
        let next =
            &self.ring.slots[usize::try_from(pos + 1).unwrap_or(usize::MAX) & self.ring.mask];
        let _ = next.w[0].load(Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(handle: &mut ThreadTracer, at: u64) {
        handle.emit(at, TraceEventKind::AllocSampled, at, 0);
    }

    #[test]
    fn drain_returns_events_in_time_order_across_threads() {
        let tracer = Tracer::new(64);
        let mut a = tracer.register(0);
        let mut b = tracer.register(1);
        ev(&mut a, 10);
        ev(&mut b, 5);
        ev(&mut a, 20);
        ev(&mut b, 15);
        let stream = tracer.drain();
        assert_eq!(stream.dropped, 0);
        let times: Vec<u64> = stream.events.iter().map(|e| e.at_ns).collect();
        assert_eq!(times, vec![5, 10, 15, 20]);
    }

    #[test]
    fn wraparound_drops_oldest_and_accounts_for_them() {
        let tracer = Tracer::new(4);
        let mut h = tracer.register(0);
        for i in 0..10 {
            ev(&mut h, i);
        }
        let stream = tracer.drain();
        assert_eq!(stream.events.len(), 4);
        assert_eq!(stream.dropped, 6);
        assert_eq!(stream.events[0].at_ns, 6, "oldest surviving event");
        assert_eq!(h.ring.head.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn drain_is_incremental() {
        let tracer = Tracer::new(16);
        let mut h = tracer.register(3);
        ev(&mut h, 1);
        assert_eq!(tracer.drain().events.len(), 1);
        assert_eq!(tracer.drain().events.len(), 0, "already consumed");
        ev(&mut h, 2);
        let s = tracer.drain();
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events[0].thread, 3);
    }

    #[test]
    fn counts_group_by_kind() {
        let tracer = Tracer::new(16);
        let mut h = tracer.register(0);
        h.emit(1, TraceEventKind::AllocSampled, 0, 0);
        h.emit(2, TraceEventKind::AllocSkipped, 0, 0);
        h.emit(3, TraceEventKind::AllocSkipped, 0, 0);
        let stream = tracer.drain();
        assert_eq!(stream.count_of(TraceEventKind::AllocSkipped), 2);
        assert_eq!(
            stream.counts(),
            vec![
                (TraceEventKind::AllocSampled, 1),
                (TraceEventKind::AllocSkipped, 2)
            ]
        );
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Tracer::new(5).capacity(), 8);
        assert_eq!(Tracer::new(0).capacity(), 2);
        assert_eq!(
            Tracer::with_default_capacity().capacity(),
            DEFAULT_RING_CAPACITY
        );
    }
}

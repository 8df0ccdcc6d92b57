//! The fleet-wide priors store.
//!
//! One process's WAL holds what *it* confirmed; the fleet's knowledge
//! is the strongest-per-signature join over every process's log. The
//! [`FleetStore`] holds that join as one [`Strongest`] — the same
//! accumulator WAL compaction uses, so the fleet and a single process
//! can never disagree on what "strongest" means — plus the set of
//! signatures published for mitigation, both behind one lock.
//!
//! Two ingestion disciplines exist:
//!
//! * **Record-at-a-time** ([`FleetStore::insert_record`]) — the naive
//!   loop: every record pays the lock and a map probe, and a durable
//!   store checkpoints after every process. It is the comparison
//!   baseline `bench_fleet` measures and the oracle the merge property
//!   suite checks against.
//! * **Merge** ([`FleetStore::merge`]) — a caller collapses a whole
//!   chunk of processes into one [`Strongest`] without holding the
//!   lock, then joins it into the store with one lock acquisition.
//!   Because the join is commutative, associative and idempotent,
//!   chunk boundaries and worker scheduling cannot change the result.

use csod_persist::{RecordKind, Strongest, Wal, WalRecord};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

/// The fleet's knowledge about one context signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetEntry {
    /// Strongest record kind seen fleet-wide (the evidence lattice of
    /// [`RecordKind`]: mitigated ≥ trap ≥ canary).
    pub kind: RecordKind,
    /// Highest next-run watch probability any process recorded, in ppm.
    pub boost_ppm: u32,
    /// Whether the context is already mitigated fleet-wide: some
    /// process recorded it `Mitigated`, or a mitigation fan-out plan
    /// published it, so every process launched from that plan's seed
    /// WAL hardens the context from its first allocation.
    pub mitigated: bool,
}

#[derive(Debug, Default)]
struct Inner {
    evidence: Strongest,
    /// Signatures a plan published that no process had recorded
    /// `Mitigated` at the time (those are mitigated by their kind).
    published: BTreeSet<String>,
}

/// The fleet-wide evidence store: one strongest-per-signature join
/// behind one lock.
///
/// # Examples
///
/// ```
/// use csod_fleet::FleetStore;
/// use csod_persist::{RecordKind, Strongest, WalRecord};
///
/// let store = FleetStore::new();
/// // Process A confirmed a trap; process B saw the same context's
/// // canary corrupted. The fleet keeps the strongest of both.
/// let mut chunk = Strongest::new();
/// chunk.absorb(&WalRecord::new(RecordKind::TrapSignature, 1_000_000, "buf.c:3|main.c:1"));
/// chunk.absorb(&WalRecord::new(RecordKind::CanaryEvidence, 900_000, "buf.c:3|main.c:1"));
/// store.merge(&chunk);
/// let entry = store.get("buf.c:3|main.c:1").unwrap();
/// assert_eq!(entry.kind, RecordKind::TrapSignature);
/// assert_eq!(entry.boost_ppm, 1_000_000);
/// assert!(!entry.mitigated);
/// ```
#[derive(Debug, Default)]
pub struct FleetStore {
    inner: Mutex<Inner>,
}

impl FleetStore {
    /// An empty store.
    pub fn new() -> FleetStore {
        FleetStore::default()
    }

    /// Record-at-a-time insertion: one lock and one map probe per
    /// record. The naive ingest loop, kept as the benchmark baseline.
    pub fn insert_record(&self, rec: &WalRecord) {
        self.inner.lock().evidence.absorb(rec);
    }

    /// Joins pre-collapsed evidence (typically a whole ingest chunk)
    /// into the store with one lock acquisition.
    pub fn merge(&self, evidence: &Strongest) {
        self.inner.lock().evidence.merge(evidence);
    }

    /// Marks every signature currently in the store as published for
    /// mitigation fan-out and returns how many were newly marked. A
    /// signature recorded `Mitigated` is proof some process already
    /// enrolled the context, so it is never *newly* mitigated.
    pub fn mark_all_mitigated(&self) -> u64 {
        let mut inner = self.inner.lock();
        let Inner {
            evidence,
            published,
        } = &mut *inner;
        let mut newly = 0;
        for (sig, kind, _) in evidence.iter() {
            if kind != RecordKind::Mitigated && !published.contains(sig) {
                published.insert(sig.to_owned());
                newly += 1;
            }
        }
        newly
    }

    /// The entry for `signature`, if the fleet knows it.
    pub fn get(&self, signature: &str) -> Option<FleetEntry> {
        let inner = self.inner.lock();
        let (kind, boost_ppm) = inner.evidence.get(signature)?;
        Some(FleetEntry {
            kind,
            boost_ppm,
            mitigated: kind == RecordKind::Mitigated || inner.published.contains(signature),
        })
    }

    /// The collapsed evidence state — one strongest [`WalRecord`] per
    /// signature in signature order — ready for a seed WAL or a
    /// checkpoint compaction.
    pub fn strongest_records(&self) -> Vec<WalRecord> {
        self.inner.lock().evidence.clone().into_records()
    }

    /// The evidence state as a map, for equivalence checks: two stores
    /// that merged the same records in any order or grouping compare
    /// equal here.
    pub fn evidence(&self) -> BTreeMap<String, (RecordKind, u32)> {
        self.inner
            .lock()
            .evidence
            .iter()
            .map(|(sig, kind, boost)| (sig.to_owned(), (kind, boost)))
            .collect()
    }

    /// Atomically checkpoints the collapsed store to `path` in WAL
    /// format (tmp + rename via [`Wal::compact`]), so an aggregator
    /// crash loses at most the batches since the last checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing or renaming the snapshot.
    pub fn checkpoint(&self, path: &Path) -> io::Result<()> {
        Wal::compact(path, &self.strongest_records())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: RecordKind, boost: u32, sig: &str) -> WalRecord {
        WalRecord::new(kind, boost, sig)
    }

    fn contribution(records: &[WalRecord]) -> Strongest {
        let mut acc = Strongest::new();
        acc.absorb_all(records);
        acc
    }

    #[test]
    fn batched_and_naive_paths_agree_on_evidence() {
        let records = vec![
            rec(RecordKind::CanaryEvidence, 500_000, "a.c:1|main.c:1"),
            rec(RecordKind::TrapSignature, 400_000, "a.c:1|main.c:1"),
            rec(RecordKind::Mitigated, 1_000_000, "b.c:2|main.c:1"),
            rec(RecordKind::CanaryEvidence, 1_000_000, "c.c:3|main.c:1"),
        ];
        let naive = FleetStore::new();
        for r in &records {
            naive.insert_record(r);
        }
        let batched = FleetStore::new();
        batched.merge(&contribution(&records[..2]));
        batched.merge(&contribution(&records[2..]));
        assert_eq!(naive.evidence(), batched.evidence());
        assert_eq!(naive.strongest_records().len(), 3);
        assert_eq!(batched.strongest_records(), naive.strongest_records());
    }

    #[test]
    fn chunk_boundaries_do_not_change_the_result() {
        let all: Vec<Strongest> = (0..10)
            .map(|i| {
                contribution(&[
                    rec(
                        RecordKind::CanaryEvidence,
                        100_000 * (i % 7) as u32,
                        "hot.c:1",
                    ),
                    rec(RecordKind::TrapSignature, 650_000, &format!("cold.c:{i}")),
                ])
            })
            .collect();
        let one_chunk = FleetStore::new();
        let mut whole = Strongest::new();
        for c in &all {
            whole.merge(c);
        }
        one_chunk.merge(&whole);
        let many_chunks = FleetStore::new();
        for c in &all {
            many_chunks.merge(c);
        }
        assert_eq!(one_chunk.evidence(), many_chunks.evidence());
        let hot = one_chunk.get("hot.c:1").unwrap();
        assert_eq!(hot.kind, RecordKind::CanaryEvidence);
        assert_eq!(hot.boost_ppm, 600_000, "the highest boost any chunk saw");
        assert_eq!(one_chunk.strongest_records().len(), 11);
    }

    #[test]
    fn mitigation_marking_is_sticky_and_counted() {
        let store = FleetStore::new();
        store.insert_record(&rec(RecordKind::TrapSignature, 1_000_000, "x.c:1"));
        store.insert_record(&rec(RecordKind::Mitigated, 1_000_000, "m.c:1"));
        assert!(store.get("m.c:1").unwrap().mitigated, "arrived mitigated");
        assert_eq!(store.mark_all_mitigated(), 1, "only x.c:1 is new");
        assert_eq!(store.mark_all_mitigated(), 0, "already marked");
        assert!(store.get("x.c:1").unwrap().mitigated);
        store.insert_record(&rec(RecordKind::CanaryEvidence, 1, "x.c:1"));
        assert!(
            store.get("x.c:1").unwrap().mitigated,
            "weaker evidence does not unmark"
        );
    }

    #[test]
    fn checkpoint_round_trips_through_wal_recovery() {
        let store = FleetStore::new();
        store.insert_record(&rec(RecordKind::TrapSignature, 800_000, "t.c:9|main.c:1"));
        store.insert_record(&rec(
            RecordKind::CanaryEvidence,
            1_000_000,
            "t.c:9|main.c:1",
        ));
        let dir = std::env::temp_dir().join(format!("csod-fleet-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.wal");
        store.checkpoint(&path).unwrap();
        let state = Wal::recover(&path);
        assert_eq!(state.records.len(), 1);
        assert_eq!(state.records[0].kind, RecordKind::TrapSignature);
        assert_eq!(state.records[0].boost_ppm, 1_000_000);
        assert_eq!(state.skipped_corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! The sharded fleet-wide priors store.
//!
//! One process's WAL holds what *it* confirmed; the fleet's knowledge
//! is the strongest-per-signature join over every process's log. The
//! [`FleetStore`] holds that join concurrently: signatures hash to one
//! of a fixed set of lock shards (the same stripe pattern as
//! `csod-ctx::ContextTable`, which PR 3 showed spreads fast-path
//! contention well), and each shard guards a plain hash map from
//! signature to the strongest evidence seen fleet-wide.
//!
//! Two ingestion disciplines exist, and the difference between them is
//! the whole performance story of this crate:
//!
//! * **Record-at-a-time** ([`FleetStore::insert_record`]) — the naive
//!   loop: every record pays a shard lock, a string hash and a map
//!   probe, and a durable store checkpoints after every process. This
//!   is the comparison baseline `bench_fleet` measures.
//! * **Batched k-way merge** ([`FleetStore::commit_chunk`]) — each
//!   process's records are first collapsed locally (strongest per
//!   signature, no lock held), a chunk of processes is then k-way
//!   merged into per-shard runs, and each shard is locked **once per
//!   chunk** to absorb its run. Group-commit checkpointing rides the
//!   same granularity. Because the merge is a lattice join
//!   (commutative, associative, idempotent — see
//!   [`csod_persist::Strongest`]), chunk boundaries and worker
//!   scheduling cannot change the result.

use csod_persist::{fnv1a, RecordKind, Strongest, Wal, WalRecord};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default shard count, matching `csod-ctx::ContextTable`'s stripe
/// count: enough independent locks that ingest workers rarely collide,
/// few enough that a full-store sweep stays cheap.
pub const DEFAULT_SHARDS: usize = 64;

/// The fleet's knowledge about one context signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetEntry {
    /// Strongest record kind seen fleet-wide (the evidence lattice of
    /// [`RecordKind`]: mitigated ≥ trap ≥ canary).
    pub kind: RecordKind,
    /// Highest next-run watch probability any process recorded, in ppm.
    pub boost_ppm: u32,
    /// Raw WAL records folded into this entry across the fleet — the
    /// per-signature detection count the sampling budget reads.
    pub records: u64,
    /// Process-level contributions that included this signature (each
    /// batched contribution counts once; record-at-a-time insertion
    /// cannot tell processes apart and leaves this at zero).
    pub processes: u64,
    /// Whether this signature has been published in a mitigation
    /// fan-out plan: every process launched from that plan's seed WAL
    /// hardens the context from its first allocation.
    pub mitigated: bool,
}

/// One signature's entry together with its signature, as returned by
/// [`FleetStore::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetRecord {
    /// The canonical context signature.
    pub signature: String,
    /// The fleet-wide entry.
    pub entry: FleetEntry,
}

/// Monotonic merge counters, readable while ingest runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Raw records folded in (both disciplines).
    pub records_merged: u64,
    /// Process-level contributions committed through the batched path.
    pub process_contributions: u64,
    /// Shard lock acquisitions spent committing batched runs.
    pub shard_commits: u64,
    /// Record-at-a-time insertions (each paid its own lock).
    pub single_inserts: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<String, FleetEntry>,
}

impl Shard {
    fn fold(
        &mut self,
        signature: &str,
        kind: RecordKind,
        boost_ppm: u32,
        records: u64,
        processes: u64,
    ) {
        match self.entries.get_mut(signature) {
            Some(e) => {
                e.kind = e.kind.max(kind);
                e.boost_ppm = e.boost_ppm.max(boost_ppm);
                e.records += records;
                e.processes += processes;
                // A Mitigated record is proof some process already
                // enrolled this context — it is not *newly* mitigated.
                e.mitigated |= kind == RecordKind::Mitigated;
            }
            None => {
                self.entries.insert(
                    signature.to_owned(),
                    FleetEntry {
                        kind,
                        boost_ppm,
                        records,
                        processes,
                        mitigated: kind == RecordKind::Mitigated,
                    },
                );
            }
        }
    }
}

/// The signature-sharded fleet-wide evidence store.
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
/// let mut a = Strongest::new();
/// a.absorb(&WalRecord::new(RecordKind::TrapSignature, 1_000_000, "buf.c:3|main.c:1"));
/// let mut b = Strongest::new();
/// b.absorb(&WalRecord::new(RecordKind::CanaryEvidence, 900_000, "buf.c:3|main.c:1"));
/// store.commit_chunk(&[a, b]);
/// let entry = store.get("buf.c:3|main.c:1").unwrap();
/// assert_eq!(entry.kind, RecordKind::TrapSignature);
/// assert_eq!(entry.boost_ppm, 1_000_000);
/// assert_eq!(entry.processes, 2);
/// ```
pub struct FleetStore {
    shards: Vec<Mutex<Shard>>,
    records_merged: AtomicU64,
    process_contributions: AtomicU64,
    shard_commits: AtomicU64,
    single_inserts: AtomicU64,
}

impl std::fmt::Debug for FleetStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetStore")
            .field("shards", &self.shards.len())
            .field("signatures", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for FleetStore {
    fn default() -> Self {
        FleetStore::new()
    }
}

impl FleetStore {
    /// A store with [`DEFAULT_SHARDS`] lock shards.
    pub fn new() -> FleetStore {
        FleetStore::with_shards(DEFAULT_SHARDS)
    }

    /// A store with `shards` lock shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> FleetStore {
        assert!(shards > 0, "fleet store needs at least one shard");
        FleetStore {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            records_merged: AtomicU64::new(0),
            process_contributions: AtomicU64::new(0),
            shard_commits: AtomicU64::new(0),
            single_inserts: AtomicU64::new(0),
        }
    }

    /// The shard a signature hashes to. High bits of the FNV-1a hash
    /// pick the shard so the map probe (which uses the low bits via the
    /// hasher) stays decorrelated from shard selection.
    pub fn shard_of(&self, signature: &str) -> usize {
        ((fnv1a(signature.as_bytes()) >> 48) as usize) % self.shards.len()
    }

    /// Record-at-a-time insertion: one shard lock, one string hash and
    /// one map probe per record. The naive ingest loop — kept as the
    /// benchmark baseline and for incremental single-record updates.
    pub fn insert_record(&self, rec: &WalRecord) {
        let mut shard = self.shards[self.shard_of(&rec.signature)].lock();
        shard.fold(&rec.signature, rec.kind, rec.boost_ppm, 1, 0);
        drop(shard);
        self.records_merged.fetch_add(1, Ordering::Relaxed);
        self.single_inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Batched k-way merge commit: takes one pre-collapsed
    /// [`Strongest`] contribution per process, merges the whole chunk
    /// into per-shard runs *outside* any lock, then locks each touched
    /// shard exactly once to absorb its run.
    ///
    /// Per-signature accounting: `records` grows by the number of raw
    /// records each contribution had absorbed for that signature
    /// (approximated as contributions × their collapse is lossless for
    /// evidence, so the count folded here is one per contributing
    /// process per signature), and `processes` grows by the number of
    /// distinct contributions that mentioned the signature.
    pub fn commit_chunk(&self, contributions: &[Strongest]) {
        if contributions.is_empty() {
            return;
        }
        // k-way merge of the chunk: signature -> (kind, boost, procs).
        let mut merged: BTreeMap<&str, (RecordKind, u32, u64)> = BTreeMap::new();
        let mut raw_records = 0u64;
        for acc in contributions {
            raw_records += acc.absorbed();
            for (sig, kind, boost) in acc.iter() {
                match merged.get_mut(sig) {
                    Some(e) => {
                        e.0 = e.0.max(kind);
                        e.1 = e.1.max(boost);
                        e.2 += 1;
                    }
                    None => {
                        merged.insert(sig, (kind, boost, 1));
                    }
                }
            }
        }
        // Group by shard, preserving signature order within each run.
        type ShardRun<'a> = Vec<(&'a str, (RecordKind, u32, u64))>;
        let mut runs: Vec<ShardRun> = vec![Vec::new(); self.shards.len()];
        for (sig, entry) in merged {
            runs[self.shard_of(sig)].push((sig, entry));
        }
        // Shard-local commits: one lock per touched shard per chunk.
        for (i, run) in runs.into_iter().enumerate() {
            if run.is_empty() {
                continue;
            }
            let mut shard = self.shards[i].lock();
            for (sig, (kind, boost, procs)) in run {
                shard.fold(sig, kind, boost, procs, procs);
            }
            drop(shard);
            self.shard_commits.fetch_add(1, Ordering::Relaxed);
        }
        self.records_merged
            .fetch_add(raw_records, Ordering::Relaxed);
        self.process_contributions
            .fetch_add(contributions.len() as u64, Ordering::Relaxed);
    }

    /// Marks every signature currently in the store as published for
    /// mitigation fan-out and returns how many were newly marked.
    pub fn mark_all_mitigated(&self) -> u64 {
        let mut newly = 0;
        for shard in &self.shards {
            let mut shard = shard.lock();
            for entry in shard.entries.values_mut() {
                if !entry.mitigated {
                    entry.mitigated = true;
                    newly += 1;
                }
            }
        }
        newly
    }

    /// The entry for `signature`, if the fleet knows it.
    pub fn get(&self, signature: &str) -> Option<FleetEntry> {
        self.shards[self.shard_of(signature)]
            .lock()
            .entries
            .get(signature)
            .cloned()
    }

    /// Distinct signatures known fleet-wide.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// `true` when no signature has been merged yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonic merge counters.
    pub fn stats(&self) -> MergeStats {
        MergeStats {
            records_merged: self.records_merged.load(Ordering::Relaxed),
            process_contributions: self.process_contributions.load(Ordering::Relaxed),
            shard_commits: self.shard_commits.load(Ordering::Relaxed),
            single_inserts: self.single_inserts.load(Ordering::Relaxed),
        }
    }

    /// Every entry, sorted by signature (a consistent snapshot per
    /// shard; concurrent merges may land between shards).
    pub fn snapshot(&self) -> Vec<FleetRecord> {
        let mut out: Vec<FleetRecord> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            out.extend(shard.entries.iter().map(|(signature, entry)| FleetRecord {
                signature: signature.clone(),
                entry: entry.clone(),
            }));
        }
        out.sort_by(|a, b| a.signature.cmp(&b.signature));
        out
    }

    /// The collapsed evidence state — one strongest [`WalRecord`] per
    /// signature in signature order — ready for a seed WAL or a
    /// checkpoint compaction. Built through the same shared
    /// [`Strongest`] accumulator the WAL compactor uses.
    pub fn strongest_records(&self) -> Vec<WalRecord> {
        let mut acc = Strongest::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for (sig, entry) in &shard.entries {
                acc.absorb_parts(entry.kind, entry.boost_ppm, sig);
            }
        }
        acc.into_records()
    }

    /// The evidence state as a map, for equivalence checks: two stores
    /// that merged the same records in any order/grouping compare equal
    /// here (counters intentionally excluded — they record *work*, not
    /// knowledge).
    pub fn evidence(&self) -> BTreeMap<String, (RecordKind, u32)> {
        self.strongest_records()
            .into_iter()
            .map(|r| (r.signature, (r.kind, r.boost_ppm)))
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
        let batched = FleetStore::with_shards(4);
        batched.commit_chunk(&[contribution(&records[..2]), contribution(&records[2..])]);
        assert_eq!(naive.evidence(), batched.evidence());
        assert_eq!(naive.len(), 3);
        assert_eq!(naive.stats().single_inserts, 4);
        assert_eq!(batched.stats().process_contributions, 2);
        assert!(
            batched.stats().shard_commits <= 4,
            "one lock per touched shard"
        );
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
        one_chunk.commit_chunk(&all);
        let many_chunks = FleetStore::new();
        for c in all.chunks(3) {
            many_chunks.commit_chunk(c);
        }
        assert_eq!(one_chunk.evidence(), many_chunks.evidence());
        let hot = one_chunk.get("hot.c:1").unwrap();
        assert_eq!(
            hot.processes, 10,
            "every contribution mentioned the hot context"
        );
        assert_eq!(many_chunks.get("hot.c:1").unwrap().processes, 10);
    }

    #[test]
    fn mitigation_marking_is_sticky_and_counted() {
        let store = FleetStore::new();
        store.insert_record(&rec(RecordKind::TrapSignature, 1_000_000, "x.c:1"));
        assert_eq!(store.mark_all_mitigated(), 1);
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

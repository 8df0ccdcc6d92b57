//! The parallel WAL ingest pipeline.
//!
//! A fleet round leaves one WAL per simulated process on disk. Getting
//! their contents into the [`FleetStore`](crate::FleetStore) — and a
//! durable fleet checkpoint — has two costs: CPU (read, checksum, and
//! parse every frame; hash every signature) and I/O (each durability
//! point is an fsync). The serial baseline pays both at process
//! granularity: record-at-a-time insertion and one journal sync per
//! process, exactly the discipline a naive aggregator inherits from
//! tailing processes one by one.
//!
//! The parallel pipeline restructures both costs around *chunks* of
//! processes, claimed through the work-stealing driver in
//! [`crate::par`]:
//!
//! 1. **Fan-out** — each worker reads and checksums its claimed chunk's
//!    WALs and absorbs every record into one strongest-per-signature
//!    [`Strongest`] for the whole chunk, all without touching a lock.
//! 2. **Merge** — that chunk evidence is joined into the store with one
//!    lock acquisition ([`FleetStore::merge`]).
//! 3. **Group commit** — the same chunk evidence is written as one
//!    atomic checkpoint segment with a *single* fsync, and segment
//!    syncs from different workers overlap in the kernel instead of
//!    queuing behind one journal handle.
//!
//! Steps 1 and 3 for one chunk never wait on another chunk, and step 2
//! holds the store's lock only for the join; because the merge is a
//! lattice join, any interleaving commits the same store.

use crate::par::run_parallel_batches;
use crate::store::FleetStore;
use csod_persist::{Strongest, Wal};
use std::path::{Path, PathBuf};

/// Tuning for [`ingest_parallel`].
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Worker thread cap (values below 1 behave as 1).
    pub threads: usize,
    /// Processes claimed — and group-committed — per steal.
    pub chunk: usize,
    /// Durable fleet checkpoint path. `None` ingests in memory only.
    pub checkpoint: Option<PathBuf>,
}

impl Default for IngestOptions {
    fn default() -> IngestOptions {
        IngestOptions {
            threads: 8,
            chunk: 32,
            checkpoint: None,
        }
    }
}

/// What one ingest pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Per-process WALs read. A missing log counts as read and empty:
    /// a process that confirmed nothing leaves no file.
    pub processes: u64,
    /// Valid records recovered and merged.
    pub records: u64,
    /// Corrupt bytes skipped across all WALs (torn tails, bit rot).
    pub corrupt_skipped: u64,
    /// Durability points paid (journal or segment fsyncs).
    pub checkpoint_syncs: u64,
}

/// Record-at-a-time serial ingest: the naive baseline. Reads each WAL
/// in turn, inserts every record individually, and — when `checkpoint`
/// is given — appends the process's records to one journal and syncs it
/// once per process.
pub fn ingest_serial(
    store: &FleetStore,
    paths: &[PathBuf],
    checkpoint: Option<&Path>,
) -> IngestStats {
    let mut stats = IngestStats::default();
    let mut journal = checkpoint.map(Wal::open);
    for path in paths {
        let state = Wal::recover(path);
        stats.processes += 1;
        stats.records += state.records.len() as u64;
        stats.corrupt_skipped += state.skipped_corrupt;
        for rec in &state.records {
            store.insert_record(rec);
            if let Some(journal) = journal.as_mut() {
                journal.append(rec);
            }
        }
        if let Some(journal) = journal.as_mut() {
            journal.sync();
            stats.checkpoint_syncs += 1;
        }
    }
    stats
}

/// Chunked parallel ingest: fan-out parse, one merge per chunk, and
/// group-commit durability as described in the module docs.
///
/// When `opts.checkpoint` is set, each chunk persists one atomic
/// segment (`<checkpoint>.seg<start>`) with a single fsync; after the
/// fan-out completes, the collapsed store is compacted into the final
/// checkpoint and the segments are removed. A crash mid-ingest
/// therefore loses at most the chunks whose segments had not yet
/// synced, and recovery is "scan checkpoint + any surviving segments".
pub fn ingest_parallel(store: &FleetStore, paths: &[PathBuf], opts: &IngestOptions) -> IngestStats {
    let chunk_stats = run_parallel_batches(paths, opts.threads, opts.chunk, |start, slice| {
        let mut stats = IngestStats::default();
        let mut evidence = Strongest::new();
        for path in slice {
            let state = Wal::recover(path);
            stats.processes += 1;
            stats.records += state.records.len() as u64;
            stats.corrupt_skipped += state.skipped_corrupt;
            evidence.absorb_all(&state.records);
        }
        store.merge(&evidence);
        if let Some(base) = opts.checkpoint.as_deref() {
            if Wal::compact(&segment_path(base, start), &evidence.into_records()).is_ok() {
                stats.checkpoint_syncs += 1;
            }
        }
        stats
    });
    let mut stats = chunk_stats
        .into_iter()
        .fold(IngestStats::default(), |mut acc, s| {
            acc.processes += s.processes;
            acc.records += s.records;
            acc.corrupt_skipped += s.corrupt_skipped;
            acc.checkpoint_syncs += s.checkpoint_syncs;
            acc
        });
    if let Some(base) = opts.checkpoint.as_deref() {
        if store.checkpoint(base).is_ok() {
            stats.checkpoint_syncs += 1;
            let mut start = 0;
            while start < paths.len() {
                let _ = std::fs::remove_file(segment_path(base, start));
                start += opts.chunk.max(1);
            }
        }
    }
    stats
}

fn segment_path(base: &Path, start: usize) -> PathBuf {
    let mut name = base.as_os_str().to_owned();
    name.push(format!(".seg{start}"));
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csod_persist::{RecordKind, WalRecord};
    use std::fs;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("csod-fleet-ingest-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_wal(path: &Path, records: &[WalRecord], torn: bool) {
        let mut wal = Wal::open(path);
        for rec in records {
            wal.append(rec);
        }
        if torn {
            wal.append_partial(
                &WalRecord::new(RecordKind::Mitigated, 1_000_000, "torn.c:0"),
                5,
            );
        }
        wal.sync();
    }

    fn fleet_paths(dir: &Path, n: usize) -> Vec<PathBuf> {
        (0..n)
            .map(|i| {
                let path = dir.join(format!("proc-{i}.wal"));
                write_wal(
                    &path,
                    &[
                        WalRecord::new(
                            RecordKind::CanaryEvidence,
                            10_000 * (i as u32 % 10),
                            "shared.c:1|main.c:1",
                        ),
                        WalRecord::new(
                            RecordKind::TrapSignature,
                            700_000,
                            format!("own.c:{i}|main.c:1"),
                        ),
                    ],
                    i % 3 == 0,
                );
                path
            })
            .collect()
    }

    #[test]
    fn serial_and_parallel_ingest_agree_on_evidence() {
        let dir = temp_dir("agree");
        let paths = fleet_paths(&dir, 17);
        let serial = FleetStore::new();
        let s = ingest_serial(&serial, &paths, None);
        let parallel = FleetStore::new();
        let p = ingest_parallel(
            &parallel,
            &paths,
            &IngestOptions {
                threads: 4,
                chunk: 3,
                checkpoint: None,
            },
        );
        assert_eq!(serial.evidence(), parallel.evidence());
        assert_eq!(s.processes, 17);
        assert_eq!(p.processes, 17);
        assert_eq!(s.records, p.records);
        assert_eq!(s.corrupt_skipped, p.corrupt_skipped);
        assert!(s.corrupt_skipped > 0, "torn tails were planted");
        assert_eq!(s.checkpoint_syncs, 0);
        assert_eq!(p.checkpoint_syncs, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_checkpoint_survives_recovery_and_cleans_segments() {
        let dir = temp_dir("ckpt");
        let paths = fleet_paths(&dir, 10);
        let store = FleetStore::new();
        let ckpt = dir.join("fleet.wal");
        let stats = ingest_parallel(
            &store,
            &paths,
            &IngestOptions {
                threads: 4,
                chunk: 4,
                checkpoint: Some(ckpt.clone()),
            },
        );
        // ceil(10/4) = 3 segment syncs + 1 final compaction.
        assert_eq!(stats.checkpoint_syncs, 4);
        let recovered = Wal::recover(&ckpt);
        assert_eq!(recovered.skipped_corrupt, 0);
        let mut acc = Strongest::new();
        acc.absorb_all(&recovered.records);
        let from_disk: std::collections::BTreeMap<_, _> =
            acc.iter().map(|(s, k, b)| (s.to_owned(), (k, b))).collect();
        assert_eq!(from_disk, store.evidence());
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(!name.contains(".seg"), "segment {name} left behind");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn serial_checkpoint_journal_syncs_once_per_process() {
        let dir = temp_dir("serial-journal");
        let paths = fleet_paths(&dir, 6);
        let store = FleetStore::new();
        let ckpt = dir.join("journal.wal");
        let stats = ingest_serial(&store, &paths, Some(&ckpt));
        assert_eq!(stats.checkpoint_syncs, 6);
        let recovered = Wal::recover(&ckpt);
        assert_eq!(
            recovered.records.len() as u64,
            stats.records,
            "journal keeps raw records"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

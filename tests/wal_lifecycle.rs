//! The WAL's life across executions: what `Csod` recovers from its
//! `persist_path` at start-up, what it leaves there at exit, and what
//! the next execution reads back.
//!
//! Each scenario runs one small buggy program (four filler contexts and
//! one 16-byte object from `bug.c:7`, optionally overwritten one word
//! past its end before it is freed) against a log in a known state, and
//! pins `Wal::recover`'s view of the log plus the run's `wal_records_*`
//! counters after every execution.
//!
//! It also checks what reaches the disk: a run that confirms nothing
//! creates no log, and a clean exit rewrites the log (new inode) only
//! when compaction changes it.

use csod::core::{Csod, CsodConfig, CsodStats};
use csod::ctx::{CallingContext, ContextKey, FrameTable};
use csod::heap::{HeapConfig, SimHeap};
use csod::machine::{Machine, ThreadId};
use csod::workloads::{run_fleet_round, FleetRoundConfig};
use csod_persist::{RecordKind, RecoveredState, Wal, WalRecord};
use std::fs;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const BUG: &str = "bug.c:7|main.c:1";
const FULL: u32 = 1_000_000;

/// A fresh log path, unique per test and per test process.
fn log_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csod-wal-lifecycle-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.wal"));
    let _ = fs::remove_file(&path);
    path
}

/// One execution, stopped just before its clean exit.
struct Execution {
    machine: Machine,
    csod: Csod,
}

impl Execution {
    /// Runs the program against the log at `path`. With `overflow`, the
    /// `bug.c:7` object is overwritten one word past its end (unseen by
    /// any watchpoint) before it is freed, so its canary confirms the
    /// context unless mitigation already pads the object.
    fn run(path: &Path, overflow: bool) -> Execution {
        let frames = Arc::new(FrameTable::new());
        let mut machine = Machine::new();
        let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
        let mut csod = Csod::new(
            CsodConfig {
                persist_path: Some(path.to_owned()),
                ..CsodConfig::default()
            },
            Arc::clone(&frames),
        );
        let mut p = None;
        for site in [
            "filler.c:0",
            "filler.c:1",
            "filler.c:2",
            "filler.c:3",
            "bug.c:7",
        ] {
            let key = ContextKey::new(frames.intern(site), 0x40);
            let ctx = CallingContext::from_locations(&frames, [site, "main.c:1"]);
            p = Some(
                csod.malloc(&mut machine, &mut heap, ThreadId::MAIN, 16, key, &ctx)
                    .unwrap(),
            );
        }
        let p = p.unwrap();
        if overflow {
            machine.raw_store_u64(p + 16, 7).unwrap();
        }
        csod.free(&mut machine, &mut heap, ThreadId::MAIN, p)
            .unwrap();
        Execution { machine, csod }
    }

    /// The clean exit; returns the run's counters.
    fn exit(mut self) -> CsodStats {
        self.csod.finish(&mut self.machine);
        self.csod.stats()
    }
}

/// `(wal_records_recovered, wal_records_skipped_corrupt)` of a run.
fn wal_counters(stats: &CsodStats) -> (u64, u64) {
    (
        stats.wal_records_recovered,
        stats.wal_records_skipped_corrupt,
    )
}

/// The log's inode and bytes: equal before and after a run only if the
/// run left the file alone.
fn on_disk(path: &Path) -> (u64, Vec<u8>) {
    (fs::metadata(path).unwrap().ino(), fs::read(path).unwrap())
}

/// The state recovery must read: `records` in order, `skipped` damage.
fn recovered(records: &[(RecordKind, u32, &str)], skipped: u64) -> RecoveredState {
    RecoveredState {
        records: records
            .iter()
            .map(|&(kind, boost, sig)| WalRecord::new(kind, boost, sig))
            .collect(),
        recovered: records.len() as u64,
        skipped_corrupt: skipped,
    }
}

#[test]
fn clean_unseeded_execution() {
    let path = log_path("clean");
    let stats = Execution::run(&path, false).exit();
    assert_eq!(wal_counters(&stats), (0, 0));
    assert_eq!(stats.contexts_mitigated, 0);
    assert_eq!(Wal::recover(&path), recovered(&[], 0));
    assert!(!path.exists(), "a run that confirms nothing creates no log");
}

#[test]
fn confirming_execution_then_clean_rerun() {
    let path = log_path("confirm");
    // The canary at free confirms bug.c:7: appended, then compacted.
    let first = Execution::run(&path, true);
    assert_eq!(
        Wal::recover(&path),
        recovered(&[(RecordKind::CanaryEvidence, FULL, BUG)], 0)
    );
    let appended = on_disk(&path);
    let stats = first.exit();
    assert_ne!(on_disk(&path).0, appended.0, "an append is compacted");
    assert_eq!(wal_counters(&stats), (0, 0));
    assert_eq!(stats.canary_free_hits, 1);
    assert_eq!(stats.contexts_mitigated, 1);
    assert_eq!(
        Wal::recover(&path),
        recovered(&[(RecordKind::Mitigated, FULL, BUG)], 0)
    );

    // The same program again: the recovered record pads the object, the
    // overwrite lands in the slack, and nothing new is confirmed.
    let compacted = on_disk(&path);
    let stats = Execution::run(&path, true).exit();
    assert_eq!(on_disk(&path), compacted, "the log was its own compaction");
    assert_eq!(wal_counters(&stats), (1, 0));
    assert_eq!(stats.canary_free_hits, 0);
    assert_eq!(stats.contexts_mitigated, 1);
    assert_eq!(
        Wal::recover(&path),
        recovered(&[(RecordKind::Mitigated, FULL, BUG)], 0)
    );
    let _ = fs::remove_file(&path);
}

#[test]
fn seeded_execution() {
    let path = log_path("seeded");
    let seed = [
        (RecordKind::Mitigated, FULL, "a.c:1|main.c:1"),
        (RecordKind::Mitigated, FULL, BUG),
    ];
    Wal::compact(&path, &recovered(&seed, 0).records).unwrap();
    let seeded = on_disk(&path);
    let stats = Execution::run(&path, true).exit();
    assert_eq!(on_disk(&path), seeded, "the seed was its own compaction");
    assert_eq!(wal_counters(&stats), (2, 0));
    assert_eq!(stats.canary_free_hits, 0);
    assert_eq!(stats.contexts_mitigated, 2);
    assert_eq!(Wal::recover(&path), recovered(&seed, 0));
    let _ = fs::remove_file(&path);
}

#[test]
fn execution_after_a_torn_tail() {
    let path = log_path("torn");
    Wal::compact(
        &path,
        &recovered(&[(RecordKind::Mitigated, FULL, BUG)], 0).records,
    )
    .unwrap();
    let mut wal = Wal::open(&path);
    wal.append_partial(
        &WalRecord::new(RecordKind::TrapSignature, FULL, "torn.c:1|main.c:1"),
        9,
    );
    drop(wal);
    assert_eq!(
        Wal::recover(&path),
        recovered(&[(RecordKind::Mitigated, FULL, BUG)], 1)
    );
    let torn = on_disk(&path);
    let stats = Execution::run(&path, false).exit();
    assert_ne!(on_disk(&path).0, torn.0, "recovered damage is compacted");
    assert_eq!(wal_counters(&stats), (1, 1));
    assert_eq!(stats.contexts_mitigated, 1);
    assert_eq!(
        Wal::recover(&path),
        recovered(&[(RecordKind::Mitigated, FULL, BUG)], 0)
    );
    let _ = fs::remove_file(&path);
}

#[test]
fn execution_over_duplicate_and_weaker_records() {
    let path = log_path("weaker");
    let mut wal = Wal::open(&path);
    for (kind, boost, sig) in [
        (RecordKind::CanaryEvidence, 400_000, BUG),
        (RecordKind::Mitigated, FULL, BUG),
        (RecordKind::TrapSignature, FULL, "z.c:3|main.c:1"),
        (RecordKind::CanaryEvidence, FULL, "a.c:1|main.c:1"),
        (RecordKind::CanaryEvidence, FULL, "a.c:1|main.c:1"),
    ] {
        wal.append(&WalRecord::new(kind, boost, sig));
    }
    drop(wal);
    let appended = on_disk(&path);
    let stats = Execution::run(&path, false).exit();
    assert_ne!(
        on_disk(&path).0,
        appended.0,
        "a non-canonical log is compacted"
    );
    assert_eq!(wal_counters(&stats), (5, 0));
    assert_eq!(stats.contexts_mitigated, 3);
    assert_eq!(
        Wal::recover(&path),
        recovered(
            &[
                (RecordKind::Mitigated, FULL, "a.c:1|main.c:1"),
                (RecordKind::Mitigated, FULL, BUG),
                (RecordKind::Mitigated, FULL, "z.c:3|main.c:1"),
            ],
            0
        )
    );
    let _ = fs::remove_file(&path);
}

#[test]
fn header_only_log_from_an_older_run_is_compacted() {
    let path = log_path("header");
    drop(Wal::open(&path));
    let old = on_disk(&path);
    let stats = Execution::run(&path, false).exit();
    assert_eq!(wal_counters(&stats), (0, 0));
    let new = on_disk(&path);
    assert_ne!(new.0, old.0, "a log with no records is rewritten");
    assert_eq!(new.1, old.1, "as the bare header");
    assert_eq!(Wal::recover(&path), recovered(&[], 0));
    let _ = fs::remove_file(&path);
}

#[test]
fn fleet_round_leaves_logs_only_for_buggy_processes() {
    let dir = std::env::temp_dir().join(format!("csod-wal-lifecycle-fleet-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cfg = FleetRoundConfig {
        processes: 8,
        buggy_every: 4,
        buggy_offset: 0,
        allocations: 200,
        threads: 2,
        chunk: 4,
        ..FleetRoundConfig::default()
    };
    let round = run_fleet_round(&cfg, &dir, None);
    assert_eq!((round.buggy, round.detections), (2, 2));
    assert_eq!(round.ingest.processes, 8, "a missing log reads as empty");
    let logs: Vec<usize> = (0..cfg.processes)
        .filter(|i| dir.join(format!("proc-{i}.wal")).exists())
        .collect();
    assert_eq!(logs, vec![0, 4], "only the buggy processes confirmed");
    let _ = fs::remove_dir_all(&dir);
}

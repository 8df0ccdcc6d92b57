//! Property tests for WAL recovery (the durability acceptance suite).
//!
//! The recovery invariants under test:
//!
//! 1. **Total**: `scan` never panics, whatever the bytes.
//! 2. **Lossless on clean logs**: append → recover is the identity.
//! 3. **No resurrection**: after any single-byte corruption or any
//!    truncation, every recovered record is byte-identical to one that
//!    was actually appended — corruption drops records, it never
//!    invents or mutates them.
//! 4. **Resynchronization**: records appended *after* a torn write are
//!    still recovered, and the damage is counted.
//! 5. **Canonical framing**: any non-empty image that scans clean is
//!    the snapshot of the records it recovers, so equal records mean
//!    equal bytes.

use csod_persist::{encode_record, scan, snapshot, RecordKind, Wal, WalRecord, HEADER_LEN};
use proptest::prelude::*;

/// Deterministically builds a record from sampled integers.
fn record(kind_tag: u8, boost: u32, site: u64, depth: usize) -> WalRecord {
    let kind = RecordKind::from_tag(kind_tag % 3 + 1).expect("tag in 1..=3");
    let mut sig = String::new();
    for d in 0..depth % 5 + 1 {
        if d > 0 {
            sig.push('|');
        }
        sig.push_str(&format!("f{}.c:{}", (site >> (d * 8)) & 0xFF, d + 1));
    }
    WalRecord::new(kind, boost % 1_000_001, sig)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn clean_log_round_trips(
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u64>(), 0usize..8),
            1..20,
        )
    ) {
        let records: Vec<WalRecord> =
            specs.iter().map(|&(k, b, s, d)| record(k, b, s, d)).collect();
        let state = scan(&snapshot(&records));
        prop_assert_eq!(&state.records, &records);
        prop_assert_eq!(state.recovered, records.len() as u64);
        prop_assert_eq!(state.skipped_corrupt, 0);
    }

    #[test]
    fn truncation_yields_a_clean_prefix(
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u64>(), 0usize..8),
            1..16,
        ),
        cut in any::<u64>(),
    ) {
        let records: Vec<WalRecord> =
            specs.iter().map(|&(k, b, s, d)| record(k, b, s, d)).collect();
        let bytes = snapshot(&records);
        let cut = (cut as usize) % (bytes.len() + 1);
        let state = scan(&bytes[..cut]);
        // Nothing invented: the survivors are a prefix of the appends.
        prop_assert!(state.records.len() <= records.len());
        for (got, want) in state.records.iter().zip(&records) {
            prop_assert_eq!(got, want);
        }
        // A cut inside a record is damage and must be counted.
        if cut > HEADER_LEN {
            let whole: usize = HEADER_LEN
                + records
                    .iter()
                    .take(state.records.len())
                    .map(|r| encode_record(r).len())
                    .sum::<usize>();
            if cut != whole {
                prop_assert!(state.skipped_corrupt >= 1);
            }
        }
    }

    #[test]
    fn single_byte_corruption_never_resurrects(
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u64>(), 0usize..8),
            1..12,
        ),
        pos in any::<u64>(),
        flip in 1u8..255,
    ) {
        let records: Vec<WalRecord> =
            specs.iter().map(|&(k, b, s, d)| record(k, b, s, d)).collect();
        let mut bytes = snapshot(&records);
        let pos = (pos as usize) % bytes.len();
        bytes[pos] ^= flip;
        let state = scan(&bytes);
        // Every survivor must be one of the records actually appended —
        // the corrupted frame is dropped, never repaired or mutated.
        for got in &state.records {
            prop_assert!(
                records.contains(got),
                "resurrected a corrupted record at byte {}: {:?}",
                pos,
                got
            );
        }
        // One flipped byte invalidates at most the frame it lands in;
        // the marker scan resynchronizes on the next frame.
        prop_assert!(state.records.len() + 2 >= records.len());
    }

    #[test]
    fn torn_interleaved_records_resync(
        before in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u64>(), 0usize..6),
            0..6,
        ),
        torn in (any::<u8>(), any::<u32>(), any::<u64>(), 0usize..6),
        keep in any::<u64>(),
        after in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u64>(), 0usize..6),
            1..6,
        ),
    ) {
        let before: Vec<WalRecord> =
            before.iter().map(|&(k, b, s, d)| record(k, b, s, d)).collect();
        let after: Vec<WalRecord> =
            after.iter().map(|&(k, b, s, d)| record(k, b, s, d)).collect();
        let torn = record(torn.0, torn.1, torn.2, torn.3);
        let torn_bytes = encode_record(&torn);
        // Keep a strict prefix of the torn record: 0..len bytes.
        let keep = (keep as usize) % torn_bytes.len();

        let mut bytes = snapshot(&before);
        bytes.extend_from_slice(&torn_bytes[..keep]);
        for rec in &after {
            bytes.extend_from_slice(&encode_record(rec));
        }

        let state = scan(&bytes);
        // Records fully written before the tear all survive...
        for want in &before {
            prop_assert!(state.records.contains(want), "lost pre-tear record");
        }
        // ...and the scan resynchronizes: everything after the tear
        // survives too.
        for want in &after {
            prop_assert!(state.records.contains(want), "lost post-tear record");
        }
        // The torn prefix itself must not come back as a record unless
        // it was empty or an exact duplicate of a real append.
        if keep > 0 && !before.contains(&torn) && !after.contains(&torn) {
            let extras = state.records.len() - (before.len() + after.len());
            prop_assert!(extras == 0, "torn prefix decoded as {} record(s)", extras);
            prop_assert!(state.skipped_corrupt >= 1);
        }
    }

    #[test]
    fn clean_scans_are_their_own_snapshot(
        specs in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u64>(), 0usize..8),
            0..10,
        ),
        edits in proptest::collection::vec((any::<u64>(), any::<u8>()), 0..3),
        cut in any::<u64>(),
    ) {
        // Unsorted, duplicate and weaker records alike: the snapshot
        // keeps whatever order it is given.
        let records: Vec<WalRecord> =
            specs.iter().map(|&(k, b, s, d)| record(k, b, s, d)).collect();
        let mut bytes = snapshot(&records);
        for &(pos, value) in &edits {
            let pos = (pos as usize) % bytes.len();
            bytes[pos] = value;
        }
        // Truncate about two times in three, anywhere, to nothing too.
        let cut = (cut as usize) % (bytes.len() * 3 / 2 + 1);
        bytes.truncate(cut);
        let state = scan(&bytes);
        if !bytes.is_empty() && state.skipped_corrupt == 0 {
            prop_assert_eq!(snapshot(&state.records), bytes);
        }
    }

    #[test]
    fn arbitrary_garbage_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        let state = scan(&bytes);
        // Whatever was salvaged, the counters are consistent.
        prop_assert_eq!(state.recovered, state.records.len() as u64);
    }
}

#[test]
fn kill_mid_append_on_disk_round_trip() {
    // The file-level version of the property: a Wal handle that dies
    // mid-append leaves a torn tail; reopening recovers everything
    // before the tear and keeps appending after it.
    let dir = std::env::temp_dir().join("csod-persist-proptest");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("kill-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let first = WalRecord::new(RecordKind::CanaryEvidence, 1_000_000, "boom.c:9|main.c:1");
    let mut wal = Wal::open(&path);
    wal.append(&first);
    wal.append_partial(
        &WalRecord::new(RecordKind::TrapSignature, 1_000_000, "late.c:2"),
        11,
    );
    drop(wal); // the "kill"

    let state = Wal::recover(&path);
    assert_eq!(state.records, vec![first.clone()]);
    assert_eq!(state.skipped_corrupt, 1);

    // Second execution: recover, then keep the loop going.
    let mut wal = Wal::open(&path);
    let confirm = WalRecord::new(RecordKind::Mitigated, 1_000_000, "boom.c:9|main.c:1");
    wal.append(&confirm);
    drop(wal);
    let state = Wal::recover(&path);
    assert!(state.records.contains(&first));
    assert!(state.records.contains(&confirm));

    let strongest = state.strongest();
    Wal::compact(&path, &strongest).unwrap();
    let compacted = Wal::recover(&path);
    assert_eq!(compacted.skipped_corrupt, 0);
    assert_eq!(compacted.records.len(), 1);
    assert_eq!(compacted.records[0].kind, RecordKind::Mitigated);
    std::fs::remove_file(&path).unwrap();
}

//! Property tests for the fleet merge algebra and budget soundness.
//!
//! The invariants that make fleet aggregation safe to parallelise:
//!
//! 1. **Algebra** — the strongest-per-signature merge is commutative,
//!    associative, and idempotent, so evidence is insensitive to
//!    process order, chunk boundaries, and re-delivery. This is what
//!    licenses the work-stealing ingest: whichever worker commits
//!    whichever chunk first, the store converges to the same knowledge.
//! 2. **Damage tolerance** — the same holds through the durable
//!    pipeline when per-process WALs carry torn or corrupt tails:
//!    corruption drops records, it never changes what the surviving
//!    evidence merges to, and serial and parallel ingest agree bit for
//!    bit on both the evidence and the damage count.
//! 3. **Budget soundness** — a plan derived from merged evidence never
//!    marks a trapped signature proven-safe, and the per-process
//!    probability it hands out stays inside the configured bounds.

use csod_core::{CsodConfig, RiskClass, SamplingParams};
use csod_ctx::ContextKey;
use csod_fleet::{ingest_parallel, ingest_serial, FleetStore, IngestOptions, SamplingBudget};
use csod_persist::{encode_record, RecordKind, Strongest, WalRecord, MAGIC, VERSION};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Deterministically builds a record from sampled integers. The
/// signature universe is deliberately tiny (six sites) so sampled
/// fleets collide on signatures and the merge lattice actually joins.
fn record(kind_tag: u8, boost: u32, site: u64) -> WalRecord {
    let kind = RecordKind::from_tag(kind_tag % 3 + 1).expect("tag in 1..=3");
    WalRecord::new(
        kind,
        boost % 1_000_001,
        format!("s{}.c:7|main.c:1", site % 6),
    )
}

/// One sampled fleet: each inner vec is one process's record stream.
fn fleet_strategy(max_procs: usize) -> impl Strategy<Value = Vec<Vec<(u8, u32, u64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u64>()), 0..10),
        1..max_procs,
    )
}

/// Per-process strongest accumulators for `commit_chunk`.
fn contributions(fleet: &[Vec<(u8, u32, u64)>]) -> Vec<Strongest> {
    fleet
        .iter()
        .map(|specs| {
            let mut acc = Strongest::new();
            for &(k, b, s) in specs {
                let rec = record(k, b, s);
                acc.absorb_parts(rec.kind, rec.boost_ppm, &rec.signature);
            }
            acc
        })
        .collect()
}

/// Reference semantics: a flat strongest-per-signature map.
fn reference(fleet: &[Vec<(u8, u32, u64)>]) -> BTreeMap<String, (RecordKind, u32)> {
    let mut acc = Strongest::new();
    for specs in fleet {
        for &(k, b, s) in specs {
            let rec = record(k, b, s);
            acc.absorb_parts(rec.kind, rec.boost_ppm, &rec.signature);
        }
    }
    acc.into_records()
        .into_iter()
        .map(|r| (r.signature, (r.kind, r.boost_ppm)))
        .collect()
}

/// Encodes one process's on-disk log image, optionally followed by a
/// torn record tail (a genuine append cut mid-write) and then raw
/// garbage bytes (sector rot after the tear).
fn log_image(records: &[WalRecord], tear: Option<(WalRecord, usize)>, garbage: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    for rec in records {
        bytes.extend_from_slice(&encode_record(rec));
    }
    if let Some((rec, cut)) = tear {
        let enc = encode_record(&rec);
        bytes.extend_from_slice(&enc[..cut % enc.len().max(1)]);
    }
    bytes.extend_from_slice(garbage);
    bytes
}

fn scratch(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "csod-fleet-props-{tag}-{}-{case}",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Commutative + associative + idempotent: any process permutation,
    /// any chunking, and full re-delivery of every chunk all converge
    /// to the reference strongest-per-signature map — as does the naive
    /// one-lock-per-record baseline.
    #[test]
    fn merge_is_order_chunking_and_duplication_insensitive(
        fleet in fleet_strategy(12),
        shuffle in any::<u64>(),
        chunk_a in 1usize..5,
        chunk_b in 1usize..5,
    ) {
        let want = reference(&fleet);
        let contribs = contributions(&fleet);

        // Original order, one chunking.
        let store_a = FleetStore::new();
        for chunk in contribs.chunks(chunk_a) {
            store_a.commit_chunk(chunk);
        }
        prop_assert_eq!(store_a.evidence(), want.clone());

        // Permuted order, a different chunking, every chunk delivered
        // twice (at-least-once delivery).
        let mut permuted = contribs.clone();
        let mut state = shuffle | 1;
        for i in (1..permuted.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            permuted.swap(i, (state >> 33) as usize % (i + 1));
        }
        let store_b = FleetStore::new();
        for chunk in permuted.chunks(chunk_b) {
            store_b.commit_chunk(chunk);
            store_b.commit_chunk(chunk);
        }
        prop_assert_eq!(store_b.evidence(), want.clone());

        // Naive record-at-a-time baseline (the serial-ingest semantics).
        let store_c = FleetStore::new();
        for specs in &fleet {
            for &(k, b, s) in specs {
                store_c.insert_record(&record(k, b, s));
            }
        }
        prop_assert_eq!(store_c.evidence(), want);
    }

    /// The durable pipeline inherits the algebra even when logs carry
    /// torn tails and trailing garbage: serial ingest, parallel ingest,
    /// and parallel ingest of a permuted path list agree on evidence
    /// and on how much damage they skipped; damage never invents a
    /// signature that no process appended.
    #[test]
    fn durable_ingest_agrees_under_torn_and_corrupt_tails(
        fleet in fleet_strategy(6),
        tears in proptest::collection::vec(
            (any::<u8>(), (any::<u8>(), any::<u32>(), any::<u64>()), 1usize..64, proptest::collection::vec(any::<u8>(), 0..16)),
            6..7,
        ),
        case in any::<u64>(),
        chunk in 1usize..4,
    ) {
        let dir = scratch("torn", case);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let mut appended: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let paths: Vec<PathBuf> = fleet
            .iter()
            .enumerate()
            .map(|(i, specs)| {
                let records: Vec<WalRecord> =
                    specs.iter().map(|&(k, b, s)| record(k, b, s)).collect();
                for r in &records {
                    appended.insert(r.signature.clone());
                }
                // The flag byte decides whether this process's log is
                // damaged — roughly half the sampled fleet is.
                let image = match tears.get(i) {
                    Some(&(flag, (k, b, s), cut, ref garbage)) if flag % 2 == 0 => {
                        let torn = record(k, b, s);
                        appended.insert(torn.signature.clone());
                        log_image(&records, Some((torn, cut)), garbage)
                    }
                    _ => log_image(&records, None, &[]),
                };
                let path = dir.join(format!("proc-{i}.wal"));
                std::fs::write(&path, image).expect("log image written");
                path
            })
            .collect();

        let serial = FleetStore::new();
        let s = ingest_serial(&serial, &paths, None);
        let parallel = FleetStore::new();
        let opts = IngestOptions { threads: 4, chunk, checkpoint: None };
        let p = ingest_parallel(&parallel, &paths, &opts);
        let mut reversed: Vec<PathBuf> = paths.clone();
        reversed.reverse();
        let permuted = FleetStore::new();
        let r = ingest_parallel(&permuted, &reversed, &opts);

        prop_assert_eq!(serial.evidence(), parallel.evidence());
        prop_assert_eq!(parallel.evidence(), permuted.evidence());
        prop_assert_eq!(s.records, p.records);
        prop_assert_eq!(s.corrupt_skipped, p.corrupt_skipped);
        prop_assert_eq!(p.corrupt_skipped, r.corrupt_skipped);
        // No resurrection through the merge: every surviving signature
        // was genuinely appended by some process.
        for sig in parallel.evidence().keys() {
            prop_assert!(appended.contains(sig), "invented signature {sig}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Budget soundness: whatever evidence the fleet merged and however
    /// many processes share the budget, the derived priors never mark a
    /// trapped signature proven-safe (they are pinned Suspicious), the
    /// per-process probability respects floor and budget bounds, and
    /// the planned config still validates.
    #[test]
    fn merged_priors_never_mark_a_trapped_signature_proven_safe(
        fleet in fleet_strategy(8),
        processes in 1u64..20_000,
    ) {
        let store = FleetStore::new();
        store.commit_chunk(&contributions(&fleet));
        let trapped: Vec<String> = store
            .evidence()
            .into_iter()
            .filter(|(_, (kind, _))| *kind >= RecordKind::TrapSignature)
            .map(|(sig, _)| sig)
            .collect();

        let mut config = CsodConfig::default();
        let budget = SamplingBudget::default();
        let plan = budget.plan(&store, processes, &config.sampling);

        // Bounds: floor <= p <= min(budget, base initial).
        let base = SamplingParams::default();
        prop_assert!(plan.initial_ppm >= base.floor_ppm);
        prop_assert!(plan.initial_ppm <= budget.per_process_budget_ppm.max(base.floor_ppm));
        prop_assert!(plan.initial_ppm <= base.initial_ppm.max(base.floor_ppm));

        // Priors: resolve every seeded signature to a key; nothing is
        // ever proven-safe, and trapped signatures are all Suspicious.
        let frames = csod_ctx::FrameTable::new();
        let mut keys: BTreeMap<String, ContextKey> = BTreeMap::new();
        let priors = plan.priors(|sig| {
            let key = ContextKey::new(frames.intern(sig), 0x40);
            keys.insert(sig.to_owned(), key);
            Some(key)
        });
        let (proven_safe, _, _) = priors.census();
        prop_assert_eq!(proven_safe, 0, "fleet priors must never prove a context safe");
        for sig in &trapped {
            let key = keys.get(sig).expect("every seed signature was resolved");
            prop_assert_eq!(priors.class_of(*key), Some(RiskClass::Suspicious));
        }

        // The plan composes into a valid runtime configuration.
        plan.apply(&mut config);
        config.priors = priors;
        prop_assert!(config.validate().is_ok(), "planned config must validate");
    }
}

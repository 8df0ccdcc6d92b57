//! Fleet aggregation benchmark: what the chunked, parallel ingest
//! pipeline buys over naive record-at-a-time aggregation
//! (DESIGN.md §15).
//!
//! Two layers are measured:
//!
//! 1. **Merge layer** (`merge_*`): a synthetic fleet of per-process
//!    WALs ingested into a `FleetStore` twice — once through
//!    `ingest_serial` (the naive discipline: one record at a time, one
//!    journal fsync per process) and once through `ingest_parallel`
//!    (chunked fan-out parse, one store merge and one group-commit
//!    fsync per chunk). Both sides are durable; the
//!    speedup is the pipeline's group-commit + fan-out win, and the
//!    two stores are asserted to hold identical evidence on every
//!    round. The in-memory variant of the same pair isolates the CPU
//!    half (no durability) and yields the records/sec throughput.
//! 2. **Round layer** (`fleet_*`): a full 1000-process fleet round —
//!    launch, parallel ingest with checkpoint, budget plan — through
//!    `workloads::run_fleet_round`, the wall-clock a nightly fleet
//!    soak pays per generation, plus the budget the plan settled on.
//!
//! ```bash
//! cargo run --release -p csod-bench --bin bench_fleet             # writes BENCH_fleet.json
//! cargo run --release -p csod-bench --bin bench_fleet -- --check BENCH_fleet.json
//! ```
//!
//! `--check <baseline>` re-runs the measurements and exits non-zero when
//! a tracked ms metric regressed to more than twice the committed
//! baseline, or the merge speedup fell below the floor — the CI
//! perf-smoke gate.

use csod_bench::{best_of, BenchArgs, Metrics, REGRESSION_FACTOR};
use csod_fleet::{ingest_parallel, ingest_serial, FleetStore, IngestOptions, SamplingBudget};
use csod_persist::{RecordKind, Wal, WalRecord};
use csod_rng::Arc4Random;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{run_fleet_round, FleetRoundConfig};

/// Simulated processes in the merge-layer fleet.
const MERGE_PROCS: usize = 1024;
/// WAL records per merge-layer process.
const RECORDS_PER_PROC: usize = 24;
/// Hot signatures shared fleet-wide (the rest are per-process).
const HOT_SIGNATURES: usize = 32;
/// Worker threads for the parallel side (the driver sheds idle ones).
const THREADS: usize = 8;
/// Processes per ingest chunk — the group-commit granularity.
const CHUNK: usize = 32;
/// Processes in the round-layer fleet.
const ROUND_PROCS: usize = 1000;
/// Allocations per round-layer process.
const ROUND_ALLOCS: u64 = 120;
/// Timed rounds per scenario (the fastest is reported).
const ROUNDS: usize = 3;
/// Attempts per scenario (see [`best_of`]).
const ATTEMPTS: usize = 2;
/// `--check` also fails if the durable merge speedup drops below this
/// floor: group-commit + fan-out must stay worth ≥4× over naive ingest.
const SPEEDUP_FLOOR: f64 = 4.0;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("csod-bench-fleet-{tag}-{}", std::process::id()))
}

/// Writes the synthetic merge-layer fleet: every process logs a mix of
/// fleet-wide hot signatures and one private signature, with kinds and
/// boosts drawn deterministically from the process's seed.
fn write_fleet(dir: &PathBuf) -> Vec<PathBuf> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("bench scratch dir is creatable");
    (0..MERGE_PROCS)
        .map(|i| {
            let path = dir.join(format!("proc-{i}.wal"));
            let mut wal = Wal::open(&path);
            let mut rng = Arc4Random::from_seed(0xF1EE7 + i as u64, 3);
            for r in 0..RECORDS_PER_PROC {
                let sig = if r == 0 {
                    format!("proc{i}.c:1|main.c:1")
                } else {
                    format!(
                        "hot.c:{}|main.c:1",
                        rng.next_u64() as usize % HOT_SIGNATURES
                    )
                };
                let kind = match rng.next_u64() % 3 {
                    0 => RecordKind::CanaryEvidence,
                    1 => RecordKind::TrapSignature,
                    _ => RecordKind::Mitigated,
                };
                let boost = 500_000 + (rng.next_u64() % 500_001) as u32;
                wal.append(&WalRecord::new(kind, boost, sig));
            }
            wal.sync();
            path
        })
        .collect()
}

/// `(serial_ms, parallel_ms, records)` for one durable ingest pair over
/// the same WAL fleet, evidence-equality asserted.
fn merge_pair(paths: &[PathBuf], dir: &Path, durable: bool) -> (f64, f64, u64) {
    let mut best_serial = f64::INFINITY;
    let mut best_parallel = f64::INFINITY;
    let mut records = 0;
    for round in 0..=ROUNDS {
        let serial_store = FleetStore::new();
        let journal = dir.join("serial-journal.wal");
        let _ = std::fs::remove_file(&journal);
        let start = Instant::now();
        let s = ingest_serial(&serial_store, paths, durable.then_some(journal.as_path()));
        let serial_ms = start.elapsed().as_secs_f64() * 1e3;

        let parallel_store = FleetStore::new();
        let checkpoint = dir.join("fleet-checkpoint.wal");
        let _ = std::fs::remove_file(&checkpoint);
        let start = Instant::now();
        let p = ingest_parallel(
            &parallel_store,
            paths,
            &IngestOptions {
                threads: THREADS,
                chunk: CHUNK,
                checkpoint: durable.then(|| checkpoint.clone()),
            },
        );
        let parallel_ms = start.elapsed().as_secs_f64() * 1e3;

        assert_eq!(s.records, p.records, "both paths must read every record");
        assert_eq!(
            serial_store.evidence(),
            parallel_store.evidence(),
            "batched merge must commit the identical fleet knowledge"
        );
        records = p.records;
        if round > 0 {
            best_serial = best_serial.min(serial_ms);
            best_parallel = best_parallel.min(parallel_ms);
        }
    }
    (best_serial, best_parallel, records)
}

/// `(round_ms, budget_ppm, avg_overhead, detections)` for one full
/// fleet round of [`ROUND_PROCS`] simulated processes.
fn fleet_round() -> (f64, f64, f64, f64) {
    let dir = scratch("round");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = FleetRoundConfig {
        processes: ROUND_PROCS,
        buggy_every: 50,
        buggy_offset: 0,
        allocations: ROUND_ALLOCS,
        threads: THREADS,
        chunk: CHUNK,
        budget: SamplingBudget::default(),
        ..FleetRoundConfig::default()
    };
    let start = Instant::now();
    let outcome = run_fleet_round(&cfg, &dir, None);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(
        outcome.all_buggy_accounted(),
        "every buggy process must detect or be mitigated"
    );
    assert!(
        u64::from(outcome.plan.initial_ppm) <= u64::from(cfg.budget.per_process_budget_ppm),
        "the plan must respect the global overhead bound"
    );
    let _ = std::fs::remove_dir_all(&dir);
    (
        ms,
        f64::from(outcome.plan.initial_ppm),
        outcome.avg_overhead,
        outcome.detections as f64,
    )
}

fn measure() -> Metrics {
    let dir = scratch("merge");
    eprintln!("fleet bench: writing {MERGE_PROCS} WALs x {RECORDS_PER_PROC} records...");
    let paths = write_fleet(&dir);
    eprintln!("fleet bench: durable merge, serial journal vs group-commit...");
    let (durable_parallel, (durable_serial, records)) = best_of(ATTEMPTS, || {
        let (serial, parallel, records) = merge_pair(&paths, &dir, true);
        (parallel, (serial, records))
    });
    eprintln!("fleet bench: in-memory merge (CPU half only)...");
    let (mem_parallel, mem_serial) = best_of(ATTEMPTS, || {
        let (serial, parallel, _) = merge_pair(&paths, &dir, false);
        (parallel, serial)
    });
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("fleet bench: {ROUND_PROCS}-process fleet round...");
    let (round_ms, (budget_ppm, avg_overhead, detections)) = best_of(ATTEMPTS, || {
        let (ms, ppm, overhead, det) = fleet_round();
        (ms, (ppm, overhead, det))
    });
    Metrics(vec![
        ("merge_records", records as f64),
        ("merge_serial_ms", durable_serial),
        ("merge_parallel_ms", durable_parallel),
        ("merge_parallel_speedup", durable_serial / durable_parallel),
        ("merge_mem_serial_ms", mem_serial),
        ("merge_mem_parallel_ms", mem_parallel),
        (
            "merge_records_per_sec",
            records as f64 / (mem_parallel / 1e3),
        ),
        ("fleet_round_ms", round_ms),
        ("fleet_round_processes", ROUND_PROCS as f64),
        ("fleet_budget_ppm", budget_ppm),
        ("fleet_avg_overhead", avg_overhead),
        ("fleet_detections", detections),
    ])
}

fn main() {
    let args = BenchArgs::from_env("BENCH_fleet.json");
    let mut best = measure();
    best.print("fleet-scale trap aggregation", 28, 12);
    let mut failed = false;
    if let Some(baseline) = args.baseline() {
        let keys = ["merge_parallel_ms", "fleet_round_ms"];
        best.remeasure_while(
            "fleet bench",
            |r| r.get("merge_parallel_speedup") < SPEEDUP_FLOOR || baseline.regressed(r, &keys),
            measure,
            |k, kept, fresh| {
                if k.ends_with("_ms") {
                    kept.min(fresh)
                } else if k == "merge_parallel_speedup" {
                    kept.max(fresh)
                } else {
                    kept
                }
            },
        );
        failed = baseline.check(&best, &keys);
        let speedup = best.get("merge_parallel_speedup");
        let verdict = if speedup < SPEEDUP_FLOOR {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "check merge_parallel_speedup: {speedup:.2} vs floor {SPEEDUP_FLOOR:.2} ({verdict})"
        );
        if !failed {
            println!("perf smoke passed");
        }
    }
    args.finish(
        &best,
        failed,
        &format!("perf smoke FAILED: fleet merge below {SPEEDUP_FLOOR}x or slower than {REGRESSION_FACTOR}x baseline"),
    );
}

//! Baseline validator: fails fast on malformed or incomplete
//! `BENCH_*.json` files *before* CI's diff and `--check` steps consume
//! them, so a truncated commit or a hand-edited baseline produces one
//! clear error instead of a confusing downstream comparison.
//!
//! ```bash
//! cargo run --release -p csod-bench --bin bench_validate              # validates ./BENCH_*.json
//! cargo run --release -p csod-bench --bin bench_validate -- a.json b.json
//! ```
//!
//! A baseline is valid when it is a flat JSON object of `"key": number`
//! pairs, every number is finite, and — for the benchmark families this
//! repo commits — the keys its `--check` gate reads are present.

use csod_bench::parse_flat;
use std::path::Path;

/// The keys each committed baseline's `--check` gate actually reads.
/// A baseline missing one of these would make its gate panic mid-CI.
const REQUIRED: &[(&str, &[&str])] = &[
    (
        "BENCH_fastpath.json",
        &[
            "uncontended_cached_ns_per_alloc",
            "uncontended_cached_ns_per_free",
            "churn_ns_per_pair",
        ],
    ),
    (
        "BENCH_freepath.json",
        &[
            "unwatched_ns_per_free",
            "watched_deferred_ns_per_free",
            "trap_dispatch_fd_index_ns",
        ],
    ),
    (
        "BENCH_tracing.json",
        &["traced_ns_per_alloc", "untraced_ns_per_alloc"],
    ),
    ("BENCH_fleet.json", &["merge_parallel_ms", "fleet_round_ms"]),
    (
        "BENCH_backend.json",
        &["null_ns_per_alloc", "null_ns_per_free"],
    ),
    ("BENCH_analyze.json", &["analyze_ms_k2"]),
];

fn validate(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let keys = parse_flat(&text)?;
    let file = Path::new(path)
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or(path);
    if let Some((_, required)) = REQUIRED.iter().find(|(name, _)| *name == file) {
        for need in *required {
            if !keys.iter().any(|(k, _)| k == need) {
                return Err(format!(
                    "missing required field {need:?} (its --check gate reads it)"
                ));
            }
        }
    }
    Ok(keys.len())
}

fn main() {
    let mut paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        // Default: every committed baseline in the working directory.
        let mut found: Vec<String> = std::fs::read_dir(".")
            .expect("readable working directory")
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        found.sort();
        paths = found;
    }
    if paths.is_empty() {
        eprintln!("bench_validate: no BENCH_*.json files found");
        std::process::exit(1);
    }
    let mut failed = false;
    for path in &paths {
        match validate(path) {
            Ok(n) => println!("{path}: ok ({n} metrics)"),
            Err(e) => {
                failed = true;
                eprintln!("{path}: INVALID — {e}");
            }
        }
    }
    if failed {
        eprintln!("bench_validate FAILED");
        std::process::exit(1);
    }
    println!("all baselines valid");
}

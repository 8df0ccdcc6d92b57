//! Table II: effectiveness results for 1,000 executions.
//!
//! Each buggy application is executed `--runs` times (default 1,000, the
//! paper's count) under each watchpoint-replacement policy; a run counts
//! as a detection when a hardware watchpoint fires on the overflow. The
//! workload trace is fixed (same buggy input); only CSOD's sampling seed
//! varies across runs, exactly as in repeated real executions.

use csod_bench::{header, row, runs_arg};
use csod_core::{CsodConfig, ReplacementPolicy};
use workloads::{run_parallel, BuggyApp, ToolSpec, TraceRunner};

fn main() {
    let runs = runs_arg(1_000);
    let seeds: Vec<u64> = (0..runs as u64).collect();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    header(&format!(
        "Table II: detections over {runs} executions per policy"
    ));
    let widths = [18, 8, 8, 11];
    println!(
        "{}",
        row(
            &[
                "Application".into(),
                "Naive".into(),
                "Random".into(),
                "Near-FIFO".into()
            ],
            &widths
        )
    );
    let mut totals = [0usize; 3];
    let apps = BuggyApp::all();
    for app in &apps {
        let registry = app.registry();
        let trace = app.trace(42);
        let mut cells = vec![app.name.to_string()];
        for (i, policy) in ReplacementPolicy::ALL.into_iter().enumerate() {
            let detections: usize = run_parallel(&seeds, threads, |&seed| {
                let mut config = CsodConfig::with_policy(policy);
                config.seed = seed;
                let outcome =
                    TraceRunner::new(&registry, ToolSpec::Csod(config)).run(trace.iter().copied());
                usize::from(outcome.watchpoint_detected)
            })
            .into_iter()
            .sum();
            totals[i] += detections;
            cells.push(detections.to_string());
        }
        println!("{}", row(&cells, &widths));
    }
    println!(
        "{}",
        row(
            &[
                "(total)".into(),
                totals[0].to_string(),
                totals[1].to_string(),
                totals[2].to_string()
            ],
            &widths
        )
    );
    let denom = (runs * apps.len()) as f64;
    println!(
        "\naverage detection probability: naive {:.1}%, random {:.1}%, near-FIFO {:.1}%",
        100.0 * totals[0] as f64 / denom,
        100.0 * totals[1] as f64 / denom,
        100.0 * totals[2] as f64 / denom,
    );
}

//! Ablation: sensitivity of the detection probability to the sampling
//! constants of Section III-B2.
//!
//! The paper fixes the constants at compile time ("these numbers
//! generally work well"); this harness sweeps each one on the two
//! hardest workloads (Heartbleed and MySQL, near-FIFO policy) to show
//! where the defaults sit on the curve.

use csod_bench::{header, row, runs_arg};
use csod_core::{CsodConfig, ReplacementPolicy, SamplingParams};
use csod_rng::PPM_SCALE;
use workloads::{run_parallel, BuggyApp, ToolSpec, TraceRunner};

fn detection_rate(app: &BuggyApp, params: SamplingParams, runs: usize) -> f64 {
    let registry = app.registry();
    let trace = app.trace(42);
    let seeds: Vec<u64> = (0..runs as u64).collect();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let detections: usize = run_parallel(&seeds, threads, |&seed| {
        let mut config = CsodConfig::with_policy(ReplacementPolicy::NearFifo);
        config.sampling = params;
        config.seed = seed;
        let outcome =
            TraceRunner::new(&registry, ToolSpec::Csod(config)).run(trace.iter().copied());
        usize::from(outcome.watchpoint_detected)
    })
    .into_iter()
    .sum();
    detections as f64 / runs as f64
}

fn main() {
    let runs = runs_arg(200);
    let apps: Vec<BuggyApp> = ["heartbleed", "mysql"]
        .iter()
        .map(|n| BuggyApp::by_name(n).expect("known app"))
        .collect();
    let widths = [26, 12, 12];

    header(&format!(
        "Ablation: initial probability sweep ({runs} runs, near-FIFO)"
    ));
    println!(
        "{}",
        row(
            &["initial prob".into(), "Heartbleed".into(), "MySQL".into()],
            &widths
        )
    );
    for pct in [10u32, 25, 50, 75, 100] {
        let params = SamplingParams {
            initial_ppm: PPM_SCALE / 100 * pct,
            ..SamplingParams::default()
        };
        let cells: Vec<String> = apps
            .iter()
            .map(|a| format!("{:.1}%", 100.0 * detection_rate(a, params, runs)))
            .collect();
        println!(
            "{}",
            row(
                &[
                    format!("{pct}%{}", if pct == 50 { " (paper)" } else { "" }),
                    cells[0].clone(),
                    cells[1].clone()
                ],
                &widths
            )
        );
    }

    header("Ablation: per-allocation degradation sweep");
    println!(
        "{}",
        row(
            &[
                "degradation/alloc".into(),
                "Heartbleed".into(),
                "MySQL".into()
            ],
            &widths
        )
    );
    for (label, ppm) in [
        ("0", 0u32),
        ("0.001% (paper)", 10),
        ("0.01%", 100),
        ("0.1%", 1_000),
    ] {
        let params = SamplingParams {
            degrade_per_alloc_ppm: ppm,
            ..SamplingParams::default()
        };
        let cells: Vec<String> = apps
            .iter()
            .map(|a| format!("{:.1}%", 100.0 * detection_rate(a, params, runs)))
            .collect();
        println!(
            "{}",
            row(&[label.into(), cells[0].clone(), cells[1].clone()], &widths)
        );
    }

    header("Ablation: probability floor sweep");
    println!(
        "{}",
        row(
            &["floor".into(), "Heartbleed".into(), "MySQL".into()],
            &widths
        )
    );
    for (label, ppm) in [
        ("0.0001%", 1u32),
        ("0.001% (paper)", 10),
        ("0.1%", 1_000),
        ("1%", 10_000),
    ] {
        let params = SamplingParams {
            floor_ppm: ppm,
            ..SamplingParams::default()
        };
        let cells: Vec<String> = apps
            .iter()
            .map(|a| format!("{:.1}%", 100.0 * detection_rate(a, params, runs)))
            .collect();
        println!(
            "{}",
            row(&[label.into(), cells[0].clone(), cells[1].clone()], &widths)
        );
    }

    header("Ablation: burst threshold sweep (allocations per 10s window)");
    println!(
        "{}",
        row(
            &[
                "burst threshold".into(),
                "Heartbleed".into(),
                "MySQL".into()
            ],
            &widths
        )
    );
    for (label, threshold) in [("500", 500u32), ("5000 (paper)", 5_000), ("50000", 50_000)] {
        let params = SamplingParams {
            burst_threshold: threshold,
            ..SamplingParams::default()
        };
        let cells: Vec<String> = apps
            .iter()
            .map(|a| format!("{:.1}%", 100.0 * detection_rate(a, params, runs)))
            .collect();
        println!(
            "{}",
            row(&[label.into(), cells[0].clone(), cells[1].clone()], &widths)
        );
    }
}

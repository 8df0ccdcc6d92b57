//! Ablation: how many hardware watchpoints would CSOD want?
//!
//! The paper's central constraint is that "there are only four available"
//! debug registers (Section I). The simulator can ask the what-if
//! question: with hypothetical hardware offering 1..32 registers, how
//! does the per-execution detection probability of the hard workloads
//! change, and what does the extra install traffic cost? (Spoiler: with
//! the adaptive sampling doing its job, surprisingly little — see the
//! closing note.)

use csod_bench::{header, row, runs_arg};
use csod_core::{CsodConfig, ReplacementPolicy};
use workloads::{run_parallel, BuggyApp, PerfApp, ToolSpec, TraceRunner};

fn main() {
    let runs = runs_arg(200);
    let seeds: Vec<u64> = (0..runs as u64).collect();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let apps: Vec<BuggyApp> = ["heartbleed", "memcached", "mysql", "zziplib"]
        .iter()
        .map(|n| BuggyApp::by_name(n).expect("known app"))
        .collect();
    header(&format!(
        "Ablation: watchpoint-register count vs detection ({runs} runs, near-FIFO)"
    ));
    let widths = [12, 12, 12, 12, 12];
    println!(
        "{}",
        row(
            &[
                "registers".into(),
                "Heartbleed".into(),
                "Memcached".into(),
                "MySQL".into(),
                "Zziplib".into(),
            ],
            &widths
        )
    );
    for slots in [1usize, 2, 4, 8, 16, 32] {
        let mut cells = vec![if slots == 4 {
            "4 (x86-64)".to_string()
        } else {
            slots.to_string()
        }];
        for app in &apps {
            let registry = app.registry();
            let trace = app.trace(42);
            let detections: usize = run_parallel(&seeds, threads, |&seed| {
                let mut config = CsodConfig::with_policy(ReplacementPolicy::NearFifo);
                config.watchpoint_slots = slots;
                config.seed = seed;
                usize::from(
                    TraceRunner::new(&registry, ToolSpec::Csod(config))
                        .run(trace.iter().copied())
                        .watchpoint_detected,
                )
            })
            .into_iter()
            .sum();
            cells.push(format!("{:.0}%", 100.0 * detections as f64 / runs as f64));
        }
        println!("{}", row(&cells, &widths));
    }

    header("...and what the extra registers cost (MySQL perf model)");
    let app = PerfApp::by_name("mysql").expect("known app");
    let registry = app.registry();
    println!(
        "{}",
        row(
            &["registers".into(), "overhead".into(), "installs".into()],
            &[12, 12, 12]
        )
    );
    for slots in [1usize, 4, 16] {
        let config = CsodConfig {
            watchpoint_slots: slots,
            ..CsodConfig::default()
        };
        let outcome = app.run(&registry, ToolSpec::Csod(config), 1);
        println!(
            "{}",
            row(
                &[
                    slots.to_string(),
                    format!("{:.3}", outcome.overhead),
                    outcome.watched_times.to_string(),
                ],
                &[12, 12, 12]
            )
        );
    }
    println!("\nreading: once the adaptive sampling is in place, detection is nearly");
    println!("FLAT in the register count — the binding constraint is the per-context");
    println!("sampling decision at the buggy allocation, not register pressure.");
    println!("That is the paper's design working as intended: the context-sensitive");
    println!("probabilities are what squeeze millions of objects through four");
    println!("registers; more registers would mostly buy more install traffic.");
}

//! The CSOD benchmark: one closed-loop workload per run, end-to-end
//! metrics from an untraced run (`--trace 0`) and per-layer metrics from
//! a traced one (`--trace 1`).
//!
//! ```bash
//! cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig7-apps --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line on stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (name → value and unit). Spans of a traced run
//! are written to `.bench_build/perfbench/spans-<workload>-<seed>.jsonl`.

mod e2e;
mod layers;
mod ledger;
mod spans;
mod stats;
mod streams;

use e2e::{Inputs, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Every end-to-end metric, in output order, with its unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_overhead", "ratio"),
    ("allocs_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("virt_overhead", "ratio"),
    ("detect_rate", "share"),
    ("peak_rss_mb", "MiB"),
];

/// Times the inputs are built; `setup_s` is the median.
const SETUP_REPS: usize = 15;

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be between 1 and 600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&workload_name).ok_or_else(|| {
            format!("unknown workload {workload_name} (fig7-apps, table2-bugs, fleet-loop)")
        })?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, from `/proc/self/status`,
/// including the reference kernel's tables.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <fig7-apps|table2-bugs|fleet-loop> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_build").join("perfbench");
    let scratch = root.join(format!(
        "scratch-{}-{}",
        args.workload_name,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous build first, so peak memory holds one copy.
        drop(inputs.take());
        let t0 = Instant::now();
        let built = std::hint::black_box(Inputs::build(args.workload, args.seed, &scratch));
        let host_s = t0.elapsed().as_secs_f64();
        setup_s.push(host_s * stats::REFERENCE_S / stats::reference_on(1));
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one setup");
    let budget = Duration::from_secs(args.seconds);

    let (measured, table) = if args.trace {
        let spans = root.join(format!("spans-{}-{}.jsonl", args.workload_name, args.seed));
        (
            e2e::trace(&inputs, budget, &scratch, &spans),
            ledger::PER_LAYER,
        )
    } else {
        let mut m = e2e::measure(&inputs, budget);
        m.metrics.push(("setup_s", stats::median(&setup_s)));
        m.metrics
            .push(("peak_rss_mb", peak_rss_mb() - stats::reference_mb()));
        (m, END_TO_END)
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let mut json = String::new();
    for (i, &(name, unit)) in table.iter().enumerate() {
        let value = measured
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric {name} not measured"));
        eprintln!("{name:>34} {value:>16.4} {unit}");
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        measured.failed == 0 && measured.attempted > 0,
        measured.attempted.max(1),
        measured.failed
    );
}

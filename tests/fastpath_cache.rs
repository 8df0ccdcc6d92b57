//! The per-thread decision cache must be invisible to detection: every
//! probability-changing event flushes it, and running the buggy workload
//! suite through the cached fast path finds the same overflows as the
//! uncached sampler (`decision_cache_refresh = 1`, the pre-cache
//! behaviour kept as a comparison mode).

use csod::core::{
    paper, AnalysisPriors, ContextJudgment, CsodConfig, DecisionCache, RiskClass, SamplingParams,
    SamplingUnit,
};
use csod::ctx::{CallingContext, ContextKey, FrameTable};
use csod::machine::{VirtDuration, VirtInstant};
use csod::rng::{Arc4Random, PPM_SCALE};
use csod::workloads::{BuggyApp, ToolSpec, TraceRunner};

fn fixture(frames: &FrameTable, name: &str) -> (ContextKey, CallingContext) {
    let ctx = CallingContext::from_locations(frames, [name, "main.c:1"]);
    (
        ContextKey::new(ctx.first_level().expect("non-empty"), 0x40),
        ctx,
    )
}

fn prob(unit: &SamplingUnit, key: ContextKey) -> u32 {
    unit.state(key).expect("context seen").probability_ppm()
}

#[test]
fn watch_install_invalidates_the_cache() {
    let frames = FrameTable::new();
    let mut unit = SamplingUnit::new(SamplingParams::default());
    let mut rng = Arc4Random::from_seed(3, 0);
    let mut cache = DecisionCache::new(64);
    let (key, ctx) = fixture(&frames, "watched.c:1");
    for _ in 0..8 {
        cache.on_allocation(&mut unit, key, VirtInstant::BOOT, &mut rng, &ctx, |_| {
            ContextJudgment::clear()
        });
    }
    let before = cache.stats().invalidations;
    let p_before = prob(&unit, key);
    unit.on_watched(key); // halves the probability and bumps the epoch
    let d = cache.on_allocation(&mut unit, key, VirtInstant::BOOT, &mut rng, &ctx, |_| {
        ContextJudgment::clear()
    });
    assert_eq!(cache.stats().invalidations, before + 1);
    assert!(
        d.probability_ppm < p_before,
        "the fresh verdict sees the halved probability ({} !< {p_before})",
        d.probability_ppm
    );
}

#[test]
fn burst_entry_and_exit_invalidate_the_cache() {
    let frames = FrameTable::new();
    let params = SamplingParams::default();
    let mut unit = SamplingUnit::new(params);
    let mut rng = Arc4Random::from_seed(5, 0);
    let mut cache = DecisionCache::new(64);
    let (key, ctx) = fixture(&frames, "bursty.c:1");
    let start = cache.stats().invalidations;
    // Enough allocations inside one window that a refresh miss lands
    // past the threshold: cached allocations only reach the sampler's
    // burst check when their batch is absorbed, so the throttle can lag
    // by up to `refresh` allocations (the documented convergence bound).
    for _ in 0..params.burst_threshold + 2 * 64 {
        cache.on_allocation(&mut unit, key, VirtInstant::BOOT, &mut rng, &ctx, |_| {
            ContextJudgment::clear()
        });
    }
    cache.flush(&mut unit);
    assert_eq!(
        prob(&unit, key),
        paper::BURST_THROTTLE_PPM,
        "throttled to 0.0001%"
    );
    assert!(
        cache.stats().invalidations > start,
        "burst entry must flush cached verdicts"
    );
    // Past the window the next decision exits the burst and restores
    // the floor — and flushes the caches again so no thread keeps
    // deciding at the throttled probability.
    let later = VirtInstant::BOOT + VirtDuration::from_secs(11);
    let mid = cache.stats().invalidations;
    cache.on_allocation(&mut unit, key, later, &mut rng, &ctx, |_| {
        ContextJudgment::clear()
    });
    cache.flush(&mut unit);
    assert_eq!(prob(&unit, key), params.floor_ppm, "recovered to the floor");
    assert!(
        cache.stats().invalidations > mid,
        "burst exit must flush cached verdicts"
    );
}

#[test]
fn revive_invalidates_the_cache() {
    let frames = FrameTable::new();
    let params = SamplingParams {
        revive_chance_ppm: PPM_SCALE, // deterministic once eligible
        ..SamplingParams::default()
    };
    let mut unit = SamplingUnit::new(params);
    let mut rng = Arc4Random::from_seed(9, 0);
    let mut cache = DecisionCache::new(64);
    let (key, ctx) = fixture(&frames, "quiet.c:1");
    cache.on_allocation(&mut unit, key, VirtInstant::BOOT, &mut rng, &ctx, |_| {
        ContextJudgment::clear()
    });
    for _ in 0..32 {
        unit.on_watched(key); // halve down to the floor
    }
    // Mark the floor, wait out the quiet period, allocate once more.
    cache.on_allocation(&mut unit, key, VirtInstant::BOOT, &mut rng, &ctx, |_| {
        ContextJudgment::clear()
    });
    assert_eq!(prob(&unit, key), params.floor_ppm);
    let later = VirtInstant::BOOT + paper::REVIVE_PERIOD + VirtDuration::from_secs(1);
    let before = cache.stats().invalidations;
    let d = cache.on_allocation(&mut unit, key, later, &mut rng, &ctx, |_| {
        ContextJudgment::clear()
    });
    assert_eq!(d.probability_ppm, paper::REVIVE_PPM, "revived to 0.01%");
    assert!(
        cache.stats().invalidations > before,
        "reviving must flush cached verdicts"
    );
}

#[test]
fn priors_update_invalidates_the_cache() {
    let frames = FrameTable::new();
    let mut unit = SamplingUnit::new(SamplingParams::default());
    let mut rng = Arc4Random::from_seed(11, 0);
    let mut cache = DecisionCache::new(64);
    let (key, ctx) = fixture(&frames, "risky.c:1");
    for _ in 0..8 {
        cache.on_allocation(&mut unit, key, VirtInstant::BOOT, &mut rng, &ctx, |_| {
            ContextJudgment::clear()
        });
    }
    cache.flush(&mut unit); // absorb pending so the re-based value reads exactly
    let before = cache.stats().invalidations;
    unit.update_priors(AnalysisPriors::from_classes([(key, RiskClass::Suspicious)]));
    let d = cache.on_allocation(&mut unit, key, VirtInstant::BOOT, &mut rng, &ctx, |_| {
        ContextJudgment::clear()
    });
    assert_eq!(cache.stats().invalidations, before + 1);
    assert_eq!(
        d.probability_ppm,
        AnalysisPriors::DEFAULT_SUSPICIOUS_PPM,
        "the fresh verdict is re-based on the suspicious prior"
    );
}

fn run(app: &BuggyApp, seed: u64, refresh: u32) -> csod::workloads::RunOutcome {
    let registry = app.registry();
    let trace = app.trace(42);
    let mut config = CsodConfig::with_seed(seed);
    config.fast_path.decision_cache_refresh = refresh;
    TraceRunner::new(&registry, ToolSpec::Csod(config)).run(trace.iter().copied())
}

#[test]
fn canary_detection_parity_is_exact() {
    // Canary evidence is placed and checked on every object regardless
    // of the sampling verdict, so caching verdicts must not change it
    // for any app or seed — write overflows stay caught, read
    // overflows stay canary-invisible.
    for app in BuggyApp::all() {
        for seed in 0..8 {
            let cached = run(&app, seed, 64);
            let uncached = run(&app, seed, 1);
            assert_eq!(
                cached.evidence_detected, uncached.evidence_detected,
                "{} seed {seed}: canary detection must match exactly",
                app.name
            );
        }
    }
}

#[test]
fn sure_detections_survive_caching() {
    // Apps the uncached sampler catches on every run must stay at 100%
    // through the cached fast path: the cache never loses a detection.
    for name in ["gzip", "libtiff", "polymorph"] {
        let app = BuggyApp::by_name(name).expect("known app");
        for seed in 0..20 {
            assert!(
                run(&app, seed, 1).detected,
                "{name} seed {seed}: uncached baseline detects"
            );
            assert!(
                run(&app, seed, 64).detected,
                "{name} seed {seed}: cached fast path must too"
            );
        }
    }
}

#[test]
fn watchpoint_detection_rate_matches_uncached() {
    // Watchpoint placement is probabilistic and the cache changes how
    // the per-thread generator stream is consumed, so per-seed outcomes
    // legitimately differ; the detection *rate* across the suite must
    // not. (Paper Table II averages 58% across the nine applications.)
    let runs = 24;
    let rate = |refresh: u32| -> f64 {
        let mut detections = 0u32;
        let mut total = 0u32;
        for app in BuggyApp::all() {
            for seed in 0..runs {
                detections += u32::from(run(&app, seed, refresh).watchpoint_detected);
                total += 1;
            }
        }
        f64::from(detections) / f64::from(total)
    };
    let cached = rate(64);
    let uncached = rate(1);
    assert!(
        (cached - uncached).abs() <= 0.10,
        "cached rate {cached:.3} drifted from uncached rate {uncached:.3}"
    );
}

/// Counters of two thread caches driven over one fixed stream.
fn two_cache_accounting() -> ([(u64, u64, u64); 2], u64, u64) {
    let frames = FrameTable::new();
    let mut unit = SamplingUnit::new(SamplingParams::default());
    let sites: Vec<(ContextKey, CallingContext)> = (0..6)
        .map(|i| fixture(&frames, &format!("site{i}.c:1")))
        .collect();
    let mut caches = [DecisionCache::new(8), DecisionCache::new(8)];
    let mut rngs = [Arc4Random::from_seed(21, 0), Arc4Random::from_seed(21, 1)];
    let mut now = VirtInstant::BOOT;
    let mut made = 0u64;
    for i in 0..2_000usize {
        // Two threads interleave over overlapping sites; every 37th
        // allocation a watch install bumps the epoch, so both caches
        // invalidate and then refill entries they had held before.
        let t = i % 2;
        let (key, ctx) = &sites[(i * 5 / 2 + t) % sites.len()];
        let judge = |_: &CallingContext| ContextJudgment::clear();
        caches[t].on_allocation(&mut unit, *key, now, &mut rngs[t], ctx, judge);
        made += 1;
        if i % 37 == 36 {
            unit.on_watched(sites[i % sites.len()].0);
        }
        if i % 500 == 499 {
            // Past one burst window: every memoized verdict expires.
            now = now + paper::BURST_WINDOW + VirtDuration::from_secs(1);
        }
    }
    for cache in &mut caches {
        cache.flush(&mut unit);
    }
    let counts = caches.each_ref().map(|c| {
        let s = c.stats();
        (s.hits, s.misses, s.invalidations)
    });
    (counts, made, unit.total_allocations())
}

#[test]
fn every_cached_allocation_is_absorbed_exactly_once() {
    let (counts, made, absorbed) = two_cache_accounting();
    assert_eq!(absorbed, made, "each allocation reaches the sampler once");
    // Pinned against the drain-on-invalidate cache this replaced:
    // hits, misses and invalidations per thread cache. The closing
    // flush is not an epoch change and counts no invalidation.
    assert_eq!(counts, [(663, 337, 54), (662, 338, 54)]);
}

//! Randomized workload generation for pipeline-level property testing.
//!
//! [`FuzzWorkload`] draws a random-but-valid application (context count,
//! allocation pattern, lifetimes, access traffic, thread count, and
//! optionally one injected continuous overflow) from a seed. The test
//! suites use it to check end-to-end invariants the hand-written models
//! cannot cover exhaustively: *no tool ever reports a bug in a clean
//! workload; every tool's bookkeeping survives any workload shape*.

use crate::sites::SiteRegistry;
use crate::trace::Event;
use csod_ctx::FrameTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_machine::AccessKind;
use std::sync::Arc;

/// A randomly drawn application model.
#[derive(Debug)]
pub struct FuzzWorkload {
    /// The application's sites.
    pub registry: SiteRegistry,
    /// The event trace.
    pub trace: Vec<Event>,
    /// Whether an overflow was injected (and where in Table-III terms).
    pub bug: Option<FuzzBug>,
}

/// Description of the injected bug, for assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzBug {
    /// Over-read or over-write.
    pub kind: AccessKind,
    /// How many out-of-bounds words the overflow touches.
    pub extent: u64,
    /// Allocation-site index of the overflowed object.
    pub ctx: usize,
}

impl FuzzWorkload {
    /// Draws a workload. `inject_bug` controls whether one continuous
    /// overflow is placed at a random allocation.
    pub fn generate(seed: u64, inject_bug: bool) -> FuzzWorkload {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF0EE_u64);
        let contexts = rng.gen_range(1..=40usize);
        let allocs = rng.gen_range(contexts as u64..=(contexts as u64) * 30);
        let threads = rng.gen_range(1..=4u8);
        let accesses_per_alloc = rng.gen_range(0..=4u32);
        let free_prob = rng.gen_range(0.0..=0.95f64);

        let mut registry = SiteRegistry::new("fuzzapp", Arc::new(FrameTable::new()));
        for _ in 0..contexts {
            registry.add_alloc_site(rng.gen_range(2..=6));
        }
        let use_site = registry.add_access_site("fuzzapp", "use.c:1");
        let bug_site = registry.add_access_site("fuzzapp", "smash.c:1");
        // A small function pool: allocations randomly run inside one or
        // two nested calls, exercising the analyzer's call strings. The
        // call structure draws from its own RNG so the workload shape
        // stays identical to a call-free draw of the same seed.
        let mut call_rng = StdRng::seed_from_u64(seed ^ 0xCA11_u64);
        let functions = call_rng.gen_range(1..=6usize);
        for f in 0..functions {
            registry.add_function(&format!("fn_{f}"));
        }

        let mut trace = Vec::new();
        for _ in 1..threads {
            trace.push(Event::SpawnThread);
        }
        let bug_alloc = inject_bug.then(|| rng.gen_range(0..allocs));
        let mut bug = None;
        let mut live: Vec<(usize, u64, u8)> = Vec::new(); // slot, size, thread
        for i in 0..allocs {
            let thread = rng.gen_range(0..threads);
            let slot = i as usize;
            let site = if (i as usize) < contexts {
                i as usize
            } else {
                rng.gen_range(0..contexts)
            };
            let size = rng.gen_range(1..=512u64);
            // 0, 1 or 2 levels of call nesting around this allocation's
            // block; always balanced so per-thread stacks stay clean.
            let depth = call_rng.gen_range(0..=2usize);
            for _ in 0..depth {
                trace.push(Event::Call {
                    thread,
                    func: call_rng.gen_range(0..functions),
                });
            }
            trace.push(Event::Malloc {
                thread,
                site,
                size,
                slot,
            });
            for _ in 0..accesses_per_alloc {
                let offset = rng.gen_range(0..size);
                let len = rng.gen_range(1..=(size - offset).min(8));
                let kind = if rng.gen_bool(0.5) {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                trace.push(Event::Access {
                    thread,
                    slot,
                    offset,
                    len,
                    kind,
                    site: use_site,
                });
            }
            if Some(i) == bug_alloc {
                let kind = if rng.gen_bool(0.5) {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                let extent = rng.gen_range(0..=64u64);
                trace.push(Event::OverflowAccess {
                    thread,
                    slot,
                    kind,
                    site: bug_site,
                });
                if extent > 0 {
                    trace.push(Event::OverflowBurst {
                        thread,
                        slot,
                        count: extent,
                        kind,
                        site: bug_site,
                    });
                }
                bug = Some(FuzzBug {
                    kind,
                    extent,
                    ctx: site,
                });
            }
            for _ in 0..depth {
                trace.push(Event::Return { thread });
            }
            live.push((slot, size, thread));
            // Random frees of earlier objects.
            if rng.gen_bool(free_prob) && live.len() > 1 {
                let victim = rng.gen_range(0..live.len() - 1);
                let (slot, _, thread) = live.swap_remove(victim);
                trace.push(Event::Free { thread, slot });
            }
        }
        // Random tail frees.
        for (slot, _, thread) in live {
            if rng.gen_bool(0.5) {
                trace.push(Event::Free { thread, slot });
            }
        }
        FuzzWorkload {
            registry,
            trace,
            bug,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{ToolSpec, TraceRunner};
    use asan_sim::AsanConfig;
    use csod_core::CsodConfig;
    use sampler_sim::SamplerConfig;

    #[test]
    fn generation_is_deterministic() {
        let a = FuzzWorkload::generate(9, true);
        let b = FuzzWorkload::generate(9, true);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.bug, b.bug);
    }

    #[test]
    fn clean_workloads_never_alarm_any_tool() {
        for seed in 0..25 {
            let w = FuzzWorkload::generate(seed, false);
            assert!(w.bug.is_none());
            let tools = [
                ToolSpec::Baseline,
                ToolSpec::Csod(CsodConfig::with_seed(seed)),
                ToolSpec::Asan {
                    config: AsanConfig::default(),
                    instrumented: vec!["fuzzapp".into()],
                },
                ToolSpec::Sampler(SamplerConfig {
                    sample_period: 7,
                    ..SamplerConfig::default()
                }),
            ];
            for tool in tools {
                let label = tool.label();
                let outcome = TraceRunner::new(&w.registry, tool).run(w.trace.iter().copied());
                assert!(
                    !outcome.detected,
                    "seed {seed}: {label} false-positived on a clean workload"
                );
            }
        }
    }

    #[test]
    fn asan_always_catches_injected_bugs_in_instrumented_code() {
        let mut bugs_seen = 0;
        for seed in 0..25 {
            let w = FuzzWorkload::generate(seed, true);
            let Some(_) = w.bug else { continue };
            bugs_seen += 1;
            let outcome = TraceRunner::new(
                &w.registry,
                ToolSpec::Asan {
                    config: AsanConfig::default(),
                    instrumented: vec!["fuzzapp".into()],
                },
            )
            .run(w.trace.iter().copied());
            assert!(outcome.detected, "seed {seed}: ASan must catch it");
        }
        assert!(bugs_seen >= 20, "bug injection must usually happen");
    }

    #[test]
    fn csod_catches_every_injected_bug_across_executions() {
        for seed in 0..10 {
            let w = FuzzWorkload::generate(seed, true);
            if w.bug.is_none() {
                continue;
            }
            let detected = (0..64).any(|s| {
                TraceRunner::new(&w.registry, ToolSpec::Csod(CsodConfig::with_seed(s)))
                    .run(w.trace.iter().copied())
                    .watchpoint_detected
            });
            assert!(
                detected,
                "seed {seed}: CSOD must detect within 64 executions"
            );
        }
    }

    #[test]
    fn csod_evidence_catches_every_injected_overwrite_in_one_run() {
        for seed in 0..20 {
            let w = FuzzWorkload::generate(seed, true);
            let Some(bug) = w.bug else { continue };
            if bug.kind != AccessKind::Write {
                continue;
            }
            let outcome = TraceRunner::new(&w.registry, ToolSpec::Csod(CsodConfig::with_seed(1)))
                .run(w.trace.iter().copied());
            assert!(
                outcome.detected,
                "seed {seed}: over-writes always leave trap or canary evidence"
            );
        }
    }
}

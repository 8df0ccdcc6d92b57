//! The nine buggy applications of the effectiveness evaluation
//! (paper Tables I, II and III).
//!
//! Each model is parameterised by the characteristics the paper measured
//! (Table III): the total number of allocation calling contexts and
//! allocations, and how many of each occurred *before the overflow*.
//! Together with three structural switches — whether the first four
//! objects stay alive (that is what starves the naive policy), whether a
//! watched early object is freed right before the bug allocation (what
//! lets the naive policy catch Libdwarf), and how often the bug's own
//! context allocated before the overflow (what drives its degraded
//! probability) — these statistics are exactly what determines CSOD's
//! per-execution detection probability.

use crate::sites::SiteRegistry;
use crate::trace::Event;
use csod_ctx::FrameTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_machine::AccessKind;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Bug class of a modelled application (Table I "Vulnerability").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowKind {
    /// Reads beyond the object (e.g. Heartbleed).
    OverRead,
    /// Writes beyond the object.
    OverWrite,
}

impl OverflowKind {
    /// The machine-level access kind of the overflowing statement.
    pub fn access_kind(self) -> AccessKind {
        match self {
            OverflowKind::OverRead => AccessKind::Read,
            OverflowKind::OverWrite => AccessKind::Write,
        }
    }
}

impl fmt::Display for OverflowKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverflowKind::OverRead => f.write_str("Over-read"),
            OverflowKind::OverWrite => f.write_str("Over-write"),
        }
    }
}

/// One buggy application model.
#[derive(Debug, Clone)]
pub struct BuggyApp {
    /// Application name as the paper prints it.
    pub name: &'static str,
    /// Bug class (Table I).
    pub vulnerability: OverflowKind,
    /// Bug reference (Table I).
    pub reference: &'static str,
    /// Total allocation calling contexts (Table III).
    pub total_contexts: usize,
    /// Total allocations (Table III).
    pub total_allocs: u64,
    /// Calling contexts observed before the overflow (Table III).
    pub contexts_before: usize,
    /// Allocations before the overflow (Table III).
    pub allocs_before: u64,
    /// Module containing the overflowing statement.
    pub bug_module: &'static str,
    /// The application's own module (instrumented under ASan).
    pub app_module: &'static str,
    /// Whether an ASan build would instrument `bug_module` — false for
    /// the three in-library bugs (Libtiff, LibHX, Zziplib).
    pub asan_instruments_bug_module: bool,
    /// Allocations from the bug's context before the bug allocation;
    /// each one risks a watch (and a probability halving).
    pub bug_ctx_prior_allocs: u64,
    /// First four objects stay alive to the end — with no free, the
    /// naive policy's four watchpoints are never released.
    pub long_lived_prefix: bool,
    /// Free one (still-watched-under-naive) early object right before
    /// the bug allocation, handing the naive policy a free register.
    pub free_early_before_bug: bool,
    /// In-bounds accesses generated per allocation.
    pub accesses_per_alloc: u32,
    /// How many further out-of-bounds words the continuous overflow
    /// touches after the first (Heartbleed copies up to 64 KB). The
    /// first word is what watchpoints and redzones catch; the extent is
    /// what access-sampling detectors rely on.
    pub overflow_extent: u64,
    /// Threads the application runs (the servers are multi-threaded;
    /// watchpoints must cover them all and the overflow may occur on a
    /// worker, not the thread that allocated the object).
    pub threads: usize,
}

impl BuggyApp {
    /// All nine applications, in Table I order.
    pub fn all() -> Vec<BuggyApp> {
        vec![
            BuggyApp {
                name: "Gzip-1.2.4",
                vulnerability: OverflowKind::OverWrite,
                reference: "BugBench",
                total_contexts: 1,
                total_allocs: 1,
                contexts_before: 1,
                allocs_before: 1,
                bug_module: "gzip",
                app_module: "gzip",
                asan_instruments_bug_module: true,
                bug_ctx_prior_allocs: 0,
                long_lived_prefix: false,
                free_early_before_bug: false,
                accesses_per_alloc: 2,
                overflow_extent: 127,
                threads: 1,
            },
            BuggyApp {
                name: "Heartbleed",
                vulnerability: OverflowKind::OverRead,
                reference: "CVE-2014-0160",
                total_contexts: 307,
                total_allocs: 5_403,
                contexts_before: 273,
                allocs_before: 5_392,
                bug_module: "openssl",
                app_module: "nginx",
                asan_instruments_bug_module: true,
                bug_ctx_prior_allocs: 1,
                long_lived_prefix: true,
                free_early_before_bug: false,
                accesses_per_alloc: 1,
                overflow_extent: 8191,
                threads: 4,
            },
            BuggyApp {
                name: "Libdwarf-20161021",
                vulnerability: OverflowKind::OverRead,
                reference: "CVE-2016-9276",
                total_contexts: 26,
                total_allocs: 152,
                contexts_before: 24,
                allocs_before: 147,
                bug_module: "libdwarf",
                app_module: "libdwarf",
                asan_instruments_bug_module: true,
                bug_ctx_prior_allocs: 0,
                long_lived_prefix: true,
                free_early_before_bug: true,
                accesses_per_alloc: 2,
                overflow_extent: 255,
                threads: 1,
            },
            BuggyApp {
                name: "LibHX-3.4",
                vulnerability: OverflowKind::OverWrite,
                reference: "CVE-2010-2947",
                total_contexts: 4,
                total_allocs: 5,
                contexts_before: 1,
                allocs_before: 1,
                bug_module: "libHX.so",
                app_module: "hxtest",
                asan_instruments_bug_module: false,
                bug_ctx_prior_allocs: 0,
                long_lived_prefix: false,
                free_early_before_bug: false,
                accesses_per_alloc: 2,
                overflow_extent: 15,
                threads: 1,
            },
            BuggyApp {
                name: "Libtiff-4.01",
                vulnerability: OverflowKind::OverWrite,
                reference: "CVE-2013-4243",
                total_contexts: 1,
                total_allocs: 1,
                contexts_before: 1,
                allocs_before: 1,
                bug_module: "libtiff.so",
                app_module: "gif2tiff",
                asan_instruments_bug_module: false,
                bug_ctx_prior_allocs: 0,
                long_lived_prefix: false,
                free_early_before_bug: false,
                accesses_per_alloc: 2,
                overflow_extent: 255,
                threads: 1,
            },
            BuggyApp {
                name: "Memcached-1.4.25",
                vulnerability: OverflowKind::OverWrite,
                reference: "CVE-2016-8706",
                total_contexts: 74,
                total_allocs: 442,
                contexts_before: 74,
                allocs_before: 442,
                bug_module: "memcached",
                app_module: "memcached",
                asan_instruments_bug_module: true,
                bug_ctx_prior_allocs: 4,
                long_lived_prefix: true,
                free_early_before_bug: false,
                accesses_per_alloc: 2,
                overflow_extent: 63,
                threads: 4,
            },
            BuggyApp {
                name: "MySQL-5.5.19",
                vulnerability: OverflowKind::OverWrite,
                reference: "CVE-2012-5612",
                total_contexts: 488,
                total_allocs: 57_464,
                contexts_before: 445,
                allocs_before: 57_356,
                bug_module: "mysqld",
                app_module: "mysqld",
                asan_instruments_bug_module: true,
                bug_ctx_prior_allocs: 4,
                long_lived_prefix: true,
                free_early_before_bug: false,
                accesses_per_alloc: 1,
                overflow_extent: 63,
                threads: 4,
            },
            BuggyApp {
                name: "Polymorph-0.4.0",
                vulnerability: OverflowKind::OverWrite,
                reference: "BugBench",
                total_contexts: 1,
                total_allocs: 1,
                contexts_before: 1,
                allocs_before: 1,
                bug_module: "polymorph",
                app_module: "polymorph",
                asan_instruments_bug_module: true,
                bug_ctx_prior_allocs: 0,
                long_lived_prefix: false,
                free_early_before_bug: false,
                accesses_per_alloc: 2,
                overflow_extent: 127,
                threads: 1,
            },
            BuggyApp {
                name: "Zziplib-0.13.62",
                vulnerability: OverflowKind::OverRead,
                reference: "CVE-2017-5974",
                total_contexts: 13,
                total_allocs: 17,
                contexts_before: 13,
                allocs_before: 17,
                bug_module: "libzzip.so",
                app_module: "unzzip",
                asan_instruments_bug_module: false,
                bug_ctx_prior_allocs: 4,
                long_lived_prefix: true,
                free_early_before_bug: false,
                accesses_per_alloc: 2,
                overflow_extent: 31,
                threads: 1,
            },
        ]
    }

    /// Looks an application up by (case-insensitive prefix of) name.
    pub fn by_name(name: &str) -> Option<BuggyApp> {
        let lower = name.to_ascii_lowercase();
        BuggyApp::all()
            .into_iter()
            .find(|a| a.name.to_ascii_lowercase().starts_with(&lower))
    }

    /// The 0-based index of the bug's allocation context.
    pub fn bug_ctx(&self) -> usize {
        self.contexts_before - 1
    }

    /// Builds the application's site registry: one allocation site per
    /// context, an in-bounds access site in the app module, and the
    /// overflowing site in `bug_module`.
    pub fn registry(&self) -> SiteRegistry {
        let mut reg = SiteRegistry::new(self.app_module, Arc::new(FrameTable::new()));
        for _ in 0..self.total_contexts {
            reg.add_alloc_site(4);
        }
        // Token 0: ordinary accesses; token 1: the overflowing statement.
        reg.add_access_site(self.app_module, "logic/use.c:210");
        reg.add_access_site(self.bug_module, "overflow/copy.c:81");
        // Function 0 is the dispatch loop; every allocation context is
        // served by one of up to eight handler functions, giving the
        // static analyzer real call strings to clone over.
        reg.add_function("dispatch");
        for h in 0..Self::handler_count(self.total_contexts) {
            reg.add_function(&format!("handler_{h}"));
        }
        reg
    }

    /// Handlers the dispatch loop fans out to (capped at eight).
    fn handler_count(total_contexts: usize) -> usize {
        total_contexts.clamp(1, 8)
    }

    /// Function index of the handler serving allocation context `ctx`.
    fn handler_of(&self, ctx: usize) -> usize {
        1 + ctx % Self::handler_count(self.total_contexts)
    }

    /// Modules an ASan build of this application would instrument.
    pub fn asan_instrumented(&self) -> Vec<String> {
        let mut modules = vec![self.app_module.to_owned()];
        if self.asan_instruments_bug_module && self.bug_module != self.app_module {
            modules.push(self.bug_module.to_owned());
        }
        modules
    }

    /// Generates the execution trace (deterministic per `gen_seed`).
    ///
    /// The trace realizes the Table III statistics: `allocs_before`
    /// allocations from `contexts_before` contexts, then THE overflow,
    /// then the rest. The overflowed object is the last pre-overflow
    /// allocation; its context first appears `bug_ctx_prior_allocs`
    /// allocations earlier.
    pub fn trace(&self, gen_seed: u64) -> Vec<Event> {
        let mut rng = StdRng::seed_from_u64(gen_seed ^ 0xB0661E5);
        let mut events = Vec::new();
        let threads = self.threads.clamp(1, 8) as u64;
        for _ in 1..threads {
            events.push(Event::SpawnThread);
        }
        let bug_ctx = self.bug_ctx();
        let n_pre = self.allocs_before;
        let prior = self
            .bug_ctx_prior_allocs
            .min(n_pre.saturating_sub(self.contexts_before as u64));

        // --- Plan the pre-overflow context sequence -----------------------
        // 1 mandatory allocation per non-bug context (introduction order),
        // `prior` allocations from the bug context spread over the middle,
        // the rest drawn from already-introduced contexts, and finally the
        // bug allocation itself.
        let non_bug: Vec<usize> = (0..self.contexts_before)
            .filter(|&c| c != bug_ctx)
            .collect();
        let mut sequence: Vec<usize> = Vec::with_capacity(n_pre as usize);
        sequence.extend(non_bug.iter().copied());
        let filler = n_pre.saturating_sub(1 + prior + non_bug.len() as u64);
        for _ in 0..filler {
            // Weighted towards earlier contexts (long-lived arenas etc.).
            let pick = non_bug[rng
                .gen_range(0..non_bug.len().max(1))
                .min(non_bug.len() - 1)];
            sequence.push(pick);
        }
        // Keep introductions early but shuffle the tail for realism.
        if sequence.len() > non_bug.len() {
            let tail_start = non_bug.len().min(sequence.len());
            let (head, tail) = sequence.split_at_mut(tail_start);
            let _ = head;
            // Fisher-Yates on the tail.
            for i in (1..tail.len()).rev() {
                tail.swap(i, rng.gen_range(0..=i));
            }
        }
        // Insert the bug context's prior allocations in the second half.
        for _ in 0..prior {
            let lo = sequence.len() / 2;
            let pos = rng.gen_range(lo..=sequence.len());
            sequence.insert(pos, bug_ctx);
        }
        debug_assert_eq!(sequence.len() as u64, n_pre.saturating_sub(1));

        // --- Emit events ---------------------------------------------------
        let mut next_slot = 0usize;
        // (free_after_alloc_index, slot) queue for short-lived objects.
        let mut pending_frees: VecDeque<(u64, usize)> = VecDeque::new();
        let mut emitted_allocs = 0u64;
        let use_site = sim_machine::SiteToken(0);
        let bug_site = sim_machine::SiteToken(1);
        let mut prefix_slots: Vec<usize> = Vec::new();

        let emit_alloc = |events: &mut Vec<Event>,
                          rng: &mut StdRng,
                          pending: &mut VecDeque<(u64, usize)>,
                          prefix_slots: &mut Vec<usize>,
                          emitted: &mut u64,
                          next_slot: &mut usize,
                          ctx: usize,
                          long_lived_prefix: bool,
                          accesses: u32| {
            // Release objects whose lifetime ended.
            while pending.front().is_some_and(|&(due, _)| due <= *emitted) {
                let (_, slot) = pending.pop_front().expect("front exists");
                events.push(Event::free(slot));
            }
            let slot = *next_slot;
            *next_slot += 1;
            let thread = (*emitted % threads) as u8;
            let size = rng.gen_range(2..=32u64) * 8;
            // The allocation and its accesses run inside the context's
            // handler: dispatch -> handler_<ctx % n>.
            events.push(Event::Call { thread, func: 0 });
            events.push(Event::Call {
                thread,
                func: self.handler_of(ctx),
            });
            events.push(Event::Malloc {
                thread,
                site: ctx,
                size,
                slot,
            });
            for _ in 0..accesses {
                let offset = rng.gen_range(0..size / 8) * 8;
                let kind = if rng.gen_bool(0.5) {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                events.push(Event::Access {
                    thread,
                    slot,
                    offset,
                    len: 8,
                    kind,
                    site: use_site,
                });
            }
            events.push(Event::Return { thread });
            events.push(Event::Return { thread });
            *emitted += 1;
            if *emitted <= 4 {
                prefix_slots.push(slot);
                if !long_lived_prefix {
                    // Prefix objects die mid-run when nothing pins them.
                    let lifetime = rng.gen_range(2..20u64);
                    pending.push_back((*emitted + lifetime, slot));
                }
            } else if rng.gen_bool(0.8) {
                let lifetime = rng.gen_range(2..40u64);
                pending.push_back((*emitted + lifetime, slot));
            }
            slot
        };

        for &ctx in &sequence {
            emit_alloc(
                &mut events,
                &mut rng,
                &mut pending_frees,
                &mut prefix_slots,
                &mut emitted_allocs,
                &mut next_slot,
                ctx,
                self.long_lived_prefix,
                self.accesses_per_alloc,
            );
        }

        // Libdwarf's shape: an early object — still watched under the
        // naive policy — is freed right before the buggy allocation.
        if self.free_early_before_bug {
            if let Some(&slot) = prefix_slots.first() {
                events.push(Event::free(slot));
            }
        }

        // THE bug allocation and, shortly after, the overflow.
        let bug_slot = emit_alloc(
            &mut events,
            &mut rng,
            &mut pending_frees,
            &mut prefix_slots,
            &mut emitted_allocs,
            &mut next_slot,
            bug_ctx,
            self.long_lived_prefix,
            self.accesses_per_alloc,
        );
        let overflow_thread = (threads - 1) as u8;
        events.push(Event::OverflowAccess {
            thread: overflow_thread,
            slot: bug_slot,
            kind: self.vulnerability.access_kind(),
            site: bug_site,
        });
        if self.overflow_extent > 0 {
            // The rest of the continuous overflow (memcpy past the first
            // word) — what gives access-sampling baselines their shot.
            events.push(Event::OverflowBurst {
                thread: overflow_thread,
                slot: bug_slot,
                count: self.overflow_extent,
                kind: self.vulnerability.access_kind(),
                site: bug_site,
            });
        }

        // --- Post-overflow tail --------------------------------------------
        let allocs_after = self.total_allocs - self.allocs_before;
        let contexts_after =
            (self.total_contexts - self.contexts_before).min(allocs_after as usize);
        for i in 0..allocs_after {
            let ctx = if (i as usize) < contexts_after {
                self.contexts_before + i as usize
            } else if self.contexts_before > 1 {
                rng.gen_range(0..self.contexts_before - 1)
            } else {
                0
            };
            emit_alloc(
                &mut events,
                &mut rng,
                &mut pending_frees,
                &mut prefix_slots,
                &mut emitted_allocs,
                &mut next_slot,
                ctx,
                self.long_lived_prefix,
                self.accesses_per_alloc,
            );
        }
        // Drain remaining scheduled frees.
        for (_, slot) in pending_frees {
            events.push(Event::free(slot));
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{ToolSpec, TraceRunner};
    use csod_core::{CsodConfig, ReplacementPolicy};

    #[test]
    fn all_nine_apps_match_table_one() {
        let apps = BuggyApp::all();
        assert_eq!(apps.len(), 9);
        let reads: Vec<&str> = apps
            .iter()
            .filter(|a| a.vulnerability == OverflowKind::OverRead)
            .map(|a| a.name)
            .collect();
        assert_eq!(
            reads,
            vec!["Heartbleed", "Libdwarf-20161021", "Zziplib-0.13.62"]
        );
        // The three in-library bugs ASan misses.
        let missed: Vec<&str> = apps
            .iter()
            .filter(|a| !a.asan_instruments_bug_module)
            .map(|a| a.name)
            .collect();
        assert_eq!(missed, vec!["LibHX-3.4", "Libtiff-4.01", "Zziplib-0.13.62"]);
    }

    #[test]
    fn by_name_lookup() {
        assert_eq!(BuggyApp::by_name("mysql").unwrap().name, "MySQL-5.5.19");
        assert_eq!(BuggyApp::by_name("Gzip").unwrap().name, "Gzip-1.2.4");
        assert!(BuggyApp::by_name("nonesuch").is_none());
    }

    /// The trace must realize the Table III statistics exactly.
    #[test]
    fn traces_match_table_three_statistics() {
        for app in BuggyApp::all() {
            let trace = app.trace(7);
            let mut allocs_before = 0u64;
            let mut ctx_seen = std::collections::HashSet::new();
            let mut total_allocs = 0u64;
            let mut ctx_before = 0usize;
            let mut seen_overflow = false;
            for e in &trace {
                match e {
                    Event::Malloc { site, .. } => {
                        total_allocs += 1;
                        ctx_seen.insert(*site);
                        if !seen_overflow {
                            allocs_before += 1;
                            ctx_before = ctx_seen.len();
                        }
                    }
                    Event::OverflowAccess { .. } => seen_overflow = true,
                    _ => {}
                }
            }
            assert!(seen_overflow, "{}: trace contains the bug", app.name);
            assert_eq!(total_allocs, app.total_allocs, "{}: total allocs", app.name);
            assert_eq!(
                allocs_before, app.allocs_before,
                "{}: allocs before",
                app.name
            );
            assert_eq!(
                ctx_before, app.contexts_before,
                "{}: contexts before",
                app.name
            );
            assert!(
                ctx_seen.len() <= app.total_contexts,
                "{}: at most the declared contexts",
                app.name
            );
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let app = BuggyApp::by_name("memcached").unwrap();
        assert_eq!(app.trace(3), app.trace(3));
        assert_ne!(app.trace(3), app.trace(4));
    }

    #[test]
    fn tiny_apps_are_always_detected_by_every_policy() {
        for name in ["gzip", "libtiff", "polymorph"] {
            let app = BuggyApp::by_name(name).unwrap();
            let reg = app.registry();
            let trace = app.trace(1);
            for policy in ReplacementPolicy::ALL {
                let mut config = CsodConfig::with_policy(policy);
                config.seed = 99;
                let outcome =
                    TraceRunner::new(&reg, ToolSpec::Csod(config)).run(trace.iter().copied());
                assert!(
                    outcome.watchpoint_detected,
                    "{name} under {policy} must detect"
                );
            }
        }
    }

    #[test]
    fn naive_policy_misses_the_late_bug_apps() {
        for name in ["memcached", "zziplib"] {
            let app = BuggyApp::by_name(name).unwrap();
            let reg = app.registry();
            let trace = app.trace(1);
            let mut detections = 0;
            for seed in 0..20 {
                let mut config = CsodConfig::with_policy(ReplacementPolicy::Naive);
                config.seed = seed;
                let outcome =
                    TraceRunner::new(&reg, ToolSpec::Csod(config)).run(trace.iter().copied());
                if outcome.watchpoint_detected {
                    detections += 1;
                }
            }
            assert_eq!(detections, 0, "{name}: naive policy must never detect");
        }
    }

    #[test]
    fn libdwarf_naive_always_detects() {
        let app = BuggyApp::by_name("libdwarf").unwrap();
        let reg = app.registry();
        let trace = app.trace(1);
        for seed in 0..20 {
            let mut config = CsodConfig::with_policy(ReplacementPolicy::Naive);
            config.seed = seed;
            let outcome = TraceRunner::new(&reg, ToolSpec::Csod(config)).run(trace.iter().copied());
            assert!(outcome.watchpoint_detected, "libdwarf naive seed {seed}");
        }
    }

    #[test]
    fn asan_misses_library_bugs_but_catches_app_bugs() {
        use asan_sim::AsanConfig;
        for app in BuggyApp::all() {
            let reg = app.registry();
            let trace = app.trace(1);
            let outcome = TraceRunner::new(
                &reg,
                ToolSpec::Asan {
                    config: AsanConfig::default(),
                    instrumented: app.asan_instrumented(),
                },
            )
            .run(trace.iter().copied());
            assert_eq!(
                outcome.detected, app.asan_instruments_bug_module,
                "{}: ASan detection mismatch",
                app.name
            );
        }
    }
}

//! The nineteen performance applications (paper Table IV, Table V,
//! Figure 7): thirteen PARSEC benchmarks plus Aget, Apache, Memcached,
//! MySQL, Pbzip2 and Pfscan.
//!
//! Each model is parameterised by the characteristics Table IV reports
//! (lines of code, allocation contexts, allocation count, thread count)
//! plus a work profile — how memory-access-dense, compute-dense, and
//! I/O-bound the program is — chosen so the *shape* of Figure 7 emerges:
//! CSOD's cost scales with allocations, ASan's with instrumented memory
//! accesses, and I/O time dilutes both.
//!
//! Executed allocation counts are capped (`exec_cap`); normalized
//! overhead is a ratio of per-operation costs, so proportional scaling
//! preserves it while keeping the harness fast. Harness output reports
//! both paper and executed counts.

use crate::driver::{RunOutcome, ToolSpec, TraceRunner};
use crate::sites::SiteRegistry;
use crate::trace::Event;
use csod_ctx::FrameTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_machine::AccessKind;
use std::sync::Arc;

/// One performance-workload model.
#[derive(Debug, Clone)]
pub struct PerfApp {
    /// Application name as Table IV prints it.
    pub name: &'static str,
    /// Lines of code (Table IV).
    pub loc: u64,
    /// Allocation calling contexts (Table IV "CC").
    pub contexts: usize,
    /// Allocations in the paper's run (Table IV "Allocations").
    pub allocations: u64,
    /// Watched times the paper measured (Table IV "WT"), for reference.
    pub paper_watched_times: u64,
    /// Threads used (PARSEC ran with 16).
    pub threads: usize,
    /// Baseline peak resident memory (Table V "Original", KiB).
    pub resident_kb: u64,
    /// Cap on allocations actually executed.
    pub exec_cap: u64,
    /// In-bounds accesses per churn allocation.
    pub accesses_per_alloc: u64,
    /// Non-memory operations per access.
    pub compute_per_access: u64,
    /// Allocation-independent access volume (compute-bound apps).
    pub base_accesses: u64,
    /// Allocation-independent compute volume.
    pub base_compute: u64,
    /// Total modelled I/O wait, in milliseconds.
    pub io_ms: u64,
    /// Fraction of accesses executed in non-instrumented modules
    /// (Pbzip2 spends its time in libbz2).
    pub uninstrumented_access_fraction: f64,
}

impl PerfApp {
    /// All nineteen applications, in Table IV order.
    pub fn all() -> Vec<PerfApp> {
        #[allow(clippy::too_many_arguments)]
        let app = |name,
                   loc,
                   contexts,
                   allocations,
                   paper_watched_times,
                   threads,
                   resident_kb,
                   accesses_per_alloc,
                   compute_per_access,
                   base_accesses,
                   base_compute,
                   io_ms,
                   uninstrumented_access_fraction| PerfApp {
            name,
            loc,
            contexts,
            allocations,
            paper_watched_times,
            threads,
            resident_kb,
            exec_cap: 150_000,
            accesses_per_alloc,
            compute_per_access,
            base_accesses,
            base_compute,
            io_ms,
            uninstrumented_access_fraction,
        };
        vec![
            app(
                "Blackscholes",
                479,
                4,
                4,
                4,
                16,
                613,
                0,
                0,
                10_000_000,
                20_000_000,
                0,
                0.0,
            ),
            app(
                "Bodytrack",
                11_938,
                81,
                431_022,
                325,
                16,
                34,
                400,
                2,
                0,
                0,
                0,
                0.0,
            ),
            app(
                "Canneal", 4_530, 10, 30_728_172, 79, 16, 940, 80, 0, 0, 0, 0, 0.0,
            ),
            app(
                "Dedup", 37_307, 93, 4_074_135, 182, 16, 1_599, 250, 4, 0, 0, 20, 0.0,
            ),
            app(
                "Facesim", 45_748, 109, 4_746_070, 369, 16, 2_422, 300, 4, 0, 0, 0, 0.0,
            ),
            app(
                "Ferret", 40_997, 118, 139_246, 346, 16, 68, 60, 2, 0, 0, 0, 0.0,
            ),
            app(
                "Fluidanimate",
                880,
                2,
                229_910,
                5,
                16,
                408,
                800,
                2,
                0,
                0,
                0,
                0.0,
            ),
            app(
                "Freqmine",
                2_709,
                125,
                4_255,
                218,
                16,
                1_241,
                50,
                2,
                50_000_000,
                100_000_000,
                0,
                0.0,
            ),
            app(
                "Raytrace", 36_871, 63, 45_037_327, 561, 16, 1_135, 120, 0, 0, 0, 0, 0.0,
            ),
            app(
                "Streamcluster",
                2_043,
                21,
                8_861,
                30,
                16,
                111,
                100,
                2,
                20_000_000,
                25_000_000,
                0,
                0.0,
            ),
            app(
                "Swaptions",
                1_631,
                10,
                48_001_795,
                370,
                16,
                9,
                400,
                3,
                0,
                0,
                0,
                0.0,
            ),
            app(
                "Vips", 206_059, 400, 1_425_257, 259, 16, 59, 600, 4, 0, 0, 0, 0.0,
            ),
            app(
                "X264", 33_817, 60, 35_753, 37, 16, 486, 600, 4, 5_000_000, 10_000_000, 0, 0.0,
            ),
            app(
                "Aget", 1_205, 14, 46, 16, 4, 7, 20, 2, 1_000_000, 1_000_000, 3_000, 0.0,
            ),
            app(
                "Apache", 269_126, 56, 357, 27, 16, 5, 30, 2, 20_000_000, 20_000_000, 30, 0.0,
            ),
            app(
                "Memcached",
                14_748,
                85,
                468,
                79,
                8,
                7,
                30,
                2,
                10_000_000,
                20_000_000,
                50,
                0.0,
            ),
            app(
                "Mysql", 1_290_401, 1_186, 1_565_311, 1_362, 16, 124, 2_500, 1, 0, 0, 20, 0.0,
            ),
            app(
                "Pbzip2", 12_108, 13, 57_746, 58, 8, 128, 200, 2, 0, 0, 0, 0.9,
            ),
            app(
                "Pfscan", 1_091, 6, 6, 5, 4, 4_044, 20, 1, 30_000_000, 30_000_000, 2_000, 0.0,
            ),
        ]
    }

    /// Looks an application up by case-insensitive name prefix.
    pub fn by_name(name: &str) -> Option<PerfApp> {
        let lower = name.to_ascii_lowercase();
        PerfApp::all()
            .into_iter()
            .find(|a| a.name.to_ascii_lowercase().starts_with(&lower))
    }

    /// Allocations the model actually executes.
    pub fn executed_allocs(&self) -> u64 {
        self.allocations.min(self.exec_cap)
    }

    /// Threads the simulation actually spawns (capped at two; the spec
    /// field keeps the paper's count for reporting).
    pub fn sim_threads(&self) -> usize {
        self.threads.min(2)
    }

    /// Number of long-lived base objects carrying the resident set.
    fn base_objects(&self) -> u64 {
        self.executed_allocs()
            .min((self.contexts as u64).max(4) * 2)
            .clamp(1, 128)
    }

    /// Builds the registry: one allocation site per context, an
    /// instrumented app access site and an uninstrumented library site.
    pub fn registry(&self) -> SiteRegistry {
        let mut reg = SiteRegistry::new(self.name, Arc::new(FrameTable::new()));
        for _ in 0..self.contexts {
            reg.add_alloc_site(4);
        }
        reg.add_access_site(self.name, "kernel/work.c:77"); // token 0
        reg.add_access_site("libextern.so", "lib/inner.c:5"); // token 1
        reg
    }

    /// Modules an ASan build instruments: the application itself.
    pub fn asan_instrumented(&self) -> Vec<String> {
        vec![self.name.to_owned()]
    }

    /// Runs the model under `tool`, generating events on the fly
    /// (deterministic per `seed`).
    pub fn run(&self, registry: &SiteRegistry, tool: ToolSpec, seed: u64) -> RunOutcome {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E4F);
        let mut runner = TraceRunner::new(registry, tool);
        let app_site = sim_machine::SiteToken(0);
        let lib_site = sim_machine::SiteToken(1);

        // Watchpoints are installed on every alive thread; with the
        // allocation counts capped for tractability, per-install syscall
        // cost at the paper's 16 threads would be over-weighted relative
        // to the scaled-down application time. Two simulated threads keep
        // multi-thread semantics exercised without that distortion (see
        // EXPERIMENTS.md).
        for _ in 1..self.sim_threads() {
            runner.step(&Event::SpawnThread);
        }

        // Long-lived base objects carrying the resident set (Table V).
        // The per-object size is nudged down until the detection tools'
        // per-object overhead (header + canary / redzones, ~48 bytes)
        // fits in the same size class, so Table V measures the tools'
        // overhead rather than a class-boundary artifact.
        let n_base = self.base_objects();
        let mut base_size = ((self.resident_kb * 1024) / n_base).max(64);
        while base_size > 128
            && sim_heap::SizeClass::for_request(base_size + 64).block_size()
                != sim_heap::SizeClass::for_request(base_size).block_size()
        {
            base_size -= 64;
        }
        for i in 0..n_base {
            let site = (i as usize) % self.contexts;
            runner.step(&Event::Malloc {
                thread: (i % self.sim_threads() as u64) as u8,
                site,
                size: base_size,
                slot: i as usize,
            });
        }

        let churn = self.executed_allocs().saturating_sub(n_base);
        let chunks = 100u64;
        let per_chunk_accesses = self.base_accesses / chunks;
        let per_chunk_compute = self.base_compute / chunks;
        let per_chunk_io = self.io_ms * 1_000_000 / chunks;
        let churn_per_chunk = churn / chunks;
        let churn_remainder = churn % chunks;
        let slot0 = n_base as usize; // churn slots live above the base set
        let window = 64usize; // live-window of churn objects

        let mut alloc_no = 0u64;
        for chunk in 0..chunks {
            // Alloc-independent work, spread over the run.
            if per_chunk_accesses > 0 {
                let uninstr =
                    (per_chunk_accesses as f64 * self.uninstrumented_access_fraction) as u64;
                let site = if rng.gen_bool(0.5) {
                    0
                } else {
                    (n_base - 1) as usize
                };
                runner.step(&Event::AccessBurst {
                    thread: (chunk % self.sim_threads() as u64) as u8,
                    slot: site,
                    count: per_chunk_accesses - uninstr,
                    kind: AccessKind::Read,
                    site: app_site,
                });
                if uninstr > 0 {
                    runner.step(&Event::AccessBurst {
                        thread: (chunk % self.sim_threads() as u64) as u8,
                        slot: site,
                        count: uninstr,
                        kind: AccessKind::Read,
                        site: lib_site,
                    });
                }
            }
            if per_chunk_compute > 0 {
                runner.step(&Event::Compute {
                    thread: 0,
                    ops: per_chunk_compute,
                });
            }
            if per_chunk_io > 0 {
                runner.step(&Event::IoWait { ns: per_chunk_io });
            }

            let churn_this_chunk = churn_per_chunk + u64::from(chunk < churn_remainder);
            for _ in 0..churn_this_chunk {
                let thread = (alloc_no % self.sim_threads() as u64) as u8;
                let slot = slot0 + (alloc_no as usize % window);
                // Reuse of the slot frees the previous occupant first.
                runner.step(&Event::Free { thread, slot });
                // Context choice: introductions first, then skewed reuse.
                let site = if alloc_no < self.contexts as u64 {
                    alloc_no as usize
                } else {
                    // Quadratic skew towards low-index contexts.
                    let r: f64 = rng.gen();
                    ((r * r * self.contexts as f64) as usize).min(self.contexts - 1)
                };
                let size = rng.gen_range(2..=32u64) * 8;
                runner.step(&Event::Malloc {
                    thread,
                    site,
                    size,
                    slot,
                });
                if self.accesses_per_alloc > 0 {
                    let uninstr = (self.accesses_per_alloc as f64
                        * self.uninstrumented_access_fraction)
                        as u64;
                    runner.step(&Event::AccessBurst {
                        thread,
                        slot,
                        count: self.accesses_per_alloc - uninstr,
                        kind: if alloc_no.is_multiple_of(2) {
                            AccessKind::Read
                        } else {
                            AccessKind::Write
                        },
                        site: app_site,
                    });
                    if uninstr > 0 {
                        runner.step(&Event::AccessBurst {
                            thread,
                            slot,
                            count: uninstr,
                            kind: AccessKind::Read,
                            site: lib_site,
                        });
                    }
                }
                if self.accesses_per_alloc * self.compute_per_access > 0 {
                    runner.step(&Event::Compute {
                        thread,
                        ops: self.accesses_per_alloc * self.compute_per_access,
                    });
                }
                alloc_no += 1;
            }
        }
        runner.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asan_sim::AsanConfig;
    use csod_core::CsodConfig;

    #[test]
    fn nineteen_apps_match_table_four() {
        let apps = PerfApp::all();
        assert_eq!(apps.len(), 19);
        let mysql = PerfApp::by_name("mysql").unwrap();
        assert_eq!(mysql.contexts, 1_186);
        assert_eq!(mysql.allocations, 1_565_311);
        let sw = PerfApp::by_name("swaptions").unwrap();
        assert_eq!(sw.allocations, 48_001_795);
        assert_eq!(sw.executed_allocs(), 150_000);
        let bs = PerfApp::by_name("blackscholes").unwrap();
        assert_eq!(bs.executed_allocs(), 4);
    }

    /// A small smoke matrix: baseline has no overhead; CSOD cheaper than
    /// ASan on alloc-light access-heavy apps; detection never fires.
    #[test]
    fn overhead_ordering_on_a_small_app() {
        let mut app = PerfApp::by_name("streamcluster").unwrap();
        app.base_accesses /= 20; // keep the test fast
        app.base_compute /= 20;
        let reg = app.registry();
        let base = app.run(&reg, ToolSpec::Baseline, 1);
        let csod = app.run(&reg, ToolSpec::Csod(CsodConfig::default()), 1);
        let asan = app.run(
            &reg,
            ToolSpec::Asan {
                config: AsanConfig::default(),
                instrumented: app.asan_instrumented(),
            },
            1,
        );
        assert_eq!(base.overhead, 1.0);
        assert!(!csod.detected && !asan.detected, "no bug in perf runs");
        assert!(csod.overhead > 1.0);
        assert!(
            asan.overhead > csod.overhead,
            "access-heavy: ASan costs more"
        );
        // The same application work was modelled in all three runs.
        assert_eq!(base.app_ns, csod.app_ns);
        assert_eq!(base.app_ns, asan.app_ns);
    }

    #[test]
    fn csod_watches_objects_and_counts_contexts() {
        let app = PerfApp::by_name("freqmine").unwrap();
        let reg = app.registry();
        let out = app.run(&reg, ToolSpec::Csod(CsodConfig::default()), 2);
        assert_eq!(
            out.distinct_contexts,
            app.contexts.min(out.allocations as usize)
        );
        assert!(out.watched_times >= 4, "at least the four free registers");
        assert_eq!(out.allocations, app.executed_allocs());
    }

    #[test]
    fn io_bound_apps_have_negligible_overhead() {
        let mut app = PerfApp::by_name("aget").unwrap();
        app.base_accesses /= 10;
        app.base_compute /= 10;
        let reg = app.registry();
        let csod = app.run(&reg, ToolSpec::Csod(CsodConfig::default()), 3);
        let asan = app.run(
            &reg,
            ToolSpec::Asan {
                config: AsanConfig::default(),
                instrumented: app.asan_instrumented(),
            },
            3,
        );
        assert!(csod.overhead < 1.05, "csod {}", csod.overhead);
        assert!(asan.overhead < 1.05, "asan {}", asan.overhead);
    }

    #[test]
    fn uninstrumented_fraction_shrinks_asan_cost() {
        let mut with_lib = PerfApp::by_name("pbzip2").unwrap();
        with_lib.exec_cap = 5_000;
        let mut without_lib = with_lib.clone();
        without_lib.uninstrumented_access_fraction = 0.0;
        let reg = with_lib.registry();
        let spec = |app: &PerfApp| ToolSpec::Asan {
            config: AsanConfig::default(),
            instrumented: app.asan_instrumented(),
        };
        let a = with_lib.run(&reg, spec(&with_lib), 4);
        let b = without_lib.run(&reg, spec(&without_lib), 4);
        assert!(a.overhead < b.overhead);
    }

    #[test]
    fn sim_threads_are_capped_but_spec_is_preserved() {
        let app = PerfApp::by_name("canneal").unwrap();
        assert_eq!(app.threads, 16, "Table IV spec");
        assert_eq!(app.sim_threads(), 2, "simulation cap");
        let aget = PerfApp::by_name("aget").unwrap();
        assert_eq!(aget.sim_threads(), 2);
    }

    #[test]
    fn base_objects_carry_the_resident_set() {
        let app = PerfApp::by_name("blackscholes").unwrap();
        let reg = app.registry();
        let out = app.run(&reg, ToolSpec::Baseline, 1);
        // Table V "Original" for Blackscholes is 613 KiB; the page-
        // rounded model must land within a few percent.
        assert!(
            (580..=680).contains(&out.peak_heap_kb),
            "peak {} KiB",
            out.peak_heap_kb
        );
        assert_eq!(out.allocations, 4, "exactly the Table IV count");
    }

    #[test]
    fn io_time_is_charged_as_io() {
        let mut app = PerfApp::by_name("pfscan").unwrap();
        app.base_accesses = 0;
        app.base_compute = 0;
        let reg = app.registry();
        let out = app.run(&reg, ToolSpec::Baseline, 1);
        assert_eq!(out.io_ns, app.io_ms * 1_000_000);
        assert!(out.io_ns > out.app_ns);
    }

    #[test]
    fn runs_are_deterministic() {
        let mut app = PerfApp::by_name("x264").unwrap();
        app.base_accesses /= 10;
        app.base_compute /= 10;
        let reg = app.registry();
        let a = app.run(&reg, ToolSpec::Csod(CsodConfig::default()), 7);
        let b = app.run(&reg, ToolSpec::Csod(CsodConfig::default()), 7);
        assert_eq!(a.overhead, b.overhead);
        assert_eq!(a.watched_times, b.watched_times);
        assert_eq!(a.total_ns, b.total_ns);
    }
}

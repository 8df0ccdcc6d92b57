//! The three workloads: inputs, the closed loop that measures them, and
//! the correctness checks on every execution.
//!
//! Host time is only ever compared with a tool-free control execution of
//! the same input, interleaved execution by execution, because the
//! ratio stays steady on a host whose speed drifts between runs.

use crate::spans::{SpanId, Tracer};
use crate::stats::{median, quantile, reference_on, share, MAX_REFERENCE_THREADS, REFERENCE_S};
use crate::streams::{fleet_registry, Source, Stream};
use csod_core::CsodConfig;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{
    run_fleet_round, run_parallel, BuggyApp, Event, FleetRoundConfig, FleetRoundOutcome, PerfApp,
    RunOutcome, SiteRegistry, ToolSpec, TraceRunner,
};

/// Table-II runs cycle through this many runtime seeds per application;
/// detection is scored on the first cycle and every later cycle must
/// repeat it exactly.
const SEED_CYCLE: u64 = 32;
/// Table-II programs detected in every execution whatever the runtime
/// seed.
const ALWAYS_DETECTED: [&str; 4] = ["Gzip", "LibHX", "Libtiff", "Polymorph"];
/// Allocations per fleet process. Each process's WAL costs the same
/// file creation and syncs however much it allocates. At the fleet
/// driver's default of 300 that file work dominated the loop, whose host
/// time then varied by ~20% between runs; at 10,000 it varies by ~4%.
const FLEET_ALLOCATIONS: u64 = 10_000;
/// Mallocs per execution kept in the per-layer probe stream.
const STREAM_MALLOCS: usize = 4_096;
/// Fleet processes whose streams the per-layer probes replay.
const STREAM_PROCESSES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig7Apps,
    Table2Bugs,
    FleetLoop,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fig7-apps" => Some(Workload::Fig7Apps),
            "table2-bugs" => Some(Workload::Table2Bugs),
            "fleet-loop" => Some(Workload::FleetLoop),
            _ => None,
        }
    }
}

/// The inputs of one workload, built from the seed before timing starts.
pub enum Inputs {
    Fig7 {
        apps: Vec<(PerfApp, SiteRegistry, u64)>,
    },
    Table2 {
        apps: Vec<(BuggyApp, SiteRegistry, Vec<Event>)>,
        seed: u64,
    },
    Fleet {
        rounds: Box<[FleetRoundConfig; 2]>,
        registry: SiteRegistry,
        dir: PathBuf,
    },
}

/// Worker threads for anything that fans out: never more than the host
/// has cores.
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 29)
}

impl Inputs {
    pub fn build(workload: Workload, seed: u64, scratch: &Path) -> Inputs {
        match workload {
            Workload::Fig7Apps => Inputs::Fig7 {
                apps: PerfApp::all()
                    .into_iter()
                    .enumerate()
                    .map(|(i, app)| {
                        let reg = app.registry();
                        (app, reg, mix(seed, 7, i as u64))
                    })
                    .collect(),
            },
            Workload::Table2Bugs => Inputs::Table2 {
                apps: BuggyApp::all()
                    .into_iter()
                    .enumerate()
                    .map(|(i, app)| {
                        let reg = app.registry();
                        let trace = app.trace(mix(seed, 2, i as u64));
                        (app, reg, trace)
                    })
                    .collect(),
                seed,
            },
            Workload::FleetLoop => {
                let first = FleetRoundConfig {
                    threads: host_threads().min(MAX_REFERENCE_THREADS),
                    allocations: FLEET_ALLOCATIONS,
                    seed: mix(seed, 3, 0) >> 16,
                    ..FleetRoundConfig::default()
                };
                let second = FleetRoundConfig {
                    buggy_offset: 1,
                    ..first.clone()
                };
                let registry = fleet_registry(&first, "fleet");
                let dir = scratch.join("fleet");
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).expect("scratch directory is writable");
                Inputs::Fleet {
                    rounds: Box::new([first, second]),
                    registry,
                    dir,
                }
            }
        }
    }

    /// The workload's allocation stream for the per-layer probes.
    pub fn stream(&self) -> Stream {
        let mut stream = Stream::default();
        match self {
            Inputs::Fig7 { apps } => {
                for (app, reg, seed) in apps {
                    stream.add(reg, Source::Perf(app, *seed), STREAM_MALLOCS);
                }
            }
            Inputs::Table2 { apps, .. } => {
                for (_, reg, trace) in apps {
                    stream.add(reg, Source::Trace(trace), STREAM_MALLOCS);
                }
            }
            Inputs::Fleet { rounds, .. } => {
                for i in 0..rounds[0].processes.min(STREAM_PROCESSES) {
                    let reg = fleet_registry(&rounds[0], &format!("fleet-{i}"));
                    stream.add(&reg, Source::Fleet(&rounds[0], i), STREAM_MALLOCS);
                }
            }
        }
        stream
    }
}

/// What one run measured: end-to-end metrics from an untraced run,
/// per-layer metrics from a traced one.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

const STEP_KINDS: usize = 4;
const CSOD_STEPS: [&str; STEP_KINDS] = [
    "driver.step.malloc",
    "driver.step.free",
    "driver.step.access",
    "driver.step.other",
];
const CONTROL_STEPS: [&str; STEP_KINDS] = [
    "control.step.malloc",
    "control.step.free",
    "control.step.access",
    "control.step.other",
];

fn kind(event: &Event) -> usize {
    match event {
        Event::Malloc { .. } => 0,
        Event::Free { .. } => 1,
        Event::Access { .. }
        | Event::AccessBurst { .. }
        | Event::OverflowAccess { .. }
        | Event::OverflowBurst { .. }
        | Event::DanglingAccess { .. } => 2,
        _ => 3,
    }
}

/// Counts taken from the events a traced execution stepped.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stepped {
    pub frees: u64,
    pub accesses: u64,
}

/// Runs one execution through `TraceRunner`, with a span around
/// construction, finish and (summed per event kind) every step when the
/// tracer is on.
fn drive(
    t: &mut Tracer,
    exec: u64,
    parent: Option<SpanId>,
    reg: &SiteRegistry,
    tool: ToolSpec,
    source: Source<'_>,
) -> (RunOutcome, Stepped) {
    let csod = matches!(tool, ToolSpec::Csod(_));
    let (outer, new, finish, steps) = if csod {
        ("driver.exec", "driver.new", "driver.finish", &CSOD_STEPS)
    } else {
        (
            "control.exec",
            "control.new",
            "control.finish",
            &CONTROL_STEPS,
        )
    };
    let id = Some(t.open(outer, exec, parent));
    let mut runner = t.time(new, exec, id, 1, || TraceRunner::new(reg, tool));
    let traced = t.enabled();
    let start = Instant::now();
    let mut spent = [Duration::ZERO; STEP_KINDS];
    let mut count = [0u64; STEP_KINDS];
    let mut stepped = Stepped::default();
    source.for_each(|event| {
        let k = kind(event);
        if traced {
            let t0 = Instant::now();
            runner.step(event);
            spent[k] += t0.elapsed();
        } else {
            runner.step(event);
        }
        count[k] += 1;
        match *event {
            Event::Free { .. } => stepped.frees += 1,
            Event::AccessBurst { count, .. } | Event::OverflowBurst { count, .. } => {
                stepped.accesses += count
            }
            Event::Access { .. } | Event::OverflowAccess { .. } | Event::DanglingAccess { .. } => {
                stepped.accesses += 1
            }
            _ => {}
        }
    });
    for k in 0..STEP_KINDS {
        t.record(steps[k], exec, id, start, spent[k], count[k]);
    }
    let outcome = t.time(finish, exec, id, 1, || runner.finish());
    if let Some(id) = id {
        t.close(id, 1);
    }
    (outcome, stepped)
}

fn seconds(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Per-pass totals of the CSOD and control executions, and of the
/// reference kernel timed between them.
#[derive(Debug, Default, Clone)]
struct Pass {
    ref_s: f64,
    refs: u32,
    csod_s: f64,
    control_s: f64,
    allocs: u64,
    /// Host latency of each CSOD execution.
    latency_s: Vec<f64>,
}

impl Pass {
    fn reference(&mut self, threads: usize) {
        self.ref_s += reference_on(threads);
        self.refs += 1;
    }

    /// Converts this pass's host seconds to reference seconds.
    fn to_reference(&self) -> f64 {
        REFERENCE_S * f64::from(self.refs) / self.ref_s
    }
}

/// What a workload's loop accumulates.
#[derive(Debug, Default)]
pub struct Tally {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    passes: Vec<Pass>,
    /// Detected/executions over the scored (first) cycle.
    pub(crate) detected: u64,
    pub(crate) scored: u64,
    pub(crate) virt: Vec<f64>,
    /// Counts for the per-layer metrics (traced passes only).
    pub(crate) installs: u64,
    pub(crate) syscalls: u64,
    pub(crate) filtered_frees: u64,
    pub(crate) frees: u64,
    pub(crate) allocations: u64,
    pub(crate) trace_events: u64,
    pub(crate) replay_accesses: u64,
    pub(crate) accesses: u64,
    pub(crate) canary_hit_execs: u64,
    pub(crate) watch_detections: u64,
    pub(crate) detections: u64,
    /// Round-2 `clean_buggy / buggy` of the last traced fleet loop.
    pub(crate) mitigated: f64,
    /// Table II: each scored execution's (detected, reports) verdict.
    pub(crate) verdicts: Vec<(bool, usize, f64)>,
    /// Traced passes.
    pub(crate) traced_passes: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    fn absorb_outcome(&mut self, out: &RunOutcome, stepped: Stepped) {
        self.installs += out.watched_times;
        self.syscalls += out.syscalls;
        self.filtered_frees += out.frees_fast_filtered;
        self.frees += stepped.frees;
        self.allocations += out.allocations;
        self.trace_events += out.trace_events + out.trace_dropped;
        self.replay_accesses += out.replay_accesses;
        self.accesses += stepped.accesses;
        self.canary_hit_execs += u64::from(out.evidence_detected);
        self.watch_detections += u64::from(out.watchpoint_detected);
        self.detections += u64::from(out.detected);
    }
}

/// Runs `f` under a panic guard so one failing execution is counted,
/// not fatal.
fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// The workload's closed loop for `budget`, untraced or traced.
pub struct Runner<'a> {
    pub inputs: &'a Inputs,
    pub tracer: &'a mut Tracer,
    /// A traced run: execute through the span-instrumented driver.
    pub traced: bool,
}

impl Runner<'_> {
    /// One pass over the workload; `pass` indexes the loop.
    fn pass(&mut self, pass: u64, tally: &mut Tally) {
        match self.inputs {
            Inputs::Fig7 { apps } => self.fig7_pass(apps, pass, tally),
            Inputs::Table2 { apps, seed } => self.table2_pass(apps, *seed, pass, tally),
            Inputs::Fleet {
                rounds,
                registry,
                dir,
            } => self.fleet_pass(rounds, registry, dir, pass, tally),
        }
    }

    fn run_app(
        &mut self,
        exec: u64,
        reg: &SiteRegistry,
        tool: ToolSpec,
        app: &PerfApp,
        seed: u64,
    ) -> (RunOutcome, Stepped) {
        if self.traced {
            drive(self.tracer, exec, None, reg, tool, Source::Perf(app, seed))
        } else {
            (app.run(reg, tool, seed), Stepped::default())
        }
    }

    fn fig7_pass(&mut self, apps: &[(PerfApp, SiteRegistry, u64)], pass: u64, tally: &mut Tally) {
        let mut totals = Pass::default();
        for (i, (app, reg, seed)) in apps.iter().enumerate() {
            totals.reference(1);
            let exec = pass * 1_000 + i as u64;
            let mut csod = None;
            let mut control = None;
            for leg in 0..2 {
                let run_csod = (leg + pass as usize + i).is_multiple_of(2);
                let tool = if run_csod {
                    ToolSpec::Csod(CsodConfig::default())
                } else {
                    ToolSpec::Baseline
                };
                let t0 = Instant::now();
                let out = guarded(|| self.run_app(exec, reg, tool, app, *seed));
                let dt = seconds(t0.elapsed());
                if run_csod {
                    csod = out.map(|o| (o, dt));
                } else {
                    control = out.map(|o| (o.0, dt));
                }
            }
            let (Some(((c, stepped), dc)), Some((b, db))) = (csod, control) else {
                tally.check(false, || format!("{} panicked", app.name));
                continue;
            };
            tally.check(!c.detected && c.reports.is_empty(), || {
                format!("{}: report on a bug-free app", app.name)
            });
            tally.check(c.app_ns == b.app_ns, || {
                format!("{}: control models other app work", app.name)
            });
            if pass == 0 {
                tally.virt.push(c.overhead);
                tally.scored += 1;
                tally.detected += u64::from(c.detected || !c.reports.is_empty());
                if self.traced {
                    // The traced driver regenerates the app's events; it
                    // must execute exactly what `PerfApp::run` does.
                    let direct = app.run(reg, ToolSpec::Csod(CsodConfig::default()), *seed);
                    tally.check(direct == c, || {
                        format!("{}: regenerated events diverge", app.name)
                    });
                }
            } else {
                let first = tally.virt[i];
                tally.check(first == c.overhead, || {
                    format!("{}: run not deterministic", app.name)
                });
            }
            if self.traced {
                tally.absorb_outcome(&c, stepped);
            }
            totals.csod_s += dc;
            totals.control_s += db;
            totals.allocs += c.allocations;
        }
        // One Figure-7 run is the whole suite: per-app latencies span
        // four orders of magnitude, so their median would sit on the gap
        // between the small and the large apps.
        totals.latency_s.push(totals.csod_s);
        tally.passes.push(totals);
    }

    fn table2_pass(
        &mut self,
        apps: &[(BuggyApp, SiteRegistry, Vec<Event>)],
        seed: u64,
        pass: u64,
        tally: &mut Tally,
    ) {
        let mut totals = Pass::default();
        let slot = pass % SEED_CYCLE;
        totals.reference(1);
        for (i, (app, reg, trace)) in apps.iter().enumerate() {
            let exec = pass * 1_000 + i as u64;
            let config = CsodConfig {
                seed: mix(seed, 11 + slot, i as u64),
                ..CsodConfig::default()
            };
            let mut csod = None;
            let mut control = None;
            for leg in 0..2 {
                let run_csod = (leg + pass as usize + i).is_multiple_of(2);
                let tool = if run_csod {
                    ToolSpec::Csod(config.clone())
                } else {
                    ToolSpec::Baseline
                };
                let t0 = Instant::now();
                let out =
                    guarded(|| drive(self.tracer, exec, None, reg, tool, Source::Trace(trace)));
                let dt = seconds(t0.elapsed());
                if run_csod {
                    csod = out.map(|o| (o, dt));
                } else {
                    control = out.map(|o| (o.0, dt));
                }
            }
            let (Some(((c, stepped), dc)), Some((_, db))) = (csod, control) else {
                tally.check(false, || format!("{} panicked", app.name));
                continue;
            };
            if ALWAYS_DETECTED.iter().any(|n| app.name.starts_with(n)) {
                tally.check(c.detected, || format!("{}: overflow missed", app.name));
            }
            let verdict = (c.detected, c.reports.len(), c.overhead);
            if pass < SEED_CYCLE {
                tally.scored += 1;
                tally.detected += u64::from(c.detected);
                tally.virt.push(c.overhead);
                tally.verdicts.push(verdict);
            } else {
                let first = tally.verdicts[(slot as usize) * apps.len() + i];
                tally.check(first == verdict, || {
                    format!("{}: detections do not repeat for the seed", app.name)
                });
            }
            if self.traced {
                tally.absorb_outcome(&c, stepped);
            }
            totals.latency_s.push(dc);
            totals.csod_s += dc;
            totals.control_s += db;
            totals.allocs += c.allocations;
        }
        tally.passes.push(totals);
    }

    fn fleet_pass(
        &mut self,
        rounds: &[FleetRoundConfig; 2],
        registry: &SiteRegistry,
        dir: &Path,
        pass: u64,
        tally: &mut Tally,
    ) {
        let _ = std::fs::remove_dir_all(dir);
        let mut totals = Pass::default();
        totals.reference(rounds[0].threads);
        // The control launches the same processes tool-free, fanned out
        // and generating their streams as they run, like each round.
        let processes: Vec<usize> = (0..rounds[0].processes).collect();
        let control = |tally: &mut Tally| {
            let t0 = Instant::now();
            let out = guarded(|| {
                rounds.iter().all(|r| {
                    run_parallel(&processes, r.threads, |&i| {
                        let mut runner = TraceRunner::new(registry, ToolSpec::Baseline);
                        Source::Fleet(r, i).for_each(|e| runner.step(e));
                        runner.finish()
                    })
                    .len()
                        == processes.len()
                })
            });
            let dt = seconds(t0.elapsed());
            tally.check(out == Some(true), || "control fleet panicked".into());
            dt
        };
        let csod = |t: &mut Tracer| {
            let t0 = Instant::now();
            let out = guarded(|| {
                let r1 = t.time("fleet.round1", pass, None, 1, || {
                    run_fleet_round(&rounds[0], dir, None)
                });
                let r2 = t.time("fleet.round2", pass, None, 1, || {
                    run_fleet_round(&rounds[1], dir, Some(&r1.plan))
                });
                (r1, r2)
            });
            (out, seconds(t0.elapsed()))
        };
        let (db, (out, dc)) = if pass.is_multiple_of(2) {
            let db = control(tally);
            (db, csod(self.tracer))
        } else {
            let c = csod(self.tracer);
            (control(tally), c)
        };
        let Some((r1, r2)) = out else {
            tally.check(false, || "fleet round panicked".into());
            return;
        };
        self.check_fleet(&r1, &r2, pass, tally);
        if self.traced {
            // The driver layer on the fleet's own streams: each process
            // under CSOD and under the control, interleaved.
            for i in processes {
                let exec = pass * 1_000 + i as u64;
                let (c, stepped) = drive(
                    self.tracer,
                    exec,
                    None,
                    registry,
                    ToolSpec::Csod(CsodConfig::default()),
                    Source::Fleet(&rounds[0], i),
                );
                drive(
                    self.tracer,
                    exec,
                    None,
                    registry,
                    ToolSpec::Baseline,
                    Source::Fleet(&rounds[0], i),
                );
                tally.absorb_outcome(&c, stepped);
            }
            tally.canary_hit_execs += r1.detections;
            tally.mitigated = share(r2.clean_buggy as f64, r2.buggy as f64);
        }
        totals.latency_s.push(dc);
        totals.csod_s = dc;
        totals.control_s = db;
        totals.allocs = (r1.processes + r2.processes) * rounds[0].allocations;
        tally.passes.push(totals);
    }

    fn check_fleet(
        &self,
        r1: &FleetRoundOutcome,
        r2: &FleetRoundOutcome,
        pass: u64,
        tally: &mut Tally,
    ) {
        tally.check(r1.buggy > 0 && r1.detections == r1.buggy, || {
            format!("round 1 detected {}/{}", r1.detections, r1.buggy)
        });
        tally.check(r2.mitigated_at_start == r2.processes, || {
            format!(
                "round 2 started {}/{} mitigated",
                r2.mitigated_at_start, r2.processes
            )
        });
        tally.check(r2.all_buggy_accounted(), || {
            "round 2 left a buggy process unaccounted".into()
        });
        tally.check(
            r1.ingest.corrupt_skipped == 0 && r2.ingest.corrupt_skipped == 0,
            || "ingest skipped corrupt records".into(),
        );
        let virt = (r1.avg_overhead + r2.avg_overhead) / 2.0;
        if pass == 0 {
            tally.virt.push(virt);
            tally.scored = r1.buggy;
            tally.detected = r1.detections;
        } else {
            tally.check(tally.virt[0] == virt, || {
                "fleet loop not deterministic".into()
            });
        }
    }
}

/// Passes every workload runs before its deadline is checked: enough for
/// medians, and (Table II) one full cycle of runtime seeds.
fn min_passes(inputs: &Inputs) -> u64 {
    match inputs {
        Inputs::Fig7 { .. } => 3,
        Inputs::Table2 { .. } => SEED_CYCLE,
        Inputs::Fleet { .. } => 5,
    }
}

/// The untraced run: end-to-end metrics.
pub fn measure(inputs: &Inputs, budget: Duration) -> Measured {
    let mut tracer = Tracer::new(false);
    let mut runner = Runner {
        inputs,
        tracer: &mut tracer,
        traced: false,
    };
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut pass = 0;
    while pass < min_passes(inputs) || start.elapsed() < budget {
        runner.pass(pass, &mut tally);
        pass += 1;
    }
    let ratios: Vec<f64> = tally
        .passes
        .iter()
        .map(|p| p.csod_s / p.control_s)
        .collect();
    // Pooled over the run, so every runtime seed of the cycle weighs in.
    let allocs: u64 = tally.passes.iter().map(|p| p.allocs).sum();
    let reference_s: f64 = tally
        .passes
        .iter()
        .map(|p| p.csod_s * p.to_reference())
        .sum();
    let latency_ms: Vec<f64> = tally
        .passes
        .iter()
        .flat_map(|p| p.latency_s.iter().map(move |l| l * p.to_reference() * 1e3))
        .collect();
    Measured {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            ("host_overhead", median(&ratios)),
            ("allocs_per_s", share(allocs as f64, reference_s)),
            ("run_ms_p50", median(&latency_ms)),
            ("run_ms_p90", quantile(&latency_ms, 0.9)),
            (
                "virt_overhead",
                tally.virt.iter().sum::<f64>() / tally.virt.len().max(1) as f64,
            ),
            ("detect_rate", detect_rate(inputs, &tally)),
        ],
    }
}

/// Planted overflows reported, as a share of those planted. The
/// Figure-7 apps plant none, so there the share is of executions that
/// correctly reported nothing: a false positive lowers it.
fn detect_rate(inputs: &Inputs, tally: &Tally) -> f64 {
    match inputs {
        Inputs::Fig7 { .. } => 1.0 - share(tally.detected as f64, tally.scored as f64),
        _ => share(tally.detected as f64, tally.scored as f64),
    }
}

/// The traced run: per-layer metrics. Workload passes alternate between
/// spans on and spans off, with a round of layer probes and of the
/// shared micro loop between them.
pub fn trace(inputs: &Inputs, budget: Duration, scratch: &Path, spans_out: &Path) -> Measured {
    let stream = inputs.stream();
    let mut tracer = Tracer::new(true);
    let mut micro = crate::layers::MicroLoop::new();
    let mut tally = Tally::default();
    let mut off_tally = Tally::default();
    let mut on_s = Vec::new();
    let mut off_s = Vec::new();
    let mut probe_counts = Vec::new();
    let mut probe_errors = 0u64;
    let start = Instant::now();
    let mut pass = 0;
    while pass < 1 || start.elapsed() < budget {
        for traced in [pass % 2 == 0, pass % 2 != 0] {
            tracer.set_enabled(traced);
            let t0 = Instant::now();
            let mut runner = Runner {
                inputs,
                tracer: &mut tracer,
                traced: true,
            };
            if traced {
                runner.pass(pass, &mut tally);
                tally.traced_passes += 1;
                on_s.push(seconds(t0.elapsed()));
            } else {
                runner.pass(pass, &mut off_tally);
                off_s.push(seconds(t0.elapsed()));
            }
        }
        tracer.set_enabled(true);
        match crate::layers::probe_round(
            &stream,
            &mut tracer,
            1_000_000 + pass,
            scratch,
            host_threads(),
        ) {
            Ok(c) => probe_counts.push(c),
            Err(e) => {
                probe_errors += 1;
                eprintln!("probe failed: {e}");
            }
        }
        for _ in 0..4 {
            if let Err(e) = micro.round(&mut tracer, 2_000_000 + pass) {
                probe_errors += 1;
                eprintln!("{e}");
            }
        }
        pass += 1;
    }
    if let Err(e) = tracer.write_jsonl(spans_out) {
        eprintln!("spans not written to {}: {e}", spans_out.display());
    }
    Measured {
        attempted: tally.attempted + off_tally.attempted + probe_counts.len() as u64 + probe_errors,
        failed: tally.failed + off_tally.failed + probe_errors,
        metrics: crate::ledger::layer_metrics(&tracer, &tally, &probe_counts, &on_s, &off_s),
    }
}

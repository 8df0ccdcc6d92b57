//! Per-layer probes: each times calls into one layer's public functions
//! on the workload's own allocation stream, batch by batch, inside
//! spans. Substrates and configurations that are compared run in
//! alternation, batch by batch, so run order and warm-up cannot bias
//! one against the other.

use crate::spans::{SpanId, Tracer};
use crate::streams::{Batch, Stream};
use csod_core::{
    Backend, CanaryStatus, CanaryUnit, ContextJudgment, Csod, CsodConfig, CtxId, DecisionCache,
    HeapBackend, InstallOutcome, NullBackend, NullHeap, ObjectLayout, SamplingUnit, WatchCandidate,
    WatchpointManager,
};
use csod_ctx::{CallingContext, ContextKey, FrameTable};
use csod_fleet::{ingest_parallel, FleetStore, IngestOptions, SamplingBudget};
use csod_persist::{RecordKind, Wal, WalRecord};
use csod_rng::Arc4Random;
use sim_heap::{HeapConfig, SimHeap};
use sim_machine::{AccessKind, Machine, ThreadId, VirtAddr};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Signatures written per persistence / fleet probe round.
const MAX_RECORDS: usize = 256;
/// WAL files one fleet ingest probe merges.
const PROBE_WALS: usize = 8;
/// Accesses per `app_access_bulk` call in the burst probe.
const BURST: u64 = 64;

/// Counts one probe round reports besides its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundCounts {
    pub allocations: u64,
    pub trace_events: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub first_sights: u64,
    pub fleet_records: u64,
    pub checkpoint_syncs: u64,
}

fn new_sim() -> (Machine, SimHeap) {
    let mut machine = Machine::new();
    let heap =
        SimHeap::new(&mut machine, HeapConfig::default()).expect("fresh machine has a heap region");
    (machine, heap)
}

struct Names {
    malloc: &'static str,
    free: &'static str,
    poll: &'static str,
}

/// The full runtime over one substrate.
struct Lane<B: Backend, H: HeapBackend<B>> {
    csod: Csod,
    backend: B,
    heap: H,
    live: Vec<VirtAddr>,
    names: Names,
}

impl<B: Backend, H: HeapBackend<B>> Lane<B, H> {
    fn new(
        config: CsodConfig,
        frames: &Arc<FrameTable>,
        backend: B,
        heap: H,
        objects: usize,
        names: Names,
    ) -> Self {
        Lane {
            csod: Csod::new(config, Arc::clone(frames)),
            backend,
            heap,
            live: vec![VirtAddr::new(0); objects],
            names,
        }
    }

    fn batch(
        &mut self,
        t: &mut Tracer,
        exec: u64,
        parent: Option<SpanId>,
        batch: &Batch,
        ctxs: &[(ContextKey, CallingContext)],
    ) -> Result<(), String> {
        let Lane {
            csod,
            backend,
            heap,
            live,
            names,
        } = self;
        let frees: Vec<VirtAddr> = batch.frees.iter().map(|&o| live[o as usize]).collect();
        t.time(names.free, exec, parent, frees.len() as u64, || {
            frees
                .iter()
                .try_for_each(|&p| csod.free(backend, heap, ThreadId::MAIN, p).map(drop))
        })
        .map_err(|e| format!("free: {e:?}"))?;
        t.time(
            names.malloc,
            exec,
            parent,
            batch.mallocs.len() as u64,
            || {
                batch.mallocs.iter().try_for_each(|&(obj, site, size)| {
                    let (key, ctx) = &ctxs[site as usize];
                    live[obj as usize] =
                        csod.malloc(backend, heap, ThreadId::MAIN, size, *key, ctx)?;
                    Ok::<(), csod_core::CsodError>(())
                })
            },
        )
        .map_err(|e| format!("malloc: {e:?}"))?;
        t.time(names.poll, exec, parent, 1, || csod.poll(backend));
        Ok(())
    }
}

struct SplitNames {
    heap_malloc: &'static str,
    heap_free: &'static str,
    imprint: &'static str,
    check: &'static str,
    watch: &'static str,
}

/// The substrate calls the runtime makes per object, one layer at a
/// time: heap, canary words, watch arm/disarm.
struct Split<B: Backend, H: HeapBackend<B>> {
    backend: B,
    heap: H,
    canary: CanaryUnit,
    live: Vec<(VirtAddr, ObjectLayout)>,
    names: SplitNames,
}

impl<B: Backend, H: HeapBackend<B>> Split<B, H> {
    fn batch(
        &mut self,
        t: &mut Tracer,
        exec: u64,
        parent: Option<SpanId>,
        batch: &Batch,
    ) -> Result<(), String> {
        let Split {
            backend,
            heap,
            canary,
            live,
            names,
        } = self;
        let frees: Vec<(VirtAddr, ObjectLayout)> =
            batch.frees.iter().map(|&o| live[o as usize]).collect();
        let n = frees.len() as u64;
        let intact = t.time(names.check, exec, parent, n, || {
            frees.iter().all(|(real, layout)| {
                let user = layout.user_ptr(*real);
                matches!(
                    canary.check(backend, layout.canary_addr(user)),
                    Ok(CanaryStatus::Intact)
                )
            })
        });
        if !intact {
            return Err("canary check failed on an untouched object".into());
        }
        t.time(names.heap_free, exec, parent, n, || {
            frees
                .iter()
                .try_for_each(|(real, _)| heap.free(backend, *real).map(drop))
        })
        .map_err(|e| format!("heap free: {e:?}"))?;

        let n = batch.mallocs.len() as u64;
        let layouts: Vec<ObjectLayout> = batch
            .mallocs
            .iter()
            .map(|m| ObjectLayout::new(true, m.2))
            .collect();
        let reals: Vec<VirtAddr> = t
            .time(names.heap_malloc, exec, parent, n, || {
                layouts
                    .iter()
                    .map(|l| heap.malloc(backend, l.total_size()))
                    .collect::<Result<_, _>>()
            })
            .map_err(|e| format!("heap malloc: {e:?}"))?;
        t.time(names.imprint, exec, parent, n, || {
            batch
                .mallocs
                .iter()
                .zip(&layouts)
                .zip(&reals)
                .try_for_each(|((m, l), &real)| {
                    canary.imprint(backend, *l, real, CtxId::from_index(m.1))
                })
        })
        .map_err(|e| format!("imprint: {e:?}"))?;
        let route = CsodConfig::default().backend;
        let armed = t.time(names.watch, exec, parent, n, || {
            layouts.iter().zip(&reals).all(|(l, &real)| {
                match backend.arm_watch(route, l.canary_addr(l.user_ptr(real)), ThreadId::MAIN) {
                    Ok(fd) => {
                        backend.disarm_watch(route, fd);
                        true
                    }
                    Err(_) => false,
                }
            })
        });
        if !armed {
            return Err("arming a free debug register failed".into());
        }
        for ((m, l), real) in batch.mallocs.iter().zip(layouts).zip(reals) {
            live[m.0 as usize] = (real, l);
        }
        Ok(())
    }
}

/// Sampling decision and watchpoint management without the rest of the
/// runtime, in the order the runtime calls them.
struct Decide {
    sampler: SamplingUnit,
    cache: DecisionCache,
    rng: Arc4Random,
    draws: Arc4Random,
    watch: WatchpointManager,
    machine: Machine,
    heap: SimHeap,
    /// `(real, user)` pointer of each live object.
    live: Vec<(VirtAddr, VirtAddr)>,
}

impl Decide {
    fn new(objects: usize) -> Self {
        let config = CsodConfig::default();
        let mut watch = WatchpointManager::with_slots(
            config.policy,
            config.backend,
            config.watch_age_decay,
            config.watchpoint_slots,
        );
        watch.configure_fast_path(
            config.fast_path.deferred_teardown,
            config.fast_path.fd_index,
        );
        let (machine, heap) = new_sim();
        Decide {
            sampler: SamplingUnit::new(config.sampling),
            cache: DecisionCache::new(config.fast_path.decision_cache_refresh),
            rng: Arc4Random::from_seed(config.seed, 0),
            draws: Arc4Random::from_seed(config.seed, 1),
            watch,
            machine,
            heap,
            live: vec![(VirtAddr::new(0), VirtAddr::new(0)); objects],
        }
    }

    fn batch(
        &mut self,
        t: &mut Tracer,
        exec: u64,
        parent: Option<SpanId>,
        batch: &Batch,
        ctxs: &[(ContextKey, CallingContext)],
    ) -> Result<(), String> {
        let Decide {
            sampler,
            cache,
            rng,
            draws,
            watch,
            machine,
            heap,
            live,
        } = self;
        let frees: Vec<(VirtAddr, VirtAddr)> =
            batch.frees.iter().map(|&o| live[o as usize]).collect();
        t.time("watch.remove", exec, parent, frees.len() as u64, || {
            for &(_, user) in &frees {
                black_box(watch.remove_by_object(machine, user));
            }
        });
        t.time("watch.drain", exec, parent, 1, || {
            watch.drain_teardowns(machine)
        });
        for (real, _) in frees {
            heap.free(machine, real)
                .map_err(|e| format!("heap free: {e:?}"))?;
        }

        let n = batch.mallocs.len() as u64;
        let mut objects = Vec::with_capacity(batch.mallocs.len());
        for &(obj, _, size) in &batch.mallocs {
            let layout = ObjectLayout::new(true, size);
            let real = heap
                .malloc(machine, layout.total_size())
                .map_err(|e| format!("{e:?}"))?;
            let user = layout.user_ptr(real);
            live[obj as usize] = (real, user);
            objects.push((user, layout.canary_addr(user)));
        }
        let now = machine.now();
        let decisions: Vec<_> = t.time("sampling.decide", exec, parent, n, || {
            batch
                .mallocs
                .iter()
                .map(|&(_, site, _)| {
                    let (key, ctx) = &ctxs[site as usize];
                    cache.on_allocation(sampler, *key, now, rng, ctx, |_| ContextJudgment::clear())
                })
                .collect()
        });
        let candidates: Vec<(WatchCandidate, ContextKey)> = batch
            .mallocs
            .iter()
            .zip(&decisions)
            .zip(&objects)
            .filter(|((_, d), _)| d.wants_watch)
            .map(|((&(_, site, _), d), &(user, canary_addr))| {
                let key = ctxs[site as usize].0;
                let candidate = WatchCandidate {
                    object_start: user,
                    canary_addr,
                    key,
                    ctx_id: d.ctx_id,
                    probability_ppm: d.probability_ppm,
                };
                (candidate, key)
            })
            .collect();
        let installed: Vec<ContextKey> = t.time(
            "watch.consider",
            exec,
            parent,
            candidates.len() as u64,
            || {
                candidates
                    .into_iter()
                    .filter_map(|(c, key)| {
                        let outcome =
                            watch.consider(machine, c, rng, |k| sampler.probability_ppm(k));
                        matches!(
                            outcome,
                            InstallOutcome::InstalledFree | InstallOutcome::Replaced
                        )
                        .then_some(key)
                    })
                    .collect()
            },
        );
        for key in installed {
            sampler.on_watched(key);
        }
        t.time("rng.draw", exec, parent, n, || {
            for _ in 0..n {
                black_box(draws.next_u32());
            }
        });
        t.time("ctx.lookup", exec, parent, n, || {
            for &(_, site, _) in &batch.mallocs {
                black_box(sampler.probability_ppm(ctxs[site as usize].0));
            }
        });
        Ok(())
    }
}

/// One round of every probe over the whole stream.
pub fn probe_round(
    stream: &Stream,
    t: &mut Tracer,
    exec: u64,
    scratch: &Path,
    threads: usize,
) -> Result<RoundCounts, String> {
    let root = Some(t.open("probe", exec, None));
    let frames = Arc::new(FrameTable::new());
    let ctxs: Vec<(ContextKey, CallingContext)> = t.time(
        "ctx.first_sight",
        exec,
        root,
        stream.sites.len() as u64,
        || {
            stream
                .sites
                .iter()
                .map(|s| {
                    let (key, ctx) = s.intern(&frames);
                    black_box(ctx.signature(&frames));
                    (key, ctx)
                })
                .collect()
        },
    );
    let objects = stream.objects;
    let config = CsodConfig::default();
    let mut quiet = config.clone();
    quiet.trace.events = false;
    let (machine, heap) = new_sim();
    let mut sim_on = Lane::new(
        config.clone(),
        &frames,
        machine,
        heap,
        objects,
        Names {
            malloc: "runtime.malloc",
            free: "runtime.free",
            poll: "runtime.poll",
        },
    );
    let (machine, heap) = new_sim();
    let mut sim_off = Lane::new(
        quiet,
        &frames,
        machine,
        heap,
        objects,
        Names {
            malloc: "trace_off.malloc",
            free: "trace_off.free",
            poll: "trace_off.poll",
        },
    );
    let mut null = Lane::new(
        config.clone(),
        &frames,
        NullBackend::new(),
        NullHeap::new(),
        objects,
        Names {
            malloc: "substrate.null.malloc",
            free: "substrate.null.free",
            poll: "substrate.null.poll",
        },
    );
    let (machine, heap) = new_sim();
    let mut split_sim = Split {
        backend: machine,
        heap,
        canary: CanaryUnit::new(0x5EED_CA4A_4D00_0001),
        live: vec![(VirtAddr::new(0), ObjectLayout::new(true, 0)); objects],
        names: SplitNames {
            heap_malloc: "heap.malloc",
            heap_free: "heap.free",
            imprint: "canary.imprint",
            check: "canary.check",
            watch: "substrate.sim.watch",
        },
    };
    let mut split_null = Split {
        backend: NullBackend::new(),
        heap: NullHeap::new(),
        canary: CanaryUnit::new(0x5EED_CA4A_4D00_0001),
        live: vec![(VirtAddr::new(0), ObjectLayout::new(true, 0)); objects],
        names: SplitNames {
            heap_malloc: "substrate.null.heap_malloc",
            heap_free: "substrate.null.heap_free",
            imprint: "substrate.null.canary_imprint",
            check: "substrate.null.canary_check",
            watch: "substrate.null.watch",
        },
    };
    let mut decide = Decide::new(objects);
    let (mut access_machine, mut access_heap) = new_sim();

    for (b, batch) in stream.batches.iter().enumerate() {
        t.time("ctx.key", exec, root, batch.mallocs.len() as u64, || {
            for &(_, site, _) in &batch.mallocs {
                let s = &stream.sites[site as usize];
                let first = ctxs[site as usize]
                    .1
                    .first_level()
                    .expect("sites have frames");
                black_box(ContextKey::new(first, s.stack_offset).hash64());
            }
        });
        for lane in 0..3 {
            match (b + lane) % 3 {
                0 => sim_on.batch(t, exec, root, batch, &ctxs)?,
                1 => sim_off.batch(t, exec, root, batch, &ctxs)?,
                _ => null.batch(t, exec, root, batch, &ctxs)?,
            }
        }
        if b % 2 == 0 {
            split_sim.batch(t, exec, root, batch)?;
            split_null.batch(t, exec, root, batch)?;
        } else {
            split_null.batch(t, exec, root, batch)?;
            split_sim.batch(t, exec, root, batch)?;
        }
        decide.batch(t, exec, root, batch, &ctxs)?;
        machine_batch(t, exec, root, batch, &mut access_machine, &mut access_heap)?;
    }

    t.time("runtime.finish", exec, root, 1, || {
        sim_on.csod.finish(&mut sim_on.backend)
    });
    let drained = t.time("trace.drain", exec, root, 1, || sim_on.csod.drain_trace());
    sim_off.csod.finish(&mut sim_off.backend);
    null.csod.finish(&mut null.backend);
    let stats = sim_on.csod.decision_cache_stats();
    let mut counts = RoundCounts {
        allocations: sim_on.csod.stats().allocations,
        trace_events: drained.events.len() as u64 + drained.dropped,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        first_sights: sim_on.csod.distinct_contexts() as u64,
        ..RoundCounts::default()
    };

    let signatures: Vec<String> = stream
        .sites
        .iter()
        .take(MAX_RECORDS)
        .map(|s| s.signature())
        .collect();
    persist_probe(t, exec, root, &signatures, scratch)?;
    (counts.fleet_records, counts.checkpoint_syncs) =
        fleet_probe(t, exec, root, &signatures, scratch, threads)?;
    if let Some(id) = root {
        t.close(id, 1);
    }
    Ok(counts)
}

/// Single accesses and bursts over freshly allocated objects.
fn machine_batch(
    t: &mut Tracer,
    exec: u64,
    parent: Option<SpanId>,
    batch: &Batch,
    machine: &mut Machine,
    heap: &mut SimHeap,
) -> Result<(), String> {
    let objects: Vec<VirtAddr> = batch
        .mallocs
        .iter()
        .map(|m| heap.malloc(machine, m.2))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{e:?}"))?;
    let n = objects.len() as u64;
    let ok = t.time("machine.access", exec, parent, n, || {
        objects.iter().all(|&p| {
            machine
                .app_access(ThreadId::MAIN, p, 8, AccessKind::Write)
                .is_ok()
        })
    });
    let bulk_ok = t.time("machine.burst", exec, parent, n, || {
        objects.iter().all(|&p| {
            machine
                .app_access_bulk(ThreadId::MAIN, p, 8, AccessKind::Read, BURST)
                .is_ok()
        })
    });
    for p in objects {
        heap.free(machine, p).map_err(|e| format!("{e:?}"))?;
    }
    if ok && bulk_ok {
        Ok(())
    } else {
        Err("in-bounds access failed".into())
    }
}

fn records(signatures: &[String]) -> Vec<WalRecord> {
    signatures
        .iter()
        .map(|s| WalRecord::new(RecordKind::CanaryEvidence, 1_000_000, s.clone()))
        .collect()
}

/// Append, sync, recover and compact one WAL of the workload's contexts.
fn persist_probe(
    t: &mut Tracer,
    exec: u64,
    parent: Option<SpanId>,
    signatures: &[String],
    dir: &Path,
) -> Result<(), String> {
    let path = dir.join("probe.wal");
    let _ = std::fs::remove_file(&path);
    let records = records(signatures);
    let mut wal = Wal::open(&path);
    t.time("persist.append", exec, parent, records.len() as u64, || {
        for r in &records {
            wal.append(r);
        }
    });
    t.time("persist.sync", exec, parent, 1, || wal.sync());
    drop(wal);
    let state = t.time("persist.recover", exec, parent, 1, || Wal::recover(&path));
    if state.recovered != records.len() as u64 || state.skipped_corrupt != 0 {
        return Err(format!(
            "WAL recovered {} of {} records",
            state.recovered,
            records.len()
        ));
    }
    let strongest = state.strongest();
    t.time("persist.compact", exec, parent, 1, || {
        Wal::compact(&path, &strongest)
    })
    .map_err(|e| format!("compact: {e}"))
}

/// Ingest [`PROBE_WALS`] logs sharing the workload's contexts, plan the
/// next generation and seed one process from the plan.
fn fleet_probe(
    t: &mut Tracer,
    exec: u64,
    parent: Option<SpanId>,
    signatures: &[String],
    dir: &Path,
    threads: usize,
) -> Result<(u64, u64), String> {
    let records = records(signatures);
    let mut paths = Vec::with_capacity(PROBE_WALS);
    for k in 0..PROBE_WALS {
        let path = dir.join(format!("fleet-{k}.wal"));
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path);
        // Record 0 is in every log, so the store merges a shared context.
        for r in records
            .iter()
            .enumerate()
            .filter(|(i, _)| *i == 0 || i % PROBE_WALS == k)
            .map(|(_, r)| r)
        {
            wal.append(r);
        }
        wal.sync();
        paths.push(path);
    }
    let checkpoint = dir.join("fleet-checkpoint.wal");
    let _ = std::fs::remove_file(&checkpoint);
    let store = FleetStore::new();
    let opts = IngestOptions {
        threads,
        chunk: PROBE_WALS,
        checkpoint: Some(checkpoint),
    };
    let expected = (records.len() + PROBE_WALS - 1).min(records.len() * PROBE_WALS) as u64;
    let stats = t.time("fleet.ingest", exec, parent, expected, || {
        ingest_parallel(&store, &paths, &opts)
    });
    if stats.corrupt_skipped != 0 || stats.records != expected {
        return Err(format!(
            "fleet ingest merged {} of {expected} records",
            stats.records
        ));
    }
    let sampling = CsodConfig::default().sampling;
    let plan = t.time("fleet.plan", exec, parent, 1, || {
        SamplingBudget::default().plan(&store, PROBE_WALS as u64, &sampling)
    });
    let seed = dir.join("fleet-seed.wal");
    let _ = std::fs::remove_file(&seed);
    t.time("fleet.seed", exec, parent, 1, || plan.seed_wal(&seed))
        .map_err(|e| format!("seed WAL: {e}"))?;
    Ok((stats.records, stats.checkpoint_syncs))
}

/// The loop the `fastpath`, `tracing` and `backend` bins share: 64
/// contexts, 16-byte objects, 8,192 live, default configuration, on the
/// simulator. One runtime persists across rounds, as in those bins.
pub struct MicroLoop {
    csod: Csod,
    machine: Machine,
    heap: SimHeap,
    sites: Vec<(ContextKey, CallingContext)>,
    ptrs: Vec<VirtAddr>,
    rounds: u64,
}

impl MicroLoop {
    const CONTEXTS: usize = 64;
    const LIVE: usize = 8_192;

    pub fn new() -> Self {
        let frames = Arc::new(FrameTable::new());
        let sites = (0..Self::CONTEXTS)
            .map(|i| {
                let loc = format!("hot_{i}.c:1");
                let ctx = CallingContext::from_locations(
                    &frames,
                    [loc.as_str(), "driver.c:7", "main.c:1"],
                );
                (
                    ContextKey::new(ctx.first_level().expect("non-empty"), 0x40),
                    ctx,
                )
            })
            .collect();
        let (machine, heap) = new_sim();
        MicroLoop {
            csod: Csod::new(CsodConfig::default(), frames),
            machine,
            heap,
            sites,
            ptrs: Vec::with_capacity(Self::LIVE),
            rounds: 0,
        }
    }

    /// One round of 8,192 mallocs then 8,192 frees. The first round
    /// settles first-sight interning and is not recorded.
    pub fn round(&mut self, t: &mut Tracer, exec: u64) -> Result<(), String> {
        let MicroLoop {
            csod,
            machine,
            heap,
            sites,
            ptrs,
            rounds,
        } = self;
        let was = t.enabled();
        t.set_enabled(was && *rounds > 0);
        let n = Self::LIVE as u64;
        let res = t.time("ledger.micro_malloc", exec, None, n, || {
            for i in 0..Self::LIVE {
                let (key, ctx) = &sites[i % Self::CONTEXTS];
                ptrs.push(csod.malloc(machine, heap, ThreadId::MAIN, 16, *key, ctx)?);
            }
            Ok::<(), csod_core::CsodError>(())
        });
        let res = res.and_then(|()| {
            t.time("ledger.micro_free", exec, None, n, || {
                ptrs.drain(..)
                    .try_for_each(|p| csod.free(machine, heap, ThreadId::MAIN, p).map(drop))
            })
        });
        csod.poll(machine);
        t.set_enabled(was);
        *rounds += 1;
        res.map_err(|e| format!("micro loop: {e:?}"))
    }
}

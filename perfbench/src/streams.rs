//! The workloads' inputs as event streams, and the allocation streams
//! the per-layer probes replay.
//!
//! `perf_events` and `fleet_events` regenerate, call for call,
//! the events `PerfApp::run` and the fleet driver's processes execute.
//! The benchmark checks the first against `PerfApp::run` on every traced
//! pass, so a drift between the two shows up as a failed operation.

use csod_ctx::{CallingContext, ContextKey, FrameTable};
use csod_rng::Arc4Random;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_machine::{AccessKind, SiteToken};
use std::collections::HashMap;
use workloads::{Event, FleetRoundConfig, PerfApp, SiteRegistry};

/// Mallocs per probe batch: small enough that a slot freed and reused
/// inside one batch is rare, large enough that two clock reads vanish
/// against the calls they time.
pub const BATCH: usize = 64;

/// Feeds `emit` every event `PerfApp::run(registry, tool, seed)` steps.
pub fn perf_events(app: &PerfApp, seed: u64, mut emit: impl FnMut(&Event)) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E4F);
    let app_site = SiteToken(0);
    let lib_site = SiteToken(1);
    let threads = app.sim_threads() as u64;
    for _ in 1..threads {
        emit(&Event::SpawnThread);
    }
    let n_base = app
        .executed_allocs()
        .min((app.contexts as u64).max(4) * 2)
        .clamp(1, 128);
    let mut base_size = ((app.resident_kb * 1024) / n_base).max(64);
    while base_size > 128
        && sim_heap::SizeClass::for_request(base_size + 64).block_size()
            != sim_heap::SizeClass::for_request(base_size).block_size()
    {
        base_size -= 64;
    }
    for i in 0..n_base {
        emit(&Event::Malloc {
            thread: (i % threads) as u8,
            site: (i as usize) % app.contexts,
            size: base_size,
            slot: i as usize,
        });
    }
    let churn = app.executed_allocs().saturating_sub(n_base);
    let chunks = 100u64;
    let per_chunk_accesses = app.base_accesses / chunks;
    let per_chunk_compute = app.base_compute / chunks;
    let per_chunk_io = app.io_ms * 1_000_000 / chunks;
    let slot0 = n_base as usize;
    let window = 64usize;
    let split = |count: u64| {
        let uninstr = (count as f64 * app.uninstrumented_access_fraction) as u64;
        (count - uninstr, uninstr)
    };
    let mut alloc_no = 0u64;
    for chunk in 0..chunks {
        let thread = (chunk % threads) as u8;
        if per_chunk_accesses > 0 {
            let (instr, uninstr) = split(per_chunk_accesses);
            let slot = if rng.gen_bool(0.5) {
                0
            } else {
                (n_base - 1) as usize
            };
            emit(&Event::AccessBurst {
                thread,
                slot,
                count: instr,
                kind: AccessKind::Read,
                site: app_site,
            });
            if uninstr > 0 {
                emit(&Event::AccessBurst {
                    thread,
                    slot,
                    count: uninstr,
                    kind: AccessKind::Read,
                    site: lib_site,
                });
            }
        }
        if per_chunk_compute > 0 {
            emit(&Event::Compute {
                thread: 0,
                ops: per_chunk_compute,
            });
        }
        if per_chunk_io > 0 {
            emit(&Event::IoWait { ns: per_chunk_io });
        }
        let this_chunk = churn / chunks + u64::from(chunk < churn % chunks);
        for _ in 0..this_chunk {
            let thread = (alloc_no % threads) as u8;
            let slot = slot0 + (alloc_no as usize % window);
            emit(&Event::Free { thread, slot });
            let site = if alloc_no < app.contexts as u64 {
                alloc_no as usize
            } else {
                let r: f64 = rng.gen();
                ((r * r * app.contexts as f64) as usize).min(app.contexts - 1)
            };
            let size = rng.gen_range(2..=32u64) * 8;
            emit(&Event::Malloc {
                thread,
                site,
                size,
                slot,
            });
            if app.accesses_per_alloc > 0 {
                let (instr, uninstr) = split(app.accesses_per_alloc);
                let kind = if alloc_no.is_multiple_of(2) {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                emit(&Event::AccessBurst {
                    thread,
                    slot,
                    count: instr,
                    kind,
                    site: app_site,
                });
                if uninstr > 0 {
                    emit(&Event::AccessBurst {
                        thread,
                        slot,
                        count: uninstr,
                        kind: AccessKind::Read,
                        site: lib_site,
                    });
                }
            }
            if app.accesses_per_alloc * app.compute_per_access > 0 {
                emit(&Event::Compute {
                    thread,
                    ops: app.accesses_per_alloc * app.compute_per_access,
                });
            }
            alloc_no += 1;
        }
    }
}

/// Where an execution's events come from.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    Perf(&'a PerfApp, u64),
    Trace(&'a [Event]),
    /// Process `index` of a fleet round.
    Fleet(&'a FleetRoundConfig, usize),
}

impl Source<'_> {
    pub fn for_each(&self, f: impl FnMut(&Event)) {
        match *self {
            Source::Perf(app, seed) => perf_events(app, seed, f),
            Source::Trace(events) => events.iter().for_each(f),
            Source::Fleet(cfg, index) => fleet_events(cfg, index, f),
        }
    }
}

/// The registry behind `fleet_events`: site 0 is the fleet-wide bug
/// context, as in the fleet driver.
pub fn fleet_registry(cfg: &FleetRoundConfig, app: &str) -> SiteRegistry {
    let mut reg = SiteRegistry::new(app, std::sync::Arc::new(FrameTable::new()));
    reg.add_alloc_sites(cfg.sites.max(2));
    reg
}

/// Feeds `emit` the allocations and frees fleet process `index` makes:
/// the fleet driver's churn loop without its planted store, polls and
/// clock skips. Generated while it runs, as the driver does.
pub fn fleet_events(cfg: &FleetRoundConfig, index: usize, mut emit: impl FnMut(&Event)) {
    let sites = cfg.sites.max(2) as u64;
    let mut rng = Arc4Random::from_seed(cfg.seed + index as u64, 11);
    let mut ring = [false; 24];
    for i in 0..cfg.allocations {
        let slot = rng.next_u64() as usize % ring.len();
        if ring[slot] {
            emit(&Event::free(slot));
        }
        let site = if i == 0 {
            0
        } else {
            (rng.next_u64() % sites) as usize
        };
        let size = 16 + u64::from(rng.uniform(8)) * 8;
        emit(&Event::malloc(site, size, slot));
        ring[slot] = true;
    }
    for (slot, live) in ring.iter().enumerate() {
        if *live {
            emit(&Event::free(slot));
        }
    }
}

/// One allocation context of a probe stream.
#[derive(Debug, Clone)]
pub struct Site {
    pub locations: Vec<String>,
    pub stack_offset: u64,
}

impl Site {
    /// Interns the context (a first sight) and derives its key.
    pub fn intern(&self, frames: &FrameTable) -> (ContextKey, CallingContext) {
        let ctx = CallingContext::from_locations(frames, self.locations.iter().map(String::as_str));
        let key = ContextKey::new(
            ctx.first_level().expect("sites have frames"),
            self.stack_offset,
        );
        (key, ctx)
    }

    pub fn signature(&self) -> String {
        self.locations.join("|")
    }
}

/// One probe batch: the objects to free (allocated in earlier batches),
/// then up to [`BATCH`] new objects as `(object, site, size)`.
#[derive(Debug, Default, Clone)]
pub struct Batch {
    pub frees: Vec<u32>,
    pub mallocs: Vec<(u32, u32, u64)>,
}

/// A workload's allocation stream cut into probe batches.
#[derive(Debug, Default)]
pub struct Stream {
    pub sites: Vec<Site>,
    pub batches: Vec<Batch>,
    pub objects: usize,
}

impl Stream {
    /// Appends the malloc/free events of one execution, at most
    /// `max_mallocs` mallocs; objects still live at its end are freed.
    pub fn add(&mut self, registry: &SiteRegistry, source: Source<'_>, max_mallocs: usize) {
        let site0 = self.sites.len() as u32;
        let frames = registry.frames();
        for site in registry.alloc_sites() {
            self.sites.push(Site {
                locations: site.context.iter().map(|f| frames.resolve(f)).collect(),
                stack_offset: site.key.stack_offset(),
            });
        }
        if self.batches.is_empty() {
            self.batches.push(Batch::default());
        }
        let mut slots: HashMap<usize, u32> = HashMap::new();
        let mut carried: Vec<u32> = Vec::new();
        let mut taken = 0usize;
        source.for_each(|event| match *event {
            Event::Malloc {
                site, size, slot, ..
            } if taken < max_mallocs => {
                taken += 1;
                let obj = self.objects as u32;
                self.objects += 1;
                if let Some(old) = slots.insert(slot, obj) {
                    self.free(old, &mut carried);
                }
                let batch = self.batches.last_mut().expect("one batch is open");
                batch.mallocs.push((obj, site0 + site as u32, size));
                if batch.mallocs.len() == BATCH {
                    self.batches.push(Batch {
                        frees: std::mem::take(&mut carried),
                        mallocs: Vec::new(),
                    });
                }
            }
            Event::Free { slot, .. } => {
                if let Some(obj) = slots.remove(&slot) {
                    self.free(obj, &mut carried);
                }
            }
            _ => {}
        });
        let mut live: Vec<u32> = slots.into_values().collect();
        live.sort_unstable();
        for obj in live {
            self.free(obj, &mut carried);
        }
        // Close the execution so no object outlives it in the stream.
        self.batches.push(Batch {
            frees: carried,
            mallocs: Vec::new(),
        });
    }

    /// Schedules `obj`'s free: in the open batch if it was allocated in
    /// an earlier one, otherwise at the start of the next batch.
    fn free(&mut self, obj: u32, carried: &mut Vec<u32>) {
        let batch = self.batches.last_mut().expect("one batch is open");
        let first_new = batch.mallocs.first().map_or(u32::MAX, |m| m.0);
        if obj >= first_new {
            carried.push(obj);
        } else {
            batch.frees.push(obj);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csod_core::CsodConfig;
    use workloads::{ToolSpec, TraceRunner};

    #[test]
    fn perf_events_replay_perf_app_run() {
        let mut app = PerfApp::by_name("x264").unwrap();
        app.exec_cap = 3_000;
        app.base_accesses /= 50;
        app.base_compute /= 50;
        let reg = app.registry();
        let direct = app.run(&reg, ToolSpec::Csod(CsodConfig::default()), 5);
        let mut runner = TraceRunner::new(&reg, ToolSpec::Csod(CsodConfig::default()));
        perf_events(&app, 5, |e| runner.step(e));
        assert_eq!(runner.finish(), direct);
    }

    #[test]
    fn every_stream_object_is_freed_once_after_its_malloc() {
        let cfg = FleetRoundConfig::default();
        let reg = fleet_registry(&cfg, "fleet");
        let mut stream = Stream::default();
        for i in 0..3 {
            stream.add(&reg, Source::Fleet(&cfg, i), usize::MAX);
        }
        assert_eq!(stream.objects as u64, 3 * cfg.allocations);
        let mut born = vec![false; stream.objects];
        let mut freed = vec![false; stream.objects];
        for batch in &stream.batches {
            for &obj in &batch.frees {
                assert!(born[obj as usize] && !freed[obj as usize]);
                freed[obj as usize] = true;
            }
            for &(obj, _, _) in &batch.mallocs {
                born[obj as usize] = true;
            }
            assert!(batch.mallocs.len() <= BATCH);
        }
        assert!(freed.iter().all(|&f| f));
    }
}

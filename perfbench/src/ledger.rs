//! Turns the traced run's spans and counts into the per-layer ledger:
//! one row per layer call, the shared micro loop beside the real
//! streams, the residual the layer rows leave unexplained, and the
//! simulator's cost constants against measured host time.

use crate::e2e::Tally;
use crate::layers::RoundCounts;
use crate::spans::Tracer;
use crate::stats::{median, quantile, share};
use sim_machine::CostModel;
use std::collections::HashMap;

/// Every per-layer metric, in output order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("driver.new_us", "us"),
    ("driver.finish_us", "us"),
    ("driver.step_ns.malloc", "ns"),
    ("driver.step_ns.free", "ns"),
    ("driver.step_ns.access", "ns"),
    ("driver.step_ns.other", "ns"),
    ("driver.control_step_ns.malloc", "ns"),
    ("driver.control_step_ns.free", "ns"),
    ("driver.control_step_ns.access", "ns"),
    ("driver.control_step_ns.other", "ns"),
    ("runtime.malloc_ns.p50", "ns"),
    ("runtime.malloc_ns.p99", "ns"),
    ("runtime.malloc_ns.q1", "ns"),
    ("runtime.malloc_ns.q3", "ns"),
    ("runtime.free_ns.p50", "ns"),
    ("runtime.free_ns.p99", "ns"),
    ("runtime.poll_ns", "ns"),
    ("runtime.finish_us", "us"),
    ("ctx.key_ns", "ns"),
    ("ctx.first_sight_us", "us"),
    ("rng.draw_ns", "ns"),
    ("sampling.decide_ns", "ns"),
    ("sampling.cache_hit_share", "share"),
    ("sampling.first_sight_share", "share"),
    ("canary.imprint_ns", "ns"),
    ("canary.check_ns", "ns"),
    ("canary.hits", "count"),
    ("watch.consider_ns", "ns"),
    ("watch.remove_ns", "ns"),
    ("watch.drain_ns", "ns"),
    ("watch.installs_per_kalloc", "count"),
    ("watch.syscalls_per_alloc", "count"),
    ("watch.filtered_free_share", "share"),
    ("watch.detect_share", "share"),
    ("substrate.null.malloc_ns", "ns"),
    ("substrate.null.free_ns", "ns"),
    ("substrate.null.heap_ns", "ns"),
    ("substrate.null.canary_ns", "ns"),
    ("substrate.null.watch_ns", "ns"),
    ("substrate.sim.malloc_ns", "ns"),
    ("substrate.sim.free_ns", "ns"),
    ("substrate.sim.heap_ns", "ns"),
    ("substrate.sim.canary_ns", "ns"),
    ("substrate.sim.watch_ns", "ns"),
    ("heap.malloc_ns", "ns"),
    ("heap.free_ns", "ns"),
    ("machine.access_ns", "ns"),
    ("machine.burst_ns", "ns"),
    ("replay.access_share", "share"),
    ("trace.events_per_alloc", "count"),
    ("trace.emit_ns", "ns"),
    ("trace.drain_us", "us"),
    ("persist.append_us", "us"),
    ("persist.sync_ms", "ms"),
    ("persist.compact_ms", "ms"),
    ("persist.recover_ms", "ms"),
    ("fleet.ingest_ms", "ms"),
    ("fleet.plan_ms", "ms"),
    ("fleet.seed_ms", "ms"),
    ("fleet.records_per_s", "1/s"),
    ("fleet.checkpoint_syncs", "count"),
    ("fleet.mitigated_rate", "share"),
    ("ledger.residual_share", "share"),
    ("ledger.span_overhead_share", "share"),
    ("ledger.micro_loop_malloc_ns", "ns"),
    ("ledger.micro_loop_malloc_ns.q1", "ns"),
    ("ledger.micro_loop_malloc_ns.q3", "ns"),
    ("calib.ctx_lookup", "ratio"),
    ("calib.rng_draw", "ratio"),
    ("calib.return_address", "ratio"),
    ("calib.full_backtrace", "ratio"),
    ("calib.canary_write", "ratio"),
    ("calib.canary_check", "ratio"),
    ("calib.malloc_base", "ratio"),
    ("calib.free_base", "ratio"),
    ("calib.mem_access", "ratio"),
];

pub fn layer_metrics(
    tracer: &Tracer,
    tally: &Tally,
    probes: &[RoundCounts],
    on_s: &[f64],
    off_s: &[f64],
) -> Vec<(&'static str, f64)> {
    let per_op = tracer.per_op_ns();
    let totals = tracer.totals();
    let q = |name: &str, p: f64| per_op.get(name).map_or(0.0, |v| quantile(v, p));
    let med = |name: &str| q(name, 0.5);
    // Summed time over summed operations, for spans whose operation
    // counts differ widely (one per execution and event kind).
    let pooled = |name: &str| totals.get(name).map_or(0.0, |&(ns, n)| share(ns, n as f64));
    let total_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
    let sum = |f: fn(&RoundCounts) -> u64| probes.iter().map(f).sum::<u64>() as f64;

    let allocs = tally.allocations as f64;
    let events_per_alloc = share(tally.trace_events as f64, allocs);
    let installs_per_alloc = share(tally.installs as f64, allocs);
    let trace_emit = share(
        total_ns("runtime.malloc") + total_ns("runtime.free")
            - total_ns("trace_off.malloc")
            - total_ns("trace_off.free"),
        sum(|c| c.trace_events),
    );
    let fleet_records = median(
        &probes
            .iter()
            .map(|c| c.fleet_records as f64)
            .collect::<Vec<_>>(),
    );

    let mut m: HashMap<&'static str, f64> = HashMap::new();
    for (kind, csod, control) in [
        (
            "malloc",
            "driver.step_ns.malloc",
            "driver.control_step_ns.malloc",
        ),
        ("free", "driver.step_ns.free", "driver.control_step_ns.free"),
        (
            "access",
            "driver.step_ns.access",
            "driver.control_step_ns.access",
        ),
        (
            "other",
            "driver.step_ns.other",
            "driver.control_step_ns.other",
        ),
    ] {
        m.insert(csod, pooled(&format!("driver.step.{kind}")));
        m.insert(control, pooled(&format!("control.step.{kind}")));
    }
    let rows: Vec<(&'static str, f64)> = vec![
        ("driver.new_us", med("driver.new") / 1e3),
        ("driver.finish_us", med("driver.finish") / 1e3),
        ("runtime.malloc_ns.p50", med("runtime.malloc")),
        ("runtime.malloc_ns.p99", q("runtime.malloc", 0.99)),
        ("runtime.malloc_ns.q1", q("runtime.malloc", 0.25)),
        ("runtime.malloc_ns.q3", q("runtime.malloc", 0.75)),
        ("runtime.free_ns.p50", med("runtime.free")),
        ("runtime.free_ns.p99", q("runtime.free", 0.99)),
        ("runtime.poll_ns", med("runtime.poll")),
        ("runtime.finish_us", med("runtime.finish") / 1e3),
        ("ctx.key_ns", med("ctx.key")),
        ("ctx.first_sight_us", med("ctx.first_sight") / 1e3),
        ("rng.draw_ns", med("rng.draw")),
        ("sampling.decide_ns", med("sampling.decide")),
        (
            "sampling.cache_hit_share",
            share(
                sum(|c| c.cache_hits),
                sum(|c| c.cache_hits + c.cache_misses),
            ),
        ),
        (
            "sampling.first_sight_share",
            share(sum(|c| c.first_sights), sum(|c| c.allocations)),
        ),
        ("canary.imprint_ns", med("canary.imprint")),
        ("canary.check_ns", med("canary.check")),
        (
            "canary.hits",
            share(tally.canary_hit_execs as f64, tally.traced_passes as f64),
        ),
        ("watch.consider_ns", med("watch.consider")),
        ("watch.remove_ns", med("watch.remove")),
        ("watch.drain_ns", med("watch.drain")),
        ("watch.installs_per_kalloc", installs_per_alloc * 1e3),
        (
            "watch.syscalls_per_alloc",
            share(tally.syscalls as f64, allocs),
        ),
        (
            "watch.filtered_free_share",
            share(tally.filtered_frees as f64, tally.frees as f64),
        ),
        (
            "watch.detect_share",
            share(tally.watch_detections as f64, tally.detections as f64),
        ),
        ("substrate.null.malloc_ns", med("substrate.null.malloc")),
        ("substrate.null.free_ns", med("substrate.null.free")),
        (
            "substrate.null.heap_ns",
            med("substrate.null.heap_malloc") + med("substrate.null.heap_free"),
        ),
        (
            "substrate.null.canary_ns",
            med("substrate.null.canary_imprint") + med("substrate.null.canary_check"),
        ),
        ("substrate.null.watch_ns", med("substrate.null.watch")),
        ("substrate.sim.malloc_ns", med("runtime.malloc")),
        ("substrate.sim.free_ns", med("runtime.free")),
        (
            "substrate.sim.heap_ns",
            med("heap.malloc") + med("heap.free"),
        ),
        (
            "substrate.sim.canary_ns",
            med("canary.imprint") + med("canary.check"),
        ),
        ("substrate.sim.watch_ns", med("substrate.sim.watch")),
        ("heap.malloc_ns", med("heap.malloc")),
        ("heap.free_ns", med("heap.free")),
        ("machine.access_ns", med("machine.access")),
        ("machine.burst_ns", med("machine.burst")),
        (
            "replay.access_share",
            share(tally.replay_accesses as f64, tally.accesses as f64),
        ),
        ("trace.events_per_alloc", events_per_alloc),
        ("trace.emit_ns", trace_emit),
        ("trace.drain_us", med("trace.drain") / 1e3),
        ("persist.append_us", med("persist.append") / 1e3),
        ("persist.sync_ms", med("persist.sync") / 1e6),
        ("persist.compact_ms", med("persist.compact") / 1e6),
        ("persist.recover_ms", med("persist.recover") / 1e6),
        ("fleet.ingest_ms", med("fleet.ingest") * fleet_records / 1e6),
        ("fleet.plan_ms", med("fleet.plan") / 1e6),
        ("fleet.seed_ms", med("fleet.seed") / 1e6),
        ("fleet.records_per_s", share(1e9, med("fleet.ingest"))),
        (
            "fleet.checkpoint_syncs",
            median(
                &probes
                    .iter()
                    .map(|c| c.checkpoint_syncs as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("fleet.mitigated_rate", tally.mitigated),
        (
            "ledger.span_overhead_share",
            median(
                &on_s
                    .iter()
                    .zip(off_s)
                    .map(|(on, off)| on / off - 1.0)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("ledger.micro_loop_malloc_ns", med("ledger.micro_malloc")),
        (
            "ledger.micro_loop_malloc_ns.q1",
            q("ledger.micro_malloc", 0.25),
        ),
        (
            "ledger.micro_loop_malloc_ns.q3",
            q("ledger.micro_malloc", 0.75),
        ),
    ];
    m.extend(rows);

    // What one CSOD allocation (its malloc and its free) costs the
    // driver beyond the control, against the sum of the layer rows that
    // make it up. The share left over is cost no layer row explains.
    let csod_ns = total_ns("driver.step.malloc") + total_ns("driver.step.free");
    let control_ns = total_ns("control.step.malloc") + total_ns("control.step.free");
    let mallocs = totals.get("driver.step.malloc").map_or(0, |t| t.1) as f64;
    let end_to_end = share(csod_ns - control_ns, mallocs);
    let layers = m["ctx.key_ns"]
        + m["sampling.decide_ns"]
        + m["canary.imprint_ns"]
        + m["canary.check_ns"]
        + trace_emit * events_per_alloc
        + installs_per_alloc * (m["watch.consider_ns"] + m["watch.remove_ns"]);
    m.insert(
        "ledger.residual_share",
        share(end_to_end - layers, end_to_end),
    );

    // Measured host ns of the matching call over the modelled constant.
    let cost = CostModel::default();
    let calib = [
        ("calib.ctx_lookup", med("ctx.lookup"), cost.ctx_lookup),
        ("calib.rng_draw", m["rng.draw_ns"], cost.rng_draw),
        ("calib.return_address", m["ctx.key_ns"], cost.return_address),
        (
            "calib.full_backtrace",
            m["ctx.first_sight_us"] * 1e3,
            cost.full_backtrace,
        ),
        (
            "calib.canary_write",
            m["canary.imprint_ns"],
            cost.canary_write,
        ),
        (
            "calib.canary_check",
            m["canary.check_ns"],
            cost.canary_check,
        ),
        ("calib.malloc_base", m["heap.malloc_ns"], cost.malloc_base),
        ("calib.free_base", m["heap.free_ns"], cost.free_base),
        ("calib.mem_access", m["machine.access_ns"], cost.mem_access),
    ];
    for (name, host_ns, modelled) in calib {
        m.insert(name, share(host_ns, modelled as f64));
    }

    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            (
                name,
                *m.get(name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} not computed")),
            )
        })
        .collect()
}

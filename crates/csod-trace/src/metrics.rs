//! The metrics registry: named counters, gauges and histogram
//! snapshots with JSON and Prometheus-style text serialization.
//!
//! The registry is a point-in-time container, not a live aggregation
//! pipeline: the runtime builds one on demand, then serializes it. Its
//! counters come from one table, `CsodStats::COUNTERS` in `csod-core`,
//! which names every run counter (the runtime's own, and the nested
//! watchpoint, degradation-ladder and decision-cache snapshots). The
//! runtime adds the report count, its gauges and the histograms it
//! maintains. `BTreeMap` storage keeps both output formats
//! deterministically ordered.

use crate::histogram::HistogramSnapshot;
use crate::json_escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A named collection of counters, gauges and histogram snapshots.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Sets a monotonically increasing counter.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Sets an instantaneous gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Attaches a histogram snapshot.
    pub fn set_histogram(&mut self, name: &str, snapshot: HistogramSnapshot) {
        self.histograms.insert(name.to_owned(), snapshot);
    }

    /// Reads back a counter (for tests and summaries).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Reads back a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// One JSON object: `counters` and `gauges` as flat maps,
    /// `histograms` as objects with count/sum/min/max/mean/p50/p99 and
    /// the non-empty `(le, count)` buckets.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, value) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", json_escape(name), value);
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (name, value) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", json_escape(name), value);
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (name, snap) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.3}, \"p50\": {}, \"p99\": {}, \"buckets\": [",
                json_escape(name),
                snap.count,
                snap.sum,
                snap.min,
                snap.max,
                snap.mean(),
                snap.quantile(0.5),
                snap.quantile(0.99),
            );
            for (i, &(bound, count)) in snap.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{bound},{count}]");
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Prometheus text exposition format: `# TYPE` lines, counters and
    /// gauges as plain samples, histograms as cumulative `_bucket{le=}`
    /// series plus `_sum` / `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, snap) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for &(bound, count) in &snap.buckets {
                cumulative += count;
                let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
            let _ = writeln!(out, "{name}_sum {}", snap.sum);
            let _ = writeln!(out, "{name}_count {}", snap.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("csod_allocs_total", 10);
        reg.set_counter("csod_traps_total", 2);
        reg.set_gauge("csod_slot_occupancy", 0.75);
        let mut h = Histogram::new();
        h.record(3);
        h.record(7);
        reg.set_histogram("csod_watch_lifetime_ns", h.snapshot());
        reg
    }

    #[test]
    fn json_contains_all_sections_in_order() {
        let json = sample_registry().to_json();
        assert!(json.contains("\"csod_allocs_total\": 10"));
        assert!(json.contains("\"csod_slot_occupancy\": 0.75"));
        assert!(json.contains("\"csod_watch_lifetime_ns\""));
        assert!(json.contains("\"count\": 2"));
        let allocs = json.find("csod_allocs_total").unwrap();
        let traps = json.find("csod_traps_total").unwrap();
        assert!(allocs < traps, "BTreeMap keeps keys sorted");
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let text = sample_registry().to_prometheus();
        assert!(text.contains("# TYPE csod_allocs_total counter"));
        assert!(text.contains("csod_watch_lifetime_ns_bucket{le=\"4\"} 1"));
        assert!(text.contains("csod_watch_lifetime_ns_bucket{le=\"8\"} 2"));
        assert!(text.contains("csod_watch_lifetime_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("csod_watch_lifetime_ns_sum 10"));
        assert!(text.contains("csod_watch_lifetime_ns_count 2"));
    }

    #[test]
    fn accessors_round_trip() {
        let reg = sample_registry();
        assert_eq!(reg.counter("csod_traps_total"), Some(2));
        assert_eq!(reg.gauge("csod_slot_occupancy"), Some(0.75));
        assert_eq!(reg.histograms["csod_watch_lifetime_ns"].count, 2);
        assert_eq!(reg.counter("missing"), None);
        assert_eq!(
            reg.counters.len() + reg.gauges.len() + reg.histograms.len(),
            4
        );
    }
}

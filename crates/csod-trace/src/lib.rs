//! # csod-trace — the always-on observability layer
//!
//! CSOD is pitched as a production detector; the value of a sampled
//! production detector is realized through its telemetry. This crate is
//! the substrate the rest of the reproduction reports through:
//!
//! * [`Tracer`] / [`ThreadTracer`] — a lock-free, per-thread bounded
//!   ring-buffer event tracer. Each thread writes [`TraceEvent`]s into
//!   its own ring with plain atomic stores (no locks, no allocation on
//!   the hot path); [`Tracer::drain`] merges every ring into one
//!   time-ordered stream. Tracing is always compiled in; embedders
//!   switch it off at run time by not emitting.
//! * [`Histogram`] — power-of-two-bucketed latency/occupancy histograms
//!   cheap enough to record on runtime paths.
//! * [`MetricsRegistry`] — named counters, gauges and histograms with
//!   JSON and Prometheus-style text serialization.
//! * [`JsonlFileSink`] — the crash-tolerant JSONL file that overflow
//!   reports are appended to, one line per detection.
//!
//! The crate is dependency-free and knows nothing about the simulator:
//! timestamps are plain nanosecond counts, thread ids plain `u32`s.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::perf)]

mod event;
mod histogram;
mod metrics;
mod ring;
mod sink;

pub use event::{TraceEvent, TraceEventKind};
pub use histogram::{Histogram, HistogramSnapshot};
pub use metrics::MetricsRegistry;
pub use ring::{ThreadTracer, TraceStream, Tracer, DEFAULT_RING_CAPACITY};
pub use sink::{JsonlFileSink, FLUSH_EVERY_ENV};

/// Minimal JSON string escaping for hand-rolled serializers: quotes,
/// backslashes and control characters. Everything this workspace writes
/// into JSON (source locations, metric names) is ASCII, so this is
/// complete for its inputs while staying allocation-light.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(json_escape("plain.c:12"), "plain.c:12");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}

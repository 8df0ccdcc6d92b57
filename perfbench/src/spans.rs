//! In-memory spans recorded around calls into the CSOD layers.
//!
//! Each span has a name, a start, a duration, the span that caused it
//! and the execution it belongs to, plus the number of operations it
//! covers, so a batch of `n` calls yields a per-call cost. Spans stay in
//! memory and are written out once, when the run ends. Per-layer costs
//! are self times: a span's duration minus the durations of its
//! children.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    exec: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    dur_ns: u64,
    count: u64,
}

/// Span recorder. When disabled, every call is a no-op and callers skip
/// their own clock reads, so the same code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, exec: u64, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            exec,
            parent,
            start_ns,
            dur_ns: 0,
            count: 0,
        });
        self.spans.len() - 1
    }

    /// Ends span `id`, which covered `count` operations.
    pub fn close(&mut self, id: SpanId, count: u64) {
        if let Some(span) = self.spans.get_mut(id) {
            let end = self.origin.elapsed().as_nanos() as u64;
            span.dur_ns = end.saturating_sub(span.start_ns);
            span.count = count;
        }
    }

    /// Records a span whose time the caller already measured, e.g. the
    /// summed time of every `step` of one kind in one execution.
    pub fn record(
        &mut self,
        name: &'static str,
        exec: u64,
        parent: Option<SpanId>,
        start: Instant,
        dur: Duration,
        count: u64,
    ) {
        if !self.enabled || count == 0 {
            return;
        }
        self.spans.push(Span {
            name,
            exec,
            parent,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            count,
        });
    }

    /// Times `f` as one span of `count` operations.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        exec: u64,
        parent: Option<SpanId>,
        count: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, exec, parent);
        let r = f();
        self.close(id, count);
        r
    }

    fn self_times(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p] += span.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.dur_ns.saturating_sub(c))
            .collect()
    }

    /// Per-operation self time in ns of every span, grouped by name.
    pub fn per_op_ns(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            if span.count > 0 {
                out.entry(span.name)
                    .or_default()
                    .push(self_ns as f64 / span.count as f64);
            }
        }
        out
    }

    /// Summed self time (ns) and operation count of every span, by name.
    pub fn totals(&self) -> HashMap<&'static str, (f64, u64)> {
        let mut out: HashMap<&'static str, (f64, u64)> = HashMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(span.name).or_default();
            e.0 += self_ns as f64;
            e.1 += span.count;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"exec\":{},\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{self_ns},\"count\":{}}}",
                s.name, s.exec, s.start_ns, s.dur_ns, s.count
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let parent = t.open("outer", 0, None);
        let start = Instant::now();
        t.record(
            "inner",
            0,
            Some(parent),
            start,
            Duration::from_nanos(400),
            4,
        );
        std::thread::sleep(Duration::from_millis(1));
        t.close(parent, 1);
        let per_op = t.per_op_ns();
        assert_eq!(per_op["inner"], vec![100.0]);
        let outer = per_op["outer"][0];
        assert!(outer >= 1_000_000.0 - 400.0, "outer self time {outer}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", 0, None);
        t.close(id, 1);
        assert_eq!(t.time("y", 0, None, 1, || 7), 7);
        assert!(t.per_op_ns().is_empty());
    }
}

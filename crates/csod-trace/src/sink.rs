//! The JSONL file sink for structured records.
//!
//! The runtime renders each overflow report to one JSON line and
//! appends it here. The sink is deliberately dumb — it sees opaque
//! lines, not report types — so this crate stays independent of the
//! report schema.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Environment knob: make the JSONL sink durably sync its file every N
/// lines (`0`/unset/unparsable = only at flush points and on drop).
pub const FLUSH_EVERY_ENV: &str = "CSOD_TRACE_FLUSH_EVERY";

/// Appends records to a JSONL file, one record per line. Creation and
/// writes are best-effort: an unwritable path degrades to a no-op sink
/// rather than failing the traced program.
///
/// Durability: lines written since the last durable sync are counted
/// as *pending*. The [`FLUSH_EVERY_ENV`] knob syncs the file every N
/// lines, and dropping the sink syncs whatever is still pending — so a
/// crashing host program loses at most the lines of one sync window,
/// and the drop path reports how many lines it salvaged through the
/// shared counter.
#[derive(Debug)]
pub struct JsonlFileSink {
    file: Option<File>,
    /// Lines written since the last durable sync.
    pending: u64,
    /// Durably sync every N lines; `None` = only at drop.
    flush_every: Option<u64>,
    /// Shared tally of lines whose durable sync happened only on drop.
    drop_counter: Option<Arc<AtomicU64>>,
}

impl JsonlFileSink {
    /// Opens (creating or appending to) the file at `path`. The
    /// periodic-sync interval is read from [`FLUSH_EVERY_ENV`].
    pub fn new(path: &Path) -> JsonlFileSink {
        let file = OpenOptions::new().create(true).append(true).open(path).ok();
        let flush_every = std::env::var(FLUSH_EVERY_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&n| n > 0);
        JsonlFileSink {
            file,
            pending: 0,
            flush_every,
            drop_counter: None,
        }
    }

    /// Like [`JsonlFileSink::new`], but wires a shared counter that the
    /// drop path adds its salvaged-line count to — the runtime surfaces
    /// it as `reports_flushed_on_drop`.
    pub fn with_drop_counter(path: &Path, counter: Arc<AtomicU64>) -> JsonlFileSink {
        let mut sink = JsonlFileSink::new(path);
        sink.drop_counter = Some(counter);
        sink
    }

    /// Appends one record, already serialized without its trailing
    /// newline. Never fails loudly — observability never takes the
    /// process down.
    pub fn write_line(&mut self, line: &str) {
        if let Some(file) = self.file.as_mut() {
            let _ = writeln!(file, "{line}");
            self.pending += 1;
            if self.flush_every.is_some_and(|every| self.pending >= every) {
                self.flush();
            }
        }
    }

    /// Durably syncs the file and clears the pending count (end of run).
    pub fn flush(&mut self) {
        if let Some(file) = self.file.as_mut() {
            let _ = file.flush();
            let _ = file.sync_all();
        }
        self.pending = 0;
    }
}

impl Drop for JsonlFileSink {
    fn drop(&mut self) {
        // The crash path: whatever a finished run would have flushed
        // explicitly is salvaged here, and the salvage is counted so
        // restart harnesses can assert the drop path actually ran.
        let salvaged = self.pending;
        if salvaged > 0 {
            self.flush();
            if let Some(counter) = &self.drop_counter {
                counter.fetch_add(salvaged, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_sink_appends_lines() {
        let path =
            std::env::temp_dir().join(format!("csod-trace-sink-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut sink = JsonlFileSink::new(&path);
            assert!(sink.file.is_some());
            sink.write_line("{\"n\":1}");
            sink.write_line("{\"n\":2}");
            sink.flush();
        }
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents, "{\"n\":1}\n{\"n\":2}\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dropping_a_sink_salvages_pending_lines_and_counts_them() {
        let path =
            std::env::temp_dir().join(format!("csod-trace-sink-drop-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let counter = Arc::new(AtomicU64::new(0));
        {
            let mut sink = JsonlFileSink::with_drop_counter(&path, Arc::clone(&counter));
            sink.write_line("{\"n\":1}");
            sink.write_line("{\"n\":2}");
            assert_eq!(sink.pending, 2);
            // No explicit flush: the drop path must salvage both lines.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 2);
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents, "{\"n\":1}\n{\"n\":2}\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn explicit_flush_leaves_nothing_for_the_drop_path() {
        let path = std::env::temp_dir().join(format!(
            "csod-trace-sink-flush-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let counter = Arc::new(AtomicU64::new(0));
        {
            let mut sink = JsonlFileSink::with_drop_counter(&path, Arc::clone(&counter));
            sink.write_line("{\"n\":1}");
            sink.flush();
            assert_eq!(sink.pending, 0);
        }
        assert_eq!(
            counter.load(Ordering::Relaxed),
            0,
            "clean exits count nothing"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn periodic_flush_every_syncs_on_schedule() {
        let path = std::env::temp_dir().join(format!(
            "csod-trace-sink-every-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let counter = Arc::new(AtomicU64::new(0));
        {
            let mut sink = JsonlFileSink::with_drop_counter(&path, Arc::clone(&counter));
            sink.flush_every = Some(2);
            sink.write_line("a");
            assert_eq!(sink.pending, 1);
            sink.write_line("b"); // hits the interval → durable sync
            assert_eq!(sink.pending, 0);
            sink.write_line("c"); // one line left pending for the drop path
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unwritable_path_degrades_silently() {
        let mut sink = JsonlFileSink::new(Path::new("/nonexistent-dir/x/y.jsonl"));
        assert!(sink.file.is_none());
        sink.write_line("dropped");
        sink.flush();
    }
}

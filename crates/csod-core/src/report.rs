//! Bug reports (paper Section III-D2 and Figure 6).
//!
//! CSOD reports two calling contexts for every detected overflow: the
//! context of the overflowing statement (from the SIGTRAP handler's
//! backtrace) and the allocation context of the overflowed object (from
//! the context table). Reports never contain false positives — a
//! watchpoint only fires on a genuine access beyond the object boundary.
//!
//! One [`OverflowReport`] is built per detection. It renders both the
//! human-facing Figure-6 text ([`OverflowReport::render`]) and the
//! machine-facing JSON line a production deployment ships to its
//! crash-report backend ([`OverflowReport::to_json_line`]).

use crate::sampling::CtxId;
use csod_ctx::{CallingContext, FrameTable};
use csod_trace::json_escape;
use sim_machine::{AccessKind, ThreadId, VirtAddr, VirtInstant};
use std::fmt;
use std::fmt::Write as _;

/// How an overflow was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectionMethod {
    /// A hardware watchpoint fired at the moment of the access — the
    /// precise path that yields the overflowing statement.
    Watchpoint,
    /// A corrupted canary was found when the object was freed
    /// (evidence-based detection, Section IV-B).
    CanaryOnFree,
    /// A corrupted canary was found by the Termination Handling Unit at
    /// the end of the execution.
    CanaryAtExit,
}

impl DetectionMethod {
    /// Stable machine tag, as written to the JSON report.
    pub fn tag(self) -> &'static str {
        match self {
            DetectionMethod::Watchpoint => "watchpoint",
            DetectionMethod::CanaryOnFree => "canary_free",
            DetectionMethod::CanaryAtExit => "canary_exit",
        }
    }
}

impl fmt::Display for DetectionMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectionMethod::Watchpoint => f.write_str("hardware watchpoint"),
            DetectionMethod::CanaryOnFree => f.write_str("canary check at deallocation"),
            DetectionMethod::CanaryAtExit => f.write_str("canary check at exit"),
        }
    }
}

/// One detected buffer overflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverflowReport {
    /// Over-read or over-write. Canary evidence always implies a write.
    pub kind: AccessKind,
    /// Detection path.
    pub method: DetectionMethod,
    /// The thread that performed the overflowing access (watchpoint
    /// path) or discovered the evidence.
    pub thread: ThreadId,
    /// User-visible start of the overflowed object.
    pub object_start: VirtAddr,
    /// The faulting access address (watchpoint path) or the corrupted
    /// canary word (canary paths).
    pub access_addr: VirtAddr,
    /// Requested size of the object in bytes.
    pub requested_size: u64,
    /// Age of the object at detection, in virtual nanoseconds since its
    /// allocation.
    pub object_age_ns: u64,
    /// Full calling context of the overflowing statement; only the
    /// watchpoint path can know it.
    pub overflow_site: Option<CallingContext>,
    /// Allocation calling context of the overflowed object.
    pub alloc_context: CallingContext,
    /// Dense id of the allocation context.
    pub ctx_id: CtxId,
    /// Virtual time of detection.
    pub at: VirtInstant,
}

impl OverflowReport {
    /// How far past the end of the object the access landed, in bytes:
    /// `access_addr − (object_start + requested_size)`, 0 for a hit on
    /// the first out-of-bounds byte.
    pub fn offset_past_end(&self) -> u64 {
        self.access_addr
            .as_u64()
            .saturating_sub(self.object_start.as_u64() + self.requested_size)
    }

    /// Serializes the report as one JSON object on a single line, both
    /// calling contexts resolved to `file:line` strings, innermost frame
    /// first. A report without an overflow site writes an empty list.
    pub fn to_json_line(&self, frames: &FrameTable) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"method\":\"{}\",\"kind\":\"{}\",\"thread\":{},\"ctx_id\":{},\
             \"object_start\":\"{:#x}\",\"access_addr\":\"{:#x}\",\
             \"requested_size\":{},\"offset_past_end\":{},\
             \"object_age_ns\":{},\"at_ns\":{}",
            self.method.tag(),
            match self.kind {
                AccessKind::Read => "read",
                AccessKind::Write => "write",
            },
            self.thread.as_u32(),
            self.ctx_id.as_u32(),
            self.object_start.as_u64(),
            self.access_addr.as_u64(),
            self.requested_size,
            self.offset_past_end(),
            self.object_age_ns,
            self.at.as_nanos(),
        );
        let contexts = [
            ("alloc_context", Some(&self.alloc_context)),
            ("overflow_site", self.overflow_site.as_ref()),
        ];
        for (name, ctx) in contexts {
            let _ = write!(out, ",\"{name}\":[");
            for (i, frame) in ctx.into_iter().flat_map(CallingContext::iter).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", json_escape(&frames.resolve(frame)));
            }
            out.push(']');
        }
        out.push('}');
        out
    }

    /// Renders the report in the format of the paper's Figure 6.
    ///
    /// # Examples
    ///
    /// ```
    /// use csod_core::{DetectionMethod, OverflowReport};
    /// use csod_core::CtxId;
    /// use csod_ctx::{CallingContext, FrameTable};
    /// use sim_machine::{AccessKind, ThreadId, VirtAddr, VirtInstant};
    ///
    /// let frames = FrameTable::new();
    /// let report = OverflowReport {
    ///     kind: AccessKind::Read,
    ///     method: DetectionMethod::Watchpoint,
    ///     thread: ThreadId::MAIN,
    ///     object_start: VirtAddr::new(0x1000),
    ///     access_addr: VirtAddr::new(0x1040),
    ///     requested_size: 64,
    ///     object_age_ns: 0,
    ///     overflow_site: Some(CallingContext::from_locations(
    ///         &frames,
    ///         ["GLIBC/memcpy-sse2-unaligned.S:81", "OPENSSL/ssl/t1_lib.c:2588"],
    ///     )),
    ///     alloc_context: CallingContext::from_locations(
    ///         &frames,
    ///         ["OPENSSL/crypto/mem.c:312", "NGINX/http/ngx_http_request.c:577"],
    ///     ),
    ///     ctx_id: CtxId::from_index(0),
    ///     at: VirtInstant::BOOT,
    /// };
    /// let text = report.render(&frames);
    /// assert!(text.starts_with("A buffer over-read problem is detected at:"));
    /// assert!(text.contains("This object is allocated at:"));
    /// ```
    pub fn render(&self, frames: &FrameTable) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "A buffer {} problem is detected at:\n",
            self.kind.overflow_noun()
        ));
        match &self.overflow_site {
            Some(site) => out.push_str(&site.render(frames)),
            None => out.push_str(&format!(
                "<overflow site unavailable: detected by {}>\n",
                self.method
            )),
        }
        out.push_str("\nThis object is allocated at:\n");
        out.push_str(&self.alloc_context.render(frames));
        out
    }
}

impl fmt::Display for OverflowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of object at {} ({}, {}, {})",
            self.kind.overflow_noun(),
            self.object_start,
            self.method,
            self.thread,
            self.ctx_id
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_machine::VirtDuration;

    fn sample(frames: &FrameTable, method: DetectionMethod, kind: AccessKind) -> OverflowReport {
        OverflowReport {
            kind,
            method,
            thread: ThreadId::MAIN,
            object_start: VirtAddr::new(0x1000),
            access_addr: VirtAddr::new(0x1044),
            requested_size: 64,
            object_age_ns: 1_500,
            overflow_site: matches!(method, DetectionMethod::Watchpoint)
                .then(|| CallingContext::from_locations(frames, ["libhx/string.c:30", "app.c:9"])),
            alloc_context: CallingContext::from_locations(frames, ["alloc.c:5", "main.c:2"]),
            ctx_id: CtxId::from_index(3),
            at: VirtInstant::BOOT + VirtDuration::from_nanos(9_000),
        }
    }

    #[test]
    fn watchpoint_report_shows_both_contexts() {
        let frames = FrameTable::new();
        let r = sample(&frames, DetectionMethod::Watchpoint, AccessKind::Write);
        let text = r.render(&frames);
        assert!(text.contains("over-write problem is detected at:"));
        assert!(text.contains("libhx/string.c:30"));
        assert!(text.contains("This object is allocated at:"));
        assert!(text.contains("alloc.c:5"));
    }

    #[test]
    fn canary_report_explains_missing_site() {
        let frames = FrameTable::new();
        let r = sample(&frames, DetectionMethod::CanaryOnFree, AccessKind::Write);
        let text = r.render(&frames);
        assert!(text.contains("overflow site unavailable"));
        assert!(text.contains("canary check at deallocation"));
        assert!(text.contains("alloc.c:5"));
    }

    #[test]
    fn display_is_compact() {
        let frames = FrameTable::new();
        let r = sample(&frames, DetectionMethod::CanaryAtExit, AccessKind::Write);
        let line = r.to_string();
        assert!(line.contains("over-write"));
        assert!(line.contains("ctx#3"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn json_line_carries_the_papers_report_fields() {
        let frames = FrameTable::new();
        let r = sample(&frames, DetectionMethod::Watchpoint, AccessKind::Write);
        assert_eq!(r.offset_past_end(), 4);
        let line = r.to_json_line(&frames);
        assert_eq!(
            line,
            "{\"method\":\"watchpoint\",\"kind\":\"write\",\"thread\":0,\"ctx_id\":3,\
             \"object_start\":\"0x1000\",\"access_addr\":\"0x1044\",\"requested_size\":64,\
             \"offset_past_end\":4,\"object_age_ns\":1500,\"at_ns\":9000,\
             \"alloc_context\":[\"alloc.c:5\",\"main.c:2\"],\
             \"overflow_site\":[\"libhx/string.c:30\",\"app.c:9\"]}"
        );
        let canary = sample(&frames, DetectionMethod::CanaryOnFree, AccessKind::Write);
        let line = canary.to_json_line(&frames);
        assert!(line.contains("\"method\":\"canary_free\""));
        assert!(line.ends_with("\"overflow_site\":[]}"));
    }

    #[test]
    fn method_tags_are_distinct() {
        let tags = [
            DetectionMethod::Watchpoint.tag(),
            DetectionMethod::CanaryOnFree.tag(),
            DetectionMethod::CanaryAtExit.tag(),
        ];
        let set: std::collections::HashSet<_> = tags.into_iter().collect();
        assert_eq!(set.len(), 3);
    }
}

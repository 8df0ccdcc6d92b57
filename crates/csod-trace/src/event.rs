//! The event taxonomy: everything the runtime can tell the tracer.

use std::fmt;

/// What happened. Each variant carries its payload in the two generic
/// words of [`TraceEvent`] (`a`, `b`) — documented per variant — so
/// events stay fixed-size and ring slots never allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TraceEventKind {
    /// An allocation's sampling decision came back *watch* —
    /// `a` = dense context id, `b` = decision probability in ppm.
    AllocSampled = 0,
    /// An allocation's sampling decision came back *skip* —
    /// `a` = dense context id, `b` = decision probability in ppm.
    AllocSkipped = 1,
    /// A watchpoint was installed into a free slot —
    /// `a` = object start address, `b` = dense context id.
    WatchInstalled = 2,
    /// A watchpoint was installed by preempting a lower-probability
    /// victim — `a` = new object start, `b` = new dense context id.
    WatchPreempted = 3,
    /// A watchpoint was removed because its object was freed —
    /// `a` = object start address, `b` = 0.
    WatchRemoved = 4,
    /// A deferred-teardown batch was drained —
    /// `a` = descriptors torn down, `b` = 0.
    TeardownBatch = 5,
    /// SIGTRAP resolved to a live watchpoint —
    /// `a` = faulting address, `b` = dense context id.
    TrapFired = 6,
    /// SIGTRAP arrived for a logically removed watchpoint (the
    /// stale-trap rule) — `a` = raw descriptor, `b` = 0.
    TrapSuppressed = 7,
    /// The degradation ladder left watchpoint mode —
    /// `a` = 1 (canary-only), `b` = consecutive failures at the switch.
    DegradationEnter = 8,
    /// A probe succeeded and watchpoint mode resumed —
    /// `a` = 0, `b` = 0.
    DegradationExit = 9,
    /// A floor-level context was revived (Section IV-A) —
    /// `a` = dense context id, `b` = post-revive probability in ppm.
    Revive = 10,
    /// A context entered burst throttling —
    /// `a` = dense context id, `b` = throttled probability in ppm.
    BurstEnter = 11,
    /// A watchpoint install failed at the backend —
    /// `a` = object start address, `b` = prior attempts.
    InstallFailed = 12,
    /// A free skipped the watchpoint manager entirely because the
    /// watched-address filter proved the object unwatched —
    /// `a` = object start address, `b` = 0.
    FreeFiltered = 13,
}

impl TraceEventKind {
    /// All kinds, in tag order — for summaries that count per kind.
    pub const ALL: [TraceEventKind; 14] = [
        TraceEventKind::AllocSampled,
        TraceEventKind::AllocSkipped,
        TraceEventKind::WatchInstalled,
        TraceEventKind::WatchPreempted,
        TraceEventKind::WatchRemoved,
        TraceEventKind::TeardownBatch,
        TraceEventKind::TrapFired,
        TraceEventKind::TrapSuppressed,
        TraceEventKind::DegradationEnter,
        TraceEventKind::DegradationExit,
        TraceEventKind::Revive,
        TraceEventKind::BurstEnter,
        TraceEventKind::InstallFailed,
        TraceEventKind::FreeFiltered,
    ];

    /// Stable snake_case name — used by summaries and serializers.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::AllocSampled => "alloc_sampled",
            TraceEventKind::AllocSkipped => "alloc_skipped",
            TraceEventKind::WatchInstalled => "watch_installed",
            TraceEventKind::WatchPreempted => "watch_preempted",
            TraceEventKind::WatchRemoved => "watch_removed",
            TraceEventKind::TeardownBatch => "teardown_batch",
            TraceEventKind::TrapFired => "trap_fired",
            TraceEventKind::TrapSuppressed => "trap_suppressed",
            TraceEventKind::DegradationEnter => "degradation_enter",
            TraceEventKind::DegradationExit => "degradation_exit",
            TraceEventKind::Revive => "revive",
            TraceEventKind::BurstEnter => "burst_enter",
            TraceEventKind::InstallFailed => "install_failed",
            TraceEventKind::FreeFiltered => "free_filtered",
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<TraceEventKind> {
        TraceEventKind::ALL.get(tag as usize).copied()
    }
}

impl fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One traced runtime event. Fixed-size and `Copy`, so a ring slot is
/// four machine words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual nanoseconds since machine boot.
    pub at_ns: u64,
    /// The acting thread's dense id.
    pub thread: u32,
    /// What happened.
    pub kind: TraceEventKind,
    /// First payload word — see [`TraceEventKind`] for the meaning.
    pub a: u64,
    /// Second payload word — see [`TraceEventKind`] for the meaning.
    pub b: u64,
}

// Ring wire format.
impl TraceEvent {
    /// Packs the event into the ring's four data words.
    pub(crate) fn encode(self) -> [u64; 4] {
        [
            self.at_ns,
            u64::from(self.kind as u8) | (u64::from(self.thread) << 8),
            self.a,
            self.b,
        ]
    }

    /// Unpacks four data words; `None` for an unknown kind tag (a torn
    /// slot that slipped past the sequence check).
    pub(crate) fn decode(w: [u64; 4]) -> Option<TraceEvent> {
        // The tag occupies the low byte by construction.
        #[allow(clippy::cast_possible_truncation)]
        let kind = TraceEventKind::from_tag(w[1] as u8)?;
        #[allow(clippy::cast_possible_truncation)]
        let thread = (w[1] >> 8) as u32;
        Some(TraceEvent {
            at_ns: w[0],
            thread,
            kind,
            a: w[2],
            b: w[3],
        })
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}ns t{} {} a={:#x} b={}",
            self.at_ns, self.thread, self.kind, self.a, self.b
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        for (i, kind) in TraceEventKind::ALL.into_iter().enumerate() {
            let e = TraceEvent {
                at_ns: 1_000 + i as u64,
                thread: 42,
                kind,
                a: 0xDEAD_BEEF,
                b: u64::MAX,
            };
            assert_eq!(TraceEvent::decode(e.encode()), Some(e));
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(TraceEvent::decode([0, 200, 0, 0]), None);
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for kind in TraceEventKind::ALL {
            assert!(seen.insert(kind.name()), "duplicate name {}", kind.name());
            assert_eq!(TraceEventKind::from_tag(kind as u8), Some(kind));
        }
        assert!(TraceEventKind::AllocSampled.to_string().contains("alloc"));
    }
}

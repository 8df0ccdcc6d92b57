//! Allocation statistics.
//!
//! Table V of the paper compares the *maximum resident memory* of each
//! application under the default allocator, CSOD, and ASan. The simulated
//! heap tracks the equivalents: bytes currently and maximally in use
//! (block-rounded, as an RSS proxy) and the wilderness high-water mark
//! (footprint actually carved out of the mapped region).

use std::fmt;

/// Counters maintained by [`SimHeap`](crate::SimHeap).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Number of successful allocations.
    pub allocs: u64,
    /// Number of successful frees.
    pub frees: u64,
    /// Bytes currently allocated, rounded to block size.
    pub in_use_bytes: u64,
    /// High-water mark of [`HeapStats::in_use_bytes`] — the RSS proxy
    /// Table V reports.
    pub peak_in_use_bytes: u64,
    /// Bytes currently allocated as requested by the caller (un-rounded).
    pub requested_bytes: u64,
    /// High-water mark of [`HeapStats::requested_bytes`].
    pub peak_requested_bytes: u64,
    /// Bytes ever carved from the wilderness (never shrinks).
    pub wilderness_bytes: u64,
    /// Allocations that failed for lack of space.
    pub failed_allocs: u64,
}

impl HeapStats {
    /// Records a successful allocation of `requested` bytes in a
    /// `block`-byte block.
    pub(crate) fn on_alloc(&mut self, requested: u64, block: u64) {
        self.allocs += 1;
        self.in_use_bytes += block;
        self.requested_bytes += requested;
        self.peak_in_use_bytes = self.peak_in_use_bytes.max(self.in_use_bytes);
        self.peak_requested_bytes = self.peak_requested_bytes.max(self.requested_bytes);
    }

    /// Records a successful free of an allocation made with `requested`
    /// bytes in a `block`-byte block.
    pub(crate) fn on_free(&mut self, requested: u64, block: u64) {
        self.frees += 1;
        self.in_use_bytes -= block;
        self.requested_bytes -= requested;
    }

    /// Number of objects currently live.
    pub fn live_objects(&self) -> u64 {
        self.allocs - self.frees
    }
}

impl fmt::Display for HeapStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} allocs / {} frees, {} live, peak {} KiB (requested {} KiB)",
            self.allocs,
            self.frees,
            self.live_objects(),
            self.peak_in_use_bytes / 1024,
            self.peak_requested_bytes / 1024,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaks_track_high_water() {
        let mut s = HeapStats::default();
        s.on_alloc(10, 16);
        s.on_alloc(100, 112);
        assert_eq!(s.peak_in_use_bytes, 128);
        s.on_free(10, 16);
        s.on_alloc(20, 32);
        assert_eq!(s.in_use_bytes, 144);
        assert_eq!(s.peak_in_use_bytes, 144);
        assert_eq!(s.live_objects(), 2);
    }

    #[test]
    fn overhead_ratio() {
        let mut s = HeapStats::default();
        assert_eq!((s.peak_in_use_bytes, s.peak_requested_bytes), (0, 0));
        s.on_alloc(10, 16);
        // Rounded bytes over requested bytes at the peak: 16 / 10.
        assert_eq!((s.peak_in_use_bytes, s.peak_requested_bytes), (16, 10));
    }

    #[test]
    fn display_mentions_live_objects() {
        let mut s = HeapStats::default();
        s.on_alloc(8, 16);
        assert!(s.to_string().contains("1 live"));
    }
}

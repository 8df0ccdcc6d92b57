//! Shadow memory.
//!
//! AddressSanitizer maps every 8 bytes of application memory to one
//! shadow byte: `0` means fully addressable, `1..=7` means only the first
//! *k* bytes of the granule are addressable, and negative values encode
//! the various poison kinds. This module models the same semantics with
//! an explicit enum, stored sparsely (the simulator does not need the
//! contiguous shadow offset trick — only its behaviour).

use sim_machine::{AddrRange, VirtAddr};
use std::collections::HashMap;

/// Shadow granule size: one shadow entry per 8 application bytes.
pub const GRANULE: u64 = 8;

/// The state of one 8-byte granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShadowState {
    /// First `0 < k <= 8` bytes are addressable; `Addressable(8)` is the
    /// fully-valid state (shadow byte 0 in real ASan).
    Addressable(u8),
    /// Heap redzone around an allocation.
    HeapRedzone,
    /// Freed heap memory sitting in quarantine.
    HeapFreed,
}

/// Result of checking one access against the shadow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShadowVerdict {
    /// Every byte addressable.
    Clean,
    /// The access touched a redzone (heap buffer overflow).
    HitRedzone {
        /// First poisoned byte touched.
        at: VirtAddr,
    },
    /// The access touched quarantined memory (use-after-free).
    HitFreed {
        /// First poisoned byte touched.
        at: VirtAddr,
    },
}

/// Sparse shadow memory.
///
/// Unmapped granules are *unpoisoned*: like real ASan, memory never
/// touched by the instrumented allocator is not checked.
#[derive(Debug, Default)]
pub struct ShadowMemory {
    granules: HashMap<u64, ShadowState>,
    peak_granules: usize,
}

impl ShadowMemory {
    /// Creates empty (all-unpoisoned) shadow memory.
    pub fn new() -> Self {
        ShadowMemory::default()
    }

    fn granule_of(addr: VirtAddr) -> u64 {
        addr.as_u64() / GRANULE
    }

    /// Marks `[start, start+len)` as a heap redzone.
    pub fn poison_redzone(&mut self, start: VirtAddr, len: u64) {
        self.set_range(start, len, ShadowState::HeapRedzone);
    }

    /// Marks `[start, start+len)` as freed (quarantined) memory.
    pub fn poison_freed(&mut self, start: VirtAddr, len: u64) {
        self.set_range(start, len, ShadowState::HeapFreed);
    }

    /// Unpoisons an object of `len` bytes at `start` (which must be
    /// granule-aligned, as heap objects are): full granules become
    /// `Addressable(8)`, a trailing partial granule `Addressable(len%8)`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not 8-byte aligned — the allocator guarantees
    /// 16-byte alignment, so a violation is an internal bug.
    pub fn unpoison_object(&mut self, start: VirtAddr, len: u64) {
        assert!(
            start.is_aligned(GRANULE),
            "object start must be granule-aligned"
        );
        let full = len / GRANULE;
        for i in 0..full {
            self.granules.insert(
                Self::granule_of(start + i * GRANULE),
                ShadowState::Addressable(8),
            );
        }
        let tail = (len % GRANULE) as u8;
        if tail > 0 {
            self.granules.insert(
                Self::granule_of(start + full * GRANULE),
                ShadowState::Addressable(tail),
            );
        }
        self.peak_granules = self.peak_granules.max(self.granules.len());
    }

    /// Removes all shadow entries covering `[start, start+len)` —
    /// returning them to the never-tracked state.
    pub fn clear(&mut self, start: VirtAddr, len: u64) {
        let first = Self::granule_of(start);
        let last = Self::granule_of(start + len.saturating_sub(1));
        for g in first..=last {
            self.granules.remove(&g);
        }
    }

    /// Checks an access of `len` bytes at `addr`, one shadow lookup per
    /// granule (the instrumentation's fast path).
    pub fn check(&self, addr: VirtAddr, len: u64) -> ShadowVerdict {
        if len == 0 {
            return ShadowVerdict::Clean;
        }
        let range = AddrRange::new(addr, len);
        let end = range.end().as_u64();
        let first = Self::granule_of(addr);
        let last = Self::granule_of(range.end() - 1);
        for g in first..=last {
            match self.granules.get(&g) {
                None | Some(ShadowState::Addressable(8)) => {}
                Some(ShadowState::Addressable(k)) => {
                    // The first invalid byte of this granule.
                    let invalid = g * GRANULE + u64::from(*k);
                    let lo = addr.as_u64().max(g * GRANULE);
                    let hi = end.min((g + 1) * GRANULE);
                    if hi > invalid {
                        let at = lo.max(invalid);
                        if at < hi {
                            return ShadowVerdict::HitRedzone {
                                at: VirtAddr::new(at),
                            };
                        }
                    }
                }
                Some(ShadowState::HeapRedzone) => {
                    let at = addr.as_u64().max(g * GRANULE);
                    return ShadowVerdict::HitRedzone {
                        at: VirtAddr::new(at),
                    };
                }
                Some(ShadowState::HeapFreed) => {
                    let at = addr.as_u64().max(g * GRANULE);
                    return ShadowVerdict::HitFreed {
                        at: VirtAddr::new(at),
                    };
                }
            }
        }
        ShadowVerdict::Clean
    }

    /// High-water mark of tracked granules — each costs one real shadow
    /// byte on a real machine (the 1/8 shadow mapping).
    pub fn peak_granules(&self) -> usize {
        self.peak_granules
    }

    fn set_range(&mut self, start: VirtAddr, len: u64, state: ShadowState) {
        if len == 0 {
            return;
        }
        let first = Self::granule_of(start);
        let last = Self::granule_of(start + (len - 1));
        for g in first..=last {
            self.granules.insert(g, state);
        }
        self.peak_granules = self.peak_granules.max(self.granules.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untracked_memory_is_clean() {
        let s = ShadowMemory::new();
        assert_eq!(s.check(VirtAddr::new(0x1000), 64), ShadowVerdict::Clean);
    }

    #[test]
    fn redzone_hit_reports_first_poisoned_byte() {
        let mut s = ShadowMemory::new();
        let obj = VirtAddr::new(0x1000);
        s.unpoison_object(obj, 16);
        s.poison_redzone(obj + 16, 16);
        assert_eq!(s.check(obj, 16), ShadowVerdict::Clean);
        assert_eq!(
            s.check(obj + 8, 16), // straddles into the redzone
            ShadowVerdict::HitRedzone { at: obj + 16 }
        );
    }

    #[test]
    fn partial_granule_tail_is_enforced() {
        let mut s = ShadowMemory::new();
        let obj = VirtAddr::new(0x2000);
        s.unpoison_object(obj, 13); // one full granule + 5 bytes
        assert_eq!(s.check(obj, 13), ShadowVerdict::Clean);
        // Byte 13 is in the same granule but beyond the valid prefix.
        assert_eq!(
            s.check(obj + 13, 1),
            ShadowVerdict::HitRedzone { at: obj + 13 }
        );
    }

    #[test]
    fn freed_memory_is_a_distinct_verdict() {
        let mut s = ShadowMemory::new();
        let obj = VirtAddr::new(0x3000);
        s.unpoison_object(obj, 32);
        s.poison_freed(obj, 32);
        assert_eq!(s.check(obj + 4, 4), ShadowVerdict::HitFreed { at: obj + 4 });
    }

    #[test]
    fn clear_returns_to_untracked() {
        let mut s = ShadowMemory::new();
        let obj = VirtAddr::new(0x4000);
        s.poison_redzone(obj, 64);
        assert_ne!(s.check(obj, 8), ShadowVerdict::Clean);
        s.clear(obj, 64);
        assert_eq!(s.check(obj, 8), ShadowVerdict::Clean);
        assert_eq!(s.granules.len(), 0);
    }

    #[test]
    fn zero_length_poison_is_a_no_op() {
        let mut s = ShadowMemory::new();
        s.poison_redzone(VirtAddr::new(0x5000), 0);
        assert_eq!(s.granules.len(), 0);
    }

    #[test]
    #[should_panic(expected = "granule-aligned")]
    fn unaligned_object_panics() {
        let mut s = ShadowMemory::new();
        s.unpoison_object(VirtAddr::new(0x1003), 8);
    }
}

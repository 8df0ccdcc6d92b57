//! The per-thread hardware debug-register file.
//!
//! Intel x86-64 exposes six debug registers of which only four (DR0–DR3)
//! can hold watchpoint addresses (paper Section II-A); the other two
//! control debugging features. The simulator models exactly that limit:
//! each thread owns a [`DebugRegisterFile`] with
//! [`NUM_WATCHPOINT_REGISTERS`] slots, and requesting a fifth concurrent
//! watchpoint fails just like `perf_event_open` returning `EBUSY` on real
//! hardware.
//!
//! Like the real DR0–DR3, each occupied slot holds the *watched address
//! range* alongside the owning descriptor, and the file keeps a bounding
//! range over all armed slots. The access-check hot path reads addresses
//! straight from this "hardware" — one bounds comparison rejects the
//! overwhelming majority of accesses without consulting any event state.

use crate::addr::AddrRange;
use crate::perf::Fd;
use std::fmt;

/// Number of address-bearing debug registers on real x86-64 (DR0–DR3).
pub const NUM_WATCHPOINT_REGISTERS: usize = 4;

/// One thread's debug registers. Each slot holds the perf-event
/// descriptor that claimed it plus the range it watches, or `None` when
/// free.
///
/// Real hardware has exactly [`NUM_WATCHPOINT_REGISTERS`]; the simulator
/// allows other counts so the `ablation_registers` harness can ask the
/// what-if question behind the paper's central constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DebugRegisterFile {
    slots: Vec<Option<(Fd, AddrRange)>>,
    /// Bounding range over every occupied slot; `None` when all free.
    /// An access outside it cannot touch any watched range.
    bounds: Option<AddrRange>,
}

impl Default for DebugRegisterFile {
    fn default() -> Self {
        DebugRegisterFile::new()
    }
}

impl DebugRegisterFile {
    /// A register file with the four x86-64 slots, all free.
    pub fn new() -> Self {
        DebugRegisterFile::with_registers(NUM_WATCHPOINT_REGISTERS)
    }

    /// A register file with `n` slots (hypothetical hardware).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_registers(n: usize) -> Self {
        assert!(n > 0, "at least one debug register");
        DebugRegisterFile {
            slots: vec![None; n],
            bounds: None,
        }
    }

    /// Claims a free register for `fd` watching `range`, returning its
    /// index, or `None` when all four are busy.
    pub fn claim(&mut self, fd: Fd, range: AddrRange) -> Option<usize> {
        let index = self.slots.iter().position(Option::is_none)?;
        self.slots[index] = Some((fd, range));
        self.bounds = Some(match self.bounds {
            None => range,
            Some(b) => hull(b, range),
        });
        Some(index)
    }

    /// Releases the register held by `fd`, returning whether one was held.
    pub fn release(&mut self, fd: Fd) -> bool {
        for slot in &mut self.slots {
            if slot.is_some_and(|(held, _)| held == fd) {
                *slot = None;
                self.bounds = self.slots.iter().flatten().map(|&(_, r)| r).reduce(hull);
                return true;
            }
        }
        false
    }

    /// Number of free registers.
    pub fn free_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_none()).count()
    }

    /// Iterates over the occupied slots with the ranges they watch.
    pub fn armed(&self) -> impl Iterator<Item = (Fd, AddrRange)> + '_ {
        self.slots.iter().filter_map(|s| *s)
    }

    /// The bounding range over every occupied slot, or `None` when the
    /// file is empty. A conservative summary: an access that does not
    /// overlap it cannot hit any register.
    pub fn bounds(&self) -> Option<AddrRange> {
        self.bounds
    }
}

/// The smallest range covering both inputs.
fn hull(a: AddrRange, b: AddrRange) -> AddrRange {
    let start = a.start().min(b.start());
    let end = a.end().max(b.end());
    AddrRange::new(start, end - start)
}

impl fmt::Display for DebugRegisterFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DR[")?;
        for (i, slot) in self.slots.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match slot {
                Some((fd, _)) => write!(f, "{fd}")?,
                None => f.write_str("-")?,
            }
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VirtAddr;

    fn range(addr: u64) -> AddrRange {
        AddrRange::new(VirtAddr::new(addr), 8)
    }

    #[test]
    fn claims_up_to_four_registers() {
        let mut regs = DebugRegisterFile::new();
        for i in 0..NUM_WATCHPOINT_REGISTERS {
            let idx = regs
                .claim(Fd::from_raw(i as u64), range(0x1000 + i as u64 * 8))
                .expect("slot free");
            assert_eq!(idx, i);
        }
        assert_eq!(regs.free_count(), 0);
        assert!(
            regs.claim(Fd::from_raw(99), range(0x2000)).is_none(),
            "fifth claim must fail"
        );
    }

    #[test]
    fn release_frees_slot_for_reuse() {
        let mut regs = DebugRegisterFile::new();
        let a = Fd::from_raw(1);
        let b = Fd::from_raw(2);
        regs.claim(a, range(0x1000)).unwrap();
        regs.claim(b, range(0x2000)).unwrap();
        assert!(regs.release(a));
        assert!(!regs.release(a), "double release reports false");
        assert_eq!(regs.free_count(), 3);
        // The freed slot (index 0) is reused first.
        assert_eq!(regs.claim(Fd::from_raw(3), range(0x3000)), Some(0));
    }

    #[test]
    fn holds_and_occupants() {
        let mut regs = DebugRegisterFile::new();
        let fd = Fd::from_raw(7);
        assert_eq!(regs.armed().count(), 0);
        regs.claim(fd, range(0xF00)).unwrap();
        assert_eq!(regs.armed().collect::<Vec<_>>(), vec![(fd, range(0xF00))]);
    }

    #[test]
    fn bounds_track_armed_ranges() {
        let mut regs = DebugRegisterFile::new();
        assert_eq!(regs.bounds(), None);
        let lo = Fd::from_raw(1);
        let hi = Fd::from_raw(2);
        regs.claim(lo, range(0x1000)).unwrap();
        assert_eq!(regs.bounds(), Some(range(0x1000)));
        regs.claim(hi, range(0x8000)).unwrap();
        let b = regs.bounds().expect("two armed");
        assert_eq!(b.start(), VirtAddr::new(0x1000));
        assert_eq!(b.end(), VirtAddr::new(0x8008));
        // Releasing the high register tightens the hull again.
        assert!(regs.release(hi));
        assert_eq!(regs.bounds(), Some(range(0x1000)));
        assert!(regs.release(lo));
        assert_eq!(regs.bounds(), None);
    }

    #[test]
    fn display_shows_slots() {
        let mut regs = DebugRegisterFile::new();
        regs.claim(Fd::from_raw(5), range(0x1000)).unwrap();
        assert_eq!(regs.to_string(), "DR[fd5, -, -, -]");
    }
}

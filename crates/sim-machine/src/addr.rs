//! Virtual addresses and access descriptors.
//!
//! The simulated machine uses a 64-bit virtual address space. [`VirtAddr`] is
//! a transparent newtype over `u64` so that addresses cannot be accidentally
//! confused with sizes, counters, or file descriptors elsewhere in the
//! system.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A virtual address in the simulated machine's address space.
///
/// # Examples
///
/// ```
/// use sim_machine::VirtAddr;
///
/// let base = VirtAddr::new(0x1000);
/// let field = base + 8;
/// assert_eq!(field.as_u64(), 0x1008);
/// assert_eq!(field - base, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// The null address. Dereferencing it faults, as on a real machine.
    pub const NULL: VirtAddr = VirtAddr(0);

    /// Creates an address from its raw 64-bit value.
    pub const fn new(raw: u64) -> Self {
        VirtAddr(raw)
    }

    /// Returns the raw 64-bit value of this address.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is the null address.
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Returns the address advanced by `offset` bytes, checking for
    /// wrap-around.
    ///
    /// Returns `None` when the addition would overflow the 64-bit address
    /// space.
    pub fn checked_add(self, offset: u64) -> Option<Self> {
        self.0.checked_add(offset).map(VirtAddr)
    }

    /// Aligns the address upwards to `align`, which must be a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn align_up(self, align: u64) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        VirtAddr((self.0 + align - 1) & !(align - 1))
    }

    /// Returns `true` if the address is a multiple of `align`, which must be
    /// a power of two.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn is_aligned(self, align: u64) -> bool {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.0 & (align - 1) == 0
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        VirtAddr(raw)
    }
}

impl From<VirtAddr> for u64 {
    fn from(addr: VirtAddr) -> u64 {
        addr.0
    }
}

impl Add<u64> for VirtAddr {
    type Output = VirtAddr;

    fn add(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0 + rhs)
    }
}

impl AddAssign<u64> for VirtAddr {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<VirtAddr> for VirtAddr {
    type Output = u64;

    fn sub(self, rhs: VirtAddr) -> u64 {
        self.0 - rhs.0
    }
}

impl Sub<u64> for VirtAddr {
    type Output = VirtAddr;

    fn sub(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0 - rhs)
    }
}

/// Whether a memory access reads or writes.
///
/// Hardware watchpoints on the simulated machine are installed in
/// read/write mode (the `HW_BREAKPOINT_RW` configuration from the paper's
/// Figure 3), so both kinds fire a trap; the kind is still recorded so
/// that bug reports can distinguish buffer over-reads from over-writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load from memory.
    Read,
    /// A store to memory.
    Write,
}

impl AccessKind {
    /// Human-readable verb used by bug reports ("over-read"/"over-write").
    pub fn overflow_noun(self) -> &'static str {
        match self {
            AccessKind::Read => "over-read",
            AccessKind::Write => "over-write",
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("read"),
            AccessKind::Write => f.write_str("write"),
        }
    }
}

/// A half-open byte range `[start, end)` in the virtual address space.
///
/// # Examples
///
/// ```
/// use sim_machine::{AddrRange, VirtAddr};
///
/// let object = AddrRange::new(VirtAddr::new(0x100), 16);
/// assert!(object.contains(VirtAddr::new(0x10f)));
/// assert!(!object.contains(VirtAddr::new(0x110)));
/// let canary = AddrRange::new(VirtAddr::new(0x110), 8);
/// assert!(!object.overlaps(&canary));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRange {
    start: VirtAddr,
    len: u64,
}

impl AddrRange {
    /// Creates the range `[start, start + len)`.
    pub const fn new(start: VirtAddr, len: u64) -> Self {
        AddrRange { start, len }
    }

    /// The first address of the range.
    pub const fn start(&self) -> VirtAddr {
        self.start
    }

    /// One past the last address of the range.
    pub const fn end(&self) -> VirtAddr {
        VirtAddr::new(self.start.as_u64() + self.len)
    }

    /// The length of the range in bytes.
    pub const fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` when the range covers no bytes.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `addr` lies within the range.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.start && addr < self.end()
    }

    /// Returns `true` if the two ranges share at least one byte.
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.start < other.end()
            && other.start < self.end()
    }
}

impl fmt::Display for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:#x}, {:#x})",
            self.start.as_u64(),
            self.end().as_u64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_arithmetic() {
        let a = VirtAddr::new(0x1000);
        assert_eq!((a + 0x10).as_u64(), 0x1010);
        assert_eq!(a + 0x10 - a, 0x10);
        assert_eq!((a - 0x800).as_u64(), 0x800);
    }

    #[test]
    fn addr_align_up() {
        assert_eq!(VirtAddr::new(0x1001).align_up(16).as_u64(), 0x1010);
        assert_eq!(VirtAddr::new(0x1000).align_up(16).as_u64(), 0x1000);
        assert!(VirtAddr::new(0x1000).is_aligned(4096));
        assert!(!VirtAddr::new(0x1008).is_aligned(16));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn addr_align_up_rejects_non_power_of_two() {
        let _ = VirtAddr::new(1).align_up(24);
    }

    #[test]
    fn addr_checked_add_detects_overflow() {
        assert!(VirtAddr::new(u64::MAX).checked_add(1).is_none());
        assert_eq!(VirtAddr::new(10).checked_add(5), Some(VirtAddr::new(15)));
    }

    #[test]
    fn null_address() {
        assert!(VirtAddr::NULL.is_null());
        assert!(!VirtAddr::new(1).is_null());
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(VirtAddr::new(0xdead).to_string(), "0xdead");
        assert_eq!(format!("{:x}", VirtAddr::new(0xbeef)), "beef");
        assert_eq!(format!("{:X}", VirtAddr::new(0xbeef)), "BEEF");
    }

    #[test]
    fn range_contains_is_half_open() {
        let r = AddrRange::new(VirtAddr::new(100), 10);
        assert!(r.contains(VirtAddr::new(100)));
        assert!(r.contains(VirtAddr::new(109)));
        assert!(!r.contains(VirtAddr::new(110)));
        assert!(!r.contains(VirtAddr::new(99)));
    }

    #[test]
    fn range_overlap_cases() {
        let r = AddrRange::new(VirtAddr::new(100), 10);
        // Adjacent ranges do not overlap.
        assert!(!r.overlaps(&AddrRange::new(VirtAddr::new(110), 8)));
        assert!(!r.overlaps(&AddrRange::new(VirtAddr::new(92), 8)));
        // One-byte overlap at either edge.
        assert!(r.overlaps(&AddrRange::new(VirtAddr::new(109), 8)));
        assert!(r.overlaps(&AddrRange::new(VirtAddr::new(93), 8)));
        // Containment.
        assert!(r.overlaps(&AddrRange::new(VirtAddr::new(102), 2)));
        // Empty ranges never overlap anything.
        assert!(!r.overlaps(&AddrRange::new(VirtAddr::new(105), 0)));
    }

    #[test]
    fn access_kind_display() {
        assert_eq!(AccessKind::Read.to_string(), "read");
        assert_eq!(AccessKind::Write.overflow_noun(), "over-write");
    }
}

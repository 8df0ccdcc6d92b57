//! The Canary Management Unit and the evidence-mode object layout
//! (paper Section IV-B, Figure 5).
//!
//! With evidence-based detection enabled, every heap object is wrapped as
//!
//! ```text
//! | RealObjectPtr | ObjectSize | CallingContextPtr | Identifier | object … | Canary |
//!   8 bytes         8            8                   8            size       8
//! ```
//!
//! The canary is one random 8-byte value per run; a mismatch at
//! deallocation (or at exit) is *evidence* that the object was
//! over-written, even though the watchpoint missed it. Without evidence
//! mode the header and canary value are omitted, but 8 boundary bytes are
//! still reserved past every object so a hardware watchpoint always has a
//! dedicated word to guard.

use crate::backend::Backend;
use crate::sampling::CtxId;
use sim_machine::{MemoryError, VirtAddr};

/// Size of the evidence-mode header (four 8-byte fields).
pub const HEADER_SIZE: u64 = 32;

/// Size of the boundary canary word.
pub const CANARY_SIZE: u64 = 8;

/// Magic value marking the header of a CSOD-managed object.
pub const OBJECT_IDENTIFIER: u64 = 0xC50D_0B1E_C0DE_CAFE;

/// Placement of one object inside its raw heap block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectLayout {
    /// Whether the evidence header is present.
    pub evidence: bool,
    /// The user-requested size.
    pub requested: u64,
}

impl ObjectLayout {
    /// Layout for a `requested`-byte object under the given mode.
    pub fn new(evidence: bool, requested: u64) -> Self {
        ObjectLayout {
            evidence,
            requested,
        }
    }

    /// Offset of the user object from the raw allocation start.
    pub fn user_offset(&self) -> u64 {
        if self.evidence {
            HEADER_SIZE
        } else {
            0
        }
    }

    /// Offset of the canary word from the user pointer: the requested
    /// size rounded up to the 8-byte word the hardware can watch.
    pub fn canary_offset(&self) -> u64 {
        self.requested.max(1).div_ceil(CANARY_SIZE) * CANARY_SIZE
    }

    /// Total bytes to request from the underlying allocator.
    pub fn total_size(&self) -> u64 {
        self.user_offset() + self.canary_offset() + CANARY_SIZE
    }

    /// User pointer for a raw allocation at `real`.
    pub fn user_ptr(&self, real: VirtAddr) -> VirtAddr {
        real + self.user_offset()
    }

    /// Canary address for a user pointer.
    pub fn canary_addr(&self, user: VirtAddr) -> VirtAddr {
        user + self.canary_offset()
    }

    /// Raw allocation start for a user pointer.
    pub fn real_ptr(&self, user: VirtAddr) -> VirtAddr {
        user - self.user_offset()
    }
}

/// The decoded evidence header of one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectHeader {
    /// Pointer returned by the real allocator (supports `memalign`).
    pub real_ptr: VirtAddr,
    /// The laid-out size, locating the canary: the request, grown by the
    /// mitigation slack when the object was hardened.
    pub object_size: u64,
    /// The allocation calling context (stored as a dense id standing in
    /// for the paper's pointer into the context table).
    pub ctx_id: CtxId,
}

/// Canary verification result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CanaryStatus {
    /// The boundary word still holds the canary value.
    Intact,
    /// The boundary word was over-written; the found value is reported.
    Corrupted {
        /// The value found in place of the canary.
        found: u64,
    },
}

/// The Canary Management Unit: writes and verifies headers and canaries.
#[derive(Debug, Clone)]
pub struct CanaryUnit {
    canary_value: u64,
}

impl CanaryUnit {
    /// Creates a unit with the given per-run random canary value.
    pub fn new(canary_value: u64) -> Self {
        CanaryUnit { canary_value }
    }

    /// The canary value in use.
    pub fn canary_value(&self) -> u64 {
        self.canary_value
    }

    /// Writes the Figure-5 header and the canary for an object laid out
    /// by `layout` at raw address `real`.
    ///
    /// # Errors
    ///
    /// Propagates [`MemoryError`] if the block is not mapped (allocator
    /// invariant violation).
    pub fn imprint<B: Backend>(
        &self,
        machine: &mut B,
        layout: ObjectLayout,
        real: VirtAddr,
        ctx_id: CtxId,
    ) -> Result<(), MemoryError> {
        if layout.evidence {
            self.write_header(machine, layout, real, layout.user_ptr(real), ctx_id)?;
        }
        Ok(())
    }

    /// [`imprint`](Self::imprint) with the user pointer explicit, since
    /// `memalign` pads it past `layout.user_ptr(real)`: the header goes in
    /// the [`HEADER_SIZE`] bytes before `user`, the canary after it.
    ///
    /// # Errors
    ///
    /// As [`imprint`](Self::imprint).
    #[inline]
    pub fn write_header<B: Backend>(
        &self,
        machine: &mut B,
        layout: ObjectLayout,
        real: VirtAddr,
        user: VirtAddr,
        ctx_id: CtxId,
    ) -> Result<(), MemoryError> {
        // The four header words are contiguous: one write, one region
        // lookup, instead of four round trips.
        let mut header = [0u8; 32];
        header[..8].copy_from_slice(&real.as_u64().to_le_bytes());
        header[8..16].copy_from_slice(&layout.requested.to_le_bytes());
        header[16..24].copy_from_slice(&u64::from(ctx_id.as_u32()).to_le_bytes());
        header[24..32].copy_from_slice(&OBJECT_IDENTIFIER.to_le_bytes());
        machine.write_bytes(user - HEADER_SIZE, &header)?;
        machine.store_u64(layout.canary_addr(user), self.canary_value)
    }

    /// Reads back and validates the header for the object at `user`.
    ///
    /// Returns `None` when the identifier does not match — either the
    /// object is not CSOD-managed or its header was trampled.
    pub fn read_header<B: Backend>(&self, machine: &B, user: VirtAddr) -> Option<ObjectHeader> {
        let base = user - HEADER_SIZE;
        let identifier = machine.load_u64(base + 24).ok()?;
        if identifier != OBJECT_IDENTIFIER {
            return None;
        }
        Some(ObjectHeader {
            real_ptr: VirtAddr::new(machine.load_u64(base).ok()?),
            object_size: machine.load_u64(base + 8).ok()?,
            // A ctx index above u32::MAX cannot have been written by
            // us: treat it as a trampled header.
            ctx_id: CtxId::from_index(u32::try_from(machine.load_u64(base + 16).ok()?).ok()?),
        })
    }

    /// Verifies the canary word at `canary_addr`.
    ///
    /// # Errors
    ///
    /// Propagates [`MemoryError`] if the word is not mapped.
    pub fn check<B: Backend>(
        &self,
        machine: &B,
        canary_addr: VirtAddr,
    ) -> Result<CanaryStatus, MemoryError> {
        let found = machine.load_u64(canary_addr)?;
        Ok(if found == self.canary_value {
            CanaryStatus::Intact
        } else {
            CanaryStatus::Corrupted { found }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_machine::Machine;

    fn setup() -> (Machine, VirtAddr) {
        let mut m = Machine::new();
        let base = VirtAddr::new(0x20_0000);
        m.map_region(base, 4096, "heap").unwrap();
        (m, base)
    }

    #[test]
    fn layout_without_evidence_reserves_only_the_watch_word() {
        let l = ObjectLayout::new(false, 24);
        assert_eq!(l.user_offset(), 0);
        assert_eq!(l.canary_offset(), 24);
        assert_eq!(l.total_size(), 32);
    }

    #[test]
    fn layout_with_evidence_adds_header() {
        let l = ObjectLayout::new(true, 24);
        assert_eq!(l.user_offset(), 32);
        assert_eq!(l.total_size(), 32 + 24 + 8);
        let real = VirtAddr::new(0x1000);
        let user = l.user_ptr(real);
        assert_eq!(user, real + 32);
        assert_eq!(l.real_ptr(user), real);
        assert_eq!(l.canary_addr(user), user + 24);
    }

    #[test]
    fn canary_offset_rounds_to_words() {
        assert_eq!(ObjectLayout::new(true, 1).canary_offset(), 8);
        assert_eq!(ObjectLayout::new(true, 8).canary_offset(), 8);
        assert_eq!(ObjectLayout::new(true, 9).canary_offset(), 16);
        // malloc(0) still gets a watchable boundary.
        assert_eq!(ObjectLayout::new(true, 0).canary_offset(), 8);
    }

    #[test]
    fn imprint_and_read_back() {
        let (mut m, base) = setup();
        let unit = CanaryUnit::new(0xDEAD_BEEF_F00D_CAFE);
        let layout = ObjectLayout::new(true, 40);
        unit.imprint(&mut m, layout, base, CtxId::from_index(7))
            .unwrap();
        let user = layout.user_ptr(base);
        let header = unit.read_header(&m, user).expect("valid header");
        assert_eq!(header.real_ptr, base);
        assert_eq!(header.object_size, 40);
        assert_eq!(header.ctx_id, CtxId::from_index(7));
        assert_eq!(
            unit.check(&m, layout.canary_addr(user)).unwrap(),
            CanaryStatus::Intact
        );
    }

    #[test]
    fn corrupted_canary_is_reported_with_found_value() {
        let (mut m, base) = setup();
        let unit = CanaryUnit::new(0x1111_2222_3333_4444);
        let layout = ObjectLayout::new(true, 16);
        unit.imprint(&mut m, layout, base, CtxId::from_index(0))
            .unwrap();
        let canary = layout.canary_addr(layout.user_ptr(base));
        // The program over-writes one word past its object.
        m.raw_store_u64(canary, 0x4242).unwrap();
        assert_eq!(
            unit.check(&m, canary).unwrap(),
            CanaryStatus::Corrupted { found: 0x4242 }
        );
    }

    #[test]
    fn trampled_identifier_invalidates_header() {
        let (mut m, base) = setup();
        let unit = CanaryUnit::new(1);
        let layout = ObjectLayout::new(true, 16);
        unit.imprint(&mut m, layout, base, CtxId::from_index(0))
            .unwrap();
        m.raw_store_u64(base + 24, 0).unwrap();
        assert!(unit.read_header(&m, layout.user_ptr(base)).is_none());
    }

    #[test]
    fn non_evidence_imprint_writes_nothing() {
        let (mut m, base) = setup();
        let unit = CanaryUnit::new(0xABCD);
        let layout = ObjectLayout::new(false, 16);
        unit.imprint(&mut m, layout, base, CtxId::from_index(0))
            .unwrap();
        assert_eq!(m.raw_load_u64(base).unwrap(), 0, "memory untouched");
    }
}

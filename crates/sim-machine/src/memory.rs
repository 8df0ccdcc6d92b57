//! The sparse virtual address space.
//!
//! Memory is organized as a set of non-overlapping mapped *regions*
//! (analogous to `mmap`ed areas). All loads and stores must fall entirely
//! within one mapped region; anything else is a fault, which the
//! [`Machine`](crate::Machine) turns into a SIGSEGV-style signal exactly
//! like an out-of-range pointer dereference on a real machine.
//!
//! Region backing is demand-paged in 64 KiB chunks: mapping a 256 MiB
//! heap costs nothing until pages are touched, exactly like anonymous
//! `mmap` memory. Untouched chunks read as zeroes.
//!
//! Translation is built for the common case of a handful of regions
//! (a run maps exactly one, the heap arena): the regions sit in a
//! vector sorted by base, so a lookup is one binary search plus a
//! bounds check, and an access that lies inside one chunk — every
//! allocator header, canary word and trace access — indexes that chunk
//! directly instead of going through the piece-splitting loop.

use crate::addr::{AddrRange, VirtAddr};
use std::fmt;

/// Size of one lazily-allocated backing chunk.
const CHUNK: u64 = 64 * 1024;

/// Errors produced by address-space operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// The access touched at least one unmapped byte.
    Unmapped {
        /// The first faulting address.
        addr: VirtAddr,
        /// How many bytes the access covered.
        len: u64,
    },
    /// A new mapping collided with an existing region.
    MappingOverlap {
        /// The requested range.
        requested: AddrRange,
        /// The name of the region it collided with.
        existing: String,
    },
    /// A mapping request was degenerate (zero length or address wrap).
    InvalidMapping {
        /// The requested range start.
        addr: VirtAddr,
        /// The requested length.
        len: u64,
    },
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::Unmapped { addr, len } => {
                write!(f, "access to unmapped memory at {addr} (len {len})")
            }
            MemoryError::MappingOverlap {
                requested,
                existing,
            } => {
                write!(
                    f,
                    "mapping {requested} overlaps existing region `{existing}`"
                )
            }
            MemoryError::InvalidMapping { addr, len } => {
                write!(f, "invalid mapping request at {addr} (len {len})")
            }
        }
    }
}

impl std::error::Error for MemoryError {}

/// One mapped region of memory, demand-paged in [`CHUNK`]-byte pieces.
#[derive(Debug, Clone)]
struct Region {
    range: AddrRange,
    name: String,
    /// Backing chunks, indexed by chunk number within the region; `None`
    /// chunks are all-zero. The index vector itself is tiny (one word
    /// per 64 KiB of virtual size).
    chunks: Vec<Option<Box<[u8]>>>,
    resident: u64,
}

impl Region {
    fn new(range: AddrRange, name: &str) -> Self {
        let n_chunks = range.len().div_ceil(CHUNK) as usize;
        Region {
            range,
            name: name.to_owned(),
            chunks: vec![None; n_chunks],
            resident: 0,
        }
    }

    /// Returns the chunk number and in-chunk start of `[offset,
    /// offset+len)` when the range lies inside one chunk.
    #[inline]
    fn single_chunk(offset: u64, len: u64) -> Option<(usize, usize)> {
        let start = offset % CHUNK;
        (len <= CHUNK - start).then_some(((offset / CHUNK) as usize, start as usize))
    }

    /// Runs `f` over the chunk-relative pieces of `[offset, offset+len)`;
    /// the slow path for ranges that straddle a chunk boundary.
    fn for_pieces(
        offset: u64,
        len: u64,
        mut f: impl FnMut(
            u64,   /*chunk*/
            usize, /*start in chunk*/
            usize, /*len*/
            usize, /*progress*/
        ),
    ) {
        let mut done = 0u64;
        while done < len {
            let pos = offset + done;
            let chunk = pos / CHUNK;
            let start = (pos % CHUNK) as usize;
            let take = ((CHUNK as usize) - start).min((len - done) as usize);
            f(chunk, start, take, done as usize);
            done += take as u64;
        }
    }

    #[inline]
    fn read(&self, offset: u64, buf: &mut [u8]) {
        if let Some((chunk, start)) = Region::single_chunk(offset, buf.len() as u64) {
            match &self.chunks[chunk] {
                Some(bytes) => buf.copy_from_slice(&bytes[start..start + buf.len()]),
                None => buf.fill(0),
            }
            return;
        }
        Region::for_pieces(
            offset,
            buf.len() as u64,
            |chunk, start, take, progress| match &self.chunks[chunk as usize] {
                Some(bytes) => {
                    buf[progress..progress + take].copy_from_slice(&bytes[start..start + take])
                }
                None => buf[progress..progress + take].fill(0),
            },
        );
    }

    #[inline]
    fn chunk_mut<'a>(
        chunks: &'a mut [Option<Box<[u8]>>],
        resident: &mut u64,
        chunk: usize,
    ) -> &'a mut [u8] {
        let slot = &mut chunks[chunk];
        match slot {
            Some(bytes) => bytes,
            None => Region::populate(slot, resident),
        }
    }

    /// Backs an untouched chunk with zeroed memory.
    #[cold]
    #[inline(never)]
    fn populate<'a>(slot: &'a mut Option<Box<[u8]>>, resident: &mut u64) -> &'a mut [u8] {
        *resident += CHUNK;
        slot.insert(vec![0u8; CHUNK as usize].into_boxed_slice())
    }

    #[inline]
    fn write(&mut self, offset: u64, data: &[u8]) {
        if let Some((chunk, start)) = Region::single_chunk(offset, data.len() as u64) {
            Region::chunk_mut(&mut self.chunks, &mut self.resident, chunk)
                [start..start + data.len()]
                .copy_from_slice(data);
            return;
        }
        let chunks = &mut self.chunks;
        let resident = &mut self.resident;
        Region::for_pieces(offset, data.len() as u64, |chunk, start, take, progress| {
            Region::chunk_mut(chunks, resident, chunk as usize)[start..start + take]
                .copy_from_slice(&data[progress..progress + take]);
        });
    }

    fn fill(&mut self, offset: u64, len: u64, byte: u8) {
        if let Some((chunk, start)) = Region::single_chunk(offset, len) {
            if byte != 0 || self.chunks[chunk].is_some() {
                Region::chunk_mut(&mut self.chunks, &mut self.resident, chunk)
                    [start..start + len as usize]
                    .fill(byte);
            }
            return;
        }
        let chunks = &mut self.chunks;
        let resident = &mut self.resident;
        Region::for_pieces(offset, len, |chunk, start, take, _| {
            if byte == 0 && chunks[chunk as usize].is_none() {
                return; // untouched chunks are already zero
            }
            Region::chunk_mut(chunks, resident, chunk as usize)[start..start + take].fill(byte);
        });
    }

    /// Bytes actually backed by allocated chunks (the RSS analogue).
    fn resident_bytes(&self) -> u64 {
        self.resident
    }
}

/// A sparse 64-bit address space built from non-overlapping regions.
///
/// # Examples
///
/// ```
/// use sim_machine::{AddressSpace, VirtAddr};
///
/// # fn main() -> Result<(), sim_machine::MemoryError> {
/// let mut mem = AddressSpace::new();
/// let base = VirtAddr::new(0x10_0000);
/// mem.map_region(base, 4096, "heap")?;
/// mem.store_u64(base, 0xdead_beef)?;
/// assert_eq!(mem.load_u64(base)?, 0xdead_beef);
/// assert!(mem.load_u64(VirtAddr::new(0x20_0000)).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct AddressSpace {
    /// Non-overlapping regions, sorted by base address.
    regions: Vec<Region>,
}

impl AddressSpace {
    /// Creates an empty address space with no mappings.
    pub fn new() -> Self {
        AddressSpace::default()
    }

    /// Maps `len` zeroed bytes at `base`. Backing memory is allocated
    /// lazily, so mapping a huge region is O(1).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::InvalidMapping`] for zero-length or wrapping
    /// requests and [`MemoryError::MappingOverlap`] if the range intersects
    /// an existing region.
    pub fn map_region(&mut self, base: VirtAddr, len: u64, name: &str) -> Result<(), MemoryError> {
        if len == 0 || base.checked_add(len).is_none() || base.is_null() {
            return Err(MemoryError::InvalidMapping { addr: base, len });
        }
        let range = AddrRange::new(base, len);
        if let Some(existing) = self.find_overlap(&range) {
            return Err(MemoryError::MappingOverlap {
                requested: range,
                existing: existing.name.clone(),
            });
        }
        let at = self.regions.partition_point(|r| r.range.start() < base);
        self.regions.insert(at, Region::new(range, name));
        Ok(())
    }

    /// Returns `true` if every byte of `[addr, addr + len)` is mapped.
    #[inline]
    pub fn is_mapped(&self, addr: VirtAddr, len: u64) -> bool {
        self.region_containing(addr, len).is_some()
    }

    /// Total mapped bytes across all regions (virtual size).
    pub fn mapped_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.range.len()).sum()
    }

    /// Total bytes actually backed by touched chunks (resident size).
    pub fn resident_bytes(&self) -> u64 {
        self.regions.iter().map(Region::resident_bytes).sum()
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if the access is not fully inside
    /// one mapped region.
    #[inline]
    pub fn read_bytes(&self, addr: VirtAddr, buf: &mut [u8]) -> Result<(), MemoryError> {
        let region = self.region_or_fault(addr, buf.len() as u64)?;
        region.read(addr - region.range.start(), buf);
        Ok(())
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if the access is not fully inside
    /// one mapped region.
    #[inline]
    pub fn write_bytes(&mut self, addr: VirtAddr, data: &[u8]) -> Result<(), MemoryError> {
        let len = data.len() as u64;
        let region = self
            .region_containing_mut(addr, len)
            .ok_or(MemoryError::Unmapped { addr, len })?;
        region.write(addr - region.range.start(), data);
        Ok(())
    }

    /// Fills `[addr, addr + len)` with `byte`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if the range is not fully mapped.
    pub fn fill(&mut self, addr: VirtAddr, len: u64, byte: u8) -> Result<(), MemoryError> {
        let region = self
            .region_containing_mut(addr, len)
            .ok_or(MemoryError::Unmapped { addr, len })?;
        region.fill(addr - region.range.start(), len, byte);
        Ok(())
    }

    /// Loads a little-endian `u64` from `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if the eight bytes are not mapped.
    #[inline]
    pub fn load_u64(&self, addr: VirtAddr) -> Result<u64, MemoryError> {
        // Not routed through `read_bytes`: with the length fixed at
        // eight, the single-chunk copy compiles to one load.
        let region = self.region_or_fault(addr, 8)?;
        let mut buf = [0u8; 8];
        region.read(addr - region.range.start(), &mut buf);
        Ok(u64::from_le_bytes(buf))
    }

    /// Stores a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Unmapped`] if the eight bytes are not mapped.
    #[inline]
    pub fn store_u64(&mut self, addr: VirtAddr, value: u64) -> Result<(), MemoryError> {
        // As in `load_u64`, the fixed length makes the copy one store.
        let region = self
            .region_containing_mut(addr, 8)
            .ok_or(MemoryError::Unmapped { addr, len: 8 })?;
        region.write(addr - region.range.start(), &value.to_le_bytes());
        Ok(())
    }

    /// The lowest-based region sharing a byte with `range`.
    fn find_overlap(&self, range: &AddrRange) -> Option<&Region> {
        self.regions.iter().find(|r| r.range.overlaps(range))
    }

    /// Index of the region holding all of `[addr, addr + len)`.
    #[inline]
    fn index_containing(&self, addr: VirtAddr, len: u64) -> Option<usize> {
        let end = addr.checked_add(len)?;
        let at = self
            .regions
            .partition_point(|r| r.range.start() <= addr)
            .checked_sub(1)?;
        let range = &self.regions[at].range;
        (range.contains(addr) && end <= range.end() && len > 0).then_some(at)
    }

    #[inline]
    fn region_containing(&self, addr: VirtAddr, len: u64) -> Option<&Region> {
        self.index_containing(addr, len).map(|at| &self.regions[at])
    }

    #[inline]
    fn region_containing_mut(&mut self, addr: VirtAddr, len: u64) -> Option<&mut Region> {
        self.index_containing(addr, len)
            .map(|at| &mut self.regions[at])
    }

    #[inline]
    fn region_or_fault(&self, addr: VirtAddr, len: u64) -> Result<&Region, MemoryError> {
        self.region_containing(addr, len)
            .ok_or(MemoryError::Unmapped { addr, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_with_heap() -> (AddressSpace, VirtAddr) {
        let mut mem = AddressSpace::new();
        let base = VirtAddr::new(0x10_0000);
        mem.map_region(base, 4096, "heap").unwrap();
        (mem, base)
    }

    #[test]
    fn round_trip_bytes() {
        let (mut mem, base) = space_with_heap();
        mem.write_bytes(base + 10, b"hello").unwrap();
        let mut buf = [0u8; 5];
        mem.read_bytes(base + 10, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn round_trip_u64() {
        let (mut mem, base) = space_with_heap();
        mem.store_u64(base + 8, u64::MAX - 1).unwrap();
        assert_eq!(mem.load_u64(base + 8).unwrap(), u64::MAX - 1);
    }

    #[test]
    fn fill_overwrites_range() {
        let (mut mem, base) = space_with_heap();
        mem.fill(base, 16, 0xAA).unwrap();
        let mut buf = [0u8; 16];
        mem.read_bytes(base, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn new_mapping_is_zeroed() {
        let (mem, base) = space_with_heap();
        assert_eq!(mem.load_u64(base).unwrap(), 0);
    }

    #[test]
    fn mapping_is_lazy_until_touched() {
        let mut mem = AddressSpace::new();
        let base = VirtAddr::new(0x10_0000);
        mem.map_region(base, 1 << 30, "huge").unwrap(); // 1 GiB
        assert_eq!(mem.resident_bytes(), 0, "no chunk allocated yet");
        mem.store_u64(base + (512 << 20), 7).unwrap();
        assert_eq!(mem.resident_bytes(), CHUNK, "one chunk after one touch");
        // Filling with zero over untouched chunks stays lazy.
        mem.fill(base, 1 << 20, 0).unwrap();
        assert_eq!(mem.resident_bytes(), CHUNK);
    }

    #[test]
    fn accesses_spanning_chunk_boundaries() {
        let mut mem = AddressSpace::new();
        let base = VirtAddr::new(0x10_0000);
        mem.map_region(base, 4 * CHUNK, "heap").unwrap();
        // A write straddling the first chunk boundary.
        let at = base + CHUNK - 4;
        mem.write_bytes(at, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let mut buf = [0u8; 8];
        mem.read_bytes(at, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
        // A fill spanning three chunks.
        mem.fill(base + CHUNK - 10, 2 * CHUNK + 20, 0x5A).unwrap();
        let mut probe = [0u8; 1];
        for offset in [CHUNK - 10, CHUNK, 2 * CHUNK, 3 * CHUNK + 9] {
            mem.read_bytes(base + offset, &mut probe).unwrap();
            assert_eq!(probe[0], 0x5A, "offset {offset}");
        }
        mem.read_bytes(base + 3 * CHUNK + 10, &mut probe).unwrap();
        assert_eq!(probe[0], 0, "one past the fill");
    }

    #[test]
    fn unmapped_access_faults() {
        let (mem, base) = space_with_heap();
        let err = mem.load_u64(base + 4096).unwrap_err();
        assert!(matches!(err, MemoryError::Unmapped { .. }));
    }

    #[test]
    fn access_straddling_region_end_faults() {
        let (mut mem, base) = space_with_heap();
        // Last 4 bytes are mapped; the next 4 are not.
        let addr = base + 4092;
        assert!(mem.store_u64(addr, 1).is_err());
        // But a 4-byte write at the same spot succeeds.
        assert!(mem.write_bytes(addr, &[1, 2, 3, 4]).is_ok());
    }

    #[test]
    fn zero_length_mapping_rejected() {
        let mut mem = AddressSpace::new();
        let err = mem.map_region(VirtAddr::new(0x1000), 0, "bad").unwrap_err();
        assert!(matches!(err, MemoryError::InvalidMapping { .. }));
    }

    #[test]
    fn null_mapping_rejected() {
        let mut mem = AddressSpace::new();
        let err = mem.map_region(VirtAddr::NULL, 4096, "bad").unwrap_err();
        assert!(matches!(err, MemoryError::InvalidMapping { .. }));
    }

    #[test]
    fn wrapping_mapping_rejected() {
        let mut mem = AddressSpace::new();
        let err = mem
            .map_region(VirtAddr::new(u64::MAX - 10), 100, "bad")
            .unwrap_err();
        assert!(matches!(err, MemoryError::InvalidMapping { .. }));
    }

    #[test]
    fn overlapping_mapping_rejected() {
        let (mut mem, base) = space_with_heap();
        let err = mem.map_region(base + 100, 10, "overlay").unwrap_err();
        match err {
            MemoryError::MappingOverlap { existing, .. } => assert_eq!(existing, "heap"),
            other => panic!("unexpected error {other:?}"),
        }
        // Overlap reaching into the region from below is also rejected.
        assert!(mem.map_region(base - 10, 20, "below").is_err());
        // Adjacent mapping is fine.
        assert!(mem.map_region(base + 4096, 4096, "heap2").is_ok());
    }

    #[test]
    fn overlap_names_the_lowest_based_region() {
        let mut mem = AddressSpace::new();
        let base = VirtAddr::new(0x10_0000);
        // Mapped out of address order.
        mem.map_region(base + 0x2000, 0x1000, "high").unwrap();
        mem.map_region(base, 0x1000, "low").unwrap();
        mem.map_region(base + 0x1000, 0x1000, "mid").unwrap();
        for (at, len, named) in [
            (base + 0x800, 0x2000, "low"),
            (base + 0x1800, 0x1000, "mid"),
            (base + 0x2fff, 0x10, "high"),
            (base - 0x10, 0x10_000, "low"),
        ] {
            match mem.map_region(at, len, "new") {
                Err(MemoryError::MappingOverlap { existing, .. }) => assert_eq!(existing, named),
                other => panic!("mapping at {at} (len {len:#x}): {other:?}"),
            }
        }
    }

    #[test]
    fn a_hole_between_regions_keeps_its_neighbours() {
        let mut mem = AddressSpace::new();
        let base = VirtAddr::new(0x10_0000);
        for (i, name) in [(0, "a"), (2, "c")] {
            let at = base + i * 0x1000;
            mem.map_region(at, 0x1000, name).unwrap();
            mem.store_u64(at, i + 1).unwrap();
        }
        assert_eq!(mem.load_u64(base).unwrap(), 1);
        assert_eq!(mem.load_u64(base + 0x2000).unwrap(), 3);
        assert_eq!(mem.load_u64(base + 0xff8).unwrap(), 0, "last word of `a`");
        assert!(mem.load_u64(base + 0x1000).is_err());
        assert!(!mem.is_mapped(base + 0x1000, 1));
        assert!(mem.load_u64(base + 0xffc).is_err(), "spills into the hole");
        assert_eq!(mem.mapped_bytes(), 0x2000);
        mem.map_region(base + 0x1000, 0x1000, "b").unwrap();
        assert!(mem.is_mapped(base + 0x1000, 0x1000));
        assert_eq!(
            mem.load_u64(base + 0x1000).unwrap(),
            0,
            "a fresh mapping is zeroed"
        );
    }

    #[test]
    fn mapped_bytes_sums_regions() {
        let (mut mem, base) = space_with_heap();
        mem.map_region(base + 0x10_0000, 100, "aux").unwrap();
        assert_eq!(mem.mapped_bytes(), 4196);
    }

    #[test]
    fn error_messages_are_informative() {
        let err = MemoryError::Unmapped {
            addr: VirtAddr::new(0x42),
            len: 8,
        };
        assert!(err.to_string().contains("0x42"));
    }
}

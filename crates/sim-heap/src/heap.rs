//! The segregated-freelist heap.

use crate::size_class::{SizeClass, MIN_ALIGN, NUM_CLASSES};
use crate::stats::HeapStats;
use sim_machine::{CostDomain, FxBuild, Machine, VirtAddr};
use std::collections::HashMap;
use std::fmt;

type AddrMap<V> = HashMap<u64, V, FxBuild>;

/// Errors produced by heap operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// The heap region is exhausted.
    OutOfMemory {
        /// The request that could not be satisfied.
        requested: u64,
    },
    /// `free`/`usable_size` was given a pointer that is not the start of
    /// a live allocation (wild pointer or double free).
    InvalidPointer(VirtAddr),
    /// `memalign` was given a non-power-of-two alignment.
    BadAlignment(u64),
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::OutOfMemory { requested } => {
                write!(f, "out of heap memory (requested {requested} bytes)")
            }
            HeapError::InvalidPointer(p) => write!(f, "invalid heap pointer {p}"),
            HeapError::BadAlignment(a) => write!(f, "alignment {a} is not a power of two"),
        }
    }
}

impl std::error::Error for HeapError {}

/// Configuration of a [`SimHeap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapConfig {
    /// Base virtual address of the heap region.
    pub base: VirtAddr,
    /// Size of the heap region in bytes.
    pub size: u64,
}

impl Default for HeapConfig {
    /// 256 MiB at `0x7f00_0000_0000`, loosely mimicking a glibc arena.
    fn default() -> Self {
        HeapConfig {
            base: VirtAddr::new(0x7f00_0000_0000),
            size: 256 << 20,
        }
    }
}

/// Metadata for one live allocation.
#[derive(Debug, Clone, Copy)]
struct LiveObject {
    requested: u64,
    class: SizeClass,
}

/// A segregated-freelist allocator over a [`Machine`] memory region.
///
/// The heap stores only metadata; every operation takes `&mut Machine` so
/// tools and workloads share one machine. Baseline allocator work is
/// charged to the *application* cost bucket — in the paper's measurements
/// the stock allocator is part of the uninstrumented program.
///
/// # Examples
///
/// ```
/// use sim_heap::{HeapConfig, SimHeap};
/// use sim_machine::Machine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut machine = Machine::new();
/// let mut heap = SimHeap::new(&mut machine, HeapConfig::default())?;
/// let p = heap.malloc(&mut machine, 100)?;
/// assert!(heap.usable_size(p).unwrap() >= 100);
/// heap.free(&mut machine, p)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SimHeap {
    config: HeapConfig,
    /// Bump cursor into untouched heap space.
    wilderness: VirtAddr,
    /// Recycled blocks per size class.
    free_lists: Vec<Vec<VirtAddr>>,
    /// Freed large blocks, linear first-fit.
    large_free: Vec<(VirtAddr, u64)>,
    live: AddrMap<LiveObject>,
    stats: HeapStats,
}

impl SimHeap {
    /// Creates a heap, mapping its region on `machine`.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures (overlapping or invalid region) as
    /// [`HeapError::OutOfMemory`]-style mapping errors from the machine.
    pub fn new(
        machine: &mut Machine,
        config: HeapConfig,
    ) -> Result<Self, sim_machine::MemoryError> {
        machine.map_region(config.base, config.size, "sim-heap")?;
        Ok(SimHeap {
            config,
            wilderness: config.base,
            free_lists: vec![Vec::new(); NUM_CLASSES],
            large_free: Vec::new(),
            live: AddrMap::default(),
            stats: HeapStats::default(),
        })
    }

    /// Allocates `size` bytes, 16-byte aligned.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::OutOfMemory`] when the region is exhausted or
    /// when the machine's fault plan injects allocator pressure.
    #[inline]
    pub fn malloc(&mut self, machine: &mut Machine, size: u64) -> Result<VirtAddr, HeapError> {
        machine.charge(CostDomain::App, machine.costs().malloc_base);
        if machine.fault_alloc_fails() {
            self.stats.failed_allocs += 1;
            return Err(HeapError::OutOfMemory { requested: size });
        }
        self.allocate(size)
    }

    /// Allocates `size` zeroed bytes (`calloc(1, size)`).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::OutOfMemory`] when the region is exhausted.
    pub fn calloc(&mut self, machine: &mut Machine, size: u64) -> Result<VirtAddr, HeapError> {
        let addr = self.malloc(machine, size)?;
        machine
            .raw_fill(addr, size.max(1), 0)
            .expect("fresh allocation must be mapped");
        Ok(addr)
    }

    /// Resizes the allocation at `addr` to `new_size`, copying the common
    /// prefix like `realloc`.
    ///
    /// # Errors
    ///
    /// [`HeapError::InvalidPointer`] if `addr` is not live;
    /// [`HeapError::OutOfMemory`] when the region is exhausted.
    pub fn realloc(
        &mut self,
        machine: &mut Machine,
        addr: VirtAddr,
        new_size: u64,
    ) -> Result<VirtAddr, HeapError> {
        let old = *self
            .live
            .get(&addr.as_u64())
            .ok_or(HeapError::InvalidPointer(addr))?;
        if new_size <= old.class.block_size() {
            // Fits in place; update requested-byte accounting.
            self.stats.on_free(old.requested, old.class.block_size());
            self.stats.on_alloc(new_size, old.class.block_size());
            // on_alloc/on_free above also bump the alloc/free counters;
            // realloc-in-place is not a new object, undo that.
            self.stats.allocs -= 1;
            self.stats.frees -= 1;
            self.live.insert(
                addr.as_u64(),
                LiveObject {
                    requested: new_size,
                    class: old.class,
                },
            );
            return Ok(addr);
        }
        let new_addr = self.malloc(machine, new_size)?;
        let copy_len = old.requested.min(new_size) as usize;
        let mut buf = vec![0u8; copy_len];
        machine
            .raw_read_bytes(addr, &mut buf)
            .expect("old object mapped");
        machine
            .raw_write_bytes(new_addr, &buf)
            .expect("new object mapped");
        self.free(machine, addr)?;
        Ok(new_addr)
    }

    /// Allocates `size` bytes aligned to `align` (a power of two).
    ///
    /// # Errors
    ///
    /// [`HeapError::BadAlignment`] for non-power-of-two alignments;
    /// [`HeapError::OutOfMemory`] when the region is exhausted.
    pub fn memalign(
        &mut self,
        machine: &mut Machine,
        align: u64,
        size: u64,
    ) -> Result<VirtAddr, HeapError> {
        if !align.is_power_of_two() {
            return Err(HeapError::BadAlignment(align));
        }
        machine.charge(CostDomain::App, machine.costs().malloc_base);
        if machine.fault_alloc_fails() {
            self.stats.failed_allocs += 1;
            return Err(HeapError::OutOfMemory { requested: size });
        }
        if align <= MIN_ALIGN {
            return self.allocate(size);
        }
        // Carve an aligned block straight from the wilderness.
        let start = self.wilderness.align_up(align);
        let class = SizeClass::for_request(size);
        let block = class.block_size();
        let end = start
            .checked_add(block)
            .ok_or(HeapError::OutOfMemory { requested: size })?;
        if end > self.config.base + self.config.size {
            self.stats.failed_allocs += 1;
            return Err(HeapError::OutOfMemory { requested: size });
        }
        self.wilderness = end;
        self.stats.wilderness_bytes = self.wilderness - self.config.base;
        self.finish_alloc(start, size, class);
        Ok(start)
    }

    /// Frees the allocation at `addr`, returning its requested size.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::InvalidPointer`] for wild pointers and double
    /// frees.
    #[inline]
    pub fn free(&mut self, machine: &mut Machine, addr: VirtAddr) -> Result<u64, HeapError> {
        machine.charge(CostDomain::App, machine.costs().free_base);
        let obj = self
            .live
            .remove(&addr.as_u64())
            .ok_or(HeapError::InvalidPointer(addr))?;
        let block = obj.class.block_size();
        match obj.class.index() {
            Some(i) => self.free_lists[i].push(addr),
            None => self.large_free.push((addr, block)),
        }
        self.stats.on_free(obj.requested, block);
        Ok(obj.requested)
    }

    /// The caller-visible size of the live allocation at `addr`
    /// (`malloc_usable_size`): the full block size.
    pub fn usable_size(&self, addr: VirtAddr) -> Option<u64> {
        self.live.get(&addr.as_u64()).map(|o| o.class.block_size())
    }

    /// The size originally requested for the live allocation at `addr`.
    pub fn requested_size(&self, addr: VirtAddr) -> Option<u64> {
        self.live.get(&addr.as_u64()).map(|o| o.requested)
    }

    /// Returns `true` if `addr` is the start of a live allocation.
    pub fn is_live(&self, addr: VirtAddr) -> bool {
        self.live.contains_key(&addr.as_u64())
    }

    /// Allocation statistics.
    pub fn stats(&self) -> &HeapStats {
        &self.stats
    }

    fn allocate(&mut self, size: u64) -> Result<VirtAddr, HeapError> {
        let class = SizeClass::for_request(size);
        let block = class.block_size();
        let addr = match class.index() {
            Some(i) => match self.free_lists[i].pop() {
                Some(addr) => addr,
                None => self.carve(block, size)?,
            },
            None => {
                // First-fit over freed large blocks.
                if let Some(pos) = self.large_free.iter().position(|&(_, len)| len >= block) {
                    let (addr, _) = self.large_free.swap_remove(pos);
                    addr
                } else {
                    self.carve(block, size)?
                }
            }
        };
        self.finish_alloc(addr, size, class);
        Ok(addr)
    }

    fn carve(&mut self, block: u64, requested: u64) -> Result<VirtAddr, HeapError> {
        let start = self.wilderness;
        let end = start
            .checked_add(block)
            .ok_or(HeapError::OutOfMemory { requested })?;
        if end > self.config.base + self.config.size {
            self.stats.failed_allocs += 1;
            return Err(HeapError::OutOfMemory { requested });
        }
        self.wilderness = end;
        self.stats.wilderness_bytes = self.wilderness - self.config.base;
        Ok(start)
    }

    fn finish_alloc(&mut self, addr: VirtAddr, requested: u64, class: SizeClass) {
        self.stats.on_alloc(requested, class.block_size());
        let prev = self
            .live
            .insert(addr.as_u64(), LiveObject { requested, class });
        debug_assert!(prev.is_none(), "allocator handed out a live address");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Machine, SimHeap) {
        let mut m = Machine::new();
        let heap = SimHeap::new(&mut m, HeapConfig::default()).unwrap();
        (m, heap)
    }

    #[test]
    fn malloc_returns_aligned_disjoint_objects() {
        let (mut m, mut h) = setup();
        let a = h.malloc(&mut m, 24).unwrap();
        let b = h.malloc(&mut m, 24).unwrap();
        assert!(a.is_aligned(MIN_ALIGN));
        assert!(b.is_aligned(MIN_ALIGN));
        assert!(b.as_u64() >= a.as_u64() + 32, "blocks must not overlap");
    }

    #[test]
    fn free_recycles_block() {
        let (mut m, mut h) = setup();
        let a = h.malloc(&mut m, 64).unwrap();
        h.free(&mut m, a).unwrap();
        let b = h.malloc(&mut m, 64).unwrap();
        assert_eq!(a, b, "same class should recycle the freed block");
    }

    #[test]
    fn double_free_is_detected() {
        let (mut m, mut h) = setup();
        let a = h.malloc(&mut m, 8).unwrap();
        h.free(&mut m, a).unwrap();
        assert_eq!(h.free(&mut m, a), Err(HeapError::InvalidPointer(a)));
    }

    #[test]
    fn wild_free_is_detected() {
        let (mut m, mut h) = setup();
        let a = h.malloc(&mut m, 8).unwrap();
        assert_eq!(h.free(&mut m, a + 8), Err(HeapError::InvalidPointer(a + 8)));
    }

    #[test]
    fn calloc_zeroes() {
        let (mut m, mut h) = setup();
        let a = h.malloc(&mut m, 32).unwrap();
        m.raw_fill(a, 32, 0xFF).unwrap();
        h.free(&mut m, a).unwrap();
        let b = h.calloc(&mut m, 32).unwrap();
        assert_eq!(b, a, "recycled the dirty block");
        assert_eq!(m.raw_load_u64(b).unwrap(), 0);
    }

    #[test]
    fn realloc_grows_and_copies() {
        let (mut m, mut h) = setup();
        let a = h.malloc(&mut m, 16).unwrap();
        m.raw_store_u64(a, 0x1122_3344).unwrap();
        let b = h.realloc(&mut m, a, 4096).unwrap();
        assert_ne!(a, b);
        assert_eq!(m.raw_load_u64(b).unwrap(), 0x1122_3344);
        assert!(!h.is_live(a));
        assert!(h.is_live(b));
    }

    #[test]
    fn realloc_in_place_when_block_fits() {
        let (mut m, mut h) = setup();
        let a = h.malloc(&mut m, 10).unwrap(); // 16-byte block
        let b = h.realloc(&mut m, a, 14).unwrap();
        assert_eq!(a, b);
        assert_eq!(h.requested_size(b), Some(14));
        assert_eq!(h.stats().live_objects(), 1);
    }

    #[test]
    fn realloc_wild_pointer_fails() {
        let (mut m, mut h) = setup();
        let bogus = VirtAddr::new(0x1234);
        assert_eq!(
            h.realloc(&mut m, bogus, 10),
            Err(HeapError::InvalidPointer(bogus))
        );
    }

    #[test]
    fn memalign_honors_alignment() {
        let (mut m, mut h) = setup();
        // Unbalance the cursor first.
        let _ = h.malloc(&mut m, 16).unwrap();
        let a = h.memalign(&mut m, 4096, 100).unwrap();
        assert!(a.is_aligned(4096));
        assert!(h.usable_size(a).unwrap() >= 100);
        assert_eq!(h.memalign(&mut m, 48, 8), Err(HeapError::BadAlignment(48)));
    }

    #[test]
    fn usable_size_is_block_size() {
        let (mut m, mut h) = setup();
        let a = h.malloc(&mut m, 100).unwrap();
        assert_eq!(h.usable_size(a), Some(112));
        assert_eq!(h.requested_size(a), Some(100));
        assert_eq!(h.usable_size(a + 16), None);
    }

    #[test]
    fn out_of_memory_reported() {
        let mut m = Machine::new();
        let mut h = SimHeap::new(
            &mut m,
            HeapConfig {
                base: VirtAddr::new(0x10_0000),
                size: 4096,
            },
        )
        .unwrap();
        let _a = h.malloc(&mut m, 2048).unwrap();
        let err = h.malloc(&mut m, 4096).unwrap_err();
        assert!(matches!(err, HeapError::OutOfMemory { .. }));
        assert_eq!(h.stats().failed_allocs, 1);
    }

    #[test]
    fn large_blocks_recycled_first_fit() {
        let (mut m, mut h) = setup();
        let big = h.malloc(&mut m, 2 << 20).unwrap();
        h.free(&mut m, big).unwrap();
        let again = h.malloc(&mut m, (2 << 20) - 100).unwrap();
        assert_eq!(big, again);
    }

    #[test]
    fn stats_track_peaks() {
        let (mut m, mut h) = setup();
        let a = h.malloc(&mut m, 100).unwrap(); // 112-byte block
        let b = h.malloc(&mut m, 100).unwrap();
        h.free(&mut m, a).unwrap();
        h.free(&mut m, b).unwrap();
        let s = h.stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.frees, 2);
        assert_eq!(s.in_use_bytes, 0);
        assert_eq!(s.peak_in_use_bytes, 224);
        assert_eq!(s.peak_requested_bytes, 200);
        assert_eq!(s.wilderness_bytes, 224);
    }

    #[test]
    fn allocator_work_charged_to_app() {
        let (mut m, mut h) = setup();
        let a = h.malloc(&mut m, 8).unwrap();
        h.free(&mut m, a).unwrap();
        let c = m.counter();
        assert_eq!(c.app_ns(), m.costs().malloc_base + m.costs().free_base);
        assert_eq!(c.tool_ns(), 0);
    }

    #[test]
    fn live_addrs_enumerates_live_objects() {
        let (mut m, mut h) = setup();
        let a = h.malloc(&mut m, 8).unwrap();
        let b = h.malloc(&mut m, 8).unwrap();
        h.free(&mut m, a).unwrap();
        let live: Vec<_> = h.live.keys().copied().collect();
        assert_eq!(live, vec![b.as_u64()]);
    }
}

//! The ASan runtime model.

use crate::quarantine::{Quarantine, QuarantinedBlock};
use crate::report::{AsanReport, BugKind};
use crate::shadow::{ShadowMemory, ShadowVerdict, GRANULE};
use sim_heap::{HeapError, SimHeap};
use sim_machine::{AccessKind, CostDomain, Machine, SiteToken, ThreadId, VirtAddr};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// ASan model configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsanConfig {
    /// Redzone placed on each side of every object. The paper's
    /// comparison runs ASan with "minimally-sized redzones (16 bytes)".
    pub redzone_size: u64,
    /// Byte cap of the free-quarantine.
    pub quarantine_bytes: u64,
}

impl Default for AsanConfig {
    fn default() -> Self {
        AsanConfig {
            redzone_size: 16,
            quarantine_bytes: 1 << 20,
        }
    }
}

/// Errors surfaced by the ASan allocation interposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsanError {
    /// The underlying allocator failed.
    Heap(HeapError),
    /// `free` of a pointer ASan never handed out (wild or double free).
    InvalidFree(VirtAddr),
}

impl fmt::Display for AsanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsanError::Heap(e) => write!(f, "allocator error: {e}"),
            AsanError::InvalidFree(p) => write!(f, "attempting free on unknown address {p}"),
        }
    }
}

impl std::error::Error for AsanError {}

impl From<HeapError> for AsanError {
    fn from(e: HeapError) -> Self {
        AsanError::Heap(e)
    }
}

#[derive(Debug, Clone, Copy)]
struct AsanRecord {
    real: VirtAddr,
    size: u64,
}

/// Counters for the evaluation harnesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsanStats {
    /// Allocations intercepted.
    pub allocations: u64,
    /// Frees intercepted.
    pub frees: u64,
    /// Shadow checks performed (instrumented accesses).
    pub checks: u64,
    /// Accesses skipped because the module was not instrumented.
    pub unchecked: u64,
}

/// The AddressSanitizer model.
///
/// Like the real tool, the *allocator* is interposed globally (every
/// object gets redzones, whatever code allocated it), but *checks* exist
/// only in code compiled with the instrumentation: accesses from modules
/// never passed to [`Asan::instrument_module`] are not checked. That is
/// exactly why the paper finds ASan "cannot detect the overflows in
/// Libtiff, LibHX, and Zziplib, when the corresponding libraries are not
/// instrumented" (Section V-A1).
///
/// # Examples
///
/// ```
/// use asan_sim::{Asan, AsanConfig};
/// use sim_heap::{HeapConfig, SimHeap};
/// use sim_machine::{AccessKind, Machine, SiteToken, ThreadId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut machine = Machine::new();
/// let mut heap = SimHeap::new(&mut machine, HeapConfig::default())?;
/// let mut asan = Asan::new(AsanConfig::default());
/// asan.instrument_module("app");
///
/// let p = asan.malloc(&mut machine, &mut heap, 40)?;
/// // One byte past the object, from instrumented code: caught.
/// asan.access(&mut machine, ThreadId::MAIN, p + 40, 1, AccessKind::Write, "app", SiteToken(1))?;
/// assert!(asan.detected());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Asan {
    config: AsanConfig,
    shadow: ShadowMemory,
    quarantine: Quarantine,
    instrumented: HashSet<String>,
    records: HashMap<u64, AsanRecord>,
    reports: Vec<AsanReport>,
    reported_sites: HashSet<u64>,
    stats: AsanStats,
}

impl Asan {
    /// Creates an ASan model.
    pub fn new(config: AsanConfig) -> Self {
        let quarantine = Quarantine::new(config.quarantine_bytes);
        Asan {
            config,
            shadow: ShadowMemory::new(),
            quarantine,
            instrumented: HashSet::new(),
            records: HashMap::new(),
            reports: Vec::new(),
            reported_sites: HashSet::new(),
            stats: AsanStats::default(),
        }
    }

    /// Marks `module` as compiled with ASan instrumentation.
    pub fn instrument_module(&mut self, module: &str) {
        self.instrumented.insert(module.to_owned());
    }

    /// Registers a global variable: ASan's compile-time instrumentation
    /// surrounds each global with redzones, which is why it covers
    /// global-variable overflows that heap-only tools like CSOD cannot
    /// see (paper Section VI). The surrounding `redzone_size` bytes on
    /// each side must lie in mapped memory reserved for the purpose.
    pub fn add_global(&mut self, addr: VirtAddr, size: u64) {
        let rz = self.config.redzone_size.max(GRANULE);
        self.shadow.poison_redzone(addr - rz, rz);
        self.shadow.unpoison_object(addr, size);
        let padded = size.max(1).div_ceil(GRANULE) * GRANULE;
        self.shadow.poison_redzone(addr + padded, rz);
    }

    /// Interposed `malloc`: redzones on both sides, object unpoisoned,
    /// redzones poisoned.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn malloc(
        &mut self,
        machine: &mut Machine,
        heap: &mut SimHeap,
        size: u64,
    ) -> Result<VirtAddr, AsanError> {
        // Poisoning cost scales with how much redzone there is to paint.
        let poison_units = (self.config.redzone_size / 16).max(1);
        machine.charge(
            CostDomain::Tool,
            machine.costs().redzone_poison * poison_units,
        );
        let left = self.config.redzone_size.max(GRANULE);
        let padded = size.max(1).div_ceil(GRANULE) * GRANULE;
        let right = self.config.redzone_size.max(GRANULE);
        let total = left + padded + right;
        let real = heap.malloc(machine, total)?;
        let user = real + left;
        self.shadow.poison_redzone(real, left);
        self.shadow.unpoison_object(user, size);
        // The padding tail of the last granule is non-addressable via the
        // partial-granule encoding; poison from the padded edge onward.
        self.shadow.poison_redzone(user + padded, right);
        self.records
            .insert(user.as_u64(), AsanRecord { real, size });
        self.stats.allocations += 1;
        Ok(user)
    }

    /// Interposed `free`: the object is poisoned and quarantined; evicted
    /// quarantine entries are really freed.
    ///
    /// # Errors
    ///
    /// Returns [`AsanError::InvalidFree`] for unknown pointers (including
    /// double frees).
    pub fn free(
        &mut self,
        machine: &mut Machine,
        heap: &mut SimHeap,
        user: VirtAddr,
    ) -> Result<(), AsanError> {
        machine.charge(CostDomain::Tool, machine.costs().quarantine);
        let record = self
            .records
            .remove(&user.as_u64())
            .ok_or(AsanError::InvalidFree(user))?;
        self.stats.frees += 1;
        let padded = record.size.max(1).div_ceil(GRANULE) * GRANULE;
        self.shadow.poison_freed(user, padded);
        let evicted = self.quarantine.admit(QuarantinedBlock {
            real: record.real,
            user,
            size: record.size,
        });
        for block in evicted {
            self.release(machine, heap, block);
        }
        Ok(())
    }

    /// An instrumented-program memory access: the shadow check runs first
    /// (when `module` is instrumented), then the access itself.
    ///
    /// Unlike the real tool, a poisoned access is recorded and execution
    /// continues (`halt_on_error=0`), so one run measures all detections.
    ///
    /// # Errors
    ///
    /// Propagates machine faults for unmapped accesses.
    #[allow(clippy::too_many_arguments)] // mirrors the instrumentation callback ABI
    pub fn access(
        &mut self,
        machine: &mut Machine,
        tid: ThreadId,
        addr: VirtAddr,
        len: u64,
        kind: AccessKind,
        module: &str,
        site: SiteToken,
    ) -> Result<(), sim_machine::MemoryError> {
        if self.instrumented.contains(module) {
            machine.charge(CostDomain::Tool, machine.costs().shadow_check);
            self.stats.checks += 1;
            match self.shadow.check(addr, len) {
                ShadowVerdict::Clean => {}
                ShadowVerdict::HitRedzone { at } => {
                    self.report(BugKind::HeapBufferOverflow, kind, at, tid, site);
                }
                ShadowVerdict::HitFreed { at } => {
                    self.report(BugKind::UseAfterFree, kind, at, tid, site);
                }
            }
        } else {
            self.stats.unchecked += 1;
        }
        machine.app_access(tid, addr, len, kind)
    }

    /// Models `count` in-bounds accesses to `[addr, addr+len)` as one
    /// bulk operation: per-access check costs are charged, one
    /// representative check and access really execute.
    ///
    /// # Errors
    ///
    /// Propagates machine faults for unmapped accesses.
    #[allow(clippy::too_many_arguments)] // mirrors the instrumentation callback ABI
    pub fn access_burst(
        &mut self,
        machine: &mut Machine,
        tid: ThreadId,
        addr: VirtAddr,
        len: u64,
        kind: AccessKind,
        module: &str,
        site: SiteToken,
        count: u64,
    ) -> Result<(), sim_machine::MemoryError> {
        if count == 0 {
            return Ok(());
        }
        if self.instrumented.contains(module) {
            machine.charge(CostDomain::Tool, machine.costs().shadow_check * (count - 1));
            self.stats.checks += count - 1;
        } else {
            self.stats.unchecked += count - 1;
        }
        machine.app_access_bulk(tid, addr, len, kind, count - 1)?;
        self.access(machine, tid, addr, len, kind, module, site)
    }

    /// End of execution: drains the quarantine back to the allocator.
    pub fn finish(&mut self, machine: &mut Machine, heap: &mut SimHeap) {
        for block in self.quarantine.drain() {
            self.release(machine, heap, block);
        }
    }

    fn release(&mut self, machine: &mut Machine, heap: &mut SimHeap, block: QuarantinedBlock) {
        // Forget the shadow for the whole raw block so recycled memory
        // starts clean.
        let left = block.user - block.real;
        let padded = block.size.max(1).div_ceil(GRANULE) * GRANULE;
        let right = self.config.redzone_size.max(GRANULE);
        self.shadow.clear(block.real, left + padded + right);
        heap.free(machine, block.real)
            .expect("quarantined block is live");
    }

    fn report(
        &mut self,
        bug: BugKind,
        access: AccessKind,
        addr: VirtAddr,
        thread: ThreadId,
        site: SiteToken,
    ) {
        if !self.reported_sites.insert(site.0) {
            return;
        }
        self.reports.push(AsanReport {
            bug,
            access,
            addr,
            thread,
            site,
        });
    }

    /// All reports so far.
    pub fn reports(&self) -> &[AsanReport] {
        &self.reports
    }

    /// Whether any bug was reported.
    pub fn detected(&self) -> bool {
        !self.reports.is_empty()
    }

    /// Counters.
    pub fn stats(&self) -> AsanStats {
        self.stats
    }

    /// Peak shadow bytes alone (one real byte per tracked granule).
    pub fn peak_shadow_bytes(&self) -> u64 {
        self.shadow.peak_granules() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_heap::HeapConfig;

    fn setup() -> (Machine, SimHeap, Asan) {
        let mut machine = Machine::new();
        let heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
        let mut asan = Asan::new(AsanConfig::default());
        asan.instrument_module("app");
        (machine, heap, asan)
    }

    #[test]
    fn clean_accesses_pass() {
        let (mut m, mut h, mut a) = setup();
        let p = a.malloc(&mut m, &mut h, 64).unwrap();
        for off in (0..64).step_by(8) {
            a.access(
                &mut m,
                ThreadId::MAIN,
                p + off,
                8,
                AccessKind::Write,
                "app",
                SiteToken(0),
            )
            .unwrap();
        }
        assert!(!a.detected());
        assert_eq!(a.stats().checks, 8);
    }

    #[test]
    fn overflow_into_redzone_detected() {
        let (mut m, mut h, mut a) = setup();
        let p = a.malloc(&mut m, &mut h, 64).unwrap();
        a.access(
            &mut m,
            ThreadId::MAIN,
            p + 64,
            1,
            AccessKind::Write,
            "app",
            SiteToken(1),
        )
        .unwrap();
        assert!(a.detected());
        assert_eq!(a.reports()[0].bug, BugKind::HeapBufferOverflow);
    }

    #[test]
    fn underflow_into_left_redzone_detected() {
        let (mut m, mut h, mut a) = setup();
        let p = a.malloc(&mut m, &mut h, 64).unwrap();
        a.access(
            &mut m,
            ThreadId::MAIN,
            p - 1,
            1,
            AccessKind::Read,
            "app",
            SiteToken(2),
        )
        .unwrap();
        assert!(a.detected());
    }

    #[test]
    fn sub_granule_overflow_detected_via_partial_encoding() {
        let (mut m, mut h, mut a) = setup();
        let p = a.malloc(&mut m, &mut h, 13).unwrap();
        a.access(
            &mut m,
            ThreadId::MAIN,
            p + 13,
            1,
            AccessKind::Read,
            "app",
            SiteToken(3),
        )
        .unwrap();
        assert!(a.detected(), "redzone-adjacent byte inside last granule");
    }

    #[test]
    fn uninstrumented_module_misses_the_bug() {
        let (mut m, mut h, mut a) = setup();
        let p = a.malloc(&mut m, &mut h, 64).unwrap();
        // The overflowing access happens inside libtiff.so, which was
        // not compiled with ASan.
        a.access(
            &mut m,
            ThreadId::MAIN,
            p + 64,
            1,
            AccessKind::Write,
            "libtiff.so",
            SiteToken(4),
        )
        .unwrap();
        assert!(!a.detected());
        assert_eq!(a.stats().unchecked, 1);
    }

    #[test]
    fn use_after_free_detected_via_quarantine() {
        let (mut m, mut h, mut a) = setup();
        let p = a.malloc(&mut m, &mut h, 32).unwrap();
        a.free(&mut m, &mut h, p).unwrap();
        a.access(
            &mut m,
            ThreadId::MAIN,
            p,
            8,
            AccessKind::Read,
            "app",
            SiteToken(5),
        )
        .unwrap();
        assert!(a.detected());
        assert_eq!(a.reports()[0].bug, BugKind::UseAfterFree);
    }

    #[test]
    fn double_free_is_invalid() {
        let (mut m, mut h, mut a) = setup();
        let p = a.malloc(&mut m, &mut h, 32).unwrap();
        a.free(&mut m, &mut h, p).unwrap();
        assert_eq!(a.free(&mut m, &mut h, p), Err(AsanError::InvalidFree(p)));
    }

    #[test]
    fn quarantine_eviction_returns_memory() {
        let mut machine = Machine::new();
        let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
        let mut asan = Asan::new(AsanConfig {
            redzone_size: 16,
            quarantine_bytes: 64,
        });
        asan.instrument_module("app");
        let mut ptrs = Vec::new();
        for _ in 0..4 {
            ptrs.push(asan.malloc(&mut machine, &mut heap, 32).unwrap());
        }
        let live_before = heap.stats().live_objects();
        for p in ptrs {
            asan.free(&mut machine, &mut heap, p).unwrap();
        }
        // 4 * 32 bytes freed with a 64-byte cap: at least two blocks
        // must have been really freed.
        assert!(heap.stats().live_objects() <= live_before - 2);
        asan.finish(&mut machine, &mut heap);
        assert_eq!(heap.stats().live_objects(), 0);
    }

    #[test]
    fn each_site_reports_once() {
        let (mut m, mut h, mut a) = setup();
        let p = a.malloc(&mut m, &mut h, 8).unwrap();
        for _ in 0..3 {
            a.access(
                &mut m,
                ThreadId::MAIN,
                p + 8,
                1,
                AccessKind::Write,
                "app",
                SiteToken(7),
            )
            .unwrap();
        }
        assert_eq!(a.reports().len(), 1);
    }

    #[test]
    fn global_variable_overflow_detected() {
        let (mut m, _h, mut a) = setup();
        // A data segment with slack for the redzones.
        let data = VirtAddr::new(0x5_0000_0000);
        m.map_region(data, 4096, "data").unwrap();
        let global = data + 64;
        a.add_global(global, 40);
        // In-bounds is clean; one byte past is caught.
        a.access(
            &mut m,
            ThreadId::MAIN,
            global,
            40,
            AccessKind::Write,
            "app",
            SiteToken(20),
        )
        .unwrap();
        assert!(!a.detected());
        a.access(
            &mut m,
            ThreadId::MAIN,
            global + 40,
            1,
            AccessKind::Read,
            "app",
            SiteToken(21),
        )
        .unwrap();
        assert!(a.detected());
    }

    #[test]
    fn strided_overflow_within_redzone_detected_beyond_missed() {
        // Paper Section VI: "ASan can detect overflows within redzones,
        // regardless of stride or continuity... cannot detect
        // non-continuous overflows beyond the redzones."
        let (mut m, mut h, mut a) = setup();
        let p = a.malloc(&mut m, &mut h, 64).unwrap();
        // Skip 8 bytes into the middle of the right redzone: caught.
        a.access(
            &mut m,
            ThreadId::MAIN,
            p + 72,
            4,
            AccessKind::Write,
            "app",
            SiteToken(22),
        )
        .unwrap();
        assert!(a.detected());
        // A fresh instance: far beyond the redzone, into untracked
        // memory: missed.
        let (mut m2, mut h2, mut a2) = setup();
        let q = a2.malloc(&mut m2, &mut h2, 64).unwrap();
        a2.access(
            &mut m2,
            ThreadId::MAIN,
            q + 4096,
            8,
            AccessKind::Write,
            "app",
            SiteToken(23),
        )
        .unwrap();
        assert!(!a2.detected());
    }

    #[test]
    fn tool_costs_and_memory_accounting() {
        let (mut m, mut h, mut a) = setup();
        let p = a.malloc(&mut m, &mut h, 64).unwrap();
        a.access(
            &mut m,
            ThreadId::MAIN,
            p,
            8,
            AccessKind::Read,
            "app",
            SiteToken(8),
        )
        .unwrap();
        assert!(m.counter().tool_ns() > 0);
        // The object and its two 16-byte redzones: 96 bytes, 12 granules.
        assert_eq!(a.peak_shadow_bytes(), 12);
        a.free(&mut m, &mut h, p).unwrap();
        a.finish(&mut m, &mut h);
    }

    #[test]
    fn recycled_block_starts_clean() {
        let mut machine = Machine::new();
        let mut heap = SimHeap::new(&mut machine, HeapConfig::default()).unwrap();
        let mut asan = Asan::new(AsanConfig {
            redzone_size: 16,
            quarantine_bytes: 0, // evict immediately
        });
        asan.instrument_module("app");
        let p = asan.malloc(&mut machine, &mut heap, 32).unwrap();
        asan.free(&mut machine, &mut heap, p).unwrap();
        // The block is recycled for a fresh allocation of the same size.
        let q = asan.malloc(&mut machine, &mut heap, 32).unwrap();
        assert_eq!(p, q, "allocator recycles the block");
        asan.access(
            &mut machine,
            ThreadId::MAIN,
            q,
            32,
            AccessKind::Write,
            "app",
            SiteToken(9),
        )
        .unwrap();
        assert!(!asan.detected(), "no stale freed-poison on recycled memory");
    }
}

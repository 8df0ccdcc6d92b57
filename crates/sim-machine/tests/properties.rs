//! Property-based tests of the machine substrate.

use proptest::prelude::*;
use sim_machine::{
    AccessKind, AddrRange, AddressSpace, Machine, MemoryError, PerfEventAttr, PerfSubsystem,
    ThreadId, VirtAddr, NUM_WATCHPOINT_REGISTERS,
};
use std::collections::BTreeSet;

/// The address space's demand-paging granularity.
const CHUNK: u64 = 64 * 1024;
/// Regions are laid out in slots this far apart; a region fills at most
/// its slot, so a full-slot region is adjacent to the next one.
const SLOT: u64 = 3 * CHUNK;
const SLOTS: usize = 5;
const WINDOW: u64 = 0x10_0000;

/// Byte-map reference model of an [`AddressSpace`]: the regions as
/// plain `(start, len)` pairs, every byte of the window in one vector,
/// and the `(region start, chunk)` pairs that hold backing memory.
struct Model {
    regions: Vec<(u64, u64)>,
    bytes: Vec<u8>,
    backed: BTreeSet<(u64, u64)>,
}

impl Model {
    /// The region holding all of `[addr, addr + len)`, or the fault.
    fn region(&self, addr: u64, len: u64) -> Result<(u64, u64), MemoryError> {
        self.regions
            .iter()
            .copied()
            .find(|&(start, size)| {
                len > 0 && addr >= start && addr.checked_add(len).is_some_and(|e| e <= start + size)
            })
            .ok_or(MemoryError::Unmapped {
                addr: VirtAddr::new(addr),
                len,
            })
    }

    fn slice(&mut self, addr: u64, len: u64) -> &mut [u8] {
        let at = (addr - WINDOW) as usize;
        &mut self.bytes[at..at + len as usize]
    }

    /// Records that `[addr, addr + len)` in the region at `start` now
    /// has backing memory.
    fn back(&mut self, start: u64, addr: u64, len: u64) {
        let first = (addr - start) / CHUNK;
        let last = (addr + len - 1 - start) / CHUNK;
        self.backed
            .extend((first..=last).map(|chunk| (start, chunk)));
    }

    fn resident(&self) -> u64 {
        self.backed.len() as u64 * CHUNK
    }
}

proptest! {
    /// The address space behaves like a byte map over its mapped region.
    #[test]
    fn address_space_matches_byte_model(
        writes in proptest::collection::vec((0u64..4000, any::<u8>(), 1u64..64), 1..60),
    ) {
        let mut mem = AddressSpace::new();
        let base = VirtAddr::new(0x10_0000);
        mem.map_region(base, 4096, "heap").unwrap();
        let mut model = vec![0u8; 4096];
        for (off, byte, len) in writes {
            let len = len.min(4096 - off);
            if len == 0 { continue; }
            let data = vec![byte; len as usize];
            mem.write_bytes(base + off, &data).unwrap();
            model[off as usize..(off + len) as usize].fill(byte);
        }
        let mut out = vec![0u8; 4096];
        mem.read_bytes(base, &mut out).unwrap();
        prop_assert_eq!(out, model);
    }

    /// Several regions mapped in random order behave like one byte map:
    /// every read, write, fill and word access returns the model's
    /// bytes or its fault, and backs exactly the chunks the model does.
    /// Accesses are aimed at region edges, chunk boundaries and the gaps
    /// between regions, with lengths that straddle one or two chunks.
    #[test]
    fn multi_region_space_matches_byte_model(
        slots in proptest::collection::vec((0u8..5, 1u64..SLOT), SLOTS..SLOTS + 1),
        order in proptest::collection::vec(any::<u32>(), SLOTS..SLOTS + 1),
        shift in 1u64..CHUNK,
        ops in proptest::collection::vec(
            ((0u8..5, 0usize..SLOTS, 0u8..4), -24i64..24, (0u8..10, 0u64..72), any::<u64>()),
            1..48,
        ),
    ) {
        // Slot kind 0 leaves a slot unmapped, 1 fills it (adjacent to
        // the next region), anything else maps a random length.
        let lens: Vec<u64> = slots
            .iter()
            .map(|&(kind, len)| match kind {
                0 => 0,
                1 => SLOT,
                _ => len,
            })
            .collect();
        let base = |slot: usize| WINDOW + shift + slot as u64 * SLOT;
        let mut mapping: Vec<usize> = (0..SLOTS).filter(|&i| lens[i] > 0).collect();
        mapping.sort_by_key(|&i| order[i]);
        let mut mem = AddressSpace::new();
        let mut model = Model {
            regions: Vec::new(),
            bytes: vec![0; (SLOTS as u64 * SLOT + CHUNK) as usize],
            backed: BTreeSet::new(),
        };
        for &i in &mapping {
            mem.map_region(VirtAddr::new(base(i)), lens[i], &format!("r{i}")).unwrap();
            model.regions.push((base(i), lens[i]));
        }
        prop_assert_eq!(mem.mapped_bytes(), lens.iter().sum::<u64>());

        for ((kind, slot, anchor), delta, (len_class, small), value) in ops {
            let start = base(slot);
            let end = start + if lens[slot] > 0 { lens[slot] } else { slots[slot].1 };
            let aim = match anchor {
                0 => start,
                1 => end,
                2 => start + (1 + value % 2) * CHUNK,
                _ => start + value % SLOT,
            };
            let addr = aim.checked_add_signed(delta).unwrap();
            let len = match (kind, len_class) {
                (3 | 4, _) => 8,
                (_, 0..=6) => small,
                (_, 7 | 8) => CHUNK - 36 + small,
                _ => 2 * CHUNK + small,
            };
            let at = VirtAddr::new(addr);
            let hit = model.region(addr, len);
            prop_assert_eq!(mem.is_mapped(at, len), hit.is_ok());
            match kind {
                0 => {
                    let mut buf = vec![0xEE; len as usize];
                    let got = mem.read_bytes(at, &mut buf).map(|()| buf);
                    let want = hit.map(|_| model.slice(addr, len).to_vec());
                    prop_assert_eq!(got, want);
                }
                1 => {
                    let data: Vec<u8> = (0..len)
                        .map(|i| if value % 4 == 0 { 0 } else { (value as u8).wrapping_add(i as u8) })
                        .collect();
                    prop_assert_eq!(mem.write_bytes(at, &data), hit.clone().map(drop));
                    if let Ok((region, _)) = hit {
                        model.slice(addr, len).copy_from_slice(&data);
                        model.back(region, addr, len);
                    }
                }
                2 => {
                    let byte = if value % 3 == 0 { 0 } else { value as u8 };
                    prop_assert_eq!(mem.fill(at, len, byte), hit.clone().map(drop));
                    if let Ok((region, _)) = hit {
                        model.slice(addr, len).fill(byte);
                        // Zero-filling an untouched chunk leaves it lazy.
                        if byte != 0 {
                            model.back(region, addr, len);
                        }
                    }
                }
                3 => {
                    let want = hit.map(|_| {
                        u64::from_le_bytes(model.slice(addr, 8).try_into().unwrap())
                    });
                    prop_assert_eq!(mem.load_u64(at), want);
                }
                _ => {
                    prop_assert_eq!(mem.store_u64(at, value), hit.clone().map(drop));
                    if let Ok((region, _)) = hit {
                        model.slice(addr, 8).copy_from_slice(&value.to_le_bytes());
                        model.back(region, addr, 8);
                    }
                }
            }
            prop_assert_eq!(mem.resident_bytes(), model.resident());
        }

        for &(start, len) in &model.regions.clone() {
            let mut out = vec![0; len as usize];
            mem.read_bytes(VirtAddr::new(start), &mut out).unwrap();
            prop_assert_eq!(&out[..], model.slice(start, len));
        }
    }

    /// Any access fully outside mapped regions errors; any inside works.
    #[test]
    fn mapped_accesses_succeed_unmapped_fail(off in 0u64..10_000, len in 1u64..128) {
        let mut mem = AddressSpace::new();
        let base = VirtAddr::new(0x10_0000);
        mem.map_region(base, 4096, "r").unwrap();
        let inside = off + len <= 4096;
        let result = mem.write_bytes(base + off, &vec![1u8; len as usize]);
        prop_assert_eq!(result.is_ok(), inside);
    }

    /// Under arbitrary open/close interleavings, a thread never holds
    /// more than four events and every close balances an open.
    #[test]
    fn debug_registers_never_exceed_four(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        let mut perf = PerfSubsystem::new();
        let mut open = Vec::new();
        let mut addr = 0x1000u64;
        for do_open in ops {
            if do_open {
                addr += 8;
                match perf.open(PerfEventAttr::rw_word(VirtAddr::new(addr)), ThreadId::MAIN) {
                    Ok(fd) => open.push(fd),
                    Err(_) => prop_assert_eq!(open.len(), NUM_WATCHPOINT_REGISTERS),
                }
            } else if let Some(fd) = open.pop() {
                perf.close(fd).unwrap();
            }
            prop_assert!(open.len() <= NUM_WATCHPOINT_REGISTERS);
            prop_assert_eq!(perf.free_registers(ThreadId::MAIN), 4 - open.len());
            prop_assert_eq!(perf.open_events(), open.len());
        }
    }

    /// Watchpoint firing is exactly range-overlap on enabled events of
    /// the accessing thread.
    #[test]
    fn trap_iff_overlap(watch_off in 0u64..512, acc_off in 0u64..512, len in 1u64..16) {
        let mut m = Machine::new();
        let base = VirtAddr::new(0x20_0000);
        m.map_region(base, 4096, "heap").unwrap();
        let watch = base + watch_off * 8;
        let fd = m.sys_perf_event_open(PerfEventAttr::rw_word(watch), ThreadId::MAIN).unwrap();
        m.sys_fcntl(fd, sim_machine::FcntlCmd::SetFlAsync).unwrap();
        m.sys_fcntl(fd, sim_machine::FcntlCmd::SetSig(sim_machine::Signal::Trap)).unwrap();
        m.sys_ioctl(fd, sim_machine::IoctlCmd::Enable).unwrap();
        let acc = base + acc_off;
        if m.app_access(ThreadId::MAIN, acc, len, AccessKind::Read).is_ok() {
            let expect = AddrRange::new(watch, 8).overlaps(&AddrRange::new(acc, len));
            let fired = !m.take_signals().is_empty();
            prop_assert_eq!(fired, expect);
        }
    }

    /// Bulk accesses charge exactly like the same number of singles.
    #[test]
    fn bulk_equals_singles_in_cost(count in 1u64..500) {
        let base = VirtAddr::new(0x30_0000);
        let mut bulk = Machine::new();
        bulk.map_region(base, 4096, "h").unwrap();
        bulk.app_access_bulk(ThreadId::MAIN, base, 8, AccessKind::Write, count).unwrap();

        let mut singles = Machine::new();
        singles.map_region(base, 4096, "h").unwrap();
        for _ in 0..count {
            singles.app_write(ThreadId::MAIN, base, 8).unwrap();
        }
        prop_assert_eq!(bulk.counter().app_ns(), singles.counter().app_ns());
        prop_assert_eq!(bulk.counter().accesses(), singles.counter().accesses());
    }

    /// PMU sampling density is 1/period over any access pattern mix of
    /// bulk and single accesses (sample points, not queued entries).
    #[test]
    fn pmu_cost_matches_density(period in 1u64..64, batches in proptest::collection::vec(1u64..100, 1..20)) {
        let base = VirtAddr::new(0x40_0000);
        let mut m = Machine::new();
        m.map_region(base, 4096, "h").unwrap();
        m.pmu_enable(period);
        let mut total = 0u64;
        for b in batches {
            m.app_access_bulk(ThreadId::MAIN, base, 8, AccessKind::Read, b).unwrap();
            total += b;
        }
        let expected_samples = total / period;
        prop_assert_eq!(
            m.counter().tool_ns(),
            expected_samples * m.costs().pmu_sample
        );
    }
}

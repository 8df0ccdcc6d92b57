//! The free-quarantine.
//!
//! ASan delays the reuse of freed blocks so that use-after-free accesses
//! keep hitting poisoned shadow. The quarantine is a byte-capped FIFO:
//! when the cap is exceeded the oldest entries are evicted and really
//! returned to the allocator.

use sim_machine::VirtAddr;
use std::collections::VecDeque;

/// One quarantined block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedBlock {
    /// Raw allocation start (including redzones).
    pub real: VirtAddr,
    /// User object start.
    pub user: VirtAddr,
    /// User object size.
    pub size: u64,
}

/// A byte-capped FIFO quarantine.
#[derive(Debug)]
pub struct Quarantine {
    capacity_bytes: u64,
    held_bytes: u64,
    queue: VecDeque<QuarantinedBlock>,
}

impl Quarantine {
    /// Creates a quarantine holding at most `capacity_bytes` of user
    /// object bytes.
    pub fn new(capacity_bytes: u64) -> Self {
        Quarantine {
            capacity_bytes,
            held_bytes: 0,
            queue: VecDeque::new(),
        }
    }

    /// Admits a freed block and returns the blocks evicted to stay under
    /// the cap (in eviction order; the caller really frees them).
    pub fn admit(&mut self, block: QuarantinedBlock) -> Vec<QuarantinedBlock> {
        self.queue.push_back(block);
        self.held_bytes += block.size;
        let mut evicted = Vec::new();
        while self.held_bytes > self.capacity_bytes {
            let oldest = self.queue.pop_front().expect("held > 0 implies non-empty");
            self.held_bytes -= oldest.size;
            evicted.push(oldest);
        }
        evicted
    }

    /// Drains every held block (end of execution).
    pub fn drain(&mut self) -> Vec<QuarantinedBlock> {
        self.held_bytes = 0;
        self.queue.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: u64, size: u64) -> QuarantinedBlock {
        QuarantinedBlock {
            real: VirtAddr::new(0x1000 + n * 0x100),
            user: VirtAddr::new(0x1010 + n * 0x100),
            size,
        }
    }

    #[test]
    fn admits_until_cap_then_evicts_fifo() {
        let mut q = Quarantine::new(100);
        assert!(q.admit(block(0, 40)).is_empty());
        assert!(q.admit(block(1, 40)).is_empty());
        let evicted = q.admit(block(2, 40));
        assert_eq!(evicted, vec![block(0, 40)]);
        assert_eq!(q.held_bytes, 80);
        assert_eq!(q.queue.len(), 2);
    }

    #[test]
    fn oversized_block_evicts_everything_including_itself() {
        let mut q = Quarantine::new(50);
        q.admit(block(0, 30));
        let evicted = q.admit(block(1, 100));
        assert_eq!(evicted.len(), 2);
        assert!(q.queue.is_empty());
        assert_eq!(q.held_bytes, 0);
    }

    #[test]
    fn drain_empties() {
        let mut q = Quarantine::new(1000);
        q.admit(block(0, 10));
        q.admit(block(1, 10));
        let all = q.drain();
        assert_eq!(all.len(), 2);
        assert!(q.queue.is_empty());
        assert_eq!(q.held_bytes, 0);
    }
}

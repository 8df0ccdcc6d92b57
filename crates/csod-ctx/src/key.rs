//! The cheap allocation-context key.
//!
//! Capturing and comparing a full backtrace on every allocation is far
//! too expensive, so CSOD identifies an allocation calling context by the
//! pair *(first-level calling context above the allocator, stack
//! offset)* — obtainable with `__builtin_return_address` and a frame
//! pointer read (paper Section III-A1). Two different full contexts *can*
//! collide on this key; the paper argues the chance is "extremely low"
//! and that a collision only perturbs sampling probabilities, never the
//! correctness of a report. The `ablation_keys` harness quantifies that
//! claim on this implementation.

use crate::frame::FrameId;
use std::fmt;

/// The (first-level call site, stack offset) pair CSOD hashes on every
/// allocation.
///
/// # Examples
///
/// ```
/// use csod_ctx::{ContextKey, FrameTable};
///
/// let frames = FrameTable::new();
/// let site = frames.intern("gzip/gzip.c:804");
/// let key = ContextKey::new(site, 0x40);
/// assert_eq!(key.stack_offset(), 0x40);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContextKey {
    first_level: FrameId,
    stack_offset: u64,
}

impl ContextKey {
    /// Builds a key from the first-level call site and the stack offset
    /// of the allocating frame.
    pub fn new(first_level: FrameId, stack_offset: u64) -> Self {
        ContextKey {
            first_level,
            stack_offset,
        }
    }

    /// The stack offset disambiguating different call paths that share a
    /// first-level site.
    pub fn stack_offset(&self) -> u64 {
        self.stack_offset
    }

    /// A 64-bit mix of both key components, used for bucket selection
    /// and open-addressed probing.
    ///
    /// A cheap integer mix (not SipHash) because this runs on the
    /// allocation fast path; the distribution only needs to spread keys
    /// across buckets.
    pub fn hash64(&self) -> u64 {
        mix64((u64::from(self.first_level.as_u32()) << 32) ^ self.stack_offset)
    }

    /// The bucket index of this key in a table of `buckets` buckets,
    /// which must be a power of two: the hash's low bits, the remainder
    /// without a division on every lookup.
    pub fn bucket(&self, buckets: usize) -> usize {
        debug_assert!(buckets.is_power_of_two());
        (self.hash64() & (buckets as u64 - 1)) as usize
    }
}

/// The splitmix64 finalizer: a cheap, well-spread 64-bit integer mix.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl fmt::Display for ContextKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, +{:#x})", self.first_level, self.stack_offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameTable;

    #[test]
    fn distinct_components_distinct_keys() {
        let t = FrameTable::new();
        let a = t.intern("a.c:1");
        let b = t.intern("b.c:2");
        assert_ne!(ContextKey::new(a, 0x10), ContextKey::new(b, 0x10));
        assert_ne!(ContextKey::new(a, 0x10), ContextKey::new(a, 0x20));
        assert_eq!(ContextKey::new(a, 0x10), ContextKey::new(a, 0x10));
    }

    #[test]
    fn buckets_are_in_range_and_spread() {
        let t = FrameTable::new();
        let buckets = 64;
        let mut histogram = vec![0u32; buckets];
        for i in 0..1000 {
            let site = t.intern(&format!("f{}.c:{}", i % 37, i));
            let key = ContextKey::new(site, (i * 16) as u64);
            let b = key.bucket(buckets);
            assert!(b < buckets);
            histogram[b] += 1;
        }
        // No bucket should be pathologically loaded (expected ~15.6).
        assert!(histogram.iter().all(|&h| h < 60), "{histogram:?}");
        // And the hash must not send everything to a few buckets.
        let used = histogram.iter().filter(|&&h| h > 0).count();
        assert!(used > buckets / 2, "only {used} buckets used");
    }

    #[test]
    fn display_shows_both_parts() {
        let t = FrameTable::new();
        let key = ContextKey::new(t.intern("z.c:9"), 0x40);
        let s = key.to_string();
        assert!(s.contains("frame0"));
        assert!(s.contains("0x40"));
    }
}

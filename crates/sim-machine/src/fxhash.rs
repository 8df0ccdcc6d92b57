//! The workspace's one fast hasher for pointer- and fd-keyed tables.
//!
//! Every table on a per-allocation path — the heap's live-object map,
//! CSOD's live records, decision caches and fd index, the perf event
//! table — is a `std::collections::HashMap` built with [`FxBuild`].
//! The default SipHash hasher costs more than the rest of `malloc`/`free`
//! bookkeeping put together; addresses and descriptors are already
//! high-entropy in the low bits, so a single multiply mixes plenty.

use std::hash::{BuildHasherDefault, Hasher};

/// One fxhash round per written word.
#[derive(Debug, Default)]
pub struct AddrHasher(u64);

/// The 64-bit `fxhash` multiplier (golden-ratio based).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for AddrHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Keys hash through the fixed-width methods below; tolerate
        // other widths anyway.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0.rotate_left(5) ^ value).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// The `BuildHasher` for [`AddrHasher`]: `HashMap<K, V, FxBuild>`.
pub type FxBuild = BuildHasherDefault<AddrHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn fixed_width_writes_match_the_byte_path() {
        let build = FxBuild::default();
        let via_u64 = build.hash_one(0x4000_1040u64);
        let mut h = AddrHasher::default();
        h.write(&0x4000_1040u64.to_le_bytes());
        assert_eq!(via_u64, h.finish());
        let mut a = AddrHasher::default();
        a.write_u32(7);
        let mut b = AddrHasher::default();
        b.write_usize(7);
        assert_eq!(a.finish(), b.finish());
    }
}

//! The buffered generator and its sampling helpers.

use crate::chacha::{init_state, next_block, State};
use std::fmt;

/// One part per million; probabilities in CSOD are expressed in ppm so
/// the paper's percentages stay exact integers (0.001 % = 10 ppm).
pub const PPM_SCALE: u32 = 1_000_000;

/// A buffered ChaCha8 pseudo-random generator in the style of OpenBSD's
/// `arc4random(3)`, but with *owned* state so each thread can have its
/// own instance — the paper's fix for glibc's globally locked `rand`
/// (Section III-A1, "Random number generator").
///
/// # Examples
///
/// ```
/// use csod_rng::Arc4Random;
///
/// let mut rng = Arc4Random::from_seed(1234, 0);
/// // The paper's acceptance test: "if a random number modulo 100 is
/// // less than 10", generalized to parts-per-million.
/// let watched = rng.chance_ppm(100_000); // 10%
/// let _ = watched;
/// // Deterministic: the same seed replays the same stream.
/// let mut replay = Arc4Random::from_seed(1234, 0);
/// assert_eq!(replay.next_u32(), Arc4Random::from_seed(1234, 0).next_u32());
/// ```
#[derive(Clone)]
pub struct Arc4Random {
    state: State,
    buffer: [u32; 16],
    /// Next unread index in `buffer`; 16 means empty.
    cursor: usize,
    /// Number of 32-bit draws so far, shown by `Debug`.
    draws: u64,
}

impl fmt::Debug for Arc4Random {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arc4Random")
            .field("draws", &self.draws)
            .finish_non_exhaustive()
    }
}

impl Arc4Random {
    /// Creates a generator from a 64-bit seed and a stream id.
    ///
    /// The stream id keeps per-thread generators statistically
    /// independent while deriving from one process-level seed: CSOD
    /// seeds thread *t* with `(process_seed, t)`.
    pub fn from_seed(seed: u64, stream: u64) -> Self {
        let mut key = [0u8; 32];
        // Spread the seed through the key with splitmix64 so nearby
        // seeds do not produce nearby keys.
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        for chunk in key.chunks_exact_mut(8) {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes());
        }
        Arc4Random {
            state: init_state(&key, stream),
            buffer: [0; 16],
            cursor: 16,
            draws: 0,
        }
    }

    /// Returns the next 32 uniformly random bits.
    pub fn next_u32(&mut self) -> u32 {
        if self.cursor == 16 {
            self.buffer = next_block(&mut self.state);
            self.cursor = 0;
        }
        let v = self.buffer[self.cursor];
        self.cursor += 1;
        self.draws += 1;
        v
    }

    /// Returns the next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        u64::from(self.next_u32()) | (u64::from(self.next_u32()) << 32)
    }

    /// Returns a uniform value in `[0, bound)` without modulo bias
    /// (`arc4random_uniform(3)`).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn uniform(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "uniform bound must be positive");
        // Rejection sampling: discard the low `2^32 % bound` values.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u32();
            if r >= threshold {
                return r % bound;
            }
        }
    }

    /// Bernoulli trial: returns `true` with probability `ppm` parts per
    /// million. Values at or above [`PPM_SCALE`] always return `true`.
    pub fn chance_ppm(&mut self, ppm: u32) -> bool {
        if ppm >= PPM_SCALE {
            return true;
        }
        if ppm == 0 {
            return false;
        }
        self.uniform(PPM_SCALE) < ppm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_per_seed_and_stream() {
        let mut a = Arc4Random::from_seed(42, 0);
        let mut b = Arc4Random::from_seed(42, 0);
        let mut c = Arc4Random::from_seed(42, 1);
        let mut d = Arc4Random::from_seed(43, 0);
        let va: Vec<u32> = (0..40).map(|_| a.next_u32()).collect();
        let vb: Vec<u32> = (0..40).map(|_| b.next_u32()).collect();
        let vc: Vec<u32> = (0..40).map(|_| c.next_u32()).collect();
        let vd: Vec<u32> = (0..40).map(|_| d.next_u32()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
        assert_ne!(va, vd);
    }

    #[test]
    fn uniform_respects_bound() {
        let mut rng = Arc4Random::from_seed(7, 0);
        for _ in 0..10_000 {
            assert!(rng.uniform(100) < 100);
        }
        // Bound of one is always zero.
        assert_eq!(rng.uniform(1), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn uniform_zero_bound_panics() {
        Arc4Random::from_seed(1, 0).uniform(0);
    }

    #[test]
    fn uniform_is_roughly_uniform() {
        let mut rng = Arc4Random::from_seed(99, 0);
        let mut buckets = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            buckets[rng.uniform(10) as usize] += 1;
        }
        for &b in &buckets {
            let expected = n / 10;
            assert!(
                (b as i64 - expected as i64).unsigned_abs() < expected as u64 / 10,
                "bucket count {b} too far from {expected}"
            );
        }
    }

    #[test]
    fn chance_ppm_extremes() {
        let mut rng = Arc4Random::from_seed(5, 0);
        assert!(rng.chance_ppm(PPM_SCALE));
        assert!(rng.chance_ppm(PPM_SCALE + 1));
        assert!(!rng.chance_ppm(0));
    }

    #[test]
    fn chance_ppm_statistics() {
        let mut rng = Arc4Random::from_seed(11, 3);
        let trials = 200_000;
        let hits = (0..trials)
            .filter(|_| rng.chance_ppm(500_000)) // 50%
            .count();
        let ratio = hits as f64 / f64::from(trials);
        assert!((0.49..0.51).contains(&ratio), "ratio {ratio}");

        let rare_hits = (0..trials)
            .filter(|_| rng.chance_ppm(10)) // 0.001%
            .count();
        assert!(rare_hits < 20, "0.001% fired {rare_hits} times in 200k");
    }

    #[test]
    fn next_u64_combines_two_words() {
        let mut a = Arc4Random::from_seed(1, 0);
        let mut b = Arc4Random::from_seed(1, 0);
        let lo = u64::from(b.next_u32());
        let hi = u64::from(b.next_u32());
        assert_eq!(a.next_u64(), lo | (hi << 32));
    }

    #[test]
    fn draws_counts_words() {
        let mut rng = Arc4Random::from_seed(2, 0);
        let _ = rng.next_u64();
        assert_eq!(rng.draws, 2);
    }

    #[test]
    fn debug_does_not_leak_state() {
        let rng = Arc4Random::from_seed(3, 0);
        let dbg = format!("{rng:?}");
        assert!(dbg.contains("draws"));
        assert!(!dbg.contains("state"));
    }
}

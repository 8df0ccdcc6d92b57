//! # csod-rng — per-thread arc4random for the allocation fast path
//!
//! CSOD consults a random number on *every* allocation to decide whether
//! to watch the new object, so the generator's cost and locking behaviour
//! directly shape the tool's overhead. The paper ports OpenBSD's
//! `arc4random` and changes it to per-thread generation; this crate is
//! that port in Rust: a buffered ChaCha8 generator ([`Arc4Random`]) with
//! owned state and no global state at all. The runtime keeps one
//! generator per simulated thread, seeded `(config.seed, thread id)`.
//!
//! Probabilities are expressed in parts per million ([`PPM_SCALE`]) so
//! that the paper's constants (50 %, 0.001 %, 0.0001 %, 0.01 %) are exact
//! integers.
//!
//! ```
//! use csod_rng::Arc4Random;
//!
//! let mut rng = Arc4Random::from_seed(0xC50D, 0);
//! // The initial 50% sampling decision from the paper:
//! let watch = rng.chance_ppm(500_000);
//! let _ = watch;
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chacha;
mod generator;

pub use generator::{Arc4Random, PPM_SCALE};

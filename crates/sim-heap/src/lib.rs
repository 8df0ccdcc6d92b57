//! # sim-heap — heap allocator substrate
//!
//! A segregated-freelist `malloc`/`free`/`calloc`/`realloc`/`memalign`
//! implementation over the [`sim_machine`] virtual address space. It plays
//! the role glibc's allocator plays under the real CSOD: detection tools
//! interpose *around* it (adding headers, canaries or redzones) without the
//! allocator knowing.
//!
//! ```
//! use sim_heap::{HeapConfig, SimHeap};
//! use sim_machine::Machine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut machine = Machine::new();
//! let mut heap = SimHeap::new(&mut machine, HeapConfig::default())?;
//! let p = heap.calloc(&mut machine, 64)?;
//! assert_eq!(machine.raw_load_u64(p)?, 0);
//! heap.free(&mut machine, p)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::perf)]

mod heap;
mod size_class;
mod stats;

pub use heap::{HeapConfig, HeapError, SimHeap};
pub use size_class::{SizeClass, MEDIUM_MAX, MIN_ALIGN, NUM_CLASSES, PAGE, SMALL_MAX};
pub use stats::HeapStats;

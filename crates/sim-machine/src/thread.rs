//! Simulated threads.
//!
//! CSOD installs every watchpoint on *all* alive threads, "since there is
//! no way to know which thread will cause an overflow later" (paper
//! Section III-C1), and therefore intercepts `pthread_create` to keep a
//! global list of alive threads. The simulated machine keeps the same
//! list; tools can subscribe to spawn/exit events through the
//! [`Machine`](crate::Machine) API to mirror that interception.

use std::fmt;

/// Identifier of a simulated thread.
///
/// The main thread is always [`ThreadId::MAIN`]; further ids are assigned
/// sequentially by [`ThreadRegistry::spawn`], mirroring Linux TIDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(u32);

impl ThreadId {
    /// The initial thread of every machine.
    pub const MAIN: ThreadId = ThreadId(0);

    /// The raw numeric id.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Builds an id from its raw number. Registries assign ids
    /// sequentially; this constructor exists for tests and tools that
    /// reconstruct ids from serialized state.
    pub const fn from_u32(raw: u32) -> ThreadId {
        ThreadId(raw)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tid{}", self.0)
    }
}

/// Errors from thread-registry operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadError {
    /// The referenced thread is not alive.
    NoSuchThread(ThreadId),
    /// The main thread cannot exit while the machine runs.
    MainThreadExit,
}

impl fmt::Display for ThreadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadError::NoSuchThread(t) => write!(f, "no such thread {t}"),
            ThreadError::MainThreadExit => f.write_str("main thread cannot exit"),
        }
    }
}

impl std::error::Error for ThreadError {}

/// The global list of alive threads (the paper's `aliveThreads`).
///
/// # Examples
///
/// ```
/// use sim_machine::{ThreadId, ThreadRegistry};
///
/// let mut threads = ThreadRegistry::new();
/// let worker = threads.spawn();
/// assert!(threads.is_alive(worker));
/// assert_eq!(threads.alive().count(), 2); // main + worker
/// threads.exit(worker)?;
/// assert!(!threads.is_alive(worker));
/// # Ok::<(), sim_machine::ThreadError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ThreadRegistry {
    /// Alive thread ids, in spawn order. The main thread is entry 0.
    alive: Vec<ThreadId>,
    next_id: u32,
}

impl Default for ThreadRegistry {
    fn default() -> Self {
        ThreadRegistry {
            alive: vec![ThreadId::MAIN],
            next_id: 1,
        }
    }
}

impl ThreadRegistry {
    /// Creates a registry containing only the main thread.
    pub fn new() -> Self {
        ThreadRegistry::default()
    }

    /// Spawns a new thread and returns its id.
    pub fn spawn(&mut self) -> ThreadId {
        let id = ThreadId(self.next_id);
        self.next_id += 1;
        self.alive.push(id);
        id
    }

    /// Marks `tid` as exited.
    ///
    /// # Errors
    ///
    /// Returns [`ThreadError::MainThreadExit`] for the main thread and
    /// [`ThreadError::NoSuchThread`] if `tid` is not alive.
    pub fn exit(&mut self, tid: ThreadId) -> Result<(), ThreadError> {
        if tid == ThreadId::MAIN {
            return Err(ThreadError::MainThreadExit);
        }
        match self.alive.iter().position(|&t| t == tid) {
            Some(pos) => {
                self.alive.remove(pos);
                Ok(())
            }
            None => Err(ThreadError::NoSuchThread(tid)),
        }
    }

    /// Returns `true` if `tid` is currently alive.
    pub fn is_alive(&self, tid: ThreadId) -> bool {
        self.alive.contains(&tid)
    }

    /// Iterates over all alive threads in spawn order.
    pub fn alive(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.alive.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_with_main_thread() {
        let t = ThreadRegistry::new();
        assert!(t.is_alive(ThreadId::MAIN));
        assert_eq!(t.alive.len(), 1);
    }

    #[test]
    fn spawn_assigns_sequential_ids() {
        let mut t = ThreadRegistry::new();
        let a = t.spawn();
        let b = t.spawn();
        assert_eq!(a.as_u32(), 1);
        assert_eq!(b.as_u32(), 2);
        assert_eq!(t.alive().collect::<Vec<_>>(), vec![ThreadId::MAIN, a, b]);
    }

    #[test]
    fn exit_removes_thread() {
        let mut t = ThreadRegistry::new();
        let a = t.spawn();
        let b = t.spawn();
        t.exit(a).unwrap();
        assert!(!t.is_alive(a));
        assert!(t.is_alive(b));
        assert_eq!(t.exit(a), Err(ThreadError::NoSuchThread(a)));
    }

    #[test]
    fn ids_are_never_reused() {
        let mut t = ThreadRegistry::new();
        let a = t.spawn();
        t.exit(a).unwrap();
        let b = t.spawn();
        assert_ne!(a, b);
    }

    #[test]
    fn main_thread_cannot_exit() {
        let mut t = ThreadRegistry::new();
        assert_eq!(t.exit(ThreadId::MAIN), Err(ThreadError::MainThreadExit));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ThreadId::MAIN.to_string(), "tid0");
        assert!(ThreadError::NoSuchThread(ThreadId(7))
            .to_string()
            .contains("tid7"));
    }
}

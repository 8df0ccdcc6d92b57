//! Stack-frame interning.
//!
//! A calling context is a chain of code locations ("frames"). Frames are
//! interned once into a [`FrameTable`] and referenced by compact
//! [`FrameId`]s, so contexts can be compared and hashed in O(depth) word
//! operations and the human-readable strings ("OPENSSL/ssl/t1_lib.c:2588")
//! are stored exactly once — the same reason CSOD captures the full
//! `backtrace` only the first time a context key is seen.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;

/// Compact identifier of an interned frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(u32);

impl FrameId {
    /// The raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame{}", self.0)
    }
}

/// Thread-safe interner mapping frame location strings to [`FrameId`]s.
///
/// # Examples
///
/// ```
/// use csod_ctx::FrameTable;
///
/// let frames = FrameTable::new();
/// let a = frames.intern("mysql/sql/item.cc:512");
/// let b = frames.intern("mysql/sql/item.cc:512");
/// assert_eq!(a, b);
/// assert_eq!(frames.resolve(a), "mysql/sql/item.cc:512");
/// ```
#[derive(Debug, Default)]
pub struct FrameTable {
    inner: RwLock<FrameTableInner>,
}

#[derive(Debug, Default)]
struct FrameTableInner {
    by_name: HashMap<String, FrameId>,
    names: Vec<String>,
}

impl FrameTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FrameTable::default()
    }

    /// Interns `location`, returning its stable id.
    pub fn intern(&self, location: &str) -> FrameId {
        if let Some(&id) = self.inner.read().by_name.get(location) {
            return id;
        }
        let mut inner = self.inner.write();
        // Re-check: another thread may have interned between the locks.
        if let Some(&id) = inner.by_name.get(location) {
            return id;
        }
        let id = FrameId(u32::try_from(inner.names.len()).expect("frame table overflow"));
        inner.names.push(location.to_owned());
        inner.by_name.insert(location.to_owned(), id);
        id
    }

    /// Returns the location string of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    pub fn resolve(&self, id: FrameId) -> String {
        self.inner.read().names[id.0 as usize].clone()
    }

    /// Looks up an already-interned location.
    pub fn find(&self, location: &str) -> Option<FrameId> {
        self.inner.read().by_name.get(location).copied()
    }

    /// Number of interned frames.
    pub fn len(&self) -> usize {
        self.inner.read().names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let t = FrameTable::new();
        let a = t.intern("a.c:1");
        let b = t.intern("b.c:2");
        assert_ne!(a, b);
        assert_eq!(t.intern("a.c:1"), a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let t = FrameTable::new();
        let id = t.intern("lib/ssl/t1_lib.c:2588");
        assert_eq!(t.resolve(id), "lib/ssl/t1_lib.c:2588");
        assert_eq!(t.find("lib/ssl/t1_lib.c:2588"), Some(id));
        assert_eq!(t.find("missing"), None);
    }

    #[test]
    fn empty_checks() {
        let t = FrameTable::new();
        assert!(t.is_empty());
        t.intern("x");
        assert!(!t.is_empty());
    }

    #[test]
    fn concurrent_interning_agrees() {
        let t = FrameTable::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        (0..100)
                            .map(|i| t.intern(&format!("f{i}")))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let results: Vec<Vec<FrameId>> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            for r in &results[1..] {
                assert_eq!(r, &results[0]);
            }
        });
        assert_eq!(t.len(), 100);
    }
}

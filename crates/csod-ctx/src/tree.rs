//! A compressed calling-context tree (CCT).
//!
//! Applications like MySQL have hundreds of distinct allocation contexts
//! whose backtraces share long suffixes (everything bottoms out in
//! `main`). Storing each context as its own frame vector duplicates
//! those suffixes; the classic fix from context-sensitive profiling is a
//! *calling-context tree*: each node holds one frame and a parent
//! pointer, so a context is a single node id and shared suffixes are
//! stored once.
//!
//! [`ContextTree`] interns [`CallingContext`]s into [`CtxNodeId`]s and
//! materializes them back. The CSOD sampling table stores node ids, so
//! per-context memory stays O(depth of the *unique* part) instead of
//! O(total frames).
//!
//! Contexts are rooted at their *outermost* frame (`main`), which is the
//! shared end; interning walks outer→inner.

use crate::context::CallingContext;
use crate::frame::FrameId;
use crate::key::mix64;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of one node (= one full calling context) in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtxNodeId(u32);

impl fmt::Display for CtxNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

#[derive(Debug)]
struct Node {
    frame: FrameId,
    parent: Option<CtxNodeId>,
    depth: u32,
}

/// Hashes the packed `(parent, frame)` edge key with one [`mix64`]
/// round instead of SipHash: interning hashes every frame of every new
/// context.
#[derive(Debug, Default)]
struct EdgeHasher(u64);

impl Hasher for EdgeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = mix64(self.0 ^ value);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The root's parent in an edge key; no node gets this id.
const NO_PARENT: u32 = u32::MAX;

/// The edge key of `frame` under `parent`: parent id in the high half.
fn edge(parent: Option<CtxNodeId>, frame: FrameId) -> u64 {
    let parent = parent.map_or(NO_PARENT, |p| p.0);
    (u64::from(parent) << 32) | u64::from(frame.as_u32())
}

/// A calling-context tree. Its owner (the runtime's sampler) reaches it
/// through `&mut` to intern, so it holds no lock.
///
/// # Examples
///
/// ```
/// use csod_ctx::{CallingContext, ContextTree, FrameTable};
///
/// let frames = FrameTable::new();
/// let mut tree = ContextTree::new();
/// let a = CallingContext::from_locations(&frames, ["leaf_a.c:1", "mid.c:2", "main.c:3"]);
/// let b = CallingContext::from_locations(&frames, ["leaf_b.c:9", "mid.c:2", "main.c:3"]);
///
/// let na = tree.intern(&a);
/// let nb = tree.intern(&b);
/// assert_ne!(na, nb);
/// // The shared "mid.c:2 <- main.c:3" suffix is stored once:
/// assert_eq!(tree.node_count(), 4);
/// assert_eq!(tree.materialize(na), a);
/// assert_eq!(tree.intern(&a), na, "interning is idempotent");
/// ```
#[derive(Debug, Default)]
pub struct ContextTree {
    nodes: Vec<Node>,
    /// [`edge`]`(parent, frame)` -> child, the path-compression map.
    children: HashMap<u64, CtxNodeId, BuildHasherDefault<EdgeHasher>>,
}

impl ContextTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        ContextTree::default()
    }

    /// Interns `context`, returning the node standing for its innermost
    /// frame. Idempotent: equal contexts yield equal ids.
    ///
    /// # Panics
    ///
    /// Panics if `context` is empty — an empty backtrace has no identity.
    pub fn intern(&mut self, context: &CallingContext) -> CtxNodeId {
        assert!(!context.is_empty(), "cannot intern an empty context");
        let mut parent: Option<CtxNodeId> = None;
        // Walk outermost (main) -> innermost (allocation statement).
        for frame in context.iter().rev() {
            let key = edge(parent, frame);
            let id = match self.children.get(&key) {
                Some(&id) => id,
                None => {
                    let id = u32::try_from(self.nodes.len())
                        .ok()
                        .filter(|&id| id != NO_PARENT)
                        .expect("tree overflow");
                    let id = CtxNodeId(id);
                    let depth = parent.map_or(1, |p| self.nodes[p.0 as usize].depth + 1);
                    self.nodes.push(Node {
                        frame,
                        parent,
                        depth,
                    });
                    self.children.insert(key, id);
                    id
                }
            };
            parent = Some(id);
        }
        parent.expect("non-empty context produced a node")
    }

    /// Rebuilds the full context behind `id` (innermost first).
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this tree.
    pub fn materialize(&self, id: CtxNodeId) -> CallingContext {
        let mut frames = Vec::with_capacity(self.nodes[id.0 as usize].depth as usize);
        let mut cursor = Some(id);
        while let Some(node_id) = cursor {
            let node = &self.nodes[node_id.0 as usize];
            frames.push(node.frame);
            cursor = node.parent;
        }
        CallingContext::new(frames)
    }

    /// Total nodes stored — the compression metric: equals the number of
    /// *distinct* (frame, suffix) pairs rather than the sum of depths.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameTable;

    fn ctx(frames: &FrameTable, locs: &[&str]) -> CallingContext {
        CallingContext::from_locations(frames, locs.iter().copied())
    }

    #[test]
    fn round_trips_and_idempotence() {
        let frames = FrameTable::new();
        let mut tree = ContextTree::new();
        let a = ctx(&frames, &["a.c:1", "b.c:2", "main.c:3"]);
        let id = tree.intern(&a);
        assert_eq!(tree.materialize(id), a);
        assert_eq!(tree.intern(&a), id);
        assert_eq!(tree.nodes[id.0 as usize].depth, 3);
        assert_eq!(tree.nodes[id.0 as usize].frame, a.first_level().unwrap());
    }

    #[test]
    fn suffix_sharing_compresses() {
        let frames = FrameTable::new();
        let mut tree = ContextTree::new();
        // 100 contexts, each "leaf_i -> dispatch -> main": 102 nodes,
        // not 300.
        for i in 0..100 {
            let c = ctx(
                &frames,
                &[&format!("leaf_{i}.c:1"), "dispatch.c:2", "main.c:3"],
            );
            tree.intern(&c);
        }
        assert_eq!(tree.node_count(), 102);
    }

    #[test]
    fn same_frame_in_different_positions_is_distinct() {
        let frames = FrameTable::new();
        let mut tree = ContextTree::new();
        let a = ctx(&frames, &["f.c:1", "main.c:2"]);
        let b = ctx(&frames, &["main.c:2", "f.c:1"]); // inverted
        let na = tree.intern(&a);
        let nb = tree.intern(&b);
        assert_ne!(na, nb);
        assert_eq!(tree.materialize(na), a);
        assert_eq!(tree.materialize(nb), b);
    }

    #[test]
    fn single_frame_contexts() {
        let frames = FrameTable::new();
        let mut tree = ContextTree::new();
        let a = ctx(&frames, &["only.c:1"]);
        let id = tree.intern(&a);
        assert_eq!(tree.nodes[id.0 as usize].depth, 1);
        assert_eq!(tree.materialize(id), a);
    }

    #[test]
    #[should_panic(expected = "empty context")]
    fn empty_context_rejected() {
        ContextTree::new().intern(&CallingContext::default());
    }

    #[test]
    fn prefix_contexts_get_distinct_ids() {
        let frames = FrameTable::new();
        let mut tree = ContextTree::new();
        // One context is a suffix-truncation of the other.
        let deep = ctx(&frames, &["x.c:1", "y.c:2", "main.c:3"]);
        let shallow = ctx(&frames, &["y.c:2", "main.c:3"]);
        let nd = tree.intern(&deep);
        let ns = tree.intern(&shallow);
        assert_ne!(nd, ns);
        assert_eq!(tree.materialize(ns), shallow);
        // The deep one reuses the shallow path: 3 nodes total.
        assert_eq!(tree.node_count(), 3);
    }

    #[test]
    fn repeated_interning_agrees() {
        let frames = FrameTable::new();
        let mut tree = ContextTree::new();
        let contexts: Vec<CallingContext> = (0..50)
            .map(|i| ctx(&frames, &[&format!("l{i}.c:1"), "m.c:2", "main.c:3"]))
            .collect();
        let results: Vec<Vec<CtxNodeId>> = (0..4)
            .map(|_| contexts.iter().map(|c| tree.intern(c)).collect())
            .collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        assert_eq!(tree.node_count(), 52);
    }
}

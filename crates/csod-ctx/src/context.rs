//! Full calling contexts.

use crate::frame::{FrameId, FrameTable};
use std::fmt;

/// A full calling context: the chain of frames from the statement that
/// performed the operation (innermost, index 0) out to `main`.
///
/// This is what CSOD's bug reports print (paper Figure 6), and what the
/// expensive `backtrace` call captures the first time an allocation
/// context key is seen.
///
/// # Examples
///
/// ```
/// use csod_ctx::{CallingContext, FrameTable};
///
/// let frames = FrameTable::new();
/// let ctx = CallingContext::from_locations(
///     &frames,
///     ["OPENSSL/crypto/mem.c:312", "NGINX/http/ngx_http_request.c:577"],
/// );
/// assert_eq!(ctx.depth(), 2);
/// assert!(ctx.render(&frames).contains("mem.c:312"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct CallingContext {
    frames: Vec<FrameId>,
}

impl CallingContext {
    /// Builds a context from innermost-first frame ids.
    pub fn new(frames: Vec<FrameId>) -> Self {
        CallingContext { frames }
    }

    /// Interns `locations` (innermost first) and builds a context.
    pub fn from_locations<'a>(
        table: &FrameTable,
        locations: impl IntoIterator<Item = &'a str>,
    ) -> Self {
        CallingContext {
            frames: locations.into_iter().map(|l| table.intern(l)).collect(),
        }
    }

    /// The innermost frame — for allocation contexts, the statement that
    /// invoked `malloc` (CSOD's "first level calling context").
    pub fn first_level(&self) -> Option<FrameId> {
        self.frames.first().copied()
    }

    /// Number of frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Whether the context has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Iterates frames innermost first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = FrameId> + '_ {
        self.frames.iter().copied()
    }

    /// The canonical one-line signature of the context: frame locations
    /// joined by `|`, innermost first. This is the identity the
    /// mitigation ledger and the durability WAL key records by, so it
    /// lives here with the context type.
    pub fn signature(&self, table: &FrameTable) -> String {
        let mut out = String::new();
        for (i, frame) in self.frames.iter().enumerate() {
            if i > 0 {
                out.push('|');
            }
            out.push_str(&table.resolve(*frame));
        }
        out
    }

    /// Renders the context one frame per line, innermost first — the
    /// format of the paper's Figure 6 bug report.
    pub fn render(&self, table: &FrameTable) -> String {
        let mut out = String::new();
        for frame in &self.frames {
            out.push_str(&table.resolve(*frame));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for CallingContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ctx[")?;
        for (i, fr) in self.frames.iter().enumerate() {
            if i > 0 {
                f.write_str(" <- ")?;
            }
            write!(f, "{fr}")?;
        }
        f.write_str("]")
    }
}

impl FromIterator<FrameId> for CallingContext {
    fn from_iter<I: IntoIterator<Item = FrameId>>(iter: I) -> Self {
        CallingContext {
            frames: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_level_is_innermost() {
        let t = FrameTable::new();
        let ctx = CallingContext::from_locations(&t, ["inner.c:1", "mid.c:2", "main.c:3"]);
        assert_eq!(ctx.first_level(), Some(t.find("inner.c:1").unwrap()));
        assert_eq!(ctx.depth(), 3);
    }

    #[test]
    fn empty_context() {
        let ctx = CallingContext::default();
        assert!(ctx.is_empty());
        assert_eq!(ctx.first_level(), None);
        assert_eq!(ctx.to_string(), "ctx[]");
    }

    #[test]
    fn render_is_one_frame_per_line() {
        let t = FrameTable::new();
        let ctx = CallingContext::from_locations(&t, ["a.c:1", "b.c:2"]);
        assert_eq!(ctx.render(&t), "a.c:1\nb.c:2\n");
    }

    #[test]
    fn signature_joins_frames_innermost_first() {
        let t = FrameTable::new();
        let ctx = CallingContext::from_locations(&t, ["a.c:1", "b.c:2"]);
        assert_eq!(ctx.signature(&t), "a.c:1|b.c:2");
        assert_eq!(CallingContext::default().signature(&t), "");
    }

    #[test]
    fn equality_is_structural() {
        let t = FrameTable::new();
        let a = CallingContext::from_locations(&t, ["x.c:1", "y.c:2"]);
        let b = CallingContext::from_locations(&t, ["x.c:1", "y.c:2"]);
        let c = CallingContext::from_locations(&t, ["y.c:2", "x.c:1"]);
        assert_eq!(a, b);
        assert_ne!(a, c, "frame order matters");
    }

    #[test]
    fn collects_from_iterator() {
        let t = FrameTable::new();
        let ids: Vec<FrameId> = ["p.c:9", "q.c:8"].iter().map(|l| t.intern(l)).collect();
        let ctx: CallingContext = ids.iter().copied().collect();
        assert_eq!(ctx.iter().collect::<Vec<_>>(), ids);
    }
}

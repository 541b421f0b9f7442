//! Causal trace context, plus the retired wire tap's shim.
//!
//! The runtime threads a [`TraceContext`] — the id of the causal span tree
//! it is currently executing plus the span that issued the wire operation —
//! into the transport before every fetch/put/remove/flush. Transports with
//! envelopes stamp it into them (covered by the checksum), and the sharded
//! tier keys every [`crate::ServerSpan`] by it, so a span tree can be
//! joined against the server-side work it caused.
//!
//! No transport records wire messages: a traced wire operation is a
//! `wire`, `flush` or `retry` leaf of its span tree, and on the sharded
//! tier also a server span under the same context. [`WireTap`] remains
//! only so code written against [`crate::Transport::wire_tap`] compiles.

/// Causal identity of one wire operation: which span tree (`trace`) and
/// which span within it (`span`) issued it. `NONE` (all zeros) means the
/// operation ran outside any traced operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// Id of the span tree (0 = untraced).
    pub trace: u64,
    /// Index of the issuing span within its tree.
    pub span: u32,
}

impl TraceContext {
    /// The untraced context (trace id 0).
    pub const NONE: TraceContext = TraceContext { trace: 0, span: 0 };

    /// Whether this context identifies a real span tree.
    pub fn is_traced(&self) -> bool {
        self.trace != 0
    }
}

/// The retired wire tap. It has no values, so no transport can return
/// one and [`crate::Transport::wire_tap`] is always `None`; it exists only
/// so that wrappers forwarding that method keep compiling.
#[derive(Debug)]
pub enum WireTap {}

impl WireTap {
    /// The records of a tap, which cannot exist.
    pub fn records(&self) -> std::iter::Empty<()> {
        match *self {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_identity() {
        assert!(!TraceContext::NONE.is_traced());
        assert!(TraceContext { trace: 3, span: 0 }.is_traced());
    }
}

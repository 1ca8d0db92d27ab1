//! Protocol-layer errors.

use saq_netsim::NetsimError;
use std::fmt;

/// Errors from distributed protocol execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The underlying simulator failed (budget, bad link, decode...).
    Netsim(NetsimError),
    /// A wave completed the simulation but the root never produced a
    /// result (typically: loss without reliability enabled).
    NoResult,
    /// A tree was requested for a root outside the topology.
    InvalidRoot {
        /// The offending root id.
        root: usize,
        /// Node count of the topology.
        len: usize,
    },
    /// Mismatched shapes (items vector vs topology size, tree vs topology).
    ShapeMismatch(&'static str),
    /// A requested execution mode is not supported by this runner (for
    /// example lossy links without per-hop ARQ on the flat runner).
    Unsupported(&'static str),
    /// The protocol panicked on a worker thread of a parallel runner.
    /// The wave is lost, the runner is not: the panic was contained at
    /// the join and the next wave starts from a clean slate.
    WorkerPanicked(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Netsim(e) => write!(f, "simulator error: {e}"),
            ProtocolError::NoResult => write!(f, "wave quiesced without a root result"),
            ProtocolError::InvalidRoot { root, len } => {
                write!(f, "root {root} out of range for {len} nodes")
            }
            ProtocolError::ShapeMismatch(what) => write!(f, "shape mismatch: {what}"),
            ProtocolError::Unsupported(what) => write!(f, "unsupported configuration: {what}"),
            ProtocolError::WorkerPanicked(msg) => write!(f, "wave worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Netsim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetsimError> for ProtocolError {
    fn from(e: NetsimError) -> Self {
        ProtocolError::Netsim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ProtocolError::from(NetsimError::EmptyTopology);
        assert!(e.to_string().contains("topology"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&ProtocolError::NoResult).is_none());
    }
}

//! Error type for the ECPipe runtime.

use std::fmt;

use ecc::stripe::BlockId;

/// Errors returned by the ECPipe coordinator, block stores and executors.
#[derive(Debug)]
#[non_exhaustive]
pub enum EcPipeError {
    /// A block was not found in the store it was expected to live in.
    BlockNotFound {
        /// The missing block.
        block: BlockId,
    },
    /// A stored block failed checksum verification: the bytes on the node no
    /// longer match the checksums recorded when the block was written
    /// (silent bit-rot, a torn write, or an injected corruption).
    CorruptBlock {
        /// The corrupt block.
        block: BlockId,
        /// Index of the first checksum chunk that failed verification.
        chunk: usize,
    },
    /// The coordinator has no metadata for the requested stripe.
    UnknownStripe {
        /// The stripe id that was requested.
        stripe: u64,
    },
    /// The repair cannot be planned (e.g. too many failures).
    Planning(ecc::CodeError),
    /// An I/O error from a block store or the metadata journal.
    Io(std::io::Error),
    /// An internal fault: a plan without helpers, a stalled walk, a
    /// panicked repair or a metadata-plane failure.
    Execution {
        /// Human-readable explanation.
        reason: String,
    },
    /// A repair's walk failed on the hop `src → dst`.
    LinkFailed {
        /// The hop's sending node.
        src: simnet::NodeId,
        /// The hop's receiving node.
        dst: simnet::NodeId,
        /// What went wrong on it.
        cause: LinkFailure,
    },
    /// The request itself was invalid (e.g. requestor is a helper).
    InvalidRequest {
        /// Human-readable explanation.
        reason: String,
    },
    /// The repair manager is shut down (or shutting down) and no longer
    /// accepts work.
    ManagerShutdown,
}

impl fmt::Display for EcPipeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcPipeError::BlockNotFound { block } => write!(f, "block {block} not found"),
            EcPipeError::CorruptBlock { block, chunk } => {
                write!(
                    f,
                    "block {block} failed checksum verification at chunk {chunk}"
                )
            }
            EcPipeError::UnknownStripe { stripe } => write!(f, "unknown stripe {stripe}"),
            EcPipeError::Planning(e) => write!(f, "repair planning failed: {e}"),
            EcPipeError::Io(e) => write!(f, "block store I/O error: {e}"),
            EcPipeError::Execution { reason } => write!(f, "repair execution failed: {reason}"),
            EcPipeError::LinkFailed { src, dst, cause } => {
                write!(f, "link {src} → {dst} failed: {cause}")
            }
            EcPipeError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            EcPipeError::ManagerShutdown => {
                write!(f, "the repair manager is shut down and accepts no new work")
            }
        }
    }
}

impl std::error::Error for EcPipeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EcPipeError::Planning(e) => Some(e),
            EcPipeError::Io(e) => Some(e),
            EcPipeError::LinkFailed {
                cause: LinkFailure::Io(e),
                ..
            } => Some(e),
            _ => None,
        }
    }
}

impl From<ecc::CodeError> for EcPipeError {
    fn from(e: ecc::CodeError) -> Self {
        EcPipeError::Planning(e)
    }
}

impl From<std::io::Error> for EcPipeError {
    fn from(e: std::io::Error) -> Self {
        EcPipeError::Io(e)
    }
}

impl From<ecpipe_meta::MetaError> for EcPipeError {
    fn from(e: ecpipe_meta::MetaError) -> Self {
        use ecpipe_meta::MetaError;
        match e {
            MetaError::UnknownStripe { stripe } => EcPipeError::UnknownStripe { stripe },
            MetaError::InvalidRequest { reason } => EcPipeError::InvalidRequest { reason },
            MetaError::Io(e) => EcPipeError::Io(e),
            other => EcPipeError::Execution {
                reason: format!("metadata plane failure: {other}"),
            },
        }
    }
}

/// The message a panic was raised with, for an error that reports it.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string payload")
}

/// Why a hop of a repair failed ([`EcPipeError::LinkFailed`]).
#[derive(Debug)]
#[non_exhaustive]
pub enum LinkFailure {
    /// Below half its nominal bandwidth, by the link watch
    /// ([`ManagerConfig::link_watch`](crate::ManagerConfig::link_watch)).
    Degraded,
    /// A send found the receiver gone, or the stream ended early.
    PeerGone,
    /// A frame carried a slice index or length the plan did not expect.
    Malformed,
    /// A socket error.
    Io(std::io::Error),
}

impl fmt::Display for LinkFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkFailure::Degraded => write!(f, "degraded below half its nominal bandwidth"),
            LinkFailure::PeerGone => write!(f, "the peer end is gone"),
            LinkFailure::Malformed => write!(f, "a frame the plan did not expect"),
            LinkFailure::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl From<crate::transport::TransportError> for LinkFailure {
    fn from(e: crate::transport::TransportError) -> Self {
        use crate::transport::TransportError;
        match e {
            TransportError::Disconnected => LinkFailure::PeerGone,
            TransportError::Io(e) => LinkFailure::Io(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn source_chains_to_the_underlying_error() {
        let planning: EcPipeError = ecc::CodeError::NotEnoughBlocks {
            needed: 4,
            available: 3,
        }
        .into();
        assert!(planning.source().is_some());
        assert!(planning.source().unwrap().to_string().contains('3'));

        let io: EcPipeError = std::io::Error::other("disk gone").into();
        assert_eq!(io.source().unwrap().to_string(), "disk gone");

        // A socket error names its hop, not a block store.
        let link = EcPipeError::LinkFailed {
            src: 2,
            dst: 5,
            cause: LinkFailure::Io(std::io::Error::other("reset")),
        };
        assert_eq!(link.source().unwrap().to_string(), "reset");
        assert!(link.to_string().contains("2 → 5"), "{link}");
        assert!(!link.to_string().contains("block store"), "{link}");

        // Leaf errors carry no source.
        let leaf = EcPipeError::UnknownStripe { stripe: 9 };
        assert!(leaf.source().is_none());
        assert!(leaf.to_string().contains('9'));
    }
}

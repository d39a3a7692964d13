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
    /// An I/O error from a file-backed block store.
    Io(std::io::Error),
    /// A worker thread failed or a channel was closed unexpectedly.
    Execution {
        /// Human-readable explanation.
        reason: String,
    },
    /// A watched repair abandoned its walk: the hop `src → dst` streamed
    /// below half its nominal bandwidth
    /// ([`ManagerConfig::link_watch`](crate::ManagerConfig::link_watch)).
    LinkDegraded {
        /// The hop's sending node.
        src: simnet::NodeId,
        /// The hop's receiving node.
        dst: simnet::NodeId,
    },
    /// The request itself was invalid (e.g. requestor is a helper).
    InvalidRequest {
        /// Human-readable explanation.
        reason: String,
    },
    /// The repair manager is shut down (or shutting down) and no longer
    /// accepts work.
    ManagerShutdown,
    /// A repair directive outlived its placement: the block it planned to
    /// reconstruct was relocated (its stripe's epoch moved past the one the
    /// directive was planned at), so completing it would double-heal.
    StaleRepair {
        /// The stripe the directive targeted.
        stripe: u64,
        /// The block index the directive targeted.
        index: usize,
        /// The placement epoch the directive was planned at.
        planned: u64,
        /// The stripe's current placement epoch.
        current: u64,
    },
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
            EcPipeError::LinkDegraded { src, dst } => {
                write!(f, "link {src} → {dst} degraded below its nominal bandwidth")
            }
            EcPipeError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            EcPipeError::ManagerShutdown => {
                write!(f, "the repair manager is shut down and accepts no new work")
            }
            EcPipeError::StaleRepair {
                stripe,
                index,
                planned,
                current,
            } => write!(
                f,
                "stale repair for block {index} of stripe {stripe}: planned at \
                 placement epoch {planned}, the stripe is now at epoch {current}"
            ),
        }
    }
}

impl std::error::Error for EcPipeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EcPipeError::Planning(e) => Some(e),
            EcPipeError::Io(e) => Some(e),
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
            MetaError::StaleEpoch {
                stripe,
                index,
                expected,
                actual,
            } => EcPipeError::StaleRepair {
                stripe,
                index,
                planned: expected,
                current: actual,
            },
            MetaError::InvalidRequest { reason } => EcPipeError::InvalidRequest { reason },
            MetaError::Io(e) => EcPipeError::Io(e),
            other => EcPipeError::Execution {
                reason: format!("metadata plane failure: {other}"),
            },
        }
    }
}

impl From<crate::transport::TransportError> for EcPipeError {
    fn from(e: crate::transport::TransportError) -> Self {
        use crate::transport::TransportError;
        match e {
            // A vanished peer means a helper or requestor died mid-repair;
            // the repair must fail loudly rather than silently truncate.
            TransportError::Disconnected => EcPipeError::Execution {
                reason: "peer end of a transport link is gone".to_string(),
            },
            TransportError::Io(e) => EcPipeError::Io(e),
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

        // Leaf errors carry no source.
        let leaf = EcPipeError::UnknownStripe { stripe: 9 };
        assert!(leaf.source().is_none());
        assert!(leaf.to_string().contains('9'));
    }
}

//! The top-level `mlcx` error hierarchy.
//!
//! Every fallible host-facing operation across the workspace funnels into
//! [`MlcxError`]: service-directory violations ([`ServiceError`]),
//! controller datapath failures ([`CtrlError`]), FTL failures and the
//! engine/builder-specific conditions introduced by the command-queue
//! API. Device and codec errors are not variants of their own: every
//! route that reaches the device or the codec goes through the
//! controller, so they arrive as `Ctrl(CtrlError::Nand(..))` or
//! `Ctrl(CtrlError::Ecc(..))`. One `std::error::Error` impl, one
//! `source()` chain, one type to match on at the application boundary.

use std::error::Error;
use std::fmt;

use mlcx_controller::CtrlError;
use mlcx_controller::FtlError;

use crate::services::ServiceError;

/// The unified error type of the `mlcx` storage stack.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MlcxError {
    /// Service-directory violation (overlap, region bounds).
    Service(ServiceError),
    /// Memory-controller datapath or configuration failure.
    Ctrl(CtrlError),
    /// A command referenced a service handle the engine never issued.
    UnknownHandle {
        /// The raw handle index.
        handle: u32,
    },
    /// A write command carried a payload that does not match the page
    /// size (caught at submission, before anything is enqueued).
    PageSize {
        /// Expected byte length (one page).
        expected: usize,
        /// Provided byte length.
        actual: usize,
    },
    /// A builder was asked to produce an inconsistent configuration.
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// Flash-translation-layer failure (address range, reclaimable
    /// space) from the workload simulator's logical datapath.
    Ftl(FtlError),
    /// A submission would push a service's queue past its configured
    /// depth — the backpressure signal of the bounded
    /// submission-queue API (caught atomically: nothing from the
    /// batch is enqueued). Hosts should drain completions and resubmit.
    QueueFull {
        /// The service whose queue is at capacity.
        service: String,
        /// The configured queue depth.
        depth: usize,
    },
    /// An internal invariant failed (a scheduler or workload-runner
    /// bookkeeping mismatch). Formerly a `panic!`/`expect` on the
    /// datapath; surfaced as a typed error so hosts can fail one run
    /// instead of the whole process.
    Internal {
        /// What broke, for the log.
        reason: String,
    },
}

impl fmt::Display for MlcxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlcxError::Service(e) => write!(f, "service: {e}"),
            MlcxError::Ctrl(e) => write!(f, "controller: {e}"),
            MlcxError::UnknownHandle { handle } => {
                write!(
                    f,
                    "service handle #{handle} was never issued by this engine"
                )
            }
            MlcxError::PageSize { expected, actual } => {
                write!(f, "write payload is {actual} bytes, expected {expected}")
            }
            MlcxError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            MlcxError::Ftl(e) => write!(f, "ftl: {e}"),
            MlcxError::QueueFull { service, depth } => {
                write!(
                    f,
                    "submission queue of service {service} is at its depth limit {depth}"
                )
            }
            MlcxError::Internal { reason } => {
                write!(f, "internal invariant violated: {reason}")
            }
        }
    }
}

impl Error for MlcxError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MlcxError::Service(e) => Some(e),
            MlcxError::Ctrl(e) => Some(e),
            MlcxError::Ftl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServiceError> for MlcxError {
    fn from(e: ServiceError) -> Self {
        MlcxError::Service(e)
    }
}

impl From<CtrlError> for MlcxError {
    fn from(e: CtrlError) -> Self {
        MlcxError::Ctrl(e)
    }
}

impl From<FtlError> for MlcxError {
    fn from(e: FtlError) -> Self {
        MlcxError::Ftl(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_chain() {
        let inner = CtrlError::BufferSize {
            expected: 4096,
            actual: 17,
        };
        let e = MlcxError::from(inner.clone());
        assert!(e.to_string().contains("4096"));
        let source = e.source().expect("wrapped error must be the source");
        assert_eq!(source.to_string(), inner.to_string());

        let handle = MlcxError::UnknownHandle { handle: 9 };
        assert!(handle.source().is_none());
        assert!(handle.to_string().contains("#9"));
    }
}

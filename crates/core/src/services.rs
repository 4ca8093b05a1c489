//! Differentiated storage services — the service-directory vocabulary.
//!
//! The conclusions promise to "implement the memory controller taking
//! advantage of the new trade-offs, thus exposing differentiated storage
//! services to applications". The realization of that promise is
//! [`StorageEngine`](crate::engine::StorageEngine); this module owns the
//! service-directory vocabulary it builds on: [`ServiceRegion`] (a named
//! block range bound to a cross-layer objective), [`ServiceStats`]
//! (per-service traffic counters) and [`ServiceError`] (directory
//! violations).
//!
//! The original synchronous per-page facade (`ServicedStore`) has been
//! retired: drive the engine's typed submission/completion queues
//! ([`StorageEngine::sq`](crate::engine::StorageEngine::sq) /
//! [`StorageEngine::cq`](crate::engine::StorageEngine::cq)) — a one-off
//! per-page call is a one-command submit followed by a drain. The
//! migration table in `EXPERIMENTS.md` maps each retired call to its
//! replacement.

use std::ops::Range;

use crate::policy::Objective;

/// A named region of the device bound to a service objective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRegion {
    /// Human-readable service name ("os-image", "media", ...).
    pub name: String,
    /// The cross-layer objective governing the region.
    pub objective: Objective,
    /// The block range the region owns.
    pub blocks: Range<usize>,
}

/// Errors raised by the service directory.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// Two regions claim the same block.
    Overlap {
        /// The existing region.
        existing: String,
        /// The new region that collides with it.
        incoming: String,
    },
    /// A page address fell outside the region.
    OutOfRegion {
        /// The service name.
        name: String,
        /// The offending block.
        block: usize,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overlap { existing, incoming } => {
                write!(f, "region {incoming} overlaps existing region {existing}")
            }
            ServiceError::OutOfRegion { name, block } => {
                write!(f, "block {block} outside region {name}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Per-service traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Pages written through the service.
    pub pages_written: u64,
    /// Pages read through the service.
    pub pages_read: u64,
    /// Raw bit errors the ECC corrected for this service.
    pub corrected_bits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offending_region() {
        let e = ServiceError::Overlap {
            existing: "a".into(),
            incoming: "b".into(),
        };
        assert_eq!(e.to_string(), "region b overlaps existing region a");
        let e = ServiceError::OutOfRegion {
            name: "media".into(),
            block: 9,
        };
        assert_eq!(e.to_string(), "block 9 outside region media");
    }
}

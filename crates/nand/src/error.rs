//! Error type for NAND device operations.

use std::error::Error;
use std::fmt;

use crate::ispp::ProgramAlgorithm;

/// Errors raised by [`crate::NandDevice`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NandError {
    /// Block index beyond the device geometry.
    BlockOutOfRange {
        /// Requested block.
        block: usize,
        /// Number of blocks in the device.
        blocks: usize,
    },
    /// Page index beyond the block geometry.
    PageOutOfRange {
        /// Requested page.
        page: usize,
        /// Pages per block.
        pages_per_block: usize,
    },
    /// Die index beyond the channel/die topology.
    DieOutOfRange {
        /// Requested die.
        die: usize,
        /// Total dies in the topology.
        dies: usize,
    },
    /// Programming a page that has not been erased since its last program
    /// (NAND forbids overwrite; the FTL must erase first).
    PageNotErased {
        /// Offending block.
        block: usize,
        /// Offending page.
        page: usize,
    },
    /// Programming a page before the pages below it in the block — MLC
    /// parts mandate strictly ascending page order within a block (the
    /// shared-wordline programming sequence two-step vulnerabilities
    /// exploit; see Cai et al., arXiv:1805.03291).
    PageOutOfOrder {
        /// Offending block.
        block: usize,
        /// The page that was requested.
        page: usize,
        /// The lowest still-blank page the block expects next.
        expected: usize,
    },
    /// Reading a page that was never programmed.
    PageNotProgrammed {
        /// Offending block.
        block: usize,
        /// Offending page.
        page: usize,
    },
    /// Data or spare buffer does not match the geometry.
    BufferSize {
        /// Which buffer ("data" or "spare").
        what: &'static str,
        /// Expected byte length.
        expected: usize,
        /// Provided byte length.
        actual: usize,
    },
    /// The requested program algorithm is not present in the code store.
    AlgorithmUnavailable {
        /// The algorithm that was requested.
        algorithm: ProgramAlgorithm,
    },
    /// The device clock was asked to move by a negative or non-finite
    /// number of hours; it moves forward only, by a finite step.
    ClockStep,
}

impl fmt::Display for NandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NandError::BlockOutOfRange { block, blocks } => {
                write!(f, "block {block} out of range (device has {blocks})")
            }
            NandError::PageOutOfRange {
                page,
                pages_per_block,
            } => write!(f, "page {page} out of range (block has {pages_per_block})"),
            NandError::DieOutOfRange { die, dies } => {
                write!(f, "die {die} out of range (topology has {dies})")
            }
            NandError::PageNotErased { block, page } => {
                write!(
                    f,
                    "page {page} of block {block} must be erased before program"
                )
            }
            NandError::PageOutOfOrder {
                block,
                page,
                expected,
            } => {
                write!(
                    f,
                    "page {page} of block {block} programmed out of order (next in sequence is {expected})"
                )
            }
            NandError::PageNotProgrammed { block, page } => {
                write!(f, "page {page} of block {block} was never programmed")
            }
            NandError::BufferSize {
                what,
                expected,
                actual,
            } => write!(f, "{what} buffer is {actual} bytes, expected {expected}"),
            NandError::AlgorithmUnavailable { algorithm } => {
                write!(
                    f,
                    "program algorithm {algorithm} not present in the code store"
                )
            }
            NandError::ClockStep => {
                write!(f, "the device clock moves forward only, by a finite step")
            }
        }
    }
}

impl Error for NandError {}

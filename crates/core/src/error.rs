//! Error type shared by all `mre-core` operations.

use std::fmt;

/// Errors produced by hierarchy construction, decomposition, and the
/// enumeration algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A hierarchy was constructed with no levels.
    EmptyHierarchy,
    /// A hierarchy level had size zero.
    ZeroLevel {
        /// Index of the offending level.
        level: usize,
    },
    /// The product of the hierarchy levels overflowed `usize`.
    HierarchyOverflow,
    /// A rank was outside `0..hierarchy.size()`.
    RankOutOfRange {
        /// The offending rank.
        rank: usize,
        /// Total number of resources described by the hierarchy.
        size: usize,
    },
    /// A coordinate vector did not match the hierarchy depth.
    CoordinateDepthMismatch {
        /// Expected depth (hierarchy depth).
        expected: usize,
        /// Provided coordinate count.
        got: usize,
    },
    /// A coordinate exceeded its level's radix.
    CoordinateOutOfRange {
        /// Level index of the offending coordinate.
        level: usize,
        /// Offending coordinate value.
        coordinate: usize,
        /// Radix (size) of that level.
        radix: usize,
    },
    /// A permutation vector was not a bijection of `0..n`.
    InvalidPermutation {
        /// A description of why the vector is not a permutation.
        reason: &'static str,
    },
    /// A permutation's length did not match the hierarchy depth.
    PermutationDepthMismatch {
        /// Hierarchy depth.
        hierarchy: usize,
        /// Permutation length.
        permutation: usize,
    },
    /// The hierarchy is too deep to enumerate all of its `depth!` orders.
    TooManyOrders {
        /// Hierarchy depth.
        depth: usize,
        /// Deepest hierarchy whose orders are enumerated.
        max: usize,
    },
    /// A level split was requested with a factor that does not divide the
    /// level size.
    IndivisibleLevel {
        /// Level index.
        level: usize,
        /// Level size.
        size: usize,
        /// Requested factor.
        factor: usize,
    },
    /// A level index was out of range.
    LevelOutOfRange {
        /// The offending level index.
        level: usize,
        /// Hierarchy depth.
        depth: usize,
    },
    /// The subcommunicator size does not divide the world size.
    IndivisibleSubcomm {
        /// World size.
        world: usize,
        /// Requested subcommunicator size.
        subcomm: usize,
    },
    /// The requested number of cores exceeds what the hierarchy provides.
    TooManyCores {
        /// Requested core count.
        requested: usize,
        /// Available core count.
        available: usize,
    },
    /// A communication schedule contained a self-message (`src == dst`),
    /// which occupies no network link and silently distorts round costing.
    SelfMessage {
        /// Round index containing the offending message.
        round: usize,
        /// The core sending to itself.
        core: usize,
    },
    /// A communication schedule contained two messages with the same
    /// `(src, dst)` endpoints in one round; the contention solver would
    /// treat them as independent flows and mis-cost the round.
    DuplicateMessage {
        /// Round index containing the duplicate.
        round: usize,
        /// Sending core of the duplicated pair.
        src: usize,
        /// Receiving core of the duplicated pair.
        dst: usize,
    },
    /// A textual representation (hierarchy, permutation, rankfile) failed to
    /// parse.
    Parse {
        /// Human-readable description of the parse failure.
        message: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyHierarchy => write!(f, "hierarchy must have at least one level"),
            Error::ZeroLevel { level } => {
                write!(
                    f,
                    "hierarchy level {level} has size 0 (radixes must be >= 1)"
                )
            }
            Error::HierarchyOverflow => {
                write!(f, "product of hierarchy levels overflows usize")
            }
            Error::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} out of range for hierarchy of size {size}")
            }
            Error::CoordinateDepthMismatch { expected, got } => write!(
                f,
                "coordinate vector has {got} entries but hierarchy depth is {expected}"
            ),
            Error::CoordinateOutOfRange {
                level,
                coordinate,
                radix,
            } => write!(
                f,
                "coordinate {coordinate} at level {level} exceeds radix {radix}"
            ),
            Error::InvalidPermutation { reason } => {
                write!(f, "invalid permutation: {reason}")
            }
            Error::PermutationDepthMismatch {
                hierarchy,
                permutation,
            } => write!(
                f,
                "permutation of length {permutation} does not match hierarchy depth {hierarchy}"
            ),
            Error::TooManyOrders { depth, max } => write!(
                f,
                "hierarchy depth {depth} has {depth}! orders; order enumeration \
                 stops at depth {max}"
            ),
            Error::IndivisibleLevel {
                level,
                size,
                factor,
            } => write!(
                f,
                "cannot split level {level} of size {size} by factor {factor}"
            ),
            Error::LevelOutOfRange { level, depth } => {
                write!(f, "level index {level} out of range for depth {depth}")
            }
            Error::IndivisibleSubcomm { world, subcomm } => write!(
                f,
                "subcommunicator size {subcomm} does not divide world size {world}"
            ),
            Error::TooManyCores {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} cores but the hierarchy only provides {available}"
            ),
            Error::SelfMessage { round, core } => write!(
                f,
                "round {round} contains a self-message on core {core} \
                 (src == dst); drop it or use Schedule::canonicalized()"
            ),
            Error::DuplicateMessage { round, src, dst } => write!(
                f,
                "round {round} contains duplicate messages {src} -> {dst}; \
                 merge them or use Schedule::canonicalized()"
            ),
            Error::Parse { message } => write!(f, "parse error: {message}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::RankOutOfRange { rank: 20, size: 16 };
        assert!(e.to_string().contains("20"));
        assert!(e.to_string().contains("16"));

        let e = Error::IndivisibleLevel {
            level: 2,
            size: 16,
            factor: 3,
        };
        assert!(e.to_string().contains("level 2"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&Error::EmptyHierarchy);
    }
}

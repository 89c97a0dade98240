//! The workspace-wide typed error, `KpmError`.
//!
//! Every fallible user-facing path in the workspace — parameter
//! validation, matrix construction, the message-passing runtime, the
//! checkpoint store, and the numerical guardrails — returns this enum
//! instead of panicking. Internal invariants that cannot be violated by
//! user input stay `debug_assert!`s. Hand-rolled in the `thiserror`
//! style because the build runs with no registry access.

use std::fmt;

/// Convenience alias used across the workspace.
pub type KpmResult<T> = Result<T, KpmError>;

/// Typed error for every fallible operation in the KPM workspace.
#[derive(Debug, Clone, PartialEq)]
pub enum KpmError {
    /// User-supplied solver or decomposition parameters are invalid.
    InvalidParams {
        /// Which parameter or precondition was violated.
        what: &'static str,
        /// Human-readable explanation.
        details: String,
    },
    /// User-supplied matrix data is structurally invalid.
    InvalidMatrix {
        /// Which part of the matrix is invalid (e.g. `"row_ptr"`).
        what: &'static str,
        /// Human-readable explanation.
        details: String,
    },
    /// A NaN or infinity surfaced during the moment iteration.
    NonFinite {
        /// Which quantity went non-finite (e.g. `"eta_even"`).
        context: &'static str,
        /// The Chebyshev sweep index (0-based) where it happened.
        iteration: usize,
    },
    /// The Chebyshev recurrence is diverging: a moment partial grew past
    /// the bound implied by `‖H̃‖ ≤ 1`, i.e. the scale factors do not
    /// cover the spectrum. Carries the offending iteration so the run
    /// can be traced back.
    SpectralBoundsViolated {
        /// The Chebyshev sweep index (0-based) where the bound broke.
        iteration: usize,
        /// The observed partial value.
        value: f64,
        /// The bound it violated.
        bound: f64,
    },
    /// A receive deadline expired: the peer is presumed lost.
    RankUnreachable {
        /// The waiting rank.
        rank: usize,
        /// The peer that never answered.
        peer: usize,
        /// The tag of the message that was awaited.
        tag: u64,
        /// How long the receiver waited, in milliseconds.
        waited_ms: u64,
    },
    /// A rank died (simulated crash, panic, or early exit).
    RankCrashed {
        /// The rank that died.
        rank: usize,
    },
    /// A send could not be delivered because the destination's inbox is
    /// gone (the receiving rank has terminated).
    SendFailed {
        /// The sending rank.
        from: usize,
        /// The destination rank whose inbox is gone.
        to: usize,
        /// The tag of the undeliverable message.
        tag: u64,
    },
    /// The out-of-order receive stash hit its capacity: the rank is
    /// being flooded with messages it never matches (message storm).
    StashOverflow {
        /// The flooded rank.
        rank: usize,
        /// The stash capacity that was hit.
        capacity: usize,
    },
    /// After a world completed, undelivered messages remained — a
    /// protocol leak.
    MessageLeak {
        /// Number of messages left in inboxes and stashes.
        undelivered: usize,
    },
    /// A checkpoint record failed validation (bad magic, version,
    /// length, or checksum).
    CheckpointCorrupt {
        /// Which check failed, and on which record.
        details: String,
    },
    /// The checkpoint requested for resume does not exist.
    CheckpointMissing {
        /// Which checkpoint was asked for.
        details: String,
    },
    /// A resilient run gave up after the configured restart budget.
    RestartsExhausted {
        /// How many attempts were made.
        attempts: usize,
        /// The error of the final attempt, rendered to text.
        last_error: String,
    },
    /// An I/O failure in a file-backed checkpoint store.
    Io {
        /// The underlying I/O error, rendered to text.
        details: String,
    },
    /// A per-request compute deadline expired while the solve was still
    /// running. Carries the Chebyshev sweep index reached when the
    /// budget ran out, so a degraded (truncated-`M`) answer can be
    /// reasoned about.
    DeadlineExceeded {
        /// The sweep index (0-based) at which the deadline fired.
        iteration: usize,
    },
    /// The requested operation is not defined for the given mode or
    /// stage (e.g. asking the cluster performance model for the naive
    /// variant's node rate).
    Unsupported {
        /// What was asked for.
        what: &'static str,
        /// Why it is not available.
        details: String,
    },
}

impl fmt::Display for KpmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KpmError::InvalidParams { what, details } => {
                write!(f, "invalid parameter `{what}`: {details}")
            }
            KpmError::InvalidMatrix { what, details } => {
                write!(f, "invalid matrix ({what}): {details}")
            }
            KpmError::NonFinite { context, iteration } => {
                write!(f, "non-finite {context} at iteration {iteration}")
            }
            KpmError::SpectralBoundsViolated {
                iteration,
                value,
                bound,
            } => write!(
                f,
                "spectral bounds violated at iteration {iteration}: |partial| = {value:e} \
                 exceeds {bound:e}; the scale factors do not cover the spectrum"
            ),
            KpmError::RankUnreachable {
                rank,
                peer,
                tag,
                waited_ms,
            } => write!(
                f,
                "rank {rank}: peer {peer} unreachable (tag {tag}, waited {waited_ms} ms)"
            ),
            KpmError::RankCrashed { rank } => write!(f, "rank {rank} crashed"),
            KpmError::SendFailed { from, to, tag } => {
                write!(
                    f,
                    "send {from} -> {to} (tag {tag}) failed: receiver is gone"
                )
            }
            KpmError::StashOverflow { rank, capacity } => write!(
                f,
                "rank {rank}: receive stash overflow (capacity {capacity} unmatched messages)"
            ),
            KpmError::MessageLeak { undelivered } => {
                write!(
                    f,
                    "{undelivered} undelivered message(s) after world shutdown"
                )
            }
            KpmError::CheckpointCorrupt { details } => {
                write!(f, "corrupt checkpoint: {details}")
            }
            KpmError::CheckpointMissing { details } => {
                write!(f, "checkpoint missing: {details}")
            }
            KpmError::RestartsExhausted {
                attempts,
                last_error,
            } => write!(
                f,
                "gave up after {attempts} attempt(s); last error: {last_error}"
            ),
            KpmError::Io { details } => write!(f, "checkpoint I/O error: {details}"),
            KpmError::DeadlineExceeded { iteration } => {
                write!(f, "deadline exceeded at iteration {iteration}")
            }
            KpmError::Unsupported { what, details } => {
                write!(f, "unsupported {what}: {details}")
            }
        }
    }
}

impl std::error::Error for KpmError {}

impl From<std::io::Error> for KpmError {
    fn from(e: std::io::Error) -> Self {
        KpmError::Io {
            details: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_iteration_for_spectral_violations() {
        let e = KpmError::SpectralBoundsViolated {
            iteration: 17,
            value: 1.2e9,
            bound: 4.0,
        };
        let s = e.to_string();
        assert!(s.contains("iteration 17"), "{s}");
        assert!(s.contains("scale factors"), "{s}");
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: KpmError = io.into();
        assert!(matches!(e, KpmError::Io { .. }));
    }
}

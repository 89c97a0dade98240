//! The workspace-wide typed error, `KpmError`.
//!
//! Every fallible user-facing path in the workspace — parameter
//! validation, matrix construction, the checkpoint store, the service's
//! deadlines, and the numerical guardrails — returns this enum
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
    /// A run stopped at an injected crash point (the checkpointed
    /// solver's `crash_at` test hook, the service's chaos crash).
    InjectedCrash,
    /// A checkpoint record failed validation (bad magic, version,
    /// length, or checksum).
    CheckpointCorrupt {
        /// Which check failed, and on which record.
        details: String,
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
            KpmError::InjectedCrash => write!(f, "injected crash"),
            KpmError::CheckpointCorrupt { details } => {
                write!(f, "corrupt checkpoint: {details}")
            }
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

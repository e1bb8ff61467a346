//! Storage errors.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A record, segment or snapshot failed structural validation (bad
    /// magic, CRC mismatch in a non-tail position, truncated payload, an
    /// undefined dictionary id, …).  Carries the offending path and a
    /// human-readable reason.
    Corrupt {
        /// File the corruption was detected in.
        path: PathBuf,
        /// What was wrong.
        reason: String,
    },
    /// A decoded value violated the relational schema it was replayed into
    /// (should only happen when the log was produced by an incompatible
    /// schema version).
    Data(String),
    /// A fault-injection policy simulated process death mid-operation
    /// (see [`crate::io::FaultDecision::Crash`]).  The instance must be
    /// abandoned and recovery run on a fresh one; in particular the WAL
    /// skips its heal-and-retry path, leaving whatever torn bytes the
    /// "crash" left for recovery to truncate — exactly like a real power
    /// loss.
    SimulatedCrash(String),
}

impl StoreError {
    pub(crate) fn corrupt(path: impl Into<PathBuf>, reason: impl Into<String>) -> Self {
        StoreError::Corrupt {
            path: path.into(),
            reason: reason.into(),
        }
    }

    /// Whether retrying the failed operation could plausibly succeed.
    /// `Interrupted`/`WouldBlock`/`TimedOut` I/O errors are transient
    /// (injected transient faults use these kinds too); corruption,
    /// schema violations and simulated crashes are not.
    pub(crate) fn is_transient(&self) -> bool {
        match self {
            StoreError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }

    /// Whether this error is an injected process-death simulation.
    pub(crate) fn is_simulated_crash(&self) -> bool {
        matches!(self, StoreError::SimulatedCrash(_))
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Corrupt { path, reason } => {
                write!(f, "corrupt store file {}: {reason}", path.display())
            }
            StoreError::Data(msg) => write!(f, "data error: {msg}"),
            StoreError::SimulatedCrash(what) => {
                write!(f, "simulated crash during {what}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<ontodq_relational::RelationalError> for StoreError {
    fn from(e: ontodq_relational::RelationalError) -> Self {
        StoreError::Data(e.to_string())
    }
}

/// Store result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

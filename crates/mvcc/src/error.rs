//! Error type for optimistic transactions.

use cc_primitives::ts::Timestamp;
use std::fmt;

/// Error raised when an optimistic transaction cannot commit.
///
/// A conflict is always *retryable*: the transaction's buffered writes are
/// simply discarded (the shared version lists were never touched) and the
/// transaction can re-execute against a fresh snapshot. Read-only
/// transactions never produce a conflict — with nothing to install,
/// first-committer-wins validation is skipped entirely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MvccError {
    /// First-committer-wins validation failed: another transaction
    /// installed a conflicting version after this transaction's snapshot.
    Conflict {
        /// The loser's snapshot instant.
        begin_ts: Timestamp,
    },
}

impl MvccError {
    /// Whether re-executing the transaction may succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, MvccError::Conflict { .. })
    }
}

impl fmt::Display for MvccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MvccError::Conflict { begin_ts } => write!(
                f,
                "first-committer-wins validation failed for snapshot {begin_ts}"
            ),
        }
    }
}

impl std::error::Error for MvccError {}

//! Errors produced by mining and validation.

use cc_mempool::MempoolError;
use cc_stm::StmError;
use std::fmt;

/// Failure of a mining or validation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A transaction could not be committed even after exhausting its
    /// retry budget (pathological contention).
    MiningFailed {
        /// Index of the offending transaction within the block.
        tx_index: usize,
        /// The underlying speculative-execution error.
        source: StmError,
    },
    /// The block under validation was rejected. The reasons list every
    /// check that failed (state root, receipts, schedule consistency,
    /// data races, missing profiles).
    BlockRejected {
        /// Human-readable reasons, one per failed check.
        reasons: Vec<String>,
    },
    /// The block's schedule metadata is missing but the validator was
    /// asked to replay it in parallel.
    MissingSchedule,
    /// The schedule is malformed (wrong length, cyclic, or indices out of
    /// range) and cannot even be turned into a fork-join program.
    MalformedSchedule {
        /// Description of the structural problem.
        reason: String,
    },
    /// An [`crate::engine::EngineConfig`] could not be turned into an
    /// engine (zero worker threads), or a strategy name did not parse.
    InvalidConfig {
        /// Description of the rejected setting.
        reason: String,
    },
    /// A durability operation failed: the WAL could not be written, a
    /// snapshot could not be persisted, or crash recovery found the
    /// durability directory unusable. Carries the rendered cause (this
    /// error type is `Clone + Eq`; `std::io::Error` is neither).
    Durability {
        /// Description of the failed operation and its cause.
        reason: String,
    },
    /// A submission was turned away by the node's mempool (nonce already
    /// consumed, replacement or admission underpriced).
    Mempool(MempoolError),
}

impl CoreError {
    /// Convenience constructor for a single-reason rejection.
    pub fn rejected(reason: impl Into<String>) -> Self {
        CoreError::BlockRejected {
            reasons: vec![reason.into()],
        }
    }

    /// Convenience constructor for a durability failure.
    pub fn durability(reason: impl std::fmt::Display) -> Self {
        CoreError::Durability {
            reason: reason.to_string(),
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::MiningFailed { tx_index, source } => {
                write!(f, "mining failed at transaction {tx_index}: {source}")
            }
            CoreError::BlockRejected { reasons } => {
                write!(f, "block rejected: {}", reasons.join("; "))
            }
            CoreError::MissingSchedule => f.write_str("block carries no schedule metadata"),
            CoreError::MalformedSchedule { reason } => write!(f, "malformed schedule: {reason}"),
            CoreError::InvalidConfig { reason } => write!(f, "invalid engine config: {reason}"),
            CoreError::Durability { reason } => write!(f, "durability failure: {reason}"),
            CoreError::Mempool(err) => write!(f, "mempool rejected transaction: {err}"),
        }
    }
}

impl From<MempoolError> for CoreError {
    fn from(err: MempoolError) -> Self {
        CoreError::Mempool(err)
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings() {
        let e = CoreError::MiningFailed {
            tx_index: 4,
            source: StmError::RetriesExhausted { attempts: 64 },
        };
        assert!(e.to_string().contains("transaction 4"));
        assert!(CoreError::rejected("state root mismatch")
            .to_string()
            .contains("state root mismatch"));
        assert!(CoreError::MissingSchedule.to_string().contains("schedule"));
        assert!(CoreError::MalformedSchedule {
            reason: "cycle".into()
        }
        .to_string()
        .contains("cycle"));
        assert!(CoreError::InvalidConfig {
            reason: "0 threads".into()
        }
        .to_string()
        .contains("0 threads"));
        assert!(CoreError::durability("wal write failed")
            .to_string()
            .contains("wal write failed"));
    }
}

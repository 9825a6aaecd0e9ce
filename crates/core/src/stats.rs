//! Execution statistics and validation reports.

use cc_primitives::hash::Hash256;
use cc_stm::manager::LockStats;
use std::fmt;
use std::time::Duration;

/// Statistics gathered while mining one block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MinerStats {
    /// Number of worker threads used (1 for the serial miner).
    pub threads: usize,
    /// Number of transactions in the block.
    pub transactions: usize,
    /// How many speculative executions were aborted and retried
    /// (deadlock victims or validation losers). Neither kind sleeps: a
    /// deadlock victim waits on the lock it lost on (counted in
    /// `locks.waits`), a validation loser re-runs at once.
    pub retries: u64,
    /// Wall-clock time spent executing the block's transactions.
    pub elapsed: Duration,
    /// Total gas charged across all transactions.
    pub gas_used: u64,
    /// Critical-path length of the discovered schedule (in transactions).
    pub critical_path: usize,
    /// Number of happens-before edges discovered.
    pub hb_edges: usize,
    /// Number of committed transactions that performed no writes — under
    /// the optimistic strategy these commit without validation and can
    /// never abort; pessimistic miners count commits whose profile holds
    /// only shared locks.
    pub read_only: u64,
    /// Lock-manager activity while this block was mined: acquisitions,
    /// blocking waits, deadlocks, targeted and fallback-timer wakeups, and
    /// the stripe count of the sharded lock table. The serial miner still
    /// acquires locks (its transactions run through the same STM), but its
    /// waits and deadlocks are always zero.
    pub locks: LockStats,
}

impl fmt::Display for MinerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} txns on {} thread(s) in {:?} ({} retries, {} read-only, critical path {}, {} edges; locks: {} acquired, {} waits, {} deadlocks, {} fallback wakes over {} shards)",
            self.transactions,
            self.threads,
            self.elapsed,
            self.retries,
            self.read_only,
            self.critical_path,
            self.hb_edges,
            self.locks.acquisitions,
            self.locks.waits,
            self.locks.deadlocks,
            self.locks.fallback_wakes,
            self.locks.shards
        )
    }
}

/// The successful outcome of validating a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationReport {
    /// Number of worker threads used (1 for the serial validator).
    pub threads: usize,
    /// Number of transactions replayed.
    pub transactions: usize,
    /// The state root computed by replay (always equal to the block's
    /// state root when validation succeeds).
    pub state_root: Hash256,
    /// Wall-clock time spent re-executing the block.
    pub elapsed: Duration,
    /// Critical-path length of the replayed schedule.
    pub critical_path: usize,
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "validated {} txns on {} thread(s) in {:?} (critical path {})",
            self.transactions, self.threads, self.elapsed, self.critical_path
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let stats = MinerStats {
            threads: 3,
            transactions: 200,
            retries: 5,
            elapsed: Duration::from_millis(12),
            gas_used: 1_000,
            critical_path: 7,
            hb_edges: 30,
            read_only: 40,
            locks: LockStats {
                acquisitions: 420,
                waits: 12,
                deadlocks: 5,
                wakeups: 12,
                fallback_wakes: 1,
                shards: 16,
            },
        };
        let s = stats.to_string();
        assert!(s.contains("200 txns"));
        assert!(s.contains("3 thread"));
        assert!(s.contains("40 read-only"));
        assert!(s.contains("5 retries"));
        assert!(s.contains("420 acquired"));
        assert!(s.contains("1 fallback wakes"));
        assert!(s.contains("16 shards"));

        let report = ValidationReport {
            threads: 3,
            transactions: 200,
            state_root: Hash256::ZERO,
            elapsed: Duration::from_millis(8),
            critical_path: 7,
        };
        assert!(report.to_string().contains("validated 200"));
    }
}

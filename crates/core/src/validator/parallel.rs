//! The deterministic, concurrent fork-join validator (paper §4 and
//! Algorithm 2).

use crate::error::CoreError;
use crate::stats::ValidationReport;
use crate::validator::replay::{Order, Target};
use crate::validator::Validator;
use cc_ledger::Block;
use cc_primitives::pool::WorkerPool;
use cc_vm::World;
use std::sync::Arc;

/// Replays a block as the fork-join program derived from its published
/// schedule.
///
/// Each transaction is a task that runs only after its happens-before
/// predecessors have completed, so conflicting transactions never execute
/// concurrently and **no abstract locks, conflict detection or rollback
/// machinery** are needed. While replaying, every transaction records the
/// trace of abstract locks it *would* have acquired; afterwards the
/// validator checks:
///
/// 1. every replayed trace matches the lock profile the miner published
///    for that transaction,
/// 2. every pair of transactions whose traces conflict is ordered by the
///    published happens-before graph (no hidden data race),
/// 3. the replayed receipts equal the block's receipts,
/// 4. the recomputed state root equals the block's state root.
///
/// Any failure rejects the block.
#[derive(Debug, Clone)]
pub struct ParallelValidator {
    order: Order,
}

impl ParallelValidator {
    /// Creates a validator with `threads` worker threads on an execution
    /// pool of its own.
    pub fn new(threads: usize) -> Self {
        ParallelValidator::in_order(Order::fork_join(Arc::new(WorkerPool::new(threads))))
    }

    /// Creates a validator that replays its blocks in an engine's
    /// fork-join `order`, on the engine's shared pool.
    pub(crate) fn in_order(order: Order) -> Self {
        ParallelValidator { order }
    }

    /// Disables the lock-trace and race checks, leaving only the state /
    /// receipt comparison. Used by the ablation benchmark to measure what
    /// the trace verification costs; a real validator never does this.
    pub fn without_trace_checks(self) -> Self {
        self.with_trace_checks(false)
    }

    /// Enables or disables the lock-trace and race checks (see
    /// [`ParallelValidator::without_trace_checks`]).
    pub fn with_trace_checks(mut self, check: bool) -> Self {
        self.order = self.order.with_trace_checks(check);
        self
    }

    /// Number of worker threads this validator uses.
    pub fn threads(&self) -> usize {
        self.order.threads()
    }
}

impl Validator for ParallelValidator {
    fn validate(&self, world: &World, block: &Block) -> Result<ValidationReport, CoreError> {
        self.order.validate(Target::Base, world, block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::{Miner, ParallelMiner};
    use cc_contracts::Ballot;
    use cc_ledger::Transaction;
    use cc_vm::testing::CounterContract;
    use cc_vm::{Address, ArgValue, CallData};
    use std::sync::Arc;

    fn counter_world() -> World {
        let world = World::new();
        world.deploy(Arc::new(CounterContract::new(Address::from_name(
            "counter-pv",
        ))));
        world
    }

    fn counter_txs(n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                Transaction::new(
                    i,
                    Address::from_index(i % 4),
                    Address::from_name("counter-pv"),
                    CallData::new("increment", vec![ArgValue::Uint(1)]),
                    1_000_000,
                )
            })
            .collect()
    }

    fn ballot_world(voters: u64) -> World {
        let world = World::new();
        let ballot = Ballot::with_numbered_proposals(
            Address::from_name("Ballot-pv"),
            Address::from_index(0),
            2,
        );
        for v in 1..=voters {
            ballot.seed_registered_voter(Address::from_index(v));
        }
        world.deploy(Arc::new(ballot));
        world
    }

    fn ballot_txs(voters: u64) -> Vec<Transaction> {
        (1..=voters)
            .map(|v| {
                Transaction::new(
                    v,
                    Address::from_index(v),
                    Address::from_name("Ballot-pv"),
                    CallData::new("vote", vec![ArgValue::Uint(0)]),
                    1_000_000,
                )
            })
            .collect()
    }

    #[test]
    fn honest_parallel_block_is_accepted() {
        let mined = ParallelMiner::new(3)
            .mine(&counter_world(), counter_txs(30))
            .unwrap();
        let report = ParallelValidator::new(3)
            .validate(&counter_world(), &mined.block)
            .unwrap();
        assert_eq!(report.state_root, mined.block.header.state_root);
        assert_eq!(report.transactions, 30);
        assert!(report.critical_path >= 1);
    }

    #[test]
    fn missing_schedule_is_rejected() {
        let mined = ParallelMiner::new(2)
            .mine(&counter_world(), counter_txs(4))
            .unwrap();
        let mut block = mined.block.clone();
        block.schedule = None;
        block.header.schedule_digest = cc_primitives::Hash256::ZERO;
        let err = ParallelValidator::new(2)
            .validate(&counter_world(), &block)
            .unwrap_err();
        assert!(matches!(err, CoreError::MissingSchedule));
    }

    #[test]
    fn dropping_a_dependency_edge_is_detected_as_a_race() {
        // Transactions from the same sender conflict on the sender's
        // counts entry; removing the edge between two of them while
        // keeping the header consistent must be caught by the race check.
        let mined = ParallelMiner::new(3)
            .mine(&counter_world(), counter_txs(12))
            .unwrap();
        let mut block = mined.block.clone();
        let schedule = block.schedule.as_mut().unwrap();
        assert!(!schedule.edges.is_empty());
        schedule.edges.clear();
        // Re-commit the tampered schedule so the block stays well-formed
        // (a dishonest miner would do exactly this).
        block.header.schedule_digest = schedule.digest();
        let err = ParallelValidator::new(3)
            .validate(&counter_world(), &block)
            .unwrap_err();
        match err {
            CoreError::BlockRejected { reasons } => {
                assert!(
                    reasons.iter().any(|r| r.contains("data race")),
                    "expected a data-race rejection, got: {reasons:?}"
                );
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn forged_state_root_is_rejected() {
        let mined = ParallelMiner::new(3)
            .mine(&counter_world(), counter_txs(8))
            .unwrap();
        let mut block = mined.block.clone();
        block.header.state_root = cc_primitives::sha256(b"forged");
        let err = ParallelValidator::new(3)
            .validate(&counter_world(), &block)
            .unwrap_err();
        assert!(err.to_string().contains("state root"));
    }

    #[test]
    fn wrong_initial_state_is_rejected() {
        let mined = ParallelMiner::new(3)
            .mine(&ballot_world(8), ballot_txs(8))
            .unwrap();
        // Validate against a world with a different set of registered
        // voters: replay diverges (receipts and state differ).
        let err = ParallelValidator::new(3)
            .validate(&ballot_world(4), &mined.block)
            .unwrap_err();
        assert!(matches!(err, CoreError::BlockRejected { .. }));
    }

    #[test]
    fn ablation_mode_skips_trace_checks_but_still_checks_state() {
        let mined = ParallelMiner::new(3)
            .mine(&counter_world(), counter_txs(8))
            .unwrap();
        let report = ParallelValidator::new(3)
            .without_trace_checks()
            .validate(&counter_world(), &mined.block)
            .unwrap();
        assert_eq!(report.state_root, mined.block.header.state_root);
        let mut block = mined.block.clone();
        block.header.state_root = cc_primitives::sha256(b"forged");
        assert!(ParallelValidator::new(3)
            .without_trace_checks()
            .validate(&counter_world(), &block)
            .is_err());
    }

    #[test]
    fn serial_blocks_are_also_validatable_in_parallel() {
        use crate::miner::SerialMiner;
        let mined = SerialMiner::new()
            .mine(&counter_world(), counter_txs(6))
            .unwrap();
        // A sequential schedule has no profiles; the trace check would
        // reject it, which is the correct behaviour for a parallel
        // validator — but the ablation mode can still replay it.
        let report = ParallelValidator::new(2)
            .without_trace_checks()
            .validate(&counter_world(), &mined.block)
            .unwrap();
        assert_eq!(report.state_root, mined.block.header.state_root);
    }
}

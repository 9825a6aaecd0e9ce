//! The speculative parallel miner (paper §3 and Algorithm 1).

use crate::error::CoreError;
use crate::miner::driver::{capture_schedule, execute_block, Attempt};
use crate::miner::{MinedBlock, Miner};
use crate::stats::MinerStats;
use cc_ledger::{Block, Transaction};
use cc_primitives::hash::Hash256;
use cc_primitives::pool::WorkerPool;
use cc_stm::{LockMode, LockProfile, RetryPolicy};
use cc_vm::{Receipt, World};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mines a block by executing its transactions as speculative atomic
/// actions on a fixed pool of worker threads.
///
/// Each worker repeatedly takes the next unexecuted transaction, runs it
/// inside a speculative STM transaction (acquiring abstract locks and
/// logging inverses), and commits. Deadlock victims roll back and retry
/// after a backoff sleep (reported in [`MinerStats::backoff`]). When all
/// transactions have committed, the miner derives the happens-before
/// graph from the registered lock profiles, computes an equivalent serial
/// order by topological sort (Algorithm 1's `MineInParallel`), and
/// publishes both in the block together with the profiles themselves.
#[derive(Debug, Clone)]
pub struct ParallelMiner {
    pool: Arc<WorkerPool>,
    retry: RetryPolicy,
    capture_schedule: bool,
}

impl ParallelMiner {
    /// Creates a miner with `threads` worker threads (the paper's
    /// evaluation uses three) on an execution pool of its own, and the
    /// default retry policy.
    pub fn new(threads: usize) -> Self {
        ParallelMiner::on_pool(Arc::new(WorkerPool::new(threads)))
    }

    /// Creates a miner that runs its blocks on `pool`, shared with whoever
    /// else holds it: an [`crate::Engine`] hands one pool to its miner and
    /// its validator.
    pub(crate) fn on_pool(pool: Arc<WorkerPool>) -> Self {
        ParallelMiner {
            pool,
            retry: RetryPolicy::default(),
            capture_schedule: true,
        }
    }

    /// Overrides the retry policy used for deadlock victims.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables or disables schedule capture. When disabled the miner
    /// still executes speculatively but publishes no schedule metadata,
    /// so blocks cannot be validated by the fork-join validator —
    /// benchmark-only, to measure what capture itself costs.
    pub fn with_schedule_capture(mut self, capture: bool) -> Self {
        self.capture_schedule = capture;
        self
    }

    /// Number of worker threads this miner uses.
    pub fn threads(&self) -> usize {
        self.pool.workers()
    }
}

impl Miner for ParallelMiner {
    fn mine(&self, world: &World, transactions: Vec<Transaction>) -> Result<MinedBlock, CoreError> {
        self.mine_on(world, transactions, Hash256::ZERO, 1)
    }

    fn mine_on(
        &self,
        world: &World,
        transactions: Vec<Transaction>,
        parent_hash: Hash256,
        number: u64,
    ) -> Result<MinedBlock, CoreError> {
        let start = Instant::now();
        let stm = world.stm();
        stm.begin_block();
        let locks_before = stm.lock_stats();
        let n = transactions.len();
        let slept_ns = AtomicU64::new(0);

        let (committed, retries) = execute_block(
            &self.pool,
            n,
            self.retry.max_attempts,
            // Each worker recycles its transaction arenas across the
            // whole block: undo-log sinks, lock vectors and trace buffers
            // are allocated by the first attempts and reused by every
            // later one.
            || stm.txn_scope(),
            |arenas, index, attempt| {
                let tx = &transactions[index];
                let txn = arenas.begin();
                match world.execute(&txn, index, tx.msg(), tx.to, &tx.call, tx.gas_limit) {
                    Ok(receipt) => match txn.commit() {
                        Ok(commit) => Attempt::Committed((receipt, commit.profile)),
                        Err(source) => Attempt::Fatal(source),
                    },
                    Err(source) => {
                        // Deadlock victim: undo, then sleep before the
                        // retry. The pause is load-bearing here: the winner
                        // of the upgrade deadlock is still executing, and a
                        // victim that re-runs at once takes its shared lock
                        // again and re-enters the same deadlock.
                        let _ = txn.abort();
                        if attempt < self.retry.max_attempts {
                            let slept = Instant::now();
                            self.retry.backoff(attempt);
                            slept_ns
                                .fetch_add(slept.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        }
                        Attempt::Conflict(source)
                    }
                }
            },
        )?;
        let (receipts, profiles): (Vec<Receipt>, Vec<LockProfile>) = committed.into_iter().unzip();

        let read_only = profiles
            .iter()
            .filter(|p| p.locks.iter().all(|e| e.mode == LockMode::Shared))
            .count() as u64;
        let (schedule, critical_path, hb_edges) =
            capture_schedule(self.capture_schedule, profiles)?;

        let elapsed = start.elapsed();
        let gas_used = receipts.iter().map(|r| r.gas_used).sum();
        let block = Block::build(
            parent_hash,
            number,
            transactions,
            receipts,
            world.state_root(),
            schedule,
        );
        Ok(MinedBlock {
            block,
            stats: MinerStats {
                threads: self.threads(),
                transactions: n,
                retries,
                backoff: Duration::from_nanos(slept_ns.into_inner()),
                exclusive: 0,
                elapsed,
                gas_used,
                critical_path,
                hb_edges,
                locks: stm.lock_stats().since(&locks_before),
                read_only,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::SerialMiner;
    use cc_contracts::{Ballot, SimpleAuction};
    use cc_vm::testing::CounterContract;
    use cc_vm::{Address, ArgValue, CallData, ExecutionStatus};
    use std::sync::Arc;

    fn counter_world() -> (World, Address) {
        let world = World::new();
        let addr = Address::from_name("counter-parallel");
        world.deploy(Arc::new(CounterContract::new(addr)));
        (world, addr)
    }

    fn increment_tx(i: u64, to: Address) -> Transaction {
        Transaction::new(
            i,
            Address::from_index(i),
            to,
            CallData::new("increment", vec![ArgValue::Uint(1)]),
            1_000_000,
        )
    }

    #[test]
    fn parallel_and_serial_mining_agree_on_state() {
        let build = || {
            let (world, addr) = counter_world();
            let txs: Vec<Transaction> = (0..40).map(|i| increment_tx(i, addr)).collect();
            (world, txs)
        };
        let (world_serial, txs) = build();
        let serial = SerialMiner::new().mine(&world_serial, txs.clone()).unwrap();

        let (world_parallel, _) = build();
        let parallel = ParallelMiner::new(4).mine(&world_parallel, txs).unwrap();

        assert_eq!(
            serial.block.header.state_root,
            parallel.block.header.state_root
        );
        assert_eq!(serial.block.header.tx_root, parallel.block.header.tx_root);
        assert_eq!(parallel.stats.threads, 4);
        assert!(parallel.block.is_well_formed());
    }

    #[test]
    fn profiles_and_schedule_are_published() {
        let (world, addr) = counter_world();
        // Two senders issue interleaved increments: same-sender
        // transactions conflict (same counts entry), different senders do
        // not (the shared total uses the additive tally).
        let txs: Vec<Transaction> = (0..20)
            .map(|i| {
                Transaction::new(
                    i,
                    Address::from_index(i % 2),
                    addr,
                    CallData::new("increment", vec![ArgValue::Uint(1)]),
                    1_000_000,
                )
            })
            .collect();
        let mined = ParallelMiner::new(3).mine(&world, txs).unwrap();
        let schedule = mined.block.schedule.as_ref().unwrap();
        assert_eq!(schedule.profiles.len(), 20);
        assert!(
            !schedule.edges.is_empty(),
            "same-sender conflicts must be ordered"
        );
        assert!(
            schedule.critical_path() >= 10,
            "10 txns per sender serialize"
        );
        assert!(
            schedule.critical_path() < 20,
            "the two senders' chains run in parallel (critical path {} should be < 20)",
            schedule.critical_path()
        );
    }

    #[test]
    fn ballot_double_votes_revert_exactly_once_in_parallel() {
        let world = World::new();
        let chair = Address::from_index(0);
        let ballot = Arc::new(Ballot::with_numbered_proposals(
            Address::from_name("Ballot-pm"),
            chair,
            2,
        ));
        let voters: Vec<Address> = (1..=10).map(Address::from_index).collect();
        for v in &voters {
            ballot.seed_registered_voter(*v);
        }
        world.deploy(ballot.clone());

        // Every voter votes once, and voters 0..3 attempt a second vote.
        let mut txs = Vec::new();
        for (i, v) in voters.iter().enumerate() {
            txs.push(Transaction::new(
                i as u64,
                *v,
                Address::from_name("Ballot-pm"),
                CallData::new("vote", vec![ArgValue::Uint(0)]),
                1_000_000,
            ));
        }
        for (i, v) in voters.iter().take(3).enumerate() {
            txs.push(Transaction::new(
                100 + i as u64,
                *v,
                Address::from_name("Ballot-pm"),
                CallData::new("vote", vec![ArgValue::Uint(0)]),
                1_000_000,
            ));
        }

        let mined = ParallelMiner::new(3).mine(&world, txs).unwrap();
        let reverted = mined
            .block
            .receipts
            .iter()
            .filter(|r| matches!(r.status, ExecutionStatus::Reverted { .. }))
            .count();
        assert_eq!(reverted, 3, "exactly the duplicate votes revert");
        assert_eq!(ballot.tally(0), 10, "each voter counted once");
    }

    #[test]
    fn contended_auction_bids_serialize_but_commit() {
        let world = World::new();
        let auction = Arc::new(SimpleAuction::new(
            Address::from_name("Auction-pm"),
            Address::from_index(0),
        ));
        world.deploy(auction.clone());
        let txs: Vec<Transaction> = (1..=12)
            .map(|i| {
                Transaction::new(
                    i,
                    Address::from_index(i),
                    Address::from_name("Auction-pm"),
                    CallData::nullary("bidPlusOne"),
                    1_000_000,
                )
            })
            .collect();
        let mined = ParallelMiner::new(4).mine(&world, txs).unwrap();
        assert!(mined.block.receipts.iter().all(Receipt::succeeded));
        assert_eq!(auction.current_highest_bid(), 12);
        // All bids touch the highest-bid cell, so the schedule is a chain.
        assert_eq!(mined.block.schedule.as_ref().unwrap().critical_path(), 12);
    }

    /// A contract whose single method reads a cell under a shared lock,
    /// dawdles while holding it, then writes the cell back — the classic
    /// read-then-upgrade pattern. Two concurrent calls both hold the
    /// shared lock and both request the exclusive upgrade, so one of them
    /// must die as a deadlock victim.
    #[derive(Debug)]
    struct UpgradingContract {
        address: Address,
        cell: cc_vm::StorageCell<u64>,
    }

    impl cc_vm::Contract for UpgradingContract {
        fn kind(&self) -> cc_vm::ContractKind {
            cc_vm::ContractKind("Upgrading")
        }

        fn address(&self) -> Address {
            self.address
        }

        fn call(
            &self,
            ctx: &mut cc_vm::CallContext<'_>,
            call: &CallData,
        ) -> Result<cc_vm::ReturnValue, cc_vm::VmError> {
            match call.function.as_str() {
                "readThenBump" => {
                    let seen = self.cell.get(ctx)?;
                    // Hold the shared lock long enough for the other
                    // worker to acquire it too before either upgrades.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    self.cell.set(ctx, seen + 1)?;
                    Ok(cc_vm::ReturnValue::Uint(u128::from(seen + 1)))
                }
                other => Err(cc_vm::VmError::UnknownFunction {
                    function: other.to_string(),
                }),
            }
        }

        fn storage_fields(&self) -> Vec<&dyn cc_vm::StorageField> {
            vec![&self.cell]
        }
    }

    #[test]
    fn upgrade_deadlock_victims_are_counted_as_retries() {
        let world = World::new();
        let addr = Address::from_name("upgrade-deadlock");
        world.deploy(Arc::new(UpgradingContract {
            address: addr,
            cell: cc_vm::StorageCell::new("Upgrading.cell", 0),
        }));
        let txs: Vec<Transaction> = (0..2)
            .map(|i| {
                Transaction::new(
                    i,
                    Address::from_index(i),
                    addr,
                    CallData::nullary("readThenBump"),
                    1_000_000,
                )
            })
            .collect();
        let mined = ParallelMiner::new(2)
            .with_retry_policy(RetryPolicy::no_backoff(64))
            .mine(&world, txs)
            .unwrap();
        assert!(mined.block.receipts.iter().all(Receipt::succeeded));
        assert!(
            mined.stats.retries >= 1,
            "the shared→exclusive upgrade deadlock's victim must show up \
             in the abort accounting (saw {} retries)",
            mined.stats.retries
        );
        assert_eq!(
            mined.stats.locks.deadlocks, mined.stats.retries,
            "every pessimistic retry in this block is a deadlock victim"
        );
    }

    #[test]
    fn single_thread_parallel_miner_still_works() {
        let (world, addr) = counter_world();
        let txs: Vec<Transaction> = (0..5).map(|i| increment_tx(i, addr)).collect();
        let mined = ParallelMiner::new(1).mine(&world, txs).unwrap();
        assert_eq!(mined.block.len(), 5);
        assert_eq!(ParallelMiner::new(0).threads(), 1);
    }

    #[test]
    fn empty_block_mines() {
        let (world, _) = counter_world();
        let mined = ParallelMiner::new(3).mine(&world, Vec::new()).unwrap();
        assert!(mined.block.is_empty());
        assert!(mined.block.is_well_formed());
    }
}

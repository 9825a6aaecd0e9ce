//! The pessimistic boosted attempt (paper §3 and Algorithm 1).
//!
//! On the engine's pool it is the paper's speculative miner; on a
//! one-worker pool it is the serial baseline every speedup is measured
//! against — one transaction at a time, in block order, through the same
//! STM, so `throw` semantics and gas accounting are byte-for-byte those of
//! the speculative miner.
//!
//! Each worker repeatedly takes the next unexecuted transaction, runs it
//! inside a speculative STM transaction (acquiring abstract locks and
//! logging inverses), and commits. A deadlock victim rolls back, waits on
//! the lock it lost on until that lock changes hands
//! ([`cc_stm::manager::LockManager::await_release`]), and re-runs; the
//! lock manager's update mode keeps its retry from taking a shared lock it
//! will have to upgrade again.

use super::driver::{execute_block, Attempt, Executed};
use crate::error::CoreError;
use cc_ledger::Transaction;
use cc_primitives::pool::WorkerPool;
use cc_stm::{retry, LockMode, LockProfile, StmError};
use cc_vm::{Receipt, World};

/// Executes `transactions` on `world` as speculative atomic actions on
/// `pool`, leaving their effects in the world.
pub(super) fn execute(
    pool: &WorkerPool,
    world: &World,
    transactions: &[Transaction],
) -> Result<Executed, CoreError> {
    let stm = world.stm();
    stm.begin_block();

    let (committed, retries) = execute_block(
        pool,
        transactions.len(),
        retry::MAX_ATTEMPTS,
        // Each worker recycles its transaction arenas across the whole
        // block: undo-log sinks, lock vectors and trace buffers are
        // allocated by the first attempts and reused by every later one.
        || stm.txn_scope(),
        |arenas, index, _attempt| {
            let tx = &transactions[index];
            let txn = arenas.begin();
            match world.execute(&txn, index, tx.msg(), tx.to, &tx.call, tx.gas_limit) {
                Ok(receipt) => match txn.commit() {
                    Ok(commit) => Attempt::Committed((receipt, commit.profile)),
                    Err(source) => Attempt::Fatal(source),
                },
                Err(source) => {
                    // Deadlock victim: undo, then wait for the winner to
                    // let go of the lock this attempt lost on. Re-running
                    // at once would find the winner still executing.
                    let _ = txn.abort();
                    if let StmError::Deadlock { lock, .. } = source {
                        stm.lock_manager().await_release(lock);
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
    Ok(Executed {
        receipts,
        profiles,
        retries,
        read_only,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
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
        let serial = Engine::serial().mine(&world_serial, txs.clone()).unwrap();

        let (world_parallel, _) = build();
        let parallel = Engine::speculative(4)
            .unwrap()
            .mine(&world_parallel, txs)
            .unwrap();

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
        let mined = Engine::speculative(3).unwrap().mine(&world, txs).unwrap();
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

        let mined = Engine::speculative(3).unwrap().mine(&world, txs).unwrap();
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
        let mined = Engine::speculative(4).unwrap().mine(&world, txs).unwrap();
        assert!(mined.block.receipts.iter().all(Receipt::succeeded));
        assert_eq!(auction.current_highest_bid(), 12);
        // All bids touch the highest-bid cell, so the schedule is a chain.
        assert_eq!(mined.block.schedule.as_ref().unwrap().critical_path(), 12);
    }

    /// A contract whose `readThenBump` reads a cell under a shared lock,
    /// dawdles while holding it, then writes the cell back — the classic
    /// read-then-upgrade pattern. Two concurrent calls both hold the
    /// shared lock and both request the exclusive upgrade, so one of them
    /// must die as a deadlock victim. `read` only reads the cell.
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
                "read" => Ok(cc_vm::ReturnValue::Uint(u128::from(self.cell.get(ctx)?))),
                other => Err(cc_vm::VmError::UnknownFunction {
                    function: other.to_string(),
                }),
            }
        }

        fn storage_fields(&self) -> Vec<&dyn cc_vm::StorageField> {
            vec![&self.cell]
        }
    }

    fn upgrading_world() -> (World, Address) {
        let world = World::new();
        let addr = Address::from_name("upgrade-deadlock");
        world.deploy(Arc::new(UpgradingContract {
            address: addr,
            cell: cc_vm::StorageCell::new("Upgrading.cell", 0),
        }));
        (world, addr)
    }

    /// One transaction per method name, from distinct senders.
    fn upgrading_calls(addr: Address, methods: &[&'static str]) -> Vec<Transaction> {
        (0..)
            .zip(methods)
            .map(|(i, method)| {
                Transaction::new(
                    i,
                    Address::from_index(i),
                    addr,
                    CallData::nullary(*method),
                    1_000_000,
                )
            })
            .collect()
    }

    #[test]
    fn upgrade_deadlock_victims_are_counted_as_retries() {
        let (world, addr) = upgrading_world();
        let txs = upgrading_calls(addr, &["readThenBump"; 2]);
        let mined = Engine::speculative(2).unwrap().mine(&world, txs).unwrap();
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
    fn an_upgrade_deadlock_puts_its_lock_in_update_mode() {
        // Every pair of overlapping calls would deadlock on the upgrade.
        // A victim that slept and re-ran took the shared lock again and
        // deadlocked with the next call, so this block used to see seven
        // deadlocks. Now, after the first one, the cell's lock is taken
        // exclusively, and the victim waits for its winner's commit.
        let (world, addr) = upgrading_world();
        let txs = upgrading_calls(addr, &["readThenBump"; 8]);
        let mined = Engine::speculative(2).unwrap().mine(&world, txs).unwrap();
        assert!(mined.block.receipts.iter().all(Receipt::succeeded));
        let stats = &mined.stats;
        assert!(stats.locks.deadlocks <= 1, "{stats}");
        assert_eq!(stats.locks.deadlocks, stats.retries, "{stats}");
    }

    #[test]
    fn readers_of_an_update_mode_lock_publish_shared_and_validate() {
        // The update-mode readers hold the cell exclusively while mining,
        // but publish the mode they asked for: no read-read edges, and the
        // validator's trace check accepts every profile.
        let methods = [
            "readThenBump",
            "readThenBump",
            "read",
            "read",
            "readThenBump",
            "read",
        ];
        let (world, addr) = upgrading_world();
        let engine = Engine::speculative(2).unwrap();
        assert!(engine.config().check_traces);
        let mined = engine
            .mine(&world, upgrading_calls(addr, &methods))
            .unwrap();
        assert!(mined.block.receipts.iter().all(Receipt::succeeded));
        assert!(
            mined.stats.locks.deadlocks >= 1,
            "the first two calls overlap on the upgrade: {}",
            mined.stats
        );
        let schedule = mined.block.schedule.as_ref().unwrap();
        let reader = |i: usize| methods[i] == "read";
        for record in schedule.profiles.iter().filter(|r| reader(r.tx_index)) {
            let locks = &record.profile.locks;
            assert!(
                locks.iter().all(|e| e.mode == LockMode::Shared),
                "{record:?}"
            );
        }
        assert!(
            !schedule.edges.iter().any(|&(a, b)| reader(a) && reader(b)),
            "readers stay unordered: {:?}",
            schedule.edges
        );
        let (fresh, _) = upgrading_world();
        engine.validate(&fresh, &mined.block).unwrap();
    }

    #[test]
    fn single_thread_parallel_miner_still_works() {
        let (world, addr) = counter_world();
        let txs: Vec<Transaction> = (0..5).map(|i| increment_tx(i, addr)).collect();
        let engine = Engine::speculative(1).unwrap();
        let mined = engine.mine(&world, txs).unwrap();
        assert_eq!(mined.block.len(), 5);
        assert_eq!(engine.threads(), 1);
    }

    #[test]
    fn empty_block_mines() {
        let (world, _) = counter_world();
        let mined = Engine::speculative(3)
            .unwrap()
            .mine(&world, Vec::new())
            .unwrap();
        assert!(mined.block.is_empty());
        assert!(mined.block.is_well_formed());
    }
}

//! The optimistic multi-version attempt (OptSmart over the paper's
//! framework).
//!
//! Where the pessimistic attempt acquires abstract locks and resolves
//! contention with deadlock detection, this one runs each transaction
//! against a **snapshot** of the versioned storage overlays, buffers its
//! writes privately, and validates first-committer-wins when it commits
//! (see `cc_mvcc`). Read-only transactions commit without validation and
//! therefore never abort.
//!
//! A validation loser lost to a writer that has already published, so it
//! re-runs **at once**; nothing sleeps. Its conflict names the lock it
//! lost on, which is now hot, and the re-run begins by parking for that
//! lock's write intent ([`cc_mvcc::MvccRuntime::begin_holding`]), so it
//! fixes its snapshot after the holder published and cannot lose on that
//! lock again. Every later transaction that touches a hot lock queues on
//! its intent the same way instead of racing for it; the rules and why
//! they cannot deadlock are in [`cc_mvcc::runtime`]. The attempt budget is
//! the pessimistic one, [`retry::MAX_ATTEMPTS`].
//!
//! The driver publishes the same [`cc_ledger::ScheduleMetadata`] for it
//! as for the pessimistic attempt, so validators stay strategy-agnostic:
//! every committed transaction carries a lock-footprint profile (the
//! versioned collections record exactly the `(lock, mode)` pairs their
//! boosted twins would acquire), and the profile counters are synthesized
//! from the MVCC serialization order — writers at their commit
//! timestamps, readers at their snapshot timestamps.

use super::driver::{execute_block, Attempt, Executed};
use crate::error::CoreError;
use cc_ledger::Transaction;
use cc_mvcc::{MvccCommit, MvccError};
use cc_primitives::pool::WorkerPool;
use cc_stm::{retry, LockProfile, ProfileEntry, StmError};
use cc_vm::{Receipt, TxnRef, World};
use std::sync::atomic::{AtomicU64, Ordering};

/// Garbage-collect versions below the oldest active snapshot after this
/// many commits. GC is cheap (a pass over the version lists under their
/// write locks) but not free; once per "a few dozen commits" keeps list
/// lengths bounded by the active-transaction window without measurably
/// slowing the commit path.
const GC_COMMIT_INTERVAL: u64 = 64;

/// Executes `transactions` on `world` as optimistic multi-version
/// transactions on `pool`, then finalizes the block's versions into the
/// base state.
///
/// Each worker repeatedly takes the next unexecuted transaction, runs it
/// against a snapshot (writes buffered), and commits under
/// first-committer-wins validation. Validation losers roll back and re-run
/// at once holding the intent of the lock they lost on, counted as retries
/// exactly like the pessimistic attempt's deadlock victims. The profiles
/// are synthesized from the committed read/write footprints.
pub(super) fn execute(
    pool: &WorkerPool,
    world: &World,
    transactions: &[Transaction],
) -> Result<Executed, CoreError> {
    let runtime = world.mvcc();
    let n = transactions.len();
    let commits_done = AtomicU64::new(0);

    let (committed, retries) = execute_block(
        pool,
        n,
        retry::MAX_ATTEMPTS,
        // The lock this worker's previous attempt lost on, if it lost.
        || None,
        |lost, index, attempt| {
            let tx = &transactions[index];
            let txn = runtime.begin_holding(lost.take());
            match world.execute_in(
                TxnRef::Mvcc(&txn),
                index,
                tx.msg(),
                tx.to,
                &tx.call,
                tx.gas_limit,
            ) {
                Ok(receipt) => match txn.commit() {
                    Ok(commit) => {
                        let done = commits_done.fetch_add(1, Ordering::Relaxed) + 1;
                        if done.is_multiple_of(GC_COMMIT_INTERVAL) {
                            runtime.collect();
                        }
                        Attempt::Committed((receipt, commit))
                    }
                    // First-committer-wins loser: the buffered writes
                    // are simply dropped, along with the intents; re-run
                    // at once, queued on the lock it lost on.
                    Err(MvccError::Conflict { lock, .. }) => {
                        *lost = Some(lock);
                        Attempt::Conflict(StmError::RetriesExhausted { attempts: attempt })
                    }
                },
                Err(source) => {
                    // Unreachable: optimistic execution raises no
                    // speculative errors mid-flight. Fail loudly if
                    // the seam ever changes.
                    txn.abort();
                    Attempt::Fatal(source)
                }
            }
        },
    )?;
    let (receipts, commits): (Vec<Receipt>, Vec<MvccCommit>) = committed.into_iter().unzip();

    // The MVCC serialization order: writers serialize at their commit
    // timestamps, read-only transactions at their snapshot timestamps
    // — after every writer with that timestamp (a snapshot at `t` has
    // observed the install that published `t`). Ties between readers
    // carry no constraint; block position breaks them
    // deterministically.
    let mut order: Vec<(u64, u8, usize)> = commits
        .iter()
        .enumerate()
        .map(|(index, c)| (c.ts.raw(), u8::from(c.read_only), index))
        .collect();
    order.sort_unstable();
    let mut counters: Vec<u64> = vec![0; n];
    for (position, &(_, _, index)) in order.iter().enumerate() {
        counters[index] = position as u64 + 1;
    }
    let read_only = commits.iter().filter(|c| c.read_only).count() as u64;

    // Synthesize the per-transaction lock profiles the pessimistic
    // miner would have registered: the validated footprint provides
    // the `(lock, mode)` pairs, the serialization position provides a
    // consistent use counter for every lock the transaction touched.
    let profiles: Vec<LockProfile> = commits
        .into_iter()
        .enumerate()
        .map(|(index, commit)| {
            let counter = counters[index];
            LockProfile::new(
                commit
                    .footprint
                    .into_iter()
                    .map(|(lock, mode)| ProfileEntry {
                        lock,
                        mode,
                        counter,
                    })
                    .collect(),
            )
        })
        .collect();

    // Flatten the block's committed versions into the boosted base
    // state before the driver computes the state root (snapshots read
    // the base).
    runtime.finalize_block();
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
    use cc_workload::{Benchmark, WorkloadSpec};
    use std::sync::Arc;

    fn counter_world() -> (World, Address) {
        let world = World::new();
        let addr = Address::from_name("counter-mvcc");
        world.deploy(Arc::new(CounterContract::new(addr)));
        (world, addr)
    }

    fn increment_tx(i: u64, sender: u64, to: Address) -> Transaction {
        Transaction::new(
            i,
            Address::from_index(sender),
            to,
            CallData::new("increment", vec![ArgValue::Uint(1)]),
            1_000_000,
        )
    }

    #[test]
    fn optimistic_and_serial_mining_agree_on_state() {
        let build = || {
            let (world, addr) = counter_world();
            let txs: Vec<Transaction> = (0..40).map(|i| increment_tx(i, i, addr)).collect();
            (world, txs)
        };
        let (world_serial, txs) = build();
        let serial = Engine::serial().mine(&world_serial, txs.clone()).unwrap();

        let (world_mvcc, _) = build();
        let optimistic = Engine::optimistic(4)
            .unwrap()
            .mine(&world_mvcc, txs)
            .unwrap();

        assert_eq!(
            serial.block.header.state_root,
            optimistic.block.header.state_root
        );
        assert_eq!(serial.block.header.tx_root, optimistic.block.header.tx_root);
        assert_eq!(optimistic.stats.threads, 4);
        assert!(optimistic.block.is_well_formed());
    }

    #[test]
    fn contended_increments_serialize_through_validation() {
        // All transactions share one sender, so every one reads and
        // writes the same counts entry: validation forces them into a
        // chain, possibly through retries, but the final tally is exact.
        let (world, addr) = counter_world();
        let txs: Vec<Transaction> = (0..24).map(|i| increment_tx(i, 0, addr)).collect();
        let mined = Engine::optimistic(4).unwrap().mine(&world, txs).unwrap();
        assert!(mined.block.receipts.iter().all(Receipt::succeeded));
        let schedule = mined.block.schedule.as_ref().unwrap();
        assert_eq!(
            schedule.critical_path(),
            24,
            "same-sender increments form a chain"
        );
    }

    #[test]
    fn ballot_double_votes_revert_exactly_once_optimistically() {
        let world = World::new();
        let chair = Address::from_index(0);
        let ballot = Arc::new(Ballot::with_numbered_proposals(
            Address::from_name("Ballot-mvcc"),
            chair,
            2,
        ));
        let voters: Vec<Address> = (1..=10).map(Address::from_index).collect();
        for v in &voters {
            ballot.seed_registered_voter(*v);
        }
        world.deploy(ballot.clone());

        let mut txs = Vec::new();
        for (i, v) in voters.iter().enumerate() {
            txs.push(Transaction::new(
                i as u64,
                *v,
                Address::from_name("Ballot-mvcc"),
                CallData::new("vote", vec![ArgValue::Uint(0)]),
                1_000_000,
            ));
        }
        for (i, v) in voters.iter().take(3).enumerate() {
            txs.push(Transaction::new(
                100 + i as u64,
                *v,
                Address::from_name("Ballot-mvcc"),
                CallData::new("vote", vec![ArgValue::Uint(0)]),
                1_000_000,
            ));
        }

        let mined = Engine::optimistic(3).unwrap().mine(&world, txs).unwrap();
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
    fn contended_auction_bids_commit_with_retries() {
        let world = World::new();
        let auction = Arc::new(SimpleAuction::new(
            Address::from_name("Auction-mvcc"),
            Address::from_index(0),
        ));
        world.deploy(auction.clone());
        let txs: Vec<Transaction> = (1..=12)
            .map(|i| {
                Transaction::new(
                    i,
                    Address::from_index(i),
                    Address::from_name("Auction-mvcc"),
                    CallData::nullary("bidPlusOne"),
                    1_000_000,
                )
            })
            .collect();
        let mined = Engine::optimistic(4).unwrap().mine(&world, txs).unwrap();
        assert!(mined.block.receipts.iter().all(Receipt::succeeded));
        assert_eq!(auction.current_highest_bid(), 12);
        assert_eq!(mined.block.schedule.as_ref().unwrap().critical_path(), 12);
    }

    #[test]
    fn read_only_transactions_never_abort() {
        // A block of pure reads: every transaction calls `total`, which
        // only reads the tally. Read-only optimistic commits skip
        // validation entirely, so not a single retry can occur and every
        // commit counts as read-only — the structural abort-freedom
        // claim, asserted through the published stats.
        let (world, addr) = counter_world();
        let readers: Vec<Transaction> = (0..30)
            .map(|i| {
                Transaction::new(
                    i,
                    Address::from_index(i),
                    addr,
                    CallData::nullary("total"),
                    1_000_000,
                )
            })
            .collect();
        let mined = Engine::optimistic(4)
            .unwrap()
            .mine(&world, readers)
            .unwrap();
        assert!(mined.block.receipts.iter().all(Receipt::succeeded));
        assert_eq!(mined.stats.retries, 0, "readers never fail validation");
        assert_eq!(mined.stats.read_only, 30, "every commit was read-only");

        // Mixing in heavily contended writers (one shared sender) changes
        // neither property for the readers: aborts stay attributable to
        // the writers alone, and the read-only count stays exact.
        let (world, addr) = counter_world();
        let mut txs: Vec<Transaction> = (0..20)
            .map(|i| {
                Transaction::new(
                    i,
                    Address::from_index(i),
                    addr,
                    CallData::nullary("total"),
                    1_000_000,
                )
            })
            .collect();
        txs.extend((0..10).map(|i| increment_tx(100 + i, 0, addr)));
        let mined = Engine::optimistic(4).unwrap().mine(&world, txs).unwrap();
        assert!(mined.block.receipts.iter().all(Receipt::succeeded));
        assert_eq!(
            mined.stats.read_only, 20,
            "exactly the readers commit read-only"
        );
    }

    #[test]
    fn full_conflict_blocks_commit_within_five_attempts_on_every_pool() {
        // Nothing sleeps between attempts, so a loser whose execution is
        // no shorter than a neighbour's would keep losing to that
        // neighbour's next commit; queuing on the hot lock's intent is
        // what ends the chase. The blocks stay within four losses a
        // transaction: five attempts, as the name says.
        for benchmark in [
            Benchmark::SimpleAuction,
            Benchmark::EtherDoc,
            Benchmark::Mixed,
        ] {
            let workload = WorkloadSpec::new(benchmark, 200, 1.0).generate();
            for threads in [1, 2, 3, 8] {
                let engine = Engine::optimistic(threads).unwrap();
                let mined = engine
                    .mine(&workload.build_world(), workload.transactions())
                    .unwrap_or_else(|e| panic!("{benchmark} on {threads} thread(s): {e}"));
                let stats = &mined.stats;
                assert!(stats.retries <= 4 * 200, "{stats}");
                engine
                    .validate(&workload.build_world(), &mined.block)
                    .unwrap_or_else(|e| panic!("{benchmark} on {threads} thread(s): {e}"));
            }
        }
    }

    #[test]
    fn single_thread_and_empty_block() {
        let (world, addr) = counter_world();
        let txs: Vec<Transaction> = (0..5).map(|i| increment_tx(i, i, addr)).collect();
        let engine = Engine::optimistic(1).unwrap();
        let mined = engine.mine(&world, txs).unwrap();
        assert_eq!(mined.block.len(), 5);
        assert_eq!(engine.threads(), 1);

        let (world, _) = counter_world();
        let mined = Engine::optimistic(3)
            .unwrap()
            .mine(&world, Vec::new())
            .unwrap();
        assert!(mined.block.is_empty());
        assert!(mined.block.is_well_formed());
    }
}

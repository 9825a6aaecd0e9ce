//! The one replay (paper Algorithm 2): derive the happens-before graph
//! from the lock profiles a block publishes
//! ([`HappensBeforeGraph::from_metadata`]), re-execute the block's
//! transactions as its fork-join program on the engine's pool, collect
//! receipts and lock traces, compare. Every transaction runs as a
//! multi-version transaction whose versions stay stacked above the base
//! as a pending overlay (see [`crate::node::pending`]). Every engine
//! replays this way; the serial one does it on its one-worker pool, where
//! the fork-join program is a walk on the calling thread. Every validation
//! entry point is [`validate`]: well-formedness, [`replay`], the verdict of
//! [`checks`]. The state root is checked once the overlay is
//! flattened, by `PendingChain::commit`.

use super::checks;
use crate::error::CoreError;
use crate::fork_join::run_fork_join_on;
use crate::schedule::HappensBeforeGraph;
use crate::stats::ValidationReport;
use cc_ledger::{Block, Transaction, WellFormedBlock};
use cc_primitives::pool::WorkerPool;
use cc_stm::{LockId, LockMode};
use cc_vm::{Receipt, TxnRef, World};
use std::sync::OnceLock;
use std::time::Instant;

/// The abstract locks one replayed transaction would have held, strongest
/// mode per lock, sorted by lock — comparable entry by entry with a
/// published profile, which is sorted the same way.
pub(crate) type Trace = Vec<(LockId, LockMode)>;

/// What one transaction's replay yields, or why it could not run.
type Replayed = Result<(Receipt, Trace), String>;

/// What a block's replay recorded: receipts and traces in block order,
/// and the graph the fork-join program was built from.
pub(crate) type Recorded = (Vec<Receipt>, Vec<Trace>, HappensBeforeGraph);

/// Executes transaction `index` of a block on `world` as a multi-version
/// transaction whose versions stay in the pending overlay. The order
/// keeps conflicting transactions apart, so nothing is retried.
fn execute(world: &World, index: usize, tx: &Transaction) -> Replayed {
    let txn = world.mvcc().begin();
    let executed = world.execute_in(
        TxnRef::Mvcc(&txn),
        index,
        tx.msg(),
        tx.to,
        &tx.call,
        tx.gas_limit,
    );
    let receipt = executed.map_err(|e| e.to_string())?;
    // Every conflicting predecessor committed before this snapshot was
    // taken, so first-committer-wins can only fail when the transaction
    // touched what its profile does not claim, which the trace check
    // rejects anyway. The footprint already carries the strongest mode
    // per lock, once per lock: sorted, it is what the trace check compares.
    let commit = txn.commit().map_err(|e| {
        format!("{e} (a data race: the derived schedule does not order it after a conflicting transaction)")
    })?;
    let mut trace = commit.footprint;
    trace.sort_unstable_by_key(|&(lock, _)| lock);
    Ok((receipt, trace))
}

/// Runs `execute` once per transaction of `block`, as the fork-join
/// program of the graph its schedule derives, on `pool`, and returns what
/// it recorded.
///
/// # Errors
///
/// Before anything runs: [`CoreError::MissingSchedule`] when the block
/// carries no schedule, [`CoreError::MalformedSchedule`] when its
/// profiles derive no graph or not the published one
/// ([`HappensBeforeGraph::from_metadata`]). Afterwards
/// [`CoreError::BlockRejected`], naming the lowest-index transaction
/// whose `execute` failed.
pub(crate) fn replay(
    block: &Block,
    pool: &WorkerPool,
    execute: impl Fn(usize, &Transaction) -> Replayed + Sync,
) -> Result<Recorded, CoreError> {
    let txs = &block.transactions;
    let schedule = block.schedule.as_ref().ok_or(CoreError::MissingSchedule)?;
    let graph = HappensBeforeGraph::from_metadata(schedule, txs.len())?;
    // One slot per transaction; a failure stays in its slot instead of
    // unwinding through the pool.
    let slots: Vec<OnceLock<Replayed>> = txs.iter().map(|_| OnceLock::new()).collect();
    run_fork_join_on(pool, &graph, |index| {
        let _ = slots[index].set(execute(index, &txs[index]));
    });
    let replayed = slots.into_iter().enumerate().map(|(index, slot)| {
        let outcome = slot.into_inner();
        outcome
            .unwrap_or_else(|| Err("it was never run".into()))
            .map_err(|e| CoreError::rejected(format!("replay of transaction {index} failed: {e}")))
    });
    let (receipts, traces) = replayed.collect::<Result<Vec<_>, _>>()?.into_iter().unzip();
    Ok((receipts, traces, graph))
}

/// Validates `block` on `world`'s pending overlay, replaying it on `pool`:
/// the structural prologue, the replay, and the verdict. Hands the block
/// back with the proof that its commitments were checked (once, here), and
/// the report, whose root is the block's claim, checked when the overlay
/// is flattened (`PendingChain::commit`).
///
/// # Errors
///
/// [`CoreError::MissingSchedule`] / [`CoreError::MalformedSchedule`]
/// when no fork-join program can be derived from the block;
/// [`CoreError::BlockRejected`] when the block is dishonest. Any of them
/// may leave versions of the block in the overlay, for the caller to
/// discard.
pub(crate) fn validate(
    pool: &WorkerPool,
    world: &World,
    block: Block,
) -> Result<(WellFormedBlock, ValidationReport), CoreError> {
    let start = Instant::now();
    let block = checks::well_formed(block)?;
    let (receipts, traces, graph) = replay(&block, pool, |index, tx| execute(world, index, tx))?;
    checks::verdict(&block, &traces, &receipts)?;
    let report = ValidationReport {
        threads: pool.workers(),
        transactions: block.transactions.len(),
        state_root: block.header.state_root,
        elapsed: start.elapsed(),
        critical_path: graph.critical_path(),
    };
    Ok((block, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::node::pending::PendingChain;
    use crate::node::Node;
    use cc_contracts::{Ballot, EtherDoc, SimpleAuction};
    use cc_primitives::hash::Hash256;
    use cc_vm::testing::CounterContract;
    use cc_vm::{Address, ArgValue, CallData};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const POOLS: [usize; 4] = [1, 2, 3, 8];

    fn tx(nonce: u64, sender: u64, to: &str, call: CallData) -> Transaction {
        let to = Address::from_name(to);
        Transaction::new(nonce, Address::from_index(sender), to, call, 1_000_000)
    }

    fn counter_world() -> World {
        let world = World::new();
        let counter = CounterContract::new(Address::from_name("counter"));
        world.deploy(Arc::new(counter));
        world
    }

    /// `n` increments from four senders: same-sender transactions
    /// conflict on the sender's count, all of them add to the total.
    fn counter_txs(base: u64, n: u64) -> Vec<Transaction> {
        let call = || CallData::new("increment", vec![ArgValue::Uint(1)]);
        (0..n)
            .map(|i| tx(base + i, i % 4, "counter", call()))
            .collect()
    }

    fn ballot_world() -> World {
        let (address, chair) = (Address::from_name("ballot"), Address::from_index(0));
        let ballot = Ballot::with_numbered_proposals(address, chair, 2);
        (1..=16).for_each(|v| ballot.seed_registered_voter(Address::from_index(v)));
        let world = World::new();
        world.deploy(Arc::new(ballot));
        world
    }

    /// Sixteen votes, then five voters voting again (those revert).
    fn ballot_txs() -> Vec<Transaction> {
        let vote = || CallData::new("vote", vec![ArgValue::Uint(0)]);
        let first = (1..=16).map(|v| tx(v, v, "ballot", vote()));
        let again = (1..=5).map(|v| tx(1000 + v, v, "ballot", vote()));
        first.chain(again).collect()
    }

    fn auction_world() -> World {
        let auction = SimpleAuction::new(Address::from_name("auction"), Address::from_index(0));
        (1..=12).for_each(|b| auction.seed_pending_return(Address::from_index(b), 100));
        auction.seed_highest_bid(Address::from_index(99), 1_000);
        let world = World::new();
        world.deploy(Arc::new(auction));
        world
    }

    /// Six newcomers raising the shared highest bid, twelve independent
    /// withdrawals.
    fn auction_txs() -> Vec<Transaction> {
        let bids = (0..6).map(|i| tx(0, 100 + i, "auction", CallData::nullary("bidPlusOne")));
        let withdrawals = (1..=12).map(|b| tx(0, b, "auction", CallData::nullary("withdraw")));
        bids.chain(withdrawals).collect()
    }

    fn etherdoc_world() -> World {
        let etherdoc = EtherDoc::new(Address::from_name("etherdoc"), Address::from_index(0));
        (1..=16).for_each(|i| {
            etherdoc.seed_document(EtherDoc::document_hash(i), Address::from_index(i))
        });
        let world = World::new();
        world.deploy(Arc::new(etherdoc));
        world
    }

    /// Eight transfers to the creator (all updating its tally), eight
    /// read-only existence checks.
    fn etherdoc_txs() -> Vec<Transaction> {
        let doc = |i| ArgValue::Bytes32(EtherDoc::document_hash(i));
        let to_creator = |i| vec![doc(i), ArgValue::Addr(Address::from_index(0))];
        let transfer = |i| CallData::new("transferDocument", to_creator(i));
        let transfers = (1..=8).map(|i| tx(0, i, "etherdoc", transfer(i)));
        let check = |i| CallData::new("hasDocument", vec![doc(i)]);
        let checks = (9..=16).map(|i| tx(0, i, "etherdoc", check(i)));
        transfers.chain(checks).collect()
    }

    /// Pools of each size.
    fn pools() -> Vec<Arc<WorkerPool>> {
        POOLS
            .map(|workers| Arc::new(WorkerPool::new(workers)))
            .into()
    }

    /// The kernel alone, on `pool` and a fresh world: the receipts, the
    /// traces, and the root once the overlay is flattened.
    fn replay_cell(
        pool: &WorkerPool,
        world: &World,
        block: &Block,
    ) -> (Vec<Receipt>, Vec<Trace>, Hash256) {
        let (receipts, traces, _) =
            replay(block, pool, |index, tx| execute(world, index, tx)).unwrap();
        world.mvcc().finalize_block();
        (receipts, traces, world.state_root())
    }

    /// The public entry point that replays on `pool`: a pending chain.
    fn accept(pool: &Arc<WorkerPool>, world: &World, block: &Block) -> Hash256 {
        let parent = block.header.parent_hash;
        let mut pending = PendingChain::in_order(world, parent, 1, Arc::clone(pool));
        let hash = pending.speculate(parent, block).unwrap();
        pending.commit(&hash).unwrap();
        world.state_root()
    }

    #[test]
    fn every_cell_replays_every_block_identically() {
        type Fixture = (&'static str, fn() -> World, Vec<Transaction>);
        let fixtures: [Fixture; 4] = [
            ("Ballot", ballot_world, ballot_txs()),
            ("SimpleAuction", auction_world, auction_txs()),
            ("EtherDoc", etherdoc_world, etherdoc_txs()),
            ("counter", counter_world, counter_txs(0, 30)),
        ];
        for (i, (name, build_world, txs)) in fixtures.into_iter().enumerate() {
            // Every miner takes its turn producing the block.
            let miner = match i % 3 {
                0 => Engine::speculative(3).unwrap(),
                1 => Engine::optimistic(3).unwrap(),
                _ => Engine::serial(),
            };
            let block = miner.mine(&build_world(), txs).unwrap().block;
            let root = block.header.state_root;
            let records = &block.schedule.as_ref().unwrap().profiles;
            let profile = |r: &cc_ledger::ProfileRecord| -> Trace {
                r.profile.locks.iter().map(|e| (e.lock, e.mode)).collect()
            };
            let profiles: Vec<Trace> = records.iter().map(profile).collect();
            for pool in pools() {
                let cell = format!("{name}, {} thread(s)", pool.workers());
                let (receipts, traces, replayed_root) = replay_cell(&pool, &build_world(), &block);
                assert_eq!(receipts, block.receipts, "{cell}");
                assert_eq!(traces, profiles, "{cell}");
                assert_eq!(replayed_root, root, "{cell}");
                assert_eq!(accept(&pool, &build_world(), &block), root, "{cell}");
            }
        }
    }

    #[test]
    fn published_order_is_checked_before_anything_runs() {
        // Eight increments from four senders, mined one at a time:
        // 0 → 4, 1 → 5, 2 → 6, 3 → 7, and 0 and 1 are unordered.
        let honest = Engine::serial()
            .mine(&counter_world(), counter_txs(0, 8))
            .unwrap()
            .block;
        let forge = |lie: fn(&mut Vec<usize>)| {
            let mut block = honest.clone();
            lie(&mut block.schedule.as_mut().unwrap().serial_order);
            block
        };
        let mut bare = honest.clone();
        bare.schedule = None;
        let forgeries = [
            ("out of range", forge(|order| order[3] = 999)),
            ("duplicate", forge(|order| order[3] = order[0])),
            ("another topological order", forge(|order| order.swap(0, 1))),
            ("no schedule", bare),
        ];
        for pool in pools() {
            for (case, block) in &forgeries {
                let case = format!("{case}, {} thread(s)", pool.workers());
                let ran = AtomicUsize::new(0);
                let world = counter_world();
                let err = replay(block, &pool, |index, tx| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    execute(&world, index, tx)
                })
                .unwrap_err();
                let typed = match err {
                    CoreError::MissingSchedule => block.schedule.is_none(),
                    CoreError::MalformedSchedule { .. } => block.schedule.is_some(),
                    _ => false,
                };
                assert!(typed, "{case}: {err}");
                assert_eq!(ran.into_inner(), 0, "{case}: nothing may run");
            }
        }
    }

    #[test]
    fn a_failing_transaction_is_a_rejection_naming_the_lowest_index() {
        let block = Engine::speculative(2)
            .unwrap()
            .mine(&counter_world(), counter_txs(0, 12))
            .unwrap()
            .block;
        for pool in pools() {
            let world = counter_world();
            let err = replay(&block, &pool, |index, tx| match index {
                5 | 9 => Err(format!("no {index}")),
                _ => execute(&world, index, tx),
            })
            .unwrap_err();
            let expected = CoreError::rejected("replay of transaction 5 failed: no 5");
            assert_eq!(err, expected, "{} thread(s)", pool.workers());
        }
    }

    /// An honest two-block counter chain, and its second block with every
    /// happens-before edge dropped and the schedule re-committed — what a
    /// dishonest miner hiding the same-sender conflicts would publish.
    fn chain_with_dropped_edges() -> (Vec<Block>, Block) {
        let mut producer = Node::builder()
            .world(counter_world())
            .config(EngineConfig::new().threads(2))
            .build()
            .unwrap();
        let mut mine = |base| {
            producer
                .mine_and_append(counter_txs(base, 12))
                .unwrap()
                .block
        };
        let blocks = vec![mine(0), mine(100)];
        let mut racy = blocks[1].clone();
        let schedule = racy.schedule.as_mut().unwrap();
        assert!(!schedule.edges.is_empty());
        schedule.edges.clear();
        racy.header.schedule_digest = schedule.digest();
        (blocks, racy)
    }

    #[test]
    fn a_dropped_edge_is_malformed_in_every_cell() {
        let (blocks, racy) = chain_with_dropped_edges();
        let genesis = blocks[0].header.parent_hash;
        for pool in pools() {
            let cell = format!("{} thread(s)", pool.workers());
            // The rejected block is dropped whole: its pending predecessor
            // still commits, and so does the honest block in its place.
            let world = counter_world();
            let mut pending = PendingChain::in_order(&world, genesis, 2, pool);
            let first = pending.speculate(genesis, &blocks[0]).unwrap();
            let err = pending.speculate(first, &racy).unwrap_err();
            assert!(
                matches!(err, CoreError::MalformedSchedule { .. }),
                "{cell}: {err}"
            );
            assert_eq!(pending.len(), 1, "{cell}");
            let second = pending.speculate(first, &blocks[1]).unwrap();
            pending.commit(&first).unwrap();
            assert_eq!(world.state_root(), blocks[0].header.state_root, "{cell}");
            pending.commit(&second).unwrap();
            assert_eq!(world.state_root(), blocks[1].header.state_root, "{cell}");
        }
    }

    #[test]
    fn fork_join_overlays_discard_and_commit_at_exact_boundaries() {
        let mut producer = Node::builder()
            .world(counter_world())
            .config(EngineConfig::new().threads(3))
            .build()
            .unwrap();
        let mut mine = |base| {
            producer
                .mine_and_append(counter_txs(base, 24))
                .unwrap()
                .block
        };
        let blocks = [mine(0), mine(100), mine(200)];
        let genesis = blocks[0].header.parent_hash;
        for pool in pools() {
            let cell = format!("{} thread(s)", pool.workers());
            let world = counter_world();
            let mut pending = PendingChain::in_order(&world, genesis, 3, pool);
            let first = pending.speculate(genesis, &blocks[0]).unwrap();
            let second = pending.speculate(first, &blocks[1]).unwrap();
            let third = pending.speculate(second, &blocks[2]).unwrap();

            // Dropping the middle block takes its descendant along and
            // nothing else: both replay again on the surviving overlay.
            let dropped = pending.discard(&second).unwrap();
            assert_eq!(dropped.len(), 2, "{cell}");
            assert_eq!(pending.tip_hash(), first, "{cell}");
            assert_eq!(
                pending.speculate(first, &blocks[1]).unwrap(),
                second,
                "{cell}"
            );
            assert_eq!(
                pending.speculate(second, &blocks[2]).unwrap(),
                third,
                "{cell}"
            );
            for (hash, block) in [first, second, third].iter().zip(&blocks) {
                pending.commit(hash).unwrap();
                assert_eq!(world.state_root(), block.header.state_root, "{cell}");
            }
            assert_eq!(world.state_root(), producer.world().state_root(), "{cell}");
        }
    }
}

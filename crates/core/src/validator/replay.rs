//! The one replay (paper Algorithm 2): re-execute a block's transactions
//! in an order its published schedule allows, collect receipts and lock
//! traces, compare. Every validator is a cell of one table —
//!
//! | order ↓ · target → | base world ([`Target::Base`]) | pending overlay ([`Target::Overlay`]) |
//! |---|---|---|
//! | [`Order::Published`] | a serial engine's `validate` | `PendingChain` under a serial engine |
//! | [`Order::ForkJoin`] | a concurrent engine's `validate` | `PendingChain` otherwise |
//!
//! — and all of them are [`Order::validate`]: well-formedness, [`replay`],
//! the verdict of [`checks`].

use super::checks;
use crate::error::CoreError;
use crate::fork_join::run_fork_join_on;
use crate::schedule::{check_serial_order, HappensBeforeGraph};
use crate::stats::ValidationReport;
use cc_ledger::{Block, Transaction};
use cc_primitives::pool::WorkerPool;
use cc_stm::profile::collapse_trace;
use cc_stm::{LockId, LockMode};
use cc_vm::{Receipt, TxnRef, World};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The abstract locks one replayed transaction would have held, strongest
/// mode per lock — comparable with a published profile's lock set.
pub(crate) type Trace = BTreeMap<LockId, LockMode>;

/// What one transaction's replay yields, or why it could not run.
type Replayed = Result<(Receipt, Trace), String>;

/// What a block's replay recorded: receipts and traces in block order,
/// and the graph a fork-join order was built from.
pub(crate) type Recorded = (Vec<Receipt>, Vec<Trace>, Option<HappensBeforeGraph>);

/// How a replay orders a block's transactions. An engine chooses once,
/// for every block its validator and its node's followers replay.
#[derive(Debug, Clone)]
pub(crate) enum Order {
    /// On the calling thread, in the published serial order — the
    /// serialization the block's receipts and state commit to — or in
    /// block order when the block carries no schedule. No trace checks:
    /// the blocks of a serial engine publish no lock profiles to check
    /// against.
    Published,
    /// As the fork-join program of the published happens-before graph:
    /// a transaction runs once its predecessors have, unordered ones
    /// concurrently on `pool`.
    ForkJoin {
        /// The pool the fork-join program runs on.
        pool: Arc<WorkerPool>,
        /// Whether the verdict checks the replayed traces against the
        /// schedule (lock profiles, hidden races). Off: ablation only.
        check_traces: bool,
    },
}

/// Where a replay's effects land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Target {
    /// The world's base state, through lock-free replay transactions. The
    /// order already keeps conflicting transactions apart, so there is
    /// nobody to exclude and nothing to retry.
    Base,
    /// Multi-version transactions whose versions stay stacked above the
    /// base as a pending overlay (see [`crate::node::pending`]).
    Overlay,
}

impl Target {
    /// Executes transaction `index` of a block on `world`.
    fn execute(self, world: &World, index: usize, tx: &Transaction) -> Replayed {
        let call = |txn: TxnRef<'_>| {
            let executed = world.execute_in(txn, index, tx.msg(), tx.to, &tx.call, tx.gas_limit);
            executed.map_err(|e| e.to_string())
        };
        match self {
            Target::Base => {
                let txn = world.stm().begin_replay();
                let receipt = call(TxnRef::Stm(&txn))?;
                // Consuming the transaction avoids cloning the trace and
                // closes it like a commit.
                Ok((receipt, collapse_trace(&txn.into_trace())))
            }
            Target::Overlay => {
                let txn = world.mvcc().begin();
                let receipt = call(TxnRef::Mvcc(&txn))?;
                // Every conflicting predecessor committed before this
                // snapshot was taken, so first-committer-wins can only
                // fail when the schedule leaves a conflicting pair
                // unordered. The footprint already carries the strongest
                // mode per lock, exactly what the trace checks compare.
                let commit = txn.commit().map_err(|e| {
                    format!("{e} (a data race: the published schedule does not order it after a conflicting transaction)")
                })?;
                Ok((receipt, commit.footprint.into_iter().collect()))
            }
        }
    }
}

/// Runs `execute` once per transaction of `block` in the given `order`
/// and returns what it recorded.
///
/// # Errors
///
/// Before anything runs: [`CoreError::MissingSchedule`] when a fork-join
/// order finds no schedule, [`CoreError::MalformedSchedule`] when the
/// published order does not cover the block's transactions exactly once
/// or contradicts the published edges. Afterwards
/// [`CoreError::BlockRejected`], naming the lowest-index transaction
/// whose `execute` failed.
pub(crate) fn replay(
    block: &Block,
    order: &Order,
    execute: impl Fn(usize, &Transaction) -> Replayed + Sync,
) -> Result<Recorded, CoreError> {
    let txs = &block.transactions;
    // One slot per transaction; a failure stays in its slot instead of
    // unwinding through the pool.
    let slots: Vec<OnceLock<Replayed>> = txs.iter().map(|_| OnceLock::new()).collect();
    let run = |index: usize| {
        let _ = slots[index].set(execute(index, &txs[index]));
    };
    let graph = match order {
        Order::Published => {
            match &block.schedule {
                Some(schedule) => {
                    check_serial_order(&schedule.serial_order, txs.len())?;
                    schedule.serial_order.iter().for_each(|&index| run(index));
                }
                None => (0..txs.len()).for_each(run),
            }
            None
        }
        Order::ForkJoin { pool, .. } => {
            let schedule = block.schedule.as_ref().ok_or(CoreError::MissingSchedule)?;
            let graph = HappensBeforeGraph::from_metadata(schedule, txs.len())?;
            run_fork_join_on(pool, &graph, run);
            Some(graph)
        }
    };
    let replayed = slots.into_iter().enumerate().map(|(index, slot)| {
        let outcome = slot.into_inner();
        outcome
            .unwrap_or_else(|| Err("it was never run".into()))
            .map_err(|e| CoreError::rejected(format!("replay of transaction {index} failed: {e}")))
    });
    let (receipts, traces) = replayed.collect::<Result<Vec<_>, _>>()?.into_iter().unzip();
    Ok((receipts, traces, graph))
}

impl Order {
    /// The fork-join order on `pool`, with the trace checks on.
    pub(crate) fn fork_join(pool: Arc<WorkerPool>) -> Self {
        let check_traces = true;
        Order::ForkJoin { pool, check_traces }
    }

    /// Threads a replay in this order runs on.
    pub(crate) fn threads(&self) -> usize {
        match self {
            Order::Published => 1,
            Order::ForkJoin { pool, .. } => pool.workers(),
        }
    }

    /// Validates `block` on `world`: the structural prologue, the replay
    /// in the cell this order × `target` names, and the verdict —
    /// including the state root when the replay landed on the base, where
    /// there is one to hash. (On the overlay the report's root is the
    /// block's claim, checked when the overlay is flattened.)
    ///
    /// # Errors
    ///
    /// [`CoreError::MissingSchedule`] / [`CoreError::MalformedSchedule`]
    /// when the order cannot be built from the block;
    /// [`CoreError::BlockRejected`] when the block is dishonest — the
    /// only one that can leave effects of the block behind.
    pub(crate) fn validate(
        &self,
        target: Target,
        world: &World,
        block: &Block,
    ) -> Result<ValidationReport, CoreError> {
        let start = Instant::now();
        checks::well_formed(block)?;
        let execute = |index: usize, tx: &Transaction| target.execute(world, index, tx);
        let (receipts, traces, graph) = replay(block, self, execute)?;
        let published = match self {
            Order::ForkJoin { check_traces, .. } if *check_traces => {
                block.schedule.as_ref().zip(graph.as_ref())
            }
            _ => None,
        };
        let state_root = (target == Target::Base).then(|| world.state_root());
        checks::verdict(block, published, &traces, &receipts, state_root)?;
        let n = block.transactions.len();
        Ok(ValidationReport {
            threads: self.threads(),
            transactions: n,
            state_root: state_root.unwrap_or(block.header.state_root),
            elapsed: start.elapsed(),
            critical_path: graph.map_or(n, |graph| graph.critical_path()),
        })
    }
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

    /// Every order of the table: the published one, and fork-join on
    /// pools of each size.
    fn orders() -> Vec<Order> {
        let fork_join = |workers| Order::fork_join(Arc::new(WorkerPool::new(workers)));
        let mut orders = vec![Order::Published];
        orders.extend(POOLS.map(fork_join));
        orders
    }

    /// The kernel alone, in the cell `order` × `target` of a fresh world:
    /// the receipts, the traces, and the root once the effects are in the
    /// base.
    fn replay_cell(
        order: &Order,
        target: Target,
        world: &World,
        block: &Block,
    ) -> (Vec<Receipt>, Vec<Trace>, Hash256) {
        let execute = |index: usize, tx: &Transaction| target.execute(world, index, tx);
        let (receipts, traces, _) = replay(block, order, execute).unwrap();
        world.mvcc().finalize_block();
        (receipts, traces, world.state_root())
    }

    /// The public entry point that names the cell `order` × `target`: an
    /// engine replaying in `order`, or a pending chain.
    fn accept(order: &Order, target: Target, world: &World, block: &Block) -> Hash256 {
        match (target, order) {
            (Target::Base, Order::Published) => {
                let report = Engine::serial().validate(world, block).unwrap();
                assert_eq!(report.threads, 1);
                report.state_root
            }
            (Target::Base, Order::ForkJoin { .. }) => {
                let engine = Engine::speculative(order.threads()).unwrap();
                let report = engine.validate(world, block).unwrap();
                assert_eq!(report.threads, order.threads());
                report.state_root
            }
            (Target::Overlay, _) => {
                let parent = block.header.parent_hash;
                let mut pending = PendingChain::new(world, parent, 1).in_order(order.clone());
                let hash = pending.speculate(parent, block).unwrap();
                pending.commit(&hash).unwrap();
                world.state_root()
            }
        }
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
            // Both concurrent miners take turns producing the block.
            let miner = match i % 2 {
                0 => Engine::speculative(3),
                _ => Engine::optimistic(3),
            };
            let mined = miner.unwrap().mine(&build_world(), txs);
            let block = mined.unwrap().block;
            let root = block.header.state_root;
            let (_, reference, _) =
                replay_cell(&Order::Published, Target::Base, &build_world(), &block);
            for order in orders() {
                for target in [Target::Base, Target::Overlay] {
                    let cell = format!("{name}, {target:?}, {} thread(s)", order.threads());
                    let (receipts, traces, replayed_root) =
                        replay_cell(&order, target, &build_world(), &block);
                    assert_eq!(receipts, block.receipts, "{cell}");
                    assert_eq!(traces, reference, "{cell}");
                    assert_eq!(replayed_root, root, "{cell}");
                    assert_eq!(
                        accept(&order, target, &build_world(), &block),
                        root,
                        "{cell}"
                    );
                }
            }
        }
    }

    #[test]
    fn published_order_is_checked_before_anything_runs() {
        let honest = Engine::speculative(2)
            .unwrap()
            .mine(&counter_world(), counter_txs(0, 4))
            .unwrap()
            .block;
        let forge = |entry: usize, value: usize| {
            let mut block = honest.clone();
            block.schedule.as_mut().unwrap().serial_order[entry] = value;
            block
        };
        let duplicate = honest.schedule.as_ref().unwrap().serial_order[0];
        for (case, block) in [
            ("out of range", forge(3, 999)),
            ("duplicate", forge(3, duplicate)),
        ] {
            let ran = AtomicUsize::new(0);
            let world = counter_world();
            let err = replay(&block, &Order::Published, |index, tx| {
                ran.fetch_add(1, Ordering::Relaxed);
                Target::Base.execute(&world, index, tx)
            })
            .unwrap_err();
            assert!(
                matches!(err, CoreError::MalformedSchedule { .. }),
                "{case}: {err}"
            );
            assert!(
                err.to_string().contains("not a permutation"),
                "{case}: {err}"
            );
            assert_eq!(ran.into_inner(), 0, "{case}: nothing may run");
        }

        // A block with no schedule at all replays in block order.
        let mut bare = Engine::serial()
            .mine(&counter_world(), counter_txs(0, 4))
            .unwrap()
            .block;
        bare.schedule = None;
        bare.header.schedule_digest = Hash256::ZERO;
        for target in [Target::Base, Target::Overlay] {
            let root = accept(&Order::Published, target, &counter_world(), &bare);
            assert_eq!(root, bare.header.state_root, "{target:?}");
        }
    }

    #[test]
    fn a_failing_transaction_is_a_rejection_naming_the_lowest_index() {
        let block = Engine::speculative(2)
            .unwrap()
            .mine(&counter_world(), counter_txs(0, 12))
            .unwrap()
            .block;
        for order in orders() {
            let world = counter_world();
            let err = replay(&block, &order, |index, tx| match index {
                5 | 9 => Err(format!("no {index}")),
                _ => Target::Base.execute(&world, index, tx),
            })
            .unwrap_err();
            let expected = CoreError::rejected("replay of transaction 5 failed: no 5");
            assert_eq!(err, expected, "{} thread(s)", order.threads());
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
    fn a_dropped_edge_is_a_data_race_in_every_fork_join_cell() {
        let (blocks, racy) = chain_with_dropped_edges();
        let genesis = blocks[0].header.parent_hash;
        for order in orders().into_iter().skip(1) {
            let cell = format!("{} thread(s)", order.threads());

            let world = counter_world();
            accept(&order, Target::Base, &world, &blocks[0]);
            let err = order.validate(Target::Base, &world, &racy).unwrap_err();
            assert!(err.to_string().contains("data race"), "base, {cell}: {err}");

            // On the overlay the rejected block is dropped whole: its
            // pending predecessor still commits, and so does the honest
            // block in its place.
            let world = counter_world();
            let mut pending = PendingChain::new(&world, genesis, 2).in_order(order);
            let first = pending.speculate(genesis, &blocks[0]).unwrap();
            let err = pending.speculate(first, &racy).unwrap_err();
            assert!(
                err.to_string().contains("data race"),
                "overlay, {cell}: {err}"
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
        for order in orders().into_iter().skip(1) {
            let cell = format!("{} thread(s)", order.threads());
            let world = counter_world();
            let mut pending = PendingChain::new(&world, genesis, 3).in_order(order);
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

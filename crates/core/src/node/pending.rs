//! Speculative pending states: validate block N+1 against block N's
//! still-uncommitted post-state.
//!
//! Every validation is a [`PendingChain`]: [`crate::Engine::validate`]
//! and [`crate::node::Node::validate_and_append`] are one-block chains,
//! the follower pipeline a window of them. It replays each incoming block
//! through the validators' one kernel (`validator::replay`) — the block's
//! transactions run as optimistic multi-version transactions (see
//! `cc_mvcc`) in the fork-join order of the graph the block's lock
//! profiles derive, and the
//! versions they install stay in place as a **pending overlay** stacked
//! above the base state instead of being flattened. The next block's
//! replay reads *through* that overlay — its snapshots see the
//! predecessor's uncommitted post-state — so with a window of two or more
//! validation of N+1 can proceed while N is still being sealed.
//!
//! Each pending block records a **boundary**: the oracle's newest commit
//! timestamp once its replay has joined. Every version the block installed
//! is at or below its boundary and above its predecessor's, which makes
//! the overlay algebra exact:
//!
//! * [`PendingChain::commit`] flattens the *oldest* overlay into the
//!   base ([`cc_mvcc::MvccRuntime::finalize_below`] at its boundary) and
//!   only then checks the block's state root — roots read the base, so
//!   the check is deferred to commit time.
//! * [`PendingChain::discard`] drops a pending block *and every pending
//!   descendant* ([`cc_mvcc::MvccRuntime::discard_above`] at the
//!   predecessor's boundary) without touching the base — the rollback
//!   path when a block fails validation or its seal fails.
//!
//! # Invariants
//!
//! * **In-order commit.** Only the oldest pending block can commit; the
//!   base always holds a chain-prefix state.
//! * **Bounded speculation.** At most `max_in_flight` overlays exist at
//!   once; [`PendingChain::speculate`] refuses further blocks until one
//!   commits or is discarded.
//! * **Exclusive use.** The workers of *one* fork-join run install
//!   versions concurrently — the derived edges order every conflicting
//!   pair, so the installs land in a schedule-consistent order — and
//!   nothing else executes on the world meanwhile. The boundary is read,
//!   and `finalize_below` / `discard_above` are called, only between
//!   runs, after the last one has joined; MVCC garbage collection
//!   ([`cc_mvcc::MvccRuntime::collect`]) would merge overlay versions
//!   across boundaries and must not run while overlays are pending. The
//!   follower pipeline drives the chain from one thread, one run at a
//!   time, which satisfies all three.
//!
//! A block caught *before* its versions reach the base (a speculate-time
//! rejection) leaves the trusted state intact: the partial overlay is
//! discarded and earlier pending blocks remain committable. A block
//! caught *at* commit (a forged state root) has already polluted the
//! base; the caller must treat the world as stale — the one rejection
//! that stales a node.

use crate::error::CoreError;
use crate::stats::ValidationReport;
use crate::validator::checks;
use crate::validator::replay::Order;
use cc_ledger::{Block, WellFormedBlock};
use cc_mvcc::Timestamp;
use cc_primitives::hash::Hash256;
use cc_primitives::pool::WorkerPool;
use cc_vm::World;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// One speculatively validated block awaiting commit.
#[derive(Debug)]
struct PendingEntry {
    block: WellFormedBlock,
    hash: Hash256,
    /// Newest commit timestamp of the block's replay; every version the
    /// block installed is at or below it (and above the predecessor's).
    boundary: Timestamp,
    /// What the block's replay reported; its root is the block's claim
    /// until commit holds the flattened base to it.
    report: ValidationReport,
}

/// A read-only view of one pending block (see
/// [`PendingChain::pending_state`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingState {
    /// The pending block's hash.
    pub hash: Hash256,
    /// The pending block's number.
    pub number: u64,
    /// Transactions the block carries.
    pub transactions: usize,
    /// Position in the pending queue: 1 is the oldest (next to commit).
    pub depth: usize,
}

/// The bounded queue of speculative pending states over one world. See
/// the [module docs](self) for the overlay model and invariants.
#[derive(Debug)]
pub struct PendingChain<'w> {
    world: &'w World,
    max_in_flight: usize,
    /// How speculation orders a block's replay.
    order: Order,
    /// Hash of the last *committed* block — what the base state answers
    /// for.
    committed_hash: Hash256,
    /// Boundary of the committed base: versions at or below it have been
    /// flattened (or never existed).
    base_boundary: Timestamp,
    entries: VecDeque<PendingEntry>,
}

impl<'w> PendingChain<'w> {
    /// Creates a pending chain over `world`, whose base state is the
    /// post-state of the block `head_hash`, holding at most
    /// `max_in_flight` pending overlays (clamped to at least 1). It
    /// replays each block as its fork-join program on a one-worker pool
    /// of its own.
    pub fn new(world: &'w World, head_hash: Hash256, max_in_flight: usize) -> Self {
        let order = Order::fork_join(Arc::new(WorkerPool::new(1)));
        PendingChain::in_order(world, head_hash, max_in_flight, order)
    }

    /// [`PendingChain::new`] replaying in an engine's `order` instead: on
    /// its shared pool, with its trace checks.
    pub(crate) fn in_order(
        world: &'w World,
        head_hash: Hash256,
        max_in_flight: usize,
        order: Order,
    ) -> Self {
        PendingChain {
            world,
            max_in_flight: max_in_flight.max(1),
            order,
            committed_hash: head_hash,
            base_boundary: world.mvcc().oracle().latest(),
            entries: VecDeque::new(),
        }
    }

    /// Number of pending (speculated, uncommitted) blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no block is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the chain holds `max_in_flight` overlays and must commit
    /// or discard before speculating further.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.max_in_flight
    }

    /// Hash of the newest pending block (the speculation point), or of
    /// the committed head when nothing is pending.
    pub fn tip_hash(&self) -> Hash256 {
        self.entries
            .back()
            .map(|e| e.hash)
            .unwrap_or(self.committed_hash)
    }

    /// Hash of the last committed block (what the base state reflects).
    pub fn committed_hash(&self) -> Hash256 {
        self.committed_hash
    }

    /// Hash of the oldest pending block — the only one
    /// [`PendingChain::commit`] accepts — or `None` when nothing is
    /// pending.
    pub fn oldest_hash(&self) -> Option<Hash256> {
        self.entries.front().map(|e| e.hash)
    }

    /// The pending block `hash`, if any.
    pub fn pending_state(&self, hash: &Hash256) -> Option<PendingState> {
        self.entries
            .iter()
            .position(|e| e.hash == *hash)
            .map(|pos| {
                let entry = &self.entries[pos];
                PendingState {
                    hash: entry.hash,
                    number: entry.block.header.number,
                    transactions: entry.block.transactions.len(),
                    depth: pos + 1,
                }
            })
    }

    /// Boundary the next speculation's rollback would cut back to: the
    /// newest pending boundary, or the base when nothing is pending.
    fn tip_boundary(&self) -> Timestamp {
        self.entries
            .back()
            .map(|e| e.boundary)
            .unwrap_or(self.base_boundary)
    }

    /// Speculatively validates `block` on top of the pending state
    /// `prev` (which must be the current tip) and, on success, parks it
    /// as a new pending overlay. Returns the block's hash — the handle
    /// for [`PendingChain::pending_state`], [`PendingChain::commit`] and
    /// [`PendingChain::discard`].
    ///
    /// Replay is the validators' one kernel: the transactions run as
    /// optimistic multi-version transactions in the fork-join order of
    /// the graph the block's lock profiles derive, and everything that
    /// does not require the flattened base is checked — well-formedness,
    /// parent linkage, the published schedule against the derived one,
    /// receipts, and (unless disabled) the lock traces. The state root is
    /// checked at [`PendingChain::commit`], where the base exists to
    /// hash.
    ///
    /// # Errors
    ///
    /// [`CoreError::BlockRejected`] when the chain is full, `prev` is
    /// not the tip, the block does not link, or replay contradicts the
    /// block's commitments; [`CoreError::MissingSchedule`] /
    /// [`CoreError::MalformedSchedule`] when no fork-join program can be
    /// derived from the schedule. A rejection discards the partial overlay: the
    /// already-pending predecessors stay committable and the base is
    /// untouched.
    pub fn speculate(&mut self, prev: Hash256, block: &Block) -> Result<Hash256, CoreError> {
        self.speculate_owned(prev, block.clone())
    }

    /// [`PendingChain::speculate`] for a caller that owns the block: it is
    /// parked as it is, not copied.
    pub(crate) fn speculate_owned(
        &mut self,
        prev: Hash256,
        block: Block,
    ) -> Result<Hash256, CoreError> {
        if self.is_full() {
            return Err(CoreError::rejected(format!(
                "pending chain is full ({} blocks in flight); commit or discard before speculating further",
                self.entries.len()
            )));
        }
        if prev != self.tip_hash() {
            return Err(CoreError::rejected(
                "speculation must extend the pending tip",
            ));
        }
        if block.header.parent_hash != prev {
            return Err(CoreError::rejected("block does not extend the pending tip"));
        }
        // The workers of the one fork-join run install versions
        // concurrently; the boundaries around it are read, and cut back
        // to, only here — before the run starts and after it has joined.
        let rollback = self.tip_boundary();
        let runtime = self.world.mvcc();
        let (block, report) = self
            .order
            .validate(self.world, block)
            .inspect_err(|_| runtime.discard_above(rollback))?;
        let hash = block.hash();
        self.entries.push_back(PendingEntry {
            block,
            hash,
            boundary: runtime.oracle().latest(),
            report,
        });
        Ok(hash)
    }

    /// Commits the **oldest** pending block (which must be `hash`):
    /// flattens its overlay into the base state, then checks the block's
    /// state root against the freshly flattened base. Returns the
    /// committed block for the caller to append/seal.
    ///
    /// # Errors
    ///
    /// [`CoreError::BlockRejected`] when `hash` is not the oldest
    /// pending block (commits are in-order), or when the flattened state
    /// root contradicts the block's commitment. A root mismatch has
    /// already polluted the base: every pending descendant is discarded
    /// and the caller must treat the world as stale.
    pub fn commit(&mut self, hash: &Hash256) -> Result<Block, CoreError> {
        let (block, _) = self.commit_reported(hash)?;
        Ok(block.into_block())
    }

    /// [`PendingChain::commit`], also handing back the block's validation
    /// report, whose time now includes the flatten and the root check.
    pub(crate) fn commit_reported(
        &mut self,
        hash: &Hash256,
    ) -> Result<(WellFormedBlock, ValidationReport), CoreError> {
        let Some(oldest) = self.oldest_hash() else {
            return Err(CoreError::rejected("no block is pending"));
        };
        let Some(entry) = self.entries.pop_front_if(|entry| entry.hash == *hash) else {
            return Err(CoreError::rejected(format!(
                "pending blocks commit in order: expected block {oldest}, not {hash}"
            )));
        };
        let flatten = Instant::now();
        let runtime = self.world.mvcc();
        runtime.finalize_below(entry.boundary);
        let state_root = self.world.state_root_on(&self.order.pool);
        if let Some(reason) = checks::state_root_mismatch(&entry.block, state_root) {
            // The bad block's effects are in the base now; nothing built
            // on them can be trusted. Drop every pending descendant and
            // report — the caller stales the node.
            runtime.discard_above(entry.boundary);
            self.entries.clear();
            return Err(CoreError::rejected(reason));
        }
        self.committed_hash = entry.hash;
        self.base_boundary = entry.boundary;
        let mut report = entry.report;
        report.elapsed += flatten.elapsed();
        Ok((entry.block, report))
    }

    /// Discards the pending block `hash` **and every pending descendant**,
    /// rolling the versioned state back to the predecessor's boundary.
    /// The base state is untouched; earlier pending blocks stay
    /// committable and speculation can resume from the new tip. Returns
    /// the discarded blocks, oldest first.
    ///
    /// # Errors
    ///
    /// [`CoreError::BlockRejected`] when `hash` is not pending.
    pub fn discard(&mut self, hash: &Hash256) -> Result<Vec<Block>, CoreError> {
        let Some(pos) = self.entries.iter().position(|e| e.hash == *hash) else {
            return Err(CoreError::rejected(format!("block {hash} is not pending")));
        };
        let rollback = match pos {
            0 => self.base_boundary,
            _ => self.entries[pos - 1].boundary,
        };
        self.world.mvcc().discard_above(rollback);
        let discarded = self.entries.drain(pos..);
        Ok(discarded.map(|e| e.block.into_block()).collect())
    }

    /// Discards every pending block (see [`PendingChain::discard`]).
    /// Returns the discarded blocks, oldest first; empty when nothing
    /// was pending.
    pub fn discard_all(&mut self) -> Vec<Block> {
        self.world.mvcc().discard_above(self.base_boundary);
        let discarded = self.entries.drain(..);
        discarded.map(|e| e.block.into_block()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::node::Node;
    use cc_ledger::Transaction;
    use cc_vm::testing::CounterContract;
    use cc_vm::{Address, ArgValue, CallData};
    use std::sync::Arc;

    fn fresh_world() -> World {
        let world = World::new();
        world.deploy(Arc::new(CounterContract::new(Address::from_name(
            "counter-pending",
        ))));
        world
    }

    fn block_txs(base: u64, n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                Transaction::new(
                    base + i,
                    Address::from_index(i % 3),
                    Address::from_name("counter-pending"),
                    CallData::new("increment", vec![ArgValue::Uint(1)]),
                    1_000_000,
                )
            })
            .collect()
    }

    /// Three blocks mined by a speculative-STM producer.
    fn mined_blocks() -> (Node, Vec<Block>) {
        let mut producer = Node::builder()
            .world(fresh_world())
            .config(EngineConfig::new().threads(2))
            .build()
            .unwrap();
        let blocks = (0..3u64)
            .map(|i| {
                producer
                    .mine_and_append(block_txs(i * 100, 6))
                    .unwrap()
                    .block
            })
            .collect();
        (producer, blocks)
    }

    #[test]
    fn speculate_then_commit_in_order_reaches_the_producer_state() {
        let (producer, blocks) = mined_blocks();
        let world = fresh_world();
        let mut pending = PendingChain::new(&world, blocks[0].header.parent_hash, 3);

        // All three blocks validate before any of them commits: block 2
        // replays against block 1's uncommitted overlay, and so on.
        let mut prev = pending.tip_hash();
        let hashes: Vec<Hash256> = blocks
            .iter()
            .map(|block| {
                let hash = pending.speculate(prev, block).unwrap();
                prev = hash;
                hash
            })
            .collect();
        assert_eq!(pending.len(), 3);
        assert!(pending.is_full());
        assert_eq!(
            pending.pending_state(&hashes[1]),
            Some(PendingState {
                hash: hashes[1],
                number: 2,
                transactions: 6,
                depth: 2,
            })
        );
        // The base still answers for genesis while all blocks are
        // pending.
        assert_ne!(world.state_root(), blocks[0].header.state_root);

        for (hash, block) in hashes.iter().zip(&blocks) {
            let committed = pending.commit(hash).unwrap();
            assert_eq!(committed.hash(), *hash);
            assert_eq!(world.state_root(), block.header.state_root);
            assert_eq!(pending.committed_hash(), *hash);
        }
        assert!(pending.is_empty());
        assert_eq!(world.state_root(), producer.world().state_root());
    }

    #[test]
    fn misuse_is_rejected_without_corrupting_pending_blocks() {
        let (_, blocks) = mined_blocks();
        let world = fresh_world();
        let mut pending = PendingChain::new(&world, blocks[0].header.parent_hash, 2);

        let first = pending.speculate(pending.tip_hash(), &blocks[0]).unwrap();
        // Wrong prev: block 2 does not sit on block 0's parent.
        let err = pending
            .speculate(blocks[0].header.parent_hash, &blocks[1])
            .unwrap_err();
        assert!(err.to_string().contains("tip"), "got: {err}");
        let second = pending.speculate(first, &blocks[1]).unwrap();
        // Full at max_in_flight = 2.
        let err = pending.speculate(second, &blocks[2]).unwrap_err();
        assert!(err.to_string().contains("full"), "got: {err}");
        // Commits are in-order only.
        let err = pending.commit(&second).unwrap_err();
        assert!(err.to_string().contains("in order"), "got: {err}");
        // Unknown hashes are not pending.
        assert!(pending.pending_state(&Hash256::ZERO).is_none());
        assert!(pending.discard(&Hash256::ZERO).is_err());

        // Nothing above was corrupted: the queue drains normally.
        pending.commit(&first).unwrap();
        pending.commit(&second).unwrap();
        assert_eq!(world.state_root(), blocks[1].header.state_root);
    }

    #[test]
    fn discard_drops_the_block_and_all_descendants() {
        let (_, blocks) = mined_blocks();
        let world = fresh_world();
        let mut pending = PendingChain::new(&world, blocks[0].header.parent_hash, 3);

        let first = pending.speculate(pending.tip_hash(), &blocks[0]).unwrap();
        let second = pending.speculate(first, &blocks[1]).unwrap();
        let third = pending.speculate(second, &blocks[2]).unwrap();

        let dropped = pending.discard(&second).unwrap();
        assert_eq!(
            dropped.iter().map(Block::hash).collect::<Vec<_>>(),
            vec![second, third],
            "the block and its descendant fall together"
        );
        assert_eq!(pending.len(), 1);
        assert_eq!(pending.tip_hash(), first);

        // The surviving prefix is intact: re-speculate the discarded
        // blocks and drain — byte-identical post-state.
        let second = pending.speculate(first, &blocks[1]).unwrap();
        let third = pending.speculate(second, &blocks[2]).unwrap();
        for hash in [first, second, third] {
            pending.commit(&hash).unwrap();
        }
        assert_eq!(world.state_root(), blocks[2].header.state_root);
    }

    #[test]
    fn speculate_time_rejection_keeps_the_base_trusted() {
        let (_, blocks) = mined_blocks();
        let world = fresh_world();
        let mut pending = PendingChain::new(&world, blocks[0].header.parent_hash, 3);
        let first = pending.speculate(pending.tip_hash(), &blocks[0]).unwrap();

        // Tamper with a receipt and re-commit the body so the block
        // stays well-formed; the replayed receipts then contradict it.
        let mut tampered = blocks[1].clone();
        tampered.receipts[2].gas_used += 1;
        let rebuilt = Block::build(
            tampered.header.parent_hash,
            tampered.header.number,
            tampered.transactions.clone(),
            tampered.receipts.clone(),
            tampered.header.state_root,
            tampered.schedule.clone(),
        );
        let err = pending.speculate(first, &rebuilt).unwrap_err();
        assert!(err.to_string().contains("receipt"), "got: {err}");

        // The partial overlay was discarded: the honest block still
        // validates and the whole chain drains to the honest state.
        let second = pending.speculate(first, &blocks[1]).unwrap();
        pending.commit(&first).unwrap();
        pending.commit(&second).unwrap();
        assert_eq!(world.state_root(), blocks[1].header.state_root);
    }

    #[test]
    fn forged_state_root_is_caught_at_commit_and_drops_descendants() {
        let (_, blocks) = mined_blocks();
        let world = fresh_world();
        let mut pending = PendingChain::new(&world, blocks[0].header.parent_hash, 3);

        // A forged state root passes every speculate-time check (the
        // body and receipts are honest) and must be caught when the
        // overlay flattens.
        let mut forged = blocks[0].clone();
        forged.header.state_root = cc_primitives::sha256(b"forged");
        let first = pending.speculate(pending.tip_hash(), &forged).unwrap();
        // Its descendant links to the forged header.
        let mut child = blocks[1].clone();
        child.header.parent_hash = forged.hash();
        let second = pending.speculate(first, &child).unwrap();
        assert_eq!(pending.len(), 2);

        let err = pending.commit(&first).unwrap_err();
        assert!(err.to_string().contains("state root"), "got: {err}");
        assert!(
            pending.is_empty(),
            "descendants of the bad block are discarded"
        );
        assert!(pending.pending_state(&second).is_none());
    }

    #[test]
    fn serial_blocks_pass_trace_checks_and_bare_ones_are_missing_a_schedule() {
        let mut producer = Node::builder()
            .world(fresh_world())
            .engine(crate::engine::Engine::serial())
            .build()
            .unwrap();
        let block = producer.mine_and_append(block_txs(0, 5)).unwrap().block;
        let mut bare = block.clone();
        bare.schedule = None;
        bare.header.schedule_digest = Hash256::ZERO;

        // A serially-mined block publishes its lock profiles like any
        // other, so the strict chain replays it. One without a schedule is
        // refused with trace checks on or off, before anything runs, and
        // the honest block still follows.
        let world = fresh_world();
        let parent = block.header.parent_hash;
        let lenient = Order {
            check_traces: false,
            ..Order::fork_join(Arc::new(WorkerPool::new(2)))
        };
        let mut lenient = PendingChain::in_order(&world, parent, 2, lenient);
        let mut strict = PendingChain::new(&world, parent, 2);
        for pending in [&mut lenient, &mut strict] {
            let err = pending.speculate(parent, &bare).unwrap_err();
            assert_eq!(err, CoreError::MissingSchedule);
            assert!(pending.is_empty());
        }
        let hash = strict.speculate(parent, &block).unwrap();
        strict.commit(&hash).unwrap();
        assert_eq!(world.state_root(), block.header.state_root);
    }
}

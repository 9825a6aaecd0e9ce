//! The commit pipeline: one stage that appends, seals and snapshots
//! blocks, fed by a block *source*.
//!
//! Every way a node's chain grows — [`Node::mine_pending`],
//! [`Node::mine_and_append`], [`Node::validate_and_append`],
//! [`Node::run_pipeline`], [`Node::run_follower_pipeline`] and the replay
//! inside [`Node::recover`] — is the same loop: ask the source for the
//! next block (its effects already in the base world), append it, seal it
//! into the WAL, snapshot when the interval elapses, and on the way out
//! run one failure epilogue. What differs is the source and the *window*
//! (the two pipelined entry points, thin as they are, live here with
//! their configs and their own stage diagrams):
//!
//! ```text
//!   window 1:   [next N][seal+fsync N][next N+1][seal+fsync N+1]          (all on the caller)
//!
//!   window ≥ 2: [next N][next N+1][next N+2] …                            (caller)
//!                       [seal+fsync N][seal+fsync N+1]                    (cc-durability worker)
//! ```
//!
//! * **Sources.** [`Produce`] mines a batch (the caller's, or the
//!   mempool's next) on the head. [`Follow`] replays received blocks
//!   through a [`PendingChain`] in the engine's replay order — one block
//!   for [`Node::validate_and_append`], a stream for the follower
//!   pipeline and recovery: block N+1 validates against N's uncommitted
//!   overlay, and the oldest overlay is flattened (and held to its header
//!   root) when the stage asks for the next block.
//! * **Window.** With a window of one, or with durability off, the seal
//!   runs inline on the caller: no thread, no channel. With a wider
//!   window the stage hands each appended block to a durability worker
//!   over a bounded channel and the caller is already producing block N+1
//!   while block N's fsync runs. The window is not an option of the
//!   stage: the one-block calls are window 1, `run_pipeline` is
//!   [`PIPELINED_WINDOW`], the follower's is its speculation depth.
//!
//! # Invariants
//!
//! * **In-order commit.** Blocks append, seal and acknowledge in chain
//!   order (one worker, FIFO channel; overlays flatten oldest-first), so
//!   the durable prefix is always a chain prefix, and only fully
//!   validated blocks — state root included — reach the WAL.
//! * **Bounded speculation.** At most `window` blocks are appended but
//!   not yet durable; a full hand-off channel blocks the caller
//!   (back-pressure, not queueing). A follower holds at most `window`
//!   overlays on top of that.
//! * **Stale on persist failure.** Whatever fails once the base world has
//!   moved — a source's replay or mining, the append, a seal, a snapshot,
//!   a worker that panics — takes the one epilogue: the node is marked
//!   stale, the in-memory chain is truncated to the last durable block
//!   (never advertising blocks a crash would forget), pending overlays
//!   are discarded, and the error is returned. [`Node::recover`] is the
//!   exit. A block a source turns away *before* touching the base world
//!   (wrong parent, wrong number, any rejection of its replay) leaves the
//!   node fresh at the last accepted block; only a forged state root,
//!   found once the overlay is flattened, stales it.
//! * **Quiesced snapshots.** A periodic snapshot is a checkpoint by
//!   root: it reads the chain (the prefix through the head and the
//!   head's state root), never the world, so it costs O(chain prefix)
//!   and not O(world). It is also the WAL's reset point, so the stage
//!   first drains every in-flight seal (a barrier) and then checkpoints
//!   on the caller: the reset never races a seal, and a failed seal
//!   never has its block checkpointed.

use super::pending::PendingChain;
use super::seal_worker::{self, SealAck, SealWorker};
use super::{DurabilityState, Node};
use crate::engine::Engine;
use crate::error::CoreError;
use crate::miner;
use crate::stats::{MinerStats, ValidationReport};
use cc_ledger::{Block, Blockchain, ChainError, Transaction, WellFormedBlock};
use cc_mempool::Mempool;
use cc_primitives::hash::Hash256;
use cc_vm::World;
use std::time::{Duration, Instant};

/// The window both pipelined entry points default to: one block sealing
/// while the next is produced.
pub(super) const PIPELINED_WINDOW: usize = 2;

/// Tuning for [`Node::run_pipeline`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    gas_limit: u64,
}

impl PipelineConfig {
    /// A pipeline assembling blocks of at most `gas_limit` total gas
    /// (see [`cc_mempool::Mempool::build_block`]).
    pub fn new(gas_limit: u64) -> Self {
        PipelineConfig { gas_limit }
    }

    /// The per-block gas budget.
    pub fn gas_limit(&self) -> u64 {
        self.gas_limit
    }
}

/// Tuning for [`Node::run_follower_pipeline`].
#[derive(Debug, Clone, Copy)]
pub struct FollowerConfig {
    max_in_flight: usize,
}

impl Default for FollowerConfig {
    fn default() -> Self {
        FollowerConfig::new()
    }
}

impl FollowerConfig {
    /// Default bound on validated-but-not-yet-durable blocks.
    pub const DEFAULT_MAX_IN_FLIGHT: usize = PIPELINED_WINDOW;

    /// A follower pipeline with the default speculation depth.
    pub fn new() -> Self {
        FollowerConfig {
            max_in_flight: Self::DEFAULT_MAX_IN_FLIGHT,
        }
    }

    /// Sets how many blocks may be validated but not yet durable
    /// (clamped to at least 1). Raising this deepens the pipeline
    /// without changing its output; it only moves the back-pressure
    /// point.
    pub fn max_in_flight(mut self, depth: usize) -> Self {
        self.max_in_flight = depth.max(1);
        self
    }
}

/// What a pipelined run produced (see [`Node::run_pipeline`] and
/// [`Node::run_follower_pipeline`]).
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Blocks mined or validated, appended and made durable.
    pub blocks: u64,
    /// Transactions across those blocks.
    pub transactions: usize,
    /// Periodic snapshots written (each one a pipeline barrier).
    pub snapshots: u64,
    /// Time the calling thread spent blocked on the durability stage:
    /// handing blocks to it (back-pressure) or draining it (snapshot
    /// barriers, final drain). The sequential path would have spent at
    /// least this long sealing inline; a small value with durability on
    /// means the fsyncs hid behind mining or validation almost entirely.
    pub stalled: Duration,
}

/// Why a source stopped before its input ran out.
pub(super) enum Stop {
    /// Turned away before anything touched the base world: the node stays
    /// fresh at the last accepted block.
    Clean(CoreError),
    /// The base world holds effects the chain does not vouch for.
    Moved(CoreError),
}

/// Where the commit stage gets its blocks.
pub(super) trait Source {
    /// The next block to append on `chain`'s head, its effects already in
    /// the base world and its commitments computed or checked; `None`
    /// when the input ran out.
    fn next(&mut self, chain: &Blockchain) -> Result<Option<WellFormedBlock>, Stop>;

    /// Drops whatever the source holds above the base world. Called by
    /// the failure epilogue only.
    fn discard(&mut self) {}
}

/// The linkage `Blockchain::append` would check — `block` sits on `tip`
/// at height `expected` — raised before any replay.
fn extends(block: &Block, tip: Hash256, expected: u64) -> Result<(), CoreError> {
    if block.header.parent_hash != tip {
        return Err(CoreError::rejected(
            "block does not extend this node's head",
        ));
    }
    let claimed = block.header.number;
    if claimed != expected {
        let wrong = ChainError::WrongNumber { claimed, expected };
        return Err(CoreError::rejected(wrong.to_string()));
    }
    Ok(())
}

/// The produce source: mines each batch `batches` yields on the head.
pub(super) struct Produce<'a, B> {
    engine: &'a Engine,
    world: &'a World,
    batches: B,
    /// Mining statistics of the last block handed to the stage.
    pub(super) stats: Option<MinerStats>,
}

impl<'a, B: FnMut() -> Option<Vec<Transaction>>> Produce<'a, B> {
    pub(super) fn new(stage: &CommitStage<'a>, batches: B) -> Self {
        Produce {
            engine: stage.engine,
            world: stage.world,
            batches,
            stats: None,
        }
    }
}

impl<B: FnMut() -> Option<Vec<Transaction>>> Source for Produce<'_, B> {
    fn next(&mut self, chain: &Blockchain) -> Result<Option<WellFormedBlock>, Stop> {
        let Some(batch) = (self.batches)() else {
            return Ok(None);
        };
        let number = chain.head().header.number + 1;
        // A miner returns its first failure with other workers' commits
        // already in the world, so every mining error has moved it.
        let (strategy, pool) = (self.engine.strategy(), self.engine.pool());
        let mined = miner::mine_on(strategy, pool, self.world, batch, chain.head_hash(), number);
        let (block, stats) = mined.map_err(Stop::Moved)?;
        self.stats = Some(stats);
        Ok(Some(block))
    }
}

/// The follow source: speculative validation of received blocks through
/// a [`PendingChain`], committed oldest-first.
pub(super) struct Follow<'a, I> {
    blocks: std::iter::Fuse<I>,
    pending: PendingChain<'a>,
    /// A speculate-time rejection: stop consuming input, drain the valid
    /// pending prefix into the chain, then return it.
    rejection: Option<CoreError>,
    /// The validation report of the last block handed to the stage.
    pub(super) report: Option<ValidationReport>,
}

impl<'a, I: Iterator<Item = Block>> Follow<'a, I> {
    /// A follow source over the stage's world and head, holding at most
    /// the stage's window of overlays.
    pub(super) fn new(stage: &CommitStage<'a>, blocks: I) -> Self {
        let order = stage.engine.replay_order();
        let head = stage.chain.head_hash();
        Follow {
            blocks: blocks.fuse(),
            pending: PendingChain::in_order(stage.world, head, stage.window, order),
            rejection: None,
            report: None,
        }
    }
}

impl<I: Iterator<Item = Block>> Source for Follow<'_, I> {
    fn next(&mut self, chain: &Blockchain) -> Result<Option<WellFormedBlock>, Stop> {
        // Keep the speculation window full, so the next block validates
        // against its predecessor's still-pending post-state while that
        // predecessor's seal is in flight.
        while !self.pending.is_full() && self.rejection.is_none() {
            let Some(block) = self.blocks.next() else {
                break;
            };
            let tip = self.pending.tip_hash();
            let expected = chain.head().header.number + self.pending.len() as u64 + 1;
            // A rejected block's overlay is already discarded; its
            // descendants (the rest of the stream) are dropped unconsumed.
            self.rejection = extends(&block, tip, expected)
                .and_then(|()| self.pending.speculate_owned(tip, block))
                .err();
        }
        match self.pending.oldest_hash() {
            Some(oldest) => {
                // A state-root mismatch has polluted the base.
                let (block, report) = self.pending.commit_reported(&oldest).map_err(Stop::Moved)?;
                self.report = Some(report);
                Ok(Some(block))
            }
            None => match self.rejection.take() {
                Some(rejection) => Err(Stop::Clean(rejection)),
                None => Ok(None),
            },
        }
    }

    fn discard(&mut self) {
        self.pending.discard_all();
    }
}

/// What the durability stage has acknowledged so far.
struct Sealed {
    /// Everything at or below this height is safe against a crash.
    durable: u64,
    /// Blocks handed to a seal and not yet acknowledged.
    in_flight: usize,
    /// The first seal failure; nothing is sealed after it.
    failure: Option<String>,
}

impl Sealed {
    fn absorb(&mut self, acks: impl Iterator<Item = SealAck>) {
        for (number, sealed) in acks {
            self.in_flight -= 1;
            match sealed {
                Ok(()) => self.durable = number,
                Err(reason) => {
                    self.failure = Some(format!("sealing block {number} failed: {reason}"));
                    break;
                }
            }
        }
    }
}

/// The commit stage over one node's ledger (see the [module docs](self)),
/// with the parts of the node its sources read.
pub(super) struct CommitStage<'n> {
    chain: &'n mut Blockchain,
    world: &'n World,
    engine: &'n Engine,
    pub(super) mempool: &'n Mempool,
    stale: &'n mut bool,
    window: usize,
    durability: Option<&'n DurabilityState>,
    /// `Some` when seals run on the durability worker, `None` when they
    /// run inline (or there is nothing to seal).
    worker: Option<SealWorker>,
    sealed: Sealed,
    report: PipelineReport,
}

impl Node {
    /// Opens a commit stage with the given window over this node's ledger.
    ///
    /// # Errors
    ///
    /// [`CoreError::BlockRejected`] when the node is stale;
    /// [`CoreError::Durability`] (and a staled node) when the durability
    /// worker cannot be started.
    pub(super) fn commit_stage(&mut self, window: usize) -> Result<CommitStage<'_>, CoreError> {
        self.ensure_fresh()?;
        let durability = self.durability.as_ref();
        let worker = match durability {
            Some(state) if window > 1 => {
                let wal = state.wal.clone();
                let seal = move |block: &Block| wal.seal_block(block).map_err(|e| e.to_string());
                // Nothing is in flight yet, so the chain already is the
                // durable prefix; stale like any durability failure.
                Some(SealWorker::start(window, seal).inspect_err(|_| self.stale = true)?)
            }
            _ => None,
        };
        Ok(CommitStage {
            // The run starts from a fully persisted head (the node is fresh).
            sealed: Sealed {
                durable: self.chain.head().header.number,
                in_flight: 0,
                failure: None,
            },
            chain: &mut self.chain,
            world: &self.world,
            engine: &self.engine,
            mempool: &self.mempool,
            stale: &mut self.stale,
            window,
            durability,
            worker,
            report: PipelineReport::default(),
        })
    }
}

impl Node {
    /// Produces blocks from the mempool until no transaction is ready,
    /// overlapping each block's WAL seal/fsync with the mining of the
    /// next. Returns once every produced block is durable.
    ///
    /// Sequential production ([`Node::mine_pending`]) runs every stage of
    /// a block back to back, so with durability on, the WAL seal — and in
    /// [`cc_ledger::wal::DurabilityMode::Fsync`] mode the fsync — sits on
    /// the critical path of every block. Here block *assembly* and
    /// *mining* stay on the calling thread, the seal moves to the
    /// durability worker behind a bounded hand-off, and when that worker
    /// falls behind the hand-off blocks — back-pressure, not unbounded
    /// queueing:
    ///
    /// ```text
    ///   sequential:  [assemble N][mine N][seal+fsync N][assemble N+1][mine N+1][seal+fsync N+1]
    ///
    ///   pipelined:   [assemble N][mine N][assemble N+1][mine N+1][assemble N+2] …   (production stage)
    ///                                    [seal+fsync N]          [seal+fsync N+1]   (durability stage)
    /// ```
    ///
    /// The chain, world and durable artifacts are **byte-identical** to
    /// what the same submissions produce through sequential
    /// [`Node::mine_pending`] calls with the same gas limit — the
    /// pipeline reorders work against the wall clock, never against the
    /// chain. (Only difference: an empty pool here produces no block
    /// rather than an empty one.) Without durability there is nothing to
    /// overlap and the loop is sequential production.
    ///
    /// # Errors
    ///
    /// A mining error, a seal or snapshot failure — or a durability
    /// worker that cannot be started, or panics — stales the node, rolls
    /// the in-memory chain back to the durable prefix, and surfaces as
    /// the miner's error or [`CoreError::Durability`]; transactions of
    /// discarded blocks are not returned to the mempool (recovery
    /// re-serves from the WAL).
    pub fn run_pipeline(&mut self, config: &PipelineConfig) -> Result<PipelineReport, CoreError> {
        let stage = self.commit_stage(PIPELINED_WINDOW)?;
        let (mempool, gas_limit) = (stage.mempool, config.gas_limit);
        let batches = || Some(mempool.build_block(gas_limit)).filter(|batch| !batch.is_empty());
        let mut source = Produce::new(&stage, batches);
        stage.run(&mut source)
    }

    /// Validates a stream of `blocks` against this node's chain,
    /// overlapping each block's WAL seal/fsync with the speculative
    /// validation of the next. Returns once every accepted block is
    /// durable.
    ///
    /// Speculative validation and the overlay commit (see
    /// [`super::pending`]) stay on the calling thread — and, for a
    /// block's unordered transactions, on the engine's execution pool —
    /// while the WAL seal moves to the durability worker behind a bounded
    /// hand-off ([`FollowerConfig::max_in_flight`]): while the worker
    /// fsyncs block N, the caller is already replaying block N+1 against
    /// N's pending post-state.
    ///
    /// ```text
    ///   sequential:  [validate N][seal+fsync N][validate N+1][seal+fsync N+1]
    ///
    ///   pipelined:   [speculate N][speculate N+1][commit N][speculate N+2][commit N+1] …  (validation stage)
    ///                                            [seal+fsync N]           [seal+fsync N+1]  (durability stage)
    /// ```
    ///
    /// The chain, world and durable artifacts are **byte-identical** to
    /// what the same stream produces through sequential
    /// [`Node::validate_and_append`] calls — the pipeline reorders work
    /// against the wall clock, never against the chain. Without
    /// durability there is nothing to overlap and the loop is
    /// speculate-then-commit per window.
    ///
    /// # Errors
    ///
    /// A speculate-time rejection ([`CoreError::BlockRejected`],
    /// [`CoreError::MalformedSchedule`], … — bad receipts, bad traces, a
    /// schedule its profiles do not derive, a block that does not link)
    /// never touches the base state: it drains the valid pending prefix
    /// into the chain, drops
    /// the rejected block and the rest of the stream and propagates —
    /// the node stays fresh at the last accepted block, exactly as
    /// [`Node::validate_and_append`] does. A commit-time state-root
    /// mismatch (the one check that needs the flattened base) or a
    /// seal/snapshot failure (including a durability worker that cannot
    /// be started, or panics) stales the node, rolls the in-memory chain
    /// back to the durable prefix and surfaces as
    /// [`CoreError::BlockRejected`] / [`CoreError::Durability`];
    /// [`Node::recover`] is the exit.
    pub fn run_follower_pipeline<I>(
        &mut self,
        blocks: I,
        config: &FollowerConfig,
    ) -> Result<PipelineReport, CoreError>
    where
        I: IntoIterator<Item = Block>,
    {
        let stage = self.commit_stage(config.max_in_flight)?;
        let mut source = Follow::new(&stage, blocks.into_iter());
        stage.run(&mut source)
    }
}

impl CommitStage<'_> {
    /// Commits every block `source` yields, then runs the epilogue.
    /// Returns once every committed block is durable.
    ///
    /// # Errors
    ///
    /// The source's [`Stop::Clean`] rejection, with the node fresh at the
    /// last block accepted before it; otherwise the first failure after
    /// the base world moved (a [`CoreError::Durability`] for seals and
    /// snapshots), with the node staled and its chain truncated to the
    /// durable prefix.
    pub(super) fn run(mut self, source: &mut impl Source) -> Result<PipelineReport, CoreError> {
        let outcome = loop {
            // Collect whatever the durability stage finished meanwhile.
            if let Some(worker) = &self.worker {
                self.sealed.absorb(worker.acks.try_iter());
            }
            if self.sealed.failure.is_some() {
                break Ok(());
            }
            match source.next(self.chain) {
                Ok(Some(block)) => {
                    if let Err(e) = self.commit(block) {
                        break Err(Stop::Moved(e));
                    }
                }
                Ok(None) => break Ok(()),
                Err(stop) => break Err(stop),
            }
        };

        // Final drain: close the hand-off, absorb outstanding acks, join.
        if let Some(SealWorker { work, acks, handle }) = self.worker.take() {
            drop(work);
            let drain = Instant::now();
            self.sealed.absorb(acks.iter());
            self.report.stalled += drain.elapsed();
            if let Err(reason) = seal_worker::join(handle) {
                // Blocks it never acknowledged stay above `durable` and
                // are rolled back below, exactly like a failed seal.
                self.sealed.failure.get_or_insert(reason);
            }
        }

        let error = match (outcome, self.sealed.failure.take()) {
            (Err(Stop::Moved(e)), _) => e,
            (_, Some(reason)) => CoreError::durability(reason),
            (Err(Stop::Clean(e)), None) => return Err(e),
            (Ok(()), None) => {
                debug_assert_eq!(self.sealed.durable, self.chain.head().header.number);
                return Ok(self.report);
            }
        };
        // The base world or the in-memory chain is ahead of what the node
        // can vouch for: never advertise blocks the WAL cannot recover.
        source.discard();
        *self.stale = true;
        self.chain.truncate_to(self.sealed.durable);
        Err(error)
    }

    /// Appends `block` (its commitments are not checked again), seals it
    /// (inline, or by handing it to the worker) and takes the periodic
    /// snapshot behind a drain barrier.
    fn commit(&mut self, block: WellFormedBlock) -> Result<(), CoreError> {
        self.report.blocks += 1;
        self.report.transactions += block.transactions.len();
        self.chain
            .append_well_formed(block)
            .map_err(|e| CoreError::rejected(e.to_string()))?;
        let head = self.chain.head();
        let number = head.header.number;
        let Some(state) = self.durability else {
            self.sealed.durable = number;
            return Ok(());
        };

        // The worker's copy is made before the clock starts: `stalled`
        // is time blocked on the durability stage, not time copying.
        let handoff = self.worker.as_ref().map(|worker| (worker, head.clone()));
        let stalled = Instant::now();
        match handoff {
            // A full channel is the back-pressure point. A closed channel
            // means the worker hit a failure whose ack is (or will be)
            // among its acks.
            Some((worker, block)) => {
                if worker.work.send(block).is_ok() {
                    self.sealed.in_flight += 1;
                }
            }
            None => {
                let sealed = state.wal.seal_block(head).map_err(|e| e.to_string());
                self.sealed.in_flight += 1;
                self.sealed.absorb(std::iter::once((number, sealed)));
            }
        }
        let snapshot = number.is_multiple_of(state.config.snapshot_interval);
        if let (true, Some(worker)) = (snapshot, &self.worker) {
            let in_flight = self.sealed.in_flight;
            self.sealed.absorb(worker.acks.iter().take(in_flight));
        }
        self.report.stalled += stalled.elapsed();

        // A failed seal is picked up by the loop; the checkpoint is
        // written and the WAL reset only behind a clean barrier.
        if snapshot && self.sealed.failure.is_none() {
            state.write_snapshot(self.chain)?;
            self.report.snapshots += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use cc_vm::testing::CounterContract;
    use cc_vm::{Address, ArgValue, CallData};
    use std::collections::VecDeque;
    use std::sync::Arc;

    fn node() -> Node {
        let world = World::new();
        world.deploy(Arc::new(CounterContract::new(Address::from_name(
            "counter-commit",
        ))));
        Node::builder()
            .world(world)
            .config(EngineConfig::new().threads(2))
            .build()
            .unwrap()
    }

    /// An honest block 1 over [`node`]'s world.
    fn block_one() -> Block {
        let txs = (0..4)
            .map(|i| {
                Transaction::new(
                    i,
                    Address::from_index(i),
                    Address::from_name("counter-commit"),
                    CallData::new("increment", vec![ArgValue::Uint(1)]),
                    1_000_000,
                )
            })
            .collect();
        node().mine_and_append(txs).unwrap().block
    }

    /// A source that plays back a fixed script, so the epilogue can be
    /// driven into every arm without a miner or validator that fails.
    struct Script(VecDeque<Result<Option<Block>, Stop>>);

    impl Source for Script {
        fn next(&mut self, _: &Blockchain) -> Result<Option<WellFormedBlock>, Stop> {
            let honest = |block| WellFormedBlock::check(block).expect("scripted blocks are honest");
            Ok(self.0.pop_front().unwrap_or(Ok(None))?.map(honest))
        }
    }

    fn run(node: &mut Node, script: Vec<Result<Option<Block>, Stop>>) -> Result<u64, CoreError> {
        let stage = node.commit_stage(1)?;
        let report = stage.run(&mut Script(script.into()))?;
        Ok(report.blocks)
    }

    #[test]
    fn a_mining_failure_after_an_accepted_block_stales_the_node() {
        let mut node = node();
        let failure = CoreError::MiningFailed {
            tx_index: 3,
            source: cc_stm::StmError::RetriesExhausted { attempts: 3 },
        };
        let script = vec![Ok(Some(block_one())), Err(Stop::Moved(failure.clone()))];
        assert_eq!(run(&mut node, script).unwrap_err(), failure);
        assert!(node.is_stale(), "the miner left commits in the world");
        assert_eq!(node.chain().len(), 2, "the accepted block stays");
        assert!(run(&mut node, Vec::new())
            .unwrap_err()
            .to_string()
            .contains("stale"));
    }

    #[test]
    fn a_block_the_chain_refuses_stales_the_node() {
        // The source vouched for it, so its effects are in the world.
        let mut node = node();
        let mut misnumbered = block_one();
        misnumbered.header.number = 5;
        let err = run(&mut node, vec![Ok(Some(misnumbered))]).unwrap_err();
        assert!(matches!(err, CoreError::BlockRejected { .. }), "got: {err}");
        assert!(node.is_stale());
        assert_eq!(node.chain().len(), 1);
    }

    #[test]
    fn a_clean_rejection_keeps_the_node_fresh_at_the_accepted_prefix() {
        let mut node = node();
        let rejection = CoreError::rejected("turned away at the door");
        let script = vec![Ok(Some(block_one())), Err(Stop::Clean(rejection.clone()))];
        assert_eq!(run(&mut node, script).unwrap_err(), rejection);
        assert!(!node.is_stale());
        assert_eq!(node.chain().len(), 2);
        assert_eq!(run(&mut node, Vec::new()), Ok(0));
    }

    /// [`Node::run_pipeline`] end to end.
    mod pipeline {
        use super::*;
        use crate::engine::EngineConfig;
        use crate::node::DurabilityConfig;
        use cc_ledger::wal::DurabilityMode;
        use cc_ledger::Transaction;
        use cc_vm::testing::CounterContract;
        use cc_vm::{Address, ArgValue, CallData, World};
        use std::path::PathBuf;
        use std::sync::Arc;

        fn fresh_world() -> World {
            let world = World::new();
            world.deploy(Arc::new(CounterContract::new(Address::from_name(
                "counter-pipe",
            ))));
            world
        }

        fn temp_dir(tag: &str) -> PathBuf {
            let mut p = std::env::temp_dir();
            p.push(format!("cc-pipeline-test-{}-{tag}", std::process::id()));
            p
        }

        fn submit_traffic(node: &Node, senders: u64, per_sender: u64) {
            for sender in 0..senders {
                for nonce in 0..per_sender {
                    let tx = Transaction::new(
                        nonce,
                        Address::from_index(sender),
                        Address::from_name("counter-pipe"),
                        CallData::new("increment", vec![ArgValue::Uint(1)]),
                        100_000,
                    )
                    .priority_fee(sender + nonce);
                    node.submit(tx).unwrap();
                }
            }
        }

        #[test]
        fn pipeline_drains_the_pool_into_durable_blocks() {
            let dir = temp_dir("drain");
            std::fs::remove_dir_all(&dir).ok();
            let mut node = Node::builder()
                .world(fresh_world())
                .config(EngineConfig::new().threads(2))
                .durability(
                    DurabilityConfig::new(&dir, DurabilityMode::Buffered).snapshot_interval(2),
                )
                .build()
                .unwrap();
            submit_traffic(&node, 6, 2);
            // 12 txs at 100k gas, 400k per block => 3 blocks.
            let report = node.run_pipeline(&PipelineConfig::new(400_000)).unwrap();
            assert_eq!(report.blocks, 3);
            assert_eq!(report.transactions, 12);
            assert_eq!(report.snapshots, 1, "block 2 hits the interval");
            assert!(node.mempool().is_empty());
            assert_eq!(node.chain().len(), 4);
            assert!(node.chain().verify_structure());

            // Everything the pipeline produced is recoverable.
            let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered);
            let engine = EngineConfig::new().threads(2).build().unwrap();
            let head = node.chain().head_hash();
            drop(node);
            let recovered = Node::recover(config, fresh_world(), engine).unwrap();
            assert_eq!(recovered.chain().head_hash(), head);
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn pipeline_without_durability_is_plain_sequential_production() {
            let mut node = Node::builder()
                .world(fresh_world())
                .config(EngineConfig::new().threads(2))
                .build()
                .unwrap();
            submit_traffic(&node, 4, 1);
            let report = node.run_pipeline(&PipelineConfig::new(200_000)).unwrap();
            assert_eq!(report.blocks, 2);
            assert_eq!(report.snapshots, 0);
            assert_eq!(node.chain().len(), 3);
        }

        #[test]
        fn empty_pool_produces_no_blocks() {
            let mut node = Node::builder().world(fresh_world()).build().unwrap();
            let report = node.run_pipeline(&PipelineConfig::new(1_000_000)).unwrap();
            assert_eq!(report.blocks, 0);
            assert_eq!(node.chain().len(), 1);
        }

        #[test]
        fn seal_failure_stales_and_rolls_back_to_the_durable_prefix() {
            let dir = temp_dir("seal-fail");
            std::fs::remove_dir_all(&dir).ok();
            let mut node = Node::builder()
                .world(fresh_world())
                .config(EngineConfig::new().threads(2))
                // Interval past the run: no snapshot resets the failure arm.
                .durability(
                    DurabilityConfig::new(&dir, DurabilityMode::Fsync).snapshot_interval(100),
                )
                .build()
                .unwrap();
            submit_traffic(&node, 8, 2);
            // Two seals succeed (blocks 1 and 2), the third fails mid-run.
            node.wal().unwrap().inject_seal_failures(2);
            let err = node
                .run_pipeline(&PipelineConfig::new(400_000))
                .unwrap_err();
            assert!(err.to_string().contains("sealing block 3"), "got: {err}");
            assert!(node.is_stale());
            assert_eq!(
                node.chain().head().header.number,
                2,
                "chain rolled back to the durable prefix"
            );
            // Stale node refuses further pipelining.
            assert!(node.run_pipeline(&PipelineConfig::new(400_000)).is_err());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// [`Node::run_follower_pipeline`] end to end.
    mod follower {
        use super::*;
        use crate::engine::EngineConfig;
        use crate::node::DurabilityConfig;
        use cc_ledger::wal::DurabilityMode;
        use cc_ledger::Transaction;
        use cc_vm::testing::CounterContract;
        use cc_vm::{Address, ArgValue, CallData, World};
        use std::path::PathBuf;
        use std::sync::Arc;

        fn fresh_world() -> World {
            let world = World::new();
            world.deploy(Arc::new(CounterContract::new(Address::from_name(
                "counter-follower",
            ))));
            world
        }

        fn temp_dir(tag: &str) -> PathBuf {
            let mut p = std::env::temp_dir();
            p.push(format!("cc-follower-test-{}-{tag}", std::process::id()));
            p
        }

        fn block_txs(base: u64, n: u64) -> Vec<Transaction> {
            (0..n)
                .map(|i| {
                    Transaction::new(
                        base + i,
                        Address::from_index(i % 4),
                        Address::from_name("counter-follower"),
                        CallData::new("increment", vec![ArgValue::Uint(1)]),
                        1_000_000,
                    )
                })
                .collect()
        }

        fn mined_blocks(n: u64) -> Vec<Block> {
            let mut producer = Node::builder()
                .world(fresh_world())
                .config(EngineConfig::new().threads(2))
                .build()
                .unwrap();
            (0..n)
                .map(|i| {
                    producer
                        .mine_and_append(block_txs(i * 100, 8))
                        .unwrap()
                        .block
                })
                .collect()
        }

        fn durable_follower(dir: &PathBuf, interval: u64) -> Node {
            Node::builder()
                .world(fresh_world())
                .config(EngineConfig::new().threads(2))
                .durability(
                    DurabilityConfig::new(dir, DurabilityMode::Fsync).snapshot_interval(interval),
                )
                .build()
                .unwrap()
        }

        #[test]
        fn pipelined_follower_matches_sequential_validation() {
            let blocks = mined_blocks(4);

            let mut sequential = Node::builder()
                .world(fresh_world())
                .config(EngineConfig::new().threads(2))
                .build()
                .unwrap();
            for block in &blocks {
                sequential.validate_and_append(block).unwrap();
            }

            let mut pipelined = Node::builder()
                .world(fresh_world())
                .config(EngineConfig::new().threads(2))
                .build()
                .unwrap();
            let report = pipelined
                .run_follower_pipeline(blocks.clone(), &FollowerConfig::new().max_in_flight(3))
                .unwrap();
            assert_eq!(report.blocks, 4);
            assert_eq!(report.transactions, 32);
            assert_eq!(
                pipelined.chain().head_hash(),
                sequential.chain().head_hash()
            );
            assert_eq!(
                pipelined.world().state_root(),
                sequential.world().state_root()
            );
            assert!(pipelined.chain().verify_structure());
        }

        #[test]
        fn durable_follower_seals_snapshots_and_recovers() {
            let blocks = mined_blocks(5);
            // Window 1 seals inline on the caller, window 2 on the worker.
            for window in [1, 2] {
                let dir = temp_dir(&format!("durable-{window}"));
                std::fs::remove_dir_all(&dir).ok();
                let mut follower = durable_follower(&dir, 2);
                let config = FollowerConfig::new().max_in_flight(window);
                let report = follower
                    .run_follower_pipeline(blocks.clone(), &config)
                    .unwrap();
                assert_eq!(report.blocks, 5);
                assert_eq!(report.snapshots, 2, "blocks 2 and 4 hit the interval");
                assert_eq!(follower.chain().len(), 6);

                // Everything the pipeline accepted is recoverable.
                let head = follower.chain().head_hash();
                let world_bytes = follower.world().snapshot().to_bytes();
                drop(follower);
                let config = DurabilityConfig::new(&dir, DurabilityMode::Fsync);
                let engine = EngineConfig::new().threads(2).build().unwrap();
                let recovered = Node::recover(config, fresh_world(), engine).unwrap();
                assert_eq!(recovered.chain().head_hash(), head);
                assert_eq!(recovered.world().snapshot().to_bytes(), world_bytes);
                std::fs::remove_dir_all(&dir).ok();
            }
        }

        #[test]
        fn seal_failure_stales_and_rolls_back_to_the_durable_prefix() {
            let dir = temp_dir("seal-fail");
            std::fs::remove_dir_all(&dir).ok();
            let blocks = mined_blocks(5);
            // Interval past the run: no snapshot resets the failure arm.
            let mut follower = durable_follower(&dir, 100);
            // Two seals succeed (blocks 1 and 2), the third fails mid-run.
            follower.wal().unwrap().inject_seal_failures(2);
            let err = follower
                .run_follower_pipeline(blocks.clone(), &FollowerConfig::new())
                .unwrap_err();
            assert!(err.to_string().contains("sealing block 3"), "got: {err}");
            assert!(follower.is_stale());
            assert_eq!(
                follower.chain().head().header.number,
                2,
                "chain rolled back to the durable prefix"
            );
            // Stale node refuses further pipelining.
            assert!(follower
                .run_follower_pipeline(Vec::new(), &FollowerConfig::new())
                .is_err());

            // The directory recovers to exactly the durable prefix.
            drop(follower);
            let config = DurabilityConfig::new(&dir, DurabilityMode::Fsync);
            let engine = EngineConfig::new().threads(2).build().unwrap();
            let recovered = Node::recover(config, fresh_world(), engine).unwrap();
            let head = &recovered.chain().head().header;
            assert_eq!(head.number, 2);
            assert_eq!(head.state_root, blocks[1].header.state_root);
            assert_eq!(recovered.world().state_root(), blocks[1].header.state_root);
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn mid_stream_rejection_keeps_the_valid_prefix_without_staling() {
            let blocks = mined_blocks(4);
            let mut stream = blocks.clone();
            // Tamper with block 3's receipts (re-committed so it stays
            // well-formed): speculation rejects it before it touches the
            // base, and block 4 is dropped as its descendant.
            let mut receipts = stream[2].receipts.clone();
            receipts[0].gas_used += 1;
            stream[2] = Block::build(
                stream[2].header.parent_hash,
                stream[2].header.number,
                stream[2].transactions.clone(),
                receipts,
                stream[2].header.state_root,
                stream[2].schedule.clone(),
            );

            let mut follower = Node::builder()
                .world(fresh_world())
                .config(EngineConfig::new().threads(2))
                .build()
                .unwrap();
            let err = follower
                .run_follower_pipeline(stream, &FollowerConfig::new().max_in_flight(3))
                .unwrap_err();
            assert!(err.to_string().contains("receipt"), "got: {err}");
            assert!(
                !follower.is_stale(),
                "a speculate-time rejection never pollutes the base"
            );
            assert_eq!(
                follower.chain().head_hash(),
                blocks[1].hash(),
                "the valid prefix was committed"
            );
            // The follower keeps working: the honest remainder validates.
            follower
                .run_follower_pipeline(blocks[2..].to_vec(), &FollowerConfig::new())
                .unwrap();
            assert_eq!(follower.chain().head_hash(), blocks[3].hash());
        }

        #[test]
        fn forged_state_root_stales_at_commit() {
            let dir = temp_dir("forged-root");
            std::fs::remove_dir_all(&dir).ok();
            let blocks = mined_blocks(3);
            let mut stream = blocks.clone();
            stream[1].header.state_root = cc_primitives::sha256(b"forged");
            // Re-link the descendant so speculation accepts the chain shape.
            stream[2].header.parent_hash = stream[1].hash();

            let mut follower = durable_follower(&dir, 100);
            let err = follower
                .run_follower_pipeline(stream, &FollowerConfig::new().max_in_flight(3))
                .unwrap_err();
            assert!(err.to_string().contains("state root"), "got: {err}");
            assert!(follower.is_stale(), "a polluted base must stale the node");
            assert_eq!(
                follower.chain().head().header.number,
                1,
                "chain rolled back to the durable prefix"
            );
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn empty_stream_is_a_no_op() {
            let mut follower = Node::builder().world(fresh_world()).build().unwrap();
            let report = follower
                .run_follower_pipeline(Vec::new(), &FollowerConfig::new())
                .unwrap();
            assert_eq!(report.blocks, 0);
            assert_eq!(follower.chain().len(), 1);
        }
    }
}

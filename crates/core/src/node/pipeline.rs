//! Pipelined block production: overlap mining with durable persistence.
//!
//! Sequential production ([`Node::mine_pending`]) runs every stage of a
//! block back to back, so with durability on, the WAL seal — and in
//! [`cc_ledger::wal::DurabilityMode::Fsync`] mode the fsync — sits on
//! the critical path of every block:
//!
//! ```text
//!   sequential:  [assemble N][mine N][seal+fsync N][assemble N+1][mine N+1][seal+fsync N+1]
//!
//!   pipelined:   [assemble N][mine N][assemble N+1][mine N+1][assemble N+2] …   (production stage)
//!                                    [seal+fsync N]          [seal+fsync N+1]   (durability stage)
//! ```
//!
//! [`Node::run_pipeline`] keeps block *assembly* (draining the mempool)
//! and *mining* (speculative execution on the engine) on the calling
//! thread, and moves the WAL seal to a dedicated durability worker.
//! While the worker fsyncs block N, the caller is already assembling and
//! mining block N+1. The stages are joined by a **bounded hand-off
//! channel** ([`PipelineConfig::max_in_flight`]): when the durability
//! stage falls behind, the hand-off blocks and production stops
//! speculating further ahead — back-pressure, not unbounded queueing.
//!
//! # Invariants
//!
//! * **In-order commit.** A single worker seals blocks in hand-off
//!   order, so the durable prefix is always a chain prefix; seal
//!   acknowledgements arrive in block order.
//! * **Bounded speculation.** At most `max_in_flight` blocks are mined
//!   but not yet durable. The in-memory chain may run ahead of the WAL
//!   by at most that many blocks.
//! * **Stale on persist failure** (the PR 8 invariant, preserved). If a
//!   seal fails, the node marks itself stale, *truncates the in-memory
//!   chain back to the last durable block* — discarding mined-but-
//!   unpersisted successors instead of advertising blocks a crash would
//!   forget — and returns the failure. [`Node::recover`] is the exit.
//! * **Quiesced snapshots.** Periodic snapshots serialize the world, so
//!   the pipeline drains all in-flight seals (a barrier) before
//!   snapshotting on the production thread; the WAL reset therefore
//!   never races an in-flight seal.
//!
//! With pipelining, WAL records of block N+1's transactions may be
//! flushed by block N's group commit (the log is shared). That is
//! harmless: recovery replays *sealed blocks* only, so unsealed tail
//! records are ignored exactly as in the sequential path.

use super::seal_worker::{self, SealAck, SealWorker};
use super::Node;
use crate::error::CoreError;
use crate::miner::Miner;
use cc_ledger::Block;
use std::time::{Duration, Instant};

/// Tuning for [`Node::run_pipeline`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    gas_limit: u64,
    max_in_flight: usize,
}

impl PipelineConfig {
    /// Default bound on mined-but-not-yet-durable blocks.
    pub const DEFAULT_MAX_IN_FLIGHT: usize = 2;

    /// A pipeline assembling blocks of at most `gas_limit` total gas
    /// (see [`cc_mempool::Mempool::build_block`]).
    pub fn new(gas_limit: u64) -> Self {
        PipelineConfig {
            gas_limit,
            max_in_flight: Self::DEFAULT_MAX_IN_FLIGHT,
        }
    }

    /// Sets how many blocks may be mined but not yet durable (clamped to
    /// at least 1). Raising this deepens the pipeline without changing
    /// its output; it only moves the back-pressure point.
    pub fn max_in_flight(mut self, depth: usize) -> Self {
        self.max_in_flight = depth.max(1);
        self
    }

    /// The per-block gas budget.
    pub fn gas_limit(&self) -> u64 {
        self.gas_limit
    }
}

/// What a pipeline run produced (see [`Node::run_pipeline`]).
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Blocks mined, appended and made durable.
    pub blocks: u64,
    /// Transactions across those blocks.
    pub transactions: usize,
    /// Periodic snapshots written (each one a pipeline barrier).
    pub snapshots: u64,
    /// Time the production stage spent blocked handing blocks to the
    /// durability stage (back-pressure) or draining it (snapshot
    /// barriers, final drain). The sequential path would have spent at
    /// least this long sealing inline; a small value with durability on
    /// means the fsyncs hid behind mining almost entirely.
    pub stalled: Duration,
}

impl Node {
    /// Produces blocks from the mempool until no transaction is ready,
    /// overlapping each block's WAL seal/fsync with the mining of the
    /// next (see the [module docs](self) for the stage diagram and
    /// invariants). Returns once every produced block is durable.
    ///
    /// The chain, world and durable artifacts are **byte-identical** to
    /// what the same submissions produce through sequential
    /// [`Node::mine_pending`] calls with the same gas limit — the
    /// pipeline reorders work against the wall clock, never against the
    /// chain. (Only difference: an empty pool here produces no block
    /// rather than an empty one.) Without durability there is nothing to
    /// overlap and the loop degenerates to sequential production.
    ///
    /// # Errors
    ///
    /// Mining errors propagate as in [`Node::mine_and_append`]. A seal
    /// or snapshot failure — or a durability worker that cannot be
    /// started, or panics — stales the node, rolls the in-memory chain
    /// back to the durable prefix, and surfaces as
    /// [`CoreError::Durability`]; transactions of discarded blocks are
    /// not returned to the mempool (recovery re-serves from the WAL).
    pub fn run_pipeline(&mut self, config: &PipelineConfig) -> Result<PipelineReport, CoreError> {
        self.ensure_fresh()?;
        let engine = self.engine.clone();
        let miner = engine.miner();
        let mut report = PipelineReport::default();

        let Some(state) = &self.durability else {
            // Nothing to overlap: assemble and mine on this thread.
            loop {
                let batch = self.mempool.build_block(config.gas_limit);
                if batch.is_empty() {
                    return Ok(report);
                }
                report.transactions += batch.len();
                report.blocks += 1;
                self.mine_next(miner, batch)?;
            }
        };

        let wal = state.wal.clone();
        let snapshot_interval = state.config.snapshot_interval;
        // If the worker cannot start nothing is in flight yet, so the chain
        // already is the durable prefix; stale like any durability failure.
        let SealWorker {
            work: work_tx,
            acks: ack_rx,
            handle: worker,
        } = SealWorker::start(config.max_in_flight, move |block| {
            wal.seal_block(block).map_err(|e| e.to_string())
        })
        .inspect_err(|_| self.stale = true)?;

        // Everything at or below `durable` is safe against a crash. The
        // run starts from a fully persisted head (the node is fresh).
        let mut durable = self.chain.head().header.number;
        let mut in_flight = 0u64;
        let mut failure: Option<String> = None;

        let absorb = |acks: &mut dyn Iterator<Item = SealAck>,
                      durable: &mut u64,
                      in_flight: &mut u64,
                      failure: &mut Option<String>| {
            for (number, sealed) in acks {
                *in_flight -= 1;
                match sealed {
                    Ok(()) => *durable = number,
                    Err(reason) => {
                        *failure = Some(format!("sealing block {number} failed: {reason}"));
                        break;
                    }
                }
            }
        };

        let outcome = loop {
            // Collect whatever the durability stage finished meanwhile.
            absorb(
                &mut ack_rx.try_iter(),
                &mut durable,
                &mut in_flight,
                &mut failure,
            );
            if failure.is_some() {
                break Ok(());
            }
            let batch = self.mempool.build_block(config.gas_limit);
            if batch.is_empty() {
                break Ok(());
            }
            report.transactions += batch.len();
            report.blocks += 1;
            let block = match self.mine_next(miner, batch) {
                Ok(block) => block,
                Err(e) => break Err(e),
            };
            let number = block.header.number;

            // Hand off to the durability stage; a full channel is the
            // back-pressure point. A closed channel means the worker hit
            // a failure whose ack is (or will be) in ack_rx.
            let handoff = Instant::now();
            if work_tx.send(block).is_ok() {
                in_flight += 1;
            }
            report.stalled += handoff.elapsed();

            if number.is_multiple_of(snapshot_interval) {
                // Snapshot barrier: drain the durability stage, then
                // serialize the quiesced world and reset the WAL.
                let drain = Instant::now();
                absorb(
                    &mut ack_rx.iter().take(in_flight as usize),
                    &mut durable,
                    &mut in_flight,
                    &mut failure,
                );
                report.stalled += drain.elapsed();
                if failure.is_some() {
                    break Ok(());
                }
                if let Err(e) = self.write_snapshot() {
                    break Err(e);
                }
                report.snapshots += 1;
            }
        };

        // Final drain: close the hand-off, absorb outstanding acks, join.
        drop(work_tx);
        let drain = Instant::now();
        absorb(
            &mut ack_rx.iter(),
            &mut durable,
            &mut in_flight,
            &mut failure,
        );
        report.stalled += drain.elapsed();
        if let Err(reason) = seal_worker::join(worker) {
            // Blocks it never acknowledged stay above `durable` and are
            // rolled back below, exactly like a failed seal.
            failure.get_or_insert(reason);
        }

        match (outcome, failure) {
            (Err(e), _) => {
                // Mining/snapshot error. A snapshot failure leaves the
                // node ahead of durable state exactly like a failed seal.
                self.stale = true;
                self.chain.truncate_to(durable);
                Err(e)
            }
            (Ok(()), Some(reason)) => {
                // The PR 8 invariant, pipelined: never let the in-memory
                // chain advertise blocks the WAL cannot recover.
                self.stale = true;
                self.chain.truncate_to(durable);
                Err(CoreError::durability(reason))
            }
            (Ok(()), None) => {
                debug_assert_eq!(durable, self.chain.head().header.number);
                Ok(report)
            }
        }
    }

    /// Mines `batch` on the current head and appends it (the production
    /// stage of the pipeline: everything but persistence).
    fn mine_next(
        &mut self,
        miner: &dyn Miner,
        batch: Vec<cc_ledger::Transaction>,
    ) -> Result<Block, CoreError> {
        let parent_hash = self.chain.head_hash();
        let number = self.chain.head().header.number + 1;
        let mined = miner.mine_on(&self.world, batch, parent_hash, number)?;
        self.chain
            .append(mined.block.clone())
            .map_err(|e| CoreError::rejected(e.to_string()))?;
        Ok(mined.block)
    }
}

#[cfg(test)]
mod tests {
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
            .durability(DurabilityConfig::new(&dir, DurabilityMode::Buffered).snapshot_interval(2))
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
            .durability(DurabilityConfig::new(&dir, DurabilityMode::Fsync).snapshot_interval(100))
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

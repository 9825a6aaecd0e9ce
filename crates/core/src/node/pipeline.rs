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
//! [`Node::run_pipeline`] is the node's commit pipeline (one loop for
//! every entry point; "Commit pipeline" in the crate README has the
//! source × window table and the invariants) fed by the mempool at a
//! window of two: block *assembly* and *mining* stay on the calling
//! thread, the WAL seal moves to a dedicated durability worker behind a
//! bounded hand-off, and when that worker falls behind the hand-off
//! blocks — back-pressure, not unbounded queueing.

use super::commit::{Produce, PIPELINED_WINDOW};
use super::Node;
use crate::error::CoreError;
use std::time::Duration;

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

impl Node {
    /// Produces blocks from the mempool until no transaction is ready,
    /// overlapping each block's WAL seal/fsync with the mining of the
    /// next (see the [module docs](self) for the stage diagram). Returns
    /// once every produced block is durable.
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

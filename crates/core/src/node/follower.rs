//! Pipelined block validation: overlap a follower's WAL seal with the
//! speculative validation of the next block.
//!
//! Sequential validation ([`Node::validate_and_append`]) runs every
//! stage of a block back to back, so with durability on, the WAL seal —
//! and in [`cc_ledger::wal::DurabilityMode::Fsync`] mode the fsync —
//! sits on the critical path of every block:
//!
//! ```text
//!   sequential:  [validate N][seal+fsync N][validate N+1][seal+fsync N+1]
//!
//!   pipelined:   [speculate N][speculate N+1][commit N][speculate N+2][commit N+1] …  (validation stage)
//!                                            [seal+fsync N]           [seal+fsync N+1]  (durability stage)
//! ```
//!
//! [`Node::run_follower_pipeline`] is the node's commit pipeline (one
//! loop for every entry point; "Commit pipeline" in the crate README has
//! the source × window table and the invariants) fed by a block stream:
//! speculative validation and the overlay commit (see [`super::pending`])
//! stay on the calling thread, the WAL seal moves to a dedicated
//! durability worker behind a bounded hand-off
//! ([`FollowerConfig::max_in_flight`]). While the worker fsyncs block N,
//! the caller is already replaying block N+1 against N's pending
//! post-state.
//!
//! A *speculate-time* rejection (bad receipts, bad traces, a hidden
//! race, a block that does not link) never touches the base state: the
//! follower drains its valid pending predecessors into the chain, drops
//! the rejected block and the rest of the stream, and returns the
//! rejection **without staling the node** — unlike sequential
//! validation, whose replay pollutes the world before it can reject.
//! Only a commit-time state-root mismatch (the one check that needs the
//! flattened base) stales the follower.

use super::commit::{Follow, PIPELINED_WINDOW};
use super::pipeline::PipelineReport;
use super::Node;
use crate::error::CoreError;
use cc_ledger::Block;

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

impl Node {
    /// Validates a stream of `blocks` against this node's chain,
    /// overlapping each block's WAL seal/fsync with the speculative
    /// validation of the next (see the [module docs](self) for the stage
    /// diagram). Returns once every accepted block is durable.
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
    /// [`CoreError::MissingSchedule`], …) drains the valid pending
    /// prefix, drops the rest of the stream and propagates — the node
    /// stays fresh at the last accepted block. A commit-time state-root
    /// mismatch or a seal/snapshot failure (including a durability worker
    /// that cannot be started, or panics) stales the node, rolls the
    /// in-memory chain back to the durable prefix and surfaces as
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
            .run_follower_pipeline(blocks, &FollowerConfig::new())
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

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
//! [`Node::run_follower_pipeline`] keeps speculative validation and the
//! overlay commit (see [`super::pending`]) on the calling thread and
//! moves the WAL seal to a dedicated durability worker. While the
//! worker fsyncs block N, the caller is already replaying block N+1
//! against N's pending post-state. The stages are joined by a **bounded
//! hand-off channel** ([`FollowerConfig::max_in_flight`]): when the
//! durability stage falls behind, the hand-off blocks and validation
//! stops speculating further ahead — back-pressure, not unbounded
//! queueing.
//!
//! # Invariants
//!
//! * **In-order commit.** Overlays flatten oldest-first
//!   ([`super::pending::PendingChain::commit`]), blocks append and seal
//!   in chain order, and only *fully validated* blocks (state root
//!   included) reach the WAL — recovery never replays a block this
//!   follower did not accept.
//! * **Bounded speculation.** At most `max_in_flight` blocks are
//!   validated but not yet durable, counting both pending overlays and
//!   sealed-but-unacknowledged blocks.
//! * **Stale on persist failure** (the PR 8 invariant, preserved). If a
//!   seal fails, the node marks itself stale, truncates the in-memory
//!   chain back to the last durable block, discards every pending
//!   overlay, and returns the failure. [`Node::recover`] is the exit.
//! * **Quiesced snapshots.** Periodic snapshots drain all in-flight
//!   seals (a barrier) before serializing the world, so the WAL reset
//!   never races an in-flight seal.
//!
//! A *speculate-time* rejection (bad receipts, bad traces, a hidden
//! race) never touches the base state: the follower drains its valid
//! pending predecessors into the chain, drops the rejected block and
//! the rest of the stream, and returns the rejection **without staling
//! the node** — unlike sequential validation, whose replay pollutes the
//! world before it can reject. Only a commit-time state-root mismatch
//! (the one check that needs the flattened base) stales the follower.

use super::pending::PendingChain;
use super::seal_worker::{self, SealAck, SealWorker};
use super::Node;
use crate::engine::ExecutionStrategy;
use crate::error::CoreError;
use cc_ledger::Block;
use std::time::{Duration, Instant};

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
    pub const DEFAULT_MAX_IN_FLIGHT: usize = 2;

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

/// What a follower pipeline run produced (see
/// [`Node::run_follower_pipeline`]).
#[derive(Debug, Clone, Default)]
pub struct FollowerReport {
    /// Blocks validated, appended and made durable.
    pub blocks: u64,
    /// Transactions across those blocks.
    pub transactions: usize,
    /// Periodic snapshots written (each one a pipeline barrier).
    pub snapshots: u64,
    /// Time the validation stage spent blocked handing blocks to the
    /// durability stage (back-pressure) or draining it (snapshot
    /// barriers, final drain). The sequential path would have spent at
    /// least this long sealing inline; a small value with durability on
    /// means the fsyncs hid behind validation almost entirely.
    pub stalled: Duration,
}

impl Node {
    /// Whether the engine's configuration calls for lock-trace checks
    /// during speculative validation (a serial engine replays
    /// schedule-less blocks, which carry no profiles to check).
    pub(super) fn speculation_checks_traces(&self) -> bool {
        self.engine.config().check_traces && self.engine.strategy() != ExecutionStrategy::Serial
    }

    /// Validates a stream of `blocks` against this node's chain,
    /// overlapping each block's WAL seal/fsync with the speculative
    /// validation of the next (see the [module docs](self) for the stage
    /// diagram and invariants). Returns once every accepted block is
    /// durable.
    ///
    /// The chain, world and durable artifacts are **byte-identical** to
    /// what the same stream produces through sequential
    /// [`Node::validate_and_append`] calls — the pipeline reorders work
    /// against the wall clock, never against the chain. Without
    /// durability there is nothing to overlap and the loop degenerates
    /// to speculate-then-commit per block.
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
    ) -> Result<FollowerReport, CoreError>
    where
        I: IntoIterator<Item = Block>,
    {
        self.ensure_fresh()?;
        let check_traces = self.speculation_checks_traces();
        let mut report = FollowerReport::default();
        let mut blocks = blocks.into_iter();

        let Some(state) = &self.durability else {
            // Nothing to overlap: speculate and commit back to back.
            let mut pending =
                PendingChain::new(&self.world, self.chain.head_hash(), config.max_in_flight)
                    .with_trace_checks(check_traces);
            for block in blocks {
                let hash = pending.speculate(pending.tip_hash(), &block)?;
                let committed = match pending.commit(&hash) {
                    Ok(block) => block,
                    Err(e) => {
                        self.stale = true;
                        return Err(e);
                    }
                };
                report.blocks += 1;
                report.transactions += committed.transactions.len();
                self.chain
                    .append(committed)
                    .map_err(|e| CoreError::rejected(e.to_string()))?;
            }
            return Ok(report);
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
        // A speculate-time rejection: remember it, stop consuming input,
        // and drain the valid pending prefix before returning it.
        let mut rejection: Option<CoreError> = None;
        let mut exhausted = false;
        let mut pending =
            PendingChain::new(&self.world, self.chain.head_hash(), config.max_in_flight)
                .with_trace_checks(check_traces);

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

            // Keep the speculation window full, so the next block
            // validates against its predecessor's still-pending
            // post-state while that predecessor's seal is in flight.
            while !pending.is_full() && !exhausted && rejection.is_none() {
                match blocks.next() {
                    Some(block) => {
                        if let Err(e) = pending.speculate(pending.tip_hash(), &block) {
                            // The rejected block's overlay is already
                            // discarded; its descendants (the rest of
                            // the stream) are dropped unconsumed.
                            rejection = Some(e);
                        }
                    }
                    None => exhausted = true,
                }
            }

            // Commit the oldest pending overlay, append it and hand it
            // to the durability stage. An empty window means the stream
            // is drained (or rejected): flush and exit.
            let Some(oldest) = pending.oldest_hash() else {
                break Ok(());
            };
            let committed = match pending.commit(&oldest) {
                // A state-root mismatch has polluted the base; the
                // outcome arm below stales the node.
                Err(e) => break Err(e),
                Ok(block) => block,
            };
            report.blocks += 1;
            report.transactions += committed.transactions.len();
            let number = committed.header.number;
            if let Err(e) = self.chain.append(committed.clone()) {
                break Err(CoreError::rejected(e.to_string()));
            }

            // A full channel is the back-pressure point. A closed
            // channel means the worker hit a failure whose ack is (or
            // will be) in ack_rx.
            let handoff = Instant::now();
            if work_tx.send(committed).is_ok() {
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
                // Commit-time rejection or snapshot failure: the base
                // world holds effects the chain does not vouch for.
                pending.discard_all();
                self.stale = true;
                self.chain.truncate_to(durable);
                Err(e)
            }
            (Ok(()), Some(reason)) => {
                // The PR 8 invariant, pipelined: never let the in-memory
                // chain advertise blocks the WAL cannot recover.
                pending.discard_all();
                self.stale = true;
                self.chain.truncate_to(durable);
                Err(CoreError::durability(reason))
            }
            (Ok(()), None) => {
                debug_assert!(pending.is_empty());
                debug_assert_eq!(durable, self.chain.head().header.number);
                // The world and chain sit consistently at the last
                // accepted block; a speculate-time rejection propagates
                // without staling the node.
                match rejection {
                    Some(e) => Err(e),
                    None => Ok(report),
                }
            }
        }
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
        let dir = temp_dir("durable");
        std::fs::remove_dir_all(&dir).ok();
        let blocks = mined_blocks(5);
        let mut follower = durable_follower(&dir, 2);
        let report = follower
            .run_follower_pipeline(blocks.clone(), &FollowerConfig::new())
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

//! Concurrent smart-contract execution for miners and validators.
//!
//! This crate is the primary contribution of the reproduced paper,
//! *Adding Concurrency to Smart Contracts* (Dickerson, Gazzillo, Herlihy,
//! Koskinen — PODC 2017):
//!
//! 1. **Speculative parallel mining** ([`Engine::mine`] under
//!    [`ExecutionStrategy::SpeculativeStm`], paper Algorithm 1). A fixed
//!    pool of worker threads executes a block's
//!    transactions as speculative atomic actions on the transactional-
//!    boosting runtime of [`cc_stm`]. Conflicts are detected at run time
//!    through abstract locks; deadlock victims roll back (replaying their
//!    inverse logs) and retry. Each committed transaction registers a lock
//!    profile.
//! 2. **Schedule capture** ([`schedule`]). The per-lock use counters in the
//!    profiles totally order the conflicting transactions on each lock;
//!    from them the miner builds a **happens-before graph**, topologically
//!    sorts it into an equivalent serial order, and publishes both in the
//!    block ([`cc_ledger::ScheduleMetadata`]).
//! 3. **Deterministic concurrent validation** ([`Engine::validate`],
//!    paper Algorithm 2). A validator
//!    turns the published graph into a **fork-join program**
//!    ([`fork_join`]): each transaction is a task that joins on its
//!    immediate predecessors, so conflicting transactions never run
//!    concurrently and no locks, conflict detection or rollback are
//!    needed. While replaying, the validator records the abstract locks
//!    each transaction *would* have taken and rejects the block if the
//!    traces are inconsistent with the published profiles, if the
//!    schedule hides a data race, or if the final state or receipts
//!    differ from the block's commitments.
//!
//! The serial baseline used throughout the paper's evaluation is the
//! same engine under [`ExecutionStrategy::Serial`]: one transaction at a
//! time, in block order, replayed in the published order.
//!
//! All of the above is selected and wired through **one entry point**:
//! the [`engine`] module. An [`engine::EngineConfig`] names an
//! [`engine::ExecutionStrategy`] (the serial baseline, the paper's
//! speculative-STM pair, or optimistic multi-version execution), a
//! worker-thread count and whether validation checks lock traces;
//! building it yields an [`engine::Engine`], the only way to mine or
//! validate a block.
//!
//! # Example
//!
//! ```
//! use cc_core::engine::{Engine, EngineConfig};
//! use cc_core::node::Node;
//! use cc_ledger::Transaction;
//! use cc_vm::{Address, ArgValue, CallData, World, testing::CounterContract};
//! use std::sync::Arc;
//!
//! let build_world = || {
//!     let world = World::new();
//!     world.deploy(Arc::new(CounterContract::new(Address::from_name("counter"))));
//!     world
//! };
//! let txs: Vec<Transaction> = (0..16)
//!     .map(|i| Transaction::new(i, Address::from_index(i), Address::from_name("counter"),
//!          CallData::new("increment", vec![ArgValue::Uint(1)]), 1_000_000))
//!     .collect();
//!
//! // The default engine is the paper's configuration: speculative
//! // mining + fork-join validation on a fixed pool of three threads.
//! let engine = Engine::default();
//! let mined = engine.mine(&build_world(), txs).expect("mining succeeds");
//!
//! // Validate against a fresh copy of the initial state.
//! let report = engine
//!     .validate(&build_world(), &mined.block)
//!     .expect("block is honest");
//! assert_eq!(report.state_root, mined.block.header.state_root);
//!
//! // A Node bundles an engine with a world and a chain.
//! let mut node = Node::builder()
//!     .world(build_world())
//!     .config(EngineConfig::new().threads(3))
//!     .build()
//!     .expect("valid config");
//! let more: Vec<Transaction> = (0..8)
//!     .map(|i| Transaction::new(i, Address::from_index(i), Address::from_name("counter"),
//!          CallData::new("increment", vec![ArgValue::Uint(1)]), 1_000_000))
//!     .collect();
//! node.mine_and_append(more).expect("block appended");
//! assert_eq!(node.chain().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod fork_join;
pub mod miner;
pub mod node;
pub mod schedule;
pub mod stats;
mod validator;

pub use engine::{Engine, EngineConfig, ExecutionStrategy};
pub use error::CoreError;
pub use miner::MinedBlock;
pub use node::pending::{PendingChain, PendingState};
pub use node::{
    DurabilityConfig, FollowerConfig, Node, NodeBuilder, PipelineConfig, PipelineReport,
};
pub use schedule::HappensBeforeGraph;
pub use stats::{MinerStats, ValidationReport};

//! The engine: the one way to mine or validate a block.
//!
//! An [`EngineConfig`] names an [`ExecutionStrategy`], a worker-thread
//! count and whether validation checks lock traces;
//! [`EngineConfig::build`] turns it into an [`Engine`]: one execution pool,
//! the mining driver that runs the strategy's per-transaction attempt on
//! it, and the validator that replays a block as the fork-join program of
//! the graph its lock profiles derive, on the same pool.
//! Everything above `cc_stm` — the benchmark harness, the `repro` binary,
//! the examples and the integration tests — goes through this module.
//!
//! The strategy enum is the extension seam for future concurrency
//! back-ends: a variant and its attempt — which must commit lock profiles
//! whose counters follow its commit order — are all a new strategy needs
//! for every consumer to be able to select and benchmark it.
//!
//! # Example
//!
//! ```
//! use cc_core::engine::{Engine, EngineConfig, ExecutionStrategy};
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
//! // The default engine: the paper's speculative miner + fork-join
//! // validator with a fixed pool of three threads.
//! let engine = Engine::default();
//! let mined = engine.mine(&build_world(), txs.clone()).expect("mining succeeds");
//!
//! // A serial engine executes the same block the way Ethereum does today.
//! let serial = EngineConfig::new()
//!     .strategy(ExecutionStrategy::Serial)
//!     .build()
//!     .expect("valid config");
//! let baseline = serial.mine(&build_world(), txs).expect("serial mining succeeds");
//! assert_eq!(mined.block.header.state_root, baseline.block.header.state_root);
//!
//! // The engine's validator replays the published schedule and checks
//! // every commitment.
//! let report = engine.validate(&build_world(), &mined.block).expect("honest block");
//! assert_eq!(report.state_root, mined.block.header.state_root);
//! ```

use crate::error::CoreError;
use crate::miner::{self, MinedBlock};
use crate::node::pending::PendingChain;
use crate::stats::ValidationReport;
use crate::validator::replay::Order;
use cc_ledger::{Block, Transaction};
use cc_primitives::hash::Hash256;
use cc_primitives::pool::{PoolStats, WorkerPool};
use cc_vm::World;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Which concurrency back-end executes blocks.
///
/// Marked non-exhaustive: more back-ends may follow, and consumers
/// should be ready for new variants.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionStrategy {
    /// One transaction at a time, in block order — today's Ethereum
    /// behaviour and the baseline all the paper's speedups are measured
    /// against. It is the speculative strategy on a one-worker pool: its
    /// blocks publish the same lock profiles, and it validates any block
    /// as the others do, on its one worker.
    Serial,
    /// The paper's pair: speculative STM mining (Algorithm 1) plus
    /// deterministic fork-join validation of the published schedule
    /// (Algorithm 2).
    #[default]
    SpeculativeStm,
    /// OptSmart-style optimistic multi-version execution (Anjana et al.):
    /// transactions read consistent snapshots from timestamped version
    /// lists, buffer writes privately, and validate their read sets at
    /// commit (first committer wins). Read-only transactions never abort.
    /// The miner synthesizes the same schedule metadata as the
    /// speculative strategy, so validation stays fork-join.
    OptimisticMvcc,
}

impl fmt::Display for ExecutionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionStrategy::Serial => f.write_str("serial"),
            ExecutionStrategy::SpeculativeStm => f.write_str("speculative-stm"),
            ExecutionStrategy::OptimisticMvcc => f.write_str("optimistic-mvcc"),
        }
    }
}

impl FromStr for ExecutionStrategy {
    type Err = CoreError;

    /// Parses the canonical names printed by [`fmt::Display`]
    /// (`serial`, `speculative-stm`, `optimistic-mvcc`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "serial" => Ok(ExecutionStrategy::Serial),
            "speculative-stm" => Ok(ExecutionStrategy::SpeculativeStm),
            "optimistic-mvcc" => Ok(ExecutionStrategy::OptimisticMvcc),
            other => Err(CoreError::InvalidConfig {
                reason: format!(
                    "unknown execution strategy {other:?} \
                     (expected serial, speculative-stm or optimistic-mvcc)"
                ),
            }),
        }
    }
}

/// Builder-style configuration for an [`Engine`].
///
/// Fields are public so code can *inspect* a configuration (the
/// benchmark harness prints them); construction reads best through the
/// fluent setters, which share names with the fields:
///
/// ```
/// use cc_core::engine::{EngineConfig, ExecutionStrategy};
/// let config = EngineConfig::new()
///     .strategy(ExecutionStrategy::SpeculativeStm)
///     .threads(4);
/// assert_eq!(config.threads, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// The concurrency back-end to construct.
    pub strategy: ExecutionStrategy,
    /// Worker threads for parallel strategies (ignored by
    /// [`ExecutionStrategy::Serial`], which always runs one).
    pub threads: usize,
    /// Whether the validator compares every replayed lock trace with the
    /// block's published profile. Disabling is ablation-only.
    pub check_traces: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            strategy: ExecutionStrategy::default(),
            threads: EngineConfig::DEFAULT_THREADS,
            check_traces: true,
        }
    }
}

impl EngineConfig {
    /// The paper's evaluation runs "a fixed pool of three threads"; this
    /// is the single place that number lives.
    pub const DEFAULT_THREADS: usize = 3;

    /// The default configuration: speculative STM, three threads, trace
    /// checks on.
    pub fn new() -> Self {
        EngineConfig::default()
    }

    /// A configuration for the serial baseline.
    pub fn serial() -> Self {
        EngineConfig::new().strategy(ExecutionStrategy::Serial)
    }

    /// A configuration for the paper's speculative strategy (explicit
    /// form of [`EngineConfig::new`]).
    pub fn speculative() -> Self {
        EngineConfig::new().strategy(ExecutionStrategy::SpeculativeStm)
    }

    /// A configuration for the optimistic multi-version strategy.
    pub fn optimistic() -> Self {
        EngineConfig::new().strategy(ExecutionStrategy::OptimisticMvcc)
    }

    /// Selects the concurrency back-end.
    pub fn strategy(mut self, strategy: ExecutionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the worker-thread count for parallel strategies.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Toggles the validator's lock-trace checks.
    pub fn check_traces(mut self, check: bool) -> Self {
        self.check_traces = check;
        self
    }

    /// Validates the configuration and constructs the engine.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `threads` is zero.
    pub fn build(self) -> Result<Engine, CoreError> {
        if self.threads == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "worker thread count must be at least 1".into(),
            });
        }
        // One execution pool per engine, shared by its miner and its
        // validator (and by every clone of the engine). Helper threads
        // start with the first block that can use them, not here. This is
        // the one thing the serial strategy changes: its pool has one
        // worker, so it mines with the pessimistic attempt one transaction
        // at a time and replays a block's derived fork-join program as a
        // walk on the calling thread. Every strategy publishes the graph
        // of its lock profiles and every engine validates alike.
        let workers = match self.strategy {
            ExecutionStrategy::Serial => 1,
            ExecutionStrategy::SpeculativeStm | ExecutionStrategy::OptimisticMvcc => self.threads,
        };
        let pool = Arc::new(WorkerPool::new(workers));
        Ok(Engine { config: self, pool })
    }
}

/// The one way to mine and validate blocks, built from an
/// [`EngineConfig`].
///
/// The engine is cheap to clone. It owns the one execution pool it mines
/// and validates blocks on; clones share it, and a clone that finds the
/// pool busy executes its block on the calling thread alone.
#[derive(Clone)]
pub struct Engine {
    config: EngineConfig,
    pool: Arc<WorkerPool>,
}

impl Default for Engine {
    fn default() -> Self {
        EngineConfig::default()
            .build()
            .expect("the default config is valid")
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts a configuration (alias for [`EngineConfig::new`], so call
    /// sites can read `Engine::builder().threads(4).build()`).
    pub fn builder() -> EngineConfig {
        EngineConfig::new()
    }

    /// A serial-baseline engine.
    pub fn serial() -> Engine {
        EngineConfig::serial()
            .build()
            .expect("the serial config is valid")
    }

    /// A speculative engine with `threads` workers and defaults for
    /// everything else.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `threads` is zero.
    pub fn speculative(threads: usize) -> Result<Engine, CoreError> {
        EngineConfig::speculative().threads(threads).build()
    }

    /// An optimistic multi-version engine with `threads` workers and
    /// defaults for everything else.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `threads` is zero.
    pub fn optimistic(threads: usize) -> Result<Engine, CoreError> {
        EngineConfig::optimistic().threads(threads).build()
    }

    /// The configuration this engine was built from.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's concurrency back-end.
    pub fn strategy(&self) -> ExecutionStrategy {
        self.config.strategy
    }

    /// Worker threads actually used when executing blocks (1 for the
    /// serial strategy regardless of the configured count).
    pub fn threads(&self) -> usize {
        self.pool.workers()
    }

    /// Activity of the engine's execution pool: two runs per block mined
    /// or fork-join validated (its transactions, then its state root),
    /// and how many helper wake-ups they cost.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The execution pool this engine mines, replays and takes state
    /// roots on.
    pub(crate) fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// How this engine replays blocks: on its pool, with its trace
    /// checks — for its validator and its node's pending chains alike.
    pub(crate) fn replay_order(&self) -> Order {
        let (pool, check_traces) = (Arc::clone(&self.pool), self.config.check_traces);
        Order { pool, check_traces }
    }

    /// Executes `transactions` against `world` and assembles a block at
    /// height 1 on a zero parent (see [`Engine::mine_on`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::MiningFailed`], as [`Engine::mine_on`].
    pub fn mine(
        &self,
        world: &World,
        transactions: Vec<Transaction>,
    ) -> Result<MinedBlock, CoreError> {
        self.mine_on(world, transactions, Hash256::ZERO, 1)
    }

    /// Executes `transactions` against `world` and assembles block
    /// `number` on top of `parent_hash`.
    ///
    /// Mining **mutates** the world: afterwards it holds the block's
    /// post-state, which is what the block's state root commits to.
    ///
    /// # Errors
    ///
    /// [`CoreError::MiningFailed`] if a transaction cannot be committed,
    /// or is still a conflict victim once its attempts are spent; the
    /// world then holds other transactions' commits.
    pub fn mine_on(
        &self,
        world: &World,
        transactions: Vec<Transaction>,
        parent_hash: Hash256,
        number: u64,
    ) -> Result<MinedBlock, CoreError> {
        let strategy = self.config.strategy;
        let (block, stats) = miner::mine_on(
            strategy,
            &self.pool,
            world,
            transactions,
            parent_hash,
            number,
        )?;
        let block = block.into_block();
        Ok(MinedBlock { block, stats })
    }

    /// Replays `block` on top of `world` and checks every commitment.
    ///
    /// This is a one-block [`PendingChain`] on the block's parent: the
    /// replay lands in a pending overlay above `world`, and committing
    /// flattens it into `world` and checks the state root. On success
    /// the world holds the block's post-state (so the same world can then
    /// validate the next block of a chain).
    ///
    /// # Errors
    ///
    /// * [`CoreError::BlockRejected`] when the block is dishonest: the
    ///   replayed receipts or gas differ, a replayed transaction's lock
    ///   trace differs from its published profile, or the recomputed
    ///   state root differs.
    /// * [`CoreError::MissingSchedule`] when the block carries no
    ///   schedule, which no engine's miner publishes.
    /// * [`CoreError::MalformedSchedule`] when the schedule's lock
    ///   profiles are not one per transaction in block order, derive a
    ///   cyclic graph, or derive edges or a serial order other than the
    ///   published ones.
    ///
    /// Every rejection but a state-root mismatch is raised before the
    /// overlay reaches the base, and leaves `world` unmoved. A root
    /// mismatch is found only once the block's effects are in `world`,
    /// which is then no longer a chain state — a real node discards it
    /// and resynchronizes.
    pub fn validate(&self, world: &World, block: &Block) -> Result<ValidationReport, CoreError> {
        let parent = block.header.parent_hash;
        let mut pending = PendingChain::in_order(world, parent, 1, self.replay_order());
        let hash = pending.speculate(parent, block)?;
        pending.commit_reported(&hash).map(|(_, report)| report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use cc_vm::testing::CounterContract;
    use cc_vm::{Address, ArgValue, CallData};
    use cc_workload::{Benchmark, WorkloadSpec};

    fn counter_world() -> World {
        let world = World::new();
        world.deploy(Arc::new(CounterContract::new(Address::from_name(
            "counter-engine",
        ))));
        world
    }

    fn counter_txs(n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                Transaction::new(
                    i,
                    Address::from_index(i % 3),
                    Address::from_name("counter-engine"),
                    CallData::new("increment", vec![ArgValue::Uint(1)]),
                    1_000_000,
                )
            })
            .collect()
    }

    /// The serial engine and both concurrent ones, on three threads.
    fn every_engine() -> [Engine; 3] {
        [
            Engine::serial(),
            Engine::speculative(3).unwrap(),
            Engine::optimistic(3).unwrap(),
        ]
    }

    /// `block` as a miner that publishes no schedule would send it.
    fn without_schedule(block: &Block) -> Block {
        let mut bare = block.clone();
        bare.schedule = None;
        bare.header.schedule_digest = Hash256::ZERO;
        bare
    }

    #[test]
    fn default_config_matches_the_paper() {
        let config = EngineConfig::default();
        assert_eq!(config.strategy, ExecutionStrategy::SpeculativeStm);
        assert_eq!(config.threads, EngineConfig::DEFAULT_THREADS);
        assert_eq!(config.threads, 3, "the paper's fixed pool of three threads");
        assert!(config.check_traces);
    }

    #[test]
    fn zero_threads_are_rejected() {
        assert!(matches!(
            EngineConfig::new().threads(0).build(),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(Engine::speculative(0).is_err());
    }

    #[test]
    fn engines_mine_and_validate() {
        let engine = Engine::default();
        let mined = engine.mine(&counter_world(), counter_txs(20)).unwrap();
        let report = engine.validate(&counter_world(), &mined.block).unwrap();
        assert_eq!(report.state_root, mined.block.header.state_root);
        assert_eq!(report.threads, 3);
    }

    #[test]
    fn miner_and_validator_run_on_the_engines_one_pool() {
        let engine = Engine::speculative(3).unwrap();
        assert_eq!(engine.pool_stats(), PoolStats::default());

        let world = counter_world();
        let mined = engine.mine(&world, counter_txs(8)).unwrap();
        // Two runs per block: its transactions, then its state root.
        assert_eq!(engine.pool_stats().runs, 2);
        engine.validate(&counter_world(), &mined.block).unwrap();
        // Two helper wake-ups per run: eight transactions on three
        // workers, then a root over the counter's three dirty fields (both
        // maps written, the cell never hashed yet). A clone sees the same
        // pool.
        assert_eq!(
            engine.clone().pool_stats(),
            PoolStats {
                runs: 4,
                helper_wakes: 8,
                caller_only_runs: 0
            }
        );

        // A root with nothing dirty answers from the field caches on the
        // calling thread.
        assert_eq!(world.state_root_on(&engine.pool), mined.state_root());
        let stats = engine.pool_stats();
        assert_eq!(
            (stats.runs, stats.helper_wakes, stats.caller_only_runs),
            (5, 8, 1)
        );

        // A one-transaction block executes on the calling thread alone;
        // its root still has three dirty fields to spread.
        let single = engine.mine(&counter_world(), counter_txs(1)).unwrap();
        engine.validate(&counter_world(), &single.block).unwrap();
        let stats = engine.pool_stats();
        assert_eq!((stats.helper_wakes, stats.caller_only_runs), (12, 3));

        // The serial strategy's pool has one worker: it starts no helper.
        let serial = Engine::serial();
        let mined = serial.mine(&counter_world(), counter_txs(8)).unwrap();
        serial.validate(&counter_world(), &mined.block).unwrap();
        assert_eq!(serial.pool_stats().helper_wakes, 0);
    }

    #[test]
    fn blocks_keep_their_bytes() {
        let workload = WorkloadSpec::new(Benchmark::Mixed, 120, 0.6)
            .with_seed(5)
            .generate();
        let engines = [
            // The serial engine is the speculative one on one worker, and
            // publishes the same schedule: the same block.
            (
                Engine::serial(),
                "2f72714297d7d6be7139a654c5dddd0db3f9a870135d967cef23e1cf5e7f6fb9",
            ),
            (
                Engine::speculative(1).unwrap(),
                "2f72714297d7d6be7139a654c5dddd0db3f9a870135d967cef23e1cf5e7f6fb9",
            ),
            (
                Engine::optimistic(1).unwrap(),
                "5615e5f2604187ccaef729a021ccf3b002b389bbb5b6d8ca272079bf4798e398",
            ),
        ];
        for (engine, expected) in engines {
            let mined = engine
                .mine(&workload.build_world(), workload.transactions())
                .unwrap();
            let strategy = engine.strategy();
            assert_eq!(mined.block.hash().to_string(), expected, "{strategy}");
            if strategy == ExecutionStrategy::Serial {
                let stats = &mined.stats;
                assert_eq!(stats.threads, 1);
                assert_eq!(stats.retries, 0);
                assert_eq!((stats.critical_path, stats.hb_edges), (24, 58));
                assert_eq!(stats.read_only, 28);
            }
        }
    }

    #[test]
    fn serial_and_speculative_agree() {
        let serial = Engine::serial();
        let speculative = Engine::speculative(4).unwrap();
        let a = serial.mine(&counter_world(), counter_txs(25)).unwrap();
        let b = speculative.mine(&counter_world(), counter_txs(25)).unwrap();
        assert_eq!(a.block.header.state_root, b.block.header.state_root);
        assert_eq!(serial.threads(), 1);
        assert_eq!(speculative.threads(), 4);
    }

    #[test]
    fn schedule_less_blocks_are_outside_input() {
        let mut follower = Node::new(counter_world(), Engine::serial());
        let genesis = follower.chain().head_hash();
        let mined = Engine::serial()
            .mine_on(&counter_world(), counter_txs(8), genesis, 1)
            .unwrap();
        let transactions = mined.block.transactions.clone();
        let receipts = mined.block.receipts.clone();
        let header = &mined.block.header;
        let bare = Block::build(
            header.parent_hash,
            header.number,
            transactions,
            receipts,
            header.state_root,
            None,
        );
        assert!(bare.is_well_formed());
        assert_eq!(bare, without_schedule(&mined.block));

        // No in-tree miner publishes such a block, and no engine has a
        // profile to derive its replay from: every one rejects it.
        for engine in every_engine() {
            let strategy = engine.strategy();
            let validated = engine.validate(&counter_world(), &bare);
            assert!(
                matches!(validated, Err(CoreError::MissingSchedule)),
                "{strategy}: {validated:?}"
            );
        }

        // So does a serial engine's node following it, and stays fresh.
        let root = follower.world().state_root();
        let followed = follower.run_follower_pipeline([bare], &Default::default());
        assert!(matches!(followed, Err(CoreError::MissingSchedule)));
        assert!(!follower.is_stale());
        assert_eq!(follower.world().state_root(), root);
        assert_eq!(follower.chain().len(), 1);
    }

    #[test]
    fn trace_check_toggle_reaches_the_validator() {
        // A phantom exclusive lock in a space nobody else touches adds no
        // edge, so the derived graph still matches the published one and
        // only the trace check can reject the profile's lie.
        for engine in every_engine() {
            let strategy = engine.strategy();
            let mut block = engine.mine(&counter_world(), counter_txs(6)).unwrap().block;
            let schedule = block.schedule.as_mut().unwrap();
            let mut locks = schedule.profiles[0].profile.locks.clone();
            locks.push(cc_stm::ProfileEntry {
                lock: cc_stm::LockSpace::new("engine.phantom").whole(),
                mode: cc_stm::LockMode::Exclusive,
                counter: 1,
            });
            schedule.profiles[0].profile = cc_stm::LockProfile::new(locks);
            block.header.schedule_digest = schedule.digest();

            let err = engine.validate(&counter_world(), &block).unwrap_err();
            assert!(err.to_string().contains("lock trace"), "{strategy}: {err}");
            let lenient = engine.config().clone().check_traces(false).build();
            let report = lenient.unwrap().validate(&counter_world(), &block);
            assert_eq!(report.unwrap().state_root, block.header.state_root);
        }
    }

    #[test]
    fn engine_is_cloneable_and_debuggable() {
        let engine = Engine::default();
        let clone = engine.clone();
        let mined = clone.mine(&counter_world(), counter_txs(4)).unwrap();
        engine.validate(&counter_world(), &mined.block).unwrap();
        assert!(format!("{engine:?}").contains("SpeculativeStm"));
        assert!(ExecutionStrategy::Serial.to_string().contains("serial"));
    }

    #[test]
    fn strategy_names_round_trip_through_from_str() {
        for strategy in [
            ExecutionStrategy::Serial,
            ExecutionStrategy::SpeculativeStm,
            ExecutionStrategy::OptimisticMvcc,
        ] {
            let parsed: ExecutionStrategy = strategy.to_string().parse().unwrap();
            assert_eq!(parsed, strategy);
        }
        assert!(matches!(
            "mvcc".parse::<ExecutionStrategy>(),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!("Serial".parse::<ExecutionStrategy>().is_err());
    }

    #[test]
    fn optimistic_engine_mines_and_validates() {
        let optimistic = Engine::optimistic(3).unwrap();
        assert_eq!(optimistic.strategy(), ExecutionStrategy::OptimisticMvcc);
        assert_eq!(optimistic.threads(), 3);
        let mined = optimistic.mine(&counter_world(), counter_txs(20)).unwrap();
        let baseline = Engine::serial()
            .mine(&counter_world(), counter_txs(20))
            .unwrap();
        assert_eq!(
            mined.block.header.state_root,
            baseline.block.header.state_root
        );
        // The published schedule validates under the ordinary fork-join
        // validator, exactly like a speculatively-mined block.
        let report = optimistic.validate(&counter_world(), &mined.block).unwrap();
        assert_eq!(report.state_root, mined.block.header.state_root);
    }
}

//! The unified engine: one configurable entry point for executing blocks.
//!
//! The paper contributes two algorithms — speculative parallel mining and
//! deterministic fork-join validation — and the repo previously exposed
//! them as four unrelated structs whose constructors every consumer wired
//! up by hand. [`EngineConfig`] replaces that wiring: it names an
//! [`ExecutionStrategy`], a worker-thread count, a retry/backoff budget
//! and the schedule-capture / trace-check toggles, and [`EngineConfig::build`]
//! turns it into an [`Engine`] holding the matching [`Miner`] +
//! [`Validator`] pair. Everything above `cc_stm` — the benchmark harness,
//! the `repro` binary, the examples and the integration tests — goes
//! through this module.
//!
//! The strategy enum is the extension seam for future concurrency
//! back-ends (e.g. OptSmart-style optimistic multi-version execution):
//! adding a variant plus a `build` arm is all a new strategy needs for
//! every consumer to be able to select and benchmark it.
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
use crate::miner::{MinedBlock, Miner, MvccMiner, ParallelMiner, SerialMiner};
use crate::stats::ValidationReport;
use crate::validator::replay::Order;
use crate::validator::{ParallelValidator, SerialValidator, Validator};
use cc_ledger::{Block, Transaction};
use cc_primitives::hash::Hash256;
use cc_primitives::pool::{PoolStats, WorkerPool};
use cc_stm::RetryPolicy;
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
    /// against.
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
///     .threads(4)
///     .capture_schedule(true);
/// assert_eq!(config.threads, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// The concurrency back-end to construct.
    pub strategy: ExecutionStrategy,
    /// Worker threads for parallel strategies (ignored by
    /// [`ExecutionStrategy::Serial`], which always runs one).
    pub threads: usize,
    /// Retry/backoff budget for speculative deadlock victims. The
    /// optimistic strategy does not use it: its validation losers re-run
    /// at once, and the fifth attempt holds the commit mutex.
    pub retry: RetryPolicy,
    /// Whether the miner publishes schedule metadata (happens-before
    /// graph + lock profiles) in the block. Disabling is benchmark-only:
    /// without a schedule the fork-join validator must reject the block.
    pub capture_schedule: bool,
    /// Whether the validator replays and cross-checks lock traces
    /// (rejecting hidden data races). Disabling is ablation-only.
    pub check_traces: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            strategy: ExecutionStrategy::default(),
            threads: EngineConfig::DEFAULT_THREADS,
            retry: RetryPolicy::default(),
            capture_schedule: true,
            check_traces: true,
        }
    }
}

impl EngineConfig {
    /// The paper's evaluation runs "a fixed pool of three threads"; this
    /// is the single place that number lives.
    pub const DEFAULT_THREADS: usize = 3;

    /// The default configuration: speculative STM, three threads,
    /// default retry budget, schedule capture and trace checks on.
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

    /// Sets the full retry/backoff policy for speculative execution.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Caps how many times a deadlock victim is retried before the block
    /// fails to mine (keeps the rest of the retry policy unchanged).
    pub fn max_retries(mut self, max_attempts: u32) -> Self {
        self.retry.max_attempts = max_attempts;
        self
    }

    /// Toggles publication of schedule metadata by the miner.
    pub fn capture_schedule(mut self, capture: bool) -> Self {
        self.capture_schedule = capture;
        self
    }

    /// Toggles the validator's lock-trace / data-race checks.
    pub fn check_traces(mut self, check: bool) -> Self {
        self.check_traces = check;
        self
    }

    /// Validates the configuration and constructs the engine.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `threads` is zero or the
    /// retry budget allows no attempts at all.
    pub fn build(self) -> Result<Engine, CoreError> {
        if self.threads == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "worker thread count must be at least 1".into(),
            });
        }
        if self.retry.max_attempts == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "retry budget must allow at least one attempt".into(),
            });
        }
        // One execution pool per engine, shared by its miner and its
        // validator (and by every clone of the engine). Helper threads
        // start with the first block that can use them, not here; the
        // serial strategy never uses it.
        let pool = Arc::new(WorkerPool::new(self.threads));
        let miner: Arc<dyn Miner + Send + Sync> = match self.strategy {
            ExecutionStrategy::Serial => {
                Arc::new(SerialMiner::new().with_schedule_capture(self.capture_schedule))
            }
            ExecutionStrategy::SpeculativeStm => Arc::new(
                ParallelMiner::on_pool(Arc::clone(&pool))
                    .with_retry_policy(self.retry)
                    .with_schedule_capture(self.capture_schedule),
            ),
            ExecutionStrategy::OptimisticMvcc => Arc::new(
                MvccMiner::on_pool(Arc::clone(&pool)).with_schedule_capture(self.capture_schedule),
            ),
        };
        // How every block this engine validates or follows is replayed,
        // decided here and nowhere else. A serial engine's blocks publish
        // no lock profiles, so they replay in published order with no
        // trace checks. The optimistic miner publishes the same schedule
        // metadata (profiles + happens-before edges) as the speculative
        // one, so both replay as the fork-join program of the published
        // graph — validators stay strategy-agnostic.
        let replay = match self.strategy {
            ExecutionStrategy::Serial => Order::Published,
            ExecutionStrategy::SpeculativeStm | ExecutionStrategy::OptimisticMvcc => {
                Order::fork_join(Arc::clone(&pool)).with_trace_checks(self.check_traces)
            }
        };
        let validator: Arc<dyn Validator + Send + Sync> = match &replay {
            Order::Published => Arc::new(SerialValidator::new()),
            Order::ForkJoin { .. } => Arc::new(ParallelValidator::in_order(replay.clone())),
        };
        Ok(Engine {
            config: self,
            pool,
            miner,
            validator,
            replay,
        })
    }
}

/// A miner + validator pair constructed from one [`EngineConfig`].
///
/// The engine is cheap to clone (the strategy internals are shared) and
/// is the only execution entry point the benches, examples and
/// integration tests use. It owns the one execution pool its miner and
/// validator run blocks on; clones share it, and a clone that finds the
/// pool busy executes its block on the calling thread alone.
#[derive(Clone)]
pub struct Engine {
    config: EngineConfig,
    pool: Arc<WorkerPool>,
    miner: Arc<dyn Miner + Send + Sync>,
    validator: Arc<dyn Validator + Send + Sync>,
    replay: Order,
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
        match self.config.strategy {
            ExecutionStrategy::Serial => 1,
            ExecutionStrategy::SpeculativeStm | ExecutionStrategy::OptimisticMvcc => {
                self.config.threads
            }
        }
    }

    /// Activity of the engine's execution pool: one run per block mined
    /// or fork-join validated, and how many helper wake-ups they cost.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The strategy's miner, for call sites that need the raw trait
    /// object (e.g. driving someone else's [`crate::node::Node`]).
    pub fn miner(&self) -> &dyn Miner {
        self.miner.as_ref()
    }

    /// The strategy's validator.
    pub fn validator(&self) -> &dyn Validator {
        self.validator.as_ref()
    }

    /// How this engine replays blocks: the order its validator runs them
    /// in, for the node's pending chain to run them in too.
    pub(crate) fn replay_order(&self) -> &Order {
        &self.replay
    }

    /// Executes `transactions` against `world` and assembles a block at
    /// height 1 (see [`Miner::mine`]).
    ///
    /// # Errors
    ///
    /// Propagates the miner's [`CoreError::MiningFailed`].
    pub fn mine(
        &self,
        world: &World,
        transactions: Vec<Transaction>,
    ) -> Result<MinedBlock, CoreError> {
        self.miner.mine(world, transactions)
    }

    /// Mines on top of an explicit parent (see [`Miner::mine_on`]).
    ///
    /// # Errors
    ///
    /// Propagates the miner's [`CoreError::MiningFailed`].
    pub fn mine_on(
        &self,
        world: &World,
        transactions: Vec<Transaction>,
        parent_hash: Hash256,
        number: u64,
    ) -> Result<MinedBlock, CoreError> {
        self.miner.mine_on(world, transactions, parent_hash, number)
    }

    /// Replays `block` on `world` and checks every commitment (see
    /// [`Validator::validate`]).
    ///
    /// # Errors
    ///
    /// Propagates the validator's rejection.
    pub fn validate(&self, world: &World, block: &Block) -> Result<ValidationReport, CoreError> {
        self.validator.validate(world, block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_vm::testing::CounterContract;
    use cc_vm::{Address, ArgValue, CallData};

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

    #[test]
    fn default_config_matches_the_paper() {
        let config = EngineConfig::default();
        assert_eq!(config.strategy, ExecutionStrategy::SpeculativeStm);
        assert_eq!(config.threads, EngineConfig::DEFAULT_THREADS);
        assert_eq!(config.threads, 3, "the paper's fixed pool of three threads");
        assert!(config.capture_schedule);
        assert!(config.check_traces);
    }

    #[test]
    fn zero_threads_and_zero_retries_are_rejected() {
        assert!(matches!(
            EngineConfig::new().threads(0).build(),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            EngineConfig::new().max_retries(0).build(),
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

        let mined = engine.mine(&counter_world(), counter_txs(8)).unwrap();
        assert_eq!(engine.pool_stats().runs, 1);
        engine.validate(&counter_world(), &mined.block).unwrap();
        // One run each, two helper wake-ups each; a clone sees the same pool.
        assert_eq!(
            engine.clone().pool_stats(),
            PoolStats {
                runs: 2,
                helper_wakes: 4,
                caller_only_runs: 0
            }
        );

        // A one-transaction block never leaves the calling thread.
        let single = engine.mine(&counter_world(), counter_txs(1)).unwrap();
        engine.validate(&counter_world(), &single.block).unwrap();
        let stats = engine.pool_stats();
        assert_eq!((stats.helper_wakes, stats.caller_only_runs), (4, 2));

        // The serial strategy has no use for the pool.
        let serial = Engine::serial();
        let mined = serial.mine(&counter_world(), counter_txs(8)).unwrap();
        serial.validate(&counter_world(), &mined.block).unwrap();
        assert_eq!(serial.pool_stats(), PoolStats::default());
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
    fn capture_toggle_removes_the_schedule() {
        let engine = Engine::builder().capture_schedule(false).build().unwrap();
        let mined = engine.mine(&counter_world(), counter_txs(8)).unwrap();
        assert!(mined.block.schedule.is_none());
        assert!(mined.block.is_well_formed());
        // Without a published schedule the fork-join validator must
        // reject the block.
        assert!(matches!(
            engine.validate(&counter_world(), &mined.block),
            Err(CoreError::MissingSchedule)
        ));
        // A serial engine without capture also mines schedule-less blocks
        // and its validator still accepts them (block-order replay).
        let serial = EngineConfig::serial()
            .capture_schedule(false)
            .build()
            .unwrap();
        let mined = serial.mine(&counter_world(), counter_txs(8)).unwrap();
        assert!(mined.block.schedule.is_none());
        serial.validate(&counter_world(), &mined.block).unwrap();
    }

    #[test]
    fn trace_check_toggle_reaches_the_validator() {
        // A serially-mined block has no lock profiles; the speculative
        // validator accepts it only with trace checks disabled.
        let serial_block = Engine::serial()
            .mine(&counter_world(), counter_txs(6))
            .unwrap();
        let strict = Engine::default();
        assert!(strict
            .validate(&counter_world(), &serial_block.block)
            .is_err());
        let lenient = Engine::builder().check_traces(false).build().unwrap();
        lenient
            .validate(&counter_world(), &serial_block.block)
            .unwrap();
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

    #[test]
    fn custom_retry_policy_is_threaded_through() {
        let config = EngineConfig::new()
            .retry_policy(RetryPolicy::no_backoff(16))
            .max_retries(8);
        assert_eq!(config.retry.max_attempts, 8);
        assert_eq!(config.retry.base_backoff_us, 0);
        let engine = config.build().unwrap();
        let mined = engine.mine(&counter_world(), counter_txs(30)).unwrap();
        assert_eq!(mined.block.len(), 30);
    }
}

//! A convenience full node: an [`Engine`], a world, a chain, a mempool
//! front door ([`Node::submit`] / [`Node::mine_pending`]) — and
//! optionally a durable ledger (write-ahead log plus periodic snapshots)
//! that [`Node::recover`] can rebuild the node from after a crash.

mod commit;
pub mod pending;
mod seal_worker;

use crate::engine::{Engine, EngineConfig};
use crate::error::CoreError;
use crate::miner::MinedBlock;
use crate::stats::ValidationReport;
use cc_ledger::wal::{DurabilityMode, Wal, WAL_FILE};
use cc_ledger::{Block, Blockchain, Transaction};
use cc_mempool::{Mempool, MempoolConfig, SubmitOutcome};
use cc_vm::World;
use commit::{Follow, Produce};
pub use commit::{FollowerConfig, PipelineConfig, PipelineReport};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Where and how eagerly a node persists its ledger.
///
/// With a mode other than [`DurabilityMode::Off`], the node writes every
/// appended block to a write-ahead log in `dir` (one frame and one file
/// write — and in [`DurabilityMode::Fsync`] one fsync — per block; the
/// log holds nothing else), plus a checkpoint (the chain prefix and its
/// state root — no world image) every `snapshot_interval` blocks, after
/// which the log is reset and the other checkpoints are pruned.
/// [`Node::recover`] rebuilds a node from that directory.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    dir: PathBuf,
    mode: DurabilityMode,
    snapshot_interval: u64,
}

impl DurabilityConfig {
    /// Default number of blocks between checkpoints.
    pub const DEFAULT_SNAPSHOT_INTERVAL: u64 = 16;

    /// Configures durability in `dir` with the given mode.
    pub fn new(dir: impl Into<PathBuf>, mode: DurabilityMode) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            mode,
            snapshot_interval: Self::DEFAULT_SNAPSHOT_INTERVAL,
        }
    }

    /// Sets the snapshot cadence (clamped to at least 1 block).
    pub fn snapshot_interval(mut self, every: u64) -> Self {
        self.snapshot_interval = every.max(1);
        self
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured durability mode.
    pub fn mode(&self) -> DurabilityMode {
        self.mode
    }
}

/// Live durability machinery of a node: its config plus the open WAL,
/// which the commit stage seals each appended block into (shared with
/// the seal worker). The execution runtimes never see it.
#[derive(Debug)]
struct DurabilityState {
    config: DurabilityConfig,
    wal: Arc<Wal>,
}

impl DurabilityState {
    /// Writes a checkpoint at `chain`'s head — the chain prefix and the
    /// head's state root, no world image (see [`cc_ledger::snapshot`]) —
    /// then resets the WAL (its seals are now redundant) and prunes
    /// every other checkpoint but the one before it.
    fn write_snapshot(&self, chain: &Blockchain) -> Result<(), CoreError> {
        let dir = self.config.dir();
        cc_ledger::write_checkpoint(dir, chain).map_err(CoreError::durability)?;
        self.wal.reset().map_err(CoreError::durability)?;
        // The pruned files are redundant, so a failed unlink is not a
        // durability failure; the next barrier retries it.
        let _ = cc_ledger::prune(dir, chain.head().header.number);
        Ok(())
    }
}

/// A node that owns a world, a chain and the [`Engine`] that executes
/// blocks, keeping all three consistent.
///
/// `Node` is a thin orchestration layer used by the examples and the
/// benchmark harness:
///
/// * a **mining node** calls [`Node::mine_and_append`] to execute client
///   transactions with its engine's miner and extend its chain;
/// * a **validating node** calls [`Node::validate_and_append`] with blocks
///   received from the network; its world is advanced only when the block
///   is accepted (a block whose state root is forged is the one
///   exception, and stales the node).
///
/// Build one with [`Node::builder`]:
///
/// ```
/// use cc_core::engine::EngineConfig;
/// use cc_core::node::Node;
/// use cc_vm::World;
///
/// let node = Node::builder()
///     .world(World::new())
///     .config(EngineConfig::new().threads(2))
///     .build()
///     .expect("valid config");
/// assert_eq!(node.engine().threads(), 2);
/// ```
#[derive(Debug)]
pub struct Node {
    world: World,
    chain: Blockchain,
    engine: Engine,
    /// Set when the in-memory state can no longer be trusted to match
    /// what the node has promised: a block's forged state root was found
    /// only after its effects were flattened into the world (which now
    /// holds a block that was never appended), mining failed part-way, or
    /// persisting an appended block failed (the in-memory chain is ahead
    /// of what the WAL can recover). A stale node refuses further work;
    /// rebuild it with [`Node::recover`] (when durability is on) or from
    /// a trusted state.
    stale: bool,
    durability: Option<DurabilityState>,
    mempool: Mempool,
}

/// Builder for [`Node`]: a world (deployed contracts, seeded state) plus
/// either a ready [`Engine`] or an [`EngineConfig`] to build one from.
#[derive(Debug, Default)]
pub struct NodeBuilder {
    world: Option<World>,
    engine: Option<Engine>,
    config: Option<EngineConfig>,
    durability: Option<DurabilityConfig>,
    mempool: Option<MempoolConfig>,
}

impl NodeBuilder {
    /// Sets the node's initial world. The genesis block commits to this
    /// world's state root. Defaults to an empty [`World`].
    pub fn world(mut self, world: World) -> Self {
        self.world = Some(world);
        self
    }

    /// Uses an already-built engine (e.g. one shared with other nodes).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Builds the node's engine from a configuration. Overridden by
    /// [`NodeBuilder::engine`] if both are given.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Enables durable operation: a fresh WAL and a genesis checkpoint are
    /// created in the configured directory at build time (pre-existing
    /// log contents and every checkpoint above genesis are discarded —
    /// use [`Node::recover`] to *resume* from a directory instead).
    pub fn durability(mut self, config: DurabilityConfig) -> Self {
        self.durability = Some(config);
        self
    }

    /// Sizes the node's mempool (capacity and shard count). Defaults to
    /// [`MempoolConfig::default`].
    pub fn mempool(mut self, config: MempoolConfig) -> Self {
        self.mempool = Some(config);
        self
    }

    /// Constructs the node.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the supplied configuration
    /// is rejected by [`EngineConfig::build`], or [`CoreError::Durability`]
    /// if the durability directory cannot be initialized.
    pub fn build(self) -> Result<Node, CoreError> {
        let engine = match (self.engine, self.config) {
            (Some(engine), _) => engine,
            (None, Some(config)) => config.build()?,
            (None, None) => Engine::default(),
        };
        let mut node = Node::new(self.world.unwrap_or_default(), engine);
        if let Some(config) = self.mempool {
            node.mempool = Mempool::new(config);
        }
        if let Some(config) = self.durability {
            node.enable_durability(config)?;
        }
        Ok(node)
    }
}

impl Node {
    /// Starts building a node.
    pub fn builder() -> NodeBuilder {
        NodeBuilder::default()
    }

    /// Creates a node over an already-populated world (deployed contracts,
    /// seeded state) executing blocks with `engine`. The genesis block
    /// commits to that initial state.
    pub fn new(world: World, engine: Engine) -> Self {
        let genesis_root = world.state_root_on(engine.pool());
        Node {
            world,
            chain: Blockchain::with_genesis_state(genesis_root),
            engine,
            stale: false,
            durability: None,
            mempool: Mempool::default(),
        }
    }

    /// Rebuilds a node from a durability directory after a crash (or
    /// after a rejected validation staled it).
    ///
    /// `world` must be the same *initial* world the original node was
    /// built with (same deployed contracts and seeded state) — contracts
    /// are native code and cannot be serialized, so recovery is
    /// deterministic re-execution: the latest valid checkpoint anchors
    /// the chain, sealed blocks from the WAL's valid prefix extend it,
    /// and the whole recovered chain is replayed in one
    /// [`Node::run_follower_pipeline`] run with no durability stage (any
    /// strategy works — every engine replays the schedule a block's lock
    /// profiles derive). Torn or corrupt WAL tails are
    /// dropped; effects of aborted or unsealed transactions never
    /// survive because only sealed blocks are replayed. The WAL is then
    /// reopened (truncating the torn tail) and the node resumes durable
    /// operation.
    ///
    /// There is no separate comparison of the replayed world with the
    /// checkpoint, because it could not fire: a checkpoint only loads if
    /// its `state_root` equals its anchor block's header root, the
    /// replay holds the world to every block's header root (the anchor's
    /// included) before committing it, and that root is a SHA-256
    /// commitment over the same field list a world image is built from.
    ///
    /// # Errors
    ///
    /// [`CoreError::Durability`] if the directory holds no valid
    /// snapshot, the supplied world does not match the recorded genesis,
    /// replay diverges from the recorded commitments, or the WAL cannot
    /// be reopened.
    pub fn recover(
        config: DurabilityConfig,
        world: World,
        engine: Engine,
    ) -> Result<Node, CoreError> {
        let recovered = cc_ledger::recover(config.dir()).map_err(CoreError::durability)?;
        let genesis = recovered
            .chain
            .block(0)
            .ok_or_else(|| CoreError::durability("recovered chain has no genesis block"))?;
        if world.state_root_on(engine.pool()) != genesis.header.state_root {
            return Err(CoreError::durability(
                "supplied initial world does not match the recovered genesis state root",
            ));
        }
        // Replay through the node's own commit pipeline, fed by the
        // recovered blocks with no durability stage: each block validates
        // against its predecessor's pending post-state, and the in-order
        // commit checks the flattened world against the block's header
        // root.
        let mut node = Node::new(world, engine);
        let blocks = recovered.chain.iter().skip(1).cloned();
        node.run_follower_pipeline(blocks, &FollowerConfig::new())
            .map_err(|e| {
                let number = node.chain.head().header.number + 1;
                CoreError::durability(format!("replay of recovered block {number} failed: {e}"))
            })?;
        // The rebuilt chain also seeds the fresh mempool's per-sender
        // nonce boundaries: post-recovery submissions resume where the
        // chain left off instead of parking behind already-mined nonces.
        for tx in node.chain.iter().flat_map(|block| &block.transactions) {
            node.mempool.observe_consumed(tx.sender, tx.nonce + 1);
        }
        if config.mode() != DurabilityMode::Off {
            let wal = Wal::open_append(config.dir().join(WAL_FILE), config.mode())
                .map_err(CoreError::durability)?;
            node.durability = Some(DurabilityState {
                config,
                wal: Arc::new(wal),
            });
        }
        Ok(node)
    }

    /// Whether this node's state can no longer be trusted: a received
    /// block's forged state root was caught only after its effects
    /// reached the world (see [`Node::validate_and_append`]), a mining
    /// failure left other transactions' commits in the world, or a
    /// failed block persistence left the in-memory chain ahead of what
    /// the WAL can recover. Every other rejection of a received block
    /// leaves the node fresh. A stale node refuses to mine or validate;
    /// rebuild it with [`Node::recover`] from its durability directory,
    /// or from a trusted state.
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    fn ensure_fresh(&self) -> Result<(), CoreError> {
        if self.stale {
            return Err(CoreError::rejected(
                "node state is stale after a rejected validation or a failed persistence; rebuild it with Node::recover from its durability directory, or from a trusted state",
            ));
        }
        Ok(())
    }

    fn enable_durability(&mut self, config: DurabilityConfig) -> Result<(), CoreError> {
        if config.mode() == DurabilityMode::Off {
            return Ok(());
        }
        std::fs::create_dir_all(config.dir()).map_err(CoreError::durability)?;
        let wal = Wal::create(config.dir().join(WAL_FILE), config.mode())
            .map_err(CoreError::durability)?;
        let state = self.durability.insert(DurabilityState {
            config,
            wal: Arc::new(wal),
        });
        // The genesis checkpoint: recovery always has an anchor, even if
        // the node crashes before the first periodic one.
        state.write_snapshot(&self.chain)
    }

    /// The node's world (current state).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The node's chain.
    pub fn chain(&self) -> &Blockchain {
        &self.chain
    }

    /// The engine executing this node's blocks.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The node's pending-transaction pool. Inspect occupancy with
    /// [`cc_mempool::Mempool::stats`]; feed it with [`Node::submit`].
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// The node's open write-ahead log, when durability is on. Exposed
    /// for diagnostics and fault injection
    /// ([`cc_ledger::wal::Wal::inject_seal_failures`]) — production
    /// callers never need it.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.durability.as_ref().map(|state| &state.wal)
    }

    /// Submits a transaction to the node's mempool — the traffic-serving
    /// front door. The transaction becomes eligible for the next
    /// [`Node::mine_pending`] (or pipeline) block once all the sender's
    /// earlier nonces are pending or mined; see [`cc_mempool`] for the
    /// admission, replacement and eviction policies.
    ///
    /// Submission is lock-cheap (one shard mutex) and does not touch the
    /// chain, so it can run concurrently with block production.
    ///
    /// # Errors
    ///
    /// [`CoreError::Mempool`] when the pool rejects the transaction, or
    /// [`CoreError::BlockRejected`] with a "stale" reason when the node
    /// has been staled by an earlier failure.
    pub fn submit(&self, tx: Transaction) -> Result<SubmitOutcome, CoreError> {
        self.ensure_fresh()?;
        Ok(self.mempool.submit(tx)?)
    }

    /// Assembles the highest-priority ready transactions from the mempool
    /// into a gas-budgeted batch (see [`cc_mempool::Mempool::build_block`])
    /// and mines them as the next block via [`Node::mine_and_append`].
    /// An empty pool yields an empty block.
    ///
    /// This is the *sequential* production path — assembly, mining,
    /// validation bookkeeping and the WAL seal/fsync all run on this
    /// call. [`Node::run_pipeline`] overlaps those stages across
    /// consecutive blocks instead.
    ///
    /// # Errors
    ///
    /// Same as [`Node::mine_and_append`]. Drained transactions are *not*
    /// returned to the pool on error; a failure that matters here stales
    /// the node, and [`Node::recover`] rebuilds from the durable prefix.
    pub fn mine_pending(&mut self, gas_limit: u64) -> Result<MinedBlock, CoreError> {
        self.ensure_fresh()?;
        let batch = self.mempool.build_block(gas_limit);
        self.mine_and_append(batch)
    }

    /// Mines a block of `transactions` with the node's engine on top of
    /// the current head and appends it to the chain.
    ///
    /// This is the raw, batch-at-a-time door used by the validator
    /// examples and benchmarks; a node serving client traffic takes
    /// [`Node::submit`] + [`Node::mine_pending`] (or
    /// [`Node::run_pipeline`]) instead, letting the mempool pick the
    /// batch by fee priority.
    ///
    /// # Errors
    ///
    /// Returns the miner's error, or a [`CoreError::BlockRejected`] if the
    /// assembled block unexpectedly fails structural chain checks.
    pub fn mine_and_append(
        &mut self,
        transactions: Vec<Transaction>,
    ) -> Result<MinedBlock, CoreError> {
        let stage = self.commit_stage(1)?;
        let mut batch = Some(transactions);
        let mut source = Produce::new(&stage, || batch.take());
        stage.run(&mut source)?;
        // A run that returns `Ok` asked its source once and appended what it mined.
        let stats = source.stats.expect("a completed run mined its one batch");
        let block = self.chain.head().clone();
        Ok(MinedBlock { block, stats })
    }

    /// Validates a block received from another node with the node's
    /// engine and appends it on success: the follower pipeline
    /// ([`Node::run_follower_pipeline`]) over one block with a window of
    /// one, so the block is replayed onto a pending overlay, flattened
    /// into the world, held to its state root and sealed inline.
    ///
    /// # Errors
    ///
    /// Rejects blocks that do not extend this node's chain (wrong parent,
    /// wrong number), and propagates the validator's rejection. All of
    /// these leave the world and the chain where they were and the node
    /// fresh — the rejected block's overlay is discarded — except a
    /// forged state root: it is found only once the block's effects are
    /// in the world, so the node marks itself stale and every subsequent
    /// call fails fast until it is rebuilt ([`Node::recover`], or from a
    /// trusted world). A seal or snapshot failure stales it too.
    pub fn validate_and_append(&mut self, block: &Block) -> Result<ValidationReport, CoreError> {
        let stage = self.commit_stage(1)?;
        let mut source = Follow::new(&stage, std::iter::once(block.clone()));
        stage.run(&mut source)?;
        // A run that returns `Ok` committed its one block.
        Ok(source
            .report
            .expect("a completed run validated its one block"))
    }
}

#[cfg(test)]
mod tests;

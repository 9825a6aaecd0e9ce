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
use cc_ledger::{Block, Blockchain, SnapshotFile, Transaction};
use cc_mempool::{Mempool, MempoolConfig, SubmitOutcome};
use cc_vm::World;
pub use commit::{FollowerConfig, PipelineConfig, PipelineReport};
use commit::{Produce, Validate};
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
        let head = chain.head();
        let snapshot = SnapshotFile {
            height: head.header.number,
            block_hash: head.hash(),
            state_root: head.header.state_root,
            blocks: chain.iter().cloned().collect(),
            world_bytes: Vec::new(),
        };
        let dir = self.config.dir();
        snapshot.write_to(dir).map_err(CoreError::durability)?;
        self.wal.reset().map_err(CoreError::durability)?;
        // The pruned files are redundant, so a failed unlink is not a
        // durability failure; the next barrier retries it.
        let _ = cc_ledger::prune(dir, snapshot.height);
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
///   is accepted.
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
    /// what the node has promised: a validation rejected a block *after*
    /// replaying it (the world holds effects of a block that was never
    /// appended), or persisting an appended block failed (the in-memory
    /// chain is ahead of what the WAL can recover). A stale node refuses
    /// further work; rebuild it with [`Node::recover`] (when durability
    /// is on) or from a trusted state.
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
        let genesis_root = world.state_root();
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
    /// strategy works — blocks carry their schedules, and a serial
    /// engine skips the trace checks). Torn or corrupt WAL tails are
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
        if world.state_root() != genesis.header.state_root {
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

    /// Whether this node's state has been corrupted by a rejected
    /// validation (see [`Node::validate_and_append`]) or by a failed
    /// block persistence (the in-memory chain advanced past what the
    /// WAL can recover). A stale node refuses to mine or validate;
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
    /// engine and appends it on success.
    ///
    /// # Errors
    ///
    /// Propagates the validator's rejection, or rejects blocks that do not
    /// extend this node's chain.
    ///
    /// A rejection may leave the world holding effects of the rejected
    /// block (validation mutates the world; see
    /// [`Engine::validate`]), so the node conservatively
    /// marks itself stale on *any* validator rejection and every
    /// subsequent call fails fast — a real node discards that state and
    /// resynchronizes, and so must callers of this API (rebuild the node
    /// from a trusted world). Blocks turned away before the validator
    /// runs (wrong parent, wrong number) do not stale the node.
    pub fn validate_and_append(&mut self, block: &Block) -> Result<ValidationReport, CoreError> {
        let stage = self.commit_stage(1)?;
        let mut source = Validate::new(&stage, block);
        stage.run(&mut source)?;
        // A run that returns `Ok` asked its source once and appended what it validated.
        Ok(source
            .report
            .expect("a completed run validated its one block"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExecutionStrategy;
    use cc_vm::testing::CounterContract;
    use cc_vm::{Address, ArgValue, CallData};
    use std::sync::Arc;

    fn fresh_world() -> World {
        let world = World::new();
        world.deploy(Arc::new(CounterContract::new(Address::from_name(
            "counter-node",
        ))));
        world
    }

    fn engine_node(threads: usize) -> Node {
        Node::builder()
            .world(fresh_world())
            .config(EngineConfig::new().threads(threads))
            .build()
            .expect("valid config")
    }

    fn block_txs(base: u64, n: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                Transaction::new(
                    base + i,
                    Address::from_index(i),
                    Address::from_name("counter-node"),
                    CallData::new("increment", vec![ArgValue::Uint(1)]),
                    1_000_000,
                )
            })
            .collect()
    }

    #[test]
    fn miner_node_and_validator_node_stay_in_sync() {
        let mut miner_node = engine_node(3);
        let mut validator_node = engine_node(3);

        for block_number in 0..3u64 {
            let mined = miner_node
                .mine_and_append(block_txs(block_number * 100, 12))
                .unwrap();
            let report = validator_node.validate_and_append(&mined.block).unwrap();
            assert_eq!(report.state_root, mined.block.header.state_root);
        }
        assert_eq!(miner_node.chain().len(), 4);
        assert_eq!(validator_node.chain().len(), 4);
        assert_eq!(
            miner_node.world().state_root(),
            validator_node.world().state_root()
        );
        assert!(miner_node.chain().verify_structure());
    }

    #[test]
    fn validator_node_rejects_blocks_that_do_not_extend_its_head() {
        let mut miner_node = engine_node(2);
        let mut validator_node = engine_node(2);

        let first = miner_node.mine_and_append(block_txs(0, 4)).unwrap();
        let second = miner_node.mine_and_append(block_txs(100, 4)).unwrap();
        // Skipping the first block: the second does not extend genesis.
        let err = validator_node
            .validate_and_append(&second.block)
            .unwrap_err();
        assert!(err.to_string().contains("does not extend"));
        validator_node.validate_and_append(&first.block).unwrap();
        validator_node.validate_and_append(&second.block).unwrap();
    }

    #[test]
    fn rejected_validation_stales_the_node() {
        let mut miner_node = engine_node(2);
        let mut validator_node = engine_node(2);

        let mined = miner_node.mine_and_append(block_txs(0, 6)).unwrap();
        let mut forged = mined.block.clone();
        forged.header.state_root = cc_primitives::sha256(b"forged");
        assert!(validator_node.validate_and_append(&forged).is_err());
        assert!(validator_node.is_stale());

        // The replay mutated the validator's world; the node now refuses
        // all further work instead of silently diverging.
        let err = validator_node
            .validate_and_append(&mined.block)
            .unwrap_err();
        assert!(err.to_string().contains("stale"), "got: {err}");
        let err = validator_node
            .mine_and_append(block_txs(100, 2))
            .unwrap_err();
        assert!(err.to_string().contains("stale"), "got: {err}");

        // A wrong-parent rejection happens before the validator runs and
        // does not stale the node.
        let mut fresh = engine_node(2);
        let second = miner_node.mine_and_append(block_txs(100, 2)).unwrap();
        assert!(fresh.validate_and_append(&second.block).is_err());
        assert!(!fresh.is_stale());
        fresh.validate_and_append(&mined.block).unwrap();
        fresh.validate_and_append(&second.block).unwrap();
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cc-node-test-{}-{tag}", std::process::id()));
        p
    }

    #[test]
    fn durable_node_recovers_to_identical_state() {
        let dir = temp_dir("recover");
        std::fs::remove_dir_all(&dir).ok();
        let config = DurabilityConfig::new(&dir, DurabilityMode::Fsync).snapshot_interval(2);
        let mut node = Node::builder()
            .world(fresh_world())
            .config(EngineConfig::new().threads(2))
            .durability(config.clone())
            .build()
            .unwrap();
        for block_number in 0..3u64 {
            node.mine_and_append(block_txs(block_number * 100, 8))
                .unwrap();
        }
        let head_hash = node.chain().head_hash();
        let world_bytes = node.world().snapshot().to_bytes();
        drop(node);

        let engine = EngineConfig::new().threads(2).build().unwrap();
        let recovered = Node::recover(config, fresh_world(), engine).unwrap();
        assert_eq!(recovered.chain().head_hash(), head_hash);
        assert_eq!(recovered.chain().len(), 4);
        assert_eq!(recovered.world().snapshot().to_bytes(), world_bytes);

        // The recovered node keeps working durably.
        let mut recovered = recovered;
        recovered.mine_and_append(block_txs(1000, 4)).unwrap();
        assert_eq!(recovered.chain().len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_is_the_exit_from_a_staled_node() {
        let dir = temp_dir("stale-recover");
        std::fs::remove_dir_all(&dir).ok();
        let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered);
        let mut miner_node = engine_node(2);
        let mut validator_node = Node::builder()
            .world(fresh_world())
            .config(EngineConfig::new().threads(2))
            .durability(config.clone())
            .build()
            .unwrap();

        let first = miner_node.mine_and_append(block_txs(0, 6)).unwrap();
        validator_node.validate_and_append(&first.block).unwrap();

        let second = miner_node.mine_and_append(block_txs(100, 6)).unwrap();
        let mut forged = second.block.clone();
        forged.header.state_root = cc_primitives::sha256(b"forged");
        assert!(validator_node.validate_and_append(&forged).is_err());
        assert!(validator_node.is_stale());
        let err = validator_node
            .mine_and_append(block_txs(200, 2))
            .unwrap_err();
        assert!(err.to_string().contains("Node::recover"), "got: {err}");
        drop(validator_node);

        // Recovery rebuilds the pre-forgery state; the honest block then
        // validates cleanly.
        let engine = EngineConfig::new().threads(2).build().unwrap();
        let mut recovered = Node::recover(config, fresh_world(), engine).unwrap();
        assert_eq!(recovered.chain().head_hash(), first.block.hash());
        recovered.validate_and_append(&second.block).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_resumes_from_snapshot_when_wal_is_missing() {
        let dir = temp_dir("missing-wal");
        std::fs::remove_dir_all(&dir).ok();
        let config = DurabilityConfig::new(&dir, DurabilityMode::Fsync);
        let mut node = Node::builder()
            .world(fresh_world())
            .config(EngineConfig::new().threads(2))
            .durability(config.clone())
            .build()
            .unwrap();
        node.mine_and_append(block_txs(0, 4)).unwrap();
        drop(node);

        // A snapshot without a wal.log is a legal directory state (the
        // log was reset and the file later removed); recovery resumes
        // from the snapshot alone and recreates the log.
        std::fs::remove_file(dir.join(WAL_FILE)).unwrap();
        let engine = EngineConfig::new().threads(2).build().unwrap();
        let mut recovered = Node::recover(config, fresh_world(), engine).unwrap();
        assert_eq!(
            recovered.chain().len(),
            1,
            "only the genesis snapshot survived"
        );
        recovered.mine_and_append(block_txs(0, 4)).unwrap();
        assert_eq!(recovered.chain().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The names in `dir`, sorted.
    fn dir_listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_checkpoint_costs_its_chain_prefix_not_the_world() {
        let dir = temp_dir("checkpoint-size");
        std::fs::remove_dir_all(&dir).ok();
        // A world far larger than the chain: any O(world) term in a
        // checkpoint dwarfs the 1 KiB of slack below.
        let world = fresh_world();
        let token = cc_contracts::Token::new(Address::from_name("token"), Address::from_index(0));
        for account in 0..5_000u64 {
            token.seed_balance(Address::from_index(account), 1 + u128::from(account));
        }
        world.deploy(Arc::new(token));
        assert!(world.snapshot().to_bytes().len() > 100 * 1024);

        let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered).snapshot_interval(2);
        let mut node = Node::builder()
            .world(world)
            .config(EngineConfig::new().threads(2))
            .durability(config)
            .build()
            .unwrap();
        let assert_chain_sized = |node: &Node, height: u64| {
            let file = std::fs::metadata(dir.join(SnapshotFile::file_name(height))).unwrap();
            let blocks = node.chain().iter().take(height as usize + 1);
            let prefix: usize = blocks.map(|block| block.to_checked_bytes().len()).sum();
            assert!(
                file.len() <= prefix as u64 + 1024,
                "checkpoint {height} is {} bytes over a {prefix}-byte chain prefix",
                file.len()
            );
        };
        assert_chain_sized(&node, 0);
        for block_number in 0..3u64 {
            node.mine_and_append(block_txs(block_number * 100, 8))
                .unwrap();
        }
        assert_chain_sized(&node, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn barriers_keep_the_two_newest_checkpoints_and_either_one_recovers() {
        let dir = temp_dir("checkpoint-prune");
        std::fs::remove_dir_all(&dir).ok();
        let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered).snapshot_interval(1);
        let mut node = Node::builder()
            .world(fresh_world())
            .config(EngineConfig::new().threads(2))
            .durability(config.clone())
            .build()
            .unwrap();
        // What a checkpoint write that died before its rename leaves.
        std::fs::write(dir.join(".snapshot-9.snap.tmp"), b"torn").unwrap();
        for block_number in 0..5u64 {
            node.mine_and_append(block_txs(block_number * 100, 4))
                .unwrap();
        }
        assert_eq!(
            dir_listing(&dir),
            ["snapshot-4.snap", "snapshot-5.snap", WAL_FILE],
            "five barriers: the two newest checkpoints, no temporary file"
        );
        let fourth = node.chain().block(4).unwrap().clone();
        drop(node);

        // The newest checkpoint and the log are lost: the other one is
        // the anchor, and replaying its chain reaches its root.
        std::fs::remove_file(dir.join("snapshot-5.snap")).unwrap();
        std::fs::remove_file(dir.join(WAL_FILE)).unwrap();
        let fallback = cc_ledger::load_latest(&dir).unwrap().expect("fallback");
        assert_eq!(fallback.height, 4);
        assert_eq!(fallback.state_root, fourth.header.state_root);
        let engine = EngineConfig::new().threads(2).build().unwrap();
        let recovered = Node::recover(config, fresh_world(), engine).unwrap();
        assert_eq!(recovered.chain().head_hash(), fourth.hash());
        assert_eq!(recovered.world().state_root(), fourth.header.state_root);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What the WAL must hold after `node`'s head, with a checkpoint
    /// every `interval` blocks: one seal frame — 12 bytes of frame header,
    /// a tag byte, a `u64` length and the encoded block — per block since
    /// the last checkpoint, and nothing else.
    fn seal_bytes(node: &Node, interval: u64) -> u64 {
        let head = node.chain().head().header.number;
        let checkpoint = head - head % interval;
        let blocks = node.chain().iter().skip(checkpoint as usize + 1);
        blocks.map(|b| 21 + b.to_checked_bytes().len() as u64).sum()
    }

    #[test]
    fn the_wal_holds_exactly_its_seals() {
        use cc_workload::{Benchmark, WorkloadSpec};
        const INTERVAL: u64 = 3;
        // 100 % conflict: miners retry and abort, followers replay.
        for benchmark in [Benchmark::SimpleAuction, Benchmark::EtherDoc] {
            for (name, config) in [
                ("stm", EngineConfig::new()),
                ("mvcc", EngineConfig::optimistic()),
            ] {
                let workload = WorkloadSpec::new(benchmark, 24, 1.0).generate();
                let dir = |role: &str| temp_dir(&format!("seals-{benchmark}-{name}-{role}"));
                let durable = |role: &str| {
                    let dir = dir(role);
                    std::fs::remove_dir_all(&dir).ok();
                    Node::builder()
                        .world(workload.build_world())
                        .config(config.clone().threads(2))
                        .durability(
                            DurabilityConfig::new(dir, DurabilityMode::Buffered)
                                .snapshot_interval(INTERVAL),
                        )
                        .build()
                        .unwrap()
                };
                let holds_only_seals = |node: &Node| {
                    let written = node.wal().unwrap().written_len();
                    assert_eq!(written, seal_bytes(node, INTERVAL), "{benchmark} {name}");
                };
                let mut miner = durable("miner");
                for _ in 0..4 {
                    miner.mine_and_append(workload.transactions()).unwrap();
                    holds_only_seals(&miner);
                }
                let mut follower = durable("follower");
                for block in miner.chain().iter().skip(1) {
                    let one = std::iter::once(block.clone());
                    follower
                        .run_follower_pipeline(one, &FollowerConfig::new())
                        .unwrap();
                    holds_only_seals(&follower);
                }
                for role in ["miner", "follower"] {
                    std::fs::remove_dir_all(dir(role)).ok();
                }
            }
        }
    }

    #[test]
    fn a_node_built_over_a_used_directory_recovers_its_own_chain() {
        let dir = temp_dir("used-dir");
        std::fs::remove_dir_all(&dir).ok();
        let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered);
        // Another history over the same genesis world leaves a
        // checkpoint at height 8 behind.
        let mut other = Node::builder()
            .world(fresh_world())
            .config(EngineConfig::new().threads(2))
            .durability(config.clone().snapshot_interval(8))
            .build()
            .unwrap();
        for block_number in 0..8u64 {
            other
                .mine_and_append(block_txs(5_000 + block_number * 100, 2))
                .unwrap();
        }
        drop(other);
        assert!(dir.join(SnapshotFile::file_name(8)).exists());

        let mut node = Node::builder()
            .world(fresh_world())
            .config(EngineConfig::new().threads(2))
            .durability(config.clone())
            .build()
            .unwrap();
        for block_number in 0..2u64 {
            node.mine_and_append(block_txs(block_number * 100, 4))
                .unwrap();
        }
        let head = node.chain().head().clone();
        drop(node);

        let engine = EngineConfig::new().threads(2).build().unwrap();
        let recovered = Node::recover(config, fresh_world(), engine).unwrap();
        assert_eq!(recovered.chain().head_hash(), head.hash());
        assert_eq!(recovered.world().state_root(), head.header.state_root);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_persistence_stales_the_node() {
        let dir = temp_dir("persist-fail");
        std::fs::remove_dir_all(&dir).ok();
        let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered).snapshot_interval(1);
        let mut node = Node::builder()
            .world(fresh_world())
            .config(EngineConfig::new().threads(2))
            .durability(config)
            .build()
            .unwrap();
        // Yank the durability directory out from under the node: the
        // WAL seal still reaches the (unlinked) open file, but the
        // snapshot due at interval 1 cannot be written.
        std::fs::remove_dir_all(&dir).unwrap();
        let err = node.mine_and_append(block_txs(0, 4)).unwrap_err();
        assert!(err.to_string().contains("durability"), "got: {err}");
        assert!(node.is_stale(), "failed persistence must stale the node");

        // The in-memory chain is ahead of durable state; the node fails
        // fast instead of serving blocks a crash would forget.
        let err = node.mine_and_append(block_txs(100, 2)).unwrap_err();
        assert!(err.to_string().contains("stale"), "got: {err}");
    }

    #[test]
    fn a_failed_inline_seal_rolls_back_to_the_durable_prefix() {
        let dir = temp_dir("seal-fail");
        std::fs::remove_dir_all(&dir).ok();
        let mut node = Node::builder()
            .world(fresh_world())
            .config(EngineConfig::new().threads(2))
            .durability(DurabilityConfig::new(&dir, DurabilityMode::Fsync))
            .build()
            .unwrap();
        node.mine_and_append(block_txs(0, 4)).unwrap();
        // The one-block calls take the same epilogue as the pipelines.
        node.wal().unwrap().inject_seal_failures(0);
        let err = node.mine_and_append(block_txs(100, 4)).unwrap_err();
        assert!(err.to_string().contains("sealing block 2"), "got: {err}");
        assert!(node.is_stale());
        assert_eq!(node.chain().len(), 2, "block 2 was never durable");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durability_off_creates_nothing() {
        let dir = temp_dir("off");
        std::fs::remove_dir_all(&dir).ok();
        let mut node = Node::builder()
            .world(fresh_world())
            .config(EngineConfig::new().threads(2))
            .durability(DurabilityConfig::new(&dir, DurabilityMode::Off))
            .build()
            .unwrap();
        node.mine_and_append(block_txs(0, 4)).unwrap();
        assert!(!dir.exists(), "Off mode must not touch the filesystem");
    }

    #[test]
    fn recover_from_a_broken_directory_is_a_typed_error() {
        // A directory that never existed.
        let dir = temp_dir("no-such-dir");
        std::fs::remove_dir_all(&dir).ok();
        let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered);
        let err = Node::recover(config, fresh_world(), Engine::default()).unwrap_err();
        assert!(matches!(err, CoreError::Durability { .. }), "got: {err}");

        // A directory whose snapshot is garbage: still a typed error,
        // never a panic.
        let dir = temp_dir("garbage-snapshot");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("snapshot-0.snap"), b"not a snapshot").unwrap();
        let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered);
        let err = Node::recover(config, fresh_world(), Engine::default()).unwrap_err();
        assert!(matches!(err, CoreError::Durability { .. }), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_rejects_mismatched_initial_world() {
        let dir = temp_dir("wrong-world");
        std::fs::remove_dir_all(&dir).ok();
        let config = DurabilityConfig::new(&dir, DurabilityMode::Buffered);
        let mut node = Node::builder()
            .world(fresh_world())
            .config(EngineConfig::new().threads(2))
            .durability(config.clone())
            .build()
            .unwrap();
        node.mine_and_append(block_txs(0, 4)).unwrap();
        drop(node);

        let err = Node::recover(config, World::new(), Engine::default()).unwrap_err();
        assert!(err.to_string().contains("genesis"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn builder_defaults_and_shared_engines() {
        // No world, no config: an empty world and the default engine.
        let node = Node::builder().build().unwrap();
        assert_eq!(node.engine().threads(), EngineConfig::DEFAULT_THREADS);
        assert_eq!(node.chain().len(), 1);

        // A bad config is rejected at build time.
        assert!(Node::builder()
            .config(EngineConfig::new().threads(0))
            .build()
            .is_err());

        // Two nodes can share one engine.
        let engine = Engine::serial();
        let mut a = Node::builder()
            .world(fresh_world())
            .engine(engine.clone())
            .build()
            .unwrap();
        let mut b = Node::builder()
            .world(fresh_world())
            .engine(engine)
            .build()
            .unwrap();
        assert_eq!(a.engine().strategy(), ExecutionStrategy::Serial);
        let mined = a.mine_and_append(block_txs(0, 5)).unwrap();
        b.validate_and_append(&mined.block).unwrap();
        assert_eq!(a.world().state_root(), b.world().state_root());
    }
}

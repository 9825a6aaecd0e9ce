//! One round of a workload: produce, follow and (durable workloads)
//! recover on fresh nodes, then check the outputs.
//!
//! Closed loop, one driver thread. Everything a timed phase needs —
//! inputs, worlds, nodes, durability directories — is built before its
//! clock starts and counted as set-up. Only the node's public API is
//! called.

use crate::probes;
use crate::trace::{Tracer, NO_BLOCK};
use crate::workloads::{Inputs, WorkloadDef};
use cc_core::engine::{Engine, EngineConfig};
use cc_core::node::{DurabilityConfig, Node};
use cc_core::{FollowerConfig, MinerStats, PipelineConfig, ValidationReport};
use cc_ledger::Block;
use cc_mempool::MempoolConfig;
use cc_vm::World;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Spans plus the per-layer samples that are not durations (counts,
/// sizes, per-round ratios). Disabled, it records nothing and the round
/// runs no probe: that is the end-to-end run.
#[derive(Debug)]
pub struct Recorder {
    /// The span recorder.
    pub tracer: Tracer,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// How many samples each metric held when the current round began.
    round_marks: BTreeMap<&'static str, usize>,
}

impl Recorder {
    /// A recorder that keeps (`enabled`) or drops everything.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            tracer: Tracer::new(enabled),
            samples: BTreeMap::new(),
            round_marks: BTreeMap::new(),
        }
    }

    /// Starts round `round`: spans carry its number, and
    /// [`Recorder::round_sum`] counts from here.
    pub fn begin_round(&mut self, round: u32) {
        self.tracer.set_round(round);
        self.round_marks = self.samples.iter().map(|(k, v)| (*k, v.len())).collect();
    }

    /// Sum of the samples `metric` gained in the current round.
    pub fn round_sum(&self, metric: &str) -> f64 {
        let mark = self.round_marks.get(metric).copied().unwrap_or(0);
        self.samples
            .get(metric)
            .map_or(0.0, |v| v[mark..].iter().sum())
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Adds one sample of the layer metric `metric`.
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        self.extend(metric, [value]);
    }

    /// Adds several samples of the layer metric `metric`.
    pub fn extend(&mut self, metric: &'static str, values: impl IntoIterator<Item = f64>) {
        if self.enabled() {
            self.samples.entry(metric).or_default().extend(values);
        }
    }

    /// Runs `call` inside a span and records its duration (µs) as one
    /// sample of `metric`.
    pub fn timed<T>(
        &mut self,
        span: &'static str,
        metric: &'static str,
        block: u32,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.tracer.enter(span, block);
        let out = call();
        let ns = self.tracer.exit(id);
        self.sample(metric, ns as f64 / 1e3);
        out
    }

    /// Every sample recorded so far, by metric name.
    pub fn samples(&self) -> &BTreeMap<&'static str, Vec<f64>> {
        &self.samples
    }
}

/// A duration in (fractional) microseconds.
pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What one round measured and whether its outputs checked out.
#[derive(Debug, Clone, Default)]
pub struct RoundResult {
    /// Time spent building inputs, worlds, nodes and directories.
    pub setup_s: f64,
    /// First `submit` to last block appended and (per mode) durable.
    pub produce_s: f64,
    /// Validate, append and persist the same chain on the follower.
    pub follow_s: f64,
    /// `Node::recover` of the producer's directory (durable workloads).
    pub recover_s: Option<f64>,
    /// Transactions on the producer's chain.
    pub txns: usize,
    /// Submissions the mempool turned away.
    pub rejected: u64,
    /// Transactions submitted plus blocks offered to the follower.
    pub attempted: u64,
    /// Rejections, missing transactions and failed checks.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl RoundResult {
    fn fail(&mut self, count: u64, reason: String) {
        self.failed += count.max(1);
        self.failures.push(reason);
    }
}

/// Removes a round's scratch directory when the round ends, whichever
/// way it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The fixed parts of a run: the workload, its engines and where its
/// scratch directories go.
#[derive(Debug)]
pub struct Harness {
    /// The workload being run.
    pub def: &'static WorkloadDef,
    /// The engine every node of the run shares.
    pub engine: Engine,
    /// The serial baseline the probes compare against.
    pub serial: Engine,
    scratch_root: PathBuf,
}

/// What the produce phase hands to the later phases.
pub struct Produced {
    /// The producer, still open (dropped before recovery).
    pub node: Node,
    /// Its chain without the genesis block.
    pub blocks: Vec<Block>,
    /// Per-block miner statistics (sequential workloads).
    pub miner_stats: Vec<MinerStats>,
    /// Time the pipeline spent stalled on the durability stage.
    pub stalled: Duration,
    /// WAL bytes logged, and the transactions they cover (traced rounds).
    pub wal_logged: (u64, usize),
}

impl Harness {
    /// Engine worker threads: the paper's three, or fewer on a smaller host.
    pub fn engine_threads() -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        cores.min(EngineConfig::DEFAULT_THREADS)
    }

    /// A harness for `def` keeping scratch directories under `scratch_root`.
    pub fn new(def: &'static WorkloadDef, scratch_root: &Path) -> Result<Self, String> {
        let engine = EngineConfig::new()
            .strategy(def.strategy)
            .threads(Self::engine_threads())
            .build()
            .map_err(|e| e.to_string())?;
        Ok(Harness {
            def,
            engine,
            serial: Engine::serial(),
            scratch_root: scratch_root.to_path_buf(),
        })
    }

    /// The workload's durability settings over `dir`.
    pub fn durability(&self, dir: &Path) -> DurabilityConfig {
        DurabilityConfig::new(dir, self.def.durability)
            .snapshot_interval(self.def.snapshot_interval)
    }

    /// A fresh node over `world`, persisting into `dir`.
    pub fn node(&self, world: World, dir: &Path) -> Result<Node, String> {
        Node::builder()
            .world(world)
            .engine(self.engine.clone())
            // Sized so that no sender hash skew can fill a shard.
            .mempool(MempoolConfig {
                capacity: 8 * self.def.txns_per_round().max(1024),
                shards: 8,
            })
            .durability(self.durability(dir))
            .build()
            .map_err(|e| format!("node build failed: {e}"))
    }

    /// Submits `inputs` and mines until the pool is empty. Returns the
    /// phase's wall time with what it produced.
    pub fn produce(
        &self,
        mut node: Node,
        inputs: &Inputs,
        rec: &mut Recorder,
        result: &mut RoundResult,
    ) -> Result<(Duration, Produced), String> {
        let gas = self.def.block_gas();
        let feed = inputs.txns.clone();
        let mut miner_stats = Vec::new();
        let mut stalled = Duration::ZERO;
        let mut rejected = 0u64;
        // A snapshot resets the log, so bytes are counted block by block
        // and a block that ends in a snapshot is left out.
        let mut wal_logged = (0u64, 0usize);
        let wal_len = |node: &Node| node.wal().map_or(0, |wal| wal.written_len());

        let phase = rec.tracer.enter("produce", NO_BLOCK);
        let start = Instant::now();
        for tx in feed {
            let span = rec.tracer.enter("node.submit", NO_BLOCK);
            let outcome = node.submit(tx);
            rec.tracer.exit(span);
            if outcome.is_err() {
                rejected += 1;
            }
        }
        let mined = if self.def.pipelined {
            let span = rec.tracer.enter("node.run_pipeline", NO_BLOCK);
            let report = node.run_pipeline(&PipelineConfig::new(gas));
            rec.tracer.exit(span);
            report.map(|r| {
                stalled = r.stalled;
                wal_logged = (wal_len(&node), r.transactions);
            })
        } else {
            let mut block = 0u32;
            let mut wal_before = wal_len(&node);
            loop {
                if node.mempool().is_empty() {
                    break Ok(());
                }
                block += 1;
                let span = rec.tracer.enter("node.mine_pending", block);
                let mined = node.mine_pending(gas);
                rec.tracer.exit(span);
                match mined {
                    // Only gapped transactions are left: they can never mine.
                    Ok(mined) if mined.block.is_empty() => break Ok(()),
                    Ok(mined) => {
                        if rec.enabled() {
                            let len = wal_len(&node);
                            if len > wal_before {
                                wal_logged.0 += len - wal_before;
                                wal_logged.1 += mined.block.len();
                            }
                            wal_before = len;
                        }
                        miner_stats.push(mined.stats);
                    }
                    Err(e) => break Err(e),
                }
            }
        };
        let elapsed = start.elapsed();
        rec.tracer.exit(phase);

        mined.map_err(|e| format!("producer failed: {e}"))?;
        result.attempted += inputs.txns.len() as u64;
        result.rejected = rejected;
        rec.sample("mempool.rejected", rejected as f64);
        let blocks: Vec<Block> = node.chain().iter().skip(1).cloned().collect();
        Ok((
            elapsed,
            Produced {
                node,
                blocks,
                miner_stats,
                stalled,
                wal_logged,
            },
        ))
    }

    /// Replays `blocks` on `follower`. Returns the phase's wall time, the
    /// per-block validation reports (sequential workloads) and the time
    /// the follower pipeline spent stalled.
    pub fn follow(
        &self,
        follower: &mut Node,
        blocks: &[Block],
        rec: &mut Recorder,
        result: &mut RoundResult,
    ) -> (Duration, Vec<ValidationReport>, Duration) {
        let feed = blocks.to_vec();
        let mut reports = Vec::new();
        let mut stalled = Duration::ZERO;
        result.attempted += blocks.len() as u64;

        let phase = rec.tracer.enter("follow", NO_BLOCK);
        let start = Instant::now();
        if self.def.pipelined {
            let span = rec.tracer.enter("node.run_follower_pipeline", NO_BLOCK);
            let report = follower.run_follower_pipeline(feed, &FollowerConfig::new());
            rec.tracer.exit(span);
            match report {
                Ok(report) => stalled = report.stalled,
                Err(e) => {
                    let accepted = follower.chain().len() as u64 - 1;
                    result.fail(
                        blocks.len() as u64 - accepted,
                        format!("follower rejected the chain after {accepted} blocks: {e}"),
                    );
                }
            }
        } else {
            for (i, block) in feed.iter().enumerate() {
                let span = rec.tracer.enter("node.validate_append", i as u32 + 1);
                let report = follower.validate_and_append(block);
                rec.tracer.exit(span);
                match report {
                    Ok(report) => reports.push(report),
                    Err(e) => {
                        result.fail(
                            (blocks.len() - i) as u64,
                            format!("follower rejected block {}: {e}", i + 1),
                        );
                        break;
                    }
                }
            }
        }
        let elapsed = start.elapsed();
        rec.tracer.exit(phase);
        (elapsed, reports, stalled)
    }

    /// Runs round `round` on inputs generated from `seed`.
    pub fn round(&self, seed: u64, round: u32, rec: &mut Recorder) -> RoundResult {
        let mut result = RoundResult::default();
        rec.begin_round(round);
        let root_span = rec.tracer.enter("round", NO_BLOCK);
        if let Err(reason) = self.round_inner(seed, round, rec, &mut result) {
            result.fail(1, reason);
        }
        rec.tracer.exit(root_span);
        result
    }

    fn round_inner(
        &self,
        seed: u64,
        round: u32,
        rec: &mut Recorder,
        result: &mut RoundResult,
    ) -> Result<(), String> {
        let def = self.def;

        // -- set-up (untimed phases, timed as `setup_s`) ------------------
        let setup_span = rec.tracer.enter("setup", NO_BLOCK);
        let setup = Instant::now();
        let inputs = Inputs::generate(def, seed);
        let scratch = Scratch(
            self.scratch_root
                .join(format!("{}-{round}", std::process::id())),
        );
        let producer_dir = scratch.0.join("producer");
        let follower_dir = scratch.0.join("follower");
        let producer = self.node(inputs.build_world(), &producer_dir)?;
        let mut follower = self.node(inputs.build_world(), &follower_dir)?;
        let recovery_world = def.durable().then(|| inputs.build_world());
        result.setup_s = setup.elapsed().as_secs_f64();
        rec.tracer.exit(setup_span);

        // -- produce ------------------------------------------------------
        let (produce, produced) = self.produce(producer, &inputs, rec, result)?;
        result.produce_s = produce.as_secs_f64();

        // -- follow -------------------------------------------------------
        let (follow, reports, follower_stalled) =
            self.follow(&mut follower, &produced.blocks, rec, result);
        result.follow_s = follow.as_secs_f64();

        // -- producer-side checks (it is dropped before recovery) ---------
        let Produced {
            node: producer,
            blocks,
            miner_stats,
            stalled,
            wal_logged,
        } = produced;
        let producer_root = producer.world().state_root();
        let head_hash = producer.chain().head_hash();
        result.txns = producer.chain().total_transactions();
        self.check_chain(&producer, &inputs, result);
        if follower.world().state_root() != producer_root
            || follower.chain().head_hash() != head_hash
        {
            result.fail(1, "follower state differs from the producer's".into());
        }
        drop(producer);

        // -- recover ------------------------------------------------------
        if let Some(world) = recovery_world {
            let phase = rec.tracer.enter("recover", NO_BLOCK);
            let span = rec.tracer.enter("node.recover", NO_BLOCK);
            let start = Instant::now();
            let recovered =
                Node::recover(self.durability(&producer_dir), world, self.engine.clone());
            let elapsed = start.elapsed();
            rec.tracer.exit(span);
            rec.tracer.exit(phase);
            result.recover_s = Some(elapsed.as_secs_f64());
            match recovered {
                Ok(node) => {
                    if node.world().state_root() != producer_root
                        || node.chain().head_hash() != head_hash
                    {
                        result.fail(1, "recovered state differs from the producer's".into());
                    }
                }
                Err(e) => result.fail(1, format!("recovery failed: {e}")),
            }
        }

        // -- probes (traced run only; never inside a timed phase) ---------
        if rec.enabled() && result.failures.is_empty() {
            let span = rec.tracer.enter("probes", NO_BLOCK);
            let probed = probes::run(
                self,
                &probes::RoundView {
                    inputs: &inputs,
                    blocks: &blocks,
                    miner_stats: &miner_stats,
                    reports: &reports,
                    produce,
                    follow,
                    pipeline_stalled: stalled,
                    follower_stalled,
                    wal_logged,
                    scratch: &scratch.0,
                },
                rec,
            );
            rec.tracer.exit(span);
            probed?;
        }
        Ok(())
    }

    /// Chain-shape checks against what the generator promised.
    fn check_chain(&self, producer: &Node, inputs: &Inputs, result: &mut RoundResult) {
        let chain = producer.chain();
        if !chain.verify_structure() {
            result.fail(1, "producer chain fails verify_structure".into());
        }
        let expected_blocks = self.def.blocks_per_round();
        if chain.len() - 1 != expected_blocks {
            result.fail(
                1,
                format!(
                    "chain holds {} blocks, generator implies {expected_blocks}",
                    chain.len() - 1
                ),
            );
        }
        // A rejected submission is also missing from the chain; it is one
        // failed operation, not two.
        let on_chain = chain.total_transactions();
        if on_chain != inputs.txns.len() {
            result.fail(
                inputs.txns.len().abs_diff(on_chain) as u64,
                format!(
                    "{on_chain} transactions on the chain, {} submitted ({} rejected by the mempool)",
                    inputs.txns.len(),
                    result.rejected
                ),
            );
        }
        let throws = chain
            .iter()
            .flat_map(|b| &b.receipts)
            .filter(|r| !r.succeeded())
            .count();
        if throws != inputs.expected_throws {
            result.fail(
                1,
                format!(
                    "{throws} transactions threw, generator expects {}",
                    inputs.expected_throws
                ),
            );
        }
    }
}

//! Ingestion-to-commit throughput: sequential vs. pipelined production.
//!
//! Each case prefills a node's mempool with the same traffic (uniform
//! counter increments across many senders), then produces blocks until
//! the pool is drained — either sequentially
//! ([`Node::mine_pending`] in a loop: assemble, mine, seal, fsync, one
//! after the other) or pipelined ([`Node::run_pipeline`]: the WAL
//! seal/fsync of block N overlapped with the mining of block N+1). The
//! sweep crosses durability `off/buffered/fsync` with both production
//! modes; `repro pipeline` prints it and `repro --json` records it in
//! the `pipeline` section.
//!
//! On the single-core container the pipelined win shows up as per-block
//! cost: the fsync no longer sits on the critical path, so
//! `ingest-fsync-pipe` must beat `ingest-fsync-seq` even without
//! parallel hardware — the production thread mines while the kernel
//! syncs. With durability off the two modes do the same work and should
//! measure the same.
//!
//! The follower sweep ([`run_follower`]) measures the consuming side of
//! the same pipeline: every case replays one pre-mined sealed stream,
//! either sequentially (`validate_and_append`: validate, seal, fsync,
//! one block after the other) or speculatively
//! ([`Node::run_follower_pipeline`]: block N+1 replayed against block
//! N's still-pending post-state while N's seal/fsync runs on the
//! durability stage). `follower-fsync-spec` must beat
//! `follower-fsync-seq` for the same reason `ingest-fsync-pipe` beats
//! `ingest-fsync-seq`.

use cc_core::engine::{Engine, ExecutionStrategy};
use cc_core::node::{DurabilityConfig, Node};
use cc_core::FollowerConfig;
use cc_core::PipelineConfig;
use cc_ledger::wal::DurabilityMode;
use cc_ledger::{Block, Transaction};
use cc_mempool::MempoolConfig;
use cc_vm::testing::CounterContract;
use cc_vm::{Address, ArgValue, CallData, World};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One measured ingestion case.
#[derive(Debug, Clone)]
pub struct PipelinePoint {
    /// Stable case name (the key used by `repro diff`):
    /// `ingest-{off|buffered|fsync}-{seq|pipe}`.
    pub name: &'static str,
    /// Median end-to-end throughput from prefilled mempool to committed
    /// (and, per mode, durable) blocks, in transactions per second.
    pub txns_per_sec: f64,
    /// Median wall-clock cost per produced block, in milliseconds.
    pub ms_per_block: f64,
}

/// Distinguishes concurrent benchmark runs' scratch directories.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "cc-bench-pipeline-{}-{}-{tag}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    dir
}

const COUNTER: &str = "bench.pipeline.counter";
const TX_GAS: u64 = 1_000_000;

fn counter_world() -> World {
    let world = World::new();
    world.deploy(Arc::new(CounterContract::new(Address::from_name(COUNTER))));
    world
}

/// Submits `blocks × block_size` increments: `block_size` senders, each
/// with a contiguous nonce run, so every transaction is ready at once
/// and the gas budget slices the pool into `blocks` full blocks.
fn prefill(node: &Node, blocks: u64, block_size: u64) {
    for sender in 0..block_size {
        for nonce in 0..blocks {
            let tx = Transaction::new(
                nonce,
                Address::from_index(sender),
                Address::from_name(COUNTER),
                CallData::new("increment", vec![ArgValue::Uint(1)]),
                TX_GAS,
            )
            .priority_fee(sender % 7);
            node.submit(tx).expect("bench submission admitted");
        }
    }
}

fn bench_node(engine: &Engine, mode: DurabilityMode, dir: &std::path::Path, blocks: u64) -> Node {
    let mut builder = Node::builder()
        .world(counter_world())
        .engine(engine.clone())
        .mempool(MempoolConfig {
            capacity: 1 << 16,
            shards: 8,
        });
    if mode != DurabilityMode::Off {
        // Snapshots deliberately out of cadence: this case measures the
        // per-block seal/fsync overlap, not snapshot serialization.
        builder =
            builder.durability(DurabilityConfig::new(dir, mode).snapshot_interval(blocks + 1));
    }
    builder.build().expect("pipeline bench node")
}

/// Times one run of a `(durability, pipelined?)` case: prefill a fresh
/// node, drain the pool to blocks, return per-block wall time.
fn time_one(
    engine: &Engine,
    mode: DurabilityMode,
    pipelined: bool,
    blocks: u64,
    block_size: u64,
) -> std::time::Duration {
    let gas_limit = block_size * TX_GAS;
    let dir = scratch_dir("rep");
    let mut node = bench_node(engine, mode, &dir, blocks);
    prefill(&node, blocks, block_size);
    let start = Instant::now();
    if pipelined {
        let report = node
            .run_pipeline(&PipelineConfig::new(gas_limit))
            .expect("pipelined production succeeds");
        assert_eq!(report.blocks, blocks, "gas budget must slice evenly");
    } else {
        for _ in 0..blocks {
            node.mine_pending(gas_limit)
                .expect("sequential block mines");
        }
    }
    let elapsed = start.elapsed();
    assert!(node.mempool().is_empty(), "the drain must consume the pool");
    drop(node);
    std::fs::remove_dir_all(&dir).ok();
    elapsed / u32::try_from(blocks).expect("block count fits u32")
}

/// The middle sample (robust against one-off scheduler hiccups, which
/// the mean is not on a shared single-core box).
fn median(samples: &mut [std::time::Duration]) -> std::time::Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Runs the ingestion sweep: durability `off/buffered/fsync` × production
/// `seq/pipe`, each from the same prefilled mempool traffic.
///
/// Repetitions are **interleaved across the cases** (round-robin, one
/// warm-up round first) so slow environmental drift — CPU frequency,
/// noisy neighbors — lands on every case equally instead of biasing
/// whichever case happened to run during the slow minute; each case
/// reports its median repetition.
pub fn run_pipeline(
    blocks: u64,
    block_size: u64,
    threads: usize,
    repetitions: usize,
) -> Vec<PipelinePoint> {
    let engine = crate::engine(ExecutionStrategy::SpeculativeStm, threads);
    let cases = [
        ("ingest-off-seq", DurabilityMode::Off, false),
        ("ingest-off-pipe", DurabilityMode::Off, true),
        ("ingest-buffered-seq", DurabilityMode::Buffered, false),
        ("ingest-buffered-pipe", DurabilityMode::Buffered, true),
        ("ingest-fsync-seq", DurabilityMode::Fsync, false),
        ("ingest-fsync-pipe", DurabilityMode::Fsync, true),
    ];
    let mut samples: Vec<Vec<std::time::Duration>> = vec![Vec::new(); cases.len()];
    for round in 0..repetitions.max(1) + 1 {
        for (i, (_, mode, pipelined)) in cases.iter().enumerate() {
            let per_block = time_one(&engine, *mode, *pipelined, blocks, block_size);
            if round > 0 {
                samples[i].push(per_block);
            }
        }
    }
    cases
        .iter()
        .zip(&mut samples)
        .map(|((name, _, _), samples)| {
            let ms_per_block = median(samples).as_secs_f64() * 1_000.0;
            PipelinePoint {
                name,
                txns_per_sec: block_size as f64 / (ms_per_block / 1_000.0),
                ms_per_block,
            }
        })
        .collect()
}

/// Pre-mines the sealed block stream every follower case consumes:
/// `blocks` blocks of `block_size` counter increments from a producer
/// node with no durability (the producer's own seal cost must not leak
/// into follower timings).
fn produce_stream(engine: &Engine, blocks: u64, block_size: u64) -> Vec<Block> {
    let mut producer = Node::builder()
        .world(counter_world())
        .engine(engine.clone())
        .build()
        .expect("producer node");
    (0..blocks)
        .map(|number| {
            let txs = (0..block_size)
                .map(|sender| {
                    Transaction::new(
                        number,
                        Address::from_index(sender),
                        Address::from_name(COUNTER),
                        CallData::new("increment", vec![ArgValue::Uint(1)]),
                        TX_GAS,
                    )
                })
                .collect();
            producer
                .mine_and_append(txs)
                .expect("producer block mines")
                .block
        })
        .collect()
}

/// Times one follower consuming the pre-mined stream: sequentially
/// (`validate_and_append` per block, each paying its own seal/fsync) or
/// speculatively (`run_follower_pipeline`, block N+1 replaying against
/// N's pending overlay while N's seal/fsync runs on the durability
/// stage).
fn time_one_follower(
    engine: &Engine,
    mode: DurabilityMode,
    speculative: bool,
    stream: &[Block],
) -> std::time::Duration {
    let blocks = stream.len() as u64;
    let dir = scratch_dir("follower");
    let mut builder = Node::builder()
        .world(counter_world())
        .engine(engine.clone());
    if mode != DurabilityMode::Off {
        builder =
            builder.durability(DurabilityConfig::new(&dir, mode).snapshot_interval(blocks + 1));
    }
    let mut node = builder.build().expect("follower bench node");
    let start = Instant::now();
    if speculative {
        let report = node
            .run_follower_pipeline(stream.to_vec(), &FollowerConfig::new().max_in_flight(3))
            .expect("speculative validation succeeds");
        assert_eq!(report.blocks, blocks, "the follower must accept the stream");
    } else {
        for block in stream {
            node.validate_and_append(block)
                .expect("sequential validation succeeds");
        }
    }
    let elapsed = start.elapsed();
    drop(node);
    std::fs::remove_dir_all(&dir).ok();
    elapsed / u32::try_from(blocks).expect("block count fits u32")
}

/// Runs the follower sweep: durability `off/buffered/fsync` × validation
/// `seq/spec`, every case replaying the same pre-mined sealed stream.
/// Repetitions interleave round-robin with one warm-up, as in
/// [`run_pipeline`]; each case reports its median repetition.
pub fn run_follower(
    blocks: u64,
    block_size: u64,
    threads: usize,
    repetitions: usize,
) -> Vec<PipelinePoint> {
    let engine = crate::engine(ExecutionStrategy::SpeculativeStm, threads);
    let stream = produce_stream(&engine, blocks, block_size);
    let cases = [
        ("follower-off-seq", DurabilityMode::Off, false),
        ("follower-off-spec", DurabilityMode::Off, true),
        ("follower-buffered-seq", DurabilityMode::Buffered, false),
        ("follower-buffered-spec", DurabilityMode::Buffered, true),
        ("follower-fsync-seq", DurabilityMode::Fsync, false),
        ("follower-fsync-spec", DurabilityMode::Fsync, true),
    ];
    let mut samples: Vec<Vec<std::time::Duration>> = vec![Vec::new(); cases.len()];
    for round in 0..repetitions.max(1) + 1 {
        for (i, (_, mode, speculative)) in cases.iter().enumerate() {
            let per_block = time_one_follower(&engine, *mode, *speculative, &stream);
            if round > 0 {
                samples[i].push(per_block);
            }
        }
    }
    cases
        .iter()
        .zip(&mut samples)
        .map(|((name, _, _), samples)| {
            let ms_per_block = median(samples).as_secs_f64() * 1_000.0;
            PipelinePoint {
                name,
                txns_per_sec: block_size as f64 / (ms_per_block / 1_000.0),
                ms_per_block,
            }
        })
        .collect()
}

/// Exercises the pipeline's failure path end to end: arms WAL fault
/// injection mid-run, then checks that the node staled, rolled its
/// in-memory chain back to the durable prefix, and that
/// [`Node::recover`] rebuilds exactly that prefix. Returns an error
/// string describing the first violated invariant, if any — the smoke
/// gate (`repro pipeline --quick`) fails on it.
pub fn verify_failure_path(threads: usize) -> Result<(), String> {
    let dir = scratch_dir("faultsim");
    let engine = crate::engine(ExecutionStrategy::SpeculativeStm, threads);
    let blocks = 4u64;
    let block_size = 8u64;
    let mut node = bench_node(&engine, DurabilityMode::Fsync, &dir, blocks);
    prefill(&node, blocks, block_size);
    // Blocks 1 and 2 seal; block 3's seal fails mid-pipeline.
    node.wal()
        .ok_or("durable node must expose its WAL")?
        .inject_seal_failures(2);
    let err = node
        .run_pipeline(&PipelineConfig::new(block_size * TX_GAS))
        .err()
        .ok_or("injected seal failure must surface as an error")?;
    if !err.to_string().contains("sealing block 3") {
        return Err(format!("unexpected failure shape: {err}"));
    }
    if !node.is_stale() {
        return Err("persist failure must stale the node".into());
    }
    if node.chain().head().header.number != 2 {
        return Err(format!(
            "chain must roll back to the durable prefix (head is {})",
            node.chain().head().header.number
        ));
    }
    drop(node);
    let recovered = Node::recover(
        DurabilityConfig::new(&dir, DurabilityMode::Fsync),
        counter_world(),
        engine,
    )
    .map_err(|e| format!("recovery after injected failure failed: {e}"))?;
    let head = recovered.chain().head().header.number;
    std::fs::remove_dir_all(&dir).ok();
    if head != 2 {
        return Err(format!(
            "recovery must rebuild blocks 0..=2, got 0..={head}"
        ));
    }
    Ok(())
}

/// Exercises the *follower* pipeline's failure path: a seal failure
/// injected under speculative validation must stale the follower, drop
/// every pending overlay, roll the chain back to the durable prefix,
/// and leave a directory [`Node::recover`] rebuilds to exactly that
/// prefix. Returns the first violated invariant, if any.
pub fn verify_follower_failure_path(threads: usize) -> Result<(), String> {
    let dir = scratch_dir("follower-faultsim");
    let engine = crate::engine(ExecutionStrategy::SpeculativeStm, threads);
    let stream = produce_stream(&engine, 4, 8);
    let mut node = Node::builder()
        .world(counter_world())
        .engine(engine.clone())
        .durability(DurabilityConfig::new(&dir, DurabilityMode::Fsync).snapshot_interval(16))
        .build()
        .expect("follower faultsim node");
    // Blocks 1 and 2 seal; block 3's seal fails behind the speculation.
    node.wal()
        .ok_or("durable follower must expose its WAL")?
        .inject_seal_failures(2);
    let err = node
        .run_follower_pipeline(stream, &FollowerConfig::new().max_in_flight(3))
        .err()
        .ok_or("injected seal failure must surface as an error")?;
    if !err.to_string().contains("sealing block 3") {
        return Err(format!("unexpected failure shape: {err}"));
    }
    if !node.is_stale() {
        return Err("persist failure must stale the follower".into());
    }
    if node.chain().head().header.number != 2 {
        return Err(format!(
            "chain must roll back to the durable prefix (head is {})",
            node.chain().head().header.number
        ));
    }
    drop(node);
    let recovered = Node::recover(
        DurabilityConfig::new(&dir, DurabilityMode::Fsync),
        counter_world(),
        engine,
    )
    .map_err(|e| format!("recovery after injected failure failed: {e}"))?;
    let head = recovered.chain().head().header.number;
    std::fs::remove_dir_all(&dir).ok();
    if head != 2 {
        return Err(format!(
            "recovery must rebuild blocks 0..=2, got 0..={head}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_sweep_measures_all_six_cases() {
        let points = run_pipeline(2, 4, 2, 1);
        assert_eq!(points.len(), 6);
        for p in &points {
            assert!(p.ms_per_block > 0.0, "{} measured nothing", p.name);
            assert!(p.txns_per_sec > 0.0, "{} has no throughput", p.name);
        }
        let mut names: Vec<_> = points.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6, "case names must be unique for repro diff");
    }

    #[test]
    fn failure_path_invariants_hold() {
        verify_failure_path(2).unwrap();
    }

    #[test]
    fn follower_sweep_measures_all_six_cases() {
        let points = run_follower(2, 4, 2, 1);
        assert_eq!(points.len(), 6);
        for p in &points {
            assert!(p.ms_per_block > 0.0, "{} measured nothing", p.name);
            assert!(p.txns_per_sec > 0.0, "{} has no throughput", p.name);
        }
        let mut names: Vec<_> = points.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6, "case names must be unique for repro diff");
    }

    #[test]
    fn follower_failure_path_invariants_hold() {
        verify_follower_failure_path(2).unwrap();
    }
}
